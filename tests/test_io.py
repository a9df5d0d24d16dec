import json

import pytest

from rainbowcon import ParseError, build_gadget, edge_coloring, make_pairs, new_graph
from rainbowcon.io import (
    dump_coloring,
    dump_gadget,
    emit_edge_list,
    emit_instance,
    gadget_from_json_obj,
    load_coloring,
    load_json,
    parse_edge_list,
    parse_instance,
    to_dot,
)


def test_parse_edge_list_example():
    g = parse_edge_list("4 2\n0 1\n2 3\n")
    assert g.vertex_count == 4
    assert g.edges == frozenset({(0, 1), (2, 3)})


def test_edge_list_round_trip():
    g = new_graph(5, [(3, 1), (0, 4), (1, 3)])
    assert parse_edge_list(emit_edge_list(g)) == g
    assert emit_edge_list(g) == "5 2\n0 4\n1 3\n"


def test_parse_edge_list_errors():
    with pytest.raises(ParseError) as err:
        parse_edge_list("4 x\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_edge_list("2 3\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n0 1 9\n")


def test_instance_json_round_trip():
    g = new_graph(4, [(0, 1), (2, 3)])
    pairs = make_pairs([(0, 2)], 4)
    text = emit_instance(g, pairs, 3)
    g2, p2, k2 = parse_instance(text)
    assert g2 == g and list(p2) == [(0, 2)] and k2 == 3
    g3, p3, k3 = parse_instance(emit_instance(g))
    assert g3 == g and p3 is None and k3 is None


def test_parse_instance_auto_detects_and_errors():
    g, pairs, k = parse_instance("2 1\n0 1\n")
    assert g.edge_count == 1 and pairs is None and k is None
    with pytest.raises(ParseError):
        parse_instance("{broken", fmt="json")
    with pytest.raises(ParseError):
        parse_instance(json.dumps({"edges": []}), fmt="json")
    with pytest.raises(ParseError):
        parse_instance(json.dumps({"n": 2, "edges": [], "k": 0}), fmt="json")


def test_dot_output_marks_highlights():
    g = new_graph(3, [(0, 1), (1, 2)])
    dot = to_dot(g, highlights=(1,))
    assert "graph g {" in dot
    assert "  1 [shape=doublecircle];" in dot
    assert "  0 -- 1;" in dot and "  1 -- 2;" in dot
    assert to_dot(g) == to_dot(g)


def test_coloring_round_trip_and_totality():
    g = new_graph(3, [(0, 1), (1, 2)])
    c = edge_coloring(g, 2, {(0, 1): 0, (1, 2): 1})
    loaded = load_coloring(dump_coloring(c), g)
    assert loaded == c
    with pytest.raises(ParseError):
        load_coloring(json.dumps({"k": 2, "colors": [[0, 1, 0]]}), g)
    with pytest.raises(ParseError):
        load_coloring(json.dumps({"k": 2, "colors": [[0, 1, 0], [1, 2, 5]]}), g)
    with pytest.raises(ParseError):
        load_coloring(json.dumps({"k": 2, "colors": [[0, 1, 0], [0, 1, 1], [1, 2, 0]]}), g)


def test_gadget_json_round_trip():
    for order in (2, 3, 4, 5):
        g = build_gadget(3, make_pairs([(0, 1)], 3), order)
        back = gadget_from_json_obj(load_json(dump_gadget(g)))
        assert back.graph == g.graph
        assert back.order == g.order
        assert back.base_vertices == g.base_vertices
        assert back.pairs.pairs == g.pairs.pairs
        assert back.roles == g.roles
        if order >= 4:
            assert back.inner.graph == g.inner.graph
            assert back.copies == g.copies
            assert back.carried == g.carried
        assert dump_gadget(back) == dump_gadget(g)
