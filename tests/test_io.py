import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowcon import (
    ParseError,
    SubsetInstance,
    build_gadget,
    edge_coloring,
    make_pairs,
    new_graph,
    rc_reduction,
    star_reduction,
)
from rainbowcon.cli import main
from rainbowcon.io import (
    dump_coloring,
    dump_gadget,
    emit_edge_list,
    emit_instance,
    emit_json,
    gadget_from_json_obj,
    gadget_json_obj,
    instance_json_obj,
    load_coloring,
    load_json,
    parse_edge_list,
    parse_instance,
    reduced_instance_json_obj,
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


def _vertex_pairs(draw, n):
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []


@st.composite
def instances(draw, min_n=0, max_n=7):
    """A graph, maybe a pair set and maybe a k; n = 0 and 1 and edgeless graphs included."""
    n = draw(st.integers(min_n, max_n))
    pairs = make_pairs(_vertex_pairs(draw, n), n) if draw(st.booleans()) else None
    return new_graph(n, _vertex_pairs(draw, n)), pairs, draw(st.none() | st.integers(1, 9))


@settings(max_examples=80, deadline=None)
@given(instances())
def test_instance_json_is_written_as_json_dumps_writes_it(inst):
    obj = instance_json_obj(*inst)
    assert emit_json(obj) == json.dumps(obj, sort_keys=True)
    assert emit_instance(*inst) == json.dumps(obj, sort_keys=True) + "\n"


@settings(max_examples=40, deadline=None)
@given(instances(min_n=2, max_n=6), st.integers(2, 7))
def test_reduced_and_gadget_json_is_written_as_json_dumps_writes_it(inst, order):
    graph, pairs, _ = inst
    reduced = rc_reduction(SubsetInstance(graph, pairs or make_pairs([]), order))
    for obj in (reduced_instance_json_obj(reduced), gadget_json_obj(reduced.gadget)):  # the gadget nests "inner"
        assert emit_json(obj) == json.dumps(obj, sort_keys=True)
    assert dump_gadget(reduced.gadget) == json.dumps(gadget_json_obj(reduced.gadget), sort_keys=True) + "\n"


@settings(max_examples=40, deadline=None)
@given(instances(min_n=2, max_n=6), st.sampled_from(["star", "src-ext", "rc-gadget"]), st.integers(2, 4))
def test_reduce_payloads_are_written_as_json_dumps_writes_them(inst, reduction, k):
    graph, pairs, _ = inst
    if reduction == "src-ext":  # its input is a star: the vertex-coloring star of the graph
        star = star_reduction(graph, k)
        graph, pairs = star.graph, star.pairs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(emit_instance(graph, pairs or make_pairs([]), k), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["reduce", "--reduction", reduction, "--input", str(path)]) == 0
    line = out.getvalue().splitlines()[0]
    assert line == json.dumps(json.loads(line), sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.lists(st.text().filter(lambda tag: tag != "copy"), min_size=1, max_size=8))
@example(4, ['"', "\\", "\x00", '"edges": [[0, 1]]', '{"n": 0, "edges": []}'])
def test_gadget_records_with_any_role_tag_round_trip_unchanged(order, tags):
    record = gadget_json_obj(build_gadget(3, make_pairs([(0, 1)], 3), order))
    level = record
    while level is not None:  # retag every level's roles, and the layers that follow from them
        for i, v in enumerate(level["roles"]):
            level["roles"][v][0] = level["layers"][v] = tags[i % len(tags)]
        level = level.get("inner")
    text = json.dumps(record, sort_keys=True) + "\n"
    assert dump_gadget(gadget_from_json_obj(load_json(text))) == text


def test_dump_gadget_writes_an_inner_record_larger_than_its_host():
    inner = {"order": 2, "n": 12, "edges": [[0, 11], [10, 11]], "pairs": [], "base_vertices": [0, 1]}
    record = {"order": 4, "n": 2, "edges": [[0, 1]], "pairs": [], "base_vertices": [0, 1], "inner": inner,
              "copies": {}, "carried": {}}
    gadget = gadget_from_json_obj(record)  # read verbatim, as checkers read corrupted records
    assert dump_gadget(gadget) == json.dumps(gadget_json_obj(gadget), sort_keys=True) + "\n"
