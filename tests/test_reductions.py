import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcon import (
    DomainMismatchError,
    EmptyGraphError,
    ImproperColoringError,
    NotAStarError,
    NotSubsetRainbowConnectedError,
    PairNotLeafPairError,
    Path,
    StarInstance,
    SubsetInstance,
    TooFewColorsError,
    build_gadget,
    edge_coloring,
    geodesics,
    is_bipartite,
    is_rainbow_path,
    is_strong_rainbow_connected,
    is_subset_strong_rainbow_connected,
    lift_vertex_coloring,
    make_pairs,
    new_graph,
    project_star_coloring,
    rc_reduction,
    src_extension,
    src_witness_coloring,
    star_reduction,
    subset_src_leq,
    vertex_coloring_leq,
)

from oracles import connected_graph_representatives

K3 = new_graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_star_reduction_counts():
    star = star_reduction(K3, 3)
    assert star.graph.vertex_count == 4
    assert star.graph.edge_count == 3
    assert len(star.pairs) == 3
    assert star.center == 3
    assert not star.below_hardness_regime

    edgeless = star_reduction(new_graph(3, []), 3)
    assert len(edgeless.pairs) == 0

    star4 = star_reduction(K4, 3)
    assert star4.graph.vertex_count == 5
    assert star4.graph.edge_count == 4
    assert len(star4.pairs) == 6


def test_star_reduction_edge_cases():
    with pytest.raises(EmptyGraphError):
        star_reduction(new_graph(0, []), 3)
    assert star_reduction(K3, 2).below_hardness_regime
    single = star_reduction(K3, 1)
    assert single.k == 1 and single.below_hardness_regime and len(single.pairs) == 3
    with pytest.raises(ValueError):
        star_reduction(K3, 0)


def test_lift_examples():
    star = star_reduction(K3, 3)
    lifted = lift_vertex_coloring(star, (0, 1, 2))
    assert lifted.colors == (0, 1, 2)
    assert is_subset_strong_rainbow_connected(lifted, star.pairs)
    with pytest.raises(ImproperColoringError):
        lift_vertex_coloring(star, (0, 0, 1))
    with pytest.raises(ImproperColoringError):
        lift_vertex_coloring(star, (0, 1, 7))
    one = star_reduction(new_graph(1, []), 3)
    assert lift_vertex_coloring(one, (0,)).colors == (0,)


def test_project_examples():
    star = star_reduction(K3, 3)
    lifted = lift_vertex_coloring(star, (0, 1, 2))
    assert project_star_coloring(star, lifted) == (0, 1, 2)
    shared = edge_coloring(star.graph, 3, (0, 0, 1))
    with pytest.raises(NotSubsetRainbowConnectedError):
        project_star_coloring(star, shared)
    empty = star_reduction(new_graph(3, []), 3)
    assert project_star_coloring(empty, edge_coloring(empty.graph, 3, (0, 0, 1))) == (0, 0, 1)


def test_lift_project_round_trip_on_small_graphs():
    for g in connected_graph_representatives(4):
        star = star_reduction(g, 3)
        result = vertex_coloring_leq(g, 3)
        if not result.feasible:
            continue
        lifted = lift_vertex_coloring(star, result.witness)
        assert project_star_coloring(star, lifted) == result.witness
        # and the lift of the projection reproduces the edge colors
        assert lift_vertex_coloring(star, project_star_coloring(star, lifted)) == lifted


def test_src_extension_counts():
    star = star_reduction(K3, 3)
    ext = src_extension(star)
    assert ext.graph.vertex_count == 10
    assert len(ext.layer_one) == 3 and len(ext.twin_layer) == 3
    cross = [e for e in ext.graph.edge_list() if ext.edge_layer(*e) == "cross_link"]
    assert len(cross) == 9

    single = star_reduction(new_graph(2, [(0, 1)]), 3)
    ext1 = src_extension(single)
    assert ext1.graph.vertex_count == 7
    assert len([e for e in ext1.graph.edge_list() if ext1.edge_layer(*e) == "cross_link"]) == 4


def test_src_extension_is_bipartite_with_declared_sides():
    for source in (K3, K4, new_graph(2, [(0, 1)])):
        ext = src_extension(star_reduction(source, 3))
        ok, sides = is_bipartite(ext.graph)
        assert ok
        side_a, side_b = ext.sides()
        assert len(set(sides[v] for v in side_a)) == 1
        assert len(set(sides[v] for v in side_b)) == 1
        assert sorted(side_a + side_b) == list(range(ext.graph.vertex_count))


def test_src_extension_rejects_bad_instances():
    with pytest.raises(NotAStarError):
        StarInstance(new_graph(3, [(0, 1), (1, 2)]), 2, make_pairs([(0, 1)], 2), 3)
    with pytest.raises(NotAStarError):
        StarInstance(new_graph(1, []), 0, make_pairs([]), 3)
    star = star_reduction(K3, 3)
    with pytest.raises(PairNotLeafPairError):
        StarInstance(star.graph, 3, make_pairs([(0, 3)]), 3)


def test_src_extension_matching_pairs_twins():
    ext = src_extension(star_reduction(K3, 3))
    assert len(ext.matching) == len(ext.layer_one)
    matched = {v for e in ext.matching for v in e}
    assert matched == set(ext.layer_one) | set(ext.twin_layer)


def test_src_extension_id_layout_agrees_with_the_roles():
    for source in (K3, new_graph(4, [(0, 1), (1, 2)]), new_graph(2, [])):
        ext = src_extension(star_reduction(source, 3))

        def tagged(*tags):
            return tuple(v for v, role in sorted(ext.roles.items()) if role[0] in tags)

        assert ext.layer_one == tagged("anchor", "bridge")
        assert ext.twin_layer == tagged("anchor_twin", "bridge_twin")
        assert ext.sides() == (tagged("center", "anchor", "bridge"), tagged("leaf", "anchor_twin", "bridge_twin"))
        for x, y in ext.matching:
            assert ext.graph.has_edge(x, y) and ext.roles[y] == (ext.roles[x][0] + "_twin", *ext.roles[x][1:])


def test_src_extension_edge_layer_rejects_every_non_edge():
    ext = src_extension(star_reduction(new_graph(3, [(0, 1), (1, 2)]), 3))
    anchor_of_1 = next(v for v, role in ext.roles.items() if role == ("anchor", 1))
    with pytest.raises(DomainMismatchError):
        ext.edge_layer(0, anchor_of_1)
    n = ext.graph.vertex_count
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            if not ext.graph.has_edge(u, v):
                with pytest.raises(DomainMismatchError):
                    ext.edge_layer(u, v)
    assert {ext.edge_layer(u, v) for u, v in ext.graph.edge_order} == {
        "star", "leaf_link", "cross_link", "center_link"
    }


def test_src_witness_coloring_strong_rainbow():
    star = star_reduction(K3, 3)
    base = lift_vertex_coloring(star, (0, 1, 2))
    ext = src_extension(star)
    witness = src_witness_coloring(ext, base)
    assert witness.color_count == 3
    assert is_strong_rainbow_connected(witness)


def test_src_witness_coloring_single_edge_against_enumeration():
    star = star_reduction(new_graph(2, [(0, 1)]), 3)
    base = subset_src_leq(star.graph, star.pairs, 3).witness
    ext = src_extension(star)
    witness = src_witness_coloring(ext, base)
    # independent route: enumerate geodesics and test each path directly
    n = ext.graph.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            assert any(is_rainbow_path(witness, p) for p in geodesics(ext.graph, u, v))


def test_src_witness_coloring_errors():
    star = star_reduction(K3, 3)
    ext = src_extension(star)
    two_color_star = star_reduction(K3, 2)
    base2 = edge_coloring(two_color_star.graph, 2, (0, 1, 0))
    with pytest.raises(DomainMismatchError):
        src_witness_coloring(ext, edge_coloring(ext.graph, 3, (0,) * ext.graph.edge_count))
    with pytest.raises(TooFewColorsError):
        src_witness_coloring(src_extension(two_color_star), base2)
    bad_base = edge_coloring(star.graph, 3, (0, 0, 0))
    with pytest.raises(NotSubsetRainbowConnectedError):
        src_witness_coloring(ext, bad_base)


@st.composite
def subset_instances(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    pairs = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    return SubsetInstance(new_graph(n, edges), make_pairs(pairs, n), draw(st.integers(2, 5)))


@settings(max_examples=60, deadline=None)
@given(subset_instances())
def test_rc_reduction_merges_to_what_new_graph_builds(inst):
    r = rc_reduction(inst)
    rebuilt = new_graph(r.gadget.graph.vertex_count, list(r.gadget.graph.edge_order) + list(inst.graph.edge_order))
    assert r.graph.edge_order == rebuilt.edge_order
    assert r.graph.edges == rebuilt.edges
    assert r.graph == rebuilt and hash(r.graph) == hash(rebuilt)


@settings(max_examples=40, deadline=None)
@given(subset_instances(), st.integers(2, 7))
def test_no_gadget_edge_joins_two_bases(inst, order):
    n = inst.graph.vertex_count
    gadget = build_gadget(n, inst.pairs, order)
    assert gadget.base_vertices == tuple(range(n))
    assert all(v >= n for _, v in gadget.graph.edge_order)  # u < v, so v < n would put both ends on bases


def _as_new_graph_builds_it(g):
    rebuilt = new_graph(g.vertex_count, reversed(g.edge_order))  # canonicalised, deduplicated, range-checked, sorted
    return g.edge_order == rebuilt.edge_order and g == rebuilt


@settings(max_examples=60, deadline=None)
@given(subset_instances(max_n=8), st.integers(2, 5))
def test_gadget_builders_emit_what_new_graph_builds(inst, order):
    gadget = build_gadget(inst.graph.vertex_count, inst.pairs, order)
    while gadget is not None:  # every level of the recursion, down to the order-2 or order-3 core
        assert _as_new_graph_builds_it(gadget.graph)
        gadget = gadget.inner


@settings(max_examples=60, deadline=None)
@given(subset_instances(max_n=8))
def test_src_extension_emits_what_new_graph_builds(inst):
    assert _as_new_graph_builds_it(src_extension(star_reduction(inst.graph, 3)).graph)
