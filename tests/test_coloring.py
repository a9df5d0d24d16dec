import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcon import (
    DisconnectedError,
    IndexOutOfRangeError,
    Path,
    PathNotInGraphError,
    StarInstance,
    all_pairs,
    diameter,
    edge_coloring,
    exists_geodesic_rainbow_path,
    exists_rainbow_path,
    is_connected,
    is_rainbow_connected,
    is_rainbow_path,
    is_strong_rainbow_connected,
    is_subset_rainbow_connected,
    is_subset_strong_rainbow_connected,
    lift_vertex_coloring,
    make_pairs,
    new_graph,
    src_extension,
    src_witness_coloring,
    star_reduction,
    subset_rc_leq,
    subset_src_leq,
)
from rainbowcon.coloring import first_non_geodesic_rainbow_pair, first_non_rainbow_pair

from oracles import (
    all_graphs,
    brute_first_failing_pair,
    brute_geodesic_rainbow_exists,
    brute_rainbow_exists,
    first_feasible_coloring,
    floyd_warshall,
    raw_colorings,
    restricted_growth_colorings,
)

C4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
STAR3 = new_graph(4, [(0, 3), (1, 3), (2, 3)])
C4_ALTERNATE = edge_coloring(C4, 2, {(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1})


def test_edge_coloring_validation():
    with pytest.raises(ValueError):
        edge_coloring(C4, 2, {(0, 1): 0})
    with pytest.raises(ValueError):
        edge_coloring(C4, 2, (0, 1, 0, 2))
    with pytest.raises(ValueError):
        edge_coloring(C4, 0, (0, 0, 0, 0))
    c = edge_coloring(C4, 2, (0, 1, 0, 1))
    assert c.color_of(3, 0) == 1 and c.color_of(0, 1) == 0


def test_is_rainbow_path_examples():
    c = edge_coloring(STAR3, 2, {(0, 3): 0, (1, 3): 0, (2, 3): 1})
    assert is_rainbow_path(c, Path((0, 3)))
    assert not is_rainbow_path(c, Path((0, 3, 1)))
    assert is_rainbow_path(c, Path((0, 3, 2)))
    with pytest.raises(PathNotInGraphError):
        is_rainbow_path(c, Path((0, 1)))
    with pytest.raises(PathNotInGraphError):
        is_rainbow_path(c, Path((0, 3, 0)))


def test_lifted_star_coloring_is_rainbow_on_pairs():
    star = star_reduction(new_graph(3, [(0, 1), (0, 2), (1, 2)]), 3)
    lifted = lift_vertex_coloring(star, (0, 1, 2))
    for u, v in star.pairs:
        assert is_rainbow_path(lifted, Path((u, star.center, v)))
        assert exists_geodesic_rainbow_path(lifted, u, v)


def test_exists_rainbow_path_examples():
    assert exists_rainbow_path(C4_ALTERNATE, 0, 2)
    assert exists_rainbow_path(C4_ALTERNATE, 0, 1)
    mono = edge_coloring(C4, 2, (0, 0, 0, 0))
    assert not exists_rainbow_path(mono, 0, 2)
    with pytest.raises(ValueError):
        exists_rainbow_path(mono, 1, 1)


def test_geodesic_examples():
    two_step = new_graph(3, [(0, 1), (1, 2)])
    equal = edge_coloring(two_step, 2, (0, 0))
    assert not exists_geodesic_rainbow_path(equal, 0, 2)
    assert not exists_geodesic_rainbow_path(equal, 2, 0)
    distinct = edge_coloring(two_step, 2, (0, 1))
    assert exists_geodesic_rainbow_path(distinct, 0, 2)
    assert exists_geodesic_rainbow_path(equal, 0, 1)
    with pytest.raises(DisconnectedError):
        exists_geodesic_rainbow_path(edge_coloring(new_graph(3, [(0, 1)]), 1, (0,)), 0, 2)
    # on C5 with 0-1-2 monochromatic, (0, 2) and (1, 4) have rainbow paths but no rainbow geodesic
    c5 = edge_coloring(new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 3, (0, 0, 0, 1, 2))
    assert first_non_rainbow_pair(c5) is None and first_non_geodesic_rainbow_pair(c5) == (0, 2)
    assert first_non_geodesic_rainbow_pair(c5, skip=make_pairs([(0, 2)])) == (1, 4)
    assert first_non_geodesic_rainbow_pair(c5, required=make_pairs([(3, 1), (4, 1)])) == (1, 4)


@pytest.mark.parametrize("predicate", [exists_rainbow_path, exists_geodesic_rainbow_path])
@pytest.mark.parametrize("u, v", [(0, -1), (0, 3), (-1, 0), (3, 0), (3, 3)])
def test_pair_predicates_reject_out_of_range_vertices(predicate, u, v):
    p3 = edge_coloring(new_graph(3, [(0, 1), (1, 2)]), 2, (0, 1))
    with pytest.raises(IndexOutOfRangeError):
        predicate(p3, u, v)


def test_global_predicates_examples():
    assert is_rainbow_connected(edge_coloring(K4, 1, (0,) * 6))
    assert is_rainbow_connected(C4_ALTERNATE)
    assert is_strong_rainbow_connected(C4_ALTERNATE)
    with pytest.raises(DisconnectedError):
        is_rainbow_connected(edge_coloring(new_graph(3, [(0, 1)]), 1, (0,)))


def test_subset_predicates_examples():
    shared = edge_coloring(STAR3, 2, {(0, 3): 0, (1, 3): 0, (2, 3): 1})
    leaf_pair = make_pairs([(0, 1)], 4)
    assert not is_subset_rainbow_connected(shared, leaf_pair)
    assert is_subset_rainbow_connected(shared, make_pairs([(0, 2)], 4))
    assert is_subset_rainbow_connected(shared, make_pairs([], 4))
    with pytest.raises(DisconnectedError):
        is_subset_rainbow_connected(
            edge_coloring(new_graph(3, [(0, 1)]), 1, (0,)), make_pairs([(0, 2)], 3)
        )


def _all_canonical_colorings(g, k_max=3):
    for k in range(1, k_max + 1):
        for colors in restricted_growth_colorings(g.edge_count, k):
            yield edge_coloring(g, k, colors)


def test_rainbow_existence_matches_brute_force_exhaustively():
    # every graph on 4 vertices, every canonical coloring with up to 3 colors
    for g in all_graphs(4):
        for c in _all_canonical_colorings(g):
            for u in range(4):
                for v in range(u + 1, 4):
                    assert exists_rainbow_path(c, u, v) == brute_rainbow_exists(c, u, v)


@st.composite
def colored_graphs(draw, max_n=7, k_max=3):
    n = draw(st.integers(2, max_n))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(slots), unique=True, min_size=1, max_size=len(slots)))
    g = new_graph(n, edges)
    k = draw(st.integers(1, k_max))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=g.edge_count, max_size=g.edge_count))
    return edge_coloring(g, k, tuple(colors))


@settings(max_examples=120, deadline=None)
@given(colored_graphs())
def test_rainbow_existence_matches_brute_force_random(c):
    n = c.host.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            assert exists_rainbow_path(c, u, v) == brute_rainbow_exists(c, u, v)


@settings(max_examples=120, deadline=None)
@given(colored_graphs())
def test_geodesic_existence_matches_brute_force_random(c):
    dist = floyd_warshall(c.host)
    n = c.host.vertex_count
    for u in range(n):
        for v in range(n):
            if u == v or dist[u][v] == float("inf"):
                continue
            assert exists_geodesic_rainbow_path(c, u, v) == brute_geodesic_rainbow_exists(c, u, v)


@settings(max_examples=120, deadline=None)
@given(colored_graphs(), st.data())
def test_first_failing_pair_matches_brute_force(c, data):
    slots = [(u, v) for u in range(c.host.vertex_count) for v in range(u + 1, c.host.vertex_count)]
    chosen = make_pairs(data.draw(st.lists(st.sampled_from(slots), unique=True)))
    for scan, strong in ((first_non_rainbow_pair, False), (first_non_geodesic_rainbow_pair, True)):
        assert scan(c) == brute_first_failing_pair(c, strong, slots)
        assert scan(c, required=chosen) == brute_first_failing_pair(c, strong, sorted(chosen.pairs))
        rest = [pair for pair in slots if pair not in chosen]
        assert scan(c, skip=chosen) == brute_first_failing_pair(c, strong, rest)


def test_geodesic_scan_ignores_a_same_layer_arc_into_the_target():
    # from 0 the layers are {0}, {1, 2}, {3, 4}, {5}; the only geodesic 0-2-4 repeats color 0,
    # and the rainbow 0-1-3-4 ends on the same-layer arc 3-4 of the free color 2, which the
    # level-3 search of 0 reaches only if its arcs are not masked to layer {5}
    g = new_graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
    c = edge_coloring(g, 3, {(0, 1): 0, (0, 2): 0, (1, 3): 1, (2, 4): 0, (3, 4): 2, (4, 5): 1})
    assert exists_rainbow_path(c, 0, 4) and not exists_geodesic_rainbow_path(c, 0, 4)
    slots = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    assert first_non_geodesic_rainbow_pair(c) == (0, 4) == brute_first_failing_pair(c, True, slots)


@st.composite
def recolored_extensions(draw, max_leaves=4):
    """The src witness coloring of a random feasible star instance's extension, with 1-3 edges recolored."""
    n, k = draw(st.integers(1, max_leaves)), draw(st.integers(3, 4))
    leaf_colors = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    apart = [(i, j) for i in range(n) for j in range(i + 1, n) if leaf_colors[i] != leaf_colors[j]]
    pairs = make_pairs(draw(st.lists(st.sampled_from(apart), unique=True)) if apart else [], n)
    star = StarInstance(new_graph(n + 1, [(i, n) for i in range(n)]), n, pairs, k)
    ext = src_extension(star)
    colors = list(src_witness_coloring(ext, edge_coloring(star.graph, k, tuple(leaf_colors))).colors)
    for e in draw(st.lists(st.integers(0, len(colors) - 1), min_size=1, max_size=3, unique=True)):
        colors[e] = draw(st.integers(0, k - 1))
    return edge_coloring(ext.graph, k, tuple(colors)), pairs


@settings(max_examples=30, deadline=None)
@given(recolored_extensions())
def test_geodesic_scan_of_recolored_extensions_matches_brute_force(instance):
    c, star_pairs = instance
    n = c.host.vertex_count
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert first_non_geodesic_rainbow_pair(c) == brute_first_failing_pair(c, True, slots)
    assert first_non_geodesic_rainbow_pair(c, required=star_pairs) == brute_first_failing_pair(
        c, True, sorted(star_pairs.pairs)
    )


@st.composite
def connected_pair_instances(draw, max_n=6, max_edges=8):
    n = draw(st.integers(2, max_n))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(slots), unique=True, min_size=1, max_size=max_edges))
    g = new_graph(n, edges)
    dist = floyd_warshall(g)
    connected = [(u, v) for u, v in slots if dist[u][v] != float("inf")]
    pairs = make_pairs(draw(st.lists(st.sampled_from(connected), unique=True)), n)
    return g, pairs, draw(st.integers(1, 3))


@settings(max_examples=120, deadline=None)
@given(connected_pair_instances())
def test_subset_solvers_match_raw_exhaustion(instance):
    g, pairs, k = instance
    for solver, strong in ((subset_rc_leq, False), (subset_src_leq, True)):
        result = solver(g, pairs, k)
        raw = first_feasible_coloring(g, pairs, strong, raw_colorings(g.edge_count, k))
        assert result.feasible == (raw is not None)
        if result.feasible:
            first = first_feasible_coloring(g, pairs, strong, restricted_growth_colorings(g.edge_count, k))
            assert result.witness.colors == first


def test_predicate_implications_exhaustively():
    # strong implies plain; plain bounds the diameter by k; global implies subset
    for g in all_graphs(4):
        if not is_connected(g) or g.edge_count == 0:
            continue
        pairs = all_pairs(4)
        some = make_pairs([(0, 1), (2, 3)], 4)
        for c in _all_canonical_colorings(g):
            rc = is_rainbow_connected(c)
            src = is_strong_rainbow_connected(c)
            if src:
                assert rc
            if rc:
                assert diameter(g) <= c.color_count
                assert is_subset_rainbow_connected(c, pairs)
                assert is_subset_rainbow_connected(c, some)
            if src:
                assert is_subset_strong_rainbow_connected(c, pairs)
