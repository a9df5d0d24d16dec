import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcon import (
    BudgetExceededError,
    DisconnectedError,
    DisconnectedPairError,
    SubsetInstance,
    ToolkitError,
    all_pairs,
    diameter,
    edge_coloring,
    is_connected,
    is_rainbow_connected,
    is_strong_rainbow_connected,
    is_subset_rainbow_connected,
    is_subset_strong_rainbow_connected,
    make_pairs,
    new_graph,
    rc_exact,
    rc_reduction,
    simple_paths_up_to,
    src_exact,
    star_reduction,
    subset_rc_leq,
    subset_src_leq,
    vertex_coloring_leq,
)
from rainbowcon import search

from oracles import (
    connected_graph_representatives,
    edge_slots,
    exact_by_levels,
    raw_colorings,
    restricted_growth_colorings,
)

K3 = new_graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
C4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
STAR3 = new_graph(4, [(0, 3), (1, 3), (2, 3)])


def test_vertex_coloring_examples():
    assert not vertex_coloring_leq(K4, 3).feasible
    assert vertex_coloring_leq(C5, 3).feasible
    assert not vertex_coloring_leq(C5, 2).feasible
    result = vertex_coloring_leq(K3, 3)
    assert result.witness == (0, 1, 2)
    assert result.nodes_explored > 0


def test_vertex_coloring_witness_is_proper():
    for g in connected_graph_representatives(5):
        for k in (2, 3):
            result = vertex_coloring_leq(g, k)
            if result.feasible:
                assert all(result.witness[u] != result.witness[v] for u, v in g.edges)
                assert max(result.witness) < k


def test_subset_rc_star_examples():
    leaf_pairs = make_pairs([(0, 1), (0, 2), (1, 2)], 4)
    assert subset_rc_leq(STAR3, leaf_pairs, 3).feasible
    assert not subset_rc_leq(STAR3, leaf_pairs, 2).feasible
    assert subset_rc_leq(STAR3, make_pairs([], 4), 1).feasible
    single = new_graph(2, [(0, 1)])
    assert subset_rc_leq(single, make_pairs([(0, 1)], 2), 1).feasible


def test_subset_src_examples():
    leaf_pairs = make_pairs([(0, 1), (0, 2), (1, 2)], 4)
    for k in (1, 2, 3):
        assert subset_src_leq(STAR3, leaf_pairs, k).feasible == subset_rc_leq(STAR3, leaf_pairs, k).feasible
    path3 = new_graph(3, [(0, 1), (1, 2)])
    ends = make_pairs([(0, 2)], 3)
    assert subset_src_leq(path3, ends, 2).feasible
    assert not subset_src_leq(path3, ends, 1).feasible


def test_subset_solver_pruning_and_errors():
    path3 = new_graph(3, [(0, 1), (1, 2)])
    result = subset_rc_leq(path3, make_pairs([(0, 2)], 3), 1)
    assert not result.feasible and result.nodes_explored == 0  # distance 2 > k
    broken = new_graph(3, [(0, 1)])
    with pytest.raises(DisconnectedPairError):
        subset_rc_leq(broken, make_pairs([(0, 2)], 3), 2)
    with pytest.raises(BudgetExceededError):
        subset_rc_leq(C4, all_pairs(4), 2, budget=0)


def test_restricted_growth_enumeration():
    strings = list(restricted_growth_colorings(4, 4))
    assert len(strings) == 15  # set partitions of 4 items
    assert strings[0] == (0, 0, 0, 0)
    assert strings == sorted(strings)
    assert all(s[0] == 0 for s in strings)
    capped = list(restricted_growth_colorings(4, 2))
    assert len(capped) == 8 and max(max(s) for s in capped) == 1
    assert list(restricted_growth_colorings(0, 3)) == [()]


def test_canonical_and_raw_enumeration_agree():
    # same feasibility verdicts as the naive k^m scan on small instances
    for g in connected_graph_representatives(4):
        if g.edge_count > 5:
            continue
        pairs = all_pairs(4)
        for k in (1, 2, 3):
            canonical = subset_rc_leq(g, pairs, k).feasible
            raw = any(
                is_subset_rainbow_connected(edge_coloring(g, k, colors), pairs)
                for colors in raw_colorings(g.edge_count, k)
            )
            assert canonical == raw
            canonical_s = subset_src_leq(g, pairs, k).feasible
            raw_s = any(
                is_subset_strong_rainbow_connected(edge_coloring(g, k, colors), pairs)
                for colors in raw_colorings(g.edge_count, k)
            )
            assert canonical_s == raw_s


def test_witness_is_lexicographically_least():
    pairs = all_pairs(4)
    result = subset_rc_leq(C4, pairs, 2)
    assert result.feasible
    for colors in restricted_growth_colorings(4, 2):
        if colors == result.witness.colors:
            break
        assert not is_subset_rainbow_connected(edge_coloring(C4, 2, colors), pairs)


def test_exact_examples():
    assert rc_exact(K4).value == 1
    assert rc_exact(C4).value == 2
    assert rc_exact(new_graph(4, [(0, 1), (1, 2), (2, 3)])).value == 3
    star4 = new_graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert rc_exact(star4).value == 4
    assert src_exact(star4).value == 4
    assert src_exact(K4).value == 1


def test_exact_rc_c4_against_raw_enumeration():
    # rc(C4) = 2: no 1-coloring works, some raw 2-coloring does
    pairs = all_pairs(4)
    assert not any(
        is_subset_rainbow_connected(edge_coloring(C4, 1, colors), pairs)
        for colors in raw_colorings(4, 1)
    )
    assert any(
        is_subset_rainbow_connected(edge_coloring(C4, 2, colors), pairs)
        for colors in raw_colorings(4, 2)
    )


def test_exact_star4_against_raw_enumeration():
    # rc(K_{1,4}) = 4: all 81 raw 3-colorings fail, leaf pairs share unique paths
    star4 = new_graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    pairs = all_pairs(5)
    assert not any(
        is_subset_rainbow_connected(edge_coloring(star4, 3, colors), pairs)
        for colors in raw_colorings(4, 3)
    )
    assert is_subset_rainbow_connected(edge_coloring(star4, 4, (0, 1, 2, 3)), pairs)


def test_exact_errors():
    with pytest.raises(DisconnectedError):
        rc_exact(new_graph(3, [(0, 1)]))
    with pytest.raises(ValueError):
        rc_exact(new_graph(1, []))


def test_exact_witnesses_and_bounds():
    for g in connected_graph_representatives(5):
        if g.vertex_count < 2:
            continue
        rc = rc_exact(g)
        src = src_exact(g)
        assert diameter(g) <= rc.value <= src.value <= g.edge_count
        assert is_rainbow_connected(rc.witness)
        assert rc.witness.color_count == rc.value
        assert is_strong_rainbow_connected(src.witness)
        if rc.value > diameter(g):
            assert not subset_rc_leq(g, all_pairs(g.vertex_count), rc.value - 1).feasible


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_feasibility_monotone_in_k(seed, k):
    from rainbowcon import CounterRng

    rng = CounterRng(seed)
    n = 3 + rng.below(3)
    slots = edge_slots(n)
    edges = [e for e in slots if rng.chance(0.6)]
    g = new_graph(n, edges)
    if not is_connected(g):
        return
    pairs = make_pairs([e for e in slots if rng.chance(0.4)], n)
    if subset_rc_leq(g, pairs, k).feasible:
        assert subset_rc_leq(g, pairs, k + 1).feasible
    if subset_src_leq(g, pairs, k).feasible:
        assert subset_src_leq(g, pairs, k + 1).feasible


def test_searches_answer_up_to_the_depth_limit():
    path = new_graph(901, [(i, i + 1) for i in range(900)])  # 900 edges, one frame each
    result = subset_rc_leq(path, make_pairs(path.edges), 1)
    assert result.feasible and result.nodes_explored == 900
    assert vertex_coloring_leq(new_graph(900, [(i, i + 1) for i in range(899)]), 2).feasible
    with pytest.raises(ToolkitError, match="depth limit of 900 edges"):
        subset_rc_leq(new_graph(902, [(i, i + 1) for i in range(901)]), make_pairs([]), 1)
    with pytest.raises(ToolkitError, match="depth limit of 900 vertices"):
        vertex_coloring_leq(new_graph(901, []), 2)


def test_search_decides_the_reduced_chains_at_k_3():
    # G' of the K3 and K4 chains, decided from the whole graph; pinned counts keep the effort fixed
    for source, feasible, size, nodes in ((K3, True, None, 88_688), (K4, False, (31, 190), 3_532)):
        star = star_reduction(source, 3)
        reduced = rc_reduction(SubsetInstance(star.graph, star.pairs, 3)).graph
        if size is not None:
            assert (reduced.vertex_count, reduced.edge_count) == size
        result = subset_rc_leq(reduced, all_pairs(reduced.vertex_count), 3)
        assert result.feasible == feasible == vertex_coloring_leq(source, 3).feasible
        assert result.nodes_explored == nodes
        if feasible:
            assert is_rainbow_connected(result.witness)


def test_path_table_enumeration_is_limited_to_the_budget_left(monkeypatch):
    listed, seen = [0], []

    def spy(g, u, v, k, limit=None):
        seen.append((limit, 10_000 - listed[0]))
        paths = simple_paths_up_to(g, u, v, k, limit)
        listed[0] += len(paths)
        return paths

    monkeypatch.setattr(search, "simple_paths_up_to", spy)
    c9 = new_graph(9, [(i, (i + 1) % 9) for i in range(9)])
    assert subset_rc_leq(c9, all_pairs(9), 5, budget=10_000).feasible
    assert len(seen) == 27 and listed[0] > 27
    assert all(limit == left for limit, left in seen)


@st.composite
def connected_graphs(draw, max_n=7):
    """A random spanning tree (each vertex joins an earlier one) plus random extra edges."""
    n = draw(st.integers(2, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.sampled_from(edge_slots(n)), max_size=n + 2))
    return new_graph(n, tree + extra)


def _outcome(solve, *args):
    try:
        opt = solve(*args)
    except BudgetExceededError as exc:
        return "budget", str(exc)
    return opt.value, opt.witness.colors, opt.nodes_explored


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.sampled_from([None, 0, 5, 20, 60, 150, 400, 1_000]))
def test_exact_solvers_equal_one_decision_per_level(g, budget):
    # reusing a table across levels keeps values, witnesses, node counts and budget errors
    for exact, solver in ((rc_exact, subset_rc_leq), (src_exact, subset_src_leq)):
        assert _outcome(exact, g, budget) == _outcome(exact_by_levels, g, solver, budget)


def test_exact_solvers_build_a_table_only_where_it_can_change(monkeypatch):
    geodesic_calls, builds = [0], [0]
    real_geodesics, real_table = search.geodesics, search._path_table

    def count_geodesics(*args):
        geodesic_calls[0] += 1
        return real_geodesics(*args)

    def count_builds(*args):
        builds[0] += 1
        return real_table(*args)

    monkeypatch.setattr(search, "geodesics", count_geodesics)
    monkeypatch.setattr(search, "_path_table", count_builds)
    star7 = new_graph(8, [(i, 7) for i in range(7)])
    assert src_exact(star7).value == 7  # six levels, k = 2..7
    assert geodesic_calls[0] == 21 and builds[0] == 1  # once per non-adjacent pair
    tree = new_graph(8, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 6), (0, 7)])
    builds[0] = 0
    assert rc_exact(tree).value == 7 and builds[0] == 1  # its only paths are geodesics
    builds[0] = 0
    c7 = new_graph(7, [(i, (i + 1) % 7) for i in range(7)])
    assert rc_exact(c7).value == 4 and builds[0] == 2  # k = 3 cuts the long way round
