import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcon import (
    DisconnectedError,
    IndexOutOfRangeError,
    SelfLoopError,
    UNREACHABLE,
    diameter,
    distances_from,
    geodesics,
    is_bipartite,
    is_connected,
    make_pairs,
    new_graph,
    rc_reduction,
    simple_paths_up_to,
)
from rainbowcon.graph import _simple_paths
from rainbowcon.verify import FuzzConfig, random_instance

from oracles import bfs_distances, brute_simple_paths, floyd_warshall

C4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
P4 = new_graph(4, [(0, 1), (1, 2), (2, 3)])


@st.composite
def graphs(draw, min_n=2, max_n=7):
    n = draw(st.integers(min_n, max_n))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    return new_graph(n, edges)


def test_new_graph_canonicalizes():
    g = new_graph(3, [(0, 1), (1, 0)])
    assert g.vertex_count == 3
    assert g.edges == frozenset({(0, 1)})
    assert g.adjacency == ((1,), (0,), ())


@st.composite
def shuffled_edge_lists(draw):
    """(n, the canonical edge set, its edges shuffled, in either orientation and repeated)."""
    n = draw(st.integers(2, 9))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    raw = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen for _ in range(draw(st.integers(1, 3)))]
    return n, frozenset(chosen), draw(st.permutations(raw))


@settings(max_examples=150, deadline=None)
@given(shuffled_edge_lists())
def test_new_graph_sorts_the_edges_and_fills_ascending_rows(case):
    n, canon, raw = case
    g = new_graph(n, raw)
    assert g.edges == canon == frozenset(g.edge_order)
    assert g.edge_order == tuple(sorted(g.edges)) and g.edge_count == len(canon)
    for v, row in enumerate(g.adjacency):
        assert all(a < b for a, b in zip(row, row[1:]))
        assert set(row) == {a + b - v for a, b in g.edges if v in (a, b)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 199))
def test_rc_reduction_graph_is_the_union_of_gadget_and_source(seed, index):
    inst = random_instance(FuzzConfig(), seed, index)
    r = rc_reduction(inst)
    union = new_graph(r.gadget.graph.vertex_count, r.gadget.graph.edges | inst.graph.edges)
    assert r.graph == union and r.graph.edge_order == union.edge_order


def test_new_graph_trivial_cases():
    assert new_graph(1, []).edge_count == 0
    assert C4.edge_count == 4
    assert C4.has_edge(3, 0) and not C4.has_edge(0, 2)


def test_new_graph_rejects_bad_input():
    with pytest.raises(IndexOutOfRangeError):
        new_graph(3, [(0, 5)])
    with pytest.raises(SelfLoopError):
        new_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        new_graph(-1, [])


def test_pair_set_canonical():
    pairs = make_pairs([(2, 0), (0, 2), (1, 3)], 4)
    assert list(pairs) == [(0, 2), (1, 3)]
    assert (2, 0) in pairs and (0, 1) not in pairs
    with pytest.raises(SelfLoopError):
        make_pairs([(1, 1)])
    with pytest.raises(IndexOutOfRangeError):
        make_pairs([(0, 9)], 4)


def test_distances_examples():
    assert distances_from(C4, 0) == [0, 1, 2, 1]
    assert distances_from(new_graph(2, []), 0) == [0, UNREACHABLE]
    assert distances_from(P4, 0) == [0, 1, 2, 3]
    with pytest.raises(IndexOutOfRangeError):
        distances_from(C4, 7)
    with pytest.raises(IndexOutOfRangeError):
        C4.distances(-1)


def test_diameter_examples():
    assert diameter(C4) == 2
    assert diameter(K4) == 1
    assert diameter(new_graph(2, [])) == UNREACHABLE
    assert diameter(new_graph(1, [])) == 0


def test_connectivity_and_bipartite():
    assert is_connected(C4) and not is_connected(new_graph(2, []))
    ok, sides = is_bipartite(C4)
    assert ok and sides[0] != sides[1]
    assert is_bipartite(K4) == (False, None)


def test_simple_paths_c4():
    paths = simple_paths_up_to(C4, 0, 2, 2)
    assert [p.vertices for p in paths] == [(0, 1, 2), (0, 3, 2)]
    assert simple_paths_up_to(C4, 0, 2, 1) == []
    with pytest.raises(ValueError):
        simple_paths_up_to(C4, 0, 0, 2)
    with pytest.raises(ValueError):
        simple_paths_up_to(C4, 0, 1, 0)


def test_geodesics_examples():
    assert [p.vertices for p in geodesics(C4, 0, 2)] == [(0, 1, 2), (0, 3, 2)]
    assert [p.vertices for p in geodesics(P4, 0, 3)] == [(0, 1, 2, 3)]
    assert [p.vertices for p in geodesics(K4, 0, 1)] == [(0, 1)]
    with pytest.raises(DisconnectedError):
        geodesics(new_graph(2, []), 0, 1)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_distances_match_floyd_warshall(g):
    oracle = floyd_warshall(g)
    for source in range(g.vertex_count):
        got = distances_from(g, source)
        for v in range(g.vertex_count):
            expected = oracle[source][v]
            assert (got[v] == expected) or (got[v] == UNREACHABLE and math.isinf(expected))


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8), st.data())
def test_distance_rows_are_plain_bfs_and_fresh_lists(g, data):
    sources = data.draw(st.lists(st.integers(0, g.vertex_count - 1), max_size=12))
    for source in sources:  # repeats hit the graph's stored rows
        expected = bfs_distances(g, source)
        row = g.distances(source)
        assert row == expected and distances_from(g, source) == expected
        row[:] = [-1] * len(row)
        assert g.distances(source) == expected


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_triangle_inequality(g):
    dist = [distances_from(g, v) for v in range(g.vertex_count)]
    for i in range(g.vertex_count):
        for j in range(g.vertex_count):
            for mid in range(g.vertex_count):
                assert dist[i][j] <= dist[i][mid] + dist[mid][j]


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=7), st.integers(1, 5))
def test_simple_paths_match_brute_force(g, max_len):
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            got = [p.vertices for p in simple_paths_up_to(g, u, v, max_len)]
            assert got == brute_simple_paths(g, u, v, max_len)
            assert got == sorted(got)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=7), st.integers(1, 5), st.sampled_from([None, 0, 2]))
def test_watched_enumeration_says_whether_it_holds_every_simple_path(g, max_len, limit):
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            paths, whole = _simple_paths(g, u, v, max_len, limit, True)
            assert paths == simple_paths_up_to(g, u, v, max_len, limit)
            every = brute_simple_paths(g, u, v, g.vertex_count - 1)
            assert whole == ([p.vertices for p in paths] == every and (limit is None or len(paths) <= limit))
            assert _simple_paths(g, u, v, max_len, limit, False) == (paths, False)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_geodesics_are_shortest_valid_paths(g):
    for u in range(g.vertex_count):
        dist = distances_from(g, u)
        for v in range(u + 1, g.vertex_count):
            if dist[v] == UNREACHABLE:
                continue
            paths = geodesics(g, u, v)
            assert paths
            expected = [
                seq
                for seq in brute_simple_paths(g, u, v, int(dist[v]))
                if len(seq) - 1 == dist[v]
            ]
            assert [p.vertices for p in paths] == expected
