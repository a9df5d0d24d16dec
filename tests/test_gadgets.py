from math import comb

import pytest

from rainbowcon import (
    DomainMismatchError,
    Gadget,
    InvalidOrderError,
    IndexOutOfRangeError,
    MissingLayerTagsError,
    SubsetInstance,
    all_pairs,
    build_gadget,
    build_order2_gadget,
    build_order3_gadget,
    check_witness,
    combine_colorings,
    exists_rainbow_path,
    gadget_layers,
    is_rainbow_connected,
    make_pairs,
    new_graph,
    rc_reduction,
    simple_paths_up_to,
    star_reduction,
    subset_rc_leq,
    witness_coloring,
)
from rainbowcon.coloring import first_non_rainbow_pair

from oracles import brute_rainbow_exists, floyd_warshall


def expected_sizes(n: int, pair_count: int, order: int) -> tuple[int, int]:
    """Vertex/edge counts straight from the layer definitions."""
    z = comb(n, 2) - pair_count
    if order == 2:
        hub = n + z
        return n + hub, n + 2 * z + comb(hub, 2)
    if order == 3:
        layer = n + 2 * z
        return n + 2 * layer, n + 2 * z + layer * layer + z
    inner_v, inner_e = expected_sizes(n, pair_count, order - 2)
    incident = n + 2 * z if order - 2 in (2, 3) else 3 * n
    split_v, split_e = inner_v + 2 * n, inner_e + 2 * incident + 3 * n
    return split_v + n, split_e + 3 * n


def all_pair_subsets(n: int):
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(slots)):
        yield make_pairs([slots[t] for t in range(len(slots)) if mask >> t & 1], n)


def test_order2_example_counts_and_distances():
    g = build_order2_gadget(3, make_pairs([(0, 1)], 3))
    assert (g.graph.vertex_count, g.graph.edge_count) == (8, 17)
    dist = floyd_warshall(g.graph)
    assert dist[0][1] == 3  # encoded pair kept apart
    assert dist[0][2] == 2 and dist[1][2] == 2  # non-pairs bridged
    assert simple_paths_up_to(g.graph, 0, 1, 2) == []


def test_order3_example_counts_and_distances():
    g = build_order3_gadget(2, make_pairs([(0, 1)], 2))
    assert (g.graph.vertex_count, g.graph.edge_count) == (6, 6)
    assert floyd_warshall(g.graph)[0][1] == 4

    free = build_order3_gadget(2, make_pairs([], 2))
    assert floyd_warshall(free.graph)[0][1] == 3

    wide = build_order3_gadget(4, make_pairs([(0, 1), (0, 2), (1, 2)], 4))
    tags = gadget_layers(wide)
    layer = [v for v, t in tags.items() if t in ("anchor", "bridge_left", "bridge_right")]
    twins = [v for v, t in tags.items() if t.endswith("_twin")]
    assert len(layer) == 10 and len(twins) == 10


def test_gadget_argument_validation():
    with pytest.raises(IndexOutOfRangeError):
        build_order2_gadget(3, make_pairs([(0, 7)]))
    with pytest.raises(ValueError):
        build_order2_gadget(1, make_pairs([]))
    with pytest.raises(InvalidOrderError):
        build_gadget(3, make_pairs([], 3), 1)


def test_recursive_step_counts_and_identity():
    g = build_gadget(2, make_pairs([(0, 1)], 2), 4)
    assert (g.inner.graph.vertex_count, g.inner.graph.edge_count) == (4, 3)
    assert g.copies == {0: (2, 3, 4), 1: (5, 6, 7)}
    assert g.carried == {2: 8, 3: 9}
    for order in range(4, 8):
        for n in (2, 3):
            for pairs in all_pair_subsets(n):
                g = build_gadget(n, pairs, order)
                tags, inner_tags = gadget_layers(g), gadget_layers(g.inner)
                assert all(tags[w] == inner_tags[v] for v, w in g.carried.items())
                for c1, c2, c3 in g.copies.values():
                    assert {(c1, c2), (c1, c3), (c2, c3)} <= g.graph.edges
                    assert (tags[c1], tags[c2], tags[c3]) == ("copy1", "copy2", "copy3")


def test_recursive_step_preserves_inner_distances():
    for order in range(4, 8):
        for n in (2, 3):
            for pairs in all_pair_subsets(n):
                g = build_gadget(n, pairs, order)
                before = floyd_warshall(g.inner.graph)
                after = floyd_warshall(g.graph)

                def image(v):
                    return g.copies[v][0] if v in g.copies else g.carried[v]

                size = g.inner.graph.vertex_count
                for u in range(size):
                    for v in range(u + 1, size):
                        assert after[image(u)][image(v)] == before[u][v]


def test_recursive_orders_examples():
    g4 = build_gadget(2, make_pairs([(0, 1)], 2), 4)
    assert (g4.graph.vertex_count, g4.graph.edge_count) == (10, 19)
    assert floyd_warshall(g4.graph)[0][1] == 5

    free4 = build_gadget(2, make_pairs([], 2), 4)
    assert floyd_warshall(free4.graph)[0][1] == 4

    g5 = build_gadget(2, make_pairs([(0, 1)], 2), 5)
    assert g5.inner.order == 3
    g6 = build_gadget(2, make_pairs([(0, 1)], 2), 6)
    assert g6.inner.inner.order == 2


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_gadget_sizes_match_layer_arithmetic(order):
    for n in (2, 3, 4):
        for pairs in all_pair_subsets(n):
            g = build_gadget(n, pairs, order)
            assert (g.graph.vertex_count, g.graph.edge_count) == expected_sizes(n, len(pairs), order)
            assert g.base_vertices == tuple(range(n))


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_gadget_distances_small_sweep(order):
    for n in (2, 3):
        for pairs in all_pair_subsets(n):
            g = build_gadget(n, pairs, order)
            dist = floyd_warshall(g.graph)
            for i in range(n):
                for j in range(i + 1, n):
                    if (i, j) in pairs:
                        assert dist[i][j] >= order + 1
                    else:
                        assert dist[i][j] == order


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_witness_coloring_small_sweep(order):
    for n in (2, 3):
        for pairs in all_pair_subsets(n):
            g = build_gadget(n, pairs, order)
            witness = witness_coloring(g)
            assert witness.color_count == order
            assert set(witness.colors) == set(range(order))
            assert first_non_rainbow_pair(witness, skip=g.pairs) is None


def test_witness_coloring_at_order5_on_ten_bases():
    # 204 vertices and 7,066 edges: an edge lookup that re-sorts the edges
    # makes this witness take half a minute instead of a fraction of a second
    g = build_gadget(10, make_pairs([(i, i + 1) for i in range(9)], 10), 5)
    assert (g.graph.vertex_count, g.graph.edge_count) == (204, 7066)
    assert check_witness(g, witness_coloring(g)).passed


def test_witness_coloring_against_brute_force():
    g = build_order2_gadget(3, make_pairs([(0, 1)], 3))
    witness = witness_coloring(g)
    assert not exists_rainbow_path(witness, 0, 1)  # the encoded pair stays apart
    n = g.graph.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            expected = brute_rainbow_exists(witness, u, v)
            assert exists_rainbow_path(witness, u, v) == expected
            if (u, v) not in g.pairs:
                assert expected


def test_witness_does_not_connect_encoded_pairs_when_too_far():
    g4 = build_gadget(2, make_pairs([(0, 1)], 2), 4)
    witness = witness_coloring(g4)
    assert not exists_rainbow_path(witness, 0, 1)  # distance 5 > 4 colors


def test_witness_coloring_requires_tags():
    g = build_order2_gadget(2, make_pairs([(0, 1)], 2))
    stripped = Gadget(g.graph, 2, g.base_vertices, g.pairs, {})
    with pytest.raises(MissingLayerTagsError):
        witness_coloring(stripped)
    g4 = build_gadget(2, make_pairs([(0, 1)], 2), 4)
    no_trace = Gadget(g4.graph, 4, g4.base_vertices, g4.pairs, g4.roles)
    with pytest.raises(MissingLayerTagsError):
        witness_coloring(no_trace)


def test_rc_reduction_micro_is_four_cycle():
    inst = SubsetInstance(new_graph(2, [(0, 1)]), make_pairs([(0, 1)], 2), 2)
    r = rc_reduction(inst)
    assert sorted(r.graph.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert r.source.graph.edges == frozenset({(0, 1)})


def test_rc_reduction_counts_and_pair_lifting():
    star = star_reduction(new_graph(3, [(0, 1), (0, 2), (1, 2)]), 3)
    inst = SubsetInstance(star.graph, star.pairs, 3)
    r = rc_reduction(inst)
    assert r.graph.vertex_count == 24
    assert r.graph.edge_count == 116
    for u, v in inst.pairs:
        assert (u, v) in r.gadget.pairs
    with pytest.raises(InvalidOrderError):
        rc_reduction(SubsetInstance(star.graph, star.pairs, 1))


def test_rc_reduction_gadget_and_base_edges_disjoint():
    for n, edges, pairs, k in [
        (3, [(0, 1), (1, 2)], [(0, 2)], 2),
        (4, [(0, 1), (2, 3)], [(0, 3), (1, 2)], 3),
    ]:
        inst = SubsetInstance(new_graph(n, edges), make_pairs(pairs, n), k)
        r = rc_reduction(inst)
        assert r.source.graph.edges & r.gadget.graph.edges == frozenset()
        assert r.graph.edges == r.gadget.graph.edges | r.source.graph.edges


def test_combine_colorings_micro():
    inst = SubsetInstance(new_graph(2, [(0, 1)]), make_pairs([(0, 1)], 2), 2)
    r = rc_reduction(inst)
    base = subset_rc_leq(inst.graph, inst.pairs, 2).witness
    combined = combine_colorings(r, base, witness_coloring(r.gadget))
    assert is_rainbow_connected(combined)


def test_combine_colorings_domain_mismatch():
    inst = SubsetInstance(new_graph(2, [(0, 1)]), make_pairs([(0, 1)], 2), 2)
    r = rc_reduction(inst)
    gadget_witness = witness_coloring(r.gadget)
    with pytest.raises(DomainMismatchError):
        combine_colorings(r, gadget_witness, gadget_witness)
    from rainbowcon import edge_coloring

    oversized = edge_coloring(inst.graph, 5, (4,))
    with pytest.raises(DomainMismatchError):
        combine_colorings(r, oversized, gadget_witness)


def test_combine_colorings_end_to_end_k3():
    star = star_reduction(new_graph(3, [(0, 1), (0, 2), (1, 2)]), 3)
    inst = SubsetInstance(star.graph, star.pairs, 3)
    r = rc_reduction(inst)
    base = subset_rc_leq(inst.graph, inst.pairs, 3).witness
    combined = combine_colorings(r, base, witness_coloring(r.gadget))
    assert is_rainbow_connected(combined)


def test_containment_property_small():
    inst = SubsetInstance(new_graph(2, [(0, 1)]), make_pairs([(0, 1)], 2), 2)
    r = rc_reduction(inst)
    for u, v in r.gadget.pairs:
        for path in simple_paths_up_to(r.graph, u, v, inst.k):
            assert all(e in r.source.graph.edges for e in path.edges())
