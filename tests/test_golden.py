"""Pinned outputs and contracts that speed-ups must keep.

The digests were recorded from the implementation that sorted the edge
list on every lookup and ran a BFS per pair for every candidate coloring;
a faster kernel must reproduce every byte of stdout. The node counts pin
the effort of the path-table search, which counts every color tried on an
edge (full enumeration tried 900, 900, 9427, 68420, 160 and 160 complete
colorings here), so a change in pruning shows up as a changed count.
"""

import hashlib

import pytest

from rainbowcon import (
    DisconnectedError,
    DisconnectedPairError,
    SubsetInstance,
    edge_coloring,
    is_rainbow_connected,
    is_strong_rainbow_connected,
    is_subset_rainbow_connected,
    is_subset_strong_rainbow_connected,
    make_pairs,
    new_graph,
    rc_exact,
    rc_reduction,
    src_exact,
    star_reduction,
    subset_rc_leq,
    subset_src_leq,
)
from rainbowcon.cli import main
from rainbowcon.io import emit_edge_list, emit_instance

C7 = new_graph(7, [(i, (i + 1) % 7) for i in range(7)])
W7 = new_graph(8, [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)])
K15 = new_graph(6, [(0, i) for i in range(1, 6)])
GRAPHS = {"C7": C7, "W7": W7, "K1,5": K15}
DISCONNECTED = new_graph(4, [(0, 1), (2, 3)])


def stdout_digest(capsys, argv, code=0):
    assert main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "name, problem, digest, nodes",
    [
        ("C7", "rc", "b8df4ec95db4c5baca58f96fc30eb41384a7acab14d06e0c74ddbe1aa4cab7d7", 104),
        ("C7", "src", "08f79a627e422caa27e15c9ed7cd9aac1e971057adfee2349639c21c7fdccaae", 34),
        ("W7", "rc", "b9737c00c38cfb4fadff40248e2af7fff5899d6bb6660801ef845a0ad3582305", 102),
        ("W7", "src", "9e0b964633bd7cabecbbdda67434d02b79d2b96c1fc7defa498398c255fb5f70", 50),
        ("K1,5", "rc", "30f2bda954300a47da78b277c5da39bae9e262a3af4f7e360b8cd67bb75071b4", 43),
        ("K1,5", "src", "194bbb30cc181db8f0e26fa4c7d5373d906b4685599451292b9af9f2a7320b8c", 43),
    ],
)
def test_solve_output_and_effort_are_pinned(tmp_path, capsys, name, problem, digest, nodes):
    path = tmp_path / "g.txt"
    path.write_text(emit_edge_list(GRAPHS[name]), encoding="utf-8")
    assert stdout_digest(capsys, ["solve", "--problem", problem, "--input", str(path)]) == digest
    exact = rc_exact if problem == "rc" else src_exact
    assert exact(GRAPHS[name]).nodes_explored == nodes


def test_verify_demo_and_reduce_output_is_pinned(tmp_path, capsys):
    assert stdout_digest(capsys, ["verify"]) == (
        "3cf5b3a87c0d3ce6490f57c0b5004a0c236eb989ec264b0a6f1c42917ee158ca"
    )
    assert stdout_digest(capsys, ["demo", "k4"]) == (
        "c2c32e3139901b9586d0cd3ba9bd35b13d3af24e43317f8423bc5577a0d9c045"
    )
    path = tmp_path / "p4.json"
    p4 = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    path.write_text(emit_instance(p4, make_pairs([(0, 2), (1, 3)], 4), 4), encoding="utf-8")
    assert stdout_digest(capsys, ["reduce", "--reduction", "rc-gadget", "--input", str(path)]) == (
        "92306d7e2ea837914c6bc51311940b5ca98ee14c03c9084d2d3585869445c421"
    )


@pytest.mark.parametrize(
    "seed, digest",
    [
        ("11", "45415bd7fbbd4f7333784656c1218e902cbead226ac68ba4367e7e9f806fae3a"),
        ("29", "762aeb4911aa7234f3717a96b24e651f7a5e502a377529d9dd058a8c355d5653"),
    ],
)
def test_verify_battery_output_is_pinned_at_more_seeds(capsys, seed, digest):
    # other seeds draw other fuzz instances, so other gadgets repeat across the battery
    assert stdout_digest(capsys, ["verify", "--seed", seed]) == digest


C5 = new_graph(5, [(i, (i + 1) % 5) for i in range(5)])
K4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.mark.parametrize(
    "name, reduce_digest, verify_digest",
    [
        ("K4", "9f52f07b40f9519d6f06f59898ae4966108e54fbd02c43b54d554cdd2b7b972a",
         "a14440bbca2a32df46c0be5b99c69c8c4ded82f3c268eecbc81590439d3f3624"),
        ("C5", "6073a0402b37a28b8932c815d8afd1c3e8db02b9c74740963ff05a769104e605",
         "0ea132c45885a7bb4e1c12a22037c45edfccb1b4346c9e174a516baea65247df"),
    ],
)
def test_src_extension_output_is_pinned(tmp_path, capsys, name, reduce_digest, verify_digest):
    star = star_reduction({"K4": K4, "C5": C5}[name], 3)
    path = tmp_path / "star.json"
    path.write_text(emit_instance(star.graph, star.pairs, 3), encoding="utf-8")
    assert stdout_digest(capsys, ["reduce", "--reduction", "src-ext", "--input", str(path)]) == reduce_digest
    assert stdout_digest(capsys, ["verify", "--check", "src-equivalence", "--input", str(path)]) == verify_digest


def test_solvers_raise_on_disconnected_pairs():
    pairs = make_pairs([(0, 2)], 4)
    for solver in (subset_rc_leq, subset_src_leq):
        with pytest.raises(DisconnectedPairError):
            solver(DISCONNECTED, pairs, 2)


def test_public_predicates_raise_on_disconnection():
    c = edge_coloring(DISCONNECTED, 2, [0, 1])
    for predicate in (is_rainbow_connected, is_strong_rainbow_connected):
        with pytest.raises(DisconnectedError, match="no path between 0 and 2"):
            predicate(c)
    for predicate in (is_subset_rainbow_connected, is_subset_strong_rainbow_connected):
        with pytest.raises(DisconnectedError, match="no path between 1 and 3"):
            predicate(c, make_pairs([(0, 1), (1, 3)], 4))


def test_assignment_is_a_fresh_dict():
    c = edge_coloring(C7, 2, [0, 1] * 3 + [0])
    mutated = c.assignment
    mutated[(0, 1)] = 1
    mutated.clear()
    assert c.color_of(1, 0) == 0 and c.assignment[(0, 1)] == 0
    assert c.assignment is not c.assignment


def test_edge_index_is_lazy_and_matches_the_edge_order():
    g = new_graph(5, [(3, 1), (0, 4), (1, 2)])
    assert not {"adjacency", "edge_index", "edges"} & set(vars(g))
    assert g.edge_list() == [(0, 4), (1, 2), (1, 3)]
    assert g.edge_order == tuple(g.edge_list())
    assert all(g.edge_order[i] == e for e, i in g.edge_index.items())
    assert g.adjacency == ((4,), (2, 3), (1,), (1,), (0,))
    assert g.has_edge(1, 3) and g.has_edge(3, 1) and not g.has_edge(0, 1)
    assert g.edges == frozenset(g.edge_order) and "edges" in vars(g)
    same = new_graph(5, [(2, 1), (1, 3), (4, 0), (3, 1)])
    assert same == g and hash(same) == hash(g) and same != new_graph(6, g.edge_order)
    reduced = rc_reduction(SubsetInstance(g, make_pairs([(0, 2)], 5), 3)).graph
    assert "edges" not in vars(reduced)
    assert reduced.has_edge(3, 1) and not reduced.has_edge(0, 2)
