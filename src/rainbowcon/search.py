"""Exact decision and optimization procedures by exhaustive backtracking search.

These are the brute-force oracles the verifiers lean on, so they favor a
wrong-answer-impossible structure: no heuristics, explicit budgets that
raise instead of truncating, and canonical enumeration orders that make
every returned witness reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .coloring import EdgeColoring, subset_rc_checker, subset_src_checker
from .errors import BudgetExceededError, DisconnectedError, DisconnectedPairError
from .graph import UNREACHABLE, Graph, PairSet, all_pairs, diameter, distances_from, is_connected


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a decision search: feasible iff a witness is present."""

    feasible: bool
    witness: EdgeColoring | tuple[int, ...] | None
    nodes_explored: int


@dataclass(frozen=True)
class OptResult:
    """Outcome of an exact optimization: the optimum and a witness attaining it."""

    value: int
    witness: EdgeColoring
    nodes_explored: int


def vertex_coloring_leq(g: Graph, k: int) -> SolveResult:
    """Decide whether g has a proper vertex coloring with at most k colors.

    Backtracking with first-fit symmetry breaking: vertex i may only use a
    color at most one above the largest color used so far, capped at k-1.
    The witness is the lexicographically least such coloring.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = g.vertex_count
    colors = [0] * n
    nodes = 0

    def assign(v: int, top_used: int) -> bool:
        nonlocal nodes
        if v == n:
            return True
        limit = min(top_used + 1, k - 1)
        forbidden = {colors[w] for w in g.adjacency[v] if w < v}
        for c in range(limit + 1):
            if c in forbidden:
                continue
            nodes += 1
            colors[v] = c
            if assign(v + 1, max(top_used, c)):
                return True
        return False

    if assign(0, -1):
        return SolveResult(True, tuple(colors), nodes)
    return SolveResult(False, None, nodes)


def restricted_growth_colorings(length: int, color_count: int) -> Iterator[tuple[int, ...]]:
    """Canonical edge colorings: one representative per color-permutation class.

    Position t may use colors 0..min(1 + max color so far, color_count - 1);
    yielded in lexicographic order.
    """
    if length == 0:
        yield ()
        return
    out = [0] * length

    def rec(t: int, top: int) -> Iterator[tuple[int, ...]]:
        if t == length:
            yield tuple(out)
            return
        limit = min(top + 1, color_count - 1)
        for c in range(limit + 1):
            out[t] = c
            yield from rec(t + 1, top if c <= top else c)

    yield from rec(0, -1)


def _precheck_pairs(g: Graph, pairs: PairSet, k: int) -> bool:
    """Raise on disconnected pairs; return False when some pair is too far.

    A rainbow path with k colors has at most k edges, so any pair at
    distance above k is immediately infeasible.
    """
    cache: dict[int, list[int | float]] = {}
    for u, v in pairs:
        if u not in cache:
            cache[u] = distances_from(g, u)
        d = cache[u][v]
        if d == UNREACHABLE:
            raise DisconnectedPairError(f"pair ({u}, {v}) is disconnected")
        if d > k:
            return False
    return True


def _subset_search(g: Graph, pairs: PairSet, k: int, budget: int | None, checker) -> SolveResult:
    if k < 1:
        raise ValueError("k must be positive")
    if not _precheck_pairs(g, pairs, k):
        return SolveResult(False, None, 0)
    accepts = checker(g, pairs, k)
    nodes = 0
    for colors in restricted_growth_colorings(g.edge_count, k):
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"exceeded budget of {budget} colorings")
        if accepts(colors):
            return SolveResult(True, EdgeColoring(g, k, colors), nodes)
    return SolveResult(False, None, nodes)


def subset_rc_leq(g: Graph, pairs: PairSet, k: int, budget: int | None = None) -> SolveResult:
    """Decide whether some k-edge-coloring gives every pair in pairs a rainbow path.

    Enumerates colorings in restricted-growth order (quotienting color
    permutations, which preserve the verdict) and returns the first, hence
    lexicographically least, feasible coloring as witness.
    """
    return _subset_search(g, pairs, k, budget, subset_rc_checker)


def subset_src_leq(g: Graph, pairs: PairSet, k: int, budget: int | None = None) -> SolveResult:
    """Like subset_rc_leq but each pair needs a rainbow shortest path."""
    return _subset_search(g, pairs, k, budget, subset_src_checker)


def _exact(g: Graph, solver, budget: int | None) -> OptResult:
    if g.vertex_count < 2:
        raise ValueError("need at least two vertices")
    if not is_connected(g):
        raise DisconnectedError("graph is disconnected")
    pairs = all_pairs(g.vertex_count)
    start = max(int(diameter(g)), 1)
    total = 0
    for k in range(start, g.edge_count + 1):
        result = solver(g, pairs, k, budget)
        total += result.nodes_explored
        if result.feasible:
            assert isinstance(result.witness, EdgeColoring)
            return OptResult(k, result.witness, total)
    raise AssertionError("all-distinct coloring is always feasible")


def rc_exact(g: Graph, budget: int | None = None) -> OptResult:
    """Least k rainbow-connecting g, searched upward from the diameter."""
    return _exact(g, subset_rc_leq, budget)


def src_exact(g: Graph, budget: int | None = None) -> OptResult:
    """Least k strongly rainbow-connecting g, searched upward from the diameter."""
    return _exact(g, subset_src_leq, budget)
