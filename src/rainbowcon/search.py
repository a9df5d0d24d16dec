"""Exact decision and optimization procedures by backtracking search.

These are the oracles the verifiers lean on, so they favor a
wrong-answer-impossible structure: no heuristics, pruning only of subtrees
that hold no feasible coloring, explicit budgets that raise instead of
truncating, and canonical enumeration orders that make every returned
witness reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import EdgeColoring
from .errors import BudgetExceededError, DisconnectedError, DisconnectedPairError, ToolkitError
from .graph import UNREACHABLE, Graph, PairSet, all_pairs, diameter, geodesics
from .graph import _simple_paths, is_connected, simple_paths_up_to


MAX_SEARCH_DEPTH = 900  # the searches recurse once per edge or vertex; Python allows 1,000 frames


def check_depth(size: int, what: str) -> None:
    if size > MAX_SEARCH_DEPTH:
        raise ToolkitError(f"search over {size} {what} exceeds the depth limit of {MAX_SEARCH_DEPTH} {what}")


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
    check_depth(g.vertex_count, "vertices")
    n, adjacency = g.vertex_count, g.adjacency
    colors = [0] * n
    nodes = 0

    def assign(v: int, top_used: int) -> bool:
        nonlocal nodes
        if v == n:
            return True
        limit = min(top_used + 1, k - 1)
        forbidden = {colors[w] for w in adjacency[v] if w < v}
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


def _precheck_pairs(g: Graph, pairs: PairSet, k: int) -> bool:
    """Raise on disconnected pairs; False if a pair is farther apart than a rainbow path reaches (k)."""
    for u, v in pairs:
        d = g.distances(u)[v]
        if d == UNREACHABLE:
            raise DisconnectedPairError(f"pair ({u}, {v}) is disconnected")
        if d > k:
            return False
    return True


def _charge(budget: int | None, used: int) -> None:
    if budget is not None and used > budget:
        raise BudgetExceededError(f"exceeded budget of {budget} path-table entries and search nodes")


def _path_table(g: Graph, pairs: PairSet, budget: int | None, paths_of) -> tuple[list[int], list[list[int]], int, bool]:
    """(through, spans, entries, pathless) for the paths paths_of(u, v, limit) of each pair that
    is not an edge (an edge is always a rainbow geodesic), as bits: through[e] masks the paths
    through edge e, spans[e] the paths of each pair with one through e (a pair's paths are
    consecutive bits); pathless if a pair has none. Charges the budget after each pair."""
    through, spans = [0] * g.edge_count, [[] for _ in range(g.edge_count)]
    table, pathless = 0, False
    for u, v in sorted(set(pairs) - g.edges):  # adjacent pairs constrain no coloring
        paths = paths_of(u, v, None if budget is None else budget - table)
        pathless = pathless or not paths
        span, touched = ((1 << len(paths)) - 1) << table, set()
        for path in paths:
            for e in map(g.edge_index.__getitem__, path.edges()):
                through[e] |= 1 << table
                touched.add(e)
            table += 1
        for e in touched:
            spans[e].append(span)
        _charge(budget, table)
    return through, spans, table, pathless


def _subset_search(g: Graph, pairs: PairSet, k: int, budget: int | None, paths_of, table=None) -> SolveResult:
    """Color the edges in edge order with restricted growth (one coloring per class of color
    permutations, which keep the verdict) against the given table, else _path_table of paths_of.
    holds[c] masks the paths holding color c, alive the paths with no repeated color. Coloring
    e with c kills through[e] & holds[c]; a pair left with no alive path cuts the subtree.
    Nodes are colors tried on an edge; each charges the table's entries plus the nodes so far.
    """
    if k < 1:
        raise ValueError("k must be positive")
    check_depth(g.edge_count, "edges")
    if not _precheck_pairs(g, pairs, k):
        return SolveResult(False, None, 0)
    through, spans, entries, pathless = table or _path_table(g, pairs, budget, paths_of)
    m = g.edge_count
    holds = [0] * k
    colors = [0] * m
    nodes = 0

    def assign(e: int, top: int, alive: int) -> bool:
        nonlocal nodes
        if e == m:
            return True  # every alive path is fully colored and rainbow
        for c in range(min(top + 1, k - 1) + 1):
            nodes += 1
            _charge(budget, entries + nodes)
            held = holds[c]
            left = alive & ~(through[e] & held)
            if left != alive and not all(left & span for span in spans[e]):
                continue
            holds[c] = held | through[e]
            colors[e] = c
            if assign(e + 1, top if c <= top else c, left):
                return True
            holds[c] = held
        return False

    if not pathless and assign(0, -1, (1 << entries) - 1):
        return SolveResult(True, EdgeColoring(g, k, tuple(colors)), nodes)
    return SolveResult(False, None, nodes)


def subset_rc_leq(g: Graph, pairs: PairSet, k: int, budget: int | None = None, *, _table=None) -> SolveResult:
    """Decide whether some k-edge-coloring gives every pair in pairs a rainbow path.

    Admissible paths are the simple ones of at most k edges. The witness is the
    lexicographically least feasible restricted-growth coloring. Raises
    BudgetExceededError once path-table entries plus search nodes exceed budget.
    _table: the table of these paths, if rc_exact has it from a lower level.
    """
    return _subset_search(g, pairs, k, budget, lambda u, v, limit: simple_paths_up_to(g, u, v, k, limit), _table)


def subset_src_leq(g: Graph, pairs: PairSet, k: int, budget: int | None = None, *, _table=None) -> SolveResult:
    """Like subset_rc_leq but each pair needs a rainbow shortest path."""
    return _subset_search(g, pairs, k, budget, lambda u, v, limit: geodesics(g, u, v, limit), _table)


def _exact(g: Graph, solver, budget: int | None, paths_of) -> OptResult:
    """Least k at which solver(g, all pairs, k) is feasible, from the diameter up.

    paths_of(k, u, v, limit, watch) gives a pair's paths at level k and, with watch,
    whether they are all it has at any k. While that holds for every pair, higher
    levels reuse the table; each still charges its entries plus its own nodes.
    """
    if g.vertex_count < 2:
        raise ValueError("need at least two vertices")
    if not is_connected(g):
        raise DisconnectedError("graph is disconnected")
    check_depth(g.edge_count, "edges")  # before the costly set-up below
    pairs = all_pairs(g.vertex_count)
    start = max(int(diameter(g)), 1)
    total, table = 0, None
    for k in range(start, g.edge_count + 1):
        if table is None:
            fixed = True

            def level_paths(u: int, v: int, limit: int | None) -> list:
                nonlocal fixed
                paths, fixed = paths_of(k, u, v, limit, fixed)
                return paths

            table = _path_table(g, pairs, budget, level_paths)
        result = solver(g, pairs, k, budget, _table=table)
        total += result.nodes_explored
        if result.feasible:
            assert isinstance(result.witness, EdgeColoring)
            return OptResult(k, result.witness, total)
        if not fixed:
            table = None
    raise AssertionError("all-distinct coloring is always feasible")


def rc_exact(g: Graph, budget: int | None = None) -> OptResult:
    """Least k rainbow-connecting g, searched upward from the diameter.

    A level reuses the path table of the level below if that one held every
    simple path of every pair (on a tree, from the first level on). Values,
    witnesses, nodes and budget errors are those of one subset_rc_leq per level.
    """
    return _exact(g, subset_rc_leq, budget, lambda k, u, v, limit, watch: _simple_paths(g, u, v, k, limit, watch))


def src_exact(g: Graph, budget: int | None = None) -> OptResult:
    """Least k strongly rainbow-connecting g, searched upward from the diameter.

    Geodesics do not depend on k, so every level reuses the first level's path
    table; results and budget errors are those of one subset_src_leq per level.
    """
    return _exact(g, subset_src_leq, budget, lambda k, u, v, limit, watch: (geodesics(g, u, v, limit), True))
