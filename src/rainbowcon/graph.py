"""Undirected simple graphs: exact distances, bounded path enumeration, geodesics.

Vertices are dense 0-based integers; edges are canonical (smaller endpoint
first) and sorted once, at construction; their lookups are built on first use.
Graphs are immutable and all operations are pure, so values can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    DisconnectedError,
    IndexOutOfRangeError,
    PathNotInGraphError,
    SelfLoopError,
)

UNREACHABLE = math.inf


def canonical_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over vertices 0..vertex_count-1.

    Its only fields, vertex_count and edge_order (the edges sorted by endpoints),
    decide equality; the edge set, adjacency and edge_index are built on first use.
    """

    vertex_count: int
    edge_order: tuple[tuple[int, int], ...]

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edge_order)

    @property
    def edge_count(self) -> int:
        return len(self.edge_order)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Ascending neighbor rows, built on first use; edge_order fills each row in order."""
        rows: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edge_order:
            rows[u].append(v)
            rows[v].append(u)
        return tuple(map(tuple, rows))

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Position of each canonical edge in edge_order; built on first use."""
        return {e: i for i, e in enumerate(self.edge_order)}

    def edge_list(self) -> list[tuple[int, int]]:
        """edge_order as a fresh list."""
        return list(self.edge_order)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_pair(u, v) in self.edges

    @cached_property
    def _distance_rows(self) -> dict[int, list[int | float]]:
        return {}

    def distances(self, source: int) -> list[int | float]:
        """distances_from(self, source) as a fresh list; each source's BFS runs once per graph."""
        row = self._distance_rows.get(source)
        if row is None:
            row = self._distance_rows[source] = distances_from(self, source)
        return list(row)


def _check_vertex(v: int, vertex_count: int) -> None:
    if not 0 <= v < vertex_count:
        raise IndexOutOfRangeError(f"vertex {v} not in range 0..{vertex_count - 1}")


def _check_endpoints(g: Graph, u: int, v: int) -> None:
    _check_vertex(u, g.vertex_count)
    _check_vertex(v, g.vertex_count)
    if u == v:
        raise ValueError("endpoints must differ")


def new_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph, canonicalizing edges and collapsing duplicates.

    Rejects self-loops and out-of-range endpoints.
    """
    if vertex_count < 0:
        raise ValueError("vertex_count must be nonnegative")
    canon: dict[tuple[int, int], None] = {}  # keeps input order: nearly sorted input sorts in linear time
    for u, v in edges:
        if u == v or not (0 <= u < vertex_count and 0 <= v < vertex_count):
            _check_vertex(u, vertex_count)
            _check_vertex(v, vertex_count)
            raise SelfLoopError(f"self-loop at vertex {u}")
        canon[(u, v) if u < v else (v, u)] = None
    return Graph(vertex_count, tuple(sorted(canon)))


@dataclass(frozen=True)
class Path:
    """A simple path given by its vertex sequence."""

    vertices: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def edges(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple(canonical_pair(vs[i], vs[i + 1]) for i in range(len(vs) - 1))


def check_path(g: Graph, p: Path) -> None:
    """Raise PathNotInGraphError unless p is a simple path of g."""
    vs = p.vertices
    if len(vs) == 0:
        raise PathNotInGraphError("empty vertex sequence")
    if len(set(vs)) != len(vs):
        raise PathNotInGraphError(f"repeated vertex in {vs}")
    for v in vs:
        if not 0 <= v < g.vertex_count:
            raise PathNotInGraphError(f"vertex {v} out of range")
    for a, b in zip(vs, vs[1:]):
        if not g.has_edge(a, b):
            raise PathNotInGraphError(f"missing edge ({a}, {b})")


@dataclass(frozen=True)
class PairSet:
    """Unordered vertex pairs, stored canonically with duplicates collapsed."""

    pairs: frozenset[tuple[int, int]]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, v = pair
        return canonical_pair(u, v) in self.pairs

    def as_lists(self) -> list[list[int]]:
        return [[u, v] for u, v in sorted(self.pairs)]


def make_pairs(pairs: Iterable[tuple[int, int]], vertex_count: int | None = None) -> PairSet:
    canon: set[tuple[int, int]] = set()
    for u, v in pairs:
        if u == v:
            raise SelfLoopError(f"pair ({u}, {v}) joins a vertex to itself")
        if vertex_count is not None:
            _check_vertex(u, vertex_count)
            _check_vertex(v, vertex_count)
        canon.add(canonical_pair(u, v))
    return PairSet(frozenset(canon))


def all_pairs(vertex_count: int) -> PairSet:
    return PairSet(frozenset((u, v) for u in range(vertex_count) for v in range(u + 1, vertex_count)))


def distances_from(g: Graph, source: int) -> list[int | float]:
    """Breadth-first shortest-path distances; unreachable vertices get math.inf."""
    _check_vertex(source, g.vertex_count)
    dist: list[int | float] = [UNREACHABLE] * g.vertex_count
    dist[source] = 0
    queue, adjacency = [source], g.adjacency  # a local: reading the lazy attribute is slower
    for v in queue:  # the list grows while it is walked, so it serves as the FIFO queue
        d = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] is UNREACHABLE:
                dist[w] = d
                queue.append(w)
    return dist


def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; math.inf when disconnected, 0 for <= 1 vertex."""
    if g.vertex_count <= 1:
        return 0
    worst: int | float = 0
    for source in range(g.vertex_count):  # rows not kept: on a graph of any size they would hold n^2 entries
        for d in distances_from(g, source):
            if d is UNREACHABLE:
                return UNREACHABLE
            if d > worst:
                worst = d
    return worst


def is_connected(g: Graph, loud: bool = False) -> bool:
    """True iff every vertex is reachable from vertex 0; with loud, a disconnected
    graph raises DisconnectedError naming the first unreachable vertex instead."""
    if g.vertex_count <= 1:
        return True
    dist = g.distances(0)
    if UNREACHABLE not in dist:
        return True
    if loud:
        raise DisconnectedError(f"no path between 0 and {dist.index(UNREACHABLE)}")
    return False


def is_bipartite(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """2-color by BFS; returns (True, side labels) or (False, None)."""
    side, adjacency = [-1] * g.vertex_count, g.adjacency
    for start in range(g.vertex_count):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        for v in queue:  # the list grows while it is walked, as in distances_from
            for w in adjacency[v]:
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return False, None
    return True, tuple(side)


def simple_paths_up_to(g: Graph, u: int, v: int, max_len: int, limit: int | None = None) -> list[Path]:
    """All simple u-v paths with at most max_len edges, in lexicographic order.

    Depth-first with ascending neighbor order; branches that cannot reach v
    within the remaining length are pruned, which does not change the output.
    With limit, enumeration stops as soon as more than limit paths are found,
    so the list then holds the first limit + 1 paths.
    """
    return _simple_paths(g, u, v, max_len, limit, False)[0]


def _simple_paths(g: Graph, u: int, v: int, max_len: int, limit: int | None, watch: bool) -> tuple[list[Path], bool]:
    """simple_paths_up_to, and with watch whether the list holds every simple u-v path: it does
    unless it is over limit or the length bound cut a branch at a vertex from which v can still
    be reached off the path (only such a branch holds a longer simple path)."""
    _check_endpoints(g, u, v)
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    dist_to_target = g.distances(v)
    out: list[Path] = []
    on_path, adjacency = [False] * g.vertex_count, g.adjacency
    on_path[u] = True
    stack = [u]
    whole = watch

    def escapes(w: int) -> bool:
        seen, queue = on_path[:], [w]
        for x in queue:
            for y in adjacency[x]:
                if y == v:
                    return True
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        return False

    def extend(x: int) -> None:
        nonlocal whole
        used = len(stack) - 1
        for w in adjacency[x]:
            if limit is not None and len(out) > limit:
                return
            if w == v:  # x was admitted within the bound, so d(x, v) = 1 keeps this path within it too
                out.append(Path(tuple(stack) + (v,)))
                continue
            if on_path[w]:
                continue
            if used + 1 + dist_to_target[w] > max_len:
                if whole and escapes(w):
                    whole = False
                continue
            on_path[w] = True
            stack.append(w)
            extend(w)
            stack.pop()
            on_path[w] = False

    extend(u)
    return out, whole and (limit is None or len(out) <= limit)


def geodesics(g: Graph, u: int, v: int, limit: int | None = None) -> list[Path]:
    """All shortest u-v paths, in lexicographic order; limit as in simple_paths_up_to.

    At max_len = d(u, v) the pruning in simple_paths_up_to keeps exactly the
    shortest-path DAG, so this is that walk with the distance as its bound.
    """
    _check_vertex(u, g.vertex_count)
    _check_vertex(v, g.vertex_count)
    total = g.distances(u)[v]
    if total is UNREACHABLE:
        raise DisconnectedError(f"no path between {u} and {v}")
    return simple_paths_up_to(g, u, v, total, limit)
