"""Edge-coloring semantics: rainbow paths and the four connectivity predicates.

A rainbow path repeats no edge color, so with k colors it has at most k
edges. All existence checks below search over (used-color-set, vertex)
states, which bounds the depth at k automatically and keeps gadget-sized
instances cheap. The geodesic checks run the same search on arcs between
consecutive BFS layers only, so every walk it follows is a shortest path.
Vertex sets are carried as integer bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DisconnectedError
from .graph import UNREACHABLE, Graph, PairSet, Path, _check_endpoints, canonical_pair, check_path, is_connected


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of color indices 0..color_count-1 to the host's edges.

    colors[i] is the color of host.edge_order[i]; not every index needs to
    be used.
    """

    host: Graph
    color_count: int
    colors: tuple[int, ...]

    @property
    def assignment(self) -> dict[tuple[int, int], int]:
        return dict(zip(self.host.edge_order, self.colors))

    def color_of(self, u: int, v: int) -> int:
        return self.colors[self.host.edge_index[canonical_pair(u, v)]]


def edge_coloring(
    host: Graph,
    color_count: int,
    assignment: Mapping[tuple[int, int], int] | Iterable[int],
) -> EdgeColoring:
    """Build a validated coloring from an edge->color map or an aligned sequence."""
    if color_count < 1:
        raise ValueError("color_count must be positive")
    order = host.edge_order
    if isinstance(assignment, Mapping):
        canon = {canonical_pair(u, v): c for (u, v), c in assignment.items()}
        missing = [e for e in order if e not in canon]
        if missing:
            raise ValueError(f"no color for edge {missing[0]}")
        extra = canon.keys() - host.edge_index.keys()
        if extra:
            raise ValueError(f"color given for non-edge {sorted(extra)[0]}")
        colors = tuple(canon[e] for e in order)
    else:
        colors = tuple(assignment)
        if len(colors) != len(order):
            raise ValueError(f"expected {len(order)} colors, got {len(colors)}")
    for c in colors:
        if not 0 <= c < color_count:
            raise ValueError(f"color index {c} not in 0..{color_count - 1}")
    return EdgeColoring(host, color_count, colors)


def is_rainbow_path(c: EdgeColoring, p: Path) -> bool:
    """True iff the edge colors along p are pairwise distinct."""
    check_path(c.host, p)
    index = c.host.edge_index
    used = [c.colors[index[e]] for e in p.edges()]
    return len(set(used)) == len(used)


def _rainbow_reach(
    masks: list[list[int]], color_count: int, source: int, stop_mask: int, adjacency: list[int] | None = None
) -> int:
    """Bitmask of vertices reachable from source along some rainbow path; the
    search stops as soon as every vertex of stop_mask is reached.

    Level d of the search holds, per used-color set, the vertices reachable
    by a rainbow walk using exactly those d colors; shortcutting a repeated
    vertex in such a walk leaves a rainbow simple path, so reachability by
    walk and by path coincide.

    With adjacency (a neighbor bitmask per vertex), a state of level d - 1 lies
    on BFS layer d - 1, so one AND of its color row with layer d (ahead) keeps
    exactly its arcs into the next layer: every walk is a shortest path, and the
    result is the set of vertices with a rainbow geodesic from source.
    """
    reached = 1 << source
    missing = stop_mask & ~reached
    frontier: dict[int, int] = {0: reached}
    rows = [(1 << col, masks[col]) for col in range(color_count)]
    geodesic, layer, seen = adjacency is not None, reached, reached
    for _ in range(color_count):
        if geodesic:
            ahead = 0
            while layer:
                low = layer & -layer
                ahead |= adjacency[low.bit_length() - 1]
                layer ^= low
            layer = ahead = ahead & ~seen
            if not ahead:  # every vertex reachable from source is behind this layer
                break
            seen |= ahead
        nxt: dict[int, int] = {}
        for used, mask in frontier.items():
            vertices = []  # split once per state, not once per free color
            while mask:
                low = mask & -mask
                vertices.append(low.bit_length() - 1)
                mask ^= low
            for bit, by_color in rows:
                if used & bit:
                    continue
                out = 0
                for v in vertices:
                    out |= by_color[v]
                if geodesic:
                    out &= ahead
                if out:
                    reached |= out
                    key = used | bit
                    if key in nxt:
                        nxt[key] |= out
                    else:
                        nxt[key] = out
                    if missing & out:
                        missing &= ~out
                        if not missing:
                            return reached
        if not nxt:
            break
        frontier = nxt
    return reached


def exists_rainbow_path(c: EdgeColoring, u: int, v: int) -> bool:
    """True iff some simple u-v path of the host is rainbow under c."""
    _check_endpoints(c.host, u, v)
    return bool(_rainbow_reacher(c.host, c.colors, c.color_count)(u, 1 << v) >> v & 1)


def _require_pair_connected(g: Graph, u: int, v: int) -> None:
    if g.distances(u)[v] == UNREACHABLE:
        raise DisconnectedError(f"no path between {u} and {v}")


def exists_geodesic_rainbow_path(c: EdgeColoring, u: int, v: int) -> bool:
    """True iff at least one shortest u-v path is rainbow under c."""
    _check_endpoints(c.host, u, v)
    _require_pair_connected(c.host, u, v)
    return bool(_rainbow_reacher(c.host, c.colors, c.color_count, geodesic=True)(u, 1 << v) >> v & 1)


def _rainbow_reacher(g: Graph, colors: tuple[int, ...], k: int, geodesic: bool = False):
    masks = [[0] * g.vertex_count for _ in range(k)]  # masks[color][v]: v's neighbors via that color
    for (u, v), col in zip(g.edge_order, colors):
        masks[col][u] |= 1 << v
        masks[col][v] |= 1 << u
    # each edge has one color, so a vertex's color rows are disjoint and their sum is its neighbor mask
    adjacency = [sum(rows) for rows in zip(*masks)] if geodesic else None
    return lambda u, targets: _rainbow_reach(masks, k, u, targets, adjacency)


def _first_missing_pair(
    c: EdgeColoring, required: PairSet | None, skip: PairSet | None, geodesic: bool
) -> tuple[int, int] | None:
    """Earliest (source, target) of the required pairs, else of every pair not
    skipped, with no rainbow path (geodesic: no rainbow shortest path)."""
    n = c.host.vertex_count
    if required is not None:
        wanted: dict[int, int] = {}
        for u, v in required.pairs:
            wanted[u] = wanted.get(u, 0) | 1 << v
    else:
        wanted = {u: (1 << n) - (2 << u) for u in range(n - 1)}
        for u, v in skip.pairs if skip is not None else ():
            wanted[u] = wanted.get(u, 0) & ~(1 << v)
    reach = _rainbow_reacher(c.host, c.colors, c.color_count, geodesic)
    for u, targets in sorted(wanted.items()):
        missing = targets & ~reach(u, targets) if targets else 0
        if missing:
            return u, (missing & -missing).bit_length() - 1
    return None


def first_non_rainbow_pair(
    c: EdgeColoring,
    required: PairSet | None = None,
    skip: PairSet | None = None,
) -> tuple[int, int] | None:
    """Earliest pair (by source, then target) lacking a rainbow path.

    With required given, only those pairs are examined; skip excludes pairs
    from the all-pairs scan. Unreachable pairs count as failures here; use
    the public predicates for the loud Disconnected errors.
    """
    return _first_missing_pair(c, required, skip, geodesic=False)


def first_non_geodesic_rainbow_pair(
    c: EdgeColoring,
    required: PairSet | None = None,
    skip: PairSet | None = None,
) -> tuple[int, int] | None:
    """Earliest pair with no rainbow shortest path (unreachable pairs fail)."""
    return _first_missing_pair(c, required, skip, geodesic=True)


def is_rainbow_connected(c: EdgeColoring) -> bool:
    """True iff every vertex pair of the (connected) host has a rainbow path."""
    is_connected(c.host, loud=True)
    return first_non_rainbow_pair(c) is None


def is_strong_rainbow_connected(c: EdgeColoring) -> bool:
    """True iff every vertex pair of the (connected) host has a rainbow geodesic."""
    is_connected(c.host, loud=True)
    return first_non_geodesic_rainbow_pair(c) is None


def is_subset_rainbow_connected(c: EdgeColoring, pairs: PairSet) -> bool:
    """True iff every pair in pairs has a rainbow path; pairs must be connected."""
    for u, v in pairs:
        _require_pair_connected(c.host, u, v)
    return first_non_rainbow_pair(c, required=pairs) is None


def is_subset_strong_rainbow_connected(c: EdgeColoring, pairs: PairSet) -> bool:
    """True iff every pair in pairs has a rainbow geodesic; pairs must be connected."""
    for u, v in pairs:
        _require_pair_connected(c.host, u, v)
    return first_non_geodesic_rainbow_pair(c, required=pairs) is None
