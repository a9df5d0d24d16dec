"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately naive (vertex-sequence enumeration,
all-pairs relaxation, raw color products) so it shares no code path with
the implementations under test.
"""

from __future__ import annotations

import itertools

from rainbowcon import EdgeColoring, Graph, OptResult, all_pairs, diameter, is_connected, new_graph

INF = float("inf")


def floyd_warshall(g: Graph) -> list[list[float]]:
    n = g.vertex_count
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][mid] + dist[mid][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist


def brute_simple_paths(g: Graph, u: int, v: int, max_len: int) -> list[tuple[int, ...]]:
    """All simple u-v paths with <= max_len edges, by trying every vertex sequence."""
    others = [x for x in range(g.vertex_count) if x not in (u, v)]
    found = []
    for interior_len in range(0, max_len):
        for interior in itertools.permutations(others, interior_len):
            seq = (u,) + interior + (v,)
            if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
                found.append(seq)
    return sorted(found)


def brute_rainbow_exists(c: EdgeColoring, u: int, v: int) -> bool:
    assignment = c.assignment
    for seq in brute_simple_paths(c.host, u, v, c.host.vertex_count - 1):
        colors = [assignment[tuple(sorted(e))] for e in zip(seq, seq[1:])]
        if len(set(colors)) == len(colors):
            return True
    return False


def brute_geodesic_rainbow_exists(c: EdgeColoring, u: int, v: int) -> bool:
    dist = floyd_warshall(c.host)[u][v]
    if dist == INF:
        return False
    assignment = c.assignment
    for seq in brute_simple_paths(c.host, u, v, int(dist)):
        if len(seq) - 1 != dist:
            continue
        colors = [assignment[tuple(sorted(e))] for e in zip(seq, seq[1:])]
        if len(set(colors)) == len(colors):
            return True
    return False


def brute_first_failing_pair(c: EdgeColoring, strong: bool, pairs) -> tuple[int, int] | None:
    """First of pairs (in the given order) with no rainbow path (strong: rainbow geodesic)."""
    exists = brute_geodesic_rainbow_exists if strong else brute_rainbow_exists
    return next((pair for pair in pairs if not exists(c, *pair)), None)


def edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def all_graphs(n: int):
    """Every labeled graph on n vertices, as an iterator."""
    slots = edge_slots(n)
    for mask in range(1 << len(slots)):
        yield new_graph(n, [slots[t] for t in range(len(slots)) if mask >> t & 1])


def connected_graph_representatives(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices."""
    slots = edge_slots(n)
    index = {e: t for t, e in enumerate(slots)}
    bit_maps = []
    for perm in itertools.permutations(range(n)):
        bit_maps.append([index[tuple(sorted((perm[u], perm[v])))] for u, v in slots])
    seen: set[int] = set()
    reps: list[Graph] = []
    for mask in range(1 << len(slots)):
        if mask in seen:
            continue
        g = new_graph(n, [slots[t] for t in range(len(slots)) if mask >> t & 1])
        if not is_connected(g):
            continue
        reps.append(g)
        for bm in bit_maps:
            out = 0
            mm = mask
            while mm:
                low = mm & -mm
                out |= 1 << bm[low.bit_length() - 1]
                mm ^= low
            seen.add(out)
    return reps


def raw_colorings(edge_count: int, k: int):
    return itertools.product(range(k), repeat=edge_count)


def restricted_growth_colorings(length: int, color_count: int):
    """Canonical edge colorings: one representative per color-permutation class.

    Position t may use colors 0..min(1 + max color so far, color_count - 1);
    yielded in lexicographic order.
    """
    if length == 0:
        yield ()
        return
    out = [0] * length

    def rec(t: int, top: int):
        if t == length:
            yield tuple(out)
            return
        limit = min(top + 1, color_count - 1)
        for c in range(limit + 1):
            out[t] = c
            yield from rec(t + 1, top if c <= top else c)

    yield from rec(0, -1)


def first_feasible_coloring(g: Graph, pairs, strong: bool, colorings):
    """First color tuple (aligned with g.edge_order) under which every pair has
    a rainbow path (strong: a rainbow shortest path), else None.

    Each pair's candidate paths come from brute_simple_paths once, as edge
    positions, and every coloring is tested against them directly.
    """
    dist = floyd_warshall(g)
    position = {e: i for i, e in enumerate(sorted(g.edges))}
    candidates = []
    for u, v in pairs:
        seqs = brute_simple_paths(g, u, v, g.vertex_count - 1)
        if strong:
            seqs = [seq for seq in seqs if len(seq) - 1 == dist[u][v]]
        candidates.append([[position[tuple(sorted(e))] for e in zip(seq, seq[1:])] for seq in seqs])
    for colors in colorings:
        if all(
            any(len({colors[i] for i in path}) == len(path) for path in paths) for paths in candidates
        ):
            return tuple(colors)
    return None


def bfs_distances(g: Graph, source: int) -> list[float]:
    """Plain breadth-first distances from source, INF where unreachable."""
    dist = [INF] * g.vertex_count
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.adjacency[v]:
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def brute_bridge_count(g: Graph) -> int:
    """Edges whose removal separates their endpoints: drop each edge in turn and search
    from one endpoint over a neighbor map rebuilt from the remaining edge set."""
    count = 0
    for dropped in g.edges:
        near: dict[int, list[int]] = {}
        for a, b in g.edges - {dropped}:
            near.setdefault(a, []).append(b)
            near.setdefault(b, []).append(a)
        u, v = dropped
        seen, queue = {u}, [u]
        for x in queue:
            for y in near.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        count += v not in seen
    return count


def exact_by_levels(g: Graph, solver, budget: int | None = None) -> OptResult:
    """rc or src of g (solver: subset_rc_leq or subset_src_leq) as one independent decision
    per level from the diameter up, each building its own path table; nodes summed."""
    pairs = all_pairs(g.vertex_count)
    total = 0
    for k in range(max(int(diameter(g)), 1), g.edge_count + 1):
        result = solver(g, pairs, k, budget)
        total += result.nodes_explored
        if result.feasible:
            return OptResult(k, result.witness, total)
    raise AssertionError("all-distinct coloring is always feasible")
