"""Instance constructors: star reductions, the bipartite strong-rainbow
extension, the distance-gadget family, and the assembled rainbow-connectivity
instances with their explicit witness colorings.

Vertex layout is fixed so verifiers and serialized output have stable
addressing: base vertices come first (0..n-1), then layer blocks in
construction order. Matchings and tie-breaks that the constructions leave
open are pinned to the identity/canonical choice for reproducibility. The
constructions generate canonical (smaller end first), distinct, in-range
edges in sorted order, sorting only their short base or leaf rows, so they
make a Graph directly, without new_graph's validation pass or a full sort.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

from .coloring import (
    EdgeColoring,
    edge_coloring,
    is_subset_rainbow_connected,
    is_subset_strong_rainbow_connected,
)
from .errors import (
    DomainMismatchError,
    EmptyGraphError,
    ImproperColoringError,
    IndexOutOfRangeError,
    InvalidOrderError,
    MissingLayerTagsError,
    NotAStarError,
    NotSubsetRainbowConnectedError,
    PairNotLeafPairError,
    TooFewColorsError,
)
from .graph import Graph, PairSet, canonical_pair, make_pairs, new_graph


@dataclass(frozen=True)
class SubsetInstance:
    """A graph, a set of vertex pairs to connect, and a color budget."""

    graph: Graph
    pairs: PairSet
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        n = self.graph.vertex_count
        for u, v in self.pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRangeError(f"pair ({u}, {v}) out of range")


@dataclass(frozen=True)
class StarInstance:
    """A star with leaves 0..leaf_count-1, center leaf_count, and leaf pairs.

    Leaf i stands for vertex i of the source graph, so the leaf-to-source
    map is the identity. below_hardness_regime flags color budgets where
    the encoded decision problem is easy (k < 3).
    """

    graph: Graph
    leaf_count: int
    pairs: PairSet
    k: int

    def __post_init__(self) -> None:
        n = self.leaf_count
        if n < 1:
            raise NotAStarError("a star instance needs a center and at least one leaf")
        if self.graph.vertex_count != n + 1 or self.graph.edges != frozenset((i, n) for i in range(n)):
            raise NotAStarError(f"expected leaves 0..{n - 1} all joined to center {n} and nothing else")
        for u, v in self.pairs:
            if u >= n or v >= n:
                raise PairNotLeafPairError(f"pair ({u}, {v}) touches the center")

    @property
    def below_hardness_regime(self) -> bool:
        return self.k < 3

    @property
    def center(self) -> int:
        return self.leaf_count

    @property
    def leaves(self) -> range:
        return range(self.leaf_count)


def star_reduction(g: Graph, k: int) -> StarInstance:
    """Encode k-vertex-colorability of g as a subset connectivity question.

    The star has one leaf per vertex of g plus a fresh center; the pairs are
    exactly the edges of g lifted to leaf pairs.
    """
    if g.vertex_count == 0:
        raise EmptyGraphError("source graph has no vertices")
    if k < 1:
        raise ValueError("k must be positive")
    n = g.vertex_count
    star = new_graph(n + 1, [(i, n) for i in range(n)])
    pairs = make_pairs(g.edges, n)
    return StarInstance(star, n, pairs, k)


def lift_vertex_coloring(inst: StarInstance, vc: Sequence[int]) -> EdgeColoring:
    """Turn a proper vertex coloring of the source into a star edge coloring.

    Edge (leaf_i, center) receives the color of source vertex i; the result
    gives every required pair a rainbow (and, paths being unique, geodesic
    rainbow) connection.
    """
    if len(vc) != inst.leaf_count:
        raise ImproperColoringError(f"expected {inst.leaf_count} vertex colors, got {len(vc)}")
    for c in vc:
        if not 0 <= c < inst.k:
            raise ImproperColoringError(f"color {c} not in 0..{inst.k - 1}")
    for u, v in inst.pairs:
        if vc[u] == vc[v]:
            raise ImproperColoringError(f"adjacent source vertices {u}, {v} share color {vc[u]}")
    # sorted star edges are (0, center), (1, center), ... so colors align with leaves
    return EdgeColoring(inst.graph, inst.k, tuple(vc))


def project_star_coloring(inst: StarInstance, c: EdgeColoring) -> tuple[int, ...]:
    """Read a vertex coloring back off the star edges; inverse of the lift.

    Requires c to rainbow-connect the instance pairs, which forces distinct
    colors on the two edges of each pair and hence a proper result.
    """
    if c.host != inst.graph:
        raise DomainMismatchError("coloring does not belong to this star")
    if not is_subset_rainbow_connected(c, inst.pairs):
        raise NotSubsetRainbowConnectedError("coloring misses a required pair")
    return tuple(c.colors)


def _nonpairs(n: int, pairs: PairSet) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]


def _twin_tags(rx: tuple, ry: tuple) -> bool:
    tx, ty = rx[0], ry[0]
    if tx.endswith("_twin"):
        tx, ty = ty, tx
    return ty == tx + "_twin" and rx[1:] == ry[1:]


@dataclass(frozen=True, eq=False)
class SrcExtension:
    """The star grown into a bipartite graph whose every pair is constrained.

    New layer one (anchors + bridges) attaches to the leaves, its twin layer
    attaches to the center, and the two layers are joined completely. The
    sides ({center} + layer one, leaves + twin layer) witness bipartiteness.
    Ids: leaves, center, layer one (anchors, then bridges), then the twins in
    the same order, so each twin sits len(layer_one) ids after its vertex.
    roles maps each vertex to a tagged tuple, as in Gadget: ("leaf", i),
    ("center",), ("anchor", i), ("bridge", i, j) and their "_twin" tags.
    """

    star: StarInstance
    graph: Graph
    roles: dict[int, tuple]

    @property
    def layer_one(self) -> tuple[int, ...]:
        return tuple(range(self.star.center + 1, (self.graph.vertex_count + self.star.center + 1) // 2))

    @property
    def twin_layer(self) -> tuple[int, ...]:
        return tuple(range((self.graph.vertex_count + self.star.center + 1) // 2, self.graph.vertex_count))

    @property
    def matching(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.layer_one, self.twin_layer))

    def sides(self) -> tuple[tuple[int, ...], ...]:
        return (self.star.center, *self.layer_one), (*self.star.leaves, *self.twin_layer)

    def edge_layer(self, u: int, v: int) -> str:
        """Classify an edge: star | leaf_link | cross_link | center_link."""
        if not self.graph.has_edge(u, v):
            raise DomainMismatchError(f"({u}, {v}) is not an edge of the extension")
        tags = (self.roles[u][0], self.roles[v][0])
        if "leaf" in tags:
            return "star" if "center" in tags else "leaf_link"
        return "center_link" if "center" in tags else "cross_link"

    def layers(self) -> dict[int, str]:
        """Per-vertex display tag: leaf | center | anchor | bridge | anchor_twin | bridge_twin."""
        return {v: role[0] for v, role in sorted(self.roles.items())}


def src_extension(inst: StarInstance) -> SrcExtension:
    """Extend a star instance so that the pair constraints become global.

    Per leaf i one new vertex (anchor) on each side; per unconstrained leaf
    pair one bridge per side. Bridges give every non-pair a two-edge detour,
    the complete join makes everything else close, and each required pair
    keeps its unique two-edge path through the center.
    """
    n, center = inst.leaf_count, inst.center
    nonpairs = _nonpairs(n, inst.pairs)
    layer_size = n + len(nonpairs)
    layer = range(n + 1, n + 1 + layer_size)
    roles: dict[int, tuple] = {i: ("leaf", i) for i in range(n)}
    roles[center] = ("center",)
    roles.update({layer[i]: ("anchor", i) for i in range(n)})
    roles.update({layer[n + idx]: ("bridge", i, j) for idx, (i, j) in enumerate(nonpairs)})

    edges: list[tuple[int, int]] = [(i, center) for i in range(n)]
    for x in layer:
        tag, *leaves = roles[x]
        roles[x + layer_size] = (tag + "_twin", *leaves)
        edges += [(i, x) for i in leaves]
    edges.sort()  # the leaf rows; the center's and layer one's rows follow in id order
    edges += product(range(center, layer.stop), range(layer.stop, layer.stop + layer_size))
    return SrcExtension(inst, Graph(n + 1 + 2 * layer_size, tuple(edges)), roles)


def src_witness_coloring(ext: SrcExtension, base: EdgeColoring) -> EdgeColoring:
    """Extend a feasible star coloring to the whole extension.

    Keeps the star edges, sends anchors' leaf links and all center links to
    color 2, splits each bridge's two leaf links as 0/1, and colors the
    complete join 0 on the identity matching and 1 elsewhere. Needs at
    least three colors.
    """
    if base.host != ext.star.graph:
        raise DomainMismatchError("base coloring does not belong to the extension's star")
    if base.color_count < 3:
        raise TooFewColorsError("the extension coloring needs at least 3 colors")
    if not is_subset_strong_rainbow_connected(base, ext.star.pairs):
        raise NotSubsetRainbowConnectedError("base coloring misses a required pair")
    n, center, size = ext.star.leaf_count, ext.star.center, len(ext.layer_one)
    colors: list[int] = []
    for u, v in ext.graph.edge_order:  # u < v, so a leaf or the center can only be u
        if u < n:
            if v == center:  # star edge (u, center) sits at index u of the star's edge order
                colors.append(base.colors[u])
            elif v <= center + n:  # anchors come first in layer one
                colors.append(2)
            else:  # bridge (i, j) with i < j: near side 0, far side 1
                colors.append(0 if u == ext.roles[v][1] else 1)
        elif u == center:
            colors.append(2)
        else:  # complete join between layer one and its twin
            colors.append(0 if v == u + size else 1)
    return edge_coloring(ext.graph, base.color_count, colors)


@dataclass(frozen=True, eq=False)
class Gadget:
    """An order-k distance gadget with designated base vertices.

    Base vertices sit at indices 0..n-1 and carry the encoded pair set:
    encoded pairs end up at distance at least order+1, every other base
    pair at distance exactly order. roles maps each vertex to a tagged
    tuple; for orders above three the construction trace (inner gadget,
    copy triples, carried map) drives the recursive witness coloring.
    """

    graph: Graph
    order: int
    base_vertices: tuple[int, ...]
    pairs: PairSet
    roles: dict[int, tuple]
    inner: "Gadget | None" = None
    copies: dict[int, tuple[int, int, int]] | None = None
    carried: dict[int, int] | None = None

    @property
    def base_count(self) -> int:
        return len(self.base_vertices)


def _check_gadget_args(n: int, pairs: PairSet) -> None:
    if n < 2:
        raise ValueError("need at least two base vertices")
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"pair ({u}, {v}) out of range 0..{n - 1}")


def build_order2_gadget(n: int, pairs: PairSet) -> Gadget:
    """Order-2 gadget: a hub clique of anchors and bridges below the bases.

    Each base vertex hangs off its own anchor; every unconstrained base
    pair additionally shares a bridge, giving it a two-edge connection.
    Constrained pairs must travel base-anchor-anchor-base, length three.
    """
    _check_gadget_args(n, pairs)
    nonpairs = _nonpairs(n, pairs)
    anchors = tuple(n + i for i in range(n))
    bridges = {t: 2 * n + idx for idx, t in enumerate(nonpairs)}
    hub = list(anchors) + [bridges[t] for t in nonpairs]

    edges: list[tuple[int, int]] = [(i, anchors[i]) for i in range(n)]
    for (i, j), b in bridges.items():
        edges.append((i, b))
        edges.append((j, b))
    edges.sort()  # the base rows; the hub clique's rows follow in id order
    edges += combinations(hub, 2)

    roles: dict[int, tuple] = {i: ("base", i) for i in range(n)}
    roles.update({anchors[i]: ("anchor", i) for i in range(n)})
    roles.update({b: ("bridge", i, j) for (i, j), b in bridges.items()})
    graph = Graph(n + len(hub), tuple(edges))
    return Gadget(graph, 2, tuple(range(n)), pairs, roles)


def build_order3_gadget(n: int, pairs: PairSet) -> Gadget:
    """Order-3 gadget: a two-layer core joined completely, bridges in series.

    Anchors and bridge halves form the first layer; a twin layer mirrors it
    and the two are completely joined. Each unconstrained base pair gets a
    left/right bridge half pair joined by an edge, yielding a three-edge
    connection; constrained pairs need at least four edges.
    """
    _check_gadget_args(n, pairs)
    nonpairs = _nonpairs(n, pairs)
    z = len(nonpairs)
    layer_size = n + 2 * z
    anchors = tuple(n + i for i in range(n))
    lefts = {t: 2 * n + 2 * idx for idx, t in enumerate(nonpairs)}
    rights = {t: 2 * n + 2 * idx + 1 for idx, t in enumerate(nonpairs)}
    layer = list(anchors) + [v for t in nonpairs for v in (lefts[t], rights[t])]
    twins = [x + layer_size for x in layer]

    edges: list[tuple[int, int]] = [(i, anchors[i]) for i in range(n)]
    for i, j in nonpairs:
        edges += [(i, lefts[(i, j)]), (j, rights[(i, j)])]
    edges.sort()  # the base rows; the layer rows follow in id order
    edges += product(anchors, twins)
    for t in nonpairs:  # each left half, then its right half
        edges.append((lefts[t], rights[t]))
        edges += product((lefts[t], rights[t]), twins)

    roles: dict[int, tuple] = {i: ("base", i) for i in range(n)}
    roles.update({anchors[i]: ("anchor", i) for i in range(n)})
    for (i, j), v in lefts.items():
        roles[v] = ("bridge_left", i, j)
    for (i, j), v in rights.items():
        roles[v] = ("bridge_right", i, j)
    for x in layer:
        tag, *rest = roles[x]
        roles[x + layer_size] = (tag + "_twin", *rest)
    graph = Graph(n + 2 * layer_size, tuple(edges))
    return Gadget(graph, 3, tuple(range(n)), pairs, roles)


def build_gadget(n: int, pairs: PairSet, order: int) -> Gadget:
    """Order-k distance gadget; recursive for k >= 4 via base splitting.

    Even orders bottom out at the order-2 gadget, odd at order-3. Each
    recursion step splits inner base i into a triangle of copies
    n+3i..n+3i+2 that triplicate its edges, carries every other inner
    vertex v to v+3n, and hangs a fresh base i off the triangle,
    stretching all base distances by two. The inner gadgets built here
    have no edge between two bases.
    """
    if order < 2:
        raise InvalidOrderError(f"no gadget of order {order}")
    if order == 2:
        return build_order2_gadget(n, pairs)
    if order == 3:
        return build_order3_gadget(n, pairs)
    inner = build_gadget(n, pairs, order - 2)
    shift = 3 * n
    copies = {i: (n + 3 * i, n + 3 * i + 1, n + 3 * i + 2) for i in inner.base_vertices}
    carried = {v: v + shift for v in range(n, inner.graph.vertex_count)}
    # in sorted order: the new base rows, each copy's triangle edges and links
    # (read off its old base's row), then the inner non-base rows, shifted
    inner_edges = inner.graph.edge_order
    cut = [bisect_left(inner_edges, (b,)) for b in range(n + 1)]  # u < v, so only u can be an inner base
    edges = [(i, c) for i, cs in copies.items() for c in cs]
    for b, (c1, c2, c3) in copies.items():
        row = [v + shift for _, v in inner_edges[cut[b] : cut[b + 1]]]
        edges += [(c1, c2), (c1, c3)] + [(c1, w) for w in row]
        edges += [(c2, c3)] + [(c2, w) for w in row]
        edges += [(c3, w) for w in row]
    edges += [(u + shift, v + shift) for u, v in inner_edges[cut[n] :]]
    graph = Graph(inner.graph.vertex_count + shift, tuple(edges))

    roles: dict[int, tuple] = {i: ("base", i) for i in range(n)}
    roles.update({c: ("copy", i, t) for i, cs in copies.items() for t, c in enumerate(cs, start=1)})
    roles.update({w: inner.roles[v] for v, w in carried.items()})
    return Gadget(graph, order, tuple(range(n)), pairs, roles, inner, copies, carried)


def _order2_colors(g: Gadget) -> list[int]:
    colors: list[int] = []
    for u, v in g.graph.edge_order:
        ru, rv = g.roles[u], g.roles[v]
        if ru[0] != "base" and rv[0] != "base":
            colors.append(0)
            continue
        rb, ro = (ru, rv) if ru[0] == "base" else (rv, ru)
        if ro[0] == "anchor":
            colors.append(1)
        else:  # bridge (i, j) with i < j: near side 0, far side 1
            colors.append(0 if rb[1] == ro[1] else 1)
    return colors


def _order3_colors(g: Gadget) -> list[int]:
    colors: list[int] = []
    for u, v in g.graph.edge_order:
        ru, rv = g.roles[u], g.roles[v]
        if ru[0] == "base" or rv[0] == "base":
            ro = rv if ru[0] == "base" else ru
            if ro[0] == "anchor":
                colors.append(2)
            elif ro[0] == "bridge_left":
                colors.append(0)
            else:
                colors.append(1)
        elif ru[0] == "bridge_left" and rv[0] == "bridge_right":
            colors.append(2)
        elif rv[0] == "bridge_left" and ru[0] == "bridge_right":
            colors.append(2)
        else:  # complete join between the layer and its twin
            colors.append(0 if _twin_tags(ru, rv) else 1)
    return colors


def witness_coloring(g: Gadget) -> EdgeColoring:
    """The explicit coloring that rainbow-connects all pairs outside P.

    Orders 2 and 3 use their closed-form colorings. For order k >= 4 the
    inner coloring is inherited on two of the three copies of each old
    base, the third copy's links get color k-2, triangles and the fresh
    base links get color k-1 (except one k-2 link per base, which keeps
    the new two-step detours rainbow). Uses exactly k color indices.

    The color of each copy edge c1-c2 is free: any color there keeps the
    witness valid. c1 and c2 share every neighbor and see the same color on
    each except the fresh base nb, whose only other neighbor c3 meets nb, c1
    and c2 in color k-1. So a rainbow path through c1-c2 drops c1 or c2, or
    turns c3-nb-c1-c2 into c3-c2, and stays rainbow on a subset of its colors.
    """
    if set(g.roles) != set(range(g.graph.vertex_count)):
        raise MissingLayerTagsError("vertex roles missing or inconsistent")
    k = g.order
    if k < 2:
        raise InvalidOrderError(f"no gadget of order {k}")
    try:  # corrupted roles or a corrupted trace name tags, vertices or edges the gadget lacks
        if k == 2:
            return edge_coloring(g.graph, 2, _order2_colors(g))
        if k == 3:
            return edge_coloring(g.graph, 3, _order3_colors(g))
        if g.inner is None or g.copies is None or g.carried is None:
            raise MissingLayerTagsError("recursive gadget lacks its construction trace")
        inner_coloring = witness_coloring(g.inner)
        inner_base = set(g.inner.base_vertices)
        slot = g.graph.edge_index
        colors: list[int | None] = [None] * g.graph.edge_count
        for (u, v), inherited in zip(g.inner.graph.edge_order, inner_coloring.colors):
            if u in inner_base or v in inner_base:
                b, w = (u, v) if u in inner_base else (v, u)
                cw = g.carried[w]
                c1, c2, c3 = g.copies[b]
                colors[slot[canonical_pair(c1, cw)]] = inherited
                colors[slot[canonical_pair(c2, cw)]] = inherited
                colors[slot[canonical_pair(c3, cw)]] = k - 2
            else:
                colors[slot[canonical_pair(g.carried[u], g.carried[v])]] = inherited
        for i, b in enumerate(g.inner.base_vertices):
            c1, c2, c3 = g.copies[b]
            colors[slot[canonical_pair(c1, c2)]] = k - 1
            colors[slot[canonical_pair(c1, c3)]] = k - 1
            colors[slot[canonical_pair(c2, c3)]] = k - 1
            nb = g.base_vertices[i]
            colors[slot[canonical_pair(c1, nb)]] = k - 2
            colors[slot[canonical_pair(c2, nb)]] = k - 1
            colors[slot[canonical_pair(c3, nb)]] = k - 1
        if None in colors:
            missing = g.graph.edge_order[colors.index(None)]
            raise MissingLayerTagsError(f"construction trace leaves edge {missing} uncolored")
        return edge_coloring(g.graph, k, colors)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise MissingLayerTagsError(f"roles or construction trace do not match the gadget: {exc!r}") from None


def gadget_layers(g: Gadget) -> dict[int, str]:
    """Per-vertex display tag: copy1-3 for a copy role, else the role's own tag.

    Every level hands the inner roles on to its carried vertices, so the
    roles alone give the tags of the whole recursion.
    """
    return {v: f"copy{role[2]}" if role[0] == "copy" else role[0] for v, role in sorted(g.roles.items())}


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """The gadget with the source graph's edges drawn between its bases.

    Base vertex i of the gadget is source vertex i, so the base-induced
    subgraph is the source graph itself.
    """

    graph: Graph
    gadget: Gadget
    source: SubsetInstance


def rc_reduction(inst: SubsetInstance) -> ReducedInstance:
    """Embed a subset instance into a plain rainbow-connectivity instance.

    The combined graph is the edge-disjoint union of the order-k gadget on
    the instance's pairs and the source edges placed between base vertices.
    Both sides were validated and sorted when their graphs were built, so the
    union needs no second validation pass: the source edges only join the
    gadget's base rows, which come first in its edge order.
    """
    if inst.k < 2:
        raise InvalidOrderError(f"no reduction for k = {inst.k}")
    gadget = build_gadget(inst.graph.vertex_count, inst.pairs, inst.k)
    # disjoint: no gadget edge joins two bases (build_gadget), and every source edge does
    gadget_edges = gadget.graph.edge_order
    cut = bisect_left(gadget_edges, (inst.graph.vertex_count,))
    merged = tuple(sorted(gadget_edges[:cut] + inst.graph.edge_order)) + gadget_edges[cut:]
    return ReducedInstance(Graph(gadget.graph.vertex_count, merged), gadget, inst)


def combine_colorings(r: ReducedInstance, base: EdgeColoring, gadget: EdgeColoring) -> EdgeColoring:
    """Union the base coloring (on source edges) with the gadget coloring.

    Both inputs must color exactly their side of the edge-disjoint union
    and stay within the instance's k color indices.
    """
    k = r.source.k
    if base.host != r.source.graph:
        raise DomainMismatchError("base coloring must cover exactly the source edges")
    if gadget.host != r.gadget.graph:
        raise DomainMismatchError("gadget coloring must cover exactly the gadget edges")
    if base.color_count > k or gadget.color_count > k:
        raise DomainMismatchError(f"colorings must use at most {k} color indices")
    base_edges = r.source.graph.edges
    colors = [base.color_of(*e) if e in base_edges else gadget.color_of(*e) for e in r.graph.edge_order]
    return edge_coloring(r.graph, k, colors)
