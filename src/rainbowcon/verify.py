"""Machine-checkers for the construction guarantees, plus a seeded fuzzer.

Each check returns a CheckReport rather than raising: failures carry an
independently re-checkable counterexample (a pair, a path, or verdicts).
Reports carry no wall-clock timing, so runs with equal configuration are
byte-identical.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from typing import Iterator

from .coloring import (
    EdgeColoring,
    first_non_geodesic_rainbow_pair,
    first_non_rainbow_pair,
    is_subset_rainbow_connected,
    is_subset_strong_rainbow_connected,
)
from .errors import BudgetExceededError, ToolkitError
from .graph import (
    UNREACHABLE,
    Graph,
    all_pairs,
    geodesics,
    is_bipartite,
    make_pairs,
    new_graph,
    simple_paths_up_to,
)
from .io import instance_json_obj
from .reductions import (
    Gadget,
    ReducedInstance,
    StarInstance,
    SubsetInstance,
    build_gadget,
    combine_colorings,
    rc_reduction,
    src_extension,
    src_witness_coloring,
    star_reduction,
    witness_coloring,
)
from .search import subset_rc_leq, subset_src_leq, vertex_coloring_leq

MAX_EXHAUSTION = 1_000_000  # raw colorings one equivalence check may enumerate
MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class CounterRng:
    """Counter-based pseudo-random stream keyed by (seed, stream index).

    Pure integer mixing, so sequences are identical on every platform.
    """

    def __init__(self, seed: int, index: int = 0):
        self._state = _mix64(_mix64(seed * _GOLDEN) ^ ((index + 1) * _GOLDEN))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _mix64(self._state)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def chance(self, probability: float) -> bool:
        return self.next_u64() < probability * 2.0**64


@dataclass
class CheckReport:
    """Verdict of one check on one instance.

    A failed report always carries a counterexample that can be replayed
    against the violated predicate; a report passes iff it has none.
    """

    check_name: str
    instance: dict
    counterexample: dict | None = None
    graph: Graph | None = None  # the construction an equivalence check built; never serialized

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def json_line(self) -> str:
        payload = {
            "check": self.check_name,
            "instance": self.instance,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }
        return json.dumps(payload, sort_keys=True)


def _gadget_descriptor(g: Gadget, **more) -> dict:
    return {"n": g.base_count, "k": g.order, "pairs": g.pairs.as_lists(), **more}


def check_pair_distances(g: Gadget) -> CheckReport:
    """Every encoded base pair must sit at distance at least order + 1.

    The weaker threshold (distance at least order) is reported alongside,
    but the strict one is what the reduction argument needs and what this
    check enforces.
    """
    strict, loose = g.order + 1, g.order
    worst: int | float | None = None
    bad: dict | None = None
    for u, v in g.pairs:
        d = g.graph.distances(u)[v]
        if worst is None or d < worst:
            worst = d
        if d < strict and bad is None:
            path = geodesics(g.graph, u, v)[0].vertices if d != UNREACHABLE else None
            bad = {"pair": [u, v], "distance": d, "path": list(path) if path else None}
    desc = _gadget_descriptor(
        g,
        strict_threshold=strict,
        loose_threshold=loose,
        min_pair_distance=None if worst is None or worst == UNREACHABLE else worst,
    )
    return CheckReport("pair-distances", desc, bad)


def check_nonpair_distances(g: Gadget) -> CheckReport:
    """Every unconstrained base pair must sit at distance exactly order."""
    bad: dict | None = None
    n = g.base_count
    for i in range(n):
        dist = g.graph.distances(g.base_vertices[i])
        for j in range(i + 1, n):
            if (i, j) in g.pairs:
                continue
            d = dist[g.base_vertices[j]]
            if d != g.order:
                bad = {
                    "pair": [g.base_vertices[i], g.base_vertices[j]],
                    "distance": None if d == UNREACHABLE else d,
                    "expected": g.order,
                }
                break
        if bad:
            break
    desc = _gadget_descriptor(g)
    return CheckReport("nonpair-distances", desc, bad)


def check_witness(g: Gadget, coloring: EdgeColoring | None = None) -> CheckReport:
    """The witness coloring must rainbow-connect every pair outside the
    encoded set while using at most `order` colors.

    A coloring can be supplied explicitly to audit serialized or tampered
    colorings; by default the gadget's own witness is derived and checked.
    """
    desc = _gadget_descriptor(g)
    if coloring is None:
        coloring = witness_coloring(g)
    if coloring.color_count > g.order:
        bad: dict | None = {"reason": "color budget exceeded", "colors": coloring.color_count}
    else:
        pair = first_non_rainbow_pair(coloring, skip=g.pairs)
        bad = None if pair is None else {"pair": list(pair)}
    return CheckReport("witness", desc, bad)


def check_path_containment(r: ReducedInstance) -> CheckReport:
    """Paths of length <= k between encoded base pairs must stay on base edges."""
    bad: dict | None = None
    base_edges = r.source.graph.edges
    for u, v in r.gadget.pairs:
        for path in simple_paths_up_to(r.graph, u, v, r.source.k):
            if any(e not in base_edges for e in path.edges()):
                bad = {"pair": [u, v], "path": list(path.vertices)}
                break
        if bad:
            break
    return CheckReport("containment", instance_json_obj(r.source.graph, r.source.pairs, r.source.k), bad)


def check_vertex_coloring_equivalence(g: Graph, k: int) -> CheckReport:
    """Vertex k-colorability must agree with both star-instance solvers."""
    star = star_reduction(g, k)
    a = vertex_coloring_leq(g, k).feasible
    b = subset_rc_leq(star.graph, star.pairs, k).feasible
    c = subset_src_leq(star.graph, star.pairs, k).feasible
    bad = None if a == b == c else {"vertex_coloring": a, "subset_rc": b, "subset_src": c}
    return CheckReport("vc-equivalence", instance_json_obj(g, None, k), bad)


def _exhaustion_counterexample(graph: Graph, pairs, k: int, connects) -> dict | None:
    """Raw k^m exhaustion of graph's edge colorings, kept independent of the search: the
    first coloring (in itertools.product order) with connects(coloring, pairs), else None.
    Raises BudgetExceededError up front when there are more than MAX_EXHAUSTION colorings."""
    if k**graph.edge_count > MAX_EXHAUSTION:
        raise BudgetExceededError(
            f"raw exhaustion of {k}^{graph.edge_count} colorings exceeds the cap of {MAX_EXHAUSTION:,}"
        )
    for colors in itertools.product(range(k), repeat=graph.edge_count):
        if connects(EdgeColoring(graph, k, colors), pairs):
            return {"reason": "exhaustion found a feasible base coloring", "colors": list(colors)}
    return None


def check_src_equivalence(inst: StarInstance) -> CheckReport:
    """Feasible star instances must extend to a fully strong-rainbow-connected
    graph; infeasible ones must be certified impossible on the extension.

    Feasible side: the extension is bipartite and the extended witness
    passes the strong predicate with the same k. Infeasible side: every
    required pair's two-edge path through the center is its unique
    geodesic in the extension (confirmed by enumeration), and all k^n raw
    colorings of the star edges fail, so no coloring of the extension can
    work either. Budgets below three colors are flagged: the witness
    construction needs color index 2, so only the infeasible side is
    certified there.
    """
    base = subset_src_leq(inst.graph, inst.pairs, inst.k)
    ext = src_extension(inst)
    desc = {
        "n": inst.leaf_count,
        "k": inst.k,
        "pairs": inst.pairs.as_lists(),
        "feasible": base.feasible,
        "too_few_colors": inst.k < 3,
    }
    bad: dict | None = None
    if not is_bipartite(ext.graph)[0]:
        bad = {"reason": "extension not bipartite"}
    elif base.feasible:
        if inst.k >= 3:  # below that nothing further is checkable: the explicit extension needs 3 colors
            assert isinstance(base.witness, EdgeColoring)
            pair = first_non_geodesic_rainbow_pair(src_witness_coloring(ext, base.witness))
            bad = None if pair is None else {"pair": list(pair)}
    else:
        for u, v in inst.pairs:
            if [p.vertices for p in geodesics(ext.graph, u, v)] != [(u, inst.center, v)]:
                bad = {"reason": "pair geodesic not unique", "pair": [u, v]}
                break
        else:
            bad = _exhaustion_counterexample(inst.graph, inst.pairs, inst.k, is_subset_strong_rainbow_connected)
    return CheckReport("src-equivalence", desc, bad, ext.graph)


def check_rc_equivalence(
    inst: SubsetInstance,
    full_bruteforce: bool = False,
    bruteforce_budget: int | None = 1_000_000,
) -> CheckReport:
    """The reduced instance must be k-rainbow-colorable iff the source is.

    Feasible side: the combined witness (solver witness on base edges,
    gadget witness elsewhere) rainbow-connects the whole reduced graph.
    Infeasible side: path containment holds and every raw k-coloring of
    the base edges fails, so a k-rainbow coloring of the reduced graph
    would restrict to a feasible base coloring, which does not exist.
    With full_bruteforce, additionally decide the reduced graph by the exact
    search and require agreement (micro instances only; raises
    BudgetExceededError beyond bruteforce_budget path-table entries and nodes).
    """
    r = rc_reduction(inst)
    base = subset_rc_leq(inst.graph, inst.pairs, inst.k)
    desc = instance_json_obj(inst.graph, inst.pairs, inst.k)
    desc.update(feasible=base.feasible, full_bruteforce=full_bruteforce)
    bad: dict | None = None
    if base.feasible:
        assert isinstance(base.witness, EdgeColoring)
        combined = combine_colorings(r, base.witness, witness_coloring(r.gadget))
        pair = first_non_rainbow_pair(combined)
        if pair is not None:
            bad = {"reason": "combined witness misses a pair", "pair": list(pair)}
    else:
        containment = check_path_containment(r)
        if not containment.passed:
            bad = {"reason": "containment failed", "detail": containment.counterexample}
        else:
            bad = _exhaustion_counterexample(inst.graph, inst.pairs, inst.k, is_subset_rainbow_connected)
    if bad is None and full_bruteforce:
        direct = subset_rc_leq(r.graph, all_pairs(r.graph.vertex_count), inst.k, budget=bruteforce_budget)
        if direct.feasible != base.feasible:
            bad = {
                "reason": "direct decision disagrees",
                "direct": direct.feasible,
                "subset": base.feasible,
            }
    return CheckReport("rc-equivalence", desc, bad, r.graph)


FUZZ_K_SET = (2, 3, 4, 5)
FUZZ_EDGE_PROB = 0.5
FUZZ_PAIR_PROB = 0.4


@dataclass(frozen=True)
class FuzzConfig:
    """Bounds for the random-instance stream."""

    n_min: int = 2
    n_max: int = 5
    seeds: int = 200


def random_instance(config: FuzzConfig, seed: int, index: int) -> SubsetInstance:
    """Deterministic instance for a (seed, index) key: graph, pairs and k."""
    rng = CounterRng(seed, index)
    n = config.n_min + rng.below(config.n_max - config.n_min + 1)
    k = FUZZ_K_SET[rng.below(len(FUZZ_K_SET))]
    pairs = []
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.chance(FUZZ_PAIR_PROB):
                pairs.append((i, j))
            if rng.chance(FUZZ_EDGE_PROB):
                edges.append((i, j))
    return SubsetInstance(new_graph(n, edges), make_pairs(pairs, n), k)


def _gadget_checks(g: Gadget, memo: dict) -> list[CheckReport]:
    """The three gadget checks, run once per (n, pairs, order) in memo: build_gadget is a
    pure function of that key, so a repeated key reuses the verdicts."""
    key = (g.base_count, g.pairs, g.order)
    if key not in memo:
        memo[key] = [check_pair_distances(g), check_nonpair_distances(g), check_witness(g)]
    return memo[key]


def _fuzz(config: FuzzConfig, seed: int, memo: dict) -> list[CheckReport]:
    reports: list[CheckReport] = []
    for index in range(config.seeds):
        r = rc_reduction(random_instance(config, seed, index))
        for report in _gadget_checks(r.gadget, memo) + [check_path_containment(r)]:
            reports.append(replace(report, instance={**report.instance, "seed": seed, "index": index}))
    return reports


def fuzz(config: FuzzConfig, seed: int = 0) -> list[CheckReport]:
    """Run the structural checks over a reproducible random-instance stream."""
    return _fuzz(config, seed, {})


def _edge_subsets(n: int) -> Iterator[list[tuple[int, int]]]:
    """Every subset of the vertex pairs of n vertices, by bitmask over the pairs in order."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(slots)):
        yield [slots[t] for t in range(len(slots)) if mask >> t & 1]


def run_battery(n_max: int = 4, seeds: int = 200, seed: int = 0) -> list[CheckReport]:
    """The full deterministic check battery: equivalence sweeps, structural
    sweeps, the showcase chains, then the seeded fuzz stream. Each distinct
    gadget is checked once per battery; repeats reuse its verdicts."""
    if not 0 <= n_max <= 6:  # 2^15 = 32,768 graphs on 6 vertices; 7 would be 2^21
        raise ToolkitError(f"n_max must be in 0..6, got {n_max}")
    reports: list[CheckReport] = []
    memo: dict = {}
    for edges in _edge_subsets(n_max):
        g = new_graph(n_max, edges)
        for k in (2, 3):
            reports.append(check_vertex_coloring_equivalence(g, k))
    for n in range(2, min(n_max, 3) + 1):
        for subset in _edge_subsets(n):
            for k in (2, 3, 4, 5):
                reports.extend(_gadget_checks(build_gadget(n, make_pairs(subset, n), k), memo))
    single_edge = new_graph(2, [(0, 1)])
    micro = SubsetInstance(single_edge, make_pairs([(0, 1)]), 2)
    reports.append(check_rc_equivalence(micro, full_bruteforce=True))
    k3 = new_graph(3, [(0, 1), (0, 2), (1, 2)])
    k4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    c5 = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    for source in (single_edge, k3, c5, k4):
        star = star_reduction(source, 3)
        reports.append(check_src_equivalence(star))
        chain = SubsetInstance(star.graph, star.pairs, 3)
        reports.append(check_rc_equivalence(chain))
    reports.extend(_fuzz(FuzzConfig(seeds=seeds), seed, memo))
    return reports


def summary_table(reports: list[CheckReport]) -> str:
    """Human-readable per-check pass/fail tally."""
    tally: dict[str, list[int]] = {}
    for r in reports:
        row = tally.setdefault(r.check_name, [0, 0])
        row[0 if r.passed else 1] += 1
    width = max((len(name) for name in tally), default=5)
    lines = [f"{'check'.ljust(width)}  pass  fail"]
    for name in sorted(tally):
        ok, bad = tally[name]
        lines.append(f"{name.ljust(width)}  {ok:4d}  {bad:4d}")
    total_ok = sum(v[0] for v in tally.values())
    total_bad = sum(v[1] for v in tally.values())
    lines.append(f"{'total'.ljust(width)}  {total_ok:4d}  {total_bad:4d}")
    return "\n".join(lines)
