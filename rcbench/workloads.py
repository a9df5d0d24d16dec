"""Seeded input generation for the three workloads.

A workload's set-up writes every input file for a run into one directory
and returns a pool: the ops of a number of rounds, in one shuffled order.
Every round has the same composition (the seed draws the instances and the
op order, never the mix), so medians and throughput compare across seeds.
A run executes its pool once, in order, and the number of rounds depends
only on --seconds (rounds_for), so every count and every rank statistic is
fixed by the seed and --seconds.

Every workload runs all three commands, because every workload reports
every end-to-end metric. Each keeps a main command that loads its layers;
the other commands ride along as light companion ops on inputs of one
pinned size.
"""

from __future__ import annotations

import functools
import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# every solve op passes this; above the largest count one decision of the
# solve pool tries (16,384: Petersen rc at k = 2), so a blow-up exits 2
BUDGET = 20_000


@dataclass(frozen=True)
class Op:
    command: str  # solve | verify | reduce
    argv: tuple[str, ...]
    check: Callable  # (package, exit code, stdout) -> failure reason or None


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def star(leaves: int) -> list[tuple[int, int]]:
    return [(i, leaves) for i in range(leaves)]


def wheel(rim: int) -> list[tuple[int, int]]:
    return cycle(rim) + star(rim)


PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [
    (i, i + 5) for i in range(5)
]
Q3 = [(a, a ^ (1 << b)) for a in range(8) for b in range(3) if a < a ^ (1 << b)]


def tree_diameter(n: int, edges) -> int:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def farthest(s: int) -> tuple[int, int]:
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        far = max(range(n), key=dist.__getitem__)
        return far, dist[far]

    return farthest(farthest(0)[0])[1]


def random_tree(rng: random.Random, n: int, diameter: int | None = None) -> list[tuple[int, int]]:
    """Uniform labelled tree on n vertices (Pruefer code), optionally
    redrawn until its diameter matches."""
    while True:
        code = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for x in code:
            degree[x] += 1
        edges = []
        for x in code:
            leaf = min(v for v in range(n) if degree[v] == 1)
            edges.append((min(leaf, x), max(leaf, x)))
            degree[leaf] -= 1
            degree[x] -= 1
        u, v = (w for w in range(n) if degree[w] == 1)
        edges.append((u, v))
        edges.sort()
        if diameter is None or tree_diameter(n, edges) == diameter:
            return edges


def _instance(path: Path, n: int, edges, pairs=None, k: int | None = None) -> str:
    obj: dict = {"n": n, "edges": [list(e) for e in edges]}
    if pairs is not None:
        obj["pairs"] = [list(p) for p in pairs]
    if k is not None:
        obj["k"] = k
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _tree_rc_op(path: str, edges) -> Op:
    """`solve --problem rc` on a tree, whose rc is its edge count."""
    m = len(edges)
    return Op(
        "solve",
        ("solve", "--problem", "rc", "--input", path, "--budget", str(BUDGET)),
        functools.partial(checks.solve_exact, n=m + 1, edges=edges, problem="rc", expected=m),
    )


def _gadget_reduce_op(path: str, n: int, edges, pairs, k: int) -> Op:
    return Op(
        "reduce",
        ("reduce", "--reduction", "rc-gadget", "--input", path),
        functools.partial(checks.gadget_reduce, n=n, edges=edges, pairs=pairs, k=k),
    )


def _star_instance(path: Path, tree) -> tuple[str, Op]:
    """The vertex-coloring star of a 7-edge tree at k = 3, and its rc-gadget
    reduction: the paper's chain from vertex coloring to rc."""
    inst = _instance(path, 9, star(8), tree, 3)
    return inst, _gadget_reduce_op(inst, 9, star(8), tree, 3)


# Each op runs several times at shuffled places in the pool, and the run
# takes the best of its runs as its latency. On a shared host single runs
# vary by up to 1.7x in bursts, while the best of several runs spread over
# the run stays much closer to the op's floor; in a slow phase of the host
# the best of 20 runs lands nearer it than the best of 8. So the cheaper an
# op, the more it runs: every reduce op and every solve companion (5-30 ms)
# TINY_REPEATS times, the verify companions of solve-exact (50-75 ms)
# SHORT_REPEATS times, and the 0.05-0.55 s solve ops and witness checks
# MID_REPEATS times. Ops of a second or more run once.
TINY_REPEATS = 20
SHORT_REPEATS = 8
MID_REPEATS = 4

# The solve and reduce companions of verify-battery and gadget-witness cost
# nearly the same for every tree, so a run has few of them.
COMPANIONS = 4

# Companion ops are pinned in size, so their cost does not move with the
# seed. Solve companions are rc on 6-edge trees of diameter 5 (405
# colorings, rc = 6); reduce companions are the rc-gadget of a 7-edge
# tree's star; the verify companion is src-equivalence of that star.

# ---------------------------------------------------------------- solve-exact

# (label, family, size, n, edges, problems): the long ops, run once. One
# problem each (both kernels are represented), so the round fits in a run.
def _long_solves(rng: random.Random) -> list:
    return [
        ("C9", "cycle", 9, 9, cycle(9), ("rc",)),
        ("K1_8", "star", 8, 9, star(8), ("src",)),
        ("Petersen", "petersen", 10, 10, PETERSEN, ("rc",)),  # src: ~2.4M colorings, see NOTES.md
        ("W7", "wheel7", 7, 8, wheel(7), ("src",)),
        ("T8", "tree", 8, 9, random_tree(rng, 9, 7), ("rc",)),
    ]


SOLVE_T7 = 4


def _short_solves(rng: random.Random) -> list:
    """The 0.05-0.4 s solve ops, both problems each, run MID_REPEATS times.

    The random trees have pinned diameters. A tree's colourings tried depend
    only on its edge count and diameter, and at these diameters its run time
    varies little with the shape, so every seed draws other trees at the
    same cost.
    """
    graphs = [("C7", "cycle", 7, 7, cycle(7)), ("C8", "cycle", 8, 8, cycle(8))]
    graphs += [("K1_7", "star", 7, 8, star(7)), ("Q3", "q3", 3, 8, Q3)]
    graphs += [(f"T7-{i}", "tree", 7, 8, random_tree(rng, 8, 5)) for i in range(SOLVE_T7)]
    return [g + (("rc", "src"),) for g in graphs]


SOLVE_STARS = 8


def solve_exact(seed: int, workdir: Path, pkg, rounds: int) -> list[Op]:
    """solve rc|src against closed forms; companions on the vertex-coloring
    stars of SOLVE_STARS 7-edge trees, at k = 3: `reduce rc-gadget` and
    `verify src-equivalence`.

    A round's 21 distinct solve ops fall into three bands: five long ops of
    1-4 s, run once; twelve of 0.2-0.4 s (K1,7, C8 and the four 7-edge
    trees, rc and src) and four fast ones (C7, Q3), run MID_REPEATS times.
    The median solve op (the 11th slowest) and the tail op (the 11th
    slowest of all 37 distinct ops) both fall in the middle band.
    """
    rng = _rng("solve-exact", seed, "inputs")
    pool = []
    for r in range(rounds):
        long_ops, short_ops = _long_solves(rng), _short_solves(rng)
        for graphs, repeats in ((long_ops, 1), (short_ops, MID_REPEATS)):
            for label, family, size, n, edges, problems in graphs:
                path = _instance(workdir / f"r{r}-{label}.json", n, edges)
                for problem in problems:
                    expected = checks.closed_form(family, size, problem)
                    pool += [Op(
                        "solve",
                        ("solve", "--problem", problem, "--input", path, "--budget", str(BUDGET)),
                        functools.partial(checks.solve_exact, n=n, edges=edges, problem=problem,
                                          expected=expected),
                    )] * repeats
        # a star's src-equivalence cost moves by about 15% with its tree, so
        # the verify median rests on more stars than there are solved trees
        for i in range(SOLVE_STARS):
            tree = random_tree(rng, 8, 5)
            star_path, reduce_op = _star_instance(workdir / f"r{r}-star{i}.json", tree)
            pool += [reduce_op] * TINY_REPEATS
            pool += [Op(
                "verify",
                ("verify", "--check", "src-equivalence", "--input", star_path),
                functools.partial(checks.single_report, check="src-equivalence"),
            )] * SHORT_REPEATS
    _rng("solve-exact", seed, "order").shuffle(pool)
    return pool


# ------------------------------------------------------------- verify-battery

BATTERY_OPS = 2


def verify_battery(seed: int, workdir: Path, pkg, rounds: int) -> list[Op]:
    """The default verify battery, one drawn --seed per op; companions:
    `solve rc` on 6-edge trees and `reduce rc-gadget` of 7-edge trees' stars."""
    rng = _rng("verify-battery", seed, "inputs")
    pool = []
    for r in range(rounds):
        for _ in range(BATTERY_OPS):
            pool.append(Op("verify", ("verify", "--seed", str(rng.randrange(2**31))), checks.battery))
    for i in range(COMPANIONS):
        tree = random_tree(rng, 7, 5)
        pool += [
            _tree_rc_op(_instance(workdir / f"tree{i}.json", 7, tree), tree),
            _star_instance(workdir / f"star{i}.json", random_tree(rng, 8, 5))[1],
        ] * TINY_REPEATS
    _rng("verify-battery", seed, "order").shuffle(pool)
    return pool


# ------------------------------------------------------------- gadget-witness

# (n, order, encoded pairs, runs): the gadget's size depends only on the
# first three, so each class costs the same for every seed; together the
# witness checks span about 0.2-1.5 s with at most ~110 vertices and ~1.7k
# edges. The witness checks of the 0.2-0.55 s classes, where the median and
# the tail rank fall, run MID_REPEATS times; those of about a second once.
GADGET_CLASSES = (
    (9, 4, 9, MID_REPEATS),
    (10, 4, 11, MID_REPEATS),
    (11, 4, 13, 1),
    (6, 5, 3, MID_REPEATS),
    (7, 5, 5, 1),
)


def gadget_witness(seed: int, workdir: Path, pkg, rounds: int) -> list[Op]:
    """rc-gadget reduce (write path), witness check built from the instance,
    witness check on gadget JSON serialized here by io.dump_gadget (parse
    path); companion: `solve rc` on 6-edge trees."""
    rng = _rng("gadget-witness", seed, "inputs")
    witness_ok = functools.partial(checks.single_report, check="witness")
    pool = []
    for r in range(rounds):
        for n, order, npairs, runs in GADGET_CLASSES:
            slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
            pairs = sorted(rng.sample(slots, npairs))
            edges = random_tree(rng, n)
            stem = f"r{r}-n{n}-k{order}"
            inst = _instance(workdir / f"{stem}-instance.json", n, edges, pairs, order)
            gadget = pkg.reductions.build_gadget(n, pkg.graph.make_pairs(pairs, n), order)
            gadget_path = workdir / f"{stem}-gadget.json"
            gadget_path.write_text(pkg.io.dump_gadget(gadget), encoding="utf-8")
            pool += [
                Op("verify", ("verify", "--check", "witness", "--input", inst), witness_ok),
                Op("verify", ("verify", "--check", "witness", "--input", str(gadget_path)), witness_ok),
            ] * runs
            pool += [_gadget_reduce_op(inst, n, edges, pairs, order)] * TINY_REPEATS
    for i in range(COMPANIONS):
        tree = random_tree(rng, 7, 5)
        pool += [_tree_rc_op(_instance(workdir / f"tree{i}.json", 7, tree), tree)] * TINY_REPEATS
    _rng("gadget-witness", seed, "order").shuffle(pool)
    return pool


WORKLOADS = {
    "solve-exact": solve_exact,
    "verify-battery": verify_battery,
    "gadget-witness": gadget_witness,
}

# nominal seconds of one round, measured once on the reference host (see
# NOTES.md); it only sizes the run and is never re-measured at run time
ROUND_SECONDS = {
    "solve-exact": 30.0,
    "verify-battery": 3.0,
    "gadget-witness": 13.0,
}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a run of about `seconds`: a fixed count, at least one."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))
