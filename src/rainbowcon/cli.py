"""Command-line front end: solve | reduce | verify | demo.

Exit status: 0 = feasible / computed / all checks pass, 1 = infeasible or a
failed check, 2 = error (bad input, disconnected graph, exceeded budget).
All randomness flows from verify's --seed; omitting it means seed 0, never entropy.
Output goes to stdout unless --output is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from pathlib import Path

from . import io as gio
from .errors import DisconnectedPairError, ToolkitError
from .graph import UNREACHABLE, Graph, PairSet, all_pairs, is_bipartite, make_pairs, new_graph
from .reductions import (
    StarInstance,
    SubsetInstance,
    build_gadget,
    rc_reduction,
    src_extension,
    star_reduction,
)
from .search import check_depth, rc_exact, src_exact, subset_rc_leq, subset_src_leq, vertex_coloring_leq
from .verify import (
    check_nonpair_distances,
    check_pair_distances,
    check_path_containment,
    check_rc_equivalence,
    check_src_equivalence,
    check_vertex_coloring_equivalence,
    check_witness,
    run_battery,
    summary_table,
)

PROBLEMS = ("rc", "src", "subset-rc", "subset-src", "chromatic")
REDUCTIONS = ("star", "src-ext", "rc-gadget")
CHECKS = (
    "all",
    "pair-distances",
    "nonpair-distances",
    "witness",
    "containment",
    "vc-equivalence",
    "src-equivalence",
    "rc-equivalence",
)


def _read_input(args: argparse.Namespace) -> str:
    if args.input is not None:
        return Path(args.input).read_text(encoding="utf-8")
    return sys.stdin.read()


def _write_output(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_instance(args: argparse.Namespace, text: object = None) -> tuple[Graph, PairSet | None, int | None]:
    """Parse the instance (text or parsed JSON, else the input file or stdin); --k overrides its k."""
    graph, pairs, k = gio.parse_instance(_read_input(args) if text is None else text, args.format)
    if args.k is not None:
        if args.k < 1:
            raise ToolkitError("--k must be a positive integer")
        k = args.k
    return graph, pairs, k


def _star_from_graph(graph: Graph, pairs: PairSet | None, k: int) -> StarInstance:
    """Interpret a star-shaped graph (leaves 0..n-2, center n-1) as an instance."""
    return StarInstance(graph, graph.vertex_count - 1, pairs if pairs is not None else make_pairs([]), k)


def cmd_solve(args: argparse.Namespace) -> int:
    graph, pairs, k = _load_instance(args)
    problem = args.problem
    if k is None:
        if problem not in ("rc", "src"):
            raise ToolkitError(f"--k is required for problem {problem!r}")
        if graph.vertex_count < 2:
            raise ToolkitError(f"{problem} needs at least two vertices")
        opt = (rc_exact if problem == "rc" else src_exact)(graph, budget=args.budget)
        _write_output(args, f"{problem} = {opt.value}\n" + gio.dump_coloring(opt.witness))
        return 0
    if problem == "chromatic":
        result = vertex_coloring_leq(graph, k)
        witness = "colors: " + " ".join(map(str, result.witness)) + "\n" if result.feasible else ""
    else:
        if problem in ("rc", "src"):
            check_depth(graph.edge_count, "edges")  # before building all pairs
            if graph.vertex_count and UNREACHABLE in (row := graph.distances(0)):  # one BFS row, not n^2 pairs
                raise DisconnectedPairError(f"pair (0, {row.index(UNREACHABLE)}) is disconnected")
            pairs = all_pairs(graph.vertex_count)
        elif pairs is None:
            raise ToolkitError("subset problems need a 'pairs' list in the instance JSON")
        solver = subset_rc_leq if problem in ("rc", "subset-rc") else subset_src_leq
        result = solver(graph, pairs, k, budget=args.budget)
        witness = gio.dump_coloring(result.witness) if result.feasible else ""
    verdict = "feasible" if result.feasible else "infeasible"
    _write_output(args, f"{problem} <= {k}: {verdict}\n" + witness)
    return 0 if result.feasible else 1


def cmd_reduce(args: argparse.Namespace) -> int:
    graph, pairs, k = _load_instance(args)
    if k is None:
        raise ToolkitError("--k (or a 'k' field in the instance) is required")
    dot_graph = None
    dot_highlights: tuple[int, ...] = ()
    if args.reduction == "star":
        star = star_reduction(graph, k)
        payload = gio.instance_json_obj(star.graph, star.pairs, star.k)
        payload["center"] = star.center
        summary = (
            f"star instance: {star.graph.vertex_count} vertices, "
            f"{star.graph.edge_count} edges, {len(star.pairs)} pairs"
        )
        dot_graph, dot_highlights = star.graph, (star.center,)
    elif args.reduction == "src-ext":
        star = _star_from_graph(graph, pairs, k)
        ext = src_extension(star)
        payload = gio.instance_json_obj(ext.graph, None, k)
        payload["sides"] = [list(side) for side in ext.sides()]
        payload["matching"] = ext.matching
        payload["layers"] = {str(v): tag for v, tag in sorted(ext.layers().items())}
        summary = (
            f"extension: {ext.graph.vertex_count} vertices, {ext.graph.edge_count} edges, "
            f"layer sizes {len(ext.layer_one)}+{len(ext.twin_layer)}, "
            f"bipartite: {is_bipartite(ext.graph)[0]}"
        )
        dot_graph, dot_highlights = ext.graph, tuple(star.leaves) + (star.center,)
    else:
        if pairs is None:
            raise ToolkitError("rc-gadget needs a 'pairs' list in the instance JSON")
        reduced = rc_reduction(SubsetInstance(graph, pairs, k))
        payload = gio.reduced_instance_json_obj(reduced)
        tag_counts = Counter(payload["layers"].values())
        layers_text = ", ".join(f"{tag}: {tag_counts[tag]}" for tag in sorted(tag_counts))
        summary = (
            f"reduced instance: {reduced.graph.vertex_count} vertices, "
            f"{reduced.graph.edge_count} edges ({layers_text})"
        )
        dot_graph, dot_highlights = reduced.graph, reduced.gadget.base_vertices
    _write_output(args, gio.emit_json(payload) + "\n" + summary + "\n")
    if args.dot and dot_graph is not None:
        Path(args.dot).write_text(gio.to_dot(dot_graph, dot_highlights), encoding="utf-8")
    return 0


def _gadget_for_check(args: argparse.Namespace):
    """A gadget record (JSON with a top-level 'order', trusted as-is) or a source instance to build from."""
    source: str | object = _read_input(args)
    if args.format == "json" or (args.format == "auto" and source.lstrip().startswith("{")):
        source = gio.load_json(source)
        if isinstance(source, dict) and "order" in source:
            return gio.gadget_from_json_obj(source)
    graph, pairs, k = _load_instance(args, source)
    if k is None:
        raise ToolkitError("--k (or a 'k' field) is required to build the gadget")
    return build_gadget(graph.vertex_count, pairs or make_pairs([]), k)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.check == "all":
        reports = run_battery(n_max=args.n_max, seeds=args.seeds, seed=args.seed)
    else:
        if args.check in ("pair-distances", "nonpair-distances", "witness"):
            gadget = _gadget_for_check(args)
            runner = {
                "pair-distances": check_pair_distances,
                "nonpair-distances": check_nonpair_distances,
                "witness": check_witness,
            }[args.check]
            reports = [runner(gadget)]
        else:
            graph, pairs, k = _load_instance(args)
            if k is None:
                raise ToolkitError("--k (or a 'k' field) is required for this check")
            if args.check == "vc-equivalence":
                reports = [check_vertex_coloring_equivalence(graph, k)]
            elif args.check == "src-equivalence":
                star = _star_from_graph(graph, pairs, k)
                reports = [check_src_equivalence(star)]
            elif args.check == "rc-equivalence":
                if pairs is None:
                    raise ToolkitError("rc-equivalence needs a 'pairs' list")
                reports = [check_rc_equivalence(SubsetInstance(graph, pairs, k))]
            else:  # containment
                if pairs is None:
                    raise ToolkitError("containment needs a 'pairs' list")
                reports = [check_path_containment(rc_reduction(SubsetInstance(graph, pairs, k)))]
    lines = "\n".join(r.json_line() for r in reports)
    text = (lines + "\n" if lines else "") + summary_table(reports) + "\n"
    _write_output(args, text)
    return 0 if all(r.passed for r in reports) else 1


def cmd_demo(args: argparse.Namespace) -> int:
    if args.showcase == "micro":
        single = new_graph(2, [(0, 1)])
        inst = SubsetInstance(single, make_pairs([(0, 1)]), 2)
        print("source: the single edge, one required pair, k = 2")
        report = check_rc_equivalence(inst, full_bruteforce=True)
        print(f"reduced graph: {report.graph.vertex_count} vertices, {report.graph.edge_count} edges (a 4-cycle)")
        print(f"full brute force agrees with the subset solver: {report.passed}")
        print("rc(G') = 2")
        return 0 if report.passed else 1
    if args.showcase == "k3":
        source = new_graph(3, [(0, 1), (0, 2), (1, 2)])
        label = "triangle"
    else:
        source = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        label = "4-clique"
    k = 3
    print(f"source: the {label}, k = {k}")
    vc = vertex_coloring_leq(source, k)
    print(f"step 1 vertex coloring with {k} colors: {'feasible' if vc.feasible else 'infeasible'}")
    star = star_reduction(source, k)
    print(
        f"step 2 star instance: {star.graph.vertex_count} vertices, {len(star.pairs)} required pairs"
    )
    # each report carries its star solver's verdict and the construction it checked
    ext_report = check_src_equivalence(star)
    rc_report = check_rc_equivalence(SubsetInstance(star.graph, star.pairs, k))
    feasible = rc_report.instance["feasible"]
    print(f"step 3 star solvers agree with step 1: {vc.feasible == feasible == ext_report.instance['feasible']}")
    print(
        f"step 4 bipartite extension ({ext_report.graph.vertex_count} vertices): "
        f"checked {'pass' if ext_report.passed else 'fail'}"
    )
    print(f"step 5 gadget instance: {rc_report.graph.vertex_count} vertices, {rc_report.graph.edge_count} edges")
    if not rc_report.passed:  # the combined witness, or containment + base exhaustion
        print(f"rc(G') check failed: {json.dumps(rc_report.counterexample, sort_keys=True)}")
        return 1
    if feasible:
        print(f"rc(G') <= {k} certified by witness")
    else:
        print(f"rc(G') > {k} certified (containment + base exhaustion)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="rainbowcon",
        description="Exact rainbow-connectivity solvers, reductions and verifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="input file (defaults to stdin)")
        p.add_argument(
            "--format", choices=("auto", "edge-list", "json"), default="auto", help="input format"
        )
        p.add_argument("--k", type=int, help="color budget")
        p.add_argument("--output", help="write results here instead of stdout")

    solve = sub.add_parser("solve", help="run an exact solver")
    add_io(solve)
    solve.add_argument("--problem", choices=PROBLEMS, required=True)
    solve.add_argument("--budget", type=int, help="cap on path-table entries plus search nodes per decision")

    reduce_p = sub.add_parser("reduce", help="construct a reduction instance")
    add_io(reduce_p)
    reduce_p.add_argument("--reduction", choices=REDUCTIONS, required=True)
    reduce_p.add_argument("--dot", help="also write a DOT rendering here")

    verify = sub.add_parser("verify", help="machine-check construction guarantees")
    add_io(verify)
    verify.add_argument("--check", choices=CHECKS, default="all")
    verify.add_argument("--seed", type=int, default=0, help="base seed for --check all (default 0)")
    verify.add_argument("--n-max", type=int, default=4, help="sweep size for --check all")
    verify.add_argument("--seeds", type=int, default=200, help="fuzz instances for --check all")

    demo = sub.add_parser("demo", help="run a built-in showcase pipeline")
    demo.add_argument("showcase", choices=("k3", "k4", "micro"))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the parser is built on the first call, so once per process.

    The command's cmd_<name> is looked up at call time, so rebinding it in this
    module (a test double, a tracer) takes effect on the next call.
    """
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
