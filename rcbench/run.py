"""rainbowcon benchmark: drives `rainbowcon.cli.main(argv)` in-process.

    python3 rcbench/run.py --workload solve-exact --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. One
closed-loop client issues one op at a time (no threads). Set-up imports
the package and writes the workload's seeded inputs under .rcbench_work/;
it is repeated and its median reported as setup_s. The run then executes a
fixed number of rounds of ops: --seconds over the workload's nominal round
length, rounded, at least one (workloads.rounds_for). So the op count
depends on --seconds alone, never on how fast the host or the program is,
and order statistics such as op_tail_ms always rank the same ops. Most ops
run several times at shuffled places; an op's latency is its best run.
Each op's output is checked right after the op, outside its timed span.

--trace 0 reports the end-to-end metrics. --trace 1 runs each distinct op
of the pool once untraced and once with every public rainbowcon function
wrapped in spans, requires byte-identical stdout from both, and reports
the per-layer metrics. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import tracing
import workloads

SETUP_REPEATS = 11
WORK_DIR = Path(".rcbench_work")


def declared_metrics(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for the run's mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_package(root: Path):
    """Fresh import of rainbowcon from root/src (drops any loaded copy)."""
    for name in [m for m in sys.modules if m == "rainbowcon" or m.startswith("rainbowcon.")]:
        del sys.modules[name]
    pkg = importlib.import_module("rainbowcon")
    importlib.import_module("rainbowcon.cli")
    if Path(pkg.__file__).resolve().parent != (root / "src" / "rainbowcon").resolve():
        raise ImportError(f"rainbowcon resolved to {pkg.__file__}, not to {root / 'src'}")
    return pkg


def set_up(workload: str, seed: int, rounds: int, root: Path, run_dir: Path):
    """Import and generate inputs SETUP_REPEATS times; keep the last copy."""
    times = []
    for i in range(SETUP_REPEATS):
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        pkg = import_package(root)
        pool = workloads.WORKLOADS[workload](seed, run_dir, pkg, rounds)
        times.append(time.perf_counter() - t0)
    return pkg, pool, times


def run_op(argv) -> tuple[int | str, str, float]:
    """One CLI invocation; returns (exit code or exception name, stdout, seconds).

    The heap is collected first, untimed, so that each op starts as clean
    as a fresh CLI process and does not pay for its predecessors' garbage;
    the survivors are then frozen, so the next collection scans only what
    this op leaves behind.
    """
    cli = sys.modules["rainbowcon.cli"]
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback breaks the CLI's exit contract: record it as a failure
        code = type(exc).__name__
    return code, out.getvalue(), time.perf_counter() - t0


@dataclass(frozen=True)
class OpResult:
    op: workloads.Op
    seconds: float
    problem: str | None  # the oracle's reason for failing the op, or None
    digest: bytes  # SHA-256 of stdout, for the determinism guard


def run_pool(pkg, pool, tracer: tracing.Tracer | None = None) -> list[OpResult]:
    """Run every op of the pool once, in order.

    Untraced, each op's output goes through its oracle right after the op,
    outside its timed span, and only the verdict and a digest are kept.
    Traced, the oracle is skipped (it calls rainbowcon functions, which
    would add spans); the digest is compared with the untraced pass.
    """
    results = []
    for op in pool:
        if tracer is None:
            code, out, dt = run_op(op.argv)
            problem = check_output(pkg, op, code, out)
        else:
            with tracer.span("bench.op"):
                code, out, dt = run_op(op.argv)
            tracer.add("io.bytes_out", len(out.encode("utf-8")))
            problem = None
        results.append(OpResult(op, dt, problem, hashlib.sha256(out.encode("utf-8")).digest()))
    return results


def warm_up(pool) -> None:
    """Run one repeated (so short) op of each command once, untimed."""
    counts = collections.Counter(pool)
    seen = set()
    for op in pool:
        if counts[op] > 1 and op.command not in seen:
            seen.add(op.command)
            run_op(op.argv)


def check_output(pkg, op, code, out: str) -> str | None:
    try:
        return op.check(pkg, code, out)
    except Exception as exc:  # output the oracle cannot even read fails the op
        return f"unreadable output ({type(exc).__name__}: {exc})"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= 10 ops above it."""
    ordered = sorted(latencies)
    idx = max(len(ordered) - 11, 0)
    return 100.0 * (idx + 1) / len(ordered), ordered[idx]


def end_to_end(results: list[OpResult], setup_times: list[float]) -> tuple[dict, list[str]]:
    best: dict[workloads.Op, float] = {}  # an op that runs more than once counts its best run
    for r in results:
        best[r.op] = min(best.get(r.op, r.seconds), r.seconds)
    lat = {"solve": [], "verify": [], "reduce": []}
    for op, seconds in best.items():
        lat[op.command].append(seconds)
    pct, tail_s = tail(list(best.values()))
    busy = sum(r.seconds for r in results)  # time inside ops, without the harness between them
    metrics = {
        "setup_s": statistics.median(setup_times),
        # one pass over the distinct ops, each at its best run
        "ops_per_s": len(best) / sum(best.values()),
        "solve_p50_ms": 1e3 * statistics.median(lat["solve"]),
        "verify_p50_ms": 1e3 * statistics.median(lat["verify"]),
        "reduce_p50_ms": 1e3 * statistics.median(lat["reduce"]),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"ops: {len(results)} runs of {len(best)} distinct ops in {busy:.3f} s inside ops: "
        + ", ".join(f"{cmd} {len(v)}" for cmd, v in lat.items()),
        f"op_tail_ms is the p{pct:.1f} latency over {len(best)} distinct ops",
    ]
    return metrics, notes


def traced_run(pkg, pool, workload: str, seed: int) -> tuple[list[OpResult], dict, list[str]]:
    """Each distinct op once untraced, then once traced; stdout must match byte for byte."""
    pool = list(dict.fromkeys(pool))
    results = run_pool(pkg, pool)
    gc.collect()
    tracer = tracing.Tracer()
    tracer.install(pkg)
    try:
        traced = run_pool(pkg, pool, tracer)
    finally:
        tracer.uninstall()
    trace_file = WORK_DIR / f"trace-{workload}-s{seed}.json"
    trace_file.write_text(json.dumps({
        name: vars(st) for name, st in sorted(tracer.stats.items())
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for i, (plain, with_spans) in enumerate(zip(results, traced)):
        if plain.digest != with_spans.digest and plain.problem is None:
            results[i] = replace(plain, problem="stdout differs between the untraced and traced runs")
    metrics = tracer.layer_metrics()
    untraced_s = sum(r.seconds for r in results)
    traced_s = sum(r.seconds for r in traced)
    # time inside ops on both sides, so the harness between ops cancels
    metrics["trace.overhead_s"] = traced_s - untraced_s
    notes = [f"ops: {len(results)}, {untraced_s:.3f} s inside ops untraced, {traced_s:.3f} s traced"]
    return results, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rainbowcon" / "__init__.py").is_file():
        sys.stderr.write("error: run from the repository root; src/rainbowcon not found\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    units = declared_metrics(root, args.trace)
    rounds = workloads.rounds_for(args.workload, args.seconds)
    run_dir = WORK_DIR / f"{args.workload}-s{args.seed}"
    try:
        pkg, pool, setup_times = set_up(args.workload, args.seed, rounds, root, run_dir)
        gc.collect()
        if args.trace == 0:
            warm_up(pool)
            results = run_pool(pkg, pool)
            metrics, notes = end_to_end(results, setup_times)
        else:
            results, metrics, notes = traced_run(pkg, pool, args.workload, args.seed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [r for r in results if r.problem is not None]
    attempted, failed = len(results), len(failures)
    for r in failures[:20]:
        print(f"FAIL {' '.join(r.op.argv)}: {r.problem}")
    print(f"rounds: {rounds} of the {args.workload} mix")
    for line in notes:
        print(line)
    print(f"fail_ratio = {failed / attempted:.6f} ({failed} of {attempted} ops)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
