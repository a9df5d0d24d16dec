"""Self-tests of the benchmark: its oracles, its input generation and its tracer.

Run with the repository's tests: PYTHONPATH=src python -m pytest rcbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import rainbowcon  # noqa: E402
import rainbowcon.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

C9 = workloads.cycle(9)


def _c9_output(value: int, colors: list[int]) -> str:
    triples = [[min(u, v), max(u, v), c] for (u, v), c in zip(C9, colors)]
    return f"rc = {value}\n" + json.dumps({"k": value, "colors": triples}) + "\n"


RAINBOW_C9 = [i % 5 for i in range(9)]  # every 4 consecutive cycle edges differ


def test_oracle_accepts_a_rainbow_witness():
    assert checks.solve_exact(rainbowcon, 0, _c9_output(5, RAINBOW_C9), 9, C9, "rc", 5) is None


def test_oracle_flags_a_doctored_value():
    assert checks.closed_form("cycle", 9, "rc") == 5
    reason = checks.solve_exact(rainbowcon, 0, _c9_output(4, [i % 4 for i in range(9)]), 9, C9, "rc", 5)
    assert reason is not None and "rc = 4" in reason


def test_oracle_flags_a_non_rainbow_witness():
    reason = checks.solve_exact(rainbowcon, 0, _c9_output(5, [0] * 8 + [4]), 9, C9, "rc", 5)
    assert reason is not None and "not" in reason


def test_oracle_flags_a_wrong_exit_code():
    assert checks.solve_exact(rainbowcon, 2, _c9_output(5, RAINBOW_C9), 9, C9, "rc", 5) is not None


def _inputs(tmp: Path, workload: str, seed: int) -> tuple[dict[str, bytes], list]:
    tmp.mkdir()
    generate = workloads.WORKLOADS[workload]
    pool = generate(seed, tmp, rainbowcon, 1)
    files = {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}
    argvs = [[a.replace(str(tmp), "") for a in op.argv] for op in pool]
    return files, argvs


def test_same_seed_regenerates_identical_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        first = _inputs(tmp_path / f"{workload}-a", workload, 7)
        second = _inputs(tmp_path / f"{workload}-b", workload, 7)
        assert first == second, workload


def test_different_seed_changes_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        first = _inputs(tmp_path / f"{workload}-a", workload, 7)
        second = _inputs(tmp_path / f"{workload}-b", workload, 8)
        assert first != second, workload


def test_every_round_runs_every_command(tmp_path):
    for workload in workloads.WORKLOADS:
        _, argvs = _inputs(tmp_path / workload, workload, 7)
        assert {argv[0] for argv in argvs} == {"solve", "verify", "reduce"}, workload


def test_short_ops_run_several_times(tmp_path):
    """Every reduce op and every companion counts its best of at least SHORT_REPEATS runs."""
    short = {"solve-exact": {"reduce", "verify"}, "verify-battery": {"solve", "reduce"},
             "gadget-witness": {"solve", "reduce"}}
    for workload, generate in workloads.WORKLOADS.items():
        (tmp_path / workload).mkdir()
        pool = generate(7, tmp_path / workload, rainbowcon, 1)
        for op in set(pool):
            if op.command in short[workload]:
                assert pool.count(op) >= workloads.SHORT_REPEATS, (workload, op.argv)


def test_a_short_run_still_runs_one_round():
    for workload in workloads.WORKLOADS:
        assert workloads.rounds_for(workload, 1) == 1


def test_pinned_tree_diameter():
    import random

    rng = random.Random(3)
    for n, d in ((7, 5), (8, 5), (9, 7)):
        edges = workloads.random_tree(rng, n, d)
        assert len(edges) == n - 1 and workloads.tree_diameter(n, edges) == d


def test_tracing_keeps_stdout_and_restores_the_package(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"n": 5, "edges": workloads.cycle(5)}), encoding="utf-8")
    argv = ("solve", "--problem", "rc", "--input", str(path))
    before = run.run_op(argv)
    original_bind = rainbowcon.search.subset_rc_leq
    tracer = tracing.Tracer()
    tracer.install(rainbowcon)
    try:
        traced = run.run_op(argv)
        assert rainbowcon.search.subset_rc_leq is not original_bind
    finally:
        tracer.uninstall()
    assert rainbowcon.search.subset_rc_leq is original_bind
    assert rainbowcon.cli.rc_exact is rainbowcon.search.rc_exact
    assert traced[:2] == before[:2]
    layer = tracer.layer_metrics()
    assert layer["search.decisions"] >= 1 and layer["search.colorings_tried"] > 0
    assert layer["graph.edge_list_calls"] > 0 and layer["cli.self_s"] > 0
    assert layer["search.wasted_share"] < 1
