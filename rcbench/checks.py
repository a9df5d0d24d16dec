"""Correctness oracles for every benchmark op, run outside the timed span.

Each oracle takes the rainbowcon package, the op's exit code and its
stdout, and returns None when the output is right or a one-line reason
when it is not. Expected values come from closed forms (Chartrand et al.
2008) or from independent recomputation, never from the op itself.
"""

from __future__ import annotations

import json

BATTERY_REPORTS = 1057  # default `verify`: --n-max 4, --seeds 200


def closed_form(family: str, size: int, problem: str) -> int:
    """rc / src of the named families the solve workload draws from."""
    if family == "cycle":  # rc(C_n) = src(C_n) = ceil(n/2), n >= 4
        return (size + 1) // 2
    if family in ("star", "tree"):  # rc = src = m on trees, so K_{1,n} gives n
        return size
    if family in ("wheel7", "q3"):  # rc(W7) = src(W7) = 3, rc(Q3) = src(Q3) = 3
        return 3
    if family == "petersen" and problem == "rc":
        return 3
    raise ValueError(f"no closed form for {problem} on {family}")


def _graph(pkg, n: int, edges):
    return pkg.graph.new_graph(n, [tuple(e) for e in edges])


def solve_exact(pkg, code, out: str, n: int, edges, problem: str, expected: int) -> str | None:
    """`solve --problem rc|src`: value equals the closed form, witness re-checks."""
    if code != 0:
        return f"exit {code}, expected 0"
    head, _, rest = out.partition("\n")
    if head != f"{problem} = {expected}":
        return f"printed {head!r}, closed form is {problem} = {expected}"
    try:
        coloring = pkg.io.load_coloring(rest, _graph(pkg, n, edges))
    except pkg.errors.ToolkitError as exc:
        return f"witness does not re-load: {exc}"
    if coloring.color_count != expected:
        return f"witness uses {coloring.color_count} color indices, value is {expected}"
    predicate = (
        pkg.coloring.is_rainbow_connected if problem == "rc" else pkg.coloring.is_strong_rainbow_connected
    )
    if not predicate(coloring):
        return f"witness is not {'strongly ' if problem == 'src' else ''}rainbow connected"
    return None


def _report_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def single_report(pkg, code, out: str, check: str) -> str | None:
    """`verify --check <one>`: exactly one passing report of that check."""
    if code != 0:
        return f"exit {code}, expected 0"
    reports = _report_lines(out)
    if len(reports) != 1 or reports[0]["check"] != check:
        return f"expected one {check} report, got {len(reports)}"
    return None if reports[0]["passed"] else f"{check} report failed: {reports[0]['counterexample']}"


def battery(pkg, code, out: str) -> str | None:
    """Default `verify`: exit 0, zero failed reports, the full report count."""
    if code != 0:
        return f"exit {code}, expected 0"
    reports = _report_lines(out)
    if len(reports) != BATTERY_REPORTS:
        return f"{len(reports)} report lines, expected {BATTERY_REPORTS}"
    failed = sum(1 for r in reports if not r["passed"])
    return f"{failed} failed reports" if failed else None


def gadget_reduce(pkg, code, out: str, n: int, edges, pairs, k: int) -> str | None:
    """`reduce --reduction rc-gadget`: re-parses to the counts of rc_reduction."""
    if code != 0:
        return f"exit {code}, expected 0"
    source = pkg.reductions.SubsetInstance(
        _graph(pkg, n, edges), pkg.graph.make_pairs([tuple(p) for p in pairs], n), k
    )
    reduced = pkg.reductions.rc_reduction(source)
    graph, _, _ = pkg.io.parse_instance(out.partition("\n")[0])
    got = (graph.vertex_count, graph.edge_count)
    want = (reduced.graph.vertex_count, reduced.graph.edge_count)
    return None if got == want else f"reduced graph has (n, m) = {got}, rc_reduction gives {want}"
