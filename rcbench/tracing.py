"""Span tracer that wraps the public functions of each rainbowcon module.

Nothing under src/ is edited: the tracer rebinds every public function in
every module namespace that holds it (cli and verify bind their imports
with ``from .x import y``, so patching the defining module alone would miss
those calls), plus the two hot methods ``Graph.edge_list`` and
``EdgeColoring.color_of``. ``uninstall`` puts every original back.

Spans are aggregated as they close instead of being stored one by one: a
search-heavy op opens hundreds of thousands of spans. Per function the
tracer keeps calls, inclusive time, self time (inclusive minus the time of
its child spans) and the inclusive time of its outermost calls, meaning
calls with no enclosing span of a function from the same metric group.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "io", "graph", "coloring", "search", "reductions", "verify")

# function groups whose outermost spans give one per-layer metric each
GROUPS = {
    "io.parse": ("io.parse_edge_list", "io.parse_instance", "io.load_coloring", "io.load_gadget",
                 "io.gadget_from_json_obj"),
    "io.emit": ("io.emit_edge_list", "io.instance_json_obj", "io.emit_instance", "io.to_dot",
                "io.dump_coloring", "io.gadget_json_obj", "io.dump_gadget",
                "io.reduced_instance_json_obj", "io.emit_reduced_instance"),
    "coloring.rc_scan": ("coloring.first_non_rainbow_pair", "coloring.exists_rainbow_path"),
    "coloring.src_scan": ("coloring.first_non_geodesic_rainbow_pair",
                          "coloring.exists_geodesic_rainbow_path"),
    "search.decision": ("search.subset_rc_leq", "search.subset_src_leq", "search.vertex_coloring_leq"),
    "reductions.build": ("reductions.star_reduction", "reductions.src_extension",
                         "reductions.build_gadget", "reductions.build_order2_gadget",
                         "reductions.build_order3_gadget", "reductions.split_base",
                         "reductions.rc_reduction"),
    "reductions.witness": ("reductions.witness_coloring", "reductions.src_witness_coloring",
                           "reductions.combine_colorings", "reductions.lift_vertex_coloring"),
}

CHECKS = {
    "verify.check_pair_distances": "pair-distances",
    "verify.check_nonpair_distances": "nonpair-distances",
    "verify.check_witness": "witness",
    "verify.check_path_containment": "containment",
    "verify.check_vertex_coloring_equivalence": "vc-equivalence",
    "verify.check_src_equivalence": "src-equivalence",
    "verify.check_rc_equivalence": "rc-equivalence",
}
GROUPS["verify.check"] = tuple(CHECKS)

_GROUP_OF = {fn: g for g, fns in GROUPS.items() for fn in fns}


@dataclass
class FnStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    outer_s: float = 0.0  # inclusive time of outermost calls within the group


@dataclass
class _Frame:
    name: str
    group: str | None
    outer: bool  # no span of the same group was open when this one began
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, FnStats] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    spans: int = 0
    _stack: list[_Frame] = field(default_factory=list)
    _open_groups: dict[str, int] = field(default_factory=dict)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _enter(self, name: str) -> _Frame:
        group = _GROUP_OF.get(name)
        outer = True
        if group is not None:
            outer = self._open_groups.get(group, 0) == 0
            self._open_groups[group] = self._open_groups.get(group, 0) + 1
        frame = _Frame(name, group, outer, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = FnStats()
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - frame.child_s
        if frame.group is not None:
            self._open_groups[frame.group] -= 1
            if frame.outer:
                st.outer_s += duration
        if self._stack:
            self._stack[-1].child_s += duration
        self.spans += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(result, frame.outer)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of every layer module of `package`."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        hooks = _result_hooks(self)
        wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        # rebind under every name any module (and the package) binds it to
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for cls, attr, name in (
            (package.graph.Graph, "edge_list", "graph.edge_list"),
            (package.coloring.EdgeColoring, "color_of", "coloring.color_of"),
        ):
            original = vars(cls)[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics; counts exact, times in seconds."""
        st = self.stats
        c = self.counts

        def calls(name: str) -> int:
            return st[name].calls if name in st else 0

        def group_s(group: str) -> float:
            return sum(st[f].outer_s for f in GROUPS[group] if f in st)

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s.self_s for n, s in st.items() if n.split(".")[0] == layer)
        out["io.parse_s"] = group_s("io.parse")
        out["io.emit_s"] = group_s("io.emit")
        out["io.bytes_out"] = c.get("io.bytes_out", 0)
        out["graph.bfs_calls"] = calls("graph.distances_from")
        out["graph.edge_list_calls"] = calls("graph.edge_list")
        out["graph.paths_enumerated"] = c.get("graph.paths_enumerated", 0)
        out["coloring.pair_scans"] = calls("coloring.first_non_rainbow_pair") + calls(
            "coloring.first_non_geodesic_rainbow_pair"
        )
        out["coloring.rc_scan_s"] = group_s("coloring.rc_scan")
        out["coloring.src_scan_s"] = group_s("coloring.src_scan")
        out["coloring.color_of_calls"] = calls("coloring.color_of")
        decision_s = group_s("search.decision")
        tried = c.get("search.colorings_tried", 0)
        out["search.decisions"] = sum(calls(f) for f in GROUPS["search.decision"])
        out["search.colorings_tried"] = tried
        out["search.colorings_per_s"] = tried / decision_s if decision_s > 0 else 0.0
        out["search.wasted_share"] = c.get("search.colorings_wasted", 0) / tried if tried else 0.0
        out["reductions.build_s"] = group_s("reductions.build")
        out["reductions.witness_s"] = group_s("reductions.witness")
        out["reductions.edges_built"] = c.get("reductions.edges_built", 0)
        out["verify.checks"] = c.get("verify.checks", 0)
        out["verify.checks_failed"] = c.get("verify.checks_failed", 0)
        for fn, check in CHECKS.items():
            out[f"verify.{check}.s"] = st[fn].outer_s if fn in st else 0.0
        out["trace.spans"] = self.spans
        return out


def _result_hooks(tracer: Tracer) -> dict:
    """Counters read off return values, at the boundary where the work happens."""

    def paths(result, outer):
        tracer.add("graph.paths_enumerated", len(result))

    def decision(result, outer):
        tracer.add("search.colorings_tried", result.nodes_explored)
        if not result.feasible:
            tracer.add("search.colorings_wasted", result.nodes_explored)

    def built(result, outer):
        if outer:
            tracer.add("reductions.edges_built", result.graph.edge_count)

    def check(result, outer):
        if outer:
            tracer.add("verify.checks")
            if not result.passed:
                tracer.add("verify.checks_failed")

    hooks = {"graph.simple_paths_up_to": paths, "graph.geodesics": paths}
    hooks.update({fn: decision for fn in GROUPS["search.decision"]})
    hooks.update({fn: built for fn in GROUPS["reductions.build"] if fn != "reductions.split_base"})
    hooks.update({fn: check for fn in CHECKS})
    return hooks
