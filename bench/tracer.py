"""Outside-in span recorder for the traced benchmark run.

The recorder replaces each public layer function with a wrapper in every
`slq` module that binds it (for example `solve_lyapunov` is bound in
`stability`, `riccati`, `stabilizability`, `montecarlo`, `cli` and the
package itself), so calls made through any of those names are seen.  A span
holds its name, the request (one `slq solve` call), start, end, parent span
and a small summary of the return value; self time and counts are derived
from the spans after the run.

`linalg` gets no spans: it is called thousands of times per solve and
wrapping it would distort the timings.  What a wrapper cannot see from
outside -- right-hand-side evaluations and rejected steps of the Riccati
flow, and the split of Monte Carlo time between noise generation and the
Euler step -- needs tracing inside the program and is not reported.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

NOT_VISIBLE = (
    "riccati flow right-hand-side evaluations",
    "riccati flow rejected steps",
    "montecarlo split between noise generation and the Euler step",
)


def _flow_info(flow):
    return (len(flow.times) - 1, flow.status)


def _stabilizable(report):
    return report.stabilizable


def _unsolvable(outcome):
    return type(outcome).__name__ == "GareUnsolvable"


def _sim_info(result):
    return (result.n_paths, int(round(result.horizon / result.dt)))


# (span name, module, public function, summary of the return value)
TARGETS = (
    ("cli.main", "slq.cli", "main", None),
    ("cli.load_problem", "slq.cli", "load_problem", None),
    ("stabilizability.report", "slq.stabilizability", "stabilizability_report", _stabilizable),
    ("riccati.flow", "slq.riccati", "integrate_riccati_flow", _flow_info),
    ("riccati.strict", "slq.riccati", "solve_are_strict", None),
    ("riccati.gare", "slq.riccati", "solve_gare", _unsolvable),
    ("stability.lyapunov", "slq.stability", "solve_lyapunov", None),
    ("inhomogeneous.solve_eta", "slq.inhomogeneous", "solve_eta", None),
    ("inhomogeneous.check_range_ez", "slq.inhomogeneous", "check_range_ez", None),
    ("inhomogeneous.assemble_value", "slq.inhomogeneous", "assemble_value", None),
    ("inhomogeneous.vstar_on_steps", "slq.inhomogeneous", "vstar_on_steps", None),
    ("montecarlo.simulate", "slq.montecarlo", "simulate_closed_loop", _sim_info),
)

WIDE_PATHS = 5_000   # simulations with at least this many paths count as wide


class Span:
    __slots__ = ("name", "request", "parent", "start", "end", "info")

    def __init__(self, name, request, parent, start):
        self.name, self.request, self.parent, self.start = name, request, parent, start
        self.end = start
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while a request is open; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self):
        for name, module, attr, summary in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, summary)
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "")
                if (modname == "slq" or modname.startswith("slq.")) and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, summary):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = Span(name, self.request, self._stack[-1] if self._stack else None, clock())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if summary is not None:
                span.info = summary(result)
            return result

        return wrapper

    def metrics(self, n_solves: int) -> dict:
        """Per-layer metrics from the recorded spans, as {name: (value, unit)}."""
        table = self.span_table()
        calls = defaultdict(int, {k: row["calls"] for k, row in table.items()})
        total = defaultdict(float, {k: row["s"] for k, row in table.items()})
        own = defaultdict(float, {k: row["self_s"] for k, row in table.items()})
        layer_self = defaultdict(float)
        for name, seconds in own.items():
            layer_self[name.split(".")[0]] += seconds
        by_name = defaultdict(list)
        for sp in self.spans:
            by_name[sp.name].append(sp)

        # a span whose call raised has no summary
        flows = [sp.info for sp in by_name["riccati.flow"] if sp.info]
        flow_steps = sum(steps for steps, _ in flows)
        gare_idx = {i for i, sp in enumerate(self.spans) if sp.name == "riccati.gare"}
        eps_solves = sum(1 for sp in by_name["riccati.strict"] if sp.parent in gare_idx)

        reports_per_request = defaultdict(list)
        for sp in by_name["stabilizability.report"]:
            reports_per_request[sp.request].append(sp.info)
        stabilizable = [r for r in reports_per_request.values() if r[0]]
        calls_per_solve = sum(len(r) for r in stabilizable) / max(1, len(stabilizable))

        wide = [0, 0.0]     # path-steps, seconds
        narrow = [0, 0.0]
        for sp in by_name["montecarlo.simulate"]:
            paths, steps = sp.info
            bucket = wide if paths >= WIDE_PATHS else narrow
            bucket[0] += paths * steps
            bucket[1] += sp.duration
        lyap_calls = calls["stability.lyapunov"]

        return {
            "cli.load_problem.s": (total["cli.load_problem"], "s"),
            "cli.self_s": (layer_self["cli"], "s"),
            "stabilizability.report.calls_per_solve": (calls_per_solve, "count"),
            "stabilizability.report.s": (total["stabilizability.report"], "s"),
            "stabilizability.report.not_stabilizable_count": (
                sum(1 for sp in by_name["stabilizability.report"] if not sp.info), "count"),
            "stabilizability.self_s": (layer_self["stabilizability"], "s"),
            "riccati.flow.calls": (calls["riccati.flow"], "count"),
            "riccati.flow.s": (total["riccati.flow"], "s"),
            "riccati.flow.steps": (flow_steps, "count"),
            "riccati.flow.steps_per_solve": (flow_steps / max(1, n_solves), "count"),
            "riccati.flow.max_horizon_count": (
                sum(1 for _, status in flows if status == "max-horizon"), "count"),
            "riccati.strict.calls": (calls["riccati.strict"], "count"),
            "riccati.strict.s": (total["riccati.strict"], "s"),
            "riccati.gare.calls": (calls["riccati.gare"], "count"),
            "riccati.gare.self_s": (own["riccati.gare"], "s"),
            "riccati.gare.eps_solves": (eps_solves, "count"),
            "riccati.gare.unsolvable_count": (
                sum(1 for sp in by_name["riccati.gare"] if sp.info), "count"),
            "riccati.self_s": (layer_self["riccati"], "s"),
            "stability.lyapunov.calls": (lyap_calls, "count"),
            "stability.lyapunov.s": (total["stability.lyapunov"], "s"),
            "stability.lyapunov.ms_per_call": (
                1e3 * total["stability.lyapunov"] / max(1, lyap_calls), "ms"),
            "stability.self_s": (layer_self["stability"], "s"),
            "inhomogeneous.solve_eta.s": (total["inhomogeneous.solve_eta"], "s"),
            "inhomogeneous.assemble_value.s": (total["inhomogeneous.assemble_value"], "s"),
            "inhomogeneous.vstar_on_steps.s": (total["inhomogeneous.vstar_on_steps"], "s"),
            "inhomogeneous.self_s": (layer_self["inhomogeneous"], "s"),
            "montecarlo.simulate.calls": (calls["montecarlo.simulate"], "count"),
            "montecarlo.simulate.s": (total["montecarlo.simulate"], "s"),
            "montecarlo.simulate.path_steps": (wide[0] + narrow[0], "count"),
            "montecarlo.path_steps_per_s.wide": (wide[0] / wide[1] if wide[1] else 0.0, "1/s"),
            "montecarlo.path_steps_per_s.narrow": (
                narrow[0] / narrow[1] if narrow[1] else 0.0, "1/s"),
            "montecarlo.self_s": (layer_self["montecarlo"], "s"),
        }

    def span_table(self) -> dict:
        """Calls, inclusive and self seconds for every span name.

        Self time is a span's duration minus that of its direct children.
        """
        child_time = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        table: dict = {}
        for i, sp in enumerate(self.spans):
            row = table.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += sp.duration
            row["self_s"] += sp.duration - child_time[i]
        return table
