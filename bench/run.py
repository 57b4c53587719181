"""Benchmark of `slq solve`, run in-process through `slq.cli.main`.

    python3 bench/run.py --workload scalar-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
One client sends one problem at a time (a closed loop, no thread pool) and
repeats the workload's problem set in whole cycles until `--seconds` of
solve time have passed.  Every output is checked against a reference outside
the timed region.  With `--trace 0` the run reports the end-to-end metrics;
with `--trace 1` it records spans around each layer (see tracer.py) over a
fixed number of cycles, runs the same cycles untraced, and reports the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it, starting
with `BENCH-REPORT`, holds the full result: every metric with its unit and
sample count, the environment, and the slowest problem with the command that
replays it.  The same document is written under `.bench_out/`.
"""

from __future__ import annotations

import os

# Small dense matrices swing widely with threaded BLAS on a small shared box;
# one thread per process keeps timings steady.  Must precede the numpy import.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from tracer import NOT_VISIBLE, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
MIN_TAIL_SAMPLES = 10     # samples that must lie beyond a reported percentile


def _import_slq() -> None:
    """Import the package from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import slq
    import slq.cli  # noqa: F401

    if not Path(slq.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"slq was imported from {slq.__file__}, not from {src}")


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "blas": numpy.show_config(mode="dicts").get("Build Dependencies", {})
                .get("blas", {}).get("name"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "loadavg_at_start": os.getloadavg(),
    }


class Runner:
    """Writes a workload's problem files and solves them through the CLI."""

    def __init__(self, workload, seed: int, trace: int):
        import slq.cli

        self.cli = slq.cli
        self.workload = workload
        self.dir = OUT_DIR / f"{workload.name}-seed{seed}-trace{trace}"
        self.problems = []
        self.seed = seed
        self._verdicts: dict = {}
        self.max_ref_err = 0.0
        self.failures: list[dict] = []

    def setup(self) -> None:
        """Generate the problem set, write it as problem files, warm up once."""
        self.problems = self.workload.generate(self.seed)
        (self.dir / "problems").mkdir(parents=True, exist_ok=True)
        (self.dir / "reports").mkdir(parents=True, exist_ok=True)
        for i, problem in enumerate(self.problems):
            path = self.problem_path(i)
            path.write_text(json.dumps(problem.doc, indent=1) + "\n", encoding="utf-8")
        warm = self.argv(0)[:2] + ["--out", str(self.dir / "warmup.json")]
        self.cli.main(warm)

    def problem_path(self, i: int) -> Path:
        return self.dir / "problems" / f"{i:03d}-{self.problems[i].label}.json"

    def argv(self, i: int) -> list[str]:
        return (["solve", str(self.problem_path(i))] + self.problems[i].flags
                + ["--out", str(self.dir / "reports" / f"{i:03d}.json")])

    def solve(self, i: int) -> tuple[float, int | None]:
        """Run one timed `slq solve`; returns (seconds, exit code or None on a crash)."""
        argv = self.argv(i)
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(i, traceback.format_exc(limit=3))
            return elapsed, None
        return time.perf_counter() - start, code

    def check(self, i: int, code: int | None) -> tuple[bool, dict | None]:
        """Check the last report of problem i; identical reports are checked once."""
        if code is None:
            return False, None
        raw = (self.dir / "reports" / f"{i:03d}.json").read_bytes()
        report = json.loads(raw)
        key = (i, code, hashlib.sha256(raw).hexdigest())
        if key not in self._verdicts:
            try:
                ok, err, note = self.workload.check(self.problems[i], code, report)
                ok, err = bool(ok), float(err)
            except Exception:
                ok, err, note = False, float("inf"), traceback.format_exc(limit=3)
            self._verdicts[key] = (ok, note)
            if err != float("inf"):
                self.max_ref_err = max(self.max_ref_err, err)
            if not ok:
                self._fail(i, note)
        return self._verdicts[key][0], report

    def _fail(self, i: int, note: str) -> None:
        if len(self.failures) < 20:
            self.failures.append({"problem": str(self.problem_path(i).relative_to(ROOT)),
                                  "why": note})

    def replay(self, i: int) -> str:
        args = " ".join(self.argv(i)).replace(f"{ROOT}{os.sep}", "")
        return f"PYTHONPATH=src python3 -m slq.cli {args}"


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import `slq.cli` from this checkout."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import slq.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def _setup(runner: Runner, probe) -> dict[str, list[float]]:
    """Import and set up SETUP_REPEATS times each.

    Returns the samples of each step, rescaled by the probe taken right
    after it, and their wall-clock times.
    """
    samples: dict[str, list[float]] = {"import": [], "setup": [],
                                       "wall.import": [], "wall.setup": []}
    for _ in range(SETUP_REPEATS):
        for step in ("import", "setup"):
            start = time.perf_counter()
            if step == "import":
                elapsed = _import_seconds()
            else:
                runner.setup()
                elapsed = time.perf_counter() - start
            samples[step].append(elapsed * probe.scale(probe.sample() - 1))
            samples["wall." + step].append(elapsed)
    return samples


def _percentile(values: list[float], pct: int) -> float | None:
    """The pct-th percentile, or None unless MIN_TAIL_SAMPLES lie beyond it."""
    if len(values) * (100 - pct) / 100 < MIN_TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_timed(runner: Runner, seconds: float, probe) -> dict:
    """Closed loop over whole cycles until about `seconds` of solve time.

    Each solve time is rescaled to the reference speed by the probes around
    it (see speed.py); the wall-clock figures are reported next to them.
    """
    from workloads import path_steps

    n = len(runner.problems)
    wall: list[list[float]] = [[] for _ in range(n)]
    probes: list[list[int]] = [[] for _ in range(n)]
    cycles = ok_count = steps = 0
    timed = 0.0
    probe.sample()
    while True:
        for i in range(n):
            if probe.due():
                probe.sample()
            elapsed, code = runner.solve(i)
            timed += elapsed
            wall[i].append(elapsed)
            probes[i].append(len(probe.samples) - 1)
            ok, report = runner.check(i, code)
            ok_count += ok
            if report is not None:
                steps += path_steps(report)
        cycles += 1
        # stop at the cycle boundary nearest to the time budget
        if timed + 0.5 * timed / cycles >= seconds:
            break
    probe.sample()

    scaled = [[t * probe.scale(k) for t, k in zip(row, ks)] for row, ks in zip(wall, probes)]
    flat = [t for row in scaled for t in row]
    flat_wall = [t for row in wall for t in row]
    attempted = len(flat)
    scaled_s = sum(flat)
    per_problem_ms = [1e3 * statistics.median(row) for row in scaled]
    slowest = max(range(n), key=per_problem_ms.__getitem__)
    metrics = {
        "solves_per_s": (ok_count / scaled_s, "1/s", attempted),
        "solve_ms_p50": (1e3 * statistics.median(flat), "ms", attempted),
        "failed_frac": ((attempted - ok_count) / attempted, "1", attempted),
        "max_ref_err": (runner.max_ref_err, "1", attempted),
        "wall.solves_per_s": (ok_count / timed, "1/s", attempted),
        "wall.solve_ms_p50": (1e3 * statistics.median(flat_wall), "ms", attempted),
        "machine_slowdown": (probe.slowdown(), "1", len(probe.samples)),
    }
    p90 = _percentile(flat, 90)
    if p90 is not None:
        metrics["solve_ms_p90"] = (1e3 * p90, "ms", attempted)
    if steps:
        metrics["mc_path_steps_per_s"] = (steps / scaled_s, "1/s", attempted)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": attempted - ok_count,
        "cycles": cycles,
        "timed_s": timed,
        "per_problem_ms": {p.label: ms for p, ms in zip(runner.problems, per_problem_ms)},
        "samples_ms": [[1e3 * t for t in row] for row in scaled],
        "slowest_problem": {"median_ms": per_problem_ms[slowest],
                            "replay": runner.replay(slowest)},
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    """Alternate traced and untraced passes over the same whole cycles."""
    cycles = max(1, round(seconds / (2.0 * runner.workload.trace_cycle_s)))
    tracer = Tracer()
    wall = {True: 0.0, False: 0.0}
    attempted = ok_count = 0
    for cycle in range(cycles):
        for traced in (True, False):
            if traced:
                tracer.install()
            try:
                for i in range(len(runner.problems)):
                    tracer.request = (cycle, i) if traced else None
                    elapsed, code = runner.solve(i)
                    tracer.request = None
                    wall[traced] += elapsed
                    attempted += 1
                    ok_count += runner.check(i, code)[0]
            finally:
                tracer.uninstall()
    metrics = {name: (value, unit, cycles * len(runner.problems))
               for name, (value, unit) in tracer.metrics(cycles * len(runner.problems)).items()}
    metrics["trace.overhead_frac"] = (wall[True] / wall[False] - 1.0, "1", cycles)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": attempted - ok_count,
        "cycles": cycles,
        "traced_s": wall[True],
        "untraced_s": wall[False],
        "spans": tracer.span_table(),
        "not_visible_from_outside": list(NOT_VISIBLE),
    }


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_slq()
    except ImportError as exc:
        print(f"error: cannot import slq from this checkout: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports slq

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = _environment()
    runner = Runner(workload, args.seed, args.trace)
    setup: dict[str, list[float]] = {}
    if args.trace:
        runner.setup()
        result = run_traced(runner, args.seconds)
        metrics = result.pop("metrics")
    else:
        probe = SpeedProbe()
        setup = _setup(runner, probe)
        result = run_timed(runner, args.seconds, probe)
        metrics = result.pop("metrics")
        med = {step: statistics.median(v) for step, v in setup.items()}
        metrics["setup_s"] = (med["import"] + med["setup"], "s", SETUP_REPEATS)
        metrics["wall.setup_s"] = (med["wall.import"] + med["wall.setup"], "s", SETUP_REPEATS)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)

    spec = _benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = result["failed"] == 0
    report = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": args.seed,
        "trace": args.trace,
        "setup_samples_s": setup,
        "problems": len(runner.problems),
        "problem_dir": str(runner.dir.relative_to(ROOT) / "problems"),
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in sorted(metrics.items())},
        "failures": runner.failures,
        "environment": env,
        **result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, row in report["metrics"].items():
        print(f"{name:48s} {row['value']:>16.6g} {row['unit']:6s} n={row['samples']}")
    report.pop("samples_ms", None)
    print("BENCH-REPORT " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
