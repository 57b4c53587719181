"""Cold-start time of `import slq.cli`, one fresh interpreter per sample.

    python3 tools/cold_start.py [--runs N] [--modules] [CHECKOUT ...]

Starts N fresh interpreters (default 15) per checkout (default: the checkout
holding this script), each with the checkout's `src/` first on its path and
one BLAS thread, as in the benchmark, and times `import slq.cli` inside each,
from the first import to the last (numpy's import included, the
interpreter's own start not).  With several checkouts the runs alternate
between them, so that a drift of the machine's load falls on each alike.
Prints one line per checkout:

    /path/to/checkout  import slq.cli  median 117.2 ms  quartiles [114.0, 121.9] ms  (15 runs)

The benchmark folds this import into `setup_s` together with its own
problem generation; this is its measure alone.  With `--modules` it prints
instead, per checkout, the `slq` modules and the standard-library modules
(the top-level names of `sys.stdlib_module_names`) that the import loads,
one to a line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

_CHILD = """
import json, sys, time
before = set(sys.modules)
start = time.perf_counter()
import slq.cli
elapsed = time.perf_counter() - start
loaded = sorted(set(sys.modules) - before)
print(json.dumps([elapsed, loaded]))
"""


def _sample(root: Path) -> tuple[float, list[str]]:
    """(seconds, modules loaded) of one fresh ``import slq.cli`` from ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    run = subprocess.run([sys.executable, "-c", _CHILD], env=env, cwd=root,
                         capture_output=True, text=True, check=True)
    elapsed, loaded = json.loads(run.stdout)
    return elapsed, loaded


def _listed(name: str) -> bool:
    """Whether the import of ``name`` is one this tool lists: ``slq`` or its
    submodules, and the standard library's modules."""
    top = name.partition(".")[0]
    return top == "slq" or top in sys.stdlib_module_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent],
                        help="checkouts to time (default: this one)")
    parser.add_argument("--runs", type=int, default=15, help="fresh imports per checkout")
    parser.add_argument("--modules", action="store_true",
                        help="list the slq and standard-library modules the import loads")
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in args.roots]

    if args.modules:
        for root in roots:
            _, loaded = _sample(root)
            listed = list(filter(_listed, loaded))
            print(f"{root}: {len(loaded)} modules loaded, {len(listed)} of them "
                  f"slq or standard library")
            for name in listed:
                print(f"  {name}")
        return 0

    if args.runs < 1:
        parser.error("--runs must be at least 1")
    times: dict[Path, list[float]] = {root: [] for root in roots}
    for _ in range(args.runs):
        for root in roots:
            times[root].append(_sample(root)[0] * 1e3)
    for root, ms in times.items():
        if len(ms) > 1:
            q1, _, q3 = statistics.quantiles(ms, n=4)
        else:
            q1 = q3 = ms[0]
        print(f"{root}  import slq.cli  median {statistics.median(ms):.1f} ms  "
              f"quartiles [{q1:.1f}, {q3:.1f}] ms  ({len(ms)} runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
