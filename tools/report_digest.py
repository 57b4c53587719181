"""One line per benchmark report: exit code and SHA-256 of the report bytes.

    python3 tools/report_digest.py --seeds 11 37 61 [--root CHECKOUT] [--keep DIR]

Generates the problem sets of the three benchmark workloads with
`bench/workloads.py` of the checkout at `--root` (default: the checkout
holding this script), solves every problem in-process through that
checkout's `slq.cli.main`, with the workload's own flags and one BLAS
thread, and prints

    scalar-sweep/11/000 0 <sha256 of the report>

for each problem, in workload, seed and problem order.  The workloads are
only imported: nothing is written under `bench/`.  Two checkouts with equal
lines give the same exit codes and byte-identical reports, so

    diff <(python3 tools/report_digest.py --root OLD) <(python3 tools/report_digest.py)

lists the problems on which a change moved a report.  `--keep DIR` also
keeps the reports, as DIR/<workload>/<seed>/<index>.json, for a diff of
their contents.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark: threaded BLAS on small matrices may
# change the bits of a product.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

WORKLOAD_ORDER = ("scalar-sweep", "matrix-ladder", "mc-crosscheck")


def _load(root: Path):
    """(slq.cli.main, WORKLOADS) of the checkout at ``root``."""
    sys.dont_write_bytecode = True          # leave bench/ and src/ as they are
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import slq.cli
    import workloads

    for module in (slq.cli, workloads):
        if not Path(module.__file__).resolve().is_relative_to(root):
            raise ImportError(f"{module.__name__} was imported from {module.__file__}, "
                              f"not from {root}")
    return slq.cli.main, workloads.WORKLOADS


def _solve(main, problem, problem_path: Path, report: Path) -> int:
    """Exit code of `slq solve` on ``problem`` with its flags, report to ``report``."""
    problem_path.write_text(json.dumps(problem.doc), encoding="utf-8")
    # the warning of an unsymmetric weight goes to stderr, and no report goes
    # to stdout when --out is given
    with contextlib.redirect_stderr(io.StringIO()):
        return main(["solve", str(problem_path), *problem.flags, "--out", str(report)])


def digest(root: Path, seeds, keep: Path | None) -> None:
    main, workloads = _load(root)
    with tempfile.TemporaryDirectory() as tmp:
        problem_path, temp_report = Path(tmp) / "problem.json", Path(tmp) / "report.json"
        for name in WORKLOAD_ORDER:
            for seed in seeds:
                for i, problem in enumerate(workloads[name].generate(seed)):
                    report = temp_report
                    if keep is not None:
                        report = keep / name / str(seed) / f"{i:03d}.json"
                        report.parent.mkdir(parents=True, exist_ok=True)
                    code = _solve(main, problem, problem_path, report)
                    sha = hashlib.sha256(report.read_bytes()).hexdigest()
                    print(f"{name}/{seed}/{i:03d} {code} {sha}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 37, 61])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout whose src/ and bench/ are used")
    parser.add_argument("--keep", type=Path, default=None,
                        help="directory that keeps every report")
    args = parser.parse_args(argv)
    digest(args.root.resolve(), args.seeds, args.keep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
