"""Real Schur forms, Sylvester sweeps and factorizations per benchmark problem.

    python3 tools/lapack_work.py --seeds 61 [--workloads matrix-ladder] [--root CHECKOUT]

Solves every problem of the benchmark workloads in-process, as
`tools/report_digest.py` does (the same checkout rule, the workload's own
flags, one BLAS thread, nothing written under `bench/`), and counts the
real Schur forms -- the calls of `scipy.linalg.schur` with
`output="real"` and of LAPACK's `dgees` other than its workspace query
(`lwork=-1`), so that checkouts taking them either way compare -- the
calls of LAPACK's `dtrsyl`, the triangular Sylvester solve that makes one
Bartels-Stewart sweep, of LAPACK's `dpotrf`, the Cholesky factorization
that tests the Riccati equation's R + D'PD and the Lyapunov certificate,
and of `numpy.linalg.eigvalsh`.  Prints

    matrix-ladder/61/003 0 schur 10 dtrsyl 10 dpotrf 17 eigvalsh 1

per problem (workload, seed, index, exit code, counts), then one line per
workload and seed, the work of one benchmark cycle:

    matrix-ladder/61 cycle schur 78 dtrsyl 316 dpotrf 247 eigvalsh 9

The counts do not depend on timing or load, so two checkouts compare by
them where timings are too noisy to tell:

    diff <(python3 tools/lapack_work.py --root OLD) <(python3 tools/lapack_work.py)
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from report_digest import WORKLOAD_ORDER, _load, _solve  # sets one BLAS thread first


def _counting(module, name: str, counts: dict, key: str, counted=lambda kwargs: True):
    """Replace ``module.name`` by a wrapper that adds 1 to ``counts[key]`` per call."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        if counted(kwargs):
            counts[key] += 1
        return original(*args, **kwargs)

    setattr(module, name, wrapper)


def _line(counts: dict) -> str:
    return " ".join(f"{key} {value}" for key, value in counts.items())


def count(root: Path, seeds, names) -> None:
    main, workloads = _load(root)
    import numpy.linalg
    import scipy.linalg
    import scipy.linalg.lapack

    counts = {"schur": 0, "dtrsyl": 0, "dpotrf": 0, "eigvalsh": 0}
    # the solver imports the SciPy routines on each call and looks eigvalsh
    # up on each call, so the wrappers see every call; scipy.linalg.schur
    # takes its dgees from elsewhere, so no Schur form counts twice
    _counting(scipy.linalg, "schur", counts, "schur",
              lambda kwargs: kwargs.get("output") == "real")
    _counting(scipy.linalg.lapack, "dgees", counts, "schur",
              lambda kwargs: kwargs.get("lwork") != -1)
    for name in ("dtrsyl", "dpotrf"):
        _counting(scipy.linalg.lapack, name, counts, name)
    _counting(numpy.linalg, "eigvalsh", counts, "eigvalsh")
    with tempfile.TemporaryDirectory() as tmp:
        problem_path, report = Path(tmp) / "problem.json", Path(tmp) / "report.json"
        for name in names:
            for seed in seeds:
                cycle = dict.fromkeys(counts, 0)
                for i, problem in enumerate(workloads[name].generate(seed)):
                    counts.update(dict.fromkeys(counts, 0))
                    code = _solve(main, problem, problem_path, report)
                    for key in cycle:
                        cycle[key] += counts[key]
                    print(f"{name}/{seed}/{i:03d} {code} {_line(counts)}", flush=True)
                print(f"{name}/{seed} cycle {_line(cycle)}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 37, 61])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_ORDER,
                        default=list(WORKLOAD_ORDER))
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout whose src/ and bench/ are used")
    args = parser.parse_args(argv)
    names = [name for name in WORKLOAD_ORDER if name in args.workloads]
    count(args.root.resolve(), args.seeds, names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
