"""One line per benchmark report: exit code and SHA-256 of the report bytes.

    python3 tools/report_digest.py --seeds 11 37 61 [--root CHECKOUT] [--keep DIR]
                                   [--against OLD]

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
their contents.  `--against OLD` compares each report with its namesake
under OLD, a directory that an earlier run kept: after the line of a report
whose bytes differ it prints one line

      moved P 1.9e-15 Theta 0 V 1.9e-15 stabilizability flow_status flow_steps

with the largest relative change max|new - old| / max|old| over the
entries of P, Theta, V and the simulation estimate, where both reports have
them (inf where an entry became or stopped being null), and the fields of
the `stabilizability` block that changed; `verdict` is named when the
verdict changed.  A last line sums up the moved reports, and the exit
status is 1 when any report moved and 0 otherwise, so that

    python3 tools/report_digest.py --against OLD > /dev/null

alone says whether every report kept its bytes.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the benchmark: threaded BLAS on small matrices may
# change the bits of a product.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
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


# (name, report block, key) of the numbers whose moves --against reports
MOVED = (("P", "solution", "P"), ("Theta", "solution", "Theta"),
         ("V", "value", "V"), ("estimate", "simulation", "estimate"))


def _flat(x) -> list:
    return [v for row in x for v in _flat(row)] if isinstance(x, list) else [x]


def _relative_change(old, new) -> float:
    """max |new - old| / max |old| over the entries of two equal-shaped
    numbers or nested lists; inf where an entry became or stopped being
    null (non-finite) or the shapes differ."""
    old, new = _flat(old), _flat(new)
    if len(old) != len(new) or any((a is None) != (b is None) for a, b in zip(old, new)):
        return math.inf
    pairs = [(a, b) for a, b in zip(old, new) if a is not None]
    change = max((abs(b - a) for a, b in pairs), default=0.0)
    scale = max((abs(a) for a, _ in pairs), default=0.0)
    return change / scale if scale else (math.inf if change else 0.0)


def _moves(old: dict, new: dict) -> tuple[dict, list]:
    """({name: relative change} for the MOVED numbers both reports hold, and
    the changed fields of the stabilizability block, plus 'verdict')."""
    changes = {name: _relative_change(old[block][key], new[block][key])
               for name, block, key in MOVED
               if key in old.get(block, {}) and key in new.get(block, {})}
    stab_old, stab_new = old.get("stabilizability", {}), new.get("stabilizability", {})
    fields = sorted(k for k in stab_old.keys() | stab_new.keys()
                    if stab_old.get(k) != stab_new.get(k))
    if old.get("verdict") != new.get("verdict"):
        fields.append("verdict")
    return changes, fields


def digest(root: Path, seeds, keep: Path | None, against: Path | None) -> int:
    """Print the lines described above; return the number of moved reports."""
    main, workloads = _load(root)
    moved, largest, field_counts = 0, {}, collections.Counter()
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
                    data = report.read_bytes()
                    print(f"{name}/{seed}/{i:03d} {code} {hashlib.sha256(data).hexdigest()}",
                          flush=True)
                    if against is None:
                        continue
                    old = (against / name / str(seed) / f"{i:03d}.json").read_bytes()
                    if old == data:
                        continue
                    changes, fields = _moves(json.loads(old), json.loads(data))
                    moved += 1
                    for key, value in changes.items():
                        largest[key] = max(largest.get(key, 0.0), value)
                    field_counts.update(fields)
                    print("  moved " + " ".join(f"{k} {v:.2g}" for k, v in changes.items())
                          + " stabilizability " + (" ".join(fields) or "-"), flush=True)
    if against is not None:
        print(f"moved {moved} reports; largest relative change "
              + (", ".join(f"{k} {v:.2g}" for k, v in largest.items()) or "-")
              + "; changed fields "
              + (", ".join(f"{k} {n}" for k, n in sorted(field_counts.items())) or "-"))
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 37, 61])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout whose src/ and bench/ are used")
    parser.add_argument("--keep", type=Path, default=None,
                        help="directory that keeps every report")
    parser.add_argument("--against", type=Path, default=None,
                        help="directory kept by an earlier run: report what moved")
    args = parser.parse_args(argv)
    moved = digest(args.root.resolve(), args.seeds, args.keep, args.against)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
