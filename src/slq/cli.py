"""Command-line interface: problem ingestion, pipeline orchestration, reports.

Problem files are JSON with the matrices named after the usual symbols
(A, C, B, D, Q, S, R), optional piecewise-constant forcing, an optional
initial state, and optional solver overrides.  Reports are JSON with sorted
keys and no environmental input (every random stream is seeded from the file
or flags), so identical invocations produce byte-identical output.

A problem file is checked in one place, ``load_problem``: each matrix once
(present, rectangular, of its shape, finite; Q and R symmetrized), in the
order A, C, B, D, Q, S, R, then the forcing block, x0, the solver block and
whether the symmetrized Q and R overflow.  The arrays go to
``ControlledSystem`` and ``CostWeights`` as they are, without a second
check.  ``_resolve_config`` checks the solver options against their
defaults.  The Monte Carlo, closed-form and forcing modules are imported on
first use by the commands that need them.

Exit codes: 0 success/solvable, 1 input error (command-line usage errors
included), 2 not stabilizable (or a supplied gain fails the stabilizer test),
3 unsolvable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys as _sys
from dataclasses import MISSING, dataclass, fields
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import (
    InvalidInputError,
    LyapunovUnsolvableError,
    NotStabilizableError,
    SlqError,
    UnsupportedInputError,
)
from .linalg import all_finite
from .riccati import (
    CostWeights,
    FlowConfig,
    GareConfig,
    GareSolution,
    GareUnsolvable,
    solve_gare,
)
from .stability import ControlledSystem, solve_lyapunov
from .stabilizability import stabilizability_report

if TYPE_CHECKING:
    from .inhomogeneous import InhomogeneityGrid
    from .montecarlo import SimConfig

__all__ = ["ProblemData", "load_problem", "main"]

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_NOT_STABILIZABLE = 2
_EXIT_UNSOLVABLE = 3


@dataclass
class ProblemData:
    """In-memory form of a problem file."""

    sys: ControlledSystem
    w: CostWeights
    grid: InhomogeneityGrid | None
    x0: np.ndarray
    solver: dict


class ProblemFileError(SlqError):
    pass


def _matrix_field(doc: dict, key: str, shape: tuple[int, int]) -> np.ndarray:
    if key not in doc:
        raise ProblemFileError(f"missing field: {key}")
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{key} must be a rectangular array of numbers") from exc
    if arr.ndim == 1 and shape[1] == 1:
        arr = arr.reshape(-1, 1)
    if arr.shape != shape:
        raise ProblemFileError(f"dimension mismatch: {key}")
    if not all_finite(arr):
        raise ProblemFileError(f"non-finite entries: {key}")
    return arr


def _symmetrized(name: str, arr: np.ndarray) -> np.ndarray:
    """(arr + arr')/2, with a warning when ||arr - arr'|| exceeds 1e-12
    (1 + ||arr||); the norms are taken only when some entry differs from its
    mirror, as without one the gap is zero."""
    if np.count_nonzero(arr != arr.T):
        gap = np.linalg.norm(arr - arr.T)
        if gap > 1e-12 * (1.0 + np.linalg.norm(arr)):
            print(f"warning: {name} symmetrized (asymmetry {gap:.3e})", file=_sys.stderr)
    return (arr + arr.T) / 2.0


def load_problem(path: str) -> ProblemData:
    """Parse and validate a problem file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ProblemFileError("problem file must be a JSON object")
    try:
        n = int(doc["n"])
        m = int(doc["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFileError("fields 'n' and 'm' must be integers") from exc
    if n < 1 or m < 1:
        raise ProblemFileError("dimensions must be positive")

    A = _matrix_field(doc, "A", (n, n))
    C = _matrix_field(doc, "C", (n, n))
    B = _matrix_field(doc, "B", (n, m))
    D = _matrix_field(doc, "D", (n, m))
    Q = _symmetrized("Q", _matrix_field(doc, "Q", (n, n)))
    S = _matrix_field(doc, "S", (m, n))
    R = _symmetrized("R", _matrix_field(doc, "R", (m, m)))

    grid = None
    if doc.get("inhomogeneity"):
        from .inhomogeneous import InhomogeneityGrid

        sub = doc["inhomogeneity"]
        try:
            grid = InhomogeneityGrid(
                times=np.asarray(sub["grid"], dtype=float),
                b=np.asarray(sub.get("b", np.zeros((len(sub["grid"]) - 1, n))), float),
                sigma=np.asarray(sub.get("sigma", np.zeros((len(sub["grid"]) - 1, n))), float),
                q=np.asarray(sub.get("q", np.zeros((len(sub["grid"]) - 1, n))), float),
                rho=np.asarray(sub.get("rho", np.zeros((len(sub["grid"]) - 1, m))), float),
            )
        except SlqError:
            raise           # the grid's own checks, which name what failed
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemFileError(f"malformed inhomogeneity block: {exc}") from exc
        if grid.n != n or grid.m != m:
            raise ProblemFileError("dimension mismatch: inhomogeneity")

    x0 = np.zeros(n)
    if doc.get("x0") is not None:
        try:
            x0 = np.asarray(doc["x0"], dtype=float).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise ProblemFileError("x0 must be a rectangular array of numbers") from exc
        if x0.size != n:
            raise ProblemFileError("dimension mismatch: x0")
        if not all_finite(x0):
            raise ProblemFileError("non-finite entries: x0")

    solver = doc.get("solver", {})
    if not isinstance(solver, dict):
        raise ProblemFileError("'solver' must be an object")
    # last, where building the weights checked it: a symmetrized Q or R
    # overflows where an entry and its mirror sum past the largest float
    for name, M in (("Q", Q), ("R", R)):
        if not all_finite(M):
            raise InvalidInputError(f"{name} has non-finite entries")
    return ProblemData(
        sys=ControlledSystem._checked(A, C, B, D),
        w=CostWeights._checked(Q, S, R),
        grid=grid,
        x0=x0,
        solver=solver,
    )


# the solver options of a problem file: every GareConfig and FlowConfig
# field that has a plain default, under its own name
_SOLVER_FIELDS = tuple(
    f for cls in (GareConfig, FlowConfig) for f in fields(cls)
    if f.default is not MISSING and f.name != "reduction_stabilizer"
)
_DEFAULT_CONFIG = {     # as a problem file writes it: a tuple is a list
    **{f.name: list(f.default) if isinstance(f.default, tuple) else f.default
       for f in _SOLVER_FIELDS},
    "seed": 0,
    "simulate": {"paths": 10_000, "dt": 1e-3, "horizon": None},
}
# each config class's solver options, as (name, whether the default is a tuple)
_CONFIG_OPTIONS = {
    cls: tuple((f.name, isinstance(f.default, tuple)) for f in fields(cls) if f in _SOLVER_FIELDS)
    for cls in (GareConfig, FlowConfig)
}


def _is_number(value) -> bool:
    return type(value) in (int, float)      # a JSON number; true and false are not


def _merge_options(cfg: dict, given: dict, prefix: str = "") -> None:
    """Override ``cfg`` in place with the solver options ``given`` by a
    problem file, each checked against the form of its default: an object of
    known options, a list of numbers, an integer, or a number (or null where
    the default is null)."""
    for key, value in given.items():
        name = prefix + key
        if key not in cfg:
            raise ProblemFileError(f"unknown solver option: {name}")
        default = cfg[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ProblemFileError(f"solver option {name} must be an object")
            _merge_options(default, value, name + ".")
            continue
        if isinstance(default, list):
            ok, form = isinstance(value, list) and all(map(_is_number, value)), "a list of numbers"
        elif isinstance(default, int):
            ok, form = type(value) is int, "an integer"
        else:
            ok, form = _is_number(value) or (default is None and value is None), "a number"
        if not ok:
            raise ProblemFileError(f"solver option {name} must be {form}")
        cfg[key] = value


def _resolve_config(problem: ProblemData, args) -> dict:
    # options are replaced, never changed in place, except those of simulate
    cfg = {**_DEFAULT_CONFIG, "simulate": dict(_DEFAULT_CONFIG["simulate"])}
    _merge_options(cfg, problem.solver)
    if getattr(args, "eps_schedule", None):
        try:
            cfg["epsilon_schedule"] = [float(v) for v in args.eps_schedule.split(",")]
        except ValueError:
            raise ProblemFileError("--eps-schedule must be comma-separated numbers") from None
    if getattr(args, "tol", None) is not None:
        cfg["path_tol"] = cfg["res_tol"] = cfg["range_tol"] = float(args.tol)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = int(args.seed)
    if getattr(args, "simulate", None) is not None:
        cfg["simulate"]["paths"] = int(args.simulate)
    _check_ranges(cfg)
    return cfg


def _check_ranges(cfg: dict) -> None:
    """Reject a resolved configuration whose epsilons or tolerances are not
    all finite and positive, whose epsilon schedule has fewer than two
    entries (the path settles only by comparing consecutive solutions),
    whose seed is outside [0, 2**64) (the Philox key), or whose path count
    is below 1.  An option left at its default (the default object itself)
    is not checked again."""
    for f in _SOLVER_FIELDS:
        value = cfg[f.name]
        if value is _DEFAULT_CONFIG[f.name]:
            continue
        if not all(0.0 < v < math.inf for v in (value if isinstance(value, list) else [value])):
            raise ProblemFileError(f"solver option {f.name} must be finite and positive")
    if len(cfg["epsilon_schedule"]) < 2:
        raise ProblemFileError("solver option epsilon_schedule must have at least two entries")
    if not 0 <= cfg["seed"] < 2**64:
        raise ProblemFileError("solver option seed must be in [0, 2**64)")
    if cfg["simulate"]["paths"] < 1:
        raise ProblemFileError("solver option simulate.paths must be at least 1")


def _from_config(cls, cfg: dict, **given):
    """``cls`` with its solver options taken from ``cfg``, as floats (tuples
    of floats where the default is a tuple), and the rest from ``given``."""
    for name, is_tuple in _CONFIG_OPTIONS[cls]:
        value = cfg[name]
        given[name] = tuple(map(float, value)) if is_tuple else float(value)
    return cls(**given)


_string = json.encoder.encode_basestring_ascii
_NON_FINITE = re.compile(r"-?inf|nan")     # how repr writes the non-finite floats


_FLOAT64 = np.dtype(float)


def _float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else "null"


# the text of a node of exactly one of these types; subclasses and numpy
# scalars take the chain in _write
_LEAF = {
    float: _float,
    str: _string,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda _: "null",
}


def _encode(obj) -> str:
    """``obj`` as the JSON text of ``json.dumps(obj, sort_keys=True,
    indent=2)``.  Dict keys are written as ``str(k)``, tuples as lists, numpy
    scalars as Python numbers, arrays as lists of rows of floats (a 1-D
    array is one row), and every non-finite number as null."""
    out: list[str] = []
    _write(obj, out, "")
    return "".join(out)


def _write(obj, out: list[str], indent: str) -> None:
    """Append the pieces of ``obj``'s text (see ``_encode``) to ``out``; its
    nested lines are indented by ``indent`` plus two spaces per level."""
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif isinstance(obj, dict):
        _write_dict(obj, out, indent)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out, indent)
    elif isinstance(obj, np.ndarray):
        _write_array(obj, out, indent)
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float(float(obj)))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_dict(obj: dict, out: list[str], indent: str) -> None:
    if not obj:
        out.append("{}")
        return
    if set(map(type, obj)) == {str}:
        items = sorted(obj.items())     # keys are unique, so no value is compared
    else:
        items = sorted({str(k): v for k, v in obj.items()}.items())
    inner = indent + "  "
    sep = "{\n" + inner
    for key, value in items:
        leaf = _LEAF.get(type(value))
        if leaf is None:
            out.append(sep + _string(key) + ": ")
            _write(value, out, inner)
        else:
            out.append(sep + _string(key) + ": " + leaf(value))
        sep = ",\n" + inner
    out.append("\n" + indent + "}")


def _write_list(obj: list | tuple, out: list[str], indent: str) -> None:
    if not obj:
        out.append("[]")
        return
    inner = indent + "  "
    if type(obj) is list and set(map(type, obj)) == {float}:
        _write_floats(repr(obj)[1:-1], out, indent)
        return
    sep = "[\n" + inner
    for value in obj:
        out.append(sep)
        _write(value, out, inner)
        sep = ",\n" + inner
    out.append("\n" + indent + "]")


def _write_floats(text: str, out: list[str], indent: str) -> None:
    """Append a list of floats, written as ``repr`` writes a list of them
    less its brackets, one float to a line.  A float's repr holds no ", ",
    and only those of inf and nan hold an "n"."""
    if not text:
        out.append("[]")
        return
    if "n" in text:
        text = _NON_FINITE.sub("null", text)
    inner = indent + "  "
    out.append("[\n" + inner + text.replace(", ", ",\n" + inner) + "\n" + indent + "]")


def _write_array(obj: np.ndarray, out: list[str], indent: str) -> None:
    # one repr per row writes its floats in C
    if obj.ndim == 2 and obj.dtype is _FLOAT64:
        rows = obj.tolist()
    else:
        rows = np.atleast_2d(obj).astype(float).tolist()
    if not rows:
        out.append("[]")
        return
    inner = indent + "  "
    sep = "[\n" + inner
    for row in rows:
        out.append(sep)
        _write_floats(repr(row)[1:-1], out, inner)
        sep = ",\n" + inner
    out.append("\n" + indent + "]")


def _emit(report: dict, out_path: str | None):
    """Write ``report`` to stdout, or to ``out_path`` when it is not None.

    An existing file is overwritten in place and then cut to the report's
    length, so a write that is interrupted can leave old bytes past the new
    end, as truncating first could leave a short file.  Truncating first
    costs more: on a 2-core x86_64 VM's ext4 (mounted with online discard),
    rewriting a 1.3 KB report through ``open(path, "w")`` took 103-118 us
    (quartiles), in place 7.5-8.1 us.  Only a regular file is cut, so
    ``/dev/null``, FIFOs and ``/dev/stdout`` take the report as they are.
    The file is created with ``open``'s mode, 0o666 less the umask."""
    text = _encode(report) + "\n"
    if out_path is None:
        _sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _solution_block(sol: GareSolution) -> dict:
    diag = {
        k: v
        for k, v in sol.diagnostics.items()
        if k in ("are_residual", "range_defect", "n_min_eig", "settled_at_epsilon",
                 "extrapolation_norm", "epsilon_solves")
    }
    return {
        "P": sol.P,
        "Theta": sol.Theta,
        "Pi": sol.Pi,
        "diagnostics": diag,
    }


def _strategy_block(strategy) -> dict | None:
    if strategy is None:
        return None
    return {
        "kind": strategy.kind,
        "theta": strategy.theta,
        "v_free": strategy.v_free,
        "center": strategy.center,
        "radius": strategy.radius,
        "bound": strategy.bound,
        "side": strategy.side,
    }


def _oracle_block(problem: ProblemData, sol: GareSolution | None) -> dict:
    from .oracle1d import solve_1d

    coeffs = (
        problem.sys.A[0, 0], problem.sys.C[0, 0], problem.sys.B[0, 0],
        problem.sys.D[0, 0], problem.w.Q[0, 0], problem.w.S[0, 0], problem.w.R[0, 0],
    )
    res = solve_1d(*coeffs)
    block = {
        "case": res.case,
        "solvable": res.solvable,
        "P": res.P,
        "strategy": _strategy_block(res.strategy),
        "alpha": res.alpha,
        "beta": res.beta,
        "gamma": res.gamma,
        "Sigma": res.Sigma,
        "Delta": res.Delta,
    }
    if sol is not None:
        agree = {"verdicts_agree": res.solvable}
        if res.solvable:
            agree["p_abs_diff"] = abs(float(sol.P[0, 0]) - res.P)
            theta = float(sol.Theta[0, 0])
            if res.strategy.kind == "point":
                agree["theta_abs_diff"] = abs(theta - res.strategy.theta)
                agree["theta_matches"] = agree["theta_abs_diff"] <= 1e-6
            else:
                agree["theta_matches"] = res.strategy.contains(theta)
            agree["p_matches"] = agree["p_abs_diff"] <= 1e-6
        block["agreement"] = agree
    else:
        block["agreement"] = {"verdicts_agree": not res.solvable}
    return block


def _solve_oracle_block(problem: ProblemData, sol: GareSolution | None) -> dict:
    """The oracle block of `slq solve`.  A problem outside the closed form's
    classification (no control authority) gets the reason instead, and the
    solver's own verdict and exit code stand."""
    try:
        return _oracle_block(problem, sol)
    except UnsupportedInputError as exc:
        return {"unsupported": str(exc)}


def _closed_loop_time_constant(sys: ControlledSystem, Theta: np.ndarray) -> float:
    lam = np.linalg.eigvals(sys.A + sys.B @ Theta)
    rate = -float(np.max(lam.real))
    return 1.0 / rate if rate > 0 else 1.0


def _sim_config(cfg: dict, sys: ControlledSystem, Theta: np.ndarray,
                grid: InhomogeneityGrid | None) -> SimConfig:
    from .montecarlo import SimConfig

    sim = cfg["simulate"]
    horizon = sim["horizon"]
    if horizon is None:
        tau = _closed_loop_time_constant(sys, Theta)
        horizon = 20.0 * tau
        if grid is not None:
            horizon = max(horizon, grid.support_end + 5.0 * tau)
        if not np.isfinite(horizon):
            raise InvalidInputError("the closed loop gives no finite horizon; "
                                    "set simulate.horizon")
    return SimConfig.whole_steps(horizon, sim["dt"], int(sim["paths"]), int(cfg["seed"]))


def _simulation_block(problem: ProblemData, cfg: dict, Theta: np.ndarray,
                      terms, value: float | None) -> dict:
    from .montecarlo import simulate_closed_loop

    sim_cfg = _sim_config(cfg, problem.sys, Theta, problem.grid)
    result = simulate_closed_loop(
        problem.sys, problem.w, Theta, problem.x0, sim_cfg,
        terms=terms, g=problem.grid,
    )
    block = {
        "estimate": result.estimate,
        "std_error": result.std_error,
        "terminal_second_moment": result.terminal_second_moment,
        "tail_estimate": result.tail_estimate,
        "cost_quantiles": {f"{q:.2f}": v for q, v in result.cost_quantiles.items()},
        "paths": result.n_paths,
        "horizon": result.horizon,
        "dt": result.dt,
        "seed": int(cfg["seed"]),
    }
    if value is not None:
        block["reference_value"] = value
        block["abs_error"] = abs(result.estimate - value)
        block["within_3se"] = abs(result.estimate - value) <= 3.0 * result.std_error
    return block


def _stabilizability_block(report) -> dict:
    return {
        "gamma": report.gamma,
        "flow_status": report.flow_status,
        "residual": report.residual,
        "flow_steps": report.flow_steps,
        "newton_steps": report.newton_steps,
    }


def cmd_check(args) -> int:
    problem = load_problem(args.problem)
    cfg = _resolve_config(problem, args)
    report = stabilizability_report(problem.sys, _from_config(FlowConfig, cfg))
    doc = {
        "version": __version__,
        "command": "check",
        "config": cfg,
        "verdict": {"stabilizable": report.stabilizable},
        "stabilizability": _stabilizability_block(report),
    }
    _emit(doc, args.out)
    return _EXIT_OK if report.stabilizable else _EXIT_NOT_STABILIZABLE


def _run_solve(problem: ProblemData, cfg: dict, args):
    """Shared solve pipeline, up to the value; returns (exit_code, report_doc,
    sol, terms)."""
    doc: dict = {"version": __version__, "command": "solve", "config": cfg}
    oracle = getattr(args, "oracle", False) and problem.sys.n == 1 and problem.sys.m == 1
    flow = _from_config(FlowConfig, cfg)
    stab = stabilizability_report(problem.sys, flow)
    doc["stabilizability"] = _stabilizability_block(stab)
    if not stab.stabilizable:
        doc["verdict"] = {"stabilizable": False, "solvable": False}
        if oracle:
            doc["oracle_1d"] = _solve_oracle_block(problem, None)
        return _EXIT_NOT_STABILIZABLE, doc, None, None

    gare_cfg = _from_config(GareConfig, cfg, flow=flow, reduction_stabilizer=stab.gamma)
    outcome = solve_gare(problem.sys, problem.w, gare_cfg)
    if isinstance(outcome, GareUnsolvable):
        doc["verdict"] = {"stabilizable": True, "solvable": False}
        doc["unsolvable"] = {
            "reason": outcome.reason,
            "diagnostics": {k: v for k, v in outcome.diagnostics.items()
                            if not isinstance(v, np.ndarray)},
        }
        if oracle:
            doc["oracle_1d"] = _solve_oracle_block(problem, None)
        return _EXIT_UNSOLVABLE, doc, None, None

    sol = outcome
    doc["verdict"] = {"stabilizable": True, "solvable": True}
    doc["solution"] = _solution_block(sol)

    terms = None
    if problem.grid is not None:
        from .inhomogeneous import assemble_value, solve_eta

        terms = solve_eta(sol, problem.sys, problem.w, problem.grid, gare_cfg)
        check = terms.range_check
        doc["inhomogeneous"] = {
            "times": [float(t) for t in terms.times],
            "eta": terms.eta,
            "v_star": terms.v_star,
            "zeta": "identically zero (deterministic forcing)",
            "range_defect": check.max_defect,
            "range_ok": check.ok,
        }
        if not check.ok:
            doc["verdict"]["solvable"] = False
            doc["unsolvable"] = {"reason": "range condition fails on the forcing grid"}
            return _EXIT_UNSOLVABLE, doc, sol, terms
        value = assemble_value(terms, problem.x0)
    else:
        value = float(problem.x0 @ sol.P @ problem.x0)
    doc["value"] = {"x0": [float(v) for v in problem.x0], "V": value}

    if oracle:
        doc["oracle_1d"] = _solve_oracle_block(problem, sol)
    return _EXIT_OK, doc, sol, terms


def cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    cfg = _resolve_config(problem, args)
    code, doc, sol, terms = _run_solve(problem, cfg, args)
    if code == _EXIT_OK and args.simulate:
        doc["simulation"] = _simulation_block(problem, cfg, sol.Theta, terms, doc["value"]["V"])
    _emit(doc, args.out)
    return code


def _parse_theta(text: str, m: int, n: int) -> np.ndarray:
    try:
        theta = np.asarray([[float(v) for v in row.split(",")] for row in text.split(";")])
    except ValueError as exc:
        raise ProblemFileError(f"--theta must be numbers, rows separated by ';' and entries "
                               f"by ',' (as in --theta=-1,0;0,-1), not {text!r}") from exc
    if theta.shape != (m, n):
        raise ProblemFileError("dimension mismatch: theta flag")
    return theta


def cmd_simulate(args) -> int:
    problem = load_problem(args.problem)
    cfg = _resolve_config(problem, args)
    doc: dict = {"version": __version__, "command": "simulate", "config": cfg}

    if args.theta is not None:
        theta = _parse_theta(args.theta, problem.sys.m, problem.sys.n)
        # is_stabilizer's test, made directly so that its failure explains itself
        try:
            solve_lyapunov(problem.sys.closed_loop(theta), np.eye(problem.sys.n))
        except LyapunovUnsolvableError as exc:
            doc["verdict"] = {"stabilizer": False, "detail": str(exc)}
            _emit(doc, args.out)
            return _EXIT_NOT_STABILIZABLE
        terms = None
        value = None
    else:
        code, solve_doc, sol, terms = _run_solve(problem, cfg, args)
        if code != _EXIT_OK:
            _emit(solve_doc, args.out)
            return code
        theta = sol.Theta
        value = solve_doc["value"]["V"]

    doc["simulation"] = _simulation_block(problem, cfg, theta, terms, value)
    doc["verdict"] = {"stabilizer": True}
    _emit(doc, args.out)
    return _EXIT_OK


def cmd_oracle(args) -> int:
    problem = load_problem(args.problem)
    cfg = _resolve_config(problem, args)
    if problem.sys.n != 1 or problem.sys.m != 1:
        raise ProblemFileError("the closed-form solver applies to n = m = 1 only")
    doc = {
        "version": __version__,
        "command": "oracle1d",
        "config": cfg,
        "oracle_1d": _oracle_block(problem, None),
    }
    _emit(doc, args.out)
    res = doc["oracle_1d"]
    if res["case"] == "not-stabilizable":
        return _EXIT_NOT_STABILIZABLE
    return _EXIT_OK if res["solvable"] else _EXIT_UNSOLVABLE


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits 1 (input error): its own 2 would read
    as "not stabilizable".  Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(_EXIT_INPUT, f"{self.prog}: error: {message}\n")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one."""
    parser = _Parser(
        prog="slq",
        description="Infinite-horizon stochastic linear-quadratic solver",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=None, help="override the random seed")
        p.add_argument("--eps-schedule", default=None,
                       help="comma-separated epsilon schedule override")
        p.add_argument("--tol", type=float, default=None,
                       help="override the path/residual/range tolerances")

    p_check = sub.add_parser("check", help="decide stabilizability")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="run the full solver pipeline")
    common(p_solve)
    p_solve.add_argument("--simulate", type=int, default=None, metavar="N",
                         help="append a Monte Carlo cross-check with N paths")
    p_solve.add_argument("--oracle", action="store_true",
                         help="append the closed-form block on 1-d problems")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="simulate a strategy")
    common(p_sim)
    p_sim.add_argument("--simulate", type=int, default=None, metavar="N",
                       help="number of Monte Carlo paths")
    p_sim.add_argument("--theta", default=None,
                       help="explicit gain, rows separated by ';' entries by ','")
    p_sim.set_defaults(func=cmd_simulate, oracle=False)

    p_orc = sub.add_parser("oracle1d", help="closed-form scalar solver")
    common(p_orc)
    p_orc.set_defaults(func=cmd_oracle)
    return parser


def _join_theta(argv: list[str]) -> list[str]:
    """Fold `--theta VALUE` into `--theta=VALUE`: argparse would read a gain
    that starts with '-' (as in -1,0;0,-1) as an option, not as the value."""
    out = []
    for arg in argv:
        if out and out[-1] == "--theta":
            out[-1] = f"--theta={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_theta(_sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except NotStabilizableError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return _EXIT_NOT_STABILIZABLE
    except (ProblemFileError, SlqError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
