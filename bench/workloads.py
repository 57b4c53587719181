"""Workload generators and reference checks for the benchmark.

Each workload is a fixed problem set generated from a seed.  A problem is a
problem file in the CLI's own input format plus the extra `slq solve` flags
it needs, so any problem can be replayed with plain `slq solve`.  Every
output is checked against a reference that does not share the code path
under test:

* scalar-sweep  -- the exact-rational closed form `solve_1d`;
* matrix-ladder -- `scipy.linalg.solve_continuous_are` where C = D = 0, and
  `verify_static_stabilizing` plus the feedback identity N(P) Theta = -L(P)'
  and a stabilizer check of the reported Theta elsewhere;
* mc-crosscheck -- the criterion-7 bound |estimate - V| <= max(3 se,
  0.02 |V| + 0.01), with V from `solve_1d` on scalar instances.

The checks run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from slq import (
    ControlledSystem,
    CostWeights,
    is_stabilizer,
    solve_1d,
    verify_static_stabilizing,
)
from slq.riccati import GareMaps

EXIT_OK, EXIT_NOT_STABILIZABLE, EXIT_UNSOLVABLE = 0, 2, 3


@dataclass
class Problem:
    """One generated problem: a problem-file document and its extra flags."""

    label: str
    doc: dict
    flags: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)   # what the reference check needs


@dataclass
class Workload:
    """A problem-set generator and its reference check.  Why each workload
    exists is recorded in BENCHMARK.json and README.md."""

    name: str
    generate: object          # seed -> list[Problem]
    check: object             # (Problem, exit code, report dict) -> (ok, err, note)
    trace_cycle_s: float      # nominal seconds per cycle, sets the traced cycle count


def _doc(A, C, B, D, Q, S, R, x0, grid=None, solver=None) -> dict:
    mat = lambda M: np.atleast_2d(np.asarray(M, dtype=float)).tolist()
    doc = {
        "n": len(x0), "m": np.atleast_2d(B).shape[1],
        "A": mat(A), "C": mat(C), "B": mat(B), "D": mat(D),
        "Q": mat(Q), "S": mat(S), "R": mat(R),
        "x0": [float(v) for v in x0],
    }
    if grid is not None:
        doc["inhomogeneity"] = grid
    if solver is not None:
        doc["solver"] = solver
    return doc


def _system(doc: dict) -> tuple[ControlledSystem, CostWeights]:
    sys = ControlledSystem(doc["A"], doc["C"], doc["B"], doc["D"])
    return sys, CostWeights(doc["Q"], doc["S"], doc["R"])


def _rel(x, ref) -> float:
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    return float(np.linalg.norm(x - ref) / (1.0 + np.linalg.norm(ref)))


def _expected_code(res) -> int:
    if res.case == "not-stabilizable":
        return EXIT_NOT_STABILIZABLE
    return EXIT_OK if res.solvable else EXIT_UNSOLVABLE


# ----------------------------------------------------------------------
# scalar-sweep

SCALAR_CATEGORIES = ("not-stabilizable", "unsolvable", "solvable", "degenerate")
SCALAR_PER_CATEGORY = 50
_MARGIN = 0.25        # distance of (b + cd)^2 - (2a + c^2) d^2 from zero
_JITTER = 1e-4        # relative perturbation a verdict must survive


def _stable_verdict(coeffs, rng) -> bool:
    """True when small perturbations keep the oracle's case and verdict."""
    base = solve_1d(*coeffs)
    for _ in range(2):
        bumped = [v * (1.0 + _JITTER * rng.choice((-1.0, 1.0))) for v in coeffs]
        res = solve_1d(*bumped)
        if (res.case, res.solvable) != (base.case, base.solvable):
            return False
    return True


def _scalar_draw(rng, category: str):
    while True:
        a, c, b, d = rng.uniform(-3.0, 3.0, 4)
        if category != "degenerate" and rng.random() < 0.25:
            d = 0.0                       # noise-free control branch
        gap = (b + c * d) ** 2 - (2.0 * a + c * c) * d * d
        if category == "not-stabilizable":
            if gap < -_MARGIN:
                q, s, r = rng.uniform(-3.0, 3.0, 3)
                return a, c, b, d, q, s, r
            continue
        if gap < _MARGIN:
            continue
        if category == "degenerate":
            if abs(d) < 0.2:
                continue
            r = rng.uniform(0.2, 2.0)
            # N(P) = 0 exactly at the solution (criterion 4's construction)
            return a, c, b, d, (2 * a + c * c) * r / (d * d), (b + c * d) * r / (d * d), r
        q, s, r = rng.uniform(-3.0, 3.0, 3)
        coeffs = (a, c, b, d, q, s, r)
        res = solve_1d(*coeffs)
        if res.solvable != (category == "solvable") or res.case == "D1-degenerate":
            continue
        if _stable_verdict(coeffs, rng):
            return coeffs


def scalar_sweep(seed: int) -> list[Problem]:
    rng = np.random.default_rng([seed, 1])
    problems = []
    for k in range(SCALAR_PER_CATEGORY):
        for category in SCALAR_CATEGORIES:
            a, c, b, d, q, s, r = _scalar_draw(rng, category)
            doc = _doc([[a]], [[c]], [[b]], [[d]], [[q]], [[s]], [[r]], [1.0])
            problems.append(Problem(f"{category}-{k}", doc,
                                    expect={"coeffs": (a, c, b, d, q, s, r)}))
    return problems


def check_scalar(problem: Problem, code: int, report: dict):
    ref = solve_1d(*problem.expect["coeffs"])
    want = _expected_code(ref)
    if code != want:
        return False, float("inf"), f"exit {code}, oracle says {want} ({ref.case})"
    if not ref.solvable:
        return True, 0.0, ""
    P = report["solution"]["P"][0][0]
    theta = report["solution"]["Theta"][0][0]
    err = abs(P - ref.P) / (1.0 + abs(ref.P))
    if abs(P - ref.P) > 1e-6:
        return False, err, f"P {P!r} vs oracle {ref.P!r}"
    if ref.strategy.kind == "point":
        err = max(err, abs(theta - ref.strategy.theta) / (1.0 + abs(ref.strategy.theta)))
        ok = abs(theta - ref.strategy.theta) <= 1e-6
    else:
        ok = ref.strategy.contains(theta, margin=1e-9)
    return ok, err, "" if ok else f"Theta {theta!r} outside the oracle's {ref.strategy.kind}"


# ----------------------------------------------------------------------
# matrix-ladder

# (n, m, kind): 'det' has C = D = 0 and is checked against the CARE,
# 'forced' carries a forcing grid, 'plain' is the generic stochastic case.
LADDER = (
    (2, 1, "det"),
    (4, 2, "plain"),
    (8, 4, "forced"),
    (16, 8, "det"), (16, 1, "plain"),
    (24, 12, "plain"), (24, 1, "forced"),
    (32, 16, "plain"), (32, 1, "det"),
)
# Latencies cluster by problem; with an odd count the median lands inside the
# cluster of the 5th fastest problem (n = 16, m = 8), well apart from its
# neighbours, and not in the gap between two clusters.


LADDER_BASE_SEED = 2016


def _scaled(rng, shape, norm2: float) -> np.ndarray:
    M = rng.standard_normal(shape)
    return norm2 * M / np.linalg.norm(M, 2)


def _orthogonal(rng, k: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def _ladder_problem(base, rng, n: int, m: int, kind: str) -> Problem:
    """A problem stabilizable by construction, with convex weights.

    The base system comes from the fixed stream `base`: A = At - B K0 and
    C = Ct - D K0 with ||At + I||_2 = 0.5 and ||Ct||_2 = 0.6, so P = I
    certifies that [At, Ct] is mean-square stable and K0 stabilizes
    [A, C; B, D]; [[Q, S'], [S, R]] is positive definite.  The seeded stream
    `rng` draws orthogonal changes of state and control coordinates x = T z,
    u = V w, the initial state and the forcing.  The solution maps to T'P T
    and every norm the flow's step control reads is unchanged, so each seed
    poses the same work in other coordinates, and the time per cycle does
    not depend on the seed.
    """
    det = kind == "det"
    B = base.standard_normal((n, m)) / np.sqrt(n)
    D = np.zeros((n, m)) if det else _scaled(base, (n, m), 0.3)
    At = -np.eye(n) + _scaled(base, (n, n), 0.5)
    Ct = np.zeros((n, n)) if det else _scaled(base, (n, n), 0.6)
    K0 = _scaled(base, (m, n), 0.5)
    M = base.standard_normal((n + m, n + m))
    W = M @ M.T / (n + m) + 0.5 * np.eye(n + m)

    T, V = _orthogonal(rng, n), _orthogonal(rng, m)
    x0 = rng.standard_normal(n)
    x0 /= np.linalg.norm(x0)
    grid = None
    if kind == "forced":
        grid = {"grid": [0.0, 0.5, 1.0],
                "b": (0.2 * rng.standard_normal((2, n))).tolist(),
                "sigma": (0.2 * rng.standard_normal((2, n))).tolist(),
                "q": (0.2 * rng.standard_normal((2, n))).tolist(),
                "rho": (0.2 * rng.standard_normal((2, m))).tolist()}
    doc = _doc(T.T @ (At - B @ K0) @ T, T.T @ (Ct - D @ K0) @ T, T.T @ B @ V, T.T @ D @ V,
               T.T @ W[:n, :n] @ T, V.T @ W[n:, :n] @ T, V.T @ W[n:, n:] @ V, x0, grid)
    return Problem(f"n{n}-m{m}-{kind}", doc, expect={"kind": kind})


def matrix_ladder(seed: int) -> list[Problem]:
    base = np.random.default_rng(LADDER_BASE_SEED)
    rng = np.random.default_rng([seed, 2])
    return [_ladder_problem(base, rng, n, m, kind) for n, m, kind in LADDER]


def check_ladder(problem: Problem, code: int, report: dict):
    if code != EXIT_OK:
        return False, float("inf"), f"exit {code} on a solvable problem"
    sys, w = _system(problem.doc)
    P = np.asarray(report["solution"]["P"])
    Theta = np.asarray(report["solution"]["Theta"])
    if problem.expect["kind"] == "det":
        P_ref = scipy.linalg.solve_continuous_are(sys.A, sys.B, w.Q, w.R, s=w.S.T)
        err = _rel(P, P_ref)
        return err <= 1e-6, err, "" if err <= 1e-6 else f"P differs from the CARE by {err:.3e}"
    ver = verify_static_stabilizing(sys, w, P)
    if not ver.passed:
        return False, float("inf"), "verify_static_stabilizing rejects P"
    maps = GareMaps(sys, w)
    Lt = maps.cross_part(P).T
    gap = float(np.linalg.norm(maps.control_part(P) @ Theta + Lt) / (1.0 + np.linalg.norm(Lt)))
    if gap > 1e-6:
        return False, gap, f"N(P) Theta + L(P)' = {gap:.3e}"
    if not is_stabilizer(sys, Theta):
        return False, gap, "reported Theta is not a stabilizer"
    return True, gap, ""


# ----------------------------------------------------------------------
# mc-crosscheck

# From criterion 7's battery: (A, C, B, D, Q, S, R, x0, forcing grid or None).
_FORCED_2X2 = {"grid": [0.0, 0.5, 1.0],
               "b": [[0.4, 0.0], [0.0, -0.3]], "sigma": [[0.2, 0.1], [0.0, 0.0]],
               "q": [[0.0, 0.0], [0.1, 0.0]], "rho": [[0.1, 0.0], [0.0, 0.0]]}
MC_BATTERY = {
    7: ([[2.0]], [[0.5]], [[1.5]], [[0.2]], [[3.0]], [[0.3]], [[0.5]], [-0.8], None),
    13: ([[-1.2, 0.0], [0.3, -0.7]], [[0.3, 0.1], [0.0, 0.2]], np.eye(2),
         0.05 * np.eye(2), np.diag([1.0, 1.5]), np.zeros((2, 2)), 0.5 * np.eye(2),
         [1.0, 0.5], None),
    14: ([[-1.0, 0.3], [0.0, -1.5]], 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2),
         np.eye(2), np.zeros((2, 2)), np.eye(2), [1.0, -1.0], _FORCED_2X2),
}
# (battery index, paths): 10 000 paths is criterion 7's shape, 1 500 criterion 8's.
# Latencies of about 3.7, 2.3 and 1.3 s: the median sits in the middle cluster.
MC_CYCLE = ((7, 10_000), (14, 1_500), (13, 1_500))
MC_DT = 1e-3


def mc_crosscheck(seed: int) -> list[Problem]:
    """Criterion-7 instances with the initial state scaled by a seeded factor.

    The Monte Carlo streams keep criterion 7's fixed seeds (7000 + index), so
    the statistical check has the criterion's own false-alarm behaviour; the
    seed moves the initial state, and with it the value and the estimate.
    """
    rng = np.random.default_rng([seed, 3])
    problems = []
    for idx, paths in MC_CYCLE:
        A, C, B, D, Q, S, R, x0, grid = MC_BATTERY[idx]
        x0 = rng.uniform(0.5, 2.0) * np.asarray(x0, dtype=float)
        solver = {"seed": 7000 + idx, "simulate": {"paths": paths, "dt": MC_DT}}
        doc = _doc(A, C, B, D, Q, S, R, x0, grid, solver)
        problems.append(Problem(f"battery{idx}-paths{paths}", doc,
                                flags=["--simulate", str(paths)],
                                expect={"paths": paths}))
    return problems


def check_mc(problem: Problem, code: int, report: dict):
    if code != EXIT_OK:
        return False, float("inf"), f"exit {code} on a solvable problem"
    doc = problem.doc
    sim = report["simulation"]
    if sim["paths"] != problem.expect["paths"]:
        return False, float("inf"), f"simulated {sim['paths']} paths"
    P = np.asarray(report["solution"]["P"])
    x0 = np.asarray(doc["x0"])
    if doc["n"] == 1 and "inhomogeneity" not in doc:
        ref = solve_1d(*(doc[k][0][0] for k in "ACBDQSR"))
        V = ref.P * x0[0] ** 2
        p_err = abs(P[0, 0] - ref.P) / (1.0 + abs(ref.P))
    else:
        sys, w = _system(doc)
        if not verify_static_stabilizing(sys, w, P).passed:
            return False, float("inf"), "verify_static_stabilizing rejects P"
        V = report["value"]["V"]
        p_err = 0.0
        if "inhomogeneity" not in doc:
            p_err = abs(V - float(x0 @ P @ x0)) / (1.0 + abs(V))
    if p_err > 1e-6:
        return False, p_err, "reported P or V disagrees with the reference"
    est, se = sim["estimate"], sim["std_error"]
    tol = max(3.0 * se, 0.02 * abs(V) + 0.01)
    err = abs(est - V) / (1.0 + abs(V))
    ok = abs(est - V) <= tol
    return ok, max(err, p_err), "" if ok else f"estimate {est:.6f} vs V {V:.6f} (tol {tol:.6f})"


def path_steps(report: dict) -> int:
    sim = report.get("simulation")
    if not sim:
        return 0
    return int(sim["paths"]) * int(round(sim["horizon"] / sim["dt"]))


WORKLOADS = {
    "scalar-sweep": Workload("scalar-sweep", scalar_sweep, check_scalar, trace_cycle_s=1.0),
    "matrix-ladder": Workload("matrix-ladder", matrix_ladder, check_ladder, trace_cycle_s=3.5),
    "mc-crosscheck": Workload("mc-crosscheck", mc_crosscheck, check_mc, trace_cycle_s=7.5),
}
