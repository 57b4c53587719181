"""The GARE pipeline on floats (n = m = 1) equals the matrix route, bit for bit.

For n = m = 1, ``solve_gare`` reduces by the pre-feedback, runs the epsilon
path and verifies its candidate on Python floats (``riccati._Floats``).  The
reference here runs the same steps on 1 x 1 matrices, through the matrix
primitives (``_transform``, ``CostWeights``, ``solve_lyapunov``,
``riccati._Matrices.gare_terms``, ``control_pseudoinverse`` underneath),
and the two must agree on every float of the outcome, the sign of zero
included, on every diagnostics entry and reason, and on the type and text of
every error raised.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import slq.riccati
import slq.stabilizability
from slq import (
    CostWeights,
    GareConfig,
    GareSolution,
    GareUnsolvable,
    GareVerification,
    find_stabilizer,
    is_stabilizer,
    solve_gare,
    stabilizability_report,
    verify_static_stabilizing,
)
from slq.errors import InvalidInputError, LyapunovUnsolvableError, NotStabilizableError
from slq.linalg import as_matrix, fro, symmetrize
from slq.riccati import _NOT_A_STABILIZER, _newton_limit, _select_feedback, _transform
from slq.stability import solve_lyapunov
from test_acceptance import degenerate_scalar, scalar_system, scalar_weights

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


# ---------------------------------------------------------------- the matrix route

def _matrix_verify(sys1, w, P, cfg):
    """``verify_static_stabilizing`` on matrices."""
    M = slq.riccati._Matrices
    Pm = symmetrize(P, "P")
    N, N_dag, U0, res_norm, rdefect, n_min, Theta0 = M.gare_terms(sys1, w, Pm, cfg.psd_tol)
    picked = _select_feedback(M, sys1, sys1, N, N_dag, U0, Theta0, cfg.flow, Pm)
    failures = (
        (res_norm > cfg.res_tol * (1.0 + fro(Pm)), "limit fails the ARE residual check"),
        (rdefect > cfg.range_tol, "limit fails the range condition"),
        (n_min < -cfg.psd_tol * (1.0 + fro(N)), "R + D'PD is not positive semidefinite"),
        (picked is None, "no feedback of the admissible family stabilizes the system"),
    )
    theta, pi = picked if picked is not None else (None, None)
    return GareVerification(res_norm, n_min, rdefect, theta, pi,
                            next((text for failed, text in failures if failed), None))


def _matrix_path(tsys, tw, G, cfg, diagnostics):
    """``_epsilon_path`` on matrices."""
    eye_m = np.eye(tsys.m)
    prev = limit = settled_at = None
    solves = diagnostics["epsilon_solves"] = []
    for eps in cfg.epsilon_schedule:
        w_eps = CostWeights(tw.Q, tw.S, tw.R + eps * eye_m)
        P_eps, solve = _newton_limit(tsys, w_eps, G if prev is None else prev[1],
                                     cfg.flow.stat_tol)
        entry = {"epsilon": eps, **solve}
        solves.append(entry)
        if P_eps is None:
            return None, (f"strictly convex solve failed at epsilon={eps:g}: "
                          f"{solve['failed']}")
        if prev is not None:
            ratio = eps / prev[0]
            prev_limit, limit = limit, P_eps
            if ratio != 1.0:
                limit = P_eps + (P_eps - prev[1]) * (ratio / (1.0 - ratio))
            entry["change"] = fro(P_eps - prev[1])
            settled = (entry["change"] < cfg.path_tol * (1.0 + fro(P_eps))
                       or prev_limit is not None
                       and fro(limit - prev_limit) < cfg.path_tol * (1.0 + fro(limit)))
            if not settled:
                settled_at = None
            elif settled_at is None:
                settled_at = eps
        prev = (eps, P_eps)
    if settled_at is None:
        return None, ("epsilon path did not settle by the end of the schedule; "
                      "problem unsolvable or ill-conditioned")
    P = symmetrize(limit)
    diagnostics["settled_at_epsilon"] = settled_at
    diagnostics["extrapolation_norm"] = fro(P - prev[1])
    return P, None


def _matrix_solve(sys1, w, cfg):
    """``solve_gare`` on matrices, from the given reduction stabilizer."""
    Sigma = as_matrix(cfg.reduction_stabilizer, "reduction_stabilizer")
    tsys, tw = _transform(sys1, w, Sigma)
    try:
        G = solve_lyapunov(tsys.pair(), tw.Q)
    except LyapunovUnsolvableError as exc:
        if is_stabilizer(sys1, Sigma):
            raise
        raise InvalidInputError(_NOT_A_STABILIZER) from exc
    diagnostics = {"sigma": Sigma}
    P, solve = _newton_limit(tsys, tw, G, cfg.flow.stat_tol)
    check = None if P is None else _matrix_verify(sys1, w, P, cfg)
    if check is not None and check.passed:
        diagnostics["epsilon_solves"] = [{"epsilon": 0.0, **solve}]
    else:
        P, reason = _matrix_path(tsys, tw, G, cfg, diagnostics)
        if P is None:
            return GareUnsolvable(reason, diagnostics)
        check = _matrix_verify(sys1, w, P, cfg)
    diagnostics.update(are_residual=check.are_residual, range_defect=check.range_defect,
                       n_min_eig=check.n_min_eig)
    if check.reason is not None:
        return GareUnsolvable(check.reason, diagnostics)
    return GareSolution(P=P, Theta=check.theta, Pi=check.pi, diagnostics=diagnostics)


# ---------------------------------------------------------------- comparison

def _bits(x) -> tuple:
    """A float's bits; every NaN counts as one."""
    return ("nan",) if math.isnan(x) else (x, math.copysign(1.0, x))


def _assert_same(x, y, where="outcome"):
    assert type(x) is type(y), (where, x, y)
    if isinstance(x, float):
        assert _bits(x) == _bits(y), (where, x, y)
    elif isinstance(x, np.ndarray):
        assert x.shape == y.shape and x.dtype == y.dtype, (where, x, y)
        for i, (u, v) in enumerate(zip(x.ravel().tolist(), y.ravel().tolist())):
            _assert_same(u, v, f"{where}[{i}]")
    elif isinstance(x, dict):
        assert x.keys() == y.keys(), (where, x, y)
        for k in x:
            _assert_same(x[k], y[k], f"{where}.{k}")
    elif isinstance(x, (list, tuple)):
        assert len(x) == len(y), (where, x, y)
        for i, (u, v) in enumerate(zip(x, y)):
            _assert_same(u, v, f"{where}[{i}]")
    elif isinstance(x, (GareSolution, GareUnsolvable, GareVerification)):
        _assert_same(vars(x), vars(y), where)
    else:
        assert x == y, (where, x, y)


def _outcome(solver, *args):
    """What the solver returns, or (type, text) of what it raises."""
    try:
        return solver(*args)
    except Exception as exc:                # noqa: BLE001 -- compared as a value
        return type(exc), str(exc)


def _assert_routes_agree(coeffs, Sigma=None):
    sys1, w = scalar_system(*coeffs[:4]), scalar_weights(*coeffs[4:])
    if Sigma is None:
        Sigma = find_stabilizer(sys1)
        if Sigma is None:
            with pytest.raises(NotStabilizableError):
                solve_gare(sys1, w)
            return None
    cfg = GareConfig(reduction_stabilizer=Sigma)
    floats = _outcome(solve_gare, sys1, w, cfg)
    _assert_same(floats, _outcome(_matrix_solve, sys1, w, cfg), f"solve_gare{coeffs}")
    return floats


# ---------------------------------------------------------------- draws

def _scalar_sweep_coeffs(seed):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [problem.expect["coeffs"] for problem in workloads.scalar_sweep(seed)]


def _log_uniform(rng, k):
    """k coefficients of magnitude 1e-12 ... 1e12, random sign, a tenth zero."""
    mags = 10.0 ** rng.uniform(-12.0, 12.0, k)
    signs = rng.choice((-1.0, 1.0), k)
    return tuple(float(v) for v in np.where(rng.random(k) < 0.1, 0.0, signs * mags))


def test_scalar_sweep_categories_agree():
    # the benchmark's not-stabilizable, unsolvable, solvable and degenerate draws
    kinds = set()
    for coeffs in _scalar_sweep_coeffs(11):
        out = _assert_routes_agree(tuple(float(v) for v in coeffs))
        kinds.add(type(out).__name__)
    assert kinds == {"NoneType", "GareSolution", "GareUnsolvable"}


def test_log_uniform_coefficients_agree():
    rng = np.random.default_rng(2801)
    solved = 0
    for _ in range(300):
        out = _assert_routes_agree(_log_uniform(rng, 7))
        solved += isinstance(out, GareSolution)
    assert solved >= 30


def test_noise_free_control_and_indefinite_weights_agree():
    # D = 0 draws, and draws whose Q and R are indefinite (R < 0 half the time)
    rng = np.random.default_rng(2802)
    outcomes = set()
    for k in range(300):
        a, c, b, d, q, s, r = (float(v) for v in rng.uniform(-3.0, 3.0, 7))
        if k % 2:
            d = 0.0
        out = _assert_routes_agree((a, c, b, d, q, s, r))
        outcomes.add(type(out).__name__)
    assert outcomes == {"NoneType", "GareSolution", "GareUnsolvable"}


def test_degenerate_control_weight_agrees():
    # N(P) = 0 exactly at the solution (criterion 4's construction): the
    # direct route mostly fails and the epsilon path decides
    rng = np.random.default_rng(2803)
    on_the_path = 0
    for _ in range(100):
        out = _assert_routes_agree(tuple(float(v) for v in degenerate_scalar(rng)))
        assert isinstance(out, GareSolution)
        on_the_path += "settled_at_epsilon" in out.diagnostics
    assert on_the_path >= 50


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_pre_feedbacks_that_overflow_or_do_not_stabilize_agree():
    # a huge Sigma overflows Q~ = Q + 2 S Sigma + R Sigma^2, or, with S = R = 0,
    # A + B Sigma (|B| >= 1) or C + D Sigma (|B| tiny, |D| >= 1); a moderate
    # one need not stabilize
    rng = np.random.default_rng(2804)
    raised = set()
    for k in range(200):
        coeffs = list(_log_uniform(rng, 7))
        scale = rng.uniform(0.1, 10.0)
        if k % 4 == 1:
            coeffs[5] = coeffs[6] = 0.0
            big, tiny = 10.0 ** rng.uniform(0.0, 12.0), 1e-12
            coeffs[2], coeffs[3] = (big, tiny) if k % 8 == 1 else (tiny, big)
            scale = 10.0 ** rng.uniform(300.0, 308.0)
        elif k % 4 == 2:
            scale = 10.0 ** rng.uniform(100.0, 308.0)
        out = _assert_routes_agree(tuple(coeffs), [[float(rng.choice((-1.0, 1.0)) * scale)]])
        if isinstance(out, tuple):
            raised.add(out[1])
    assert {"matrix has non-finite entries", "A has non-finite entries",
            "C has non-finite entries", _NOT_A_STABILIZER} <= raised


def test_the_verifier_agrees_on_arbitrary_candidates():
    # candidates that are no solution: the findings, the picked feedback,
    # and the restricted search where N(P) is singular
    rng = np.random.default_rng(2805)
    cfg = GareConfig()
    for k in range(300):
        a, c, b, d, q, s, r = (float(v) for v in rng.uniform(-3.0, 3.0, 7))
        if k % 3 == 0:
            r = 0.0 if k % 2 else -d * d * 0.75    # N(P) = 0 at P = 0 or P = 0.75
        sys1, w = scalar_system(a, c, b, d), scalar_weights(q, s, r)
        for P in ([[0.0]], [[-0.0]], [[0.75]], [[float(rng.uniform(-5.0, 5.0))]]):
            _assert_same(_outcome(verify_static_stabilizing, sys1, w, P, cfg),
                         _outcome(_matrix_verify, sys1, w, P, cfg),
                         f"verify{(a, c, b, d, q, s, r, P)}")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_the_verifier_agrees_where_values_leave_the_float_range():
    # (x + x) / 2 overflows above 9e307, sqrt(x * x) above 1.3e154 and below
    # 1.5e-154, and 1 / x for x below 5.6e-309, where a kept N(P) needs no
    # rank floor (psd_tol = 0).  With D = 1, R + D'PD of R = P = 8e307 is
    # finite and its symmetrization is not; with a small drift and D = 0, a
    # P near the largest float leaves every other term finite.  P is given
    # as a number or as a 1 x 1 list.
    rng = np.random.default_rng(2806)
    extremes = (1e-308, 1e-200, 1e-160, 1e160, 1e200, 1e300, 8e307, 1.7e308)
    for k in range(400):
        a, c, b, d, q, s = (float(v) for v in rng.uniform(-3.0, 3.0, 6))
        r = float(rng.choice((-1.0, 1.0)) * rng.choice(extremes))
        p = float(rng.choice((-1.0, 1.0)) * rng.choice(extremes))
        if k % 4 == 1:
            d = 0.0
        elif k % 4 == 2:
            a, c, b, d = a * 1e-4, c * 1e-4, b * 1e-4, 0.0
        elif k % 4 == 3:
            a, c, b, d, r, p = a * 1e-4, c * 1e-4, b * 1e-4, 1.0, 8e307, 8e307
        sys1, w = scalar_system(a, c, b, d), scalar_weights(q, s, r)
        P = p if k % 3 else [[p]]
        for cfg in (GareConfig(), GareConfig(psd_tol=0.0)):
            _assert_same(_outcome(verify_static_stabilizing, sys1, w, P, cfg),
                         _outcome(_matrix_verify, sys1, w, P, cfg),
                         f"verify{(a, c, b, d, q, s, r, P, cfg.psd_tol)}")


def test_the_scalar_positivity_test_is_the_cholesky_factor(monkeypatch):
    # the decision accepts the value p of its certified gain exactly where
    # [p] has a Cholesky factor; any other value is one that floats cannot
    # hold ('unsettled')
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    for p in (1.0, 5e-324, 1e308, 0.0, -0.0, -5e-324, -1.0):
        monkeypatch.setattr(slq.riccati, "_scalar_gain_value",
                            lambda sys, w: lambda theta, P, tol=None: p)
        try:
            np.linalg.cholesky(np.array([[p]]))
            factored = True
        except np.linalg.LinAlgError:
            factored = False
        report = stabilizability_report(sys1)
        assert report.stabilizable is factored, p
        assert report.flow_status == ("certified" if factored else "unsettled"), p
        if factored:
            assert _bits(report.P[0, 0].item()) == _bits(p)


def test_each_scalar_problem_enters_float_arithmetic_once(monkeypatch):
    # one conversion to floats per decision (the restricted searches of the
    # verifier included) and one per GARE solve, on every scalar-sweep draw
    calls = {"problem": 0, "report": 0}
    problem, report = slq.riccati._Floats.problem, slq.stabilizability.stabilizability_report

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(slq.riccati._Floats, "problem", staticmethod(counted("problem", problem)))
    monkeypatch.setattr(slq.stabilizability, "stabilizability_report", counted("report", report))
    draws, solves = _scalar_sweep_coeffs(11), 0
    for coeffs in draws:
        sys1, w = scalar_system(*coeffs[:4]), scalar_weights(*coeffs[4:])
        gamma = slq.stabilizability.stabilizability_report(sys1).gamma
        if gamma is not None:
            solve_gare(sys1, w, GareConfig(reduction_stabilizer=gamma))
            solves += 1
        assert calls["problem"] == calls["report"] + solves, coeffs
    assert solves > 0 and calls["report"] > len(draws)


def test_the_float_route_raises_for_a_mismatched_candidate_or_weights():
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    w = scalar_weights(1.0, 0.0, 1.0)
    with pytest.raises(InvalidInputError, match="P must be n x n"):
        verify_static_stabilizing(sys1, w, np.eye(2))
    with pytest.raises(InvalidInputError, match="P has non-finite entries"):
        verify_static_stabilizing(sys1, w, [[math.inf]])
    w2 = CostWeights(np.eye(2), np.zeros((1, 2)), np.eye(1))
    with pytest.raises(InvalidInputError, match="do not match"):
        verify_static_stabilizing(sys1, w2, [[1.0]])
    assert verify_static_stabilizing(sys1, w, [[math.sqrt(2.0) - 1.0]]).passed
