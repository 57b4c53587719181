import numpy as np
import pytest
import scipy.linalg

from conftest import random_scalar_system, scalar_stabilizable
from slq import (
    ControlledSystem,
    CostWeights,
    FlowConfig,
    GareConfig,
    GareMaps,
    GareSolution,
    GareUnsolvable,
    find_stabilizer,
    integrate_riccati_flow,
    is_stabilizer,
    solve_are_strict,
    solve_gare,
    transform_problem,
    verify_static_stabilizing,
)
from slq.errors import InvalidInputError, InvalidTerminalError, NotStabilizableError, NotStableError
from slq.linalg import fro
from slq.riccati import _newton_limit, _strict_limit
from slq.stability import solve_lyapunov
from test_acceptance import criterion_04_battery, criterion_05_draws, criterion_06_instances


def scalar_system(a, c, b, d):
    return ControlledSystem([[a]], [[c]], [[b]], [[d]])


def scalar_weights(q, s, r):
    return CostWeights([[q]], [[s]], [[r]])


# ---------------------------------------------------------------- flow

def test_flow_zero_fixed_point():
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    flow = integrate_riccati_flow(sys1, scalar_weights(0.0, 0.0, 1.0), [[0.0]])
    assert flow.status == "converged"
    assert abs(flow.values[-1][0, 0]) <= 1e-12


def test_flow_logistic_convergence():
    sys1 = scalar_system(0.0, 0.0, 1.0, 0.0)
    flow = integrate_riccati_flow(sys1, scalar_weights(1.0, 0.0, 1.0), [[0.0]])
    assert flow.status == "converged"
    assert abs(flow.values[-1][0, 0] - 1.0) <= 1e-9


def test_flow_divergence():
    sys1 = scalar_system(1.0, 0.0, 0.0, 0.0)
    flow = integrate_riccati_flow(sys1, scalar_weights(1.0, 0.0, 1.0), [[0.0]])
    assert flow.status == "diverged"


@pytest.mark.parametrize("system, weights, G", [
    (scalar_system(-1.0, 0.0, 1.0, 1.0), scalar_weights(1.0, 0.0, -1.0), [[0.0]]),
    # R + D'GD = diag(1, -1): the first matrix right-hand side finds it
    (ControlledSystem(-np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2)),
     CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2)), np.diag([0.0, -2.0])),
], ids=["scalar", "2x2"])
def test_flow_invalid_terminal(system, weights, G):
    with pytest.raises(InvalidTerminalError, match="not positive definite"):
        integrate_riccati_flow(system, weights, G)


def test_flow_grid_is_increasing_and_symmetric(rng):
    A = np.array([[-1.0, 0.4], [0.0, -0.8]])
    sys2 = ControlledSystem(A, 0.2 * np.eye(2), np.eye(2), 0.1 * np.eye(2))
    w = CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2))
    flow = integrate_riccati_flow(sys2, w, np.zeros((2, 2)))
    assert flow.status == "converged"
    assert np.all(np.diff(flow.times) > 0)
    for P in flow.values[:: max(1, len(flow.values) // 10)]:
        assert np.array_equal(P, P.T)


def test_flow_restart_semigroup():
    A = np.array([[-1.0, 0.4], [0.0, -0.8]])
    sys2 = ControlledSystem(A, 0.2 * np.eye(2), np.eye(2), 0.1 * np.eye(2))
    w = CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2))
    short = FlowConfig(max_horizon=1.0, stat_tol=1e-16)
    double = FlowConfig(max_horizon=2.0, stat_tol=1e-16)
    leg1 = integrate_riccati_flow(sys2, w, np.zeros((2, 2)), short)
    leg2 = integrate_riccati_flow(sys2, w, leg1.values[-1], short)
    direct = integrate_riccati_flow(sys2, w, np.zeros((2, 2)), double)
    assert leg1.status == "max-horizon" and direct.times[-1] == 2.0
    assert fro(leg2.values[-1] - direct.values[-1]) <= 1e-7


# ---------------------------------------------------------------- strict ARE

def test_strict_are_scalar_root():
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    P = solve_are_strict(sys1, scalar_weights(1.0, 0.0, 1.0))
    assert P is not None
    assert abs(P[0, 0] - (np.sqrt(2.0) - 1.0)) <= 1e-9


def test_strict_are_zero_cost():
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    P = solve_are_strict(sys1, scalar_weights(0.0, 0.0, 1.0))
    assert P is not None and abs(P[0, 0]) <= 1e-10


def test_strict_are_unsolvable():
    # only a double root with R + P = 0, so no strictly convex solution
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    assert solve_are_strict(sys1, scalar_weights(-2.0, 0.0, 1.0)) is None


def test_strict_are_requires_stable_pair():
    sys1 = scalar_system(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(NotStableError):
        solve_are_strict(sys1, scalar_weights(1.0, 0.0, 1.0))


# ---------------------------------------------------------------- Newton-Kleinman

def test_newton_refuses_a_destabilizing_scalar_start():
    # P^2 + 2P - 3 = 0: the root 1 has gain -1, the root -3 has gain 3 and
    # a_cl = 2.  From -2.5 (a_cl = 1.5) an unguarded Newton runs to -3.
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    w = scalar_weights(3.0, 0.0, 1.0)
    start = np.array([[-2.5]])
    assert _newton_limit(sys1, w, start, FlowConfig().stat_tol)[0] is None
    G = solve_lyapunov(sys1.pair(), w.Q)
    P, route = _strict_limit(sys1, w, G, FlowConfig(), start=start)
    assert route["method"] == "flow"
    assert abs(P[0, 0] - 1.0) <= 1e-9


# Two decoupled states, started on the root (the first entry) of a
# non-stabilizing gain of the first.  Every number involved is dyadic, so the
# fixed point holds that entry exactly and only the guard stops Newton there.
# 'not-contracting': dx = (-3x + u) dt + 2x dW with cost 1.25 x^2 + u^2 has
# the roots 0.5 and -2.5; at -2.5, a_cl = -0.5 (Hurwitz) but 2 a_cl + c^2 = 3.
# 'not-hurwitz': dx = (-x + u) dt with cost 3 x^2 + u^2 has the roots 1 and
# -3; from -2.5, a_cl = 1.5.
@pytest.mark.parametrize("A, C, q1, start, expected", [
    (np.diag([-3.0, -1.0]), np.diag([2.0, 0.0]), 1.25, np.diag([-2.5, 5.0]), np.diag([0.5, 1.0])),
    (-np.eye(2), np.zeros((2, 2)), 3.0, np.diag([-2.5, 5.0]), np.eye(2)),
], ids=["not-contracting", "not-hurwitz"])
def test_newton_refuses_a_gain_that_is_not_mean_square_stabilizing(A, C, q1, start, expected):
    sys2 = ControlledSystem(A, C, np.eye(2), np.zeros((2, 2)))
    w = CostWeights(np.diag([q1, 3.0]), np.zeros((2, 2)), np.eye(2))
    assert not is_stabilizer(sys2, -start)
    assert _newton_limit(sys2, w, start, FlowConfig().stat_tol)[0] is None
    G = solve_lyapunov(sys2.pair(), w.Q)
    P, route = _strict_limit(sys2, w, G, FlowConfig(), start=start)
    assert route["method"] == "flow"
    assert fro(P - expected) <= 1e-9


def _indefinite_draw(rng):
    """Random [A, C; B, D] with n <= 6, indefinite Q, and R indefinite now and then."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, n + 1))
    A = rng.normal(size=(n, n)) / np.sqrt(n) - rng.uniform(0.0, 1.5) * np.eye(n)
    C = rng.uniform(0.0, 0.5) * rng.normal(size=(n, n)) / np.sqrt(n)
    B = rng.normal(size=(n, m))
    D = rng.uniform(0.0, 0.5) * rng.normal(size=(n, m))
    Q = rng.normal(size=(n, n))
    R = rng.normal(size=(m, m))
    return (ControlledSystem(A, C, B, D),
            CostWeights((Q + Q.T) / 2.0, 0.5 * rng.normal(size=(m, n)),
                        (R + R.T) / 4.0 + np.eye(m)))


def _two_route_instances():
    yield from criterion_04_battery(np.random.default_rng(1004))
    for a, c, b, d, q, s, r in criterion_05_draws(np.random.default_rng(1005)):
        yield scalar_system(a, c, b, d), scalar_weights(q, s, r)
    yield from criterion_06_instances(np.random.default_rng(1006))
    rng = np.random.default_rng(4242)
    for _ in range(50):
        yield _indefinite_draw(rng)


def test_flow_and_newton_agree_on_every_epsilon():
    # The flow from G and the warm-started Newton path, each on its own, on
    # every epsilon the path reaches: same verdict, same limit.
    stat_tol = FlowConfig().stat_tol
    solved = failed = 0
    for sys_i, w_i in _two_route_instances():
        Sigma = find_stabilizer(sys_i)
        if Sigma is None:
            continue
        tsys, tw = transform_problem(sys_i, w_i, Sigma)
        G = solve_lyapunov(tsys.pair(), tw.Q)
        start = G
        for eps in GareConfig().epsilon_schedule:
            w_eps = CostWeights(tw.Q, tw.S, tw.R + eps * np.eye(sys_i.m))
            try:
                flow = integrate_riccati_flow(tsys, w_eps, G)
            except InvalidTerminalError:
                flow = None
            P_flow = flow.values[-1] if flow is not None and flow.status == "converged" else None
            P_newton, _ = _newton_limit(tsys, w_eps, start, stat_tol)
            assert (P_flow is None) == (P_newton is None), (sys_i, w_i, eps)
            if P_flow is None:
                failed += 1     # the epsilon path stops here
                break
            solved += 1
            assert fro(P_newton - P_flow) <= 1e-8 * (1.0 + fro(P_flow)), (sys_i, w_i, eps)
            start = P_newton
    assert solved >= 1900 and failed >= 380


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_gare_matches_care_oracle(n):
    # C = D = 0: the GARE is the CARE, which scipy solves independently
    rng = np.random.default_rng(3000 + n)
    m = max(1, n // 2)
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    B = rng.normal(size=(n, m))
    M = rng.normal(size=(m, m))
    R = M @ M.T / m + 0.5 * np.eye(m)
    S = 0.5 * rng.normal(size=(m, n))
    F = rng.normal(size=(n, n)) / np.sqrt(n)
    Q = F.T @ F + S.T @ np.linalg.solve(R, S)    # Q - S'R^{-1}S >= 0
    sys_n = ControlledSystem(A, np.zeros((n, n)), B, np.zeros((n, m)))
    out = solve_gare(sys_n, CostWeights(Q, S, R))
    assert isinstance(out, GareSolution)
    P_ref = scipy.linalg.solve_continuous_are(A, B, Q, R, s=S.T)
    Theta_ref = -np.linalg.solve(R, B.T @ P_ref + S)
    assert fro(out.P - P_ref) <= 1e-6 * (1.0 + fro(P_ref))
    assert fro(out.Theta - Theta_ref) <= 1e-6 * (1.0 + fro(Theta_ref))


# ---------------------------------------------------------------- transform

def test_transform_identity():
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    w = scalar_weights(1.0, 0.5, 1.0)
    tsys, tw = transform_problem(sys1, w, [[0.0]])
    assert np.array_equal(tsys.A, sys1.A) and np.array_equal(tsys.C, sys1.C)
    assert np.array_equal(tw.Q, w.Q) and np.array_equal(tw.S, w.S)


def test_transform_scalar_values():
    sys1 = scalar_system(0.0, 0.0, 1.0, 0.0)
    tsys, tw = transform_problem(sys1, scalar_weights(1.0, 0.0, 1.0), [[-1.0]])
    assert tsys.A[0, 0] == -1.0 and tsys.C[0, 0] == 0.0
    assert tw.Q[0, 0] == 2.0 and tw.S[0, 0] == -1.0


def test_transform_round_trip(rng):
    sys1 = scalar_system(-1.0, 0.2, 1.0, 0.3)
    w = scalar_weights(0.7, -0.4, 1.2)
    Sigma = np.array([[-0.8]])
    tsys, tw = transform_problem(sys1, w, Sigma)
    # undoing with -Sigma needs -Sigma to stabilize the transformed system,
    # i.e. the original [A, C] stable, which holds here
    back_sys, back_w = transform_problem(tsys, tw, -Sigma)
    assert fro(back_sys.A - sys1.A) <= 1e-14
    assert fro(back_w.Q - w.Q) <= 1e-14
    assert fro(back_w.S - w.S) <= 1e-14


def test_transform_rejects_non_stabilizer():
    sys1 = scalar_system(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(InvalidInputError):
        transform_problem(sys1, scalar_weights(1.0, 0.0, 1.0), [[0.0]])


# ---------------------------------------------------------------- GARE

def test_gare_scalar_regular():
    out = solve_gare(scalar_system(0.0, 0.0, 1.0, 0.0), scalar_weights(1.0, 0.0, 1.0))
    assert isinstance(out, GareSolution)
    assert abs(out.P[0, 0] - 1.0) <= 1e-7
    assert abs(out.Theta[0, 0] + 1.0) <= 1e-7


def test_gare_degenerate_control_weight():
    # Q = (2A + C^2) R and S = (B + C) R: P = -R with N(P) = 0
    out = solve_gare(scalar_system(-1.0, 0.0, 0.0, 1.0), scalar_weights(-2.0, 0.0, 1.0))
    assert isinstance(out, GareSolution)
    assert abs(out.P[0, 0] + 1.0) <= 1e-7
    assert abs(out.diagnostics["n_min_eig"]) <= 1e-7
    assert abs(out.Theta[0, 0]) < np.sqrt(2.0)


def test_gare_zero_cost_stable_drift():
    out = solve_gare(scalar_system(-1.0, 0.0, 1.0, 0.0), scalar_weights(0.0, 0.0, 1.0))
    assert isinstance(out, GareSolution)
    assert abs(out.P[0, 0]) <= 1e-7
    assert abs(out.Theta[0, 0]) <= 1e-7


def test_gare_zero_cost_unstable_drift_minimum_energy():
    # cheapest mean-square stabilization of dX = (X + u) dt: value 2 x^2
    out = solve_gare(scalar_system(1.0, 0.0, 1.0, 0.0), scalar_weights(0.0, 0.0, 1.0))
    assert isinstance(out, GareSolution)
    assert abs(out.P[0, 0] - 2.0) <= 1e-6
    assert abs(out.Theta[0, 0] + 2.0) <= 1e-6


def test_gare_not_stabilizable():
    with pytest.raises(NotStabilizableError):
        solve_gare(scalar_system(1.0, 0.0, 0.0, 0.0), scalar_weights(1.0, 0.0, 1.0))


def test_gare_unsolvable_negative_discriminant():
    out = solve_gare(scalar_system(-1.0, 0.0, 1.0, 0.0), scalar_weights(-2.0, 0.0, 1.0))
    assert isinstance(out, GareUnsolvable)
    assert len(out.epsilon_path) >= 0


def test_gare_two_dimensional_residuals():
    A = np.array([[-1.0, 0.3], [0.0, -1.5]])
    sys2 = ControlledSystem(A, 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2))
    w = CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2))
    out = solve_gare(sys2, w)
    assert isinstance(out, GareSolution)
    maps = GareMaps(sys2, w)
    assert fro(maps.residual(out.P)) <= 1e-6 * (1 + fro(out.P))
    assert is_stabilizer(sys2, out.Theta)


def test_gare_reduction_stabilizer_independence():
    # the static stabilizing solution does not depend on the pre-feedback
    sys1 = scalar_system(0.5, 0.3, 1.0, 0.2)
    w = scalar_weights(2.0, 0.1, 0.8)
    out1 = solve_gare(sys1, w)
    assert isinstance(out1, GareSolution)
    gamma = find_stabilizer(sys1)
    sigma2 = gamma + 0.4
    assert is_stabilizer(sys1, sigma2)
    out2 = solve_gare(sys1, w, GareConfig(reduction_stabilizer=sigma2))
    assert fro(out1.P - out2.P) <= 1e-6 * (1 + fro(out1.P))


def test_gare_epsilon_gain_limit():
    # the regularized gains computed on the original data converge to a
    # solution of N(P) Theta = -L(P)'
    sys1 = scalar_system(0.0, 0.0, 1.0, 0.0)
    w = scalar_weights(1.0, 0.0, 1.0)
    out = solve_gare(sys1, w)
    maps = GareMaps(sys1, w)
    thetas = []
    for eps, P_eps in out.epsilon_path:
        N_eps = w.R + eps * np.eye(1) + sys1.D.T @ P_eps @ sys1.D
        L_eps = P_eps @ sys1.B + sys1.C.T @ P_eps @ sys1.D + w.S.T
        thetas.append(-np.linalg.solve(N_eps, L_eps.T))
    theta_lim = thetas[-1]
    N, Lt = maps.control_part(out.P), maps.cross_part(out.P).T
    assert fro(N @ theta_lim + Lt) <= 1e-6


def test_verify_rejects_non_stabilizing_root():
    # the smaller root of the reduced quadratic fails the gain bound
    sys1 = scalar_system(-1.0, 0.0, 0.0, 1.0)
    w = scalar_weights(1.0, -0.5, 1.0)
    alpha, beta, gamma = 2.0, 3.0, 0.25
    delta = beta ** 2 - 4 * alpha * gamma
    y1 = (beta - np.sqrt(delta)) / (2 * alpha)
    y2 = (beta + np.sqrt(delta)) / (2 * alpha)
    bad = verify_static_stabilizing(sys1, w, [[y1 - 1.0]])
    good = verify_static_stabilizing(sys1, w, [[y2 - 1.0]])
    off = verify_static_stabilizing(sys1, w, [[y2 - 1.0 + 0.1]])
    assert bad.are_residual <= 1e-10 and not bad.stabilizer_found and not bad.passed
    assert bad.reason == "no feedback of the admissible family stabilizes the system"
    assert good.passed and good.reason is None
    assert off.reason == "limit fails the ARE residual check" and not off.passed


def test_verify_partially_degenerate_without_freedom():
    # m = 2 with one degenerate control channel whose null direction has no
    # drift authority: the candidate solves the equation but its induced
    # feedback family contains no stabilizer
    sys1 = ControlledSystem([[-1.0]], [[0.0]], [[1.0, 0.0]], [[0.0, 1.0]])
    w = CostWeights([[3.0]], [[-1.5], [0.0]], np.diag([1.0, 0.5]))
    report = verify_static_stabilizing(sys1, w, [[-0.5]])
    assert report.are_residual <= 1e-10
    assert abs(report.n_min_eig) <= 1e-12
    assert report.range_defect <= 1e-12
    assert not report.stabilizer_found and not report.passed


def test_verify_zero_matrix_on_zero_cost():
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    report = verify_static_stabilizing(sys1, scalar_weights(0.0, 0.0, 1.0), [[0.0]])
    assert report.passed


def test_verify_pipeline_output(rng):
    for _ in range(10):
        sys1 = random_scalar_system(rng)
        if not scalar_stabilizable(sys1):
            continue
        w = scalar_weights(*rng.uniform(-2, 2, 2), rng.uniform(0.2, 2.0))
        out = solve_gare(sys1, w)
        if isinstance(out, GareSolution):
            assert verify_static_stabilizing(sys1, w, out.P).passed
