import numpy as np
import pytest

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
