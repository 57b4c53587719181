import numpy as np
import pytest
import scipy.linalg

from conftest import ladder_plain_problem, random_scalar_system, scalar_stabilizable
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
    stabilizability_report,
    transform_problem,
    verify_static_stabilizing,
)
from slq.errors import (
    InvalidInputError,
    InvalidTerminalError,
    LyapunovUnsolvableError,
    NotStabilizableError,
    NotStableError,
)
from slq.linalg import fro
from slq.oracle1d import solve_1d
import slq.riccati
from slq.riccati import _epsilon_path, _newton_limit, control_pseudoinverse
from slq.stability import solve_lyapunov
from test_acceptance import criterion_04_battery, criterion_05_draws, criterion_06_instances
from test_stability import _second_moment_operator


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


def test_strict_are_unsolvable(monkeypatch):
    # only a double root with R + P = 0, so no strictly convex solution;
    # Newton from G decides that alone, without a flow
    calls = []
    original = slq.riccati._adaptive_flow

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(slq.riccati, "_adaptive_flow", counting)
    sys1 = scalar_system(-1.0, 0.0, 1.0, 0.0)
    assert solve_are_strict(sys1, scalar_weights(-2.0, 0.0, 1.0)) is None
    assert calls == []


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
    # from the Lyapunov value G, above the stabilizing root, Newton reaches it
    G = solve_lyapunov(sys1.pair(), w.Q)
    P, _ = _newton_limit(sys1, w, G, FlowConfig().stat_tol)
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
    P, _ = _newton_limit(sys2, w, G, FlowConfig().stat_tol)
    assert fro(P - expected) <= 1e-9


def _path_limit(sys_i, w_i):
    """The epsilon path of ``solve_gare``'s reduction, without the direct
    route: its diagnostics and its limit (None where the path breaks down)."""
    tsys, tw = transform_problem(sys_i, w_i, find_stabilizer(sys_i))
    G = solve_lyapunov(tsys.pair(), tw.Q)
    diagnostics = {}
    P, _ = _epsilon_path(tsys, tw, G, GareConfig(), diagnostics)
    return diagnostics, P


def _assert_direct_route_matches_the_path(sys_i, w_i, out):
    assert isinstance(out, GareSolution)
    [route] = out.diagnostics["epsilon_solves"]
    assert route.keys() == {"epsilon", "steps"} and route["epsilon"] == 0.0
    assert "settled_at_epsilon" not in out.diagnostics
    assert "extrapolation_norm" not in out.diagnostics
    _, P_path = _path_limit(sys_i, w_i)
    assert fro(out.P - P_path) <= 1e-8 * (1.0 + fro(P_path))


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


def test_pipeline_gains_pass_an_independent_certificate():
    # Every gain the pipeline hands out -- the stabilizability decision's
    # Gamma and each solution's Theta -- makes the second-moment generator
    # M -> A_cl M + M A_cl' + C_cl M C_cl' Hurwitz, checked by its spectrum
    # and not through the Lyapunov solver.
    def mean_square_stable(sys_i, gain):
        loop = sys_i.closed_loop(gain)
        return np.max(np.linalg.eigvals(_second_moment_operator(loop)).real) < 0.0

    gammas = thetas = 0
    for sys_i, w_i in _two_route_instances():
        report = stabilizability_report(sys_i)
        if not report.stabilizable:
            continue
        assert mean_square_stable(sys_i, report.gamma), (sys_i, w_i)
        gammas += 1
        out = solve_gare(sys_i, w_i, GareConfig(reduction_stabilizer=report.gamma))
        if isinstance(out, GareSolution):
            assert mean_square_stable(sys_i, out.Theta), (sys_i, w_i)
            thetas += 1
    assert gammas >= 620 and thetas >= 230


def _gare_outcome(sys_i, w_i):
    try:
        return solve_gare(sys_i, w_i)
    except NotStabilizableError as exc:
        return exc


def _coordinate_change(rng, n):
    """A random non-orthogonal T with singular values in [1, 3], 3 attained."""
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sv = rng.uniform(1.0, 3.0, n)
    sv[0] = 3.0
    return U @ np.diag(sv) @ V.T


def test_gare_is_invariant_under_cost_scaling_and_state_coordinates():
    # Scaling (Q, S, R) by c scales P by c.  In coordinates x = Tz the data
    # become [T^-1 A T, T^-1 C T; T^-1 B, T^-1 D] and (T'QT, ST, R), so P
    # becomes T'PT and, where N(P) > 0 makes it unique, Theta becomes Theta T.
    # In controls u = Vw they become [A, C; BV, DV] and (Q, V'S, V'RV), so P
    # stays and, where unique, Theta becomes V^-1 Theta.  The verdict never
    # moves.
    instances = (criterion_04_battery(np.random.default_rng(1004))
                 + criterion_06_instances(np.random.default_rng(1006)))
    draws = np.random.default_rng(4243)
    instances += [_indefinite_draw(draws) for _ in range(20)]
    rng = np.random.default_rng(7)
    rng_v = np.random.default_rng(8)
    solved = regular = 0
    for sys_i, w_i in instances:
        base = _gare_outcome(sys_i, w_i)
        for c in (0.25, 4.0):
            out = _gare_outcome(sys_i, CostWeights(c * w_i.Q, c * w_i.S, c * w_i.R))
            assert type(out) is type(base), (sys_i, w_i, c)
            if isinstance(base, GareSolution):
                assert fro(out.P - c * base.P) <= 1e-8 * (1.0 + fro(c * base.P)), (sys_i, w_i, c)
        T = _coordinate_change(rng, sys_i.n)
        assert np.linalg.cond(T) <= 10.0
        Ti = np.linalg.inv(T)
        out = _gare_outcome(
            ControlledSystem(Ti @ sys_i.A @ T, Ti @ sys_i.C @ T, Ti @ sys_i.B, Ti @ sys_i.D),
            CostWeights(T.T @ w_i.Q @ T, w_i.S @ T, w_i.R))
        assert type(out) is type(base), (sys_i, w_i, T)
        V = _coordinate_change(rng_v, sys_i.m)
        out_v = _gare_outcome(ControlledSystem(sys_i.A, sys_i.C, sys_i.B @ V, sys_i.D @ V),
                              CostWeights(w_i.Q, V.T @ w_i.S, V.T @ w_i.R @ V))
        assert type(out_v) is type(base), (sys_i, w_i, V)
        if not isinstance(base, GareSolution):
            continue
        solved += 1
        P_ref = T.T @ base.P @ T
        assert fro(out.P - P_ref) <= 1e-8 * (1.0 + fro(P_ref)), (sys_i, w_i, T)
        assert fro(out_v.P - base.P) <= 1e-8 * (1.0 + fro(base.P)), (sys_i, w_i, V)
        if base.diagnostics["n_min_eig"] > 1e-6:
            regular += 1
            Theta_ref = base.Theta @ T
            assert fro(out.Theta - Theta_ref) <= 1e-8 * (1.0 + fro(Theta_ref)), (sys_i, w_i, T)
            Theta_ref = np.linalg.solve(V, base.Theta)
            assert fro(out_v.Theta - Theta_ref) <= 1e-8 * (1.0 + fro(Theta_ref)), (sys_i, w_i, V)
    assert solved >= 80 and regular >= 70


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
    _assert_direct_route_matches_the_path(sys_n, CostWeights(Q, S, R), out)
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
    # solve_gare takes its Lyapunov solve for G as the certificate of Sigma
    sys1 = scalar_system(1.0, 0.0, 1.0, 0.0)
    w = scalar_weights(1.0, 0.0, 1.0)
    with pytest.raises(InvalidInputError, match="not a stabilizer"):
        transform_problem(sys1, w, [[0.0]])
    with pytest.raises(InvalidInputError, match="not a stabilizer"):
        solve_gare(sys1, w, GareConfig(reduction_stabilizer=[[0.0]]))


def test_gare_passes_on_a_failed_solve_of_a_stabilizer(monkeypatch):
    # a G solve that fails for a stabilizer must not read as a bad Sigma
    def unsettled(pair, Lambda):
        raise LyapunovUnsolvableError("the Lyapunov fixed point did not settle in 9 sweeps")

    monkeypatch.setattr(slq.riccati, "solve_lyapunov", unsettled)
    sys1 = scalar_system(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(LyapunovUnsolvableError, match="did not settle"):
        solve_gare(sys1, scalar_weights(1.0, 0.0, 1.0), GareConfig(reduction_stabilizer=[[-2.0]]))


# ---------------------------------------------------------------- GARE

@pytest.mark.parametrize("k", range(25, 30))
def test_gare_direct_route_on_matrix_systems(k):
    # criterion 6's 2x2 systems: R + D'PD > 0, so one Newton solve at
    # epsilon = 0 gives the path's limit
    sys_i, w_i = criterion_06_instances(np.random.default_rng(1006))[k]
    assert sys_i.n == 2
    _assert_direct_route_matches_the_path(sys_i, w_i, solve_gare(sys_i, w_i))


def test_gare_singular_control_weight_falls_back_to_the_path():
    # a scalar-sweep 'degenerate' draw: N(P) = 0 at the solution, so Newton at
    # epsilon = 0 fails on its first step and the epsilon path decides
    coeffs = (-2.328513224951325, -1.511516205021674, 1.5599169306365415,
              -2.4226304197708473, -0.44292863959903267, 0.9749289259947951,
              1.095797257396005)
    out = solve_gare(scalar_system(*coeffs[:4]), scalar_weights(*coeffs[4:]))
    assert isinstance(out, GareSolution)
    first, *rest = out.diagnostics["epsilon_solves"]
    assert [r["epsilon"] for r in [first, *rest]] == list(GareConfig().epsilon_schedule)
    assert "change" not in first and all(r.keys() == {"epsilon", "steps", "change"} for r in rest)
    assert out.diagnostics["settled_at_epsilon"] in GareConfig().epsilon_schedule[1:]
    oracle = solve_1d(*coeffs)
    assert oracle.solvable
    assert abs(out.P[0, 0] - oracle.P) <= 1e-8 * (1.0 + abs(oracle.P))
    assert oracle.strategy.contains(float(out.Theta[0, 0]), margin=1e-9)


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
    assert out.reason == ("strictly convex solve failed at epsilon=0.1: "
                          "a Newton gain is not certified mean-square stabilizing")
    [route] = out.diagnostics["epsilon_solves"]
    assert route["failed"] == "a Newton gain is not certified mean-square stabilizing"


def test_gare_settles_when_consecutive_limit_estimates_agree():
    # P_eps is linear in eps here (slope about 48), so its last step along
    # the default schedule, 2.2e-6 relative, is above path_tol; the
    # extrapolated limits of the last two steps agree to 6.5e-10 relative and
    # give the closed form.
    a, c, b, d, q, s, r = 2.8746, 0.4148, 0.7288, 0.0, -0.01095, 0.6517, 0.3225
    sys1, w = scalar_system(a, c, b, d), scalar_weights(q, s, r)
    diagnostics, P = _path_limit(sys1, w)
    assert P is not None and verify_static_stabilizing(sys1, w, P).passed
    assert diagnostics["epsilon_solves"][-1]["change"] > GareConfig().path_tol * (1.0 + fro(P))
    oracle = solve_1d(a, c, b, d, q, s, r)
    assert oracle.solvable
    assert abs(P[0, 0] - oracle.P) <= 1e-8 * (1.0 + abs(oracle.P))


def test_settled_at_epsilon_is_where_the_path_settles_for_good():
    # Q = S = R = 0 over a stable drift: N(P) = 0, so the epsilon path runs,
    # and P_eps = 0 at every epsilon, so it settles at the second epsilon
    # and stays settled
    out = solve_gare(scalar_system(-1.0, 0.0, 1.0, 0.0), scalar_weights(0.0, 0.0, 0.0))
    assert isinstance(out, GareSolution) and out.P[0, 0] == 0.0
    first, *rest = out.diagnostics["epsilon_solves"]
    assert "change" not in first and [r["change"] for r in rest] == [0.0] * len(rest)
    assert out.diagnostics["settled_at_epsilon"] == GareConfig().epsilon_schedule[1]


def test_gare_two_dimensional_residuals():
    A = np.array([[-1.0, 0.3], [0.0, -1.5]])
    sys2 = ControlledSystem(A, 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2))
    w = CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2))
    out = solve_gare(sys2, w)
    assert isinstance(out, GareSolution)
    maps = GareMaps(sys2, w)
    L = maps.cross_part(out.P)
    residual = maps.lyapunov_part(out.P) - L @ np.linalg.solve(maps.control_part(out.P), L.T)
    assert fro(residual) <= 1e-6 * (1 + fro(out.P))
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
    # the regularized gain at the last epsilon, computed on the original
    # data, solves N(P) Theta = -L(P)' at the path's limit
    sys1 = scalar_system(0.0, 0.0, 1.0, 0.0)
    w = scalar_weights(1.0, 0.0, 1.0)
    _, P = _path_limit(sys1, w)
    eps = GareConfig().epsilon_schedule[-1]
    P_eps = solve_gare(sys1, CostWeights(w.Q, w.S, w.R + eps * np.eye(1))).P
    N_eps = w.R + eps * np.eye(1) + sys1.D.T @ P_eps @ sys1.D
    L_eps = P_eps @ sys1.B + sys1.C.T @ P_eps @ sys1.D + w.S.T
    theta_lim = -np.linalg.solve(N_eps, L_eps.T)
    maps = GareMaps(sys1, w)
    N, Lt = maps.control_part(P), maps.cross_part(P).T
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
    assert bad.are_residual <= 1e-10 and bad.theta is None and not bad.passed
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
    assert report.theta is None and not report.passed


# n = 1, m = 2, B = D = 0: N(P) = R and L(P)' = S, whatever the candidate P
@pytest.mark.parametrize("R, S, defect", [
    (np.eye(2), [[1.0], [0.0]], 0.0),
    (np.diag([1.0, 0.0]), [[0.0], [1.0]], 0.5),
    (np.diag([1.0, 0.0]), [[3.0], [0.0]], 0.0),
], ids=["identity", "orthogonal", "contained"])
def test_verify_range_defect(R, S, defect):
    sys1 = ControlledSystem([[-1.0]], [[0.0]], [[0.0, 0.0]], [[0.0, 0.0]])
    report = verify_static_stabilizing(sys1, CostWeights([[1.0]], S, R), [[0.5]])
    assert report.range_defect == pytest.approx(defect, abs=1e-12)


def test_control_pseudoinverse_is_one_rank_rule():
    # an eigenvalue at or below psd_tol (1 + ||N||) is zero for N^+ and U0 alike
    N = np.diag([1.0, 1e-9])
    N_dag, U0 = control_pseudoinverse(N)
    assert np.allclose(N_dag, np.diag([1.0, 0.0]), rtol=0.0, atol=1e-15)
    assert np.allclose(np.abs(U0), [[0.0], [1.0]])
    N_dag, U0 = control_pseudoinverse(N, psd_tol=1e-12)
    assert np.allclose(N_dag, np.diag([1.0, 1e9]), rtol=1e-12) and U0.shape == (2, 0)
    # below the relative floor 1e-10 s_max, whatever psd_tol says
    N_dag, U0 = control_pseudoinverse(np.diag([1e6, 1e-5]), psd_tol=1e-14)
    assert np.allclose(N_dag, np.diag([1e-6, 0.0]), rtol=1e-12) and U0.shape == (2, 1)
    # zero up to rounding: every direction is null
    N_dag, U0 = control_pseudoinverse(np.full((2, 2), 1e-17))
    assert not N_dag.any() and U0.shape == (2, 2)


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


@pytest.mark.parametrize("n", [4, 8, 16])
def test_inexact_newton_keeps_the_steps_and_limit_of_the_exact_one(monkeypatch, n):
    # Newton-Kleinman settles each gain's value only to 0.01 r^2 relative,
    # r the relative ARE residual; with every value settled to rounding
    # instead, the stabilizability decision and the GARE take the same
    # steps and reach the same P
    doc = ladder_plain_problem(n, n // 2)
    sys_n = ControlledSystem(doc["A"], doc["C"], doc["B"], doc["D"])
    w_n = CostWeights(doc["Q"], doc["S"], doc["R"])

    def outcome():
        report = stabilizability_report(sys_n)
        sol = solve_gare(sys_n, w_n)
        assert isinstance(sol, GareSolution)
        steps = [entry["steps"] for entry in sol.diagnostics["epsilon_solves"]]
        return (report.flow_status, report.flow_steps, report.newton_steps, steps), \
            report.P, sol.P

    inexact = outcome()
    monkeypatch.setattr(slq.riccati, "_newton_forcing", lambda r: 0.0)
    exact = outcome()
    assert inexact[0] == exact[0]
    assert inexact[0][2] >= 2 and sum(inexact[0][3]) >= 2
    for P_inexact, P_exact in zip(inexact[1:], exact[1:]):
        assert fro(P_inexact - P_exact) <= 1e-12 * fro(P_exact)
