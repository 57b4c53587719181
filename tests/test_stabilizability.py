from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    ladder_plain_problem,
    random_scalar_system,
    random_stable_pair,
    scalar_stabilizable,
)
from test_acceptance import criterion_04_battery, criterion_06_instances
from test_riccati import _coordinate_change
from test_stability import _counting_lapack, _second_moment_operator

import slq.riccati
from slq import (
    ControlledSystem,
    CostWeights,
    GareMaps,
    check_sa_condition,
    find_stabilizer,
    integrate_riccati_flow,
    is_stabilizer,
    solve_gare,
    stabilizability_report,
    verify_static_stabilizing,
)
from slq.errors import InternalInconsistencyError, UnsupportedInputError
from slq.oracle1d import solve_1d
from slq.linalg import fro, is_psd


def unit_weights(n, m):
    return CostWeights(np.eye(n), np.zeros((m, n)), np.eye(m))


def test_find_stabilizer_scalar_example():
    sys1 = ControlledSystem([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    report = stabilizability_report(sys1)
    assert report.stabilizable
    # unit-weight ARE: 1 - P^2 = 0 with positive root P = 1, gain -P
    assert np.allclose(report.P, [[1.0]], atol=1e-8)
    assert np.allclose(report.gamma, [[-1.0]], atol=1e-8)


def test_find_stabilizer_no_authority_stable():
    sys1 = ControlledSystem([[-1.0]], [[0.0]], [[0.0]], [[0.0]])
    gamma = find_stabilizer(sys1)
    assert np.array_equal(gamma, np.zeros((1, 1)))


def test_find_stabilizer_no_authority_unstable():
    sys1 = ControlledSystem([[1.0]], [[0.0]], [[0.0]], [[0.0]])
    assert find_stabilizer(sys1) is None


def test_no_control_report_carries_the_lyapunov_residual():
    # B = D = 0: every checked gain is 0, the unit-weight ARE is
    # P A + A'P + C'P C + I = 0, and the report carries that equation's
    # residual for its P; shifted unstable, the flow diverges
    A = np.array([[-0.6, 0.3], [-0.2, -0.9]])
    C = np.array([[0.3, 0.1], [0.0, 0.2]])
    none = np.zeros((2, 1))
    report = stabilizability_report(ControlledSystem(A, C, none, none))
    assert report.stabilizable and report.flow_status == "certified"
    assert np.array_equal(report.gamma, np.zeros((1, 2)))
    P = report.P
    want = np.linalg.norm(P @ A + A.T @ P + C.T @ P @ C + np.eye(2))
    assert want > 0.0
    assert report.residual == pytest.approx(want, rel=1e-9, abs=0.0)
    report = stabilizability_report(ControlledSystem(A + np.eye(2), C, none, none))
    assert not report.stabilizable and report.flow_status == "diverged"
    assert report.gamma is None and report.P is None and report.residual is None


def test_check_sa_condition_examples():
    assert check_sa_condition(ControlledSystem([[1.0]], [[0.0]], [[0.0]], [[0.0]]))
    assert not check_sa_condition(ControlledSystem([[-1.0]], [[0.0]], [[0.0]], [[0.0]]))
    assert check_sa_condition(ControlledSystem([[0.0]], [[0.0]], [[0.0]], [[1.0]]))


def test_check_sa_condition_dimension_error():
    sys2 = ControlledSystem(np.eye(2), np.zeros((2, 2)), np.ones((2, 1)), np.zeros((2, 1)))
    with pytest.raises(UnsupportedInputError):
        check_sa_condition(sys2)


def test_scalar_verdict_matches_closed_criterion(rng):
    for _ in range(60):
        sys1 = random_scalar_system(rng)
        if not sys1.B.any() and not sys1.D.any():
            continue
        gamma = find_stabilizer(sys1)
        assert (gamma is not None) == scalar_stabilizable(sys1)
        if gamma is not None:
            assert is_stabilizer(sys1, gamma)


def test_not_stabilizable_implies_sa_condition(rng):
    hits = 0
    for _ in range(200):
        sys1 = random_scalar_system(rng)
        if find_stabilizer(sys1) is None:
            hits += 1
            assert check_sa_condition(sys1)
    assert hits > 0


def test_unit_weight_flow_is_monotone(rng):
    # value of the finite-horizon unit-weight problem grows with the horizon
    for _ in range(10):
        sys1 = random_scalar_system(rng)
        if not scalar_stabilizable(sys1):
            continue
        w = CostWeights(np.eye(1), np.zeros((1, 1)), np.eye(1))
        flow = integrate_riccati_flow(sys1, w, np.zeros((1, 1)))
        for k in range(len(flow.times) - 1):
            step = flow.values[k + 1] - flow.values[k]
            assert is_psd(step, tol=1e-8)


def test_multi_input_stabilizer(rng):
    sys1 = ControlledSystem([[1.0]], [[0.5]], [[1.0, 0.3]], [[0.0, 0.2]])
    gamma = find_stabilizer(sys1)
    assert gamma is not None and gamma.shape == (2, 1)
    assert is_stabilizer(sys1, gamma)


def test_two_dimensional_stabilizer():
    A = np.array([[0.5, 0.0], [0.2, -0.3]])
    sys2 = ControlledSystem(A, 0.2 * np.eye(2), np.eye(2), np.zeros((2, 2)))
    report = stabilizability_report(sys2)
    assert report.stabilizable
    assert is_stabilizer(sys2, report.gamma)
    assert is_psd(report.P) and report.residual < 1e-7


def test_residual_is_the_unit_weight_are_residual():
    # the reported residual is the unit-weight ARE residual at the reported
    # P; D != 0 so that I + D'PD is not the identity
    sys2 = ControlledSystem([[0.3, 1.0], [0.0, -0.2]], [[0.2, 0.0], [0.1, 0.3]],
                            [[0.0], [1.0]], [[0.1], [0.0]])
    report = stabilizability_report(sys2)
    assert report.stabilizable
    maps = GareMaps(sys2, unit_weights(2, 1))
    L = maps.cross_part(report.P)
    want = fro(maps.lyapunov_part(report.P)
               - L @ np.linalg.solve(maps.control_part(report.P), L.T))
    assert report.residual == pytest.approx(want, rel=1e-3, abs=1e-14 * (1.0 + fro(report.P)))
    assert report.residual <= 1e-10 * (1.0 + fro(report.P))


def test_max_horizon_flow_with_a_certified_stabilizer():
    # A is skew and B B' = b^2 I, so Sig(t) = tanh(b t) / b * I solves the
    # unit-weight flow: it reaches only tanh(1) of its limit I / b at the
    # horizon cap t = 1 / b, and every gain along it stabilizes
    b = 1e-4
    A = np.array([[0.0, 0.05, 0.0], [-0.05, 0.0, 0.02], [0.0, -0.02, 0.0]])
    V, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [1.0, 0.0, 1.0]]))
    sys3 = ControlledSystem(A, np.zeros((3, 3)), b * V, np.zeros((3, 3)))
    flow = integrate_riccati_flow(sys3, unit_weights(3, 3), np.zeros((3, 3)))
    assert flow.status == "max-horizon"
    report = stabilizability_report(sys3)
    assert report.stabilizable and report.flow_status == "certified"
    assert np.allclose(report.P, np.eye(3) / b, rtol=1e-8)
    assert report.residual <= 1e-10 * (1.0 + fro(report.P))
    spectrum = np.linalg.eigvals(_second_moment_operator(sys3.closed_loop(report.gamma)))
    assert np.max(spectrum.real) < 0.0


def test_certification_budget_on_a_diverging_flow(monkeypatch):
    # an uncontrolled mode dx = -x/2 dt + 3x/2 dW, which is not mean-square
    # stable, hidden by an orthogonal change of coordinates: no gain the flow
    # produces certifies, and the failed checks stay logarithmic in its steps
    rng = np.random.default_rng(5)
    n, m = 8, 4
    A, C = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-0.3, 0.3, (n, n))
    B, D = rng.uniform(-1.0, 1.0, (n, m)), rng.uniform(-0.2, 0.2, (n, m))
    A[0], C[0], B[0], D[0] = 0.0, 0.0, 0.0, 0.0
    A[0, 0], C[0, 0] = -0.5, 1.5
    T, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sys8 = ControlledSystem(T.T @ A @ T, T.T @ C @ T, T.T @ B, T.T @ D)
    calls = []
    original = slq.riccati._stable_lyapunov

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(slq.riccati, "_stable_lyapunov", counting)
    report = stabilizability_report(sys8)
    assert not report.stabilizable and report.flow_status == "diverged"
    assert report.flow_steps >= 64 and report.newton_steps == 0
    assert 1 <= len(calls) <= int(np.log2(report.flow_steps)) + 2


@pytest.mark.parametrize("rho", [1.01, 1.1, 2.0])
def test_a_refused_flow_checkpoint_costs_two_krylov_runs_at_most(monkeypatch, rho):
    # dx_1 = -x_1 dt + sqrt(2 rho) x_1 dW is not mean-square stable for
    # rho > 1 and no control reaches it, so every checkpoint's gain is
    # refused.  Each refusal makes two GMRES runs of at most n(n+1)/2 + 1 = 4
    # sweeps, on Q_cl from the flow state and on I from 0, and the checks stay
    # logarithmic in the flow's steps
    sys2 = ControlledSystem(np.diag([-1.0, 0.05]), np.diag([np.sqrt(2.0 * rho), 0.2]),
                            [[0.0], [1.0]], [[0.0], [0.0]])
    sylvester = _counting_lapack(monkeypatch, "dtrsyl")
    report = stabilizability_report(sys2)
    assert not report.stabilizable and report.flow_status == "diverged"
    assert len(sylvester) <= 8 * (np.log2(report.flow_steps) + 2)


def _route_systems():
    # n = 1 takes the float maps, n = 3 the matrix ones; neither flow
    # certifies its gain at step 0
    A = np.array([[0.4, 1.0, 0.0], [0.0, -0.2, 0.5], [0.3, 0.0, 0.1]])
    return [ControlledSystem([[0.5]], [[0.3]], [[1.0]], [[0.2]]),
            ControlledSystem(A, 0.2 * np.eye(3), [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                             [[0.1, 0.0], [0.0, 0.0], [0.0, 0.1]])]


@pytest.mark.parametrize("index", [0, 1], ids=["n1", "n3"])
def test_converged_flow_takes_the_same_finish(monkeypatch, index):
    # without checkpoints the flow runs to its own limit, and the one finish
    # from there gives the P and Gamma of the certified route.  For n = m = 1
    # that route runs no flow: its P and Gamma are the converged limit of the
    # flow from 0 and the gain there
    sys_i = _route_systems()[index]
    base = stabilizability_report(sys_i)
    assert base.flow_status == "certified" and (base.flow_steps > 0) == (sys_i.n > 1)
    if sys_i.n == 1:
        flow = integrate_riccati_flow(sys_i, unit_weights(1, 1), np.zeros((1, 1)))
        assert flow.status == "converged"
        P = flow.values[-1]
        maps = GareMaps(sys_i, unit_weights(1, 1))
        gamma = -np.linalg.solve(maps.control_part(P), maps.cross_part(P).T)
    else:
        original = slq.riccati._adaptive_flow
        monkeypatch.setattr(slq.riccati, "_adaptive_flow",
                            lambda *args, stop=None: original(*args))
        report = stabilizability_report(sys_i)
        assert report.stabilizable and report.flow_status == "converged"
        assert report.flow_steps > base.flow_steps
        assert report.residual <= 1e-10 * (1.0 + fro(report.P))
        P, gamma = report.P, report.gamma
    scale = 1.0 + fro(base.P)
    assert fro(P - base.P) <= 1e-8 * scale
    assert fro(gamma - base.gamma) <= 1e-8 * scale
    assert is_stabilizer(sys_i, gamma)


def _failing_newton(are, gain_value, norm, P0, stat_tol):
    return None, {"steps": 2, "failed": "a Newton iterate is not finite"}


@pytest.mark.parametrize("index", [0, 1], ids=["n1", "n3"])
def test_newton_failure_after_a_certified_gain_raises(monkeypatch, index):
    # Newton from a certified gain of the unit-weight ARE cannot fail; if it
    # does after the flow, the decision raises and names Newton's cause.  The
    # n = 1 system has m = 2 inputs, so that its decision runs the flow
    sys_i = _route_systems()[index]
    if sys_i.n == 1:
        sys_i = ControlledSystem(sys_i.A, sys_i.C, [[1.0, 0.0]], [[0.2, 0.1]])
    monkeypatch.setattr(slq.riccati, "_newton", _failing_newton)
    with pytest.raises(InternalInconsistencyError, match="a Newton iterate is not finite$"):
        stabilizability_report(sys_i)


def test_a_scalar_decision_takes_its_gain_and_value_without_newton(monkeypatch):
    # for n = m = 1 a certified gain proves stabilizability, and its value is
    # the solution: no Newton runs, so no Newton failure can refuse it.  The
    # first system is a rounding-level tie, (B + CD)^2 - (2A + C^2) D^2 1.6e-14
    # of either term and P about 2e15, where Newton from the gain's value used
    # to fail; the second has large coefficients, where the residual's
    # rounding floor is above Newton's bound and 60 steps did not converge
    monkeypatch.setattr(slq.riccati, "_newton", _failing_newton)
    tie = ControlledSystem([[-1.8968702030094473]], [[-1.9509949850522033]],
                           [[-2.9311397206217285]], [[-1.594256083815981]])
    report = stabilizability_report(tie)
    assert _rate_gap(*(float(M[0, 0]) for M in (tie.A, tie.C, tie.B, tie.D))) > 0
    assert report.stabilizable and report.flow_status == "certified"
    assert report.P[0, 0] > 1e15 and is_stabilizer(tie, report.gamma)
    coeffs = (20915856.75265949, -167373.1832113623, -97084.00354199595, 0.0)
    large = ControlledSystem(*([[v]] for v in coeffs))
    report = stabilizability_report(large)
    assert (report.flow_status, report.flow_steps, report.newton_steps) == ("certified", 0, 0)
    exact = solve_1d(coeffs[0], coeffs[1], coeffs[2], coeffs[3], 1.0, 0.0, 1.0)
    assert abs(report.P[0, 0] - exact.P) <= 1e-14 * exact.P
    assert abs(report.gamma[0, 0] - exact.strategy.theta) <= 1e-14 * abs(exact.strategy.theta)


def test_a_scalar_value_that_overflows_is_unsettled():
    # 2A = -1e-320 is the rate of the least-cost gain 0, so every
    # stabilizer's unit-weight cost overflows; the system is classified not
    # stabilizable, where Newton from the infinite value used to raise
    report = stabilizability_report(ControlledSystem([[-5e-321]], [[0.0]], [[0.0]], [[0.0]]))
    assert not report.stabilizable
    assert (report.flow_status, report.P, report.gamma, report.residual) == \
        ("unsettled", None, None, None)


def _rate_gap(A, C, B, D) -> Fraction:
    """((B + CD)^2 - (2A + C^2) D^2) / max((B + CD)^2, |2A + C^2| D^2), exactly:
    positive iff some gain has a negative closed-loop rate, and relative to
    the larger of its two terms."""
    A, C, B, D = map(Fraction, (A, C, B, D))
    beta2, alpha_delta = (B + C * D) ** 2, (2 * A + C * C) * D * D
    return (beta2 - alpha_delta) / max(beta2, abs(alpha_delta))


def test_near_marginal_scalar_pairs_get_the_exact_verdict():
    # (B + CD)^2 - (2A + C^2) D^2 pushed to a log-uniform |g| in [1e-14, 1e-2]
    # of its terms by the choice of A.  Nothing raises, and wherever rounding
    # cannot tip it (|g| >= 1e-9) the verdict is the sign of g, which
    # check_sa_condition decides exactly
    rng = np.random.default_rng(2300)
    decided = 0
    for _ in range(500):
        C, B, D = rng.uniform(-3.0, 3.0, 3)
        g = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -2.0)
        alpha = (B + C * D) ** 2 * (1.0 - g) / (D * D)
        A = (alpha - C * C) / 2.0
        sys1 = ControlledSystem([[A]], [[C]], [[B]], [[D]])
        report = stabilizability_report(sys1)
        gap = _rate_gap(A, C, B, D)
        if abs(gap) >= Fraction(1, 10 ** 9):
            decided += 1
            assert report.stabilizable == (gap > 0) == (not check_sa_condition(sys1)), \
                (A, C, B, D)
    assert decided >= 250


def _orthogonal(rng, k):
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def _metamorphic_systems(rng):
    systems = [sys_i for sys_i, _ in criterion_04_battery(np.random.default_rng(1004))]
    systems += [sys_i for sys_i, _ in criterion_06_instances(np.random.default_rng(1006))]
    systems += [random_scalar_system(rng) for _ in range(40)]
    for _ in range(12):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        systems.append(ControlledSystem(rng.uniform(-1.0, 1.0, (n, n)),
                                        rng.uniform(-0.5, 0.5, (n, n)),
                                        rng.uniform(-1.0, 1.0, (n, m)),
                                        rng.uniform(-0.3, 0.3, (n, m))))
    return systems


def test_decision_is_invariant_under_orthogonal_changes(rng):
    # x = T z and u = V w keep the unit weights: P -> T'P T, Gamma -> V'Gamma T
    verdicts = set()
    for sys_i in _metamorphic_systems(rng):
        if not sys_i.B.any() and not sys_i.D.any():
            continue
        T, V = _orthogonal(rng, sys_i.n), _orthogonal(rng, sys_i.m)
        moved = ControlledSystem(T.T @ sys_i.A @ T, T.T @ sys_i.C @ T,
                                 T.T @ sys_i.B @ V, T.T @ sys_i.D @ V)
        base, other = stabilizability_report(sys_i), stabilizability_report(moved)
        assert other.stabilizable == base.stabilizable
        verdicts.add(base.stabilizable)
        if not base.stabilizable:
            continue
        scale = 1.0 + fro(base.P)
        assert fro(other.P - T.T @ base.P @ T) <= 1e-8 * scale
        assert fro(other.gamma - V.T @ base.gamma @ T) <= 1e-8 * scale
    assert verdicts == {True, False}


def _decided_systems(rng):
    """(system, stabilizable) pairs for n = 2, 3, 4, each far from the
    boundary: a stable pair behind a known gain K, so that u = K x gives it
    back, and an unstable mode dx_0 = x_0/2 dt + x_0/2 dW that neither B nor
    D reaches."""
    cases = []
    for n in (2, 3, 4):
        for m in (1, n - 1):
            pair = random_stable_pair(rng, n)
            B, D = rng.uniform(-1.0, 1.0, (n, m)), rng.uniform(-0.3, 0.3, (n, m))
            K = rng.uniform(-1.0, 1.0, (m, n))
            cases.append((ControlledSystem(pair.A - B @ K, pair.C - D @ K, B, D), True))
            A, C = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-0.3, 0.3, (n, n))
            B, D = rng.uniform(-1.0, 1.0, (n, m)), rng.uniform(-0.3, 0.3, (n, m))
            A[0], C[0], B[0], D[0] = 0.0, 0.0, 0.0, 0.0
            A[0, 0], C[0, 0] = 0.5, 0.5
            cases.append((ControlledSystem(A, C, B, D), False))
    return cases


def test_decision_is_invariant_under_non_orthogonal_changes():
    # x = T z and u = V w give [T^-1 A T, T^-1 C T; T^-1 B V, T^-1 D V].  The
    # unit weights do not follow, so P moves, but the verdict does not; the
    # gain Gamma of the new system stabilizes it, and V Gamma T^-1 the old one
    rng = np.random.default_rng(4244)
    for sys_i, stabilizable in _decided_systems(rng):
        T, V = _coordinate_change(rng, sys_i.n), _coordinate_change(rng, sys_i.m)
        Ti = np.linalg.inv(T)
        moved = ControlledSystem(Ti @ sys_i.A @ T, Ti @ sys_i.C @ T,
                                 Ti @ sys_i.B @ V, Ti @ sys_i.D @ V)
        base, other = stabilizability_report(sys_i), stabilizability_report(moved)
        assert base.stabilizable == other.stabilizable == stabilizable, (sys_i, T, V)
        if stabilizable:
            assert is_stabilizer(moved, other.gamma)
            assert is_stabilizer(sys_i, V @ other.gamma @ Ti)


def test_near_marginal_pairs_are_decided_without_raising():
    # B = D = C = 0 and max Re lambda(A) within 1e-14 of 0: the gain 0 is
    # certified and P is positive definite, but its eigenvalues spread over
    # 15 decades, so no margin relative to ||P|| may be asked of it
    rng = np.random.default_rng(8)
    n, stabilizable = 8, 0
    for _ in range(20):
        A = rng.uniform(-1.0, 1.0, (n, n))
        A -= (np.max(np.linalg.eigvals(A).real) + rng.uniform(1e-16, 1e-14)) * np.eye(n)
        sys8 = ControlledSystem(A, np.zeros((n, n)), np.zeros((n, 1)), np.zeros((n, 1)))
        report = stabilizability_report(sys8)
        if report.stabilizable:
            stabilizable += 1
            assert np.linalg.eigvalsh(report.P)[-1] > 1e13
            assert is_stabilizer(sys8, report.gamma)
    assert stabilizable >= 15


def test_a_slowly_contracting_stabilizable_system_is_decided():
    # diagonal, so it decides block by block.  At the gain of the limit the
    # first block's noise map has spectral radius 0.99787: ||map^k(I)||
    # needs more than 200 sweeps to reach 1/2, but an early iterate of the
    # gain's value solve meets Lyapunov's inequality
    A, C, B, D = ([-1.9574274652675498, -1.0], [2.001084531891264, 0.0],
                  [1.9064999054518736, 1.0], [-1.126848813914599, 0.0])
    sys2 = ControlledSystem(*(np.diag(v) for v in (A, C, B, D)))
    assert stabilizability_report(ControlledSystem(*([[v[0]]] for v in (A, C, B, D)))).stabilizable
    report = stabilizability_report(sys2)
    assert report.stabilizable and is_stabilizer(sys2, report.gamma)
    for i in range(2):
        oracle = solve_1d(A[i], C[i], B[i], D[i], 1.0, 0.0, 1.0)
        assert report.P[i, i] == pytest.approx(oracle.P, rel=1e-9)


def test_a_certified_limit_that_is_not_positive_definite_raises(monkeypatch):
    # the check after a certified gain refuses only a P that has no Cholesky
    # factor, such as one with a negative eigenvalue far below ||P||: Newton
    # hands such a P back, whose gain 0 (B = D = 0) is still certified
    P = np.diag([1e15, -1e-3])
    monkeypatch.setattr(slq.riccati, "_newton",
                        lambda are, gain_value, norm, P0, stat_tol: (P, {"steps": 1}))
    sys2 = ControlledSystem(-np.eye(2), np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(InternalInconsistencyError, match="not positive definite$"):
        stabilizability_report(sys2)


# The unit-weight flows of three scalar systems, pinned bit for bit: on
# floats the flow is IEEE arithmetic alone, so its steps and values hold on
# every platform.  Per system (A, C, B, D): integrate_riccati_flow's status,
# accepted steps, and last time and value (float.hex); then the report's
# status, flow and Newton steps and P.  The decision runs neither the flow
# nor Newton for n = m = 1: its one gain is refused, or certified, and then
# its value is P.
_SCALAR_FLOW_BITS = [
    ((1.0, 0.5, 0.2, 1.0),
     ("diverged", 247, "0x1.56ef736594494p+3", "0x1.966ad3dc9d180p+26"),
     ("refuted", 0, 0, None)),
    ((0.5, 0.3, 1.0, 0.2),
     ("converged", 74, "0x1.8a66f9a68229cp+3", "0x1.9e50755b535c4p+0"),
     ("certified", 0, 0, "0x1.9e50755b6fdbdp+0")),
    ((-0.3, 0.8, 0.6, -0.4),
     ("converged", 77, "0x1.35c054e8e619bp+6", "0x1.576d8cd192229p+2"),
     ("certified", 0, 0, "0x1.576d8cd24641ep+2")),
]


@pytest.mark.parametrize("coeffs, flow_bits, report_bits", _SCALAR_FLOW_BITS,
                         ids=["diverged", "certified", "converged"])
def test_scalar_flow_keeps_its_steps_and_bits(coeffs, flow_bits, report_bits):
    a, c, b, d = coeffs
    sys1 = ControlledSystem([[a]], [[c]], [[b]], [[d]])
    flow = integrate_riccati_flow(sys1, unit_weights(1, 1), [[0.0]])
    assert (flow.status, len(flow.times) - 1, float(flow.times[-1]).hex(),
            float(flow.values[-1, 0, 0]).hex()) == flow_bits
    report = stabilizability_report(sys1)
    P = None if report.P is None else float(report.P[0, 0]).hex()
    assert (report.flow_status, report.flow_steps, report.newton_steps, P) == report_bits


def test_a_newton_limit_and_a_verified_p_witness_their_gains_without_a_schur_form(monkeypatch):
    # the 4 x 4 system of the benchmark's matrix ladder, stabilizable with
    # convex weights: the flow's first checkpoint certifies its gain and
    # each Newton step its own, one Schur form each; the limit P certifies
    # its gain as the Lyapunov witness, and the verifier's P the feedback
    # -N^+ L', with none
    doc = ladder_plain_problem(4, 2)
    sys4 = ControlledSystem(*(np.array(doc[key]) for key in "ACBD"))
    w = CostWeights(*(np.array(doc[key]) for key in "QSR"))
    schur = _counting_lapack(monkeypatch, "dgees")
    report = stabilizability_report(sys4)
    forms = [kwargs for kwargs in schur if kwargs["lwork"] != -1]
    assert report.stabilizable and report.flow_steps == 0 and report.newton_steps > 0
    assert len(forms) == 1 + report.newton_steps
    P = solve_gare(sys4, w).P
    schur.clear()
    assert verify_static_stabilizing(sys4, w, P).passed
    assert schur == []
