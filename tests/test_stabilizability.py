import numpy as np
import pytest

from conftest import random_scalar_system, scalar_stabilizable
from test_acceptance import criterion_04_battery, criterion_06_instances
from test_stability import _second_moment_operator

import slq.riccati
from slq import (
    ControlledSystem,
    CostWeights,
    GareMaps,
    check_sa_condition,
    find_stabilizer,
    integrate_riccati_flow,
    is_stabilizer,
    stabilizability_report,
)
from slq.errors import InternalInconsistencyError, UnsupportedInputError
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
    want = fro(GareMaps(sys2, unit_weights(2, 1)).residual(report.P))
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
    # from there gives the P and Gamma of the certified route
    sys_i = _route_systems()[index]
    base = stabilizability_report(sys_i)
    assert base.flow_status == "certified" and base.flow_steps > 0
    original = slq.riccati._adaptive_flow
    monkeypatch.setattr(slq.riccati, "_adaptive_flow",
                        lambda *args, stop=None: original(*args))
    report = stabilizability_report(sys_i)
    assert report.stabilizable and report.flow_status == "converged"
    assert report.flow_steps > base.flow_steps
    scale = 1.0 + fro(base.P)
    assert fro(report.P - base.P) <= 1e-8 * scale
    assert fro(report.gamma - base.gamma) <= 1e-8 * scale
    assert report.residual <= 1e-10 * (1.0 + fro(report.P))
    assert is_stabilizer(sys_i, report.gamma)


@pytest.mark.parametrize("index", [0, 1], ids=["n1", "n3"])
def test_newton_failure_after_a_certified_gain_raises(monkeypatch, index):
    # Newton from a certified gain of the unit-weight ARE cannot fail; if it
    # does, the decision raises and names Newton's cause
    monkeypatch.setattr(slq.riccati, "_newton",
                        lambda are, gain_value, norm, P0, stat_tol:
                        (None, 2, "a Newton iterate is not finite"))
    with pytest.raises(InternalInconsistencyError, match="a Newton iterate is not finite$"):
        stabilizability_report(_route_systems()[index])


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
