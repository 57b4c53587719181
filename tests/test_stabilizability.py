import numpy as np
import pytest

from conftest import random_scalar_system, scalar_stabilizable
from slq import (
    ControlledSystem,
    CostWeights,
    check_sa_condition,
    find_stabilizer,
    integrate_riccati_flow,
    is_stabilizer,
    stabilizability_report,
)
from slq.errors import UnsupportedInputError
from slq.linalg import is_psd


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


def test_residual_is_the_converged_flow_derivative():
    # the right-hand side of the converged flow at P is the unit-weight ARE
    # residual; D != 0 so that I + D'PD is not the identity
    sys2 = ControlledSystem([[0.3, 1.0], [0.0, -0.2]], [[0.2, 0.0], [0.1, 0.3]],
                            [[0.0], [1.0]], [[0.1], [0.0]])
    report = stabilizability_report(sys2)
    assert report.stabilizable and report.flow.status == "converged"
    assert report.residual == report.flow.derivative_norm
    assert report.residual <= 1e-10 * (1.0 + np.linalg.norm(report.P))
