import numpy as np
import pytest

from slq import ControlledSystem, SystemPair, is_l2_stable


def random_stable_pair(rng, n, max_tries=50):
    """Draw a mean-square stable [A, C] by shifting the drift spectrum left."""
    for _ in range(max_tries):
        A = rng.uniform(-1.0, 1.0, (n, n))
        shift = 0.5 * np.max(np.abs(np.linalg.eigvals(A + A.T))) + rng.uniform(0.3, 1.5)
        A = A - shift * np.eye(n)
        C = rng.uniform(-0.4, 0.4, (n, n))
        pair = SystemPair(A, C)
        if is_l2_stable(pair):
            return pair
    raise RuntimeError("failed to draw a stable pair")


def random_scalar_system(rng):
    """Uniform scalar [A, C; B, D] draw."""
    A, C, B, D = rng.uniform(-3.0, 3.0, 4)
    return ControlledSystem([[A]], [[C]], [[B]], [[D]])


def scalar_coeffs(sys):
    return (float(sys.A[0, 0]), float(sys.C[0, 0]),
            float(sys.B[0, 0]), float(sys.D[0, 0]))


def scalar_stabilizable(sys):
    A, C, B, D = scalar_coeffs(sys)
    return (2.0 * A + C * C) * D * D < (B + C * D) ** 2


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def _scaled(rng, shape, norm2):
    M = rng.standard_normal(shape)
    return norm2 * M / np.linalg.norm(M, 2)


def ladder_plain_problem(n, m, seed=2016):
    """A generic stochastic problem as the benchmark's matrix ladder builds
    its 'plain' kind: A = At - B K0 and C = Ct - D K0 with ||At + I||_2 = 0.5
    and ||Ct||_2 = 0.6, so K0 stabilizes it, and [[Q, S'], [S, R]] > 0.
    Returns the problem-file document."""
    rng = np.random.default_rng([seed, n, m])
    B = rng.standard_normal((n, m)) / np.sqrt(n)
    D = _scaled(rng, (n, m), 0.3)
    At = -np.eye(n) + _scaled(rng, (n, n), 0.5)
    Ct = _scaled(rng, (n, n), 0.6)
    K0 = _scaled(rng, (m, n), 0.5)
    M = rng.standard_normal((n + m, n + m))
    W = M @ M.T / (n + m) + 0.5 * np.eye(n + m)
    mats = {"A": At - B @ K0, "C": Ct - D @ K0, "B": B, "D": D,
            "Q": W[:n, :n], "S": W[n:, :n], "R": W[n:, n:]}
    return {"n": n, "m": m, **{k: v.tolist() for k, v in mats.items()}, "x0": [1.0] * n}
