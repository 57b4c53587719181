import numpy as np
import pytest

from slq.errors import InvalidInputError
from slq.linalg import (
    as_matrix,
    fro,
    is_psd,
    pinv,
    symmetrize,
)


def penrose_gap(M, Md):
    """Worst violation of the four Penrose identities."""
    return max(
        fro(M @ Md @ M - M),
        fro(Md @ M @ Md - Md),
        fro((M @ Md).T - M @ Md),
        fro((Md @ M).T - Md @ M),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=["0d", "1d", "2d"])
def test_as_matrix_rejects_non_finite_entries(shape, bad):
    M = np.ones(shape)
    assert as_matrix(M).shape == {0: (1, 1), 1: (3, 1), 2: (2, 3)}[len(shape)]
    M.flat[-1] = bad
    with pytest.raises(InvalidInputError, match="^M has non-finite entries$"):
        as_matrix(M, "M")
    with pytest.raises(InvalidInputError, match="non-finite"):
        as_matrix(M.tolist())


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3))


def test_pinv_zero():
    assert np.array_equal(pinv(np.zeros((2, 2))), np.zeros((2, 2)))


def test_pinv_rank_deficient_diagonal():
    M = np.diag([2.0, 0.0])
    Md = pinv(M)
    assert np.allclose(Md, np.diag([0.5, 0.0]))
    assert penrose_gap(M, Md) <= 1e-10 * (1.0 + fro(M))


def test_pinv_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        pinv(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        pinv(np.eye(2), rel_tol=2.0)


def test_pinv_penrose_random(rng):
    for _ in range(60):
        rows = rng.integers(1, 7)
        cols = rng.integers(1, 7)
        M = rng.uniform(-2, 2, (rows, cols))
        if rng.uniform() < 0.5:
            # force rank deficiency through the SVD
            U, s, Vt = np.linalg.svd(M, full_matrices=False)
            s[rng.integers(0, s.size)] = 0.0
            M = U @ np.diag(s) @ Vt
        gap = penrose_gap(M, pinv(M))
        assert gap <= 1e-10 * (1.0 + fro(M)) ** 2


def test_pinv_symmetric_properties(rng):
    for _ in range(30):
        n = rng.integers(1, 6)
        M = symmetrize(rng.uniform(-2, 2, (n, n)))
        Md = pinv(M)
        assert np.array_equal(Md, Md.T)
        assert fro(M @ Md - Md @ M) <= 1e-10 * (1.0 + fro(M)) ** 2


def test_pinv_psd_maps_to_psd(rng):
    for _ in range(20):
        n = rng.integers(1, 6)
        G = rng.uniform(-1, 1, (n, n))
        M = G @ G.T
        assert is_psd(pinv(M))


def test_symmetric_solution_quadratic_identity(rng):
    # For symmetric N with N X = L: X'N X = L'N^+ L.
    for _ in range(20):
        n = rng.integers(1, 6)
        N = symmetrize(rng.uniform(-2, 2, (n, n)))
        X0 = rng.uniform(-2, 2, (n, 2))
        L = N @ X0
        Nd = pinv(N)
        X = Nd @ L + (np.eye(n) - Nd @ N) @ rng.uniform(-1, 1, (n, 2))
        lhs = X.T @ N @ X
        rhs = L.T @ Nd @ L
        assert fro(lhs - rhs) <= 1e-8 * (1.0 + fro(L)) ** 2


def test_psd_pd_basics():
    assert is_psd(np.zeros((3, 3)))
    assert not is_psd(np.diag([1.0, -1e-3]))

