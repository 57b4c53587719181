"""Dense primitives for small control-theoretic matrices.

Everything operates on plain float64 numpy arrays in row-major layout.
Symmetric matrices are ordinary square arrays passed through
:func:`symmetrize`; no routine ever trusts raw input to be symmetric.
All tolerances are relative to ``1 + ||.||`` (Frobenius) so that zero
matrices are handled without special cases.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "DEFAULT_PSD_TOL",
    "DEFAULT_RANK_TOL",
    "all_finite",
    "as_matrix",
    "fro",
    "is_psd",
    "pinv",
    "symmetrize",
]

#: Singular values below DEFAULT_RANK_TOL * sigma_max are treated as zero.
DEFAULT_RANK_TOL = 1e-10

#: Default relative tolerance for positive-(semi)definiteness decisions.
DEFAULT_PSD_TOL = 1e-9


def all_finite(A: np.ndarray) -> bool:
    """``np.isfinite(A).all()``, at half its cost on small arrays:
    ``ndarray.all`` passes through a layer of Python, ``count_nonzero`` not."""
    return np.count_nonzero(np.isfinite(A)) == A.size


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float array; 1-d input becomes a column."""
    A = np.asarray(M, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    elif A.ndim == 1:
        A = A.reshape(-1, 1)
    elif A.ndim != 2:
        raise InvalidInputError(f"{name} must be at most 2-dimensional")
    if not all_finite(A):
        raise InvalidInputError(f"{name} has non-finite entries")
    return A


def fro(M) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(M))


def symmetrize(M, name: str = "matrix") -> np.ndarray:
    """Return (M + M') / 2, the canonical symmetric representative."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"{name} must be square to symmetrize")
    return (A + A.T) / 2.0


def pinv(M, rel_tol: float = DEFAULT_RANK_TOL, abs_tol: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with a relative rank cutoff.

    Singular values below ``max(rel_tol * sigma_max, abs_tol)`` are zeroed.
    The absolute floor matters for matrices that are zero up to rounding,
    where every singular value is noise yet each is O(sigma_max).  For
    symmetric input the result is symmetrized so that it is exactly symmetric
    and commutes with the input up to rounding.
    """
    A = as_matrix(M)
    if not 0.0 < rel_tol < 1.0:
        raise InvalidInputError("rel_tol must lie in (0, 1)")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= abs_tol:
        return np.zeros((A.shape[1], A.shape[0]))
    cutoff = max(rel_tol * s[0], abs_tol)
    inv = np.where(s > cutoff, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    P = Vt.T @ (inv[:, None] * U.T)
    if A.shape[0] == A.shape[1] and fro(A - A.T) <= 1e-14 * (1.0 + fro(A)):
        P = (P + P.T) / 2.0
    return P


def is_psd(M, tol: float = DEFAULT_PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol * (1 + ||M||)."""
    A = symmetrize(M)
    return float(np.linalg.eigvalsh(A)[0]) >= -tol * (1.0 + fro(A))
