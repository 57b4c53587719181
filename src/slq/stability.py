"""Mean-square (L2) stability of linear SDE systems with multiplicative noise.

A pair [A, C] denotes the uncontrolled system

    dX = A X dt + C X dW,

and [A, C; B, D] the controlled one

    dX = (A X + B u) dt + (C X + D u) dW.

Stability is decided constructively: [A, C] is L2-stable iff the Lyapunov
equation ``P A + A'P + C'P C + I = 0`` has a solution with P > 0, in which
case that P is a strict Lyapunov certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, LyapunovUnsolvableError
from .linalg import as_matrix, fro, is_pd, symmetrize

__all__ = [
    "ControlledSystem",
    "SystemPair",
    "is_l2_stable",
    "is_stabilizer",
    "solve_lyapunov",
]


@dataclass(frozen=True, eq=False)
class SystemPair:
    """Uncontrolled pair [A, C]: drift A and diffusion C, both n x n."""

    A: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        C = as_matrix(self.C, "C")
        if A.shape[0] != A.shape[1]:
            raise InvalidInputError("A must be square")
        if C.shape != A.shape:
            raise InvalidInputError("C must match the shape of A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class ControlledSystem:
    """Controlled system [A, C; B, D] with n states and m controls."""

    A: np.ndarray
    C: np.ndarray
    B: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        C = as_matrix(self.C, "C")
        B = as_matrix(self.B, "B")
        D = as_matrix(self.D, "D")
        n = A.shape[0]
        if A.shape != (n, n):
            raise InvalidInputError("A must be square")
        if C.shape != (n, n):
            raise InvalidInputError("C must match the shape of A")
        if B.shape[0] != n:
            raise InvalidInputError("B must have n rows")
        if D.shape != B.shape:
            raise InvalidInputError("D must match the shape of B")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def pair(self) -> SystemPair:
        """The uncontrolled pair [A, C]."""
        return SystemPair(self.A, self.C)

    def closed_loop(self, Theta) -> SystemPair:
        """The pair [A + B Theta, C + D Theta] under constant feedback."""
        Th = as_matrix(Theta, "Theta")
        if Th.shape != (self.m, self.n):
            raise InvalidInputError("Theta must be m x n")
        return SystemPair(self.A + self.B @ Th, self.C + self.D @ Th)


@lru_cache(maxsize=64)
def _sym_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric basis of n x n matrices: element k is (ri[k], rj[k]) with
    ri <= rj, and P[p, q] and P[q, p] are both coordinate col[p, q]."""
    ri, rj = np.triu_indices(n)
    col = np.empty((n, n), dtype=np.intp)
    col[ri, rj] = col[rj, ri] = np.arange(ri.size)
    for arr in (ri, rj, col):
        arr.flags.writeable = False
    return ri, rj, col


def solve_lyapunov(sys: SystemPair, Lambda) -> np.ndarray:
    """Solve P A + A'P + C'P C + Lambda = 0 for symmetric P.

    The operator is flattened over the n(n+1)/2-dimensional symmetric-matrix
    basis and solved by dense LU factorization.  Its matrix is written entry
    by entry: the A-part has O(n) entries per column and goes in with two
    indexed adds, the C-part ``C[p,i] C[q,j] + C[q,i] C[p,j]`` is filled one
    block of rows (i, .) at a time, so assembly costs O(n^4) time and O(n^3)
    memory beyond the matrix itself; the LU costs O(n^6).  Raises
    :class:`LyapunovUnsolvableError` if the linear system is singular or the
    candidate fails the residual test, which signals that [A, C] is not
    L2-stable (or is degenerate).
    """
    A, C = sys.A, sys.C
    n = sys.n
    Lam = symmetrize(Lambda, "Lambda")
    if Lam.shape != (n, n):
        raise InvalidInputError("Lambda must be n x n")

    # Row (i, j) of T holds the coefficients of the coordinates of P in
    # (P A + A'P + C'P C)[i, j].
    ri, rj, col = _sym_index(n)
    dim = ri.size
    T = np.zeros((dim, dim))
    rk = np.arange(dim)[:, None]
    T[rk, col[ri]] += A[:, rj].T          # sum_q P[i, q] A[q, j]
    T[rk, col[:, rj].T] += A[:, ri].T     # sum_p A[p, i] P[p, j]
    # Column k = (p, q) of the C-part: C[p,i] C[q,j] + C[q,i] C[p,j], the
    # second term only for p < q.  Filled by blocks of rows (i, j >= i).
    Cp, Cq = C[ri].T, C[rj].T
    Cq_off = Cq * (ri != rj)
    start = 0
    for i in range(n):
        T[start:start + n - i] += Cp[i] * Cq[i:] + Cq_off[i] * Cp[i:]
        start += n - i
    rhs = -Lam[ri, rj]

    try:
        coeffs = np.linalg.solve(T, rhs)
    except np.linalg.LinAlgError as exc:
        raise LyapunovUnsolvableError("singular Lyapunov system") from exc

    P = coeffs[col]

    residual = fro(P @ A + A.T @ P + C.T @ P @ C + Lam)
    scale = (1.0 + fro(P)) * (1.0 + fro(A) + fro(C) ** 2)
    if not np.isfinite(residual) or residual > 1e-9 * scale:
        raise LyapunovUnsolvableError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance"
        )
    return P


def is_l2_stable(sys: SystemPair) -> bool:
    """Decide L2-stability of [A, C] via the Lyapunov certificate.

    True iff ``solve_lyapunov(sys, I)`` succeeds and yields P > 0; then
    P A + A'P + C'P C = -I < 0 is a strict certificate.  Marginal systems
    (singular Lyapunov operator, e.g. 2A + C^2 = 0 in the scalar case)
    classify as unstable.
    """
    try:
        P = solve_lyapunov(sys, np.eye(sys.n))
    except LyapunovUnsolvableError:
        return False
    return is_pd(P)


def is_stabilizer(sys: ControlledSystem, Theta) -> bool:
    """True iff the constant feedback Theta makes [A + B Theta, C + D Theta] L2-stable."""
    return is_l2_stable(sys.closed_loop(Theta))
