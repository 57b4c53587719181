"""Mean-square (L2) stability of linear SDE systems with multiplicative noise.

A pair [A, C] denotes the uncontrolled system

    dX = A X dt + C X dW,

and [A, C; B, D] the controlled one

    dX = (A X + B u) dt + (C X + D u) dW.

Stability is decided constructively.  [A, C] is L2-stable iff some X > 0
has X A + A'X + C'X C < 0 (Damm 2004); the one generalized Lyapunov solver
``solve_lyapunov`` solves X A + A'X + C'X C + Lambda = 0 by GMRES with a
Bartels-Stewart sweep as preconditioner, tests that inequality on its first
sweep or its solution, and raises for every pair it cannot certify.
``is_l2_stable`` stops a solve on I at a first sweep that certifies, and
first tries a witness X when the caller has one -- a Riccati solution is
its own gain's -- which certifies with two Cholesky factors and no Schur form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, LyapunovUnsolvableError
from .linalg import as_matrix, fro, symmetrize

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


_FP_TOL = 1e-13          # the tightest relative tolerance of a Lyapunov solve

_NOT_HURWITZ = "not mean-square stable: the drift is not Hurwitz"
_NO_CONTRACTION = "not certified mean-square stable: the noise map does not contract"

_GEES_LWORK: dict[int, int] = {}    # dgees's optimal workspace by order, which alone sets it


def _unsorted(*_):
    """dgees's eigenvalue selector, never called: the Schur form is not reordered."""


def _schur_sweep(A):
    """(Z, T, sweep) for a Hurwitz A = Z T Z' in LAPACK's real Schur form,
    whose diagonal holds the real parts of the eigenvalues: sweep(F) solves
    T'Y + Y T = -F and raises when the solve reports near-common eigenvalues.

    ``dgees`` is called as ``scipy.linalg.schur`` calls it, with the
    workspace it queries, so T and Z are schur's to the bit; the query is
    made once per order."""
    # SciPy loads on first use: scalar unforced runs never need it
    from scipy.linalg.lapack import dgees, dtrsyl

    n = A.shape[0]
    lwork = _GEES_LWORK.get(n)
    if lwork is None:
        lwork = _GEES_LWORK[n] = int(dgees(_unsorted, A, lwork=-1)[-2][0])
    T, _, _, _, Z, _, info = dgees(_unsorted, A, lwork=lwork)
    if info != 0:
        raise LyapunovUnsolvableError("no real Schur form of the drift")
    if not np.all(np.diag(T) < 0.0):
        raise LyapunovUnsolvableError(_NOT_HURWITZ)

    def sweep(F):
        Y, scale, info = dtrsyl(T, T, -F, trana="T")
        if info != 0:
            raise LyapunovUnsolvableError("the drift has eigenvalues near the imaginary axis")
        return (Y + Y.T) / (2.0 * scale)

    return Z, T, sweep


def _gmres(sweep, T, C_s, Lam_s, X, tol):
    """GMRES (Saad & Schultz 1986) from X on X - sweep(C_s'X C_s) =
    sweep(Lam_s), the Lyapunov equation preconditioned by the sweep (Damm
    2008); returns (X, certified).

    The start's residual is the step X_1 - X of the first sweep, and each
    Krylov step makes one more sweep.  The run stops once the residual is
    below 0.3 max(``tol``, ``_FP_TOL``) (1 + ||X_1||), or when the Krylov
    space, of symmetric matrices, is exhausted after n(n+1)/2 steps.  The
    first step's product gives -L(X_1) = Lam_s - C_s'(X_1 - X) C_s, so X_1
    is tested as a certificate at no extra sweep, and where it fails the
    solution is, as a witness; with ``tol`` None the run stops at X_1 when
    it certifies.  Lyapunov's strict inequality holds iff the pair is
    mean-square stable (Damm 2004).
    """
    from scipy.linalg.lapack import dtrtrs

    n = X.shape[0]
    dim = n * (n + 1) // 2
    X1 = sweep(Lam_s + C_s.T @ X @ C_s)
    beta = fro(X1 - X)
    stop = 0.3 * max(tol or 0.0, _FP_TOL) * (1.0 + fro(X1))
    if not beta > stop:                 # true for a NaN
        return X1, _witnessed(T, C_s, X1)
    V = np.empty((dim + 1, n * n))      # the orthonormal Krylov basis, a matrix a row
    V[0] = (X1 - X).ravel() / beta
    R, rotations, g = [], [], [beta]    # Arnoldi's Hessenberg matrix, rotated by Givens
    for k in range(dim):
        W = V[k].reshape(n, n)
        CWC = C_s.T @ W @ C_s
        if k == 0:
            certified = _witnessed(T, C_s, X1, Lam_s - beta * CWC)
            if certified and tol is None:
                return X1, True
        w = (W - sweep(CWC)).ravel()
        h = V[:k + 1] @ w               # classical Gram-Schmidt, one pass
        w -= h @ V[:k + 1]
        h, h_next = h.tolist(), math.sqrt(w @ w)
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rho = math.hypot(h[k], h_next)
        if rho == 0.0:                  # the operator is singular: no solution
            return X1, certified
        c, s = h[k] / rho, h_next / rho
        rotations.append((c, s))
        h[k] = rho
        R.append(h)
        g[k:] = c * g[k], -s * g[k]
        if not abs(g[k + 1]) > stop:    # true for a NaN
            break
        V[k + 1] = w / h_next
    m = len(R)
    y = dtrtrs(np.array([r + [0.0] * (m - len(r)) for r in R]).T, g[:m])[0]
    X = X + (y @ V[:m]).reshape(n, n)
    return X, certified or _witnessed(T, C_s, X)


def _stable_lyapunov(A, C, Lam, X0=None, tol: float | None = _FP_TOL) -> np.ndarray:
    """Solve X A + A'X + C'X C + Lam = 0 and certify [A, C] mean-square stable.

    Bartels-Stewart: A = Z T Z' is reduced to real Schur form once, and the
    solve runs in Schur coordinates, where each sweep

        T'X + X T = -(Lam + C'X C)

    is one triangular Sylvester solve (``_schur_sweep``, which also tests
    that A is Hurwitz).  With C = 0 that settles stability and the solve is
    one sweep.  Otherwise GMRES (``_gmres``) solves from X0 (default 0) to
    ``tol`` relative, never below ``_FP_TOL``, in at most n(n+1)/2 + 1
    sweeps, and certifies the pair by its first sweep or by its solution.
    Where neither does -- Lam need not be positive definite, nor a loose
    ``tol`` accurate enough -- the same solve on I from 0 decides the pair;
    ``tol`` None asks for that solve alone (Lam = I, X0 None), stopped at
    its first sweep's certificate.

    Raises :class:`LyapunovUnsolvableError`, naming the failed condition, when
    A is not Hurwitz, the Sylvester solve reports near-common eigenvalues, or
    nothing certifies the pair.
    """
    Z, T, sweep = _schur_sweep(A)
    Lam_s = Z.T @ Lam @ Z
    if not C.any():
        X = sweep(Lam_s)
    else:
        n, C_s = A.shape[0], Z.T @ C @ Z
        X = np.zeros_like(Lam_s) if X0 is None else Z.T @ X0 @ Z
        X, certified = _gmres(sweep, T, C_s, Lam_s, X, tol)
        if not certified and tol is not None:
            certified = _gmres(sweep, T, C_s, np.eye(n), np.zeros((n, n)), None)[1]
        if not certified:
            raise LyapunovUnsolvableError(_NO_CONTRACTION)
    X = Z @ X @ Z.T
    return (X + X.T) / 2.0


def solve_lyapunov(sys: SystemPair, Lambda) -> np.ndarray:
    """Solve P A + A'P + C'P C + Lambda = 0 for symmetric P, certifying [A, C].

    The solution is returned only for a pair certified mean-square stable:
    for n = 1 it is -Lambda / (2A + C^2) when 2A + C^2 < 0, otherwise the
    GMRES solution of :func:`_stable_lyapunov`, certified by a Hurwitz drift
    and Lyapunov's inequality at its first sweep or at a solution.  Raises
    :class:`LyapunovUnsolvableError`, naming the condition that failed, for
    every pair it cannot certify, the marginal ones included.
    """
    n = sys.n
    Lam = symmetrize(Lambda, "Lambda")
    if Lam.shape != (n, n):
        raise InvalidInputError("Lambda must be n x n")
    if n == 1:
        a, c = float(sys.A[0, 0]), float(sys.C[0, 0])
        rate = 2.0 * a + c * c
        if not rate < 0.0:
            raise LyapunovUnsolvableError(_NO_CONTRACTION if a < 0.0 else _NOT_HURWITZ)
        return np.array([[-float(Lam[0, 0]) / rate]])
    return _stable_lyapunov(sys.A, sys.C, Lam)


def _witnessed(A, C, X, G=None) -> bool:
    """True when X proves [A, C] mean-square stable: X and G = -(X A + A'X +
    C'X C) (formed unless given), less 8n eps (||A|| + ||C||^2) ||X|| on its
    diagonal for rounding, both have Cholesky factors.  Lyapunov's strict
    inequality then holds, and X A + A'X < -C'X C <= 0 with X > 0 makes A
    Hurwitz as well."""
    from scipy.linalg.lapack import dpotrf

    n, eps = X.shape[0], np.finfo(float).eps
    if dpotrf(X)[1] != 0:
        return False
    if G is None:
        XA = X @ A
        G = -(XA + XA.T + C.T @ X @ C)
    G.flat[::n + 1] -= 8.0 * n * eps * (fro(A) + fro(C) ** 2) * fro(X)
    return bool(np.isfinite(G).all()) and dpotrf(G)[1] == 0


def is_l2_stable(sys: SystemPair, witness=None) -> bool:
    """Decide L2-stability of [A, C] via the Lyapunov certificate.

    True iff ``solve_lyapunov(sys, I)`` certifies the pair: Hurwitz drift
    and an X > 0 with X A + A'X + C'X C < 0; for n >= 2 the solve stops at
    its first sweep when that certifies, and settles no value.  Pairs it cannot
    certify, the marginal ones (2A + C^2 = 0 in the scalar case) included,
    classify as unstable.

    For n >= 2 a ``witness`` X, when given, is tried first: if X and
    -(X A + A'X + C'X C), less a rounding allowance, have Cholesky factors,
    X itself is the certificate and neither a Schur form nor a sweep is
    made.  A witness that fails costs at most those two factors, and the
    check runs as without it, so a witness can only turn a refusal into a
    certification, never the reverse.  For n = 1 it is ignored.
    """
    n = sys.n
    if n > 1 and witness is not None:
        witness = symmetrize(witness, "witness")
        if witness.shape != (n, n):
            raise InvalidInputError("witness must be n x n")
        if _witnessed(sys.A, sys.C, witness):
            return True
    try:
        if n == 1:
            solve_lyapunov(sys, np.eye(1))
        else:
            _stable_lyapunov(sys.A, sys.C, np.eye(n), tol=None)
    except LyapunovUnsolvableError:
        return False
    return True


def is_stabilizer(sys: ControlledSystem, Theta, witness=None) -> bool:
    """True iff the constant feedback Theta makes [A + B Theta, C + D Theta]
    L2-stable; ``witness`` is the closed loop's, as for :func:`is_l2_stable`."""
    return is_l2_stable(sys.closed_loop(Theta), witness)
