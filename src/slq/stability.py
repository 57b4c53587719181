"""Mean-square (L2) stability of linear SDE systems with multiplicative noise.

A pair [A, C] denotes the uncontrolled system

    dX = A X dt + C X dW,

and [A, C; B, D] the controlled one

    dX = (A X + B u) dt + (C X + D u) dW.

Stability is decided constructively.  [A, C] is L2-stable iff some X > 0
has X A + A'X + C'X C < 0 (Damm 2004); the one generalized Lyapunov solver
``solve_lyapunov`` runs the fixed point X A + A'X + C'X C + Lambda = 0 in
real Schur coordinates, reads that inequality off its iterates, and raises
for every pair it cannot certify.  ``is_l2_stable`` runs the fixed point on
I only to its certificate for n >= 2, and first tries a witness X when the
caller has one -- a Riccati solution is its own gain's -- which certifies
the pair with two Cholesky factors and no Schur form.
"""

from __future__ import annotations

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


_FP_MAX_ITERS = 200      # sweeps to reach the certificate, and to settle before it sets a deadline
_FP_TOL = 1e-13          # relative settling of the fixed point
_FP_FLOOR = 0.01         # the settling rule never asks for a step below _FP_FLOOR * _FP_TOL

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


def _fixed_point(sweep, T, C_s, Lam_s, X, tol):
    """Run X <- sweep(Lam_s + C_s'X C_s) from X until it settles to ``tol``;
    returns (X, (X_c, G_c)), the last iterate and the certificate.

    Sweep k leaves G_k = Lam_s - C_s'(X_k - X_{k-1}) C_s = -(X_k T + T'X_k +
    C_s'X_k C_s).  The first G_k, less a rounding allowance on its diagonal,
    and X_k that both have Cholesky factors meet Lyapunov's strict
    inequality, which holds iff the pair is mean-square stable (Damm 2004).
    Where the iterates pass ||Lam_s|| / ``_FP_TOL`` or ``_FP_MAX_ITERS``
    sweeps uncertified (one sweep when Lam_s is not positive definite), the
    run on I from 0 with ``tol`` None, which stops at its certificate,
    certifies the pair instead.  That run refuses at those limits, as does a
    run from 0 on a positive multiple of I, which it would repeat to scale.
    """
    from scipy.linalg.lapack import dpotrf

    n, eps = X.shape[0], np.finfo(float).eps
    lam_norm, t_norm, c_norm2 = fro(Lam_s), fro(T), fro(C_s) ** 2
    limit = _FP_MAX_ITERS if tol is None or dpotrf(Lam_s)[1] == 0 else 1
    alone = tol is None or limit > 1 and not X.any() and (
        fro(Lam_s - np.trace(Lam_s) / n * np.eye(n)) <= 4.0 * n * eps * lam_norm)
    CXC = C_s.T @ X @ C_s
    cert, start, k, step, deadline = None, 0, 0, 0.0, np.inf
    while True:
        k += 1
        X_prev, X = X, sweep(Lam_s + CXC)
        CXC_prev, CXC = CXC, C_s.T @ X @ C_s
        x_norm = fro(X)
        prev_step, step = step, fro(X - X_prev)
        if cert is None:
            G = Lam_s - CXC + CXC_prev
            G.flat[::n + 1] -= 4.0 * n * eps * (
                2.0 * (t_norm + c_norm2) * x_norm + c_norm2 * step + lam_norm)
            if dpotrf(G)[1] == 0 and dpotrf(X)[1] == 0:
                cert, start = (X, G), k
                if tol is None:
                    return X, cert
            elif x_norm * _FP_TOL <= lam_norm and k < limit:       # false for a NaN
                continue
            elif alone:
                raise LyapunovUnsolvableError(
                    f"{_NO_CONTRACTION}: no certificate in {k} sweeps, ||X|| = {x_norm:.3g}")
            else:
                cert, start = _fixed_point(sweep, T, C_s, np.eye(n), np.zeros((n, n)), None)[1], k
        if not np.isfinite(x_norm):
            raise LyapunovUnsolvableError("the Lyapunov fixed point is not finite")
        settle = max(tol, _FP_TOL) * (1.0 + x_norm)
        r = step / prev_step if prev_step > 0.0 else 0.0
        if step <= settle and (step * r <= settle * (1.0 - r) or step <= _FP_FLOOR * settle):
            return X, cert
        if k == start + _FP_MAX_ITERS:
            # map(X_c) = X_c - sweep(G_c) <= q X_c, as sweep(G_c) >= lambda_min(G_c) / (2 ||T||) I,
            # and a step E, within +-||E|| / lambda_min(X_c) X_c, shrinks by q per sweep
            g_min, x_eig = np.linalg.eigvalsh(cert[1])[0], np.linalg.eigvalsh(cert[0])
            rate = np.clip(g_min / (2.0 * t_norm * x_eig[-1]), eps, 0.5)    # 1 - q, off 0 and 1
            gap = np.sqrt(n) / max(x_eig[0] / x_eig[-1], eps) * step / (_FP_FLOOR * settle)
            deadline = min(start + _FP_MAX_ITERS ** 2, k + np.log(gap) / -np.log1p(-rate))
        if not k < deadline:
            raise LyapunovUnsolvableError(f"the Lyapunov fixed point did not settle in {k} sweeps")


def _stable_lyapunov(A, C, Lam, X0=None, tol: float | None = _FP_TOL) -> np.ndarray:
    """Solve X A + A'X + C'X C + Lam = 0 and certify [A, C] mean-square stable.

    Bartels-Stewart: A = Z T Z' is reduced to real Schur form once, and the
    solve runs in Schur coordinates, where each sweep of the fixed point

        T'X + X T = -(Lam + C'X C)

    is one triangular Sylvester solve (``_schur_sweep``, which also tests
    that A is Hurwitz).  With C = 0 that settles stability and the solve is
    one sweep.  Otherwise the fixed point runs from X0 (default 0) and
    certifies the pair from its own iterates (``_fixed_point``); with
    ``tol`` None it stops there.  From the certifying sweep on it stops once
    settled: the step is below ``tol`` relative, never below ``_FP_TOL``,
    and, as the steps shrink about geometrically by their ratio r, so is the
    remaining distance step * r / (1 - r), down to ``_FP_FLOOR`` times that
    tolerance, which stays above rounding.  After ``_FP_MAX_ITERS`` sweeps
    unsettled, the certificate bounds the sweeps left until the step passes
    under that floor, and never past ``_FP_MAX_ITERS`` squared.

    Raises :class:`LyapunovUnsolvableError`, naming the failed condition, when
    A is not Hurwitz, no iterate is certified, a value is not finite, the
    Sylvester solve reports near-common eigenvalues, or the iterate does not
    settle within those sweeps.
    """
    Z, T, sweep = _schur_sweep(A)
    Lam_s = Z.T @ Lam @ Z
    if not C.any():
        X = sweep(Lam_s)
    else:
        X = np.zeros_like(Lam_s) if X0 is None else Z.T @ X0 @ Z
        X = _fixed_point(sweep, T, Z.T @ C @ Z, Lam_s, X, tol)[0]
    X = Z @ X @ Z.T
    return (X + X.T) / 2.0


def solve_lyapunov(sys: SystemPair, Lambda) -> np.ndarray:
    """Solve P A + A'P + C'P C + Lambda = 0 for symmetric P, certifying [A, C].

    The solution is returned only for a pair certified mean-square stable:
    for n = 1 it is -Lambda / (2A + C^2) when 2A + C^2 < 0, otherwise the
    Bartels-Stewart fixed point of :func:`_stable_lyapunov`, certified by a
    Hurwitz drift and Lyapunov's inequality at an iterate.  Raises
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


def _witnessed(A, C, X) -> bool:
    """True when X proves [A, C] mean-square stable: X and
    -(X A + A'X + C'X C), less the rounding allowance of ``_fixed_point``'s
    certificate on its diagonal (with ||A|| for ||T|| and no sweep terms),
    both have Cholesky factors.  Lyapunov's strict inequality then holds,
    and X A + A'X < -C'X C <= 0 with X > 0 makes A Hurwitz as well."""
    from scipy.linalg.lapack import dpotrf

    n, eps = X.shape[0], np.finfo(float).eps
    if dpotrf(X)[1] != 0:
        return False
    XA = X @ A
    G = -(XA + XA.T + C.T @ X @ C)
    G.flat[::n + 1] -= 8.0 * n * eps * (fro(A) + fro(C) ** 2) * fro(X)
    return bool(np.isfinite(G).all()) and dpotrf(G)[1] == 0


def is_l2_stable(sys: SystemPair, witness=None) -> bool:
    """Decide L2-stability of [A, C] via the Lyapunov certificate.

    True iff ``solve_lyapunov(sys, I)`` certifies the pair: Hurwitz drift
    and an iterate X > 0 with X A + A'X + C'X C < 0; for n >= 2 the fixed
    point stops at that certificate and settles no value.  Pairs it cannot
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
