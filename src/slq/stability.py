"""Mean-square (L2) stability of linear SDE systems with multiplicative noise.

A pair [A, C] denotes the uncontrolled system

    dX = A X dt + C X dW,

and [A, C; B, D] the controlled one

    dX = (A X + B u) dt + (C X + D u) dW.

Stability is decided constructively.  [A, C] is L2-stable iff A is Hurwitz
and the noise map X -> Y, with Y A + A'Y = -C'X C, contracts (Damm 2004);
the one generalized Lyapunov solver ``solve_lyapunov`` certifies both in real
Schur coordinates before it runs the fixed point X A + A'X + C'X C + Lambda
= 0, and raises for every pair it cannot certify.  ``is_l2_stable`` runs the
certificate alone for n >= 2, with no value sweeps.
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


_FP_MAX_ITERS = 200      # fixed-point sweeps allowed to reach the certificate
_FP_TOL = 1e-13          # relative settling of the fixed point
_FP_FLOOR = 0.01         # the settling rule never asks for a step below _FP_FLOOR * _FP_TOL

_NOT_HURWITZ = "not mean-square stable: the drift is not Hurwitz"
_NO_CONTRACTION = "not certified mean-square stable: the noise map does not contract"


def _schur_sweep(A):
    """(Z, sweep) for a Hurwitz A = Z T Z' in LAPACK's real Schur form, whose
    diagonal holds the real parts of the eigenvalues: sweep(F) solves
    T'Y + Y T = -F and raises when the solve reports near-common eigenvalues."""
    # SciPy loads on first use: scalar unforced runs never need it
    from scipy.linalg import schur
    from scipy.linalg.lapack import dtrsyl

    try:
        T, Z = schur(A, output="real", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise LyapunovUnsolvableError("no real Schur form of the drift") from exc
    if not np.all(np.diag(T) < 0.0):
        raise LyapunovUnsolvableError(_NOT_HURWITZ)

    def sweep(F):
        Y, scale, info = dtrsyl(T, T, -F, trana="T")
        if info != 0:
            raise LyapunovUnsolvableError("the drift has eigenvalues near the imaginary axis")
        return (Y + Y.T) / (2.0 * scale)

    return Z, sweep


def _contraction(sweep, C_s) -> int:
    """The first k with ||map^k(I)|| <= 1/2, map X -> sweep(C_s'X C_s); one sweep if C_s = 0."""
    Y = np.eye(C_s.shape[0])
    for k in range(1, _FP_MAX_ITERS + 1):
        Y = sweep(C_s.T @ Y @ C_s)
        y_norm = fro(Y)
        if not y_norm * _FP_TOL <= 1.0:         # also refuses a NaN
            raise LyapunovUnsolvableError(f"{_NO_CONTRACTION}: ||map^{k}(I)|| = {y_norm:.3g}")
        if y_norm <= 0.5:
            return k
    raise LyapunovUnsolvableError(f"{_NO_CONTRACTION} within {_FP_MAX_ITERS} sweeps")


def _stable_lyapunov(A, C, Lam, X0=None, tol: float = _FP_TOL) -> np.ndarray:
    """Solve X A + A'X + C'X C + Lam = 0 and certify [A, C] mean-square stable.

    Bartels-Stewart: A = Z T Z' is reduced to real Schur form once, and the
    solve runs in Schur coordinates, where each sweep of the fixed point

        T'X + X T = -(Lam + C'X C)

    is one triangular Sylvester solve (``_schur_sweep``, which also tests
    that A is Hurwitz).  With C = 0 that settles stability and the solve is
    one sweep.  Otherwise the noise map, taking X to the solution Y of
    T'Y + Y T = -C'X C, is completely positive, so its norm is that of its
    value at I (Russo-Dye), and ||map^k(I)|| <= 1/2 certifies that map^k
    halves every step, which for Hurwitz A is mean-square stability (Damm
    2004).  Once that certificate is in (``_contraction``), the fixed point
    runs from X0 (default 0) for at least those k sweeps and until it has
    settled: the step is below ``tol`` relative, never below ``_FP_TOL``,
    and, as the steps shrink about geometrically by their ratio r, so is the
    remaining distance step * r / (1 - r), down to ``_FP_FLOOR`` times that
    tolerance, which stays above rounding.  Halving every k sweeps brings the
    step under the floor within a number of sweeps known at sweep k.

    Raises :class:`LyapunovUnsolvableError`, naming the failed condition, when
    A is not Hurwitz, the noise map does not contract within
    ``_FP_MAX_ITERS`` sweeps or ||map^k(I)|| passes 1 / ``_FP_TOL`` (rounding
    then grows past the settling tolerance), a value is not finite, the
    Sylvester solve reports near-common eigenvalues, or the iterate does not
    settle within the sweeps its certificate allows.
    """
    n = A.shape[0]
    Z, sweep = _schur_sweep(A)

    def back(X):
        X = Z @ X @ Z.T
        return (X + X.T) / 2.0

    Lam_s = Z.T @ Lam @ Z
    if not C.any():
        return back(sweep(Lam_s))
    C_s = Z.T @ C @ Z
    certified = _contraction(sweep, C_s)
    tol = max(tol, _FP_TOL)
    X = np.zeros((n, n)) if X0 is None else Z.T @ X0 @ Z
    deadline, k, step = certified, 0, 0.0
    while k < deadline:
        k += 1
        X_new = sweep(Lam_s + C_s.T @ X @ C_s)
        x_norm = fro(X_new)
        if not np.isfinite(x_norm):
            raise LyapunovUnsolvableError("the Lyapunov fixed point is not finite")
        prev_step, step = step, fro(X_new - X)
        X = X_new
        if k < certified:
            continue
        if k == certified:
            # the spectral norm of every k-th step halves (||.||_F <= sqrt(n) ||.||_2);
            # one extra period is slack for rounding
            halvings = np.log2(max(1.0, np.sqrt(n) * step / (_FP_FLOOR * tol)))
            deadline = k * (2 + int(np.ceil(halvings)))
        settle = tol * (1.0 + x_norm)
        r = step / prev_step if prev_step > 0.0 else 0.0
        if step <= settle and (step * r <= settle * (1.0 - r) or step <= _FP_FLOOR * settle):
            return back(X)
    raise LyapunovUnsolvableError(f"the Lyapunov fixed point did not settle in {deadline} sweeps")


def solve_lyapunov(sys: SystemPair, Lambda) -> np.ndarray:
    """Solve P A + A'P + C'P C + Lambda = 0 for symmetric P, certifying [A, C].

    The solution is returned only for a pair certified mean-square stable:
    for n = 1 it is -Lambda / (2A + C^2) when 2A + C^2 < 0, otherwise the
    Bartels-Stewart fixed point of :func:`_stable_lyapunov`, whose
    certificate is a Hurwitz drift and a contracting noise map.  Raises
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


def is_l2_stable(sys: SystemPair) -> bool:
    """Decide L2-stability of [A, C] via the Lyapunov certificate.

    True iff ``solve_lyapunov(sys, I)`` certifies the pair: Hurwitz drift
    and a contracting noise map, whose solution P > 0 is then a strict
    certificate; for n >= 2 the certificate runs alone, with no value
    sweeps.  Pairs it cannot certify, the marginal ones (2A + C^2 = 0 in
    the scalar case) included, classify as unstable.
    """
    try:
        if sys.n == 1:
            solve_lyapunov(sys, np.eye(1))
        else:
            Z, sweep = _schur_sweep(sys.A)
            _contraction(sweep, Z.T @ sys.C @ Z)
    except LyapunovUnsolvableError:
        return False
    return True


def is_stabilizer(sys: ControlledSystem, Theta) -> bool:
    """True iff the constant feedback Theta makes [A + B Theta, C + D Theta] L2-stable."""
    return is_l2_stable(sys.closed_loop(Theta))
