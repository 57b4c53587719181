"""Riccati machinery: flow, Newton-Kleinman, strict ARE solver, GARE pipeline.

The differential Riccati equation is integrated as a forward flow in horizon
length,

    dSig/dt = Sig A + A'Sig + C'Sig C + Q
              - (Sig B + C'Sig D + S') (R + D'Sig D)^{-1} (B'Sig + D'Sig C + S),
    Sig(0) = G,

whose stationary points solve the algebraic Riccati equation.  The flow is
defined while R + D'Sig D > 0; each evaluation of the matrix right-hand side
factors it once (Cholesky), and that factor is both the positivity test and
the solve.  The right-hand side is the ARE residual, so a flow that ends
'converged' certifies its limit: the residual is below ``stat_tol`` relative
and R + D'PD was factored at it.  The first evaluation, at Sig(0) = G, is the
check of the terminal value.  Where no stabilizer is known yet -- the
stabilizability decision -- the flow runs until its first certified gain or
its converged limit, and Newton-Kleinman finishes from there
(``_stabilizing_limit``); for n = m = 1 a closed-form gain and its value
take the place of both.

Where a stabilizing gain is known -- the strictly convex problems over a
certified stable pair -- the ARE is solved by Newton-Kleinman (Kleinman
1968; Damm & Hinrichsen 2001): from P, the gain Theta = -N(P)^{-1} L(P)' is
certified mean-square stabilizing and P becomes its cost, the solution of
the closed-loop generalized Lyapunov equation.  That is the GMRES solve of
``stability``, the package's one generalized Lyapunov solver, certified by
Lyapunov's inequality at its first sweep or its solution, warm-started from
P and solved only as far as the ARE residual at P calls for (inexact
Newton); when n = m = 1 it is one float division.  Its limit is accepted
on the flow's own certificate, and Newton alone decides: when a
stabilizing solution with R + D'PD > 0 exists, the Lyapunov value G of the stable pair lies above it, so Newton
from G stays certified and decreases to it (Damm & Hinrichsen 2001), and a
failed Newton means there is none.  On top of these sit:

* ``solve_are_strict`` -- the strictly convex ARE (R + D'PD > 0) for a stable
  uncontrolled pair, which it certifies, solved by Newton from the Lyapunov
  terminal value;
* ``transform_problem`` -- pre-feedback reduction of a stabilizable problem to
  one with a stable uncontrolled pair;
* ``solve_gare`` -- the generalized ARE with pseudoinverse, range condition
  and semidefinite constraint.  Over the reduced pair, certified once by the
  Lyapunov solve for its terminal value G, Newton from G at epsilon = 0
  solves the regular case (R + D'PD > 0 at the solution) directly.  Where
  that fails, the solution is the epsilon -> 0 limit of the regularized
  strictly convex solutions, each epsilon's Newton starting from the
  previous solution.  Either limit is accepted through
  ``verify_static_stabilizing``;
* ``verify_static_stabilizing`` -- the one check of a candidate P against the
  GARE conditions, which also picks its stabilizing feedback.

Each of these is written once, over an arithmetic that ``_arithmetic``
picks by n = m = 1 alone: ``_Matrices`` for every other size, and
``_Floats`` for the scalar problem, on which the flow, Newton-Kleinman, the
reduction by Sigma, the epsilon path (each epsilon's weights, its change,
extrapolation and settling test) and the verifier's four findings run on
Python floats.  Only the restricted feedback search of a singular N(P), and
the Lyapunov value G (``solve_lyapunov``'s closed form), take 1 x 1
matrices there.  ``_Floats`` reproduces every 1 x 1 numpy evaluation it
stands for bit for bit, the errors of non-finite values included, so the
two give the same reports.  Each public entry point converts its problem
into its arithmetic once (``problem``), and everything below it takes the
converted problem; the stabilizability decision builds its own unit
weights, and tests its P > 0 itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    InvalidTerminalError,
    LyapunovUnsolvableError,
    NotStabilizableError,
    NotStableError,
)
from .linalg import as_matrix, fro, symmetrize
from .stability import (
    ControlledSystem,
    SystemPair,
    _stable_lyapunov,
    is_stabilizer,
    solve_lyapunov,
)

__all__ = [
    "CostWeights",
    "FlowConfig",
    "GareConfig",
    "GareMaps",
    "GareSolution",
    "GareUnsolvable",
    "GareVerification",
    "RiccatiFlow",
    "control_pseudoinverse",
    "integrate_riccati_flow",
    "solve_are_strict",
    "solve_gare",
    "transform_problem",
    "verify_static_stabilizing",
]


@dataclass(frozen=True, eq=False)
class CostWeights:
    """Quadratic cost weights: state Q (n x n), cross S (m x n), control R (m x m)."""

    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = symmetrize(self.Q, "Q")
        S = as_matrix(self.S, "S")
        R = symmetrize(self.R, "R")
        if S.shape != (R.shape[0], Q.shape[0]):
            raise InvalidInputError("S must be m x n")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "R", R)

    @classmethod
    def _checked(cls, Q, S, R) -> CostWeights:
        """The weights of arrays that are already what ``__post_init__``
        makes of its input -- 2-d, float, finite, Q and R symmetrized, of
        matching shapes -- taken as they are, without a second check."""
        weights = object.__new__(cls)
        object.__setattr__(weights, "Q", Q)
        object.__setattr__(weights, "S", S)
        object.__setattr__(weights, "R", R)
        return weights

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]


class GareMaps:
    """The three matrix maps entering the generalized ARE at a candidate P."""

    def __init__(self, sys: ControlledSystem, w: CostWeights):
        if (w.n, w.m) != (sys.n, sys.m):
            raise InvalidInputError("cost weights do not match system dimensions")
        self.sys = sys
        self.w = w

    def lyapunov_part(self, P) -> np.ndarray:
        """P A + A'P + C'P C + Q."""
        A, C = self.sys.A, self.sys.C
        return P @ A + A.T @ P + C.T @ P @ C + self.w.Q

    def cross_part(self, P) -> np.ndarray:
        """P B + C'P D + S'  (n x m)."""
        return P @ self.sys.B + self.sys.C.T @ P @ self.sys.D + self.w.S.T

    def control_part(self, P) -> np.ndarray:
        """R + D'P D  (m x m)."""
        return symmetrize(self.w.R + self.sys.D.T @ P @ self.sys.D)


@dataclass
class FlowConfig:
    """Termination and step control for the Riccati flow.

    ``stat_tol`` is also the acceptance bound of a limit: the flow stops as
    'converged' when ||dSig/dt||, which is the ARE residual at Sig, is below
    ``stat_tol * (1 + ||Sig||)``, and a converged limit is accepted as is.
    Newton-Kleinman accepts its limit on the same bound.
    """

    stat_tol: float = 1e-10        # relative stationarity threshold on ||dSig/dt||
    divergence_norm: float = 1e8   # ||Sig|| beyond which the flow counts as diverged
    max_horizon: float = 1e4       # horizon cap (time units)
    rtol: float = 1e-9             # relative per-step error tolerance


@dataclass
class RiccatiFlow:
    """Time-stamped trajectory of the Riccati flow."""

    times: np.ndarray              # (k,), strictly increasing, starts at 0
    values: np.ndarray             # (k, n, n), symmetric
    terminal: np.ndarray           # the starting value G
    status: str                    # 'converged' | 'diverged' | 'max-horizon'
    derivative_norm: float         # ||dSig/dt|| at the final point (inf if diverged)


class _PositivityLost(Exception):
    pass


_MIN_STEP = 1e-12       # step collapse below this is finite escape
_MAX_STEPS = 500_000


# Cash-Karp 5(4) embedded pair.
_CK_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_ERR = (-277 / 64512, 0.0, 6925 / 370944, -6925 / 202752, -277 / 14336, 277 / 7084)


def _adaptive_flow(rhs, sym, norm, y0, cfg: FlowConfig, stop=None):
    """Run the embedded Cash-Karp pair until stationarity, divergence or cap.

    ``rhs`` raises :class:`_PositivityLost` when R + D'Sig D stops being
    positive definite at an evaluation point.  At the start value that is
    :class:`InvalidTerminalError`; later the step is rejected and shrunk, and
    step collapse below ``_MIN_STEP`` counts as finite escape.  Works
    uniformly for matrix states and (as floats) scalar ones.

    ``stop(y)``, when given, is called at accepted steps 0, 1, 2, 4, 8, ...
    that have neither settled nor escaped, right after ``rhs(y)``; a true
    return ends the flow with status 'stopped'.
    """
    # coefficients and settings as locals: on floats a step costs lookups and calls
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _CK_A
    b1, _, b3, b4, _, b6 = _CK_B5
    e1, _, e3, e4, e5, e6 = _CK_ERR
    stat_tol, divergence_norm = cfg.stat_tol, cfg.divergence_norm
    max_horizon, rtol = cfg.max_horizon, cfg.rtol

    t = 0.0
    y = sym(y0)
    try:
        f = rhs(y)
    except _PositivityLost:
        raise InvalidTerminalError("R + D'GD is not positive definite") from None
    times = [0.0]
    values = [y]
    dnorm = norm(f)
    if dnorm < stat_tol * (1.0 + norm(y)):
        return "converged", times, values, dnorm
    if stop is not None and stop(y):
        return "stopped", times, values, dnorm

    h = min(1.0, 0.01 * (1.0 + norm(y)) / (1.0 + dnorm))
    lam_est = 0.0  # local Jacobian scale, to keep h inside the stability region
    for _ in range(_MAX_STEPS):
        h = min(h, max_horizon - t)
        try:
            k1 = f
            k2 = rhs(sym(y + h * (a21 * k1)))
            k3 = rhs(sym(y + h * (a31 * k1 + a32 * k2)))
            k4 = rhs(sym(y + h * (a41 * k1 + a42 * k2 + a43 * k3)))
            k5 = rhs(sym(y + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)))
            k6 = rhs(sym(y + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)))
        except _PositivityLost:
            h *= 0.25
            if h < _MIN_STEP:
                return "diverged", times, values, float("inf")
            continue

        err = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6)
        err_norm = norm(err)
        tol = rtol * (1.0 + norm(y))
        if err_norm > tol:
            h *= max(0.2, 0.9 * (tol / err_norm) ** 0.2)
            if h < _MIN_STEP:
                return "diverged", times, values, float("inf")
            continue

        y_new = sym(y + h * (b1 * k1 + b3 * k3 + b4 * k4 + b6 * k6))
        t += h
        try:
            f_new = rhs(y_new)
        except _PositivityLost:
            return "diverged", times, values, float("inf")
        step_norm = norm(y_new - y)
        if step_norm > 0.0:
            lam_est = norm(f_new - f) / step_norm
        y, f = y_new, f_new
        times.append(t)
        values.append(y)

        ynorm = norm(y)
        dnorm = norm(f)
        if not math.isfinite(ynorm) or ynorm > divergence_norm:
            return "diverged", times, values, dnorm
        if dnorm < stat_tol * (1.0 + ynorm):
            return "converged", times, values, dnorm
        steps = len(times) - 1
        if stop is not None and steps & (steps - 1) == 0 and stop(y):
            return "stopped", times, values, dnorm
        if t >= max_horizon:
            return "max-horizon", times, values, dnorm

        if err_norm > 0.0:
            h *= min(5.0, max(0.2, 0.9 * (tol / err_norm) ** 0.2))
        else:
            h *= 5.0
        if lam_est > 0.0:
            # Explicit RK contracts toward the stationary point only well
            # inside its stability region; unguarded growth makes the iterate
            # hover near the boundary instead of settling.
            h = min(h, 2.5 / lam_est)
    return "max-horizon", times, values, dnorm


def _matrix_are(sys: ControlledSystem, w: CostWeights):
    """Return ``are``: ``are(Sig) -> (residual, K)`` gives the ARE residual at
    Sig and K = (R + D'Sig D)^{-1} L(Sig)', whose negative is the gain of Sig.

    One Cholesky factor of R + D'Sig D is both the positivity test (raising
    :class:`_PositivityLost`) and the solver.
    """
    # SciPy loads on first use: scalar unforced runs never need it
    from scipy.linalg.lapack import dpotrf, dpotrs

    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    Q, S, R = w.Q, w.S, w.R

    def are(Sig):
        N = R + D.T @ Sig @ D
        factor, info = dpotrf((N + N.T) / 2.0, lower=1)
        if info != 0:
            raise _PositivityLost
        L = Sig @ B + C.T @ Sig @ D + S.T
        K, _ = dpotrs(factor, L.T, lower=1)
        return Sig @ A + A.T @ Sig + C.T @ Sig @ C + Q - L @ K, K

    return are


class _ScalarSystem(NamedTuple):
    """[A, C; B, D] with n = m = 1, as Python floats."""

    A: float
    C: float
    B: float
    D: float
    n = m = 1


class _ScalarWeights(NamedTuple):
    """Cost weights Q, S, R with n = m = 1, as Python floats."""

    Q: float
    S: float
    R: float
    n = m = 1


# n = m = 1 keeps its own maps on Python floats.  Through _matrix_are and
# _matrix_gain_value, whose 1x1 arrays and LAPACK calls cost far more than
# the arithmetic, scalar-sweep's median solve took about 8x as long (17 to
# 20 ms instead of 2.1 ms, seed 61, in-process through slq.cli.main with
# one BLAS thread on a 2-core x86_64 VM).
def _scalar_are(sys: _ScalarSystem, w: _ScalarWeights):
    """``_matrix_are`` for n = m = 1, on floats."""
    a, c, b, d = sys
    q, s, r = w
    two_a_c2 = 2.0 * a + c * c

    def are(sig):
        n_val = r + d * d * sig
        if n_val <= 0.0:
            raise _PositivityLost
        l_val = sig * b + c * sig * d + s
        k = l_val / n_val
        return two_a_c2 * sig + q - l_val * k, k

    return are


def integrate_riccati_flow(
    sys: ControlledSystem, w: CostWeights, G, cfg: FlowConfig | None = None
) -> RiccatiFlow:
    """Integrate the Riccati flow from Sig(0) = G until it settles or escapes.

    The flow is only defined while R + D'Sig D > 0; a terminal value violating
    this raises :class:`InvalidTerminalError`, found by the first right-hand
    side evaluation.  The state is symmetrized after every accepted step.  A
    'converged' status certifies the last value as an ARE solution: its
    residual is ``derivative_norm`` <= ``cfg.stat_tol * (1 + ||P||)``.
    """
    cfg = cfg or FlowConfig()
    if (w.n, w.m) != (sys.n, sys.m):
        raise InvalidInputError("cost weights do not match system dimensions")
    G0 = symmetrize(G, "G")
    if G0.shape != (sys.n, sys.n):
        raise InvalidInputError("G must be n x n")

    ar = _arithmetic(sys)
    are, _ = ar.maps(*ar.problem(sys, w))
    status, times, vals, dnorm = _adaptive_flow(lambda y: are(y)[0], ar.flow_sym, ar.norm,
                                                ar.state(G0), cfg)
    values = np.asarray(vals, dtype=float).reshape(-1, sys.n, sys.n)
    return RiccatiFlow(
        times=np.asarray(times, dtype=float),
        values=values,
        terminal=G0,
        status=status,
        derivative_norm=float(dnorm),
    )


_NEWTON_MAX_STEPS = 60   # Newton steps before the solve counts as failed


def _newton_forcing(r: float) -> float:
    """Relative tolerance of a gain's value (its Lyapunov solve) at relative
    ARE residual r: ~r^2 keeps Newton quadratic (Feitzinger, Hylla & Sachs 2009)."""
    return min(1e-3, 0.01 * r * r)


def _newton(are, gain_value, norm, P0, stat_tol: float):
    """Newton-Kleinman from P0: P <- the value of the gain -K(P), until the
    ARE residual at P is below ``stat_tol * (1 + ||P||)``.

    ``are`` is ``_matrix_are``/``_scalar_are``; ``gain_value(Theta, P, tol)``
    is the cost matrix of the feedback Theta, settled to ``_newton_forcing``
    of the relative residual at P, or None when it cannot certify Theta as
    mean-square stabilizing.  Returns (P, solve): P is the limit or None,
    and solve is {"steps": k}, with "failed": the cause when P is None --
    R + D'PD is not positive definite, a gain is not certified, a value is
    not finite, or ``_NEWTON_MAX_STEPS`` steps do not converge.
    """
    P = P0
    for step in range(_NEWTON_MAX_STEPS):
        try:
            residual, K = are(P)
        except _PositivityLost:
            return None, {"steps": step, "failed": "R + D'PD is not positive definite"}
        p_norm = norm(P)
        if not math.isfinite(p_norm):
            return None, {"steps": step, "failed": "a Newton iterate is not finite"}
        if norm(residual) < stat_tol * (1.0 + p_norm):
            return P, {"steps": step}
        P = gain_value(-K, P, _newton_forcing(norm(residual) / (1.0 + p_norm)))
        if P is None:
            return None, {"steps": step + 1,
                          "failed": "a Newton gain is not certified mean-square stabilizing"}
    return None, {"steps": _NEWTON_MAX_STEPS,
                  "failed": f"Newton did not converge in {_NEWTON_MAX_STEPS} steps"}


def _matrix_gain_value(sys: ControlledSystem, w: CostWeights):
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    Q, S, R = w.Q, w.S, w.R

    def gain_value(Theta, P, tol):
        cross = S.T @ Theta
        Q_cl = Q + cross + cross.T + Theta.T @ R @ Theta
        try:
            return _stable_lyapunov(A + B @ Theta, C + D @ Theta, Q_cl, P, tol)
        except LyapunovUnsolvableError:
            return None

    return gain_value


def _scalar_gain_value(sys: _ScalarSystem, w: _ScalarWeights):
    a, c, b, d = sys
    q, s, r = w

    def gain_value(theta, p, tol=None):     # exact on floats: tol goes unused
        c_cl = c + d * theta
        rate = 2.0 * (a + b * theta) + c_cl * c_cl
        if not rate < 0.0:      # also refuses a NaN
            return None
        return -(q + (2.0 * s + r * theta) * theta) / rate

    return gain_value


def _checked(x: float, name: str) -> float:
    """``as_matrix``'s test of a 1 x 1 matrix, on its one entry."""
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} has non-finite entries")
    return x


def _halved(x: float, name: str = "matrix") -> float:
    """``symmetrize`` of a 1 x 1 matrix: (x + x) / 2, which overflows above
    half the largest float."""
    x = _checked(x, name)
    return (x + x) / 2.0


def _mm(x: float, y: float) -> float:
    """The 1 x 1 product [x] @ [y], whose sum starts at +0.0: a product -0.0
    comes out 0.0."""
    return 0.0 + x * y


def _fro(x: float) -> float:
    """``fro`` of [x]: the root of x^2, which overflows and underflows where
    abs(x) would not."""
    return math.sqrt(x * x)


class _Matrices:
    """The GARE pipeline's arithmetic on n x n matrices: problems are
    (ControlledSystem, CostWeights) pairs and values ndarrays."""

    norm = fro                      # the flow's and Newton's norm
    fro = fro
    symmetrize = symmetrize
    stabilizes = is_stabilizer

    @staticmethod
    def problem(sys, w):
        return sys, w

    @staticmethod
    def maps(sys, w):
        return _matrix_are(sys, w), _matrix_gain_value(sys, w)

    @staticmethod
    def flow_sym(y):
        return (y + y.T) / 2.0

    @staticmethod
    def state(X):
        return np.asarray(X, dtype=float)

    @staticmethod
    def matrix(X):
        return X

    @staticmethod
    def reduce(sys, w, Sigma):
        return _transform(sys, w, Sigma)

    @staticmethod
    def lyapunov_value(tsys, tw):
        return solve_lyapunov(tsys.pair(), tw.Q)

    @staticmethod
    def regularized(tw, eps):
        return CostWeights(tw.Q, tw.S, tw.R + eps * np.eye(tw.m))

    @staticmethod
    def gare_terms(sys, w, Pm, psd_tol):
        """(N, N^+, U0, residual, range defect, least eigenvalue of N,
        Theta_0) at the symmetrized P: see ``verify_static_stabilizing``."""
        maps = GareMaps(sys, w)
        N = maps.control_part(Pm)
        L = maps.cross_part(Pm)
        N_dag, U0 = control_pseudoinverse(N, psd_tol)
        res_norm = fro(symmetrize(maps.lyapunov_part(Pm) - L @ N_dag @ L.T))
        rdefect = fro(N @ (N_dag @ L.T) - L.T) / (1.0 + fro(L))
        n_min = float(np.linalg.eigvalsh(N)[0])
        return N, N_dag, U0, res_norm, rdefect, n_min, -N_dag @ L.T


class _Floats:
    """The same arithmetic for n = m = 1, on Python floats: problems are
    (_ScalarSystem, _ScalarWeights) pairs and values floats.

    Each operation gives the bits of the 1 x 1 numpy evaluation it stands
    for, its errors included: ``_halved`` is ``symmetrize``, ``_fro`` is
    ``fro``, ``_mm`` a matmul, the SVD of [x] is U = sign(x), Vt = 1 and
    s = |x| (from LAPACK where it scales x), and eigvalsh([x]) is x; sums
    run left to right, as numpy's binary operators do, and every non-finite
    value raises the :class:`InvalidInputError` that ``as_matrix`` raises,
    under its name.
    """

    norm = abs                      # the flow's and Newton's norm
    fro = _fro
    flow_sym = float                # a float is its own symmetrization
    symmetrize = _halved

    @staticmethod
    def problem(sys, w):
        """The problem of 1 x 1 matrices, on floats."""
        if (w.n, w.m) != (1, 1):
            raise InvalidInputError("cost weights do not match system dimensions")
        return (_ScalarSystem(*(float(M[0, 0]) for M in (sys.A, sys.C, sys.B, sys.D))),
                _ScalarWeights(*(float(M[0, 0]) for M in (w.Q, w.S, w.R))))

    @staticmethod
    def maps(sys, w):
        return _scalar_are(sys, w), _scalar_gain_value(sys, w)

    @staticmethod
    def state(X) -> float:
        return float(X[0, 0])

    @staticmethod
    def matrix(x) -> np.ndarray:
        return np.reshape(x, (1, 1))

    @staticmethod
    def reduce(sys, w, Sigma):
        """``_transform`` of the problem on floats; its names for the failed
        checks are those of the ControlledSystem and CostWeights it builds."""
        Sig = as_matrix(Sigma, "Sigma")
        if Sig.shape != (1, 1):
            raise InvalidInputError("Sigma must be m x n")
        sig = float(Sig[0, 0])
        (a, c, b, d), (q, s, r) = sys, w
        at = a + _mm(b, sig)
        ct = c + _mm(d, sig)
        qt = _halved(q + _mm(s, sig) + _mm(sig, s) + _mm(_mm(sig, r), sig))
        st = s + _mm(r, sig)
        tsys = _ScalarSystem(_checked(at, "A"), _checked(ct, "C"), b, d)
        return tsys, _ScalarWeights(_halved(qt, "Q"), _checked(st, "S"), _halved(r, "R"))

    @staticmethod
    def lyapunov_value(tsys, tw) -> float:
        return float(solve_lyapunov(SystemPair(tsys.A, tsys.C), tw.Q)[0, 0])

    @staticmethod
    def regularized(tw, eps):
        q, s, r = tw
        return _ScalarWeights(_halved(q, "Q"), _checked(s, "S"), _halved(r + eps, "R"))

    @staticmethod
    def gare_terms(sys, w, pm, psd_tol):
        (a, c, b, d), (q, s, r) = sys, w
        n_val = _halved(r + _mm(_mm(d, pm), d))
        l_val = _mm(pm, b) + _mm(_mm(c, pm), d) + s
        # control_pseudoinverse: one more symmetrize, and the SVD of [nm]
        nm = _halved(n_val)
        s0 = abs(nm)
        if not _SVD_UNSCALED[0] <= s0 <= _SVD_UNSCALED[1] and s0 != 0.0:
            s0 = float(np.linalg.svd(np.array([[nm]]), full_matrices=False)[1][0])
        if s0 > max(1e-10 * s0, psd_tol * (1.0 + _fro(nm))):
            n_dag, U0 = (1.0 / s0) * math.copysign(1.0, nm), _REGULAR
            n_dag = (n_dag + n_dag) / 2.0
        else:
            n_dag, U0 = 0.0, _SINGULAR
        lyap = _mm(pm, a) + _mm(a, pm) + _mm(_mm(c, pm), c) + q
        res_norm = _fro(_halved(lyap - _mm(_mm(l_val, n_dag), l_val)))
        rdefect = _fro(_mm(n_val, _mm(n_dag, l_val)) - l_val) / (1.0 + _fro(l_val))
        return n_val, n_dag, U0, res_norm, rdefect, n_val, _mm(-n_dag, l_val)

    @staticmethod
    def stabilizes(sys, theta, witness=None) -> bool:
        """``is_stabilizer`` on floats: 2 (A + B theta) + (C + D theta)^2 < 0."""
        _checked(theta, "Theta")
        a_cl = _checked(sys.A + _mm(sys.B, theta), "A")
        c_cl = _checked(sys.C + _mm(sys.D, theta), "C")
        return 2.0 * a_cl + c_cl * c_cl < 0.0


_REGULAR, _SINGULAR = np.empty((1, 0)), np.ones((1, 1))     # U0 of a 1 x 1 N(P)
# LAPACK's dgesdd scales a matrix whose largest entry lies outside
# [2^-459, 2^459] (sqrt(safe minimum) / eps and its inverse) into that range
# and its singular values back, which can move |x| by an ulp: there the SVD
# of [x] is taken from numpy
_SVD_UNSCALED = (2.0 ** -459, 2.0 ** 459)


def _arithmetic(sys):
    """The arithmetic of the problems of [A, C; B, D]: ``_Floats`` when
    n = m = 1, ``_Matrices`` otherwise.  Every float/matrix choice of the
    package's Riccati and GARE solvers is this one."""
    return _Floats if sys.n == 1 and sys.m == 1 else _Matrices


def _newton_limit(
    sys: ControlledSystem, w: CostWeights, P0, stat_tol: float
) -> tuple[np.ndarray | None, dict]:
    """``_newton`` for the strictly convex ARE of a problem of matrices, from
    an n x n P0; P is an n x n matrix."""
    ar = _arithmetic(sys)
    P, solve = _newton(*ar.maps(*ar.problem(sys, w)), ar.norm, ar.state(P0), stat_tol)
    return (None if P is None else ar.matrix(P)), solve


def _least_cost_scalar_gain(a: float, c: float, b: float, d: float) -> float:
    """For n = m = 1, the gain t of least unit-weight cost (1 + t^2) / -rate(t),
    rate(t) = 2(A + B t) + (C + D t)^2 = alpha + 2 beta t + delta t^2, among
    those of negative rate: the root of beta t^2 + (alpha - delta) t - beta
    with beta t <= 0.  The cost grows without bound toward the ends of the
    interval of negative rate, so the minimum exists when the interval is
    not empty: its rate is negative exactly when some gain's is, and its
    cost is the unit-weight ARE solution.  Each branch adds terms of one
    sign, halved so that the sum stays in range.
    """
    beta, h = b + c * d, a + (c * c - d * d) / 2.0       # h = (alpha - delta) / 2
    s = math.hypot(h, beta)
    if h < 0.0:
        return -beta / (s - h)
    return 0.0 if beta == 0.0 else -(h + s) / beta


def _stabilizing_limit(sys: ControlledSystem, cfg: FlowConfig):
    """The solution of the unit-weight ARE (Q = I, S = 0, R = I) that the
    flow from 0 reaches: the flow until its first certified gain, then
    Newton-Kleinman.

    At accepted steps 0, 1, 2, 4, 8, ... the flow hands its gain -K(Sig) to
    the certifying gain-value map, settled as in ``_newton``, and stops at
    the first gain certified or at its own converged limit.  Both end the
    same way: Newton-Kleinman from that gain's value, or from the converged
    limit, which meets Newton's bound so that Newton takes no step, then one
    check of the gain Gamma = -K(P) of Newton's limit P, with P as its
    Lyapunov witness: with unit weights the closed loop maps P to
    -(I + Gamma'Gamma) plus the ARE residual, below ``stat_tol`` relative,
    so P certifies its gain with two Cholesky factors and no Schur form, and
    the check falls back to the Lyapunov solve on I only where rounding
    defeats that.  With Q > 0, Newton from a stabilizing gain
    reaches the unique PSD solution, the flow's limit, and that is positive
    definite, so a failure there, or a P without a Cholesky factor, raises
    :class:`InternalInconsistencyError`.  A flow of k steps that certifies
    no gain makes at most floor(log2 k) + 2 certification attempts.

    For n = m = 1 neither runs: Theta is ``_least_cost_scalar_gain`` and P
    its value, with no bound on the residual.  A refused gain means that
    none is stabilizing ('refuted').  The value of a certified gain is
    positive, and fails the test p > 0 (the Cholesky factor of [p]) or is
    not finite only where floats cannot hold it: it overflows, or the
    closed-loop rate does and the value rounds to 0.  Every stabilizer's
    then does the same ('unsettled').

    Returns (P, Theta, residual, route).  P is the limit, Theta = -K(P) its
    certified gain and residual the norm of the ARE residual at P, below
    ``cfg.stat_tol * (1 + ||P||)``; all three are None when the system is
    classified not stabilizable.  route is {"status", "flow_steps",
    "newton_steps"}: status is 'certified' when a checked gain was
    certified, 'refuted' or 'unsettled' as above, and the flow's own status
    otherwise.
    """
    n, m = sys.n, sys.m
    ar = _arithmetic(sys)
    psys, w = ar.problem(sys, CostWeights._checked(np.eye(n), np.zeros((m, n)), np.eye(m)))
    are, gain_value = ar.maps(psys, w)
    norm = ar.norm
    if ar is _Floats:
        theta = _least_cost_scalar_gain(*psys)
        P = gain_value(theta, None)
        route = {"status": "certified", "flow_steps": 0, "newton_steps": 0}
        if P is None or not 0.0 < P < math.inf:     # [p] has a Cholesky factor iff p > 0
            route["status"] = "refuted" if P is None else "unsettled"
            return None, None, None, route
        return np.array([[P]]), np.array([[theta]]), abs(are(P)[0]), route
    start = None                # the value of the first certified gain

    def certified(y):
        nonlocal start
        residual, K = are(y)
        start = gain_value(-K, y, _newton_forcing(norm(residual) / (1.0 + norm(y))))
        return start is not None

    status, times, values, _ = _adaptive_flow(lambda y: are(y)[0], ar.flow_sym, norm,
                                              np.zeros((n, n)), cfg, stop=certified)
    route = {"status": status, "flow_steps": len(times) - 1, "newton_steps": 0}
    if status == "stopped":
        route["status"] = "certified"
    elif status == "converged":
        start = values[-1]
    else:
        return None, None, None, route
    P, solve = _newton(are, gain_value, norm, start, cfg.stat_tol)
    route["newton_steps"] = solve["steps"]
    cause = solve.get("failed")
    if cause is None:
        residual, K = are(P)
        if not is_stabilizer(sys, -K, P):
            cause = "the gain of its limit is not certified mean-square stabilizing"
    if cause is not None:
        raise InternalInconsistencyError(
            f"Newton-Kleinman from the unit-weight flow failed: {cause}")
    # a Cholesky factor: a margin relative to ||P|| would refuse a correct P
    # that is ill-conditioned, as near-marginal pairs give
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise InternalInconsistencyError(
            "the unit-weight ARE solution is not positive definite") from None
    return P, -K, float(norm(residual)), route


def solve_are_strict(
    sys: ControlledSystem, w: CostWeights, cfg: FlowConfig | None = None
) -> np.ndarray | None:
    """Solve the strictly convex ARE (with R + D'PD > 0) over a stable pair.

    One certifying Lyapunov solve gives the terminal value G solving
    G A + A'G + C'G C + Q = 0 (the infinite-horizon cost of the uncontrolled
    system), or raises :class:`NotStableError` when [A, C] is not certified
    mean-square stable.  Newton-Kleinman runs from G, and its limit is
    accepted when the ARE residual is below ``cfg.stat_tol * (1 + ||P||)``.
    Returns None when Newton fails -- R + D'PD loses definiteness, a gain is
    not certified stabilizing, a value is not finite or 60 steps do not
    converge -- i.e. the strictly convex problem has no stabilizing
    solution: such a solution lies below G, and Newton from G reaches it.
    """
    try:
        G = solve_lyapunov(sys.pair(), w.Q)
    except LyapunovUnsolvableError as exc:
        raise NotStableError("solve_are_strict requires a mean-square stable [A, C]") from exc
    return _newton_limit(sys, w, G, (cfg or FlowConfig()).stat_tol)[0]


_NOT_A_STABILIZER = "Sigma is not a stabilizer of the system"


def _transform(sys: ControlledSystem, w: CostWeights, Sigma):
    """``transform_problem`` without the stability check of the reduced pair."""
    Sig = as_matrix(Sigma, "Sigma")
    if Sig.shape != (sys.m, sys.n):
        raise InvalidInputError("Sigma must be m x n")
    At = sys.A + sys.B @ Sig
    Ct = sys.C + sys.D @ Sig
    Qt = symmetrize(w.Q + w.S.T @ Sig + Sig.T @ w.S + Sig.T @ w.R @ Sig)
    St = w.S + w.R @ Sig
    return ControlledSystem(At, Ct, sys.B, sys.D), CostWeights(Qt, St, w.R)


def transform_problem(
    sys: ControlledSystem, w: CostWeights, Sigma
) -> tuple[ControlledSystem, CostWeights]:
    """Absorb a stabilizing pre-feedback u = Sigma x + v into the data.

    Returns ([A + B Sigma, C + D Sigma; B, D], (Q~, S~, R)) with

        Q~ = Q + S'Sigma + Sigma'S + Sigma'R Sigma,    S~ = S + R Sigma,

    so that the transformed uncontrolled pair is L2-stable and the cost of
    (x, v) equals the original cost of (x, Sigma x + v).
    """
    reduced = _transform(sys, w, Sigma)
    if not is_stabilizer(sys, Sigma):
        raise InvalidInputError(_NOT_A_STABILIZER)
    return reduced


@dataclass
class GareConfig:
    """Configuration of the GARE solver; ``epsilon_schedule`` and ``path_tol``
    govern the epsilon path, where it runs."""

    epsilon_schedule: tuple[float, ...] = tuple(10.0 ** -k for k in range(1, 9))
    path_tol: float = 1e-6         # relative settling threshold on consecutive P_eps or limits
    res_tol: float = 1e-6          # relative ARE residual bound on the final P
    range_tol: float = 1e-6        # normalized range-condition defect bound
    psd_tol: float = 1e-8          # relative lower bound slack on eigenvalues of N(P)
    flow: FlowConfig = field(default_factory=FlowConfig)
    reduction_stabilizer: np.ndarray | None = None   # override the computed Sigma


@dataclass
class GareSolution:
    """Static stabilizing solution of the generalized ARE with its feedback."""

    P: np.ndarray                    # the static stabilizing solution
    Theta: np.ndarray                # stabilizing feedback -N^+L' + (I - N^+N) Pi
    Pi: np.ndarray                   # the free parameter actually chosen
    diagnostics: dict


@dataclass
class GareUnsolvable:
    """Outcome when a strictly convex solve of the epsilon path fails, the
    path does not settle, or the limit fails verification -- the problem has
    no static stabilizing solution (or is numerically indistinguishable from
    such a problem).  ``reason`` names the first of these, and for a failed
    solve its epsilon and Newton's cause."""

    reason: str
    diagnostics: dict


def control_pseudoinverse(N, psd_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """(N^+, U0): the pseudoinverse of N = R + D'PD and an orthonormal basis
    U0 of its null space, from one SVD under the package's one rank rule.

    Singular values at or below ``max(1e-10 s_max, psd_tol * (1 + ||N||))``
    count as zero.  At a degenerate solution N(P) is singular in exact
    arithmetic but carries O(eps) rounding, and the absolute floor keeps the
    induced feedback family's full null-space freedom.  The GARE residual,
    the range condition, the feedback family and v* all read the rank of
    N(P) from here, so an R with eigenvalues below that floor needs a
    smaller ``psd_tol``.
    """
    Nm = symmetrize(N)
    U, s, Vt = np.linalg.svd(Nm, full_matrices=False)
    kept = s > max(1e-10 * s[0], psd_tol * (1.0 + fro(Nm)))
    inv = np.zeros_like(s)
    inv[kept] = 1.0 / s[kept]
    N_dag = Vt.T @ (inv[:, None] * U.T) if kept.any() else np.zeros_like(Nm)
    return (N_dag + N_dag.T) / 2.0, Vt[~kept].T


def _select_feedback(ar, sys: ControlledSystem, psys, N, N_dag, U0, Theta0,
                     flow_cfg: FlowConfig, witness):
    """Pick Theta = -N^+ L' + (I - N^+N) Pi stabilizing, trying Pi = 0 first.

    ``N_dag`` and ``U0`` are ``control_pseudoinverse(N)``, Theta0 = -N^+ L'
    and ``psys`` the system, all in the arithmetic ``ar``; ``witness`` is
    the candidate P, tried as the Lyapunov witness of Pi = 0 (see
    ``is_l2_stable``): with weights [[Q, S'], [S, R]] > 0 the closed loop
    maps P to minus its positive definite cost weight plus the GARE
    residual, so P certifies the gain without a Schur form; otherwise the
    check runs as without it.  When N is singular and Pi = 0 fails, the
    search reduces, on matrices, to stabilizing the system restricted to the
    control directions U0 in the null space of N (deterministic and
    complete, since the restricted search is itself the full
    stabilizability test).  Returns (Theta, Pi) as matrices, or None.
    """
    from .stabilizability import find_stabilizer

    if ar.stabilizes(psys, Theta0, witness):
        return ar.matrix(Theta0), np.zeros((sys.m, sys.n))
    if U0.shape[1] == 0:
        return None
    N, N_dag, Theta0 = ar.matrix(N), ar.matrix(N_dag), ar.matrix(Theta0)
    restricted = ControlledSystem(
        sys.A + sys.B @ Theta0, sys.C + sys.D @ Theta0, sys.B @ U0, sys.D @ U0
    )
    Z = find_stabilizer(restricted, flow_cfg)
    if Z is None:
        return None
    Pi = U0 @ Z
    Theta = Theta0 + (np.eye(sys.m) - N_dag @ N) @ Pi
    if not is_stabilizer(sys, Theta):
        return None
    return Theta, Pi


def _epsilon_path(tsys, tw, G, cfg: GareConfig, diagnostics: dict):
    """Follow the strictly convex solutions P_eps of the reduced problem with
    control weight R + eps I down ``cfg.epsilon_schedule`` to their limit.

    The reduced problem (tsys, tw), in the arithmetic of its size, has a
    certified stable pair and G, in the same arithmetic, is its Lyapunov
    value.  Each epsilon is solved by Newton-Kleinman (``_newton``),
    starting from G at the first epsilon and from the previous P_eps after
    it.  The path has settled when P_eps, or its extrapolated limit, stops
    moving.  Records in ``diagnostics`` the ``epsilon_solves`` entries, each
    after the first solve with ``"change"``, ||P_eps - P_prev||, and on
    success ``settled_at_epsilon``, the first epsilon from which every later
    one settled, and ``extrapolation_norm``.  Returns (P, reason): P is the
    symmetrized limit, in the arithmetic of the problem, or None with
    ``reason`` saying where the path broke down and, at a failed solve, why
    Newton failed.
    """
    ar = _arithmetic(tsys)
    fro = ar.fro
    prev = limit = settled_at = None
    solves: list[dict] = []
    diagnostics["epsilon_solves"] = solves
    for eps in cfg.epsilon_schedule:
        w_eps = ar.regularized(tw, eps)
        P_eps, solve = _newton(*ar.maps(tsys, w_eps), ar.norm, G if prev is None else prev[1],
                               cfg.flow.stat_tol)
        entry = {"epsilon": eps, **solve}
        solves.append(entry)
        if P_eps is None:
            return None, (f"strictly convex solve failed at epsilon={eps:g}: "
                          f"{solve['failed']}")
        if prev is not None:
            # Geometric-schedule limit estimate: with P_eps ~= P + c*eps the
            # residual correction after this refinement is
            # (P_k - P_{k-1}) * r / (1 - r).
            ratio = eps / prev[0]
            prev_limit, limit = limit, P_eps
            if ratio != 1.0:        # a repeated epsilon shows no slope
                limit = P_eps + (P_eps - prev[1]) * (ratio / (1.0 - ratio))
            # Settled when P_eps stops moving, or when two consecutive limit
            # estimates agree: a P_eps linear in eps keeps moving by c*eps.
            # The whole schedule still runs: the regularized gains only
            # approach their limit linearly in epsilon even when P_eps has
            # already settled.
            entry["change"] = fro(P_eps - prev[1])
            settled = (entry["change"] < cfg.path_tol * (1.0 + fro(P_eps))
                       or prev_limit is not None
                       and fro(limit - prev_limit) < cfg.path_tol * (1.0 + fro(limit)))
            if not settled:
                settled_at = None
            elif settled_at is None:
                settled_at = eps
        prev = (eps, P_eps)

    if settled_at is None:
        return None, ("epsilon path did not settle by the end of the schedule; "
                      "problem unsolvable or ill-conditioned")
    P = ar.symmetrize(limit)
    diagnostics["settled_at_epsilon"] = settled_at
    diagnostics["extrapolation_norm"] = fro(P - prev[1])
    return P, None


def solve_gare(
    sys: ControlledSystem, w: CostWeights, cfg: GareConfig | None = None
) -> GareSolution | GareUnsolvable:
    """Compute the static stabilizing solution of the generalized ARE.

    Pipeline: stabilize the system with a pre-feedback Sigma (the given
    ``cfg.reduction_stabilizer``, else the one found by the stabilizability
    decision) and reduce to the stable case, whose Lyapunov value G is the
    cost of the gain 0.  Newton-Kleinman from G at epsilon = 0 (the direct
    route) reaches the stabilizing solution whenever it has
    R + D'PD > 0 (Damm & Hinrichsen 2001), and its limit is accepted through
    the checks of :func:`verify_static_stabilizing` on the original
    (untransformed) data, which also supply the feedback.  Only when Newton
    fails or the verifier rejects its limit -- singular R + D'PD, or no
    solution -- does the epsilon path run (``_epsilon_path``): the strictly
    convex solutions P_eps with control weight R + eps I, followed down the
    epsilon schedule until they settle, whose limit goes through the same
    verifier.  The problem enters its arithmetic once, and the reduction,
    both routes and the verifier take it as converted.  Every pair is
    certified once: the Lyapunov solve for G certifies the reduced pair,
    which neither route re-checks, and the verifier certifies the feedback.

    Raises :class:`NotStabilizableError` when the system has no stabilizer,
    and :class:`InvalidInputError` when ``cfg.reduction_stabilizer`` is not one.
    Returns :class:`GareUnsolvable` when the epsilon path breaks down or its
    limit fails verification (the problem has no optimal control).  Either
    outcome's ``diagnostics["epsilon_solves"]`` lists, per epsilon reached,
    ``{"epsilon", "steps"}``, the Newton steps taken.  On the epsilon path
    every entry after the first also carries ``"change"``,
    ||P_eps - P_prev||, and the entry of a failed solve carries ``"failed"``
    instead, Newton's cause, which ends the ``reason``.  For the direct route
    that is one entry at epsilon 0.0, and there is no ``settled_at_epsilon``
    or ``extrapolation_norm``.
    """
    cfg = cfg or GareConfig()
    if cfg.reduction_stabilizer is not None:
        Sigma = as_matrix(cfg.reduction_stabilizer, "reduction_stabilizer")
    else:
        from .stabilizability import find_stabilizer

        Sigma = find_stabilizer(sys, cfg.flow)
        if Sigma is None:
            raise NotStabilizableError("system [A,C;B,D] is not L2-stabilizable")

    ar = _arithmetic(sys)
    psys, pw = ar.problem(sys, w)
    tsys, tw = ar.reduce(psys, pw, Sigma)
    try:
        G = ar.lyapunov_value(tsys, tw)     # certifies Sigma, as transform_problem would
    except LyapunovUnsolvableError as exc:
        # a failure that depends on Q, not on the pair, is the solver's own
        if is_stabilizer(sys, Sigma):
            raise
        raise InvalidInputError(_NOT_A_STABILIZER) from exc

    diagnostics: dict = {"sigma": Sigma}
    P, solve = _newton(*ar.maps(tsys, tw), ar.norm, G, cfg.flow.stat_tol)
    check = None if P is None else _verify(ar, sys, psys, pw, P, cfg)
    if check is not None and check.passed:
        diagnostics["epsilon_solves"] = [{"epsilon": 0.0, **solve}]
    else:
        P, reason = _epsilon_path(tsys, tw, G, cfg, diagnostics)
        if P is None:
            return GareUnsolvable(reason, diagnostics)
        check = _verify(ar, sys, psys, pw, P, cfg)
    diagnostics.update(are_residual=check.are_residual, range_defect=check.range_defect,
                       n_min_eig=check.n_min_eig)
    if check.reason is not None:
        return GareUnsolvable(check.reason, diagnostics)
    return GareSolution(P=ar.matrix(P), Theta=check.theta, Pi=check.pi, diagnostics=diagnostics)


@dataclass
class GareVerification:
    """Independent recheck of a candidate GARE solution."""

    are_residual: float
    n_min_eig: float
    range_defect: float
    theta: np.ndarray | None         # the stabilizing feedback of the induced family
    pi: np.ndarray | None            # the free parameter that gives theta
    reason: str | None               # the first failed check, None when all pass

    @property
    def passed(self) -> bool:
        return self.reason is None


def verify_static_stabilizing(
    sys: ControlledSystem, w: CostWeights, P, cfg: GareConfig | None = None
) -> GareVerification:
    """Recompute, from scratch, whether P is a static stabilizing GARE solution.

    All four findings (residual, range condition, semidefiniteness of N(P),
    existence of a stabilizing feedback in the induced family) are evaluated
    directly from the inputs, independent of how P was produced; ``reason``
    names the first that fails, in that order.  The residual
    M(P) - L(P) N(P)^+ L(P)', the range defect ||(I - N N^+) L'|| / (1 + ||L||)
    and the feedback family all use the one N(P)^+ of
    ``control_pseudoinverse``, whose rank rule is ``cfg.psd_tol``.  The
    symmetrized P is offered as the Lyapunov witness of the feedback
    Theta_0 = -N^+ L', which a witness can only certify, never refuse, so
    the findings still depend on the inputs alone.
    """
    P = as_matrix(P, "P")
    if P.shape != (sys.n, sys.n):
        raise InvalidInputError("P must be n x n")
    ar = _arithmetic(sys)
    return _verify(ar, sys, *ar.problem(sys, w), ar.state(P), cfg or GareConfig())


def _verify(ar, sys: ControlledSystem, psys, pw, P, cfg: GareConfig) -> GareVerification:
    """``verify_static_stabilizing`` of P in the arithmetic ``ar``, where the
    problem of ``sys`` is (psys, pw)."""
    Pm = ar.symmetrize(P, "P")
    N, N_dag, U0, res_norm, rdefect, n_min, Theta0 = ar.gare_terms(psys, pw, Pm, cfg.psd_tol)
    picked = _select_feedback(ar, sys, psys, N, N_dag, U0, Theta0, cfg.flow, Pm)
    fro = ar.fro
    failures = (
        (res_norm > cfg.res_tol * (1.0 + fro(Pm)), "limit fails the ARE residual check"),
        (rdefect > cfg.range_tol, "limit fails the range condition"),
        (n_min < -cfg.psd_tol * (1.0 + fro(N)), "R + D'PD is not positive semidefinite"),
        (picked is None, "no feedback of the admissible family stabilizes the system"),
    )
    theta, pi = picked if picked is not None else (None, None)
    return GareVerification(
        are_residual=res_norm,
        n_min_eig=n_min,
        range_defect=rdefect,
        theta=theta,
        pi=pi,
        reason=next((text for failed, text in failures if failed), None),
    )
