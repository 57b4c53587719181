"""Affine terms for deterministic, compactly supported inhomogeneities.

With deterministic piecewise-constant forcing (b, sigma, q, rho) vanishing
beyond the last breakpoint, the martingale part of the backward equation for
the affine term vanishes (zeta = 0) and eta solves the terminal-decay ODE

    d(eta)/dt = -[(A + B Theta)' eta + phi(t)],
    phi = (C + D Theta)' P sigma + Theta' rho + P b + q,

whose unique square-integrable solution is

    eta(t) = int_t^inf exp((A + B Theta)'(s - t)) phi(s) ds.

Because phi is piecewise constant with compact support, eta is computed
interval by interval in closed form with matrix-exponential quadrature and
vanishes identically beyond the support.  The affine control term and the
constant part of the value function follow pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, UnsupportedInputError, ValueUndefinedError
from .linalg import fro
from .riccati import CostWeights, GareMaps, GareSolution, control_pseudoinverse
from .stability import ControlledSystem

__all__ = [
    "AffineTerms",
    "InhomogeneityGrid",
    "RangeCheck",
    "assemble_value",
    "check_range_ez",
    "solve_eta",
]


def _value_rows(values, K: int, dim: int, name: str) -> np.ndarray:
    """Normalize a per-interval value table to shape (K, dim).

    Accepts K rows (one per interval) or K+1 rows whose last row, covering
    [t_K, inf), must be zero: a nonzero tail is not square-integrable.
    """
    V = np.asarray(values, dtype=float)
    if V.ndim == 1:
        V = V.reshape(-1, 1) if dim == 1 else V.reshape(1, -1)
    if not np.isfinite(V).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    if V.shape == (K + 1, dim):
        if np.any(V[-1] != 0.0):
            raise UnsupportedInputError(
                f"{name} has a nonzero value on the unbounded tail; "
                "only compactly supported forcing is supported"
            )
        V = V[:-1]
    if V.shape != (K, dim):
        raise InvalidInputError(f"{name} must have one row per grid interval")
    return V


@dataclass(eq=False)
class InhomogeneityGrid:
    """Piecewise-constant forcing on [0, t_K), identically zero afterwards.

    ``times`` holds the breakpoints 0 = t_0 < ... < t_K; row k of each value
    table applies on [t_k, t_{k+1}).
    """

    times: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    q: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise InvalidInputError("grid needs at least two breakpoints")
        if t[0] != 0.0:
            raise InvalidInputError("grid must start at t = 0")
        if not (np.diff(t) > 0.0).all() or not np.isfinite(t).all():
            raise InvalidInputError("grid must be finite and strictly increasing")
        K = t.size - 1
        # 1-d value tables mean a single state (or control) dimension.
        n = np.asarray(self.b).shape[-1] if np.asarray(self.b).ndim == 2 else 1
        m = np.asarray(self.rho).shape[-1] if np.asarray(self.rho).ndim == 2 else 1
        self.times = t
        self.b = _value_rows(self.b, K, n, "b")
        self.sigma = _value_rows(self.sigma, K, n, "sigma")
        self.q = _value_rows(self.q, K, n, "q")
        self.rho = _value_rows(self.rho, K, m, "rho")

    @classmethod
    def zeros(cls, n: int, m: int, support: float = 1.0) -> "InhomogeneityGrid":
        return cls(np.array([0.0, support]), np.zeros((1, n)), np.zeros((1, n)),
                   np.zeros((1, n)), np.zeros((1, m)))

    @property
    def n(self) -> int:
        return self.b.shape[1]

    @property
    def m(self) -> int:
        return self.rho.shape[1]

    @property
    def support_end(self) -> float:
        return float(self.times[-1])

    def interval_of(self, t: float) -> int | None:
        """Index of the interval containing t, or None beyond the support."""
        if t < 0.0 or t >= self.support_end:
            return None
        return int(np.searchsorted(self.times, t, side="right")) - 1


@dataclass(eq=False)
class AffineTerms:
    """The affine part of the optimal strategy: eta, v*, and evaluators.

    The martingale term of the backward equation is identically zero for
    deterministic forcing; eta is exact per interval (matrix-exponential
    form) and identically zero beyond the support.  ``eta`` and ``v_star``
    hold values at the grid breakpoints; ``range_check`` is the range
    condition on the grid, as :func:`check_range_ez` finds it.
    """

    times: np.ndarray
    eta: np.ndarray                # (K+1, n)
    v_star: np.ndarray             # (K+1, m)
    range_check: RangeCheck = None
    zeta_is_zero: bool = True
    _drift_T: np.ndarray = field(repr=False, default=None)   # (A + B Theta)'
    _phi: np.ndarray = field(repr=False, default=None)       # (K, n)
    _grid: InhomogeneityGrid = field(repr=False, default=None)
    _N: np.ndarray = field(repr=False, default=None)
    _N_dag: np.ndarray = field(repr=False, default=None)
    _BT: np.ndarray = field(repr=False, default=None)
    _DTP: np.ndarray = field(repr=False, default=None)

    def eta_at(self, t: float) -> np.ndarray:
        """Evaluate eta exactly at any time (zero beyond the support)."""
        n = self.eta.shape[1]
        if t >= self._grid.support_end:
            return np.zeros(n)
        if t < 0.0:
            raise InvalidInputError("eta is defined on t >= 0")
        k = self._grid.interval_of(t)
        tau = float(self._grid.times[k + 1] - t)
        prop, integ = _propagator(self._drift_T, self._phi[k], tau)
        return prop @ self.eta[k + 1] + integ

    def forcing_at(self, t: float) -> np.ndarray:
        """The range-condition vector w(t) = B'eta(t) + D'P sigma(t) + rho(t)."""
        k = self._grid.interval_of(t)
        w = self._BT @ self.eta_at(t)
        if k is not None:
            w = w + self._DTP @ self._grid.sigma[k] + self._grid.rho[k]
        return w

    def v_star_at(self, t: float) -> np.ndarray:
        """The affine control term v*(t) = -N(P)^+ w(t)."""
        return -self._N_dag @ self.forcing_at(t)


def _propagator(M: np.ndarray, phi_k: np.ndarray, tau: float):
    """exp(M tau) and int_0^tau exp(M s) phi_k ds via one block exponential."""
    n = M.shape[0]
    blk = np.zeros((n + 1, n + 1))
    blk[:n, :n] = M
    blk[:n, n] = phi_k
    E = scipy.linalg.expm(blk * tau)
    return E[:n, :n], E[:n, n]


def solve_eta(sol: GareSolution, sys: ControlledSystem, w: CostWeights,
              g: InhomogeneityGrid) -> AffineTerms:
    """Solve for the affine terms of the optimal strategy on the forcing grid.

    The free component of v* in the null space of N(P) is taken as zero.
    """
    if g.n != sys.n or g.m != sys.m:
        raise InvalidInputError("forcing grid dimensions do not match the system")
    Theta, P = sol.Theta, sol.P
    M = (sys.A + sys.B @ Theta).T
    CL_T = (sys.C + sys.D @ Theta).T
    K = g.times.size - 1

    # phi_k = (C + D Theta)' P sigma_k + Theta' rho_k + P b_k + q_k
    phi = (g.sigma @ (CL_T @ P).T + g.rho @ Theta + g.b @ P.T + g.q)

    eta = np.zeros((K + 1, sys.n))
    for k in range(K - 1, -1, -1):
        tau = float(g.times[k + 1] - g.times[k])
        prop, integ = _propagator(M, phi[k], tau)
        eta[k] = prop @ eta[k + 1] + integ

    N = GareMaps(sys, w).control_part(P)
    N_dag = control_pseudoinverse(N)

    terms = AffineTerms(
        times=g.times.copy(),
        eta=eta,
        v_star=np.zeros((K + 1, sys.m)),
        _drift_T=M,
        _phi=phi,
        _grid=g,
        _N=N,
        _N_dag=N_dag,
        _BT=sys.B.T,
        _DTP=sys.D.T @ P,
    )
    for k in range(K + 1):
        terms.v_star[k] = terms.v_star_at(float(g.times[k]))
    terms.range_check = check_range_ez(sol, terms, g)
    return terms


@dataclass
class RangeCheck:
    """Outcome of the pointwise range condition; truthy iff it holds."""

    ok: bool
    max_defect: float
    worst_t: float

    def __bool__(self) -> bool:
        return self.ok


def check_range_ez(sol: GareSolution, terms: AffineTerms, g: InhomogeneityGrid,
                   tol: float = 1e-6) -> RangeCheck:
    """Check w(t) in range(N(P)) at every breakpoint and interval midpoint.

    The condition must hold for almost every t; checking on the grid plus
    midpoints is the discretization choice recorded in the report.
    """
    N_dag = terms._N_dag
    Nmat = terms._N
    pts = list(map(float, g.times))
    pts += [float(0.5 * (g.times[k] + g.times[k + 1])) for k in range(g.times.size - 1)]
    worst = (0.0, 0.0)
    for t in pts:
        w_vec = terms.forcing_at(t)
        defect = fro(Nmat @ (N_dag @ w_vec) - w_vec) / (1.0 + fro(w_vec))
        if defect > worst[0]:
            worst = (defect, t)
    return RangeCheck(worst[0] <= tol, worst[0], worst[1])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def assemble_value(sol: GareSolution, terms: AffineTerms, g: InhomogeneityGrid,
                   x) -> float:
    """Assemble the value V(x) = <Px, x> + 2<eta(0), x> + constant correction.

    The correction integral

        int_0^inf [ <P sigma, sigma> + 2 <eta, b> - <N(P)^+ w, w> ] dt

    is evaluated with 8-point Gauss-Legendre quadrature per forcing interval
    (eta is smooth within each one); beyond the support eta vanishes, so the
    tail contributes exactly zero.  Raises :class:`ValueUndefinedError` when
    the range condition fails, as ``terms.range_check`` (found by
    :func:`solve_eta`) records it.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    P = sol.P
    if xv.size != P.shape[0]:
        raise InvalidInputError("x has the wrong dimension")
    check = terms.range_check
    if not check:
        raise ValueUndefinedError(
            f"range condition fails (defect {check.max_defect:.3e} at t={check.worst_t:g})"
        )
    N_dag = terms._N_dag
    total = float(xv @ P @ xv + 2.0 * terms.eta[0] @ xv)
    for k in range(g.times.size - 1):
        t0, t1 = g.times[k], g.times[k + 1]
        half = 0.5 * (t1 - t0)
        mid = 0.5 * (t0 + t1)
        sig_k, b_k = g.sigma[k], g.b[k]
        const_part = float(sig_k @ P @ sig_k)
        acc = 0.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            t = mid + half * node
            eta_t = terms.eta_at(t)
            w_vec = terms.forcing_at(t)
            acc += weight * (const_part + 2.0 * eta_t @ b_k - w_vec @ N_dag @ w_vec)
        total += half * acc
    return total


def forcing_on_steps(g: InhomogeneityGrid | None, dt: float, nsteps: int,
                     n: int, m: int):
    """Left-endpoint samples of (b, sigma, q, rho) on a uniform step grid."""
    b = np.zeros((nsteps, n))
    sig = np.zeros((nsteps, n))
    q = np.zeros((nsteps, n))
    rho = np.zeros((nsteps, m))
    if g is None:
        return b, sig, q, rho
    for k in range(g.times.size - 1):
        i0 = int(round(g.times[k] / dt))
        i1 = min(int(round(g.times[k + 1] / dt)), nsteps)
        if i0 >= nsteps:
            break
        b[i0:i1] = g.b[k]
        sig[i0:i1] = g.sigma[k]
        q[i0:i1] = g.q[k]
        rho[i0:i1] = g.rho[k]
    return b, sig, q, rho


def vstar_on_steps(terms: AffineTerms | None, g: InhomogeneityGrid | None,
                   dt: float, nsteps: int, m: int) -> np.ndarray:
    """Exact v* at the left endpoints of a uniform step grid.

    Propagates eta backward one step at a time over the forcing support with
    the exact one-step matrix-exponential map, which is valid because every
    forcing breakpoint is required to be a multiple of dt.  Beyond the
    support eta vanishes and v* is exactly zero; on it, v*_j =
    -N(P)^+ (B'eta_j + D'P sigma_k + rho_k) for all steps at once.
    """
    if terms is None or g is None:
        return np.zeros((nsteps, m))
    n = terms.eta.shape[1]
    K = g.times.size - 1
    # interval of each left endpoint as interval_of assigns it, K past the support
    ks = np.searchsorted(g.times, np.arange(nsteps) * dt, side="right") - 1
    end = min(int(round(g.support_end / dt)), nsteps)
    eta = np.zeros((nsteps + 1, n))
    if end > 0:
        eta[end] = terms.eta_at(end * dt)
        props = {}
        for j in range(end - 1, -1, -1):
            k = int(ks[j])
            if k not in props:
                props[k] = _propagator(terms._drift_T, terms._phi[k], dt)
            prop, integ = props[k]
            eta[j] = prop @ eta[j + 1] + integ
    v = np.zeros((nsteps, m))
    on = int(np.count_nonzero(ks < K))
    w_const = g.sigma @ terms._DTP.T + g.rho
    v[:on] = -((eta[:on] @ terms._BT.T + w_const[ks[:on]]) @ terms._N_dag.T)
    return v
