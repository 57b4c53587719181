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

from .errors import InvalidInputError, UnsupportedInputError, ValueUndefinedError
from .linalg import fro
from .riccati import CostWeights, GareConfig, GareMaps, GareSolution, control_pseudoinverse
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
    """The affine part of the optimal strategy on its forcing grid.

    The martingale term of the backward equation is identically zero for
    deterministic forcing; eta is exact per interval (matrix-exponential
    form) and identically zero beyond the support.  ``eta`` and ``v_star``
    hold values at the breakpoints of ``grid``, solved with the Riccati
    solution ``P``; ``range_check`` is the range condition on the grid, as
    :func:`check_range_ez` finds it.
    """

    grid: InhomogeneityGrid
    P: np.ndarray
    eta: np.ndarray                # (K+1, n)
    v_star: np.ndarray             # (K+1, m)
    range_check: RangeCheck = None
    _drift_T: np.ndarray = field(repr=False, default=None)   # (A + B Theta)'
    _phi: np.ndarray = field(repr=False, default=None)       # (K, n)
    _N: np.ndarray = field(repr=False, default=None)
    _N_dag: np.ndarray = field(repr=False, default=None)
    _BT: np.ndarray = field(repr=False, default=None)
    _DTP: np.ndarray = field(repr=False, default=None)

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    def eta_at(self, t: float) -> np.ndarray:
        """Evaluate eta exactly at any time (zero beyond the support)."""
        n = self.eta.shape[1]
        if t >= self.grid.support_end:
            return np.zeros(n)
        if t < 0.0:
            raise InvalidInputError("eta is defined on t >= 0")
        k = self.grid.interval_of(t)
        tau = float(self.grid.times[k + 1] - t)
        prop, integ = _propagator(self._drift_T, self._phi[k], tau)
        return prop @ self.eta[k + 1] + integ

    def v_star_at(self, t: float) -> np.ndarray:
        """The affine control term v*(t) = -N(P)^+ w(t)."""
        return -self._N_dag @ self._w(t, self.eta_at(t))

    def _w(self, t: float, eta_t: np.ndarray) -> np.ndarray:
        """The range-condition vector w(t) = B'eta(t) + D'P sigma(t) + rho(t),
        given eta(t)."""
        w = self._BT @ eta_t
        k = self.grid.interval_of(t)
        if k is not None:
            w = w + self._DTP @ self.grid.sigma[k] + self.grid.rho[k]
        return w


def _propagator(M: np.ndarray, phi_k: np.ndarray, tau: float):
    """exp(M tau) and int_0^tau exp(M s) phi_k ds via one block exponential."""
    # SciPy loads on first use: scalar unforced runs never need it
    from scipy.linalg import expm

    n = M.shape[0]
    blk = np.zeros((n + 1, n + 1))
    blk[:n, :n] = M
    blk[:n, n] = phi_k
    E = expm(blk * tau)
    return E[:n, :n], E[:n, n]


def solve_eta(sol: GareSolution, sys: ControlledSystem, w: CostWeights,
              g: InhomogeneityGrid, cfg: GareConfig | None = None) -> AffineTerms:
    """Solve for the affine terms of the optimal strategy on the forcing grid.

    The free component of v* in the null space of N(P) is taken as zero.
    ``cfg`` is the configuration ``sol`` was solved with: its ``psd_tol``
    sets the rank of N(P)^+ and its ``range_tol`` the range check.
    """
    if g.n != sys.n or g.m != sys.m:
        raise InvalidInputError("forcing grid dimensions do not match the system")
    cfg = GareConfig() if cfg is None else cfg
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
    N_dag, _ = control_pseudoinverse(N, cfg.psd_tol)

    terms = AffineTerms(
        grid=g,
        P=P,
        eta=eta,
        v_star=np.zeros((K + 1, sys.m)),
        _drift_T=M,
        _phi=phi,
        _N=N,
        _N_dag=N_dag,
        _BT=sys.B.T,
        _DTP=sys.D.T @ P,
    )
    for k, t in enumerate(map(float, g.times)):
        terms.v_star[k] = -N_dag @ terms._w(t, eta[k])
    terms.range_check = check_range_ez(terms, cfg.range_tol)
    return terms


@dataclass
class RangeCheck:
    """Outcome of the pointwise range condition; truthy iff it holds."""

    ok: bool
    max_defect: float
    worst_t: float

    def __bool__(self) -> bool:
        return self.ok


def check_range_ez(terms: AffineTerms, tol: float = GareConfig.range_tol) -> RangeCheck:
    """Check w(t) in range(N(P)) at every breakpoint and interval midpoint.

    The condition must hold for almost every t; checking on the grid plus
    midpoints is the discretization choice recorded in the report.
    """
    N_dag = terms._N_dag
    Nmat = terms._N
    times = terms.grid.times
    pts = [(float(t), eta_t) for t, eta_t in zip(times, terms.eta)]
    for k in range(times.size - 1):
        t = float(0.5 * (times[k] + times[k + 1]))
        pts.append((t, terms.eta_at(t)))
    worst = (0.0, 0.0)
    for t, eta_t in pts:
        w_vec = terms._w(t, eta_t)
        defect = fro(Nmat @ (N_dag @ w_vec) - w_vec) / (1.0 + fro(w_vec))
        if defect > worst[0]:
            worst = (defect, t)
    return RangeCheck(worst[0] <= tol, worst[0], worst[1])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def assemble_value(terms: AffineTerms, x) -> float:
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
    P = terms.P
    if xv.size != P.shape[0]:
        raise InvalidInputError("x has the wrong dimension")
    check = terms.range_check
    if not check:
        raise ValueUndefinedError(
            f"range condition fails (defect {check.max_defect:.3e} at t={check.worst_t:g})"
        )
    g = terms.grid
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
            w_vec = terms._w(t, eta_t)
            acc += weight * (const_part + 2.0 * eta_t @ b_k - w_vec @ N_dag @ w_vec)
        total += half * acc
    return total


def step_intervals(g: InhomogeneityGrid, dt: float, nsteps: int) -> np.ndarray:
    """The forcing interval k of each step of a uniform step grid; k = K,
    the number of intervals, past the support.

    Step j covers [j dt, (j+1) dt), and breakpoint t_k starts at step
    round(t_k / dt).  Raises InvalidInputError unless every breakpoint is a
    multiple of dt, so that no step straddles two intervals.
    """
    ratio = g.times / dt
    starts = np.rint(ratio)
    off = np.abs(ratio - starts) > 1e-9 * np.maximum(1.0, ratio)
    if off.any():
        t = g.times[np.argmax(off)]
        raise InvalidInputError(f"forcing breakpoint t={t:g} is not a multiple of dt={dt:g}")
    return np.searchsorted(starts, np.arange(nsteps), side="right") - 1


def forcing_on_steps(g: InhomogeneityGrid | None, dt: float, nsteps: int,
                     n: int, m: int):
    """Left-endpoint samples of (b, sigma, q, rho) on a uniform step grid."""
    if g is None:
        return tuple(np.zeros((nsteps, d)) for d in (n, n, n, m))
    ks = step_intervals(g, dt, nsteps)
    return tuple(np.vstack([V, np.zeros(V.shape[1])])[ks] for V in (g.b, g.sigma, g.q, g.rho))


def vstar_on_steps(terms: AffineTerms, dt: float, nsteps: int) -> np.ndarray:
    """Exact v* at the left endpoints of a uniform step grid.

    Propagates eta backward one step at a time over the forcing support with
    the exact one-step matrix-exponential map of each step's interval, as
    :func:`step_intervals` assigns it.  Beyond the support eta vanishes and
    v* is exactly zero; on it, v*_j = -N(P)^+ (B'eta_j + D'P sigma_k + rho_k)
    for all steps at once.
    """
    g = terms.grid
    ks = step_intervals(g, dt, nsteps)
    # the steps on the support come first
    end = int(np.count_nonzero(ks < g.times.size - 1))
    eta = np.zeros((end + 1, terms.eta.shape[1]))
    if end > 0:
        eta[end] = terms.eta_at(end * dt)
        props = {}
        for j in range(end - 1, -1, -1):
            k = int(ks[j])
            if k not in props:
                props[k] = _propagator(terms._drift_T, terms._phi[k], dt)
            prop, integ = props[k]
            eta[j] = prop @ eta[j + 1] + integ
    v = np.zeros((nsteps, terms.v_star.shape[1]))
    w_const = g.sigma @ terms._DTP.T + g.rho
    v[:end] = -((eta[:end] @ terms._BT.T + w_const[ks[:end]]) @ terms._N_dag.T)
    return v
