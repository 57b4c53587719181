"""Euler-Maruyama simulation and Monte Carlo cost estimation.

The running cost is accumulated with the left-point rule (the Ito-consistent
choice), the state with the explicit Euler-Maruyama scheme; weak order one is
enough for mean-cost estimation at the tolerances used here.  The discarded
tail of the infinite-horizon cost is estimated through the closed-loop
Lyapunov certificate and reported next to the estimate.

Layout.  The kernel is state-major: the state of all P paths is one (n, P)
array, so every numpy call runs over a contiguous row of P paths instead of
an inner axis of length n.  Each step is one gemm with the stacked matrix
[I + dt A_cl; C_cl; I; Theta], whose last n + m rows give Z = [X; U], and
one quadratic form <W Z, Z> with W = [[Q, S'], [S, R]].

Noise.  Path p's standard normals come, in time order, from the Philox
counter-based generator keyed by (seed, p).  They are drawn a group of paths
at a time and transposed into a step-major (w, P) block, so step k's
increments for all paths are one contiguous row.  The block width w only
sets how much is buffered: it never touches the streams or the arithmetic,
so every result is bit-reproducible and independent of buffering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, LyapunovUnsolvableError, SimulationBudgetError
from .inhomogeneous import AffineTerms, InhomogeneityGrid, forcing_on_steps, vstar_on_steps
from .riccati import CostWeights
from .stability import ControlledSystem, solve_lyapunov

__all__ = [
    "FeedbackCheck",
    "SimConfig",
    "SimResult",
    "feedback_parametrization_check",
    "simulate_closed_loop",
    "simulate_open_loop",
]

_NOISE_BUFFER_BYTES = 192_000_000
_STAGE_BYTES = 4_000_000
_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class SimConfig:
    """Monte Carlo configuration; results are a pure function of its fields."""

    horizon: float
    dt: float
    n_paths: int
    seed: int = 0
    budget: float = 1e9           # cap on n_paths * horizon / dt

    def steps(self) -> int:
        ratio = self.horizon / self.dt
        k = round(ratio)
        if self.dt <= 0.0 or k < 1 or abs(ratio - k) > 1e-9 * max(1.0, ratio):
            raise InvalidInputError("horizon must be an integral number of steps")
        return int(k)


@dataclass
class SimResult:
    """Cost estimate with its sampling error and path statistics."""

    estimate: float
    std_error: float
    terminal_second_moment: float
    cost_quantiles: dict[float, float]
    tail_estimate: float | None
    n_paths: int
    horizon: float
    dt: float


def _validate(cfg: SimConfig, g: InhomogeneityGrid | None, nsteps: int):
    if cfg.n_paths < 1:
        raise InvalidInputError("need at least one path")
    if cfg.n_paths * float(nsteps) > cfg.budget:
        raise SimulationBudgetError(
            f"{cfg.n_paths} paths x {nsteps} steps exceeds budget {cfg.budget:g}"
        )
    if g is not None:
        for t in g.times:
            if abs(t / cfg.dt - round(t / cfg.dt)) > 1e-9 * max(1.0, abs(t) / cfg.dt):
                raise InvalidInputError(
                    f"forcing breakpoint t={t:g} is not a multiple of dt={cfg.dt:g}"
                )


def _brownian_increments(seed: int, n_paths: int, nsteps: int, dt: float):
    """Yield (start, dW): row j of dW holds step start + j's increments for all paths.

    Path p's normals are drawn in time order from Philox keyed by (seed, p),
    a group of paths at a time into a path-major staging buffer of about
    _STAGE_BYTES that is transposed into the step-major block.  The block
    takes the rest of _NOISE_BUFFER_BYTES.
    """
    gens = [np.random.Generator(np.random.Philox(key=[seed, p])) for p in range(n_paths)]
    width = max(64, min(nsteps, (_NOISE_BUFFER_BYTES - _STAGE_BYTES) // (8 * n_paths)))
    stage_rows = max(1, min(n_paths, _STAGE_BYTES // (8 * width)))
    stage = np.empty((stage_rows, width))
    block = np.empty((width, n_paths))
    sqrt_dt = np.sqrt(dt)
    k = 0
    while k < nsteps:
        w = min(width, nsteps - k)
        for p0 in range(0, n_paths, stage_rows):
            p1 = min(p0 + stage_rows, n_paths)
            for i in range(p0, p1):
                gens[i].standard_normal(out=stage[i - p0, :w])
            block[:w, p0:p1] = stage[:p1 - p0, :w].T
        block[:w] *= sqrt_dt
        yield k, block[:w]
        k += w


def _tail_estimate(sys: ControlledSystem, w: CostWeights, Theta: np.ndarray,
                   ex_xx: np.ndarray, g: InhomogeneityGrid | None,
                   horizon: float) -> float | None:
    """E <P_cl X_T, X_T> with P_cl the Lyapunov value of the closed-loop cost."""
    if g is not None and g.support_end > horizon:
        return None
    Qcl = w.Q + w.S.T @ Theta + Theta.T @ w.S + Theta.T @ w.R @ Theta
    try:
        Pcl = solve_lyapunov(sys.closed_loop(Theta), Qcl)
    except LyapunovUnsolvableError:
        return None
    return float(np.sum(Pcl * ex_xx))


def _finish(costs: np.ndarray, ex_xx: np.ndarray, tail: float | None,
            cfg: SimConfig, nsteps: int) -> SimResult:
    est = float(np.mean(costs))
    se = float(np.std(costs, ddof=1) / np.sqrt(costs.size)) if costs.size > 1 else 0.0
    qs = {q: float(v) for q, v in zip(_QUANTILES, np.quantile(costs, _QUANTILES))}
    return SimResult(
        estimate=est,
        std_error=se,
        terminal_second_moment=float(np.trace(ex_xx)),
        cost_quantiles=qs,
        tail_estimate=tail,
        n_paths=cfg.n_paths,
        horizon=cfg.dt * nsteps,
        dt=cfg.dt,
    )


def _step_columns(rows: np.ndarray, scale: float = 1.0) -> tuple[np.ndarray, int]:
    """Per-step rows as (live, k, 1) columns to broadcast over paths.

    ``live`` counts the leading steps up to the last nonzero row: forcing has
    compact support, so on most steps of a long horizon the term is zero and
    the kernel skips it.
    """
    nonzero = np.flatnonzero(np.any(rows != 0.0, axis=1))
    live = int(nonzero[-1]) + 1 if nonzero.size else 0
    return (scale * rows[:live])[:, :, None], live


def _euler_cost_run(w: CostWeights, x0: np.ndarray, cfg: SimConfig, nsteps: int,
                    A_cl: np.ndarray, C_cl: np.ndarray, Theta: np.ndarray,
                    drift_c: np.ndarray, diff_c: np.ndarray, u_c: np.ndarray,
                    q_arr: np.ndarray, rho_arr: np.ndarray):
    """One Euler-Maruyama pass over time for all paths, in the (n, P) layout.

    With [Y_0; Y_1; Z] = [I + dt A_cl; C_cl; I; Theta] X and Z[n:] += u_c[k],
    so that Z = [X; U], step k adds the running cost
    <W Z, Z> + 2 <[q_k; rho_k], Z>, W = [[Q, S'], [S, R]], at the left point
    and then moves the state to Y_0 + (Y_1 + diff_c[k]) dW_k + dt drift_c[k].
    Returns (per-path costs, E[X_T X_T']).
    """
    n = x0.size
    P = cfg.n_paths
    dt = cfg.dt
    stacked = np.vstack([np.eye(n) + dt * A_cl, C_cl, np.eye(n), Theta])
    W = np.block([[w.Q, w.S.T], [w.S, w.R]])
    drift_col, drift_live = _step_columns(drift_c, dt)
    diff_col, diff_live = _step_columns(diff_c)
    u_col, u_live = _step_columns(u_c)
    lin_col, lin_live = _step_columns(np.hstack([q_arr, rho_arr]), 2.0)
    ones = np.ones(W.shape[0])
    # with n = 1 the stacked product is an outer product, and numpy's matmul
    # leaves BLAS for an inner dimension of 1; multiply forms the same products
    advance = np.multiply if n == 1 else np.matmul

    X = np.tile(x0[:, None], (1, P))
    Y = np.empty((stacked.shape[0], P))
    WZ = np.empty((W.shape[0], P))
    step, diff, Z, U = Y[:n], Y[n:2 * n], Y[2 * n:], Y[3 * n:]
    costs = np.zeros(P)
    for k0, dW in _brownian_increments(cfg.seed, P, nsteps, dt):
        for j in range(dW.shape[0]):
            k = k0 + j
            advance(stacked, X, out=Y)
            if k < u_live:
                U += u_col[k]
            np.matmul(W, Z, out=WZ)
            if k < lin_live:
                WZ += lin_col[k]
            WZ *= Z
            costs += ones @ WZ
            if k < diff_live:
                diff += diff_col[k]
            diff *= dW[j]
            np.add(step, diff, out=X)
            if k < drift_live:
                X += drift_col[k]
    costs *= dt
    ex_xx = (X @ X.T) / P
    return costs, ex_xx


def simulate_closed_loop(
    sys: ControlledSystem,
    w: CostWeights,
    Theta,
    x,
    cfg: SimConfig,
    terms: AffineTerms | None = None,
    g: InhomogeneityGrid | None = None,
    v_grid=None,
) -> SimResult:
    """Estimate the cost of the strategy u = Theta X + v* by simulation.

    ``Theta`` is the m x n feedback gain, e.g. ``GareSolution.Theta``.

    Simulates dX = [(A + B Th)X + B v* + b]dt + [(C + D Th)X + D v* + sigma]dW
    over cfg.horizon and accumulates the running cost pathwise.  Every
    forcing breakpoint must be a multiple of dt.  ``v_grid`` (one row per
    step) replaces the affine term derived from ``terms``, e.g. to cost a
    perturbed strategy.
    """
    nsteps = cfg.steps()
    _validate(cfg, g, nsteps)
    n, m = sys.n, sys.m
    x0 = np.asarray(x, dtype=float).reshape(-1)
    if x0.size != n:
        raise InvalidInputError("x has the wrong dimension")

    Theta = np.asarray(Theta, dtype=float).reshape(m, n)
    b_arr, sig_arr, q_arr, rho_arr = forcing_on_steps(g, cfg.dt, nsteps, n, m)
    if v_grid is not None:
        v_arr = np.asarray(v_grid, dtype=float).reshape(nsteps, m)
    else:
        v_arr = vstar_on_steps(terms, g, cfg.dt, nsteps, m) if terms is not None else None
    drift_c = b_arr if v_arr is None else v_arr @ sys.B.T + b_arr
    diff_c = sig_arr if v_arr is None else v_arr @ sys.D.T + sig_arr

    costs, ex_xx = _euler_cost_run(
        w, x0, cfg, nsteps, A_cl=sys.A + sys.B @ Theta, C_cl=sys.C + sys.D @ Theta,
        Theta=Theta, drift_c=drift_c, diff_c=diff_c,
        u_c=np.zeros((nsteps, m)) if v_arr is None else v_arr,
        q_arr=q_arr, rho_arr=rho_arr,
    )
    tail = _tail_estimate(sys, w, Theta, ex_xx, g, cfg.horizon)
    return _finish(costs, ex_xx, tail, cfg, nsteps)


def simulate_open_loop(
    sys: ControlledSystem,
    w: CostWeights,
    u_grid,
    x,
    cfg: SimConfig,
    g: InhomogeneityGrid | None = None,
) -> SimResult:
    """Estimate the cost of a deterministic open-loop control given per step."""
    nsteps = cfg.steps()
    _validate(cfg, g, nsteps)
    n, m = sys.n, sys.m
    x0 = np.asarray(x, dtype=float).reshape(-1)
    if x0.size != n:
        raise InvalidInputError("x has the wrong dimension")
    u_arr = np.asarray(u_grid, dtype=float)
    if u_arr.ndim == 1:
        u_arr = u_arr.reshape(-1, 1)
    if u_arr.shape != (nsteps, m):
        raise InvalidInputError("u_grid must have one control row per step")

    b_arr, sig_arr, q_arr, rho_arr = forcing_on_steps(g, cfg.dt, nsteps, n, m)
    costs, ex_xx = _euler_cost_run(
        w, x0, cfg, nsteps, A_cl=sys.A, C_cl=sys.C, Theta=np.zeros((m, n)),
        drift_c=u_arr @ sys.B.T + b_arr, diff_c=u_arr @ sys.D.T + sig_arr,
        u_c=u_arr, q_arr=q_arr, rho_arr=rho_arr,
    )
    tail = None
    if not np.any(u_arr[-1]):
        try:
            P0 = solve_lyapunov(sys.pair(), w.Q)
            tail = float(np.sum(P0 * ex_xx))
        except LyapunovUnsolvableError:
            tail = None
    return _finish(costs, ex_xx, tail, cfg, nsteps)


@dataclass
class FeedbackCheck:
    """Pathwise agreement of the feedback parametrization of admissible controls."""

    max_deviation: float
    n_paths: int
    steps: int


def feedback_parametrization_check(
    sys: ControlledSystem,
    Theta,
    x,
    cfg: SimConfig,
    v_grid=None,
    g: InhomogeneityGrid | None = None,
) -> FeedbackCheck:
    """Confirm that u = Theta X_Th + v drives the raw state onto X_Th.

    Runs the feedback recursion for X_Th and, with the same noise increments,
    the raw state recursion under the control it generates; their pathwise
    gap is pure floating-point noise because the two Euler recursions are
    algebraically identical.
    """
    nsteps = cfg.steps()
    _validate(cfg, g, nsteps)
    n, m = sys.n, sys.m
    Th = np.asarray(Theta, dtype=float).reshape(m, n)
    x0 = np.asarray(x, dtype=float).reshape(-1)
    v_arr = np.zeros((nsteps, m)) if v_grid is None else np.asarray(v_grid, float).reshape(nsteps, m)

    b_arr, sig_arr, _, _ = forcing_on_steps(g, cfg.dt, nsteps, n, m)
    A_cl = sys.A + sys.B @ Th
    C_cl = sys.C + sys.D @ Th
    drift_c = (v_arr @ sys.B.T + b_arr)[:, :, None]
    diff_c = (v_arr @ sys.D.T + sig_arr)[:, :, None]
    v_c, b_c, sig_c = v_arr[:, :, None], b_arr[:, :, None], sig_arr[:, :, None]
    dt = cfg.dt

    worst = 0.0
    Xfb = np.tile(x0[:, None], (1, cfg.n_paths))
    Xraw = Xfb.copy()
    for k0, dW in _brownian_increments(cfg.seed, cfg.n_paths, nsteps, dt):
        for j in range(dW.shape[0]):
            k = k0 + j
            U = Th @ Xfb + v_c[k]
            Xfb = Xfb + (A_cl @ Xfb + drift_c[k]) * dt + (C_cl @ Xfb + diff_c[k]) * dW[j]
            Xraw = (Xraw + (sys.A @ Xraw + sys.B @ U + b_c[k]) * dt
                    + (sys.C @ Xraw + sys.D @ U + sig_c[k]) * dW[j])
            gap = float(np.max(np.abs(Xraw - Xfb)))
            if gap > worst:
                worst = gap
    return FeedbackCheck(max_deviation=worst, n_paths=cfg.n_paths, steps=nsteps)
