"""Euler-Maruyama simulation and Monte Carlo cost estimation.

The running cost is accumulated with the left-point rule (the Ito-consistent
choice), the state with the explicit Euler-Maruyama scheme; weak order one is
enough for mean-cost estimation at the tolerances used here.  The discarded
tail of the infinite-horizon cost is estimated through the closed-loop
Lyapunov certificate and reported next to the estimate.

Layout.  There is one state recursion, ``_euler_readouts``, and every
simulation runs through it.  It is state-major: the state of all P paths is
one (d, P) array, so every numpy call runs over a contiguous row of P paths
instead of an inner axis of length d.  Each step is one gemm with the
stacked matrix [I + dt A; C; F]: its first 2d rows give the drift and
diffusion parts of the step, its last rows the readout Z = F X, to whose
trailing rows the step's control column is added.

Readouts.  The callers see only Z.  ``simulate_closed_loop`` takes
F = [I; Theta], so that Z = [X; U], and accumulates the running cost
<W Z, Z> + 2 <[q_k; rho_k], Z> with W = [[Q, S'], [S, R]].  An open-loop
control is the case Theta = 0 with the control as ``v_grid``.
``feedback_parametrization_check`` runs the augmented state
[X_Theta; X_raw] with F = [-I, I], so that Z is the pathwise gap.

Noise.  Path p's standard normals come, in time order, from the Philox
counter-based generator keyed by (seed, p); such streams are independent by
construction, so any thread may draw them.  Worker threads draw them,
_NOISE_WORKERS of them and never more than the CPUs the process may run on
or the paths.  Each worker owns a fixed, contiguous range of paths, builds
their generators, and fills its columns of a step-major (w, P) block, so
step k's increments for all paths are one contiguous row.  There are two blocks: the workers
fill block j + 1 while the recursion consumes block j.  One block and one
worker's staging buffer stay within _NOISE_BUFFER_BYTES, so the two blocks
take no more than the one block a serial draw would.  Every worker makes
one ``standard_normal`` call of w steps per path and block, and each call
hands the interpreter lock back; below _SHARED_CALL_STEPS steps a second
worker costs more in lock handoffs than it saves, so such runs get one.
Neither the block width w nor the number of workers touches the streams or
the arithmetic, so every result is bit-reproducible and independent of
both.  A run whose diffusion is identically zero draws no noise and starts
no thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

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
]

_NOISE_BUFFER_BYTES = 98_000_000
_STAGE_BYTES = 4_000_000
# measured on 2 cores: 2 workers beat 1 from about 400 steps per call, and
# lose to 1 below it (at 300 steps, by a fifth)
_NOISE_WORKERS = 2
_SHARED_CALL_STEPS = 400
_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass
class SimConfig:
    """Monte Carlo configuration; results are a pure function of its fields."""

    horizon: float
    dt: float
    n_paths: int
    seed: int = 0
    budget: float = 1e9           # cap on n_paths * horizon / dt

    @classmethod
    def whole_steps(cls, horizon: float, dt: float, n_paths: int, seed: int = 0) -> SimConfig:
        """The config whose horizon is ``horizon`` rounded up to a multiple of ``dt``."""
        dt = _finite_positive("dt", dt)
        return cls(np.ceil(_finite_positive("horizon", horizon) / dt) * dt, dt, n_paths, seed)

    def steps(self) -> int:
        ratio = _finite_positive("horizon", self.horizon) / _finite_positive("dt", self.dt)
        k = round(_finite_positive("horizon / dt", ratio))
        if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, ratio):
            raise InvalidInputError("horizon must be an integral number of steps")
        return int(k)


def _finite_positive(name: str, value) -> float:
    """``value`` as a float, or InvalidInputError unless it is finite and > 0."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise InvalidInputError(f"{name} must be finite and positive, got {value:g}")
    return value


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


def _validate(cfg: SimConfig, nsteps: int):
    if cfg.n_paths < 1:
        raise InvalidInputError("need at least one path")
    if cfg.n_paths * float(nsteps) > cfg.budget:
        raise SimulationBudgetError(
            f"{cfg.n_paths} paths x {nsteps} steps exceeds budget {cfg.budget:g}"
        )


def _draw_paths(seed: int, p0: int, p1: int, nsteps: int, blocks: list, sqrt_dt: float):
    """One worker: each next() fills columns p0:p1 of the next block in turn.

    Paths p0:p1 are drawn a group at a time into a path-major staging buffer
    of about _STAGE_BYTES, scaled and transposed into the step-major block.
    The generators are built on the first next(), on the worker's thread.
    """
    width = blocks[0].shape[0]
    gens = [np.random.Generator(np.random.Philox(key=[seed, p])) for p in range(p0, p1)]
    rows = max(1, min(p1 - p0, _STAGE_BYTES // (8 * width)))
    stage = np.empty((rows, width))
    for j, k in enumerate(range(0, nsteps, width)):
        w = min(width, nsteps - k)
        block = blocks[j % 2]
        for c0 in range(p0, p1, rows):
            c1 = min(c0 + rows, p1)
            for i in range(c0, c1):
                gens[i - p0].standard_normal(out=stage[i - c0, :w])
            np.multiply(stage[:c1 - c0, :w].T, sqrt_dt, out=block[:w, c0:c1])
        yield


def _brownian_increments(seed: int, n_paths: int, nsteps: int, dt: float):
    """Yield (start, dW): row j of dW holds step start + j's increments for all paths.

    The workers fill the next block while the caller reads this one, so read
    dW before asking for the next.  Every worker has stopped when the
    generator finishes, raises or is closed; a worker's exception is raised
    here.
    """
    width = max(64, min(nsteps, (_NOISE_BUFFER_BYTES - _STAGE_BYTES) // (8 * n_paths)))
    blocks = [np.empty((width, n_paths)), np.empty((width, n_paths))]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(_NOISE_WORKERS if width >= _SHARED_CALL_STEPS else 1, cpus or 1, n_paths)
    cuts = [n_paths * i // n_workers for i in range(n_workers + 1)]
    workers = [_draw_paths(seed, p0, p1, nsteps, blocks, np.sqrt(dt))
               for p0, p1 in zip(cuts, cuts[1:])]
    pool = ThreadPoolExecutor(n_workers, thread_name_prefix="slq-noise")
    try:
        filling = [pool.submit(next, worker) for worker in workers]
        for j, k in enumerate(range(0, nsteps, width)):
            for f in filling:
                f.result()
            if k + width < nsteps:
                filling = [pool.submit(next, worker) for worker in workers]
            yield k, blocks[j % 2][:min(width, nsteps - k)]
    finally:
        pool.shutdown(cancel_futures=True)


def _tail_estimate(sys: ControlledSystem, w: CostWeights, Theta: np.ndarray,
                   ex_xx: np.ndarray, g: InhomogeneityGrid | None,
                   horizon: float) -> float | None:
    """E <P_cl X_T, X_T>, P_cl the Lyapunov value of the closed-loop cost.

    This is the cost after the horizon of the loop left to itself, with no
    control term or forcing there.  None when forcing outlives the horizon
    or [A + B Theta, C + D Theta] is not mean-square stable.
    """
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


def _euler_readouts(x0: np.ndarray, stacked: np.ndarray, drift_c: np.ndarray,
                    diff_c: np.ndarray, u_c: np.ndarray, cfg: SimConfig, nsteps: int):
    """The Euler-Maruyama recursion for all paths, in the (d, P) layout.

    ``stacked`` is [I + dt A; C; F] for the d-dimensional state x0.  With
    [Y_0; Y_1; Z] = stacked X_k, step k yields the readout Z, u_c[k] added to
    its trailing rows, and then moves the state to
    Y_0 + (Y_1 + diff_c[k]) dW_k + dt drift_c[k].  A last Z = F X_T follows
    step nsteps - 1.  Z is overwritten by the next step, so read it before
    asking for the next one.  When the C rows and diff_c are all zero, the
    noise would only multiply zero and none is drawn.
    """
    d = x0.size
    P = cfg.n_paths
    dt = cfg.dt
    drift_col, drift_live = _step_columns(drift_c, dt)
    diff_col, diff_live = _step_columns(diff_c)
    u_col, u_live = _step_columns(u_c)
    # with d = 1 the stacked product is an outer product, and numpy's matmul
    # leaves BLAS for an inner dimension of 1; multiply forms the same products
    advance = np.multiply if d == 1 else np.matmul

    X = np.tile(x0[:, None], (1, P))
    Y = np.empty((stacked.shape[0], P))
    step, diff, Z = Y[:d], Y[d:2 * d], Y[2 * d:]
    U = Z[Z.shape[0] - u_c.shape[1]:]
    if diff_live or stacked[d:2 * d].any():
        noise = _brownian_increments(cfg.seed, P, nsteps, dt)
    else:
        noise = [(0, repeat(None, nsteps))]
    for k0, dW in noise:
        for k, dW_k in enumerate(dW, k0):
            advance(stacked, X, out=Y)
            if k < u_live:
                U += u_col[k]
            yield Z
            if dW_k is None:
                np.copyto(X, step)
            else:
                if k < diff_live:
                    diff += diff_col[k]
                diff *= dW_k
                np.add(step, diff, out=X)
            if k < drift_live:
                X += drift_col[k]
    advance(stacked, X, out=Y)
    yield Z


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
    over cfg.horizon and accumulates the running cost pathwise.  The forcing
    is ``g``, which defaults to ``terms.grid`` and must be that grid when
    ``terms`` is given; every breakpoint must be a multiple of dt.
    ``v_grid`` (one row per step) replaces the affine term derived from
    ``terms``, e.g. to cost a perturbed strategy; with Theta = 0 it is an
    open-loop control.
    """
    nsteps = cfg.steps()
    _validate(cfg, nsteps)
    if terms is not None:
        if g is None:
            g = terms.grid
        elif g is not terms.grid:
            raise InvalidInputError("g must be the grid the affine terms were solved on")
    n, m = sys.n, sys.m
    x0 = np.asarray(x, dtype=float).reshape(-1)
    if x0.size != n:
        raise InvalidInputError("x has the wrong dimension")

    Theta = np.asarray(Theta, dtype=float).reshape(m, n)
    b_arr, sig_arr, q_arr, rho_arr = forcing_on_steps(g, cfg.dt, nsteps, n, m)
    if v_grid is not None:
        v_arr = np.asarray(v_grid, dtype=float).reshape(nsteps, m)
    elif terms is not None:
        v_arr = vstar_on_steps(terms, cfg.dt, nsteps)
    else:
        v_arr = np.zeros((nsteps, m))

    P = cfg.n_paths
    stacked = np.vstack([np.eye(n) + cfg.dt * (sys.A + sys.B @ Theta),
                         sys.C + sys.D @ Theta, np.eye(n), Theta])
    W = np.block([[w.Q, w.S.T], [w.S, w.R]])
    lin_col, lin_live = _step_columns(np.hstack([q_arr, rho_arr]), 2.0)
    ones = np.ones(n + m)
    WZ = np.empty((n + m, P))
    costs = np.zeros(P)
    readouts = _euler_readouts(x0, stacked, v_arr @ sys.B.T + b_arr, v_arr @ sys.D.T + sig_arr,
                               v_arr, cfg, nsteps)
    # zip asks range first, so the loop leaves the last readout, [X_T; Theta X_T]
    for k, Z in zip(range(nsteps), readouts):
        np.matmul(W, Z, out=WZ)
        if k < lin_live:
            WZ += lin_col[k]
        WZ *= Z
        costs += ones @ WZ
    costs *= cfg.dt
    X_T = next(readouts)[:n]
    ex_xx = (X_T @ X_T.T) / P
    tail = _tail_estimate(sys, w, Theta, ex_xx, g, cfg.horizon)
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

    Runs the augmented state [X_Th; X_raw], whose raw half is driven by the
    control the feedback half generates, with the same noise increments:

        A_2 = [[A + B Th, 0], [B Th, A]],  C_2 = [[C + D Th, 0], [D Th, C]],

    and the forcing columns duplicated.  The readout X_raw - X_Th is pure
    floating-point noise, because the two halves are algebraically identical
    recursions; ``max_deviation`` is its largest entry over all paths and
    the times 0, dt, ..., T.
    """
    nsteps = cfg.steps()
    _validate(cfg, nsteps)
    n, m = sys.n, sys.m
    Th = np.asarray(Theta, dtype=float).reshape(m, n)
    x0 = np.asarray(x, dtype=float).reshape(-1)
    v_arr = np.zeros((nsteps, m)) if v_grid is None else np.asarray(v_grid, float).reshape(nsteps, m)

    b_arr, sig_arr, _, _ = forcing_on_steps(g, cfg.dt, nsteps, n, m)
    BTh, DTh = sys.B @ Th, sys.D @ Th
    zero, eye = np.zeros((n, n)), np.eye(n)
    A2 = np.block([[sys.A + BTh, zero], [BTh, sys.A]])
    C2 = np.block([[sys.C + DTh, zero], [DTh, sys.C]])
    stacked = np.vstack([np.eye(2 * n) + cfg.dt * A2, C2, np.hstack([-eye, eye])])
    drift_c = v_arr @ sys.B.T + b_arr
    diff_c = v_arr @ sys.D.T + sig_arr

    worst = 0.0
    for Z in _euler_readouts(np.concatenate([x0, x0]), stacked, np.hstack([drift_c, drift_c]),
                             np.hstack([diff_c, diff_c]), np.zeros((nsteps, 0)), cfg, nsteps):
        worst = max(worst, float(np.max(np.abs(Z))))
    return FeedbackCheck(max_deviation=worst, n_paths=cfg.n_paths, steps=nsteps)
