import os
import sys
import threading

import numpy as np
import pytest

from slq import (
    ControlledSystem,
    CostWeights,
    InhomogeneityGrid,
    SimConfig,
    feedback_parametrization_check,
    simulate_closed_loop,
    solve_eta,
    solve_gare,
    solve_lyapunov,
)
from slq import montecarlo
from slq.errors import InvalidInputError, SimulationBudgetError
from slq.inhomogeneous import forcing_on_steps, vstar_on_steps


@pytest.fixture(scope="module")
def scalar_problem():
    sys1 = ControlledSystem([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    w = CostWeights([[1.0]], [[0.0]], [[1.0]])
    sol = solve_gare(sys1, w)
    return sys1, w, sol


def test_zero_weights_give_exactly_zero(scalar_problem):
    sys1, _, sol = scalar_problem
    w0 = CostWeights([[0.0]], [[0.0]], [[0.0]])
    r = simulate_closed_loop(sys1, w0, sol.Theta, [1.0], SimConfig(1.0, 1e-2, 50, seed=1))
    assert r.estimate == 0.0 and r.std_error == 0.0


def test_zero_state_stays_zero(scalar_problem):
    sys1, w, sol = scalar_problem
    r = simulate_closed_loop(sys1, w, sol.Theta, [0.0], SimConfig(1.0, 1e-2, 50, seed=1))
    assert r.estimate == 0.0
    assert r.terminal_second_moment == 0.0


def test_budget_error(scalar_problem):
    sys1, w, sol = scalar_problem
    with pytest.raises(SimulationBudgetError):
        simulate_closed_loop(sys1, w, sol.Theta, [1.0],
                             SimConfig(10.0, 1e-4, 1000, seed=1, budget=1e6))


@pytest.mark.parametrize("horizon, dt", [
    (1.0, 0.0), (1.0, -0.1), (1.0, float("nan")), (1.0, float("inf")),
    (0.0, 0.1), (-1.0, 0.1), (float("nan"), 0.1), (float("inf"), 0.1),
    (1e300, 1e-300),                               # finite, but horizon / dt is not
])
def test_bad_step_settings_are_invalid_input(horizon, dt):
    with pytest.raises(InvalidInputError, match="finite and positive"):
        SimConfig(horizon, dt, 10).steps()


def test_grid_must_resolve_breakpoints(scalar_problem):
    sys1, w, sol = scalar_problem
    g = InhomogeneityGrid(np.array([0.0, 0.25]), [[1.0]], [[0.0]], [[0.0]], [[0.0]])
    with pytest.raises(InvalidInputError):
        simulate_closed_loop(sys1, w, sol.Theta, [1.0],
                             SimConfig(1.0, 1e-1, 10, seed=1), g=g)


def test_bit_reproducibility(scalar_problem):
    sys1 = ControlledSystem([[-0.5]], [[0.6]], [[1.0]], [[0.1]])
    w = CostWeights([[1.0]], [[0.0]], [[1.0]])
    sol = solve_gare(sys1, w)
    cfg = SimConfig(5.0, 1e-2, 300, seed=99)
    r1 = simulate_closed_loop(sys1, w, sol.Theta, [1.0], cfg)
    r2 = simulate_closed_loop(sys1, w, sol.Theta, [1.0], cfg)
    assert r1 == r2


def test_estimate_matches_value(scalar_problem):
    sys1 = ControlledSystem([[-0.5]], [[0.6]], [[1.0]], [[0.1]])
    w = CostWeights([[1.0]], [[0.0]], [[1.0]])
    sol = solve_gare(sys1, w)
    V = float(sol.P[0, 0])
    r = simulate_closed_loop(sys1, w, sol.Theta, [1.0], SimConfig(16.0, 2e-3, 4000, seed=5))
    assert abs(r.estimate - V) <= max(3 * r.std_error, 0.02 * abs(V) + 0.01)
    assert r.tail_estimate is not None and abs(r.tail_estimate) < 1e-3


def test_open_loop_zero_control_matches_lyapunov():
    # uncontrolled cost E int <Q X, X> = <G x, x> with G the Lyapunov value
    sys1 = ControlledSystem([[-1.0]], [[0.5]], [[1.0]], [[0.0]])
    w = CostWeights([[1.0]], [[0.0]], [[1.0]])
    G = solve_lyapunov(sys1.pair(), w.Q)
    cfg = SimConfig(12.0, 2e-3, 4000, seed=17)
    u = np.zeros((cfg.steps(), 1))
    r = simulate_closed_loop(sys1, w, np.zeros((1, 1)), [1.0], cfg, v_grid=u)
    V = float(G[0, 0])
    assert abs(r.estimate - V) <= max(3 * r.std_error, 0.02 * abs(V) + 0.01)


def test_open_loop_replay_of_deterministic_closed_loop():
    # with no state noise the closed loop is deterministic, so its control
    # can be replayed open loop and must produce the same cost
    sys1 = ControlledSystem([[-1.0]], [[0.0]], [[1.0]], [[0.0]])
    w = CostWeights([[1.0]], [[0.2]], [[1.0]])
    sol = solve_gare(sys1, w)
    g = InhomogeneityGrid(np.array([0.0, 0.5]), [[0.8]], [[0.0]], [[0.0]], [[0.0]])
    terms = solve_eta(sol, sys1, w, g)
    cfg = SimConfig(10.0, 1e-3, 4, seed=3)
    nsteps = cfg.steps()
    closed = simulate_closed_loop(sys1, w, sol.Theta, [0.0], cfg, terms=terms, g=g)

    # rebuild the deterministic control path with the same recursion
    v = vstar_on_steps(terms, cfg.dt, nsteps)
    b = np.zeros(nsteps)
    b[: int(0.5 / cfg.dt)] = 0.8
    x = 0.0
    u = np.zeros((nsteps, 1))
    a_cl = float(sys1.A[0, 0] + sys1.B[0, 0] * sol.Theta[0, 0])
    for k in range(nsteps):
        u[k, 0] = sol.Theta[0, 0] * x + v[k, 0]
        x = x + (a_cl * x + sys1.B[0, 0] * v[k, 0] + b[k]) * cfg.dt
    opened = simulate_closed_loop(sys1, w, np.zeros((1, 1)), [0.0], cfg, g=g, v_grid=u)
    assert opened.estimate == pytest.approx(closed.estimate, abs=1e-9)


def test_affine_terms_bring_their_own_grid(scalar_problem):
    # g defaults to terms.grid, and v* is applied on it; another grid is refused
    sys1, w, sol = scalar_problem
    g = InhomogeneityGrid(np.array([0.0, 0.5]), [[0.8]], [[0.0]], [[0.0]], [[0.3]])
    terms = solve_eta(sol, sys1, w, g)
    cfg = SimConfig(2.0, 1e-2, 8, seed=3)
    own = simulate_closed_loop(sys1, w, sol.Theta, [1.0], cfg, terms=terms)
    replay = simulate_closed_loop(sys1, w, sol.Theta, [1.0], cfg, g=g,
                                  v_grid=vstar_on_steps(terms, cfg.dt, cfg.steps()))
    assert own == replay
    assert own == simulate_closed_loop(sys1, w, sol.Theta, [1.0], cfg, terms=terms, g=g)
    other = InhomogeneityGrid(g.times, g.b, g.sigma, g.q, g.rho)
    with pytest.raises(InvalidInputError, match="grid"):
        simulate_closed_loop(sys1, w, sol.Theta, [1.0], cfg, terms=terms, g=other)


@pytest.mark.parametrize("coeffs", [
    (0.0, 0.0, 1.0, 0.0, -1.0),     # drift control only
    (-0.5, 0.6, 1.0, 0.2, -0.8),    # noisy state and control
    (0.3, 0.4, 0.9, -0.3, -1.2),    # unstable drift, noisy
])
def test_feedback_parametrization(coeffs):
    a, c, b, d, th = coeffs
    sys1 = ControlledSystem([[a]], [[c]], [[b]], [[d]])
    cfg = SimConfig(5.0, 1e-3, 16, seed=21)
    v = 0.3 * np.sin(np.linspace(0.0, 6.0, cfg.steps()))
    check = feedback_parametrization_check(sys1, [[th]], [1.0], cfg, v_grid=v)
    assert check.max_deviation <= 1e-10


def test_feedback_parametrization_trivial():
    sys1 = ControlledSystem([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    check = feedback_parametrization_check(sys1, [[-1.0]], [0.0],
                                           SimConfig(2.0, 1e-2, 8, seed=1))
    assert check.max_deviation == 0.0


def test_terminal_moment_decays_with_horizon():
    sys1 = ControlledSystem([[-0.8]], [[0.4]], [[1.0]], [[0.0]])
    w = CostWeights([[1.0]], [[0.0]], [[1.0]])
    sol = solve_gare(sys1, w)
    m_short = simulate_closed_loop(sys1, w, sol.Theta, [1.0], SimConfig(2.0, 1e-2, 500, seed=9))
    m_long = simulate_closed_loop(sys1, w, sol.Theta, [1.0], SimConfig(12.0, 1e-2, 500, seed=9))
    assert m_long.terminal_second_moment < m_short.terminal_second_moment
    assert m_long.terminal_second_moment < 1e-3


def test_state_energy_bounded_by_certificate():
    # E int |X|^2 <= K (|x|^2 + int (|b|^2 + |sigma|^2)) with K from the
    # closed-loop Lyapunov certificate
    sys1 = ControlledSystem([[-0.6]], [[0.5]], [[1.0]], [[0.0]])
    w_energy = CostWeights([[1.0]], [[0.0]], [[0.0]])
    Theta = np.array([[-0.5]])
    g = InhomogeneityGrid(np.array([0.0, 1.0]), [[0.7]], [[0.4]], [[0.0]], [[0.0]])
    cfg = SimConfig(20.0, 2e-3, 2000, seed=31)
    r = simulate_closed_loop(sys1, w_energy, Theta, [1.0], cfg, g=g)
    P = solve_lyapunov(sys1.closed_loop(Theta), np.eye(1))
    k_cert = 2.0 * float(P[0, 0]) + 4.0 * float(P[0, 0]) ** 2 + 1.0
    forcing_energy = 1.0 * (0.7 ** 2 + 0.4 ** 2)
    assert r.estimate <= k_cert * (1.0 + forcing_energy)


def test_quadratic_scaling_in_initial_state():
    # homogeneous linear dynamics: paths scale linearly in x under the same
    # noise, so the estimated cost scales exactly quadratically
    sys1 = ControlledSystem([[-0.5]], [[0.6]], [[1.0]], [[0.1]])
    w = CostWeights([[1.0]], [[0.0]], [[1.0]])
    sol = solve_gare(sys1, w)
    cfg = SimConfig(8.0, 2e-3, 400, seed=77)
    r1 = simulate_closed_loop(sys1, w, sol.Theta, [1.0], cfg)
    r3 = simulate_closed_loop(sys1, w, sol.Theta, [3.0], cfg)
    assert r3.estimate == pytest.approx(9.0 * r1.estimate, rel=1e-12)


def test_cost_quantiles_are_ordered():
    sys1 = ControlledSystem([[-0.5]], [[0.6]], [[1.0]], [[0.1]])
    w = CostWeights([[1.0]], [[0.0]], [[1.0]])
    sol = solve_gare(sys1, w)
    r = simulate_closed_loop(sys1, w, sol.Theta, [1.0], SimConfig(5.0, 1e-2, 200, seed=13))
    qs = [r.cost_quantiles[q] for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert qs == sorted(qs)


def test_noise_streams_independent_of_block_width(monkeypatch):
    # a small buffer splits the run into several blocks and the paths into
    # staging chunks with a partial last one; column p must still be path p's
    # own Philox (seed, p) stream in time order
    seed, n_paths, nsteps = 11, 37, 1000
    stage = 8 * 16 * 150                          # 16 paths of a 150-step block
    monkeypatch.setattr(montecarlo, "_STAGE_BYTES", stage)
    monkeypatch.setattr(montecarlo, "_NOISE_BUFFER_BYTES", stage + 8 * n_paths * 150)
    starts, blocks = [], []
    for k0, dW in montecarlo._brownian_increments(seed, n_paths, nsteps, 1.0):
        starts.append(k0)
        blocks.append(dW.copy())
    assert starts == list(range(0, nsteps, 150))
    got = np.concatenate(blocks)
    assert got.shape == (nsteps, n_paths)
    for p in range(n_paths):
        want = np.random.Generator(np.random.Philox(key=[seed, p])).standard_normal(nsteps)
        assert np.array_equal(got[:, p], want)


def test_results_independent_of_block_width(monkeypatch):
    sys2 = ControlledSystem([[-1, 0.3], [0, -1.5]], 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2))
    w = CostWeights(np.eye(2), [[0.1, 0.0], [0.2, 0.1]], np.eye(2))
    g = InhomogeneityGrid(np.array([0.0, 0.5, 1.0]), b=[[0.4, 0.0], [0.0, -0.3]],
                          sigma=[[0.2, 0.1], [0.0, 0.0]], q=[[0.0, 0.0], [0.1, 0.0]],
                          rho=[[0.1, 0.0], [0.0, 0.0]])
    sol = solve_gare(sys2, w)
    terms = solve_eta(sol, sys2, w, g)
    cfg = SimConfig(2.0, 1e-2, 40, seed=4)
    u = 0.2 * np.cos(np.linspace(0.0, 5.0, 2 * cfg.steps())).reshape(-1, 2)

    def run():
        closed = simulate_closed_loop(sys2, w, sol.Theta, [1.0, -1.0], cfg, terms=terms, g=g)
        opened = simulate_closed_loop(sys2, w, np.zeros((2, 2)), [1.0, -1.0], cfg, g=g,
                                      v_grid=u)
        return closed, opened

    one_block = run()
    stage = 8 * 16 * 70
    monkeypatch.setattr(montecarlo, "_STAGE_BYTES", stage)
    for budget in (stage + 8 * 40 * 70, stage):   # widths 70 and the 64 floor
        monkeypatch.setattr(montecarlo, "_NOISE_BUFFER_BYTES", budget)
        assert run() == one_block


def euler_cost_by_loops(A, B, Q, S, R, x0, dt, nsteps, u_of, b, q, rho):
    """Deterministic Euler recursion and left-point cost, one scalar at a time."""
    n, m = len(A), len(B[0])
    x = list(x0)
    cost = 0.0
    for k in range(nsteps):
        u = u_of(k, x)
        c = 0.0
        for i in range(n):
            for j in range(n):
                c += Q[i][j] * x[i] * x[j]
            for j in range(m):
                c += 2.0 * S[j][i] * x[i] * u[j]
            c += 2.0 * q[k][i] * x[i]
        for i in range(m):
            for j in range(m):
                c += R[i][j] * u[i] * u[j]
            c += 2.0 * rho[k][i] * u[i]
        cost += c * dt
        x = [x[i] + dt * (sum(A[i][j] * x[j] for j in range(n))
                          + sum(B[i][j] * u[j] for j in range(m)) + b[k][i])
             for i in range(n)]
    return cost


def oracle_problem():
    # C = D = 0 and sigma = 0: every path follows the same deterministic recursion
    A = [[-1.0, 0.4], [0.2, -0.7]]
    B = [[1.0, 0.0], [0.3, 0.8]]
    sys2 = ControlledSystem(A, np.zeros((2, 2)), B, np.zeros((2, 2)))
    w = CostWeights([[2.0, 0.3], [0.3, 1.0]], [[0.2, -0.1], [0.4, 0.3]], [[1.0, 0.1], [0.1, 0.5]])
    g = InhomogeneityGrid(np.array([0.0, 0.3, 0.8]), b=[[0.5, -0.2], [0.0, 0.4]],
                          sigma=np.zeros((2, 2)), q=[[0.1, 0.0], [-0.2, 0.3]],
                          rho=[[0.0, 0.2], [0.1, 0.0]])
    cfg = SimConfig(2.0, 1e-2, 16, seed=6)     # 16 paths: the mean of equal costs is exact
    forcing = forcing_on_steps(g, cfg.dt, cfg.steps(), 2, 2)
    return sys2, w, g, cfg, forcing


def assert_deterministic_estimate(r, want):
    assert r.cost_quantiles[0.0] == r.cost_quantiles[1.0]
    assert r.std_error == 0.0
    assert r.estimate == pytest.approx(want, rel=1e-12)


def test_closed_loop_kernel_matches_loop_oracle():
    sys2, w, g, cfg, (b, _, q, rho) = oracle_problem()
    nsteps = cfg.steps()
    Theta = np.array([[-0.5, 0.1], [0.2, -0.4]])
    v = 0.3 * np.sin(np.linspace(0.0, 4.0, 2 * nsteps)).reshape(nsteps, 2)
    r = simulate_closed_loop(sys2, w, Theta, [1.0, -0.5], cfg, g=g, v_grid=v)

    def u_of(k, x):
        return [sum(Theta[i, j] * x[j] for j in range(2)) + v[k, i] for i in range(2)]

    want = euler_cost_by_loops(sys2.A.tolist(), sys2.B.tolist(), w.Q.tolist(), w.S.tolist(),
                               w.R.tolist(), [1.0, -0.5], cfg.dt, nsteps, u_of, b, q, rho)
    assert_deterministic_estimate(r, want)


def test_open_loop_kernel_matches_loop_oracle():
    sys2, w, g, cfg, (b, _, q, rho) = oracle_problem()
    nsteps = cfg.steps()
    u = 0.4 * np.cos(np.linspace(0.0, 3.0, 2 * nsteps)).reshape(nsteps, 2)
    r = simulate_closed_loop(sys2, w, np.zeros((2, 2)), [0.5, 1.0], cfg, g=g, v_grid=u)
    want = euler_cost_by_loops(sys2.A.tolist(), sys2.B.tolist(), w.Q.tolist(), w.S.tolist(),
                               w.R.tolist(), [0.5, 1.0], cfg.dt, nsteps,
                               lambda k, x: list(u[k]), b, q, rho)
    assert_deterministic_estimate(r, want)


def test_feedback_check_runs_the_shared_recursion(monkeypatch):
    calls = []
    original = montecarlo._euler_readouts

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_euler_readouts", counting)
    sys1 = ControlledSystem([[-0.5]], [[0.6]], [[1.0]], [[0.2]])
    cfg = SimConfig(1.0, 1e-2, 8, seed=21)
    check = feedback_parametrization_check(sys1, [[-0.8]], [1.0], cfg)
    assert len(calls) == 1
    assert check.max_deviation <= 1e-10


def test_tail_is_none_for_a_non_stabilizing_gain():
    # A = B = Q = R = 1, C = D = 0: Theta = 0 leaves the loop unstable, and the
    # Lyapunov value of its cost, -1/2, would give a negative tail
    sys1 = ControlledSystem([[1.0]], [[0.0]], [[1.0]], [[0.0]])
    w = CostWeights([[1.0]], [[0.0]], [[1.0]])
    cfg = SimConfig(1.0, 1e-2, 10, seed=1)
    r = simulate_closed_loop(sys1, w, [[0.0]], [1.0], cfg)
    assert r.estimate > 0.0
    assert r.tail_estimate is None
    opened = simulate_closed_loop(sys1, w, [[0.0]], [1.0], cfg,
                                  v_grid=np.full((cfg.steps(), 1), 0.1))
    assert opened.tail_estimate is None


def test_zero_diffusion_draws_no_noise(monkeypatch):
    # C = D = 0 and sigma = 0: the noise would only multiply zero.  A diffusion
    # of 1e-300 does draw it, yet moves no state of size ~1, so both runs must
    # agree bit for bit.
    sys2, w, g, cfg, _ = oracle_problem()
    Theta = np.array([[-0.5, 0.1], [0.2, -0.4]])
    g_tiny = InhomogeneityGrid(g.times, g.b, np.full((2, 2), 1e-300), g.q, g.rho)
    draws = []
    original = montecarlo._brownian_increments

    def counting(*args):
        draws.append(args)
        return original(*args)

    monkeypatch.setattr(montecarlo, "_brownian_increments", counting)
    quiet = simulate_closed_loop(sys2, w, Theta, [1.0, -0.5], cfg, g=g)
    assert draws == []
    noisy = simulate_closed_loop(sys2, w, Theta, [1.0, -0.5], cfg, g=g_tiny)
    assert len(draws) == 1
    assert quiet == noisy


def noisy_problem():
    sys2 = ControlledSystem([[-1, 0.3], [0, -1.5]], 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2))
    w = CostWeights(np.eye(2), [[0.1, 0.0], [0.2, 0.1]], np.eye(2))
    return sys2, w, solve_gare(sys2, w).Theta


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def use_workers(monkeypatch, count):
    # as many workers as asked for, even on short calls and fewer cores
    use_cpus(monkeypatch, count)
    monkeypatch.setattr(montecarlo, "_NOISE_WORKERS", count)
    monkeypatch.setattr(montecarlo, "_SHARED_CALL_STEPS", 1)


def small_blocks(monkeypatch, n_paths, width):
    monkeypatch.setattr(montecarlo, "_NOISE_BUFFER_BYTES",
                        montecarlo._STAGE_BYTES + 8 * n_paths * width)


@pytest.mark.parametrize("n_paths", [1, 37])
def test_results_independent_of_worker_split(monkeypatch, n_paths):
    # more workers than cores, and a short switch interval, so that a worker
    # writing outside its own columns would show as a changed result
    sys2, w, Theta = noisy_problem()
    cfg = SimConfig(2.0, 1e-2, n_paths, seed=9)

    def run():
        return (simulate_closed_loop(sys2, w, Theta, [1.0, -1.0], cfg),
                feedback_parametrization_check(sys2, Theta, [1.0, -1.0], cfg))

    use_workers(monkeypatch, 1)
    want = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            assert run() == want
            with monkeypatch.context() as m:
                small_blocks(m, n_paths, 64)            # 4 blocks: 64, 64, 64, 8 steps
                assert run() == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus, n_paths, nsteps, width, workers", [
    (8, 37, 1000, None, 2),        # never more than _NOISE_WORKERS
    (1, 37, 1000, None, 1),        # nor the CPUs
    (8, 1, 1000, None, 1),         # nor the paths
    (8, 37, 1000, 300, 1),         # calls too short to share
    (8, 37, 300, None, 1),
])
def test_noise_worker_count(monkeypatch, cpus, n_paths, nsteps, width, workers):
    use_cpus(monkeypatch, cpus)
    if width is not None:
        small_blocks(monkeypatch, n_paths, width)
    ranges = []
    original = montecarlo._draw_paths

    def recording(seed, p0, p1, *args):
        ranges.append((p0, p1))
        return original(seed, p0, p1, *args)

    monkeypatch.setattr(montecarlo, "_draw_paths", recording)
    for _ in montecarlo._brownian_increments(5, n_paths, nsteps, 1e-2):
        pass
    assert len(ranges) == workers
    assert sorted(ranges)[0][0] == 0 and sorted(ranges)[-1][1] == n_paths


def test_noise_workers_stop(monkeypatch):
    sys2, w, Theta = noisy_problem()
    use_workers(monkeypatch, 3)
    small_blocks(monkeypatch, 37, 64)
    before = threading.active_count()
    simulate_closed_loop(sys2, w, Theta, [1.0, -1.0], SimConfig(2.0, 1e-2, 37, seed=9))
    assert threading.active_count() == before
    noise = montecarlo._brownian_increments(9, 37, 1000, 1e-2)
    next(noise)
    assert threading.active_count() > before
    noise.close()
    assert threading.active_count() == before


def test_worker_exception_reaches_the_caller(monkeypatch):
    sys2, w, Theta = noisy_problem()
    use_workers(monkeypatch, 2)
    small_blocks(monkeypatch, 37, 64)
    original = montecarlo._draw_paths

    def failing(seed, p0, *args):
        worker = original(seed, p0, *args)
        yield next(worker)
        if p0 > 0:
            raise RuntimeError("worker failed")
        yield from worker

    monkeypatch.setattr(montecarlo, "_draw_paths", failing)
    before = threading.active_count()
    raised = []

    def caller():
        try:
            simulate_closed_loop(sys2, w, Theta, [1.0, -1.0], SimConfig(2.0, 1e-2, 37, seed=9))
        except RuntimeError as exc:
            raised.append(exc)

    thread = threading.Thread(target=caller, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert [str(exc) for exc in raised] == ["worker failed"]
    assert threading.active_count() == before
