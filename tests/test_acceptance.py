"""Acceptance battery.

One test per criterion, each asserting its stated tolerance and printing a
single pass line (run with ``pytest -v -s tests/test_acceptance.py``).
Everything is seeded; no test depends on another's state.
"""

import json
import time

import numpy as np
import pytest

from slq import (
    ControlledSystem,
    CostWeights,
    GareConfig,
    GareMaps,
    GareSolution,
    GareUnsolvable,
    InhomogeneityGrid,
    SimConfig,
    assemble_value,
    feedback_parametrization_check,
    find_stabilizer,
    is_l2_stable,
    is_stabilizer,
    simulate_closed_loop,
    solve_eta,
    solve_gare,
    solve_lyapunov,
    stabilizability_report,
)
from slq.cli import main
from slq.errors import LyapunovUnsolvableError
from slq.linalg import fro, pinv
from slq.oracle1d import solve_1d
from slq.stability import SystemPair


def scalar_system(a, c, b, d):
    return ControlledSystem([[a]], [[c]], [[b]], [[d]])


def scalar_weights(q, s, r):
    return CostWeights([[q]], [[s]], [[r]])


def draw_stabilizable_scalar(rng):
    while True:
        a, c, b, d = rng.uniform(-3, 3, 4)
        if (2 * a + c * c) * d * d < (b + c * d) ** 2:
            return a, c, b, d


def draw_solvable_scalar(rng):
    """Random scalar instance that the closed-form oracle declares solvable."""
    while True:
        a, c, b, d = draw_stabilizable_scalar(rng)
        q, s, r = rng.uniform(-3, 3, 3)
        res = solve_1d(a, c, b, d, q, s, r)
        if res.solvable:
            return (a, c, b, d, q, s, r), res


def degenerate_scalar(rng):
    """Instance whose static stabilizing solution has N(P) = 0 exactly."""
    while True:
        a, c, b, d = draw_stabilizable_scalar(rng)
        if abs(d) < 0.2:
            continue
        r = rng.uniform(0.2, 2.0)
        q = (2 * a + c * c) * r / (d * d)
        s = (b + c * d) * r / (d * d)
        return a, c, b, d, q, s, r


def closed_loop_rate(sys, Theta):
    return -float(np.max(np.linalg.eigvals(sys.A + sys.B @ Theta).real))


# ----------------------------------------------------------------------
# Monte Carlo battery: 10 scalar + 5 two-dimensional solvable instances.
# Entries: (system, weights, x0, forcing grid or None).

def _mc_battery():
    instances = []
    scalars = [
        (0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0),
        (-0.5, 0.6, 1.0, 0.1, 1.0, 0.0, 1.0, 1.0),
        (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0),
        (0.3, 0.4, 0.9, -0.3, 2.0, 0.1, 0.8, 0.7),
        (-1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0),
        (-1.0, 0.2, 1.0, 0.3, 0.7, -0.4, 1.2, 1.0),
        (-1.0, 0.0, 0.0, 1.0, -2.0, 0.0, 1.0, 1.0),
        (2.0, 0.5, 1.5, 0.2, 3.0, 0.3, 0.5, -0.8),
    ]
    for a, c, b, d, q, s, r, x in scalars:
        instances.append((scalar_system(a, c, b, d), scalar_weights(q, s, r), [x], None))
    g1 = InhomogeneityGrid(np.array([0.0, 1.0]), b=[[0.5]], sigma=[[0.0]],
                           q=[[0.0]], rho=[[0.0]])
    instances.append((scalar_system(0.0, 0.0, 1.0, 0.0), scalar_weights(1.0, 0.0, 1.0),
                      [1.0], g1))
    g2 = InhomogeneityGrid(np.array([0.0, 0.5]), b=[[0.2]], sigma=[[0.3]],
                           q=[[0.1]], rho=[[0.1]])
    instances.append((scalar_system(-0.5, 0.6, 1.0, 0.1), scalar_weights(1.0, 0.0, 1.0),
                      [1.0], g2))

    two_dim = [
        (ControlledSystem([[-1, 0.3], [0, -1.5]], 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2)),
         CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2)), [1.0, -1.0], None),
        (ControlledSystem([[-0.8, 0.5], [-0.2, -1.2]], [[0.2, 0.1], [0.0, 0.2]],
                          [[1, 0], [0.3, 1]], [[0.1, 0], [0, 0.15]]),
         CostWeights(np.diag([2.0, 0.5]), 0.1 * np.ones((2, 2)), np.diag([1.0, 2.0])),
         [0.5, 1.0], None),
        (ControlledSystem([[-1, 0.4], [0, -0.9]], 0.25 * np.eye(2), [[1], [0.5]], [[0.1], [0.0]]),
         CostWeights(np.eye(2), [[0.2, 0.0]], [[1.0]]), [1.0, 0.0], None),
        (ControlledSystem([[-1.2, 0.0], [0.3, -0.7]], [[0.3, 0.1], [0.0, 0.2]],
                          np.eye(2), 0.05 * np.eye(2)),
         CostWeights(np.diag([1.0, 1.5]), np.zeros((2, 2)), 0.5 * np.eye(2)),
         [1.0, 0.5], None),
        (ControlledSystem([[-1, 0.3], [0, -1.5]], 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2)),
         CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2)), [1.0, -1.0],
         InhomogeneityGrid(np.array([0.0, 0.5, 1.0]),
                           b=[[0.4, 0.0], [0.0, -0.3]],
                           sigma=[[0.2, 0.1], [0.0, 0.0]],
                           q=[[0.0, 0.0], [0.1, 0.0]],
                           rho=[[0.1, 0.0], [0.0, 0.0]])),
    ]
    instances.extend(two_dim)
    return instances


def _solve_instance(sys, w, x0, g):
    sol = solve_gare(sys, w)
    assert isinstance(sol, GareSolution)
    if g is not None:
        terms = solve_eta(sol, sys, w, g)
        value = assemble_value(sol, terms, g, x0)
    else:
        terms = None
        x = np.asarray(x0, dtype=float)
        value = float(x @ sol.P @ x)
    return sol, terms, value


def test_criterion_01_penrose_suite(rng=np.random.default_rng(1001)):
    start = time.monotonic()
    for _ in range(500):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        M = rng.uniform(-3, 3, (rows, cols))
        if rng.uniform() < 0.4:
            U, sv, Vt = np.linalg.svd(M, full_matrices=False)
            kill = rng.integers(0, sv.size)
            sv[: kill + 1] = 0.0
            M = U @ np.diag(sv) @ Vt
        symmetric = rows == cols and rng.uniform() < 0.3
        if symmetric:
            M = (M + M.T) / 2
        Md = pinv(M)
        tol = 1e-10 * (1.0 + fro(M)) ** 2
        assert fro(M @ Md @ M - M) <= tol
        assert fro(Md @ M @ Md - Md) <= tol
        assert fro((M @ Md).T - M @ Md) <= tol
        assert fro((Md @ M).T - Md @ M) <= tol
        if symmetric:
            assert np.array_equal(Md, Md.T)
            assert fro(M @ Md - Md @ M) <= tol
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS - Penrose identities on 500 matrices ({elapsed:.2f}s)")


def test_criterion_02_lyapunov_equivalence(rng=np.random.default_rng(1002)):
    start = time.monotonic()
    for _ in range(200):
        a, c = rng.uniform(-3, 3, 2)
        assert is_l2_stable(SystemPair([[a]], [[c]])) == (2 * a + c * c < 0)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        A = rng.uniform(-1.5, 1.0, (n, n)) - rng.uniform(0, 1.5) * np.eye(n)
        C = rng.uniform(-0.8, 0.8, (n, n))
        pair = SystemPair(A, C)
        Lam = rng.uniform(-1, 1, (n, n))
        Lam = (Lam + Lam.T) / 2
        try:
            P = solve_lyapunov(pair, Lam)
        except LyapunovUnsolvableError:
            continue
        res = fro(P @ A + A.T @ P + C.T @ P @ C + Lam)
        assert res <= 1e-9 * (1 + fro(P)) * (1 + fro(A) + fro(C) ** 2)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 2: PASS - stability/Lyapunov equivalence on 400 systems ({elapsed:.2f}s)")


def test_criterion_03_stabilizability(rng=np.random.default_rng(1003)):
    start = time.monotonic()
    n_mono = 0
    for i in range(200):
        a, c, b, d = rng.uniform(-3, 3, 4)
        if b == 0.0 and d == 0.0:
            continue
        sys1 = scalar_system(a, c, b, d)
        report = stabilizability_report(sys1)
        expected = (2 * a + c * c) * d * d < (b + c * d) ** 2
        assert report.stabilizable == expected
        if report.stabilizable:
            assert is_stabilizer(sys1, report.gamma)
        if report.flow is not None and i % 5 == 0:
            vals = report.flow.values
            for k in range(len(vals) - 1):
                lam_min = float(np.linalg.eigvalsh(vals[k + 1] - vals[k])[0])
                assert lam_min >= -1e-8 * (1.0 + fro(vals[k]))
            n_mono += 1
    assert n_mono >= 20
    elapsed = time.monotonic() - start
    print(f"criterion 3: PASS - flow verdict matches closed criterion on 200 systems, "
          f"{n_mono} monotone flows ({elapsed:.2f}s)")


def criterion_04_battery(rng):
    """Criterion 4's 51 instances: solvable and degenerate scalar draws, then 6 fixed 2x2."""
    battery = []
    for _ in range(35):
        coeffs, _ = draw_solvable_scalar(rng)
        battery.append((scalar_system(*coeffs[:4]), scalar_weights(*coeffs[4:])))
    for _ in range(10):
        a, c, b, d, q, s, r = degenerate_scalar(rng)
        battery.append((scalar_system(a, c, b, d), scalar_weights(q, s, r)))
    battery += [
        (ControlledSystem([[-1, 0.3], [0, -1.5]], 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2)),
         CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2))),
        (ControlledSystem([[-0.8, 0.5], [-0.2, -1.2]], [[0.2, 0.1], [0.0, 0.2]],
                          [[1, 0], [0.3, 1]], [[0.1, 0], [0, 0.15]]),
         CostWeights(np.diag([2.0, 0.5]), 0.1 * np.ones((2, 2)), np.diag([1.0, 2.0]))),
        (ControlledSystem([[-1, 0.4], [0, -0.9]], 0.25 * np.eye(2), [[1], [0.5]], [[0.1], [0.0]]),
         CostWeights(np.eye(2), [[0.2, 0.0]], [[1.0]])),
        (ControlledSystem([[0.4, 0.2], [0, -0.6]], 0.2 * np.eye(2), np.eye(2), np.zeros((2, 2))),
         CostWeights([[1.0, 0.0], [0.0, -0.1]], np.zeros((2, 2)), np.eye(2))),
        (ControlledSystem([[-1.2, 0.0], [0.3, -0.7]], [[0.3, 0.1], [0.0, 0.2]],
                          np.eye(2), 0.05 * np.eye(2)),
         CostWeights(np.diag([1.0, 1.5]), np.zeros((2, 2)), 0.5 * np.eye(2))),
        # indefinite S and R block, still solvable by convexity margin
        (ControlledSystem([[-2.0, 0.0], [0.1, -1.8]], 0.1 * np.eye(2), np.eye(2), np.zeros((2, 2))),
         CostWeights(3.0 * np.eye(2), [[0.3, -0.2], [0.1, 0.4]], np.diag([0.8, 1.1]))),
    ]
    return battery


def test_criterion_04_gare_residuals(rng=np.random.default_rng(1004)):
    start = time.monotonic()
    battery = criterion_04_battery(rng)
    assert len(battery) >= 50
    successes = 0
    degenerate_hits = 0
    for sys_i, w_i in battery:
        out = solve_gare(sys_i, w_i)
        if isinstance(out, GareUnsolvable):
            continue
        successes += 1
        maps = GareMaps(sys_i, w_i)
        P = out.P
        N = maps.control_part(P)
        Lt = maps.cross_part(P).T
        assert fro(maps.lyapunov_part(P) - Lt.T @ pinv(N) @ Lt) <= 1e-6 * (1 + fro(P))
        assert fro((np.eye(sys_i.m) - N @ pinv(N)) @ Lt) / (1.0 + fro(Lt)) <= 1e-6
        n_min = float(np.linalg.eigvalsh(N)[0])
        assert n_min >= -1e-8
        assert is_stabilizer(sys_i, out.Theta)
        if n_min <= 1e-8:
            degenerate_hits += 1
    assert successes >= 45
    assert degenerate_hits >= 10
    elapsed = time.monotonic() - start
    print(f"criterion 4: PASS - GARE residuals on {successes} solved instances, "
          f"{degenerate_hits} with singular N(P) ({elapsed:.2f}s)")


def criterion_05_draws(rng):
    """Criterion 5's 500 stabilizable scalar draws (a, c, b, d, q, s, r)."""
    checked = 0
    while checked < 500:
        a, c, b, d, q, s, r = rng.uniform(-3, 3, 7)
        if (2 * a + c * c) * d * d >= (b + c * d) ** 2:
            continue
        checked += 1
        yield a, c, b, d, q, s, r


def test_criterion_05_oracle_equivalence(rng=np.random.default_rng(1005)):
    start = time.monotonic()
    solvable = 0
    for a, c, b, d, q, s, r in criterion_05_draws(rng):
        oracle = solve_1d(a, c, b, d, q, s, r)
        out = solve_gare(scalar_system(a, c, b, d), scalar_weights(q, s, r))
        gare_solvable = isinstance(out, GareSolution)
        assert gare_solvable == oracle.solvable, (a, c, b, d, q, s, r)
        if not gare_solvable:
            continue
        solvable += 1
        assert abs(float(out.P[0, 0]) - oracle.P) <= 1e-6
        theta = float(out.Theta[0, 0])
        if oracle.strategy.kind == "point":
            assert abs(theta - oracle.strategy.theta) <= 1e-6
        else:
            assert oracle.strategy.contains(theta, margin=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 5: PASS - oracle equivalence on 500 scalar instances "
          f"({solvable} solvable, {elapsed:.1f}s)")


def criterion_06_instances(rng):
    """Criterion 6's 30 solvable instances: 25 scalar draws and 5 fixed 2x2."""
    instances = []
    for _ in range(25):
        coeffs, _ = draw_solvable_scalar(rng)
        instances.append((scalar_system(*coeffs[:4]), scalar_weights(*coeffs[4:])))
    instances += [
        (ControlledSystem([[-1, 0.3], [0, -1.5]], 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2)),
         CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2))),
        (ControlledSystem([[-0.8, 0.5], [-0.2, -1.2]], [[0.2, 0.1], [0.0, 0.2]],
                          [[1, 0], [0.3, 1]], [[0.1, 0], [0, 0.15]]),
         CostWeights(np.diag([2.0, 0.5]), 0.1 * np.ones((2, 2)), np.diag([1.0, 2.0]))),
        (ControlledSystem([[-1, 0.4], [0, -0.9]], 0.25 * np.eye(2), [[1], [0.5]], [[0.1], [0.0]]),
         CostWeights(np.eye(2), [[0.2, 0.0]], [[1.0]])),
        (ControlledSystem([[-1.2, 0.0], [0.3, -0.7]], [[0.3, 0.1], [0.0, 0.2]],
                          np.eye(2), 0.05 * np.eye(2)),
         CostWeights(np.diag([1.0, 1.5]), np.zeros((2, 2)), 0.5 * np.eye(2))),
        (ControlledSystem([[0.4, 0.2], [0, -0.6]], 0.2 * np.eye(2), np.eye(2), np.zeros((2, 2))),
         CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2))),
    ]
    return instances


def test_criterion_06_uniqueness(rng=np.random.default_rng(1006)):
    start = time.monotonic()
    instances = criterion_06_instances(rng)
    assert len(instances) == 30
    for sys_i, w_i in instances:
        out1 = solve_gare(sys_i, w_i)
        assert isinstance(out1, GareSolution)
        gamma = find_stabilizer(sys_i)
        for scale in (0.5, 0.25, 0.1, 0.05):
            sigma2 = gamma + scale * np.ones_like(gamma)
            if is_stabilizer(sys_i, sigma2):
                break
        else:
            raise AssertionError("no perturbed stabilizer found")
        out2 = solve_gare(sys_i, w_i, GareConfig(reduction_stabilizer=sigma2))
        assert isinstance(out2, GareSolution)
        assert fro(out1.P - out2.P) <= 1e-6 * (1 + fro(out1.P))
    elapsed = time.monotonic() - start
    print(f"criterion 6: PASS - solution independent of the reduction stabilizer "
          f"on 30 instances ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_07_monte_carlo_value():
    start = time.monotonic()
    battery = _mc_battery()
    assert len(battery) == 15
    for idx, (sys_i, w_i, x0, g) in enumerate(battery):
        sol, terms, value = _solve_instance(sys_i, w_i, x0, g)
        rate = closed_loop_rate(sys_i, sol.Theta)
        assert rate > 0
        dt = 1e-3
        horizon = np.ceil(20.0 / rate / dt) * dt
        if g is not None:
            horizon = max(horizon, g.support_end)
        cfg = SimConfig(horizon=horizon, dt=dt, n_paths=10_000, seed=7000 + idx)
        res = simulate_closed_loop(sys_i, w_i, sol.Theta, x0, cfg, terms=terms, g=g)
        tol = max(3.0 * res.std_error, 0.02 * abs(value) + 0.01)
        assert abs(res.estimate - value) <= tol, (
            f"instance {idx}: estimate {res.estimate:.6f} vs value {value:.6f} "
            f"(tol {tol:.6f}, se {res.std_error:.6f})"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 7: PASS - Monte Carlo matches V(x) on 15 instances ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_08_empirical_optimality(rng=np.random.default_rng(1008)):
    start = time.monotonic()
    worst = np.inf
    for idx, (sys_i, w_i, x0, g) in enumerate(_mc_battery()):
        sol, terms, _ = _solve_instance(sys_i, w_i, x0, g)
        rate = closed_loop_rate(sys_i, sol.Theta)
        dt = 2e-3
        horizon = np.ceil(max(12.0 / rate, g.support_end if g else 0.0) / dt) * dt
        cfg = SimConfig(horizon=horizon, dt=dt, n_paths=1500, seed=8000 + idx)
        base = simulate_closed_loop(sys_i, w_i, sol.Theta, x0, cfg, terms=terms, g=g)
        nsteps = cfg.steps()
        from slq.inhomogeneous import vstar_on_steps

        v_base = vstar_on_steps(terms, g, dt, nsteps, sys_i.m)
        for _ in range(20):
            d_theta = rng.normal(size=sol.Theta.shape) * 0.2
            for _ in range(12):
                if is_stabilizer(sys_i, sol.Theta + d_theta):
                    break
                d_theta *= 0.5
            else:
                raise AssertionError("could not build a perturbed stabilizer")
            d_v = rng.normal(size=sys_i.m) * 0.2
            v_pert = v_base.copy()
            v_pert[: nsteps // 2] += d_v
            # common random numbers: same seed as the optimum
            pert = simulate_closed_loop(sys_i, w_i, sol.Theta + d_theta, x0, cfg,
                                        g=g, v_grid=v_pert)
            gap = pert.estimate - base.estimate
            guard = 3.0 * np.hypot(pert.std_error, base.std_error)
            worst = min(worst, gap + guard)
            assert gap >= -guard, f"instance {idx}: perturbation beat the optimum by {-gap:.3e}"
    elapsed = time.monotonic() - start
    print(f"criterion 8: PASS - 300 perturbations never beat the optimum "
          f"(worst margin {worst:.3e}, {elapsed:.1f}s)")


def test_criterion_09_feedback_parametrization():
    start = time.monotonic()
    cases = [
        (scalar_system(0.0, 0.0, 1.0, 0.0), [[-1.0]], [0.0], None),
        (scalar_system(-0.5, 0.6, 1.0, 0.2), [[-0.8]], [1.0], None),
        (scalar_system(0.3, 0.4, 0.9, -0.3), [[-1.2]], [0.5], None),
        (ControlledSystem([[-1, 0.3], [0, -1.5]], 0.3 * np.eye(2), np.eye(2), 0.1 * np.eye(2)),
         -0.5 * np.eye(2), [1.0, -1.0], None),
        (scalar_system(-0.5, 0.6, 1.0, 0.2), [[-0.8]], [1.0],
         InhomogeneityGrid(np.array([0.0, 0.5]), b=[[0.4]], sigma=[[0.2]],
                           q=[[0.0]], rho=[[0.0]])),
    ]
    for sys_i, theta, x0, g in cases:
        assert is_stabilizer(sys_i, theta)
        cfg = SimConfig(horizon=5.0, dt=1e-3, n_paths=16, seed=900)
        v = 0.3 * np.sin(np.linspace(0.0, 8.0, cfg.steps() * sys_i.m)).reshape(-1, sys_i.m)
        check = feedback_parametrization_check(sys_i, theta, x0, cfg, v_grid=v, g=g)
        assert check.max_deviation <= 1e-10
    elapsed = time.monotonic() - start
    print(f"criterion 9: PASS - feedback parametrization pathwise exact "
          f"on {len(cases)} instances ({elapsed:.1f}s)")


def test_criterion_10_inhomogeneous_consistency():
    start = time.monotonic()
    sys1 = scalar_system(-0.5, 0.6, 1.0, 0.1)
    w1 = scalar_weights(1.0, 0.0, 1.0)
    sol = solve_gare(sys1, w1)
    assert isinstance(sol, GareSolution)
    g = InhomogeneityGrid(np.array([0.0, 0.4, 1.0]), b=[[0.5], [-0.2]],
                          sigma=[[0.2], [0.1]], q=[[0.1], [0.0]], rho=[[0.0], [0.1]])
    terms = solve_eta(sol, sys1, w1, g)

    # ODE residual on the grid (central differences, interior points)
    M = (sys1.A + sys1.B @ sol.Theta).T
    P = sol.P
    CLT = (sys1.C + sys1.D @ sol.Theta).T
    h = 1e-6
    for t, k in [(0.2, 0), (0.5, 1), (0.8, 1)]:
        phi = CLT @ P @ g.sigma[k] + sol.Theta.T @ g.rho[k] + P @ g.b[k] + g.q[k]
        deriv = (terms.eta_at(t + h) - terms.eta_at(t - h)) / (2 * h)
        res = fro(deriv + M @ terms.eta_at(t) + phi)
        assert res <= 1e-8 * (1.0 + fro(terms.eta_at(t)))

    # joint linearity in (b, sigma, q, rho)
    g2 = InhomogeneityGrid(g.times, 2 * g.b, 2 * g.sigma, 2 * g.q, 2 * g.rho)
    terms2 = solve_eta(sol, sys1, w1, g2)
    assert fro(terms2.eta - 2 * terms.eta) <= 1e-9 * (1 + fro(terms.eta))
    assert fro(terms2.v_star - 2 * terms.v_star) <= 1e-9 * (1 + fro(terms.v_star))

    # value with nonzero forcing against Monte Carlo
    value = assemble_value(sol, terms, g, [1.0])
    rate = closed_loop_rate(sys1, sol.Theta)
    dt = 1e-3
    horizon = np.ceil(16.0 / rate / dt) * dt
    res = simulate_closed_loop(sys1, w1, sol.Theta, [1.0],
                               SimConfig(horizon=horizon, dt=dt, n_paths=4000, seed=1010),
                               terms=terms, g=g)
    tol = max(3.0 * res.std_error, 0.02 * abs(value) + 0.01)
    assert abs(res.estimate - value) <= tol
    elapsed = time.monotonic() - start
    print(f"criterion 10: PASS - affine-term ODE, linearity, and value cross-check "
          f"({elapsed:.1f}s)")


def test_criterion_11_determinism(tmp_path):
    start = time.monotonic()
    doc = {
        "n": 1, "m": 1,
        "A": [[-0.5]], "C": [[0.6]], "B": [[1.0]], "D": [[0.1]],
        "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]],
        "x0": [1.0],
        "inhomogeneity": {"grid": [0.0, 0.5], "b": [[0.4]], "sigma": [[0.2]],
                          "q": [[0.0]], "rho": [[0.0]]},
        "solver": {"simulate": {"paths": 500, "dt": 1e-2}},
    }
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["solve", str(prob), "--simulate", "500", "--oracle", "--out", str(out1)]) == 0
    assert main(["solve", str(prob), "--simulate", "500", "--oracle", "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    elapsed = time.monotonic() - start
    print(f"criterion 11: PASS - repeated solves byte-identical ({elapsed:.1f}s)")
