import numpy as np
import pytest

from slq import (
    ControlledSystem,
    CostWeights,
    GareSolution,
    InhomogeneityGrid,
    assemble_value,
    check_range_ez,
    solve_eta,
    solve_gare,
)
import slq.inhomogeneous
from slq.errors import InvalidInputError, UnsupportedInputError, ValueUndefinedError
from slq.inhomogeneous import forcing_on_steps, step_intervals, vstar_on_steps
from slq.linalg import fro

from conftest import random_stable_pair
from test_riccati import _coordinate_change


@pytest.fixture(scope="module")
def scalar_solution():
    sys1 = ControlledSystem([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    w = CostWeights([[1.0]], [[0.0]], [[1.0]])
    sol = solve_gare(sys1, w)
    assert isinstance(sol, GareSolution)
    return sys1, w, sol


def grid_b(c, support=1.0):
    return InhomogeneityGrid(np.array([0.0, support]), b=[[c]], sigma=[[0.0]],
                             q=[[0.0]], rho=[[0.0]])


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        InhomogeneityGrid(np.array([0.5, 1.0]), [[0.0]], [[0.0]], [[0.0]], [[0.0]])
    with pytest.raises(InvalidInputError):
        InhomogeneityGrid(np.array([0.0, 1.0, 0.5]), [[0]] * 2, [[0]] * 2, [[0]] * 2, [[0]] * 2)


def test_grid_rejects_nonzero_tail():
    # a K+1-th row describes [t_K, inf) and must vanish
    with pytest.raises(UnsupportedInputError):
        InhomogeneityGrid(np.array([0.0, 1.0]), b=[[1.0], [0.5]], sigma=[[0.0], [0.0]],
                          q=[[0.0], [0.0]], rho=[[0.0], [0.0]])
    g = InhomogeneityGrid(np.array([0.0, 1.0]), b=[[1.0], [0.0]], sigma=[[0.0], [0.0]],
                          q=[[0.0], [0.0]], rho=[[0.0], [0.0]])
    assert g.b.shape == (1, 1)


def test_zero_forcing_gives_zero_terms(scalar_solution):
    sys1, w, sol = scalar_solution
    terms = solve_eta(sol, sys1, w, grid_b(0.0))
    assert fro(terms.eta) == 0.0
    assert fro(terms.v_star) == 0.0


def test_eta_scalar_closed_form(scalar_solution):
    # closed loop a = -1, phi = P b = 0.5 on [0, 1)
    sys1, w, sol = scalar_solution
    c = 0.5
    terms = solve_eta(sol, sys1, w, grid_b(c))
    a = float(sys1.A[0, 0] + sys1.B[0, 0] * sol.Theta[0, 0])
    phi = float(sol.P[0, 0]) * c
    for t in [0.0, 0.3, 0.7, 0.999]:
        expected = (phi / (-a)) * (1.0 - np.exp(a * (1.0 - t)))
        assert terms.eta_at(t)[0] == pytest.approx(expected, abs=1e-12)
    assert terms.eta_at(1.0)[0] == 0.0
    assert terms.eta_at(5.0)[0] == 0.0


def test_eta_support_shift(scalar_solution):
    # before the support, eta propagates by the pure closed-loop exponential
    sys1, w, sol = scalar_solution
    base = solve_eta(sol, sys1, w, grid_b(0.5))
    shift = 0.75
    g2 = InhomogeneityGrid(np.array([0.0, shift, shift + 1.0]),
                           b=[[0.0], [0.5]], sigma=[[0.0]] * 2,
                           q=[[0.0]] * 2, rho=[[0.0]] * 2)
    shifted = solve_eta(sol, sys1, w, g2)
    a = float(sys1.A[0, 0] + sys1.B[0, 0] * sol.Theta[0, 0])
    for t in [0.0, 0.25, 0.5]:
        expected = np.exp(a * (shift - t)) * base.eta_at(0.0)[0]
        assert shifted.eta_at(t)[0] == pytest.approx(expected, abs=1e-12)
    for t in [0.0, 0.4, 0.9]:
        assert shifted.eta_at(shift + t)[0] == pytest.approx(base.eta_at(t)[0], abs=1e-12)


def test_eta_linearity(scalar_solution):
    sys1, w, sol = scalar_solution
    g1 = grid_b(0.4)
    g2 = grid_b(0.8)
    t1 = solve_eta(sol, sys1, w, g1)
    t2 = solve_eta(sol, sys1, w, g2)
    assert fro(t2.eta - 2.0 * t1.eta) <= 1e-9 * (1 + fro(t1.eta))
    assert fro(t2.v_star - 2.0 * t1.v_star) <= 1e-9


def test_eta_ode_residual(scalar_solution):
    # d(eta)/dt + (A + B Th)' eta + phi = 0, by central differences
    sys1, w, sol = scalar_solution
    terms = solve_eta(sol, sys1, w, grid_b(0.7))
    a = float(sys1.A[0, 0] + sys1.B[0, 0] * sol.Theta[0, 0])
    phi = float(sol.P[0, 0]) * 0.7
    h = 1e-6
    for t in [0.1, 0.5, 0.9]:
        deriv = (terms.eta_at(t + h)[0] - terms.eta_at(t - h)[0]) / (2 * h)
        res = abs(deriv + a * terms.eta_at(t)[0] + phi)
        assert res <= 1e-8 * (1.0 + abs(terms.eta_at(t)[0]))


def test_eta_two_dimensional_residual():
    A = np.array([[-1.0, 0.3], [0.0, -1.5]])
    sys2 = ControlledSystem(A, 0.2 * np.eye(2), np.eye(2), 0.1 * np.eye(2))
    w = CostWeights(np.eye(2), np.zeros((2, 2)), np.eye(2))
    sol = solve_gare(sys2, w)
    g = InhomogeneityGrid(np.array([0.0, 0.5, 1.0]),
                          b=[[0.5, -0.2], [0.0, 0.3]],
                          sigma=[[0.1, 0.0], [0.0, 0.1]],
                          q=[[0.0, 0.1], [0.0, 0.0]],
                          rho=[[0.2, 0.0], [0.0, 0.0]])
    terms = solve_eta(sol, sys2, w, g)
    M = (sys2.A + sys2.B @ sol.Theta).T
    h = 1e-6
    P = sol.P
    CLT = (sys2.C + sys2.D @ sol.Theta).T
    for t, k in [(0.2, 0), (0.7, 1)]:
        phi = CLT @ P @ g.sigma[k] + sol.Theta.T @ g.rho[k] + P @ g.b[k] + g.q[k]
        deriv = (terms.eta_at(t + h) - terms.eta_at(t - h)) / (2 * h)
        res = fro(deriv + M @ terms.eta_at(t) + phi)
        assert res <= 1e-8 * (1.0 + fro(terms.eta_at(t)))


def test_range_check_definite_control(scalar_solution):
    sys1, w, sol = scalar_solution
    terms = solve_eta(sol, sys1, w, grid_b(0.5))
    check = check_range_ez(terms)
    assert check and check.max_defect <= 1e-12


def test_range_check_degenerate_fails():
    # N(P) = 0 with rho != 0, B = 0: a nonzero vector against a zero range
    sys1 = ControlledSystem([[-1.0]], [[0.0]], [[0.0]], [[1.0]])
    w = CostWeights([[-2.0]], [[0.0]], [[1.0]])
    sol = solve_gare(sys1, w)
    g = InhomogeneityGrid(np.array([0.0, 1.0]), b=[[0.0]], sigma=[[0.0]],
                          q=[[0.0]], rho=[[0.5]])
    terms = solve_eta(sol, sys1, w, g)
    check = check_range_ez(terms)
    assert not check
    with pytest.raises(ValueUndefinedError):
        assemble_value(terms, [1.0])


def test_value_zero_forcing_is_quadratic(scalar_solution):
    sys1, w, sol = scalar_solution
    terms = solve_eta(sol, sys1, w, grid_b(0.0))
    assert assemble_value(terms, [2.0]) == pytest.approx(4.0 * sol.P[0, 0])
    assert assemble_value(terms, [0.0]) == 0.0


def test_value_offset_independent_of_x(scalar_solution):
    sys1, w, sol = scalar_solution
    g = grid_b(0.6)
    terms = solve_eta(sol, sys1, w, g)

    def offset(x):
        V = assemble_value(terms, [x])
        return V - sol.P[0, 0] * x * x - 2.0 * terms.eta[0, 0] * x

    vals = [offset(x) for x in (-2.0, 0.0, 1.0, 3.5)]
    assert max(vals) - min(vals) <= 1e-10 * (1 + abs(vals[0]))


def test_value_against_independent_quadrature(scalar_solution):
    # brute-force Riemann quadrature of the correction integral
    sys1, w, sol = scalar_solution
    g = grid_b(0.5)
    terms = solve_eta(sol, sys1, w, g)
    V = assemble_value(terms, [1.0])
    ts = np.linspace(0.0, 1.0, 20001)
    mid = (ts[:-1] + ts[1:]) / 2
    dt = ts[1] - ts[0]
    eta_vals = np.array([terms.eta_at(t)[0] for t in mid])
    n_dag = float(terms._N_dag[0, 0])
    integrand = 2.0 * eta_vals * 0.5 - n_dag * eta_vals ** 2
    brute = sol.P[0, 0] + 2.0 * terms.eta[0, 0] + np.sum(integrand) * dt
    assert V == pytest.approx(float(brute), abs=1e-8)


def test_vstar_on_steps_matches_pointwise(scalar_solution):
    sys1, w, sol = scalar_solution
    g = grid_b(0.5)
    terms = solve_eta(sol, sys1, w, g)
    dt = 1e-3
    v = vstar_on_steps(terms, dt, 1500)
    for j in [0, 100, 499, 500, 900, 1100]:
        assert v[j, 0] == pytest.approx(terms.v_star_at(j * dt)[0], abs=1e-12)


def test_steps_take_forcing_and_vstar_from_the_same_interval(scalar_solution):
    # 5 dt rounds below the breakpoint 0.003, yet step 5 starts the second
    # interval: its rho and its v* must both come from there
    sys1, w, sol = scalar_solution
    g = InhomogeneityGrid(np.array([0.0, 0.003, 0.006]), b=[[0.0]] * 2, sigma=[[0.0]] * 2,
                          q=[[0.0]] * 2, rho=[[1.0], [-1.0]])
    terms = solve_eta(sol, sys1, w, g)
    dt, nsteps = 0.0006, 12
    assert 5 * dt < 0.003
    assert step_intervals(g, dt, nsteps).tolist() == [0] * 5 + [1] * 5 + [2] * 2
    rho = forcing_on_steps(g, dt, nsteps, 1, 1)[3][:, 0]
    v = vstar_on_steps(terms, dt, nsteps)[:, 0]
    assert rho.tolist() == [1.0] * 5 + [-1.0] * 5 + [0.0] * 2
    assert (v[:5] < 0.0).all() and (v[5:10] > 0.0).all() and (v[10:] == 0.0).all()
    assert v[5] == pytest.approx(terms.v_star[1, 0], abs=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_eta_is_propagated_once_per_point(scalar_solution, monkeypatch, K):
    # solve_eta: one exponential per interval for eta and one per midpoint
    # check; assemble_value: one per Gauss-Legendre node
    sys1, w, sol = scalar_solution
    g = InhomogeneityGrid(np.linspace(0.0, 1.0, K + 1), b=0.5 + np.arange(K),
                          sigma=0.1 * np.ones(K), q=np.zeros(K), rho=-0.2 * np.arange(K))
    calls = []
    original = slq.inhomogeneous._propagator

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(slq.inhomogeneous, "_propagator", counting)
    terms = solve_eta(sol, sys1, w, g)
    assert len(calls) <= 2 * K
    calls.clear()
    assemble_value(terms, [1.0])
    assert len(calls) == 8 * K


def test_forced_problem_is_invariant_under_non_orthogonal_coordinates():
    # In coordinates x = Tz the data become [T^-1 A T, T^-1 C T; T^-1 B, T^-1 D],
    # (T'QT, ST, R) and the forcing (T^-1 b, T^-1 sigma, T'q, rho).  The
    # solution maps as P -> T'PT and Theta -> Theta T (unique: R > 0 keeps
    # N(P) > 0), the affine terms as eta(t) -> T'eta(t) with v* unchanged,
    # and the value as V_z(z) = V(Tz).  Each within 1e-8 relative, as in the
    # unforced invariance test of the GARE.
    rng = np.random.default_rng(1905)
    times = np.array([0.0, 0.3, 0.8, 1.25])
    for n, m in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (4, 3)]:
        pair = random_stable_pair(rng, n)
        sys_x = ControlledSystem(pair.A, pair.C, rng.uniform(-1.0, 1.0, (n, m)),
                                 rng.uniform(-0.2, 0.2, (n, m)))
        F = rng.uniform(-1.0, 1.0, (n, n))
        w_x = CostWeights(F @ F.T + 0.5 * np.eye(n), rng.uniform(-0.1, 0.1, (m, n)),
                          np.diag(rng.uniform(0.5, 2.0, m)))
        g_x = InhomogeneityGrid(times, b=rng.uniform(-0.5, 0.5, (3, n)),
                                sigma=rng.uniform(-0.3, 0.3, (3, n)),
                                q=rng.uniform(-0.3, 0.3, (3, n)),
                                rho=rng.uniform(-0.3, 0.3, (3, m)))
        T = _coordinate_change(rng, n)
        Ti = np.linalg.inv(T)
        sys_z = ControlledSystem(Ti @ sys_x.A @ T, Ti @ sys_x.C @ T, Ti @ sys_x.B, Ti @ sys_x.D)
        w_z = CostWeights(T.T @ w_x.Q @ T, w_x.S @ T, w_x.R)
        # grid rows are vectors: b_k -> T^-1 b_k is row b_k' T^-T, q_k -> T'q_k is q_k' T
        g_z = InhomogeneityGrid(times, b=g_x.b @ Ti.T, sigma=g_x.sigma @ Ti.T,
                                q=g_x.q @ T, rho=g_x.rho)
        sol_x, sol_z = solve_gare(sys_x, w_x), solve_gare(sys_z, w_z)
        assert isinstance(sol_x, GareSolution) and isinstance(sol_z, GareSolution)
        terms_x = solve_eta(sol_x, sys_x, w_x, g_x)
        terms_z = solve_eta(sol_z, sys_z, w_z, g_z)

        def close(got, want):
            return fro(np.atleast_1d(got - want)) <= 1e-8 * (1.0 + fro(np.atleast_1d(want)))

        assert close(sol_z.P, T.T @ sol_x.P @ T), (n, m)
        assert close(sol_z.Theta, sol_x.Theta @ T), (n, m)
        assert close(terms_z.eta, terms_x.eta @ T), (n, m)       # rows eta(t_k)' T
        assert close(terms_z.v_star, terms_x.v_star), (n, m)
        for z in rng.normal(size=(3, n)):
            assert close(assemble_value(terms_z, z), assemble_value(terms_x, T @ z)), (n, m, z)
