import numpy as np
import pytest
import scipy.linalg

import slq.stability
from conftest import random_stable_pair
from slq import (
    ControlledSystem,
    CostWeights,
    SystemPair,
    integrate_riccati_flow,
    is_l2_stable,
    is_stabilizer,
    solve_lyapunov,
)
from slq.errors import InvalidInputError, LyapunovUnsolvableError
from slq.linalg import fro, is_psd


def scalar_pair(a, c):
    return SystemPair([[a]], [[c]])


# Scalar closed form: P = -Lambda / (2A + C^2).

def test_lyapunov_scalar_no_noise():
    P = solve_lyapunov(scalar_pair(-1.0, 0.0), [[1.0]])
    assert np.allclose(P, [[0.5]])


def test_lyapunov_scalar_with_noise():
    P = solve_lyapunov(scalar_pair(-1.0, 1.0), [[1.0]])
    assert np.allclose(P, [[1.0]])


def test_lyapunov_zero_forcing(rng):
    pair = random_stable_pair(rng, 3)
    P = solve_lyapunov(pair, np.zeros((3, 3)))
    assert fro(P) <= 1e-9


def test_lyapunov_singular_system():
    # 2A + C^2 = 0: the flattened operator is singular.
    with pytest.raises(LyapunovUnsolvableError):
        solve_lyapunov(scalar_pair(-0.5, 1.0), [[1.0]])


def test_lyapunov_residual_random(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        pair = random_stable_pair(rng, n)
        Lam = rng.uniform(-1, 1, (n, n))
        Lam = (Lam + Lam.T) / 2
        P = solve_lyapunov(pair, Lam)
        res = fro(P @ pair.A + pair.A.T @ P + pair.C.T @ P @ pair.C + Lam)
        assert res <= 1e-9 * (1 + fro(P)) * (1 + fro(pair.A) + fro(pair.C) ** 2)


def test_lyapunov_linearity(rng):
    pair = random_stable_pair(rng, 3)
    L1 = rng.uniform(-1, 1, (3, 3))
    L2 = rng.uniform(-1, 1, (3, 3))
    L1, L2 = (L1 + L1.T) / 2, (L2 + L2.T) / 2
    P12 = solve_lyapunov(pair, L1 + L2)
    P1 = solve_lyapunov(pair, L1)
    P2 = solve_lyapunov(pair, L2)
    assert fro(P12 - P1 - P2) <= 1e-8 * (1 + fro(P12))


def test_lyapunov_monotone_in_forcing(rng):
    # Lambda1 >= Lambda2 implies P1 >= P2 (integral representation).
    for _ in range(10):
        pair = random_stable_pair(rng, 3)
        L2 = rng.uniform(-1, 1, (3, 3))
        L2 = (L2 + L2.T) / 2
        G = rng.uniform(-1, 1, (3, 3))
        L1 = L2 + G @ G.T
        P1 = solve_lyapunov(pair, L1)
        P2 = solve_lyapunov(pair, L2)
        assert is_psd(P1 - P2, tol=1e-8)


def _kronecker_solution(pair, Lam):
    """Independent oracle: the full n^2 x n^2 operator on vec(P), row-major."""
    n = pair.n
    eye = np.eye(n)
    K = (np.kron(eye, pair.A.T) + np.kron(pair.A.T, eye)
         + np.kron(pair.C.T, pair.C.T))
    return np.linalg.solve(K, -Lam.ravel()).reshape(n, n)


def test_lyapunov_matches_kronecker_oracle(rng):
    for n in range(1, 9):
        for _ in range(3):
            pair = random_stable_pair(rng, n)
            Lam = rng.uniform(-1, 1, (n, n))
            Lam = (Lam + Lam.T) / 2
            P_ref = _kronecker_solution(pair, Lam)
            P = solve_lyapunov(pair, Lam)
            assert fro(P - P_ref) <= 1e-12 * fro(P_ref)


def _counting_lapack(monkeypatch, name):
    """The list that gets the keyword arguments of each call of LAPACK's ``name``."""
    calls = []
    original = getattr(scipy.linalg.lapack, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, name, counting)
    return calls


def _krylov_sweeps(n):
    """The most Sylvester sweeps one GMRES run makes: the first sweep and one
    per Krylov step, in a space of n(n+1)/2 symmetric matrices."""
    return n * (n + 1) // 2 + 1


def test_lyapunov_settles_after_an_early_certificate(monkeypatch):
    # In the basis Q, A is upper triangular and C diagonal, so the noise map
    # has the eigenvalues c_i c_j / (|a_i| + |a_j|), the largest
    # c_1^2 / (2 |a_1|) = 0.95.  The first sweep already meets Lyapunov's
    # inequality; the fixed point from 0 would settle only after about 580
    # sweeps, but GMRES solves it within its Krylov space.  A sweep makes
    # one Sylvester solve.
    Q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(3, 3)))
    T = np.diag([-1.0, -1.5, -2.0]) + np.triu(np.full((3, 3), 0.3), 1)
    A = Q @ T @ Q.T
    C = Q @ np.diag([np.sqrt(1.9), np.sqrt(0.9), np.sqrt(0.8)]) @ Q.T
    pair = SystemPair(A, C)
    Lam = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, -0.3], [0.0, -0.3, 0.5]])
    sylvester = _counting_lapack(monkeypatch, "dtrsyl")
    assert is_l2_stable(pair)
    sylvester.clear()
    P = solve_lyapunov(pair, Lam)
    assert len(sylvester) <= _krylov_sweeps(3)
    P_ref = _kronecker_solution(pair, Lam)
    assert fro(P - P_ref) <= 1e-12 * fro(P_ref)


def _single_mode_pair(radius):
    """A = Q diag(-1, -2) Q' and C = Q diag(c, 0) Q', whose noise map has the
    one nonzero eigenvalue c^2 / 2 = radius."""
    Q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((2, 2)))
    return SystemPair(Q @ np.diag([-1.0, -2.0]) @ Q.T,
                      Q @ np.diag([np.sqrt(2.0 * radius), 0.0]) @ Q.T)


def _conditioned_tol(radius):
    """Relative accuracy asked of a solve at noise-map radius < 1: the
    equation's condition grows as 1 / (1 - radius)."""
    return 1e-13 / (1.0 - radius)


def test_slow_noise_map_is_certified_at_once_and_settles_by_its_certificate(monkeypatch):
    # noise-map radius c_1^2 / (2 |a_1|) = 0.999: ||map^k(I)|| stays above
    # 1/2 for about 690 sweeps, and the fixed point would settle after about
    # 26 000, but the first sweep meets Lyapunov's inequality and GMRES
    # solves the value within its Krylov space
    pair = _single_mode_pair(0.999)
    sylvester = _counting_lapack(monkeypatch, "dtrsyl")
    assert is_l2_stable(pair)
    assert len(sylvester) <= _krylov_sweeps(2)
    sylvester.clear()
    P = solve_lyapunov(pair, np.eye(2))
    assert len(sylvester) <= _krylov_sweeps(2)
    P_ref = _kronecker_solution(pair, np.eye(2))
    assert fro(P - P_ref) <= 1e-9 * fro(P_ref)


def test_a_near_marginal_pair_is_solved_within_a_bounded_number_of_sweeps(monkeypatch):
    # radius 1 - 1e-8: the pair is stable, and the fixed point's steps would
    # shrink by about 1 - 1e-8 a sweep; GMRES certifies and solves it within
    # its Krylov space, as accurately as its condition allows
    radius = 1.0 - 1e-8
    pair = _single_mode_pair(radius)
    sylvester = _counting_lapack(monkeypatch, "dtrsyl")
    assert is_l2_stable(pair)
    assert len(sylvester) <= _krylov_sweeps(2)
    sylvester.clear()
    P = solve_lyapunov(pair, np.eye(2))
    assert len(sylvester) <= _krylov_sweeps(2)
    P_ref = _kronecker_solution(pair, np.eye(2))
    assert fro(P - P_ref) <= _conditioned_tol(radius) * fro(P_ref)


def test_a_refusal_makes_at_most_two_krylov_runs(monkeypatch):
    # radius 1.01: nothing certifies.  The run on the weight, then the run
    # on I from 0, each makes at most n(n+1)/2 + 1 sweeps, whatever the
    # weight is
    pair = _single_mode_pair(1.01)
    sylvester = _counting_lapack(monkeypatch, "dtrsyl")
    for Lam in (3.0 * np.eye(2), np.diag([1.0, 2.0]), np.array([[1.0, 2.0], [2.0, -1.0]])):
        sylvester.clear()
        with pytest.raises(LyapunovUnsolvableError, match="does not contract"):
            solve_lyapunov(pair, Lam)
        assert 0 < len(sylvester) <= 2 * _krylov_sweeps(2)
    sylvester.clear()
    assert not is_l2_stable(pair)
    assert 0 < len(sylvester) <= _krylov_sweeps(2)


def test_lyapunov_without_noise_matches_scipy(rng):
    # C = 0: P A + A'P = -Lambda is a standard Lyapunov equation.
    for n in range(1, 9):
        pair = random_stable_pair(rng, n)
        pair = SystemPair(pair.A, np.zeros((n, n)))
        Lam = rng.uniform(-1, 1, (n, n))
        Lam = (Lam + Lam.T) / 2
        P_ref = scipy.linalg.solve_continuous_lyapunov(pair.A.T, -Lam)
        assert fro(solve_lyapunov(pair, Lam) - P_ref) <= 1e-12 * fro(P_ref)


def test_lyapunov_singular_matrix_system():
    # A = -I/2, C = I: P A + A'P + C'P C = 0 for every P.
    with pytest.raises(LyapunovUnsolvableError):
        solve_lyapunov(SystemPair(-0.5 * np.eye(2), np.eye(2)), np.eye(2))


@pytest.mark.parametrize("bad", [
    (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0),    # finite escape: sig' = 2 sig + 1
    (0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 1.0),   # sig' = -1 until R + D'sig D = 1 + sig hits 0
])
def test_matrix_flow_status_matches_scalar_block(bad):
    # Block-diagonal data keep the flow block-diagonal, so the 2 x 2 flow
    # (matrix right-hand side) must end like the scalar flow of its bad block.
    good = (-1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    a, c, b, d, q, s, r = bad
    scalar = integrate_riccati_flow(ControlledSystem([[a]], [[c]], [[b]], [[d]]),
                                    CostWeights([[q]], [[s]], [[r]]), [[0.0]])
    diag = [np.diag(pair) for pair in zip(bad, good)]
    sys2 = ControlledSystem(diag[0], diag[1], diag[2], diag[3])
    w2 = CostWeights(diag[4], diag[5], diag[6])
    flow = integrate_riccati_flow(sys2, w2, np.zeros((2, 2)))
    assert scalar.status == "diverged"
    assert flow.status == scalar.status
    if d != 0.0:
        # the flow ended at the edge of R + D'Sig D > 0, not by growing
        Sig = flow.values[-1]
        assert np.linalg.eigvalsh(w2.R + sys2.D.T @ Sig @ sys2.D)[0] < 1e-3
        assert fro(Sig) < 10.0


def test_is_l2_stable_scalar_cases():
    assert is_l2_stable(scalar_pair(-1.0, 0.0))
    assert not is_l2_stable(scalar_pair(0.0, 1.0))
    # marginal 2A + C^2 = 0 classifies unstable
    assert not is_l2_stable(scalar_pair(-0.5, 1.0))


def test_is_l2_stable_matches_scalar_sign(rng):
    for _ in range(100):
        a, c = rng.uniform(-3, 3, 2)
        assert is_l2_stable(scalar_pair(a, c)) == (2 * a + c * c < 0)


def _second_moment_operator(pair):
    """Matrix of M -> A M + M A' + C M C' over the symmetric basis."""
    n = pair.n
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    T = np.empty((len(idx), len(idx)))
    rows = tuple(zip(*idx))
    for k, (i, j) in enumerate(idx):
        E = np.zeros((n, n))
        E[i, j] = E[j, i] = 1.0
        img = pair.A @ E + E @ pair.A.T + pair.C @ E @ pair.C.T
        T[:, k] = img[rows]
    return T


def test_is_l2_stable_matches_spectral_oracle(rng):
    # Independent criterion: the second-moment flow generator is Hurwitz.
    for _ in range(40):
        n = int(rng.integers(1, 5))
        A = rng.uniform(-1.2, 0.8, (n, n)) - rng.uniform(0.0, 1.0) * np.eye(n)
        C = rng.uniform(-0.8, 0.8, (n, n))
        pair = SystemPair(A, C)
        spectral = np.max(np.linalg.eigvals(_second_moment_operator(pair)).real) < 0
        assert is_l2_stable(pair) == spectral


def test_is_stabilizer_examples():
    sys1 = ControlledSystem([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    assert is_stabilizer(sys1, [[-1.0]])
    assert not is_stabilizer(sys1, [[0.0]])
    sys2 = ControlledSystem([[-1.0]], [[0.0]], [[0.0]], [[1.0]])
    assert is_stabilizer(sys2, [[1.0]])


def test_is_stabilizer_shape_error():
    sys1 = ControlledSystem([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    with pytest.raises(InvalidInputError):
        is_stabilizer(sys1, np.ones((2, 2)))


def test_system_validation():
    with pytest.raises(InvalidInputError):
        SystemPair(np.eye(2), np.eye(3))
    with pytest.raises(InvalidInputError):
        ControlledSystem(np.eye(2), np.eye(2), np.ones((2, 1)), np.ones((1, 1)))


def _value_solve_certifies(pair):
    try:
        solve_lyapunov(pair, np.eye(pair.n))
    except LyapunovUnsolvableError:
        return False
    return True


def _pair_at_noise_radius(rng, n, radius):
    """[A, C] with a Hurwitz drift whose noise map X -> Y, Y A + A'Y = -C'X C,
    has spectral radius ``radius``: the radius scales with the square of C."""
    A = rng.uniform(-1.0, 1.0, (n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.2, 1.0)) * np.eye(n)
    C = rng.uniform(-1.0, 1.0, (n, n))
    eye = np.eye(n)
    noise_map = -np.linalg.solve(np.kron(eye, A.T) + np.kron(A.T, eye), np.kron(C.T, C.T))
    rho = np.max(np.abs(np.linalg.eigvals(noise_map)))
    return SystemPair(A, C * np.sqrt(radius / rho))


def _near_marginal_drifts():
    # the 8 x 8 draws of test_near_marginal_pairs_are_decided_without_raising
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rng.uniform(-1.0, 1.0, (8, 8))
        A -= (np.max(np.linalg.eigvals(A).real) + rng.uniform(1e-16, 1e-14)) * np.eye(8)
        yield A


def test_certificate_alone_gives_the_verdict_of_the_value_solve(rng):
    # for n >= 2 is_l2_stable runs the Hurwitz test and the fixed point on I
    # only until an iterate meets Lyapunov's inequality, without settling a
    # value; the verdict must be that of a successful solve_lyapunov(pair, I)
    pairs = [random_stable_pair(rng, n) for n in range(2, 9) for _ in range(3)]
    for _ in range(40):                     # the spectral-oracle draws
        n = int(rng.integers(2, 5))
        A = rng.uniform(-1.2, 0.8, (n, n)) - rng.uniform(0.0, 1.0) * np.eye(n)
        pairs.append(SystemPair(A, rng.uniform(-0.8, 0.8, (n, n))))
    by_radius = {radius: [_pair_at_noise_radius(rng, n, radius) for n in (2, 3, 4, 6)
                          for _ in range(3)]
                 for radius in (0.5, 0.9, 1.1)}
    pairs += [pair for group in by_radius.values() for pair in group]
    pairs += [SystemPair(A, np.zeros((8, 8))) for A in _near_marginal_drifts()]
    verdicts = [is_l2_stable(pair) for pair in pairs]
    assert verdicts == [_value_solve_certifies(pair) for pair in pairs]
    assert all(is_l2_stable(pair) for pair in by_radius[0.5] + by_radius[0.9])
    assert not any(is_l2_stable(pair) for pair in by_radius[1.1])
    assert 0 < sum(verdicts) < len(verdicts)


def test_a_pair_certified_on_i_is_solved_for_every_positive_weight(rng):
    # near radius 1 the first sweep on Lambda = I + Theta'Theta may not meet
    # Lyapunov's inequality where that on I does; the solution, or else the
    # run on I, certifies the pair, so that the verdict does not depend on
    # Lambda
    certified = 0
    for radius in (0.99, 0.995):
        for n in (2, 3, 4, 6):
            for _ in range(4):
                pair = _pair_at_noise_radius(rng, n, radius)
                Theta = rng.standard_normal((n, n))
                if is_l2_stable(pair):
                    certified += 1
                    solve_lyapunov(pair, np.eye(n) + Theta.T @ Theta)
    assert certified == 32


def test_certificate_keeps_the_sylvester_test_of_a_noiseless_drift(monkeypatch):
    # with C = 0 the certificate still makes one Sylvester sweep, whose
    # solve refuses a drift within rounding of the imaginary axis
    refused = []
    for A in _near_marginal_drifts():
        pair = SystemPair(A, np.zeros((8, 8)))
        try:
            solve_lyapunov(pair, np.eye(8))
        except LyapunovUnsolvableError as exc:
            assert "near the imaginary axis" in str(exc)
            refused.append(pair)
    assert len(refused) == 1
    sylvester = _counting_lapack(monkeypatch, "dtrsyl")
    assert not is_l2_stable(refused[0])
    assert len(sylvester) == 1


def _drift(rng, n, lead):
    """A random n x n drift whose rightmost eigenvalue has real part ``lead``."""
    A = rng.uniform(-1.0, 1.0, (n, n))
    return A - (np.max(np.linalg.eigvals(A).real) - lead) * np.eye(n)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
def test_the_schur_form_from_lapack_is_scipys_to_the_bit(rng, n):
    A = _drift(rng, n, -0.1)
    Z, T, _ = slq.stability._schur_sweep(A)
    T_ref, Z_ref = scipy.linalg.schur(A, output="real", check_finite=False)
    assert np.array_equal(T, T_ref) and np.array_equal(Z, Z_ref)


def test_the_schur_form_from_lapack_still_refuses_a_drift_that_is_not_hurwitz(rng):
    for lead in (1e-9, 0.1):
        with pytest.raises(LyapunovUnsolvableError, match=slq.stability._NOT_HURWITZ):
            slq.stability._schur_sweep(_drift(rng, 4, lead))


def test_the_schur_workspace_is_queried_once_per_order(rng, monkeypatch):
    monkeypatch.setattr(slq.stability, "_GEES_LWORK", {})
    schur = _counting_lapack(monkeypatch, "dgees")
    for n in (2, 3, 2, 3, 3):
        slq.stability._schur_sweep(_drift(rng, n, -0.5))
    queries = [kwargs["lwork"] == -1 for kwargs in schur]
    assert sum(queries) == 2 and len(queries) == 7


def _positive_definite(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + 0.1 * np.eye(n)


def test_no_witness_certifies_a_pair_that_is_not_stable(rng):
    # X > 0 with X A + A'X + C'X C < 0 exists only for a stable pair, so no
    # witness may pass on one that is not: random, huge (1e300 overflows
    # the check), or the Lambda = I value of a nearby stable pair
    cases = []
    for radius in (1.01, 1.1):
        for n in (2, 3, 4, 6):
            for _ in range(3):
                pair = _pair_at_noise_radius(rng, n, radius)
                cases.append((pair, SystemPair(pair.A, pair.C * np.sqrt(0.98 / radius))))
    for lead in (1e-12, 0.01, 0.5):
        for n in (2, 3, 4, 6):
            A, C = _drift(rng, n, lead), 0.01 * rng.uniform(-1.0, 1.0, (n, n))
            stable = A - (2.0 * lead + 0.05) * np.eye(n)
            cases += [(SystemPair(A, C), SystemPair(stable, C)),
                      (SystemPair(A, 0.0 * C), SystemPair(stable, 0.0 * C))]
    for pair, near in cases:
        assert not is_l2_stable(pair)
        X = _positive_definite(rng, pair.n)
        for witness in (X, 1e150 * X, 1e300 * X, solve_lyapunov(near, np.eye(pair.n))):
            with np.errstate(over="ignore"):
                assert not is_l2_stable(pair, witness=witness)
    for n in (2, 3, 4, 6):
        # the drift -S, S Hurwitz, with Y S + S'Y = -I: X = -Y meets
        # X A + A'X = -I, and only X > 0 fails
        S, zero = _drift(rng, n, -0.2), np.zeros((n, n))
        Y = solve_lyapunov(SystemPair(S, zero), np.eye(n))
        assert not is_l2_stable(SystemPair(-S, zero), witness=-Y)


def test_a_witness_that_passes_makes_no_schur_form_and_no_sweep(rng, monkeypatch):
    pairs = [_pair_at_noise_radius(rng, n, 0.5) for n in (2, 3, 4, 6, 8)]
    pairs.append(SystemPair(_drift(rng, 5, -0.3), np.zeros((5, 5))))
    witnesses = [solve_lyapunov(pair, np.eye(pair.n)) for pair in pairs]
    schur = _counting_lapack(monkeypatch, "dgees")
    sylvester = _counting_lapack(monkeypatch, "dtrsyl")
    assert all(is_l2_stable(pair, witness=X) for pair, X in zip(pairs, witnesses))
    assert schur == [] and sylvester == []


def test_a_witness_that_fails_leaves_the_verdict_to_the_fixed_point(rng, monkeypatch):
    # an indefinite X, or an X > 0 stretched along v, where X A + A'X has
    # the eigenvalue v'A'v + ||A'v|| ||v|| 1e6 > 0, cannot pass; the pair is
    # then certified as without a witness
    schur = _counting_lapack(monkeypatch, "dgees")
    for n in (2, 3, 4, 6):
        pair = _pair_at_noise_radius(rng, n, 0.9)
        v = rng.standard_normal(n)
        stretched = np.eye(n) + 1e6 * np.outer(v, v) / (v @ v)
        indefinite = np.diag(np.r_[1.0, -np.ones(n - 1)])
        for witness in (stretched, indefinite):
            assert not slq.stability._witnessed(pair.A, pair.C, witness)
            schur.clear()
            assert is_l2_stable(pair, witness=witness)
            assert len([kwargs for kwargs in schur if kwargs["lwork"] != -1]) == 1
    with pytest.raises(InvalidInputError):
        is_l2_stable(pair, witness=np.eye(n + 1))


def test_a_scalar_witness_is_ignored(monkeypatch):
    cholesky = _counting_lapack(monkeypatch, "dpotrf")
    assert not is_l2_stable(scalar_pair(-0.5, 1.0), witness=[[1.0]])
    assert is_l2_stable(scalar_pair(-1.0, 0.0), witness=[[-1.0]])
    assert is_l2_stable(scalar_pair(-1.0, 0.5), witness=np.ones((2, 2)))
    assert not is_stabilizer(ControlledSystem([[0.0]], [[0.0]], [[1.0]], [[0.0]]), [[0.0]],
                             witness=[[1.0]])
    assert cholesky == []


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 16])
def test_slow_stable_pairs_are_solved_and_unstable_ones_refused(n, monkeypatch):
    # seeded pairs at noise-map radius up to 1 - 1e-4 are certified and
    # solved to the Kronecker solution, and those just past 1 refused, each
    # Lyapunov run within its Krylov space
    rng = np.random.default_rng([27, n])
    sylvester = _counting_lapack(monkeypatch, "dtrsyl")
    for radius in (0.99, 0.995, 0.999, 0.9999):
        for _ in range(5):
            pair = _pair_at_noise_radius(rng, n, radius)
            sylvester.clear()
            assert is_l2_stable(pair)
            P = solve_lyapunov(pair, np.eye(n))
            assert len(sylvester) <= 2 * _krylov_sweeps(n)
            P_ref = _kronecker_solution(pair, np.eye(n))
            assert fro(P - P_ref) <= _conditioned_tol(radius) * fro(P_ref)
    for radius in (1.0001, 1.01):
        for _ in range(5):
            pair = _pair_at_noise_radius(rng, n, radius)
            assert not is_l2_stable(pair)
            with pytest.raises(LyapunovUnsolvableError):
                solve_lyapunov(pair, np.eye(n))


def test_a_change_of_coordinates_moves_the_solution_and_keeps_the_verdict(rng):
    # with x = Tz, [A, C] becomes [T^-1 A T, T^-1 C T] and the weight
    # Lambda becomes T'Lambda T: the pair's stability does not move, and the
    # solution P becomes T'P T.  T is not orthogonal, cond(T) = 3
    from test_riccati import _coordinate_change     # test_riccati imports this module

    for radius in (0.999, 1.01):
        for n in (2, 3, 4, 6, 8):
            for _ in range(2):
                pair = _pair_at_noise_radius(rng, n, radius)
                Lam = _positive_definite(rng, n)
                T = _coordinate_change(rng, n)
                Ti = np.linalg.inv(T)
                moved = SystemPair(Ti @ pair.A @ T, Ti @ pair.C @ T)
                assert is_l2_stable(moved) == is_l2_stable(pair) == (radius < 1.0)
                if radius > 1.0:
                    for sys_, weight in ((pair, Lam), (moved, T.T @ Lam @ T)):
                        with pytest.raises(LyapunovUnsolvableError):
                            solve_lyapunov(sys_, weight)
                    continue
                P_ref = T.T @ solve_lyapunov(pair, Lam) @ T
                P = solve_lyapunov(moved, T.T @ Lam @ T)
                assert fro(P - P_ref) <= 9.0 * _conditioned_tol(radius) * fro(P_ref)
