import numpy as np
import pytest
import scipy.linalg
from scipy.signal import place_poles

from regvi.internal_model import Exosystem, InternalModel
from regvi.linalg import is_hurwitz, poly_from_roots
from regvi.observer import ObserverKnown
from regvi.oracle import (RANK_RTOL, AssumptionError, SpectraOverlapError,
                          build_augmented_aux, care_residual,
                          compute_parameterization,
                          parameterization_identity_errors, pbh_gap,
                          place_observer_gain, solve_care,
                          solve_sylvester_regulator, standing_assumptions,
                          unstable_eigs, verify_theorem4)
from regvi.sim import LtiPlant

A_PAPER = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
B_PAPER = np.array([[0.0], [1.0], [0.0]])
C_PAPER = np.array([[1.0, 2.0, 3.0]])


# ---------------------------------------------------------------------------
# Rank tests: PBH, its duals and the Rosenbrock pencil
# ---------------------------------------------------------------------------

OSCILLATOR = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _plant(A, B, C):
    A, C = np.asarray(A, dtype=float), np.asarray(C, dtype=float)
    return LtiPlant(A=A, B=B, C=C, E=np.zeros((len(A), 1)), F=np.zeros((len(C), 1)))


def test_pbh_paper_plant():
    assert pbh_gap(A_PAPER, B_PAPER, unstable_eigs(A_PAPER))[0] == 0
    assert pbh_gap(A_PAPER.T, C_PAPER.T, np.linalg.eigvals(A_PAPER))[0] == 0


def test_pbh_detects_unstabilizable():
    A = np.diag([1.0, -1.0])
    gap, lam = pbh_gap(A, np.array([[0.0], [1.0]]), unstable_eigs(A))
    assert gap == 1 and lam == pytest.approx(1.0)


def test_pbh_reports_no_eigenvalue_when_none_is_tested():
    assert pbh_gap(-np.eye(2), np.zeros((2, 1)), unstable_eigs(-np.eye(2))) == (0, None)


def test_transmission_zero_check():
    """Assumption 4 holds for the paper plant at the oscillator's modes +-j and
    fails where the Rosenbrock pencil loses rank at the exosystem mode s = 0."""
    assert standing_assumptions(_plant(A_PAPER, B_PAPER, C_PAPER), OSCILLATOR)[3][1]
    plant = _plant([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[0.0, 1.0]])
    assert standing_assumptions(plant, np.zeros((1, 1)))[3] == (
        "assumption4_transmission_zeros", False, "rank gap 1 at 0j")


def _planted(rng, n, k, width):
    """A random n x n A and n x width B, rotated by an orthogonal T, whose last
    k modes B does not reach: A = T [[A11, A12], [0, A22]] T^T, B = T [B1; 0]."""
    A = rng.standard_normal((n, n))
    A[n - k:, :n - k] = 0.0
    B = rng.standard_normal((n, width))
    B[n - k:] = 0.0
    T = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return T @ A @ T.T, T @ B


def _kalman_rank(A, B):
    return np.linalg.matrix_rank(np.hstack([np.linalg.matrix_power(A, j) @ B
                                            for j in range(A.shape[0])]))


def test_pbh_gap_is_zero_exactly_when_the_kalman_rank_is_full():
    """On seeded random systems with n <= 5, a third of them with one or two
    planted unreachable modes, the PBH gap is 0 at every eigenvalue of A iff
    the Kalman matrix has rank n: for (A, B), and for (A, C) through the dual
    pencil [A^T - lam I, C^T] that observability and detectability use."""
    rng = np.random.default_rng(7)
    seen = set()
    for trial in range(90):
        n = int(rng.integers(2, 6))
        k = min(int(rng.integers(1, 3)), n - 1) if trial % 3 == 0 else 0
        A, B = _planted(rng, n, k, int(rng.integers(1, 3)))
        A_obs, C_T = _planted(rng, n, k, int(rng.integers(1, 3)))
        A_obs, C = A_obs.T, C_T.T           # (A_obs, C) has the planted unobservable modes
        for pencil_gap, kalman in (
                (pbh_gap(A, B, np.linalg.eigvals(A))[0], _kalman_rank(A, B)),
                (pbh_gap(A_obs.T, C.T, np.linalg.eigvals(A_obs))[0],
                 _kalman_rank(A_obs.T, C.T))):
            assert (pencil_gap == 0) == (kalman == n)
            seen.add(kalman == n)
    assert seen == {True, False}


def test_assumption4_fails_whenever_outputs_outnumber_inputs():
    """The Rosenbrock pencil is (n+p) x (n+m), so with p > m its rank stays
    below the n + p Assumption 4 requires: the gap is at least p - m."""
    rng = np.random.default_rng(8)
    for _ in range(30):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        p = m + int(rng.integers(1, 3))
        plant = _plant(rng.standard_normal((n, n)), rng.standard_normal((n, m)),
                       rng.standard_normal((p, n)))
        name, ok, detail = standing_assumptions(plant, OSCILLATOR)[3]
        assert not ok and int(detail.split()[2]) >= p - m


def test_failing_assumption_rows_name_their_eigenvalue():
    """The rows of Assumptions 1, 2 and 4 that fail name the eigenvalue or the
    exosystem mode where the rank is lost."""
    rows = standing_assumptions(_plant(np.diag([1.0, -1.0]), [[0.0], [1.0]], [[1.0, 1.0]]),
                                OSCILLATOR)
    assert rows[0] == ("assumption1_stabilizable", False, "worst eigenvalue (1+0j)")
    rows = standing_assumptions(_plant(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 0.0]]),
                                OSCILLATOR)
    assert rows[1] == ("assumption2_observable", False, "worst eigenvalue (-2+0j)")
    rows = standing_assumptions(_plant(np.diag([-1.0, -2.0]), [[1.0], [0.0]], np.eye(2)),
                                OSCILLATOR)
    assert rows[3] == ("assumption4_transmission_zeros", False, "rank gap 1 at 1j")


# ---------------------------------------------------------------------------
# Linear matrix equations
# ---------------------------------------------------------------------------

def _random_regulator_sylvester(rng):
    """An exosystem-like S with modes on the imaginary axis, a Hurwitz A and an E."""
    n, q = rng.integers(2, 11), 2 * rng.integers(1, 3)
    S = np.kron(np.diag(rng.uniform(0.5, 3.0, q // 2)), [[0.0, 1.0], [-1.0, 0.0]])
    A = rng.standard_normal((n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.1, 2.0)) * np.eye(n)
    return S, A, rng.standard_normal((n, q))


def test_sylvester_regulator_random_instance(nonzero_setup):
    """The paper's instance and random ones agree with scipy's Bartels-Stewart."""
    rng = np.random.default_rng(1)
    plant, L = nonzero_setup["objs"].plant, nonzero_setup["L"]
    paper = (nonzero_setup["objs"].exo.S, plant.A - L @ plant.C, plant.E)
    for S, A, E in [paper] + [_random_regulator_sylvester(rng) for _ in range(20)]:
        X = solve_sylvester_regulator(S, A, E)
        res = np.linalg.norm(X @ S - A @ X - E, "fro")
        assert res <= 1e-9 * (1.0 + np.linalg.norm(X, "fro"))
        X_ref = scipy.linalg.solve_sylvester(-A, S, E)
        assert np.linalg.norm(X - X_ref, "fro") <= 1e-10 * np.linalg.norm(X_ref, "fro")


def test_sylvester_regulator_rejects_spectra_overlap():
    with pytest.raises(SpectraOverlapError):
        solve_sylvester_regulator(np.zeros((1, 1)), np.diag([0.0, -1.0]),
                                  np.ones((2, 1)))


def test_sylvester_zero_rhs_gives_zero(zero_setup):
    # no disturbance input => the steady-state correction vanishes
    assert np.linalg.norm(zero_setup["aux"].X_prime) == 0.0


# ---------------------------------------------------------------------------
# Riccati machinery
# ---------------------------------------------------------------------------

def test_solve_care_matches_scipy():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4))
    A = A - (np.max(np.linalg.eigvals(A).real) + 0.2) * np.eye(4)
    B = rng.standard_normal((4, 2))
    Q = np.eye(4)
    R = np.eye(2)
    sol = solve_care(A, B, Q, R)
    P_ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
    assert np.linalg.norm(sol.P - P_ref, "fro") <= 1e-8 * (1 + np.linalg.norm(P_ref, "fro"))
    assert sol.residual <= 1e-8 * (1 + np.linalg.norm(sol.P, "fro"))
    assert sol.closed_loop_margin < 0.0


def _theorem4_cares(setup):
    """The (Y, J, Q_xi) and (A_rho, B_rho, Q_rho) pairs verify_theorem4 solves, Qbar = I."""
    plant, im, aux = setup["objs"].plant, setup["objs"].im, setup["aux"]
    Y = np.block([[plant.A, np.zeros((plant.n, im.n_z))], [im.G2 @ plant.C, im.G1]])
    J = np.vstack([plant.B, np.zeros((im.n_z, plant.m))])
    Cbar = np.block([[plant.C, np.zeros((plant.p, im.n_z))],
                     [np.zeros((im.n_z, plant.n)), np.eye(im.n_z)]])
    Q_xi = Cbar.T @ Cbar
    return [(Y, J, Q_xi), (aux.A_rho, aux.B_rho, aux.W.T @ Q_xi @ aux.W)]


def test_solve_care_matches_scipy_on_the_presets(zero_setup, nonzero_setup):
    """Every CARE the oracle solves for the presets -- the state-cost A_rho pair
    of paper-e-nonzero and both theorem-4 pairs of each preset -- agrees with
    scipy's to 1e-10 relative."""
    aux, vicfg = nonzero_setup["aux"], nonzero_setup["vicfg"]
    cares = [(aux.A_rho, aux.B_rho, vicfg.Q)]
    cares += _theorem4_cares(zero_setup) + _theorem4_cares(nonzero_setup)
    for A, B, Q in cares:
        R = vicfg.R
        P = solve_care(A, B, Q, R).P
        P_ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
        assert np.linalg.norm(P - P_ref, "fro") <= 1e-10 * np.linalg.norm(P_ref, "fro")


def _ill_conditioned_care(rng):
    """A random CARE whose Q spans twelve decades and whose R may be small,
    so that cond P passes 1e9."""
    n, m = rng.integers(3, 11), rng.integers(1, 3)
    T = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = T @ np.diag(rng.uniform(-1.0, 1.0, n)) @ T.T + 0.3 * rng.standard_normal((n, n))
    Q = T @ np.diag(10.0 ** rng.uniform(-8.0, 4.0, n)) @ T.T
    return A, rng.standard_normal((n, m)), 0.5 * (Q + Q.T), 10.0 ** rng.uniform(-4.0, 0.0) * np.eye(m)


def test_solve_care_residual_against_scipy_when_ill_conditioned():
    """Wherever scipy's solution passes the certificate, solve_care's passes it
    too.  Its residual is lower than scipy's on most instances and at most 4x
    higher on any: where both reach the attainable accuracy of a badly
    conditioned P, the two land on different rounding."""
    rng = np.random.default_rng(5)
    ratios, conds = [], []
    for _ in range(60):
        A, B, Q, R = _ill_conditioned_care(rng)
        P_ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
        res_ref = np.linalg.norm(care_residual(A, B, Q, R, P_ref), "fro")
        if res_ref > 1e-8 * (1.0 + np.linalg.norm(P_ref, "fro")):
            continue                    # scipy's solution fails the certificate
        sol = solve_care(A, B, Q, R)
        ratios.append(sol.residual / res_ref)
        conds.append(np.linalg.cond(sol.P))
    assert len(ratios) >= 55 and max(conds) >= 1e9
    assert max(ratios) <= 4.0 and np.median(ratios) <= 0.5


def test_solve_care_rejects_a_pair_with_no_stabilizing_solution():
    """With Q = 0 the undamped modes +-j of A cost nothing, so the Hamiltonian
    keeps them on the imaginary axis and no stabilizing solution exists.  So
    does a rotated double integrator's double zero, which rounding splits
    into eigenvalues about 1e-9 off the axis, on both sides."""
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(AssumptionError, match="imaginary axis"):
        solve_care(A, np.array([[0.0], [1.0]]), np.zeros((2, 2)), np.eye(1))
    rng = np.random.default_rng(6)
    for _ in range(20):
        T = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        with pytest.raises(AssumptionError, match="imaginary axis"):
            solve_care(T @ np.array([[0.0, 1.0], [0.0, 0.0]]) @ T.T, T @ np.array([[0.0], [1.0]]),
                       np.zeros((2, 2)), np.eye(1))


def test_solve_care_requires_a_detectable_pair():
    """A rotated triple integrator weighted by Q = e3 e3^T leaves its zero mode
    unobserved, so no stabilizing solution exists; rounding can split the
    Hamiltonian's defective zero eigenvalue past the axis tolerance, where only
    the detectability test rejects the pair.  Weighting e1 detects every mode,
    and each of those CAREs solves."""
    A0, e1, e3 = np.diag([1.0, 1.0], 1), np.eye(3)[:, [0]], np.eye(3)[:, [2]]
    rng = np.random.default_rng(0)
    undetectable = 0
    for _ in range(200):
        T = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        A, B = T.T @ A0 @ T, T.T @ e3
        with pytest.raises(AssumptionError, match="imaginary axis|not detectable") as exc:
            solve_care(A, B, T.T @ e3 @ e3.T @ T, np.eye(1))
        undetectable += str(exc.value).startswith(
            "(Q, A) not detectable; PBH fails at eigenvalue ")
        assert solve_care(A, B, T.T @ e1 @ e1.T @ T, np.eye(1)).closed_loop_margin < 0.0
    assert undetectable > 0


def test_solve_care_accepts_an_unweighted_mode_off_the_axis():
    """Detectability is sufficient, not necessary: a mode Q does not weigh
    needs only to lie off the imaginary axis.  A = B = 1, Q = 0 has the
    stabilizing solution P = 2 with closed loop -1, and an unweighted unstable
    mode beside a weighted stable one solves as scipy's does."""
    sol = solve_care(np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1))
    assert sol.P[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert sol.closed_loop_margin == pytest.approx(-1.0, rel=1e-12)
    A, B, Q = np.diag([1.0, -2.0]), np.ones((2, 1)), np.diag([0.0, 1.0])
    sol = solve_care(A, B, Q, np.eye(1))
    P_ref = scipy.linalg.solve_continuous_are(A, B, Q, np.eye(1))
    assert np.linalg.norm(sol.P - P_ref, "fro") <= 1e-10 * np.linalg.norm(P_ref, "fro")
    assert sol.closed_loop_margin < 0.0


def test_solve_care_second_order_optimality():
    rng = np.random.default_rng(3)
    A = np.array([[0.0, 1.0], [-1.0, 1.0]])  # unstable, controllable
    B = np.array([[0.0], [1.0]])
    Q, R = np.eye(2), np.eye(1)
    sol = solve_care(A, B, Q, R)
    base = np.linalg.norm(care_residual(A, B, Q, R, sol.P), "fro")
    for _ in range(5):
        D = rng.standard_normal((2, 2))
        D = D + D.T
        D *= 1e-4 / np.linalg.norm(D, "fro")
        perturbed = np.linalg.norm(care_residual(A, B, Q, R, sol.P + D), "fro")
        assert perturbed > base


def test_solve_care_rejects_bad_r():
    with pytest.raises(ValueError):
        solve_care(np.eye(2), np.ones((2, 1)), np.eye(2), -np.eye(1))


def test_solve_care_stabilizes():
    # unstable but controllable -> Hurwitz closed loop
    A = np.array([[0.0, 1.0], [2.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    assert is_hurwitz(A + B @ solve_care(A, B, np.eye(2), np.eye(1)).K)[0]
    # marginally stable unreachable paper plant still stabilizable
    K = solve_care(A_PAPER, B_PAPER, np.eye(3), np.eye(1)).K
    assert is_hurwitz(A_PAPER + B_PAPER @ K)[0]
    with pytest.raises(AssumptionError) as exc:
        solve_care(np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1))
    assert str(exc.value) == "(A, B) not stabilizable; PBH fails at eigenvalue (1+0j)"


# ---------------------------------------------------------------------------
# Observer gain and parameterization
# ---------------------------------------------------------------------------

def test_place_observer_gain_paper_values():
    L = place_observer_gain(A_PAPER, C_PAPER, np.array([-5.0, -6.0, -7.0]))
    assert np.allclose(L.ravel(), [-523.0, 210.0, 40.0], atol=1e-8)
    eigs = np.linalg.eigvals(A_PAPER - L @ C_PAPER)
    assert np.allclose(np.sort(eigs.real), [-7.0, -6.0, -5.0], atol=1e-8)


def test_place_observer_gain_repeated_poles():
    L = place_observer_gain(A_PAPER, C_PAPER, np.array([-2.0, -2.0, -3.0]))
    eigs = np.sort(np.linalg.eigvals(A_PAPER - L @ C_PAPER).real)
    assert np.allclose(eigs, [-3.0, -2.0, -2.0], atol=1e-6)


def test_place_observer_gain_two_outputs():
    A = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [0.3, 0.0, -1.5]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    L = place_observer_gain(A, C, np.array([-4.0, -5.0, -6.0]))
    assert L.shape == (3, 2)
    eigs = np.sort_complex(np.linalg.eigvals(A - L @ C))
    assert np.max(np.abs(eigs - [-6.0, -5.0, -4.0])) <= 1e-6


def _dual_pair_ackermann(A, C, desired):
    """The reference gain: Ackermann's formula on the dual pair (A^T, C^T),
    L^T = e_n^T ctrb(A^T, C^T)^-1 phi(A^T), with phi summed over matrix powers."""
    n = A.shape[0]
    blocks = [C.T]
    for _ in range(n - 1):
        blocks.append(A.T @ blocks[-1])
    ctrb = np.hstack(blocks)
    phi, power = np.linalg.matrix_power(A.T, n), np.eye(n)
    for a in poly_from_roots(desired):
        phi, power = phi + a * power, power @ A.T
    return (np.linalg.solve(ctrb.T, np.eye(n)[:, -1]) @ phi).reshape(n, 1)


def _places(A, C, L, desired):
    """place_observer_gain's certificate: the spectrum of A - LC within 1e-6."""
    achieved = np.sort_complex(np.linalg.eigvals(A - L @ C))
    want = np.sort_complex(desired)
    return np.max(np.abs(achieved - want)) <= 1e-6 * (1.0 + np.abs(want).max())


def test_place_observer_gain_matches_the_dual_pair_ackermann_and_scipy():
    """On 300 seeded random single-output plants (n = 2-6, real poles in
    [-8, -1]) where both gains certify, Ackermann on (A, C) agrees with the
    dual-pair formula to 1e-12 and with scipy's place_poles to 1e-6, relative."""
    rng = np.random.default_rng(35)
    compared = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        A, C = rng.standard_normal((n, n)), rng.standard_normal((1, n))
        poles = rng.uniform(-8.0, -1.0, n)
        reference = _dual_pair_ackermann(A, C, poles)
        try:
            L = place_observer_gain(A, C, poles)
        except RuntimeError:    # achieved eigenvalues this sensitive miss the certificate
            continue
        if not _places(A, C, reference, poles):
            continue
        compared += 1
        scipy_gain = place_poles(A.T, C.T, poles).gain_matrix.T
        assert np.linalg.norm(L - reference) <= 1e-12 * np.linalg.norm(reference)
        assert np.linalg.norm(L - scipy_gain) <= 1e-6 * np.linalg.norm(scipy_gain)
    assert compared >= 270


def test_place_observer_gain_validates():
    with pytest.raises(ValueError):
        place_observer_gain(A_PAPER, C_PAPER, np.array([-5.0, -6.0]))
    with pytest.raises(AssumptionError) as exc:
        place_observer_gain(np.diag([-1.0, -2.0]), np.array([[1.0, 0.0]]),
                            np.array([-3.0, -4.0]))
    assert str(exc.value) == "(A, C) not observable; PBH fails at eigenvalue (-2+0j)"


def test_parameterization_identities(nonzero_setup):
    objs, aux = nonzero_setup["objs"], nonzero_setup["aux"]
    errs = parameterization_identity_errors(objs.plant, objs.known, aux.L, aux.M)
    assert max(errs.values()) <= 1e-8


def test_parameterization_rejects_wrong_polynomial(nonzero_setup):
    plant = nonzero_setup["objs"].plant
    with pytest.raises(ValueError, match="do not match"):
        compute_parameterization(plant, nonzero_setup["L"], ObserverKnown([1.0, 1.0, 1.0], 1, 1))


# ---------------------------------------------------------------------------
# Augmented systems and the state/output LQR equivalence
# ---------------------------------------------------------------------------

def test_augmented_aux_shapes_and_lift(nonzero_setup):
    """A_rho and B_rho act on rho = col(zeta, z); W = blockdiag(M, I) maps rho
    to col(x_hat, z) and carries the M that A_rho's output injection uses."""
    aux, objs = nonzero_setup["aux"], nonzero_setup["objs"]
    plant, im = objs.plant, objs.im
    assert aux.A_rho.shape == (8, 8) and aux.B_rho.shape == (8, 1) and aux.W.shape == (5, 8)
    assert np.array_equal(aux.W[:3, :6], aux.M) and np.array_equal(aux.W[3:, 6:], np.eye(2))
    assert not aux.W[:3, 6:].any() and not aux.W[3:, :6].any()
    assert np.array_equal(aux.A_rho[6:, :6], im.G2 @ plant.C @ aux.M)
    assert np.array_equal(aux.A_rho[6:, 6:], im.G1) and not aux.A_rho[:6, 6:].any()


def test_augmented_aux_requires_a_stabilizable_pair():
    """A plant with transmission zeros at the oscillator's modes +-j leaves the
    internal model's modes unreachable from u, so (A_rho, B_rho) is not
    stabilizable and the failing eigenvalue is named."""
    A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -2.0]])
    plant = LtiPlant(A=A, B=[[0.0], [0.0], [1.0]], C=[[1.0, 0.0, 1.0]],
                     E=np.zeros((3, 2)), F=np.zeros((1, 2)))
    poles = np.array([-5.0, -6.0, -7.0])
    known = ObserverKnown.from_poles(poles, 1, 1)
    L = place_observer_gain(plant.A, plant.C, poles)
    M = compute_parameterization(plant, L, known)
    with pytest.raises(AssumptionError) as exc:
        build_augmented_aux(plant, L, M, known, InternalModel([1.0, 0.0], 1),
                            Exosystem(OSCILLATOR, [1.0, 0.0]))
    failure, lam = str(exc.value).split(" at eigenvalue ")
    assert failure == "(A_rho, B_rho) not stabilizable; PBH fails"
    assert complex(lam) == pytest.approx(1j)


@pytest.mark.parametrize("setup", ["zero_setup", "nonzero_setup"])
def test_one_mode_of_the_augmented_system_is_unreachable(setup, request):
    """d = n_rho - rank ctrb(A_rho, B_rho) = 1 on both presets, and the PBH
    test puts that mode at the plant's uncontrollable eigenvalue -1 (x_3): the
    learner's data reach it only through its decaying transient."""
    aux = request.getfixturevalue(setup)["aux"]
    A, B = aux.A_rho, aux.B_rho
    n = A.shape[0]
    ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
    assert n - np.linalg.matrix_rank(ctrb) == 1
    eigs = np.linalg.eigvals(A)
    gaps = np.array([n - np.linalg.matrix_rank(np.hstack([A - lam * np.eye(n), B]),
                                               rtol=RANK_RTOL) for lam in eigs])
    assert gaps.sum() == 1 and eigs[gaps == 1] == pytest.approx([-1.0])


def test_optimal_gain_stabilizes_auxiliary_system(nonzero_setup):
    aux, sol = nonzero_setup["aux"], nonzero_setup["sol"]
    ok, margin = is_hurwitz(aux.A_rho + aux.B_rho @ sol.K)
    assert ok and margin < 0.0


def test_augmented_aux_exogenous_structure(nonzero_setup):
    """E_rho lives in the span of the known injection columns."""
    aux = nonzero_setup["aux"]
    objs = nonzero_setup["objs"]
    n_zeta = objs.known.n_zeta
    S = np.zeros((aux.A_rho.shape[0], 2 * objs.plant.p))
    S[:n_zeta, :objs.plant.p] = objs.known.E_zeta
    S[n_zeta:, objs.plant.p:] = objs.im.G2
    W, *_ = np.linalg.lstsq(S, aux.E_rho, rcond=None)
    assert np.linalg.norm(S @ W - aux.E_rho) <= 1e-10 * np.linalg.norm(aux.E_rho)


def test_verify_theorem4_validates_qbar(nonzero_setup):
    objs, aux = nonzero_setup["objs"], nonzero_setup["aux"]
    with pytest.raises(ValueError):
        verify_theorem4(objs.plant, aux, objs.im, np.zeros((3, 3)), np.eye(1))
    with pytest.raises(ValueError):
        verify_theorem4(objs.plant, aux, objs.im, np.eye(4), np.eye(1))
    with pytest.raises(ValueError, match="Qbar must be symmetric positive semidefinite"):
        verify_theorem4(objs.plant, aux, objs.im, -np.eye(3), np.eye(1))


def test_verify_theorem4_accepts_a_semidefinite_qbar(zero_setup):
    """q_y = 0 leaves Qbar singular; the z weight alone still detects every
    mode, so both CAREs have stabilizing solutions and the identity holds."""
    objs, aux = zero_setup["objs"], zero_setup["aux"]
    Qbar = np.diag([0.0] + [1.0] * objs.im.n_z)
    t4 = verify_theorem4(objs.plant, aux, objs.im, Qbar, np.eye(1))
    assert t4.deviation <= 1e-10 and t4.gain_deviation <= 1e-10
