"""Ground-truth computations the learner is forbidden to use.

The paper's four standing assumptions and the solvers' entry checks, each
one `rank_gap` of a PBH or Rosenbrock pencil at a set of eigenvalues; exact
Riccati and Sylvester solvers, observer pole placement, the state
parameterization matrix M, assembly of the augmented auxiliary system and
the state/output LQR equivalence check.
Tests certify every learned quantity against this layer; of the package
only `experiment` imports it.  Every function takes float ndarrays
(observer poles as a complex array) or the objects `experiment` builds.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import is_hurwitz, poly_from_roots, require_sym_psd

RANK_RTOL = 1e-8       # relative rank cutoff of every rank_gap
STABLE_EIG_TOL = 1e-9  # eigenvalues with Re >= -this count as unstable


class AssumptionError(ValueError):
    """A standing assumption (stabilizability, observability, ...) fails."""


class SpectraOverlapError(ValueError):
    """Sylvester system is singular because two spectra intersect."""


# ---------------------------------------------------------------------------
# Rank tests: the standing assumptions and the solvers' entry checks
# ---------------------------------------------------------------------------

def rank_gap(pencil, size, eigs):
    """(gap, eigenvalue): the largest size - rank pencil(lam) over eigs and the
    first lam that reaches it (eigs[0] if no rank is lost, None if eigs is empty)."""
    worst_gap, worst_eig = 0, None
    for lam in eigs:
        gap = size - np.linalg.matrix_rank(pencil(lam), rtol=RANK_RTOL)
        if gap > worst_gap or worst_eig is None:
            worst_gap, worst_eig = gap, complex(lam)
    return worst_gap, worst_eig


def pbh_gap(A, B, eigs):
    """rank_gap of the PBH pencil [A - lam I, B] at eigs.  (A, C) is observable
    and (Q, A) detectable as their duals (A^T, C^T) and (A^T, Q) are
    controllable and stabilizable."""
    n = A.shape[0]
    return rank_gap(lambda lam: np.hstack([A - lam * np.eye(n), B]), n, eigs)


def unstable_eigs(A, upper=np.inf):
    """The eigenvalues of A with -STABLE_EIG_TOL <= Re <= upper."""
    eigs = np.linalg.eigvals(A)
    return eigs[(eigs.real >= -STABLE_EIG_TOL) & (eigs.real <= upper)]


def _require_full_rank(gap_eig, failure):
    """Raise AssumptionError(failure) naming the eigenvalue unless the gap is 0."""
    gap, lam = gap_eig
    if gap:
        raise AssumptionError("%s; PBH fails at eigenvalue %s" % (failure, lam))


def standing_assumptions(plant, S):
    """Assumptions 1-4 of the plant and the exosystem matrix S, one row
    (name, ok, detail) each: (A, B) stabilizable, (A, C) observable, no
    decaying exosystem mode, no transmission zero at an exosystem mode (the
    (n+p) x (n+m) Rosenbrock pencil [A - lam I, B; C, 0] has rank n + p)."""
    A, B, C = plant.A, plant.B, plant.C
    (n, m), p, exo_eigs = B.shape, C.shape[0], np.linalg.eigvals(S)
    stab, obs = pbh_gap(A, B, unstable_eigs(A)), pbh_gap(A.T, C.T, np.linalg.eigvals(A))
    zeros = rank_gap(lambda lam: np.block([[A - lam * np.eye(n), B], [C, np.zeros((p, m))]]),
                     n + p, exo_eigs)
    margin = float(np.min(exo_eigs.real))
    return [("assumption1_stabilizable", stab[0] == 0, "worst eigenvalue %s" % stab[1]),
            ("assumption2_observable", obs[0] == 0, "worst eigenvalue %s" % obs[1]),
            ("assumption3_no_decaying_modes", margin >= -STABLE_EIG_TOL,
             "min Re eigenvalue %g" % margin),
            ("assumption4_transmission_zeros", zeros[0] == 0, "rank gap %d at %s" % zeros)]


# ---------------------------------------------------------------------------
# Linear matrix equations
# ---------------------------------------------------------------------------

def _kron_sylvester(S, A, E):
    """X with X S = A X + E: (S^T kron I_n - I_q kron A) vec X = vec E, one solve."""
    n, q = E.shape
    op = np.kron(S.T, np.eye(n)) - np.kron(np.eye(q), A)
    return np.linalg.solve(op, E.reshape(-1, order="F")).reshape((n, q), order="F")


def solve_sylvester_regulator(S, A, E):
    """Solve X S = A X + E as one Kronecker linear system on column-stacked X.

    Requires the spectra of S and A to be disjoint (pairwise eigenvalue gap
    above 1e-8); the residual is certified by back substitution.
    """
    n, q = A.shape[0], S.shape[0]
    if E.shape != (n, q):
        raise ValueError("E must be n x q")
    eig_a = np.linalg.eigvals(A)
    eig_s = np.linalg.eigvals(S)
    gaps = np.abs(eig_a[:, None] - eig_s[None, :])
    if gaps.min() <= 1e-8:
        raise SpectraOverlapError("spectra of A and S overlap at eigenvalue %s"
                                  % eig_s[np.argmin(gaps.min(axis=0))])
    X = _kron_sylvester(S, A, E)
    residual = np.linalg.norm(X @ S - A @ X - E, "fro")
    if residual > 1e-9 * (1.0 + np.linalg.norm(X, "fro")):
        raise RuntimeError("Sylvester back-substitution residual %g too large" % residual)
    return X


# ---------------------------------------------------------------------------
# Gains and Riccati equations
# ---------------------------------------------------------------------------

@dataclass
class RiccatiSolution:
    P: np.ndarray
    K: np.ndarray
    residual: float
    closed_loop_margin: float


def care_residual(A, B, Q, R, P):
    return A.T @ P + P @ A + Q - P @ B @ np.linalg.solve(R, B.T @ P)


def solve_care(A, B, Q, R):
    """Stabilizing solution of A^T P + P A + Q - P B R^-1 B^T P = 0.

    (A, B) must be stabilizable, checked first so that the failing eigenvalue
    is named.  P = sym(Re U2 U1^-1) from the n stable eigenvectors [U1; U2]
    of the Hamiltonian H = [[A, -B R^-1 B^T], [-Q, -A^T]]
    (none within sqrt(eps) (1 + ||H||_1) of the imaginary axis, or AssumptionError),
    and (Q, A) must pass the PBH detectability test, run on (A^T, Q), at the
    eigenvalues with -1e-9 <= Re <= eps^(1/n) (1 + ||A||_2): a defective axis
    eigenvalue of H can split past the axis tolerance, and one of A that
    rounding splits lands in that window; modes further right need no weight.
    Then at most two Kleinman steps, each kept only if it lowers the residual.
    Certified by the residual bound 1e-8 * (1 + ||P||) and a Hurwitz closed loop.
    """
    require_sym_psd(R, "R", definite=True)
    _require_full_rank(pbh_gap(A, B, unstable_eigs(A)), "(A, B) not stabilizable")
    n = A.shape[0]
    H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    lam, V = np.linalg.eig(H)
    stable = lam.real < -np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(H, 1))
    if np.count_nonzero(stable) != n:
        raise AssumptionError("no stabilizing CARE solution: the Hamiltonian has eigenvalue "
                              "%s on the imaginary axis" % lam[np.argmin(np.abs(lam.real))])
    window = np.finfo(float).eps ** (1.0 / n) * (1.0 + np.linalg.norm(A, 2))
    _require_full_rank(pbh_gap(A.T, Q, unstable_eigs(A.T, window)), "(Q, A) not detectable")
    X = np.linalg.solve(V[:n, stable].T, V[n:, stable].T).real     # (U2 U1^-1)^T
    P = 0.5 * (X + X.T)
    D = care_residual(A, B, Q, R, P)
    for _ in range(2):      # Newton in correction form: P + N is Kleinman's next iterate
        A_cl = A - B @ np.linalg.solve(R, B.T @ P)
        N = _kron_sylvester(A_cl, -A_cl.T, -D)          # A_cl^T N + N A_cl = -D
        P_new = P + 0.5 * (N + N.T)
        D_new = care_residual(A, B, Q, R, P_new)
        if not np.linalg.norm(D_new, "fro") < np.linalg.norm(D, "fro"):
            break
        P, D = P_new, D_new
    K = -np.linalg.solve(R, B.T @ P)
    res = float(np.linalg.norm(D, "fro"))
    if res > 1e-8 * (1.0 + np.linalg.norm(P, "fro")):
        raise RuntimeError("CARE residual %g exceeds the certificate" % res)
    ok, margin = is_hurwitz(A + B @ K)
    if not ok:
        raise RuntimeError("CARE closed loop not Hurwitz (margin %g)" % margin)
    return RiccatiSolution(P=P, K=K, residual=res, closed_loop_margin=margin)


def _horner(alpha, X):
    """([D_0, ..., D_{n-1}], Lambda(X)) for Lambda(s) = s^n + sum_i alpha_i s^i, by Horner:
    D_{n-1} = I, D_{i-1} = X D_i + alpha_i I, and Lambda(X) = X D_0 + alpha_0 I."""
    D = [np.eye(alpha.size)]
    for a in alpha[::-1]:               # D_{n-2}, ..., D_0, then Lambda(X)
        D.append(X @ D[-1] + a * np.eye(alpha.size))
    return D[-2::-1], D[-1]


def place_observer_gain(A, C, desired):
    """Observer gain L with eigenvalues of A - LC at the desired locations.

    One output: Ackermann's formula L = Lambda(A) O^-1 e_n, O = [C; CA; ...; CA^{n-1}],
    which allows repeated poles; more outputs: scipy's place_poles on (A^T, C^T).
    """
    n, p = A.shape[0], C.shape[0]
    if desired.size != n:
        raise ValueError("need exactly n = %d poles" % n)
    _require_full_rank(pbh_gap(A.T, C.T, np.linalg.eigvals(A)), "(A, C) not observable")
    alpha = poly_from_roots(desired)  # also validates conjugate pairing
    if p == 1:
        rows = [C]
        for _ in range(n - 1):
            rows.append(rows[-1] @ A)
        L = _horner(alpha, A)[1] @ np.linalg.solve(np.vstack(rows), np.eye(n)[:, [-1]])
    else:
        from scipy.signal import place_poles   # heavy import, multi-output only
        L = place_poles(A.T, C.T, desired).gain_matrix.T
    achieved = np.sort_complex(np.linalg.eigvals(A - L @ C))
    want = np.sort_complex(desired)
    if np.max(np.abs(achieved - want)) > 1e-6 * (1.0 + np.abs(want).max()):
        raise RuntimeError("pole placement missed the target spectrum")
    return L


# ---------------------------------------------------------------------------
# Parameterization and augmented auxiliary system
# ---------------------------------------------------------------------------

def compute_parameterization(plant, L, known):
    """M, built from D_0..D_{n-1}, maps the learner's filter-bank state to the
    Luenberger estimate of the observer gain L; its identities are verified.

    known.alpha must equal the characteristic polynomial of A - LC (this is
    what ties the user polynomial to the gain); mismatch is an error.
    """
    alpha = known.alpha
    n, m, p = plant.n, plant.m, plant.p
    F_obs = plant.A - L @ plant.C
    actual = poly_from_roots(np.linalg.eigvals(F_obs))
    if np.max(np.abs(actual - alpha)) > 1e-6 * (1.0 + np.abs(alpha).max()):
        raise ValueError("lambda coefficients do not match det(sI - A + LC): %s vs %s"
                         % (alpha, actual))
    D, closure = _horner(alpha, F_obs)     # (sI - F)^{-1} = (sum_i D_i s^i) / Lambda(s)
    scale = 1.0 + max(np.abs(Di).max() for Di in D)
    if np.abs(closure).max() > 1e-8 * scale:
        raise RuntimeError("adjugate recursion failed to close (residual %g)"
                           % np.abs(closure).max())
    cols = [plant.B[:, [i]] for i in range(m)] + [L[:, [i]] for i in range(p)]
    M = np.hstack([np.hstack([D[k] @ f for k in range(n)]) for f in cols])
    errs = parameterization_identity_errors(plant, known, L, M)
    if max(errs.values()) > 1e-8:
        raise RuntimeError("parameterization identities violated: %s" % errs)
    return M


def parameterization_identity_errors(plant, known, L, M):
    """Relative errors of M A_full = (A-LC) M, M B_zeta = B, M E_zeta = L."""
    F_obs = plant.A - L @ plant.C
    scale = 1.0 + np.abs(M).max()
    return {
        "dynamics": float(np.abs(M @ known.A_full - F_obs @ M).max()) / scale,
        "input": float(np.abs(M @ known.B_zeta - plant.B).max()) / scale,
        "gain": float(np.abs(M @ known.E_zeta - L).max()) / scale,
    }


@dataclass
class AugmentedAux:
    """Oracle-side objects of the observer gain L: the parameterization map M,
    the augmented auxiliary system in rho = col(zeta, z), the regulator
    solution X' and W = blockdiag(M, I), which maps rho to col(x_hat, z)."""

    L: np.ndarray
    M: np.ndarray
    A_rho: np.ndarray
    B_rho: np.ndarray
    W: np.ndarray
    E_rho: np.ndarray
    X_prime: np.ndarray


def build_augmented_aux(plant, L, M, known, im, exo):
    """Assemble (A_rho, B_rho, W, E_rho, X') and check stabilizability."""
    n_zeta, n_z = known.n_zeta, im.n_z
    CM = plant.C @ M
    A_zeta = known.A_full + known.E_zeta @ CM
    A_rho = np.block([[A_zeta, np.zeros((n_zeta, n_z))],
                      [im.G2 @ CM, im.G1]])
    B_rho = np.vstack([known.B_zeta, np.zeros((n_z, plant.m))])
    W = np.block([[M, np.zeros((plant.n, n_z))],
                  [np.zeros((n_z, n_zeta)), np.eye(n_z)]])
    X_prime = solve_sylvester_regulator(exo.S, plant.A - L @ plant.C, plant.E)
    CXp = plant.C @ X_prime
    E_rho = np.vstack([known.E_zeta @ CXp,
                       im.G2 @ (CXp + plant.F)])
    _require_full_rank(pbh_gap(A_rho, B_rho, unstable_eigs(A_rho)),
                       "(A_rho, B_rho) not stabilizable")
    return AugmentedAux(L=L, M=M, A_rho=A_rho, B_rho=B_rho, W=W, E_rho=E_rho,
                        X_prime=X_prime)


@dataclass
class Theorem4Report:
    P_xi: np.ndarray
    K_rho: np.ndarray
    deviation: float
    gain_deviation: float
    closed_loop_margin: float   # certified Hurwitz margin of Y + J K_xi


def verify_theorem4(plant, aux, im, Qbar, R):
    """Check P_rho = W^T P_xi W and K_rho = K_xi W between the LQR problems on
    rho (aux's A_rho, B_rho and W) and on xi = col(x, z), whose system is
    Y = [[A, 0], [G2 C, G1]], J = [B; 0].

    Qbar = blockdiag(Q_y, Q_z) weights the regulated output and the internal
    model state; the augmented weight is Q_xi = Cbar^T Qbar Cbar.
    """
    n, n_z = plant.n, im.n_z
    if Qbar.shape != (plant.p + n_z, plant.p + n_z):
        raise ValueError("Qbar must be (p+n_z) square")
    require_sym_psd(Qbar, "Qbar")
    Y = np.block([[plant.A, np.zeros((n, n_z))],
                  [im.G2 @ plant.C, im.G1]])
    J = np.vstack([plant.B, np.zeros((n_z, plant.m))])
    Cbar = np.block([[plant.C, np.zeros((plant.p, n_z))],
                     [np.zeros((n_z, n)), np.eye(n_z)]])
    Q_xi = Cbar.T @ Qbar @ Cbar
    sol_xi = solve_care(Y, J, Q_xi, R)
    sol_rho = solve_care(aux.A_rho, aux.B_rho, aux.W.T @ Q_xi @ aux.W, R)
    P_lift = aux.W.T @ sol_xi.P @ aux.W
    K_lift = sol_xi.K @ aux.W
    deviation = float(np.linalg.norm(sol_rho.P - P_lift, "fro")
                      / np.linalg.norm(sol_rho.P, "fro"))
    gain_deviation = float(np.linalg.norm(sol_rho.K - K_lift, "fro")
                           / np.linalg.norm(K_lift, "fro"))
    return Theorem4Report(P_xi=sol_xi.P, K_rho=sol_rho.K, deviation=deviation,
                          gain_deviation=gain_deviation,
                          closed_loop_margin=sol_xi.closed_loop_margin)
