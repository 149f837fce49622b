"""Value-iteration engine over the regression data.

The least-squares stage is affine in the iterate, so `_fit_stage` fits it
once per run and returns it as a `Stage`: the operator
vec(H + Q) = L vec(P) + c0, where H estimates A^T P + P A of the learner's
system and c0 = h0 + vec(Q), and the gain map vec(K) = L_K vec(P).  The
variant's row of `regression.VARIANTS` says which gain: on state x, K is
fitted with H; otherwise K = -R^{-1} B^T P is known, so K^T R K = P M P with
M = B R^{-1} B^T formed once, the update is one matrix-vector product and
two small products, and K itself is formed only for the final gain.  A
solved exogenous matrix E = S W stays unknown: I_aa is factored once, and
each iterate solves only for W on the complement of range(I_aa) and
subtracts E's term from vec(H); an identified one is that solve at P0,
folded into L.  Every least-squares fit is numpy's, and it fails with
RankConditionError under the one rank rule `regression.check_rank` applies.

All six variants then share one loop: a Robbins-Monro step
P~ = P + eps_k (H + Q - K^T R K), a reset to the initial iterate when
||P~||_2 escapes the current bound set, and a stop when ||P~ - P||_2 / eps_k
falls below the convergence threshold.  The iterates are symmetric up to the
rounding of the update, so both 2-norms are the largest |eigenvalue| of one
eigvalsh call on the pair (P~, P~ - P), which reads one triangle; the two
tests and the history row read those same two numbers.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .csvrows import write_rows
from .linalg import unvecs, vecs
from .regression import VARIANTS, RegressionData, check_rank


class RankConditionError(RuntimeError):
    """The data matrix lacks the full column rank the variant requires."""

    def __init__(self, message, rank, required):
        super().__init__(message)
        self.rank, self.required = rank, required


@dataclass
class ViConfig:
    """Loop parameters; the step sizes are restricted to eps_k = a/(k+b).

    That rational form satisfies the divergent-sum / square-summable
    conditions by construction, so arbitrary schedules are rejected at
    configuration time.  Bound-set radii grow as bound_scale*(j+bound_shift).
    """

    P0: np.ndarray
    eps_num: float
    eps_shift: float
    eps_conv: float
    max_iters: int
    R: np.ndarray
    Q: np.ndarray | None = None       # cost on the learner state
    Q_y: np.ndarray | None = None     # output cost on y
    Q_z: np.ndarray | None = None     # output cost on z (state rho)
    bound_scale: float = 1000.0
    bound_shift: float = 20.0
    # Known injection map S for the exogenous matrix, E = S @ W with W the
    # reduced unknown; required with an exogenous term.  The observer filters
    # and the internal model admit exogenous signals only through their input
    # columns, so S is available to the learner; solving the stage for W
    # instead of E is what keeps the identification error below the level the
    # ill-conditioned reduced iteration can tolerate.
    E_structure: np.ndarray | None = None

    def __post_init__(self):
        self.P0 = np.atleast_2d(np.asarray(self.P0, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        for name in ("Q", "Q_y", "Q_z", "E_structure"):
            val = getattr(self, name)
            if val is not None:
                setattr(self, name, np.atleast_2d(np.asarray(val, dtype=float)))
        # written as "not (x > 0)" so that NaN fails them too
        if not (self.eps_num > 0 and self.eps_shift > 0):
            raise ValueError("step schedule a/(k+b) needs a > 0 and b > 0")
        if not self.eps_conv > 0:
            raise ValueError("convergence threshold must be positive")
        if not (self.bound_scale > 0 and self.bound_shift > 0):
            raise ValueError("bound-set radii must be positive and increasing")
        if np.abs(self.P0 - self.P0.T).max() > 1e-12 * max(1.0, np.abs(self.P0).max()):
            raise ValueError("P0 must be symmetric")
        if not (np.abs(self.R - self.R.T).max() <= 1e-12 * max(1.0, np.abs(self.R).max())
                and np.linalg.eigvalsh(self.R).min() > 0):
            raise ValueError("R must be symmetric positive definite")

    def eps(self, k):
        return self.eps_num / (k + self.eps_shift)

    def bound_radius(self, j):
        return self.bound_scale * (j + self.bound_shift)


@dataclass
class ViResult:
    P_final: np.ndarray
    K_final: np.ndarray
    iters: int
    resets: int
    converged: bool
    history: np.ndarray               # rows (k, j, specnorm P_k, step metric)
    E_rho_identified: np.ndarray | None = None


def _lstsq(M, rhs):
    """Least-squares solution of M x = rhs for a vector or a matrix rhs.

    M must have full column rank under numpy's cutoff
    max(shape)*eps*sigma_max, the one check_rank applies.
    """
    x, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
    if rank < M.shape[1]:
        raise RankConditionError(
            "stage matrix is numerically rank deficient (rank %d < %d columns)"
            % (rank, M.shape[1]), rank, M.shape[1])
    return x


def _vec_maps(n):
    """D, U with vecs(P) = D vec(P) and vec(unvecs(v, n)) = U v.

    vec stacks the columns of a matrix; like vecs, D reads only the
    symmetric part of its argument.
    """
    basis = np.eye(n * n).reshape(n * n, n, n)
    D = np.column_stack([vecs(0.5 * (B + B.T)) for B in basis])
    U = np.column_stack([unvecs(e, n).reshape(-1, order="F")
                         for e in np.eye(n * (n + 1) // 2)])
    return D, U


@dataclass(frozen=True)
class Stage:
    """The least-squares stage of one (variant, data) pair, fitted once.

    vec(H + Q) = L vec(P) + c0 - exo(P, vec(P)), and vec(K) = L_K vec(P).
    Where K = -R^{-1} B^T P is known, K^T R K = P M P with M = B R^{-1} B^T;
    M is None where K is fitted with H (state x).  exo is the term of an
    exogenous matrix solved at every iterate, and None without one.
    """

    L: np.ndarray
    c0: np.ndarray
    L_K: np.ndarray
    R: np.ndarray
    M: np.ndarray | None = None
    exo: Callable | None = None

    def residual(self, P):
        """H + Q - K^T R K at the iterate P."""
        p = P.reshape(-1, order="F")
        v = self.L @ p + self.c0
        if self.exo is not None:
            v -= self.exo(P, p)
        D = v.reshape(P.shape, order="F")
        if self.M is None:
            K = self.gain(P)
            return D - K.T @ self.R @ K
        return D - P @ self.M @ P

    def gain(self, P):
        """K at the iterate P."""
        return (self.L_K @ P.reshape(-1, order="F")).reshape((-1, P.shape[0]), order="F")


def _fit_stage(variant, data: RegressionData, cfg: ViConfig):
    """Fit the least-squares stage of one (variant, data) pair once.

    Returns (Stage, E_identified); E_identified is the exogenous matrix of
    the identifying variants and None otherwise.
    """
    spec = VARIANTS[variant]
    # identifying E needs the rank condition of the variant that solves for it
    verdict = check_rank(data, 3 if spec.exo == "identify" else variant)
    if not verdict.satisfied:
        raise RankConditionError(
            "rank %d < required %d for variant %d"
            % (verdict.rank, verdict.required, variant), verdict.rank, verdict.required)
    n = data.dims["n_a"]
    half = n * (n + 1) // 2
    D, U = _vec_maps(n)
    G = data.delta_a @ D
    c = np.zeros(G.shape[0])
    if spec.output_cost:
        c = c + data.I_yy @ vecs(cfg.Q_y)
    if spec.output_cost and spec.state == "rho":
        c = c + data.I_zz @ vecs(cfg.Q_z)
    vec_Q = 0.0 if spec.output_cost else cfg.Q.reshape(-1, order="F")

    if spec.state == "x":
        theta = _lstsq(np.hstack([data.I_aa, -2.0 * data.I_au]), G)
        return Stage(U @ theta[:half], vec_Q, theta[half:], cfg.R), None
    # the gain K = -R^{-1} B^T P is known exactly: vec(K) = L_K vec(P)
    F = np.linalg.solve(cfg.R, data.known_B.T)
    L_K = -np.kron(np.eye(n), F)
    M = data.known_B @ F
    # check_rank has accepted I_aa; its complete QR gives the lift and Q_c
    Q, R_aa = np.linalg.qr(data.I_aa, mode="complete")
    lift = U @ np.linalg.solve(R_aa[:half], Q[:, :half].T)     # rhs -> vec(H)
    G = G - 2.0 * data.Gamma_aBu
    if spec.exo is None:
        return Stage(lift @ G, lift @ c + vec_Q, L_K, cfg.R, M), None
    # The E term of the rhs is 2 Gamma_av vec(E^T P) with E = S W.  Projected
    # onto Q_c, the complement of range(I_aa), it leaves r*q unknowns vec(W):
    # row (t, a) of Gq holds (Q_c^T Gamma_av)[t, (i, a)] over i.
    S = cfg.E_structure
    r, q = S.shape[1], data.dims["q"]
    Q_c = Q[:, half:]
    Gq = (Q_c.T @ data.Gamma_av).reshape(-1, n, q).transpose(0, 2, 1).reshape(-1, n)

    def solve_E(P, rhs_c):      # rhs_c: the rhs at P projected onto Q_c
        C = (Gq @ (P.T @ S)).reshape(Q_c.shape[1], q * r)
        return S @ _lstsq(2.0 * C, rhs_c).reshape((r, q), order="F")

    if spec.exo == "identify":
        E = solve_E(cfg.P0, Q_c.T @ (G @ cfg.P0.reshape(-1, order="F") + c))
        G = G - 2.0 * data.Gamma_av @ np.kron(np.eye(n), E.T)
        return Stage(lift @ G, lift @ c + vec_Q, L_K, cfg.R, M), E
    G_c, c_c, lift_av = Q_c.T @ G, Q_c.T @ c, 2.0 * lift @ data.Gamma_av

    def exo(P, p):
        E = solve_E(P, G_c @ p + c_c)
        return lift_av @ (E.T @ P).reshape(-1, order="F")
    return Stage(lift @ G, lift @ c + vec_Q, L_K, cfg.R, M, exo), None


def check_vi_inputs(variant, cfg: ViConfig):
    """Raise ValueError unless cfg holds what the variant needs."""
    spec = VARIANTS[variant]
    # the state-cost variants need P0 > 0, and so does an exogenous term:
    # its least-squares fit at P0 = 0 is singular
    if ((not spec.output_cost or spec.exo)
            and np.min(np.linalg.eigvalsh(cfg.P0)) <= 0):
        raise ValueError("variant %d requires a positive definite P0" % variant)
    needs = {"Q": not spec.output_cost, "Q_y": spec.output_cost,
             "Q_z": spec.output_cost and spec.state == "rho",
             "E_structure": spec.exo is not None}
    for name, needed in needs.items():
        if needed and getattr(cfg, name) is None:
            raise ValueError("variant %d needs %s" % (variant, name))


def _spec_norms(*mats):
    """The 2-norms of symmetric matrices: the largest |eigenvalue| of each."""
    return np.abs(np.linalg.eigvalsh(np.array(mats))).max(axis=-1).tolist()


def vi_run(variant, data: RegressionData, cfg: ViConfig) -> ViResult:
    """Run the value-iteration loop; non-convergence is reported, not raised."""
    check_vi_inputs(variant, cfg)
    stage, E_identified = _fit_stage(variant, data, cfg)
    norm_P0 = _spec_norms(cfg.P0)[0]
    P, norm_P = cfg.P0.copy(), norm_P0
    j = 0                               # bound-set index = resets so far
    history = np.empty((cfg.max_iters, 4))
    converged = False
    for k in range(cfg.max_iters):
        eps = cfg.eps(k)
        P_tilde = P + eps * stage.residual(P)
        norm_tilde, norm_step = _spec_norms(P_tilde, P_tilde - P)
        step = norm_step / eps
        history[k] = k, j, norm_P, step
        if norm_tilde > cfg.bound_radius(j):      # escape from the bound set
            P, norm_P = cfg.P0.copy(), norm_P0
            j += 1
        elif step < cfg.eps_conv:
            converged = True
            break
        else:
            P, norm_P = P_tilde, norm_tilde
    iters = k + 1 if converged else cfg.max_iters
    return ViResult(P_final=P, K_final=stage.gain(P), iters=iters, resets=j,
                    converged=converged, history=history[:iters],
                    E_rho_identified=E_identified)


def export_history_csv(result: ViResult, path):
    """Convergence history: k, j, ||P_k||, ||P~_{k+1}-P_k||/eps_k."""
    with open(path, "w") as fh:
        fh.write("k,j,normP,step_metric\n")
        write_rows(fh, result.history)
