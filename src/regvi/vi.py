"""Value-iteration engine over the regression data.

The value matrix P is symmetric, so the engine works on its n(n+1)/2
upper-triangle entries p.  The least-squares stage is affine in the iterate,
so `_fit_stage` fits it once per run as a `Stage`: the upper triangle of
H + Q is L p + c0, where H estimates A^T P + P A of the learner's system, and
the gain is a map of P.  The variant's row of `regression.VARIANTS` says which
gain: on state x, K is fitted with H; otherwise K = -R^{-1} B^T P is known,
so K^T R K = P M P with M = B R^{-1} B^T formed once.  The fit is the R
factor of one Householder QR of the unknowns' columns beside the rhs's, which
carries Q^T of the rhs (Golub & Van Loan, Matrix Computations, 5.3): no Q is
formed, and H (with K on state x) is one triangular solve.  A solved
exogenous matrix enters as Algorithm 3 fits it, through the unknowns
vec(E^T P), affine in P like vecs(H): the same solve gives both, and the
stage keeps H's rows.  An identified E = S W is solved once, at P0: the next
n*q rows of R reduce the E term's columns to a basis of their range, which
leaves an (n*q) x (q*r) least-squares system for W, with the output cost (no
E in it) left out of the rhs, and E is folded into L.  `_lstsq` (numpy's
`lstsq`, `check_rank`'s cutoff) serves only that system.

All six variants then share one loop: a Robbins-Monro step
P~ = P + eps_k (H + Q - K^T R K), a reset to the initial iterate when
||P~||_2 escapes the current bound set, and a stop when ||P~ - P||_2 / eps_k
falls below the convergence threshold.  The iterates are symmetric up to the
rounding of the update, so both 2-norms are the largest |eigenvalue| of the
pair (P~, P~ - P) under eigvalsh, which reads one triangle; the two tests and
the history row read those same two numbers.  The loop runs in speculative
blocks of SPEC_ROWS iterates: it steps as if every iterate is accepted, until
||P||_2 at the block start plus the steps' Frobenius norms may exceed the
bound radius, so no iterate that may have escaped is stepped from, or
until a step's Frobenius norm, which bounds its 2-norm, makes a stop
certain; one eigvalsh call on the block's pairs gives every norm, eigenvalue
for eigenvalue those of a call on one pair; the first escape or stop in loop
order is applied, and the rows after it are discarded.  The history is the
list of each block's accepted rows, joined once at the end, so max_iters
bounds the loop and not an allocation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import require_sym_psd, vecs
from .regression import VARIANTS, RegressionData, _rank_blocks, check_rank


class RankConditionError(RuntimeError):
    """The data matrix lacks the full column rank the variant requires.

    quality is the failing `RankVerdict.quality`, None where no verdict was taken.
    """

    def __init__(self, message, rank, required, quality=None):
        super().__init__(message)
        self.rank, self.required, self.quality = rank, required, quality


def require_rank(verdict):
    """Raise RankConditionError unless the `RankVerdict` is satisfied."""
    if not verdict.satisfied:
        raise RankConditionError("rank %d < required %d" % (verdict.rank, verdict.required),
                                 verdict.rank, verdict.required, verdict.quality)


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
    # reduced unknown; required where E is identified (variants 4 and 6).  The
    # observer filters and the internal model admit exogenous signals only
    # through their input columns, so S is available to the learner;
    # identifying W instead of E is what keeps the identification error below
    # the level the ill-conditioned reduced iteration can tolerate.
    E_structure: np.ndarray | None = None

    def __post_init__(self):
        for name in ("P0", "R", "Q", "Q_y", "Q_z", "E_structure"):
            val = getattr(self, name)
            if val is not None:
                setattr(self, name, np.atleast_2d(np.asarray(val, dtype=float)))
        # written as "not (x > 0)" so that NaN fails them too
        if not (self.eps_num > 0 and self.eps_shift > 0):
            raise ValueError("step schedule a/(k+b) needs a > 0 and b > 0")
        if not self.eps_conv > 0:
            raise ValueError("convergence threshold must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.bound_scale > 0 and self.bound_shift > 0):
            raise ValueError("bound-set radii must be positive and increasing")
        if np.abs(self.P0 - self.P0.T).max() > 1e-12 * max(1.0, np.abs(self.P0).max()):
            raise ValueError("P0 must be symmetric")
        for name in ("R", "Q", "Q_y", "Q_z"):   # R definite, the costs semidefinite
            if getattr(self, name) is not None:
                require_sym_psd(getattr(self, name), name, definite=name == "R")

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
    max(shape)*eps*sigma_max, the one check_rank applies.  It solves the
    (n*q)-row system of the identified E only.
    """
    x, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
    if rank < M.shape[1]:
        raise RankConditionError(
            "stage matrix is numerically rank deficient (rank %d < %d columns)"
            % (rank, M.shape[1]), rank, M.shape[1])
    return x


def _vec_maps(n):
    """D, up, sym for a symmetric n x n matrix P and its upper triangle p.

    p = P.take(up) in vecs order, P = p.take(sym), vecs(P) = D vec(P) and
    vec(P) = D^T p, so X D^T folds the columns (i, j), (j, i) of a map X of vec(P).
    """
    i, j = np.triu_indices(n)
    sym = np.zeros((n, n), dtype=np.intp)
    sym[i, j] = sym[j, i] = np.arange(i.size)
    return np.equal.outer(np.arange(i.size), sym.ravel()).astype(float), i * n + j, sym


@dataclass(frozen=True)
class Stage:
    """The least-squares stage of one (variant, data) pair, fitted once.

    On p = P.take(up), H + Q is (L p + c0).take(sym).  vec(K) = K_map p where
    K is fitted (M None); where it is known, K = K_map P = -R^{-1} B^T P and
    K^T R K = P M P.
    """

    L: np.ndarray
    c0: np.ndarray
    K_map: np.ndarray
    R: np.ndarray
    up: np.ndarray
    sym: np.ndarray
    M: np.ndarray | None = None

    def residual(self, P):
        """H + Q - K^T R K at the iterate P."""
        v = self.L @ P.take(self.up) + self.c0
        if self.M is None:
            K = self.gain(P)
            return v.take(self.sym) - K.T @ self.R @ K
        return v.take(self.sym) - P @ self.M @ P

    def gain(self, P):
        """K at the iterate P."""
        if self.M is None:
            return (self.K_map @ P.take(self.up)).reshape((-1, P.shape[0]), order="F")
        return self.K_map @ P


def _fit_stage(variant, data: RegressionData, cfg: ViConfig):
    """Fit the least-squares stage of one (variant, data) pair once.

    Returns (Stage, E_identified); E_identified is the exogenous matrix of
    the identifying variants and None otherwise.
    """
    spec = VARIANTS[variant]
    # identifying E needs the rank condition of the variant that solves for it
    blocks_of = 3 if spec.exo == "identify" else variant
    require_rank(check_rank(data, blocks_of))
    n = data.dims["n_a"]
    half = n * (n + 1) // 2
    D, up, sym = _vec_maps(n)
    G = data.delta_a @ D - (0.0 if spec.state == "x" else 2.0 * data.Gamma_aBu)
    c = np.zeros(len(G))
    if spec.output_cost:                # Q_y on y, and Q_z on z on state rho
        c = data.I_yy @ vecs(cfg.Q_y) + (data.I_zz @ vecs(cfg.Q_z) if spec.state == "rho" else 0.0)
    Q_up = 0.0 if spec.output_cost else cfg.Q.take(up)
    to_p = 1.0 / D.sum(axis=1)[:, None]     # vecs(H) -> p of H; maps of vec(P) end in @ D.T
    # One QR, R factor only, of the k unknowns' columns check_rank accepted
    # beside the rhs: G on p, c and, to identify E, G vec(P0) whole; it lies
    # mostly in range(I_aa), and summing its projected columns errs 30x more.
    unknowns = _rank_blocks(data, blocks_of)
    k = sum(block.shape[1] for block in unknowns)
    rhs = [G @ D.T, c] + ([G @ cfg.P0.reshape(-1, order="F")] if spec.exo == "identify" else [])
    R = np.linalg.qr(np.column_stack(unknowns + rhs), mode="r")
    if spec.state != "x":               # the gain K = -R^{-1} B^T P is known exactly
        F = np.linalg.solve(cfg.R, data.known_B.T)
        M = data.known_B @ F
    if spec.exo != "identify":
        # one triangular solve for every unknown: rows :half are vecs(H), the
        # rest -2 vec(K) on state x, or vec(E^T P) where E is solved, fitted
        # free as in Algorithm 3 and not needed by the iterate
        theta = np.linalg.solve(R[:k, :k], R[:k, k:k + half + 1])
        L, c0 = to_p * theta[:half, :-1], to_p[:, 0] * theta[:half, -1] + Q_up
        if spec.state == "x":
            return Stage(L, c0, -0.5 * theta[half:, :-1], cfg.R, up, sym), None
        return Stage(L, c0, -F, cfg.R, up, sym, M), None
    # rows :half hold I_aa's triangle and Q_1^T of the later columns: their lift
    lift = to_p * np.linalg.solve(R[:half, :half], R[:half, half:k + half + 1])
    L, c0 = lift[:, k - half:-1], lift[:, -1] + Q_up
    # The E term of the rhs is 2 Gamma_av vec(E^T P) with E = S W.  Projected
    # onto Q_c, the complement of range(I_aa), its columns lie in range(Q_g)
    # for Q_c^T Gamma_av = Q_g R_g, and rows half:k hold R_g and Q_g^T Q_c^T of
    # the rhs.  That keeps the minimiser and leaves an (n*q) x (q*r) system
    # for vec(W) at P0: row (t, a) of Gq holds 2 R_g[t, (i, a)] over i.
    S = cfg.E_structure
    r, q = S.shape[1], data.dims["q"]
    Gq = (2.0 * R[half:k, half:k]).reshape(-1, n, q).transpose(0, 2, 1).reshape(-1, n)
    lift_av = 2.0 * lift[:, :k - half]          # p of H per column of 2 Gamma_av
    C = (Gq @ (cfg.P0.T @ S)).reshape(n * q, q * r)
    E = S @ _lstsq(C, R[half:k, -1]).reshape((r, q), order="F")
    return Stage(L - lift_av @ np.kron(np.eye(n), E.T) @ D.T, c0, -F, cfg.R, up, sym, M), E


def check_vi_inputs(variant, cfg: ViConfig):
    """Raise ValueError unless cfg holds what the variant needs; the one such table."""
    spec = VARIANTS[variant]
    # the state-cost variants need P0 > 0, and so does identifying E: its
    # least-squares system at P0 = 0 is singular
    if ((not spec.output_cost or spec.exo == "identify")
            and np.min(np.linalg.eigvalsh(cfg.P0)) <= 0):
        raise ValueError("variant %d requires a positive definite P0" % variant)
    needs = {"Q": not spec.output_cost, "Q_y": spec.output_cost,
             "Q_z": spec.output_cost and spec.state == "rho",
             "E_structure": spec.exo == "identify"}
    for name, needed in needs.items():
        if needed and getattr(cfg, name) is None:
            raise ValueError("variant %d needs %s" % (variant, name))


def _spec_norms(mats):
    """The 2-norms of symmetric matrices stacked on the leading axes: the
    largest |eigenvalue| of each."""
    return np.abs(np.linalg.eigvalsh(mats)).max(axis=-1)


# iterates stepped ahead of the loop's decisions, whose norms one eigvalsh takes
SPEC_ROWS = 64


def vi_run(variant, data: RegressionData, cfg: ViConfig, lap=lambda name: None) -> ViResult:
    """Run the value-iteration loop; non-convergence is reported, not raised."""
    check_vi_inputs(variant, cfg)
    try:
        stage, E_identified = _fit_stage(variant, data, cfg)
    finally:                            # lap(name) is the caller's clock
        lap("vi_fit_s")
    norm_P0 = _spec_norms(cfg.P0)
    P, norm_P = cfg.P0.copy(), norm_P0
    j = 0                               # bound-set index = resets so far
    history = []                        # each block's accepted rows
    pairs = np.empty((SPEC_ROWS, 2) + P.shape)     # rows (P~, P~ - P)
    k, converged = 0, False
    while k < cfg.max_iters and not converged:
        radius = cfg.bound_radius(j)
        eps = cfg.eps(np.arange(k, min(k + SPEC_ROWS, cfg.max_iters)))
        # Step as if every iterate is accepted, while ||P||_2 at the block start
        # plus the steps' Frobenius norms bounds ||P~||_2 by the radius: no
        # iterate that may have escaped is stepped from.  Only the exact norms
        # below decide, so the bounds' rounding moves no result.
        b, reach, base = 0, float(norm_P), P
        while b < len(eps) and (b == 0 or reach <= radius):
            step = eps[b] * stage.residual(base)
            base = np.add(base, step, out=pairs[b, 0])
            # np.vdot checks no floating-point flag: an overflow is a silent
            # inf, which ends the block as an escape would; so does a certain
            # stop, a Frobenius norm (>= the 2-norm) below eps_conv * eps_k
            fro = math.sqrt(np.vdot(step, step))
            reach += math.inf if fro < cfg.eps_conv * eps[b] else fro
            b += 1
        P_tilde = pairs[:b, 0]
        np.subtract(P_tilde[0], P, out=pairs[0, 1])
        np.subtract(P_tilde[1:], P_tilde[:-1], out=pairs[1:b, 1])
        norm_tilde, norm_step = _spec_norms(pairs[:b]).T
        steps = norm_step / eps[:b]
        # the first escape or stop in loop order; every row before it is accepted
        escape, stop = norm_tilde > radius, steps < cfg.eps_conv
        events = np.flatnonzero(escape | stop)
        rows = int(events[0]) + 1 if events.size else b
        history.append(np.column_stack(
            [np.arange(k, k + rows), np.full(rows, j),
             np.concatenate([[norm_P], norm_tilde[:rows - 1]]), steps[:rows]]))
        k += rows
        if not events.size:
            P, norm_P = pairs[b - 1, 0].copy(), norm_tilde[b - 1]
        elif escape[rows - 1]:          # escape from the bound set
            P, norm_P = cfg.P0.copy(), norm_P0
            j += 1
        else:
            converged = True
            if rows > 1:                # the iterate the stopping step left
                P = pairs[rows - 2, 0].copy()
    return ViResult(P_final=P, K_final=stage.gain(P), iters=k, resets=j,
                    converged=converged, history=np.concatenate(history),
                    E_rho_identified=E_identified)
