"""Trajectory logs -> learning-equation data matrices.

Every integral is a composite Simpson rule over the fine integrator grid
inside each sampling interval [t_{j-1}, t_j] alone, as
`scipy.integrate.simpson` (scipy >= 1.11) applies it to the step + 1 rows of
the interval: an odd step closes with h/12 * (-1, 8, 5) on its last three
rows, and a single step is the trapezoid.  Each block is one contraction of
that weight vector with strided interval views, giving int a b^T per
interval; quadratic blocks keep its upper triangle in `vecv` order, Kronecker
blocks its row-major flattening.  The delta rows are endpoint differences of
the quadratic-monomial vector.  The least-squares systems built from these
blocks are severely ill-conditioned whenever the plant has unreachable stable
modes (the filter states become asymptotically dependent), so the quadrature
must stay orders of magnitude below the smallest data singular value;
Simpson on the h-grid achieves that where trapezoid does not.  Each variant,
a row of `VARIANTS`, packs the blocks its choices read: I_au on state x and
Gamma_aBu otherwise, Gamma_av with an exogenous term, I_yy with the output
cost and I_zz with it on rho.  The columns of the matrix `check_rank` tests
are the stage's unknowns: I_aa's are vecs(H), and I_au's (K) on state x or
Gamma_av's (vec(E^T P)) where E is solved join them (`_rank_blocks`).
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import vecv_rows

GRID_TOL = 1e-9


@dataclass(frozen=True)
class Variant:
    """The three choices that set one learner apart from the others."""

    state: str          # learner state a: "x", "zeta" or "rho" = col(zeta, z)
    output_cost: bool   # Q_y on y (and Q_z on z when a = rho) instead of Q on a
    exo: str | None     # exogenous term: None, "solve" with E^T P free unknowns
                        # (Algorithm 3) or "identify" E once at P0 (Algorithm 4)


VARIANTS = {1: Variant("x", False, None),          # state-based learning
            2: Variant("zeta", True, None),        # output-based LQR
            3: Variant("rho", False, "solve"),     # regulation
            4: Variant("rho", False, "identify"),
            5: Variant("rho", True, "solve"),
            6: Variant("rho", True, "identify")}


class GridAlignmentError(ValueError):
    """Sampling grid does not sit on the integrator grid or horizon."""


def on_grid(t, h):
    """Whether time t lies on the grid k*h (to GRID_TOL)."""
    return abs(round(t / h) * h - t) <= GRID_TOL


@dataclass
class SamplingGrid:
    """Sample times t_j = t0 + j*dt for j = 0..s."""

    t0: float
    dt: float
    s: int


@dataclass
class RegressionData:
    variant: int
    grid: SamplingGrid
    dims: dict
    delta_a: np.ndarray
    I_aa: np.ndarray
    I_au: np.ndarray | None = None        # int a (x) R u  (state x)
    Gamma_av: np.ndarray | None = None    # int a (x) v    (exogenous term)
    Gamma_aBu: np.ndarray | None = None   # int a (x) B u  (state zeta or rho)
    I_yy: np.ndarray | None = None        # output cost
    I_zz: np.ndarray | None = None        # output cost on rho
    known_B: np.ndarray | None = None     # B_zeta or B_rho


def _sample_window(log, grid: SamplingGrid):
    """Log rows [lo, hi) spanned by the grid and the rows per sampling interval."""
    step = round(grid.dt / log.h)
    if step < 1 or not on_grid(grid.dt, log.h):
        raise GridAlignmentError("dt = %g is not a positive multiple of h = %g"
                                 % (grid.dt, log.h))
    if not on_grid(grid.t0, log.h):
        raise GridAlignmentError("t0 = %g does not sit on the integrator grid" % grid.t0)
    lo = int(round((grid.t0 - log.times[0]) / log.h))
    hi = lo + step * grid.s + 1
    if lo < 0 or hi > log.times.size:
        raise GridAlignmentError("sampling grid extends outside the simulated horizon")
    return lo, hi, step


def _simpson_weights(step, h):
    """Composite-Simpson weights on step + 1 points spaced h (scipy's rule)."""
    if step == 1:
        return np.array([h, h]) / 2.0
    even = step - step % 2
    w = np.zeros(step + 1)
    w[:even + 1] = np.tile([2.0, 4.0], step)[:even + 1] / 3.0
    w[[0, even]] = 1.0 / 3.0
    if step % 2:
        w[-3:] += np.array([-1.0, 8.0, 5.0]) / 12.0
    return h * w


def _interval_integrals(a, b, step, h):
    """int a b^T over each interval of step rows, shape (s, n_a, n_b)."""
    wa, wb = (sliding_window_view(x, step + 1, axis=0)[::step] for x in (a, b))
    return np.einsum("k,jik,jlk->jil", _simpson_weights(step, h), wa, wb)


def _quadratic(x, step, h):
    """int vecv(x) over each interval: the upper triangles of int x x^T."""
    i, j = np.triu_indices(x.shape[1])
    return _interval_integrals(x, x, step, h)[:, i, j]


def build_regression(log, grid: SamplingGrid, variant: int,
                     R=None, known_B=None) -> RegressionData:
    """Pack the data matrices for one algorithm variant.

    log carries the views of a `sim.TrajectoryLog` (times, h and the signal
    arrays, rho among them); the learner state a is the view named by the
    variant, and only the learner-visible channels are read.
    R weights the input integral of the state-x variant; known_B is the known
    input-matrix block (B_zeta or B_rho) of the others.  Both act on
    int a u^T after integration, which is linear in u.
    """
    if variant not in VARIANTS:
        raise ValueError("variant must be in %s" % sorted(VARIANTS))
    spec = VARIANTS[variant]
    if spec.state == "x" and R is None:
        raise ValueError("variant %d needs the weight R" % variant)
    if spec.state != "x" and known_B is None:
        raise ValueError("variant %d needs its known input block" % variant)
    lo, hi, step = _sample_window(log, grid)
    h, s = log.h, grid.s
    u = log.u[lo:hi]
    a = getattr(log, spec.state)[lo:hi]
    dims = {"n_a": a.shape[1], "m": u.shape[1]}
    data = RegressionData(variant=variant, grid=grid, dims=dims,
                          delta_a=np.diff(vecv_rows(a[::step]), axis=0),
                          I_aa=_quadratic(a, step, h))
    int_au = _interval_integrals(a, u, step, h)
    if spec.state == "x":
        data.I_au = (int_au @ R.T).reshape(s, -1)
    else:
        data.known_B = known_B
        data.Gamma_aBu = (int_au @ known_B.T).reshape(s, -1)
    if spec.exo:
        v = log.v[lo:hi]
        dims["q"] = v.shape[1]
        data.Gamma_av = _interval_integrals(a, v, step, h).reshape(s, -1)
    if spec.output_cost:
        data.I_yy = _quadratic(log.y[lo:hi], step, h)
        dims["p"] = log.y.shape[1]
    if spec.output_cost and spec.state == "rho":
        data.I_zz = _quadratic(log.z[lo:hi], step, h)
        dims["n_z"] = log.z.shape[1]
    required = sum(block.shape[1] for block in _rank_blocks(data, variant))
    if grid.s < required:
        warnings.warn("only s = %d rows for %d unknowns; rank condition will fail"
                      % (grid.s, required))
    return data


def _rank_blocks(data, variant):
    """The blocks whose columns are the stage's unknowns: vecs(H), plus K or
    vec(E^T P) where they are fitted (identifying variants: after identification)."""
    spec = VARIANTS[variant]
    if spec.state == "x":
        return [data.I_aa, data.I_au]
    return [data.I_aa, data.Gamma_av] if spec.exo == "solve" else [data.I_aa]


@dataclass
class RankVerdict:
    rank: int
    required: int
    satisfied: bool
    sigma_max: float
    sigma_min: float
    rank_margin: float      # sigma_min / the rank cutoff max(shape)*eps*sigma_max
    cond: float             # sigma_max / sigma_min

    @property
    def quality(self):
        """The singular-value grades of the data; a non-finite one is None."""
        grades = {"sigma_max": self.sigma_max, "sigma_min": self.sigma_min,
                  "rank_margin": self.rank_margin, "cond": self.cond}
        return {k: v if np.isfinite(v) else None for k, v in grades.items()}


def check_rank(data: RegressionData, variant=None) -> RankVerdict:
    """Numerical-rank verdict for the variant's solvability condition.

    One SVD gives the rank under numpy's threshold max(shape)*eps*sigma_max,
    the cutoff `np.linalg.matrix_rank` and the least-squares solves of `vi`
    apply too, and the singular values that grade the data.
    Plants with unreachable stable modes leave an exponentially decaying
    excitation in one data direction, so its singular value is genuinely
    tiny but nonzero; a coarser relative threshold would misreport such
    exactly-solvable data sets as rank deficient.
    """
    M = np.hstack(_rank_blocks(data, data.variant if variant is None else variant))
    sv = np.linalg.svd(M, compute_uv=False)
    cutoff = sv[0] * (max(M.shape) * np.finfo(sv.dtype).eps)
    rank = int(np.count_nonzero(sv > cutoff))
    required = M.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        margin, cond = sv[-1] / cutoff, sv[0] / sv[-1]
    return RankVerdict(rank=rank, required=required, satisfied=rank >= required,
                       sigma_max=float(sv[0]), sigma_min=float(sv[-1]),
                       rank_margin=float(margin), cond=float(cond))


def unknown_count(dims, method):
    """Unknown-variable count of the competing learning equations.

    dims = (n, m, p, q, n_z); methods 'chen' and 'xie' reproduce the
    published counts of the prior-work equations as arithmetic only.
    """
    n, m, p, q, n_z = dims
    method = method.lower()
    if method == "chen":
        n_chi = (n + n_z) * m + 2 * (n + n_z) * p
        return n_chi * (n_chi + 1) // 2 + (m + p) * n_chi
    if method == "xie":
        n_gamma = n * (m + p + q) + n_z
        return n_gamma * (n_gamma + 1) // 2 + (m + q) * n_gamma
    n_rho = n * (m + p) + n_z
    if method == "alg3":
        return n_rho * (n_rho + 1) // 2 + q * n_rho
    if method == "alg4":
        return n_rho * (n_rho + 1) // 2
    raise ValueError("unknown method %r" % method)

