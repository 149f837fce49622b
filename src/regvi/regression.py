"""Trajectory logs -> learning-equation data matrices.

Every integral is a composite Simpson rule over the fine integrator grid
inside each sampling interval [t_{j-1}, t_j]; the delta rows are endpoint
differences of the quadratic-monomial vector.  The least-squares systems
built from these blocks are severely ill-conditioned whenever the plant has
unreachable stable modes (the filter states become asymptotically dependent),
so the quadrature must stay orders of magnitude below the smallest data
singular value; Simpson on the h-grid achieves that where trapezoid does
not.  Six variants share the same machinery and differ only in which
channels are packed:

  variant 1: state x and input u            (state-based learning)
  variant 2: filter state zeta, u and y     (output-based LQR)
  variant 3/4: rho = col(zeta, z), u and v  (regulation, general E)
  variant 5/6: rho, u, v plus y and z       (regulation, E = 0)
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson

from .linalg import vecv_rows

VARIANTS = (1, 2, 3, 4, 5, 6)


class GridAlignmentError(ValueError):
    """Sampling grid does not sit on the integrator grid or horizon."""


@dataclass
class SamplingGrid:
    """Sample times t_j = t0 + j*dt for j = 0..s."""

    t0: float
    dt: float
    s: int

    def times(self):
        return self.t0 + self.dt * np.arange(self.s + 1)


@dataclass
class RegressionData:
    variant: int
    grid: SamplingGrid
    dims: dict
    delta_a: np.ndarray
    I_aa: np.ndarray
    I_au: np.ndarray | None = None        # int a (x) R u   (variants 1, 2)
    Gamma_av: np.ndarray | None = None    # int rho (x) v   (variants 3-6)
    Gamma_aBu: np.ndarray | None = None   # int rho (x) B_rho u (variants 3-6)
    I_yy: np.ndarray | None = None        # variants 2, 5, 6
    I_zz: np.ndarray | None = None        # variants 5, 6
    known_B: np.ndarray | None = None     # B_zeta (variant 2) or B_rho (3-6)
    R: np.ndarray | None = None


def _sample_indices(log, grid: SamplingGrid):
    ratio = grid.dt / log.h
    if abs(ratio - round(ratio)) > 1e-9:
        raise GridAlignmentError("dt = %g is not an integer multiple of h = %g"
                                 % (grid.dt, log.h))
    step = int(round(ratio))
    start = (grid.t0 - log.times[0]) / log.h
    if abs(start - round(start)) > 1e-6:
        raise GridAlignmentError("t0 = %g does not sit on the integrator grid" % grid.t0)
    idx = int(round(start)) + step * np.arange(grid.s + 1)
    if idx[0] < 0 or idx[-1] >= log.times.size:
        raise GridAlignmentError("sampling grid extends outside the simulated horizon")
    return idx


def _interval_integrals(values, idx, h):
    """Integrals of each column of values over the consecutive sample intervals."""
    cum = cumulative_simpson(values, dx=h, axis=0, initial=0.0)
    return cum[idx[1:]] - cum[idx[:-1]]


def _kron_rows(a, b):
    """Row-wise Kronecker products a_t (x) b_t."""
    return np.einsum("ni,nj->nij", a, b).reshape(a.shape[0], -1)


def build_regression(log, grid: SamplingGrid, variant: int,
                     R=None, known_B=None) -> RegressionData:
    """Pack the data matrices for one algorithm variant.

    log carries the fields of a `sim.TrajectoryLog` (times, h and the signal
    arrays); only the learner-visible channels are read.
    R weights the input integrals of variants 1 and 2; known_B is the known
    input-matrix block (B_zeta for variant 2, B_rho for variants 3-6) applied
    to the logged input before the unweighted Kronecker integral.
    """
    if variant not in VARIANTS:
        raise ValueError("variant must be in %s" % (VARIANTS,))
    idx = _sample_indices(log, grid)
    lo, hi = idx[0], idx[-1] + 1
    idx0 = idx - lo
    h = log.h
    u = log.u[lo:hi]
    if variant == 1:
        a = log.x[lo:hi]
    elif variant == 2:
        a = log.zeta[lo:hi]
    else:
        a = np.hstack([log.zeta[lo:hi], log.z[lo:hi]])
    n_a = a.shape[1]
    m = u.shape[1]
    dims = {"n_a": n_a, "m": m}
    va = vecv_rows(a)
    delta_a = va[idx0[1:]] - va[idx0[:-1]]
    I_aa = _interval_integrals(va, idx0, h)
    data = RegressionData(variant=variant, grid=grid, dims=dims,
                          delta_a=delta_a, I_aa=I_aa)
    if variant in (1, 2):
        if R is None:
            raise ValueError("variants 1 and 2 need the weight R")
        R = np.atleast_2d(np.asarray(R, dtype=float))
        data.R = R
        data.I_au = _interval_integrals(_kron_rows(a, u @ R.T), idx0, h)
    if variant in (3, 4, 5, 6):
        if known_B is None:
            raise ValueError("variants 3-6 need the known input block B_rho")
        v = log.v[lo:hi]
        dims["q"] = v.shape[1]
        data.Gamma_av = _interval_integrals(_kron_rows(a, v), idx0, h)
        data.Gamma_aBu = _interval_integrals(_kron_rows(a, u @ np.asarray(known_B).T),
                                             idx0, h)
    if variant in (2, 5, 6):
        y = log.y[lo:hi]
        data.I_yy = _interval_integrals(vecv_rows(y), idx0, h)
        dims["p"] = y.shape[1]
    if variant in (5, 6):
        z = log.z[lo:hi]
        data.I_zz = _interval_integrals(vecv_rows(z), idx0, h)
        dims["n_z"] = z.shape[1]
    if variant == 2:
        if known_B is None:
            raise ValueError("variant 2 needs the known input block B_zeta")
    if known_B is not None:
        data.known_B = np.atleast_2d(np.asarray(known_B, dtype=float))
    required = required_rank(variant, dims)
    if grid.s < required:
        warnings.warn("only s = %d rows for %d unknowns; rank condition will fail"
                      % (grid.s, required))
    return data


def required_rank(variant, dims):
    n_a, m = dims["n_a"], dims["m"]
    half = n_a * (n_a + 1) // 2
    if variant == 1:
        return half + m * n_a
    if variant == 2:
        return half
    if variant in (3, 5):
        return half + dims["q"] * n_a
    return half  # variants 4 and 6: post-identification condition


@dataclass
class RankVerdict:
    rank: int
    required: int
    satisfied: bool


def check_rank(data: RegressionData, variant=None) -> RankVerdict:
    """Numerical-rank verdict for the variant's solvability condition.

    Uses the standard numerical-rank threshold max(shape)*eps*sigma_max.
    Plants with unreachable stable modes leave an exponentially decaying
    excitation in one data direction, so its singular value is genuinely
    tiny but nonzero; a coarser relative threshold would misreport such
    exactly-solvable data sets as rank deficient.
    """
    variant = data.variant if variant is None else variant
    if variant == 1:
        M = np.hstack([data.I_aa, data.I_au])
    elif variant == 2:
        M = data.I_aa
    elif variant in (3, 5):
        M = np.hstack([data.I_aa, data.Gamma_av])
    else:
        M = data.I_aa
    s = np.linalg.svd(M, compute_uv=False)
    tol = max(M.shape) * np.finfo(float).eps
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    required = required_rank(variant, data.dims)
    return RankVerdict(rank=rank, required=required, satisfied=rank >= required)


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


def export_regression_csv(data: RegressionData, out_dir):
    """One CSV per block plus a manifest of dims and the grid; returns file map."""
    import json
    import os
    blocks = {"delta_a": data.delta_a, "I_aa": data.I_aa, "I_au": data.I_au,
              "Gamma_av": data.Gamma_av, "Gamma_aBu": data.Gamma_aBu,
              "I_yy": data.I_yy, "I_zz": data.I_zz}
    files = {}
    for name, arr in blocks.items():
        if arr is None:
            continue
        path = os.path.join(out_dir, "regression_%s.csv" % name)
        with open(path, "w") as fh:
            for row in arr:
                fh.write(",".join("%.17g" % val for val in row) + "\n")
        files[name] = path
    manifest = {"variant": data.variant, "dims": data.dims,
                "grid": {"t0": data.grid.t0, "dt": data.grid.dt, "s": data.grid.s},
                "blocks": {k: list(v.shape) for k, v in blocks.items() if v is not None}}
    mpath = os.path.join(out_dir, "regression_manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    files["manifest"] = mpath
    return files
