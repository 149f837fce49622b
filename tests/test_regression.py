import dataclasses

import numpy as np
import pytest
from scipy.integrate import simpson

from regvi.linalg import vecs, vecv_rows
from regvi.experiment import export_regression_csv
from regvi.regression import (GridAlignmentError, RegressionData, SamplingGrid,
                              build_regression, check_rank, unknown_count)
from regvi.sim import Tone, simulate, stack_state


def _residual_rows(data, P, A_rho, E_rho, B_rho):
    """Rows of the learning-equation residual at the true (H, E) pair."""
    H = A_rho.T @ P + P @ A_rho
    lhs = data.delta_a @ vecs(P)
    t1 = data.I_aa @ vecs(H)
    t2 = 2.0 * data.Gamma_av @ (E_rho.T @ P).reshape(-1, order="F")
    s, n = len(data.I_au), data.dims["n_a"]
    Gamma_aBu = (data.I_au.reshape(s, n, -1) @ B_rho.T).reshape(s, -1)    # int a (B u)^T
    t3 = 2.0 * Gamma_aBu @ P.reshape(-1, order="F")
    scale = np.abs(lhs) + np.abs(t1) + np.abs(t2) + np.abs(t3) + 1.0
    return np.abs(lhs - t1 - t2 - t3) / scale


def test_consistency_with_oracle_dynamics(nonzero_setup):
    """Quadrature keeps the learning equation exact to well below 1e-6 per row."""
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 3)
    aux = nonzero_setup["aux"]
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 8))
    rel = _residual_rows(data, X + X.T, aux.A_rho, aux.E_rho, aux.B_rho)
    assert np.max(rel) <= 1e-6
    rel = _residual_rows(data, nonzero_setup["sol"].P, aux.A_rho, aux.E_rho, aux.B_rho)
    assert np.max(rel) <= 1e-6


def test_sampling_interval_additivity(nonzero_setup):
    """Halving dt partitions each integral exactly (same fine-grid quadrature)."""
    coarse = build_regression(nonzero_setup["log"], SamplingGrid(t0=4.0, dt=0.2, s=60), 3)
    fine = build_regression(nonzero_setup["log"], SamplingGrid(t0=4.0, dt=0.1, s=120), 3)
    for name in ("I_aa", "Gamma_av", "I_au", "delta_a"):
        c = getattr(coarse, name)
        f = getattr(fine, name)
        merged = f[0::2] + f[1::2]
        assert np.allclose(c, merged, rtol=0, atol=1e-9 * (1 + np.abs(c).max()))


def _kron_rows(a, b):
    return np.einsum("ni,nj->nij", a, b).reshape(a.shape[0], -1)


@pytest.mark.parametrize("h, dt", [(1e-3, 0.1), (4e-3, 0.1), (1e-3, 3e-3), (1e-3, 1e-3)])
def test_blocks_match_per_interval_simpson(fullstate_setup, h, dt):
    """Every block is scipy's Simpson rule of the row-wise products on each interval."""
    s = fullstate_setup
    log = s["log"]
    if h != log.h:
        tones = [Tone(1.0, 1.0), Tone(1.0, 2.7), Tone(1.0, 5.3), Tone(1.0, 9.1)]
        K = np.zeros((1, s["known"].n_zeta + s["im"].n_z))
        log = simulate(s["plant"], s["exo"], s["known"], s["im"], K,
                       stack_state(s["exo"], s["known"], s["im"], [1.0, -1.0, 0.5]),
                       (0.0, 6.0), h, tones)
    grid = SamplingGrid(t0=1.0, dt=dt, s=40)
    step = round(dt / h)
    rows = int(round(1.0 / h)) + step * np.arange(grid.s + 1)
    d1 = build_regression(log, grid, 1)
    d6 = build_regression(log, grid, 6)
    rho = np.hstack([log.zeta, log.z])
    expected = [
        (d1.I_aa, vecv_rows(log.x)), (d1.I_au, _kron_rows(log.x, log.u)),
        (d6.I_aa, vecv_rows(rho)), (d6.Gamma_av, _kron_rows(rho, log.v)),
        (d6.I_au, _kron_rows(rho, log.u)), (d6.I_yy, vecv_rows(log.y)),
    ]
    for block, products in expected:
        ref = np.array([simpson(products[i:j + 1], dx=h, axis=0)
                        for i, j in zip(rows[:-1], rows[1:])])
        assert block.shape == ref.shape
        assert np.abs(block - ref).max() <= 1e-12 * np.abs(ref).max()
    for d, a in ((d1, log.x), (d6, rho)):
        va = vecv_rows(a)
        assert np.array_equal(d.delta_a, va[rows[1:]] - va[rows[:-1]])


def test_integrals_converge_with_h(fullstate_setup):
    """Refining the integrator step shrinks every integral entry at order >= 2."""
    s = fullstate_setup
    tones = [Tone(1.0, 1.0), Tone(1.0, 2.7), Tone(1.0, 5.3), Tone(1.0, 9.1)]
    K = np.zeros((1, s["known"].n_zeta + s["im"].n_z))
    s0 = stack_state(s["exo"], s["known"], s["im"], [1.0, -1.0, 0.5])
    grid = SamplingGrid(t0=1.0, dt=0.1, s=20)
    def blocks(h):
        log = simulate(s["plant"], s["exo"], s["known"], s["im"], K, s0,
                       (0.0, 4.0), h, tones)
        d = build_regression(log, grid, 1)
        return d.I_aa, d.I_au
    a1, b1 = blocks(4e-3)
    a2, b2 = blocks(2e-3)
    a4, b4 = blocks(1e-3)
    for coarse, mid, ref in ((a1, a2, a4), (b1, b2, b4)):
        e1 = np.abs(coarse - ref).max()
        e2 = np.abs(mid - ref).max()
        assert e1 / e2 >= 3.5   # at least second-order convergence


def test_rank_conditions_on_preset_data(nonzero_setup):
    data3 = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 3)
    v3 = check_rank(data3, 3)
    v4 = check_rank(data3, 4)
    assert v3.satisfied and v3.required == 52
    # the reduced condition is implied by the full one
    assert v4.satisfied and v4.required == 36


def _transient_verdicts(setup, **patch):
    """The rank verdicts on I_aa alone (variant 4's) and on the stacked
    [I_aa, Gamma_av] (variant 3's) of the preset's exploration data, with the
    config fields in patch changed."""
    cfg, objs = dataclasses.replace(setup["cfg"], **patch), setup["objs"]
    log = simulate(objs.plant, objs.exo, objs.known, objs.im, np.array(cfg.k0),
                   stack_state(objs.exo, objs.known, objs.im, cfg.x0), (0.0, cfg.t_switch),
                   cfg.h, [Tone(**t) for t in cfg.tones])
    grid = SamplingGrid(t0=cfg.grid_t0, dt=cfg.grid_dt, s=cfg.grid_s)
    data = build_regression(log, grid, 3)
    return check_rank(data, 4), check_rank(data, 3)


# preset fixture, config fields changed, then the ranks of I_aa (of 36) and
# of the stacked matrix (of 52) that numpy's cutoff gives on seed-0 tones
TRANSIENT_CASES = {
    "zero-published": ("zero_setup", {}, 36, 52),
    "nonzero-published": ("nonzero_setup", {}, 36, 52),
    "zero-window-at-8": ("zero_setup", {"grid_t0": 8.0, "t_switch": 32.0}, 35, 51),
    "nonzero-window-at-8": ("nonzero_setup", {"grid_t0": 8.0, "t_switch": 32.0}, 36, 50),
    "zero-x3-at-0": ("zero_setup", {"x0": [1.0, 2.0, 0.0]}, 32, 46),
    "zero-x3-at-minus-8": ("zero_setup", {"x0": [1.0, 2.0, -8.0]}, 36, 52),
}


@pytest.mark.parametrize("case", TRANSIENT_CASES)
def test_the_stacked_rank_rests_on_the_x3_transient(case, request):
    """(A_rho, B_rho) leaves one mode unreachable, the plant's x_3 at pole -1
    (test_oracle), and exciting inputs determine only the reachable part of
    the state (Willems et al. 2005).  So [I_aa, Gamma_av] reaches its 52
    columns only through x_3's e^(-t) transient inside the window [4, 28]:
    starting the window at 8 loses one or two ranks, and with E = 0 and
    x_3(0) = 0 (paper-e-zero), x_3 stays 0 and six are lost.  Some of these
    counts sit within 1.5x of numpy's cutoff, so a change in the data's
    rounding may move them; the published windows pass with margin."""
    fixture, patch, rank_aa, rank_stacked = TRANSIENT_CASES[case]
    aa, stacked = _transient_verdicts(request.getfixturevalue(fixture), **patch)
    assert (aa.required, stacked.required) == (36, 52)
    assert (aa.rank, stacked.rank) == (rank_aa, rank_stacked)


def test_a_larger_x3_transient_widens_the_stacked_margin(zero_setup, nonzero_setup):
    """The stacked margin grows with the x_3 transient and shrinks below 1 (a
    failed verdict) once the window starts after most of it has decayed:
    paper-e-zero's 7.1 becomes 54.6 with x_3(0) = -8 instead of -0.8."""
    published = _transient_verdicts(zero_setup)[1].rank_margin
    assert 7.0 < published < 7.2
    assert _transient_verdicts(zero_setup, x0=[1.0, 2.0, -8.0])[1].rank_margin > published
    for setup in (zero_setup, nonzero_setup):
        moved = _transient_verdicts(setup, grid_t0=8.0, t_switch=32.0)[1]
        assert moved.rank_margin < 1.0 < _transient_verdicts(setup)[1].rank_margin


def test_rank_fails_without_excitation(nonzero_setup):
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    log = simulate(objs.plant, objs.exo, objs.known, objs.im,
                   np.zeros((1, objs.known.n_zeta + objs.im.n_z)),
                   stack_state(objs.exo, objs.known, objs.im, cfg.x0), (0.0, 10.0), 1e-3)
    data = build_regression(log, SamplingGrid(t0=1.0, dt=0.25, s=30), 4)
    assert not check_rank(data).satisfied


def test_grid_alignment_errors(fullstate_setup):
    log = fullstate_setup["log"]
    with pytest.raises(GridAlignmentError):
        build_regression(log, SamplingGrid(t0=1.0, dt=0.00025, s=10), 1)
    with pytest.raises(GridAlignmentError):
        build_regression(log, SamplingGrid(t0=1.0, dt=1e-10, s=10), 1)
    with pytest.raises(GridAlignmentError):
        build_regression(log, SamplingGrid(t0=1.00033, dt=0.1, s=10), 1)
    with pytest.raises(GridAlignmentError):
        build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=1000), 1)


def test_dt_within_grid_tolerance_is_accepted(fullstate_setup):
    """dt off k*h by less than the config tolerance gives the same blocks."""
    log = fullstate_setup["log"]
    exact = build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=40), 1)
    near = build_regression(log, SamplingGrid(t0=1.0, dt=0.1 + 5e-10, s=40), 1)
    for name in ("delta_a", "I_aa", "I_au"):
        assert np.array_equal(getattr(exact, name), getattr(near, name))


def test_missing_weights_rejected(fullstate_setup):
    log = fullstate_setup["log"]
    grid = fullstate_setup["grid"]
    with pytest.raises(ValueError):
        build_regression(log, grid, 7)


@pytest.mark.parametrize("variant, unknowns",
                         [(1, 9), (2, 21), (3, 52), (4, 36), (5, 52), (6, 36)])
def test_rank_matrix_columns_are_the_unknowns(nonzero_setup, variant, unknowns):
    """check_rank requires the column count of the matrix it tests: I_aa (vecs(H)),
    joined by I_au (K) on state x or by Gamma_av (vec(E^T P)) where E is solved;
    one row fewer fails the verdict, which names the same count."""
    log, grid = nonzero_setup["log"], nonzero_setup["grid"]
    data = build_regression(log, grid, variant)
    extra = data.I_au if variant == 1 else data.Gamma_av if variant in (3, 5) else None
    columns = data.I_aa.shape[1] + (0 if extra is None else extra.shape[1])
    assert check_rank(data).required == columns == unknowns
    short = build_regression(log, SamplingGrid(grid.t0, grid.dt, unknowns - 1), variant)
    verdict = check_rank(short)
    assert (verdict.required, verdict.satisfied) == (unknowns, False)


def test_unknown_count_table():
    dims = (5, 5, 1, 4, 4)
    assert unknown_count(dims, "chen") == 2394
    assert unknown_count(dims, "xie") == 1971
    assert unknown_count(dims, "alg3") == 731
    assert unknown_count(dims, "alg4") == 595
    with pytest.raises(ValueError):
        unknown_count(dims, "other")


def test_export_regression_csv(fullstate_setup, tmp_path):
    data = fullstate_setup["data"]
    files = export_regression_csv(data, tmp_path)
    assert "regression_manifest" in files and "I_aa" in files and "delta_a" in files
    loaded = np.loadtxt(files["I_aa"], delimiter=",")
    assert np.array_equal(loaded, data.I_aa)
    import json
    with open(files["regression_manifest"]) as fh:
        manifest = json.load(fh)
    assert manifest["variant"] == 1
    assert manifest["grid"] == {"t0": 1.0, "dt": 0.1, "s": 40}


@pytest.mark.parametrize("setup", ["zero_setup", "nonzero_setup"])
def test_check_rank_is_matrix_rank_and_grades_its_matrix(setup, request):
    """One SVD gives numpy's matrix_rank and the singular values of the
    matrix each verdict is taken on: I_aa, and [I_aa, Gamma_av] where E is solved."""
    s = request.getfixturevalue(setup)
    data = build_regression(s["log"], s["grid"], 3)
    for variant, M in ((s["cfg"].variant, data.I_aa),
                       (3, np.hstack([data.I_aa, data.Gamma_av]))):
        verdict = check_rank(data, variant)
        sv = np.linalg.svd(M, compute_uv=False)
        assert verdict.rank == np.linalg.matrix_rank(M)
        assert verdict.sigma_max == pytest.approx(sv[0], rel=1e-12)
        assert verdict.sigma_min == pytest.approx(sv[-1], rel=1e-12)
        assert verdict.cond == pytest.approx(sv[0] / sv[-1], rel=1e-12)
        cutoff = max(M.shape) * np.finfo(float).eps * sv[0]
        assert verdict.rank_margin == pytest.approx(sv[-1] / cutoff, rel=1e-12)
        assert verdict.quality == {"sigma_max": verdict.sigma_max, "sigma_min": verdict.sigma_min,
                                   "rank_margin": verdict.rank_margin, "cond": verdict.cond}


def test_check_rank_of_zero_data_leaves_undefined_grades_out():
    """All-zero data has rank 0; its margin and condition number are None, not NaN."""
    data = RegressionData(variant=4, grid=SamplingGrid(t0=0.0, dt=0.1, s=40),
                          dims={"n_a": 8, "m": 1}, delta_a=np.zeros((40, 36)),
                          I_aa=np.zeros((40, 36)), I_au=np.zeros((40, 8)))
    verdict = check_rank(data)
    assert (verdict.rank, verdict.required, verdict.satisfied) == (0, 36, False)
    assert verdict.quality == {"sigma_max": 0.0, "sigma_min": 0.0,
                               "rank_margin": None, "cond": None}
