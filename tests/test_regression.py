import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from regvi.linalg import vecs, vecv_rows
from regvi.regression import (GridAlignmentError, SamplingGrid, build_regression,
                              check_rank, export_regression_csv, required_rank,
                              unknown_count)
from regvi.sim import Tone, simulate, stack_state


def _residual_rows(data, P, A_rho, E_rho):
    """Rows of the learning-equation residual at the true (H, E) pair."""
    H = A_rho.T @ P + P @ A_rho
    lhs = data.delta_a @ vecs(P)
    t1 = data.I_aa @ vecs(H)
    t2 = 2.0 * data.Gamma_av @ (E_rho.T @ P).reshape(-1, order="F")
    t3 = 2.0 * data.Gamma_aBu @ P.reshape(-1, order="F")
    scale = np.abs(lhs) + np.abs(t1) + np.abs(t2) + np.abs(t3) + 1.0
    return np.abs(lhs - t1 - t2 - t3) / scale


def test_consistency_with_oracle_dynamics(nonzero_setup):
    """Quadrature keeps the learning equation exact to well below 1e-6 per row."""
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 3,
                            known_B=nonzero_setup["objs"].B_rho)
    aux = nonzero_setup["aux"]
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 8))
    rel = _residual_rows(data, X + X.T, aux.A_rho, aux.E_rho)
    assert np.max(rel) <= 1e-6
    rel = _residual_rows(data, nonzero_setup["sol"].P, aux.A_rho, aux.E_rho)
    assert np.max(rel) <= 1e-6


def test_sampling_interval_additivity(nonzero_setup):
    """Halving dt partitions each integral exactly (same fine-grid quadrature)."""
    coarse = build_regression(nonzero_setup["log"],
                              SamplingGrid(t0=4.0, dt=0.2, s=60), 3,
                              known_B=nonzero_setup["objs"].B_rho)
    fine = build_regression(nonzero_setup["log"],
                            SamplingGrid(t0=4.0, dt=0.1, s=120), 3,
                            known_B=nonzero_setup["objs"].B_rho)
    for name in ("I_aa", "Gamma_av", "Gamma_aBu", "delta_a"):
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
    B_rho = np.vstack([s["known"].B_zeta, np.zeros((s["im"].n_z, 1))])
    rows = int(round(1.0 / h)) + step * np.arange(grid.s + 1)
    R = np.array([[2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # too few rows for variant 6's rank
        d1 = build_regression(log, grid, 1, R=R)
        d6 = build_regression(log, grid, 6, known_B=B_rho)
    rho = np.hstack([log.zeta, log.z])
    expected = [
        (d1.I_aa, vecv_rows(log.x)), (d1.I_au, _kron_rows(log.x, log.u @ R.T)),
        (d6.I_aa, vecv_rows(rho)), (d6.Gamma_av, _kron_rows(rho, log.v)),
        (d6.Gamma_aBu, _kron_rows(rho, log.u @ B_rho.T)),
        (d6.I_yy, vecv_rows(log.y)), (d6.I_zz, vecv_rows(log.z)),
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
        d = build_regression(log, grid, 1, R=np.eye(1))
        return d.I_aa, d.I_au
    a1, b1 = blocks(4e-3)
    a2, b2 = blocks(2e-3)
    a4, b4 = blocks(1e-3)
    for coarse, mid, ref in ((a1, a2, a4), (b1, b2, b4)):
        e1 = np.abs(coarse - ref).max()
        e2 = np.abs(mid - ref).max()
        assert e1 / e2 >= 3.5   # at least second-order convergence


def test_rank_conditions_on_preset_data(nonzero_setup):
    data3 = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 3,
                             known_B=nonzero_setup["objs"].B_rho)
    v3 = check_rank(data3, 3)
    v4 = check_rank(data3, 4)
    assert v3.satisfied and v3.required == 52
    # the reduced condition is implied by the full one
    assert v4.satisfied and v4.required == 36


def test_rank_fails_without_excitation(nonzero_setup):
    cfg, objs = nonzero_setup["cfg"], nonzero_setup["objs"]
    log = simulate(objs.plant, objs.exo, objs.known, objs.im,
                   np.zeros((1, objs.known.n_zeta + objs.im.n_z)),
                   stack_state(objs.exo, objs.known, objs.im, cfg.x0), (0.0, 10.0), 1e-3)
    with pytest.warns(UserWarning):
        data = build_regression(log, SamplingGrid(t0=1.0, dt=0.25, s=30), 4,
                                known_B=objs.B_rho)
    assert not check_rank(data).satisfied


def test_grid_alignment_errors(fullstate_setup):
    log = fullstate_setup["log"]
    with pytest.raises(GridAlignmentError):
        build_regression(log, SamplingGrid(t0=1.0, dt=0.00025, s=10), 1, R=np.eye(1))
    with pytest.raises(GridAlignmentError):
        build_regression(log, SamplingGrid(t0=1.0, dt=1e-10, s=10), 1, R=np.eye(1))
    with pytest.raises(GridAlignmentError):
        build_regression(log, SamplingGrid(t0=1.00033, dt=0.1, s=10), 1, R=np.eye(1))
    with pytest.raises(GridAlignmentError):
        build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=1000), 1, R=np.eye(1))


def test_dt_within_grid_tolerance_is_accepted(fullstate_setup):
    """dt off k*h by less than the config tolerance gives the same blocks."""
    log = fullstate_setup["log"]
    exact = build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=40), 1, R=np.eye(1))
    near = build_regression(log, SamplingGrid(t0=1.0, dt=0.1 + 5e-10, s=40), 1,
                            R=np.eye(1))
    for name in ("delta_a", "I_aa", "I_au"):
        assert np.array_equal(getattr(exact, name), getattr(near, name))


def test_missing_weights_rejected(fullstate_setup):
    log = fullstate_setup["log"]
    grid = fullstate_setup["grid"]
    with pytest.raises(ValueError):
        build_regression(log, grid, 1)              # no R
    with pytest.raises(ValueError):
        build_regression(log, grid, 3)              # no known_B
    with pytest.raises(ValueError):
        build_regression(log, grid, 7, R=np.eye(1))


def test_required_rank_counts():
    dims = {"n_a": 8, "m": 1, "q": 2}
    assert required_rank(3, dims) == 52
    assert required_rank(5, dims) == 52
    assert required_rank(4, dims) == 36
    assert required_rank(6, dims) == 36
    assert required_rank(1, dims) == 44
    assert required_rank(2, dims) == 36


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
    assert "manifest" in files and "I_aa" in files and "delta_a" in files
    loaded = np.loadtxt(files["I_aa"], delimiter=",")
    assert np.array_equal(loaded, data.I_aa)
    import json
    with open(files["manifest"]) as fh:
        manifest = json.load(fh)
    assert manifest["variant"] == 1
    assert manifest["grid"] == {"t0": 1.0, "dt": 0.1, "s": 40}
