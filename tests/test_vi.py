import sys
from collections.abc import Callable
from dataclasses import replace
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np
import pytest

from regvi import vi
from regvi.experiment import export_history_csv, make_vi_config
from regvi.internal_model import Exosystem, InternalModel
from regvi.linalg import vecs
from regvi.observer import ObserverKnown
from regvi.oracle import (build_augmented_aux, compute_parameterization, place_observer_gain,
                          solve_care, verify_theorem4)
from regvi.regression import (VARIANTS, RegressionData, SamplingGrid, build_regression,
                              check_rank)
from regvi.sim import LtiPlant, Tone, simulate, stack_state
from regvi.vi import (RankConditionError, ViConfig, ViResult, _fit_stage, _lstsq,
                      _vec_maps, check_vi_inputs, vi_run)


def rel(a, b):
    return np.linalg.norm(a - b, "fro") / np.linalg.norm(b, "fro")


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_config_validation():
    good = dict(P0=np.eye(2), eps_num=1.0, eps_shift=1.0, eps_conv=0.01,
                max_iters=10, R=np.eye(1))
    cfg = ViConfig(**good)
    assert cfg.eps(0) == pytest.approx(1.0)
    assert cfg.eps(9) == pytest.approx(0.1)
    assert cfg.bound_radius(0) == pytest.approx(1000.0 * 20.0)
    nan = float("nan")
    for bad in (dict(eps_num=-1.0), dict(eps_shift=0.0), dict(eps_conv=0.0),
                dict(bound_scale=0.0), dict(bound_shift=-1.0),
                dict(P0=np.array([[1.0, 2.0], [0.0, 1.0]])),
                dict(eps_num=nan), dict(eps_shift=nan), dict(eps_conv=nan),
                dict(bound_scale=nan), dict(bound_shift=nan),
                dict(R=-np.eye(1)), dict(R=np.zeros((1, 1))), dict(R=[[nan]]),
                dict(R=np.array([[1.0, 0.5], [0.0, 1.0]])),
                dict(max_iters=0), dict(max_iters=-1),
                dict(Q=np.array([[1.0, 0.5], [0.0, 1.0]])), dict(Q=-np.eye(2)),
                dict(Q_y=-np.eye(1)), dict(Q_y=np.array([[1.0, 2.0], [0.0, 1.0]])),
                dict(Q_y=[[nan]]), dict(P0=np.diag([1.0, nan]))):
        with pytest.raises(ValueError):
            ViConfig(**{**good, **bad})
    # the costs may be singular: Q = 0, or ones((3, 3)), whose zero eigenvalues
    # eigvalsh may round below 0 (to -6e-16 with OpenBLAS)
    ViConfig(**good, Q=np.zeros((2, 2)), Q_y=np.ones((3, 3)))


def test_vi_run_requires_weights(fullstate_setup):
    data = fullstate_setup["data"]
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=5.0, eps_shift=5.0, eps_conv=1e-4,
                   max_iters=100, R=np.eye(1))
    with pytest.raises(ValueError):
        vi_run(1, data, cfg)            # Q missing
    cfg.Q = np.eye(3)
    cfg.P0 = np.zeros((3, 3))
    with pytest.raises(ValueError):
        vi_run(1, data, cfg)            # P0 not positive definite


# ---------------------------------------------------------------------------
# Loop mechanics
# ---------------------------------------------------------------------------

def test_full_state_vi_matches_are(fullstate_setup):
    data, sol = fullstate_setup["data"], fullstate_setup["sol"]
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=5.0, eps_shift=5.0, eps_conv=1e-4,
                   max_iters=200000, R=np.eye(1), Q=np.eye(3))
    res = vi_run(1, data, cfg)
    assert res.converged
    assert rel(res.P_final, sol.P) <= 0.02
    # history schema and within-epoch boundedness
    assert res.history.shape == (res.iters, 4)
    for k, j, norm_p, _ in res.history:
        assert norm_p <= cfg.bound_radius(int(j)) + 1e-9


def test_degenerate_zero_cost(fullstate_setup):
    """With Q = 0 the optimal value is zero; VI must converge to P = 0."""
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=5.0, eps_shift=5.0, eps_conv=1e-6,
                   max_iters=200000, R=np.eye(1), Q=np.zeros((3, 3)))
    res = vi_run(1, fullstate_setup["data"], cfg)
    assert res.converged
    assert np.linalg.norm(res.P_final, 2) <= 1e-5


def test_reset_counting(fullstate_setup):
    """A bound radius below ||P0|| forces an escape-and-reset every iteration."""
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=5.0, eps_shift=5.0, eps_conv=1e-6,
                   max_iters=25, R=np.eye(1), Q=np.eye(3),
                   bound_scale=1e-6, bound_shift=1e-6)
    res = vi_run(1, fullstate_setup["data"], cfg)
    assert not res.converged
    assert res.resets == 25
    assert np.array_equal(res.history[:, 1], np.arange(25))   # j increments


@pytest.mark.parametrize("P0_diag, radius, resets", [
    ((1.0, 1.0, 1.0), 1.5, 0),      # ||P~||_2 < radius < ||P~||_F
    ((1.0, 1.0, 1.0), 0.9, 1),      # radius < ||P~||_2
    ((1.0, 0.1, 0.1), 0.9, 1),      # ||P~||_F / sqrt(3) < radius < ||P~||_2
])
def test_bound_test_is_the_exact_norm(fullstate_setup, P0_diag, radius, resets):
    """Iterate 0 escapes the first bound set exactly when ||P~_0||_2 exceeds its
    radius, also where the Frobenius norm would decide otherwise."""
    c = 0.5
    cfg = ViConfig(P0=c * np.diag(P0_diag), eps_num=1e-6, eps_shift=1.0, eps_conv=1e-12,
                   max_iters=1, R=np.eye(1), Q=np.eye(3),
                   bound_scale=radius * c, bound_shift=1.0)
    assert vi_run(1, fullstate_setup["data"], cfg).resets == resets


@pytest.mark.parametrize("ratio, converged", [(1.05, True), (0.9, False)])
def test_convergence_test_is_the_exact_norm(fullstate_setup, ratio, converged):
    """eps_conv a little above or below the step metric ||P~_0 - P0||_2 / eps_0,
    and between its Frobenius bounds ||.||_F / sqrt(n) and ||.||_F: only the
    2-norm decides."""
    data = fullstate_setup["data"]
    cfg = ViConfig(P0=0.5 * np.eye(3), eps_num=1e-6, eps_shift=1.0, eps_conv=1e-12,
                   max_iters=1, R=np.eye(1), Q=np.eye(3))
    metric = vi_run(1, data, cfg).history[0, 3]
    stage, _ = _fit_stage(1, data, cfg)
    eps = cfg.eps(0)
    fro = np.linalg.norm(cfg.P0 + eps * stage.residual(cfg.P0) - cfg.P0) / eps
    eps_conv = ratio * metric
    assert fro / np.sqrt(3) < eps_conv < fro
    assert vi_run(1, data, replace(cfg, eps_conv=eps_conv)).converged == converged


def test_nonconvergence_reported(fullstate_setup):
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=5.0, eps_shift=5.0, eps_conv=1e-12,
                   max_iters=30, R=np.eye(1), Q=np.eye(3))
    res = vi_run(1, fullstate_setup["data"], cfg)
    assert not res.converged and res.iters == 30


def test_rank_gate(fullstate_setup):
    """Insufficient data rows raise before any iteration runs."""
    log = fullstate_setup["log"]
    data = build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=5), 1)
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=5.0, eps_shift=5.0, eps_conv=1e-4,
                   max_iters=10, R=np.eye(1), Q=np.eye(3))
    with pytest.raises(RankConditionError):
        vi_run(1, data, cfg)


@pytest.mark.parametrize("factor, accepted", [(4.0, True), (0.25, False), (0.0, False)])
def test_rank_gate_and_lstsq_share_one_threshold(factor, accepted):
    """sigma_min a little above or below max(shape)*eps*sigma_max, or exactly
    zero: check_rank and the stage's least-squares solve give one verdict."""
    rows, half = 400, 6                 # I_aa of a 3-dimensional state x
    sigma = np.geomspace(1.0, 1e-3, half)
    sigma[-1] = factor * rows * np.finfo(float).eps
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((rows, half)))[0]
    V = np.linalg.qr(rng.standard_normal((half, half)))[0]
    M = (U * sigma) @ V.T               # singular values sigma
    if factor == 0.0:
        M[:, -1] = M[:, 0]              # exactly singular
    data = RegressionData(variant=2, grid=SamplingGrid(0.0, 0.1, rows),
                          dims={"n_a": 3, "m": 1}, delta_a=np.zeros((rows, half)), I_aa=M,
                          I_au=np.zeros((rows, 3)))
    assert check_rank(data).satisfied == accepted
    if accepted:
        assert np.allclose(M @ _lstsq(M, M @ np.ones(half)), M @ np.ones(half))
    else:
        with pytest.raises(RankConditionError):
            _lstsq(M, np.ones(rows))


def reference_vi(stage, cfg):
    """The loop as it stood before the fused update and the eigenvalue norms:
    H and K at every iterate, the residual H + Q - K^T R K, and two SVD 2-norms
    per iterate.  Returns (history, K_final)."""
    half = stage.up.size                # H + Q's rows of the stacked map
    h0 = stage.c0[:half] - cfg.Q.take(stage.up)
    P = cfg.P0.copy()
    norm_P0 = norm_P = np.linalg.norm(P, 2)
    j = 0
    history = np.empty((cfg.max_iters, 4))
    for k in range(cfg.max_iters):
        eps = cfg.eps(k)
        H = (stage.L[:half] @ P.take(stage.up) + h0).take(stage.sym)
        K = stage.gain(P)
        P_tilde = P + eps * (H + cfg.Q - K.T @ cfg.R @ K)
        step_metric = np.linalg.norm(P_tilde - P, 2) / eps
        history[k] = (k, j, norm_P, step_metric)
        norm_P = np.linalg.norm(P_tilde, 2)
        if norm_P > cfg.bound_radius(j):
            P, norm_P = cfg.P0.copy(), norm_P0
            j += 1
            continue
        if step_metric < cfg.eps_conv:
            return history[:k + 1], K
        P = P_tilde
    return history, stage.gain(P)


def test_history_matches_reference_loop_across_blocks(fullstate_setup):
    """300 iterates with resets: the k and j columns and the gain are bitwise
    those of the reference loop, and the norm columns, eigenvalue 2-norms of
    iterates symmetric up to rounding, are within 1e-14 of its SVD 2-norms."""
    data = fullstate_setup["data"]
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=0.5, eps_shift=5.0, eps_conv=1e-12,
                   max_iters=300, R=np.eye(1), Q=np.eye(3), bound_scale=0.2, bound_shift=1.0)
    res = vi_run(1, data, cfg)
    history, K_final = reference_vi(_fit_stage(1, data, cfg)[0], cfg)
    assert res.resets >= 1 and res.iters == 300 and not res.converged
    assert np.array_equal(res.history[:, :2], history[:, :2])
    assert np.max(np.abs(res.history[:, 2:] - history[:, 2:]) / np.abs(history[:, 2:])) <= 1e-14
    assert np.array_equal(res.K_final, K_final)


def test_fused_history_matches_reference_loop(nonzero_setup):
    """Variant 4, whose gain is known: 300 iterates agree with the reference loop."""
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 4)
    cfg = replace(nonzero_setup["vicfg"], max_iters=300)
    res = vi_run(4, data, cfg)
    history, K_final = reference_vi(_fit_stage(4, data, cfg)[0], cfg)
    assert res.iters == 300
    assert np.array_equal(res.history[:, :2], history[:, :2])
    assert np.max(np.abs(res.history[:, 2:] - history[:, 2:]) / np.abs(history[:, 2:])) <= 1e-12
    assert rel(res.K_final, K_final) <= 1e-12


def random_symmetric(n, seed):
    X = np.random.default_rng(seed).standard_normal((n, n))
    return X + X.T


def stage_H_K(stage, P, Q):
    """H and K of the fitted stage at P, read back from its residual H + Q - K^T R K."""
    K = stage.gain(P)
    return stage.residual(P) - Q + K.T @ stage.R @ K, K


TWO_INPUT_R = np.array([[2.0, 0.5], [0.5, 1.0]])


def two_input_log(t_end, v0=0.0, freqs=(1.0, 2.7, 5.3, 9.1)):
    """A 3-state, 2-input, 1-output plant explored up to t_end by one tone per
    frequency, on channels 0 and 1 in turn; the constant exogenous state v0
    reaches only rho's Gamma_av, since E = 0 and F = 0."""
    plant = LtiPlant(A=[[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [0.3, 0.0, -1.5]],
                     B=[[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]], C=[[1.0, 0.0, 0.0]],
                     E=np.zeros((3, 1)), F=np.zeros((1, 1)))
    known = ObserverKnown.from_poles(np.array([-2.0, -3.0, -4.0]), plant.m, plant.p)
    tones = [Tone(1.0, f, channel=i % 2) for i, f in enumerate(freqs)]
    exo, im = Exosystem([[0.0]], [v0]), InternalModel([0.0], 1)
    log = simulate(plant, exo, known, im, np.zeros((plant.m, known.n_zeta + im.n_z)),
                   stack_state(exo, known, im, [1.0, -1.0, 0.5]), (0.0, t_end), 1e-3, tones)
    return plant, known, log


def test_stage_matches_lyapunov_operator_two_inputs():
    """Variant 1 on a 2-input plant: H(P) = A^T P + P A and K(P) = -R^{-1} B^T P."""
    plant, _, log = two_input_log(6.0)
    R = TWO_INPUT_R
    data = build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=40), 1)
    cfg = ViConfig(P0=np.eye(3), eps_num=5.0, eps_shift=5.0, eps_conv=1e-4,
                   max_iters=10, R=R, Q=np.eye(3))
    stage, E = _fit_stage(1, data, cfg)
    assert E is None
    for seed in range(3):
        P = random_symmetric(3, seed)
        H, K = stage_H_K(stage, P, cfg.Q)
        assert rel(H, plant.A.T @ P + P @ plant.A) <= 1e-6
        assert rel(K, -np.linalg.solve(R, plant.B.T @ P)) <= 1e-6


def test_stage_matches_lyapunov_operator_structured(nonzero_setup):
    """Variants 3 and 4 on preset data: H(P) = A_rho^T P + P A_rho, and the
    gain K = -R^{-1} B_rho^T P is an exact function of the iterate."""
    aux, vicfg = nonzero_setup["aux"], nonzero_setup["vicfg"]
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 4)
    for variant in (3, 4):
        stage, _ = _fit_stage(variant, data, vicfg)
        for seed in range(3):
            P = random_symmetric(8, seed)
            H, K = stage_H_K(stage, P, vicfg.Q)
            assert rel(H, aux.A_rho.T @ P + P @ aux.A_rho) <= 1e-3
            assert np.allclose(K, -np.linalg.solve(vicfg.R, aux.B_rho.T) @ P,
                               rtol=0, atol=1e-12)


def _known_gain_case(variant):
    """(data, cfg, B) of a known-gain variant on the 2-input plant: variant 2
    on zeta, B = B_zeta, or variant 3 on rho = col(zeta, z), B = col(B_zeta, 0),
    explored with v = 1 and six tones to t = 20 so that its 65 unknowns,
    vecs(H) and vec(E^T P), have full rank."""
    if variant == 2:
        _, known, log = two_input_log(12.0)
        grid, B = SamplingGrid(t0=1.0, dt=0.1, s=100), known.B_zeta
    else:
        _, known, log = two_input_log(20.0, v0=1.0, freqs=(1.0, 2.7, 5.3, 9.1, 3.9, 7.3))
        grid = SamplingGrid(t0=1.0, dt=0.1, s=180)
        B = np.vstack([known.B_zeta, np.zeros((log.rho.shape[1] - known.n_zeta, 2))])
    data = build_regression(log, grid, variant)
    n = data.dims["n_a"]
    weights = dict(Q_y=np.eye(1)) if variant == 2 else dict(Q=np.eye(n))
    return data, ViConfig(P0=np.eye(n), eps_num=5.0, eps_shift=5.0, eps_conv=1e-4,
                          max_iters=10, R=TWO_INPUT_R, B=B, **weights), B


def test_fused_residual_two_inputs():
    """Known gains with m = 2 and R != I, variant 2 on zeta and variant 3 on
    rho: H + Q's rows of the stacked map, less P M P with M = B R^{-1} B^T, on
    the upper triangle p of P, are (L p + h0).take(sym) + Q - K^T R K with the
    known gain K = -R^{-1} B^T P, and the stage's residual; its K rows are K."""
    R = TWO_INPUT_R
    for variant in (2, 3):
        data, cfg, B = _known_gain_case(variant)
        stage, _ = _fit_stage(variant, data, cfg)
        n, half = len(cfg.P0), stage.up.size
        Q = np.zeros((n, n)) if cfg.Q is None else cfg.Q    # an output cost enters through h0
        L, c0, M = stage.L[:half], stage.c0[:half], B @ np.linalg.solve(R, B.T)
        h0 = c0 - Q.take(stage.up)
        for seed in range(3):
            P = random_symmetric(n, seed)
            p = P.take(stage.up)
            fused = (L @ p + c0).take(stage.sym) - P @ M @ P
            K = -np.linalg.solve(R, B.T @ P)
            H = (L @ p + h0).take(stage.sym)
            assert rel(fused, H + Q - K.T @ R @ K) <= 1e-12
            assert rel(stage.residual(P), fused) <= 1e-12
            assert rel(stage.gain(P), K) <= 1e-12


def test_the_z_weight_is_added_exactly(nonzero_setup):
    """Variant 5 with q_y = 0 fits no cost from data: the constant of H + Q's
    rows is the known state weight blockdiag(0, Q_z) on rho itself, bit for bit."""
    q_z = [[2.0, 0.5], [0.5, 1.0]]
    objs = nonzero_setup["objs"]
    cfg = make_vi_config(replace(nonzero_setup["cfg"], variant=5, q_main=None, q_y=0.0, q_z=q_z),
                         objs)
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 5)
    stage, _ = _fit_stage(5, data, cfg)
    Q = np.zeros((8, 8))
    Q[6:, 6:] = q_z
    assert stage.c0[:stage.up.size].tobytes() == Q.take(stage.up).tobytes()


def test_vi_run_structured_input_errors(nonzero_setup):
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 4)
    vicfg = nonzero_setup["vicfg"]
    with pytest.raises(ValueError):
        vi_run(4, data, replace(vicfg, P0=np.zeros((8, 8))))   # P0 not positive definite
    with pytest.raises(ValueError):
        vi_run(4, data, replace(vicfg, E_structure=None))


# Weights and structure each variant must be given; the rest may stay None.
NEEDS = {1: {"Q"}, 2: {"Q_y", "B"}, 3: {"Q", "B"}, 4: {"Q", "B", "E_structure"},
         5: {"Q", "Q_y", "B"}, 6: {"Q", "Q_y", "B", "E_structure"}}


@pytest.mark.parametrize("variant", sorted(NEEDS))
def test_check_vi_inputs_per_variant(variant):
    full = ViConfig(P0=np.eye(2), eps_num=1.0, eps_shift=1.0, eps_conv=0.01,
                    max_iters=10, R=np.eye(1), Q=np.eye(2), Q_y=np.eye(1), B=np.ones((2, 1)),
                    E_structure=np.eye(2))
    check_vi_inputs(variant, full)
    for name in ("Q", "Q_y", "B", "E_structure"):
        cfg = replace(full, **{name: None})
        if name in NEEDS[variant]:
            with pytest.raises(ValueError):
                check_vi_inputs(variant, cfg)
        else:
            check_vi_inputs(variant, cfg)
    # P0 > 0 is needed for a state cost or to identify E
    zero_P0 = replace(full, P0=np.zeros((2, 2)))
    if variant in (1, 3, 4, 6):
        with pytest.raises(ValueError):
            check_vi_inputs(variant, zero_P0)
    else:
        check_vi_inputs(variant, zero_P0)


# ---------------------------------------------------------------------------
# Convergence against the oracle (preset data, E != 0)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nonzero_vi_runs(nonzero_setup):
    data3 = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 3)
    data4 = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 4)
    vicfg = nonzero_setup["vicfg"]
    return vi_run(3, data3, vicfg), vi_run(4, data4, vicfg)


def test_variant3_matches_oracle(nonzero_setup, nonzero_vi_runs):
    res3, _ = nonzero_vi_runs
    assert res3.converged
    assert rel(res3.P_final, nonzero_setup["sol"].P) <= 0.02


def test_variant4_matches_oracle(nonzero_setup, nonzero_vi_runs):
    _, res4 = nonzero_vi_runs
    assert res4.converged
    assert rel(res4.P_final, nonzero_setup["sol"].P) <= 0.02
    assert rel(res4.E_rho_identified, nonzero_setup["aux"].E_rho) <= 0.01


def test_variant3_variant4_agree(nonzero_vi_runs):
    res3, res4 = nonzero_vi_runs
    assert rel(res3.P_final, res4.P_final) <= 0.01


def test_huge_max_iters_changes_nothing(nonzero_setup, nonzero_vi_runs):
    """The history grows with the loop: max_iters = 10**12 allocates nothing up
    front and gives the preset's run (max_iters 31806) bitwise."""
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 4)
    res = vi_run(4, data, replace(nonzero_setup["vicfg"], max_iters=10**12))
    _, res4 = nonzero_vi_runs
    assert res.converged and res.iters == res4.iters == len(res.history)
    assert np.array_equal(res.history, res4.history)
    assert np.array_equal(res.K_final, res4.K_final)


# ---------------------------------------------------------------------------
# Speculative blocks against the per-iterate loop
# ---------------------------------------------------------------------------

def _pair_norms(*mats):
    return np.abs(np.linalg.eigvalsh(np.array(mats))).max(axis=-1).tolist()


def per_iterate_vi(variant, data, cfg):
    """Reference: the loop one iterate at a time, as it stood before the
    speculative blocks; per iterate the update, one eigvalsh call on the pair
    (P~, P~ - P), the history row, then a reset, a stop or the next iterate."""
    stage, E_identified = vi._fit_stage(variant, data, cfg)
    norm_P0 = _pair_norms(cfg.P0)[0]
    P, norm_P = cfg.P0.copy(), norm_P0
    j = 0
    history = []
    converged = False
    for k in range(cfg.max_iters):
        eps = cfg.eps(k)
        P_tilde = P + eps * stage.residual(P)
        norm_tilde, norm_step = _pair_norms(P_tilde, P_tilde - P)
        step = norm_step / eps
        history.append((k, j, norm_P, step))
        if norm_tilde > cfg.bound_radius(j):
            P, norm_P = cfg.P0.copy(), norm_P0
            j += 1
        elif step < cfg.eps_conv:
            converged = True
            break
        else:
            P, norm_P = P_tilde, norm_tilde
    return ViResult(P_final=P, K_final=stage.gain(P), iters=len(history), resets=j,
                    converged=converged, history=np.array(history).reshape(-1, 4),
                    E_rho_identified=E_identified)


def assert_same_run(res, ref):
    assert (res.iters, res.resets, res.converged) == (ref.iters, ref.resets, ref.converged)
    for name in ("history", "P_final", "K_final"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    if ref.E_rho_identified is not None:
        assert np.array_equal(res.E_rho_identified, ref.E_rho_identified)


def _run_case(request, fixture, variant):
    """(data, cfg) of each variant on the file's fixtures, run to its end."""
    s = request.getfixturevalue(fixture)
    if fixture == "fullstate_setup":        # resets, then 5000 iterates
        return s["data"], ViConfig(P0=0.05 * np.eye(3), eps_num=0.5, eps_shift=5.0,
                                   eps_conv=1e-12, max_iters=5000, R=np.eye(1), Q=np.eye(3),
                                   bound_scale=0.2, bound_shift=1.0)
    if fixture == "output_based_setup":
        if variant == 2:
            return (build_regression(s["log"], s["grid"], 2),
                    replace(s["vicfg"], P0=np.eye(s["known"].n_zeta), Q=None,
                            B=s["known"].B_zeta, E_structure=None))
        return build_regression(s["log"], s["grid"], variant), s["vicfg"]
    if fixture == "exo_stage_cases":
        return s[0][variant]
    data = build_regression(s["log"], s["grid"], variant)
    return data, s["vicfg"]


@pytest.mark.parametrize("fixture, variant", [
    ("fullstate_setup", 1), ("output_based_setup", 2), ("output_based_setup", 5),
    ("output_based_setup", 6), ("nonzero_setup", 3), ("nonzero_setup", 4),
    ("exo_stage_cases", 5), ("exo_stage_cases", 6), ("zero_setup", 6)])
def test_blocks_match_per_iterate_loop(request, fixture, variant):
    """Every variant fixture run to its end: the blocks give the per-iterate
    loop's history, final iterate, gain, counts and verdict bitwise."""
    data, cfg = _run_case(request, fixture, variant)
    ref = per_iterate_vi(variant, data, cfg)
    assert_same_run(vi_run(variant, data, cfg), ref)
    if fixture == "zero_setup":
        assert ref.converged and ref.resets == 7


def _free_run(data, **over):
    """The full-state loop without an escape or a stop, and its config."""
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=0.5, eps_shift=5.0, eps_conv=1e-300,
                   max_iters=200, R=np.eye(1), Q=np.eye(3), bound_scale=1e6, bound_shift=1.0)
    cfg = replace(cfg, **over)
    return per_iterate_vi(1, data, cfg), cfg


@pytest.mark.parametrize("k_escape", [vi.SPEC_ROWS - 1, vi.SPEC_ROWS // 2 - 1])
def test_escape_at_a_chosen_iterate(fullstate_setup, k_escape):
    """The first bound radius between ||P~|| of iterates k_escape - 1 and
    k_escape: the first escape is at the last row of the first 64-row block,
    or in its middle, and the run is the per-iterate loop's."""
    data = fullstate_setup["data"]
    free, cfg = _free_run(data)
    norms = free.history[1:, 2]             # ||P~_k|| is row k + 1's normP
    assert np.all(np.diff(norms[:k_escape + 1]) > 0)
    radius = 0.5 * (norms[k_escape - 1] + norms[k_escape])
    cfg = replace(cfg, bound_scale=radius, bound_shift=1.0)
    ref = per_iterate_vi(1, data, cfg)
    assert ref.history[k_escape + 1, 1] == 1 and ref.history[k_escape, 1] == 0
    assert_same_run(vi_run(1, data, cfg), ref)


@pytest.mark.parametrize("k_stop", [0, vi.SPEC_ROWS, 2 * vi.SPEC_ROWS + 5])
def test_stop_at_a_chosen_iterate(fullstate_setup, k_stop):
    """eps_conv just above iterate k_stop's step metric and below every
    earlier one: a stop at the first row of a block (0, 64) or inside one."""
    data = fullstate_setup["data"]
    free, cfg = _free_run(data)
    metrics = free.history[:, 3]
    assert np.all(metrics[:k_stop] > metrics[k_stop])
    eps_conv = np.nextafter(metrics[k_stop], np.inf)
    cfg = replace(cfg, eps_conv=eps_conv)
    ref = per_iterate_vi(1, data, cfg)
    assert ref.converged and ref.iters == k_stop + 1
    assert_same_run(vi_run(1, data, cfg), ref)


@pytest.mark.parametrize("max_iters", [1, vi.SPEC_ROWS - 1, vi.SPEC_ROWS + 1, 150])
def test_max_iters_cuts_a_block(fullstate_setup, max_iters):
    data = fullstate_setup["data"]
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=0.5, eps_shift=5.0, eps_conv=1e-12,
                   max_iters=max_iters, R=np.eye(1), Q=np.eye(3), bound_scale=0.2,
                   bound_shift=1.0)
    ref = per_iterate_vi(1, data, cfg)
    assert ref.iters == max_iters and not ref.converged
    assert_same_run(vi_run(1, data, cfg), ref)


@pytest.mark.parametrize("eps_num", [50.0, 1e160])
def test_speculation_past_an_escape_is_warning_free(fullstate_setup, eps_num):
    """Steps so large that every early iterate escapes a small bound set, from
    which the quadratic update would overflow in a few steps (eps_num 50), or
    whose step overflows the Frobenius bound's sum of squares itself (1e160).
    No iterate beyond the bound set is stepped from, so no RuntimeWarning (an
    error under this suite's filters), and the resets are the loop's."""
    data = fullstate_setup["data"]
    cfg = ViConfig(P0=0.05 * np.eye(3), eps_num=eps_num, eps_shift=5.0, eps_conv=1e-12,
                   max_iters=300, R=np.eye(1), Q=np.eye(3), bound_scale=0.2, bound_shift=1.0)
    ref = per_iterate_vi(1, data, cfg)
    assert ref.resets >= 10
    assert_same_run(vi_run(1, data, cfg), ref)


class _CountingStage:
    """A fitted stage that counts its residual calls."""

    def __init__(self, stage):
        self.stage, self.calls = stage, 0

    def residual(self, P):
        self.calls += 1
        return self.stage.residual(P)

    def gain(self, P):
        return self.stage.gain(P)


@pytest.mark.parametrize("k_stop", [vi.SPEC_ROWS // 2, 2 * vi.SPEC_ROWS + 5])
def test_a_certain_stop_ends_the_block(fullstate_setup, monkeypatch, k_stop):
    """eps_conv a little above iterate k_stop's step metric in the Frobenius norm,
    which bounds the 2-norm: the loop stops mid-block, at k_stop or before, as
    the per-iterate loop does, and the block steps no iterate past the stop."""
    data = fullstate_setup["data"]
    free, cfg = _free_run(data)
    stage, _ = vi._fit_stage(1, data, cfg)
    P = cfg.P0
    for k in range(k_stop + 1):
        step = cfg.eps(k) * stage.residual(P)
        P = P + step
    cfg = replace(cfg, eps_conv=1.01 * np.linalg.norm(step) / cfg.eps(k_stop))
    ref = per_iterate_vi(1, data, cfg)
    assert ref.converged and ref.iters <= k_stop + 1 and ref.iters % vi.SPEC_ROWS
    stages = []
    fit = vi._fit_stage
    monkeypatch.setattr(vi, "_fit_stage", lambda *a: (stages.append(
        _CountingStage(fit(*a)[0])) or stages[0], None))
    assert_same_run(vi_run(1, data, cfg), ref)
    assert ref.iters <= stages[0].calls <= k_stop + 1
    assert stages[0].calls < -(-ref.iters // vi.SPEC_ROWS) * vi.SPEC_ROWS


class _NanStage(_CountingStage):
    """A fitted stage whose residual has a NaN as its first entry."""

    def residual(self, P):
        res = self.stage.residual(P)
        res[0, 0] = np.nan
        return res


def test_a_nan_iterate_raises(fullstate_setup, monkeypatch):
    """A step with one NaN entry: eigvalsh can give finite norms of such a
    pair (of diag(nan, 1, 2) it gave 0, -0, 2), which a loose stop test would
    accept with a NaN iterate.  NaN propagates without a floating-point flag,
    so the block's own check raises FloatingPointError."""
    data = fullstate_setup["data"]
    _, cfg = _free_run(data, eps_conv=1e6)
    fit = vi._fit_stage
    monkeypatch.setattr(vi, "_fit_stage", lambda *a: (_NanStage(fit(*a)[0]), None))
    with pytest.raises(FloatingPointError, match="not finite"):
        vi_run(1, data, cfg)


def _unvecs(v, n):
    """The symmetric n x n matrix whose vecs is v (the package's former unvecs)."""
    P = np.zeros((n, n))
    i, j = np.triu_indices(n)
    P[i, j] = np.where(i == j, v, 0.5 * v)
    return P + np.triu(P, 1).T


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 12])
def test_vec_maps_match_the_basis_loop(n):
    """D, built by index arithmetic, equals bitwise the map taken column by
    column, vecs of the symmetric part of each vec basis matrix; up reads the
    upper triangle p of a symmetric matrix in vecs order, sym scatters p back,
    and D^T p is its vec, each bitwise; D^T with the off-diagonal rows of p
    halved is the former map U, vec of the matrix whose vecs is each unit vector."""
    basis = np.eye(n * n).reshape(n * n, n, n)
    D_ref = np.column_stack([vecs(0.5 * (B + B.T)) for B in basis])
    U_ref = np.column_stack([_unvecs(e, n).reshape(-1, order="F")
                             for e in np.eye(n * (n + 1) // 2)])
    D, up, sym = _vec_maps(n)
    assert np.array_equal(D, D_ref) and np.array_equal(D.T / D.sum(axis=1), U_ref)
    P = random_symmetric(n, n)
    p = P.take(up)
    assert np.array_equal(p, P[np.triu_indices(n)]) and np.array_equal(p.take(sym), P)
    assert np.array_equal(D.T @ p, P.reshape(-1, order="F"))


# ---------------------------------------------------------------------------
# The stage against a 70-digit reference
# ---------------------------------------------------------------------------

REF_DIGITS = 70


def _dec(X):
    """A float or integer array as an object array of exact Decimals."""
    X = np.asarray(X)
    return np.array([Decimal(x) for x in X.ravel().tolist()], dtype=object).reshape(X.shape)


def _exact_gram(U, W):
    """U^T W of float matrices in Decimals: the products and sums are exact
    integer arithmetic, and each entry is rounded once, to the context."""
    def as_ints(X):                     # X = N * 2**-e exactly
        ratios = [x.as_integer_ratio() for x in X.ravel().tolist()]
        e = max(d.bit_length() for _, d in ratios) - 1
        return np.array([num << e + 1 - d.bit_length() for num, d in ratios],
                        dtype=object).reshape(X.shape), e
    (Nu, eu), (Nw, ew) = as_ints(U), as_ints(W)
    return _dec(Nu.T @ Nw) / (1 << eu + ew)


def _dec_solve(Z, B):
    """Z^-1 B by Gaussian elimination with partial pivoting, in Decimals."""
    n = len(Z)
    A = np.concatenate([Z, B.reshape(n, -1)], axis=1)
    for j in range(n):
        p = j + int(np.argmax(np.abs(A[j:, j])))
        A[[j, p]] = A[[p, j]]
        A[j + 1:] -= np.multiply.outer(A[j + 1:, j] / A[j, j], A[j])
    X = A[:, n:]
    for j in reversed(range(n)):
        X[j] = (X[j] - A[j, j + 1:n] @ X[j + 1:]) / A[j, j]
    return X.reshape(B.shape)


class Reference(NamedTuple):
    lift: np.ndarray        # `stage_lift` of the exact fit
    E: np.ndarray | None    # the identified exogenous matrix
    residual: Callable      # H + Q - K^T R K at an iterate


def stage_lift(stage, variant):
    """The fitted map: all of L, H + Q's and K's rows, on state x, where K is
    fitted; else H + Q's rows of [L | c0]."""
    if VARIANTS[variant].state == "x":
        return stage.L
    half = stage.up.size
    return np.column_stack([stage.L[:half], stage.c0[:half]])


def reference_stage(variant, data, cfg):
    """The stage of one (variant, data) pair, fitted exactly to REF_DIGITS digits.

    The unknowns, vecs(H) with K on state x, with vec(E^T P) where E is
    solved or with vec(W), E = S W, where E is identified, solve one
    least-squares problem over all rows of the data whose rhs is G vec(P) + c
    on all n^2 entries of vec(P).  It is solved by its normal equations,
    formed exactly from the float data and solved in Decimal: E is
    identified at P0 on a rhs without the output cost, which is fitted on
    all the unknowns, vecs(H) and vec(E^T P).  The results are rounded to
    float.
    """
    spec = VARIANTS[variant]
    n = data.dims["n_a"]
    D, up, sym = _vec_maps(n)
    half = up.size
    with localcontext(prec=REF_DIGITS):
        # R on state x and B otherwise act on int a u^T in float, as the fit applies them
        int_au = data.I_au.reshape(len(data.I_au), n, -1)
        U = np.hstack([data.I_aa, -2.0 * (int_au @ cfg.R.T).reshape(len(int_au), -1)]
                      if spec.state == "x" else
                      [data.I_aa] + ([data.Gamma_av] if spec.exo else []))
        Z = _exact_gram(U, U)
        Z_G = _exact_gram(U, data.delta_a)[:, D.argmax(axis=0)]    # of G = delta_a D - 2 Gamma_aBu
        if spec.state != "x":                                       # Gamma_aBu = int a (B u)^T
            Z_G = Z_G - 2 * _exact_gram(U, (int_au @ cfg.B.T).reshape(len(int_au), -1))
        Z_G = Z_G @ _dec(D.T)                                       # on p, vec(P) = D^T p
        Z_c = np.zeros(len(U.T), dtype=object)
        if spec.output_cost:
            Z_c = _exact_gram(U, data.I_yy) @ _dec(vecs(cfg.Q_y))
        to_p = _dec(1.0 / D.sum(axis=1))[:, None]
        Q_up = _dec(np.zeros(half) if cfg.Q is None else cfg.Q.take(up))

    def residual_of(H_Q, K_R_K):
        def residual(P):
            with localcontext(prec=REF_DIGITS):
                Pd = _dec(P)
                return np.array(H_Q(Pd.take(up), Pd).take(sym) - K_R_K(Pd), dtype=float)
        return residual

    with localcontext(prec=REF_DIGITS):
        if spec.state == "x":
            theta = _dec_solve(Z, Z_G)
            L, K_map, R = to_p * theta[:half], theta[half:], _dec(cfg.R)

            def gain(p):
                return (K_map @ p).reshape((-1, n), order="F")
            return Reference(np.array(np.vstack([L, K_map]), dtype=float), None,
                             residual_of(lambda p, P: L @ p + Q_up,
                                         lambda P: gain(P.take(up)).T @ R @ gain(P.take(up))))
        B = _dec(cfg.B)
        M = B @ _dec_solve(_dec(cfg.R), B.T)
        aa = slice(0, half)                 # I_aa's rows and columns of Z
        E = None
        if spec.exo == "solve":             # the joint fit: its rows aa are vecs(H)
            lift = _dec_solve(Z, np.column_stack([Z_G, Z_c]))[aa]
        else:
            lift = np.column_stack([Z_G[aa], Z_c[aa]])
        if spec.exo == "identify":          # W of the joint fit at P0
            S, q = _dec(cfg.E_structure), data.dims["q"]
            r = S.shape[1]
            P0 = _dec(cfg.P0)
            T = np.zeros((n * q, q * r), dtype=object)   # vec(W) -> 2 vec(E^T P0)
            for i in range(n):
                for a in range(q):
                    T[i * q + a, a * r:(a + 1) * r] = 2 * (S.T @ P0)[:, i]
            rhs = Z_G @ P0.take(up)
            Z_hw = np.block([[Z[aa, aa], Z[aa, half:] @ T],
                             [T.T @ Z[half:, aa], T.T @ Z[half:, half:] @ T]])
            hw = _dec_solve(Z_hw, np.concatenate([rhs[aa], T.T @ rhs[half:]]))
            E = S @ hw[half:].reshape((r, q), order="F")
            E_term = np.zeros((n * q, n * n), dtype=object)   # vec(P) -> vec(E^T P)
            for i in range(n):
                E_term[i * q:(i + 1) * q, i * n:(i + 1) * n] = E.T
            lift[:, :half] -= 2 * Z[aa, half:] @ E_term @ _dec(D.T)
        if spec.exo != "solve":             # the fit on I_aa alone
            lift = _dec_solve(Z[aa, aa], lift)
        if spec.exo == "identify":          # but the output cost's on all the unknowns
            lift[:, -1] = _dec_solve(Z, Z_c)[aa]
        lift = to_p * lift
        lift[:, -1] += Q_up
        return Reference(np.array(lift, dtype=float),
                         None if E is None else np.array(E, dtype=float),
                         residual_of(lambda p, P: lift @ np.append(p, 1), lambda P: P @ M @ P))


def random_spd(n, seed):
    """A random symmetric positive definite matrix, exactly symmetric."""
    X = np.random.default_rng(seed).standard_normal((n, n))
    S = X @ X.T + n * np.eye(n)
    return 0.5 * (S + S.T)


@pytest.fixture(scope="module")
def exo_stage_cases(nonzero_setup):
    """(data, cfg) per variant on paper-e-nonzero data, and the iterates: P0
    and three random symmetric matrices."""
    objs, vicfg = nonzero_setup["objs"], nonzero_setup["vicfg"]
    n, n_zeta = objs.plant.n, objs.known.n_zeta
    output_cfg = replace(vicfg, Q=np.pad(np.eye(objs.im.n_z), (n_zeta, 0)), Q_y=np.eye(1))
    cases = {1: replace(vicfg, P0=np.eye(n), Q=np.eye(n), B=None, E_structure=None),
             2: replace(output_cfg, P0=np.eye(n_zeta), Q=None, B=objs.known.B_zeta,
                        E_structure=None),
             3: vicfg, 4: vicfg, 5: output_cfg, 6: output_cfg}
    for variant, cfg in cases.items():
        data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], variant)
        cases[variant] = data, cfg
    return cases, [vicfg.P0] + [random_symmetric(8, seed) for seed in range(3)]


def _two_input_case(variant):
    """(data, cfg) of variant 1 or 2 on the 2-input plant of `two_input_log`."""
    _, known, log = two_input_log(12.0)
    data = build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=100), variant)
    n = data.dims["n_a"]
    weights = dict(Q=np.eye(n)) if variant == 1 else dict(Q_y=np.eye(1), B=known.B_zeta)
    return data, ViConfig(P0=np.eye(n), eps_num=5.0, eps_shift=5.0, eps_conv=1e-4,
                          max_iters=10, R=TWO_INPUT_R, **weights)


@pytest.fixture(scope="module")
def reference_cases(exo_stage_cases, zero_setup):
    """case(plant, variant) -> (data, cfg, reference), each reference built once:
    every variant on paper-e-nonzero data, variants 2 and 6 on paper-e-zero's
    and variants 1 and 2 on the 2-input plant."""
    built = {}

    def case(plant, variant):
        if (plant, variant) not in built:
            if plant == "nonzero":
                data, cfg = exo_stage_cases[0][variant]
            elif plant == "zero":
                objs = zero_setup["objs"]
                cfg = make_vi_config(replace(zero_setup["cfg"], variant=variant), objs)
                data = build_regression(zero_setup["log"], zero_setup["grid"], variant)
            else:
                data, cfg = _two_input_case(variant)
            built[plant, variant] = data, cfg, reference_stage(variant, data, cfg)
        return built[plant, variant]
    return case


REFERENCE_CASES = ([("nonzero", v) for v in sorted(VARIANTS)]
                   + [("zero", 2), ("zero", 6), ("two_input", 1), ("two_input", 2)])

# The relative errors against the reference of the fit before one QR per
# stage (a complete QR of I_aa, a second QR for the exogenous system and
# lstsq on state x), as the tests below measure them: the fitted map, the
# identified E and the largest residual at P0 and three random positive
# definite iterates.  The fit must stay within twice each, or within
# ROUNDING_NOISE.  Variants 3 and 5 on paper-e-nonzero are the errors of the
# free fit of vec(E^T P) as first measured, not of the former estimator
# (E = S W solved at every iterate): the joint matrix [I_aa, Gamma_av] has
# cond 4.45e11, so cond * eps is 5e-5, and H's rows err by far more than
# they did on the structured fit, though far below the gain's error against
# the oracle.
FORMER_FIT_ERRORS = {
    ("nonzero", 1): {"lift": 1.666e-15, "residual": 1.461e-15},
    ("nonzero", 2): {"lift": 4.114e-15, "residual": 4.433e-15},
    ("nonzero", 3): {"lift": 3.010e-8, "residual": 3.866e-8},
    ("nonzero", 4): {"lift": 1.972e-10, "E": 7.371e-11, "residual": 1.704e-10},
    ("nonzero", 5): {"lift": 7.593e-10, "residual": 2.872e-9},
    ("nonzero", 6): {"lift": 4.552e-12, "E": 7.371e-11, "residual": 2.112e-11},
    ("zero", 2): {"lift": 1.793e-7, "residual": 9.547e-7},
    ("zero", 6): {"lift": 5.326e-7, "E": 1.178e-14, "residual": 2.111e-6},
    ("two_input", 1): {"lift": 9.825e-15, "residual": 1.350e-14},
    ("two_input", 2): {"lift": 2.044e-10, "residual": 1.165e-9}}
# About 450 units of rounding: below it an error measures the order of the
# sums, not the method.  Paper-e-zero's identified E, fitted by six orderings
# of the same exact arithmetic, erred from 3.4e-14 to 7.6e-14.
ROUNDING_NOISE = 1e-13


def _within_former(plant, variant, name, error):
    assert error <= max(2.0 * FORMER_FIT_ERRORS[plant, variant][name], ROUNDING_NOISE)


@pytest.mark.parametrize("plant, variant", [pytest.param("nonzero", 4, id="4"),
                                            pytest.param("nonzero", 6, id="6"),
                                            pytest.param("zero", 6, id="zero-6")])
def test_identified_E_matches_full_projection(reference_cases, plant, variant):
    data, cfg, reference = reference_cases(plant, variant)
    stage, E = _fit_stage(variant, data, cfg)
    assert stage.L.shape == (36 + 8, 36)   # H + Q's triangle on vec(K), m = 1
    _within_former(plant, variant, "E", rel(E, reference.E))


@pytest.mark.parametrize("plant, variant", REFERENCE_CASES)
def test_lift_matches_the_reference(reference_cases, plant, variant):
    """The fitted map of H + Q (and K on state x) is the exact fit's, within
    twice the former fit's error."""
    data, cfg, reference = reference_cases(plant, variant)
    stage, _ = _fit_stage(variant, data, cfg)
    _within_former(plant, variant, "lift", rel(stage_lift(stage, variant), reference.lift))


@pytest.mark.parametrize("plant, variant", REFERENCE_CASES)
def test_residual_matches_the_full_vec_stage(reference_cases, plant, variant):
    """On exactly symmetric iterates, P0 and three random positive definite
    ones, the stage on the upper triangle gives the residual of the exact fit
    on all of vec(P), within twice the former fit's error: every variant on
    paper-e-nonzero data, variants 2 and 6 on paper-e-zero's and variants 1
    and 2 on the 2-input plant (m = 2, so K has two rows)."""
    data, cfg, reference = reference_cases(plant, variant)
    stage, _ = _fit_stage(variant, data, cfg)
    n = cfg.P0.shape[0]
    _within_former(plant, variant, "residual", max(
        rel(stage.residual(P), reference.residual(P))
        for P in [cfg.P0] + [random_spd(n, seed) for seed in range(3)]))


@pytest.mark.parametrize("fixture, variant", [
    ("fullstate_setup", 1), ("output_based_setup", 2), ("nonzero_setup", 3),
    ("nonzero_setup", 4), ("output_based_setup", 5), ("output_based_setup", 6)])
def test_fit_is_one_r_factor(request, monkeypatch, fixture, variant):
    """The stage fit factors once, by `np.linalg.qr` with mode "r", and no
    function it reaches returns or holds an array with as many rows and
    columns as the data has rows (120 on paper-e-nonzero), such as a complete Q."""
    data, cfg = _run_case(request, fixture, variant)
    rows, modes, large, qr = len(data.I_aa), [], [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": modes.append(mode) or qr(a, mode))

    def profile(frame, event, arg):
        if event == "return":
            values = [arg, *(arg if isinstance(arg, tuple) else ()), *frame.f_locals.values()]
            large.extend(v.shape for v in values if isinstance(v, np.ndarray)
                         and v.ndim >= 2 and min(v.shape[-2:]) >= rows)
    sys.setprofile(profile)
    try:
        vi._fit_stage(variant, data, cfg)
    finally:
        sys.setprofile(None)
    assert modes == ["r"] and large == []


@pytest.mark.parametrize("seed", [1, 9, 14, 28])
def test_zero_preset_converges_on_held_out_phases(zero_setup, seed):
    """paper-e-zero with every exploration tone phase redrawn from U(-0.1, 0.1)
    rad by numpy.random.default_rng(seed), one draw per tone in order."""
    cfg, objs = zero_setup["cfg"], zero_setup["objs"]
    rng = np.random.default_rng(seed)
    tones = [Tone(**{**t, "phase": float(rng.uniform(-0.1, 0.1))}) for t in cfg.tones]
    log = simulate(objs.plant, objs.exo, objs.known, objs.im, np.array(cfg.k0),
                   stack_state(objs.exo, objs.known, objs.im, cfg.x0, cfg.zeta0, cfg.z0),
                   (0.0, cfg.t_switch), cfg.h, tones)
    data = build_regression(log, zero_setup["grid"], cfg.variant)
    assert vi_run(cfg.variant, data, zero_setup["vicfg"]).converged


# ---------------------------------------------------------------------------
# Output-based variants vs the state/output LQR equivalence (well-conditioned
# scenario: every plant mode reachable, so no near-degenerate data direction)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def output_based_setup():
    plant = LtiPlant(A=[[0.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1.0]],
                     C=[[1.0, 0.0]], E=np.zeros((2, 2)), F=[[1.0, 0.0]])
    exo = Exosystem([[0.0, 1.0], [-1.0, 0.0]], [2.0, 1.0])
    known = ObserverKnown.from_poles(np.array([-3.0, -4.0]), plant.m, plant.p)
    im = InternalModel([1.0, 0.0], 1)
    B_rho = np.vstack([known.B_zeta, np.zeros((im.n_z, 1))])
    tones = [Tone(5.0, 1.3), Tone(5.0, 2.9), Tone(-5.0, 4.7),
             Tone(5.0, 7.1), Tone(-5.0, 9.3)]
    n_rho = known.n_zeta + im.n_z
    log = simulate(plant, exo, known, im, np.zeros((1, n_rho)),
                   stack_state(exo, known, im, [1.0, -0.5]), (0.0, 24.0), 1e-3, tones)
    grid = SamplingGrid(t0=2.0, dt=0.2, s=100)
    S = np.zeros((n_rho, 2))
    S[:known.n_zeta, :1] = known.E_zeta
    S[known.n_zeta:, 1:] = im.G2
    vicfg = ViConfig(P0=np.eye(n_rho), eps_num=8.0, eps_shift=10.0, eps_conv=1e-3,
                     max_iters=100000, R=np.eye(1), Q_y=np.eye(1), B=B_rho,
                     Q=np.pad(np.eye(im.n_z), (known.n_zeta, 0)), E_structure=S,
                     bound_scale=1000.0, bound_shift=200.0)
    L = place_observer_gain(plant.A, plant.C, np.array([-3.0, -4.0]))
    M = compute_parameterization(plant, L, known)
    aux = build_augmented_aux(plant, L, M, known, im, exo)
    t4 = verify_theorem4(plant, aux, im, np.eye(1 + im.n_z), np.eye(1))
    P_lift = aux.W.T @ t4.P_xi @ aux.W
    return {"plant": plant, "im": im, "known": known, "B_rho": B_rho, "M": M,
            "log": log, "grid": grid, "vicfg": vicfg, "P_lift": P_lift}


def test_variant2_matches_lifted_solution(output_based_setup):
    """Output-based LQR on zeta: P = M^T P_x M with P_x the LQR solution for y^T y."""
    s = output_based_setup
    plant, M = s["plant"], s["M"]
    data = build_regression(s["log"], s["grid"], 2)
    vicfg = replace(s["vicfg"], P0=np.eye(s["known"].n_zeta), Q=None, B=s["known"].B_zeta,
                    E_structure=None)
    res = vi_run(2, data, vicfg)
    assert res.converged
    P_x = solve_care(plant.A, plant.B, plant.C.T @ plant.C, np.eye(1)).P
    assert rel(res.P_final, M.T @ P_x @ M) <= 0.02


def test_variant5_matches_lifted_solution(output_based_setup):
    s = output_based_setup
    data = build_regression(s["log"], s["grid"], 5)
    res = vi_run(5, data, s["vicfg"])
    assert res.converged
    assert rel(res.P_final, s["P_lift"]) <= 0.02


def test_variant6_matches_lifted_solution(output_based_setup):
    s = output_based_setup
    data = build_regression(s["log"], s["grid"], 6)
    res = vi_run(6, data, s["vicfg"])
    assert res.converged
    assert rel(res.P_final, s["P_lift"]) <= 0.02
    E_true = np.vstack([np.zeros((s["known"].n_zeta, 2)),
                        s["im"].G2 @ s["plant"].F])
    assert rel(res.E_rho_identified, E_true) <= 0.02


# ---------------------------------------------------------------------------
# History export
# ---------------------------------------------------------------------------

def test_history_csv_matches_per_row_format(tmp_path):
    rows = 300   # not a multiple of the writer's block of rows
    rng = np.random.default_rng(0)
    history = np.column_stack([np.arange(31000, 31000 + rows), np.arange(rows) // 7,
                               rng.lognormal(5.0, 3.0, rows), rng.lognormal(0.0, 4.0, rows)])
    history[17, 3] = np.nan
    result = ViResult(P_final=np.eye(1), K_final=np.eye(1), iters=rows, resets=0,
                      converged=True, history=history)
    path = tmp_path / "vi_history.csv"
    export_history_csv(result, path)
    expected = "k,j,normP,step_metric\n" + "".join(
        "%d,%d,%.17g,%.17g\n" % (int(k), int(j), norm_p, metric)
        for k, j, norm_p, metric in history)
    assert path.read_text() == expected
