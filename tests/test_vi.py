from dataclasses import replace

import numpy as np
import pytest

from regvi.internal_model import build_p_copy, recast_exosystem
from regvi.observer import ObserverKnown
from regvi.oracle import (LtiPlant, compute_parameterization,
                          place_observer_gain, solve_care, verify_theorem4)
from regvi.regression import (RegressionData, SamplingGrid, build_regression,
                              check_rank)
from regvi.sim import Tone, simulate, stack_state
from regvi.vi import (RankConditionError, ViConfig, ViResult, _fit_stage, _lstsq,
                      check_vi_inputs, export_history_csv, vi_run)


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
                dict(R=np.array([[1.0, 0.5], [0.0, 1.0]]))):
        with pytest.raises(ValueError):
            ViConfig(**{**good, **bad})


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
    with pytest.warns(UserWarning):
        data = build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=5), 1,
                                R=np.eye(1))
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
                          dims={"n_a": 3, "m": 1}, delta_a=np.zeros((rows, half)), I_aa=M)
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
    n = cfg.P0.shape[0]
    h0 = stage.c0 - cfg.Q.reshape(-1, order="F")
    P = cfg.P0.copy()
    norm_P0 = norm_P = np.linalg.norm(P, 2)
    j = 0
    history = np.empty((cfg.max_iters, 4))
    for k in range(cfg.max_iters):
        eps = cfg.eps(k)
        H = (stage.L @ P.reshape(-1, order="F") + h0).reshape((n, n), order="F")
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
    """Variant 4, whose update is fused: 300 iterates agree with the reference loop."""
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 4,
                            known_B=nonzero_setup["objs"].B_rho)
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


def two_input_log(t_end):
    """A 3-state, 2-input, 1-output plant explored by four tones up to t_end."""
    plant = LtiPlant(A=[[-1.0, 0.5, 0.0], [0.0, -2.0, 1.0], [0.3, 0.0, -1.5]],
                     B=[[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]], C=[[1.0, 0.0, 0.0]],
                     E=np.zeros((3, 1)), F=np.zeros((1, 1)))
    known = ObserverKnown.from_poles([-2.0, -3.0, -4.0], plant.m, plant.p)
    tones = [Tone(1.0, 1.0, channel=0), Tone(1.0, 2.7, channel=1),
             Tone(1.0, 5.3, channel=0), Tone(1.0, 9.1, channel=1)]
    exo, im = recast_exosystem([0.0], [0.0]), build_p_copy([0.0], 1)
    log = simulate(plant, exo, known, im, np.zeros((plant.m, known.n_zeta + im.n_z)),
                   stack_state(exo, known, im, [1.0, -1.0, 0.5]), (0.0, t_end), 1e-3, tones)
    return plant, known, log


def test_stage_matches_lyapunov_operator_two_inputs():
    """Variant 1 on a 2-input plant: H(P) = A^T P + P A and K(P) = -R^{-1} B^T P."""
    plant, _, log = two_input_log(6.0)
    R = TWO_INPUT_R
    data = build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=40), 1, R=R)
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
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 4,
                            known_B=aux.B_rho)
    for variant in (3, 4):
        stage, _ = _fit_stage(variant, data, vicfg)
        for seed in range(3):
            P = random_symmetric(8, seed)
            H, K = stage_H_K(stage, P, vicfg.Q)
            assert rel(H, aux.A_rho.T @ P + P @ aux.A_rho) <= 1e-3
            assert np.allclose(K, -np.linalg.solve(vicfg.R, aux.B_rho.T) @ P,
                               rtol=0, atol=1e-12)


def test_fused_residual_two_inputs():
    """Variant 2 with m = 2: the fused residual unvec(L vec P + c0) - P M P is
    unvec(L vec P + h0) + Q - K^T R K with the known gain K = -R^{-1} B^T P."""
    _, known, log = two_input_log(12.0)
    R, B = TWO_INPUT_R, known.B_zeta
    data = build_regression(log, SamplingGrid(t0=1.0, dt=0.1, s=100), 2, R=R, known_B=B)
    cfg = ViConfig(P0=np.eye(known.n_zeta), eps_num=5.0, eps_shift=5.0, eps_conv=1e-4,
                   max_iters=10, R=R, Q_y=np.eye(1))
    stage, _ = _fit_stage(2, data, cfg)
    n = known.n_zeta
    Q = np.zeros((n, n))                # the output cost enters through h0
    h0 = stage.c0 - Q.reshape(-1, order="F")
    for seed in range(3):
        P = random_symmetric(n, seed)
        p = P.reshape(-1, order="F")
        fused = (stage.L @ p + stage.c0).reshape((n, n), order="F") - P @ stage.M @ P
        K = -np.linalg.solve(R, B.T @ P)
        H = (stage.L @ p + h0).reshape((n, n), order="F")
        assert rel(fused, H + Q - K.T @ R @ K) <= 1e-12
        assert rel(stage.residual(P), fused) <= 1e-12
        assert rel(stage.gain(P), K) <= 1e-12


def test_vi_run_structured_input_errors(nonzero_setup):
    data = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 4,
                            known_B=nonzero_setup["objs"].B_rho)
    vicfg = nonzero_setup["vicfg"]
    with pytest.raises(ValueError):
        vi_run(4, data, replace(vicfg, P0=np.zeros((8, 8))))   # P0 not positive definite
    with pytest.raises(ValueError):
        vi_run(3, data, replace(vicfg, E_structure=None))


# Weights and structure each variant must be given; the rest may stay None.
NEEDS = {1: {"Q"}, 2: {"Q_y"}, 3: {"Q", "E_structure"}, 4: {"Q", "E_structure"},
         5: {"Q_y", "Q_z", "E_structure"}, 6: {"Q_y", "Q_z", "E_structure"}}


@pytest.mark.parametrize("variant", sorted(NEEDS))
def test_check_vi_inputs_per_variant(variant):
    full = ViConfig(P0=np.eye(2), eps_num=1.0, eps_shift=1.0, eps_conv=0.01,
                    max_iters=10, R=np.eye(1), Q=np.eye(2), Q_y=np.eye(1),
                    Q_z=np.eye(1), E_structure=np.eye(2))
    check_vi_inputs(variant, full)
    for name in ("Q", "Q_y", "Q_z", "E_structure"):
        cfg = replace(full, **{name: None})
        if name in NEEDS[variant]:
            with pytest.raises(ValueError):
                check_vi_inputs(variant, cfg)
        else:
            check_vi_inputs(variant, cfg)
    zero_P0 = replace(full, P0=np.zeros((2, 2)))
    if variant in (1, 3, 4, 5, 6):
        with pytest.raises(ValueError):
            check_vi_inputs(variant, zero_P0)
    else:
        check_vi_inputs(variant, zero_P0)


# ---------------------------------------------------------------------------
# Convergence against the oracle (preset data, E != 0)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nonzero_vi_runs(nonzero_setup):
    data3 = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 3,
                             known_B=nonzero_setup["objs"].B_rho)
    data4 = build_regression(nonzero_setup["log"], nonzero_setup["grid"], 4,
                             known_B=nonzero_setup["objs"].B_rho)
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


@pytest.mark.parametrize("seed", [1, 9, 14, 28])
def test_zero_preset_converges_on_held_out_phases(zero_setup, seed):
    """paper-e-zero with every exploration tone phase redrawn from U(-0.1, 0.1)
    rad by numpy.random.default_rng(seed), one draw per tone in order."""
    cfg, objs = zero_setup["cfg"], zero_setup["objs"]
    rng = np.random.default_rng(seed)
    tones = [Tone(**{**t, "phase": float(rng.uniform(-0.1, 0.1))}) for t in cfg.tones]
    K0 = np.hstack([cfg.k0, np.zeros((objs.plant.m, objs.im.n_z))])
    log = simulate(objs.plant, objs.exo, objs.known, objs.im, K0,
                   stack_state(objs.exo, objs.known, objs.im, cfg.x0, cfg.zeta0, cfg.z0),
                   (0.0, cfg.t_switch), cfg.h, tones)
    data = build_regression(log, zero_setup["grid"], cfg.variant, known_B=objs.B_rho)
    assert vi_run(cfg.variant, data, zero_setup["vicfg"]).converged


# ---------------------------------------------------------------------------
# Output-based variants vs the state/output LQR equivalence (well-conditioned
# scenario: every plant mode reachable, so no near-degenerate data direction)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def output_based_setup():
    plant = LtiPlant(A=[[0.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1.0]],
                     C=[[1.0, 0.0]], E=np.zeros((2, 2)), F=[[1.0, 0.0]])
    exo = recast_exosystem([1.0, 0.0], [2.0, 1.0])
    known = ObserverKnown.from_poles([-3.0, -4.0], plant.m, plant.p)
    im = build_p_copy([1.0, 0.0], 1)
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
                     max_iters=100000, R=np.eye(1), Q_y=np.eye(1),
                     Q_z=np.eye(im.n_z), E_structure=S,
                     bound_scale=1000.0, bound_shift=200.0)
    L = place_observer_gain(plant.A, plant.C, np.array([-3.0, -4.0]))
    param = compute_parameterization(plant, L, known.companion.alpha)
    t4 = verify_theorem4(plant, param, im, np.eye(1 + im.n_z), np.eye(1))
    P_lift = t4.W.T @ t4.P_xi @ t4.W
    return {"plant": plant, "im": im, "known": known, "B_rho": B_rho, "M": param.M,
            "log": log, "grid": grid, "vicfg": vicfg, "P_lift": P_lift}


def test_variant2_matches_lifted_solution(output_based_setup):
    """Output-based LQR on zeta: P = M^T P_x M with P_x the LQR solution for y^T y."""
    s = output_based_setup
    plant, M = s["plant"], s["M"]
    data = build_regression(s["log"], s["grid"], 2, R=np.eye(1),
                            known_B=s["known"].B_zeta)
    vicfg = replace(s["vicfg"], P0=np.eye(s["known"].n_zeta), Q_z=None, E_structure=None)
    res = vi_run(2, data, vicfg)
    assert res.converged
    P_x = solve_care(plant.A, plant.B, plant.C.T @ plant.C, np.eye(1)).P
    assert rel(res.P_final, M.T @ P_x @ M) <= 0.02


def test_variant5_matches_lifted_solution(output_based_setup):
    s = output_based_setup
    data = build_regression(s["log"], s["grid"], 5, known_B=s["B_rho"])
    res = vi_run(5, data, s["vicfg"])
    assert res.converged
    assert rel(res.P_final, s["P_lift"]) <= 0.02


def test_variant6_matches_lifted_solution(output_based_setup):
    s = output_based_setup
    data = build_regression(s["log"], s["grid"], 6, known_B=s["B_rho"])
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
