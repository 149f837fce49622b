"""Every variant closes the loop: its learned gain acts on x, zeta or rho by
its width, through `regvi run` and on a two-input plant."""

import dataclasses
import json

import numpy as np
import pytest

from regvi import cli
from regvi.experiment import PRESETS, build_objects, run_experiment, serialize_config
from regvi.regression import VARIANTS


def _gain_width(cfg, variant):
    """Columns of the variant's learned gain: n on x, n_zeta on zeta, n_rho on rho."""
    objs = build_objects(cfg)
    n_zeta = objs.known.n_zeta
    return {"x": objs.plant.n, "zeta": n_zeta, "rho": n_zeta + objs.im.n_z}[
        VARIANTS[variant].state]


# (iterations, resets, gain error) of the no-disturbance baselines on the cut
# paper-e-zero config: variant 1 against the CARE on (A, B) with Q = q_main,
# variant 2 against the CARE's gain with Q = C^T Q_y C, lifted to zeta by M.
# Variant 2's stage on this data is held to the 70-digit reference in
# tests/test_vi.py (case zero-2).
ZERO_BASELINE_RUNS = {1: (8, 0, 9.94e-3), 2: (347, 7, 3.78e-6)}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_variant_runs_through_the_cli(variant, tmp_path):
    """paper-e-zero cut to t_end 30 with every weight set exits 0 for each
    variant, blinded or not, and writes an m x (n, n_zeta or n_rho) gain;
    the unblinded report of variants 1 and 2 compares it with the oracle's."""
    cfg = dataclasses.replace(PRESETS["paper-e-zero"](), variant=variant, t_end=30.0,
                              settle_time=29.0, q_main=1.0, q_y=1.0, q_z=1.0)
    path = tmp_path / "config.json"
    path.write_text(serialize_config(cfg))
    gains = []
    for flags in ([], ["--blinded"]):
        out = tmp_path / ("out%d" % len(flags))
        assert cli.main(["run", str(path), "--out-dir", str(out), *flags]) == cli.EXIT_OK
        gains.append((out / "learned_gain.csv").read_bytes())
    K = np.loadtxt(tmp_path / "out0" / "learned_gain.csv", delimiter=",", ndmin=2)
    assert K.shape == (1, _gain_width(cfg, variant))
    assert gains[0] == gains[1]
    if variant in ZERO_BASELINE_RUNS:
        report = json.loads((tmp_path / "out0" / "report.json").read_text())
        iters, resets, gain_error = ZERO_BASELINE_RUNS[variant]
        assert (report["iters"], report["resets"]) == (iters, resets)
        assert report["gain_error"] == pytest.approx(gain_error, rel=5e-3)


def two_input_config(variant):
    """An m = 2, p = 1 plant under paper-e-nonzero's tones and VI parameters:
    the preset's five tones on channel 0 and the same five, 0.5 rad/s higher,
    on channel 1.  k0 is the oracle CARE gain on (A_rho, B_rho) with Q = I8,
    R = I2, written as a literal since a user has no oracle."""
    base = PRESETS["paper-e-nonzero"]()
    tones = base.tones + [{**t, "frequency": t["frequency"] + 0.5, "channel": 1}
                          for t in base.tones]
    return dataclasses.replace(
        base, name="two-input", plant_a=[[0.0, 1.0], [-1.0, -0.5]],
        plant_b=[[1.0, 0.0], [0.0, 1.0]], plant_c=[[1.0, 0.3]],
        plant_e=[[1.0, 0.0], [0.0, 0.5]], plant_f=[[0.5, -0.8]], x0=[1.0, -0.5],
        observer_poles=[-5.0, -6.0], tones=tones, variant=variant,
        k0=[[8.159318692616365, -1.0062259376651794, -1.5128216241709036,
             -0.5702682431823948, -27.30572435514404, -18.204400668581975,
             0.10291155633702997, -1.192251591757618],
            [15.42900494704028, -0.5702682431823948, -1.6149767412163254,
             -0.7426140943884459, -15.536660415499808, -21.033143165174103,
             0.4463050769434644, -0.6072537622923428]],
        q_main=1.0, q_y=1.0, q_z=1.0)


# (iterations, resets) of each variant on the two-input plant, then the bound
# on its gain error against the oracle.  Variants 1 and 2 assume no
# disturbance, and E != 0 here, so their gains leak the v terms.  Variant 5's
# bound is twice its measured 1.45e-4.
TWO_INPUT_RUNS = {1: (545, 0, 3e-2), 2: (2385, 0, 2e-1), 3: (3060, 0, 1e-5),
                  4: (3060, 0, 1e-5), 5: (2818, 0, 2.9e-4), 6: (2904, 0, 2e-2)}


@pytest.mark.parametrize("variant", sorted(TWO_INPUT_RUNS))
def test_two_input_plant_learns_with_every_variant(variant, tmp_path):
    """The first m > 1 run end to end: each variant converges and closes the
    loop with its m x (n, n_zeta or n_rho) gain near the oracle's; the
    regulators (3-6) track, and identifying E (4 and 6) recovers it."""
    cfg = two_input_config(variant)
    report = run_experiment(cfg, str(tmp_path))
    iters, resets, gain_bound = TWO_INPUT_RUNS[variant]
    assert report.converged and (report.iters, report.resets) == (iters, resets)
    K = np.loadtxt(tmp_path / "learned_gain.csv", delimiter=",", ndmin=2)
    assert K.shape == (2, _gain_width(cfg, variant))
    assert report.gain_error <= gain_bound
    if VARIANTS[variant].state == "rho":
        assert report.tracking_max_error <= 1e-6
    if VARIANTS[variant].exo == "identify":
        assert report.e_rho_error <= 1e-7


# (iterations, resets, gain error bound) of paper-e-nonzero cut to t_end 44,
# whose learning phase is the preset's, with E solved: variant 3, and variant
# 5 with q_y = q_z = 1.  Each bound is twice the gain error measured when
# vec(E^T P) became free unknowns of the fit, 1.357e-6 and 1.648e-6; with
# E = S W solved at every iterate, variant 5 erred 1.05e-2.
SOLVED_E_RUNS = {3: (5574, 0, 2.7e-6), 5: (5454, 0, 3.3e-6)}


@pytest.mark.parametrize("variant", sorted(SOLVED_E_RUNS))
def test_solved_E_preset_fits_without_lstsq(variant, tmp_path, counted_lstsq):
    """paper-e-nonzero with E solved converges with no reset to a gain near
    the oracle's; its stage is one triangular solve, so `vi._lstsq`, which
    only identifies E, is never called."""
    weights = {"q_y": 1.0, "q_z": 1.0} if variant == 5 else {}
    cfg = dataclasses.replace(PRESETS["paper-e-nonzero"](), variant=variant, t_end=44.0,
                              settle_time=42.0, **weights)
    report = run_experiment(cfg, str(tmp_path))
    iters, resets, gain_bound = SOLVED_E_RUNS[variant]
    assert report.converged and (report.iters, report.resets) == (iters, resets)
    assert report.gain_error <= gain_bound and counted_lstsq == [0]
