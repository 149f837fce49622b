import dataclasses
import json
import os

import numpy as np
import pytest

from regvi.experiment import (PRESETS, ConfigError, ExperimentConfig,
                              NotConvergedError, build_objects, parse_config,
                              run_experiment, serialize_config, validate_config,
                              verify)
from regvi.vi import RankConditionError


def test_presets_listed_and_valid():
    assert set(PRESETS) == {"paper-e-zero", "paper-e-nonzero"}
    for factory in PRESETS.values():
        cfg = factory()
        objs = validate_config(cfg)
        assert objs.plant.n == 3 and objs.known.n_zeta == 6 and objs.im.n_z == 2


def test_config_roundtrip():
    for factory in PRESETS.values():
        cfg = factory()
        assert parse_config(serialize_config(cfg)) == cfg


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"name": "x", "unexpected_field": 1}))


@pytest.mark.parametrize("patch", [
    {"variant": 7},
    {"h": -1e-3},
    {"t_switch": 90.0},                    # must precede t_end
    {"x0": [1.0, 2.0]},                    # wrong plant dimension
    {"p_copies": 2},                       # internal model needs p copies
    {"k0": [[1.0, 2.0]]},                  # wrong gain shape
    {"grid_s": 10000},                     # grid escapes the exploration phase
    {"exo_v0": [1.0]},                     # length must match minimal polynomial
    {"observer_poles": [-5.0, -6.0]},      # need n poles
    {"k0_on": "x", "k0": [[0.0] * 8]},     # k0_on must be 'zeta' or 'rho'
    {"t_switch": 28.0005},                 # off the grid k*h (h = 1e-3)
    {"t_end": 80.0005},
    {"zeta0": [0.0, 0.0]},                 # n_zeta = 6
    {"z0": [0.0]},                         # n_z = 2
])
def test_validate_config_rejects(patch):
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload.update(patch)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(payload))


def test_build_objects_shapes():
    objs = build_objects(PRESETS["paper-e-nonzero"]())
    assert objs.B_rho.shape == (8, 1)
    assert np.array_equal(objs.B_rho[:6], objs.known.B_zeta)
    assert np.linalg.norm(objs.B_rho[6:]) == 0.0


def test_verify_presets_all_ok():
    for factory in PRESETS.values():
        report = verify(factory())
        assert report.all_ok, [(c.name, c.detail) for c in report.checks if not c.ok]
        names = [c.name for c in report.checks]
        assert "theorem4_identity" in names and "unknown_counts" in names


def test_verify_flags_unstabilizable_plant():
    cfg = ExperimentConfig(
        name="bad", plant_a=[[1.0, 0.0], [0.0, -1.0]], plant_b=[[0.0], [1.0]],
        plant_c=[[1.0, 1.0]], plant_e=[[0.0, 0.0], [0.0, 0.0]],
        plant_f=[[0.0, 0.0]], exo_minpoly=[1.0, 0.0], exo_v0=[1.0, 0.0],
        x0=[0.0, 0.0], observer_poles=[-2.0, -3.0], p_copies=1, tones=[],
        k0=[[0.0, 0.0, 0.0, 0.0]], k0_on="zeta", grid_t0=1.0, grid_dt=0.1,
        grid_s=10, h=1e-3, variant=4, t_switch=4.0, t_end=8.0, settle_time=6.0,
        p0_scale=0.1, eps_num=1.0, eps_shift=1.0, eps_conv=0.01, max_iters=10,
        r=1.0, q_main=1.0)
    report = verify(cfg)
    assert not report.all_ok
    assert not report.checks[0].ok          # stabilizability fails first


def _quick_nonzero(**patch):
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload.update(patch)
    return parse_config(json.dumps(payload))


def test_run_experiment_not_converged(tmp_path):
    cfg = _quick_nonzero(max_iters=60)
    with pytest.raises(NotConvergedError):
        run_experiment(cfg, str(tmp_path))
    # partial artifacts still land on disk for post-mortem
    assert os.path.exists(tmp_path / "manifest.json")
    assert os.path.exists(tmp_path / "vi_history.csv")


def test_run_experiment_rank_failure(tmp_path):
    cfg = _quick_nonzero(tones=[], k0=[[0.0] * 6], t_switch=6.0, t_end=8.0,
                         settle_time=7.0, grid_t0=1.0, grid_dt=0.1, grid_s=40)
    with pytest.raises(RankConditionError):
        run_experiment(cfg, str(tmp_path))


def test_report_carries_published_reference(nonzero_run):
    ref = nonzero_run["report"].paper_reference
    assert ref["reported_iterations"] == 10602
    payload = json.load(open(os.path.join(nonzero_run["out_dir"], "report.json")))
    assert payload["paper_reference"]["reported_iterations"] == 10602


def test_trajectory_continues_exploration_log(nonzero_run, nonzero_setup):
    """Up to t_switch the trajectory holds exactly the states the learner saw."""
    log, cfg = nonzero_setup["log"], nonzero_run["cfg"]
    traj = np.loadtxt(os.path.join(nonzero_run["out_dir"], "trajectory.csv"),
                      delimiter=",", skiprows=1)
    head = traj[traj[:, 0] <= cfg.t_switch]
    states = np.hstack([log.v, log.x, log.zeta, log.z])
    assert np.array_equal(head[:, 0], log.times)
    assert np.array_equal(head[:, 1:1 + states.shape[1]], states)


def test_config_is_dataclass_of_plain_types():
    cfg = PRESETS["paper-e-zero"]()
    payload = dataclasses.asdict(cfg)
    json.dumps(payload)   # must be JSON-serializable as-is
