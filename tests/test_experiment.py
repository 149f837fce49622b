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
    {"k0": [[0.0] * 7]},                   # neither n_zeta = 6 nor n_rho = 8 wide
    {"k0": [[1.0, 2.0]]},                  # wrong gain shape
    {"grid_s": 10000},                     # grid escapes the exploration phase
    {"exo_v0": [1.0]},                     # length must match minimal polynomial
    {"observer_poles": [-5.0, -6.0]},      # need n poles
    {"k0_on": "zeta"},                     # removed field: k0's width picks the state
    {"t_switch": 28.0005},                 # off the grid k*h (h = 1e-3)
    {"t_end": 80.0005},
    {"zeta0": [0.0, 0.0]},                 # n_zeta = 6
    {"z0": [0.0]},                         # n_z = 2
    {"grid_t0": -1.0},                     # sampling starts before t = 0
    {"grid_t0": 3.9995},                   # off the grid k*h
    {"grid_dt": 0.1995},
    {"h": float("nan")},                   # NaN and Infinity anywhere
    {"x0": [float("nan"), 0.0, 0.0]},
    {"eps_num": float("nan")},
    {"eps_conv": float("inf")},
    {"tones": [{"amplitude": 1.0, "frequency": 2.0, "phase": -float("inf")}]},
    {"p0_scale": -1.0},                    # variant 4 needs a positive definite P0
    {"tones": [{"amplitude": 1.0, "frequency": 2.0, "channel": 3}]},   # m = 1
    {"settle_time": 90.0},                 # after t_end
    {"r": -1.0},                           # R must be positive definite
    {"tones": [[1.0, 2.0]]},               # a tone is an object
    {"tones": [{"amplitude": 1.0, "frequency": 2.0, "gain": 1.0}]},    # unknown key
    {"tones": [{"amplitude": 1.0}]},       # no frequency
    {"grid_dt": 1e-10},                    # on the grid, but zero steps of h
    {"tones": 3.0},                        # JSON types follow the annotations
    {"tones": [{"amplitude": "1", "frequency": 2.0}]},
    {"x0": 1.0},
    {"x0": ["a", 0, 0]},
    {"observer_poles": -5.0},
    {"k0": "abc"},
    {"zeta0": 0.0},
    {"h": "0.001"},
    {"max_iters": 10.5},
    {"max_iters": True},
    {"grid_s": 119.5},
    {"observer_poles": [[-5.0, 0.0, 1.0], -6.0, -7.0]},   # a complex pole is [re, im]
    {"variant": 5, "p0_scale": 0.0, "q_y": 1.0, "q_z": 1.0},   # E solved at P0 = 0
    {"k0": [[1.0], [1.0, 2.0]]},           # ragged
    {"grid_s": 10**400},                   # integers beyond the float range
    {"grid_dt": 10**400},
])
def test_validate_config_rejects(patch):
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload.update(patch)
    with pytest.raises(ConfigError):
        parse_config(json.dumps(payload))


def test_k0_on_rho_is_accepted():
    """A k0 as wide as rho = col(zeta, z) acts on z too."""
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload["k0"] = [payload["k0"][0] + [0.5, -0.5]]
    assert parse_config(json.dumps(payload)).k0 == [[10.0, 8.0, 0.0, 0.0, -4.0, -4.0, 0.5, -0.5]]


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
        x0=[0.0, 0.0], observer_poles=[-2.0, -3.0], tones=[],
        k0=[[0.0, 0.0, 0.0, 0.0]], grid_t0=1.0, grid_dt=0.1,
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


def _load_json(*path):
    with open(os.path.join(*path)) as fh:
        return json.load(fh)


def test_run_experiment_not_converged(tmp_path):
    cfg = _quick_nonzero(max_iters=60)
    with pytest.raises(NotConvergedError):
        run_experiment(cfg, str(tmp_path))
    # partial artifacts still land on disk for post-mortem
    assert os.path.exists(tmp_path / "manifest.json")
    assert os.path.exists(tmp_path / "vi_history.csv")
    payload = _load_json(tmp_path, "report.json")
    history = np.loadtxt(tmp_path / "vi_history.csv", delimiter=",", skiprows=1)
    assert payload["converged"] is False and payload["tracking_max_error"] is None
    assert payload["iters"] == len(history) == 60
    assert payload["resets"] == len(payload["vi_reset_iterations"])
    assert payload["vi_final_step_metric"] == history[-1, 3]
    assert set(payload["timings"]) == {"setup_s", "explore_sim_s", "learn_s", "other_exports_s"}
    listed = _load_json(tmp_path, "manifest.json").values()
    assert sorted(os.listdir(tmp_path)) == sorted([*listed, "manifest.json"])


def test_run_experiment_rank_failure(tmp_path):
    """A rank-failing run leaves a partial report of its rank verdict."""
    cfg = _quick_nonzero(tones=[], k0=[[0.0] * 6], t_switch=6.0, t_end=8.0,
                         settle_time=7.0, grid_t0=1.0, grid_dt=0.1, grid_s=40)
    with pytest.raises(RankConditionError) as info:
        run_experiment(cfg, str(tmp_path))
    assert (info.value.rank, info.value.required) == (15, 36)
    payload = _load_json(tmp_path, "report.json")
    assert payload["converged"] is False
    assert (payload["rank"], payload["rank_required"]) == (15, 36)
    assert set(payload["timings"]) == {"setup_s", "explore_sim_s", "learn_s"}
    listed = _load_json(tmp_path, "manifest.json").values()
    assert sorted(os.listdir(tmp_path)) == sorted([*listed, "manifest.json"]) \
        == ["manifest.json", "report.json"]


def test_report_carries_published_reference(nonzero_run):
    ref = nonzero_run["report"].paper_reference
    assert ref["reported_iterations"] == 10602
    payload = _load_json(nonzero_run["out_dir"], "report.json")
    assert payload["paper_reference"]["reported_iterations"] == 10602


def test_report_carries_vi_resets_and_final_step(zero_run):
    """The reset iterations and the final step metric are those of vi_history.csv."""
    out_dir, cfg = zero_run["out_dir"], zero_run["cfg"]
    payload = _load_json(out_dir, "report.json")
    history = np.loadtxt(os.path.join(out_dir, "vi_history.csv"), delimiter=",", skiprows=1)
    resets = payload["vi_reset_iterations"]
    assert len(resets) == payload["resets"] > 0
    for k in resets:                    # the epoch j moves on right after each reset
        assert history[k + 1, 1] == history[k, 1] + 1
    assert payload["vi_final_step_metric"] == history[-1, 3] < cfg.eps_conv


@pytest.mark.parametrize("run", ["zero_run", "nonzero_run"])
def test_out_dir_holds_exactly_the_manifest(run, request):
    """No part file of the row writers leaks into a run's artifacts."""
    out_dir = request.getfixturevalue(run)["out_dir"]
    listed = _load_json(out_dir, "manifest.json").values()
    assert sorted(os.listdir(out_dir)) == sorted([*listed, "manifest.json"])


def test_report_carries_layer_timings(nonzero_run):
    timings = _load_json(nonzero_run["out_dir"], "report.json")["timings"]
    assert set(timings) == {"setup_s", "explore_sim_s", "learn_s", "closed_loop_sim_s",
                            "trajectory_export_s", "other_exports_s"}
    assert all(t >= 0 for t in timings.values())
    assert sum(timings.values()) <= nonzero_run["elapsed"]


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
