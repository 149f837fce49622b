import dataclasses
import hashlib
import json
import os
import time
import warnings

import numpy as np
import pytest

from regvi import cli, csvrows, experiment, vi
from regvi.experiment import (PRESETS, ConfigError, ExperimentConfig,
                              NotConvergedError, build_objects, parse_config,
                              run_experiment, serialize_config, validate_config,
                              verify)
from regvi.linalg import is_hurwitz
from regvi.oracle import verify_theorem4
from regvi.regression import build_regression, check_rank
from regvi.vi import RankConditionError

HOST_CPUS = len(os.sched_getaffinity(0))
# a stable, observable plant with transmission zeros at +-j, the modes of exo_minpoly [1, 0]
ZEROS_AT_THE_EXO_MODES = {"plant_a": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -2.0]],
                          "plant_b": [[0.0], [0.0], [1.0]], "plant_c": [[1.0, 0.0, 1.0]]}
# sha256 of serialize_config of each published preset
PRESET_SHA256 = {"paper-e-zero": "5c80b5ceed1f3a44c5f46e23b467bc5dfe9cb7c7236c8348a30bfaa45025af5e",
                 "paper-e-nonzero": "2c99ff6a5edc9c660e4eb51d89047d8a806cc222c4a6c5ef528b87c24a249bdd"}
ASYMMETRIC_Q_MAIN = [[1.0 if i == j else 0.5 if (i, j) == (0, 1) else 0.0 for j in range(8)]
                     for i in range(8)]


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


def test_presets_are_fresh_and_unchanged():
    """Every call builds its own lists: mutating one preset's tones, k0 or
    plant_a leaves the next call of either name at its published text."""
    for name in PRESETS:
        cfg = PRESETS[name]()
        cfg.tones[0]["phase"] = 1.0
        cfg.k0[0][0] = 0.0
        cfg.plant_a[0][1] = 5.0
        for other in PRESETS:
            text = serialize_config(PRESETS[other]())
            assert hashlib.sha256(text.encode()).hexdigest() == PRESET_SHA256[other]


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"name": "x", "unexpected_field": 1}))


# A patch, or (patch, the message it must raise): a bad weight names its config key.
REJECTED = [
    {"variant": 7},
    {"h": -1e-3},
    {"t_switch": 90.0},                    # must precede t_end
    {"x0": [1.0, 2.0]},                    # wrong plant dimension
    {"k0": [[0.0] * 7]},                   # none of n = 3, n_zeta = 6, n_rho = 8 wide
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
    ({"r": -1.0}, "r must be symmetric positive definite"),
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
    {"max_iters": 0},                      # VI needs at least one iterate
    {"max_iters": -1},
    {"grid_s": 119.5},
    {"observer_poles": [[-5.0, 0.0, 1.0], -6.0, -7.0]},   # a complex pole is [re, im]
    {"observer_poles": [[-5.0], -6.0, -7.0]},
    {"observer_poles": [[], -6.0, -7.0]},
    {"observer_poles": [1.0, -6.0, -7.0]},  # the filter bank must be Hurwitz
    {"observer_poles": [0.0, -6.0, -7.0]},
    {"observer_poles": [[0.0, 2.0], [0.0, -2.0], -7.0]},
    {"variant": 6, "p0_scale": 0.0, "q_y": 1.0, "q_z": 1.0},   # E identified at P0 = 0
    {"k0": [[1.0], [1.0, 2.0]]},           # ragged
    {"grid_s": 10**400},                   # integers beyond the float range
    {"grid_dt": 10**400},
    {"variant": 4, "q_main": None},        # a weight the variant needs is unset
    dict(json.loads(serialize_config(PRESETS["paper-e-zero"]())), q_y=None),
    {"exo_minpoly": [], "exo_v0": []},     # the internal model needs degree >= 1
    {"plant_e": [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [3.0, 6.0, 0.0]],   # q = 3, exosystem 2
     "plant_f": [[0.5, -0.8, 0.0]]},
    ZEROS_AT_THE_EXO_MODES,                # G(s) = (s^2 + 1)/(s^3 + 2s^2 + 2s + 1)
    ({"q_main": ASYMMETRIC_Q_MAIN},        # cost weights are symmetric ...
     "q_main must be symmetric positive semidefinite"),
    ({"q_main": -1.0}, "q_main must be symmetric positive semidefinite"),   # ... and PSD
    (dict(json.loads(serialize_config(PRESETS["paper-e-zero"]())), q_z=[[1.0, 2.0], [0.0, 1.0]]),
     "q_z must be symmetric positive semidefinite"),
    (dict(json.loads(serialize_config(PRESETS["paper-e-zero"]())), q_y=-1.0),
     "q_y must be symmetric positive semidefinite"),
]


@pytest.mark.parametrize("patch, message",
                         [case if isinstance(case, tuple) else (case, None) for case in REJECTED],
                         ids=["patch%d" % i for i in range(len(REJECTED))])
def test_validate_config_rejects(patch, message):
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload.update(patch)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(payload))
    assert message is None or str(exc.value) == message


# a patch of paper-e-nonzero that fails one standing assumption, and its check's name
ASSUMPTION_FAILURES = {
    "unstabilizable": ({"plant_a": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
                       "assumption1_stabilizable"),          # u does not reach the mode +1
    "unobservable": ({"plant_c": [[1.0, 0.0, 0.0]]},         # y does not see the mode -1
                     "assumption2_observable"),
    "decaying-exosystem": ({"exo_minpoly": [2.0, 3.0]},      # s^2 + 3s + 2: modes -1, -2
                           "assumption3_no_decaying_modes"),
    "zeros-at-the-exo-modes": (ZEROS_AT_THE_EXO_MODES, "assumption4_transmission_zeros"),
}


@pytest.mark.parametrize("case", ASSUMPTION_FAILURES)
def test_a_failed_standing_assumption_is_a_config_error(case, tmp_path):
    """parse_config raises a ConfigError that names the failed assumption,
    verify of the same config reports that check as its first failure, and
    `regvi run` exits 4, blinded or not, before it makes its output directory."""
    patch, check = ASSUMPTION_FAILURES[case]
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload.update(patch)
    with pytest.raises(ConfigError, match="^%s fails: " % check):
        parse_config(json.dumps(payload))
    assert next(name for name, ok, _ in verify(ExperimentConfig(**payload)) if not ok) == check
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    for flags in ([], ["--blinded"]):
        out = tmp_path / ("out%d" % len(flags))
        assert cli.main(["run", str(path), "--out-dir", str(out), *flags]) == cli.EXIT_CONFIG
        assert not out.exists()


def test_k0_on_rho_is_accepted():
    """A k0 as wide as rho = col(zeta, z) acts on z too."""
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload["k0"] = [payload["k0"][0] + [0.5, -0.5]]
    assert parse_config(json.dumps(payload)).k0 == [[10.0, 8.0, 0.0, 0.0, -4.0, -4.0, 0.5, -0.5]]


def test_k0_on_x_is_accepted():
    """A k0 as wide as the plant state acts on x."""
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload["k0"] = [[-1.0, -2.0, 0.0]]
    assert parse_config(json.dumps(payload)).k0 == [[-1.0, -2.0, 0.0]]


def test_build_objects_shapes():
    objs = build_objects(PRESETS["paper-e-nonzero"]())
    assert objs.B_rho.shape == (8, 1)
    assert np.array_equal(objs.B_rho[:6], objs.known.B_zeta)
    assert np.linalg.norm(objs.B_rho[6:]) == 0.0


def test_verify_presets_all_ok():
    for factory in PRESETS.values():
        rows = verify(factory())
        assert all(ok for _, ok, _ in rows), [row for row in rows if not row[1]]
        names = [name for name, _, _ in rows]
        assert "theorem4_identity" in names and "unknown_counts" in names


@pytest.mark.parametrize("setup", ["nonzero_setup", "zero_setup"])
def test_stage_unknowns_are_the_papers_counts(request, setup):
    """On each preset's data the rank condition requires as many columns as
    the verify row `unknown_counts` gives the paper's learning equation:
    vecs(H) and E^T P of Algorithm 3 where E is solved (variants 3 and 5),
    vecs(H) of Algorithm 4 where it is identified (4 and 6)."""
    s = request.getfixturevalue(setup)
    counts = json.loads(dict((name, detail) for name, _, detail in verify(s["cfg"]))
                        ["unknown_counts"])
    assert (counts["alg3"], counts["alg4"]) == (52, 36)
    for variant, method in ((3, "alg3"), (5, "alg3"), (4, "alg4"), (6, "alg4")):
        data = build_regression(s["log"], s["grid"], variant, known_B=s["objs"].B_rho)
        assert check_rank(data).required == counts[method]


def test_verify_reads_the_augmented_closed_loop_margin(zero_setup, nonzero_setup):
    """Theorem4Report.closed_loop_margin is is_hurwitz(Y + J K_xi)[1] with
    Y = [[A, 0], [G2 C, G1]], J = [B; 0] and K_xi = -R^-1 J^T P_xi, the margin
    verify prints for the augmented closed loop."""
    for setup in (zero_setup, nonzero_setup):
        plant, im, R = setup["objs"].plant, setup["objs"].im, setup["vicfg"].R
        t4 = verify_theorem4(plant, setup["aux"], im, np.eye(plant.p + im.n_z), R)
        Y = np.block([[plant.A, np.zeros((plant.n, im.n_z))], [im.G2 @ plant.C, im.G1]])
        J = np.vstack([plant.B, np.zeros((im.n_z, plant.m))])
        margin = is_hurwitz(Y + J @ -np.linalg.solve(R, J.T @ t4.P_xi))[1]
        assert t4.closed_loop_margin == margin < 0.0
        details = {name: detail for name, _, detail in verify(setup["cfg"])}
        assert details["augmented_closed_loop_hurwitz"] == "margin %g" % margin


@pytest.mark.parametrize("poles", [[1.0, -6.0, -7.0], [0.0, -6.0, -7.0],
                                   [[-5.0], -6.0, -7.0], [[], -6.0, -7.0]])
def test_observer_poles_outside_the_left_half_plane_are_config_errors(poles):
    """A filter bank that is not Hurwitz, or a pole that is neither a number nor
    [re, im], fails build_objects, so verify reports it as a failed check."""
    cfg = PRESETS["paper-e-nonzero"]()
    cfg.observer_poles = poles
    with pytest.raises(ConfigError):
        build_objects(cfg)
    assert [name for name, ok, _ in verify(cfg) if not ok] == ["oracle_construction"]


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
    rows = verify(cfg)
    assert rows[0][:2] == ("assumption1_stabilizable", False)   # stabilizability fails first


def _quick_nonzero(**patch):
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload.update(patch)
    return parse_config(json.dumps(payload))


def _refuse_constant(name):
    raise ValueError("%s is no JSON value" % name)


def _load_json(*path):
    """The JSON file at path, parsed strictly: NaN or +-Infinity raises."""
    with open(os.path.join(*path)) as fh:
        return json.loads(fh.read(), parse_constant=_refuse_constant)


def _assert_nothing_left_running(out_dir):
    """No writer is left running or unreaped, and out_dir holds exactly what
    manifest.json lists."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    listed = _load_json(out_dir, "manifest.json").values()
    assert sorted(os.listdir(out_dir)) == sorted(listed)


def test_run_experiment_not_converged(tmp_path, monkeypatch, fork_pids, pin_cpus):
    """A run that stops VI early writes a partial report and kills the
    exploration-row writer, here one that would never finish, without waiting."""
    pin_cpus(2)
    test_pid, write_blocks = os.getpid(), csvrows._write_blocks

    def stuck_write_blocks(fh, rows):
        if os.getpid() != test_pid:
            time.sleep(600)
        write_blocks(fh, rows)
    monkeypatch.setattr(csvrows, "_write_blocks", stuck_write_blocks)
    cfg = _quick_nonzero(max_iters=60)
    start = time.monotonic()
    with pytest.raises(NotConvergedError):
        run_experiment(cfg, str(tmp_path))
    assert time.monotonic() - start < 60.0
    # partial artifacts still land on disk for post-mortem
    assert os.path.exists(tmp_path / "manifest.json")
    assert os.path.exists(tmp_path / "vi_history.csv")
    payload = _load_json(tmp_path, "report.json")
    history = np.loadtxt(tmp_path / "vi_history.csv", delimiter=",", skiprows=1)
    assert payload["converged"] is False and payload["tracking_max_error"] is None
    assert payload["iters"] == len(history) == 60
    assert payload["resets"] == len(payload["vi_reset_iterations"])
    assert payload["vi_final_step_metric"] == history[-1, 3]
    assert set(payload["timings"]) == {"setup_s", "oracle_s", "explore_sim_s", "regression_s",
                                        "vi_fit_s", "vi_s", "other_exports_s"}
    assert "trajectory.csv" not in os.listdir(tmp_path)
    assert fork_pids                    # the exploration rows went to a forked writer
    _assert_nothing_left_running(tmp_path)


def test_run_experiment_rank_failure(tmp_path, monkeypatch, fork_pids, pin_cpus):
    """A rank-failing run leaves a partial report of its rank verdict and no
    exploration-row writer."""
    pin_cpus(2)
    verdicts, check_rank = [], experiment.check_rank
    monkeypatch.setattr(experiment, "check_rank",
                        lambda data: verdicts.append((data, check_rank(data))) or verdicts[-1][1])
    cfg = _quick_nonzero(tones=[], k0=[[0.0] * 6], t_switch=6.0, t_end=8.0,
                         settle_time=7.0, grid_t0=1.0, grid_dt=0.1, grid_s=40)
    with pytest.raises(RankConditionError) as info:
        run_experiment(cfg, str(tmp_path))
    assert (info.value.rank, info.value.required) == (15, 36)
    payload = _load_json(tmp_path, "report.json")
    assert payload["converged"] is False
    assert (payload["rank"], payload["rank_required"]) == (15, 36)
    [(data, verdict)] = verdicts
    assert verdict.rank == np.linalg.matrix_rank(data.I_aa) == 15
    assert payload["data_quality"] == verdict.quality == info.value.quality
    assert set(payload["timings"]) == {"setup_s", "oracle_s", "explore_sim_s", "regression_s"}
    assert fork_pids
    _assert_nothing_left_running(tmp_path)
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "report.json"]


def test_a_rank_failure_in_the_fit_closes_both_vi_laps(tmp_path, monkeypatch):
    """The regression's verdict passes and the stage fit's own, on the stacked
    matrix of variant 4, fails: the partial report holds its rank, the fit's
    lap vi_fit_s and the loop's lap vi_s, which ran nothing."""
    def rank_deficient(data, variant=None):
        verdict = check_rank(data, variant)
        return dataclasses.replace(verdict, rank=verdict.required - 1, satisfied=False)
    monkeypatch.setattr(vi, "check_rank", rank_deficient)
    with pytest.raises(RankConditionError):
        run_experiment(_quick_nonzero(), str(tmp_path))
    payload = _load_json(tmp_path, "report.json")
    assert (payload["rank"], payload["rank_required"]) == (51, 52)
    assert set(payload["timings"]) == {"setup_s", "oracle_s", "explore_sim_s", "regression_s",
                                        "vi_fit_s", "vi_s"}
    _assert_nothing_left_running(tmp_path)


PARTIAL_RUNS = {
    "not_converged": (NotConvergedError, dict(max_iters=60)),
    "rank_failure": (RankConditionError,
                     dict(tones=[], k0=[[0.0] * 6], t_switch=6.0, t_end=8.0, settle_time=7.0,
                          grid_t0=1.0, grid_dt=0.1, grid_s=40)),
}


@pytest.mark.parametrize("run", ["zero_run", "zero_run_blinded", "nonzero_run", *PARTIAL_RUNS])
def test_report_counts_are_json_integers(run, request, tmp_path):
    """The JSON files of the session's preset runs and of two partial runs
    load as strict JSON (no NaN or Infinity, which json.dump writes but no
    JSON parser need accept), and every count in them is a JSON integer: a
    numpy scalar is no JSON value, so the writer raises on one instead of
    quoting it as a string."""
    if run in PARTIAL_RUNS:
        error, patch = PARTIAL_RUNS[run]
        with pytest.raises(error):
            run_experiment(_quick_nonzero(**patch), str(tmp_path))
        out_dir = str(tmp_path)
    else:
        out_dir = request.getfixturevalue(run)["out_dir"]
    listed = _load_json(out_dir, "manifest.json")
    payload = _load_json(out_dir, "report.json")
    present = {"rank", "rank_required"} | (set() if run == "rank_failure" else {"iters", "resets"})
    for key in ("iters", "resets", "rank", "rank_required"):
        assert type(payload[key]) is int if key in present else payload[key] is None, key
    resets = payload["vi_reset_iterations"] or []
    assert all(type(k) is int for k in resets)
    assert len(resets) == (payload["resets"] or 0) and (run != "zero_run" or resets)
    if "regression_manifest" in listed:
        regression = _load_json(out_dir, listed["regression_manifest"])
        counts = [*regression["dims"].values(), regression["variant"], regression["grid"]["s"],
                  *(n for shape in regression["blocks"].values() for n in shape)]
        assert all(type(n) is int for n in counts)
    assert ("regression_manifest" in listed) == (run != "rank_failure")


# paper-e-nonzero with E = 0 and F = 0: a regulation problem with no exogenous input
NO_EXOGENOUS_INPUT = dict(plant_e=[[0.0, 0.0]] * 3, plant_f=[[0.0, 0.0]], t_end=40.0,
                          settle_time=30.0)


@pytest.mark.parametrize("patch", [{}, dict(variant=6, q_main=None, q_y=1.0, q_z=1.0)],
                         ids=["variant4", "variant6"])
def test_a_zero_oracle_reference_reports_null(patch, tmp_path, capsys):
    """Without exogenous input the oracle's E_rho is exactly 0: the run exits 0
    without a RuntimeWarning and writes e_rho_error as null, not Infinity, in
    a strict-JSON report.json.  A zero oracle gain gives a null gain_error alike."""
    path = tmp_path / "cfg.json"
    path.write_text(serialize_config(_quick_nonzero(**NO_EXOGENOUS_INPUT, **patch)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    payload = _load_json(tmp_path, "out", "report.json")
    assert payload["e_rho_error"] is None and payload["gain_error"] < 1e-4
    assert "exogenous" not in capsys.readouterr().out
    assert experiment._relative_error(np.eye(2), np.zeros((2, 2))) is None


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


def test_a_final_escape_is_a_listed_reset(tmp_path):
    """A run whose every iterate escapes, the last included, lists each reset."""
    cfg = dataclasses.replace(PRESETS["paper-e-zero"](), max_iters=40, bound_scale=1e-6,
                              bound_shift=1e-6)
    with pytest.raises(NotConvergedError):
        run_experiment(cfg, str(tmp_path), blinded=True)
    payload = _load_json(tmp_path, "report.json")
    assert payload["resets"] == 40
    assert payload["vi_reset_iterations"] == list(range(40))


def test_manifest_names_itself_and_the_regression_manifest(zero_run):
    listed = _load_json(zero_run["out_dir"], "manifest.json")
    assert listed["manifest"] == "manifest.json"
    assert listed["regression_manifest"] == "regression_manifest.json"
    assert len(set(listed.values())) == len(listed)


def test_report_depends_only_on_the_run(tmp_path):
    """The same run into two output directories whose paths differ in length
    writes the same report.json but for its timings: its files are names."""
    cfg = _quick_nonzero(t_end=30.0, settle_time=29.0)
    payloads = []
    for out_dir in (tmp_path / "a", tmp_path / "a-much-longer-directory" / "b"):
        run_experiment(cfg, str(out_dir), blinded=True)
        payloads.append(_load_json(out_dir, "report.json"))
        for key in ("timings", "vi_us_per_iter"):
            del payloads[-1][key]
    assert payloads[0] == payloads[1]
    listed = _load_json(out_dir, "manifest.json")
    assert payloads[0]["files"] == {k: v for k, v in listed.items()
                                    if k not in ("report", "manifest")}
    assert payloads[0]["files"]["trajectory"] == "trajectory.csv"


@pytest.mark.parametrize("run", ["zero_run", "nonzero_run"])
def test_out_dir_holds_exactly_the_manifest(run, request):
    """No part file of the row writers leaks into a run's artifacts."""
    out_dir = request.getfixturevalue(run)["out_dir"]
    listed = _load_json(out_dir, "manifest.json").values()
    assert sorted(os.listdir(out_dir)) == sorted(listed)


@pytest.mark.parametrize("run", ["zero_run", "nonzero_run"])
def test_every_csv_starts_with_its_header_or_a_number(run, request):
    """The three signal tables start with their exact headers; the learned gain
    and every regression block start with a row of numbers, with no header and
    no blank line."""
    out_dir = request.getfixturevalue(run)["out_dir"]
    headers = {"trajectory.csv": "t,v_1,v_2,x_1,x_2,x_3," + ",".join(
                   ["zeta_%d" % i for i in range(1, 7)]) + ",z_1,z_2,u_1,y_1,e_1,ex_norm",
               "tracking_error.csv": "t,e_1", "vi_history.csv": "k,j,normP,step_metric"}
    names = [name for name in os.listdir(out_dir) if name.endswith(".csv")]
    headless = [name for name in names if name not in headers]
    assert set(headers) <= set(names) and "learned_gain.csv" in headless
    assert {"regression_I_aa.csv", "regression_delta_a.csv"} <= set(headless)
    for name in names:
        with open(os.path.join(out_dir, name)) as fh:
            first = fh.readline().rstrip("\n")
        if name in headers:
            assert first == headers[name], name
        else:
            assert first[:1] in set("-0123456789"), (name, first[:40])
            assert all(np.isfinite(float(tok)) for tok in first.split(",")), name


def test_report_carries_layer_timings(nonzero_run):
    timings = _load_json(nonzero_run["out_dir"], "report.json")["timings"]
    assert set(timings) == {"setup_s", "explore_sim_s", "regression_s", "vi_fit_s", "vi_s",
                            "closed_loop_sim_s", "trajectory_export_s", "other_exports_s",
                            "oracle_s"}
    assert all(t >= 0 for t in timings.values())
    assert sum(timings.values()) <= nonzero_run["elapsed"]


class OracleCalled(Exception):
    pass


def test_blinded_runs_compute_no_oracle_reference(tmp_path, monkeypatch):
    """With every oracle name regvi.experiment calls made to raise, a blinded
    run completes and an unblinded one fails."""
    def refuse(*args, **kwargs):
        raise OracleCalled
    for name in ("place_observer_gain", "compute_parameterization", "build_augmented_aux",
                 "solve_care", "verify_theorem4"):
        monkeypatch.setattr(experiment, name, refuse)
    payload = json.loads(serialize_config(PRESETS["paper-e-zero"]()))
    payload.update(t_end=30.0, settle_time=29.0)
    cfg = parse_config(json.dumps(payload))
    assert run_experiment(cfg, str(tmp_path / "blinded"), blinded=True).converged
    with pytest.raises(OracleCalled):
        run_experiment(cfg, str(tmp_path / "unblinded"))


def test_an_oracle_step_that_fails_after_vi_is_a_config_error(tmp_path, monkeypatch):
    """A theorem-4 reference that raises after value iteration ends the run in
    a ConfigError naming the step; the partial report keeps what the learner found."""
    def verify_theorem4(*args):
        raise RuntimeError("CARE residual 1 exceeds the certificate")
    monkeypatch.setattr(experiment, "verify_theorem4", verify_theorem4)
    payload = json.loads(serialize_config(PRESETS["paper-e-zero"]()))
    payload.update(t_end=30.0, settle_time=29.0)
    with pytest.raises(ConfigError, match="^oracle step verify_theorem4 failed: CARE residual"):
        run_experiment(parse_config(json.dumps(payload)), str(tmp_path))
    report = _load_json(str(tmp_path), "report.json")
    assert report["converged"] and report["gain_error"] is None


def test_only_unblinded_runs_book_the_oracle(zero_run, zero_run_blinded):
    """The timing keys of a blinded and an unblinded run differ by oracle_s alone."""
    timings = _load_json(zero_run["out_dir"], "report.json")["timings"]
    blinded = _load_json(zero_run_blinded["out_dir"], "report.json")["timings"]
    assert set(timings) - set(blinded) == {"oracle_s"} and set(blinded) < set(timings)


def test_report_carries_vi_time_per_iterate(nonzero_run):
    payload = _load_json(nonzero_run["out_dir"], "report.json")
    assert payload["vi_us_per_iter"] == 1e6 * payload["timings"]["vi_s"] / payload["iters"] > 0


def test_trajectory_continues_exploration_log(nonzero_run, nonzero_setup):
    """Up to t_switch the trajectory holds exactly the states the learner saw."""
    log, cfg = nonzero_setup["log"], nonzero_run["cfg"]
    traj = np.loadtxt(os.path.join(nonzero_run["out_dir"], "trajectory.csv"),
                      delimiter=",", skiprows=1)
    head = traj[traj[:, 0] <= cfg.t_switch]
    states = np.hstack([log.v, log.x, log.zeta, log.z])
    assert np.array_equal(head[:, 0], log.times)
    assert np.array_equal(head[:, 1:1 + states.shape[1]], states)


@pytest.mark.parametrize("run, cond", [("zero_run", 5.3e11), ("nonzero_run", 4.7e8)])
def test_report_grades_the_data(run, cond, request):
    """data_quality holds the singular values of I_aa, the matrix the
    identifying variants' rank verdict is taken on."""
    quality = _load_json(request.getfixturevalue(run)["out_dir"], "report.json")["data_quality"]
    assert quality["cond"] == pytest.approx(cond, rel=0.01)
    assert quality["cond"] == pytest.approx(quality["sigma_max"] / quality["sigma_min"], rel=1e-15)
    assert quality["rank_margin"] > 1.0


def _lines(rows):
    return "".join(",".join("%.17g" % val for val in row) + "\n" for row in rows)


def _csv_rows(log):
    return np.hstack([log.times[:, None], log.v, log.x, log.zeta, log.z, log.u,
                      log.y, log.e, log.ex_diag[:, None]])


@pytest.mark.parametrize("cpus", [1, None, 4 * HOST_CPUS + 5], ids=["one", "host", "more"])
def test_trajectory_bytes_for_any_cpu_count(tmp_path, monkeypatch, fork_pids, pin_cpus, cpus):
    """trajectory.csv is the per-value "%.17g" join of the exploration rows but
    the last, then the closed loop's; tracking_error.csv is the closed loop's t
    and e; for every usable CPU count, with or without the early writer."""
    if cpus is not None:
        pin_cpus(cpus)
    logs, simulate = [], experiment.simulate
    monkeypatch.setattr(experiment, "simulate",
                        lambda *args, **kwargs: logs.append(simulate(*args, **kwargs)) or logs[-1])
    payload = json.loads(serialize_config(PRESETS["paper-e-zero"]()))
    payload.update(t_end=36.0, settle_time=35.0)
    run_experiment(parse_config(json.dumps(payload)), str(tmp_path))
    explore, closed = logs
    header, body = (tmp_path / "trajectory.csv").read_text().split("\n", 1)
    assert header.startswith("t,v_1,v_2,x_1,") and header.endswith(",e_1,ex_norm")
    assert body == _lines(_csv_rows(explore)[:-1]) + _lines(_csv_rows(closed))
    header, body = (tmp_path / "tracking_error.csv").read_text().split("\n", 1)
    assert header == "t,e_1"
    assert body == _lines(np.column_stack([closed.times, closed.e]))
    # the early writer, then one more for the closed loop's 8001 rows of 18 values
    assert len(fork_pids) == (0 if (cpus or HOST_CPUS) == 1 else 2)
    _assert_nothing_left_running(tmp_path)


def test_config_is_dataclass_of_plain_types():
    cfg = PRESETS["paper-e-zero"]()
    payload = dataclasses.asdict(cfg)
    json.dumps(payload)   # must be JSON-serializable as-is
