import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import regvi
from regvi import cli
from regvi.experiment import PRESETS, serialize_config

# a plant with transmission zeros at +-j, the modes of exo_minpoly [1, 0]
ZEROS_AT_THE_EXO_MODES = {"plant_a": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -2.0]],
                          "plant_b": [[0.0], [0.0], [1.0]], "plant_c": [[1.0, 0.0, 1.0]]}
ASYMMETRIC_Q_MAIN = [[1.0 if i == j else 0.5 if (i, j) == (0, 1) else 0.0 for j in range(8)]
                     for i in range(8)]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert regvi.__version__ == meta["project"]["version"]


def test_preset_list(capsys):
    assert cli.main(["preset", "list"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "paper-e-zero" in out and "paper-e-nonzero" in out


def test_package_runs_as_a_module():
    """`python -m regvi` is the command line, without an install."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(regvi.__file__))}
    done = subprocess.run([sys.executable, "-m", "regvi", "preset", "list"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert done.stdout.split() == ["paper-e-nonzero", "paper-e-zero"]


def test_preset_show(capsys):
    assert cli.main(["preset", "show", "paper-e-nonzero"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "paper-e-nonzero"
    assert payload["variant"] == 4


def test_preset_errors(capsys):
    assert cli.main(["preset", "show"]) == cli.EXIT_CONFIG
    assert cli.main(["preset", "show", "nope"]) == cli.EXIT_CONFIG


def test_usage_errors_are_config_errors(capsys):
    assert cli.main(["--seed", "1", "preset", "list"]) == cli.EXIT_CONFIG
    assert cli.main(["run"]) == cli.EXIT_CONFIG
    assert cli.main(["preset", "run", "paper-e-nonzero"]) == cli.EXIT_CONFIG
    assert cli.main(["--help"]) == cli.EXIT_OK


def test_run_missing_config(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "absent.json"),
                     "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_run_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "out")]) \
        == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", [["run"], ["verify"]])
def test_config_that_is_not_utf8(tmp_path, capsys, command):
    """A config file that does not decode is a configuration error, not a traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    assert cli.main([*command, str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")


def _patched_nonzero_file(tmp_path, **patch):
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload.update(patch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("patch", [{"t_switch": 28.0005}, {"zeta0": [0.0, 0.0]},
                                   {"grid_t0": 3.9995},
                                   {"tones": [{"amplitude": "1", "frequency": 2.0}]},
                                   {"k0": [[1.0], [1.0, 2.0]]}, {"max_iters": 0},
                                   {"observer_poles": [1.0, -6.0, -7.0]},
                                   {"plant_e": [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [3.0, 6.0, 0.0]],
                                    "plant_f": [[0.5, -0.8, 0.0]]},    # q = 3, exosystem 2
                                   ZEROS_AT_THE_EXO_MODES, {"q_main": ASYMMETRIC_Q_MAIN},
                                   {"q_main": -1.0},
                                   dict(json.loads(serialize_config(PRESETS["paper-e-zero"]())),
                                        q_z=[[1.0, 2.0], [0.0, 1.0]])])
def test_run_inconsistent_config(tmp_path, capsys, patch):
    path = _patched_nonzero_file(tmp_path, **patch)
    for blinded in ([], ["--blinded"]):
        code = cli.main(["run", path, "--out-dir", str(tmp_path / "out"), *blinded])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (tmp_path / "out").exists()
    assert cli.main(["verify", path]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("poles, step", [
    ([-100.0, -200.0, -300.0], "place_observer_gain"),
    ([[-0.001, 50.0], [-0.001, -50.0], -7.0], "compute_parameterization")])
def test_an_oracle_that_cannot_be_built_exits_4(tmp_path, capsys, poles, step):
    """paper-e-nonzero passes the config checks with these poles, but the
    oracle cannot place them (Ackermann misses the spectrum) or close the
    adjugate recursion: an unblinded run exits 4 with one stderr line naming
    the oracle step, before any simulation, leaving its partial report, and
    verify reports the same failure."""
    path = _patched_nonzero_file(tmp_path, observer_poles=poles)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out-dir", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: oracle step %s failed: " % step)
    assert err.count("\n") == 1
    assert sorted(os.listdir(out)) == ["manifest.json", "report.json"]
    with open(out / "report.json") as fh:
        assert set(json.load(fh)["timings"]) == {"setup_s"}
    assert cli.main(["verify", path]) == cli.EXIT_CONFIG
    assert "[FAIL] oracle_construction: oracle step %s failed: " % step in capsys.readouterr().out


def test_exit_codes_are_documented():
    """README's "Exit codes" paragraph and cli's module docstring each list
    every cli.EXIT_* value and no other code."""
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = re.search(r"^Exit codes: (.*?)\n\n", readme, re.S | re.M).group(1)
    assert {int(c) for c in re.findall(r"`(\d+)`", paragraph)} == codes
    sentence = re.search(r"Exit codes: (.*?)\.\n", cli.__doc__, re.S).group(1)
    assert {int(c) for c in re.findall(r"(?:^|,\s+)(\d+)\s", sentence)} == codes


def test_run_with_a_semidefinite_output_weight(tmp_path, capsys):
    """paper-e-zero with q_y = 0: the learner handles the singular weight, and
    the unblinded run's theorem-4 comparison accepts it too, so both runs exit 0
    and learn the same gain."""
    payload = dict(json.loads(serialize_config(PRESETS["paper-e-zero"]())), q_y=0.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    for out, blinded in (("open", []), ("blind", ["--blinded"])):
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path / out), *blinded]) \
            == cli.EXIT_OK
    with open(tmp_path / "open" / "report.json") as fh:
        assert json.load(fh)["theorem4_deviation"] <= 1e-10
    for name in ("learned_gain.csv", "vi_history.csv"):
        assert (tmp_path / "open" / name).read_bytes() == (tmp_path / "blind" / name).read_bytes()


def test_run_rank_failure_exit_code(tmp_path, capsys):
    path = _patched_nonzero_file(tmp_path, tones=[], k0=[[0.0] * 6],
                                 t_switch=6.0, t_end=8.0, settle_time=7.0,
                                 grid_t0=1.0, grid_dt=0.1, grid_s=40)
    code = cli.main(["run", path, "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_RANK


def test_run_nonconvergence_exit_code(tmp_path, capsys):
    path = _patched_nonzero_file(tmp_path, max_iters=60)
    code = cli.main(["run", path, "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_NOT_CONVERGED


def test_run_overflow_exit_code(tmp_path, capsys):
    """A diverging exploration sim exits 5 and leaves only its partial report."""
    path = _patched_nonzero_file(tmp_path, k0=[[100.0] * 6])
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out-dir", str(out)]) == cli.EXIT_OVERFLOW
    assert "state overflow" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["manifest.json", "report.json"]
    with open(out / "report.json") as fh:
        assert json.load(fh)["converged"] is False


def test_run_into_an_uncreatable_directory_exit_code(tmp_path, capsys):
    """An output directory below a regular file cannot be made: exit 6 with
    one line on stderr, not a traceback."""
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert cli.main(["run", "paper-e-zero", "--out-dir", str(out)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("cannot write artifacts: ") and err.count("\n") == 1


def test_verify_preset(capsys):
    assert cli.main(["verify", "paper-e-nonzero"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "theorem4_identity" in out
