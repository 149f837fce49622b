import json
from pathlib import Path

import pytest

import regvi
from regvi import cli
from regvi.experiment import PRESETS, serialize_config


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert regvi.__version__ == meta["project"]["version"]


def test_preset_list(capsys):
    assert cli.main(["preset", "list"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "paper-e-zero" in out and "paper-e-nonzero" in out


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


def _patched_nonzero_file(tmp_path, **patch):
    payload = json.loads(serialize_config(PRESETS["paper-e-nonzero"]()))
    payload.update(patch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("patch", [{"t_switch": 28.0005}, {"zeta0": [0.0, 0.0]}])
def test_run_inconsistent_config(tmp_path, capsys, patch):
    path = _patched_nonzero_file(tmp_path, **patch)
    code = cli.main(["run", path, "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


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


def test_verify_preset(capsys):
    assert cli.main(["verify", "paper-e-nonzero"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "theorem4_identity" in out
