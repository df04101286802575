import json
import subprocess
import sys

import pytest

from georelay import cli
from georelay.cli import main
from georelay.errors import ConfigError
from georelay.scenario import DEFAULT_CONFIG, load_config, resolve_config


def run_cli(args):
    return main(args)


def test_empty_config_reproduces_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert load_config(str(path)) == resolve_config({})
    assert resolve_config({})["downlink"]["carrier_hz"] == 19.7e9


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config({"downlink": {"carier_hz": 1e9}})
    with pytest.raises(ConfigError):
        resolve_config({"mystery_block": {}})


def test_type_errors_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"downlink": {"p_max_w": -3.0}})
    with pytest.raises(ConfigError):
        resolve_config({"code": {"total_files": 2.5}})


def test_cross_field_checks():
    with pytest.raises(ConfigError):
        resolve_config({"uplink": {"carriers_hz": [1e9, 2e9]}})  # wrong length
    with pytest.raises(ConfigError):
        resolve_config({"repair": {"failed_node": 9}})
    leos = json.loads(json.dumps(DEFAULT_CONFIG["constellation"]["leos"]))
    leos[4]["phase_offset_deg"] = 1.0  # nobody enters at t = 0
    with pytest.raises(ConfigError):
        resolve_config({"constellation": {"leos": leos}})


def test_scalar_merge_keeps_other_defaults():
    cfg = resolve_config({"downlink": {"p_max_w": 55.0}})
    assert cfg["downlink"]["p_max_w"] == 55.0
    assert cfg["downlink"]["carrier_hz"] == DEFAULT_CONFIG["downlink"]["carrier_hz"]


def test_cli_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"downlink": {"nope": 1}}')
    rc = run_cli(["code-check", "--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 2


def test_cli_infeasible_exit_code(tmp_path):
    # a 50 s uplink window cannot carry 30 files
    rc = run_cli(["uplink-energy", "--horizon", "50", "--out", str(tmp_path)])
    assert rc == 3


def test_cli_code_check(tmp_path):
    rc = run_cli(["code-check", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "code-check.csv").read_text()
    assert "10" in text and "20" in text and "30" in text
    manifest = json.loads((tmp_path / "code-check.manifest.json").read_text())
    assert manifest["command"] == "code-check"
    assert manifest["config"]["code"]["total_files"] == 30


def test_cli_downlink_energy_and_time(tmp_path):
    assert run_cli(["downlink-energy", "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "downlink-energy.csv").read_bytes()
    assert raw.count(b"\r\n") >= 7  # RFC-4180 line endings: header + 5 rows + total
    header = raw.decode().splitlines()[0]
    for col in ("iterations", "z_lower", "z_upper", "kkt_residual_max"):
        assert col in header
    assert run_cli(["downlink-time", "--out", str(tmp_path), "--dt", "2"]) == 0


def test_cli_uplink_energy_with_oracle(tmp_path):
    rc = run_cli(["uplink-energy", "--ts", "133", "--oracle", "--out", str(tmp_path)])
    assert rc == 0
    body = (tmp_path / "uplink-energy.csv").read_text()
    assert "oracle_match" in body.splitlines()[0]
    assert "True" in body


def test_cli_repair(tmp_path):
    assert run_cli(["repair", "--out", str(tmp_path)]) == 0
    body = (tmp_path / "repair.csv").read_text()
    assert "regenerating" in body and "mds" in body


def test_cli_sweep_determinism(tmp_path):
    """Identical config and seed produce byte-identical artifacts."""
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["sweep", "--task", "uplink-energy", "--from", "0", "--to", "100", "--step", "50", "--dt", "5"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    f1 = (out1 / "sweep-uplink-energy.csv").read_bytes()
    f2 = (out2 / "sweep-uplink-energy.csv").read_bytes()
    assert f1 == f2
    m1 = (out1 / "sweep-uplink-energy.manifest.json").read_bytes()
    m2 = (out2 / "sweep-uplink-energy.manifest.json").read_bytes()
    assert m1 == m2


@pytest.mark.parametrize(
    "flags",
    [["--dt", "0"], ["--dt", "-1"], ["--horizon", "-1"], ["--pmax", "0"], ["--ts", "-5"]],
)
def test_cli_invalid_flag_is_a_schema_error(tmp_path, flags):
    assert run_cli(["downlink-energy", *flags, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "downlink-energy.csv").exists()


@pytest.mark.parametrize("command", ["downlink-time", "uplink-time", "repair"])
def test_cli_budget_below_energy_floor(tmp_path, capsys, command):
    assert run_cli([command, "--emax", "1", "--out", str(tmp_path)]) == 3
    assert "below the energy floor" in capsys.readouterr().err


def test_cli_repair_uses_time_upper_factor(tmp_path, capsys):
    """A 1.5x search bound makes a 1500 J repair budget infeasible for the
    repair command and the one-point repair-time sweep alike."""
    scenario = tmp_path / "factor.json"
    scenario.write_text('{"solver": {"time_upper_factor": 1.5}}')
    common = ["--scenario", str(scenario), "--emax", "1500", "--out", str(tmp_path)]
    assert run_cli(["repair", *common]) == 3
    repair_err = capsys.readouterr().err
    assert run_cli(["sweep", "--task", "repair-time", "--from", "0", "--to", "0", "--step", "1", *common]) == 3
    assert capsys.readouterr().err == repair_err
    assert "at the search bound 7.81718 s" in repair_err


def test_cli_sweep_points_are_from_plus_multiples_of_step(tmp_path, monkeypatch):
    points = []

    def record(task, config, args, ts):
        points.append(ts)
        return {"ts_s": ts}

    monkeypatch.setattr(cli, "_sweep_point", record)
    args = ["sweep", "--task", "downlink-energy", "--from", "0", "--to", "1", "--step", "0.1", "--out", str(tmp_path)]
    assert run_cli(args) == 0
    assert points == [round(0.1 * i, 9) for i in range(11)]


def test_cli_sweep_rejects_oversized_point_count(tmp_path, monkeypatch):
    def no_work(*_):
        raise AssertionError("an oversized sweep started work")

    monkeypatch.setattr(cli, "_sweep_point", no_work)
    args = ["sweep", "--task", "uplink-energy", "--from", "0", "--to", "1e9", "--step", "1e-3", "--out", str(tmp_path)]
    assert run_cli(args) == 2


def test_cli_sweep_rejects_unknown_param(tmp_path):
    rc = run_cli(
        ["sweep", "--param", "pmax", "--task", "uplink-energy", "--from", "0", "--to", "1", "--step", "1", "--out", str(tmp_path)]
    )
    assert rc == 2


def test_cli_gnuplot_emission(tmp_path):
    args = [
        "sweep", "--task", "downlink-energy", "--from", "0", "--to", "50", "--step", "50",
        "--dt", "5", "--gnuplot", "--out", str(tmp_path),
    ]
    assert run_cli(args) == 0
    assert (tmp_path / "sweep-downlink-energy.gp").exists()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "georelay.cli", "code-check", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rank_ok=True" in proc.stdout
