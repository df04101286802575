import csv
import json
import resource
import subprocess
import sys

import jsonschema
import pytest

from georelay import cli
from georelay.cli import main
from georelay.errors import ConfigError
from georelay.scenario import DEFAULT_CONFIG, SCHEMA, load_config, resolve_config


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


def test_schema_is_valid_and_errors_read_as_jsonschema_validate():
    """The validator built once reports the error jsonschema.validate picks."""
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)
    user = {
        "downlink": {"p_max_w": -3.0, "nope": 1},
        "code": {"total_files": 2.5, "point": "mrs"},
        "solver": {"seed": -1},
        "mystery_block": {},
    }
    for case in (user, user["downlink"], {"code": user["code"], "solver": user["solver"]}):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(case, SCHEMA)
        with pytest.raises(ConfigError) as got:
            resolve_config(case)
        err = expected.value
        assert str(got.value) == f"scenario invalid: {err.message} (at {list(err.absolute_path)})"


def test_cross_field_checks():
    with pytest.raises(ConfigError):
        resolve_config({"uplink": {"carriers_hz": [1e9, 2e9]}})  # wrong length
    with pytest.raises(ConfigError):
        resolve_config({"repair": {"failed_node": 9}})
    leos = json.loads(json.dumps(DEFAULT_CONFIG["constellation"]["leos"]))
    leos[4]["phase_offset_deg"] = 1.0  # nobody enters at t = 0
    with pytest.raises(ConfigError):
        resolve_config({"constellation": {"leos": leos}})
    with pytest.raises(ConfigError):
        resolve_config({"code": {"field_order": 1048583}})  # prime, but beyond int64-exact products
    for order in (53, 257):  # prime fields of at least nodes * per_node_files = 50 elements
        assert resolve_config({"code": {"field_order": order}})["code"]["field_order"] == order


def test_scalar_merge_keeps_other_defaults():
    cfg = resolve_config({"downlink": {"p_max_w": 55.0}})
    assert cfg["downlink"]["p_max_w"] == 55.0
    assert cfg["downlink"]["carrier_hz"] == DEFAULT_CONFIG["downlink"]["carrier_hz"]


def test_cli_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"downlink": {"nope": 1}}')
    rc = run_cli(["code-check", "--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "code, commands, message",
    [
        ({"field_order": 7}, ["code-check"], "code.field_order 7 must be 256 or a prime"),
        ({"field_order": 100}, ["code-check"], "code.field_order 100 must be 256 or a prime"),
        ({"per_helper_files": 3}, ["code-check", "repair"], "per_node_files 10 is not a multiple of per_helper_files 3"),
        ({"per_node_files": 5}, ["code-check", "uplink-energy"], "nodes * per_node_files = 25 cannot hold total_files 30"),
        ({"total_files": 60}, ["code-check", "uplink-energy"], "nodes * per_node_files = 50 cannot hold total_files 60"),
        ({"point": "mbr"}, ["code-check", "repair"], "give 2 repair helpers at mbr, but repair_d is 4"),
        ({"repair_d": 3}, ["code-check", "repair"], "give 4 repair helpers at msr, but repair_d is 3"),
    ],
    ids=["field-7", "field-100", "helper-3", "node-5", "total-60", "mbr-d-4", "msr-d-3"],
)
def test_cli_inconsistent_code_block_is_a_config_error(tmp_path, capsys, code, commands, message):
    scenario = tmp_path / "code.json"
    scenario.write_text(json.dumps({"code": code}))
    for command in commands:
        assert run_cli([command, "--scenario", str(scenario), "--out", str(tmp_path)]) == 2, command
        assert message in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()


STAGE_COMMANDS = ["downlink-energy", "downlink-time", "uplink-energy", "uplink-time", "repair"]


@pytest.mark.parametrize(
    "user, commands, message",
    [
        (
            {"uplink": {"carriers_hz": [29.5e9, 29.5e9, 30.25e9, 30.625e9, 31.0e9]}},
            ["uplink-energy", "uplink-time"],
            "uplink carriers must be distinct",
        ),
        (
            {"constellation": {"geos_altitude_m": 1000e3}},
            ["code-check", *STAGE_COMMANDS],
            "LEO altitudes must lie below the GEO altitude",
        ),
        ({"code": {"reconstruct_k": 4, "repair_d": 3}}, ["code-check", "repair"], "need K <= D"),
    ],
    ids=["repeated-carrier", "geo-below-leos", "k-above-d"],
)
def test_cli_scenario_a_request_refuses_is_a_config_error(tmp_path, capsys, user, commands, message):
    # the constellation, stage request and code point checks run when the scenario resolves
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(user))
    for command in commands:
        assert run_cli([command, "--scenario", str(scenario), "--out", str(tmp_path)]) == 2, command
        assert f"configuration error: scenario invalid: {message}" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()


def _cap_address_space():
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["downlink-energy", "--dt", "1e-7"], 2, "scenario invalid: horizon 600 s needs more than 1000000 grid cells"),
        (["uplink-time", "--pmax", "1e-6"], 3, "infeasible: a 1.04838e+06 s window needs more than 1000000 grid cells"),
        (["downlink-time", "--pmax", "1e-6"], 3, "infeasible: a 1.04858e+06 s window needs more than 1000000 grid cells"),
    ],
    ids=["grid-step", "uplink-floor", "downlink-floor"],
)
def test_cli_grid_cell_bound(tmp_path, args, code, message):
    """A grid that would hold more than MAX_CELLS cells per channel ends in exit 2 or 3.

    The call runs in a process capped at 2 GiB of address space: without the
    bound these calls ask for 67 M to 4 G cells, so a regression fails the
    test rather than exhausting the host's memory.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "georelay.cli", *args, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
        timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert not list(tmp_path.iterdir())


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
    header = raw.decode().splitlines()[0].split(",")
    assert not {"iterations", "z_lower", "z_upper"} & set(header)
    assert "kkt_residual_max" in header
    assert run_cli(["downlink-time", "--out", str(tmp_path), "--dt", "2"]) == 0


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
    [
        ["--dt", "0"], ["--dt", "-1"], ["--horizon", "-1"], ["--pmax", "0"], ["--ts", "-5"],
        ["--ts", "nan"], ["--dt", "inf"], ["--dt", "nan"], ["--emax", "nan"], ["--horizon", "inf"],
    ],
)
def test_cli_invalid_flag_is_a_schema_error(tmp_path, flags):
    assert run_cli(["downlink-energy", *flags, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "downlink-energy.csv").exists()


@pytest.mark.parametrize(
    "text", ['{"uplink": {"horizon_s": Infinity}}', '{"solver": {"time_energy_rel_tol": NaN}}'], ids=["infinity", "nan"]
)
def test_cli_non_finite_scenario_number_is_a_schema_error(tmp_path, capsys, text):
    scenario = tmp_path / "bad.json"
    scenario.write_text(text)
    assert run_cli(["uplink-energy", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
    assert "NaN or infinite number" in capsys.readouterr().err


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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def subcommand_columns(task, rows):
    """The columns of a ``task`` sweep row as the matching subcommand's CSV reports them."""
    if task.startswith("repair"):
        total = {r["scheme"]: r for r in rows if r["leos"] == "total"}
        if task == "repair-time":
            return {f"{k}_duration_s": total[s]["duration_s"] for k, s in (("regen", "regenerating"), ("mds", "mds"))}
        helpers = [r["leos"] for r in rows if r["scheme"] == "regenerating" and r["leos"] != "total"]
        return {
            "regen_energy_j": total["regenerating"]["energy_j"],
            "mds_energy_j": total["mds"]["energy_j"],
            "regen_helpers": ";".join(helpers),
        }
    *body, total = rows
    expected = {"energy_j": total["energy_j"]}
    if task == "downlink-energy":
        expected["baseline_energy_j"] = total["baseline_energy_j"]
    if task.endswith("time"):
        duration = total["min_duration_s" if task == "downlink-time" else "duration_s"]
        expected.update(duration_s=duration, budget_bound=total["budget_bound"])
    if task.startswith("uplink"):
        expected.update({f"mu_{i + 1}": r["mu_files"] for i, r in enumerate(body)})
    return expected


@pytest.mark.parametrize("task", cli.SWEEP_TASKS)
def test_cli_sweep_row_matches_subcommand(tmp_path, task):
    command = "repair" if task.startswith("repair") else task
    assert run_cli([command, "--ts", "37.5", "--out", str(tmp_path)]) == 0
    sweep = ["sweep", "--task", task, "--from", "37.5", "--to", "37.5", "--step", "1", "--out", str(tmp_path)]
    assert run_cli(sweep) == 0
    expected = subcommand_columns(task, read_csv(tmp_path / f"{command}.csv"))
    (point,) = read_csv(tmp_path / f"sweep-{task}.csv")
    assert point["ts_s"] == "37.5"
    assert {k: point[k] for k in expected} == expected


def test_cli_sweep_points_are_from_plus_multiples_of_step(tmp_path, monkeypatch):
    points = []

    def record(task, config, ts):
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


def test_cli_sweep_rejects_negative_start(tmp_path, monkeypatch):
    def no_work(*_):
        raise AssertionError("a sweep from a negative start time started work")

    monkeypatch.setattr(cli, "_sweep_point", no_work)
    args = ["sweep", "--task", "downlink-energy", "--from", "-50", "--to", "-50", "--step", "1", "--out", str(tmp_path)]
    assert run_cli(args) == 2


def test_cli_sweep_rejects_unknown_param(tmp_path, capsys):
    # the start time is the one swept parameter, so sweep takes no --param
    with pytest.raises(SystemExit) as exc:
        run_cli(
            ["sweep", "--param", "pmax", "--task", "uplink-energy", "--from", "0", "--to", "1", "--step", "1", "--out", str(tmp_path)]
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: georelay sweep ")
    assert "georelay sweep: error: unrecognized arguments: --param pmax" in err


@pytest.mark.parametrize("flag", ["--ts", "--horizon", "--emax", "--pmax"])
def test_cli_code_check_refuses_window_flags(tmp_path, capsys, flag):
    # the code block has no window or budget for these flags to set
    with pytest.raises(SystemExit) as exc:
        run_cli(["code-check", flag, "133", "--seed", "7", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("usage: georelay code-check ")
    assert f"georelay code-check: error: unrecognized arguments: {flag} 133" in err


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


def test_cli_import_leaves_lp_solver_unloaded():
    # a fresh process: the benchmark-contract test imports the module into this one
    code = "import sys, georelay.cli; print('georelay.lp_solver' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
