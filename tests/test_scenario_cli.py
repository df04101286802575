import argparse
import csv
import dataclasses
import json
import re
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from georelay import cli, coding
from georelay.cli import main
from georelay.errors import ConfigError
from georelay.coding import MAX_GENERATOR_ENTRIES
from georelay.scenario import DEFAULT_CONFIG, SCHEMA, build_regen_params, load_config, resolve_config
from oracles import check_mu_reconstructable


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
    """A refused scenario reports the error jsonschema.validate picks."""
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
        ({"field_order": 7}, ["code-check"], "field order 7 must be 256 or a prime"),
        ({"field_order": 100}, ["code-check"], "field order 100 must be 256 or a prime"),
        (
            {"per_helper_files": 3},
            ["code-check", "repair"],
            "per_node_files 10 and per_helper_files 3 are not the msr point of total_files 30, "
            "reconstruct_k 3 and repair_d 4: alpha 10, beta 5",
        ),
        ({"per_node_files": 5}, ["code-check", "uplink-energy"], "nodes * per_node_files = 25 cannot hold total_files 30"),
        ({"total_files": 60}, ["code-check", "uplink-energy"], "nodes * per_node_files = 50 cannot hold total_files 60"),
        (
            {"point": "mbr"},
            ["code-check", "repair"],
            "per_node_files 10 and per_helper_files 5 are not the mbr point of total_files 30, "
            "reconstruct_k 3 and repair_d 4: alpha 40/3, beta 10/3",
        ),
        (
            {"repair_d": 3},
            ["code-check", "repair"],
            "per_node_files 10 and per_helper_files 5 are not the msr point of total_files 30, "
            "reconstruct_k 3 and repair_d 3: alpha 10, beta 10",
        ),
        (
            {"per_node_files": 20, "per_helper_files": 10},
            ["code-check", "downlink-energy", "downlink-time", "uplink-energy", "uplink-time", "repair"],
            "per_node_files 20 and per_helper_files 10 are not the msr point of total_files 30, "
            "reconstruct_k 3 and repair_d 4: alpha 10, beta 5",
        ),
        (
            {"total_files": 36, "repair_d": 5, "per_node_files": 12, "per_helper_files": 4},
            ["code-check", "downlink-energy", "downlink-time", "uplink-energy", "uplink-time", "repair"],
            "need K <= D <= N-1, got K=3, D=5, N=5",
        ),
    ],
    ids=["field-7", "field-100", "helper-3", "node-5", "total-60", "mbr-d-4", "msr-d-3", "off-point", "d-5-of-5"],
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


_UNREACHABLE_BITS = {"code": {"file_bits": 1e16}}


@pytest.mark.parametrize(
    "args, user, code, message",
    [
        (["downlink-energy", "--dt", "1e-7"], {}, 2, "scenario invalid: horizon 600 s needs more than 1000000 grid cells"),
        (["uplink-time", "--pmax", "1e-6"], {}, 3, "infeasible: file total unreachable within the horizon search bound"),
        (["downlink-time", "--pmax", "1e-6"], {}, 3, "infeasible: LEO 0: bit target unreachable in any horizon"),
        (["uplink-time"], _UNREACHABLE_BITS, 3, "infeasible: file total unreachable within the horizon search bound"),
        (["downlink-time"], _UNREACHABLE_BITS, 3, "infeasible: LEO 0: bit target unreachable in any horizon"),
    ],
    ids=["grid-step", "uplink-floor", "downlink-floor", "uplink-file-bits", "downlink-file-bits"],
)
def test_cli_grid_cell_bound(tmp_path, args, user, code, message):
    """A grid that would hold more than MAX_CELLS cells per channel ends in exit 2 or 3.

    A floor search stops at MAX_CELLS grid steps with its stage's own
    unreachable message. The call runs in a process capped at 2 GiB of
    address space: without the bound these calls ask for 67 M to 4 G cells,
    so a regression fails the test rather than exhausting the host's memory.
    """
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(user))
    out = tmp_path / "out"
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "georelay.cli", *args, "--scenario", str(scenario), "--out", str(out)],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
        timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert not list(out.iterdir())


# a valid code whose 100,000 x 60,000 int64 generator would take about 45 GiB
_OVERSIZED_CODE = {"code": {"total_files": 60000, "per_node_files": 20000, "per_helper_files": 10000, "field_order": 100003}}


def test_code_node_count_must_be_the_leo_count():
    with pytest.raises(ConfigError, match="^code block declares 6 nodes, constellation has 5$"):
        resolve_config({"code": {"nodes": 6}})


_FIELD_RULE = "must be 256 or a prime up to 1048576, and at least nodes * per_node_files = 50"


@pytest.mark.parametrize(
    "code, message",
    [
        ({"field_order": 100}, f"field order 100 {_FIELD_RULE}"),
        ({"field_order": 1048583}, f"field order 1048583 {_FIELD_RULE}"),
        ({"field_order": 47}, f"field order 47 {_FIELD_RULE}"),
        ({"total_files": 60}, "nodes * per_node_files = 50 cannot hold total_files 60"),
        (
            {"total_files": 900, "per_node_files": 300, "field_order": 1511},
            "code generator of nodes * per_node_files x total_files = 1500 x 900 entries exceeds the bound of 1048576",
        ),
    ],
    ids=["not-a-field", "prime-above-the-bound", "field-too-small", "cannot-hold", "generator-too-large"],
)
def test_encode_and_the_scenario_refuse_a_code_with_one_message(code, message):
    # each code breaks one rule of coding.check_code, and both callers raise its words
    params = build_regen_params({"code": {**DEFAULT_CONFIG["code"], **code}})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        coding.encode(params, code.get("field_order", 256))
    with pytest.raises(ConfigError, match=f"^scenario invalid: {re.escape(message)}$"):
        resolve_config({"code": code})


def test_cli_oversized_code_is_refused_before_it_is_built(tmp_path):
    """Every subcommand refuses a code past the generator bound with exit 2 in under 1 s.

    The calls run in one process capped at 1 GiB of address space, so a
    regression that builds the generator fails the test rather than
    exhausting the host's memory.
    """
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_OVERSIZED_CODE))
    out = tmp_path / "out"
    calls = [[command] for command in cli.COMMANDS] + [["sweep", "--from", "0", "--to", "1", "--step", "1"]]
    code = (
        "import json, resource, sys, time\n"
        "limit = 1 << 30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from georelay.cli import main\n"
        "for call in json.loads(sys.argv[1]):\n"
        "    start = time.perf_counter()\n"
        "    rc = main(call + ['--scenario', sys.argv[2], '--out', sys.argv[3]])\n"
        "    print(call[0], rc, time.perf_counter() - start)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(calls), str(scenario), str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [line.split() for line in proc.stdout.splitlines()]
    assert [(command, rc) for command, rc, _ in results] == [(call[0], "2") for call in calls]
    assert max(float(seconds) for *_, seconds in results) < 1.0
    bound = f"x total_files = 100000 x 60000 entries exceeds the bound of {MAX_GENERATOR_ENTRIES}"
    assert proc.stderr.count(bound) == len(calls), proc.stderr
    assert not out.exists()


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


@pytest.mark.parametrize("cached", [False, True], ids=["first-decode", "cached-decoder"])
def test_cli_code_check_fails_on_a_corrupted_store(tmp_path, capsys, monkeypatch, cached):
    # the decode of every stored symbol finds one corrupted symbol on its first solve and on a replay
    coding._DECODERS.clear()
    if cached:
        assert run_cli(["code-check", "--out", str(tmp_path)]) == 0
    stores = []

    def corrupted(*args, **kwargs):
        store = coding.encode(*args, **kwargs)
        payloads = [payload.copy() for payload in store.payloads]
        payloads[2][4] ^= 1
        stores.append(dataclasses.replace(store, payloads=tuple(payloads)))
        return stores[-1]

    monkeypatch.setattr(cli, "encode", corrupted)
    assert run_cli(["code-check", "--out", str(tmp_path)]) == 0
    assert "rank_ok=False" in capsys.readouterr().out
    with open(tmp_path / "code-check.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["rank_ok"] == "False"
    (store,) = stores
    # the rank oracle reads only the encoders, which the corruption leaves as they were
    assert check_mu_reconstructable(store, [store.params.per_node_files] * store.params.n_nodes)


def test_cli_code_check_n40_gf761_scenario(tmp_path, capsys):
    # 40 LEOs under the d = 2k - 2 MSR code (380, 40, 20, 38, 19, 1): N alpha = 760 > 256 needs GF(761)
    scenario = Path(__file__).parent / "data" / "scenarios" / "n40-gf761.json"
    assert run_cli(["code-check", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    assert "rank_ok=True" in capsys.readouterr().out
    with open(tmp_path / "code-check.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["field_order"], row["nodes"], row["total_files"], row["rank_ok"]) == ("761", "40", "380", "True")


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
    assert run_cli(["downlink-energy", *flags, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


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


def test_cli_sweep_refuses_ts(tmp_path, capsys):
    # sweep sets the start time itself, from --from to --to
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--task", "downlink-energy", "--from", "0", "--to", "10", "--step", "5", "--ts", "50", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("usage: georelay sweep ")
    assert "georelay sweep: error: unrecognized arguments: --ts 50" in err


def test_cli_integral_float_in_an_integer_field_reads_as_its_int(tmp_path):
    """The schema takes 30.0 as an integer; every command then runs as on 30."""
    integers = {
        block: {name: DEFAULT_CONFIG[block][name] for name, field in fields["properties"].items() if field.get("type") == "integer"}
        for block, fields in SCHEMA["properties"].items()
    }
    assert sum(map(len, integers.values())) == 9
    scenarios = {"int": integers, "float": {block: {k: float(v) for k, v in f.items()} for block, f in integers.items()}}
    for label, user in scenarios.items():
        (tmp_path / f"{label}.json").write_text(json.dumps(user))
    for command in ["code-check", "downlink-energy", "uplink-energy", "uplink-time", "repair"]:
        for label in scenarios:
            args = [command, "--scenario", str(tmp_path / f"{label}.json"), "--out", str(tmp_path / label)]
            assert run_cli(args) == 0, (command, label)
        csv_bytes, manifests = ([(tmp_path / label / f"{command}{suffix}").read_bytes() for label in scenarios] for suffix in (".csv", ".manifest.json"))
        assert csv_bytes[0] == csv_bytes[1], command
        assert manifests[0] == manifests[1], command
        config = json.loads(manifests[1])["config"]
        assert all(type(config[block][name]) is int for block, fields in integers.items() for name in fields), command


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


def test_cli_accept_path_leaves_jsonschema_unloaded(tmp_path):
    """Neither a valid scenario nor a refused one imports jsonschema; the refusal still reads in its words."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"downlink": {"nope": 1}}')
    code = (
        "import sys\n"
        "from georelay.cli import main\n"
        "out, bad = sys.argv[1:]\n"
        "print('rc', main(['downlink-energy', '--out', out]), 'jsonschema' in sys.modules)\n"
        "print('rc', main(['downlink-energy', '--scenario', bad, '--out', out]), 'jsonschema' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"), str(bad)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("rc ")] == ["rc 0 False", "rc 2 False"]
    assert (
        "configuration error: scenario invalid: Additional properties are not allowed ('nope' was unexpected) "
        "(at ['downlink'])" in proc.stderr
    )


def test_cli_runs_and_refuses_without_jsonschema(tmp_path):
    """With ``import jsonschema`` refused, a valid scenario writes the same CSV and a refusal reads the same."""
    bad = {"constellation": {"leos": [{"altitude_m": -1.0}]}, "code": {"point": "rsm"}}
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(bad, SCHEMA)
    err = expected.value
    assert run_cli(["downlink-energy", "--dt", "5", "--out", str(tmp_path / "here")]) == 0
    code = (
        "import sys\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'jsonschema':\n"
        "            raise ImportError(name)\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "from georelay.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    args = [sys.executable, "-c", code, "downlink-energy", "--dt", "5", "--out", str(tmp_path / "there")]
    accepted = subprocess.run(args, capture_output=True, text=True)
    assert accepted.returncode == 0, accepted.stderr
    refused = subprocess.run(args + ["--scenario", str(tmp_path / "bad.json")], capture_output=True, text=True)
    assert refused.returncode == 2
    assert refused.stderr == f"configuration error: scenario invalid: {err.message} (at {list(err.absolute_path)})\n"
    here, there = (tmp_path / out / "downlink-energy.csv" for out in ("here", "there"))
    assert there.read_bytes() == here.read_bytes()


@pytest.mark.parametrize(
    "user, message",
    [
        # two errors at one LEO item: additionalProperties comes before required in the item's schema
        (
            {"constellation": {"leos": [{"altitude_m": 5e5, "velocity_mps": 7e3, "phase_offset_deg": 0, "mass_kg": 1}]}},
            "Additional properties are not allowed ('mass_kg' was unexpected) (at ['constellation', 'leos', 0])",
        ),
        # equal depth in two blocks: the greater path wins, though the walk meets downlink first
        (
            {"downlink": {"p_max_w": -1}, "uplink": {"p_max_w": 0}},
            "0 is less than or equal to the minimum of 0 (at ['uplink', 'p_max_w'])",
        ),
    ],
    ids=["one-item", "two-blocks"],
)
def test_refusal_tie_rule(user, message):
    with pytest.raises(ConfigError) as got:
        resolve_config(user)
    assert str(got.value) == f"scenario invalid: {message}"
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(user, SCHEMA)
    assert f"{expected.value.message} (at {list(expected.value.absolute_path)})" == message


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe{}", b"[" * 3000, b'{"constellation": {"leos": ' + b"[" * 985 + b"]" * 985 + b"}}"],
    ids=["not-utf8", "deep-json", "deep-leos"],
)
def test_cli_unreadable_scenario_is_a_config_error(tmp_path, capsys, raw):
    (tmp_path / "bad.json").write_bytes(raw)
    assert run_cli(["code-check", "--scenario", str(tmp_path / "bad.json"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_refusal_of_a_value_too_deep_to_quote():
    leos: list = []
    for _ in range(sys.getrecursionlimit() + 100):
        leos = [leos]
    with pytest.raises(ConfigError, match="a value nested too deeply to quote"):
        resolve_config({"constellation": {"leos": leos}})


def test_cli_unwritable_out_exits_before_the_solve(tmp_path, capsys, monkeypatch):
    def solve(config):
        raise AssertionError("code-check ran")

    monkeypatch.setitem(cli.COMMANDS, "code-check", solve)
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "sub")
    assert run_cli(["code-check", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"cannot write {out}: ")


def test_cli_refused_call_leaves_no_out_directory(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"downlink": {"nope": 1}}')
    # refused flags are covered by test_cli_invalid_flag_is_a_schema_error
    refused = [
        ["downlink-energy", "--scenario", str(bad)],
        ["sweep", "--task", "downlink-energy", "--from", "-5", "--to", "0", "--step", "1"],
    ]
    for i, args in enumerate(refused):
        out = tmp_path / f"refused-{i}"
        assert run_cli([*args, "--out", str(out)]) == 2, args
        assert not out.exists(), args
    out = tmp_path / "a" / "b" / "c"
    assert run_cli(["code-check", "--dt", "5", "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["code-check.csv", "code-check.manifest.json"]


def _outputs(out) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_cli_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    """The parser a process reuses carries no flag of one call into a later one."""
    before = [
        ["sweep", "--task", "repair-time", "--from", "0", "--to", "20", "--step", "20", "--dt", "5"],
        ["downlink-time", "--ts", "30", "--emax", "21500", "--dt", "2"],
    ]
    after = [["downlink-time"], ["code-check"]]
    for i, args in enumerate(before):
        assert run_cli([*args, "--out", str(tmp_path / "here" / str(i))]) == 0, args
    with pytest.raises(SystemExit) as exc:
        run_cli(["downlink-energy", "--bogus", "1", "--out", str(tmp_path / "refused")])
    assert exc.value.code == 2
    assert "usage: georelay downlink-energy" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    for i, args in enumerate(after, start=len(before)):
        assert run_cli([*args, "--out", str(tmp_path / "here" / str(i))]) == 0, args
    for i, args in enumerate(before + after):
        fresh = tmp_path / "fresh" / str(i)
        proc = subprocess.run(
            [sys.executable, "-m", "georelay.cli", *args, "--out", str(fresh)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        here = _outputs(tmp_path / "here" / str(i))
        assert len(here) == 2 and here == _outputs(fresh), args


def test_cli_builds_its_parser_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    calls = [["code-check", "--dt", "5"], ["code-check", "--scenario", str(tmp_path / "missing.json")], ["code-check"]]
    counts = []
    for args in calls:
        run_cli([*args, "--out", str(tmp_path)])
        counts.append(len(built))
    # the first call builds it unless an earlier test in this process did; no later call does
    assert counts == [counts[0]] * len(calls)
