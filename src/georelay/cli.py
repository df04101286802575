"""Command-line experiment runner with CSV artifacts.

Each subcommand resolves the scenario (defaults + file + flag overrides,
validated together against one schema), runs one experiment, and writes
``<out>/<name>.csv`` plus a run manifest ``<name>.manifest.json`` holding the
fully resolved configuration. Outputs are byte-deterministic for a fixed
(config, seed); files are written to a temporary path and atomically renamed.

Exit codes: 0 success, 2 configuration/schema error, 3 infeasible instance,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .coding import check_mu_reconstructable, encode, repair_requirement, validate_params
from .downlink_opt import constant_power_baseline, min_energy_downlink, min_time_downlink
from .errors import ConfigError, GeorelayError, InfeasibleError, InternalError
from .repair_opt import (
    mds_repair_baseline,
    mds_repair_min_time,
    repair_min_energy,
    repair_min_time,
)
from .scenario import (
    SCHEMA,
    build_regen_params,
    build_downlink_request,
    build_repair_request,
    build_uplink_request,
    code_point_check,
    load_config,
    operating_point,
)
from .uplink_opt import min_time_uplink, oa_min_energy_uplink

# a sweep point takes 0.01-1 s, so this many already take minutes to hours
MAX_SWEEP_POINTS = 10_000


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            return ""
        return repr(value)
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row.get(col)) for col in header])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(csv_path: str, command: str, config: dict) -> None:
    path = csv_path[: -len(".csv")] + ".manifest.json" if csv_path.endswith(".csv") else csv_path + ".manifest.json"
    payload = {
        "command": command,
        "config": config,
        "seed": config["solver"]["seed"],
        "package_version": __version__,
    }
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# stage-block field each window flag sets; code-check's parser has none of them
WINDOW_FLAGS = {"ts": "t_start_s", "horizon": "horizon_s", "emax": "e_max_j", "pmax": "p_max_w"}


def _flag_overrides(args, block: str) -> dict:
    """The scenario fields that command-line flags set, as a partial scenario."""
    flags = {
        block: {field: getattr(args, flag, None) for flag, field in WINDOW_FLAGS.items()},
        "solver": {"seed": args.seed, "grid_step_s": args.dt},
    }
    return {name: {k: v for k, v in fields.items() if v is not None} for name, fields in flags.items()}


def _alloc_rows(alloc, baseline=None, mu=None):
    rows = []
    n = len(alloc.profiles)
    for i in range(n):
        rows.append(
            {
                "leos": i + 1,
                "window_start_s": alloc.profiles[i].t_start_s,
                "window_end_s": alloc.profiles[i].t_end_s,
                "mu_files": None if mu is None else int(mu[i]),
                "energy_j": float(alloc.energies_j[i]),
                "delivered_bits": float(alloc.delivered_bits[i]),
                "water_level": float(alloc.water_levels[i]),
                "baseline_energy_j": None if baseline is None else float(baseline.energies_j[i]),
                "kkt_residual_max": None,
            }
        )
    rows.append(
        {
            "leos": "total",
            "mu_files": None if mu is None else int(np.sum(mu)),
            "energy_j": alloc.total_energy_j,
            "delivered_bits": float(np.sum(alloc.delivered_bits)),
            "baseline_energy_j": None if baseline is None else baseline.total_energy_j,
            "kkt_residual_max": alloc.kkt_residual_max,
        }
    )
    return rows


_ALLOC_HEADER = [
    "leos",
    "window_start_s",
    "window_end_s",
    "mu_files",
    "energy_j",
    "delivered_bits",
    "water_level",
    "baseline_energy_j",
    "kkt_residual_max",
]


def cmd_code_check(config: dict, args) -> tuple[list[str], list[dict]]:
    params = build_regen_params(config)
    report = validate_params(params)
    point = code_point_check(config)
    plan = repair_requirement(operating_point(config), params)
    seed = config["solver"]["seed"]
    store = encode(params, config["code"]["field_order"], seed=seed)
    full = np.full(params.n_nodes, params.per_node_files)
    rank_ok = check_mu_reconstructable(store, full)
    print(
        f"code-check: alpha={point.per_node_files} beta={point.per_helper_files} "
        f"gamma={point.repair_bandwidth} capacity_sum={report.capacity_sum} "
        f"params_ok={report.ok} rank_ok={rank_ok} attempts={store.attempts}"
    )
    if not report.ok:
        for v in report.violations:
            print(f"  violation: {v}")
    row = {
        "field_order": config["code"]["field_order"],
        "total_files": params.n_files,
        "nodes": params.n_nodes,
        "reconstruct_k": params.reconstruct_k,
        "repair_d": params.repair_d,
        "per_node_files": params.per_node_files,
        "per_helper_files": params.per_helper_files,
        "point": config["code"]["point"],
        "point_alpha": str(point.per_node_files),
        "point_beta": str(point.per_helper_files),
        "point_gamma": str(point.repair_bandwidth),
        "capacity_sum": report.capacity_sum,
        "params_ok": report.ok,
        "regen_helpers": plan.helpers,
        "regen_per_helper": plan.per_helper_files,
        "regen_total_files": plan.total_files,
        "mds_total_files": params.n_files,
        "rank_ok": rank_ok,
        "encode_attempts": store.attempts,
        "seed": seed,
        "kkt_residual_max": None,
    }
    header = [k for k in row]
    return header, [row]


def _block(task: str) -> str:
    """The scenario block a subcommand or sweep task reads (names are "<block>-<what>")."""
    return task.split("-")[0]


def solve_task(task: str, config: dict) -> tuple:
    """The results of one sweep task's solves on a resolved scenario.

    This is the one place the CLI calls the stage solvers; their settings
    travel in the requests the scenario builds.
    """
    if task == "downlink-energy":
        req = build_downlink_request(config)
        return min_energy_downlink(req), constant_power_baseline(req)
    if task == "downlink-time":
        return min_time_downlink(build_downlink_request(config))
    if task == "uplink-energy":
        return (oa_min_energy_uplink(build_uplink_request(config)),)
    if task == "uplink-time":
        return (min_time_uplink(build_uplink_request(config)),)
    req = build_repair_request(config)
    if task == "repair-energy":
        return repair_min_energy(req), mds_repair_baseline(req)
    if task == "repair-time":
        return repair_min_time(req), mds_repair_min_time(req)
    raise ConfigError(f"unknown task {task!r}")


def cmd_downlink_energy(config: dict, args) -> tuple[list[str], list[dict]]:
    alloc, baseline = solve_task("downlink-energy", config)
    return _ALLOC_HEADER, _alloc_rows(alloc, baseline=baseline)


def cmd_downlink_time(config: dict, args) -> tuple[list[str], list[dict]]:
    res, floors = solve_task("downlink-time", config)
    rows = _alloc_rows(res.result)
    for i, row in enumerate(rows[:-1]):
        row["min_duration_s"] = float(floors[i])
    rows[-1].update(
        {
            "min_duration_s": res.duration_s,
            "budget_bound": res.budget_bound,
            "energy_at_t0_j": res.energy_at_t0_j,
        }
    )
    header = _ALLOC_HEADER + ["min_duration_s", "budget_bound", "energy_at_t0_j"]
    return header, rows


def cmd_uplink_energy(config: dict, args) -> tuple[list[str], list[dict]]:
    (result,) = solve_task("uplink-energy", config)
    return _ALLOC_HEADER, _alloc_rows(result.allocation, mu=result.mu)


def cmd_uplink_time(config: dict, args) -> tuple[list[str], list[dict]]:
    (res,) = solve_task("uplink-time", config)
    rows = _alloc_rows(res.result.allocation, mu=res.result.mu)
    rows[-1].update(
        {
            "duration_s": res.duration_s,
            "budget_bound": res.budget_bound,
            "min_duration_s": res.floor_s,
            "energy_at_t0_j": res.energy_at_t0_j,
        }
    )
    header = _ALLOC_HEADER + ["duration_s", "budget_bound", "min_duration_s", "energy_at_t0_j"]
    return header, rows


def cmd_repair(config: dict, args) -> tuple[list[str], list[dict]]:
    regen, mds = solve_task("repair-energy", config)
    regen_time, mds_time = solve_task("repair-time", config)
    rows = []
    for scheme, res, tres in (("regenerating", regen, regen_time), ("mds", mds, mds_time)):
        for i, helper in enumerate(res.helpers):
            rows.append(
                {
                    "scheme": scheme,
                    "leos": helper + 1,
                    "files": int(res.files_per_helper[i]),
                    "energy_j": float(res.allocation.energies_j[i]),
                }
            )
        rows.append(
            {
                "scheme": scheme,
                "leos": "total",
                "files": res.total_files,
                "energy_j": res.allocation.total_energy_j,
                "duration_s": tres.duration_s,
                "budget_bound": tres.budget_bound,
                "kkt_residual_max": res.allocation.kkt_residual_max,
            }
        )
    header = ["scheme", "leos", "files", "energy_j", "duration_s", "budget_bound", "kkt_residual_max"]
    return header, rows


def _oa_columns(result) -> dict:
    """Per-LEO file counts and the KKT residual of an uplink result, as sweep columns."""
    row = {f"mu_{i + 1}": int(v) for i, v in enumerate(result.mu)}
    row["kkt_residual_max"] = result.allocation.kkt_residual_max
    return row


def _sweep_point(task: str, config: dict, ts: float) -> dict:
    block = _block(task)
    results = solve_task(task, {**config, block: {**config[block], "t_start_s": ts}})
    row: dict = {"ts_s": ts}
    if task == "downlink-energy":
        alloc, base = results
        row.update(
            energy_j=alloc.total_energy_j,
            baseline_energy_j=base.total_energy_j,
            kkt_residual_max=alloc.kkt_residual_max,
        )
    elif task == "downlink-time":
        res, _ = results
        row.update(
            duration_s=res.duration_s,
            energy_j=res.result.total_energy_j,
            budget_bound=res.budget_bound,
            kkt_residual_max=res.result.kkt_residual_max,
        )
    elif task == "uplink-energy":
        (result,) = results
        row.update(energy_j=result.allocation.total_energy_j, **_oa_columns(result))
    elif task == "uplink-time":
        (res,) = results
        row.update(duration_s=res.duration_s, energy_j=res.result.allocation.total_energy_j)
        row.update(budget_bound=res.budget_bound, **_oa_columns(res.result))
    elif task == "repair-energy":
        regen, mds = results
        row.update(
            regen_energy_j=regen.allocation.total_energy_j,
            mds_energy_j=mds.allocation.total_energy_j,
            regen_helpers=";".join(str(h + 1) for h in regen.helpers),
            kkt_residual_max=regen.allocation.kkt_residual_max,
        )
    else:  # repair-time
        regen, mds = results
        row.update(
            regen_duration_s=regen.duration_s,
            mds_duration_s=mds.duration_s,
            regen_energy_j=regen.result.allocation.total_energy_j,
            mds_energy_j=mds.result.allocation.total_energy_j,
            kkt_residual_max=regen.result.allocation.kkt_residual_max,
        )
    return row


def cmd_sweep(config: dict, args) -> tuple[list[str], list[dict]]:
    start = getattr(args, "from")
    # points only increase from `from`, so its bound covers them all
    ts_min = SCHEMA["properties"][_block(args.task)]["properties"]["t_start_s"]["minimum"]
    if not (args.step > 0 and args.to >= start >= ts_min):
        raise ConfigError(f"sweep requires step > 0, to >= from and from >= {ts_min}")
    # points from, from + step, ... up to to (with 1e-9 s slack)
    span = (args.to - start + 1e-9) // args.step
    if not span < MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep has more than {MAX_SWEEP_POINTS} points")
    points = [round(start + i * args.step, 9) for i in range(int(span) + 1)]
    rows = [_sweep_point(args.task, config, ts) for ts in points]
    header: list[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    return header, rows


def _write_gnuplot(csv_path: str, header: list[str]) -> None:
    gp_path = csv_path[: -len(".csv")] + ".gp"
    ycol = 2 if len(header) > 1 else 1
    script = (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        f"plot '{os.path.basename(csv_path)}' using 1:{ycol} with linespoints\n"
    )
    with open(gp_path, "w") as fh:
        fh.write(script)


COMMANDS = {
    "code-check": cmd_code_check,
    "downlink-energy": cmd_downlink_energy,
    "downlink-time": cmd_downlink_time,
    "uplink-energy": cmd_uplink_energy,
    "uplink-time": cmd_uplink_time,
    "repair": cmd_repair,
}

SWEEP_TASKS = (
    "downlink-energy",
    "downlink-time",
    "uplink-energy",
    "uplink-time",
    "repair-energy",
    "repair-time",
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="scenario JSON file (defaults reproduce the reference setup)")
    common.add_argument("--seed", type=int, help="override RNG seed")
    common.add_argument("--dt", type=float, help="override grid step [s]")
    common.add_argument("--out", default=".", help="output directory (default: current)")
    common.add_argument("--gnuplot", action="store_true", help="emit a gnuplot script next to the CSV")
    # the stage blocks' window and budget; the code block has none
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--ts", type=float, help="override transmission start time [s]")
    window.add_argument("--horizon", type=float, help="override transmission horizon T [s]")
    window.add_argument("--emax", type=float, help="override energy budget [J]")
    window.add_argument("--pmax", type=float, help="override per-beam power cap [W]")

    parser = argparse.ArgumentParser(
        prog="georelay",
        description="Relay-constellation resource allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common] if name == "code-check" else [common, window])
    sweep = sub.add_parser("sweep", parents=[common, window], description="sweep the start time --ts")
    sweep.add_argument("--task", default="uplink-energy", choices=SWEEP_TASKS)
    sweep.add_argument("--from", dest="from", type=float, required=True)
    sweep.add_argument("--to", type=float, required=True)
    sweep.add_argument("--step", type=float, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            handler, task, name = cmd_sweep, args.task, f"sweep-{args.task}"
        else:
            handler, task, name = COMMANDS[args.command], args.command, args.command
        config = load_config(args.scenario, _flag_overrides(args, _block(task)))
        header, rows = handler(config, args)
        csv_path = os.path.join(args.out, f"{name}.csv")
        write_csv(csv_path, header, rows)
        write_manifest(csv_path, args.command, config)
        if args.gnuplot:
            _write_gnuplot(csv_path, header)
        print(f"wrote {csv_path}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (InternalError, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 4
    except GeorelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
