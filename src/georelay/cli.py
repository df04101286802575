"""Command-line experiment runner with CSV artifacts.

Each subcommand resolves the scenario (defaults + file + flag overrides,
validated together against one schema), runs one experiment, and writes
``<out>/<name>.csv`` plus a run manifest ``<name>.manifest.json`` holding the
fully resolved configuration (and, with ``--gnuplot``, a ``<name>.gp`` plot
script). Outputs are byte-deterministic for a fixed (config, seed); every file
is written to a temporary path and atomically renamed.

Each of the six tasks in ``TASKS`` solves its stage once and returns its
subcommand's header and rows and its sweep row. A stage subcommand writes
one task's rows, ``repair`` joins the two repair tasks, and ``sweep`` writes
one task's sweep rows over the start time.

The argparse tree is built once per process, on the first ``main`` call, and
reused by every later call: building it costs more than many solves, and
in-process callers (sweep drivers, benchmarks, library code) make many
calls. A parse sets state only on its own namespace, so calls stay
independent. Nothing is built at import, so a one-call process pays nothing
extra.

Exit codes: 0 success, 2 configuration/schema error, 3 infeasible instance,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .coding import code_point, encode, reconstruct, validate_params
from .downlink_opt import constant_power_baseline, min_energy_downlink, min_time_downlink
from .errors import ConfigError, GeorelayError, InfeasibleError, InternalError, SingularSystemError
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
    load_config,
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


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file renamed into place."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([_fmt(row.get(col)) for col in header] for row in rows)
    _write(path, text.getvalue())


# stage-block field each window flag sets; code-check's parser has none of them, sweep's no --ts
WINDOW_FLAGS = {"ts": "t_start_s", "horizon": "horizon_s", "emax": "e_max_j", "pmax": "p_max_w"}


def _flag_overrides(args, block: str) -> dict:
    """The scenario fields that command-line flags set, as a partial scenario."""
    flags = {
        block: {field: getattr(args, flag, None) for flag, field in WINDOW_FLAGS.items()},
        "solver": {"seed": args.seed, "grid_step_s": args.dt},
    }
    return {name: {k: v for k, v in fields.items() if v is not None} for name, fields in flags.items()}


def _alloc_rows(alloc, baseline=None, mu=None) -> list[dict]:
    """One row per LEO and a total row; ``baseline`` and ``mu`` fill their columns when given."""
    rows = [
        {
            "leos": i + 1,
            "window_start_s": profile.t_start_s,
            "window_end_s": profile.t_end_s,
            "mu_files": None if mu is None else int(mu[i]),
            "energy_j": float(alloc.energies_j[i]),
            "delivered_bits": float(alloc.delivered_bits[i]),
            "water_level": float(alloc.water_levels[i]),
            "baseline_energy_j": None if baseline is None else float(baseline.energies_j[i]),
        }
        for i, profile in enumerate(alloc.profiles)
    ]
    total = {
        "leos": "total",
        "mu_files": None if mu is None else int(np.sum(mu)),
        "energy_j": alloc.total_energy_j,
        "delivered_bits": float(np.sum(alloc.delivered_bits)),
        "baseline_energy_j": None if baseline is None else baseline.total_energy_j,
        "kkt_residual_max": alloc.kkt_residual_max,
    }
    return rows + [total]


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


def code_check(config: dict) -> tuple[list[str], list[dict]]:
    params = build_regen_params(config)
    report = validate_params(params)
    point = code_point(config["code"]["point"], params.n_files, params.reconstruct_k, params.repair_d)
    seed = config["solver"]["seed"]
    store = encode(params, config["code"]["field_order"], seed=seed)
    # certified by a decode of every stored symbol, which must give back the source
    try:
        rank_ok = np.array_equal(reconstruct(store, store.payloads), store.source)
    except SingularSystemError:
        rank_ok = False
    print(
        f"code-check: alpha={point.per_node_files} beta={point.per_helper_files} "
        f"gamma={point.repair_bandwidth} capacity_sum={report.capacity_sum} "
        f"params_ok={report.ok} rank_ok={rank_ok} attempts={store.attempts}"
    )
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
        "regen_helpers": params.repair_d,
        "regen_per_helper": params.per_helper_files,
        "regen_total_files": params.repair_d * params.per_helper_files,
        "mds_total_files": params.n_files,
        "rank_ok": rank_ok,
        "encode_attempts": store.attempts,
        "seed": seed,
        "kkt_residual_max": None,
    }
    return list(row), [row]


def _block(task: str) -> str:
    """The scenario block a subcommand or sweep task reads (names are "<block>-<what>")."""
    return task.split("-")[0]


# Each sweep task solves once on a resolved scenario and returns the header
# and rows of its subcommand and its one sweep row (without ``ts_s``). These
# are the only calls of the stage solvers; their settings travel in the
# requests the scenario builds.


def _downlink_energy(config: dict) -> tuple[list[str], list[dict], dict]:
    req = build_downlink_request(config)
    alloc, baseline = min_energy_downlink(req), constant_power_baseline(req)
    point = {
        "energy_j": alloc.total_energy_j,
        "baseline_energy_j": baseline.total_energy_j,
        "kkt_residual_max": alloc.kkt_residual_max,
    }
    return _ALLOC_HEADER, _alloc_rows(alloc, baseline=baseline), point


def _downlink_time(config: dict) -> tuple[list[str], list[dict], dict]:
    res, floors = min_time_downlink(build_downlink_request(config))
    rows = _alloc_rows(res.result)
    for row, floor in zip(rows[:-1], floors):
        row["min_duration_s"] = float(floor)
    rows[-1].update(min_duration_s=res.duration_s, budget_bound=res.budget_bound, energy_at_t0_j=res.energy_at_t0_j)
    point = {
        "duration_s": res.duration_s,
        "energy_j": res.result.total_energy_j,
        "budget_bound": res.budget_bound,
        "kkt_residual_max": res.result.kkt_residual_max,
    }
    return _ALLOC_HEADER + ["min_duration_s", "budget_bound", "energy_at_t0_j"], rows, point


def _mu_columns(rows: list[dict]) -> dict:
    """An uplink sweep row's per-LEO file counts and KKT residual, read off the subcommand rows."""
    *leos, total = rows
    return {**{f"mu_{row['leos']}": row["mu_files"] for row in leos}, "kkt_residual_max": total["kkt_residual_max"]}


def _uplink_energy(config: dict) -> tuple[list[str], list[dict], dict]:
    result = oa_min_energy_uplink(build_uplink_request(config))
    rows = _alloc_rows(result.allocation, mu=result.mu)
    return _ALLOC_HEADER, rows, {"energy_j": result.allocation.total_energy_j, **_mu_columns(rows)}


def _uplink_time(config: dict) -> tuple[list[str], list[dict], dict]:
    res = min_time_uplink(build_uplink_request(config))
    rows = _alloc_rows(res.result.allocation, mu=res.result.mu)
    rows[-1].update(
        duration_s=res.duration_s,
        budget_bound=res.budget_bound,
        min_duration_s=res.floor_s,
        energy_at_t0_j=res.energy_at_t0_j,
    )
    point = {
        "duration_s": res.duration_s,
        "energy_j": res.result.allocation.total_energy_j,
        "budget_bound": res.budget_bound,
        **_mu_columns(rows),
    }
    return _ALLOC_HEADER + ["duration_s", "budget_bound", "min_duration_s", "energy_at_t0_j"], rows, point


_REPAIR_HEADER = ["scheme", "leos", "files", "energy_j", "duration_s", "budget_bound", "kkt_residual_max"]
_SCHEMES = ("regenerating", "mds")


def _repair_energy(config: dict) -> tuple[list[str], list[dict], dict]:
    req = build_repair_request(config)
    regen, mds = repair_min_energy(req), mds_repair_baseline(req)
    rows = []
    for scheme, res in zip(_SCHEMES, (regen, mds)):
        alloc = res.allocation
        for helper, files, energy in zip(res.helpers, res.files_per_helper, alloc.energies_j):
            rows.append({"scheme": scheme, "leos": helper + 1, "files": int(files), "energy_j": float(energy)})
        total = {"files": res.total_files, "energy_j": alloc.total_energy_j, "kkt_residual_max": alloc.kkt_residual_max}
        rows.append({"scheme": scheme, "leos": "total", **total})
    point = {
        "regen_energy_j": regen.allocation.total_energy_j,
        "mds_energy_j": mds.allocation.total_energy_j,
        "regen_helpers": ";".join(str(h + 1) for h in regen.helpers),
        "kkt_residual_max": regen.allocation.kkt_residual_max,
    }
    return _REPAIR_HEADER, rows, point


def _repair_time(config: dict) -> tuple[list[str], list[dict], dict]:
    req = build_repair_request(config)
    regen, mds = repair_min_time(req), mds_repair_min_time(req)
    rows = [
        {"scheme": scheme, "leos": "total", "duration_s": res.duration_s, "budget_bound": res.budget_bound}
        for scheme, res in zip(_SCHEMES, (regen, mds))
    ]
    point = {
        "regen_duration_s": regen.duration_s,
        "mds_duration_s": mds.duration_s,
        "regen_energy_j": regen.result.allocation.total_energy_j,
        "mds_energy_j": mds.result.allocation.total_energy_j,
        "kkt_residual_max": regen.result.allocation.kkt_residual_max,
    }
    return _REPAIR_HEADER, rows, point


TASKS = {
    "downlink-energy": _downlink_energy,
    "downlink-time": _downlink_time,
    "uplink-energy": _uplink_energy,
    "uplink-time": _uplink_time,
    "repair-energy": _repair_energy,
    "repair-time": _repair_time,
}
SWEEP_TASKS = tuple(TASKS)


def repair(config: dict) -> tuple[list[str], list[dict]]:
    """Both repair schemes at the configured horizon, each total row with its scheme's least horizon.

    The time solves run first, so that a budget they refuse from the
    closed-form energy floor builds no channel.
    """
    _, time_rows, _ = _repair_time(config)
    header, rows, _ = _repair_energy(config)
    for total, time_row in zip([row for row in rows if row["leos"] == "total"], time_rows):
        total.update(time_row)
    return header, rows


# subcommand -> its header and rows on a resolved scenario (a task adds its sweep row)
COMMANDS = {
    "code-check": code_check,
    **{task: solve for task, solve in TASKS.items() if _block(task) != "repair"},
    "repair": repair,
}


def _sweep_point(task: str, config: dict, ts: float) -> dict:
    block = _block(task)
    _, _, point = TASKS[task]({**config, block: {**config[block], "t_start_s": ts}})
    return {"ts_s": ts, **point}


def sweep_points(args) -> list[float]:
    """The start times a ``sweep`` call solves at, or a ConfigError for a refused range."""
    start = getattr(args, "from")
    # points only increase from `from`, so its bound covers them all
    ts_min = SCHEMA["properties"][_block(args.task)]["properties"]["t_start_s"]["minimum"]
    if not (args.step > 0 and args.to >= start >= ts_min):
        raise ConfigError(f"sweep requires step > 0, to >= from and from >= {ts_min}")
    # points from, from + step, ... up to to (with 1e-9 s slack)
    span = (args.to - start + 1e-9) // args.step
    if not span < MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep has more than {MAX_SWEEP_POINTS} points")
    return [round(start + i * args.step, 9) for i in range(int(span) + 1)]


def run_sweep(config: dict, task: str, points: list[float]) -> tuple[list[str], list[dict]]:
    rows = [_sweep_point(task, config, ts) for ts in points]
    return list(dict.fromkeys(key for row in rows for key in row)), rows


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser. Every call returns the same object, which ``main`` reuses: do not change it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", help="scenario JSON file (defaults reproduce the reference setup)")
    common.add_argument("--seed", type=int, help="override RNG seed")
    common.add_argument("--dt", type=float, help="override grid step [s]")
    common.add_argument("--out", default=".", help="output directory (default: current)")
    common.add_argument("--gnuplot", action="store_true", help="emit a gnuplot script next to the CSV")
    # the stage blocks' window and budget; the code block has none, and sweep sets the start itself
    start = argparse.ArgumentParser(add_help=False)
    start.add_argument("--ts", type=float, help="override transmission start time [s]")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--horizon", type=float, help="override transmission horizon T [s]")
    window.add_argument("--emax", type=float, help="override energy budget [J]")
    window.add_argument("--pmax", type=float, help="override per-beam power cap [W]")

    parser = argparse.ArgumentParser(
        prog="georelay",
        description="Relay-constellation resource allocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common] if name == "code-check" else [common, start, window])
    sweep = sub.add_parser("sweep", parents=[common, window], description="sweep the start time from --from to --to")
    sweep.add_argument("--task", default="uplink-energy", choices=SWEEP_TASKS)
    sweep.add_argument("--from", dest="from", type=float, required=True)
    sweep.add_argument("--to", type=float, required=True)
    sweep.add_argument("--step", type=float, required=True)
    # a subcommand reports the arguments it does not take with its own usage line
    for subparser in sub.choices.values():
        subparser.set_defaults(parser=subparser)
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    sweep = args.command == "sweep"
    name = f"sweep-{args.task}" if sweep else args.command
    try:
        config = load_config(args.scenario, _flag_overrides(args, _block(args.task if sweep else name)))
        points = sweep_points(args) if sweep else None
        # only once the call is accepted, so that a refused one leaves no directory
        os.makedirs(args.out, exist_ok=True)
        header, rows, *_ = run_sweep(config, args.task, points) if sweep else COMMANDS[name](config)
        stem = os.path.join(args.out, name)
        write_csv(stem + ".csv", header, rows)
        manifest = {
            "command": args.command,
            "config": config,
            "seed": config["solver"]["seed"],
            "package_version": __version__,
        }
        _write(stem + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        if args.gnuplot:
            ycol = 2 if len(header) > 1 else 1
            _write(
                stem + ".gp",
                "set datafile separator ','\n"
                "set key autotitle columnhead\n"
                f"plot '{name}.csv' using 1:{ycol} with linespoints\n",
            )
        print(f"wrote {stem}.csv")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the scenario file's read errors are ConfigErrors, so this is --out
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
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
