"""Seeded workloads: the fixed set of operations each one times, and their checks.

A workload draws its operations from an instance seed (``INSTANCE_SEED``; a
second seed, ``HELD_OUT_SEED``, is kept for held-out checks). The run's
``--seed`` only orders them, so every run covers the same multiset of
instances and the heavy tail of the outer-approximation allocator cannot
make two runs disagree. Each workload also fixes the time limit of one op
(an op that raises, misses the limit or fails its check counts as failed)
and ``retime_below_s``: later passes of a run time again only the ops whose
first timing was shorter.

Package modules are imported inside each workload's constructor because
those imports are part of the measured set-up time, and ops call package
functions through their modules so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
from dataclasses import dataclass

import numpy as np

import checks

INSTANCE_SEED = 1
HELD_OUT_SEED = 2


@dataclass(frozen=True)
class Op:
    """One operation: its size class, a description for failure reports, and its input."""

    size: str
    label: str
    spec: object


# ------------------------------------------------------------ reference-cli

# Budgets lie between the energy floor at the search bound (4 T0) and the
# energy at the unconstrained optimum T0 for every start time in [0, 100] s
# on the default scenario (downlink 2.05e4..2.25e4 J, uplink 1.85e5..2.15e5 J,
# repair 3.8e2..7.0e3 J), so a time solve given --emax is budget-bound and
# feasible.
EMAX_RANGE_J = {"downlink-time": (2.10e4, 2.20e4), "uplink-time": (1.90e5, 2.10e5), "repair": (1.5e3, 5.0e3)}
# horizons long enough for every start time in [0, 100] s (T0 <= 437 s
# downlink, <= 195 s uplink, <= 6.2 s repair)
HORIZON_RANGE_S = {"downlink": (450.0, 700.0), "uplink": (450.0, 700.0), "repair": (10.0, 30.0)}
TS_RANGE_S = (0.0, 100.0)
GRID_STEPS_S = (1.0, 0.5, 0.1)
SWEEP_TASKS = ("downlink-energy", "downlink-time", "uplink-energy", "uplink-time", "repair-energy", "repair-time")
SWEEP_POINTS = 3


@dataclass(frozen=True)
class CliCall:
    command: str
    args: tuple[str, ...]
    block: str | None
    ts_s: float | None = None
    horizon_s: float | None = None
    e_max_j: float | None = None
    grid_step_s: float | None = None
    sweep_task: str | None = None
    sweep_points: tuple[float, ...] = ()


@dataclass(frozen=True)
class CliOutput:
    code: int
    out_dir: str
    text: str


def _block(command: str) -> str:
    if command.startswith("downlink"):
        return "downlink"
    return "repair" if command.startswith("repair") else "uplink"


# Calls per pass. There is no usage data to weigh the subcommands by, so
# every subcommand gets the same count at every grid step, every sweep task
# one sweep, and every time solve one budget-bound call. The budget-bound
# calls take the grid steps 0.1, 0.5 and 1 s in that order over
# downlink-time, uplink-time and repair, so that each step is used once and
# the pass stays near 6 s (a budget-bound uplink-time at 0.1 s alone takes
# about 5 s at the seed commit); the sweep tasks take the steps in turn.
PLAIN_CALLS_PER_STEP = 2
PLAIN_COMMANDS = ("code-check", "downlink-energy", "downlink-time", "uplink-energy", "uplink-time", "repair")
BUDGET_STEPS = {"downlink-time": 0.1, "uplink-time": 0.5, "repair": 1.0}


def _cli_call(rng, command: str, dt: float, with_budget: bool) -> CliCall:
    if command == "code-check":
        seed = int(rng.integers(0, 2**31 - 1))
        return CliCall(command, (command, "--seed", str(seed), "--dt", repr(dt)), None, grid_step_s=dt)
    block = _block(command)
    ts = round(float(rng.uniform(*TS_RANGE_S)), 2)
    horizon = round(float(rng.uniform(*HORIZON_RANGE_S[block])), 2)
    args = [command, "--ts", repr(ts), "--horizon", repr(horizon), "--dt", repr(dt)]
    e_max = None
    if with_budget:
        e_max = round(float(rng.uniform(*EMAX_RANGE_J[command])), 1)
        args += ["--emax", repr(e_max)]
    return CliCall(command, tuple(args), block, ts, horizon, e_max, dt)


def _sweep_call(rng, task: str, dt: float) -> CliCall:
    block = _block(task)
    start = round(float(rng.uniform(*TS_RANGE_S)), 2)
    step = round(float(rng.uniform(5.0, 20.0)), 2)
    stop = round(start + (SWEEP_POINTS - 1) * step, 2)
    horizon = round(float(rng.uniform(*HORIZON_RANGE_S[block])), 2)
    args = ("sweep", "--task", task, "--from", repr(start), "--to", repr(stop), "--step", repr(step),
            "--horizon", repr(horizon), "--dt", repr(dt))
    points = tuple(start + k * step for k in range(SWEEP_POINTS))
    return CliCall("sweep", args, block, None, horizon, None, dt, task, points)


def _cli_calls(rng) -> list[CliCall]:
    calls = []
    for command in PLAIN_COMMANDS:
        for dt in GRID_STEPS_S:
            calls += [_cli_call(rng, command, dt, False) for _ in range(PLAIN_CALLS_PER_STEP)]
    calls += [_cli_call(rng, command, dt, True) for command, dt in BUDGET_STEPS.items()]
    calls += [_sweep_call(rng, task, GRID_STEPS_S[i % len(GRID_STEPS_S)]) for i, task in enumerate(SWEEP_TASKS)]
    return calls


class ReferenceCli:
    """In-process ``georelay.cli.main`` calls on the default five-LEO scenario."""

    name = "reference-cli"
    # the slowest call at the seed commit, a budget-bound repair at --dt 1,
    # takes about 1.1 s, and no call is known to fail
    limit_s = 10.0
    # every call is timed again in later passes: the three budget-bound
    # calls, about half of a pass, set most of the throughput
    retime_below_s = limit_s

    def __init__(self, instance_seed: int):
        from georelay import cli, scenario

        self.cli = cli
        self.scenario = scenario
        self.config = scenario.load_config(None)
        rng = np.random.default_rng([instance_seed, 0])
        self.ops = [Op(c.command, " ".join(c.args), c) for c in _cli_calls(rng)]
        self._optima: dict = {}

    def run(self, op: Op, out_dir: str) -> CliOutput:
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = self.cli.main(list(op.spec.args) + ["--out", out_dir])
        return CliOutput(code, out_dir, text.getvalue())

    def _config(self, call: CliCall, ts_s: float | None = None) -> dict:
        cfg = copy.deepcopy(self.config)
        block = cfg[call.block]
        ts = call.ts_s if ts_s is None else ts_s
        if ts is not None:
            block["t_start_s"] = ts
        block["horizon_s"] = call.horizon_s
        if call.e_max_j is not None:
            block["e_max_j"] = call.e_max_j
        cfg["solver"]["grid_step_s"] = call.grid_step_s
        return cfg

    def _least_energy(self, kind: str, call: CliCall, ts_s: float, horizon_s: float) -> float:
        """The benchmark's own least energy of an "uplink", "mds" or "regen"
        (regenerating repair) allocation from ``ts_s`` over ``horizon_s``."""
        key = (kind, ts_s, call.grid_step_s, horizon_s)
        if key not in self._optima:
            from georelay.uplink_opt import FileAllocationProblem

            code = self.config["code"]
            alpha, u, m = code["per_node_files"], code["file_bits"], code["total_files"]
            cfg = self._config(call, ts_s)
            if kind == "uplink":
                value = checks.optimum_energy(self.scenario.build_uplink_request(cfg).problem(horizon_s))
            else:
                req = self.scenario.build_repair_request(cfg)
                channels = tuple(req.channel(h, horizon_s) for h in req.helpers)
                if kind == "mds":
                    problem = FileAllocationProblem(channels, m, (alpha,) * len(channels), u, req.p_max_w)
                    value = checks.optimum_energy(problem)
                else:
                    target = code["per_helper_files"] * u
                    value = checks.regen_optimum(channels, self.regen_helpers, target, req.p_max_w)
            self._optima[key] = value
        return self._optima[key]

    @property
    def regen_helpers(self) -> int:
        code = self.config["code"]
        return code["per_node_files"] // code["per_helper_files"] + code["reconstruct_k"] - 1

    def check(self, op: Op, out: CliOutput) -> None:
        if out.code != 0:
            raise checks.CheckError(f"exit code {out.code}: {out.text.strip()}")
        call = op.spec
        code = self.config["code"]
        alpha, u, m = code["per_node_files"], code["file_bits"], code["total_files"]
        name = f"sweep-{call.sweep_task}" if call.sweep_task else call.command
        rows = checks.read_csv(os.path.join(out.out_dir, f"{name}.csv"))
        if call.command == "code-check":
            checks.check_code_check_csv(rows, m, code["repair_d"] * code["per_helper_files"])
            return
        if call.command == "sweep":
            checks.check_sweep_csv(rows, call.sweep_task, call.sweep_points, m)
            self._check_sweep_energies(call, rows)
            return
        cfg = self._config(call)
        rel_tol = cfg["solver"]["time_energy_rel_tol"]
        e_max = cfg[call.block]["e_max_j"]
        if call.command == "downlink-energy":
            checks.check_downlink_energy_csv(rows, alpha, u)
        elif call.command == "downlink-time":
            checks.check_downlink_time_csv(rows, alpha, u, e_max, rel_tol)
        elif call.command == "uplink-energy":
            optimum = self._least_energy("uplink", call, call.ts_s, call.horizon_s)
            checks.check_uplink_csv(rows, m, alpha, u, optimum)
        elif call.command == "uplink-time":
            _, total = checks.split_total(rows)
            duration = checks.number(total, "duration_s")
            optimum = self._least_energy("uplink", call, call.ts_s, duration)
            checks.check_uplink_csv(rows, m, alpha, u, optimum)
            checks.check_budget(total, e_max, rel_tol)
        elif call.command == "repair":
            kinds = {"regenerating": "regen", "mds": "mds"}
            optima = {s: self._least_energy(kind, call, call.ts_s, call.horizon_s) for s, kind in kinds.items()}
            totals = checks.check_repair_csv(rows, self.regen_helpers, code["per_helper_files"], m, alpha, optima)
            for scheme, kind in kinds.items():
                duration = checks.number(totals[scheme], "duration_s")
                checks.check_time_solve(
                    f"{scheme} repair", checks.flag(totals[scheme], "budget_bound"), call.e_max_j is not None,
                    self._least_energy(kind, call, call.ts_s, duration), e_max, rel_tol,
                )
        else:  # pragma: no cover
            raise checks.CheckError(f"no check for {call.command}")

    def _check_sweep_energies(self, call: CliCall, rows) -> None:
        """Each uplink and repair sweep row's energies against the least energy at its point."""
        task = call.sweep_task
        for r, ts in zip(rows, call.sweep_points):
            expected = []  # (energy column, kind, horizon)
            if task == "uplink-energy":
                expected = [("energy_j", "uplink", call.horizon_s)]
            elif task == "uplink-time":
                expected = [("energy_j", "uplink", checks.number(r, "duration_s"))]
            elif task == "repair-energy":
                expected = [("regen_energy_j", "regen", call.horizon_s), ("mds_energy_j", "mds", call.horizon_s)]
            elif task == "repair-time":
                expected = [("regen_energy_j", "regen", checks.number(r, "regen_duration_s")),
                            ("mds_energy_j", "mds", checks.number(r, "mds_duration_s"))]
            for col, kind, horizon in expected:
                optimum = self._least_energy(kind, call, ts, horizon)
                checks.check_optimum(checks.number(r, col), optimum, f"ts={ts} {col}")


# --------------------------------------------------------- allocation-scale

# Ops per size, from the first instances of each size's seeded stream.
# N = 10, 20 and 40 each take about one time limit of a pass at the seed
# commit (2, 1 and 1 ops; three of them miss the limit). N = 5 gets the
# fewest ops that keep those three above the 90th percentile, 20 (about
# 9 s at the seed commit), so that the percentile moves with solve times
# and does not read the limit itself.
ALLOCATION_MIX = ((5, 20), (10, 2), (20, 1), (40, 1))
FILE_BITS = 1.6e8
BANDWIDTH_HZ = 20.0e6
P_MAX_W = 900.0
FILE_CAP = 10
CAPACITY_SHARE = 0.6


def synthetic_problem(rng, n_nodes: int):
    """A joint allocation instance built straight from per-node channel arrays.

    Each node sees one pass: 40..200 one-second cells whose gain peaks at a
    seeded cell and falls off as 1 / (1 + x^2), as the inverse squared
    distance of a straight-line pass does. The file total is 60% of what
    the nodes can carry at full power within their caps.
    """
    from georelay.link import NodeChannel
    from georelay.uplink_opt import FileAllocationProblem

    channels = []
    capacity = 0
    for _ in range(n_nodes):
        cells = int(rng.integers(40, 201))
        peak = 10.0 ** rng.uniform(-3.5, -2.5)
        centre = rng.uniform(0.2, 0.8) * cells
        width = rng.uniform(0.3, 1.0) * cells
        t = np.arange(cells) + 0.5
        gains = peak / (1.0 + ((t - centre) / width) ** 2)
        channel = NodeChannel(0.0, float(cells), 1.0, np.ones(cells), gains, BANDWIDTH_HZ)
        channels.append(channel)
        full = checks.delivered_bits(channel, np.full(cells, P_MAX_W))
        capacity += min(FILE_CAP, int(full // FILE_BITS))
    total = max(1, round(CAPACITY_SHARE * capacity))
    return FileAllocationProblem(tuple(channels), total, (FILE_CAP,) * n_nodes, FILE_BITS, P_MAX_W)


class AllocationScale:
    """``uplink_opt.oa_solve`` on synthetic N-node instances."""

    name = "allocation-scale"
    # at the seed commit the N = 5 instances take 0.01..3.4 s, the N = 10
    # ones 0.9..1.3 s and 7.6..11 s, and N = 20 and N = 40 run past 60 s
    # (2-vCPU Xeon guest, shared); the limit sits near the geometric midpoint
    # of 3.4 s and 7.6 s, 1.6x above the slowest timing of an op that passes
    # and 1.4x below the fastest of the op that fails first
    limit_s = 5.5
    # only the ops under a tenth of the limit, those around the median, are
    # timed again: the first pass takes most of a run, three limits of it
    # spent on the failing ops
    retime_below_s = 0.55

    def __init__(self, instance_seed: int):
        from georelay import uplink_opt

        self.uplink_opt = uplink_opt
        self.ops = []
        for n_nodes, count in ALLOCATION_MIX:
            for j in range(count):
                problem = synthetic_problem(np.random.default_rng([instance_seed, n_nodes, j]), n_nodes)
                label = f"N={n_nodes} #{j} M={problem.total_files}"
                self.ops.append(Op(f"N={n_nodes}", label, problem))
        self._optima: dict[str, float] = {}

    def run(self, op: Op, out_dir: str):
        return self.uplink_opt.oa_solve(op.spec)

    def check(self, op: Op, result) -> None:
        if op.label not in self._optima:
            self._optima[op.label] = checks.optimum_energy(op.spec)
        powers = [p.values_w for p in result.allocation.profiles]
        checks.check_allocation(op.spec, result.mu, powers, result.allocation.total_energy_j, self._optima[op.label])


# ------------------------------------------------------------- coding-scale

# (N, K) -> (M, N, K, D, alpha, beta); (14, 7) is the roadmap's item-4 code
CODES = {
    "(5,3)": (30, 5, 3, 4, 10, 5),
    "(10,5)": (20, 10, 5, 8, 4, 1),
    "(14,7)": (56, 14, 7, 8, 8, 4),
}
# Ops per code: each code takes about the same wall time of a pass at the
# seed commit, about 3 s, and at least one op: 100 (5,3) ops of 25..35 ms,
# 4 (10,5) ops of 0.45..1.7 s, and the one (14,7) op, which misses the limit.
CODING_MIX = (("(5,3)", 100), ("(10,5)", 4), ("(14,7)", 1))
FIELD_ORDER = 256


@dataclass(frozen=True)
class CodingCase:
    params: object
    encoder_seed: int
    source: np.ndarray
    full: np.ndarray
    short: np.ndarray


@dataclass(frozen=True)
class CodingOutput:
    reconstructed: np.ndarray
    rejected: BaseException | None


class CodingScale:
    """Encode, reconstruct from K nodes, and refuse a K-1 node download."""

    name = "coding-scale"
    # at the seed commit a (10, 5) op takes 0.45..1.7 s and the (14, 7)
    # encoder gives up after more than 60 s: 2.9x above the slowest op that
    # passes and 12x below the one that fails
    limit_s = 5.0
    # only the (5,3) ops, which set the median and the 90th percentile, are
    # timed again; a (10,5) op takes 0.45 s or more
    retime_below_s = 0.4

    def __init__(self, instance_seed: int):
        from georelay import coding

        self.coding = coding
        self.ops = []
        for c, (size, count) in enumerate(CODING_MIX):
            m, n, k, d, alpha, beta = CODES[size]
            params = coding.RegenParams(m, n, k, d, alpha, beta)
            for j in range(count):
                rng = np.random.default_rng([instance_seed, c, j])
                seed = int(rng.integers(0, 2**31 - 1))
                source = rng.integers(0, FIELD_ORDER, size=m, dtype=np.int64)
                nodes = rng.permutation(n)
                full = np.zeros(n, dtype=int)
                full[nodes[:k]] = alpha
                short = np.zeros(n, dtype=int)
                short[nodes[: k - 1]] = alpha
                label = f"{size} M={m} alpha={alpha} encoder_seed={seed} nodes={sorted(nodes[:k].tolist())}"
                self.ops.append(Op(size, label, CodingCase(params, seed, source, full, short)))

    def run(self, op: Op, out_dir: str) -> CodingOutput:
        case = op.spec
        coding = self.coding
        store = coding.encode(case.params, FIELD_ORDER, seed=case.encoder_seed, source=case.source.copy())
        got = coding.reconstruct(store, coding.downloads_for(store, case.full))
        try:
            coding.reconstruct(store, coding.downloads_for(store, case.short))
            rejected = None
        except coding.SingularSystemError as exc:
            rejected = exc
        return CodingOutput(got, rejected)

    def check(self, op: Op, out: CodingOutput) -> None:
        checks.check_coding(op.spec.source, out.reconstructed, out.rejected)


WORKLOADS = {w.name: w for w in (ReferenceCli, AllocationScale, CodingScale)}
