"""Failed-node repair planning over inter-LEO links.

A regenerating-code repair downloads a fixed per-helper file count from an
exactly-sized helper set. Each helper's energy is its own waterfilling
cost, so the cheapest set is the cheapest helpers. The MDS baseline instead
re-downloads the full source through the joint file-count and power
allocation of :func:`georelay.uplink_opt.oa_solve`, with the failed node
excluded. LEO-to-LEO links carry no coverage gating, so helper windows span
the whole [t_start, t_start + horizon] interval. Both time solves search the
horizon through :mod:`georelay.horizon`, with the settings the request
carries; the MDS one reports the joint allocation's result at its horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import OperatingPoint, RegenParams, repair_requirement
from .downlink_opt import AllocationResult, allocate_for_targets
from .errors import InfeasibleError
from .geometry import inter_leos_distance
from .horizon import StageRequest, TimeResult, budget_horizon, floor_horizon
from .uplink_opt import FileAllocationProblem, min_time_solve, oa_solve
from .waterfill import max_deliverable_bits, solve_cells


@dataclass(frozen=True, kw_only=True)
class RepairRequest(StageRequest):
    """Inputs of the failed-node repair problems (0-based failed index).

    Helpers send to the failed node over inter-LEO links, which need no
    coverage, so every helper's window opens at ``t_start_s``.
    """

    params: RegenParams
    point: OperatingPoint
    failed_node: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.failed_node < self.scenario.n_leos:
            raise ValueError("failed node index out of range")

    @property
    def helpers(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.scenario.n_leos) if n != self.failed_node)

    def entry_s(self, n: int) -> float:
        return self.t_start_s

    def distance(self, n: int, t):
        return inter_leos_distance(self.scenario, n, self.failed_node, t)


@dataclass(frozen=True)
class RepairResult:
    helpers: tuple[int, ...]
    files_per_helper: np.ndarray
    allocation: AllocationResult
    total_files: int


def repair_min_energy(req: RepairRequest, horizon_s: float | None = None) -> RepairResult:
    """Cheapest helper set for regenerating repair.

    Each helper's energy to deliver beta files is its own waterfilling cost,
    and a set's cost is their sum, so the cheapest set is the D cheapest
    feasible helpers (lowest index first on exact ties).
    """
    plan = repair_requirement(req.point, req.params)
    pool = req.helpers
    if len(pool) < plan.helpers:
        raise InfeasibleError(
            f"{len(pool)} candidate helpers cannot supply {plan.helpers} required"
        )
    target = plan.per_helper_files * req.params.file_bits
    channels = {h: req.channel(h, horizon_s) for h in pool}
    costs = []
    for h, ch in channels.items():
        try:
            sol = solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, target, req.p_max_w)
        except InfeasibleError:
            continue
        costs.append((sol.energy_j, h))
    if len(costs) < plan.helpers:
        raise InfeasibleError("no helper subset can deliver the repair traffic at P_max")
    subset = tuple(sorted(h for _, h in sorted(costs)[: plan.helpers]))
    alloc = allocate_for_targets([channels[h] for h in subset], [target] * plan.helpers, req.p_max_w)
    return RepairResult(
        helpers=subset,
        files_per_helper=np.full(plan.helpers, plan.per_helper_files),
        allocation=alloc,
        total_files=plan.total_files,
    )


def _mds_problem(req: RepairRequest, horizon_s: float | None = None) -> FileAllocationProblem:
    channels = tuple(req.channel(h, horizon_s) for h in req.helpers)
    return FileAllocationProblem(
        channels,
        req.params.n_files,
        tuple(req.params.per_node_files for _ in channels),
        req.params.file_bits,
        req.p_max_w,
    )


def mds_repair_baseline(req: RepairRequest, horizon_s: float | None = None) -> RepairResult:
    """MDS-code repair: download the full source from the surviving nodes,
    jointly optimizing per-helper file counts and power."""
    result = oa_solve(_mds_problem(req, horizon_s))
    return RepairResult(
        helpers=req.helpers,
        files_per_helper=result.mu,
        allocation=result.allocation,
        total_files=req.params.n_files,
    )


def repair_min_time(req: RepairRequest) -> TimeResult:
    """Minimize the regenerating-repair horizon under the energy budget.

    The floor is the smallest horizon at which some full helper subset
    delivers beta files each at full power.
    """
    plan = repair_requirement(req.point, req.params)
    target = plan.per_helper_files * req.params.file_bits

    def reaches(horizon: float) -> bool:
        channels = (req.channel(h, horizon) for h in req.helpers)
        full = (max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, req.p_max_w) for ch in channels)
        return sum(bits >= target for bits in full) >= plan.helpers

    unreachable = InfeasibleError("repair traffic unreachable within the horizon search bound")
    t0 = floor_horizon(reaches, 0.0, max(req.grid_step_s, 1.0), 1e-6, 0.0, unreachable)
    return budget_horizon(
        req, lambda horizon: repair_min_energy(req, horizon), lambda result: result.allocation.total_energy_j, t0, 1e-5
    )


def mds_repair_min_time(req: RepairRequest) -> TimeResult:
    """MDS-baseline horizon minimization over the surviving nodes."""
    return min_time_solve(req, lambda horizon: _mds_problem(req, horizon))
