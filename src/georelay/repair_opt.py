"""Failed-node repair planning over inter-LEO links.

A regenerating-code repair downloads a fixed per-helper file count from an
exactly-sized helper set. Each helper's energy is its own waterfilling
cost, so the cheapest set is the cheapest helpers. The MDS baseline instead
re-downloads the full source through the joint file-count and power
allocation of :func:`georelay.uplink_opt.oa_solve`, with the failed node
excluded. LEO-to-LEO links carry no coverage gating, so helper windows span
the whole [t_start, t_start + horizon] interval. Both time solves search the
horizon through :mod:`georelay.horizon`, with the settings the request
carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import OperatingPoint, RegenParams, repair_requirement
from .downlink_opt import AllocationResult, allocate_for_targets
from .errors import InfeasibleError
from .geometry import ConstellationScenario, inter_leos_distance
from .horizon import budget_horizon, floor_horizon
from .link import LinkParams, NodeChannel, build_channel
from .uplink_opt import FileAllocationProblem, min_time_solve, oa_solve
from .waterfill import solve_cells


@dataclass(frozen=True)
class RepairRequest:
    """Inputs of the failed-node repair problems (0-based failed index).

    ``upper_factor`` and ``energy_rel_tol`` set both time solves' budget search.
    """

    scenario: ConstellationScenario
    links: tuple[LinkParams, ...]
    params: RegenParams
    point: OperatingPoint
    failed_node: int
    t_start_s: float
    horizon_s: float
    p_max_w: float
    e_max_j: float | None = None
    grid_step_s: float = 1.0
    upper_factor: float = 4.0
    energy_rel_tol: float = 1e-3

    def __post_init__(self):
        if not 0 <= self.failed_node < self.scenario.n_leos:
            raise ValueError("failed node index out of range")
        if len(self.links) != self.scenario.n_leos:
            raise ValueError("one LinkParams per LEO required")
        if self.p_max_w <= 0 or self.horizon_s <= 0:
            raise ValueError("power cap and horizon must be positive")

    @property
    def helpers(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.scenario.n_leos) if n != self.failed_node)

    def channel(self, helper: int, horizon_s: float | None = None) -> NodeChannel:
        horizon = self.horizon_s if horizon_s is None else horizon_s
        return build_channel(
            self.links[helper],
            lambda t: inter_leos_distance(self.scenario, helper, self.failed_node, t),
            (self.t_start_s, self.t_start_s + horizon),
            self.grid_step_s,
        )


@dataclass(frozen=True)
class RepairResult:
    helpers: tuple[int, ...]
    files_per_helper: np.ndarray
    allocation: AllocationResult
    total_files: int


@dataclass(frozen=True)
class RepairTimeResult:
    duration_s: float
    result: RepairResult
    budget_bound: bool
    min_duration_s: float
    energy_at_t0_j: float


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


def repair_min_time(req: RepairRequest) -> RepairTimeResult:
    """Minimize the regenerating-repair horizon under the energy budget.

    The floor is the smallest horizon at which some full helper subset
    delivers beta files each at full power.
    """
    plan = repair_requirement(req.point, req.params)
    target = plan.per_helper_files * req.params.file_bits

    def reaches(horizon: float) -> bool:
        channels = (req.channel(h, horizon) for h in req.helpers)
        capable = sum(ch.bits(np.full(ch.n_cells, req.p_max_w)) >= target for ch in channels)
        return capable >= plan.helpers

    unreachable = InfeasibleError("repair traffic unreachable within the horizon search bound")
    t0 = floor_horizon(reaches, 0.0, max(req.grid_step_s, 1.0), 1e-6, 0.0, unreachable)
    duration, result, bound, e0 = budget_horizon(
        lambda horizon: repair_min_energy(req, horizon_s=horizon),
        lambda result: result.allocation.total_energy_j,
        t0, req.e_max_j, req.upper_factor, 1e-5, req.energy_rel_tol,
    )
    return RepairTimeResult(duration, result, bound, t0, e0)


def mds_repair_min_time(req: RepairRequest) -> RepairTimeResult:
    """MDS-baseline horizon minimization over the surviving nodes."""
    res = min_time_solve(lambda horizon: _mds_problem(req, horizon), req.params.n_files, req)
    wrapped = RepairResult(
        helpers=req.helpers,
        files_per_helper=res.mu,
        allocation=res.allocation,
        total_files=req.params.n_files,
    )
    return RepairTimeResult(res.duration_s, wrapped, res.budget_bound, res.min_duration_s, res.energy_at_t0_j)
