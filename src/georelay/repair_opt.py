"""Failed-node repair planning over inter-LEO links.

Regenerating repair downloads beta files from each of D helpers, both read
off the request's code parameters, which the request checks against the
cut-set bound; the MDS baseline re-downloads all M source files. Each
helper's energy is its own waterfilling cost, so both are a
:class:`~georelay.uplink_opt.FileAllocationProblem` over the survivors for
the exact greedy :func:`~georelay.uplink_opt.oa_solve` and the horizon
search :func:`~georelay.uplink_opt.min_time_solve`. The
regenerating problem has D blocks of beta files and a cap of one block per
helper, so the greedy takes the D cheapest feasible helpers. LEO-to-LEO links
need no coverage, so helper windows span [t_start, t_start + horizon].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coding import RegenParams, validate_params
from .downlink_opt import AllocationResult, allocation_result
from .geometry import inter_leos_distance
from .horizon import StageRequest, TimeResult
from .uplink_opt import FileAllocationProblem, UplinkResult, min_time_solve, oa_solve


@dataclass(frozen=True, kw_only=True)
class RepairRequest(StageRequest):
    """Inputs of the failed-node repair problems (0-based failed index).

    Helpers send to the failed node over inter-LEO links, which need no
    coverage, so every helper's window opens at ``t_start_s``. Code
    parameters that :func:`~georelay.coding.validate_params` rejects are
    refused: no D helpers sending beta files each could regenerate a node.
    """

    params: RegenParams
    failed_node: int

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.failed_node < self.scenario.n_leos:
            raise ValueError("failed node index out of range")
        report = validate_params(self.params)
        if not report.ok:
            raise ValueError("; ".join(report.violations))

    @property
    def helpers(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.scenario.n_leos) if n != self.failed_node)

    def entry_s(self, n: int) -> float:
        return self.t_start_s

    def distance(self, n: int, t):
        return inter_leos_distance(self.scenario, n, self.failed_node, t)

    def radii(self, n: int) -> tuple[float, float]:
        radius = self.scenario.leos_radius_m
        return radius[n], radius[self.failed_node]


@dataclass(frozen=True)
class RepairResult:
    helpers: tuple[int, ...]
    files_per_helper: np.ndarray
    allocation: AllocationResult
    total_files: int


def _regen_problem(req: RepairRequest, horizon_s: float | None = None) -> FileAllocationProblem:
    """Regenerating repair over the survivors: D blocks of beta files, at most one per helper."""
    p = req.params
    channels = tuple(req.channel(h, horizon_s) for h in req.helpers)
    block_bits = p.per_helper_files * p.file_bits
    return FileAllocationProblem(channels, p.repair_d, tuple(1 for _ in channels), block_bits, req.p_max_w)


def _regen_result(req: RepairRequest, result: UplinkResult) -> RepairResult:
    """The greedy's regenerating allocation, assembled over the helpers it
    chose, the survivors a beta-block went to. A helper left out has a zero
    target, so it adds nothing to the total energy or the residual maximum."""
    p = req.params
    chosen = np.flatnonzero(result.mu)
    full = result.allocation
    alloc = allocation_result(
        [full.profiles[i] for i in chosen],
        full.water_levels[chosen].tolist(),
        full.delivered_bits[chosen].tolist(),
        full.energies_j[chosen].tolist(),
        full.kkt_residuals[chosen].tolist(),
    )
    helpers = tuple(req.helpers[i] for i in chosen)
    return RepairResult(helpers, np.full(p.repair_d, p.per_helper_files), alloc, p.repair_d * p.per_helper_files)


def repair_min_energy(req: RepairRequest, horizon_s: float | None = None) -> RepairResult:
    """Cheapest helper set for regenerating repair.

    Each helper's energy to deliver beta files is its own waterfilling cost,
    and a set's cost is their sum, so the cheapest set is the D cheapest
    feasible helpers: :func:`~georelay.uplink_opt.oa_solve` on one beta-block
    per helper, whose tie policy puts the higher index first.
    """
    return _regen_result(req, oa_solve(_regen_problem(req, horizon_s)))


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

    The floor is the smallest horizon at which D helpers each deliver beta
    files at full power.
    """
    res = min_time_solve(req, lambda horizon: _regen_problem(req, horizon), req.helpers)
    return replace(res, result=_regen_result(req, res.result))


def mds_repair_min_time(req: RepairRequest) -> TimeResult:
    """MDS-baseline horizon minimization over the surviving nodes."""
    return min_time_solve(req, lambda horizon: _mds_problem(req, horizon), req.helpers)
