"""LEO-to-GEO stage: joint file-count and power allocation.

Energy minimization couples integer per-node file counts mu_n (summing to
M) with continuous power profiles. For fixed counts the nodes decouple, and
node n's least energy E_n(mu) is a capped waterfill with the bit target
mu * u on the right-hand side. The optimal value of a convex program is
convex in its right-hand side, so E_n is convex in mu and each node's extra
cost per file never falls. Minimizing a separable convex sum over integer
boxes with sum mu = M is then solved exactly by marginal-cost greedy: give
the M files one at a time to the node whose next file costs least (Fox 1966;
Ibaraki & Katoh, *Resource Allocation Problems*, MIT Press 1988). That is
:func:`oa_solve`: one breakpoint table per node, M + N waterfills priced on
the tables and a heap; the test suite checks it
against an exact dynamic program over the per-node energy tables. Time
minimization bisects the horizon against the floor-valued full-power
file-count step function and then, under a binding budget, against the
optimal energy (both through :mod:`georelay.horizon`, whose request and
time result the uplink and the MDS repair share).

The greedy is the only allocator. :func:`solve_nlpr` and
:func:`solve_oa_master` are stubs that raise: the benchmark's tracer
(``perfbench/layers.py`` ``TRACED``) still wraps both names, and they go
when the benchmark stops naming them (ROADMAP item 1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .downlink_opt import AllocationResult, allocate_for_targets
from .errors import InfeasibleError
from .geometry import Geos, geos_distance
from .horizon import StageRequest, TimeResult, budget_horizon, floor_horizon
from .link import NodeChannel
from .waterfill import BreakpointTable, max_deliverable_bits


@dataclass(frozen=True)
class FileAllocationProblem:
    """Discretized joint allocation instance: per-node channels, a total file
    target, per-node storage caps, file size, and a shared power cap."""

    channels: tuple[NodeChannel, ...]
    total_files: int
    max_files_per_node: tuple[int, ...]
    file_bits: float
    p_max_w: float

    def __post_init__(self):
        if len(self.max_files_per_node) != len(self.channels):
            raise ValueError("one storage cap per node required")
        if self.total_files < 0 or self.file_bits <= 0 or self.p_max_w <= 0:
            raise ValueError("bad problem constants")
        if sum(self.max_files_per_node) < self.total_files:
            raise InfeasibleError("per-node storage caps cannot cover the file total")

    @property
    def n_nodes(self) -> int:
        return len(self.channels)


@dataclass(frozen=True, kw_only=True)
class UplinkRequest(StageRequest):
    """Inputs of the LEO-to-GEO allocation problems: ``total_files`` files
    to GEO 2, at most ``files_per_leos`` from each LEO once it enters
    coverage, on one carrier per LEO."""

    total_files: int
    files_per_leos: int
    file_bits: float

    def __post_init__(self):
        super().__post_init__()
        carriers = [lk.carrier_hz for lk in self.links]
        if len(set(carriers)) != len(carriers):
            raise ValueError("uplink carriers must be distinct")
        if self.files_per_leos * self.scenario.n_leos < self.total_files:
            raise ValueError("per-LEO storage cannot cover the file total")

    def distance(self, n: int, t):
        return geos_distance(self.scenario, n, t, Geos.GEOS2)

    def problem(self, horizon_s: float | None = None) -> FileAllocationProblem:
        channels = tuple(self.channel(n, horizon_s) for n in range(self.scenario.n_leos))
        return FileAllocationProblem(
            channels,
            self.total_files,
            tuple(self.files_per_leos for _ in channels),
            self.file_bits,
            self.p_max_w,
        )


@dataclass
class OAState:
    """Iteration count of an allocation: always 1, as the greedy is exact.
    The benchmark's tracer reads it from every ``oa_solve`` result."""

    iterations: int = 1


@dataclass(frozen=True)
class UplinkResult:
    allocation: AllocationResult
    mu: np.ndarray
    state: OAState


def deliverable_bits(problem: FileAllocationProblem) -> np.ndarray:
    """Per-node bits at full power over the whole window."""
    p = problem.p_max_w
    return np.array([max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, p) for ch in problem.channels])


def integer_file_caps(problem: FileAllocationProblem) -> np.ndarray:
    """Per-node file caps implied by storage and full-power deliverability."""
    bits = deliverable_bits(problem)
    by_link = np.floor(bits * (1.0 + 1e-12) / problem.file_bits).astype(int)
    return np.minimum(np.array(problem.max_files_per_node), by_link)


def solve_nlp_fixed_mu(problem: FileAllocationProblem, mu, tables=None) -> AllocationResult:
    """Waterfilling at fixed integer file counts, on ``tables`` (one
    breakpoint table per channel) when given."""
    mu = np.asarray(mu)
    if mu.shape != (problem.n_nodes,):
        raise ValueError("one file count per node required")
    if np.any(mu < 0) or np.any(mu > np.array(problem.max_files_per_node)):
        raise ValueError("file counts out of storage bounds")
    if int(round(float(mu.sum()))) != problem.total_files:
        raise ValueError("file counts must sum to the file total")
    targets = [float(mu[n]) * problem.file_bits for n in range(problem.n_nodes)]
    return allocate_for_targets(problem.channels, targets, problem.p_max_w, tables)


def oa_solve(problem: FileAllocationProblem) -> UplinkResult:
    """Least-energy integer file counts and power profiles: exact greedy.

    Each of the ``total_files`` files goes, one at a time, to the node whose
    next file costs the least extra energy; on an exact tie the higher node
    index goes first, which gives the lexicographically smallest optimal
    counts. The result reports one iteration. The name stays from the
    outer-approximation solver this replaced: the benchmark calls and traces
    ``oa_solve``.
    """
    caps = integer_file_caps(problem)
    if int(caps.sum()) < problem.total_files:
        raise InfeasibleError(
            f"only {int(caps.sum())} files deliverable at P_max, need {problem.total_files}"
        )

    tables = [BreakpointTable(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, problem.p_max_w) for ch in problem.channels]

    def energy(n: int, files: int) -> float:
        return tables[n].solve(files * problem.file_bits).energy_j

    # (extra energy of the node's next file, -node, its energy with that file)
    heap = []
    for n in range(problem.n_nodes):
        if caps[n] > 0:
            e = energy(n, 1)
            heap.append((e, -n, e))
    heapq.heapify(heap)
    mu = np.zeros(problem.n_nodes, dtype=int)
    for _ in range(problem.total_files):
        _, neg_n, spent = heapq.heappop(heap)
        n = -neg_n
        mu[n] += 1
        if mu[n] < caps[n]:
            e = energy(n, mu[n] + 1)
            heapq.heappush(heap, (e - spent, neg_n, e))
    alloc = solve_nlp_fixed_mu(problem, mu, tables)
    return UplinkResult(alloc, mu, OAState())


def oa_min_energy_uplink(req: UplinkRequest) -> UplinkResult:
    """Joint file-count and power allocation minimizing total uplink energy."""
    return oa_solve(req.problem())


def min_time_solve(req: StageRequest, problem_fn) -> TimeResult:
    """Horizon minimization for any ``horizon -> FileAllocationProblem`` builder.

    The unconstrained floor T0 is the smallest horizon whose full-power
    integer file counts cover the problem's file total; a binding budget is
    handled by bisecting the horizon against the optimal energy, decreasing
    in T. ``req`` (an uplink or repair request) supplies the budget, the
    grid step and the search settings.
    """

    def reaches(horizon: float) -> bool:
        problem = problem_fn(horizon)
        return int(integer_file_caps(problem).sum()) >= problem.total_files

    unreachable = InfeasibleError("file total unreachable within the horizon search bound")
    t0 = floor_horizon(reaches, 0.0, max(req.grid_step_s, 1.0), 1e-6, 0.0, unreachable)
    return budget_horizon(
        req, lambda horizon: oa_solve(problem_fn(horizon)), lambda result: result.allocation.total_energy_j, t0, 1e-5
    )


def min_time_uplink(req: UplinkRequest) -> TimeResult:
    """Minimize the uplink horizon subject to the network energy budget."""
    return min_time_solve(req, req.problem)


def solve_nlpr(*args, **kwargs):
    """Removed: the outer-approximation relaxation. See the module docstring."""
    raise NotImplementedError("solve_nlpr was removed with the outer-approximation allocator")


def solve_oa_master(*args, **kwargs):
    """Removed: the outer-approximation master MILP. See the module docstring."""
    raise NotImplementedError("solve_oa_master was removed with the outer-approximation allocator")
