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
:func:`oa_solve`: one breakpoint table per group of consecutive nodes
(:func:`~georelay.waterfill.group_tables`), every file each node can take
priced in one vectorized pass per group, the heap on those prices, and one
solve per group at the final counts, on the same tables, through the
downlink's :func:`~georelay.downlink_opt.allocate_for_targets`, with the
floats of a per-node waterfill. :func:`solve_nlp_fixed_mu` solves given
counts the same way. The test suite checks the greedy against an exact
dynamic program over the per-node energy tables. Time minimization
(:func:`min_time_solve`) takes the floor T0 where the full-power file counts
first cover the file total, read off each node's full-power prefix as the
F-th least of its per-file thresholds, and then, under a binding budget,
runs a Newton search on the optimal energy and its slope (both through
:mod:`georelay.horizon`). The uplink, the MDS repair and the regenerating
repair (D blocks of beta files, at most one per helper) are such problems
and use both solves.

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
from .horizon import StageRequest, TimeResult, budget_horizon, floor_horizon, refuse_budget_below_floor
from .link import NodeChannel
from .waterfill import group_tables, max_deliverable_bits


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
        if not (self.total_files >= 0 and self.file_bits > 0 and self.p_max_w > 0):
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


# relative slack on a node's full-power bits before its file count is floored
_CAP_SLACK = 1.0 + 1e-12


def _file_caps(problem: FileAllocationProblem, full_bits) -> np.ndarray:
    """Per-node file caps from storage and each node's bits at full power
    (an infinite bound leaves the storage cap)."""
    by_link = np.floor(np.asarray(full_bits) * _CAP_SLACK / problem.file_bits)
    return np.minimum(np.array(problem.max_files_per_node), by_link).astype(int)


def integer_file_caps(problem: FileAllocationProblem) -> np.ndarray:
    """Per-node file caps implied by storage and full-power deliverability."""
    p = problem.p_max_w
    return _file_caps(
        problem, [max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, p) for ch in problem.channels]
    )


def solve_nlp_fixed_mu(problem: FileAllocationProblem, mu) -> AllocationResult:
    """Waterfilling at fixed integer file counts, on grouped breakpoint
    tables."""
    mu = np.asarray(mu)
    if mu.shape != (problem.n_nodes,):
        raise ValueError("one file count per node required")
    if np.any(mu < 0) or np.any(mu > np.array(problem.max_files_per_node)):
        raise ValueError("file counts out of storage bounds")
    if int(round(float(mu.sum()))) != problem.total_files:
        raise ValueError("file counts must sum to the file total")
    targets = [float(mu[n]) * problem.file_bits for n in range(problem.n_nodes)]
    return allocate_for_targets(problem.channels, group_tables(problem.channels, problem.p_max_w), targets)


def oa_solve(problem: FileAllocationProblem) -> UplinkResult:
    """Least-energy integer file counts and power profiles: exact greedy.

    Each of the ``total_files`` files goes, one at a time, to the node whose
    next file costs the least extra energy; on an exact tie the higher node
    index goes first, which gives the lexicographically smallest optimal
    counts. The uplink, the MDS repair and the regenerating repair (one
    beta-block per helper) all call it. The nodes share breakpoint tables,
    one per group of consecutive nodes
    (:func:`~georelay.waterfill.group_tables`). Every file k = 1 ...
    min(cap, M) of every node is priced up front, a group at a time, in one
    :meth:`~georelay.waterfill.BreakpointTable.energy` call; the heap then
    runs on those prices. The reported powers and energies come from the
    same tables solved at the final counts
    (:func:`~georelay.downlink_opt.allocate_for_targets`), with the floats
    of a per-node solve. The result reports one iteration. The name stays from the outer-approximation solver this
    replaced: the benchmark calls and traces ``oa_solve``.
    """
    channels, n_nodes, u = problem.channels, problem.n_nodes, problem.file_bits
    groups = list(group_tables(channels, problem.p_max_w))
    caps = _file_caps(problem, [bits for _, _, table in groups for bits in table.full_bits.tolist()])
    if int(caps.sum()) < problem.total_files:
        raise InfeasibleError(
            f"only {int(caps.sum())} files deliverable at P_max, need {problem.total_files}"
        )

    # node n's energy at k files is prices[edges[n] + k - 1]
    counts = np.minimum(caps, problem.total_files)
    edges = np.zeros(n_nodes + 1, dtype=int)
    np.add.accumulate(counts, out=edges[1:])
    nodes = np.repeat(np.arange(n_nodes), counts)
    files = np.arange(edges[-1]) - edges[nodes] + 1
    prices = []
    for a, b, table in groups:
        cut = slice(edges[a], edges[b])
        prices += table.energy(files[cut] * u, nodes[cut] - a).tolist()
    counts, edges = counts.tolist(), edges.tolist()

    # (extra energy of the node's next file, -node, its energy with that file)
    heap = [(prices[edges[n]], -n, prices[edges[n]]) for n in range(n_nodes) if counts[n]]
    heapq.heapify(heap)
    mu = [0] * n_nodes
    for _ in range(problem.total_files):
        # every node has one entry, so the entries differ and the pops'
        # order does not depend on how the heap is laid out
        _, neg_n, spent = heap[0]
        n = -neg_n
        mu[n] += 1
        if mu[n] < counts[n]:
            e = prices[edges[n] + mu[n]]
            heapq.heapreplace(heap, (e - spent, neg_n, e))
        else:
            heapq.heappop(heap)
    mu = np.array(mu, dtype=int)
    return UplinkResult(allocate_for_targets(channels, groups, mu * u), mu, OAState())


def oa_min_energy_uplink(req: UplinkRequest) -> UplinkResult:
    """Joint file-count and power allocation minimizing total uplink energy."""
    return oa_solve(req.problem())


def min_time_solve(req: StageRequest, problem_fn, nodes) -> TimeResult:
    """Horizon minimization for any ``horizon -> FileAllocationProblem`` builder.

    The unconstrained floor T0 is the smallest horizon whose full-power
    integer file counts cover the problem's file total F: the F-th least
    horizon at which node n reaches k u / (1 + 1e-12) bits, the slack of
    the allocator's caps, for k up to its storage cap
    (:func:`~georelay.horizon.floor_horizon`), with ``nodes`` (the
    request's node of each problem channel) giving each node's
    :meth:`~georelay.horizon.StageRequest.full_bits` and no channel cut. The
    storage caps and the file size do not depend on the horizon, so they are
    read once, from the problem at horizon 0, which has no cells; a budget
    below the closed-form energy of the F cheapest files is refused there,
    before any channel is built. A binding budget is handled by a Newton
    search of the horizon on the optimal energy, decreasing in T, and its
    slope at the optimal counts.
    ``req`` (an uplink or repair request) supplies the budget, the grid step
    and the search settings.
    """
    spec = problem_fn(0.0)
    caps = spec.max_files_per_node
    refuse_budget_below_floor(req, nodes, spec.file_bits, caps, spec.total_files)
    unreachable = InfeasibleError("file total unreachable within the horizon search bound")
    unit = spec.file_bits / _CAP_SLACK
    t0 = floor_horizon(req, nodes, unit, caps, spec.total_files, 1e-6, 0.0, unreachable)
    return budget_horizon(
        req,
        lambda horizon: oa_solve(problem_fn(horizon)),
        lambda result: result.allocation.total_energy_j,
        lambda horizon, result: req.energy_slope(nodes, horizon, result.allocation),
        t0,
        1e-5,
    )


def min_time_uplink(req: UplinkRequest) -> TimeResult:
    """Minimize the uplink horizon subject to the network energy budget."""
    return min_time_solve(req, req.problem, range(req.scenario.n_leos))


def solve_nlpr(*args, **kwargs):
    """Removed: the outer-approximation relaxation. See the module docstring."""
    raise NotImplementedError("solve_nlpr was removed with the outer-approximation allocator")


def solve_oa_master(*args, **kwargs):
    """Removed: the outer-approximation master MILP. See the module docstring."""
    raise NotImplementedError("solve_oa_master was removed with the outer-approximation allocator")
