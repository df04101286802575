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

The outer-approximation pieces the greedy replaced, the relaxation
:func:`solve_nlpr` and the master MILP :func:`solve_oa_master` over
:mod:`georelay.lp_solver`, stay importable because the benchmark traces them
by name; no solve path calls them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .downlink_opt import AllocationResult, allocate_for_targets
from .errors import InfeasibleError, InternalError
from .geometry import Geos, geos_distance
from .horizon import StageRequest, TimeResult, budget_horizon, floor_horizon
from .link import NodeChannel
from .lp_solver import AT_LOWER, AT_UPPER, INFEASIBLE, LinearProgram, MilpSpec, solve_milp
from .waterfill import LN2, BreakpointTable, max_deliverable_bits, power_at_level, solve_cells


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
class OAPoint:
    powers: tuple[np.ndarray, ...]
    mu: np.ndarray


@dataclass
class OAIteration:
    z_lower: float
    z_upper: float
    mu: tuple[int, ...]


@dataclass
class OAState:
    """Bounds and per-iteration log of an allocation (and the linearization
    points of an outer-approximation master)."""

    z_lower: float = -math.inf
    z_upper: float = math.inf
    points: list[OAPoint] = field(default_factory=list)
    history: list[OAIteration] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.history)


@dataclass(frozen=True)
class UplinkResult:
    allocation: AllocationResult
    mu: np.ndarray
    state: OAState


@dataclass(frozen=True)
class NlprSolution:
    powers: tuple[np.ndarray, ...]
    mu: np.ndarray
    energy_j: float


def deliverable_bits(problem: FileAllocationProblem) -> np.ndarray:
    """Per-node bits at full power over the whole window."""
    p = problem.p_max_w
    return np.array([max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, p) for ch in problem.channels])


def integer_file_caps(problem: FileAllocationProblem) -> np.ndarray:
    """Per-node file caps implied by storage and full-power deliverability."""
    bits = deliverable_bits(problem)
    by_link = np.floor(bits * (1.0 + 1e-12) / problem.file_bits).astype(int)
    return np.minimum(np.array(problem.max_files_per_node), by_link)


def solve_nlpr(problem: FileAllocationProblem) -> NlprSolution:
    """Continuous relaxation: fractional file counts equalizing marginal energy.

    The marginal energy of one extra file at node n is u * lam_n / W_n, where
    lam_n is the node's water level. All nodes active at the shared marginal
    theta use the water level theta * W_n / u directly, so the relaxation
    reduces to one bisection on theta.
    """
    m = problem.total_files
    u = problem.file_bits
    caps = np.minimum(
        np.array(problem.max_files_per_node, dtype=float),
        deliverable_bits(problem) / u,
    )
    if float(caps.sum()) < m:
        raise InfeasibleError("file total exceeds deliverable capacity at P_max")
    if m == 0:
        powers = tuple(np.zeros(ch.n_cells) for ch in problem.channels)
        return NlprSolution(powers, np.zeros(problem.n_nodes), 0.0)

    def mu_at(theta: float) -> np.ndarray:
        out = np.zeros(problem.n_nodes)
        for n, ch in enumerate(problem.channels):
            if ch.n_cells == 0:
                continue
            level = theta * ch.bandwidth_hz / u
            p = power_at_level(ch.gains_per_w, level, problem.p_max_w)
            out[n] = min(ch.bits(p) / u, caps[n])
        return out

    hi = 1.0
    grown = 0
    while float(mu_at(hi).sum()) < m:
        hi *= 2.0
        grown += 1
        if grown > 200:
            raise InternalError("marginal-energy bisection bracket failed to close")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(mu_at(mid).sum()) >= m:
            hi = mid
        else:
            lo = mid
    mu = mu_at(hi)
    # distribute the (tiny) bisection residual over unclamped coordinates
    for _ in range(problem.n_nodes + 1):
        residual = m - float(mu.sum())
        if abs(residual) <= 1e-9:
            break
        free = [n for n in range(problem.n_nodes) if 1e-12 < mu[n] < caps[n] - 1e-12]
        if not free:
            break
        bump = residual / len(free)
        for n in free:
            mu[n] = min(max(mu[n] + bump, 0.0), caps[n])

    powers = []
    energy = 0.0
    for n, ch in enumerate(problem.channels):
        sol = solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, mu[n] * u, problem.p_max_w)
        powers.append(sol.powers_w)
        energy += sol.energy_j
    return NlprSolution(tuple(powers), mu, energy)


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


@dataclass(frozen=True)
class MasterSolution:
    powers: tuple[np.ndarray, ...]
    mu: np.ndarray
    value: float


def _master_layout(problem: FileAllocationProblem):
    offsets = []
    pos = 0
    for ch in problem.channels:
        offsets.append(pos)
        pos += ch.n_cells
    return offsets, pos  # mu block starts at pos


def build_master(problem: FileAllocationProblem, points, caps) -> MilpSpec:
    """Assemble the linearized master MILP from the accumulated point set."""
    offsets, n_power = _master_layout(problem)
    n_nodes = problem.n_nodes
    n_vars = n_power + n_nodes
    u = problem.file_bits

    c = np.zeros(n_vars)
    lower = np.zeros(n_vars)
    upper = np.zeros(n_vars)
    statuses = np.full(n_vars, AT_LOWER, dtype=np.int8)
    for n, ch in enumerate(problem.channels):
        sl = slice(offsets[n], offsets[n] + ch.n_cells)
        c[sl] = ch.weights_s
        upper[sl] = problem.p_max_w
        statuses[sl] = AT_UPPER
        upper[n_power + n] = caps[n]

    a_eq = np.zeros((1, n_vars))
    a_eq[0, n_power:] = 1.0
    b_eq = np.array([float(problem.total_files)])

    rows, rhs = [], []
    for point in points:
        for n, ch in enumerate(problem.channels):
            if ch.n_cells == 0:
                continue
            p_bar = point.powers[n]
            mu_bar = float(point.mu[n])
            w_over = u / ch.bandwidth_hz
            s_bar = 1.0 + p_bar * ch.gains_per_w
            grad = -(ch.weights_s / LN2) * ch.gains_per_w / s_bar
            f_bar = w_over * mu_bar - float(
                np.dot(ch.weights_s, np.log2(s_bar))
            )
            row = np.zeros(n_vars)
            row[offsets[n] : offsets[n] + ch.n_cells] = grad
            row[n_power + n] = w_over
            rows.append(row)
            rhs.append(-f_bar + float(np.dot(grad, p_bar)) + w_over * mu_bar)
    a_ub = np.vstack(rows) if rows else np.zeros((0, n_vars))
    b_ub = np.array(rhs)

    lp = LinearProgram(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
    integer_indices = tuple(range(n_power, n_vars))
    return MilpSpec(lp, integer_indices, initial_statuses=statuses)


def solve_oa_master(problem: FileAllocationProblem, state: OAState, caps=None) -> MasterSolution:
    """Exact optimum of the linearized master; its value lower-bounds the MINLP."""
    if not state.points:
        raise ValueError("master requires at least one linearization point")
    if caps is None:
        caps = integer_file_caps(problem)
    spec = build_master(problem, state.points, caps)
    res = solve_milp(spec)
    if res.status == INFEASIBLE:
        raise InfeasibleError("outer-approximation master is infeasible")
    offsets, n_power = _master_layout(problem)
    powers = tuple(
        res.x[offsets[n] : offsets[n] + ch.n_cells].copy()
        for n, ch in enumerate(problem.channels)
    )
    mu = np.rint(res.x[n_power:]).astype(int)
    return MasterSolution(powers, mu, res.value)


def oa_solve(problem: FileAllocationProblem) -> UplinkResult:
    """Least-energy integer file counts and power profiles: exact greedy.

    Each of the ``total_files`` files goes, one at a time, to the node whose
    next file costs the least extra energy; on an exact tie the higher node
    index goes first, which gives the lexicographically smallest optimal
    counts. The result reports one iteration with both bounds at the
    optimum. The name stays from the outer-approximation solver this
    replaced: the benchmark calls and traces ``oa_solve``.
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
    state = OAState(z_lower=alloc.total_energy_j, z_upper=alloc.total_energy_j)
    state.history.append(OAIteration(state.z_lower, state.z_upper, tuple(int(v) for v in mu)))
    return UplinkResult(alloc, mu, state)


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
