"""GEO-to-LEO stage: energy minimization, constant-power baseline, time minimization.

The energy problem decouples into independent per-LEO waterfilling solves
because the bit constraints share no variables; the constant-power baseline
is a per-LEO solve on the same channels, and one assembler gathers either,
and the file allocator's solves, into an :class:`AllocationResult`. Time
minimization first finds the per-LEO full-power minimum durations; their
maximum is the unconstrained optimum T0, and a binding energy budget is
handled by a Newton search of the horizon on the optimal-energy curve, which
decreases in the horizon. The
request, both searches and the time result are the shared ones in
:mod:`georelay.horizon`; the per-LEO floors are this stage's one extra output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .geometry import geos_distance
from .horizon import StageRequest, TimeResult, budget_horizon, floor_horizon, refuse_budget_below_floor
from .link import PowerProfile
from .waterfill import LN2, REL_BIT_TOL, CellSolution, max_deliverable_bits, solve_cells


@dataclass(frozen=True, kw_only=True)
class DownlinkRequest(StageRequest):
    """Inputs of the GEO-to-LEO allocation problems: every LEO receives
    ``files_per_leos`` files from GEO 1 once it enters coverage (links
    differ in attenuation)."""

    files_per_leos: int
    file_bits: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.files_per_leos >= 0 and self.file_bits > 0):
            raise ValueError("bad file parameters")

    def distance(self, n: int, t):
        return geos_distance(self.scenario, n, t)


@dataclass(frozen=True)
class AllocationResult:
    profiles: tuple[PowerProfile, ...]
    energies_j: np.ndarray
    total_energy_j: float
    delivered_bits: np.ndarray
    water_levels: np.ndarray
    kkt_residuals: np.ndarray
    kkt_residual_max: float


def allocation_result(profiles, levels, delivered, energies, residuals) -> AllocationResult:
    """Every node's power profile, with its water level, delivered bits,
    energy and KKT residual, gathered into one result. This is the one place
    an :class:`AllocationResult` is built."""
    return AllocationResult(
        profiles=tuple(profiles),
        energies_j=np.array(energies),
        total_energy_j=float(sum(energies)),
        delivered_bits=np.array(delivered),
        water_levels=np.array(levels),
        kkt_residuals=np.array(residuals),
        kkt_residual_max=max(residuals, default=0.0),
    )


def _per_node(channels, solve) -> AllocationResult:
    """``solve(n, channel)``, a :class:`~georelay.waterfill.CellSolution`, on
    every node's channel, gathered into one result. An infeasible node's
    error is raised again as "node n: ...", with its index and deliverable
    bits."""
    sols = []
    for n, ch in enumerate(channels):
        try:
            sols.append(solve(n, ch))
        except InfeasibleError as exc:
            raise InfeasibleError(f"node {n}: {exc}", max_bits=exc.max_bits, index=n) from exc
    return allocation_result(
        [ch.profile(sol.powers_w) for ch, sol in zip(channels, sols)],
        [sol.water_level for sol in sols],
        [sol.delivered_bits for sol in sols],
        [sol.energy_j for sol in sols],
        [sol.kkt_residual for sol in sols],
    )


def allocate_for_targets(channels, targets_bits, p_max) -> AllocationResult:
    """Independent per-node waterfilling solves; infeasibility names the node."""
    return _per_node(
        channels,
        lambda n, ch: solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, targets_bits[n], p_max),
    )


def _least_constant_power(ch, target, p_max) -> CellSolution:
    """The least constant power on ``ch`` whose bits reach ``target``, or
    ``p_max`` if none below it does, to within 1e-15 p_max; a zero target
    gets power 0, and the masks follow from that one level. A target above
    the full-power bits, past the waterfill's tolerance, is infeasible, with
    those bits.

    bits(P) = W / ln 2 sum_k w_k ln(1 + P h_k) is concave and increasing,
    so Newton's steps, P + (target - bits) / bits' with bits' = W / ln 2
    sum_k w_k h_k / (1 + P h_k), stay below the root and climb to it from
    P = 0, where bits = 0 needs no evaluation. A step shorter than the
    tolerance becomes one closing step of the tolerance, which reaches.
    """
    n, power, bits, steps = ch.n_cells, 0.0, 0.0, 0
    if target != 0:
        full = max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, p_max)
        if target > full * (1.0 + REL_BIT_TOL):
            raise InfeasibleError("target unreachable at P_max", max_bits=full)
        tol = 1e-15 * p_max
        scale = ch.bandwidth_hz / LN2
        for steps in range(1, 201):
            slope = scale * np.dot(ch.weights_s, ch.gains_per_w / (1.0 + power * ch.gains_per_w))
            power = min(power + max((target - bits) / slope, tol), p_max)
            bits = ch.bits(np.full(n, power))
            if bits >= target or power == p_max:
                break
    powers = np.full(n, power)
    return CellSolution(
        powers, math.nan, np.full(n, power == 0.0), np.full(n, power == p_max), bits, ch.energy(powers), steps, math.nan
    )


def constant_power_for_targets(channels, targets_bits, p_max) -> AllocationResult:
    """Per-node constant power: the least that meets each bit target
    (:func:`_least_constant_power`)."""
    return _per_node(channels, lambda n, ch: _least_constant_power(ch, targets_bits[n], p_max))


def min_energy_downlink(req: DownlinkRequest, horizon_s: float | None = None) -> AllocationResult:
    """Independent per-LEO waterfilling, each delivering alpha files."""
    channels = [req.channel(n, horizon_s) for n in range(req.scenario.n_leos)]
    target = req.files_per_leos * req.file_bits
    return allocate_for_targets(channels, [target] * len(channels), req.p_max_w)


def constant_power_baseline(req: DownlinkRequest) -> AllocationResult:
    """Constant-power reference: every LEO holds one level meeting its target."""
    channels = [req.channel(n) for n in range(req.scenario.n_leos)]
    target = req.files_per_leos * req.file_bits
    return constant_power_for_targets(channels, [target] * len(channels), req.p_max_w)


def min_time_downlink(req: DownlinkRequest) -> tuple[TimeResult, np.ndarray]:
    """Minimize the transmission horizon subject to the total-energy budget.

    With a slack budget the answer is T0 = max_n T_n0, where T_n0 is the
    least horizon at which LEO n at full power meets its target, from its
    coverage entry on; otherwise the horizon is searched until the shortest
    one within the budget is bracketed to 1e-7 max(T0, 1 s). The per-LEO
    floors T_n0 come back next to the time result. A budget below every
    LEO's closed-form energy floor is refused before any channel is built.
    """
    n_leos = req.scenario.n_leos
    target = req.files_per_leos * req.file_bits
    refuse_budget_below_floor(req, range(n_leos), target, [1] * n_leos, n_leos)
    floors = []
    for n in range(n_leos):
        unreachable = InfeasibleError(f"LEO {n}: bit target unreachable in any horizon", index=n)
        floors.append(floor_horizon(req, (n,), target, (1,), 1, 0.0, 1e-12, unreachable))
    t_n0 = np.array(floors)
    t0 = float(np.max(t_n0)) if n_leos else 0.0
    res = budget_horizon(
        req,
        lambda horizon: min_energy_downlink(req, horizon_s=horizon),
        lambda alloc: alloc.total_energy_j,
        lambda horizon, alloc: req.energy_slope(range(n_leos), horizon, alloc),
        t0,
        1e-7,
    )
    return res, t_n0
