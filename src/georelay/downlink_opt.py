"""GEO-to-LEO stage: energy minimization, constant-power baseline, time minimization.

The energy problem decouples into independent per-LEO waterfilling solves
because the bit constraints share no variables. Time minimization first finds
the per-LEO full-power minimum durations; their maximum is the unconstrained
optimum T0, and a binding energy budget is handled by bisecting the horizon
against the optimal-energy curve, which decreases in the horizon. The
request, both searches and the time result are the shared ones in
:mod:`georelay.horizon`; the per-LEO floors are this stage's one extra output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .geometry import geos_distance
from .horizon import StageRequest, TimeResult, budget_horizon, floor_horizon
from .link import PowerProfile
from .waterfill import REL_BIT_TOL, max_deliverable_bits, solve_cells


@dataclass(frozen=True, kw_only=True)
class DownlinkRequest(StageRequest):
    """Inputs of the GEO-to-LEO allocation problems: every LEO receives
    ``files_per_leos`` files from GEO 1 once it enters coverage (links
    differ in attenuation)."""

    files_per_leos: int
    file_bits: float

    def __post_init__(self):
        super().__post_init__()
        if self.files_per_leos < 0 or self.file_bits <= 0:
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
    kkt_residual_max: float


def allocate_for_targets(channels, targets_bits, p_max, tables=None) -> AllocationResult:
    """Independent per-node waterfilling solves; infeasibility names the node.

    ``tables``, one :class:`~georelay.waterfill.BreakpointTable` per channel
    at ``p_max``, prices the targets on tables a caller already built.
    """
    profiles, energies, bits, levels, residuals = [], [], [], [], []
    for n, (ch, target) in enumerate(zip(channels, targets_bits)):
        try:
            if tables is None:
                sol = solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, target, p_max)
            else:
                sol = tables[n].solve(target)
        except InfeasibleError as exc:
            raise InfeasibleError(
                f"node {n}: {exc}", max_bits=exc.max_bits, index=n
            ) from exc
        profiles.append(ch.profile(sol.powers_w))
        energies.append(sol.energy_j)
        bits.append(sol.delivered_bits)
        levels.append(sol.water_level)
        residuals.append(sol.kkt_residual)
    return AllocationResult(
        profiles=tuple(profiles),
        energies_j=np.array(energies),
        total_energy_j=float(sum(energies)),
        delivered_bits=np.array(bits),
        water_levels=np.array(levels),
        kkt_residual_max=max(residuals, default=0.0),
    )


def constant_power_for_targets(channels, targets_bits, p_max) -> AllocationResult:
    """Per-node constant power chosen by bisection to hit each bit target exactly."""
    profiles, energies, bits, levels = [], [], [], []
    for n, (ch, target) in enumerate(zip(channels, targets_bits)):
        if target == 0:
            powers = np.zeros(ch.n_cells)
        else:
            if target > max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, p_max) * (1.0 + REL_BIT_TOL):
                raise InfeasibleError(f"node {n}: target unreachable at P_max", index=n)
            lo, hi = 0.0, p_max
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if ch.bits(np.full(ch.n_cells, mid)) >= target:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-15 * p_max:
                    break
            powers = np.full(ch.n_cells, hi)
        profiles.append(ch.profile(powers))
        energies.append(ch.energy(powers))
        bits.append(ch.bits(powers))
        levels.append(math.nan)
    return AllocationResult(
        profiles=tuple(profiles),
        energies_j=np.array(energies),
        total_energy_j=float(sum(energies)),
        delivered_bits=np.array(bits),
        water_levels=np.array(levels),
        kkt_residual_max=math.nan,
    )


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


def _min_duration_full_power(req: DownlinkRequest, n: int) -> float:
    """Smallest horizon T with the full-power window delivering the bit target."""
    target = req.files_per_leos * req.file_bits
    if target == 0:
        return 0.0

    def reaches(horizon):
        ch = req.channel(n, horizon)
        return max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, req.p_max_w) >= target

    lo = max(0.0, req.entry_s(n) - req.t_start_s)
    unreachable = InfeasibleError(f"LEO {n}: bit target unreachable in any horizon", index=n)
    return floor_horizon(reaches, lo, lo + req.grid_step_s, 0.0, 1e-12, unreachable)


def min_time_downlink(req: DownlinkRequest) -> tuple[TimeResult, np.ndarray]:
    """Minimize the transmission horizon subject to the total-energy budget.

    With a slack budget the answer is T0 = max_n T_n0 (every LEO at full power
    meets its target within T0); otherwise the horizon is bisected until the
    optimal energy matches the budget within ``req.energy_rel_tol``. The
    per-LEO floors T_n0 come back next to the time result.
    """
    n_leos = req.scenario.n_leos
    t_n0 = np.array([_min_duration_full_power(req, n) for n in range(n_leos)])
    t0 = float(np.max(t_n0)) if n_leos else 0.0
    res = budget_horizon(
        req, lambda horizon: min_energy_downlink(req, horizon_s=horizon), lambda alloc: alloc.total_energy_j, t0, 1e-7
    )
    return res, t_n0
