"""The request and the horizon search shared by the three stages.

GEO-to-LEO downlink, LEO-to-GEO uplink and failed-node repair have the same
shape. Each gives one link per LEO, a transmission window from ``t_start_s``,
a power cap and an energy budget; :class:`StageRequest` holds these and
builds every node's channel, and a stage adds only its own traffic fields,
the node's window entry and the distance its link spans.

A search asks for one node's channel at many horizons, and every window of a
node opens at the same instant, so the channels differ only in their cell
count and their last, partial cell. A request keeps one channel per node,
the longest built so far, and serves every horizon as a cut of it: the full
cells copied, the last cell recomputed from one distance evaluation. Only a
horizon that needs more cells than that channel holds builds a new one.

Each stage minimizes energy at a given horizon, and each minimizes the
horizon under its budget the same way. The floor T0 is the least horizon at
which the stage can deliver its traffic at full power; that predicate is
monotone in the horizon, so T0 is found by growing a bracket, held at
``MAX_CELLS`` grid steps, and bisecting (:func:`floor_horizon`). Beyond T0
the stage's optimal energy decreases in the horizon, so a binding energy
budget is met by bisecting between T0 and ``upper_factor * T0``, held at the
same bound (:func:`budget_horizon`), and every stage reports a
:class:`TimeResult`. The uplink, the MDS repair and the regenerating repair
run both searches through one file-allocation wrapper,
:func:`georelay.uplink_opt.min_time_solve`; the downlink calls them
directly.

The stages pass their own tolerances (downlink 1e-12 relative on the floor
and 1e-7 on the budget, uplink and repair 1e-6 s and 1e-5): one common pair
would move the downlink-time outputs or add uplink allocation solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import InfeasibleError, InternalError
from .geometry import ConstellationScenario, coverage_entry_time
from .link import LinkParams, NodeChannel, aggregate_gain, build_channel, grid_cell_count

_MAX_BISECTIONS = 200
# grid cells one channel may hold: the reference scenario's largest channel,
# a 4 x 600 s budget search at a 0.1 s step, has about 24,000
MAX_CELLS = 10**6


@dataclass(frozen=True, kw_only=True)
class StageRequest:
    """The inputs every stage shares, one link per LEO.

    Node n transmits over [max(t_start, entry_n), t_start + horizon]. The
    entry is the node's coverage entry unless a stage overrides
    :meth:`entry_s`; :meth:`distance` is the stage's link length.
    ``upper_factor`` bounds the budget search at that multiple of T0, which
    stops once the energy is within ``energy_rel_tol`` of the budget, and
    never passes ``MAX_CELLS`` grid steps. No channel holds more than
    ``MAX_CELLS`` grid cells: a request whose own horizon needs more is
    refused, and a search horizon that needs more makes the search
    infeasible. :meth:`channel` keeps each node's longest channel.
    """

    scenario: ConstellationScenario
    links: tuple[LinkParams, ...]
    t_start_s: float
    horizon_s: float
    p_max_w: float
    e_max_j: float | None = None
    grid_step_s: float = 1.0
    upper_factor: float = 4.0
    energy_rel_tol: float = 1e-3
    # node -> the channel over its longest window built so far
    _longest: dict[int, NodeChannel] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.links) != self.scenario.n_leos:
            raise ValueError("one LinkParams per LEO required")
        if self.p_max_w <= 0 or self.horizon_s <= 0 or self.grid_step_s <= 0:
            raise ValueError("power cap, horizon and grid step must be positive")
        if self.horizon_s / self.grid_step_s > MAX_CELLS:
            raise ValueError(
                f"horizon {self.horizon_s:g} s needs more than {MAX_CELLS} grid cells of {self.grid_step_s:g} s"
            )

    def entry_s(self, n: int) -> float:
        return coverage_entry_time(self.scenario, n)

    def distance(self, n: int, t):
        raise NotImplementedError

    def window(self, n: int, horizon_s: float | None = None) -> tuple[float, float]:
        start = max(self.t_start_s, self.entry_s(n))
        end = self.t_start_s + (self.horizon_s if horizon_s is None else horizon_s)
        return start, max(start, end)

    def channel(self, n: int, horizon_s: float | None = None) -> NodeChannel:
        """Node n's channel at ``horizon_s``, cut from its longest one built.

        Bit for bit ``build_channel`` over :meth:`window`: the cut copies
        the first k - 1 cells, which are full in every channel from the same
        start, and recomputes the last one with ``build_channel``'s own
        expressions. Only a horizon that needs more cells than the longest
        channel holds builds a new one.
        """
        start, end = self.window(n, horizon_s)
        step = self.grid_step_s
        cells = grid_cell_count(start, end, step)
        if cells > MAX_CELLS:
            raise InfeasibleError(
                f"a {end - start:.6g} s window needs more than {MAX_CELLS} grid cells of {step:g} s"
            )
        link = self.links[n]
        if cells == 0:
            return NodeChannel(start, start, step, np.zeros(0), np.zeros(0), link.bandwidth_hz)
        longest = self._longest.get(n)
        if longest is None or longest.n_cells < cells:
            longest = self._longest[n] = build_channel(link, lambda t: self.distance(n, t), (start, end), step)
        weights = np.empty(cells)
        gains = np.empty(cells)
        weights[:-1] = longest.weights_s[: cells - 1]
        gains[:-1] = longest.gains_per_w[: cells - 1]
        weights[-1] = (end - start) - step * (cells - 1)
        mid = start + step * (cells - 1) + weights[-1] / 2.0
        d = np.asarray(self.distance(n, np.array([mid])), dtype=float)
        gains[-1:] = aggregate_gain(link) / (d * d)
        return NodeChannel(start, end, step, weights, gains, link.bandwidth_hz)


@dataclass(frozen=True)
class TimeResult:
    """A time solve: the horizon, the stage's minimum-energy result there,
    whether the budget set it, the floor T0 and the energy at T0."""

    duration_s: float
    result: Any
    budget_bound: bool
    floor_s: float
    energy_at_t0_j: float


def floor_horizon(req, reaches, lo, hi, abs_tol, rel_tol, unreachable) -> float:
    """Least horizon above ``lo`` at which the monotone ``reaches`` holds, from above.

    The bracket end ``hi`` moves to ``lo + 2 (hi - lo)`` until ``reaches(hi)``,
    held at ``MAX_CELLS * req.grid_step_s`` as in :func:`budget_horizon`; if
    ``reaches`` fails there, the exception ``unreachable`` is raised.
    Bisection stops once ``hi - lo <= abs_tol + rel_tol * max(hi, 1)`` and
    returns ``hi``, where ``reaches`` holds.
    """
    bound = MAX_CELLS * req.grid_step_s
    hi = min(hi, bound)
    while not reaches(hi):
        if hi >= bound:
            raise unreachable
        hi = min(lo + 2.0 * (hi - lo), bound)
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= abs_tol + rel_tol * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def budget_horizon(req, solve, energy, t0, rel_tol) -> TimeResult:
    """Shortest horizon from ``t0`` whose minimum-energy solve fits ``req.e_max_j``.

    ``solve(T)`` is the stage's minimum-energy solve at horizon T and
    ``energy(result)`` its total energy. A missing or slack budget keeps T0
    and its solve; otherwise the horizon is bisected on
    (T0, min(``req.upper_factor * T0``, ``MAX_CELLS * req.grid_step_s``)]
    until the bracket is narrower than ``rel_tol * max(T0, 1)``, and the
    energy at the returned horizon must match the budget within
    ``req.energy_rel_tol``. The cell bound holds the upper end because no
    node's window is longer than the horizon, so every search channel fits.
    """
    e_max = req.e_max_j
    result0 = solve(t0)
    e0 = energy(result0)
    if e_max is None or e_max >= e0:
        return TimeResult(t0, result0, False, t0, e0)
    if e_max <= 0:
        raise InfeasibleError("energy budget must be positive")
    hi = max(t0, min(req.upper_factor * t0, MAX_CELLS * req.grid_step_s))
    result = solve(hi)
    if energy(result) > e_max:
        raise InfeasibleError(
            f"budget {e_max:.6g} J below the energy floor "
            f"{energy(result):.6g} J at the search bound {hi:.6g} s"
        )
    lo, best = t0, (hi, result)
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= rel_tol * max(t0, 1.0):
            break
        mid = 0.5 * (lo + hi)
        result = solve(mid)
        if energy(result) > e_max:
            lo = mid
        else:
            hi = mid
            best = (mid, result)
    duration, result = best
    if abs(energy(result) - e_max) > req.energy_rel_tol * e_max:
        raise InternalError("horizon bisection missed the energy budget")
    return TimeResult(duration, result, True, t0, e0)
