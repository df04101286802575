"""The request and the horizon search shared by the three stages.

GEO-to-LEO downlink, LEO-to-GEO uplink and failed-node repair have the same
shape. Each gives one link per LEO, a transmission window from ``t_start_s``,
a power cap and an energy budget; :class:`StageRequest` holds these and
builds every node's channel, and a stage adds only its own traffic fields,
the node's window entry, the distance its link spans and the orbit radii of
the link's ends.

A search asks for one node's channel at many horizons, and every window of a
node opens at the same instant, so the channels differ only in their cell
count and their last, partial cell. A request keeps one channel per node,
the longest built so far, and serves every horizon as a cut of it: the full
cells copied, the last cell recomputed from one distance evaluation. Only a
horizon that needs more cells than that channel holds builds a new one.

A floor search asks a node only for its full-power bits, which
:meth:`StageRequest.full_bits` gives in O(1) from a prefix sum over the
longest channel and the recomputed last cell, with no cut. Before that it
asks :meth:`StageRequest.bits_ceiling`, a closed-form bound from the link's
least distance, so a target no horizon within ``MAX_CELLS`` grid steps can
reach is refused before any long channel is built.

Each stage minimizes energy at a given horizon, and each minimizes the
horizon under its budget the same way. The floor T0 is the least horizon at
which the stage can deliver its traffic at full power; that predicate is
monotone in the horizon, so T0 is found by growing a bracket, held at
``MAX_CELLS`` grid steps, and bisecting (:func:`floor_horizon`). Beyond T0
the stage's optimal energy decreases in the horizon, so a binding energy
budget is met by an ITP search (interpolate, truncate, project; Oliveira &
Takahashi, ACM TOMS 47(1), 2020) between T0 and ``upper_factor * T0``, held
at the same bound (:func:`budget_horizon`). It converges superlinearly where
the energy is smooth and never takes more than one solve beyond bisection.
Every stage reports a :class:`TimeResult`. The uplink, the MDS repair and
the regenerating repair run both searches through one file-allocation
wrapper, :func:`georelay.uplink_opt.min_time_solve`; the downlink calls them
directly.

The stages pass their own tolerances (downlink 1e-12 relative on the floor
and 1e-7 on the budget, uplink and repair 1e-6 s and 1e-5): one common pair
would move the downlink-time outputs or add uplink allocation solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import InfeasibleError, InternalError
from .geometry import ConstellationScenario, coverage_entry_time
from .link import LinkParams, NodeChannel, aggregate_gain, build_channel, grid_cell_count
from .waterfill import LN2

_MAX_STEPS = 200
# the ITP projection radius is held this hair inside its exact value, so that
# rounding cannot leave the last bracket just wider than the stop width
_ITP_REACH = 1.0 - 1e-6
# grid cells one channel may hold: the reference scenario's largest channel,
# a 4 x 600 s budget search at a 0.1 s step, has about 24,000
MAX_CELLS = 10**6


@dataclass(frozen=True, kw_only=True)
class StageRequest:
    """The inputs every stage shares, one link per LEO.

    Node n transmits over [max(t_start, entry_n), t_start + horizon]. The
    entry is the node's coverage entry unless a stage overrides
    :meth:`entry_s`; :meth:`distance` is the stage's link length and
    :meth:`radii` the orbit radii of its ends.
    ``upper_factor`` bounds the budget search at that multiple of T0, which
    stops once the energy is within ``energy_rel_tol`` of the budget, and
    never passes ``MAX_CELLS`` grid steps. No channel holds more than
    ``MAX_CELLS`` grid cells: a request whose own horizon needs more is
    refused, and a search horizon that needs more makes the search
    infeasible. :meth:`channel` keeps each node's longest channel, and
    :meth:`full_bits` a prefix sum over it.
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
    # node -> prefix sums of w * log1p(p_max * h) over that channel's cells
    _full_prefix: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def radii(self, n: int) -> tuple[float, float]:
        """Orbit radii of node n's link ends, GEO and LEO unless a stage overrides."""
        return self.scenario.geos_radius_m, self.scenario.leos_radius_m[n]

    def window(self, n: int, horizon_s: float | None = None) -> tuple[float, float]:
        start = max(self.t_start_s, self.entry_s(n))
        end = self.t_start_s + (self.horizon_s if horizon_s is None else horizon_s)
        return start, max(start, end)

    def _cut(self, n: int, horizon_s: float | None):
        """Node n's window at ``horizon_s``, its cell count and, for a
        nonempty window, its longest channel and last cell's weight and gain.

        The longest channel is rebuilt, and its full-power prefix dropped,
        when it holds fewer cells than the window.
        """
        start, end = self.window(n, horizon_s)
        step = self.grid_step_s
        cells = grid_cell_count(start, end, step)
        if cells > MAX_CELLS:
            raise InfeasibleError(
                f"a {end - start:.6g} s window needs more than {MAX_CELLS} grid cells of {step:g} s"
            )
        if cells == 0:
            return start, end, 0, None, 0.0, None
        link = self.links[n]
        longest = self._longest.get(n)
        if longest is None or longest.n_cells < cells:
            longest = self._longest[n] = build_channel(link, lambda t: self.distance(n, t), (start, end), step)
            self._full_prefix.pop(n, None)
        weight = (end - start) - step * (cells - 1)
        mid = start + step * (cells - 1) + weight / 2.0
        d = np.asarray(self.distance(n, np.array([mid])), dtype=float)
        return start, end, cells, longest, weight, aggregate_gain(link) / (d * d)

    def channel(self, n: int, horizon_s: float | None = None) -> NodeChannel:
        """Node n's channel at ``horizon_s``, cut from its longest one built.

        Bit for bit ``build_channel`` over :meth:`window`: the cut copies
        the first k - 1 cells, which are full in every channel from the same
        start, and recomputes the last one with ``build_channel``'s own
        expressions. Only a horizon that needs more cells than the longest
        channel holds builds a new one.
        """
        start, end, cells, longest, weight, gain = self._cut(n, horizon_s)
        bandwidth = self.links[n].bandwidth_hz
        if cells == 0:
            return NodeChannel(start, start, self.grid_step_s, np.zeros(0), np.zeros(0), bandwidth)
        weights = np.empty(cells)
        gains = np.empty(cells)
        weights[:-1] = longest.weights_s[: cells - 1]
        gains[:-1] = longest.gains_per_w[: cells - 1]
        weights[-1] = weight
        gains[-1:] = gain
        return NodeChannel(start, end, self.grid_step_s, weights, gains, bandwidth)

    def full_bits(self, n: int, horizon_s: float | None = None) -> float:
        """Node n's bits at ``p_max_w`` in every cell at ``horizon_s``, in O(1).

        ``max_deliverable_bits`` of :meth:`channel` up to the summation
        order: a prefix sum of w * log1p(p_max * h) over the longest
        channel's full cells, kept until that channel is rebuilt, plus the
        recomputed last cell. The prefix sums in ``np.longdouble`` (80-bit
        on x86-64), so its rounding stays far below the float64 dot
        product's.
        """
        _, _, cells, longest, weight, gain = self._cut(n, horizon_s)
        if cells == 0:
            return 0.0
        prefix = self._full_prefix.get(n)
        if prefix is None:
            terms = longest.weights_s * np.log1p(self.p_max_w * longest.gains_per_w)
            sums = np.cumsum(terms, dtype=np.longdouble).astype(float)
            prefix = self._full_prefix[n] = np.concatenate(([0.0], sums))
        last = weight * np.log1p(self.p_max_w * gain[0])
        return float(prefix[cells - 1] + last) * (self.links[n].bandwidth_hz / LN2)

    def bits_ceiling(self, n: int, horizon_s: float | None = None) -> float:
        """An upper bound on :meth:`full_bits`, with no channel built.

        No distance on a link falls below d_min = |r1 - r2| of its
        :meth:`radii`, so the full-power bits are at most
        W T log2(1 + p_max L / d_min^2) over a window of length T. The
        radicand gives up 1e-12 (r1^2 + r2^2) for the rounding of the
        distance near alignment, and the length 1e-9 for the sum of the cell
        weights; equal radii give no bound (infinity).
        """
        start, end = self.window(n, horizon_s)
        r1, r2 = self.radii(n)
        d2_min = (r1 - r2) ** 2 - 1e-12 * (r1 * r1 + r2 * r2)
        if d2_min <= 0.0:
            return math.inf
        link = self.links[n]
        snr = self.p_max_w * aggregate_gain(link) / d2_min
        return link.bandwidth_hz * (end - start) * (1.0 + 1e-9) * math.log1p(snr) / LN2


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
    for _ in range(_MAX_STEPS):
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
    and its solve; otherwise the horizon is searched by ITP on
    (T0, min(``req.upper_factor * T0``, ``MAX_CELLS * req.grid_step_s``)]
    until the bracket is narrower than ``rel_tol * max(T0, 1)``, and the
    energy at the returned feasible end must match the budget within
    ``req.energy_rel_tol``. The cell bound holds the upper end because no
    node's window is longer than the horizon, so every search channel fits.

    Each ITP step takes the regula falsi point of log(E / e_max) at the
    bracket's ends, which is closer to linear in T than E on the stages'
    convex energy curves (E > e_max > 0 at T0 means traffic, so E > 0 at
    every T), moves it toward the midpoint by kappa1 * width^2 (kappa1 = 0.2
    over the first width, kappa2 = 2) and projects it into the midpoint's
    neighbourhood of radius tol * 2^(n_max - j - 1) - width / 2 at step j,
    with n_max one more (n0 = 1) than bisection's step count; so no search
    takes more than one solve beyond bisection.
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
    tol = rel_tol * max(t0, 1.0)
    lo, best = t0, (hi, result)
    # log(E / e_max): positive at lo, not at hi
    f_lo, f_hi = math.log(e0 / e_max), math.log(energy(result) / e_max)
    width = hi - lo
    n_max = math.ceil(math.log2(width / tol)) + 1 if width > tol else 0
    for j in range(_MAX_STEPS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        radius = _ITP_REACH * tol * 2.0 ** (n_max - j - 1) - 0.5 * (hi - lo)
        delta = 0.2 / width * (hi - lo) ** 2
        falsi = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        sigma = math.copysign(1.0, mid - falsi)
        t = falsi + sigma * delta if delta <= abs(mid - falsi) else mid
        t = t if abs(t - mid) <= radius else mid - sigma * radius
        result = solve(t)
        f = math.log(energy(result) / e_max)
        if f > 0:
            lo, f_lo = t, f
        else:
            hi, f_hi = t, f
            best = (t, result)
    duration, result = best
    if abs(energy(result) - e_max) > req.energy_rel_tol * e_max:
        raise InternalError("horizon search missed the energy budget")
    return TimeResult(duration, result, True, t0, e0)
