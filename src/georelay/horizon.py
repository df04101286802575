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
reach is refused before any long channel is built. Its dual,
:meth:`StageRequest.energy_per_bit`, bounds the energy of every bit from
below, so :func:`refuse_budget_below_floor` refuses a budget no horizon can
meet before any channel is built at all.

Each stage minimizes energy at a given horizon, and each minimizes the
horizon under its budget the same way. The floor T0 is the least horizon at
which the stage can deliver its traffic at full power, and
:func:`floor_horizon` is its one search. A node reaches each amount of bits
at one threshold horizon, and T0 is the F-th least threshold of the amounts
k u on node n, k up to its cap: for the uplink and the repairs u is a file
and F the file total; the downlink asks each LEO for one amount, its
traffic, and takes the largest floor. The search grows one bracket until F
amounts reach, reads each threshold's cell off the full-power prefix, and
refines only the thresholds whose cells can hold the F-th, with a secant
inside the cell, where the bits are smooth in the horizon.

Beyond T0 the stage's optimal energy decreases in the horizon, so a binding
energy budget is met by a search between T0 and ``upper_factor * T0``, held
at the same bound (:func:`budget_horizon`). Every solve also gives the
energy's slope in the horizon, by the envelope theorem from the last cell
of each node alone (:meth:`StageRequest.energy_slope`), and the search takes
safeguarded Newton steps on the log of the energy with it. It converges
superlinearly where the energy is smooth, and bisects for good after a few
Newton steps that fail to halve its bracket. Every stage reports a
:class:`TimeResult`. The
uplink, the MDS repair and the regenerating repair run both searches through
one file-allocation wrapper, :func:`georelay.uplink_opt.min_time_solve`;
the downlink calls them directly.

Both searches stop on a horizon width, never on an energy or bit
tolerance. The stages pass their own widths (downlink 1e-12 relative on the
floor and 1e-7 on the budget, uplink and repair 1e-6 s and 1e-5): one
common pair would move the downlink-time outputs or add uplink allocation
solves.
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
# Newton steps of the budget search that leave its bracket wider than half,
# after which it bisects for good
_NEWTON_MISSES = 8
# half the time step of the central difference that gives a distance's rate
_RATE_STEP_S = 1e-2
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
    stops once its horizon bracket is no wider than its stop width, and
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
    # node -> the channel over its longest window built so far
    _longest: dict[int, NodeChannel] = field(default_factory=dict, init=False, repr=False, compare=False)
    # node -> prefix sums of w * log1p(p_max * h) over that channel's cells
    _full_prefix: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.links) != self.scenario.n_leos:
            raise ValueError("one LinkParams per LEO required")
        if not (self.p_max_w > 0 and self.horizon_s > 0 and self.grid_step_s > 0):
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
        nonempty window, its longest channel and last cell's weight, gain
        and gain rate.

        The longest channel is rebuilt, and its full-power prefix dropped,
        when it holds fewer cells than the window. One distance evaluation,
        at the last cell's midpoint t and at t -/+ ``_RATE_STEP_S``, gives
        the gain h = L / d(t)^2 and its rate h' = -h d'(t) / d(t), d' the
        central difference.
        """
        start, end = self.window(n, horizon_s)
        step = self.grid_step_s
        cells = grid_cell_count(start, end, step)
        if cells > MAX_CELLS:
            raise InfeasibleError(
                f"a {end - start:.6g} s window needs more than {MAX_CELLS} grid cells of {step:g} s"
            )
        if cells == 0:
            return start, end, 0, None, 0.0, None, None
        link = self.links[n]
        longest = self._longest.get(n)
        if longest is None or longest.n_cells < cells:
            longest = self._longest[n] = build_channel(link, lambda t: self.distance(n, t), (start, end), step)
            self._full_prefix.pop(n, None)
        weight = (end - start) - step * (cells - 1)
        mid = start + step * (cells - 1) + weight / 2.0
        d = np.asarray(self.distance(n, mid + np.array([-_RATE_STEP_S, 0.0, _RATE_STEP_S])), dtype=float)
        gain = aggregate_gain(link) / (d[1] * d[1])
        return start, end, cells, longest, weight, gain, -gain * (d[2] - d[0]) / (2.0 * _RATE_STEP_S * d[1])

    def channel(self, n: int, horizon_s: float | None = None) -> NodeChannel:
        """Node n's channel at ``horizon_s``, cut from its longest one built.

        Bit for bit ``build_channel`` over :meth:`window`: the cut copies
        the first k - 1 cells, which are full in every channel from the same
        start, and recomputes the last one with ``build_channel``'s own
        expressions. Only a horizon that needs more cells than the longest
        channel holds builds a new one.
        """
        start, end, cells, longest, weight, gain, _ = self._cut(n, horizon_s)
        bandwidth = self.links[n].bandwidth_hz
        if cells == 0:
            return NodeChannel(start, start, self.grid_step_s, np.zeros(0), np.zeros(0), bandwidth)
        weights = np.empty(cells)
        gains = np.empty(cells)
        weights[:-1] = longest.weights_s[: cells - 1]
        gains[:-1] = longest.gains_per_w[: cells - 1]
        weights[-1] = weight
        gains[-1] = gain
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
        _, _, cells, longest, weight, gain, _ = self._cut(n, horizon_s)
        if cells == 0:
            return 0.0
        prefix = self._full_prefix.get(n)
        if prefix is None:
            terms = longest.weights_s * np.log1p(self.p_max_w * longest.gains_per_w)
            sums = np.cumsum(terms, dtype=np.longdouble).astype(float)
            prefix = self._full_prefix[n] = np.concatenate(([0.0], sums))
        last = weight * np.log1p(self.p_max_w * gain)
        return float(prefix[cells - 1] + last) * (self.links[n].bandwidth_hz / LN2)

    def energy_slope(self, nodes, horizon_s: float, alloc) -> float:
        """dE*/dT at ``horizon_s`` of ``alloc``, a minimum-energy allocation
        there whose i-th profile and water level are node ``nodes[i]``'s.

        A longer horizon only lengthens each node's last cell K, of weight
        w_K, gain h_K and power P_K, at rate 1, and moves its midpoint at
        rate 1/2. By the envelope theorem (Boyd & Vandenberghe 2004, 5.6)
        the node adds the horizon derivative of its Lagrangian at the
        optimum,

            P_K - x ln(1 + P_K h_K) - x w_K P_K h_K' / (1 + P_K h_K),

        with x = water_level / ln 2 and h_K' the gain rate of :meth:`_cut`.
        A node with no bits or an empty window has P_K = 0 and adds 0. At a
        grid boundary the last cell is the full one (:meth:`_cut`), so the
        slope is the left one; for a file allocation it is the slope at its
        counts, so it is one-sided where the optimal counts change.
        """
        slope = 0.0
        for n, profile, level in zip(nodes, alloc.profiles, alloc.water_levels):
            powers = profile.values_w
            if powers.size == 0 or powers[-1] == 0.0:
                continue
            _, _, _, _, weight, gain, gain_rate = self._cut(n, horizon_s)
            p, snr, x = float(powers[-1]), float(powers[-1] * gain), level / LN2
            slope += p - x * math.log1p(snr) - x * weight * p * gain_rate / (1.0 + snr)
        return slope

    def _gain_ceiling(self, n: int) -> float:
        """An upper bound on node n's gain L / d^2: no distance on the link
        falls below d_min = |r1 - r2| of its :meth:`radii`. The radicand
        gives up 1e-12 (r1^2 + r2^2) for the rounding of the distance near
        alignment; equal radii give no bound (infinity)."""
        r1, r2 = self.radii(n)
        d2_min = (r1 - r2) ** 2 - 1e-12 * (r1 * r1 + r2 * r2)
        return aggregate_gain(self.links[n]) / d2_min if d2_min > 0.0 else math.inf

    def bits_ceiling(self, n: int, horizon_s: float | None = None) -> float:
        """An upper bound on :meth:`full_bits`, with no channel built.

        The full-power bits are at most W T log2(1 + p_max h_max) over a
        window of length T, with h_max the gain ceiling; the length gives up
        1e-9 for the sum of the cell weights.
        """
        start, end = self.window(n, horizon_s)
        gain = self._gain_ceiling(n)
        if gain == math.inf:
            return math.inf
        snr = self.p_max_w * gain
        return self.links[n].bandwidth_hz * (end - start) * (1.0 + 1e-9) * math.log1p(snr) / LN2

    def energy_per_bit(self, n: int) -> float:
        """A lower bound on the energy of one bit over node n's link, at any
        power and horizon: ln 2 / (W h_max), the dual of :meth:`bits_ceiling`,
        as log1p(x) <= x bounds every cell's bits by W w P h_max / ln 2."""
        return LN2 / (self.links[n].bandwidth_hz * self._gain_ceiling(n))


@dataclass(frozen=True)
class TimeResult:
    """A time solve: the horizon, the stage's minimum-energy result there,
    whether the budget set it, the floor T0 and the energy at T0."""

    duration_s: float
    result: Any
    budget_bound: bool
    floor_s: float
    energy_at_t0_j: float


def floor_horizon(req, nodes, unit_bits, caps, count, abs_tol, rel_tol, unreachable) -> float:
    """Least horizon at which ``count`` amounts reach their nodes at full power.

    Node ``nodes[i]`` holds the amounts k * ``unit_bits``, k = 1 ..
    ``caps[i]``, and each amount has its threshold horizon, the least at
    which the node's :meth:`~StageRequest.full_bits` reach it; the floor is
    the count-th least of them, and 0 for no traffic. The bracket starts at
    the earliest window opening among ``nodes``, max(dt, 1 s) wide, and its
    end doubles away from that opening until ``count`` amounts reach, on the
    :meth:`~StageRequest.bits_ceiling` first, held at ``MAX_CELLS`` grid
    steps; ``unreachable`` is raised if they fall short there. Every amount
    that reaches at that end is placed in its prefix cell, the grid cell of
    its node where the full-power prefix first reaches it, with one
    ``searchsorted`` per node. The count-th threshold lies between the
    count-th least cell start and the count-th least cell end, so the
    amounts whose cell ends below that start are counted, those whose cell
    starts above that end are dropped, and only the rest are refined
    (:func:`_refine`). The floor is returned within the stop width
    ``abs_tol + rel_tol * max(T0, 1)`` above the count-th threshold. A
    threshold can lie a rounding error past its cell's end; its refinement
    still finds it, below the bracket end, and the count is off by no more.
    """
    if count <= 0 or unit_bits <= 0:
        return 0.0
    amounts = [unit_bits * np.arange(1, cap + 1) for cap in caps]
    reached = []

    def covers(horizon: float) -> bool:
        ceilings = [np.searchsorted(a, req.bits_ceiling(n, horizon), "right") for n, a in zip(nodes, amounts)]
        if sum(ceilings) < count:
            return False
        reached[:] = [np.searchsorted(a, req.full_bits(n, horizon), "right") for n, a in zip(nodes, amounts)]
        return sum(reached) >= count

    step = req.grid_step_s
    bound = MAX_CELLS * step
    lo = min((req.window(n, 0.0)[0] - req.t_start_s for n in nodes), default=0.0)
    hi = min(lo + max(step, 1.0), bound)
    while not covers(hi):
        if hi >= bound:
            raise unreachable
        hi = min(lo + 2.0 * (hi - lo), bound)
    owners, bits, cells, starts, ends = [], [], [], [], []
    for n, a, m in zip(nodes, amounts, reached):
        if m:
            prefix = req._full_prefix[n]
            c = np.minimum(np.searchsorted(prefix, a[:m] / (req.links[n].bandwidth_hz / LN2)), prefix.size - 1)
            opens = req.window(n, 0.0)[0] - req.t_start_s
            owners += [n] * int(m)
            bits.append(a[:m])
            cells.append(c)
            starts.append(opens + (c - 1) * step)
            ends.append(opens + c * step)
    bits, cells, starts, ends = (np.concatenate(x) for x in (bits, cells, starts, ends))
    first = np.partition(starts, count - 1)[count - 1]
    last = np.partition(ends, count - 1)[count - 1]
    below = int(np.count_nonzero(ends <= first))
    refined = sorted(
        _refine(req, owners[i], bits[i], cells[i], hi, abs_tol, rel_tol)
        for i in np.flatnonzero((ends > first) & (starts < last))
    )
    return refined[count - below - 1]


def _refine(req, n, bits, cell, hi, abs_tol, rel_tol) -> float:
    """Node n's threshold for ``bits``, which its full-power prefix first
    reaches in grid cell ``cell``, to the stop width above it; ``hi``, where
    the bits reach, bounds the bracket from above.

    Inside the cell the bits are smooth in the horizon, and a bracketed
    Illinois-type secant, with Anderson and Bjorck's weight on a kept end
    (BIT 13, 1973), starts from the prefix's values at the cell's ends. Its
    bracket runs from the cell's start to ``hi``, so a threshold that lies
    a rounding error past the cell's end stays inside it. Once the secant's
    steps shrink so fast that the estimate t is within a tenth of h of the
    threshold, with h = 0.45 of the stop width ``abs_tol + rel_tol *
    max(t, 1)``, the final bracket [t - h, t + h] is checked at both ends
    and its upper end returned. That end lies about h above the threshold,
    so the allocator's float64 full-power bits, which can fall 1e-15
    relative below the prefix's, reach there too. A bracket the secant does
    not close is bisected to the stop width.
    """

    def short(horizon: float) -> float:
        return req.full_bits(n, horizon) - bits

    step = req.grid_step_s
    prefix = req._full_prefix[n]
    scale = req.links[n].bandwidth_hz / LN2
    opens = req.window(n, 0.0)[0] - req.t_start_s
    # the secant's ends (a, fa) short and (b, fb) reaching, first the cell's
    lo = a = opens + (cell - 1) * step
    b = opens + cell * step
    fa, fb = (prefix[cell - 1] - bits / scale) * scale, (prefix[cell] - bits / scale) * scale
    # the last point tried, the step to it, and which end it moved
    last, moved, side = None, b - a, 0
    for _ in range(_MAX_STEPS):
        t = (a * fb - b * fa) / (fb - fa)
        if not lo <= t <= hi:
            t = 0.5 * (lo + hi)
        h = 0.45 * (abs_tol + rel_tol * max(t, 1.0))
        if last is not None:
            # steps shrinking by q leave t about q * |t - last| off the root
            if hi - lo <= h or (t - last) ** 2 <= 0.1 * h * moved:
                break
            moved = abs(t - last)
        last, f = t, short(t)
        if f >= 0.0:
            if side > 0:
                fa *= 1.0 - f / fb if fb > f else 0.5
            hi, b, fb, side = t, t, f, 1
        else:
            if side < 0:
                fb *= 1.0 - f / fa if fa < f else 0.5
            lo, a, fa, side = t, t, f, -1
    up = min(t + h, MAX_CELLS * step)
    if short(up) >= 0.0:
        if t - h <= lo or short(t - h) < 0.0:
            return up
        hi = t - h
    else:
        lo = up
    for _ in range(_MAX_STEPS):
        if hi - lo <= abs_tol + rel_tol * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        if short(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def refuse_budget_below_floor(req, nodes, unit_bits, caps, count) -> None:
    """Refuse ``req.e_max_j`` below the energy of ``count`` amounts of
    ``unit_bits``, at most ``caps[i]`` on node ``nodes[i]``, at any horizon.

    That energy is at least the sum of the ``count`` cheapest amounts under
    :meth:`StageRequest.energy_per_bit`, less 1e-9 for rounding, and no
    channel is built. Traffic whose ceilings at ``MAX_CELLS`` grid steps do
    not cover the count is left to the floor search, which refuses it as
    unreachable, also with no channel built.
    """
    if req.e_max_j is None or count <= 0:
        return
    bound = MAX_CELLS * req.grid_step_s
    ceilings = np.array([req.bits_ceiling(n, bound) for n in nodes])
    if np.minimum(caps, np.floor(ceilings / unit_bits)).sum() < count:
        return
    costs = np.repeat([unit_bits * req.energy_per_bit(n) for n in nodes], caps)
    floor = float(np.sum(np.sort(costs)[:count])) * (1.0 - 1e-9)
    if req.e_max_j < floor:
        raise InfeasibleError(f"budget {req.e_max_j:.6g} J below the energy floor {floor:.6g} J of any horizon")


def budget_horizon(req, solve, energy, slope, t0, rel_tol) -> TimeResult:
    """Shortest horizon from ``t0`` whose minimum-energy solve fits ``req.e_max_j``.

    ``solve(T)`` is the stage's minimum-energy solve at horizon T,
    ``energy(result)`` its total energy E and ``slope(T, result)`` the slope
    dE/dT (:meth:`StageRequest.energy_slope`), which the search asks for
    only where it steps from. A missing or slack budget keeps T0 and its
    solve. Otherwise the search keeps a bracket (lo, hi]: lo the
    longest horizon solved over the budget, from T0, and hi the shortest
    solved within it, or until then the search bound min(``req.upper_factor
    * T0``, ``MAX_CELLS * req.grid_step_s``). It stops once the bracket is
    no wider than tol = ``rel_tol * max(T0, 1)`` and returns hi. Where E
    drops in a step inside that last bracket, as the uplink's does when a
    node's full-power file cap rises, hi's energy lies below the budget by
    that step: the step's horizon is the answer, within tol. The cell bound
    holds the upper end because no node's window is longer than the
    horizon, so every search channel fits.

    Each step is a safeguarded Newton step on f = log(E / e_max), which is
    closer to linear in T than E on the stages' energy curves (E > e_max > 0
    at T0 means traffic, so E > 0 at every T):

    - from lo to lo - f E / E', if E'(lo) < 0 and that point lies below hi;
      a step shorter than tol becomes one closing solve at lo + tol;
    - to the search bound, solved only here, if the point reaches it before
      any horizon within the budget was found; a budget over the energy
      there is infeasible;
    - otherwise to the bracket's midpoint.

    Where E is convex, Newton stays on lo's side and converges
    superlinearly, so the bracket shrinks at the closing solve. A Newton
    step that leaves the bracket wider than half is a miss; after
    ``_NEWTON_MISSES`` misses the search bisects for good. Every other step
    halves the bracket, so no search takes more than
    ceil(log2((bound - T0) / tol)) + ``_NEWTON_MISSES`` solves besides the
    two at T0 and at the bound.
    """
    e_max = req.e_max_j
    result = solve(t0)
    e0 = energy(result)
    if e_max is None or e_max >= e0:
        return TimeResult(t0, result, False, t0, e0)
    if e_max <= 0:
        raise InfeasibleError("energy budget must be positive")
    bound = max(t0, min(req.upper_factor * t0, MAX_CELLS * req.grid_step_s))
    tol = rel_tol * max(t0, 1.0)
    lo, e_lo, d_lo, hi, best, misses = t0, e0, slope(t0, result), bound, None, 0
    for _ in range(_MAX_STEPS):
        newton = lo - math.log(e_lo / e_max) * e_lo / d_lo if d_lo < 0.0 else math.inf
        stepped = misses < _NEWTON_MISSES and (newton < hi or best is None)
        if hi <= lo + tol:
            if best is not None:
                break
            t, stepped = hi, False
        elif stepped:
            t = min(max(newton, lo + tol), hi)
        else:
            t = 0.5 * (lo + hi)
        width = hi - lo
        result = solve(t)
        e = energy(result)
        if e <= e_max:
            hi, best = t, (result, e)
        elif t < bound:
            lo, e_lo, d_lo = t, e, slope(t, result)
        else:
            raise InfeasibleError(
                f"budget {e_max:.6g} J below the energy floor {e:.6g} J at the search bound {t:.6g} s"
            )
        if stepped and hi - lo > 0.5 * width:
            misses += 1
    if best is None or hi > lo + tol:
        raise InternalError("horizon search ended without closing its bracket")
    return TimeResult(hi, best[0], True, t0, e0)
