"""Capped time-domain waterfilling for minimum-energy bit delivery.

Solves, on the shared grid,

    min sum_k w_k P_k   s.t.  sum_k w_k W log2(1 + P_k h_k) >= target,
                              0 <= P_k <= P_max,

where h_k = L / d^2(t_k) is the per-cell channel gain. The optimal profile is
P_k = clamp(x - 1/h_k, 0, P_max) at the water height x = lam/ln2, with the
level lam set so the bit constraint holds with equality. Delivered bits rise
with x, and between the 2n breakpoints 1/h_k (cell k turns on) and
P_max + 1/h_k (cell k saturates) the zero/interior/saturated split is fixed.
On the interval [h_i, h_i+1] between two sorted breakpoints only the
interior cells move, with total weight w_i, so the bits rise as
W w_i log2(x / h_i) and the energy as w_i (x - h_i). One sweep over the
sorted breakpoints gives every w_i, and running sums of those two rises give
the bits b_i and the energy e_i at every breakpoint, and so the interval
that brackets the target. On that interval's split the level has a closed
form (Palomar & Fonollosa, IEEE TSP 2005), with no tolerance loop: a rise
above the bracket's foot h_i,

    x = h_i + dx,  dx = h_i (2^r - 1),  r = (b - b_foot) / (W w_i),

with b_foot the bits at the foot. dx is taken through expm1, which keeps its
digits just above the foot, and is clamped to the bracket, [0, h_i+1 - h_i].

The sort and the sweep depend on the channel and the power cap only, so they
form a :class:`BreakpointTable`, built once for a group of channels: their
cells concatenated, each channel one segment between two ``bounds``. The
elementwise steps run once over all of the group's cells: the marks, the
gaps and the log1p of their ratios, the per-cell split and powers of a
solve, and the brackets and rises of every price. The steps whose floats
depend on order run per segment: the stable sort (one stable sort by height,
then a stable one by segment, which leaves each segment in the order its
channel alone sorts to, ties included), the running sums that give w_i, e_i
and b_i, and the dot products of the full-power bits, the bits at the foot,
the delivered bits and the energy. So does a solve's rise, one scalar per
segment through ``math.expm1``. Each of these sees the numbers, in the
order, that a one-channel table sees, so every segment's floats are the
ones its channel gets alone. A lone channel is a table of one segment, whose
per-segment values stay Python numbers.

:meth:`BreakpointTable.energy` prices any number of targets, each on its own
segment, in O(log n) each: a binary search for the bracket, the rise with the
table's b_i as b_foot, and e_i + w_i dx, all over arrays, through numpy's
expm1. :meth:`BreakpointTable.solve` takes one target per segment, finds the
same brackets, sums b_foot on their splits and returns every segment's
powers (h_i - 1/h_k) + dx, clipped to [0, P_max], with the under-delivery
check. The file allocator prices every file a node can take with ``energy``
and solves each group once, at the final counts; :func:`solve_cells` is the
one-channel form, a table of one segment and its solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InternalError

LN2 = math.log(2.0)

# relative slack on bit-target feasibility and satisfaction checks
REL_BIT_TOL = 1e-9


def cell_bits(weights: np.ndarray, gains: np.ndarray, powers: np.ndarray, bandwidth_hz: float) -> float:
    return float(np.dot(weights, np.log1p(powers * gains))) * (bandwidth_hz / LN2)


@dataclass(frozen=True)
class CellSolution:
    """One node's powers on bare grid cells: a waterfilling solution, or the
    constant-power baseline's, which has no water level or KKT residual (NaN)."""

    powers_w: np.ndarray
    water_level: float
    zero_mask: np.ndarray
    saturated_mask: np.ndarray
    delivered_bits: float
    energy_j: float
    iterations: int
    kkt_residual: float


def max_deliverable_bits(weights, gains, bandwidth_hz, p_max) -> float:
    """Bits delivered with every cell at P_max."""
    return cell_bits(weights, gains, np.full(len(weights), p_max), bandwidth_hz)


class BreakpointTable:
    """The waterfill breakpoints of a group of channels, built once and priced
    per target.

    ``weights`` and ``gains`` hold the group's cells, channel s at
    ``bounds[s]:bounds[s + 1]`` (one channel when ``bounds`` is omitted),
    each with its ``bandwidth_hz`` (one for all, or one per channel). The
    table holds each channel's bits at full power and, at ``2 bounds[s]``
    to ``2 bounds[s + 1]``, its stable-sorted breakpoint heights with, at
    each of them, the bits delivered, the energy spent and the interior
    weight up to the next one. :meth:`energy` prices targets in O(log n) and
    :meth:`solve` returns the powers; both find each bracket by binary
    search and the level as one rise above its foot, in :meth:`_rise`.
    """

    def __init__(self, weights, gains, bandwidth_hz, p_max, bounds=None):
        if p_max <= 0:
            raise ValueError("power cap must be positive")
        weights = np.asarray(weights, dtype=float)
        gains = np.asarray(gains, dtype=float)
        self.bounds = bounds = np.asarray((0, weights.size) if bounds is None else bounds)
        self.sizes = sizes = bounds[1:] - bounds[:-1]
        self.weights, self.gains, self.p_max = weights, gains, p_max
        self.bandwidth_hz = np.full(sizes.shape, bandwidth_hz, dtype=float)
        # each segment's cells and W / ln 2, as Python numbers for the
        # per-segment steps
        self._cells = cells = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        self._scale = scale = (self.bandwidth_hz / LN2).tolist()
        marks_of = [slice(2 * a, 2 * b) for a, b in cells]

        full_log = np.log1p(p_max * gains)
        self.full_bits = np.array([float(np.dot(weights[a:b], full_log[a:b])) for a, b in cells]) * scale
        del full_log

        # cell k turns on at 1/h_k and saturates at p_max + 1/h_k; sorted,
        # these events give the interior weight on [heights[i], heights[i+1]]
        inv_gain = 1.0 / gains
        marks = np.concatenate((inv_gain, inv_gain + p_max))
        del inv_gain
        order = np.argsort(marks, kind="stable")
        if sizes.size > 1:
            seg = np.repeat(np.arange(sizes.size, dtype=np.min_scalar_type(sizes.size)), sizes)
            order = order[np.argsort(np.concatenate((seg, seg))[order], kind="stable")]
            del seg
        self.heights = heights = marks[order]
        events = np.concatenate((weights, -weights), out=marks)[order]
        del order
        for cut in marks_of:
            np.add.accumulate(events[cut], out=events[cut])
        self.w_int = w_int = np.maximum(events, 0.0, out=events)

        # from each segment's lowest height on, the energy grows by w_int[i]
        # times each gap and the bits by W w_int[i] log2(heights[i+1] /
        # heights[i]): sums of terms >= 0, which never fall, as a binary
        # search needs. A segment starts at 0 whatever lies below it, and the
        # gap up to its first height is zeroed so that the log1p never sees a
        # ratio between two segments. The marks' storage holds the energies.
        starts = [2 * a for a, b in cells if b > a]
        self.e_at = e_at = marks
        self.bits = bits = np.empty(heights.size)
        gap = np.subtract(heights[1:], heights[:-1], out=e_at[1:])
        e_at[starts] = 0.0
        np.log1p(np.divide(gap, heights[:-1], out=bits[1:]), out=bits[1:])
        bits[1:] *= w_int[:-1]
        gap *= w_int[:-1]
        e_at[starts] = bits[starts] = 0.0
        for cut, w_over_ln2 in zip(marks_of, scale):
            np.add.accumulate(e_at[cut], out=e_at[cut])
            np.add.accumulate(bits[cut], out=bits[cut])
            bits[cut] *= w_over_ln2

    def _per_cell(self, values):
        """Each segment's value on each of its cells; a lone segment's value
        stays one number."""
        return values[0] if len(self._cells) == 1 else np.repeat(values, self.sizes)

    def _refuse(self, target, n) -> None:
        """Raise, for a target that is negative or that segment n cannot
        deliver, what a solve raises; pass any other."""
        if target < 0:
            raise ValueError("bit target must be nonnegative")
        if target > 0 and self.sizes[n] == 0:
            raise InfeasibleError("empty window cannot deliver bits", max_bits=0.0)
        best = float(self.full_bits[n])
        if target > best * (1.0 + REL_BIT_TOL):
            raise InfeasibleError(
                f"bit target {target:.6g} exceeds {best:.6g} deliverable at P_max",
                max_bits=best,
            )

    def _bracket(self, targets, nodes=0):
        """The index i whose interval [heights[i], heights[i+1]] holds the
        level of each positive, deliverable target on its node's segment: the
        first height above the segment's lowest whose bits reach it, or the
        segment's top one."""
        if len(self._cells) == 1:
            return np.minimum(self.bits.searchsorted(targets), self.bits.size - 1) - 1
        # one binary search over every segment: (segment, bits) pairs,
        # compared lexicographically, as numpy orders complex numbers
        nodes = np.asarray(nodes, dtype=np.intp)
        keys = np.empty(self.bits.size, dtype=complex)
        keys.real = np.repeat(np.arange(self.sizes.size), 2 * self.sizes)
        keys.imag = self.bits
        query = np.empty(nodes.shape, dtype=complex)
        query.real, query.imag = nodes, targets
        return np.minimum(keys.searchsorted(query), 2 * self.bounds[1:][nodes] - 1) - 1

    def _rise(self, i, target_bits, foot_bits, n) -> float:
        """dx, the level's rise above the foot of bracket i of segment n that
        lifts ``foot_bits`` to ``target_bits``, clamped to the bracket. A
        target at or above the bits at its top sits at the top, so the rise
        divides by a positive interior weight: bits[i] < target < bits[i + 1]."""
        foot, top = float(self.heights[i]), float(self.heights[i + 1])
        if target_bits >= self.bits[i + 1]:
            return top - foot
        rise = (target_bits - foot_bits) / (self.bandwidth_hz[n] * self.w_int[i])
        # 2^rise - 1 through expm1 keeps its digits just above the foot
        return min(max(foot * math.expm1(rise * LN2), 0.0), top - foot)

    def energy(self, target_bits, nodes=0):
        """Least energy delivering each of ``target_bits`` on its node's
        segment: ``solve``'s energy to rounding, in O(log n) each, with the
        table's bits as the foot's. A zero target costs 0.0; a negative,
        empty or undeliverable one raises what :meth:`solve` raises. A float
        for a scalar target, else an array.

        Every target takes :meth:`_rise` at once, over arrays, through
        numpy's expm1, which can differ from ``math.expm1`` in the last
        place: a price may round apart from ``solve``'s energy, never by more.
        """
        targets = np.asarray(target_bits, dtype=float)
        nodes = np.asarray(nodes)
        if nodes.shape != targets.shape:
            nodes = np.full(targets.shape, nodes)
        ok = (targets >= 0) & (targets <= self.full_bits[nodes] * (1.0 + REL_BIT_TOL))
        if not ok.all():
            k = int(np.argmin(ok))
            self._refuse(float(targets.flat[k]), int(nodes.flat[k]))
        live = targets > 0
        t, s = targets[live], nodes[live]
        i = self._bracket(t, s)
        j = i + 1
        foot, w_int = self.heights[i], self.w_int[i]
        span = self.heights[j] - foot
        inside = t < self.bits[j]
        rise = np.divide(t - self.bits[i], self.bandwidth_hz[s] * w_int, out=np.zeros(t.shape), where=inside)
        dx = np.where(inside, np.minimum(np.maximum(foot * np.expm1(rise * LN2), 0.0), span), span)
        prices = np.zeros(targets.shape)
        prices[live] = self.e_at[i] + w_int * dx
        return float(prices) if prices.ndim == 0 else prices

    def solve(self, target_bits) -> list[CellSolution]:
        """Least-energy powers delivering ``target_bits`` (one per segment, or
        one for all) on every segment: the bracket's split, the bits at its
        foot summed on that split, and the rise of :meth:`_rise` on every
        interior cell. A segment with a zero target sends nothing. The steps
        on cells run once over the group; each segment's bracket, rise and
        sums are its own, as a lone channel's are."""
        weights, gains, p_max, heights = self.weights, self.gains, self.p_max, self.heights
        cells, scale, full = self._cells, self._scale, self.full_bits.tolist()
        targets = np.full(len(cells), target_bits, dtype=float).tolist()
        for n, t in enumerate(targets):
            if not 0.0 <= t <= full[n] * (1.0 + REL_BIT_TOL):
                self._refuse(t, n)
        live = [n for n, t in enumerate(targets) if t > 0]
        if not live:
            zeros, off = np.zeros(weights.size), np.zeros(weights.size, dtype=bool)
            return [CellSolution(zeros[a:b], 0.0, off[a:b], off[a:b], 0.0, 0.0, 0, 0.0) for a, b in cells]
        brackets = self._bracket([targets[n] for n in live], live).tolist()
        foot, top = [0.0] * len(cells), [0.0] * len(cells)
        for n, i in zip(live, brackets):
            foot[n], top[n] = float(heights[i]), float(heights[i + 1])

        # the split on the open interval above each bracket's foot: no mark
        # lies inside it, so a cell turning on at the foot is interior, at
        # power 0 there. A segment with a zero target has its top at 0, so
        # none of its cells is saturated or interior, and none is reported off.
        inv_gain = 1.0 / gains
        top = self._per_cell(top)
        zero = inv_gain >= top
        sat = inv_gain + p_max < top
        interior = ~zero & ~sat
        if len(live) < len(cells):
            zero &= top > 0.0
        del top
        # an interior power is raw = x - 1/h_k, summed as (foot - 1/h_k) + dx:
        # a cell turning on at the foot gets dx itself, with all its digits
        raw = self._per_cell(foot) - inv_gain
        del inv_gain
        powers = np.where(sat, p_max, 0.0)
        np.minimum(raw, p_max, out=powers, where=interior)
        log = np.log1p(powers * gains)
        dx = [0.0] * len(cells)
        for n, i in zip(live, brackets):
            a, b = cells[n]
            dx[n] = self._rise(i, targets[n], float(np.dot(weights[a:b], log[a:b])) * scale[n], n)
        np.minimum(np.add(raw, self._per_cell(dx), out=raw), p_max, out=powers, where=interior)

        log = np.log1p(powers * gains, out=log)
        deviation = np.abs(raw - powers)
        sols = []
        for n, (a, b) in enumerate(cells):
            if targets[n] == 0:
                sols.append(CellSolution(powers[a:b], 0.0, zero[a:b], sat[a:b], 0.0, 0.0, 0, 0.0))
                continue
            delivered = float(np.dot(weights[a:b], log[a:b])) * scale[n]
            if delivered < targets[n] * (1.0 - 1e-9):
                raise InternalError("waterfilling under-delivered its bit target")
            energy = float(np.dot(weights[a:b], powers[a:b]))
            resid = float(np.max(deviation[a:b], where=interior[a:b], initial=0.0))
            level = LN2 * (foot[n] + dx[n])
            sols.append(CellSolution(powers[a:b], level, zero[a:b], sat[a:b], delivered, energy, 1, resid))
        return sols


def solve_cells(weights, gains, bandwidth_hz, target_bits, p_max) -> CellSolution:
    """Waterfill on precomputed cell weights and gains: a table of one
    channel and its solve."""
    return BreakpointTable(weights, gains, bandwidth_hz, p_max).solve(target_bits)[0]
