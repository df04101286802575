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
cells concatenated, each channel one segment between two ``bounds``. Only
the steps whose floats depend on order run once per segment, each on its own
segment's numbers in the order a one-channel table sees them, so that every
segment's floats are the ones its channel gets alone:

- the running sum of the interior weights w_i, and one running sum, along
  the rows of one array, of the energies e_i and the bits b_i;
- the dot products of the full-power bits, of the bits at a solve's foot,
  of the delivered bits and of the energy;
- a solve's rise, one scalar through ``math.expm1``.

Every other step runs once over the group: one stable sort of the
(segment, height) pairs, which numpy compares lexicographically as complex
numbers, so each segment keeps the order its channel alone sorts to, ties
included; the marks, the gaps and the log1p of their ratios; the bits' scale
by W / ln 2; the bracket keys, built once per table for both ``energy`` and
``solve_group``; each call's binary search for the brackets, and a solve's
gathers of their feet and tops; the per-cell split and powers of a solve;
its KKT residuals, one ``maximum.reduceat`` (a max is exact); and the rises
of every price. A lone channel is a table of one segment with none of the
group's bookkeeping: no keys, and its one bracket read as scalars.

:meth:`BreakpointTable.energy` prices any number of targets, each on its own
segment, in O(log n) each: a binary search for the bracket, the rise with the
table's b_i as b_foot, and e_i + w_i dx, all over arrays, through numpy's
expm1. :meth:`BreakpointTable.solve_group` takes one target per segment,
finds the same brackets, sums b_foot on their splits and returns every
segment's powers (h_i - 1/h_k) + dx, clipped to [0, P_max], with the
under-delivery check, as columns. The downlink, the fixed-count solve and
the file allocator, which first prices every file a node can take with
``energy``, all solve on these tables, one per group of consecutive channels
(:func:`group_tables`). :func:`solve_cells`, a table of one segment and its
solve, is the one-channel form the tests and the benchmark's checks take as
a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, InternalError

LN2 = math.log(2.0)

# relative slack on bit-target feasibility and satisfaction checks
REL_BIT_TOL = 1e-9


def cell_bits(weights: np.ndarray, gains: np.ndarray, powers: np.ndarray, bandwidth_hz: float) -> float:
    return float(np.dot(weights, np.log1p(powers * gains))) * (bandwidth_hz / LN2)


@dataclass(frozen=True)
class CellSolution:
    """One channel's waterfill (:func:`solve_cells`): a solve's columns with
    its zero and saturated masks and its iteration count."""

    powers_w: np.ndarray
    water_level: float
    zero_mask: np.ndarray
    saturated_mask: np.ndarray
    delivered_bits: float
    energy_j: float
    iterations: int
    kkt_residual: float


class GroupSolution(NamedTuple):
    """A table's solutions as columns, one entry per segment: what an
    allocation result holds of each node."""

    powers_w: list
    water_levels: list
    delivered_bits: list
    energies_j: list
    kkt_residuals: list


def max_deliverable_bits(weights, gains, bandwidth_hz, p_max) -> float:
    """Bits delivered with every cell at P_max."""
    return cell_bits(weights, gains, np.full(len(weights), p_max), bandwidth_hz)


def _rise(target_bits, foot_bits, foot, top, top_bits, slope) -> float:
    """dx, the level's rise above the foot of a bracket [foot, top] that
    lifts ``foot_bits`` to ``target_bits``, clamped to the bracket, with
    ``slope`` = W w_i, the bandwidth times the bracket's interior weight. A
    target at or above ``top_bits``, the table's bits at the top, sits at the
    top, so the rise divides by a positive interior weight: the table's bits
    at the foot < target < ``top_bits``."""
    if target_bits >= top_bits:
        return top - foot
    rise = (target_bits - foot_bits) / slope
    # 2^rise - 1 through expm1 keeps its digits just above the foot
    return min(max(foot * math.expm1(rise * LN2), 0.0), top - foot)


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
    :meth:`solve_group` returns the powers; both find each bracket by binary
    search and the level as one rise above its foot (:func:`_rise`).
    """

    def __init__(self, weights, gains, bandwidth_hz, p_max, bounds=None):
        if not p_max > 0:
            raise ValueError("power cap must be positive")
        weights = np.asarray(weights, dtype=float)
        gains = np.asarray(gains, dtype=float)
        n = weights.size
        self.weights, self.gains, self.p_max = weights, gains, p_max
        # each segment's cells and W / ln 2, as Python numbers for the
        # per-segment steps
        edges = [0, n] if bounds is None else np.asarray(bounds).tolist()
        self._cells = cells = list(zip(edges[:-1], edges[1:]))
        self.bandwidth_hz = np.full(len(cells), bandwidth_hz, dtype=float)
        self._bandwidth = self.bandwidth_hz.tolist()
        self._scale = scale = [w / LN2 for w in self._bandwidth]
        lone = len(cells) == 1

        self._weights_of = weights_of = [weights[a:b] for a, b in cells]
        full_log = np.log1p(p_max * gains)
        full = [float(w.dot(full_log[a:b])) * s for w, (a, b), s in zip(weights_of, cells, scale)]
        del full_log
        self.full_bits = np.array(full)
        self._limits = [bits * (1.0 + REL_BIT_TOL) for bits in full]

        # cell k turns on at 1/h_k and saturates at p_max + 1/h_k; sorted,
        # these events give the interior weight on [heights[i], heights[i+1]].
        # A group sorts (segment, height) pairs, which numpy compares
        # lexicographically as complex numbers: one stable sort leaves each
        # segment in the order its channel alone sorts to, ties included.
        inv_gain = 1.0 / gains
        marks = np.concatenate((inv_gain, inv_gain + p_max))
        del inv_gain
        if lone:
            order = np.argsort(marks, kind="stable")
        else:
            sizes = np.diff(edges)
            # each cell's segment, which also spreads per-segment values
            self._segment = np.repeat(np.arange(len(cells)), sizes)
            keys = np.empty(2 * n, dtype=complex)
            keys.real[:n] = keys.real[n:] = self._segment
            keys.imag = marks
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
        self.heights = heights = marks[order]
        events = np.concatenate((weights, -weights), out=marks)[order]
        del marks, order
        for a, b in cells:
            cut = events[2 * a : 2 * b]
            np.add.accumulate(cut, out=cut)
        self.w_int = w_int = np.maximum(events, 0.0, out=events)

        # from each segment's lowest height on, the energy grows by w_int[i]
        # times each gap and the bits by W w_int[i] log2(heights[i+1] /
        # heights[i]): sums of terms >= 0, which never fall, as a binary
        # search needs. The two are the rows of one array, summed in one
        # call per segment, each from 0 at its lowest height whatever lies
        # below it. The gap up to a segment's first height is zeroed so that
        # the log1p never sees a ratio between two segments.
        sums = np.empty((2, heights.size))
        self.e_at, self.bits = e_at, bits = sums[0], sums[1]
        np.subtract(heights[1:], heights[:-1], out=e_at[1:])
        self._firsts = firsts = [a for a, b in cells if b > a]
        for a in firsts:
            e_at[2 * a] = 0.0
        np.log1p(np.divide(e_at[1:], heights[:-1], out=bits[1:]), out=bits[1:])
        np.multiply(sums[:, 1:], w_int[:-1], out=sums[:, 1:])
        for a, b in cells:
            cut = sums[:, 2 * a : 2 * b]
            cut[:, :1] = 0.0
            np.add.accumulate(cut, axis=1, out=cut)
        bits *= scale[0] if len(set(scale)) == 1 else np.repeat(scale, 2 * sizes)
        self._keys = None
        if not lone:
            # the bracket keys: (segment, bits) pairs, in the sorted order
            keys.imag = bits
            self._keys = keys
            self._tops = 2 * np.array(edges[1:]) - 1

    def _per_cell(self, values):
        """Each segment's value on each of its cells; a lone segment's value
        stays one number."""
        return values[0] if self._keys is None else np.array(values)[self._segment]

    def _refuse(self, target, n) -> None:
        """Raise, for a target that is negative or NaN or that segment n
        cannot deliver, what a solve raises, with the index n; pass any other."""
        if not target >= 0:
            raise ValueError("bit target must be nonnegative")
        a, b = self._cells[n]
        if target > 0 and b == a:
            raise InfeasibleError("empty window cannot deliver bits", max_bits=0.0, index=n)
        best = float(self.full_bits[n])
        if target > best * (1.0 + REL_BIT_TOL):
            raise InfeasibleError(
                f"bit target {target:.6g} exceeds {best:.6g} deliverable at P_max",
                max_bits=best,
                index=n,
            )

    def _bracket(self, targets, nodes=0):
        """The index i whose interval [heights[i], heights[i+1]] holds the
        level of each positive, deliverable target on its node's segment: the
        first height above the segment's lowest whose bits reach it, or the
        segment's top one."""
        if self._keys is None:
            return np.minimum(self.bits.searchsorted(targets), self.bits.size - 1) - 1
        # one binary search over every segment's (segment, bits) keys
        query = np.empty(np.shape(nodes), dtype=complex)
        query.real, query.imag = nodes, targets
        return np.minimum(self._keys.searchsorted(query), self._tops[nodes]) - 1

    def _read_brackets(self, targets, nodes):
        """Each target's bracket on its node's segment, read off the table as
        lists: the height and interior weight at the foot, then the height
        and bits at the top. A lone segment reads its one bracket as
        scalars."""
        if self._keys is None:
            i = min(int(self.bits.searchsorted(targets[0])), self.bits.size - 1) - 1
            return [float(self.heights[i])], [float(self.w_int[i])], [float(self.heights[i + 1])], [float(self.bits[i + 1])]
        i = self._bracket(targets, nodes)
        j = i + 1
        return self.heights[i].tolist(), self.w_int[i].tolist(), self.heights[j].tolist(), self.bits[j].tolist()

    def energy(self, target_bits, nodes=0):
        """Least energy delivering each of ``target_bits`` on its node's
        segment: a solve's energy to rounding, in O(log n) each, with the
        table's bits as the foot's. A zero target costs 0.0; a negative,
        empty or undeliverable one raises what a solve raises. A float for a
        scalar target, else an array.

        Every target takes the rise of :func:`_rise` at once, over arrays,
        through numpy's expm1, which can differ from ``math.expm1`` in the
        last place: a price may round apart from a solve's energy, never by
        more.
        """
        targets = np.asarray(target_bits, dtype=float)
        nodes = np.asarray(nodes)
        if nodes.shape != targets.shape:
            nodes = np.full(targets.shape, nodes)
        ok = (targets >= 0) & (targets <= self.full_bits[nodes] * (1.0 + REL_BIT_TOL))
        if not ok.all():
            k = int(np.argmin(ok))
            self._refuse(float(targets.flat[k]), int(nodes.flat[k]))
        live = None if targets.all() else targets > 0
        t, s = (targets, nodes) if live is None else (targets[live], nodes[live])
        i = self._bracket(t, s)
        j = i + 1
        foot, w_int = self.heights[i], self.w_int[i]
        span = self.heights[j] - foot
        inside = t < self.bits[j]
        rise = np.divide(t - self.bits[i], self.bandwidth_hz[s] * w_int, out=np.zeros(t.shape), where=inside)
        dx = np.where(inside, np.minimum(np.maximum(foot * np.expm1(rise * LN2), 0.0), span), span)
        prices = self.e_at[i] + w_int * dx
        if live is not None:
            priced, prices = prices, np.zeros(targets.shape)
            prices[live] = priced
        return float(prices) if prices.ndim == 0 else prices

    def solve_group(self, target_bits) -> GroupSolution:
        """Least-energy powers delivering ``target_bits`` (one per segment, or
        one for all) and every segment's totals, as columns (:meth:`_solve`)."""
        powers, _, _, levels, delivered, energies, residuals = self._solve(target_bits)
        return GroupSolution([powers[a:b] for a, b in self._cells], levels, delivered, energies, residuals)

    def _solve(self, target_bits):
        """Every segment's solution: the group's powers and zero and
        saturated masks over all its cells, then the water levels, delivered
        bits, energies and KKT residuals as lists, one entry per segment.
        Each takes its bracket's split, the bits at its foot summed on that
        split, and the rise of :func:`_rise` on every interior cell; a
        segment with a zero target sends nothing. The steps on cells run
        once over the group, and so do the brackets' gathers and the KKT
        residuals; each segment's dot products and rise are its own, as a
        lone channel's are."""
        gains, p_max, cells, scale, weights_of = self.gains, self.p_max, self._cells, self._scale, self._weights_of
        targets = np.full(len(cells), target_bits, dtype=float).tolist()
        for n, (t, limit) in enumerate(zip(targets, self._limits)):
            if not 0.0 <= t <= limit:
                self._refuse(t, n)
        live = [n for n, t in enumerate(targets) if t > 0]
        zeros = [0.0] * len(cells)
        if not live:
            off = np.zeros(gains.size, dtype=bool)
            return np.zeros(gains.size), off, off, zeros, zeros, zeros, zeros
        live_targets = [targets[n] for n in live]
        feet, w_ints, tops, top_bits = self._read_brackets(live_targets, live)
        if len(live) == len(cells):
            foot, top = feet, tops
        else:
            foot, top = zeros.copy(), zeros.copy()
            for n, f, t in zip(live, feet, tops):
                foot[n], top[n] = f, t

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
        dx = zeros.copy()
        for n, t, f, tp, tb, w in zip(live, live_targets, feet, tops, top_bits, w_ints):
            a, b = cells[n]
            dx[n] = _rise(t, float(weights_of[n].dot(log[a:b])) * scale[n], f, tp, tb, self._bandwidth[n] * w)
        np.minimum(np.add(raw, self._per_cell(dx), out=raw), p_max, out=powers, where=interior)
        log = np.log1p(powers * gains, out=log)

        # every nonempty segment's KKT residual, its largest deviation of an
        # interior power from the uncapped one, in one pass: a max is exact
        deviation = np.where(interior, np.abs(np.subtract(raw, powers, out=raw), out=raw), 0.0)
        residuals = np.maximum.reduceat(deviation, self._firsts).tolist()
        if len(residuals) < len(cells):
            peaks = iter(residuals)
            residuals = [next(peaks) if b > a else 0.0 for a, b in cells]
        levels, delivered, energies = zeros.copy(), zeros.copy(), zeros.copy()
        for n in live:
            a, b = cells[n]
            w = weights_of[n]
            delivered[n] = bits = float(w.dot(log[a:b])) * scale[n]
            if bits < targets[n] * (1.0 - 1e-9):
                raise InternalError("waterfilling under-delivered its bit target")
            energies[n] = float(w.dot(powers[a:b]))
            levels[n] = LN2 * (foot[n] + dx[n])
        return powers, zero, sat, levels, delivered, energies, residuals


def solve_cells(weights, gains, bandwidth_hz, target_bits, p_max) -> CellSolution:
    """Waterfill on one channel's cell weights and gains: a table of one
    segment and its solve, with the masks a grouped solve leaves out."""
    powers, zero, sat, *columns = BreakpointTable(weights, gains, bandwidth_hz, p_max)._solve(target_bits)
    (level,), (bits,), (energy,), (residual,) = columns
    return CellSolution(powers, level, zero, sat, bits, energy, int(target_bits > 0), residual)


# Cells per breakpoint table: nodes join a group in index order while it holds
# at most this many cells, and a longer channel is a group of its own, with
# one segment. A shared table saves per-node calls but sorts complex keys
# over more cells at once; against a table per node, one oa_solve took
# 0.23-0.24x the time on 39 ten-cell channels, 0.65-0.67x on four of 250
# cells, 0.85-0.90x on three of 1,024, 0.90-0.94x on two of 768, 0.99-1.04x
# on two of 1,536, 1.10-1.17x on four of 1,500 and 1.36-1.46x on two of
# 3,000 (three instances each, 2-vCPU x86-64, numpy 2.4), so a group breaks
# even near this budget.
GROUP_CELLS = 3072


def group_tables(channels, p_max):
    """Yield ``(first, stop, table)``: one breakpoint table over each group
    of consecutive ``channels``, ``first:stop``, each channel a segment.
    Channels join a group in index order while it holds at most
    :data:`GROUP_CELLS` cells, and a longer channel is a group of its own,
    whose arrays are used as they are. Each table is built only once the
    previous one is taken, so that a caller can solve and drop it first."""
    edges, cells = [0], 0
    for n, ch in enumerate(channels):
        if n > edges[-1] and cells + ch.n_cells > GROUP_CELLS:
            edges.append(n)
            cells = 0
        cells += ch.n_cells
    for first, stop in zip(edges, edges[1:] + [len(channels)] if channels else []):
        group = channels[first:stop]
        cat = (lambda arrays: arrays[0]) if len(group) == 1 else np.concatenate
        yield first, stop, BreakpointTable(
            cat([ch.weights_s for ch in group]),
            cat([ch.gains_per_w for ch in group]),
            [ch.bandwidth_hz for ch in group],
            p_max,
            np.cumsum([0] + [ch.n_cells for ch in group]),
        )
