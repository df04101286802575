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
form one :class:`BreakpointTable` per channel.
:meth:`BreakpointTable.energy` prices a target b on it in O(log n): a binary
search for the bracket, the rise with the table's b_i as b_foot, and
e_i + w_i dx. :meth:`BreakpointTable.solve` finds the same bracket, sums
b_foot on its split and returns the powers (h_i - 1/h_k) + dx, clipped to
[0, P_max], with the under-delivery check. The file allocator prices every
next file of a node with ``energy`` and solves each node once, at its final
count; :func:`solve_cells` is the one-shot form, a table and one solve, with
the same floats.
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
    """One channel's waterfill breakpoints, built once and priced per target.

    Holds the bits at full power and the stable-sorted breakpoint heights
    with, at each of them, the bits delivered, the energy spent and the
    interior weight up to the next one. :meth:`energy` prices a target in
    O(log n) and :meth:`solve` returns its powers; both find the bracket by
    binary search and the level as one rise above its foot, in
    :meth:`_rise`. :func:`solve_cells` is a table and one solve.
    """

    def __init__(self, weights, gains, bandwidth_hz, p_max):
        if p_max <= 0:
            raise ValueError("power cap must be positive")
        weights = np.asarray(weights, dtype=float)
        gains = np.asarray(gains, dtype=float)
        n = weights.size
        self.weights, self.gains, self.bandwidth_hz, self.p_max = weights, gains, bandwidth_hz, p_max
        self.full_bits = max_deliverable_bits(weights, gains, bandwidth_hz, p_max)

        # cell k turns on at 1/h_k and saturates at p_max + 1/h_k; sorted,
        # these events give the interior weight on [heights[i], heights[i+1]]
        inv_gain = 1.0 / gains
        marks = np.concatenate((inv_gain, inv_gain + p_max))
        order = np.argsort(marks, kind="stable")
        self.heights = heights = marks[order]
        events = np.concatenate((weights, -weights), out=marks)[order]
        self.w_int = w_int = np.maximum(np.cumsum(events, out=events), 0.0, out=events)
        # the sort is done with: free it before the last 2n-array, and reuse
        # the marks' storage for the energies
        del order

        # from the lowest height on, the energy grows by w_int[i] times each
        # gap and the bits by W w_int[i] log2(heights[i+1] / heights[i]):
        # sums of terms >= 0, which never fall, as a binary search needs
        self.e_at = e_at = marks
        self.bits = bits = np.empty(2 * n)
        e_at[:1] = bits[:1] = 0.0
        gap = np.subtract(heights[1:], heights[:-1], out=e_at[1:])
        np.log1p(np.divide(gap, heights[:-1], out=bits[1:]), out=bits[1:])
        bits[1:] *= w_int[:-1]
        gap *= w_int[:-1]
        np.cumsum(e_at, out=e_at)
        np.cumsum(bits, out=bits)
        bits *= bandwidth_hz / LN2

    def _bracket(self, target_bits) -> int:
        """The i whose interval [heights[i], heights[i+1]] holds the level of
        a positive, deliverable target: the first height above the lowest
        whose bits reach it, or the top one."""
        return min(int(self.bits.searchsorted(target_bits)), self.bits.size - 1) - 1

    def _rise(self, i, target_bits, foot_bits) -> float:
        """dx, the level's rise above the foot of bracket i that lifts
        ``foot_bits`` to ``target_bits``, clamped to the bracket. A target at
        or above the bits at its top sits at the top, so the rise divides by
        a positive interior weight: bits[i] < target < bits[i + 1]."""
        foot, top = float(self.heights[i]), float(self.heights[i + 1])
        if target_bits >= self.bits[i + 1]:
            return top - foot
        rise = (target_bits - foot_bits) / (self.bandwidth_hz * self.w_int[i])
        # 2^rise - 1 through expm1 keeps its digits just above the foot
        return min(max(foot * math.expm1(rise * LN2), 0.0), top - foot)

    def energy(self, target_bits) -> float:
        """Least energy delivering ``target_bits``: ``solve(target_bits).energy_j``
        to rounding, in O(log n), with the table's bits as the foot's. A zero,
        empty or undeliverable target goes to :meth:`solve`, which raises
        what it raises."""
        if not 0.0 < target_bits <= self.full_bits * (1.0 + REL_BIT_TOL):
            return self.solve(target_bits).energy_j
        i = self._bracket(target_bits)
        return float(self.e_at[i] + self.w_int[i] * self._rise(i, target_bits, self.bits[i]))

    def solve(self, target_bits) -> CellSolution:
        """Least-energy powers delivering ``target_bits`` on this channel: the
        bracket's split, the bits at its foot summed on that split, and the
        rise of :meth:`_rise` on every interior cell."""
        weights, gains, bandwidth_hz, p_max = self.weights, self.gains, self.bandwidth_hz, self.p_max
        n = weights.size
        if target_bits < 0:
            raise ValueError("bit target must be nonnegative")
        if target_bits == 0 or n == 0:
            if target_bits > 0:
                raise InfeasibleError("empty window cannot deliver bits", max_bits=0.0)
            zeros = np.zeros(n)
            empty = np.zeros(n, dtype=bool)
            return CellSolution(zeros, 0.0, empty, empty, 0.0, 0.0, 0, 0.0)

        best = self.full_bits
        if target_bits > best * (1.0 + REL_BIT_TOL):
            raise InfeasibleError(
                f"bit target {target_bits:.6g} exceeds {best:.6g} deliverable at P_max",
                max_bits=best,
            )

        # the split on the open interval above the bracket's foot: no mark
        # lies inside it, so a cell turning on at the foot is interior, at
        # power 0 there
        i = self._bracket(target_bits)
        inv_gain, foot, top = 1.0 / gains, float(self.heights[i]), float(self.heights[i + 1])
        zero = inv_gain >= top
        sat = inv_gain + p_max < top
        interior = ~zero & ~sat
        # an interior power is raw = x - 1/h_k, summed as (foot - 1/h_k) + dx:
        # a cell turning on at the foot gets dx itself, with all its digits
        raw = foot - inv_gain
        powers = np.where(sat, p_max, 0.0)
        np.minimum(raw, p_max, out=powers, where=interior)
        dx = self._rise(i, target_bits, cell_bits(weights, gains, powers, bandwidth_hz))
        np.minimum(np.add(raw, dx, out=raw), p_max, out=powers, where=interior)
        level = LN2 * (foot + dx)

        delivered = cell_bits(weights, gains, powers, bandwidth_hz)
        if delivered < target_bits * (1.0 - 1e-9):
            raise InternalError("waterfilling under-delivered its bit target")
        energy = float(np.dot(weights, powers))
        resid = float(np.max(np.abs(raw - powers), where=interior, initial=0.0))
        return CellSolution(powers, level, zero, sat, delivered, energy, 1, resid)


def solve_cells(weights, gains, bandwidth_hz, target_bits, p_max) -> CellSolution:
    """Waterfill on precomputed cell weights and gains: one table, one solve."""
    return BreakpointTable(weights, gains, bandwidth_hz, p_max).solve(target_bits)
