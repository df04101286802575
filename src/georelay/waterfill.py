"""Capped time-domain waterfilling for minimum-energy bit delivery.

Solves, on the shared grid,

    min sum_k w_k P_k   s.t.  sum_k w_k W log2(1 + P_k h_k) >= target,
                              0 <= P_k <= P_max,

where h_k = L / d^2(t_k) is the per-cell channel gain. The optimal profile is
P_k = clamp(x - 1/h_k, 0, P_max) at the water height x = lam/ln2, with the
level lam set so the bit constraint holds with equality. Delivered bits rise
with x, and between the 2n breakpoints 1/h_k (cell k turns on) and
P_max + 1/h_k (cell k saturates) the zero/interior/saturated split is fixed.
One sweep over the sorted breakpoints, with prefix sums of w_k, w_k log2 h_k
and the saturated cells' bits, gives the bits at every breakpoint and so the
interval that brackets the target. On that interval's split the level has a
closed form,

    ln lam = (b ln2 / W - sum_int w_k ln(h_k / ln2)) / sum_int w_k,

with b the target less the saturated cells' bits; it is exact, with no
tolerance loop (Palomar & Fonollosa, IEEE TSP 2005). When rounding puts the
closed form outside its bracket, the level is the nearer bracket end.

The sort and the sweep depend on the channel and the power cap only, so they
form one :class:`BreakpointTable` per channel; each target is then priced on
it by :meth:`BreakpointTable.solve` (bracket, split, closed form, clamp and
the under-delivery check). The file allocator prices every next file of a
node on one table; :func:`solve_cells` is the one-shot form, a table and one
solve, with the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InternalError

LN2 = math.log(2.0)

# relative slack on bit-target feasibility and satisfaction checks
REL_BIT_TOL = 1e-9


def power_at_level(gains: np.ndarray, level: float, p_max: float) -> np.ndarray:
    """Clamped waterfilling power for a given water level."""
    return np.clip(level / LN2 - 1.0 / gains, 0.0, p_max)


def cell_bits(weights: np.ndarray, gains: np.ndarray, powers: np.ndarray, bandwidth_hz: float) -> float:
    return float(np.dot(weights, bandwidth_hz * np.log2(1.0 + powers * gains)))


@dataclass(frozen=True)
class CellSolution:
    """Waterfilling solution on bare grid cells."""

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
    if len(weights) == 0:
        return 0.0
    return cell_bits(weights, gains, np.full(len(weights), p_max), bandwidth_hz)


class BreakpointTable:
    """One channel's waterfill breakpoints, built once and priced per target.

    Holds 1/h_k, the saturated rates, the stable-sorted breakpoint heights
    and the bits delivered at each of them, and the bits at full power;
    :meth:`solve` finds the bracket of one target and its level in closed
    form. :func:`solve_cells` is a table and one solve.
    """

    def __init__(self, weights, gains, bandwidth_hz, p_max):
        if p_max <= 0:
            raise ValueError("power cap must be positive")
        weights = np.asarray(weights, dtype=float)
        gains = np.asarray(gains, dtype=float)
        n = weights.size
        self.weights, self.gains, self.bandwidth_hz, self.p_max = weights, gains, bandwidth_hz, p_max
        self.inv_gain = inv_gain = 1.0 / gains
        self.sat_rate = sat_rate = bandwidth_hz * np.log2(1.0 + p_max * gains)
        self.full_bits = float(np.dot(weights, sat_rate))

        # bits at every breakpoint height (cell k turns on at 1/h_k and
        # saturates at p_max + 1/h_k), from prefix sums over the sorted events;
        # one 2n-array at a time keeps the temporaries small
        self.marks = marks = np.concatenate((inv_gain, inv_gain + p_max))
        order = np.argsort(marks, kind="stable")
        self.heights = heights = marks[order]

        def prefix(at_on, at_sat):
            events = np.concatenate((at_on, at_sat))[order]
            return np.cumsum(events, out=events)

        log_w = weights * np.log2(gains)
        bits = prefix(weights, -weights)
        bits *= np.log2(heights)
        bits += prefix(log_w, -log_w)
        bits += prefix(np.zeros(n), weights * sat_rate / bandwidth_hz)
        bits *= bandwidth_hz
        self.bits = bits

    def solve(self, target_bits) -> CellSolution:
        """Least-energy powers delivering ``target_bits`` on this channel."""
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

        inv_gain, sat_rate, heights = self.inv_gain, self.sat_rate, self.heights
        # the first height (the lowest turn-on) delivers nothing
        reached = self.bits[1:] >= target_bits
        top = 1 + int(np.argmax(reached)) if reached.any() else 2 * n - 1
        h_lo, h_hi = heights[top - 1], heights[top]

        # the split on the open interval just below h_hi, then the level in
        # closed form on it
        zero = inv_gain >= h_hi
        sat = self.marks[n:] < h_hi
        interior = ~zero & ~sat
        level = None
        rhs = target_bits - float(np.dot(weights[sat], sat_rate[sat]))
        if np.any(interior) and rhs > 0.0:
            w_int = float(np.sum(weights[interior]))
            ln_level = (
                rhs * LN2 / bandwidth_hz
                - float(np.dot(weights[interior], np.log(gains[interior] / LN2)))
            ) / w_int
            level = math.exp(ln_level)
            raw = level / LN2 - inv_gain
        if level is None or not (np.array_equal(raw <= 0.0, zero) and np.array_equal(raw >= p_max, sat)):
            # rounding put the closed form outside its bracket: the level sits
            # at the bracket end nearer to it. Without a closed form the
            # saturated cells alone meet the target, from the lower end on.
            near_lo = level is None or abs(level / LN2 - h_lo) < abs(level / LN2 - h_hi)
            level = LN2 * (h_lo if near_lo else h_hi)
            raw = level / LN2 - inv_gain
        powers = np.clip(raw, 0.0, p_max)
        powers[zero] = 0.0
        powers[sat] = p_max

        delivered = cell_bits(weights, gains, powers, bandwidth_hz)
        if delivered < target_bits * (1.0 - 1e-9):
            raise InternalError("waterfilling under-delivered its bit target")
        energy = float(np.dot(weights, powers))
        if np.any(interior):
            resid = float(np.max(np.abs(level / LN2 - inv_gain[interior] - powers[interior])))
        else:
            resid = 0.0
        return CellSolution(powers, level, zero, sat, delivered, energy, 1, resid)


def solve_cells(weights, gains, bandwidth_hz, target_bits, p_max) -> CellSolution:
    """Waterfill on precomputed cell weights and gains: one table, one solve."""
    return BreakpointTable(weights, gains, bandwidth_hz, p_max).solve(target_bits)
