"""Capped time-domain waterfilling for minimum-energy bit delivery.

Solves, on the shared grid,

    min sum_k w_k P_k   s.t.  sum_k w_k W log2(1 + P_k h_k) >= target,
                              0 <= P_k <= P_max,

where h_k = L / d^2(t_k) is the per-cell channel gain. The optimal profile is
P_k = clamp(lam/ln2 - 1/h_k, 0, P_max) with the water level lam set so the bit
constraint holds with equality. Delivered bits increase with lam, so lam is
bisected to a relative width of 1e-15; the level is then polished in closed
form on the bracketed zero/interior/saturated split, and the polish is kept
only if it leaves that split unchanged.
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


def solve_cells(weights, gains, bandwidth_hz, target_bits, p_max) -> CellSolution:
    """Waterfill on precomputed cell weights and gains."""
    weights = np.asarray(weights, dtype=float)
    gains = np.asarray(gains, dtype=float)
    n = weights.size
    if target_bits < 0:
        raise ValueError("bit target must be nonnegative")
    if p_max <= 0:
        raise ValueError("power cap must be positive")
    if target_bits == 0 or n == 0:
        if target_bits > 0:
            raise InfeasibleError("empty window cannot deliver bits", max_bits=0.0)
        zeros = np.zeros(n)
        empty = np.zeros(n, dtype=bool)
        return CellSolution(zeros, 0.0, empty, empty, 0.0, 0.0, 0, 0.0)

    best = max_deliverable_bits(weights, gains, bandwidth_hz, p_max)
    if target_bits > best * (1.0 + REL_BIT_TOL):
        raise InfeasibleError(
            f"bit target {target_bits:.6g} exceeds {best:.6g} deliverable at P_max",
            max_bits=best,
        )

    inv_gain = 1.0 / gains
    sat_rate = bandwidth_hz * np.log2(1.0 + p_max * gains)

    def bits_at(level):
        p = np.clip(level / LN2 - inv_gain, 0.0, p_max)
        return cell_bits(weights, gains, p, bandwidth_hz)

    # delivered bits are monotone in the water level: bisect, then polish the
    # level in closed form on the locked interior set for exact delivery
    lam_lo = 0.0
    lam_hi = LN2 * (p_max + float(np.max(inv_gain)))
    iterations = 0
    for _ in range(200):
        iterations += 1
        mid = 0.5 * (lam_lo + lam_hi)
        if bits_at(mid) >= target_bits:
            lam_hi = mid
        else:
            lam_lo = mid
        if lam_hi - lam_lo <= 1e-15 * lam_hi:
            break
    level = lam_hi
    raw = level / LN2 - inv_gain
    zero = raw <= 0.0
    sat = raw >= p_max
    interior = ~zero & ~sat
    if np.any(interior):
        rhs = target_bits - float(np.dot(weights[sat], sat_rate[sat]))
        w_int = float(np.sum(weights[interior]))
        if rhs > 0.0:
            ln_level = (
                rhs * LN2 / bandwidth_hz
                - float(np.dot(weights[interior], np.log(gains[interior] / LN2)))
            ) / w_int
            polished = math.exp(ln_level)
            # accept only if the polish stays within the bracketed set structure
            raw_p = polished / LN2 - inv_gain
            if np.array_equal(raw_p <= 0.0, zero) and np.array_equal(raw_p >= p_max, sat):
                level, raw = polished, raw_p
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
    return CellSolution(powers, level, zero, sat, delivered, energy, iterations, resid)
