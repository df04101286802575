"""RF link budget: aggregate gain and discretized per-node channels.

The aggregate gain constant folds antenna gains, path attenuation, carrier
wavelength, noise level and bandwidth into a single factor L so that the
instantaneous SNR is P * L / d(t)^2.

Time integrals run on a shared discrete grid: cells of ``grid_step_s`` with a
shorter final cell when the window length is not an exact multiple, evaluated
by the midpoint rule. Every optimizer in the package uses this same grid, so
bit constraints and energies are mutually consistent. A window's cells are
counted in one place, :func:`grid_cell_count`; a cell is computed by
:func:`build_channel` and, for the last cell of a cut, by
:meth:`georelay.horizon.StageRequest._cut` with the same expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .waterfill import cell_bits

LIGHT_SPEED_MPS = 299792458.0

# weights below this fraction of a step are round-off, not a real cell
_REL_CELL_EPS = 1e-9


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class LinkParams:
    """Constants of one RF link. Gains, attenuation and noise level in dB."""

    carrier_hz: float
    bandwidth_hz: float
    tx_gain_db: float
    rx_gain_db: float
    attenuation_db: float
    noise_level_db: float

    def __post_init__(self):
        if self.carrier_hz <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("carrier and bandwidth must be positive")


@dataclass(frozen=True)
class PowerProfile:
    """Transmit power per grid cell over a time window."""

    t_start_s: float
    t_end_s: float
    grid_step_s: float
    values_w: np.ndarray


def grid_cell_count(t_start: float, t_end: float, step: float) -> int:
    span = t_end - t_start
    if span <= 0:
        return 0
    n_full, rem = divmod(span, step)
    n = int(n_full)
    if rem > _REL_CELL_EPS * step:
        n += 1
    return max(n, 1)


def aggregate_gain(params: LinkParams) -> float:
    """Aggregate link gain L such that SNR = P * L / d^2 (dimension m^2)."""
    gt = db_to_linear(params.tx_gain_db)
    gr = db_to_linear(params.rx_gain_db)
    att = db_to_linear(-params.attenuation_db)
    n0 = db_to_linear(params.noise_level_db)
    c = LIGHT_SPEED_MPS
    return (gt * gr * c * c * att) / (
        (4.0 * math.pi * params.carrier_hz) ** 2 * n0 * params.bandwidth_hz
    )


@dataclass(frozen=True)
class NodeChannel:
    """One node's discretized channel over its transmission window.

    ``gains_per_w`` holds L / d^2(t_k) per cell, so SNR = P_k * gains_per_w[k],
    and :meth:`bits` integrates the Shannon rate W * log2(1 + SNR) over the cells,
    through ``log1p`` so that a small SNR keeps its digits.
    """

    t_start_s: float
    t_end_s: float
    grid_step_s: float
    weights_s: np.ndarray
    gains_per_w: np.ndarray
    bandwidth_hz: float

    @property
    def n_cells(self) -> int:
        return self.weights_s.size

    def bits(self, powers_w) -> float:
        return cell_bits(self.weights_s, self.gains_per_w, np.asarray(powers_w), self.bandwidth_hz)

    def energy(self, powers_w) -> float:
        return float(np.dot(self.weights_s, powers_w))

    def profile(self, powers_w: np.ndarray) -> PowerProfile:
        """The profile of powers solved on this channel, one per cell."""
        if powers_w.shape != (self.n_cells,):
            raise ValueError(f"expected {self.n_cells} grid values, got {powers_w.shape}")
        return PowerProfile(self.t_start_s, self.t_end_s, self.grid_step_s, powers_w)


def build_channel(params: LinkParams, distance_fn, window, grid_step_s: float) -> NodeChannel:
    """Discretize a link over ``window``; an empty/inverted window gives zero cells.

    ``distance_fn`` maps an array of cell midpoints (s) to slant distances (m).
    Every cell but the last is ``grid_step_s`` wide; the last takes the rest
    of the window.
    """
    t_start, t_end = window
    if t_end <= t_start:
        return NodeChannel(t_start, t_start, grid_step_s, np.zeros(0), np.zeros(0), params.bandwidth_hz)
    n = grid_cell_count(t_start, t_end, grid_step_s)
    weights = np.full(n, grid_step_s)
    weights[-1] = (t_end - t_start) - grid_step_s * (n - 1)
    mids = t_start + grid_step_s * np.arange(n) + weights / 2.0
    d = np.asarray(distance_fn(mids), dtype=float)
    gains = aggregate_gain(params) / (d * d)
    return NodeChannel(t_start, t_end, grid_step_s, weights, gains, params.bandwidth_hz)
