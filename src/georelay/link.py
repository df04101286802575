"""RF link budget: aggregate gain and discretized per-node channels.

The aggregate gain constant folds antenna gains, path attenuation, carrier
wavelength, noise level and bandwidth into a single factor L so that the
instantaneous SNR is P * L / d(t)^2.

Time integrals run on a shared discrete grid: cells of ``grid_step_s`` with a
shorter final cell when the window length is not an exact multiple, evaluated
by the midpoint rule. Every optimizer in the package uses this same grid, so
bit constraints and energies are mutually consistent.
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

    def __post_init__(self):
        if self.t_end_s < self.t_start_s:
            raise ValueError("window must have nonnegative length")
        if self.grid_step_s <= 0:
            raise ValueError("grid step must be positive")
        values = np.asarray(self.values_w, dtype=float)
        object.__setattr__(self, "values_w", values)
        n = grid_cell_count(self.t_start_s, self.t_end_s, self.grid_step_s)
        if values.shape != (n,):
            raise ValueError(f"expected {n} grid values, got {values.shape}")

    @property
    def weights_s(self) -> np.ndarray:
        return grid_weights(self.t_start_s, self.t_end_s, self.grid_step_s)

    @property
    def energy_j(self) -> float:
        return float(np.dot(self.weights_s, self.values_w))


def grid_cell_count(t_start: float, t_end: float, step: float) -> int:
    span = t_end - t_start
    if span <= 0:
        return 0
    n_full, rem = divmod(span, step)
    n = int(n_full)
    if rem > _REL_CELL_EPS * step:
        n += 1
    return max(n, 1)


def grid_weights(t_start: float, t_end: float, step: float) -> np.ndarray:
    n = grid_cell_count(t_start, t_end, step)
    if n == 0:
        return np.zeros(0)
    w = np.full(n, step)
    w[-1] = (t_end - t_start) - step * (n - 1)
    return w


def grid_midpoints(t_start: float, t_end: float, step: float) -> np.ndarray:
    n = grid_cell_count(t_start, t_end, step)
    if n == 0:
        return np.zeros(0)
    starts = t_start + step * np.arange(n)
    return starts + grid_weights(t_start, t_end, step) / 2.0


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
        if self.n_cells == 0:
            return 0.0
        return cell_bits(self.weights_s, self.gains_per_w, np.asarray(powers_w), self.bandwidth_hz)

    def energy(self, powers_w) -> float:
        if self.n_cells == 0:
            return 0.0
        return float(np.dot(self.weights_s, powers_w))

    def profile(self, powers_w) -> PowerProfile:
        return PowerProfile(self.t_start_s, self.t_end_s, self.grid_step_s, powers_w)


def build_channel(params: LinkParams, distance_fn, window, grid_step_s: float) -> NodeChannel:
    """Discretize a link over ``window``; an empty/inverted window gives zero cells.

    ``distance_fn`` maps an array of cell midpoints (s) to slant distances (m).
    """
    t_start, t_end = window
    if t_end <= t_start:
        return NodeChannel(t_start, t_start, grid_step_s, np.zeros(0), np.zeros(0), params.bandwidth_hz)
    weights = grid_weights(t_start, t_end, grid_step_s)
    mids = grid_midpoints(t_start, t_end, grid_step_s)
    d = np.asarray(distance_fn(mids), dtype=float)
    gains = aggregate_gain(params) / (d * d)
    return NodeChannel(t_start, t_end, grid_step_s, weights, gains, params.bandwidth_hz)
