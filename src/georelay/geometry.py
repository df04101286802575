"""Coplanar orbital kinematics for a two-GEO / N-LEO relay constellation.

All satellites are modeled in one orbital plane using polar coordinates
centered on the Earth. GEO 1 sits at angle 0, GEO 2 at angle pi, and LEO n
rotates with constant angular rate v_n / R_n. A LEO becomes usable when its
rotation angle reaches the configured entry boundary angle; phase offsets
stagger the entry times.

Angles are radians, lengths meters, times seconds. LEO indices are 0-based.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

MU_EARTH_M3PS2 = 3.986004418e14


class Geos(enum.Enum):
    """Which GEO terminal a link is pointed at."""

    GEOS1 = 1
    GEOS2 = 2


@dataclass(frozen=True)
class ConstellationScenario:
    """Orbital constants for the constellation.

    ``entry_boundary_angle_rad`` is the rotation angle at which a LEO enters
    the serving GEO's coverage; the LEO whose phase offset is zero reaches it
    at t = 0. The GEO a link points at is the stage's choice
    (:func:`geos_distance`).
    """

    earth_radius_m: float
    geos_altitude_m: float
    leos_altitude_m: tuple[float, ...]
    leos_velocity_mps: tuple[float, ...]
    leos_phase_offset_rad: tuple[float, ...]
    entry_boundary_angle_rad: float
    geos_radius_m: float = field(init=False)
    leos_radius_m: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.leos_altitude_m)
        if n == 0:
            raise ValueError("at least one LEO required")
        if len(self.leos_velocity_mps) != n or len(self.leos_phase_offset_rad) != n:
            raise ValueError("per-LEO field lengths disagree")
        if self.earth_radius_m <= 0 or self.geos_altitude_m <= 0:
            raise ValueError("lengths must be positive")
        if any(h <= 0 for h in self.leos_altitude_m):
            raise ValueError("LEO altitudes must be positive")
        if any(h >= self.geos_altitude_m for h in self.leos_altitude_m):
            raise ValueError("LEO altitudes must lie below the GEO altitude")
        if any(v <= 0 for v in self.leos_velocity_mps):
            raise ValueError("velocities must be positive")
        if sum(1 for p in self.leos_phase_offset_rad if p == 0.0) != 1:
            raise ValueError("exactly one LEO must have zero phase offset")
        object.__setattr__(self, "geos_radius_m", self.earth_radius_m + self.geos_altitude_m)
        object.__setattr__(
            self,
            "leos_radius_m",
            tuple(self.earth_radius_m + h for h in self.leos_altitude_m),
        )
        for r, v in zip(self.leos_radius_m, self.leos_velocity_mps):
            kepler = math.sqrt(MU_EARTH_M3PS2 / r)
            if abs(v - kepler) > 0.2 * kepler:
                warnings.warn(
                    f"velocity {v} m/s is far from the circular-orbit speed "
                    f"{kepler:.0f} m/s at radius {r:.0f} m",
                    stacklevel=2,
                )

    @property
    def n_leos(self) -> int:
        return len(self.leos_altitude_m)

    def _check_index(self, n: int):
        if not 0 <= n < self.n_leos:
            raise IndexError(f"LEO index {n} out of range 0..{self.n_leos - 1}")


def rotation_angle(scenario: ConstellationScenario, n: int, t):
    """Rotation angle of LEO n at time t (scalar or array), radians."""
    scenario._check_index(n)
    rate = scenario.leos_velocity_mps[n] / scenario.leos_radius_m[n]
    return (
        rate * np.asarray(t, dtype=float)
        - scenario.leos_phase_offset_rad[n]
        + scenario.entry_boundary_angle_rad
    )


def geos_distance(scenario: ConstellationScenario, n: int, t, geos: Geos = Geos.GEOS1):
    """Distance from LEO n to GEO ``geos`` at time t, meters.

    GEO 2 sits at angle pi, so its separation angle flips to pi - phi_n(t).
    """
    phi = rotation_angle(scenario, n, t)
    if geos is Geos.GEOS2:
        phi = math.pi - phi
    rg = scenario.geos_radius_m
    rl = scenario.leos_radius_m[n]
    return np.sqrt(rg * rg + rl * rl - 2.0 * rg * rl * np.cos(phi))


def inter_leos_distance(scenario: ConstellationScenario, m: int, n: int, t):
    """Distance between LEOs m and n at time t, meters."""
    if m == n:
        raise ValueError("distinct LEO indices required")
    gap = rotation_angle(scenario, m, t) - rotation_angle(scenario, n, t)
    rm = scenario.leos_radius_m[m]
    rn = scenario.leos_radius_m[n]
    d2 = rm * rm + rn * rn - 2.0 * rm * rn * np.cos(gap)
    # round-off can drive the radicand slightly negative at gap ~ 0, equal radii
    return np.sqrt(np.maximum(d2, 0.0))


def coverage_entry_time(scenario: ConstellationScenario, n: int) -> float:
    """Time at which LEO n's rotation angle reaches the entry boundary, seconds."""
    scenario._check_index(n)
    return (
        scenario.leos_phase_offset_rad[n]
        * scenario.leos_radius_m[n]
        / scenario.leos_velocity_mps[n]
    )
