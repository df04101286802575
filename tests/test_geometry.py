import math

import numpy as np
import pytest

from georelay.geometry import (
    ConstellationScenario,
    Geos,
    coverage_entry_time,
    geos_distance,
    inter_leos_distance,
    rotation_angle,
)
from georelay.scenario import build_constellation

BOUNDARY = math.radians(-41.06)


def reference_scenario(config):
    return build_constellation(config)


def test_reference_leos_angle_at_zero(default_config):
    sc = reference_scenario(default_config)
    # the zero-offset LEO sits exactly on the entry boundary at t = 0
    assert rotation_angle(sc, 4, 0.0) == pytest.approx(BOUNDARY, abs=1e-12)


def test_angle_collapses_to_boundary_without_offsets():
    sc = ConstellationScenario(
        earth_radius_m=6371e3,
        geos_altitude_m=35786e3,
        leos_altitude_m=(500e3,),
        leos_velocity_mps=(7200.0,),
        leos_phase_offset_rad=(0.0,),
        entry_boundary_angle_rad=BOUNDARY,
    )
    assert rotation_angle(sc, 0, 0.0) == pytest.approx(BOUNDARY, abs=0.0)


def test_first_leos_reaches_boundary_near_200s(default_config):
    """Root-find on the rotation angle confirms the closed-form entry time."""
    sc = reference_scenario(default_config)

    def f(t):
        return rotation_angle(sc, 0, t) - BOUNDARY

    lo, hi = 0.0, 1000.0
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    t_root = 0.5 * (lo + hi)
    assert abs(t_root - 199.9) < 0.1
    assert rotation_angle(sc, 0, 199.9) == pytest.approx(BOUNDARY, abs=math.radians(0.01))


def test_entry_times(default_config):
    sc = reference_scenario(default_config)
    assert coverage_entry_time(sc, 4) == 0.0
    assert abs(coverage_entry_time(sc, 0) - 199.9) < 0.1
    assert abs(coverage_entry_time(sc, 3) - 52.2) < 0.1
    for n in range(sc.n_leos):
        t0 = coverage_entry_time(sc, n)
        assert rotation_angle(sc, n, t0) == pytest.approx(BOUNDARY, abs=1e-9)


def test_geos_distance_collinear_and_antipodal():
    sc = ConstellationScenario(
        earth_radius_m=6371e3,
        geos_altitude_m=35786e3,
        leos_altitude_m=(500e3,),
        leos_velocity_mps=(7200.0,),
        leos_phase_offset_rad=(0.0,),
        entry_boundary_angle_rad=0.0,
    )
    rg, rl = sc.geos_radius_m, sc.leos_radius_m[0]
    # angle 0 at t = 0: collinear with GEO 1, antipodal to GEO 2
    assert geos_distance(sc, 0, 0.0) == pytest.approx(rg - rl, rel=1e-12)
    assert geos_distance(sc, 0, 0.0, Geos.GEOS2) == pytest.approx(rg + rl, rel=1e-12)


def test_geos_distance_against_high_precision(default_config):
    import mpmath

    mpmath.mp.dps = 50
    sc = reference_scenario(default_config)
    # LEO 1 held at the boundary angle (its position at entry)
    t0 = coverage_entry_time(sc, 0)
    rg = mpmath.mpf("42157e3")
    rl = mpmath.mpf("6871e3")
    phi = mpmath.radians(mpmath.mpf("-41.06"))
    expected = mpmath.sqrt(rg**2 + rl**2 - 2 * rg * rl * mpmath.cos(phi))
    assert geos_distance(sc, 0, t0) == pytest.approx(float(expected), rel=1e-12)


def test_inter_leos_distance(default_config):
    import mpmath

    mpmath.mp.dps = 50
    sc = reference_scenario(default_config)
    assert inter_leos_distance(sc, 3, 4, 0.0) == inter_leos_distance(sc, 4, 3, 0.0)
    r4 = mpmath.mpf("7471e3")
    r5 = mpmath.mpf("7671e3")
    gap = mpmath.radians(3)
    expected = mpmath.sqrt(r4**2 + r5**2 - 2 * r4 * r5 * mpmath.cos(gap))
    assert inter_leos_distance(sc, 3, 4, 0.0) == pytest.approx(float(expected), rel=1e-12)
    with pytest.raises(ValueError):
        inter_leos_distance(sc, 2, 2, 0.0)


def test_inter_leos_degenerate_cases():
    sc = ConstellationScenario(
        earth_radius_m=6371e3,
        geos_altitude_m=35786e3,
        leos_altitude_m=(500e3, 500e3),
        leos_velocity_mps=(7200.0, 7200.0),
        leos_phase_offset_rad=(0.0, math.pi),
        entry_boundary_angle_rad=0.0,
    )
    # equal radii, angle gap pi -> diameter; same params, gap 0 at the right t -> 0
    r = sc.leos_radius_m[0]
    assert inter_leos_distance(sc, 0, 1, 0.0) == pytest.approx(2 * r, rel=1e-12)
    sc2 = ConstellationScenario(
        earth_radius_m=6371e3,
        geos_altitude_m=35786e3,
        leos_altitude_m=(500e3, 500e3),
        leos_velocity_mps=(7200.0, 7300.0),
        leos_phase_offset_rad=(0.0, 0.1),
        entry_boundary_angle_rad=0.0,
    )
    # the faster trailing LEO catches up; at the catch-up time the gap is zero
    rate0 = 7200.0 / sc2.leos_radius_m[0]
    rate1 = 7300.0 / sc2.leos_radius_m[1]
    t_meet = 0.1 / (rate1 - rate0)
    assert inter_leos_distance(sc2, 0, 1, t_meet) == pytest.approx(0.0, abs=1e-6)


def test_rotation_angle_monotone_and_distance_bounded(default_config):
    sc = reference_scenario(default_config)
    t = np.linspace(0.0, 5000.0, 400)
    for n in range(sc.n_leos):
        phi = rotation_angle(sc, n, t)
        assert np.all(np.diff(phi) > 0)
        d = geos_distance(sc, n, t)
        rg, rl = sc.geos_radius_m, sc.leos_radius_m[n]
        assert np.all(d >= rg - rl - 1e-6)
        assert np.all(d <= rg + rl + 1e-6)


def test_distance_continuity(default_config):
    sc = reference_scenario(default_config)
    t = np.linspace(0.0, 3000.0, 30000)
    d = geos_distance(sc, 0, t)
    # max slope of the distance is bounded by the orbital speed
    assert np.max(np.abs(np.diff(d))) < 2.0 * 7200.0 * (t[1] - t[0])


def test_invalid_index_and_validation(default_config):
    sc = reference_scenario(default_config)
    with pytest.raises(IndexError):
        rotation_angle(sc, 9, 0.0)
    with pytest.raises(IndexError):
        coverage_entry_time(sc, -1)
    with pytest.raises(ValueError):
        ConstellationScenario(
            earth_radius_m=6371e3,
            geos_altitude_m=35786e3,
            leos_altitude_m=(40000e3,),  # above the GEO shell
            leos_velocity_mps=(7000.0,),
            leos_phase_offset_rad=(0.0,),
            entry_boundary_angle_rad=0.0,
        )
    with pytest.raises(ValueError):
        ConstellationScenario(
            earth_radius_m=6371e3,
            geos_altitude_m=35786e3,
            leos_altitude_m=(500e3, 600e3),
            leos_velocity_mps=(7000.0, 7100.0),
            leos_phase_offset_rad=(0.1, 0.2),  # nobody enters at t = 0
            entry_boundary_angle_rad=0.0,
        )


def test_derived_radii(default_config):
    sc = reference_scenario(default_config)
    assert sc.geos_radius_m == pytest.approx(42157e3)
    assert sc.leos_radius_m == tuple(6371e3 + h for h in (500e3, 700e3, 900e3, 1100e3, 1300e3))
