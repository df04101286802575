import dataclasses

import numpy as np
import pytest

from georelay.downlink_opt import (
    constant_power_baseline,
    min_energy_downlink,
    min_time_downlink,
)
from georelay.errors import InfeasibleError
from georelay.scenario import build_downlink_request


@pytest.fixture()
def request_ref(default_config):
    return build_downlink_request(default_config)


def test_zero_files_zero_energy(request_ref):
    req = dataclasses.replace(request_ref, files_per_leos=0)
    alloc = min_energy_downlink(req)
    assert alloc.total_energy_j == 0.0
    assert np.all(alloc.energies_j == 0.0)


def test_each_leos_meets_target_with_equality(request_ref):
    alloc = min_energy_downlink(request_ref)
    target = request_ref.files_per_leos * request_ref.file_bits
    assert np.allclose(alloc.delivered_bits, target, rtol=1e-9)
    assert alloc.kkt_residual_max <= 1e-9 * request_ref.p_max_w
    assert alloc.total_energy_j == pytest.approx(float(np.sum(alloc.energies_j)), rel=1e-12)


def test_power_profiles_respect_cap(request_ref):
    alloc = min_energy_downlink(request_ref)
    for prof in alloc.profiles:
        assert np.all(prof.values_w >= 0.0)
        assert np.all(prof.values_w <= request_ref.p_max_w + 1e-12)


def test_decoupling_permutation_invariance(request_ref, default_config):
    """Reordering the LEO list permutes per-LEO results without changing them."""
    config = default_config
    perm = [2, 0, 4, 1, 3]
    leos = [config["constellation"]["leos"][i] for i in perm]
    carriers = [config["uplink"]["carriers_hz"][i] for i in perm]
    cfg2 = {
        "constellation": {"leos": leos},
        "uplink": {"carriers_hz": carriers},
    }
    from georelay.scenario import resolve_config

    req2 = build_downlink_request(resolve_config(cfg2))
    base = min_energy_downlink(request_ref)
    permuted = min_energy_downlink(req2)
    for new_idx, old_idx in enumerate(perm):
        assert permuted.energies_j[new_idx] == pytest.approx(base.energies_j[old_idx], rel=1e-12)


def test_baseline_bits_equality_and_dominance(request_ref):
    base = constant_power_baseline(request_ref)
    opt = min_energy_downlink(request_ref)
    target = request_ref.files_per_leos * request_ref.file_bits
    assert np.allclose(base.delivered_bits, target, rtol=1e-9)
    assert np.all(opt.energies_j <= base.energies_j + 1e-9)
    for prof in base.profiles:
        assert np.all(prof.values_w == prof.values_w[0])  # constant level


def test_baseline_equals_waterfilling_on_flat_channel(default_config):
    """With a constant channel the optimal profile is flat, so the two coincide."""
    from georelay.geometry import ConstellationScenario
    from georelay.link import LinkParams
    from georelay.downlink_opt import DownlinkRequest

    sc = ConstellationScenario(
        earth_radius_m=6371e3,
        geos_altitude_m=35786e3,
        leos_altitude_m=(800e3,),
        leos_velocity_mps=(7500.0,),
        leos_phase_offset_rad=(0.0,),
        entry_boundary_angle_rad=0.0,
    )

    # zero velocity is invalid, so emulate flatness with a tiny window instead
    link = LinkParams(19.7e9, 40e6, 40.0, 10.0, 2.0, -220.56)
    req = DownlinkRequest(
        scenario=sc,
        links=(link,),
        files_per_leos=1,
        file_bits=1e6,
        t_start_s=0.0,
        horizon_s=2.0,
        p_max_w=40.0,
        grid_step_s=1.0,
    )
    opt = min_energy_downlink(req)
    base = constant_power_baseline(req)
    assert opt.total_energy_j == pytest.approx(base.total_energy_j, rel=1e-6)


def test_infeasibility_names_leos(request_ref):
    req = dataclasses.replace(request_ref, p_max_w=0.5)
    with pytest.raises(InfeasibleError) as exc:
        min_energy_downlink(req)
    assert exc.value.index == 0  # weakest link fails first
    with pytest.raises(InfeasibleError):
        constant_power_baseline(req)


def test_min_time_unbounded_budget(request_ref):
    req = dataclasses.replace(request_ref, e_max_j=None)
    res, floors = min_time_downlink(req)
    assert not res.budget_bound
    assert res.duration_s == pytest.approx(float(np.max(floors)))
    # per-LEO full-power durations decrease with entry order
    assert np.all(np.diff(floors) < 0)


def test_min_time_t0_is_exact_boundary(request_ref):
    req = dataclasses.replace(request_ref, e_max_j=None)
    res, floors = min_time_downlink(req)
    target = req.files_per_leos * req.file_bits
    for n in range(req.scenario.n_leos):
        ch = req.channel(n, horizon_s=float(floors[n]))
        at_cap = ch.bits(np.full(ch.n_cells, req.p_max_w))
        assert at_cap >= target * (1 - 1e-9)
        ch_less = req.channel(n, horizon_s=float(floors[n]) * (1 - 1e-6))
        assert ch_less.bits(np.full(ch_less.n_cells, req.p_max_w)) < target


def test_min_time_budget_branch(request_ref):
    free, _ = min_time_downlink(dataclasses.replace(request_ref, e_max_j=None))
    e_floor = min_energy_downlink(request_ref, horizon_s=4.0 * free.duration_s).total_energy_j
    budget = 0.5 * (e_floor + free.energy_at_t0_j)
    res, _ = min_time_downlink(dataclasses.replace(request_ref, e_max_j=budget))
    assert res.budget_bound
    assert res.duration_s > free.duration_s
    assert abs(res.result.total_energy_j - budget) <= 1e-3 * budget


def test_min_time_budget_slack_returns_t0(request_ref):
    free, _ = min_time_downlink(dataclasses.replace(request_ref, e_max_j=None))
    res, _ = min_time_downlink(dataclasses.replace(request_ref, e_max_j=2.0 * free.energy_at_t0_j))
    assert not res.budget_bound
    assert res.duration_s == free.duration_s


def test_energy_decreases_with_horizon(request_ref):
    energies = [
        min_energy_downlink(request_ref, horizon_s=T).total_energy_j
        for T in (450.0, 500.0, 600.0, 700.0, 900.0)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))


def test_min_time_infeasible_budget(request_ref):
    with pytest.raises(InfeasibleError):
        min_time_downlink(dataclasses.replace(request_ref, e_max_j=10.0))
