import dataclasses
import math

import numpy as np
import pytest

from georelay.downlink_opt import (
    allocate_for_targets,
    constant_power_baseline,
    constant_power_for_targets,
    min_energy_downlink,
    min_time_downlink,
)
from georelay.errors import InfeasibleError
from georelay.link import NodeChannel
from georelay.scenario import build_downlink_request
from georelay.waterfill import REL_BIT_TOL, BreakpointTable, group_tables, max_deliverable_bits
from oracles import constant_power_oracle


@pytest.fixture()
def request_ref(default_config):
    return build_downlink_request(default_config)


def test_nan_file_size_is_refused(request_ref):
    with pytest.raises(ValueError, match="bad file parameters"):
        dataclasses.replace(request_ref, file_bits=float("nan"))


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


def test_baseline_accepts_what_waterfilling_accepts():
    """A target a hair above the full-power bits, within the waterfill's bit
    tolerance, is feasible for both: every cell at P_max."""
    ch = NodeChannel(0.0, 3.0, 1.0, np.ones(3), np.array([1e-3, 2e-3, 4e-3]), 1e6)
    target = max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, 10.0) * (1.0 + 0.5 * REL_BIT_TOL)
    assert allocate_for_targets([ch], group_tables([ch], 10.0), [target]).total_energy_j == pytest.approx(30.0, rel=1e-12)
    assert constant_power_for_targets([ch], [target], 10.0).total_energy_j == pytest.approx(30.0, rel=1e-12)
    with pytest.raises(InfeasibleError):
        constant_power_for_targets([ch], [target * (1.0 + REL_BIT_TOL)], 10.0)


@pytest.mark.parametrize("target", [math.nan, -1.0])
def test_baseline_refuses_what_waterfilling_refuses(monkeypatch, target):
    """A NaN or negative bit target is refused as the waterfill refuses it,
    before any Newton step evaluates the bits."""
    ch = NodeChannel(0.0, 3.0, 1.0, np.ones(3), np.array([1e-3, 2e-3, 4e-3]), 1e6)
    with pytest.raises(ValueError, match="bit target must be nonnegative"):
        allocate_for_targets([ch], group_tables([ch], 10.0), [target])
    calls = []
    bits = NodeChannel.bits
    monkeypatch.setattr(NodeChannel, "bits", lambda self, powers: calls.append(self) or bits(self, powers))
    with pytest.raises(ValueError, match="bit target must be nonnegative"):
        constant_power_for_targets([ch], [target], 10.0)
    assert calls == []


@pytest.mark.parametrize("dt", [1.0, 0.5, 0.1])
def test_constant_power_matches_the_bisection_oracle(request_ref, dt):
    """Newton's least constant power against bisection's, both to 1e-15
    P_max: random targets, the full-power bits within the waterfill's
    tolerance, where both give P_max, and a target of one bit."""
    req = dataclasses.replace(request_ref, grid_step_s=dt)
    rng = np.random.default_rng(int(10 * dt))
    p_max = req.p_max_w
    for n in range(req.scenario.n_leos):
        ch = req.channel(n)
        full = max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, p_max)
        for target in [*(full * rng.uniform(0.0, 1.0, 6)), full, full * (1.0 + REL_BIT_TOL), 1.0]:
            got = constant_power_for_targets([ch], [target], p_max)
            power = float(got.profiles[0].values_w[0])
            want = constant_power_oracle(ch, target, p_max)
            assert abs(power - want) <= 2e-15 * p_max, (n, target)
            energy = ch.energy(np.full(ch.n_cells, want))
            assert got.total_energy_j == pytest.approx(energy, rel=1.5e-14, abs=2e-15 * p_max * ch.weights_s.sum())
            assert power == p_max or got.delivered_bits[0] >= target
        assert constant_power_for_targets([ch], [full * (1.0 + REL_BIT_TOL)], p_max).profiles[0].values_w[0] == p_max


def test_constant_power_takes_few_bits_evaluations(monkeypatch, request_ref):
    """No more than 10 full-channel bits evaluations per LEO, the reported
    bits included, at grid steps 1, 0.5 and 0.1 s and three start times
    (bisection to 1e-15 P_max takes about 50)."""
    calls = []
    bits = NodeChannel.bits

    def counted(self, powers):
        calls.append(self)
        return bits(self, powers)

    monkeypatch.setattr(NodeChannel, "bits", counted)
    for dt in (1.0, 0.5, 0.1):
        for ts in (0.0, 50.0, 100.0):
            req = dataclasses.replace(request_ref, grid_step_s=dt, t_start_s=ts)
            for n in range(req.scenario.n_leos):
                ch = req.channel(n)
                calls.clear()
                constant_power_for_targets([ch], [req.files_per_leos * req.file_bits], req.p_max_w)
                assert 1 <= len(calls) <= 10, (dt, ts, n)


def test_infeasibility_names_leos(request_ref):
    req = dataclasses.replace(request_ref, p_max_w=0.5)
    with pytest.raises(InfeasibleError) as exc:
        min_energy_downlink(req)
    assert exc.value.index == 0  # weakest link fails first
    with pytest.raises(InfeasibleError) as exc:
        constant_power_baseline(req)
    ch = req.channel(0)
    assert exc.value.index == 0
    assert exc.value.max_bits == max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, req.p_max_w)


@pytest.mark.parametrize("dt, tables", [(1.0, 1), (0.5, 2), (0.1, 5)])
def test_downlink_builds_one_table_per_group(monkeypatch, request_ref, dt, tables):
    """The five default LEOs share one breakpoint table at a 1 s grid, two
    at 0.5 s, and at 0.1 s each channel is longer than the group budget and
    has its own."""
    built = []
    init = BreakpointTable.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BreakpointTable, "__init__", counted)
    min_energy_downlink(dataclasses.replace(request_ref, grid_step_s=dt))
    assert len(built) == tables


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
