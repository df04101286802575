import math

import numpy as np
import pytest

from georelay.errors import InfeasibleError
from georelay.link import LinkParams, aggregate_gain, build_channel
from georelay.waterfill import max_deliverable_bits, solve_cells
from oracles import projected_gradient_min_energy, random_cell_problem

LN2 = math.log(2.0)


def flat_channel(snr_per_w, window, bandwidth_hz=1e6):
    """``build_channel`` cells of a constant channel whose SNR is P * snr_per_w."""
    params = LinkParams(20e9, bandwidth_hz, 0.0, 0.0, 0.0, -200.0)
    d = math.sqrt(aggregate_gain(params) / snr_per_w)
    return build_channel(params, lambda t: np.full_like(t, d), window, 1.0)


def waterfill(ch, target_bits, p_max):
    return solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, target_bits, p_max)


def test_zero_target():
    ch = flat_channel(1e-4, (0.0, 100.0))
    sol = waterfill(ch, 0.0, 50.0)
    assert sol.energy_j == 0.0
    assert sol.water_level == 0.0
    assert ch.n_cells == 100
    assert np.all(ch.profile(sol.powers_w).values_w == 0.0)


def test_constant_channel_closed_form():
    """Uncapped flat channel: uniform power from the rate equation."""
    W, span, p_max = 1e6, 200.0, 1e9
    ch = flat_channel(1e-2, (0.0, span), W)
    target = 0.4 * span * W  # 0.4 bits/s/Hz
    sol = waterfill(ch, target, p_max)
    expected_p = (2 ** (target / (W * span)) - 1) / ch.gains_per_w
    assert np.allclose(sol.powers_w, expected_p, rtol=1e-9)
    assert sol.delivered_bits == pytest.approx(target, rel=1e-9)


def test_infeasible_reports_max_bits():
    W, span, p_max = 1e6, 60.0, 5.0
    ch = flat_channel(1e-4, (0.0, span), W)
    cap_bits = span * W * math.log2(1.0 + p_max * 1e-4)
    with pytest.raises(InfeasibleError) as exc:
        waterfill(ch, 2 * cap_bits, p_max)
    assert exc.value.max_bits == pytest.approx(cap_bits, rel=1e-9)


def test_empty_window():
    ch = flat_channel(1e-4, (10.0, 10.0))
    assert ch.n_cells == 0
    with pytest.raises(InfeasibleError):
        waterfill(ch, 1.0, 5.0)
    assert waterfill(ch, 0.0, 5.0).energy_j == 0.0


def test_kkt_structure_on_varying_channel():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w, h, W, target, p_max = random_cell_problem(rng, 30, 60)
        sol = solve_cells(w, h, W, target, p_max)
        interior = ~sol.zero_mask & ~sol.saturated_mask
        # stationarity on interior cells
        if np.any(interior):
            resid = np.abs(sol.water_level / LN2 - 1.0 / h[interior] - sol.powers_w[interior])
            assert np.max(resid) <= 1e-9 * p_max
        # clamped cells sit exactly on their bounds
        assert np.all(sol.powers_w[sol.zero_mask] == 0.0)
        assert np.all(sol.powers_w[sol.saturated_mask] == p_max)
        # complementary slackness: target met with equality
        assert sol.delivered_bits == pytest.approx(target, rel=1e-9)


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        w, h, W, target, p_max = random_cell_problem(rng, 25, 50)
        sol = solve_cells(w, h, W, target, p_max)
        oracle_energy, _, cv = projected_gradient_min_energy(w, h, W, target, p_max)
        assert abs(cv) < 1e-8
        assert sol.energy_j == pytest.approx(oracle_energy, rel=1e-6)


def test_cap_binding_instance():
    # two-cell channel where the good cell must saturate
    w = np.array([1.0, 1.0])
    h = np.array([1.0, 0.25])
    W = 1e6
    p_max = 2.0
    target = 0.98 * max_deliverable_bits(w, h, W, p_max)
    sol = solve_cells(w, h, W, target, p_max)
    assert sol.saturated_mask[0]
    assert not sol.saturated_mask[1]
    assert sol.powers_w[0] == p_max
    assert sol.delivered_bits == pytest.approx(target, rel=1e-9)


def test_energy_monotone_in_window_and_target(default_config):
    from georelay.scenario import build_downlink_request

    req = build_downlink_request(default_config)
    ch600 = req.channel(0)
    ch800 = req.channel(0, horizon_s=800.0)
    target = req.files_per_leos * req.file_bits
    e600 = solve_cells(ch600.weights_s, ch600.gains_per_w, ch600.bandwidth_hz, target, req.p_max_w).energy_j
    e800 = solve_cells(ch800.weights_s, ch800.gains_per_w, ch800.bandwidth_hz, target, req.p_max_w).energy_j
    assert e800 <= e600 + 1e-9
    e_less = solve_cells(ch600.weights_s, ch600.gains_per_w, ch600.bandwidth_hz, 0.8 * target, req.p_max_w).energy_j
    assert e_less <= e600


def test_min_energy_for_files_convex(default_config):
    from georelay.scenario import build_uplink_request

    req = build_uplink_request(default_config)
    ch = req.problem().channels[2]
    u = req.file_bits
    energies = []
    for mu in range(0, 11):
        e = solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, mu * u, req.p_max_w).energy_j
        energies.append(e)
    assert energies[0] == 0.0
    assert all(b >= a - 1e-9 for a, b in zip(energies, energies[1:]))
    for i in range(1, 10):
        assert energies[i - 1] + energies[i + 1] >= 2 * energies[i] - 1e-6 * energies[i]


def test_reference_downlink_energy_below_constant_power(default_config):
    """On the first LEO's window the waterfilled energy beats constant power."""
    from georelay.scenario import build_downlink_request

    req = build_downlink_request(default_config)
    ch = req.channel(0)
    target = req.files_per_leos * req.file_bits
    sol = solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, target, req.p_max_w)
    lo, hi = 0.0, req.p_max_w
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if ch.bits(np.full(ch.n_cells, mid)) >= target:
            hi = mid
        else:
            lo = mid
    const_energy = ch.energy(np.full(ch.n_cells, hi))
    assert sol.energy_j <= const_energy + 1e-9
    assert sol.delivered_bits == pytest.approx(target, rel=1e-9)
