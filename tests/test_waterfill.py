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


def assert_kkt_and_closed_form(sol, w, h, W, target, p_max):
    """The stationarity residual, the clamps, exact delivery, and the level
    against the closed form on the solution's own zero/interior/saturated
    split (when some cell is interior)."""
    zero, sat = sol.zero_mask, sol.saturated_mask
    interior = ~zero & ~sat
    assert sol.kkt_residual <= 1e-9 * p_max
    assert np.all(sol.powers_w[zero] == 0.0)
    assert np.all(sol.powers_w[sat] == p_max)
    assert np.all(sol.powers_w <= p_max)
    assert sol.delivered_bits == pytest.approx(target, rel=1e-9)
    assert sol.iterations == 1
    # the clamps agree with the level, to rounding
    height = sol.water_level / LN2
    assert np.all(1.0 / h[zero] >= height * (1.0 - 1e-12))
    assert np.all(p_max + 1.0 / h[sat] <= height * (1.0 + 1e-12))
    if not np.any(interior):
        return  # every cell clamped: the level is any height between the clamps
    sat_bits = float(np.dot(w[sat], W * np.log2(1.0 + p_max * h[sat])))
    ln_level = ((target - sat_bits) * LN2 / W - float(np.dot(w[interior], np.log(h[interior] / LN2)))) / float(
        np.sum(w[interior])
    )
    assert sol.water_level == pytest.approx(math.exp(ln_level), rel=1e-12)


def bits_at_height(w, h, W, p_max, height):
    """Bits delivered with every cell at clamp(height - 1/h, 0, p_max)."""
    return float(np.dot(w, W * np.log2(1.0 + np.clip(height - 1.0 / h, 0.0, p_max) * h)))


def test_tied_breakpoints_from_duplicated_gains():
    rng = np.random.default_rng(7)
    h = np.repeat([2e-3, 5e-3, 5e-3, 3e-2], 3)
    w = rng.uniform(0.5, 2.0, h.size)
    W, p_max = 1e6, 400.0
    full = max_deliverable_bits(w, h, W, p_max)
    for share in (0.05, 0.3, 0.6, 0.9, 0.999):
        sol = solve_cells(w, h, W, share * full, p_max)
        assert_kkt_and_closed_form(sol, w, h, W, share * full, p_max)
        # cells with one gain share one power
        for gain in np.unique(h):
            assert np.ptp(sol.powers_w[h == gain]) <= 1e-12 * p_max


def test_single_cell():
    w, h, W, p_max = np.array([1.5]), np.array([1e-3]), 2e6, 100.0
    target = 0.5 * max_deliverable_bits(w, h, W, p_max)
    sol = solve_cells(w, h, W, target, p_max)
    assert_kkt_and_closed_form(sol, w, h, W, target, p_max)
    expected_p = (2 ** (target / (W * 1.5)) - 1.0) / 1e-3
    assert sol.powers_w[0] == pytest.approx(expected_p, rel=1e-12)


def test_target_equal_to_full_power_delivery():
    rng = np.random.default_rng(11)
    w, h, W, _, p_max = random_cell_problem(rng, 20, 40)
    full = max_deliverable_bits(w, h, W, p_max)
    sol = solve_cells(w, h, W, full, p_max)
    assert np.allclose(sol.powers_w, p_max, rtol=1e-12)
    assert sol.energy_j == pytest.approx(p_max * float(np.sum(w)), rel=1e-12)
    assert_kkt_and_closed_form(sol, w, h, W, full, p_max)


def test_target_just_above_a_breakpoint():
    """Targets a hair above the bits at a turn-on height and at a saturation
    height: just above them the first cell is on and the second saturated.
    At a relative hair of 4e-16 rounding may put the level on either side."""
    rng = np.random.default_rng(3)
    w, h, W, _, p_max = random_cell_problem(rng, 30, 50)
    order = np.argsort(h)
    on, saturating = order[len(h) // 2], order[-3]
    for k, height in ((on, 1.0 / h[on]), (saturating, p_max + 1.0 / h[saturating])):
        for hair in (1e-9, 4e-16):
            target = bits_at_height(w, h, W, p_max, height) * (1.0 + hair)
            sol = solve_cells(w, h, W, target, p_max)
            assert_kkt_and_closed_form(sol, w, h, W, target, p_max)
            assert sol.water_level / LN2 == pytest.approx(height, rel=1e-6)
            if hair == 1e-9:
                assert not sol.zero_mask[k]
                assert sol.saturated_mask[k] == (k == saturating)


def test_targets_at_every_breakpoint():
    """Targets within a few ulps of the bits at each breakpoint, where
    rounding can put the closed-form level just outside the bracket the
    prefix sums chose: the level must stay at the target, not jump to the
    far end of the bracket."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        w, h, W, _, p_max = random_cell_problem(rng, 3, 12)
        for height in np.concatenate((1.0 / h, p_max + 1.0 / h)):
            base = bits_at_height(w, h, W, p_max, height)
            if base <= 0.0:
                continue
            for ulps in (-3, -1, 0, 1, 3):
                target = base * (1.0 + ulps * 1e-16)
                if target > max_deliverable_bits(w, h, W, p_max):
                    continue
                sol = solve_cells(w, h, W, target, p_max)
                assert_kkt_and_closed_form(sol, w, h, W, target, p_max)
