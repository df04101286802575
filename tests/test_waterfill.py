import math

import numpy as np
import pytest

from georelay.errors import InfeasibleError
from georelay.link import LinkParams, aggregate_gain, build_channel
from georelay.waterfill import (
    REL_BIT_TOL,
    BreakpointTable,
    CellSolution,
    cell_bits,
    max_deliverable_bits,
    solve_cells,
)
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
        # one breakpoint table priced at every target, as the allocator does
        table = BreakpointTable(w, h, W, p_max)
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
                priced = table.solve(target)[0]
                for name in CellSolution.__dataclass_fields__:
                    got, want = getattr(priced, name), getattr(sol, name)
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
                    else:
                        assert got == want, name


# ------------------------------------------------------------------- pricing


def breakpoint_targets(table):
    """The bits at every breakpoint above the lowest height, and at full
    power."""
    return [float(b) for b in table.bits[table.heights > table.heights[0]]] + [table.full_bits[0]]


def assert_prices_match_solve(table, targets, rel):
    for target in targets:
        assert table.energy(target) == pytest.approx(table.solve(target)[0].energy_j, rel=rel, abs=0.0), target


def assert_bracket_is_linear_scan(table, targets):
    """The binary search finds the first height above the lowest whose bits
    reach the target, or the top one, as a linear scan does."""
    for target in targets:
        reached = table.bits[1:] >= target
        assert table._bracket(target) == (int(np.argmax(reached)) if reached.any() else table.bits.size - 2)


def test_energy_matches_solve_on_random_channels():
    """The O(log n) price against the waterfill's energy at each instance's
    target, at every breakpoint's bits and at full power; every other
    channel has its gains triplicated, which ties their breakpoints."""
    rng = np.random.default_rng(17)
    for k in range(40):
        w, h, W, target, p_max = random_cell_problem(rng, 1, 60)
        if k % 2:
            h = np.repeat(h[: max(1, h.size // 3)], 3)
            w = rng.uniform(0.5, 2.0, h.size)
            target = rng.uniform(0.15, 0.85) * max_deliverable_bits(w, h, W, p_max)
        table = BreakpointTable(w, h, W, p_max)
        assert_prices_match_solve(table, [target, *breakpoint_targets(table)], 1e-12)
        assert_bracket_is_linear_scan(table, [target, *table.bits[table.bits > 0.0], table.full_bits[0]])


def test_energy_matches_solve_on_tied_breakpoints_and_a_single_cell():
    tied_w = np.random.default_rng(7).uniform(0.5, 2.0, 12)
    for w, h, W, p_max in (
        (tied_w, np.repeat([2e-3, 5e-3, 5e-3, 3e-2], 3), 1e6, 400.0),
        (np.array([1.5]), np.array([1e-3]), 2e6, 100.0),
    ):
        table = BreakpointTable(w, h, W, p_max)
        # shares up to a hair above full power, which the bit tolerance admits
        shares = [s * table.full_bits[0] for s in (0.05, 0.3, 0.5, 0.6, 0.9, 0.999, 1.0 + 0.5 * REL_BIT_TOL)]
        assert_prices_match_solve(table, shares + breakpoint_targets(table), 1e-12)


def test_energy_on_brackets_with_no_interior_cell():
    """Between a saturation and the next turn-on no cell is interior: the
    bits stay flat there, and a target at their value costs the energy at
    the bracket's foot."""
    rng = np.random.default_rng(0)
    flat = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        table = BreakpointTable(rng.uniform(0.5, 2.0, n), 10 ** rng.uniform(-3, 0, n), 1e6, 10 ** rng.uniform(-1, 1))
        for i in np.flatnonzero(table.w_int[1:-1] == 0.0) + 1:
            flat += 1
            assert table.bits[i + 1] == table.bits[i]
            assert_prices_match_solve(table, [table.bits[i]], 1e-12)
    assert flat > 0


def test_energy_of_a_tiny_target():
    """Far below the second breakpoint only the best cell k is on, and its
    energy is w_k (2^(t / (W w_k)) - 1) / h_k, for the price and the
    powers alike."""
    rng = np.random.default_rng(23)
    w, h, W, _, p_max = random_cell_problem(rng, 20, 40)
    table = BreakpointTable(w, h, W, p_max)
    k = int(np.argmax(h))
    for share in (1e-3, 1e-6, 1e-9, 1e-12):
        target = share * table.bits[1]
        exact = w[k] * math.expm1(target * LN2 / (W * w[k])) / h[k]
        assert table.energy(target) == pytest.approx(exact, rel=1e-12, abs=0.0), share
        assert table.solve(target)[0].energy_j == pytest.approx(exact, rel=1e-12, abs=0.0), share


def test_solve_on_tiny_shares_of_full_power():
    """Targets down to 1e-12 of the full-power bits: the powers rise from the
    bracket's foot, so none loses its digits to cancellation, the bits they
    deliver reach the target and their energy is the price."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        w, h, W, _, p_max = random_cell_problem(rng, 1, 60)
        table = BreakpointTable(w, h, W, p_max)
        for share in (1e-4, 1e-6, 1e-8, 1e-9, 1e-12):
            target = share * table.full_bits[0]
            sol = table.solve(target)[0]
            assert sol.energy_j == pytest.approx(table.energy(target), rel=1e-12, abs=0.0), share
            assert sol.delivered_bits == pytest.approx(target, rel=1e-9)


def test_cell_bits_at_tiny_snr():
    """At an SNR x far below 1, log2(1 + x) keeps only the digits of x that
    survive 1 + x; the bits must follow the series x - x^2/2 + x^3/3."""
    w = np.array([0.5, 1.0, 2.0])
    h = np.array([1e-3, 2e-3, 4e-3])
    W = 1e6
    for snr in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
        x = snr * h / h[0]
        series = W * float(np.dot(w, x - x**2 / 2 + x**3 / 3)) / LN2
        assert cell_bits(w, h, x / h, W) == pytest.approx(series, rel=1e-12, abs=0.0), snr


def test_energy_refuses_what_solve_refuses():
    table = BreakpointTable(np.ones(3), np.array([1e-3, 2e-3, 4e-3]), 1e6, 10.0)
    assert table.energy(0.0) == 0.0
    with pytest.raises(ValueError):
        table.energy(-1.0)
    with pytest.raises(InfeasibleError):
        table.energy(2.0 * table.full_bits[0])
    empty = BreakpointTable(np.zeros(0), np.zeros(0), 1e6, 10.0)
    assert empty.energy(0.0) == 0.0
    with pytest.raises(InfeasibleError):
        empty.energy(1.0)


def test_nan_bit_target_is_refused():
    # a NaN fails every comparison, so the guard tests for the target it accepts
    with pytest.raises(ValueError, match="bit target must be nonnegative"):
        solve_cells(np.ones(5), np.full(5, 1e-3), 1e6, math.nan, 10.0)
    table = BreakpointTable(np.ones(5), np.full(5, 1e-3), 1e6, 10.0)
    with pytest.raises(ValueError, match="bit target must be nonnegative"):
        table.energy(math.nan)
    with pytest.raises(ValueError, match="bit target must be nonnegative"):
        table.energy([1.0, math.nan])


def test_nan_power_cap_is_refused():
    with pytest.raises(ValueError, match="power cap must be positive"):
        BreakpointTable(np.ones(5), np.full(5, 1e-3), 1e6, math.nan)


@pytest.mark.parametrize("dt", [1.0, 0.5, 0.1])
def test_energy_matches_solve_on_reference_uplink_channels(default_config, dt):
    """Every file count the allocator prices on each default uplink channel.
    The bracket of these targets and of every breakpoint's bits is the one
    a linear scan finds, and it holds the level ``solve`` sets."""
    from georelay.scenario import build_uplink_request
    from georelay.uplink_opt import integer_file_caps

    default_config["solver"]["grid_step_s"] = dt
    problem = build_uplink_request(default_config).problem()
    for ch, cap in zip(problem.channels, integer_file_caps(problem)):
        table = BreakpointTable(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, problem.p_max_w)
        files = [m * problem.file_bits for m in range(1, cap + 1)]
        assert_prices_match_solve(table, files, 1e-10)
        assert_bracket_is_linear_scan(table, files + breakpoint_targets(table))
        for target in files:
            i, height = table._bracket(target), table.solve(target)[0].water_level / LN2
            assert table.heights[i] * (1 - 1e-12) <= height <= table.heights[i + 1] * (1 + 1e-12)
