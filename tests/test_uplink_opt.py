import dataclasses
import math

import numpy as np
import pytest

from georelay.downlink_opt import constant_power_for_targets
from georelay.errors import InfeasibleError
from georelay.link import NodeChannel
from georelay.scenario import build_uplink_request
from georelay.uplink_opt import (
    FileAllocationProblem,
    OAPoint,
    OAState,
    integer_file_caps,
    min_time_uplink,
    oa_min_energy_uplink,
    oa_solve,
    solve_nlp_fixed_mu,
    solve_nlpr,
    solve_oa_master,
)
from oracles import dp_oracle, dp_solve, enumerate_integer_splits


def flat_channel(span, gain_per_w, bandwidth=1e6, step=1.0):
    n = int(span / step)
    return NodeChannel(
        0.0, span, step, np.full(n, step), np.full(n, gain_per_w), bandwidth
    )


def small_problem(gains, total_files=6, cap=3, span=40.0, file_bits=2e6, p_max=50.0):
    channels = tuple(flat_channel(span, g) for g in gains)
    return FileAllocationProblem(channels, total_files, tuple(cap for _ in gains), file_bits, p_max)


@pytest.fixture()
def request_ref(default_config):
    return build_uplink_request(default_config)


def test_nlpr_symmetric_split():
    prob = small_problem([1e-2, 1e-2, 1e-2], total_files=6, cap=3)
    relax = solve_nlpr(prob)
    assert np.allclose(relax.mu, 2.0, atol=1e-6)
    assert relax.mu.sum() == pytest.approx(6.0, abs=1e-9)


def test_nlpr_zero_window_node():
    channels = (flat_channel(40.0, 1e-2), NodeChannel(0.0, 0.0, 1.0, np.zeros(0), np.zeros(0), 1e6))
    prob = FileAllocationProblem(channels, 3, (3, 3), 2e6, 50.0)
    relax = solve_nlpr(prob)
    assert relax.mu[1] == 0.0
    assert relax.mu[0] == pytest.approx(3.0, abs=1e-9)


def test_nlpr_lower_bounds_integer_optimum(request_ref):
    prob = request_ref.problem()
    relax = solve_nlpr(prob)
    integer = oa_solve(prob)
    assert relax.energy_j <= integer.allocation.total_energy_j * (1 + 1e-9)


def test_nlp_fixed_mu_definition(request_ref):
    prob = request_ref.problem()
    mu = np.array([0, 5, 10, 10, 5])
    alloc = solve_nlp_fixed_mu(prob, mu)
    # zero-count nodes transmit nothing; every other node meets its bit target
    assert np.all(alloc.profiles[0].values_w == 0.0)
    for n in range(1, 5):
        assert alloc.delivered_bits[n] == pytest.approx(mu[n] * prob.file_bits, rel=1e-9)
    # energy equals the sum of independent per-node minimum energies
    from georelay.waterfill import solve_cells

    total = sum(
        solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, mu[n] * prob.file_bits, prob.p_max_w).energy_j
        for n, ch in enumerate(prob.channels)
    )
    assert alloc.total_energy_j == pytest.approx(total, rel=1e-12)


def test_reference_mu_vector_feasible_under_cap(request_ref):
    req = dataclasses.replace(request_ref, t_start_s=133.0)
    alloc = solve_nlp_fixed_mu(req.problem(), np.array([0, 5, 10, 10, 5]))
    for prof in alloc.profiles:
        assert np.all(prof.values_w <= req.p_max_w + 1e-12)


def test_master_single_cut_at_optimum_is_tight(request_ref):
    req = dataclasses.replace(request_ref, horizon_s=200.0)
    prob = req.problem()
    exact = dp_solve(prob)
    alloc = solve_nlp_fixed_mu(prob, exact.mu)
    state = OAState()
    state.points.append(OAPoint(tuple(p.values_w.copy() for p in alloc.profiles), exact.mu.astype(float)))
    master = solve_oa_master(prob, state)
    assert master.value == pytest.approx(exact.energy_j, rel=1e-9)
    assert master.value <= exact.energy_j * (1 + 1e-9)


def test_master_cut_gradient_matches_finite_differences(request_ref):
    """Central differences on the bit-constraint function validate the cut slopes."""
    prob = request_ref.problem()
    ch = prob.channels[2]
    u = prob.file_bits
    rng = np.random.default_rng(8)
    p_bar = rng.uniform(0.0, prob.p_max_w, ch.n_cells)
    mu_bar = 7.0

    def f_n(p, mu):
        return (u * mu - ch.bits(p)) / ch.bandwidth_hz

    s_bar = 1.0 + p_bar * ch.gains_per_w
    grad = -(ch.weights_s / math.log(2.0)) * ch.gains_per_w / s_bar
    for k in rng.integers(0, ch.n_cells, size=6):
        eps = 1e-4 * prob.p_max_w
        dp = np.zeros(ch.n_cells)
        dp[k] = eps
        fd = (f_n(p_bar + dp, mu_bar) - f_n(p_bar - dp, mu_bar)) / (2 * eps)
        assert fd == pytest.approx(grad[k], rel=1e-6)
    fd_mu = (f_n(p_bar, mu_bar + 1e-5) - f_n(p_bar, mu_bar - 1e-5)) / 2e-5
    assert fd_mu == pytest.approx(u / ch.bandwidth_hz, rel=1e-9)


def test_oa_single_node_trivial():
    prob = small_problem([1e-2], total_files=3, cap=3)
    res = oa_solve(prob)
    assert res.mu.tolist() == [3]
    assert res.state.iterations <= 1


def test_oa_matches_dp_on_fractional_instances(request_ref):
    for horizon, ts in ((200.0, 0.0), (120.0, 133.0), (250.0, 300.0)):
        req = dataclasses.replace(request_ref, horizon_s=horizon, t_start_s=ts)
        res = oa_min_energy_uplink(req)
        exact = dp_oracle(req)
        assert res.allocation.total_energy_j == pytest.approx(exact.energy_j, rel=1e-6)
        assert int(res.mu.sum()) == req.total_files
        # bounds bracket the exact optimum on every logged iteration
        for it in res.state.history:
            assert it.z_lower <= exact.energy_j * (1 + 1e-9)
            assert it.z_upper >= exact.energy_j * (1 - 1e-9)
        # the greedy is exact: its bounds meet at the returned energy
        assert res.state.z_lower == res.state.z_upper == res.allocation.total_energy_j


def test_oa_bounds_monotone(request_ref):
    req = dataclasses.replace(request_ref, horizon_s=200.0)
    res = oa_min_energy_uplink(req)
    zls = [it.z_lower for it in res.state.history]
    zus = [it.z_upper for it in res.state.history]
    assert all(a <= b + 1e-9 for a, b in zip(zls, zls[1:]))
    assert all(a >= b - 1e-9 for a, b in zip(zus, zus[1:]))


def test_dp_matches_enumeration_downsized():
    rng = np.random.default_rng(17)
    gains = 10 ** rng.uniform(-2.5, -1.5, 4)
    prob = small_problem(list(gains), total_files=6, cap=3)
    res = dp_solve(prob)
    u = prob.file_bits
    from georelay.waterfill import solve_cells

    def split_energy(split):
        total = 0.0
        for n, files in enumerate(split):
            ch = prob.channels[n]
            total += solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, files * u, prob.p_max_w).energy_j
        return total

    best = min(split_energy(s) for s in enumerate_integer_splits(6, [3, 3, 3, 3]))
    assert res.energy_j == pytest.approx(best, rel=1e-12)


def test_dp_lexicographic_tie_break():
    # identical nodes: [1, 2] and [2, 1] tie exactly (convexity rules out
    # lopsided splits); the lexicographically smaller vector wins
    prob = small_problem([1e-2, 1e-2], total_files=3, cap=3)
    res = dp_solve(prob)
    assert res.mu.tolist() == [1, 2]
    assert oa_solve(prob).mu.tolist() == [1, 2]


def synthetic_problem(rng, n_nodes, file_bits=1.6e8, bandwidth=20e6, p_max=900.0, cap=10):
    """N nodes, each seeing one pass of 40..200 one-second cells whose gain
    peaks at a seeded cell and falls off as 1 / (1 + x^2); the file total is
    60% of what the nodes carry at full power within their caps."""
    channels, capacity = [], 0
    for _ in range(n_nodes):
        cells = int(rng.integers(40, 201))
        t = np.arange(cells) + 0.5
        centre, width = rng.uniform(0.2, 0.8) * cells, rng.uniform(0.3, 1.0) * cells
        gains = 10.0 ** rng.uniform(-3.5, -2.5) / (1.0 + ((t - centre) / width) ** 2)
        ch = NodeChannel(0.0, float(cells), 1.0, np.ones(cells), gains, bandwidth)
        channels.append(ch)
        capacity += min(cap, int(ch.bits(np.full(cells, p_max)) // file_bits))
    total = max(1, round(0.6 * capacity))
    return FileAllocationProblem(tuple(channels), total, (cap,) * n_nodes, file_bits, p_max)


@pytest.mark.parametrize("n_nodes", [10, 20, 40])
def test_greedy_matches_dp_on_synthetic_instances(n_nodes):
    for seed in range(2):
        prob = synthetic_problem(np.random.default_rng([seed, n_nodes]), n_nodes)
        res = oa_solve(prob)
        exact = dp_solve(prob)
        assert int(res.mu.sum()) == prob.total_files
        assert np.all(res.mu <= integer_file_caps(prob))
        assert res.allocation.total_energy_j == pytest.approx(exact.energy_j, rel=1e-9)
        assert res.state.iterations == 1


def test_dp_prefers_uniformly_cheaper_node():
    prob = small_problem([5e-2, 1e-3], total_files=3, cap=3)
    res = dp_solve(prob)
    assert res.mu.tolist() == [3, 0]


def test_dp_beats_fixed_split(request_ref):
    exact = dp_oracle(request_ref)
    fixed = solve_nlp_fixed_mu(request_ref.problem(), np.array([10, 10, 10, 0, 0]))
    assert exact.energy_j <= fixed.total_energy_j + 1e-9


def test_returned_mu_is_reconstructable(request_ref, default_config):
    from georelay.coding import check_mu_reconstructable, encode
    from georelay.scenario import build_regen_params

    res = oa_min_energy_uplink(request_ref)
    params = build_regen_params(default_config)
    store = encode(params, 256, seed=5)
    assert int(res.mu.sum()) == params.n_files
    assert check_mu_reconstructable(store, res.mu)


def file_count_step(req, horizon_s: float) -> int:
    """f(T): total integer files deliverable at P_max within the horizon."""
    return int(integer_file_caps(req.problem(horizon_s)).sum())


def test_constant_power_fixed_mu_dominates(request_ref):
    prob = request_ref.problem()
    mu = np.array([10, 10, 10, 0, 0])
    wf = solve_nlp_fixed_mu(prob, mu)
    cp = constant_power_for_targets(prob.channels, mu * prob.file_bits, prob.p_max_w)
    assert wf.total_energy_j <= cp.total_energy_j + 1e-9
    assert np.allclose(cp.delivered_bits[:3], mu[:3] * prob.file_bits, rtol=1e-9)


def test_file_count_step_function(request_ref):
    t_values = np.linspace(20.0, 400.0, 30)
    steps = [file_count_step(request_ref, t) for t in t_values]
    assert all(a <= b for a, b in zip(steps, steps[1:]))
    assert min(steps) >= 0
    caps = integer_file_caps(request_ref.problem(400.0))
    assert steps[-1] == int(caps.sum())


def test_min_time_unbounded_budget(request_ref):
    req = dataclasses.replace(request_ref, e_max_j=None)
    res = min_time_uplink(req)
    assert not res.budget_bound
    m = req.total_files
    assert file_count_step(req, res.floor_s) >= m
    assert file_count_step(req, res.floor_s - 0.01) < m
    assert int(res.result.mu.sum()) == m


def test_min_time_budget_branch(request_ref):
    free = min_time_uplink(dataclasses.replace(request_ref, e_max_j=None))
    floor_res = oa_solve(request_ref.problem(4.0 * free.floor_s))
    budget = 0.5 * (floor_res.allocation.total_energy_j + free.energy_at_t0_j)
    res = min_time_uplink(dataclasses.replace(request_ref, e_max_j=budget))
    assert res.budget_bound
    assert res.duration_s > free.duration_s
    assert abs(res.result.allocation.total_energy_j - budget) <= 1e-3 * budget


def test_oa_energy_decreases_with_horizon(request_ref):
    energies = []
    for horizon in (200.0, 300.0, 450.0, 600.0):
        req = dataclasses.replace(request_ref, horizon_s=horizon)
        energies.append(oa_min_energy_uplink(req).allocation.total_energy_j)
    assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))


def test_infeasible_file_total():
    prob_ok = small_problem([1e-2, 1e-2], total_files=6, cap=3)
    assert oa_solve(prob_ok).mu.sum() == 6
    with pytest.raises(InfeasibleError):
        FileAllocationProblem(prob_ok.channels, 7, (3, 3), prob_ok.file_bits, prob_ok.p_max_w)
    tiny = small_problem([1e-9, 1e-9], total_files=6, cap=3)
    with pytest.raises(InfeasibleError):
        oa_solve(tiny)


def test_request_validation(default_config):
    req = build_uplink_request(default_config)
    with pytest.raises(ValueError):
        dataclasses.replace(req, links=(req.links[0],) * 5)  # duplicate carriers
    with pytest.raises(ValueError):
        dataclasses.replace(req, total_files=51)
