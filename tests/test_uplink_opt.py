import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from georelay.downlink_opt import allocate_for_targets, constant_power_for_targets
from georelay.errors import InfeasibleError
from georelay.link import NodeChannel
from georelay import waterfill
from georelay.scenario import build_uplink_request
from georelay.uplink_opt import (
    FileAllocationProblem,
    integer_file_caps,
    min_time_uplink,
    oa_min_energy_uplink,
    oa_solve,
    solve_nlp_fixed_mu,
)
from georelay.waterfill import group_tables, max_deliverable_bits, solve_cells
from oracles import check_mu_reconstructable, dp_oracle, dp_solve, enumerate_integer_splits


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


@pytest.mark.parametrize("field", ["total_files", "file_bits", "p_max_w"])
def test_nan_problem_constant_is_refused(field):
    problem = small_problem([1e-3, 2e-3])
    with pytest.raises(ValueError, match="bad problem constants"):
        dataclasses.replace(problem, **{field: float("nan")})


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
        # the greedy is exact: its energy is the optimum itself
        assert res.allocation.total_energy_j == pytest.approx(exact.energy_j, rel=1e-9)
        assert int(res.mu.sum()) == req.total_files


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


def pass_channel(rng, cells, bandwidth=20e6):
    """One pass of ``cells`` one-second cells whose gain peaks at a seeded
    cell and falls off as 1 / (1 + x^2)."""
    t = np.arange(cells) + 0.5
    centre, width = rng.uniform(0.2, 0.8) * cells, rng.uniform(0.3, 1.0) * cells
    gains = 10.0 ** rng.uniform(-3.5, -2.5) / (1.0 + ((t - centre) / width) ** 2)
    return NodeChannel(0.0, float(cells), 1.0, np.ones(cells), gains, bandwidth)


def synthetic_problem(rng, n_nodes, file_bits=1.6e8, bandwidth=20e6, p_max=900.0, cap=10):
    """N nodes, each seeing one pass of 40..200 one-second cells; the file
    total is 60% of what the nodes carry at full power within their caps."""
    channels, capacity = [], 0
    for _ in range(n_nodes):
        cells = int(rng.integers(40, 201))
        ch = pass_channel(rng, cells, bandwidth)
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
    from georelay.coding import encode
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


# ------------------------------------------------- grouped breakpoint tables


def same_floats(got, want) -> bool:
    """Bit for bit, the sign of zero included."""
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def assert_grouped_solve_is_per_node(problem, twins=None):
    """``oa_solve`` against the exact DP's counts and, at those counts, every
    float of its result against a lone channel's :func:`solve_cells`; each
    group table's solve against the same solves, masks included
    (:func:`assert_segments_are`). The DP sums a split's energies in the
    order of its recursion, so on the exact tie of two identical channels
    (``twins``) it may give either of them the file: its counts may differ
    from the greedy's by a swap of the two."""
    res = oa_solve(problem)
    dp = dp_solve(problem).mu.tolist()
    if twins is not None and res.mu.tolist() != dp:
        i, j = twins
        dp[i], dp[j] = dp[j], dp[i]
    assert res.mu.tolist() == dp
    p, u = problem.p_max_w, problem.file_bits
    sols = [
        solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, m * u, p)
        for ch, m in zip(problem.channels, res.mu.tolist())
    ]
    alloc = res.allocation
    for prof, sol in zip(alloc.profiles, sols):
        assert prof.values_w.tobytes() == sol.powers_w.tobytes()
    assert same_floats(alloc.energies_j, [sol.energy_j for sol in sols])
    assert same_floats(alloc.delivered_bits, [sol.delivered_bits for sol in sols])
    assert same_floats(alloc.water_levels, [sol.water_level for sol in sols])
    assert same_floats(alloc.total_energy_j, sum(sol.energy_j for sol in sols))
    assert same_floats(alloc.kkt_residual_max, max((sol.kkt_residual for sol in sols), default=0.0))
    for a, b, table in group_tables(problem.channels, p):
        assert_segments_are(table, res.mu[a:b] * u, sols[a:b])
    return res


# a budget a few short channels straddle, which keeps the DP oracle quick
SMALL_BUDGET = 16
LENGTHS = (0, 1, 5, SMALL_BUDGET - 1, SMALL_BUDGET, SMALL_BUDGET + 1, 2 * SMALL_BUDGET + 3)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.lists(st.tuples(st.sampled_from(LENGTHS), st.integers(0, 4)), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    share=st.floats(0.0, 1.0),
    twin=st.booleans(),
)
@example(nodes=[(SMALL_BUDGET - 1, 3)], seed=0, share=1.0, twin=False)
@example(nodes=[(0, 2), (5, 0), (SMALL_BUDGET + 1, 4), (1, 1)], seed=1, share=0.5, twin=True)
@example(nodes=[(SMALL_BUDGET, 4), (1, 4)], seed=2, share=0.0, twin=False)
def test_grouped_greedy_is_the_per_node_greedy(nodes, seed, share, twin):
    """Channel lengths around the group budget, empty channels, storage caps
    of 0, nodes left at zero files, a single node, and (``twin``) node 0's
    channel again as the last node, in another group behind a channel longer
    than the budget: the counts are the DP's, every float is a lone
    channel's, and the twins price alike, the higher index taking the tie."""
    rng = np.random.default_rng(seed)
    channels = [pass_channel(rng, cells) for cells, _ in nodes]
    caps = [cap for _, cap in nodes]
    if twin:
        channels += [pass_channel(rng, 2 * SMALL_BUDGET + 3), channels[0]]
        caps += [2, caps[0]]
    u, p = 2e7, 900.0
    empty = FileAllocationProblem(tuple(channels), 0, tuple(caps), u, p)
    total = int(share * int(integer_file_caps(empty).sum()))
    problem = dataclasses.replace(empty, total_files=total)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(waterfill, "GROUP_CELLS", SMALL_BUDGET)
        res = assert_grouped_solve_is_per_node(problem, (0, len(channels) - 1) if twin else None)
        if twin:
            tables = list(group_tables(problem.channels, p))
            (_, _, first), (last_start, _, last) = tables[0], tables[-1]
            assert last_start > 0
            files = np.arange(1, int(integer_file_caps(empty)[0]) + 1) * u
            assert same_floats(first.energy(files, 0), last.energy(files, len(channels) - 1 - last_start))
            assert res.mu[-1] >= res.mu[0]


# each node's cells, and the groups they make at the real budget and at
# SMALL_BUDGET: nodes 1, 3 and the empty window 4 are never first in a group,
# and at SMALL_BUDGET nodes 3 and 4 sit in the second one
INFEASIBLE_CELLS = (10, 4, 9, 5, 0, 3)
INFEASIBLE_GROUPS = {None: [(0, 6)], SMALL_BUDGET: [(0, 2), (2, 5), (5, 6)]}


@pytest.mark.parametrize("budget", INFEASIBLE_GROUPS)
@pytest.mark.parametrize("node", [1, 3, 4])
def test_grouped_infeasibility_names_the_node(budget, node):
    """On grouped tables an undeliverable node that is not the first of its
    group, in the first group or in a later one, raises "node n: ..." with
    its index n and its full-power bits; the empty window (node 4) raises
    that it cannot deliver bits, with none deliverable."""
    rng = np.random.default_rng(4)
    channels = [pass_channel(rng, cells) for cells in INFEASIBLE_CELLS]
    full = [max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, 900.0) for ch in channels]
    targets = [0.5 * bits for bits in full]
    targets[node] = 2.0 * full[node] if full[node] else 1.0
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(waterfill, "GROUP_CELLS", budget)
        assert [(a, b) for a, b, _ in group_tables(channels, 900.0)] == INFEASIBLE_GROUPS[budget]
        with pytest.raises(InfeasibleError) as exc:
            allocate_for_targets(channels, group_tables(channels, 900.0), targets)
    if node == 4:
        assert str(exc.value) == "node 4: empty window cannot deliver bits"
    else:
        assert str(exc.value).startswith(f"node {node}: bit target {targets[node]:.6g} exceeds")
    assert exc.value.index == node
    assert exc.value.max_bits == full[node]
    assert (full[node] == 0.0) == (node == 4)


# the group tables' edge cases, pinned: (each channel's cells, each target as
# a share of its channel's full-power bits)
EDGE_GROUPS = {
    "empty first": ((0, 7, 12), (0.0, 0.4, 0.7)),
    "empty in the middle": ((7, 0, 12), (0.3, 0.0, 0.9)),
    "empty last": ((7, 12, 0), (0.5, 0.2, 0.0)),
    "empty first, in the middle and last": ((0, 5, 0, 0, 9, 0), (0.0, 0.6, 0.0, 0.0, 0.1, 0.0)),
    "all targets zero": ((6, 0, 11), (0.0, 0.0, 0.0)),
    "one-cell segments": ((1, 9, 1), (0.5, 0.5, 1.0)),
    "a lone one-cell segment": ((1,), (0.6,)),
    "zero targets beside full power": ((8, 8, 8), (1.0, 0.0, 0.35)),
}


def edge_group(rng, cells, shares, p_max=900.0):
    """A group's channels and the targets of ``shares`` of their full power."""
    channels = [pass_channel(rng, n) for n in cells]
    full = [max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, p_max) for ch in channels]
    return channels, [share * bits for share, bits in zip(shares, full)]


def one_table(channels, p_max=900.0):
    """The breakpoint table of ``channels`` that fit in one group."""
    ((first, stop, table),) = group_tables(channels, p_max)
    assert (first, stop) == (0, len(channels))
    return table


def assert_segments_are(table, targets, want):
    """Every column of the table's grouped solve at ``targets``, and the
    zero and saturated masks its solve sets on the way, are the lone
    channels' :class:`~georelay.waterfill.CellSolution` fields ``want`` bit
    for bit."""
    columns = table.solve_group(targets)
    for column, name in zip(columns, ("powers_w", "water_level", "delivered_bits", "energy_j", "kkt_residual")):
        assert len(column) == len(want)
        for value, lone in zip(column, want):
            assert same_floats(value, getattr(lone, name)), name
    _, zero, sat, *_ = table._solve(targets)
    for (a, b), lone in zip(table._cells, want):
        assert same_floats(zero[a:b], lone.zero_mask), "zero_mask"
        assert same_floats(sat[a:b], lone.saturated_mask), "saturated_mask"


def assert_table_solve_is_per_node(table, channels, targets, p_max):
    """The table's solve, masks, levels and residuals included, is a lone
    channel's :func:`solve_cells` bit for bit."""
    want = [solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, t, p_max) for ch, t in zip(channels, targets)]
    assert_segments_are(table, np.array(targets), want)


@pytest.mark.parametrize("case", EDGE_GROUPS)
def test_group_table_edge_cases_are_the_per_node_solves(case):
    """Empty channels first, in the middle and last in a group, a group
    whose targets are all zero, one-cell segments and zero targets beside a
    full-power one: the table's solve is the per-node one, and every price
    of a positive target is its lone table's."""
    cells, shares = EDGE_GROUPS[case]
    channels, targets = edge_group(np.random.default_rng(len(case)), cells, shares)
    table = one_table(channels)
    assert_table_solve_is_per_node(table, channels, targets, 900.0)
    for n, (ch, t) in enumerate(zip(channels, targets)):
        lone = one_table([ch])
        assert same_floats(table.energy(t, n), lone.energy(t))


def test_group_of_channels_with_their_own_bandwidths():
    """Channels of 1, 3, 20 and 5 MHz in one table: each segment's bits
    scale by its own W / ln 2, in its solve and in its prices."""
    rng = np.random.default_rng(9)
    channels = [pass_channel(rng, n, bw) for n, bw in ((12, 1e6), (0, 3e6), (20, 20e6), (7, 5e6))]
    full = [max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, 900.0) for ch in channels]
    targets = [share * bits for share, bits in zip((0.4, 0.0, 0.8, 0.6), full)]
    table = one_table(channels)
    assert_table_solve_is_per_node(table, channels, targets, 900.0)
    for n, (ch, t) in enumerate(zip(channels, targets)):
        assert same_floats(table.energy(t, n), one_table([ch]).energy(t))


def test_group_residuals_land_on_their_segments():
    """At full power the first cell of this two-cell channel is interior
    and rounds a KKT residual of about 1e-13. Between empty channels, and
    behind a far channel whose marks are some 1e16 times its own (the gap
    ratio across the two segments rounds to -1), each segment of the table
    reports its own residual, as its lone solve does, never a neighbour's."""
    rounding = NodeChannel(0.0, 2.0, 1.0, np.ones(2), np.array([0.0018, 0.00241]), 20e6)
    empty = NodeChannel(0.0, 0.0, 1.0, np.zeros(0), np.zeros(0), 20e6)
    far = NodeChannel(0.0, 3.0, 1.0, np.ones(3), np.array([2e-19, 3e-19, 1e-19]), 20e6)
    channels = [empty, rounding, empty, empty, far, rounding, empty]
    full = [max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, 900.0) for ch in channels]
    targets = [share * bits for share, bits in zip((0.0, 1.0, 0.0, 0.0, 0.5, 1.0, 0.0), full)]
    lone = solve_cells(rounding.weights_s, rounding.gains_per_w, rounding.bandwidth_hz, full[1], 900.0)
    assert lone.kkt_residual > 0.0 and not lone.zero_mask[0] and not lone.saturated_mask[0]
    assert_table_solve_is_per_node(one_table(channels), channels, targets, 900.0)


@pytest.mark.parametrize("first", ["energy", "solve"])
def test_a_table_prices_and_solves_in_either_order(first):
    """One table priced, then solved, or solved, then priced, gives what two
    fresh tables give, and leaves its arrays as it built them."""
    channels, targets = edge_group(np.random.default_rng(5), (0, 30, 1, 45, 0), (0.0, 0.5, 1.0, 0.25, 0.0))
    files = np.arange(1, 4)
    nodes = np.repeat([1, 2, 3], files.size)
    asks = np.tile(files / files.size, 3) * np.repeat([targets[1], targets[2], targets[3]], files.size)
    table = one_table(channels)
    built = [getattr(table, name).tobytes() for name in ("heights", "w_int", "e_at", "bits", "full_bits")]
    priced = one_table(channels).energy(asks, nodes)
    if first == "energy":
        assert same_floats(table.energy(asks, nodes), priced)
        assert_table_solve_is_per_node(table, channels, targets, 900.0)
    else:
        assert_table_solve_is_per_node(table, channels, targets, 900.0)
        assert same_floats(table.energy(asks, nodes), priced)
    assert [getattr(table, name).tobytes() for name in ("heights", "w_int", "e_at", "bits", "full_bits")] == built


def test_groups_at_the_budget():
    """Nodes join a group in index order while it holds at most GROUP_CELLS
    cells; a longer channel is a group of its own. At the real budget the
    grouped greedy is still the per-node one."""
    budget = waterfill.GROUP_CELLS
    rng = np.random.default_rng(11)
    lengths = (budget - 1, 1, 1, budget + 1, 0, 5)
    channels = tuple(pass_channel(rng, cells) for cells in lengths)
    assert [(a, b) for a, b, _ in group_tables(channels, 900.0)] == [(0, 2), (2, 3), (3, 4), (4, 6)]
    problem = FileAllocationProblem(channels, 0, (4,) * len(channels), 1.6e8, 900.0)
    total = int(integer_file_caps(problem).sum()) - 1
    assert total > 4
    assert_grouped_solve_is_per_node(dataclasses.replace(problem, total_files=total))


# tracemalloc peak of one oa_solve of the default uplink at a 0.1 s grid
# (24,932 cells), with one breakpoint table per node: 2,048,185 B (numpy
# 2.4.6, Python 3.11). Grouping every node into one table would hold a dozen
# arrays of two entries per cell of all nodes at once.
PER_NODE_PEAK_B = 2_048_185


def test_oa_solve_memory_at_fine_grid(default_config):
    default_config["solver"]["grid_step_s"] = 0.1
    problem = build_uplink_request(default_config).problem()
    assert sum(ch.n_cells for ch in problem.channels) == 24_932
    oa_solve(problem)
    tracemalloc.start()
    try:
        oa_solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * PER_NODE_PEAK_B
