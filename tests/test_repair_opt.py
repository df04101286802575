import dataclasses
import itertools

import numpy as np
import pytest

from georelay.coding import OperatingPoint, RegenParams, code_point
from georelay.errors import InfeasibleError
from georelay.repair_opt import (
    mds_repair_baseline,
    mds_repair_min_time,
    repair_min_energy,
    repair_min_time,
)
from georelay.scenario import build_repair_request
from georelay.waterfill import solve_cells


@pytest.fixture()
def request_ref(default_config):
    return build_repair_request(default_config)


def test_reference_plan_single_subset(request_ref):
    """D = N - 1 leaves exactly one helper set: all survivors."""
    res = repair_min_energy(request_ref)
    assert res.helpers == (0, 1, 2, 3)
    assert np.all(res.files_per_helper == 5)
    assert res.total_files == 20


def test_traffic_accounting(request_ref):
    """Regenerating repair moves D * beta files; MDS repair moves all M."""
    p = request_ref.params
    point = code_point(OperatingPoint.MSR, p.n_files, p.reconstruct_k, p.repair_d)
    assert (p.per_node_files, p.per_helper_files) == (point.per_node_files, point.per_helper_files)
    assert (p.repair_d, p.per_helper_files, point.repair_bandwidth) == (4, 5, 20)
    assert p.n_files == 30


@pytest.mark.parametrize(
    "params, message",
    [
        (RegenParams(30, 5, 4, 3, 10, 5), r"need K <= D <= N-1, got K=4, D=3, N=5"),
        (RegenParams(36, 5, 3, 5, 12, 4), r"need K <= D <= N-1, got K=3, D=5, N=5"),
        (RegenParams(31, 5, 3, 4, 10, 5), r"M=31 exceeds the cut-set capacity 30"),
    ],
    ids=["k-above-d", "d-above-survivors", "m-above-capacity"],
)
def test_request_refuses_a_code_no_repair_can_serve(request_ref, params, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(request_ref, params=params)


def test_interior_code_repairs_from_d_helpers_of_beta_files(request_ref):
    """(alpha, beta) = (12, 4) lies strictly between the MSR and MBR points of
    (M, K, D) = (30, 3, 4), with cut-set capacity 32 >= 30: four helpers send
    four files each."""
    params = RegenParams(30, 5, 3, 4, 12, 4, request_ref.params.file_bits)
    req = dataclasses.replace(request_ref, params=params)
    res = repair_min_energy(req)
    assert res.helpers == (0, 1, 2, 3)
    assert res.files_per_helper.tolist() == [4, 4, 4, 4] and res.total_files == 16
    assert np.allclose(res.allocation.delivered_bits, 4 * params.file_bits, rtol=1e-9)


def test_each_helper_delivers_exact_beta(request_ref):
    res = repair_min_energy(request_ref)
    beta_bits = request_ref.params.per_helper_files * request_ref.params.file_bits
    assert np.allclose(res.allocation.delivered_bits, beta_bits, rtol=1e-9)
    assert np.all(res.allocation.energies_j > 0)


def _enumeration_oracle(req):
    """The cheapest helper subset and its energy, by enumerating every subset."""
    beta_bits = req.params.per_helper_files * req.params.file_bits
    costs = {}
    for h in req.helpers:
        ch = req.channel(h)
        try:
            costs[h] = solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, beta_bits, req.p_max_w).energy_j
        except InfeasibleError:
            pass
    return min(
        (
            (sum(costs[h] for h in subset), subset)
            for subset in itertools.combinations(req.helpers, req.params.repair_d)
            if all(h in costs for h in subset)
        ),
        default=None,
    )


def test_subset_enumeration_matches_split_oracle(request_ref):
    """Cross-check against the {0, beta} per-helper split formulation.

    Storage-optimal point with beta = alpha gives D = K = 3 < N - 1, so the
    helper subset is a real choice (4 candidates, 4 subsets).
    """
    params = RegenParams(30, 5, 3, 3, 10, 10, request_ref.params.file_bits)
    req = dataclasses.replace(request_ref, params=params)
    res = repair_min_energy(req)
    assert len(res.helpers) == 3
    best = _enumeration_oracle(req)
    assert res.allocation.total_energy_j == pytest.approx(best[0], rel=1e-12)
    assert res.helpers == best[1]


def test_cheapest_helpers_skip_an_infeasible_helper(request_ref):
    """A helper that cannot deliver beta files at P_max never joins the set,
    even when it would otherwise be among the cheapest."""
    params = RegenParams(30, 5, 3, 3, 10, 10, request_ref.params.file_bits)
    req = dataclasses.replace(request_ref, params=params)
    cheapest = repair_min_energy(req).helpers
    links = list(req.links)
    links[cheapest[0]] = dataclasses.replace(links[cheapest[0]], attenuation_db=200.0)
    req = dataclasses.replace(req, links=tuple(links))
    res = repair_min_energy(req)
    best = _enumeration_oracle(req)
    assert cheapest[0] not in res.helpers
    assert res.allocation.total_energy_j == pytest.approx(best[0], rel=1e-12)
    assert res.helpers == best[1]
    # with two of the four helpers out, two feasible ones cannot make up D = 3
    links[res.helpers[0]] = dataclasses.replace(links[res.helpers[0]], attenuation_db=200.0)
    with pytest.raises(InfeasibleError):
        repair_min_energy(dataclasses.replace(req, links=tuple(links)))


def _random_repair_request(base, rng, n_leos, d):
    """A seeded N-LEO request on ``base``'s constants with D = d at MSR, where
    a random number of the survivors (up to N - 1 - D) cannot deliver beta
    files at P_max."""
    phases = np.concatenate(([0.0], rng.uniform(0.01, 0.25, n_leos - 1)))
    rng.shuffle(phases)
    scenario = dataclasses.replace(
        base.scenario,
        leos_altitude_m=tuple(rng.uniform(500e3, 1300e3, n_leos)),
        leos_velocity_mps=tuple(rng.uniform(7200.0, 7600.0, n_leos)),
        leos_phase_offset_rad=tuple(phases),
    )
    links = [
        dataclasses.replace(base.links[0], carrier_hz=29.5e9 + 0.375e9 * n, attenuation_db=rng.uniform(2.0, 10.0))
        for n in range(n_leos)
    ]
    failed = int(rng.integers(n_leos))
    survivors = [n for n in range(n_leos) if n != failed]
    for n in rng.choice(survivors, size=int(rng.integers(n_leos - d)), replace=False):
        links[n] = dataclasses.replace(links[n], attenuation_db=200.0)
    k = int(rng.integers(1, d + 1))
    beta = int(rng.integers(1, 4))
    alpha = (d - k + 1) * beta
    params = RegenParams(k * alpha, n_leos, k, d, alpha, beta, base.params.file_bits)
    return dataclasses.replace(
        base, scenario=scenario, links=tuple(links), params=params, failed_node=failed
    )


@pytest.mark.parametrize("n_leos", range(4, 9))
def test_regenerating_repair_matches_enumeration_on_random_instances(request_ref, n_leos):
    """The greedy's D cheapest feasible helpers are the cheapest D-subset, for
    every D from 2 to N - 1, with some helpers unable to deliver beta files."""
    rng = np.random.default_rng(n_leos)
    weak_total = 0
    for d in range(2, n_leos):
        req = _random_repair_request(request_ref, rng, n_leos, d)
        weak = {h for h in req.helpers if req.links[h].attenuation_db == 200.0}
        best = _enumeration_oracle(req)
        res = repair_min_energy(req)
        assert res.allocation.total_energy_j == pytest.approx(best[0], rel=1e-12)
        assert res.helpers == best[1]
        assert not weak & set(res.helpers)
        assert len(res.allocation.energies_j) == d == len(res.allocation.profiles)
        weak_total += len(weak)
    assert weak_total > 0


def test_exact_tie_goes_to_the_higher_helper_index(request_ref):
    """Two helpers on identical channels cost exactly the same; the greedy's
    documented policy sends the tied block to the higher index."""
    def twin(values):
        return (values[0], values[0], *values[2:])

    # LEO 1 flies LEO 0's orbit on LEO 0's link, so both see the failed LEO 4 alike
    sc = request_ref.scenario
    scenario = dataclasses.replace(
        sc,
        leos_altitude_m=twin(sc.leos_altitude_m),
        leos_velocity_mps=twin(sc.leos_velocity_mps),
        leos_phase_offset_rad=twin(sc.leos_phase_offset_rad),
    )
    params = RegenParams(30, 5, 3, 3, 10, 10, request_ref.params.file_bits)
    req = dataclasses.replace(request_ref, scenario=scenario, links=twin(request_ref.links), params=params)
    ch0, ch1 = req.channel(0), req.channel(1)
    assert np.array_equal(ch0.weights_s, ch1.weights_s) and np.array_equal(ch0.gains_per_w, ch1.gains_per_w)
    # helpers 2 and 3 are the cheapest; 0 and 1 tie exactly for the third block
    energy, _ = _enumeration_oracle(req)
    res = repair_min_energy(req)
    assert res.helpers == (1, 2, 3)
    assert res.allocation.total_energy_j == energy
    assert repair_min_time(req).result.helpers == (1, 2, 3)


def test_insufficient_helpers():
    params = RegenParams(30, 5, 3, 4, 10, 5)
    with pytest.raises(InfeasibleError):
        # only 3 survivors but D = 4 required
        from georelay.geometry import ConstellationScenario
        from georelay.link import LinkParams

        sc = ConstellationScenario(
            earth_radius_m=6371e3,
            geos_altitude_m=35786e3,
            leos_altitude_m=(500e3, 700e3, 900e3, 1100e3),
            leos_velocity_mps=(7200.0, 7300.0, 7400.0, 7500.0),
            leos_phase_offset_rad=(0.05, 0.03, 0.01, 0.0),
            entry_boundary_angle_rad=-0.7,
        )
        links = tuple(LinkParams(29.5e9 + n * 1e8, 20e6, 20.0, 20.0, 4.0, -223.08) for n in range(4))
        from georelay.repair_opt import RepairRequest

        repair_min_energy(
            RepairRequest(
                scenario=sc, links=links, params=params, failed_node=0,
                t_start_s=0.0, horizon_s=20.0, p_max_w=900.0,
            )
        )


def test_mds_baseline_moves_full_source(request_ref):
    res = mds_repair_baseline(request_ref)
    assert res.total_files == 30
    assert int(res.files_per_helper.sum()) == 30
    assert np.all(res.files_per_helper <= request_ref.params.per_node_files)


def test_regenerating_beats_mds_on_reference_sweep(request_ref, default_config):
    for ts in (0.0, 200.0, 400.0, 600.0):
        req = dataclasses.replace(request_ref, t_start_s=ts)
        regen = repair_min_energy(req)
        mds = mds_repair_baseline(req)
        assert regen.allocation.total_energy_j <= mds.allocation.total_energy_j + 1e-9


def test_min_time_unbounded(request_ref):
    req = dataclasses.replace(request_ref, e_max_j=None)
    res = repair_min_time(req)
    assert not res.budget_bound
    # at the returned duration every helper can just deliver beta files at P_max
    beta_bits = req.params.per_helper_files * req.params.file_bits
    for h in req.helpers:
        ch = req.channel(h, horizon_s=res.duration_s)
        assert ch.bits(np.full(ch.n_cells, req.p_max_w)) >= beta_bits * (1 - 1e-9)
    worst = max(
        1
        for h in req.helpers
        if req.channel(h, horizon_s=res.duration_s * (1 - 1e-5)).bits(
            np.full(req.channel(h, horizon_s=res.duration_s * (1 - 1e-5)).n_cells, req.p_max_w)
        )
        < beta_bits
    )
    assert worst == 1  # some helper is exactly at the boundary


def test_min_time_budget_branch(request_ref):
    free = repair_min_time(dataclasses.replace(request_ref, e_max_j=None))
    floor_energy = repair_min_energy(request_ref, horizon_s=4.0 * free.duration_s).allocation.total_energy_j
    budget = 0.5 * (floor_energy + free.energy_at_t0_j)
    res = repair_min_time(dataclasses.replace(request_ref, e_max_j=budget))
    assert res.budget_bound
    assert abs(res.result.allocation.total_energy_j - budget) <= 1e-3 * budget
    assert res.duration_s > free.duration_s


def test_regen_repair_time_beats_mds(request_ref):
    for ts in (0.0, 300.0, 600.0):
        req = dataclasses.replace(request_ref, t_start_s=ts)
        regen = repair_min_time(req)
        mds = mds_repair_min_time(req)
        assert regen.duration_s <= mds.duration_s + 1e-9
