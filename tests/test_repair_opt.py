import dataclasses
import itertools

import numpy as np
import pytest

from georelay.coding import OperatingPoint, RegenParams, repair_requirement
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
    plan = repair_requirement(request_ref.point, request_ref.params)
    assert (plan.total_files, plan.helpers, plan.per_helper_files) == (20, 4, 5)
    assert request_ref.params.n_files == 30


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
        (sum(costs[h] for h in subset), subset)
        for subset in itertools.combinations(req.helpers, req.params.repair_d)
        if all(h in costs for h in subset)
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


def test_insufficient_helpers():
    params = RegenParams(30, 5, 3, 4, 10, 5)
    with pytest.raises(InfeasibleError):
        # only 3 survivors but D = 4 required
        from georelay.geometry import ConstellationScenario
        from georelay.link import LinkParams

        sc = ConstellationScenario(
            earth_radius_m=6371e3,
            geos_altitude_m=35786e3,
            geos_coverage_angle_rad=0.2,
            leos_altitude_m=(500e3, 700e3, 900e3, 1100e3),
            leos_velocity_mps=(7200.0, 7300.0, 7400.0, 7500.0),
            leos_phase_offset_rad=(0.05, 0.03, 0.01, 0.0),
            entry_boundary_angle_rad=-0.7,
        )
        links = tuple(LinkParams(29.5e9 + n * 1e8, 20e6, 20.0, 20.0, 4.0, -223.08) for n in range(4))
        from georelay.repair_opt import RepairRequest

        repair_min_energy(
            RepairRequest(sc, links, params, OperatingPoint.MSR, 0, 0.0, 20.0, 900.0)
        )


def test_mds_baseline_moves_full_source(request_ref):
    res = mds_repair_baseline(request_ref)
    assert res.total_files == 30
    assert int(res.files_per_helper.sum()) == 30
    assert np.all(res.files_per_helper <= request_ref.params.per_node_files)
    assert res.state is not None


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
