import dataclasses
from types import SimpleNamespace

import pytest

from georelay.errors import InfeasibleError, InternalError
from georelay.horizon import _BRACKET_GROW_LIMIT, MAX_CELLS, budget_horizon, floor_horizon
from georelay.scenario import build_downlink_request


def test_floor_raises_unreachable_after_the_grow_limit():
    calls = []

    def never(horizon):
        calls.append(horizon)
        return False

    unreachable = InfeasibleError("unreachable")
    with pytest.raises(InfeasibleError) as exc:
        floor_horizon(never, 0.0, 1.0, 1e-6, 0.0, unreachable)
    assert exc.value is unreachable
    assert len(calls) == _BRACKET_GROW_LIMIT + 1
    assert calls[-1] == 2.0**_BRACKET_GROW_LIMIT


@pytest.mark.parametrize(
    "threshold, lo, hi, abs_tol, rel_tol",
    [
        (3.7, 0.0, 1.0, 1e-6, 0.0),  # uplink/repair form, bracket grows from 1
        (0.4, 0.0, 1.0, 1e-6, 0.0),  # floor inside the first bracket
        (512.25, 130.0, 130.5, 0.0, 1e-12),  # downlink form, offset by a coverage entry
    ],
)
def test_floor_brackets_the_threshold_within_tolerance(threshold, lo, hi, abs_tol, rel_tol):
    def reaches(horizon):
        return horizon >= threshold

    t0 = floor_horizon(reaches, lo, hi, abs_tol, rel_tol, InfeasibleError("unreachable"))
    tol = abs_tol + rel_tol * max(t0, 1.0)
    assert reaches(t0)
    assert not reaches(t0 - tol)


def _solve(horizon):
    # optimal energy decreasing in the horizon, as in every stage
    return {"horizon": horizon, "energy": 1000.0 / horizon}


def _energy(result):
    return result["energy"]


def _req(e_max):
    # the budget and search settings budget_horizon reads from a stage request
    return SimpleNamespace(e_max_j=e_max, upper_factor=4.0, energy_rel_tol=1e-3)


def test_budget_slack_or_absent_keeps_the_floor():
    for e_max in (None, 100.0, 1000.0):
        res = budget_horizon(_req(e_max), _solve, _energy, 10.0, 1e-5)
        assert (res.duration_s, res.result["horizon"], res.budget_bound, res.energy_at_t0_j) == (10.0, 10.0, False, 100.0)


def test_budget_bisection_meets_the_budget():
    res = budget_horizon(_req(40.0), _solve, _energy, 10.0, 1e-7)
    assert res.budget_bound and res.energy_at_t0_j == 100.0
    assert res.result["horizon"] == res.duration_s
    assert res.duration_s == pytest.approx(25.0, rel=1e-6)
    assert _energy(res.result) <= 40.0


def test_budget_below_the_floor_at_the_search_bound_is_infeasible():
    with pytest.raises(InfeasibleError, match="below the energy floor"):
        budget_horizon(_req(20.0), _solve, _energy, 10.0, 1e-5)
    with pytest.raises(InfeasibleError, match="must be positive"):
        budget_horizon(_req(-1.0), _solve, _energy, 10.0, 1e-5)


def test_budget_missed_by_a_step_in_the_energy_curve_is_an_internal_error():
    def solve(horizon):
        return {"energy": 100.0 if horizon < 20.0 else 10.0}

    with pytest.raises(InternalError):
        budget_horizon(_req(50.0), solve, _energy, 10.0, 1e-5)


@pytest.mark.parametrize("field", ["p_max_w", "horizon_s", "grid_step_s"])
def test_stage_request_rejects_nonpositive_power_horizon_and_grid_step(default_config, field):
    # a zero grid step would divide by zero when the channel grid is built
    req = build_downlink_request(default_config)
    with pytest.raises(ValueError, match="must be positive"):
        dataclasses.replace(req, **{field: 0.0})


def test_stage_request_bounds_the_cells_of_every_channel(default_config):
    req = build_downlink_request(default_config)
    with pytest.raises(ValueError, match=f"more than {MAX_CELLS} grid cells"):
        dataclasses.replace(req, horizon_s=(MAX_CELLS + 1) * req.grid_step_s)
    dataclasses.replace(req, horizon_s=MAX_CELLS * req.grid_step_s)
    # a search horizon past the bound is infeasible before any cell is built
    with pytest.raises(InfeasibleError, match=f"more than {MAX_CELLS} grid cells"):
        req.channel(0, horizon_s=req.entry_s(0) + (MAX_CELLS + 1) * req.grid_step_s)
    assert req.channel(0, horizon_s=req.entry_s(0) + MAX_CELLS * req.grid_step_s).n_cells == MAX_CELLS
