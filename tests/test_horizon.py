import csv
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from georelay import downlink_opt, horizon, link, uplink_opt
from georelay.cli import main
from georelay.downlink_opt import min_energy_downlink, min_time_downlink
from georelay.errors import InfeasibleError, InternalError
from georelay.geometry import rotation_angle
from georelay.horizon import MAX_CELLS, StageRequest, budget_horizon, floor_horizon, refuse_budget_below_floor
from georelay.repair_opt import _mds_problem, _regen_problem, mds_repair_min_time, repair_min_time
from georelay.scenario import build_downlink_request, build_repair_request, build_uplink_request, resolve_config
from georelay.uplink_opt import UplinkRequest, min_time_uplink, oa_solve
from georelay.waterfill import max_deliverable_bits
from oracles import bisect_floor, floor_oracle
from test_repair_opt import _random_repair_request


@dataclasses.dataclass(frozen=True, kw_only=True)
class _FlatRequest(StageRequest):
    """Links at one constant distance from ``opens_s`` past ``t_start_s``
    on: a node's full-power bits rise by the same amount every second, so
    the threshold of ``bits`` lies ``bits`` over that rate past the opening."""

    opens_s: float = 0.0

    def entry_s(self, n):
        return self.t_start_s + self.opens_s

    def distance(self, n, t):
        return np.full(np.shape(t), 4.0e7)


def _flat_request(default_config, dt, opens=0.0):
    down = build_downlink_request(default_config)
    return _FlatRequest(
        scenario=down.scenario,
        links=down.links,
        t_start_s=0.0,
        horizon_s=10.0,
        p_max_w=down.p_max_w,
        grid_step_s=dt,
        opens_s=opens,
    )


def test_floor_raises_unreachable_at_the_cell_bound(monkeypatch, default_config):
    """The bracket doubles up to MAX_CELLS grid steps, no further; a floor
    at that bound is still found."""
    monkeypatch.setattr(horizon, "MAX_CELLS", 3000)
    req = _flat_request(default_config, 0.5)
    calls = []
    ceiling = _FlatRequest.bits_ceiling

    def recorded(self, n, horizon_s=None):
        calls.append(horizon_s)
        return ceiling(self, n, horizon_s)

    monkeypatch.setattr(_FlatRequest, "bits_ceiling", recorded)
    never = 2.0 * ceiling(req, 0, 1500.0)
    unreachable = InfeasibleError("unreachable")
    with pytest.raises(InfeasibleError) as exc:
        floor_horizon(req, (0,), never, (1,), 1, 1e-6, 0.0, unreachable)
    assert exc.value is unreachable
    assert calls == [2.0**k for k in range(11)] + [1500.0]
    t0 = floor_horizon(req, (0,), req.full_bits(0, 1500.0), (1,), 1, 1e-6, 0.0, unreachable)
    assert 1500.0 - 1e-6 <= t0 <= 1500.0


@pytest.mark.parametrize(
    "threshold, opens, first_cell_end, abs_tol, rel_tol",
    [
        (3.7, 0.0, 1.0, 1e-6, 0.0),  # uplink/repair form, bracket grows from 1
        (0.4, 0.0, 1.0, 1e-6, 0.0),  # floor inside the first bracket
        (512.25, 130.0, 130.5, 0.0, 1e-12),  # downlink form, offset by a coverage entry
    ],
)
def test_floor_brackets_the_threshold_within_tolerance(
    default_config, threshold, opens, first_cell_end, abs_tol, rel_tol
):
    """A window opening at ``opens`` on a grid of ``first_cell_end - opens``:
    the floor lands within the stop width above the threshold."""
    req = _flat_request(default_config, first_cell_end - opens, opens)
    bits = (threshold - opens) * req.full_bits(0, opens + 1.0)

    def reaches(horizon):
        return req.full_bits(0, horizon) >= bits

    t0 = floor_horizon(req, (0,), bits, (1,), 1, abs_tol, rel_tol, InfeasibleError("unreachable"))
    tol = abs_tol + rel_tol * max(t0, 1.0)
    assert reaches(t0)
    assert not reaches(t0 - tol)
    assert t0 == pytest.approx(threshold, rel=1e-12, abs=tol)


def _solve(horizon):
    # optimal energy decreasing in the horizon, as in every stage, with its slope
    return {"horizon": horizon, "energy": 1000.0 / horizon, "slope": -1000.0 / horizon**2}


def _energy(result):
    return result["energy"]


def _slope(horizon, result):
    return result["slope"]


def _req(e_max):
    # the budget, search settings and grid step budget_horizon reads from a stage request
    return SimpleNamespace(e_max_j=e_max, upper_factor=4.0, grid_step_s=1.0)


def test_budget_slack_or_absent_keeps_the_floor():
    for e_max in (None, 100.0, 1000.0):
        res = budget_horizon(_req(e_max), _solve, _energy, _slope, 10.0, 1e-5)
        assert (res.duration_s, res.result["horizon"], res.budget_bound, res.energy_at_t0_j) == (10.0, 10.0, False, 100.0)


def test_budget_bisection_meets_the_budget():
    res = budget_horizon(_req(40.0), _solve, _energy, _slope, 10.0, 1e-7)
    assert res.budget_bound and res.energy_at_t0_j == 100.0
    assert res.result["horizon"] == res.duration_s
    assert res.duration_s == pytest.approx(25.0, rel=1e-6)
    assert res.result["energy"] <= 40.0


def test_budget_below_the_floor_at_the_search_bound_is_infeasible():
    with pytest.raises(InfeasibleError, match="budget 20 J below the energy floor 25 J at the search bound 40 s"):
        budget_horizon(_req(20.0), _solve, _energy, _slope, 10.0, 1e-5)
    with pytest.raises(InfeasibleError, match="must be positive"):
        budget_horizon(_req(-1.0), _solve, _energy, _slope, 10.0, 1e-5)


def test_uplink_budget_met_inside_a_step_of_the_energy_curve(tmp_path):
    """At the reference scenario's 210 kJ, E* of the uplink drops past the
    budget in one step, where LEO 3 can first deliver a 9th file and takes
    one from LEO 2. The search returns that step's horizon: exit 0,
    budget-bound, within the budget, and the solve one stop width shorter
    exceeds it."""
    assert main(["uplink-time", "--emax", "210000", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "uplink-time.csv", newline="") as f:
        total = list(csv.DictReader(f))[-1]
    assert total["budget_bound"] == "True" and float(total["energy_j"]) <= 210000.0
    up = dataclasses.replace(build_uplink_request(resolve_config({})), e_max_j=210000.0)
    res = min_time_uplink(up)
    assert res.duration_s == float(total["duration_s"])
    shorter = res.duration_s - 1e-5 * max(res.floor_s, 1.0)
    assert oa_solve(up.problem(shorter)).allocation.total_energy_j > 210000.0


@pytest.mark.parametrize("ts", ["0", "143", "1e7"])
@pytest.mark.parametrize(
    "command, budgets",
    [("uplink-time", (150000, 190000, 210000, 240000)), ("repair", (800, 1500, 3000, 6000, 12000))],
    ids=["uplink", "repair"],
)
def test_budget_bound_time_solves_end_in_a_result_or_infeasible(tmp_path, command, budgets, ts):
    """Time solves over a grid of start times and budgets, some inside a
    step of the energy curve, each end in a result (exit 0) or a refusal as
    infeasible (exit 3), never in an internal failure."""
    for e_max in budgets:
        assert main([command, "--ts", ts, "--emax", str(e_max), "--out", str(tmp_path)]) in (0, 3), e_max


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


_BUILDERS = (build_downlink_request, build_uplink_request, build_repair_request)


def _assert_same_channel(got, want):
    assert (got.t_start_s, got.t_end_s, got.grid_step_s, got.bandwidth_hz) == (
        want.t_start_s,
        want.t_end_s,
        want.grid_step_s,
        want.bandwidth_hz,
    )
    assert got.weights_s.dtype == want.weights_s.dtype and got.gains_per_w.dtype == want.gains_per_w.dtype
    assert got.weights_s.tobytes() == want.weights_s.tobytes()
    assert got.gains_per_w.tobytes() == want.gains_per_w.tobytes()


@pytest.mark.parametrize("build", _BUILDERS, ids=["downlink", "uplink", "repair"])
@pytest.mark.parametrize("dt", [1.0, 0.5, 0.1])
def test_channel_cuts_equal_fresh_builds_bit_for_bit(monkeypatch, default_config, build, dt):
    """Every channel a request serves is build_channel over its window, bit
    for bit, and only a horizon needing more cells than any before builds."""
    builds = []

    def counted(*args):
        builds.append(args)
        return link.build_channel(*args)

    monkeypatch.setattr(horizon, "build_channel", counted)
    req = dataclasses.replace(build(default_config), grid_step_s=dt, t_start_s=133.0)
    n_leos = req.scenario.n_leos
    nodes = getattr(req, "helpers", range(n_leos))
    # shrink, grow past the longest, an empty window for the nodes not yet
    # in coverage, ends on a cell boundary from t_start and from the first
    # node's window start, and the request's own horizon
    on_boundary = req.entry_s(nodes[0]) - req.t_start_s + 73 * dt
    horizons = [300.0, 120.3, 450.7, 450.7 - dt / 3, 1200.25, 1200.0, 10.0, 50 * dt, on_boundary, None]
    longest = [0] * n_leos
    expected_builds = 0
    for h in horizons:
        for n in nodes:
            want = link.build_channel(req.links[n], lambda t, n=n: req.distance(n, t), req.window(n, h), dt)
            _assert_same_channel(req.channel(n, h), want)
            if want.n_cells > longest[n]:
                longest[n] = want.n_cells
                expected_builds += 1
    # repair windows open at t_start, so only its horizons give no empty one
    assert 0 in {req.channel(n, 10.0).n_cells for n in nodes} or build is build_repair_request
    assert len(builds) == expected_builds
    # one channel per node at most, the longest served
    assert sorted(req._longest) == [n for n in range(n_leos) if longest[n]]
    assert [req._longest[n].n_cells for n in sorted(req._longest)] == [c for c in longest if c]


def test_budget_search_stops_at_the_cell_bound(monkeypatch, default_config):
    """A search bound of upper_factor * T0 past the cell bound is held at
    MAX_CELLS grid steps: budgets a default search meets are met there."""
    monkeypatch.setattr(horizon, "MAX_CELLS", 3000)
    config = resolve_config(
        {
            "solver": {"time_upper_factor": 1e6},
            "downlink": {"e_max_j": 21500.0},
            "uplink": {"e_max_j": 190000.0},
            "repair": {"e_max_j": 3000.0},
        }
    )
    down = build_downlink_request(config)
    up = build_uplink_request(config)
    rep = build_repair_request(config)
    solved = [
        (down, min_time_downlink(down)[0].result.total_energy_j),
        (up, min_time_uplink(up).result.allocation.total_energy_j),
        (rep, repair_min_time(rep).result.allocation.total_energy_j),
    ]
    for req, energy in solved:
        assert abs(energy - req.e_max_j) <= 1e-3 * req.e_max_j


@pytest.mark.parametrize("command, emax", [("downlink-time", "21500"), ("uplink-time", "190000"), ("repair", "3000")])
def test_cli_budget_search_within_the_cell_bound(monkeypatch, tmp_path, capsys, command, emax):
    monkeypatch.setattr(horizon, "MAX_CELLS", 3000)
    scenario = tmp_path / "factor.json"
    scenario.write_text('{"solver": {"time_upper_factor": 1e6}}')
    common = ["--scenario", str(scenario), "--out", str(tmp_path)]
    assert main([command, "--emax", emax, *common]) == 0
    # a budget below the energy floor at the held bound is still infeasible
    assert main([command, "--emax", "1", *common]) == 3
    assert "below the energy floor" in capsys.readouterr().err


def test_cell_check_passes_at_the_bound_despite_rounding(monkeypatch, default_config):
    """At horizon MAX_CELLS * dt the window t_start + h - t_start can round
    past MAX_CELLS steps; the window still holds MAX_CELLS cells."""
    monkeypatch.setattr(horizon, "MAX_CELLS", 3000)
    dt = 0.1
    bound = 3000 * dt
    t_start = next(t for t in (133.0 + 0.37 * k + 1e-7 * k for k in range(20000)) if ((t + bound) - t) / dt > 3000)
    req = dataclasses.replace(build_repair_request(default_config), grid_step_s=dt, t_start_s=t_start)
    assert req.channel(0, bound).n_cells == 3000
    with pytest.raises(InfeasibleError, match="more than 3000 grid cells"):
        req.channel(0, bound + dt)


def _counted(solve):
    calls = []

    def counted(horizon):
        calls.append(horizon)
        return solve(horizon)

    return counted, calls


def _bisection_steps(req, t0, rel_tol):
    """Solves bisection takes inside the budget bracket of ``budget_horizon``."""
    hi = min(req.upper_factor * t0, MAX_CELLS * req.grid_step_s)
    return math.ceil(math.log2((hi - t0) / (rel_tol * max(t0, 1.0))))


def _staircase(horizon):
    # 2 J down per whole second past 10 s: flat between the steps
    return {"energy": 100.0 - 2.0 * math.floor(horizon - 10.0), "slope": 0.0}


def _flat_in_places(horizon):
    # 1000 / T, held at 1000 / 15 from 15 s to 22 s, then 1000 / (T - 7)
    g = min(horizon, 15.0) + max(horizon - 22.0, 0.0)
    return {"energy": 1000.0 / g, "slope": 0.0 if 15.0 <= horizon <= 22.0 else -1000.0 / g**2}


def _least_flat_horizon(e_max):
    g = 1000.0 / e_max
    return g if g <= 15.0 else g + 7.0


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-7])
@pytest.mark.parametrize(
    "solve, budgets, least",
    [
        (_solve, np.linspace(25.5, 99.5, 23), lambda e_max: 1000.0 / e_max),
        (_staircase, [98.0, 90.0, 64.0, 50.0, 42.0], lambda e_max: 10.0 + (100.0 - e_max) / 2.0),
        (_flat_in_places, np.linspace(30.5, 99.5, 23), _least_flat_horizon),
    ],
    ids=["smooth", "staircase", "flat-in-places"],
)
def test_newton_takes_at_most_one_solve_more_than_bisection(solve, budgets, least, rel_tol):
    """The Newton budget search stays within one solve of bisection's on
    smooth, stepped and partly flat energy curves, and returns the feasible
    end of a bracket no wider than the stop width."""
    t0 = 10.0
    tol = rel_tol * t0
    for e_max in budgets:
        req = _req(float(e_max))
        counted, calls = _counted(solve)
        res = budget_horizon(req, counted, _energy, _slope, t0, rel_tol)
        assert len(calls) - 2 <= _bisection_steps(req, t0, rel_tol) + 1, e_max
        assert res.budget_bound and res.result["energy"] <= e_max
        assert res.result == solve(res.duration_s)
        want = least(float(e_max))
        assert want - 1e-12 * want <= res.duration_s <= want + tol, e_max


def test_newton_beats_bisection_on_the_smooth_curve():
    """On 1000 / T the Newton steps meet every budget in at most 8 solves
    besides T0 and the bound, where bisection takes more."""
    for e_max in np.linspace(25.5, 99.5, 23):
        counted, calls = _counted(_solve)
        budget_horizon(_req(float(e_max)), counted, _energy, _slope, 10.0, 1e-7)
        assert len(calls) - 2 <= 8 < _bisection_steps(_req(e_max), 10.0, 1e-7)


def _one_step(horizon):
    # 100 J before 20 s, 10 J from then on
    return {"energy": 100.0 if horizon < 20.0 else 10.0, "slope": 0.0}


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-7])
@pytest.mark.parametrize(
    "solve, e_max, step", [(_one_step, 50.0, 20.0), (_staircase, 51.0, 35.0)], ids=["one-step", "staircase"]
)
def test_budget_inside_a_step_returns_the_step_horizon(solve, e_max, step, rel_tol):
    """A budget that the energy crosses in a step, not continuously, is met
    at the step's horizon, within the stop width: budget-bound, below the
    budget by the step, and after no more solves than bisection + 1."""
    req, t0 = _req(e_max), 10.0
    counted, calls = _counted(solve)
    res = budget_horizon(req, counted, _energy, _slope, t0, rel_tol)
    assert len(calls) - 2 <= _bisection_steps(req, t0, rel_tol) + 1
    assert res.budget_bound and res.result == solve(res.duration_s) and res.result["energy"] < e_max
    assert step <= res.duration_s <= step + rel_tol * t0


def test_budget_search_that_ends_with_an_open_bracket_is_an_internal_error(monkeypatch):
    """A search that runs out of steps before its bracket closes raises."""
    monkeypatch.setattr(horizon, "_MAX_STEPS", 3)
    with pytest.raises(InternalError, match="without closing its bracket"):
        budget_horizon(_req(40.0), _solve, _energy, _slope, 10.0, 1e-7)


def _crawl(horizon):
    # log(E / 50) = u^9 with u = (20 - T) / 10: Newton from below moves 1/9
    # of the way to T = 20 per step; E rounds to 50 J from about 19.83 s on
    u = (20.0 - horizon) / 10.0
    e = 50.0 * math.exp(u**9)
    return {"energy": e, "slope": -e * 0.9 * u**8}


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-7])
def test_newton_crawl_falls_back_to_bisection_within_the_stated_worst_case(monkeypatch, rel_tol):
    """On a curve where Newton converges only linearly, the search bisects
    after _NEWTON_MISSES steps that leave the bracket wider than half, and
    takes no more than bisection + _NEWTON_MISSES solves besides T0 and the
    bound, its docstring's worst case; without the guard it takes more."""
    req, t0 = _req(50.0), 10.0
    worst = _bisection_steps(req, t0, rel_tol) + horizon._NEWTON_MISSES
    counted, calls = _counted(_crawl)
    res = budget_horizon(req, counted, _energy, _slope, t0, rel_tol)
    assert len(calls) - 2 <= worst
    assert res.result == _crawl(res.duration_s) and res.result["energy"] <= 50.0
    assert _crawl(res.duration_s - rel_tol * t0)["energy"] > 50.0
    monkeypatch.setattr(horizon, "_NEWTON_MISSES", 10**6)
    unguarded, calls = _counted(_crawl)
    again = budget_horizon(req, unguarded, _energy, _slope, t0, rel_tol)
    assert again.duration_s == pytest.approx(res.duration_s, abs=rel_tol * t0)
    assert len(calls) - 2 > worst


_REFERENCE_BUDGET_CALLS = (
    ["downlink-time", "--emax", "21500", "--dt", "0.1"],
    ["uplink-time", "--emax", "190000", "--dt", "0.5"],
    ["repair", "--emax", "3000", "--dt", "1"],
)


def test_reference_budget_calls_take_fewer_solves(monkeypatch, tmp_path):
    """The budget-bound CLI calls at the benchmark's grid steps: no search
    takes more than bisection + 1 solves or more than 9, the downlink at
    dt 0.1 takes at most 12 (bisection: 27), and all four together take at
    most 30."""
    searches = []  # (command, solves, bisection's solves)

    def counting(req, solve, energy, slope, t0, rel_tol):
        counted, calls = _counted(solve)
        try:
            return budget_horizon(req, counted, energy, slope, t0, rel_tol)
        finally:
            searches.append((command, len(calls), 2 + _bisection_steps(req, t0, rel_tol)))

    monkeypatch.setattr(downlink_opt, "budget_horizon", counting)
    monkeypatch.setattr(uplink_opt, "budget_horizon", counting)
    for args in _REFERENCE_BUDGET_CALLS:
        command = args[0]
        assert main(args + ["--out", str(tmp_path)]) == 0
    assert [c for c, _, _ in searches] == ["downlink-time", "uplink-time", "repair", "repair"]
    for command, solves, bisection in searches:
        assert solves <= min(bisection + 1, 9), command
    assert searches[0][1] <= 12 < searches[0][2]
    assert sum(s for _, s, _ in searches) <= 30


@pytest.mark.parametrize("build", _BUILDERS, ids=["downlink", "uplink", "repair"])
@pytest.mark.parametrize("dt", [1.0, 0.1])
def test_full_bits_equals_the_full_power_bits_of_the_cut(monkeypatch, default_config, build, dt):
    """full_bits(n, T) is max_deliverable_bits of channel(n, T) within 1e-14
    relative: random horizons, empty and one-cell windows, windows of whole
    grid steps, and a horizon past the longest channel, which rebuilds it."""
    builds = []

    def counted(*args):
        builds.append(args)
        return link.build_channel(*args)

    monkeypatch.setattr(horizon, "build_channel", counted)
    req = dataclasses.replace(build(default_config), grid_step_s=dt, t_start_s=133.0)
    nodes = getattr(req, "helpers", range(req.scenario.n_leos))
    rng = np.random.default_rng(11)
    seen_cells = set()

    def check(n, h):
        ch = req.channel(n, h)
        want = max_deliverable_bits(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, req.p_max_w)
        got = req.full_bits(n, h)
        assert abs(got - want) <= 1e-14 * want, (n, h, ch.n_cells)
        seen_cells.add(ch.n_cells)

    for n in nodes:
        opens = req.window(n, 0.0)[0] - req.t_start_s  # the horizon at which node n's window opens
        horizons = [0.0, opens + dt / 3, opens + dt, opens + 37 * dt, opens + 250 * dt]
        horizons += [opens + 37.4 * dt] + list(rng.uniform(0.0, opens + 400 * dt, 12))
        for h in horizons:
            check(n, h)
    assert {0, 1, 37, 250} <= seen_cells
    # past the longest channel: each node's channel and prefix are rebuilt
    before = len(builds)
    for n in nodes:
        prefix = req._full_prefix[n]
        check(n, req.window(n, 0.0)[0] - req.t_start_s + 1000.5 * dt)
        assert req._full_prefix[n] is not prefix and req._longest[n].n_cells == 1001
        check(n, req.window(n, 0.0)[0] - req.t_start_s + 600 * dt)
    assert len(builds) == before + len(nodes)


@pytest.mark.parametrize("build", _BUILDERS, ids=["downlink", "uplink", "repair"])
def test_bits_ceiling_bounds_the_full_power_bits(default_config, build):
    req = dataclasses.replace(build(default_config), grid_step_s=0.5)
    nodes = getattr(req, "helpers", range(req.scenario.n_leos))
    for h in [0.0, 0.3, 1.0, 7.0, 50.0, 333.3, 2000.0]:
        for n in nodes:
            full = req.full_bits(n, h)
            ceiling = req.bits_ceiling(n, h)
            assert full <= ceiling < math.inf
            assert ceiling == 0.0 or full > 1e-3 * ceiling


@pytest.mark.parametrize("n", range(5))
def test_bits_ceiling_holds_at_the_least_distance(default_config, n):
    """One 1 ms cell centred where LEO n passes under GEO 2, at the link's
    least distance: the ceiling still bounds the bits, within 1e-6."""
    req = build_uplink_request(default_config)
    scenario = req.scenario
    rate = scenario.leos_velocity_mps[n] / scenario.leos_radius_m[n]
    aligned = (math.pi - float(rotation_angle(scenario, n, 0.0))) / rate
    dt = 1e-3
    req = dataclasses.replace(req, t_start_s=aligned - dt / 2, grid_step_s=dt)
    assert req.distance(n, np.array([aligned]))[0] == pytest.approx(scenario.geos_radius_m - scenario.leos_radius_m[n])
    full = req.full_bits(n, dt)
    assert full <= req.bits_ceiling(n, dt) <= full * (1.0 + 1e-6)


def test_bits_ceiling_is_infinite_between_leos_of_one_radius(default_config):
    req = build_repair_request(default_config)
    same = dataclasses.replace(req.scenario, leos_altitude_m=(500.0e3,) * req.scenario.n_leos)
    req = dataclasses.replace(req, scenario=same)
    assert all(req.bits_ceiling(n, 10.0) == math.inf for n in req.helpers)
    # no bound, so the floor search runs on the full-power bits alone
    assert repair_min_time(req).floor_s > 0 and mds_repair_min_time(req).floor_s > 0


def test_floor_searches_cut_no_channel(monkeypatch):
    cuts = []
    floors = []
    channel = StageRequest.channel

    def counted_channel(self, n, horizon_s=None):
        cuts.append((n, horizon_s))
        return channel(self, n, horizon_s)

    def counted_floor(*args):
        before = len(cuts)
        try:
            return floor_horizon(*args)
        finally:
            floors.append(len(cuts) - before)

    monkeypatch.setattr(StageRequest, "channel", counted_channel)
    monkeypatch.setattr(downlink_opt, "floor_horizon", counted_floor)
    monkeypatch.setattr(uplink_opt, "floor_horizon", counted_floor)
    for dt in (1.0, 0.1):
        config = resolve_config({"solver": {"grid_step_s": dt}})
        min_time_downlink(build_downlink_request(config))
        min_time_uplink(build_uplink_request(config))
        repair = build_repair_request(config)
        repair_min_time(repair)
        mds_repair_min_time(repair)
    assert len(floors) == 2 * (5 + 3) and cuts
    assert floors == [0] * len(floors)


@pytest.mark.parametrize(
    "user", [{"code": {"file_bits": 1e16}}, {"downlink": {"p_max_w": 1e-6}, "uplink": {"p_max_w": 1e-6}}]
)
def test_unreachable_floor_builds_no_channel_past_the_request(monkeypatch, user):
    """A target that no horizon within MAX_CELLS grid steps can reach is
    refused by the closed-form ceiling, before any channel longer than the
    request's own horizon is built."""
    cells = []

    def counted(*args):
        ch = link.build_channel(*args)
        cells.append(ch.n_cells)
        return ch

    monkeypatch.setattr(horizon, "build_channel", counted)
    config = resolve_config(user)
    down, up = build_downlink_request(config), build_uplink_request(config)
    with pytest.raises(InfeasibleError, match="LEO 0: bit target unreachable in any horizon"):
        min_time_downlink(down)
    with pytest.raises(InfeasibleError, match="file total unreachable within the horizon search bound"):
        min_time_uplink(up)
    own = max(down.horizon_s / down.grid_step_s, up.horizon_s / up.grid_step_s)
    assert max(cells, default=0) <= own


def test_threshold_below_the_float_resolution_ends_in_a_bounded_bisection(monkeypatch, default_config):
    """A stop width under one ulp of the horizon cannot be closed around
    the secant's estimate; the bisection that takes over stops after its
    step bound, at a horizon where the bits reach, within a few ulps of the
    threshold."""
    req = _flat_request(default_config, 1.0)
    bits = 3.7 * req.full_bits(0, 1.0)
    calls = []
    full_bits = _FlatRequest.full_bits

    def counted(self, n, horizon_s=None):
        calls.append(horizon_s)
        return full_bits(self, n, horizon_s)

    monkeypatch.setattr(_FlatRequest, "full_bits", counted)
    t0 = floor_horizon(req, (0,), bits, (1,), 1, 0.0, 1e-17, InfeasibleError("unreachable"))
    assert full_bits(req, 0, t0) >= bits > full_bits(req, 0, t0 - 4 * math.ulp(t0))
    assert t0 == pytest.approx(3.7, rel=1e-14)
    assert len(calls) <= 3 + 2 * horizon._MAX_STEPS


_DOWNLINK_FORM = (0.0, 1e-12)  # (abs_tol, rel_tol) of the downlink floor
_UPLINK_FORM = (1e-6, 0.0)  # and of the uplink and repair floors


def _oracle_threshold(req, n, bits, lo, abs_tol, rel_tol, unreachable):
    def reaches(horizon):
        return req.bits_ceiling(n, horizon) >= bits and req.full_bits(n, horizon) >= bits

    return bisect_floor(req, reaches, lo, lo + req.grid_step_s, abs_tol, rel_tol, unreachable)


@pytest.mark.parametrize("build", _BUILDERS, ids=["downlink", "uplink", "repair"])
@pytest.mark.parametrize("dt", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("form", [_DOWNLINK_FORM, _UPLINK_FORM], ids=["rel", "abs"])
def test_threshold_matches_the_bisection_oracle(default_config, build, dt, form):
    """The single-amount floor against bisection of the full-power
    predicate: random targets, targets on a full-cell prefix value and just
    past one, and a zero target, which needs no horizon. Both land within
    the stop width above the threshold, and the predicate holds at the
    returned horizon and fails one width below."""
    abs_tol, rel_tol = form
    req = dataclasses.replace(build(default_config), grid_step_s=dt, t_start_s=133.0)
    nodes = getattr(req, "helpers", range(req.scenario.n_leos))
    rng = np.random.default_rng(int(10 * dt))
    unreachable = InfeasibleError("unreachable")
    for n in nodes:
        lo = req.window(n, 0.0)[0] - req.t_start_s
        full = req.full_bits(n, lo + 300.0)
        scale = req.links[n].bandwidth_hz / math.log(2.0)
        prefix = req._full_prefix[n]
        on_cell = [prefix[c] * scale for c in rng.integers(1, int(300.0 / dt), 3)]
        targets = list(rng.uniform(0.0, full, 6)) + on_cell + [b * (1.0 + 1e-12) for b in on_cell]
        for bits in targets:
            got = floor_horizon(req, (n,), bits, (1,), 1, abs_tol, rel_tol, unreachable)
            want = _oracle_threshold(req, n, bits, lo, abs_tol, rel_tol, unreachable)
            tol = abs_tol + rel_tol * max(want, 1.0)
            assert abs(got - want) <= tol, (n, bits)
            assert req.full_bits(n, got) >= bits > req.full_bits(n, got - tol)
        assert floor_horizon(req, (n,), 0.0, (1,), 1, abs_tol, rel_tol, unreachable) == 0.0


@pytest.mark.parametrize("form", [_DOWNLINK_FORM, _UPLINK_FORM, (0.0, 1e-17)], ids=["rel", "abs", "sub-ulp"])
def test_threshold_a_rounding_error_past_its_cell_is_reached(default_config, form):
    """Targets on a full-cell prefix value whose full-power bits at the
    cell's end fall a rounding error short: the prefix places the threshold
    in that cell, but it lies past the cell's end. The floor still returns
    a horizon past that end, within the stop width and a few ulps, where
    the full-power bits reach the target; with a stop width below one ulp
    that takes a bisection beyond the cell."""
    abs_tol, rel_tol = form
    req = build_downlink_request(default_config)
    unreachable = InfeasibleError("unreachable")
    cases = []
    for n in range(req.scenario.n_leos):
        opens = req.window(n, 0.0)[0] - req.t_start_s
        req.full_bits(n, opens + 400.0)
        prefix = req._full_prefix[n]
        scale = req.links[n].bandwidth_hz / math.log(2.0)
        for c in range(1, prefix.size):
            bits = prefix[c] * scale
            end = opens + c * req.grid_step_s
            if np.searchsorted(prefix, bits / scale) == c and req.full_bits(n, end) < bits:
                cases.append((n, bits, end))
    assert len(cases) >= 20
    for n, bits, end in cases[:: len(cases) // 20]:
        got = floor_horizon(req, (n,), bits, (1,), 1, abs_tol, rel_tol, unreachable)
        assert req.full_bits(n, got) >= bits, (n, end)
        assert end < got <= end + abs_tol + rel_tol * max(end, 1.0) + 4 * math.ulp(end), (n, end)


@pytest.mark.parametrize("dt", [1.0, 0.1])
def test_threshold_unreachable_on_the_ceiling_and_at_the_cell_bound(monkeypatch, default_config, dt):
    """Past the ceiling at the bound, the stage's error is raised with no
    channel built; between the full-power bits at the bound and the
    ceiling, it is raised once the bits at the bound fall short."""
    monkeypatch.setattr(horizon, "MAX_CELLS", 3000)
    builds = []

    def counted(*args):
        builds.append(args)
        return link.build_channel(*args)

    monkeypatch.setattr(horizon, "build_channel", counted)
    req = dataclasses.replace(build_downlink_request(default_config), grid_step_s=dt, horizon_s=100.0)
    bound = 3000 * dt
    unreachable = InfeasibleError("LEO 4 unreachable")
    with pytest.raises(InfeasibleError) as exc:
        floor_horizon(req, (4,), 1.01 * req.bits_ceiling(4, bound), (1,), 1, 0.0, 1e-12, unreachable)
    assert exc.value is unreachable and not builds
    short = 0.5 * (req.full_bits(4, bound) + req.bits_ceiling(4, bound))
    with pytest.raises(InfeasibleError) as exc:
        floor_horizon(req, (4,), short, (1,), 1, 0.0, 1e-12, unreachable)
    assert exc.value is unreachable
    with pytest.raises(InfeasibleError):
        _oracle_threshold(req, 4, short, 0.0, 0.0, 1e-12, unreachable)


def _random_uplink_request(repair):
    """An uplink request on a random repair request's constellation, links and code."""
    p = repair.params
    return UplinkRequest(
        scenario=repair.scenario,
        links=repair.links,
        t_start_s=repair.t_start_s,
        horizon_s=600.0,
        p_max_w=repair.p_max_w,
        grid_step_s=repair.grid_step_s,
        total_files=p.n_files,
        files_per_leos=p.per_node_files,
        file_bits=p.file_bits,
    )


@pytest.mark.parametrize("n_leos", range(4, 9))
def test_allocation_floors_match_the_oracle_on_random_instances(default_config, n_leos):
    """Uplink, MDS and regenerating T0 against bisection of the full-power
    file counts, on the random instances of the repair tests, where some
    helpers cannot deliver a file. The allocator then finds the file total
    deliverable at T0."""
    base = build_repair_request(default_config)
    rng = np.random.default_rng(n_leos)
    for d in range(2, n_leos):
        repair = dataclasses.replace(_random_repair_request(base, rng, n_leos, d), e_max_j=None)
        uplink = dataclasses.replace(_random_uplink_request(repair), e_max_j=None)
        cases = [
            (mds_repair_min_time, repair, repair.helpers, _mds_problem(repair, 0.0)),
            (repair_min_time, repair, repair.helpers, _regen_problem(repair, 0.0)),
            (min_time_uplink, uplink, range(n_leos), uplink.problem(0.0)),
        ]
        for solve, req, nodes, problem in cases:
            try:
                want = floor_oracle(req, nodes, problem)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve(req)
                continue
            got = solve(req)
            assert abs(got.floor_s - want) <= 1e-6, (solve.__name__, d)


def test_each_threshold_takes_few_full_power_evaluations(monkeypatch):
    """No threshold refinement of the reference time solves at dt 1, 0.5
    and 0.1 takes more than 10 full-power evaluations, and none asks for
    the bits ceiling: the bracket growth has done that once for all."""
    counts = []
    state = {"calls": 0, "ceilings": 0}
    full_bits, bits_ceiling, refine = StageRequest.full_bits, StageRequest.bits_ceiling, horizon._refine

    def counted_full_bits(self, n, horizon_s=None):
        state["calls"] += 1
        return full_bits(self, n, horizon_s)

    def counted_ceiling(self, n, horizon_s=None):
        state["ceilings"] += 1
        return bits_ceiling(self, n, horizon_s)

    def counted_refine(*args):
        state["calls"] = state["ceilings"] = 0
        try:
            return refine(*args)
        finally:
            counts.append((state["calls"], state["ceilings"]))

    monkeypatch.setattr(StageRequest, "full_bits", counted_full_bits)
    monkeypatch.setattr(StageRequest, "bits_ceiling", counted_ceiling)
    monkeypatch.setattr(horizon, "_refine", counted_refine)
    for dt in (1.0, 0.5, 0.1):
        config = resolve_config({"solver": {"grid_step_s": dt}})
        min_time_downlink(dataclasses.replace(build_downlink_request(config), e_max_j=None))
        min_time_uplink(dataclasses.replace(build_uplink_request(config), e_max_j=None))
        repair = dataclasses.replace(build_repair_request(config), e_max_j=None)
        repair_min_time(repair)
        mds_repair_min_time(repair)
    assert len(counts) >= 3 * (5 + 3)
    assert max(calls for calls, _ in counts) <= 10, counts
    assert all(ceilings == 0 for _, ceilings in counts)


@pytest.mark.parametrize("dt", [1.0, 0.1])
def test_floor_on_an_exact_full_power_value_leaves_the_files_deliverable(default_config, dt):
    """A file whose bits, less the caps' slack, equal LEO 4's full-power bits
    at a horizon T* (a whole cell or a random point, before any other LEO
    enters coverage): the floor lands within the stop width of T*, and the
    allocator, whose float64 full-power bits can fall 1e-15 relative below
    the prefix's, still finds the file deliverable there."""
    base = dataclasses.replace(build_uplink_request(default_config), grid_step_s=dt, e_max_j=None)
    opens = base.window(3, 0.0)[0] - base.t_start_s
    rng = np.random.default_rng(3)
    stars = [dt * k for k in rng.integers(1, int(opens / dt), 8)] + list(rng.uniform(dt, opens, 8))
    for star in stars:
        bits = base.full_bits(4, star)
        req = dataclasses.replace(base, total_files=1, files_per_leos=1, file_bits=bits * (1.0 + 1e-12))
        res = min_time_uplink(req)
        assert abs(res.floor_s - star) <= 1e-6, star
        assert list(res.result.mu) == [0, 0, 0, 0, 1]
        assert list(oa_solve(req.problem(res.floor_s)).mu) == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("command", ["downlink-time", "uplink-time", "repair"])
def test_budget_below_the_closed_form_floor_builds_no_channel(monkeypatch, tmp_path, capsys, command):
    """With the search bound at 10^6 cells, a 1 J budget is refused from the
    closed-form energy floor, before any channel is built."""
    builds = []

    def counted(*args):
        builds.append(args)
        return link.build_channel(*args)

    monkeypatch.setattr(horizon, "build_channel", counted)
    scenario = tmp_path / "factor.json"
    scenario.write_text('{"solver": {"time_upper_factor": 1e6}}')
    assert main([command, "--emax", "1", "--scenario", str(scenario), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible: budget 1 J below the energy floor") and err.endswith("J of any horizon\n")
    assert not builds


def _energy_floor(req, nodes, unit, caps, count):
    """The closed-form energy floor from first principles: each bit costs at
    least ln 2 (r1 - r2)^2 / (W L) on a link between orbits r1 and r2, and
    the count cheapest amounts are placed, at most caps[i] on node i."""
    costs = []
    for n, cap in zip(nodes, caps):
        r1, r2 = req.radii(n)
        per_bit = math.log(2.0) * (r1 - r2) ** 2 / (req.links[n].bandwidth_hz * link.aggregate_gain(req.links[n]))
        costs += [unit * per_bit] * cap
    return sum(sorted(costs)[:count])


@pytest.mark.parametrize("dt", [1.0, 0.1])
def test_closed_form_energy_floor_lies_below_every_stage_energy(default_config, dt):
    """The refusal's floor is the closed form of every stage within 1e-6,
    with the uplink's and the MDS files placed under their storage caps,
    and each stage's least energy at four times its floor T0 lies above it,
    so no budget a stage can meet is refused."""
    config = resolve_config({"solver": {"grid_step_s": dt}})
    down = dataclasses.replace(build_downlink_request(config), e_max_j=None)
    up = dataclasses.replace(build_uplink_request(config), e_max_j=None)
    repair = dataclasses.replace(build_repair_request(config), e_max_j=None)
    n = down.scenario.n_leos
    target = down.files_per_leos * down.file_bits
    t0 = min_time_downlink(down)[0].floor_s
    stages = [
        (down, range(n), target, [1] * n, n, min_energy_downlink(down, 4.0 * t0).total_energy_j),
        (up, range(n), up.file_bits, [up.files_per_leos] * n, up.total_files,
         oa_solve(up.problem(4.0 * min_time_uplink(up).floor_s)).allocation.total_energy_j),
    ]
    for problem_fn, solve in ((_mds_problem, mds_repair_min_time), (_regen_problem, repair_min_time)):
        spec = problem_fn(repair, 0.0)
        t0 = solve(repair).floor_s
        energy = oa_solve(problem_fn(repair, 4.0 * t0)).allocation.total_energy_j
        stages.append((repair, repair.helpers, spec.file_bits, spec.max_files_per_node, spec.total_files, energy))
    for req, nodes, unit, caps, count, energy in stages:
        floor = _energy_floor(req, nodes, unit, caps, count)
        assert floor < energy
        for e_max in (energy, floor * (1.0 + 1e-6)):
            refuse_budget_below_floor(dataclasses.replace(req, e_max_j=e_max), nodes, unit, caps, count)
        with pytest.raises(InfeasibleError, match="of any horizon"):
            refuse_budget_below_floor(dataclasses.replace(req, e_max_j=floor * (1.0 - 1e-6)), nodes, unit, caps, count)


def _stage_solves(config, dt):
    """Per stage at grid step ``dt``: its request, the request's node of each
    allocation entry, its minimum-energy allocation at horizon T, and its T0."""
    down, up, rep = (dataclasses.replace(build(config), grid_step_s=dt) for build in _BUILDS)
    return {
        "downlink": (
            down,
            range(5),
            lambda t: min_energy_downlink(down, t),
            lambda: min_time_downlink(down)[0].floor_s,
        ),
        "uplink": (up, range(5), lambda t: oa_solve(up.problem(t)).allocation, lambda: min_time_uplink(up).floor_s),
        "mds": (
            rep,
            rep.helpers,
            lambda t: oa_solve(_mds_problem(rep, t)).allocation,
            lambda: mds_repair_min_time(rep).floor_s,
        ),
        "regenerating": (
            rep,
            rep.helpers,
            lambda t: oa_solve(_regen_problem(rep, t)).allocation,
            lambda: repair_min_time(rep).floor_s,
        ),
    }


_BUILDS = (build_downlink_request, build_uplink_request, build_repair_request)
# horizons inside each stage's budget search range, clear of every node's
# cell boundaries and of changes of the optimal file counts
_SLOPE_HORIZONS = {
    "downlink": (450.37, 520.23, 610.71),
    "uplink": (200.37, 260.33, 400.71),
    "mds": (6.87, 10.61, 15.33),
    "regenerating": (5.87, 7.61, 12.33),
}


def _forward(solve, t, h):
    # one-sided second-order difference from t on, back from t for h < 0
    e = [solve(t + k * h).total_energy_j for k in range(3)]
    return (-3.0 * e[0] + 4.0 * e[1] - e[2]) / (2.0 * h)


@pytest.mark.parametrize("dt", [1.0, 0.1])
@pytest.mark.parametrize("stage", list(_SLOPE_HORIZONS))
def test_energy_slope_matches_central_differences(default_config, stage, dt):
    """dE*/dT by the envelope theorem against a central difference of the
    stage's minimum energy, at rel 1e-6."""
    req, nodes, solve, _ = _stage_solves(default_config, dt)[stage]
    h = 1e-4
    for t in _SLOPE_HORIZONS[stage]:
        lower, upper = solve(t - h), solve(t + h)
        assert [p.values_w.size for p in lower.profiles] == [p.values_w.size for p in upper.profiles], t
        np.testing.assert_allclose(lower.delivered_bits, upper.delivered_bits, rtol=1e-9)
        central = (upper.total_energy_j - lower.total_energy_j) / (2.0 * h)
        assert req.energy_slope(nodes, t, solve(t)) == pytest.approx(central, rel=1e-6), t


@pytest.mark.parametrize("stage", list(_SLOPE_HORIZONS))
def test_energy_slope_at_t0_is_the_right_slope(default_config, stage):
    """At the floor T0, where the energy curves sharply, the slope is the
    one-sided slope toward longer horizons (a difference of 1e-6 s)."""
    req, nodes, solve, floor = _stage_solves(default_config, 1.0)[stage]
    t0 = floor()
    assert req.energy_slope(nodes, t0, solve(t0)) == pytest.approx(_forward(solve, t0, 1e-6), rel=1e-6)


def test_energy_slope_at_a_cell_boundary_is_one_sided(default_config):
    """Every repair helper's window opens at t_start = 0, so at whole
    horizons the last cell is full: the slope there is the left one, and a
    hair past it, where a new cell opens, the right one."""
    req, nodes, solve, _ = _stage_solves(default_config, 1.0)["regenerating"]
    assert req.t_start_s == 0.0
    for t in (7.0, 8.0, 9.0):
        assert req.channel(nodes[0], t).weights_s[-1] == 1.0
        assert req.channel(nodes[0], t + 1e-7).n_cells == t + 1
        assert req.energy_slope(nodes, t, solve(t)) == pytest.approx(_forward(solve, t, -1e-4), rel=1e-6)
        assert req.energy_slope(nodes, t + 1e-7, solve(t + 1e-7)) == pytest.approx(_forward(solve, t, 1e-4), rel=1e-6)


def test_energy_slope_is_one_sided_at_a_change_of_file_counts(default_config):
    """Between 206.25 s and 206.75 s one uplink file moves from LEO 2 to
    LEO 3. E* is the lesser of two smooth pieces there, and on each side
    the slope is its own piece's, 6.6% apart."""
    up = build_uplink_request(default_config)
    lo, hi = 206.25, 206.75
    before = oa_solve(up.problem(lo)).mu
    assert not np.array_equal(before, oa_solve(up.problem(hi)).mu)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.array_equal(oa_solve(up.problem(mid)).mu, before):
            lo = mid
        else:
            hi = mid

    def solve(t):
        return oa_solve(up.problem(t)).allocation

    left, right = lo - 1e-6, hi + 1e-6
    slope_left = up.energy_slope(range(5), left, solve(left))
    slope_right = up.energy_slope(range(5), right, solve(right))
    assert slope_left == pytest.approx(_forward(solve, left, -1e-5), rel=1e-6)
    assert slope_right == pytest.approx(_forward(solve, right, 1e-5), rel=1e-6)
    assert abs(slope_right - slope_left) > 0.05 * abs(slope_left)
