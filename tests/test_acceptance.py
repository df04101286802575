"""Acceptance gate: one test per release criterion, each printing a verdict line.

 1. Code-parameter reproduction: storage/repair operating points and traffic.
 2. Waterfilling optimality versus an independent projected-gradient solver.
 3. Exactness of the greedy file allocation against the dynamic-programming
    optimum across the whole start-time sweep.
 4. File-count calibration (reported) and support-pattern monotonicity (asserted).
 5. Energy/time orderings: optimal vs constant power, joint vs fixed counts,
    regenerating vs full re-download repair.
 6. Time-minimization contracts: monotonicity, budget tolerance, boundary exactness.
 7. Coding round-trip over 100 seeded field instances.
 8. Byte-identical artifacts for identical configuration and seed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import dataclasses
import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from georelay.cli import main as cli_main
from georelay.coding import (
    OperatingPoint,
    RegenParams,
    code_point,
    downloads_for,
    encode,
    reconstruct,
    validate_params,
)
from georelay.downlink_opt import (
    constant_power_baseline,
    constant_power_for_targets,
    min_energy_downlink,
    min_time_downlink,
)
from georelay.errors import SingularSystemError
from georelay.repair_opt import (
    mds_repair_baseline,
    mds_repair_min_time,
    repair_min_energy,
    repair_min_time,
)
from georelay.scenario import (
    build_downlink_request,
    build_regen_params,
    build_repair_request,
    build_uplink_request,
    load_config,
)
from georelay.uplink_opt import (
    integer_file_caps,
    min_time_uplink,
    oa_min_energy_uplink,
    oa_solve,
    solve_nlp_fixed_mu,
)
from georelay.waterfill import solve_cells
from oracles import check_mu_reconstructable, dp_oracle, projected_gradient_min_energy, random_cell_problem


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num}: PASS - {description} [{elapsed:.1f}s / budget {budget_s:.0f}s]")
    assert elapsed <= budget_s, f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget"


def test_criterion_1_code_parameters():
    with criterion(1, "code-parameter reproduction", 1.0):
        point = code_point(OperatingPoint.MSR, 30, 3, 4)
        assert point.per_node_files == Fraction(10)
        assert point.per_helper_files == Fraction(5)
        assert point.repair_bandwidth == Fraction(20)
        params = RegenParams(30, 5, 3, 4, 10, 5)
        report = validate_params(params)
        assert report.ok and report.capacity_sum == 30
        # D helpers send beta files each
        assert (params.repair_d, params.per_helper_files) == (4, 5)
        assert params.repair_d * params.per_helper_files == point.repair_bandwidth == 20
        assert params.n_files == 30  # full re-download size under a plain MDS code


def test_criterion_2_waterfilling_optimality():
    with criterion(2, "waterfilling matches projected-gradient oracle", 30.0):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            weights, gains, bandwidth, target, p_max = random_cell_problem(rng)
            sol = solve_cells(weights, gains, bandwidth, target, p_max)
            assert sol.kkt_residual <= 1e-9 * p_max, f"trial {trial}"
            oracle_energy, _, violation = projected_gradient_min_energy(
                weights, gains, bandwidth, target, p_max
            )
            assert abs(violation) < 1e-8
            assert sol.energy_j == pytest.approx(oracle_energy, rel=1e-6), f"trial {trial}"


def test_criterion_3_oa_exactness():
    with criterion(3, "greedy allocation equals exact optimum on the sweep", 120.0):
        config = load_config(None)
        for ts in range(0, 601, 50):
            config["uplink"]["t_start_s"] = float(ts)
            req = build_uplink_request(config)
            result = oa_min_energy_uplink(req)
            exact = dp_oracle(req)
            assert result.allocation.total_energy_j == pytest.approx(
                exact.energy_j, rel=1e-6
            ), f"ts={ts}"
            assert result.state.iterations <= 5, f"ts={ts}"
            assert result.allocation.total_energy_j == pytest.approx(exact.energy_j, rel=1e-9), f"ts={ts}"


def _dominance_chain(problem):
    """Pairs (n over m): n's window contains m's and n's gain dominates pointwise."""
    pairs = []
    for n in range(problem.n_nodes):
        for m in range(problem.n_nodes):
            if n == m:
                continue
            cn, cm = problem.channels[n], problem.channels[m]
            if cm.n_cells == 0:
                pairs.append((n, m))
                continue
            if cn.t_start_s > cm.t_start_s + 1e-9 or cn.n_cells < cm.n_cells:
                continue
            offset = cn.n_cells - cm.n_cells  # shared cells are the trailing ones
            if np.all(cn.gains_per_w[offset:] >= cm.gains_per_w):
                pairs.append((n, m))
    return pairs


def test_criterion_4_mu_calibration():
    with criterion(4, "file-count calibration and support monotonicity", 120.0):
        config = load_config(None)
        config["uplink"]["t_start_s"] = 133.0
        req = build_uplink_request(config)
        energy_result = oa_min_energy_uplink(req)
        exact = dp_oracle(req)
        assert energy_result.allocation.total_energy_j == pytest.approx(exact.energy_j, rel=1e-6)
        reference_energy_mu = [0, 5, 10, 10, 5]
        print(
            f"  calibration (energy-min, ts=133): solver {energy_result.mu.tolist()} "
            f"vs reference {reference_energy_mu} "
            f"(exact match: {energy_result.mu.tolist() == reference_energy_mu})"
        )

        config["uplink"]["t_start_s"] = 0.0
        req0 = build_uplink_request(config)
        time_result = min_time_uplink(req0)
        reference_time_mu = [0, 5, 9, 10, 6]
        print(
            f"  calibration (time-min, ts=0): solver {time_result.result.mu.tolist()} "
            f"vs reference {reference_time_mu} "
            f"(exact match: {time_result.result.mu.tolist() == reference_time_mu})"
        )

        for mu, problem in ((energy_result.mu, req.problem()), (time_result.result.mu, req0.problem(time_result.duration_s))):
            for n, m in _dominance_chain(problem):
                assert mu[n] >= mu[m], f"dominant node {n} got fewer files than {m}"


def test_criterion_5_orderings():
    with criterion(5, "energy/time orderings across methods", 120.0):
        config = load_config(None)
        # optimal power never exceeds constant power, per LEO
        downlink = build_downlink_request(config)
        opt = min_energy_downlink(downlink)
        base = constant_power_baseline(downlink)
        assert np.all(opt.energies_j <= base.energies_j + 1e-9)

        # joint counts+power <= waterfilled fixed counts <= constant-power fixed counts
        fixed_mu = np.array([10, 10, 10, 0, 0])
        for ts in (0.0, 300.0, 600.0):
            config["uplink"]["t_start_s"] = ts
            req = build_uplink_request(config)
            problem = req.problem()
            joint = oa_min_energy_uplink(req).allocation.total_energy_j
            fixed = solve_nlp_fixed_mu(problem, fixed_mu).total_energy_j
            targets = fixed_mu * problem.file_bits
            const = constant_power_for_targets(problem.channels, targets, problem.p_max_w).total_energy_j
            assert joint <= fixed + 1e-9, f"ts={ts}"
            assert fixed <= const + 1e-9, f"ts={ts}"

        # regenerating repair beats full re-download in energy and time
        for ts in (0.0, 300.0, 600.0):
            config["repair"]["t_start_s"] = ts
            req = build_repair_request(config)
            regen_e = repair_min_energy(req).allocation.total_energy_j
            mds_e = mds_repair_baseline(req).allocation.total_energy_j
            assert regen_e <= mds_e + 1e-9, f"ts={ts}"
            regen_t = repair_min_time(req).duration_s
            mds_t = mds_repair_min_time(req).duration_s
            assert regen_t <= mds_t + 1e-9, f"ts={ts}"


def test_criterion_6_time_minimization_contracts():
    with criterion(6, "time-minimization contracts", 60.0):
        config = load_config(None)
        config["solver"]["grid_step_s"] = 2.0  # contracts are grid-agnostic
        downlink = build_downlink_request(config)

        energies = [
            min_energy_downlink(downlink, horizon_s=T).total_energy_j
            for T in (450.0, 550.0, 650.0, 800.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(energies, energies[1:]))

        free, floors = min_time_downlink(dataclasses.replace(downlink, e_max_j=None))
        assert free.duration_s == float(np.max(floors))
        floor_e = min_energy_downlink(downlink, horizon_s=4.0 * free.duration_s).total_energy_j
        budget = 0.5 * (floor_e + free.energy_at_t0_j)
        bound, _ = min_time_downlink(dataclasses.replace(downlink, e_max_j=budget))
        assert bound.budget_bound
        assert abs(bound.result.total_energy_j - budget) <= 1e-3 * budget

        uplink = build_uplink_request(config)
        m = uplink.total_files

        def file_count_step(horizon_s):
            return int(integer_file_caps(uplink.problem(horizon_s)).sum())

        free_up = min_time_uplink(dataclasses.replace(uplink, e_max_j=None))
        t0 = free_up.floor_s
        assert file_count_step(t0) >= m
        assert file_count_step(t0 - config["solver"]["grid_step_s"]) < m
        assert file_count_step(t0 - 1e-3) < m
        sweep = [file_count_step(t) for t in np.linspace(20.0, 400.0, 25)]
        assert all(a <= b for a, b in zip(sweep, sweep[1:]))

        floor_up = oa_solve(uplink.problem(4.0 * t0)).allocation.total_energy_j
        budget_up = 0.5 * (floor_up + free_up.energy_at_t0_j)
        bound_up = min_time_uplink(dataclasses.replace(uplink, e_max_j=budget_up))
        assert bound_up.budget_bound
        assert abs(bound_up.result.allocation.total_energy_j - budget_up) <= 1e-3 * budget_up


def test_criterion_7_coding_round_trip():
    with criterion(7, "coding round-trip on 100 seeded instances", 30.0):
        config = load_config(None)
        params = build_regen_params(config)
        req = build_uplink_request(config)
        optimizer_mu = oa_min_energy_uplink(req).mu
        fractional_req = dataclasses.replace(req, horizon_s=200.0)
        optimizer_mu_2 = oa_min_energy_uplink(fractional_req).mu
        subsets = list(itertools.combinations(range(5), 3))
        for seed in range(100):
            store = encode(params, 256, seed=seed)
            for subset in subsets:
                stacked = np.hstack([store.encoders[i] for i in subset])
                assert store.field.rank(stacked) == 30, f"seed={seed}"
            mu_full = np.zeros(5, dtype=int)
            mu_full[list(subsets[seed % len(subsets)])] = 10
            assert np.all(reconstruct(store, downloads_for(store, mu_full)) == store.source)
            for mu in (optimizer_mu, optimizer_mu_2):
                assert check_mu_reconstructable(store, mu), f"seed={seed}"
                got = reconstruct(store, downloads_for(store, mu))
                assert np.all(got == store.source), f"seed={seed}"
            short = np.zeros(5, dtype=int)
            short[:2] = 10  # K - 1 full nodes only
            with pytest.raises(SingularSystemError):
                reconstruct(store, downloads_for(store, short))


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical artifacts for identical config and seed", 60.0):
        runs = []
        for name in ("one", "two"):
            out = tmp_path / name
            args = [
                "sweep", "--task", "uplink-energy", "--from", "0", "--to", "100",
                "--step", "50", "--dt", "5", "--seed", "9", "--out", str(out),
            ]
            assert cli_main(args) == 0
            assert cli_main(["code-check", "--seed", "9", "--out", str(out)]) == 0
            runs.append(
                (
                    (out / "sweep-uplink-energy.csv").read_bytes(),
                    (out / "sweep-uplink-energy.manifest.json").read_bytes(),
                    (out / "code-check.csv").read_bytes(),
                )
            )
        assert runs[0] == runs[1]
