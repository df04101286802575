"""Output checks for the benchmark's operations.

Every check runs after the op's timed region and recomputes what it checks
by another path than the one under test: delivered bits from the returned
powers, the optimal energy by a dynamic program over per-node waterfilling
tables (not the package's ``dp_solve``), CSV totals from their rows, and
reconstructed sources against the benchmark's own copy. A failed check
raises :class:`CheckError`.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from georelay import waterfill
from georelay.errors import InfeasibleError, SingularSystemError

# acceptance 3 compares the shipped uplink energy with the exact optimum at this tolerance
OPTIMUM_REL_TOL = 1e-6
BIT_REL_TOL = 1e-9
SUM_REL_TOL = 1e-9


class CheckError(Exception):
    """An op returned an output that fails its check."""


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def optimum_energy(problem) -> float:
    """Least total energy over integer file splits of ``problem``.

    Each node's table holds the waterfilling energy of 0..cap files, up to
    the last count its window can carry at full power; the DP over nodes
    then finds the cheapest split summing to the file total.
    """
    m = problem.total_files
    best = np.full(m + 1, math.inf)
    best[0] = 0.0
    for ch, cap in zip(problem.channels, problem.max_files_per_node):
        table = []
        for files in range(int(cap) + 1):
            try:
                sol = waterfill.solve_cells(
                    ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, files * problem.file_bits, problem.p_max_w
                )
            except InfeasibleError:
                break
            table.append(sol.energy_j)
        nxt = np.full(m + 1, math.inf)
        for files, energy in enumerate(table):
            nxt[files:] = np.minimum(nxt[files:], best[: m + 1 - files] + energy)
        best = nxt
    if not math.isfinite(best[m]):
        raise CheckError("no feasible integer split exists for this instance")
    return float(best[m])


def regen_optimum(channels, helpers: int, target_bits: float, p_max_w: float) -> float:
    """Least energy of ``helpers`` of ``channels`` each delivering ``target_bits``.

    The nodes' waterfilling energies add up independently, so the cheapest
    set is the ``helpers`` cheapest feasible nodes; no subset is enumerated.
    """
    energies = []
    for ch in channels:
        try:
            sol = waterfill.solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, target_bits, p_max_w)
        except InfeasibleError:
            continue
        energies.append(sol.energy_j)
    if len(energies) < helpers:
        raise CheckError(f"only {len(energies)} helpers can deliver the repair traffic, {helpers} needed")
    return float(sum(sorted(energies)[:helpers]))


def check_optimum(energy_j: float, optimum_j: float, what: str) -> None:
    if not _close(energy_j, optimum_j, OPTIMUM_REL_TOL):
        raise CheckError(f"{what} energy {energy_j!r} J is not the optimum {optimum_j!r} J")


def delivered_bits(channel, powers) -> float:
    """Bits a node delivers with ``powers`` on its grid cells (midpoint rule)."""
    powers = np.asarray(powers, dtype=float)
    return float(np.sum(channel.weights_s * channel.bandwidth_hz * np.log2(1.0 + powers * channel.gains_per_w)))


def check_allocation(problem, mu, powers, total_energy_j: float, optimum_j: float) -> None:
    """Four conditions on a joint file-count and power allocation."""
    mu = np.asarray(mu)
    caps = np.asarray(problem.max_files_per_node)
    if mu.shape != caps.shape or int(mu.sum()) != problem.total_files:
        raise CheckError(f"file counts {mu.tolist()} do not sum to {problem.total_files}")
    if np.any(mu < 0) or np.any(mu > caps):
        raise CheckError(f"file counts {mu.tolist()} outside their caps {caps.tolist()}")
    energy = 0.0
    for n, (ch, p) in enumerate(zip(problem.channels, powers)):
        p = np.asarray(p, dtype=float)
        if p.shape != (ch.n_cells,) or np.any(p < 0.0) or np.any(p > problem.p_max_w * (1.0 + 1e-12)):
            raise CheckError(f"node {n}: powers outside [0, p_max] or on the wrong grid")
        target = float(mu[n]) * problem.file_bits
        bits = delivered_bits(ch, p)
        if bits < target * (1.0 - BIT_REL_TOL):
            raise CheckError(f"node {n}: delivers {bits!r} bits, needs {target!r}")
        energy += float(np.dot(ch.weights_s, p))
    if not _close(energy, total_energy_j, SUM_REL_TOL):
        raise CheckError(f"reported energy {total_energy_j!r} J, powers give {energy!r} J")
    check_optimum(total_energy_j, optimum_j, "allocation")


def check_coding(source, reconstructed, rejected) -> None:
    """Reconstruction returns the source; the K-1 download pattern is refused."""
    if reconstructed is None or not np.array_equal(np.asarray(reconstructed), np.asarray(source)):
        raise CheckError("reconstruction does not return the source")
    if not isinstance(rejected, SingularSystemError):
        raise CheckError(f"a K-1 download pattern was not rejected (got {rejected!r})")


# ---------------------------------------------------------------- CLI CSVs


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def number(row: dict, col: str) -> float:
    raw = row.get(col, "")
    if raw in ("", None):
        raise CheckError(f"column {col!r} is empty")
    return float(raw)


def flag(row: dict, col: str) -> bool:
    raw = row.get(col)
    if raw not in ("True", "False"):
        raise CheckError(f"column {col!r} holds {raw!r}, not a boolean")
    return raw == "True"


def split_total(rows: list[dict], key: str = "leos") -> tuple[list[dict], dict]:
    body = [r for r in rows if r[key] != "total"]
    totals = [r for r in rows if r[key] == "total"]
    if len(totals) != 1 or not body:
        raise CheckError("expected per-node rows and one total row")
    return body, totals[0]


def _check_sums(body: list[dict], total: dict, columns) -> None:
    for col in columns:
        parts = sum(number(r, col) for r in body)
        if not _close(parts, number(total, col), SUM_REL_TOL):
            raise CheckError(f"total {col} {total[col]} is not the sum of its rows ({parts!r})")


def check_downlink_energy_csv(rows, files_per_node: int, file_bits: float) -> None:
    body, total = split_total(rows)
    _check_sums(body, total, ("energy_j", "delivered_bits", "baseline_energy_j"))
    for r in body:
        if number(r, "energy_j") > number(r, "baseline_energy_j") * (1.0 + SUM_REL_TOL):
            raise CheckError(f"LEO {r['leos']}: optimal energy above the constant-power energy")
        if number(r, "delivered_bits") < files_per_node * file_bits * (1.0 - BIT_REL_TOL):
            raise CheckError(f"LEO {r['leos']}: delivers fewer than {files_per_node} files")


def check_budget(total: dict, e_max_j: float, rel_tol: float) -> None:
    """The budget flag agrees with the energy at T0, and a bound solve spends its budget."""
    energy = number(total, "energy_j")
    e0 = number(total, "energy_at_t0_j")
    bound = flag(total, "budget_bound")
    if bound != (e_max_j < e0):
        raise CheckError(f"budget_bound={bound} but e_max={e_max_j!r} J and E(T0)={e0!r} J")
    if bound and abs(energy - e_max_j) > rel_tol * e_max_j:
        raise CheckError(f"budget-bound energy {energy!r} J is not within {rel_tol} of e_max {e_max_j!r} J")
    if not bound and not _close(energy, e0, SUM_REL_TOL):
        raise CheckError(f"unbounded energy {energy!r} J differs from E(T0) {e0!r} J")


def check_downlink_time_csv(rows, files_per_node, file_bits, e_max_j, rel_tol) -> None:
    body, total = split_total(rows)
    _check_sums(body, total, ("energy_j", "delivered_bits"))
    for r in body:
        if number(r, "delivered_bits") < files_per_node * file_bits * (1.0 - BIT_REL_TOL):
            raise CheckError(f"LEO {r['leos']}: delivers fewer than {files_per_node} files")
    check_budget(total, e_max_j, rel_tol)


def check_uplink_csv(rows, total_files: int, cap: int, file_bits: float, optimum_j: float) -> None:
    """Per-LEO file counts, bits and totals of an uplink CSV, and its optimal energy."""
    body, total = split_total(rows)
    _check_sums(body, total, ("energy_j", "delivered_bits", "mu_files"))
    mu = [int(number(r, "mu_files")) for r in body]
    if sum(mu) != total_files:
        raise CheckError(f"file counts {mu} do not sum to {total_files}")
    if any(not 0 <= v <= cap for v in mu):
        raise CheckError(f"file counts {mu} outside [0, {cap}]")
    for r, v in zip(body, mu):
        if number(r, "delivered_bits") < v * file_bits * (1.0 - BIT_REL_TOL):
            raise CheckError(f"LEO {r['leos']}: delivers fewer than its {v} files")
    check_optimum(number(total, "energy_j"), optimum_j, "uplink")


def check_repair_csv(rows, regen_helpers: int, per_helper: int, total_files: int, cap: int, optima: dict) -> dict:
    """Both schemes' rows, sums and least energies; returns each scheme's total row.

    ``optima`` maps "regenerating" and "mds" to the least energy at the
    request's horizon.
    """
    totals = {}
    for scheme in ("regenerating", "mds"):
        part = [r for r in rows if r["scheme"] == scheme]
        body, total = split_total(part)
        _check_sums(body, total, ("energy_j", "files"))
        files = [int(number(r, "files")) for r in body]
        if scheme == "regenerating":
            if len(body) != regen_helpers or any(f != per_helper for f in files):
                raise CheckError(f"regenerating repair uses {files}, expected {regen_helpers} x {per_helper}")
        elif sum(files) != total_files or any(not 0 <= f <= cap for f in files):
            raise CheckError(f"MDS repair file counts {files} do not cover {total_files} within caps")
        check_optimum(number(total, "energy_j"), optima[scheme], f"{scheme} repair")
        if number(total, "duration_s") <= 0.0:
            raise CheckError(f"{scheme} repair duration is not positive")
        totals[scheme] = total
    return totals


def check_time_solve(what: str, bound: bool, budgeted: bool, energy_at_duration_j: float, e_max_j: float,
                     rel_tol: float) -> None:
    """A time solve whose CSV gives its horizon but not its energy there.

    A solve given a budget below its energy at the shortest horizon must
    report itself budget-bound, and the least energy at its horizon, as the
    benchmark computes it, must spend that budget; a solve without one must
    stay within the default budget.
    """
    if bound != budgeted:
        raise CheckError(f"{what}: budget_bound={bound}, expected {budgeted} with e_max {e_max_j!r} J")
    if bound and abs(energy_at_duration_j - e_max_j) > rel_tol * e_max_j:
        raise CheckError(f"{what}: least energy {energy_at_duration_j!r} J at its horizon is not within "
                         f"{rel_tol} of e_max {e_max_j!r} J")
    if not bound and energy_at_duration_j > e_max_j * (1.0 + rel_tol):
        raise CheckError(f"{what}: least energy {energy_at_duration_j!r} J at its horizon exceeds e_max {e_max_j!r} J")


def check_code_check_csv(rows, total_files: int, regen_total_files: int) -> None:
    if len(rows) != 1:
        raise CheckError("code-check writes one row")
    row = rows[0]
    if not (flag(row, "params_ok") and flag(row, "rank_ok")):
        raise CheckError("code parameters or K-subset rank check failed")
    if int(number(row, "total_files")) != total_files or int(number(row, "regen_total_files")) != regen_total_files:
        raise CheckError("code-check reports other code sizes than configured")


def check_sweep_csv(rows, task: str, points, total_files: int) -> None:
    """Row count, points, file counts and baselines of a sweep CSV; energies are checked by the caller."""
    if len(rows) != len(points):
        raise CheckError(f"sweep wrote {len(rows)} rows for {len(points)} points")
    for r, ts in zip(rows, points):
        if abs(number(r, "ts_s") - ts) > 1e-6:
            raise CheckError(f"sweep point {r['ts_s']} is not {ts!r}")
        if task == "downlink-energy" and number(r, "energy_j") > number(r, "baseline_energy_j") * (1.0 + SUM_REL_TOL):
            raise CheckError(f"ts={ts}: optimal energy above the constant-power energy")
        if task.startswith("uplink"):
            mu = [int(number(r, k)) for k in r if k.startswith("mu_") and r[k] != ""]
            if sum(mu) != total_files:
                raise CheckError(f"ts={ts}: file counts sum to {sum(mu)}, not {total_files}")
        if task in ("downlink-time", "uplink-time") and flag(r, "budget_bound"):
            raise CheckError(f"ts={ts}: a sweep without a budget reports budget_bound=True")
        energy_cols = ("regen_energy_j", "mds_energy_j") if task.startswith("repair") else ("energy_j",)
        for col in energy_cols:
            value = number(r, col)
            if not (math.isfinite(value) and value > 0.0):
                raise CheckError(f"ts={ts}: {col} {value!r} is not a positive energy")
