"""Independent reference solvers used only by the tests.

These deliberately avoid the library's solution paths: the energy oracle is
a first-order primal method (augmented Lagrangian with projected FISTA on
the box), the combinatorial oracles are plain enumeration, the file
allocation oracle is a dynamic program over per-node waterfilling tables
rather than the library's greedy, the finite-field oracles are scalar
Python loops (the GF(2^8) product is the bit-serial shift-and-add, not a
table), the floor oracle bisects the horizon on the full-power
predicate instead of reading thresholds off the prefix, the
constant-power oracle bisects the power instead of taking Newton steps, and
the reconstructability oracle takes a rank where the library decodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from georelay import horizon
from georelay.coding import _download_counts
from georelay.errors import InfeasibleError
from georelay.gf import GF256
from georelay.uplink_opt import _file_caps, integer_file_caps
from georelay.waterfill import solve_cells

LN2 = math.log(2.0)


def projected_gradient_min_energy(
    weights,
    gains,
    bandwidth_hz,
    target_bits,
    p_max,
    feas_tol=1e-10,
    max_outer=60,
    max_inner=3000,
):
    """Minimize sum(w P) s.t. delivered bits >= target, 0 <= P <= p_max.

    Returns (energy, powers, final scaled constraint violation).
    """
    w = np.asarray(weights, float)
    h = np.asarray(gains, float)
    n = w.size
    e_ref = float(np.sum(w) * p_max)
    f_lin = w * p_max / e_ref
    gc_pref = (p_max / target_bits) * w * bandwidth_hz / LN2

    neg_gc_h = -gc_pref * h

    def bits_frac(x):
        return float(np.dot(w, bandwidth_hz * np.log2(1.0 + x * p_max * h))) / target_bits

    x = np.full(n, 0.5)
    y = 0.0
    rho = 100.0
    gc_sq = float(np.dot(gc_pref * h, gc_pref * h))
    hess_max = float(np.max(gc_pref * p_max * h * h))
    energy_prev = None
    cv = 1.0
    for _ in range(max_outer):
        lip = rho * gc_sq + max(y + rho, rho) * hess_max + 1e-12
        z = x.copy()
        tk = 1.0
        x_prev = x.copy()
        # The inner loop is call-overhead bound on these small arrays, so the
        # constraint value and its gradient share one denominator and the box
        # projection uses the bare ufuncs; the arithmetic is unchanged.
        for _ in range(max_inner):
            denom = 1.0 + z * p_max * h
            czv = 1.0 - float(np.dot(w, bandwidth_hz * np.log2(denom))) / target_bits
            t = y + rho * czv
            g = f_lin + t * (neg_gc_h / denom) if t > 0 else f_lin
            x_new = np.minimum(np.maximum(z - g / lip, 0.0), 1.0)
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tk * tk))
            diff = x_new - x_prev
            z = x_new + ((tk - 1.0) / t_new) * diff
            step = float(np.abs(diff).max())
            x_prev, tk = x_new, t_new
            if step <= 1e-14:
                break
        x = x_prev
        cv = 1.0 - bits_frac(x)
        y = max(0.0, y + rho * cv)
        energy = float(np.dot(w, x) * p_max)
        if abs(cv) <= feas_tol and energy_prev is not None and abs(energy - energy_prev) <= 1e-10 * energy:
            break
        energy_prev = energy
        if abs(cv) > feas_tol:
            rho = min(rho * 4.0, 1e10)
    return float(np.dot(w, x) * p_max), x * p_max, cv


def enumerate_integer_splits(total, caps):
    """All vectors 0 <= v <= caps with sum(v) == total."""
    if len(caps) == 1:
        if 0 <= total <= caps[0]:
            yield (total,)
        return
    for head in range(min(caps[0], total) + 1):
        for tail in enumerate_integer_splits(total - head, caps[1:]):
            yield (head,) + tail


def random_cell_problem(rng, n_lo=20, n_hi=80):
    """A random discretized min-energy instance with a feasible bit target."""
    n = int(rng.integers(n_lo, n_hi))
    weights = rng.uniform(0.5, 2.0, n)
    gains = 10 ** rng.uniform(-3.5, -1.5, n)
    bandwidth = 10 ** rng.uniform(5.5, 7.0)
    p_max = 10 ** rng.uniform(1.0, 3.0)
    max_bits = float(np.dot(weights, bandwidth * np.log2(1 + p_max * gains)))
    target = rng.uniform(0.15, 0.85) * max_bits
    return weights, gains, bandwidth, target, p_max


@dataclass(frozen=True)
class DpResult:
    mu: np.ndarray
    energy_j: float
    energy_table: np.ndarray


def dp_solve(problem) -> DpResult:
    """Exact optimum by dynamic programming over per-node energy tables.

    Ties break to the lexicographically smallest file-count vector.
    """
    m = problem.total_files
    u = problem.file_bits
    n_nodes = problem.n_nodes
    caps = integer_file_caps(problem)
    alpha_max = max(problem.max_files_per_node, default=0)
    table = np.full((n_nodes, alpha_max + 1), math.inf)
    for n, ch in enumerate(problem.channels):
        for files in range(int(problem.max_files_per_node[n]) + 1):
            if files > caps[n]:
                break
            sol = solve_cells(ch.weights_s, ch.gains_per_w, ch.bandwidth_hz, files * u, problem.p_max_w)
            table[n, files] = sol.energy_j

    suffix = np.full((n_nodes + 1, m + 1), math.inf)
    choice = np.zeros((n_nodes, m + 1), dtype=int)
    suffix[n_nodes, 0] = 0.0
    for n in range(n_nodes - 1, -1, -1):
        for j in range(m + 1):
            best = math.inf
            best_m = -1
            for files in range(min(int(problem.max_files_per_node[n]), j) + 1):
                if table[n, files] == math.inf:
                    break
                rest = suffix[n + 1, j - files]
                val = table[n, files] + rest
                if val < best:
                    best, best_m = val, files
            suffix[n, j] = best
            choice[n, j] = best_m
    if not math.isfinite(suffix[0, m]):
        raise InfeasibleError("no feasible integer file split")
    mu = np.zeros(n_nodes, dtype=int)
    j = m
    for n in range(n_nodes):
        mu[n] = choice[n, j]
        j -= mu[n]
    return DpResult(mu, float(suffix[0, m]), table)


def dp_oracle(req) -> DpResult:
    """:func:`dp_solve` on an uplink request's allocation problem."""
    return dp_solve(req.problem())


def scalar_field(order):
    """(add, sub, mul, inv) on Python ints for GF(256) or a prime field."""
    if order == 256:

        def inv(a):
            # a^254 = a^-1 in GF(2^8)
            out = 1
            for _ in range(254):
                out = GF256._scalar_mul(out, a)
            return out

        return (lambda a, b: a ^ b), (lambda a, b: a ^ b), GF256._scalar_mul, inv
    p = order
    return (lambda a, b: (a + b) % p), (lambda a, b: (a - b) % p), (lambda a, b: a * b % p), (lambda a: pow(a, p - 2, p))


def scalar_matmul(order, a, b):
    """Matrix product of two 2-D arrays by the triple loop over Python ints."""
    add, _, mul, _ = scalar_field(order)
    (rows, inner), cols = np.shape(a), np.shape(b)[1]
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc = add(acc, mul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def gauss_jordan(order, m):
    """Reduced row echelon form of a list-of-rows matrix, and its pivot columns."""
    _, sub, mul, inv = scalar_field(order)
    m = [[int(v) for v in row] for row in m]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        scale = inv(m[r][c])
        m[r] = [mul(v, scale) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [sub(v, mul(f, w)) for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def solve_oracle(order, a, b):
    """("unique", x), ("inconsistent", None) or ("not unique", None) for a x = b."""
    n = len(a[0])
    rref, pivots = gauss_jordan(order, [list(row) + [int(v)] for row, v in zip(a, b)])
    if n in pivots:
        return "inconsistent", None
    if len(pivots) < n:
        return "not unique", None
    return "unique", [rref[r][n] for r in range(n)]


def check_mu_reconstructable(store, mu) -> bool:
    """True iff the per-node download counts allow exact source recovery: their stacked encoders have rank M.

    A rank, not a decode: the tests check ``coding.reconstruct`` against it.
    """
    mu = _download_counts(store, mu)
    if int(mu.sum()) < store.params.n_files:
        return False
    stacked = np.hstack([h[:, :c] for h, c in zip(store.encoders, mu) if c])
    return store.field.rank(stacked) == store.params.n_files


def bisect_floor(req, reaches, lo, hi, abs_tol, rel_tol, unreachable) -> float:
    """Least horizon above ``lo`` at which the monotone ``reaches`` holds, from above.

    The bracket end ``hi`` moves to ``lo + 2 (hi - lo)`` until ``reaches(hi)``,
    held at ``MAX_CELLS * req.grid_step_s``; if ``reaches`` fails there, the
    exception ``unreachable`` is raised. Bisection stops once
    ``hi - lo <= abs_tol + rel_tol * max(hi, 1)`` and returns ``hi``, where
    ``reaches`` holds.
    """
    bound = horizon.MAX_CELLS * req.grid_step_s
    hi = min(hi, bound)
    while not reaches(hi):
        if hi >= bound:
            raise unreachable
        hi = min(lo + 2.0 * (hi - lo), bound)
    for _ in range(200):
        if hi - lo <= abs_tol + rel_tol * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def floor_oracle(req, nodes, problem):
    """An allocation floor T0 to 1e-6 s by :func:`bisect_floor` on the
    full-power file counts of ``problem`` (storage caps, file size and
    total), as the uplink and the repairs count them."""

    def covers(t):
        return int(_file_caps(problem, [req.full_bits(n, t) for n in nodes]).sum()) >= problem.total_files

    return bisect_floor(req, covers, 0.0, max(req.grid_step_s, 1.0), 1e-6, 0.0, InfeasibleError("unreachable"))


def constant_power_oracle(ch, target, p_max) -> float:
    """The least constant power on channel ``ch`` whose bits reach
    ``target`` > 0, by bisection on [0, ``p_max``] to 1e-15 ``p_max``;
    ``p_max`` if no lower power reaches it."""
    lo, hi = 0.0, p_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ch.bits(np.full(ch.n_cells, mid)) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * p_max:
            break
    return hi
