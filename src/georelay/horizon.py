"""One-dimensional horizon search shared by the three time-minimizing stages.

Downlink, uplink and repair time minimization have the same shape. The floor
T0 is the least horizon at which the stage can deliver its traffic at full
power; that predicate is monotone in the horizon, so T0 is found by growing a
bracket and bisecting (:func:`floor_horizon`). Beyond T0 the stage's optimal
energy decreases in the horizon, so a binding energy budget is met by
bisecting between T0 and ``upper_factor * T0`` (:func:`budget_horizon`).

The stages pass their own tolerances (downlink 1e-12 relative on the floor
and 1e-7 on the budget, uplink and repair 1e-6 s and 1e-5): one common pair
would move the downlink-time outputs or add uplink allocation solves.
"""

from __future__ import annotations

from .errors import InfeasibleError, InternalError

# bracket doublings before the traffic counts as unreachable in any horizon
_BRACKET_GROW_LIMIT = 60
_MAX_BISECTIONS = 200


def floor_horizon(reaches, lo, hi, abs_tol, rel_tol, unreachable) -> float:
    """Least horizon above ``lo`` at which the monotone ``reaches`` holds, from above.

    The bracket end ``hi`` moves to ``lo + 2 (hi - lo)`` until ``reaches(hi)``;
    after ``_BRACKET_GROW_LIMIT`` such steps the exception ``unreachable`` is
    raised. Bisection stops once ``hi - lo <= abs_tol + rel_tol * max(hi, 1)``
    and returns ``hi``, where ``reaches`` holds.
    """
    grown = 0
    while not reaches(hi):
        hi = lo + 2.0 * (hi - lo)
        grown += 1
        if grown > _BRACKET_GROW_LIMIT:
            raise unreachable
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= abs_tol + rel_tol * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


def budget_horizon(solve, energy, t0, e_max, upper_factor, rel_tol, energy_rel_tol):
    """Shortest horizon from ``t0`` whose minimum-energy solve fits ``e_max``.

    ``solve(T)`` is the stage's minimum-energy solve at horizon T and
    ``energy(result)`` its total energy. Returns ``(duration, result,
    budget_bound, energy_at_t0)``. A missing or slack budget keeps T0 and its
    solve; otherwise the horizon is bisected on (T0, ``upper_factor * T0``]
    until the bracket is narrower than ``rel_tol * max(T0, 1)``, and the
    energy at the returned horizon must match the budget within
    ``energy_rel_tol``.
    """
    result0 = solve(t0)
    e0 = energy(result0)
    if e_max is None or e_max >= e0:
        return t0, result0, False, e0
    if e_max <= 0:
        raise InfeasibleError("energy budget must be positive")
    hi = upper_factor * t0
    result = solve(hi)
    if energy(result) > e_max:
        raise InfeasibleError(
            f"budget {e_max:.6g} J below the energy floor "
            f"{energy(result):.6g} J at the search bound {hi:.6g} s"
        )
    lo, best = t0, (hi, result)
    for _ in range(_MAX_BISECTIONS):
        if hi - lo <= rel_tol * max(t0, 1.0):
            break
        mid = 0.5 * (lo + hi)
        result = solve(mid)
        if energy(result) > e_max:
            lo = mid
        else:
            hi = mid
            best = (mid, result)
    duration, result = best
    if abs(energy(result) - e_max) > energy_rel_tol * e_max:
        raise InternalError("horizon bisection missed the energy budget")
    return duration, result, True, e0
