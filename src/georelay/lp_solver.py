"""Stubs of the removed LP and MILP engines.

The simplex and branch-and-bound engines served the outer-approximation
allocator, which exact greedy (:func:`georelay.uplink_opt.oa_solve`)
replaced. These two names exist only because the benchmark's tracer
(``perfbench/layers.py`` ``TRACED``) imports this module and wraps them;
ROADMAP item 1's benchmark change deletes them and this module. No module of
the package imports it.
"""


def solve_lp(*args, **kwargs):
    """Removed: the bounded-variable simplex."""
    raise NotImplementedError("solve_lp was removed with the outer-approximation allocator")


def solve_milp(*args, **kwargs):
    """Removed: the branch-and-bound MILP."""
    raise NotImplementedError("solve_milp was removed with the outer-approximation allocator")
