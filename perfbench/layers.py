"""Per-layer spans recorded from outside the package.

:class:`Tracer` replaces each layer-boundary function with a timing wrapper
in every ``georelay`` module namespace that binds it (``solve_cells``, for
one, is imported by name into ``downlink_opt`` and ``uplink_opt``), and
wraps ``GaloisField.rank`` and ``GaloisField.solve`` on the class. A span's
self time is its duration minus the spans nested in it. Work counts come
from return values: waterfill iterations and cells, channel cells, OA
iterations and encode attempts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute) of every traced function; "Class.method" wraps on the class
TRACED = (
    ("georelay.scenario", "load_config"),
    ("georelay.cli", "main"),
    ("georelay.cli", "write_csv"),
    ("georelay.link", "build_channel"),
    ("georelay.waterfill", "solve_cells"),
    ("georelay.downlink_opt", "min_time_downlink"),
    ("georelay.uplink_opt", "min_time_solve"),
    ("georelay.uplink_opt", "integer_file_caps"),
    ("georelay.uplink_opt", "oa_solve"),
    ("georelay.uplink_opt", "solve_nlpr"),
    ("georelay.uplink_opt", "solve_oa_master"),
    ("georelay.lp_solver", "solve_milp"),
    ("georelay.lp_solver", "solve_lp"),
    ("georelay.repair_opt", "repair_min_time"),
    ("georelay.repair_opt", "repair_min_energy"),
    ("georelay.repair_opt", "mds_repair_baseline"),
    ("georelay.coding", "encode"),
    ("georelay.coding", "reconstruct"),
    ("georelay.gf", "GaloisField.rank"),
    ("georelay.gf", "GaloisField.solve"),
)

# work counts read from a traced function's return value
YIELDS = {
    "link.build_channel": (("cells", lambda r: r.n_cells),),
    "waterfill.solve_cells": (("iterations", lambda r: r.iterations), ("cells", lambda r: r.powers_w.size)),
    "uplink_opt.oa_solve": (("iterations", lambda r: r.state.iterations),),
    "coding.encode": (("attempts", lambda r: r.attempts),),
}

OA, MASTER = "uplink_opt.oa_solve", "uplink_opt.solve_oa_master"
MILP, LP = "lp_solver.solve_milp", "lp_solver.solve_lp"

# every per-layer metric the benchmark reports, with its unit, is declared
# in BENCHMARK.json; names under "trace." are the run's own, not a layer's
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RUN_PREFIX = "trace."


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric in BENCHMARK.json, in its order."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}


def _short(module: str, attr: str) -> str:
    return module.removeprefix("georelay.") + "." + attr.removeprefix("GaloisField.")


class Tracer:
    """Wraps the traced functions while installed and sums calls, self time and counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.master_runs = 0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        yields = YIELDS.get(name, ())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0, set()]  # nested traced time, names of traced children
            if stack:
                stack[-1][1].add(name)
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                self.calls[name] += 1
                self.self_ns[name] += span - frame[0]
                if name == OA and MASTER in frame[1]:
                    self.master_runs += 1
            for key, get in yields:
                self.counts[f"{name}.{key}"] += get(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            name = _short(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "georelay" or mod_name.startswith("georelay.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def end_op(self) -> None:
        """Drop spans an op left open when its time limit interrupted it."""
        self._stack.clear()

    def metrics(self, names) -> dict[str, float]:
        """The layer metrics among ``names``: sums over what ran while installed, and two ratios."""
        traced = {_short(module, attr) for module, attr in TRACED}
        counted = {f"{layer}.{key}" for layer, pairs in YIELDS.items() for key, _ in pairs}
        oa_calls, milps = self.calls[OA], self.calls[MILP]
        values = {}
        for metric in names:
            layer, _, kind = metric.rpartition(".")
            if metric.startswith(RUN_PREFIX):
                continue
            if metric == "uplink_opt.master_share":
                values[metric] = self.master_runs / oa_calls if oa_calls else 0.0
            elif metric == "lp_solver.nodes_per_milp":
                values[metric] = self.calls[LP] / milps if milps else 0.0
            elif kind == "calls" and layer in traced:
                values[metric] = self.calls[layer]
            elif kind == "self_ms" and layer in traced:
                values[metric] = self.self_ns[layer] / 1e6
            elif metric in counted:
                values[metric] = self.counts[metric]
            else:
                raise KeyError(f"no layer records {metric!r}")
        return values
