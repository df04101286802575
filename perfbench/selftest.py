"""Self-tests of the benchmark's generators, checks and failure accounting.

    python3 perfbench/selftest.py

Every output check must accept what the package returns and reject a
perturbed copy; the same instance seed must give an identical instance
list; a timed-out, raising or wrong op must count as failed at the limit.
The functions are also collected by ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

SCRATCH = ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"


def _rejects(fn, fragment: str) -> None:
    try:
        fn()
    except CheckError as exc:
        assert fragment in str(exc), f"rejected for another reason: {exc}"
        return
    raise AssertionError(f"check accepted an output it must reject ({fragment})")


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_generators_are_seeded():
    for cls in workloads.WORKLOADS.values():
        first, again = cls(workloads.INSTANCE_SEED), cls(workloads.INSTANCE_SEED)
        held_out = cls(workloads.HELD_OUT_SEED)
        assert _same(first.ops, again.ops), f"{cls.name}: one seed gave two instance lists"
        assert not _same(first.ops, held_out.ops), f"{cls.name}: the held-out seed repeats the instances"
        assert [o.size for o in first.ops] == [o.size for o in held_out.ops], f"{cls.name}: mix depends on the seed"


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"] and spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    fake = [run.Attempt(0, 0.1, None, None), run.Attempt(1, 0.2, "time limit", None)]
    e2e = run.end_to_end(fake, [0.3], 1024)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, v["unit"]) for k, v in e2e.items()]
    # every layer metric is one the tracer records (an unknown name raises)
    names = layers.per_layer_units()
    assert set(layers.Tracer().metrics(names)) == {n for n in names if not n.startswith(layers.RUN_PREFIX)}


class _Fake:
    limit_s = 0.2
    retime_below_s = 0.1
    ops = [workloads.Op("tiny", "tiny #0", None)]

    def __init__(self, behaviour):
        self.behaviour = behaviour

    def run(self, op, out_dir):
        return self.behaviour()

    def check(self, op, output):
        if output != "right":
            raise CheckError("wrong output")


def _slow():
    time.sleep(5.0)
    return "right"


def _raises():
    raise ValueError("boom")


def test_failed_ops_count_at_the_limit():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        late = run.attempt(_Fake(_slow), 0, "")
        raised = run.attempt(_Fake(_raises), 0, "")
        wrong = run.attempt(_Fake(lambda: "wrong"), 0, "")
        good = run.attempt(_Fake(lambda: "right"), 0, "")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert late.cause == "time limit" and late.latency_s == _Fake.limit_s
    assert raised.cause.startswith("ValueError") and raised.latency_s == _Fake.limit_s
    run.check_output(_Fake(None), wrong)
    run.check_output(_Fake(None), good)
    assert wrong.wrong and wrong.latency_s == _Fake.limit_s and wrong.cause.startswith("check")
    assert good.cause is None and good.latency_s < _Fake.limit_s and good.output is None


def test_an_op_keeps_its_median_latency_or_its_failure():
    timings = [run.Attempt(0, 0.3, None, None), run.Attempt(1, 0.2, None, None), run.Attempt(0, 0.1, None, None),
               run.Attempt(1, 0.5, "check: wrong", None), run.Attempt(0, 0.2, None, None)]
    ops = run.per_op(timings)
    assert [(a.op, round(a.latency_s, 12), a.cause) for a in ops] == [(0, 0.2, None), (1, 0.5, "check: wrong")]


def test_timings_scale_by_the_host_speed_around_them():
    speed = hostspeed.HostSpeed()
    speed.ends = [0.0, 1.0, 2.0, 19.5]
    speed.costs = [2 * hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S,
                   hostspeed.REFERENCE_S]
    timings = [run.Attempt(0, 0.4, None, None, start_s=1.0), run.Attempt(1, 0.4, None, None, start_s=19.0),
               run.Attempt(2, 0.2, "time limit", None, start_s=1.0)]
    assert [round(a.latency_s, 12) for a in run.scaled(timings, speed)] == [0.2, 0.4, 0.2]
    assert speed.slowness() == 2.0


def test_later_passes_time_again_only_short_ops_that_passed():
    class Four(_Fake):
        ops = [workloads.Op("tiny", "short", None), workloads.Op("tiny", "raises", None),
               workloads.Op("tiny", "long", None), workloads.Op("tiny", "wrong", None)]

        def run(self, op, out_dir):
            if op.label == "raises":
                raise ValueError("boom")
            if op.label == "long":
                time.sleep(self.retime_below_s * 1.5)
            return "wrong" if op.label == "wrong" else "right"

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        attempts, wall_s, passes = run.measure(Four(None), np.random.default_rng(0), SCRATCH, "x", 0.5)
    finally:
        signal.signal(signal.SIGALRM, previous)
    timed = [a.op for a in attempts]
    assert wall_s >= 0.5 and timed.count(0) >= 2 and timed.count(1) == timed.count(2) == timed.count(3) == 1
    assert all(a.output is None for a in attempts) and [a.wrong for a in attempts].count(True) == 1


def test_allocation_check_rejects_perturbed_outputs():
    w = workloads.AllocationScale(workloads.INSTANCE_SEED)
    op = next(o for o in w.ops if o.label.startswith("N=5 #4 "))
    result = w.run(op, "")
    w.check(op, result)
    problem = op.spec
    mu = np.array(result.mu)
    powers = [p.values_w.copy() for p in result.allocation.profiles]
    energy = result.allocation.total_energy_j
    optimum = checks.optimum_energy(problem)
    cap = problem.max_files_per_node[0]

    def alloc(mu=mu, powers=powers, energy=energy, optimum=optimum):
        return lambda: checks.check_allocation(problem, mu, powers, energy, optimum)

    extra = mu.copy()
    extra[0] += 1
    _rejects(alloc(mu=extra), "do not sum")
    over = mu.copy()
    over[1] -= cap + 1 - over[0]
    over[0] = cap + 1
    _rejects(alloc(mu=over), "outside their caps")
    busy = int(np.argmax(mu))
    weak = [p.copy() for p in powers]
    weak[busy] *= 0.5
    _rejects(alloc(powers=weak), "bits, needs")
    _rejects(alloc(energy=energy * (1 + 1e-6)), "powers give")
    _rejects(alloc(optimum=optimum * (1 - 1e-5)), "not the optimum")


def test_coding_check_rejects_perturbed_outputs():
    w = workloads.CodingScale(workloads.INSTANCE_SEED)
    op = w.ops[0]
    out = w.run(op, "")
    w.check(op, out)
    flipped = out.reconstructed.copy()
    flipped[0] ^= 1
    _rejects(lambda: w.check(op, dataclasses.replace(out, reconstructed=flipped)), "does not return the source")
    _rejects(lambda: w.check(op, dataclasses.replace(out, rejected=None)), "not rejected")


def _rewrite(out, name: str, edit) -> workloads.CliOutput:
    rows = checks.read_csv(os.path.join(out.out_dir, f"{name}.csv"))
    header = list(rows[0])
    rows = edit([dict(r) for r in rows])
    target = f"{out.out_dir}-edited"
    os.makedirs(target, exist_ok=True)
    with open(os.path.join(target, f"{name}.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        writer.writerows(rows)
    return dataclasses.replace(out, out_dir=target)


def _shift(rows, col: str, index: int, delta: float, key: str = "leos"):
    """Add ``delta`` to one row and to its total, so the sum still holds."""
    rows[index][col] = repr(float(rows[index][col]) + delta)
    total = next(r for r in rows[index:] if r[key] == "total")
    total[col] = repr(float(total[col]) + delta)
    return rows


def _set(rows, col: str, index: int, value: str):
    rows[index][col] = value
    return rows


def _scale(rows, col: str, index: int, factor: float):
    return _set(rows, col, index, repr(float(rows[index][col]) * factor))


def _first_total(rows) -> int:
    return next(i for i, r in enumerate(rows) if r["leos"] == "total")


def test_cli_checks_reject_perturbed_outputs():
    w = workloads.ReferenceCli(workloads.INSTANCE_SEED)

    def first(command, budget=None, task=None):
        return next(
            o for o in w.ops
            if o.spec.command == command and o.spec.sweep_task == task
            and (budget is None or (o.spec.e_max_j is not None) == budget)
        )

    cases = {
        ("downlink-energy", None, None): [
            (lambda r: _set(r, "energy_j", -1, repr(float(r[-1]["energy_j"]) * 1.01)), "not the sum"),
            (lambda r: _shift(r, "energy_j", 0, float(r[0]["baseline_energy_j"])), "constant-power"),
            (lambda r: _shift(r, "delivered_bits", 0, -float(r[0]["delivered_bits"]) / 2), "fewer than"),
        ],
        ("downlink-time", True, None): [
            (lambda r: _shift(r, "energy_j", 0, 0.01 * float(r[-1]["energy_j"])), "not within"),
            (lambda r: _set(r, "budget_bound", -1, "False"), "budget_bound=False"),
        ],
        ("uplink-energy", None, None): [
            (lambda r: _shift(r, "mu_files", 0, 1), "do not sum"),
            (lambda r: _shift(r, "energy_j", 0, 1e-4 * float(r[-1]["energy_j"])), "not the optimum"),
        ],
        ("uplink-time", True, None): [
            (lambda r: _set(r, "budget_bound", -1, "False"), "budget_bound=False"),
            (lambda r: _shift(r, "energy_j", 0, -1e-4 * float(r[-1]["energy_j"])), "not the optimum"),
        ],
        ("repair", False, None): [
            (lambda r: _shift(r, "files", 0, -1, "leos"), "regenerating repair uses"),
            (lambda r: _shift(r, "energy_j", 0, 1e-4 * float(r[0]["energy_j"])), "regenerating repair energy"),
            (lambda r: _shift(r, "energy_j", len(r) - 2, 1e-4 * float(r[-1]["energy_j"])), "mds repair energy"),
            (lambda r: _set(r, "budget_bound", -1, "True"), "expected False"),
        ],
        ("repair", True, None): [
            (lambda r: _set(r, "budget_bound", _first_total(r), "False"), "regenerating repair: budget_bound=False"),
            (lambda r: _set(r, "budget_bound", -1, "False"), "mds repair: budget_bound=False"),
            (lambda r: _scale(r, "duration_s", _first_total(r), 1.2), "not within"),
            (lambda r: _scale(r, "duration_s", -1, 1.2), "not within"),
        ],
        ("code-check", None, None): [(lambda r: _set(r, "rank_ok", 0, "False"), "rank check failed")],
        ("sweep", None, "downlink-energy"): [(lambda r: r[:-1], "rows for")],
        ("sweep", None, "uplink-energy"): [
            (lambda r: _set(r, "mu_1", 0, str(int(r[0]["mu_1"]) + 1)), "sum to"),
            (lambda r: _scale(r, "energy_j", 1, 1 + 1e-4), "energy_j energy"),
        ],
        ("sweep", None, "uplink-time"): [
            (lambda r: _scale(r, "energy_j", 2, 1 - 1e-4), "not the optimum"),
            (lambda r: _scale(r, "duration_s", 0, 1.01), "not the optimum"),
            (lambda r: _set(r, "budget_bound", 0, "True"), "reports budget_bound=True"),
        ],
        ("sweep", None, "repair-energy"): [
            (lambda r: _scale(r, "regen_energy_j", 0, 1 + 1e-4), "regen_energy_j energy"),
            (lambda r: _scale(r, "mds_energy_j", 1, 1 - 1e-4), "mds_energy_j energy"),
        ],
        ("sweep", None, "repair-time"): [
            (lambda r: _scale(r, "regen_duration_s", 0, 1.05), "regen_energy_j energy"),
            (lambda r: _scale(r, "mds_energy_j", 2, 1 + 1e-4), "mds_energy_j energy"),
        ],
    }
    for (command, budget, task), edits in cases.items():
        op = first(command, budget, task)
        out = w.run(op, str(SCRATCH / f"{command}-{task}"))
        w.check(op, out)
        name = f"sweep-{task}" if task else command
        for edit, fragment in edits:
            edited = _rewrite(out, name, edit)
            _rejects(lambda: w.check(op, edited), fragment)
            shutil.rmtree(edited.out_dir)
        _rejects(lambda: w.check(op, dataclasses.replace(out, code=4)), "exit code 4")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        for test in tests:
            test()
            print(f"ok   {test.__name__}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
