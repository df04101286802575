"""Closed-loop benchmark of the georelay planner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One caller in one process runs the workload's operations back to back: the
next op starts only after the previous one returns. ``--instance-seed``
picks the workload's fixed multiset of ops (its second value is for
held-out checks) and ``--seed`` orders every pass over it. The first
pass times every op; later passes time again the short ops that have not
failed, until ``--seconds`` have passed. Between ops the run times a fixed
reference work of its own (``hostspeed``), and every timing is scaled to
the reference speed by the reference work's median time around it, so
that the slow spells of a shared host do not move the metrics. An op's
latency is the median of its scaled timings; throughput is the passed ops
over the time one pass takes at those latencies (the wall-clock rate and
the host's slowness are printed beside it). Every output is checked
outside its timing; an op fails if it raises, misses the workload's time
limit or fails a check, and a failed op's latency counts as the limit.

With ``--trace 0`` the run also starts fresh interpreters to time set-up,
scaled the same way, and prints the end-to-end metrics. With
``--trace 1`` it makes three passes over every op, untraced, traced and
untraced, and prints the per-layer metrics of the traced pass with the
tracing overhead against the last pass. Earlier stdout lines hold the run metadata, every failed op,
and the sample counts; the last line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 120.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class OpTimeout(BaseException):
    """Raised by the interval timer when an op reaches its time limit.

    It derives from BaseException so that no ``except Exception`` inside
    the package can swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


@dataclass
class Attempt:
    op: int  # index into the workload's ops
    latency_s: float
    cause: str | None  # why the op failed; None when it passed
    output: object
    wrong: bool = False  # the op returned an output that failed its check
    start_s: float = 0.0  # perf_counter() when the op started


def attempt(workload, index: int, out_dir: str) -> Attempt:
    """Run one op under the workload's time limit."""
    output, cause = None, None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.limit_s)
        try:
            output = workload.run(workload.ops[index], out_dir)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        cause = "time limit"
    except Exception as exc:
        cause = f"{type(exc).__name__}: {exc}"[:300]
    latency = time.perf_counter() - start
    if cause is None and latency >= workload.limit_s:
        cause = "time limit"
    if cause is not None:
        latency = workload.limit_s
    return Attempt(index, latency, cause, output, start_s=start)


def measure(workload, order_rng, scratch: Path, tag: str, seconds: float, tracer=None, speed=None):
    """Passes over the ops until ``seconds`` have passed; the first one times every op.

    Every pass takes the ops in a seeded order. A later pass times again the
    ops whose first timing was under the workload's ``retime_below_s`` and
    that have not failed: a failed op's latency is the limit whatever a
    second try does. The run ends at the first op due after ``seconds``, or
    when no op is left to time again. Without a tracer each output is
    checked right after its timing, so that no output is kept; a traced
    run's outputs are checked once the tracer is removed, which keeps the
    checks' own calls into the package out of the trace. With ``speed``,
    the host's speed is sampled after every op.
    """
    attempts = []
    again: dict[int, bool] = {}
    passes = 0
    start = time.perf_counter()
    while True:
        for i in map(int, order_rng.permutation(len(workload.ops))):
            if passes and (not again[i] or time.perf_counter() - start >= seconds):
                continue
            a = attempt(workload, i, str(scratch / f"{tag}{len(attempts)}"))
            attempts.append(a)
            if speed is not None:
                speed.after_op(a.latency_s)
            if tracer is None:
                check_output(workload, a)
            else:
                tracer.end_op()
            again[i] = again.get(i, a.latency_s < workload.retime_below_s) and a.cause is None
        passes += 1
        wall_s = time.perf_counter() - start
        if wall_s >= seconds or not any(again.values()):
            return attempts, wall_s, passes


def check_output(workload, a: Attempt) -> None:
    """Check an output that returned in time and drop it; a failed check fails the op.

    A check that raises anything else, say on a CSV without its columns,
    fails the op the same way instead of ending the run.
    """
    if a.cause is None:
        try:
            workload.check(workload.ops[a.op], a.output)
        except Exception as exc:
            a.cause, a.wrong, a.latency_s = f"check: {type(exc).__name__}: {exc}"[:300], True, workload.limit_s
    a.output = None


def scaled(attempts, speed) -> list[Attempt]:
    """Passed timings scaled to the reference speed; a failure stays at the limit."""
    return [a if a.cause is not None else
            dataclasses.replace(a, latency_s=a.latency_s * speed.scale(a.start_s, a.start_s + a.latency_s))
            for a in attempts]


def passed(attempts) -> int:
    return sum(a.cause is None for a in attempts)


def per_op(attempts) -> list[Attempt]:
    """One entry per op: the median of its timings, or its first failure at the limit."""
    timings: dict[int, list[Attempt]] = {}
    for a in attempts:
        timings.setdefault(a.op, []).append(a)
    ops = []
    for i in sorted(timings):
        failed = [a for a in timings[i] if a.cause is not None]
        latency = statistics.median(a.latency_s for a in timings[i])
        ops.append(failed[0] if failed else Attempt(i, latency, None, None))
    return ops


# reference-work samples before each set-up probe and after the last
SETUP_SAMPLES = 20


def setup_times(args, speed) -> list[float]:
    """Seconds, at the reference speed, from starting a fresh interpreter until the first op is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--instance-seed", str(args.instance_seed)]
    spans = []
    for _ in range(SETUP_PROBES):
        speed.sample(SETUP_SAMPLES)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            if line.strip() == "ready":
                proc.kill()  # all that is left is tearing the interpreter down
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
        spans.append((start, elapsed))
    speed.sample(SETUP_SAMPLES)
    return [elapsed * speed.scale(start, start + elapsed) for start, elapsed in spans]


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def metadata(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "instance_seed": args.instance_seed,
        "trace": args.trace,
        "ops_per_pass": len(workload.ops),
        "op_limit_s": workload.limit_s,
        "src_lines": src_line_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "GEORELAY_THREADS": os.environ.get("GEORELAY_THREADS"),
    }


def report_failures(args, workload, ops) -> None:
    for a in ops:
        if a.cause is not None:
            op = workload.ops[a.op]
            print("failed-op " + json.dumps({
                "workload": args.workload, "seed": args.seed, "instance_seed": args.instance_seed,
                "size": op.size, "instance": op.label, "cause": a.cause,
            }))


def end_to_end(ops, setup: list[float], peak_rss_kb: int) -> dict:
    """The end-to-end metrics from each op's latency (a failed op's is the limit).

    Throughput is the passed ops over the time one pass takes at those
    latencies, so that, like the percentiles, it weighs every op once.
    """
    latencies_ms = [a.latency_s * 1000.0 for a in ops]
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": passed(ops) / sum(a.latency_s for a in ops), "unit": "1/s"},
        "op_p50_ms": {"value": deciles[4], "unit": "ms"},
        "op_p90_ms": {"value": deciles[8], "unit": "ms"},
        "ok_frac": {"value": passed(ops) / len(ops), "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="orders the ops of every pass")
    parser.add_argument("--seconds", type=float, default=10.0, help="least time one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=workloads.INSTANCE_SEED,
                        help=f"draws the workload's instances ({workloads.HELD_OUT_SEED} is the held-out set)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # one caller on one BLAS thread; the sweep thread pool stays off
    os.environ.pop("GEORELAY_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "georelay" / "__init__.py").is_file():
        print(f"georelay sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import georelay
    import numpy as np

    import hostspeed
    import workloads

    if Path(georelay.__file__).resolve().parent != (SRC / "georelay").resolve():
        print(f"imported georelay from {georelay.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    args = parse_args(argv, workloads)
    workload = workloads.WORKLOADS[args.workload](args.instance_seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    order_rng = np.random.default_rng(args.seed)
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    warm, traced = [], []
    try:
        if args.trace:
            import layers

            # a first untraced pass takes the first-call costs out of the two compared
            warm, _, _ = measure(workload, order_rng, scratch, "w", 0.0)
            tracer = layers.Tracer()
            tracer.install()
            try:
                traced, _, _ = measure(workload, order_rng, scratch, "t", 0.0, tracer)
            finally:
                tracer.uninstall()
            untraced, _, _ = measure(workload, order_rng, scratch, "u", 0.0)
        else:
            speed = hostspeed.HostSpeed()
            untraced, wall_s, passes = measure(workload, order_rng, scratch, "u", args.seconds, speed=speed)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for a in traced:
            check_output(workload, a)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    attempts = warm + traced + untraced
    ops = per_op(attempts if args.trace else scaled(attempts, speed))
    failed = len(ops) - passed(ops)
    print("meta " + json.dumps(metadata(args, workload)))
    report_failures(args, workload, ops)
    if args.trace:
        units = layers.per_layer_units()
        values = tracer.metrics(units)
        # rates over the time spent in ops, which leaves out the untraced pass's checks
        untraced_s, traced_s = (sum(a.latency_s for a in phase) for phase in (untraced, traced))
        values["trace.untraced_ops_per_s"] = passed(untraced) / untraced_s
        values["trace.ops_per_s"] = passed(traced) / traced_s
        values["trace.slowdown"] = traced_s / untraced_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        print("samples " + json.dumps({"ops": len(ops), "timings_per_phase": len(traced)}))
    else:
        metrics = end_to_end(ops, setup_times(args, speed), peak_rss_kb)
        print("samples " + json.dumps({
            "ops": len(ops), "passes": passes, "timings": len(attempts), "setup_probes": SETUP_PROBES,
            "failed": failed, "failed_frac": failed / len(ops),
            "wall_s": wall_s, "wall_ops_per_s": passed(attempts) / wall_s,
            "host_slowness": speed.slowness(), "reference_samples": len(speed.costs),
        }))
    print(json.dumps({"correct": not any(a.wrong for a in attempts), "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
