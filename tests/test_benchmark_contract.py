"""The package still offers every layer the benchmark traces.

``perfbench/layers.py`` wraps package functions by name and reads work
counts from their return values. A renamed function or a dropped result
field would only show when a traced benchmark run fails, so this test runs
two CLI calls under its tracer and resolves every per-layer metric that
``BENCHMARK.json`` declares.
"""

import importlib.util
from pathlib import Path

from georelay import cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_cli_calls_resolve_every_layer_metric(tmp_path):
    layers = load_layers()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert cli.main(["code-check", "--out", str(tmp_path)]) == 0
        assert cli.main(["uplink-energy", "--dt", "5", "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(layers.per_layer_units())
    for name in ("coding.encode.attempts", "uplink_opt.oa_solve.iterations", "link.build_channel.cells"):
        assert metrics[name] > 0, name
