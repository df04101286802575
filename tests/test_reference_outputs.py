"""CLI outputs against committed reference CSVs.

The CSVs under ``data/reference`` were written by the CLI when the uplink
allocator was still outer approximation and the waterfill still bisected its
level. Every column must match them except the solver diagnostics
``iterations``, ``z_lower`` and ``z_upper``: floats at rel 1e-12, every other
value exactly.
"""

import csv
import math
from pathlib import Path

import pytest

from georelay.cli import main

REFERENCE = Path(__file__).parent / "data" / "reference"
DIAGNOSTICS = {"iterations", "z_lower", "z_upper"}
FLOAT_REL_TOL = 1e-12

# reference file stem -> CLI arguments (each call writes exactly one CSV)
CALLS = {
    "code-check": ["code-check", "--dt", "1"],
    "downlink-energy": ["downlink-energy", "--dt", "1"],
    "downlink-time": ["downlink-time", "--dt", "1"],
    "uplink-energy": ["uplink-energy", "--dt", "1"],
    "uplink-time": ["uplink-time", "--dt", "1"],
    "repair": ["repair", "--dt", "1"],
    "uplink-time-budget": ["uplink-time", "--emax", "190000", "--dt", "1"],
    "repair-budget": ["repair", "--emax", "3000", "--dt", "1"],
    "sweep-uplink-energy": [
        "sweep", "--task", "uplink-energy", "--from", "0", "--to", "100", "--step", "50", "--dt", "1",
    ],
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return any(c in text for c in ".eEn")  # "inf"/"nan" too; plain integers compare exactly


@pytest.mark.parametrize("name", CALLS)
def test_cli_matches_reference_csv(tmp_path, name):
    assert main(CALLS[name] + ["--out", str(tmp_path)]) == 0
    (written,) = tmp_path.glob("*.csv")
    expected, got = read_rows(REFERENCE / f"{name}.csv"), read_rows(written)
    assert got[0] == expected[0]
    assert len(got) == len(expected)
    for r, (want_row, got_row) in enumerate(zip(expected[1:], got[1:]), start=1):
        assert len(got_row) == len(want_row), f"row {r}"
        for col, want, value in zip(expected[0], want_row, got_row):
            if col in DIAGNOSTICS:
                continue
            if is_float(want) and is_float(value):
                assert math.isclose(float(value), float(want), rel_tol=FLOAT_REL_TOL), f"row {r} {col}"
            else:
                assert value == want, f"row {r} {col}"
