"""A dozen matrix cells still produce their golden runs.csv rows.

perfbench/golden.json holds the sha256[:16] digest of every runs.csv row
the benchmark workloads produce; this re-runs a small, fast subset of them
(every preset, baseline and a 4x overestimated hint, 70K and 2M) so a
change that moves a result fails here within seconds. Only rows are
checked: counter digests may move under an optimisation, rows may not.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from blitzsim.harness import PRESETS, SIZES, Variant, emit_runs_csv, run_scenario

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
SEED = 1
CELLS = ([(name, "70K", "baseline", 0) for name in PRESETS]
         + [(name, "70K", "blitz:4", 0) for name in PRESETS]
         + [(name, "2M", "blitz:4", 1) for name in PRESETS])


@pytest.fixture(scope="module")
def golden_rows() -> dict[str, str]:
    """Row digest by `scenario,size_bytes,variant,rep`, over all workloads."""
    workloads = json.loads(GOLDEN.read_text())["workloads"]
    return {key: digests[0]
            for seeds in workloads.values()
            for key, digests in seeds[str(SEED)]["rows"].items()}


@pytest.mark.parametrize("scenario, size, variant, rep", CELLS)
def test_cell_matches_golden_row(tmp_path, golden_rows, scenario, size,
                                 variant, rep):
    cfg = replace(PRESETS[scenario], seed_base=SEED)
    result = run_scenario(cfg, SIZES[size], Variant.parse(variant), rep)
    path = tmp_path / "runs.csv"
    emit_runs_csv([result], path)
    row = path.read_text().splitlines()[1]
    key = ",".join(row.split(",", 4)[:4])
    assert hashlib.sha256(row.encode()).hexdigest()[:16] == golden_rows[key], row
