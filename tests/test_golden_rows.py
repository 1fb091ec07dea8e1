"""A dozen matrix cells still produce their golden runs.csv rows.

perfbench/golden.json holds the sha256[:16] digest of every runs.csv row
the benchmark workloads produce; this re-runs a small, fast subset of them
(every preset, baseline and a 4x overestimated hint, 70K and 2M) so a
change that moves a result fails here within seconds. Only rows are
checked: counter digests may move under an optimisation, rows may not.

Three cells also pin their whole dispatch sequence: the sha256 of every
"event" row a `Simulator.recorder` takes, plus the simulator's scheduled,
cancelled and dispatched counts. An optimisation of the engine or of the
per-packet path must leave all of it as it is, unless it removes or moves
events on purpose; then the rows above must still match before these are
renewed.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from blitzsim.harness import (PRESETS, SIZES, PacketTrace, TwoFlowRun,
                              Variant, emit_runs_csv, run_scenario)

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


# (scenario, size, variant, rep): (trace sha256, scheduled, cancelled, dispatched)
TRACES = {
    ("dsl-fast", "70K", "baseline", 0): (
        "cdab8073bb5d20b360414a685fda41ffd3224327dbbbcb2634f3611efd5981fc",
        18231, 168, 17744),
    ("3g", "2M", "blitz:4", 1): (
        "2af7204bbc386c53c0c15f82f9269d1bf59a22dda87b628830b57b408558cbe8",
        43599, 13, 42660),
    ("lte", "2M", "blitz:3", 0): (
        "e8e4c543a05b56966c7f41c3e0b3d287d6f64cfdfbbb9cf23d6115988ecbb13e",
        18816, 173, 18439),
}


@pytest.mark.parametrize("scenario, size, variant, rep", TRACES)
def test_cell_dispatches_its_golden_event_sequence(scenario, size, variant,
                                                   rep):
    cfg = replace(PRESETS[scenario], seed_base=SEED)
    run = TwoFlowRun(cfg, SIZES[size], Variant.parse(variant), rep)
    trace = PacketTrace(only={"event"})
    run.run(trace)
    sim = run.sim
    text = "".join(f"{t},{seq},{kind},{target}\n"
                   for t, seq, _event, kind, target in trace.rows)
    got = (hashlib.sha256(text.encode()).hexdigest(), sim.scheduled,
           sim.cancelled, sim.dispatched)
    assert got == TRACES[(scenario, size, variant, rep)]
