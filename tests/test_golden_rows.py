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
        "00a34b82d1f6a4c140fed2931075356be9331d3f96193b0875df9a5416ef460d",
        18230, 168, 17737),
    ("3g", "2M", "blitz:4", 1): (
        "6c69d6b80ce9e5e6f1a883eafb24bc0ba601fb446d62c9474b82506590276e17",
        43598, 13, 42498),
    ("lte", "2M", "blitz:3", 0): (
        "03d03db2dc1b8fed806c11c19aff5da3bafd37479c85fd45b3fe04d7e058b7b3",
        18815, 173, 18401),
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
