"""A dozen matrix cells still produce their golden runs.csv rows.

ROWS holds the sha256[:16] digest of the seed-1 runs.csv row of a small,
fast subset of the matrix (every preset, baseline and a 4x overestimated
hint, 70K and 2M), the same digests perfbench/golden.json holds for those
rows, so a change that moves a result fails here within seconds. The pins
live here, so renewing the benchmark's golden file cannot move them. Only
rows are checked: counter digests may move under an optimisation, rows may
not.

Three cells also pin their whole dispatch sequence: the sha256 of every
"event" row a `PacketTrace` set as `Simulator.observer` takes, plus the
simulator's scheduled, cancelled and dispatched counts. An optimisation of
the engine or of the per-packet path must leave all of it as it is, unless
it removes or moves events on purpose; then the rows above must still
match before these are renewed.
"""

import hashlib
from dataclasses import replace

import pytest

from blitzsim.harness import (PRESETS, SIZES, PacketTrace, TwoFlowRun,
                              Variant, emit_runs_csv, run_scenario)

SEED = 1
# (scenario, size, variant, rep): sha256[:16] of its runs.csv row
ROWS = {
    ("dsl-slow", "70K", "baseline", 0): "80d1bef3216cdbe8",
    ("dsl-fast", "70K", "baseline", 0): "011410cfd990a001",
    ("3g", "70K", "baseline", 0): "2ee61cda83b63d59",
    ("lte", "70K", "baseline", 0): "eafd596fce103de3",
    ("dsl-slow", "70K", "blitz:4", 0): "4dad0ca28459b6c9",
    ("dsl-fast", "70K", "blitz:4", 0): "1bb237b5c2b6762c",
    ("3g", "70K", "blitz:4", 0): "d986ef936ea6e2d7",
    ("lte", "70K", "blitz:4", 0): "2026d4576531f5c3",
    ("dsl-slow", "2M", "blitz:4", 1): "0205581ce1fea5fa",
    ("dsl-fast", "2M", "blitz:4", 1): "8885a8f18649e26a",
    ("3g", "2M", "blitz:4", 1): "322bf96b5feb5453",
    ("lte", "2M", "blitz:4", 1): "65fa4ef420404ac4",
}


@pytest.mark.parametrize("scenario, size, variant, rep", ROWS)
def test_cell_matches_golden_row(tmp_path, scenario, size, variant, rep):
    cfg = replace(PRESETS[scenario], seed_base=SEED)
    result = run_scenario(cfg, SIZES[size], Variant.parse(variant), rep)
    path = tmp_path / "runs.csv"
    emit_runs_csv([result], path)
    row = path.read_text().splitlines()[1]
    assert (hashlib.sha256(row.encode()).hexdigest()[:16]
            == ROWS[(scenario, size, variant, rep)]), row


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
