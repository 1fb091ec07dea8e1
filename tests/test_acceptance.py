"""Acceptance suite: one test per exit criterion, banded as specified.

The heavyweight experiment matrix (4 scenarios x 3 sizes x 6 variants x 30
paired repetitions) runs once in a session fixture; the criterion tests
read their cells from it. Each test prints a one-line verdict so the run
log shows every criterion's measured numbers next to its pass/fail.
"""

import os
import statistics
import time
from collections import defaultdict

import pytest

from blitzsim import checks
from blitzsim.congestion import FLOOR_BYTES, Mode, make_controller
from blitzsim.engine import NS_PER_MS, NS_PER_S, ms, seconds
from blitzsim.harness import (PRESETS, SIZES, PacketTrace, TwoFlowRun,
                              Variant, default_variants, replace,
                              rolling_bandwidth, run_matrix, single_flow_run)
from blitzsim.signaling import (AccessTech, BandwidthHint, OracleEstimator,
                                decode_hint, encode_hint)

JOBS = os.cpu_count() or 2


def _verdict(name, ok, detail):
    line = f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


@pytest.fixture(scope="session")
def matrix():
    """The full Table-style grid: 2160 runs, wall-clock budget 15 minutes."""
    scenarios = list(PRESETS.values())
    sizes = list(SIZES.values())
    variants = default_variants()
    reps = 30
    t0 = time.time()
    results = run_matrix(scenarios, sizes, variants, reps, jobs=JOBS)
    wall = time.time() - t0
    assert len(results) == 2160
    cells = defaultdict(list)
    for r in results:
        cells[(r.scenario, r.size_bytes, r.variant)].append(r)
    return {"cells": cells, "wall": wall, "results": results}


def _mean_fct_ms(cell):
    return statistics.fmean(r.fct for r in cell) / NS_PER_MS


def _mean_loss(cell):
    return statistics.fmean(r.lost_pkts for r in cell)


def test_criterion_1_solo_startup_doubles_exits_and_saturates():
    """Lone flow: per-RTT doubling, delay exit before saturation, full use."""
    cfg = PRESETS["dsl-fast"]
    trace = PacketTrace(only={"deliver"})
    conn = single_flow_run(cfg, 1 << 30, seconds(1.5), trace)
    ctrl = conn.controller
    exits = [(t, m) for t, m in ctrl.mode_trace if m is not Mode.SLOW_START]
    assert exits, "flow never left Slow Start"
    exit_t = exits[0][0]

    # exact doubling checkpoints while in Slow Start, one round trip apart
    doubles, detail = checks.check_slow_start_doubling(cfg.seed_base)
    assert doubles, detail

    series = rolling_bandwidth(trace.deliveries(0), cfg.rtt, seconds(1.5))
    rate = cfg.rate_bps
    t_sat = next((t for t, bps in series if bps >= 0.95 * rate), None)
    best_1s = max(bps for t, bps in series if t <= seconds(1)) / rate

    ok = (t_sat is not None and exit_t < t_sat
          and ms(100) <= exit_t <= ms(400) and best_1s >= 0.95)
    _verdict("criterion-1", ok,
             f"exit {exit_t / NS_PER_MS:.1f} ms, saturation "
             f"{t_sat / NS_PER_MS:.1f} ms, peak utilization within 1 s "
             f"{best_1s * 100:.1f}%")
    assert t_sat is not None
    assert exit_t < t_sat, "Slow Start exit did not precede saturation"
    assert ms(100) <= exit_t <= ms(400)
    assert best_1s >= 0.95


def test_criterion_2_second_flow_converges_slowly():
    """Fair-share approach of a flow entering a saturated bottleneck."""
    cfg = replace(PRESETS["dsl-fast"], sim_cap=seconds(25))
    trace = PacketTrace(only={"deliver"})
    run = TwoFlowRun(cfg, 1 << 30, Variant("baseline"), 0,
                     stop_on_completion=False)
    run.run(trace)
    start = run.short_conn.start_at
    assert start is not None
    series = rolling_bandwidth(trace.deliveries(1), seconds(1), seconds(25),
                               start=start)
    fair_band = 0.8 * (cfg.rate_bps / 2)
    hit = next(((t - start) / NS_PER_S for t, bps in series
                if bps >= fair_band), None)
    ok = hit is None or hit > 10.0
    _verdict("criterion-2", ok,
             "never within 20% of fair share over a 25 s horizon" if hit is None
             else f"first within 20% of fair share after {hit:.1f} s")
    assert ok


def test_criterion_3_dsl_fast_2mb_speedup_with_losses(matrix):
    cells = matrix["cells"]
    base = cells[("dsl-fast", SIZES["2M"], "baseline")]
    blitz = cells[("dsl-fast", SIZES["2M"], "blitz:1")]
    factor = _mean_fct_ms(base) / _mean_fct_ms(blitz)
    loss_b, loss_z = _mean_loss(base), _mean_loss(blitz)
    inflation = statistics.fmean(r.inflation for r in blitz)
    ok = factor >= 1.4 and loss_z > loss_b and inflation <= 0.20
    _verdict("criterion-3", ok,
             f"FCT speedup x{factor:.2f} (need >=1.4), losses {loss_z:.1f} vs "
             f"{loss_b:.1f} baseline, inflation {inflation * 100:.1f}% "
             f"(cap 20%)")
    assert factor >= 1.4
    assert loss_z > loss_b
    assert inflation <= 0.20


def test_criterion_4_loss_monotonicity_and_fct_ordering(matrix):
    cells = matrix["cells"]
    factors = (0.5, 1.0, 1.5, 3.0, 4.0)
    failures = []
    for scenario in PRESETS:
        for size in (SIZES["2M"], SIZES["10M"]):
            losses = [_mean_loss(cells[(scenario, size, f"blitz:{f:g}")])
                      for f in factors]
            if not all(a <= b for a, b in zip(losses, losses[1:])):
                failures.append((scenario, size, "losses", losses))
            fct05 = _mean_fct_ms(cells[(scenario, size, "blitz:0.5")])
            fct15 = _mean_fct_ms(cells[(scenario, size, "blitz:1.5")])
            if fct15 > fct05:
                failures.append((scenario, size, "fct", (fct05, fct15)))
    _verdict("criterion-4", not failures,
             "losses nondecreasing in estimate factor and FCT(1.5x) <= "
             f"FCT(0.5x) in all 8 cells" if not failures
             else f"violations: {failures}")
    assert not failures


@pytest.mark.xfail(
    strict=True,
    reason="Structurally out of reach in this model: the baseline needs a "
           "second flight for 52 packets against a 32-segment window, so "
           "the completion gap is one path round trip plus the bottleneck's "
           "standing queue delay, which exceeds one configured RTT whenever "
           "the long flow holds any standing queue; a standing queue is in "
           "turn required for startup criteria 1 and 2. See the decisions "
           "ledger for the full analysis.")
def test_criterion_5_70kb_within_one_rtt(matrix):
    cells = matrix["cells"]
    deltas = {}
    for scenario in ("dsl-slow", "dsl-fast"):
        base = _mean_fct_ms(cells[(scenario, SIZES["70K"], "baseline")])
        blitz = _mean_fct_ms(cells[(scenario, SIZES["70K"], "blitz:1")])
        deltas[scenario] = blitz - base
    rtt_ms_by = {s: PRESETS[s].rtt / NS_PER_MS for s in deltas}
    ok = all(abs(deltas[s]) <= rtt_ms_by[s] for s in deltas)
    _verdict("criterion-5", ok,
             ", ".join(f"{s}: delta {deltas[s]:+.0f} ms vs {rtt_ms_by[s]:.0f} "
                       "ms budget" for s in deltas))
    for scenario, delta in deltas.items():
        assert abs(delta) <= rtt_ms_by[scenario], (
            f"{scenario}: |{delta:.0f} ms| exceeds one RTT")


def test_criterion_6_lte_overestimation_helps(matrix):
    cells = matrix["cells"]
    fct_10 = _mean_fct_ms(cells[("lte", SIZES["2M"], "blitz:1")])
    fct_15 = _mean_fct_ms(cells[("lte", SIZES["2M"], "blitz:1.5")])
    ok = fct_15 < fct_10
    _verdict("criterion-6", ok,
             f"LTE 2MB mean FCT at 1.5x {fct_15:.0f} ms vs 1.0x {fct_10:.0f} ms")
    assert fct_15 < fct_10


def test_criterion_7_fairness_recovery(matrix):
    cells = matrix["cells"]
    base = [r.fairness for r in cells[("dsl-fast", SIZES["2M"], "baseline")]
            if r.fairness is not None]
    blitz = [r.fairness for r in cells[("dsl-fast", SIZES["2M"], "blitz:1")]
             if r.fairness is not None]
    med_b, med_z = statistics.median(base), statistics.median(blitz)
    ok = med_z > med_b
    _verdict("criterion-7", ok,
             f"median fairness ratio {med_z:.3f} (blitz 1.0x) vs {med_b:.3f} "
             "(baseline)")
    assert med_z > med_b


def test_criterion_8_property_suite_under_a_minute(capsys):
    t0 = time.time()
    lines = []
    ok = checks.run_all(seed=1, report=lines.append)
    wall = time.time() - t0
    for line in lines:
        print(line)
    _verdict("criterion-8", ok and wall < 60,
             f"{len(lines)} checks in {wall:.1f} s")
    assert ok, "invariant suite reported failures"
    assert wall < 60


def test_criterion_9_bdp_arithmetic_oracle():
    """blitzstart windows against an independent integer recomputation.

    Each window takes the matrix's path: the oracle's estimate, encoded
    and decoded as the hint, and the server's controller for it.
    """
    ratios = {0.5: (1, 2), 1.0: (1, 1), 1.5: (3, 2), 3.0: (3, 1), 4.0: (4, 1)}
    floor = FLOOR_BYTES
    bandwidths = [1, 2, 5, 10, 25, 50, 100, 320, 700, 1000]  # Mbit/s
    rtts = list(range(1, 500, 25))  # ms
    points = 0
    for mbit in bandwidths:
        kbps = mbit * 1000
        for rtt_ms in rtts:
            rtt_ns = rtt_ms * NS_PER_MS
            for factor, (num, den) in ratios.items():
                expected = (kbps * 1000 * rtt_ns * num) // (den * 8 * 10**9)
                expected = max(expected, floor)
                hint = BandwidthHint(AccessTech.DSL,
                                     OracleEstimator(factor).estimate(kbps))
                got = make_controller(decode_hint(encode_hint(hint)), rtt_ns,
                                      0).cwnd
                assert got == expected, (kbps, rtt_ms, factor, got, expected)
                points += 1
    _verdict("criterion-9", True,
             f"{points} grid points agree exactly with the integer oracle")
    assert points == 1000


def test_matrix_completes_within_budget(matrix):
    wall = matrix["wall"]
    timeouts = sum(1 for r in matrix["results"] if r.timeout)
    _verdict("matrix-budget", wall < 900,
             f"2160 runs in {wall / 60:.1f} min on {JOBS} workers, "
             f"{timeouts} timeouts")
    assert wall < 900, f"matrix took {wall:.0f} s"
    assert timeouts == 0


def test_matrix_summary_covers_the_whole_grid(matrix):
    from blitzsim.harness import summarize
    rows = summarize(matrix["results"])
    assert len(rows) == 72  # 4 scenarios x 3 sizes x 6 variants
    assert all(row["n"] == 30 for row in rows)
