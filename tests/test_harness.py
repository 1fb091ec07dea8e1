import contextlib
import hashlib
import importlib
import io
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blitzsim
from blitzsim import cli, harness
from blitzsim.cli import main
from blitzsim.congestion import Mode
from blitzsim.engine import Simulator, ms, seconds
from blitzsim.harness import (ESTIMATE_FACTORS, PRESETS, RUNS_HEADER, SIZES,
                              TRACE_HEADER, TRACE_ROWS, PacketTrace,
                              RunResult, ScenarioConfig, TwoFlowRun, Variant,
                              _anova_two_groups, _t_abs_cdf,
                              _t_critical, aggregate, check_cells,
                              default_variants,
                              emit_runs_csv, emit_summary_csv, emit_trace_csv,
                              fairness_ratio,
                              parse_scenario_file, rolling_bandwidth,
                              run_matrix, run_scenario, single_flow_run,
                              summarize)
from blitzsim.netmodel import Packet
from blitzsim.signaling import AccessTech
from blitzsim.transport import Ack


# -- presets: the four built-in profiles -------------------------------------------

def test_presets_match_published_profiles():
    expect = {
        "dsl-slow": (ms(50), 25_000, 104),
        "dsl-fast": (ms(50), 50_000, 208),
        "3g": (ms(90), 8_000, 140),
        "lte": (ms(70), 32_000, 560),
    }
    assert set(PRESETS) == set(expect)
    for name, (rtt, kbps, buf) in expect.items():
        cfg = PRESETS[name]
        assert (cfg.rtt, cfg.bottleneck_kbps, cfg.buffer_pkts) == (rtt, kbps, buf)
        assert cfg.long_flow_bytes == 1 << 30


def test_default_matrix_has_table_shape():
    variants = default_variants()
    assert [v.label() for v in variants] == [
        "baseline", "blitz:0.5", "blitz:1", "blitz:1.5", "blitz:3", "blitz:4"]
    assert len(PRESETS) * len(SIZES) * len(variants) == 72
    assert len(PRESETS) * len(SIZES) * len(variants) * 30 == 2160


def test_variant_parsing():
    assert Variant.parse("baseline") == Variant()
    assert Variant.parse("blitz:1.5") == Variant(1.5)
    assert Variant.parse("blitz:1.0").label() == "blitz:1"
    for text in ("turbo:9", "blitz:1:2"):
        with pytest.raises(ValueError):
            Variant.parse(text)


@pytest.mark.parametrize("factor", [0, -1, math.inf, math.nan, "baseline"])
def test_a_variant_factor_must_be_positive_and_finite(monkeypatch, factor):
    # an infinite factor once reached the oracle's Fraction and raised
    # OverflowError from check_cells; now no such variant is made, so
    # check_cells and run_matrix never see one
    def refuse(*args, **kwargs):
        raise AssertionError("simulated or pooled before rejecting")
    monkeypatch.setattr(Simulator, "run_until", refuse)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
    message = f"^variant factor must be positive and finite, got {factor!r}$"
    with pytest.raises(ValueError, match=message):
        Variant(factor)
    with pytest.raises(ValueError, match=message):
        check_cells([PRESETS["dsl-fast"]], [SIZES["70K"]], [Variant(factor)])
    with pytest.raises(ValueError, match=message):
        run_matrix([PRESETS["dsl-fast"]], [SIZES["70K"]],
                   [Variant(), Variant(factor)], reps=1, jobs=2)
    with pytest.raises(ValueError, match="bad variant 'Blitz:2'"):
        Variant.parse("Blitz:2")
    with pytest.raises(ValueError, match="bad variant 'blitz:inf'"):
        Variant.parse("blitz:inf")


@pytest.mark.parametrize("variants", [
    [Variant(), Variant(2.0), Variant()],
    [Variant(1.0), Variant(1.0000001)],  # both blitz:1
], ids=["baseline-twice", "blitz:1-twice"])
def test_two_variants_with_one_label_are_rejected_before_running(
        monkeypatch, variants):
    # runs.csv keys a run by its variant's label: two variants with one
    # label would write each key twice, and summarize would merge them
    def refuse(*args, **kwargs):
        raise AssertionError("simulated or pooled before rejecting")
    monkeypatch.setattr(Simulator, "run_until", refuse)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
    label = variants[-1].label()
    with pytest.raises(ValueError,
                       match=f"^two variants share the label {label}$"):
        run_matrix([PRESETS["dsl-fast"]], [SIZES["70K"]], variants, reps=2,
                   jobs=2)


# -- fairness ratio -----------------------------------------------------------------

def test_fairness_equal_share():
    assert fairness_ratio(5_000_000, 5_000_000) == 1.0


def test_fairness_long_flow_dominates():
    assert fairness_ratio(2_000_000, 8_000_000) == 0.25


def test_fairness_skewed_to_short_flow():
    assert fairness_ratio(3_000_000, 2_000_000) == 1.5


def test_fairness_undefined_without_long_bytes():
    assert fairness_ratio(1000, 0) is None


# -- rolling bandwidth ----------------------------------------------------------------

def test_rolling_bandwidth_constant_delivery_is_flat():
    # one 1500 B packet every 240 us is exactly 50 Mbit/s
    deliveries = [(i * 240_000, 1500) for i in range(1, 5000)]
    series = rolling_bandwidth(deliveries, ms(50), seconds(1))
    plateau = [bps for t, bps in series if ms(100) <= t <= seconds(1)]
    for bps in plateau:
        assert bps == pytest.approx(50e6, rel=0.005)


def test_rolling_bandwidth_empty_trace_is_zero():
    series = rolling_bandwidth([], ms(50), ms(200))
    assert all(bps == 0.0 for _t, bps in series)


def test_rolling_bandwidth_single_packet():
    # 1500 * 8 / 0.05 = 240 kbit/s while the packet is inside the window
    series = rolling_bandwidth([(ms(10), 1500)], ms(50), ms(200))
    by_t = dict(series)
    assert by_t[ms(10)] == pytest.approx(240_000)
    assert by_t[ms(59)] == pytest.approx(240_000)
    assert by_t[ms(61)] == 0.0
    assert by_t[ms(5)] == 0.0


def test_rolling_bandwidth_rejects_bad_window():
    with pytest.raises(ValueError):
        rolling_bandwidth([], 0, ms(10))


# -- statistics ------------------------------------------------------------------------

def _result(variant, rep, fct_ms, lost, fairness=1.0):
    return RunResult(scenario="t", size_bytes=2_000_000, variant=variant,
                     rep=rep, seed=1, fct=ms(fct_ms), lost_pkts=lost,
                     retransmitted_bytes=0, fairness=fairness)


def test_aggregate_identical_groups():
    group = [_result("baseline", i, 100, 5) for i in range(30)]
    stats = aggregate(group, group)
    assert stats["fct_factor"] == 1.0
    assert stats["fct_ci_lo_us"] <= 0.0 <= stats["fct_ci_hi_us"]
    assert not stats["fct_significant"]
    assert stats["fct_anova_f"] == 0.0
    assert stats["loss_factor"] == 1.0
    assert not stats["loss_significant"]


def test_aggregate_constant_difference_is_significant():
    base = [_result("baseline", i, 100, 5) for i in range(30)]
    var = [_result("blitz:1", i, 100, 10) for i in range(30)]
    stats = aggregate(var, base)
    assert stats["loss_delta_pkts"] == 5.0
    assert (stats["loss_ci_lo"], stats["loss_ci_hi"]) == (5.0, 5.0)
    assert stats["loss_significant"]
    assert stats["loss_factor"] == 2.0


def test_aggregate_fct_factor_convention():
    # baseline mean 1 s, variant mean 0.5 s: factor 2.0, delta -500 ms
    base = [_result("baseline", i, 1000, 0) for i in range(30)]
    var = [_result("blitz:1", i, 500, 0) for i in range(30)]
    stats = aggregate(var, base)
    assert stats["fct_factor"] == 2.0
    assert stats["fct_delta_us"] == pytest.approx(-500_000)
    assert stats["fct_significant"]
    # factor and signed delta always agree in direction
    assert (stats["fct_factor"] > 1.0) == (stats["fct_delta_us"] < 0)


def test_aggregate_needs_at_least_two_pairs():
    with pytest.raises(ValueError):
        aggregate([_result("v", 0, 1, 0)], [_result("baseline", 0, 1, 0)])


def test_aggregate_requires_paired_reps():
    base = [_result("baseline", i, 100, 0) for i in range(3)]
    var = [_result("v", i + 7, 100, 0) for i in range(3)]
    with pytest.raises(ValueError):
        aggregate(var, base)


def test_anova_distinguishes_separated_groups():
    base = [_result("baseline", i, 100 + (i % 3), 0) for i in range(30)]
    var = [_result("v", i, 200 + (i % 3), 0) for i in range(30)]
    stats = aggregate(var, base)
    assert stats["fct_anova_f"] > 100
    assert stats["fct_anova_p"] < 1e-6


# t.ppf(0.975, df) and f.sf(F, 1, df) from scipy.stats 1.17, written out
# once so the suite does not need scipy
T_975 = {1: 12.706204736174694, 2: 4.302652729749462, 5: 2.5705818356363146,
         29: 2.045229642132703, 58: 2.0017174841452356}
F_SF = {  # df: tails at F = 0.5, 4, 30
    1: (0.6081734479693928, 0.2951672353008665, 0.11496411795103316),
    2: (0.552786404500042, 0.18350341907227397, 0.03175416344814578),
    5: (0.5110840804302806, 0.10193947882985835, 0.0027649603013049557),
    29: (0.48514384674372213, 0.05494363718296717, 6.739145346941562e-06),
    58: (0.482331579127485, 0.05019046804144834, 9.736553607935728e-07),
}


@pytest.mark.parametrize("df", sorted(T_975))
def test_t_critical_matches_reference(df):
    assert _t_critical(df) == pytest.approx(T_975[df], rel=1e-13)


@pytest.mark.parametrize("df", sorted(F_SF))
def test_f_tail_matches_reference(df):
    for f_stat, want in zip((0.5, 4.0, 30.0), F_SF[df]):
        got = 1.0 - _t_abs_cdf(math.sqrt(f_stat), df)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_anova_p_never_prints_negative_zero():
    # here 1 - P(|T| < sqrt(F)) rounds to -2.2e-16
    a = [i % 3 for i in range(30)]
    f_stat, p = _anova_two_groups(a, [2000 + x for x in a])
    assert 1.0 - _t_abs_cdf(math.sqrt(f_stat), 58) < 0
    assert p == 0.0 and f"{p:.6f}" == "0.000000"


def test_run_matrix_rejects_a_zero_kbps_estimate_before_running():
    with pytest.raises(ValueError, match="blitz:0.0001"):
        run_matrix([PRESETS["3g"]], [SIZES["70K"]],
                   [Variant.parse("blitz:0.0001")], reps=1, jobs=2)


@pytest.mark.parametrize("size", [0, -5])
def test_a_short_flow_below_one_byte_is_rejected_before_running(
        monkeypatch, size):
    # unchecked, a 0-byte flow would simulate to the cap, then divide by 0;
    # neither a simulation nor a worker pool may start
    def refuse(*args, **kwargs):
        raise AssertionError("simulated or pooled before rejecting")
    monkeypatch.setattr(Simulator, "run_until", refuse)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
    message = f"^short flow size must be at least 1 byte, got {size}$"
    with pytest.raises(ValueError, match=message):
        run_scenario(PRESETS["dsl-fast"], size, Variant(), 0)
    with pytest.raises(ValueError, match=message):
        run_matrix([PRESETS["dsl-fast"]], [SIZES["70K"], size],
                   [Variant()], reps=1, jobs=2)


def test_a_one_ns_rtt_is_rejected_and_two_ns_runs():
    # with rtt // 2 == 0 the PTO would be 0, and a run would spin at t=0
    with pytest.raises(ValueError, match="rtt must be at least 2 ns, got 1"):
        replace(PRESETS["dsl-fast"], rtt=1)
    conn = single_flow_run(replace(PRESETS["dsl-fast"], rtt=2,
                                   long_flow_bytes=200_000), ms(100))
    assert conn.finished


# -- running scenarios --------------------------------------------------------------------

FAST70K = SIZES["70K"]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_run_scenario_is_deterministic():
    cfg = PRESETS["dsl-fast"]
    a = run_scenario(cfg, FAST70K, Variant(1.0), rep=0)
    b = run_scenario(cfg, FAST70K, Variant(1.0), rep=0)
    assert a == b


def test_run_scenario_reps_differ_via_jitter():
    cfg = PRESETS["dsl-fast"]
    a = run_scenario(cfg, FAST70K, Variant(), rep=0)
    b = run_scenario(cfg, FAST70K, Variant(), rep=1)
    assert a.short_start_at != b.short_start_at


def test_paired_seeding_same_start_jitter_across_variants():
    cfg = PRESETS["dsl-fast"]
    base = run_scenario(cfg, FAST70K, Variant(), rep=3)
    blitz = run_scenario(cfg, FAST70K, Variant(1.0), rep=3)
    assert base.short_start_at == blitz.short_start_at


def _saturated_at(run):
    """When the saturation check fired, or None if the flow never started.

    The short flow starts the configured offset plus the run's start
    jitter after it.
    """
    start = run.short_conn.start_at
    if start is None:
        return None
    return start - run.cfg.short_flow_start - run.start_jitter


def test_short_flow_waits_for_saturation():
    cfg = PRESETS["dsl-fast"]
    run = TwoFlowRun(cfg, FAST70K, Variant(), rep=0)
    trace = PacketTrace(only={"event"})
    r = run.run(trace)
    sat_at = _saturated_at(run)
    checks = [row[0] for row in trace.rows
              if row[3:] == ("app-start", "saturation")]
    assert checks and checks[-1] == sat_at  # the check that found a queue
    assert sat_at >= 2 * cfg.rtt
    assert r.short_start_at >= sat_at + cfg.short_flow_start


def test_a_run_pauses_at_the_short_flows_start_and_ends_at_its_finish():
    cfg = PRESETS["dsl-fast"]
    run = TwoFlowRun(cfg, FAST70K, Variant(1.0), 0)
    run.sim.run_until(cfg.sim_cap - 1)
    short = run.short_conn
    assert run.sim.now == short.start_at
    assert run.departed_at_start is not None and short.controller is None
    assert run.run() == TwoFlowRun(cfg, FAST70K, Variant(1.0), 0).run()
    assert run.sim.now == short.finished_at


def test_fct_lower_bound_two_round_trips():
    # handshake plus at least one data round trip
    cfg = PRESETS["dsl-fast"]
    r = run_scenario(cfg, FAST70K, Variant(), rep=0)
    assert not r.timeout
    assert r.fct >= 2 * cfg.rtt


def test_all_events_use_the_closed_kind_set():
    # new behaviours ride in the callback payload, never in new kinds
    trace = PacketTrace(only={"event"})
    TwoFlowRun(PRESETS["dsl-fast"], FAST70K, Variant(1.0), 0).run(trace)
    kinds = {kind for _t, _s, _event, kind, _target in trace.rows}
    assert kinds <= {"packet-arrival", "pacing-timer", "loss-timer",
                     "app-start"}
    assert {"packet-arrival", "pacing-timer", "app-start"} <= kinds


def test_each_timer_is_one_event_per_owner(monkeypatch):
    # a timer is bound through schedule when its owner is built and only
    # (re-)keyed after, and so is each per-packet callback, which its
    # owner pushes itself: even a lossy cell passes each through schedule
    # once per owner
    calls = Counter()
    schedule = Simulator.schedule

    def counted(sim, fire_at, kind, target, fn, arg=None):
        calls[fn.__func__.__qualname__, id(fn.__self__)] += 1
        return schedule(sim, fire_at, kind, target, fn, arg)

    monkeypatch.setattr(Simulator, "schedule", counted)
    cfg = PRESETS["dsl-fast"]
    result = TwoFlowRun(cfg, SIZES["2M"], Variant(4.0), 0).run()
    assert result.lost_pkts > 0
    owners = Counter()
    for (name, _owner), n in calls.items():
        if name == "Link.enqueue":  # one link, bound by each connection
            assert n == 2, name
            owners[name] += 1
        elif name in ("Connection.maybe_send", "Connection._on_pto",
                      "Receiver._on_ack_timer", "TwoFlowRun._on_saturated",
                      "Receiver.on_data", "Connection.on_ack"):
            assert n == 1, name
            owners[name] += 1
    assert owners == {"Connection.maybe_send": 2,
                      "Connection._on_pto": 2, "Receiver._on_ack_timer": 2,
                      "TwoFlowRun._on_saturated": 1, "Link.enqueue": 1,
                      "Receiver.on_data": 2, "Connection.on_ack": 2}


def test_a_schedule_wrapper_sees_the_callback_of_every_dispatched_event(
        monkeypatch):
    # a wrapper of schedule installed before the run is built hands down
    # the callback of every event the run dispatches, timers and the
    # events an owner pushes itself included, as a tracer that counts
    # events by kind needs
    calls = Counter()
    schedule = Simulator.schedule

    def wrapped(sim, fire_at, kind, target, fn, arg=None):
        def seen(*args):
            calls[kind, target] += 1
            return fn(*args)
        return schedule(sim, fire_at, kind, target, seen, arg)

    monkeypatch.setattr(Simulator, "schedule", wrapped)
    run = TwoFlowRun(PRESETS["dsl-fast"], SIZES["2M"], Variant(4.0), 0)
    trace = PacketTrace(only={"event"})
    assert run.run(trace).lost_pkts > 0
    assert calls == Counter(row[3:] for row in trace.rows)
    assert sum(calls.values()) == run.sim.dispatched


def test_blitz_run_reports_congestion_avoidance_from_first_packet():
    run = TwoFlowRun(PRESETS["dsl-fast"], FAST70K, Variant(1.0), 0)
    run.run()
    conn = run.short_conn
    ctrl = conn.controller
    # in avoidance from its creation, as the handshake ends
    assert ctrl.mode_trace[0] == (conn.start_at + conn.handshake_rtt,
                                  Mode.AVOIDANCE)
    assert all(m.value != "slow-start" for _t, m in ctrl.mode_trace)


ALL_ROWS = {"event", "send", "deliver", "drop", "ack", "cwnd"}


def test_a_run_copied_at_saturation_finishes_like_an_unforked_one():
    # a frozen run holds no stateful hook of its original: the run that
    # adopts it, observer and all, calls back only into its own objects,
    # so both end exactly as an unforked run
    cell = (PRESETS["dsl-fast"], FAST70K, Variant(4.0), 3)
    ref_trace = PacketTrace(only=ALL_ROWS)
    ref_run = TwoFlowRun(*cell)
    ref = ref_run.run(ref_trace)
    run = TwoFlowRun(*cell)
    run.sim.observer = PacketTrace(only=ALL_ROWS)
    run.sim.run_until(_saturated_at(ref_run))
    # the check has fired, and the short flow not started
    assert run.link.on_occupancy is None and run.short_conn.start_at is None
    fork = TwoFlowRun(*cell)
    fork.adopt(run.freeze())
    for each in (fork, run):
        assert each.run(each.sim.observer) == ref
        assert each.sim.observer.rows == ref_trace.rows


def _counters(run):
    """What a run leaves behind besides its RunResult."""
    sim, link = run.sim, run.link
    return ({flow: asdict(c) for flow, c in link.counters.items()},
            link.queued, link.max_queued,
            [(conn.pkts_sent, conn.bytes_acked, conn.payload_sent,
              conn.acks_received, conn.bytes_retransmitted, conn.lost_pkts)
             for conn in (run.long_conn, run.short_conn)],
            (sim.scheduled, sim.cancelled, sim.dispatched),
            _saturated_at(run))


FORK_CELLS = ([(seed, name, "70K", rep) for seed in (1, 7) for name in PRESETS
               for rep in (0, 1)]
              + [(1, "lte", "2M", 1), (7, "dsl-slow", "10M", 0)])


@pytest.mark.parametrize("seed, scenario, size, rep", FORK_CELLS)
def test_a_forked_run_equals_a_cold_run(seed, scenario, size, rep):
    # one warm-up, adopted by a fresh run of each variant in turn; the
    # warm run is left as it was, so every fork starts from the same state
    cfg = replace(PRESETS[scenario], seed_base=seed)
    variants = default_variants()
    warm = TwoFlowRun(cfg, SIZES[size], variants[0], rep)
    assert warm.warm_up() and warm.freeze() is not None
    done = warm.sim.now + 1  # the short flow's handshake completes here
    assert warm.short_conn.start_at + warm.short_conn.handshake_rtt == done
    assert warm.short_conn.controller is None
    for variant in variants:
        cold = TwoFlowRun(cfg, SIZES[size], variant, rep)
        cold_rows = PacketTrace(only={"event"})
        expected = cold.run(cold_rows)
        fork = TwoFlowRun(cfg, SIZES[size], variant, rep)
        fork.adopt(warm.freeze())
        fork_rows = PacketTrace(only={"event"})
        assert fork.run(fork_rows) == expected
        assert _counters(fork) == _counters(cold)
        assert fork_rows.rows == [row for row in cold_rows.rows
                                  if row[0] >= done]
    assert warm.sim.now == done - 1 and warm.short_conn.controller is None


@st.composite
def lossy_scenarios(draw) -> ScenarioConfig:
    """Small buffers, a packet jitter up to several serialization times
    and a short settle: the long flow has lost and resent packets by the
    time the short flow's handshake completes."""
    return ScenarioConfig(
        "gen", rtt=ms(draw(st.integers(2, 60))),
        bottleneck_kbps=draw(st.integers(1_000, 30_000)),
        buffer_pkts=draw(st.integers(2, 16)),
        access_tech=draw(st.sampled_from(AccessTech)),
        short_flow_start=ms(draw(st.integers(0, 200))),
        start_jitter_max=draw(st.one_of(st.none(),
                                        st.integers(0, ms(100)))),
        pkt_jitter_max=draw(st.integers(0, ms(5))),
        seed_base=draw(st.integers(0, 1000)), sim_cap=seconds(8))


@given(cfg=lossy_scenarios(), size=st.sampled_from([20_000, 70_000]),
       rep=st.integers(0, 3), factor=st.sampled_from(ESTIMATE_FACTORS))
@settings(max_examples=100, deadline=None)
def test_a_forked_run_equals_a_cold_run_on_generated_scenarios(
        cfg, size, rep, factor):
    warm = TwoFlowRun(cfg, size, Variant(), rep)
    assume(warm.warm_up())
    assert warm.freeze() is not None
    done = warm.sim.now + 1
    for variant in (Variant(), Variant(factor)):
        cold = TwoFlowRun(cfg, size, variant, rep)
        cold_rows = PacketTrace(only={"event"})
        expected = cold.run(cold_rows)
        fork = TwoFlowRun(cfg, size, variant, rep)
        fork.adopt(warm.freeze())
        fork_rows = PacketTrace(only={"event"})
        assert fork.run(fork_rows) == expected
        assert _counters(fork) == _counters(cold)
        assert fork_rows.rows == [row for row in cold_rows.rows
                                  if row[0] >= done]


@given(cfg=lossy_scenarios(), size=st.sampled_from([20_000, 70_000]),
       rep=st.integers(0, 3), factor=st.sampled_from(ESTIMATE_FACTORS))
@settings(max_examples=60, deadline=None)
def test_dispatch_keys_only_grow_on_generated_scenarios(cfg, size, rep,
                                                        factor):
    # the per-packet events are pushed inline, without schedule()'s check
    # against the past: a time before now would show as a key that falls
    trace = PacketTrace(only={"event"})
    TwoFlowRun(cfg, size, Variant(factor), rep).run(trace)
    keys = [row[:2] for row in trace.rows]
    assert keys and all(a < b for a, b in zip(keys, keys[1:]))


@given(cfg=lossy_scenarios(), size=st.sampled_from([20_000, 70_000]),
       rep=st.integers(0, 3), factor=st.sampled_from(ESTIMATE_FACTORS))
@settings(max_examples=40, deadline=None)
def test_an_observed_run_ends_as_an_unobserved_one_on_generated_scenarios(
        cfg, size, rep, factor):
    # the observer makes each call and only reads around it: keeping
    # every row kind moves no result, counter or event count
    trace = PacketTrace(only=ALL_ROWS)
    calls = 0

    def counted(event):
        nonlocal calls
        calls += 1
        trace(event)
    plain = TwoFlowRun(cfg, size, Variant(factor), rep)
    observed = TwoFlowRun(cfg, size, Variant(factor), rep)
    assert observed.run(counted) == plain.run()
    assert _counters(observed) == _counters(plain)
    assert calls == observed.sim.dispatched
    assert sum(row[2] == "event" for row in trace.rows) == calls


def test_the_cwnd_row_of_a_loss_declaring_ack_shows_the_reduced_window():
    # the row is taken once the ACK is fully handled: the long flow's ACK
    # at 1,432,915,991 ns declares a loss, and its row shows the window
    # Cubic reduced to, 0.7 of the one the flow's previous row shows
    run = TwoFlowRun(PRESETS["dsl-slow"], SIZES["70K"], Variant(0.5), 1)
    trace = PacketTrace(only={"cwnd"})
    run.run(trace)
    rows = [row for row in trace.rows if row[1] == 0]
    at = rows.index((1_432_915_991, 0, "cwnd", 170_100, Mode.RECOVERY))
    assert rows[at - 1][3:] == (243_000, Mode.AVOIDANCE)
    # every row's mode is the controller's after the ACK: the last change
    # by then, or Slow Start, in which each controller here begins
    for conn in (run.long_conn, run.short_conn):
        changes = conn.controller.mode_trace
        for now, flow, _kind, _cwnd, mode in trace.rows:
            if flow == conn.flow_id:
                assert mode == [Mode.SLOW_START,
                                *(m for t, m in changes if t <= now)][-1]


def _packet_refs(run):
    """Every reference to a Packet the sender, link and heap hold."""
    refs = []
    for conn in (run.long_conn, run.short_conn):
        refs += [*conn.records.values(), *conn.records_by_seq.values(),
                 *conn.retx_queue]
    refs += [pkt for _, _, pkt in run.link.queue]
    refs += [entry[3] for entry in run.sim._heap
             if isinstance(entry[3], Packet)]
    return refs


def _sharing(objs):
    """Each object's index of first appearance: which references alias."""
    first = {}
    return [first.setdefault(id(obj), len(first)) for obj in objs]


def test_a_lossy_run_frozen_mid_flight_resumes_in_a_fresh_run():
    # Packets and ACKs pickle as their constructor's arguments and the
    # jitter generator as its packed state; a loaded copy must keep each
    # packet one object across the places that hold it, and its flags
    cfg, variant = PRESETS["dsl-slow"], Variant(4.0)
    source = TwoFlowRun(cfg, SIZES["70K"], variant, 0)
    assert source.warm_up()

    def lossy():
        conns = (source.long_conn, source.short_conn)
        heap_args = [entry[3] for entry in source.sim._heap]
        return (any(conn.retx_queue for conn in conns)
                and any(pkt.acked for conn in conns
                        for pkt in conn.records.values())
                and any(isinstance(arg, Ack) for arg in heap_args)
                and any(isinstance(arg, Packet) for arg in heap_args)
                and source.link.queue)
    while not lossy():
        assert not source.short_conn.finished
        source.sim.run_until(source.sim.now + ms(1))
    fork = TwoFlowRun(cfg, SIZES["70K"], variant, 0)
    fork.adopt(source.freeze())

    refs, fork_refs = _packet_refs(source), _packet_refs(fork)
    assert len(set(map(id, refs))) < len(refs)  # some packets are shared
    assert _sharing(fork_refs) == _sharing(refs)
    assert not set(map(id, fork_refs)) & set(map(id, refs))
    fields = Packet.__slots__
    assert ([[getattr(pkt, name) for name in fields] for pkt in fork_refs]
            == [[getattr(pkt, name) for name in fields] for pkt in refs])
    assert any(pkt.lost for pkt in refs) and any(pkt.acked for pkt in refs)
    acks = [(entry[0], entry[3]) for entry in source.sim._heap
            if isinstance(entry[3], Ack)]
    fork_acks = [(entry[0], entry[3]) for entry in fork.sim._heap
                 if isinstance(entry[3], Ack)]
    assert ([(at, ack.acked_ranges, ack.largest_acked_pkt_num)
             for at, ack in fork_acks]
            == [(at, ack.acked_ranges, ack.largest_acked_pkt_num)
                for at, ack in acks])

    # both connections of a run draw their lags from one generator
    rng = source.long_conn._lag[0].__self__
    fork_rng = fork.long_conn._lag[0].__self__
    assert source.short_conn._lag[0].__self__ is rng
    assert fork.short_conn._lag[0].__self__ is fork_rng
    assert fork_rng is not rng
    assert fork_rng.getstate() == rng.getstate()
    assert fork.run() == source.run()
    assert _counters(fork) == _counters(source)
    assert fork_rng.getstate() == rng.getstate()


def _hot_parts(run):
    """The run and the objects it reads or writes for every packet."""
    link, conns = run.link, (run.long_conn, run.short_conn)
    return [run, run.sim, link, link.config, *link.counters.values(),
            *conns, *(conn.controller for conn in conns),
            *(conn.acked_ranges for conn in conns),
            *(conn.receiver for conn in conns),
            *(conn.receiver.ranges for conn in conns)]


def test_hot_parts_keep_their_state_in_slots():
    # Link and Connection keep a __dict__ for outside hooks, so an
    # attribute missing from their __slots__ would land there quietly
    cfg = PRESETS["dsl-fast"]
    variants = [Variant(), Variant(4.0)]
    cold = TwoFlowRun(cfg, FAST70K, variants[1], 0)
    cold.run()
    warm = TwoFlowRun(cfg, FAST70K, variants[0], 0)
    assert warm.warm_up()
    fork = TwoFlowRun(cfg, FAST70K, variants[1], 0)
    fork.adopt(warm.freeze())
    fork.run()
    for run in (cold, fork):
        for part in _hot_parts(run):
            assert "__slots__" in type(part).__dict__, type(part).__name__
            assert getattr(part, "__dict__", {}) == {}, type(part).__name__


def test_a_plain_function_hook_on_a_part_keeps_the_group_cold(
        fresh_cache, monkeypatch):
    # The short flow's on_finished wrapped in a plain function, as an
    # outside observer might. A copy would share the wrapper, so a fork
    # would call the warm run's _on_finished and never stop: on lte 70K
    # rep 0, blitz:3 would run to the cap and report fairness 6.5e-05.
    cfg = PRESETS["lte"]
    variants = [Variant(), Variant(1.0),
                Variant(3.0)]
    expected = [TwoFlowRun(cfg, FAST70K, v, 0).run() for v in variants]
    assert round(expected[2].fairness, 4) == 0.1187
    init = TwoFlowRun.__init__

    def hooked(run, *args, **kwargs):
        init(run, *args, **kwargs)
        on_finished = run.short_conn.on_finished
        run.short_conn.on_finished = lambda now: on_finished(now)

    monkeypatch.setattr(TwoFlowRun, "__init__", hooked)
    run = TwoFlowRun(cfg, FAST70K, variants[0], 0)
    assert run.freeze() is None
    assert run.warm_up() and run.freeze() is None
    adopted = _record(monkeypatch, "adopt")
    assert [run_scenario(cfg, FAST70K, v, 0) for v in variants] == expected
    assert adopted == [] and harness._WarmUp.run is None


@pytest.fixture
def fresh_cache(monkeypatch):
    """run_scenario's warm-up cache as a new process finds it."""
    for name, value in (("key", None), ("requests", 0), ("keep_at", 1),
                        ("run", None)):
        monkeypatch.setattr(harness._WarmUp, name, value)


def _record(monkeypatch, name):
    """The (variant, rep) of each run that TwoFlowRun.<name> is called on."""
    calls = []
    method = getattr(TwoFlowRun, name)

    def recorded(run, *args):
        calls.append((run.variant, run.rep))
        return method(run, *args)
    monkeypatch.setattr(TwoFlowRun, name, recorded)
    return calls


def _wrap_schedule(monkeypatch):
    """Schedule every callback wrapped in a lambda, as a tracer would."""
    schedule = Simulator.schedule
    monkeypatch.setattr(
        Simulator, "schedule",
        lambda sim, at, kind, target, fn, arg=None: schedule(
            sim, at, kind, target, lambda *a: fn(*a), arg))


def test_run_scenario_forks_from_the_second_run_once_groups_repeat(
        fresh_cache, monkeypatch):
    adopted = _record(monkeypatch, "adopt")
    cfg = replace(PRESETS["dsl-fast"], seed_base=7)
    variants = default_variants()
    for rep in (2, 3):
        got = [run_scenario(cfg, FAST70K, v, rep) for v in variants]
        assert got == [TwoFlowRun(cfg, FAST70K, v, rep).run()
                       for v in variants]
    # a new process takes its caller to repeat groups: the first run of
    # each group keeps the warm run and the rest fork
    assert adopted == ([(v, 2) for v in variants[1:]]
                       + [(v, 3) for v in variants[1:]])
    # a recorded run never forks, and leaves the group's warm run alone
    trace = PacketTrace(only={"event"})
    assert run_scenario(cfg, FAST70K, variants[1], 3, trace) == got[1]
    assert trace.rows[0][1] == 0 and len(adopted) == 10
    assert run_scenario(cfg, FAST70K, variants[1], 3) == got[1]
    assert len(adopted) == 11
    # a run built with a wrapped callback does not adopt a warm run that
    # was kept before the wrapper came
    _wrap_schedule(monkeypatch)
    assert run_scenario(cfg, FAST70K, variants[4], 3) == got[4]
    assert len(adopted) == 11 and harness._WarmUp.run is not None


def test_a_run_that_cannot_fork_warms_up_and_finishes_cold(fresh_cache,
                                                           monkeypatch):
    # freeze() is the only check on the keeping side: the first run of
    # each group stops at its warm-up, gets None and finishes as if cold
    warm_ups = _record(monkeypatch, "warm_up")
    adopted = _record(monkeypatch, "adopt")
    _wrap_schedule(monkeypatch)
    cfg = replace(PRESETS["dsl-fast"], seed_base=7)
    variants = default_variants()[:3]
    for rep in (2, 3):
        got = [run_scenario(cfg, FAST70K, v, rep) for v in variants]
        assert harness._WarmUp.run is None
        assert got == [TwoFlowRun(cfg, FAST70K, v, rep).run()
                       for v in variants]
    assert warm_ups == [(variants[0], 2), (variants[0], 3)]
    assert adopted == []


def test_a_caller_that_never_repeats_a_group_warms_up_only_its_first_run(
        fresh_cache, monkeypatch):
    # the bulk-10M and overshoot-loss benchmark workloads ask for each
    # group once, in this order; at 70K to stay fast. A new process keeps
    # its first run warm, as for a caller that repeats groups, and drops
    # it at the second group, whose caller has shown it does not.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    warm_ups = _record(monkeypatch, "warm_up")
    frozen = _record(monkeypatch, "freeze")
    adopted = _record(monkeypatch, "adopt")
    tasks = [task for name in ("bulk-10M", "overshoot-loss")
             for round_index in range(2)
             for task in workloads.WORKLOADS[name].tasks(1, round_index)]
    first = (tasks[0][2], tasks[0][3])
    for runs, (cfg, _size, variant, rep) in enumerate(tasks, 1):
        run_scenario(cfg, FAST70K, variant, rep)
        assert harness._WarmUp.requests == 1
        assert (harness._WarmUp.run is not None) is (runs == 1)
        assert warm_ups == frozen == [first]
    assert runs == 32 and adopted == []


def test_run_matrix_of_two_variants_forks_each_group_after_the_first(
        fresh_cache, monkeypatch):
    # each group's first run keeps a warm run and the second adopts it,
    # the first group's too
    adopted = _record(monkeypatch, "adopt")
    warm_ups = _record(monkeypatch, "warm_up")
    cfg = replace(PRESETS["dsl-fast"], seed_base=7)
    variants = [Variant(), Variant(4.0)]
    results = run_matrix([cfg], [FAST70K], variants, reps=3, jobs=1)
    assert warm_ups == [(variants[0], rep) for rep in range(3)]
    assert adopted == [(variants[1], rep) for rep in range(3)]
    assert results == sorted(
        (TwoFlowRun(cfg, FAST70K, v, rep).run() for v in variants
         for rep in range(3)), key=lambda r: (r.variant, r.rep))


def _call(fn, now):
    fn(now)


def _after_init(hook):
    """An installer of hook(run) on every TwoFlowRun built after it."""
    def install(monkeypatch):
        init = TwoFlowRun.__init__

        def hooked(run, *args, **kwargs):
            init(run, *args, **kwargs)
            hook(run)
        monkeypatch.setattr(TwoFlowRun, "__init__", hooked)
    return install


def _closure_on_finished(run):
    on_finished = run.short_conn.on_finished
    run.short_conn.on_finished = lambda now: on_finished(now)


def _closure_in_a_property_hook(monkeypatch):
    # as perfbench's Tracer._hook does: the class attribute becomes a
    # property that keeps a wrapper in the instance dict
    def store(conn, fn):
        conn.__dict__["hooked"] = lambda *args: fn(*args)
    monkeypatch.setattr(harness.Connection, "controller_factory", property(
        lambda conn: conn.__dict__["hooked"], store))


def _closure_in_a_dict(run):
    # no slot names it: it sits in the link's instance dict alone
    run.link.observer = lambda now: None


def _closure_as_a_method(monkeypatch):
    # a wrapper patched onto the class under another name, as perfbench's
    # Tracer.patch does: a timer and the pacing events hold it bound
    maybe_send = harness.Connection.maybe_send

    def spanned(conn, now):
        return maybe_send(conn, now)
    monkeypatch.setattr(harness.Connection, "maybe_send", spanned)


def _closure_as_heap_callback(run):
    # an event at the cap is never dispatched
    run.sim.schedule(run.cfg.sim_cap, "app-start", "x", lambda now: None)


def _closure_as_heap_argument(run):
    run.sim.schedule(run.cfg.sim_cap, "app-start", "x", run.link.enqueue,
                     lambda: None)


def _partial_on_finished(run):
    run.short_conn.on_finished = partial(_call, run.short_conn.on_finished)


@pytest.mark.parametrize("install, forks", [
    (_after_init(_closure_on_finished), False),
    (_closure_in_a_property_hook, False),
    (_after_init(_closure_in_a_dict), False),
    (_after_init(_closure_as_heap_callback), False),
    (_after_init(_closure_as_heap_argument), False),
    (_closure_as_a_method, False), (_after_init(_partial_on_finished), True),
], ids=["slot", "property-hook", "instance-dict", "heap-callback",
        "heap-argument", "method", "partial"])
def test_a_run_with_a_plain_function_callback_is_not_forkable(
        fresh_cache, monkeypatch, install, forks):
    # A copy would share a closure, lambda or local function and whatever
    # it holds, so a run that holds one anywhere does not pickle; a
    # partial of a module-level function pickles with its arguments.
    cfg, variants = PRESETS["dsl-fast"], default_variants()[:3]
    install(monkeypatch)
    run = TwoFlowRun(cfg, FAST70K, variants[0], 0)
    assert run.warm_up() and (run.freeze() is not None) is forks
    expected = [TwoFlowRun(cfg, FAST70K, v, rep).run()
                for rep in (0, 1) for v in variants]
    adopted = _record(monkeypatch, "adopt")
    assert [run_scenario(cfg, FAST70K, v, rep)
            for rep in (0, 1) for v in variants] == expected
    assert len(adopted) == (4 if forks else 0)
    assert (harness._WarmUp.run is not None) is forks


def test_a_group_that_never_saturates_caches_nothing_and_times_out(
        fresh_cache, tmp_path):
    cfg = replace(PRESETS["dsl-fast"], long_flow_bytes=1)
    results = [run_scenario(cfg, FAST70K, v, 0) for v in default_variants()]
    assert harness._WarmUp.key == (cfg, FAST70K, 0)
    assert harness._WarmUp.requests == 6 and harness._WarmUp.run is None
    path = tmp_path / "runs.csv"
    emit_runs_csv(results, path)
    assert path.read_text().splitlines()[1:] == [
        f"dsl-fast,70000,{v.label()},0,1,,0,0,0.000000,,1"
        for v in sorted(default_variants(), key=Variant.label)]
    assert all(r.short_start_at is None for r in results)


TIMEOUT_CFG = replace(PRESETS["dsl-fast"], short_flow_start=0,
                      sim_cap=ms(400))


def test_timeout_flagging():
    # the short flow starts about 0.33 s in and cannot finish by the cap
    r = run_scenario(TIMEOUT_CFG, FAST70K, Variant(), rep=0)
    assert r.short_start_at is not None
    assert r.timeout
    assert r.fct is None


def test_a_capped_run_dispatches_nothing_at_or_after_the_cap():
    trace = PacketTrace(only={"event"})
    run = TwoFlowRun(TIMEOUT_CFG, FAST70K, Variant(), 0)
    assert run.run(trace).timeout
    cap = TIMEOUT_CFG.sim_cap
    assert max(row[0] for row in trace.rows) < cap
    assert all(row[3] != "sim-end" for row in trace.rows)
    # events at the cap and after it were left undone
    assert min(entry[0] for entry in run.sim._heap) >= cap
    assert run.sim.now == cap - 1


@pytest.mark.parametrize("cfg, finished", [(PRESETS["dsl-fast"], True),
                                           (TIMEOUT_CFG, False)])
def test_link_counters_conserve_packets_after_a_run(cfg, finished):
    # departures are retired lazily, so run() settles the link before it
    # returns: every admitted packet is queued or departed, never both
    run = TwoFlowRun(cfg, FAST70K, Variant(), 0)
    assert run.run().timeout is not finished
    link = run.link
    queued = Counter(pkt.flow_id for _departure, _seq, pkt in link.queue)
    assert set(link.counters) == {0, 1}
    for flow, c in link.counters.items():
        assert c.injected - c.dropped - c.departed == queued[flow]
        assert c.delivered <= c.departed
    assert sum(queued.values()) == link.queued > 0
    # the first packet still queued departs after the stop
    assert link.queue[0][0] >= run.sim.now


def test_fairness_counts_a_departure_at_the_finish_only_if_it_came_first():
    # A packet departs in the nanosecond the short flow's finishing ACK
    # arrives. It counts only if its arrival took an earlier sequence
    # number than that ACK's arrival, which the run stopped in; here it
    # took a later one, so the row is the full matrix's.
    cfg = replace(PRESETS["3g"], seed_base=1)
    run = TwoFlowRun(cfg, SIZES["2M"], Variant(4.0), 0)
    result = run.run()
    finish = run.short_conn.finished_at
    head_at, head_seq, _head = run.link.queue[0]
    assert head_at == finish == run.sim.now
    assert head_seq > run.sim.seq
    row = (f"{result.scenario},{result.size_bytes},{result.variant},"
           f"{result.rep},{result.seed},{result.fct // 1000},"
           f"{result.lost_pkts},{result.retransmitted_bytes},"
           f"{result.inflation:.6f},{result.fairness:.6f},"
           f"{int(result.timeout)}")
    assert row == "3g,2000000,blitz:4,0,1,4159999,256,345600,0.172800,1.147586,0"


def test_run_matrix_covers_all_cells_and_sorts():
    cfg = replace(PRESETS["dsl-fast"], sim_cap=seconds(30))
    results = run_matrix([cfg], [FAST70K], default_variants(), reps=2, jobs=2)
    assert len(results) == 12
    keys = [(r.scenario, r.size_bytes, r.variant, r.rep) for r in results]
    assert keys == sorted(keys)
    assert len(set(keys)) == 12


def test_run_matrix_starts_no_more_workers_than_runs(monkeypatch):
    sizes = []

    class FakeExecutor:  # runs the tasks in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            chunks.append([task[:4] for task in tasks][::chunksize])
            return map(fn, tasks)

    chunks = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        FakeExecutor)
    cfg = replace(PRESETS["dsl-fast"], short_flow_start=0, sim_cap=ms(400))
    results = run_matrix([cfg], [FAST70K], [Variant()], reps=3,
                         jobs=8)
    assert sizes == [3]
    assert [r.rep for r in results] == [0, 1, 2]
    # a worker takes a whole group, (cfg, size, rep), so one group of six
    # variants runs in one process
    variants = default_variants()
    results = run_matrix([cfg], [FAST70K], variants, reps=1, jobs=2)
    assert sizes == [3]
    assert len(results) == 6
    results = run_matrix([cfg], [FAST70K], variants, reps=2, jobs=8)
    assert sizes == [3, 2]
    assert chunks[-1] == [(cfg, FAST70K, variants[0], 0),
                          (cfg, FAST70K, variants[0], 1)]
    assert [(r.variant, r.rep) for r in results] == sorted(
        (v.label(), rep) for v in variants for rep in (0, 1))


class InjectedFault(Exception):
    """A run's fault; module level, so a worker pickles it by name."""


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failed_run_names_its_cell(monkeypatch, jobs):
    # the fork start method carries the patch into the workers, and the
    # exception reaches the caller with its type and one note, the runs.csv
    # key and the seed, whether it was raised here or in a worker
    cfg = replace(PRESETS["dsl-fast"], short_flow_start=0, sim_cap=ms(400))
    run = TwoFlowRun.run

    def fail_one(self, observer=None):
        if self.variant.label() == "blitz:1" and self.rep == 1:
            raise InjectedFault("injected")
        return run(self, observer)
    monkeypatch.setattr(TwoFlowRun, "run", fail_one)
    with pytest.raises(InjectedFault) as caught:
        run_matrix([cfg], [FAST70K], default_variants(), reps=2, jobs=jobs)
    assert caught.value.args == ("injected",)
    assert caught.value.__notes__ == ["cell dsl-fast,70000,blitz:1,1 seed 1"]


NO_WORKER_LEFT = """
import multiprocessing, os, sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from blitzsim.engine import ms
from blitzsim.harness import PRESETS, TwoFlowRun, Variant, run_matrix

cfg = replace(PRESETS["dsl-fast"], short_flow_start=0, sim_cap=ms(400))
variants = [Variant(), Variant(1.0)]

def fail(self, observer=None):
    raise ValueError("injected")

def die(self, observer=None):  # as a worker the OOM killer ends
    os._exit(3)

for patch, expected in ((fail, ValueError), (die, BrokenProcessPool)):
    TwoFlowRun.run = patch
    try:
        run_matrix([cfg], [70_000], variants, reps=4, jobs=2)
    except expected:
        pass
    else:
        sys.exit(f"{patch.__name__}: run_matrix returned")
    left = multiprocessing.active_children()
    if left:
        sys.exit(f"{patch.__name__}: workers left behind: {left}")
print("ok")
"""


def test_a_failed_matrix_leaves_no_worker_behind():
    # A run that raises and a worker that dies mid-run both end run_matrix
    # at 2 jobs with no child process alive. The script runs in a session
    # of its own, so a run_matrix that hangs instead is killed with its
    # workers when the timeout ends it.
    src = str(Path(blitzsim.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-c", NO_WORKER_LEFT],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_matrix hung after a failed run")
    assert proc.returncode == 0, err[-4000:]
    assert out == "ok\n"


def test_a_raising_progress_cancels_the_groups_not_taken(monkeypatch,
                                                         tmp_path):
    # progress raises at the first result, as a write to a closed stderr
    # would; the groups no worker has taken then never run
    cfg = replace(PRESETS["dsl-fast"], short_flow_start=0, sim_cap=ms(400))
    variants = [Variant(), Variant(1.0)]
    started = tmp_path / "started"
    run = TwoFlowRun.run

    def counted(self, observer=None):  # the fork start method carries it
        with open(started, "a") as fh:
            fh.write("x")
        return run(self, observer)

    def progress(done, total):
        raise OSError("stderr closed")
    monkeypatch.setattr(TwoFlowRun, "run", counted)
    with pytest.raises(OSError, match="stderr closed"):
        run_matrix([cfg], [FAST70K], variants, reps=30, jobs=2,
                   progress=progress)
    assert len(started.read_text()) < 30 * len(variants)


# -- emission ---------------------------------------------------------------------------

def test_emit_runs_csv_schema_and_determinism(tmp_path):
    cfg = PRESETS["dsl-fast"]
    results = [run_scenario(cfg, FAST70K, Variant(), rep=i)
               for i in range(2)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_runs_csv(results, p1)
    emit_runs_csv(results, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == RUNS_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "dsl-fast"
    assert first[1] == str(FAST70K)
    assert first[2] == "baseline"


def test_emit_runs_csv_header_only_when_empty(tmp_path):
    p = tmp_path / "empty.csv"
    emit_runs_csv([], p)
    assert p.read_text() == RUNS_HEADER + "\n"


def test_summary_has_one_row_per_cell_with_stats(tmp_path):
    base = [_result("baseline", i, 1000, 2) for i in range(5)]
    var = [_result("blitz:1", i, 500, 9) for i in range(5)]
    rows = summarize(base + var)
    assert len(rows) == 2
    by_variant = {r["variant"]: r for r in rows}
    assert by_variant["blitz:1"]["fct_factor"] == pytest.approx(2.0)
    assert by_variant["baseline"]["fct_factor"] == pytest.approx(1.0)
    p = tmp_path / "summary.csv"
    emit_summary_csv(base + var, p)
    lines = p.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("scenario,size_bytes,variant,n,")


def test_trace_csv_schema(tmp_path):
    cfg = PRESETS["dsl-fast"]
    trace = PacketTrace(only=TRACE_ROWS)
    run_scenario(cfg, FAST70K, Variant(), rep=0, trace=trace)
    p = tmp_path / "trace.csv"
    emit_trace_csv(trace, p)
    lines = p.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    events = {line.split(",")[2] for line in lines[1:]}
    assert events <= {"send", "deliver", "drop", "ack"}
    assert "send" in events and "deliver" in events and "ack" in events


# -- scenario files -----------------------------------------------------------------------

def test_parse_scenario_file_roundtrip(tmp_path):
    p = tmp_path / "custom.scenario"
    p.write_text(
        "# a tight custom profile\n"
        "name = tiny\n"
        "rtt_ms = 40\n"
        "bottleneck_kbps = 10000\n"
        "buffer_pkts = 50\n"
        "access_tech = wifi\n"
        "short_flow_bytes = 70000\n"
        "short_flow_start_ms = 500\n"
        "variant = blitz:1.5\n")
    cfg, size, variant = parse_scenario_file(p)
    assert cfg.name == "tiny"
    assert cfg.rtt == ms(40)
    assert cfg.bottleneck_kbps == 10_000
    assert cfg.buffer_pkts == 50
    assert cfg.access_tech is AccessTech.WIFI
    assert cfg.short_flow_start == ms(500)
    assert size == 70_000
    assert variant == Variant(1.5)


def test_parse_scenario_file_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.scenario"
    p.write_text("name = x\nwarp_speed = 9\n")
    with pytest.raises(ValueError):
        parse_scenario_file(p)


def test_parse_scenario_file_requires_core_fields(tmp_path):
    p = tmp_path / "sparse.scenario"
    p.write_text("name = x\n")
    with pytest.raises(ValueError):
        parse_scenario_file(p)


# -- CLI -------------------------------------------------------------------------------------

def test_cli_single_cell_run(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "dsl-fast", "--size", "70K",
               "--variant", "baseline", "--reps", "2", "--seed", "7",
               "--out", str(out), "--jobs", "1"])
    assert rc == 0
    runs = (out / "runs.csv").read_text().splitlines()
    assert len(runs) == 3
    assert (out / "summary.csv").exists()
    assert "never started" not in capsys.readouterr().err


def test_cli_rejects_unknown_scenario(tmp_path):
    rc = main(["run", "--scenario", "marsnet", "--out", str(tmp_path)])
    assert rc == 2


CELL_FILE = ("name = cell\nrtt_ms = 50\nbottleneck_kbps = 50000\n"
             "buffer_pkts = 208\naccess_tech = dsl\nshort_flow_bytes = 70000\n"
             "variant = blitz:1.0\n")


def test_cli_scenario_file(tmp_path):
    # repetitions and seed come from the flags, never from the file
    p = tmp_path / "cell.scenario"
    p.write_text(CELL_FILE)
    out = tmp_path / "out"
    rc = main(["run", "--scenario-file", str(p), "--out", str(out),
               "--jobs", "1", "--reps", "3", "--seed", "9"])
    assert rc == 0
    lines = (out / "runs.csv").read_text().splitlines()
    assert len(lines) == 4
    for rep, line in enumerate(lines[1:]):
        assert line.startswith(f"cell,70000,blitz:1,{rep},9,")


@pytest.mark.parametrize("argv, file_text, named", [
    (["--scenario", "dsl-fast", "--variant", "blitz:x"], None, "blitz:x"),
    ([], CELL_FILE.replace("= dsl", "= fiber"), "access_tech"),
    (["--scenario", "dsl-fast", "--reps", "0"], None, "--reps"),
    ([], CELL_FILE + "repetitions = 1\n", "--reps"),
    ([], CELL_FILE.replace("rtt_ms = 50", "rtt_ms = 0"), "rtt"),
    ([], CELL_FILE.replace("= 208", "= 0"), "buffer_pkts"),
    ([], CELL_FILE.replace("= 50000", "= 0"), "bottleneck_kbps"),
    ([], CELL_FILE.replace("= 70000", "= 0"),
     "short flow size must be at least 1 byte, got 0"),
    ([], CELL_FILE.replace("= 70000", "= -5"),
     "short flow size must be at least 1 byte, got -5"),
    ([], CELL_FILE + "long_flow_bytes = 0\n", "long_flow_bytes"),
    ([], CELL_FILE + "pkt_jitter_max_us = -1\n", "pkt_jitter_max"),
    ([], CELL_FILE + "rtt_ms = 60\n", ":8: repeated key 'rtt_ms', first set on line 2"),
    (["--scenario", "3g", "--variant", "blitz:0.0001"], None, "blitz:0.0001"),
    ([], CELL_FILE.replace("blitz:1.0", "blitz:0.00001"), "blitz:1e-05"),
    ([], CELL_FILE + "short_flow_start_ms = 300000\n", "short_flow_start"),
    (["--scenario", "dsl-fast", "--jobs", "0"], None, "--jobs"),
    (["--scenario", "dsl-fast", "--variant", "blitz:1:2"], None, "blitz:1:2"),
    # estimates above the hint's u32 kbps field, which encode_hint rejects
    (["--scenario", "dsl-fast", "--variant", "blitz:85900"], None,
     "4295000000 kbps"),
    (["--scenario", "dsl-fast", "--variant", "blitz:85900", "--jobs", "2"],
     None, "blitz:85900"),
    ([], CELL_FILE.replace("blitz:1.0", "blitz:1e300"), "blitz:1e+300"),
    # the handshake and the saturation hold alone outlast the 300 s cap
    ([], CELL_FILE.replace("rtt_ms = 50", "rtt_ms = 100000"),
     "could never start"),
    ([], CELL_FILE.replace("rtt_ms = 50", "rtt_ms = 200000"),
     "could never start"),
    # a name goes unquoted into CSV cells and trace file names
    ([], CELL_FILE.replace("= cell", "= x,y"), "'x,y'"),
    (["--trace", "--jobs", "2"], CELL_FILE.replace("= cell", "= a/b"),
     "'a/b'"),
    ([], CELL_FILE.replace("= cell", "="), "name ''"),
    # a scenario file that is missing, a directory, or not UTF-8 text
    (["--scenario-file", "{tmp}/missing.scenario"], None,
     "{tmp}/missing.scenario: cannot read: [Errno 2] No such file"),
    (["--scenario-file", "{tmp}"], None,
     "{tmp}: cannot read: [Errno 21] Is a directory"),
    ([], CELL_FILE.encode().replace(b"= cell", b"= caf\xe9"),
     "cell.scenario: cannot read: 'utf-8' codec can't decode byte 0xe9"),
])
def test_cli_bad_input_is_one_line_and_exit_2(tmp_path, capsys, argv,
                                               file_text, named):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    named = named.format(tmp=tmp_path)
    if file_text is not None:
        p = tmp_path / "cell.scenario"
        p.write_bytes(file_text if isinstance(file_text, bytes)
                      else file_text.encode())
        argv = argv + ["--scenario-file", str(p)]
    out = tmp_path / "out"
    rc = main(["run", "--size", "70K", "--out", str(out), "--jobs", "1"]
              + argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "demo-fig1"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
def test_cli_bad_out_is_one_line_and_exit_2(tmp_path, capsys, command,
                                            below):
    # --out names an existing file, or a directory under one
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "out" if below else taken
    argv = ["--scenario", "dsl-fast", "--size", "70K", "--reps", "1",
            "--jobs", "1"] if command == "run" else []
    rc = main([command, "--out", str(out)] + argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "--out" in err and str(out) in err
    assert err.startswith(f"blitzsim {command}: ")
    assert taken.read_text() == "kept\n"


# bounds of each numeric key of a scenario file. The flows are kept small,
# and long_flow_bytes is always given, since its default, 1 GiB, keeps a
# fast link busy up to the 300 s cap.
SCENARIO_INTS = {
    "rtt_ms": (-5, 400_000),
    "bottleneck_kbps": (-5, 50_000_000),
    "buffer_pkts": (-5, 5_000),
    "short_flow_bytes": (-5, 200_000),
    "long_flow_bytes": (-5, 300_000),
    "short_flow_start_ms": (-5, 400_000),
    "start_jitter_max_ms": (-5, 400_000),
    "pkt_jitter_max_us": (-5, 10_000_000),
}
ALWAYS_KEYS = {"rtt_ms", "bottleneck_kbps", "buffer_pkts",
               "short_flow_bytes", "long_flow_bytes"}


@st.composite
def scenario_files(draw) -> dict[str, str]:
    values = {"name": draw(st.sampled_from(["cell", "a b", "x,y"]))}
    for key, (lo, hi) in SCENARIO_INTS.items():
        if key in ALWAYS_KEYS or draw(st.booleans()):
            values[key] = str(draw(st.integers(lo, hi)))
    if draw(st.booleans()):
        values["access_tech"] = draw(st.sampled_from(
            ["dsl", "LTE", "3g", "three_g", "unknown", "fiber", ""]))
    if draw(st.booleans()):
        values["variant"] = draw(st.one_of(
            st.just("baseline"),
            st.floats(-1, 1e12).map(lambda f: f"blitz:{f!r}"),
            st.sampled_from(["blitz", "blitz:nan", "blitz:inf", "cubic:1",
                             "blitz:1:2"])))
    # now and then one key is malformed, unknown or (but for
    # long_flow_bytes) missing
    fault = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(sorted(values) + ["repetitions", "bogus"]),
        st.sampled_from([None, "", "x", "1.5", "1e3", "0x10"]))))
    if fault is not None:
        key, text = fault
        if text is not None:
            values[key] = text
        elif key != "long_flow_bytes":
            values.pop(key, None)
    return values


@given(scenario_files())
@settings(max_examples=100, deadline=None)
def test_any_scenario_file_runs_or_is_one_line_and_exit_2(values):
    # whatever the file says, the CLI writes its rows or rejects it with
    # one line, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cell.scenario"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", "--scenario-file", str(path), "--out", str(out),
                       "--jobs", "1", "--reps", "2"])
        err = err.getvalue()
        assert "Traceback" not in err
        if rc == 0:
            rows = (out / "runs.csv").read_text().splitlines()
            assert rows[0] == RUNS_HEADER and len(rows) == 3
            for name in ("runs.csv", "summary.csv"):
                header, *lines = (out / name).read_text().splitlines()
                assert all(line.count(",") == header.count(",")
                           for line in lines), name
        else:
            assert rc == 2
            assert err.count("\n") == 1 and err.startswith("blitzsim run: ")
            assert not out.exists()


def test_cli_runs_the_largest_estimate_a_hint_carries(tmp_path):
    # 85899 x 50000 kbps = 4294950000 kbps fits the hint's u32 field;
    # blitz:85900 does not, and exits 2 above
    out = tmp_path / "out"
    rc = main(["run", "--scenario", "dsl-fast", "--size", "70K", "--variant",
               "blitz:85899", "--reps", "1", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    rows = (out / "runs.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("dsl-fast,70000,blitz:85899,")


@pytest.mark.parametrize("file_text", [
    # a packet jitter above a 151-byte packet's serialization time, 24.16 us
    # at 50 Mbit/s, and the default 10 us jitter above its 6.04 us at
    # 200 Mbit/s
    CELL_FILE + "pkt_jitter_max_us = 25\n",
    CELL_FILE.replace("= 50000", "= 200000"),
], ids=["jitter-25us", "rate-200mbps"])
def test_cli_runs_a_jitter_longer_than_a_serialization_time(tmp_path,
                                                            file_text):
    p = tmp_path / "cell.scenario"
    p.write_text(file_text)
    out = tmp_path / "out"
    rc = main(["run", "--scenario-file", str(p), "--size", "70K", "--out",
               str(out), "--jobs", "1", "--reps", "2"])
    assert rc == 0
    assert len((out / "runs.csv").read_text().splitlines()) == 3


JITTER_CELLS = {
    # a 1 ms jitter takes 20 bits a draw, from batches of words; a 5 s one
    # takes 33 bits, two words a draw, and draws one at a time. Each row
    # and packet trace is the one the runs wrote when every draw called
    # randrange's getrandbits loop.
    1000: ("cell,70000,blitz:1,0,1,145276,0,0,0.000000,0.093622,0",
           "3541ecdac9e760fa74efcb10bab98f8e5d79644735a48de73e18fc7fd3a43d37"),
    5_000_000: (
        "cell,70000,blitz:1,0,1,,0,0,0.000000,,1",
        "000d11e5cdb1f387782984182be7c033244de54f88484f61d17dab6f5752fa40"),
}


@pytest.mark.parametrize("jitter_us", sorted(JITTER_CELLS))
def test_a_wide_packet_jitter_writes_the_rows_randrange_did(tmp_path,
                                                            jitter_us):
    row, trace_sha = JITTER_CELLS[jitter_us]
    p = tmp_path / "cell.scenario"
    p.write_text(CELL_FILE + f"pkt_jitter_max_us = {jitter_us}\n")
    out = tmp_path / "out"
    rc = main(["run", "--scenario-file", str(p), "--out", str(out),
               "--jobs", "1", "--reps", "1", "--trace"])
    assert rc == 0
    assert (out / "runs.csv").read_text().splitlines()[1] == row
    assert _sha256(out / "trace_cell_70000_blitz_1_0.csv") == trace_sha


@pytest.mark.parametrize("file_text", [
    # one byte of long flow never fills the bottleneck's queue
    CELL_FILE + "long_flow_bytes = 1\n",
    # the long flow's injections queue behind a running maximum of 5 s lags
    CELL_FILE + "pkt_jitter_max_us = 5000000\n",
], ids=["long-flow-1-byte", "jitter-5s"])
def test_cli_reports_runs_that_never_started_the_short_flow(tmp_path, capsys,
                                                            file_text):
    p = tmp_path / "cell.scenario"
    p.write_text(file_text)
    out = tmp_path / "out"
    rc = main(["run", "--scenario-file", str(p), "--out", str(out),
               "--jobs", "1", "--reps", "2"])
    assert rc == 0
    # the rows read as timeouts, as they did before the report
    assert (out / "runs.csv").read_text().splitlines()[1:] == [
        "cell,70000,blitz:1,0,1,,0,0,0.000000,,1",
        "cell,70000,blitz:1,1,1,,0,0,0.000000,,1"]
    captured = capsys.readouterr()
    assert captured.err.count("never started") == 1
    assert "\n2 of 2 runs never started the short flow\n" in captured.err
    assert "never started" not in captured.out


def test_python_dash_m_runs_the_cli(tmp_path):
    # the package runs from a source checkout, without the console script
    src = str(Path(blitzsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "blitzsim", "run",
                           "--jobs", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "blitzsim run: --jobs must be at least 1, got 0\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_trace_files_do_not_depend_on_jobs(tmp_path):
    outs = {}
    for jobs in ("1", "2"):
        out = outs[jobs] = tmp_path / f"jobs{jobs}"
        rc = main(["run", "--scenario", "dsl-fast", "--size", "70K",
                   "--variant", "blitz:1.5", "--reps", "2", "--seed", "4",
                   "--trace", "--jobs", jobs, "--out", str(out)])
        assert rc == 0
    names = sorted(p.name for p in outs["1"].iterdir())
    assert names == ["runs.csv", "summary.csv",
                     "trace_dsl-fast_70000_blitz_1.5_0.csv",
                     "trace_dsl-fast_70000_blitz_1.5_1.csv"]
    assert sorted(p.name for p in outs["2"].iterdir()) == names
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()
    # pinned bytes: a change to what is simulated or recorded moves them
    assert _sha256(outs["1"] / names[2]) == (
        "0d119eacbe93bc7bb4e12eb443d459de08731c4c1939a91a55243711f62707b9")
    assert _sha256(outs["1"] / names[3]) == (
        "5485e40029778d3e6d8f72926f37a1186f48caefa0a3f2c52f8d6807782c9c6d")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_demo_fig1(tmp_path):
    out = tmp_path / "fig"
    rc = main(["demo-fig1", "--out", str(out), "--seed", "2",
               "--top-duration-s", "0.6", "--bottom-duration-s", "3"])
    assert rc == 0
    top = (out / "fig1_top.csv").read_text().splitlines()
    assert top[0] == "time_us,flow_id,window_us,bps"
    assert len(top) > 100
    bottom = (out / "fig1_bottom.csv").read_text().splitlines()
    flows = {line.split(",")[1] for line in bottom[1:]}
    assert flows == {"0", "1"}
    # pinned bytes: a change to what is simulated or recorded moves them
    assert _sha256(out / "fig1_top.csv") == (
        "ed88ac03d1e6cd656f5aba262b095b369254e35fde38baa53656bafd7c2256f7")
    assert _sha256(out / "fig1_bottom.csv") == (
        "f95aca7c142cf25b2f43f77e310f80873dd393148ec3d2b1ee63409cb18f39c6")


def test_cli_demo_fig1_draws_the_long_flow_past_the_second_flows_finish(
        tmp_path, monkeypatch):
    # a 2 MB second flow finishes well inside the figure; the observer
    # stays attached as demo-fig1 runs the simulator on to the figure's end
    runs = []

    def two_flow_run(cfg, _size_bytes, variant, rep):
        runs.append(TwoFlowRun(cfg, SIZES["2M"], variant, rep))
        return runs[-1]
    monkeypatch.setattr(cli, "TwoFlowRun", two_flow_run)
    out = tmp_path / "fig"
    assert main(["demo-fig1", "--out", str(out), "--top-duration-s", "0.1",
                 "--bottom-duration-s", "6"]) == 0
    [run] = runs
    finish_us, rtt_us = run.short_conn.finished_at // 1000, run.cfg.rtt // 1000
    assert finish_us + 10 * rtt_us < 6_000_000
    after = [float(bps) for t, flow, window, bps in
             (line.split(",") for line in
              (out / "fig1_bottom.csv").read_text().splitlines()[1:])
             if flow == "0" and int(window) == rtt_us
             and int(t) > finish_us + rtt_us]
    assert after and min(after) > 0


def test_cli_demo_fig1_rejects_empty_bottom_run(tmp_path, capsys):
    out = tmp_path / "fig"
    for flag, value in (("--bottom-duration-s", "0"),
                        ("--top-duration-s", "nan"),
                        ("--bottom-duration-s", "inf"),
                        ("--top-duration-s", "-1"),
                        # the second flow could enter 1.15 s in at the
                        # earliest, so a 1.1 s run would never see it
                        ("--bottom-duration-s", "1.1"),
                        ("--bottom-duration-s", "0.5")):
        rc = main(["demo-fig1", "--out", str(out), flag, value])
        err = capsys.readouterr().err
        assert rc == 2, (flag, value)
        assert err.count("\n") == 1 and flag in err, err
        assert not out.exists()
    assert err.endswith("--bottom-duration-s 0.5 is too short: scenario "
                        "'dsl-fast': the short flow could never start: the "
                        "handshake, the two-RTT saturation hold and "
                        "short_flow_start take 1150000000 ns, not below "
                        "sim_cap 500000000\n"), err
