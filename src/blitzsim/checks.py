"""Self-contained invariant suite behind `blitzsim validate`.

Each check returns (ok, detail). The suite is intentionally quick; the
heavier banded experiments live in the test suite.
"""

from __future__ import annotations

import random
from typing import Callable

from . import harness
from .congestion import (CUBIC_BETA, FLOOR_BYTES, INITIAL_WINDOW_BYTES,
                         CubicController, Mode, cubic_k_seconds)
from .engine import NS_PER_MS, seconds
from .netmodel import SEGMENT_WIRE_BYTES
from .signaling import (AccessTech, BandwidthHint, HintDecodeError,
                        decode_hint, encode_hint)

CheckResult = tuple[bool, str]
FUZZ_CASES = 100_000  # inputs per encode/decode fuzz check


def check_determinism(seed: int = 1) -> CheckResult:
    """Identical (scenario, seed) runs produce identical traces and metrics."""
    cfg = harness.replace(harness.PRESETS["dsl-fast"], seed_base=seed)
    variant = harness.Variant(1.0)

    def one() -> tuple[list, harness.RunResult]:
        trace = harness.PacketTrace(only={"event"})
        result = harness.run_scenario(cfg, harness.SIZES["2M"], variant, 0,
                                      trace)
        return trace.rows, result

    trace_a, metrics_a = one()
    trace_b, metrics_b = one()
    if trace_a != trace_b:
        return False, "event traces differ between identical runs"
    if metrics_a != metrics_b:
        return False, f"metrics differ: {metrics_a} vs {metrics_b}"
    return True, f"{len(trace_a)} events bit-identical across reruns"


def check_conservation(seed: int = 1) -> CheckResult:
    """Reliability, packet conservation and the buffer bound on a lossy run."""
    cfg = harness.replace(harness.PRESETS["dsl-fast"], seed_base=seed)
    run = harness.TwoFlowRun(cfg, harness.SIZES["2M"], harness.Variant(4.0), 0)
    run.run()
    short = run.short_conn
    if not short.finished:
        return False, "short flow did not complete"
    if short.receiver.ranges.total != short.size:
        return False, (f"delivered {short.receiver.ranges.total} bytes, "
                       f"expected {short.size}")
    if short.payload_sent != short.size + short.bytes_retransmitted:
        return False, "wire payload != transfer size + retransmitted bytes"
    link = run.link
    in_queue = sum(c.injected - c.dropped - c.departed
                   for c in link.counters.values())
    if in_queue != link.queued:
        return False, "queue occupancy disagrees with flow counters"
    for flow_id, c in link.counters.items():
        in_flight = (c.injected - c.dropped - c.delivered)
        if in_flight < 0 or c.delivered + c.dropped > c.injected:
            return False, f"flow {flow_id} conservation violated"
    if short.lost_pkts == 0:
        return False, "expected losses under 4x overestimation"
    if link.max_queued > cfg.buffer_pkts:
        return False, f"queue peaked at {link.max_queued} > {cfg.buffer_pkts}"
    return True, (f"transfer complete with {short.lost_pkts} losses, "
                  f"conservation holds, peak occupancy {link.max_queued} "
                  f"<= {cfg.buffer_pkts} packets")


def check_rate_conformance(seed: int = 1) -> CheckResult:
    """Backlogged bottleneck departs within [rate * 0.995, rate]."""
    cfg = harness.replace(harness.PRESETS["dsl-fast"], seed_base=seed)
    trace = harness.PacketTrace(only={"deliver"})
    conn = harness.single_flow_run(cfg, seconds(2.5), trace)
    # a packet arrives exactly one propagation delay after it departs, so
    # arrivals in the shifted window are the departures in [1.0 s, 2.4 s);
    # rolling_bandwidth's window is closed, so one sample at end - 1 over
    # end - 1 - start counts exactly the arrivals in [start, end)
    delay = conn.link.config.prop_delay
    start, end = seconds(1.0) + delay, seconds(2.4) + delay
    [(_t, util)] = harness.rolling_bandwidth(
        trace.deliveries(0), end - 1 - start, end - 1, start=end - 1)
    rate = cfg.rate_bps
    if not rate * 0.995 <= util <= rate:
        return False, f"utilization {util / 1e6:.3f} Mbit/s vs rate {rate / 1e6}"
    return True, f"utilization {util / 1e6:.4f} Mbit/s within 0.5% of rate"


def cubic_window(w_max_segments: float, t_seconds: float) -> int:
    """The window CubicController.on_ack grows to, t into a W_max epoch.

    The controller is cut from W_max segments at time 0, leaves recovery
    on this ACK, and starts it at the cwnd floor, so the ACK sets cwnd to
    the window's target: the cubic W(t) in bytes.
    """
    ctrl = CubicController()
    ctrl.cwnd = int(w_max_segments * SEGMENT_WIRE_BYTES)
    ctrl.on_congestion_event(0, lost_pkt_num=0, largest_sent_pkt=0)
    ctrl.cwnd = FLOOR_BYTES
    ctrl.on_ack(SEGMENT_WIRE_BYTES, None, seconds(t_seconds), 0, 0)
    return ctrl.cwnd


def check_cubic_shape(seed: int = 1) -> CheckResult:
    """W(K) = W_max; W(0) = beta * W_max; monotone, below W_max until K.

    Each sample is a window the controller's own on_ack computes, in
    bytes, so the checks hold to the byte its int() truncation costs.
    """
    for w_max in (10.0, 100.0, 400.0):
        k = cubic_k_seconds(w_max)
        wire_max = w_max * SEGMENT_WIRE_BYTES
        at_k = cubic_window(w_max, k)
        if abs(at_k - wire_max) > 1:
            return False, f"W(K) = {at_k} B != {wire_max} B"
        at_zero = cubic_window(w_max, 0.0)
        if abs(at_zero - CUBIC_BETA * wire_max) > 1:
            return False, f"W(0) = {at_zero} B != beta * {wire_max} B"
        prev = None
        for i in range(0, 200):
            t = i * (2 * k) / 199 if k > 0 else i * 0.01
            w = cubic_window(w_max, t)
            if prev is not None and w < prev:
                return False, f"W not nondecreasing at t={t}"
            if t < k and w >= wire_max:
                return False, f"W(t<{k}) = {w} B >= W_max"
            prev = w
    return True, "W(K) = W_max, monotone, W < W_max below the plateau"


def check_slow_start_doubling(seed: int = 1) -> CheckResult:
    """cwnd doubles per round trip on a lossless single-flow start."""
    cfg = harness.replace(harness.PRESETS["dsl-fast"], seed_base=seed)
    trace = harness.PacketTrace(only={"cwnd"})
    harness.single_flow_run(cfg, seconds(1.0), trace)
    hits: dict[int, int] = {}
    for t, _flow, _kind, cwnd, mode in trace.rows:
        if mode is not Mode.SLOW_START:
            break
        for mult in (2, 4, 8):
            if mult not in hits and cwnd >= mult * INITIAL_WINDOW_BYTES:
                if cwnd != mult * INITIAL_WINDOW_BYTES:
                    return False, (f"round boundary cwnd {cwnd} not exactly "
                                   f"{mult}x initial window")
                hits[mult] = t
    if 2 not in hits or 4 not in hits:
        return False, "never observed two doublings before Slow Start exit"
    rtt = cfg.rtt
    gap = hits[4] - hits[2]
    if not 0.6 * rtt <= gap <= 1.8 * rtt:
        return False, f"doubling took {gap / NS_PER_MS:.1f} ms, not about one RTT"
    return True, f"doublings at {sorted(hits)}x initial window, one per RTT"


def check_hint_roundtrip(seed: int = 1) -> CheckResult:
    rng = random.Random(seed)
    techs = list(AccessTech)
    for _ in range(FUZZ_CASES):
        hint = BandwidthHint(rng.choice(techs), rng.randrange(0, 1 << 32))
        if decode_hint(encode_hint(hint)) != hint:
            return False, f"roundtrip failed for {hint}"
    return True, f"{FUZZ_CASES} randomized hints survive encode/decode"


def check_decode_totality(seed: int = 2) -> CheckResult:
    rng = random.Random(seed)
    techs = list(AccessTech)
    decoded = 0
    for _ in range(FUZZ_CASES):
        if rng.randrange(2):
            blob = rng.randbytes(rng.randrange(0, 65))
        else:  # a valid hint with one byte changed, cut out or added
            blob = bytearray(encode_hint(BandwidthHint(
                rng.choice(techs), rng.randrange(0, 1 << 32))))
            at = rng.randrange(len(blob))
            cut, add = rng.choice(((1, 1), (1, 0), (0, 1)))
            blob[at:at + cut] = rng.randbytes(add)
        try:
            decode_hint(blob)
            decoded += 1
        except HintDecodeError:
            pass
        except Exception as exc:  # noqa: BLE001 - the check is the point
            return False, f"decode raised {type(exc).__name__} on {blob.hex()}"
    return True, (f"{FUZZ_CASES} random or near-valid inputs handled "
                  f"({decoded} decoded cleanly)")


ALL_CHECKS: list[tuple[str, Callable[..., CheckResult]]] = [
    ("determinism", check_determinism),
    ("conservation", check_conservation),
    ("rate-conformance", check_rate_conformance),
    ("cubic-shape", check_cubic_shape),
    ("slow-start-doubling", check_slow_start_doubling),
    ("hint-roundtrip", check_hint_roundtrip),
    ("decode-totality", check_decode_totality),
]


def run_all(seed: int = 1, report: Callable[[str], None] = print) -> bool:
    ok_all = True
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        ok_all &= ok
        report(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok_all
