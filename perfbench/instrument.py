"""Instrumentation applied from outside the program.

`RunObjects` keeps the connections each run builds, so the benchmark can
read the counters the simulator objects already expose once the run is
over. It costs two list appends per run and is on in every mode.

`Tracer` records spans around the program's entry points, around the
calls between layers, and around every callback handed to
`Simulator.schedule`, attributing each callback to the module that defines
it. It is only installed in the traced run, never in a timed one. Spans are
aggregated in memory per run id as [count, total_s, self_s], where self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter

# Spans in this bucket are a process blocked on the Pool's workers, whose
# own spans already cover that interval; they belong to no layer.
WAIT = "wait"
LAYERS = ("engine", "netmodel", "transport", "congestion", "signaling",
          "harness", "cli")


class RunObjects:
    """Collects the Connections built by the runs of this process."""

    def __init__(self):
        from blitzsim.transport import Connection
        self.conns: list = []
        orig = Connection.__init__
        conns = self.conns

        def init(conn, *args, **kwargs):
            orig(conn, *args, **kwargs)
            conns.append(conn)
        Connection.__init__ = init

    def take(self) -> list:
        out = list(self.conns)
        self.conns.clear()
        return out


def snapshot(conns: list) -> tuple[dict, list[str]]:
    """Counters of one finished run, and the invariants it breaks."""
    long_conn, short = sorted(conns, key=lambda c: c.flow_id)
    sim, link = short.sim, short.link
    flows = link.counters.values()
    ctrls = [c.controller for c in (long_conn, short) if c.controller]
    counters = {
        "events_scheduled": sim.scheduled,
        "events_cancelled": sim.cancelled,
        "events_dispatched": sim.dispatched,
        "link_injected": sum(f.injected for f in flows),
        "link_dropped": sum(f.dropped for f in flows),
        "link_departed": sum(f.departed for f in flows),
        "link_delivered": sum(f.delivered for f in flows),
        "link_max_queued": link.max_queued,
        "pkts_sent": long_conn.pkts_sent + short.pkts_sent,
        "acks_received": long_conn.acks_received + short.acks_received,
        "lost_pkts": long_conn.lost_pkts + short.lost_pkts,
        "bytes_retransmitted": (long_conn.bytes_retransmitted
                                + short.bytes_retransmitted),
        "payload_sent": long_conn.payload_sent + short.payload_sent,
        "records_retained": len(long_conn.records) + len(short.records),
        "short_size": short.size,
        "short_payload_sent": short.payload_sent,
        "congestion_events": sum(c.congestion_events for c in ctrls),
        "mode_changes": sum(len(c.mode_trace) for c in ctrls),
    }
    errors = []
    if not short.finished:
        errors.append("short flow did not finish")
    if short.payload_sent != short.size + short.bytes_retransmitted:
        errors.append("short flow payload != size + retransmitted bytes")
    if short.bytes_acked < short.size:
        errors.append("short flow acked fewer bytes than its size")
    if min(long_conn.in_flight, short.in_flight) < 0:
        errors.append("negative bytes in flight")
    in_link = (counters["link_injected"] - counters["link_dropped"]
               - counters["link_departed"])
    if in_link != link.queued or counters["link_delivered"] > counters["link_departed"]:
        errors.append("link packet conservation broken")
    if sim.dispatched + sim.cancelled > sim.scheduled:
        errors.append("more events dispatched or cancelled than scheduled")
    return counters, errors


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def counters_digest(counters: dict) -> str:
    return digest(json.dumps(counters, sort_keys=True))


MAX_KEYS = ("link_max_queued", "records_retained")


def totals(per_run: list[dict]) -> dict:
    """Workload totals: sums, except peaks, which take the maximum."""
    out: dict = {}
    for counters in per_run:
        for name, value in counters.items():
            if name in MAX_KEYS:
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


def _layer_of(fn) -> str:
    module = getattr(getattr(fn, "__func__", fn), "__module__", "") or ""
    return module.rsplit(".", 1)[-1]


def _name_of(fn) -> str:
    func = getattr(fn, "__func__", fn)
    return f"{_layer_of(fn)}:{getattr(func, '__qualname__', repr(func))}"


class Tracer:
    """In-memory span recorder keyed by run id."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list[float]] = []
        self.runs: dict[str, dict[str, list[float]]] = {}
        self.counts: dict[str, Counter] = {}
        self.run_id = "-"
        self._select("-")

    def _select(self, run_id: str) -> None:
        self.run_id = run_id
        self.cur = self.runs.setdefault(run_id, {})
        self.cur_counts = self.counts.setdefault(run_id, Counter())

    def wrap(self, name: str, fn):
        """fn, recorded as span `name` each time it is called."""
        clock, stack, tracer = self.clock, self.stack, self

        def spanned(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg = tracer.cur.get(name)
                if agg is None:
                    agg = tracer.cur[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
        spanned.__wrapped__ = fn
        return spanned

    def patch(self, owner, attr: str, name: str | None = None) -> None:
        fn = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name or _name_of(fn), fn))

    def begin_run(self, run_id: str) -> str:
        previous = self.run_id
        self._select(run_id)
        return previous

    def end_run(self, previous: str) -> None:
        self._select(previous)

    def install(self) -> None:
        """Wrap the program's layer boundaries. Call before any run."""
        from blitzsim import cli, congestion, engine, harness, netmodel
        from blitzsim import signaling, transport

        self._conn_cls = transport.Connection
        sim_cls = engine.Simulator
        timed_schedule = self.wrap("engine:Simulator.schedule",
                                   sim_cls.schedule)
        tracer = self

        def schedule(sim, fire_at, kind, target, fn, arg=None):
            return timed_schedule(sim, fire_at, kind, target,
                                  tracer._callback(kind, fn), arg)
        sim_cls.schedule = schedule
        self.patch(sim_cls, "cancel")
        self.patch(sim_cls, "run_until")

        self.patch(netmodel.Link, "enqueue")
        self.patch(transport.Receiver, "on_data")
        self.patch(transport.Connection, "maybe_send")
        self.patch(transport.RangeSet, "add")
        self.patch(congestion.CubicController, "on_ack")
        self.patch(congestion.CubicController, "on_congestion_event")
        self.patch(signaling.OracleEstimator, "estimate")
        # hooks the harness plugs into netmodel and transport objects
        for cls, attr in ((netmodel.Link, "deliver"),
                          (netmodel.Link, "on_departure"),
                          (netmodel.Link, "on_occupancy"),
                          (transport.Connection, "jitter"),
                          (transport.Connection, "controller_factory")):
            self._hook(cls, attr)
        # harness and cli call these through their own module globals
        self.patch(harness, "encode_hint", "signaling:encode_hint")
        self.patch(harness, "decode_hint", "signaling:decode_hint")
        self.patch(harness, "make_controller", "congestion:make_controller")
        self.patch(harness, "run_scenario")
        self.patch(harness, "summarize")
        for name in ("emit_runs_csv", "emit_summary_csv"):
            self.patch(cli, name, f"harness:{name}")
            setattr(harness, name, getattr(cli, name))
        self.patch(cli, "run_matrix", f"{WAIT}:run_matrix")
        self.patch(cli, "main")

    def _hook(self, cls, attr: str) -> None:
        """Span whatever callable instances of cls store in attr."""
        slot = "_traced_" + attr
        tracer = self

        def store(obj, fn):
            obj.__dict__[slot] = (None if fn is None
                                  else tracer.wrap(_name_of(fn), fn))
        setattr(cls, attr, property(lambda obj: obj.__dict__.get(slot), store))

    def _callback(self, kind: str, fn):
        """Wrap a scheduled callback: count its kind, span it by module."""
        spanned = self.wrap(_name_of(fn), fn)
        func = getattr(fn, "__func__", None)
        conn_cls = self._conn_cls
        tracer = self
        if func is conn_cls.start:
            conn = fn.__self__

            def cb(*args):
                tracer.cur_counts["events." + kind] += 1
                if conn.flow_id == 1:
                    tracer.cur_counts["prefix_events"] += conn.sim.dispatched - 1
                return spanned(*args)
        elif func is conn_cls.on_ack:
            conn = fn.__self__

            def cb(ack, now):
                tracer.cur_counts["events." + kind] += 1
                if not conn.finished:
                    tracer.cur_counts["acks"] += 1
                    tracer.cur_counts["ack_ranges"] += len(ack.acked_ranges)
                return spanned(ack, now)
        else:
            def cb(*args):
                tracer.cur_counts["events." + kind] += 1
                return spanned(*args)
        return cb


def layer_self(spans: dict[str, list[float]]) -> dict[str, float]:
    """Self seconds per layer; WAIT and unknown modules are left out."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_count, _total, self_s) in spans.items():
        layer = name.split(":", 1)[0]
        if layer in out:
            out[layer] += self_s
    return out


def merge(into: dict[str, list[float]], spans: dict[str, list[float]]) -> None:
    for name, agg in spans.items():
        acc = into.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += agg[i]
