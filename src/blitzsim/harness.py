"""Experiment harness: scenario matrix, metrics, statistics, CSV output.

Four built-in scenarios (two DSL profiles and two deep-buffered mobile
profiles) each carry a rate-limited bottleneck and a long-running baseline
flow. A short flow of 70 KB, 2 MB, or 10 MB enters once the bottleneck has
been saturated and its completion time, declared losses, retransmission
inflation, and fairness against the long flow are recorded. Every cell is
repeated with per-repetition seeds; repetition i of a variant and of the
baseline share the same start-time jitter draw so difference distributions
are paired.
"""

from __future__ import annotations

import io
import math
import pickle
import random
import re
import statistics
import struct
from contextlib import nullcontext
from dataclasses import astuple, dataclass, replace
from functools import cache, partial
from pathlib import Path
from types import MethodType
from typing import Callable, Iterable, Optional, Sequence

from .congestion import (HYSTART_FLOOR, HYSTART_FLOOR_PKTS,
                         INITIAL_WINDOW_SEGMENTS, CubicController,
                         make_controller)
from .engine import (NS_PER_MS, NS_PER_S, NS_PER_US, PacketTrace,
                     SimTime, Simulator, ms, substream, us)
from .netmodel import SEGMENT_WIRE_BYTES, Link, LinkConfig, Packet
from .signaling import (MAX_HINT_KBPS, AccessTech, BandwidthHint,
                        HintDecodeError, OracleEstimator, decode_hint,
                        encode_hint)
from .transport import Ack, Connection

SIZES = {"70K": 70_000, "2M": 2_000_000, "10M": 10_000_000}
ESTIMATE_FACTORS = (0.5, 1.0, 1.5, 3.0, 4.0)
LONG_FLOW_BYTES = 1 << 30
SIM_CAP = 300 * NS_PER_S
PKT_JITTER_MAX = 10 * NS_PER_US

LONG_FLOW = 0
SHORT_FLOW = 1

# a scenario name goes unquoted into CSV cells and into trace file names
_SCENARIO_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    name: str
    rtt: SimTime
    bottleneck_kbps: int
    buffer_pkts: int
    access_tech: AccessTech
    long_flow_bytes: int = LONG_FLOW_BYTES
    short_flow_start: SimTime = NS_PER_S  # offset after saturation
    seed_base: int = 1
    start_jitter_max: Optional[SimTime] = None  # None: one RTT
    pkt_jitter_max: SimTime = PKT_JITTER_MAX
    sim_cap: SimTime = SIM_CAP

    def __post_init__(self):
        if not _SCENARIO_NAME.fullmatch(self.name):
            raise ValueError(f"scenario name {self.name!r} must be letters, "
                             "digits, '.', '_' or '-', starting with a "
                             "letter or digit")
        for field in ("rtt", "bottleneck_kbps", "buffer_pkts",
                      "long_flow_bytes", "sim_cap"):
            if getattr(self, field) <= 0:
                raise ValueError(f"scenario {self.name!r}: {field} must be "
                                 f"positive, got {getattr(self, field)}")
        if self.rtt < 2:  # a 0 ns one-way delay makes the PTO 0: no end
            raise ValueError(f"scenario {self.name!r}: rtt must be at least "
                             f"2 ns, got {self.rtt}")
        for field in ("short_flow_start", "start_jitter_max", "pkt_jitter_max"):
            value = getattr(self, field)
            if value is not None and value < 0:
                raise ValueError(f"scenario {self.name!r}: {field} must not "
                                 f"be negative, got {value}")
        # the earliest the short flow can start: the long flow's handshake
        # and first enqueue, the saturation hold and the start offset
        earliest = 2 * (self.rtt // 2) + 2 * self.rtt + self.short_flow_start
        if earliest >= self.sim_cap:
            # every run would time out
            raise ValueError(f"scenario {self.name!r}: the short flow could "
                             "never start: the handshake, the two-RTT "
                             f"saturation hold and short_flow_start take "
                             f"{earliest} ns, not below sim_cap {self.sim_cap}")

    @property
    def rate_bps(self) -> int:
        return self.bottleneck_kbps * 1000

    def link_config(self) -> LinkConfig:
        return LinkConfig(rate_bps=self.rate_bps, prop_delay=self.rtt // 2,
                          buffer_pkts=self.buffer_pkts)

    @property
    def hystart_floor(self) -> SimTime:
        """Delay-exit noise floor.

        The initial burst parks burst-1 packets behind the first one. When
        Slow Start pacing is slower than the link drains (fast links), that
        self-queue disperses within a few packets and the default floor
        holds. When pacing cannot outrun serialization (slow links), the
        burst's standing delay persists through the whole first round and
        the floor must sit above it or it reads as path congestion.
        """
        ser = self.link_config().serialization_time(SEGMENT_WIRE_BYTES)
        ss_interval = self.rtt // (2 * INITIAL_WINDOW_SEGMENTS)
        if ss_interval <= ser:
            return max(HYSTART_FLOOR, HYSTART_FLOOR_PKTS * ser)
        return HYSTART_FLOOR


# The 3g preset waits out the long flow's first buffer fill (about 11 s of
# virtual time on that link) so short flows meet the deep buffer in its
# Cubic steady state; on the other links the buffer reaches steady state
# after the shorter default settle.
PRESETS: dict[str, ScenarioConfig] = {
    "dsl-slow": ScenarioConfig("dsl-slow", ms(50), 25_000, 104, AccessTech.DSL),
    "dsl-fast": ScenarioConfig("dsl-fast", ms(50), 50_000, 208, AccessTech.DSL),
    "3g": ScenarioConfig("3g", ms(90), 8_000, 140, AccessTech.THREE_G,
                         short_flow_start=16 * NS_PER_S),
    "lte": ScenarioConfig("lte", ms(70), 32_000, 560, AccessTech.LTE),
}


@dataclass(frozen=True, slots=True)
class Variant:
    kind: str  # "baseline" | "blitz"
    factor: float = 1.0

    def label(self) -> str:
        if self.kind == "baseline":
            return "baseline"
        return f"blitz:{self.factor:g}"

    @classmethod
    def parse(cls, text: str) -> "Variant":
        if text == "baseline":
            return cls("baseline")
        kind, _, factor = text.partition(":")
        try:
            value = float(factor)
        except ValueError:
            value = 0.0
        if kind != "blitz" or not 0 < value < math.inf:
            raise ValueError(f"bad variant {text!r}; want baseline or "
                             "blitz:<factor>, factor positive")
        return cls("blitz", value)


def default_variants() -> list[Variant]:
    return [Variant("baseline")] + [Variant("blitz", f) for f in ESTIMATE_FACTORS]


@dataclass
class RunResult:
    scenario: str
    size_bytes: int
    variant: str
    rep: int
    seed: int
    fct: Optional[SimTime]
    lost_pkts: int
    retransmitted_bytes: int
    inflation: float
    fairness: Optional[float]
    timeout: bool
    short_start_at: Optional[SimTime] = None


def fairness_ratio(short_bytes: int, long_bytes: int) -> Optional[float]:
    """Short-flow bytes over long-flow bytes at the bottleneck egress.

    Below one, the long flow moved more bytes while the short flow was
    active; above one, the short flow did. None when the long flow moved
    nothing (ratio undefined).
    """
    if long_bytes == 0:
        return None
    return short_bytes / long_bytes


def rolling_bandwidth(deliveries: Sequence[tuple[SimTime, int]],
                      window: SimTime, end: SimTime,
                      start: SimTime = 0) -> list[tuple[SimTime, float]]:
    """Delivered bits in [t - window, t] over the window, on a 1 ms grid."""
    if window <= 0:
        raise ValueError("window must be positive")
    out: list[tuple[SimTime, float]] = []
    lo = 0
    hi = 0
    in_window = 0
    n = len(deliveries)
    t = start
    while t <= end:
        while hi < n and deliveries[hi][0] <= t:
            in_window += deliveries[hi][1]
            hi += 1
        while lo < hi and deliveries[lo][0] < t - window:
            in_window -= deliveries[lo][1]
            lo += 1
        out.append((t, in_window * 8 * NS_PER_S / window))
        t += NS_PER_MS
    return out


def check_cells(scenarios: Sequence[ScenarioConfig], sizes: Sequence[int],
                variants: Sequence[Variant]) -> None:
    """ValueError unless each short flow has a byte and each factory builds."""
    for size in sizes:
        if size < 1:
            raise ValueError(f"short flow size must be at least 1 byte, "
                             f"got {size}")
    for cfg in scenarios:
        for variant in variants:
            _controller_factory(cfg, variant)


def _controller(floor: SimTime, wire: Optional[bytes], min_rtt: SimTime,
                now: SimTime) -> CubicController:
    """The server's controller for the hint on the wire, if any.

    Every controller factory is a partial of this over (floor, wire), so
    a run that holds one pickles (see TwoFlowRun.freeze). No wire, or one
    that does not decode, leaves make_controller to pick Slow Start.
    """
    hint = None
    if wire is not None:
        try:
            hint = decode_hint(wire)
        except HintDecodeError:
            pass
    return make_controller(hint, min_rtt, now, hystart_floor=floor)


def _controller_factory(cfg: ScenarioConfig, variant: Variant) -> partial:
    """The controller factory of a flow of variant on cfg.

    A blitz variant's oracle estimate goes on the wire as the hint, which
    _controller decodes; the baseline sends none. ValueError for an
    estimate no hint can carry: 0 kbps would run Slow Start under the
    blitz label, and the u32 field cannot hold one above MAX_HINT_KBPS.
    """
    wire = None
    if variant.kind == "blitz":
        kbps = OracleEstimator(variant.factor).estimate(cfg.bottleneck_kbps)
        if kbps == 0:
            raise ValueError(
                f"variant {variant.label()} estimates 0 kbps on scenario "
                f"{cfg.name!r} ({cfg.bottleneck_kbps} kbps); "
                "use a larger factor")
        if kbps > MAX_HINT_KBPS:
            raise ValueError(
                f"variant {variant.label()} estimates {kbps} kbps on "
                f"scenario {cfg.name!r} ({cfg.bottleneck_kbps} kbps), "
                f"above the hint's {MAX_HINT_KBPS} kbps; "
                "use a smaller factor")
        wire = encode_hint(BandwidthHint(cfg.access_tech, kbps))
    return partial(_controller, cfg.hystart_floor, wire)


class JitterDraw:
    """The values of rng.randrange(0, high + 1), from the same bits.

    A caller pops them from `draws`, and calls draw(), which only refills
    it, when it is empty. randrange draws k = (high + 1).bit_length()
    random bits and redraws while they reach high + 1. For k <= 32 each
    try takes one 32-bit word of the generator and keeps its top k bits,
    and one getrandbits(32 * REFILL_WORDS) yields the next REFILL_WORDS
    words, first word lowest. So draw() refills `draws` with the values of
    a batch of words that randrange would accept, the next one last. The
    stream and the values are the ones randrange gives, but rng runs up to
    a batch ahead, so nothing else may draw from it. For k > 32 a try
    takes several words, and draw() appends one value. Its state is in
    slots, so a run loaded from TwoFlowRun.freeze() sets each slot and
    makes no instance dict.
    """

    REFILL_WORDS = 256
    _WORDS = struct.Struct(f"<{REFILL_WORDS}I")

    __slots__ = ("rng", "n", "k", "draws")

    def __init__(self, rng: random.Random, high: int):
        self.rng = rng
        self.n = high + 1
        self.k = self.n.bit_length()
        self.draws: list[int] = []

    def draw(self) -> None:
        draws = self.draws
        n, k, rng = self.n, self.k, self.rng
        if k > 32:
            r = rng.getrandbits(k)
            while r >= n:
                r = rng.getrandbits(k)
            draws.append(r)
            return
        shift = 32 - k
        limit = n << shift  # a word is accepted when word >> shift < n
        while not draws:  # refilled in place: callers hold the list
            words = self._WORDS.unpack(rng.getrandbits(
                32 * self.REFILL_WORDS).to_bytes(4 * self.REFILL_WORDS,
                                                  "little"))
            draws.extend([w >> shift for w in reversed(words) if w < limit])


_MT_STATE = struct.Struct("<625I")  # a Mersenne Twister's words and index


def _load_random(state: bytes, gauss_next: Optional[float]) -> random.Random:
    """The random.Random freeze() wrote as its packed state."""
    rng = random.Random(0)  # seeded, so it reads no urandom
    rng.setstate((rng.VERSION, _MT_STATE.unpack(state), gauss_next))
    return rng


def _reduce_random(rng: random.Random) -> tuple:
    _version, state, gauss_next = rng.getstate()
    return _load_random, (_MT_STATE.pack(*state), gauss_next)


def _reduce_packet(pkt: Packet) -> tuple:
    args = (pkt.flow_id, pkt.seq, pkt.len, pkt.pkt_num, pkt.sent_at,
            pkt.payload_len)
    if pkt.acked or pkt.lost:
        return Packet, args, (None, {"acked": pkt.acked, "lost": pkt.lost})
    return Packet, args


def _bind(func: Callable, obj: object) -> MethodType:
    return MethodType(func, obj)


# freeze()'s dispatch_table. A method is _bind(func, obj), not pickle's
# getattr(obj, name): a wrapper patched onto a class under another name
# would not load.
_REDUCERS = {MethodType: lambda m: (_bind, (m.__func__, m.__self__)),
             random.Random: _reduce_random,
             Packet: _reduce_packet,
             Ack: lambda ack: (Ack, (ack.acked_ranges,
                                     ack.largest_acked_pkt_num))}


@cache
def _slot_names(cls: type) -> tuple[str, ...]:
    """The slots cls and its bases declare, but __dict__ and __weakref__."""
    return tuple(name for klass in reversed(cls.__mro__)
                 for name in klass.__dict__.get("__slots__", ())
                 if name not in ("__dict__", "__weakref__"))


class TwoFlowRun:
    """One repetition of one matrix cell, built and ready to run.

    A long Cubic flow starts at 0. Once the queue has stayed non-empty for
    two round trips, the short flow is scheduled to start the configured
    offset plus a seeded jitter later. Fairness compares the bytes each
    flow sends through the bottleneck while the short flow runs: the
    change in the link's per-flow departed_bytes from the short flow's
    start to its finish, or to the end of the run.

    The variant is first read when the short flow's handshake completes,
    so every variant of a group shares the events before it (README,
    "Warm-up fork"). For freeze() to pickle a run, every hook its parts
    call must be a bound method of the run or of a part, and every
    controller factory a partial of _controller.
    """

    __slots__ = ("cfg", "variant", "rep", "stop_on_completion",
                 "_stop_on_saturation", "sim", "link", "start_jitter",
                 "long_conn", "short_conn", "sat_at", "sat_check",
                 "departed_at_start", "departed_at_end")

    def __init__(self, cfg: ScenarioConfig, size_bytes: int, variant: Variant,
                 rep: int, stop_on_completion: bool = True):
        check_cells((cfg,), (size_bytes,), (variant,))
        self.cfg = cfg
        self.variant = variant
        self.rep = rep
        self.stop_on_completion = stop_on_completion
        self._stop_on_saturation = False  # set while warm_up() runs
        self.sim = sim = Simulator()
        self.link = link = Link(sim, cfg.link_config())

        start_rng = substream(cfg.seed_base, cfg.name, size_bytes, rep, "start")
        pkt_rng = substream(cfg.seed_base, cfg.name, size_bytes, rep, "pkt")
        jitter_max = (cfg.start_jitter_max if cfg.start_jitter_max is not None
                      else cfg.rtt)
        self.start_jitter = start_rng.randrange(0, jitter_max + 1)
        jitter = JitterDraw(pkt_rng, cfg.pkt_jitter_max)
        self.long_conn = Connection(sim, LONG_FLOW, link, cfg.long_flow_bytes,
                                    _controller_factory(cfg,
                                                        Variant("baseline")),
                                    jitter=jitter)
        self.short_conn = Connection(sim, SHORT_FLOW, link, size_bytes,
                                     _controller_factory(cfg, variant),
                                     jitter=jitter)
        self.sat_at: Optional[SimTime] = None
        self.sat_check = None  # the saturation check's Event, once armed
        # each flow's departed bytes when the short flow starts and when it
        # finishes (or the run ends): the fairness window's two edges
        self.departed_at_start: Optional[tuple[int, int]] = None
        self.departed_at_end: Optional[tuple[int, int]] = None

        link.on_occupancy = self._on_occupancy
        self.short_conn.on_started = self._on_started
        self.short_conn.on_finished = self._on_finished
        self.long_conn.start(0)

    def _on_occupancy(self, now: SimTime, queued: int) -> None:
        # Called on each 0->1 and 1->0 queue transition. The check armed
        # at 0->1 is cancelled by the next 1->0, so a check that fires has
        # seen a non-empty queue for the whole hold.
        if queued:
            self.sat_check = self.sim.arm(
                self.sat_check, now + 2 * self.cfg.rtt, "app-start",
                "saturation", self._on_saturated)
        else:
            self.sim.cancel(self.sat_check)

    def _on_saturated(self, now: SimTime) -> None:
        # Armed 2 rtt ago, when the queue became non-empty. A departure
        # ranked before this check that empties it cancels the check.
        link = self.link
        link.retire(now)
        if not link.queued:
            return
        self.sat_at = now
        link.on_occupancy = None
        self.sim.schedule(now + self.cfg.short_flow_start + self.start_jitter,
                          "app-start", f"conn:{SHORT_FLOW}",
                          self.short_conn.start)
        if self._stop_on_saturation:
            self.sim.stop()

    # The link retires departures lazily, so each edge of the fairness
    # window first retires the departures that rank before its event (see
    # Link.retire), then reads each flow's departed bytes.

    def _departed_bytes(self) -> tuple[int, int]:
        """(short flow, long flow) departed bytes so far."""
        counters = self.link.counters
        return (counters[SHORT_FLOW].departed_bytes,
                counters[LONG_FLOW].departed_bytes)

    def _on_started(self, now: SimTime) -> None:
        self.link.retire(now)
        self.departed_at_start = self._departed_bytes()

    def _on_finished(self, now: SimTime) -> None:
        self.link.retire(now)
        self.departed_at_end = self._departed_bytes()
        if self.stop_on_completion:
            self.sim.stop()

    def warm_up(self) -> bool:
        """Run to 1 ns before the short flow's handshake completes.

        Returns False if the run never gets there: the link never
        saturates, or the handshake would complete at or after the cap.
        Either way run() then finishes the run as if it had not stopped.
        """
        cfg, sim = self.cfg, self.sim
        end = cfg.sim_cap - 1
        self._stop_on_saturation = True
        sim.run_until(end)
        self._stop_on_saturation = False
        if self.sat_at is None:  # ran to the cap
            return False
        done = (self.sat_at + cfg.short_flow_start + self.start_jitter
                + self.short_conn.handshake_rtt)
        if done > end:
            return False
        sim.run_until(done - 1)
        return True

    def _parts(self) -> tuple:
        """The objects the constructor builds that adopt() keeps."""
        long_conn, short_conn = self.long_conn, self.short_conn
        return (self, self.sim, self.link, long_conn, short_conn,
                long_conn.receiver, short_conn.receiver)

    def _shared(self) -> tuple:
        """What a frozen run names: its parts, and what its variant sets."""
        return (*self._parts(), self.cfg, self.variant,
                self.short_conn.controller_factory)

    def freeze(self) -> Optional[bytes]:
        """Each part's slots and instance dict, pickled for adopt().

        None when the run holds a closure, a lambda or a local function
        anywhere, such as a tracer's wrapper: a copy would share it.
        """
        state = [{name: getattr(part, name)
                  for name in _slot_names(type(part))}
                 | getattr(part, "__dict__", {}) for part in self._parts()]
        ids = {id(obj): i for i, obj in enumerate(self._shared())}
        out = io.BytesIO()
        pickler = pickle.Pickler(out, pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: ids.get(id(obj))
        pickler.dispatch_table = _REDUCERS
        try:
            pickler.dump(state)
        except (pickle.PicklingError, AttributeError, TypeError):
            return None
        return out.getvalue()

    def adopt(self, frozen: bytes) -> None:
        """Take over the state freeze() gave, keeping this run's variant.

        frozen comes from a run of the same (cfg, size, rep), stopped by
        warm_up(). Each part's instance dict is never read: on CPython
        3.11 that would slow every later access to its attributes.
        """
        unpickler = pickle.Unpickler(io.BytesIO(frozen))
        unpickler.persistent_load = self._shared().__getitem__
        for part, state in zip(self._parts(), unpickler.load()):
            for name, value in state.items():
                setattr(part, name, value)

    def run(self, recorder: Optional[PacketTrace] = None) -> RunResult:
        """Simulate to the end, recording into recorder if given."""
        sim = self.sim
        sim.recorder = recorder
        # the cap is exclusive: no event at sim_cap or later runs
        sim.run_until(self.cfg.sim_cap - 1)
        # the run stopped in the short flow's finish, and sim.seq is still
        # that event's, or it reached the cap, and sim.seq is past every key
        self.link.retire(sim.now)
        start = self.departed_at_start
        if start is None:  # the short flow never started
            short_bytes = long_bytes = 0
        else:  # one that started and did not finish runs to the end
            end = self.departed_at_end or self._departed_bytes()
            short_bytes, long_bytes = end[0] - start[0], end[1] - start[1]
        short = self.short_conn
        return RunResult(
            scenario=self.cfg.name,
            size_bytes=short.size,
            variant=self.variant.label(),
            rep=self.rep,
            seed=self.cfg.seed_base,
            fct=short.fct,
            lost_pkts=short.lost_pkts,
            retransmitted_bytes=short.bytes_retransmitted,
            inflation=short.bytes_retransmitted / short.size,
            fairness=fairness_ratio(short_bytes, long_bytes),
            timeout=not short.finished,
            short_start_at=short.start_at,
        )


class _WarmUp:
    """The group (cfg, size_bytes, rep) asked for last, in this process.

    run is its frozen warm run once kept, and stays None if that run did
    not pickle.
    """
    key: Optional[tuple] = None
    requests = 0
    keep_at = 1
    run: Optional[bytes] = None


def run_scenario(cfg: ScenarioConfig, size_bytes: int, variant: Variant,
                 rep: int, trace: Optional[PacketTrace] = None) -> RunResult:
    """One repetition of one matrix cell, recorded into trace if given.

    Consecutive calls for one group (cfg, size_bytes, rep) simulate its
    warm-up once: one call keeps its warm run frozen, and the later ones
    adopt it (README, "Warm-up fork"). A recorded run runs cold. A fork
    adopts only if it pickles itself: a hook installed after the copy was
    kept, such as a tracer's, would see the fork but not its prefix.
    """
    run = TwoFlowRun(cfg, size_bytes, variant, rep)
    if trace is not None:
        return run.run(trace)
    key = (cfg, size_bytes, rep)
    if key != _WarmUp.key:
        _WarmUp.keep_at = 2 if _WarmUp.requests == 1 else 1
        _WarmUp.key, _WarmUp.requests, _WarmUp.run = key, 0, None
    _WarmUp.requests += 1
    if _WarmUp.run is not None and run.freeze() is not None:
        run.adopt(_WarmUp.run)
    # once a run is kept, requests is past keep_at
    elif _WarmUp.requests == _WarmUp.keep_at and run.warm_up():
        _WarmUp.run = run.freeze()
    return run.run()


def single_flow_run(cfg: ScenarioConfig, transfer_bytes: int, duration: SimTime,
                    recorder: Optional[PacketTrace] = None) -> Connection:
    """One flow on an idle bottleneck, for startup-behavior studies."""
    sim = Simulator()
    sim.recorder = recorder
    link = Link(sim, cfg.link_config())
    pkt_rng = substream(cfg.seed_base, cfg.name, "single", 0, "pkt")
    conn = Connection(sim, LONG_FLOW, link, transfer_bytes,
                      _controller_factory(cfg, Variant("baseline")),
                      jitter=JitterDraw(pkt_rng, cfg.pkt_jitter_max))
    conn.start(0)
    sim.run_until(duration)
    link.retire(duration)
    return conn


# -- statistics ---------------------------------------------------------------


@dataclass(frozen=True)
class MetricStats:
    factor: float           # improvement multiplier, direction per metric
    delta: float            # variant minus baseline
    ci_lo: float
    ci_hi: float
    significant: bool       # 0 outside the 95% CI of paired differences
    anova_f: float
    anova_p: float


def _t_abs_cdf(x: float, df: int) -> float:
    """P(|T| < x) for Student's t with an integer df >= 1.

    The finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan(x / sqrt(df)).
    """
    theta = math.atan(x / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    odd = df % 2
    term = total = 1.0
    for k in range(1, (df - 1) // 2 if odd else df // 2):
        term *= cos2 * (2 * k - 1 + odd) / (2 * k + odd)
        total += term
    if not odd:
        return math.sin(theta) * total
    if df == 1:
        return 2 * theta / math.pi
    return 2 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)


def _t_critical(df: int) -> float:
    """Two-sided 95% quantile of Student's t: bisection on P(|T| < x)."""
    lo, hi = 0.0, 1.0
    while _t_abs_cdf(hi, df) < 0.95:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            return hi
        if _t_abs_cdf(mid, df) < 0.95:
            lo = mid
        else:
            hi = mid


def _anova_two_groups(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """One-way ANOVA F and p for two groups, safe for zero variance.

    With one degree of freedom between groups F is T squared, so the tail
    P(F(1, df) > f) is 1 - P(|T| < sqrt(f)).
    """
    na, nb = len(a), len(b)
    mean_a = statistics.fmean(a)
    mean_b = statistics.fmean(b)
    grand = (sum(a) + sum(b)) / (na + nb)
    ss_between = na * (mean_a - grand) ** 2 + nb * (mean_b - grand) ** 2
    ss_within = (sum((x - mean_a) ** 2 for x in a)
                 + sum((x - mean_b) ** 2 for x in b))
    df_between = 1
    df_within = na + nb - 2
    if ss_within == 0.0:
        if ss_between == 0.0:
            return 0.0, 1.0
        return math.inf, 0.0
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    # clamped: rounding may leave it a hair below 0
    p = max(0.0, 1.0 - _t_abs_cdf(math.sqrt(f_stat), df_within))
    return f_stat, p


def _paired_stats(variant: Sequence[float], baseline: Sequence[float],
                  invert_factor: bool) -> MetricStats:
    """CI of paired differences plus the Table-style mean factor.

    invert_factor=True reports baseline/variant (used for FCT, where >1
    means the variant finished faster); False reports variant/baseline
    (used for losses, where >1 means the variant lost more).
    """
    n = len(variant)
    if n != len(baseline):
        raise ValueError("unequal repetition counts")
    if n < 2:
        raise ValueError("statistics unavailable below two repetitions")
    mean_v = statistics.fmean(variant)
    mean_b = statistics.fmean(baseline)
    if invert_factor:
        factor = mean_b / mean_v if mean_v else math.inf
    else:
        if mean_b:
            factor = mean_v / mean_b
        else:
            factor = 1.0 if mean_v == 0 else math.inf
    diffs = [v - b for v, b in zip(variant, baseline)]
    mean_d = statistics.fmean(diffs)
    sd = statistics.stdev(diffs)
    half = _t_critical(n - 1) * sd / math.sqrt(n) if sd > 0 else 0.0
    ci_lo, ci_hi = mean_d - half, mean_d + half
    significant = not (ci_lo <= 0.0 <= ci_hi)
    f_stat, p = _anova_two_groups(variant, baseline)
    return MetricStats(factor, mean_d, ci_lo, ci_hi, significant, f_stat, p)


@dataclass(frozen=True)
class ComparisonStats:
    fct: MetricStats
    loss: MetricStats


def aggregate(variant_results: Sequence[RunResult],
              baseline_results: Sequence[RunResult]) -> ComparisonStats:
    """Compare one variant cell against its paired baseline cell."""
    if len(variant_results) != len(baseline_results):
        raise ValueError("unequal repetition counts")
    by_rep_v = {r.rep: r for r in variant_results}
    by_rep_b = {r.rep: r for r in baseline_results}
    fct_v, fct_b, loss_v, loss_b = [], [], [], []
    for rep in sorted(by_rep_v):
        v, b = by_rep_v[rep], by_rep_b.get(rep)
        if b is None:
            raise ValueError(f"baseline repetition {rep} missing")
        if v.fct is None or b.fct is None:
            continue  # timeouts carry no completion time
        fct_v.append(v.fct / NS_PER_US)
        fct_b.append(b.fct / NS_PER_US)
        loss_v.append(float(v.lost_pkts))
        loss_b.append(float(b.lost_pkts))
    return ComparisonStats(
        fct=_paired_stats(fct_v, fct_b, invert_factor=True),
        loss=_paired_stats(loss_v, loss_b, invert_factor=False),
    )


# -- matrix execution ---------------------------------------------------------


def _run_cell(task: tuple) -> RunResult:
    cfg, size_bytes, variant, rep, trace_dir = task
    trace = None if trace_dir is None else PacketTrace(only=TRACE_ROWS)
    try:
        result = run_scenario(cfg, size_bytes, variant, rep, trace)
    except BaseException as exc:  # the runs.csv key, then the seed
        exc.add_note(f"cell {cfg.name},{size_bytes},{variant.label()},{rep} "
                     f"seed {cfg.seed_base}")
        raise
    if trace is not None:
        label = variant.label().replace(":", "_")
        name = f"trace_{cfg.name}_{size_bytes}_{label}_{rep}.csv"
        emit_trace_csv(trace, trace_dir / name)
    return result


def run_matrix(scenarios: Sequence[ScenarioConfig], sizes: Sequence[int],
               variants: Sequence[Variant], reps: int, jobs: int = 1,
               progress: Optional[Callable[[int, int], None]] = None,
               trace_dir: Optional[Path] = None) -> list[RunResult]:
    """Run every (scenario, size, variant, rep) cell; order-independent.

    The tasks go group by group, (cfg, size, rep), each group's variants
    in a row, and a worker takes a whole group at a time, so run_scenario
    simulates each group's warm-up once. With trace_dir, each run also
    writes its packet trace there as
    trace_<scenario>_<size>_<variant>_<rep>.csv. A run that raises ends
    the matrix with its own exception, noted with its cell by _run_cell,
    once the groups not yet taken are cancelled and each worker joined.
    """
    check_cells(scenarios, sizes, variants)
    tasks = [(cfg, size, variant, rep, trace_dir)
             for cfg in scenarios for size in sizes for rep in range(reps)
             for variant in variants]
    results: list[RunResult] = []
    group = len(variants)
    jobs = min(jobs, len(tasks) // max(group, 1))  # no idle workers
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
    with (ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext()) as pool:
        done = (map(_run_cell, tasks) if pool is None else
                pool.map(_run_cell, tasks, chunksize=group))
        for i, result in enumerate(done, 1):
            results.append(result)
            if progress is not None:
                progress(i, len(tasks))
    results.sort(key=lambda r: (r.scenario, r.size_bytes, r.variant, r.rep))
    return results


# -- emission -----------------------------------------------------------------

RUNS_HEADER = ("scenario,size_bytes,variant,rep,seed,fct_us,lost_pkts,"
               "retx_bytes,inflation,fairness,timeout")
TRACE_HEADER = "time_us,flow_id,event,pkt_num,seq,len"
TRACE_ROWS = {"send", "deliver", "drop", "ack"}  # the row kinds of a trace CSV


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_csv(path: Path, header: str, rows: Iterable[Sequence]) -> None:
    """The header line, then one line per row.

    A cell is empty for None, a float to six places, and anything else
    as str gives it. No cell is quoted: a scenario name, the only free
    text in a row, holds no comma (see ScenarioConfig).
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def emit_runs_csv(results: Sequence[RunResult], path: Path) -> None:
    rows = sorted(results, key=lambda r: (r.scenario, r.size_bytes,
                                          r.variant, r.rep))
    write_csv(path, RUNS_HEADER, (
        (r.scenario, r.size_bytes, r.variant, r.rep, r.seed,
         None if r.fct is None else r.fct // NS_PER_US, r.lost_pkts,
         r.retransmitted_bytes, r.inflation, r.fairness, int(r.timeout))
        for r in rows))


SUMMARY_FIELDS = (
    "scenario", "size_bytes", "variant", "n",
    "mean_fct_us", "mean_lost_pkts", "mean_inflation", "median_fairness",
    "fct_factor", "fct_delta_us", "fct_ci_lo_us", "fct_ci_hi_us",
    "fct_significant", "fct_anova_f", "fct_anova_p",
    "loss_factor", "loss_delta_pkts", "loss_ci_lo", "loss_ci_hi",
    "loss_significant", "loss_anova_f", "loss_anova_p", "timeouts",
)


def summarize(results: Sequence[RunResult]) -> list[dict]:
    """One row per (scenario, size, variant), compared to the baseline cell."""
    cells: dict[tuple[str, int, str], list[RunResult]] = {}
    for r in results:
        cells.setdefault((r.scenario, r.size_bytes, r.variant), []).append(r)
    rows = []
    for (scenario, size, variant) in sorted(cells):
        group = cells[(scenario, size, variant)]
        baseline = cells.get((scenario, size, "baseline"))
        row: dict = {
            "scenario": scenario, "size_bytes": size, "variant": variant,
            "n": len(group),
            "timeouts": sum(1 for r in group if r.timeout),
        }
        done = [r for r in group if r.fct is not None]
        row["mean_fct_us"] = (statistics.fmean(r.fct / NS_PER_US for r in done)
                              if done else None)
        row["mean_lost_pkts"] = statistics.fmean(r.lost_pkts for r in group)
        row["mean_inflation"] = statistics.fmean(r.inflation for r in group)
        fair = [r.fairness for r in group if r.fairness is not None]
        row["median_fairness"] = statistics.median(fair) if fair else None
        if baseline is not None:
            try:
                stats = aggregate(group, baseline)
            except ValueError:
                stats = None
            if stats is not None:
                for fields, metric in ((SUMMARY_FIELDS[8:15], stats.fct),
                                       (SUMMARY_FIELDS[15:22], stats.loss)):
                    row.update(zip(fields, astuple(metric)))
                    row[fields[4]] = int(metric.significant)
        rows.append(row)
    return rows


def emit_summary_csv(results: Sequence[RunResult], path: Path) -> None:
    write_csv(path, ",".join(SUMMARY_FIELDS),
              ([row.get(field) for field in SUMMARY_FIELDS]
               for row in summarize(results)))


def emit_trace_csv(trace: PacketTrace, path: Path) -> None:
    write_csv(path, TRACE_HEADER,
              ((t // NS_PER_US, *rest) for t, *rest in trace.rows))


# -- declarative scenario files -------------------------------------------------

_SCENARIO_FILE_KEYS = {
    "name", "rtt_ms", "bottleneck_kbps", "buffer_pkts", "access_tech",
    "long_flow_bytes", "short_flow_bytes", "short_flow_start_ms", "variant",
    "start_jitter_max_ms", "pkt_jitter_max_us",
}
# keys older files carried; the command line sets these now
_KEYS_MOVED_TO_FLAGS = {"repetitions": "--reps", "seed_base": "--seed"}


def parse_scenario_file(path: Path) -> tuple[ScenarioConfig, int, Variant]:
    """key = value scenario description; returns (config, size, variant).

    Raises ValueError naming the offending key on any malformed input.
    """
    values: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCENARIO_FILE_KEYS:
            flag = _KEYS_MOVED_TO_FLAGS.get(key)
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}"
                             + (f"; use {flag} instead" if flag else ""))
        if key in key_lines:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}, first "
                             f"set on line {key_lines[key]}")
        key_lines[key] = lineno
        values[key] = value.strip()
    for required in ("name", "rtt_ms", "bottleneck_kbps", "buffer_pkts",
                     "short_flow_bytes"):
        if required not in values:
            raise ValueError(f"{path}: missing required key {required!r}")

    def get(key: str, convert: Callable[[str], object], default=None):
        if key not in values:
            return default
        try:
            return convert(values[key])
        except (KeyError, ValueError):
            raise ValueError(f"{path}: bad {key} {values[key]!r}") from None

    cfg = ScenarioConfig(
        name=values["name"],
        rtt=get("rtt_ms", lambda v: ms(int(v))),
        bottleneck_kbps=get("bottleneck_kbps", int),
        buffer_pkts=get("buffer_pkts", int),
        access_tech=get("access_tech", lambda v: AccessTech[v.upper()],
                        AccessTech.UNKNOWN),
        long_flow_bytes=get("long_flow_bytes", int, LONG_FLOW_BYTES),
        short_flow_start=get("short_flow_start_ms", lambda v: ms(int(v)),
                             NS_PER_S),
        start_jitter_max=get("start_jitter_max_ms", lambda v: ms(int(v))),
        pkt_jitter_max=get("pkt_jitter_max_us", lambda v: us(int(v)),
                           PKT_JITTER_MAX),
    )
    size = get("short_flow_bytes", int)
    variant = get("variant", Variant.parse, Variant("baseline"))
    return cfg, size, variant
