"""Dumbbell bottleneck: token-bucket shaping, drop-tail buffer, fixed delay.

Access links are infinitely fast; only the bottleneck between the two
switches shapes traffic. The shaper serializes packets at the configured
rate with a single-packet burst, so a packet enqueued on an idle link still
departs one full serialization time later, and back-to-back packets depart
exactly one serialization time apart. The configured round-trip is split as
symmetric propagation delay on each direction; queueing adds on top.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .engine import NS_PER_S, SimTime, Simulator

SEGMENT_WIRE_BYTES = 1500   # on-wire bytes of a full data segment
SEGMENT_PAYLOAD_BYTES = 1350  # application bytes carried by a full segment
HEADER_BYTES = SEGMENT_WIRE_BYTES - SEGMENT_PAYLOAD_BYTES
# event target of every bottleneck hop and of a packet's injection into it
LINK_TARGET = "bottleneck"


class Packet:
    """A data packet on the link, and its sender's record of it.

    acked and lost are the sender's; the link and the receiver read only
    the wire fields.
    """

    __slots__ = ("flow_id", "seq", "len", "sent_at", "pkt_num", "payload_len",
                 "acked", "lost")

    def __init__(self, flow_id: int, seq: int, length: int, pkt_num: int,
                 sent_at: SimTime = 0, payload_len: int = 0):
        self.flow_id = flow_id
        self.seq = seq
        self.len = length
        self.sent_at = sent_at
        self.pkt_num = pkt_num
        self.payload_len = payload_len
        self.acked = False
        self.lost = False


@dataclass(frozen=True)
class LinkConfig:
    rate_bps: int
    prop_delay: SimTime          # one-way
    buffer_pkts: int

    def __post_init__(self):
        if self.rate_bps <= 0:
            raise ValueError("rate must be positive")
        if self.buffer_pkts < 1:
            raise ValueError("buffer_pkts must be >= 1")

    def serialization_time(self, length: int) -> SimTime:
        # ceil so the realized rate never exceeds the configured one
        bits = length * 8
        return -(-bits * NS_PER_S // self.rate_bps)


@dataclass
class FlowCounters:
    injected: int = 0
    delivered: int = 0
    dropped: int = 0
    departed: int = 0


class Link:
    """One direction of the bottleneck: shaper, drop-tail queue, delay.

    Departure times are fixed at enqueue time from the shaper state, which
    keeps event counts linear in packets (no periodic refill events). The
    queue is FIFO by construction: departures are scheduled in enqueue
    order at strictly increasing times.
    """

    def __init__(self, sim: Simulator, config: LinkConfig):
        self.sim = sim
        self.config = config
        self.busy_until: SimTime = 0
        self._serialization: dict[int, SimTime] = {}  # by packet length
        self.queued = 0
        self.max_queued = 0
        self.counters: defaultdict[int, FlowCounters] = defaultdict(FlowCounters)
        self.deliver: Optional[Callable[[Packet, SimTime], None]] = None
        self.on_departure: Optional[Callable[[Packet, SimTime], None]] = None
        self.on_occupancy: Optional[Callable[[SimTime, int], None]] = None

    def enqueue(self, packet: Packet, now: SimTime) -> Optional[SimTime]:
        """Admit a packet; returns its departure time, or None if dropped."""
        c = self.counters[packet.flow_id]
        c.injected += 1
        if self.queued >= self.config.buffer_pkts:
            c.dropped += 1
            return None
        serialization = self._serialization.get(packet.len)
        if serialization is None:
            serialization = self.config.serialization_time(packet.len)
            self._serialization[packet.len] = serialization
        departure = max(self.busy_until, now) + serialization
        self.busy_until = departure
        self.queued += 1
        if self.queued > self.max_queued:
            self.max_queued = self.queued
        if self.queued == 1 and self.on_occupancy is not None:
            self.on_occupancy(now, self.queued)
        self.sim.schedule(departure, "packet-departure", LINK_TARGET,
                          self._depart, packet)
        return departure

    def _depart(self, packet: Packet, now: SimTime) -> None:
        self.queued -= 1
        self.counters[packet.flow_id].departed += 1
        if self.on_departure is not None:
            self.on_departure(packet, now)
        if self.queued == 0 and self.on_occupancy is not None:
            self.on_occupancy(now, 0)
        arrive_at = now + self.config.prop_delay
        self.sim.schedule(arrive_at, "packet-arrival", LINK_TARGET,
                          self._arrive, packet)

    def _arrive(self, packet: Packet, now: SimTime) -> None:
        self.counters[packet.flow_id].delivered += 1
        if self.deliver is not None:
            self.deliver(packet, now)


def link_utilization(samples: Sequence[tuple[SimTime, int]],
                     window: tuple[SimTime, SimTime]) -> float:
    """Bits per second carried by the (t, bytes) samples within [start, end)."""
    start, end = window
    if end <= start:
        raise ValueError(f"empty utilization window: [{start}, {end})")
    total = 0
    for t, length in samples:
        if start <= t < end:
            total += length
    return total * 8 * NS_PER_S / (end - start)
