"""Dumbbell bottleneck: token-bucket shaping, drop-tail buffer, fixed delay.

Access links are infinitely fast; only the bottleneck between the two
switches shapes traffic. The shaper serializes packets at the configured
rate with a single-packet burst, so a packet enqueued on an idle link still
departs one full serialization time later, and back-to-back packets depart
exactly one serialization time apart. The configured round-trip is split as
symmetric propagation delay on each direction; queueing adds on top.

A packet costs the link one event, its arrival at the far end, scheduled
when the packet is admitted. That event calls the receiver its flow
attached to the link (Link.attach), which counts the packet in the flow's
`delivered`: a flow that enqueues needs a receiver. The departure is
bookkeeping done lazily, in departure order (Link.retire): per-flow
counters of departed packets and bytes, which is all a reader of
departures needs. A departure ranks among the events of its nanosecond by
its arrival's sequence number, as the departure event the arrival stands
in for would have.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Optional

from .engine import BIND, NS_PER_S, SimTime, Simulator

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


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class FlowCounters:
    injected: int = 0
    delivered: int = 0  # counted by the flow's receiver
    dropped: int = 0
    departed: int = 0
    departed_bytes: int = 0  # wire bytes of the departed packets


class Link:
    """One direction of the bottleneck: shaper, drop-tail queue, delay.

    Departure times are fixed at enqueue time, one serialization time
    after the departure of the last packet queued, or after now when the
    queue is empty and the shaper idle. That keeps event counts linear in
    packets (no periodic refill events), and so is the arrival one
    propagation delay later, which enqueue schedules at once: the event
    calls the receiver attached for the packet's flow in `receivers`,
    which counts the packet in its flow's `delivered`. A flow must attach
    its receiver before it enqueues; attach() also makes the flow's
    counters. The queue is FIFO by construction: packets depart in enqueue
    order at strictly increasing times.

    A departure is not an event. `queue` holds (departure time, the seq
    of the packet's arrival event, packet) for each packet still queued,
    and retire() does what a departure does, in departure order: the
    packet leaves `queued` and counts in its flow's `departed` and
    `departed_bytes`, and the one that empties the queue calls
    on_occupancy(departure time, 0). A packet admitted to an empty queue
    calls on_occupancy(now, 1) before its arrival is scheduled, so before
    it joins `queue`. enqueue retires first, so a packet departing as
    another arrives frees its slot if it ranks first; any other reader of
    the queue, the counters or the hook's results retires first too.

    The state is in slots. `__dict__` stays, empty, for an observer that
    keeps a wrapped hook on the instance.
    """

    __slots__ = ("sim", "config", "_serialization", "queue", "max_queued",
                 "counters", "receivers", "on_occupancy", "__dict__")

    def __init__(self, sim: Simulator, config: LinkConfig):
        self.sim = sim
        self.config = config
        self._serialization: dict[int, SimTime] = {}  # by packet length
        self.queue: deque[tuple[SimTime, int, Packet]] = deque()
        self.max_queued = 0
        self.counters: dict[int, FlowCounters] = {}
        self.receivers: dict[int, Callable[[Packet, SimTime], None]] = {}
        self.on_occupancy: Optional[Callable[[SimTime, int], None]] = None

    def attach(self, flow_id: int,
               receiver: Callable[[Packet, SimTime], None]) -> FlowCounters:
        """Make receiver flow_id's far end; returns the flow's counters.

        Each packet of the flow that the link admits is handed to
        receiver(packet, now) at its arrival, and receiver counts it in
        the returned counters' `delivered`. receiver is bound here, as
        the arrival's callback (Simulator.schedule, BIND). Attaching
        again replaces the receiver and keeps the counters.
        """
        self.receivers[flow_id] = self.sim.schedule(
            self.sim.now, "packet-arrival", LINK_TARGET, receiver, BIND)
        return self.counters.setdefault(flow_id, FlowCounters())

    @property
    def queued(self) -> int:
        """Packets admitted and not yet retired."""
        return len(self.queue)

    def enqueue(self, packet: Packet, now: SimTime) -> None:
        """Admit a packet, or drop it if the buffer is full.

        The packet's flow must have a receiver attached. Every departure
        that ranks before the enqueue is retired first.
        """
        queue = self.queue
        counters = self.counters
        sim = self.sim
        if queue and queue[0][0] <= now:
            # retire(now), inline on the per-packet path: the same tie rule
            while queue:
                departure, seq, head = queue[0]
                if departure >= now and (departure > now or seq >= sim.seq):
                    break
                queue.popleft()
                c = counters[head.flow_id]
                c.departed += 1
                c.departed_bytes += head.len
                if not queue and self.on_occupancy is not None:
                    self.on_occupancy(departure, 0)
        c = counters[packet.flow_id]
        c.injected += 1
        queued = len(queue)
        if queued >= self.config.buffer_pkts:
            c.dropped += 1
            return
        try:  # a subscript, not .get(): no call on the per-packet path
            serialization = self._serialization[packet.len]
        except KeyError:
            serialization = self.config.serialization_time(packet.len)
            self._serialization[packet.len] = serialization
        # every packet still queued departs at or after now, retired above
        departure = (queue[-1][0] if queued else now) + serialization
        if not queued and self.on_occupancy is not None:
            self.on_occupancy(now, 1)
        # schedule(the arrival, "packet-arrival", ...), inline on the
        # per-packet path; never in the past, as departure >= now
        seq = sim.scheduled
        sim.scheduled = seq + 1
        heappush(sim._heap, (departure + self.config.prop_delay, seq,
                             self.receivers[packet.flow_id], packet,
                             "packet-arrival", LINK_TARGET))
        queue.append((departure, seq, packet))
        queued += 1
        if queued > self.max_queued:
            self.max_queued = queued

    def retire(self, now: SimTime) -> None:
        """Retire each departure that ranks before the event at now.

        That event is keyed (now, sim.seq). A departure at d whose arrival
        took seq s ranks as a departure event scheduled in the arrival's
        place would: it comes first when (d, s) < (now, sim.seq), and only
        a tie in time reads sim.seq. A retired packet counts in its flow's
        departed and departed_bytes, so the counters read right after this
        call are the ones that event sees.
        """
        queue = self.queue
        counters = self.counters
        while queue:
            departure, seq, packet = queue[0]
            if departure >= now and (departure > now
                                     or seq >= self.sim.seq):
                return
            queue.popleft()
            c = counters[packet.flow_id]
            c.departed += 1
            c.departed_bytes += packet.len
            if not queue and self.on_occupancy is not None:
                self.on_occupancy(departure, 0)

