"""Reliable QUIC-like sender and receiver over the simulated network.

One Connection owns one direction of data: it packetizes the application
bytes, paces them under the congestion controller's window, detects losses
RACK-style (packet-number and time thresholds against the largest
acknowledged packet), retransmits with fresh packet numbers, and records
the counters the experiment harness reads off at the end.

The connection handshake is modeled as a single round-trip of pure delay
before data flows; it supplies the first RTT sample (and the minimum RTT a
Blitzstart window is derived from) and is included in the flow completion
time for every variant alike.
"""

from __future__ import annotations

import bisect
import random
from collections import deque
from heapq import heappush
from typing import Callable, Optional

from .congestion import INITIAL_BURST_PACKETS, CubicController
from .engine import BIND, NS_PER_MS, SimTime, Simulator
from .netmodel import (HEADER_BYTES, LINK_TARGET, SEGMENT_PAYLOAD_BYTES,
                       SEGMENT_WIRE_BYTES, Link, Packet)

RACK_PACKET_THRESHOLD = 3
RACK_TIME_THRESHOLD = (9, 8)  # (numerator, denominator) of a multiple of the RTT
ACK_EVERY = 2
MAX_ACK_DELAY = 25 * NS_PER_MS
# The probe timeout is PTO_SRTT * srtt + PTO_RTTVAR * rttvar, doubled per
# backoff; _arm_pto and on_ack both compute it from these.
PTO_SRTT, PTO_RTTVAR = 2, 4
_new_instance = object.__new__  # how maybe_send makes each Packet


class RangeSet:
    """Sorted disjoint half-open byte ranges with coverage accounting."""

    __slots__ = ("ranges", "total")

    def __init__(self):
        self.ranges: list[tuple[int, int]] = []
        self.total = 0

    def add(self, start: int, end: int) -> list[tuple[int, int]]:
        """Insert [start, end); returns the newly covered subranges.

        ranges[lo:hi] are the ranges that overlap or touch [start, end):
        the gaps between them are the new bytes, and one merged range takes
        their place. In-order data and a growing ACK range, which only move
        the last range's end, are extended inline by their callers.
        """
        ranges = self.ranges
        lo = bisect.bisect_left(ranges, (start,))
        if lo and ranges[lo - 1][1] >= start:
            lo -= 1
        hi = bisect.bisect_left(ranges, (end + 1,), lo)
        added: list[tuple[int, int]] = []
        new_bytes = 0
        cursor = start
        for s, e in ranges[lo:hi]:
            if cursor < s:
                added.append((cursor, s))
                new_bytes += s - cursor
            if e > cursor:
                cursor = e
        if cursor < end:
            added.append((cursor, end))
            new_bytes += end - cursor
            cursor = end
        if new_bytes:
            if lo < hi and ranges[lo][0] < start:
                start = ranges[lo][0]
            ranges[lo:hi] = [(start, cursor)]
            self.total += new_bytes
        return added


class Ack:
    """An ACK frame. It travels the fixed reverse path, never the Link."""

    __slots__ = ("acked_ranges", "largest_acked_pkt_num")

    def __init__(self, acked_ranges: list[tuple[int, int]],
                 largest_acked_pkt_num: int):
        self.acked_ranges = acked_ranges
        self.largest_acked_pkt_num = largest_acked_pkt_num


class Receiver:
    """Receiving endpoint: tracks byte ranges, generates ACKs.

    It is its flow's far end on the link: the link's arrival event calls
    on_data, which counts the packet in the flow's `delivered`. Each ACK's
    arrival calls _on_ack, the sender's on_ack as bound when the receiver
    was built. The state is in slots, and there is no `__dict__`.
    """

    __slots__ = ("conn", "ranges", "largest_pkt_num", "_pending",
                 "_ack_timer", "_on_ack", "_counters")

    def __init__(self, conn: "Connection"):
        self.conn = conn
        self.ranges = RangeSet()
        self.largest_pkt_num = -1
        self._pending = 0
        sim = conn.sim
        self._ack_timer = sim.timer("pacing-timer", f"recv:{conn.flow_id}",
                                    self._on_ack_timer)  # max ack delay
        self._on_ack = sim.schedule(sim.now, "packet-arrival", conn._target,
                                    conn.on_ack, BIND)
        self._counters = conn.link.attach(conn.flow_id, self.on_data)

    def on_data(self, pkt: Packet, now: SimTime) -> None:
        self._counters.delivered += 1
        seq = pkt.seq
        received = self.ranges
        last = received.ranges[-1] if received.ranges else None
        if last is not None and last[1] == seq:
            # in order, inline on the per-packet path: the packet only
            # moves the last range's end
            received.ranges[-1] = (last[0], seq + pkt.payload_len)
            received.total += pkt.payload_len
        else:
            received.add(seq, seq + pkt.payload_len)
        if pkt.pkt_num > self.largest_pkt_num:
            self.largest_pkt_num = pkt.pkt_num
        conn = self.conn
        self._pending += 1
        if self._pending >= ACK_EVERY:
            # ACK every byte received so far; reverse path: fixed
            # propagation only, never congested or dropped
            self._pending = 0
            # schedule(the ACK's arrival, "packet-arrival", ...), inline on
            # the per-packet path; never in the past, as reverse_delay >= 0
            # (a scenario's is at least 1 ns, since its rtt >= 2)
            sim = conn.sim
            seq = sim.scheduled
            sim.scheduled = seq + 1
            heappush(sim._heap, (now + conn.reverse_delay, seq, self._on_ack,
                                 Ack(list(received.ranges),
                                     self.largest_pkt_num),
                                 "packet-arrival", conn._target))
            # nothing is due: disarm the timer in place, so that its
            # entry is dropped when it pops
            self._ack_timer.due = -1
        elif self._pending == 1:  # the first unacked packet sets the due
            ev = self._ack_timer
            if ev.seq == -1:  # not armed
                conn.sim.arm(ev, now + MAX_ACK_DELAY)
            else:
                ev.due = now + MAX_ACK_DELAY

    def _on_ack_timer(self, now: SimTime) -> None:
        """The max-ack-delay timer: ACK what is pending.

        An ACK disarms the timer in place, setting its due to -1, and a
        later first unacked packet moves the due, never earlier than the
        timer's key, which the engine then re-keys. So the timer fires
        only at the oldest unacked packet's deadline.
        """
        conn = self.conn
        self._pending = 0
        # as on_data pushes an ACK: _on_ack is bound, so it must not pass
        # through schedule() again
        sim = conn.sim
        seq = sim.scheduled
        sim.scheduled = seq + 1
        heappush(sim._heap, (now + conn.reverse_delay, seq, self._on_ack,
                             Ack(list(self.ranges.ranges),
                                 self.largest_pkt_num),
                             "packet-arrival", conn._target))


class Connection:
    """Sending endpoint of one flow.

    Its timers and each injection's callback, link.enqueue, are bound
    when it is built, so a patch of the methods they call must be in
    place before that. The state is in slots. `__dict__` stays, empty,
    for an observer that keeps a wrapped hook on the instance.
    """

    __slots__ = (
        "sim", "flow_id", "_target", "link", "_enqueue", "size",
        "reverse_delay", "handshake_rtt", "controller_factory", "controller",
        "_lag", "next_seq", "pkts_sent", "records",
        "records_by_seq", "_records_floor", "_scan_from", "retx_queue",
        "acked_ranges", "in_flight", "srtt", "rttvar", "latest_rtt",
        "largest_acked_pkt", "largest_acked_sent_at", "burst_remaining",
        "next_release", "_pacing_event", "_pto_event", "_pto_backoff",
        "_last_inject", "bytes_retransmitted", "lost_pkts", "payload_sent",
        "acks_received", "ack_anomalies", "start_at", "finished_at",
        "on_started", "on_finished", "receiver", "__dict__")

    def __init__(self, sim: Simulator, flow_id: int, link: Link,
                 transfer_bytes: int,
                 controller_factory: Callable[[SimTime, SimTime], CubicController],
                 rng: random.Random, jitter_max: int):
        self.sim = sim
        self.flow_id = flow_id
        self._target = f"conn:{flow_id}"  # event target of this flow's events
        self.link = link
        # each injection's callback
        self._enqueue = sim.schedule(sim.now, "packet-arrival", LINK_TARGET,
                                     link.enqueue, BIND)
        self.size = transfer_bytes
        self.reverse_delay = link.config.prop_delay
        self.handshake_rtt = 2 * link.config.prop_delay
        self.controller_factory = controller_factory
        self.controller: Optional[CubicController] = None
        # each injection lag is rng.randrange(0, jitter_max + 1), drawn
        # inline from (getrandbits, n, k) as randrange draws it
        n = jitter_max + 1
        self._lag = (rng.getrandbits, n, n.bit_length())

        self.next_seq = 0
        self.pkts_sent = 0  # packet numbers start at 0: also the next one
        # The sent packets are the records, and only those an ACK can still
        # resolve or sample are kept: `records` from _records_floor up (see
        # on_ack), `records_by_seq` each segment's newest unacked copy.
        self.records: dict[int, Packet] = {}
        self.records_by_seq: dict[int, Packet] = {}
        self._records_floor = 0
        # every record below this packet number is acked or declared lost
        self._scan_from = 0
        self.retx_queue: deque[Packet] = deque()  # lost, to resend
        self.acked_ranges = RangeSet()
        self.in_flight = 0

        self.srtt: Optional[SimTime] = None
        self.rttvar: SimTime = 0
        self.latest_rtt: SimTime = 0
        self.largest_acked_pkt = -1
        self.largest_acked_sent_at: SimTime = 0

        self.burst_remaining = 0
        self.next_release: SimTime = 0
        self._pacing_event = sim.timer("pacing-timer", self._target,
                                       self.maybe_send)
        self._pto_event = sim.timer("loss-timer", self._target,
                                    self._on_pto)  # the probe timeout
        self._pto_backoff = 0
        self._last_inject: SimTime = 0

        self.bytes_retransmitted = 0
        self.lost_pkts = 0
        self.payload_sent = 0
        self.acks_received = 0
        self.ack_anomalies = 0
        self.start_at: Optional[SimTime] = None
        self.finished_at: Optional[SimTime] = None
        self.on_started: Optional[Callable[[SimTime], None]] = None
        self.on_finished: Optional[Callable[[SimTime], None]] = None

        self.receiver = Receiver(self)  # the far end, attached to link

    # -- life cycle ---------------------------------------------------------

    def start(self, now: SimTime) -> None:
        self.start_at = now
        self.sim.schedule(now + self.handshake_rtt, "app-start", self._target,
                          self._on_handshake_done)
        if self.on_started is not None:
            self.on_started(now)

    def _on_handshake_done(self, now: SimTime) -> None:
        sample = self.handshake_rtt
        self.srtt = sample
        self.rttvar = sample // 2
        self.latest_rtt = sample
        self.controller = self.controller_factory(sample, now)
        self.burst_remaining = INITIAL_BURST_PACKETS
        self.maybe_send(now)

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def bytes_acked(self) -> int:
        return self.acked_ranges.total

    @property
    def fct(self) -> Optional[SimTime]:
        if self.finished_at is None or self.start_at is None:
            return None
        return self.finished_at - self.start_at

    # -- sending ------------------------------------------------------------

    def maybe_send(self, now: SimTime) -> None:
        """Release packets while data, window, and pacer all permit.

        Every packet is one segment of the payload grid and ACK ranges are
        unions of whole packets, so a lost packet is acked whole or not at
        all: an acked one leaves the retransmission queue, any other goes
        out again whole, before new data. A blocked packet stays where it
        is, at the queue's front or at next_seq. It never runs on a finished
        sender: _finish cancels both its timers, and on_ack returns first.
        """
        ctrl = self.controller
        retx = self.retx_queue
        size = self.size
        sim = self.sim
        while True:
            while retx and retx[0].acked:
                retx.popleft()
            if retx:
                lost = retx[0]
                start = lost.seq
                end = start + lost.payload_len
            elif self.next_seq < size:
                lost = None
                start = self.next_seq
                end = start + SEGMENT_PAYLOAD_BYTES
                if end > size:
                    end = size
            else:
                break
            if self.in_flight + (end - start) + HEADER_BYTES > ctrl.cwnd:
                break  # window-limited: progress resumes on the next ACK
            if self.burst_remaining:
                self.burst_remaining -= 1
            elif self.next_release > now:  # the pacer gate is closed
                ev = self._pacing_event
                if ev.seq == -1:  # not armed
                    sim.arm(ev, self.next_release)
                break
            # send [start, end) as a new packet
            payload = end - start
            if lost is not None:
                retx.popleft()
                self.bytes_retransmitted += payload
            else:
                self.next_seq = end
            # randrange(0, n): k random bits, redrawn while they reach n
            getrandbits, n, k = self._lag
            lag = getrandbits(k)
            while lag >= n:
                lag = getrandbits(k)
            inject_at = now + lag
            if inject_at < self._last_inject:
                inject_at = self._last_inject  # a sender never reorders itself
            self._last_inject = inject_at
            pkt_num = self.pkts_sent
            self.pkts_sent = pkt_num + 1
            wire = payload + HEADER_BYTES
            # Packet(self.flow_id, start, wire, pkt_num, inject_at, payload),
            # inline on the per-packet path: a class call is not specialized
            pkt = _new_instance(Packet)
            pkt.flow_id = self.flow_id
            pkt.seq = start
            pkt.len = wire
            pkt.sent_at = inject_at
            pkt.pkt_num = pkt_num
            pkt.payload_len = payload
            pkt.acked = pkt.lost = False
            self.records[pkt_num] = pkt
            self.records_by_seq[start] = pkt
            self.in_flight += wire
            self.payload_sent += payload
            # schedule(inject_at, "packet-arrival", ...), inline on the
            # per-packet path; never in the past, as a jitter draw is >= 0
            seq = sim.scheduled
            sim.scheduled = seq + 1
            heappush(sim._heap, (inject_at, seq, self._enqueue, pkt,
                                 "packet-arrival", LINK_TARGET))
            if self._pto_event.seq == -1:  # not armed
                self._arm_pto(now)
            if self.burst_remaining == 0:
                # the pacing gap: cwnd spread over pacing_fraction * srtt
                num, den = ctrl.pacing_fraction
                self.next_release = now + (num * self.srtt * SEGMENT_WIRE_BYTES
                                           // (den * ctrl.cwnd))

    # -- receiving ----------------------------------------------------------

    def on_ack(self, ack: Ack, now: SimTime) -> None:
        """Handle one ACK, as RFC 9002 (A.7) does.

        The RTT update, the newly acked packets, the RACK scan and the
        prune are inline, since this runs for every ACK.
        """
        if self.finished_at is not None:
            return
        self.acks_received += 1
        records = self.records
        largest = ack.largest_acked_pkt_num
        rtt_sample: Optional[SimTime] = None
        if largest > self.largest_acked_pkt:
            # a packet number above every acked one is never pruned, so a
            # missing record means it was never sent
            pkt = records.get(largest)
            if pkt is None:
                self.ack_anomalies += 1
            else:
                rtt_sample = now - pkt.sent_at
                self.latest_rtt = rtt_sample
                srtt = self.srtt
                deviation = srtt - rtt_sample
                if deviation < 0:
                    deviation = -deviation
                self.rttvar = (3 * self.rttvar + deviation) // 4
                self.srtt = (7 * srtt + rtt_sample) // 8
                self.largest_acked_pkt = largest
                self.largest_acked_sent_at = pkt.sent_at

        # An ACK carries every range the receiver holds, and most of them
        # are ranges the sender holds already, exactly. Coverage only
        # grows, so such a range would add nothing even after the others
        # merge: only the rest are added, in the ACK's order, as RFC 9002
        # (A.7) does work only for newly acknowledged packets. The set is
        # built only for ACKs of more than one range, so the one-range
        # ACKs of a loss-free flow pay nothing for it. A range that starts
        # within or at the end of the last held range, as the one range of
        # an in-order flow does, only moves that range's end, inline. Any
        # other goes to add().
        #
        # Newly covered ranges are unions of whole packets, so they start
        # on the packetization grid and each segment in them is covered
        # once, as coverage only grows. Its newest copy is marked acked and
        # leaves records_by_seq, as in RFC 9002 (A.7): a segment is resent
        # only once declared lost, so its older copies are all lost.
        newly_wire = 0
        in_flight = self.in_flight
        acked = self.acked_ranges
        total = acked.total
        held_ranges = acked.ranges
        by_seq = self.records_by_seq
        ranges = ack.acked_ranges
        held = set(held_ranges) if len(ranges) > 1 else ()
        for rng in ranges:
            if rng in held:
                continue
            start, end = rng
            last = held_ranges[-1] if held_ranges else None
            if last is not None and last[0] <= start <= last[1]:
                last_end = last[1]
                if end <= last_end:
                    continue
                held_ranges[-1] = (last[0], end)
                acked.total += end - last_end
                added = ((last_end, end),)
            else:
                added = acked.add(start, end)
            for added_start, added_end in added:
                for seq in range(added_start, added_end,
                                 SEGMENT_PAYLOAD_BYTES):
                    pkt = by_seq.pop(seq, None)
                    if pkt is not None:
                        newly_wire += pkt.len
                        pkt.acked = True
                        if not pkt.lost:
                            in_flight -= pkt.len
        self.in_flight = in_flight
        newly = acked.total - total

        # the window is accounted in on-wire bytes, so growth follows the
        # wire bytes of the packets the ACK newly covered
        ctrl = self.controller
        ctrl.on_ack(newly_wire, rtt_sample, now, self.largest_acked_pkt,
                    self.pkts_sent - 1, self.srtt)

        # RACK: each packet neither acked nor lost, from the oldest up, is
        # lost if it trails the largest acked packet by the packet
        # threshold or was sent a time threshold before it; the first one
        # that does neither ends the scan.
        scan = self._scan_from
        if self.largest_acked_pkt >= 0:
            num, den = RACK_TIME_THRESHOLD
            srtt, latest_rtt = self.srtt, self.latest_rtt
            rtt = srtt if srtt > latest_rtt else latest_rtt
            threshold = num * rtt // den
            time_cutoff = self.largest_acked_sent_at - threshold
            pkt_cutoff = self.largest_acked_pkt - RACK_PACKET_THRESHOLD
            end = self.pkts_sent
            while scan < end:
                pkt = records[scan]
                if not (pkt.acked or pkt.lost):
                    if scan > pkt_cutoff and pkt.sent_at > time_cutoff:
                        break
                    self._declare_lost(pkt, now)
                scan += 1
            self._scan_from = scan

        # Drop the records no later ACK can read (RFC 9002 sent_packets).
        # Every record below _scan_from is acked or lost, and an ACK reads
        # a record only above largest_acked_pkt, so `records` below the
        # lower of the two goes.
        floor = self.largest_acked_pkt + 1
        if scan < floor:
            floor = scan
        pkt_num = self._records_floor
        while pkt_num < floor:
            del records[pkt_num]
            pkt_num += 1
        self._records_floor = pkt_num

        if acked.total >= self.size:
            self._finish(now)
            return
        if newly > 0:
            self._pto_backoff = 0
        if self.in_flight > 0:
            # the PTO counts from this ACK; its timer is re-keyed only if
            # it must fire earlier, and a later due waits for the engine
            deadline = now + ((PTO_SRTT * self.srtt + PTO_RTTVAR * self.rttvar)
                              << self._pto_backoff)
            pto = self._pto_event
            if pto.seq == -1 or deadline < pto.fire_at:
                self.sim.arm(pto, deadline)
            else:
                pto.due = deadline
        else:
            # a stale armed timer would keep the next send from counting
            # the PTO from that send
            self.sim.cancel(self._pto_event)
        self.maybe_send(now)

    # -- loss detection -------------------------------------------------------

    def _declare_lost(self, pkt: Packet, now: SimTime) -> None:
        pkt.lost = True
        self.in_flight -= pkt.len
        self.lost_pkts += 1
        self.retx_queue.append(pkt)
        self.controller.on_congestion_event(now, pkt.pkt_num,
                                            self.pkts_sent - 1)

    # -- probe timeout ----------------------------------------------------------

    def _arm_pto(self, now: SimTime) -> None:
        """Arm the probe timeout to fire one PTO interval from now."""
        self.sim.arm(self._pto_event,
                     now + ((PTO_SRTT * self.srtt + PTO_RTTVAR * self.rttvar)
                            << self._pto_backoff))

    def _on_pto(self, now: SimTime) -> None:
        """The probe timeout: declare the oldest outstanding packet lost.

        An ACK moves the timer's due later without re-keying it; the
        engine re-keys an entry that pops early, so this runs only once
        the due has come. _finish cancels it, so it never runs after.
        The oldest packet neither acked nor declared lost goes, if any.
        """
        records, end = self.records, self.pkts_sent
        pkt_num = self._scan_from
        while pkt_num < end and (records[pkt_num].acked
                                 or records[pkt_num].lost):
            pkt_num += 1
        self._scan_from = pkt_num
        if pkt_num == end:
            return
        self._declare_lost(records[pkt_num], now)
        self._pto_backoff += 1
        self._arm_pto(now)
        self.maybe_send(now)

    def _finish(self, now: SimTime) -> None:
        self.finished_at = now
        self.sim.cancel(self._pacing_event)
        self.sim.cancel(self._pto_event)
        if self.on_finished is not None:
            self.on_finished(now)
