import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from blitzsim.congestion import (FLOOR_BYTES, PACE_AVOIDANCE, PACE_SLOW_START,
                                 CubicController, make_controller)
from blitzsim.engine import PacketTrace, Simulator, ms, seconds, us
from blitzsim.harness import (PRESETS, SIZES, JitterDraw, TwoFlowRun,
                              Variant, default_variants, single_flow_run)
from blitzsim.netmodel import (HEADER_BYTES, SEGMENT_PAYLOAD_BYTES,
                               SEGMENT_WIRE_BYTES, FlowCounters, Link,
                               LinkConfig, Packet)
from blitzsim.signaling import AccessTech, BandwidthHint
from blitzsim.transport import (ACK_EVERY, MAX_ACK_DELAY, Ack, Connection,
                                 RangeSet, Receiver)

DSL_FAST = LinkConfig(rate_bps=50_000_000, prop_delay=ms(25), buffer_pkts=208)


def make_conn(transfer_bytes, cfg=DSL_FAST, controller=None, wire=True):
    sim = Simulator()
    link = Link(sim, cfg)
    factory = controller or (lambda mr, now: CubicController())
    # a JitterDraw of high 0: every injection lag is 0
    conn = Connection(sim, 0, link, transfer_bytes, factory,
                      JitterDraw(random.Random(0), 0))
    if not wire:  # packets reach the far end and go no further
        def absorb(pkt, now):
            counters.delivered += 1
        counters = link.attach(0, absorb)
    return sim, link, conn


# -- pacing_interval -----------------------------------------------------------

def pacing_interval(cwnd_bytes, srtt, fraction):
    """The reference pacing gap: cwnd spread over fraction * srtt.

    fraction is a (numerator, denominator) pair of ints. maybe_send
    computes the same gap inline.
    """
    if srtt <= 0:
        raise ValueError("srtt must be positive")
    if cwnd_bytes < SEGMENT_WIRE_BYTES:
        raise ValueError("cwnd below one segment")
    num, den = fraction
    return (num * srtt * SEGMENT_WIRE_BYTES) // (den * cwnd_bytes)


def test_pacing_interval_slow_start_32_segments():
    # 25 ms spread over 32 segments: about 781 us each
    assert pacing_interval(32 * 1500, ms(50), (1, 2)) == 781_250


def test_pacing_interval_avoidance_100_segments():
    # 37.5 ms over 100 segments: 375 us
    assert pacing_interval(100 * 1500, ms(50), (3, 4)) == us(375)


def test_pacing_interval_single_segment():
    assert pacing_interval(1500, ms(50), (3, 4)) == ms(37.5)


def test_pacing_interval_rejects_zero_srtt():
    with pytest.raises(ValueError):
        pacing_interval(32 * 1500, 0, (1, 2))


def test_pacing_interval_rejects_sub_segment_window():
    with pytest.raises(ValueError):
        pacing_interval(1499, ms(50), (1, 2))


def test_every_paced_send_waits_the_pacing_interval(monkeypatch):
    # maybe_send computes the gap inline; on a lossy cell, in Slow Start
    # and after it, the gap after each paced send is pacing_interval's.
    # cwnd and srtt do not change within one call, so the gap the call
    # leaves in next_release is the one after each of its sends.
    maybe_send = Connection.maybe_send
    fractions = Counter()

    def checked(conn, now):
        sent = conn.pkts_sent
        maybe_send(conn, now)
        if conn.pkts_sent > sent and conn.burst_remaining == 0:
            ctrl = conn.controller
            assert conn.next_release - now == pacing_interval(
                ctrl.cwnd, conn.srtt, ctrl.pacing_fraction)
            fractions[ctrl.pacing_fraction] += 1

    monkeypatch.setattr(Connection, "maybe_send", checked)
    result = TwoFlowRun(PRESETS["dsl-fast"], SIZES["2M"],
                        Variant(4.0), 0).run()
    assert result.lost_pkts > 0
    assert set(fractions) == {PACE_SLOW_START, PACE_AVOIDANCE}


# -- RangeSet ------------------------------------------------------------------

def test_rangeset_frontier_growth_and_coverage():
    rs = RangeSet()
    assert rs.add(0, 1350) == [(0, 1350)]
    assert rs.add(1350, 2700) == [(1350, 2700)]
    assert rs.ranges == [(0, 2700)]
    assert rs.add(0, 2700) == []
    assert rs.total == 2700


def test_rangeset_hole_fill_merges():
    rs = RangeSet()
    rs.add(0, 1350)
    rs.add(2700, 4050)
    assert rs.ranges == [(0, 1350), (2700, 4050)]
    added = rs.add(1350, 2700)
    assert added == [(1350, 2700)]
    assert rs.ranges == [(0, 4050)]


def test_rangeset_empty_or_inverted_range_changes_nothing():
    rs = RangeSet()
    rs.add(0, 1350)
    rs.add(2700, 4050)
    for start, end in ((500, 500), (1350, 1350), (2000, 2000), (3000, 1000),
                       (5000, 4000), (1000, 500)):
        assert rs.add(start, end) == []
        assert rs.ranges == [(0, 1350), (2700, 4050)]
        assert rs.total == 2700


def test_rangeset_partial_overlap_counts_only_new_bytes():
    rs = RangeSet()
    rs.add(0, 2000)
    added = rs.add(1000, 3000)
    assert added == [(2000, 3000)]
    assert rs.total == 3000


_range_op = st.one_of(
    # in order: from the highest end so far, or from within the last range
    st.tuples(st.just("next"), st.integers(0, 40), st.integers(0, 60)),
    st.tuples(st.just("any"), st.integers(0, 300), st.integers(0, 300)),
)


@given(st.lists(_range_op, max_size=40))
@settings(max_examples=300, deadline=None)
def test_rangeset_add_matches_byte_set_model(adds):
    rs = RangeSet()
    covered: set[int] = set()
    for kind, a, b in adds:
        if kind == "next":
            top = rs.ranges[-1][1] if rs.ranges else 0
            start, end = max(0, top - a), top + b
        else:
            start, end = a, b
        added = rs.add(start, end)
        new = set(range(start, end)) - covered
        assert added == sorted(added)
        assert sum(e - s for s, e in added) == len(new)
        assert {b for s, e in added for b in range(s, e)} == new
        covered |= new
        assert all(s < e for s, e in rs.ranges)
        assert all(e < s for (_, e), (s, _) in zip(rs.ranges, rs.ranges[1:]))
        assert {b for s, e in rs.ranges for b in range(s, e)} == covered
        assert rs.total == len(covered)


@given(st.lists(_range_op, max_size=40), st.booleans())
@settings(max_examples=300, deadline=None)
def test_rangeset_in_order_fast_path_matches_the_general_path(ops, in_order):
    # The receiver extends the last range inline for a packet that starts
    # where it ends, and hands any other packet to RangeSet.add; fed the
    # same packets, its ranges and total match those of add alone.
    _, _, conn = make_conn(10**6, wire=False)
    fast, general = conn.receiver, RangeSet()
    for pkt_num, (kind, a, b) in enumerate(ops):
        if kind == "next" or in_order:
            top = fast.ranges.ranges[-1][1] if fast.ranges.ranges else 0
            start, length = max(0, top - a), a + b
        else:
            start, length = a, b
        fast.on_data(Packet(0, start, HEADER_BYTES + length, pkt_num,
                            payload_len=length), 0)
        general.add(start, start + length)
        assert fast.ranges.ranges == general.ranges
        assert fast.ranges.total == general.total


# -- handshake and first flight -------------------------------------------------

def test_handshake_supplies_first_rtt_sample():
    sim, link, conn = make_conn(70_000)
    conn.start(0)
    sim.run_until(ms(51))
    # one clean round trip before data: srtt = 50 ms
    assert conn.srtt == ms(50)
    assert conn.rttvar == ms(25)
    # data starts as the handshake ends: the first packet leaves at 50 ms
    assert conn.records[0].sent_at == conn.start_at + conn.handshake_rtt
    assert conn.records[0].sent_at == ms(50)


def test_initial_burst_then_paced_segments():
    # fresh baseline window of 32 segments: 10 at once, 22 paced ~781 us apart
    sim, link, conn = make_conn(1 << 20)
    sim.recorder = trace = PacketTrace(only={"send"})
    conn.start(0)
    sim.run_until(ms(50) + ms(18))
    start = ms(50)
    sends = [row[0] for row in trace.rows]
    burst = [t for t in sends if t == start]
    assert len(burst) == 10
    paced = [t for t in sends if t > start]
    assert len(paced) == 22
    gaps = {b - a for a, b in zip(paced, paced[1:])}
    assert gaps == {781_250}


def test_window_limited_sender_sends_nothing_and_arms_no_timer():
    sim, link, conn = make_conn(1 << 20, wire=False)  # no ACKs ever return
    conn.start(0)
    sim.run_until(ms(80))
    assert conn.pkts_sent == 32
    assert conn.in_flight == 32 * 1500
    conn.maybe_send(sim.now)
    assert conn.pkts_sent == 32
    assert conn._pacing_event.seq == -1


def test_70KB_transfer_is_52_packets_and_reliable():
    # ceil(70000 / 1350) = 52 data packets on a clean link
    sim, link, conn = make_conn(70_000)
    conn.start(0)
    sim.run_until(seconds(5))
    assert conn.finished
    assert conn.pkts_sent == 52
    assert conn.bytes_retransmitted == 0
    assert conn.receiver.ranges.ranges == [(0, 70_000)]
    assert conn.bytes_acked == 70_000


def test_fct_is_finish_minus_start():
    sim, link, conn = make_conn(70_000)
    conn.start(ms(10))
    sim.run_until(seconds(5))
    assert conn.fct == conn.finished_at - ms(10)


def test_duplicate_ack_adds_no_bytes_and_no_growth():
    sim, link, conn = make_conn(1 << 20)
    conn.start(0)
    sim.run_until(ms(120))  # some ACKs processed
    acked_before = conn.bytes_acked
    cwnd_before = conn.controller.cwnd
    dup = Ack(list(conn.acked_ranges.ranges), conn.largest_acked_pkt)
    conn.on_ack(dup, sim.now)
    assert conn.bytes_acked == acked_before
    assert conn.controller.cwnd == cwnd_before


def test_ack_for_unknown_pkt_num_is_recorded_and_ignored():
    sim, link, conn = make_conn(1 << 20)
    conn.start(0)
    sim.run_until(ms(60))
    ghost = Ack([], 10_000)
    conn.on_ack(ghost, sim.now)
    assert conn.ack_anomalies == 1
    assert conn.srtt == ms(50)  # no sample taken from the ghost


def test_ack_below_prune_floor_is_old_not_an_anomaly():
    # a reordered ACK whose largest packet was acked and pruned already
    sim, link, conn = make_conn(1 << 20, wire=False)
    conn.start(0)
    sim.run_until(ms(52))
    conn.on_ack(Ack([(0, 5 * 1350)], 4), ms(55))
    old = Ack([(0, 3 * 1350)], 2)
    assert 2 not in conn.records and 0 not in conn.records_by_seq
    conn.on_ack(old, ms(56))
    assert conn.ack_anomalies == 0
    assert conn.largest_acked_pkt == 4


# -- ACK processing cost ---------------------------------------------------------

class TakenRange(tuple):
    """A byte range that counts in seen["adds"] each time it is unpacked.

    on_ack unpacks each range it does not skip as held once, to move the
    last held range's end inline or to hand it to add(), so seen["adds"]
    counts the ranges it adds either way.
    """

    def __new__(cls, rng, seen):
        self = super().__new__(cls, rng)
        self.seen = seen
        return self

    def __iter__(self):
        self.seen["adds"] += 1
        return super().__iter__()


class UnheldRange(TakenRange):
    """A byte range equal to no other, so on_ack never skips it as held.

    Handing on_ack only such ranges makes it add every range of every
    ACK: the reference the skip of held ranges must match.
    """

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return False


class ObservedController(CubicController):
    """A CubicController that logs the arguments of each on_ack call."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = []

    def on_ack(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return super().on_ack(*args, **kwargs)


def ack_observer(conn):
    """Watch what ACKs do to conn: ranges added, controller calls, state.

    conn's controller must be an ObservedController.
    """
    seen = {"adds": 0, "controller": conn.controller.calls, "pkts": {}}

    def state():
        pkts = seen["pkts"]  # every packet sent so far, pruned ones too
        for pkt in (*conn.records.values(), *conn.records_by_seq.values()):
            pkts[pkt.pkt_num] = pkt
        flags = [(num, pkt.acked, pkt.lost)
                 for num, pkt in sorted(pkts.items())]
        return (conn.bytes_acked, conn.in_flight,
                list(conn.acked_ranges.ranges), seen["controller"][-1:], flags)
    return seen, state


def segment_ranges(size, segments):
    """The merged byte ranges of a set of whole segments of the grid."""
    ranges = []
    for k in sorted(segments):
        start = k * SEGMENT_PAYLOAD_BYTES
        end = min(size, start + SEGMENT_PAYLOAD_BYTES)
        if ranges and ranges[-1][1] == start:
            ranges[-1] = (ranges[-1][0], end)
        else:
            ranges.append((start, end))
    return ranges


@given(size=st.sampled_from([20 * SEGMENT_PAYLOAD_BYTES + 100, 1 << 20]),
       order=st.permutations(range(32)),
       acks=st.lists(st.tuples(st.integers(1, 32), st.booleans()),
                     min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_skipping_held_ack_ranges_leaves_the_state_of_adding_every_range(
        size, order, acks):
    # The receiver gets the first 32 segments in `order`. Each ACK reports
    # the first n arrivals, so ACKs in any order of n are stale, duplicated
    # and reordered ones, and a hole that a later arrival fills merges two
    # held ranges. With the flag set, an ACK also repeats one of its ranges.
    segments = [k for k in order if k * SEGMENT_PAYLOAD_BYTES < size]
    sides = []
    for _ in range(2):
        sim, link, conn = make_conn(
            size, wire=False,
            controller=lambda mr, now: ObservedController())
        conn.start(0)
        sim.run_until(ms(80))  # the first window is sent, nothing acked
        sides.append((sim, conn, *ack_observer(conn)))
    (sim, conn, seen, state), (ref_sim, ref_conn, ref_seen, ref_state) = sides
    ranges_sent = 0
    for i, (n, repeat) in enumerate(acks):
        arrived = segments[:n]
        ranges = segment_ranges(size, arrived)
        if repeat:
            ranges.append(ranges[0])
        largest = max(arrived)
        now = ms(81) + i * ms(1)
        sim.run_until(now)
        ref_sim.run_until(now)
        assert state() == ref_state()
        if not ref_conn.finished:
            ranges_sent += len(ranges)
        conn.on_ack(Ack([TakenRange(r, seen) for r in ranges], largest), now)
        ref_conn.on_ack(Ack([UnheldRange(r, ref_seen) for r in ranges],
                            largest), now)
        assert state() == ref_state()
    assert ref_seen["adds"] == ranges_sent  # the reference added every range
    assert seen["adds"] <= ref_seen["adds"]
    assert (conn.finished_at, conn.lost_pkts) == (ref_conn.finished_at,
                                                 ref_conn.lost_pkts)


def test_an_ack_adds_at_most_the_ranges_its_packets_changed():
    # The reverse path is lossless and FIFO, so the sender holds exactly
    # the ranges of the receiver's previous ACK. At most ACK_EVERY packets
    # arrive between two ACKs and each changes one range of the list (a
    # new range, an extended one, or two merged into one), so at most
    # ACK_EVERY ranges of an ACK are not held already.
    run = TwoFlowRun(PRESETS["dsl-fast"], SIZES["2M"], Variant(4.0), 0)
    per_ack = []
    widest = 0
    for conn in (run.long_conn, run.short_conn):
        on_ack = conn.on_ack

        def measured_on_ack(ack, now, on_ack=on_ack):
            nonlocal widest
            widest = max(widest, len(ack.acked_ranges))
            seen = {"adds": 0}
            ack.acked_ranges = [TakenRange(r, seen) for r in ack.acked_ranges]
            on_ack(ack, now)
            per_ack.append(seen["adds"])

        conn.on_ack = measured_on_ack
    result = run.run()
    assert result.lost_pkts > 0 and widest > 10 * ACK_EVERY
    assert max(per_ack) <= ACK_EVERY
    acks = run.long_conn.acks_received + run.short_conn.acks_received
    assert sum(per_ack) < 2 * acks


# -- loss detection --------------------------------------------------------------

def drive_handshake(conn, sim):
    conn.start(0)
    sim.run_until(ms(50))


def test_rack_packet_threshold_declares_early_hole_lost():
    # packets 0..4 sent; 1..4 acked; packet 0 trails largest by >= 3
    sim, link, conn = make_conn(1 << 20, wire=False)
    drive_handshake(conn, sim)
    sim.run_until(ms(52))  # all 32 injected
    first = conn.records[0]  # the ACK resolves it, and pruning drops it
    conn.on_ack(Ack([(1350, 5 * 1350)], 4), ms(55))
    assert first.lost
    assert conn.lost_pkts >= 1
    # the hole went straight back out with a fresh packet number
    assert conn.records_by_seq[0].pkt_num > 4
    assert conn.bytes_retransmitted == 1350


def test_lost_packet_acked_before_its_resend_is_not_resent():
    # the pacer holds packet 0 in the queue after RACK declares it lost; a
    # late ACK then covers its bytes, and the queue drops it unsent
    sim, link, conn = make_conn(1 << 20, wire=False)
    sim.recorder = trace = PacketTrace(only={"send"})
    drive_handshake(conn, sim)
    sim.run_until(ms(52))
    first = conn.records[0]
    assert conn.next_release > sim.now  # the pacer is closed
    conn.on_ack(Ack([(1350, 5 * 1350)], 4), sim.now)
    assert first.lost and list(conn.retx_queue) == [first]
    sim.run_until(ms(52) + us(100))
    conn.on_ack(Ack([(0, 5 * 1350)], 4), sim.now)
    assert first.acked
    sim.run_until(ms(60))
    assert not conn.retx_queue
    assert conn.bytes_retransmitted == 0
    assert conn.pkts_sent > 12
    seqs = [row[4] for row in trace.rows]
    assert seqs == [k * 1350 for k in range(len(seqs))]  # no copy of 0


def test_acked_packet_is_never_declared_lost():
    sim, link, conn = make_conn(1 << 20, wire=False)
    drive_handshake(conn, sim)
    sim.run_until(ms(52))
    sent = [conn.records[num] for num in range(9)]
    conn.on_ack(Ack([(0, 5 * 1350)], 4), ms(55))
    conn.on_ack(Ack([(0, 9 * 1350)], 8), ms(56))
    for pkt in sent:
        assert pkt.acked
        assert not pkt.lost


def test_rack_time_threshold():
    # an unacked packet sent 9/8 srtt before the largest acked one is lost
    sim, link, conn = make_conn(1 << 20, wire=False)
    drive_handshake(conn, sim)
    sim.run_until(ms(120))
    first = conn.records[0]
    # ack only packet 2 (packets 0 and 1 sent around the same instant are
    # inside the reordering window; nothing beyond the pkt threshold)
    conn.on_ack(Ack([(2 * 1350, 3 * 1350)], 2), ms(125))
    assert not first.lost  # within both thresholds
    # a much later retransmission-era ack: largest jumps far ahead in time
    sim.run_until(ms(400))
    conn.maybe_send(sim.now)
    late_num = conn.pkts_sent - 1
    pkt = conn.records[late_num]
    conn.on_ack(Ack([(pkt.seq, pkt.seq + pkt.payload_len)], late_num),
                ms(460))
    assert first.lost


def test_tail_loss_probe_retransmits_oldest():
    # no ACKs at all: the probe timeout declares the oldest packet lost and
    # retransmits it with a fresh packet number, doubling on repeat
    sim, link, conn = make_conn(3 * 1350, wire=False)
    drive_handshake(conn, sim)
    first = conn.records[0]
    first_interval = 2 * conn.srtt + 4 * conn.rttvar
    sim.run_until(ms(50) + first_interval + ms(1))
    assert conn.lost_pkts == 1
    assert first.lost
    assert conn.records_by_seq[0].pkt_num > 2
    assert conn.bytes_retransmitted == 1350
    assert conn._pto_backoff == 1


def test_losses_are_retransmitted_and_transfer_completes():
    # drop-prone link: tiny buffer forces real losses end to end
    tight = LinkConfig(rate_bps=8_000_000, prop_delay=ms(10), buffer_pkts=5)
    sim, link, conn = make_conn(300_000, cfg=tight)
    conn.start(0)
    sim.run_until(seconds(60))
    assert conn.finished
    assert link.counters[0].dropped > 0
    assert conn.lost_pkts > 0
    # accounting identity: wire payload = transfer + retransmitted bytes
    assert conn.payload_sent == 300_000 + conn.bytes_retransmitted
    assert conn.receiver.ranges.ranges == [(0, 300_000)]


def test_in_flight_bound_respected_at_every_send(monkeypatch):
    # a packet's injection is scheduled once it counts as in flight
    sim, link, conn = make_conn(1 << 20)
    sent_ok = []
    schedule = Simulator.schedule

    def checked(sim, fire_at, kind, target, fn, arg=None):
        if fn == link.enqueue:
            sent_ok.append(conn.in_flight <= conn.controller.cwnd)
        return schedule(sim, fire_at, kind, target, fn, arg)

    monkeypatch.setattr(Simulator, "schedule", checked)
    conn.start(0)
    sim.run_until(seconds(1))
    assert sent_ok and all(sent_ok)


def test_each_sent_packet_equals_the_one_its_constructor_builds(monkeypatch):
    # maybe_send fills a Packet's slots itself; on a lossy link, so that
    # retransmissions count too, each packet it injects holds, slot for
    # slot, what Packet(...) gives for the same arguments
    size = 300_000
    tight = LinkConfig(rate_bps=8_000_000, prop_delay=ms(10), buffer_pkts=5)
    sim, link, conn = make_conn(size, cfg=tight)
    sent = []
    schedule = Simulator.schedule

    def watched(sim, fire_at, kind, target, fn, arg=None):
        if fn == link.enqueue:
            payload = min(SEGMENT_PAYLOAD_BYTES, size - arg.seq)
            twin = Packet(conn.flow_id, arg.seq, payload + HEADER_BYTES,
                          conn.pkts_sent - 1, fire_at, payload)
            sent.append([(type(pkt), *(getattr(pkt, name)
                                        for name in Packet.__slots__))
                         for pkt in (arg, twin)])
        return schedule(sim, fire_at, kind, target, fn, arg)

    monkeypatch.setattr(Simulator, "schedule", watched)
    conn.start(0)
    sim.run_until(seconds(60))
    assert conn.finished and conn.bytes_retransmitted > 0
    assert len(sent) == conn.pkts_sent
    assert all(pkt == twin for pkt, twin in sent)


@pytest.mark.parametrize("scenario", sorted(PRESETS))
def test_maybe_send_never_runs_on_a_finished_sender(monkeypatch, scenario):
    # _finish cancels the pacing timer and the PTO, and on_ack returns
    # before it sends, so nothing calls maybe_send once a sender finished.
    # Each run goes on for a second past the short flow's finish, so any
    # timer the flow left armed would have fired; no preset cell sends an
    # ACK after the finish, which the ChaosPath property does
    maybe_send = Connection.maybe_send
    entries = Counter()

    def entered(conn, now):
        entries[conn.finished_at is None] += 1
        return maybe_send(conn, now)

    monkeypatch.setattr(Connection, "maybe_send", entered)
    for size in ("70K", "2M"):
        for variant in default_variants():
            run = TwoFlowRun(PRESETS[scenario], SIZES[size], variant, 0)
            assert run.run().fct is not None
            run.sim.run_until(run.sim.now + seconds(1))
    assert entries[True] > 0 and entries[False] == 0


def test_receiver_acks_every_second_packet_and_on_timer():
    sim, link, conn = make_conn(3 * 1350)
    sim.recorder = trace = PacketTrace(only={"deliver", "ack"})
    conn.start(0)
    sim.run_until(seconds(2))
    # 3 packets: one pair ack plus one delayed ack for the odd tail
    assert conn.acks_received == 2
    assert conn.finished
    delivered = [row[0] for row in trace.rows if row[2] == "deliver"]
    acked = [row[0] for row in trace.rows if row[2] == "ack"]
    assert len(delivered) == 3 and len(acked) == 2
    assert acked[1] == delivered[2] + MAX_ACK_DELAY + conn.reverse_delay


def test_first_flight_symmetry_with_window_equivalent_hint():
    # a hint worth exactly the default initial window injects the same
    # first-round packet count as the baseline: floor(cwnd / segment)
    def first_rtt_sends(factory):
        sim, link, conn = make_conn(1 << 20, controller=factory)
        conn.start(0)
        sim.run_until(2 * ms(50) - 1)  # handshake plus one data round trip
        return conn.pkts_sent

    base = first_rtt_sends(lambda mr, now: CubicController())
    # 32 segments of 1500 wire bytes: 48000 B = 7680 kbps * 50 ms / 8
    hint = BandwidthHint(AccessTech.DSL, 7680)
    blitz = first_rtt_sends(lambda mr, now: make_controller(hint, mr, now))
    assert base == blitz == 32


def test_srtt_smoothing_follows_7_8_rule():
    # an ACK samples the RTT of its largest packet, if newly acknowledged
    sim, link, conn = make_conn(1 << 20, wire=False)
    drive_handshake(conn, sim)
    assert conn.srtt == ms(50)
    first = conn.records[0]
    sim.run_until(first.sent_at + ms(90))
    conn.on_ack(Ack([(0, first.payload_len)], 0), sim.now)
    srtt = (7 * ms(50) + ms(90)) // 8
    assert conn.srtt == srtt
    late = conn.records[conn.pkts_sent - 1]  # sent by that ACK
    sim.run_until(late.sent_at + ms(40))
    conn.on_ack(Ack([(0, late.seq + late.payload_len)], late.pkt_num),
                sim.now)
    assert conn.srtt == (7 * srtt + ms(40)) // 8


# -- timers as deadlines --------------------------------------------------------------

@pytest.mark.parametrize("lone_at", [
    ms(10),  # the pair's timer entry pops at 25 ms, early, and is re-keyed
    ms(30),  # the pair's ACK disarmed it, so its entry is dropped at 25 ms;
             # the lone one arms anew
], ids=["entry-pops-early", "entry-pops-idle"])
def test_lone_packet_is_acked_max_ack_delay_after_it_arrived(lone_at):
    sim, link, conn = make_conn(1 << 20)
    acks = []  # when the receiver ACKs; the sender never sees them
    conn.on_ack = lambda ack, now: acks.append(now - conn.reverse_delay)
    receiver = conn.receiver
    # a pair at 0 and 1 ms is acked at once; the first armed the timer
    for k, at in enumerate((0, ms(1), lone_at)):
        pkt = Packet(0, k * SEGMENT_PAYLOAD_BYTES, SEGMENT_WIRE_BYTES, k, 0,
                     SEGMENT_PAYLOAD_BYTES)
        sim.schedule(at, "packet-arrival", "test", receiver.on_data, pkt)
    acked_at = lone_at + MAX_ACK_DELAY
    sim.run_until(acked_at - 1)
    assert acks == [ms(1)]
    sim.run_until(seconds(1))
    assert acks == [ms(1), acked_at]


def test_every_ack_timer_that_fires_has_a_packet_to_ack(monkeypatch):
    # An ACK disarms the ACK-delay timer in place, so the timer fires only
    # with a packet pending. Seven of the parent engine's fires on this
    # cell found none; a one-packet flow makes the timer fire for real.
    pending = []
    on_ack_timer = Receiver._on_ack_timer

    def counted(receiver, now):
        pending.append(receiver._pending)
        on_ack_timer(receiver, now)

    monkeypatch.setattr(Receiver, "_on_ack_timer", counted)
    cfg = replace(PRESETS["dsl-fast"], seed_base=1)
    TwoFlowRun(cfg, SIZES["70K"], Variant(), 0).run()
    assert 0 not in pending
    single_flow_run(replace(cfg, long_flow_bytes=SEGMENT_PAYLOAD_BYTES),
                    seconds(1))
    assert pending == [1]


def test_pto_entry_popping_before_its_deadline_only_re_arms():
    sim, link, conn = make_conn(1 << 20, wire=False)
    drive_handshake(conn, sim)
    key = conn._pto_event.fire_at  # armed by the first send at 50 ms
    assert key == ms(50) + 2 * ms(50) + 4 * ms(25)
    sim.run_until(ms(120))
    conn.on_ack(Ack([(0, 5 * SEGMENT_PAYLOAD_BYTES)], 4), sim.now)
    oldest = conn.records[5]
    deadline = ms(120) + 2 * conn.srtt + 4 * conn.rttvar
    assert conn._pto_event.due == deadline > key
    assert conn._pto_event.fire_at == key  # a later deadline moves nothing
    sim.run_until(key)
    assert conn.lost_pkts == 0
    assert conn._pto_event.seq != -1 and conn._pto_event.fire_at == deadline
    sim.run_until(deadline - 1)
    assert conn.lost_pkts == 0
    sim.run_until(deadline)
    assert conn.lost_pkts == 1 and oldest.lost


def test_pto_after_in_flight_drains_counts_from_the_next_send():
    sim, link, conn = make_conn(1 << 20, wire=False)
    sim.recorder = trace = PacketTrace(only={"send"})
    drive_handshake(conn, sim)  # a burst of 10 at 50 ms, then paced
    stale = conn._pto_event.fire_at
    sim.run_until(ms(50) + us(500))  # the pacer is closed
    assert conn.pkts_sent == 10 and conn.next_release > sim.now
    conn.on_ack(Ack([(0, 10 * SEGMENT_PAYLOAD_BYTES)], 9), sim.now)
    assert conn.in_flight == 0 and conn._pto_event.seq == -1
    sim.run_until(conn.next_release)
    sent_at = trace.rows[10][0]
    assert sent_at == conn.next_release - pacing_interval(
        conn.controller.cwnd, conn.srtt, conn.controller.pacing_fraction)
    due = sent_at + 2 * conn.srtt + 4 * conn.rttvar
    assert due > stale
    assert conn._pto_event.due == conn._pto_event.fire_at == due
    sim.run_until(due - 1)
    assert conn.lost_pkts == 0
    sim.run_until(due)
    assert conn.lost_pkts == 1


@pytest.mark.parametrize("scenario, ptos", [("dsl-fast", 0), ("dsl-slow", 1)])
def test_every_pto_that_runs_declares_a_loss(monkeypatch, scenario, ptos):
    # an entry that pops before the PTO's due is re-keyed by the engine,
    # so _on_pto runs only when the probe timeout has come; ACKs move the
    # due on both cells, and on dsl-slow one PTO declares a loss
    on_pto = Connection._on_pto
    losses = []

    def counted(conn, now):
        before = conn.lost_pkts
        on_pto(conn, now)
        losses.append(conn.lost_pkts - before)

    monkeypatch.setattr(Connection, "_on_pto", counted)
    TwoFlowRun(replace(PRESETS[scenario], seed_base=1), SIZES["70K"],
               Variant(3.0), 0).run()
    assert losses == [1] * ptos


def test_a_pto_can_find_nothing_outstanding(monkeypatch):
    # A PTO declares the last outstanding packet lost behind a closed
    # pacing gate, and the re-armed PTO fires before the gate opens: the
    # gap was set by a send whose srtt late ACKs had inflated to about
    # 40 s, and the PTO counts from an srtt that the next ACKs shrank to a
    # few ms. The path holds each packet as long as the test likes, and
    # each ACK carries every segment received and the largest packet
    # number received.
    on_pto = Connection._on_pto
    ptos = []  # (in_flight before, losses declared) per PTO

    def counted(conn, now):
        in_flight, lost = conn.in_flight, conn.lost_pkts
        on_pto(conn, now)
        ptos.append((in_flight, conn.lost_pkts - lost))

    monkeypatch.setattr(Connection, "_on_pto", counted)
    sim = Simulator()
    link = StubLink(LinkConfig(rate_bps=10_000_000, prop_delay=ms(10),
                               buffer_pkts=30))
    hint = BandwidthHint(AccessTech.DSL, 120_000)  # a 200-segment window
    conn = Connection(sim, 0, link, 1000 * SEGMENT_PAYLOAD_BYTES,
                      lambda mr, now: make_controller(hint, mr, now),
                      JitterDraw(random.Random(0), 0))
    received, largest = RangeSet(), -1

    def receive(pkt_num):
        nonlocal largest
        pkt = link.held[pkt_num]
        received.add(pkt.seq, pkt.seq + pkt.payload_len)
        largest = max(largest, pkt_num)
        conn.on_ack(Ack(list(received.ranges), largest), sim.now)

    conn.start(0)
    sim.run_until(ms(40))  # packets 0-199 are out, packet n with segment n
    for n in range(147, 151):  # RACK declares 0-146 lost
        receive(n)
    sim.run_until(seconds(40))  # backed-off PTOs declare a few more
    first = conn.pkts_sent
    for n in range(147):  # the originals, late: their ACKs take no RTT
        receive(n)        # sample, and free the window their resends held
    while conn.in_flight + SEGMENT_WIRE_BYTES <= conn.controller.cwnd:
        sim.run_until(conn.next_release)
    fresh = range(first, conn.pkts_sent)  # sent about 0.1 ms apart
    for n in range(151, 199):  # the rest of the first flight, 40 s late
        receive(n)
    assert conn.srtt > seconds(39)
    sim.run_until(conn.next_release)
    gate, sent = conn.next_release, conn.pkts_sent
    for n in fresh:
        sim.run_until(sim.now + us(10))
        receive(n)
    assert conn.srtt < ms(5) and conn.in_flight == SEGMENT_WIRE_BYTES
    sim.run_until(gate - 1)
    assert ptos[-2:] == [(SEGMENT_WIRE_BYTES, 1), (0, 0)]
    assert conn.pkts_sent == sent and conn._pto_event.seq == -1
    sim.run_until(gate)  # the resend goes, and the PTO is armed again
    assert conn.pkts_sent == sent + 1 and conn._pto_event.seq != -1


# -- bounded state ------------------------------------------------------------------

def peak_state(monkeypatch, cfg, duration):
    """Peak len(records), len(records_by_seq) and cwnd of one long flow."""
    peak = {"records": 0, "by_seq": 0, "cwnd": 0}
    on_ack = Connection.on_ack

    def sampled(conn, ack, now):
        peak["records"] = max(peak["records"], len(conn.records))
        peak["by_seq"] = max(peak["by_seq"], len(conn.records_by_seq))
        on_ack(conn, ack, now)
        peak["cwnd"] = max(peak["cwnd"], conn.controller.cwnd)

    monkeypatch.setattr(Connection, "on_ack", sampled)
    conn = single_flow_run(cfg, duration)
    assert conn.pkts_sent > 10 * peak["records"]
    return peak


@pytest.mark.parametrize("cfg", [
    PRESETS["dsl-slow"],
    replace(PRESETS["dsl-slow"], buffer_pkts=20),  # drops and recovery
], ids=["dsl-slow", "dsl-slow-buffer-20"])
def test_sent_records_stay_bounded_by_the_window(monkeypatch, cfg):
    short = peak_state(monkeypatch, cfg, seconds(2))
    long = peak_state(monkeypatch, cfg, seconds(8))
    for peak in (short, long):
        # the slack covers acked records above a hole whose retransmission
        # is still outstanding
        bound = peak["cwnd"] // SEGMENT_WIRE_BYTES + cfg.buffer_pkts + 64
        assert peak["records"] <= bound
        assert peak["by_seq"] <= bound
    for key in ("records", "by_seq"):
        assert abs(long[key] - short[key]) <= short[key] // 10


def unacked_grid_points(conn):
    """The grid points of the segments conn sent and has not seen acked.

    Every grid point below next_seq was sent, and each acked range is a
    union of whole segments, so it starts on the grid.
    """
    ranges = conn.acked_ranges.ranges
    frontier = ranges[0][1] if ranges and ranges[0][0] == 0 else 0
    points = set(range(frontier, conn.next_seq, SEGMENT_PAYLOAD_BYTES))
    for start, end in ranges:
        points.difference_update(range(max(start, frontier), end,
                                       SEGMENT_PAYLOAD_BYTES))
    return points


def test_records_by_seq_holds_the_segments_sent_and_not_acked(monkeypatch):
    # on_ack pops each segment it marks acked, and nothing else removes
    # one; the out-of-order ranges of a lossy cell pop above the frontier
    on_ack = Connection.on_ack
    acks = Counter()

    def checked(conn, ack, now):
        on_ack(conn, ack, now)
        if not conn.finished:
            acks[conn.flow_id] += 1
            assert set(conn.records_by_seq) == unacked_grid_points(conn)
            assert all(pkt.seq == seq and not pkt.acked
                       for seq, pkt in conn.records_by_seq.items())

    monkeypatch.setattr(Connection, "on_ack", checked)
    result = TwoFlowRun(PRESETS["dsl-fast"], SIZES["2M"],
                        Variant(4.0), 0).run()
    assert result.lost_pkts > 0 and acks[0] > 0 and acks[1] > 0


class ChaosPath:
    """Test-only wrapper around a connection's two directions.

    A seeded RNG drops, duplicates and delays (so reorders) data packets
    on their way to the receiver and ACKs on their way back. Reordered
    data makes RACK retransmit spuriously, so a retransmitted copy can be
    acked while it lies above the largest acknowledged packet.
    """

    def __init__(self, sim, link, conn, seed, drop, dup, reorder, max_delay):
        self.sim = sim
        self.rng = random.Random(seed)
        self.drop, self.dup, self.reorder = drop, dup, reorder
        self.max_delay = max_delay
        receiver = conn.receiver
        link.attach(conn.flow_id,
                    lambda pkt, now: self.pass_on(pkt, now, receiver.on_data))
        on_ack = conn.on_ack
        conn.on_ack = lambda ack, now: self.pass_on(ack, now, on_ack)

    def pass_on(self, pkt, now, deliver):
        rng = self.rng
        if rng.random() < self.drop:
            return
        for _ in range(2 if rng.random() < self.dup else 1):
            if rng.random() < self.reorder:
                self.sim.schedule(now + rng.randrange(1, self.max_delay),
                                  "packet-arrival", "chaos", deliver, pkt)
            else:
                deliver(pkt, now)


@given(seed=st.integers(0, 2**32 - 1),
       size=st.integers(20_000, 400_000),
       drop=st.integers(0, 200),
       dup=st.integers(0, 200),
       reorder=st.integers(0, 300),
       max_delay_ms=st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_transfer_survives_drop_duplication_and_reordering(
        seed, size, drop, dup, reorder, max_delay_ms):
    # drop, dup and reorder are per mille of the packets on each direction;
    # a reordered packet is held back by up to three round trips
    cfg = LinkConfig(rate_bps=10_000_000, prop_delay=ms(10), buffer_pkts=30)
    sim, link, conn = make_conn(size, cfg=cfg)
    sim.recorder = trace = PacketTrace(only={"send"})
    seen = {"min_in_flight": 0, "min_cwnd": FLOOR_BYTES, "finished_sends": 0}

    def checked(fn):
        def run(*args):
            fn(*args)
            seen["min_in_flight"] = min(seen["min_in_flight"], conn.in_flight)
            seen["min_cwnd"] = min(seen["min_cwnd"], conn.controller.cwnd)
            # spurious retransmissions are acked above the largest acked
            # packet, and a duplicated ACK covers nothing new
            assert set(conn.records_by_seq) == unacked_grid_points(conn)
        return run

    # wrapped before ChaosPath, so the checks follow every ACK that arrives
    conn.on_ack = checked(conn.on_ack)
    conn._on_pto = checked(conn._on_pto)
    maybe_send = conn.maybe_send

    def sending(now):
        seen["finished_sends"] += conn.finished_at is not None
        return maybe_send(now)

    # before the start: the handshake and the pacing timer call it
    conn.maybe_send = sending
    ChaosPath(sim, link, conn, seed, drop / 1000, dup / 1000, reorder / 1000,
              ms(max_delay_ms) + 1)
    conn.start(0)
    sim.run_until(seconds(600))
    assert conn.finished
    assert conn.receiver.ranges.ranges == [(0, size)]
    assert conn.bytes_acked == size
    assert seen["min_in_flight"] >= 0 and conn.in_flight == 0
    assert conn.payload_sent == size + conn.bytes_retransmitted
    assert seen["min_cwnd"] >= FLOOR_BYTES
    assert conn.ack_anomalies == 0
    assert seen["finished_sends"] == 0
    # the payload grid that lets a lost packet be resent whole: every
    # packet, retransmissions too, is [k*1350, min(size, (k+1)*1350))
    for _, _, _, _, seq, length in trace.rows:
        assert seq % SEGMENT_PAYLOAD_BYTES == 0
        assert length - HEADER_BYTES == min(size - seq, SEGMENT_PAYLOAD_BYTES)


# -- transport state machine ---------------------------------------------------------

class StubLink:
    """A Link stand-in that holds each injected packet until a rule acts."""

    def __init__(self, cfg):
        self.config = cfg
        self.receivers = {}
        self.held = []

    def attach(self, flow_id, receiver):
        self.receivers[flow_id] = receiver
        return FlowCounters()

    def enqueue(self, pkt, now):
        self.held.append(pkt)


class TransportMachine(RuleBasedStateMachine):
    """One Connection and its Receiver, with every packet and ACK in hand.

    Rules deliver, drop, duplicate or hold back (so reorder) any data
    packet or ACK in flight, and advance the clock so that the handshake,
    the pacing timer, the PTO and the ACK-delay timer fire. The checks
    are RFC 9002's bookkeeping (Appendix A) and the two timers' dues.
    """

    @initialize(size=st.integers(1, 40 * SEGMENT_PAYLOAD_BYTES))
    def start(self, size):
        self.sim = Simulator()
        self.link = StubLink(LinkConfig(rate_bps=10_000_000,
                                        prop_delay=ms(10), buffer_pkts=30))
        conn = Connection(self.sim, 0, self.link, size,
                          lambda mr, now: CubicController(),
                          JitterDraw(random.Random(0), 0))
        self.conn = conn
        self.acks = []
        conn.on_ack = lambda ack, now: self.acks.append(ack)
        # wrapped before the first arming, which reads the callback
        self.early = []
        self.watch(conn, "_on_pto", "_pto_event", lambda: conn.lost_pkts)
        # every fire of the ACK-delay timer schedules an ACK
        self.watch(conn.receiver, "_on_ack_timer", "_ack_timer",
                   lambda: self.sim.scheduled)
        conn.start(0)

    def watch(self, owner, timer, event, count):
        """Record each fire of owner's timer that acts before its due.

        A fire acts if it raises count().
        """
        fire = getattr(owner, timer)

        def checked(now):
            due, before = getattr(owner, event).due, count()
            fire(now)
            if count() > before and now < due:
                self.early.append((timer, now, due))

        setattr(owner, timer, checked)

    @staticmethod
    def take(items, i, dup):
        i %= len(items)
        return items[i] if dup else items.pop(i)

    @precondition(lambda self: self.link.held)
    @rule(i=st.integers(0, 1 << 16), dup=st.booleans())
    def deliver_data(self, i, dup):
        pkt = self.take(self.link.held, i, dup)
        self.conn.receiver.on_data(pkt, self.sim.now)

    @precondition(lambda self: self.link.held)
    @rule(i=st.integers(0, 1 << 16))
    def drop_data(self, i):
        self.take(self.link.held, i, False)

    @precondition(lambda self: self.acks)
    @rule(i=st.integers(0, 1 << 16), dup=st.booleans())
    def deliver_ack(self, i, dup):
        ack = self.take(self.acks, i, dup)
        Connection.on_ack(self.conn, ack, self.sim.now)

    @precondition(lambda self: self.acks)
    @rule(i=st.integers(0, 1 << 16))
    def drop_ack(self, i):
        self.take(self.acks, i, False)

    @rule(dt=st.integers(1, ms(400)))
    def advance(self, dt):
        self.sim.run_until(self.sim.now + dt)

    @precondition(lambda self: self.sim._heap)
    @rule()
    def step(self):
        """Dispatch the next nanosecond that holds an event."""
        self.sim.run_until(self.sim._heap[0][0])

    @invariant()
    def in_flight_is_what_is_neither_acked_nor_lost(self):
        conn = self.conn
        assert conn.in_flight == sum(pkt.len for pkt in conn.records.values()
                                     if not (pkt.acked or pkt.lost))

    @invariant()
    def queued_retransmissions_are_lost_or_acked(self):
        assert all(pkt.lost or pkt.acked for pkt in self.conn.retx_queue)

    @invariant()
    def records_by_seq_holds_the_segments_sent_and_not_acked(self):
        assert set(self.conn.records_by_seq) == unacked_grid_points(self.conn)

    @invariant()
    def no_ack_anomalies(self):
        assert self.conn.ack_anomalies == 0

    @invariant()
    def no_pto_loss_and_no_delayed_ack_before_its_deadline(self):
        assert self.early == []

    @invariant()
    def the_pto_is_armed_by_its_deadline_while_data_is_in_flight(self):
        conn = self.conn
        if conn.in_flight and not conn.finished:
            pto = conn._pto_event
            assert pto.seq != -1 and pto.fire_at <= pto.due

    @invariant()
    def an_unacked_packet_is_acked_by_its_deadline(self):
        receiver = self.conn.receiver
        if receiver._pending:
            timer = receiver._ack_timer
            assert self.sim.now < timer.due
            assert timer.seq != -1 and timer.fire_at <= timer.due


TransportMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=60, deadline=None)
test_transport_state_machine = TransportMachine.TestCase
