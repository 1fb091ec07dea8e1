from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blitzsim.engine import NS_PER_S, Simulator, ms, seconds, us
from blitzsim.harness import rolling_bandwidth
from blitzsim.netmodel import FlowCounters, Link, LinkConfig, Packet

DSL_FAST = LinkConfig(rate_bps=50_000_000, prop_delay=ms(25), buffer_pkts=208)


def _attach(link, flow, log=None):
    """Attach a receiver for flow to link.

    It counts each arrival in the flow's delivered, as a transport
    Receiver does, and hands the packet to log(pkt, now) if given.
    """
    def on_data(pkt, now):
        counters.delivered += 1
        if log is not None:
            log(pkt, now)
    counters = link.attach(flow, on_data)


def _link(sim, config=DSL_FAST, flows=(0,)):
    """A Link on sim with an _attach receiver for each of flows."""
    link = Link(sim, config)
    for flow in flows:
        _attach(link, flow)
    return link


def _pkt(num, length=1500, flow=0):
    return Packet(flow, num * 1350, length, num, payload_len=min(length, 1350))


def _rate(samples, start, end):
    """Bits per second of the (t, bytes) samples in [start, end).

    Read as the rate-conformance check reads it: one sample of
    rolling_bandwidth's closed window [start, end - 1].
    """
    [(_t, rate)] = rolling_bandwidth(samples, end - 1 - start, end - 1,
                                     start=end - 1)
    return rate


def _enqueue(link, pkt, now, departures=None):
    """link.enqueue; returns pkt's departure time, or None if dropped.

    An admitted packet is the last in the queue, with its departure time.
    departures, if given, logs an admitted packet's (departure time, len).
    """
    link.enqueue(pkt, now)
    if not link.queue or link.queue[-1][2] is not pkt:
        return None
    departure = link.queue[-1][0]
    if departures is not None:
        departures.append((departure, pkt.len))
    return departure


def test_serialization_time_on_idle_link():
    # 1500 B at 50 Mbit/s: 1500*8/50e6 = 240 us
    sim = Simulator()
    link = _link(sim)
    assert _enqueue(link, _pkt(0), 0) == us(240)


def test_two_packets_depart_in_order_one_serialization_apart():
    sim = Simulator()
    link = _link(sim)
    departures = []
    assert _enqueue(link, _pkt(0), 0, departures) == us(240)
    assert _enqueue(link, _pkt(1), 0, departures) == us(480)
    sim.run_until(seconds(1))
    link.retire(sim.now)
    assert [t for t, _l in departures] == [us(240), us(480)]
    c = link.counters[0]
    assert (c.departed, c.departed_bytes) == (2, 3000)


def test_full_buffer_drops_the_209th_packet():
    # buffer from the fast DSL profile: 208 packet slots
    sim = Simulator()
    link = _link(sim)
    for i in range(208):
        assert _enqueue(link, _pkt(i), 0) is not None
    assert _enqueue(link, _pkt(208), 0) is None
    counters = link.counters[0]
    assert counters.dropped == 1
    assert counters.injected == 209
    assert link.queued == 208


def test_drop_recorded_against_the_packets_flow():
    sim = Simulator()
    link = _link(sim, LinkConfig(rate_bps=50_000_000, prop_delay=ms(25),
                                 buffer_pkts=1), flows=(3, 5))
    link.enqueue(_pkt(0, flow=3), 0)
    link.enqueue(_pkt(1, flow=5), 0)
    assert link.counters[5].dropped == 1
    assert link.counters[3].dropped == 0


def test_a_packet_arriving_as_the_queued_one_departs_takes_its_slot():
    # 1-slot buffer: the first packet departs at 240 us, and a packet
    # enqueued in that same nanosecond, by an event scheduled after the
    # first packet was admitted, finds the slot free
    sim = Simulator()
    link = _link(sim, LinkConfig(rate_bps=50_000_000, prop_delay=ms(25),
                                 buffer_pkts=1))
    departures = []
    for num, at in ((0, 0), (1, us(240) - 1), (2, us(240))):
        sim.schedule(at, "packet-arrival", "bottleneck",
                     lambda now, p=_pkt(num): _enqueue(link, p, now,
                                                       departures))
        sim.run_until(at)
    assert departures == [(us(240), 1500), (us(480), 1500)]
    c = link.counters[0]
    assert (c.injected, c.dropped, c.departed) == (3, 1, 1)
    assert link.queued == 1


def test_retire_ranks_a_departure_by_its_arrivals_seq():
    # a departure at an event's nanosecond comes before that event only if
    # its packet's arrival took an earlier sequence number than the event
    sim = Simulator()
    link = _link(sim)
    seen = []
    link.on_occupancy = lambda now, queued: seen.append(("occupancy", now,
                                                         queued))
    c = link.counters[0]

    def observe(now):
        link.retire(now)
        seen.append(("observe", now, link.queued, c.departed,
                     c.departed_bytes))

    departures = []
    sim.schedule(us(480), "app-start", "early", observe)  # seq 0
    for num, at in ((0, 0), (1, us(100))):
        sim.schedule(at, "packet-arrival", "bottleneck",
                     lambda now, p=_pkt(num): _enqueue(link, p, now,
                                                       departures))
    # scheduled at 200 us, after pkt 1's arrival took its seq at 100 us
    sim.schedule(us(200), "app-start", "late",
                 lambda now: sim.schedule(us(480), "app-start", "late",
                                          observe))
    sim.run_until(us(480))
    assert departures == [(us(240), 1500), (us(480), 1500)]
    assert seen == [("occupancy", 0, 1),
                    ("observe", us(480), 1, 1, 1500),
                    ("occupancy", us(480), 0),
                    ("observe", us(480), 0, 2, 3000)]


def test_delivery_adds_propagation_delay():
    sim = Simulator()
    link = Link(sim, DSL_FAST)
    got = []
    _attach(link, 0, lambda pkt, now: got.append((pkt.pkt_num, now)))
    link.enqueue(_pkt(0), 0)
    sim.run_until(seconds(1))
    assert got == [(0, us(240) + ms(25))]


def test_delay_floor_every_delivery_at_least_prop_delay():
    sim = Simulator()
    link = Link(sim, DSL_FAST)
    latencies = []
    _attach(link, 0, lambda pkt, now: latencies.append(now - pkt.sent_at))
    for i in range(50):
        t = i * us(100)
        pkt = _pkt(i)
        pkt.sent_at = t
        sim.schedule(t, "packet-arrival", "link",
                     lambda now, p=pkt: link.enqueue(p, now))
    sim.run_until(seconds(1))
    assert len(latencies) == 50
    assert all(lat >= ms(25) for lat in latencies)


def test_utilization_of_saturated_link_within_half_percent():
    # derived oracle: count departures of a long backlogged flow
    sim = Simulator()
    link = _link(sim)

    backlog = {"next": 0}
    departures = []

    def refill(now):
        link.retire(now)
        while link.queued < 100:
            _enqueue(link, _pkt(backlog["next"]), now, departures)
            backlog["next"] += 1
        if now < seconds(2):
            sim.schedule(now + ms(5), "pacing-timer", "src", refill)

    sim.schedule(0, "app-start", "src", refill)
    sim.run_until(seconds(2))
    util = _rate(departures, seconds(0.5), seconds(1.9))
    assert 50e6 * 0.995 <= util <= 50e6


def test_utilization_single_packet_in_one_ms_window():
    # 1500*8 bits over the 1 ms window less its open end's 1 ns: 12 Mbit/s
    sim = Simulator()
    link = _link(sim)
    departures = []
    _enqueue(link, _pkt(0), 0, departures)
    sim.run_until(seconds(1))
    assert _rate(departures, 0, ms(1)) == 1500 * 8 * NS_PER_S / (ms(1) - 1)


def test_utilization_empty_window_is_zero():
    # the window is half-open: a sample at its start counts, one at its
    # end does not
    outside = [(ms(5) - 1, 1500), (ms(10), 1500)]
    assert _rate(outside, ms(5), ms(10)) == 0.0
    edges = [(ms(5), 1500), (ms(10) - 1, 1500)]
    assert _rate(edges, ms(5), ms(10)) == 2 * 1500 * 8 * NS_PER_S / (ms(5) - 1)


def test_occupancy_never_exceeds_buffer():
    sim = Simulator()
    link = _link(sim, LinkConfig(rate_bps=8_000_000, prop_delay=ms(45),
                                 buffer_pkts=20))
    for i in range(300):
        link.enqueue(_pkt(i), 0)
    sim.run_until(seconds(1))
    assert link.max_queued <= 20
    c = link.counters[0]
    assert c.injected == 300
    assert c.dropped == 280
    assert c.delivered == 20


@given(st.lists(st.tuples(st.integers(0, 2_000_000), st.integers(0, 3)),
                min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_conservation_and_fifo_under_random_arrivals(arrivals):
    cfg = LinkConfig(rate_bps=8_000_000, prop_delay=ms(10), buffer_pkts=12)
    sim = Simulator()
    link = Link(sim, cfg)
    delivered = []
    for flow in range(4):
        _attach(link, flow, lambda pkt, now: delivered.append(pkt.pkt_num))
    arrivals = sorted(arrivals)
    for num, (t, flow) in enumerate(arrivals):
        pkt = Packet(flow, 0, 1500, num)
        sim.schedule(t, "packet-arrival", "link",
                     lambda now, p=pkt: link.enqueue(p, now))
    sim.run_until(seconds(1))
    # conservation per flow: injected = delivered + dropped once drained
    for c in link.counters.values():
        assert c.injected == c.delivered + c.dropped
    # FIFO: delivery order preserves enqueue order
    assert delivered == sorted(delivered)
    assert link.max_queued <= cfg.buffer_pkts


def test_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(rate_bps=0, prop_delay=ms(1), buffer_pkts=1)
    with pytest.raises(ValueError):
        LinkConfig(rate_bps=1000, prop_delay=ms(1), buffer_pkts=0)


def test_rate_is_never_exceeded_with_ceil_serialization():
    cfg = LinkConfig(rate_bps=7_777_777, prop_delay=0, buffer_pkts=1000)
    sim = Simulator()
    link = _link(sim, cfg)
    departures = []
    for i in range(900):
        _enqueue(link, _pkt(i), 0, departures)
    sim.run_until(seconds(10))
    last = departures[-1][0]
    bits = 900 * 1500 * 8
    assert bits * NS_PER_S / last <= cfg.rate_bps


class EagerLink:
    """Reference for Link: one departure event per packet, scheduled at
    enqueue, so a departure ranks among the events of its nanosecond by
    its own sequence number. Link does the departures lazily, in retire(),
    and must agree with this on every reading."""

    def __init__(self, sim, config):
        self.sim = sim
        self.config = config
        self.busy_until = 0
        self.queued = 0
        self.counters = defaultdict(FlowCounters)
        self.receivers = {}
        self.on_occupancy = None
        self.departed = []  # pkt_nums, in departure order

    def enqueue(self, packet, now):
        c = self.counters[packet.flow_id]
        c.injected += 1
        if self.queued >= self.config.buffer_pkts:
            c.dropped += 1
            return
        departure = (max(self.busy_until, now)
                     + self.config.serialization_time(packet.len))
        self.busy_until = departure
        self.queued += 1
        if self.queued == 1 and self.on_occupancy is not None:
            self.on_occupancy(now, 1)
        self.sim.schedule(departure, "packet-departure", "bottleneck",
                          self._depart, packet)

    def _depart(self, packet, now):
        self.queued -= 1
        c = self.counters[packet.flow_id]
        c.departed += 1
        c.departed_bytes += packet.len
        self.departed.append(packet.pkt_num)
        if self.queued == 0 and self.on_occupancy is not None:
            self.on_occupancy(now, 0)
        self.sim.schedule(now + self.config.prop_delay, "packet-arrival",
                          "bottleneck", self.receivers[packet.flow_id], packet)

    def attach(self, flow_id, receiver):
        self.receivers[flow_id] = receiver
        return self.counters[flow_id]


TIE_UNIT = us(120)  # serialization time of flow 1's packets; flow 0's is 2x
TIE_LENGTHS = (1500, 750)
TIE_LAGS = (0, 1, us(60), TIE_UNIT - 1, TIE_UNIT, TIE_UNIT + 1, 2 * TIE_UNIT,
            5 * TIE_UNIT)


def _drive(link_cls, buffer_pkts, injections, observers, order):
    """Everything a run on link_cls shows of its departures.

    An injection (k, flow, lag) enqueues a packet at k * TIE_UNIT, from an
    event scheduled lag before that (at 0 at the earliest), as a sender's
    jitter does. An observer (until, scheduled_at) is an event scheduled
    at scheduled_at that reads the link at until; on Link it first
    retires (Link.retire). The outer events, the injections' and then the
    observers', are scheduled before the run in the permutation `order`.
    """
    sim = Simulator()
    link = link_cls(sim, LinkConfig(rate_bps=50_000_000, prop_delay=ms(1),
                                    buffer_pkts=buffer_pkts))
    occupancy, admitted, arrivals, readings = [], [], {}, []
    link.on_occupancy = lambda now, queued: occupancy.append((now, queued))
    for flow in (0, 1):
        _attach(link, flow,
                lambda pkt, now: arrivals.__setitem__(pkt.pkt_num, now))

    def departed():
        if isinstance(link, EagerLink):
            return list(link.departed)
        queued = {pkt.pkt_num for _departure, _seq, pkt in link.queue}
        return [num for num in admitted if num not in queued]

    def read():
        return (departed(), link.queued, list(occupancy),
                {flow: (c.departed, c.departed_bytes)
                 for flow, c in sorted(link.counters.items())})

    def observe(scheduled_at, now):
        if isinstance(link, Link):
            link.retire(now)
        readings.append((now, scheduled_at, read()))

    def inject(pkt, now):
        counters = link.counters[pkt.flow_id]
        dropped = counters.dropped
        link.enqueue(pkt, now)
        if counters.dropped == dropped:
            admitted.append(pkt.pkt_num)

    outer = []
    for num, (k, flow, lag) in enumerate(injections):
        at = k * TIE_UNIT
        pkt = Packet(flow, 0, TIE_LENGTHS[flow], num, sent_at=at)
        outer.append((max(0, at - lag),
                      lambda now, pkt=pkt, at=at: sim.schedule(
                          at, "packet-arrival", "bottleneck", inject, pkt)))
    for until, scheduled_at in observers:
        outer.append((scheduled_at,
                      lambda now, until=until: sim.schedule(
                          until, "app-start", "observer", observe, now)))
    for i in order:
        sim.schedule(outer[i][0], "app-start", "outer", outer[i][1])
    sim.run_until(seconds(1))
    if isinstance(link, Link):
        link.retire(sim.now)
    return admitted, arrivals, readings, read()


_observer = st.tuples(st.integers(0, 14), st.integers(0, 14),
                      st.sampled_from([-1, 0, 1])).map(
    lambda o: (o[0] * TIE_UNIT,
               min(o[0] * TIE_UNIT, max(0, o[1] * TIE_UNIT + o[2]))))


@given(st.integers(1, 2),
       st.lists(st.tuples(st.integers(0, 12), st.integers(0, 1),
                          st.sampled_from(TIE_LAGS)),
                min_size=1, max_size=14),
       st.lists(_observer, max_size=10),
       st.data())
@settings(max_examples=300, deadline=None)
def test_lazy_departures_match_a_departure_event_per_packet(
        buffer_pkts, injections, observers, data):
    # tied injection times, departures on the same grid, lags on and
    # around that grid, a buffer of one or two slots and outer events
    # scheduled in any order make every same-nanosecond ordering of an
    # enqueue, a departure and an observer happen; the lazy link must rank
    # each one as the eager link's events do
    order = data.draw(st.permutations(range(len(injections)
                                            + len(observers))))
    eager = _drive(EagerLink, buffer_pkts, injections, observers, order)
    lazy = _drive(Link, buffer_pkts, injections, observers, order)
    admitted, arrivals, readings, final = lazy
    assert admitted == eager[0]  # the same drops
    assert arrivals == eager[1]
    assert readings == eager[2]
    assert final == eager[3]
    assert final[0] == admitted  # FIFO, and every admitted packet departs
