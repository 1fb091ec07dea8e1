import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blitzsim.engine import (NS_PER_MS, NS_PER_S, PacketTrace, Simulator,
                             derive_seed, ms, seconds, substream, us)


def test_event_at_current_time_dispatches_before_later_events():
    sim = Simulator()
    order = []
    sim.schedule(us(5), "loss-timer", "t", lambda now: order.append("later"))
    sim.schedule(0, "app-start", "t", lambda now: order.append("now"))
    sim.run_until(seconds(1))
    assert order == ["now", "later"]


def test_same_time_events_dispatch_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        sim.schedule(us(10), "pacing-timer", "t",
                     lambda now, t=tag: order.append(t))
    sim.run_until(None)
    assert order == ["a", "b", "c"]


def test_cancelled_event_never_dispatches():
    sim = Simulator()
    fired = []
    ev = sim.arm(None, us(5), "loss-timer", "t", lambda now: fired.append(1))
    assert sim.cancel(ev)
    sim.run_until(None)
    assert fired == []
    assert sim.cancelled == 1


def test_cancel_twice_counts_once():
    sim = Simulator()
    ev = sim.arm(None, us(5), "loss-timer", "t", lambda now: None)
    assert sim.cancel(ev)
    assert not sim.cancel(ev)
    assert sim.cancelled == 1


def test_arm_schedules_once_then_rekeys_the_same_event():
    sim = Simulator()
    fired = []
    ev = sim.arm(None, us(10), "loss-timer", "t", fired.append)
    assert ev.seq == 0
    assert sim.arm(ev, us(20), "loss-timer", "t", fired.append) is ev
    assert (sim.scheduled, sim.cancelled) == (2, 1)
    assert (ev.fire_at, ev.seq) == (us(20), 1)
    sim.run_until(None)
    assert fired == [us(20)] and ev.seq == -1  # fired, so not armed
    assert sim.arm(ev, us(30), "loss-timer", "t", fired.append) is ev
    assert sim.cancel(ev) and ev.seq == -1
    assert not sim.cancel(None)
    sim.run_until(None)
    assert fired == [us(20)]
    assert (sim.scheduled, sim.cancelled, sim.dispatched) == (3, 2, 1)


def test_schedule_returns_nothing_to_cancel():
    sim = Simulator()
    fired = []
    # the event's sequence number, which is no handle to cancel
    assert sim.schedule(us(5), "packet-arrival", "t",
                        lambda arg, now: fired.append((arg, now)), 7) == 0
    sim.run_until(None)
    assert fired == [(7, us(5))]
    assert (sim.scheduled, sim.cancelled, sim.dispatched) == (1, 0, 1)


def test_cancel_after_dispatch_is_noop():
    sim = Simulator()
    ev = sim.arm(None, us(5), "loss-timer", "t", lambda now: None)
    sim.run_until(None)
    assert not sim.cancel(ev)


def test_scheduling_in_the_past_is_a_hard_fault():
    sim = Simulator()
    sim.schedule(us(10), "app-start", "t", lambda now: None)
    sim.run_until(None)
    assert sim.now == us(10)
    with pytest.raises(RuntimeError):
        sim.schedule(us(5), "app-start", "t", lambda now: None)


def test_empty_queue_clock_advances_to_end():
    sim = Simulator()
    sim.run_until(seconds(1))
    assert sim.dispatched == 0
    assert sim.now == seconds(1)


def test_reentrant_scheduling_during_dispatch():
    sim = Simulator()
    hits = []

    def parent(now):
        hits.append(("parent", now))
        sim.schedule(us(20), "pacing-timer", "t",
                     lambda t: hits.append(("child", t)))

    sim.schedule(us(10), "pacing-timer", "t", parent)
    sim.run_until(seconds(1))
    assert sim.dispatched == 2
    assert hits == [("parent", us(10)), ("child", us(20))]


def test_run_until_honors_end_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(ms(1), "app-start", "t", lambda now: fired.append(1))
    sim.schedule(ms(3), "app-start", "t", lambda now: fired.append(2))
    sim.run_until(ms(2))
    assert fired == [1]
    assert sim.now == ms(2)
    sim.run_until(None)
    assert fired == [1, 2]


def test_stop_breaks_out_of_dispatch_loop():
    sim = Simulator()
    fired = []
    sim.schedule(us(1), "sim-end", "t", lambda now: sim.stop())
    sim.schedule(us(2), "app-start", "t", lambda now: fired.append(1))
    sim.run_until(None)
    assert fired == []
    assert sim.now == us(1)


def _random_workload(sim: Simulator, seed: int) -> list:
    rng = substream(seed, "workload")
    log = []

    def spawn(now):
        log.append(now)
        for _ in range(rng.randrange(0, 3)):
            delay = rng.randrange(1, 1000)
            ev = sim.arm(None, now + delay, "pacing-timer", "w", spawn)
            if rng.random() < 0.2:
                sim.cancel(ev)

    for i in range(20):
        sim.schedule(rng.randrange(0, 500), "app-start", "w", spawn)
    sim.run_until(ms(1))
    return log


def test_identical_seed_gives_identical_dispatch_trace():
    # derived oracle: record both traces, compare entry by entry
    sim_a, sim_b = Simulator(), Simulator()
    sim_a.recorder = PacketTrace(only={"event"})
    sim_b.recorder = PacketTrace(only={"event"})
    log_a = _random_workload(sim_a, 42)
    log_b = _random_workload(sim_b, 42)
    assert log_a == log_b
    assert sim_a.recorder.rows == sim_b.recorder.rows


def test_clock_monotonicity_over_random_workload():
    sim = Simulator()
    sim.recorder = PacketTrace(only={"event"})
    _random_workload(sim, 7)
    times = [t for t, *_ in sim.recorder.rows]
    assert times == sorted(times)


@given(st.lists(st.tuples(st.integers(0, 10_000), st.booleans()), max_size=60))
@settings(max_examples=50, deadline=None)
def test_no_event_loss(plan):
    # scheduled - cancelled = dispatched after draining the queue
    sim = Simulator()
    for fire_at, cancel in plan:
        ev = sim.arm(None, fire_at, "pacing-timer", "p", lambda now: None)
        if cancel:
            sim.cancel(ev)
    sim.run_until(None)
    assert sim.scheduled - sim.cancelled == sim.dispatched


_mixed_op = st.one_of(
    st.tuples(st.just("plain"), st.integers(0, 3)),
    st.tuples(st.just("timer"), st.integers(0, 3)),
    st.tuples(st.just("rekey"), st.integers(0, 7), st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
)


@given(st.lists(_mixed_op, max_size=40))
@settings(max_examples=200, deadline=None)
def test_plain_and_timer_entries_dispatch_in_fire_at_seq_order(program):
    # every schedule and arm takes the next sequence number, so the live
    # keys are known up front: every plain event's, and each uncancelled
    # timer's last one
    sim = Simulator()
    sim.recorder = PacketTrace(only={"event"})
    timers, live, plain = [], {}, []
    for op in program:
        seq = sim.scheduled
        if op[0] == "plain":
            sim.schedule(op[1], "packet-arrival", f"p{seq}", lambda now: None)
            plain.append((op[1], seq, f"p{seq}"))
        elif op[0] == "timer":
            i = len(timers)
            timers.append(sim.arm(None, op[1], "pacing-timer", f"t{i}",
                                  lambda now: None))
            live[i] = (op[1], seq, f"t{i}")
        elif not timers:
            continue
        elif op[0] == "rekey":
            i = op[1] % len(timers)
            sim.arm(timers[i], op[2], "pacing-timer", f"t{i}", None)
            live[i] = (op[2], seq, f"t{i}")
        else:
            i = op[1] % len(timers)
            sim.cancel(timers[i])
            live.pop(i, None)
    sim.run_until(None)
    got = [(fire_at, seq, target)
           for fire_at, seq, _event, _kind, target in sim.recorder.rows]
    assert got == sorted(plain + list(live.values()))
    assert sim.dispatched == len(got)
    assert sim.scheduled - sim.cancelled == sim.dispatched


def _arm(sim, handles, i, fire_at):
    ev = handles[i]
    handles[i] = sim.arm(ev, fire_at, ev.kind, ev.target, ev.fn)


def _cancel_and_arm(sim, handles, i, fire_at):
    """The reference re-key: cancel the timer and arm a fresh one."""
    if fire_at < sim.now:
        raise RuntimeError("scheduled in the past")
    ev = handles[i]
    sim.cancel(ev)
    handles[i] = sim.arm(None, fire_at, ev.kind, ev.target, ev.fn)


def _drive(program, reference=False):
    """Play an arm/cancel/re-key/postpone/disarm/run program.

    Returns what a run can observe. That includes which handles are armed,
    that is will fire, after each step, and when each callback ran against
    its timer's due. A postpone moves a timer's due later, and a disarm
    sets it to -1 in place. The reference re-keys by a cancel and a fresh
    arming, disarms by a cancel, and keeps each timer's due itself, as an
    owner without Event.due would: the callback of an entry that pops
    before it only re-arms to it. Those pops are left out of the
    reference's rows and dispatched count.
    """
    sim = Simulator()
    sim.recorder = PacketTrace(only={"event"})
    handles = []
    dues = []  # the reference's due of each handle
    armed = []
    rekeys = []  # (delay, raised) of every top-level re-key
    ran = []  # (handle, now, due) of every callback run
    rearmed = set()  # the reference's pops that only re-armed

    def rekey(i, fire_at):
        if reference:
            _cancel_and_arm(sim, handles, i, fire_at)
            dues[i] = fire_at
        else:
            _arm(sim, handles, i, fire_at)

    def callback(i, then):
        # the first time it fires, an event may re-key any event, itself
        # included; only once, so a zero delay cannot loop forever
        def fn(now):
            if reference and now < dues[i]:
                rearmed.add((now, sim.seq))
                _arm(sim, handles, i, dues[i])
                return
            ran.append((i, now, dues[i] if reference else handles[i].due))
            if then:
                j, delay = then.pop()
                rekey(j % len(handles), now + delay)
        return fn

    for op, a, b in program:
        if op == "schedule":
            i = len(handles)
            handles.append(sim.arm(None, sim.now + a, "loss-timer", f"e{i}",
                                   callback(i, [b] if b else [])))
            dues.append(sim.now + a)
        elif op == "run":
            sim.run_until(sim.now + a)
        elif handles and op == "cancel":
            sim.cancel(handles[a % len(handles)])
        elif handles and op == "postpone":
            i = a % len(handles)
            if reference:
                dues[i] += b
            elif handles[i].due >= 0:  # a disarmed timer has no due
                handles[i].due += b
        elif handles and op == "disarm":
            i = a % len(handles)
            if reference:
                sim.cancel(handles[i])
            else:
                handles[i].due = -1
        elif handles:
            try:
                rekey(a % len(handles), sim.now + b)
                rekeys.append((b, False))
            except RuntimeError:
                rekeys.append((b, True))
        armed.append([h.seq != -1 and h.due >= 0 for h in handles])
    sim.run_until(None)
    armed.append([h.seq != -1 and h.due >= 0 for h in handles])
    rows = [row for row in sim.recorder.rows if row[:2] not in rearmed]
    return (rows, sim.now, sim.scheduled, sim.cancelled,
            sim.dispatched - len(rearmed), armed, ran, rekeys)


_delay = st.integers(0, 6)  # short delays, so fire times tie often
_op = st.one_of(
    st.tuples(st.just("schedule"), _delay,
              st.none() | st.tuples(st.integers(0, 7), _delay)),
    st.tuples(st.just("cancel"), st.integers(0, 7), st.none()),
    st.tuples(st.just("rekey"), st.integers(0, 7), st.integers(-3, 8)),
    st.tuples(st.just("postpone"), st.integers(0, 7), _delay),
    st.tuples(st.just("disarm"), st.integers(0, 7), st.none()),
    st.tuples(st.just("run"), st.integers(0, 8), st.none()),
)


@given(st.lists(_op, max_size=60))
@settings(max_examples=300, deadline=None)
def test_reschedule_matches_cancel_then_schedule(program):
    got = _drive(program)
    want = _drive(program, reference=True)
    # a disarm counts no cancel, and neither does dropping its entry
    cancelled = 3
    assert got[:cancelled] + got[cancelled + 1:] == (
        want[:cancelled] + want[cancelled + 1:])
    if all(op != "disarm" for op, _a, _b in program):
        assert got[cancelled] == want[cancelled]
    else:
        assert got[cancelled] <= want[cancelled]
    # re-keying into the past is refused, and only that
    assert all(raised == (delay < 0) for delay, raised in got[-1])
    # no callback runs before its timer's due
    assert all(now >= due for _, now, due in got[-2])


def test_an_entry_popping_before_due_is_re_keyed_not_dispatched():
    sim = Simulator()
    sim.recorder = PacketTrace(only={"event"})
    fired = []
    ev = sim.arm(None, us(5), "loss-timer", "t", fired.append)
    assert ev.due == us(5)
    ev.due = us(8)
    sim.schedule(us(6), "app-start", "t", lambda now: None)  # seq 1
    sim.run_until(us(7))
    # popped at 5 us and moved to 8 us with the next seq, unrecorded
    assert fired == [] and (ev.fire_at, ev.seq) == (us(8), 2)
    assert (sim.scheduled, sim.cancelled, sim.dispatched) == (3, 0, 1)
    sim.run_until(None)
    assert fired == [us(8)] and ev.seq == -1
    assert [row[:2] for row in sim.recorder.rows] == [(us(6), 1), (us(8), 2)]
    ev.due = 0  # never later than the key: the timer fires at its key
    sim.arm(ev, us(9), "loss-timer", "t", None)
    assert ev.due == us(9)
    ev.due = 0
    sim.run_until(None)
    assert fired == [us(8), us(9)]


def test_an_entry_popping_with_a_negative_due_is_dropped():
    sim = Simulator()
    sim.recorder = PacketTrace(only={"event"})
    fired = []
    ev = sim.arm(None, us(5), "loss-timer", "t", fired.append)
    ev.due = -1  # disarmed in place: the entry stays on the heap
    assert ev.seq == 0
    sim.schedule(us(6), "app-start", "t", lambda now: None)  # seq 1
    sim.run_until(us(7))
    # popped at 5 us and dropped: not dispatched, recorded or counted
    assert fired == [] and ev.seq == -1 and sim._heap == []
    assert (sim.scheduled, sim.cancelled, sim.dispatched) == (2, 0, 1)
    assert [row[:2] for row in sim.recorder.rows] == [(us(6), 1)]
    assert not sim.cancel(ev)  # no longer armed
    # so the next arming pushes a fresh key, and gives up none
    sim.arm(ev, us(9), "loss-timer", "t", None)
    assert (ev.fire_at, ev.seq, ev.due) == (us(9), 2, us(9))
    assert [entry[:2] for entry in sim._heap] == [(us(9), 2)]
    assert (sim.scheduled, sim.cancelled) == (3, 0)
    sim.run_until(None)
    assert fired == [us(9)]
    assert [row[:2] for row in sim.recorder.rows] == [(us(6), 1), (us(9), 2)]


def test_seq_keys_the_event_being_dispatched():
    sim = Simulator()
    seen = []
    assert sim.seq == -1  # before the first dispatch: before every key
    sim.schedule(us(5), "app-start", "t", lambda now: seen.append(sim.seq))
    timer = sim.arm(None, us(5), "loss-timer", "t",
                    lambda now: seen.append(sim.seq))
    sim.arm(timer, us(5), "loss-timer", "t", None)  # re-keyed to seq 2
    sim.schedule(us(7), "app-start", "t", lambda now: sim.stop())
    sim.schedule(us(9), "app-start", "t", lambda now: None)
    sim.run_until(None)
    assert seen == [0, 2]
    assert (sim.now, sim.seq) == (us(7), 3)  # stop() keeps the stopping key
    sim.run_until(us(8))
    assert (sim.now, sim.seq) == (us(8), 5)  # past every key scheduled


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_substream_reproducible():
    a = [substream(9, "x").random() for _ in range(3)]
    b = [substream(9, "x").random() for _ in range(3)]
    assert a == b


def test_time_helpers():
    assert ms(50) == 50 * NS_PER_MS
    assert seconds(2) == 2 * NS_PER_S
    assert us(781.25) == 781_250
