"""Deterministic discrete-event simulation core.

The virtual clock is an integer nanosecond counter; all scheduling
arithmetic stays in exact integers so a run is reproducible bit for bit.
Events are totally ordered by (fire_at, scheduling sequence number).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Callable, Optional

SimTime = int  # nanoseconds since simulation start

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def us(n: float) -> SimTime:
    return int(n * NS_PER_US)


def ms(n: float) -> SimTime:
    return int(n * NS_PER_MS)


def seconds(n: float) -> SimTime:
    return int(n * NS_PER_S)


# Passed as schedule()'s arg by Simulator.arm on a timer's first arming.
TIMER = object()


class Event:
    """A re-armable timer, made by Simulator.arm.

    (fire_at, seq) is the key the timer is armed at; seq is -1 while it
    is not armed, that is once it has fired or been cancelled. due is
    when it fires: arm sets it to fire_at, and its owner may move it
    later without a re-key, or to -1, which disarms it in place: its
    entry is dropped when it pops.
    """

    __slots__ = ("fire_at", "seq", "kind", "target", "fn", "due")

    def __init__(self, fire_at: SimTime, seq: int, kind: str, target: str,
                 fn: Callable):
        self.fire_at = fire_at
        self.seq = seq
        self.kind = kind
        self.target = target
        self.fn = fn
        self.due = fire_at


class PacketTrace:
    """A Simulator's recorder: the rows of the kinds in `only`, in order.

    row[2] is the kind. "event" rows are (fire_at, seq, "event", kind,
    target); "send", "deliver", "drop" and "ack" rows (now, flow_id, kind,
    pkt_num, seq, len), an ACK's pkt_num being its largest acknowledged;
    "cwnd" rows (now, flow_id, "cwnd", cwnd, mode), after each ACK.
    """

    def __init__(self, only: set[str]):
        self.rows: list[tuple] = []
        self.only = only

    def __call__(self, row: tuple) -> None:
        if row[2] in self.only:
            self.rows.append(row)

    def deliveries(self, flow_id: int) -> list[tuple[SimTime, int]]:
        return [(row[0], row[5]) for row in self.rows
                if row[2] == "deliver" and row[1] == flow_id]


class Simulator:
    """Single-threaded event loop over an integer-nanosecond clock.

    The heap holds (fire_at, seq, fn, arg, kind, target) tuples, ordered
    by their unique (fire_at, seq) prefix. A fire-and-forget event is just
    its tuple. A timer's tuple has fn None and its Event as arg; a re-armed
    or cancelled timer leaves dead tuples behind, which run_until skips.
    A live timer tuple that pops before its Event's due is re-keyed to due
    instead of dispatched, and one whose due is negative is dropped.

    (now, seq) is the key of the event being dispatched, or of the last
    one if stop() ended run_until. Before the first dispatch seq is -1,
    before every key; once run_until returns without stop() it is past
    every key scheduled so far, as every event up to now has fired.
    scheduled counts the keys handed out, so it is also the next seq.
    """

    __slots__ = ("now", "seq", "_heap", "scheduled", "cancelled",
                 "dispatched", "_stop", "recorder")

    def __init__(self):
        self.now: SimTime = 0
        self.seq = -1
        self._heap: list[tuple] = []
        self.scheduled = 0
        self.cancelled = 0
        self.dispatched = 0
        self._stop = False
        self.recorder: Optional[PacketTrace] = None  # every layer's rows

    def schedule(self, fire_at: SimTime, kind: str, target: str,
                 fn: Callable, arg: object = None) -> int | Event:
        """Schedule fn(now) (or fn(arg, now) when arg is given) at fire_at.

        The event cannot be cancelled; its sequence number is returned.
        Only Simulator.arm passes arg=TIMER: the first arming of a timer,
        which schedule() builds and returns as an Event.
        """
        if fire_at < self.now:
            raise RuntimeError(
                f"scheduled in the past: fire_at={fire_at} now={self.now}")
        seq = self.scheduled
        self.scheduled = seq + 1
        if arg is TIMER:
            ev = Event(fire_at, seq, kind, target, fn)
            heapq.heappush(self._heap, (fire_at, seq, None, ev, kind, target))
            return ev
        heapq.heappush(self._heap, (fire_at, seq, fn, arg, kind, target))
        return seq

    def arm(self, ev: Optional[Event], fire_at: SimTime, kind: str,
            target: str, fn: Callable) -> Event:
        """(Re-)arm a timer: schedule it when ev is None, else re-key ev.

        A timer is one Event for its owner's lifetime. kind, target and fn
        are only read on the first arming, when they go to schedule().
        A re-key moves ev to fire_at exactly as cancel(ev) and a fresh
        arming would: ev takes the next sequence number and counts as
        scheduled, and its old key counts as cancelled if it was still
        armed. The old key's heap entry stays behind, dead. Either way
        ev.due is fire_at.
        """
        if ev is None:
            return self.schedule(fire_at, kind, target, fn, TIMER)
        if fire_at < self.now:
            raise RuntimeError(
                f"scheduled in the past: fire_at={fire_at} now={self.now}")
        seq = self.scheduled
        self.scheduled = seq + 1
        if ev.seq != -1:
            self.cancelled += 1
        ev.fire_at = ev.due = fire_at
        ev.seq = seq
        heapq.heappush(self._heap, (fire_at, seq, None, ev, ev.kind, ev.target))
        return ev

    def cancel(self, ev: Optional[Event]) -> bool:
        """Disarm a timer. Returns False if it is None or not armed."""
        if ev is None or ev.seq == -1:
            return False
        ev.seq = -1
        self.cancelled += 1
        return True

    def stop(self) -> None:
        """Request the current run_until() call to return after this event."""
        self._stop = True

    def run_until(self, end: Optional[SimTime]) -> None:
        """Dispatch every event with fire_at <= end (all events if None).

        A live timer entry that pops before its Event's due is not
        dispatched, recorded or counted: it moves to due with the next
        sequence number and counts as scheduled, as an arm() from its
        own callback would have. One whose due is negative, disarmed in
        place, is dropped: its Event is no longer armed, and nothing is
        dispatched, recorded or counted, not even as cancelled.
        The clock finishes at `end` when given, even if the queue drains
        earlier; with end=None it rests at the last dispatched event.
        """
        self._stop = False
        heap = self._heap
        pop = heapq.heappop
        record = self.recorder
        if record is not None and "event" not in record.only:
            record = None
        bound = math.inf if end is None else end  # one test per event
        while heap:
            if heap[0][0] > bound:
                break
            fire_at, seq, fn, arg, kind, target = pop(heap)
            if fn is None:  # a timer; arg is its Event
                ev = arg
                if seq != ev.seq:  # re-armed or cancelled since
                    continue
                due = ev.due
                if due > fire_at:  # postponed: re-key, do not dispatch
                    seq = self.scheduled
                    self.scheduled = seq + 1
                    ev.fire_at = due
                    ev.seq = seq
                    heapq.heappush(heap, (due, seq, None, ev, kind, target))
                    continue
                ev.seq = -1
                if due < 0:  # disarmed in place: drop it
                    continue
                fn = ev.fn
                arg = None
            self.now = fire_at
            self.seq = seq
            if record is not None:
                record((fire_at, seq, "event", kind, target))
            self.dispatched += 1
            if arg is None:
                fn(fire_at)
            else:
                fn(arg, fire_at)
            if self._stop:
                return
        self.seq = self.scheduled
        if end is not None and end > self.now:
            self.now = end


def derive_seed(base: int, *labels: object) -> int:
    """Stable 64-bit substream seed from a base seed and a label path.

    Hash-based so that streams for different (scenario, size, rep, role)
    tuples are independent, and identical inputs give identical streams on
    every platform.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(base).encode())
    for label in labels:
        h.update(b"|")
        h.update(str(label).encode())
    return int.from_bytes(h.digest(), "big")


def substream(base: int, *labels: object) -> random.Random:
    """A deterministic RNG stream for the given label path."""
    return random.Random(derive_seed(base, *labels))
