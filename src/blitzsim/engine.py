"""Deterministic discrete-event simulation core.

The virtual clock is an integer nanosecond counter; all scheduling
arithmetic stays in exact integers so a run is reproducible bit for bit.
Events are totally ordered by (fire_at, scheduling sequence number).
"""

from __future__ import annotations

import hashlib
import heapq
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


# Passed as schedule()'s arg to bind a callback, not to schedule it.
BIND = object()


class Event:
    """A re-armable timer, made unarmed by Simulator.timer.

    (fire_at, seq) is the key the timer is armed at; seq is -1 while it
    is not armed, that is before its first arming and once it has fired
    or been cancelled. due is when it fires: arm sets it to fire_at, and
    its owner may move it later without a re-key, or to -1, which
    disarms it in place: its entry is dropped when it pops.
    """

    __slots__ = ("fire_at", "seq", "kind", "target", "fn", "due")

    def __init__(self, kind: str, target: str, fn: Callable):
        self.fire_at = self.seq = self.due = -1
        self.kind = kind
        self.target = target
        self.fn = fn


class Simulator:
    """Single-threaded event loop over an integer-nanosecond clock.

    The heap holds (fire_at, seq, fn, arg, kind, target) tuples, ordered
    by their unique (fire_at, seq) prefix. A fire-and-forget event is just
    its tuple, which schedule() pushes. The per-packet pushes (a packet's
    injection and arrival, an ACK's arrival) push the same tuple inline,
    taking seq = scheduled and counting it, with a callback their owner
    bound through schedule(..., BIND) when it was built. A timer's tuple
    has fn None and its Event as arg; a re-armed or cancelled timer
    leaves dead tuples behind, which run_until skips. A live timer tuple
    that pops before its Event's due is re-keyed to due instead of
    dispatched, and one whose due is negative is dropped.

    (now, seq) is the key of the event being dispatched, or of the last
    one if stop() ended run_until. Before the first dispatch seq is -1,
    before every key; once run_until returns without stop() it is past
    every key scheduled so far, as every event up to now has fired.
    scheduled counts the keys handed out, so it is also the next seq.
    An observer, if set, is handed each event run_until dispatches as the
    tuple (fire_at, seq, kind, target, fn, arg), and makes the call.
    """

    __slots__ = ("now", "seq", "_heap", "scheduled", "cancelled",
                 "dispatched", "_stop", "observer")

    def __init__(self):
        self.now: SimTime = 0
        self.seq = -1
        self._heap: list[tuple] = []
        self.scheduled = 0
        self.cancelled = 0
        self.dispatched = 0
        self._stop = False
        self.observer: Optional[Callable[[tuple], None]] = None

    def schedule(self, fire_at: SimTime, kind: str, target: str,
                 fn: Callable, arg: object = None) -> Optional[Callable]:
        """Schedule fn(now) (or fn(arg, now) when arg is given) at fire_at.

        The event cannot be cancelled, and nothing is returned for it.
        With arg=BIND nothing is scheduled or counted and fn is returned
        as given: an owner binds each callback it pushes itself, and each
        timer's (see timer()), this way once, when it is built. So a
        wrapper of schedule installed before that sees, and may replace,
        the callback of every event the simulator dispatches.
        """
        if arg is BIND:
            return fn
        if fire_at < self.now:
            raise RuntimeError(
                f"scheduled in the past: fire_at={fire_at} now={self.now}")
        seq = self.scheduled
        self.scheduled = seq + 1
        heapq.heappush(self._heap, (fire_at, seq, fn, arg, kind, target))
        return None

    def timer(self, kind: str, target: str, fn: Callable) -> Event:
        """A timer that calls fn(now) when it fires, not yet armed.

        A timer is one Event for its owner's lifetime: the owner makes it
        when it is built, and arms it with arm().
        """
        return Event(kind, target, self.schedule(self.now, kind, target, fn,
                                                 BIND))

    def arm(self, ev: Event, fire_at: SimTime) -> None:
        """(Re-)arm a timer at fire_at.

        Arming moves ev to fire_at exactly as cancel(ev) and a fresh
        arming would: ev takes the next sequence number and counts as
        scheduled, and its old key counts as cancelled if it was still
        armed. The old key's heap entry stays behind, dead. ev.due is
        fire_at.
        """
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

    def cancel(self, ev: Event) -> None:
        """Disarm a timer; nothing happens if it is not armed."""
        if ev.seq == -1:
            return
        ev.seq = -1
        self.cancelled += 1

    def stop(self) -> None:
        """Request the current run_until() call to return after this event."""
        self._stop = True

    def run_until(self, end: SimTime) -> None:
        """Dispatch every event with fire_at <= end.

        A live timer entry that pops before its Event's due is not
        dispatched, observed or counted: it moves to due with the next
        sequence number and counts as scheduled, as an arm() from its
        own callback would have. One whose due is negative, disarmed in
        place, is dropped: its Event is no longer armed, and nothing is
        dispatched, observed or counted, not even as cancelled.
        The clock finishes at `end`, even if the queue drains earlier.
        """
        self._stop = False
        heap, pop, observe = self._heap, heapq.heappop, self.observer
        while heap:
            if heap[0][0] > end:
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
            self.dispatched += 1
            if observe is not None:
                observe((fire_at, seq, kind, target, fn, arg))
            elif arg is None:
                fn(fire_at)
            else:
                fn(arg, fire_at)
            if self._stop:
                return
        self.seq = self.scheduled
        if end > self.now:
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
