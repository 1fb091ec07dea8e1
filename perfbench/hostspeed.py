"""Host-speed reference: a fixed pure-Python kernel timed between runs.

The machines this benchmark runs on are shared, and their speed drifts by
up to a factor of two within seconds to minutes; CPU time drifts with wall
time, so it does not help. Each measuring process therefore times this
kernel between runs, at most every tenth of a second and outside any timed
region, and scales each run's host time to a host on which one kernel pass
takes REFERENCE_MS. The kernel is part
of the benchmark, not of the program, so a change to the program moves the
scaled times exactly as it moves raw ones. It mixes what the simulator
does most (heap push and pop of tuples, dict stores, slotted objects,
small lists) and runs with the garbage collector paused, so no interpreter
setting the program might change alters it.
"""

from __future__ import annotations

import gc
import heapq
import os
import statistics
import time

REFERENCE_MS = 4.0   # one kernel pass on the reference host: a unit, not a target
EVERY_S = 0.1
NEAREST = 2          # the samples just before and just after a run


class _Event:
    __slots__ = ("at", "seq", "payload")

    def __init__(self, at: int, seq: int, payload: list):
        self.at = at
        self.seq = seq
        self.payload = payload


def kernel(n: int = 2500) -> int:
    heap: list = []
    table: dict = {}
    acc = 0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(n):
        ev = _Event((i * 7919) % 10007, i, [i, i + 1])
        push(heap, (ev.at, ev.seq, ev))
        table[i & 1023] = ev
        if len(heap) > 64:
            _, _, done = pop(heap)
            acc += done.payload[0] + len(table)
    return acc


class HostSpeed:
    """Kernel timings of one process, as (monotonic time, ms, pid) samples."""

    def __init__(self):
        self.samples: list[tuple[float, float, int]] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            ms = (time.perf_counter() - t0) * 1e3
        finally:
            if enabled:
                gc.enable()
        self.samples.append((time.monotonic(), ms, os.getpid()))

    def burst(self) -> list[tuple[float, float, int]]:
        """NEAREST back-to-back samples, for a process that runs nothing more."""
        for _ in range(NEAREST):
            self.sample()
        return self.samples

    def maybe_sample(self) -> None:
        if not self.samples or time.monotonic() - self.samples[-1][0] >= EVERY_S:
            self.sample()


def slowdown(samples: list, at: float, pid: int) -> float:
    """Slowness of process `pid` around monotonic time `at`.

    The median of its NEAREST samples in time, over REFERENCE_MS: 1.0 is
    the reference host, 2.0 a host running at half its speed. The host's
    speed changes within seconds, so wider windows track it worse.
    """
    own = [s for s in samples if s[2] == pid]
    near = sorted(own, key=lambda s: abs(s[0] - at))[:NEAREST]
    return statistics.median(s[1] for s in near) / REFERENCE_MS
