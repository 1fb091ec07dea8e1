"""Congestion controllers: Cubic with Slow Start, and Blitzstart.

Blitzstart skips Slow Start entirely: the congestion window is seeded from
a client-signalled bandwidth estimate times the minimum RTT (the
bandwidth-delay product) and the connection begins directly in congestion
avoidance. An overestimated window comes from an overestimated hint.

Cubic windows are computed in segments and seconds and converted to bytes
at the boundary. cwnd never drops below two segments.
"""

from __future__ import annotations

import enum
from typing import Optional

from .engine import NS_PER_MS, NS_PER_S, SimTime
from .netmodel import SEGMENT_WIRE_BYTES
from .signaling import BandwidthHint


class Mode(enum.Enum):
    SLOW_START = "slow-start"
    AVOIDANCE = "congestion-avoidance"
    RECOVERY = "recovery"


# for on_ack: 3.11 does not specialize a member read through EnumType
_SLOW_START, _RECOVERY = Mode.SLOW_START, Mode.RECOVERY


# fractions of the RTT a window is paced over, as (numerator, denominator)
PACE_SLOW_START = (1, 2)
PACE_AVOIDANCE = (3, 4)


CUBIC_C = 0.4         # segments per second cubed
CUBIC_BETA = 0.7      # multiplicative decrease
INITIAL_WINDOW_SEGMENTS = 32
INITIAL_BURST_PACKETS = 10  # sent back to back before pacing takes over
FLOOR_BYTES = 2 * SEGMENT_WIRE_BYTES  # cwnd never drops below this
INITIAL_WINDOW_BYTES = INITIAL_WINDOW_SEGMENTS * SEGMENT_WIRE_BYTES


def cubic_k_seconds(w_max_segments: float) -> float:
    """Time to return to w_max after a multiplicative decrease."""
    return (w_max_segments * (1.0 - CUBIC_BETA) / CUBIC_C) ** (1.0 / 3.0)


# additive increase, in segments per RTT, of the Reno-friendly floor
RENO_ALPHA = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)


# Slow Start delay-exit calibration: a sample counts as delay-inflated when
# it exceeds the minimum RTT by max(floor, min_rtt/HYSTART_DIVISOR), and
# CubicController leaves Slow Start as soon as it has counted HYSTART_SAMPLES
# such samples within one round. Calibrated so a lone flow exits while the
# bottleneck's rolling utilization is still below capacity (detection lags
# the first queueing by a full round trip, so the threshold must catch the
# early transient queue) while a flow entering a busy bottleneck still exits
# within its first round.
# On slow links a few packets of pacing granularity already produce several
# milliseconds of delay noise, so deployments raise the floor to a handful
# of serialization times (see ScenarioConfig.hystart_floor).
HYSTART_FLOOR = 2 * NS_PER_MS
HYSTART_DIVISOR = 25
HYSTART_SAMPLES = 8
# serialization times a calibrated floor tolerates: one initial burst's
# worth of self-queueing (the burst parks burst-1 packets behind the first)
HYSTART_FLOOR_PKTS = 9


def hystart_threshold(min_rtt: SimTime, floor: SimTime = HYSTART_FLOOR) -> SimTime:
    return max(floor, min_rtt // HYSTART_DIVISOR)


def blitzstart_initial_cwnd(bandwidth_kbps: int, min_rtt: SimTime) -> int:
    """Bandwidth-delay product in bytes, floored, at least the cwnd floor.

    Exact: every input is an integer.
    """
    if bandwidth_kbps <= 0:
        raise ValueError("bandwidth must be positive")
    if min_rtt <= 0:
        raise ValueError("min_rtt must be positive")
    cwnd = bandwidth_kbps * 1000 * min_rtt // (8 * NS_PER_S)
    return max(cwnd, FLOOR_BYTES)


class CubicController:
    """Cubic congestion avoidance with pluggable startup.

    Baseline: Slow Start (cwnd += acked bytes) with the HYSTART_*
    delay-increase exit above and loss exit. Blitzstart: begins in
    congestion avoidance at the hinted BDP and can never enter Slow Start.
    """

    __slots__ = ("hystart_floor", "mode", "pacing_fraction", "cwnd",
                 "w_max_segments", "epoch_start", "cubic_k",
                 "recovery_until_pkt_num", "started_in_avoidance", "_min_rtt",
                 "_round_end_pkt", "_round_exceed_count", "congestion_events",
                 "mode_trace")

    def __init__(self, hystart_floor: SimTime = HYSTART_FLOOR):
        self.hystart_floor = hystart_floor
        self.mode = Mode.SLOW_START
        # the fraction of the RTT a window is paced over, set with the mode:
        # half the RTT in Slow Start, three quarters afterwards
        self.pacing_fraction = PACE_SLOW_START
        self.cwnd = INITIAL_WINDOW_BYTES
        self.w_max_segments = 0.0
        self.epoch_start: SimTime = 0
        self.cubic_k = 0.0           # seconds
        self.recovery_until_pkt_num = -1
        self.started_in_avoidance = False
        # slow-start round bookkeeping
        self._min_rtt: Optional[SimTime] = None
        self._round_end_pkt = 0
        self._round_exceed_count = 0
        self.congestion_events = 0
        self.mode_trace: list[tuple[SimTime, Mode]] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def blitzstart(cls, bandwidth_kbps: int, min_rtt: SimTime,
                   now: SimTime) -> "CubicController":
        """Skip Slow Start: window = hinted BDP, mode = congestion avoidance.

        Raises ValueError on a non-positive bandwidth or min RTT.
        """
        ctrl = cls()
        ctrl.cwnd = blitzstart_initial_cwnd(bandwidth_kbps, min_rtt)
        ctrl.started_in_avoidance = True
        ctrl._enter_avoidance_at_plateau(now)
        return ctrl

    # -- state transitions --------------------------------------------------

    def _set_mode(self, mode: Mode, now: SimTime) -> None:
        if mode is not self.mode:
            self.mode = mode
            self.pacing_fraction = (PACE_SLOW_START if mode is Mode.SLOW_START
                                    else PACE_AVOIDANCE)
            self.mode_trace.append((now, mode))

    def _enter_avoidance_at_plateau(self, now: SimTime) -> None:
        # Entry without a reduction (Slow Start exit, Blitzstart init).
        # K is computed from the formula shared with reduction epochs; the
        # window is never cut here (growth below applies max against the
        # current cwnd), so the effect is a flat plateau of K seconds at
        # the entry window followed by convex probing.
        self.w_max_segments = self.cwnd / SEGMENT_WIRE_BYTES
        self.cubic_k = cubic_k_seconds(self.w_max_segments)
        self.epoch_start = now
        self._set_mode(Mode.AVOIDANCE, now)

    def on_ack(self, newly_acked_bytes: int, rtt_sample: Optional[SimTime],
               now: SimTime, largest_acked_pkt: int, largest_sent_pkt: int,
               srtt: Optional[SimTime] = None) -> None:
        if rtt_sample is not None:
            if self._min_rtt is None or rtt_sample < self._min_rtt:
                self._min_rtt = rtt_sample
        mode = self.mode
        if mode is _SLOW_START:
            self.cwnd += newly_acked_bytes
            if rtt_sample is None:
                return
            if largest_acked_pkt >= self._round_end_pkt:
                self._round_end_pkt = largest_sent_pkt + 1
                self._round_exceed_count = 0
            if rtt_sample >= self._min_rtt + hystart_threshold(
                    self._min_rtt, self.hystart_floor):
                self._round_exceed_count += 1
                if self._round_exceed_count >= HYSTART_SAMPLES:
                    self._enter_avoidance_at_plateau(now)
            return
        if mode is _RECOVERY:
            if largest_acked_pkt >= self.recovery_until_pkt_num:
                self._set_mode(Mode.AVOIDANCE, now)
            else:
                return
        if newly_acked_bytes > 0:
            # t into the epoch, the window grows to the cubic
            # W(t) = C*(t - K)^3 + W_max segments or, given an srtt, to the
            # Reno-friendly floor W_max*beta + alpha*t/srtt if that is
            # larger. The floor keeps small windows growing where the cubic
            # term idles on its plateau; without it short flows stall for
            # seconds, then probe explosively.
            t = (now - self.epoch_start) / NS_PER_S
            w_max = self.w_max_segments
            w = CUBIC_C * (t - self.cubic_k) ** 3 + w_max
            target = int(w * SEGMENT_WIRE_BYTES)
            if target < FLOOR_BYTES:
                target = FLOOR_BYTES
            if srtt is not None and srtt > 0:
                est = w_max * CUBIC_BETA + RENO_ALPHA * t / (srtt / NS_PER_S)
                est_bytes = int(est * SEGMENT_WIRE_BYTES)
                if est_bytes > target:
                    target = est_bytes
            if target > self.cwnd:
                self.cwnd = target

    def on_congestion_event(self, now: SimTime, lost_pkt_num: int,
                            largest_sent_pkt: int) -> bool:
        """Multiplicative decrease, at most once per round trip.

        Losses of packets sent before the current recovery period began do
        not trigger another reduction. A flow whose peak is shrinking
        remembers a further-reduced peak (fast convergence), which is what
        lets competing flows drift toward a fair share. Returns whether a
        reduction applied.
        """
        if lost_pkt_num <= self.recovery_until_pkt_num:
            return False
        self.congestion_events += 1
        peak = self.cwnd / SEGMENT_WIRE_BYTES
        if peak < self.w_max_segments:
            self.w_max_segments = peak * (1.0 + CUBIC_BETA) / 2.0
        else:
            self.w_max_segments = peak
        self.cwnd = max(FLOOR_BYTES, int(self.cwnd * CUBIC_BETA))
        self.cubic_k = cubic_k_seconds(self.w_max_segments)
        self.epoch_start = now
        self.recovery_until_pkt_num = largest_sent_pkt
        self._set_mode(Mode.RECOVERY, now)
        return True


def make_controller(hint: Optional[BandwidthHint], min_rtt: SimTime,
                    now: SimTime,
                    hystart_floor: SimTime = HYSTART_FLOOR) -> CubicController:
    """Controller selection as the server would do it.

    A missing or unusable hint (no estimate, zero bandwidth) selects the
    baseline Slow Start controller; a usable one selects Blitzstart, sized
    with the handshake's min-RTT sample.
    """
    if hint is None or hint.bandwidth_kbps <= 0:
        return CubicController(hystart_floor)
    return CubicController.blitzstart(hint.bandwidth_kbps, min_rtt, now)
