import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blitzsim.checks import cubic_window
from blitzsim.congestion import (FLOOR_BYTES, CubicController, Mode,
                                 blitzstart_initial_cwnd, cubic_k_seconds,
                                 hystart_threshold, make_controller)
from blitzsim.engine import ms, seconds
from blitzsim.signaling import AccessTech, BandwidthHint

SEG = 1500


def acked(ctrl, nbytes, rtt=ms(50), now=0, largest_acked=0, largest_sent=0,
          srtt=None):
    ctrl.on_ack(nbytes, rtt, now, largest_acked, largest_sent, srtt=srtt)


# -- Slow Start ----------------------------------------------------------------

def test_slow_start_full_window_ack_doubles_cwnd():
    ctrl = CubicController()
    assert ctrl.cwnd == 32 * SEG
    acked(ctrl, 32 * SEG)
    assert ctrl.cwnd == 64 * SEG


def test_slow_start_increments_by_acked_bytes():
    ctrl = CubicController()
    acked(ctrl, 1350)
    assert ctrl.cwnd == 32 * SEG + 1350


def slow_start_round(samples):
    # a 50 ms minimum RTT, then one round of the given RTT samples
    ctrl = CubicController()
    acked(ctrl, SEG, rtt=ms(50), largest_acked=0, largest_sent=len(samples))
    for i, rtt in enumerate(samples):
        acked(ctrl, SEG, rtt=rtt, now=ms(60) + i, largest_acked=1 + i,
              largest_sent=len(samples))
    return ctrl


def test_exit_decision_on_inflated_round_minimum():
    # round minimum 57 ms against a 50 ms floor: delay growth, exit
    assert slow_start_round([ms(57)] * 16).mode is Mode.AVOIDANCE


def test_exit_decision_stays_without_delay_growth():
    assert slow_start_round([ms(50)] * 16).mode is Mode.SLOW_START


def test_exit_decision_needs_enough_samples():
    assert slow_start_round([ms(57)] * 7).mode is Mode.SLOW_START


def test_controller_exits_after_eight_inflated_samples():
    ctrl = CubicController()
    thr = hystart_threshold(ms(50), ctrl.hystart_floor)
    acked(ctrl, 3000, rtt=ms(50), largest_acked=1, largest_sent=16)
    for i in range(8):
        acked(ctrl, 3000, rtt=ms(50) + thr, now=ms(60) + i,
              largest_acked=2 + i, largest_sent=16)
    assert ctrl.mode is Mode.AVOIDANCE


def test_loss_in_slow_start_exits_with_beta_reduction():
    # loss at 100 segments: the window drops to 70 segments
    ctrl = CubicController()
    ctrl.cwnd = 100 * SEG
    ctrl.on_congestion_event(ms(200), lost_pkt_num=5, largest_sent_pkt=90)
    assert ctrl.congestion_events == 1
    assert ctrl.mode is Mode.RECOVERY
    assert ctrl.cwnd == 70 * SEG
    assert ctrl.w_max_segments == 100.0


# -- Cubic window ----------------------------------------------------------------

def test_cubic_k_for_100_segments():
    # cbrt(100 * 0.3 / 0.4) = cbrt(75) ~ 4.217 s
    k = cubic_k_seconds(100.0)
    assert k == pytest.approx(4.2172, abs=1e-3)


# cubic_window(w_max, t) is the cwnd the controller's on_ack sets t seconds
# after a cut from w_max segments, in bytes (truncated to the byte)

def test_cubic_window_at_plateau_equals_w_max():
    k = cubic_k_seconds(100.0)
    assert cubic_window(100.0, k) == pytest.approx(100 * SEG, abs=1)


def test_cubic_window_just_after_reduction_is_beta_w_max():
    assert cubic_window(100.0, 0.0) == pytest.approx(70 * SEG, abs=1)


def test_cubic_window_one_second_past_plateau():
    # 0.4 * 1^3 + 100 = 100.4 segments
    k = cubic_k_seconds(100.0)
    assert cubic_window(100.0, k + 1.0) == pytest.approx(100.4 * SEG, abs=1)


def test_cubic_shape_monotone_and_below_w_max_before_k():
    k = cubic_k_seconds(100.0)
    prev = None
    for i in range(200):
        t = i * (2 * k) / 199
        w = cubic_window(100.0, t)
        if prev is not None:
            assert w >= prev
        if t < k:
            assert w < 100 * SEG
        prev = w


# -- congestion events ------------------------------------------------------------

def test_congestion_event_applies_beta_and_remembers_peak():
    ctrl = CubicController()
    ctrl.cwnd = 200 * SEG
    ctrl.on_congestion_event(seconds(1), 10, 150)
    assert ctrl.congestion_events == 1
    assert ctrl.cwnd == 140 * SEG
    assert ctrl.w_max_segments == 200.0
    assert ctrl.cubic_k == pytest.approx(cubic_k_seconds(200.0))


def test_second_loss_in_same_round_does_not_reduce_again():
    ctrl = CubicController()
    ctrl.cwnd = 200 * SEG
    ctrl.on_congestion_event(seconds(1), 10, 150)
    cwnd = ctrl.cwnd
    ctrl.on_congestion_event(seconds(1), 20, 160)
    assert ctrl.cwnd == cwnd
    assert ctrl.congestion_events == 1


def test_new_round_loss_reduces_again():
    ctrl = CubicController()
    ctrl.cwnd = 200 * SEG
    ctrl.on_congestion_event(seconds(1), 10, 150)
    assert ctrl.congestion_events == 1
    ctrl.on_congestion_event(seconds(2), 151, 300)
    assert ctrl.congestion_events == 2


def test_cwnd_floor_is_two_segments():
    ctrl = CubicController()
    ctrl.cwnd = 2 * SEG
    ctrl.on_congestion_event(seconds(1), 10, 150)
    assert ctrl.cwnd == 2 * SEG


def test_recovery_ends_when_largest_in_flight_acked():
    ctrl = CubicController()
    ctrl.cwnd = 200 * SEG
    ctrl.on_congestion_event(seconds(1), 10, 150)
    acked(ctrl, 3000, now=seconds(1), largest_acked=149, largest_sent=180)
    assert ctrl.mode is Mode.RECOVERY
    acked(ctrl, 3000, now=seconds(1), largest_acked=150, largest_sent=180)
    assert ctrl.mode is Mode.AVOIDANCE


def test_fast_convergence_shaves_a_shrinking_peak():
    ctrl = CubicController()
    ctrl.cwnd = 200 * SEG
    ctrl.on_congestion_event(seconds(1), 10, 150)
    assert ctrl.w_max_segments == 200.0
    ctrl.cwnd = 160 * SEG  # lost again before regaining the old peak
    ctrl.on_congestion_event(seconds(3), 151, 300)
    assert ctrl.w_max_segments == pytest.approx(160 * (1 + 0.7) / 2)


def _reno_window(w_max_segments, t_seconds, srtt):
    # cubic_window's one ACK, given the srtt that turns on the Reno floor
    ctrl = CubicController()
    ctrl.cwnd = int(w_max_segments * SEG)
    ctrl.on_congestion_event(0, lost_pkt_num=0, largest_sent_pkt=0)
    ctrl.cwnd = FLOOR_BYTES
    ctrl.on_ack(SEG, None, seconds(t_seconds), 0, 0, srtt=srtt)
    return ctrl.cwnd


def test_reno_friendly_floor_grows_linearly():
    # with a 50 ms srtt the floor 70 + alpha * t / 0.05 segments passes the
    # cubic window of a 100-segment peak before K = 4.2 s: it is the window
    # at 3 s and 4 s, and it starts from beta * W_max
    srtt = ms(50)
    alpha = 3 * 0.3 / 1.7
    assert _reno_window(100.0, 0.0, srtt) == pytest.approx(70 * SEG, abs=1)
    w3, w4 = _reno_window(100.0, 3.0, srtt), _reno_window(100.0, 4.0, srtt)
    assert w3 > cubic_window(100.0, 3.0) and w4 > cubic_window(100.0, 4.0)
    assert w3 == pytest.approx((70 + 3 * alpha / 0.05) * SEG, abs=1)
    assert w4 - w3 == pytest.approx(alpha / 0.05 * SEG, abs=1)


# -- Blitzstart -------------------------------------------------------------------

def test_blitzstart_one_bdp_at_table_parameters():
    # 25 Mbit/s * 50 ms / 8 = 156250 bytes, about 104 segments
    cwnd = blitzstart_initial_cwnd(25_000, ms(50))
    assert cwnd == 156_250
    assert cwnd // SEG == 104


def test_blitzstart_four_x_overestimate():
    # 4 * 50 Mbit/s * 50 ms / 8 = 1.25 MB, about 833 segments
    cwnd = blitzstart_initial_cwnd(4 * 50_000, ms(50))
    assert cwnd == 1_250_000
    assert cwnd // SEG == 833


def test_blitzstart_clamps_to_floor():
    assert blitzstart_initial_cwnd(10, ms(1)) == 2 * SEG


def test_blitzstart_controller_starts_in_avoidance():
    ctrl = make_controller(BandwidthHint(AccessTech.DSL, 50_000), ms(50), 0)
    assert ctrl.mode is Mode.AVOIDANCE
    assert ctrl.mode_trace == [(0, Mode.AVOIDANCE)]  # from its creation
    assert ctrl.cwnd == 312_500
    # the scenario's floor, which only Slow Start reads, is carried along
    assert make_controller(BandwidthHint(AccessTech.DSL, 50_000), ms(50), 0,
                           hystart_floor=ms(9)).hystart_floor == ms(9)


def test_blitzstart_never_enters_slow_start():
    ctrl = make_controller(BandwidthHint(AccessTech.LTE, 32_000), ms(70), 0)
    rng_now = 0
    for i in range(200):
        rng_now += ms(10)
        if i % 17 == 3:
            ctrl.on_congestion_event(rng_now, i * 5, i * 5 + 40)
        acked(ctrl, 3000, rtt=ms(70 + (i % 7)), now=rng_now,
              largest_acked=i * 5, largest_sent=i * 5 + 40, srtt=ms(75))
        assert ctrl.mode is not Mode.SLOW_START
    assert all(m is not Mode.SLOW_START for _t, m in ctrl.mode_trace)


@given(hint_kbps=st.one_of(st.none(), st.integers(1, 200_000)),
       calls=st.lists(st.tuples(
           st.booleans(),                         # a loss, else an ACK
           st.integers(0, seconds(3)),            # time since the last call
           st.integers(0, 200_000),               # bytes newly acked
           st.one_of(st.none(), st.integers(1, seconds(1))),  # RTT sample
           st.integers(0, 400), st.integers(0, 400)), max_size=80))
@settings(max_examples=300, deadline=None)
def test_cwnd_never_drops_below_the_floor(hint_kbps, calls):
    # the baseline and Blitzstart alike: no ACK lowers cwnd, and a loss
    # cuts it to at least the floor, so a cubic target below the floor
    # never matters
    hint = (None if hint_kbps is None
            else BandwidthHint(AccessTech.DSL, hint_kbps))
    ctrl = make_controller(hint, ms(50), 0)
    assert ctrl.cwnd >= FLOOR_BYTES
    now = 0
    for loss, gap, nbytes, rtt, pkt, ahead in calls:
        now += gap
        if loss:
            ctrl.on_congestion_event(now, pkt, pkt + ahead)
        else:
            ctrl.on_ack(nbytes, rtt, now, pkt, pkt + ahead, srtt=rtt)
        assert ctrl.cwnd >= FLOOR_BYTES


def test_zero_hint_falls_back_to_baseline():
    ctrl = make_controller(BandwidthHint(AccessTech.UNKNOWN, 0), ms(50), 0)
    assert ctrl.mode is Mode.SLOW_START
    assert ctrl.mode_trace == []
    assert ctrl.cwnd == 32 * SEG


def test_missing_hint_falls_back_to_baseline():
    ctrl = make_controller(None, ms(50), 0)
    assert ctrl.mode is Mode.SLOW_START


def test_blitzstart_rejects_bad_config():
    for bandwidth_kbps, min_rtt in ((0, ms(50)), (50_000, 0)):
        with pytest.raises(ValueError):
            blitzstart_initial_cwnd(bandwidth_kbps, min_rtt)
    # a zero bandwidth is no hint, so only the min RTT reaches the formula
    with pytest.raises(ValueError):
        make_controller(BandwidthHint(AccessTech.DSL, 50_000), 0, 0)


@given(bw=st.integers(1, 16_000_000), rtt_ms=st.integers(1, 2_000))
@settings(max_examples=200, deadline=None)
def test_blitzstart_scaling_linearity(bw, rtt_ms):
    # linear in bandwidth and rtt up to the segment-floor clamp
    base = blitzstart_initial_cwnd(bw, ms(rtt_ms))
    doubled_bw = blitzstart_initial_cwnd(2 * bw, ms(rtt_ms))
    doubled_rtt = blitzstart_initial_cwnd(bw, ms(2 * rtt_ms))
    if base > FLOOR_BYTES:
        assert doubled_bw in (2 * base, 2 * base + 1)
        assert doubled_rtt in (2 * base, 2 * base + 1)
