"""blitzsim: startup-phase congestion control experiments in simulation.

A deterministic discrete-event model of a QUIC-style transport on a
dumbbell bottleneck, with two congestion controllers: Cubic with Slow
Start, and a variant that skips Slow Start by seeding the congestion
window from a client-signalled bandwidth hint.
"""

from .congestion import (CubicController, Mode, blitzstart_initial_cwnd,
                         make_controller)
from .engine import SimTime, Simulator
from .harness import (PRESETS, SIZES, RunResult, ScenarioConfig, Variant,
                      aggregate, fairness_ratio, rolling_bandwidth,
                      run_matrix, run_scenario)
from .netmodel import Link, LinkConfig, Packet, link_utilization
from .signaling import (AccessTech, BandwidthHint, HintDecodeError,
                        decode_hint, encode_hint)
from .transport import Connection

__version__ = "0.1.0"

__all__ = [
    "AccessTech", "BandwidthHint", "Connection", "CubicController",
    "HintDecodeError", "Link", "LinkConfig", "Mode", "Packet", "PRESETS",
    "RunResult", "SIZES", "ScenarioConfig", "SimTime", "Simulator",
    "Variant", "aggregate", "blitzstart_initial_cwnd", "decode_hint",
    "encode_hint", "fairness_ratio", "link_utilization", "make_controller",
    "rolling_bandwidth", "run_matrix", "run_scenario",
]
