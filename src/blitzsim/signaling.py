"""Client-to-server bandwidth hint: wire format and the oracle estimator.

The hint travels once, at connection establishment, as an opaque transport
parameter. Layout (big-endian):

    version u8 (0x01) | access_tech u8 | bandwidth_kbps u32 |
    flags u8 (bit0: min_rtt present) | [min_rtt_us u32]

7 bytes without the RTT sample, 11 with it. bandwidth_kbps == 0 means
"no estimate"; the receiving side falls back to its regular startup.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

HINT_VERSION = 0x01
_FLAG_MIN_RTT = 0x01
MAX_HINT_KBPS = 0xFFFFFFFF  # the u32 bandwidth_kbps field


class AccessTech(enum.IntEnum):
    UNKNOWN = 0
    ETHERNET = 1
    DSL = 2
    CABLE = 3
    WIFI = 4
    THREE_G = 5
    LTE = 6


@dataclass(frozen=True)
class BandwidthHint:
    access_tech: AccessTech = AccessTech.UNKNOWN
    bandwidth_kbps: int = 0
    min_rtt_us: Optional[int] = None

    def is_usable(self) -> bool:
        return self.bandwidth_kbps > 0


class HintDecodeError(ValueError):
    """Structured decode failure; `reason` is one of the REASONS."""

    REASONS = ("truncated", "version", "access_tech", "flags", "trailing")

    def __init__(self, reason: str, detail: str = ""):
        assert reason in self.REASONS
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


def encode_hint(hint: BandwidthHint) -> bytes:
    if not 0 <= hint.bandwidth_kbps <= MAX_HINT_KBPS:
        raise ValueError(f"bandwidth_kbps out of range: {hint.bandwidth_kbps}")
    flags = 0
    if hint.min_rtt_us is not None:
        if not 0 <= hint.min_rtt_us <= 0xFFFFFFFF:
            raise ValueError(f"min_rtt_us out of range: {hint.min_rtt_us}")
        flags |= _FLAG_MIN_RTT
    out = struct.pack(">BBIB", HINT_VERSION, int(hint.access_tech),
                      hint.bandwidth_kbps, flags)
    if hint.min_rtt_us is not None:
        out += struct.pack(">I", hint.min_rtt_us)
    return out


def decode_hint(data: bytes) -> BandwidthHint:
    """Exact inverse of encode_hint for valid inputs.

    Raises HintDecodeError on anything else; never any other exception,
    whatever the input bytes are.
    """
    if len(data) < 7:
        raise HintDecodeError("truncated", f"{len(data)} bytes, need 7")
    version, tech, kbps, flags = struct.unpack(">BBIB", data[:7])
    if version != HINT_VERSION:
        raise HintDecodeError("version", f"0x{version:02x}")
    try:
        access = AccessTech(tech)
    except ValueError:
        raise HintDecodeError("access_tech", str(tech)) from None
    if flags & ~_FLAG_MIN_RTT:
        raise HintDecodeError("flags", f"0x{flags:02x}")
    min_rtt = None
    expected_len = 7
    if flags & _FLAG_MIN_RTT:
        expected_len = 11
        if len(data) < 11:
            raise HintDecodeError("truncated", f"{len(data)} bytes, need 11")
        (min_rtt,) = struct.unpack(">I", data[7:11])
    if len(data) != expected_len:
        raise HintDecodeError("trailing", f"{len(data) - expected_len} bytes")
    return BandwidthHint(access, kbps, min_rtt)


@dataclass(frozen=True)
class OracleEstimator:
    """Scales the true bottleneck bandwidth by a fixed factor.

    The factor is applied exactly (as a rational), so 0.5x of 50000 kbps
    is 25000 kbps, not 24999.999.
    """

    factor: float

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("oracle factor must be positive")

    def estimate(self, true_kbps: int) -> int:
        return int(Fraction(self.factor) * true_kbps)
