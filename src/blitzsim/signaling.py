"""Client-to-server bandwidth hint: wire format and the oracle estimator.

The hint travels once, at connection establishment, as an opaque transport
parameter. Layout (big-endian), 6 bytes:

    version u8 (0x01) | access_tech u8 | bandwidth_kbps u32

bandwidth_kbps == 0 means "no estimate"; the receiving side falls back to
its regular startup. A field the server would read goes in under a new
version.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from fractions import Fraction

HINT_VERSION = 0x01
_WIRE = struct.Struct(">BBI")
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


class HintDecodeError(ValueError):
    """Structured decode failure; `reason` is one of the REASONS."""

    REASONS = ("truncated", "version", "access_tech", "trailing")

    def __init__(self, reason: str, detail: str = ""):
        assert reason in self.REASONS
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


def encode_hint(hint: BandwidthHint) -> bytes:
    if not 0 <= hint.bandwidth_kbps <= MAX_HINT_KBPS:
        raise ValueError(f"bandwidth_kbps out of range: {hint.bandwidth_kbps}")
    return _WIRE.pack(HINT_VERSION, int(hint.access_tech), hint.bandwidth_kbps)


def decode_hint(data: bytes) -> BandwidthHint:
    """Exact inverse of encode_hint for valid inputs.

    Raises HintDecodeError on anything else; never any other exception,
    whatever the input bytes are.
    """
    if len(data) < _WIRE.size:
        raise HintDecodeError("truncated",
                              f"{len(data)} bytes, need {_WIRE.size}")
    version, tech, kbps = _WIRE.unpack_from(data)
    if version != HINT_VERSION:
        raise HintDecodeError("version", f"0x{version:02x}")
    try:
        access = AccessTech(tech)
    except ValueError:
        raise HintDecodeError("access_tech", str(tech)) from None
    if len(data) != _WIRE.size:
        raise HintDecodeError("trailing", f"{len(data) - _WIRE.size} bytes")
    return BandwidthHint(access, kbps)


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
