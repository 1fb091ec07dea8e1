import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blitzsim.checks import check_decode_totality
from blitzsim.signaling import (AccessTech, BandwidthHint, HintDecodeError,
                                OracleEstimator, decode_hint, encode_hint)

# -- wire format: exact bytes ----------------------------------------------------

def test_encode_dsl_50mbit_no_rtt():
    wire = encode_hint(BandwidthHint(AccessTech.DSL, 50_000))
    assert wire == bytes.fromhex("0102 0000c350".replace(" ", ""))
    assert len(wire) == 6


def test_encode_empty_hint():
    wire = encode_hint(BandwidthHint(AccessTech.UNKNOWN, 0))
    assert wire == bytes.fromhex("010000000000")


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_hint(BandwidthHint(AccessTech.DSL, 1 << 32))
    with pytest.raises(ValueError):
        encode_hint(BandwidthHint(AccessTech.DSL, -1))


# -- decoding ---------------------------------------------------------------------

def test_roundtrip_simple():
    for hint in (BandwidthHint(AccessTech.CABLE, 123_456),
                 BandwidthHint(AccessTech.WIFI, 1),
                 BandwidthHint(AccessTech.THREE_G, 0xFFFFFFFF)):
        assert decode_hint(encode_hint(hint)) == hint


def test_truncated_input_raises_structured_error():
    wire = encode_hint(BandwidthHint(AccessTech.DSL, 50_000))
    with pytest.raises(HintDecodeError, match="^truncated: 5 bytes, need 6$"):
        decode_hint(wire[:5])


def test_wrong_version_rejected():
    wire = bytearray(encode_hint(BandwidthHint(AccessTech.DSL, 50_000)))
    wire[0] = 0x02
    with pytest.raises(HintDecodeError, match="^version: 0x02$"):
        decode_hint(bytes(wire))


def test_unknown_access_tech_rejected():
    wire = bytearray(encode_hint(BandwidthHint(AccessTech.DSL, 50_000)))
    wire[1] = 0x07
    with pytest.raises(HintDecodeError, match="^access_tech: 7$"):
        decode_hint(bytes(wire))


def test_trailing_bytes_rejected():
    wire = encode_hint(BandwidthHint(AccessTech.DSL, 50_000))
    # the earlier layouts: a flags byte, then min_rtt_us when bit 0 is set
    for blob, extra in ((wire + b"\x00", 1),
                        (wire + bytes.fromhex("01 00011170"), 5)):
        with pytest.raises(HintDecodeError,
                           match=f"^trailing: {extra} bytes$"):
            decode_hint(blob)


hints = st.builds(
    BandwidthHint,
    access_tech=st.sampled_from(list(AccessTech)),
    bandwidth_kbps=st.integers(0, 0xFFFFFFFF),
)


@given(hints)
@settings(max_examples=500, deadline=None)
def test_roundtrip_property(hint):
    assert decode_hint(encode_hint(hint)) == hint


@given(st.binary(max_size=64))
@settings(max_examples=500, deadline=None)
def test_decode_totality(blob):
    # arbitrary input either decodes or raises the structured error,
    # never anything else
    try:
        hint = decode_hint(blob)
        assert isinstance(hint, BandwidthHint)
    except HintDecodeError:
        pass


def test_validate_decode_totality_decodes_some_inputs():
    # half its inputs are valid hints with one byte edited, so some decode
    ok, detail = check_decode_totality(seed=2)
    assert ok
    decoded = int(detail.split("(")[1].split()[0])
    assert 0 < decoded < 100_000


# -- estimators ---------------------------------------------------------------------

def test_oracle_half_of_true_bandwidth():
    assert OracleEstimator(0.5).estimate(50_000) == 25_000


def test_oracle_exact_at_one():
    assert OracleEstimator(1.0).estimate(8_000) == 8_000


def test_oracle_rejects_nonpositive_factor():
    with pytest.raises(ValueError):
        OracleEstimator(0.0)


@given(factor=st.sampled_from([0.5, 1.0, 1.5, 3.0, 4.0]),
       true_kbps=st.integers(1, 10_000_000))
@settings(max_examples=300, deadline=None)
def test_oracle_linearity_exact(factor, true_kbps):
    # exactness: factor times true value with no float drift
    from fractions import Fraction
    est = OracleEstimator(factor).estimate(true_kbps)
    assert est == int(Fraction(factor) * true_kbps)
