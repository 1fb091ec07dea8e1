import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "design_metrics.py"


def test_design_metrics_prints_every_figure():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    figures = dict(line.split() for line in out.stdout.splitlines())
    assert set(figures) == {"src_lines", "src_prose_lines", "settable_values",
                            "dispatched_per_data_packet",
                            "cancelled_per_data_packet",
                            "calls_per_data_packet",
                            "c_calls_per_data_packet", "range_adds_per_ack",
                            "frozen_warm_run_bytes"}
    assert 0 < int(figures["src_prose_lines"]) < int(figures["src_lines"])
    # the values a caller or user can set: held to its figure, as the
    # per-packet budgets are, so that growth is a decision
    assert 0 < int(figures["settable_values"]) <= 237
    # a data packet's injection and arrival, an ACK's arrival per two
    # packets and the pacing timer: its departure is no event
    assert 2 < float(figures["dispatched_per_data_packet"]) < 3.5
    # the PTO and the ACK-delay timer are deadlines: an ACK re-keys or
    # cancels neither, so almost no timer key is given up
    assert 0 <= float(figures["cancelled_per_data_packet"]) <= 0.05
    # the per-packet call budgets; the counts are deterministic
    assert 0 < float(figures["calls_per_data_packet"]) <= 5.2
    # each try at an injection lag is one getrandbits call: at the default
    # 10 us jitter, 10,001 of 16,384 values of 14 bits are accepted, so a
    # lag takes about 1.64 calls, and the figure is about 13.76
    assert 0 < float(figures["c_calls_per_data_packet"]) <= 14
    # a sender adds about one range it did not hold per ACK
    assert 0 < float(figures["range_adds_per_ack"]) < 2
    # the warm copy a fork loads; deterministic, and compact since packets
    # pickle as their constructor's arguments and the generator as bytes
    assert 0 < int(figures["frozen_warm_run_bytes"]) <= 26_500
