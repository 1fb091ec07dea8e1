"""The benchmark's instrumentation still fits the program.

perfbench/instrument.py patches and reads simulator, transport, congestion
and harness names from outside. This runs one small cell with that
instrumentation in a fresh interpreter (the patches are process-wide), so a
refactor that renames or reshapes one of those names fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import workloads
workloads.load_blitzsim()
from instrument import RunObjects, Tracer, snapshot
from blitzsim import harness

objs = RunObjects()
cell = (harness.PRESETS["dsl-fast"], harness.SIZES["70K"],
        harness.Variant("baseline"), 0)
untraced = harness.run_scenario(*cell)
plain, plain_errors = snapshot(objs.take())
tracer = Tracer()
tracer.install()
previous = tracer.begin_run("cell")
traced = harness.run_scenario(*cell)
tracer.end_run(previous)
counters, errors = snapshot(objs.take())
print(json.dumps({
    "same_result": traced == untraced,
    "plain": plain, "counters": counters,
    "errors": plain_errors + errors,
    "layers": sorted({name.split(":", 1)[0] for name in tracer.runs["cell"]}),
    "events": sum(n for key, n in tracer.counts["cell"].items()
                  if key.startswith("events.")),
}))
"""


def test_instrumented_cell_matches_untraced_run():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["errors"] == []
    assert got["same_result"]
    assert got["counters"] == got["plain"]
    assert {"engine", "netmodel", "transport", "congestion",
            "harness"} <= set(got["layers"])
    assert got["events"] == got["counters"]["events_dispatched"]
