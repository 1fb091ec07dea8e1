"""The benchmark's instrumentation still fits the program.

perfbench/instrument.py patches and reads simulator, transport, congestion
and harness names from outside. This runs one small cell, and two groups
of six variants that share a warm-up, with that instrumentation in a fresh
interpreter (the patches are process-wide), so a refactor that renames or
reshapes one of those names fails here.

The tracer also reads `Simulator.dispatched` from inside the short flow's
`Connection.start` to count the events before it, so the count must be
live during dispatch; and it counts events by the kind each callback was
scheduled with, so re-keyed timers must keep their callback. Both are
checked against the "event" rows a recorder takes from an untraced run.
Its ACK counts read `acked_ranges` off each ACK the sender handles, so they
must equal the sender's own count and see at least one range per ACK.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from collections import Counter
sys.path.insert(0, "perfbench")
import workloads
workloads.load_blitzsim()
from instrument import RunObjects, Tracer, snapshot
from blitzsim import harness

objs = RunObjects()
cell = (harness.PRESETS["dsl-fast"], harness.SIZES["70K"],
        harness.Variant(), 0)
untraced = harness.run_scenario(*cell)
plain, plain_errors = snapshot(objs.take())
recorder = harness.PacketTrace(only={"event"})
harness.run_scenario(*cell, recorder)
objs.take()
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
    "kinds": {key[len("events."):]: n
              for key, n in tracer.counts["cell"].items()
              if key.startswith("events.")},
    "trace_kinds": Counter(kind for _, _, _, kind, _ in recorder.rows),
    "prefix_events": tracer.counts["cell"]["prefix_events"],
    "acks": tracer.counts["cell"]["acks"],
    "ack_ranges": tracer.counts["cell"]["ack_ranges"],
    "short_start_index": next(
        i for i, (_, _, _, kind, target) in enumerate(recorder.rows)
        if (kind, target) == ("app-start", "conn:1")),
}))
"""


GROUP = """
import json, sys
sys.path.insert(0, "perfbench")
import workloads
workloads.load_blitzsim()
from instrument import RunObjects, Tracer, snapshot
from blitzsim import harness

objs = RunObjects()
cfg, size = harness.PRESETS["lte"], harness.SIZES["70K"]
variants = harness.default_variants()


def group(run, reps=(0,)):
    out = []
    for rep in reps:
        for variant in variants:
            run(variant, rep)
            conns = objs.take()
            counters, errors = snapshot(conns)
            out.append({"conns": len(conns), "counters": counters,
                        "errors": errors})
    return out


def new_cache():
    cache = harness._WarmUp
    cache.key, cache.requests, cache.keep_at, cache.run = None, 0, 1, None


cold = group(lambda v, rep: harness.TwoFlowRun(cfg, size, v, rep).run(),
             (0, 1))
forked = group(lambda v, rep: harness.run_scenario(cfg, size, v, rep), (0, 1))
kept = harness._WarmUp.run is not None
new_cache()
tracer = Tracer()
tracer.install()
traced = group(lambda v, rep: harness.run_scenario(cfg, size, v, rep))
print(json.dumps({"cold": cold, "forked": forked, "traced": traced,
                  "kept": kept, "kept_traced": harness._WarmUp.run is not None,
                  "requests": harness._WarmUp.requests}))
"""


def test_a_group_of_six_variants_is_counted_like_cold_runs():
    # Runs 2-6 of each group adopt a warm run's state, which a pickle
    # load builds without calling Connection.__init__; each run must
    # still build exactly two connections for RunObjects to find. With
    # the Tracer installed, its callback closures do not pickle, so
    # nothing is kept and every run is cold.
    proc = subprocess.run([sys.executable, "-c", GROUP], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["kept"] and not got["kept_traced"] and got["requests"] == 6
    assert (len(got["cold"]), len(got["forked"]), len(got["traced"])) == (
        12, 12, 6)
    for runs in (got["cold"], got["forked"], got["traced"]):
        assert all(run["conns"] == 2 for run in runs)
        assert all(run["errors"] == [] for run in runs)
    counters = [run["counters"] for run in got["cold"]]
    assert [run["counters"] for run in got["forked"]] == counters
    assert [run["counters"] for run in got["traced"]] == counters[:6]


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
    assert got["kinds"] == got["trace_kinds"]
    assert got["prefix_events"] == got["short_start_index"] > 0
    assert got["acks"] == got["counters"]["acks_received"]
    assert got["ack_ranges"] >= got["acks"] > 0


CHECK = """
import json, sys
sys.path.insert(0, "perfbench")
import run
out = sys.argv[1]
result = json.loads(open(out + "/result.json").read())
result["out"] = out
check = run.Checker("cli-matrix-jobs2", 1)
check.runs(result)
check.summary(result)
check.reruns(result)
print(json.dumps({"attempted": check.attempted, "failed": check.failed,
                  "rows_checked": check.rows_checked, "notes": check.notes}))
"""


def test_cli_matrix_jobs2_pass_is_correct(tmp_path):
    # The benchmark's only Pool workload fails when a Pool worker raises
    # (say, because a run no longer goes through the module global
    # harness.run_scenario its worker patches), when a run breaks a
    # snapshot invariant, when a runs.csv row or a summary row differs from
    # golden.json, when the determinism re-run differs from the pool run,
    # or when the seed-7 canary row differs. One pass, checked as the
    # benchmark checks it.
    out = tmp_path / "pass"
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload",
         "cli-matrix-jobs2", "--seed", "1", "--mode", "measure", "--out",
         str(out)], cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    proc = subprocess.run([sys.executable, "-c", CHECK, str(out)], cwd=REPO,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    got = json.loads(proc.stdout)
    assert got["failed"] == 0, got["notes"]
    assert got["attempted"] == got["rows_checked"] + 2 == 50
