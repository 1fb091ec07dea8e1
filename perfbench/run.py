"""blitzsim benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it prints the end-to-end metrics, each by name and unit,
then one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the metrics are the per-layer ones, from a traced run of
one round next to an untraced twin of the same round.

Every run's results are checked: against the golden per-row digests in
golden.json when the seed has them, and always against the program's
invariants, a determinism re-run and a canary run on a golden seed. Any
failure makes the exit code 1. Details and spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden  # noqa: E402
import workloads  # noqa: E402
from hostspeed import slowdown  # noqa: E402
from instrument import (counters_digest, digest, layer_self,  # noqa: E402
                        merge, totals)

SPEC = json.loads((workloads.REPO_ROOT / "BENCHMARK.json").read_text())
PROBES = 4          # extra processes launched only to time set-up
DEADLINE_S = 170    # a whole execution stays under the 180 s limit
WORKER = Path(__file__).resolve().parent / "worker.py"

EVENT_KINDS = ("packet-arrival", "packet-departure", "pacing-timer",
               "loss-timer", "app-start", "sim-end")


class WorkerFailed(RuntimeError):
    pass


class Execution:
    """The worker processes of one benchmark execution."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload, self.seed = workload, seed
        self.dir = workloads.OUT_DIR / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0

    def launch(self, mode: str, rounds: int = 1) -> tuple[float, dict]:
        """Run one worker; returns its launch time and result."""
        self.count += 1
        out = self.dir / f"{self.count}-{mode}"
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--rounds", str(rounds),
               "--mode", mode, "--out", str(out)]
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workloads.REPO_ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S} s limit")
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited with {proc.returncode}:\n"
                               f"{err[-4000:]}")
        result = json.loads((out / "result.json").read_text())
        result["out"] = str(out)
        return launched, result

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND runs above it."""
    ordered = sorted(values)
    n = len(ordered)
    i = max(0, n - 1 - workloads.TAIL_BEYOND)
    return ordered[i], 100.0 * (i + 1) / n


class Checker:
    """Counts failed runs against the number attempted."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.rows_checked = 0
        self.counters_repeat = True
        self.notes: list[str] = []

    def fail(self, note: str, n: int = 1) -> None:
        self.failed += n
        self.notes.append(note)

    def runs(self, result: dict) -> None:
        rows = workloads.csv_rows(Path(result["out"]) / "runs.csv")
        ref = golden.lookup(self.workload, self.seed)
        for run in result["runs"]:
            self.attempted += 1
            key = run["key"]
            if run["ms"] is None or key not in rows:
                self.fail(f"{key}: raised or no runs.csv row")
                continue
            if run["errors"]:
                self.fail(f"{key}: {'; '.join(run['errors'])}")
                continue
            if rows[key].rsplit(",", 1)[1] == "1":
                self.fail(f"{key}: hit the virtual-time cap")
                continue
            if ref is None:
                continue
            self.rows_checked += 1
            row_d, counters_d = ref["rows"].get(key, (None, None))
            if digest(rows[key]) != row_d:
                self.fail(f"{key}: runs.csv row differs from golden")
            if counters_digest(run["counters"]) != counters_d:
                self.counters_repeat = False

    def summary(self, result: dict) -> None:
        ref = golden.lookup(self.workload, self.seed)
        if ref is None or "summary_rows" not in ref:
            return
        path = Path(result["out"]) / "summary.csv"
        got = {golden.summary_key(line): digest(line)
               for line in path.read_text().splitlines()[1:]}
        bad = [k for k, d in ref["summary_rows"].items() if got.get(k) != d]
        bad += [k for k in got if k not in ref["summary_rows"]]
        if bad:
            self.fail(f"summary.csv rows differ from golden: {bad[:3]}", len(bad))

    def reruns(self, result: dict) -> None:
        self.attempted += 2
        if "determinism" not in result:
            self.fail("no run completed, so nothing was re-run", 2)
            return
        det = result["determinism"]
        if not det["ok"]:
            self.fail(f"{det['key']}: re-run differs from the first run")
        canary = result["canary"]
        ref = golden.lookup(self.workload, canary["seed"])
        if ref is None or ref["rows"].get(canary["key"], [None])[0] != digest(canary["row"]):
            self.fail(f"{canary['key']} seed {canary['seed']}: canary row "
                      "differs from golden")


def scaled_ms(res: dict) -> list[tuple[float, float]]:
    """(raw, host-speed scaled) ms of each run that completed."""
    return [(r["ms"], r["ms"] / slowdown(res["speed"], r["at"], r["pid"]))
            for r in res["runs"] if r["ms"] is not None]


def end_to_end(ex: Execution, wl, seconds: int, check: Checker) -> tuple[dict, dict]:
    setups, raw_setups = [], []

    def setup(launched: float, res: dict) -> None:
        raw = res["first_run_t"] - launched
        raw_setups.append(raw)
        setups.append(raw / slowdown(res["speed"], res["first_run_t"],
                                     res["speed"][0][2]))

    for _ in range(PROBES):
        setup(*ex.launch("probe"))
    passes, rounds = ((wl.rounds(seconds), 1) if wl.jobs > 1
                      else (1, wl.rounds(seconds)))
    mains = []
    for _ in range(passes):
        launched, res = ex.launch("measure", rounds)
        setup(launched, res)
        mains.append(res)
    for res in mains:
        check.runs(res)
        check.summary(res)
        check.reruns(res)

    raw, ms, spent = [], [], 0.0
    for res in mains:
        pairs = scaled_ms(res)
        raw += [p[0] for p in pairs]
        ms += [p[1] for p in pairs]
        if wl.jobs > 1:  # the clock runs until both CSVs are written
            spent += res["region_s"] * sum(p[1] for p in pairs) / sum(p[0] for p in pairs)
    if wl.jobs == 1:
        spent = sum(ms) / 1e3
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "runs_per_s": len(ms) / spent,
        "run_ms.p50": statistics.median(ms),
        "run_ms.tail": tail_ms,
        "peak_rss_mb": max(res["rss_kb"] for res in mains) / 1024,
        "setup_s": statistics.median(setups),
    }
    details = {
        "runs": len(ms), "tail_percentile": tail_pct,
        "host_slowdown": statistics.median(r / s for r, s in zip(raw, ms)),
        "unscaled": {"run_ms.p50": statistics.median(raw),
                     "run_ms.tail": tail(raw)[0],
                     "setup_s": statistics.median(raw_setups)},
        "setup_samples": setups,
        "counters": totals([r["counters"] for res in mains
                            for r in res["runs"] if r["ms"] is not None]),
        "run_ms": [(r["key"], r["ms"], r["at"], r["pid"])
                   for res in mains for r in res["runs"]],
        "speed": [res["speed"] for res in mains],
    }
    return metrics, details


def per_layer(ex: Execution, wl, check: Checker) -> tuple[dict, dict]:
    _, plain = ex.launch("companion")
    _, traced = ex.launch("trace")
    for res in (plain, traced):
        check.runs(res)
        check.summary(res)
    plain_counters = [r["counters"] for r in plain["runs"]]
    traced_counters = [r["counters"] for r in traced["runs"]]
    if plain_counters != traced_counters:
        check.fail("tracing changed the simulated counters")
    c = totals(traced_counters)

    spans: dict = {}
    counts: dict = {}
    for run_id, agg in traced["spans"].items():
        merge(spans, agg)
        for name, n in traced["counts"].get(run_id, {}).items():
            counts[name] = counts.get(name, 0) + n
    selfs = layer_self(spans)

    def total(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    run_s = sum(r["ms"] for r in plain["runs"]) / 1e3
    # With 2 workers the spans of both fill 2 x wall seconds. The CLI
    # entry's own time is no layer metric, so it stays in the remainder.
    capacity = wl.jobs * traced["region_s"]
    unattributed = capacity - sum(s for layer, s in selfs.items()
                                  if layer != "cli")
    emit_s = (total("harness:emit_runs_csv") + total("harness:emit_summary_csv")
              - total("harness:summarize"))
    m = {
        "engine.self_s": selfs["engine"],
        "engine.events_dispatched": c["events_dispatched"],
        "engine.events_scheduled": c["events_scheduled"],
        "engine.events_cancelled": c["events_cancelled"],
        "engine.cancel_ratio": c["events_cancelled"] / c["events_scheduled"],
        "engine.events_per_s": c["events_dispatched"] / run_s,
    }
    for kind in EVENT_KINDS:
        m[f"engine.events.{kind}"] = counts.get(f"events.{kind}", 0)
    m.update({
        "netmodel.self_s": selfs["netmodel"],
        "netmodel.enqueued": c["link_injected"] - c["link_dropped"],
        "netmodel.dropped": c["link_dropped"],
        "netmodel.drop_ratio": c["link_dropped"] / c["link_injected"],
        "netmodel.max_queued": c["link_max_queued"],
        "transport.self_s": selfs["transport"],
        "transport.on_ack_s": total("transport:Connection.on_ack"),
        "transport.maybe_send_s": total("transport:Connection.maybe_send"),
        "transport.pkts_sent": c["pkts_sent"],
        "transport.acks": c["acks_received"],
        "transport.pto_fires": calls("transport:Connection._on_pto"),
        "transport.rangeset_add_s": total("transport:RangeSet.add"),
        "transport.ranges_per_ack": counts.get("ack_ranges", 0) / max(1, counts.get("acks", 0)),
        "transport.lost_pkts": c["lost_pkts"],
        "transport.goodput_ratio": c["short_size"] / c["short_payload_sent"],
        "transport.records_retained": c["records_retained"],
        "congestion.self_s": selfs["congestion"],
        "congestion.on_ack_calls": calls("congestion:CubicController.on_ack"),
        "congestion.events": c["congestion_events"],
        "congestion.mode_changes": c["mode_changes"],
        "signaling.self_s": selfs["signaling"],
        "signaling.hint_roundtrips": calls("signaling:decode_hint"),
        "harness.self_s": selfs["harness"],
        "harness.prefix_event_share": counts.get("prefix_events", 0) / c["events_dispatched"],
        "harness.run_overhead_s": (total("harness:run_scenario")
                                   - total("engine:Simulator.run_until")),
        "harness.summarize_s": total("harness:summarize"),
        "harness.emit_s": emit_s,
        "harness.pool_idle_s": wl.jobs * plain["busy_s"] - run_s,
        "trace.overhead_ratio": traced["region_s"] / plain["region_s"],
        "trace.wall_s": traced["region_s"],
        "trace.unattributed_s": unattributed,
    })
    details = {
        "layer_self_s": selfs, "capacity_s": capacity,
        "unattributed_s": unattributed, "spans": spans, "counts": counts,
        "counters": c,
    }
    spans_file = workloads.OUT_DIR / f"spans-{wl.name}-seed{ex.seed}.json"
    spans_file.write_text(json.dumps({"runs": traced["spans"],
                                      "counts": traced["counts"]}))
    return m, details


def print_layers(details: dict) -> None:
    selfs = dict(details["layer_self_s"])
    cli_s = selfs.pop("cli")
    print(f"  {'layer self time':<24}{'s':>10}")
    for layer, s in selfs.items():
        print(f"  {layer:<24}{s:>10.4f}")
    print(f"  {'unattributed':<24}{details['unattributed_s']:>10.4f}"
          f"   (of which the cli entry: {cli_s:.4f})")
    print(f"  {'= jobs x traced wall':<24}{details['capacity_s']:>10.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return max(main(["--workload", name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)])
                   for name in workloads.WORKLOADS)
    if not workloads.has_sources():
        print(f"perfbench: no blitzsim sources under {workloads.SRC_DIR}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    ex = Execution(wl.name, args.seed, args.trace)
    check = Checker(wl.name, args.seed)
    print(f"workload {wl.name}: {wl.why}")
    print(f"  loop: {wl.loop}; seed {args.seed} -> seed_base {args.seed}")
    try:
        if args.trace:
            metrics, details = per_layer(ex, wl, check)
        else:
            metrics, details = end_to_end(ex, wl, args.seconds, check)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        ex.cleanup()

    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    failed_frac = check.failed / check.attempted
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<30} {failed_frac:>14.6g} "
          f"({check.failed}/{check.attempted} runs)")
    if not args.trace:
        print(f"  run_ms.tail is p{details['tail_percentile']:.1f} of "
              f"{details['runs']} runs")
        raw = details["unscaled"]
        print(f"  times are scaled to the reference host (slowdown "
              f"{details['host_slowdown']:.2f}); unscaled: run_ms.p50 "
              f"{raw['run_ms.p50']:.1f}, run_ms.tail {raw['run_ms.tail']:.1f}, "
              f"setup_s {raw['setup_s']:.4f}")
    else:
        print_layers(details)
    ref = golden.lookup(wl.name, args.seed)
    if ref:
        print(f"  golden rows checked: {check.rows_checked}; counters repeat "
              f"exactly: {check.counters_repeat}")
    else:
        print(f"  no golden rows for seed {args.seed}; checked by invariants"
              + ("" if args.trace else
                 ", a determinism re-run and a canary run on a golden seed"))
    for note in check.notes[:20]:
        print(f"  FAIL {note}")
    details.update(metrics=metrics, failed_frac=failed_frac,
                   counters_repeat=check.counters_repeat if ref else None,
                   notes=check.notes)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    (workloads.OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1))

    correct = check.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
