"""One benchmark process: set up, run a workload's cells, report as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --rounds R \
        --mode {probe,measure,companion,trace} --out DIR

`run.py` launches this as a fresh interpreter, so interpreter start,
`import blitzsim` and building the run list all count as set-up.

- probe: stop at the start of the first simulated run.
- measure: the timed closed loop, then a determinism re-run and a canary
  run on a golden seed, both outside the timed region.
- companion: the untraced twin of a traced run; its timed region also
  covers summarize and CSV emission, like the traced one.
- trace: as companion, with the span recorder installed.

The result goes to DIR/result.json; CSVs go to DIR as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from instrument import RunObjects, Tracer, snapshot  # noqa: E402


class ProbeDone(Exception):
    """Raised at the first run's start in probe mode; carries the time."""


def task_key(task) -> str:
    cfg, size, variant, rep = task
    return f"{cfg.name},{size},{variant.label()},{rep}"


def task_from_key(key: str, seed: int):
    from dataclasses import replace
    from blitzsim.harness import PRESETS, Variant
    scenario, size, variant, rep = key.split(",")
    return (replace(PRESETS[scenario], seed_base=seed), int(size),
            Variant.parse(variant), int(rep))


def peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child)


def rerun(key: str, seed: int, objs: RunObjects, out: Path) -> dict:
    """Run one cell again, serially, and return its row and counters."""
    from blitzsim import harness
    res = harness.run_scenario(*task_from_key(key, seed))
    counters, errors = snapshot(objs.take())
    path = out / f"rerun-{seed}.csv"
    harness.emit_runs_csv([res], path)
    return {"seed": seed, "key": key, "row": workloads.csv_rows(path)[key],
            "counters": counters, "errors": errors}


def run_serial(wl, seed: int, rounds: int, mode: str, objs: RunObjects,
               tracer: Tracer | None, out: Path) -> dict:
    from blitzsim import harness
    tasks = [t for r in range(rounds) for t in wl.tasks(seed, r)]
    first_run_t = time.monotonic()
    speed = HostSpeed()
    if mode == "probe":
        return {"first_run_t": first_run_t, "speed": speed.burst()}
    runs, results = [], []
    clock = time.perf_counter
    region_start = clock()
    for i, task in enumerate(tasks):
        if mode == "measure":
            speed.maybe_sample()
        key = task_key(task)
        previous = tracer.begin_run(f"{i}:{key}") if tracer else None
        at = time.monotonic()
        t0 = clock()
        try:
            res = harness.run_scenario(*task)
        except Exception:
            traceback.print_exc()
            runs.append({"key": key, "ms": None, "errors": ["raised"]})
            objs.take()
            continue
        finally:
            if tracer:
                tracer.end_run(previous)
        ms = (clock() - t0) * 1e3
        counters, errors = snapshot(objs.take())
        results.append(res)
        runs.append({"key": key, "ms": ms, "at": at + ms / 2e3,
                     "pid": os.getpid(), "counters": counters,
                     "errors": errors})
    loop_s = clock() - region_start
    rss_kb = peak_rss_kb()
    if mode != "measure":  # the traced region also covers statistics
        harness.emit_summary_csv(results, out / "summary.csv")
    harness.emit_runs_csv(results, out / "runs.csv")
    region_s = clock() - region_start
    return {"first_run_t": first_run_t, "region_s": region_s,
            "busy_s": loop_s, "rss_kb": rss_kb, "runs": runs,
            "speed": speed.samples}


def run_cli(wl, seed: int, mode: str, objs: RunObjects,
            tracer: Tracer | None, out: Path) -> dict:
    """One `blitzsim run --jobs 2` call; run stats ride back on RunResult."""
    from blitzsim import cli, harness
    inner = harness.run_scenario
    clock = time.perf_counter

    speed = HostSpeed()

    def timed_run(cfg, size_bytes, variant, rep, trace=None):
        if mode == "probe":
            raise ProbeDone(time.monotonic())
        taken = len(speed.samples)
        if mode == "measure":
            speed.maybe_sample()
        start_t = time.monotonic()
        key = task_key((cfg, size_bytes, variant, rep))
        previous = tracer.begin_run(key) if tracer else None
        objs.take()
        t0 = clock()
        try:
            res = inner(cfg, size_bytes, variant, rep, trace)
        finally:
            if tracer:
                tracer.end_run(previous)
        ms = (clock() - t0) * 1e3
        counters, errors = snapshot(objs.take())
        res._perfbench = {"start_t": start_t, "key": key, "ms": ms,
                          "at": start_t + ms / 2e3, "pid": os.getpid(),
                          "counters": counters, "errors": errors,
                          "speed": speed.samples[taken:]}
        if tracer:
            res._perfbench["spans"] = tracer.runs.pop(key)
            res._perfbench["counts"] = dict(tracer.counts.pop(key))
        return res
    harness.run_scenario = timed_run

    captured: list = []
    pool = {}
    run_matrix = cli.run_matrix

    def capture(*args, **kwargs):
        t0 = clock()
        results = run_matrix(*args, **kwargs)
        pool["wall_s"] = clock() - t0
        captured.extend(results)
        return results
    cli.run_matrix = capture

    argv = workloads.cli_argv(seed, out)
    region_start = clock()
    try:
        rc = cli.main(argv)
    except ProbeDone as done:
        return {"first_run_t": done.args[0], "speed": speed.burst()}
    finally:
        harness.run_scenario, cli.run_matrix = inner, run_matrix
    region_s = clock() - region_start
    if rc != 0:
        raise RuntimeError(f"blitzsim {' '.join(argv)} exited with {rc}")
    rss_kb = peak_rss_kb()
    runs, samples = [], []
    for res in captured:
        info = res._perfbench
        samples += info.pop("speed")
        if tracer:
            tracer.runs[info["key"]] = info.pop("spans")
            tracer.counts[info["key"]] = info.pop("counts")
        runs.append(info)
    # the workers time the kernel inside the pass; take their share out
    region_s -= sum(s[1] for s in samples) / 1e3 / wl.jobs
    return {"first_run_t": min(r["start_t"] for r in runs),
            "region_s": region_s, "busy_s": pool["wall_s"], "rss_kb": rss_kb,
            "runs": runs, "speed": samples}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--mode", required=True,
                    choices=("probe", "measure", "companion", "trace"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    workloads.load_blitzsim()
    wl = workloads.WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    objs = RunObjects()
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    if wl.jobs == 1:
        result = run_serial(wl, args.seed, args.rounds, args.mode, objs,
                            tracer, args.out)
    else:
        result = run_cli(wl, args.seed, args.mode, objs, tracer, args.out)

    if args.mode == "measure":
        timed = [r for r in result["runs"] if r["ms"] is not None]
        fastest = min(timed, key=lambda r: r["ms"])["key"] if timed else None
        if fastest is not None:
            again = rerun(fastest, args.seed, objs, args.out)
            first = workloads.csv_rows(args.out / "runs.csv")[fastest]
            result["determinism"] = {
                "key": fastest,
                "ok": (again["row"] == first and not again["errors"]
                       and again["counters"] == next(
                           r["counters"] for r in timed if r["key"] == fastest))}
            canary_seed = (workloads.HELD_OUT_SEED
                           if args.seed == workloads.DEFAULT_SEED
                           else workloads.DEFAULT_SEED)
            result["canary"] = rerun(fastest, canary_seed, objs, args.out)
    if tracer:
        result["spans"] = tracer.runs
        result["counts"] = {k: dict(v) for k, v in tracer.counts.items()}
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
