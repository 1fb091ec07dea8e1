"""Command line front end.

    blitzsim run        run experiment matrix cells, emit runs/summary CSVs
    blitzsim demo-fig1  two-flow startup study: rolling-bandwidth CSVs
    blitzsim validate   run the invariant suite
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import checks, harness
from .engine import NS_PER_MS, NS_PER_S, seconds
from .harness import (PRESETS, SIZES, PacketTrace, TwoFlowRun, Variant,
                      check_cells, default_variants, emit_runs_csv,
                      emit_summary_csv, parse_scenario_file, rolling_bandwidth,
                      run_matrix, single_flow_run, write_csv)

FIG1_HEADER = "time_us,flow_id,window_us,bps"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blitzsim",
        description="Congestion-control startup experiments on a simulated "
                    "dumbbell bottleneck.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run matrix cells")
    run_p.add_argument("--scenario", default="all",
                       help="scenario name or 'all' "
                            f"(names: {', '.join(PRESETS)})")
    run_p.add_argument("--size", default="all",
                       help="70K, 2M, 10M, or 'all'")
    run_p.add_argument("--variant", default="all",
                       help="baseline, blitz:<factor>, or 'all'")
    run_p.add_argument("--reps", type=int, default=30)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    run_p.add_argument("--scenario-file", default=None,
                       help="key = value file describing a single cell")
    run_p.add_argument("--trace", action="store_true",
                       help="also write per-run packet trace CSVs")

    demo = sub.add_parser("demo-fig1",
                          help="startup traces: lone flow, then a flow "
                               "entering a saturated bottleneck")
    demo.add_argument("--out", default="out")
    demo.add_argument("--seed", type=int, default=1)
    demo.add_argument("--top-duration-s", type=float, default=2.0)
    demo.add_argument("--bottom-duration-s", type=float, default=90.0)

    val = sub.add_parser("validate", help="run the invariant suite")
    val.add_argument("--seed", type=int, default=1)
    return parser


def _cells(args: argparse.Namespace) -> tuple[list, list, list]:
    """(scenarios, sizes, variants) the arguments select; ValueError if bad."""
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.scenario_file:
        cfg, size, variant = parse_scenario_file(Path(args.scenario_file))
        scenarios, sizes, variants = [cfg], [size], [variant]
    else:
        if args.scenario == "all":
            scenarios = list(PRESETS.values())
        elif args.scenario in PRESETS:
            scenarios = [PRESETS[args.scenario]]
        else:
            raise ValueError(f"unknown scenario {args.scenario!r}")
        if args.size == "all":
            sizes = list(SIZES.values())
        elif args.size in SIZES:
            sizes = [SIZES[args.size]]
        else:
            raise ValueError(f"unknown size {args.size!r}")
        if args.variant == "all":
            variants = default_variants()
        else:
            variants = [Variant.parse(args.variant)]
    check_cells(scenarios, sizes, variants)
    return scenarios, sizes, variants


def _out_dir(command: str, out: str) -> Path | None:
    """The --out directory, made if missing, or None, said on stderr."""
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"blitzsim {command}: cannot make the --out directory {out}: "
              f"{exc.strerror}", file=sys.stderr)
        return None
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenarios, sizes, variants = _cells(args)
    except ValueError as exc:
        print(f"blitzsim run: {exc}", file=sys.stderr)
        return 2
    scenarios = [replace(cfg, seed_base=args.seed) for cfg in scenarios]
    out = _out_dir("run", args.out)
    if out is None:
        return 2

    def progress(done: int, n: int) -> None:
        if done % 50 == 0 or done == n:
            print(f"\r{done}/{n} runs", end="", file=sys.stderr, flush=True)

    results = run_matrix(scenarios, sizes, variants, args.reps,
                         jobs=args.jobs, progress=progress,
                         trace_dir=out if args.trace else None)
    print(file=sys.stderr)
    # runs.csv reads such a run as a timeout; only this line tells them apart
    unstarted = sum(1 for r in results if r.short_start_at is None)
    if unstarted:
        print(f"{unstarted} of {len(results)} runs never started the short "
              "flow", file=sys.stderr)

    emit_runs_csv(results, out / "runs.csv")
    emit_summary_csv(results, out / "summary.csv")
    timeouts = sum(1 for r in results if r.timeout)
    print(f"{len(results)} runs ({timeouts} timeouts) -> "
          f"{out / 'runs.csv'}, {out / 'summary.csv'}")
    return 0


def _cmd_demo_fig1(args: argparse.Namespace) -> int:
    cfg = replace(PRESETS["dsl-fast"], seed_base=args.seed)
    for flag, value in (("--top-duration-s", args.top_duration_s),
                        ("--bottom-duration-s", args.bottom_duration_s)):
        if not 1 <= value * NS_PER_S < math.inf:  # NaN fails it too
            print(f"blitzsim demo-fig1: {flag} must be a finite duration of "
                  f"at least 1 ns, got {value}", file=sys.stderr)
            return 2
    top_end = seconds(args.top_duration_s)
    bottom_end = seconds(args.bottom_duration_s)
    try:
        bottom_cfg = replace(cfg, sim_cap=bottom_end)
    except ValueError as exc:
        print(f"blitzsim demo-fig1: --bottom-duration-s "
              f"{args.bottom_duration_s:g} is too short: {exc}",
              file=sys.stderr)
        return 2
    out = _out_dir("demo-fig1", args.out)
    if out is None:
        return 2
    rtt = cfg.rtt

    # lone flow on an idle link: exponential startup, then avoidance
    trace = PacketTrace(only={"deliver"})
    single_flow_run(cfg, 1 << 30, top_end, trace)
    write_csv(out / "fig1_top.csv", FIG1_HEADER,
              ((t // 1000, 0, rtt // 1000, f"{bps:.1f}") for t, bps
               in rolling_bandwidth(trace.deliveries(0), rtt, top_end)))

    # second flow entering a bottleneck the first flow has saturated
    run = TwoFlowRun(bottom_cfg, 1 << 30, Variant("baseline"), 0,
                     stop_on_completion=False)
    dtrace = PacketTrace(only={"deliver"})
    run.run(dtrace)
    write_csv(out / "fig1_bottom.csv", FIG1_HEADER,
              ((t // 1000, flow, window // 1000, f"{bps:.1f}")
               for flow in (harness.LONG_FLOW, harness.SHORT_FLOW)
               for window in (rtt, NS_PER_S)
               for t, bps in rolling_bandwidth(dtrace.deliveries(flow),
                                               window, bottom_end)))
    start = run.short_conn.start_at
    start_ms = "n/a" if start is None else start // NS_PER_MS
    print(f"fig1_top.csv and fig1_bottom.csv written to {out} "
          f"(second flow entered at {start_ms} ms)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    ok = checks.run_all(seed=args.seed)
    print("validate:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "demo-fig1":
        return _cmd_demo_fig1(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
