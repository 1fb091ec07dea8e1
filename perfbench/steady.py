"""Steadiness mode: run each workload on several seeds and report spreads.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs `run.py --trace 0` once per seed and workload, in order, and prints
for each end-to-end metric its median, first and third quartile
(`statistics.quantiles(n=4)`), and the spread (q3 - q1) / median next to
the metric's bound from BENCHMARK.json. A spread below a third of the
bound is steady; `setup_s` is exempt from the spread check, not from its
bound between two sets of runs. Also prints the percentile and sample
count that run_ms.tail resolved to. Raw values go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

SPEC = json.loads((workloads.REPO_ROOT / "BENCHMARK.json").read_text())
RUN = Path(__file__).resolve().parent / "run.py"


def one(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=workloads.REPO_ROOT, capture_output=True,
                          text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((workloads.OUT_DIR / f"result-{workload}-seed{seed}"
                          "-trace0.json").read_text())
    return {"seed": seed, "wall_s": wall, "result": result,
            "tail_percentile": details["tail_percentile"],
            "runs": details["runs"]}


def report(workload: str, rows: list[dict]) -> bool:
    steady = True
    print(f"\n{workload}: {len(rows)} runs, seeds "
          f"{rows[0]['seed']}..{rows[-1]['seed']}, "
          f"{statistics.fmean(r['wall_s'] for r in rows):.1f} s each")
    print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in rows]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        if name == "setup_s":
            verdict = "exempt"
        elif spread < metric["bound"] / 3:
            verdict = "steady"
        elif spread < metric["bound"]:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            steady = False
        print(f"  {name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.2%}{metric['bound']:>7.0%}  {verdict} "
              f"[{metric['unit']}]")
    pcts = sorted({round(r["tail_percentile"], 1) for r in rows})
    counts = sorted({r["runs"] for r in rows})
    print(f"  run_ms.tail resolved to p{pcts} over {counts} runs per execution")
    return steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    names = (list(workloads.WORKLOADS) if args.workloads == "all"
             else args.workloads.split(","))
    ok = True
    for name in names:
        rows = [one(name, seed) for seed in
                range(args.first_seed, args.first_seed + args.seeds)]
        workloads.OUT_DIR.mkdir(exist_ok=True)
        (workloads.OUT_DIR / f"steady-{name}.json").write_text(
            json.dumps(rows, indent=1))
        ok &= report(name, rows)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
