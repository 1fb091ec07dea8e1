"""Golden result fingerprints of every workload, on two seeds.

    python3 perfbench/golden.py            # compare the program with golden.json
    python3 perfbench/golden.py --write    # regenerate golden.json

For each workload and for the default and the held-out seed, golden.json
keeps the sha256 of runs.csv over one full pass of the workload's cells
(all 30 repetitions; for cli-matrix-jobs2 one CLI pass, plus its
summary.csv), a digest of every row, a digest of every run's counters, and
the counter totals of the pass as reference counts. The simulator is
deterministic, so all of it must repeat bit for bit; a change that moves a
row changes the program's results. Counter digests may move under an
optimisation that changes how much work a run does; rows may not.
A full regeneration takes about 7 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from instrument import counters_digest, digest, totals  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORKER = Path(__file__).resolve().parent / "worker.py"
SEEDS = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)


@lru_cache(maxsize=1)
def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def lookup(workload: str, seed: int) -> dict | None:
    """Golden record of one workload on one seed, if there is one."""
    return _load()["workloads"].get(workload, {}).get(str(seed))


def summary_key(line: str) -> str:
    """`scenario,size_bytes,variant` of one summary.csv row."""
    return ",".join(line.split(",", 3)[:3])


def full_rounds(wl) -> int:
    if wl.jobs > 1:
        return 1
    return workloads.REPS if wl.name == "warmup-fanout" else workloads.REPS // 2


def fingerprint(name: str, seed: int) -> dict:
    """Run one full pass in a fresh worker and fingerprint its output."""
    wl = workloads.WORKLOADS[name]
    out = workloads.OUT_DIR / f"golden-{name}-seed{seed}"
    subprocess.run([sys.executable, str(WORKER), "--workload", name,
                    "--seed", str(seed), "--rounds", str(full_rounds(wl)),
                    "--mode", "companion", "--out", str(out)],
                   cwd=workloads.REPO_ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    result = json.loads((out / "result.json").read_text())
    runs_csv = (out / "runs.csv").read_text()
    counters = {r["key"]: r["counters"] for r in result["runs"]}
    record = {
        "runs_csv_sha256": hashlib.sha256(runs_csv.encode()).hexdigest(),
        "rows": {workloads.row_key(line): [digest(line),
                                           counters_digest(counters[workloads.row_key(line)])]
                 for line in runs_csv.splitlines()[1:]},
        "counters": totals(list(counters.values())),
    }
    if wl.jobs > 1:
        summary_csv = (out / "summary.csv").read_text()
        record["summary_csv_sha256"] = hashlib.sha256(
            summary_csv.encode()).hexdigest()
        record["summary_rows"] = {summary_key(line): digest(line)
                                  for line in summary_csv.splitlines()[1:]}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="regenerate golden.json instead of checking it")
    args = ap.parse_args(argv)
    jobs = [(name, seed) for name in workloads.WORKLOADS for seed in SEEDS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        records = list(pool.map(lambda job: fingerprint(*job), jobs))
    fresh = {"seeds": {"default": SEEDS[0], "held_out": SEEDS[1]},
             "workloads": {}}
    for (name, seed), record in zip(jobs, records):
        fresh["workloads"].setdefault(name, {})[str(seed)] = record
    if args.write:
        GOLDEN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    ok = True
    for name, seed in jobs:
        want, got = lookup(name, seed), fresh["workloads"][name][str(seed)]
        for field in ("runs_csv_sha256", "summary_csv_sha256", "counters"):
            if field not in want:
                continue
            same = want[field] == got.get(field)
            ok &= same or field == "counters"
            print(f"{name} seed {seed} {field}: "
                  f"{'match' if same else 'DIFFERS'}")
        bad = [k for k in want["rows"] if want["rows"][k][0] != got["rows"].get(k, [None])[0]]
        ok &= not bad
        print(f"{name} seed {seed} rows: {len(want['rows']) - len(bad)}"
              f"/{len(want['rows'])} match")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
