"""The benchmark's four workloads: which matrix cells each runs, and why.

Every workload runs the built-in presets. The benchmark's `--seed` becomes
the scenarios' `seed_base`; the program only ever sees the generated
`ScenarioConfig`/`Variant` cells (or, for the CLI workload, the CLI
arguments that describe them).

A workload is executed in rounds. A round is the smallest group of cells
with the workload's full mix, so an execution of any length keeps the same
composition. The number of rounds follows from `--seconds` and a fixed
nominal round cost, so one `--seconds` value gives the same cells on every
commit, however fast it is.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = REPO_ROOT / ".bench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
REPS = 30            # the matrix's repetition count; rounds cycle through it
TAIL_BEYOND = 10     # run_ms.tail: highest percentile with this many runs above


class SourceMissing(RuntimeError):
    """The checkout has no `src/blitzsim` to measure."""


def has_sources() -> bool:
    return (SRC_DIR / "blitzsim" / "__init__.py").is_file()


def load_blitzsim():
    """Import blitzsim from this checkout's `src/`, never from elsewhere."""
    if not has_sources():
        raise SourceMissing(f"no blitzsim sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import blitzsim
    if Path(blitzsim.__file__).resolve().parent != SRC_DIR / "blitzsim":
        raise SourceMissing(f"blitzsim imported from {blitzsim.__file__}, "
                            f"not from {SRC_DIR}")
    return blitzsim


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str
    jobs: int
    round_s: float    # nominal host seconds per round: 2 cores, Python 3.11
    min_rounds: int   # keeps at least 21 runs, so the tail sits above p50

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.round_s))

    def tasks(self, seed: int, round_index: int) -> list:
        """(cfg, size_bytes, variant, rep) cells of one round."""
        from blitzsim.harness import PRESETS, SIZES, Variant, default_variants
        from dataclasses import replace
        presets = [replace(cfg, seed_base=seed) for cfg in PRESETS.values()]
        if self.name == "warmup-fanout":
            rep = round_index % REPS
            return [(cfg, SIZES["70K"], v, rep)
                    for cfg in presets for v in default_variants()]
        if self.name == "bulk-10M":
            size, even, odd = SIZES["10M"], "baseline", "blitz:1"
        elif self.name == "overshoot-loss":
            size, even, odd = SIZES["2M"], "blitz:3", "blitz:4"
        else:
            raise ValueError(f"{self.name} runs through the CLI, not as cells")
        first = (2 * round_index) % REPS
        return [(cfg, size, Variant.parse(even if rep % 2 == 0 else odd), rep)
                for rep in (first, first + 1) for cfg in presets]


CLI_REPS = 2  # the fewest repetitions for which summarize computes statistics


def cli_argv(seed: int, out: Path) -> list[str]:
    """The `blitzsim run` invocation of one cli-matrix-jobs2 pass."""
    return ["run", "--scenario", "all", "--size", "70K", "--variant", "all",
            "--reps", str(CLI_REPS), "--seed", str(seed), "--jobs", "2",
            "--out", str(out)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "warmup-fanout",
        "70K flows, six variants per (scenario, rep): 82-96% of events are "
        "the warm-up prefix all six variants share, so warm-up reuse works "
        "here",
        "closed loop, one serial caller", jobs=1, round_s=5.4, min_rounds=1),
    Workload(
        "bulk-10M",
        "10M flows, baseline and blitz:1 alternating by rep: the per-packet "
        "hot path with no shared prefix, so warm-up reuse is bypassed",
        "closed loop, one serial caller", jobs=1, round_s=10.4, min_rounds=4),
    Workload(
        "overshoot-loss",
        "2M flows with 3x and 4x overestimated hints: hundreds of losses and "
        "about 16 ACK ranges per ACK stress loss recovery and RangeSet",
        "closed loop, one serial caller", jobs=1, round_s=2.5, min_rounds=3),
    Workload(
        "cli-matrix-jobs2",
        "blitzsim run --jobs 2 on the 48-run 70K slice: the only path through "
        "the Pool, summarize, scipy import and CSV emission",
        "closed loop, 2 worker processes (one CLI call per pass)", jobs=2,
        round_s=7.0, min_rounds=1),
)}


def row_key(row: str) -> str:
    """`scenario,size_bytes,variant,rep` of one runs.csv row."""
    return ",".join(row.split(",", 4)[:4])


def csv_rows(path: Path) -> dict[str, str]:
    """The rows of a runs.csv, by row_key."""
    lines = path.read_text().splitlines()[1:]
    return {row_key(line): line for line in lines}
