"""The benchmark's workloads: which CLI commands each runs, on what input.

Every workload is closed-loop with one client: a command starts only
after the previous one has exited.  Its input is one synthetic counts CSV
that set-up generates with ``oficast synth`` from the workload seed, and
the same seed is passed to the commands as ``--seed``.  Argument lists
here omit the ``python -m oficast.cli`` prefix; output paths are relative
to the working directory each pass gets of its own.
"""
from __future__ import annotations

from dataclasses import dataclass

#: Cells in the default hybrid grid: lags 1,2,5,10 x 5 architectures x
#: relu,tanh,sigmoid x adam,sgd.
SWEEP_CELLS = 4 * 5 * 3 * 2
#: Cells of the grid restricted to lag 1.  They are the first 30 cells of
#: the full grid, with the same cell seeds, so their rows must match.
PREFIX_CELLS = 5 * 3 * 2
SWEEP_OUT = "sweep.csv"

FIT_FRACTION = "0.02"
BUNDLE_DIR = "model"
PREDICTIONS = "preds.csv"
COMPARISON = "compare.csv"
THRESHOLD = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "forecast"
    rows: int  # length of the synthetic input series
    workers: int = 1  # sweep process pool size
    why: str = ""

    def setup_argv(self, seed: int, out: str) -> list[str]:
        return ["synth", "--out", out, "--length", str(self.rows), "--seed", str(seed)]

    def commands(self, seed: int, counts: str) -> list[list[str]]:
        if self.kind == "sweep":
            return [sweep_argv(seed, counts, self.workers)]
        return [
            ["fit", "--data", counts, "--out", BUNDLE_DIR,
             "--train-fraction", FIT_FRACTION, "--epochs", "10", "--seed", str(seed)],
            ["predict", "--bundle", BUNDLE_DIR, "--data", counts,
             "--out", PREDICTIONS, "--eval-start", FIT_FRACTION],
            ["evaluate", PREDICTIONS, "--labels", "synthetic/hybrid", "--out", COMPARISON],
        ]


def sweep_argv(seed: int, counts: str, workers: int, extra=()) -> list[str]:
    return [
        "sweep", "--datasets", counts, "--out", SWEEP_OUT, "--epochs", "10",
        "--workers", str(workers), "--seed", str(seed), *extra,
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-serial", "sweep", 500, workers=1,
            why="120-cell hybrid sweep on one 500-row series, one worker: "
            "FNN training at batch size 8 is about 95% of the time",
        ),
        Workload(
            "sweep-pool", "sweep", 500, workers=2,
            why="the same sweep on a 2-process pool: isolates parallel "
            "efficiency, including BLAS threads oversubscribing the cores",
        ),
        Workload(
            "forecast-1e5", "forecast", 100_000,
            why="fit on 2% then predict and evaluate 98k rows: CSV IO, "
            "per-row records and inference instead of training",
        ),
    )
}
