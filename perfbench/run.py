"""oficast benchmark: runs one workload through the ``oficast`` CLI the way
a user does, checks the outputs, and prints its metrics.

    python3 perfbench/run.py --workload sweep-serial --seed 0 --seconds 24 --trace 0

Run from the repository root.  Every CLI command is a child process
``sys.executable -m oficast.cli`` with the absolute ``src`` directory on
PYTHONPATH and a working directory of its own, so nothing has to be
installed.  The rest of the environment passes through unchanged; in
particular no BLAS or OpenMP thread variable is set.

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics.  ``--trace 1`` instead runs the workload's commands in
one traced process (see tracer.py), a fixed four passes whatever
``--seconds`` says, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full result set, with the
environment fingerprint, is written under perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
from checks import (
    Checks,
    check_forecast,
    check_identical,
    check_prefix,
    check_sweep,
    load_counts,
    quality,
    read_rows,
)
from tracer import is_count
from workloads import PREFIX_CELLS, SWEEP_CELLS, SWEEP_OUT, WORKLOADS, sweep_argv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Set-ups per run; setup_s is their median.
SETUP_REPS = 5
#: Timed passes per run at least, so that two same-seed passes can be
#: compared byte for byte even when one pass fills --seconds.
MIN_PASSES = 2
#: Fresh interpreters timed for cli.import_s.
IMPORT_REPS = 5
#: Any one child process is killed after this long.
CHILD_TIMEOUT_S = 150.0

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "holdout_nmse")
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "holdout_nmse": "ratio",
    "holdout_mse": "ofi^2", "signal_accuracy": "fraction", "cells_per_s": "1/s", "cell_p50_ms": "ms",
    "cell_p90_ms": "ms", "fit_cmd_s": "s", "predict_cmd_s": "s",
    "evaluate_cmd_s": "s",
}
#: Per-layer metrics every workload exercises; the last output line reports these.
PER_LAYER = (
    "data_io.load_counts_csv.s",
    "data_io.load_counts_csv.rows_per_s",
    "data_io.counts_to_array.calls",
    "data_io.counts_to_array.rows",
    "data_io.counts_to_array.s",
    "ofi_signal.ofi.calls",
    "ofi_signal.signal.calls",
    "ofi_signal.clamp_ofi.calls",
    "var_model.fit_var.calls",
    "var_model.fit_var.s",
    "var_model.one_step_predictions.s",
    "var_model.residuals.s",
    "neural_net.train.calls",
    "neural_net.train.s",
    "neural_net.train.epochs",
    "neural_net.train.steps",
    "neural_net.train.us_per_step",
    "neural_net.train.us_per_step.relu",
    "neural_net.train.us_per_step.adam",
    "neural_net.forward.calls",
    "neural_net.forward.rows",
    "neural_net.forward.s",
    "hybrid.fit_hybrid.self_s",
    "hybrid.predict.rows",
    "hybrid.predict.s",
    "hybrid.predict.self_s",
    "evaluation.evaluate_records.s",
    "evaluation.evaluate_records.rows_per_s",
    "cli.import_s",
    "cli.main.self_s",
    "trace.overhead_frac",
)


def layer_unit(name: str) -> str:
    if is_count(name):
        return "count"
    if name.endswith(".rows_per_s"):
        return "rows/s"
    if ".us_per_step" in name:
        return "us"
    if name.endswith("_frac"):
        return "fraction"
    return "s"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(argv, cwd: Path, log: Path) -> dict:
    """Run one child to completion; returns its wall time, exit code and
    peak resident set (of it and of the processes it waited for)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT
        )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child running
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def cli(args) -> list[str]:
    return [sys.executable, "-m", "oficast.cli", *args]


class Run:
    """One benchmark run: set-up, the measured or traced work, checks."""

    def __init__(self, workload, seed: int, seconds: int, trace: int):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tag = f"{workload.name}.seed{seed}.trace{trace}"
        self.work = BENCH / "work" / f"{self.tag}.{os.getpid()}"
        self.checks = Checks()
        self.commands = 0
        self.exit_failures = 0
        self.cells = 0
        self.cell_failures = 0
        self.extra: dict = {}

    def child(self, args, cwd: Path, label: str) -> dict:
        res = run_child(args, cwd, self.work / "logs" / f"{label}.log")
        self.commands += 1
        if res["exit"] != 0:
            self.exit_failures += 1
        return res

    def setup(self) -> float:
        """Generate the input SETUP_REPS times from the seed; in a fresh
        checkout the first set-up also compiles the package's bytecode, as
        a user's first command does.  Returns the median set-up time."""
        times, digests = [], []
        self.extra["setup_runs_s"] = times
        for k in range(SETUP_REPS):
            d = self.work / f"setup{k}"
            d.mkdir(parents=True)
            res = self.child(cli(self.w.setup_argv(self.seed, "counts.csv")), d, f"setup{k}")
            times.append(res["wall_s"])
            path = d / "counts.csv"
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None)
        self.checks.add("set-ups from one seed give identical inputs", len(set(digests)) == 1)
        self.counts_path = self.work / "setup0" / "counts.csv"
        return stats.median(times)

    def commands_for(self):
        return self.w.commands(self.seed, str(self.counts_path))

    def measure(self) -> list[dict]:
        """Closed loop: passes run back to back until --seconds would be
        exceeded by one more, with at least MIN_PASSES passes."""
        passes = []
        start = time.perf_counter()
        while True:
            k = len(passes)
            d = self.work / f"pass{k}"
            d.mkdir()
            cmds = [
                self.child(cli(argv), d, f"pass{k}-{argv[0]}") for argv in self.commands_for()
            ]
            passes.append({
                "dir": d,
                "wall_s": sum(c["wall_s"] for c in cmds),
                "cmd_s": [c["wall_s"] for c in cmds],
                "rss_mb": max(c["rss_mb"] for c in cmds),
            })
            elapsed = time.perf_counter() - start
            typical = stats.median(p["wall_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > self.seconds:
                return passes

    def check_outputs(self, dirs: list[Path]) -> dict:
        """Check every pass; returns the forecast quality they agree on."""
        found = []
        counts = load_counts(self.counts_path) if self.w.kind == "forecast" else None
        for d in dirs:
            try:
                if counts is None:
                    rows = check_sweep(self.checks, d, SWEEP_CELLS, d.name)
                    self.cells += len(rows)
                    self.cell_failures += sum(r["status"] != "ok" for r in rows)
                    found.append(quality(rows))
                else:
                    found.append(check_forecast(self.checks, d, counts, d.name))
            except (KeyError, ValueError) as exc:  # malformed output file
                self.checks.add(f"{d.name}: outputs parse", False, repr(exc))
                found.append(None)
        if counts is None:
            self.check_worker_independence(dirs[0])
        check_identical(self.checks, dirs, "same seed")
        agreed = found[0] is not None and all(q == found[0] for q in found)
        self.checks.add("forecast quality measured and equal in every pass", agreed)
        return found[0] if agreed else {}

    def check_worker_independence(self, full: Path) -> None:
        """Re-run the lag-1 cells, the first PREFIX_CELLS of the grid, with
        the other worker count and compare them with the full sweep."""
        other = 2 if self.w.workers == 1 else 1
        d = self.work / "prefix"
        d.mkdir()
        argv = sweep_argv(self.seed, str(self.counts_path), other, ("--lags", "1"))
        if self.child(cli(argv), d, "prefix")["exit"] == 0:
            check_prefix(self.checks, full, d, PREFIX_CELLS, f"workers {other} vs {self.w.workers}")
        else:
            self.checks.add("prefix sweep ran", False)

    def measured(self, setup_s: float) -> dict:
        passes = self.measure()
        m = {
            "setup_s": setup_s,
            "wall_s": stats.median(p["wall_s"] for p in passes),
            "peak_rss_mb": stats.median(p["rss_mb"] for p in passes),
        }
        m.update(self.check_outputs([p["dir"] for p in passes]))
        if self.w.kind == "sweep":
            self.extra.update(self.sweep_extras(passes))
        else:
            for i, cmd in enumerate(("fit", "predict", "evaluate")):
                self.extra[f"{cmd}_cmd_s"] = stats.median(p["cmd_s"][i] for p in passes)
        self.extra["passes"] = [
            {k: (str(v) if k == "dir" else v) for k, v in p.items()} for p in passes
        ]
        return m

    def sweep_extras(self, passes) -> dict:
        rates, p50s, tails, tail = [], [], [], {}
        for p in passes:
            rows = read_rows(p["dir"] / SWEEP_OUT)
            ok = [r for r in rows if r["status"] == "ok"]
            rates.append(len(ok) / p["wall_s"])
            tail = stats.tail_summary([1000.0 * float(r["runtime_s"]) for r in rows])
            p50s.append(tail["p50"])
            tails.append(tail.get("tail"))
        out = {"cells_per_s": stats.median(rates), "cell_p50_ms": stats.median(p50s)}
        if tail.get("tail_p") == 90.0 and None not in tails:
            out["cell_p90_ms"] = stats.median(tails)
        out["cell_samples"] = {
            "n": tail.get("n"), "tail_p": tail.get("tail_p"), "beyond": tail.get("tail_beyond"),
        }
        return out

    def traced(self) -> dict:
        import_s = []
        for k in range(IMPORT_REPS):
            res = self.child([sys.executable, "-c", "import oficast.cli"], self.work, f"import{k}")
            import_s.append(res["wall_s"])
        out = self.work / "trace.json"
        res = self.child(
            [sys.executable, str(BENCH / "tracer.py"), "--workload", self.w.name,
             "--seed", str(self.seed), "--counts", str(self.counts_path),
             "--workdir", str(self.work / "traced"), "--out", str(out)],
            self.work, "tracer",
        )
        if res["exit"] != 0 or not out.is_file():
            self.checks.add("traced run completed", False, f"exit {res['exit']}")
            return {}
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        for p in result["passes"].values():
            self.commands += len(p["exits"])
            self.exit_failures += sum(e != 0 for e in p["exits"])
        dirs = [Path(p["dir"]) for p in result["passes"].values()]
        self.check_outputs(dirs)
        m = dict(result["metrics"])
        m["cli.import_s"] = stats.median(import_s)
        self.extra["traced_passes"] = {k: p["wall_s"] for k, p in result["passes"].items()}
        self.checks.add(
            "counts identical across two traced passes",
            result["counts_repeat"],
            json.dumps(result["count_diff"]),
        )
        if self.w.kind == "sweep":
            self.checks.add(
                "every sweep cell traced",
                m.get("sweep.cells") == m.get("sweep.cell.spans") == SWEEP_CELLS,
                f"{m.get('sweep.cell.spans')} cell spans for {m.get('sweep.cells')} cells",
            )
        self.spans = result["spans"]
        return m


def fingerprint() -> dict:
    """Interpreter, numpy and BLAS as the CLI children see them, plus the
    machine's cores and the thread variables found in the environment."""
    code = (
        "import json, os, sys, numpy\n"
        "cfg = numpy.show_config(mode='dicts')\n"
        "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
        " 'blas': {k: blas.get(k) for k in ('name', 'version', 'openblas configuration')}}))\n"
    )
    try:
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            text=True, timeout=60, check=True,
        ).stdout
        info = json.loads(out.splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        info = {"error": str(exc)}
    info["nproc"] = os.cpu_count()
    info["affinity"] = sorted(os.sched_getaffinity(0))
    info["thread_env"] = {
        k: os.environ.get(k)
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    info["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oficast benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oficast" / "cli.py").is_file():
        print(f"error: no oficast sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    run.work.mkdir(parents=True)
    (run.work / "logs").mkdir()
    try:
        setup_s = run.setup()
        if args.trace:
            m = run.traced()
            listed = PER_LAYER
        else:
            m = run.measured(setup_s)
            listed = END_TO_END
        for name in listed:
            run.checks.add(f"metric {name} measured", name in m)
        attempted = run.commands + run.cells + len(run.checks.items)
        failed = run.exit_failures + run.cell_failures + run.checks.failed
        results = {
            "workload": run.w.name,
            "why": run.w.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": fingerprint(),
            "metrics": {**m, **run.extra},
            "failed_frac": stats.failed_frac(failed, attempted),
            "checks": run.checks.items,
        }
        results_dir = BENCH / "results"
        results_dir.mkdir(exist_ok=True)
        with open(results_dir / f"{run.tag}.json", "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        if args.trace and getattr(run, "spans", None):
            with open(results_dir / f"{run.tag}.spans.json", "w", encoding="utf-8") as fh:
                json.dump(run.spans, fh)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    for c in run.checks.items:
        if not c["ok"]:
            print(f"FAILED check: {c['name']} {c['detail']}")
    unit = layer_unit if args.trace else UNITS.get
    for name, value in sorted(results["metrics"].items()):
        if isinstance(value, (int, float)):
            print(f"{name} = {value:.6g} {unit(name) or ''}")
    ff = results["failed_frac"]
    print(f"failed_frac = {ff['value']:.6g} ({ff['failed']} of {ff['attempted']})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": m[name], "unit": unit(name)} for name in listed if name in m
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
