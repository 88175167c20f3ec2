"""Traced run: one process runs a workload's commands through
``oficast.cli.main`` with spans and counters around the calls into each
module's public functions.

Nothing in ``src/`` is edited.  The tracer replaces, for the length of a
pass, the names each caller looks up (``oficast.cli.load_counts_csv``,
``oficast.sweep._FITTERS``, ``oficast.hybrid.train``, ...) with wrappers.
Per-row functions (``ofi``, ``signal``, ``clamp_ofi``) get counters, not
spans, to keep the overhead small.

Sweep cells that run in a forked pool worker inherit the wrappers; each
worker writes its spans and counts to a file after every cell, and the
parent merges them when ``run_sweep`` returns.  A worker start method
other than fork leaves those cells untraced, and the cell counts then
come out short, which the benchmark reports as a failed check.

Usage (PYTHONPATH must hold the program's ``src``)::

    python3 perfbench/tracer.py --workload sweep-serial --seed 0 \
        --counts counts.csv --workdir DIR --out trace.json

It runs the commands four times in the same process: traced, untraced,
traced, untraced.  Counts of the two traced passes must agree exactly.
The second traced pass against the mean of the untraced passes on either
side of it gives the tracing overhead; the first pass also pays the
process's warm-up and is left out of it.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import itertools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import stats
from workloads import WORKLOADS


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, child_dir: Path):
        self.child_dir = child_dir
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._cells: dict[str, list[int]] = {}
        self._stack: list[dict] = []
        self._request = None
        self._ids = itertools.count()
        self._shipped = itertools.count()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        for cell in self._cells.values():
            cell[0] = 0

    def counts(self) -> Counter:
        return Counter({name: cell[0] for name, cell in self._cells.items()})

    def spanned(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(bound_args,
        result)`` adds fields such as rows after the span has closed."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": f"{os.getpid()}:{next(self._ids)}",
                "parent": self._stack[-1]["id"] if self._stack else None,
                "request": self._request,
                "name": name,
            }
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.update(attrs(sig.bind(*args, **kwargs).arguments, result))
            return result

        return wrapper

    def counted(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def request(self, request_id, main, argv) -> int:
        """Run one CLI command as the root span of request ``request_id``."""
        self._request = request_id
        try:
            return self.spanned("cli.main", main)(argv)
        finally:
            self._request = None

    def pool_cell(self, fn):
        """Span around a sweep cell; in a forked worker the worker's spans
        are written out after each cell for the parent to merge."""
        inner = self.spanned("sweep.cell", fn)

        @functools.wraps(fn)
        def wrapper(cell):
            if os.getpid() == self.pid:
                return inner(cell)
            self.reset()  # state copied from the parent at fork time
            try:
                return inner(cell)
            finally:
                path = self.child_dir / f"{os.getpid()}-{next(self._shipped)}.json"
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"spans": self.spans, "counts": self.counts()}, fh)

        return wrapper

    def merging(self, fn):
        """Wrap ``fn`` so the pool workers' spans are merged when it returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.merge_children()

        return wrapper

    def merge_children(self) -> None:
        for path in sorted(self.child_dir.glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                shipped = json.load(fh)
            self.spans.extend(shipped["spans"])
            for name, n in shipped["counts"].items():
                self._cells.setdefault(name, [0])[0] += n
            path.unlink()


def _rows_of(name):
    return lambda bound, result: {"rows": len(bound[name])}


def _rows_returned(bound, result):
    return {"rows": len(result)}


def _train_attrs(bound, result):
    """Epochs run, from the returned trace, and optimizer steps, from the
    split rule ``train`` documents: the last validation_fraction of the
    samples is held out when early stopping is on, and every epoch takes
    ceil(n_train / batch_size) steps."""
    config = bound["config"]
    n = len(bound["inputs"])
    n_train = n
    if config.early_stopping:
        n_train = n - max(1, int(math.floor(config.validation_fraction * n + 1e-9)))
    epochs = len(result[1].train_losses)
    return {
        "epochs": epochs,
        "steps": epochs * math.ceil(n_train / config.batch_size),
        "activation": bound["topology"].activation,
        "optimizer": config.optimizer,
    }


def _sweep_attrs(bound, result):
    return {
        "workers": bound.get("workers", 1),
        "cells": len(result),
        "cell_s_sum": sum(r.runtime_s for r in result),
    }


def install(tracer: Tracer):
    """Swap the wrappers in; returns a function that swaps the originals back."""
    import oficast.cli as cli
    import oficast.hybrid as hybrid
    import oficast.sweep as sweep
    import oficast.var_model as var_model

    saved = []

    def patch(owner, attr, wrap):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = wrap(original)
            saved.append(lambda: owner.__setitem__(attr, original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, wrap(original))
            saved.append(lambda: setattr(owner, attr, original))

    def span(name, attrs=None):
        return lambda fn: tracer.spanned(name, fn, attrs)

    def count(name):
        return lambda fn: tracer.counted(name, fn)

    patch(cli, "load_counts_csv", span("data_io.load_counts_csv", _rows_returned))
    for owner in (hybrid, var_model):
        patch(owner, "counts_to_array", span("data_io.counts_to_array", _rows_of("series")))
    for fn in ("ofi", "signal", "clamp_ofi"):
        patch(hybrid, fn, count(f"ofi_signal.{fn}.calls"))
    for fn in ("fit_var", "one_step_predictions", "residuals"):
        patch(var_model, fn, span(f"var_model.{fn}"))
    patch(hybrid, "train", span("neural_net.train", _train_attrs))
    patch(hybrid, "forward", span("neural_net.forward", _rows_of("inputs")))
    patch(cli, "fit_hybrid", span("hybrid.fit_hybrid"))
    patch(sweep._FITTERS, "hybrid", span("hybrid.fit_hybrid"))
    for owner in (cli, hybrid):  # evaluate_on_holdout calls hybrid.predict
        patch(owner, "predict", span("hybrid.predict", _rows_returned))
    patch(sweep, "evaluate_on_holdout", span("hybrid.evaluate_on_holdout"))
    patch(cli, "save_bundle", span("hybrid.save_bundle"))
    patch(cli, "load_bundle", span("hybrid.load_bundle"))
    patch(cli, "write_predictions_csv", span("hybrid.write_predictions_csv", _rows_of("records")))
    patch(cli, "read_predictions_csv", span("hybrid.read_predictions_csv", _rows_returned))
    for owner in (cli, sweep):
        patch(owner, "evaluate_records", span("evaluation.evaluate_records", _rows_of("records")))
    patch(cli, "run_sweep", span("sweep.run_sweep", _sweep_attrs))
    for fn in ("write_sweep_csv", "write_heatmap_csv", "best_configurations"):
        patch(cli, fn, span("sweep.outputs"))
    patch(sweep, "_run_cell", tracer.pool_cell)
    patch(cli, "run_sweep", tracer.merging)

    def restore():
        for undo in reversed(saved):
            undo()

    return restore


def layer_metrics(spans: list[dict], counts: Counter) -> dict:
    """Per-layer metrics of one traced pass."""
    selfs = stats.self_times(spans)
    agg: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
    by_step: dict = defaultdict(lambda: [0.0, 0])
    for s in spans:
        dur = s["end"] - s["start"]
        a = agg[s["name"]]
        a["calls"] += 1
        a["s"] += dur
        a["self_s"] += selfs[s["id"]]
        a["rows"] += s.get("rows", 0)
        if s["name"] == "neural_net.train":
            a.setdefault("epochs", 0)
            a.setdefault("steps", 0)
            a["epochs"] += s["epochs"]
            a["steps"] += s["steps"]
            for key in (s["activation"], s["optimizer"]):
                by_step[key][0] += dur
                by_step[key][1] += s["steps"]

    m: dict = {}

    def put(name, field, key=None):
        if name in agg:
            m[key or f"{name}.{field}"] = agg[name][field]

    def rate(name, key=None):
        a = agg.get(name)
        if a and a["s"] > 0:
            m[key or f"{name}.rows_per_s"] = a["rows"] / a["s"]

    put("data_io.load_counts_csv", "s")
    rate("data_io.load_counts_csv")
    for field in ("calls", "rows", "s"):
        put("data_io.counts_to_array", field)
    for fn in ("ofi", "signal", "clamp_ofi"):
        m[f"ofi_signal.{fn}.calls"] = counts.get(f"ofi_signal.{fn}.calls", 0)
    put("var_model.fit_var", "calls")
    put("var_model.fit_var", "s")
    put("var_model.one_step_predictions", "s")
    put("var_model.residuals", "s")
    for field in ("calls", "s", "epochs", "steps"):
        put("neural_net.train", field)
    train = agg.get("neural_net.train")
    if train and train["steps"]:
        m["neural_net.train.us_per_step"] = 1e6 * train["s"] / train["steps"]
    for key, (secs, steps) in sorted(by_step.items()):
        if steps:
            m[f"neural_net.train.us_per_step.{key}"] = 1e6 * secs / steps
    for field in ("calls", "rows", "s"):
        put("neural_net.forward", field)
    put("hybrid.fit_hybrid", "self_s")
    for field in ("rows", "s", "self_s"):
        put("hybrid.predict", field)
    put("hybrid.evaluate_on_holdout", "s")
    put("hybrid.save_bundle", "s")
    put("hybrid.load_bundle", "s")
    for name in ("hybrid.write_predictions_csv", "hybrid.read_predictions_csv"):
        put(name, "s")
        rate(name)
    put("evaluation.evaluate_records", "s")
    rate("evaluation.evaluate_records")
    sweeps = [s for s in spans if s["name"] == "sweep.run_sweep"]
    if sweeps:
        busy = sum(s["end"] - s["start"] for s in sweeps)
        cell_sum = sum(s["cell_s_sum"] for s in sweeps)
        m["sweep.run_sweep.s"] = busy
        m["sweep.cell_s_sum"] = cell_sum
        m["sweep.pool_busy_frac"] = cell_sum / sum(
            (s["end"] - s["start"]) * s["workers"] for s in sweeps
        )
        m["sweep.cells"] = sum(s["cells"] for s in sweeps)
        m["sweep.cell.spans"] = agg["sweep.cell"]["calls"]
    put("sweep.outputs", "s")
    put("cli.main", "self_s")
    return m


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".rows", ".steps", ".epochs", ".cells", ".spans"))


def run_pass(commands, d: Path, tracer: Tracer | None) -> dict:
    """Run every command once in ``d``; traced when ``tracer`` is given."""
    import oficast.cli as cli

    d.mkdir(parents=True)
    restore = None
    if tracer is not None:
        tracer.reset()
        restore = install(tracer)
    exits = []
    old_cwd = os.getcwd()
    os.chdir(d)
    try:
        with open(d.parent / f"{d.name}.log", "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            for i, argv in enumerate(commands):
                try:
                    if tracer is None:
                        exits.append(cli.main(argv))
                    else:
                        exits.append(tracer.request(i, cli.main, argv))
                except SystemExit as exc:  # argparse rejected the arguments
                    exits.append(exc.code if isinstance(exc.code, int) else 2)
            wall = time.perf_counter() - start
    finally:
        os.chdir(old_cwd)
        if restore is not None:
            restore()
    return {"dir": str(d), "wall_s": wall, "exits": exits}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--counts", required=True, help="input counts CSV")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True, help="trace result JSON")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed, str(Path(args.counts).resolve()))
    workdir = Path(args.workdir).resolve()
    child_dir = workdir / "worker-spans"
    child_dir.mkdir(parents=True)
    tracer = Tracer(child_dir)

    passes = {}
    traced = {}
    for label in ("traced1", "untraced1", "traced2", "untraced2"):
        use = tracer if label.startswith("traced") else None
        passes[label] = run_pass(commands, workdir / label, use)
        if use is not None:
            traced[label] = (list(tracer.spans), tracer.counts())

    metrics = {k: layer_metrics(*v) for k, v in traced.items()}
    untraced = (passes["untraced1"]["wall_s"] + passes["untraced2"]["wall_s"]) / 2
    metrics["traced2"]["trace.overhead_frac"] = passes["traced2"]["wall_s"] / untraced - 1.0
    counts1 = {k: v for k, v in metrics["traced1"].items() if is_count(k)}
    counts2 = {k: v for k, v in metrics["traced2"].items() if is_count(k)}
    result = {
        "passes": passes,
        "metrics": metrics["traced2"],
        "counts_repeat": counts1 == counts2,
        "count_diff": {
            k: [counts1.get(k), counts2.get(k)]
            for k in sorted(set(counts1) | set(counts2))
            if counts1.get(k) != counts2.get(k)
        },
        "spans": traced["traced2"][0],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
