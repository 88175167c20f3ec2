"""Summarise result files: per workload and metric, the median, the
quartiles and the spread (quartile distance over median) across runs.

    python3 perfbench/summarize.py [RESULTS_DIR] [--out summary.json]

RESULTS_DIR defaults to perfbench/results.  Quartiles are those of
``statistics.quantiles(values, n=4)``.
"""
from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def summarize(paths) -> dict:
    values: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(list)
    environment = None
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        key = f"{result['workload']} trace{result['trace']}"
        seeds[key].append(result["seed"])
        environment = environment or result["environment"]
        metrics = dict(result["metrics"], failed_frac=result["failed_frac"]["value"])
        for name, value in metrics.items():
            if isinstance(value, (int, float)):
                values[key][name].append(value)
    out = {"environment": environment, "runs": {}}
    for key, per_metric in sorted(values.items()):
        rows = {}
        for name, vals in sorted(per_metric.items()):
            med = statistics.median(vals)
            row = {"n": len(vals), "median": med}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            rows[name] = row
        out["runs"][key] = {"seeds": seeds[key], "metrics": rows}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results", nargs="?", default=str(Path(__file__).resolve().parent / "results")
    )
    parser.add_argument("--out", help="also write the summary as JSON")
    args = parser.parse_args(argv)
    paths = [p for p in Path(args.results).glob("*.json") if not p.name.endswith(".spans.json")]
    summary = summarize(paths)
    for key, run in summary["runs"].items():
        print(f"{key}: seeds {run['seeds']}")
        for name, row in run["metrics"].items():
            spread = row.get("spread")
            text = "" if spread is None else f"  spread {spread:.3f}"
            print(f"  {name:42s} median {row['median']:.6g}{text}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
