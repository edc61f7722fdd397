"""Steadiness report: repeat each workload and print every metric's spread.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --workloads ik,cli --first-seed 1

Each run is ``perfbench/run.py`` for ``run_seconds`` of BENCHMARK.json, in its
own process, with the next seed.  ``--trace 1`` repeats traced runs.  For
every metric the report gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median.  For end-to-end metrics it sets the spread against the
bound of BENCHMARK.json: "ok" below a third of the bound, "wide" below the
bound, "UNSTEADY" above it.  ``--out`` also writes the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary to this JSON file")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    summary, status = {}, 0
    for workload in names:
        per_metric: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [
                sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr}")
                status = 1
                continue
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds
            ), flush=True)
        summary[workload] = {}
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
        for name, values in per_metric.items():
            if len(values) < 2:
                continue
            s = summarize(values)
            summary[workload][name] = s
            verdict = ""
            if name in bounds:
                bound = bounds[name]
                verdict = f"{bound:<5} " + (
                    "ok" if s["spread"] <= bound / 3 else "wide" if s["spread"] <= bound else "UNSTEADY"
                )
            print(
                f"  {name:<40} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                f"{s['spread']:>8.4f}  {verdict}"
            )
        print(flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
