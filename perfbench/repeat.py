#!/usr/bin/env python3
"""Run one workload over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workload requests --runs 10 [--first-seed 1]
        [--trace 0] [--seconds S] [--summary summary.json]

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the bound ``BENCHMARK.json`` fixes for it.  Exits 1 if a run fails
or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--summary", help="write the summary as JSON here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    collected: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, entry in result["metrics"].items():
            collected.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]

    summary = {"workload": args.workload, "trace": args.trace, "seconds": seconds, "metrics": {}}
    for name, values in collected.items():
        s = summarize([float(v) for v in values])
        s["unit"] = units[name]
        s["bound"] = bounds.get(name)
        summary["metrics"][name] = s
        bound = "" if s["bound"] is None else f"bound {s['bound']:.2f}"
        print(
            f"{name:45s} median {s['median']:14.6g} {units[name]:6s} "
            f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:7.2%} {bound}"
        )
    if args.summary:
        Path(args.summary).write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
