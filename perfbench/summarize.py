#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarize the spread.

    python3 perfbench/summarize.py --workloads sweep table --seeds 1-10 \\
        [--seconds 30] [--trace 0] [--out FILE]

For each workload and end-to-end metric this prints the median of the runs
and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median: the
spread that each metric's bound in BENCHMARK.json has to cover.  With
``--trace 1`` it prints the per-layer medians instead.  Every run's final
JSON line is appended to ``--out`` (JSON lines) when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent).stdout
    info, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    return info, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=["sweep", "table", "crosscheck", "queries"])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json")
                                           .read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            info, result = run_once(workload, seed, args.seconds, args.trace)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"info": info, "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"passes={info['passes']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
            else:
                spread = 0.0
            print(f"  {workload:10s} {name:34s} median {med:12.5g}  "
                  f"iqr/median {spread:7.2%}  n={len(vals)}", flush=True)


if __name__ == "__main__":
    main()
