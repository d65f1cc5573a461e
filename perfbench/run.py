#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload {sweep,table,crosscheck,queries} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in a fresh
single-threaded interpreter (``child.py``) with ``PYTHONHASHSEED`` fixed;
set-up is timed in that interpreter and in ``SETUP_SAMPLES - 1`` more that
only set up.  Every answer is checked against its reference.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the seed, the hash seed, the Python version, the core count and
the raw per-pass numbers.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER, SETUP_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 7
HASH_SEED = "0"
CHILD_TIMEOUT_S = 150  # the whole run must end within 180 s


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def start_child(args, env):
    """Start child.py and wait for its ``ready <scale>`` line:
    (process, set-up wall s, set-up s at the reference speed)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")] + args,
                            stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    word, _, scale = proc.stdout.readline().partition(" ")
    wall = time.perf_counter() - t0
    if word != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload set-up failed (exit {proc.returncode})")
    return proc, wall, wall * float(scale)


def setup_only(workload, env):
    """Set-up times of one more fresh interpreter that only sets up."""
    proc, wall, scaled = start_child(["--workload", workload, "--setup-only"],
                                     env)
    finish(proc)
    return wall, scaled


def finish(proc):
    """Wait for a child and return its output; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("workload timed out")
    if proc.returncode != 0:
        raise SystemExit(f"workload exited {proc.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "supercomin" / "__init__.py").is_file():
        sys.stderr.write(f"error: package source not found under {SRC}; "
                         "run from a checkout of the repository\n")
        return 2

    env = child_env()
    # set-up samples before and after the run, because the machine's speed
    # changes in stretches of seconds
    setups = [setup_only(args.workload, env)
              for _ in range(SETUP_SAMPLES // 2)]

    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        child_args += ["--spans", str(spans)]
    proc, wall, scaled = start_child(child_args, env)
    setups.append((wall, scaled))
    res = json.loads(finish(proc).strip().splitlines()[-1])
    setups += [setup_only(args.workload, env)
               for _ in range(SETUP_SAMPLES - len(setups))]

    job_ms = [t * 1000 for t in res["job_s"]]
    failed = len(res["failed_jobs"])
    if args.trace:
        units = dict(PER_LAYER + SETUP_LAYER)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setups),
                        "unit": "s"},
            "run_s": {"value": statistics.median(res["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "pythonhashseed": HASH_SEED,
        "python": platform.python_version(), "cores": os.cpu_count(),
        "passes": res["passes"], "pass_s": res["pass_s"],
        "pass_wall_s": res["pass_wall_s"],
        "setup_s": [s for _, s in setups],
        "setup_wall_s": [w for w, _ in setups],
        # per-job latency, reported here only: on the job lists a percentile
        # is a single sample of one job, too noisy to gate (see NOTES.md)
        "job_samples": len(job_ms),
        "job_p50_ms": statistics.median(job_ms),
        "job_p90_ms": statistics.quantiles(job_ms, n=10,
                                           method="inclusive")[8],
        "failed_frac": failed / res["attempted"],
        "failed_jobs": res["failed_jobs"], "answers": res["answers"],
        "passes_agree": res["passes_agree"],
    }
    if args.trace:
        info["counters_stable"] = res["counters_stable"]
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and res["passes_agree"],
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
