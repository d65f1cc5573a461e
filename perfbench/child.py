"""One workload in one fresh interpreter: set up, run passes, check answers.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/child.py --workload W --setup-only

Prints ``ready <scale>`` as soon as set-up is done (``run.py`` times
set-up up to that line and multiplies it by the scale to the reference
speed), then, unless ``--setup-only``, one JSON line with the pass times,
the per-job times, the failures and the memory high-water mark.

A pass runs the workload's jobs once, in the order the seed gives.  Passes
repeat while the next one is expected to end within ``--seconds``; there is
always at least one.  With ``--trace 1`` every pass is traced, the counters
are those of the first pass and each self time is the median over passes.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time

import workloads
from tracer import TIME_METRICS, Tracer

# The machine's speed drifts by tens of percent over seconds and minutes
# (other tenants share its cores), and a fixed interpreter-bound loop slows
# down with the jobs.  Times are therefore reported at a reference speed:
# wall time times PROBE_REF_S over the loop's median time, sampled from a
# timer signal every PROBE_INTERVAL_S while a pass runs.  PROBE_REF_S is the
# loop's typical time on the 2-core machine that recorded the baseline.
PROBE_REF_S = 60e-6
PROBE_INTERVAL_S = 0.1

_KEYS = tuple((i, i + 1, i & 7) for i in range(256))
_INDEX = {k: i for i, k in enumerate(_KEYS)}


def _probe_loop():
    # lookups in a fixed table, then a small table built afresh, so that
    # neither where the fixed table happens to lie in memory nor the state
    # of the allocator alone sets the loop's speed
    acc = 0
    for k in _KEYS:
        acc = (acc * 3 + _INDEX[k]) & 0xFFFF
    fresh = {}
    for i in range(96):
        t = (i, acc, i & 7)
        fresh[t] = i
        acc = (acc * 3 + fresh[t]) & 0xFFF
    return acc


def probe_s():
    """Time of one run of the reference loop, after a run that warms it."""
    _probe_loop()
    t0 = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference loop before, during (from SIGALRM) and after a
    block of work; ``scale`` converts the block's wall times to the
    reference speed."""

    def _on_alarm(self, signum, frame):
        self.samples.append(probe_s())

    def __enter__(self):
        self.samples = [probe_s()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe_s())
        self.scale = PROBE_REF_S / statistics.median(self.samples)


def query_jobs(seed, state, refs):
    """Seeded point queries: [(name, job, check)] with P(lambda) formed
    before timing starts."""
    menu = refs["queries"]["menu"]
    jobs = []
    for key, k in workloads.draw_queries(seed, menu):
        t = workloads.tag(*key)
        lam, want = menu[t][k]
        rs = state["systems"][key]
        bits = workloads.principal_bits(rs, lam)

        def job(state, rs=rs, bits=bits):
            return workloads.query_answer(rs, bits)

        def check(answer, rs=rs, lam=lam, bits=bits, want=want):
            return (workloads.digest(answer) == want
                    and workloads.query_invariants(rs, lam, bits, answer))

        jobs.append((f"query {t} #{k}", job, check))
    return jobs


def fixed_jobs(workload, seed, refs):
    expected = workloads.expected_answers(workload, refs)
    jobs = []
    for name, job in workloads.job_list(workload):
        want = expected[name]
        jobs.append((name, job, lambda answer, want=want: answer == want))
    random.Random(seed).shuffle(jobs)
    return jobs


def run_pass(jobs, state):
    """Run every job once; returns (wall time, job times, answers)."""
    clock = time.perf_counter
    times, answers = [], []
    t_pass = clock()
    for name, job, _ in jobs:
        t0 = clock()
        try:
            answer = job(state)
        except Exception as exc:  # a raising job is a failed job
            answer = {"raised": repr(exc)}
        times.append(clock() - t0)
        answers.append(answer)
    return clock() - t_pass, times, answers


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the first traced pass's spans "
                                        "here (gzipped JSON lines)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # before set-up, so that its builds are counted
    state = workloads.setup(args.workload)
    setup_layers = tracer.setup_metrics() if tracer is not None else {}
    # the machine's speed right after set-up, to scale the set-up time
    speed = statistics.median(probe_s() for _ in range(21))
    print(f"ready {PROBE_REF_S / speed}", flush=True)
    if args.setup_only:
        return 0

    refs = workloads.load_references()
    if args.workload == "queries":
        jobs = query_jobs(args.seed, state, refs)
    else:
        jobs = fixed_jobs(args.workload, args.seed, refs)

    pass_times, pass_walls, job_times, layer_passes = [], [], [], []
    failed_jobs = []
    answers_digest, passes_agree = None, True
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        with SpeedSampler() as sampler:
            wall, times, answers = run_pass(jobs, state)
        pass_walls.append(wall)
        pass_times.append(wall * sampler.scale)
        job_times += [t * sampler.scale for t in times]
        if tracer is not None:
            layer_passes.append(tracer.metrics(wall))
            if len(layer_passes) == 1 and args.spans:
                tracer.write_spans(args.spans)
        for (name, _, check), answer in zip(jobs, answers):
            if not check(answer):
                failed_jobs.append(name)
        # answers in canonical (unshuffled) order, for cross-run comparison
        by_name = sorted(zip((j[0] for j in jobs), map(json.dumps, answers)))
        pass_digest = workloads.digest(by_name)
        if answers_digest is None:
            answers_digest = pass_digest
        passes_agree = passes_agree and pass_digest == answers_digest
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_walls) > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(pass_times),
        "pass_s": pass_times,
        "pass_wall_s": pass_walls,
        "job_s": job_times,
        "attempted": len(jobs) * len(pass_times),
        "failed_jobs": failed_jobs,
        "answers": answers_digest,
        "passes_agree": passes_agree,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        first = layer_passes[0]
        layers = {}
        for name, value in first.items():
            if name in TIME_METRICS:
                value = statistics.median(p[name] for p in layer_passes)
            layers[name] = value
        counters = [{k: v for k, v in p.items() if k not in TIME_METRICS}
                    for p in layer_passes]
        result["layers"] = {**layers, **setup_layers}
        result["counters_stable"] = all(c == counters[0] for c in counters)
        tracer.uninstall()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
