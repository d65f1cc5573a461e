"""Self-tests of the benchmark: determinism, tracing and the refusal to run
outside a checkout.

    python3 -m pytest -q perfbench/test_perfbench.py

The workload tests run every workload in fresh interpreters, one pass
each, and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import TIME_METRICS, Tracer

sys.path.insert(0, str(run.SRC))


def child(workload, seed, trace):
    """One pass of a workload in a fresh interpreter; the child's result."""
    out = subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, env=run.child_env(),
        cwd=run.ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


def counters(result):
    return {k: v for k, v in result["layers"].items() if k not in TIME_METRICS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_is_deterministic(workload):
    plain = child(workload, 1, trace=0)
    first = child(workload, 1, trace=1)
    again = child(workload, 1, trace=1)
    other = child(workload, 2, trace=1)
    for res in (plain, first, again, other):
        assert res["failed_jobs"] == [] and res["passes"] == 1
    # tracing changes no answer; one seed gives identical counters
    assert plain["answers"] == first["answers"] == again["answers"]
    assert counters(first) == counters(again)
    if workload == "queries":
        # another seed draws other queries, which still pass their checks
        assert other["answers"] != first["answers"]
    else:
        # another seed only reorders the jobs
        assert other["answers"] == first["answers"]
        assert counters(other) == counters(first)


def test_traced_self_times_add_up_and_bindings_are_restored():
    from supercomin import classify, cominuscule, parabolic, verify

    original = parabolic.levi_decompositions
    tracer = Tracer()
    tracer.install()
    try:
        # the copies made by ``from .parabolic import ...`` are rebound too
        assert classify.levi_decompositions is parabolic.levi_decompositions
        assert cominuscule.levi_decompositions is not original
        tracer.reset()
        start = tracer.clock()
        counts = verify.oracle_counts("p", (2,))
        metrics = tracer.metrics(tracer.clock() - start)
    finally:
        tracer.uninstall()
    assert parabolic.levi_decompositions is original
    assert classify.levi_decompositions is original
    assert counts["parabolic"] == metrics["parabolic.exhaustive_subsets"] == 12
    assert metrics["cominuscule.verdict_calls"] == 12
    assert metrics["verify.self_s"] > 0
    layers = sum(value for name, value in metrics.items()
                 if name in TIME_METRICS and name != "trace.run_s")
    assert layers == pytest.approx(metrics["trace.run_s"])
    # each next() of the enumeration is its own span, parented correctly
    ids = {span[0] for span in tracer.spans}
    assert all(parent == 0 or parent in ids for *_, parent in tracer.spans)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
