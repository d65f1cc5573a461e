"""The benchmark's tracer against the package it wraps.

``perfbench/tracer.py`` looks up about 40 package functions and methods
by name, so a rename in ``src/`` breaks the traced benchmark run; this
test loads the tracer file as it is and installs it."""

import importlib.util
from pathlib import Path

from supercomin import classify, parabolic

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_benchmark_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = parabolic.levi_decompositions
    tr = tracer.Tracer()
    try:
        tr.install()  # KeyError or AttributeError on a wrapped name gone
        assert parabolic.levi_decompositions is not original
        assert classify.levi_decompositions is parabolic.levi_decompositions
    finally:
        tr.uninstall()
    assert parabolic.levi_decompositions is original
    assert classify.levi_decompositions is original
