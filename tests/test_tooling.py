"""The benchmark's tracer against the package it wraps.

``perfbench/tracer.py`` looks up about 40 package functions and methods
by name, so a rename in ``src/`` breaks the traced benchmark run; this
test loads the tracer file as it is and installs it."""

import importlib.util
from pathlib import Path

from supercomin import classify, parabolic, verify
from supercomin.parabolic import RootSubset
from supercomin.rootsys import build_root_system

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_installs_and_restores():
    tracer = load_tracer()
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


def test_benchmark_tracer_counts_witness_layers():
    """The tracer counts the witness path through the names it wraps: a
    witness that reached Fourier-Motzkin by another route than the
    module-level ``feasible_witness`` and ``IncrementalFM.add`` would read
    0 in the benchmark's ``feasible.*`` counters."""
    rs = build_root_system("sl", (2, 1))
    tr = load_tracer().Tracer()
    try:
        tr.install()
        witness = parabolic.principality_witness(RootSubset(rs, 0x7))
    finally:
        tr.uninstall()
    assert witness is not None
    assert tr.counts["parabolic.witness_calls"] == 1
    assert tr.counts["feasible.witness_calls"] == 1
    assert tr.counts["feasible.witness_rows"] > 0
    assert tr.counts["feasible.fm_add_calls"] > 0


def test_oracle_certifies_faces_without_witnesses():
    """``oracle_counts`` on W(3) certifies its 152 principal subsets with
    the points of one face search: no subset needs a
    ``principality_witness`` of its own."""
    tr = load_tracer().Tracer()
    try:
        tr.install()
        counts = verify.oracle_counts("W", (3,))
    finally:
        tr.uninstall()
    assert counts["principal"] == counts["parabolic"] == 152
    assert tr.counts["parabolic.face_subsets"] == 152
    assert tr.counts["parabolic.witness_calls"] == 0
