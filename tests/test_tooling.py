"""The benchmark's tracer against the package it wraps.

``perfbench/tracer.py`` looks up about 40 package functions and methods
by name, so a rename in ``src/`` breaks the traced benchmark run; this
test loads the tracer file as it is and installs it."""

import importlib.util
from pathlib import Path

from supercomin import classify, cli, parabolic, verify
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


def test_oracle_reads_principality_per_orbit():
    """``oracle_counts`` on W(3) reads one lift stream and no face search,
    and asks for one ``principality_witness`` per orbit: 34 for its 152
    principal subsets."""
    original = verify.principality_witness
    tr = load_tracer().Tracer()
    try:
        tr.install()
        counts = verify.oracle_counts("W", (3,))
    finally:
        tr.uninstall()
    assert verify.principality_witness is original
    assert counts["principal"] == counts["parabolic"] == 152
    assert tr.counts["parabolic.face_subsets"] == 0
    assert tr.counts["parabolic.witness_calls"] == 34
    assert tr.counts["kernel.calls"] == 1


def test_oracle_orbits_build_each_permutation_once():
    """The W(3) oracle forms 34 orbits of 152 subsets in all, and builds the
    root permutation of each of its two generators at most once, however
    many orbits read it: the orbits read the cached image tables, and
    only a table not yet built calls ``weyl.root_permutation``."""
    tr = load_tracer().Tracer()
    try:
        tr.install()
        verify.oracle_counts("W", (3,))
    finally:
        tr.uninstall()
    assert tr.counts["weyl.orbit_calls"] == 34
    assert tr.counts["weyl.orbit_elements"] == 152
    assert tr.counts["weyl.root_permutation_calls"] <= 2


def test_classify_runs_no_face_search(capsys):
    """``classify`` reads one pruned lift stream and no face search, as the
    benchmark's counters see it: S(4), past the 26 roots at which its
    report's method field turns "principal", makes one kernel search."""
    tr = load_tracer().Tracer()
    try:
        tr.install()
        code = cli.main(["classify", "--family", "S", "--n", "4"])
    finally:
        tr.uninstall()
    assert code == 0 and '"method": "principal"' in capsys.readouterr().out
    assert tr.counts["parabolic.face_subsets"] == 0
    assert tr.counts["kernel.calls"] == 1
