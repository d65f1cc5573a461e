"""The benchmark's tracer against the package it wraps.

``perfbench/tracer.py`` looks up about 40 package functions and methods
by name, so a rename in ``src/`` breaks the traced benchmark run; this
test loads the tracer file as it is and installs it.  The last tests guard
the caps: each is a module constant that README names, and none is a
parameter."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from supercomin import classify, cli, parabolic, verify
from supercomin.parabolic import RootSubset
from supercomin.rootsys import build_root_system

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_no_function_takes_a_cap():
    """Every cap is a fixed module constant: no function, method or lambda
    of the package has a parameter whose name contains ``cap``."""
    found = []
    for path in sorted((ROOT / "src" / "supercomin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                         + [a.vararg, a.kwarg] if x is not None]
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in names if "cap" in name.lower()]
    assert found == []


@pytest.mark.parametrize("module,name", [
    ("rootsys", "ROOT_CAP"), ("kernel", "NODE_CAP"), ("weyl", "ORBIT_CAP"),
    ("realize", "DIM_CAP")])
def test_readme_names_each_cap(module, name):
    """Each cap constant exists and README's list of caps names it."""
    assert isinstance(getattr(importlib.import_module(f"supercomin.{module}"), name), int)
    assert f"`{module}.{name}`" in (ROOT / "README.md").read_text()
