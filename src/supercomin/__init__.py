"""Exact root-system combinatorics and the abelian-nilradical (cominuscule)
classification of parabolic subsets for simple finite-dimensional complex
Lie superalgebras."""

from .rootsys import Root, RootSystem, SumOutcome, build_root_system
from .parabolic import (LeviDecomposition, RootSubset, enumerate_parabolics,
                        is_parabolic, levi_decompositions, principal_parabolic,
                        principality_witness)
from .cominuscule import CominusculeVerdict, crosscheck_bracket, is_cominuscule
from .classify import (ClassificationReport, enumerate_cominuscule_orbits,
                       restriction_extension_check)
from .realize import Realization, realize, realize_for
from .verify import oracle_counts, run_paper_suite

__version__ = "0.1.0"

__all__ = [
    "Root", "RootSystem", "SumOutcome", "build_root_system",
    "LeviDecomposition", "RootSubset", "enumerate_parabolics", "is_parabolic",
    "levi_decompositions", "principal_parabolic", "principality_witness",
    "CominusculeVerdict", "crosscheck_bracket", "is_cominuscule",
    "ClassificationReport", "enumerate_cominuscule_orbits",
    "restriction_extension_check",
    "Realization", "realize", "realize_for",
    "oracle_counts", "run_paper_suite",
    "__version__",
]
