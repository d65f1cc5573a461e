"""Abelian-nilradical (cominuscule) verdicts for parabolic subsets.

A parabolic subset is cominuscule when some Levi decomposition has a
nilradical N+ with no forbidden pair.  The forbidden-pair rule depends on
the family:

* generic rule: a + b is a root (sums in the stored coordinates);
* psl(n|n): some lift-pair sum is a gl(n|n) root -- in particular the
  famous psl(3|3) pair (e1-d1, e2-d2) is allowed even though its quotient
  image is a root;
* S(n): a + b is a W(n) root (including the n removed ones);
* S'(n): the S(n) rule, or both roots of the shape -e_i.  The bracket
  oracle shows [g^{-e_i}, g^{-e_i}] != 0, so the pair clause here includes
  i = j; ``literal=True`` restores the i != j reading for comparison
  against the stated rule.

The rules are tabulated once per root system as per-root bitmasks,
``RootSystem.table.forbidden[literal]``, so a nilradical mask is tested
against one row per root of it (``_abelian``).  The realized-bracket
verdict makes the same test on the realization's rows
``Realization.bracket_masks``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parabolic import LeviDecomposition, RootSubset, levi_decompositions
from .rootsys import RootSystem


def pair_forbidden(rs: RootSystem, a: int, b: int, literal: bool = False) -> bool:
    """Whether roots a, b may never both lie in an abelian nilradical."""
    return bool((rs.table.forbidden[literal][a] >> b) & 1)


@dataclass(frozen=True)
class CominusculeVerdict:
    is_cominuscule: bool
    witness: LeviDecomposition | None
    decompositions: tuple = ()
    abelian_flags: tuple = ()


def _abelian(forb, nil: int) -> bool:
    """No forbidden pair in the nilradical mask: forb[a] & nil == 0 for each
    root a of it, which covers the pairs a <= b since forb is symmetric."""
    rest = nil
    while rest:
        low = rest & -rest
        if forb[low.bit_length() - 1] & nil:
            return False
        rest ^= low
    return True


def is_cominuscule(subset: RootSubset) -> CominusculeVerdict:
    """First Levi decomposition with an abelian nilradical, if any.

    Decompositions are scanned in order of their Levi bits; all of them and
    their individual verdicts are retained, since the defining property is
    existential over decompositions.  Each nilradical is tested as a mask
    against the forbidden-pair rows (``_abelian``).
    """
    forb = subset.rs.table.forbidden[False]
    decs = tuple(levi_decompositions(subset))
    flags = tuple(_abelian(forb, d.nilradical_bits) for d in decs)
    witness = next((d for d, ok in zip(decs, flags) if ok), None)
    return CominusculeVerdict(witness is not None, witness, decs, flags)


def bracket_cominuscule(subset: RootSubset, rz) -> bool:
    """The same existential verdict, decided by the realized superbracket:
    the mask test of ``is_cominuscule`` on the rows ``rz.bracket_masks``."""
    return any(_abelian(rz.bracket_masks, d.nilradical_bits)
               for d in levi_decompositions(subset))


def crosscheck_bracket(subset: RootSubset, rz) -> bool:
    """Does the root-level verdict agree with the bracket oracle on P?"""
    rule = is_cominuscule(subset).is_cominuscule
    return rule == bracket_cominuscule(subset, rz)
