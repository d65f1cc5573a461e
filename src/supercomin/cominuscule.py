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
``RootSystem.table.forbidden[literal]``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parabolic import (DEFAULT_LIFT_CAP, LeviDecomposition, RootSubset,
                        levi_decompositions)
from .rootsys import RootSystem


def pair_forbidden(rs: RootSystem, a: int, b: int, literal: bool = False) -> bool:
    """Whether roots a, b may never both lie in an abelian nilradical."""
    return bool((rs.table.forbidden[literal][a] >> b) & 1)


def rule_tag(rs: RootSystem) -> str:
    return {
        "psl": "psl33_ambient", "S": "S_ambient", "Sprime": "Sprime_ambient",
    }.get(rs.family, "root_sum")


def nilradical_abelian(rs: RootSystem, nil_bits: int, literal: bool = False) -> bool:
    forb = rs.table.forbidden[literal]
    return not any(forb[a] & nil_bits
                   for a in range(len(rs)) if (nil_bits >> a) & 1)


@dataclass(frozen=True)
class CominusculeVerdict:
    is_cominuscule: bool
    witness: LeviDecomposition | None
    rule_used: str
    decompositions: tuple = ()
    abelian_flags: tuple = ()


def is_cominuscule(subset: RootSubset,
                   lift_cap=DEFAULT_LIFT_CAP) -> CominusculeVerdict:
    """First Levi decomposition with an abelian nilradical, if any.

    Decompositions are scanned in order of their Levi bits; all of them and
    their individual verdicts are retained, since the defining property is
    existential over decompositions.
    """
    rs = subset.rs
    decs = levi_decompositions(subset, lift_cap=lift_cap)
    flags = tuple(nilradical_abelian(rs, d.nilradical_bits) for d in decs)
    witness = None
    for d, ok in zip(decs, flags):
        if ok:
            witness = d
            break
    return CominusculeVerdict(witness is not None, witness, rule_tag(rs),
                              tuple(decs), flags)


def bracket_cominuscule(subset: RootSubset, rz,
                        lift_cap=DEFAULT_LIFT_CAP) -> bool:
    """The same existential verdict, decided by the realized superbracket."""
    decs = levi_decompositions(subset, lift_cap=lift_cap)
    for d in decs:
        idx = [i for i in range(len(subset.rs)) if (d.nilradical_bits >> i) & 1]
        ok = True
        for x, a in enumerate(idx):
            for b in idx[x:]:
                if rz.bracket_nonzero(a, b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def crosscheck_bracket(subset: RootSubset, rz=None,
                       lift_cap=DEFAULT_LIFT_CAP) -> bool:
    """Does the root-level verdict agree with the bracket oracle on P?"""
    if rz is None:
        from .realize import realize_for

        rz = realize_for(subset.rs)
    rule = is_cominuscule(subset, lift_cap=lift_cap).is_cominuscule
    return rule == bracket_cominuscule(subset, rz, lift_cap=lift_cap)
