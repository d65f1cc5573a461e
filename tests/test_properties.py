"""The closure laws of a Levi decomposition and restriction compatibility,
against a brute-force reading of the laws over every root pair."""

import warnings

import pytest

from supercomin.parabolic import (LeviDecomposition, RootSubset,
                                  enumerate_parabolics, levi_decompositions)
from supercomin.properties import (even_factor_index_sets,
                                   restriction_compatible, sums_laws_hold)
from supercomin.rootsys import build_root_system
from supercomin.verify import LAW_INSTANCES

# psl(2|2) adds the lift-pair masks: a pair can force a root that its stored
# weights do not sum to
SYSTEMS = LAW_INSTANCES + (("psl", (2,)),)


def rsys(fam, par):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_root_system(fam, par)


def members(mask, n):
    return {i for i in range(n) if (mask >> i) & 1}


def ref_sums_laws(dec):
    """The four laws, one root pair at a time, from ``pair_targets``."""
    rs = dec.subset.rs
    n = len(rs)
    P = members(dec.subset.bits, n)
    L = members(dec.levi_bits, n)
    Np = members(dec.nilradical_bits, n)
    Nm = set(range(n)) - P
    if L | Np != P or L & Np:
        return False
    for i in Np | Nm:  # (i) -N+ in N-, -N- in N+
        j = rs.neg[i]
        if j is not None and j not in (Nm if i in Np else Np):
            return False
    # (ii) L + N+- in N+-, (iii) L + L in L, (iv) N+ + N+ in N+, N- + N- in N-
    rules = [(L, L, L), (L, Np, Np), (L, Nm, Nm), (Np, Np, Np), (Nm, Nm, Nm)]
    for a in range(n):
        for b in range(n):
            for t in rs.pair_targets(a, b):
                for left, right, into in rules:
                    if a in left and b in right and t not in into:
                        return False
    return True


def ref_restriction(dec, indices):
    """P n Delta_a is Delta_a, or covers it, is closed in it and induces
    (L n Delta_a, N+ n Delta_a) as its symmetric decomposition."""
    rs = dec.subset.rs
    sub = set(indices)
    Pa = members(dec.subset.bits, len(rs)) & sub
    if Pa == sub:
        return True
    if any(i not in Pa and rs.neg[i] not in Pa for i in sub):
        return False
    if any(t in sub and t not in Pa
           for a in Pa for b in Pa for t in rs.pair_targets(a, b)):
        return False
    La = {i for i in Pa if rs.neg[i] in Pa}
    return (La == members(dec.levi_bits, len(rs)) & sub
            and Pa - La == members(dec.nilradical_bits, len(rs)) & sub)


def decompositions(rs):
    return [d for s in enumerate_parabolics(rs, "exhaustive")
            for d in levi_decompositions(s)]


def bits(rs, names):
    return sum(1 << rs.parse_root(s) for s in names)


@pytest.mark.parametrize("fam,par", SYSTEMS, ids=[f"{f}{p}" for f, p in SYSTEMS])
def test_laws_match_brute_force(fam, par):
    """Every Levi decomposition obeys the laws, and moving into N+ one root
    of L whose negation is a root breaks them, as the reference says."""
    rs = rsys(fam, par)
    decs = decompositions(rs)
    assert decs
    moved = 0
    for d in decs:
        assert sums_laws_hold(d) is ref_sums_laws(d) is True
        for i in members(d.levi_bits, len(rs)):
            if rs.neg[i] is None:  # -i lies in the lift only
                continue
            bad = LeviDecomposition(d.subset, d.levi_bits & ~(1 << i),
                                    d.nilradical_bits | 1 << i)
            assert sums_laws_hold(bad) is ref_sums_laws(bad) is False
            moved += 1
    assert moved


@pytest.mark.parametrize("fam,par", SYSTEMS, ids=[f"{f}{p}" for f, p in SYSTEMS])
def test_restriction_matches_brute_force(fam, par):
    """On every Levi decomposition and even factor the verdict is the
    reference's, True for the real decompositions; with one root of the
    factor moved from L into N+ it is False wherever P does not contain
    the whole factor.  A factor of one pair +-alpha has no root of L then,
    so only the systems with a bigger factor (p(3), W(3)) move one."""
    rs = rsys(fam, par)
    factors = even_factor_index_sets(rs)
    moved = 0
    for d in decompositions(rs):
        for idx in factors.values():
            assert restriction_compatible(d, idx) is ref_restriction(d, idx)
            assert restriction_compatible(d, idx)
            mask = sum(1 << i for i in idx)
            if d.subset.bits & mask == mask:
                continue
            for i in members(d.levi_bits & mask, len(rs)):
                bad = LeviDecomposition(d.subset, d.levi_bits & ~(1 << i),
                                        d.nilradical_bits | 1 << i)
                assert restriction_compatible(bad, idx) is False
                assert ref_restriction(bad, idx) is False
                moved += 1
    assert bool(moved) == any(len(idx) > 2 for idx in factors.values())


def test_unclosed_subset_fails_both():
    """W(3): a P that covers the gl(3) factor but is not closed in it,
    e1-e2 + e2-e3 = e1-e3 lying outside P."""
    rs = rsys("W", (3,))
    P = bits(rs, ["e1-e2", "e2-e3", "-e1+e3"])
    dec = LeviDecomposition(RootSubset(rs, P), 0, P)
    gl = even_factor_index_sets(rs)["gl"]
    assert sums_laws_hold(dec) is ref_sums_laws(dec) is False
    assert restriction_compatible(dec, gl) is ref_restriction(dec, gl) is False


def test_psl22_lift_pair_closure():
    """psl(2|2): a pair whose stored weights sum to no root, though two of
    their gl lifts do; P = {a, b} lacks that target, so it is not closed."""
    rs = rsys("psl", (2,))
    a, b = next((a, b) for a in range(len(rs)) for b in range(a, len(rs))
                if b != rs.neg[a] and rs.pair_targets(a, b)
                and rs.ambient_sum(a, b).kind == "not_root")
    P = 1 << a | 1 << b
    dec = LeviDecomposition(RootSubset(rs, P), 0, P)
    assert sums_laws_hold(dec) is ref_sums_laws(dec) is False
