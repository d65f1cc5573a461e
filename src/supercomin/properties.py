"""Decomposition laws and restriction compatibility checks.

These are the directly assertable set statements attached to every Levi
decomposition (closure laws relating L and N+/-), the compatibility of
restriction to reductive subsystems, and Weyl invariance of verdicts.
"""

from __future__ import annotations

from . import weyl
from .cominuscule import is_cominuscule
from .parabolic import LeviDecomposition, RootSubset, principality_witness
from .rootsys import RootSystem


def sums_laws_hold(dec: LeviDecomposition) -> bool:
    """The four closure laws over L and N+/- (N- = Delta minus P)."""
    rs = dec.subset.rs
    n = len(rs)
    P = dec.subset.bits
    L, Np = dec.levi_bits, dec.nilradical_bits
    Nm = ((1 << n) - 1) & ~P
    if L | Np != P or L & Np:
        return False
    rows = rs.table.closure_rows

    def reach(i, side):
        """Roots forced by i together with some root of ``side``."""
        acc = 0
        for j, targets in rows[i]:
            if (side >> j) & 1:
                acc |= targets
        return acc

    for i in range(n):
        # (i) negation of a nilradical root lies in the opposite nilradical
        j = rs.neg[i]
        if j is not None and not (L >> i) & 1:
            opposite = Nm if (Np >> i) & 1 else Np
            if not (opposite >> j) & 1:
                return False
        if (L >> i) & 1:
            # (iii) L + L in L; (ii) L + N+- in N+-
            if reach(i, L) & ~L or reach(i, Np) & ~Np or reach(i, Nm) & ~Nm:
                return False
        else:
            # (iv) N+ + N+ in N+, N- + N- in N-
            side = Np if (Np >> i) & 1 else Nm
            if reach(i, side) & ~side:
                return False
    return True


def even_factor_index_sets(rs: RootSystem):
    """Reductive subsystems of the even part (or of its distinguished Levi),
    as root-index lists, keyed by a label."""
    fam = rs.family
    kinds = [k for k, _ in rs.basis]

    def support_kinds(w):
        return {kinds[i] for i, c in enumerate(w) if c != 0}

    factors = {}
    if fam in ("W", "S", "Sprime"):
        idx = [i for i, r in enumerate(rs.roots)
               if sorted(c for c in r.weight if c != 0) == [-1, 1]]
        return {"gl": idx}
    if fam == "H":
        idx = [i for i, r in enumerate(rs.roots)
               if sum(abs(c) for c in r.weight) <= 2]
        return {"so": idx}
    if fam == "psq":
        return {"sl": list(range(len(rs)))}
    if fam == "p":
        return {"sl": [i for i, r in enumerate(rs.roots) if r.even_dim]}
    if fam == "D21a":
        return {f"sl2_{k}": [i for i, r in enumerate(rs.roots)
                             if r.even_dim and support_kinds(r.weight) == {"g"}
                             and r.weight[k] != 0]
                for k in range(3)}
    for name, kind in (("e", "e"), ("d", "d"), ("g", "g")):
        idx = [i for i, r in enumerate(rs.roots)
               if r.even_dim and support_kinds(r.weight) == {kind}]
        if idx:
            factors[name] = idx
    return factors


def restriction_compatible(dec: LeviDecomposition, indices) -> bool:
    """Restriction law to a symmetric subsystem: P n Delta_a is the whole
    subsystem or parabolic in it, with (L n Delta_a, N+ n Delta_a) its
    (unique) Levi decomposition."""
    rs = dec.subset.rs
    mask = 0
    for i in indices:
        mask |= 1 << i
    Pa = dec.subset.bits & mask
    if Pa == mask:
        return True
    iset = set(indices)
    # covering inside the subsystem
    for i in indices:
        j = rs.neg[i]
        if j is None or j not in iset:
            raise ValueError("restriction target must be a symmetric subsystem")
        if not (Pa >> i) & 1 and not (Pa >> j) & 1:
            return False
    # closure inside the subsystem
    rows = rs.table.closure_rows
    for i in indices:
        if not (Pa >> i) & 1:
            continue
        for j, targets in rows[i]:
            if (Pa >> j) & 1 and targets & mask & ~Pa:
                return False
    # the induced decomposition must be the symmetric one
    La = 0
    for i in indices:
        if (Pa >> i) & 1 and (Pa >> rs.neg[i]) & 1:
            La |= 1 << i
    return La == dec.levi_bits & mask and (Pa & ~La) == dec.nilradical_bits & mask


def weyl_invariance_holds(rs: RootSystem, subset, gens) -> bool:
    """Parabolicity, principality, and the cominuscule verdict are constant
    along the orbit of a subset under the given generators.  ``subset`` is
    a ``RootSubset`` or its bits."""
    if not isinstance(subset, RootSubset):
        subset = RootSubset(rs, subset)

    def verdicts(s):
        v = is_cominuscule(s)
        if not v.decompositions:  # not parabolic
            return None
        return v.is_cominuscule, principality_witness(s) is not None

    base = verdicts(subset)
    return all(verdicts(RootSubset(rs, weyl.act(rs, m, subset.bits))) == base
               for m in gens)
