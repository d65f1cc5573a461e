"""Parabolic subsets of root systems and their Levi decompositions.

A subset P of a symmetric root system is parabolic when Delta = P u (-P)
and P is closed under root addition.  For nonsymmetric Delta the defining
object is a lift: a parabolic subset of Delta u (-Delta) restricting to P.
(The source text for this construction once writes the intersection where
the union is meant; the union is used throughout, matching the displayed
decomposition laws.)  Levi components and nilradicals come from lifts:
L = Ptilde n (-Ptilde) n Delta and N+ = (Ptilde \\ -Ptilde) n Delta, so a
nonsymmetric P can decompose in several ways.

Both definitions are one: a symmetric Delta has no extra weights, so its
only possible lift is P.  The lift rule is stated once, in ``_levi_groups``:
the lifts are the closed covering subsets of Delta u (-Delta), which one
``kernel`` search enumerates, grouped by their Delta-parts into
{P: sorted Levi bits}.  The exhaustive stream searches with nothing fixed
and seeds each subset it yields with its Levi bits; any other subset
searches with its Delta-part fixed to P on its first read
(``RootSubset.levi_masks``) and keeps the result.  P is parabolic exactly
when it has Levi bits, and every verdict reads them.

Subsets are bitmasks over root indices in canonical root order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import kernel
from .feasible import IncrementalFM, feasible_witness
from .rootsys import RootSystem, RootTable


class ImproperSubsetError(ValueError):
    """The whole root set is not a parabolic subset; callers must keep P proper."""


@dataclass(frozen=True)
class RootSubset:
    rs: RootSystem
    bits: int
    # the sorted Levi bits, seeded by the exhaustive stream or kept from the
    # first ``levi_masks`` read
    levis: tuple | None = field(default=None, compare=False, repr=False)

    def levi_masks(self) -> tuple:
        """The sorted Levi bits over the lifts of P, () when P is not
        parabolic; searched at most once per subset, within the kernel's
        node budget."""
        if self.levis is None:
            rs, bits = self.rs, self.bits
            groups = _levi_groups(rs, inside=bits,
                                  outside=((1 << len(rs)) - 1) & ~bits)
            object.__setattr__(self, "levis", groups.get(bits, ()))
        return self.levis

    def indices(self):
        return [i for i in range(len(self.rs)) if (self.bits >> i) & 1]

    def __contains__(self, i: int) -> bool:
        return bool((self.bits >> i) & 1)

    def __len__(self):
        return bin(self.bits).count("1")

    def root_strings(self):
        return [self.rs.root_str(i) for i in self.indices()]

    def __repr__(self):
        return f"RootSubset({{{', '.join(self.root_strings())}}})"


@dataclass(frozen=True)
class LeviDecomposition:
    subset: RootSubset
    levi_bits: int
    nilradical_bits: int

    @property
    def levi(self) -> RootSubset:
        return RootSubset(self.subset.rs, self.levi_bits)

    @property
    def nilradical(self) -> RootSubset:
        return RootSubset(self.subset.rs, self.nilradical_bits)


# ---------------------------------------------------------------------------
# closure tables


def closure_rows(rs: RootSystem):
    """rows[r] = tuple of (m, target_mask): targets forced when r and m lie in P."""
    return rs.table.closure_rows


# ---------------------------------------------------------------------------
# parabolicity


def parabolic_status(subset: RootSubset) -> str:
    """One of "improper", "parabolic", "not_parabolic".

    A proper P is parabolic exactly when it has a lift; for a symmetric
    system that is P itself, covering and closed.
    """
    if subset.bits == (1 << len(subset.rs)) - 1:
        return "improper"
    return "parabolic" if subset.levi_masks() else "not_parabolic"


def is_parabolic(subset: RootSubset) -> bool:
    status = parabolic_status(subset)
    if status == "improper":
        raise ImproperSubsetError("P = Delta is not a proper subset")
    return status == "parabolic"


# ---------------------------------------------------------------------------
# lifts


def _levi_groups(rs: RootSystem, inside=0, outside=0, prune_masks=None):
    """{P: sorted Levi bits} over the lifts that one kernel search finds,
    ascending in P: L = {i in P : -i in the lift}, read as P n neg(lift)
    through the image tables of the negation (``RootTable.neg_images``).
    ``inside`` and ``outside`` fix roots as ``kernel.enumerate_closed``
    does.  A symmetric system's only possible lift is P, and its closure
    rows keep the psl lift-pair closure.

    ``prune_masks`` (optional; bit b of entry a set when roots a, b are a
    forbidden nilradical pair) drops every P with a forbidden pair among
    its roots whose negations are roots of Delta outside P, one root with
    itself included.  Those roots depend on P alone, so either every lift
    of P is dropped or none, and a kept P has all its Levi bits."""
    full = (1 << len(rs)) - 1
    neg = rs.symmetrized().neg
    rows = closure_rows(rs) if rs.symmetric else rs.table.sym_rows
    prune = None
    if prune_masks is not None:
        # masks only between roots paired in Delta; an extra weight and a
        # root whose negation is one get none
        immovable = sum(1 << i for i, j in enumerate(rs.neg) if j is not None)
        prune = [prune_masks[i] & immovable if (immovable >> i) & 1 else None
                 for i in range(len(neg))]
    permute, neg_images = RootTable.permute, rs.table.neg_images
    groups = {}
    for lift in kernel.enumerate_closed(neg, rows, inside=inside,
                                        outside=outside, prune=prune):
        bits = lift & full
        groups.setdefault(bits, set()).add(bits & permute(neg_images, lift))
    return {bits: tuple(sorted(groups[bits])) for bits in sorted(groups)}


def levi_decompositions(subset: RootSubset):
    """All Levi decompositions of a parabolic subset, deduplicated.

    One per distinct (L, N+) pair over all parabolic lifts, ordered by the
    Levi bits: L = Ptilde n (-Ptilde) n Delta and N+ = P \\ L.  A symmetric
    system has exactly one, and a subset that is not parabolic none.
    """
    return [LeviDecomposition(subset, levi, subset.bits & ~levi)
            for levi in subset.levi_masks()]


# ---------------------------------------------------------------------------
# principal parabolic subsets


def evaluate(lam, weight) -> Fraction:
    """lam(weight) in exact rationals, the reference for the signs that
    ``principal_parabolic`` reads on integer weights."""
    return sum((Fraction(c) * Fraction(x) for c, x in zip(lam, weight)), Fraction(0))


def principal_parabolic(rs: RootSystem, lam):
    """P(lam) with the induced Levi decomposition, L = {lam = 0} and
    N+ = {lam > 0}; rejects P = Delta.  lam is read on the integer
    ``RootSystem.weights``, positive multiples of the root weights, so each
    sign is that of ``evaluate``, and no ``RootTable`` is built."""
    if len(lam) != len(rs.basis):
        raise ValueError("functional has wrong dimension")
    levi = nil = 0
    for i, w in enumerate(rs.weights):
        v = sum(c * x for c, x in zip(lam, w))
        if v == 0:
            levi |= 1 << i
        elif v > 0:
            nil |= 1 << i
    bits = levi | nil
    if bits == (1 << len(rs)) - 1:
        raise ImproperSubsetError("functional induces P = Delta")
    subset = RootSubset(rs, bits)
    return subset, LeviDecomposition(subset, levi, nil)


def principality_witness(subset: RootSubset):
    """Integer functional lam with P = {lam >= 0}, or None if there is none.

    The rows are ``fm_weights[i].lam >= 0`` on P and ``fm_weights[i].lam
    <= -1`` off P, each weight with its own denominators cleared, so an
    off-P root alpha gets alpha(lam) <= -1/d, d the product of its
    coordinates' denominators: -1/16 for F(4)'s odd roots, whose four
    coordinates are halves.  Scaling strict negativity this way loses
    nothing for the homogeneous system at hand.  Rows are dropped one at a
    time, in ``RootTable.implied_rows`` order, while a pair of rows still
    present implies them through a root sum, so the kept rows cut out the
    same polyhedron and give the same witness; ``feasible_witness``
    eliminates only those, one per direction, and checks every row.  Its
    point X / D is returned as the coprime integers X / gcd(X), a positive
    multiple of it.
    """
    rs, bits = subset.rs, subset.bits
    table = rs.table
    kept = (1 << len(rs)) - 1
    for i, inside, outside in table.implied_rows:
        if (bits >> i) & 1:
            live, pairs = kept & bits, inside
        else:
            live, pairs = kept & ~bits, outside
        for m in pairs:
            if m & live == m:
                kept ^= 1 << i
                break
    rows, implied = [], []
    for i, (inside, outside) in enumerate(table.witness_rows):
        row = inside if (bits >> i) & 1 else outside
        (rows if (kept >> i) & 1 else implied).append(row)
    rows.extend(table.fm_constraints)
    point = feasible_witness(rows, len(rs.basis), implied)
    if point is None:
        return None
    X = point[0]
    g = gcd(*X) or 1
    return tuple(v // g for v in X)


# ---------------------------------------------------------------------------
# enumeration


def _exhaustive_masks(rs: RootSystem, prune_masks=None):
    """{P: sorted Levi bits} over the proper parabolic subsets, ascending,
    from one lift search with nothing fixed, pruned as ``_levi_groups``
    prunes; the search is refused past the kernel's node budget."""
    groups = _levi_groups(rs, prune_masks=prune_masks)
    groups.pop((1 << len(rs)) - 1, None)
    return groups


def _face_masks(rs: RootSystem):
    """The values P(lam) over all faces of the root hyperplane arrangement,
    ascending, Delta itself left out.

    Sign vectors over the distinct root hyperplanes (``RootTable.hyperplanes``)
    are extended one hyperplane at a time with Fourier-Motzkin pruning: lam
    is zero on it, positive or negative.  A root, its negative and its
    collinear multiples (delta and 2 delta in osp) share one hyperplane, so
    one choice fixes the sign of all of them.  The search is unpruned: it
    is the second engine that the exhaustive==principal checks of
    ``verify.run_paper_suite`` and the reference tests hold the lift search
    against.  Neither ``classify`` nor ``verify.oracle_counts`` reads it.

    A hyperplane whose sign two earlier ones force takes that one branch,
    and no Fourier-Motzkin clone or row: every other branch is empty.  The
    sign is forced when rep_h = a rep_i + b rep_j
    (``RootTable.plane_relations``) and the terms a lam.rep_i, b lam.rep_j
    are not of opposite signs: it is 0 when both are 0, else the sign of a
    nonzero one.  The row left out is implied only up to scale ((1,0) =
    1/2 (1,1) + 1/2 (1,-1) gives lam.(1,0) > 0, not >= 1), so the scaled
    system the engine holds differs from the one that adds every row.  The
    set of lam with the chosen strict signs does not differ, and it is a
    cone, so by homogeneity the scaled system of every later node is
    feasible exactly when the full one is, and the masks are the same.
    """
    dim = len(rs.basis)
    table = rs.table
    planes = table.hyperplanes
    relations = table.plane_relations
    base_fm = IncrementalFM(dim)
    for row in table.fm_constraints:
        base_fm.add(row)
    full = (1 << len(rs)) - 1
    found = set()
    signs = [0] * len(planes)

    def forced(h):
        # the sign of lam.rep_h that the signs of two earlier planes fix
        for i, j, sa, sb in relations[h]:
            s, t = sa * signs[i], sb * signs[j]
            if s >= 0 and t >= 0 or s <= 0 and t <= 0:
                return s or t
        return None

    # per plane, the branches lam = 0, > 0, < 0 on it, so that a sign s
    # indexes its own branch: (sign, roots made >= 0, rows added)
    branches = []
    for rep, pos, neg in planes:
        minus = tuple(-c for c in rep)
        branches.append(((0, pos | neg, (rep + (0,), minus + (0,))),
                         (1, pos, (rep + (-1,),)), (-1, neg, (minus + (-1,),))))

    def rec(h, fm, ge_mask):
        if h == len(planes):
            if ge_mask != full:
                found.add(ge_mask)
            return
        sign = forced(h)
        for s, side, rows in branches[h] if sign is None else (branches[h][sign],):
            branch = fm
            if sign is None:
                branch = fm.clone()
                if not all(branch.add(row) for row in rows):
                    continue
            signs[h] = s
            rec(h + 1, branch, ge_mask | side)

    rec(0, base_fm, 0)
    del rec  # rec's closure refers to rec: drop the cycle, not leave it to gc
    return sorted(found)


def enumerate_parabolics(rs: RootSystem, method="exhaustive", prune_masks=None):
    """Stream of parabolic subsets in canonical bitmask order: the subsets
    of one lift search (3^pairs state search with closure propagation),
    each seeded with its Levi bits.  ``method`` names that search, the
    only one; any other value raises ``ValueError``.

    ``prune_masks`` (optional; bit b of entry a set when roots a, b are a
    forbidden nilradical pair) prunes the stream: a subset goes when two
    of its roots whose negations are roots outside it form a forbidden
    pair, one root alone included.  Those roots lie in the nilradical of
    every decomposition, so no dropped subset is cominuscule; the stream
    then yields a superset of the cominuscule subsets.

    The search raises ``CapExceeded`` past the node budget
    ``kernel.NODE_CAP``.  That budget, not |Delta|, is what bounds the
    stream: it runs on any system that ``rootsys.ROOT_CAP`` lets be built,
    and either finishes or stops at the budget.  The face search
    ``_face_masks`` is the independent second engine that the
    exhaustive==principal checks of ``verify`` hold this stream against;
    ``verify.oracle_counts`` reads this stream alone.
    """
    if method != "exhaustive":
        raise ValueError(f"unknown method {method!r}")
    for bits, levis in _exhaustive_masks(rs, prune_masks).items():
        yield RootSubset(rs, bits, levis)
