"""Exact linear feasibility over the rationals via Fourier-Motzkin.

Constraints are rows ``(c_0, ..., c_{d-1}, k)`` of integers meaning
``sum c_i x_i + k >= 0``.  Strict homogeneous inequalities are scaled to
``>= 1`` / ``<= -1`` by the caller (valid by homogeneity of the systems this
package produces).  One engine, ``IncrementalFM``, eliminates exactly; face
enumeration drives it row by row, and ``feasible_witness`` recovers a
rational point from its per-variable levels by back substitution.  Back
substitution and the closing check of every row are integer-exact: the
point is kept as integer numerators over one positive common denominator,
and only the returned point is built as ``Fraction``s.

The engine keeps only rows that can still bound a face.  Each row carries
its history, the set of original rows it was combined from, and a row
derived after eliminating k variables from more than k + 1 original rows
is dropped (Chernikov's rule: S. N. Chernikov, "The convolution of finite
systems of linear inequalities", 1965; see also J.-L. Imbert, "Fourier's
elimination: which to choose?", 1993).  At the last variable only the
tightest lower and upper bound are kept.  Neither changes the projection
onto (x_k, ..., x_{d-1}) for any k, so back substitution sees the same
interval for every variable as with plain elimination.

A caller may split its system into ``rows``, which are eliminated, and
``implied`` rows that follow from them, which only the closing check reads.
``parabolic.principality_witness`` passes as implied each root row that a
root sum derives from rows still eliminated (``RootTable.implied_rows``).
The kept rows then cut out the same polyhedron as all rows, and the point
back substitution returns depends on the polyhedron alone: x_k is the
midpoint (or the one finite end, or 0) of the fiber over the coordinates
already set.  So the witness is the one the full system gives, and a row
wrongly passed as implied fails the closing check instead of going unseen.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul


def _normalize(row):
    g = gcd(*row)
    if g > 1:
        row = tuple(c // g for c in row)
    return tuple(row)


def _combine(p, q, k):
    """Positive combination of p (c_k > 0) and q (c_k < 0) cancelling var k."""
    a, b = -q[k], p[k]
    return _normalize([a * pc + b * qc for pc, qc in zip(p, q)])


def feasible_witness(rows, dim, implied=()):
    """A rational point satisfying every row, or None if the system is empty.

    Only ``rows`` are eliminated; the ``implied`` rows must follow from
    them, and the closing check, which raises ``AssertionError`` on any
    violated row, reads them too.
    """
    fm = IncrementalFM(dim)
    for r in rows:
        if not fm.add(r):
            return None
    # The point is X / D: integer numerators over one positive denominator.
    # X[j] is 0 until x_j is set, and a row of level k has r[j] == 0 for
    # j < k, so sum(map(mul, r, X)) sums over the variables already set.
    # A bound -(r.X + r[dim] D) / (r[k] D) on x_k is kept as (num, den)
    # with den = |r[k]| > 0, over the common factor D.
    X = [0] * dim
    D = 1
    for k in reversed(range(dim)):
        pos, neg = fm.levels[k]
        lo = hi = None
        for r in pos:
            num, den = -sum(map(mul, r, X)) - r[dim] * D, r[k]
            if lo is None or num * lo[1] > lo[0] * den:
                lo = (num, den)
        for r in neg:
            num, den = sum(map(mul, r, X)) + r[dim] * D, -r[k]
            if hi is None or num * hi[1] < hi[0] * den:
                hi = (num, den)
        if lo is not None and hi is not None:
            (a, b), (c, d) = lo, hi
            if a * d > c * b:
                raise AssertionError(
                    f"back substitution: empty range "
                    f"[{a}/{b * D}, {c}/{d * D}] for x{k}")
            p, q = a * d + c * b, 2 * b * d
        elif lo is not None or hi is not None:
            p, q = lo or hi
        else:
            continue
        # x_k = p / (q D): rescale to the denominator q D, then reduce
        D *= q
        X = [v * q for v in X]
        X[k] = p
        g = gcd(D, *X)
        if g > 1:
            D //= g
            X = [v // g for v in X]
    for r in chain(rows, implied):
        if sum(map(mul, r, X)) + r[dim] * D < 0:
            raise AssertionError(f"witness {X}/{D} violates row {r}")
    return [Fraction(v, D) for v in X]


def clear_denominators(x):
    """Scale a rational vector to coprime integers (empty-safe)."""
    denom = 1
    for v in x:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in x]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


class IncrementalFM:
    """Fourier-Motzkin state that accepts constraints one at a time.

    The package's only elimination engine.  ``add`` cascades the new row
    and all its eliminations, and ``alive`` reports feasibility so far;
    ``levels[k] = (pos, neg)`` holds the kept rows whose first nonzero
    coefficient is that of variable k, positive or negative, which is what
    back substitution in ``feasible_witness`` reads.  The last level holds
    at most one row of each sign, the tightest bound on x_{d-1}; a new bound
    there only has to be checked against the one opposite bound.

    ``seen`` maps every kept row above the last level to its histories:
    bitmasks over the original rows in the order they were added (``count``
    of them so far), one per derivation the row was kept for, none inside
    another.  The last level needs none, as its bounds are only ever
    combined into constants.  A row combined while eliminating x_k has had
    k + 1 variables eliminated and is dropped when its history has more
    than k + 2 bits; every extreme combination, and so every row the
    projection needs, has at most that many.  A row reached again is kept
    for the new history too, unless one of its histories lies inside the
    new one, whose combinations are then all made with histories no
    larger.  Keeping only the first history of a row is not enough: on the
    systems in ``tests/test_feasible.py`` it loses a bound.  A row sits in
    its level once and is combined with each opposite row once per pair of
    histories.  An original row that is already kept adds nothing.
    ``clone()`` copies the level lists and ``seen`` for depth-first
    sign-vector enumeration.  Only homogeneous-scaled integer rows are
    accepted.
    """

    __slots__ = ("dim", "levels", "seen", "alive", "count")

    def __init__(self, dim: int):
        self.dim = dim
        self.levels = [([], []) for _ in range(dim)]
        self.seen = {}
        self.alive = True
        self.count = 0

    def clone(self) -> "IncrementalFM":
        out = IncrementalFM.__new__(IncrementalFM)
        out.dim = self.dim
        out.levels = [(list(p), list(n)) for p, n in self.levels]
        out.seen = dict(self.seen)
        out.alive = self.alive
        out.count = self.count
        return out

    def add(self, row) -> bool:
        """Insert a constraint; returns the updated feasibility flag."""
        if not self.alive:
            return False
        dim, levels, seen = self.dim, self.levels, self.seen
        last = dim - 1
        r = _normalize(row)
        if r in seen:
            return True
        stack = [(r, 0, 1 << self.count)]
        self.count += 1
        while stack:
            r, k, h = stack.pop()
            while k < dim and r[k] == 0:
                k += 1
            if k == dim:
                if r[dim] < 0:
                    self.alive = False
                    return False
                continue
            pos, neg = levels[k]
            old = seen.get(r)
            if old is not None:
                if any(m & ~h == 0 for m in old):
                    continue
                seen[r] = (*[m for m in old if h & ~m], h)
            elif k == last:
                if r[k] > 0:
                    if pos and pos[0][dim] * r[k] <= r[dim] * pos[0][k]:
                        continue
                    if neg and r[k] * neg[0][dim] < neg[0][k] * r[dim]:
                        self.alive = False
                        return False
                    pos[:] = [r]
                else:
                    if neg and neg[0][dim] * r[k] >= r[dim] * neg[0][k]:
                        continue
                    if pos and pos[0][k] * r[dim] < r[k] * pos[0][dim]:
                        self.alive = False
                        return False
                    neg[:] = [r]
                continue
            else:
                (pos if r[k] > 0 else neg).append(r)
                seen[r] = (h,)
            # eliminating x_k leaves rows with k + 1 variables eliminated
            bound = k + 2
            if r[k] > 0:
                for q in neg:
                    c = None
                    for g in seen[q]:
                        g |= h
                        if g.bit_count() <= bound:
                            if c is None:
                                c = _combine(r, q, k)
                            stack.append((c, k + 1, g))
            else:
                for p in pos:
                    c = None
                    for g in seen[p]:
                        g |= h
                        if g.bit_count() <= bound:
                            if c is None:
                                c = _combine(p, r, k)
                            stack.append((c, k + 1, g))
        return True
