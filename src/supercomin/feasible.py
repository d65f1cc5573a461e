"""Exact linear feasibility over the rationals via Fourier-Motzkin.

Constraints are rows ``(c_0, ..., c_{d-1}, k)`` of integers meaning
``sum c_i x_i + k >= 0``.  Strict homogeneous inequalities are scaled to
``>= 1`` / ``<= -1`` by the caller (valid by homogeneity of the systems this
package produces).  One engine, ``IncrementalFM``, eliminates exactly, and
``IncrementalFM.point`` recovers a rational point from its per-variable
levels by back substitution.  Face enumeration, the second engine of
``verify``'s agreement checks, drives the engine row by row and reads only
whether it stays alive; ``feasible_witness`` builds one engine per system
and checks its point against every row.  The point is
integer numerators X over one positive common denominator D, in lowest
terms, returned as ``(X, D)``: back substitution and the closing check of
every row are integer-exact, and no ``Fraction`` is built.

The engine keeps only rows that can still bound a face.  Each row carries
its history, the set of original rows it was combined from, and a row
derived after eliminating k variables from more than k + 1 original rows
is dropped (Chernikov's rule: S. N. Chernikov, "The convolution of finite
systems of linear inequalities", 1965; see also J.-L. Imbert, "Fourier's
elimination: which to choose?", 1993).  At the last variable only the
tightest lower and upper bound are kept.  Neither changes the projection
onto (x_k, ..., x_{d-1}) for any k, so back substitution sees the same
interval for every variable as with plain elimination.

``feasible_witness`` eliminates one row per direction.  Of rows whose
coefficient parts are positive multiples of each other, such as
lam(alpha) >= 0 beside lam(alpha) >= 1 or the rows of delta and 2 delta
in osp, only the tightest goes to the engine: the one with the least
constant after dividing by the gcd of its coefficients.  It implies the
others, so the rows eliminated cut out the same polyhedron.

A caller may split its system into ``rows``, which are eliminated, and
``implied`` rows that follow from them, which only the closing check reads.
``parabolic.principality_witness`` passes as implied each root row that a
root sum derives from rows still eliminated (``RootTable.implied_rows``).
The kept rows then cut out the same polyhedron as all rows, and the point
back substitution returns depends on the polyhedron alone: x_k is the
midpoint (or the one finite end, or 0) of the fiber over the coordinates
already set.  So the witness is the one the full system gives, and a row
wrongly passed as implied, or wrongly dropped as parallel to a tighter one,
fails the closing check, which reads every row, instead of going unseen.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import mul


def _normalize(row):
    g = gcd(*row)
    if g > 1:
        row = tuple(c // g for c in row)
    return tuple(row)


def _combine(p, q, k):
    """|q_k| p + |p_k| q, normalized: cancels var k if p_k, q_k differ in sign."""
    a, b = abs(q[k]), abs(p[k])
    return _normalize([a * pc + b * qc for pc, qc in zip(p, q)])


def feasible_witness(rows, dim, implied=()):
    """A point satisfying every row as ``(X, D)``, or None if there is none.

    The point is X / D: a list of integer numerators over one positive
    denominator, in lowest terms.  Of rows whose coefficient parts are
    positive multiples of each other only the tightest is eliminated.
    Only ``rows`` are eliminated; the ``implied`` rows must follow from
    them, and the closing check, which raises ``AssertionError`` on any
    violated row, reads them too.
    """
    # one row per direction: the one with the least constant over the gcd
    # of its coefficients (a constant-only row has direction 0 and gcd 1)
    tightest = {}
    for r in rows:
        key = tuple(r[:dim])
        g = gcd(*key) or 1
        if g > 1:
            key = tuple(c // g for c in key)
        kept = tightest.get(key)
        if kept is None or r[dim] * kept[1] < kept[0][dim] * g:
            tightest[key] = (r, g)
    fm = IncrementalFM(dim)
    for r, _ in tightest.values():
        if not fm.add(r):
            return None
    X, D = fm.point()
    for r in chain(rows, implied):
        if sum(map(mul, r, X)) + r[dim] * D < 0:
            raise AssertionError(f"witness {X}/{D} violates row {r}")
    return X, D


class IncrementalFM:
    """Fourier-Motzkin state that accepts constraints one at a time.

    The package's only elimination engine.  ``add`` cascades the new row
    and all its eliminations, and ``alive`` reports feasibility so far;
    ``levels[k] = (pos, neg)`` holds the kept rows whose first nonzero
    coefficient is that of variable k, positive or negative, which is what
    back substitution in ``point`` reads.  The last level holds at most
    one row of each sign, the tightest bound on x_{d-1}.  Every row that
    reaches it, or becomes a constant, goes through ``_last_bound``, which
    checks it against the one opposite bound only.

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

    def point(self):
        """A point of the rows added so far, as ``(X, D)``, by back
        substitution over ``levels``; the state must be alive.

        x_k is the midpoint of its interval over the coordinates already
        set, or the one finite end, or 0.  The point is X / D, integer
        numerators over one positive denominator, in lowest terms.  An
        empty interval raises ``AssertionError``.  The state is only read.
        """
        dim = self.dim
        # X[j] is 0 until x_j is set, and a row of level k has r[j] == 0 for
        # j < k, so sum(map(mul, r, X)) sums over the variables already set.
        # A bound -(r.X + r[dim] D) / (r[k] D) on x_k is kept as (num, den)
        # with den = |r[k]| > 0, over the common factor D.
        X = [0] * dim
        D = 1
        for k in reversed(range(dim)):
            pos, neg = self.levels[k]
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
        return X, D

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
            if k >= last:
                # a bound on x_{d-1} alone, or a constant when k == dim
                if not self._last_bound(r, r[k] if k == last else 0):
                    return False
                continue
            pos, neg = levels[k]
            old = seen.get(r)
            if old is not None:
                if any(m & ~h == 0 for m in old):
                    continue
                seen[r] = (*[m for m in old if h & ~m], h)
            else:
                (pos if r[k] > 0 else neg).append(r)
                seen[r] = (h,)
            # eliminating x_k leaves rows with k + 1 variables eliminated
            bound = k + 2
            for q in (neg if r[k] > 0 else pos):
                c = None
                for g in seen[q]:
                    g |= h
                    if g.bit_count() <= bound:
                        if c is None:
                            c = _combine(r, q, k)
                        stack.append((c, k + 1, g))
        return True

    def _last_bound(self, row, coef) -> bool:
        """Take ``row``, ``coef x_{d-1} + const >= 0``, into the last level.

        It replaces the kept bound of its sign if it is tighter, and is
        dropped otherwise; False, with the system dead, if it contradicts
        the opposite bound or is a negative constant.
        """
        dim = self.dim
        const = row[dim]
        if coef == 0:
            if const < 0:
                self.alive = False
            return self.alive
        pos, neg = self.levels[-1]
        if coef > 0:
            if pos and pos[0][dim] * coef <= const * pos[0][dim - 1]:
                return True
            if neg and coef * neg[0][dim] < neg[0][dim - 1] * const:
                self.alive = False
                return False
            pos[:] = [row]
        else:
            if neg and neg[0][dim] * coef >= const * neg[0][dim - 1]:
                return True
            if pos and pos[0][dim - 1] * const < coef * pos[0][dim]:
                self.alive = False
                return False
            neg[:] = [row]
        return True
