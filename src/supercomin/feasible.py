"""Exact linear feasibility over the rationals via Fourier-Motzkin.

Constraints are rows ``(c_0, ..., c_{d-1}, k)`` of integers meaning
``sum c_i x_i + k >= 0``.  Strict homogeneous inequalities are scaled to
``>= 1`` / ``<= -1`` by the caller (valid by homogeneity of the systems this
package produces).  One engine, ``IncrementalFM``, eliminates exactly; face
enumeration drives it row by row, and ``feasible_witness`` recovers a
rational point from its per-variable levels by back substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _normalize(row):
    g = gcd(*row)
    if g > 1:
        row = tuple(c // g for c in row)
    return tuple(row)


def _combine(p, q, k):
    """Positive combination of p (c_k > 0) and q (c_k < 0) cancelling var k."""
    a, b = -q[k], p[k]
    return _normalize([a * pc + b * qc for pc, qc in zip(p, q)])


def feasible_witness(rows, dim):
    """A rational point satisfying every row, or None if the system is empty."""
    fm = IncrementalFM(dim)
    for r in rows:
        if not fm.add(r):
            return None
    levels = fm.levels
    x = [Fraction(0)] * dim
    for k in reversed(range(dim)):
        lo = hi = None
        for sign_rows, is_pos in ((levels[k][0], True), (levels[k][1], False)):
            for r in sign_rows:
                rest = r[dim] + sum(r[j] * x[j] for j in range(k + 1, dim))
                bound = Fraction(-rest, r[k])
                if is_pos:
                    lo = bound if lo is None or bound > lo else lo
                else:
                    hi = bound if hi is None or bound < hi else hi
        if lo is not None and hi is not None:
            if not lo <= hi:
                raise AssertionError(
                    f"back substitution: empty range [{lo}, {hi}] for x{k}")
            x[k] = (lo + hi) / 2
        elif lo is not None:
            x[k] = lo
        elif hi is not None:
            x[k] = hi
    for r in rows:
        if sum(c * v for c, v in zip(r, x)) + r[dim] < 0:
            raise AssertionError(f"witness {x} violates row {r}")
    return x


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
    ``levels[k] = (pos, neg)`` holds the rows whose first nonzero
    coefficient is that of variable k, positive or negative, which is what
    back substitution in ``feasible_witness`` reads.  ``clone()`` is cheap
    (copy of the per-level row lists) for depth-first sign-vector
    enumeration.  Only homogeneous-scaled integer rows are accepted.
    """

    __slots__ = ("dim", "levels", "seen", "alive")

    def __init__(self, dim: int):
        self.dim = dim
        self.levels = [([], []) for _ in range(dim)]
        self.seen = set()
        self.alive = True

    def clone(self) -> "IncrementalFM":
        out = IncrementalFM.__new__(IncrementalFM)
        out.dim = self.dim
        out.levels = [(list(p), list(n)) for p, n in self.levels]
        out.seen = set(self.seen)
        out.alive = self.alive
        return out

    def add(self, row) -> bool:
        """Insert a constraint; returns the updated feasibility flag."""
        if not self.alive:
            return False
        dim, levels, seen = self.dim, self.levels, self.seen
        stack = [(_normalize(row), 0)]
        while stack:
            r, k = stack.pop()
            if r in seen:
                continue
            seen.add(r)
            while k < dim and r[k] == 0:
                k += 1
            if k == dim:
                if r[dim] < 0:
                    self.alive = False
                    return False
                continue
            pos, neg = levels[k]
            if r[k] > 0:
                pos.append(r)
                stack.extend((_combine(r, q, k), k + 1) for q in neg)
            else:
                neg.append(r)
                stack.extend((_combine(p, r, k), k + 1) for p in pos)
        return True
