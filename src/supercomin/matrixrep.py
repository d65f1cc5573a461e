"""Matrix superalgebra elements: exact sparse block matrices with a parity.

Elements live in gl(m|n): even means supported on the diagonal blocks, odd
on the off-diagonal ones.  The superbracket is XY - (-1)^{|X||Y|} YX.

An element stores only its nonzero entries, as ``{(i, j): value}`` with
exact ``int`` or ``Fraction`` values kept as given.  Root vectors and torus
elements have one to four nonzeros, so products run over nonzero entries
only.
"""

from __future__ import annotations


class MatrixSuperElement:
    __slots__ = ("m", "n", "entries", "parity")

    def __init__(self, m, n, entries, parity):
        self.m = m
        self.n = n
        self.entries = {ij: x for ij, x in entries.items() if x}
        self.parity = parity % 2
        d = m + n
        for i, j in self.entries:
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError("block matrix has wrong shape")
            if ((i < m) != (j < m)) != bool(self.parity):
                raise ValueError("entries violate the declared parity")

    @classmethod
    def zero(cls, m, n, parity=0):
        return cls(m, n, {}, parity)

    @classmethod
    def unit(cls, m, n, i, j, value=1):
        return cls(m, n, {(i, j): value}, 0 if (i < m) == (j < m) else 1)

    def is_zero(self):
        return not self.entries

    def add(self, other):
        if self.parity != other.parity:
            raise ValueError("sum of elements of different parity")
        out = dict(self.entries)
        for ij, x in other.entries.items():
            out[ij] = out.get(ij, 0) + x
        return MatrixSuperElement(self.m, self.n, out, self.parity)

    def scale(self, k):
        return MatrixSuperElement(
            self.m, self.n, {ij: k * x for ij, x in self.entries.items()},
            self.parity)

    def bracket(self, other):
        sign = -1 if (self.parity and other.parity) else 1
        out = {}
        for (i, k), x in self.entries.items():
            for (p, j), y in other.entries.items():
                if k == p:  # XY[i, j] += X[i, k] Y[k, j]
                    out[i, j] = out.get((i, j), 0) + x * y
                if j == i:  # YX[p, k] += Y[p, i] X[i, k]
                    out[p, k] = out.get((p, k), 0) - sign * (y * x)
        return MatrixSuperElement(self.m, self.n, out,
                                  (self.parity + other.parity) % 2)

    def is_multiple_of_identity(self):
        if not self.entries:
            return True
        d = self.m + self.n
        c = self.entries.get((0, 0))
        # zeros are dropped, so d equal diagonal entries leave no room for
        # an off-diagonal one
        return (c is not None and len(self.entries) == d
                and all(self.entries.get((i, i)) == c for i in range(1, d)))

    def supertrace(self):
        return sum(self.entries.get((i, i), 0) for i in range(self.m)) - sum(
            self.entries.get((self.m + k, self.m + k), 0) for k in range(self.n))

    def __eq__(self, other):
        return (self.m, self.n, self.parity, self.entries) == (
            other.m, other.n, other.parity, other.entries)

    def __repr__(self):
        return f"MatrixSuperElement({self.m}|{self.n}, parity={self.parity})"
