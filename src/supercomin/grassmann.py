"""Exact exterior (Grassmann) algebra on anticommuting generators x_1..x_n.

Monomials are bitmasks over generator slots 0..n-1 (bit i <-> x_{i+1}), kept
in ascending slot order; the sign of a product is the parity of the merge
permutation.  Coefficients may be ``int``, ``Fraction`` or any field object
with ``+``, ``*``, unary ``-`` and truthiness (see
:class:`supercomin.scalars.QI`); equal coefficients must hash alike, so that
equal elements do.
"""

from __future__ import annotations

from fractions import Fraction


def merge_sign(m1: int, m2: int) -> int:
    """Sign (+1/-1) of sorting the concatenation x^{m1} * x^{m2}.

    Counts inversions: pairs (a in m1, b in m2) with a > b.
    """
    inv = 0
    m = m1
    while m:
        low = m & -m
        # generators of m2 strictly below this generator of m1
        inv += bin(m2 & (low - 1)).count("1")
        m ^= low
    return -1 if inv & 1 else 1


class GrassmannElement:
    """A finite sum of monomials with nonzero coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for mask, coeff in terms.items() if isinstance(terms, dict) else terms:
                self._accumulate(mask, coeff)

    def _accumulate(self, mask, coeff):
        if not coeff:
            return
        cur = self.terms.get(mask)
        if cur is None:
            self.terms[mask] = coeff
        else:
            s = cur + coeff
            if s:
                self.terms[mask] = s
            else:
                del self.terms[mask]

    # -- constructors ---------------------------------------------------
    @classmethod
    def monomial(cls, n: int, mask: int, coeff=Fraction(1)):
        return cls(n, {mask: coeff})

    @classmethod
    def one(cls, n: int, field_one=Fraction(1)):
        return cls(n, {0: field_one})

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    # -- ring structure ---------------------------------------------------
    def __add__(self, other):
        out = GrassmannElement(self.n, dict(self.terms))
        for mask, c in other.terms.items():
            out._accumulate(mask, c)
        return out

    def __neg__(self):
        return GrassmannElement(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        if not k:
            return GrassmannElement.zero(self.n)
        return GrassmannElement(self.n, {m: c * k for m, c in self.terms.items()})

    def __mul__(self, other):
        out = GrassmannElement.zero(self.n)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue  # repeated generator squares to zero
                s = merge_sign(m1, m2)
                out._accumulate(m1 | m2, c1 * c2 if s > 0 else -(c1 * c2))
        return out

    # -- derivations ------------------------------------------------------
    def partial(self, slot: int) -> "GrassmannElement":
        """Left odd derivative d/dx_{slot+1}."""
        bit = 1 << slot
        out = GrassmannElement.zero(self.n)
        for mask, c in self.terms.items():
            if not (mask & bit):
                continue
            # sign: (-1)^(number of generators before slot)
            before = bin(mask & (bit - 1)).count("1")
            out._accumulate(mask ^ bit, c if before % 2 == 0 else -c)
        return out

    # -- queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted({bin(m).count("1") for m in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def parity(self):
        """Parity mod 2 of all monomials, or None if mixed."""
        ps = {bin(m).count("1") & 1 for m in self.terms}
        if not ps:
            return None
        if len(ps) > 1:
            raise ValueError("mixed-parity Grassmann element")
        return ps.pop()

    def __eq__(self, other):
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms):
            name = "".join(f"x{i + 1}" for i in range(self.n) if mask & (1 << i)) or "1"
            bits.append(f"({self.terms[mask]})*{name}")
        return " + ".join(bits)
