"""Superderivations of the Grassmann algebra, as sparse monomial terms.

W(n) = Der Lambda(n) has the basis x^I d/dx_j over subsets I of the
generator slots 0..n-1 and slots j.  An element stores only its nonzero
terms, as ``{(I, j): c}`` with I a bitmask (bit i <-> x_{i+1}), meaning
sum c x^I d/dx_j.  A term has parity |I| + 1 mod 2, and every term of an
element has the element's parity.

Monomials x^I are kept in ascending slot order, so every sign is the parity
of a permutation: ``merge_sign`` sorts a product x^I x^J, and ``partial``
moves x_i to the front of x^J before taking it off.  The superbracket of
x^I d_i and x^J d_j is then closed-form,

    [x^I d_i, x^J d_j] = x^I d_i(x^J) d_j - (-1)^{|X||Y|} x^J d_j(x^I) d_i,

with x^I d_i(x^J) = partial(J, i) merge_sign(I, J \\ i) x^{I u J \\ i}, or
zero when I meets J \\ i.  Coefficients are ``int`` or ``Fraction``.
"""

from __future__ import annotations


def merge_sign(m1: int, m2: int) -> int:
    """Sign (+1/-1) of sorting the concatenation x^{m1} * x^{m2}.

    Counts inversions: pairs (a in m1, b in m2) with a > b.
    """
    inv = 0
    m = m1
    while m:
        low = m & -m
        # generators of m2 strictly below this generator of m1
        inv += (m2 & (low - 1)).bit_count()
        m ^= low
    return -1 if inv & 1 else 1


def partial(mask: int, slot: int) -> int:
    """d/dx_{slot+1} x^mask = partial(mask, slot) x^{mask minus slot}.

    The sign is (-1)^(generators before the slot); 0 when x_{slot+1} does
    not divide x^mask.
    """
    bit = 1 << slot
    if not mask & bit:
        return 0
    return -1 if (mask & (bit - 1)).bit_count() & 1 else 1


def _act(I: int, i: int, J: int):
    """(mask, sign) of x^I d_i applied to x^J, or None when it vanishes."""
    s = partial(J, i)
    if not s:
        return None
    rest = J ^ (1 << i)
    if I & rest:
        return None
    return I | rest, s * merge_sign(I, rest)


class SuperDerivation:
    __slots__ = ("n", "terms", "parity")

    def __init__(self, n: int, terms: dict, parity: int):
        """terms maps (I, j) -> c for c x^I d/dx_j (zero entries dropped).

        ``parity`` is the parity of the derivation; every term must have
        |I| + 1 congruent to it mod 2.
        """
        self.n = n
        self.terms = {key: c for key, c in terms.items() if c}
        self.parity = parity % 2
        for mask, _ in self.terms:
            if (mask.bit_count() + 1) % 2 != self.parity:
                raise ValueError("term parity inconsistent with declared parity")

    @classmethod
    def term(cls, n: int, coeff_mask: int, slot: int, coeff):
        return cls(n, {(coeff_mask, slot): coeff}, coeff_mask.bit_count() + 1)

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "SuperDerivation") -> "SuperDerivation":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.parity != other.parity:
            raise ValueError("sum of derivations of different parity")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return SuperDerivation(self.n, out, self.parity)

    def scale(self, k) -> "SuperDerivation":
        return SuperDerivation(
            self.n, {key: c * k for key, c in self.terms.items()}, self.parity)

    def bracket(self, other: "SuperDerivation") -> "SuperDerivation":
        sign = -1 if (self.parity and other.parity) else 1
        out = {}
        for (I, i), c in self.terms.items():
            for (J, j), d in other.terms.items():
                hit = _act(I, i, J)  # X(q_j) d_j
                if hit:
                    key = (hit[0], j)
                    out[key] = out.get(key, 0) + hit[1] * (c * d)
                hit = _act(J, j, I)  # minus sign * Y(p_i) d_i
                if hit:
                    key = (hit[0], i)
                    out[key] = out.get(key, 0) - sign * hit[1] * (d * c)
        return SuperDerivation(self.n, out, (self.parity + other.parity) % 2)

    def __eq__(self, other):
        return (self.n, self.parity, self.terms) == (
            other.n, other.parity, other.terms)

    def __repr__(self):
        return f"SuperDerivation({self.n}, {self.terms!r}, parity={self.parity})"
