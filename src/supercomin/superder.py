"""Superderivations of the Grassmann algebra: elements sum_j p_j d/dx_j.

A derivation with every coefficient p_j homogeneous of one global parity is
parity-homogeneous; the superbracket of two such is

    [X, Y] = sum_j X(q_j) d/dx_j  -  (-1)^{|X||Y|} sum_i Y(p_i) d/dx_i.
"""

from __future__ import annotations

from .grassmann import GrassmannElement


class SuperDerivation:
    __slots__ = ("n", "components", "parity")

    def __init__(self, n: int, components: dict, parity: int):
        """components maps slot j -> GrassmannElement p_j (zero entries dropped).

        ``parity`` is the parity of the derivation; every monomial of p_j must
        have degree congruent to parity + 1 mod 2.
        """
        self.n = n
        self.components = {}
        for j, p in components.items():
            if p is not None and not p.is_zero():
                for deg in p.degrees():
                    if (deg - 1) % 2 != parity % 2:
                        raise ValueError("coefficient parity inconsistent with declared parity")
                self.components[j] = p
        self.parity = parity % 2

    @classmethod
    def zero(cls, n: int, parity: int = 0):
        return cls(n, {}, parity)

    @classmethod
    def term(cls, n: int, coeff_mask: int, slot: int, coeff):
        p = GrassmannElement.monomial(n, coeff_mask, coeff)
        parity = (bin(coeff_mask).count("1") - 1) % 2
        return cls(n, {slot: p}, parity)

    def is_zero(self) -> bool:
        return not self.components

    def apply(self, g: GrassmannElement) -> GrassmannElement:
        out = GrassmannElement.zero(self.n)
        for j, p in self.components.items():
            for mask, c in (p * g.partial(j)).terms.items():
                out._accumulate(mask, c)
        return out

    def add(self, other: "SuperDerivation") -> "SuperDerivation":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.parity != other.parity:
            raise ValueError("sum of derivations of different parity")
        comps = dict(self.components)
        for j, p in other.components.items():
            q = comps.get(j)
            comps[j] = p if q is None else q + p
        return SuperDerivation(self.n, comps, self.parity)

    def scale(self, k) -> "SuperDerivation":
        return SuperDerivation(
            self.n, {j: p.scale(k) for j, p in self.components.items()}, self.parity
        )

    def bracket(self, other: "SuperDerivation") -> "SuperDerivation":
        sign = -1 if (self.parity and other.parity) else 1
        comps: dict = {}

        def acc(j, val):
            cur = comps.get(j)
            comps[j] = val if cur is None else cur + val

        for j, q in other.components.items():
            acc(j, self.apply(q))
        for i, p in self.components.items():
            v = other.apply(p)  # subtract sign * Y(p_i)
            acc(i, v.scale(-1) if sign > 0 else v)
        comps = {j: p for j, p in comps.items() if not p.is_zero()}
        return SuperDerivation(self.n, comps, (self.parity + other.parity) % 2)

    def __eq__(self, other):
        return (
            self.n == other.n
            and self.parity == other.parity
            and self.components == other.components
        )

    def __repr__(self):
        if not self.components:
            return "0"
        return " + ".join(f"[{p!r}] d{j + 1}" for j, p in sorted(self.components.items()))
