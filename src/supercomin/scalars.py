"""Exact scalar arithmetic.

Everything in this package is computed over exact fields: plain rationals
(``int`` and ``fractions.Fraction``) for root coordinates, functionals and
matrix realizations, and the Gaussian rationals Q(i) for the Hamiltonian
superderivation bases, whose natural eigenvectors pair x_k with i*x_{k+l}.
"""

from __future__ import annotations

from fractions import Fraction

_RATIONAL = (int, Fraction)


class QI:
    """An element re + im*i of Q(i), exactly.

    Immutable.  ``re`` and ``im`` are kept as given (``int`` or
    ``Fraction``), so Gaussian-integer arithmetic stays on Python ints.
    Arithmetic never leaves the field, equality with 0 is decidable, and an
    element equal to a rational hashes like that rational.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re
        self.im = im

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(x) -> "QI":
        if isinstance(x, QI):
            return x
        if isinstance(x, _RATIONAL):
            return QI(x)
        raise TypeError(f"not an exact scalar: {x!r}")

    @staticmethod
    def i() -> "QI":
        return QI(0, 1)

    # -- ring ops ------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, QI):
            return QI(self.re + other.re, self.im + other.im)
        if isinstance(other, _RATIONAL):
            return QI(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, QI):
            return QI(self.re - other.re, self.im - other.im)
        if isinstance(other, _RATIONAL):
            return QI(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RATIONAL):
            return QI(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QI):
            a, b, c, d = self.re, self.im, other.re, other.im
            return QI(a * c - b * d, a * d + b * c)
        if isinstance(other, _RATIONAL):
            return QI(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QI":
        if not self:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        # 1/(a + bi) = (a - bi)/(a^2 + b^2)
        norm = Fraction(self.re * self.re + self.im * self.im)
        return QI(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        return self * QI.of(other).inverse()

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if isinstance(other, QI):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL):
            return self.re == other and not self.im
        return NotImplemented

    def __hash__(self):
        # a real element hashes like the equal int or Fraction
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
