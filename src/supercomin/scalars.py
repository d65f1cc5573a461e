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
    The operations are those the H(n) superbrackets and root-space audit
    use: ``+``, ``-`` and ``*`` with another element or a rational, unary
    ``-``, the zero test ``bool`` and ``==``.  An element equal to a
    rational hashes like that rational.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re
        self.im = im

    # -- constructors -------------------------------------------------
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
