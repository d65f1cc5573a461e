from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from supercomin.scalars import QI
from supercomin.superder import SuperDerivation

small = st.fractions(max_denominator=6)
elements = st.builds(QI, small, small)
gaussian_ints = st.builds(QI, st.integers(-4, 4), st.integers(-4, 4))
rationals = st.one_of(st.integers(-4, 4), small)
scalars = st.one_of(elements, gaussian_ints, rationals,
                    rationals.map(QI))


@given(elements, elements, elements)
def test_field_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == QI()
    assert a - b == a + (-b)


@given(elements, rationals)
def test_mixed_with_rationals(a, q):
    assert a + q == q + a == a + QI(q)
    assert a * q == q * a == a * QI(q)
    assert a - q == a - QI(q) and q - a == QI(q) - a


@given(gaussian_ints, gaussian_ints)
def test_gaussian_integers_stay_ints(a, b):
    for z in (a + b, a - b, a * b, -a, 3 * a):
        assert type(z.re) is int and type(z.im) is int


@given(scalars, scalars)
def test_equal_implies_equal_hash(x, y):
    if x == y:
        assert hash(x) == hash(y)
    assert (x == y) == (y == x)


def test_real_elements_hash_like_rationals():
    assert QI(1) == 1 and hash(QI(1)) == hash(1)
    assert {QI(1)} == {1} == {Fraction(1)}
    assert hash(QI(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert SuperDerivation.term(2, 1, 0, QI(1)) == SuperDerivation.term(2, 1, 0, 1)


def test_special_elements():
    i = QI.i()
    assert i * i == QI(-1) == -1
    assert i * -i == 1
    assert QI(1, 1) * QI(1, -1) == 2


def test_non_scalars_rejected():
    with pytest.raises(TypeError):
        QI(1) + "1"
    assert QI(1) != "1"
