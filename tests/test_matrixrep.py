from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from supercomin.matrixrep import MatrixSuperElement

F = Fraction

values = st.one_of(st.integers(-3, 3),
                   st.fractions(-3, 3, max_denominator=4))


@st.composite
def block_elements(draw, m, n, parity):
    """A random element of gl(m|n) of the given parity, about half zeros."""
    d = m + n
    entries = {}
    for i in range(d):
        for j in range(d):
            if ((i < m) != (j < m)) == bool(parity) and draw(st.booleans()):
                entries[i, j] = draw(values)
    return MatrixSuperElement(m, n, entries, parity)


@st.composite
def bracket_pairs(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    px, py = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return draw(block_elements(m, n, px)), draw(block_elements(m, n, py))


def dense(x):
    d = x.m + x.n
    return [[x.entries.get((i, j), 0) for j in range(d)] for i in range(d)]


def dense_bracket(x, y):
    """XY - (-1)^{|X||Y|} YX by full matrix products."""
    a, b = dense(x), dense(y)
    d = len(a)
    sign = -1 if (x.parity and y.parity) else 1
    return [[sum(a[i][k] * b[k][j] for k in range(d))
             - sign * sum(b[i][k] * a[k][j] for k in range(d))
             for j in range(d)] for i in range(d)]


@given(bracket_pairs())
def test_sparse_bracket_matches_dense_product(pair):
    x, y = pair
    br = x.bracket(y)
    assert dense(br) == dense_bracket(x, y)
    assert br.parity == (x.parity + y.parity) % 2
    assert all(br.entries.values())  # zeros are never stored
    assert br.is_zero() == (not any(map(any, dense_bracket(x, y))))


def test_unit_brackets():
    e12 = MatrixSuperElement.unit(1, 1, 0, 1)
    e21 = MatrixSuperElement.unit(1, 1, 1, 0)
    assert e12.parity == e21.parity == 1
    # two odd units anticommute into the identity of gl(1|1)
    ident = e12.bracket(e21)
    assert ident.entries == {(0, 0): 1, (1, 1): 1}
    assert ident.is_multiple_of_identity() and ident.supertrace() == 0
    assert e12.bracket(e12).is_zero()


def test_wrong_shape_and_parity_rejected():
    with pytest.raises(ValueError, match="shape"):
        MatrixSuperElement(2, 1, {(3, 0): 1}, 0)
    with pytest.raises(ValueError, match="shape"):
        MatrixSuperElement(2, 1, {(0, -1): 1}, 0)
    with pytest.raises(ValueError, match="parity"):
        MatrixSuperElement(2, 1, {(0, 2): 1}, 0)  # odd entry, even element
    with pytest.raises(ValueError, match="parity"):
        MatrixSuperElement(2, 1, {(0, 1): 1}, 1)  # even entry, odd element
    # a stored zero violates nothing
    assert MatrixSuperElement(2, 1, {(0, 2): 0}, 0).is_zero()
    with pytest.raises(ValueError, match="parity"):
        MatrixSuperElement.zero(2, 1, 0).add(MatrixSuperElement.zero(2, 1, 1))


def test_is_multiple_of_identity():
    assert MatrixSuperElement.zero(2, 2).is_multiple_of_identity()
    scalar = MatrixSuperElement(2, 2, {(i, i): F(3, 2) for i in range(4)}, 0)
    assert scalar.is_multiple_of_identity()
    diag = MatrixSuperElement(2, 2, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 2}, 0)
    assert not diag.is_multiple_of_identity()
    # d nonzero entries, but not all on the diagonal
    skew = MatrixSuperElement(2, 2, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (0, 1): 1}, 0)
    assert not skew.is_multiple_of_identity()
    partial = MatrixSuperElement(2, 2, {(0, 0): 1, (1, 1): 1}, 0)
    assert not partial.is_multiple_of_identity()


def test_supertrace():
    x = MatrixSuperElement(2, 1, {(0, 0): 3, (1, 1): F(1, 2), (2, 2): 5, (0, 1): 7}, 0)
    assert x.supertrace() == F(-3, 2)
    assert MatrixSuperElement.zero(2, 1).supertrace() == 0
    # str [X, Y] = 0 for every pair of homogeneous elements
    a = MatrixSuperElement(1, 1, {(0, 1): 2}, 1)
    b = MatrixSuperElement(1, 1, {(1, 0): 3}, 1)
    assert a.bracket(b).entries == {(0, 0): 6, (1, 1): 6}
    assert a.bracket(b).supertrace() == 0
