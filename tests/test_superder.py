from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supercomin.superder import SuperDerivation, merge_sign, partial

F = Fraction
N = 4

masks = st.integers(min_value=0, max_value=(1 << N) - 1)
coeffs = st.fractions(max_denominator=4)
elements = st.dictionaries(masks, coeffs, max_size=4).map(
    lambda terms: {m: c for m, c in terms.items() if c})


def d(a, slot):
    """The left odd derivative d/dx_{slot+1} of ``{mask: coeff}``."""
    return {m ^ 1 << slot: partial(m, slot) * c for m, c in a.items()
            if partial(m, slot)}


def wedge(a, b):
    """The product of two Grassmann elements given as ``{mask: coeff}``."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if not m1 & m2:  # a repeated generator squares to zero
                m = m1 | m2
                out[m] = out.get(m, 0) + merge_sign(m1, m2) * c1 * c2
    return {m: c for m, c in out.items() if c}


def plus(a, b, k=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + k * c
    return {m: c for m, c in out.items() if c}


def test_merge_sign_small():
    # x2 * x1 = -x1 x2
    assert merge_sign(0b10, 0b01) == -1
    assert merge_sign(0b01, 0b10) == 1
    assert merge_sign(0b101, 0b010) == -1  # x1x3 * x2: one transposition


def test_partial_sign_rule():
    assert partial(0b010, 1) == 1     # d2 x2 = 1
    assert partial(0b011, 1) == -1    # d2 x1x2 = -x1
    assert partial(0b111, 2) == 1     # d3 x1x2x3 = x1x2
    assert partial(0b101, 1) == 0     # x2 does not divide x1x3


def test_square_zero_and_anticommute():
    x1, x2 = {0b01: 1}, {0b10: 1}
    assert wedge(x1, x1) == {}
    assert wedge(x1, x2) == {0b11: 1} and wedge(x2, x1) == {0b11: -1}


@settings(max_examples=40)
@given(elements, elements, elements)
def test_associativity(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@given(elements)
def test_partials_anticommute(a):
    for s in range(N):
        assert d(d(a, s), s) == {}
        for t in range(s + 1, N):
            assert d(d(a, s), t) == plus({}, d(d(a, t), s), -1)


def test_leibniz_on_monomials():
    for m1 in range(1 << N):
        for m2 in range(1 << N):
            a, b = {m1: 1}, {m2: 1}
            for slot in range(N):
                sign = -1 if m1.bit_count() % 2 else 1
                rhs = plus(wedge(d(a, slot), b), wedge(a, d(b, slot)), sign)
                assert d(wedge(a, b), slot) == rhs


def test_parity_errors():
    # x1 d1 is even, d1 odd
    with pytest.raises(ValueError):
        SuperDerivation(2, {(0b01, 0): 1}, 1)
    with pytest.raises(ValueError):
        SuperDerivation(2, {(0b01, 0): 1, (0, 1): 1}, 0)
    with pytest.raises(ValueError):
        SuperDerivation.term(2, 0b01, 0, 1).add(SuperDerivation.term(2, 0, 1, 1))


# -- a reference action on Lambda(n), independent of merge_sign --------------
#
# A Grassmann element is {sorted tuple of generators: coeff}; the sign of a
# word in the generators is the parity of its inversions, counted directly.


def sort_word(word):
    """(sorted tuple, sign) of a product of generators, or None if one repeats."""
    if len(set(word)) < len(word):
        return None
    inv = sum(1 for a in range(len(word)) for b in range(a + 1, len(word))
              if word[a] > word[b])
    return tuple(sorted(word)), (-1) ** inv


def act(x, f):
    """x(f): each term c x^I d_j takes x_j off the front of a monomial, after
    moving it past the generators before it, and multiplies by x^I on the left."""
    out = {}
    for (imask, j), c in x.terms.items():
        xi = [k for k in range(x.n) if imask >> k & 1]
        for mono, e in f.items():
            if j not in mono:
                continue
            pos = mono.index(j)
            hit = sort_word(xi + list(mono[:pos] + mono[pos + 1:]))
            if hit is not None:
                key, s = hit
                out[key] = out.get(key, 0) + (-1) ** pos * s * c * e
    return {m: c for m, c in out.items() if c}


def monomials(n):
    return [tuple(k for k in range(n) if mask >> k & 1) for mask in range(1 << n)]


def assert_bracket_is_composition(x, y):
    """[X, Y] = X.Y - (-1)^{|X||Y|} Y.X as operators on every monomial."""
    br = x.bracket(y)
    assert br.parity == (x.parity + y.parity) % 2
    assert all(br.terms.values())  # zeros are never stored
    sign = -1 if (x.parity and y.parity) else 1
    for mono in monomials(x.n):
        f = {mono: 1}
        direct = act(x, act(y, f))
        for m, c in act(y, act(x, f)).items():
            direct[m] = direct.get(m, 0) - sign * c
        assert act(br, f) == {m: c for m, c in direct.items() if c}


@st.composite
def derivations(draw, n, parity):
    """A random element of W(n) of the given parity, up to five terms."""
    keys = [(mask, j) for mask in range(1 << n) for j in range(n)
            if (mask.bit_count() + 1) % 2 == parity]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=5, unique=True))
    return SuperDerivation(n, {k: draw(st.integers(-3, 3)) for k in chosen}, parity)


@st.composite
def derivation_pairs(draw):
    n = draw(st.integers(1, 4))
    px, py = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return draw(derivations(n, px)), draw(derivations(n, py))


@settings(max_examples=200)
@given(derivation_pairs())
def test_bracket_matches_operator_composition(pair):
    assert_bracket_is_composition(*pair)


def test_superderivation_bracket_matches_operator_composition():
    cases = [
        (SuperDerivation.term(3, 0b001, 1, F(1)),   # x1 d2 (even)
         SuperDerivation.term(3, 0b010, 0, F(1))),  # x2 d1 (even)
        (SuperDerivation.term(3, 0b011, 2, F(1)),   # x1x2 d3 (odd)
         SuperDerivation.term(3, 0b100, 0, F(1))),  # x3 d1 (even)
        (SuperDerivation.term(3, 0b110, 0, F(1)),   # x2x3 d1 (odd)
         SuperDerivation.term(3, 0b101, 1, F(2))),  # x1x3 d2 (odd)
        (SuperDerivation.term(3, 0, 0, F(1)),       # d1 (odd)
         SuperDerivation.term(3, 0b111, 2, F(1))),  # x1x2x3 d3 (even)
    ]
    for x, y in cases:
        assert_bracket_is_composition(x, y)


def test_bracket_self_odd_is_twice_square():
    d1 = SuperDerivation.term(3, 0, 0, F(1))
    assert d1.bracket(d1).is_zero()
    x = SuperDerivation.term(3, 0b110, 0, F(1))  # x2x3 d1, odd
    br = x.bracket(x)
    for mono in monomials(3):
        f = {mono: 1}
        assert act(br, f) == {m: 2 * c for m, c in act(x, act(x, f)).items()}
