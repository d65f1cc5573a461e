import random
import warnings
from fractions import Fraction

import pytest

from supercomin import weyl
from supercomin.parabolic import enumerate_parabolics
from supercomin.rootsys import CapExceeded, RootTable, build_root_system
from supercomin.verify import EXPECTED_ORBITS

# the 26 table instances and three past the table
INSTANCES = [(f, p) for f, p, _ in EXPECTED_ORBITS] + [
    ("W", (4,)), ("H", (7,)), ("psl", (4,))]


def rsys(fam, par):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_root_system(fam, par)


def _identity(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def _mat_mul(a, b):
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def group_order(gens) -> int:
    """Order of the generated matrix group (BFS closure)."""
    if not gens:
        return 1
    d = len(gens[0])
    els = {_identity(d)}
    frontier = [_identity(d)]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = _mat_mul(g, a)
                if c not in els:
                    els.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(els)


@pytest.mark.parametrize("fam,par,kind,order", [
    ("sl", (3, 2), "even_weyl", 12),
    ("psl", (3,), "even_weyl", 36),
    ("osp", (5, 2), "even_weyl", 16),     # B2 x C1
    ("osp", (4, 2), "even_weyl", 8),      # D2 x C1
    ("osp", (2, 4), "even_weyl", 8),      # C2
    ("D21a", (), "even_weyl", 8),
    ("D21a", (), "extended", 48),
    ("F4", (), "even_weyl", 96),
    ("G3", (), "even_weyl", 24),
    ("psq", (4,), "even_weyl", 24),
    ("p", (3,), "even_weyl", 6),
    ("W", (3,), "levi_weyl", 6),
    ("S", (4,), "levi_weyl", 24),
    ("H", (5,), "levi_weyl", 8),          # B2
    ("H", (6,), "levi_weyl", 24),         # D3
])
def test_group_orders(fam, par, kind, order):
    gens = weyl.generators(rsys(fam, par), kind)
    assert group_order(gens) == order


def test_generators_permute_roots():
    for fam, par in [("F4", ()), ("G3", ()), ("H", (6,)), ("psl", (2,)),
                     ("S", (3,)), ("p", (3,))]:
        rs = rsys(fam, par)
        for m in weyl.generators(rs, "auto"):
            perm = weyl.root_permutation(rs, m)
            assert sorted(perm) == list(range(len(rs)))


def test_cartan_even_weyl_rejected():
    with pytest.raises(ValueError):
        weyl.generators(rsys("W", (3,)), "even_weyl")


def test_canonical_rep_invariance_and_idempotence():
    rs = rsys("sl", (2, 1))
    gens = weyl.generators(rs, "auto")
    for P in enumerate_parabolics(rs, "exhaustive"):
        rep = weyl.canonical_rep(rs, P.bits, gens)
        assert weyl.canonical_rep(rs, rep, gens) == rep
        for m in gens:
            assert weyl.canonical_rep(rs, weyl.act(rs, m, P.bits), gens) == rep


def test_identity_and_involution():
    rs = rsys("p", (2,))
    gens = weyl.generators(rs, "auto")
    swap = gens[0]
    bits = 0b1011 & ((1 << len(rs)) - 1)
    assert weyl.act(rs, swap, weyl.act(rs, swap, bits)) == bits


def test_orbit_partition_distinct_classes():
    # psq(3): P(1) and P(2) lie in distinct orbits
    from supercomin.classify import expected_entries
    rs = rsys("psq", (3,))
    gens = weyl.generators(rs, "auto")
    e1, e2 = expected_entries(rs)
    part = weyl.orbit_partition(rs, [e1.bits, e2.bits], gens)
    assert len(part) == 2
    # osp(2|4): P(0) and -P(0) lie in distinct orbits
    rs = rsys("osp", (2, 4))
    gens = weyl.generators(rs, "auto")
    entries = {e.name: e for e in expected_entries(rs)}
    part = weyl.orbit_partition(
        rs, [entries["P(0)"].bits, entries["-P(0)"].bits], gens)
    assert len(part) == 2


def test_orbit_cap(monkeypatch):
    """The orbit cap is read when an orbit is formed."""
    rs = rsys("psl", (3,))
    gens = weyl.generators(rs, "auto")
    some = next(enumerate_parabolics(rs, "exhaustive")).bits
    monkeypatch.setattr(weyl, "ORBIT_CAP", 1)
    with pytest.raises(CapExceeded, match="^orbit exceeds cap 1$"):
        weyl.orbit(rs, some, gens)


def fraction_permutation(rs, m):
    """Reference: m applied to each root's Fraction weight, with the image
    found by ``class_of``."""
    return tuple(rs.class_of(tuple(sum(Fraction(c) * x
                                       for c, x in zip(row, r.weight))
                                   for row in m))
                 for r in rs.roots)


def naive_act(perm, bits):
    return sum(1 << perm[i] for i in range(len(perm)) if (bits >> i) & 1)


@pytest.mark.parametrize("fam,par", INSTANCES, ids=str)
def test_integer_permutations_and_image_tables(fam, par):
    """The integer root permutation equals the Fraction-matrix reference,
    and ``weyl.act`` through its nibble image tables equals the bit-by-bit
    image on every single-root mask and on 50 seeded random masks."""
    rs = rsys(fam, par)
    rng = random.Random(len(rs))
    masks = [1 << i for i in range(len(rs))]
    masks += [rng.getrandbits(len(rs)) for _ in range(50)]
    for m in weyl.generators(rs):
        perm = weyl.root_permutation(rs, m)
        assert perm == fraction_permutation(rs, m)
        for bits in masks:
            assert weyl.act(rs, m, bits) == naive_act(perm, bits)
        assert rs.table.perms[m][0] == perm


@pytest.mark.parametrize("fam,par", INSTANCES, ids=str)
def test_negation_tables_give_the_levi_bits(fam, par):
    """P n neg(lift) through ``RootTable.neg_images`` gives the Levi bits
    the per-root loop {i in P : -i in the lift} gives, on the single-weight
    masks and 50 seeded random masks of Delta u (-Delta)."""
    rs = rsys(fam, par)
    neg = rs.symmetrized().neg
    full = (1 << len(rs)) - 1
    rng = random.Random(len(neg))
    lifts = [1 << i for i in range(len(neg))]
    lifts += [rng.getrandbits(len(neg)) for _ in range(50)]
    for lift in lifts:
        bits = lift & full
        loop = sum(1 << i for i in range(len(rs))
                   if (bits >> i) & 1 and (lift >> neg[i]) & 1)
        assert bits & RootTable.permute(rs.table.neg_images, lift) == loop


def test_non_group_matrix_escapes():
    """A matrix that maps a root off the root set (2 times the identity)
    raises ``RootEscapeError``, for the permutation and the action alike."""
    rs = rsys("sl", (2, 1))
    double = tuple(tuple(2 if i == j else 0 for j in range(len(rs.basis)))
                   for i in range(len(rs.basis)))
    with pytest.raises(weyl.RootEscapeError, match="is not a root"):
        weyl.root_permutation(rs, double)
    with pytest.raises(weyl.RootEscapeError):
        weyl.act(rs, double, 1)
