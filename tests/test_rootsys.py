import tracemalloc
import warnings
from fractions import Fraction

import pytest

from supercomin.rootsys import (ParameterError, RootTable, SumOutcome,
                                build_root_system, parse_weight, root_count,
                                weight_str, wneg)
from supercomin.verify import EXPECTED_ORBITS

F = Fraction


def rsys(fam, par):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_root_system(fam, par)


# closed-form counts, computed independently of the builders
def count_sl(m, n):
    return m * (m - 1) + n * (n - 1) + 2 * m * n


def count_osp(M, N):
    m, n = M // 2, N // 2
    c = 2 * m * (m - 1) + 2 * n * (n - 1) + 2 * n + 4 * m * n
    if M % 2:
        c += 2 * m + 2 * n
    return c


def count_W(n):
    return n * 2 ** (n - 1) + 2 ** n - 2


def count_S(n):
    return n * 2 ** (n - 1) + 2 ** n - n - 2


@pytest.mark.parametrize("fam,par,count", [
    ("sl", (2, 1), 6),
    ("sl", (3, 2), count_sl(3, 2)),
    ("psl", (2,), 8),
    ("psl", (3,), 30),
    ("osp", (3, 2), count_osp(3, 2)),
    ("osp", (5, 2), count_osp(5, 2)),
    ("osp", (1, 4), count_osp(1, 4)),
    ("osp", (6, 2), 26),
    ("D21a", (), 14),
    ("F4", (), 36),
    ("G3", (), 28),
    ("psq", (4,), 12),
    ("p", (3,), 2 * 9 - 3),
    ("W", (3,), count_W(3)),
    ("W", (4,), count_W(4)),
    ("S", (3,), count_S(3)),
    ("S", (4,), count_S(4)),
    ("Sprime", (4,), count_S(4)),
    ("H", (5,), 3 ** 2 - 1),
    ("H", (6,), 3 ** 3 - 1),
])
def test_root_counts(fam, par, count):
    assert len(rsys(fam, par)) == count


ROOT_COUNT_GRID = (
    [("sl", (m, n)) for m in range(1, 5) for n in range(1, 5) if m != n]
    + [("psl", (n,)) for n in (2, 3, 4)]
    + [("osp", (M, N)) for M in range(1, 8) for N in (2, 4, 6)]
    + [("osp_odd", (1, 1)), ("osp_odd", (2, 3)), ("osp1", (2,)),
       ("osp_even", (2, 1)), ("osp_even", (3, 2)), ("osp2", (3,))]
    + [("D21a", ()), ("F4", ()), ("G3", ())]
    + [("psq", (n,)) for n in (3, 4, 5)] + [("p", (n,)) for n in (2, 3, 4, 5)]
    + [("W", (n,)) for n in (2, 3, 4, 5)] + [("S", (n,)) for n in (3, 4, 5)]
    + [("Sprime", (4,)), ("Sprime", (6,))] + [("H", (n,)) for n in range(5, 10)])


def test_root_count_matches_build():
    # the count that the root cap and `choose_method` read before a build
    for fam, par in ROOT_COUNT_GRID:
        assert root_count(fam, par) == len(rsys(fam, par)), (fam, par)


def test_symmetry_flags():
    # basic classical families are symmetric; the strange/Cartan series are
    # not, except H(n) and the degenerate W(2) ~ sl(2|1)
    for fam, par in [("sl", (2, 1)), ("psl", (2,)), ("osp", (4, 2)),
                     ("D21a", ()), ("F4", ()), ("G3", ()), ("psq", (3,)),
                     ("H", (5,)), ("H", (6,)), ("W", (2,))]:
        assert rsys(fam, par).symmetric, fam
    for fam, par in [("p", (2,)), ("p", (3,)), ("W", (3,)), ("W", (4,)),
                     ("S", (3,)), ("S", (4,)), ("Sprime", (4,))]:
        assert not rsys(fam, par).symmetric, fam


def test_even_odd_disjoint_with_known_exceptions():
    # psq has Delta_even == Delta_odd; so does H(n) for odd n, whose root
    # spaces mix parities.  Everywhere else the parts are disjoint.
    for fam, par, disjoint in [
        ("sl", (2, 1), True), ("osp", (4, 2), True), ("W", (3,), True),
        ("S", (4,), True), ("H", (6,), True),
        ("psq", (3,), False), ("H", (5,), False),
    ]:
        rs = rsys(fam, par)
        both = [i for i, r in enumerate(rs.roots) if r.even_dim and r.odd_dim]
        if disjoint:
            assert not both, fam
        else:
            assert len(both) == len(rs), fam


def test_w3_examples():
    rs = rsys("W", (3,))
    eIj = [r for r in rs.roots if min(r.weight) == -1]
    eI = [r for r in rs.roots if min(r.weight) >= 0]
    assert len(eIj) == 12 and len(eI) == 6
    # -e_{1,2} is not a root: the system is not symmetric
    assert rs.index_of((F(-1), F(-1), F(0))) is None
    assert rs.dim_root_spaces() == 21  # plus 3 Cartan = 24 = dim W(3)


def test_sl21_and_osp12_examples():
    rs = rsys("sl", (2, 1))
    expect = {"e1-e2", "-e1+e2", "e1-d1", "-e1+d1", "e2-d1", "-e2+d1"}
    assert {rs.root_str(i) for i in range(len(rs))} == expect
    # the parser accepts either term order
    assert rs.parse_root("d1-e1") == rs.parse_root("-e1+d1")
    rs = rsys("osp", (1, 2))
    assert {rs.root_str(i) for i in range(len(rs))} == {"2d1", "-2d1", "d1", "-d1"}
    assert rs.symmetric


def test_p2_examples():
    rs = rsys("p", (2,))
    names = {rs.root_str(i) for i in range(len(rs))}
    assert names == {"e1-e2", "-e1+e2", "e1+e2", "-e1-e2", "2e1", "2e2"}
    sym = rs.symmetrized()
    assert len(sym) == 8
    assert sym.weights[:6] == tuple(r.weight for r in rs.roots)
    assert all(rs.index_of(w) is None for w in sym.weights[6:])


def test_ambient_sum_examples():
    rs = rsys("psl", (3,))
    a, b = rs.parse_root("e1-d1"), rs.parse_root("e2-d2")
    out = rs.ambient_sum(a, b)
    assert out.kind == "not_root"
    assert rs.projected_sum_in_delta(a, b)  # equals d3-e3 after projection
    assert not rs.projected_sum_in_delta(rs.parse_root("e1-d1"),
                                         rs.parse_root("e1-d2"))

    rs = rsys("sl", (2, 1))
    out = rs.ambient_sum(rs.parse_root("e1-e2"), rs.parse_root("e2-d1"))
    assert out.kind == "in_delta" and rs.root_str(out.index) == "e1-d1"

    rs = rsys("S", (3,))
    out = rs.ambient_sum(rs.parse_root("-e1"), rs.parse_root("-e2"))
    assert out.kind == "not_root"
    out = rs.ambient_sum(rs.parse_root("e2"), rs.parse_root("e3"))
    assert out.kind == "ambient_only"  # e2+e3 is a W(3) root, removed in S(3)


def test_psl22_quotient_example():
    rs = rsys("psl", (2,))
    # e1-d1 and -e2+d2 lift to the same class; psl(2|2) carries (0|2) spaces
    k = rs.parse_root("e1-d1")
    assert k == rs.parse_root("-e2+d2")
    assert rs.roots[k].odd_dim == 2
    assert rs.parse_root("e1-e2") != k
    a = rs.parse_root("e1-e2")
    assert rs.projected_sum_in_delta(a, k) in (True, False)
    # every gl lift parses to its class, a weight in no class is refused
    assert sum(len(ls) == 2 for ls in rs.lifts) == 4
    for i, lifts in enumerate(rs.lifts):
        for w in lifts:
            assert rs.parse_root(weight_str(w, rs.basis)) == i
    with pytest.raises(ValueError, match="is not a root"):
        rs.parse_root("e1+d1")


def test_ambient_sum_commutative():
    for fam, par in [("sl", (2, 1)), ("S", (3,)), ("psl", (2,)), ("p", (3,))]:
        rs = rsys(fam, par)
        for a in range(len(rs)):
            for b in range(a, len(rs)):
                assert rs.ambient_sum(a, b) == rs.ambient_sum(b, a)
                assert rs.pair_targets(a, b) == rs.pair_targets(b, a)


def test_serialization_roundtrip():
    for fam, par in [("F4", ()), ("G3", ()), ("D21a", ()), ("W", (3,)),
                     ("psl", (2,)), ("osp", (5, 2))]:
        rs = rsys(fam, par)
        for i in range(len(rs)):
            s = rs.root_str(i)
            assert rs.parse_root(s) == i
    rs = rsys("F4", ())
    w = parse_weight("1/2(e1+e2+e3-g1)", rs.basis)
    assert weight_str(w, rs.basis) == "1/2(e1+e2+e3-g1)"
    assert weight_str(wneg(w), rs.basis) == "1/2(-e1-e2-e3+g1)"


def test_parameter_errors():
    for fam, par in [("sl", (2, 2)), ("sl", (0, 1)), ("psq", (2,)),
                     ("H", (4,)), ("Sprime", (5,)), ("S", (2,)),
                     ("osp", (4, 3)), ("W", (1,)), ("nosuch", (1,)),
                     ("sl", (2,)), ("H", (5, 1))]:
        with pytest.raises(ParameterError):
            build_root_system(fam, par)
        with pytest.raises(ParameterError):
            root_count(fam, par)


def test_p2_warns():
    with pytest.warns(UserWarning):
        build_root_system("p", (2,))


def test_build_root_system_memoized():
    # one shared system per normalized (family, params); the p(2) warning
    # fires on every call, cached or not
    with pytest.warns(UserWarning, match=r"p\(2\)"):
        first = build_root_system("p", (2,))
    with pytest.warns(UserWarning, match=r"p\(2\)"):
        second = build_root_system("p", (2,))
    assert first is second
    assert build_root_system("osp_odd", (1, 1)) is build_root_system("osp", (3, 2))
    assert build_root_system("osp1", (2,)) is build_root_system("osp", (1, 4))
    assert build_root_system("sl", [2, 1]) is build_root_system("sl", (2, 1))
    rs = build_root_system("W", (3,))
    assert rs.table is rs.table


def _bit(mask, i):
    return bool((mask >> i) & 1)


# the paper's table, then systems past it: S(5) has ambient-only sums, and
# W(5) and S(5) many extra negations in their symmetrized sets
TABLE_SYSTEMS = ([(f, p) for f, p, _ in EXPECTED_ORBITS]
                 + [("W", (5,)), ("S", (5,)), ("H", (7,)), ("psl", (4,))])


@pytest.mark.parametrize("fam,par", TABLE_SYSTEMS,
                         ids=[f"{f}{p}" for f, p in TABLE_SYSTEMS])
def test_table_matches_fraction_weights(fam, par):
    """Every pair of the sparse table and every point query, recomputed
    here from the Fraction weights: integer scaling, pair targets over all
    lift pairs, ambient sums (S/S' ambient-only included), closure rows,
    forbidden masks under both readings of the S' rule, and the
    symmetrized sums."""
    rs = rsys(fam, par)
    t = rs.table
    n = len(rs)
    assert t.denom == (2 if fam in ("D21a", "F4", "G3") else 1)
    for r, iw in zip(rs.roots, t.weights):
        assert all(isinstance(c, int) for c in iw)
        assert tuple(F(c, t.denom) for c in iw) == r.weight

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    cls = {w: i for i, ls in enumerate(rs.lifts) for w in ls}
    minus_eps = [fam == "Sprime" and sum(r.weight) == -1
                 and all(c in (0, -1) for c in r.weight) for r in rs.roots]
    targets = [[0] * n for _ in range(n)]
    lift_only = ambient_only = 0
    for a in range(n):
        for b in range(n):
            for la in rs.lifts[a]:
                for lb in rs.lifts[b]:
                    k = cls.get(add(la, lb))
                    if k is not None:
                        targets[a][b] |= 1 << k
            assert rs.pair_targets(a, b) == tuple(
                k for k in range(n) if _bit(targets[a][b], k))
            w = add(rs.roots[a].weight, rs.roots[b].weight)
            if w in cls:
                want = SumOutcome.in_delta(cls[w])
            elif w in rs.ambient_extra:
                want = SumOutcome.ambient_only(w)
                ambient_only += 1
            else:
                want = SumOutcome.not_root()
                lift_only += bool(targets[a][b])
            assert rs.ambient_sum(a, b) == want
            base = bool(targets[a][b]) or want.kind == "ambient_only"
            both = minus_eps[a] and minus_eps[b]
            assert _bit(t.forbidden[False][a], b) == (base or both)
            assert _bit(t.forbidden[True][a], b) == (base or (both and a != b))
        assert t.closure_rows[a] == tuple(
            (b, targets[a][b]) for b in range(n) if targets[a][b])
    # the psl(2|2) lift pairs and the S/S' removed roots are exercised
    assert bool(lift_only) == (fam == "psl" and par == (2,))
    assert bool(ambient_only) == (fam in ("S", "Sprime"))
    assert any(minus_eps) == (fam == "Sprime")

    sym = rs.symmetrized()
    index = {w: k for k, w in enumerate(sym.weights)}
    for i, x in enumerate(sym.weights):
        row = [index.get(add(x, y)) for y in sym.weights]
        assert [sym.sum_target(i, j) for j in range(len(sym))] == row
        assert t.sym_rows[i] == tuple(
            (j, 1 << k) for j, k in enumerate(row) if k is not None)


def test_table_memory_stays_sparse():
    """A fresh W(6) table (254 roots, 64,516 pairs) stores only the pairs
    whose sum is a root.  Its traced peak was 11.9 MB with the dense pair
    tables and is 5.5 MB with the sparse rows alone; the bound lies
    between, so a quadratic table of Python objects fails here."""
    rs = rsys("W", (6,))
    rs.symmetrized()  # cached on the system, not part of the table
    tracemalloc.start()
    try:
        RootTable(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"RootTable(W(6)) traced peak {peak} bytes"


def _span_coefficients(x, y, z):
    """(a, b) with a x + b y == z for independent x, y, or None: exact row
    reduction of the columns x, y | z."""
    rows = [[F(u), F(v), F(w)] for u, v, w in zip(x, y, z)]
    for c in range(2):
        p = next(k for k in range(c, len(rows)) if rows[k][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [e / rows[c][c] for e in rows[c]]
        for k in range(len(rows)):
            if k != c and rows[k][c]:
                f = rows[k][c]
                rows[k] = [e - f * g for e, g in zip(rows[k], rows[c])]
    if any(row[2] for row in rows[2:]):
        return None
    return rows[0][2], rows[1][2]


@pytest.mark.parametrize("fam,par", [("G3", ()), ("osp", (3, 2)), ("psl", (2,)),
                                     ("S", (3,)), ("p", (3,))])
def test_plane_relations_match_brute_force(fam, par):
    """``plane_relations`` lists, with the signs of a and b, exactly the
    triples i < j < h of hyperplanes with rep_h = a rep_i + b rep_j, found
    here by row reduction over Fractions: collinear roots (G(3), and osp's
    delta, 2 delta) on one hyperplane, a functional constraint (psl(2|2)),
    and W-type (S(3)) and periplectic (p(3)) arrangements."""
    t = rsys(fam, par).table
    reps = [rep for rep, _, _ in t.hyperplanes]
    want = []
    for h, z in enumerate(reps):
        rels = []
        for j in range(h):
            for i in range(j):
                ab = _span_coefficients(reps[i], reps[j], z)
                if ab is not None:
                    a, b = ab
                    assert a and b
                    assert all(a * u + b * v == w
                               for u, v, w in zip(reps[i], reps[j], z))
                    rels.append((i, j, 1 if a > 0 else -1, 1 if b > 0 else -1))
        want.append(tuple(rels))
    assert t.plane_relations == tuple(want)
    assert any(want)


def test_g3_elimination():
    rs = rsys("G3", ())
    # eps1 - eps3 = 2 eps1 + eps2 in the eliminated basis (eps3 = -eps1-eps2)
    assert rs.index_of((F(2), F(1), F(0))) is not None
    # eps3 itself and -eps3 = eps1+eps2
    assert rs.index_of((F(-1), F(-1), F(0))) is not None
    assert rs.index_of((F(1), F(1), F(0))) is not None
    # half-gamma odd roots
    assert rs.index_of((F(0), F(0), F(1, 2))) is not None


# every family's builder over a grid of instances: 107 systems
GOLDEN_GRID = (
    [("sl", (m, n)) for m in range(1, 9) for n in range(1, 9)
     if m != n and m + n <= 9]
    + [("psl", (n,)) for n in range(2, 6)]
    + [("osp", (M, N)) for N in range(2, 14, 2) for M in range(1, 15 - N)]
    + [("D21a", ()), ("F4", ()), ("G3", ())]
    + [("psq", (n,)) for n in range(3, 7)] + [("p", (n,)) for n in range(2, 7)]
    + [("W", (n,)) for n in range(2, 7)] + [("S", (n,)) for n in range(3, 7)]
    + [("Sprime", (4,)), ("Sprime", (6,))] + [("H", (n,)) for n in range(5, 11)])


def test_root_systems_golden(check_golden):
    """Each built system, hashed: the basis, every root with its dims, the
    lifts, the ambient-only weights and the gl shift, exact types included
    (reprs of the Fraction tuples)."""
    from hashlib import sha256

    lines = []
    for fam, par in GOLDEN_GRID:
        rs = rsys(fam, par)
        parts = [repr(rs.basis)]
        parts += [f"{rs.root_str(i)} {r.even_dim} {r.odd_dim}"
                  for i, r in enumerate(rs.roots)]
        parts += [repr(rs.lifts), repr(sorted(rs.ambient_extra)),
                  repr(rs.gl_shift)]
        digest = sha256("\n".join(parts).encode()).hexdigest()
        tag = ",".join(str(x) for x in par)
        lines.append(f"{fam}({tag}) {len(rs)} {digest}")
    check_golden("root_systems.txt", "\n".join(lines) + "\n")
