import importlib
import json
import random
import warnings
from fractions import Fraction

import pytest

from supercomin.realize import (Realization, UnsupportedFamilyError, divergence,
                                jacobi_defect, realize, realize_for)
from supercomin.matrixrep import MatrixSuperElement
from supercomin.rootsys import CapExceeded, build_root_system, wadd
from supercomin.superder import SuperDerivation, partial
from supercomin.verify import REALIZED_AUDITS

# the module, which the package's ``realize`` function shadows as an attribute
realize_module = importlib.import_module("supercomin.realize")

F = Fraction


def rsys(fam, par):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_root_system(fam, par)


ALL_REALIZED = [("sl", (2, 1)), ("psl", (2,)), ("psl", (3,)), ("psq", (3,)),
                ("p", (2,)), ("p", (3,)), ("W", (2,)), ("W", (3,)),
                ("S", (3,)), ("S", (4,)), ("Sprime", (4,)), ("H", (5,)),
                ("H", (6,)), ("H", (7,)), ("H", (8,))]


def _rank(rows):
    """Exact rank of sparse rows ``{column: Fraction}``, by elimination."""
    pivots = {}
    for vec in rows:
        vec = dict(vec)
        while vec:
            k = min(vec)
            if k not in pivots:
                pivots[k] = vec
                break
            pivot = pivots[k]
            factor = vec[k] / pivot[k]
            for kk, vv in pivot.items():
                vec[kk] = vec.get(kk, F(0)) - factor * vv
            vec = {kk: vv for kk, vv in vec.items() if vv}
    return len(pivots)


@pytest.mark.parametrize("fam,par", ALL_REALIZED)
def test_root_decomposition_audit(fam, par):
    rz = realize_for(rsys(fam, par))
    rep = rz.verify_root_decomposition()
    assert rep["ok"], rep


def test_dimensions():
    assert realize_for(rsys("W", (3,))).dim == 24
    assert realize_for(rsys("S", (3,))).dim == 17
    assert realize_for(rsys("H", (5,))).dim == 30
    assert realize_for(rsys("p", (3,))).dim == 17
    assert realize_for(rsys("psq", (3,))).dim == 18  # realized as q(3)
    assert realize("gl", (2, 2)).dim == 16


def test_unsupported_and_cap(monkeypatch):
    with pytest.raises(UnsupportedFamilyError):
        realize_for(rsys("osp", (3, 2)))
    with pytest.raises(UnsupportedFamilyError):
        realize("F4", ())
    # W(9) has dimension 4608, past the fixed cap of 4096: the dimension is
    # checked before its 2814 roots meet the root cap
    with pytest.raises(CapExceeded, match="dimension 4608 exceeds cap 4096"):
        realize("W", (9,))
    monkeypatch.setattr(realize_module, "DIM_CAP", 100)
    with pytest.raises(CapExceeded, match="dimension 384 exceeds cap 100"):
        realize("W", (6,))


@pytest.mark.parametrize("fam,par", [("gl", (2, 1))] + ALL_REALIZED)
def test_cap_is_the_reported_dimension(fam, par, monkeypatch):
    """The cap is checked against the dimension the realization reports."""
    if fam == "gl":
        build = lambda: realize("gl", par)
    else:
        build = lambda: realize_for(rsys(fam, par))
    rz = build()
    monkeypatch.setattr(realize_module, "DIM_CAP", rz.dim)
    assert build().dim == rz.dim
    monkeypatch.setattr(realize_module, "DIM_CAP", rz.dim - 1)
    with pytest.raises(CapExceeded,
                       match=f"dimension {rz.dim} exceeds cap {rz.dim - 1}"):
        build()


def test_corrupted_realization_fails_naming_root():
    rz = realize_for(rsys("W", (3,)))
    spaces = list(rz.spaces)
    # swap one root vector with a vector of a different weight
    i, j = 0, 1
    (ev_i, od_i), (ev_j, od_j) = spaces[i], spaces[j]
    spaces[i], spaces[j] = (ev_j, od_j), (ev_i, od_i)
    bad = Realization(rz.label, rz.params, rz.weights, spaces, rz.torus,
                      rz.dim, rz.zero_dim, rs=rz.rs)
    rep = bad.verify_root_decomposition()
    assert not rep["ok"]
    assert rz.rs.root_str(i) in rep["offending_roots"]


def test_bracket_examples():
    # [x1 d2, x2 d1] = x1 d1 - x2 d2 inside W(2)
    x = SuperDerivation.term(2, 0b01, 1, F(1))
    y = SuperDerivation.term(2, 0b10, 0, F(1))
    want = SuperDerivation.term(2, 0b01, 0, F(1)).add(
        SuperDerivation.term(2, 0b10, 1, F(-1)))
    assert x.bracket(y) == want
    # the square of a constant-coefficient odd derivation vanishes
    d1 = SuperDerivation.term(2, 0, 0, F(1))
    assert d1.bracket(d1).is_zero()


def test_bracket_case_iii_nonzero_summand():
    # x = x1 x2 d3, y = x3 x4 d1 overlap in one index: the bracket keeps the
    # homogeneous summand x1 x2 x4 d1
    n = 4
    x = SuperDerivation.term(n, 0b0011, 2, F(1))
    y = SuperDerivation.term(n, 0b1100, 0, F(1))
    br = x.bracket(y)
    assert (0b1011, 0) in br.terms


def test_key_bracket_facts():
    rs = rsys("psl", (3,))
    rz = realize_for(rs)
    assert not rz.bracket_nonzero(rs.parse_root("e1-d1"), rs.parse_root("e2-d2"))
    rs = rsys("S", (4,))
    rz = realize_for(rs)
    assert not rz.bracket_nonzero(rs.parse_root("-e1"), rs.parse_root("-e2"))
    rs = rsys("Sprime", (4,))
    rz = realize_for(rs)
    assert rz.bracket_nonzero(rs.parse_root("-e1"), rs.parse_root("-e2"))
    assert rz.bracket_nonzero(rs.parse_root("-e1"), rs.parse_root("-e1"))


def test_bracket_nonzero_symmetric():
    for fam, par in [("W", (3,)), ("psq", (3,)), ("p", (2,)), ("H", (5,)),
                     ("H", (6,))]:
        rs = rsys(fam, par)
        rz = realize_for(rs)
        for a in range(len(rs)):
            for b in range(a, len(rs)):
                assert rz.bracket_nonzero(a, b) == rz.bracket_nonzero(b, a)


@pytest.mark.parametrize("fam,par", [("W", (3,)), ("S", (3,)), ("H", (5,)),
                                     ("H", (6,))])
def test_root_spaces_close_under_bracket(fam, par):
    """[g^a, g^b] lies in the span of g^{a+b} whenever a + b is a root, by
    exact rank in Fractions."""
    rs = rsys(fam, par)
    rz = realize_for(rs)
    basis = [ev + od for ev, od in rz.spaces]
    rows = [[{k: F(c) for k, c in v.terms.items()} for v in vs] for vs in basis]
    for a, ra in enumerate(rs.roots):
        for b, rb in enumerate(rs.roots):
            t = rs.index_of(wadd(ra.weight, rb.weight))
            if t is None:
                continue
            rank = _rank(rows[t])
            for x in basis[a]:
                for y in basis[b]:
                    br = {k: F(c) for k, c in x.bracket(y).terms.items()}
                    assert _rank(rows[t] + [br]) == rank, (a, b)


def test_divergence_free_bases():
    rz = realize_for(rsys("S", (4,)))
    for ev, od in rz.spaces:
        for v in ev + od:
            assert not divergence(v)
    # S'(n) deforms only the -e_j spaces; everything else stays in the
    # divergence kernel, and the deformed generators do not
    rs = rsys("Sprime", (4,))
    rz = realize_for(rs)
    minus = {rs.parse_root(s) for s in ("-e1", "-e2", "-e3", "-e4")}
    for i, (ev, od) in enumerate(rz.spaces):
        for v in ev + od:
            assert (not divergence(v)) == (i not in minus)


def test_s_span_equals_divergence_kernel():
    # the spanning description {df/dx_i d_j + df/dx_j d_i} generates exactly
    # the divergence kernel: compare dimensions by exact row reduction
    for n in (3, 4):
        rows = []
        for fmask in range(1 << n):
            for i in range(n):
                for j in range(i, n):
                    terms = {}
                    for a, b in ((i, j), (j, i)):
                        s = partial(fmask, a)
                        if s:
                            key = (fmask ^ 1 << a, b)
                            terms[key] = terms.get(key, 0) + F(s)
                    rows.append(SuperDerivation(n, terms, fmask.bit_count()).terms)
        # the divergence-kernel dimension
        assert _rank(rows) == (n - 1) * 2 ** n + 1


@pytest.mark.parametrize("fam,par", [("W", (3,)), ("S", (3,)), ("p", (3,)),
                                     ("psq", (3,)), ("H", (5,)), ("psl", (2,))])
def test_jacobi_full_small(fam, par):
    rz = realize_for(rsys(fam, par))
    basis = [v for ev, od in rz.spaces for v in ev + od]
    # full triple scan where the cube of the root-space basis stays cheap,
    # else a fixed-seed sample; exactness makes each triple conclusive
    if len(basis) ** 3 <= 4000:
        triples = [(x, y, z) for x in basis for y in basis for z in basis]
    else:
        rng = random.Random(2024)
        triples = [tuple(rng.choice(basis) for _ in range(3)) for _ in range(1200)]
    for x, y, z in triples:
        assert jacobi_defect(x, y, z).is_zero()


def test_jacobi_sampled_large():
    rng = random.Random(99)
    for fam, par in [("H", (6,)), ("S", (4,)), ("Sprime", (4,)), ("psl", (3,))]:
        rz = realize_for(rsys(fam, par))
        basis = [v for ev, od in rz.spaces for v in ev + od]
        for _ in range(60):
            x, y, z = (rng.choice(basis) for _ in range(3))
            assert jacobi_defect(x, y, z).is_zero()


def test_sprime_graded_dims_match_s():
    a = realize_for(rsys("S", (4,)))
    b = realize_for(rsys("Sprime", (4,)))
    assert all(a.space_dims(i) == b.space_dims(i) for i in range(len(a.weights)))


BRACKET_TABLES = tuple(REALIZED_AUDITS) + (("W", (2,)), ("gl", (2, 2)), ("gl", (3, 3)))


def test_bracket_tables_golden(check_golden):
    """``bracket_nonzero`` over all ordered root pairs, byte for byte: one
    bitmask row per root a, with bit b set when [g^a, g^b] is nonzero."""
    tables = {}
    for fam, par in BRACKET_TABLES:
        rz = realize(fam, par) if fam == "gl" else realize_for(rsys(fam, par))
        n = len(rz.weights)
        tables[f"{fam}({','.join(map(str, par))})"] = [
            sum(1 << b for b in range(n) if rz.bracket_nonzero(a, b))
            for a in range(n)]
    check_golden("bracket_tables.json", json.dumps(tables, indent=1) + "\n")


# every realization over a grid of instances: 31 algebras
REALIZATION_GRID = (
    [("gl", mn) for mn in ((1, 1), (2, 1), (2, 2), (3, 3), (1, 3))]
    + [("sl", mn) for mn in ((2, 1), (1, 2), (3, 2), (4, 1))]
    + [("psl", (n,)) for n in range(2, 5)] + [("psq", (n,)) for n in range(3, 6)]
    + [("p", (n,)) for n in range(2, 6)] + [("W", (n,)) for n in range(2, 6)]
    + [("S", (n,)) for n in range(3, 6)] + [("Sprime", (4,))]
    + [("H", (n,)) for n in range(5, 9)])


def _coeff(c):
    """A coefficient with its exact type: ``int`` 1 and ``Fraction`` 1 are
    two different strings."""
    return f"{type(c).__name__}:{c!r}"


def _element(x):
    items = x.entries if isinstance(x, MatrixSuperElement) else x.terms
    body = " ".join(f"{k}={_coeff(c)}" for k, c in sorted(items.items()))
    return f"{type(x).__name__} {x.parity} {body}"


def realization_digest(rz):
    """SHA-256 of a realization: its label, params and weights, every basis
    and torus element with the exact type of each coefficient, each torus
    element's ``lin``, the eigenvalue weights of every basis vector, ``dim``,
    ``zero_dim`` and ``center_projection``."""
    from hashlib import sha256

    parts = [f"{rz.label} {rz.params} {rz.dim} {rz.zero_dim} "
             f"{rz.center_projection}"]
    for i, (w, (ev, od)) in enumerate(zip(rz.weights, rz.spaces)):
        eigen = rz.eigen_override.get(i, (w,) * (len(ev) + len(od)))
        parts.append(f"{w!r} {len(ev)} {len(od)} {eigen!r}")
        parts += [_element(x) for x in ev + od]
    for h, lin in rz.torus:
        parts.append(f"{_element(h)} lin {' '.join(map(_coeff, lin))}")
    return sha256("\n".join(parts).encode()).hexdigest()


def test_realizations_golden(check_golden):
    """Each realization, hashed (``realization_digest``), byte for byte."""
    lines = []
    for fam, par in REALIZATION_GRID:
        rz = realize(fam, par) if fam == "gl" else realize_for(rsys(fam, par))
        tag = ",".join(str(x) for x in par)
        lines.append(f"{fam}({tag}) {rz.dim} {realization_digest(rz)}")
    check_golden("realizations.txt", "\n".join(lines) + "\n")


@pytest.mark.parametrize("fam,par", REALIZATION_GRID)
def test_exact_coefficients_and_diagonal_torus(fam, par):
    """Every coefficient and every ``lin`` entry is an ``int`` or a
    ``Fraction``; every torus element is diagonal (only x_k d/dx_k terms, or
    only entries (k, k)), and its ``lin`` is its diagonal's first slots."""
    rz = realize(fam, par) if fam == "gl" else realize_for(rsys(fam, par))
    elements = [v for ev, od in rz.spaces for v in ev + od]
    elements += [h for h, _ in rz.torus]
    for x in elements:
        items = x.entries if isinstance(x, MatrixSuperElement) else x.terms
        assert all(type(c) in (int, F) for c in items.values())
    width = len(rz.weights[0])
    for h, lin in rz.torus:
        assert all(type(c) in (int, F) for c in lin)
        if isinstance(h, MatrixSuperElement):
            keys = [(k, k) for k in range(h.m + h.n)]
            items = h.entries
        else:
            keys = [(1 << k, k) for k in range(h.n)]
            items = h.terms
        assert set(items) <= set(keys)
        assert lin == tuple(items.get(key, 0) for key in keys[:width])


@pytest.mark.parametrize("par", [p for f, p in REALIZATION_GRID if f == "sl"])
def test_sl_torus_is_supertraceless(par):
    """Every torus element of an sl(m|n) realization has supertrace 0, so it
    lies in sl(m|n): across the block boundary the torus takes
    e_m + e_{m+1}, not the difference, whose supertrace is 2."""
    rz = realize_for(rsys("sl", par))
    assert [h.supertrace() for h, _ in rz.torus] == [0] * len(rz.torus)


@pytest.mark.parametrize("n", [2, 3])
def test_realize_serves_psl_as_realize_for(n):
    """``realize`` takes psl(n|n) through the same table as ``realize_for``
    (it used to refuse it as not realized)."""
    assert realization_digest(realize("psl", (n,))) == realization_digest(
        realize_for(rsys("psl", (n,))))
