import warnings

import pytest

from supercomin import kernel
from supercomin.cominuscule import (_abelian_scan, bracket_cominuscule,
                                    crosscheck_bracket, is_cominuscule,
                                    pair_forbidden)
from supercomin.parabolic import RootSubset, enumerate_parabolics
from supercomin.realize import realize_for
from supercomin.rootsys import build_root_system
from supercomin.verify import EXPECTED_ORBITS

TABLE = [(f, p) for f, p, _ in EXPECTED_ORBITS]


def rsys(fam, par):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_root_system(fam, par)


def bits_of(rs, names):
    out = 0
    for s in names:
        out |= 1 << rs.parse_root(s)
    return out


def test_pair_rule_examples():
    rs = rsys("sl", (2, 1))
    assert pair_forbidden(rs, rs.parse_root("e1-e2"), rs.parse_root("e2-d1"))
    rs = rsys("psl", (3,))
    # the famous pair: allowed even though the projected sum is a root
    a, b = rs.parse_root("e1-d1"), rs.parse_root("e2-d2")
    assert not pair_forbidden(rs, a, b)
    assert rs.projected_sum_in_delta(a, b)
    rs = rsys("Sprime", (4,))
    assert pair_forbidden(rs, rs.parse_root("-e1"), rs.parse_root("-e2"))
    assert pair_forbidden(rs, rs.parse_root("-e1"), rs.parse_root("-e1"))
    # the stated rule excludes the diagonal; the implementation keeps it
    assert not pair_forbidden(rs, rs.parse_root("-e1"), rs.parse_root("-e1"),
                              literal=True)
    rs = rsys("S", (4,))
    assert not pair_forbidden(rs, rs.parse_root("-e1"), rs.parse_root("-e2"))
    # sums landing on removed W-roots are forbidden for S(n)
    assert pair_forbidden(rs, rs.parse_root("e1"), rs.parse_root("e2+e3"))


def test_nilradical_abelian_examples():
    """A decomposition's flag: its nilradical is abelian when no two of its
    roots form a forbidden pair."""
    rs = rsys("sl", (2, 1))
    # (e1-e2) + (e2-d1) is a root
    borel = RootSubset(rs, bits_of(rs, ["e1-e2", "e1-d1", "e2-d1"]))
    assert is_cominuscule(borel).abelian_flags == (False,)
    v = is_cominuscule(RootSubset(rs, bits_of(rs, ["e1-e2", "-e1+e2", "e1-d1",
                                                   "e2-d1"])))
    assert v.abelian_flags == (True,)
    assert v.witness.nilradical_bits == bits_of(rs, ["e1-d1", "e2-d1"])


def test_verdict_examples():
    # every parabolic subset of osp(1|2) is non-cominuscule
    rs = rsys("osp", (1, 2))
    for P in enumerate_parabolics(rs, "exhaustive"):
        assert not is_cominuscule(P).is_cominuscule
    # W(3): P(0) = W(3)_0-part plus the -e_j roots is cominuscule
    rs = rsys("W", (3,))
    from supercomin.classify import expected_entries
    entries = {e.name: e for e in expected_entries(rs)}
    v = is_cominuscule(RootSubset(rs, entries["P(0)"].bits))
    assert v.is_cominuscule
    assert v.witness.levi_bits == entries["P(0)"].levi_bits
    # p(2): P(0) = Delta_even + positive odd part
    rs = rsys("p", (2,))
    P = RootSubset(rs, bits_of(rs, ["e1-e2", "-e1+e2", "e1+e2", "2e1", "2e2"]))
    assert is_cominuscule(P).is_cominuscule


@pytest.mark.parametrize("fam,par", [("psq", (3,)), ("p", (2,)), ("W", (3,)),
                                     ("H", (5,)), ("psl", (2,))])
def test_crosscheck_full_oracle(fam, par):
    # families satisfying the bracket-nonvanishing proposition: the root rule
    # and the realized bracket agree on every parabolic subset
    rs = rsys(fam, par)
    rz = realize_for(rs)
    for P in enumerate_parabolics(rs, "exhaustive"):
        assert crosscheck_bracket(P, rz)


def test_crosscheck_makes_one_lift_search(count_calls):
    # both verdicts read one set of Levi bits: none is searched for a
    # streamed subset, and one search serves a subset built afresh
    rs = rsys("W", (3,))
    rz = realize_for(rs)
    streamed = list(enumerate_parabolics(rs, "exhaustive"))[:8]
    calls = count_calls(kernel, "enumerate_closed")
    for P in streamed:
        assert crosscheck_bracket(P, rz)
    assert calls["enumerate_closed"] == 0
    for P in streamed:
        calls["enumerate_closed"] = 0
        assert crosscheck_bracket(RootSubset(rs, P.bits), rz)
        assert calls["enumerate_closed"] == 1


def test_s3_known_crosscheck_exception():
    # one S(3) parabolic subset is abelian for the bracket but rejected by
    # the stated W(3)-membership rule: its nilradical pair sums all land on
    # the removed roots e_i + e_j
    rs = rsys("S", (3,))
    rz = realize_for(rs)
    bad = [P for P in enumerate_parabolics(rs, "exhaustive")
           if is_cominuscule(P).is_cominuscule != bracket_cominuscule(P, rz)]
    assert len(bad) == 1
    P = bad[0]
    assert not is_cominuscule(P).is_cominuscule
    assert bracket_cominuscule(P, rz)
    nil = {rs.root_str(i) for i in
           is_cominuscule(P).decompositions[0].nilradical.indices()}
    assert {"e1", "e2", "e3"} <= nil


def test_negated_cominuscule_of_symmetric_system():
    # for symmetric systems P- = L + (-N+) is parabolic and cominuscule by
    # the same sum criterion
    for fam, par in [("sl", (2, 1)), ("osp", (4, 2)), ("psq", (3,))]:
        rs = rsys(fam, par)
        for P in enumerate_parabolics(rs, "exhaustive"):
            v = is_cominuscule(P)
            if not v.is_cominuscule:
                continue
            L, N = v.witness.levi_bits, v.witness.nilradical_bits
            negN = 0
            for i in range(len(rs)):
                if (N >> i) & 1:
                    negN |= 1 << rs.neg[i]
            Q = RootSubset(rs, L | negN)
            from supercomin.parabolic import parabolic_status
            assert parabolic_status(Q) == "parabolic"
            assert is_cominuscule(Q).is_cominuscule


def test_witness_nilradical_commutes_in_realization():
    for fam, par in [("W", (3,)), ("p", (3,)), ("psq", (3,))]:
        rs = rsys(fam, par)
        rz = realize_for(rs)
        for P in enumerate_parabolics(rs, "exhaustive"):
            v = is_cominuscule(P)
            if not v.is_cominuscule:
                continue
            idx = v.witness.nilradical.indices()
            for x, a in enumerate(idx):
                for b in idx[x:]:
                    assert not rz.bracket_nonzero(a, b)


@pytest.mark.parametrize("fam,par", TABLE, ids=str)
def test_forbidden_masks_are_symmetric(fam, par):
    """Bit b of forbidden[literal][a] equals bit a of forbidden[literal][b]
    on every table instance: the mask verdict reads each pair from one
    side only."""
    rs = rsys(fam, par)
    for forb in rs.table.forbidden:
        for a in range(len(rs)):
            for b in range(len(rs)):
                assert (forb[a] >> b) & 1 == (forb[b] >> a) & 1, (a, b)


@pytest.mark.parametrize("fam,par", [(f, p) for f, p in TABLE
                                     if len(rsys(f, p)) <= 30], ids=str)
def test_mask_verdict_matches_pairwise_scan(fam, par):
    """The mask verdict of ``is_cominuscule`` equals the pairwise scan of
    every nilradical (verdict, witness and ``abelian_flags``) on every
    parabolic subset of the table instances with at most 30 roots."""
    rs = rsys(fam, par)
    forb = rs.table.forbidden[False]
    for P in enumerate_parabolics(rs, "exhaustive"):
        scan = list(_abelian_scan(P, lambda a, b: (forb[a] >> b) & 1))
        v = is_cominuscule(P)
        assert v.abelian_flags == tuple(ok for _, ok in scan)
        assert v.decompositions == tuple(d for d, _ in scan)
        assert v.witness == next((d for d, ok in scan if ok), None)
        assert v.is_cominuscule == any(ok for _, ok in scan)
