import gc
import itertools
import random
import warnings
from fractions import Fraction
from math import gcd

import pytest

from supercomin import kernel, parabolic, verify, weyl
from supercomin.classify import choose_method, enumerate_cominuscule_orbits
from supercomin.cominuscule import is_cominuscule
from supercomin.feasible import IncrementalFM, feasible_witness
from supercomin.parabolic import (ImproperSubsetError, RootSubset, _face_masks,
                                  enumerate_parabolics, is_parabolic,
                                  evaluate, levi_decompositions,
                                  parabolic_status, principal_parabolic,
                                  principality_witness)
from supercomin.properties import weyl_invariance_holds
from supercomin.rootsys import CapExceeded, build_root_system, wadd, wneg
from supercomin.verify import EXPECTED_ORBITS, oracle_counts

F = Fraction


def rsys(fam, par):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_root_system(fam, par)


def bits_of(rs, names):
    out = 0
    for s in names:
        out |= 1 << rs.parse_root(s)
    return out


# -- naive oracles -----------------------------------------------------------

def naive_parabolic_symmetric(rs, bits):
    """Covering + closure checked straight off the weights."""
    n = len(rs)
    if bits == (1 << n) - 1:
        return False
    for i in range(n):
        j = rs.index_of(wneg(rs.roots[i].weight))
        if not (bits >> i) & 1 and not (bits >> j) & 1:
            return False
    mem = [i for i in range(n) if (bits >> i) & 1]
    for a in mem:
        for b in mem:
            t = rs.index_of(wadd(rs.roots[a].weight, rs.roots[b].weight))
            if t is not None and not (bits >> t) & 1:
                return False
    return True


def naive_parabolic_lifted(rs, bits, _cache={}):
    """Brute lift search over all subsets of the extra weights."""
    sym = rs.symmetrized()
    nw, n = len(sym), len(rs)
    if bits == (1 << n) - 1:
        return False
    key = id(rs)
    if key not in _cache:
        sidx = {w: k for k, w in enumerate(sym.weights)}
        negs = [sidx[wneg(w)] for w in sym.weights]
        sums = [[sidx.get(wadd(x, y)) for y in sym.weights] for x in sym.weights]
        _cache[key] = (negs, sums)
    negs, sums = _cache[key]

    def lift_ok(mask):
        for k in range(nw):
            if not (mask >> k) & 1 and not (mask >> negs[k]) & 1:
                return False
        mem = [a for a in range(nw) if (mask >> a) & 1]
        for a in mem:
            row = sums[a]
            for b in mem:
                t = row[b]
                if t is not None and not (mask >> t) & 1:
                    return False
        return True

    for extra in range(1 << (nw - n)):
        if lift_ok(bits | (extra << n)):
            return True
    return False


def face_masks_per_root(rs):
    """``_face_masks`` branching three ways on every root, not on every
    hyperplane: the sign vectors over the root list."""
    n = len(rs)
    rowvec = rs.table.fm_weights
    base_fm = IncrementalFM(len(rs.basis))
    for row in rs.table.fm_constraints:
        base_fm.add(row)
    found = set()

    def rec(i, fm, ge_mask):
        if i == n:
            found.add(ge_mask)
            return
        vec = rowvec[i]
        fz = fm.clone()
        if fz.add(vec + (0,)) and fz.add(tuple(-c for c in vec) + (0,)):
            rec(i + 1, fz, ge_mask | (1 << i))
        fp = fm.clone()
        if fp.add(vec + (-1,)):
            rec(i + 1, fp, ge_mask | (1 << i))
        fn = fm.clone()
        if fn.add(tuple(-c for c in vec) + (-1,)):
            rec(i + 1, fn, ge_mask)

    rec(0, base_fm, 0)
    full = (1 << n) - 1
    return sorted(m for m in found if m != full)


@pytest.mark.parametrize("fam,par", [
    ("sl", (2, 1)), ("osp", (1, 2)), ("psq", (3,)), ("osp", (2, 2)),
])
def test_exhaustive_matches_naive_symmetric(fam, par):
    rs = rsys(fam, par)
    naive = sorted(b for b in range(1 << len(rs))
                   if naive_parabolic_symmetric(rs, b))
    lib = [p.bits for p in enumerate_parabolics(rs, "exhaustive")]
    assert naive == lib


@pytest.mark.parametrize("fam,par", [("p", (2,)), ("W", (2,)), ("S", (3,))])
def test_exhaustive_matches_naive_lifted(fam, par):
    rs = rsys(fam, par)
    if rs.symmetric:
        naive = sorted(b for b in range(1 << len(rs))
                       if naive_parabolic_symmetric(rs, b))
    else:
        naive = sorted(b for b in range(1 << len(rs))
                       if naive_parabolic_lifted(rs, b))
    lib = [p.bits for p in enumerate_parabolics(rs, "exhaustive")]
    assert naive == lib


@pytest.mark.parametrize("fam,par", [
    ("sl", (2, 1)), ("p", (2,)), ("W", (2,)), ("psq", (3,)),
])
def test_status_and_decompositions_on_every_proper_subset(fam, par):
    """A subset that is not parabolic has no Levi decomposition and is never
    cominuscule, whether it fails covering, closure or the lift search."""
    rs = rsys(fam, par)
    naive = naive_parabolic_symmetric if rs.symmetric else naive_parabolic_lifted
    for bits in range((1 << len(rs)) - 1):
        P = RootSubset(rs, bits)
        parabolic = parabolic_status(P) == "parabolic"
        assert parabolic == naive(rs, bits), P
        if not parabolic:
            assert levi_decompositions(P) == [], P
            assert not is_cominuscule(P).is_cominuscule, P


# -- spec-level examples ------------------------------------------------------

def test_is_parabolic_examples():
    rs = rsys("sl", (2, 1))
    borel_up = bits_of(rs, ["e1-e2", "e2-e1", "e1-d1", "e2-d1"])
    assert is_parabolic(RootSubset(rs, borel_up))
    # not covering: both of +-(e1-d1) absent
    assert not is_parabolic(RootSubset(rs, bits_of(rs, ["e1-e2", "e2-d1"])))
    with pytest.raises(ImproperSubsetError):
        is_parabolic(RootSubset(rs, (1 << len(rs)) - 1))

    rs = rsys("p", (2,))
    psp0 = bits_of(rs, ["e1-e2", "e2-e1", "e1+e2", "2e1", "2e2"])
    assert is_parabolic(RootSubset(rs, psp0))


def test_nonuniqueness_example_p2():
    rs = rsys("p", (2,))
    P = RootSubset(rs, bits_of(rs, ["e1-e2", "e1+e2", "2e1", "2e2"]))
    decs = levi_decompositions(P)
    assert sorted(sorted(d.levi.root_strings()) for d in decs) == [[], ["2e2"]]
    w = principality_witness(P)
    assert w is not None


def test_symmetric_systems_have_one_decomposition():
    for fam, par in [("sl", (2, 1)), ("psq", (3,)), ("osp", (2, 2)), ("psl", (2,))]:
        rs = rsys(fam, par)
        for P in enumerate_parabolics(rs, "exhaustive"):
            assert len(levi_decompositions(P)) == 1


def test_principal_parabolic_examples():
    rs = rsys("W", (3,))
    lam = (F(0), F(-1), F(-1))
    P, dec = principal_parabolic(rs, lam)
    # this is the displayed P(1): L has +-e1 in it, N+ = {e_{I,j}: I<=[1], j>1}
    assert bits_of(rs, ["e1", "-e1"]) & dec.levi_bits == bits_of(rs, ["e1", "-e1"])
    nil = {rs.root_str(i) for i in dec.nilradical.indices()}
    assert nil == {"-e2", "-e3", "e1-e2", "e1-e3"}

    rs = rsys("p", (2,))
    P, dec = principal_parabolic(rs, (F(1), F(-1)))
    # P_sp(2)(1): L = {+-(e1+e2)}, N+ = {e1-e2, 2e1}
    assert {rs.root_str(i) for i in dec.nilradical.indices()} == {"e1-e2", "2e1"}
    assert {rs.root_str(i) for i in dec.levi.indices()} == {"e1+e2", "-e1-e2"}

    rs = rsys("sl", (2, 1))
    with pytest.raises(ImproperSubsetError):
        principal_parabolic(rs, (F(0), F(0), F(0)))


@pytest.mark.parametrize("fam,par", [("F4", ()), ("G3", ()), ("D21a", ()),
                                     ("psl", (2,))])
def test_principal_parabolic_matches_rational_evaluation(fam, par):
    """P(lam) read on the integer table weights is P(lam) of the ``Fraction``
    reference ``evaluate`` on the root weights: on every functional with
    entries in {-1, 0, 1}, which vanish on many roots, and on 100 seeded
    rational ones.  F(4), G(3) and D(2,1;a) have half-integral weights, and
    psl(2|2) classes of several lifts."""
    rs = rsys(fam, par)
    dim = len(rs.basis)
    rng = random.Random(f"{fam}{par}")
    lams = list(itertools.product((-1, 0, 1), repeat=dim))
    lams += [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
             for _ in range(100)]
    improper = 0
    for lam in lams:
        values = [evaluate(lam, r.weight) for r in rs.roots]
        levi = sum(1 << i for i, v in enumerate(values) if v == 0)
        nil = sum(1 << i for i, v in enumerate(values) if v > 0)
        if levi | nil == (1 << len(rs)) - 1:
            improper += 1
            with pytest.raises(ImproperSubsetError):
                principal_parabolic(rs, lam)
            continue
        P, dec = principal_parabolic(rs, lam)
        assert (P.bits, dec.levi_bits, dec.nilradical_bits) == (
            levi | nil, levi, nil), lam
    assert improper >= 1  # lam = 0 at least
    with pytest.raises(ValueError, match="wrong dimension"):
        principal_parabolic(rs, (1,) * (dim + 1))


def test_witness_examples():
    rs = rsys("W", (3,))
    P, dec = principal_parabolic(rs, (F(0), F(-1), F(-1)))
    w = principality_witness(P)
    assert w is not None
    # (0,-1,-1) itself must be a valid witness for the displayed P(1)
    for i in range(len(rs)):
        v = sum(c * x for c, x in zip((0, -1, -1), rs.roots[i].weight))
        assert (v >= 0) == (i in P)

    rs = rsys("H", (5,))
    levi = [i for i, r in enumerate(rs.roots) if r.weight[0] == 0]
    nil = [i for i, r in enumerate(rs.roots) if r.weight[0] == 1]
    P = RootSubset(rs, sum(1 << i for i in levi + nil))
    w = principality_witness(P)
    assert w is not None
    for i in range(len(rs)):
        v = sum(c * x for c, x in zip((1, 0), rs.roots[i].weight))
        assert (v >= 0) == (i in P)


def test_point_search_node_budget(monkeypatch):
    """A point search past the node budget raises, checked as it runs; P(0)
    of p(3), which keeps all three 2e_i, searches 4 nodes."""
    rs = rsys("p", (3,))
    P = bits_of(rs, ["e1-e2", "-e1+e2", "e1-e3", "-e1+e3", "e2-e3", "-e2+e3",
                     "e1+e2", "e1+e3", "e2+e3", "2e1", "2e2", "2e3"])
    monkeypatch.setattr(kernel, "NODE_CAP", 3)
    with pytest.raises(CapExceeded,
                       match="^lift search visits more than 3 nodes$"):
        levi_decompositions(RootSubset(rs, P))
    monkeypatch.setattr(kernel, "NODE_CAP", 4)
    assert len(levi_decompositions(RootSubset(rs, P))) == 1


def test_exhaustive_cap(monkeypatch):
    """The exhaustive stream has no cap on |Delta|: on W(4), 40 roots, only
    the node budget stops it."""
    rs = rsys("W", (4,))
    monkeypatch.setattr(kernel, "NODE_CAP", 10 ** 4)
    with pytest.raises(CapExceeded, match="^lift search visits more than "
                                          "10000 nodes$"):
        list(enumerate_parabolics(rs, "exhaustive"))


def test_exhaustive_search_node_budget(monkeypatch):
    """The stream's one search keeps the same budget: p(3)'s visits 624
    nodes and yields 110 subsets."""
    rs = rsys("p", (3,))
    monkeypatch.setattr(kernel, "NODE_CAP", 623)
    with pytest.raises(CapExceeded, match="visits more than 623 nodes"):
        list(enumerate_parabolics(rs, "exhaustive"))
    monkeypatch.setattr(kernel, "NODE_CAP", 624)
    assert len(list(enumerate_parabolics(rs, "exhaustive"))) == 110


@pytest.mark.parametrize("fam,par", [("p", (3,)), ("W", (3,)), ("S", (3,)),
                                     ("sl", (3, 2)), ("osp", (6, 2))])
def test_streamed_levis_equal_point_search(fam, par):
    """The Levi bits a streamed subset carries give the decompositions and
    verdict that the point search finds for the same subset built afresh."""
    rs = rsys(fam, par)
    for P in enumerate_parabolics(rs, "exhaustive"):
        fresh = RootSubset(rs, P.bits)
        assert P.levis is not None and fresh.levis is None and fresh == P
        assert levi_decompositions(P) == levi_decompositions(fresh), P
        assert is_cominuscule(P) == is_cominuscule(fresh), P


def immovable_pair_rule(rs, bits):
    """Whether P keeps no forbidden pair among its roots i with -i a root
    of Delta outside P, one root alone included: the rule the pruned
    stream applies, read off the negation map and the forbidden pairs."""
    forb = rs.table.forbidden[False]
    alone = [i for i, j in enumerate(rs.neg)
             if j is not None and (bits >> i) & 1 and not (bits >> j) & 1]
    return not any((forb[a] >> b) & 1 for a in alone for b in alone)


@pytest.mark.parametrize("fam,par", [
    (f, p) for f, p, _ in EXPECTED_ORBITS
    if choose_method(f, p) == "exhaustive"] + [("p", (4,)), ("W", (4,))])
def test_pruned_stream_equals_filtered_full_stream(fam, par):
    """The stream pruned by the forbidden pairs is the full stream filtered
    by the rule, each subset with the same Levi bits, and it keeps every
    cominuscule subset.  p(4) and W(4) have more than 26 roots."""
    rs = rsys(fam, par)
    full = list(enumerate_parabolics(rs, "exhaustive"))
    pruned = list(enumerate_parabolics(rs, "exhaustive",
                                       prune_masks=rs.table.forbidden[False]))
    kept = [P for P in full if immovable_pair_rule(rs, P.bits)]
    assert [(P.bits, P.levis) for P in pruned] == \
        [(P.bits, P.levis) for P in kept]
    def cominuscule(stream):
        return [P for P in stream if is_cominuscule(P).is_cominuscule]

    assert cominuscule(pruned) == cominuscule(full)


@pytest.mark.parametrize("fam,par", [("p", (3,)), ("W", (3,)), ("S", (3,)),
                                     ("H", (5,)), ("psl", (3,))])
def test_levi_groups_give_the_kernel_contract_masks(fam, par, monkeypatch):
    """The prune masks ``_levi_groups`` hands ``kernel.enumerate_closed``
    keep its contract: only roots paired within Delta carry masks, every
    partner carries one, and the masks are symmetric.  On p(3), W(3),
    S(3), p(4) and W(4) the search decides each root whose negation is no
    root of Delta after its forbidden partners, so the pruned streams
    alone would not notice a mask that names such a root."""
    rs = rsys(fam, par)
    seen = []
    search = kernel.enumerate_closed

    def spy(neg, rows, inside=0, outside=0, prune=None):
        seen.append((neg, prune))
        return search(neg, rows, inside, outside, prune)

    monkeypatch.setattr(kernel, "enumerate_closed", spy)
    parabolic._levi_groups(rs, prune_masks=rs.table.forbidden[False])
    (neg, prune), = seen
    masked = sum(1 << r for r, m in enumerate(prune) if m is not None)
    assert masked
    for r, m in enumerate(prune):
        if m is not None:
            assert r < len(rs) and neg[r] < len(rs)
            assert not m & ~masked
            assert all((prune[b] >> r) & 1 for b in range(len(neg)) if (m >> b) & 1)


def test_kernel_calls_are_pinned(count_calls):
    """One closure search per system for the exhaustive verdicts; a point
    query on a subset built afresh makes one search per subset."""
    calls = count_calls(kernel, "enumerate_closed")
    for run in (lambda: oracle_counts("p", (3,)),
                lambda: oracle_counts("W", (3,)),
                lambda: enumerate_cominuscule_orbits("sl", (3, 2))):
        calls["enumerate_closed"] = 0
        run()
        assert calls["enumerate_closed"] == 1
    rs = rsys("W", (3,))
    gens = weyl.generators(rs, "auto")
    P = next(enumerate_parabolics(rs, "exhaustive"))
    calls["enumerate_closed"] = 0
    assert weyl_invariance_holds(rs, P.bits, gens)
    assert calls["enumerate_closed"] == 1 + len(gens)
    # the streamed subset lends its Levi bits: only its images are searched
    calls["enumerate_closed"] = 0
    assert weyl_invariance_holds(rs, P, gens)
    assert calls["enumerate_closed"] == len(gens)


@pytest.mark.parametrize("fam,par,lams", [
    ("p", (3,), [(-1, 0, 1), (1, 1, 0)]), ("W", (3,), [(1, 0, -1)]),
    ("sl", (3, 2), [(2, 1, 0, 1, -1)]), ("F4", (), [(-1, 0, 0, -1)])])
def test_point_query_makes_one_lift_search(fam, par, lams, count_calls):
    """The point queries on one subset built afresh (status, witness,
    decompositions, verdict, in that order) make one lift search together:
    the first read searches and the subset keeps its Levi bits."""
    rs = rsys(fam, par)
    calls = count_calls(kernel, "enumerate_closed")
    subsets = [principal_parabolic(rs, lam)[0] for lam in lams]
    # one subset that is no parabolic: its empty Levi bits are kept too
    subsets.append(RootSubset(rs, 1))
    for P in subsets:
        calls["enumerate_closed"] = 0
        status = parabolic_status(P)
        principality_witness(P)
        decs = levi_decompositions(P)
        verdict = is_cominuscule(P)
        assert calls["enumerate_closed"] == 1, (P, status)
        assert (status == "parabolic") == bool(decs) == bool(verdict.decompositions)


def test_canonical_order_and_determinism():
    rs = rsys("W", (3,))
    a = [p.bits for p in enumerate_parabolics(rs, "exhaustive")]
    b = [p.bits for p in enumerate_parabolics(rs, "exhaustive")]
    assert a == b == sorted(a)


def test_principal_stream_equals_exhaustive_for_kac_moody():
    # every parabolic subset of a regular Kac-Moody system is principal, so
    # the face values are the lift stream's subsets
    for fam, par in [("sl", (2, 1)), ("osp", (3, 2)), ("osp", (2, 2))]:
        rs = rsys(fam, par)
        ex = [p.bits for p in enumerate_parabolics(rs, "exhaustive")]
        assert ex == list(_face_masks(rs))


def test_improper_status():
    rs = rsys("sl", (2, 1))
    assert parabolic_status(RootSubset(rs, (1 << len(rs)) - 1)) == "improper"


def test_principal_always_parabolic():
    # P(lam) passes the parabolicity test for any functional that leaves a
    # proper subset, across symmetric and lifted systems
    import itertools
    for fam, par in [("sl", (2, 1)), ("p", (2,)), ("W", (3,)), ("osp", (2, 2))]:
        rs = rsys(fam, par)
        d = len(rs.basis)
        vals = (F(-2), F(-1), F(0), F(1))
        for lam in itertools.product(vals, repeat=d):
            try:
                P, dec = principal_parabolic(rs, lam)
            except ImproperSubsetError:
                continue
            assert is_parabolic(P)
            assert dec.levi_bits | dec.nilradical_bits == P.bits


@pytest.mark.parametrize("fam,par", [
    ("osp", (3, 2)), ("osp", (1, 4)), ("G3", ()), ("psl", (2,)), ("p", (3,)),
    ("W", (3,)), ("S", (3,)),
])
def test_face_masks_match_per_root_reference(fam, par):
    """Collinear roots (osp, G(3)), a functional constraint (psl(2|2)) and
    hyperplanes that mix movable and immovable roots (p, W, S): one branch
    per hyperplane finds the faces the per-root search finds."""
    rs = rsys(fam, par)
    assert list(_face_masks(rs)) == face_masks_per_root(rs)


def test_face_masks_work_is_pinned(count_calls):
    """The Fourier-Motzkin clones and row insertions of one face search,
    counted exactly, so that a change in algorithmic work shows as a diff.
    A hyperplane whose sign two earlier ones force costs neither
    (12,087/14,479 on osp(6|2) when every hyperplane branched on the
    engine)."""
    calls = count_calls(IncrementalFM, "clone", "add")
    counts = {}
    for fam, par in [("F4", ()), ("osp", (6, 2))]:
        calls.update(clone=0, add=0)
        _face_masks(rsys(fam, par))
        counts[fam] = dict(calls)
    assert counts == {"F4": {"clone": 5217, "add": 6729},
                      "osp": {"clone": 2130, "add": 2758}}


# the oracle instances of the benchmark's ``sweep`` workload, psl(2|2) with
# its functional constraints among them
SWEEP_ORACLES = [("osp", (1, 2)), ("sl", (2, 1)), ("p", (2,)), ("psl", (2,)),
                 ("W", (3,)), ("S", (3,)), ("H", (5,)), ("H", (6,)),
                 ("osp", (6, 2)), ("sl", (3, 2)), ("p", (3,))]


@pytest.mark.parametrize("fam,par", SWEEP_ORACLES)
def test_face_points_are_the_principal_subsets(fam, par):
    """The face values against ``principality_witness``, which solves a
    system of its own per subset: the values of the face search are
    exactly the exhaustive parabolics with a witness."""
    rs = rsys(fam, par)
    principal = [P.bits for P in enumerate_parabolics(rs, "exhaustive")
                 if principality_witness(P) is not None]
    assert _face_masks(rs) == principal


@pytest.mark.parametrize("fam,par", SWEEP_ORACLES)
def test_oracle_principal_count_per_orbit(fam, par, count_calls):
    """``oracle_counts`` reads principality once per orbit, with no face
    search: its count is the number of exhaustive subsets with a
    ``principality_witness`` of their own."""
    faces = count_calls(verify, "_face_masks")
    rs = rsys(fam, par)
    principal = sum(principality_witness(P) is not None
                    for P in enumerate_parabolics(rs, "exhaustive"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        counts = oracle_counts(fam, par)
    assert counts["principal"] == principal
    assert faces == {"_face_masks": 0}


def test_oracle_counts_a_non_principal_orbit_whole(monkeypatch):
    """Every reachable instance is fully principal, so one orbit of W(3),
    the largest, is made non-principal by a witness search that finds
    nothing on its representative: every member of it is counted so."""
    rs = rsys("W", (3,))
    bits = [P.bits for P in enumerate_parabolics(rs, "exhaustive")]
    partition = weyl.orbit_partition(rs, bits, weyl.generators(rs))
    can, members = max(partition.items(), key=lambda item: len(item[1]))
    assert len(members) > 1
    real = verify.principality_witness
    monkeypatch.setattr(verify, "principality_witness",
                        lambda P: None if P.bits == can else real(P))
    counts = oracle_counts("W", (3,))
    assert counts["non_principal"] == len(members)
    assert counts["principal"] == counts["parabolic"] - len(members)


def test_searches_leave_no_cycles():
    """A lift search (``kernel.enumerate_closed``) and a face search free
    everything they build when they return: with the collector off, none
    leaves an object that only ``gc.collect`` would reclaim."""
    rs = rsys("W", (3,))
    subsets = [RootSubset(rs, P.bits)
               for P in enumerate_parabolics(rs, "exhaustive")][:20]
    _face_masks(rs)  # build the tables the searches read
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for P in subsets:
            assert P.levi_masks()
            assert gc.collect() == 0
        _face_masks(rs)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


WITNESS_GOLDEN_SYSTEMS = [("H", (6,)), ("osp", (6, 2)), ("sl", (3, 2)),
                          ("p", (3,)), ("W", (3,)), ("S", (3,)), ("D21a", ())]


def test_principality_witness_golden(check_golden):
    """``principality_witness`` of every exhaustive parabolic, byte for byte:
    one line per subset, the system, the subset's bitmask and the witness."""
    lines = []
    for fam, par in WITNESS_GOLDEN_SYSTEMS:
        rs = rsys(fam, par)
        name = f"{fam}({','.join(map(str, par))})"
        for P in enumerate_parabolics(rs, "exhaustive"):
            w = principality_witness(P)
            lines.append(f"{name} {P.bits:#x} "
                         f"{list(w) if w is not None else None}")
    assert len(lines) == 2372
    check_golden("principality_witnesses.txt", "\n".join(lines) + "\n")


def witness_from_every_row(P):
    """``principality_witness`` with every root row eliminated: none is
    dropped as implied by a root sum."""
    rs, bits = P.rs, P.bits
    rows = [vec + (0,) if (bits >> i) & 1 else tuple(-c for c in vec) + (-1,)
            for i, vec in enumerate(rs.table.fm_weights)]
    point = feasible_witness(rows + list(rs.table.fm_constraints),
                             len(rs.basis))
    if point is None:
        return None
    X = point[0]
    g = gcd(*X) or 1
    return tuple(v // g for v in X)


@pytest.mark.parametrize("fam,par", [("sl", (2, 1)), ("p", (2,)), ("psl", (2,)),
                                     ("osp", (3, 2)), ("osp", (1, 4))])
def test_witness_matches_every_row_on_every_subset(fam, par):
    """Dropping the rows that root sums imply changes no witness, on every
    subset, parabolic or not, so the None of a non-principal subset too
    (no exhaustive parabolic of ``WITNESS_GOLDEN_SYSTEMS`` has one)."""
    rs = rsys(fam, par)
    nones = 0
    for bits in range(1 << len(rs)):
        P = RootSubset(rs, bits)
        w = principality_witness(P)
        assert w == witness_from_every_row(P), P
        nones += w is None
    assert 0 < nones < 1 << len(rs)


@pytest.mark.parametrize("fam,par", [("F4", ()), ("G3", ()), ("D21a", ()),
                                     ("S", (4,)), ("psl", (3,)), ("osp", (6, 2))])
def test_witness_matches_every_row_on_principal_grid(fam, par):
    """P(lam) over lam in {-1, 0, 2}^d: half-integral weights, whose rows
    have other scales than their summands' (F(4), G(3), D(2,1;a)), and the
    collinear delta, 2 delta of osp."""
    rs = rsys(fam, par)
    seen = set()
    for lam in itertools.product((-1, 0, 2), repeat=len(rs.basis)):
        try:
            P, _ = principal_parabolic(rs, lam)
        except ImproperSubsetError:
            continue
        if P.bits not in seen:
            seen.add(P.bits)
            w = principality_witness(P)
            assert w is not None and w == witness_from_every_row(P), P


def test_witness_rows_are_pinned(monkeypatch, count_calls):
    """The rows ``principality_witness`` hands to ``feasible_witness`` over
    ``WITNESS_GOLDEN_SYSTEMS``, and the ``IncrementalFM.add`` calls made
    for them, counted exactly, so that a change in which rows drop shows
    as a diff.  Every root row would be 53,620 rows; one row per direction
    adds 18,259 of the 24,451: each of the other 6,192 shares its
    direction with a row at least as tight."""
    calls = count_calls(IncrementalFM, "add")
    rows = 0

    def counting(eliminated, dim, implied=()):
        nonlocal rows
        rows += len(eliminated)
        return feasible_witness(eliminated, dim, implied)

    monkeypatch.setattr(parabolic, "feasible_witness", counting)
    for fam, par in WITNESS_GOLDEN_SYSTEMS:
        for P in enumerate_parabolics(rsys(fam, par), "exhaustive"):
            principality_witness(P)
    assert rows == 24451
    assert calls["add"] == 18259


def test_row_wrongly_marked_implied_fails_the_closing_check(monkeypatch):
    """A row that no root sum implies, marked implied, is not eliminated;
    the point found then violates it, and the closing check over every
    row raises instead of returning a wrong witness."""
    rs = rsys("sl", (2, 1))
    P = RootSubset(rs, 0x7)
    i = rs.parse_root("e2-d1")  # off P
    assert principality_witness(P) == witness_from_every_row(P)
    rows = ((i, (0,), (0,)),) + tuple(
        e for e in rs.table.implied_rows if e[0] != i)
    monkeypatch.setattr(rs.table, "implied_rows", rows)
    with pytest.raises(AssertionError, match="violates row"):
        principality_witness(P)


def test_face_masks_golden(check_golden):
    """``_face_masks`` on the table instances with at most 30 roots, byte
    for byte: one line per instance, with the count and the sorted masks
    in hex (F(4) has its own sweep test, and S(4) and S'(4) are pinned by
    hash in ``test_face_masks_unpruned_s4_hash``)."""
    lines = []
    for fam, par, _ in EXPECTED_ORBITS:
        rs = rsys(fam, par)
        if len(rs) <= 30:
            masks = _face_masks(rs)
            lines.append(" ".join([f"{fam}({','.join(map(str, par))})",
                                   "unpruned", str(len(masks))]
                                  + [f"{m:#x}" for m in masks]))
    assert len(lines) == 23
    check_golden("face_masks.txt", "\n".join(lines) + "\n")


@pytest.mark.parametrize("fam", ["S", "Sprime"])
def test_face_masks_unpruned_s4_hash(fam):
    """Unpruned ``_face_masks`` on S(4) and S'(4) (42 roots each, so left
    out of ``face_masks.txt``): 4,530 masks, whose hex list, joined by
    spaces as in the golden file, has the SHA-256 below.  The hash was
    taken from a search that branched on the engine at every hyperplane
    (about 35 s each, against about 1.5 s with forced signs)."""
    from hashlib import sha256

    masks = _face_masks(rsys(fam, (4,)))
    assert len(masks) == 4530
    text = " ".join(f"{m:#x}" for m in masks)
    assert sha256(text.encode()).hexdigest() == (
        "293ddee06597a712f2392fa3ebaeaafc2189d93b8513575a7c546a46f6368e82")
