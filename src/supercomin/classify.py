"""Expected classification tables, orbit enumeration and comparison reports.

Every classification statement is transcribed once as a rank-generic
predicate on root coordinates, producing explicit (L, N+) bit pairs; the
enumerator then checks that the orbits it finds match those tables
bijectively after canonicalization, that each representative is principal
with a unique Levi decomposition, and that the nilradical's weight multiset
equals the stated module expression.

The transcription has one vocabulary.  A module table is
``{weight: [even_dim, odd_dim]}``, summed per weight by ``_table`` from
(weight, even_dim, odd_dim) triples or by ``_agg`` from (weight, parity)
pairs.  ``tensor_weights`` (V (x) W) and ``_super_square`` (S^2 V or
Lambda^2 V) build the stated modules, ``flip_parities`` is the parity shift
and ``shift_weights`` the shift by a weight.  Root sets come from two rules:
``_gl_split``, the parabolic of gl that puts one side of a coordinate split
first (sl(m|n), psl(n|n), psq(n), the gl Levi factors of p(n) and
osp(2m|2n)), and ``_grading``, the Levi and nilradical of a grading by a sum
of coordinates (the e_1-gradings of osp and H(n), P(n) of p(n), and the
W(n)/S(n) tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import weyl
from .cominuscule import is_cominuscule
from .parabolic import (RootSubset, enumerate_parabolics, levi_decompositions,
                        principality_witness)
from .properties import even_factor_index_sets
from .rootsys import (RootSystem, _unit, build_root_system, normalize_family,
                      root_count, wadd, wneg)

HALF = Fraction(1, 2)


@dataclass
class ExpectedEntry:
    name: str
    levi_bits: int
    nil_bits: int
    levi_descriptor: str
    module_claim: str
    module_weights: dict  # weight -> [even_dim, odd_dim]
    module_check: str  # "multiset" | "support"

    @property
    def bits(self):
        return self.levi_bits | self.nil_bits


def _bits_of(rs, weights, tag=""):
    bits = 0
    for w in weights:
        i = rs.class_of(w)
        if i is None:
            raise ValueError(f"transcribed weight {w} is not a root ({tag})")
        bits |= 1 << i
    return bits


# ---------------------------------------------------------------------------
# module weight tables (the standard super conventions)


def _table(entries):
    """{weight: [even_dim, odd_dim]} of (weight, even_dim, odd_dim) triples."""
    out = {}
    for w, ev, od in entries:
        cell = out.setdefault(w, [0, 0])
        cell[0] += ev
        cell[1] += od
    return out


def _agg(pairs):
    return _table((w, 1 - parity, parity) for w, parity in pairs)


def tensor_weights(v1, v2):
    return _agg([(wadd(w1, w2), (p1 + p2) % 2) for w1, p1 in v1 for w2, p2 in v2])


def _super_square(v, diagonal):
    """S^2 V (``diagonal`` 0) or Lambda^2 V (``diagonal`` 1) of a list of
    (weight, parity): a product of two weights of one parity is even, and
    keeps its diagonal only in the parity ``diagonal``; even times odd is odd."""
    by_parity = [[w for w, p in v if p == q] for q in (0, 1)]
    out = [(wadd(x, y), 1) for x in by_parity[0] for y in by_parity[1]]
    for q, ws in enumerate(by_parity):
        out += [(wadd(ws[i], ws[j]), 0) for i in range(len(ws))
                for j in range(i + (q != diagonal), len(ws))]
    return _agg(out)


def shift_weights(table, shift):
    return {wadd(w, shift): list(d) for w, d in table.items()}


def flip_parities(table):
    """Parity shift Pi(M): the whole module sits in the other parity."""
    return {w: [d[1], d[0]] for w, d in table.items()}


def nilradical_multiset(rs: RootSystem, nil_bits: int):
    out = {}
    for i in range(len(rs)):
        if (nil_bits >> i) & 1:
            r = rs.roots[i]
            out[r.weight] = [r.even_dim, r.odd_dim]
    return out


# ---------------------------------------------------------------------------
# root sets


def _gl_split(d, coords, side):
    """(Levi, nilradical) weights of the parabolic of gl on the unit weights
    u_a, a in ``coords``, of a d-dimensional space that puts ``side`` first:
    u_a - u_b lies in the Levi when a and b are on one side, and in the
    nilradical when a is in ``side`` and b is not."""
    levi, nil = [], []
    for a in coords:
        for b in coords:
            if a != b and (a in side or b not in side):
                w = wadd(_unit(d, a), _unit(d, b, -1))
                (levi if (a in side) == (b in side) else nil).append(w)
    return levi, nil


def _grading(rs, coords, sign=1):
    """(Levi, nilradical) weights of the grading by sign * (the sum of the
    coordinates ``coords``): the roots where it is zero, and where positive."""
    value = lambda r: sign * sum(r.weight[k] for k in coords)
    return ([r.weight for r in rs.roots if value(r) == 0],
            [r.weight for r in rs.roots if value(r) > 0])


# ---------------------------------------------------------------------------
# family tables


def _expected_sl(rs, m, n, proj=None):
    d = m + n
    unit = lambda k, s=1: _unit(d, k, s)  # e_1..e_m, d_1..d_n
    entries = []
    if rs.family == "psl" and m == 2:
        allowed = [(1, 1)]
    else:
        allowed = [
            (m0, n0)
            for m0 in range(m + 1)
            for n0 in range(n + 1)
            if (m0, n0) not in ((0, 0), (m, n))
        ]
    for m0, n0 in allowed:
        levi, nil = _gl_split(d, range(d), {*range(m0), *range(m, m + n0)})
        v1 = [(unit(i), 0) for i in range(m0)] + [(unit(m + k), 1) for k in range(n0)]
        v2 = [(unit(j, -1), 0) for j in range(m0, m)] + [
            (unit(m + l, -1), 1) for l in range(n0, n)]
        table = tensor_weights(v1, v2)
        if proj is not None:
            table = proj(table)
        center = "" if rs.family == "psl" else " + C"
        entries.append(ExpectedEntry(
            f"P({m0}|{n0})",
            _bits_of(rs, levi), _bits_of(rs, nil),
            f"sl({m0}|{n0}) + sl({m - m0}|{n - n0}){center}",
            f"V^({m0}|{n0}) (x) V^({m - m0}|{n - n0})*",
            table, "multiset"))
    return entries


def _expected_psl(rs, n):
    def root_class(w):
        i = rs.class_of(w)
        return w if i is None else rs.roots[i].weight

    return _expected_sl(rs, n, n, proj=lambda table: _table(
        (root_class(w), *dims) for w, dims in table.items()))


def _expected_osp(rs):
    M, N = rs.params
    m, n = M // 2, N // 2
    d = m + n
    u = lambda a, s=1: _unit(d, a, s)  # e_1..e_m, d_1..d_n
    if M == 1:
        return []

    def entry(name, levi, nil, levi_desc, claim, table, bar=False):
        if bar:  # the image under e_m -> -e_m
            refl = lambda w: w[:m - 1] + (-w[m - 1],) + w[m:]
            levi, nil = map(refl, levi), map(refl, nil)
            table = {refl(w): dims for w, dims in table.items()}
        return ExpectedEntry(name, _bits_of(rs, levi), _bits_of(rs, nil),
                             levi_desc, claim, table, "multiset")

    # the e_1-grading: Levi osp(M-2|N) + C, nilradical e_1 + the standard
    # module of osp(M-2|N); odd M adds the short roots, so e_1 and the zero
    # weight
    std = [(u(a, s), 0) for a in range(1, m) for s in (1, -1)]
    std += [(u(a, s), 1) for a in range(m, d) for s in (1, -1)]
    std += [(tuple([Fraction(0)] * d), 0)] * (M % 2)
    e1_levi, e1_nil = _grading(rs, [0])
    e1_module = shift_weights(_agg(std), u(0))
    p1 = (e1_levi, e1_nil, f"osp({M - 2}|{N}) + C", f"V^({M - 2}|{N})", e1_module)
    if M % 2:
        return [entry("P", *p1)]
    # Levi gl(m|n), nilradical Lambda^2 V^(m|n): u_a + u_b for a < b, 2 d_k.
    # For m = 1 this is also S^2 of V^(1|n) with the parities swapped.
    gl_levi = _gl_split(d, range(d), ())[0]
    gl_nil = [wadd(u(a), u(b)) for a in range(d) for b in range(a + 1, d)]
    gl_nil += [u(a, 2) for a in range(m, d)]
    wedge = _super_square([(u(a), int(a >= m)) for a in range(d)], 1)
    if M == 2:  # e_m is e_1: -P(0) and bar-P(n) are images under e_1 -> -e_1
        p0 = (e1_levi, e1_nil, f"sp({N}) + C", f"V^({N})", e1_module)
        pn = (gl_levi, gl_nil, f"sl(1|{n})", f"S^2 V^(1|{n})", wedge)
        return [entry("P(0)", *p0), entry("-P(0)", *p0, bar=True),
                entry("P(n)", *pn), entry("bar-P(n)", *pn, bar=True)]
    pm = (gl_levi, gl_nil, f"gl({m}|{n})", f"Wedge^2 V^({m}|{n})", wedge)
    return [entry(f"P({m})", *pm), entry("P(1)", *p1),
            entry(f"bar-P({m})", *pm, bar=True)]


def _expected_D21a(rs):
    g = lambda i, s=1: _unit(3, i - 1, s)
    half = lambda w: tuple(HALF * c for c in w)
    levi = [g(3), g(3, -1)] + [half(wadd(wadd(g(1, s1), g(2, -s1)), g(3, s3)))
                               for s1 in (1, -1) for s3 in (1, -1)]
    nil = [g(1), g(2)] + [half(wadd(wadd(g(1), g(2)), g(3, s3))) for s3 in (1, -1)]
    v = [(half(wadd(g(2), g(3))), 0), (half(wadd(g(2), g(3, -1))), 0), (half(g(1)), 1)]
    return [ExpectedEntry(
        "P", _bits_of(rs, levi), _bits_of(rs, nil),
        "gl(2|1)", "Wedge^2 V^(2|1)", _super_square(v, 1), "multiset")]


def _expected_psq(rs, n):
    entries = []
    for n0 in range(1, n):
        levi, nil = _gl_split(n, range(n), range(n0))
        entries.append(ExpectedEntry(
            f"P({n0})", _bits_of(rs, levi), _bits_of(rs, nil),
            f"psq({n0},{n - n0})",
            f"V^({n0}|{n0}) (x) V^({n - n0}|{n - n0})*",
            {w: [2, 2] for w in nil}, "support"))
    return entries


def _expected_p(rs, n):
    e = lambda i, s=1: _unit(n, i, s)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    delta0 = _gl_split(n, range(n), ())[0]
    plus = [wadd(e(i), e(j)) for i, j in pairs]
    entries = [
        ExpectedEntry(
            "P(0)", _bits_of(rs, delta0),
            _bits_of(rs, plus + [e(i, 2) for i in range(n)]),
            f"sl({n})", f"S^2 V^{n} (odd)",
            flip_parities(_super_square([(e(i), 0) for i in range(n)], 0)),
            "multiset"),
        ExpectedEntry(
            "-P(0)", _bits_of(rs, delta0), _bits_of(rs, map(wneg, plus)),
            f"sl({n})", f"Wedge^2 (V^{n})* (odd)",
            flip_parities(_super_square([(e(i, -1), 0) for i in range(n)], 1)),
            "multiset")]
    for n0 in range(1, n):
        levi, nil = _gl_split(n, range(n), range(n0))
        for i, j in pairs:
            w = wadd(e(i), e(j))
            if i < n0 <= j:
                levi += [w, wneg(w)]
            else:
                nil.append(w if j < n0 else wneg(w))
        nil += [e(i, 2) for i in range(n0)]
        v = [(e(i), 0) for i in range(n0)] + [(e(j, -1), 1) for j in range(n0, n)]
        entries.append(ExpectedEntry(
            f"P({n0})", _bits_of(rs, levi), _bits_of(rs, nil),
            f"sl({n0}|{n - n0})", f"S^2 V^({n0}|{n - n0}) (odd)",
            flip_parities(_super_square(v, 0)), "multiset"))
    levi, nil = _grading(rs, [n - 1], -1)
    v = [(e(j), 0) for j in range(n - 1)] + [(e(j, -1), 1) for j in range(n - 1)]
    entries.append(ExpectedEntry(
        f"P({n})", _bits_of(rs, levi), _bits_of(rs, nil),
        f"p({n - 1}) + C", f"V^({n - 1}|{n - 1})",
        shift_weights(_agg(v), e(n - 1, -1)), "multiset"))
    return entries


# -- Cartan families ---------------------------------------------------------


def _w_weight(d, iset, j=None):
    """e_I - e_j (e_I without j) on d coordinates."""
    w = [Fraction(0)] * d
    for i in iset:
        w[i] += 1
    if j is not None:
        w[j] -= 1
    return tuple(w)


def _cartan_weights(nn, d, s):
    """(weight, even_dim, odd_dim) of W(nn) (s = 0) or S(nn) (s = 1) on the
    first nn of d coordinates: x^I d_j for j not in I, and at the weight of
    x^I the x^I x_j d_j, nn - |I| - s of them (S: the divergence-free
    span); I = {} gives the Cartan subalgebra."""
    out = []
    for mask in range(1 << nn):
        iset = [k for k in range(nn) if mask >> k & 1]
        par = len(iset) % 2
        out += [(_w_weight(d, iset, j), par, 1 - par)
                for j in range(nn) if j not in iset]
        dim = nn - len(iset) - s
        if dim > 0:
            out.append((_w_weight(d, iset), dim * (1 - par), dim * par))
    return out


def _expected_cartan_WS(rs, n):
    name = rs.family
    if name == "Sprime":
        return []
    entries = []
    for n0 in range(n):
        # P(n0): the grading by minus the sum of e_{n0+1}..e_n
        levi, nplus = _grading(rs, range(n0, n), -1)
        # Lambda(x_1..x_n0) (x) (V^{n-n0})* with the dual factor odd
        isets = [[k for k in range(n0) if mask >> k & 1] for mask in range(1 << n0)]
        mod = [(_w_weight(n, iset, j), len(iset) % 2, 1 - len(iset) % 2)
               for iset in isets for j in range(n0, n)]
        entries.append(ExpectedEntry(
            f"P({n0})", _bits_of(rs, levi), _bits_of(rs, nplus),
            f"{name}({n0}) |x (Lambda({n0}) (x) gl[{n0 + 1},{n}])",
            f"Lambda(x_1..x_{n0}) (x) (V^{n - n0})*",
            _table(mod), "multiset"))
    levi, nminus = _grading(rs, [n - 1])
    full = _table(_cartan_weights(n - 1, n, int(name == "S")))
    entries.append(ExpectedEntry(
        f"-P({n - 1})", _bits_of(rs, levi), _bits_of(rs, nminus),
        f"{name}({n - 1}) |x (Lambda({n - 1}) (x) gl[{n},{n}])",
        f"{name}({n - 1}) (x) V",
        shift_weights(flip_parities(full), _unit(n, n - 1)), "multiset"))
    return entries


def _htilde_full_weights(nn, d):
    """(weight, even_dim, odd_dim) of Htilde(nn) on the last nn // 2 of d
    coordinates."""
    l2, odd = nn // 2, nn % 2
    lo = d - l2
    out = []
    for imask in range(1 << l2):
        for jmask in range(1 << l2):
            if imask & jmask:
                continue
            s = bin(imask).count("1") + bin(jmask).count("1")
            w = [Fraction(0)] * d
            for k in range(l2):
                w[lo + k] += (imask >> k & 1) - (jmask >> k & 1)
            base = 1 << (l2 - s)
            if s == 0:
                out.append((tuple(w), base - 1, base * odd))
            elif odd:
                out.append((tuple(w), base, base))
            else:
                out.append((tuple(w), base * (1 - s % 2), base * (s % 2)))
    return out


def _expected_H(rs, n):
    l = n // 2
    levi, nil = _grading(rs, [0])
    mod = _htilde_full_weights(n - 2, l)
    mod.append((tuple([Fraction(0)] * l), 1, 0))  # the extra central line
    return [ExpectedEntry(
        "P", _bits_of(rs, levi), _bits_of(rs, nil),
        f"H({n - 2}) (x) Lambda(1) + C^2", f"Htilde({n - 2}) + C",
        shift_weights(flip_parities(_table(mod)), _unit(l, 0)), "multiset")]


def expected_entries(rs: RootSystem):
    fam = rs.family
    if fam == "sl":
        return _expected_sl(rs, *rs.params)
    if fam == "psl":
        return _expected_psl(rs, rs.params[0])
    if fam == "osp":
        return _expected_osp(rs)
    if fam == "D21a":
        return _expected_D21a(rs)
    if fam in ("F4", "G3"):
        return []
    if fam == "psq":
        return _expected_psq(rs, rs.params[0])
    if fam == "p":
        return _expected_p(rs, rs.params[0])
    if fam in ("W", "S", "Sprime"):
        return _expected_cartan_WS(rs, rs.params[0])
    if fam == "H":
        return _expected_H(rs, rs.params[0])
    raise ValueError(fam)


# ---------------------------------------------------------------------------
# classification runs


# The report's "method" field, which the classify goldens and the benchmark's
# ``table`` digests pin, is read off these two constants; they select no
# code, and every run reads the pruned lift stream.  Retiring the field
# waits for a benchmark change (ROADMAP item 11).

# families whose field reads "principal" past ``EXHAUSTIVE_ROOTS`` roots
# (regular Kac-Moody families; psl through its gl(n|n) lifts; Cartan type
# through the principality of their classified representatives)
PRINCIPAL_COMPLETE = {"sl", "psl", "osp", "D21a", "F4", "G3", "W", "S", "Sprime", "H"}

# the most roots for which the field reads "exhaustive" in every family
EXHAUSTIVE_ROOTS = 26


@dataclass
class OrbitResult:
    canonical_bits: int
    representative: RootSubset
    witness_functional: tuple | None
    levi_bits: int
    nil_bits: int
    decomposition_count: int
    matched_entry: str | None
    module_verdict: str


@dataclass
class ClassificationReport:
    family: str
    params: tuple
    group: str
    method: str
    orbit_count: int
    orbits: list
    expected_names: list
    matches_expected: bool
    unmatched_found: list
    unmatched_expected: list
    all_principal: bool
    all_unique_levi: bool
    entry_checks: list
    subsets: list  # every cominuscule parabolic subset found, in stream order


def choose_method(family, params) -> str:
    """The report's ``"method"`` field: ``"exhaustive"`` up to
    ``EXHAUSTIVE_ROOTS`` roots, ``"principal"`` past it in the
    ``PRINCIPAL_COMPLETE`` families, and ``"exhaustive"`` in every other
    family.  It selects no code: every run reads the pruned lift stream.
    |Delta| comes from the parameters, so choosing builds nothing."""
    if root_count(family, params) <= EXHAUSTIVE_ROOTS:
        return "exhaustive"
    family = normalize_family(family, params)[0]
    return "principal" if family in PRINCIPAL_COMPLETE else "exhaustive"


def cominuscule_subsets(rs: RootSystem):
    """All cominuscule parabolic subsets, in canonical bitmask order.

    They are read from the exhaustive lift stream pruned by the forbidden
    nilradical pairs (``enumerate_parabolics``), so only subsets that can
    still be cominuscule get a verdict, each from the Levi bits the stream
    seeds it with.  The one lift search is refused past the node budget
    ``kernel.NODE_CAP``.
    """
    return [s for s in enumerate_parabolics(rs, "exhaustive",
                                            prune_masks=rs.table.forbidden[False])
            if is_cominuscule(s).is_cominuscule]


def module_verdict(rs, entry: ExpectedEntry):
    actual = nilradical_multiset(rs, entry.nil_bits)
    expected = entry.module_weights
    if entry.module_check == "support":
        if set(actual) == set(expected):
            return "support_match_multiplicity_note"
        return "support_mismatch"
    norm = lambda t: {w: tuple(d) for w, d in t.items()}
    return "match" if norm(actual) == norm(expected) else "mismatch"


def enumerate_cominuscule_orbits(family, params) -> ClassificationReport:
    """The cominuscule orbits of one instance under the group its
    classification statement uses (``weyl.classification_group``), matched
    against the transcribed table.  Principality is checked per orbit:
    each representative gets a ``principality_witness``, and one without
    is reported in ``all_principal``."""
    rs = build_root_system(family, params)
    gens = weyl.generators(rs)
    found = cominuscule_subsets(rs)
    partition = weyl.orbit_partition(rs, [s.bits for s in found], gens)

    entries = expected_entries(rs)
    expected_by_canonical = {}
    for e in entries:
        can = weyl.canonical_rep(rs, e.bits, gens)
        expected_by_canonical[can] = e

    found_by_bits = {s.bits: s for s in found}
    orbit_results = []
    all_principal = True
    all_unique = True
    for can in sorted(partition):
        entry = expected_by_canonical.get(can)
        rep = found_by_bits[can]
        wit = principality_witness(rep)
        verdict = is_cominuscule(rep)
        if wit is None:
            all_principal = False
        # uniqueness over every member of the orbit that the run found
        ndec = len(verdict.decompositions)
        for b in partition[can]:
            if b != can:
                ndec = max(ndec, len(levi_decompositions(found_by_bits[b])))
        if ndec != 1:
            all_unique = False
        orbit_results.append(OrbitResult(
            canonical_bits=can,
            representative=rep,
            witness_functional=wit,
            levi_bits=verdict.witness.levi_bits if verdict.witness else 0,
            nil_bits=verdict.witness.nilradical_bits if verdict.witness else 0,
            decomposition_count=ndec,
            matched_entry=entry.name if entry else None,
            module_verdict=module_verdict(rs, entry) if entry else "no_entry",
        ))
    unmatched_found = [r.canonical_bits for r in orbit_results if r.matched_entry is None]
    unmatched_expected = [
        e.name for can, e in sorted(expected_by_canonical.items())
        if can not in partition
    ]
    entry_checks = [
        {"entry": e.name, "module_verdict": module_verdict(rs, e),
         "module_claim": e.module_claim, "levi": e.levi_descriptor}
        for e in entries
    ]
    return ClassificationReport(
        family=family, params=tuple(params),
        group=weyl.classification_group(rs),
        method=choose_method(family, params),
        orbit_count=len(partition),
        orbits=orbit_results,
        expected_names=[e.name for e in entries],
        matches_expected=not unmatched_found and not unmatched_expected
        and len(orbit_results) == len(entries),
        unmatched_found=unmatched_found,
        unmatched_expected=unmatched_expected,
        all_principal=all_principal,
        all_unique_levi=all_unique,
        entry_checks=entry_checks,
        subsets=found,
    )


# ---------------------------------------------------------------------------
# W(n): restriction / extension pattern


def _s_subsystem_indices(rs_w: RootSystem):
    """Indices of the sl(1|n)-shaped subsystem {e_i - e_j, +-e_i} of W(n)."""
    out = []
    for i, r in enumerate(rs_w.roots):
        nz = [c for c in r.weight if c != 0]
        if len(nz) == 1 and abs(nz[0]) == 1:
            out.append(i)
        elif len(nz) == 2 and sorted(nz) == [-1, 1]:
            out.append(i)
    return out


def _sl1n_sets(rs_w, n, m0, n0):
    """P_{sl(1|n)}(m0|n0) inside the W(n) coordinates: sl(1|n) on e_1..e_n
    and one more coordinate for its epsilon_1, which then maps to 0."""
    side = set(range(n0)) | ({n} if m0 else set())
    levi, nil = _gl_split(n + 1, range(n + 1), side)
    return _bits_of(rs_w, [w[:n] for w in levi + nil])


def _gl_sets(rs_w, n, n0):
    """P_{sl(n)}(n0) inside the even gl-part of W(n)."""
    levi, nil = _gl_split(n, range(n), range(n0))
    return _bits_of(rs_w, levi + nil)


def restriction_extension_check(n):
    """Verify the extension pattern of cominuscule subsets from sl(1|n) and
    from the even gl-part up to W(n), by inverting restriction over all
    cominuscule parabolic subsets of W(n)."""
    rs = build_root_system("W", (n,))
    gens = weyl.generators(rs)
    found = cominuscule_subsets(rs)
    s_mask = sum(1 << i for i in _s_subsystem_indices(rs))
    gl_mask = sum(1 << i for i in even_factor_index_sets(rs)["gl"])

    by_restriction = {}
    by_gl = {}
    for s in found:
        by_restriction.setdefault(s.bits & s_mask, set()).add(s.bits)
        by_gl.setdefault(s.bits & gl_mask, set()).add(s.bits)

    entries = {e.name: e for e in expected_entries(rs)}
    results = []

    def check(name, ok, detail=""):
        results.append({"check": name, "ok": bool(ok), "detail": detail})

    def unique_ext_in_orbit(exts, target_bits):
        # extension targets are named up to the S_n action (the corollary's
        # (0|1) case lands on the w0-conjugate of the displayed set)
        if len(exts) != 1:
            return False
        b = next(iter(exts))
        return weyl.canonical_rep(rs, b, gens) == weyl.canonical_rep(
            rs, target_bits, gens)

    # P_{sl(1|n)}(1|n0) extends uniquely to P_W(n0)
    for n0 in range(n):
        s_bits = _sl1n_sets(rs, n, 1, n0)
        exts = by_restriction.get(s_bits, set())
        target = entries[f"P({n0})"]
        check(f"extension P_sl(1|{n})(1|{n0}) -> P_W({n0})",
              unique_ext_in_orbit(exts, target.bits),
              f"{len(exts)} extensions")
    # P_{sl(1|n)}(0|1) extends uniquely to (the orbit of) -P_W(n-1)
    s_bits = _sl1n_sets(rs, n, 0, 1)
    exts = by_restriction.get(s_bits, set())
    check(f"extension P_sl(1|{n})(0|1) -> -P_W({n - 1})",
          unique_ext_in_orbit(exts, entries[f"-P({n - 1})"].bits),
          f"{len(exts)} extensions")
    # no extensions for (0|n0), n0 > 1
    for n0 in range(2, n + 1):
        if (0, n0) == (0, n):
            continue
        s_bits = _sl1n_sets(rs, n, 0, n0)
        exts = by_restriction.get(s_bits, set())
        check(f"no extension of P_sl(1|{n})(0|{n0})", not exts,
              f"{len(exts)} extensions")
    # even part: P_{sl(n)}(n0) for n0 > 1 extends uniquely; n0 = 1 twice
    for n0 in range(1, n):
        g_bits = _gl_sets(rs, n, n0)
        exts = by_gl.get(g_bits, set())
        if n0 == 1:
            check(f"P_sl({n})(1) has two extensions", len(exts) == 2,
                  f"{len(exts)} extensions")
        else:
            check(f"P_sl({n})({n0}) has a unique extension", len(exts) == 1,
                  f"{len(exts)} extensions")
    return results
