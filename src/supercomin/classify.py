"""Expected classification tables, orbit enumeration and comparison reports.

Every classification statement is transcribed once as a rank-generic
predicate on root coordinates, producing explicit (L, N+) bit pairs; the
enumerator then checks that the orbits it finds match those tables
bijectively after canonicalization, that each representative is principal
with a unique Levi decomposition, and that the nilradical's weight multiset
equals the stated module expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import weyl
from .cominuscule import is_cominuscule
from .parabolic import (DEFAULT_LIFT_CAP, DEFAULT_SUBSET_CAP, RootSubset,
                        enumerate_parabolics, levi_decompositions,
                        principality_witness)
from .realize import _decode_w_weight
from .rootsys import (RootSystem, _unit, build_root_system, osp_subfamily, wadd,
                      wneg)

HALF = Fraction(1, 2)


@dataclass
class ExpectedEntry:
    name: str
    levi_bits: int
    nil_bits: int
    levi_descriptor: str
    module_claim: str
    module_weights: dict | None  # weight -> [even_dim, odd_dim]
    module_check: str  # "multiset" | "support" | "none"

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
# module weight rules (the standard super conventions)


def _agg(pairs):
    out = {}
    for w, parity in pairs:
        cell = out.setdefault(w, [0, 0])
        cell[parity] += 1
    return out


def tensor_weights(v1, v2):
    return _agg([(wadd(w1, w2), (p1 + p2) % 2) for w1, p1 in v1 for w2, p2 in v2])


def supersym2_weights(v):
    ev = [w for w, p in v if p == 0]
    od = [w for w, p in v if p == 1]
    out = []
    out += [(wadd(ev[i], ev[j]), 0) for i in range(len(ev)) for j in range(i, len(ev))]
    out += [(wadd(x, y), 1) for x in ev for y in od]
    out += [(wadd(od[i], od[j]), 0) for i in range(len(od)) for j in range(i + 1, len(od))]
    return _agg(out)


def superwedge2_weights(v):
    ev = [w for w, p in v if p == 0]
    od = [w for w, p in v if p == 1]
    out = []
    out += [(wadd(ev[i], ev[j]), 0) for i in range(len(ev)) for j in range(i + 1, len(ev))]
    out += [(wadd(x, y), 1) for x in ev for y in od]
    out += [(wadd(od[i], od[j]), 0) for i in range(len(od)) for j in range(i, len(od))]
    return _agg(out)


def shift_weights(table, shift):
    return {wadd(w, shift): list(d) for w, d in table.items()}


def flip_parities(table):
    """Parity shift Pi(M): the whole module sits in the other parity."""
    return {w: [d[1], d[0]] for w, d in table.items()}


def _explicit(entries):
    """entries: iterable of (weight, even_dim, odd_dim)."""
    out = {}
    for w, ev, od in entries:
        cell = out.setdefault(w, [0, 0])
        cell[0] += ev
        cell[1] += od
    return out


def nilradical_multiset(rs: RootSystem, nil_bits: int):
    out = {}
    for i in range(len(rs)):
        if (nil_bits >> i) & 1:
            r = rs.roots[i]
            out[r.weight] = [r.even_dim, r.odd_dim]
    return out


# ---------------------------------------------------------------------------
# family tables


def _expected_sl(rs, m, n, proj=None):
    d = len(rs.basis)
    eps = lambda i: _unit(d, i - 1)
    dlt = lambda k: _unit(d, m + k - 1)
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
        levi, nil = [], []
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                w = wadd(eps(i), wneg(eps(j)))
                if (i <= m0) == (j <= m0):
                    levi.append(w)
                elif i <= m0 < j:
                    nil.append(w)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k == l:
                    continue
                w = wadd(dlt(k), wneg(dlt(l)))
                if (k <= n0) == (l <= n0):
                    levi.append(w)
                elif k <= n0 < l:
                    nil.append(w)
        for i in range(1, m + 1):
            for l in range(1, n + 1):
                w = wadd(eps(i), wneg(dlt(l)))
                if (i <= m0) == (l <= n0):
                    levi += [w, wneg(w)]
                elif i <= m0 and l > n0:
                    nil.append(w)
                else:
                    nil.append(wneg(w))
        v1 = [(eps(i), 0) for i in range(1, m0 + 1)] + [(dlt(k), 1) for k in range(1, n0 + 1)]
        v2 = [(wneg(eps(j)), 0) for j in range(m0 + 1, m + 1)] + [
            (wneg(dlt(l)), 1) for l in range(n0 + 1, n + 1)]
        table = tensor_weights(v1, v2)
        if proj is not None:
            table = proj(table)
        if rs.family == "psl":
            levi_desc = f"sl({m0}|{n0}) + sl({m - m0}|{n - n0})"
        else:
            levi_desc = f"sl({m0}|{n0}) + sl({m - m0}|{n - n0}) + C"
        entries.append(ExpectedEntry(
            f"P({m0}|{n0})",
            _bits_of(rs, levi), _bits_of(rs, nil),
            levi_desc,
            f"V^({m0}|{n0}) (x) V^({m - m0}|{n - n0})*",
            table, "multiset"))
    return entries


def _expected_psl(rs, n):
    shift = rs.gl_shift

    def proj(table):
        out = {}
        for w, d in table.items():
            i = rs.class_of(w)
            rep = w if i is None else rs.roots[i].weight
            cell = out.setdefault(rep, [0, 0])
            cell[0] += d[0]
            cell[1] += d[1]
        return out

    return _expected_sl(rs, n, n, proj=proj)


def _expected_osp(rs):
    M, N2 = rs.params
    m, n = M // 2, N2 // 2
    d = m + n
    eps = lambda i, s=1: _unit(d, i - 1, s)
    dlt = lambda k, s=1: _unit(d, m + k - 1, s)
    sub = osp_subfamily(rs)
    entries = []
    if sub == "osp1":
        return entries
    if sub == "osp_odd":
        levi, nil = [], []
        for i in range(2, m + 1):
            for j in range(i + 1, m + 1):
                for si in (1, -1):
                    for sj in (1, -1):
                        levi.append(wadd(eps(i, si), eps(j, sj)))
        for i in range(2, m + 1):
            levi += [eps(i), eps(i, -1)]
        for k in range(1, n + 1):
            for l in range(k + 1, n + 1):
                for sk in (1, -1):
                    for sl in (1, -1):
                        levi.append(wadd(dlt(k, sk), dlt(l, sl)))
            levi += [dlt(k, 2), dlt(k, -2), dlt(k), dlt(k, -1)]
            for i in range(2, m + 1):
                for si in (1, -1):
                    for sk in (1, -1):
                        levi.append(wadd(eps(i, si), dlt(k, sk)))
        for j in range(2, m + 1):
            nil += [wadd(eps(1), eps(j)), wadd(eps(1), eps(j, -1))]
        nil.append(eps(1))
        for k in range(1, n + 1):
            nil += [wadd(eps(1), dlt(k)), wadd(eps(1), dlt(k, -1))]
        # standard module of osp(2m-1|2n) shifted by eps_1
        std = [(tuple([Fraction(0)] * d), 0)]
        std += [(eps(j, s), 0) for j in range(2, m + 1) for s in (1, -1)]
        std += [(dlt(k, s), 1) for k in range(1, n + 1) for s in (1, -1)]
        entries.append(ExpectedEntry(
            "P", _bits_of(rs, levi), _bits_of(rs, nil),
            f"osp({2 * m - 1}|{2 * n}) + C", f"V^({2 * m - 1}|{2 * n})",
            shift_weights(_agg(std), eps(1)), "multiset"))
        return entries
    if sub == "osp_even":
        def entry_pm(theta):
            s_m = -1 if theta else 1
            te = lambda i, s=1: eps(i, s * (s_m if i == m else 1))
            levi, nil = [], []
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i != j:
                        levi.append(wadd(te(i), te(j, -1)))
                for j in range(i + 1, m + 1):
                    nil.append(wadd(te(i), te(j)))
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    if k != l:
                        levi.append(wadd(dlt(k), dlt(l, -1)))
                for l in range(k + 1, n + 1):
                    nil.append(wadd(dlt(k), dlt(l)))
                nil.append(dlt(k, 2))
            for i in range(1, m + 1):
                for k in range(1, n + 1):
                    w = wadd(te(i), dlt(k, -1))
                    levi += [w, wneg(w)]
                    nil.append(wadd(te(i), dlt(k)))
            v = [(te(i), 0) for i in range(1, m + 1)] + [
                (dlt(k), 1) for k in range(1, n + 1)]
            bar = "bar-" if theta else ""
            return ExpectedEntry(
                f"{bar}P({m})", _bits_of(rs, levi), _bits_of(rs, nil),
                f"gl({m}|{n})", f"Wedge^2 V^({m}|{n})",
                superwedge2_weights(v), "multiset")

        levi, nil = [], []
        for i in range(2, m + 1):
            for j in range(i + 1, m + 1):
                for si in (1, -1):
                    for sj in (1, -1):
                        levi.append(wadd(eps(i, si), eps(j, sj)))
        for k in range(1, n + 1):
            for l in range(k + 1, n + 1):
                for sk in (1, -1):
                    for sl in (1, -1):
                        levi.append(wadd(dlt(k, sk), dlt(l, sl)))
            levi += [dlt(k, 2), dlt(k, -2)]
            for i in range(2, m + 1):
                for si in (1, -1):
                    for sk in (1, -1):
                        levi.append(wadd(eps(i, si), dlt(k, sk)))
        for j in range(2, m + 1):
            nil += [wadd(eps(1), eps(j)), wadd(eps(1), eps(j, -1))]
        for k in range(1, n + 1):
            nil += [wadd(eps(1), dlt(k)), wadd(eps(1), dlt(k, -1))]
        std = [(eps(j, s), 0) for j in range(2, m + 1) for s in (1, -1)]
        std += [(dlt(k, s), 1) for k in range(1, n + 1) for s in (1, -1)]
        p1 = ExpectedEntry(
            "P(1)", _bits_of(rs, levi), _bits_of(rs, nil),
            f"osp({2 * m - 2}|{2 * n}) + C", f"V^({2 * m - 2}|{2 * n})",
            shift_weights(_agg(std), eps(1)), "multiset")
        return [entry_pm(False), p1, entry_pm(True)]
    # osp2: four orbits
    entries = []
    delta0 = []
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k != l:
                delta0.append(wadd(dlt(k), dlt(l, -1)))
        for l in range(k + 1, n + 1):
            for sk in (1, -1):
                for sl in (1, -1):
                    delta0.append(wadd(dlt(k, sk), dlt(l, sl)))
        delta0 += [dlt(k, 2), dlt(k, -2)]
    for sign, tag in ((1, "P(0)"), (-1, "-P(0)")):
        nil = [wadd(eps(1, sign), dlt(k, s)) for k in range(1, n + 1) for s in (1, -1)]
        std = [(dlt(k, s), 1) for k in range(1, n + 1) for s in (1, -1)]
        entries.append(ExpectedEntry(
            tag, _bits_of(rs, delta0), _bits_of(rs, nil),
            f"sp({2 * n}) + C", f"V^({2 * n})",
            shift_weights(_agg(std), eps(1, sign)), "multiset"))
    for sign, tag in ((1, "P(n)"), (-1, "bar-P(n)")):
        levi, nil = [], []
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k != l:
                    levi.append(wadd(dlt(k), dlt(l, -1)))
            for l in range(k + 1, n + 1):
                nil.append(wadd(dlt(k), dlt(l)))
            nil.append(dlt(k, 2))
            w = wadd(eps(1, sign), dlt(k, -1))
            levi += [w, wneg(w)]
            nil.append(wadd(eps(1, sign), dlt(k)))
        v = [(dlt(k), 0) for k in range(1, n + 1)] + [(eps(1, sign), 1)]
        entries.append(ExpectedEntry(
            tag, _bits_of(rs, levi), _bits_of(rs, nil),
            f"sl(1|{n})", f"S^2 V^(1|{n})",
            supersym2_weights(v), "multiset"))
    return entries


def _expected_D21a(rs):
    g = lambda i, s=1: _unit(3, i - 1, s)
    levi = [g(3), g(3, -1)]
    for s1 in (1, -1):
        for s3 in (1, -1):
            levi.append(tuple(HALF * c for c in wadd(
                wadd(g(1, s1), g(2, -s1)), g(3, s3))))
    nil = [g(1), g(2)]
    for s3 in (1, -1):
        nil.append(tuple(HALF * c for c in wadd(wadd(g(1), g(2)), g(3, s3))))
    half = lambda w: tuple(HALF * c for c in w)
    v = [(half(wadd(g(2), g(3))), 0), (half(wadd(g(2), g(3, -1))), 0), (half(g(1)), 1)]
    return [ExpectedEntry(
        "P", _bits_of(rs, levi), _bits_of(rs, nil),
        "gl(2|1)", "Wedge^2 V^(2|1)", superwedge2_weights(v), "multiset")]


def _expected_psq(rs, n):
    entries = []
    for n0 in range(1, n):
        levi, nil = [], []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                w = wadd(_unit(n, i - 1), _unit(n, j - 1, -1))
                if (i <= n0) == (j <= n0):
                    levi.append(w)
                elif i <= n0 < j:
                    nil.append(w)
        support = {wadd(_unit(n, i - 1), _unit(n, j - 1, -1)): None
                   for i in range(1, n0 + 1) for j in range(n0 + 1, n + 1)}
        entries.append(ExpectedEntry(
            f"P({n0})", _bits_of(rs, levi), _bits_of(rs, nil),
            f"psq({n0},{n - n0})",
            f"V^({n0}|{n0}) (x) V^({n - n0}|{n - n0})*",
            {w: [2, 2] for w in support}, "support"))
    return entries


def _expected_p(rs, n):
    e = lambda i, s=1: _unit(n, i - 1, s)
    entries = []
    delta0 = [wadd(e(i), e(j, -1)) for i in range(1, n + 1)
              for j in range(1, n + 1) if i != j]
    nil = [wadd(e(i), e(j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    nil += [e(i, 2) for i in range(1, n + 1)]
    entries.append(ExpectedEntry(
        "P(0)", _bits_of(rs, delta0), _bits_of(rs, nil),
        f"sl({n})", f"S^2 V^{n} (odd)",
        flip_parities(supersym2_weights([(e(i), 0) for i in range(1, n + 1)])),
        "multiset"))
    nilm = [wneg(wadd(e(i), e(j))) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    entries.append(ExpectedEntry(
        "-P(0)", _bits_of(rs, delta0), _bits_of(rs, nilm),
        f"sl({n})", f"Wedge^2 (V^{n})* (odd)",
        flip_parities(superwedge2_weights([(e(i, -1), 0) for i in range(1, n + 1)])),
        "multiset"))
    for n0 in range(1, n):
        levi, nil = [], []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                w = wadd(e(i), e(j, -1))
                if (i <= n0) == (j <= n0):
                    levi.append(w)
                elif i <= n0 < j:
                    nil.append(w)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                w = wadd(e(i), e(j))
                if i <= n0 < j:
                    levi += [w, wneg(w)]
                elif j <= n0:
                    nil.append(w)
                else:
                    nil.append(wneg(w))
        for i in range(1, n0 + 1):
            nil.append(e(i, 2))
        v = [(e(i), 0) for i in range(1, n0 + 1)] + [
            (e(j, -1), 1) for j in range(n0 + 1, n + 1)]
        entries.append(ExpectedEntry(
            f"P({n0})", _bits_of(rs, levi), _bits_of(rs, nil),
            f"sl({n0}|{n - n0})", f"S^2 V^({n0}|{n - n0}) (odd)",
            flip_parities(supersym2_weights(v)), "multiset"))
    levi, nil = [], []
    for i in range(1, n):
        for j in range(1, n):
            if i != j:
                levi.append(wadd(e(i), e(j, -1)))
        for j in range(i + 1, n):
            w = wadd(e(i), e(j))
            levi += [w, wneg(w)]
        levi.append(e(i, 2))
    for j in range(1, n):
        nil += [wadd(e(j), e(n, -1)), wneg(wadd(e(j), e(n)))]
    v = [(e(j), 0) for j in range(1, n)] + [(e(j, -1), 1) for j in range(1, n)]
    entries.append(ExpectedEntry(
        f"P({n})", _bits_of(rs, levi), _bits_of(rs, nil),
        f"p({n - 1}) + C", f"V^({n - 1}|{n - 1})",
        shift_weights(_agg(v), e(n, -1)), "multiset"))
    return entries


# -- Cartan families ---------------------------------------------------------


def _subset_leq(mask, n0):
    return not (mask >> n0)


def _w_entry_sets(rs, n, n0):
    """(levi, nil_plus, nil_minus) index lists of the W/S displays."""
    levi, nplus, nminus = [], [], []
    for i, r in enumerate(rs.roots):
        imask, j = _decode_w_weight(r.weight)
        if j is not None:
            inside = _subset_leq(imask, n0)
            if inside and j < n0:
                levi.append(i)
            elif inside and j >= n0:
                nplus.append(i)
            elif not inside and j < n0:
                nminus.append(i)
            else:
                hi = imask >> n0
                if bin(hi).count("1") == 1:
                    levi.append(i)
                elif bin(hi).count("1") >= 2:
                    nminus.append(i)
                else:  # impossible: not inside means hi != 0
                    raise AssertionError
        else:
            (levi if _subset_leq(imask, n0) else nminus).append(i)
    return levi, nplus, nminus


def _wn_full_weights(nn, d, slots):
    """Weight multiset of the whole algebra W(nn) on the given slots.

    Used for the explicit module tables: root spaces per the defining
    formulas plus the nn-dimensional zero weight space (even).
    """
    out = []
    for mask in range(1 << nn):
        size = bin(mask).count("1")
        iset = [slots[k] for k in range(nn) if mask >> k & 1]
        for jj in range(nn):
            if mask >> jj & 1:
                continue
            w = [Fraction(0)] * d
            for s in iset:
                w[s] += 1
            w[slots[jj]] -= 1
            par = (size - 1) % 2
            out.append((tuple(w), 1 - par, par))
        if 0 < size < nn:
            w = [Fraction(0)] * d
            for s in iset:
                w[s] += 1
            par = size % 2
            dim = nn - size
            out.append((tuple(w), dim * (1 - par), dim * par))
    out.append((tuple([Fraction(0)] * d), nn, 0))
    return out


def _sn_full_weights(nn, d, slots):
    out = []
    for mask in range(1 << nn):
        size = bin(mask).count("1")
        iset = [slots[k] for k in range(nn) if mask >> k & 1]
        for jj in range(nn):
            if mask >> jj & 1:
                continue
            w = [Fraction(0)] * d
            for s in iset:
                w[s] += 1
            w[slots[jj]] -= 1
            par = (size - 1) % 2
            out.append((tuple(w), 1 - par, par))
        if 0 < size < nn - 1:
            w = [Fraction(0)] * d
            for s in iset:
                w[s] += 1
            par = size % 2
            dim = nn - size - 1
            out.append((tuple(w), dim * (1 - par), dim * par))
    out.append((tuple([Fraction(0)] * d), nn - 1, 0))
    return out


def _parity_flip(entries):
    return [(w, od, ev) for (w, ev, od) in entries]


def _expected_cartan_WS(rs, n):
    prime = rs.family == "Sprime"
    if prime:
        return []
    is_w = rs.family == "W"
    entries = []
    full = _wn_full_weights if is_w else _sn_full_weights
    for n0 in range(n):
        levi, nplus, _ = _w_entry_sets(rs, n, n0)
        # Lambda(x_1..x_n0) (x) (V^{n-n0})* with the dual factor odd
        mod = []
        for mask in range(1 << n0):
            w0 = [Fraction(0)] * n
            for k in range(n0):
                if mask >> k & 1:
                    w0[k] += 1
            par = bin(mask).count("1") % 2
            for j in range(n0, n):
                w = list(w0)
                w[j] -= 1
                mod.append((tuple(w), 1 - (par ^ 1), par ^ 1))
        name = "W" if is_w else "S"
        entries.append(ExpectedEntry(
            f"P({n0})",
            sum(1 << i for i in levi), sum(1 << i for i in nplus),
            f"{name}({n0}) |x (Lambda({n0}) (x) gl[{n0 + 1},{n}])",
            f"Lambda(x_1..x_{n0}) (x) (V^{n - n0})*",
            _explicit(mod), "multiset"))
    levi, _, nminus = _w_entry_sets(rs, n, n - 1)
    shifted = []
    for w, ev, od in _parity_flip(full(n - 1, n, list(range(n - 1)))):
        shifted.append((wadd(w, _unit(n, n - 1)), ev, od))
    name = "W" if is_w else "S"
    entries.append(ExpectedEntry(
        f"-P({n - 1})",
        sum(1 << i for i in levi), sum(1 << i for i in nminus),
        f"{name}({n - 1}) |x (Lambda({n - 1}) (x) gl[{n},{n}])",
        f"{name}({n - 1}) (x) V",
        _explicit(shifted), "multiset"))
    return entries


def _htilde_full_weights(nn, d):
    """Weight multiset of Htilde(nn) laid out on the last l' slots of d."""
    l2 = nn // 2
    odd = nn % 2
    c = 2 if odd else 1
    out = []
    lo = d - l2
    for imask in range(1 << l2):
        for jmask in range(1 << l2):
            if imask & jmask:
                continue
            s = bin(imask).count("1") + bin(jmask).count("1")
            w = [Fraction(0)] * d
            for k in range(l2):
                if imask >> k & 1:
                    w[lo + k] += 1
                if jmask >> k & 1:
                    w[lo + k] -= 1
            base = (1 << (l2 - s)) * c
            if s == 0:
                if odd:
                    out.append((tuple(w), (1 << l2) - 1, 1 << l2))
                else:
                    out.append((tuple(w), (1 << l2) - 1, 0))
            elif odd:
                out.append((tuple(w), base // 2, base // 2))
            else:
                par = s % 2
                out.append((tuple(w), base * (1 - par), base * par))
    return out


def _expected_H(rs, n):
    l = n // 2
    levi, nil = [], []
    for i, r in enumerate(rs.roots):
        if r.weight[0] == 1:
            nil.append(i)
        elif r.weight[0] == 0:
            levi.append(i)
    mod = _htilde_full_weights(n - 2, l)
    mod.append((tuple([Fraction(0)] * l), 1, 0))  # the extra central line
    shifted = [(wadd(w, _unit(l, 0)), ev, od) for w, ev, od in _parity_flip(mod)]
    return [ExpectedEntry(
        "P",
        sum(1 << i for i in levi), sum(1 << i for i in nil),
        f"H({n - 2}) (x) Lambda(1) + C^2", f"Htilde({n - 2}) + C",
        _explicit(shifted), "multiset")]


def expected_classification(family, params):
    rs = build_root_system(family, params)
    return expected_entries(rs), rs


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


# families where enumerating principal subsets only is known to reach every
# cominuscule parabolic subset (regular Kac-Moody families; psl through its
# gl(n|n) lifts; Cartan type through the principality of their classified
# representatives)
PRINCIPAL_COMPLETE = {"sl", "psl", "osp", "D21a", "F4", "G3", "W", "S", "Sprime", "H"}


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


def choose_method(rs: RootSystem, subset_cap=DEFAULT_SUBSET_CAP) -> str:
    if len(rs) <= subset_cap:
        return "exhaustive"
    if rs.family in PRINCIPAL_COMPLETE:
        return "principal"
    raise ValueError(
        f"|Delta| = {len(rs)} needs the principal method, which does not "
        f"cover every parabolic subset for family {rs.family}")


def cominuscule_subsets(rs: RootSystem, method="auto",
                        subset_cap=DEFAULT_SUBSET_CAP, lift_cap=DEFAULT_LIFT_CAP):
    """All cominuscule parabolic subsets, plus the method actually used."""
    if method == "auto":
        method = choose_method(rs, subset_cap)
    prune = rs.table.forbidden[False] if method == "principal" else None
    out = []
    for subset in enumerate_parabolics(rs, method, subset_cap=subset_cap,
                                       lift_cap=lift_cap, prune_masks=prune):
        v = is_cominuscule(subset, lift_cap=lift_cap)
        if v.is_cominuscule:
            out.append(subset)
    return out, method


def module_verdict(rs, entry: ExpectedEntry):
    if entry.module_check == "none" or entry.module_weights is None:
        return "not_checked"
    actual = nilradical_multiset(rs, entry.nil_bits)
    expected = entry.module_weights
    if entry.module_check == "support":
        if set(actual) == set(expected):
            return "support_match_multiplicity_note"
        return "support_mismatch"
    norm = lambda t: {w: tuple(d) for w, d in t.items()}
    return "match" if norm(actual) == norm(expected) else "mismatch"


def enumerate_cominuscule_orbits(family, params, method="auto", group="auto",
                                 subset_cap=DEFAULT_SUBSET_CAP,
                                 lift_cap=DEFAULT_LIFT_CAP,
                                 orbit_cap=weyl.DEFAULT_ORBIT_CAP) -> ClassificationReport:
    rs = build_root_system(family, params)
    gens = weyl.generators(rs, group)
    group_used = weyl.classification_group(rs) if group == "auto" else group
    found, method_used = cominuscule_subsets(rs, method, subset_cap, lift_cap)
    partition = weyl.orbit_partition(rs, [s.bits for s in found], gens,
                                     cap=orbit_cap)

    entries = expected_entries(rs)
    expected_by_canonical = {}
    for e in entries:
        can = weyl.canonical_rep(rs, e.bits, gens, cap=orbit_cap)
        expected_by_canonical[can] = e

    found_by_bits = {s.bits: s for s in found}
    orbit_results = []
    all_principal = True
    all_unique = True
    for can in sorted(partition):
        entry = expected_by_canonical.get(can)
        rep = found_by_bits[can]
        wit = principality_witness(rep)
        verdict = is_cominuscule(rep, lift_cap=lift_cap)
        if wit is None:
            all_principal = False
        # uniqueness over every member of the orbit that the run found
        ndec = len(verdict.decompositions)
        for b in partition[can]:
            if b != can:
                ndec = max(ndec, len(levi_decompositions(found_by_bits[b],
                                                         lift_cap=lift_cap)))
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
        family=family, params=tuple(params), group=group_used, method=method_used,
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


def _gl_part_indices(rs_w: RootSystem):
    out = []
    for i, r in enumerate(rs_w.roots):
        nz = sorted(c for c in r.weight if c != 0)
        if nz == [-1, 1]:
            out.append(i)
    return out


def _sl1n_sets(rs_w, n, m0, n0):
    """P_{sl(1|n)}(m0|n0) inside the W(n) coordinates (delta_1 -> 0)."""
    levi, nil = [], []
    e = lambda i, s=1: _unit(n, i - 1, s)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            w = wadd(e(i), e(j, -1))
            if (i <= n0) == (j <= n0):
                levi.append(w)
            elif i <= n0 < j:
                nil.append(w)
    for i in range(1, n + 1):
        if m0 == 1:
            if i <= n0:
                levi += [e(i), e(i, -1)]
            else:
                nil.append(e(i, -1))
        else:
            if i > n0:
                levi += [e(i), e(i, -1)]
            else:
                nil.append(e(i))
    return _bits_of(rs_w, levi) | _bits_of(rs_w, nil)


def _gl_sets(rs_w, n, n0):
    """P_{sl(n)}(n0) inside the even gl-part of W(n)."""
    sets = []
    e = lambda i, s=1: _unit(n, i - 1, s)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            w = wadd(e(i), e(j, -1))
            if (i <= n0) == (j <= n0) or i <= n0 < j:
                sets.append(w)
    return _bits_of(rs_w, sets)


def restriction_extension_check(n, subset_cap=DEFAULT_SUBSET_CAP,
                                lift_cap=DEFAULT_LIFT_CAP):
    """Verify the extension pattern of cominuscule subsets from sl(1|n) and
    from the even gl-part up to W(n), by inverting restriction over all
    cominuscule parabolic subsets of W(n)."""
    rs = build_root_system("W", (n,))
    gens = weyl.generators(rs, "auto")
    found, _ = cominuscule_subsets(rs, "auto", subset_cap, lift_cap)
    s_idx = _s_subsystem_indices(rs)
    s_mask = sum(1 << i for i in s_idx)
    gl_idx = _gl_part_indices(rs)
    gl_mask = sum(1 << i for i in gl_idx)

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
