"""Root systems of the simple finite-dimensional complex Lie superalgebras.

Families covered (canonical tags):

==========  ==========================================  ==================
tag         algebra                                     params
==========  ==========================================  ==================
sl          sl(m|n), m != n                             (m, n)
psl         psl(n|n)                                    (n,)
osp         osp(M|N), N even                            (M, N)
D21a        D(2,1;a)  (roots independent of a)          ()
F4          F(4)                                        ()
G3          G(3)                                        ()
psq         psq(n)                                      (n,)
p           p(n), the periplectic series                (n,)
W           W(n)                                        (n,)
S           S(n)                                        (n,)
Sprime      S'(n), n even                               (n,)
H           H(n)                                        (n,)
==========  ==========================================  ==================

Aliases ``osp_odd (m,n) -> osp(2m+1|2n)``, ``osp1 (n,) -> osp(1|2n)``,
``osp_even (m,n) -> osp(2m|2n)`` and ``osp2 (n,) -> osp(2|2n)`` are accepted.

Weights are tuples of exact rationals over an ordered basis of labels
eps_1..eps_m, delta_1..delta_n, gamma_1..gamma_k, written ``e``/``d``/``g``
in serialized form.  All arithmetic is exact; root order is lexicographic
on coordinate tuples, which makes every downstream report deterministic.

Three families live in a coordinate space borrowed from a bigger algebra:

* ``psl(n|n)`` stores roots in gl(n|n) coordinates.  For n >= 3 the root
  sets coincide; for n = 2 the identification collapses pairs of odd
  gl-roots into single psl roots of dimension (0|2), and each stored root
  keeps the full tuple of gl lifts.  Sums of roots are classified against
  the gl(n|n) root set (``ambient_sum``); membership of the quotient image
  is the separate query ``projected_sum_in_delta``.
* ``S(n)``/``S'(n)`` store roots in W(n) coordinates; the n weights
  eps_{[1,n] minus i} belong to W(n) but not to S(n), and sums landing on
  them are reported as ``ambient_only``.

Every family but H(n) is built from two root shapes, ``_differences``
(v_a - v_b for each a != b) and ``_signed_sums`` (+-v_1 +- ... +- v_k, every
choice of signs), and the Cartan series W(n), S(n), S'(n) by one rule,
``_build_cartan``.

The searches read root sums from ``RootSystem.table``, a ``RootTable`` of
sparse closure rows and forbidden-pair masks, built on first use in one
pass over the pairs of the system's integer weights; the point queries
``ambient_sum``, ``pair_targets`` and ``SymmetrizedSystem.sum_target``
answer from the weights and those rows.  ``build_root_system`` returns one shared system
per normalized (family, params), so the table is built once per system
and process.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

HALF = Fraction(1, 2)

FAMILIES = ("sl", "psl", "osp", "D21a", "F4", "G3", "psq", "p", "W", "S", "Sprime", "H")

_OSP_ALIASES = ("osp_odd", "osp1", "osp_even", "osp2")


# bits per chunk of the image tables that apply a root permutation to a
# mask (``RootTable.image_tables``), 16 entries per chunk; 8-bit chunks
# were slower on the table instances (at most 42 roots), whose tables
# they build 8 times as many entries for
NIBBLE = 4
NIBBLE_MASK = (1 << NIBBLE) - 1

# the most roots a system may have; the table's pair pass is quadratic in
# |Delta| (W(8), 1278 roots: 7 s and 128 MB for the build and table)
ROOT_CAP = 1024


class ParameterError(ValueError):
    """Family parameters outside the validity range; message names the bound."""


class CapExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# weights


def wadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def wneg(u):
    return tuple(-a for a in u)


def wsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def is_zero_weight(u) -> bool:
    return all(a == 0 for a in u)


@dataclass(frozen=True)
class Root:
    weight: tuple
    even_dim: int
    odd_dim: int

    def __post_init__(self):
        if self.even_dim + self.odd_dim < 1:
            raise ValueError("root space must be nonzero")
        if is_zero_weight(self.weight):
            raise ValueError("zero weight is not a root")


@dataclass(frozen=True)
class SumOutcome:
    kind: str  # "in_delta" | "ambient_only" | "not_root"
    index: int | None = None
    weight: tuple | None = None

    @staticmethod
    def in_delta(index: int) -> "SumOutcome":
        return SumOutcome("in_delta", index=index)

    @staticmethod
    def ambient_only(weight) -> "SumOutcome":
        return SumOutcome("ambient_only", weight=weight)

    @staticmethod
    def not_root() -> "SumOutcome":
        return SumOutcome("not_root")


class RootSystem:
    """Immutable indexed root set with family metadata and ambient sums.

    The system owns its integer weights, each built on first read: the
    common denominator ``denom``, the root weights times it (``weights``)
    and one lift index ``class_index`` (every gl lift for psl), which
    ``neg``, ``symmetric`` and ``class_of`` read; so a P(lam) or a root
    permutation builds no ``RootTable``.
    """

    def __init__(self, family, params, basis, roots,
                 lifts=None, ambient_extra=None, gl_shift=None):
        self.family = family
        self.params = tuple(params)
        self.basis = tuple(basis)  # tuples (kind, index), kind in "edg"
        order = sorted(range(len(roots)), key=lambda i: roots[i].weight)
        self.roots = tuple(roots[i] for i in order)
        self._index = {r.weight: i for i, r in enumerate(self.roots)}
        if len(self._index) != len(self.roots):
            raise ValueError("duplicate root weights")
        if lifts is None:
            self.lifts = tuple((r.weight,) for r in self.roots)
        else:
            self.lifts = tuple(tuple(lifts[i]) for i in order)
        # weights that are ambient roots but not roots of Delta (S/S' only)
        self.ambient_extra = frozenset(ambient_extra or ())
        self.gl_shift = gl_shift  # psl only: sum(eps) - sum(delta) in gl coords
        self._sym = None
        self._table = None

    # -- basic queries --------------------------------------------------
    def __len__(self):
        return len(self.roots)

    def index_of(self, weight):
        return self._index.get(tuple(weight))

    # -- integer weights --------------------------------------------------
    @cached_property
    def denom(self) -> int:
        """The common denominator of every lift and ambient-only weight: 2
        for the half-integral F(4), G(3) and D(2,1;a) weights, 1 elsewhere."""
        return lcm(*(Fraction(c).denominator for ws in (*self.lifts, self.ambient_extra)
                     for w in ws for c in w))

    def scaled(self, weight):
        """``weight`` times ``denom``, in integers."""
        d = self.denom
        return tuple(int(c * d) for c in weight)

    @cached_property
    def weights(self) -> tuple:
        """Each root weight times ``denom``, in root order."""
        return tuple(self.scaled(r.weight) for r in self.roots)

    @cached_property
    def class_index(self) -> dict:
        """Each integer lift weight to its root index: every gl lift for psl,
        so its classes are the fibers of the quotient map."""
        return {self.scaled(w): i for i, ls in enumerate(self.lifts) for w in ls}

    @cached_property
    def neg(self) -> tuple:
        """The root class of the negation of each root, or None."""
        index = self.class_index
        return tuple(index.get(tuple(-c for c in w)) for w in self.weights)

    @cached_property
    def symmetric(self) -> bool:
        return None not in self.neg

    def class_of(self, weight):
        """Index of the root whose class contains ``weight``, or None.

        For psl the classes are the fibers of the quotient map, so every gl
        lift of a root finds it; elsewhere this is ``index_of``.
        """
        w = [c * self.denom for c in weight]
        if any(c.denominator != 1 for c in w):
            return None
        return self.class_index.get(tuple(map(int, w)))

    @property
    def table(self) -> "RootTable":
        if self._table is None:
            self._table = RootTable(self)
        return self._table

    def dim_root_spaces(self):
        return sum(r.even_dim + r.odd_dim for r in self.roots)

    # -- sums -----------------------------------------------------------
    def ambient_sum(self, a: int, b: int) -> SumOutcome:
        """Classify the sum of roots a and b in the ambient coordinate space.

        The sum of the stored representative weights is formed literally and
        looked up: first among the roots of Delta, then (for S/S') among the
        ambient-only W(n) roots.  For psl the ambient root set is that of
        gl(n|n), every member of which is identified with a stored root, so
        the outcome is never ``ambient_only`` there.
        """
        w = wadd(self.roots[a].weight, self.roots[b].weight)
        t = self.class_of(w)
        if t is not None:
            return SumOutcome.in_delta(t)
        if w in self.ambient_extra:
            return SumOutcome.ambient_only(w)
        return SumOutcome.not_root()

    def pair_targets(self, a: int, b: int):
        """Root indices forced by closure when a and b both lie in a subset.

        For psl this runs over all lift pairs (one gl-root sum per pair can
        land in the gl root set); elsewhere it is the plain ambient sum.
        """
        mask = dict(self.table.closure_rows[a]).get(b, 0)
        return tuple(t for t in range(len(self.roots)) if (mask >> t) & 1)

    def functional_constraints(self):
        """Directions every functional on this system must annihilate.

        When the quotient identification collapses gl roots (psl(2|2)), the
        value of a functional on a root class must not depend on the chosen
        lift, which pins the functional to the quotient coordinate space.
        Elsewhere the stored coordinates are the functional domain.
        """
        if self.gl_shift is None or all(len(ls) == 1 for ls in self.lifts):
            return ()
        n = len(self.basis) // 2
        eps_sum = tuple(Fraction(1 if k < n else 0) for k in range(2 * n))
        dlt_sum = tuple(Fraction(0 if k < n else 1) for k in range(2 * n))
        return (eps_sum, dlt_sum)

    def projected_sum_in_delta(self, a: int, b: int) -> bool:
        """psl only: is the image of a+b under the quotient map a root?"""
        if self.family != "psl":
            raise ValueError("projected_sum_in_delta is defined for psl only")
        w = wadd(self.roots[a].weight, self.roots[b].weight)
        return any(self.class_of(cand) is not None
                   for cand in (w, wadd(w, self.gl_shift), wsub(w, self.gl_shift)))

    # -- symmetrization ---------------------------------------------------
    def symmetrized(self) -> "SymmetrizedSystem":
        if self._sym is None:
            self._sym = SymmetrizedSystem(self)
        return self._sym

    # -- serialization ------------------------------------------------------
    @cached_property
    def labels(self) -> tuple:
        """``weight_str`` of each root, in root order, formatted once."""
        return tuple(weight_str(r.weight, self.basis) for r in self.roots)

    def root_str(self, i: int) -> str:
        return self.labels[i]

    def parse_root(self, s: str) -> int:
        idx = self.class_of(parse_weight(s, self.basis))
        if idx is None:
            raise ValueError(f"{s!r} is not a root of this system")
        return idx

    def __repr__(self):
        p = ",".join(str(x) for x in self.params)
        return f"<RootSystem {self.family}({p}) with {len(self.roots)} roots>"


class SymmetrizedSystem:
    """The set Delta union (-Delta) with literal weight arithmetic.

    For symmetric systems this is Delta itself.  Weights are listed with all
    Delta representatives first (in root order), so weight k < len(rs) is
    root k, then the extra negations in lexicographic order.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        extra = sorted({wneg(rs.roots[i].weight)
                        for i, j in enumerate(rs.neg) if j is None})
        self.weights = tuple(r.weight for r in rs.roots) + tuple(extra)
        self._index = {w: k for k, w in enumerate(self.weights)}
        self.neg = (tuple(self._index[wneg(w)] for w in self.weights)
                    if extra else rs.neg)

    def __len__(self):
        return len(self.weights)

    def index_of(self, w):
        return self._index.get(tuple(w))

    def sum_target(self, i: int, j: int):
        """Index of weights[i] + weights[j] in the symmetrized set, or None."""
        return self._index.get(wadd(self.weights[i], self.weights[j]))


def _pair_rows(lifts, index, extra=()):
    """One pass over the pairs a <= b of integer lift lists: ``rows[a]``
    holds the pairs (b, mask), b ascending, whose mask is nonzero, with bit
    ``index[s]`` set for each lift-pair sum s in ``index``; ``hits[a]`` masks
    the b with some lift-pair sum in ``index`` or ``extra``.  Each single-bit
    mask is one int shared by all its entries."""
    bits = [1 << t for t in range(len(lifts))]
    rows = [[] for _ in lifts]
    hits = [0] * len(lifts)
    for a, la in enumerate(lifts):
        for b in range(a, len(lifts)):
            mask, hit = 0, False
            for x in la:
                for y in lifts[b]:
                    s = tuple(u + v for u, v in zip(x, y))
                    t = index.get(s)
                    if t is not None:
                        mask = mask | bits[t] if mask else bits[t]
                    elif s in extra:
                        hit = True
            if mask:
                rows[a].append((b, mask))
                if b != a:
                    rows[b].append((a, mask))
            if mask or hit:
                hits[a] |= bits[b]
                hits[b] |= bits[a]
    return tuple(map(tuple, rows)), hits


class RootTable:
    """Integer sum tables of one root system, built once on first use.

    The sums are formed on the system's integer weights (``RootSystem``
    ``weights`` and ``class_index``, scaled by its ``denom``), once each, in
    one pass over the pairs a <= b.  Only the pairs whose sum is a root are
    stored, per root; a mask has bit t set for root index t.

    * ``closure_rows[a]``: the pairs (b, mask), b ascending, where mask
      holds the roots forced by closure when a and b lie in a subset: for
      psl one per gl lift-pair sum that is a gl root, elsewhere the root
      a + b (``RootSystem.pair_targets``);
    * ``forbidden[literal][a]``: the roots b such that a and b never both
      lie in an abelian nilradical.  The pair is forbidden when some lift
      pair sums to an ambient root: a root of Delta, a gl(n|n) root for
      psl, a W(n) root for S/S'.  S'(n) also forbids every pair of roots of
      the shape -e_i, the diagonal pairs included unless ``literal``;
    * ``sym_rows[i]``: the pairs (j, 1 << k) of the symmetrized weights
      with weights[i] + weights[j] == weights[k]
      (``SymmetrizedSystem.sum_target``);
    * ``fm_weights``, ``fm_constraints``: the Fourier-Motzkin data, each
      root weight with its own denominators cleared and each functional
      constraint v as the rows v.lam >= 0 and -v.lam >= 0;
    * ``witness_rows[i]``: root i's two principality-witness rows, the pair
      (``fm_weights[i]`` + (0,), its negation + (-1,)), for i in and off P;
    * ``hyperplanes``: the distinct root hyperplanes lam(alpha) = 0, as
      triples (rep, plus, minus) ordered by their first root.  ``rep`` is
      the primitive integer direction of ``fm_weights`` with its first
      nonzero entry positive; ``plus`` and ``minus`` mask the roots that
      are positive and negative multiples of it;
    * ``perms``: per group element m, its root permutation (built by
      ``weyl.root_permutation`` from the system's integer weights) and
      that permutation's ``image_tables``, filled on first use by
      ``weyl.act`` and ``weyl.orbit``; ``permute`` applies the tables to
      a mask;
    * ``neg_images``: the ``image_tables`` of the negation of Delta u
      (-Delta), built on first use, from which the lift search reads
      each lift's Levi bits;
    * ``sym_rows``, ``implied_rows`` and ``plane_relations``, built on
      first use: the symmetrized pair sums above, which only the lift
      search of a nonsymmetric system reads, the witness rows that root
      sums imply, and the hyperplanes whose sign two earlier ones can
      force, read from sums and differences of two plane directions (see
      their docstrings).
    """

    def __init__(self, rs: RootSystem):
        self._rs = rs
        self.closure_rows, forbidden = _pair_rows(
            [[rs.scaled(w) for w in ls] for ls in rs.lifts], rs.class_index,
            {rs.scaled(w) for w in rs.ambient_extra})
        literal = list(forbidden)
        if rs.family == "Sprime":
            minus_eps = 0
            for i, w in enumerate(rs.weights):
                if sum(w) == -rs.denom and all(c in (0, -rs.denom) for c in w):
                    minus_eps |= 1 << i
            for i in range(len(rs)):
                if (minus_eps >> i) & 1:
                    forbidden[i] |= minus_eps
                    literal[i] |= minus_eps & ~(1 << i)
        self.forbidden = (tuple(forbidden), tuple(literal))

        fm_weights = []
        for r in rs.roots:
            d = 1
            for c in r.weight:
                d *= Fraction(c).denominator
            fm_weights.append(tuple(int(Fraction(c) * d) for c in r.weight))
        self.fm_weights = tuple(fm_weights)
        self.witness_rows = tuple((w + (0,), tuple(-c for c in w) + (-1,))
                                  for w in fm_weights)
        planes = {}
        for i, w in enumerate(fm_weights):
            rep, g = _primitive(w)
            planes.setdefault(rep, [0, 0])[g < 0] |= 1 << i
        self.hyperplanes = tuple((rep, plus, minus)
                                 for rep, (plus, minus) in planes.items())
        constraints = []
        for v in rs.functional_constraints():
            ints = tuple(int(c) for c in v)
            constraints.append(ints + (0,))
            constraints.append(tuple(-c for c in ints) + (0,))
        self.fm_constraints = tuple(constraints)
        self.perms = {}

    @staticmethod
    def image_tables(perm):
        """The nibble image tables of a permutation of bit positions:
        entry c, v of ``NIBBLE`` bits holds the image mask of the bits v
        of chunk c, each bit k to bit perm[k].  A last, shorter chunk gets
        the entries of its own bits only."""
        tables = []
        for start in range(0, len(perm), NIBBLE):
            table = [0]
            for j in perm[start:start + NIBBLE]:
                table += [t | 1 << j for t in table]
            tables.append(tuple(table))
        return tuple(tables)

    @staticmethod
    def permute(tables, bits):
        """The image of a mask under the permutation whose ``image_tables``
        are given, read a nibble at a time."""
        out = 0
        for table in tables:
            if not bits:
                break
            out |= table[bits & NIBBLE_MASK]
            bits >>= NIBBLE
        return out

    @cached_property
    def neg_images(self):
        """``image_tables`` of the negation of Delta u (-Delta), an
        involution of its weights: a lift's image is the set of negations
        of its members, so P n neg(lift) are the Levi bits."""
        return self.image_tables(self._rs.symmetrized().neg)

    @cached_property
    def sym_rows(self):
        """The symmetrized pair sums (see the class docstring)."""
        rs = self._rs
        sw = rs.weights + tuple(map(rs.scaled, rs.symmetrized().weights[len(rs):]))
        rows, _ = _pair_rows([[w] for w in sw], {w: k for k, w in enumerate(sw)})
        return rows

    @cached_property
    def implied_rows(self):
        """Triples (i, inside, outside) in the order the principality
        witness drops rows: descending L1 norm of ``weights[i]``, then i.

        ``inside`` masks each pair {a, b} (a == b allowed) whose
        ``closure_rows`` entry holds i: weights[a] + weights[b] ==
        weights[i], or, on psl(2|2) alone, a lift-pair sum in the class of
        i, valid as the functional constraints are kept.  ``outside`` masks
        the pairs among them for which 1/s_a + 1/s_b >= 1/s_i, where
        fm_weights[j] = s_j * weights[j].  The witness rows are
        fm_weights[j].lam >= 0 for j in P and fm_weights[j].lam <= -1 off
        P, so a pair inside P implies row i when i lies in P, and an
        ``outside`` pair off P implies it when i lies off P: then
        weights[i].lam <= -1/s_a - 1/s_b <= -1/s_i.  That fails only where
        two half-integral weights sum to an integral one (F(4), D(2,1;a)),
        whose row asks for more.  Roots that are no pair sum are left out.
        """
        w, fm = self._rs.weights, self.fm_weights
        # 1/s_j, read off the first nonzero coordinate
        inv = [next(Fraction(c, f) for c, f in zip(wv, fv) if c)
               for wv, fv in zip(w, fm)]
        pairs = [[] for _ in w]
        for a, row in enumerate(self.closure_rows):
            for b, mask in row:
                while b >= a and mask:
                    i = (mask & -mask).bit_length() - 1
                    pairs[i].append((1 << a | 1 << b, inv[a] + inv[b] >= inv[i]))
                    mask &= mask - 1
        order = sorted(range(len(w)), key=lambda i: (-sum(map(abs, w[i])), i))
        return tuple((i, tuple(m for m, _ in pairs[i]),
                      tuple(m for m, ok in pairs[i] if ok))
                     for i in order if pairs[i])

    @cached_property
    def plane_relations(self):
        """Per hyperplane h, the tuple of (i, j, sa, sb), ordered by j then
        i, with i < j < h and rep_h = a rep_i + b rep_j for a, b != 0 of
        signs sa, sb (``rep`` of ``hyperplanes``).  Once lam has signs s_i,
        s_j on planes i and j, lam.rep_h is a sum of two terms of signs
        sa s_i and sb s_j; when neither is positive or neither is negative,
        that fixes its sign.

        For i < j and s = +-1, rep_i + s rep_j is looked up as a multiple
        g rep_k of a plane k, and solved for the last of i, j, k.  That
        finds each relation in which two of |a|, |b|, 1 agree; the face
        search branches on the planes of the others (six on G(3)).
        """
        reps = [rep for rep, _, _ in self.hyperplanes]
        index = {rep: k for k, rep in enumerate(reps)}
        found = [set() for _ in reps]
        for j, y in enumerate(reps):
            for i, x in enumerate(reps[:j]):
                for s in (1, -1):
                    rep, g = _primitive(tuple(u + s * v for u, v in zip(x, y)))
                    k = index.get(rep)
                    if k is None:
                        continue
                    sg = 1 if g > 0 else -1
                    if k > j:  # rep_k = rep_i / g + s rep_j / g
                        found[k].add((i, j, sg, s * sg))
                    else:  # rep_j = s g rep_k - s rep_i
                        (a, sa), (b, sb) = sorted(((k, s * sg), (i, -s)))
                        found[j].add((a, b, sa, sb))
        return tuple(tuple(sorted(rels, key=lambda r: (r[1], r[0])))
                     for rels in found)


def _primitive(w):
    """(rep, g) with w = g rep, rep primitive with its first nonzero entry
    positive."""
    g = gcd(*w)
    if next(c for c in w if c) < 0:
        g = -g
    return tuple(c // g for c in w), g


# ---------------------------------------------------------------------------
# label helpers and serialization

_TERM_RE = re.compile(r"([+-]?)(\d*)([edg])(\d+)")


def weight_str(w, basis) -> str:
    denom = 1
    for c in w:
        f = Fraction(c)
        denom = denom * f.denominator // gcd(denom, f.denominator)
    parts = []
    for c, (kind, idx) in zip(w, basis):
        k = Fraction(c) * denom
        if k == 0:
            continue
        n = int(k)
        sign = "-" if n < 0 else "+"
        mag = abs(n)
        coeff = "" if mag == 1 else str(mag)
        parts.append(f"{sign}{coeff}{kind}{idx}")
    if not parts:
        return "0"
    body = "".join(parts).lstrip("+")
    if denom == 1:
        return body
    return f"1/{denom}({body})"


def parse_weight(s: str, basis):
    s = s.strip()
    denom = 1
    m = re.fullmatch(r"1/(\d+)\((.*)\)", s)
    if m:
        denom = int(m.group(1))
        if denom == 0:
            raise ValueError(f"zero denominator in weight string {s!r}")
        s = m.group(2)
    pos = {lbl: k for k, lbl in enumerate(basis)}
    coords = [Fraction(0)] * len(basis)
    consumed = 0
    for m in _TERM_RE.finditer(s):
        consumed += len(m.group(0))
        sign, num, kind, idx = m.groups()
        c = Fraction(int(num) if num else 1, denom)
        if sign == "-":
            c = -c
        key = (kind, int(idx))
        if key not in pos:
            raise ValueError(f"unknown basis label {kind}{idx}")
        coords[pos[key]] += c
    if consumed != len(s.replace(" ", "")):
        raise ValueError(f"cannot parse weight string {s!r}")
    return tuple(coords)


# ---------------------------------------------------------------------------
# family builders


_EVEN, _ODD = (1, 0), (0, 1)  # root-space dims of a line of either parity


def _unit(dim, k, scale=1):
    w = [Fraction(0)] * dim
    w[k] = Fraction(scale)
    return tuple(w)


def _require(cond, msg):
    if not cond:
        raise ParameterError(msg)


def _basis(m_eps, n_delta=0, n_gamma=0):
    out = [("e", i + 1) for i in range(m_eps)]
    out += [("d", i + 1) for i in range(n_delta)]
    out += [("g", i + 1) for i in range(n_gamma)]
    return out


def _differences(vectors, dims):
    """The roots v_a - v_b for each ordered pair a != b of ``vectors``."""
    return [Root(wsub(u, v), *dims) for u, v in permutations(vectors, 2)]


def _signed_sums(groups, dims):
    """The roots +-v_1 +- ... +- v_k, every choice of signs, for each group
    (v_1, ..., v_k) of vectors."""
    roots = []
    for first, *rest in groups:
        sums = [first]  # v_1 +- ... +- v_k, each then with its negative
        for v in rest:
            signed = (v, wneg(v))
            sums = [wadd(s, t) for s in sums for t in signed]
        roots += [Root(w, *dims) for s in sums for w in (s, wneg(s))]
    return roots


def _gl_roots(m, n):
    """gl(m|n): e_i - e_j and d_k - d_l even, +-(e_i - d_k) odd."""
    eps = [_unit(m + n, i) for i in range(m)]
    dlt = [_unit(m + n, m + k) for k in range(n)]
    return (_differences(eps, _EVEN) + _differences(dlt, _EVEN)
            + _signed_sums([(wsub(e, d),) for e in eps for d in dlt], _ODD))


def _build_sl(m, n):
    return RootSystem("sl", (m, n), _basis(m, n), _gl_roots(m, n))


def _build_psl(n):
    gl_roots = _gl_roots(n, n)
    shift = tuple(Fraction(1 if i < n else -1) for i in range(2 * n))
    # group gl roots into fibers of the quotient identification
    wset = {r.weight for r in gl_roots}
    classes = {}
    for w in wset:
        mates = [w] + [c for c in (wadd(w, shift), wsub(w, shift)) if c in wset]
        classes[min(mates)] = tuple(sorted(set(mates)))
    dim_by_weight = {r.weight: (r.even_dim, r.odd_dim) for r in gl_roots}
    roots, lifts = [], []
    for rep in sorted(classes):
        mates = classes[rep]
        ev = sum(dim_by_weight[w][0] for w in mates)
        od = sum(dim_by_weight[w][1] for w in mates)
        roots.append(Root(rep, ev, od))
        lifts.append(mates)
    return RootSystem("psl", (n,), _basis(n, n), roots,
                      lifts=lifts, gl_shift=shift)


def _build_osp(M, N):
    m, n = M // 2, N // 2
    eps = [_unit(m + n, i) for i in range(m)]
    dlt = [_unit(m + n, m + k) for k in range(n)]
    roots = (_signed_sums(combinations(eps, 2), _EVEN)
             + _signed_sums(combinations(dlt, 2), _EVEN)
             + _signed_sums([(wadd(d, d),) for d in dlt], _EVEN)
             + _signed_sums(product(eps, dlt), _ODD))
    if M % 2 == 1:
        roots += (_signed_sums([(e,) for e in eps], _EVEN)
                  + _signed_sums([(d,) for d in dlt], _ODD))
    return RootSystem("osp", (M, N), _basis(m, n), roots)


def _build_D21a():
    gam = [(_unit(3, i),) for i in range(3)]
    half = [_unit(3, i, HALF) for i in range(3)]
    return RootSystem("D21a", (), _basis(0, 0, 3),
                      _signed_sums(gam, _EVEN) + _signed_sums([half], _ODD))


def _build_F4():
    u = [_unit(4, i) for i in range(4)]
    half = [_unit(4, i, HALF) for i in range(4)]
    roots = (_signed_sums(combinations(u[:3], 2), _EVEN)
             + _signed_sums([(v,) for v in u], _EVEN)
             + _signed_sums([half], _ODD))
    return RootSystem("F4", (), _basis(3, 0, 1), roots)


def _build_G3():
    # eps3 is eliminated through eps1 + eps2 + eps3 = 0; basis (e1, e2, g1)
    e1, e2, gam = (_unit(3, i) for i in range(3))
    eps = [e1, e2, wneg(wadd(e1, e2))]
    half_gam = _unit(3, 2, HALF)
    roots = (_differences(eps, _EVEN)
             + _signed_sums([(e,) for e in eps] + [(gam,)], _EVEN)
             + _signed_sums([(half_gam,)] + [(e, half_gam) for e in eps], _ODD))
    return RootSystem("G3", (), _basis(2, 0, 1), roots)


def _build_psq(n):
    roots = _differences([_unit(n, i) for i in range(n)], (1, 1))
    return RootSystem("psq", (n,), _basis(n), roots)


def _build_p(n):
    u = [_unit(n, i) for i in range(n)]
    roots = (_differences(u, _EVEN)
             + _signed_sums([(wadd(a, b),) for a, b in combinations(u, 2)], _ODD)
             + [Root(wadd(a, a), *_ODD) for a in u])
    return RootSystem("p", (n,), _basis(n), roots)


def _build_cartan(family, n):
    """W(n), S(n) or S'(n) in W(n) coordinates.  x^I d_j has weight
    e_I - e_j and parity |I| - 1.  For j outside I each weight is one root
    line; the j in I give the weight e_K, K = I minus j, one line for each j
    outside K.  S and S' keep one line fewer at each e_K, so the e_K with
    |K| = n - 1 are only ambient."""
    roots, removed = [], []
    for mask in range(1 << n):
        e_I = tuple(Fraction(mask >> i & 1) for i in range(n))
        size = bin(mask).count("1")
        ev, od = (_EVEN, _ODD)[(size - 1) % 2]
        roots += [Root(wsub(e_I, _unit(n, j)), ev, od)
                  for j in range(n) if not mask >> j & 1]
        # e_K, K = I, has the parity |K| of x^(K+j) d_j
        dim = n - size - (family != "W")
        if 0 < size < n:
            if dim:
                roots.append(Root(e_I, dim * od, dim * ev))
            else:
                removed.append(e_I)
    return RootSystem(family, (n,), _basis(n), roots, ambient_extra=removed)


def _build_H(n):
    l = n // 2
    odd = n % 2
    roots = []
    for imask in range(1 << l):
        for jmask in range(1 << l):
            if imask & jmask or (imask == 0 and jmask == 0):
                continue
            s = bin(imask).count("1") + bin(jmask).count("1")
            w = tuple(Fraction((1 if imask >> k & 1 else 0)
                               - (1 if jmask >> k & 1 else 0)) for k in range(l))
            base = 1 << (l - s)
            if odd:
                roots.append(Root(w, base, base))
            else:
                par = s % 2
                roots.append(Root(w, base * (1 - par), base * par))
    return RootSystem("H", (n,), _basis(l), roots)


def normalize_family(family, params):
    """Resolve aliases to a canonical (family, params) pair."""
    params = tuple(int(x) for x in params)
    if family == "osp_odd":
        _require(len(params) == 2 and params[0] >= 1 and params[1] >= 1,
                 "osp_odd needs (m, n) with m, n >= 1")
        return "osp", (2 * params[0] + 1, 2 * params[1])
    if family == "osp1":
        _require(len(params) == 1 and params[0] >= 1, "osp1 needs (n,) with n >= 1")
        return "osp", (1, 2 * params[0])
    if family == "osp_even":
        _require(len(params) == 2 and params[0] > 1 and params[1] >= 1,
                 "osp_even needs (m, n) with m > 1, n >= 1")
        return "osp", (2 * params[0], 2 * params[1])
    if family == "osp2":
        _require(len(params) == 1 and params[0] >= 1, "osp2 needs (n,) with n >= 1")
        return "osp", (2, 2 * params[0])
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    return family, params


_BUILDERS = {
    "sl": _build_sl, "psl": _build_psl, "osp": _build_osp, "D21a": _build_D21a,
    "F4": _build_F4, "G3": _build_G3, "psq": _build_psq, "p": _build_p,
    "W": lambda n: _build_cartan("W", n), "S": lambda n: _build_cartan("S", n),
    "Sprime": lambda n: _build_cartan("Sprime", n), "H": _build_H,
}


# |Delta| from the parameters, after the checks the builders rely on


def _count_sl(m, n):
    _require(m >= 1 and n >= 1, "sl(m|n) needs m >= 1 and n >= 1")
    _require(m != n, "sl(m|n) needs m != n (use psl for m = n)")
    return (m + n) * (m + n - 1)


def _count_psl(n):
    _require(n >= 2, "psl(n|n) needs n >= 2")
    # psl(2|2): the 8 odd gl(2|2) roots fall into 4 classes
    return 2 * n * (2 * n - 1) - 4 * (n == 2)


def _count_osp(M, N):
    _require(M >= 1, "osp(M|N) needs M >= 1")
    _require(N >= 2 and N % 2 == 0, "osp(M|N) needs even N >= 2")
    m, n = M // 2, N // 2
    # so(M): 2m(m-1) long, 2m short; sp(N): 2n^2; odd: 4mn, 2n short
    return 2 * m * (m - 1) + 2 * n * n + 4 * m * n + 2 * (m + n) * (M % 2)


def _count_psq(n):
    _require(n >= 3, "psq(n) needs n >= 3")
    return n * (n - 1)


def _count_p(n):
    _require(n >= 2, "p(n) needs n >= 2")
    return n * (2 * n - 1)


def _count_W(n):
    _require(n >= 2, "W(n) needs n >= 2")
    return n * 2 ** (n - 1) + 2 ** n - 2


def _count_S(n, prime):
    if prime:
        _require(n >= 4 and n % 2 == 0, "S'(n) needs even n >= 4")
    else:
        _require(n >= 3, "S(n) needs n >= 3")
    return n * 2 ** (n - 1) + 2 ** n - 2 - n


def _count_H(n):
    _require(n >= 5, "H(n) needs n >= 5")
    return 3 ** (n // 2) - 1


_COUNTS = {
    "sl": _count_sl, "psl": _count_psl, "osp": _count_osp, "D21a": lambda: 14,
    "F4": lambda: 36, "G3": lambda: 28, "psq": _count_psq, "p": _count_p,
    "W": _count_W, "S": lambda n: _count_S(n, False),
    "Sprime": lambda n: _count_S(n, True), "H": _count_H,
}


def root_count(family, params=()) -> int:
    """|Delta| of family(params), from the normalized parameters alone, so
    that a cap is checked before the system is built.  Bad parameters raise
    ``ParameterError`` as ``build_root_system`` does."""
    fam, par = normalize_family(family, params)
    try:
        return _COUNTS[fam](*par)
    except TypeError as exc:
        raise ParameterError(
            f"bad parameters {par} for family {fam}: {exc}") from exc


_SYSTEMS = {}  # normalized (family, params) -> RootSystem


def build_root_system(family, params=()) -> RootSystem:
    """The root system of family(params), one shared object per normalized
    (family, params); aliases resolve to the canonical system.  A system of
    more than ``ROOT_CAP`` roots raises ``CapExceeded`` before it is built."""
    key = normalize_family(family, params)
    if key == ("p", (2,)):
        warnings.warn("p(2) is not simple; accepted for oracle runs only",
                      stacklevel=2)
    rs = _SYSTEMS.get(key)
    if rs is None:
        fam, par = key
        count = root_count(fam, par)  # checks the parameters
        if count > ROOT_CAP:
            raise CapExceeded(f"{fam}({','.join(map(str, par))}) has "
                              f"|Delta| = {count}, over the root cap {ROOT_CAP}")
        rs = _SYSTEMS[key] = _BUILDERS[fam](*par)
    return rs

