"""Exact realizations with root-space bases: the bracket ground truth.

Each realization states its root vectors and its torus diagonals.  gl(m|n),
sl(m|n) and psl(n|n) are one shape, ``_gl_type``: E_ab on each gl root
e_a - e_b, one space per class of roots.  psl(n|n) is served by gl(n|n),
one space per class of gl lifts, with brackets that land in the span of the
identity counting as zero.  q(n) (serving psq(n)) and p(n) state sparse
matrices, W(n), S(n), S'(n) and H(n) sparse superderivations.  Every torus
is diagonal, and its ``lin`` is read off the diagonal (the matrix diagonal,
or the coefficients of x_k d/dx_k) by ``_torus``; every coefficient is an
``int`` or a ``Fraction``.  osp, D(2,1;a), F(4) and G(3) are intentionally
not realized: for them root-level sum rules are authoritative.

Elements of both kinds are sparse and exact: a matrix stores its nonzero
entries (``matrixrep``), a superderivation its nonzero monomial terms
x^I d/dx_j (``superder``), and each brackets term by term.

A realization answers two questions exactly: is every stored root vector an
eigenvector of the torus with the right eigenvalue, and is the bracket map
g^a x g^b -> g nonzero, tabulated once as the symmetric rows
``bracket_masks``, which the bracket verdicts read as the root rule reads
``RootTable.forbidden``.  There is one realization per root system or gl(m|n).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .matrixrep import MatrixSuperElement
from .rootsys import CapExceeded, RootSystem, _gl_roots, build_root_system
from .superder import SuperDerivation, merge_sign, partial

# the largest algebra dimension a realization may have, checked before it
# is built or looked up; fixed, as ``rootsys.ROOT_CAP`` is
DIM_CAP = 4096


class UnsupportedFamilyError(ValueError):
    pass


class Realization:
    def __init__(self, label, params, weights, spaces, torus, dim, zero_dim,
                 center_projection=False, rs=None, eigen_override=None):
        self.label = label
        self.params = tuple(params)
        self.weights = tuple(weights)
        self.spaces = tuple(spaces)  # per slot: (even_basis, odd_basis)
        self.torus = tuple(torus)    # pairs (element h, lin): alpha(h) = sum lin[k]*w[k]
        self.dim = dim
        self.zero_dim = zero_dim
        self.center_projection = center_projection
        self.rs = rs
        # per-slot eigenvalue weights of the basis vectors, needed where they
        # differ from the stored class weight (psl: one gl weight per lift);
        # the gl-type builder gives them for gl and sl too
        self.eigen_override = eigen_override or {}
        self._index = {w: i for i, w in enumerate(self.weights)}

    def index_of(self, w):
        return self._index.get(tuple(w))

    def space_dims(self, i):
        ev, od = self.spaces[i]
        return len(ev), len(od)

    # -- brackets ------------------------------------------------------
    def bracket_nonzero(self, a: int, b: int) -> bool:
        """Whether [g^a, g^b] is not identically zero (mod center if any)."""
        ea, oa = self.spaces[a]
        eb, ob = self.spaces[b]
        for x in ea + oa:
            for y in eb + ob:
                z = x.bracket(y)
                if not (z.is_multiple_of_identity() if self.center_projection
                        else z.is_zero()):
                    return True
        return False

    @cached_property
    def bracket_masks(self):
        """Per slot a, the mask of the slots b with [g^a, g^b] nonzero (mod
        center if any): ``bracket_nonzero`` once per pair a <= b, mirrored."""
        masks = [0] * len(self.spaces)
        for a in range(len(masks)):
            for b in range(a, len(masks)):
                if self.bracket_nonzero(a, b):
                    masks[a] |= 1 << b
                    masks[b] |= 1 << a
        return tuple(masks)

    # -- verification ---------------------------------------------------
    def verify_root_decomposition(self):
        """Eigenvector and dimension audit; returns a report dict."""
        failures = []
        for i, w in enumerate(self.weights):
            ev, od = self.spaces[i]
            wlist = self.eigen_override.get(i, (w,) * (len(ev) + len(od)))
            for v, vw in zip(ev + od, wlist):
                for h, lin in self.torus:
                    expected = None
                    for c, x in zip(lin, vw):
                        t = c * Fraction(x)
                        expected = t if expected is None else expected + t
                    diff = h.bracket(v).add(v.scale(expected).scale(-1))
                    if not diff.is_zero():
                        failures.append(self._root_name(i))
                        break
                else:
                    continue
                break
        total = sum(len(ev) + len(od) for ev, od in self.spaces) + self.zero_dim
        report = {
            "eigen_ok": not failures,
            "offending_roots": failures,
            "dimension_total": total,
            "dimension_expected": self.dim,
            "dimension_ok": total == self.dim,
        }
        if self.rs is not None:
            mism = [
                self._root_name(i)
                for i, r in enumerate(self.rs.roots)
                if self.space_dims(i) != (r.even_dim, r.odd_dim)
            ]
            report["root_dims_ok"] = not mism
            report["root_dim_mismatches"] = mism
        report["ok"] = report["dimension_ok"] and report["eigen_ok"] and report.get(
            "root_dims_ok", True)
        return report

    def _root_name(self, i):
        if self.rs is not None:
            return self.rs.root_str(i)
        return str(self.weights[i])

    def __repr__(self):
        return f"<Realization {self.label}{self.params} dim={self.dim}>"


# ---------------------------------------------------------------------------
# shared shapes


def _space(vectors):
    """A root space as (even basis, odd basis), each in the given order."""
    vectors = list(vectors)
    return [v for v in vectors if not v.parity], [v for v in vectors if v.parity]


def _units(d):
    """The diagonals e_k for k < d."""
    return [[int(j == k) for j in range(d)] for k in range(d)]


def _steps(d):
    """The diagonals e_k - e_{k+1} for k < d - 1."""
    return [[int(j == k) - int(j == k + 1) for j in range(d)] for k in range(d - 1)]


def _sl_steps(m, n):
    """The diagonals of ``_steps(m + n)`` with the step across the block
    boundary made a sum, the last even and first odd slots both 1: the
    difference there has supertrace 2 and is no element of sl(m|n)."""
    rows = _steps(m + n)
    rows[m - 1][m] = 1
    return rows


def _diagonal(m, n):
    """The element of gl(m|n) with a given diagonal."""
    return lambda row: MatrixSuperElement(
        m, n, {(k, k): c for k, c in enumerate(row) if c}, 0)


def _euler(n):
    """The derivation sum c_k x_k d/dx_k of W(n) with a given row of c_k."""
    return lambda row: SuperDerivation(
        n, {(1 << k, k): Fraction(c) for k, c in enumerate(row) if c}, 0)


def _torus(element, rows, width):
    """Torus pairs (h, lin) from diagonal rows: h = element(row), and lin is
    the row's first ``width`` slots, the coordinates of the weights."""
    return [(element(row), tuple(Fraction(c) for c in row[:width]))
            for row in rows]


def _bound(label, rs, spaces, torus, zero_dim, **extra):
    """A realization on the indices of ``rs``: weights, params and dim come
    from it."""
    return Realization(label, rs.params, [r.weight for r in rs.roots], spaces,
                       torus, _REALIZED[rs.family][0](*rs.params), zero_dim,
                       rs=rs, **extra)


# ---------------------------------------------------------------------------
# matrix families


def _gl_type(label, m, n, classes, diagonals, rs=None, **extra):
    """gl(m|n) with E_ab on each root e_a - e_b, one space per class of
    roots, and one torus element per diagonal, as many as the zero weight
    space has dimensions.  Each basis vector keeps its own root as weight."""
    spaces, eigen = [], {}
    for i, lifts in enumerate(classes):
        pairs = sorted(((MatrixSuperElement.unit(m, n, w.index(1), w.index(-1)), w)
                        for w in lifts), key=lambda p: p[0].parity)
        spaces.append(_space(v for v, _ in pairs))
        eigen[i] = tuple(w for _, w in pairs)
    torus = _torus(_diagonal(m, n), diagonals, m + n)
    if rs is not None:
        return _bound(label, rs, spaces, torus, len(diagonals),
                      eigen_override=eigen, **extra)
    return Realization(label, (m, n), [ls[0] for ls in classes], spaces, torus,
                       _REALIZED["gl"][0](m, n), len(diagonals),
                       eigen_override=eigen)


def _realize_gl(m, n):
    """gl(m|n) itself, on the roots of ``rootsys._gl_roots``."""
    weights = sorted(r.weight for r in _gl_roots(m, n))
    return _gl_type("gl", m, n, [(w,) for w in weights], _units(m + n))


def _realize_q(rs):
    n = rs.params[0]
    spaces = []
    for r in rs.roots:
        i, j = r.weight.index(1), r.weight.index(-1)
        a = {(i, j): 1, (n + i, n + j): 1}
        b = {(i, n + j): 1, (n + i, j): 1}
        spaces.append(([MatrixSuperElement(n, n, a, 0)],
                       [MatrixSuperElement(n, n, b, 1)]))
    torus = _torus(_diagonal(n, n), [u + u for u in _units(n)], n)
    return _bound("q", rs, spaces, torus, 2 * n, center_projection=True)


def _realize_p(rs):
    n = rs.params[0]
    spaces = []
    for r in rs.roots:
        w = r.weight
        pos = [k for k, c in enumerate(w) if c > 0]
        neg = [k for k, c in enumerate(w) if c < 0]
        parity = 1
        if len(pos) == 1 and len(neg) == 1 and w[pos[0]] == 1:
            i, j = pos[0], neg[0]  # eps_i - eps_j: A = E_ij, D = -E_ji
            entries, parity = {(i, j): 1, (n + j, n + i): -1}, 0
        elif not neg and len(pos) == 1:  # 2 eps_i: B = E_ii
            entries = {(pos[0], n + pos[0]): 1}
        elif not neg:  # eps_i + eps_j: B = E_ij + E_ji, symmetric
            i, j = pos
            entries = {(i, n + j): 1, (j, n + i): 1}
        else:  # -(eps_i + eps_j): C = E_ij - E_ji, antisymmetric
            i, j = neg
            entries = {(n + i, j): 1, (n + j, i): -1}
        spaces.append(_space([MatrixSuperElement(n, n, entries, parity)]))
    # diag(A, D) with D = -A^t
    diagonals = [s + [-c for c in s] for s in _steps(n)]
    return _bound("p", rs, spaces, _torus(_diagonal(n, n), diagonals, n), n - 1)


# ---------------------------------------------------------------------------
# superderivation families


def _decode_w_weight(w):
    """Split a W(n)-coordinate weight into (I_mask, j) or (I_mask, None)."""
    imask, j = 0, None
    for k, c in enumerate(w):
        if c == 1:
            imask |= 1 << k
        elif c == -1:
            j = k
    return imask, j


def _realize_W(rs):
    n = rs.params[0]
    spaces = []
    for r in rs.roots:
        imask, j = _decode_w_weight(r.weight)
        if j is not None:
            vectors = [SuperDerivation.term(n, imask, j, Fraction(1))]
        else:
            vectors = [SuperDerivation.term(n, imask | (1 << l), l, Fraction(1))
                       for l in range(n) if not imask >> l & 1]
        spaces.append(_space(vectors))
    return _bound("W", rs, spaces, _torus(_euler(n), _units(n), n), n)


def _realize_S(rs):
    """S(n), or S'(n) when ``rs`` is the S'(n) system."""
    n = rs.params[0]
    full = (1 << n) - 1
    one = Fraction(1)
    spaces = []
    for r in rs.roots:
        imask, j = _decode_w_weight(r.weight)
        if j is None:
            # x_I (x_l0 d_l0 - x_m d_m): the product order fixes the relative
            # signs that make the element divergence-free
            l0 = next(l for l in range(n) if not imask >> l & 1)
            vectors = [SuperDerivation(
                n, {(imask | 1 << l0, l0): merge_sign(imask, 1 << l0) * one,
                    (imask | 1 << m, m): -merge_sign(imask, 1 << m) * one},
                imask.bit_count())
                for m in range(n) if m != l0 and not imask >> m & 1]
        elif rs.family == "Sprime" and imask == 0:
            # (1 - x_1..x_n) d/dx_j
            vectors = [SuperDerivation(n, {(0, j): one, (full, j): -one}, 1)]
        else:
            vectors = [SuperDerivation.term(n, imask, j, one)]
        spaces.append(_space(vectors))
    return _bound(rs.family, rs, spaces, _torus(_euler(n), _steps(n), n), n - 1)


def _realize_H(rs):
    """H(n) for the split form sum_k dx_k dx_{k+l}, l = n // 2, with
    x_{n-1} paired to itself when n is odd: k* = k + l, (k + l)* = k and
    D_f = sum_i df/dx_i d/dx_{i*}.  The root vector of weight w is D_f of one
    monomial: x_k where w_k = 1, x_{k+l} where w_k = -1, any product of the
    pairs x_k x_{k+l} over the zero coordinates and, for odd n, optionally
    x_{n-1}.  The torus rows x_k d_k - x_{k+l} d_{k+l} are diagonal in x.
    """
    n = rs.params[0]
    l, odd = n // 2, n % 2
    star = [(i + l) % (2 * l) for i in range(2 * l)] + [n - 1] * odd

    def d_of(mask):  # D_f of the monomial f = x^mask
        return SuperDerivation(n, {(mask ^ 1 << i, star[i]): partial(mask, i)
                                   for i in range(n) if mask >> i & 1},
                               mask.bit_count())

    spaces = []
    for r in rs.roots:
        base = sum(1 << (k if c == 1 else k + l)
                   for k, c in enumerate(r.weight) if c)
        pairs = [1 << k | 1 << (k + l) for k, c in enumerate(r.weight) if not c]
        vectors = []
        for km in range(1 << len(pairs)):
            mask = base | sum(p for t, p in enumerate(pairs) if km >> t & 1)
            vectors += [d_of(mask | b << (n - 1)) for b in range(1 + odd)]
        spaces.append(_space(vectors))
    rows = [[int(j == k) - int(j == k + l) for j in range(n)] for k in range(l)]
    zero_dim = (1 << l) * (1 + odd) - 2
    return _bound("H", rs, spaces, _torus(_euler(n), rows, l), zero_dim)


# ---------------------------------------------------------------------------
# entry points

# family -> (dimension of the realized algebra, builder).  The dimension is
# checked against the cap before the build and reported as
# ``Realization.dim``; gl's builder takes (m, n), every other one a root
# system, on whose indices its realization is bound.
_REALIZED = {
    "gl": (lambda m, n: (m + n) ** 2, _realize_gl),
    "sl": (lambda m, n: (m + n) ** 2 - 1,
           lambda rs: _gl_type("sl", *rs.params, rs.lifts,
                               _sl_steps(*rs.params), rs)),
    # psl(n|n) is served by gl(n|n): a class of lifts spans one space, and
    # brackets in the span of the identity count as zero
    "psl": (lambda n: (2 * n) ** 2,
            lambda rs: _gl_type("psl-via-gl", *rs.params * 2, rs.lifts,
                                _units(2 * rs.params[0]), rs,
                                center_projection=True)),
    "psq": (lambda n: 2 * n * n, _realize_q),  # served by q(n)
    "p": (lambda n: 2 * n * n - 1, _realize_p),
    "W": (lambda n: n * 2 ** n, _realize_W),
    "S": (lambda n: (n - 1) * 2 ** n + 1, _realize_S),
    "Sprime": (lambda n: (n - 1) * 2 ** n + 1, _realize_S),
    "H": (lambda n: 2 ** n - 2, _realize_H),
}


def _builder(family, params):
    """The builder of ``family``, once the dimension at ``params`` is within
    ``DIM_CAP``; past it, ``CapExceeded``."""
    if family not in _REALIZED:
        raise UnsupportedFamilyError(
            f"{family} is not realized (root-level rules are authoritative there)")
    dim, build = _REALIZED[family]
    if dim(*params) > DIM_CAP:
        raise CapExceeded(f"algebra dimension {dim(*params)} exceeds cap {DIM_CAP}")
    return build


_REALIZATIONS = {}  # RootSystem, or ("gl", (m, n)) -> its one Realization


def realize(family, params) -> Realization:
    """Realize one of the families of ``_REALIZED`` at the given rank, once;
    every family but gl is bound to its root system by ``realize_for``."""
    build = _builder(family, params)
    if family != "gl":
        return realize_for(build_root_system(family, params))
    key = ("gl", tuple(params))
    return _REALIZATIONS.get(key) or _REALIZATIONS.setdefault(key, build(*params))


def realize_for(rs: RootSystem) -> Realization:
    """The one realization bound to a root system's indices; ``DIM_CAP`` is
    checked on every call, before a realization is built or looked up."""
    build = _builder(rs.family, rs.params)
    return _REALIZATIONS.get(rs) or _REALIZATIONS.setdefault(rs, build(rs))


def jacobi_defect(x, y, z):
    """[x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]]; zero when Jacobi holds."""
    sign = -1 if (x.parity and y.parity) else 1
    lhs = x.bracket(y.bracket(z))
    r1 = x.bracket(y).bracket(z)
    r2 = y.bracket(x.bracket(z))
    out = lhs.add(r1.scale(-1)).add(r2.scale(-sign))
    return out


def divergence(d: SuperDerivation) -> dict:
    """sum_j d(p_j)/dx_j as ``{mask: coeff}``, empty exactly when d lies in
    S(n), the divergence kernel inside W(n)."""
    out = {}
    for (mask, j), c in d.terms.items():
        s = partial(mask, j)
        if s:
            out[mask ^ 1 << j] = out.get(mask ^ 1 << j, 0) + s * c
    return {m: c for m, c in out.items() if c}
