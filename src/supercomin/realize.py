"""Exact realizations with root-space bases: the bracket ground truth.

Matrix families (gl, sl, q for psq, p) and superderivation families
(W, S, S', H) are realized with explicit root-space bases; psl(n|n) is
served by gl(n|n), with brackets that land in the span of the identity
counting as zero.  osp, D(2,1;a), F(4) and G(3) are intentionally not
realized: for them root-level sum rules are authoritative.

Elements of both kinds are sparse and exact: a matrix stores its nonzero
entries (``matrixrep``), a superderivation its nonzero monomial terms
x^I d/dx_j (``superder``), and each brackets term by term.

A realization answers two questions exactly: is every stored root vector an
eigenvector of the torus with the right eigenvalue, and is the bracket map
g^a x g^b -> g nonzero.
"""

from __future__ import annotations

from fractions import Fraction

from .matrixrep import MatrixSuperElement
from .rootsys import RootSystem, build_root_system
from .scalars import QI
from .superder import SuperDerivation, merge_sign, partial, wedge

DEFAULT_DIM_CAP = 4096

# the dimension of each realized algebra, checked against the cap before
# the build and reported as ``Realization.dim``
_DIMS = {
    "gl": lambda m, n: (m + n) ** 2,
    "sl": lambda m, n: (m + n) ** 2 - 1,
    "psl": lambda n: (2 * n) ** 2,  # served by gl(n|n)
    "psq": lambda n: 2 * n * n,  # served by q(n)
    "p": lambda n: 2 * n * n - 1,
    "W": lambda n: n * 2 ** n,
    "S": lambda n: (n - 1) * 2 ** n + 1,
    "Sprime": lambda n: (n - 1) * 2 ** n + 1,
    "H": lambda n: 2 ** n - 2,
}


class UnsupportedFamilyError(ValueError):
    pass


class DimCapExceeded(RuntimeError):
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
        # per-slot eigenvalue weights when basis vectors are not eigenvectors
        # of the stored class weight (psl: one gl weight per lift)
        self.eigen_override = eigen_override or {}
        self._index = {w: i for i, w in enumerate(self.weights)}

    def index_of(self, w):
        return self._index.get(tuple(w))

    def space_dims(self, i):
        ev, od = self.spaces[i]
        return len(ev), len(od)

    # -- brackets ------------------------------------------------------
    def is_effectively_zero(self, x) -> bool:
        if x.is_zero():
            return True
        if self.center_projection and isinstance(x, MatrixSuperElement):
            return x.is_multiple_of_identity()
        return False

    def bracket_nonzero(self, a: int, b: int) -> bool:
        """Whether [g^a, g^b] is not identically zero (mod center if any)."""
        ea, oa = self.spaces[a]
        eb, ob = self.spaces[b]
        for x in ea + oa:
            for y in eb + ob:
                if not self.is_effectively_zero(x.bracket(y)):
                    return True
        return False

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
# matrix families


def _gl_weights(m, n):
    d = m + n
    out = []
    for a in range(d):
        for b in range(d):
            if a != b:
                w = [Fraction(0)] * d
                w[a], w[b] = Fraction(1), Fraction(-1)
                out.append(tuple(w))
    return sorted(out)


def _unit_matrix_space(m, n, w):
    a = next(i for i, c in enumerate(w) if c == 1)
    b = next(i for i, c in enumerate(w) if c == -1)
    el = MatrixSuperElement.unit(m, n, a, b)
    return ([el], []) if el.parity == 0 else ([], [el])


def _matrix_torus(m, n, traceless):
    d = m + n
    out = []
    rng = range(d - 1) if traceless else range(d)
    for k in rng:
        entries = {(k, k): 1}
        lin = [Fraction(0)] * d
        lin[k] = Fraction(1)
        if traceless:
            entries[k + 1, k + 1] = -1
            lin[k + 1] = Fraction(-1)
        out.append((MatrixSuperElement(m, n, entries, 0), tuple(lin)))
    return out


def _realize_gl(m, n):
    weights = _gl_weights(m, n)
    spaces = [_unit_matrix_space(m, n, w) for w in weights]
    return Realization("gl", (m, n), weights, spaces, _matrix_torus(m, n, False),
                       dim=_DIMS["gl"](m, n), zero_dim=m + n)


def _realize_sl(m, n, rs=None):
    weights = _gl_weights(m, n)
    spaces = [_unit_matrix_space(m, n, w) for w in weights]
    return Realization("sl", (m, n), weights, spaces, _matrix_torus(m, n, True),
                       dim=_DIMS["sl"](m, n), zero_dim=m + n - 1, rs=rs)


def _realize_psl(n, rs):
    """gl(n|n) serving the psl class system: one space per class, all lifts."""
    spaces = []
    eigen_override = {}
    for i, lifts in enumerate(rs.lifts):
        ev, od = [], []
        ew, ow = [], []
        for w in lifts:
            e1, o1 = _unit_matrix_space(n, n, w)
            ev += e1
            od += o1
            ew += [w] * len(e1)
            ow += [w] * len(o1)
        spaces.append((ev, od))
        eigen_override[i] = tuple(ew + ow)
    weights = tuple(r.weight for r in rs.roots)
    return Realization("psl-via-gl", (n,), weights, spaces,
                       _matrix_torus(n, n, False), dim=_DIMS["psl"](n),
                       zero_dim=2 * n, center_projection=True, rs=rs,
                       eigen_override=eigen_override)


def _realize_q(n, rs):
    spaces = []
    for r in rs.roots:
        i = next(k for k, c in enumerate(r.weight) if c == 1)
        j = next(k for k, c in enumerate(r.weight) if c == -1)
        a = {(i, j): 1, (n + i, n + j): 1}
        b = {(i, n + j): 1, (n + i, j): 1}
        spaces.append(([MatrixSuperElement(n, n, a, 0)],
                       [MatrixSuperElement(n, n, b, 1)]))
    torus = []
    for k in range(n):
        lin = [Fraction(0)] * n
        lin[k] = Fraction(1)
        torus.append((MatrixSuperElement(n, n, {(k, k): 1, (n + k, n + k): 1}, 0),
                      tuple(lin)))
    weights = tuple(r.weight for r in rs.roots)
    return Realization("q", (n,), weights, spaces, torus, dim=_DIMS["psq"](n),
                       zero_dim=2 * n, center_projection=True, rs=rs)


def _realize_p(n, rs):
    spaces = []
    for r in rs.roots:
        w = r.weight
        entries = {}
        pos = [k for k, c in enumerate(w) if c > 0]
        neg = [k for k, c in enumerate(w) if c < 0]
        if len(pos) == 1 and len(neg) == 1 and w[pos[0]] == 1:
            i, j = pos[0], neg[0]  # eps_i - eps_j: A = E_ij, D = -E_ji
            entries[i, j] = 1
            entries[n + j, n + i] = -1
            spaces.append(([MatrixSuperElement(n, n, entries, 0)], []))
        elif len(neg) == 0:
            if len(pos) == 1:  # 2 eps_i: B = E_ii
                i = pos[0]
                entries[i, n + i] = 1
            else:  # eps_i + eps_j: B = E_ij + E_ji, symmetric
                i, j = pos
                entries[i, n + j] = 1
                entries[j, n + i] = 1
            spaces.append(([], [MatrixSuperElement(n, n, entries, 1)]))
        else:  # -(eps_i + eps_j): C = E_ij - E_ji, antisymmetric
            i, j = neg
            entries[n + i, j] = 1
            entries[n + j, i] = -1
            spaces.append(([], [MatrixSuperElement(n, n, entries, 1)]))
    torus = []
    for k in range(n - 1):
        entries = {(k, k): 1, (k + 1, k + 1): -1,
                   (n + k, n + k): -1, (n + k + 1, n + k + 1): 1}
        lin = [Fraction(0)] * n
        lin[k] = Fraction(1)
        lin[k + 1] = Fraction(-1)
        torus.append((MatrixSuperElement(n, n, entries, 0), tuple(lin)))
    weights = tuple(r.weight for r in rs.roots)
    return Realization("p", (n,), weights, spaces, torus, dim=_DIMS["p"](n),
                       zero_dim=n - 1, rs=rs)


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


def _realize_W(n, rs):
    spaces = []
    for r in rs.roots:
        imask, j = _decode_w_weight(r.weight)
        if j is not None:
            el = SuperDerivation.term(n, imask, j, Fraction(1))
            spaces.append(([el], []) if el.parity == 0 else ([], [el]))
        else:
            ev, od = [], []
            for l in range(n):
                if imask >> l & 1:
                    continue
                el = SuperDerivation.term(n, imask | (1 << l), l, Fraction(1))
                (ev if el.parity == 0 else od).append(el)
            spaces.append((ev, od))
    torus = []
    for k in range(n):
        lin = [Fraction(0)] * n
        lin[k] = Fraction(1)
        torus.append((SuperDerivation.term(n, 1 << k, k, Fraction(1)), tuple(lin)))
    weights = tuple(r.weight for r in rs.roots)
    return Realization("W", (n,), weights, spaces, torus, dim=_DIMS["W"](n),
                       zero_dim=n, rs=rs)


def _realize_S(n, rs, prime=False):
    full = (1 << n) - 1
    one = Fraction(1)
    spaces = []
    for r in rs.roots:
        imask, j = _decode_w_weight(r.weight)
        if j is not None:
            if prime and imask == 0:
                # (1 - x_1..x_n) d/dx_j
                el = SuperDerivation(n, {(0, j): one, (full, j): -one}, 1)
            else:
                el = SuperDerivation.term(n, imask, j, one)
            spaces.append(([el], []) if el.parity == 0 else ([], [el]))
        else:
            # x_I (x_l0 d_l0 - x_m d_m): the product order fixes the relative
            # signs that make the element divergence-free
            l0 = next(l for l in range(n) if not imask >> l & 1)
            ev, od = [], []
            for m in range(n):
                if m == l0 or imask >> m & 1:
                    continue
                el = SuperDerivation(
                    n, {(imask | 1 << l0, l0): merge_sign(imask, 1 << l0) * one,
                        (imask | 1 << m, m): -merge_sign(imask, 1 << m) * one},
                    imask.bit_count())
                (ev if el.parity == 0 else od).append(el)
            spaces.append((ev, od))
    torus = []
    for k in range(n - 1):
        lin = [Fraction(0)] * n
        lin[k] = Fraction(1)
        lin[k + 1] = Fraction(-1)
        h = SuperDerivation(n, {(1 << k, k): one, (1 << (k + 1), k + 1): -one}, 0)
        torus.append((h, tuple(lin)))
    weights = tuple(r.weight for r in rs.roots)
    return Realization("Sprime" if prime else "S", (n,), weights, spaces, torus,
                       dim=_DIMS["S"](n), zero_dim=n - 1, rs=rs)


def _d_of(n: int, f: dict) -> SuperDerivation:
    """The Hamiltonian derivation D_f = sum (df/dx_i) d/dx_i of a
    homogeneous ``{mask: coeff}``."""
    terms = {}
    for mask, c in f.items():
        for i in range(n):
            s = partial(mask, i)
            if s:
                terms[mask ^ 1 << i, i] = s * c
    return SuperDerivation(n, terms, next(iter(f)).bit_count())


def _realize_H(n, rs):
    """H(n) on eta_k = x_k + i x_{k+l} and eta_{k+l} = x_k - i x_{k+l}.

    These are sqrt(2) times the orthonormal pairing: a root vector rescaled
    by a nonzero scalar keeps its weight and every bracket's vanishing, and
    every coefficient stays a Gaussian integer.
    """
    l = n // 2
    odd = n % 2

    def eta(a):  # a in [0, 2l): paired combinations of x_a, x_{a+l}
        k = a % l
        sign = QI.i() if a < l else -QI.i()
        return {1 << k: 1, 1 << (k + l): sign}

    spaces = []
    for r in rs.roots:
        imask = sum(1 << k for k, c in enumerate(r.weight) if c == 1)
        jmask = sum(1 << k for k, c in enumerate(r.weight) if c == -1)
        rest = [k for k in range(l) if not ((imask | jmask) >> k) & 1]
        ev, od = [], []
        for km in range(1 << len(rest)):
            kset = [rest[t] for t in range(len(rest)) if km >> t & 1]
            for b in range(2 if odd else 1):
                f = {0: 1}
                for k in range(l):
                    if imask >> k & 1:
                        f = wedge(f, eta(k))
                    elif jmask >> k & 1:
                        f = wedge(f, eta(k + l))
                    elif k in kset:
                        f = wedge(f, wedge(eta(k), eta(k + l)))
                if b:
                    f = wedge(f, {1 << (n - 1): 1})
                el = _d_of(n, f)
                (ev if el.parity == 0 else od).append(el)
        spaces.append((ev, od))
    torus = []
    for k in range(l):
        h = _d_of(n, {(1 << k) | (1 << (k + l)): 1})
        lin = [0] * l
        lin[k] = -QI.i()
        torus.append((h, tuple(lin)))
    weights = tuple(r.weight for r in rs.roots)
    zero_dim = (1 << l) * (2 if odd else 1) - 2
    return Realization("H", (n,), weights, spaces, torus, dim=_DIMS["H"](n),
                       zero_dim=zero_dim, rs=rs)


# ---------------------------------------------------------------------------
# entry points

_DIRECT = {"gl", "sl", "psq", "p", "W", "S", "Sprime", "H"}


def realize(family, params, dim_cap=DEFAULT_DIM_CAP) -> Realization:
    """Realize one of gl, sl, psq, p, W, S, Sprime, H at the given rank."""
    if family == "gl":
        m, n = params
        _check_cap(_DIMS["gl"](m, n), dim_cap)
        return _realize_gl(m, n)
    if family not in _DIRECT:
        raise UnsupportedFamilyError(
            f"{family} is not realized (root-level rules are authoritative there)")
    rs = build_root_system(family, params)
    return realize_for(rs, dim_cap=dim_cap)


def realize_for(rs: RootSystem, dim_cap=DEFAULT_DIM_CAP) -> Realization:
    """Realization bound to a root system's indices (psl is served by gl)."""
    fam, par = rs.family, rs.params
    if fam not in _DIMS:
        raise UnsupportedFamilyError(
            f"{fam} is not realized (root-level rules are authoritative there)")
    _check_cap(_DIMS[fam](*par), dim_cap)
    if fam == "sl":
        return _realize_sl(*par, rs=rs)
    n = par[0]
    if fam == "psl":
        return _realize_psl(n, rs)
    if fam == "psq":
        return _realize_q(n, rs)
    if fam == "p":
        return _realize_p(n, rs)
    if fam == "W":
        return _realize_W(n, rs)
    if fam == "H":
        return _realize_H(n, rs)
    return _realize_S(n, rs, prime=(fam == "Sprime"))


def _check_cap(dim, cap):
    if dim > cap:
        raise DimCapExceeded(f"algebra dimension {dim} exceeds cap {cap}")


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
