"""Weyl-group actions on root subsets: generators, orbits, canonical forms.

A group element is stored as an exact integer matrix acting on weight
coordinates.  Signed permutations cover every family except G(3), whose
eliminated-basis reflections need genuine matrices; everything is handled
uniformly.  Each element's root permutation is built once per system from
the integer weights of ``RootTable`` (``root_permutation``) and kept in
``RootTable.perms`` with its nibble image tables, through which ``act``
and ``orbit`` move a root mask 4 bits at a time.  Orbits are computed by
BFS on subsets (not by expanding the group), so big groups with small
orbits stay cheap; the canonical representative of an orbit is its
minimal bitmask.
"""

from __future__ import annotations

from .rootsys import CapExceeded, RootSystem, RootTable


class RootEscapeError(RuntimeError):
    """A group element mapped a root outside the root set (generator bug)."""


# the most subsets one orbit may hold; no option or variable sets it
ORBIT_CAP = 10 ** 6


def _perm_swap(d, s, t):
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    m[s][s] = m[t][t] = 0
    m[s][t] = m[t][s] = 1
    return tuple(tuple(r) for r in m)


def _diag(d, signs):
    return tuple(tuple(signs[i] if i == j else 0 for j in range(d)) for i in range(d))


def _flip(d, slot):
    signs = [1] * d
    signs[slot] = -1
    return _diag(d, signs)


def _slots(rs: RootSystem, kind):
    return [k for k, (lk, _) in enumerate(rs.basis) if lk == kind]


def _sym_gens(d, slots):
    return [_perm_swap(d, slots[k], slots[k + 1]) for k in range(len(slots) - 1)]


def _type_b_gens(d, slots):
    gens = _sym_gens(d, slots)
    if slots:
        gens.append(_flip(d, slots[-1]))
    return gens


def _type_d_gens(d, slots):
    gens = _sym_gens(d, slots)
    if len(slots) >= 2:
        signs = [1] * d
        signs[slots[-1]] = signs[slots[-2]] = -1
        gens.append(_diag(d, signs))
    return gens


def generators(rs: RootSystem, kind="auto"):
    """Generators of the requested group acting on the root system.

    ``even_weyl`` is the Weyl group of the even part (classical families),
    ``levi_weyl`` the Weyl group of the distinguished Levi of the even part
    (Cartan-type families, where the even part is not reductive), and
    ``extended`` adds the gamma-permuting S3 for D(2,1;a) and nothing
    elsewhere.  ``auto`` picks the group the classification statements use.
    """
    if kind == "auto":
        kind = classification_group(rs)
    fam = rs.family
    d = len(rs.basis)
    e, dl, g = _slots(rs, "e"), _slots(rs, "d"), _slots(rs, "g")
    if fam in ("W", "S", "Sprime") and kind == "even_weyl":
        raise ValueError(f"{fam}(n) has no reductive even part; use levi_weyl")
    if kind not in ("even_weyl", "levi_weyl", "extended"):
        raise ValueError(f"unknown group kind {kind!r}")

    if fam == "sl" or fam == "psl":
        gens = _sym_gens(d, e) + _sym_gens(d, dl)
    elif fam == "osp":
        M = rs.params[0]
        gens = (_type_b_gens(d, e) if M % 2 else _type_d_gens(d, e))
        gens += _type_b_gens(d, dl)  # sp(2n) Weyl: signed permutations
    elif fam == "D21a":
        gens = [_flip(d, s) for s in g]
        if kind == "extended":
            gens += _sym_gens(d, g)
    elif fam == "F4":
        gens = _type_b_gens(d, e) + [_flip(d, g[0])]
    elif fam == "G3":
        # W(G2) = S3 x {+-1} on the eliminated (e1, e2) plane
        swap12 = _perm_swap(d, e[0], e[1])
        swap23 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        swap23[e[0]] = [1, -1, 0]
        swap23[e[1]] = [0, -1, 0]
        swap23 = tuple(tuple(r) for r in swap23)
        neg = _diag(d, [-1, -1, 1])
        gens = [swap12, swap23, neg, _flip(d, g[0])]
    elif fam in ("psq", "p", "W", "S", "Sprime"):
        gens = _sym_gens(d, e)
    elif fam == "H":
        n = rs.params[0]
        gens = _type_b_gens(d, e) if n % 2 else _type_d_gens(d, e)
    else:
        raise ValueError(f"unsupported family {fam}")
    return gens


def classification_group(rs: RootSystem) -> str:
    if rs.family == "D21a":
        return "extended"
    if rs.family in ("W", "S", "Sprime", "H"):
        return "levi_weyl"
    return "even_weyl"


def root_permutation(rs: RootSystem, m):
    """perm[i] = index of the image of root i under the integer matrix m:
    m applied to the integer weight ``RootTable.weights[i]`` and looked up
    in ``RootTable.class_index``, which holds every gl lift for psl."""
    table = rs.table
    index = table.class_index
    perm = []
    for i, w in enumerate(table.weights):
        j = index.get(tuple(sum(c * x for c, x in zip(row, w)) for row in m))
        if j is None:
            raise RootEscapeError(f"image of root {rs.root_str(i)} is not a root")
        perm.append(j)
    return tuple(perm)


def _images(rs: RootSystem, m):
    """The nibble image tables of m, from its root permutation, built once
    per (system, m) and kept with it in ``RootTable.perms``."""
    perms = rs.table.perms
    entry = perms.get(m)
    if entry is None:
        perm = root_permutation(rs, m)
        entry = perms[m] = (perm, RootTable.image_tables(perm))
    return entry[1]


def act(rs: RootSystem, m, bits: int) -> int:
    return RootTable.permute(_images(rs, m), bits)


def orbit(rs: RootSystem, bits: int, gens):
    """BFS closure of a subset under root permutations of the generators;
    raises ``CapExceeded`` once it would hold more than ``ORBIT_CAP``
    subsets."""
    images = [_images(rs, m) for m in gens]
    permute = RootTable.permute
    seen = {bits}
    frontier = [bits]
    while frontier:
        nxt = []
        for b in frontier:
            for tables in images:
                img = permute(tables, b)
                if img not in seen:
                    if len(seen) >= ORBIT_CAP:
                        raise CapExceeded(f"orbit exceeds cap {ORBIT_CAP}")
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def canonical_rep(rs: RootSystem, bits: int, gens) -> int:
    return min(orbit(rs, bits, gens))


def orbit_partition(rs: RootSystem, subsets, gens):
    """Group bitmasks by orbit; returns {canonical_rep: sorted members found}."""
    out = {}
    done = {}
    for b in subsets:
        if b in done:
            out[done[b]].append(b)
            continue
        orb = orbit(rs, b, gens)
        rep = min(orb)
        out.setdefault(rep, []).append(b)
        for x in orb:
            done[x] = rep
    return {rep: sorted(v) for rep, v in sorted(out.items())}

