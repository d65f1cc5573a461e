"""Exhaustive closed-subset enumeration.

Subsets P of a root list must satisfy, per +-/- pair, "at least one in"
(three states: +only, -only, both) and, per unpaired root, in/out; closure
obligations (r in P and m in P force target roots in P) are propagated
during the search, which prunes almost all of the 3^pairs * 2^singles
state space.

Callers pass the negation map and the closure rows; the pair/single units
and their search order are derived here.  Roots may be fixed in advance:
``inside`` lists roots every result contains, ``outside`` roots none
contains, and only the other roots are searched.  The parabolic module
searches the symmetrized list Delta u (-Delta): once per system with
nothing fixed for the exhaustive stream, whose results are the lifts of
every parabolic subset, and once per other subset with the Delta-part fixed
to P (``inside`` = P, ``outside`` = Delta \\ P), for the lifts of P.

An optional ``prune`` drops the subsets in which two roots that stand
alone in their pairs (r in the subset, -r not) are marked as partners.
It is checked on the "i only" and "-i only" branches of a pair, so a
dropped subset's whole subtree is never searched.  The cominuscule
classification passes its forbidden nilradical pairs here when it runs
the exhaustive stream (a root of P whose negation is a root outside P
lies in the nilradical of every lift of P); point searches pass none.

Every search, exhaustive or point, is refused with ``CapExceeded`` once it
visits more than ``NODE_CAP`` nodes (calls of its recursive step), checked
as it runs.  The budget is the one bound on the work of a search; no cap
on |Delta| stands in for it.  It is fixed, as ``rootsys.ROOT_CAP`` and
``weyl.ORBIT_CAP`` are: the largest search of the paper suite visits about
6,000 nodes and the unpruned exhaustive stream of W(4) about 180,000, at a
few microseconds each, so 10^6 nodes bounds one search to seconds.  A
node costs more on a larger system: the exhaustive stream of W(5), 110
roots, is refused after about 9 s, that of W(7), 574 roots, after 47 s.
"""

from __future__ import annotations

from .rootsys import CapExceeded

# the most nodes one search may visit; no option or variable sets it
NODE_CAP = 10 ** 6


def _units(neg, rows, inside, outside):
    """Search units (kind, i, j): pairs (0, i, -i) and singles (1, i, i).

    Only roots not fixed by ``inside | outside`` get a unit; a pair keeps
    its unit while one of its roots is free.  None when a pair has both
    roots outside, so that no subset covers it.  Deterministic order,
    densest closure interaction first.
    """
    fixed = inside | outside
    units = []
    for i, j in enumerate(neg):
        if j is None:
            if not (fixed >> i) & 1:
                units.append((1, i, i))
        elif i < j:
            if (outside >> i) & (outside >> j) & 1:
                return None
            if not (fixed >> i) & (fixed >> j) & 1:
                units.append((0, i, j))
    units.sort(key=lambda u: (-(len(rows[u[1]]) + len(rows[u[2]])), u[1]))
    return units


def _clear(pmask, in_mask, out_mask, neg):
    """Whether no root of ``pmask`` (None: no root) lies in ``in_mask``
    with its negation in ``out_mask``."""
    if pmask is None:
        return True
    hit = pmask & in_mask
    while hit:
        low = hit & -hit
        if (out_mask >> neg[low.bit_length() - 1]) & 1:
            return False
        hit ^= low
    return True


def enumerate_closed(neg, rows, inside=0, outside=0, prune=None):
    """All subset masks satisfying covering and closure (including Delta)
    that contain every root of ``inside`` and no root of ``outside``.

    ``neg[i]`` is the index of the root -i, or None when -i is no root;
    ``rows[r]`` lists pairs (m, target_mask): the targets are forced when r
    and m both lie in the subset.  Rows must be symmetric: (m, t) in rows[r]
    exactly when (r, t) in rows[m].

    ``prune[r]`` (optional) is None or the mask of root r's partners.
    Only paired roots may have masks, a partner must have one too, and the
    masks must be symmetric.  A subset is dropped when two partners (one
    root with itself included) both lie in it without their negations.

    Raises ``CapExceeded`` when the search visits more than ``NODE_CAP``
    nodes.
    """
    if prune is not None:
        # the roots with masks that the fixed roots leave alone in their pairs
        alone = sum(1 << r for r, p in enumerate(prune) if p is not None
                    and (inside >> r) & (outside >> neg[r]) & 1)
        if any(prune[r] & alone for r in range(len(neg)) if (alone >> r) & 1):
            return []
    units = _units(neg, rows, inside, outside)
    if units is None:
        return []
    out = []
    nu = len(units)
    left = NODE_CAP  # nodes the search may still visit

    def add_root(r, in_mask, out_mask, req):
        if (out_mask >> r) & 1:
            return None, None
        if (in_mask >> r) & 1:  # a fixed root: its obligations are in req
            return in_mask, req
        m_in = in_mask | (1 << r)
        acc = 0
        for m, tmask in rows[r]:
            if (m_in >> m) & 1:
                acc |= tmask
        if acc & out_mask:
            return None, None
        return m_in, req | acc

    def rec(u, in_mask, out_mask, req):
        nonlocal left
        left -= 1
        if left < 0:
            raise CapExceeded(f"lift search visits more than {NODE_CAP} nodes")
        if u == nu:
            if not (req & ~in_mask):
                out.append(in_mask)
            return
        kind, i, j = units[u]
        if kind == 1:  # single root: in / out
            m_in, nreq = add_root(i, in_mask, out_mask, req)
            if m_in is not None:
                rec(u + 1, m_in, out_mask, nreq)
            if not (req >> i) & 1:
                rec(u + 1, in_mask, out_mask | (1 << i), req)
            return
        # pair (i, j = -i): i only / j only / both
        if not (req >> j) & 1:
            o_mask = out_mask | (1 << j)
            m_in, nreq = add_root(i, in_mask, o_mask, req)
            if m_in is not None and (
                    prune is None or _clear(prune[i], m_in, o_mask, neg)):
                rec(u + 1, m_in, o_mask, nreq)
        if not (req >> i) & 1:
            o_mask = out_mask | (1 << i)
            m_in, nreq = add_root(j, in_mask, o_mask, req)
            if m_in is not None and (
                    prune is None or _clear(prune[j], m_in, o_mask, neg)):
                rec(u + 1, m_in, o_mask, nreq)
        m_in, nreq = add_root(i, in_mask, out_mask, req)
        if m_in is not None:
            m_in, nreq = add_root(j, m_in, out_mask, nreq)
            if m_in is not None:
                rec(u + 1, m_in, out_mask, nreq)

    # the closure obligations among the fixed roots themselves
    req = inside
    for r in range(len(neg)):
        if (inside >> r) & 1:
            for m, tmask in rows[r]:
                if m >= r and (inside >> m) & 1:
                    req |= tmask
            if req & outside:
                return []
    rec(0, inside, outside, req)
    del rec  # rec's closure refers to rec: drop the cycle, not leave it to gc
    return out
