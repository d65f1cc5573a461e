"""Exhaustive closed-subset enumeration.

Subsets P of a root list must satisfy, per +-/- pair, "at least one in"
(three states: +only, -only, both) and, per unpaired root, in/out; closure
obligations (r in P and m in P force target roots in P) are propagated
during the search, which prunes almost all of the 3^pairs * 2^singles
state space.

Callers pass the negation map and the closure rows; the pair/single units
and their search order are derived here.
"""

from __future__ import annotations


def _units(neg, rows):
    """Search units (kind, i, j): pairs (0, i, -i) and singles (1, i, i).

    Deterministic order, densest closure interaction first.
    """
    units, done = [], set()
    for i, j in enumerate(neg):
        if i in done:
            continue
        if j is None:
            units.append((1, i, i))
            done.add(i)
        else:
            units.append((0, i, j))
            done.update((i, j))
    deg = [len(r) for r in rows]
    units.sort(key=lambda u: (-(deg[u[1]] + deg[u[2]]), u[1]))
    return units


def enumerate_closed(neg, rows):
    """All subset masks satisfying covering and closure (including Delta).

    ``neg[i]`` is the index of the root -i, or None when -i is no root;
    ``rows[r]`` lists pairs (m, target_mask): the targets are forced when r
    and m both lie in the subset.  Rows must be symmetric: (m, t) in rows[r]
    exactly when (r, t) in rows[m].
    """
    units = _units(neg, rows)
    out = []
    nu = len(units)

    def add_root(r, in_mask, out_mask, req):
        m_in = in_mask | (1 << r)
        acc = 0
        for m, tmask in rows[r]:
            if (m_in >> m) & 1:
                acc |= tmask
        if acc & out_mask:
            return None, None
        return m_in, req | acc

    def rec(u, in_mask, out_mask, req):
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
            m_in, nreq = add_root(i, in_mask, out_mask | (1 << j), req)
            if m_in is not None:
                rec(u + 1, m_in, out_mask | (1 << j), nreq)
        if not (req >> i) & 1:
            m_in, nreq = add_root(j, in_mask, out_mask | (1 << i), req)
            if m_in is not None:
                rec(u + 1, m_in, out_mask | (1 << i), nreq)
        m_in, nreq = add_root(i, in_mask, out_mask, req)
        if m_in is not None:
            m_in, nreq = add_root(j, m_in, out_mask, nreq)
            if m_in is not None:
                rec(u + 1, m_in, out_mask, nreq)

    rec(0, 0, 0, 0)
    return out
