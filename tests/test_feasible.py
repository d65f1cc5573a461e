import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import mul
from pathlib import Path

import pytest

from supercomin.feasible import IncrementalFM, feasible_witness

SRC = Path(__file__).resolve().parent.parent / "src"


def point(witness):
    """The rational point ``X / D`` of a ``feasible_witness`` result."""
    if witness is None:
        return None
    X, D = witness
    return [Fraction(v, D) for v in X]


def brute_feasible(rows, dim, box=4):
    """Rational grid scan oracle: a witness in a small box, if any.

    Sound only as a positive oracle; used against systems whose solutions,
    when they exist, were scaled into the box by construction.
    """
    vals = [Fraction(k, 2) for k in range(-2 * box, 2 * box + 1)]
    for point in product(vals, repeat=dim):
        if all(sum(c * x for c, x in zip(r, point)) + r[dim] >= 0 for r in rows):
            return point
    return None


def random_rows(rng, dim, count):
    rows = []
    for _ in range(count):
        row = tuple(rng.randint(-3, 3) for _ in range(dim)) + (rng.randint(-2, 2),)
        rows.append(row)
    return rows


def test_fm_matches_grid_oracle():
    rng = random.Random(20240817)
    for _ in range(120):
        dim = rng.randint(1, 3)
        rows = random_rows(rng, dim, rng.randint(1, 6))
        got = point(feasible_witness(rows, dim))
        grid = brute_feasible(rows, dim)
        if grid is not None:
            assert got is not None
        if got is not None:
            assert all(sum(c * x for c, x in zip(r, got)) + r[dim] >= 0
                       for r in rows)


def test_infeasible_detected():
    # x >= 1 and -x >= 0
    assert feasible_witness([(1, -1), (-1, 0)], 1) is None
    fm = IncrementalFM(1)
    assert fm.add((1, -1)) and not fm.add((-1, 0)) and not fm.alive
    # 0 >= 1 degenerate row
    assert feasible_witness([(0, -1)], 1) is None
    assert not IncrementalFM(1).add((0, -1))


def test_witness_extraction_bounds():
    # 1 <= x <= 2, y >= x, y <= 3
    rows = [(1, 0, -1), (-1, 0, 2), (-1, 1, 0), (0, -1, 3)]
    w = point(feasible_witness(rows, 2))
    assert w is not None and 1 <= w[0] <= 2 and w[1] >= w[0]


def _solve_equalities(rows, dim):
    """One solution of {row . (x, 1) = 0 : row in rows}, or None.

    Gaussian elimination in Fractions; free variables are set to 0.
    """
    m = [[Fraction(c) for c in r[:dim]] + [Fraction(-r[dim])] for r in rows]
    pivots = []
    top = 0
    for k in range(dim):
        piv = next((i for i in range(top, len(m)) if m[i][k] != 0), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        m[top] = [v / m[top][k] for v in m[top]]
        for i in range(len(m)):
            if i != top and m[i][k] != 0:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        pivots.append(k)
        top += 1
    if any(row[dim] != 0 for row in m[top:]):
        return None
    x = [Fraction(0)] * dim
    for i, k in enumerate(pivots):
        x[k] = m[i][dim]
    return x


def vertex_oracle_feasible(rows, dim):
    """Exact feasibility of {x : A x + b >= 0} without Fourier-Motzkin.

    A nonempty polyhedron contains its minimal face, the solution set of at
    most ``dim`` linearly independent tight rows; every point of that face
    satisfies all rows.  So some subset of at most ``dim`` rows, solved as
    equalities, gives a feasible point exactly when the system is feasible.
    """
    for size in range(dim + 1):
        for subset in combinations(rows, size):
            x = _solve_equalities(subset, dim)
            if x is not None and all(
                    sum(c * v for c, v in zip(r, x)) + r[dim] >= 0
                    for r in rows):
                return True
    return False


def random_system(rng, dim, count):
    """Random rows, about a third of them added as a +- pair (an equality,
    as the zero branch of face enumeration adds them), with small
    coefficients so that many combinations coincide."""
    rows = []
    while len(rows) < count:
        v = tuple(rng.choice((-2, -1, 0, 0, 1, 1, 2)) for _ in range(dim))
        t = rng.random()
        if t < 0.3:
            rows += [v + (0,), tuple(-c for c in v) + (0,)]
        elif t < 0.7:
            rows.append(v + (rng.choice((0, -1)),))
        else:
            rows.append(v + (rng.randint(-2, 2),))
    return rows


def test_incremental_matches_vertex_oracle():
    rng = random.Random(7)
    infeasible = 0
    for trial in range(500):
        dim = rng.randint(1, 6)
        if trial % 2:
            rows = random_rows(rng, dim, rng.randint(1, 9))
        else:
            rows = random_system(rng, dim, rng.randint(2, 9))
        inc = IncrementalFM(dim)
        alive = all(inc.add(r) for r in rows)
        oracle = vertex_oracle_feasible(rows, dim)
        assert alive == oracle, rows
        assert (feasible_witness(rows, dim) is not None) == oracle, rows
        infeasible += not oracle
    assert infeasible > 50


def test_point_satisfies_every_row_added():
    """``IncrementalFM.point`` of an alive state, read after every ``add``
    and on clones, satisfies each row added so far: the point the face
    search takes at a leaf is a point of the leaf's system."""
    rng = random.Random(19)
    points = 0
    for trial in range(500):
        dim = rng.randint(1, 6)
        if trial % 2:
            rows = random_rows(rng, dim, rng.randint(1, 9))
        else:
            rows = random_system(rng, dim, rng.randint(2, 9))
        fm = IncrementalFM(dim)
        for n, r in enumerate(rows, 1):
            if rng.random() < 0.3:
                fm = fm.clone()
            if not fm.add(r):
                break
            X, D = fm.point()
            assert D > 0 and gcd(D, *X) == 1
            assert all(sum(map(mul, q, X)) + q[dim] * D >= 0
                       for q in rows[:n]), rows[:n]
            points += 1
    assert points > 1000


def plain_witness(rows, dim):
    """Reference: Fourier-Motzkin with no pruning and the back substitution
    of ``feasible_witness`` (midpoint of each variable's interval)."""
    levels = [([], []) for _ in range(dim)]
    kept = set()
    for r in rows:
        stack = [r]
        while stack:
            r = stack.pop()
            g = gcd(*r)
            r = tuple(c // g for c in r) if g > 1 else tuple(r)
            k = next((j for j in range(dim) if r[j]), dim)
            if k == dim:
                if r[dim] < 0:
                    return None
                continue
            if r in kept:
                continue
            kept.add(r)
            pos, neg = levels[k]
            mine, other = (pos, neg) if r[k] > 0 else (neg, pos)
            mine.append(r)
            for q in other:
                p, n = (r, q) if r[k] > 0 else (q, r)
                stack.append([-n[k] * a + p[k] * b for a, b in zip(p, n)])
    x = [Fraction(0)] * dim
    for k in reversed(range(dim)):
        bounds = [(Fraction(-r[dim] - sum(r[j] * x[j]
                                          for j in range(k + 1, dim)), r[k]),
                   r[k] > 0) for side in levels[k] for r in side]
        lo = max((b for b, up in bounds if up), default=None)
        hi = min((b for b, up in bounds if not up), default=None)
        if lo is not None and hi is not None:
            x[k] = (lo + hi) / 2
        else:
            x[k] = lo if lo is not None else hi if hi is not None else x[k]
    return x


# Keeping only the first history of a row that two derivations reach loses
# a bound on these systems: back substitution then returns a point that
# violates some of the rows.
FIRST_HISTORY_COUNTEREXAMPLES = [
    [(0, 1, -1, 0, 2, 1, 0), (0, -1, 1, 0, -2, -1, 0), (-2, -2, -2, -1, 0, -1, -1),
     (1, 1, 1, 2, 2, 0, 0), (-1, -1, -1, -2, -2, 0, 0), (2, 0, 1, 1, 2, 1, 0),
     (-2, 0, -1, -1, -2, -1, 0), (0, 0, -1, 1, -2, -1, -1), (1, 1, 1, 0, 1, 1, 0)],
    [(2, 0, 0, 2, 2, 0, 0), (-2, 0, 0, -2, -2, 0, 0), (0, -1, 1, 1, 0, 0, 0),
     (0, 1, -1, -1, 0, 0, 0), (1, 1, 2, 1, 2, 1, 0), (-1, -1, -2, -1, -2, -1, 0),
     (-1, 0, 1, 1, 1, 0, 0), (1, 0, -1, -1, -1, 0, 0), (2, 1, 1, 2, -1, 2, -1),
     (0, 2, 1, 2, -1, 0, 0), (0, -2, -1, -2, 1, 0, 0)],
]


def test_pruned_witness_equals_plain_elimination():
    """Chernikov's rule and the one-bound last level leave every projection
    unchanged, so the back-substituted point is the same Fractions."""
    for rows in FIRST_HISTORY_COUNTEREXAMPLES:
        assert point(feasible_witness(rows, 6)) == plain_witness(rows, 6)
    rng = random.Random(11)
    witnesses = 0
    for _ in range(400):
        dim = rng.randint(1, 6)
        rows = random_system(rng, dim, rng.randint(2, 10))
        got = point(feasible_witness(rows, dim))
        assert got == plain_witness(rows, dim), rows
        witnesses += got is not None
    assert witnesses > 100


def test_witness_with_growing_denominators():
    """Wide coefficients: the common denominator of the back-substituted
    point grows over several variables, and the point is still exactly the
    one plain elimination gives."""
    rng = random.Random(13)
    witnesses = 0
    widest = 1
    for _ in range(300):
        dim = rng.randint(4, 6)
        rows = [tuple(0 if rng.random() < 0.3 else rng.randint(-40, 40)
                      for _ in range(dim)) + (rng.randint(-40, 40),)
                for _ in range(rng.randint(dim - 1, dim + 1))]
        got = point(feasible_witness(rows, dim))
        assert got == plain_witness(rows, dim), rows
        if got is not None:
            witnesses += 1
            widest = max(widest, *(v.denominator for v in got))
    assert witnesses >= 100
    assert widest > 10 ** 6


def with_parallel_rows(rng, rows, dim):
    """``rows`` with exact duplicates, positive multiples of a row's
    coefficients with other constants (tighter or looser) and constant-only
    rows mixed in, in random order."""
    out = list(rows)
    for _ in range(rng.randint(1, 4)):
        r = rng.choice(rows)
        t = rng.random()
        if t < 0.3:
            out.append(r)
        elif t < 0.8:
            m = rng.randint(1, 3)
            out.append(tuple(m * c for c in r[:dim]) + (rng.randint(-4, 2),))
        else:
            out.append((0,) * dim + (rng.choice((0, 0, 1, 2, -1)),))
    rng.shuffle(out)
    return out


def test_one_row_per_direction_matches_plain_elimination():
    """Only the tightest of rows along one direction is eliminated; the
    point is still the one plain elimination of every row gives."""
    rng = random.Random(17)
    witnesses = 0
    for _ in range(400):
        dim = rng.randint(1, 6)
        rows = with_parallel_rows(
            rng, random_system(rng, dim, rng.randint(2, 8)), dim)
        got = point(feasible_witness(rows, dim))
        assert got == plain_witness(rows, dim), rows
        witnesses += got is not None
    assert witnesses > 100


def test_dropped_parallel_row_is_still_checked(monkeypatch):
    """x >= 3 is dropped beside 2x >= 8 and never eliminated, but the
    closing check reads it: an engine that loses 2x >= 8 yields x = 0,
    which the check rejects on x >= 3, the first row given."""
    added = []
    add = IncrementalFM.add

    def losing(self, row):
        added.append(row)
        return self.alive if row == (2, -8) else add(self, row)

    monkeypatch.setattr(IncrementalFM, "add", losing)
    with pytest.raises(AssertionError,
                       match=r"witness \[0\]/1 violates row \(1, -3\)"):
        feasible_witness([(1, -3), (2, -8), (-1, 0)], 1)
    assert added == [(2, -8), (-1, 0)]


EMPTY_RANGE = """
import sys
from supercomin import feasible


def keep_every_bound(self, row):
    k = next(j for j in range(self.dim) if row[j])
    self.levels[k][row[k] < 0].append(tuple(row))
    return True


feasible.IncrementalFM.add = keep_every_bound
try:
    feasible.feasible_witness([(1, -5), (-1, 2)], 1)
except AssertionError as exc:
    if "empty range" not in str(exc):
        sys.exit(f"wrong self-check raised: {exc}")
else:
    sys.exit("back substitution accepted the empty range 5 <= x <= 2")
"""


def test_back_substitution_rejects_empty_range():
    """An engine that kept x >= 5 and x <= 2 alive trips the empty-range
    self-check of back substitution, also under ``python -O``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", EMPTY_RANGE],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (flags, proc.stderr)


def test_last_level_keeps_one_bound_per_sign():
    rng = random.Random(5)
    for _ in range(300):
        dim = rng.randint(1, 5)
        fm = IncrementalFM(dim)
        for r in random_system(rng, dim, rng.randint(1, 12)):
            fm.add(r)
            pos, neg = fm.levels[-1]
            assert len(pos) <= 1 and len(neg) <= 1
            assert all(r in fm.seen for level in fm.levels[:-1]
                       for side in level for r in side)
    # x >= 1, x >= 3, x >= 2 (in that order) keep x >= 3 only
    fm = IncrementalFM(1)
    for r in [(1, -1), (1, -3), (1, -2), (-1, 5)]:
        assert fm.add(r)
    assert fm.levels == [([(1, -3)], [(-1, 5)])]
    assert not fm.add((-1, 2))


def test_incremental_clone_isolation():
    inc = IncrementalFM(1)
    inc.add((1, 0))        # x >= 0
    child = inc.clone()
    assert not child.add((-1, -1))  # x <= -1: dead
    assert inc.alive and inc.add((1, -1))  # parent unaffected

