import pytest
from hypothesis import given, strategies as st

from supercomin import kernel


def test_covering_enforced():
    # single +-pair with no closure: exactly the three covering states
    out = kernel.enumerate_closed([1, 0], [(), ()])
    assert sorted(out) == [0b01, 0b10, 0b11]
    # with both roots fixed outside nothing covers the pair
    assert kernel.enumerate_closed([1, 0], [(), ()], outside=0b11) == []


def test_node_budget(monkeypatch):
    """Each call of the search step counts against ``NODE_CAP``: one free
    pair is the root node and its three covering states."""
    monkeypatch.setattr(kernel, "NODE_CAP", 4)
    assert sorted(kernel.enumerate_closed([1, 0], [(), ()])) == [1, 2, 3]
    monkeypatch.setattr(kernel, "NODE_CAP", 3)
    with pytest.raises(kernel.CapExceeded,
                       match="^lift search visits more than 3 nodes$"):
        kernel.enumerate_closed([1, 0], [(), ()])


def test_closure_propagation():
    # roots 0,1 force 2 (a single); includes covering states of the pair
    rows = [((1, 0b100),), ((0, 0b100),), ()]
    out = kernel.enumerate_closed([1, 0, None], rows)
    assert 0b011 not in out  # both in but target excluded
    assert 0b111 in out
    assert sorted(out) == sorted(
        m for m in range(8)
        if (m & 0b11) and not (m & 0b11 == 0b11 and not m & 0b100))


@st.composite
def search_inputs(draw):
    """A negation map that pairs some roots and leaves the rest unpaired,
    and symmetric closure rows, over n <= 8 roots."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    neg = [None] * n
    for t in range(draw(st.integers(0, n // 2))):
        i, j = order[2 * t], order[2 * t + 1]
        neg[i], neg[j] = j, i
    rows = [[] for _ in range(n)]
    roots = st.integers(0, n - 1)
    for a, b, targets in draw(st.lists(
            st.tuples(roots, roots, st.sets(roots, min_size=1, max_size=3)),
            max_size=12)):
        mask = sum(1 << t for t in targets)
        rows[a].append((b, mask))
        if a != b:
            rows[b].append((a, mask))
    return neg, rows


def closed_covering_masks(neg, rows):
    """Brute force over all 2^n masks: covering and closure by definition."""
    n = len(neg)

    def covering(m):
        return all((m >> i) & 1 or (m >> j) & 1
                   for i, j in enumerate(neg) if j is not None)

    def closed(m):
        return all(not (t & ~m)
                   for r in range(n) if (m >> r) & 1
                   for q, t in rows[r] if (m >> q) & 1)

    return [m for m in range(1 << n) if covering(m) and closed(m)]


@given(search_inputs())
def test_matches_brute_force(inputs):
    neg, rows = inputs
    assert sorted(kernel.enumerate_closed(neg, rows)) == \
        closed_covering_masks(neg, rows)


@given(search_inputs(), st.data())
def test_fixed_roots_match_brute_force(inputs, data):
    """Roots fixed inside or outside: drawn per root, so pairs with both
    roots outside and fixed roots that force others come up often."""
    neg, rows = inputs
    inside = outside = 0
    for i in range(len(neg)):
        state = data.draw(st.sampled_from("fio"))
        if state == "i":
            inside |= 1 << i
        elif state == "o":
            outside |= 1 << i
    expected = [m for m in closed_covering_masks(neg, rows)
                if m & inside == inside and not m & outside]
    assert sorted(kernel.enumerate_closed(neg, rows, inside, outside)) == expected


@st.composite
def prune_inputs(draw, neg):
    """Prune masks for the paired roots of ``neg``: a symmetric partner
    relation among some of them (a root may be its own partner), with a
    mask on each of those roots and None on the rest."""
    paired = [r for r, j in enumerate(neg) if j is not None]
    tracked = sorted(draw(st.sets(st.sampled_from(paired)))) if paired else []
    masks = dict.fromkeys(tracked, 0)
    if tracked:
        roots = st.sampled_from(tracked)
        for a, b in draw(st.lists(st.tuples(roots, roots), max_size=10)):
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return [masks.get(r) for r in range(len(neg))]


def pruned_by_rule(masks, neg, prune):
    """The masks with no two partners that lie in them without their
    negations."""
    def kept(m):
        alone = sum(1 << r for r, p in enumerate(prune)
                    if p is not None and (m >> r) & 1 and not (m >> neg[r]) & 1)
        return not any(prune[r] & alone
                       for r in range(len(neg)) if (alone >> r) & 1)

    return [m for m in masks if kept(m)]


@given(search_inputs(), st.data())
def test_prune_matches_brute_force(inputs, data):
    neg, rows = inputs
    prune = data.draw(prune_inputs(neg))
    assert sorted(kernel.enumerate_closed(neg, rows, prune=prune)) == \
        pruned_by_rule(closed_covering_masks(neg, rows), neg, prune)


@given(search_inputs(), st.data())
def test_prune_with_fixed_roots_matches_brute_force(inputs, data):
    """Roots fixed inside with their negations fixed outside take part in
    the rule from the start."""
    neg, rows = inputs
    prune = data.draw(prune_inputs(neg))
    inside = outside = 0
    for i in range(len(neg)):
        state = data.draw(st.sampled_from("ffio"))
        if state == "i":
            inside |= 1 << i
        elif state == "o":
            outside |= 1 << i
    expected = [m for m in closed_covering_masks(neg, rows)
                if m & inside == inside and not m & outside]
    assert sorted(kernel.enumerate_closed(neg, rows, inside, outside, prune)) == \
        pruned_by_rule(expected, neg, prune)


def test_prune_example():
    # one pair (0, 1) and one pair (2, 3); 0 and 2 are partners, 1 its own
    prune = [0b0100, 0b0010, 0b0001, None]
    out = sorted(kernel.enumerate_closed([1, 0, 3, 2], [()] * 4, prune=prune))
    full = [m for m in range(16) if (m & 0b11) and (m & 0b1100)]
    # dropped: 0 and 2 alone together; 1 alone (its own partner)
    assert out == [m for m in full if m & 0b11 != 0b10
                   and not (m & 0b11 == 0b01 and m & 0b1100 == 0b0100)]
