"""The composition kernel on hand-checked label rows, and ``compose``
against an independent vertex union-find."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from blockperm import _glue_py
from blockperm.monoid import compose, enumerate_ubp
from test_monoid import diagrams


class TestPureKernel:
    def test_canonical_labels(self):
        assert _glue_py.canonical_labels((1, 0, 1), (0, 1, 1)) == ((0, 1, 0), (1, 0, 0))
        assert _glue_py.canonical_labels((), ()) == ((), ())

    def test_canonical_rejects_bottom_only_component(self):
        with pytest.raises(ValueError, match="no top vertex"):
            _glue_py.canonical_labels((0, 0), (0, 1))

    def test_glue_identity(self):
        top = (0, 1, 2)
        assert _glue_py.glue_labels(top, top, top, top) == (top, top)

    def test_glue_swap_squares_to_identity(self):
        top, bot = (0, 1), (1, 0)
        assert _glue_py.glue_labels(top, bot, top, bot) == ((0, 1), (0, 1))


def reference_compose(g, f):
    """g.f by union-find over the 3n vertices of f's diagram stacked on g's:
    f's top row (0..n-1), the glued middle row (n..2n-1) and g's bottom row
    (2n..3n-1).  Components are then numbered by first appearance along the
    top row."""
    n = f.n
    parent = list(range(3 * n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    def join(u, v):
        parent[find(u)] = find(v)

    for layer, (upper, lower) in ((0, (f.top, f.bot)), (n, (g.top, g.bot))):
        vertices = [layer + i for i in range(n)] + [layer + n + j for j in range(n)]
        labels = list(upper) + list(lower)
        first = {}
        for v, label in zip(vertices, labels):
            if label in first:
                join(v, first[label])
            else:
                first[label] = v
    number = {}
    for i in range(n):
        number.setdefault(find(i), len(number))
    top = tuple(number[find(i)] for i in range(n))
    bot = tuple(number[find(2 * n + j)] for j in range(n))
    return top, bot


def assert_matches_reference(g, f):
    """compose(g, f) equals the reference, its top row is canonical, and
    the kernel hands back f's own top row exactly when no blocks merged.
    Returns True when blocks merged."""
    top, bot = reference_compose(g, f)
    h = compose(g, f)
    assert (h.top, h.bot) == (top, bot)
    assert list(dict.fromkeys(top)) == list(range(len(set(top))))
    merged = len(set(top)) < len(set(f.top))
    if f.n:
        out_top, _ = _glue_py.glue_labels(f.top, f.bot, g.top, g.bot)
        assert (out_top is f.top) == (not merged)
    return merged


class TestComposeReference:
    def test_exhaustive_up_to_degree_4(self):
        # Degree 0 included: the empty diagram composed with itself.
        merged = set()
        for n in range(5):
            elements = enumerate_ubp(n)
            for f, g in itertools.product(elements, repeat=2):
                merged.add(assert_matches_reference(g, f))
        assert merged == {False, True}

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(diagrams(n), diagrams(n))))
    @settings(max_examples=400, deadline=None)
    def test_random_up_to_degree_8(self, pair):
        f, g = pair
        assert_matches_reference(g, f)
