"""The composition kernel on hand-checked label rows, and ``compose``
against the vertex union-find of ``oracle.compose``, reached through
``test_monoid.arrows``."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from blockperm import _glue_py
from blockperm.monoid import UniformBlockPermutation, compose, enumerate_ubp
from test_monoid import arrows, diagrams


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


def assert_matches_reference(g, f):
    """compose(g, f) equals the oracle's, its top row is canonical, and the
    kernel hands back f's own top row exactly when no blocks merged.  Returns
    True when blocks merged."""
    h = compose(g, f)
    assert arrows(h) == oracle.compose(arrows(g), arrows(f))
    assert list(dict.fromkeys(h.top)) == list(range(len(set(h.top))))
    merged = len(set(h.top)) < len(set(f.top))
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


def canonical_top_like(row, rnd):
    """A random canonical top row holding each label as often as row does:
    each position takes a label already opened and not used up, or opens the
    next one."""
    left = Counter(row)
    out = []
    opened = 0
    for _ in row:
        choices = [label for label in range(opened) if left[label]]
        if opened < len(left):
            choices.append(opened)
        label = rnd.choice(choices)
        opened += label == opened
        left[label] -= 1
        out.append(label)
    return tuple(out)


class TestGluePlans:
    """glue_labels reads which blocks merge off a plan kept per pair of middle
    rows (f.bot, g.top); f's top row and g's bottom row only pass through it."""

    @given(
        st.integers(5, 8).flatmap(lambda n: st.tuples(diagrams(n), diagrams(n))),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_warm_plan_serves_other_outer_rows(self, pair, rnd):
        f, g = pair
        f2 = UniformBlockPermutation(canonical_top_like(f.bot, rnd), f.bot)
        g2 = UniformBlockPermutation(g.top, tuple(rnd.sample(g.bot, len(g.bot))))
        assert_matches_reference(g, f)  # leaves the plan of (f.bot, g.top) cached
        hits = _glue_py._glue_plan.cache_info().hits
        h = compose(g2, f2)
        assert _glue_py._glue_plan.cache_info().hits == hits + 1
        assert arrows(h) == oracle.compose(arrows(g2), arrows(f2))
        assert_matches_reference(g2, f2)

    def test_unmerged_top_row_is_fs_own_on_a_miss_and_a_hit(self):
        # Two diagrams f over one bottom row, {1,2}->{2,3};{3}->{1} and
        # {1,3}->{2,3};{2}->{1}, each followed by a permutation: nothing merges.
        fbot, gtop, gbot = (1, 0, 0), (0, 1, 2), (2, 0, 1)
        _glue_py._glue_plan.cache_clear()
        for ftop, misses, hits in (((0, 0, 1), 1, 0), ((0, 1, 0), 1, 1)):
            top, bot = _glue_py.glue_labels(ftop, fbot, gtop, gbot)
            assert top is ftop and bot == (0, 1, 0)
            info = _glue_py._glue_plan.cache_info()
            assert (info.misses, info.hits) == (misses, hits)

    def test_cold_and_warm_plans_agree_up_to_degree_4(self):
        rows = [
            (f.top, f.bot, g.top, g.bot)
            for n in range(5)
            for f, g in itertools.product(enumerate_ubp(n), repeat=2)
        ]
        cold = []
        for ftop, fbot, gtop, gbot in rows:
            _glue_py._glue_plan.cache_clear()
            cold.append(_glue_py.glue_labels(ftop, fbot, gtop, gbot))
        for row in rows:  # every plan cached
            _glue_py.glue_labels(*row)
        before = _glue_py._glue_plan.cache_info().hits
        warm = [_glue_py.glue_labels(*row) for row in rows]
        assert _glue_py._glue_plan.cache_info().hits - before == len(rows)
        assert warm == cold
