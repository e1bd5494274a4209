"""Properties of the one accumulator (the LinearCombination constructor), of
the shared sum parser, and of Hopf laws sampled past the exhaustive bound."""

import re
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from blockperm import hopf
from blockperm.hopf import Element, parse_element
from blockperm.monoid import enumerate_ubp
from blockperm.ncsym import NCSymElement, parse_p_element
from blockperm.partitions import set_partitions
from test_monoid import diagrams

DIAGRAMS = [f for n in range(4) for f in enumerate_ubp(n)]
PARTITIONS = [a for n in range(5) for a in set_partitions(n)]


def pair_lists(keys):
    # A small coefficient range over a small pool makes repeats and
    # cancellations common.
    return st.lists(st.tuples(st.sampled_from(keys), st.integers(-2, 2)), max_size=12)


def combinations(cls, keys):
    return pair_lists(keys).map(cls)


class TestConstructor:
    @given(pair_lists(DIAGRAMS))
    @settings(max_examples=200, deadline=None)
    def test_equals_left_fold_and_stores_no_zero(self, pairs):
        x = Element(pairs)
        assert x == reduce(
            lambda acc, kc: acc + Element.basis(*kc), pairs, Element.zero()
        )
        tally = Counter()
        for key, coeff in pairs:
            tally[key] += coeff
        assert x.terms == {k: c for k, c in tally.items() if c}
        assert 0 not in x.terms.values()


def _reorderings(x):
    """(text, canonical form) for each text made from the canonical text of x
    by swapping two terms or repeating one."""
    pieces = str(x).split(" + ")
    for i, (key, coeff) in enumerate(x.sorted_terms()):
        for j in range(len(pieces)):
            if i < j:
                swapped = list(pieces)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield " + ".join(swapped), str(x)
            repeated = pieces[:j] + [pieces[i]] + pieces[j:]
            yield " + ".join(repeated), str(x + type(x).basis(key, coeff))


class TestParsers:
    # The element round trip is test_hopf.test_element_text_roundtrip.

    @given(combinations(NCSymElement, PARTITIONS))
    @settings(max_examples=150, deadline=None)
    def test_p_element_round_trip(self, u):
        assert parse_p_element(str(u)) == u

    @given(combinations(Element, DIAGRAMS).filter(lambda x: len(x) >= 2))
    @settings(max_examples=60, deadline=None)
    def test_element_reordering_rejected(self, x):
        for text, canonical in _reorderings(x):
            with pytest.raises(ValueError, match=re.escape(f"canonical form is {canonical}") + "$"):
                parse_element(text)

    @given(combinations(NCSymElement, PARTITIONS).filter(lambda u: len(u) >= 2))
    @settings(max_examples=60, deadline=None)
    def test_p_element_reordering_rejected(self, u):
        for text, canonical in _reorderings(u):
            with pytest.raises(ValueError, match=re.escape(f"canonical form is {canonical}") + "$"):
                parse_p_element(text)


class TestHopfLawsPastExhaustiveBound:
    """The verify batteries check these laws exhaustively up to degree 4."""

    @given(
        st.integers(5, 6)
        .flatmap(lambda total: st.tuples(st.just(total), st.integers(1, total - 1)))
        .flatmap(lambda tp: st.tuples(diagrams(tp[1]), diagrams(tp[0] - tp[1])))
    )
    @settings(max_examples=15, deadline=None)
    def test_bialgebra_compatibility(self, fg):
        x, y = (Element.basis(f) for f in fg)
        assert hopf.coproduct(hopf.product(x, y)) == hopf.tensor_product(
            hopf.coproduct(x), hopf.coproduct(y)
        )

    @given(diagrams(5))
    @settings(max_examples=10, deadline=None)
    def test_antipode_identity(self, f):
        delta = hopf.coproduct(Element.basis(f)).terms.items()
        left = Element(
            (g, c * cg)
            for (a, b), c in delta
            for g, cg in hopf.product(
                hopf.antipode(Element.basis(a)), Element.basis(b)
            ).terms.items()
        )
        right = Element(
            (g, c * cg)
            for (a, b), c in delta
            for g, cg in hopf.product(
                Element.basis(a), hopf.antipode(Element.basis(b))
            ).terms.items()
        )
        assert not left and not right
