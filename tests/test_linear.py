"""Properties of the one accumulator (the LinearCombination constructor), of
the shared sum parser, and of Hopf laws sampled past the exhaustive bound."""

import re
from collections import Counter
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from blockperm import monoid, verify
from blockperm.hopf import Element, parse_element
from blockperm.monoid import UniformBlockPermutation, enumerate_ubp, from_permutation, parse_ubp
from blockperm.ncsym import NCSymElement, _parse_p_token, parse_p_element
from blockperm.partitions import SetPartition, parse_set_partition, set_partitions
from blockperm.perms import Permutation, all_permutations
from test_monoid import diagrams, parse_outcome

DIAGRAMS = [f for n in range(4) for f in enumerate_ubp(n)]
PARTITIONS = [a for n in range(5) for a in set_partitions(n)]

PARSERS = [parse_ubp, parse_set_partition, parse_element, parse_p_element]
# Canonical texts of every kind, so each parser also meets the others' input.
SEED_TEXTS = (
    [str(f) for f in DIAGRAMS]
    + [str(a) for a in PARTITIONS]
    + [str(sigma) for n in range(4) for sigma in all_permutations(n)]
    + ["0", "1*{1}->{1} + -2*{1,2}->{1,2}", "-1*p{1,2} + 1*p{1,3}{2,4}"]
)
SYMBOLS = "{}[]()<>-+*,;:=px0123456789 \t\n"


@st.composite
def mutated_texts(draw):
    """A seed text (or random symbols) with up to four random splices."""
    seeds = st.sampled_from(SEED_TEXTS) | st.text(SYMBOLS, max_size=12) | st.text(max_size=6)
    text = draw(seeds)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.text(SYMBOLS, max_size=3)) + text[j:]
    return text


# Sum texts with terms of degree up to 4, spliced with four kinds of
# whitespace and with a digit that int() reads but the printer never writes.
SUM_SEEDS = (
    ["0", "1*{}->{}", "1*p{}", "-2*{1,2}->{1,2} + 3*{1,3}->{1,2};{2}->{3}"]
    + [f"-1*{f} + 2*{g}" for f, g in zip(DIAGRAMS[1::7], DIAGRAMS[2::7]) if f < g]
    + [f"-3*p{a} + 1*p{b}" for a, b in zip(PARTITIONS[1::4], PARTITIONS[3::4]) if a < b]
    + [f"1*{f}" for f in enumerate_ubp(4)[::11]]
)
SUM_SYMBOLS = "{}-+*,;>p01234 \t\n\u00a0\u0661"


@st.composite
def mutated_sums(draw):
    """A sum text with up to three random splices."""
    text = draw(st.sampled_from(SUM_SEEDS))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 2)))
        text = text[:i] + draw(st.text(SUM_SYMBOLS, min_size=1, max_size=2)) + text[j:]
    return text


def reference_parse_terms(text, parse_key, cls):
    """The sum parser that prints every term it reads and accepts the term
    only if it prints back the same."""
    s = text.strip()
    if s == "0":
        return cls()
    pairs = []
    problem = None
    for pos, piece in enumerate(s.split(" + ")):
        coeff_text, star, key_text = piece.partition("*")
        if not star:
            coeff_text, key_text = "1", piece
        try:
            coeff = int(coeff_text)
        except ValueError:
            raise ValueError(
                f"term {pos}: bad coefficient {coeff_text!r} in {piece!r}"
            ) from None
        key = parse_key(key_text)
        if problem is None:
            if coeff_text != str(coeff):
                problem = f"term {pos}: coefficient {coeff_text!r} should read {str(coeff)!r}"
            elif key_text != cls.term_str(key):
                problem = f"term {pos}: term {key_text!r} should read {cls.term_str(key)!r}"
            elif not coeff:
                problem = f"term {pos}: zero coefficient"
            elif pairs and not pairs[-1][0] < key:
                order = "repeated term" if key == pairs[-1][0] else "terms out of order"
                problem = f"term {pos}: {order}"
        pairs.append((key, coeff))
    out = cls(pairs)
    if problem:
        raise ValueError(f"non-canonical sum {text!r} ({problem}); canonical form is {out}")
    return out


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
            lambda acc, kc: acc + Element.basis(*kc), pairs, Element()
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


def _spells_canonically(text, canonical):
    """True if ``text`` is ``canonical``, up to writing a sum term with
    coefficient 1 bare (``{1}->{1}`` for ``1*{1}->{1}``)."""
    pieces, expected = text.split(" + "), canonical.split(" + ")
    return len(pieces) == len(expected) and all(
        piece == want or "1*" + piece == want for piece, want in zip(pieces, expected)
    )


class TestParsers:
    # The element round trip is test_hopf.test_element_text_roundtrip and the
    # diagram round trip test_monoid.TestPastExhaustiveBound.test_round_trips.

    @pytest.mark.parametrize("parse", PARSERS, ids=lambda parse: parse.__name__)
    @given(text=mutated_texts())
    @settings(max_examples=120, deadline=None)
    def test_malformed_text_raises_only_value_error(self, parse, text):
        try:
            value = parse(text)
        except ValueError:
            return
        assert parse(str(value)) == value
        assert _spells_canonically(text.strip(), str(value)), (text, str(value))

    @given(diagrams(), st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    @settings(max_examples=60, deadline=None)
    def test_partition_and_permutation_round_trip(self, f, images):
        assert parse_set_partition(str(f.domain)) == f.domain
        sigma = Permutation(tuple(images))
        assert parse_ubp(str(from_permutation(sigma))).to_permutation() == sigma

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


class TestSumParser:
    @pytest.mark.parametrize(
        "parse, parse_key, cls",
        [(parse_element, parse_ubp, Element), (parse_p_element, _parse_p_token, NCSymElement)],
        ids=["element", "p-element"],
    )
    @given(text=mutated_sums())
    @example(text="1* {1}->{1}")
    @example(text="1*{1}->{1}  + 1*{1}->{1}")
    @example(text="1*p {1}")
    @example(text="1* p{1}")
    @example(text="1*p{1,2} + 1*p {1}{2}")
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_parser(self, parse, parse_key, cls, text):
        expected = parse_outcome(lambda t: reference_parse_terms(t, parse_key, cls), text)
        assert parse_outcome(parse, text) == expected

    @pytest.mark.parametrize("k", [1, 2, 5, 15])
    def test_each_term_is_printed_once(self, monkeypatch, k):
        x = Element((f, i + 1) for i, f in enumerate(enumerate_ubp(4)[:k]))
        u = NCSymElement((a, -i - 1) for i, a in enumerate(set_partitions(4)[:k]))
        x_text, u_text = str(x), str(u)
        calls = Counter()
        for key_cls in (UniformBlockPermutation, SetPartition):
            printer = key_cls.__str__

            def counted(key, printer=printer):
                calls[type(key)] += 1
                return printer(key)

            monkeypatch.setattr(key_cls, "__str__", counted)
        monoid._parsed.cache_clear()  # a cached diagram text is not printed again
        first = parse_element(x_text)
        assert first == x
        assert calls == {UniformBlockPermutation: k}
        calls.clear()
        second = parse_element(x_text)
        assert calls == {}
        assert all(a is b for a, b in zip(first.terms, second.terms, strict=True))
        assert parse_p_element(u_text) == u
        assert calls == {SetPartition: k}


@st.composite
def graded_diagrams(draw, arity, totals):
    """``arity`` diagrams of positive degrees that sum to a total drawn from
    ``totals``, the degrees a uniform composition of that total."""
    total = draw(st.sampled_from(totals))
    cuts = draw(st.sets(st.integers(1, total - 1), min_size=arity - 1, max_size=arity - 1))
    bounds = [0, *sorted(cuts), total]
    return tuple(draw(diagrams(q - p)) for p, q in zip(bounds, bounds[1:]))


class TestHopfLawsPastExhaustiveBound:
    """The law predicates of verify, which its batteries drive exhaustively up
    to degree 4 or 5, on cases drawn past that bound.  ``diagrams(n)`` is far
    from uniform (ROADMAP "State"): it favours diagrams with few blocks."""

    @given(graded_diagrams(3, [5, 6, 7]))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, fgh):
        assert verify._associative(*fgh)

    @given(st.integers(6, 8).flatmap(diagrams))
    @settings(max_examples=50, deadline=None)
    def test_coassociativity(self, f):
        assert verify._coassociative(f)

    @given(graded_diagrams(2, [5, 6]))
    @settings(max_examples=15, deadline=None)
    def test_bialgebra_compatibility(self, fg):
        assert verify._bialgebra_compatible(*fg)

    @given(diagrams(5))
    @settings(max_examples=10, deadline=None)
    def test_antipode_identity(self, f):
        assert verify._antipode_identities(f)
