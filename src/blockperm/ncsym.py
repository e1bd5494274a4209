"""Symmetric functions in non-commuting variables on the power-sum basis.

An element is an integer combination of set partitions, where the partition
``a`` stands for the series summing every word whose letters are constant
on each block of ``a`` (equivalently: words whose kernel coarsens to ``a``).
The series themselves are never materialized; :func:`power_sum_words` gives
the finite-alphabet truncation used as an oracle by the tests.

The assignment (partition a) -> (sum of all diagrams with domain a) is an
isomorphism onto the span of those sums inside the diagram Hopf algebra;
:func:`to_element` and :func:`from_element` move across it.

Text form: "p" followed by the partition, e.g. ``2*p{1,2} + 1*p{1,3}{2,4}``.
"""

from __future__ import annotations

import itertools
import math

from blockperm._linear import LinearCombination, parse_terms
from blockperm.hopf import Element, domain_class_sum
from blockperm.monoid import elements_with_domain
from blockperm.partitions import (
    SetPartition,
    cross,
    parse_set_partition,
    restrict_standardize,
)

Word = tuple[int, ...]


class NCSymElement(LinearCombination):
    """Integer combination of set partitions (power-sum coordinates)."""

    @classmethod
    def unit(cls) -> "NCSymElement":
        return cls.basis(SetPartition(0, ()))

    @staticmethod
    def term_str(key) -> str:
        return f"p{key}"


class NCSymTensor(LinearCombination):
    """Integer combination of ordered pairs of set partitions."""

    @staticmethod
    def term_str(key) -> str:
        return f"p{key[0]} (x) p{key[1]}"


def power_sum_words(a: SetPartition, alphabet_size: int) -> list[Word]:
    """All words over {1..alphabet_size} of length a.n whose letters are
    constant on every block of ``a``; exactly alphabet_size**(number of
    blocks) of them, in lexicographic order."""
    if alphabet_size < 1:
        raise ValueError("alphabet size must be at least 1")
    labels = a.position_labels()
    out = []
    for assignment in itertools.product(
        range(1, alphabet_size + 1), repeat=a.num_blocks
    ):
        out.append(tuple(assignment[label] for label in labels))
    out.sort()
    return out


def p_product(u: NCSymElement, v: NCSymElement) -> NCSymElement:
    """Bilinear extension of p_a p_b = p over the side-by-side partition."""
    return NCSymElement(
        (cross(a, b), ca * cb) for a, ca in u.terms.items() for b, cb in v.terms.items()
    )


def p_coproduct(u: NCSymElement) -> NCSymTensor:
    """Sum over all splits of the blocks into two complementary sets, each
    side standardized down to an initial segment."""
    pairs = []
    for a, c in u.terms.items():
        k = a.num_blocks
        for bits in itertools.product((False, True), repeat=k):
            left = restrict_standardize(a, [i for i in range(k) if bits[i]])
            right = restrict_standardize(a, [i for i in range(k) if not bits[i]])
            pairs.append(((left, right), c))
    return NCSymTensor(pairs)


def to_element(u: NCSymElement) -> Element:
    """Send each partition coordinate to the sum of diagrams with that domain."""
    return Element((f, c) for a, c in u.terms.items() for f in elements_with_domain(a))


def from_element(x: Element) -> NCSymElement:
    """Inverse of :func:`to_element` on its image.

    Raises ValueError, reporting the residual, if ``x`` is not in the span
    of the domain-class sums (EnumerationCeilingError above the ceiling).
    """
    by_top: dict[tuple[int, ...], dict] = {}
    for f, c in x.terms.items():
        by_top.setdefault(f.top, {})[f] = c
    by_domain = sorted((next(iter(chunk)).domain, chunk) for chunk in by_top.values())
    coords: dict[SetPartition, int] = {}
    for a, chunk in by_domain:
        coeffs = set(chunk.values())
        # The chunk has domain a, so it is the whole domain class iff it has
        # one diagram per block shuffle of a: n!/(product of |b|!) of them.
        size = math.factorial(a.n)
        for block in a.blocks:
            size //= math.factorial(len(block))
        if len(coeffs) == 1 and len(chunk) == size:
            coords[a] = coeffs.pop()
        else:
            got = Element(chunk)
            c = min(chunk.values(), key=abs)
            residual = got - c * domain_class_sum(a)
            raise ValueError(
                f"not in the span of domain-class sums: residual {residual} "
                f"on domain {a}"
            )
    return NCSymElement(coords)


def _parse_p_token(text: str) -> SetPartition:
    token = text.strip()
    if not token.startswith("p"):
        raise ValueError(f"expected a p{{...}} token, got {token!r}")
    return parse_set_partition(token[1:])


def parse_p_element(text: str) -> NCSymElement:
    """Parse the p-basis text form, e.g. "-1*p{1,2} + 1*p{1,3}{2,4}";
    non-canonical sums are rejected with the canonical form in the message."""
    return parse_terms(text, _parse_p_token, NCSymElement)
