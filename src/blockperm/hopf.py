"""The graded Hopf algebra spanned by uniform block permutations.

Elements are finite integer combinations of diagrams, graded by n (mixed
degrees are allowed; every operation acts per homogeneous component).  The
product places two diagrams side by side and shuffles them, one term per
interleaving of their two bottom rows; the coproduct splits a diagram
at the breaking points of its codomain partition, and the antipode follows
the standard recursion of a graded connected bialgebra over the reduced
coproduct (the terms whose two factors both have positive degree).  All
coefficients stay in the integers.  Product and coproduct read the terms of
each pair of diagrams and the cuts of each diagram from bounded caches.

Text form: signed integer terms joined by " + ", e.g.
``1*{1}->{1};{2}->{2} + -1*{1,2}->{1,2}``; tensors use " (x) " between the
two factors of each term.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from blockperm._linear import LinearCombination, parse_terms
from blockperm.monoid import (
    UBP,
    _cut,
    _shuffled,
    breaking_points,
    compose,
    count_ubp,
    diagram_inverse,
    elements_with_domain,
    identity,
    masked_component,
    parse_ubp,
    shuffle_mask,
    ubp_to_json,
)
from blockperm.partitions import SetPartition


class Element(LinearCombination):
    """Integer linear combination of diagrams."""

    sort_key = staticmethod(UBP._sort_key)

    @classmethod
    def unit(cls) -> "Element":
        return cls.basis(identity(0))

    def degrees(self) -> set[int]:
        return {f.n for f in self.terms}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()


class TensorElement(LinearCombination):
    """Integer linear combination of ordered pairs of diagrams."""

    @staticmethod
    def sort_key(key) -> tuple:
        return key[0]._sort_key(), key[1]._sort_key()

    @staticmethod
    def term_str(key) -> str:
        return f"{key[0]} (x) {key[1]}"


# Structure constants kept per process, one entry per basis diagram or pair:
# product terms, cuts and antipodes.  An entry holds up to C(p + q, p)
# diagrams, so the bound is in entries of that size, not ROW_CACHE_SIZE.
# `verify all --max-n 4` fills 351 product pairs and 152 cut and antipode
# entries (every diagram of degree <= 4), and the seeded request mix (seeds
# 1-10) at most 244, so none evicts; a long-lived process stays bounded.
BASIS_CACHE_SIZE = 1024

_product_terms = lru_cache(maxsize=BASIS_CACHE_SIZE)(_shuffled)


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _cuts(f: UBP) -> tuple[tuple[UBP, UBP], ...]:
    """The ``_cut`` of f at each of its breaking points, in order."""
    return tuple(_cut(f, i) for i in breaking_points(f))


def product(x: Element, y: Element) -> Element:
    """Bilinear extension of f * g = sum over (p, q)-shuffles xi of
    compose(from_permutation(xi), concat(f, g)); each xi interleaves the two
    bottom rows, f's and g's shifted, under their joined top row."""
    return Element(
        (h, a * b)
        for f, a in x.terms.items()
        for g, b in y.terms.items()
        for h in _product_terms(f, g)
    )


def coproduct(x: Element) -> TensorElement:
    """One summand per breaking point of each term's codomain: its ``_cut``."""
    return TensorElement((cut, a) for f, a in x.terms.items() for cut in _cuts(f))


def counit(x: Element) -> int:
    """Coefficient of the empty diagram."""
    return x.coeff(identity(0))


def tensor_product(s: TensorElement, t: TensorElement) -> TensorElement:
    """Componentwise product on tensors (no signs): (a (x) b)(c (x) d) =
    (a*c) (x) (b*d)."""
    return TensorElement(
        ((f, g), c1 * c2)
        for (a, b), c1 in s.terms.items()
        for (u, v), c2 in t.terms.items()
        for f in _product_terms(a, u)
        for g in _product_terms(b, v)
    )


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _antipode_basis(f: UBP) -> Element:
    if f.n == 0:
        return Element.basis(f)
    pairs = [(f, -1)]
    for left, right in _cuts(f):
        if left.n and right.n:
            pairs.extend(
                (g, -d)
                for h, d in _antipode_basis(left).terms.items()
                for g in _product_terms(h, right)
            )
    return Element(pairs)


def antipode(x: Element) -> Element:
    """Degreewise recursion S(f) = -f - sum of S(left) * right over the terms
    left (x) right of the reduced coproduct of f (both factors of positive
    degree); integral in every degree."""
    return Element(
        (g, a * c) for f, a in x.terms.items() for g, c in _antipode_basis(f).terms.items()
    )


def pairing(x: Element, y: Element) -> int:
    """Bilinear extension of <f, g> = 1 if g is the diagram inverse of f,
    else 0.  Symmetric, since diagram inversion is an involution."""
    total = 0
    for f, a in x.terms.items():
        b = y.terms.get(diagram_inverse(f))
        if b:
            total += a * b
    return total


def is_primitive(x: Element) -> bool:
    """True iff the coproduct has only the two boundary terms."""
    if not x:
        raise ValueError("zero element has no degree")
    n = x.degree()
    if n < 1:
        raise ValueError("primitivity needs degree >= 1")
    empty = identity(0)
    expected = TensorElement(
        {(f, empty): a for f, a in x.terms.items()}
    ) + TensorElement({(empty, f): a for f, a in x.terms.items()})
    return coproduct(x) == expected


def domain_class_sum(a: SetPartition) -> Element:
    """Sum, with coefficient 1, of all diagrams with domain partition ``a``.

    These sums span a right ideal of each homogeneous component: composing
    on the domain side maps the span to itself.
    """
    return Element({f: 1 for f in elements_with_domain(a)})


def right_action(x: Element, h: UBP) -> Element:
    """Compose every term with ``h`` on the domain side: f -> compose(f, h)."""
    pairs = []
    for f, a in x.terms.items():
        if f.n != h.n:
            raise ValueError(f"degree mismatch: term of degree {f.n}, element of degree {h.n}")
        pairs.append((compose(f, h), a))
    return Element(pairs)


def _expand(coords: Element, below: bool) -> Element:
    """Each key g adds its coefficient to every f of its component (the
    diagrams with g's domain partition) with f <= g if ``below``, else
    g <= f.  Keys are grouped by their top row, which names the domain."""
    by_top: dict[tuple[int, ...], list[tuple[UBP, int]]] = {}
    for g, c in coords.terms.items():
        by_top.setdefault(g.top, []).append((g, c))
    pairs = []
    for keys in by_top.values():
        component = masked_component(keys[0][0].domain)
        for g, c in keys:
            m_g = shuffle_mask(g)
            pairs.extend(
                (f, c) for m_f, f in component if (m_f & ~m_g if below else m_g & ~m_f) == 0
            )
    return Element(pairs)


def _back_substitute(x: Element, below: bool) -> Element:
    """Invert :func:`_expand` by back-substitution through each unitriangular
    component, from its top if ``below``, else from its bottom; no Mobius
    function is assumed.  Decreasing inversion count (a stable sort of the
    canonical order) is a linear extension of the reversed weak order."""
    pairs = []
    one_per_top = {f.top: f for f in x.terms}
    for a in sorted(f.domain for f in one_per_top.values()):
        component = sorted(masked_component(a), key=lambda node: -node[0].bit_count())
        solved: list[tuple[int, UBP, int]] = []
        for m_g, g in component if below else reversed(component):
            c = x.coeff(g) - sum(
                ch for m_h, _, ch in solved if (m_g & ~m_h if below else m_h & ~m_g) == 0
            )
            if c:
                solved.append((m_g, g, c))
        pairs.extend((g, c) for _, g, c in solved)
    return Element(pairs)


def from_lower_basis(coords: Element) -> Element:
    """Expand lower-sum coordinates: each key g contributes its weak-order
    down-set within the component of its domain partition."""
    return _expand(coords, below=True)


def to_lower_basis(x: Element) -> Element:
    """Invert :func:`from_lower_basis`."""
    return _back_substitute(x, below=True)


def from_upper_basis(coords: Element) -> Element:
    """Expand upper-sum coordinates: each key g contributes its weak-order
    up-set within its component."""
    return _expand(coords, below=False)


def to_upper_basis(x: Element) -> Element:
    """Invert :func:`from_upper_basis`."""
    return _back_substitute(x, below=False)


def ubp_counts(limit: int) -> list[int]:
    """Counts of elements per degree, 0..limit, by the closed formula."""
    return [count_ubp(n) for n in range(limit + 1)]


def primitive_series(limit: int) -> list[int]:
    """Dimensions of the primitive space per degree 1..limit, by exact series
    inversion of (counts series) = 1 / (1 - primitive series)."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    u = ubp_counts(limit)
    v = [0] * (limit + 1)
    for n in range(1, limit + 1):
        v[n] = u[n] - sum(v[k] * u[n - k] for k in range(1, n))
    return v[1:]


def counts_from_primitives(v: Iterable[int]) -> list[int]:
    """Recompose the per-degree counts from primitive dimensions."""
    vs = list(v)
    u = [1]
    for n in range(1, len(vs) + 1):
        u.append(sum(vs[k - 1] * u[n - k] for k in range(1, n + 1)))
    return u


def parse_element(text: str) -> Element:
    """Parse the signed-sum text form; "0" is the zero element and a bare
    diagram is accepted as coefficient 1.  Non-canonical sums are rejected
    with the canonical form in the message."""
    return parse_terms(text, parse_ubp, Element)


def element_to_json(x: Element) -> list:
    return [
        {"coeff": coeff, "term": ubp_to_json(f)} for f, coeff in x.sorted_terms()
    ]


def tensor_to_json(t: TensorElement) -> list:
    return [
        {"coeff": coeff, "left": ubp_to_json(a), "right": ubp_to_json(b)}
        for (a, b), coeff in t.sorted_terms()
    ]
