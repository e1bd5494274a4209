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
from typing import Iterable, Iterator

from blockperm._linear import LinearCombination, parse_terms
from blockperm.monoid import (
    UBP,
    _check_ceiling,
    _cut,
    _matched_positions,
    breaking_points,
    compose,
    concat,
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
from blockperm.perms import _interleavings


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
        if not degs:
            raise ValueError("zero element has no degree")
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


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _product_terms(f: UBP, g: UBP) -> tuple[UBP, ...]:
    """The terms of f * g in the order of ``shuffles(f.n, g.n)``: concat(f, g)
    with f's part of its bottom row interleaved with g's, top row kept.  The
    labels of the two parts differ, so the terms are distinct."""
    h = concat(f, g)
    return tuple(UBP._trusted(h.top, bot) for bot in _interleavings(h.bot[:f.n], h.bot[f.n:]))


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
    if x.degree() < 1:
        raise ValueError("primitivity needs degree >= 1")
    empty = identity(0)
    ends = [(pair, a) for f, a in x.terms.items() for pair in ((f, empty), (empty, f))]
    return coproduct(x) == TensorElement(ends)


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
    diagrams with g's domain partition) with f <= g if ``below``, else g <= f,
    by containment of the component's masks.  Keys are grouped by top row."""
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


def _inverse_terms(x: Element, below: bool) -> Iterator[tuple[UBP, int]]:
    """The terms of the inverse of :func:`_expand`, by the weak order's Mobius
    function (Bjorner 1984): (-1)^|J| g_J for each set J of g's left descents i,
    xi^{-1}(i) > xi^{-1}(i + 1) (ascents if not ``below``), where g_J reverses g's
    bottom row on a - 1..b for each maximal run a..b of J.  A component is a lower
    ideal, so it holds g_J iff g_J is a block shuffle: iff no run repeats a label."""
    for g, c in x.terms.items():
        _check_ceiling(g.n)
        w = _matched_positions(g.bot, g.top)  # w[i - 1] = xi^{-1}(i)
        free = [i for i in range(1, g.n) if (w[i - 1] > w[i]) == below]
        for s in range(1 << len(free)):
            J = [i for k, i in enumerate(free) if s >> k & 1]
            bot = list(g.bot)
            for a, b in zip([i for i in J if i - 1 not in J], [i for i in J if i + 1 not in J]):
                if len(set(bot[a - 1:b + 1])) < b - a + 2:
                    break
                bot[a - 1:b + 1] = reversed(bot[a - 1:b + 1])
            else:
                yield UBP._trusted(g.top, tuple(bot)), -c if len(J) % 2 else c


def from_lower_basis(coords: Element) -> Element:
    """Expand lower-sum coordinates: each key g contributes its weak-order
    down-set within the component of its domain partition."""
    return _expand(coords, below=True)


def to_lower_basis(x: Element) -> Element:
    """Invert :func:`from_lower_basis`: 2^|left descents| terms per diagram."""
    return Element(_inverse_terms(x, below=True))


def from_upper_basis(coords: Element) -> Element:
    """Expand upper-sum coordinates: each key g contributes its weak-order
    up-set within its component."""
    return _expand(coords, below=False)


def to_upper_basis(x: Element) -> Element:
    """Invert :func:`from_upper_basis`."""
    return Element(_inverse_terms(x, below=False))


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
