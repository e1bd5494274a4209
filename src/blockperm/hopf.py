"""The graded Hopf algebra spanned by uniform block permutations.

Elements are finite integer combinations of diagrams, graded by n (mixed
degrees are allowed; every operation acts per homogeneous component).  The
product shuffles two diagrams side by side, the coproduct splits a diagram
at the breaking points of its codomain partition, and the antipode follows
the standard recursion available in any graded connected bialgebra.  All
coefficients stay in the integers.

Text form: signed integer terms joined by " + ", e.g.
``1*{1}->{1};{2}->{2} + -1*{1,2}->{1,2}``; tensors use " (x) " between the
two factors of each term.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from blockperm._linear import LinearCombination
from blockperm.monoid import (
    UBP,
    UniformBlockPermutation,
    breaking_points,
    compose,
    concat,
    diagram_inverse,
    elements_with_domain,
    from_permutation,
    id_of_partition,
    identity,
    left_compose_perm,
    parse_ubp,
    shuffle_factorization,
    split_at_breaking_point,
    weak_leq,
)
from blockperm.partitions import SetPartition
from blockperm.perms import shuffles


class Element(LinearCombination):
    """Integer linear combination of diagrams."""

    @classmethod
    def unit(cls) -> "Element":
        return cls.basis(identity(0))

    def degrees(self) -> set[int]:
        return {f.n for f in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()


class TensorElement(LinearCombination):
    """Integer linear combination of ordered pairs of diagrams."""

    @staticmethod
    def term_str(key) -> str:
        return f"{key[0]} (x) {key[1]}"


def product(x: Element, y: Element) -> Element:
    """Bilinear extension of f * g = sum over (p, q)-shuffles xi of
    compose(from_permutation(xi), concat(f, g))."""
    out: dict[UBP, int] = {}
    for f, a in x.terms.items():
        for g, b in y.terms.items():
            c = a * b
            h = concat(f, g)
            for xi in shuffles(f.n, g.n):
                key = left_compose_perm(xi, h)
                acc = out.get(key, 0) + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return Element(out)


def coproduct(x: Element) -> TensorElement:
    """One summand per breaking point of each term's codomain partition."""
    out: dict[tuple[UBP, UBP], int] = {}
    for f, a in x.terms.items():
        for i in breaking_points(f):
            _, left, right = split_at_breaking_point(f, i)
            key = (left, right)
            acc = out.get(key, 0) + a
            if acc:
                out[key] = acc
            else:
                del out[key]
    return TensorElement(out)


def counit(x: Element) -> int:
    """Coefficient of the empty diagram."""
    return x.coeff(identity(0))


def tensor_product(s: TensorElement, t: TensorElement) -> TensorElement:
    """Componentwise product on tensors (no signs): (a (x) b)(c (x) d) =
    (a*c) (x) (b*d)."""
    out: dict[tuple[UBP, UBP], int] = {}
    for (a, b), c1 in s.terms.items():
        for (u, v), c2 in t.terms.items():
            left = product(Element.basis(a), Element.basis(u))
            right = product(Element.basis(b), Element.basis(v))
            coeff = c1 * c2
            for f, cf in left.terms.items():
                for g, cg in right.terms.items():
                    key = (f, g)
                    acc = out.get(key, 0) + coeff * cf * cg
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
    return TensorElement(out)


@lru_cache(maxsize=None)
def _antipode_basis(f: UBP) -> Element:
    n = f.n
    if n == 0:
        return Element.basis(f)
    out = Element.basis(f, -1)
    for i in breaking_points(f):
        if i == 0 or i == n:
            continue
        _, left, right = split_at_breaking_point(f, i)
        out = out - product(_antipode_basis(left), Element.basis(right))
    return out


def antipode(x: Element) -> Element:
    """Degreewise recursion S(f) = -f - sum over proper breaking points of
    S(left) * right; integral in every degree."""
    out = Element.zero()
    for f, a in x.terms.items():
        out = out + a * _antipode_basis(f)
    return out


def pairing(x: Element, y: Element) -> int:
    """Bilinear extension of <f, g> = 1 if g is the diagram inverse of f,
    else 0.  Symmetric, since diagram inversion is an involution."""
    total = 0
    for f, a in x.terms.items():
        b = y.terms.get(diagram_inverse(f))
        if b:
            total += a * b
    return total


def tensor_pairing(s: TensorElement, t: TensorElement) -> int:
    """Factorwise pairing of tensors."""
    total = 0
    for (a, b), c1 in s.terms.items():
        key = (diagram_inverse(a), diagram_inverse(b))
        c2 = t.terms.get(key)
        if c2:
            total += c1 * c2
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
    out = Element.zero()
    for f, a in x.terms.items():
        if f.n != h.n:
            raise ValueError(f"degree mismatch: term of degree {f.n}, element of degree {h.n}")
        out = out + Element.basis(compose(f, h), a)
    return out


def _component_descending(a: SetPartition) -> list[UBP]:
    """Component of the weak order with domain ``a``, from top to bottom."""
    elems = elements_with_domain(a)
    elems.sort(key=lambda f: (-shuffle_factorization(f).shuffle.length(), f))
    return elems


def from_lower_basis(coords: Element) -> Element:
    """Expand lower-sum coordinates: each key g contributes its weak-order
    down-set within the component of its domain partition."""
    out = Element.zero()
    for g, c in coords.terms.items():
        down = Element(
            {f: c for f in elements_with_domain(g.domain) if weak_leq(f, g)}
        )
        out = out + down
    return out


def to_lower_basis(x: Element) -> Element:
    """Invert :func:`from_lower_basis` by back-substitution down each
    unitriangular component; no Mobius function is assumed."""
    coords: dict[UBP, int] = {}
    for a in sorted({f.domain for f in x.terms}):
        for g in _component_descending(a):
            c = x.coeff(g) - sum(
                ch for h, ch in coords.items() if h.top == g.top and weak_leq(g, h)
            )
            if c:
                coords[g] = c
    return Element(coords)


def from_upper_basis(coords: Element) -> Element:
    """Expand upper-sum coordinates: each key g contributes its weak-order
    up-set within its component."""
    out = Element.zero()
    for g, c in coords.terms.items():
        up = Element(
            {f: c for f in elements_with_domain(g.domain) if weak_leq(g, f)}
        )
        out = out + up
    return out


def to_upper_basis(x: Element) -> Element:
    """Invert :func:`from_upper_basis` by back-substitution up each component."""
    coords: dict[UBP, int] = {}
    for a in sorted({f.domain for f in x.terms}):
        for g in reversed(_component_descending(a)):
            c = x.coeff(g) - sum(
                ch for h, ch in coords.items() if h.top == g.top and weak_leq(h, g)
            )
            if c:
                coords[g] = c
    return Element(coords)


def ubp_counts(limit: int) -> list[int]:
    """Counts of elements per degree, 0..limit, by the closed formula."""
    from blockperm.monoid import count_ubp

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
    diagram is accepted as coefficient 1."""
    s = text.strip()
    if s == "0":
        return Element.zero()
    out = Element.zero()
    for pos, piece in enumerate(s.split(" + ")):
        if "*" in piece:
            coeff_text, _, ubp_text = piece.partition("*")
            try:
                coeff = int(coeff_text)
            except ValueError:
                raise ValueError(
                    f"term {pos}: bad coefficient {coeff_text!r} in {piece!r}"
                ) from None
        else:
            coeff, ubp_text = 1, piece
        out = out + Element.basis(parse_ubp(ubp_text), coeff)
    return out


def element_to_json(x: Element) -> list:
    from blockperm.monoid import ubp_to_json

    return [
        {"coeff": coeff, "term": ubp_to_json(f)} for f, coeff in x.sorted_terms()
    ]


def tensor_to_json(t: TensorElement) -> list:
    from blockperm.monoid import ubp_to_json

    return [
        {"coeff": coeff, "left": ubp_to_json(a), "right": ubp_to_json(b)}
        for (a, b), coeff in t.sorted_terms()
    ]
