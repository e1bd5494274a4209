"""Exact verification of the tensor-power actions and their commutation.

The diagram monoid acts on the right of the n-th tensor power of an
m-dimensional space: a basis word survives iff it is constant on every
codomain block, and each block's letter is then carried to the matching
domain block.  The wreath product of a cyclic group of order r with the
symmetric group on m letters acts diagonally on the left, with the cyclic
generator scaling one coordinate by a primitive r-th root of unity.

All scalars live in the ring of integer polynomials modulo zeta^r - 1, so
every identity checked here is exact and implies the corresponding complex
statement.  Both actions are monomial: a diagram sends each word to one word
or kills it, and a group element sends each word to one word times a power
of the root.  A diagram with k blocks keeps only m^k words, one for each
choice of a letter per block, and its word map is built from those alone,
not from a scan of all m^n words.  Commutation compares these maps
directly, word targets and root exponents mod r; products and sums of
diagrams are formed on the maps too.  ``ActionMatrix`` is only the rendered
output, stored sparsely (row -> column -> scalar); a single-diagram matrix
has at most one entry per row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Sequence

from blockperm.hopf import Element
from blockperm.monoid import (
    UBP,
    enumerate_ubp,
    monoid_generators,
)
from blockperm.perms import Permutation, adjacent_transposition

DEFAULT_DIM_CEILING = 4096


@dataclass(frozen=True)
class CyclotomicInteger:
    """Integer combination of the powers 1, zeta, ..., zeta^{r-1} of an
    abstract r-th root of unity; arithmetic reduces exponents mod r."""

    coeffs: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def zero(r: int) -> "CyclotomicInteger":
        return CyclotomicInteger((0,) * r)

    @staticmethod
    def one(r: int) -> "CyclotomicInteger":
        return CyclotomicInteger((1,) + (0,) * (r - 1))

    @staticmethod
    def root_power(r: int, exponent: int) -> "CyclotomicInteger":
        coeffs = [0] * r
        coeffs[exponent % r] = 1
        return CyclotomicInteger(tuple(coeffs))

    def __add__(self, other):
        other = _promote(other, self.order)
        return CyclotomicInteger(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(tuple(other * a for a in self.coeffs))
        r = self.order
        out = [0] * r
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % r] += a * b
        return CyclotomicInteger(tuple(out))

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)


def _promote(value, r: int) -> CyclotomicInteger:
    if isinstance(value, CyclotomicInteger):
        return value
    coeffs = [0] * r
    coeffs[0] = value
    return CyclotomicInteger(tuple(coeffs))


@dataclass(frozen=True)
class GroupElement:
    """Element of the wreath product: per-coordinate root exponents followed
    by a permutation of the m coordinates."""

    torus: tuple[int, ...]
    perm: Permutation

    def __post_init__(self):
        if len(self.torus) != self.perm.n:
            raise ValueError("torus length must match the permutation size")


class ActionMatrix:
    """Sparse square matrix with rows indexed by words in lexicographic order."""

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int, rows: dict[int, dict[int, object]] | None = None):
        self.dim = dim
        self.rows = {}
        if rows:
            for i, row in rows.items():
                clean = {j: v for j, v in row.items() if v}
                if clean:
                    self.rows[i] = clean

    def __matmul__(self, other: "ActionMatrix") -> "ActionMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        rows: dict[int, dict[int, object]] = {}
        for i, row in self.rows.items():
            acc: dict[int, object] = {}
            for j, a in row.items():
                brow = other.rows.get(j)
                if not brow:
                    continue
                for k, b in brow.items():
                    prev = acc.get(k)
                    val = a * b if prev is None else prev + a * b
                    acc[k] = val
            clean = {k: v for k, v in acc.items() if v}
            if clean:
                rows[i] = clean
        out = ActionMatrix(self.dim)
        out.rows = rows
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ActionMatrix)
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def entries(self) -> list[tuple[int, int, object]]:
        return [
            (i, j, v)
            for i in sorted(self.rows)
            for j, v in sorted(self.rows[i].items())
        ]


def _check_dim(m: int, n: int) -> int:
    if m < 1:
        raise ValueError("m must be at least 1")
    dim = 1  # m**n itself may have thousands of digits: stop past the ceiling
    for _ in range(n if m > 1 else 0):
        dim *= m
        if dim > DEFAULT_DIM_CEILING:
            raise ValueError(
                f"refusing the tensor space of dimension m^n = {m}^{n} "
                f"(ceiling {DEFAULT_DIM_CEILING})"
            )
    return dim


def tensor_words(m: int, n: int) -> list[tuple[int, ...]]:
    """Words (i_1, ..., i_n) over {1..m} in lexicographic order."""
    return list(itertools.product(range(1, m + 1), repeat=n))


def word_index(word: Iterable[int], m: int) -> int:
    idx = 0
    for letter in word:
        idx = idx * m + (letter - 1)
    return idx


def ubp_word_action(f: UBP, word: Sequence[int]) -> tuple[int, ...] | None:
    """Right action of a diagram on a basis word.

    The word survives iff it is constant on every codomain block, i.e. on
    the positions sharing a label of ``f.bot``; the result carries each
    block's letter back to the domain block through the block bijection
    (position t receives the letter of label ``f.top[t - 1]``)."""
    letters: dict[int, int] = {}
    for letter, label in zip(word, f.bot):
        if letters.setdefault(label, letter) != letter:
            return None
    return tuple(map(letters.__getitem__, f.top))


def _kept_words(f: UBP, m: int) -> tuple[list[int], list[int]]:
    """Indices of the m^k words that ``f`` keeps and, in the same order, of
    their images.  A kept word is a choice of letter for each of the k
    labels: the letter counts m^(n-1-j) in the word's index for every bottom
    position j with that label, and in the image's for every top position."""
    source, target = [0] * f.n, [0] * f.n  # labels are below n
    power = 1
    for a, b in zip(reversed(f.top), reversed(f.bot)):
        target[a] += power
        source[b] += power
        power *= m
    words, images = [0], [0]
    for s, t in zip(source, target):
        if s:
            words = [w + d for w in words for d in range(0, m * s, s)]
            images = [w + d for w in images for d in range(0, m * t, t)]
    return words, images


def _diagram_targets(f: UBP, m: int) -> list[int]:
    """Index of the image of each word under the right action of ``f``, or
    -1 where ``f`` kills the word; the caller checks the dimension."""
    out = [-1] * m**f.n
    for i, j in zip(*_kept_words(f, m)):
        out[i] = j
    return out


def _map_product(a: list[int], b: list[int]) -> list[int]:
    """Word map of the matrix product A @ B: row k goes to b[a[k]], or is
    killed (-1) where either map kills it."""
    return [-1 if j < 0 else b[j] for j in a]


def ubp_action_matrix(f: UBP, m: int) -> ActionMatrix:
    """Matrix of the right action on words; at most one entry per row."""
    out = ActionMatrix(_check_dim(m, f.n))
    out.rows = {i: {j: 1} for i, j in zip(*_kept_words(f, m))}
    return out


def element_action_matrix(x: Element, m: int) -> ActionMatrix:
    """Action matrix of a linear combination of diagrams of equal degree."""
    dim = _check_dim(m, x.degree())
    rows: dict[int, dict[int, object]] = {}
    for f, c in x.terms.items():
        for i, j in zip(*_kept_words(f, m)):
            acc = rows.setdefault(i, {})
            acc[j] = acc.get(j, 0) + c
    return ActionMatrix(dim, rows)  # drops the entries that cancel to 0


def _group_map(g: GroupElement, n: int, m: int) -> tuple[list[int], list[int]]:
    """Index of the image of each degree-n word under ``g`` and the exponent
    of the root of unity it picks up, summed over the letters and not
    reduced; built one position at a time, the last letter varying fastest."""
    digits = [image - 1 for image in g.perm.images]
    targets, exponents = [0], [0]
    for _ in range(n):
        targets = [t * m + d for t in targets for d in digits]
        exponents = [e + z for e in exponents for z in g.torus]
    return targets, exponents


def group_generators(m: int) -> list[GroupElement]:
    """One torus generator per coordinate plus the adjacent transpositions."""
    gens = []
    for l in range(m):
        torus = tuple(1 if t == l else 0 for t in range(m))
        gens.append(GroupElement(torus, Permutation.identity(m)))
    for j in range(1, m):
        gens.append(GroupElement((0,) * m, adjacent_transposition(m, j)))
    return gens


def commutation_pairs(n: int, m: int, r: int) -> Iterator[tuple[int, int, bool]]:
    """Yield (i, j, commutes) for the i-th monoid generator and the j-th
    group generator acting on the degree-n tensor space, in generator order;
    below degree 2 there are no monoid generators and no pairs.

    The generators' word maps are compared instead of their matrices being
    multiplied.  The monomials 1, zeta, ..., zeta^{r-1} are a basis of the
    scalar ring, so two root powers agree exactly when their exponents agree
    mod r."""
    _check_dim(m, n)
    if r < 1:  # checked here too: below degree 2 no group map is built
        raise ValueError("r must be at least 1")
    diagrams, groups = _commutation_maps(n, m)
    for i, a in enumerate(diagrams):
        for j, (b, e) in enumerate(groups):
            yield i, j, _commutes(a, b, e, r)


def _commutation_maps(
    n: int, m: int
) -> tuple[list[list[int]], list[tuple[list[int], list[int]]]]:
    """The word maps of the monoid generators and of the group generators on
    the degree-n tensor space, which do not depend on the root order; no
    group map is built when there is no monoid generator.  The caller checks
    the dimension."""
    if n < 0:
        raise ValueError("n must be non-negative")
    diagrams = [_diagram_targets(f, m) for f in monoid_generators(n)]
    groups = [_group_map(g, n, m) for g in group_generators(m)] if diagrams else []
    return diagrams, groups


def _commutes(a: list[int], b: list[int], e: list[int], r: int) -> bool:
    """Whether the diagram map ``a`` commutes with the group map ``(b, e)``.

    Rendered as matrices, A @ B sends row k to column b[a[k]] with exponent
    e[a[k]], and B @ A sends it to column a[b[k]] with exponent e[k].  Every
    row of B has its entry, so B @ A kills row k exactly when a[b[k]] is -1."""
    for k, ak in enumerate(a):
        if ak < 0:
            if a[b[k]] >= 0:
                return False
        elif b[ak] != a[b[k]] or (e[ak] - e[k]) % r:
            return False
    return True


def exact_sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over the rationals of integer vectors given as sparse dicts,
    by fraction-free elimination with gcd normalization."""
    pivots: list[tuple[int, dict[int, int]]] = []
    rank = 0
    for row in rows:
        current = dict(row)
        for col, pivot_row in pivots:
            coeff = current.get(col)
            if not coeff:
                continue
            lead = pivot_row[col]
            merged: dict[int, int] = {c: lead * v for c, v in current.items()}
            for c, v in pivot_row.items():
                val = merged.get(c, 0) - coeff * v
                if val:
                    merged[c] = val
                else:
                    merged.pop(c, None)
            current = merged
        if current:
            g = 0
            for v in current.values():
                g = gcd(g, v)
            if g > 1:
                current = {c: v // g for c, v in current.items()}
            pivots.append((min(current), current))
            rank += 1
    return rank


def action_span_rank(n: int, m: int) -> int:
    """Rank of the span of all degree-n diagram action matrices, flattened
    to integer vectors.  Equals the monoid size whenever m >= 2n (the
    injectivity half of the centralizer statement); below that threshold the
    rank may drop and is only reported."""
    dim = _check_dim(m, n)
    return exact_sparse_rank(
        {i * dim + j: 1 for i, j in zip(*_kept_words(f, m))} for f in enumerate_ubp(n)
    )


def convolution_action(f: UBP, g: UBP, m: int) -> ActionMatrix:
    """Degree-(p+q) block of (multiply) o (f tensor g) o (unshuffle coproduct)
    on the tensor algebra.

    The coproduct splits a word over every subset of positions (the
    multiplicative extension of v -> v (x) 1 + 1 (x) v); the product
    concatenates.  The result coincides with the action matrix of the Hopf
    product of f and g.

    Only the splits that f and g both keep contribute: a letter for each
    label of f's bottom row and of g's, placed on a p-subset of positions and
    on its complement.  The image does not depend on the subset.
    """
    p, q = f.n, g.n
    n = p + q
    dim = _check_dim(m, n)
    k = max(f.bot, default=-1) + 1  # f's labels are 0..k-1; g's follow, shifted by k
    choices = []  # (letter of each label, index of the image)
    for letters in tensor_words(m, k + max(g.bot, default=-1) + 1):
        left = ubp_word_action(f, [letters[a] for a in f.bot])
        right = ubp_word_action(g, [letters[k + b] for b in g.bot])
        choices.append((letters, word_index(left + right, m)))
    rows: dict[int, dict[int, object]] = {}
    for subset in itertools.combinations(range(n), p):
        slot = [0] * n  # the label whose letter each position of the word carries
        rest = [t for t in range(n) if t not in subset]
        for t, a in zip(subset, f.bot):
            slot[t] = a
        for t, b in zip(rest, g.bot):
            slot[t] = k + b
        for letters, j in choices:
            acc = rows.setdefault(word_index([letters[s] for s in slot], m), {})
            acc[j] = acc.get(j, 0) + 1
    out = ActionMatrix(dim)
    out.rows = rows
    return out
