"""The monoid of uniform block permutations of [n].

An element is a bijection between the blocks of two set partitions of [n]
(the domain and the codomain) matching blocks of equal size.  Diagrams are
drawn with the domain on top; ``compose(g, f)`` glues the bottom of f's
diagram to the top of g's and means "apply f first, then g".  Consequences
of this orientation, all covered by tests:

* ``compose(from_permutation(sigma), f)`` relabels only the codomain side;
* ``compose(f, from_permutation(sigma))`` has domain ``sigma^{-1}(dom f)``;
* ``id_of_partition(a) . id_of_partition(b) == id_of_partition(meet(a, b))``.

An element is the tuple of the canonical label rows of its diagram (the
encoding of :mod:`blockperm._glue_py`), which every operation here reads and
writes; the partition form (domain, codomain, block map) is derived on request.

Text form: domain-ordered block arrows joined by ";", e.g.
``{1,3}->{1,2};{2}->{3}``; the empty diagram (n = 0) prints as ``{}->{}``.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

from blockperm._glue_py import canonical_labels, glue_labels
from blockperm.partitions import (
    ROW_CACHE_SIZE,
    PartitionType,
    SetPartition,
    _block_text,
    block_shuffles,
    count_of_type,
    set_partitions,
)
from blockperm.perms import _INT, Permutation, _inversion_mask
from blockperm.perms import adjacent_transposition

DEFAULT_CEILING = 6


class EnumerationCeilingError(RuntimeError):
    """Raised when an enumeration would exceed the configured size ceiling."""


def enumeration_ceiling() -> int:
    """Default ceiling on n for full enumerations of the monoid; override
    with the BLOCKPERM_CEILING environment variable."""
    raw = os.environ.get("BLOCKPERM_CEILING")
    if raw is None:
        return DEFAULT_CEILING
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"BLOCKPERM_CEILING must be an integer, got {raw!r}") from None


def _check_ceiling(n: int) -> None:
    if n < 0:
        raise ValueError("n must be non-negative")
    limit = enumeration_ceiling()
    if n > limit:
        raise EnumerationCeilingError(
            f"refusing to enumerate at n={n}: ceiling is {limit} "
            "(raise it explicitly or via BLOCKPERM_CEILING)"
        )


class UniformBlockPermutation(tuple):
    """A size-preserving bijection between the blocks of two partitions.

    The value is the pair of label rows ``(top, bot)``: ``top[i]`` is the
    index of the domain block containing i + 1, and ``bot[j]`` the index of
    the domain block whose image contains j + 1.  Domain blocks are numbered
    in canonical order, so labels first appear along ``top`` in increasing
    order.  An element equals and orders only against another element, never
    against the plain tuple of its rows.  Hashing is ``tuple.__hash__``.  It
    and the validation method ``__post_init__`` are named in the class body
    so that a tracer (``perfbench/tracing.py``) can wrap both.

    The constructor validates the rows, and so does every path that takes
    rows from outside the package (:func:`from_labels`, the parsers,
    unpickling).  Only :meth:`_trusted` skips the check.  The producers here
    call it on rows that are canonical and uniform by construction from
    valid elements: the glue kernel and ``canonical_labels`` number labels by
    first appearance along the top row, and permuting the bottom row or
    shifting the labels of a right-hand factor keeps both rows canonical with
    equal label counts.  :attr:`domain` and :attr:`codomain` pass the fibres
    of a valid row to ``SetPartition._trusted`` in the same way.

    Elements sort as the tuple ``(domain, codomain, block_map)``, where
    ``block_map[k]`` is the index, in canonical block order of the codomain,
    of the image of the k-th domain block.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__
    top = property(itemgetter(0))
    bot = property(itemgetter(1))

    def __new__(cls, top: tuple[int, ...], bot: tuple[int, ...]) -> UniformBlockPermutation:
        self = tuple.__new__(cls, (top, bot))
        self.__post_init__()
        return self

    def __post_init__(self):
        top, bot = self
        if type(top) is not tuple or type(bot) is not tuple:
            raise TypeError("label rows must be tuples")
        labels = list(dict.fromkeys(top))
        if (
            not _INT.issuperset(map(type, top + bot))  # 1.0 and True equal 1
            or labels != list(range(len(labels)))
            or sorted(top) != sorted(bot)
        ):
            _reject(top, bot)

    @classmethod
    def _trusted(cls, top: tuple[int, ...], bot: tuple[int, ...]) -> UniformBlockPermutation:
        """Unvalidated: only for canonical, uniform rows built in the package."""
        return tuple.__new__(cls, (top, bot))

    def __reduce__(self):
        return (type(self), tuple(self))  # through the constructor: validated

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(top={self[0]!r}, bot={self[1]!r})"

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    def _sort_key(self) -> tuple:
        """(n, domain blocks, codomain blocks, block map), from row caches."""
        top, bot = self
        return (len(top), _fibres(top)) + _codomain_key(bot)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            raise TypeError(f"cannot order {type(self).__name__} and {type(other).__name__}")
        top, bot = self
        other_top, other_bot = other
        if top != other_top:
            return (len(top), _fibres(top)) < (len(other_top), _fibres(other_top))
        return _codomain_key(bot) < _codomain_key(other_bot)

    def __gt__(self, other):
        return UBP.__lt__(other, self)

    def __le__(self, other):
        return not UBP.__lt__(other, self)

    def __ge__(self, other):
        return not UBP.__lt__(self, other)

    @property
    def n(self) -> int:
        return len(self[0])

    @property
    def domain(self) -> SetPartition:
        return SetPartition._trusted(len(self[0]), _fibres(self[0]))

    @property
    def codomain(self) -> SetPartition:
        return SetPartition._trusted(len(self[1]), _codomain_key(self[1])[0])

    def is_permutation(self) -> bool:
        """True iff all blocks are singletons."""
        return len(set(self.top)) == len(self.top)

    def to_permutation(self) -> Permutation:
        if not self.is_permutation():
            raise ValueError("not a permutation: has a block of size > 1")
        return shuffle_factorization(self)  # the domain is discrete: f == xi

    def __str__(self) -> str:
        top, bot = self
        arrows = zip(_fibres(top), _fibres(bot))
        text = ";".join(_block_text(dom) + "->" + _block_text(cod) for dom, cod in arrows)
        return text or "{}->{}"


UBP = UniformBlockPermutation


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _fibres(row: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """fibres[label] = the positions 1..n carrying that label, increasing."""
    out: list[list[int]] = [[] for _ in range(max(row, default=-1) + 1)]
    for pos, label in enumerate(row, start=1):
        out[label].append(pos)
    return tuple(map(tuple, out))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _codomain_key(bot: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(codomain blocks in canonical order, block map) of a bottom row: the
    half of the sort key that does not depend on the top row.  Numbering the
    labels by first appearance orders their blocks by their minima, so that
    numbering is the block map and the renumbered row's fibres are the blocks."""
    row, block_map = canonical_labels(bot, range(len(set(bot))))
    return _fibres(row), block_map


def _reject(top: tuple, bot: tuple) -> None:
    """Raise ValueError naming the first defect of rows that failed the
    quick check in ``UniformBlockPermutation.__post_init__``."""
    if len(top) != len(bot):
        raise ValueError(f"label rows of unequal length: top {top!r}, bottom {bot!r}")
    for side, row in (("top", top), ("bottom", bot)):
        for label in row:
            if type(label) is not int:
                raise ValueError(f"{side} label {label!r} in {row!r} is not an int")
    excess: dict = {}
    for label in top:
        if label not in excess and label != len(excess):
            raise ValueError(
                f"top row {top!r} is not canonical: label {label!r} is out of "
                "range or out of first-appearance order"
            )
        excess[label] = excess.get(label, 0) + 1
    for label in bot:
        if label not in excess:
            raise ValueError(f"bottom label {label!r} does not occur in the top row {top!r}")
        excess[label] -= 1
    for label, count in excess.items():
        if count:
            dom = tuple(i for i, x in enumerate(top, start=1) if x == label)
            cod = tuple(j for j, x in enumerate(bot, start=1) if x == label)
            raise ValueError(f"non-uniform: block {dom} maps to {cod}")
    raise ValueError(f"invalid label rows {top!r}, {bot!r}")


def from_block_images(n: int, arrows: Iterable[tuple[Iterable[int], Iterable[int]]]) -> UBP:
    """Build an element from (domain block, image block) pairs in any order."""
    pairs = [(tuple(sorted(d)), tuple(sorted(c))) for d, c in arrows]
    pairs.sort(key=lambda p: p[0][0] if p[0] else 0)
    # Both sides must be partitions of [n]; from_blocks says what is wrong.
    SetPartition.from_blocks(n, [d for d, _ in pairs])
    SetPartition.from_blocks(n, [c for _, c in pairs])
    top = [0] * n
    bot = [0] * n
    for label, (dom, cod) in enumerate(pairs):
        for i in dom:
            top[i - 1] = label
        for j in cod:
            bot[j - 1] = label
    return UBP(tuple(top), tuple(bot))


def identity(n: int) -> UBP:
    """All-singletons identity element."""
    top = tuple(range(n))
    return UBP(top, top)


def id_of_partition(a: SetPartition) -> UBP:
    """The identity map on the blocks of ``a``; idempotent."""
    top = a.position_labels()
    return UBP(top, top)


def from_permutation(sigma: Permutation) -> UBP:
    """View a permutation as an element with all blocks singletons."""
    bot = [0] * sigma.n
    for label, image in enumerate(sigma.images):
        bot[image - 1] = label
    return UBP(tuple(range(sigma.n)), tuple(bot))


def transposition_generator(n: int, i: int) -> UBP:
    """The adjacent transposition of i and i+1, as a diagram."""
    return from_permutation(adjacent_transposition(n, i))


def merge_generator(n: int, i: int) -> UBP:
    """The idempotent joining {i, i+1} on both rows, all else singletons."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"merge generator index {i} out of range for n={n}")
    blocks = [(j,) for j in range(1, i)] + [(i, i + 1)] + [(j,) for j in range(i + 2, n + 1)]
    return id_of_partition(SetPartition(n, tuple(blocks)))


def to_labels(f: UBP) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical label rows (top = domain side, bottom = codomain side): the
    value of f itself.  Component ids are domain-block indices; the encoding
    is the one the composition kernel operates on."""
    return f.top, f.bot


def from_labels(n: int, top: Sequence[int], bot: Sequence[int]) -> UBP:
    """Inverse of :func:`to_labels`; rejects rows that are not canonical
    label rows of a diagram on [n]."""
    f = UBP(tuple(top), tuple(bot))
    if f.n != n:
        raise ValueError(f"label rows have length {f.n}, not {n}")
    return f


def compose(g: UBP, f: UBP) -> UBP:
    """The product g.f: apply f first, then g (f's diagram on top).

    >>> str(compose(merge_generator(3, 1), merge_generator(3, 2)))
    '{1,2,3}->{1,2,3}'
    >>> compose(merge_generator(2, 1), transposition_generator(2, 1)) == merge_generator(2, 1)
    True
    """
    if len(f.top) != len(g.top):
        raise ValueError(f"size mismatch: {g.n} vs {f.n}")
    return UBP._trusted(*glue_labels(f.top, f.bot, g.top, g.bot))


def left_compose_perm(sigma: Permutation, f: UBP) -> UBP:
    """compose(from_permutation(sigma), f): relabels the codomain side only."""
    if sigma.n != f.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {f.n}")
    bot = f.bot
    new_bot = [0] * f.n
    for j, image in enumerate(sigma.images):
        new_bot[image - 1] = bot[j]
    return UBP._trusted(f.top, tuple(new_bot))


def _swapped(row: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The row with its labels at positions k and k + 1 swapped."""
    out = list(row)
    out[k - 1], out[k] = out[k], out[k - 1]
    return tuple(out)


def diagram_inverse(f: UBP) -> UBP:
    """Swap domain and codomain and invert the block bijection.

    This is the unique inverse-monoid partner of f: f.finv.f == f and
    finv.f.finv == finv; on permutations it is the group inverse.
    """
    return _inverse(f)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _inverse(f: UBP) -> UBP:
    """Both rows swapped and relabelled by first appearance along f's bottom row."""
    return UBP._trusted(*canonical_labels(f.bot, f.top))


def concat(f: UBP, g: UBP) -> UBP:
    """Place g's diagram, shifted by f.n, to the right of f's."""
    shift = max(f.top, default=-1) + 1
    return UBP._trusted(
        f.top + tuple(label + shift for label in g.top),
        f.bot + tuple(label + shift for label in g.bot),
    )


def enumerate_ubp(n: int) -> list[UBP]:
    """All elements on [n], each once, in canonical order: the weak-order
    components in the order of their domains."""
    _check_ceiling(n)
    return [f for a in set_partitions(n) for f in elements_with_domain(a)]


def elements_with_domain(a: SetPartition) -> list[UBP]:
    """All elements with the given domain partition, in canonical order.

    Each one factors uniquely as f = xi . id_of_partition(a) with xi a block
    shuffle of a; :func:`shuffle_factorization` returns that xi.  Like a full
    enumeration, it is refused above the ceiling.
    """
    return [f for _, f in masked_component(a)]


def masked_component(a: SetPartition) -> tuple[tuple[int, UBP], ...]:
    """The pairs (shuffle_mask(f), f) for f in :func:`elements_with_domain`,
    in the same order; refused above the ceiling like it."""
    _check_ceiling(a.n)  # outside the cache: a hit must not skip the refusal
    return _component(a)


# Weak-order components kept per process, one per domain partition.  `verify
# all --max-n 4` fills 24 entries (every partition of degree <= 4) and the
# seeded request mix (seed 1) 55.  All 279 partitions of degree <= 6 fit, so
# none of these evicts, and a long-lived process stays bounded.
COMPONENT_CACHE_SIZE = 512


@lru_cache(maxsize=COMPONENT_CACHE_SIZE)
def _component(a: SetPartition) -> tuple[tuple[int, UBP], ...]:
    ida = id_of_partition(a)
    nodes = sorted((left_compose_perm(xi, ida) for xi in block_shuffles(a)), key=UBP._sort_key)
    return tuple((shuffle_mask(f), f) for f in nodes)


def monoid_generators(n: int) -> list[UBP]:
    """The transpositions s_1..s_{n-1}, then the merges b_1..b_{n-1}."""
    gens = [transposition_generator(n, i) for i in range(1, n)]
    gens += [merge_generator(n, i) for i in range(1, n)]
    return gens


def closure_from_generators(n: int) -> list[UBP]:
    """The closure of the identity under the transpositions s_i and the
    merges b_i, found by reverse search; equals enumerate_ubp(n), in the same
    order.

    Every x other than the identity has one *parent* y, with y.bot ascending
    at some i (``y.bot[i - 1] < y.bot[i]``) and x == s_i y or x == b_i y:

    * if x.bot has a descent, let i be the first; y = s_i x swaps the two
      labels back (see :func:`_swapped`), so y ascends at i;
    * otherwise x.bot is weakly increasing with a repeat, as only the
      identity has distinct labels; let i be the first repeat, so x.bot[i - 1]
      and x.bot[i] both read a label l whose codomain block starts at i.
      y splits domain block l into its least element, sent to position i,
      and the rest, sent to the rest of that codomain block.  The least
      element keeps the smaller label, so y ascends at i, and b_i y == x.

    Each step to a parent lowers (n - #blocks, inversions of bot)
    lexicographically, so every chain of parents ends at the identity.  The
    search starts there and from each y emits exactly the x whose parent is
    y (Avis and Fukuda, Discrete Appl. Math. 65, 1996), so each element is
    built once and nothing is looked up.  At an ascent i of y:

    * s_i y is a child when i is the first descent of s_i y: y.bot[:i - 1]
      is weakly increasing and, for i >= 2, y.bot[i - 2] <= y.bot[i];
    * b_i y is a child when the label lo = y.bot[i - 1] occurs once in y.bot,
      and writing lo for hi = y.bot[i] gives a weakly increasing row whose
      first repeat is at i.  This is decided on the rows; only the B_n - 1
      accepted merges go through :func:`compose`.

    The search keeps row pairs and groups the bottom rows by top row; it sorts
    no per-element keys.  Elements sort by (_fibres(top), _codomain_key(bot))
    and each half determines its row, so that order lists the top rows sorted
    by fibres, each with its bottom rows by their rank among all distinct
    bottom rows sorted once by ``_codomain_key`` (distinct keys: no ties)."""
    _check_ceiling(n)
    merges = [merge_generator(n, i) for i in range(1, n)]
    found: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    stack = [(tuple(range(n)),) * 2]  # the identity
    while stack:
        top, bot = stack.pop()
        found.setdefault(top, []).append(bot)
        rising = True  # bot[:i] strictly increasing
        for i in range(1, n):
            lo, hi = bot[i - 1], bot[i]
            if lo < hi:
                if i < 2 or bot[i - 2] <= hi:
                    stack.append((top, _swapped(bot, i)))
                if rising and bot.count(lo) == 1:
                    rest = [lo if v == hi else v for v in bot[i:]]
                    if rest == sorted(rest):
                        stack.append(compose(merges[i - 1], UBP._trusted(top, bot)))
            else:
                rising = False
            if i >= 2 and bot[i - 2] > lo:
                break  # bot[:i] has a descent: no child at i + 1 or later
    bots = sorted({bot for rows in found.values() for bot in rows}, key=_codomain_key)
    rank = dict(zip(bots, range(len(bots))))
    return [
        UBP._trusted(top, bot)
        for top in sorted(found, key=_fibres)
        for bot in sorted(found[top], key=rank.__getitem__)
    ]


def _integer_partition_multiplicities(n: int) -> list[tuple[int, ...]]:
    """Multiplicity vectors (m_1..m_n) of all integer partitions of n."""
    out: list[tuple[int, ...]] = []
    mult = [0] * n

    def descend(remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(tuple(mult))
            return
        for part in range(min(remaining, max_part), 0, -1):
            mult[part - 1] += 1
            descend(remaining - part, part)
            mult[part - 1] -= 1

    descend(n, n)
    return out


def count_ubp(n: int) -> int:
    """Closed-form count: sum over types of (number of partitions of that
    type) squared times the block bijections within each size class."""
    if n < 0:
        raise ValueError("n must be non-negative")
    total = 0
    for mult in _integer_partition_multiplicities(n):
        per_type = count_of_type(PartitionType(mult))
        bijections = 1
        for m in mult:
            bijections *= math.factorial(m)
        total += per_type * per_type * bijections
    return total


def count_ubp_recursive(n: int) -> int:
    """Count via u_{k+1} = sum_j C(k, j) C(k+1, j) u_j with u_0 = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    u = [1]
    for k in range(n):
        u.append(sum(math.comb(k, j) * math.comb(k + 1, j) * u[j] for j in range(k + 1)))
    return u[n]


def breaking_points(f: UBP) -> tuple[int, ...]:
    """All i in {0..n} such that {1..i} is a union of codomain blocks, i.e.
    no label occurs both in ``bot[:i]`` and in ``bot[i:]``.

    0 and n are always breaking points; for a permutation every i is.

    >>> breaking_points(parse_ubp("{1,3}->{1,2};{2}->{3}"))
    (0, 2, 3)
    """
    last = {label: j for j, label in enumerate(f.bot, start=1)}
    out = [0]
    reach = 0  # last position of any label seen so far
    for j, label in enumerate(f.bot, start=1):
        if last[label] > reach:
            reach = last[label]
        if reach == j:
            out.append(j)
    return tuple(out)


def split_at_breaking_point(f: UBP, i: int) -> tuple[Permutation, UBP, UBP]:
    """Factor f through the breaking point i.

    Returns (xi, left, right) where (left, right) is :func:`_cut` of f at i
    and xi is the unique (i, n-i)-shuffle with

        f == compose(concat(left, right), from_permutation(xi.inverse()))

    Uniqueness of xi among the (i, n-i)-shuffles is checked exhaustively in
    the test suite rather than assumed.
    """
    prefix = set(f.bot[:i])  # sliced first, so a non-int i raises TypeError
    if i not in breaking_points(f):
        raise ValueError(f"{i} is not a breaking point of {f}")
    xi = sorted(range(1, f.n + 1), key=lambda t: f.top[t - 1] not in prefix)  # preimage first
    return Permutation(tuple(xi)), *_cut(f, i)


def _cut(f: UBP, i: int) -> tuple[UBP, UBP]:
    """The standardized restrictions of f to the codomain prefix {1..i} and the
    suffix, with their domain preimages; unchecked: i must be a breaking point."""
    top, bot = f.top, f.bot
    prefix = set(bot[:i])
    return (
        UBP._trusted(*canonical_labels([label for label in top if label in prefix], bot[:i])),
        UBP._trusted(*canonical_labels([label for label in top if label not in prefix], bot[i:])),
    )


def _matched_positions(src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[int, ...]:
    """For each position of ``src``, the position of ``dst`` it is matched
    with: the k-th occurrence of a label goes to its k-th occurrence."""
    images = [iter(block) for block in _fibres(dst)]
    return tuple(next(images[label]) for label in src)


def shuffle_factorization(f: UBP) -> Permutation:
    """The block shuffle xi with f = xi . id_of_partition(f.domain): each
    domain block, in increasing order, maps onto its image block in
    increasing order, so xi increases on every domain block."""
    return Permutation(_matched_positions(f.top, f.bot))


def shuffle_mask(f: UBP) -> int:
    """The inversion set of f's block-shuffle factor as a bit mask (bit
    i * n + j for the 0-based inversion (i, j)), read off the label rows."""
    return _inversion_mask(_matched_positions(f.top, f.bot))


def weak_leq(f: UBP, g: UBP) -> bool:
    """Weak order on the monoid: same domain and contained inversion sets of
    the shuffle factors, tested as containment of their masks.

    Elements with different domain partitions are incomparable, so the poset
    is a disjoint union of components indexed by domain partitions.
    """
    if f.n != g.n:
        raise ValueError(f"size mismatch: {f.n} vs {g.n}")
    return f.top == g.top and shuffle_mask(f) & ~shuffle_mask(g) == 0


def hasse_component(a: SetPartition) -> tuple[list[UBP], list[tuple[int, int]]]:
    """Hasse diagram of the weak-order component of elements with domain a.

    Returns (nodes, covers): nodes in canonical order and covers as index
    pairs (i, j), in increasing order, meaning nodes[i] is covered by
    nodes[j].  Like a full enumeration, it is refused above the ceiling.

    The block shuffles of a form a lower ideal of the weak order, so the
    covers of xi . id(a) are the s_k . xi . id(a) that stay block shuffles:
    those where xi^{-1}(k) < xi^{-1}(k+1) lie in different blocks of a.

    >>> nodes, covers = hasse_component(SetPartition(3, ((1, 2), (3,))))
    >>> len(nodes), covers
    (3, [(1, 2), (2, 0)])
    """
    nodes = elements_with_domain(a)
    # Every node has a's top row, so its bottom row identifies it.
    index = {f.bot: i for i, f in enumerate(nodes)}
    covers = []
    for i, f in enumerate(nodes):
        where = _matched_positions(f.bot, f.top)  # where[k - 1] = xi^{-1}(k)
        bot = f.bot  # bot[k - 1] = the label of the block holding xi^{-1}(k)
        for k in range(1, a.n):
            if where[k - 1] < where[k] and bot[k - 1] != bot[k]:
                covers.append((i, index[_swapped(bot, k)]))  # s_k . f
    covers.sort()
    return nodes, covers


def parse_ubp(text: str) -> UBP:
    """Parse the arrow text form, e.g. "{1,3}->{1,2};{2}->{3}".

    The empty diagram is written "{}->{}".  The text is split into arrows
    once.  Canonical arrows are read straight into label rows
    (:func:`_read_rows`), and the element is returned when it prints back as
    the text.  Any other arrows are read block by block into set partitions,
    only to name the first defect: valid but non-canonical input is rejected
    with the canonical spelling in the error message.  Elements parsed are
    cached per text (``ROW_CACHE_SIZE`` entries); rejected text raises again
    on every call.
    """
    return _parsed(text)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _parsed(text: str) -> UBP:
    s = text.strip()
    if s == "{}->{}":
        return identity(0)
    arrows = [arrow.split("->") for arrow in s.split(";")]
    try:
        f = _read_rows(arrows)
    except (ValueError, IndexError):
        pass
    else:
        if str(f) == s:
            return f
    pairs = []
    for pos, halves in enumerate(arrows):
        piece = "->".join(halves)
        if len(halves) != 2:
            raise ValueError(f"arrow {pos} must look like '{{..}}->{{..}}': {piece!r}")
        pairs.append((_parse_block(halves[0], piece), _parse_block(halves[1], piece)))
    result = from_block_images(max((i for d, _ in pairs for i in d), default=0), pairs)
    # Canonical text reads back through _read_rows, so valid text here is not.
    raise ValueError(f"non-canonical element {text!r}; canonical form is {result}")


def _read_rows(arrows: list[list[str]]) -> UBP:
    """The element spelled by canonical text split into arrows: arrow k gives
    label k to its domain block's positions on the top row and its image
    block's on the bottom row.  Other text gives another element or raises
    ValueError or IndexError, so the caller checks that it prints as the text."""
    n = sum(dom.count(",") + 1 for dom, _ in arrows)
    top = [-1] * n
    bot = [-1] * n
    for label, (dom, cod) in enumerate(arrows):
        for i in dom[1:-1].split(","):
            top[int(i) - 1] = label
        for j in cod[1:-1].split(","):
            bot[int(j) - 1] = label
    return UBP(tuple(top), tuple(bot))


def _parse_block(text: str, context: str) -> tuple[int, ...]:
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")) or len(s) < 3:
        raise ValueError(f"bad block {text!r} in {context!r}")
    try:
        return tuple(int(tok) for tok in s[1:-1].split(","))
    except ValueError:
        raise ValueError(f"bad block contents {text!r} in {context!r}") from None


def ubp_to_json(f: UBP) -> dict:
    """JSON form: blocks and images are the canonical block lists, map holds
    0-based codomain block indices."""
    n, blocks, images, block_map = f._sort_key()
    return {
        "n": n,
        "blocks": [list(b) for b in blocks],
        "images": [list(b) for b in images],
        "map": list(block_map),
    }
