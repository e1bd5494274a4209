"""Permutations in one-line form, shuffles, and the weak order.

Conventions used by the whole package:

* permutations act on ``{1, ..., n}``; ``images[i - 1]`` is the image of ``i``
* composition is right-to-left: ``(sigma * tau)(i) == sigma(tau(i))``
* an inversion of ``sigma`` is a pair of positions ``(i, j)`` with ``i < j``
  and ``sigma(i) > sigma(j)``; the weak order is containment of inversion
  sets.  This convention is validated (lower ideals, maximum shuffle, basis
  products) rather than assumed; with inversions of the inverse permutation
  the same battery fails.

Permutations print as the bracketed one-line word, e.g. ``[2,3,1]``; no
reader parses that form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

# The one type allowed in permutations, blocks and label rows: 1.0 and True
# compare and hash equal to 1.
_INT = frozenset((int,))


@dataclass(frozen=True, order=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        images = self.images
        if type(images) is not tuple:
            raise TypeError("images must be a tuple")
        if not _INT.issuperset(map(type, images)):
            bad = next(v for v in images if type(v) is not int)
            raise ValueError(f"entry {bad!r} in {images!r} is not an int")
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")

    def __reduce__(self):
        # Pickle the images and validate them again on loading.
        return (type(self), (self.images,))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Compose, applying ``other`` first."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.images) + "]"


def adjacent_transposition(n: int, i: int) -> Permutation:
    """The transposition swapping ``i`` and ``i + 1`` in S_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"adjacent transposition index {i} out of range for n={n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n in lexicographic one-line order."""
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


# Inversion masks kept per process.  `verify all --max-n 4` fills 34 entries
# and the seeded request mix at most 140, so neither evicts.
INVERSION_CACHE_SIZE = 1024


@lru_cache(maxsize=INVERSION_CACHE_SIZE)
def _inversion_mask(images: tuple[int, ...]) -> int:
    n = len(images)
    mask = 0
    for i in range(n):
        vi = images[i]
        for j in range(i + 1, n):
            if vi > images[j]:
                mask |= 1 << (i * n + j)
    return mask


def weak_leq(sigma: Permutation, tau: Permutation) -> bool:
    """Weak order: inversion set of ``sigma`` contained in that of ``tau``.

    >>> weak_leq(Permutation((1, 3, 2)), Permutation((3, 1, 2)))
    False
    >>> weak_leq(Permutation((1, 3, 2)), Permutation((2, 3, 1)))
    True
    """
    if sigma.n != tau.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {tau.n}")
    a = _inversion_mask(sigma.images)
    b = _inversion_mask(tau.images)
    return a & ~b == 0


def _interleavings(u: tuple[int, ...], v: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every word reading u in order on len(u) of its positions and v on the
    rest, in lexicographic order of u's positions: the one shuffle generator.

    >>> _interleavings((1, 2), (3,))
    [(1, 2, 3), (1, 3, 2), (3, 1, 2)]
    """
    out = []
    for chosen in itertools.combinations(range(len(u) + len(v)), len(u)):
        word = list(v)
        for pos, x in zip(chosen, u):  # increasing, so each x lands at pos
            word.insert(pos, x)
        out.append(tuple(word))
    return out


def shuffles(p: int, q: int) -> list[Permutation]:
    """All C(p+q, p) (p, q)-shuffles: permutations of S_{p+q} increasing on
    the first p and on the last q positions, the inverses of the interleavings
    of 1..p with p+1..p+q, in lexicographic order of the image set of 1..p.

    >>> [str(xi) for xi in shuffles(1, 2)]
    ['[1,2,3]', '[2,1,3]', '[3,1,2]']
    >>> len(shuffles(2, 2))
    6
    """
    if p < 0 or q < 0:
        raise ValueError("shuffle sizes must be non-negative")
    first, last = tuple(range(1, p + 1)), tuple(range(p + 1, p + q + 1))
    return [Permutation(w).inverse() for w in _interleavings(first, last)]


def max_shuffle(p: int, q: int) -> Permutation:
    """The (p, q)-shuffle sending i to q + i for i <= p, i.e. moving the
    first p positions past the last q; the unique maximum of shuffles(p, q)
    in the weak order.  Its inverse is max_shuffle(q, p).

    >>> str(max_shuffle(2, 2))
    '[3,4,1,2]'
    """
    if p < 0 or q < 0:
        raise ValueError("shuffle sizes must be non-negative")
    return Permutation(tuple(range(q + 1, q + p + 1)) + tuple(range(1, q + 1)))
