"""Set partitions of {1..n}, their types, and partition-indexed shuffles.

A partition is stored in canonical form: blocks ordered by minimum element,
elements increasing inside each block.  The canonical tuple-of-tuples is the
equality and hash key, and the text form prints it byte-exactly, e.g.
``{1,3}{2,5,7}{4}{6,8}`` (the empty partition of n = 0 prints as ``{}``).

The order on partitions used throughout: ``A <= B`` iff every block of B is
contained in a block of A, i.e. coarser partitions are smaller.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from blockperm.perms import _INT, Permutation, _interleavings

# Label rows and blocks whose fibres, codomain keys, first-appearance
# renumberings and texts are kept per process, and pairs of middle rows whose
# glue plans are kept.  Degree 6 has 203 distinct top rows, 4,683 distinct
# bottom rows and 63 blocks, so a closure or a full enumeration up to degree
# 6 evicts no row.  Degree 4 has at most 75 x 15 = 1,125 pairs of middle rows
# (a bottom row by a top row), so `verify --max-n 4` fills 1,198 glue plans
# counting lower degrees; degree 5 has 541 x 52 = 28,132 pairs, so there the
# bound evicts, which costs only recomputed plans.  A long-lived process
# stays bounded.
ROW_CACHE_SIZE = 8192


@dataclass(frozen=True, order=True)
class SetPartition:
    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _validate_blocks(self.n, self.blocks)

    @classmethod
    def _trusted(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """The partition with blocks known to be canonical, built without
        validation; never call it on blocks from outside the package."""
        self = object.__new__(cls)
        fields = self.__dict__
        fields["n"] = n
        fields["blocks"] = blocks
        return self

    def __reduce__(self):
        # Pickle the fields and validate them again on loading.
        return (type(self), (self.n, self.blocks))

    @staticmethod
    def from_blocks(n: int, raw_blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Canonicalize and validate a collection of blocks.

        >>> str(SetPartition.from_blocks(8, [{2, 5, 7}, {1, 3}, {6, 8}, {4}]))
        '{1,3}{2,5,7}{4}{6,8}'
        """
        blocks = []
        for raw in raw_blocks:
            block = tuple(raw)
            if not block:
                raise ValueError("empty block")
            _require_ints(block)  # before sorting: "a" and 1 do not compare
            blocks.append(tuple(sorted(block)))
        blocks.sort(key=lambda b: b[0])
        return SetPartition(n, tuple(blocks))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def position_labels(self) -> tuple[int, ...]:
        """labels[i - 1] = index of the block containing i."""
        labels = [0] * self.n
        for k, block in enumerate(self.blocks):
            for i in block:
                labels[i - 1] = k
        return tuple(labels)

    def type(self) -> "PartitionType":
        mult = [0] * self.n
        for block in self.blocks:
            mult[len(block) - 1] += 1
        return PartitionType(tuple(mult))

    def __str__(self) -> str:
        if not self.blocks:
            return "{}"
        return "".join(map(_block_text, self.blocks))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _block_text(block: tuple[int, ...]) -> str:
    """The text of one block, e.g. "{1,3}"; a partition or a diagram prints
    as its block texts."""
    return "{" + ",".join(map(str, block)) + "}"


def _require_ints(block: tuple) -> None:
    """Raise ValueError naming the first element of the block that is not an
    int; 1.0 and True compare and hash equal to 1, so both are refused."""
    if not _INT.issuperset(map(type, block)):
        bad = next(i for i in block if type(i) is not int)
        raise ValueError(f"element {bad!r} in block {block!r} is not an int")


def _validate_blocks(n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
    if type(n) is not int or n < 0:
        raise ValueError(f"partition size {n!r} is not a non-negative int")
    if type(blocks) is not tuple:
        raise TypeError("blocks must be a tuple of tuples")
    seen: set[int] = set()
    prev_min = 0
    for block in blocks:
        if type(block) is not tuple:
            raise TypeError("blocks must be a tuple of tuples")
        if not block:
            raise ValueError("empty block")
        _require_ints(block)
        if any(block[t] >= block[t + 1] for t in range(len(block) - 1)):
            raise ValueError(f"block {block} not strictly increasing")
        if block[0] <= prev_min:
            raise ValueError(f"blocks out of canonical order at {block}")
        prev_min = block[0]
        for i in block:
            if not 1 <= i <= n:
                raise ValueError(f"element {i} out of range 1..{n}")
            if i in seen:
                raise ValueError(f"element {i} appears in two blocks")
            seen.add(i)
    if len(seen) != n:
        missing = 1
        while missing in seen:
            missing += 1
        raise ValueError(f"element {missing} missing from the partition")


@dataclass(frozen=True)
class PartitionType:
    """Multiplicity vector (m_1, ..., m_n): m_i blocks of size i."""

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if any(m < 0 for m in self.multiplicities):
            raise ValueError("negative multiplicity")

    @property
    def n(self) -> int:
        return sum(i * m for i, m in enumerate(self.multiplicities, start=1))


def count_of_type(t: PartitionType) -> int:
    """Number of set partitions with the given block-size multiplicities:
    n! / (m_1! ... m_n! (1!)^{m_1} ... (n!)^{m_n})."""
    n = t.n
    denom = 1
    for size, mult in enumerate(t.multiplicities, start=1):
        denom *= math.factorial(mult) * math.factorial(size) ** mult
    count, rem = divmod(math.factorial(n), denom)
    assert rem == 0
    return count


def set_partitions(n: int) -> list[SetPartition]:
    """All set partitions of [n], sorted by their canonical block encoding."""
    if n < 0:
        raise ValueError("n must be non-negative")
    partial: list[list[list[int]]] = [[]]
    for x in range(1, n + 1):
        grown = []
        for blocks in partial:
            for k in range(len(blocks)):
                grown.append([b + [x] if i == k else b for i, b in enumerate(blocks)])
            grown.append(blocks + [[x]])
        partial = grown
    out = [SetPartition.from_blocks(n, blocks) for blocks in partial]
    out.sort()
    return out


def partition_action(sigma: Permutation, a: SetPartition) -> SetPartition:
    """Image partition with blocks {sigma(i) : i in block}; preserves type."""
    if sigma.n != a.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {a.n}")
    images = sigma.images
    # The images of disjoint blocks are disjoint, so they sort by their minima.
    blocks = sorted(tuple(sorted([images[i - 1] for i in b])) for b in a.blocks)
    return SetPartition._trusted(a.n, tuple(blocks))


def meet(a: SetPartition, b: SetPartition) -> SetPartition:
    """Finest partition coarser than both: connected components of the union
    of the two block graphs.  This is the lattice meet for the order on
    partitions (coarser = smaller)."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    parent = list(range(a.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (a, b):
        for block in part.blocks:
            root = find(block[0])
            for i in block[1:]:
                parent[find(i)] = root
    groups: dict[int, list[int]] = {}
    for i in range(1, a.n + 1):
        groups.setdefault(find(i), []).append(i)
    return SetPartition.from_blocks(a.n, groups.values())


def restrict_standardize(a: SetPartition, block_indices: Iterable[int]) -> SetPartition:
    """Restrict to the selected blocks and relabel their union j_1 < ... < j_m
    to 1..m.

    >>> a = SetPartition.from_blocks(7, [(1, 5), (2, 7), (3,), (4, 6)])
    >>> str(restrict_standardize(a, [0, 1]))
    '{1,3}{2,4}'
    """
    indices = sorted(set(block_indices))
    for k in indices:
        if not 0 <= k < a.num_blocks:
            raise ValueError(f"block index {k} out of range")
    support = sorted(i for k in indices for i in a.blocks[k])
    relabel = {j: t for t, j in enumerate(support, start=1)}
    return SetPartition.from_blocks(
        len(support), [[relabel[i] for i in a.blocks[k]] for k in indices]
    )


def cross(a: SetPartition, b: SetPartition) -> SetPartition:
    """Partition of [a.n + b.n] with a's blocks and b's blocks shifted by a.n.

    >>> a = parse_set_partition("{1,3,4}{2,5}{6}")
    >>> b = parse_set_partition("{1,4}{2}{3,5}")
    >>> str(cross(a, b))
    '{1,3,4}{2,5}{6}{7,10}{8}{9,11}'
    """
    shifted = [tuple(i + a.n for i in block) for block in b.blocks]
    return SetPartition(a.n + b.n, a.blocks + tuple(shifted))


def block_shuffles(a: SetPartition) -> list[Permutation]:
    """All permutations increasing on every block of ``a``; there are
    n!/(product of block-size factorials) of them.  They are coset
    representatives for the block stabilizer: the inverses of the words that
    interleave the blocks, each read in increasing order."""
    words = [()]
    for block in a.blocks:
        words = [w for word in words for w in _interleavings(word, block)]
    return sorted(Permutation(w).inverse() for w in words)


def block_stabilizer(a: SetPartition) -> list[Permutation]:
    """All permutations preserving every block of ``a`` setwise; there are
    (product of block-size factorials) of them."""
    per_block = [list(itertools.permutations(block)) for block in a.blocks]
    out = []
    for combo in itertools.product(*per_block):
        images = [0] * a.n
        for block, arranged in zip(a.blocks, combo):
            for pos, val in zip(block, arranged):
                images[pos - 1] = val
        out.append(Permutation(tuple(images)))
    out.sort()
    return out


_BLOCK_RE = re.compile(r"\{([0-9,]*)\}")


def parse_set_partition(text: str) -> SetPartition:
    """Parse the canonical text form, e.g. "{1,3}{2,5,7}{4}{6,8}" or "{}".

    Non-canonical but otherwise valid input is rejected with the canonical
    spelling in the error message.
    """
    s = text.strip()
    if s == "{}":
        return SetPartition(0, ())
    pos = 0
    raw_blocks: list[list[int]] = []
    while pos < len(s):
        m = _BLOCK_RE.match(s, pos)
        if not m:
            raise ValueError(f"unexpected character at position {pos} in {text!r}")
        body = m.group(1)
        if not body:
            raise ValueError(f"empty block at position {pos} in {text!r}")
        try:
            raw_blocks.append([int(tok) for tok in body.split(",")])
        except ValueError:
            raise ValueError(f"bad block contents at position {pos} in {text!r}") from None
        pos = m.end()
    elements = [i for block in raw_blocks for i in block]
    n = max(elements, default=0)
    result = SetPartition.from_blocks(n, raw_blocks)
    if str(result) != s:
        raise ValueError(
            f"non-canonical partition {text!r}; canonical form is {result}"
        )
    return result
