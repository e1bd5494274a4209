"""The composition kernel and the canonical relabelling of label rows.

A uniform block permutation on ``[n]`` is encoded as a pair of label rows
``(top, bot)``: ``top[i]`` is the id of the diagram component containing
top vertex ``i + 1`` and ``bot[j]`` the id of the component containing
bottom vertex ``j + 1``.  The encoding is canonical when component ids are
assigned in order of first appearance along the top row, which makes the
pair usable directly as a hash/equality key.  It is the representation of
:class:`blockperm.monoid.UniformBlockPermutation`.

Which blocks of g.f merge is decided by the middle rows alone, f's bottom
row glued to g's top row; the outer rows, f's top and g's bottom, are only
relabelled.  So the kernel works out a *glue plan* once per pair of middle
rows (kept in a bounded per-process cache) and each composition maps its
outer rows through it.  The plan needs no union-find: every component of g
meets the middle row, so it joins one class of f's components, and a
component of g that meets two classes merges them.  The plan therefore
tracks classes of f-labels only, and when no classes merge the composite's
top row is f's top row unchanged.
"""

from __future__ import annotations

from functools import lru_cache

from blockperm.partitions import ROW_CACHE_SIZE


def canonical_labels(top, bot):
    """Relabel both rows by first appearance of each id along the top row."""
    newid: dict[int, int] = {}
    out_top = tuple(newid.setdefault(label, len(newid)) for label in top)
    try:
        out_bot = tuple(newid[label] for label in bot)
    except KeyError:
        raise ValueError("component with no top vertex") from None
    return out_top, out_bot


def glue_labels(ftop, fbot, gtop, gbot):
    """Compose two canonical diagrams by gluing the bottom row of f to the
    top row of g.

    Returns the canonical label rows of the composite: the top row is read
    from f's top through the glue plan of the middle rows, the bottom row
    from g's bottom.  When no blocks merge, the top row is ``ftop`` itself.

    Two merges at n = 3 (b_1 then b_2) join everything into one block:

    >>> glue_labels((0, 0, 1), (0, 0, 1), (0, 1, 1), (0, 1, 1))
    ((0, 0, 0), (0, 0, 0))

    A transposition after b_1 merges nothing:

    >>> glue_labels((0, 0, 1), (0, 0, 1), (0, 1, 2), (1, 0, 2))
    ((0, 0, 1), (0, 0, 1))
    """
    cls, via = _glue_plan(fbot, gtop)
    bot = tuple(map(via.__getitem__, gbot))
    if cls is None:
        return ftop, bot
    return tuple(map(cls.__getitem__, ftop)), bot


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _glue_plan(fbot, gtop):
    """(cls, via) for gluing f's bottom row to g's top row: ``cls[a]`` is the
    composite's label of f-label a, or cls is None when no classes merge and
    f's labels stand; ``via[b]`` is the composite's label of g-label b.

    One pass over the middle row records, for each g-label, the class of
    f-labels it is glued to; a g-label glued to a second class merges the
    two."""
    n = len(fbot)
    # cls[a] is the smallest f-label in a's class; via[b] the class glued to
    # g-label b, or -1 before its first vertex is met.
    cls = list(range(n))
    via = [-1] * n
    merged = False
    for a, b in zip(fbot, gtop):
        a = cls[a]
        c = via[b]
        if c < 0:
            via[b] = a
        elif c != a:
            merged = True
            lo, hi = (c, a) if c < a else (a, c)
            for x, r in enumerate(cls):
                if r == hi:
                    cls[x] = lo
            for x, r in enumerate(via):
                if r == hi:
                    via[x] = lo
    if not merged:
        return None, tuple(via)
    # f's labels first appear along its top row in the order 0, 1, ..., so a
    # class first appears at its smallest label: number the classes in that
    # order, over the f-labels rather than over positions.
    k = 0
    for x, r in enumerate(cls):
        if r == x:
            cls[x] = k
            k += 1
        else:
            cls[x] = cls[r]
    # Entries of via past g's labels were never set, and are never read.
    return tuple(cls), tuple(map(cls.__getitem__, via))
