"""The composition kernel and the canonical relabelling of label rows.

A uniform block permutation on ``[n]`` is encoded as a pair of label rows
``(top, bot)``: ``top[i]`` is the id of the diagram component containing
top vertex ``i + 1`` and ``bot[j]`` the id of the component containing
bottom vertex ``j + 1``.  The encoding is canonical when component ids are
assigned in order of first appearance along the top row, which makes the
pair usable directly as a hash/equality key.  It is the representation of
:class:`blockperm.monoid.UniformBlockPermutation`.
"""

from __future__ import annotations


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
    """Compose two diagrams by gluing the bottom row of f to the top row of g.

    Returns the canonical label rows of the composite: top row read from f's
    top, bottom row from g's bottom, components merged with union-find.
    """
    n = len(ftop)
    if n == 0:
        return (), ()
    kf = max(ftop) + 1
    kg = max(gtop) + 1
    parent = list(range(kf + kg))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        ra = find(fbot[i])
        rb = find(kf + gtop[i])
        if ra != rb:
            parent[rb] = ra

    newid: dict[int, int] = {}
    out_top = tuple(newid.setdefault(find(label), len(newid)) for label in ftop)
    try:
        out_bot = tuple(newid[find(kf + label)] for label in gbot)
    except KeyError:
        # Cannot happen for valid diagrams: every merged component contains a
        # component of f and hence a top vertex.
        raise ValueError("component with no top vertex") from None
    return out_top, out_bot
