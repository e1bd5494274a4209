"""An independent reference for the text requests of the ``requests`` workload.

It shares no code with blockperm.  A diagram is a tuple of arrows
``(domain block, image block)`` ordered by the least element of the domain
block, each block an increasing tuple.  Composition glues vertex sets with
union-find instead of label rows, and the antipode uses Takeuchi's formula
(a signed sum over chains of breaking points) instead of blockperm's
recursion.  Text is printed in blockperm's canonical grammar and order, so
the reference output can be compared byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import random

Arrow = tuple[tuple[int, ...], tuple[int, ...]]
Diagram = tuple[Arrow, ...]


def degree(d: Diagram) -> int:
    return sum(len(dom) for dom, _ in d)


def make(arrows) -> Diagram:
    """Canonical diagram from (domain, image) pairs given in any order."""
    return tuple(sorted((tuple(sorted(a)), tuple(sorted(b))) for a, b in arrows))


def sort_key(d: Diagram):
    """blockperm's order: degree, domain blocks, image blocks, block map."""
    cod = sorted(img for _, img in d)
    rank = {img: k for k, img in enumerate(cod)}
    return (degree(d), tuple(dom for dom, _ in d), tuple(cod), tuple(rank[img] for _, img in d))


def _block_text(block) -> str:
    return "{" + ",".join(map(str, block)) + "}"


def diagram_text(d: Diagram) -> str:
    if not d:
        return "{}->{}"
    return ";".join(_block_text(a) + "->" + _block_text(b) for a, b in d)


def parse_diagram(text: str) -> Diagram:
    if text == "{}->{}":
        return ()
    arrows = []
    for piece in text.split(";"):
        dom, img = piece.split("->")
        arrows.append((tuple(map(int, dom[1:-1].split(","))), tuple(map(int, img[1:-1].split(",")))))
    return make(arrows)


def element_text(terms: dict) -> str:
    if not terms:
        return "0"
    keys = sorted(terms, key=sort_key)
    return " + ".join(f"{terms[d]}*{diagram_text(d)}" for d in keys)


def parse_element(text: str) -> dict:
    if text == "0":
        return {}
    out: dict = {}
    for piece in text.split(" + "):
        coeff, _, body = piece.partition("*")
        _add(out, parse_diagram(body), int(coeff))
    return out


def tensor_text(terms: dict) -> str:
    if not terms:
        return "0"
    keys = sorted(terms, key=lambda lr: (sort_key(lr[0]), sort_key(lr[1])))
    return " + ".join(
        f"{terms[k]}*{diagram_text(k[0])} (x) {diagram_text(k[1])}" for k in keys
    )


def _add(acc: dict, key, coeff: int) -> None:
    c = acc.get(key, 0) + coeff
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


# -- set partitions (p-basis keys) --------------------------------------------


def partition_text(blocks: tuple[tuple[int, ...], ...]) -> str:
    return "".join(_block_text(b) for b in blocks) if blocks else "{}"


def p_element_text(terms: dict) -> str:
    if not terms:
        return "0"
    keys = sorted(terms, key=lambda blocks: (sum(map(len, blocks)), blocks))
    return " + ".join(f"{terms[b]}*p{partition_text(b)}" for b in keys)


# -- algebra ------------------------------------------------------------------


def compose(g: Diagram, f: Diagram) -> Diagram:
    """g.f: f on top.  Vertices: 0..n-1 top, n..2n-1 middle, 2n..3n-1 bottom."""
    n = degree(f)
    parent = list(range(3 * n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def join(vertices):
        root = find(vertices[0])
        for v in vertices[1:]:
            parent[find(v)] = root

    for dom, img in f:
        join([i - 1 for i in dom] + [n + j - 1 for j in img])
    for dom, img in g:
        join([n + i - 1 for i in dom] + [2 * n + j - 1 for j in img])
    tops: dict[int, list[int]] = {}
    bots: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        tops.setdefault(find(i - 1), []).append(i)
        bots.setdefault(find(2 * n + i - 1), []).append(i)
    return make((tops[r], bots[r]) for r in tops)


def product(x: dict, y: dict) -> dict:
    """Shuffle product: g shifted right of f, images relabelled by every
    increasing interleaving of the two image ranges."""
    out: dict = {}
    for f, a in x.items():
        p = degree(f)
        for g, b in y.items():
            q = degree(g)
            shifted = [(tuple(i + p for i in dom), tuple(j + p for j in img)) for dom, img in g]
            for first in itertools.combinations(range(1, p + q + 1), p):
                chosen = set(first)
                xi = list(first) + [v for v in range(1, p + q + 1) if v not in chosen]
                arrows = [(dom, [xi[j - 1] for j in img]) for dom, img in list(f) + shifted]
                _add(out, make(arrows), a * b)
    return out


def _standardize(arrows) -> Diagram:
    dom_rank = {v: t for t, v in enumerate(sorted(i for dom, _ in arrows for i in dom), 1)}
    img_rank = {v: t for t, v in enumerate(sorted(j for _, img in arrows for j in img), 1)}
    return make(([dom_rank[i] for i in dom], [img_rank[j] for j in img]) for dom, img in arrows)


def breaking_points(f: Diagram) -> list[int]:
    n = degree(f)
    return [
        i for i in range(n + 1)
        if all(img[-1] <= i or img[0] > i for _, img in f)
    ]


def _piece(f: Diagram, lo: int, hi: int) -> Diagram:
    """Standardized restriction to the arrows whose images lie in (lo, hi]."""
    return _standardize([(dom, img) for dom, img in f if lo < img[0] and img[-1] <= hi])


def coproduct(x: dict) -> dict:
    out: dict = {}
    for f, a in x.items():
        n = degree(f)
        for i in breaking_points(f):
            _add(out, (_piece(f, 0, i), _piece(f, i, n)), a)
    return out


def antipode(x: dict) -> dict:
    """Takeuchi's formula: S(f) = sum over chains 0 < i_1 < ... < n of
    breaking points of (-1)^k piece_1 * ... * piece_k."""
    out: dict = {}
    for f, a in x.items():
        n = degree(f)
        if n == 0:
            _add(out, f, a)
            continue
        inner = [i for i in breaking_points(f) if 0 < i < n]
        for r in range(len(inner) + 1):
            for cuts in itertools.combinations(inner, r):
                bounds = (0,) + cuts + (n,)
                acc = {(): (-1) ** (r + 1) * a}
                for lo, hi in zip(bounds, bounds[1:]):
                    acc = product(acc, {_piece(f, lo, hi): 1})
                for key, c in acc.items():
                    _add(out, key, c)
    return out


def pairing(x: dict, y: dict) -> int:
    return sum(a * y.get(make((img, dom) for dom, img in f), 0) for f, a in x.items())


def _shuffle_factor(f: Diagram) -> tuple[int, ...]:
    images = [0] * degree(f)
    for dom, img in f:
        for i, j in zip(dom, img):
            images[i - 1] = j
    return tuple(images)


def _inversions(images) -> set:
    n = len(images)
    return {(i, j) for i in range(n) for j in range(i + 1, n) if images[i] > images[j]}


@functools.lru_cache(maxsize=None)
def with_domain(blocks: tuple[tuple[int, ...], ...]) -> tuple[Diagram, ...]:
    """Every diagram whose domain blocks are ``blocks``."""
    n = sum(map(len, blocks))
    out = []
    for images in itertools.permutations(range(1, n + 1)):
        if all(images[b[t] - 1] < images[b[t + 1] - 1] for b in blocks for t in range(len(b) - 1)):
            out.append(make((b, [images[i - 1] for i in b]) for b in blocks))
    return tuple(out)


def from_lower_basis(coords: dict) -> dict:
    """Each key g contributes every f with g's domain and inv(f) within inv(g)."""
    out: dict = {}
    for g, c in coords.items():
        inv_g = _inversions(_shuffle_factor(g))
        for f in with_domain(tuple(dom for dom, _ in g)):
            if _inversions(_shuffle_factor(f)) <= inv_g:
                _add(out, f, c)
    return out


def to_element(p_terms: dict) -> dict:
    out: dict = {}
    for blocks, c in p_terms.items():
        for f in with_domain(blocks):
            _add(out, f, c)
    return out


def action_rows(f: Diagram, m: int) -> list[tuple[int, int]]:
    """(row, column) pairs of the right action on words over {1..m}: a word
    survives iff constant on each image block, and each domain block then
    takes that block's letter."""
    n = degree(f)
    rows = []
    for row, word in enumerate(itertools.product(range(1, m + 1), repeat=n)):
        target = [0] * n
        for dom, img in f:
            letters = {word[j - 1] for j in img}
            if len(letters) != 1:
                break
            (letter,) = letters
            for i in dom:
                target[i - 1] = letter
        else:
            col = 0
            for letter in target:
                col = col * m + letter - 1
            rows.append((row, col))
    return rows


# -- random inputs ------------------------------------------------------------


def random_partition(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """Each element joins an existing block or opens a new one, uniformly."""
    blocks: list[list[int]] = []
    for i in range(1, n + 1):
        k = rng.randrange(len(blocks) + 1)
        if k == len(blocks):
            blocks.append([i])
        else:
            blocks[k].append(i)
    return tuple(tuple(b) for b in blocks)


def random_diagram(rng: random.Random, n: int) -> Diagram:
    """Blocks of a random partition sent to their images under a random
    permutation: every diagram of degree n can occur."""
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    return make((b, [sigma[i - 1] for i in b]) for b in random_partition(rng, n))
