"""Named verification batteries over the whole package.

Each check is a top-level function ``check_x(max_n=None) -> Check``, made by
:func:`_check` from a body that tests one law, with its suite, its title and
its default degree bound, which ``max_n`` can only lower.  Suites list their
checks in definition order, so reports are stable; the command line runs
them, optionally in parallel, and the acceptance tests at their stated bounds.
Each Hopf law is one predicate over one case (``_counital(f)`` and so on):
its check body drives it over the cases up to the bound, the tests past it.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from blockperm import hopf, schurweyl
from blockperm._linear import LinearCombination
from blockperm.hopf import Element, TensorElement, domain_class_sum
from blockperm.monoid import (
    UBP,
    EnumerationCeilingError,
    _check_ceiling,
    breaking_points,
    closure_from_generators,
    compose,
    concat,
    count_ubp,
    count_ubp_recursive,
    diagram_inverse,
    elements_with_domain,
    enumerate_ubp,
    from_block_images,
    from_permutation,
    hasse_component,
    id_of_partition,
    identity,
    left_compose_perm,
    merge_generator,
    shuffle_factorization,
    split_at_breaking_point,
    transposition_generator,
    weak_leq as ubp_weak_leq,
)
from blockperm.ncsym import (
    NCSymElement,
    p_coproduct,
    p_product,
    power_sum_words,
    to_element,
    from_element,
)
from blockperm.partitions import (
    SetPartition,
    block_shuffles,
    block_stabilizer,
    count_of_type,
    cross,
    meet,
    parse_set_partition,
    partition_action,
    set_partitions,
)
from blockperm.perms import (
    all_permutations,
    max_shuffle,
    shuffles,
    weak_leq,
)

# Counts of the monoid per degree, 0..6 (OEIS A023998).
FIRST_COUNTS = [1, 1, 3, 16, 131, 1496, 22482]
# Dimensions of the primitive space per degree, 1..6.
FIRST_PRIMITIVE_DIMS = [1, 2, 11, 98, 1202, 19052]


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


# Each check registers itself in its suite, in definition order; "all" is
# filled in after the last check.
SUITES: dict[str, list[Callable[..., Check]]] = {
    suite: [] for suite in ("monoid", "hopf", "duality", "bases", "ncsym", "schurweyl")
}


class _Failure(str):
    """The detail text of a failed check."""


def _fail(detail: str) -> str:
    return _Failure(detail)


def _refuse_negative(max_n: int | None) -> None:
    if max_n is not None and max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")


def _refuse_no_workers(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _check(suite: str, title: str, bound: int | None = None) -> Callable:
    """Register a check body in ``SUITES[suite]`` under ``title``.

    The body takes the degree bound, ``bound`` lowered to ``max_n`` (no
    argument when the check has no bound), and returns its passing detail
    text, or ``_fail(detail)``; a Hopf law's body drives the law's predicate
    over its cases.  The decorated name is bound to ``check(max_n=None) ->
    Check``, which ``run_suite`` can send to worker processes; ``check.body``
    is the body itself, to run a law past its bound."""

    def register(body: Callable[..., str]) -> Callable[..., Check]:
        # Named as the body, so that it pickles by reference, but with its own
        # signature and annotations for inspect and help().
        @functools.wraps(
            body, assigned=("__module__", "__name__", "__qualname__", "__doc__")
        )
        def check(max_n: int | None = None) -> Check:
            _refuse_negative(max_n)
            if bound is None:
                detail = body()
            else:
                detail = body(bound if max_n is None else min(bound, max_n))
            return Check(title, not isinstance(detail, _Failure), str(detail))

        del check.__wrapped__
        check.title = title
        check.body = body
        SUITES[suite].append(check)
        return check

    return register


def _graded(by_degree: list[list], arity: int = 2):
    """Every ``arity``-tuple of items whose degrees (indices into
    ``by_degree``) sum to less than ``len(by_degree)``, in the order of
    nested loops over the degrees, then over each degree's items."""
    for degrees in itertools.product(range(len(by_degree)), repeat=arity):
        if sum(degrees) < len(by_degree):
            yield from itertools.product(*(by_degree[d] for d in degrees))


def _basis_by_degree(limit: int) -> tuple[list[list[UBP]], dict[UBP, Element]]:
    """The diagrams of each degree n <= limit, and the basis element of each."""
    elems = [enumerate_ubp(n) for n in range(limit + 1)]
    return elems, {f: Element.basis(f) for fs in elems for f in fs}


# One table per degree 0..5: each check walks every degree up to its bound,
# so fewer entries would evict a table before the next check reads it.  No
# check tabulates degree 6, whose table would hold 505M entries.
TABLE_CACHE_SIZE = 6


def _composition_table(n: int) -> tuple[tuple[UBP, ...], dict[UBP, int], Sequence[int]]:
    """The diagrams of degree n in canonical order, the index of each, and
    their composition table: ``table[i * N + j]`` is the index of
    ``compose(elems[i], elems[j])``, where N = len(elems).  Refused above the
    enumeration ceiling like :func:`enumerate_ubp`."""
    _check_ceiling(n)  # outside the cache: a hit must not skip the refusal
    return _compositions(n)


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _compositions(n: int) -> tuple[tuple[UBP, ...], dict[UBP, int], Sequence[int]]:
    from array import array  # here, so that a process that never tabulates does not load it

    elems = tuple(enumerate_ubp(n))
    index = {f: i for i, f in enumerate(elems)}
    table = array("H")  # N <= count_ubp(5) = 1496 fits in 16 bits
    for g in elems:
        table.fromlist([index[compose(g, f)] for f in elems])
    return elems, index, table


# ---------------------------------------------------------------------------
# monoid suite


@_check("monoid", "counts: closed formula = recursion (= known values up to degree 6)", 8)
def check_counts_closed_forms(limit: int) -> str:
    for n in range(limit + 1):
        a, b = count_ubp(n), count_ubp_recursive(n)
        if a != b:
            return _fail(f"n={n}: formula {a} != recursion {b}")
        if n < len(FIRST_COUNTS) and a != FIRST_COUNTS[n]:
            return _fail(f"n={n}: got {a}, expected {FIRST_COUNTS[n]}")
    return f"checked n <= {limit}"


@_check("monoid", "counts: enumeration and generator closure match the formula", 5)
def check_counts_enumeration(limit: int) -> str:
    for n in range(limit + 1):
        enum = enumerate_ubp(n)
        if len(enum) != count_ubp(n):
            return _fail(f"n={n}: enumerated {len(enum)}")
        if len(set(enum)) != len(enum):
            return _fail(f"n={n}: duplicates in enumeration")
        closure = closure_from_generators(n)
        if closure != enum:
            return _fail(f"n={n}: closure has {len(closure)} elements")
    return f"checked n <= {limit}"


@_check("monoid", "partition counts by type match the multinomial formula", 6)
def check_type_counts(limit: int) -> str:
    bell = _bell_numbers(limit)
    for n in range(limit + 1):
        tally = Counter(p.type() for p in set_partitions(n))
        for t, observed in tally.items():
            if count_of_type(t) != observed:
                return _fail(f"type {t.multiplicities}: formula disagrees")
        # Only the total sees a type that never occurs.
        if sum(tally.values()) != bell[n]:
            return _fail(f"n={n}: bad total")
    return f"checked n <= {limit}"


def _bell_numbers(limit: int) -> list[int]:
    """B_0..B_limit by B_{n+1} = sum_k C(n, k) B_k, without enumerating."""
    bell = [1]
    for n in range(limit):
        bell.append(sum(math.comb(n, k) * b for k, b in enumerate(bell)))
    return bell


def _relations(n: int, s: dict, b: dict, one, mul: Callable):
    """FitzGerald's presentation of the monoid of degree n by the
    transpositions s_i and the merges b_i, as ``(text, lhs, rhs)`` for the
    images ``s`` and ``b`` under ``mul``; ``text`` names a failing relation."""
    for i in range(1, n):
        yield f"s_{i}^2 != 1", mul(s[i], s[i]), one
        yield f"b_{i}^2 != b_{i}", mul(b[i], b[i]), b[i]
        absorbing = f"b_{i} s_{i} = s_{i} b_{i} = b_{i} fails"
        yield absorbing, mul(b[i], s[i]), b[i]
        yield absorbing, mul(s[i], b[i]), b[i]
    for i in range(1, n - 1):
        yield (
            f"braid relation fails at {i}",
            mul(s[i], mul(s[i + 1], s[i])),
            mul(s[i + 1], mul(s[i], s[i + 1])),
        )
        yield (
            f"mixed braid relation fails at {i}",
            mul(s[i], mul(b[i + 1], s[i])),
            mul(s[i + 1], mul(b[i], s[i + 1])),
        )
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                yield f"s_{i} s_{j} commuting fails", mul(s[i], s[j]), mul(s[j], s[i])
                yield f"b_{i} s_{j} commuting fails", mul(b[i], s[j]), mul(s[j], b[i])
            yield f"b_{i} b_{j} commuting fails", mul(b[i], b[j]), mul(b[j], b[i])


def _relation_failure(n: int, s: dict, b: dict, one, mul: Callable) -> str | None:
    """The text of the first relation of :func:`_relations` that fails, or
    None if all hold."""
    return next(
        (text for text, lhs, rhs in _relations(n, s, b, one, mul) if lhs != rhs), None
    )


@_check("monoid", "generator relations (braid, mixed braid, commuting, absorbing)", 5)
def check_presentation_relations(limit: int) -> str:
    for n in range(2, limit + 1):
        s = {i: transposition_generator(n, i) for i in range(1, n)}
        b = {i: merge_generator(n, i) for i in range(1, n)}
        failure = _relation_failure(n, s, b, identity(n), compose)
        if failure:
            return _fail(f"n={n}: {failure}")
    return f"checked n <= {limit}"


@_check("monoid", "inverse-monoid identities and idempotent classification", 4)
def check_inverse_monoid(limit: int) -> str:
    for n in range(limit + 1):
        elems, index, table = _composition_table(n)
        size = len(elems)
        inv = [index[diagram_inverse(f)] for f in elems]
        for i, f in enumerate(elems):
            k = inv[i]
            if table[table[i * size + k] * size + i] != i:
                return _fail(f"n={n}: f finv f != f for {f}")
            if table[table[k * size + i] * size + k] != k:
                return _fail(f"n={n}: finv f finv != finv for {f}")
            if inv[k] != i:
                return _fail(f"n={n}: inversion not involutive for {f}")
        for i, f in enumerate(elems):
            row, k = i * size, inv[i]
            for j, g in enumerate(elems):
                if inv[table[row + j]] != table[inv[j] * size + k]:
                    return _fail(f"n={n}: (fg)~ != g~ f~ for {f}, {g}")
        idempotents = {f for i, f in enumerate(elems) if table[i * size + i] == i}
        expected = {id_of_partition(a) for a in set_partitions(n)}
        if idempotents != expected:
            return _fail(f"n={n}: idempotents are not the partition identities")
    return f"checked n <= {limit}"


@_check("monoid", "unique factorization through a block shuffle and an idempotent", 4)
def check_factorization(limit: int) -> str:
    for n in range(limit + 1):
        for f in enumerate_ubp(n):
            xi = shuffle_factorization(f)
            if compose(from_permutation(xi), id_of_partition(f.domain)) != f:
                return _fail(f"n={n}: reconstruction fails for {f}")
            increasing = all(
                xi(block[t]) < xi(block[t + 1])
                for block in f.domain.blocks
                for t in range(len(block) - 1)
            )
            if not increasing:
                return _fail(f"n={n}: factor not a block shuffle for {f}")
    return f"checked n <= {limit}"


@_check("monoid", "partition identities compose through the lattice meet", 4)
def check_meet_morphism(limit: int) -> str:
    for n in range(limit + 1):
        parts = set_partitions(n)
        ids = {a: id_of_partition(a) for a in parts}
        for a, b in itertools.product(parts, repeat=2):
            if compose(ids[a], ids[b]) != id_of_partition(meet(a, b)):
                return _fail(f"n={n}: fails for {a}, {b}")
    return f"checked n <= {limit}"


@_check("monoid", "permutations relabel the codomain on the left, the domain on the right", 4)
def check_relabeling_laws(limit: int) -> str:
    for n in range(limit + 1):
        elems, index, table = _composition_table(n)
        size = len(elems)
        sides = [(f.domain, f.codomain) for f in elems]
        parts = set_partitions(n)
        for sigma in all_permutations(n):
            u, sigma_inv = index[from_permutation(sigma)], sigma.inverse()
            # Every domain and codomain is one of parts: one image each per sigma.
            image = {a: partition_action(sigma, a) for a in parts}
            preimage = {a: partition_action(sigma_inv, a) for a in parts}
            for j, f in enumerate(elems):
                domain, codomain = sides[j]
                left = left_compose_perm(sigma, f)
                if left != elems[table[u * size + j]]:
                    return _fail(f"n={n}: left fast path disagrees")
                if left.domain != domain:
                    return _fail(f"n={n}: left composition moved the domain")
                if left.codomain != image[codomain]:
                    return _fail(f"n={n}: left codomain not sigma(image)")
                if sides[table[j * size + u]][0] != preimage[domain]:
                    return _fail(f"n={n}: right domain not sigma^-1(domain)")
    return f"checked n <= {limit}"


@_check("monoid", "composition is associative", 5)
def check_associativity(limit: int) -> str:
    for n in range(min(limit, 3) + 1):
        elems, _, table = _composition_table(n)
        size = len(elems)
        for i, j, k in itertools.product(range(size), repeat=3):
            # (h g) f against h (g f), for f, g, h = elems[i], elems[j], elems[k]
            if table[table[k * size + j] * size + i] != table[k * size + table[j * size + i]]:
                return _fail(f"n={n}: fails on {elems[i]}, {elems[j]}, {elems[k]}")
    rng = random.Random(20108)
    for n in range(4, limit + 1):
        elems = enumerate_ubp(n)
        for _ in range(300):
            f, g, h = (rng.choice(elems) for _ in range(3))
            if compose(compose(h, g), f) != compose(h, compose(g, f)):
                return _fail(f"n={n}: fails on {f}, {g}, {h}")
    return f"exhaustive n <= 3, sampled n <= {limit}"


@_check("monoid", "breaking-point splits reassemble uniquely", 4)
def check_breaking_splits(limit: int) -> str:
    for n in range(limit + 1):
        for f in enumerate_ubp(n):
            points = breaking_points(f)
            if 0 not in points or n not in points:
                return _fail(f"n={n}: 0 or n missing from {points}")
            for i in points:
                xi, left, right = split_at_breaking_point(f, i)
                rebuilt = compose(
                    concat(left, right), from_permutation(xi.inverse())
                )
                if rebuilt != f:
                    return _fail(f"n={n}: reassembly fails for {f} at {i}")
                matches = [
                    eta
                    for eta in shuffles(i, n - i)
                    if compose(concat(left, right), from_permutation(eta.inverse()))
                    == f
                ]
                if matches != [xi]:
                    return _fail(f"n={n}: shuffle not unique for {f} at {i}")
    return f"checked n <= {limit}"


@_check("bases", "weak order is a partial order on permutations", 5)
def check_weak_order_poset(limit: int) -> str:
    for n in range(limit + 1):
        perms = all_permutations(n)
        up = {s: {t for t in perms if weak_leq(s, t)} for s in perms}
        for s in perms:
            if s not in up[s]:
                return _fail(f"n={n}: not reflexive at {s}")
        for s, t in itertools.combinations(perms, 2):
            if t in up[s] and s in up[t]:
                return _fail(f"n={n}: antisymmetry fails on {s}, {t}")
        if any(not up[t] <= up[s] for s in perms for t in up[s]):
            return _fail(f"n={n}: transitivity fails")
    return f"checked n <= {limit}"


@_check("bases", "shuffle sets are lower ideals with the expected maximum", 5)
def check_shuffle_posets(limit: int) -> str:
    for n in range(limit + 1):
        perms = all_permutations(n)
        down = {t: {s for s in perms if weak_leq(s, t)} for t in perms}
        for p in range(n + 1):
            sh = set(shuffles(p, n - p))
            top = max_shuffle(p, n - p)
            if top not in sh:
                return _fail(f"(p,q)=({p},{n-p}): maximum not a shuffle")
            for t in sh:
                if t not in down[top]:
                    return _fail(f"(p,q)=({p},{n-p}): {t} not below maximum")
                if not down[t] <= sh:
                    return _fail(f"(p,q)=({p},{n-p}): not a lower ideal")
        for a in set_partitions(n):
            sh = set(block_shuffles(a))
            if any(not down[t] <= sh for t in sh):
                return _fail(f"a={a}: block shuffles not a lower ideal")
    return f"checked n <= {limit}"


@_check("bases", "every permutation factors uniquely as block shuffle times stabilizer", 5)
def check_coset_decomposition(limit: int) -> str:
    for n in range(limit + 1):
        for a in set_partitions(n):
            sh = block_shuffles(a)
            st = block_stabilizer(a)
            if len(sh) * len(st) != math.factorial(n):
                return _fail(f"a={a}: |Sh| |S_a| != n!")
            products = {xi * pi for xi in sh for pi in st}
            if len(products) != math.factorial(n):
                return _fail(f"a={a}: products not distinct")
    return f"checked n <= {limit}"


@_check("bases", "weak-order components partition the monoid by domain", 5)
def check_component_decomposition(limit: int) -> str:
    for n in range(limit + 1):
        total = 0
        for a in set_partitions(n):
            comp = elements_with_domain(a)
            if len(comp) != len(block_shuffles(a)):
                return _fail(f"a={a}: component size mismatch")
            total += len(comp)
        if total != count_ubp(n):
            return _fail(f"n={n}: components sum to {total}")
    return f"checked n <= {limit}"


@_check("bases", "Hasse components are transitively reduced and correctly sized", 4)
def check_hasse_components(limit: int) -> str:
    for n in range(limit + 1):
        for a in set_partitions(n):
            nodes, covers = hasse_component(a)
            if len(nodes) != len(block_shuffles(a)):
                return _fail(f"a={a}: node count")
            # up[i]: indices of the nodes weakly above nodes[i].
            up = [{k for k, g in enumerate(nodes) if ubp_weak_leq(f, g)} for f in nodes]
            for i, j in covers:
                if j not in up[i] or nodes[i] == nodes[j]:
                    return _fail(f"a={a}: bad cover")
                if any(j in up[k] for k in up[i] - {i, j}):
                    return _fail(f"a={a}: cover not a cover")
    return f"checked n <= {limit}"


# ---------------------------------------------------------------------------
# hopf suite: the laws, one predicate each, and the drivers that check them


def _coproduct_terms(f: UBP):
    """The terms ((a, b), c) of the coproduct of f."""
    return hopf.coproduct(Element.basis(f)).terms.items()


def _associative(f: UBP, g: UBP, h: UBP) -> bool:
    """(fg)h = f(gh)."""
    x, y, z = Element.basis(f), Element.basis(g), Element.basis(h)
    return hopf.product(hopf.product(x, y), z) == hopf.product(x, hopf.product(y, z))


def _coassociative(f: UBP) -> bool:
    """(Delta (x) id) Delta f = (id (x) Delta) Delta f, as sums of triples."""
    delta = _coproduct_terms(f)
    lhs = LinearCombination(
        ((a1, a2, b), c * d) for (a, b), c in delta for (a1, a2), d in _coproduct_terms(a)
    )
    rhs = LinearCombination(
        ((a, b1, b2), c * d) for (a, b), c in delta for (b1, b2), d in _coproduct_terms(b)
    )
    return lhs == rhs


def _counital(f: UBP) -> bool:
    """Sum of eps(a) b = f = sum of a eps(b) over the terms a (x) b of Delta f."""
    x, delta = Element.basis(f), _coproduct_terms(f)
    left = Element((b, c * hopf.counit(Element.basis(a))) for (a, b), c in delta)
    right = Element((a, c * hopf.counit(Element.basis(b))) for (a, b), c in delta)
    return left == x and right == x


def _bialgebra_compatible(f: UBP, g: UBP) -> bool:
    """Delta(fg) = Delta(f) Delta(g), factorwise."""
    x, y, delta = Element.basis(f), Element.basis(g), hopf.coproduct
    return delta(hopf.product(x, y)) == hopf.tensor_product(delta(x), delta(y))


def _antipode_identities(f: UBP) -> bool:
    """Sum of S(a) b = eps(f) 1 = sum of a S(b) over the terms a (x) b of Delta f."""
    cuts = [(Element.basis(a), Element.basis(b), c) for (a, b), c in _coproduct_terms(f)]
    left = Element(
        (g, c * d) for a, b, c in cuts for g, d in hopf.product(hopf.antipode(a), b).terms.items()
    )
    right = Element(
        (g, c * d) for a, b, c in cuts for g, d in hopf.product(a, hopf.antipode(b)).terms.items()
    )
    unit = hopf.counit(Element.basis(f)) * Element.unit()
    return left == unit and right == unit


def _each_diagram(law: Callable[[UBP], bool], limit: int) -> str:
    """Drive ``law`` over every diagram of degree <= limit."""
    for f in itertools.chain(*map(enumerate_ubp, range(limit + 1))):
        if not law(f):
            return _fail(f"fails for {f}")
    return f"degree <= {limit}"


@_check("hopf", "product is associative", 4)
def check_hopf_associativity(limit: int) -> str:
    for f, g, h in _graded([enumerate_ubp(n) for n in range(limit + 1)], 3):
        if not _associative(f, g, h):
            return _fail(f"fails at degrees {f.n},{g.n},{h.n}")
    return f"total degree <= {limit}"


@_check("hopf", "coproduct is coassociative", 5)
def check_hopf_coassociativity(limit: int) -> str:
    return _each_diagram(_coassociative, limit)


@_check("hopf", "counit is a two-sided counit for the coproduct", 4)
def check_counit_axiom(limit: int) -> str:
    return _each_diagram(_counital, limit)


@_check("hopf", "coproduct of a product is the product of coproducts", 4)
def check_bialgebra_compatibility(limit: int) -> str:
    for f, g in _graded([enumerate_ubp(n) for n in range(limit + 1)]):
        if not _bialgebra_compatible(f, g):
            return _fail(f"fails at degrees {f.n},{g.n}")
    return f"total degree <= {limit}"


@_check("hopf", "antipode satisfies both defining identities", 4)
def check_antipode_axioms(limit: int) -> str:
    return _each_diagram(_antipode_identities, limit)


@_check("hopf", "domain-class sums absorb permutations and merge generators", 4)
def check_ideal_lemma(limit: int) -> str:
    for n in range(limit + 1):
        for a in set_partitions(n):
            za = domain_class_sum(a)
            for sigma in all_permutations(n):
                left = Element((left_compose_perm(sigma, f), c) for f, c in za.terms.items())
                if left != za:
                    return _fail(f"left absorption fails for {a}, {sigma}")
                moved = hopf.right_action(za, from_permutation(sigma))
                expected = domain_class_sum(partition_action(sigma.inverse(), a))
                if moved != expected:
                    return _fail(f"right relabeling fails for {a}, {sigma}")
            labels = a.position_labels()
            for i in range(1, n):
                res = hopf.right_action(za, merge_generator(n, i))
                k1, k2 = labels[i - 1], labels[i]
                if k1 == k2:
                    if res != za:
                        return _fail(f"same-block merge fails for {a}, i={i}")
                else:
                    s1 = len(a.blocks[k1])
                    s2 = len(a.blocks[k2])
                    merged_blocks = [
                        b for k, b in enumerate(a.blocks) if k not in (k1, k2)
                    ]
                    merged_blocks.append(a.blocks[k1] + a.blocks[k2])
                    merged = SetPartition.from_blocks(n, merged_blocks)
                    coeff = math.comb(s1 + s2, s1)
                    if res != coeff * domain_class_sum(merged):
                        return _fail(f"merge rule fails for {a}, i={i}")
    return f"checked n <= {limit}"


@_check("hopf", "the span of domain-class sums is a right ideal", 4)
def check_right_ideal(limit: int) -> str:
    for n in range(limit + 1):
        elems, index, table = _composition_table(n)
        size = len(elems)
        for a in set_partitions(n):
            # z_a h has the terms compose(f, h), read off the table row of each f
            rows = [(index[f] * size, c) for f, c in domain_class_sum(a).terms.items()]
            for j, h in enumerate(elems):
                moved = Element((elems[table[row + j]], c) for row, c in rows)
                try:
                    from_element(moved)
                except ValueError as exc:
                    return _fail(f"a={a}, h={h}: {exc}")
    return f"checked n <= {limit}"


@_check("hopf", "expected primitive and non-primitive elements")
def check_primitives() -> str:
    one = Element.basis(identity(1))
    if not hopf.is_primitive(one):
        return _fail("the degree-1 element is not primitive")
    b1 = Element.basis(merge_generator(2, 1))
    if not hopf.is_primitive(b1):
        return _fail("the merge generator of degree 2 is not primitive")
    if hopf.is_primitive(Element.basis(identity(2))):
        return _fail("the degree-2 identity should not be primitive")
    f1 = from_block_images(3, [((1, 3), (1, 2)), ((2,), (3,))])
    f2 = from_block_images(3, [((1,), (3,)), ((2, 3), (1, 2))])
    if not hopf.is_primitive(Element.basis(f1) - Element.basis(f2)):
        return _fail("the degree-3 difference element is not primitive")
    return ""


def _word_shuffle_product(u: tuple[int, ...], v: tuple[int, ...]) -> Counter:
    """Independent shuffle-relabeling product on one-line words."""
    p, q = len(u), len(v)
    out: Counter = Counter()
    universe = range(1, p + q + 1)
    for chosen in itertools.combinations(universe, p):
        taken = set(chosen)
        rest = [x for x in universe if x not in taken]
        word = tuple(chosen[a - 1] for a in u) + tuple(rest[b - 1] for b in v)
        out[word] += 1
    return out


@_check("hopf", "permutations close under product/coproduct and match word shuffles", 4)
def check_permutation_subalgebra(limit: int) -> str:
    perms = [all_permutations(n) for n in range(limit + 1)]
    basis = {s: Element.basis(from_permutation(s)) for ps in perms for s in ps}
    for sigma, tau in _graded(perms):
        got: Counter = Counter()
        for f, c in hopf.product(basis[sigma], basis[tau]).terms.items():
            if not f.is_permutation():
                return _fail(f"non-permutation term in {sigma}*{tau}")
            got[f.to_permutation().images] += c
        if got != _word_shuffle_product(sigma.images, tau.images):
            return _fail(f"word-shuffle oracle disagrees at {sigma}, {tau}")
    for sigma in itertools.chain(*perms):
        for a, b in hopf.coproduct(basis[sigma]).terms:
            if not (a.is_permutation() and b.is_permutation()):
                return _fail(f"coproduct of {sigma} leaves the subalgebra")
    return f"total degree <= {limit}"


# ---------------------------------------------------------------------------
# duality suite


@_check("duality", "pairing is the diagram-inversion permutation form", 4)
def check_pairing_basics(limit: int) -> str:
    for n in range(limit + 1):
        elems = enumerate_ubp(n)
        basis = {f: Element.basis(f) for f in elems}
        inverse = {f: diagram_inverse(f) for f in elems}
        for f, g in itertools.product(elems, repeat=2):
            expected = 1 if g == inverse[f] else 0
            if hopf.pairing(basis[f], basis[g]) != expected:
                return _fail(f"fails at {f}, {g}")
            if hopf.pairing(basis[g], basis[f]) != expected:
                return _fail(f"not symmetric at {f}, {g}")
    return f"degree <= {limit}"


@_check("duality", "the pairing turns the product into the coproduct", 4)
def check_duality_adjunction(limit: int) -> str:
    """<xy, z> = <x (x) y, Delta z> for all basis diagrams x, y, z.  The left
    side is the coefficient of z^-1 in xy and the right side that of
    (x^-1, y^-1) in Delta z, so both tables below are indexed by (x, y, z)."""
    elems = [enumerate_ubp(n) for n in range(limit + 1)]
    for deg in range(limit + 1):
        products = {
            (x, y, diagram_inverse(w)): c
            for p in range(deg + 1)
            for x in elems[p]
            for y in elems[deg - p]
            for w, c in hopf.product(Element.basis(x), Element.basis(y)).terms.items()
        }
        coproducts = {
            (diagram_inverse(a), diagram_inverse(b), z): c
            for z in elems[deg]
            for (a, b), c in hopf.coproduct(Element.basis(z)).terms.items()
        }
        if products != coproducts:
            x, y, z = min(
                key
                for key in products.keys() | coproducts.keys()
                if products.get(key) != coproducts.get(key)
            )
            return _fail(f"fails at degrees {x.n},{y.n} on {z}")
    return f"degree <= {limit}"


# ---------------------------------------------------------------------------
# bases suite (weak order and the two triangular bases)


def _basis_roundtrip(to_basis, from_basis, limit: int) -> str:
    """Both compositions of a basis change and its inverse fix every diagram."""
    for n in range(limit + 1):
        for f in enumerate_ubp(n):
            e = Element.basis(f)
            if to_basis(from_basis(e)) != e:
                return _fail(f"coords->expand->coords fails at {f}")
            if from_basis(to_basis(e)) != e:
                return _fail(f"expand->coords->expand fails at {f}")
    return f"degree <= {limit}"


def _basis_product(from_basis, rule: Callable, limit: int) -> str:
    """The basis vectors of g1 and g2 multiply to the basis vector of
    rule(g1, g2)."""
    elems, basis = _basis_by_degree(limit)
    vector = {g: from_basis(x) for g, x in basis.items()}
    for g1, g2 in _graded(elems):
        if hopf.product(vector[g1], vector[g2]) != from_basis(basis[rule(g1, g2)]):
            return _fail(f"fails at {g1}, {g2}")
    return f"total degree <= {limit}"


@_check("bases", "lower-sum basis change is an exact round trip", 4)
def check_lower_basis_roundtrip(limit: int) -> str:
    return _basis_roundtrip(hopf.to_lower_basis, hopf.from_lower_basis, limit)


@_check("bases", "upper-sum basis change is an exact round trip", 4)
def check_upper_basis_roundtrip(limit: int) -> str:
    return _basis_roundtrip(hopf.to_upper_basis, hopf.from_upper_basis, limit)


@_check("bases", "lower-sum basis multiplies through the maximal shuffle", 4)
def check_lower_basis_product(limit: int) -> str:
    rule = lambda g1, g2: left_compose_perm(max_shuffle(g1.n, g2.n), concat(g1, g2))
    return _basis_product(hopf.from_lower_basis, rule, limit)


@_check("bases", "upper-sum basis multiplies by concatenation", 4)
def check_upper_basis_product(limit: int) -> str:
    return _basis_product(hopf.from_upper_basis, concat, limit)


@_check("bases", "upper sums at partition identities are the domain-class sums", 4)
def check_upper_basis_domain_sums(limit: int) -> str:
    for n in range(limit + 1):
        for a in set_partitions(n):
            lhs = hopf.from_upper_basis(Element.basis(id_of_partition(a)))
            if lhs != domain_class_sum(a):
                return _fail(f"fails at {a}")
    return f"degree <= {limit}"


@_check("bases", "primitive dimensions by series inversion", 6)
def check_series(limit: int) -> str:
    v = hopf.primitive_series(limit)
    if v != FIRST_PRIMITIVE_DIMS[:limit]:
        return _fail(f"got {v}")
    u = hopf.counts_from_primitives(v)
    if u != FIRST_COUNTS[: limit + 1]:
        return _fail(f"recomposition gives {u}")
    return f"degrees 1..{limit}"


# ---------------------------------------------------------------------------
# ncsym suite


@_check("ncsym", "power-sum truncations have one word per block colouring", 4)
def check_power_sum_counts(limit: int) -> str:
    for n in range(limit + 1):
        for a in set_partitions(n):
            for k in (1, 2, 3):
                words = power_sum_words(a, k)
                if len(words) != k**a.num_blocks:
                    return _fail(f"a={a}, k={k}: {len(words)} words")
                if len(set(words)) != len(words):
                    return _fail(f"a={a}, k={k}: duplicate words")
    return f"degree <= {limit}"


@_check("ncsym", "power-sum truncations are stable under renaming the letters", 4)
def check_power_sum_invariance(limit: int) -> str:
    for n in range(limit + 1):
        for a in set_partitions(n):
            words = power_sum_words(a, 3)
            for sigma in all_permutations(3):
                renamed = sorted(tuple(sigma(x) for x in w) for w in words)
                if renamed != words:
                    return _fail(f"a={a}: fails under {sigma}")
    return f"degree <= {limit}, alphabet of 3"


@_check("ncsym", "p-basis product matches word concatenation", 5)
def check_p_product_oracle(limit: int) -> str:
    parts = [set_partitions(n) for n in range(limit + 1)]
    words = {(a, k): power_sum_words(a, k) for ps in parts for a in ps for k in (1, 2, 3)}
    for a, b in _graded(parts):
        prod = p_product(NCSymElement.basis(a), NCSymElement.basis(b))
        if prod != NCSymElement.basis(cross(a, b)):
            return _fail(f"fails at {a}, {b}")
        for k in (1, 2, 3):
            concat_words = Counter(wa + wb for wa in words[a, k] for wb in words[b, k])
            if concat_words != Counter(power_sum_words(cross(a, b), k)):
                return _fail(f"oracle disagrees at {a}, {b}, k={k}")
    return f"total degree <= {limit}, alphabets <= 3"


@_check("ncsym", "p-basis coproduct matches two-alphabet word counting", 4)
def check_p_coproduct_oracle(limit: int) -> str:
    k1 = k2 = 2
    for n in range(limit + 1):
        for a in set_partitions(n):
            delta = p_coproduct(NCSymElement.basis(a))
            expected: Counter = Counter()
            for (left, right), c in delta.terms.items():
                for wl in power_sum_words(left, k1):
                    for wr in power_sum_words(right, k2):
                        expected[(wl, wr)] += c
            labels = a.position_labels()
            actual: Counter = Counter()
            for colours in itertools.product(
                range(1, k1 + k2 + 1), repeat=a.num_blocks
            ):
                word = [colours[labels[i]] for i in range(n)]
                wl = tuple(x for x in word if x <= k1)
                wr = tuple(x - k1 for x in word if x > k1)
                actual[(wl, wr)] += 1
            if +expected != +actual:
                return _fail(f"fails at {a}")
    return f"degree <= {limit}, alphabets of 2+2"


@_check("ncsym", "six-element coproduct example expands to the eight expected terms")
def check_p_coproduct_display() -> str:
    pp = parse_set_partition
    a = pp("{1,2,6}{3,5}{4}")
    delta = p_coproduct(NCSymElement.basis(a))
    empty = SetPartition(0, ())
    expected = {
        (a, empty): 1,
        (pp("{1,2,5}{3,4}"), pp("{1}")): 1,
        (pp("{1,2,4}{3}"), pp("{1,2}")): 1,
        (pp("{1,3}{2}"), pp("{1,2,3}")): 1,
        (pp("{1,2,3}"), pp("{1,3}{2}")): 1,
        (pp("{1,2}"), pp("{1,2,4}{3}")): 1,
        (pp("{1}"), pp("{1,2,5}{3,4}")): 1,
        (empty, a): 1,
    }
    if dict(delta.terms) != expected:
        return _fail(f"got {delta}")
    return ""


@_check("ncsym", "the p-basis and the domain-class sums exchange product and coproduct", 4)
def check_transport(limit: int) -> str:
    parts = [set_partitions(n) for n in range(limit + 1)]
    lifted = {a: to_element(NCSymElement.basis(a)) for ps in parts for a in ps}
    for a, b in _graded(parts):
        rhs = to_element(p_product(NCSymElement.basis(a), NCSymElement.basis(b)))
        if hopf.product(lifted[a], lifted[b]) != rhs:
            return _fail(f"product transport fails at {a}, {b}")
    for a in itertools.chain(*parts):
        rhs = TensorElement(
            ((fl, fr), c * cl * cr)
            for (left, right), c in p_coproduct(NCSymElement.basis(a)).terms.items()
            for fl, cl in lifted[left].terms.items()
            for fr, cr in lifted[right].terms.items()
        )
        if hopf.coproduct(lifted[a]) != rhs:
            return _fail(f"coproduct transport fails at {a}")
    return f"total degree <= {limit}"


@_check("ncsym", "embedding into the diagram algebra round-trips", 4)
def check_roundtrip_embedding(limit: int) -> str:
    for n in range(limit + 1):
        for a in set_partitions(n):
            u = NCSymElement.basis(a)
            if from_element(to_element(u)) != u:
                return _fail(f"fails at {a}")
    bad = Element.basis(identity(2))
    try:
        from_element(bad)
    except ValueError:
        pass
    else:
        return _fail("accepted an element outside the span")
    return f"degree <= {limit}"


# ---------------------------------------------------------------------------
# schurweyl suite


@_check("schurweyl", "action matrices reverse composition in exactly one orientation", 3)
def check_action_orientation(limit: int) -> str:
    saw_noncommuting = False
    for n in range(limit + 1):
        for m in (2, 3):
            maps = {f: schurweyl._diagram_targets(f, m) for f in enumerate_ubp(n)}
            for f, g in itertools.product(maps, repeat=2):
                lhs = schurweyl._map_product(maps[g], maps[f])
                if schurweyl._diagram_targets(compose(g, f), m) != lhs:
                    return _fail(f"pinned orientation fails at n={n}, m={m}")
                if lhs != schurweyl._map_product(maps[f], maps[g]):
                    saw_noncommuting = True
    if limit >= 3 and not saw_noncommuting:
        # below degree 3 all the matrices commute, so no witness can exist
        return _fail("both orientations held everywhere; nothing is pinned")
    return f"checked n <= {limit}, m <= 3"


@_check("schurweyl", "generator matrices satisfy the monoid relations", 3)
def check_generator_matrix_relations(limit: int) -> str:
    for n in range(2, limit + 1):
        for m in (2, 3):
            s, b = (
                {i: schurweyl._diagram_targets(gen(n, i), m) for i in range(1, n)}
                for gen in (transposition_generator, merge_generator)
            )
            one = list(range(m**n))
            failure = _relation_failure(n, s, b, one, schurweyl._map_product)
            if failure:
                return _fail(f"n={n}, m={m}: {failure}")
    return f"checked n <= {limit}, m <= 3"


@_check("schurweyl", "direct action matrices match generator-word products", 3)
def check_generator_factorization_route(limit: int) -> str:
    for n in range(limit + 1):
        for m in (2, 3):
            gens = schurweyl.monoid_generators(n)
            gen_maps = [schurweyl._diagram_targets(g, m) for g in gens]
            routes: dict[UBP, tuple[int, ...]] = {identity(n): ()}
            frontier = [identity(n)]
            while frontier:
                fresh = []
                for x in frontier:
                    for gi, g in enumerate(gens):
                        y = compose(g, x)
                        if y not in routes:
                            routes[y] = routes[x] + (gi,)
                            fresh.append(y)
                frontier = fresh
            for f, route in routes.items():
                action = list(range(m**n))
                for gi in route:
                    action = schurweyl._map_product(gen_maps[gi], action)
                if action != schurweyl._diagram_targets(f, m):
                    return _fail(f"routes disagree for {f} at m={m}")
    return f"checked n <= {limit}, m <= 3"


@_check("schurweyl", "diagram action commutes with the wreath-product action", 8)
def check_commutation(limit: int) -> str:
    cases = 0
    for n in range(1, limit + 1):
        for m in range(1, 257):
            if m**n > 256:
                break
            diagrams, groups = schurweyl._commutation_maps(n, m)
            gcds = [schurweyl._commuting_gcd(a, b, e) for a in diagrams for b, e in groups]
            for r in range(1, 5):
                if not all(g is not None and g % r == 0 for g in gcds):
                    return _fail(f"fails at (n,m,r)=({n},{m},{r})")
                cases += 1
    return f"{cases} cases with dimension <= 256, root order <= 4"


@_check("schurweyl", "action matrices span a space of the full monoid dimension", 3)
def check_span_ranks(limit: int) -> str:
    targets = [(1, 1), (2, 4), (3, 6)]
    for n, m in targets:
        if n > limit:
            continue
        rank = schurweyl.action_span_rank(n, m)
        if rank != count_ubp(n):
            return _fail(f"(n,m)=({n},{m}): rank {rank}")
    return f"checked degrees up to {limit} at doubled dimension"


@_check("schurweyl", "tensor-algebra convolution realizes the shuffle product", 4)
def check_convolution(limit: int) -> str:
    m = 2
    elems, basis = _basis_by_degree(limit)
    for f, g in _graded(elems):
        conv = schurweyl.convolution_action(f, g, m)
        prod = hopf.product(basis[f], basis[g])
        if conv != schurweyl.element_action_matrix(prod, m):
            return _fail(f"fails at {f}, {g}")
    return f"total degree <= {limit}, m = {m}"


# ---------------------------------------------------------------------------
# running suites


SUITES["all"] = [fn for fns in SUITES.values() for fn in fns]


def run_check(fn: Callable[..., Check], max_n: int | None = None) -> Check:
    """Run one registered check.  A crash is a failed check, named by the
    check's title, but a negative bound or a refusal by the enumeration
    ceiling propagates: no law was tested."""
    _refuse_negative(max_n)
    try:
        return fn(max_n)
    except EnumerationCeilingError:
        raise
    except Exception as exc:  # a crash is a failure, not an abort
        return Check(fn.title, False, f"raised {exc!r}")


def run_suite(
    suite: str, max_n: int | None = None, jobs: int = 1
) -> list[Check]:
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}"
        )
    _refuse_negative(max_n)
    _refuse_no_workers(jobs)
    fns = SUITES[suite]
    workers = min(jobs, len(fns), os.cpu_count() or 1)
    if workers <= 1:
        return [run_check(fn, max_n) for fn in fns]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_check, fn, max_n) for fn in fns]
        try:
            return [fut.result() for fut in futures]
        except EnumerationCeilingError:
            pool.shutdown(cancel_futures=True)
            raise
