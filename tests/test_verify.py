"""Each verify check that compares two computations fails when one of them
is broken on purpose, and every check is registered once, under its title
and bound."""

import inspect
from collections import Counter

import pytest

from blockperm import hopf, monoid, schurweyl, verify
from blockperm.hopf import Element, TensorElement
from blockperm.monoid import (
    EnumerationCeilingError,
    count_ubp,
    diagram_inverse,
    enumerate_ubp,
    identity,
    merge_generator,
    transposition_generator,
)
from blockperm.partitions import block_shuffles, parse_set_partition, set_partitions
from blockperm.perms import Permutation

SUITE_KEYS = ["monoid", "hopf", "duality", "bases", "ncsym", "schurweyl"]


@pytest.fixture
def cold_composition_table():
    """Empty the per-degree composition tables before and after a test that
    patches or counts ``verify.compose``: a warm table would hide the patch,
    and a table built under it must not reach later tests."""
    verify._compositions.cache_clear()
    yield
    verify._compositions.cache_clear()


def test_dropped_coproduct_term_is_caught(monkeypatch):
    coproduct = hopf.coproduct

    def lossy(x):
        delta = coproduct(x)
        if x.degrees() != {3}:
            return delta
        key = min(delta.terms)
        return delta - TensorElement.basis(key, delta.coeff(key))

    monkeypatch.setattr(hopf, "coproduct", lossy)
    assert verify.check_duality_adjunction(3).passed is False
    assert verify.check_hopf_coassociativity(3).passed is False


def test_antipode_with_a_flipped_sign_is_caught(monkeypatch):
    antipode = hopf.antipode
    monkeypatch.setattr(
        hopf, "antipode", lambda x: -antipode(x) if x.degrees() == {3} else antipode(x)
    )
    check = verify.check_antipode_axioms(3)
    assert check.passed is False
    assert check.detail == f"fails for {enumerate_ubp(3)[0]}"
    assert not all(verify._antipode_identities(f) for f in enumerate_ubp(3))
    assert all(verify._antipode_identities(f) for f in enumerate_ubp(2))


def test_counit_at_degree_one_is_caught(monkeypatch):
    counit = hopf.counit
    monkeypatch.setattr(hopf, "counit", lambda x: 1 if x.degrees() == {1} else counit(x))
    check = verify.check_counit_axiom(3)
    assert check.passed is False
    assert check.detail == f"fails for {identity(1)}"


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_stray_basis_term_is_caught(monkeypatch, side):
    expand = getattr(hopf, f"from_{side}_basis")
    stray = Element.basis(identity(2))
    monkeypatch.setattr(
        hopf,
        f"from_{side}_basis",
        lambda x: expand(x) + stray if 2 in x.degrees() else expand(x),
    )
    assert getattr(verify, f"check_{side}_basis_roundtrip")(3).passed is False
    assert getattr(verify, f"check_{side}_basis_product")(3).passed is False


@pytest.fixture
def cold_components():
    """Empty the weak-order component cache before and after a test that
    patches the masks it stores."""
    monoid._component.cache_clear()
    yield
    monoid._component.cache_clear()


def test_order_with_only_trivial_relations_is_caught(monkeypatch, cold_components):
    # One new bit per permutation: each block shuffle is comparable only to
    # itself, so both sum bases collapse to the diagram basis.
    bits: dict = {}
    monkeypatch.setattr(monoid, "_inversion_mask", lambda w: 1 << bits.setdefault(w, len(bits)))
    for side in ("lower", "upper"):
        assert getattr(verify, f"check_{side}_basis_roundtrip")(3).passed is False
        assert getattr(verify, f"check_{side}_basis_product")(3).passed is False


def test_broken_absorption_is_caught_on_diagrams(monkeypatch, cold_composition_table):
    b1, s1 = merge_generator(2, 1), transposition_generator(2, 1)
    compose = verify.compose
    monkeypatch.setattr(
        verify, "compose", lambda g, f: f if (g, f) == (b1, s1) else compose(g, f)
    )
    check = verify.check_presentation_relations(2)
    assert check.passed is False
    assert check.detail == "n=2: b_1 s_1 = s_1 b_1 = b_1 fails"


def test_broken_absorption_is_caught_on_matrices(monkeypatch):
    # b_1 acting as the identity keeps b_1^2 = b_1 but breaks b_1 s_1 = b_1.
    b1 = merge_generator(2, 1)
    targets = schurweyl._diagram_targets
    monkeypatch.setattr(
        schurweyl,
        "_diagram_targets",
        lambda f, m: list(range(m**f.n)) if f == b1 else targets(f, m),
    )
    check = verify.check_generator_matrix_relations(2)
    assert check.passed is False
    assert check.detail == "n=2, m=2: b_1 s_1 = s_1 b_1 = b_1 fails"


def test_swapped_map_product_is_caught(monkeypatch):
    # Degree 2 is commutative; the first witness is at degree 3.
    map_product = schurweyl._map_product
    monkeypatch.setattr(schurweyl, "_map_product", lambda a, b: map_product(b, a))
    assert verify.check_action_orientation(2).passed is True
    check = verify.check_action_orientation(3)
    assert check.passed is False
    assert check.detail == "pinned orientation fails at n=3, m=2"


def test_generator_map_killing_an_extra_word_is_caught(monkeypatch):
    # b_1 of degree 3 keeps the word (1, 1, 1), index 0.  Killing it there
    # leaves b_1's own one-letter route intact and breaks longer routes
    # through b_1 that keep the word.
    b1 = merge_generator(3, 1)
    targets = schurweyl._diagram_targets

    def lossy(f, m):
        out = targets(f, m)
        if f == b1:
            assert out[0] == 0
            out[0] = -1
        return out

    monkeypatch.setattr(schurweyl, "_diagram_targets", lossy)
    check = verify.check_generator_factorization_route(3)
    assert check.passed is False
    assert check.detail == "routes disagree for {1,3}->{1,2};{2}->{3} at m=2"


def test_wrong_root_exponent_is_caught_mod_r(monkeypatch):
    # Word 1 is (1, ..., 1, 2), which s_{n-1} moves; one more root power on
    # it breaks commutation for every r >= 2 and is invisible mod 1.
    group_map = schurweyl._group_map

    def off_by_one(g, n, m):
        targets, exponents = group_map(g, n, m)
        if len(exponents) > 1:
            exponents[1] += 1
        return targets, exponents

    monkeypatch.setattr(schurweyl, "_group_map", off_by_one)
    check = verify.check_commutation()
    assert check.passed is False
    assert check.detail == "fails at (n,m,r)=(2,2,2)"
    for n in range(1, 9):
        for m in range(1, 17):
            if m**n > 256:
                break
            assert all(c for *_, c in schurweyl.commutation_pairs(n, m, 1)), (n, m)


def test_extra_killed_word_is_caught(monkeypatch):
    # Every diagram keeps the constant word (1, ..., 1).  Killing it shows
    # at the first case with a letter swap, which moves that word.
    diagram_targets = schurweyl._diagram_targets

    def lossy(f, m):
        targets = diagram_targets(f, m)
        targets[0] = -1
        return targets

    monkeypatch.setattr(schurweyl, "_diagram_targets", lossy)
    check = verify.check_commutation()
    assert check.passed is False
    assert check.detail == "fails at (n,m,r)=(2,2,1)"


def test_commutation_decides_each_generator_pair_once(monkeypatch):
    # The gcd of a pair's exponent differences decides every root order, so
    # the four orders share one walk of each pair's word maps.
    calls = []
    commuting_gcd = schurweyl._commuting_gcd

    def counted(a, b, e):
        calls.append(a)
        return commuting_gcd(a, b, e)

    monkeypatch.setattr(schurweyl, "_commuting_gcd", counted)
    pairs = 0
    for n in range(1, 9):
        for m in range(1, 257):
            if m**n > 256:
                break
            diagrams, groups = schurweyl._commutation_maps(n, m)
            pairs += len(diagrams) * len(groups)
    check = verify.check_commutation()
    assert check.passed and check.detail == "1164 cases with dimension <= 256, root order <= 4"
    assert len(calls) == pairs > 0


def test_relabeling_laws_act_on_each_partition_once_per_sigma(monkeypatch):
    # At degree n <= 4 there are n! * B(n) pairs (sigma, partition), 396 in
    # all.  Each is taken twice: as sigma's image, and as the preimage under
    # the permutation whose inverse is sigma.
    calls = Counter()
    partition_action = verify.partition_action

    def counted(sigma, a):
        calls[sigma, a] += 1
        return partition_action(sigma, a)

    monkeypatch.setattr(verify, "partition_action", counted)
    assert verify.check_relabeling_laws(4).detail == "checked n <= 4"
    assert len(calls) == 396 and set(calls.values()) == {2}


def nested_loops(by_degree, arity):
    """The case order of the graded batteries, written as explicit loops."""
    limit = len(by_degree) - 1
    cases = []
    for p in range(limit + 1):
        for q in range(limit + 1 - p):
            if arity == 2:
                cases += [(x, y) for x in by_degree[p] for y in by_degree[q]]
            else:
                for r in range(limit + 1 - p - q):
                    cases += [
                        (x, y, z)
                        for x in by_degree[p]
                        for y in by_degree[q]
                        for z in by_degree[r]
                    ]
    return cases


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("limit", range(5))
def test_graded_matches_nested_loops(limit, arity):
    # Degree d has d + 1 items (two at degree 0), so the order is visible.
    by_degree = [[(d, i) for i in range(max(d + 1, 2))] for d in range(limit + 1)]
    assert list(verify._graded(by_degree, arity)) == nested_loops(by_degree, arity)


def test_wrong_inverse_is_caught(monkeypatch):
    s1 = transposition_generator(3, 1)
    monkeypatch.setattr(
        verify, "diagram_inverse", lambda f: identity(3) if f == s1 else diagram_inverse(f)
    )
    check = verify.check_inverse_monoid(3)
    assert check.passed is False
    assert check.detail.startswith("n=3: ")


def test_asymmetric_pairing_is_caught(monkeypatch):
    e0, e1 = (Element.basis(f) for f in enumerate_ubp(2)[:2])
    pairing = hopf.pairing
    monkeypatch.setattr(
        hopf, "pairing", lambda x, y: pairing(x, y) + ((x, y) == (e1, e0))
    )
    check = verify.check_pairing_basics(2)
    assert check.passed is False
    assert check.detail.startswith("not symmetric at ")


def test_dropped_product_term_is_caught(monkeypatch):
    product = hopf.product

    def lossy(x, y):
        xy = product(x, y)
        if (x.degrees(), y.degrees()) != ({2}, {1}):
            return xy
        key = min(xy.terms)
        return xy - Element.basis(key, xy.coeff(key))

    monkeypatch.setattr(hopf, "product", lossy)
    assert verify.check_hopf_associativity(3).passed is False
    assert verify.check_bialgebra_compatibility(3).passed is False
    assert verify.check_convolution(3).passed is False


E3, S1, W0 = (Permutation(w) for w in [(1, 2, 3), (2, 1, 3), (3, 2, 1)])
SINGLETONS = parse_set_partition("{1}{2}{3}")


@pytest.mark.parametrize(
    "broken, detail",
    [
        (lambda leq, s, t: (s, t) != (E3, W0) and leq(s, t), "n=3: transitivity fails"),
        (
            lambda leq, s, t: (s, t) == (W0, E3) or leq(s, t),
            "n=3: antisymmetry fails on [1,2,3], [3,2,1]",
        ),
        (
            lambda leq, s, t: (s, t) != (S1, S1) and leq(s, t),
            "n=3: not reflexive at [2,1,3]",
        ),
    ],
    ids=["without-e-below-w0", "with-w0-below-e", "irreflexive"],
)
def test_broken_weak_order_is_caught(monkeypatch, broken, detail):
    weak_leq = verify.weak_leq
    monkeypatch.setattr(verify, "weak_leq", lambda s, t: broken(weak_leq, s, t))
    assert verify.check_weak_order_poset(5) == verify.Check(
        "weak order is a partial order on permutations", False, detail
    )


def test_closure_out_of_order_is_caught(monkeypatch):
    closure = verify.closure_from_generators
    monkeypatch.setattr(verify, "closure_from_generators", lambda n: closure(n)[::-1])
    assert verify.check_counts_enumeration(5) == verify.Check(
        "counts: enumeration and generator closure match the formula",
        False,
        "n=2: closure has 3 elements",
    )


@pytest.mark.parametrize(
    "fault, detail",
    [
        (lambda c: c[:5] + c[4:], "n=3: closure has 17 elements"),
        (lambda c: c[:4] + c[5:], "n=3: closure has 15 elements"),
        # The right length is not enough: one element stands in for another.
        (lambda c: c[:5] + c[4:-1], "n=3: closure has 16 elements"),
    ],
    ids=["one-duplicated", "one-dropped", "one-duplicated-one-dropped"],
)
def test_closure_with_a_duplicate_or_a_gap_is_caught(monkeypatch, fault, detail):
    # A tree search emits a diagram twice if two parents claim it, and never
    # if none does; a merge rule without its singleton condition does the first.
    closure = verify.closure_from_generators
    monkeypatch.setattr(
        verify, "closure_from_generators", lambda n: fault(closure(n)) if n == 3 else closure(n)
    )
    assert verify.check_counts_enumeration(5) == verify.Check(
        "counts: enumeration and generator closure match the formula", False, detail
    )


def test_block_shuffles_missing_the_identity_are_caught(monkeypatch):
    shuffles = verify.block_shuffles
    monkeypatch.setattr(
        verify, "block_shuffles", lambda a: shuffles(a)[1:] if a == SINGLETONS else shuffles(a)
    )
    check = verify.check_shuffle_posets(5)
    assert check.passed is False
    assert check.detail == "a={1}{2}{3}: block shuffles not a lower ideal"


def test_inverse_convention_fails_the_shuffle_battery(monkeypatch):
    # The perms docstring: inversions of the inverse permutation fail.
    weak_leq = verify.weak_leq
    monkeypatch.setattr(
        verify, "weak_leq", lambda s, t: weak_leq(s.inverse(), t.inverse())
    )
    check = verify.check_shuffle_posets(5)
    assert check.passed is False
    assert check.detail == "(p,q)=(1,2): [2,1,3] not below maximum"


def test_hasse_edge_from_minimum_to_maximum_is_caught(monkeypatch):
    hasse_component = verify.hasse_component

    def with_long_edge(a):
        nodes, covers = hasse_component(a)
        if a != SINGLETONS:
            return nodes, covers
        # The minimum is below every node, the maximum only below itself.
        above = [sum(monoid.weak_leq(f, g) for g in nodes) for f in nodes]
        lo, hi = above.index(len(nodes)), above.index(1)
        return nodes, covers + [(lo, hi)]

    monkeypatch.setattr(verify, "hasse_component", with_long_edge)
    check = verify.check_hasse_components(4)
    assert check.passed is False
    assert check.detail == "a={1}{2}{3}: cover not a cover"


@pytest.mark.parametrize(
    "check, binding, pairs",
    [
        (verify.check_weak_order_poset, "weak_leq", 15018),  # sum of n!^2, n <= 5
        (verify.check_shuffle_posets, "weak_leq", 15018),
        (
            verify.check_hasse_components,
            "ubp_weak_leq",
            # sum of |component|^2 over the partitions of degree <= 4
            sum(len(block_shuffles(a)) ** 2 for n in range(5) for a in set_partitions(n)),
        ),
    ],
)
def test_weak_order_batteries_decide_each_pair_once(monkeypatch, check, binding, pairs):
    calls = Counter()
    leq = getattr(verify, binding)

    def counted(x, y):
        calls[x, y] += 1
        return leq(x, y)

    monkeypatch.setattr(verify, binding, counted)
    assert check().passed
    assert len(calls) == sum(calls.values()) == pairs


def test_every_check_is_registered_in_exactly_one_suite():
    defined = {
        obj for name, obj in vars(verify).items() if name.startswith("check_")
    }
    registered = Counter(fn for key in SUITE_KEYS for fn in verify.SUITES[key])
    assert set(registered) == defined
    assert set(registered.values()) == {1}


def test_titles_are_unique():
    titles = [fn.title for fn in verify.SUITES["all"]]
    assert len(titles) == len(set(titles)) == 45


def test_all_is_the_six_suites_in_key_order():
    assert list(verify.SUITES) == SUITE_KEYS + ["all"]
    assert verify.SUITES["all"] == [
        fn for key in SUITE_KEYS for fn in verify.SUITES[key]
    ]


def test_crash_is_reported_under_the_title(monkeypatch):
    def broken(x):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(hopf, "is_primitive", broken)
    assert verify.run_check(verify.check_primitives, 2) == verify.Check(
        "expected primitive and non-primitive elements",
        False,
        "raised RuntimeError('broken on purpose')",
    )


def test_ceiling_refusal_propagates(monkeypatch):
    monkeypatch.setenv("BLOCKPERM_CEILING", "2")
    with pytest.raises(EnumerationCeilingError):
        verify.run_check(verify.check_inverse_monoid, 3)


def test_ceiling_refusal_propagates_from_a_warm_table(monkeypatch):
    verify._composition_table(3)
    monkeypatch.setenv("BLOCKPERM_CEILING", "2")
    with pytest.raises(EnumerationCeilingError):
        verify._composition_table(3)
    with pytest.raises(EnumerationCeilingError):
        verify.run_check(verify.check_inverse_monoid, 3)


@pytest.mark.parametrize("n", range(4))
def test_composition_table_is_compose_by_index(n):
    elems, index, table = verify._composition_table(n)
    assert list(elems) == enumerate_ubp(n)
    assert index == {f: i for i, f in enumerate(elems)}
    assert table.typecode == "H" and len(table) == len(elems) ** 2
    assert [elems[k] for k in table] == [
        monoid.compose(g, f) for g in elems for f in elems
    ]


def test_wrong_table_entry_is_caught(monkeypatch):
    # s_1 b_2 of degree 3 read as the identity; every other entry is right.
    s1, b2 = transposition_generator(3, 1), merge_generator(3, 2)
    tabulate = verify._composition_table

    def one_wrong(n):
        elems, index, table = tabulate(n)
        if n == 3:
            table = table[:]  # a copy: the cached table stays right
            table[index[s1] * len(elems) + index[b2]] = index[identity(3)]
        return elems, index, table

    monkeypatch.setattr(verify, "_composition_table", one_wrong)
    assert verify.check_inverse_monoid(3) == verify.Check(
        "inverse-monoid identities and idempotent classification",
        False,
        f"n=3: (fg)~ != g~ f~ for {s1}, {b2}",
    )


def test_verify_all_tabulates_each_degree_once(monkeypatch, cold_composition_table):
    calls = Counter()
    compose = verify.compose

    def counted(g, f):
        calls[g, f] += 1
        return compose(g, f)

    monkeypatch.setattr(verify, "compose", counted)
    assert all(check.passed for check in verify.run_suite("all", max_n=4))
    info = verify._compositions.cache_info()
    assert info.misses == info.currsize == 5  # degrees 0..4
    cold = sum(calls.values())
    calls.clear()
    assert all(check.passed for check in verify.run_suite("all", max_n=4))
    assert verify._compositions.cache_info().misses == 5
    # The other checks compose the same pairs whether the tables are warm or not.
    assert cold - sum(calls.values()) == sum(count_ubp(n) ** 2 for n in range(5)) == 17428


@pytest.mark.parametrize("check", [verify.check_type_counts, verify.check_primitives])
def test_negative_bound_is_refused(check):
    with pytest.raises(ValueError, match="max_n must be non-negative, got -1"):
        check(-1)
    with pytest.raises(ValueError, match="max_n must be non-negative, got -1"):
        verify.run_check(check, -1)
    with pytest.raises(ValueError, match="max_n must be non-negative, got -1"):
        verify.run_suite("monoid", max_n=-1)


def test_missing_partition_type_is_caught_by_the_total(monkeypatch):
    # Without the one-block partition its type never occurs, so the per-type
    # loop has nothing to compare; only the Bell-number total sees the gap.
    set_partitions = verify.set_partitions

    def without_one_block(n):
        return [p for p in set_partitions(n) if n == 0 or p.num_blocks > 1]

    monkeypatch.setattr(verify, "set_partitions", without_one_block)
    check = verify.check_type_counts(4)
    assert check.passed is False
    assert check.detail == "n=1: bad total"


def test_verify_all_builds_each_component_once():
    monoid._component.cache_clear()
    assert all(check.passed for check in verify.run_suite("all", max_n=4))
    info = monoid._component.cache_info()
    assert info.currsize == 24  # the partitions of degree <= 4
    assert info.misses == 24


def test_signature_is_the_call_not_the_body():
    assert str(inspect.signature(verify.check_type_counts)) == (
        "(max_n: 'int | None' = None) -> 'Check'"
    )


def test_body_runs_past_the_bound():
    assert verify.check_type_counts(7).detail == "checked n <= 6"
    assert verify.check_type_counts.body(7) == "checked n <= 7"


def test_bound_zero_checks_degree_zero():
    assert verify.check_type_counts(0) == verify.Check(
        "partition counts by type match the multinomial formula",
        True,
        "checked n <= 0",
    )
