import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracle
from blockperm import hopf, monoid, perms
from blockperm.hopf import (
    Element,
    TensorElement,
    antipode,
    coproduct,
    counit,
    counts_from_primitives,
    domain_class_sum,
    element_to_json,
    from_lower_basis,
    from_upper_basis,
    is_primitive,
    pairing,
    parse_element,
    primitive_series,
    product,
    right_action,
    to_lower_basis,
    to_upper_basis,
    ubp_counts,
)
from blockperm.monoid import (
    EnumerationCeilingError,
    _cut,
    breaking_points,
    compose,
    concat,
    enumerate_ubp,
    from_block_images,
    from_permutation,
    id_of_partition,
    identity,
    left_compose_perm,
    merge_generator,
    split_at_breaking_point,
    transposition_generator,
)
from blockperm.partitions import block_shuffles, parse_set_partition, set_partitions
from blockperm.perms import Permutation, all_permutations
from test_monoid import arrows
from test_perms import shuffles_by_filter


def basis(f):
    return Element.basis(f)


def ones(fs):
    return Element((f, 1) for f in fs)


def f_pair():
    f1 = from_block_images(3, [((1, 3), (1, 2)), ((2,), (3,))])
    f2 = from_block_images(3, [((1,), (3,)), ((2, 3), (1, 2))])
    return f1, f2


def product_by_definition(f, g):
    """Oracle: the sum of compose(from_permutation(xi), concat(f, g)) over
    the (f.n, g.n)-shuffles xi."""
    h = concat(f, g)
    return ones(compose(from_permutation(xi), h) for xi in shuffles_by_filter(f.n, g.n))


@pytest.fixture
def cold_hopf_caches():
    """Empty the per-diagram Hopf caches before and after a test that
    patches or counts a function behind them: a warm entry would hide the
    patch, and an entry computed under it must not reach later tests."""
    caches = (hopf._product_terms, hopf._cuts, hopf._antipode_basis)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def pairs_up_to(total):
    """Every pair of diagrams whose degrees sum to at most ``total``."""
    by_degree = [enumerate_ubp(n) for n in range(total + 1)]
    return [
        (f, g)
        for n in range(total + 1)
        for p in range(n + 1)
        for f in by_degree[p]
        for g in by_degree[n - p]
    ]


class TestProduct:
    def test_unit(self):
        one = Element.unit()
        for f in enumerate_ubp(3):
            assert product(one, basis(f)) == basis(f)
            assert product(basis(f), one) == basis(f)

    def test_degree_one_square(self):
        id1 = basis(identity(1))
        expected = basis(identity(2)) + basis(from_permutation(Permutation((2, 1))))
        assert product(id1, id1) == expected

    def test_six_term_example(self):
        p = product(basis(merge_generator(2, 1)), basis(transposition_generator(2, 1)))
        assert len(p.terms) == 6
        assert set(p.terms.values()) == {1}

    def test_grading(self):
        for f in enumerate_ubp(2):
            for g in enumerate_ubp(2):
                prod = product(basis(f), basis(g))
                assert prod.degrees() == {4}

    def test_bilinear(self):
        f, g = enumerate_ubp(2)[:2]
        h = enumerate_ubp(1)[0]
        lhs = product(basis(f) + 2 * basis(g), basis(h))
        rhs = product(basis(f), basis(h)) + 2 * product(basis(g), basis(h))
        assert lhs == rhs

    def test_matches_shuffle_definition(self, cold_hopf_caches):
        # Each pair twice: a miss fills its cached terms, a hit reads them.
        pairs = pairs_up_to(5)
        assert len(pairs) == 3701
        for f, g in pairs:
            expected = product_by_definition(f, g)
            assert product(basis(f), basis(g)) == expected
            assert product(basis(f), basis(g)) == expected
        info = hopf._product_terms.cache_info()
        assert (info.hits, info.misses) == (3701, 3701)

    def test_definition_catches_a_dropped_interleaving(self, cold_hopf_caches, monkeypatch):
        interleavings = hopf._interleavings
        monkeypatch.setattr(hopf, "_interleavings", lambda u, v: interleavings(u, v)[:-1])
        for f, g in pairs_up_to(3):
            assert product(basis(f), basis(g)) != product_by_definition(f, g)


class TestCoproduct:
    def test_empty_and_degree_one(self):
        empty = identity(0)
        assert coproduct(Element.unit()) == TensorElement.basis((empty, empty))
        id1 = identity(1)
        assert coproduct(basis(id1)) == TensorElement(
            {(id1, empty): 1, (empty, id1): 1}
        )

    def test_merge_generator_is_primitive_shape(self):
        b1 = merge_generator(2, 1)
        empty = identity(0)
        assert coproduct(basis(b1)) == TensorElement(
            {(b1, empty): 1, (empty, b1): 1}
        )

    def test_middle_terms_cancel_in_difference(self):
        f1, f2 = f_pair()
        x = basis(f1) - basis(f2)
        delta = coproduct(x)
        empty = identity(0)
        expected = TensorElement(
            {(f1, empty): 1, (empty, f1): 1, (f2, empty): -1, (empty, f2): -1}
        )
        assert delta == expected

    def test_matches_cut_definition(self, cold_hopf_caches):
        # Each diagram twice, as for products: once cold, once warm.
        diagrams = [f for n in range(6) for f in enumerate_ubp(n)]
        assert len(diagrams) == 1648
        for f in diagrams:
            expected = TensorElement((_cut(f, i), 1) for i in breaking_points(f))
            assert coproduct(basis(f)) == expected
            assert coproduct(basis(f)) == expected
        info = hopf._cuts.cache_info()
        assert (info.hits, info.misses) == (1648, 1648)


class TestCounit:
    def test_values(self):
        assert counit(Element.unit()) == 1
        assert counit(basis(transposition_generator(2, 1))) == 0


def antipode_right_recursion(f, cache=None):
    """Independent antipode via the mirrored recursion
    S(f) = -f - sum over proper breaking points of left * S(right)."""
    if cache is None:
        cache = {}
    if f in cache:
        return cache[f]
    n = f.n
    if n == 0:
        return Element.basis(f)
    out = Element.basis(f, -1)
    for i in breaking_points(f):
        if i in (0, n):
            continue
        _, left, right = split_at_breaking_point(f, i)
        out = out - product(Element.basis(left), antipode_right_recursion(right, cache))
    cache[f] = out
    return out


class TestAntipode:
    def test_degree_one(self):
        id1 = identity(1)
        assert antipode(basis(id1)) == Element.basis(id1, -1)

    def test_degree_two_identity(self):
        s1 = from_permutation(Permutation((2, 1)))
        assert antipode(basis(identity(2))) == basis(s1)

    def test_left_and_right_recursions_agree(self):
        cache = {}
        for n in range(6):
            for f in enumerate_ubp(n):
                assert antipode(basis(f)) == antipode_right_recursion(f, cache)


def count_calls(monkeypatch, fn):
    """Count calls to ``fn`` through every module binding in the package."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.split(".")[0] == "blockperm":
            for key, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


def count_permutations(monkeypatch):
    """Record every Permutation constructed."""
    built = []
    check = Permutation.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    return built


class TestCutOnce:
    """The per-diagram cuts (``hopf._cuts``) are the one place in the Hopf
    layer that cuts a diagram; they build no shuffle, and the coproduct and
    the antipode read them."""

    def test_coproduct_builds_no_permutation(self, cold_hopf_caches, monkeypatch):
        diagrams = enumerate_ubp(5)
        assert len(diagrams) == 1496
        built = count_permutations(monkeypatch)
        calls = count_calls(monkeypatch, monoid.split_at_breaking_point)
        for f in diagrams:
            coproduct(basis(f))
        assert (built, calls) == ([], [])

    def test_antipode_makes_no_split_call(self, cold_hopf_caches, monkeypatch):
        diagrams = [f for n in range(5) for f in enumerate_ubp(n)]
        calls = count_calls(monkeypatch, monoid.split_at_breaking_point)
        for f in diagrams:
            hopf._antipode_basis(f)
        assert calls == []


class TestInterleaveOnce:
    """The product reads its terms off the interleavings of the two bottom
    rows: it builds no shuffle and relabels no codomain."""

    def test_product_builds_no_permutation(self, cold_hopf_caches, monkeypatch):
        pairs = pairs_up_to(5)
        built = count_permutations(monkeypatch)
        shuffled = count_calls(monkeypatch, perms.shuffles)
        relabelled = count_calls(monkeypatch, monoid.left_compose_perm)
        for f, g in pairs:
            product(basis(f), basis(g))
        assert (built, shuffled, relabelled) == ([], [], [])


class TestBasisCaches:
    def test_caches_share_one_bound_and_are_cleared_by_the_benchmark(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        f, g = f_pair()
        assert type(hopf._product_terms(f, g)) is tuple
        assert type(hopf._cuts(f)) is tuple
        antipode(basis(f))
        caches = (hopf._product_terms, hopf._cuts, hopf._antipode_basis)
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize == hopf.BASIS_CACHE_SIZE and 0 < info.currsize
        workloads.clear_caches()
        assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)


class TestPairing:
    def test_self_paired_generators(self):
        s1 = basis(transposition_generator(2, 1))
        b1 = basis(merge_generator(2, 1))
        assert pairing(s1, s1) == 1
        assert pairing(b1, b1) == 1
        assert pairing(basis(identity(2)), s1) == 0


class TestDomainClassSums:
    def test_term_counts(self):
        za = domain_class_sum(parse_set_partition("{1,3}{2,4}"))
        assert len(za.terms) == 6
        assert set(za.terms.values()) == {1}

    def test_single_block(self):
        za = domain_class_sum(parse_set_partition("{1,2,3}"))
        assert za == basis(id_of_partition(parse_set_partition("{1,2,3}")))

    def test_singletons_sum_over_group(self):
        a = parse_set_partition("{1}{2}{3}")
        za = domain_class_sum(a)
        expected = Element({from_permutation(s): 1 for s in all_permutations(3)})
        assert za == expected

    def test_merge_rule_coefficient_two(self):
        a = parse_set_partition("{1}{2}")
        za = domain_class_sum(a)
        moved = right_action(za, merge_generator(2, 1))
        assert moved == 2 * domain_class_sum(parse_set_partition("{1,2}"))

    def test_merge_rule_same_block(self):
        a = parse_set_partition("{1,2}{3}")
        za = domain_class_sum(a)
        assert right_action(za, merge_generator(3, 1)) == za

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            right_action(domain_class_sum(parse_set_partition("{1,2}")), identity(3))

    def test_right_action_composes_each_term(self):
        # The right-ideal check reads its products off verify's composition
        # table, so right_action is pinned here: term by term against the
        # oracle's composition, for every domain class and h of degree <= 3.
        for n in range(4):
            for a in set_partitions(n):
                za = domain_class_sum(a)
                for h in enumerate_ubp(n):
                    expected = Counter()
                    for f, c in za.terms.items():
                        expected[oracle.compose(arrows(f), arrows(h))] += c
                    terms = right_action(za, h).terms.items()
                    assert {arrows(g): c for g, c in terms} == dict(expected), (a, h)


class TestPrimitivity:
    def test_rejects_non_homogeneous(self):
        x = basis(identity(1)) + basis(identity(2))
        with pytest.raises(ValueError, match="homogeneous"):
            is_primitive(x)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            is_primitive(Element.unit())

    def test_rejects_zero(self):
        for call in (Element().degree, lambda: is_primitive(Element())):
            with pytest.raises(ValueError, match="^zero element has no degree$"):
                call()


class TestBases:
    def test_degree_two_lower_sums(self):
        id2 = identity(2)
        s1 = from_permutation(Permutation((2, 1)))
        b1 = merge_generator(2, 1)
        assert from_lower_basis(basis(id2)) == basis(id2)
        assert from_lower_basis(basis(s1)) == basis(id2) + basis(s1)
        assert from_lower_basis(basis(b1)) == basis(b1)

    def test_degree_two_upper_sums(self):
        id2 = identity(2)
        s1 = from_permutation(Permutation((2, 1)))
        b1 = merge_generator(2, 1)
        assert from_upper_basis(basis(s1)) == basis(s1)
        assert from_upper_basis(basis(id2)) == basis(id2) + basis(s1)
        assert from_upper_basis(basis(b1)) == basis(b1)

    def test_roundtrips(self):
        for n in range(6):
            for f in enumerate_ubp(n):
                e = basis(f)
                assert to_lower_basis(from_lower_basis(e)) == e
                assert to_upper_basis(from_upper_basis(e)) == e
                if n < 5:
                    assert from_lower_basis(to_lower_basis(e)) == e
                    assert from_upper_basis(to_upper_basis(e)) == e

    def test_basis_changes_match_rebuilt_components(self):
        # Each component rebuilt here from its block shuffles, ordered by
        # containment of the shuffles' inversion sets, without any cache.
        for n in range(6):
            coords, downs, ups = [], [], []  # one element across all components
            for a in set_partitions(n):
                ida = id_of_partition(a)
                nodes = []
                for xi in block_shuffles(a):
                    w = xi.images
                    inv = {(i, j) for i in range(n) for j in range(i + 1, n) if w[i] > w[j]}
                    nodes.append((left_compose_perm(xi, ida), inv))
                for k, (g, inv_g) in enumerate(nodes):
                    down = [f for f, inv_f in nodes if inv_f <= inv_g]
                    up = [f for f, inv_f in nodes if inv_g <= inv_f]
                    e = basis(g)
                    assert from_lower_basis(e) == ones(down), str(g)
                    assert from_upper_basis(e) == ones(up), str(g)
                    assert to_lower_basis(ones(down)) == e, str(g)
                    assert to_upper_basis(ones(up)) == e, str(g)
                    c = k % 3 - 1
                    coords.append((g, c))
                    downs.extend((f, c) for f in down)
                    ups.extend((f, c) for f in up)
            coords, down, up = Element(coords), Element(downs), Element(ups)
            assert from_lower_basis(coords) == down and to_lower_basis(down) == coords
            assert from_upper_basis(coords) == up and to_upper_basis(up) == coords

    def test_basis_changes_refused_above_the_ceiling(self, monkeypatch):
        monkeypatch.delenv("BLOCKPERM_CEILING", raising=False)
        reversal = basis(from_permutation(Permutation(tuple(range(7, 0, -1)))))
        for change in (from_lower_basis, to_lower_basis, from_upper_basis, to_upper_basis):
            with pytest.raises(EnumerationCeilingError):
                change(reversal)
        monkeypatch.setenv("BLOCKPERM_CEILING", "7")
        assert len(to_lower_basis(reversal)) == 64  # one term per set of its 6 descents

    def test_lower_product_degree_one(self):
        id1 = identity(1)
        s1 = from_permutation(Permutation((2, 1)))
        lhs = product(from_lower_basis(basis(id1)), from_lower_basis(basis(id1)))
        assert lhs == from_lower_basis(basis(s1))


class TestSeries:
    def test_recomposition(self):
        # Degree 8, past the bound of check_series.
        v = primitive_series(8)
        assert counts_from_primitives(v) == ubp_counts(8)


class TestText:
    def test_roundtrip(self):
        f1, f2 = f_pair()
        x = basis(f1) - 3 * basis(f2)
        assert parse_element(str(x)) == x
        assert parse_element("0") == Element()

    def test_bare_diagram(self):
        assert parse_element("{1}->{1}") == basis(identity(1))

    def test_unit_text(self):
        assert str(Element.unit()) == "1*{}->{}"
        assert parse_element("1*{}->{}") == Element.unit()

    def test_json(self):
        x = basis(identity(1))
        assert element_to_json(x) == [
            {"coeff": 1, "term": {"n": 1, "blocks": [[1]], "images": [[1]], "map": [0]}}
        ]


from hypothesis import given, settings, strategies as st


@st.composite
def small_elements(draw):
    pool = enumerate_ubp(2) + enumerate_ubp(3) + [identity(0), identity(1)]
    support = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=4, unique=True))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-9, max_value=9).filter(bool),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return Element(dict(zip(support, coeffs)))


@given(small_elements())
@settings(max_examples=150, deadline=None)
def test_element_text_roundtrip(x):
    assert parse_element(str(x)) == x
