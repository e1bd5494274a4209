import hashlib
import importlib
import itertools
import math
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from blockperm import _glue_py, monoid
from blockperm._glue_py import canonical_labels
from blockperm.hopf import Element, TensorElement
from blockperm.monoid import (
    ROW_CACHE_SIZE,
    EnumerationCeilingError,
    UniformBlockPermutation,
    _codomain_key,
    _fibres,
    _inverse,
    _parsed,
    _swapped,
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
    masked_component,
    merge_generator,
    parse_ubp,
    shuffle_factorization,
    split_at_breaking_point,
    to_labels,
    from_labels,
    transposition_generator,
    ubp_to_json,
    weak_leq,
)
from blockperm.partitions import (
    SetPartition,
    _block_text,
    block_shuffles,
    meet,
    parse_set_partition,
    partition_action,
    set_partitions,
)
from blockperm.perms import Permutation, all_permutations, shuffles
from test_perms import inversion_set, tampered


def block_map(f):
    """block_map(f)[k]: the index in f.codomain.blocks of the image of the
    k-th domain block."""
    return f._sort_key()[3]


def the_f1():
    # {1,3} -> {1,2}, {2} -> {3}
    return from_block_images(3, [((1, 3), (1, 2)), ((2,), (3,))])


class TestConstruction:
    def test_uniform_example(self):
        f = the_f1()
        assert f.domain == parse_set_partition("{1,3}{2}")
        assert f.codomain == parse_set_partition("{1,2}{3}")
        assert f.codomain.blocks[block_map(f)[0]] == (1, 2)
        assert f.codomain.blocks[block_map(f)[1]] == (3,)

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError, match="non-uniform"):
            from_block_images(3, [((1, 3), (1,)), ((2,), (2, 3))])

    def test_empty_element(self):
        e = identity(0)
        assert e.n == 0
        assert str(e) == "{}->{}"

    def test_eight_point_example(self):
        f = from_block_images(
            8,
            [
                ((1, 3, 4), (3, 5, 6)),
                ((2,), (4,)),
                ((5, 7), (1, 2)),
                ((6,), (8,)),
                ((8,), (7,)),
            ],
        )
        assert str(f) == "{1,3,4}->{3,5,6};{2}->{4};{5,7}->{1,2};{6}->{8};{8}->{7}"
        assert parse_ubp(str(f)) == f


# {1,2} -> {1}, {3} -> {2,3}: both rows are canonical, the blocks are not uniform
NON_UNIFORM = ((0, 0, 1), (0, 1, 1))


class _Tampered:
    """Pickles as the element with the given rows."""

    def __init__(self, top, bot):
        self.rows = (top, bot)

    def __reduce__(self):
        return (UniformBlockPermutation, self.rows)


def unpickled(top, bot):
    return pickle.loads(pickle.dumps(_Tampered(top, bot)))


class TestRowValidation:
    """The constructor validates the rows, and so does every path that takes
    rows from outside the package."""

    @pytest.mark.parametrize(
        "top,bot,match",
        [
            ((0, 1), (0,), "unequal length"),
            ((0, 0), (0, 0, 0), "unequal length"),
            ((0, -1), (0, -1), "not canonical"),
            ((0, 1), (0, -1), "does not occur"),
            ((0, 1), (1, 2**40), "does not occur"),
            ((0, 5), (5, 0), "not canonical"),
            ((1, 0), (1, 0), "not canonical"),
            ((0, 2, 1), (0, 1, 2), "not canonical"),
            ((0, 0), (0, 1), "does not occur"),
            ((0, 0, 1), (0, 1, 1), "non-uniform"),
        ],
        ids=[
            "shorter-bottom",
            "longer-bottom",
            "negative-top",
            "negative-bottom",
            "out-of-range-bottom",
            "out-of-range-top",
            "first-appearance-order",
            "skipped-label",
            "bottom-label-missing-from-top",
            "non-uniform",
        ],
    )
    def test_rejected(self, top, bot, match):
        with pytest.raises(ValueError, match=match):
            UniformBlockPermutation(top, bot)

    def test_rows_must_be_tuples(self):
        with pytest.raises(TypeError, match="tuples"):
            UniformBlockPermutation([0], [0])

    # Floats and bools compare equal to the int labels they stand for.
    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: UniformBlockPermutation(*NON_UNIFORM), "non-uniform"),
            (lambda: from_labels(3, *NON_UNIFORM), "non-uniform"),
            (lambda: parse_ubp("{1,2}->{1};{3}->{2,3}"), "non-uniform"),
            (lambda: unpickled(*NON_UNIFORM), "non-uniform"),
            (lambda: UniformBlockPermutation((0, 1), (1.0, 0)), "bottom label 1.0"),
            (lambda: UniformBlockPermutation((0, True), (True, 0)), "top label True"),
            (lambda: from_labels(2, [0.0, 1.0], [1.0, 0.0]), "top label 0.0"),
            (lambda: from_labels(2, [0, 1], [True, False]), "bottom label True"),
            (lambda: unpickled((0, 1), (1, 0.0)), "bottom label 0.0"),
            (lambda: unpickled((False,), (0,)), "top label False"),
        ],
        ids=[
            "constructor",
            "from_labels",
            "parse_ubp",
            "unpickling",
            "constructor-float",
            "constructor-bool",
            "from_labels-float",
            "from_labels-bool",
            "unpickling-float",
            "unpickling-bool",
        ],
    )
    def test_outside_values_are_validated(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_row_encoding(self):
        # {1,3} -> {1,2}, {2} -> {3}: top labels domain blocks, bot their images
        assert UniformBlockPermutation((0, 1, 0), (0, 0, 1)) == the_f1()


class TestRowPairValue:
    """An element is the tuple of its label rows, hashed by ``tuple.__hash__``,
    but it equals, orders and prints only as an element."""

    def test_never_equals_the_plain_tuple_of_its_rows(self):
        for f in enumerate_ubp(3):
            rows = (f.top, f.bot)
            assert tuple(f) == rows and hash(f) == hash(rows)
            assert not f == rows and not rows == f
            assert f != rows and rows != f

    def test_sets_and_dicts_keep_an_element_apart_from_its_rows(self):
        for f in enumerate_ubp(3):
            rows = (f.top, f.bot)
            assert len({f, rows}) == 2 and rows not in {f} and f not in {rows}
            table = {f: "element", rows: "rows"}
            assert len(table) == 2 and table[f] == "element"
            assert table[UniformBlockPermutation(*rows)] == "element"

    def test_hashing_is_tuple_hash_in_the_class_dict(self):
        # A tracer wraps and restores the class attribute by name; while it is
        # the C slot wrapper, hashing makes no Python call.
        assert UniformBlockPermutation.__dict__["__hash__"] is tuple.__hash__
        assert "__post_init__" in UniformBlockPermutation.__dict__

    def test_not_ordered_against_a_plain_tuple(self):
        f = identity(2)
        rows = (f.top, f.bot)
        for compare in (
            lambda: f < rows, lambda: f <= rows, lambda: f > rows, lambda: f >= rows,
            lambda: rows < f, lambda: rows <= f, lambda: rows > f, lambda: rows >= f,
            lambda: f < 1, lambda: 1 >= f,
        ):
            with pytest.raises(TypeError):
                compare()

    def test_repr_and_pickling(self):
        f = UniformBlockPermutation((0, 1, 0), (1, 0, 0))
        assert repr(f) == "UniformBlockPermutation(top=(0, 1, 0), bot=(1, 0, 0))"
        assert repr(identity(0)) == "UniformBlockPermutation(top=(), bot=())"
        g = pickle.loads(pickle.dumps(f))
        assert g == f and type(g) is UniformBlockPermutation
        # The element's own pickle, its bottom row swapped for NON_UNIFORM's.
        with pytest.raises(ValueError, match="non-uniform"):
            tampered(f, (1, 0, 0), NON_UNIFORM[1])

    def test_sort_key_and_every_comparison_agree_through_degree_4(self):
        xs = [f for n in range(5) for f in enumerate_ubp(n)]
        keys = {f: f._sort_key() for f in xs}
        assert sorted(xs, key=UniformBlockPermutation._sort_key) == sorted(xs) == xs
        for f, g in itertools.product(xs, repeat=2):
            kf, kg = keys[f], keys[g]
            assert (f < g, f <= g, f > g, f >= g) == (kf < kg, kf <= kg, kf > kg, kf >= kg)

    def test_sorted_terms_follow_the_order_of_the_keys(self):
        xs = [f for n in range(4) for f in enumerate_ubp(n)]
        shuffled = random.Random(4).sample(xs, len(xs))
        x = Element((f, i + 1) for i, f in enumerate(shuffled))
        assert [f for f, _ in x.sorted_terms()] == sorted(x.terms) == xs
        pairs = random.Random(5).sample(list(itertools.product(xs[:8], repeat=2)), 64)
        t = TensorElement((pair, 1) for pair in pairs)
        assert [pair for pair, _ in t.sorted_terms()] == sorted(pairs)


class TestLabels:
    def test_roundtrip(self):
        for n in range(5):
            for f in enumerate_ubp(n):
                top, bot = to_labels(f)
                assert from_labels(n, top, bot) == f

    def test_canonical_rows(self):
        for f in enumerate_ubp(3):
            top, bot = to_labels(f)
            seen = []
            for label in top:
                if label not in seen:
                    seen.append(label)
            assert seen == sorted(seen)


class TestCompose:
    def test_identity_neutral(self):
        for f in enumerate_ubp(3):
            assert compose(identity(3), f) == f
            assert compose(f, identity(3)) == f

    def test_merge_absorbs_swap(self):
        # FitzGerald's relations b_i s_i = s_i b_i = b_i, and b_i (s_i x) ==
        # b_i x for every x, with s_i built as a diagram.
        for n in range(2, 6):
            for i in range(1, n):
                s = transposition_generator(n, i)
                b = merge_generator(n, i)
                assert compose(b, s) == b
                assert compose(s, b) == b
                for x in enumerate_ubp(n):
                    assert compose(b, compose(s, x)) == compose(b, x)

    def test_adjacent_merges_chain(self):
        b1 = merge_generator(3, 1)
        b2 = merge_generator(3, 2)
        whole = id_of_partition(parse_set_partition("{1,2,3}"))
        assert compose(b1, b2) == whole
        assert compose(b2, b1) == whole

    def test_permutation_embedding(self):
        for s in all_permutations(3):
            for t in all_permutations(3):
                assert from_permutation(s * t) == compose(
                    from_permutation(s), from_permutation(t)
                )

    def test_meet_of_idempotents(self):
        parts = set_partitions(4)
        for a in parts:
            for b in parts:
                assert compose(id_of_partition(a), id_of_partition(b)) == id_of_partition(
                    meet(a, b)
                )

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            compose(identity(2), identity(3))

    def test_fast_paths_match_general_route(self):
        # Every permutation, so every block shuffle that left_compose_perm
        # applies to build a weak-order component; the closure's row swap s_i
        # is tested in TestTrustedProducers.test_swap_bottom_exhaustive.
        for n in range(5):
            for f in enumerate_ubp(n):
                for sigma in all_permutations(n):
                    h = left_compose_perm(sigma, f)
                    assert h == compose(from_permutation(sigma), f)
                    assert revalidated(h) == h

    def test_relabeling_sides(self):
        for f in enumerate_ubp(3):
            for sigma in all_permutations(3):
                left = left_compose_perm(sigma, f)
                assert left.domain == f.domain
                assert left.codomain == partition_action(sigma, f.codomain)
                right = compose(f, from_permutation(sigma))
                assert right.domain == partition_action(sigma.inverse(), f.domain)
                assert right.codomain == f.codomain

    def test_associative_exhaustive_n2(self):
        elems = enumerate_ubp(2)
        for f, g, h in itertools.product(elems, repeat=3):
            assert compose(compose(h, g), f) == compose(h, compose(g, f))


@st.composite
def ubp_strategy(draw, n=4):
    elems = enumerate_ubp(n)
    return draw(st.sampled_from(elems))


@st.composite
def diagrams(draw, n=None):
    """Any diagram of degree n (drawn from 0..8 if not given): a canonical
    top row and a rearrangement of it as the bottom row."""
    if n is None:
        n = draw(st.integers(0, 8))
    top: list[int] = []
    for _ in range(n):
        top.append(draw(st.integers(0, max(top, default=-1) + 1)))
    bot = [0] * n
    for i, j in enumerate(draw(st.permutations(range(n)))):
        bot[j] = top[i]
    return UniformBlockPermutation(tuple(top), tuple(bot))


def revalidated(h):
    """h rebuilt through the public constructor, which validates its rows."""
    return UniformBlockPermutation(h.top, h.bot)


def arrows(f):
    """f's (domain block, image block) pairs, in domain order."""
    images = f.codomain.blocks
    return [(dom, images[k]) for dom, k in zip(f.domain.blocks, block_map(f))]


def standardized(blocks):
    """Blocks renumbered 1, 2, ... in the order of their union."""
    rank = {x: r for r, x in enumerate(sorted(x for b in blocks for x in b), start=1)}
    return [tuple(rank[x] for x in b) for b in blocks]


def reference_concat(f, g):
    """f's arrows, then g's with every position raised by f.n."""
    shifted = [
        (tuple(x + f.n for x in dom), tuple(x + f.n for x in cod)) for dom, cod in arrows(g)
    ]
    return from_block_images(f.n + g.n, arrows(f) + shifted)


def reference_split(f, i):
    """The arrows of f whose image lies in {1..i}, and the others, each
    standardized on both sides, and the shuffle listing the domain positions
    of the first group, then of the second."""
    sides = [[], []]
    for dom, cod in arrows(f):
        sides[cod[0] > i].append((dom, cod))
    left, right = (
        from_block_images(
            sum(len(dom) for dom, _ in side),
            zip(standardized([dom for dom, _ in side]), standardized([cod for _, cod in side])),
        )
        for side in sides
    )
    support = sorted(x for dom, _ in sides[0] for x in dom)
    rest = sorted(x for dom, _ in sides[1] for x in dom)
    return Permutation(tuple(support + rest)), left, right


def partition_order(f):
    return (f.domain, f.codomain, block_map(f))


def expected_json(f):
    """The JSON form: n, the domain and codomain blocks and the block map."""
    return {
        "n": f.n,
        "blocks": [list(b) for b in f.domain.blocks],
        "images": [list(b) for b in f.codomain.blocks],
        "map": list(block_map(f)),
    }


class TestPastExhaustiveBound:
    """Round trips and canonical order on diagrams up to degree 8."""

    @given(diagrams())
    @settings(max_examples=300, deadline=None)
    def test_round_trips(self, f):
        assert parse_ubp(str(f)) == f
        assert ubp_to_json(f) == expected_json(f)
        assert from_labels(f.n, *to_labels(f)) == f
        g = pickle.loads(pickle.dumps(f))
        assert g == f and str(g) == str(f)

    @given(st.integers(0, 8).flatmap(lambda n: st.lists(diagrams(n), max_size=8)))
    @settings(max_examples=200, deadline=None)
    def test_order_within_a_degree(self, xs):
        assert sorted(xs) == sorted(xs, key=partition_order)

    @given(st.lists(diagrams(), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_order_across_degrees(self, xs):
        assert sorted(xs) == sorted(xs, key=partition_order)


class TestComposeProperties:
    @given(ubp_strategy(), ubp_strategy(), ubp_strategy())
    @settings(max_examples=200, deadline=None)
    def test_associativity_sampled(self, f, g, h):
        assert compose(compose(h, g), f) == compose(h, compose(g, f))

    @given(ubp_strategy(), ubp_strategy())
    @settings(max_examples=200, deadline=None)
    def test_antihomomorphism_of_inversion(self, f, g):
        assert diagram_inverse(compose(f, g)) == compose(
            diagram_inverse(g), diagram_inverse(f)
        )


class TestDiagramInverse:
    def test_on_permutations(self):
        for s in all_permutations(4):
            assert diagram_inverse(from_permutation(s)) == from_permutation(s.inverse())

    def test_involution(self):
        for f in enumerate_ubp(3):
            assert diagram_inverse(diagram_inverse(f)) == f

    def test_field_swap_example(self):
        f = the_f1()
        g = diagram_inverse(f)
        assert g.domain == parse_set_partition("{1,2}{3}")
        assert g.codomain == parse_set_partition("{1,3}{2}")
        assert g.codomain.blocks[block_map(g)[0]] == (1, 3)

    def test_inverse_monoid_identities(self):
        for f in enumerate_ubp(3):
            fi = diagram_inverse(f)
            assert compose(compose(f, fi), f) == f
            assert compose(compose(fi, f), fi) == fi

    def test_idempotents_are_partition_identities(self):
        for n in range(4):
            idem = {f for f in enumerate_ubp(n) if compose(f, f) == f}
            assert idem == {id_of_partition(a) for a in set_partitions(n)}


class TestConcat:
    def test_unit(self):
        e = identity(0)
        for f in enumerate_ubp(3):
            assert concat(f, e) == f
            assert concat(e, f) == f

    def test_associative(self):
        elems = enumerate_ubp(2)
        for f, g, h in itertools.product(elems[:3], elems[:3], elems[:3]):
            assert concat(concat(f, g), h) == concat(f, concat(g, h))

    def test_block_structure(self):
        f = the_f1()
        g = identity(2)
        fg = concat(f, g)
        assert fg.n == 5
        assert fg.domain == parse_set_partition("{1,3}{2}{4}{5}")
        assert fg.codomain == parse_set_partition("{1,2}{3}{4}{5}")


class TestTrustedProducers:
    """The producers that build their result without validation, against an
    independent route: every output must also pass the public constructor.
    ``compose`` is covered in test_kernels.TestComposeReference and
    ``left_compose_perm`` exhaustively in TestCompose."""

    @given(
        st.integers(0, 8).flatmap(
            lambda n: st.tuples(diagrams(n), st.permutations(range(1, n + 1)))
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_left_compose_perm_up_to_degree_8(self, pair):
        f, images = pair
        sigma = Permutation(tuple(images))
        h = left_compose_perm(sigma, f)
        assert revalidated(h) == h
        assert h == compose(from_permutation(sigma), f)

    def test_swap_bottom_exhaustive(self):
        for n in range(5):
            for f in enumerate_ubp(n):
                for k in range(1, n):
                    h = UniformBlockPermutation(f.top, _swapped(f.bot, k))
                    assert h == compose(transposition_generator(n, k), f)

    @staticmethod
    def check_concat(f, g):
        h = concat(f, g)
        assert revalidated(h) == h
        assert h == reference_concat(f, g)

    def test_concat_exhaustive(self):
        for n in range(5):
            for p in range(n + 1):
                for f, g in itertools.product(enumerate_ubp(p), enumerate_ubp(n - p)):
                    self.check_concat(f, g)

    @given(
        st.integers(0, 8).flatmap(
            lambda n: st.integers(0, n).flatmap(
                lambda p: st.tuples(diagrams(p), diagrams(n - p))
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_concat_up_to_degree_8(self, pair):
        self.check_concat(*pair)

    @staticmethod
    def check_split(f):
        for i in breaking_points(f):
            xi, left, right = split_at_breaking_point(f, i)
            assert revalidated(left) == left and revalidated(right) == right
            assert (xi, left, right) == reference_split(f, i)

    def test_split_exhaustive(self):
        for n in range(5):
            for f in enumerate_ubp(n):
                self.check_split(f)

    @given(diagrams())
    @settings(max_examples=300, deadline=None)
    def test_split_up_to_degree_8(self, f):
        self.check_split(f)

    @staticmethod
    def check_inverse(f):
        h = diagram_inverse(f)
        assert revalidated(h) == h
        assert h == from_block_images(f.n, [(cod, dom) for dom, cod in arrows(f)])

    def test_diagram_inverse_exhaustive(self):
        for n in range(5):
            for f in enumerate_ubp(n):
                self.check_inverse(f)

    @given(diagrams())
    @settings(max_examples=300, deadline=None)
    def test_diagram_inverse_up_to_degree_8(self, f):
        self.check_inverse(f)

    def test_diagram_inverse_relabels_by_first_appearance(self):
        # Cold and warm cached inverses against the definition: both rows
        # relabelled by first appearance along the old bottom row.
        _inverse.cache_clear()
        for _ in range(2):
            for n in range(6):
                for f in enumerate_ubp(n):
                    h = diagram_inverse(f)
                    assert (h.top, h.bot) == canonical_labels(f.bot, f.top)

    def test_domain_and_codomain_match_validated_partitions(self):
        # .domain and .codomain build their partitions without validation.
        for n in range(6):
            for f in enumerate_ubp(n):
                for side, row in ((f.domain, f.top), (f.codomain, f.bot)):
                    fibres = [[i for i, x in enumerate(row, 1) if x == label] for label in set(row)]
                    expected = SetPartition.from_blocks(n, fibres)
                    assert side == expected and hash(side) == hash(expected)
                    assert side.blocks == expected.blocks and SetPartition(n, side.blocks) == side


def lemma_parent(x):
    """(i, g, y) with y the parent of x != id in the closure's reverse search
    and g = s_i or b_i the generator with g . y == x, built from arrows.

    If x.bot has a descent, i is the first and y exchanges positions i and
    i + 1 in x's image blocks.  Otherwise i is the first repeat of x.bot; the
    image block starting at i is split with its domain block, the least
    element going to i and the rest to the rest."""
    n, bot = x.n, x.bot
    for i in range(1, n):
        if bot[i - 1] > bot[i]:
            swap = {i: i + 1, i + 1: i}
            moved = [(dom, tuple(sorted(swap.get(p, p) for p in cod))) for dom, cod in arrows(x)]
            return i, transposition_generator(n, i), from_block_images(n, moved)
    i = next(i for i in range(1, n) if bot[i - 1] == bot[i])
    split = []
    for dom, cod in arrows(x):
        split += [(dom[:1], cod[:1]), (dom[1:], cod[1:])] if cod[0] == i else [(dom, cod)]
    return i, merge_generator(n, i), from_block_images(n, split)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 16), (4, 131)])
    def test_counts(self, n, count):
        assert len(enumerate_ubp(n)) == count
        assert count_ubp(n) == count
        assert count_ubp_recursive(n) == count

    def test_known_sequence(self):
        assert [count_ubp(n) for n in range(7)] == [1, 1, 3, 16, 131, 1496, 22482]
        assert [count_ubp_recursive(n) for n in range(7)] == [
            1, 1, 3, 16, 131, 1496, 22482,
        ]

    def test_degree_two_elements(self):
        assert set(enumerate_ubp(2)) == {
            identity(2),
            from_permutation(Permutation((2, 1))),
            merge_generator(2, 1),
        }

    def test_closure_matches(self):
        # As lists: the same elements in the same canonical order, each once.
        for n in range(7):
            closure = closure_from_generators(n)
            assert closure == enumerate_ubp(n)
            assert len({(h.top, h.bot) for h in closure}) == len(closure)
            assert all(revalidated(h) == h for h in closure)

    def test_closure_orders_rows_by_their_halves_of_the_sort_key(self):
        # The closure ranks the distinct bottom rows by _codomain_key and sorts
        # the top rows by _fibres.  That is the canonical order because no two
        # bottom rows share a codomain key, so the ranks have no ties, and top
        # rows sorted by their fibres give the domains in canonical order.
        for n in range(7):
            xs = enumerate_ubp(n)
            bots = {f.bot for f in xs}
            assert len({_codomain_key(bot) for bot in bots}) == len(bots)
            tops = sorted({f.top for f in xs}, key=_fibres)
            assert [_fibres(top) for top in tops] == [a.blocks for a in set_partitions(n)]

    def test_closure_composes_once_per_merge_child(self, monkeypatch):
        # The merge children are the diagrams other than the identity with a
        # weakly increasing bottom row, one per domain partition: B_n - 1 of
        # them.  Each is accepted on the rows before compose is called.
        calls = []

        def counted(g, f):
            h = compose(g, f)
            calls.append((f, h))
            return h

        monkeypatch.setattr(monoid, "compose", counted)
        for n in range(7):
            calls.clear()
            closure = closure_from_generators(n)
            assert len(calls) == len(set_partitions(n)) - 1
            assert all((h.top, h.bot) != (f.top, f.bot) for f, h in calls)
            assert all(lemma_parent(h)[2] == f for f, h in calls)
            rising = {x for x in closure if list(x.bot) == sorted(x.bot)} - {identity(n)}
            assert {h for _, h in calls} == rising
        assert len(calls) == 202

    def test_every_diagram_has_a_parent_one_step_below(self):
        # The lemma behind the closure's reverse search, diagram by diagram.
        def measure(f):
            inversions = sum(a > b for a, b in itertools.combinations(f.bot, 2))
            return f.n - len(f.domain.blocks), inversions

        for n in range(1, 7):
            others = iter(enumerate_ubp(n))
            assert next(others) == identity(n)
            for x in others:
                i, generator, y = lemma_parent(x)
                assert y.bot[i - 1] < y.bot[i]
                assert compose(generator, y) == x
                assert measure(y) < measure(x)

    def test_sort_key_matches_fibres(self):
        for n in range(6):
            for f in enumerate_ubp(n):
                domain, images = _fibres(f.top), _fibres(f.bot)
                codomain = tuple(sorted(images))
                mapping = tuple(codomain.index(block) for block in images)
                fresh = UniformBlockPermutation(f.top, f.bot)  # no cached key yet
                assert fresh._sort_key() == (n, domain, codomain, mapping)

    def test_row_caches_are_bounded_and_cleared_by_the_benchmark(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        f = UniformBlockPermutation((0, 1, 0), (1, 0, 0))
        f._sort_key()  # a fresh key fills both row caches
        str(f)  # printing fills the block cache
        compose(f, f)  # composing fills the glue plans
        diagram_inverse(f)  # inverting fills the inverse cache
        parse_ubp(str(f))  # parsing fills the parse cache
        caches = (
            _fibres, _codomain_key, _block_text, _glue_py._glue_plan, _inverse, _parsed
        )
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize == ROW_CACHE_SIZE and 0 < info.currsize <= ROW_CACHE_SIZE
        workloads.clear_caches()
        assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)

    # sha256 of the texts of the degree-n diagrams in canonical order, joined
    # by newlines; n = 6 is asserted by a CI step.
    ORDER_DIGESTS = {
        0: "cd5532d1ed564f6978adb4659aae6957220d7a0d9a5e25a22d8e2b48048b12bd",
        1: "6c0fbf4cb035f047bcd5656037b4de0d5e8e9580ab275a9dba907b70b1afcde1",
        2: "d662a215df337874be3fe5513cd9368f2a21e0526110596ff2b893eece7d2932",
        3: "38ec6f2b5b0069fce542658a6f3955ec1167cebf16d1f1e9607390c04f8d8479",
        4: "9c7848148c16f4ea1b0e8f67afdf825524333c0ea31d91395758334733c619bd",
        5: "3889a7429d5dc90a82066e651688a8b8a989e030cf02b8817fedd4778e2c390f",
    }

    @pytest.mark.parametrize("n", range(6))
    def test_canonical_order_is_pinned(self, n):
        for listing in (enumerate_ubp(n), closure_from_generators(n)):
            text = "\n".join(map(str, listing))
            assert hashlib.sha256(text.encode()).hexdigest() == self.ORDER_DIGESTS[n]

    def test_sort_key_orders_as_lt(self):
        xs = enumerate_ubp(5)
        random.Random(5).shuffle(xs)
        assert sorted(xs, key=UniformBlockPermutation._sort_key) == sorted(xs)

    def test_count_by_components(self):
        for n in range(5):
            total = sum(len(block_shuffles(a)) for a in set_partitions(n))
            assert total == count_ubp(n)

    def test_ceiling(self):
        with pytest.raises(EnumerationCeilingError, match="ceiling"):
            enumerate_ubp(7)
        with pytest.raises(EnumerationCeilingError):
            closure_from_generators(7)

    def test_ceiling_env_override(self, monkeypatch):
        monkeypatch.setenv("BLOCKPERM_CEILING", "2")
        with pytest.raises(EnumerationCeilingError):
            enumerate_ubp(3)


def breaking_points_oracle(f):
    """Subset-sum oracle over all subsets of codomain blocks."""
    found = set()
    blocks = f.codomain.blocks
    for r in range(len(blocks) + 1):
        for chosen in itertools.combinations(blocks, r):
            union = sorted(i for b in chosen for i in b)
            if union == list(range(1, len(union) + 1)):
                found.add(len(union))
    return tuple(sorted(found))


class TestBreakingPoints:
    def test_permutations_break_everywhere(self):
        for s in all_permutations(3):
            assert breaking_points(from_permutation(s)) == (0, 1, 2, 3)

    def test_single_block(self):
        f = id_of_partition(parse_set_partition("{1,2,3,4}"))
        assert breaking_points(f) == (0, 4)

    def test_matches_subset_oracle(self):
        for n in range(5):
            for f in enumerate_ubp(n):
                assert breaking_points(f) == breaking_points_oracle(f)


class TestSplit:
    def test_boundary_splits(self):
        f = the_f1()
        xi, left, right = split_at_breaking_point(f, 0)
        assert (xi, left, right) == (Permutation.identity(3), identity(0), f)
        xi, left, right = split_at_breaking_point(f, 3)
        assert (xi, left, right) == (Permutation.identity(3), f, identity(0))

    def test_f1_at_two(self):
        xi, left, right = split_at_breaking_point(the_f1(), 2)
        assert left == merge_generator(2, 1)
        assert right == identity(1)
        assert xi == Permutation((1, 3, 2))

    def test_not_a_breaking_point(self):
        f = id_of_partition(parse_set_partition("{1,2,3}"))
        with pytest.raises(ValueError, match="not a breaking point"):
            split_at_breaking_point(f, 1)

    @pytest.mark.parametrize("i", [-1, 4])
    def test_out_of_range_is_not_a_breaking_point(self, i):
        with pytest.raises(ValueError, match=f"^{i} is not a breaking point of"):
            split_at_breaking_point(the_f1(), i)

    @pytest.mark.parametrize("text", ["{1,2,3}->{1,2,3}", "{1}->{1};{2}->{2}"])
    def test_non_int_index_is_a_type_error(self, text):
        # Whether or not 1 is a breaking point, 1.0 fails the same way.
        with pytest.raises(TypeError, match="slice indices"):
            split_at_breaking_point(parse_ubp(text), 1.0)

    def test_reassembly_and_uniqueness(self):
        for n in range(5):
            for f in enumerate_ubp(n):
                for i in breaking_points(f):
                    xi, left, right = split_at_breaking_point(f, i)
                    assert left.n == i and right.n == n - i
                    rebuilt = compose(
                        concat(left, right), from_permutation(xi.inverse())
                    )
                    assert rebuilt == f
                    matches = [
                        eta
                        for eta in shuffles(i, n - i)
                        if compose(concat(left, right), from_permutation(eta.inverse()))
                        == f
                    ]
                    assert matches == [xi]


class TestShuffleFactorization:
    def test_idempotents_have_trivial_factor(self):
        for a in set_partitions(4):
            ida = id_of_partition(a)
            assert shuffle_factorization(ida) == Permutation.identity(4)
            assert ida.domain == a

    def test_permutations_factor_as_themselves(self):
        for s in all_permutations(4):
            assert shuffle_factorization(from_permutation(s)) == s

    def test_f1(self):
        assert shuffle_factorization(the_f1()) == Permutation((1, 3, 2))

    def test_reconstruction(self):
        for n in range(5):
            for f in enumerate_ubp(n):
                xi = shuffle_factorization(f)
                assert compose(from_permutation(xi), id_of_partition(f.domain)) == f
                assert xi in set(block_shuffles(f.domain))


class TestWeakOrder:
    def test_reflexive(self):
        for f in enumerate_ubp(3):
            assert weak_leq(f, f)

    def test_partition_identity_is_minimum(self):
        for a in set_partitions(3):
            bottom = id_of_partition(a)
            for g in elements_with_domain(a):
                assert weak_leq(bottom, g)

    def test_matches_inversion_set_definition(self):
        # Containment of the shuffle factors' inversion sets, computed as
        # sets of pairs rather than as the masks weak_leq compares.
        for n in range(5):
            elems = enumerate_ubp(n)
            inversions = {f: inversion_set(shuffle_factorization(f)) for f in elems}
            for f in elems:
                for g in elems:
                    expected = f.top == g.top and inversions[f] <= inversions[g]
                    assert weak_leq(f, g) == expected, (str(f), str(g))

    def test_different_domains_incomparable(self):
        s1 = transposition_generator(2, 1)
        b1 = merge_generator(2, 1)
        assert not weak_leq(s1, b1)
        assert not weak_leq(b1, s1)

    def test_component_sizes(self):
        a = parse_set_partition("{1,2}{3}{4}")
        nodes, covers = hasse_component(a)
        assert len(nodes) == 12
        total = sum(len(hasse_component(b)[0]) for b in set_partitions(4))
        assert total == 131

    def test_single_node_component(self):
        nodes, covers = hasse_component(parse_set_partition("{1,2,3,4}"))
        assert len(nodes) == 1 and covers == []

    def test_covers_are_covers(self):
        a = parse_set_partition("{1,4}{2,3}")
        nodes, covers = hasse_component(a)
        assert len(nodes) == math.factorial(4) // 4
        for i, j in covers:
            assert weak_leq(nodes[i], nodes[j]) and nodes[i] != nodes[j]
            for k in range(len(nodes)):
                if k in (i, j):
                    continue
                assert not (weak_leq(nodes[i], nodes[k]) and weak_leq(nodes[k], nodes[j]))

    def test_cached_component_builds_no_diagram_per_cover(self, monkeypatch):
        # Covers are looked up by bottom row, so a second call on a cached
        # component makes no element at all.
        a = parse_set_partition("{1,3}{2}{4}")
        nodes, covers = hasse_component(a)
        assert covers
        calls = []
        trusted = UniformBlockPermutation._trusted

        def counted(top, bot):
            calls.append((top, bot))
            return trusted(top, bot)

        monkeypatch.setattr(UniformBlockPermutation, "_trusted", staticmethod(counted))
        assert hasse_component(a) == (nodes, covers)
        assert calls == []

    def test_covers_match_brute_force(self):
        for n in range(6):
            for a in set_partitions(n):
                nodes, covers = hasse_component(a)
                above = [
                    {j for j, g in enumerate(nodes) if j != i and weak_leq(f, g)}
                    for i, f in enumerate(nodes)
                ]
                expected = sorted(
                    (i, j)
                    for i, up in enumerate(above)
                    for j in up - set().union(*(above[m] for m in up))
                )
                assert covers == expected, str(a)

    def test_components_match_closure(self):
        for n in range(6):
            closure = closure_from_generators(n)
            for a in set_partitions(n):
                expected = sorted(f for f in closure if f.domain == a)
                assert elements_with_domain(a) == expected, str(a)

    def test_cached_component_still_refused_above_ceiling(self, monkeypatch):
        a = parse_set_partition("{1,2}{3}")
        assert len(elements_with_domain(a)) == 3
        monkeypatch.setenv("BLOCKPERM_CEILING", "2")
        with pytest.raises(EnumerationCeilingError):
            elements_with_domain(a)
        with pytest.raises(EnumerationCeilingError):
            masked_component(a)

    def test_returned_component_is_a_fresh_list(self):
        a = parse_set_partition("{1,3}{2}")
        first = elements_with_domain(a)
        expected = list(first)
        first.reverse()
        first.append(identity(3))
        assert elements_with_domain(a) == expected


TEXTS_UP_TO_5 = [str(f) for n in range(6) for f in enumerate_ubp(n)]
DIAGRAM_SYMBOLS = "{}->;, 0123456789"


@st.composite
def diagram_text_mutations(draw):
    """The text of a diagram of degree <= 5 after up to three mutations:
    shuffled arrows, one arrow's halves swapped, or up to two characters
    replaced by up to two others (so deleted, inserted or replaced, leading
    zeros and inner spaces among them)."""
    text = draw(st.sampled_from(TEXTS_UP_TO_5))
    for _ in range(draw(st.integers(1, 3))):
        arrows = text.split(";")
        mutation = draw(st.sampled_from(("shuffle", "swap", "splice")))
        if mutation == "shuffle":
            text = ";".join(draw(st.permutations(arrows)))
        elif mutation == "swap":
            k = draw(st.integers(0, len(arrows) - 1))
            arrows[k] = "->".join(reversed(arrows[k].split("->")))
            text = ";".join(arrows)
        else:
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 2)))
            text = text[:i] + draw(st.text(DIAGRAM_SYMBOLS, max_size=2)) + text[j:]
    return text


def parse_outcome(parse, text):
    """The element parse returns, or the text of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def reference_text(f):
    """The text form, printed from the domain and image blocks."""
    if not f.n:
        return "{}->{}"
    return ";".join(
        reference_block_text(dom) + "->" + reference_block_text(cod) for dom, cod in arrows(f)
    )


def reference_block_text(block):
    return "{" + ",".join(str(i) for i in block) + "}"


def reference_parse_ubp(text):
    """The parser that reads every text through set partitions
    (from_block_images) and accepts it only if it prints back the same."""
    s = text.strip()
    if s == "{}->{}":
        return identity(0)
    arrows = []
    for pos, piece in enumerate(s.split(";")):
        halves = piece.split("->")
        if len(halves) != 2:
            raise ValueError(f"arrow {pos} must look like '{{..}}->{{..}}': {piece!r}")
        arrows.append((reference_block(halves[0], piece), reference_block(halves[1], piece)))
    n = max((i for d, _ in arrows for i in d), default=0)
    result = from_block_images(n, arrows)
    canonical = reference_text(result)
    if canonical != s:
        raise ValueError(f"non-canonical element {text!r}; canonical form is {canonical}")
    return result


def reference_block(text, context):
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")) or len(s) < 3:
        raise ValueError(f"bad block {text!r} in {context!r}")
    try:
        return tuple(int(tok) for tok in s[1:-1].split(","))
    except ValueError:
        raise ValueError(f"bad block contents {text!r} in {context!r}") from None


class TestText:
    def test_roundtrip_all_small(self):
        for n in range(5):
            for f in enumerate_ubp(n):
                assert parse_ubp(str(f)) == f
                assert ubp_to_json(f) == expected_json(f)

    def test_examples(self):
        assert str(the_f1()) == "{1,3}->{1,2};{2}->{3}"
        assert parse_ubp("{}->{}") == identity(0)

    def test_noncanonical_rejected_with_hint(self):
        with pytest.raises(ValueError, match="canonical form is"):
            parse_ubp("{2}->{3};{1,3}->{1,2}")

    def test_bad_arrow(self):
        with pytest.raises(ValueError, match="arrow"):
            parse_ubp("{1}-{1}")

    def test_rejected_text_is_not_cached(self):
        _parsed.cache_clear()
        parse_ubp("{1,3}->{1,2};{2}->{3}")
        for _ in range(2):
            with pytest.raises(ValueError, match="canonical form is"):
                parse_ubp("{2}->{3};{1,3}->{1,2}")
        info = _parsed.cache_info()
        assert (info.currsize, info.hits, info.misses) == (1, 0, 3)

    def test_surrounding_whitespace_parses_to_an_equal_element(self):
        text = str(the_f1())
        assert parse_ubp(f" \t{text}\n") == parse_ubp(text) == the_f1()

    def test_matches_reference_parser_on_canonical_texts(self):
        for text in TEXTS_UP_TO_5:
            assert parse_outcome(parse_ubp, text) == parse_outcome(reference_parse_ubp, text)

    @pytest.mark.parametrize(
        "text",
        [
            "{2}->{3};{1,3}->{1,2}",  # arrows out of domain order
            "{3,1}->{1,2};{2}->{3}",  # unsorted block
            "{01}->{1}",
            "{1, 2}->{1,2}",
            " {1}->{1} ",  # canonical: surrounding space is ignored
            "{1}->{1};",
            "{1}->{2}",
            "{1,1}->{1,2}",
            "{1,2}->{1};{3}->{2,3}",  # non-uniform
            "{0}->{0}",
            "{1000000}->{1000000}",
            "{}->{};{1}->{1}",
            "{1}->{1}->{1}",
        ],
    )
    def test_matches_reference_parser_on_edge_texts(self, text):
        assert parse_outcome(parse_ubp, text) == parse_outcome(reference_parse_ubp, text)

    @given(diagram_text_mutations())
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_parser_on_mutated_texts(self, text):
        assert parse_outcome(parse_ubp, text) == parse_outcome(reference_parse_ubp, text)

    def test_canonical_text_builds_no_set_partition(self, monkeypatch):
        calls = []
        from_blocks = SetPartition.from_blocks

        def counted(n, blocks):
            calls.append(n)
            return from_blocks(n, blocks)

        monkeypatch.setattr(SetPartition, "from_blocks", staticmethod(counted))
        _parsed.cache_clear()  # cached text would not be read again
        for text in TEXTS_UP_TO_5:
            parse_ubp(text)
        assert calls == []
        # Text that is not canonical is diagnosed through both partitions.
        with pytest.raises(ValueError, match="canonical form is"):
            parse_ubp("{2}->{3};{1,3}->{1,2}")
        assert calls == [3, 3]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_block_text_cache_holds_each_block_once(self, n):
        diagrams, partitions = enumerate_ubp(n), set_partitions(n)
        _block_text.cache_clear()
        for x in diagrams + partitions:
            str(x)
        # One entry per non-empty subset of [n].
        assert _block_text.cache_info().currsize == 2**n - 1
