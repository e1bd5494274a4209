import itertools
from collections import Counter

import pytest

from blockperm import schurweyl
from blockperm.hopf import Element, product
from blockperm.monoid import (
    compose,
    enumerate_ubp,
    from_permutation,
    identity,
    merge_generator,
    transposition_generator,
)
from blockperm.perms import Permutation
from blockperm.schurweyl import (
    ActionMatrix,
    CyclotomicInteger,
    GroupElement,
    action_span_rank,
    commutation_pairs,
    convolution_action,
    element_action_matrix,
    exact_sparse_rank,
    group_generators,
    monoid_generators,
    tensor_words,
    ubp_action_matrix,
    ubp_word_action,
    word_index,
)


class TestCyclotomicInteger:
    def test_root_powers_cycle(self):
        z = CyclotomicInteger.root_power(4, 1)
        assert z * z == CyclotomicInteger.root_power(4, 2)
        assert z * z * z * z == CyclotomicInteger.one(4)

    def test_int_interop(self):
        z = CyclotomicInteger.root_power(3, 1)
        assert 2 * z == z + z
        assert (0 * z) == CyclotomicInteger.zero(3)
        assert not CyclotomicInteger.zero(3)

    def test_order_one_is_plain_integers(self):
        a = CyclotomicInteger.root_power(1, 5)
        assert a == CyclotomicInteger((1,))
        assert a * a == CyclotomicInteger((1,))


class TestWordAction:
    def test_merge_checks_constancy(self):
        b1 = merge_generator(2, 1)
        assert ubp_word_action(b1, (1, 1)) == (1, 1)
        assert ubp_word_action(b1, (1, 2)) is None

    def test_swap_permutes_positions(self):
        s1 = transposition_generator(2, 1)
        assert ubp_word_action(s1, (1, 2)) == (2, 1)

    def test_identity(self):
        for w in tensor_words(2, 3):
            assert ubp_word_action(identity(3), w) == w

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_diagram_maps_match_the_word_scan(self, m):
        # The maps are built from block letters; the per-word action over
        # every word is the reference.
        for n in range(5):
            for f in enumerate_ubp(n):
                scan = [
                    -1 if (image := ubp_word_action(f, w)) is None else word_index(image, m)
                    for w in tensor_words(m, n)
                ]
                assert schurweyl._diagram_targets(f, m) == scan, (f, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_group_maps_match_the_word_scan(self, m):
        for n in range(5):
            words = tensor_words(m, n)
            for g in group_generators(m):
                targets = [word_index((g.perm.images[x - 1] for x in w), m) for w in words]
                exponents = [sum(g.torus[x - 1] for x in w) for w in words]
                assert schurweyl._group_map(g, n, m) == (targets, exponents), (g, n)


class TestActionMatrices:
    def test_merge_generator_matrix(self):
        mat = ubp_action_matrix(merge_generator(2, 1), 2)
        assert mat.entries() == [(0, 0, 1), (3, 3, 1)]

    def test_swap_matrix(self):
        mat = ubp_action_matrix(transposition_generator(2, 1), 2)
        assert mat.entries() == [(0, 0, 1), (1, 2, 1), (2, 1, 1), (3, 3, 1)]

    def test_identity_matrix(self):
        assert ubp_action_matrix(identity(2), 3) == ActionMatrix(9, {i: {i: 1} for i in range(9)})

    def test_at_most_one_entry_per_row(self):
        for f in enumerate_ubp(3):
            mat = ubp_action_matrix(f, 2)
            assert all(len(row) == 1 for row in mat.rows.values())

    def test_dimension_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            ubp_action_matrix(identity(7), 4)

    def test_orientation_pinned(self):
        # matrix of (g after f) is matrix(g) @ matrix(f); the opposite
        # orientation must fail somewhere (degree 2 is too commutative to
        # separate the two, so check degree 3)
        elems = enumerate_ubp(3)
        mats = {f: ubp_action_matrix(f, 2) for f in elems}
        mismatch = False
        for f, g in itertools.product(elems, repeat=2):
            prod = ubp_action_matrix(compose(g, f), 2)
            assert prod == mats[g] @ mats[f]
            if prod != mats[f] @ mats[g]:
                mismatch = True
        assert mismatch

    @pytest.mark.parametrize("m", [2, 3])
    def test_map_product_matches_matrix_product(self, m):
        # Rendered maps multiply as matrices, killed rows included; the
        # matrix product is the reference.
        for n in range(4):
            maps = {f: schurweyl._diagram_targets(f, m) for f in enumerate_ubp(n)}
            mats = {f: ubp_action_matrix(f, m) for f in maps}
            for f, g in itertools.product(maps, repeat=2):
                composed = schurweyl._map_product(maps[f], maps[g])
                rendered = ActionMatrix(
                    m**n, {i: {j: 1} for i, j in enumerate(composed) if j >= 0}
                )
                assert rendered == mats[f] @ mats[g]

    def test_generator_word_route_agrees(self):
        gens = monoid_generators(3)
        gen_mats = [ubp_action_matrix(g, 2) for g in gens]
        words = {identity(3): ()}
        frontier = [identity(3)]
        while frontier:
            fresh = []
            for x in frontier:
                for gi, g in enumerate(gens):
                    y = compose(g, x)
                    if y not in words:
                        words[y] = words[x] + (gi,)
                        fresh.append(y)
            frontier = fresh
        assert len(words) == 16
        for f, word in words.items():
            mat = ActionMatrix(8, {i: {i: 1} for i in range(8)})
            for gi in word:
                mat = gen_mats[gi] @ mat
            assert mat == ubp_action_matrix(f, 2)


def group_map(g, m, r, n):
    """The targets and unreduced root exponents of ``g`` on the degree-n
    tensor space, after checking that they render as reference_group_matrix."""
    words = tensor_words(m, n)
    targets, exponents = schurweyl._group_map(g, n, m)
    rows = {
        i: {j: CyclotomicInteger.root_power(r, e)}
        for i, (j, e) in enumerate(zip(targets, exponents))
    }
    assert ActionMatrix(len(words), rows) == reference_group_matrix(g, words, r)
    return targets, exponents


class TestGroupAction:
    def test_torus_generator_diagonal(self):
        g = GroupElement((1, 0, 0), Permutation.identity(3))
        assert group_map(g, 3, 4, 1) == ([0, 1, 2], [1, 0, 0])

    def test_torus_order_r_is_identity(self):
        r = 3
        g = GroupElement((r, 0), Permutation.identity(2))
        targets, exponents = group_map(g, 2, r, 2)
        assert targets == [0, 1, 2, 3]
        assert [e % r for e in exponents] == [0] * 4

    def test_pure_permutation(self):
        g = GroupElement((0, 0), Permutation((2, 1)))
        targets, exponents = group_map(g, 2, 1, 2)
        # letterwise swap: word (1,2) -> (2,1)
        words = tensor_words(2, 2)
        assert targets == [word_index(tuple(3 - x for x in w), 2) for w in words]
        assert exponents == [0] * 4

    def test_diagonal_scalar_accumulates(self):
        g = GroupElement((1, 0), Permutation.identity(2))
        _, exponents = group_map(g, 2, 5, 3)
        assert exponents[0] == 3  # word (1,1,1) picks up the cube of the root


def reference_diagram_matrix(f, words, r):
    """Right action of ``f`` from its label rows alone: a word survives iff
    it agrees with the first position of every codomain block, and position
    t then reads the letter of the codomain block labelled ``f.top[t]``."""
    index = {w: i for i, w in enumerate(words)}
    first = {label: f.bot.index(label) for label in f.bot}
    rows = {}
    for i, w in enumerate(words):
        if all(w[s] == w[first[label]] for s, label in enumerate(f.bot)):
            image = tuple(w[first[label]] for label in f.top)
            rows[i] = {index[image]: CyclotomicInteger.one(r)}
    return ActionMatrix(len(words), rows)


def reference_group_matrix(g, words, r):
    index = {w: i for i, w in enumerate(words)}
    rows = {}
    for i, w in enumerate(words):
        image = tuple(g.perm.images[x - 1] for x in w)
        power = CyclotomicInteger.one(r)
        for x in w:
            for _ in range(g.torus[x - 1]):
                power = power * CyclotomicInteger.root_power(r, 1)
        rows[i] = {index[image]: power}
    return ActionMatrix(len(words), rows)


class TestCommutation:
    @pytest.mark.parametrize("n,m,r", [(2, 2, 2), (2, 4, 3), (3, 3, 2), (4, 2, 4)])
    def test_commutes(self, n, m, r):
        assert all(c for *_, c in commutation_pairs(n, m, r))

    def test_trivial_degrees(self):
        assert list(commutation_pairs(1, 5, 3)) == []

    def test_negative_degree_is_refused(self):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            all(c for *_, c in commutation_pairs(-1, 2, 1))

    def test_pairs_match_multiplied_reference_matrices(self):
        # Multiplies cyclotomic matrices built here, from the generators'
        # label rows and one-line forms, and compares with the map walk.
        cases = 0
        for n in range(1, 7):
            for m in range(1, 82):
                if m**n > 81:
                    break
                words = list(itertools.product(range(1, m + 1), repeat=n))
                for r in range(1, 5):
                    diagrams = [
                        reference_diagram_matrix(f, words, r)
                        for f in monoid_generators(n)
                    ]
                    groups = [
                        reference_group_matrix(g, words, r)
                        for g in (group_generators(m) if diagrams else [])
                    ]
                    expected = [
                        (i, j, a @ b == b @ a)
                        for i, a in enumerate(diagrams)
                        for j, b in enumerate(groups)
                    ]
                    assert list(commutation_pairs(n, m, r)) == expected, (n, m, r)
                    cases += 1
        assert cases == 4 * 101

    def test_commuting_gcd_decides_every_root_order(self):
        # s_1 on the degree-2 words over two letters swaps words 1 and 2.
        swap, fixed = [0, 2, 1, 3], [0, 1, 2, 3]
        exponents = [0, 6, 2, 0]  # words 1 and 2 differ by 4
        assert schurweyl._commuting_gcd(swap, fixed, exponents) == 4
        orders = [r for r in range(1, 9) if schurweyl._commutes(swap, fixed, exponents, r)]
        assert orders == [1, 2, 4]  # the divisors of 4
        assert schurweyl._commuting_gcd(swap, fixed, [5, 1, 1, 5]) == 0
        # A map that kills word 1 but keeps its image under swap never commutes.
        assert schurweyl._commuting_gcd([0, -1, 2, 3], swap, [0] * 4) is None
        assert not schurweyl._commutes([0, -1, 2, 3], swap, [0] * 4, 1)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("difference", ["r", "1"])
    def test_exponents_are_compared_mod_r(self, monkeypatch, r, difference):
        # s_1 swaps the degree-2 words (1,2) and (2,1).  A group map that
        # fixes every word commutes with it iff it scales those two words
        # by equal powers of the root; their exponents differ by r or by 1.
        commutes = difference == "r"
        exponents = [0, r if commutes else 1, 0, 0]
        monkeypatch.setattr(
            schurweyl, "_group_map", lambda g, n, m: ([0, 1, 2, 3], exponents)
        )
        words = tensor_words(2, 2)
        s1 = reference_diagram_matrix(transposition_generator(2, 1), words, r)
        b = ActionMatrix(
            4, {k: {k: CyclotomicInteger.root_power(r, e)} for k, e in enumerate(exponents)}
        )
        assert (s1 @ b == b @ s1) is commutes
        pairs = list(commutation_pairs(2, 2, r))
        assert [(i, c) for i, _, c in pairs] == [(0, commutes)] * 3 + [(1, True)] * 3

    def test_battery_dimension_256(self):
        for n in range(2, 9):
            for m in range(1, 17):
                if m**n > 256:
                    break
                for r in (1, 2, 3, 4):
                    assert all(c for *_, c in commutation_pairs(n, m, r)), (n, m, r)


class TestRank:
    def test_exact_sparse_rank_basics(self):
        rows = [{0: 1, 1: 1}, {1: 1}, {0: 1, 1: 2}]
        assert exact_sparse_rank(rows) == 2
        assert exact_sparse_rank([]) == 0
        assert exact_sparse_rank([{}, {5: 3}]) == 1

    def test_rank_needs_no_pivot_luck(self):
        rows = [{0: 2, 1: 4}, {0: 3, 1: 6}, {0: 0, 1: 1}]
        assert exact_sparse_rank(rows) == 2

    @pytest.mark.parametrize("n,m,expected", [(1, 1, 1), (2, 4, 3), (3, 6, 16)])
    def test_span_ranks_at_doubled_dimension(self, n, m, expected):
        assert action_span_rank(n, m) == expected

    def test_rank_reported_below_threshold(self):
        # not asserted equal to the monoid size; recorded only
        rank = action_span_rank(2, 2)
        assert 1 <= rank <= 3


class TestConvolution:
    def test_unit_convolution(self):
        for g in enumerate_ubp(2):
            conv = convolution_action(identity(0), g, 2)
            assert conv == ubp_action_matrix(g, 2)

    def test_degree_one_square(self):
        conv = convolution_action(identity(1), identity(1), 2)
        prod = product(Element.basis(identity(1)), Element.basis(identity(1)))
        assert conv == element_action_matrix(prod, 2)

    def test_six_term_case(self):
        b1 = merge_generator(2, 1)
        s1 = transposition_generator(2, 1)
        conv = convolution_action(b1, s1, 2)
        prod = product(Element.basis(b1), Element.basis(s1))
        assert conv == element_action_matrix(prod, 2)

    def test_cancelling_terms_leave_no_entries(self):
        # b_1 and s_1 both fix the words (1, 1) and (2, 2); only s_1 moves
        # (1, 2) and (2, 1), which b_1 kills.
        x = Element.basis(merge_generator(2, 1)) - Element.basis(
            transposition_generator(2, 1)
        )
        mat = element_action_matrix(x, 2)
        assert mat.entries() == [(1, 2, -1), (2, 1, -1)]
        assert sorted(mat.rows) == [1, 2]

    def test_zero_element_has_no_degree(self):
        with pytest.raises(ValueError, match="^zero element has no degree$"):
            element_action_matrix(Element(), 2)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_per_word_definition(self, m):
        # Every word of degree p + q, split over every p-subset of positions,
        # each part acted on by ubp_word_action: the definition that
        # convolution_action builds from letter choices instead.
        by_degree = [enumerate_ubp(n) for n in range(5)]
        for p in range(5):
            for q in range(5 - p):
                words = tensor_words(m, p + q)
                subsets = list(itertools.combinations(range(p + q), p))
                for f in by_degree[p]:
                    for g in by_degree[q]:
                        rows = {}
                        for i, word in enumerate(words):
                            for subset in subsets:
                                left = ubp_word_action(f, [word[t] for t in subset])
                                right = ubp_word_action(
                                    g, [word[t] for t in range(p + q) if t not in subset]
                                )
                                if left is not None and right is not None:
                                    row = rows.setdefault(i, Counter())
                                    row[word_index(left + right, m)] += 1
                        expected = ActionMatrix(m ** (p + q), rows)
                        assert convolution_action(f, g, m) == expected, (f, g)

    def test_matches_product_up_to_degree_three(self):
        for p in range(3):
            for q in range(3 - p + 1):
                for f in enumerate_ubp(p):
                    for g in enumerate_ubp(q):
                        conv = convolution_action(f, g, 2)
                        prod = product(Element.basis(f), Element.basis(g))
                        assert conv == element_action_matrix(prod, 2)


def test_group_generator_inventory():
    gens = group_generators(3)
    toruses = [g for g in gens if g.perm == Permutation.identity(3)]
    swaps = [g for g in gens if any(g.perm(i) != i for i in range(1, 4))]
    assert len(toruses) == 3 and len(swaps) == 2
