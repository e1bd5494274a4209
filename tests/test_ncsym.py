import itertools
from collections import Counter

import pytest

from blockperm.hopf import Element, coproduct, product
from blockperm.monoid import id_of_partition, identity
from blockperm.ncsym import (
    NCSymElement,
    NCSymTensor,
    from_element,
    p_coproduct,
    p_product,
    parse_p_element,
    power_sum_words,
    to_element,
)
from blockperm.partitions import (
    SetPartition,
    cross,
    parse_set_partition,
    set_partitions,
)
from blockperm.perms import all_permutations
from test_partitions import refines_leq


def kernel(word):
    """Partition of the positions of a word by equal letters."""
    fibers = {}
    for pos, letter in enumerate(word, start=1):
        fibers.setdefault(letter, []).append(pos)
    return SetPartition.from_blocks(len(word), fibers.values())


class TestKernel:
    def test_alternating_word(self):
        assert kernel((1, 2, 1, 2)) == parse_set_partition("{1,3}{2,4}")

    def test_constant_word(self):
        assert kernel((7, 7, 7)) == parse_set_partition("{1,2,3}")

    def test_distinct_word(self):
        assert kernel((3, 1, 2)) == parse_set_partition("{1}{2}{3}")

    def test_empty_word(self):
        assert kernel(()) == SetPartition(0, ())


class TestPowerSumWords:
    def test_pair_block(self):
        assert power_sum_words(parse_set_partition("{1,2}"), 2) == [(1, 1), (2, 2)]

    def test_no_constraint(self):
        words = power_sum_words(parse_set_partition("{1}{2}"), 2)
        assert words == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_alternating_blocks(self):
        words = power_sum_words(parse_set_partition("{1,3}{2,4}"), 3)
        assert len(words) == 9
        assert (1, 2, 1, 2) in words
        assert (1, 3, 1, 3) in words
        assert (1, 1, 1, 1) in words

    def test_count_is_power(self):
        for n in range(5):
            for a in set_partitions(n):
                for k in (1, 2, 3):
                    words = power_sum_words(a, k)
                    assert len(words) == k ** a.num_blocks
                    assert len(set(words)) == len(words)

    def test_membership_matches_kernel_order(self):
        # a word appears iff its kernel coarsens onto the partition
        for a in set_partitions(4):
            words = set(power_sum_words(a, 2))
            for w in itertools.product((1, 2), repeat=4):
                assert (w in words) == refines_leq(kernel(w), a)

    def test_letter_renaming_invariance(self):
        for a in set_partitions(4):
            words = power_sum_words(a, 3)
            for sigma in all_permutations(3):
                assert sorted(tuple(sigma(x) for x in w) for w in words) == words


class TestProduct:
    def test_single_letters(self):
        p1 = NCSymElement.basis(parse_set_partition("{1}"))
        assert p_product(p1, p1) == NCSymElement.basis(parse_set_partition("{1}{2}"))

    def test_unit(self):
        one = NCSymElement.unit()
        for a in set_partitions(3):
            pa = NCSymElement.basis(a)
            assert p_product(pa, one) == pa
            assert p_product(one, pa) == pa

    def test_concatenation_oracle(self):
        for na in range(4):
            for nb in range(4 - na + 1):
                for a in set_partitions(na):
                    for b in set_partitions(nb):
                        for k in (2, 3):
                            lhs = Counter(
                                wa + wb
                                for wa in power_sum_words(a, k)
                                for wb in power_sum_words(b, k)
                            )
                            rhs = Counter(power_sum_words(cross(a, b), k))
                            assert lhs == rhs

    def test_associative(self):
        parts = set_partitions(2)
        for a, b, c in itertools.product(parts, repeat=3):
            pa, pb, pc = map(NCSymElement.basis, (a, b, c))
            assert p_product(p_product(pa, pb), pc) == p_product(pa, p_product(pb, pc))


class TestCoproduct:
    def test_single_block_is_primitive(self):
        a = parse_set_partition("{1,2,3}")
        empty = SetPartition(0, ())
        assert p_coproduct(NCSymElement.basis(a)) == NCSymTensor(
            {(a, empty): 1, (empty, a): 1}
        )

    def test_two_singletons_coefficient(self):
        a = parse_set_partition("{1}{2}")
        one = parse_set_partition("{1}")
        empty = SetPartition(0, ())
        delta = p_coproduct(NCSymElement.basis(a))
        assert delta.terms[(one, one)] == 2
        assert delta.terms[(a, empty)] == 1

    def test_displayed_eight_terms(self):
        a = parse_set_partition("{1,2,6}{3,5}{4}")
        delta = p_coproduct(NCSymElement.basis(a))
        pp = parse_set_partition
        empty = SetPartition(0, ())
        assert dict(delta.terms) == {
            (a, empty): 1,
            (pp("{1,2,5}{3,4}"), pp("{1}")): 1,
            (pp("{1,2,4}{3}"), pp("{1,2}")): 1,
            (pp("{1,3}{2}"), pp("{1,2,3}")): 1,
            (pp("{1,2,3}"), pp("{1,3}{2}")): 1,
            (pp("{1,2}"), pp("{1,2,4}{3}")): 1,
            (pp("{1}"), pp("{1,2,5}{3,4}")): 1,
            (empty, a): 1,
        }

    def test_bicolored_word_oracle(self):
        k1 = k2 = 2
        for n in range(5):
            for a in set_partitions(n):
                delta = p_coproduct(NCSymElement.basis(a))
                expected = Counter()
                for (left, right), c in delta.terms.items():
                    for wl in power_sum_words(left, k1):
                        for wr in power_sum_words(right, k2):
                            expected[(wl, wr)] += c
                labels = a.position_labels()
                actual = Counter()
                for colours in itertools.product(
                    range(1, k1 + k2 + 1), repeat=a.num_blocks
                ):
                    word = [colours[labels[i]] for i in range(n)]
                    wl = tuple(x for x in word if x <= k1)
                    wr = tuple(x - k1 for x in word if x > k1)
                    actual[(wl, wr)] += 1
                assert +expected == +actual

    def test_coassociative(self):
        for a in set_partitions(3):
            delta = p_coproduct(NCSymElement.basis(a))
            lhs = Counter()
            rhs = Counter()
            for (x, y), c in delta.terms.items():
                for (x1, x2), c2 in p_coproduct(NCSymElement.basis(x)).terms.items():
                    lhs[(x1, x2, y)] += c * c2
                for (y1, y2), c2 in p_coproduct(NCSymElement.basis(y)).terms.items():
                    rhs[(x, y1, y2)] += c * c2
            assert +lhs == +rhs

    def test_compatibility(self):
        parts2 = set_partitions(2)
        for a in parts2:
            for b in parts2:
                pa, pb = NCSymElement.basis(a), NCSymElement.basis(b)
                lhs = p_coproduct(p_product(pa, pb))
                rhs = NCSymTensor()
                for (x1, x2), c1 in p_coproduct(pa).terms.items():
                    for (y1, y2), c2 in p_coproduct(pb).terms.items():
                        rhs = rhs + NCSymTensor.basis(
                            (cross(x1, y1), cross(x2, y2)), c1 * c2
                        )
                assert lhs == rhs


class TestEmbedding:
    def test_single_block_image(self):
        a = parse_set_partition("{1,2}")
        assert to_element(NCSymElement.basis(a)) == Element.basis(id_of_partition(a))

    def test_roundtrip(self):
        for n in range(4):
            for a in set_partitions(n):
                u = NCSymElement.basis(a)
                assert from_element(to_element(u)) == u

    def test_rejects_outside_span(self):
        with pytest.raises(ValueError, match="not in the span"):
            from_element(Element.basis(identity(2)))

    def test_roundtrip_builds_no_domain_class(self, monkeypatch):
        # Membership is decided by counting; the class sum is only built to
        # report the residual of an element outside the span.
        from blockperm import ncsym

        def unreachable(a):
            raise AssertionError("built a domain-class sum on the success path")

        monkeypatch.setattr(ncsym, "domain_class_sum", unreachable)
        for n in range(5):
            for a in set_partitions(n):
                u = 3 * NCSymElement.basis(a)
                assert from_element(to_element(u)) == u

    def test_product_transport(self):
        for na in range(3):
            for nb in range(3 - na + 1):
                for a in set_partitions(na):
                    for b in set_partitions(nb):
                        pa, pb = NCSymElement.basis(a), NCSymElement.basis(b)
                        lhs = product(to_element(pa), to_element(pb))
                        assert lhs == to_element(p_product(pa, pb))
                        assert from_element(lhs) == p_product(pa, pb)

    def test_coproduct_transport(self):
        from blockperm.hopf import TensorElement

        for n in range(4):
            for a in set_partitions(n):
                lhs = coproduct(to_element(NCSymElement.basis(a)))
                rhs = TensorElement()
                for (l, r), c in p_coproduct(NCSymElement.basis(a)).terms.items():
                    for fl, cl in to_element(NCSymElement.basis(l)).terms.items():
                        for fr, cr in to_element(NCSymElement.basis(r)).terms.items():
                            rhs = rhs + TensorElement.basis((fl, fr), c * cl * cr)
                assert lhs == rhs

    def test_span_closed_under_product(self):
        for na in range(3):
            for nb in range(3 - na + 1):
                for a in set_partitions(na):
                    for b in set_partitions(nb):
                        x = product(
                            to_element(NCSymElement.basis(a)),
                            to_element(NCSymElement.basis(b)),
                        )
                        from_element(x)  # must not raise


class TestText:
    def test_roundtrip(self):
        u = NCSymElement.basis(parse_set_partition("{1,3}{2,4}")) - 2 * NCSymElement.basis(
            parse_set_partition("{1,2,3,4}")
        )
        assert str(u) == "-2*p{1,2,3,4} + 1*p{1,3}{2,4}"
        assert parse_p_element(str(u)) == u

    def test_unit(self):
        assert str(NCSymElement.unit()) == "1*p{}"
        assert parse_p_element("1*p{}") == NCSymElement.unit()

    def test_shorthands(self):
        assert parse_p_element("p{1,2}") == parse_p_element("1*p{1,2}")
        assert parse_p_element("0") == NCSymElement()

    def test_rejects_missing_prefix(self):
        with pytest.raises(ValueError, match="p"):
            parse_p_element("1*{1,2}")
