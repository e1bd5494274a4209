import itertools
import pickle
import re
import tracemalloc

import pytest

from blockperm import partitions
from blockperm.monoid import parse_ubp
from blockperm.partitions import (
    PartitionType,
    SetPartition,
    block_shuffles,
    block_stabilizer,
    count_of_type,
    cross,
    meet,
    parse_set_partition,
    partition_action,
    restrict_standardize,
    set_partitions,
)
from blockperm.perms import Permutation, all_permutations
from test_perms import tampered


def bell_by_growth_strings(n):
    """Independent Bell-number oracle: count restricted-growth strings."""

    def count(prefix_max, remaining):
        if remaining == 0:
            return 1
        return sum(count(max(prefix_max, v), remaining - 1) for v in range(prefix_max + 2))

    if n == 0:
        return 1
    return count(0, n - 1)


def refines_leq(a, b):
    """Oracle for the order on partitions: every block of b lies in a block
    of a (a <= b, coarser is smaller)."""
    labels = a.position_labels()
    return all(len({labels[i - 1] for i in block}) == 1 for block in b.blocks)


class TestConstruction:
    # A list prints like the tuple but neither equals nor hashes like it.
    @pytest.mark.parametrize(
        "blocks",
        [[(1,), (2,)], ((1,), [2]), [[1], [2]], ((1,), range(2, 3))],
        ids=["list-of-blocks", "list-block", "lists", "range-block"],
    )
    def test_non_tuple_blocks_rejected(self, blocks):
        with pytest.raises(TypeError, match="blocks must be a tuple of tuples"):
            SetPartition(2, blocks)

    def test_canonicalization_example(self):
        a = SetPartition.from_blocks(8, [{2, 5, 7}, {1, 3}, {6, 8}, {4}])
        assert str(a) == "{1,3}{2,5,7}{4}{6,8}"
        assert a == SetPartition.from_blocks(8, a.blocks)

    def test_empty_partition(self):
        assert SetPartition.from_blocks(0, []) == SetPartition(0, ())
        assert str(SetPartition(0, ())) == "{}"

    def test_finest_partition(self):
        a = SetPartition.from_blocks(3, [{1}, {2}, {3}])
        assert a.blocks == ((1,), (2,), (3,))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="appears in two blocks"):
            SetPartition.from_blocks(3, [{1, 2}, {2, 3}])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SetPartition.from_blocks(2, [{1, 2, 3}])

    def test_missing_element_rejected(self):
        with pytest.raises(ValueError, match="element 2 missing"):
            SetPartition.from_blocks(3, [{1, 3}])

    # 1.0 and True compare and hash equal to 1; "a" does not compare with 1.
    @pytest.mark.parametrize(
        "blocks, bad",
        [
            (((1.0,), (2,)), "1.0"),
            (((1,), (2.0,)), "2.0"),
            (((True,), (2,)), "True"),
            (((1, True),), "True"),
            ((("a",), (2,)), "'a'"),
            (((1, "2"),), "'2'"),
        ],
        ids=["float", "float-second-block", "bool", "bool-in-block", "str", "str-in-block"],
    )
    @pytest.mark.parametrize("build", ["constructor", "from_blocks"])
    def test_non_int_element_rejected(self, build, blocks, bad):
        make = SetPartition if build == "constructor" else SetPartition.from_blocks
        with pytest.raises(ValueError, match=f"element {re.escape(bad)} in block .* is not an int"):
            make(2, blocks)

    @pytest.mark.parametrize(
        "blocks, match",
        [
            (((1, 2), (2, 3)), "appears in two blocks"),
            (((1,), (2, 4)), "out of range"),
            (((1, 3),), "element 2 missing"),
            (((2,), (1, 3)), "canonical order"),
            (((1, 3, 2),), "not strictly increasing"),
            (((1, 2, 3), ()), "empty block"),
        ],
        ids=["overlap", "range", "missing", "order", "unsorted", "empty"],
    )
    def test_constructor_rejects_bad_blocks(self, blocks, match):
        with pytest.raises(ValueError, match=match):
            SetPartition(3, blocks)

    @pytest.mark.parametrize(
        "n, blocks",
        [(2.0, ((1,), (2,))), (True, ((1,),)), (-1, ()), ("2", ((1,), (2,))), (None, ())],
        ids=["float", "bool", "negative", "str", "none"],
    )
    @pytest.mark.parametrize("build", ["constructor", "from_blocks"])
    def test_bad_size_rejected(self, build, n, blocks):
        make = SetPartition if build == "constructor" else SetPartition.from_blocks
        message = f"partition size {re.escape(repr(n))} is not a non-negative int"
        with pytest.raises(ValueError, match=message):
            make(n, blocks)


class TestPickle:
    """Unpickling validates, as the constructor does."""

    def test_round_trip(self):
        for n in range(5):
            for a in set_partitions(n):
                assert pickle.loads(pickle.dumps(a)) == a

    @pytest.mark.parametrize(
        "old, new, match",
        [
            (2, 5, "element 3 missing"),
            (2, 2.0, "partition size 2.0"),
            (((1,), (2,)), ((2,), (1,)), "canonical order"),
            (((1,), (2,)), ((1, 2), (2,)), "two blocks"),
            (((1,), (2,)), [(1,), (2,)], "tuple of tuples"),
        ],
        ids=["size", "float-size", "order", "overlap", "list"],
    )
    def test_tampered_fields_rejected(self, old, new, match):
        with pytest.raises((ValueError, TypeError), match=match):
            tampered(SetPartition(2, ((1,), (2,))), old, new)


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_numbers(self, n, expected):
        parts = set_partitions(n)
        assert len(parts) == expected
        assert len(set(parts)) == expected

    def test_matches_growth_string_oracle(self):
        for n in range(7):
            assert len(set_partitions(n)) == bell_by_growth_strings(n)

    def test_deterministic_sorted_order(self):
        parts = set_partitions(4)
        assert parts == sorted(parts)


class TestTypeCounts:
    def test_two_pairs(self):
        t = PartitionType((0, 2, 0, 0))
        assert t.n == 4
        assert count_of_type(t) == 3

    def test_all_singletons(self):
        for n in range(1, 6):
            mult = [0] * n
            mult[0] = n
            assert count_of_type(PartitionType(tuple(mult))) == 1

    def test_formula_matches_enumeration(self):
        for n in range(7):
            tally = {}
            for a in set_partitions(n):
                tally[a.type()] = tally.get(a.type(), 0) + 1
            for t, observed in tally.items():
                assert count_of_type(t) == observed


class TestAction:
    def test_identity_fixes(self):
        for a in set_partitions(4):
            assert partition_action(Permutation.identity(4), a) == a

    def test_setwise_fixed_block(self):
        a = parse_set_partition("{1,2}{3}")
        s1 = Permutation((2, 1, 3))
        assert partition_action(s1, a) == a

    def test_three_cycle(self):
        a = parse_set_partition("{1,2}{3}")
        rho = Permutation((2, 3, 1))
        assert partition_action(rho, a) == parse_set_partition("{1}{2,3}")

    def test_group_action_law_and_type(self):
        perms = all_permutations(4)[:8]
        for a in set_partitions(4):
            for s in perms:
                for t in perms:
                    assert partition_action(s * t, a) == partition_action(
                        s, partition_action(t, a)
                    )
                assert partition_action(s, a).type() == a.type()

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            partition_action(Permutation.identity(3), set_partitions(2)[0])

    def test_matches_validated_construction(self):
        # partition_action builds its result without validation.
        for n in range(5):
            for a in set_partitions(n):
                for s in all_permutations(n):
                    b = partition_action(s, a)
                    expected = SetPartition.from_blocks(n, [[s(i) for i in blk] for blk in a.blocks])
                    assert b == expected and hash(b) == hash(expected)
                    assert b.blocks == expected.blocks and SetPartition(b.n, b.blocks) == b


class TestLattice:
    def test_meet_idempotent(self):
        for a in set_partitions(4):
            assert meet(a, a) == a

    def test_meet_example(self):
        a = parse_set_partition("{1,2}{3}")
        b = parse_set_partition("{1}{2,3}")
        assert meet(a, b) == parse_set_partition("{1,2,3}")

    def test_finest_is_unit(self):
        singles = SetPartition.from_blocks(4, [{1}, {2}, {3}, {4}])
        for a in set_partitions(4):
            assert meet(singles, a) == a

    def test_meet_properties(self):
        for n in range(6):
            parts = set_partitions(n)
            for a in parts:
                for b in parts:
                    ab = meet(a, b)
                    assert ab == meet(b, a)
                    assert meet(ab, b) == ab
                    assert refines_leq(ab, a) and refines_leq(ab, b)

    def test_meet_associative(self):
        for n in range(5):
            parts = set_partitions(n)
            for a in parts:
                for b in parts:
                    for c in parts:
                        assert meet(meet(a, b), c) == meet(a, meet(b, c))

    def test_refines_examples(self):
        whole = parse_set_partition("{1,2,3}")
        split = parse_set_partition("{1,2}{3}")
        other = parse_set_partition("{1,3}{2}")
        assert refines_leq(whole, split)
        assert not refines_leq(split, other)
        for a in set_partitions(3):
            assert refines_leq(a, a)


class TestRestrictAndCross:
    def test_restrict_paper_style_example(self):
        a = SetPartition.from_blocks(7, [{1, 5}, {2, 7}, {3}, {4, 6}])
        assert restrict_standardize(a, [0, 1]) == parse_set_partition("{1,3}{2,4}")

    def test_restrict_all_blocks(self):
        for a in set_partitions(4):
            assert restrict_standardize(a, range(a.num_blocks)) == a

    def test_restrict_single_block(self):
        a = parse_set_partition("{1,4}{2,3}")
        assert restrict_standardize(a, [0]) == parse_set_partition("{1,2}")

    def test_restrict_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            restrict_standardize(parse_set_partition("{1,2}"), [5])

    def test_cross_example(self):
        a = parse_set_partition("{1,3,4}{2,5}{6}")
        b = parse_set_partition("{1,4}{2}{3,5}")
        assert str(cross(a, b)) == "{1,3,4}{2,5}{6}{7,10}{8}{9,11}"

    def test_cross_empty(self):
        empty = SetPartition(0, ())
        for a in set_partitions(3):
            assert cross(a, empty) == a
            assert cross(empty, a) == a

    def test_cross_restrict_roundtrip(self):
        a = parse_set_partition("{1,2}{3}")
        b = parse_set_partition("{1,3}{2}")
        ab = cross(a, b)
        back = restrict_standardize(ab, range(a.num_blocks, ab.num_blocks))
        assert back == b


def block_shuffles_by_filter(a):
    """Oracle: the permutations of S_n in lexicographic order (those of
    all_permutations) that increase on every block."""
    return [
        Permutation(w)
        for w in itertools.permutations(range(1, a.n + 1))
        if all(w[i - 1] < w[j - 1] for block in a.blocks for i, j in zip(block, block[1:]))
    ]


class TestPartitionShuffles:
    def test_match_filter_of_all_permutations(self):
        for n in range(7):
            for a in set_partitions(n):
                assert block_shuffles(a) == block_shuffles_by_filter(a)

    def test_filter_catches_a_dropped_interleaving(self, monkeypatch):
        interleavings = partitions._interleavings
        monkeypatch.setattr(partitions, "_interleavings", lambda u, v: interleavings(u, v)[:-1])
        for n in range(1, 6):
            for a in set_partitions(n):
                assert block_shuffles(a) != block_shuffles_by_filter(a)

    def test_singletons_give_whole_group(self):
        singles = SetPartition.from_blocks(3, [{1}, {2}, {3}])
        assert set(block_shuffles(singles)) == set(all_permutations(3))

    def test_single_block_gives_identity(self):
        whole = parse_set_partition("{1,2,3,4}")
        assert block_shuffles(whole) == [Permutation.identity(4)]

    def test_count_formula(self):
        import math

        for a in set_partitions(5):
            denom = 1
            for b in a.blocks:
                denom *= math.factorial(len(b))
            assert len(block_shuffles(a)) == math.factorial(5) // denom
            assert len(block_stabilizer(a)) == denom

    def test_coset_decomposition(self):
        import math

        for a in set_partitions(4):
            sh = block_shuffles(a)
            st = block_stabilizer(a)
            assert len(sh) * len(st) == math.factorial(4)
            assert len({xi * pi for xi in sh for pi in st}) == math.factorial(4)


class TestText:
    def test_roundtrip(self):
        for n in range(5):
            for a in set_partitions(n):
                assert parse_set_partition(str(a)) == a

    def test_noncanonical_rejected_with_hint(self):
        with pytest.raises(ValueError, match="canonical form is"):
            parse_set_partition("{2,5,7}{1,3}{6,8}{4}")

    @pytest.mark.parametrize(
        "parse, text",
        [(parse_set_partition, "{1000000}"), (parse_ubp, "{1000000}->{1000000}")],
        ids=["parse_set_partition", "parse_ubp"],
    )
    def test_large_element_rejected_in_constant_memory(self, parse, text):
        # "{N}" misses 1..N-1; naming the first one must not build range(N).
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="element 1 missing"):
                parse(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="position"):
            parse_set_partition("{1,2}x{3}")
