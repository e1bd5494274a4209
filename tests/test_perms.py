import copyreg
import functools
import itertools
import pickle
import re

import pytest

from blockperm import perms
from blockperm.monoid import from_permutation, parse_ubp
from blockperm.perms import (
    Permutation,
    _inversion_mask,
    adjacent_transposition,
    all_permutations,
    max_shuffle,
    shuffles,
    weak_leq,
)


def inversion_set(sigma):
    """Oracle: scan all position pairs directly."""
    return {
        (i, j)
        for i in range(1, sigma.n + 1)
        for j in range(i + 1, sigma.n + 1)
        if sigma(i) > sigma(j)
    }


def mask_pairs(sigma):
    """The pairs (i, j) of positions, 1-based, whose bits are set in
    _inversion_mask, which keeps the pair at bit (i - 1) * n + (j - 1)."""
    mask, n = _inversion_mask(sigma.images), sigma.n
    return {(i + 1, j + 1) for i in range(n) for j in range(n) if mask >> (i * n + j) & 1}


class _Reduced:
    """Pickles as the given ``__reduce__`` value."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        return self.value


def _new(cls, *args):
    """copyreg.__newobj__ under a name pickle does not check against the
    pickled object's class."""
    return cls.__new__(cls, *args)


def tampered(value, old, new):
    """A pickle round trip of value with each of its fields or constructor
    arguments that equals old replaced by new, whichever way value pickles."""
    func, args, *rest = value.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    if func is copyreg.__newobj__:
        func = _new

    def swap(x):
        return new if type(x) is type(old) and x == old else x

    rest = [{k: swap(v) for k, v in r.items()} if isinstance(r, dict) else r for r in rest]
    return pickle.loads(pickle.dumps(_Reduced((func, tuple(map(swap, args)), *rest))))


class TestPickle:
    """Unpickling validates, as the constructor does."""

    def test_round_trip(self):
        for p in all_permutations(3):
            assert pickle.loads(pickle.dumps(p)) == p

    def test_valid_tampering_loads(self):
        assert tampered(Permutation((2, 1)), (2, 1), (1, 2)) == Permutation((1, 2))

    @pytest.mark.parametrize(
        "images, match",
        [((2, 2), "not a permutation"), ((2, 1.0), "not an int"), ([2, 1], "must be a tuple")],
        ids=["repeat", "float", "list"],
    )
    def test_tampered_images_rejected(self, images, match):
        with pytest.raises((ValueError, TypeError), match=match):
            tampered(Permutation((2, 1)), (2, 1), images)


class TestBasics:
    def test_identity_and_call(self):
        e = Permutation.identity(4)
        assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]

    def test_invalid(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    # 1.0 and True compare and hash equal to 1; "a" does not compare with 1.
    @pytest.mark.parametrize(
        "images, bad",
        [((1.0, 2.0), "1.0"), ((1, 2.0), "2.0"), ((True, 2), "True"), (("a", 1), "'a'")],
        ids=["float", "float-second", "bool", "str"],
    )
    def test_non_int_entry_rejected(self, images, bad):
        with pytest.raises(ValueError, match=rf"entry {re.escape(bad)} in .* is not an int"):
            Permutation(images)

    # A list prints like the tuple but neither equals nor hashes like it.
    @pytest.mark.parametrize("images", [[2, 1], range(1, 3)], ids=["list", "range"])
    def test_non_tuple_images_rejected(self, images):
        with pytest.raises(TypeError, match="images must be a tuple"):
            Permutation(images)

    def test_compose_order(self):
        # tau first: (sigma * tau)(i) == sigma(tau(i))
        sigma = Permutation((2, 3, 1))
        tau = Permutation((1, 3, 2))
        prod = sigma * tau
        for i in range(1, 4):
            assert prod(i) == sigma(tau(i))

    def test_inverse(self):
        for p in all_permutations(4):
            assert p * p.inverse() == Permutation.identity(4)
            assert p.inverse() * p == Permutation.identity(4)

    def test_text_roundtrip(self):
        # The one-line word is printed only; a permutation reads back
        # through the text of its diagram.
        assert str(Permutation((2, 3, 1))) == "[2,3,1]"
        assert str(Permutation(())) == "[]"
        for n in range(4):
            for p in all_permutations(n):
                assert parse_ubp(str(from_permutation(p))).to_permutation() == p


class TestInversions:
    def test_identity_empty(self):
        assert mask_pairs(Permutation.identity(5)) == set()

    def test_adjacent_transposition(self):
        assert mask_pairs(adjacent_transposition(2, 1)) == {(1, 2)}

    def test_max_shuffle_2_2(self):
        xi = max_shuffle(2, 2)
        assert xi.images == (3, 4, 1, 2)
        assert mask_pairs(xi) == {(1, 3), (1, 4), (2, 3), (2, 4)}

    def test_matches_oracle(self):
        for n in range(6):
            for p in all_permutations(n):
                assert mask_pairs(p) == inversion_set(p)


class TestWeakOrder:
    def test_identity_is_bottom(self):
        e = Permutation.identity(4)
        for p in all_permutations(4):
            assert weak_leq(e, p)

    def test_containment_matches_oracle(self):
        for s in all_permutations(4):
            for t in all_permutations(4):
                assert weak_leq(s, t) == (inversion_set(s) <= inversion_set(t))

    def test_s1_not_below_max_shuffle_2_2(self):
        # computed with the inversion-set oracle: (1,2) is not an inversion
        # of [3,4,1,2], so the containment fails
        s1 = adjacent_transposition(4, 1)
        assert weak_leq(s1, max_shuffle(2, 2)) is False

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            weak_leq(Permutation.identity(2), Permutation.identity(3))


@functools.cache
def shuffles_by_filter(p, q):
    """Oracle: the permutations of S_{p+q} in lexicographic order that
    increase on the first p and on the last q positions."""
    return [
        Permutation(w)
        for w in itertools.permutations(range(1, p + q + 1))
        if list(w[:p]) == sorted(w[:p]) and list(w[p:]) == sorted(w[p:])
    ]


class TestShuffles:
    def test_match_filter_of_all_permutations(self):
        for n in range(8):
            for p in range(n + 1):
                assert shuffles(p, n - p) == shuffles_by_filter(p, n - p)

    def test_filter_catches_a_dropped_interleaving(self, monkeypatch):
        interleavings = perms._interleavings
        monkeypatch.setattr(perms, "_interleavings", lambda u, v: interleavings(u, v)[:-1])
        for n in range(8):
            for p in range(n + 1):
                assert shuffles(p, n - p) != shuffles_by_filter(p, n - p)

    def test_one_one(self):
        assert set(shuffles(1, 1)) == {Permutation.identity(2), Permutation((2, 1))}

    def test_degenerate(self):
        assert shuffles(0, 3) == [Permutation.identity(3)]
        assert shuffles(3, 0) == [Permutation.identity(3)]

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_counts_and_monotonicity(self, p, q):
        import math

        sh = shuffles(p, q)
        assert len(sh) == math.comb(p + q, p)
        assert len(set(sh)) == len(sh)
        for xi in sh:
            assert all(xi(i) < xi(i + 1) for i in range(1, p))
            assert all(xi(i) < xi(i + 1) for i in range(p + 1, p + q))

    def test_max_shuffle_degenerate(self):
        assert max_shuffle(3, 0) == Permutation.identity(3)
        assert max_shuffle(1, 1) == Permutation((2, 1))


class TestRotationShuffle:
    """max_shuffle(n, m) rotates the first n positions past the last m."""

    def test_three_four(self):
        assert max_shuffle(3, 4).images == (5, 6, 7, 1, 2, 3, 4)

    def test_degenerate(self):
        assert max_shuffle(4, 0) == Permutation.identity(4)
        assert max_shuffle(0, 4) == Permutation.identity(4)

    def test_inverse_pair(self):
        for n in range(4):
            for m in range(4):
                prod = max_shuffle(n, m) * max_shuffle(m, n)
                assert prod == Permutation.identity(n + m)
