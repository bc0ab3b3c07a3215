"""Permutation primitives: exhaustive small-n invariants and pinned values."""

import random
from itertools import combinations, permutations

import pytest

from flaghorn.perm import (
    _standardize,
    check_permutation,
    compose,
    descent_set,
    flatten,
    format_permutation,
    identity,
    inverse,
    is_permutation,
    lehmer_code,
    length,
    longest_element,
    pad,
    parse_permutation,
    perm_from_lehmer,
    trim,
)


def all_perms(n):
    return [tuple(p) for p in permutations(range(1, n + 1))]


def test_is_permutation():
    assert is_permutation((2, 3, 1))
    assert is_permutation(())
    assert not is_permutation((1, 1, 2))
    assert not is_permutation((0, 1))
    assert not is_permutation((2, 4, 3))


def test_check_permutation_rejects():
    with pytest.raises(ValueError):
        check_permutation((3, 1, 1))
    with pytest.raises(ValueError):
        check_permutation((1, 2, 4))


def test_identity_and_longest():
    assert identity(3) == (1, 2, 3)
    assert identity(0) == ()
    assert longest_element(4) == (4, 3, 2, 1)
    assert length(identity(5)) == 0
    assert length(longest_element(5)) == 10


def test_length_counts_inversions():
    assert length((2, 1)) == 1
    assert length((3, 1, 2)) == 2
    assert length((2, 4, 1, 3)) == 3


@pytest.mark.parametrize("n", range(1, 8))
def test_length_complement_under_longest(n):
    w0 = longest_element(n)
    top = n * (n - 1) // 2
    for w in all_perms(n):
        assert length(compose(w0, w)) == top - length(w)


def test_descent_set():
    assert descent_set((1, 2, 3)) == set()
    assert descent_set((2, 1, 3)) == {1}
    assert descent_set((3, 2, 1)) == {1, 2}
    assert descent_set((2, 5, 3, 1, 4)) == {2, 3}


def test_inverse_and_compose():
    w = (2, 5, 3, 1, 4)
    assert compose(w, inverse(w)) == identity(5)
    assert compose(inverse(w), w) == identity(5)
    u = (3, 1, 2, 5, 4)
    assert inverse(compose(w, u)) == compose(inverse(u), inverse(w))
    # arguments that are not permutations are a ValueError, never a bare
    # IndexError or a made-up answer
    for call in (
        lambda: inverse((3, 1)),
        lambda: inverse((2, 2)),
        lambda: compose((1, 2), (3, 1)),
    ):
        with pytest.raises(ValueError):
            call()


def test_compose_acts_right_to_left():
    w = (2, 3, 1)
    u = (1, 3, 2)
    assert compose(w, u) == (2, 1, 3)
    assert compose(u, w) == (3, 2, 1)


def test_flatten_pinned_example():
    assert flatten((2, 5, 3, 1, 4), (1, 2, 5)) == (1, 3, 2)


def test_flatten_identity_on_all_positions():
    for w in all_perms(4):
        assert flatten(w, range(1, 5)) == w


@pytest.mark.parametrize("n", range(2, 7))
def test_flatten_preserves_relative_order(n):
    for w in all_perms(n):
        for k in range(1, n + 1):
            for positions in combinations(range(1, n + 1), k):
                flat = flatten(w, positions)
                picked = [w[p - 1] for p in positions]
                assert descent_set(flat) == {
                    i
                    for i in range(1, k)
                    if picked[i - 1] > picked[i]
                }


def test_flatten_rejects_bad_positions():
    with pytest.raises(ValueError):
        flatten((2, 1, 3), ())
    with pytest.raises(ValueError):
        flatten((2, 1, 3), (1, 1))
    with pytest.raises(ValueError):
        flatten((2, 1, 3), (0, 2))
    with pytest.raises(ValueError):
        flatten((2, 1, 3), (2, 4))
    with pytest.raises(ValueError):
        flatten((2, 2, 1), (1, 2))


def _standardize_by_rank_dict(values):
    rank = {v: i for i, v in enumerate(sorted(values), start=1)}
    return tuple(rank[v] for v in values)


def test_standardize_matches_the_rank_dict_definition():
    for n in range(7):
        for w in all_perms(n):
            assert _standardize(w) == _standardize_by_rank_dict(w) == w
    rng = random.Random(20261018)
    for size in range(10):
        for _ in range(200):
            values = rng.sample(range(-50, 50), size)
            assert _standardize(values) == _standardize_by_rank_dict(values), values


def test_lehmer_code_pinned():
    assert lehmer_code((1, 2, 3)) == (0, 0, 0)
    assert lehmer_code((3, 1, 2)) == (2, 0, 0)
    assert lehmer_code((2, 5, 3, 1, 4)) == (1, 3, 1, 0, 0)


@pytest.mark.parametrize("n", range(0, 8))
def test_lehmer_code_sums_to_length(n):
    for w in all_perms(n):
        assert sum(lehmer_code(w)) == length(w)


@pytest.mark.parametrize("n", range(1, 7))
def test_lehmer_roundtrip(n):
    for w in all_perms(n):
        assert pad(perm_from_lehmer(lehmer_code(w)), n) == w


def test_perm_from_lehmer_trims():
    assert perm_from_lehmer((0, 0, 0)) == ()
    assert perm_from_lehmer((1, 0)) == (2, 1)
    assert perm_from_lehmer((2,)) == (3, 1, 2)


def test_trim_and_pad():
    assert trim((2, 1, 3, 4)) == (2, 1)
    assert trim((1, 2, 3)) == ()
    assert pad((2, 1), 4) == (2, 1, 3, 4)
    assert pad((2, 1), 2) == (2, 1)
    with pytest.raises(ValueError):
        pad((2, 1), 1)
    for w in all_perms(5):
        assert pad(trim(w), 5) == w
        assert length(trim(w)) == length(w)


def test_parse_and_format():
    assert parse_permutation("2,5,3,1,4") == (2, 5, 3, 1, 4)
    assert parse_permutation(" 2, 1 ") == (2, 1)
    assert format_permutation((2, 5, 3, 1, 4)) == "2,5,3,1,4"
    for w in all_perms(4):
        assert parse_permutation(format_permutation(w)) == w
    with pytest.raises(ValueError):
        parse_permutation("2,x,1")
    with pytest.raises(ValueError):
        parse_permutation("2,2,1")
    # formatting reads its argument through the same check
    assert format_permutation((2.0, 1.0)) == format_permutation((2, True)) == "2,1"
    for bad in ((1, 1), (0, 1), ("1",)):
        with pytest.raises(ValueError):
            format_permutation(bad)
