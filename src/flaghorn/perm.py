"""Permutations of [n] = {1, ..., n} in one-line notation.

A permutation w is the tuple (w(1), ..., w(n)) of its values, so every
entry of 1..n appears exactly once.  This is the single representation
used across the package; nothing here mutates its input.

>>> length((2, 3, 1))
2
>>> flatten((2, 5, 3, 1, 4), (1, 2, 5))
(1, 3, 2)
"""

from __future__ import annotations

import operator
from bisect import bisect
from collections.abc import Iterable, Sequence
from itertools import repeat

Perm = tuple[int, ...]

__all__ = [
    "Perm",
    "is_permutation",
    "check_permutation",
    "identity",
    "longest_element",
    "length",
    "descent_set",
    "inverse",
    "compose",
    "flatten",
    "lehmer_code",
    "perm_from_lehmer",
    "trim",
    "pad",
    "parse_permutation",
    "format_permutation",
]


def is_permutation(values: Sequence[int]) -> bool:
    """Return True if ``values`` lists each of 1..len(values) exactly once.

    >>> is_permutation((2, 5, 3, 1, 4))
    True
    >>> is_permutation((1, 1, 2))
    False
    """
    n = len(values)
    return sorted(values) == list(range(1, n + 1))


def check_permutation(values: Sequence[int]) -> Perm:
    """Return ``values`` as a tuple of plain ints (equal floats or bools
    read as their ints), raising ValueError if not a permutation."""
    try:
        w = tuple(values)
        valid = is_permutation(w)
    except TypeError:  # not iterable, or entries that do not compare with ints
        raise ValueError(f"not a permutation: {values!r}") from None
    if not valid:
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return tuple(map(int, w))


def _integer(value, name: str) -> int:
    """value as an int (operator.index); ValueError, not TypeError, if not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _sequence(value, name: str) -> tuple:
    """value as a tuple; ValueError, not TypeError, if not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {value!r}") from None


def identity(n: int) -> Perm:
    """The identity permutation of [n].

    >>> identity(3)
    (1, 2, 3)
    """
    n = _integer(n, "the size")
    if n < 0:
        raise ValueError("size must be nonnegative")
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation of [n], the unique one of maximal length.

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    n = _integer(n, "the size")
    if n < 0:
        raise ValueError("size must be nonnegative")
    return tuple(range(n, 0, -1))


def length(w: Perm) -> int:
    """Number of inversions of w, i.e. pairs i < j with w(i) > w(j).

    Counted by inserting the values into a sorted list one at a time:
    each value is inverted with the earlier values larger than it.

    >>> length((2, 3, 1))
    2
    >>> length(identity(5))
    0
    >>> length(longest_element(4))
    6
    """
    seen: list[int] = []
    inversions = 0
    for i, v in enumerate(w):
        below = bisect(seen, v)
        inversions += i - below
        seen.insert(below, v)
    return inversions


def descent_set(w: Perm) -> set[int]:
    """Positions i (1-based) with w(i) > w(i+1).

    >>> sorted(descent_set((2, 5, 3, 1, 4)))
    [2, 3]
    """
    return {i for i in range(1, len(w)) if w[i - 1] > w[i]}


def inverse(w: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    w = check_permutation(w)
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[v - 1] = i
    return tuple(out)


def compose(w: Perm, u: Perm) -> Perm:
    """The product w * u acting as (w * u)(i) = w(u(i)).

    >>> compose((2, 1, 3), (2, 1, 3))
    (1, 2, 3)
    """
    w, u = check_permutation(w), check_permutation(u)
    if len(w) != len(u):
        raise ValueError("cannot compose permutations of different sizes")
    return tuple(w[u[i] - 1] for i in range(len(u)))


def flatten(w: Perm, positions: Iterable[int]) -> Perm:
    """Standardize the subsequence of w on the given positions.

    The result is the permutation of [d] (d the number of positions) whose
    entries compare the same way as the values of w read along the
    positions in increasing order.

    >>> flatten((2, 5, 3, 1, 4), (1, 2, 5))
    (1, 3, 2)
    >>> flatten((3, 1, 2), (1, 3))
    (2, 1)
    """
    w = check_permutation(w)
    pos = sorted(_integer(p, "a position") for p in _sequence(positions, "the positions"))
    if not pos:
        raise ValueError("cannot flatten on an empty set of positions")
    if len(set(pos)) != len(pos):
        raise ValueError(f"duplicate positions: {pos!r}")
    if pos[0] < 1 or pos[-1] > len(w):
        raise ValueError(f"positions {pos!r} outside 1..{len(w)}")
    return _standardize([w[p - 1] for p in pos])


def _standardize(values: Sequence[int]) -> Perm:
    """The permutation of [len(values)] whose entries compare the same way
    as ``values``, which must be distinct; unchecked, for callers whose
    values are distinct by construction.

    The rank of a value is the number of values at most it, one bisect
    into the sorted values; on distinct values that is its position in
    the sorted order, counted from 1."""
    ranks = sorted(values)
    return tuple(map(bisect, repeat(ranks, len(values)), values))


def lehmer_code(w: Perm) -> tuple[int, ...]:
    """The code of w: entry i counts j > i with w(j) < w(i).

    The entries sum to length(w).

    >>> lehmer_code((3, 1, 2))
    (2, 0, 0)
    """
    return tuple(
        sum(1 for j in range(i + 1, len(w)) if w[j] < w[i]) for i in range(len(w))
    )


def perm_from_lehmer(code: Sequence[int]) -> Perm:
    """The unique permutation with the given code, trimmed of trailing
    fixed points.  Accepts any tuple of nonnegative integers; the ambient
    size is inferred as the smallest that can carry the code.

    >>> perm_from_lehmer((2,))
    (3, 1, 2)
    >>> perm_from_lehmer((0, 1))
    (1, 3, 2)
    """
    c = [_integer(x, "a code entry") for x in _sequence(code, "the code")]
    while c and c[-1] == 0:
        c.pop()
    if any(x < 0 for x in c):
        raise ValueError(f"code entries must be nonnegative: {code!r}")
    if not c:
        return ()
    m = max(i + x for i, x in enumerate(c, start=1))
    c += [0] * (m - len(c))
    available = list(range(1, m + 1))
    return trim(tuple(available.pop(x) for x in c))


def trim(w: Perm) -> Perm:
    """Drop trailing fixed points, the canonical form for permutations
    embedded into larger symmetric groups.

    >>> trim((2, 1, 3, 4))
    (2, 1)
    >>> trim((1, 2, 3))
    ()
    """
    m = len(w)
    while m > 0 and w[m - 1] == m:
        m -= 1
    return tuple(w[:m])


def pad(w: Perm, n: int) -> Perm:
    """Extend w with fixed points up to size n.

    >>> pad((2, 1), 4)
    (2, 1, 3, 4)
    """
    n = _integer(n, "the size")
    if n < len(w):
        raise ValueError(f"cannot pad a permutation of {len(w)} down to {n}")
    return tuple(w) + tuple(range(len(w) + 1, n + 1))


def parse_permutation(text: str) -> Perm:
    """Parse comma-separated one-line notation.

    >>> parse_permutation("2,5,3,1,4")
    (2, 5, 3, 1, 4)
    """
    try:
        values = tuple(int(part) for part in text.strip().split(","))
    except ValueError:
        raise ValueError(f"malformed permutation: {text!r}") from None
    return check_permutation(values)


def format_permutation(w: Perm) -> str:
    """Inverse of parse_permutation; ValueError if w is not a permutation.

    >>> format_permutation((2, 5, 3, 1, 4))
    '2,5,3,1,4'
    """
    return ",".join(map(str, check_permutation(w)))
