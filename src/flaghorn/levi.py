"""Levi-movability of Schubert class tuples and the deformed product.

A tuple of classes with codimensions summing to the dimension of the
manifold is Levi-movable when general translates by the block-diagonal
subgroup already intersect properly.  Three equivalent decision routes
are implemented:

  via_i    the intersection number is nonzero and, at every step, the
           projected codimensions sum to the dimension of the one-step
           manifold;
  via_iii  every pairwise flattened product hits the point class of the
           pair Grassmannian (Littlewood-Richardson arithmetic only);
  via_iv   flattened degree equalities plus the full inequality system.

The deformed product keeps a classical structure constant exactly when
the associated triple is Levi-movable and zeroes it otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .flags import (
    ClassEntry,
    FlagType,
    check_minimal_rep,
    codim,
    dual,
    flag_table,
)
from .grassmann import _condition_iii, _condition_iv
from .oracle import intersection_number, structure_constants_pair
from .perm import Perm

__all__ = [
    "MovabilityReport",
    "condition_i_detail",
    "check_condition_i",
    "is_levi_movable",
    "exact_degree_tuples",
    "enumerate_levi_movable",
    "bk_structure_constant",
    "bk_product",
]

METHODS = ("via_iii", "via_i", "via_iv", "cross_check")


@dataclass(frozen=True)
class MovabilityReport:
    """Outcome of a movability decision.  Condition fields left as None
    were not evaluated by the chosen method; whenever several are
    evaluated they agree, and cross_check raises rather than return a
    report with disagreeing fields."""

    classes: tuple[Perm, ...]
    flag: FlagType
    method: str
    condition_i: bool | None = None
    condition_iii: bool | None = None
    condition_iv: bool | None = None
    coefficient: int | None = None
    failing_witness: str | None = None

    @property
    def movable(self) -> bool:
        for verdict in (self.condition_i, self.condition_iii, self.condition_iv):
            if verdict is not None:
                return verdict
        raise RuntimeError("no condition was evaluated")


def condition_i_detail(
    classes: tuple[Perm, ...], flag: FlagType
) -> tuple[bool, int, str | None]:
    """Oracle route: (verdict, intersection number, failure witness).

    The tuple passes when its intersection number is nonzero and, for
    every step a_i, the projected codimensions sum to a_i * (n - a_i),
    the dimension of the one-step manifold.  The intersection number is
    computed even when the grading fails.
    """
    return _condition_i(flag_table(flag).class_tuple(classes), flag)


def _condition_i(
    entries: tuple[ClassEntry, ...], flag: FlagType
) -> tuple[bool, int, str | None]:
    coefficient = intersection_number(tuple(e.w for e in entries), flag)
    if coefficient == 0:
        return False, 0, "intersection number is zero"
    witness = _grading_failure(entries, flag)
    return witness is None, coefficient, witness


def _grading_failure(entries: tuple[ClassEntry, ...], flag: FlagType) -> str | None:
    """The first step a_i whose projected codimensions do not sum to
    a_i * (n - a_i), or None."""
    for i, a in enumerate(flag.steps, start=1):
        expected = a * (flag.n - a)
        total = sum(e.projected_codims[i - 1] for e in entries)
        if total != expected:
            return (
                f"step {i}: projected codimensions sum to {total}, "
                f"expected {expected}"
            )
    return None


def _graded_verdict(
    entries: tuple[ClassEntry, ...], flag: FlagType
) -> tuple[bool, int | None]:
    """The verdict of the oracle route with the cheap grading test first:
    the oracle only runs on tuples that pass it.  Returns the verdict and
    the intersection number, None when the oracle did not run."""
    if _grading_failure(entries, flag) is not None:
        return False, None
    coefficient = intersection_number(tuple(e.w for e in entries), flag)
    return coefficient != 0, coefficient


def _check_agreement(
    classes: tuple[Perm, ...], flag: FlagType, ok_i: bool, ok_iii: bool, ok_iv: bool
) -> None:
    if not ok_i == ok_iii == ok_iv:
        raise RuntimeError(
            f"movability conditions disagree on {classes!r} over {flag}: "
            f"i={ok_i}, iii={ok_iii}, iv={ok_iv}"
        )


def check_condition_i(classes: tuple[Perm, ...], flag: FlagType) -> bool:
    """True if the oracle route accepts the tuple.

    >>> from .flags import FlagType
    >>> check_condition_i(((2, 3, 1), (2, 1, 3)), FlagType((1, 2), 3))
    True
    >>> check_condition_i(((3, 1, 2), (3, 1, 2), (2, 3, 1)), FlagType((1, 2), 3))
    False
    """
    ok, _, _ = condition_i_detail(classes, flag)
    return ok


def is_levi_movable(
    classes: tuple[Perm, ...], flag: FlagType, method: str = "via_iii"
) -> MovabilityReport:
    """Decide Levi-movability by the requested route and report the
    evaluated conditions.  cross_check runs all three routes and raises
    RuntimeError if they ever disagree.

    >>> from .flags import FlagType
    >>> is_levi_movable(((2, 3, 1), (2, 1, 3)), FlagType((1, 2), 3)).movable
    True
    """
    table = flag_table(flag)
    entries = table.class_tuple(classes)
    classes = tuple(e.w for e in entries)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if method == "via_i":
        ok, coefficient, witness = _condition_i(entries, flag)
        return MovabilityReport(
            classes, flag, method,
            condition_i=ok, coefficient=coefficient, failing_witness=witness,
        )
    if method == "via_iii":
        witness = _condition_iii(entries, table)
        return MovabilityReport(
            classes, flag, method,
            condition_iii=witness is None, failing_witness=witness,
        )
    if method == "via_iv":
        witness = _condition_iv(entries, table)
        return MovabilityReport(
            classes, flag, method,
            condition_iv=witness is None, failing_witness=witness,
        )
    ok_i, coefficient, witness_i = _condition_i(entries, flag)
    witness_iii = _condition_iii(entries, table)
    witness_iv = _condition_iv(entries, table)
    ok_iii = witness_iii is None
    ok_iv = witness_iv is None
    _check_agreement(classes, flag, ok_i, ok_iii, ok_iv)
    return MovabilityReport(
        classes, flag, method,
        condition_i=ok_i, condition_iii=ok_iii, condition_iv=ok_iv,
        coefficient=coefficient,
        failing_witness=witness_i or witness_iii or witness_iv,
    )


def exact_degree_tuples(flag: FlagType, s: int) -> tuple[tuple[Perm, ...], ...]:
    """All unordered s-tuples of class indices whose codimensions sum to
    the dimension of the manifold, in lexicographic order.

    A depth-first walk on an explicit stack picks nondecreasing classes
    from the flag table in lexicographic order, so no sort is needed.
    It cuts a branch as soon as the codimension left exceeds what the
    open slots can hold, and looks the last slot up by codimension.
    Once nothing is left, every open slot takes the fundamental class,
    the only class of codimension 0 and the last one: at most dimension
    many classes are ever chosen, whatever s.  Table classes are valid
    by construction and are not checked again.

    >>> from .flags import FlagType
    >>> exact_degree_tuples(FlagType((1,), 2), 3)
    (((1, 2), (2, 1), (2, 1)),)
    """
    if s < 2:
        raise ValueError(f"need at least two classes, got s={s}")
    table = flag_table(flag)
    reps, codims = table.reps, table.codims
    # ceiling[j]: the largest codimension among the classes j, j+1, ...
    ceiling = list(accumulate(reversed(codims), max))[::-1]
    by_codim: dict[int, list[int]] = {}
    for j, c in enumerate(codims):
        by_codim.setdefault(c, []).append(j)
    fundamental = reps[-1:]
    out: list[tuple[Perm, ...]] = []
    # (classes so far, first class allowed next, codimension left, open slots)
    stack = [((), 0, table.dimension, s)]
    while stack:
        prefix, start, left, slots = stack.pop()
        if left == 0:
            out.append(prefix + fundamental * slots)
        elif slots == 1:
            last = by_codim.get(left, [])
            out.extend(prefix + (reps[j],) for j in last[bisect_left(last, start):])
        else:
            # pushed in reverse, so popped in lexicographic order
            stack.extend(
                (prefix + (reps[j],), j, left - codims[j], slots - 1)
                for j in reversed(range(start, len(reps)))
                if 0 < codims[j] <= left
                and left - codims[j] <= (slots - 1) * ceiling[j]
            )
    return tuple(out)


def enumerate_levi_movable(
    flag: FlagType, s: int, method: str = "via_iii"
) -> list[tuple[tuple[Perm, ...], int]]:
    """All unordered Levi-movable s-tuples with their intersection
    numbers, in lexicographic order.  Tuples differing only by a
    reordering are listed once; every movability condition and the
    coefficient are invariant under reordering.

    Each tuple of exact_degree_tuples is decided from the entries of the
    flag table, validated once when built, with the verdicts of
    is_levi_movable: via_iii reads the pair partitions, via_iv the pair
    flattenings, and via_i runs the grading test before the oracle.
    cross_check evaluates all three routes on every tuple.  The oracle
    computes the coefficient of each movable tuple once.

    >>> from .flags import FlagType
    >>> [(t, c) for t, c in enumerate_levi_movable(FlagType((1,), 2), 2)]
    [(((1, 2), (2, 1)), 1)]
    """
    tuples = exact_degree_tuples(flag, s)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    table = flag_table(flag)
    out = []
    for classes in tuples:
        entries = tuple(map(table.entry, classes))
        coefficient = None
        if method == "via_iii":
            movable = _condition_iii(entries, table) is None
        elif method == "via_iv":
            movable = _condition_iv(entries, table) is None
        else:
            movable, coefficient = _graded_verdict(entries, flag)
            if method == "cross_check":
                ok_iii = _condition_iii(entries, table) is None
                ok_iv = _condition_iv(entries, table) is None
                _check_agreement(classes, flag, movable, ok_iii, ok_iv)
        if movable:
            if coefficient is None:
                coefficient = intersection_number(classes, flag)
            out.append((classes, coefficient))
    return out


def bk_structure_constant(w: Perm, u: Perm, v: Perm, flag: FlagType) -> int:
    """Coefficient of the class of v in the deformed product of the
    classes of w and u: the classical coefficient when the triple
    (w, u, dual of v) is Levi-movable, and 0 otherwise.  Degree
    mismatches return 0, as in the classical product.

    >>> from .flags import FlagType
    >>> bk_structure_constant((3, 1, 2), (3, 1, 2), (2, 1, 3), FlagType((1, 2), 3))
    0
    """
    w = check_minimal_rep(w, flag)
    u = check_minimal_rep(u, flag)
    v = check_minimal_rep(v, flag)
    if codim(w, flag) + codim(u, flag) != codim(v, flag):
        return 0
    triple = (w, u, dual(v, flag))
    classical = intersection_number(triple, flag)
    if classical == 0:
        return 0
    return classical if is_levi_movable(triple, flag).movable else 0


def bk_product(w: Perm, u: Perm, flag: FlagType) -> dict[Perm, int]:
    """Deformed product of two classes: the classical expansion with
    every coefficient of a non-movable triple dropped.

    >>> from .flags import FlagType
    >>> bk_product((2, 3, 1), (3, 1, 2), FlagType((1, 2), 3))
    {}
    """
    w = check_minimal_rep(w, flag)
    u = check_minimal_rep(u, flag)
    out = {}
    for v, c in structure_constants_pair(w, u, flag).items():
        if is_levi_movable((w, u, dual(v, flag)), flag).movable:
            out[v] = c
    return out
