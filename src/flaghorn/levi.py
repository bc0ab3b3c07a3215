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

One evaluator (_evaluate) turns a method name into routes, for
is_levi_movable, enumerate_levi_movable and the thm1 sweep of suites.
Route i tests the grading first and runs the oracle only on a graded
tuple.

enumerate_levi_movable lists the movable tuples of a flag type.  The
tuple walker of flags (_walk) builds the candidate tuples of each route
against a vector target (exact_degree_tuples is its one-coordinate
case), and the coefficient of a movable tuple is the product of its
Littlewood-Richardson leaves, one point coefficient on the Grassmannian
of each step; cross_check also runs the oracle and requires the two to
agree.  The last leaf and route
iii's last pair share one point product (grassmann._product_to_point).

The deformed product keeps a classical structure constant exactly when
the associated triple is Levi-movable (route iii) and zeroes it otherwise;
a kept coefficient is the triple's leaf product, with no oracle run.
"""

from __future__ import annotations

import sys

from .flags import (
    ClassEntry,
    FlagTable,
    FlagType,
    _Frozen,
    _walk,
    flag_table,
)
from .grassmann import _condition_iii, _condition_iv, _product_to_point
from .oracle import _exceeds_degree, _intersection_number, _vanishes
from .perm import Perm, _integer

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


class MovabilityReport(_Frozen):
    """Outcome of a movability decision.  Condition fields left as None
    were not evaluated by the chosen method; whenever several are
    evaluated they agree, and cross_check raises rather than return a
    report with disagreeing fields."""

    __match_args__ = ("classes", "flag", "method", "condition_i", "condition_iii",
                      "condition_iv", "coefficient", "failing_witness")

    def __init__(self, classes: tuple[Perm, ...], flag: FlagType, method: str,
                 condition_i: bool | None = None, condition_iii: bool | None = None,
                 condition_iv: bool | None = None, coefficient: int | None = None,
                 failing_witness: str | None = None) -> None:
        self.__dict__.update(classes=classes, flag=flag, method=method, condition_i=condition_i,
                             condition_iii=condition_iii, condition_iv=condition_iv,
                             coefficient=coefficient, failing_witness=failing_witness)

    @property
    def movable(self) -> bool:
        for verdict in (self.condition_i, self.condition_iii, self.condition_iv):
            if verdict is not None:
                return verdict
        raise RuntimeError("no condition was evaluated")


def condition_i_detail(
    classes: tuple[Perm, ...], flag: FlagType
) -> tuple[bool, int, str | None]:
    """Oracle route: (verdict, intersection number, failure witness), as
    is_levi_movable(classes, flag, "via_i") reports them: the tuple
    passes when its intersection number is nonzero and, for every step
    a_i, the projected codimensions sum to a_i * (n - a_i), the dimension
    of the one-step manifold.  The number is computed even when the
    grading fails, and a zero number is the witness ahead of a grading
    failure."""
    report = is_levi_movable(classes, flag, "via_i")
    return report.condition_i, report.coefficient, report.failing_witness


def _grading_failure(entries: tuple[ClassEntry, ...], table: FlagTable) -> str | None:
    """The first step a_i whose projected codimensions do not sum to
    a_i * (n - a_i) (FlagTable.step_dimensions), or None."""
    for i, expected in enumerate(table.step_dimensions, start=1):
        total = sum(e.projected_codims[i - 1] for e in entries)
        if total != expected:
            return (
                f"step {i}: projected codimensions sum to {total}, "
                f"expected {expected}"
            )
    return None


def check_condition_i(classes: tuple[Perm, ...], flag: FlagType) -> bool:
    """True if the oracle route accepts the tuple.

    >>> from .flags import FlagType
    >>> check_condition_i(((2, 3, 1), (2, 1, 3)), FlagType((1, 2), 3))
    True
    >>> check_condition_i(((3, 1, 2), (3, 1, 2), (2, 3, 1)), FlagType((1, 2), 3))
    False
    """
    return condition_i_detail(classes, flag)[0]


def is_levi_movable(
    classes: tuple[Perm, ...], flag: FlagType, method: str = "via_iii"
) -> MovabilityReport:
    """Decide Levi-movability by the requested route and report the
    evaluated conditions.  cross_check runs all three routes and raises
    RuntimeError if they ever disagree, or if a movable tuple's leaf
    product differs from its oracle number.

    >>> from .flags import FlagType
    >>> is_levi_movable(((2, 3, 1), (2, 1, 3)), FlagType((1, 2), 3)).movable
    True
    """
    table = flag_table(flag)
    entries = table.class_tuple(classes)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    ok_i, ok_iii, ok_iv, coefficient, witness = _evaluate(entries, table, method)
    if ok_i is False and coefficient is None:
        # route i of a report carries its number also past a failed grading
        coefficient = _intersection_number(tuple(e.w for e in entries), table.flag)
        if coefficient == 0:
            witness = "intersection number is zero"
    if method == "cross_check":
        _cross_check(entries, table, ok_i, ok_iii, ok_iv, coefficient)
    return MovabilityReport(
        tuple(e.w for e in entries), flag, method,
        condition_i=ok_i, condition_iii=ok_iii, condition_iv=ok_iv,
        coefficient=coefficient, failing_witness=witness,
    )


def _evaluate(
    entries: tuple[ClassEntry, ...],
    table: FlagTable,
    method: str,
    graded: bool = False,
) -> tuple[bool | None, bool | None, bool | None, int | None, str | None]:
    """The routes the method asks for on the checked entries of an
    exact-degree tuple: (condition i, condition iii, condition iv,
    intersection number, failing witness), None for what was not
    evaluated.  This is the one place a method name selects routes.

    graded says that the tuple meets the degree conditions of the
    method's walk, as every tuple that the walk lists does: route i's
    grading at every step, or the pair degrees of routes iii and iv.
    Route i runs first, testing the grading (unless graded) before the
    oracle, so the oracle runs only on a graded tuple.  Then iii and iv
    run, and the witness is the first failure met.  The verdicts are not
    compared here; see _cross_check."""
    ok_i = ok_iii = ok_iv = coefficient = witness = None
    if method in ("via_i", "cross_check"):
        witness = None if graded else _grading_failure(entries, table)
        if witness is None:
            coefficient = _intersection_number(tuple(e.w for e in entries), table.flag)
            witness = None if coefficient else "intersection number is zero"
        ok_i = witness is None
    if method in ("via_iii", "cross_check"):
        failure = _condition_iii(entries, table, graded)
        ok_iii, witness = failure is None, witness or failure
    if method in ("via_iv", "cross_check"):
        failure = _condition_iv(entries, table)
        ok_iv, witness = failure is None, witness or failure
    return ok_i, ok_iii, ok_iv, coefficient, witness


def _cross_check(
    entries: tuple[ClassEntry, ...],
    table: FlagTable,
    ok_i: bool,
    ok_iii: bool,
    ok_iv: bool,
    coefficient: int | None,
) -> None:
    """RuntimeError unless the three verdicts agree, the projected degree
    bound (oracle._exceeds_degree) and the pairwise Bruhat test
    (oracle._vanishes) pass every tuple with a nonzero oracle number, and,
    on a movable tuple, the product of its Littlewood-Richardson leaves
    equals its oracle number."""
    classes, flag = tuple(e.w for e in entries), table.flag
    if coefficient:
        for name, rejected in (("projected degree bound", _exceeds_degree(entries, table)),
                               ("pairwise Bruhat test", _vanishes(classes, flag))):
            if rejected:
                raise RuntimeError(
                    f"the {name} finds {classes!r} zero over {flag}, the oracle {coefficient}"
                )
    if not ok_i == ok_iii == ok_iv:
        raise RuntimeError(
            f"movability conditions disagree on {classes!r} over {flag}: "
            f"i={ok_i}, iii={ok_iii}, iv={ok_iv}"
        )
    if ok_i:
        leaves = _leaf_product(entries, table)
        if leaves != coefficient:
            raise RuntimeError(
                f"leaf product {leaves} disagrees with the oracle {coefficient} "
                f"on {classes!r} over {flag}"
            )


def _check_size(s: int) -> int:
    """The tuple size as an int; reject one that is not an integer, one
    below 2, or one too large to index a list, before any work starts."""
    size = _integer(s, "the tuple size")
    if size < 2:
        raise ValueError(f"need at least two classes, got s={s}")
    if size > sys.maxsize:
        raise ValueError(f"tuple size s={s} exceeds the largest list size {sys.maxsize}")
    return size


def exact_degree_tuples(flag: FlagType, s: int) -> tuple[tuple[Perm, ...], ...]:
    """All unordered s-tuples of class indices whose codimensions sum to
    the dimension of the manifold, in lexicographic order.

    The one-coordinate case of the tuple walker (_walk): the walk has no
    coordinate beyond the codimension itself.

    >>> from .flags import FlagType
    >>> exact_degree_tuples(FlagType((1,), 2), 3)
    (((1, 2), (2, 1), (2, 1)),)
    """
    s = _check_size(s)
    table = flag_table(flag)
    return tuple(_walk(table, s, [()] * len(table.reps), ()))


def _leaf(entries: tuple[ClassEntry, ...], table: FlagTable, k: int) -> int:
    """The point coefficient of leaf k of the tuple, on the Grassmannian
    FlagTable.leaf_spaces[k].  Leaf r, the last, is the Grassmannian of
    pair (r, r+1) and reads the same partitions, so it finds the product
    that route iii has made."""
    r, m = table.leaf_spaces[k]
    return _product_to_point(tuple([e.leaf_partitions[k] for e in entries]), r, m)


def _leaf_product(entries: tuple[ClassEntry, ...], table: FlagTable) -> int:
    """The product of the Littlewood-Richardson leaves of a movable tuple
    (_leaf), one point coefficient on the Grassmannian of each step; 0 at
    the first leaf that vanishes.  This is its intersection number (the
    factorization of factor_full).  A movable tuple is pair-graded, so
    every leaf has the right degree, and only the leaves whose degree
    leaves the product open (FlagTable.lr_leaves) are visited."""
    coefficient = 1
    for k in table.lr_leaves:
        coefficient *= _leaf(entries, table, k)
        if not coefficient:
            break
    return coefficient


def _movable_coefficient(entries: tuple[ClassEntry, ...], table: FlagTable) -> int:
    """The leaf product of a movable tuple; RuntimeError if a leaf vanishes."""
    coefficient = _leaf_product(entries, table)
    if not coefficient:
        classes = tuple(e.w for e in entries)
        raise RuntimeError(f"movable tuple {classes!r} over {table.flag} has a vanishing leaf")
    return coefficient


def enumerate_levi_movable(
    flag: FlagType, s: int, method: str = "via_iii"
) -> list[tuple[tuple[Perm, ...], int]]:
    """All unordered Levi-movable s-tuples with their intersection
    numbers, in lexicographic order.  Tuples differing only by a
    reordering are listed once; every movability condition and the
    coefficient are invariant under reordering.

    The walk (_walk) only builds the candidates of the chosen route.
    via_iii and via_iv walk the pair codimensions against (b_i * b_j):
    a movable tuple's flattened codimensions sum to the dimension of each
    pair Grassmannian, which is part of condition (iv) and the degree of
    each pair product of condition (iii).  via_i walks the projected
    codimensions against (a_i * (n - a_i)), its own grading test.  Both
    vectors are columns of the flag table (FlagTable.column), the pair
    codimensions lifted from the fiber's and the projected codimensions
    read off each class, and a candidate of either walk is not tested
    against its target again (graded).  cross_check walks every
    exact-degree tuple.  Every candidate is then decided from the entries
    of the flag table by _evaluate, the evaluator of is_levi_movable, and
    cross_check raises RuntimeError unless its three verdicts agree
    (_cross_check).  Unlike a report, no oracle runs on a tuple that
    fails the grading.

    A movable tuple's coefficient is its leaf product
    (_movable_coefficient); via_i and cross_check keep the oracle number
    they decided by, and cross_check requires the two to be equal.

    >>> from .flags import FlagType
    >>> [(t, c) for t, c in enumerate_levi_movable(FlagType((1,), 2), 2)]
    [(((1, 2), (2, 1)), 1)]
    """
    s = _check_size(s)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    table = flag_table(flag)
    if method == "cross_check":
        candidates = exact_degree_tuples(flag, s)
    elif method == "via_i":
        candidates = _walk(
            table, s,
            table.column("projected_codims"),
            table.step_dimensions,
        )
    else:
        candidates = _walk(
            table, s,
            table.column("pair_codims"),
            table.pair_target,
        )
    graded = method != "cross_check"
    out = []
    for classes in candidates:
        entries = tuple(map(table._entry, classes))
        ok_i, ok_iii, ok_iv, coefficient, _ = _evaluate(entries, table, method, graded)
        if method == "cross_check":
            _cross_check(entries, table, ok_i, ok_iii, ok_iv, coefficient)
        # one verdict was evaluated, or three that agree
        if not any((ok_i, ok_iii, ok_iv)):
            continue
        if coefficient is None:
            coefficient = _movable_coefficient(entries, table)
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
    table = flag_table(flag)
    return _bk_coefficient(table.entry(w), table.entry(u), table.entry(v), table)


def _bk_coefficient(first: ClassEntry, second: ClassEntry, third: ClassEntry, table) -> int:
    """bk_structure_constant on checked entries: route iii decides the triple
    (w, u, dual of v), and a movable one's coefficient is its leaf product."""
    triple = (first, second, table._entry(third.dual))
    if first.codim + second.codim != third.codim or _condition_iii(triple, table):
        return 0
    return _movable_coefficient(triple, table)


def bk_product(w: Perm, u: Perm, flag: FlagType) -> dict[Perm, int]:
    """Deformed product of two classes: each class v of codimension
    codim(w) + codim(u) with its nonzero coefficient (bk_structure_constant),
    in lexicographic order of v.

    >>> from .flags import FlagType
    >>> bk_product((2, 3, 1), (3, 1, 2), FlagType((1, 2), 3))
    {}
    """
    table = flag_table(flag)
    first, second = table.entry(w), table.entry(u)
    target = first.codim + second.codim
    terms = {v: _bk_coefficient(first, second, table._entry(v), table)
             for v, c in zip(table.reps, table.codims) if c == target}
    return {v: c for v, c in terms.items() if c}
