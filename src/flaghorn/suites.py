"""Exhaustive verification suites.

Each suite sweeps a bounded family of flag types and checks one exact
identity on every instance, with zero tolerance:

  thm1      the cross-check of levi on every tuple with exact
            codimension sum: the three movability conditions agree,
            and a movable tuple's leaf product is its oracle number;
  cor13     on complete flag manifolds every movable tuple has
            intersection number exactly 1, read off the route-i walk
            of the graded tuples;
  thm2      every movable tuple, read off the route-i walk as for
            cor13, factors: base times fiber coefficient equals the
            oracle number, full trees multiply out to it over the stated
            Grassmannian leaves, and both reductions stay movable;
  lengths   the fiber restriction length identities, including the
            projected form with its validated index convention;
  lr-oracle Littlewood-Richardson point products agree with the
            polynomial oracle on small Grassmannians;
  duality   a class pairs to 1 against its dual and to 0 against every
            other class of complementary length.
"""

from __future__ import annotations

import math

from .factor import factor_full
from .flags import (
    FlagType,
    _Record,
    _dual,
    _project_to_step,
    _restrict_to_fiber,
    complete_flag,
    enumerate_flag_types,
    enumerate_minimal_reps,
    fiber_flag,
    grassmannian_flag,
)
from .grassmann import partition_from_perm, product_to_point
from .levi import enumerate_levi_movable, exact_degree_tuples, is_levi_movable
from .oracle import _Memo, _intersection_number, intersection_number
from .perm import Perm, _integer, _standardize, flatten, length

__all__ = [
    "SuiteResult",
    "THM1_FLAGS",
    "movable_rows",
    "run_thm1",
    "run_cor13",
    "run_thm2",
    "run_lengths",
    "run_lr_oracle",
    "run_duality",
    "SUITES",
    "run_suite",
    "run_all",
]

THM1_FLAGS: tuple[FlagType, ...] = (
    FlagType((1, 2), 3),
    FlagType((1, 2), 4),
    FlagType((1, 3), 4),
    FlagType((2,), 4),
    FlagType((1, 2, 3), 4),
    FlagType((2,), 5),
    FlagType((1, 2), 5),
)

SWEEP_SIZES = (2, 3)


class SuiteResult(_Record):
    """Outcome of one suite: human-readable lines plus the failures that
    decided the verdict (empty when passed).  Mutable; lines and
    failures default to new empty lists."""

    __match_args__ = ("name", "passed", "lines", "failures")

    def __init__(self, name: str, passed: bool, lines: list[str] | None = None,
                 failures: list[str] | None = None) -> None:
        self.name, self.passed = name, passed
        self.lines = [] if lines is None else lines
        self.failures = [] if failures is None else failures


def _finish(
    result: SuiteResult, instances: int, what: str, max_n: int | None
) -> SuiteResult:
    """Set the verdict.  A bound that leaves nothing to sweep fails the
    suite, since a suite that checked nothing has shown nothing; fixed
    pinned examples do not count as instances."""
    if not instances:
        result.failures.append(f"bound max_n={max_n} leaves no {what} to check")
    result.passed = not result.failures
    return result


# Past these bounds the sweeps over every flag type with n <= max_n run
# for hours: lengths reads every class, duality every complementary pair.
_SWEEP_LIMITS = {"lengths": 8, "duality": 7}


def _check_sweep_bound(name: str, max_n: int | None) -> None:
    """ValueError, before any sweep, for a bound past the suite's limit.
    It names the classes of every flag type with 2 <= n <= max_n: the
    ordered Bell number of n, less the flag type with no steps, summed up
    to n = 30 at most."""
    if max_n is not None and max_n > _SWEEP_LIMITS[name]:
        fubini = [1]
        for n in range(1, min(max_n, 30) + 1):
            fubini.append(sum(math.comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
        raise ValueError(
            f"{name}: max_n={max_n} asks for {'more than ' if max_n > 30 else ''}"
            f"{sum(f - 1 for f in fubini[2:])} classes of every flag type with "
            f"n <= {max_n}; the largest bound {name} sweeps is {_SWEEP_LIMITS[name]}"
        )


def _sweep_flags(max_n: int | None) -> tuple[FlagType, ...]:
    return tuple(f for f in THM1_FLAGS if max_n is None or f.n <= max_n)


def movable_rows(
    max_n: int | None = None,
) -> list[tuple[FlagType, tuple[Perm, ...], int]]:
    """Every movable tuple of the equivalence sweep with its intersection
    number, from the route-i walk (enumerate_levi_movable), which keeps
    the oracle number it decided each tuple by."""
    return [
        (flag, classes, coefficient)
        for flag in _sweep_flags(max_n)
        for s in SWEEP_SIZES
        for classes, coefficient in enumerate_levi_movable(flag, s, "via_i")
    ]


def run_thm1(max_n: int | None = None) -> SuiteResult:
    """Equivalence of the three movability conditions on every exact
    degree tuple of the sweep family, by the cross-check of
    enumerate_levi_movable: it walks every exact-degree tuple and raises
    RuntimeError unless routes i, iii and iv agree, neither oracle zero
    test rejects a nonzero tuple, and each movable tuple's leaf product
    equals its oracle number.  A case that raises is one failure, its
    first rejected tuple, and prints no line."""
    result = SuiteResult("thm1", True)
    checked = 0
    for flag in _sweep_flags(max_n):
        for s in SWEEP_SIZES:
            tuples = len(exact_degree_tuples(flag, s))
            checked += tuples
            try:
                movable = len(enumerate_levi_movable(flag, s, "cross_check"))
            except RuntimeError as exc:
                result.failures.append(f"{flag} s={s}: {exc}")
                continue
            result.lines.append(
                f"{flag} s={s}: {tuples} exact-degree tuples, "
                f"{movable} movable, conditions agree"
            )
    return _finish(result, checked, "exact-degree tuples", max_n)


def run_cor13(max_n: int | None = None) -> SuiteResult:
    """On complete flag manifolds every movable tuple has intersection
    number exactly 1 (n = 3, 4 at sizes 2 and 3; n = 5 at size 2).

    The movable tuples come from the route-i walk of
    enumerate_levi_movable: it visits only the graded tuples and keeps
    the oracle number it decided each one by, so the coefficient checked
    is the oracle's, and no other route runs."""
    result = SuiteResult("cor13", True)
    checked = 0
    cases = [(3, (2, 3)), (4, (2, 3)), (5, (2,))]
    for n, sizes in cases:
        if max_n is not None and n > max_n:
            continue
        flag = complete_flag(n)
        for s in sizes:
            movable = 0
            for classes, coefficient in enumerate_levi_movable(flag, s, "via_i"):
                movable += 1
                if coefficient != 1:
                    result.failures.append(
                        f"{flag} s={s}: movable tuple {classes!r} has "
                        f"coefficient {coefficient}, expected 1"
                    )
            result.lines.append(
                f"{flag} s={s}: {movable} movable tuples, all coefficient 1"
            )
            checked += movable
    return _finish(result, checked, "movable tuples", max_n)


def run_thm2(max_n: int | None = None) -> SuiteResult:
    """Factorization identities over every movable tuple of the sweep
    (movable_rows, the route-i walk): the one-step split multiplies back
    to the oracle number, the full tree multiplies out to it across the
    expected Grassmannian leaves, and both reductions remain movable."""
    result = SuiteResult("thm2", True)
    per_flag: dict[FlagType, int] = {}
    for flag, classes, coefficient in movable_rows(max_n):
        per_flag[flag] = per_flag.get(flag, 0) + 1
        tree = factor_full(classes, flag)
        c1 = tree.base.coefficient
        c_fiber = (
            1 if tree.fiber is None
            else intersection_number(tree.fiber.classes, tree.fiber.flag)
        )
        if c1 * c_fiber != coefficient:
            result.failures.append(
                f"{flag}: split of {classes!r} gives {c1} * {c_fiber} != "
                f"{coefficient}"
            )
        leaves = tree.leaf_factors()
        product = math.prod(leaf.coefficient for leaf in leaves)
        if tree.coefficient != coefficient or product != coefficient:
            result.failures.append(
                f"{flag}: tree over {classes!r} multiplies to {product}, "
                f"oracle says {coefficient}"
            )
        bounds = flag.bounds
        expected_spaces = [
            grassmannian_flag(flag.block_sizes[i - 1], flag.n - bounds[i - 1])
            for i in range(1, flag.r + 1)
        ]
        if [leaf.space for leaf in leaves] != expected_spaces:
            result.failures.append(
                f"{flag}: leaf spaces {[str(l.space) for l in leaves]} differ "
                f"from {[str(e) for e in expected_spaces]}"
            )
        # on a Grassmannian movable means a nonzero product, which the
        # tree asserts of every leaf; every fiber level is decided here
        if not all(is_levi_movable(t.classes, t.flag).movable for t in tree.levels()[1:]):
            result.failures.append(
                f"{flag}: a reduction of {classes!r} lost movability"
            )
    for flag, count in per_flag.items():
        result.lines.append(
            f"{flag}: {count} movable tuples factored, split and tree and "
            f"reductions verified"
        )
    return _finish(result, sum(per_flag.values()), "movable tuples", max_n)


def _length_records() -> tuple[_Memo, _Memo, _Memo]:
    """Fresh memos of the records the lengths suite reads.

    perms[w] is (length(w), the length of the projection of w to each
    step value a = 0 .. len(w)); fibers[w, a1] is (perms of the fiber
    restriction of w past the first step a1, the head w[:a1]); flats[v]
    is the length of the standardization of the values v of a pair
    slice.  Each record covers the full input of its maps: a projection
    record holds every step value, and a fiber record is keyed by the
    first step too, since a record keyed by part of the input would hide
    a map that goes wrong on the rest.  The length of a permutation met
    before is not counted again, and each map is looked up when a record
    is first made, so a replaced map is the one applied."""
    lengths = _Memo(length)
    perms = _Memo(lambda w: (
        lengths[w],
        tuple([lengths[_project_to_step(w, a)] for a in range(len(w) + 1)]),
    ))
    return (
        perms,
        _Memo(lambda key: (perms[_restrict_to_fiber(*key)], key[0][:key[1]])),
        _Memo(lambda values: lengths[_standardize(values)]),
    )


def run_lengths(max_n: int | None = None) -> SuiteResult:
    """Length identities for the fiber reduction, over every class of
    every flag type up to the ambient bound (default 6).

    The classes come from enumerate_minimal_reps, so they are valid by
    construction and the maps run unchecked.  The fiber length identity
    compares the length of the fiber restriction with length(w) minus
    the length of the projection of w to the first step; the projected
    form compares, at each step i = 1 .. r-1, the length of the fiber
    restriction projected to fiber step i with the length of the
    projection of w to step i+1, minus that to the first step, plus the
    lengths of the pair flattenings of block 1 against blocks 2 .. i+1.
    The two sides still go through distinct maps, the fiber restriction
    (then projected on the fiber) against projections of the class and
    its pair flattenings, not readings of one shared inversion table.

    The projected form needs an index convention for how far the pair
    flattening sum runs; the validated reading sums blocks 2 .. i+1.
    The reading that stops at block i fails already on the complete flag
    manifold of C^3, which this suite also pins down.

    Each run keeps its own records (_length_records): one per
    permutation, with its length and the lengths of its projections to
    every step value, and one per class and first step, with the record
    of its fiber restriction and its head.  A class then costs one fiber
    lookup and one permutation lookup, and each step past the first one
    pair-flattening lookup and two indexings; a permutation is
    restricted, projected and counted once per run however many flag
    types reach it (for n <= 6 the 5,310 classes reach 1,492 distinct
    fiber restrictions and 873 permutations).  Nothing is cached at
    module level: ``enumerate`` and ``query`` take lengths of far larger
    permutations, which an unbounded cache would keep alive, and a cache
    that outlived the run would answer for a map that has since been
    replaced."""
    _check_sweep_bound("lengths", max_n)
    bound = 6 if max_n is None else max_n
    result = SuiteResult("lengths", True)
    checked = 0
    projected_checked = 0
    perms, fibers, flats = _length_records()
    for n in range(2, bound + 1):
        for flag in enumerate_flag_types(n):
            a1 = flag.steps[0]
            # step i of the fiber and step i+1 of w, with block i+1 of w:
            # the blocks 2 .. r that the pair sums reach
            steps = tuple(zip(
                fiber_flag(flag).steps, flag.steps[1:], flag.bounds[1:-2], flag.bounds[2:-1],
            ))
            for w in enumerate_minimal_reps(flag):
                checked += 1
                (fiber_length, fiber_proj), head = fibers[w, a1]
                w_length, proj = perms[w]
                first = proj[a1]
                if fiber_length != w_length - first:
                    result.failures.append(
                        f"{flag}, w={w!r}: fiber length {fiber_length} != "
                        f"{w_length - first}"
                    )
                projected_checked += len(steps)
                pair_sum = 0
                for i, (f, a, lo, hi) in enumerate(steps, start=1):
                    pair_sum += flats[head + w[lo:hi]]
                    got, want = fiber_proj[f], proj[a] - first + pair_sum
                    if got != want:
                        result.failures.append(
                            f"{flag}, w={w!r}, step {i}: projected fiber "
                            f"length {got} != {want}"
                        )
    result.lines.append(
        f"fiber length identity on {checked} classes, n <= {bound}"
    )
    result.lines.append(
        f"projected form (pair flattenings of blocks 2..i+1) on "
        f"{projected_checked} instances"
    )
    if bound >= 3:
        # step i = 1 of the fiber (1)/2 against step 2 of w, on fresh
        # records: the rejected reading sums blocks 2 .. i, none here
        w, flag = (3, 2, 1), FlagType((1, 2), 3)
        perms, fibers, _ = _length_records()
        (_, fiber_proj), _ = fibers[w, 1]
        proj = perms[w][1]
        actual, literal = fiber_proj[1], proj[2] - proj[1]
        if literal == actual:
            result.failures.append(
                "the rejected index reading (blocks 2..i) unexpectedly "
                "matches on the recorded counterexample"
            )
        else:
            result.lines.append(
                f"rejected reading (blocks 2..i) confirmed failing at "
                f"{flag}, w={w!r}: {literal} != {actual}"
            )
    return _finish(result, checked, "classes", max_n)


def run_lr_oracle(max_n: int | None = None) -> SuiteResult:
    """Littlewood-Richardson point products against the polynomial
    oracle: every exact-degree triple on the small Grassmannians, plus
    the two classical power facts for the codimension-1 class.  The
    triples come from the tuple walker and go to the oracle unchecked."""
    result = SuiteResult("lr-oracle", True)
    checked = 0
    spaces = [(2, 4), (2, 5), (3, 5)]
    for r, n in spaces:
        if max_n is not None and n > max_n:
            continue
        flag = grassmannian_flag(r, n)
        count = 0
        for classes in exact_degree_tuples(flag, 3):
            count += 1
            parts = tuple(partition_from_perm(w, r, n) for w in classes)
            lr = product_to_point(parts, r, n)
            oracle = _intersection_number(classes, flag)
            if lr != oracle:
                result.failures.append(
                    f"Gr({r},{n}): {classes!r} gives LR {lr}, oracle {oracle}"
                )
        result.lines.append(f"Gr({r},{n}): {count} triples, LR == oracle")
        checked += count
    powers = [((1,), 4, 2, 4, 2), ((1,), 6, 2, 5, 5)]
    for part, s, r, n, expected in powers:
        if max_n is not None and n > max_n:
            continue
        got = product_to_point((part,) * s, r, n)
        if got != expected:
            result.failures.append(
                f"Gr({r},{n}): {s}th power of the codimension-1 class gives "
                f"{got}, expected {expected}"
            )
        else:
            result.lines.append(
                f"Gr({r},{n}): codimension-1 class to the power {s} = "
                f"{expected} times the point class"
            )
    return _finish(result, checked, "triples", max_n)


def run_duality(max_n: int | None = None) -> SuiteResult:
    """Poincare pairing: on every flag type with ambient bound (default
    5), a class meets its dual in exactly the point class and meets any
    other class of complementary length in zero.  Also pins the value of
    one fixed standardization bit-exactly.  The complementary pairs come
    from the tuple walker, so their classes are valid by construction and
    go to the oracle unchecked; the dual of each class is read once per
    flag type, not once per pair."""
    _check_sweep_bound("duality", max_n)
    bound = 5 if max_n is None else max_n
    result = SuiteResult("duality", True)
    checked = 0
    for n in range(2, bound + 1):
        pairs = 0
        for flag in enumerate_flag_types(n):
            duals = _Memo(lambda w: _dual(w, flag))
            for w, v in exact_degree_tuples(flag, 2):
                pairs += 1
                expected = 1 if duals[w] == v else 0
                got = _intersection_number((w, v), flag)
                if got != expected:
                    result.failures.append(
                        f"{flag}: pairing of {w!r} with {v!r} gives {got}, "
                        f"expected {expected}"
                    )
        result.lines.append(f"n={n}: {pairs} complementary pairs checked")
        checked += pairs
    example = flatten((2, 5, 3, 1, 4), (1, 2, 5))
    if example != (1, 3, 2):
        result.failures.append(
            f"standardization of (2,5,3,1,4) on positions (1,2,5) gives "
            f"{example!r}, expected (1, 3, 2)"
        )
    else:
        result.lines.append(
            "standardization of (2,5,3,1,4) on positions (1,2,5) is (1,3,2)"
        )
    return _finish(result, checked, "pairs", max_n)


SUITES = {
    "thm1": run_thm1,
    "thm2": run_thm2,
    "cor13": run_cor13,
    "lengths": run_lengths,
    "lr-oracle": run_lr_oracle,
    "duality": run_duality,
}


def run_suite(name: str, max_n: int | None = None) -> SuiteResult:
    """Run one named suite; ValueError for an unknown name."""
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}, expected one of {sorted(SUITES)} or 'all'"
        )
    return SUITES[name](max_n if max_n is None else _integer(max_n, "max_n"))


def run_all(max_n: int | None = None) -> list[SuiteResult]:
    """Run every suite in declaration order, once the bound is checked."""
    max_n = max_n if max_n is None else _integer(max_n, "max_n")
    for name in _SWEEP_LIMITS:
        _check_sweep_bound(name, max_n)
    return [runner(max_n) for runner in SUITES.values()]
