"""The named verification suites at reduced bounds (the acceptance module
runs them at full bounds)."""

import pytest

from flaghorn import factor, levi, suites
from flaghorn.factor import factor_full
from flaghorn.flags import FlagType
from flaghorn.levi import MovabilityReport, exact_degree_tuples, is_levi_movable
from flaghorn.suites import (
    SUITES,
    THM1_FLAGS,
    SuiteResult,
    movable_rows,
    run_all,
    run_cor13,
    run_duality,
    run_lengths,
    run_lr_oracle,
    run_thm1,
    run_thm2,
    run_suite,
)


def check_passing(result, name):
    assert isinstance(result, SuiteResult)
    assert result.name == name
    assert result.passed, result.failures
    assert result.failures == []
    assert result.lines, "a suite reports what it checked"


@pytest.mark.parametrize(
    "name,max_n",
    [
        ("thm1", 4),
        ("thm2", 4),
        ("cor13", 4),
        ("lengths", 5),
        ("lr-oracle", 4),
        ("duality", 4),
    ],
)
def test_suites_pass_at_reduced_bounds(name, max_n):
    check_passing(run_suite(name, max_n), name)


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("thm3")


def _no_sweep(n):
    raise AssertionError(f"a refused bound started a sweep at n={n}")


@pytest.mark.parametrize(
    "name, max_n, classes",
    [("lengths", 9, 7685696), ("duality", 8, 598436), ("duality", 9, 7685696)],
)
def test_a_bound_past_the_sweep_limit_is_refused_before_any_sweep(
    monkeypatch, name, max_n, classes
):
    monkeypatch.setattr(suites, "enumerate_flag_types", _no_sweep)
    message = f"^{name}: max_n={max_n} asks for {classes} classes of every flag type"
    with pytest.raises(ValueError, match=message):
        run_suite(name, max_n)
    # run_all refuses before its first suite runs
    monkeypatch.setitem(suites.SUITES, "thm1", _no_sweep)
    with pytest.raises(ValueError, match=f"^(lengths|duality): max_n={max_n} "):
        run_all(max_n)


@pytest.mark.parametrize(
    "max_n, asks", [(2, "2"), (6, "5310"), (7, "52602"), (10**10, r"more than \d+")]
)
def test_the_classes_asked_for_follow_the_ordered_bell_numbers(monkeypatch, max_n, asks):
    # under a limit of 1: n <= 6 and n <= 7 give the counts lengths
    # prints, and a bound past n = 30 is answered at once, as a lower bound
    monkeypatch.setitem(suites._SWEEP_LIMITS, "lengths", 1)
    with pytest.raises(ValueError, match=f"^lengths: max_n={max_n} asks for {asks} classes "):
        suites._check_sweep_bound("lengths", max_n)


def test_the_bounds_at_the_limits_are_let_through():
    for name, limit in suites._SWEEP_LIMITS.items():
        suites._check_sweep_bound(name, limit)
        suites._check_sweep_bound(name, None)


def test_run_all_order():
    results = run_all(4)
    assert [r.name for r in results] == list(SUITES)
    assert len(results) == 6
    for r in results:
        assert r.passed, (r.name, r.failures)


def test_thm1_flag_list_is_frozen():
    assert THM1_FLAGS == (
        FlagType((1, 2), 3),
        FlagType((1, 2), 4),
        FlagType((1, 3), 4),
        FlagType((2,), 4),
        FlagType((1, 2, 3), 4),
        FlagType((2,), 5),
        FlagType((1, 2), 5),
    )


def test_movable_rows_reduced():
    rows = movable_rows(3)
    assert all(flag.n <= 3 for flag, _, _ in rows)
    assert len(rows) == 6  # three pairs and three triples on the one flag with n = 3
    # movable_rows reads the route-i walk, so it must list exactly the
    # exact-degree tuples of the sweep that route i's report accepts,
    # numbers included
    for max_n in (3, 4, None):
        swept = []
        for flag in [f for f in THM1_FLAGS if max_n is None or f.n <= max_n]:
            for s in suites.SWEEP_SIZES:
                for classes in exact_degree_tuples(flag, s):
                    report = is_levi_movable(classes, flag, "via_i")
                    if report.movable:
                        swept.append((flag, classes, report.coefficient))
        assert movable_rows(max_n) == swept, max_n


@pytest.mark.parametrize(
    "core,failure",
    [
        ("_restrict_to_fiber", "2/4, w=(2, 4, 1, 3): fiber length 1 != 0"),
        ("_standardize", "1,2/3, w=(3, 2, 1), step 1: projected fiber length 1 != 0"),
    ],
)
def test_lengths_catches_a_wrong_map(monkeypatch, core, failure):
    """The suite runs unchecked maps; a map that returns a wrong
    permutation must make it fail on the class it got wrong."""
    right = getattr(suites, core)
    monkeypatch.setattr(suites, core, lambda *args: right(*args)[::-1])
    result = run_lengths(4)
    assert not result.passed
    assert failure in result.failures


def test_lengths_memo_lives_for_one_run(monkeypatch):
    """A run after a warm one must apply the projection map again: a
    replaced map that reverses its result must make the suite fail on a
    class it got wrong."""
    assert run_lengths(4).passed
    right = suites._project_to_step
    monkeypatch.setattr(suites, "_project_to_step", lambda *args: right(*args)[::-1])
    result = run_lengths(4)
    assert not result.passed
    assert "1/3, w=(3, 1, 2): fiber length 0 != 1" in result.failures


def test_lengths_memos_are_keyed_by_the_full_input(monkeypatch):
    """Each class is restricted to its fiber once per distinct
    (permutation, first step), and the run still passes: a fiber record
    keyed by the permutation alone would hand a class the fiber of
    another flag type's first step.  A projection that sorts the prefix
    but leaves the suffix as it is must make the suite fail: a record
    keyed by the prefix alone would answer with the length of the right
    projection and hide it."""
    restricted = []
    right = suites._restrict_to_fiber

    def counted(w, a1):
        restricted.append((w, a1))
        return right(w, a1)

    monkeypatch.setattr(suites, "_restrict_to_fiber", counted)
    result = run_lengths()
    check_passing(result, "lengths")
    assert result.lines[0] == "fiber length identity on 5310 classes, n <= 6"
    # one more for the rejected reading, which runs on fresh memos
    assert len(restricted) == 1493 and len(set(restricted)) == 1492
    monkeypatch.setattr(suites, "_restrict_to_fiber", right)
    monkeypatch.setattr(
        suites, "_project_to_step", lambda w, a: tuple(sorted(w[:a])) + tuple(w[a:])
    )
    result = run_lengths(4)
    assert not result.passed
    assert "1,2/3, w=(1, 3, 2): fiber length 1 != 0" in result.failures


def test_lengths_counts_each_permutation_once_per_run(monkeypatch):
    """The sweep counts the length of each distinct permutation once,
    whether it is a class, a fiber restriction, a projection or a
    standardized pair slice: for n <= 6 that is every permutation of 1 to
    6 letters.  The rejected reading runs on fresh records and counts the
    six permutations it reads once more."""
    counted = []
    right = suites.length
    monkeypatch.setattr(suites, "length", lambda w: counted.append(w) or right(w))
    check_passing(run_lengths(), "lengths")
    assert len(set(counted)) == 873 == 1 + 2 + 6 + 24 + 120 + 720
    assert counted[:873] == list(dict.fromkeys(counted[:873]))
    assert sorted(counted[873:]) == [(1, 2), (1, 2, 3), (2, 1), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_lengths_catches_a_projection_wrong_at_one_step_value(monkeypatch):
    """A projection that leaves the suffix unsorted at the step value 2
    alone must fail the suite on the classes it gets wrong, both where 2
    is the first step and where it is a later one: a record that read one
    step value for another would hide it."""
    right = suites._project_to_step
    monkeypatch.setattr(
        suites, "_project_to_step",
        lambda w, a: tuple(sorted(w[:a])) + w[a:] if a == 2 else right(w, a),
    )
    result = run_lengths(4)
    assert not result.passed
    assert "2,3/4, w=(1, 2, 4, 3): fiber length 1 != 0" in result.failures
    assert "1,2,3/4, w=(4, 3, 2, 1), step 1: projected fiber length 2 != 3" in result.failures
    assert len(result.failures) == 24


def test_cor13_checks_the_oracle_numbers(monkeypatch):
    """cor13 checks the oracle number the route-i walk decided each tuple
    by; an oracle core that is off by one must make it fail."""
    right = levi._intersection_number
    monkeypatch.setattr(
        levi, "_intersection_number", lambda classes, flag: right(classes, flag) + 1
    )
    result = run_cor13()
    assert not result.passed
    assert (
        "1,2/3 s=2: movable tuple ((1, 2, 3), (3, 2, 1)) has coefficient 2, "
        "expected 1"
    ) in result.failures


def test_cor13_runs_route_i_alone(monkeypatch):
    """cor13 reads the route-i walk, so routes iii and iv never run, and
    it still finds every movable tuple."""

    def refuse(entries, table, *args):
        raise AssertionError("cor13 ran a route other than route i")

    monkeypatch.setattr(levi, "_condition_iii", refuse)
    monkeypatch.setattr(levi, "_condition_iv", refuse)
    result = run_cor13()
    check_passing(result, "cor13")
    assert result.lines == [
        f"{flag} s={s}: {count} movable tuples, all coefficient 1"
        for flag, s, count in [
            ("1,2/3", 2, 3),
            ("1,2/3", 3, 3),
            ("1,2,3/4", 2, 12),
            ("1,2,3/4", 3, 17),
            ("1,2,3,4/5", 2, 60),
        ]
    ]


def test_thm1_catches_a_wrong_route(monkeypatch):
    """The sweep runs the cross-check of enumerate_levi_movable; a
    pairwise route that passes every tuple must make the conditions
    disagree, and a case that fails prints no line."""
    monkeypatch.setattr(levi, "_condition_iii", lambda entries, table, *args: None)
    result = run_thm1(3)
    assert not result.passed
    assert any("i=False, iii=True, iv=False" in f for f in result.failures)
    assert not any(line.startswith("1,2/3 ") for line in result.lines), result.lines


def test_thm1_checks_the_leaf_product(monkeypatch):
    """The sweep compares each movable tuple's leaf product with its
    oracle number; a leaf product that is off by one must make it fail."""
    assert run_thm1(3).lines == [
        "1,2/3 s=2: 5 exact-degree tuples, 3 movable, conditions agree",
        "1,2/3 s=3: 9 exact-degree tuples, 3 movable, conditions agree",
    ]
    leaf_product = levi._leaf_product
    monkeypatch.setattr(levi, "_leaf_product", lambda *args: leaf_product(*args) + 1)
    result = run_thm1(3)
    assert not result.passed
    assert result.failures == [
        f"1,2/3 s={s}: leaf product 2 disagrees with the oracle 1 on "
        f"{classes} over 1,2/3"
        for s, classes in [(2, "((1, 2, 3), (3, 2, 1))"),
                           (3, "((1, 2, 3), (3, 2, 1), (3, 2, 1))")]
    ]
    assert result.lines == []


def test_thm2_decides_every_fiber_level(monkeypatch):
    """The factorization tree does not decide its fibers again, so the
    suite does, through is_levi_movable; a decision that refuses every
    fiber must show as a lost reduction of each multi-step tuple."""
    right = suites.is_levi_movable

    def refuse(classes, flag, method="via_iii"):
        report = right(classes, flag, method)
        return MovabilityReport(
            report.classes, report.flag, report.method, report.condition_i,
            condition_iii=False, condition_iv=report.condition_iv,
            coefficient=report.coefficient, failing_witness="refused",
        )

    monkeypatch.setattr(suites, "is_levi_movable", refuse)
    result = run_thm2(4)
    assert not result.passed
    lost = [f for f in result.failures if "lost movability" in f]
    assert lost and len(lost) == len(result.failures)
    assert len(lost) == sum(flag.r > 1 for flag, _, _ in movable_rows(4))


def _plus_one(right):
    return lambda *args: right(*args) + 1


def _factor_checked_by_the_oracle():
    with pytest.raises(RuntimeError) as info:
        factor_full(((2, 3, 1), (2, 1, 3)), FlagType((1, 2), 3), verify_with_oracle=True)
    return [str(info.value)]


@pytest.mark.parametrize(
    "module,name,wrong,run,texts",
    [
        (suites, "intersection_number", _plus_one, lambda: run_thm2(3).failures,
         ["split of ((1, 2, 3), (3, 2, 1)) gives 1 * 2 != 1"]),
        (factor, "_leaf", _plus_one, lambda: run_thm2(3).failures,
         ["tree over ((1, 2, 3), (3, 2, 1)) multiplies to 4, oracle says 1"]),
        (suites, "grassmannian_flag", lambda right: lambda r, n: right(r, n + 1),
         lambda: run_thm2(3).failures,
         ["leaf spaces ['1/3', '1/2'] differ from ['1/4', '1/3']"]),
        (suites, "product_to_point", _plus_one, lambda: run_lr_oracle(4).failures,
         ["gives LR 2, oracle 1", "4th power of the codimension-1 class gives 3, expected 2"]),
        (suites, "flatten", lambda right: lambda w, positions: (1, 2, 3),
         lambda: run_duality(2).failures, ["gives (1, 2, 3), expected (1, 3, 2)"]),
        (factor, "intersection_number", _plus_one, _factor_checked_by_the_oracle,
         ["factored coefficient 1 disagrees with the oracle on ((2, 1), (1, 2)) over 1/2"]),
    ],
    ids=["thm2-split", "thm2-tree", "thm2-leaf-spaces", "lr-oracle", "duality-flatten",
         "factor-full-oracle"],
)
def test_a_wrong_map_fires_its_failure_branch(monkeypatch, module, name, wrong, run, texts):
    """Each check of thm2, lr-oracle and duality, and the oracle check of
    factor_full, must report a map that goes wrong, naming the instance."""
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    failures = run()
    for text in texts:
        assert any(text in failure for failure in failures), (text, failures)


def test_duality_catches_a_wrong_dual(monkeypatch):
    """The suite takes duals unchecked; a dual map that returns the class
    itself must make a pairing miss its expected value."""
    monkeypatch.setattr(suites, "_dual", lambda w, flag: w)
    result = run_duality(3)
    assert not result.passed
    assert "1,2/3: pairing of (1, 2, 3) with (3, 2, 1) gives 1, expected 0" in result.failures


def test_suites_reach_the_oracle_core(monkeypatch):
    """The suites and the oracle route of levi call the unchecked oracle
    core; a core that is off by one must make the pairings and the
    equivalence sweep fail."""
    right = suites._intersection_number

    def wrong(classes, flag):
        return right(classes, flag) + 1

    monkeypatch.setattr(suites, "_intersection_number", wrong)
    monkeypatch.setattr(levi, "_intersection_number", wrong)
    duality = run_duality(4)
    thm1 = run_thm1(4)
    assert not duality.passed
    assert "1/2: pairing of (1, 2) with (2, 1) gives 2, expected 1" in duality.failures
    assert not thm1.passed
    assert (
        "1,2/3 s=2: leaf product 1 disagrees with the oracle 2 on "
        "((1, 2, 3), (3, 2, 1)) over 1,2/3"
    ) in thm1.failures
