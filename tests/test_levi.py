"""Movability checks, enumeration, and the filtered structure constants."""

from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

from flaghorn import flags, grassmann, levi
from flaghorn.flags import (
    ClassEntry,
    FlagType,
    check_minimal_rep,
    codim,
    complete_flag,
    dual,
    enumerate_flag_types,
    enumerate_minimal_reps,
    flag_table,
    grassmannian_flag,
    projected_codim,
)
from flaghorn.grassmann import condition_iii_failure, condition_iv_failure
from flaghorn.levi import (
    METHODS,
    MovabilityReport,
    bk_product,
    bk_structure_constant,
    check_condition_i,
    condition_i_detail,
    enumerate_levi_movable,
    exact_degree_tuples,
    is_levi_movable,
)
from flaghorn.oracle import intersection_number, structure_constants_pair


F3 = complete_flag(3)
MOVABLE_PAIR = ((2, 1, 3), (2, 3, 1))
BLOCKED_TRIPLE = ((3, 1, 2), (3, 1, 2), (2, 3, 1))


def test_condition_i_examples():
    assert check_condition_i(MOVABLE_PAIR, F3)
    assert not check_condition_i(BLOCKED_TRIPLE, F3)
    ok, coefficient, witness = condition_i_detail(MOVABLE_PAIR, F3)
    assert (ok, coefficient, witness) == (True, 1, None)
    ok, coefficient, witness = condition_i_detail(BLOCKED_TRIPLE, F3)
    assert not ok
    assert coefficient == 1  # the product is nonzero, the grading test fails
    assert "step 1" in witness


def test_methods_agree_on_examples():
    for classes, expected in [(MOVABLE_PAIR, True), (BLOCKED_TRIPLE, False)]:
        verdicts = set()
        for method in METHODS:
            report = is_levi_movable(classes, F3, method=method)
            assert isinstance(report, MovabilityReport)
            assert report.method == method
            verdicts.add(report.movable)
        assert verdicts == {expected}


def test_cross_check_populates_everything():
    report = is_levi_movable(MOVABLE_PAIR, F3, method="cross_check")
    assert report.condition_i is True
    assert report.condition_iii is True
    assert report.condition_iv is True
    assert report.coefficient == 1
    assert report.failing_witness is None

    report = is_levi_movable(BLOCKED_TRIPLE, F3, method="cross_check")
    assert report.condition_i is False
    assert report.condition_iii is False
    assert report.condition_iv is False
    assert report.failing_witness is not None


def test_single_method_leaves_others_unset():
    report = is_levi_movable(MOVABLE_PAIR, F3, method="via_iii")
    assert report.condition_iii is True
    assert report.condition_i is None
    assert report.condition_iv is None
    assert report.movable is True


def test_report_requires_an_evaluated_condition():
    report = MovabilityReport(classes=MOVABLE_PAIR, flag=F3, method="via_iii")
    with pytest.raises(RuntimeError):
        report.movable


def test_is_levi_movable_validation():
    with pytest.raises(ValueError):
        is_levi_movable(MOVABLE_PAIR, F3, method="via_ii")
    with pytest.raises(ValueError):
        is_levi_movable(((2, 1, 3), (2, 1, 3)), F3)  # codims sum to 2, not 3
    with pytest.raises(ValueError):
        is_levi_movable(((2, 1), (2, 1, 3)), F3)


def test_exact_degree_tuples():
    tuples = exact_degree_tuples(F3, 2)
    assert list(tuples) == sorted(tuples)
    assert MOVABLE_PAIR in tuples
    assert len(tuples) == 5
    for classes in tuples:
        assert sum(codim(w, F3) for w in classes) == F3.dimension
        assert list(classes) == sorted(classes)
    with pytest.raises(ValueError):
        exact_degree_tuples(F3, 1)


@pytest.mark.parametrize("walk", [exact_degree_tuples, enumerate_levi_movable])
def test_tuple_size_beyond_sys_maxsize_is_refused_before_any_work(walk):
    # 10**20 > sys.maxsize: the walk would fail on the list of slots with
    # OverflowError; the check runs before any table is built
    with pytest.raises(ValueError, match="exceeds the largest list size"):
        walk(F3, 10**20)


@pytest.mark.parametrize("s", [2.0, 2.5, "3", None], ids=["2.0", "2.5", "'3'", "None"])
@pytest.mark.parametrize("walk", [exact_degree_tuples, enumerate_levi_movable])
def test_a_tuple_size_that_is_not_an_int_is_a_value_error(walk, s):
    # not a TypeError from the walker or from comparing with 2
    with pytest.raises(ValueError, match="the tuple size must be an integer"):
        walk(F3, s)


def _brute_force_tuples(flag, s):
    """The reference: filter every sorted multiset of classes by degree."""
    reps = enumerate_minimal_reps(flag)
    codims = {w: codim(w, flag) for w in reps}
    return tuple(
        classes
        for classes in combinations_with_replacement(reps, s)
        if sum(codims[w] for w in classes) == flag.dimension
    )


def test_exact_degree_tuples_cover_all_sorted_multisets():
    # s = 4 reaches nodes with two open slots below a nonempty prefix
    cases = [
        (flag, s) for n in range(1, 6) for flag in enumerate_flag_types(n) for s in (2, 3)
    ]
    cases += [(flag, 2) for flag in enumerate_flag_types(6)]
    cases += [(flag, 4) for n in range(1, 5) for flag in enumerate_flag_types(n)]
    for flag, s in cases:
        expected = _brute_force_tuples(flag, s)
        assert exact_degree_tuples(flag, s) == expected, (str(flag), s)


def test_exact_degree_tuples_large_s():
    # beyond s = dim + 1 every tuple is a shorter one padded with the
    # fundamental class, so the count stops growing
    flag = grassmannian_flag(2, 4)
    fundamental = enumerate_minimal_reps(flag)[-1]
    short = _brute_force_tuples(flag, 5)
    assert len(short) == 8
    tuples = exact_degree_tuples(flag, 1500)
    assert tuples == tuple(t + (fundamental,) * 1495 for t in short)


@pytest.mark.parametrize(
    "text, s", [("1,2,3,4/5", 2), ("1,2/5", 3), ("2,4/6", 2), ("3/6", 3)]
)
def test_enumerate_matches_the_per_tuple_decision(text, s):
    flag = FlagType.parse(text)
    tuples = exact_degree_tuples(flag, s)
    for method in METHODS:
        expected = [
            (classes, intersection_number(classes, flag))
            for classes in tuples
            if is_levi_movable(classes, flag, method).movable
        ]
        assert enumerate_levi_movable(flag, s, method) == expected, method


SWEEP = [(flag, s) for n in range(2, 6) for flag in enumerate_flag_types(n) for s in (2, 3)]
ROUTES = ("via_i", "via_iii", "via_iv")


def _summed(entries, field):
    return tuple(map(sum, zip(*(getattr(e, field) for e in entries))))


@lru_cache(maxsize=None)
def _filtered(flag, s):
    """The filter route for each method: every exact-degree tuple decided
    one at a time, and the oracle coefficient of each movable one.  The
    oracle route grades first and runs the oracle only on graded tuples,
    as the filter did (the grading is part of condition (i))."""
    table = flag_table(flag)
    step_target = tuple(a * (flag.n - a) for a in flag.steps)
    rows = {method: [] for method in ROUTES}
    for classes in exact_degree_tuples(flag, s):
        graded = _summed(map(table.entry, classes), "projected_codims") == step_target
        verdicts = {
            "via_i": graded and intersection_number(classes, flag) != 0,
            "via_iii": is_levi_movable(classes, flag, "via_iii").movable,
            "via_iv": is_levi_movable(classes, flag, "via_iv").movable,
        }
        if any(verdicts.values()):
            coefficient = intersection_number(classes, flag)
            for method, movable in verdicts.items():
                if movable:
                    rows[method].append((classes, coefficient))
    return rows


def _mismatches(cases):
    return [
        (str(flag), s, method)
        for flag, s in cases
        for method in ROUTES
        if enumerate_levi_movable(flag, s, method) != _filtered(flag, s)[method]
    ]


def test_enumerate_equals_the_filter_route():
    # every flag type with n <= 5 at s = 2 and 3
    assert _mismatches(SWEEP) == []
    for flag, s in SWEEP:
        rows = _filtered(flag, s)
        assert rows["via_i"] == rows["via_iii"] == rows["via_iv"], (str(flag), s)
    assert sum(len(_filtered(flag, s)["via_iii"]) for flag, s in SWEEP) == 986


def test_walker_targets_filter_the_exact_degree_tuples():
    # s = 4 also fills the last two slots below a prefix that leaves
    # nothing, with the fundamental class
    for flag, s in SWEEP + [(flag, 4) for n in range(2, 5) for flag in enumerate_flag_types(n)]:
        table = flag_table(flag)
        pair_target = tuple(bi * bj for bi, bj in table.pair_sizes)
        step_target = tuple(a * (flag.n - a) for a in flag.steps)
        exact = exact_degree_tuples(flag, s)
        by_field = {"pair_codims": [], "projected_codims": []}
        for classes in exact:
            entries = tuple(map(table.entry, classes))
            if _summed(entries, "pair_codims") == pair_target:
                by_field["pair_codims"].append(classes)
            if _summed(entries, "projected_codims") == step_target:
                by_field["projected_codims"].append(classes)
        for field, target in (("pair_codims", pair_target), ("projected_codims", step_target)):
            vectors = [getattr(e, field) for e in table.entries]
            assert flags._walk(table, s, vectors, target) == by_field[field], (str(flag), s, field)


def test_a_wrong_leaf_product_is_caught(monkeypatch):
    leaf_product = levi._leaf_product
    monkeypatch.setattr(levi, "_leaf_product", lambda *args: leaf_product(*args) + 1)
    flag = FlagType((1, 2), 4)
    with pytest.raises(RuntimeError, match="leaf product"):
        enumerate_levi_movable(flag, 2, "cross_check")
    assert _mismatches([(flag, 2), (F3, 3)]) == [
        (str(flag), 2, "via_iii"), (str(flag), 2, "via_iv"),
        (str(F3), 3, "via_iii"), (str(F3), 3, "via_iv"),
    ]
    monkeypatch.setattr(levi, "_leaf_product", lambda *args: 0)
    with pytest.raises(RuntimeError, match="vanishing leaf"):
        enumerate_levi_movable(flag, 2)


def test_check_cross_check_compares_the_leaf_product(monkeypatch):
    leaf_product = levi._leaf_product
    monkeypatch.setattr(levi, "_leaf_product", lambda *args: leaf_product(*args) + 1)
    with pytest.raises(RuntimeError, match="leaf product"):
        is_levi_movable(MOVABLE_PAIR, F3, "cross_check")


def test_cross_check_compares_the_pairwise_bruhat_test(monkeypatch):
    # a test that finds zero where the oracle does not raises, on a movable
    # tuple and on the blocked triple, whose number is 1; a zero tuple
    # proves nothing wrong
    monkeypatch.setattr(levi, "_vanishes", lambda classes, flag: True)
    for classes in (MOVABLE_PAIR, BLOCKED_TRIPLE):
        with pytest.raises(RuntimeError, match="pairwise Bruhat test finds"):
            is_levi_movable(classes, F3, "cross_check")
    with pytest.raises(RuntimeError, match="pairwise Bruhat test finds"):
        enumerate_levi_movable(F3, 2, "cross_check")
    report = is_levi_movable(((1, 3, 2), (2, 3, 1)), F3, "cross_check")
    assert (report.movable, report.coefficient) == (False, 0)


def test_cross_check_compares_the_projected_degree_bound(monkeypatch):
    # a bound that finds zero where the oracle does not raises with its own
    # message, on a movable tuple and on the blocked triple; a zero tuple
    # proves nothing wrong
    monkeypatch.setattr(levi, "_exceeds_degree", lambda entries, table: True)
    for classes in (MOVABLE_PAIR, BLOCKED_TRIPLE):
        with pytest.raises(RuntimeError, match="projected degree bound finds"):
            is_levi_movable(classes, F3, "cross_check")
    with pytest.raises(RuntimeError, match="projected degree bound finds"):
        enumerate_levi_movable(F3, 2, "cross_check")
    report = is_levi_movable(((1, 3, 2), (2, 3, 1)), F3, "cross_check")
    assert (report.movable, report.coefficient) == (False, 0)


def test_wrong_leaf_partitions_are_caught(monkeypatch):
    # 2,3/5 has the leaf Gr(2,5), whose partitions are read, and the
    # projective leaf Gr(1,3), which its degree decides
    flag = FlagType((2, 3), 5)
    # a property on the class shadows the values cached on the entries
    monkeypatch.setattr(
        ClassEntry, "leaf_partitions", property(lambda e: ((1,),) * len(e.table.leaf_spaces))
    )
    with pytest.raises(RuntimeError, match="leaf product"):
        enumerate_levi_movable(flag, 2, "cross_check")
    # the wrong classes miss the point class of the first leaf
    with pytest.raises(RuntimeError, match="vanishing leaf"):
        _mismatches([(flag, 2)])
    # every leaf of a complete flag is projective: no partition is read
    assert _mismatches([(F3, 2), (F3, 3)]) == []


@pytest.fixture
def fresh_flag_tables():
    # tables keep the columns they lifted, entries the fields they read,
    # route iv keeps the point-positive tuples that route iii found on
    # each small Grassmannian, and every point product is kept: drop all
    # of them before a field is patched, and again afterwards so that
    # nothing computed from a patched value reaches a later test
    def clear():
        flags._flag_table.cache_clear()
        grassmann._point_positive_tuples.cache_clear()
        grassmann.product_to_point.cache_clear()

    clear()
    yield
    clear()


def test_wrong_pair_partitions_are_caught(fresh_flag_tables, monkeypatch):
    # 1,3/5 has two projective pairs and the non-projective Gr(2,4)
    flag = FlagType((1, 3), 5)
    # route iii on the true entries computes their pair codimensions
    assert enumerate_levi_movable(flag, 2, "via_iii")
    # a property on the class shadows the values cached on the entries;
    # the pair codimensions, already computed, stay right, so only the
    # Littlewood-Richardson product on Gr(2,4) reads the wrong classes
    monkeypatch.setattr(
        ClassEntry, "pair_partitions", property(lambda e: ((1,),) * len(e.table.pairs))
    )
    with pytest.raises(RuntimeError, match="disagree"):
        enumerate_levi_movable(flag, 2, "cross_check")
    assert enumerate_levi_movable(flag, 2, "via_iii") == []


def test_wrongly_lifted_pair_codimensions_are_caught(fresh_flag_tables, monkeypatch):
    # a listed table lifts the pair codimensions on their own, not summed
    # from the partitions: a wrong lift, on cold tables, must be caught as
    # well; on 1,3/5 reversing them swaps the pairs (1,2) and (2,3), of
    # sizes 1 x 2 and 2 x 2, while route i still reads the true projected
    # codimensions
    flag = FlagType((1, 3), 5)

    def reverse(field):
        lift = flags._LIFTS[field]
        monkeypatch.setitem(flags._LIFTS, field, lambda *args: [f[::-1] for f in lift(*args)])

    reverse("pair_codims")
    with pytest.raises(RuntimeError, match="disagree"):
        enumerate_levi_movable(flag, 2, "cross_check")
    # a one-off entry on a cold table sums its pair partitions, lifted by
    # the partition rule, so a wrong lift there is caught the same way
    reverse("pair_partitions")
    flags._flag_table.cache_clear()
    w = (2, 3, 5, 1, 4)
    with pytest.raises(RuntimeError, match="disagree"):
        is_levi_movable((w, dual(w, flag)), flag, "cross_check")


def test_route_i_and_the_oracle_run_no_lift(fresh_flag_tables, monkeypatch):
    # route i reads the projected codimensions, a closed form of each class,
    # and the oracle's two zero tests read them and the sorted prefixes:
    # on cold tables, with every lift refused, both still answer
    flags_and_expected = [
        (flag, enumerate_levi_movable(flag, 3, "via_i"))
        for flag in map(FlagType.parse, ("1,3/5", "2,4/6", "1,2,3/4"))
    ]
    assert all(expected for _, expected in flags_and_expected)

    def refuse(*args):
        raise AssertionError("a lift ran")

    for field in flags._LIFTS:
        monkeypatch.setitem(flags._LIFTS, field, refuse)
    flags._flag_table.cache_clear()
    for flag, expected in flags_and_expected:
        assert enumerate_levi_movable(flag, 3, "via_i") == expected, str(flag)
    # sigma_1^4 = 2 on Gr(2,4), a product the two zero tests pass, and a
    # tuple that the degree bound rejects
    assert intersection_number(((2, 4, 1, 3),) * 4, grassmannian_flag(2, 4)) == 2
    assert intersection_number(((2, 3, 1),) * 3, F3) == 0
    # a route that reads the pair data does lift
    with pytest.raises(AssertionError, match="a lift ran"):
        enumerate_levi_movable(FlagType.parse("1,3/5"), 3, "via_iii")


def test_route_i_reads_no_pair_partition(monkeypatch):
    flag = FlagType((1, 2, 4), 6)
    expected = {s: enumerate_levi_movable(flag, s, "via_iv") for s in (2, 3)}

    def refuse(entry):
        raise RuntimeError("the pair partitions were read")

    # a property on the class also hides pair partitions already cached
    monkeypatch.setattr(ClassEntry, "pair_partitions", property(refuse))
    for s in (2, 3):
        assert enumerate_levi_movable(flag, s, "via_i") == expected[s], s
    # routes iii and iv are the ones that read them
    for method in ("via_iii", "via_iv"):
        with pytest.raises(RuntimeError, match="pair partitions"):
            enumerate_levi_movable(flag, 2, method)


def test_enumerate_frozen_complete_three():
    got = enumerate_levi_movable(F3, 2)
    assert got == [
        (((1, 2, 3), (3, 2, 1)), 1),
        (((1, 3, 2), (3, 1, 2)), 1),
        (((2, 1, 3), (2, 3, 1)), 1),
    ]
    assert len(enumerate_levi_movable(F3, 3)) == 3


def test_enumerate_frozen_projective_line():
    line = grassmannian_flag(1, 2)
    assert enumerate_levi_movable(line, 2) == [(((1, 2), (2, 1)), 1)]


def test_enumerate_methods_agree():
    flag = FlagType((1, 2), 4)
    results = {method: enumerate_levi_movable(flag, 2, method=method) for method in METHODS}
    assert results["via_iii"] == results["via_i"] == results["via_iv"]
    assert results["cross_check"] == results["via_iii"]


def test_enumerate_grassmannian_fourth_power():
    flag = grassmannian_flag(2, 4)
    sigma1 = (2, 4, 1, 3)
    results = dict(enumerate_levi_movable(flag, 4))
    assert results[(sigma1,) * 4] == 2


def test_enumerate_pairs_are_poincare_duals():
    for flag in (F3, FlagType((1, 2), 4), FlagType((2,), 4), FlagType((1, 2, 3), 4)):
        got = {classes for classes, _ in enumerate_levi_movable(flag, 2)}
        expected = {
            tuple(sorted((w, dual(w, flag))))
            for w in enumerate_minimal_reps(flag)
        }
        assert got == expected
        assert all(c == 1 for _, c in enumerate_levi_movable(flag, 2))


def test_bk_structure_constant_frozen_zero():
    # the classical number is 1 but the triple is not movable
    w, u, v = (3, 1, 2), (3, 1, 2), (2, 1, 3)
    assert intersection_number((w, u, dual(v, F3)), F3) == 1
    assert bk_structure_constant(w, u, v, F3) == 0


def test_bk_structure_constant_symmetry_and_bound():
    flag = FlagType((1, 2), 4)
    reps = enumerate_minimal_reps(flag)
    for w, u in combinations_with_replacement(reps, 2):
        for v in reps:
            if codim(w, flag) + codim(u, flag) != codim(v, flag):
                continue
            c = bk_structure_constant(w, u, v, flag)
            assert c == bk_structure_constant(u, w, v, flag)
            classical = intersection_number((w, u, dual(v, flag)), flag)
            assert 0 <= c <= classical


def test_bk_structure_constant_degree_mismatch_is_zero():
    assert bk_structure_constant((2, 1, 3), (2, 1, 3), (2, 1, 3), F3) == 0


def test_bk_matches_classical_on_grassmannians():
    for r, n in [(1, 3), (2, 4)]:
        flag = grassmannian_flag(r, n)
        reps = enumerate_minimal_reps(flag)
        for w in reps:
            for u in reps:
                expected = structure_constants_pair(w, u, flag)
                for v in reps:
                    if codim(w, flag) + codim(u, flag) != codim(v, flag):
                        continue
                    assert bk_structure_constant(w, u, v, flag) == expected.get(v, 0)


def test_bk_product_generators_vanish():
    # the two classes of codimension one on the complete flag variety
    a, b = (2, 3, 1), (3, 1, 2)
    assert bk_product(a, b, F3) == {}
    assert structure_constants_pair(a, b, F3) == {(2, 1, 3): 1, (1, 3, 2): 1}


def test_bk_product_fundamental_class_is_unit():
    top = (3, 2, 1)  # the fundamental class of the complete flag variety
    for u in enumerate_minimal_reps(F3):
        assert bk_product(top, u, F3) == {u: 1}


def test_bk_product_point_annihilates():
    point = (1, 2, 3)
    for u in enumerate_minimal_reps(F3):
        if codim(u, F3) > 0:
            assert bk_product(point, u, F3) == {}


def test_bk_product_is_classical_subset():
    flag = FlagType((1, 2), 4)
    reps = enumerate_minimal_reps(flag)
    for w in reps:
        for u in reps:
            filtered = bk_product(w, u, flag)
            classical = structure_constants_pair(w, u, flag)
            for v, c in filtered.items():
                assert classical[v] == c
            assert set(filtered) <= set(classical)


def test_bk_product_is_the_classical_product_filtered_by_route_iii():
    # every unordered pair of every flag type with n <= 5: the deformed
    # product, read off the leaves, against the oracle's expansion in the
    # Schubert basis restricted to the v whose triple (w, u, dual of v)
    # route iii passes
    pairs = terms = 0
    for n in range(2, 6):
        for flag in enumerate_flag_types(n):
            for w, u in combinations_with_replacement(enumerate_minimal_reps(flag), 2):
                got = bk_product(w, u, flag)
                assert got == {
                    v: c
                    for v, c in structure_constants_pair(w, u, flag).items()
                    if condition_iii_failure((w, u, dual(v, flag)), flag) is None
                }, (flag, w, u)
                assert list(got) == sorted(got), (flag, w, u)
                for v, c in got.items():
                    assert bk_structure_constant(w, u, v, flag) == c, (flag, w, u, v)
                pairs += 1
                terms += len(got)
    assert (pairs, terms) == (17356, 1880)


def test_a_vanishing_leaf_in_the_deformed_product_raises(monkeypatch):
    # the triple (fundamental class, u, dual of u) is movable, so a leaf
    # product of 0 breaks an invariant
    monkeypatch.setattr(levi, "_leaf_product", lambda entries, table: 0)
    with pytest.raises(RuntimeError, match="vanishing leaf"):
        bk_product((3, 2, 1), (2, 1, 3), F3)
    with pytest.raises(RuntimeError, match="vanishing leaf"):
        bk_structure_constant((3, 2, 1), (2, 1, 3), (2, 1, 3), F3)


def test_bk_product_validates_input():
    with pytest.raises(ValueError):
        bk_product((2, 1), (2, 1, 3), F3)
    check_minimal_rep((2, 1, 3), F3)  # sanity: the other operand is fine


def _graded(classes, flag):
    return all(
        sum(projected_codim(w, flag, i) for w in classes) == a * (flag.n - a)
        for i, a in enumerate(flag.steps, start=1)
    )


def _reference_report(classes, flag, method):
    # the documented order: the oracle first, a zero number as the witness
    # ahead of the grading, then route iii, then route iv; the first
    # failure is the witness
    ok_i = ok_iii = ok_iv = coefficient = None
    failures = []
    if method in ("via_i", "cross_check"):
        coefficient = intersection_number(classes, flag)
        if coefficient == 0:
            failures.append("intersection number is zero")
        for i, a in enumerate(flag.steps, start=1):
            total = sum(projected_codim(w, flag, i) for w in classes)
            if total != a * (flag.n - a):
                failures.append(
                    f"step {i}: projected codimensions sum to {total}, "
                    f"expected {a * (flag.n - a)}"
                )
                break
        ok_i = not failures
    if method in ("via_iii", "cross_check"):
        failure = condition_iii_failure(classes, flag)
        ok_iii = failure is None
        failures.append(failure)
    if method in ("via_iv", "cross_check"):
        failure = condition_iv_failure(classes, flag)
        ok_iv = failure is None
        failures.append(failure)
    witness = next((f for f in failures if f is not None), None)
    return ok_i, ok_iii, ok_iv, coefficient, witness


def test_reports_keep_the_oracle_first_order():
    # route i grades before it runs the oracle; a report still carries the
    # intersection number of an ungraded tuple and names a zero number
    # ahead of the grading failure
    ungraded = {"zero": 0, "nonzero": 0}
    for n in range(2, 5):
        for flag in enumerate_flag_types(n):
            for s in (2, 3):
                for classes in exact_degree_tuples(flag, s):
                    for method in METHODS:
                        report = is_levi_movable(classes, flag, method)
                        got = (
                            report.condition_i, report.condition_iii,
                            report.condition_iv, report.coefficient,
                            report.failing_witness,
                        )
                        assert got == _reference_report(classes, flag, method), (
                            flag, classes, method,
                        )
                    ok_i, _, _, coefficient, witness = _reference_report(
                        classes, flag, "via_i"
                    )
                    assert condition_i_detail(classes, flag) == (ok_i, coefficient, witness)
                    if not _graded(classes, flag):
                        ungraded["nonzero" if coefficient else "zero"] += 1
    # both witness orders are exercised
    assert ungraded == {"zero": 288, "nonzero": 60}


def test_cross_check_runs_the_oracle_on_graded_tuples_only(monkeypatch):
    flag = FlagType((2, 4), 6)
    calls = []
    oracle = levi._intersection_number

    def counted(classes, f):
        calls.append(classes)
        return oracle(classes, f)

    monkeypatch.setattr(levi, "_intersection_number", counted)
    tuples = exact_degree_tuples(flag, 3)
    graded = [t for t in tuples if _graded(t, flag)]
    assert (len(graded), len(tuples)) == (341, 4635)
    enumerate_levi_movable(flag, 3, "cross_check")
    assert sorted(calls) == sorted(graded)


@pytest.mark.parametrize("n", range(2, 8))
def test_the_last_leaf_is_the_last_pair(n):
    # leaf r is Gr(b_r, b_r + b_(r+1)), the Grassmannian of pair (r, r+1),
    # the last of FlagTable.pairs, and reads the same partitions on every
    # class, so the leaf finds the product route iii made in the memo
    for flag in enumerate_flag_types(n):
        table = flag_table(flag)
        r, m = table.leaf_spaces[-1]
        assert table.pairs[-1] == (flag.r, flag.r + 1)
        assert (r, m) == (table.pair_sizes[-1][0], sum(table.pair_sizes[-1]))
        leaves, pairs = table.column("leaf_partitions"), table.column("pair_partitions")
        assert [parts[-1] for parts in leaves] == [parts[-1] for parts in pairs], str(flag)


@pytest.mark.parametrize(
    "text, s, movable, products",
    [("3/6", 3, 46, 84), ("1,3/6", 3, 113, 68), ("3/6", 4, 89, 135)],
)
def test_enumerate_makes_the_last_pair_product_once(text, s, movable, products):
    # each point product is made once: the last leaf shares route iii's
    # product of pair (r, r+1)
    grassmann.product_to_point.cache_clear()
    flag = FlagType.parse(text)
    found = enumerate_levi_movable(flag, s)
    assert (len(found), grassmann.product_to_point.cache_info().misses) == (movable, products)
    assert found == enumerate_levi_movable(flag, s, "via_iv")


class _Two:
    """An integer-like size: an object with __index__ and nothing else."""

    def __index__(self):
        return 2


@pytest.mark.parametrize("walk", [exact_degree_tuples, enumerate_levi_movable])
def test_an_integer_like_tuple_size_is_read_as_its_index(walk):
    assert tuple(walk(F3, _Two())) == tuple(walk(F3, 2))
