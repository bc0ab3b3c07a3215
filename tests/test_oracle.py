"""The polynomial intersection oracle, cross-validated independent ways: the
basis-expansion roundtrip, the transposition expansion rule, the
antisymmetrizer route of intersection_number against the expansion route
of structure_constants_pair, and its packed product against a reference
on raw exponent tuples."""

import random
from functools import cache
from itertools import permutations
from operator import add, le

import pytest

from flaghorn.flags import (
    FlagType,
    _dual,
    check_class_tuple,
    codim,
    complete_flag,
    dual,
    enumerate_flag_types,
    enumerate_minimal_reps,
    flag_table,
    grassmannian_flag,
    parabolic_longest,
)
from flaghorn import oracle
from flaghorn.levi import exact_degree_tuples
from flaghorn.oracle import (
    expand_in_schubert_basis,
    intersection_number,
    monk_expansion,
    schubert_polynomial,
    structure_constants_pair,
)
from flaghorn.perm import compose, identity, length, lehmer_code, longest_element, pad, trim
from flaghorn.poly import SparsePolynomial, divided_difference

x1 = SparsePolynomial.variable(1)
x2 = SparsePolynomial.variable(2)


def all_perms(n):
    return [tuple(p) for p in permutations(range(1, n + 1))]


def test_schubert_polynomial_table_n3():
    assert schubert_polynomial((1, 2, 3)) == 1
    assert schubert_polynomial((2, 1, 3)) == x1
    assert schubert_polynomial((1, 3, 2)) == x1 + x2
    assert schubert_polynomial((3, 1, 2)) == x1 * x1
    assert schubert_polynomial((2, 3, 1)) == x1 * x2
    assert schubert_polynomial((3, 2, 1)) == x1 * x1 * x2


def test_schubert_polynomial_staircase():
    top = schubert_polynomial(longest_element(4))
    assert top == SparsePolynomial.monomial((3, 2, 1))


def test_schubert_polynomial_stability():
    for w in all_perms(4):
        assert schubert_polynomial(w) == schubert_polynomial(pad(w, 6))


@pytest.mark.parametrize("n", range(2, 7))
def test_divided_difference_steps_down_every_descent(n):
    # d_i S_w = S_{w s_i} at a descent of w and 0 at an ascent, for every
    # i, by divided_difference on exponent tuples, where the packed
    # recursion behind schubert_polynomial only uses the first ascent
    for w in all_perms(n):
        p = schubert_polynomial(w)
        for i in range(1, n):
            got = divided_difference(p, i)
            if w[i - 1] > w[i]:
                assert got == schubert_polynomial(
                    w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
                )
            else:
                assert got.is_zero()


@pytest.mark.parametrize("n", range(1, 6))
def test_schubert_polynomial_homogeneous_positive(n):
    for w in all_perms(n):
        p = schubert_polynomial(w)
        assert all(sum(m) == length(w) for m in p.terms)
        assert all(c > 0 for c in p.terms.values())


@pytest.mark.parametrize("n", range(1, 6))
def test_leading_term_is_inversion_table(n):
    for w in all_perms(n):
        if length(w) == 0:
            continue
        mono, coeff = schubert_polynomial(w).leading_term()
        assert coeff == 1
        assert mono == trim_zeros(lehmer_code(w))


def trim_zeros(code):
    out = tuple(code)
    while out and out[-1] == 0:
        out = out[:-1]
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_expansion_roundtrip(n):
    for w in all_perms(n):
        assert expand_in_schubert_basis(schubert_polynomial(w)) == {trim(w): 1}


def test_expansion_of_sums_and_products():
    p = schubert_polynomial((2, 1, 3)) * schubert_polynomial((2, 1, 3))
    assert expand_in_schubert_basis(p) == {(3, 1, 2): 1}
    q = schubert_polynomial((1, 3, 2)) + 2 * schubert_polynomial((2, 1, 3))
    assert expand_in_schubert_basis(q) == {(1, 3, 2): 1, (2, 1): 2}
    assert expand_in_schubert_basis(SparsePolynomial.zero()) == {}


@pytest.mark.parametrize("n", range(2, 5))
@pytest.mark.parametrize("r", range(1, 4))
def test_monk_rule_agrees_with_polynomial_route(n, r):
    if r >= n:
        pytest.skip("transposition bound outside the symmetric group")
    generator = tuple(range(1, r)) + (r + 1, r) + tuple(range(r + 2, n + 1))
    for w in all_perms(n):
        polynomial_route = expand_in_schubert_basis(
            schubert_polynomial(w) * schubert_polynomial(generator)
        )
        assert monk_expansion(w, r) == polynomial_route


def test_structure_constants_pair_pinned():
    g24 = grassmannian_flag(2, 4)
    s1 = (2, 4, 1, 3)
    assert structure_constants_pair(s1, s1, g24) == {
        (1, 4, 2, 3): 1,
        (2, 3, 1, 4): 1,
    }
    f3 = complete_flag(3)
    assert structure_constants_pair((2, 3, 1), (2, 1, 3), f3) == {(1, 2, 3): 1}


def test_structure_constants_pair_point_times_point_is_empty():
    f3 = complete_flag(3)
    point = (1, 2, 3)
    assert structure_constants_pair(point, point, f3) == {}


@pytest.mark.parametrize("n", range(2, 5))
def test_structure_constants_grading_and_symmetry(n):
    for flag in enumerate_flag_types(n):
        reps = enumerate_minimal_reps(flag)
        dim = flag.dimension
        for w in reps:
            for u in reps:
                exp = structure_constants_pair(w, u, flag)
                assert exp == structure_constants_pair(u, w, flag)
                for v, c in exp.items():
                    assert c > 0
                    assert length(v) == length(w) + length(u) - dim


def test_intersection_number_pinned():
    f3 = complete_flag(3)
    assert intersection_number(((3, 1, 2), (3, 1, 2), (2, 3, 1)), f3) == 1
    assert intersection_number(((2, 3, 1), (2, 1, 3)), f3) == 1
    g24 = grassmannian_flag(2, 4)
    assert intersection_number(((2, 4, 1, 3),) * 4, g24) == 2
    g25 = grassmannian_flag(2, 5)
    assert intersection_number(((3, 5, 1, 2, 4),) * 6, g25) == 5


def test_intersection_number_point_against_fundamental():
    for flag in [complete_flag(3), grassmannian_flag(2, 4), FlagType((1, 3), 4)]:
        point = tuple(range(1, flag.n + 1))
        fundamental = compose(longest_element(flag.n), parabolic_longest(flag))
        assert intersection_number((point, fundamental), flag) == 1


def test_intersection_number_degree_mismatch():
    f3 = complete_flag(3)
    with pytest.raises(ValueError):
        intersection_number(((2, 3, 1), (2, 3, 1)), f3)
    with pytest.raises(ValueError):
        intersection_number(((3, 2, 1), (1, 2, 3)), grassmannian_flag(1, 3))


def test_intersection_number_checks_then_calls_its_core(monkeypatch):
    f3 = complete_flag(3)
    bounded, tested = [], []
    exceeds, vanishes = oracle._exceeds_degree, oracle._vanishes
    monkeypatch.setattr(oracle, "_exceeds_degree", lambda c, f: bounded.append(c) or exceeds(c, f))
    monkeypatch.setattr(oracle, "_vanishes", lambda c, f: tested.append(c) or vanishes(c, f))
    with pytest.raises(ValueError, match="does not index a Schubert class"):
        intersection_number(((3, 2, 1), (3, 2, 1)), FlagType((1,), 3))
    with pytest.raises(ValueError, match="codimensions sum to 2, expected 3"):
        intersection_number(((2, 3, 1), (2, 3, 1)), f3)
    assert bounded == tested == []  # bad input raises before any test
    # a checked tuple is tested by the degree bound, then pair by pair, then
    # goes to the one core, as plain tuples of ints
    seen = []
    monkeypatch.setattr(oracle, "_intersection_number", lambda c, f: seen.append(c) or 7)
    assert intersection_number([[2.0, 3, 1], (2, True, 3)], f3) == 7
    assert seen == tested == bounded == [((2, 3, 1), (2, 1, 3))]
    assert type(seen[0][0][0]) is int and type(seen[0][1][0]) is int
    # a tuple that only the degree bound rejects reaches neither the
    # pairwise test nor the core
    flag = FlagType((1, 2), 3)
    for classes in (((2, 3, 1),) * 3, ((1, 3, 2), (2, 3, 1))):
        assert intersection_number(classes, flag) == 0
        assert bounded[-1] == classes
    assert seen == tested == [((2, 3, 1), (2, 1, 3))]
    # a non-dual pair of Gr(2,4), where the bound never rejects, is rejected
    # by the pairwise test and never reaches the core
    assert intersection_number(((1, 4, 2, 3), (2, 3, 1, 4)), FlagType((2,), 4)) == 0
    assert tested[-1] == bounded[-1] == ((1, 4, 2, 3), (2, 3, 1, 4))
    assert seen == [((2, 3, 1), (2, 1, 3))]


def _plain_keys(layout):
    # every key of the records memo is its record's class index, a tuple of
    # plain ints
    return all(
        type(w) is tuple and all(type(x) is int for x in w) and record[0] == w
        for w, record in layout.records.items()
    )


def test_a_class_given_as_an_iterator_is_checked_and_answered(fresh_packed_reps):
    # the memo is keyed by the class tuple, never by the object passed; an
    # iterator can be read only once, and a list is no dict key, so each
    # class is read once, through its table entry
    f3 = complete_flag(3)
    layout = oracle._layout(f3)
    for _ in range(3):
        classes = (iter((2, 3, 1)), (x for x in (2, 1, 3)))
        assert intersection_number(classes, f3) == 1
        assert intersection_number((w for w in ((2, 3, 1), (2, 1, 3))), f3) == 1
        assert intersection_number((iter((2, 3, 1)), [2, 1, 3]), f3) == 1
        assert intersection_number(([2, 3, 1], (x for x in (2, 1, 3))), f3) == 1
        assert sorted(layout.records) == [(2, 1, 3), (2, 3, 1)]
    assert _plain_keys(layout)
    with pytest.raises(ValueError, match="does not index a Schubert class"):
        intersection_number((iter((3, 2, 1)), iter((1, 2, 3))), FlagType((1,), 3))
    for classes in ((iter((2, 3, 1)), iter((3, 1, 2))), (iter((2, 3, 1)), [3, 1, 2])):
        with pytest.raises(ValueError, match="codimensions sum to 2, expected 3"):
            intersection_number(classes, f3)


def test_lists_floats_and_bools_are_read_as_their_class(fresh_packed_reps):
    f3 = complete_flag(3)
    layout = oracle._layout(f3)
    for classes in ([[2.0, 3, 1], (2, True, 3)], [(2.0, 3.0, 1.0), [2, 1, 3]], ((2, 3, 1), (2, 1, 3))):
        assert intersection_number(classes, f3) == 1
    assert sorted(layout.records) == [(2, 1, 3), (2, 3, 1)]
    assert _plain_keys(layout)


@pytest.mark.parametrize(
    "flag", ["1/3", None, ((1,), 3), [1, 3], {"n": 3}], ids=["text", "None", "tuple", "list", "dict"]
)
def test_a_flag_that_is_not_a_flag_type_is_refused_before_any_layout(fresh_packed_reps, monkeypatch, flag):
    def refused(layout, flag):
        raise AssertionError(f"a layout was built for {flag!r}")

    monkeypatch.setattr(oracle._Layout, "__init__", refused)
    with pytest.raises(ValueError, match="not a flag type"):
        intersection_number(((1, 2, 3), (3, 1, 2)), flag)


def test_the_unit_is_dropped_before_the_tests_and_the_product(monkeypatch):
    # sigma_1^4 = 2 on Gr(2,4), padded with copies of the fundamental class,
    # the one class of codimension 0: only the four divisors are tested and
    # multiplied, so the pairwise test no longer grows with the padding
    flag = FlagType((2,), 4)
    unit = dual((1, 2, 3, 4), flag)
    # its record: codimension 0, and no projected degree at any step
    assert oracle._layout(flag).records[unit][:3] == ((3, 4, 1, 2), 0, 0)
    divisor = (2, 4, 1, 3)
    reached = []
    for name in ("_exceeds_degree", "_vanishes", "_intersection_number"):
        real = getattr(oracle, name)
        monkeypatch.setattr(
            oracle, name, lambda c, f, name=name, real=real: reached.append((name, c)) or real(c, f)
        )
    for k in (1, 3, 40_000):
        reached.clear()
        classes = (unit,) * (k // 2) + (divisor,) * 4 + (unit,) * (k - k // 2)
        assert intersection_number(classes, flag) == 2
        assert reached == [
            ("_exceeds_degree", (divisor,) * 4),
            ("_vanishes", (divisor,) * 4),
            ("_intersection_number", (divisor,) * 4),
        ]


def _reference_degree(layout, w):
    # pc_i(w) = a_i(n - a_i) + a_i(a_i + 1)/2 - (w(1) + ... + w(a_i)) for
    # every step a_i, packed in fields of degree_width bits
    n, width = layout.flag.n, layout.degree_width
    return sum(
        (a * (n - a) + a * (a + 1) // 2 - sum(w[:a])) << (i * width)
        for i, a in enumerate(layout.flag.steps)
    )


def _reference_bruhat(layout, w):
    # the sorted prefixes of w at the steps, packed with the guard bits
    # set, and those of dual(w), read from dual(w), packed without them
    steps, width = layout.flag.steps, layout.width

    def prefixes(u):
        entries = [x for a in steps for x in sorted(u[:a])]
        return sum(x << (j * width) for j, x in enumerate(entries))

    return layout.bruhat_guard + prefixes(w), prefixes(_dual(w, layout.flag))


# the classes of every flag type on C^n, n = 2 .. 7: 52,602 in all
CLASS_COUNTS = {2: 2, 3: 12, 4: 74, 5: 540, 6: 4682, 7: 47292}


@pytest.mark.parametrize("n", range(2, 8))
def test_the_packed_degrees_are_the_projected_codimensions(n):
    # pc_i(w) read from the sorted prefixes of w, a computation of its own,
    # is the field that flags lifts from the fiber, on every class with
    # n <= 7, and it packs to 0 exactly on the unit
    classes = 0
    for flag in enumerate_flag_types(n):
        layout, table = oracle._layout(flag), flag_table(flag)
        mask = (1 << layout.degree_width) - 1
        unit = dual(identity(n), flag)
        for w, codims in zip(table.reps, table.column("projected_codims")):
            packed = layout.records[w][2]
            fields = tuple(packed >> (i * layout.degree_width) & mask for i in range(flag.r))
            assert (fields, packed >> (flag.r * layout.degree_width)) == (codims, 0), (str(flag), w)
            assert (packed == 0) == (w == unit), (str(flag), w)
            classes += 1
    assert classes == CLASS_COUNTS[n]


@pytest.mark.parametrize("n", range(2, 8))
def test_every_record_matches_the_reference_definitions(n):
    # the record of each class, built from one sort of each prefix, against
    # the codimension of its table entry, the prefix sums of w, and the
    # sorted prefixes of w and of dual(w), on every class with n <= 7
    classes = 0
    for flag in enumerate_flag_types(n):
        layout = oracle._layout(flag)
        for w in flag_table(flag).reps:
            expected = (w, codim(w, flag), _reference_degree(layout, w), *_reference_bruhat(layout, w))
            assert layout.records[w] == expected, (str(flag), w)
            classes += 1
    assert classes == CLASS_COUNTS[n]


# (n, tuple sizes): every exact-degree tuple of every flag type on C^n at
# each size
VANISHING_SWEEP = ((2, (2, 3, 4)), (3, (2, 3, 4)), (4, (2, 3, 4)), (5, (2, 3)), (6, (2,)))


def _vanishing_sweep(sweep):
    # (tuples, tuples that the pairwise test rejects, tuples that the degree
    # bound rejects, tuples that either rejects, rejected tuples whose
    # polynomial product is nonzero)
    tuples = pairwise = degree = either = wrong = 0
    for n, sizes in sweep:
        for flag in enumerate_flag_types(n):
            for s in sizes:
                for classes in exact_degree_tuples(flag, s):
                    tuples += 1
                    vanishes = oracle._vanishes(classes, flag)
                    exceeds = oracle._exceeds_degree(classes, flag)
                    pairwise += vanishes
                    degree += exceeds
                    if vanishes or exceeds:
                        either += 1
                        wrong += oracle._intersection_number(classes, flag) != 0
    return tuples, pairwise, degree, either, wrong


def test_the_pairwise_test_rejects_only_zero_tuples():
    # and so does the degree bound: 95,280 of the 101,471 tuples are zero;
    # the pairwise test proves 90,907 of them, the degree bound 91,345, and
    # the two together 94,776
    assert _vanishing_sweep(VANISHING_SWEEP) == (101471, 90907, 91345, 94776, 0)


def _misjudged_pairs(n):
    # the exact-degree pairs (w, v) over every flag type on C^n that the
    # pairwise test misjudges: it must reject exactly those with v != dual(w)
    return [
        (str(flag), w, v)
        for flag in enumerate_flag_types(n)
        for w, v in exact_degree_tuples(flag, 2)
        if oracle._vanishes((w, v), flag) == (v == dual(w, flag))
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_the_pairwise_test_accepts_exactly_the_dual_pairs(n):
    # dual(v) <= w with length(dual(v)) = length(w) means dual(v) = w
    assert _misjudged_pairs(n) == []


def _patch_records(monkeypatch, change):
    # every record built from here on has its fields (w, codim, degree,
    # upper, lower) passed through change, with the layout
    record = oracle._Layout._record
    monkeypatch.setattr(
        oracle._Layout, "_record", lambda layout, w: change(layout, *record(layout, w))
    )


def test_a_pairwise_test_that_reads_w_for_its_dual_is_caught(fresh_packed_reps, monkeypatch):
    def undualized(layout, w, codim, degree, upper, lower):
        return w, codim, degree, upper, upper - layout.bruhat_guard

    _patch_records(monkeypatch, undualized)
    assert _vanishing_sweep(((3, (2, 3)), (4, (2,))))[4] > 0


def test_a_pairwise_test_that_drops_a_step_is_caught(fresh_packed_reps, monkeypatch):
    def first_step_dropped(layout, w, codim, degree, upper, lower):
        low = layout.flag.steps[0] * layout.width
        return w, codim, degree, upper, lower >> low << low

    _patch_records(monkeypatch, first_step_dropped)
    assert _misjudged_pairs(4) != []


def test_dual_prefixes_left_unreversed_are_caught(fresh_packed_reps, monkeypatch):
    # n + 1 minus the sorted prefix of w, in its own order: the prefix of
    # dual(w) sorted the wrong way round
    def unreversed(layout, w, codim, degree, upper, lower):
        mask, top = (1 << layout.width) - 1, layout.flag.n + 1
        entries = [(upper - layout.bruhat_guard) >> f & mask for f in layout.bruhat_fields]
        lower = sum((top - x) << f for x, f in zip(entries, layout.bruhat_fields))
        return w, codim, degree, upper, lower

    _patch_records(monkeypatch, unreversed)
    assert _vanishing_sweep(((3, (2, 3)), (4, (2,))))[4] > 0
    assert _misjudged_pairs(4) != []


def test_a_degree_bound_one_below_the_grassmannian_is_caught(fresh_packed_reps, monkeypatch):
    init = oracle._Layout.__init__

    def cap_lowered(layout, flag):
        init(layout, flag)
        layout.degree_cap -= sum(1 << (i * layout.degree_width) for i in range(flag.r))

    monkeypatch.setattr(oracle._Layout, "__init__", cap_lowered)
    assert _vanishing_sweep(((3, (2, 3)), (4, (2,))))[4] > 0


def test_a_degree_bound_that_sums_the_suffix_is_caught(fresh_packed_reps, monkeypatch):
    def suffix_summed(layout, w, codim, degree, upper, lower):
        n, width = layout.flag.n, layout.degree_width
        degree = sum(
            (a * (n - a) + a * (a + 1) // 2 - sum(w[a:])) << (i * width)
            for i, a in enumerate(layout.flag.steps)
        )
        return w, codim, degree, upper, lower

    _patch_records(monkeypatch, suffix_summed)
    assert _vanishing_sweep(((3, (2, 3)), (4, (2,))))[4] > 0


def _mirror(w):
    # w0 * w * w0
    return tuple(len(w) + 1 - x for x in reversed(w))


def _mirror_disagreements(image):
    # (tuples, tuples whose image is not a tuple of classes of the mirrored
    # flag, or whose number differs there) over every flag type with n <= 5
    # at s = 2, 3
    tuples = wrong = 0
    for n in range(2, 6):
        for flag in enumerate_flag_types(n):
            mirrored = FlagType(tuple(n - a for a in reversed(flag.steps)), n)
            for s in (2, 3):
                for classes in exact_degree_tuples(flag, s):
                    tuples += 1
                    try:
                        images = check_class_tuple(tuple(map(image, classes)), mirrored)
                    except ValueError:
                        wrong += 1
                        continue
                    expected = oracle._intersection_number(images, mirrored)
                    wrong += intersection_number(classes, flag) != expected
    return tuples, wrong


def test_intersection_numbers_are_kept_by_flag_duality():
    # V -> V^perp maps Fl(a_1..a_r; n) onto Fl(n-a_r..n-a_1; n), the class
    # of w to that of w0 w w0; the oracle's polynomials are not symmetric
    # under it, so the mirrored product is a different computation
    assert _mirror_disagreements(_mirror) == (24457, 0)


def test_a_wrong_mirror_is_caught():
    # w0 * w alone is not a class of the mirrored flag, or not the right one
    assert _mirror_disagreements(lambda w: tuple(len(w) + 1 - x for x in w))[1] > 0


@pytest.mark.parametrize("n", range(2, 5))
def test_pair_products_match_duality(n):
    for flag in enumerate_flag_types(n):
        for w in enumerate_minimal_reps(flag):
            assert intersection_number((w, dual(w, flag)), flag) == 1


def test_intersection_number_matches_the_expansion_route():
    # structure_constants_pair expands a product in the Schubert basis and
    # discards the terms outside S_n; intersection_number expands nothing.
    # The point coefficient of a pair is the coefficient of the identity,
    # that of a triple the coefficient of the dual of its third class.
    checked = 0
    for n in range(2, 6):
        for flag in enumerate_flag_types(n):
            for s in (2, 3) if n <= 4 else (2,):
                for classes in exact_degree_tuples(flag, s):
                    w1, w2, *rest = classes
                    target = dual(rest[0], flag) if rest else identity(n)
                    expected = structure_constants_pair(w1, w2, flag).get(target, 0)
                    assert intersection_number(classes, flag) == expected, (flag, classes)
                    checked += 1
    assert checked == 2743


@pytest.fixture
def fresh_packed_reps():
    # packed representatives are cached in each flag's layout: drop the
    # layouts before a representative is patched, and again afterwards so
    # that no patched entry reaches a later test (the memo of
    # _schubert_trimmed is filled by the real builder alone)
    oracle._layout.cache_clear()
    yield
    oracle._layout.cache_clear()


def _packed(p, width):
    # the terms of a polynomial packed as the oracle packs a representative:
    # the exponent of x_i in the field of bits (i-1)*width .. i*width - 1
    return {sum(e << (i * width) for i, e in enumerate(mono)): c for mono, c in p.terms.items()}


def test_negative_representative_raises(fresh_packed_reps, monkeypatch):
    # a representative with the wrong sign must not come back as a count
    flag = complete_flag(3)
    w = (2, 1, 3)
    broken = dual(w, flag)
    schubert = oracle._schubert_trimmed

    def negated(v, width):
        terms = schubert(v, width)
        return {m: -c for m, c in terms.items()} if trim(v) == trim(broken) else terms

    monkeypatch.setattr(oracle, "_schubert_trimmed", negated)
    with pytest.raises(RuntimeError, match="negative intersection number"):
        intersection_number((w, dual(w, flag)), flag)


@cache
def _reference_representative(w):
    # divided differences on exponent tuples, from the staircase of S_m down
    # the first ascent, as the representatives were built before packing
    m = len(w)
    i = next((k for k in range(1, m) if w[k - 1] < w[k]), 0)
    if not i:
        return SparsePolynomial.monomial(tuple(range(m - 1, -1, -1)))
    longer = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
    return divided_difference(_reference_representative(longer), i)


def test_packed_representatives_match_the_divided_difference_reference():
    checked = 0
    for n in range(1, 7):
        for flag in enumerate_flag_types(n):
            layout = oracle._layout(flag)
            for w in enumerate_minimal_reps(flag):
                expected = _packed(_reference_representative(trim(dual(w, flag))), layout.width)
                assert dict(layout.reps[w]) == expected, (flag, w)
                checked += 1
    assert checked == 5310


@pytest.mark.parametrize("n", [40, 80])
def test_pairing_past_the_recursion_limit(n):
    # the dual of the point class of P^(n-1) is (n, 1, 2, ..., n-1), whose
    # chain of first ascents up to the longest element of S_n has
    # (n-1)(n-2)/2 steps: a recursion per step failed from n = 33 on
    flag = FlagType((1,), n)
    point = tuple(range(1, n + 1))
    assert intersection_number((point, (n,) + point[:-1]), flag) == 1


def test_representative_of_a_late_simple_transposition():
    # s_39 in S_40 is 779 steps below the longest element
    w = tuple(range(1, 39)) + (40, 39)
    expected = sum((SparsePolynomial.variable(i) for i in range(1, 40)), SparsePolynomial.zero())
    assert schubert_polynomial(w) == expected


def _reference_intersection_number(classes, flag):
    # the antisymmetrizer sum on raw exponent tuples of width n, as
    # intersection_number computed it before its monomials were packed
    classes = check_class_tuple(classes, flag)
    n = flag.n
    terms = {tuple(e for b in flag.block_sizes for e in range(b - 1, -1, -1)): 1}
    for w in classes:
        factor = [
            (mono + (0,) * (n - len(mono)), c)
            for mono, c in schubert_polynomial(_dual(w, flag)).terms.items()
        ]
        product = {}
        for a, c in terms.items():
            for b, d in factor:
                mono = tuple(map(add, a, b))
                product[mono] = product.get(mono, 0) + c * d
        terms = {
            m: c
            for m, c in product.items()
            if max(m) < n and all(map(le, sorted(m), range(n)))
        }
    return sum(
        (-1) ** sum(d < e for j, e in enumerate(m) for d in m[:j]) * c
        for m, c in terms.items()
    )


def test_packed_product_matches_the_tuple_reference_exhaustively():
    checked = 0
    for n in range(2, 6):
        for flag in enumerate_flag_types(n):
            for s in (2, 3):
                for classes in exact_degree_tuples(flag, s):
                    expected = _reference_intersection_number(classes, flag)
                    assert intersection_number(classes, flag) == expected, (flag, classes)
                    checked += 1
    assert checked == 24457


# (flag, tuples at s = 2, tuples at s = 3): last blocks of size 1, 2, 3 and
# 4, and Grassmannians
SAMPLED_FLAGS = [
    ("1,2,3,4,5/6", 8, 8),
    ("3/6", 8, 8),
    ("1,3,6/7", 6, 6),
    ("2,5/7", 6, 6),
    ("3/7", 6, 6),
    ("1,2,3,4,5,6,7/8", 3, 2),
    ("2,5/8", 3, 2),
    ("4/8", 3, 3),
    ("4,5/9", 2, 1),
    ("3,6/9", 1, 1),
]


def _random_exact_degree_tuple(rng, table, s):
    while True:
        head = [rng.randrange(len(table.reps)) for _ in range(s - 1)]
        need = table.dimension - sum(table.codims[p] for p in head)
        last = [p for p, c in enumerate(table.codims) if c == need]
        if last:
            return tuple(table.reps[p] for p in head + [rng.choice(last)])


@pytest.mark.parametrize("text, pairs, triples", SAMPLED_FLAGS)
def test_packed_product_matches_the_tuple_reference_on_samples(text, pairs, triples):
    flag = FlagType.parse(text)
    table = flag_table(flag)
    rng = random.Random(f"oracle {text}")
    for s, count in ((2, pairs), (3, triples)):
        for _ in range(count):
            classes = _random_exact_degree_tuple(rng, table, s)
            expected = _reference_intersection_number(classes, flag)
            assert intersection_number(classes, flag) == expected, (flag, classes)


def test_grassmannian_powers_of_the_divisor_pinned():
    # deg Gr(r, n) = (r(n-r))! * prod over i < r of i! / (n-r+i)!
    sigma1 = {(4, 8): (4, 6, 7, 8, 1, 2, 3, 5), (3, 6): (3, 5, 6, 1, 2, 4)}
    assert intersection_number((sigma1[4, 8],) * 16, grassmannian_flag(4, 8)) == 24024
    assert intersection_number((sigma1[3, 6],) * 9, grassmannian_flag(3, 6)) == 42


@pytest.mark.parametrize("mutation", ["last variable", "exponent n"])
def test_unpackable_representative_raises(fresh_packed_reps, monkeypatch, mutation):
    # a representative term in x_n, or with an exponent of n, must break
    # the packing loudly instead of coming back as a count
    flag = complete_flag(3)
    w = (1, 2, 3)  # the point class; its representative is x1^2*x2
    broken = dual(w, flag)
    schubert = oracle._schubert_trimmed
    replacement = {
        "last variable": schubert_polynomial(broken).swap_variables(1, 3),
        "exponent n": SparsePolynomial.monomial((3,)),
    }[mutation]

    def mutated(v, width):
        return _packed(replacement, width) if trim(v) == trim(broken) else schubert(v, width)

    monkeypatch.setattr(oracle, "_schubert_trimmed", mutated)
    with pytest.raises(RuntimeError, match="representative term"):
        intersection_number((w, dual(w, flag)), flag)


@pytest.mark.parametrize(
    "call",
    [
        lambda: schubert_polynomial((1, 1)),
        lambda: schubert_polynomial((0, 1)),
        lambda: monk_expansion((1, 1), 1),
    ],
    ids=["schubert (1,1)", "schubert (0,1)", "monk (1,1)"],
)
def test_a_non_permutation_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_point_against_fundamental_signs_one_monomial():
    # the last factor's signs are filled on demand, never as a table of
    # all n! rearrangements of the staircase
    flag = complete_flag(10)
    oracle._layout.cache_clear()
    assert intersection_number((identity(10), longest_element(10)), flag) == 1
    assert len(oracle._layout(flag).signs) <= 1


# s = 4 on flags whose carried blocks are all symmetrized: one block of
# size 3, two of size 2, and two of size 2 between blocks of size 1
@pytest.mark.parametrize("text", ["3/6", "2,4/6", "1,3,5/6"])
def test_orbit_product_matches_the_tuple_reference_at_s4(text):
    flag = FlagType.parse(text)
    table = flag_table(flag)
    rng = random.Random(f"orbits {text}")
    for _ in range(8):
        classes = _random_exact_degree_tuple(rng, table, 4)
        expected = _reference_intersection_number(classes, flag)
        assert intersection_number(classes, flag) == expected, (flag, classes)


@pytest.mark.parametrize(
    "text, order",
    [("1,2,3,4,5/6", 1), ("4/8", 1), ("3/6", 6), ("2,4/6", 4), ("2,5/7", 12), ("1,4/8", 6)],
)
def test_symmetrized_blocks_are_the_carried_blocks_of_size_2_and_3(text, order):
    # S' is the product of the symmetric groups of the carried blocks of
    # size 2 and 3: a complete flag has none, and 4/8 carries one block,
    # of size 4
    layout = oracle._layout(FlagType.parse(text))
    assert layout.order == len(layout.twisted) == order
    assert sum(sign for _, sign in layout.twisted) == (1 if order == 1 else 0)
    if order == 1:
        assert layout.twisted == ((0, 1),) and layout.exchanges == ()


def _first_disagreement(flag, s):
    # the first exact-degree tuple on which intersection_number differs
    # from the tuple reference or raises RuntimeError, else None
    for classes in exact_degree_tuples(flag, s):
        try:
            got = intersection_number(classes, flag)
        except RuntimeError:
            got = None
        if got != _reference_intersection_number(classes, flag):
            return classes
    return None


def test_a_flipped_sign_in_twisted_is_caught(fresh_packed_reps, monkeypatch):
    flag = FlagType.parse("3/6")
    assert _first_disagreement(flag, 3) is None
    oracle._layout.cache_clear()  # a fresh weights memo
    layout = oracle._layout(flag)
    (t, sign), *rest = layout.twisted
    monkeypatch.setattr(layout, "twisted", ((t, -sign), *rest))
    assert _first_disagreement(flag, 3) is not None


def test_a_key_that_moves_an_exponent_across_blocks_is_caught(fresh_packed_reps, monkeypatch):
    # 2,4/6 sorts x1, x2 and x3, x4 apart; sorting x2 with x3 merges
    # monomials that lie in different orbits
    flag = FlagType.parse("2,4/6")
    layout = oracle._layout(flag)
    (_, hi, _), (lo, _, _) = layout.exchanges
    monkeypatch.setattr(layout, "exchanges", ((hi, lo, (1 << hi) - (1 << lo)),))
    assert _first_disagreement(flag, 3) is not None


def test_a_weight_with_an_exponent_of_n_reads_no_sign(fresh_packed_reps, monkeypatch):
    class Refused(dict):
        def __missing__(self, key):
            raise AssertionError("a sign was read")

    flag = FlagType.parse("2,5/7")
    layout = oracle._layout(flag)
    monkeypatch.setattr(layout, "signs", Refused())
    n, fields = flag.n, layout.shifts
    # exponents (7, 0, 5, 3, 0) and (13, 0, 0, 0, 0): some field at n or
    # more, the largest sum of two factor terms 2(n - 1) too
    for exponents in ((n, 0, 5, 3, 0), (2 * n - 2, 0, 0, 0, 0)):
        m = sum(e << f for e, f in zip(exponents, fields))
        assert layout.weights[m] == 0
    # one below n reads the signs
    with pytest.raises(AssertionError, match="a sign was read"):
        layout.weights[sum(e << f for e, f in zip((n - 1, 0, 5, 3, 0), fields))]
