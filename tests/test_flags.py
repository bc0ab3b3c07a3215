"""Flag types, class indexing, duality, projections, and reductions."""

import copy
import math
import pickle
import re
from bisect import bisect_left
from itertools import pairwise, permutations

import pytest

from flaghorn import flags, oracle
from flaghorn.factor import factor_full
from flaghorn.flags import (
    FlagType,
    _dual,
    _project_to_step,
    _restrict_to_fiber,
    check_class_tuple,
    check_minimal_rep,
    codim,
    complete_flag,
    dual,
    enumerate_flag_types,
    enumerate_minimal_reps,
    fiber_flag,
    fiber_reduction,
    flag_table,
    flatten_pair,
    grassmannian_flag,
    is_minimal_rep,
    pair_grassmannian,
    parabolic_longest,
    project_to_step,
    projected_codim,
    restrict_to_fiber,
)
from flaghorn.grassmann import partition_from_perm
from flaghorn.levi import is_levi_movable
from flaghorn.oracle import intersection_number
from flaghorn.perm import _standardize, compose, identity, length, longest_element


def test_flag_type_validation():
    with pytest.raises(ValueError):
        FlagType((2, 1), 4)
    with pytest.raises(ValueError):
        FlagType((0,), 3)
    with pytest.raises(ValueError):
        FlagType((3,), 3)
    with pytest.raises(ValueError):
        FlagType((1,), 0)
    with pytest.raises(ValueError):
        FlagType((1,), 3.0)
    with pytest.raises(ValueError):
        FlagType((1,), "3")
    assert FlagType((), 4).r == 0


def test_flag_type_spelled_with_bools_is_plain_int():
    flag = FlagType((True,), 3)
    assert type(flag.steps[0]) is int and str(flag) == "1/3"
    # flag_table is cached by equality, so the first spelling of a flag
    # type is the one every later message for an equal flag prints
    flags._flag_table.cache_clear()
    flag_table(flag)
    with pytest.raises(ValueError, match="expected 2 on 1/3$"):
        is_levi_movable(((2, 1, 3),), FlagType((1,), 3))


def test_parse_and_str():
    assert FlagType.parse("1,3/4") == FlagType((1, 3), 4)
    assert FlagType.parse("2/4") == FlagType((2,), 4)
    assert str(FlagType((1, 3), 4)) == "1,3/4"
    with pytest.raises(ValueError):
        FlagType.parse("1,3")
    with pytest.raises(ValueError):
        FlagType.parse("a/4")
    with pytest.raises(ValueError):
        FlagType.parse("3,1/4")


def test_blocks_and_sizes():
    f = FlagType((1, 3), 5)
    assert f.bounds == (0, 1, 3, 5)
    assert f.block_sizes == (1, 2, 2)
    assert f.block(1) == (1,)
    assert f.block(2) == (2, 3)
    assert f.block(3) == (4, 5)
    with pytest.raises(ValueError):
        f.block(4)


def test_dimension():
    assert complete_flag(4).dimension == 6
    assert grassmannian_flag(2, 5).dimension == 6
    assert FlagType((1, 2), 3).dimension == 3
    assert FlagType((), 4).dimension == 0


def test_special_constructors():
    assert complete_flag(3) == FlagType((1, 2), 3)
    assert grassmannian_flag(2, 4).is_grassmannian
    assert complete_flag(4).is_complete
    assert not grassmannian_flag(2, 4).is_complete


def test_enumerate_flag_types_counts():
    for n in range(2, 7):
        assert len(enumerate_flag_types(n)) == 2 ** (n - 1) - 1


def test_minimal_rep_predicate():
    g = grassmannian_flag(1, 3)
    assert is_minimal_rep((3, 1, 2), g)
    assert not is_minimal_rep((3, 2, 1), g)
    assert not is_minimal_rep((1, 2), g)
    with pytest.raises(ValueError):
        check_minimal_rep((3, 2, 1), g)


@pytest.mark.parametrize(
    "w",
    [(5, 6, 7), (1, 1, 2), (0, 1, 2), ("a", "b", "c"), 5, None],
    ids=["(5,6,7)", "(1,1,2)", "(0,1,2)", "letters", "5", "None"],
)
def test_a_non_permutation_is_not_a_minimal_rep(w):
    # each ascends where 1/3 asks, or is no sequence at all: False, never
    # True or TypeError, as check_minimal_rep refuses it
    g = grassmannian_flag(1, 3)
    assert is_minimal_rep(w, g) is False
    with pytest.raises(ValueError):
        check_minimal_rep(w, g)


def test_a_minimal_rep_may_be_spelled_with_floats_bools_or_a_list():
    # equal to a class index, as check_minimal_rep accepts it
    g = grassmannian_flag(1, 3)
    for w in ((3.0, 1, 2), (3, True, 2), [3, 1, 2]):
        assert is_minimal_rep(w, g) is True
        assert check_minimal_rep(w, g) == (3, 1, 2)


def test_check_minimal_rep_checks_the_permutation_once(monkeypatch):
    calls = []
    real = flags.check_permutation
    monkeypatch.setattr(flags, "check_permutation", lambda w: calls.append(w) or real(w))
    assert check_minimal_rep((3, 1, 2), grassmannian_flag(1, 3)) == (3, 1, 2)
    assert calls == [(3, 1, 2)]


def test_enumerate_minimal_reps_pinned():
    assert enumerate_minimal_reps(FlagType((2,), 4)) == (
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (1, 4, 2, 3),
        (2, 3, 1, 4),
        (2, 4, 1, 3),
        (3, 4, 1, 2),
    )


@pytest.mark.parametrize("n", range(2, 6))
def test_enumerate_minimal_reps_invariants(n):
    for flag in enumerate_flag_types(n):
        reps = enumerate_minimal_reps(flag)
        expected = math.factorial(n)
        for b in flag.block_sizes:
            expected //= math.factorial(b)
        assert len(reps) == expected
        assert list(reps) == sorted(reps)
        assert all(is_minimal_rep(w, flag) for w in reps)
        lengths = [length(w) for w in reps]
        assert min(lengths) == 0
        assert max(lengths) == flag.dimension


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_minimal_reps_matches_brute_force(n):
    everything = list(permutations(range(1, n + 1)))
    for flag in (FlagType((), n), *enumerate_flag_types(n)):
        expected = tuple(w for w in everything if is_minimal_rep(w, flag))
        assert enumerate_minimal_reps(flag) == expected, flag


@pytest.mark.parametrize("n", range(1, 8))
def test_table_codims_are_dimension_minus_length(n):
    for flag in (FlagType((), n), *enumerate_flag_types(n)):
        table = flag_table(flag)
        assert table.codims == tuple(flag.dimension - length(w) for w in table.reps), flag


def test_table_codims_count_no_length(monkeypatch):
    """The codimensions come from the fiber's table, not from length."""
    calls = []

    def counted(w):
        calls.append(w)
        return length(w)

    monkeypatch.setattr(flags, "length", counted)
    flags._flag_table.cache_clear()
    try:
        codims = flag_table(complete_flag(6)).codims
    finally:
        flags._flag_table.cache_clear()
    assert calls == []
    assert len(codims) == 720 and sorted(codims) == sorted(15 - c for c in codims)


def test_flag_type_hash_is_cached_and_survives_copies():
    spellings = [FlagType((True, 2), 3), FlagType.parse("1,2/3"), complete_flag(3)]
    assert len({hash(f) for f in spellings}) == 1
    assert len({id(flag_table(f)) for f in spellings}) == 1
    flag = spellings[0]
    assert flag.__hash__() == hash(((1, 2), 3))
    for twin in (copy.copy(flag), pickle.loads(pickle.dumps(flag))):
        assert twin == flag and hash(twin) == hash(flag)
        assert vars(twin)["_hash"] == hash(flag)  # carried over, not recomputed
        assert flag_table(twin) is flag_table(flag)
    assert FlagType((2,), 4) != FlagType((1,), 4)


def test_parabolic_longest():
    assert parabolic_longest(complete_flag(4)) == identity(4)
    assert parabolic_longest(FlagType((2,), 4)) == (2, 1, 4, 3)
    assert parabolic_longest(FlagType((), 3)) == longest_element(3)


@pytest.mark.parametrize("n", range(2, 7))
def test_entry_dual_is_w0_w_wp(n):
    for flag in enumerate_flag_types(n):
        table = flag_table(flag)
        for entry in table.entries:
            expected = compose(longest_element(n), compose(entry.w, parabolic_longest(flag)))
            assert entry.dual == expected, (str(flag), entry.w)
            assert table.entry(entry.dual).dual == entry.w
            assert entry.codim + table.entry(entry.dual).codim == flag.dimension


def test_enumerate_minimal_reps_is_the_table_reps():
    for flag in (*enumerate_flag_types(4), FlagType((), 3)):
        assert enumerate_minimal_reps(flag) is flag_table(flag).reps


def _plain(value):
    """True if every number inside value is a plain int."""
    if isinstance(value, tuple):
        return all(map(_plain, value))
    return type(value) is int


@pytest.mark.parametrize("spelled, w", [([3.0, 1, 2], (3, 1, 2)), ((True, 2, 3), (1, 2, 3))])
def test_per_class_results_are_plain_ints(spelled, w):
    # the first spelling of a class fills its entry, so start from a cold
    # table, and leave none behind that a later test might read
    flag = FlagType((1,), 3)

    def results(v):
        return (
            dual(v, flag),
            project_to_step(v, flag, 1),
            restrict_to_fiber(v, flag),
            flatten_pair(v, flag, 1, 2),
            codim(v, flag),
            projected_codim(v, flag, 1),
            partition_from_perm(v, 1, 3),
        )

    flags._flag_table.cache_clear()
    try:
        got = results(spelled)
    finally:
        flags._flag_table.cache_clear()
    assert _plain(got), got
    assert got == results(w)


def test_per_class_functions_check_a_class_once(monkeypatch):
    # and so do the oracle, the movability routes and the factorization,
    # on a movable triple that holds the class: each reads it through its
    # table entry
    flag = FlagType((1, 2), 4)
    calls = []
    check = flags.check_minimal_rep

    def counted(w, f):
        calls.append(w)
        return check(w, f)

    monkeypatch.setattr(flags, "check_minimal_rep", counted)
    # a list is not a dict key, so the table looks it up as a tuple
    for w in ((3, 1, 2, 4), [3, 1, 2, 4]):
        calls.clear()
        flags._flag_table.cache_clear()
        oracle._layout.cache_clear()
        classes = ((2, 4, 1, 3), w, (4, 3, 1, 2))
        try:
            for _ in range(3):
                dual(w, flag)
                codim(w, flag)
                project_to_step(w, flag, 2)
                projected_codim(w, flag, 1)
                flatten_pair(w, flag, 1, 3)
                restrict_to_fiber(w, flag)
                assert intersection_number(classes, flag) == 1
                assert is_levi_movable(classes, flag).movable
                assert factor_full(classes, flag).coefficient == 1
        finally:
            flags._flag_table.cache_clear()
            oracle._layout.cache_clear()
        assert calls == [(3, 1, 2, 4), (2, 4, 1, 3), (4, 3, 1, 2)]


@pytest.mark.parametrize(
    "call",
    [
        lambda f: check_class_tuple(None, f),
        lambda f: check_class_tuple([(1, 2, 3), None], f),
        lambda f: intersection_number([5], f),
        lambda f: dual(None, f),
        lambda f: codim(7, f),
    ],
    ids=["tuple None", "class None", "class 5", "dual None", "codim 7"],
)
def test_a_class_that_is_not_a_sequence_is_a_value_error(call):
    with pytest.raises(ValueError):
        call(FlagType((1,), 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda f: codim((1, 2, 3), f),
        lambda f: intersection_number(((1, 2, 3),), f),
        lambda f: is_levi_movable(((1, 2, 3), (3, 1, 2)), f),
        lambda f: is_minimal_rep((1, 2, 3), f),
        parabolic_longest,
        fiber_flag,
        lambda f: pair_grassmannian(f, 1, 2),
    ],
    ids=[
        "codim",
        "intersection_number",
        "is_levi_movable",
        "is_minimal_rep",
        "parabolic_longest",
        "fiber_flag",
        "pair_grassmannian",
    ],
)
# a list and a dict are not hashable, so they must be refused before any
# cache keyed by the flag
@pytest.mark.parametrize(
    "flag",
    ["1/3", None, ((1,), 3), [1, 3], {"n": 3}],
    ids=["text", "None", "tuple", "list", "dict"],
)
def test_a_flag_that_is_not_a_flag_type_is_a_value_error(call, flag):
    with pytest.raises(ValueError, match="not a flag type"):
        call(flag)


def test_dual_pinned():
    g24 = grassmannian_flag(2, 4)
    assert dual((2, 4, 1, 3), g24) == (1, 3, 2, 4)
    assert dual((1, 4, 2, 3), g24) == (1, 4, 2, 3)
    assert dual((2, 3, 1, 4), g24) == (2, 3, 1, 4)
    f3 = complete_flag(3)
    assert dual((2, 3, 1), f3) == (2, 1, 3)
    assert dual((3, 1, 2), f3) == (1, 3, 2)


@pytest.mark.parametrize("n", range(2, 6))
def test_dual_involution_and_length(n):
    for flag in enumerate_flag_types(n):
        for w in enumerate_minimal_reps(flag):
            v = dual(w, flag)
            assert is_minimal_rep(v, flag)
            assert dual(v, flag) == w
            assert length(v) == flag.dimension - length(w)


def test_codim():
    f3 = complete_flag(3)
    assert codim((1, 2, 3), f3) == 3
    assert codim((3, 2, 1), f3) == 0
    assert codim((2, 3, 1), f3) == 1


def test_check_class_tuple():
    f3 = complete_flag(3)
    assert check_class_tuple(((2, 3, 1), (2, 1, 3)), f3) == ((2, 3, 1), (2, 1, 3))
    with pytest.raises(ValueError):
        check_class_tuple(((2, 3, 1), (2, 3, 1)), f3)
    with pytest.raises(ValueError):
        check_class_tuple(((3, 2, 1), (1, 2, 3)), grassmannian_flag(1, 3))
    # lists are accepted as indices, and a cached class still rejects bad company
    assert check_class_tuple([[2, 3, 1], [2, 1, 3]], f3) == ((2, 3, 1), (2, 1, 3))
    with pytest.raises(ValueError):
        check_class_tuple(((2, 3, 1), (2, 3, 4)), f3)
    with pytest.raises(ValueError):
        check_class_tuple(((2, 3, 1), "21"), f3)
    # the cached tuples go to every later caller: equal floats do not leak
    check_class_tuple(((3.0, 1.0, 2.0), (1, 3, 2)), f3)
    classes = check_class_tuple(((3, 1, 2), (1, 3, 2)), f3)
    assert all(type(v) is int for w in classes for v in w)


@pytest.mark.parametrize("n", range(2, 6))
def test_flag_table_matches_the_public_functions(n):
    for flag in enumerate_flag_types(n):
        table = flag_table(flag)
        assert table is flag_table(FlagType(flag.steps, flag.n))
        assert table.reps == enumerate_minimal_reps(flag)
        assert table.codims == tuple(codim(w, flag) for w in table.reps)
        for w in table.reps:
            entry = table.entry(w)
            assert table.entry(list(w)) is entry
            assert entry.codim == codim(w, flag)
            assert entry.projected_codims == tuple(
                projected_codim(w, flag, i) for i in range(1, flag.r + 1)
            )
            for k, (i, j) in enumerate(table.pairs):
                gr = pair_grassmannian(flag, i, j)
                flat = flatten_pair(w, flag, i, j)
                partition = partition_from_perm(flat, gr.steps[0], gr.n)
                assert entry.pair_partitions[k] == partition
                assert entry.pair_codims[k] == gr.dimension - length(flat)
            # leaf k reads the class left after k - 1 fiber restrictions,
            # projected to the Grassmannian of its first step
            sub, subflag = w, flag
            for k, (r, m) in enumerate(table.leaf_spaces):
                assert (r, m) == (subflag.steps[0], subflag.n)
                projected = project_to_step(sub, subflag, 1)
                assert entry.leaf_partitions[k] == partition_from_perm(projected, r, m)
                sub, subflag = restrict_to_fiber(sub, subflag), fiber_flag(subflag)
        assert table.entries == tuple(map(table.entry, table.reps))


def _grassmannian_partition(w, r, n):
    """The partition of the class w on the Grassmannian of r-planes in
    C^n, in closed form: the parts n - r + j - w(j) for j = 1 .. r, which
    weakly decrease, with the zero parts dropped."""
    return tuple(p for p in (n - r + j - w[j - 1] for j in range(1, r + 1)) if p)


@pytest.mark.parametrize(
    "flag_types",
    [*(enumerate_flag_types(n) for n in range(2, 7)), (complete_flag(7),)],
    ids=["n2", "n3", "n4", "n5", "n6", "complete7"],
)
def test_counted_partitions_match_the_standardized_slices(flag_types):
    # the table counts each part on w itself; standardizing the slice and
    # reading the partition off the result must give the same fields
    for flag in flag_types:
        table = flag_table(flag)
        b = flag.bounds
        for entry in table.entries:
            w = entry.w
            pairs = tuple(
                _grassmannian_partition(
                    _standardize(w[b[i - 1] : b[i]] + w[b[j - 1] : b[j]]), bi, bi + bj
                )
                for (i, j), (bi, bj) in zip(table.pairs, table.pair_sizes)
            )
            leaves = tuple(
                _grassmannian_partition(_standardize(w[a:]), r, m)
                for a, (r, m) in zip(b, table.leaf_spaces)
            )
            assert entry.pair_partitions == pairs, (str(flag), w)
            assert entry.pair_codims == tuple(map(sum, pairs)), (str(flag), w)
            assert entry.leaf_partitions == leaves, (str(flag), w)


LIFTED = ("projected_codims", "pair_codims", "pair_partitions", "leaf_partitions")


def _counted_fields(w, flag):
    """Every per-class field of the class, counted on w itself: the
    definitions that the lifts from the fiber and the closed form of the
    projected codimensions replace, kept as the reference.

    Both blocks of a pair ascend, so the flattening sends a position p of
    block i to p plus the number of q in block j with w(q) < w(p), and
    the part b_j + p - f(p) of p is the number of q in block j with
    w(q) > w(p), that is b_j - bisect_left(w[block j], w(p)).  The parts
    weakly decrease along block i; the zero parts, those of the values
    above the last of block j, are left out.  Leaf k reads the sorted
    values past a_k the same way, and the projection to the step a has
    codimension the sum of n - a + j - w(j) over j = 1 .. a."""
    b = flag.bounds
    blocks = [w[lo:hi] for lo, hi in pairwise(b)]

    def parts(left, right):
        moving = left[: bisect_left(left, right[-1])]
        return tuple([len(right) - bisect_left(right, v) for v in moving])

    pairs = tuple(
        parts(blocks[i], blocks[j])
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
    )
    return {
        "projected_codims": tuple(
            sum(flag.n - a + j - w[j - 1] for j in range(1, a + 1)) for a in flag.steps
        ),
        "pair_codims": tuple(map(sum, pairs)),
        "pair_partitions": pairs,
        "leaf_partitions": tuple(
            parts(w[b[k - 1] : b[k]], sorted(w[b[k] :])) for k in range(1, len(b) - 1)
        ),
    }


def _chain(table):
    """The table and the tables of its fiber flags that exist."""
    out = [table]
    while "fiber" in vars(out[-1]):
        out.append(out[-1].fiber)
    return out


def _lifted_data(table):
    """The lifted fields built so far: columns and fields kept on entries."""
    return [
        (str(t.flag), name)
        for t in _chain(table)
        for name in (*t._columns, *(f for e in t._entries.values() for f in LIFTED if f in vars(e)))
    ]


@pytest.fixture
def fresh_flag_tables():
    flags._flag_table.cache_clear()
    yield
    flags._flag_table.cache_clear()


@pytest.mark.parametrize("n", range(1, 8))
def test_lifted_fields_match_the_counted_reference(n, fresh_flag_tables):
    # every flag type with n <= 7, the point too: each field of every class
    # of a listed table, read through its entry and its column, and of a
    # one-off entry on a fresh table, which lists no table of its chain
    # (every fifth class for n = 7, where a one-off entry of a long chain
    # lifts each field again at every level)
    for flag in (FlagType((), n), *enumerate_flag_types(n)):
        table = flag_table(flag)
        expected = {w: _counted_fields(w, flag) for w in table.reps}
        for entry in table.entries:
            assert entry.index is not None
            assert {f: getattr(entry, f) for f in LIFTED} == expected[entry.w], (str(flag), entry.w)
        for field in LIFTED:
            assert table.column(field) == tuple(x[field] for x in expected.values()), (str(flag), field)
        flags._flag_table.cache_clear()
        table = flag_table(flag)
        for w, fields in list(expected.items())[:: 5 if n == 7 else 1]:
            entry = table._entry(w)
            assert entry.index is None
            assert {f: getattr(entry, f) for f in LIFTED} == fields, (str(flag), w)
        assert all("_classes" not in vars(t) and not t._columns for t in _chain(table)), str(flag)


# the classes of every flag type on C^n, n = 2 .. 7: 52,602 in all
CLASS_COUNTS = {2: 2, 3: 12, 4: 74, 5: 540, 6: 4682, 7: 47292}


@pytest.mark.parametrize("n", range(2, 8))
def test_projected_codimensions_sum_the_lifted_pair_codimensions(n):
    # the closed form of pc_i and the lift of the pair codimensions share no
    # code: the pairs p <= a_i < q with w(p) < w(q) are those of the pairs
    # of blocks k <= i < l, on every class with n <= 7; and pc_i is 0 at
    # every step exactly on the unit
    classes = 0
    for flag in enumerate_flag_types(n):
        table = flag_table(flag)
        across = [
            [k for k, (i, j) in enumerate(table.pairs) if i <= step < j]
            for step in range(1, flag.r + 1)
        ]
        unit = dual(identity(n), flag)
        columns = zip(table.reps, table.column("projected_codims"), table.column("pair_codims"))
        for w, projected, pairs in columns:
            assert projected == tuple(sum(pairs[k] for k in ks) for ks in across), (str(flag), w)
            assert (not any(projected)) == (w == unit), (str(flag), w)
            classes += 1
    assert classes == CLASS_COUNTS[n]


@pytest.mark.parametrize("field", ["bogus", ["x"], None, "fiber"], ids=["bogus", "list", "None", "fiber"])
def test_an_unknown_column_is_a_value_error_that_builds_nothing(field, fresh_flag_tables):
    # the name is checked before the chain of fiber tables is walked: no
    # table of the chain gains a column, and a table not yet listed builds
    # no fiber table
    accepted = re.escape(str(flags._COLUMNS))
    table = flag_table(FlagType((1, 3), 5))
    message = f"unknown column {re.escape(repr(field))}, expected one of {accepted}"
    with pytest.raises(ValueError, match=message):
        table.column(field)
    assert "fiber" not in vars(table) and not table._columns
    assert len(table.reps) == 30 and len(_chain(table)) == 3
    with pytest.raises(ValueError, match="unknown column"):
        table.column(field)
    assert _lifted_data(table) == []
    assert table.column("pair_codims")[0] == table.entries[0].pair_codims


def test_a_one_off_entry_lists_no_table(fresh_flag_tables):
    flag = complete_flag(12)
    w = (7, 12, 1, 11, 2, 10, 3, 9, 4, 8, 5, 6)
    report = is_levi_movable((w, dual(w, flag)), flag)
    assert report.movable
    entry = flag_table(flag).entry(w)
    assert {f: getattr(entry, f) for f in LIFTED} == _counted_fields(w, flag)
    chain = _chain(flag_table(flag))
    assert len(chain) == 12  # down to the point
    assert all("_classes" not in vars(t) and not t._columns for t in chain)


def test_a_one_off_entry_lifts_its_pair_fields_in_one_pass(monkeypatch, fresh_flag_tables):
    # a one-off entry's pair codimensions are the sizes of its pair
    # partitions, lifted once for both fields; a listed table still lifts
    # its codimension column with no partition built
    def refuse(*args):
        raise AssertionError("pair codimensions lifted apart")

    flag = FlagType((1, 4), 8)
    w = (3, 1, 6, 7, 2, 4, 5, 8)
    expected = _counted_fields(w, flag)
    monkeypatch.setitem(flags._LIFTS, "pair_codims", refuse)
    entry = flag_table(flag).entry(w)
    assert entry.index is None
    assert entry.pair_codims == expected["pair_codims"]
    assert vars(entry)["pair_partitions"] == expected["pair_partitions"]


def test_listing_builds_no_pair_or_leaf_data(fresh_flag_tables):
    table = flag_table(FlagType((1, 3, 4), 6))
    assert len(table.entries) == len(table.reps) == 180
    assert _lifted_data(table) == []
    # a read builds the column it reads, along the chain, and nothing else
    assert table.entries[100].pair_codims == table.column("pair_codims")[100]
    assert set(_lifted_data(table)) == {
        (f, "pair_codims") for f in ("1,3,4/6", "2,3/5", "1/3", "/2")
    }


def test_a_listed_table_counts_no_length(monkeypatch, fresh_flag_tables):
    """An entry of a listed table takes its codimension from the listing;
    a one-off entry on a table not listed counts the length of its class."""
    calls = []

    def counted(w):
        calls.append(w)
        return length(w)

    monkeypatch.setattr(flags, "length", counted)
    flag = FlagType((2, 3), 5)
    w = (2, 5, 4, 1, 3)
    assert codim(w, flag) == 2 and calls == [w]
    calls.clear()
    flags._flag_table.cache_clear()
    table = flag_table(flag)
    assert [codim(v, flag) for v in table.reps] == list(table.codims)
    assert all(table.entry(v).index == p for p, v in enumerate(table.reps))
    assert calls == []


@pytest.mark.parametrize("n", range(2, 7))
def test_unchecked_cores_match_the_public_functions(n):
    for flag in enumerate_flag_types(n):
        b = flag.bounds
        for w in enumerate_minimal_reps(flag):
            assert _restrict_to_fiber(w, flag.steps[0]) == restrict_to_fiber(w, flag)
            for i, a in enumerate(flag.steps, start=1):
                assert _project_to_step(w, a) == project_to_step(w, flag, i)
            for i, j in flag_table(flag).pairs:
                pair = w[b[i - 1] : b[i]] + w[b[j - 1] : b[j]]
                assert _standardize(pair) == flatten_pair(w, flag, i, j)
            assert _dual(w, flag) == dual(w, flag)


def test_project_to_step_pinned():
    f3 = complete_flag(3)
    assert project_to_step((3, 2, 1), f3, 1) == (3, 1, 2)
    assert project_to_step((3, 2, 1), f3, 2) == (2, 3, 1)
    with pytest.raises(ValueError):
        project_to_step((3, 2, 1), f3, 3)
    # an index that is not an integer is a ValueError, not a TypeError
    for call in (
        lambda: project_to_step((3, 2, 1), f3, 1.0),
        lambda: projected_codim((3, 2, 1), f3, 1.0),
        lambda: f3.block(1.0),
    ):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("n", range(2, 7))
def test_projected_codim_matches_projected_class(n):
    for flag in enumerate_flag_types(n):
        for w in enumerate_minimal_reps(flag):
            for i in range(1, flag.r + 1):
                a = flag.steps[i - 1]
                one_step = grassmannian_flag(a, n)
                projected = project_to_step(w, flag, i)
                assert is_minimal_rep(projected, one_step)
                assert projected_codim(w, flag, i) == codim(projected, one_step)


def test_flatten_pair_pinned():
    f3 = complete_flag(3)
    assert flatten_pair((2, 3, 1), f3, 1, 3) == (2, 1)
    assert flatten_pair((3, 2, 1), f3, 1, 2) == (2, 1)
    assert pair_grassmannian(f3, 1, 3) == grassmannian_flag(1, 2)
    with pytest.raises(ValueError):
        flatten_pair((2, 3, 1), f3, 2, 2)
    with pytest.raises(ValueError):
        pair_grassmannian(f3, 1, 4)
    with pytest.raises(ValueError):
        flatten_pair((2, 3, 1), f3, 1.0, 2)
    with pytest.raises(ValueError):
        pair_grassmannian(f3, 1.0, 3)


@pytest.mark.parametrize("n", range(2, 6))
def test_flatten_pair_lands_on_pair_grassmannian(n):
    for flag in enumerate_flag_types(n):
        for w in enumerate_minimal_reps(flag):
            for i in range(1, flag.r + 2):
                for j in range(i + 1, flag.r + 2):
                    flat = flatten_pair(w, flag, i, j)
                    assert is_minimal_rep(flat, pair_grassmannian(flag, i, j))


def test_fiber_pinned():
    f3 = complete_flag(3)
    assert fiber_flag(f3) == FlagType((1,), 2)
    assert restrict_to_fiber((2, 3, 1), f3) == (2, 1)
    assert fiber_reduction((2, 3, 1), f3) == ((2, 1, 3), (2, 1), FlagType((1,), 2))
    assert fiber_flag(grassmannian_flag(2, 4)) == FlagType((), 2)
    with pytest.raises(ValueError):
        fiber_flag(FlagType((), 3))


@pytest.mark.parametrize("n", range(2, 7))
def test_fiber_restriction_lands_on_fiber_flag(n):
    for flag in enumerate_flag_types(n):
        ff = fiber_flag(flag)
        for w in enumerate_minimal_reps(flag):
            assert is_minimal_rep(restrict_to_fiber(w, flag), ff)
