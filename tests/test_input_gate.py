"""One input gate: every public name that takes an integer or a
permutation either reads an equal float spelling as the plain ints it
equals, giving the same answer, or refuses it with a ValueError; never a
bare TypeError from deep inside, and never an answer holding floats.

The table calls each such name of flaghorn.__all__ once per argument, with
that argument spelled in floats; the names that take neither are listed
with a reason, so that a new public name must be placed in one or the
other."""

import pytest

import flaghorn
from flaghorn import FlagType, SparsePolynomial

COMPLETE3 = FlagType((1, 2), 3)
GR24 = FlagType((2,), 4)
PAIR = ((2, 3, 1), (2, 1, 3))  # exact degree on COMPLETE3
POINT_TRIPLE = ((3, 1, 2), (3, 1, 2), (2, 1, 3))  # bk_structure_constant's doctest
X1 = SparsePolynomial.variable(1)

# (name, plain arguments, positions of the arguments to spell in floats;
# None for every position)
GATED = [
    ("identity", (3,), None),
    ("longest_element", (3,), None),
    ("length", ((2, 3, 1),), None),
    ("descent_set", ((2, 3, 1),), None),
    ("inverse", ((2, 3, 1),), None),
    ("compose", ((2, 3, 1), (2, 1, 3)), None),
    ("flatten", ((2, 5, 3, 1, 4), (1, 2, 5)), None),
    ("lehmer_code", ((3, 1, 2),), None),
    ("perm_from_lehmer", ((2, 0),), None),
    ("pad", ((2, 1), 4), (1,)),
    ("format_permutation", ((2, 5, 3, 1, 4),), None),
    ("FlagType", ((1, 3), 4), None),
    ("complete_flag", (3,), None),
    ("grassmannian_flag", (2, 4), None),
    ("enumerate_flag_types", (3,), None),
    ("is_minimal_rep", ((2, 3, 1), COMPLETE3), None),
    ("check_minimal_rep", ((2, 3, 1), COMPLETE3), None),
    ("check_class_tuple", (PAIR, COMPLETE3), None),
    ("dual", ((2, 3, 1), COMPLETE3), None),
    ("codim", ((2, 3, 1), COMPLETE3), None),
    ("project_to_step", ((2, 3, 1), COMPLETE3, 1), None),
    ("projected_codim", ((2, 3, 1), COMPLETE3, 2), None),
    ("flatten_pair", ((2, 3, 1), COMPLETE3, 1, 2), None),
    ("pair_grassmannian", (COMPLETE3, 1, 2), None),
    ("restrict_to_fiber", ((2, 3, 1), COMPLETE3), None),
    ("fiber_reduction", ((2, 3, 1), COMPLETE3), None),
    ("divided_difference", (X1 * X1, 1), None),
    ("schubert_polynomial", ((2, 3, 1),), None),
    ("monk_expansion", ((2, 1, 3), 1), None),
    ("structure_constants_pair", ((2, 1, 3), (1, 3, 2), COMPLETE3), None),
    ("intersection_number", (PAIR, COMPLETE3), None),
    ("partitions_in_rectangle", (2, 2, 2), None),
    ("format_partition", ((2, 1),), None),
    ("partition_from_perm", ((2, 4, 1, 3), 2, 4), None),
    ("perm_from_partition", ((1,), 2, 4), None),
    ("lr_coefficient", ((1,), (1,), (2,)), None),
    ("lr_expand", ((1,), (1,), 2, 2), None),
    ("product_to_point", (((1,), (1,), (2,)), 2, 4), None),
    ("horn_inequality_holds", ((), (), 1, 2, 2), None),
    ("check_condition_iii", (PAIR, COMPLETE3), None),
    ("check_condition_iv", (PAIR, COMPLETE3), None),
    ("check_condition_i", (PAIR, COMPLETE3), None),
    ("is_levi_movable", (PAIR, COMPLETE3), None),
    ("exact_degree_tuples", (COMPLETE3, 2), None),
    ("enumerate_levi_movable", (GR24, 3), None),
    ("bk_structure_constant", (*POINT_TRIPLE, COMPLETE3), None),
    ("bk_product", ((2, 1, 3), (1, 3, 2), COMPLETE3), None),
    ("factor_once", (PAIR, COMPLETE3), None),
    ("factor_full", (PAIR, COMPLETE3), None),
    ("check_induced_movability", (PAIR, COMPLETE3), None),
    ("pairwise_factor", ((2, 1, 3), (2, 3, 1), (1, 2, 3), COMPLETE3), None),
    ("run_suite", ("duality", 3), None),
    ("run_all", (2,), None),
]

# Public names outside the gate, each with its reason.
NOT_GATED = {
    "Perm": "a type alias",
    "Partition": "a type alias",
    "parse_permutation": "reads a string into plain ints",
    "parse_partition": "reads a string into plain ints",
    "enumerate_minimal_reps": "takes a flag type only",
    "parabolic_longest": "takes a flag type only",
    "fiber_flag": "takes a flag type only",
    "flag_table": "takes a flag type only",
    "expand_in_schubert_basis": "takes a polynomial only",
    "ClassEntry": "made by FlagTable from checked classes",
    "FlagTable": "made by flag_table from a flag type",
    "MovabilityReport": "a result record, which holds what it is given",
    "GrassmannianFactor": "a result record, which holds what it is given",
    "FactorizationTree": "a result record, which holds what it is given",
    "SuiteResult": "a result record, which holds what it is given",
    "SparsePolynomial": "exponents and coefficients are read unchecked",
    "trim": "an unchecked helper on a permutation checked where it entered",
}


def _floats(value):
    """value with every int inside its tuples and lists spelled as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, tuple, list)):
        return value
    if isinstance(value, int):
        return float(value)
    return type(value)(map(_floats, value))


def _spellings():
    for name, args, positions in GATED:
        for k in range(len(args)) if positions is None else positions:
            spelled = _floats(args[k])
            if spelled is not args[k]:  # an argument with no int inside is skipped
                spelled = args[:k] + (spelled,) + args[k + 1:]
                yield pytest.param(name, args, spelled, id=f"{name}-arg{k}")


def test_every_public_name_is_gated_or_exempt():
    public = {name for name in flaghorn.__all__ if callable(getattr(flaghorn, name))}
    gated = {name for name, _, _ in GATED}
    assert not gated & set(NOT_GATED)
    assert gated | set(NOT_GATED) == public


@pytest.mark.parametrize("name, plain, spelled", _spellings())
def test_float_spelling_is_refused_or_read_as_ints(name, plain, spelled):
    function = getattr(flaghorn, name)
    want = function(*plain)
    try:
        got = function(*spelled)
    except ValueError:
        return
    # repr tells 2.0 from 2, inside tuples, dicts and records alike
    assert repr(got) == repr(want)


POINT = FlagType((), 3)

# (function, arguments of the right type but outside their domain, the
# start of the ValueError message)
OUT_OF_DOMAIN = [
    (flaghorn.identity, (-1,), "size must be nonnegative"),
    (flaghorn.longest_element, (-1,), "size must be nonnegative"),
    (flaghorn.compose, ((2, 1), (1, 3, 2)), "cannot compose permutations of different sizes"),
    (flaghorn.perm_from_lehmer, ((1, -1),), "code entries must be nonnegative"),
    (flaghorn.projected_codim, ((2, 3, 1), COMPLETE3, 0), "step index 0 outside 1..2"),
    (flaghorn.projected_codim, ((2, 3, 1), COMPLETE3, 3), "step index 3 outside 1..2"),
    (flaghorn.restrict_to_fiber, ((1, 2, 3), POINT), "a point has no fiber reduction"),
    (flaghorn.fiber_reduction, ((1, 2, 3), POINT), "a point has no fiber reduction"),
    (flaghorn.monk_expansion, ((2, 1), 0), "the column index r must be at least 1"),
    (flaghorn.enumerate_levi_movable, (COMPLETE3, 2, "bogus"), "unknown method 'bogus'"),
    (SparsePolynomial, ({(-1,): 1},), "negative exponent"),
    (SparsePolynomial.variable, (0,), "variables are numbered from 1"),
]


@pytest.mark.parametrize(
    "function, args, message",
    OUT_OF_DOMAIN,
    ids=[f"{function.__name__}-{k}" for k, (function, _, _) in enumerate(OUT_OF_DOMAIN)],
)
def test_a_value_outside_its_domain_is_refused(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        function(*args)


# (function, arguments with one that is not iterable where a sequence
# belongs, the start of the ValueError message).  length, descent_set,
# lehmer_code and pad's permutation are unchecked helpers on a permutation
# checked where it entered, as trim is, and are not listed.
NOT_ITERABLE = [
    (flaghorn.FlagType, (None, 3), "the steps must be a sequence"),
    (flaghorn.flatten, ((2, 1, 3), None), "the positions must be a sequence"),
    (flaghorn.perm_from_lehmer, (None,), "the code must be a sequence"),
]


@pytest.mark.parametrize(
    "function, args, message", NOT_ITERABLE, ids=[f.__name__ for f, _, _ in NOT_ITERABLE]
)
def test_a_non_iterable_sequence_argument_is_refused(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}, got None$"):
        function(*args)
