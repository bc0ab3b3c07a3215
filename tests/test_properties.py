"""Property tests on random flags and random exact-degree tuples: the three
movability routes agree, and a movable tuple's Littlewood-Richardson leaves
multiply out to the polynomial oracle's intersection number."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from flaghorn.factor import factor_full  # noqa: E402
from flaghorn.flags import FlagType, flag_table  # noqa: E402
from flaghorn.levi import is_levi_movable  # noqa: E402
from flaghorn.oracle import intersection_number  # noqa: E402


@st.composite
def flags(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    steps = draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1))
    return FlagType(tuple(sorted(steps)), n)


@st.composite
def exact_degree_cases(draw):
    """A flag and an s-tuple of its classes, s in {2, 3}, whose
    codimensions sum to the dimension: s - 1 classes drawn freely and a
    last one of the codimension that is left."""
    flag = draw(flags())
    table = flag_table(flag)
    by_codim: dict[int, list] = {}
    for w, c in zip(table.reps, table.codims):
        by_codim.setdefault(c, []).append(w)
    s = draw(st.sampled_from((2, 3)))
    head = draw(st.lists(st.sampled_from(table.reps), min_size=s - 1, max_size=s - 1))
    need = table.dimension - sum(table.entry(w).codim for w in head)
    hypothesis.assume(need in by_codim)
    last = draw(st.sampled_from(by_codim[need]))
    return flag, tuple(sorted(head + [last]))


@hypothesis.settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
)
@hypothesis.given(exact_degree_cases())
def test_routes_agree_and_leaves_multiply_to_the_oracle(case):
    flag, classes = case
    report = is_levi_movable(classes, flag, "cross_check")  # raises on disagreement
    if report.movable:
        tree = factor_full(classes, flag)
        leaves = math.prod(leaf.coefficient for leaf in tree.leaf_factors())
        assert leaves == intersection_number(classes, flag)
