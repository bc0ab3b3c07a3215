"""Factorization of movable coefficients into Littlewood-Richardson leaves."""

import json

import pytest

from flaghorn.factor import (
    FactorizationTree,
    GrassmannianFactor,
    check_induced_movability,
    factor_full,
    factor_once,
    pairwise_factor,
)
from flaghorn.flags import (
    FlagType,
    complete_flag,
    dual,
    enumerate_flag_types,
    enumerate_minimal_reps,
    fiber_flag,
    grassmannian_flag,
    project_to_step,
    restrict_to_fiber,
)
from flaghorn.grassmann import partition_from_perm, product_to_point
from flaghorn.levi import MovabilityReport, enumerate_levi_movable, is_levi_movable
from flaghorn.oracle import intersection_number


F3 = complete_flag(3)
BLOCKED_TRIPLE = ((3, 1, 2), (3, 1, 2), (2, 3, 1))


def test_factor_once_frozen():
    c1, projected, c_fiber, fiber_classes, fiber = factor_once(
        ((2, 3, 1), (2, 1, 3)), FlagType((1, 2), 3)
    )
    assert c1 == 1
    assert projected == ((2, 1, 3), (2, 1, 3))
    assert c_fiber == 1
    assert fiber_classes == ((2, 1), (1, 2))
    assert fiber == FlagType((1,), 2)


def test_factor_once_on_grassmannian_has_point_fiber():
    flag = grassmannian_flag(2, 4)
    c1, projected, c_fiber, fiber_classes, fiber = factor_once(
        ((1, 3, 2, 4), (2, 4, 1, 3)), flag
    )
    assert (c1, c_fiber) == (1, 1)
    assert projected == ((1, 3, 2, 4), (2, 4, 1, 3))
    assert fiber == FlagType((), 2)
    assert fiber_classes == ((1, 2), (1, 2))


def test_factor_once_rejects_bad_input():
    with pytest.raises(ValueError):
        factor_once(BLOCKED_TRIPLE, F3)
    with pytest.raises(ValueError):
        factor_once(((1, 2, 3), (1, 2, 3)), FlagType((), 3))
    with pytest.raises(ValueError):
        factor_once(((2, 1, 3), (2, 1, 3)), F3)  # degree mismatch


def test_factor_full_single_step_tree():
    flag = grassmannian_flag(2, 4)
    classes = ((2, 4, 1, 3),) * 4
    tree = factor_full(classes, flag, verify_with_oracle=True)
    assert tree.fiber is None
    assert tree.levels() == [tree]
    assert tree.coefficient == 2
    [leaf] = tree.leaf_factors()
    assert leaf.space == flag
    assert leaf.partitions == ((1,),) * 4
    assert leaf.coefficient == 2


def test_factor_full_complete_three():
    for classes, coefficient in enumerate_levi_movable(F3, 2):
        tree = factor_full(classes, F3, verify_with_oracle=True)
        leaves = tree.leaf_factors()
        assert [leaf.space for leaf in leaves] == [
            grassmannian_flag(1, 3),
            grassmannian_flag(1, 2),
        ]
        assert tree.coefficient == coefficient == 1
        assert all(leaf.coefficient == 1 for leaf in leaves)


@pytest.mark.parametrize(
    "flag",
    [
        FlagType((1, 2), 4),
        FlagType((1, 3), 4),
        FlagType((2,), 5),
        FlagType((1, 2, 3), 4),
    ],
)
def test_factor_full_leaf_invariants(flag):
    expected_spaces = [
        grassmannian_flag(b, flag.n - a_prev)
        for b, a_prev in zip(flag.block_sizes[: flag.r], (0,) + flag.steps)
    ]
    for classes, coefficient in enumerate_levi_movable(flag, 2) + enumerate_levi_movable(flag, 3):
        tree = factor_full(classes, flag, verify_with_oracle=True)
        leaves = tree.leaf_factors()
        assert [leaf.space for leaf in leaves] == expected_spaces
        product = 1
        for leaf in leaves:
            product *= leaf.coefficient
        assert product == tree.coefficient == coefficient
        assert tree.coefficient == intersection_number(classes, flag)


def test_leaf_partitions_are_the_factor_full_leaves():
    # the tree reads every leaf off the root table; the reference walks
    # the public maps down the fibers instead: restrict to the fiber k
    # times, then project to the first step of that fiber and read the
    # partition on its Grassmannian Gr(b_k, n - a_(k-1)).  Every movable
    # tuple with n <= 5
    seen = 0
    for n in range(2, 6):
        for flag in enumerate_flag_types(n):
            for s in (2, 3):
                for classes, _ in enumerate_levi_movable(flag, s):
                    leaves = factor_full(classes, flag).leaf_factors()
                    assert len(leaves) == flag.r
                    level, fflag = classes, flag
                    for leaf in leaves:
                        r, m = fflag.steps[0], fflag.n
                        projected = tuple(project_to_step(w, fflag, 1) for w in level)
                        assert leaf.space == grassmannian_flag(r, m)
                        assert leaf.classes == projected
                        assert leaf.partitions == tuple(
                            partition_from_perm(w, r, m) for w in projected
                        )
                        level = tuple(restrict_to_fiber(w, fflag) for w in level)
                        fflag = fiber_flag(fflag)
                    seen += 1
    assert seen == 986


@pytest.mark.parametrize(
    "flag,classes",
    [
        (grassmannian_flag(2, 4), ((2, 4, 1, 3),) * 4),
        (
            grassmannian_flag(3, 8),
            ((1, 3, 5, 2, 4, 6, 7, 8),) + ((5, 7, 8, 1, 2, 3, 4, 6),) * 3,
        ),
    ],
)
def test_factor_full_makes_one_point_product_on_a_grassmannian(flag, classes):
    # the guard's decision makes the one pair product of a Grassmannian,
    # and the one leaf, whose partitions are the pair's, shares it
    product_to_point.cache_clear()
    tree = factor_full(classes, flag)
    assert product_to_point.cache_info().misses == 1
    assert tree.coefficient == intersection_number(classes, flag) == 2


def test_a_decision_then_a_factorization_makes_one_point_product():
    # a caller that decides a tuple and then factors it, as the query
    # workload's decide requests do, makes the one product once: the
    # factorization's guard and its leaf find it made
    flag = grassmannian_flag(3, 8)
    classes = ((1, 3, 5, 2, 4, 6, 7, 8),) + ((5, 7, 8, 1, 2, 3, 4, 6),) * 3
    product_to_point.cache_clear()
    assert is_levi_movable(classes, flag).movable
    assert factor_full(classes, flag).coefficient == 2
    info = product_to_point.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_factor_full_rejects_bad_input():
    with pytest.raises(ValueError):
        factor_full(BLOCKED_TRIPLE, F3)
    with pytest.raises(ValueError):
        factor_full(((1, 2),), FlagType((), 2))


def test_tree_to_dict_shape():
    classes = ((2, 3, 1), (2, 1, 3))
    tree = factor_full(classes, FlagType((1, 2), 3))
    doc = tree.to_dict()
    assert set(doc) == {"grassmannian", "partitions", "coefficient", "fiber"}
    assert doc["grassmannian"] == "1/3"
    assert doc["fiber"]["fiber"] is None
    json.dumps(doc)  # the document is plain data

    collected = 1
    node = doc
    while node is not None:
        collected *= node["coefficient"]
        node = node["fiber"]
    assert collected == tree.coefficient


def test_check_induced_movability():
    for flag in (F3, FlagType((1, 2), 4), FlagType((1, 3), 4), FlagType((1, 2, 3), 4)):
        for s in (2, 3):
            for classes, _ in enumerate_levi_movable(flag, s):
                assert check_induced_movability(classes, flag) == (True, True)
    with pytest.raises(ValueError):
        check_induced_movability(BLOCKED_TRIPLE, F3)


def test_a_vanishing_leaf_of_a_movable_tuple_raises(monkeypatch):
    import flaghorn.factor as factor

    monkeypatch.setattr(factor, "_leaf", lambda *args: 0)
    flag = FlagType((1, 2), 4)
    classes = next(iter(enumerate_levi_movable(flag, 3)))[0]
    with pytest.raises(RuntimeError, match="has a vanishing leaf"):
        factor_full(classes, flag)
    assert check_induced_movability(classes, flag) == (False, True)


def test_check_induced_movability_decides_the_fiber(monkeypatch):
    """The fiber value is a decision of its own: a fiber that
    is_levi_movable refuses reads as not movable, except past a one-step
    flag, whose fiber is a point."""
    import flaghorn.factor as factor

    right = factor.is_levi_movable
    decided = []

    def refuse(classes, flag, method="via_iii"):
        decided.append(flag)
        report = right(classes, flag, method)
        return MovabilityReport(
            report.classes, report.flag, report.method, report.condition_i,
            condition_iii=False, condition_iv=report.condition_iv,
            coefficient=report.coefficient, failing_witness="refused",
        )

    monkeypatch.setattr(factor, "is_levi_movable", refuse)
    flag = FlagType((1, 2), 4)
    classes = next(iter(enumerate_levi_movable(flag, 3)))[0]
    assert check_induced_movability(classes, flag) == (True, False)
    assert decided == [fiber_flag(flag)]
    grassmannian = grassmannian_flag(2, 4)
    classes = next(iter(enumerate_levi_movable(grassmannian, 3)))[0]
    assert check_induced_movability(classes, grassmannian) == (True, True)
    assert decided == [fiber_flag(flag)]


def test_pairwise_factor_identity():
    flag = FlagType((1, 2), 4)
    seen = 0
    for (w, u, vdual), coefficient in enumerate_levi_movable(flag, 3):
        v = dual(vdual, flag)
        c, c1, c_fiber = pairwise_factor(w, u, v, flag)
        assert c == c1 * c_fiber == coefficient
        seen += 1
    assert seen == 9


def test_pairwise_factor_unit_case():
    top = (3, 2, 1)  # the fundamental class of the complete flag variety
    for u in enumerate_minimal_reps(F3):
        assert pairwise_factor(top, u, u, F3) == (1, 1, 1)


def test_pairwise_factor_rejects_non_movable():
    # classically the coefficient is 1, but the triple is not movable
    v = dual((2, 3, 1), F3)
    with pytest.raises(ValueError):
        pairwise_factor((3, 1, 2), (3, 1, 2), v, F3)


@pytest.mark.parametrize("flag", [FlagType((1, 2), 4), FlagType((1, 3), 4), FlagType((2, 3), 4)])
def test_duality_commutes_with_reduction(flag):
    base = grassmannian_flag(flag.steps[0], flag.n)
    fflag = fiber_flag(flag)
    for w in enumerate_minimal_reps(flag):
        wd = dual(w, flag)
        assert project_to_step(wd, flag, 1) == dual(project_to_step(w, flag, 1), base)
        assert restrict_to_fiber(wd, flag) == dual(restrict_to_fiber(w, flag), fflag)


def test_dataclasses_are_frozen():
    leaf = GrassmannianFactor(grassmannian_flag(1, 2), ((1, 2),), ((),), 1)
    tree = FactorizationTree(grassmannian_flag(1, 2), ((1, 2),), 1, leaf, None)
    with pytest.raises(AttributeError):
        leaf.coefficient = 2
    with pytest.raises(AttributeError):
        tree.coefficient = 2
