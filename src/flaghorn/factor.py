"""Factorization of Levi-movable structure constants.

A movable coefficient on a multi-step flag manifold splits as the
product of a coefficient on the Grassmannian of the first step and a
coefficient on the fiber manifold of the remaining steps; splitting each
fiber in turn writes it as a product of r Littlewood-Richardson numbers,
one for each Grassmannian of a block inside what remains of the ambient
space.

One guard checks the input of every entry point and decides its
movability once (ValueError when it is not movable).  One loop folds the
tree from the last level up: level k holds the k-th fiber tuple
(ClassEntry.fiber), and its leaf is read off the root's class table, its
coefficient made by levi._leaf as in enumerate_levi_movable.  A fiber is
not decided again: its pairs (i - 1, j - 1) are the pairs (i, j) above
it (flags._LIFTS), which the guard read; a vanishing leaf raises
RuntimeError.  The other entry points read the first two levels.
"""

from __future__ import annotations

from .flags import (
    ClassEntry,
    FlagType,
    _Frozen,
    _project_to_step,
    dual,
    flag_table,
    grassmannian_flag,
)
from .grassmann import Partition, format_partition
from .levi import _evaluate, _leaf, is_levi_movable
from .oracle import intersection_number
from .perm import Perm

__all__ = [
    "GrassmannianFactor",
    "FactorizationTree",
    "factor_once",
    "factor_full",
    "check_induced_movability",
    "pairwise_factor",
]


class GrassmannianFactor(_Frozen):
    """One Littlewood-Richardson leaf: classes on a single Grassmannian
    whose product is coefficient times the point class."""

    __match_args__ = ("space", "classes", "partitions", "coefficient")

    def __init__(self, space: FlagType, classes: tuple[Perm, ...],
                 partitions: tuple[Partition, ...], coefficient: int) -> None:
        self.__dict__.update(space=space, classes=classes, partitions=partitions,
                             coefficient=coefficient)


class FactorizationTree(_Frozen):
    """One level of the factorization: the base holds the projection to
    the Grassmannian of the first step, the fiber holds the rest.  A
    one-step manifold is its own base and has no fiber.  The coefficient
    at every node is the base coefficient times the fiber coefficient."""

    __match_args__ = ("flag", "classes", "coefficient", "base", "fiber")

    def __init__(self, flag: FlagType, classes: tuple[Perm, ...], coefficient: int,
                 base: GrassmannianFactor, fiber: FactorizationTree | None) -> None:
        self.__dict__.update(flag=flag, classes=classes, coefficient=coefficient, base=base,
                             fiber=fiber)

    def levels(self) -> list[FactorizationTree]:
        """The chain of nodes from this one down to the last fiber."""
        out: list[FactorizationTree] = [self]
        while out[-1].fiber is not None:
            out.append(out[-1].fiber)
        return out

    def leaf_factors(self) -> list[GrassmannianFactor]:
        """The Littlewood-Richardson leaves, one per step of the root
        flag type; leaf i lives on the Grassmannian of b_i-planes in
        what remains of the ambient space."""
        return [level.base for level in self.levels()]

    def to_dict(self) -> dict:
        """Nested document: grassmannian, partitions, coefficient, fiber."""
        return {
            "grassmannian": str(self.base.space),
            "partitions": [format_partition(p) for p in self.base.partitions],
            "coefficient": self.base.coefficient,
            "fiber": self.fiber.to_dict() if self.fiber is not None else None,
        }


_Levels = list[tuple[ClassEntry, ...]]  # a tuple's entries, then each fiber tuple's


def _movable(classes, flag: FlagType) -> _Levels:
    """The guard of every entry point: ValueError when the tuple is
    malformed, the flag is a point, or the tuple is not Levi-movable.
    The tuple is checked once (FlagTable.class_tuple) and route iii
    decides it once (levi._evaluate).  Returns the r + 1 levels, down the
    fiber entries (ClassEntry.fiber) to the point."""
    table = flag_table(flag)
    levels = [table.class_tuple(classes)]
    if flag.r < 1:
        raise ValueError("a point manifold has nothing to factor")
    _, movable, _, _, witness = _evaluate(levels[0], table, "via_iii")
    if not movable:
        raise ValueError(f"tuple is not Levi-movable on {flag}: {witness}")
    for _ in range(flag.r):
        levels.append(tuple([e.fiber for e in levels[-1]]))
    return levels


def _node(entries: tuple[ClassEntry, ...]) -> tuple[tuple[Perm, ...], FlagType]:
    """The classes of one level and their flag type."""
    return tuple([e.w for e in entries]), entries[0].table.flag


def _base(levels: _Levels, k: int) -> GrassmannianFactor:
    """The leaf of level k on the Grassmannian of its first step: the
    level's projected classes, and the partitions and coefficient of the
    root's leaf k.  RuntimeError when the leaf vanishes."""
    root = levels[0][0].table
    r, m = root.leaf_spaces[k]
    coefficient = _leaf(levels[0], root, k)
    if not coefficient:
        raise RuntimeError(f"movable {_node(levels[0])[0]!r} over {root.flag} has a vanishing leaf")
    return GrassmannianFactor(
        grassmannian_flag(r, m),
        tuple([_project_to_step(e.w, r) for e in levels[k]]),
        tuple([e.leaf_partitions[k] for e in levels[0]]),
        coefficient,
    )


def factor_once(
    classes: tuple[Perm, ...], flag: FlagType
) -> tuple[int, tuple[Perm, ...], int, tuple[Perm, ...], FlagType]:
    """Split one movable tuple across the first step: returns the base
    coefficient on the Grassmannian of a_1-planes, the projected tuple,
    the fiber coefficient, the fiber tuple, and the fiber flag type.
    The product of the two coefficients is the intersection number of
    the input.  ValueError when the tuple is not Levi-movable.

    >>> from .flags import FlagType
    >>> factor_once(((2, 3, 1), (2, 1, 3)), FlagType((1, 2), 3))
    (1, ((2, 1, 3), (2, 1, 3)), 1, ((2, 1), (1, 2)), FlagType(steps=(1,), n=2))
    """
    levels = _movable(classes, flag)
    base = _base(levels, 0)
    fclasses, fflag = _node(levels[1])
    return base.coefficient, base.classes, intersection_number(fclasses, fflag), fclasses, fflag


def factor_full(
    classes: tuple[Perm, ...], flag: FlagType, verify_with_oracle: bool = False
) -> FactorizationTree:
    """Full factorization into Littlewood-Richardson leaves.  The tree has
    one level per step, folded from the last up; the coefficient of the
    root is the product of all leaf coefficients and equals the
    intersection number of the input.  With verify_with_oracle every
    node is cross-checked against the polynomial oracle (RuntimeError on
    mismatch)."""
    levels = _movable(classes, flag)
    tree = None
    for k in reversed(range(flag.r)):
        base = _base(levels, k)
        classes, level_flag = _node(levels[k])
        coefficient = base.coefficient * (tree.coefficient if tree else 1)
        tree = FactorizationTree(level_flag, classes, coefficient, base, tree)
        if verify_with_oracle and coefficient != intersection_number(classes, level_flag):
            raise RuntimeError(
                f"factored coefficient {coefficient} disagrees with the "
                f"oracle on {classes!r} over {level_flag}"
            )
    return tree


def check_induced_movability(
    classes: tuple[Perm, ...], flag: FlagType
) -> tuple[bool, bool]:
    """Whether the projected tuple stays movable on the Grassmannian of
    the first step (there, movable means a nonzero point product: leaf 0
    of the tuple) and the fiber tuple stays movable on the fiber
    manifold, decided afresh by is_levi_movable.  Both hold for movable
    input; a one-step flag has a point fiber, movable vacuously.
    ValueError when the input tuple is not movable itself."""
    levels = _movable(classes, flag)
    base = _leaf(levels[0], levels[0][0].table, 0)
    return base != 0, flag.r == 1 or is_levi_movable(*_node(levels[1])).movable


def pairwise_factor(
    w: Perm, u: Perm, v: Perm, flag: FlagType
) -> tuple[int, int, int]:
    """The coefficient of the class of v in the product of the classes
    of w and u, split across the first step: returns (c, c1, c_fiber)
    with c = c1 * c_fiber.  The projected and fiber coefficients pair
    the reduced classes against the reductions of the dual of v, which
    are the duals of the reductions.  ValueError when (w, u, dual of v)
    is not Levi-movable."""
    levels = _movable((w, u, dual(v, flag)), flag)
    return (
        intersection_number(*_node(levels[0])),
        _base(levels, 0).coefficient,
        intersection_number(*_node(levels[1])),
    )
