"""Factorization of Levi-movable structure constants.

A movable coefficient on a multi-step flag manifold splits as the
product of a coefficient on the Grassmannian of the first step and a
coefficient on the fiber manifold of the remaining steps.  Recursing on
the fiber writes the coefficient as a product of r Littlewood-Richardson
numbers, one for each Grassmannian of a block inside what remains of the
ambient space.

One guard checks the input of every entry point and makes the only
movability decision on it (ValueError when the tuple is not movable).
One split step returns the base leaf, the fiber tuple and the fiber flag
type; the tree is the split applied recursively, and the other entry
points are the guard plus one split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flags import (
    FlagType,
    _project_to_step,
    _restrict_to_fiber,
    check_class_tuple,
    dual,
    fiber_flag,
    flag_table,
    grassmannian_flag,
)
from .grassmann import Partition, _product_to_point, format_partition
from .levi import is_levi_movable
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


@dataclass(frozen=True)
class GrassmannianFactor:
    """One Littlewood-Richardson leaf: classes on a single Grassmannian
    whose product is coefficient times the point class."""

    space: FlagType
    classes: tuple[Perm, ...]
    partitions: tuple[Partition, ...]
    coefficient: int


@dataclass(frozen=True)
class FactorizationTree:
    """One level of the factorization: the base holds the projection to
    the Grassmannian of the first step, the fiber holds the rest.  A
    one-step manifold is its own base and has no fiber.  The coefficient
    at every node is the base coefficient times the fiber coefficient."""

    flag: FlagType
    classes: tuple[Perm, ...]
    coefficient: int
    base: GrassmannianFactor
    fiber: FactorizationTree | None

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


def _movable(classes, flag: FlagType) -> tuple[Perm, ...]:
    """The guard of every entry point: the checked tuple, or ValueError
    when it is malformed, the flag is a point, or the tuple is not
    Levi-movable."""
    classes = check_class_tuple(classes, flag)
    if flag.r < 1:
        raise ValueError("a point manifold has nothing to factor")
    report = is_levi_movable(classes, flag)
    if not report.movable:
        raise ValueError(
            f"tuple is not Levi-movable on {flag}: {report.failing_witness}"
        )
    return classes


def _split(
    classes: tuple[Perm, ...], flag: FlagType
) -> tuple[GrassmannianFactor, tuple[Perm, ...], FlagType]:
    """The split across the first step: the base leaf on the Grassmannian
    of a_1-planes, the fiber tuple and the fiber flag type.  The classes
    passed the guard (or are the fiber of a tuple that did), so the
    unchecked maps are used; the base partitions are the first leaf
    partitions of the class table."""
    a1 = flag.steps[0]
    projected = tuple(_project_to_step(w, a1) for w in classes)
    table = flag_table(flag)
    partitions = tuple(table._entry(w).leaf_partitions[0] for w in classes)
    base = GrassmannianFactor(
        grassmannian_flag(a1, flag.n),
        projected,
        partitions,
        _product_to_point(partitions, a1, flag.n),
    )
    fclasses = tuple(_restrict_to_fiber(w, a1) for w in classes)
    return base, fclasses, fiber_flag(flag)


def _fiber_failure(fclasses: tuple[Perm, ...], fflag: FlagType) -> str | None:
    """None when the fiber tuple is movable (a point fiber is, vacuously),
    else the witness of the failure."""
    if fflag.r == 0:
        return None
    return is_levi_movable(fclasses, fflag).failing_witness


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
    base, fclasses, fflag = _split(_movable(classes, flag), flag)
    c_fiber = intersection_number(fclasses, fflag)
    return base.coefficient, base.classes, c_fiber, fclasses, fflag


def factor_full(
    classes: tuple[Perm, ...], flag: FlagType, verify_with_oracle: bool = False
) -> FactorizationTree:
    """Full recursion to Littlewood-Richardson leaves.  The tree has one
    level per step; the coefficient of the root is the product of all
    leaf coefficients and equals the intersection number of the input.
    With verify_with_oracle every node is cross-checked against the
    polynomial oracle (RuntimeError on mismatch)."""
    return _factor_tree(_movable(classes, flag), flag, verify_with_oracle)


def _factor_tree(
    classes: tuple[Perm, ...], flag: FlagType, verify: bool
) -> FactorizationTree:
    """The split applied recursively; assumes the tuple is movable on
    flag (the root is validated by factor_full, fibers inherit
    movability from the root, re-checked here as an internal
    invariant)."""
    base, fclasses, fflag = _split(classes, flag)
    fiber = None
    coefficient = base.coefficient
    if fflag.r:
        failure = _fiber_failure(fclasses, fflag)
        if failure is not None:
            raise RuntimeError(
                f"fiber tuple {fclasses!r} lost movability on {fflag}: {failure}"
            )
        fiber = _factor_tree(fclasses, fflag, verify)
        coefficient *= fiber.coefficient
    tree = FactorizationTree(flag, classes, coefficient, base, fiber)
    if verify and tree.coefficient != intersection_number(classes, flag):
        raise RuntimeError(
            f"factored coefficient {tree.coefficient} disagrees with the "
            f"oracle on {classes!r} over {flag}"
        )
    return tree


def check_induced_movability(
    classes: tuple[Perm, ...], flag: FlagType
) -> tuple[bool, bool]:
    """Whether the projected tuple stays movable on the Grassmannian of
    the first step and the fiber tuple stays movable on the fiber
    manifold.  Both are guaranteed for movable input; a one-step flag
    has a point fiber, movable vacuously.  ValueError when the input
    tuple is not movable itself."""
    base, fclasses, fflag = _split(_movable(classes, flag), flag)
    # on a Grassmannian, movable means a nonzero point product
    return base.coefficient != 0, _fiber_failure(fclasses, fflag) is None


def pairwise_factor(
    w: Perm, u: Perm, v: Perm, flag: FlagType
) -> tuple[int, int, int]:
    """The coefficient of the class of v in the product of the classes
    of w and u, split across the first step: returns (c, c1, c_fiber)
    with c = c1 * c_fiber.  The projected and fiber coefficients pair
    the reduced classes against the reductions of the dual of v, which
    are the duals of the reductions.  ValueError when (w, u, dual of v)
    is not Levi-movable."""
    classes = _movable((w, u, dual(v, flag)), flag)
    base, fclasses, fflag = _split(classes, flag)
    return (
        intersection_number(classes, flag),
        base.coefficient,
        intersection_number(fclasses, fflag),
    )
