"""Flag types for type A partial flag manifolds and their Schubert classes.

A flag type is a strictly increasing tuple of steps (a_1, ..., a_r) inside
an ambient dimension n; it names the manifold of nested subspaces of the
given dimensions in C^n.  Schubert classes on it are indexed by the
permutations of [n] that ascend everywhere except possibly at the steps
(the minimal length representatives of the corresponding cosets); the
class of index w has dimension length(w).

The steps cut [n] into r+1 consecutive blocks.  Block i has the positions
a_{i-1}+1 .. a_i (with a_0 = 0, a_{r+1} = n) and size b_i = a_i - a_{i-1}.
An empty step tuple is allowed and names a single point; its only class
is the unit.

A class is an ascending first block, a class of the Grassmannian of
a_1-planes, together with a class of the fiber flag (steps a_2 - a_1, ...,
a_r - a_1 in n - a_1) relabelled onto the values the block leaves; its
codimension is the sum of the two.  flag_table(flag) keeps the classes
of a flag type and their per-class data, and builds its class list and
codimensions this way from the fiber's table, and every per-class field
(pair and leaf partitions, projected data) from its fiber class; _walk, the
one tuple walker of levi and grassmann, lists the tuples of its classes
whose codimensions and per-class vectors sum to a target.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, pairwise
from operator import add, itemgetter, le, lshift

from .perm import (
    Perm,
    _integer,
    _sequence,
    _standardize,
    check_permutation,
    length,
)

__all__ = [
    "FlagType",
    "complete_flag",
    "grassmannian_flag",
    "enumerate_flag_types",
    "is_minimal_rep",
    "check_minimal_rep",
    "check_class_tuple",
    "enumerate_minimal_reps",
    "parabolic_longest",
    "dual",
    "codim",
    "project_to_step",
    "projected_codim",
    "flatten_pair",
    "pair_grassmannian",
    "fiber_flag",
    "restrict_to_fiber",
    "fiber_reduction",
    "ClassEntry",
    "FlagTable",
    "flag_table",
]


class _Record:
    """Base of the public result classes: the fields, named in order by
    __match_args__, show as ``Name(field=value, ...)`` and compare as a
    tuple, with records of the same class only.  Unhashable."""

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented


class _Frozen(_Record):
    """A record hashed as the tuple of its fields, whose attributes cannot
    be set or deleted; its __init__ fills ``self.__dict__``."""

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FlagType(_Frozen):
    """Steps 0 < a_1 < ... < a_r < n together with the ambient n.

    >>> FlagType((1, 2), 3).dimension
    3
    >>> FlagType.parse("1,3/4")
    FlagType(steps=(1, 3), n=4)
    >>> str(FlagType((2,), 4))
    '2/4'
    """

    __match_args__ = ("steps", "n")

    def __init__(self, steps: tuple[int, ...], n: int) -> None:
        steps = _sequence(steps, "the steps")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"ambient dimension must be an integer >= 1: {n!r}")
        prev = 0
        for a in steps:
            if not isinstance(a, int) or not prev < a < n:
                raise ValueError(
                    f"steps must satisfy 0 < a_1 < ... < a_r < {n}: {steps!r}"
                )
            prev = a
        # plain ints, so that an equal flag spelled with bools (cached by
        # equality, as by flag_table) prints the same
        steps, n = tuple(map(int, steps)), int(n)
        # every lru_cache keyed by a flag type hashes it, so hash it once
        self.__dict__.update(steps=steps, n=n, _hash=hash((steps, n)))

    def __eq__(self, other: object) -> bool:
        # every lru_cache lookup with an equal flag lands here: no field loop
        if other.__class__ is self.__class__:
            return (self.steps, self.n) == (other.steps, other.n)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def r(self) -> int:
        return len(self.steps)

    @property
    def bounds(self) -> tuple[int, ...]:
        """(a_0, a_1, ..., a_r, a_{r+1}) = (0, steps..., n)."""
        return (0, *self.steps, self.n)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """(b_1, ..., b_{r+1}) with b_i = a_i - a_{i-1}."""
        b = self.bounds
        return tuple(b[i] - b[i - 1] for i in range(1, len(b)))

    def block(self, i: int) -> tuple[int, ...]:
        """Positions of block i, for i in 1 .. r+1.

        >>> FlagType((1, 2), 4).block(3)
        (3, 4)
        """
        b, i = self.bounds, _integer(i, "the block index")
        if not 1 <= i <= self.r + 1:
            raise ValueError(f"block index {i} outside 1..{self.r + 1}")
        return tuple(range(b[i - 1] + 1, b[i] + 1))

    @property
    def dimension(self) -> int:
        """Complex dimension of the manifold: sum of a_i * (a_{i+1} - a_i).

        >>> FlagType((1, 3), 4).dimension
        5
        """
        b = self.bounds
        return sum(b[i] * (b[i + 1] - b[i]) for i in range(1, len(b) - 1))

    @property
    def is_grassmannian(self) -> bool:
        return self.r == 1

    @property
    def is_complete(self) -> bool:
        return self.r == self.n - 1

    @classmethod
    def parse(cls, text: str) -> "FlagType":
        """Parse 'a_1,...,a_r/n'; a single step works as shorthand ('2/4')."""
        head, sep, tail = text.strip().partition("/")
        if not sep:
            raise ValueError(f"malformed flag type (expected 'steps/n'): {text!r}")
        try:
            n = int(tail)
            steps = tuple(int(p) for p in head.split(",")) if head else ()
        except ValueError:
            raise ValueError(f"malformed flag type: {text!r}") from None
        return cls(steps, n)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.steps) + f"/{self.n}"


def complete_flag(n: int) -> FlagType:
    """The flag type with every step present.

    >>> complete_flag(3)
    FlagType(steps=(1, 2), n=3)
    """
    n = _integer(n, "the ambient dimension")
    return FlagType(tuple(range(1, n)), n)


def enumerate_flag_types(n: int) -> tuple[FlagType, ...]:
    """All flag types with at least one step in ambient dimension n.

    >>> [str(f) for f in enumerate_flag_types(3)]
    ['1/3', '2/3', '1,2/3']
    """
    out, n = [], _integer(n, "the ambient dimension")
    for k in range(1, n):
        for steps in combinations(range(1, n), k):
            out.append(FlagType(steps, n))
    return tuple(out)


def grassmannian_flag(r: int, n: int) -> FlagType:
    """The one-step flag type of r-planes in C^n."""
    return FlagType((r,), n)


def is_minimal_rep(w: Perm, flag: FlagType) -> bool:
    """True if w indexes a Schubert class of the flag manifold, i.e. w is
    a permutation of 1..n that ascends at every position that is not a
    step; False for anything else.

    >>> is_minimal_rep((3, 1, 2), FlagType((1,), 3))
    True
    >>> is_minimal_rep((3, 2, 1), FlagType((1,), 3))
    False
    >>> is_minimal_rep((1, 1, 2), FlagType((1,), 3))
    False
    """
    table = flag_table(flag)  # ValueError unless a flag type
    try:
        w = check_permutation(w)
    except ValueError:
        return False
    return _ascends(w, table)


def _ascends(w: Perm, table: "FlagTable") -> bool:
    """is_minimal_rep on a permutation w, read at the table's ascent
    positions."""
    return len(w) == table.flag.n and all(w[i - 1] < w[i] for i in table.ascents)


def check_minimal_rep(w: Perm, flag: FlagType) -> Perm:
    """Validate w as a class index for the flag type; ValueError otherwise."""
    w = check_permutation(w)
    if not _ascends(w, flag_table(flag)):
        raise ValueError(f"{w!r} does not index a Schubert class on {flag}")
    return w


def check_class_tuple(classes, flag: FlagType) -> tuple[Perm, ...]:
    """Validate a tuple of class indices whose codimensions sum to the
    dimension of the manifold, the precondition shared by all the
    intersection and movability routines.  ValueError otherwise."""
    return tuple(e.w for e in flag_table(flag).class_tuple(classes))


def enumerate_minimal_reps(flag: FlagType) -> tuple[Perm, ...]:
    """All class indices for the flag type, in lexicographic order: the
    ``reps`` of its class table.

    There are n! / (b_1! ... b_{r+1}!) of them.

    >>> enumerate_minimal_reps(FlagType((1,), 3))
    ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    """
    return flag_table(flag).reps


def parabolic_longest(flag: FlagType) -> Perm:
    """The longest permutation that fixes every block, i.e. the one that
    reverses the values inside each block.

    >>> parabolic_longest(FlagType((2,), 4))
    (2, 1, 4, 3)
    """
    return flag_table(flag).block_reversal


def dual(w: Perm, flag: FlagType) -> Perm:
    """The index of the Poincare dual class: w0 * w * (block reversal).

    The dual has complementary length, and the pairing of a class with its
    dual is the point class.  Applying dual twice returns w.

    >>> dual((2, 4, 1, 3), FlagType((2,), 4))
    (1, 3, 2, 4)
    """
    return flag_table(flag).entry(w).dual


def _dual(w: Perm, flag: FlagType) -> Perm:
    """dual with w unchecked, read from the class's table entry."""
    return flag_table(flag)._entry(w).dual


def codim(w: Perm, flag: FlagType) -> int:
    """Codimension of the class indexed by w: dimension(flag) - length(w)."""
    return flag_table(flag).entry(w).codim


def project_to_step(w: Perm, flag: FlagType, i: int) -> Perm:
    """Index of the image of the class under forgetting all steps except
    a_i: sort w(1..a_i) ascending and w(a_i+1..n) ascending.

    >>> project_to_step((3, 2, 1), FlagType((1, 2), 3), 1)
    (3, 1, 2)
    >>> project_to_step((3, 2, 1), FlagType((1, 2), 3), 2)
    (2, 3, 1)
    """
    w, i = flag_table(flag).entry(w).w, _integer(i, "the step index")
    if not 1 <= i <= flag.r:
        raise ValueError(f"step index {i} outside 1..{flag.r}")
    return _project_to_step(w, flag.steps[i - 1])


def _project_to_step(w: Perm, a: int) -> Perm:
    """project_to_step with the step value a in place of its index,
    w unchecked."""
    return tuple(sorted(w[:a])) + tuple(sorted(w[a:]))


def projected_codim(w: Perm, flag: FlagType, i: int) -> int:
    """Codimension of the projected class inside the one-step manifold of
    a_i-planes: the sum of n - a_i + j - w(j) over j = 1 .. a_i.

    >>> projected_codim((2, 3, 1), FlagType((1, 2), 3), 1)
    1
    """
    entry, i = flag_table(flag).entry(w), _integer(i, "the step index")
    if not 1 <= i <= flag.r:
        raise ValueError(f"step index {i} outside 1..{flag.r}")
    return entry.projected_codims[i - 1]


def flatten_pair(w: Perm, flag: FlagType, i: int, j: int) -> Perm:
    """Standardize w on the union of blocks i and j (i < j, both in
    1 .. r+1).  The result indexes a class on the Grassmannian of
    b_i-planes in C^(b_i + b_j).

    >>> flatten_pair((2, 3, 1), FlagType((1, 2), 3), 1, 3)
    (2, 1)
    """
    w = flag_table(flag).entry(w).w
    i, j = _integer(i, "the block index i"), _integer(j, "the block index j")
    if not 1 <= i < j <= flag.r + 1:
        raise ValueError(f"need 1 <= i < j <= {flag.r + 1}, got ({i}, {j})")
    b = flag.bounds  # w is checked, so its slices standardize unchecked
    return _standardize(w[b[i - 1] : b[i]] + w[b[j - 1] : b[j]])


def pair_grassmannian(flag: FlagType, i: int, j: int) -> FlagType:
    """The Grassmannian of b_i-planes in C^(b_i + b_j) that receives the
    pair flattening of blocks i < j."""
    flag = flag_table(flag).flag  # ValueError unless a flag type
    i, j = _integer(i, "the block index i"), _integer(j, "the block index j")
    if not 1 <= i < j <= flag.r + 1:
        raise ValueError(f"need 1 <= i < j <= {flag.r + 1}, got ({i}, {j})")
    b = flag.block_sizes
    return grassmannian_flag(b[i - 1], b[i - 1] + b[j - 1])


def fiber_flag(flag: FlagType) -> FlagType:
    """Flag type of the fiber of forgetting every step except the first:
    steps a_2 - a_1, ..., a_r - a_1 inside n - a_1.  For a one-step flag
    the fiber is a point (no steps).

    >>> fiber_flag(FlagType((1, 2), 3))
    FlagType(steps=(1,), n=2)
    """
    flag = flag_table(flag).flag  # ValueError unless a flag type
    if flag.r < 1:
        raise ValueError("a point has no fiber reduction")
    a1 = flag.steps[0]
    return FlagType(tuple(a - a1 for a in flag.steps[1:]), flag.n - a1)


def restrict_to_fiber(w: Perm, flag: FlagType) -> Perm:
    """Standardize w on the positions past the first step.  The result
    indexes a class on the fiber flag manifold.

    >>> restrict_to_fiber((2, 3, 1), FlagType((1, 2), 3))
    (2, 1)
    """
    w = flag_table(flag).entry(w).w
    if flag.r < 1:
        raise ValueError("a point has no fiber reduction")
    return _restrict_to_fiber(w, flag.steps[0])


def _restrict_to_fiber(w: Perm, a1: int) -> Perm:
    """restrict_to_fiber with the first step a1 given, w unchecked."""
    return _standardize(w[a1:])


def fiber_reduction(w: Perm, flag: FlagType) -> tuple[Perm, Perm, FlagType]:
    """Split w into (projection to the first step, fiber restriction,
    fiber flag type).

    >>> fiber_reduction((2, 3, 1), FlagType((1, 2), 3))
    ((2, 1, 3), (2, 1), FlagType(steps=(1,), n=2))
    """
    # the fiber first: on a point it raises the message fiber_flag gives
    fiber = restrict_to_fiber(w, flag)
    return project_to_step(w, flag, 1), fiber, fiber_flag(flag)


class ClassEntry:
    """Per-class data of one Schubert class on a flag type.

    Built by FlagTable, which validates the index once and knows its
    codimension, and its position ``index`` in ``reps`` when the table is
    listed; the fields below are computed the first time a route reads
    them and kept.  The pair fields follow the order of FlagTable.pairs.

    A class is its first block, the head, with a class u of the fiber flag
    (see _lift_classes), and its projected, pair and leaf data are those
    of u lifted by the head, one rule per field (_LIFTS).  An entry of a
    listed table reads its field from the table's column (FlagTable.column),
    which lifts the fiber table's column for every class at once; any other
    entry lifts the field of u's entry by the same rule.  Either way the
    fields of u are shared, and only what the head adds is counted.  A pair
    or a leaf is kept only as its partition, which every route reads.
    """

    def __init__(
        self, table: "FlagTable", w: Perm, codim: int, index: int | None = None
    ) -> None:
        self.table = table
        self.w = w
        self.codim = codim
        self.index = index

    @cached_property
    def dual(self) -> Perm:
        """The index of the Poincare dual class:
        (w0 * w * w_P)(i) = n + 1 - w(w_P(i)), with the block reversal w_P
        kept by the table."""
        w, top = self.w, self.table.flag.n + 1
        return tuple([top - w[p - 1] for p in self.table.block_reversal])

    @cached_property
    def projected_codims(self) -> tuple[int, ...]:
        """Codimension of the projection to each step a_1, ..., a_r: for the
        step a, the number of pairs p <= a < q with w(p) < w(q)."""
        return self._lifted("projected_codims")

    @cached_property
    def pair_partitions(self) -> tuple[tuple[int, ...], ...]:
        """Partition of each pair flattening on its pair Grassmannian, the
        one form of the flattening that routes iii and iv read.  The part
        of a position p of block i is the number of q in block j with
        w(q) > w(p); the parts weakly decrease along block i, and the zero
        parts are left out."""
        return self._lifted("pair_partitions")

    @cached_property
    def pair_codims(self) -> tuple[int, ...]:
        """Codimension of each pair flattening: the size of its partition.
        An entry of a listed table reads its column, lifted with no
        partition built; any other entry sums its pair partitions, so both
        fields are lifted in one pass."""
        if self.index is None:
            return tuple(map(sum, self.pair_partitions))
        return self._lifted("pair_codims")

    @cached_property
    def leaf_partitions(self) -> tuple[tuple[int, ...], ...]:
        """For each step a_k, the partition on the Grassmannian of
        b_k-planes in C^(n - a_(k-1)) of w(a_(k-1)+1 .. n), standardized:
        the class that the k-th leaf of the factorization reads.  The
        spaces follow FlagTable.leaf_spaces.  The part of a position p of
        block k is the number of q past a_k with w(q) > w(p); the zero
        parts are left out."""
        return self._lifted("leaf_partitions")

    @cached_property
    def fiber(self) -> "ClassEntry":
        """The entry of the fiber class u on the fiber flag's table."""
        table = self.table
        return table.fiber._entry(_restrict_to_fiber(self.w, table.flag.steps[0]))

    def _lifted(self, field: str):
        """The field, read from the table's column when the entry has a
        position, else lifted from the field of the fiber entry.

        The chain of fiber entries is walked with a loop, as
        FlagTable._chain walks the fiber tables, down to the first entry
        that has the field or a position, or to a point, whose one class
        has no step, pair or leaf; no recursion depth grows with the
        number of steps.  Only this entry keeps the field: a pair field
        has r(r+1)/2 parts, so keeping it at every level of a long chain
        would hold memory cubic in the number of steps."""
        chain, entry = [], self
        while entry.index is None and field not in vars(entry) and entry.table.flag.r:
            chain.append(entry)
            entry = entry.fiber
        if entry.index is not None:
            value = entry.table.column(field)[entry.index]
        else:
            value = vars(entry).get(field, ())  # kept, or a point's
        lift = _LIFTS[field]
        for entry in reversed(chain):
            head = entry.w[: entry.table.flag.steps[0]]
            value = lift(entry.table, (head,), (entry.fiber.w,), (value,))[0]
        return value


class FlagTable:
    """The classes of one flag type and their per-class data, shared by
    every route that reads them.  Use flag_table(flag), which keeps one
    table per flag type.

    Nothing is computed up front.  ``reps`` and ``codims`` list every
    class in lexicographic order the first time an enumeration asks,
    built from the fiber flag's table (which is kept too) without a
    length count.  Listing builds no other per-class data: each lifted
    field of ClassEntry gets its column, in table order, the first time a
    route reads it (column), lifted from the fiber table's column.  A
    single class gets its ClassEntry the first time a route asks for it;
    that is where its index is validated, once, so a one-off request pays
    only for its own classes, lifted from their fiber classes' entries
    without listing any table, and later reads skip the check.  An entry
    of a listed table takes its codimension and position from the
    listing.
    """

    def __init__(self, flag: FlagType) -> None:
        self.flag = flag
        self.dimension = flag.dimension
        b = flag.block_sizes
        # (b_k, n - a_(k-1)) for each step: the Grassmannian of leaf k
        self.leaf_spaces = tuple(
            (b[k], flag.n - a) for k, a in enumerate(flag.bounds[:-2])
        )
        # the leaves whose Grassmannian is not a projective space, the only
        # ones whose point product the degree leaves open
        self.lr_leaves = tuple(
            k for k, (r, m) in enumerate(self.leaf_spaces) if r > 1 and m - r > 1
        )
        # the positions i < n that are not steps, where a class ascends:
        # w(i) < w(i + 1)
        self.ascents = tuple(
            i for lo, hi in pairwise(flag.bounds) for i in range(lo + 1, hi)
        )
        # parabolic_longest: the positions of each block in reverse
        self.block_reversal = tuple(
            p for lo, hi in pairwise(flag.bounds) for p in range(hi, lo, -1)
        )
        # the positions of blocks 2, ..., r+1 inside the fiber class u
        a1 = flag.bounds[1] if flag.r else 0
        self.fiber_blocks = tuple(
            slice(lo - a1, hi - a1) for lo, hi in pairwise(flag.bounds[1:])
        )
        self._entries: dict[Perm, ClassEntry] = {}
        self._columns: dict[str, tuple] = {}

    # The pair data take time quadratic in the number of steps, so they
    # are built on first use: a one-off entry makes a table for every flag
    # of its fiber chain, and reads the pairs of the first alone.

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Every pair of blocks i < j, in lexicographic order."""
        blocks = range(1, self.flag.r + 2)
        return tuple((i, j) for i in blocks for j in blocks if i < j)

    @cached_property
    def pair_sizes(self) -> tuple[tuple[int, int], ...]:
        """(b_i, b_j) for each pair of blocks."""
        b = self.flag.block_sizes
        return tuple((b[i - 1], b[j - 1]) for i, j in self.pairs)

    @cached_property
    def pair_target(self) -> tuple[int, ...]:
        """b_i * b_j, the dimension of each pair Grassmannian."""
        return tuple(bi * bj for bi, bj in self.pair_sizes)

    @cached_property
    def lr_pairs(self) -> tuple[int, ...]:
        """The pairs whose Grassmannian is not a projective space, the only
        ones whose point product the degree leaves open."""
        return tuple(k for k, (bi, bj) in enumerate(self.pair_sizes) if bi > 1 and bj > 1)

    @cached_property
    def fiber(self) -> "FlagTable":
        """The table of the fiber flag."""
        return flag_table(fiber_flag(self.flag))

    def _chain(self, built) -> list["FlagTable"]:
        """This table and the tables of its fiber flags, each below the
        one before, down to the first table for which built holds, or to
        the point's: a loop, so no recursion depth grows with the number of
        steps."""
        chain = [self]
        while not built(chain[-1]) and chain[-1].flag.r:
            chain.append(chain[-1].fiber)
        return chain

    @cached_property
    def _classes(self) -> tuple[tuple[Perm, ...], tuple[int, ...]]:
        """(reps, codims), built from the tables of the fiber flags.

        The chain (_chain) ends at the first table already built, or at the
        point flag, whose one class is the identity of codimension 0.  Each
        table on the way back up is built from the one below it (see
        _lift_classes) and kept, innermost first.
        """
        chain = self._chain(lambda table: "_classes" in vars(table))
        point = ((tuple(range(1, chain[-1].flag.n + 1)),), (0,))
        classes = vars(chain.pop()).setdefault("_classes", point)
        for table in reversed(chain):
            classes = vars(table)["_classes"] = _lift_classes(table.flag, *classes)
        return classes

    @cached_property
    def reps(self) -> tuple[Perm, ...]:
        """Every class index, in lexicographic order: each ascending first
        block, in lexicographic order, followed by each class of the fiber
        flag relabelled onto the values the block leaves."""
        return self._classes[0]

    @cached_property
    def codims(self) -> tuple[int, ...]:
        """The codimension of each class of ``reps``: that of its first
        block on the Grassmannian of the first step plus that of its
        fiber class, with no length counted."""
        return self._classes[1]

    @cached_property
    def _index(self) -> dict[Perm, int]:
        """The position of each class in ``reps``."""
        return {w: p for p, w in enumerate(self.reps)}

    def column(self, field: str) -> tuple:
        """A lifted field of ClassEntry (projected_codims, pair_codims,
        pair_partitions or leaf_partitions) for every class of ``reps``,
        in table order.

        Built the first time it is asked for, along the chain of fiber
        tables (_chain): the point's one class has no step, pair or leaf,
        and each table's column is lifted from the one below it
        (_lift_column) and kept, innermost first."""
        column = self._columns.get(field)
        if column is None:
            chain = self._chain(lambda table: field in table._columns)
            column = chain.pop()._columns.setdefault(field, ((),))
            for table in reversed(chain):
                column = table._columns[field] = table._lift_column(field, column)
        return column

    def _lift_column(self, field: str, below: tuple) -> tuple:
        """The column of field, lifted from the fiber table's column below:
        each head in lexicographic order, with every fiber class, as
        _lift_classes lists reps."""
        heads = combinations(range(1, self.flag.n + 1), self.flag.steps[0])
        return tuple(_LIFTS[field](self, heads, self.fiber.reps, below))

    @cached_property
    def entries(self) -> tuple[ClassEntry, ...]:
        """The entry of each class of ``reps``; these indices are valid by
        construction and are not checked."""
        return tuple(map(self._entry, self.reps))

    def _entry(self, w: Perm) -> ClassEntry:
        """entry with w unchecked, for indices valid by construction.  On
        a listed table the codimension and the position come from the
        listing; otherwise the length of w is counted, and nothing is
        listed."""
        entry = self._entries.get(w)
        if entry is None:
            if "_classes" in vars(self):
                index = self._index[w]
                entry = ClassEntry(self, w, self.codims[index], index)
                # an entry made after a column is built reads its field
                # there at once, without a lift
                fields = vars(entry)
                for field, column in self._columns.items():
                    fields[field] = column[index]
            else:
                entry = ClassEntry(self, w, self.dimension - length(w))
            self._entries[w] = entry
        return entry

    def entry(self, w) -> ClassEntry:
        """The entry of the class indexed by w; ValueError if w does not
        index a class of the flag type.  Every public per-class function
        takes its class through here, the one caller of check_minimal_rep,
        so an index met before is not checked again, whatever sequence
        spells it."""
        try:
            w = tuple(w)
            entry = self._entries.get(w)
        except TypeError:  # not a sequence, or not of hashable entries
            entry = None
        if entry is None:  # a class not seen yet, or not a class
            entry = self._entry(check_minimal_rep(w, self.flag))
        return entry

    def class_tuple(self, classes) -> tuple[ClassEntry, ...]:
        """Entries of a tuple of class indices whose codimensions sum to
        the dimension of the manifold; ValueError otherwise."""
        entries = tuple(map(self.entry, _sequence(classes, "the class indices")))
        total = sum(e.codim for e in entries)
        if total != self.dimension:
            raise ValueError(
                f"codimensions sum to {total}, expected {self.dimension} on {self.flag}"
            )
        return entries


def _lift_classes(
    flag: FlagType, fiber_reps: tuple[Perm, ...], fiber_codims: tuple[int, ...]
) -> tuple[tuple[Perm, ...], tuple[int, ...]]:
    """(reps, codims) of the flag type from those of its fiber flag.

    A class w is its ascending first block head = w(1..a_1) together with
    the fiber class u, w = head + (rest[u(1)], ..., rest[u(n - a_1)]) for
    the values rest that head leaves, in increasing order.  The relabelling
    is increasing, so heads in lexicographic order, each with the fiber
    classes in lexicographic order, list w in lexicographic order.  The
    head ascends, and head_j stands before the head_j - j smaller values
    of rest, so length(w) = sum(head_j - j) + length(u) and the
    codimension of w is a_1 (n - a_1) - sum(head_j - j) + codim(u).
    Each fiber class gets one getter of its positions, made once and
    applied to the rest of every head.
    """
    n, a1 = flag.n, flag.steps[0]
    values = range(1, n + 1)
    # a_1 (n - a_1) - sum(head_j - j), with sum(j) = a_1 (a_1 + 1) / 2
    top = a1 * (n - a1) + a1 * (a1 + 1) // 2
    # an itemgetter of one position returns the value, not a 1-tuple: a
    # fiber of one position has the one class (1,)
    getters = [itemgetter(*u) for u in fiber_reps] if n - a1 > 1 else [lambda rest: rest[1:]]
    reps: list[Perm] = []
    codims: list[int] = []
    for head in combinations(values, a1):
        taken = set(head)
        # rest[i] is the i-th value left, so rest[0] is never read
        rest = (0, *[v for v in values if v not in taken])
        reps.extend([head + getter(rest) for getter in getters])
        shift = top - sum(head)
        codims.extend([shift + c for c in fiber_codims])
    return tuple(reps), tuple(codims)


# The lifts: each rule takes a table, a sequence of heads and a sequence
# of fiber classes u with the field of each, and returns the field of every
# class head + u (as _lift_classes relabels it), each head with every u in
# turn.  With t_p = head_p - p, the number of values that the head leaves
# below head_p, the value rest[x] of w stands above head_p exactly when
# x > t_p, so every count below is read on u and t alone.  A listed table
# runs a rule once, on all its heads and its whole fiber column
# (FlagTable._lift_column), and a one-off entry on its own head and fiber
# class (ClassEntry._lifted).


def _gaps(head: Perm) -> tuple[int, ...]:
    """t_p = head_p - p for each position p of the (ascending) head."""
    return tuple([h - p for p, h in enumerate(head, 1)])


@lru_cache(maxsize=1024)
def _above(block: Perm, m: int) -> tuple[int, ...]:
    """For each y = 0 .. m, the number of values of the ascending block
    above y: size - k for each y from its (k-1)-th value up to its k-th.
    Many fiber classes share a block, so each is counted once while it is
    in use; the cache is bounded, since a one-off entry on a long chain
    meets new blocks at every level."""
    size, above, last = len(block), [], 0
    for k, x in enumerate(block):
        above += [size - k] * (x - last)
        last = x
    above += [0] * (m + 1 - last)
    return tuple(above)


def _above_blocks(table: FlagTable, us) -> list:
    """For each fiber class u, the lookup y -> the number of values above
    y of each of its blocks, that is of blocks 2, ..., r+1 of w."""
    m, blocks = table.flag.n - table.flag.steps[0], table.fiber_blocks
    return [[_above(u[b], m).__getitem__ for b in blocks] for u in us]


def _lift_pair_partitions(table: FlagTable, heads, us, below) -> list:
    """Part p of pair (1, j) is the number of values of block j - 1 of u
    above t_p, the values of block j of w above head_p, zero parts
    dropped; the parts weakly decrease, since t does not.  Pair (i, j)
    with i >= 2 is u's pair (i - 1, j - 1), whose tuple is shared, not
    recounted: the pairs of u follow those of the first block in
    FlagTable.pairs."""
    aboves, out = _above_blocks(table, us), []
    for head in heads:
        t = _gaps(head)
        out.extend([
            tuple([tuple(filter(None, map(above, t))) for above in blocks]) + f
            for blocks, f in zip(aboves, below)
        ])
    return out


def _lift_pair_codims(table: FlagTable, heads, us, below) -> list:
    """The sizes of _lift_pair_partitions, with no partition built."""
    aboves, out = _above_blocks(table, us), []
    for head in heads:
        t = _gaps(head)
        out.extend([
            tuple([sum(map(above, t)) for above in blocks]) + f
            for blocks, f in zip(aboves, below)
        ])
    return out


def _lift_projected_codims(table: FlagTable, heads, us, below) -> list:
    """Step 1 is the codimension of the head on Gr(a_1, n), the sum of its
    pairs (1, j).  Step i >= 2 is u's step i - 1 plus, for each t_p, the
    values of u past that step above t_p: the head's pairs (1, j) with
    j > i."""
    aboves, out = _above_blocks(table, us), []
    for head in heads:
        t = _gaps(head)
        for blocks, f in zip(aboves, below):
            # tail[k]: the head's pairs with the last k + 1 blocks
            tail = list(accumulate([sum(map(above, t)) for above in reversed(blocks)]))
            out.append((tail[-1], *map(add, reversed(tail[:-1]), f)))
    return out


def _lift_leaf_partitions(table: FlagTable, heads, us, below) -> list:
    """Leaf 1, on Gr(a_1, n), depends on the head alone: part p is the
    number of values past a_1 above head_p, (n - a_1) - t_p, zero parts
    dropped.  Leaf k >= 2 is u's leaf k - 1."""
    m, out = table.flag.n - table.flag.steps[0], []
    for head in heads:
        first = (tuple([m - x for x in _gaps(head) if x < m]),)
        out.extend([first + f for f in below])
    return out


_LIFTS = {
    "projected_codims": _lift_projected_codims,
    "pair_codims": _lift_pair_codims,
    "pair_partitions": _lift_pair_partitions,
    "leaf_partitions": _lift_leaf_partitions,
}


_flag_table = lru_cache(maxsize=None)(FlagTable)


def flag_table(flag: FlagType) -> FlagTable:
    """The shared class table of the flag type.

    >>> table = flag_table(FlagType((1,), 3))
    >>> table.reps, table.codims
    (((1, 2, 3), (2, 1, 3), (3, 1, 2)), (2, 1, 0))
    >>> table.entry((2, 1, 3)).pair_partitions
    ((1,),)
    """
    # every function of a flag type takes its flag through here; it is
    # checked before the cache, which would hash an unhashable flag first
    if not isinstance(flag, FlagType):
        raise ValueError(f"not a flag type: {flag!r}")
    return _flag_table(flag)


def _walk(
    table: FlagTable,
    s: int,
    vectors: Sequence[tuple[int, ...]],
    target: tuple[int, ...],
) -> list[tuple[Perm, ...]]:
    """The unordered s-tuples of classes whose codimensions sum to the
    dimension of the manifold and whose vectors sum to target, in
    lexicographic order.  vectors[j] is a vector of nonnegative integers
    for the class table.reps[j], as long as target.

    A depth-first walk on an explicit stack picks nondecreasing classes
    from the table in lexicographic order, so no sort is needed.  Each
    class carries its codimension and its vector packed into one integer,
    a field per coordinate with a guard bit on top of each: subtracting a
    class from what is left clears a guard bit exactly when some
    coordinate would go negative, so a single subtraction and mask test
    every coordinate at once.  A branch is also cut as soon as the
    codimension left exceeds what the open slots can hold.  A node with
    two open slots pushes nothing: it takes each class in turn and looks
    the last slot up by the packed vector that class leaves.  Once
    nothing is left, every open slot takes the fundamental class, the
    only class of codimension 0 (its vector is 0, so it packs to 0) and
    the last one: at most dimension many classes are ever chosen,
    whatever s.  Table classes are valid by construction and are not
    checked again.
    """
    full = (table.dimension, *target)
    width = max(full).bit_length() + 1
    shifts = range(0, len(full) * width, width)
    guard = sum(1 << (shift + width - 1) for shift in shifts)
    # the classes that can fill a slot: codimension > 0, vector within
    # target; the fundamental class follows them in ws, under key 0, so
    # the last slot looks it up like any other class, and no slot before
    # the last scans it
    ws, cs, ks = [], [], []
    for w, c, vector in zip(table.reps, table.codims, vectors):
        if c and all(map(le, vector, target)):
            ws.append(w)
            cs.append(c)
            ks.append(sum(map(lshift, (c, *vector), shifts)))
    # ceiling[p]: the largest codimension among the classes p, p+1, ...
    ceiling = list(accumulate(reversed(cs), max))[::-1]
    by_key: dict[int, list[int]] = {0: [len(ks)]}
    for p, key in enumerate(ks):
        by_key.setdefault(key, []).append(p)
    fundamental = table.reps[-1:]
    ws += fundamental
    out: list[tuple[Perm, ...]] = []
    # (classes so far, first class allowed next, codimension left,
    #  packed vector left, open slots >= 2)
    stack = [((), 0, table.dimension, sum(map(lshift, full, shifts)), s)]
    while stack:
        prefix, start, left, rest, slots = stack.pop()
        if rest == 0:
            out.append(prefix + fundamental * slots)
        elif slots == 2:
            # the last slot holds a class p or later whose key is what
            # the class p leaves; what leaves some coordinate negative
            # packs to no key, since each field stays below its guard bit
            for p in [p for p, key in enumerate(ks[start:], start) if rest - key in by_key]:
                last = by_key[rest - ks[p]]
                head = prefix + (ws[p],)
                out.extend([head + (ws[q],) for q in last[bisect_left(last, p):]])
        else:
            room, open_rest = slots - 1, rest | guard
            # pushed in reverse, so popped in lexicographic order
            stack.extend(
                (prefix + (ws[p],), p, left - cs[p], rest - ks[p], room)
                for p in reversed(range(start, len(ks)))
                if left - cs[p] <= room * ceiling[p]
                and (open_rest - ks[p]) & guard == guard
            )
    return out
