"""Grassmannian Schubert calculus: partitions, the Littlewood-Richardson
rule, and the Horn-type inequality tests used by the movability checks.

A Schubert class on the Grassmannian of r-planes in C^n corresponds to a
partition inside the r x (n - r) rectangle; the partition of the class
indexed by w (dimension convention) has parts n - r + j - w(j) for
j = 1 .. r, and its size is the codimension of the class.

A single Littlewood-Richardson coefficient (lr_coefficient) is a
depth-first search over the semistandard fillings of the skew shape whose
reverse reading word is a lattice word.  A whole product (lr_expand)
comes from one walk that adds the rows of the second partition as
labelled horizontal strips, so every term arrives with its multiplicity
and no search runs per term; the tests check each against the other.
A point product of any number of classes expands the two halves of the
list by that walk and meets them in the middle, by duality; the filling
search serves only as the tests' reference.  All three keep a memo, so
route iii and the leaves of the factorization share a point product.

Routes iii and iv of the movability test live here, on the class table's
pair partitions.  The Horn recursion is route iv on the Grassmannian's
own class table: the tuple walker of flags lists the tuples indexing its
inequalities, and route iii or route iv again decides which are positive.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .flags import (
    ClassEntry,
    FlagTable,
    FlagType,
    _walk,
    flag_table,
    grassmannian_flag,
)
from .perm import Perm, _integer, _sequence

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "check_partition",
    "parse_partition",
    "format_partition",
    "partitions_in_rectangle",
    "partition_from_perm",
    "perm_from_partition",
    "lr_coefficient",
    "lr_expand",
    "product_to_point",
    "horn_inequality_holds",
    "check_condition_iii",
    "condition_iii_failure",
    "check_condition_iv",
    "condition_iv_failure",
]


def check_partition(parts) -> Partition:
    """Normalize to a weakly decreasing tuple of positive plain ints
    (bools read as their ints)."""
    p = _sequence(parts, "a partition")
    if any(not isinstance(x, int) or x < 0 for x in p):
        raise ValueError(f"partition parts must be nonnegative integers: {p!r}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition parts must weakly decrease: {p!r}")
    p = tuple(map(int, p))
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def parse_partition(text: str) -> Partition:
    """Parse '2,1'; '0' and '' both denote the empty partition.

    >>> parse_partition("2,1")
    (2, 1)
    >>> parse_partition("0")
    ()
    """
    body = text.strip()
    if body in ("", "0"):
        return ()
    try:
        parts = tuple(int(x) for x in body.split(","))
    except ValueError:
        raise ValueError(f"malformed partition: {text!r}") from None
    return check_partition(parts)


def format_partition(p: Partition) -> str:
    """Inverse of parse_partition; the empty partition prints as '0'.
    ValueError if p is not a partition (check_partition)."""
    p = check_partition(p)
    return ",".join(map(str, p)) if p else "0"


def fits_rectangle(p: Partition, rows: int, cols: int) -> bool:
    return len(p) <= rows and (not p or p[0] <= cols)


def partitions_in_rectangle(rows: int, cols: int, size: int | None = None) -> list[Partition]:
    """All partitions with at most ``rows`` parts, each at most ``cols``,
    optionally restricted to a given total size.  Lexicographic order.

    >>> partitions_in_rectangle(2, 2)
    [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    >>> partitions_in_rectangle(3, 3, size=4)
    [(2, 1, 1), (2, 2), (3, 1)]
    """
    rows, cols = _integer(rows, "rows"), _integer(cols, "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"need a rectangle of nonnegative sides, got {rows} x {cols}")
    if size is None:
        return sorted(
            p for k in range(rows * cols + 1) for p in _partitions_of_size(k, rows, cols)
        )
    return _partitions_of_size(_integer(size, "size"), rows, cols)


def _partitions_of_size(size: int, rows: int, cols: int) -> list[Partition]:
    """The partitions of one size inside the rectangle, in lexicographic
    order.  A depth-first walk on an explicit stack that only takes a
    part when the parts after it, none larger, can still make up the
    size, so it never visits a partition of another size."""
    if not 0 <= size <= rows * cols:
        return []
    out: list[Partition] = []
    stack: list[tuple[Partition, int, int, int]] = [((), size, cols, rows)]
    while stack:
        prefix, left, top, slots = stack.pop()
        if not left:
            out.append(prefix)
            continue
        # smallest part with left <= slots * part; pushed largest first,
        # so the smallest is taken next
        for part in range(min(top, left), -(-left // slots) - 1, -1):
            stack.append((prefix + (part,), left - part, part, slots - 1))
    return out


def partition_from_perm(w: Perm, r: int, n: int) -> Partition:
    """Partition of the class indexed by w on the Grassmannian of r-planes
    in C^n.  The size of the partition is the codimension of the class.

    >>> partition_from_perm((2, 4, 1, 3), 2, 4)
    (1,)
    """
    return flag_table(grassmannian_flag(r, n)).entry(w).leaf_partitions[0]


def perm_from_partition(p: Partition, r: int, n: int) -> Perm:
    """Inverse of partition_from_perm.

    >>> perm_from_partition((1,), 2, 4)
    (2, 4, 1, 3)
    """
    p, r, n = check_partition(p), _integer(r, "r"), _integer(n, "n")
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if not fits_rectangle(p, r, n - r):
        raise ValueError(f"{p!r} does not fit inside {r} x {n - r}")
    padded = p + (0,) * (r - len(p))
    head = tuple(n - r + j - padded[j - 1] for j in range(1, r + 1))
    tail = tuple(sorted(set(range(1, n + 1)) - set(head)))
    return head + tail


def _contains(outer: Partition, inner: Partition) -> bool:
    return all(
        (outer[i] if i < len(outer) else 0) >= part for i, part in enumerate(inner)
    )


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient: the multiplicity of the
    class of nu in the product of the classes of lam and mu, equivalently
    the number of semistandard fillings of the skew shape nu/lam with
    content mu whose reverse reading word is a lattice word.

    >>> lr_coefficient((1,), (1,), (2,))
    1
    >>> lr_coefficient((2, 1), (2, 1), (3, 2, 1))
    2
    """
    # checked before the cache, which would hash an unhashable list first
    return _lr_coefficient(check_partition(lam), check_partition(mu), check_partition(nu))


@lru_cache(maxsize=None)
def _lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """lr_coefficient on normalized partitions: one depth-first search
    over the fillings of nu/lam."""
    if sum(nu) != sum(lam) + sum(mu) or not _contains(nu, lam):
        return 0
    if not mu:
        return 1
    # cells in reverse reading order: each row right to left, top row first
    cells: list[tuple[int, int]] = []
    for q in range(1, len(nu) + 1):
        inner = lam[q - 1] if q - 1 < len(lam) else 0
        for col in range(nu[q - 1], inner, -1):
            cells.append((q, col))
    # neighbours to the right and above come earlier in this order
    index = {cell: i for i, cell in enumerate(cells)}
    right = [index.get((q, col + 1)) for q, col in cells]
    above = [index.get((q - 1, col)) for q, col in cells]
    values = len(mu)
    filling = [0] * len(cells)  # 0 marks a cell not yet filled
    counts = [0] * (values + 1)
    # depth-first search on an explicit stack of cells, so that the depth
    # of the Python stack does not grow with the shape
    total, idx = 0, 0
    while idx >= 0:
        if idx == len(cells):
            total += 1
            idx -= 1
            continue
        t = filling[idx]
        if t:
            counts[t] -= 1
        hi = values if right[idx] is None else filling[right[idx]]
        lo = 1 if above[idx] is None else filling[above[idx]] + 1
        t = max(t + 1, lo)
        while t <= hi and (
            counts[t] >= mu[t - 1] or (t > 1 and counts[t - 1] <= counts[t])
        ):
            t += 1
        if t <= hi:
            filling[idx] = t
            counts[t] += 1
            idx += 1
        else:
            filling[idx] = 0
            idx -= 1
    return total


lr_coefficient.cache_info = _lr_coefficient.cache_info
lr_coefficient.cache_clear = _lr_coefficient.cache_clear


def lr_expand(lam: Partition, mu: Partition, rows: int, cols: int) -> dict[Partition, int]:
    """Product of the classes of lam and mu truncated to the rows x cols
    rectangle: each partition nu inside it with its Littlewood-Richardson
    coefficient, nonzero, in lexicographic order of nu.

    >>> lr_expand((1,), (1,), 2, 2)
    {(1, 1): 1, (2,): 1}
    >>> lr_expand((2, 1), (2, 1), 3, 3)[(3, 2, 1)]
    2
    """
    lam, mu = check_partition(lam), check_partition(mu)
    rows, cols = _integer(rows, "rows"), _integer(cols, "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"need a rectangle of nonnegative sides, got {rows} x {cols}")
    for p in (lam, mu):
        if not fits_rectangle(p, rows, cols):
            raise ValueError(f"{p!r} does not fit inside {rows} x {cols}")
    return dict(sorted(_lr_expand(lam, mu, rows, cols).items()))


@lru_cache(maxsize=None)
def _lr_expand(lam: Partition, mu: Partition, rows: int, cols: int) -> dict[Partition, int]:
    """lr_expand on normalized partitions inside the rectangle, in no
    particular order: the rows of mu are added to lam as labelled
    horizontal strips (_strips).

    Label i (counted from 0) adds mu[i] boxes, at most one in a column.
    The reverse reading word of the labels is a lattice word when, for
    every row r, the labels i in rows 0 .. r are at most the labels i - 1
    in rows 0 .. r - 1; so label i starts in row i.  These running counts
    are all that a later label reads of an earlier one, so a state of the
    walk is a shape with the running counts of the label just added, and
    fillings that reach the same state merge, their multiplicities added.
    Each filling is a Littlewood-Richardson tableau of nu/lam with
    content mu, so each nu ends with its coefficient.

    The cost of a state grows with the rows, so a rectangle with more
    rows than columns is walked transposed: conjugating all three
    partitions keeps every coefficient."""
    if rows > cols:
        flip = _lr_expand(_conjugate(lam), _conjugate(mu), cols, rows)
        return {_conjugate(nu): c for nu, c in flip.items()}
    # sum(mu) never binds: the first label has no lattice bound
    states: dict = {(lam + (0,) * (rows - len(lam)), (sum(mu),) * rows): 1}
    for i, boxes in enumerate(mu):
        nxt: dict = {}
        for (shape, bound), c in states.items():
            for state in _strips(shape, bound, i, boxes, cols):
                nxt[state] = nxt.get(state, 0) + c
        states = nxt
    out: dict[Partition, int] = {}
    for (shape, _), c in states.items():
        nu = shape[: rows - shape.count(0)]  # the zeros are all at the end
        out[nu] = out.get(nu, 0) + c
    return out


lr_expand.cache_info = _lr_expand.cache_info
lr_expand.cache_clear = _lr_expand.cache_clear


def _conjugate(p: Partition) -> Partition:
    """The transposed partition: part j counts the parts larger than j."""
    return tuple([sum(1 for x in p if x > j) for j in range(p[0])]) if p else ()


def _strips(
    shape: tuple[int, ...], bound: tuple[int, ...], first: int, boxes: int, cols: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The horizontal strips of `boxes` boxes that extend the shape, a
    partition padded with zeros to the rows of the rectangle, within its
    cols columns, starting in row `first` and putting at most bound[r - 1]
    boxes in rows first .. r.  Yields each new shape with those running
    counts, the bound of the next label.

    The walk chooses the running count through each row in turn.  Row r
    takes at most shape[r - 1] - shape[r] boxes (cols - shape[0] in row
    0), so the rows below r hold at most shape[r] - shape[-1], and the
    count through row r is at least boxes - (shape[r] - shape[-1]).  When
    these least counts keep within the bound, every choice inside the
    ranges completes a strip, so the walk meets no dead end; otherwise
    there is no strip."""
    rows, floor = len(shape), shape[-1]
    # the bound of the first label never binds
    if boxes > (shape[first - 1] if first else cols) - floor or first and any(
        boxes - shape[r] + floor > bound[r - 1] for r in range(first, rows)
    ):
        return
    # count[r]: the boxes in rows first .. r; top[r]: the most it may be
    new, count, top = list(shape), [0] * rows, [0] * rows
    r, prev = first, 0
    count[r] = max(0, boxes - shape[r] + floor)
    top[r] = min(boxes, (shape[r - 1] if r else cols) - shape[r], bound[r - 1])
    while True:
        new[r] = shape[r] + count[r] - prev
        if count[r] == boxes or r == rows - 1:
            # a complete strip: yield it, then take the next choice of the
            # deepest row that has one
            new[r + 1 :] = shape[r + 1 :]
            count[r + 1 :] = [boxes] * (rows - r - 1)
            yield tuple(new), tuple(count)
            while r >= first and count[r] == top[r]:
                r -= 1
            if r < first:
                return
            count[r] += 1
            prev = count[r - 1] if r > first else 0
            continue
        prev = count[r]
        r += 1
        count[r] = max(prev, boxes - shape[r] + floor)
        top[r] = min(prev + shape[r - 1] - shape[r], boxes, bound[r - 1])


def product_to_point(partitions: tuple[Partition, ...], r: int, n: int) -> int:
    """Coefficient of the point class (the full r x (n - r) rectangle) in
    the product of the Grassmannian classes of the given partitions.
    Returns 0 if the sizes do not sum to r * (n - r).

    >>> product_to_point(((1,), (1,), (2,)), 2, 4)
    1
    >>> product_to_point(((1,),) * 4, 2, 4)
    2
    """
    r, n = _integer(r, "r"), _integer(n, "n")
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    cols = n - r
    parts = tuple(map(check_partition, _sequence(partitions, "the partitions")))
    for p in parts:
        if not fits_rectangle(p, r, cols):
            raise ValueError(f"{p!r} does not fit inside {r} x {cols}")
    return _product_to_point(parts, r, n)


@lru_cache(maxsize=None)
def _product_to_point(parts: tuple[Partition, ...], r: int, n: int) -> int:
    """product_to_point on partitions already normalized and inside the
    r x (n - r) rectangle: the one place a point product is made, once
    per process.

    The degree decides first (_degree_verdict).  Otherwise the product
    is finished by duality: the point coefficient of sigma_nu * sigma_p
    is 1 when p is the complement of nu in the rectangle and 0
    otherwise.  So the two halves of the list are expanded apart
    (_expand) and met in the middle: each term nu of the first half's
    product adds its multiplicity times that of the complement of nu in
    the second half's.  One class meets the empty first half, two are
    compared by complement, and three read one term of the expansion of
    the last two, which the memo of _lr_expand shares among all triples
    with that pair.
    """
    verdict = _degree_verdict(sum(map(sum, parts)), r, n)
    if verdict is not None:
        return verdict
    cols, half = n - r, len(parts) // 2
    left, right = _expand(parts[:half], r, cols), _expand(parts[half:], r, cols)
    return sum(c * right.get(_complement(nu, r, cols), 0) for nu, c in left.items())


product_to_point.cache_info = _product_to_point.cache_info
product_to_point.cache_clear = _product_to_point.cache_clear


def _degree_verdict(degree: int, r: int, n: int) -> int | None:
    """The point coefficient of a product of classes of Gr(r, n) whose
    sizes sum to degree, when the degree alone decides it, else None.

    A product of the wrong degree misses the point class: 0.  On a
    projective space (r == 1 or n - r == 1), or a point, the classes
    multiply as sigma_a * sigma_b = sigma_(a+b), so the right degree is
    the point class: 1.  Elsewhere the partitions decide: None."""
    if degree != r * (n - r):
        return 0
    if r <= 1 or n - r <= 1:
        return 1
    return None


def _complement(p: Partition, rows: int, cols: int) -> Partition:
    """The complement of p in the rectangle (of at least one column),
    turned by 180 degrees: the partition whose class pairs with that of
    p to the point class."""
    return (cols,) * (rows - len(p)) + tuple([cols - x for x in reversed(p) if x < cols])


def _expand(parts: tuple[Partition, ...], rows: int, cols: int) -> dict[Partition, int]:
    """The product of the classes of the partitions inside the rectangle,
    one _lr_expand per term and factor past the first; the empty product
    is the class of the empty partition."""
    if len(parts) < 2:
        return {parts[0]: 1} if parts else {(): 1}
    acc = _lr_expand(parts[0], parts[1], rows, cols)
    for p in parts[2:]:
        nxt: dict[Partition, int] = {}
        for nu, c in acc.items():
            for kappa, c2 in _lr_expand(nu, p, rows, cols).items():
                nxt[kappa] = nxt.get(kappa, 0) + c * c2
        acc = nxt
    return acc


def horn_inequality_holds(
    tuple_w: tuple[Perm, ...], tuple_u: tuple[Perm, ...], d: int, b_i: int, b_j: int
) -> bool:
    """The inequality pairing classes w^k on the Grassmannian of
    b_i-planes in C^(b_i + b_j) with classes u^k on the Grassmannian of
    d-planes in C^b_i:

        sum over k, l <= d of (b_j + u^k(l) - w^k(u^k(l)))  <=  d * b_j

    Part p of the partition of w^k, read from its table entry, is
    b_j + p - w^k(p), so the left side sums its parts at u^k(1..d).

    >>> horn_inequality_holds((), (), 1, 2, 2)
    True
    """
    d, b_i, b_j = _integer(d, "d"), _integer(b_i, "b_i"), _integer(b_j, "b_j")
    tuple_w, tuple_u = _sequence(tuple_w, "tuple_w"), _sequence(tuple_u, "tuple_u")
    if len(tuple_w) != len(tuple_u):
        raise ValueError("class tuples must have the same length")
    if not 1 <= d < b_i:
        raise ValueError(f"need 1 <= d < {b_i}, got {d}")
    if b_j < 1:
        raise ValueError(f"need b_j >= 1, got {b_j}")
    big = flag_table(grassmannian_flag(b_i, b_i + b_j))
    small = flag_table(grassmannian_flag(d, b_i))
    partitions = [big.entry(w).pair_partitions[0] + (0,) * b_i for w in tuple_w]
    return _horn_holds(partitions, [small.entry(u).w for u in tuple_u], d, b_j)


def _horn_holds(partitions, tuple_u: tuple[Perm, ...], d: int, b_j: int) -> bool:
    """horn_inequality_holds on the partitions of the classes w^k, padded
    with zeros to at least b_i parts, and checked indices u^k."""
    lhs = sum(lam[p - 1] for lam, u in zip(partitions, tuple_u) for p in u[:d])
    return lhs <= d * b_j


def condition_iii_failure(classes: tuple[Perm, ...], flag: FlagType) -> str | None:
    """Pairwise point-product test: for every pair of blocks i < j the
    product of the flattened classes must be a nonzero multiple of the
    point class of the pair Grassmannian.  Returns None if every pair
    passes, else a description of the first failing pair."""
    table = flag_table(flag)
    return _condition_iii(table.class_tuple(classes), table)


def _condition_iii(
    entries: tuple[ClassEntry, ...], table: FlagTable, graded: bool = False
) -> str | None:
    """condition_iii_failure on the checked entries of an exact-degree
    tuple, read from the pair partitions of the table.

    The degree, summed from the pair codimensions, decides a product of
    the wrong degree and a pair with b_i == 1 or b_j == 1, which flattens
    onto a projective space (_degree_verdict), so their partitions are
    never read.  A tuple known to be graded, every pair of the right
    degree (the walk of routes iii and iv lists only those), can fail
    only at the pairs of FlagTable.lr_pairs, and only those are visited.
    The witness names the pair Grassmannian as its flag type prints,
    b_i/(b_i + b_j), without building one."""
    if graded:
        pairs, totals = table.lr_pairs, table.pair_target
    else:
        totals = tuple(map(sum, zip(*[e.pair_codims for e in entries])))
        pairs = range(len(totals))
    for k in pairs:
        bi, bj = table.pair_sizes[k]
        verdict = _degree_verdict(totals[k], bi, bi + bj)
        if verdict is None:
            verdict = _product_to_point(
                tuple([e.pair_partitions[k] for e in entries]), bi, bi + bj
            )
        if not verdict:
            i, j = table.pairs[k]
            return (
                f"blocks ({i},{j}): flattened product misses the point class "
                f"of {bi}/{bi + bj}"
            )
    return None


def check_condition_iii(classes: tuple[Perm, ...], flag: FlagType) -> bool:
    """True if every pairwise flattened product hits the point class."""
    return condition_iii_failure(classes, flag) is None


@lru_cache(maxsize=None)
def _point_positive_tuples(
    d: int, m: int, s: int, via: str
) -> tuple[tuple[Perm, ...], ...]:
    """Ordered s-tuples of class indices on the Grassmannian of d-planes
    in C^m whose product is a nonzero multiple of the point class, in
    lexicographic order.

    The only pair of blocks of a Grassmannian is the class itself, so
    via='lr' is route iii and via='horn' is route iv on its table, each
    deciding every exact-degree multiset of the walk once; the product
    is commutative, so a positive multiset gives all its orderings."""
    table = flag_table(grassmannian_flag(d, m))
    out = []
    for multiset in _walk(table, s, [()] * len(table.reps), ()):
        entries = tuple(map(table._entry, multiset))
        if via == "lr":
            witness = _condition_iii(entries, table)
        else:
            witness = _condition_iv(entries, table, "horn")
        if witness is None:
            out.extend(_orderings(multiset))
    return tuple(sorted(out))


def _orderings(multiset: tuple[Perm, ...]) -> Iterator[tuple[Perm, ...]]:
    """The distinct orderings of a nondecreasing tuple, in lexicographic
    order: each one is the next permutation of the one before."""
    a = list(multiset)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def condition_iv_failure(
    classes: tuple[Perm, ...], flag: FlagType, nonzero_via: str = "lr"
) -> str | None:
    """Degree-plus-inequalities test: for every pair of blocks i < j the
    flattened codimensions must sum to b_i * b_j, and for every
    1 <= d < b_i every tuple of classes on the d-plane Grassmannian in
    C^b_i with point-positive product must satisfy the pairing
    inequality, point-positivity decided by nonzero_via: 'lr' (route iii)
    or 'horn' (route iv).  Returns None if all hold, else the first failure."""
    if nonzero_via not in ("lr", "horn"):
        raise ValueError(f"unknown nonvanishing route: {nonzero_via!r}")
    table = flag_table(flag)
    return _condition_iv(table.class_tuple(classes), table, nonzero_via)


def _condition_iv(
    entries: tuple[ClassEntry, ...], table: FlagTable, nonzero_via: str = "lr"
) -> str | None:
    """condition_iv_failure on the checked entries of an exact-degree
    tuple, read from the pair partitions of the table in the partition
    form of horn_inequality_holds.

    A position whose flattening has codimension 0 is the fundamental
    class, whose partition is empty, so it adds 0 to every inequality
    whatever u is.  Each pair finds once the positions of positive
    codimension and sums the inequalities over those alone: at most
    b_i * b_j positions count, however large s is.  A failure still names
    the whole u-tuple.

    A pair with b_i = 1 has no inequality, since no d satisfies
    1 <= d < b_i: after its degree test it reads no partition."""
    s = len(entries)
    for k, (bi, bj) in enumerate(table.pair_sizes):
        i, j = table.pairs[k]
        total = sum(e.pair_codims[k] for e in entries)
        if total != bi * bj:
            return (
                f"blocks ({i},{j}): flattened codimensions sum to {total}, "
                f"expected {bi * bj}"
            )
        if bi == 1:
            continue
        moving = [t for t, e in enumerate(entries) if e.pair_codims[k]]
        partitions = tuple(entries[t].pair_partitions[k] + (0,) * bi for t in moving)
        for d in range(1, bi):
            for combo in _point_positive_tuples(d, bi, s, nonzero_via):
                if not _horn_holds(partitions, tuple(combo[t] for t in moving), d, bj):
                    return (
                        f"blocks ({i},{j}), d={d}: inequality fails for "
                        f"u-tuple {combo!r}"
                    )
    return None


def check_condition_iv(
    classes: tuple[Perm, ...], flag: FlagType, nonzero_via: str = "lr"
) -> bool:
    """True if the flattened degree equalities and all pairing
    inequalities hold."""
    return condition_iv_failure(classes, flag, nonzero_via) is None
