"""Ground-truth Schubert class products via polynomial representatives.

Everything else in the package indexes a Schubert class by the
permutation w whose variety has dimension length(w).  Polynomial
representatives instead index by codimension, so this module translates
at its boundary: a class enters as w, is handled internally as the
Poincare dual index dual(w), and expansion output is translated back the
same way.  This is the only place the two conventions meet.

The representative of the codimension index v is the classic polynomial
obtained from the staircase monomial x1^(m-1) * x2^(m-2) * ... of the
longest permutation by divided differences.  They are taken on packed
integers, one field of bits per variable (_schubert_trimmed): the
oracle reads the packed terms directly, and schubert_polynomial unpacks
the same terms into a SparsePolynomial.

An intersection number runs two tests before any product, and each
decides only zeros.  The fundamental class, the unit of the ring, is
dropped first.  Then the projected degree bound: the projected Schubert
varieties of Gr(a_i, n) meet whenever the Schubert varieties do, and by
Kleiman's transversality (Kleiman, The transversality of a general
translate, Compositio Math. 1974) generic translates of them meet in
dimension a_i(n - a_i) minus the sum of their codimensions, so a nonzero
product needs that sum at most a_i(n - a_i) at every step.  Then the
pairwise test: the product of two classes w and v vanishes unless
dual(v) <= w in Bruhat order, because the intersection of a Schubert
variety with an opposite one, a Richardson variety, is nonempty exactly
then (Richardson, Intersections of double cosets in algebraic groups,
1992; Brion, Lectures on the geometry of flag varieties, 2005, on
Richardson varieties).  On minimal coset representatives the order is
read by the tableau criterion at the steps alone (Bjorner and Brenti,
Combinatorics of Coxeter Groups, section 2.6).  A tuple that fails
either test is zero; a tuple that passes both may still be zero, and the
polynomial product decides it.  The cited statements are from memory;
the tests check that neither rejects a nonzero tuple, exhaustively on
small flags.

Intersection numbers come from one product of representatives, pruned as
it grows, and the antisymmetrizer formula for the top divided difference
(see intersection_number); no product is expanded in the basis, no
representative of a permutation outside S_n is built, and the last factor
goes straight into the signed sum.  The product runs on packed integers:
the representatives involve only x1..x_{a_r}, because each codimension
index ascends inside every block, so the last block's exponents stay
fixed and drop out.  The exponents of the other variables sit in fields
of one integer with a guard bit on top of each, wide enough that no
exponent sum carries, so a monomial product is an integer addition.  The
prune keeps a monomial while it lies below a rearrangement
of the staircase; in its Hall form, at most n - v exponents are v or more
for every threshold v, and each threshold is one addition, one mask and
one bit count.  Every representative is symmetric in the variables of
each block (the cohomology of G/P is the W_P-invariant part of that of
G/B; Bernstein, Gelfand and Gelfand 1973), so the product is carried as
orbit sums: one key per orbit under the symmetric groups of the carried
blocks of size 2 and 3, and the signed sum is averaged over that group.

Structure constants of a pair (structure_constants_pair) come from the
basis expansion: products of representatives expand uniquely in the basis
of all such polynomials, and expansion terms whose index moves a point
beyond the ambient n lie in the defining ideal of the cohomology ring and
are discarded.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from operator import lshift

from .flags import (
    FlagType,
    _dual,
    flag_table,
    is_minimal_rep,
)
from .perm import Perm, _integer, check_permutation, length, pad, perm_from_lehmer, trim
from .poly import Monomial, SparsePolynomial, _order_key

__all__ = [
    "schubert_polynomial",
    "expand_in_schubert_basis",
    "monk_expansion",
    "structure_constants_pair",
    "intersection_number",
]


def _width(n: int) -> int:
    """The field width of a packed monomial on C^n: room for exponents up
    to 2n - 1 below a guard bit on top."""
    return (2 * n - 1).bit_length() + 1


# packed representatives by (w, width), filled by _schubert_trimmed
_trimmed: dict[tuple[Perm, int], dict[int, int]] = {}


def _schubert_trimmed(w: Perm, width: int) -> dict[int, int]:
    """The terms of the representative of w, packed: the exponent of x_i
    sits in the field of bits (i-1)*width .. i*width - 1.

    The representative of the permutation of S_m without an ascent, the
    longest one, is the staircase x1^(m-1) * x2^(m-2) * ...  Any other w
    has a first ascent i, and its representative is the divided
    difference d_i of that of w with positions i and i+1 swapped, one
    inversion longer (_packed_divided_difference).  The chain of first
    ascents is walked with a loop, up to the first permutation already in
    the memo or to the longest one, and back down, memoizing every step:
    its length, up to m(m-1)/2, never becomes a recursion depth.
    """
    chain = []
    while (w, width) not in _trimmed:
        i = next((k for k in range(1, len(w)) if w[k - 1] < w[k]), 0)
        if not i:
            m = len(w)
            _trimmed[w, width] = {sum((m - 1 - j) << (j * width) for j in range(m)): 1}
            break
        chain.append((w, i))
        w = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
    terms = _trimmed[w, width]
    for w, i in reversed(chain):
        terms = _trimmed[w, width] = _packed_divided_difference(terms, i, width)
    return terms


def _packed_divided_difference(
    terms: dict[int, int], i: int, width: int
) -> dict[int, int]:
    """d_i of packed terms.  It sends x_i^a * x_(i+1)^b with a > b to the
    a - b monomials x_i^k * x_(i+1)^(a+b-1-k), k = b .. a-1: the first
    has b on x_i and a - 1 on x_(i+1), and each next one is
    step = 2^s_i - 2^s_(i+1) past the last, s_i the lowest bit of the
    field of x_i.  a < b gives minus the same run with a and b exchanged,
    and a = b nothing.  No exponent grows, so no field carries.  Terms
    that cancel are dropped."""
    low = (i - 1) * width
    high = low + width
    mask = (1 << width) - 1
    step = (1 << low) - (1 << high)
    out: dict[int, int] = {}
    get = out.get
    for mono, c in terms.items():
        a, b = mono >> low & mask, mono >> high & mask
        if a == b:
            continue
        key = mono - (a << low) - (b << high)
        if a < b:
            a, b, c = b, a, -c
        key += (b << low) + ((a - 1) << high)
        for _ in range(a - b):
            out[key] = get(key, 0) + c
            key += step
    return {mono: c for mono, c in out.items() if c}


def _unpack(mono: int, width: int) -> Monomial:
    """The exponent tuple of a packed monomial, trailing zeros trimmed."""
    mask = (1 << width) - 1
    out = []
    while mono:
        out.append(mono & mask)
        mono >>= width
    return tuple(out)


@lru_cache(maxsize=None)
def _schubert_polynomial(w: Perm) -> SparsePolynomial:
    """schubert_polynomial on a trimmed permutation, unpacked from
    _schubert_trimmed."""
    width = _width(len(w))
    terms = _schubert_trimmed(w, width)
    return SparsePolynomial._wrap({_unpack(mono, width): c for mono, c in terms.items()})


def schubert_polynomial(w: Perm) -> SparsePolynomial:
    """The polynomial representative of the codimension index w.

    The result is homogeneous of degree length(w), has nonnegative
    coefficients, and its leading term is the code of w with
    coefficient 1.  Stable under padding w with fixed points.

    >>> str(schubert_polynomial((3, 2, 1)))
    'x1^2*x2'
    >>> str(schubert_polynomial((1, 3, 2)))
    'x2 + x1'
    """
    return _schubert_polynomial(trim(check_permutation(w)))


def expand_in_schubert_basis(p: SparsePolynomial) -> dict[Perm, int]:
    """Write p as an integer combination of polynomial representatives.

    Keys are permutations trimmed of trailing fixed points.  Repeatedly
    strips the leading term, which must be the code of the next basis
    element; the leading monomial must strictly decrease or the term
    order is broken, which raises RuntimeError.

    >>> x1 = SparsePolynomial.variable(1)
    >>> expand_in_schubert_basis(x1 * x1)
    {(3, 1, 2): 1}
    """
    result: dict[Perm, int] = {}
    work = p
    prev: tuple[int, ...] | None = None
    while work:
        mono, coeff = work.leading_term()
        if prev is not None:
            width = max(len(prev), len(mono))
            if not _order_key(mono, width) < _order_key(prev, width):
                raise RuntimeError("leading terms failed to decrease during expansion")
        prev = mono
        v = perm_from_lehmer(mono)
        result[v] = coeff
        work = work - schubert_polynomial(v) * coeff
    return result


def monk_expansion(w: Perm, r: int) -> dict[Perm, int]:
    """Product of the representative of w with x1 + ... + xr, written in
    the basis by the transposition description: one term w * t(a, b) for
    every a <= r < b such that swapping positions a and b adds exactly
    one inversion.  An independent route to the same expansion as
    multiplying by the polynomial and expanding.

    >>> monk_expansion((2, 1, 3), 1)
    {(3, 1, 2): 1}
    """
    w, r = check_permutation(w), _integer(r, "the column index r")
    if r < 1:
        raise ValueError("the column index r must be at least 1")
    m = max(len(w), r) + 1
    base = pad(trim(w), m)
    ell = length(base)
    out: dict[Perm, int] = {}
    for a in range(1, r + 1):
        for b in range(r + 1, m + 1):
            cand = list(base)
            cand[a - 1], cand[b - 1] = cand[b - 1], cand[a - 1]
            cand_t = tuple(cand)
            if length(cand_t) == ell + 1:
                out[trim(cand_t)] = 1
    return out


def _discard_outside(expansion: dict[Perm, int], flag: FlagType) -> dict[Perm, int]:
    """Drop expansion terms that move a point beyond the ambient n; the
    survivors must all index classes of the flag manifold."""
    out: dict[Perm, int] = {}
    for v, c in expansion.items():
        if len(v) > flag.n:
            continue
        if not is_minimal_rep(pad(v, flag.n), flag):
            raise RuntimeError(
                f"expansion term {v!r} survived outside the class basis of {flag}"
            )
        out[v] = c
    return out


def structure_constants_pair(w: Perm, u: Perm, flag: FlagType) -> dict[Perm, int]:
    """All structure constants of the product of the classes indexed by w
    and u on the given flag manifold.  Keys are class indices (dimension
    convention, padded to the ambient n); values are the positive
    integer coefficients.

    >>> flag = FlagType((2,), 4)
    >>> result = structure_constants_pair((2, 4, 1, 3), (2, 4, 1, 3), flag)
    >>> sorted(result.items())
    [((1, 4, 2, 3), 1), ((2, 3, 1, 4), 1)]
    """
    table = flag_table(flag)
    first, second = table.entry(w), table.entry(u)
    product = schubert_polynomial(first.dual) * schubert_polynomial(second.dual)
    expansion = _discard_outside(expand_in_schubert_basis(product), flag)
    return {_dual(pad(v, flag.n), flag): c for v, c in expansion.items()}


def _sign(mono: Monomial) -> int:
    """(-1) to the number of pairs i < j with mono[i] < mono[j]: the sign
    of the permutation that sorts a rearrangement of the staircase back
    into decreasing order."""
    ascents = sum(1 for j, e in enumerate(mono) for d in mono[:j] if d < e)
    return -1 if ascents % 2 else 1


class _Memo(dict):
    """A dict that computes a missing value from its key on the first
    lookup and keeps it."""

    def __init__(self, compute) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class _Layout:
    """The packed layout of intersection_number on one flag type, with
    the memos that depend on it.

    A monomial in x1..x_k, k = a_r, is the integer with the exponent of
    x_i in the field of bits (i-1)*width .. i*width - 1 (``shifts`` holds
    the lowest bit of each field, ``mask`` a field's bits).  The top bit
    of each field, top = 2^(width-1) >= 2n, is its guard bit (``guard``
    holds them all).  There is one threshold (K_v, n - v) for each v from
    n down to b+1, b the size of the last block, where K_v holds top - v
    in every field; the large v come first because they cut the most
    monomials.  ``over_n`` is K_n, which also catches an exponent of n or
    more in a representative.

    The product is carried as orbit sums under S', the product of the
    symmetric groups of the carried blocks of size 2 and 3 (the
    symmetrized blocks).  ``exchanges`` holds one compare-exchange
    (lo, hi, 2^lo - 2^hi) per step of a sorting network of each such
    block, lo and hi the lowest bits of two of its fields: adding d times
    the step moves d from field hi to field lo, so the block's exponents
    end in decreasing order.  ``start`` is the packed block staircase
    delta_P on the other carried blocks alone, and ``twisted`` holds, for
    every tau in S', the packed tau * delta_P on the symmetrized blocks
    with the sign of tau; ``order`` is |S'|.  A complete flag has no
    symmetrized block: S' is trivial, and ``twisted`` holds 0 with sign 1.

    Five memos start empty and compute an entry on its first lookup, so a
    later one is a plain dict subscript.  ``records`` maps a class index
    to its record, described below.  ``reps`` maps a class index to
    the terms (packed monomial, coefficient) of the representative of its
    dual, packed by _schubert_trimmed at this width and checked once.
    ``keys`` maps a monomial to None when it fails a threshold, and
    otherwise to the monomial with each symmetrized block sorted, the key
    of its orbit.  ``signs`` maps a packed full-degree monomial of
    x^delta_P * p to its antisymmetrizer sign, 0 unless it rearranges the
    staircase.  ``weights`` maps a full-degree monomial m of the carried
    product to the sum over ``twisted`` of sgn(tau) * signs[m + tau * delta].

    The record of a class w is (w, codim, degree, upper, lower), built
    once per class by _record from its table entry, which checks w the
    first time any route meets it (FlagTable.entry).  ``records`` is keyed
    by w as the table holds it, a tuple of plain ints: its callers pass
    classes read from table entries (FlagTable.class_tuple), never the
    caller's object.
    The fundamental class, the unit, is the one class of codimension 0.

    ``degree`` packs the projected degree bound (_exceeds_degree): pc_i(w),
    the codimension of its projection to Gr(a_i, n), in field i of
    ``degree_width`` = dim.bit_length() + 1 bits (``degree_fields`` holds
    the lowest bit of each field, and ``degree_base`` the part of pc_i that
    w does not change).  ``degree_cap`` holds a_i(n - a_i) in field i with
    the field's top bit, its guard bit, set (``degree_guard`` holds them
    all).  pc_i(w) is at most the codimension of w, so over a tuple of
    classes whose codimensions sum to dim no field sum exceeds dim, and the
    cap minus the sum clears a guard bit exactly when some step's sum
    exceeds a_i(n - a_i), without a borrow between fields.  The unit's
    degree is 0.

    ``upper`` and ``lower`` pack the pairwise vanishing test (_vanishes):
    the entries of sorted(w[:a]) for every step a, one field of ``width``
    bits each (``bruhat_fields`` holds their lowest bits), with every
    field's guard bit set (``bruhat_guard`` holds them all), and the same
    entries of dual(w) without the guard bits (``bruhat_top`` holds n + 1
    in every field).  Entries are at most n < top, so subtracting the
    lower of v from the upper of w clears a guard bit exactly when some
    entry of dual(v) exceeds that of w.
    """

    def __init__(self, flag: FlagType) -> None:
        n = flag.n
        self.flag = flag
        self.table = flag_table(flag)
        self.k = k = n - flag.block_sizes[-1]
        self.width = width = _width(n)
        top = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.shifts = fields = range(0, k * width, width)
        self.guard = sum(top << f for f in fields)
        self.thresholds = tuple(
            (sum((top - v) << f for f in fields), n - v) for v in range(n, n - k, -1)
        )
        self.over_n = sum((top - n) << f for f in fields)
        exchanges, start, twisted = [], 0, [(0, 1)]
        for lo, b in zip(flag.bounds, flag.block_sizes[:-1]):
            block = fields[lo : lo + b]
            staircase = range(b - 1, -1, -1)
            if b in (2, 3):
                network = ((0, 1),) if b == 2 else ((0, 1), (1, 2), (0, 1))
                exchanges += [
                    (block[i], block[j], (1 << block[i]) - (1 << block[j])) for i, j in network
                ]
                twisted = [
                    (t + sum(map(lshift, tau, block)), sign * _sign(tau))
                    for t, sign in twisted
                    for tau in permutations(staircase)
                ]
            else:
                start += sum(map(lshift, staircase, block))
        self.exchanges = tuple(exchanges)
        self.start = start
        self.twisted = tuple(twisted)
        self.order = len(twisted)
        self.degree_width = dim_width = flag.dimension.bit_length() + 1
        dim_top, dim_fields = 1 << (dim_width - 1), range(0, flag.r * dim_width, dim_width)
        self.degree_guard = sum(dim_top << f for f in dim_fields)
        self.degree_cap = self.degree_guard + sum(
            (a * (n - a)) << f for a, f in zip(flag.steps, dim_fields)
        )
        self.degree_fields = dim_fields
        # a_i(n - a_i) + a_i(a_i + 1)/2 in field i, the first two terms of pc_i
        self.degree_base = sum(
            (a * (n - a) + a * (a + 1) // 2) << f for a, f in zip(flag.steps, dim_fields)
        )
        self.bruhat_fields = fields = range(0, sum(flag.steps) * width, width)
        self.bruhat_guard = sum(top << f for f in fields)
        self.bruhat_top = sum((n + 1) << f for f in fields)
        self.records = _Memo(self._record)
        self.reps = _Memo(self._pack)
        self.keys = _Memo(self._key)
        self.signs = _Memo(self._sign_of)
        self.weights = _Memo(self._weight)

    def _pack(self, w: Perm) -> tuple[tuple[int, int], ...]:
        """The packed representative of dual(w), read from _schubert_trimmed
        at the layout's width; RuntimeError if a term involves a variable
        past x_k (a bit at or above k * width) or has an exponent of n or
        more (a guard bit set in the term, or in the term plus top - n in
        every field)."""
        flag, k, width, guard, over_n = self.flag, self.k, self.width, self.guard, self.over_n
        terms = _schubert_trimmed(trim(_dual(w, flag)), width)
        for mono in terms:
            if mono >> (k * width) or (mono | mono + over_n) & guard:
                raise RuntimeError(
                    f"representative term {_unpack(mono, width)!r} for {w!r} on "
                    f"{flag} is not in x1..x{k} with exponents below {flag.n}"
                )
        return tuple(terms.items())

    def _record(self, w: Perm) -> tuple[Perm, int, int, int, int]:
        """(w, codim, degree, upper, lower) of the class indexed by w,
        read from its table entry, which validates w once (ValueError
        unless w indexes a class).

        One sort of the prefix w(1..a) at each step a gives the rest.
        * Its sum gives pc_i(w) = a_i(n - a_i) + a_i(a_i + 1)/2 -
          (w(1) + ... + w(a_i)): the pairs p <= a_i < q with w(p) > w(q)
          number w(1) + ... + w(a_i) - a_i(a_i + 1)/2, and pc_i counts the
          other pairs across the step.
        * Its entries, in order, are the fields of upper.
        * The fields of lower follow with no lookup of dual(w): the block
          reversal w_P fixes every step, so dual(w)(1..a) =
          n + 1 - w(w_P(1..a)) takes the values n + 1 - x over the x of the
          prefix, and sorted, they are n + 1 minus its sorted entries in
          reverse order.
        """
        entry = self.table.entry(w)
        w = entry.w
        entries, duals, sums = [], [], []
        for a in self.flag.steps:
            prefix = sorted(w[:a])
            entries += prefix
            duals += prefix[::-1]
            sums.append(sum(prefix))
        fields = self.bruhat_fields
        return (
            w,
            entry.codim,
            self.degree_base - sum(map(lshift, sums, self.degree_fields)),
            self.bruhat_guard + sum(map(lshift, entries, fields)),
            self.bruhat_top - sum(map(lshift, duals, fields)),
        )

    def _passes(self, m: int) -> bool:
        """Whether m lies below a rearrangement of the staircase: at most
        n - v exponents are v or more, for every threshold v."""
        guard = self.guard
        return all(((m + K) & guard).bit_count() <= cap for K, cap in self.thresholds)

    def _key(self, m: int) -> int | None:
        """None if m fails a threshold, else m with each symmetrized block
        sorted into decreasing order by the compare-exchanges."""
        if not self._passes(m):
            return None
        mask = self.mask
        for lo, hi, step in self.exchanges:
            d = (m >> hi & mask) - (m >> lo & mask)
            if d > 0:
                m += d * step
        return m

    def _sign_of(self, m: int) -> int:
        """The sign of m read by the thresholds first, then by _sign."""
        if self._passes(m):
            return _sign(tuple((m >> f) & self.mask for f in self.shifts))
        return 0

    def _weight(self, m: int) -> int:
        """0 at once when m has an exponent of n or more, tested before
        any addition, so no field ever carries: every m + tau * delta then
        has it too, and rearranges no staircase.  Otherwise the signed sum
        of the signs of m + tau * delta over S'."""
        if (m + self.over_n) & self.guard:
            return 0
        signs = self.signs
        return sum(sign * signs[m + t] for t, sign in self.twisted)


@lru_cache(maxsize=None)
def _layout(flag: FlagType) -> _Layout:
    """The flag type's packed layout and its memos, built once."""
    return _Layout(flag)


def intersection_number(classes: tuple[Perm, ...], flag: FlagType) -> int:
    """Coefficient of the point class in the product of the given classes.

    The codimensions must sum to the dimension of the manifold (raises
    ValueError otherwise), so the result is the number of points of a
    generic intersection of the corresponding varieties, counted with
    multiplicity.

    No product is expanded in the Schubert basis.  Write u_i = dual(w_i)
    for the codimension indices, p for the product of their
    representatives, n for the ambient size, w0 for the longest element
    of S_n and w_P for the longest element that fixes every block.

    * Each u_i ascends inside every block, so its representative, and
      with it p, is symmetric in the variables of each block.  With
      delta_P the block staircase, (b-1, ..., 1, 0) on each block of
      size b, the divided difference of w_P therefore sends
      x^delta_P * p to p.
    * The divided difference of w0 is that of w0 w_P after that of w_P,
      and the divided difference of w0 w_P takes p, of degree
      length(w0 w_P), to its coefficient on the representative of
      w0 w_P.  That coefficient is the point coefficient: every
      representative of a permutation outside S_n lies in the ideal that
      defines the cohomology ring, and the classes of S_n that survive
      are those of the flag manifold.
    * On a polynomial of degree n(n-1)/2, the divided difference of w0 is
      the antisymmetrizer, the sum of sgn(w) w over S_n, divided by the
      Vandermonde product of (x_i - x_j), i < j.  A monomial x^a
      antisymmetrizes to zero unless its exponents are distinct, and at
      this degree that means a rearranges delta = (n-1, ..., 1, 0); then
      it gives sgn(a) times the Vandermonde, where sgn(a) is -1 to the
      number of pairs i < j with a_i < a_j.

    So the answer is the sum of sgn(a) coeff(a) over the rearrangements a
    of delta in the product x^delta_P * p.

    * Only x1..x_k, k = a_r, are carried.  A u_i that ascends inside
      every block has its last descent at most a_r, so p does not involve
      the last block's b variables, and x^delta_P fixes their exponents
      at (b-1, ..., 1, 0).  Those exponents rearrange 0..b-1 of delta and
      exceed none of the others, so they add no ascent to the sign, and a
      is a rearrangement of delta exactly when its first k exponents
      rearrange (n-1, ..., b).
    * Each monomial in x1..x_k is packed into one integer (_Layout),
      so multiplying two monomials is adding two integers.  A field of
      `width` bits holds exponents up to 2^(width-1) - 1 >= 2n - 1 below
      its guard bit: a kept monomial and a factor term each have
      exponents at most n - 1, so their sum, at most 2(n-1), never
      carries into the next field.  The representatives are built packed
      at this width, by divided differences on packed terms
      (_schubert_trimmed), and never exist as exponent tuples.  A factor
      term in a variable past x_k, or with an exponent of n or more,
      does not fit the layout and raises RuntimeError.  Each class's
      packed representative is read and checked once per flag type
      (_Layout.reps).
    * The product is carried as orbit sums under S', the product of
      the symmetric groups of the carried blocks of size 2 and 3 (the
      symmetrized blocks).  It starts from x^delta_P on the other
      blocks alone, which S' fixes, so with p it stays symmetric under
      S', and it keeps one key per orbit, the monomial with each
      symmetrized block sorted (_Layout.keys), holding the sum of the
      coefficients over the orbit.  This is exact.  Only orbit sums of
      the carried product matter: multiplying by a symmetric factor
      sends the orbit sum at a key a, times a factor term b, to the
      orbit of a + b, the same for every member of a's orbit.  The
      thresholds count exponents, so they pass or fail a whole orbit.
      And the signed sum is S'-invariant up to sgn: swapping exponents
      inside a block flips the sign of a rearrangement, so the sum over
      x^delta_S * q, delta_S the staircase on the symmetrized blocks
      and q the carried product, equals its average over tau in S' of
      sgn(tau) times the sum over x^(tau delta_S) * q.  Summed over an
      orbit, that average gives each full-degree monomial m of q the
      weight sum over tau of sgn(tau) sgn(m + tau delta_S)
      (_Layout.weights), which is S'-invariant, and the total is
      divided by |S'|.  A remainder breaks an invariant and raises
      RuntimeError.  A complete flag has S' = 1 and runs the same code.
      Blocks of size 4 or more are not symmetrized: a weight would read
      b! signs.
    * The product of all but the last factor is built one factor at a
      time, and after each factor every orbit whose monomials no longer
      lie below a rearrangement of (n-1, ..., b) is dropped: later
      factors and the twist tau delta_S only raise exponents.  Sorted
      ascending, the j-th exponent (from 0) must be at most b+j; in Hall
      form, for every v in b+1 .. n at most n - v exponents are v or
      more.  Adding K_v, top - v in every field, sets a field's guard
      bit exactly when its exponent is at least v, and with exponents
      at most 2(n-1) and top >= 2n the sum stays in the field, so each
      threshold is one addition, one mask and one bit count.  The keys
      memo applies them once per monomial met, before sorting.
    * The last factor is never multiplied out.  Each pair a + b of a
      kept key and a last-factor term has full degree and adds
      weight(a + b) * c * d.  The weight is 0 at once when an exponent
      is n or more, tested before any addition, so no field carries;
      otherwise it reads the signs of a + b + tau delta_S, from a
      per-flag memo (_Layout.signs) filled on each first lookup, by the
      thresholds and then _sign, with 0 off the rearrangements.  Both
      memos hold only the monomials met, never a table of all the
      rearrangements.  This is the same antisymmetrizer sum, reordered:
      no duality is used, so the oracle stays independent of the LR
      route.

    Structure constants are nonnegative, so a negative sum raises
    RuntimeError, as does one that |S'| does not divide.

    Before any of this, each class is read from its table entry, which
    checks the class the first time any route meets it, and the
    codimensions are summed from the entries.  The fundamental class, the
    one class of codimension 0 and the unit of the ring, is dropped, and
    two tests run in this order, the cheaper first, each reading the
    class's record (_Layout.records), built once per class; either
    answers 0 with no representative built.
    * The projected degree bound (_exceeds_degree): the projected
      codimensions of the classes sum to at most a_i(n - a_i) at every
      step a_i, else the product is zero (the projected Schubert
      varieties of Gr(a_i, n) would meet in negative dimension; Kleiman,
      Compositio Math. 1974).  One addition per class.
    * The pairwise test (_vanishes): the product of w and v is zero
      unless dual(v) <= w in Bruhat order, the nonemptiness of their
      Richardson variety (Richardson 1992; Brion, Lectures on the
      geometry of flag varieties).  One subtraction per pair.
    Both decide only zeros: a tuple that passes both, zero or not, is
    decided by the polynomial product above.

    >>> flag = FlagType((1, 2), 3)
    >>> intersection_number(((3, 1, 2), (3, 1, 2), (2, 3, 1)), flag)
    1
    >>> intersection_number(((1, 3, 2), (2, 3, 1)), flag)
    0
    """
    # ValueError unless a flag type, a sequence of class indices and a
    # codimension sum equal to the dimension; each class is read once
    entries = flag_table(flag).class_tuple(classes)
    classes = tuple([entry.w for entry in entries if entry.codim])
    if _exceeds_degree(classes, flag) or _vanishes(classes, flag):
        return 0
    return _intersection_number(classes, flag)


def _exceeds_degree(classes: tuple[Perm, ...], flag: FlagType) -> bool:
    """Whether the projected codimensions of the checked classes sum past
    dim Gr(a_i, n) = a_i(n - a_i) at some step a_i, which proves their
    product zero.

    Generic translates of the Schubert varieties that meet project to
    generic translates of the projected Schubert varieties of Gr(a_i, n),
    which then meet too; by Kleiman's transversality (Kleiman, The
    transversality of a general translate, Compositio Math. 1974) these
    meet in dimension a_i(n - a_i) minus the sum of their codimensions,
    so a nonzero product needs that sum at most a_i(n - a_i) at every
    step.  A tuple costs one addition per class and one mask of the
    packed degrees (_Layout.records).  False says nothing: the product
    may still vanish.
    """
    layout = _layout(flag)
    records, guard = layout.records, layout.degree_guard
    return (layout.degree_cap - sum([records[w][2] for w in classes])) & guard != guard


def _vanishes(classes: tuple[Perm, ...], flag: FlagType) -> bool:
    """Whether some pair of the checked classes proves their product zero:
    w_i, w_j with dual(w_j) not below w_i in Bruhat order.

    On minimal coset representatives, v <= w exactly when, at every step
    a, sorted(v[:a]) <= sorted(w[:a]) entry by entry (the tableau
    criterion; Bjorner and Brenti, Combinatorics of Coxeter Groups,
    section 2.6).  Each unordered pair is tested one way only, each class
    against the duals of the classes before it: dual reverses the order,
    so dual(w_j) <= w_i exactly when dual(w_i) <= w_j.  A pair costs one
    subtraction and one mask of the packed prefixes (_Layout.records).
    False says nothing: the product may still vanish.
    """
    layout = _layout(flag)
    records, guard = layout.records, layout.bruhat_guard
    lowers: list[int] = []
    for w in classes:
        _, _, _, upper, lower = records[w]
        for earlier in lowers:
            if (upper - earlier) & guard != guard:
                return True
        lowers.append(lower)
    return False


def _intersection_number(classes: tuple[Perm, ...], flag: FlagType) -> int:
    """intersection_number with the classes unchecked and no pairwise
    test: the packed product for a tuple of valid class indices, as plain
    tuples of ints, whose codimensions sum to the dimension of the
    manifold.  For callers whose classes come from a table walk or from
    checked table entries; anything else goes through
    intersection_number, which checks first.
    """
    if not classes:
        return 1  # a flag type without steps: the manifold is a point
    *head, last = classes
    layout = _layout(flag)
    reps, keys = layout.reps, layout.keys
    terms: dict[int | None, int] = {layout.start: 1}
    for w in head:
        factor = reps[w]
        acc: dict[int | None, int] = {}
        get = acc.get
        for a, c in terms.items():
            for b, d in factor:
                key = keys[a + b]
                acc[key] = get(key, 0) + c * d
        acc.pop(None, None)  # the orbits that failed a threshold
        terms = acc
    weights = layout.weights
    factor = reps[last]
    total = 0
    for a, c in terms.items():
        for b, d in factor:
            weight = weights[a + b]
            if weight:
                total += weight * c * d
    total, rest = divmod(total, layout.order)
    if rest:
        raise RuntimeError(
            f"signed sum for {classes!r} on {flag} is not a multiple of {layout.order}"
        )
    if total < 0:
        raise RuntimeError(f"negative intersection number {total} for {classes!r} on {flag}")
    return total
