"""Ground-truth Schubert class products via polynomial representatives.

Everything else in the package indexes a Schubert class by the
permutation w whose variety has dimension length(w).  Polynomial
representatives instead index by codimension, so this module translates
at its boundary: a class enters as w, is handled internally as the
Poincare dual index dual(w), and expansion output is translated back the
same way.  This is the only place the two conventions meet.

The representative of the codimension index v is the classic polynomial
obtained from the staircase monomial x1^(m-1) * x2^(m-2) * ... of the
longest permutation by divided differences.  Products of representatives
expand uniquely in the basis of all such polynomials; expansion terms
whose index moves a point beyond the ambient n lie in the defining ideal
of the cohomology ring and are discarded after each pairwise product.
"""

from __future__ import annotations

from functools import lru_cache

from .flags import (
    FlagType,
    check_class_tuple,
    check_minimal_rep,
    dual,
    is_minimal_rep,
    parabolic_longest,
)
from .perm import Perm, compose, length, longest_element, pad, perm_from_lehmer, trim
from .poly import SparsePolynomial, _order_key, divided_difference

__all__ = [
    "schubert_polynomial",
    "expand_in_schubert_basis",
    "monk_expansion",
    "structure_constants_pair",
    "intersection_number",
]


@lru_cache(maxsize=None)
def _schubert_trimmed(w: Perm) -> SparsePolynomial:
    m = len(w)
    if m <= 1:
        return SparsePolynomial.one()
    if length(w) == m * (m - 1) // 2:
        return SparsePolynomial.monomial(tuple(range(m - 1, 0, -1)))
    i = next(k for k in range(1, m) if w[k - 1] < w[k])
    longer = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
    return divided_difference(_schubert_trimmed(longer), i)


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
    return _schubert_trimmed(trim(w))


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


def _assemble(expansion: dict[Perm, int]) -> SparsePolynomial:
    total = SparsePolynomial.zero()
    for v, c in expansion.items():
        total = total + schubert_polynomial(v) * c
    return total


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
    w = check_minimal_rep(w, flag)
    u = check_minimal_rep(u, flag)
    product = schubert_polynomial(dual(w, flag)) * schubert_polynomial(dual(u, flag))
    expansion = _discard_outside(expand_in_schubert_basis(product), flag)
    return {dual(pad(v, flag.n), flag): c for v, c in expansion.items()}


def intersection_number(classes: tuple[Perm, ...], flag: FlagType) -> int:
    """Coefficient of the point class in the product of the given classes.

    The codimensions must sum to the dimension of the manifold (raises
    ValueError otherwise), so the result is the number of points of a
    generic intersection of the corresponding varieties, counted with
    multiplicity.

    >>> flag = FlagType((1, 2), 3)
    >>> intersection_number(((3, 1, 2), (3, 1, 2), (2, 3, 1)), flag)
    1
    """
    classes = check_class_tuple(classes, flag)
    expansion: dict[Perm, int] = {(): 1}
    for w in classes:
        product = _assemble(expansion) * schubert_polynomial(dual(w, flag))
        expansion = _discard_outside(expand_in_schubert_basis(product), flag)
    point = trim(compose(longest_element(flag.n), parabolic_longest(flag)))
    return expansion.get(point, 0)
