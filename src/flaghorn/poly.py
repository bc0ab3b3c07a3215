"""Sparse integer polynomials in the variables x1, x2, x3, ...

A polynomial is a dict from exponent tuples (trailing zeros trimmed) to
nonzero integer coefficients, so (2, 1) -> 3 stands for 3*x1^2*x2.  All
arithmetic is exact over the integers.

The term order used by leading_term compares exponent vectors from the
rightmost position: the monomial with the larger exponent at the last
differing position wins.  Under this order the leading monomial of a
Schubert polynomial is the code of its permutation, which is what the
basis-expansion algorithm in the oracle module relies on.
"""

from __future__ import annotations

from collections.abc import Mapping

from .perm import _integer

Monomial = tuple[int, ...]

__all__ = ["Monomial", "SparsePolynomial", "divided_difference"]


def _trim(exponents: tuple[int, ...]) -> Monomial:
    m = len(exponents)
    while m > 0 and exponents[m - 1] == 0:
        m -= 1
    return tuple(exponents[:m])


def _order_key(mono: Monomial, width: int) -> tuple[int, ...]:
    return tuple(reversed(mono + (0,) * (width - len(mono))))


class SparsePolynomial:
    """Immutable-by-convention sparse polynomial.

    >>> p = SparsePolynomial.variable(1) + SparsePolynomial.variable(2)
    >>> str(p * p)
    'x2^2 + 2*x1*x2 + x1^2'
    >>> (p - p).is_zero()
    True
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono!r}")
                if coeff:
                    key = _trim(tuple(mono))
                    clean[key] = clean.get(key, 0) + coeff
                    if not clean[key]:
                        del clean[key]
        self.terms = clean

    @classmethod
    def _wrap(cls, terms: dict[Monomial, int]) -> "SparsePolynomial":
        """A polynomial on terms already trimmed and nonzero, unchecked."""
        result = cls.__new__(cls)
        result.terms = terms
        return result

    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls()

    @classmethod
    def one(cls) -> "SparsePolynomial":
        return cls({(): 1})

    @classmethod
    def constant(cls, c: int) -> "SparsePolynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, i: int) -> "SparsePolynomial":
        """The variable x_i (1-based)."""
        i = _integer(i, "the variable index")
        if i < 1:
            raise ValueError("variables are numbered from 1")
        return cls({(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exponents: tuple[int, ...], coeff: int = 1) -> "SparsePolynomial":
        return cls({tuple(exponents): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = SparsePolynomial.constant(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def coefficient(self, mono: tuple[int, ...]) -> int:
        return self.terms.get(_trim(tuple(mono)), 0)

    def total_degree(self) -> int:
        """Largest total degree among the terms (0 for the zero polynomial)."""
        return max((sum(m) for m in self.terms), default=0)

    def __add__(self, other: "SparsePolynomial | int") -> "SparsePolynomial":
        if isinstance(other, int):
            other = SparsePolynomial.constant(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
            if not out[mono]:
                del out[mono]
        return SparsePolynomial._wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SparsePolynomial | int") -> "SparsePolynomial":
        if isinstance(other, int):
            other = SparsePolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "SparsePolynomial":
        return SparsePolynomial.constant(other) - self

    def __mul__(self, other: "SparsePolynomial | int") -> "SparsePolynomial":
        if isinstance(other, int):
            return SparsePolynomial._wrap(
                {m: c * other for m, c in self.terms.items()} if other else {}
            )
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if len(m1) < len(m2):
                    m1_, m2_ = m2, m1
                else:
                    m1_, m2_ = m1, m2
                mono = tuple(
                    e + (m2_[i] if i < len(m2_) else 0) for i, e in enumerate(m1_)
                )
                out[mono] = out.get(mono, 0) + c1 * c2
                if not out[mono]:
                    del out[mono]
        return SparsePolynomial._wrap(out)

    __rmul__ = __mul__

    def swap_variables(self, i: int, j: int) -> "SparsePolynomial":
        """Exchange x_i and x_j (1-based) in every term."""
        i, j = _integer(i, "the variable index"), _integer(j, "the variable index")
        if i < 1 or j < 1:
            raise ValueError("variables are numbered from 1")
        if i == j:
            return self
        width = max(i, j)
        out: dict[Monomial, int] = {}
        for mono, coeff in self.terms.items():
            e = list(mono) + [0] * (width - len(mono))
            e[i - 1], e[j - 1] = e[j - 1], e[i - 1]
            out[_trim(tuple(e))] = coeff
        return SparsePolynomial._wrap(out)

    def leading_term(self) -> tuple[Monomial, int]:
        """The maximal term under the rightmost-position order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        width = max(len(m) for m in self.terms)
        mono = max(self.terms, key=lambda m: _order_key(m, width))
        return mono, self.terms[mono]

    def _sorted_terms(self) -> list[tuple[Monomial, int]]:
        width = max((len(m) for m in self.terms), default=0)
        return sorted(
            self.terms.items(), key=lambda mc: _order_key(mc[0], width), reverse=True
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            factors = [
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(mono, start=1)
                if e
            ]
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, text))
        first_sign, first_text = parts[0]
        out = ("-" if first_sign == "-" else "") + first_text
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self) -> str:
        return f"SparsePolynomial({self})"


def divided_difference(p: SparsePolynomial, i: int) -> SparsePolynomial:
    """The i-th divided difference (p - p with x_i, x_{i+1} swapped) /
    (x_i - x_{i+1}), applied to each term by its closed form.

    A monomial with exponent a on x_i and b on x_{i+1} maps to
    sum_{k=b}^{a-1} x_i^k * x_{i+1}^(a+b-1-k) when a > b, to minus the
    same sum with a and b exchanged when a < b, and to 0 when a = b; the
    other variables are unchanged.  Terms that cancel are dropped.

    >>> x1 = SparsePolynomial.variable(1)
    >>> x2 = SparsePolynomial.variable(2)
    >>> str(divided_difference(x1 * x1 * x2, 2))
    'x1^2'
    >>> str(divided_difference(x1 * x1, 1))
    'x2 + x1'
    """
    i = _integer(i, "the divided difference index")
    if i < 1:
        raise ValueError("divided difference index must be at least 1")
    out: dict[Monomial, int] = {}
    for mono, coeff in p.terms.items():
        a = mono[i - 1] if len(mono) >= i else 0
        b = mono[i] if len(mono) > i else 0
        if a == b:
            continue
        if a < b:
            a, b, coeff = b, a, -coeff
        # a > b >= 0, so len(mono) >= i and head has exactly i - 1 entries;
        # only a key ending in the new x_{i+1} exponent can end in zero
        head, tail = mono[: i - 1], mono[i + 1 :]
        for k in range(b, a):
            key = head + (k, a + b - 1 - k) + tail
            if not key[-1]:
                key = _trim(key)
            out[key] = out.get(key, 0) + coeff
    return SparsePolynomial._wrap({m: c for m, c in out.items() if c})
