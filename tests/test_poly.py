"""Exact sparse polynomial arithmetic over the integers."""

import random
from itertools import permutations

import pytest

from flaghorn.oracle import schubert_polynomial
from flaghorn.poly import SparsePolynomial, divided_difference

x1 = SparsePolynomial.variable(1)
x2 = SparsePolynomial.variable(2)
x3 = SparsePolynomial.variable(3)


def test_constructor_normalizes():
    assert SparsePolynomial({(1, 0): 2}) == SparsePolynomial({(1,): 2})
    assert SparsePolynomial({(1,): 0}).is_zero()
    assert SparsePolynomial({(): 5}) == 5
    assert SparsePolynomial() == 0


def test_classmethods():
    assert SparsePolynomial.zero().is_zero()
    assert SparsePolynomial.one() == 1
    assert SparsePolynomial.constant(-3) == -3
    assert SparsePolynomial.constant(0).is_zero()
    assert SparsePolynomial.variable(2) == SparsePolynomial.monomial((0, 1))
    assert SparsePolynomial.monomial((2, 1), 4).coefficient((2, 1)) == 4
    with pytest.raises(ValueError):
        SparsePolynomial.variable(0)
    with pytest.raises(ValueError, match="the variable index must be an integer"):
        SparsePolynomial.variable(1.0)


def test_equality_and_bool():
    assert x1 + x2 == x2 + x1
    assert x1 != x2
    assert bool(x1)
    assert not bool(x1 - x1)
    assert x1 - x1 == 0
    assert (x1 * 0) == 0


def test_ring_arithmetic():
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (x1 + 1) * (x1 - 1) == x1 * x1 - 1
    assert 2 * x1 == x1 + x1
    assert x1 * 3 - x1 == 2 * x1
    assert 1 - x1 == -(x1 - 1)
    square = (x1 + x2) * (x1 + x2)
    assert square.coefficient((1, 1)) == 2
    assert square.coefficient((2,)) == 1
    assert square.coefficient((0, 2)) == 1
    assert square.coefficient((3,)) == 0


def test_distributivity_and_associativity():
    a, b, c = x1 + 2, x2 * x2 - x3, x1 * x3 + 1
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_total_degree():
    assert (x1 * x2 * x2 + x3).total_degree() == 3
    assert SparsePolynomial.one().total_degree() == 0
    assert SparsePolynomial.zero().total_degree() == 0


def test_swap_variables():
    p = x1 * x1 * x2 + x3
    assert p.swap_variables(1, 2) == x2 * x2 * x1 + x3
    assert p.swap_variables(2, 3) == x1 * x1 * x3 + x2
    assert p.swap_variables(1, 2).swap_variables(1, 2) == p
    for bad in (1.0, "a"):
        with pytest.raises(ValueError, match="the variable index must be an integer"):
            p.swap_variables(bad, 2)


def test_leading_term_uses_rightmost_position_order():
    # ties at the rightmost differing exponent go to the larger entry there
    p = SparsePolynomial({(3,): 1, (1, 1): 2})
    assert p.leading_term() == ((1, 1), 2)
    q = SparsePolynomial({(0, 2): 1, (2, 1): 5})
    assert q.leading_term() == ((0, 2), 1)
    with pytest.raises(ValueError):
        SparsePolynomial.zero().leading_term()


def test_str_rendering():
    assert str(SparsePolynomial.zero()) == "0"
    assert str(x1 * x1 - 2 * x1 * x2) == "-2*x1*x2 + x1^2"
    assert str(SparsePolynomial.constant(7)) == "7"


def test_divided_difference_known_values():
    assert divided_difference(x1, 1) == 1
    assert divided_difference(x1 * x1, 1) == x1 + x2
    assert divided_difference(x1 * x2, 2) == x1
    assert divided_difference(SparsePolynomial.constant(9), 1).is_zero()


def test_divided_difference_kills_symmetric():
    symmetric = x1 * x2 + x1 + x2
    assert divided_difference(symmetric, 1).is_zero()
    assert divided_difference(x1 + x2 + x3, 2).is_zero()


def test_divided_difference_squares_to_zero():
    for p in (x1 * x1 * x2, (x1 + 2 * x3) * (x2 + x3), x1 * x1 * x1):
        for i in (1, 2):
            once = divided_difference(p, i)
            assert divided_difference(once, i).is_zero()


def test_divided_difference_braid_relation():
    for p in (x1 * x1 * x2 * x3, (x1 + x2) * (x1 + x3) * x1, x1 * x1 * x1 * x2):
        left = divided_difference(divided_difference(divided_difference(p, 1), 2), 1)
        right = divided_difference(divided_difference(divided_difference(p, 2), 1), 2)
        assert left == right


def test_divided_difference_factors_symmetric_multiplier():
    # for f symmetric in the swapped pair, the operator is f-linear
    f = x1 * x2 + 5
    p = x1 * x1
    assert divided_difference(f * p, 1) == f * divided_difference(p, 1)


def test_divided_difference_rejects_index_below_one():
    with pytest.raises(ValueError):
        divided_difference(x1, 0)


def test_divided_difference_times_the_root_is_the_antisymmetric_numerator():
    # the exact division the closed form stands for, checked with the
    # separate product, subtraction and swap arithmetic
    rng = random.Random(20240607)
    for _ in range(400):
        width = rng.randint(1, 4)
        terms = {
            tuple(rng.randint(0, 4) for _ in range(width)): rng.randint(-6, 6)
            for _ in range(rng.randint(0, 6))
        }
        p = SparsePolynomial(terms)
        for i in range(1, 5):
            root = SparsePolynomial.variable(i) - SparsePolynomial.variable(i + 1)
            assert root * divided_difference(p, i) == p - p.swap_variables(i, i + 1)


def _closed_form_through_the_constructor(p, i):
    # each term's closed-form sum on untrimmed keys, normalized by the
    # validating public constructor
    out = {}
    for mono, coeff in p.terms.items():
        e = list(mono) + [0] * (i + 1 - len(mono))
        a, b = e[i - 1], e[i]
        if a < b:
            a, b, coeff = b, a, -coeff
        for k in range(b, a):
            e[i - 1], e[i] = k, a + b - 1 - k
            key = tuple(e)
            out[key] = out.get(key, 0) + coeff
    return SparsePolynomial(out)


@pytest.mark.parametrize("n", range(1, 8))
def test_divided_difference_builds_normalized_terms(n):
    # divided_difference skips the constructor, so its keys must come out
    # trimmed and its coefficients nonzero on their own
    for w in permutations(range(1, n + 1)):
        p = schubert_polynomial(w)
        for i in range(1, n + 1):
            got = divided_difference(p, i)
            assert got.terms == _closed_form_through_the_constructor(p, i).terms
            assert all(not mono or mono[-1] for mono in got.terms)
            assert all(got.terms.values())
    # terms that cancel, and keys that trim through zeros before x_i
    p = SparsePolynomial({(0, 1): 1, (1,): 1, (0, 0, 2): 3})
    assert divided_difference(p, 1).terms == {}
    assert divided_difference(p, 2).terms == {(0, 1): -3, (0, 0, 1): -3, (): 1}
