"""Partitions, the Littlewood-Richardson rule (the strip walk of lr_expand
cross-validated against the filling count of lr_coefficient and an
independent strip-adding rule), point products, and the inequality tests."""

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import factorial, prod

import pytest

from flaghorn import grassmann
from flaghorn.factor import factor_full
from flaghorn.flags import (
    ClassEntry,
    FlagType,
    complete_flag,
    enumerate_flag_types,
    enumerate_minimal_reps,
    flag_table,
    flatten_pair,
    grassmannian_flag,
)
from flaghorn.grassmann import (
    _condition_iii,
    _condition_iv,
    _degree_verdict,
    _point_positive_tuples,
    _product_to_point,
    check_condition_iii,
    check_condition_iv,
    check_partition,
    condition_iii_failure,
    condition_iv_failure,
    format_partition,
    horn_inequality_holds,
    lr_coefficient,
    lr_expand,
    parse_partition,
    partition_from_perm,
    partitions_in_rectangle,
    perm_from_partition,
    product_to_point,
)
from flaghorn.levi import bk_product, enumerate_levi_movable, exact_degree_tuples
from flaghorn.perm import length


def test_check_partition():
    assert check_partition((3, 1, 0)) == (3, 1)
    assert check_partition(()) == ()
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, -1))


def test_parse_and_format_partition():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("0") == ()
    assert parse_partition("") == ()
    assert format_partition((2, 1)) == "2,1"
    assert format_partition(()) == "0"
    assert format_partition((2, 1, 0)) == "2,1"
    assert format_partition((2, True, False)) == "2,1"
    for bad in ((1, 2), (2.0, 1.0), (-1,)):
        with pytest.raises(ValueError):
            format_partition(bad)
    with pytest.raises(ValueError):
        parse_partition("2,x")
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_partitions_in_rectangle():
    assert partitions_in_rectangle(2, 2) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert len(partitions_in_rectangle(2, 3)) == 10
    assert len(partitions_in_rectangle(3, 2)) == 10
    assert partitions_in_rectangle(2, 2, size=2) == [(1, 1), (2,)]
    assert partitions_in_rectangle(2, 2, size=9) == []


def _all_partitions_in_rectangle(rows, cols):
    """Brute force: every weakly decreasing sequence of at most rows parts
    in 1..cols."""
    out = [()]
    for length in range(1, rows + 1):
        out += [
            tuple(sorted(parts, reverse=True))
            for parts in combinations_with_replacement(range(1, cols + 1), length)
        ]
    return sorted(out)


@pytest.mark.parametrize("rows", range(7))
def test_partitions_in_rectangle_by_size_matches_the_filter(rows):
    for cols in range(7):
        everything = _all_partitions_in_rectangle(rows, cols)
        assert partitions_in_rectangle(rows, cols) == everything
        for size in range(-1, rows * cols + 2):
            expected = [p for p in everything if sum(p) == size]
            assert partitions_in_rectangle(rows, cols, size) == expected


def test_partition_perm_roundtrip():
    # every class of every Gr(r, n) with n <= 7: partition_from_perm reads
    # the class table, perm_from_partition the closed form
    for r, n in [(r, n) for n in range(2, 8) for r in range(1, n)]:
        for p in partitions_in_rectangle(r, n - r):
            w = perm_from_partition(p, r, n)
            assert partition_from_perm(w, r, n) == p


def test_partition_size_is_codimension():
    from flaghorn.flags import codim

    for r, n in [(2, 4), (2, 5)]:
        flag = grassmannian_flag(r, n)
        for p in partitions_in_rectangle(r, n - r):
            w = perm_from_partition(p, r, n)
            assert sum(p) == codim(w, flag)


def test_partition_pinned_values():
    assert partition_from_perm((2, 4, 1, 3), 2, 4) == (1,)
    assert partition_from_perm((1, 4, 2, 3), 2, 4) == (2,)
    assert partition_from_perm((2, 3, 1, 4), 2, 4) == (1, 1)
    assert partition_from_perm((3, 4, 1, 2), 2, 4) == ()
    with pytest.raises(ValueError):
        perm_from_partition((3,), 2, 4)
    with pytest.raises(ValueError):
        partition_from_perm((2, 1, 3, 4), 2, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: perm_from_partition((), 3, 2),
        lambda: product_to_point(((),), 3, 2),
        lambda: lr_expand((), (), -1, 2),
        lambda: lr_expand((), (), 2, -1),
        # two negative sides have a positive product, which must not start
        # the walk
        lambda: partitions_in_rectangle(-1, -1),
        lambda: partitions_in_rectangle(-1, -1, 1),
        lambda: partitions_in_rectangle(-2, -3),
        lambda: partitions_in_rectangle(-1, 2),
        # a size that is not an integer is a ValueError too, neither a
        # TypeError nor a coefficient of 0
        lambda: perm_from_partition((1,), 2.0, 4),
        lambda: product_to_point(((1,),), 1.5, 4),
        lambda: lr_expand((1,), (1,), 2.0, 2),
    ],
    ids=[
        "perm_from_partition", "product_to_point", "lr_expand_rows", "lr_expand_cols",
        "partitions_both_negative", "partitions_both_negative_size",
        "partitions_both_negative_2x3", "partitions_rows_negative",
        "perm_from_partition_float", "product_to_point_float", "lr_expand_float",
    ],
)
def test_a_rectangle_with_r_outside_0_to_n_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


def add_one_box(p, rows, cols):
    """Independent Pieri rule for a single box."""
    out = []
    padded = list(p) + [0] * (rows - len(p))
    for i in range(rows):
        above = padded[i - 1] if i else cols
        if padded[i] < min(above, cols):
            bigger = padded.copy()
            bigger[i] += 1
            out.append(check_partition(tuple(bigger)))
    return sorted(out)


def add_horizontal_strip(p, k, rows, cols):
    """Independent Pieri rule: all ways to add k boxes, no two in a column."""
    results = set()

    def go(i, remaining, rows_so_far, prev_new, prev_old):
        if i == rows:
            if remaining == 0:
                results.add(check_partition(tuple(rows_so_far)))
            return
        old = p[i] if i < len(p) else 0
        low = old
        high = min(prev_old, cols)  # no two added boxes share a column
        for new in range(low, high + 1):
            if new > prev_new:
                continue  # keep it a partition
            add = new - old
            if add > remaining:
                continue
            go(i + 1, remaining - add, rows_so_far + [new], new, old)

    go(0, k, [], cols, cols)
    return sorted(q for q in results if sum(q) == sum(p) + k)


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
def test_lr_expand_matches_pieri_single_box(rows, cols):
    for p in partitions_in_rectangle(rows, cols):
        if sum(p) + 1 > rows * cols:
            continue
        got = sorted(lr_expand(p, (1,), rows, cols))
        assert got == add_one_box(p, rows, cols)
        assert all(c == 1 for c in lr_expand(p, (1,), rows, cols).values())


@pytest.mark.parametrize("rows,cols", [(2, 3), (3, 3)])
def test_lr_expand_matches_pieri_strips(rows, cols):
    for p in partitions_in_rectangle(rows, cols):
        for k in range(1, cols + 1):
            if sum(p) + k > rows * cols:
                continue
            expansion = lr_expand(p, (k,), rows, cols)
            assert sorted(expansion) == add_horizontal_strip(p, k, rows, cols)
            assert all(c == 1 for c in expansion.values())


def test_lr_coefficient_pinned():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_coefficient((), (2, 1), (2, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2,), (1,), (2,)) == 0
    assert lr_coefficient((3, 1), (1,), (3, 1, 1)) == 1


def test_lr_coefficient_symmetry():
    shapes = partitions_in_rectangle(3, 3)
    for lam, mu in combinations_with_replacement(shapes, 2):
        for nu in partitions_in_rectangle(3, 6, size=sum(lam) + sum(mu)):
            assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_lr_functions_take_any_sequence_and_check_it():
    # the arguments are normalized before the cache, which hashes them
    assert lr_coefficient([1], [1], [2]) == 1
    assert lr_coefficient([2, 1, 0], (1,), [3, 1]) == 1
    assert lr_expand([1], [1], 2, 2) == {(1, 1): 1, (2,): 1}
    assert lr_expand([1, 0], (), 2, 2) == {(1,): 1}
    for bad in ((1, 2), (-1,), (1.5,)):
        with pytest.raises(ValueError):
            lr_coefficient(bad, (1,), (2,))
        with pytest.raises(ValueError):
            lr_coefficient((1,), (1,), bad)
        with pytest.raises(ValueError):
            lr_expand(bad, (1,), 2, 2)
        with pytest.raises(ValueError):
            lr_expand((1,), bad, 2, 2)


@pytest.mark.parametrize(
    "lam,mu", [((3,), ()), ((1, 1, 1), ()), ((), (3,)), ((), (1, 1, 1))]
)
def test_lr_expand_rejects_a_partition_outside_the_rectangle(lam, mu):
    with pytest.raises(ValueError, match="does not fit"):
        lr_expand(lam, mu, 2, 2)


@lru_cache(maxsize=None)
def _expansion_by_fillings(lam, mu, rows, cols):
    # one filling count (lr_coefficient) per partition of the right size
    # inside the rectangle, in lexicographic order
    out = {}
    for nu in partitions_in_rectangle(rows, cols, size=sum(lam) + sum(mu)):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out


EXPANSION_RECTANGLES = [(r, c) for r in range(2, 5) for c in range(2, 5)] + [(3, 5), (2, 6)]


def _expansion_mismatches(rows, cols):
    shapes = partitions_in_rectangle(rows, cols)
    return [
        (lam, mu)
        for lam in shapes
        for mu in shapes
        if list(lr_expand(lam, mu, rows, cols).items())
        != list(_expansion_by_fillings(lam, mu, rows, cols).items())
    ]


@pytest.mark.parametrize("rows,cols", EXPANSION_RECTANGLES)
def test_lr_expand_matches_the_filling_count(rows, cols):
    # every pair of partitions in the rectangle: the strip walk gives the
    # terms and multiplicities of one filling search per term, in the
    # same (lexicographic) order
    assert _expansion_mismatches(rows, cols) == []


@pytest.fixture
def fresh_lr_expand():
    # expansions and point products made while the walk is patched must
    # not reach a later test, nor those made before reach the patched one
    def clear():
        lr_expand.cache_clear()
        product_to_point.cache_clear()

    clear()
    yield
    clear()


def test_the_filling_count_catches_a_walk_without_the_lattice_bound(
    fresh_lr_expand, monkeypatch
):
    strips = grassmann._strips
    monkeypatch.setattr(
        grassmann,
        "_strips",
        lambda shape, bound, *rest: strips(shape, (10**9,) * len(shape), *rest),
    )
    # without the bound the one row of (2,2)/(2) may read 1 2, whose
    # reverse 2 1 is no lattice word
    assert lr_expand((2,), (1, 1), 3, 3) == {(2, 1, 1): 1, (2, 2): 1, (3, 1): 1}
    assert lr_coefficient((2,), (1, 1), (2, 2)) == 0
    assert len(_expansion_mismatches(3, 3)) == 48


def _standard_tableaux_of_rectangle(rows, cols):
    # the hook length formula on the rows x cols rectangle
    hooks = prod(rows + cols - i - j - 1 for i in range(rows) for j in range(cols))
    return factorial(rows * cols) // hooks


@pytest.mark.parametrize(
    "r,n,expected",
    [(4, 8, 24_024), (5, 10, 701_149_020), (6, 12, 1_671_643_033_734_960)],
)
def test_sigma_one_powers_count_standard_tableaux(r, n, expected):
    # the point coefficient of sigma_1 to the dimension counts the
    # standard Young tableaux of the rectangle
    assert _standard_tableaux_of_rectangle(r, n - r) == expected
    assert product_to_point(((1,),) * (r * (n - r)), r, n) == expected


def test_product_to_point_pinned():
    assert product_to_point(((1,), (1,), (2,)), 2, 4) == 1
    assert product_to_point(((1,), (1,), (1, 1)), 2, 4) == 1
    assert product_to_point(((1,),) * 4, 2, 4) == 2
    assert product_to_point(((1,),) * 6, 2, 5) == 5
    assert product_to_point(((2, 1),) * 3, 3, 6) == 2
    assert product_to_point(((2, 1), (2, 1)), 2, 4) == 0
    assert product_to_point(((1,), (1,)), 2, 4) == 0  # degree mismatch
    # a skew shape of 1,196 cells, deeper than the default recursion limit
    assert product_to_point(((598, 598), ()), 2, 600) == 1
    for bad in ((3,), (1, 2), (-1,), 5):
        with pytest.raises(ValueError):
            product_to_point((bad, (1,)), 2, 4)
    with pytest.raises(ValueError, match="the partitions must be a sequence"):
        product_to_point(5, 1, 2)


def _exact_degree_partition_tuples(r, cols, s, size):
    # ordered s-tuples of partitions in the rectangle with sizes summing to size
    if s == 0:
        if size == 0:
            yield ()
        return
    for k in range(min(size, r * cols) + 1):
        for p in partitions_in_rectangle(r, cols, size=k):
            for rest in _exact_degree_partition_tuples(r, cols, s - 1, size - k):
                yield (p,) + rest


@lru_cache(maxsize=None)
def _expanded_product(parts, r, cols):
    # every factor expanded by filling counts, from the empty partition;
    # kept for each prefix, which many tuples share
    if not parts:
        return {(): 1}
    out = {}
    for nu, c in _expanded_product(parts[:-1], r, cols).items():
        for kappa, c2 in _expansion_by_fillings(nu, parts[-1], r, cols).items():
            out[kappa] = out.get(kappa, 0) + c * c2
    return out


def _expanded_product_to_point(parts, r, cols):
    # the rectangle read off the full expansion
    return _expanded_product(parts, r, cols).get((cols,) * r if cols else (), 0)


def test_product_to_point_finish_by_duality_matches_the_full_expansion():
    # Gr(d, m) for m <= 7, with the empty rectangles d = 0 and d = m, and
    # s = 0 .. 5 classes: the last factor read off by its complement, or
    # the two halves met in the middle, must give what expanding every
    # factor by filling counts does
    checked = 0
    for m in range(1, 8):
        for d in range(m + 1):
            for s in range(6):
                for parts in _exact_degree_partition_tuples(d, m - d, s, d * (m - d)):
                    expected = _expanded_product_to_point(parts, d, m - d)
                    assert _product_to_point(parts, d, m) == expected, (d, m, parts)
                    checked += 1
    assert checked == 176056
    assert _product_to_point(((1,), (1,)), 2, 4) == 0  # sizes below the rectangle


def test_degree_verdict_decides_only_what_the_degree_decides():
    # Gr(d, m), m <= 7: the wrong degree is 0; the right degree is None
    # where the partitions decide, and otherwise (a projective space or
    # a point) 1, which every exact-degree tuple's expansion confirms
    for m in range(1, 8):
        for d in range(m + 1):
            dim = d * (m - d)
            for degree in range(dim + 2):
                verdict = _degree_verdict(degree, d, m)
                if degree != dim:
                    assert verdict == 0, (d, m, degree)
                elif min(d, m - d) > 1:
                    assert verdict is None, (d, m)
                else:
                    assert verdict == 1, (d, m)
                    for s in range(1, 5):
                        for parts in _exact_degree_partition_tuples(d, m - d, s, dim):
                            assert _expanded_product_to_point(parts, d, m - d) == 1


def _product_to_point_by_complement(parts, r, cols):
    # all but the last factor expanded, then the complement of the last read
    padded = parts[-1] + (0,) * (r - len(parts[-1]))
    complement = tuple(cols - x for x in reversed(padded) if x < cols)
    return _expanded_product(parts[:-1], r, cols).get(complement, 0)


def test_product_to_point_matches_the_expansion_of_all_but_the_last_factor():
    # the point coefficient is the multiplicity of the complement of the
    # last factor in the product of the others, expanded by filling
    # counts; every tuple of the right size at s = 3, 4
    checked = nonzero = 0
    for r, n in ((2, 4), (2, 5), (3, 6)):
        for s in (3, 4):
            for parts in _exact_degree_partition_tuples(r, n - r, s, r * (n - r)):
                expected = _product_to_point_by_complement(parts, r, n - r)
                assert _product_to_point(parts, r, n) == expected, (r, n, parts)
                checked += 1
                nonzero += expected > 0
    assert (checked, nonzero) == (2986, 1882)


def test_no_point_product_runs_the_filling_search():
    # route iii, the factorization's leaves and the deformed product make
    # their point products by the strip walk alone, three factors too;
    # the filling search of lr_coefficient is only the tests' reference
    lr_coefficient.cache_clear()
    product_to_point.cache_clear()
    flag = FlagType.parse("3,6/9")
    rows = enumerate_levi_movable(flag, 3)
    classes, coefficient = max(rows, key=lambda row: row[1])
    product_to_point.cache_clear()
    assert factor_full(classes, flag).coefficient == coefficient
    product_to_point.cache_clear()
    w = (3, 6, 2, 5, 1, 4)
    assert len(bk_product(w, w, FlagType.parse("2,4/6"))) == 6
    assert len(rows) == 19071
    assert lr_coefficient.cache_info().misses == 0


def test_horn_inequality_fixture():
    # two classes on the 2-plane Grassmannian in C^4 whose product has
    # the right degree but misses the point class; the d=1 inequality
    # for the pair of single-box subsets detects it
    tuple_w = ((1, 4, 2, 3), (2, 3, 1, 4))
    tuple_u = ((1, 2), (2, 1))
    assert not horn_inequality_holds(tuple_w, tuple_u, 1, 2, 2)
    assert product_to_point(
        tuple(partition_from_perm(w, 2, 4) for w in tuple_w), 2, 4
    ) == 0
    # the self-dual pair does satisfy it
    good = ((1, 4, 2, 3), (1, 4, 2, 3))
    assert horn_inequality_holds(good, tuple_u, 1, 2, 2)


def test_horn_inequality_validation():
    with pytest.raises(ValueError):
        horn_inequality_holds(((1, 4, 2, 3),), ((1, 2), (2, 1)), 1, 2, 2)
    with pytest.raises(ValueError):
        horn_inequality_holds((), (), 0, 2, 2)
    with pytest.raises(ValueError):
        horn_inequality_holds((), (), 2, 2, 2)
    with pytest.raises(ValueError):
        horn_inequality_holds(((2, 1, 3, 4),), ((1, 2),), 1, 2, 2)
    with pytest.raises(ValueError, match="tuple_w must be a sequence"):
        horn_inequality_holds(5, (), 1, 2, 2)
    with pytest.raises(ValueError, match="need b_j >= 1, got -1"):
        horn_inequality_holds((), (), 1, 2, -1)
    with pytest.raises(ValueError, match="d must be an integer"):
        horn_inequality_holds((), (), 1.5, 2, 2)


def test_conditions_pinned_examples():
    f3 = complete_flag(3)
    movable = ((2, 1, 3), (2, 3, 1))
    blocked = ((3, 1, 2), (3, 1, 2), (2, 3, 1))
    assert check_condition_iii(movable, f3)
    assert check_condition_iv(movable, f3)
    assert not check_condition_iii(blocked, f3)
    assert not check_condition_iv(blocked, f3)
    assert "blocks" in condition_iii_failure(blocked, f3)
    assert "blocks" in condition_iv_failure(blocked, f3)
    assert condition_iii_failure(movable, f3) is None
    assert condition_iv_failure(movable, f3) is None


def test_conditions_validate_degree():
    f3 = complete_flag(3)
    with pytest.raises(ValueError):
        check_condition_iii(((2, 3, 1), (2, 3, 1)), f3)
    with pytest.raises(ValueError):
        check_condition_iv(((2, 3, 1), (2, 3, 1)), f3)


def test_condition_iv_nonzero_via_routes_agree():
    flags_and_sizes = [
        (FlagType((2,), 4), 2),
        (FlagType((2,), 4), 3),
        (FlagType((2,), 5), 2),
        (FlagType((1, 3), 4), 3),
    ]
    from flaghorn.levi import exact_degree_tuples

    for flag, s in flags_and_sizes:
        for classes in exact_degree_tuples(flag, s):
            lr_route = condition_iv_failure(classes, flag, nonzero_via="lr")
            horn_route = condition_iv_failure(classes, flag, nonzero_via="horn")
            assert (lr_route is None) == (horn_route is None)
    with pytest.raises(ValueError):
        condition_iv_failure(((2, 4, 1, 3),) * 4, FlagType((2,), 4), "guess")
    # every non-last block of the complete flag has size 1, so route iv
    # never asks a smaller Grassmannian: the route name is checked anyway
    with pytest.raises(ValueError, match="unknown nonvanishing route"):
        condition_iv_failure(((2, 1, 3), (2, 3, 1)), complete_flag(3), "guess")
    with pytest.raises(ValueError, match="unknown nonvanishing route"):
        check_condition_iv(((2, 1, 3), (2, 3, 1)), complete_flag(3), "guess")


@pytest.mark.parametrize("m", range(2, 8))
def test_point_positive_tuples_match_the_ordered_filter(m):
    # every ordered s-tuple of the right degree, decided one by one by
    # the public Littlewood-Richardson point product; the Horn recursion
    # (route iv on smaller Grassmannians) must find the same tuples
    for d in range(1, m):
        small = grassmannian_flag(d, m)
        reps = enumerate_minimal_reps(small)
        dim = small.dimension
        for s in (1, 2, 3):
            expected = tuple(
                combo
                for combo in product(reps, repeat=s)
                if sum(dim - length(u) for u in combo) == dim
                and product_to_point(
                    tuple(partition_from_perm(u, d, m) for u in combo), d, m
                )
            )
            for via in ("lr", "horn"):
                assert _point_positive_tuples(d, m, s, via) == expected, (d, m, s, via)


def test_condition_iv_answers_at_large_s():
    # the parameter tuples of route iv on Gr(1, 2) at s = 1500 are the
    # 1500 placements of the point class, not a filter of 2^1500 tuples
    flag = FlagType((2,), 4)
    assert len(_point_positive_tuples(1, 2, 1500, "lr")) == 1500
    via_iv = enumerate_levi_movable(flag, 1500, "via_iv")
    assert via_iv == enumerate_levi_movable(flag, 1500, "via_iii")
    assert len(via_iv) == 7


def _horn_by_permutation(tuple_w, tuple_u, d, b_j):
    # the inequality in its permutation form, read off the class indices
    lhs = sum(b_j + u[l] - w[u[l] - 1] for w, u in zip(tuple_w, tuple_u) for l in range(d))
    return lhs <= d * b_j


@lru_cache(maxsize=None)
def _flattenings(w, flag):
    # each pair flattening of w as a permutation, by the public flatten_pair
    return tuple(flatten_pair(w, flag, i, j) for i, j in flag_table(flag).pairs)


def _condition_iv_every_position(classes, flag, nonzero_via):
    # route iv summing each inequality in its permutation form over every
    # position of the tuple, fundamental ones included, on flattenings and
    # codimensions counted apart from the class table's partitions
    s = len(classes)
    table = flag_table(flag)
    for k, (bi, bj) in enumerate(table.pair_sizes):
        i, j = table.pairs[k]
        flats = tuple(_flattenings(w, flag)[k] for w in classes)
        total = sum(bi * bj - length(f) for f in flats)
        if total != bi * bj:
            return (
                f"blocks ({i},{j}): flattened codimensions sum to {total}, "
                f"expected {bi * bj}"
            )
        for d in range(1, bi):
            for combo in _point_positive_tuples(d, bi, s, nonzero_via):
                if not _horn_by_permutation(flats, combo, d, bj):
                    return (
                        f"blocks ({i},{j}), d={d}: inequality fails for "
                        f"u-tuple {combo!r}"
                    )
    return None


def test_condition_iv_skips_only_positions_that_add_nothing():
    # reading the pair partitions at the moving positions alone changes no
    # verdict and no witness of the permutation form over every position,
    # on any exact-degree tuple of any flag type with n <= 5
    failures = 0
    for n in range(2, 6):
        for flag in enumerate_flag_types(n):
            table = flag_table(flag)
            for s in (2, 3):
                for classes in exact_degree_tuples(flag, s):
                    entries = tuple(map(table._entry, classes))
                    for via in ("lr", "horn"):
                        got = _condition_iv(entries, table, via)
                        assert got == _condition_iv_every_position(
                            classes, flag, via
                        ), (flag, classes, via)
                        failures += got is not None
    assert failures  # the witnesses compared include failing ones


def test_horn_inequality_holds_matches_the_permutation_form():
    # every pair of tuples of one or two classes on small Grassmannians:
    # the partition form read from the table against the permutation form
    answers = []
    for b_i in range(2, 6):
        for b_j in range(1, 7 - b_i):
            big = enumerate_minimal_reps(grassmannian_flag(b_i, b_i + b_j))
            for d in range(1, b_i):
                small = enumerate_minimal_reps(grassmannian_flag(d, b_i))
                for s in (1, 2):
                    for tuple_w in product(big, repeat=s):
                        for tuple_u in product(small, repeat=s):
                            got = horn_inequality_holds(tuple_w, tuple_u, d, b_i, b_j)
                            assert got == _horn_by_permutation(tuple_w, tuple_u, d, b_j), (
                                tuple_w, tuple_u, d, b_i, b_j,
                            )
                            answers.append(got)
    assert (len(answers), sum(answers)) == (37500, 23790)


def _refuse_partitions(entry):
    raise RuntimeError("the pair partitions were read")


def test_condition_iv_reads_no_flattening_of_a_projective_pair(monkeypatch):
    # every block of a complete flag has size 1, so no pair has an
    # inequality (no d with 1 <= d < b_i): route iv decides on the degrees
    # alone, and still exactly as route iii does, reading no pair
    # partition.  A property on the class also hides partitions already
    # cached.
    flag = complete_flag(4)
    table = flag_table(flag)
    tuples = exact_degree_tuples(flag, 3)
    monkeypatch.setattr(ClassEntry, "pair_partitions", property(_refuse_partitions))
    verdicts = []
    for classes in tuples:
        entries = tuple(map(table._entry, classes))
        verdict = _condition_iv(entries, table) is None
        assert verdict == (_condition_iii(entries, table) is None), classes
        verdicts.append(verdict)
    assert (len(verdicts), sum(verdicts)) == (211, 17)


def test_condition_iv_reads_the_flattenings_of_a_larger_pair(monkeypatch):
    # on 2,4/6 every pair has b_i = 2, so the d = 1 inequalities run on
    # the pair partitions, and a failing one names its u-tuple
    flag = FlagType((2, 4), 6)
    table = flag_table(flag)
    classes = ((1, 4, 2, 3, 5, 6), (4, 5, 3, 6, 1, 2), (5, 6, 3, 4, 1, 2))
    entries = tuple(map(table._entry, classes))
    assert _condition_iv(entries, table) == (
        "blocks (1,2), d=1: inequality fails for u-tuple ((1, 2), (2, 1), (2, 1))"
    )
    monkeypatch.setattr(ClassEntry, "pair_partitions", property(_refuse_partitions))
    with pytest.raises(RuntimeError, match="pair partitions were read"):
        _condition_iv(entries, table)
