from fractions import Fraction as Q
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab.latticekit import _signature
from cosetlab.ratlinalg import (
    determinant,
    identity,
    leading_minors,
    mat,
    mat_inv,
    mat_mul,
    mat_vec,
    parse_rational,
    smith_normal_form,
    solve,
    transpose,
)


def test_mat_inv_round_trip():
    a = mat([(2, 1), (1, 1)])
    assert mat_mul(a, mat_inv(a)) == identity(2)
    with pytest.raises(ValueError):
        mat_inv(mat([(1, 2), (2, 4)]))


def test_solve_against_known_solution():
    a = mat([(2, 0, 1), (0, 1, 0), (1, 0, 1)])
    x = (Q(3), Q(-2), Q(5))
    b = mat_vec(a, x)
    assert solve(a, b) == x


def test_determinant_values():
    assert determinant(mat([(3,)])) == 3
    assert determinant(mat([(2, -1), (-1, 2)])) == 3
    assert determinant(mat([(1, 2), (2, 4)])) == 0


def test_smith_normal_form_frozen_cases():
    assert smith_normal_form([[3]]) == [3]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    assert smith_normal_form([[3, 1], [1, 3]]) == [1, 8]
    assert smith_normal_form([[0, 1], [1, 0]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 0]]) == [2, 0]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_smith_normal_form_properties(rows):
    divisors = smith_normal_form(rows)
    nonzero = [d for d in divisors if d != 0]
    # divisibility chain and nonnegativity
    assert all(d >= 0 for d in divisors)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros trail the chain
    if 0 in divisors:
        assert all(d == 0 for d in divisors[divisors.index(0):])
    # product of the divisors recovers |det|
    det = determinant(mat(rows))
    prod = 1
    for d in divisors:
        prod *= d
    assert prod == abs(det)
    # invariant under transposition
    assert smith_normal_form(tuple(zip(*rows))) == divisors


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def _reference_mul(a, b):
    """Plain Fraction product, one entry at a time."""
    return tuple(tuple(sum((Q(a[i][t]) * Q(b[t][j]) for t in range(len(b))), Q(0))
                       for j in range(len(b[0])))
                 for i in range(len(a)))


def _leibniz_det(m):
    """Determinant as a sum over permutations, independent of elimination."""
    n = len(m)
    total = Q(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Q(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_mat_mul_matches_fraction_reference(n, m, p, data):
    a = data.draw(st.lists(st.lists(rationals, min_size=m, max_size=m),
                           min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(rationals, min_size=p, max_size=p),
                           min_size=m, max_size=m))
    assert mat_mul(mat(a), mat(b)) == _reference_mul(a, b)
    assert mat_mul(a, b) == _reference_mul(a, b)  # plain nested lists too


def test_mat_mul_rejects_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(mat([(1, 2, 3)]), mat([(1,), (2,)]))
    with pytest.raises(ValueError):
        mat_mul(mat([(1, 2)]), mat([(1,), (2,), (3,)]))


def _signature_by_determinants(m):
    """Sylvester's rule with one determinant per leading minor."""
    minors = [_leibniz_det([row[:j] for row in m[:j]]) for j in range(1, len(m) + 1)]
    if all(x > 0 for x in minors):
        return "positive"
    if all(x != 0 and (x > 0) == (j % 2 == 0) for j, x in enumerate(minors, 1)):
        return "negative"
    return "indefinite"


def _symmetric(rows):
    n = len(rows)
    return tuple(tuple(rows[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_signature_matches_one_determinant_per_minor(rows):
    gram = _symmetric(rows)
    assert _signature(gram) == _signature_by_determinants(gram)
    minors = leading_minors(gram)
    for j, x in enumerate(minors, 1):
        assert x == _leibniz_det([row[:j] for row in gram[:j]])
    assert len(minors) == len(gram) or minors[-1] == 0


@pytest.mark.parametrize("gram, expected", [
    (((0, 1), (1, 0)), "indefinite"),
    (((1, 1), (1, 1)), "indefinite"),
    (((-1, 1), (1, -1)), "indefinite"),
    (((2, 0, 0), (0, 0, 0), (0, 0, 3)), "indefinite"),
    (((2, -1), (-1, 2)), "positive"),
    (((-2, 1), (1, -2)), "negative"),
    ((), "positive"),
])
def test_signature_with_zero_leading_minors(gram, expected):
    assert _signature(gram) == expected
    if gram:
        assert _signature_by_determinants(gram) == expected


def test_determinant_exact_on_singular_swapped_and_rational_inputs():
    assert determinant(mat([(0, 1), (1, 0)])) == -1  # needs a row swap
    assert determinant(mat([(0, 0, 1), (0, 2, 0), (3, 0, 0)])) == -6
    assert determinant(mat([(1, 2, 3), (2, 4, 6), (0, 1, 1)])) == 0
    assert determinant(mat([(0, 0), (0, 5)])) == 0
    assert determinant(mat([(Q(1, 2), Q(1, 3)), (Q(1, 4), Q(1, 5))])) == Q(1, 60)
    assert determinant(()) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_determinant_matches_leibniz(rows):
    assert determinant(mat(rows)) == _leibniz_det(rows)


@pytest.mark.parametrize("x, expected", [
    ("5/3", Q(5, 3)), (" -2 ", Q(-2)), ("0.25", Q(1, 4)), (7, Q(7)),
])
def test_parse_rational_accepts_strings_and_ints(x, expected):
    assert parse_rational(x) == expected


@pytest.mark.parametrize("x", [True, False, 0.5, 2.0, None, [1], "1/0", "x"])
def test_parse_rational_rejects_everything_else(x):
    with pytest.raises(ValueError, match="^not an exact rational"):
        parse_rational(x)


def test_parse_rational_names_the_flag():
    with pytest.raises(ValueError, match="^--T is not an exact rational: 'x'$"):
        parse_rational("x", "--T")
