from fractions import Fraction as Q
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cosetlab.latticekit import _signature
from cosetlab.ratlinalg import (
    MAX_DIGITS,
    determinant,
    identity,
    leading_minors,
    mat_inv,
    mat_mul,
    mat_vec,
    parse_rational,
    smith_normal_form,
    solve,
    vec,
)


def test_mat_inv_round_trip():
    # plain; a zero (0, 0) entry, so a row swap; fractional entries
    for a in (tuple(map(vec, [(2, 1), (1, 1)])),
              tuple(map(vec, [(0, 1, 2), (1, 0, 3), (4, -3, 8)])),
              tuple(map(vec, [("1/2", "-2/3"), ("3/4", "5/7")]))):
        assert mat_mul(a, mat_inv(a)) == identity(len(a))
    assert mat_inv(()) == ()
    # leading minors 1, 0 and 1, 1, 0: each singular only at its last pivot
    for singular in (tuple(map(vec, [(1, 2), (2, 4)])),
                     tuple(map(vec, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]))):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            mat_inv(singular)


_ENTRY = st.one_of(st.just(Q(0)), st.fractions(-5, 5, max_denominator=6))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_mat_inv_is_an_exact_two_sided_inverse(rows):
    a = tuple(map(vec, rows))
    if determinant(a) == 0:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            mat_inv(a)
    else:
        inv = mat_inv(a)
        assert mat_mul(a, inv) == mat_mul(inv, a) == identity(len(a))


def test_solve_against_known_solution():
    a = tuple(map(vec, [(2, 0, 1), (0, 1, 0), (1, 0, 1)]))
    x = (Q(3), Q(-2), Q(5))
    b = mat_vec(a, x)
    assert solve(a, b) == x


def test_determinant_values():
    assert determinant(tuple(map(vec, [(3,)]))) == 3
    assert determinant(tuple(map(vec, [(2, -1), (-1, 2)]))) == 3
    assert determinant(tuple(map(vec, [(1, 2), (2, 4)]))) == 0


def test_smith_normal_form_frozen_cases():
    assert smith_normal_form([[3]], 3) == [3]
    assert smith_normal_form([[1, 0], [0, 1]], 1) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 3]], 6) == [1, 6]
    assert smith_normal_form([[4, 0], [0, 6]], 24) == [2, 12]
    assert smith_normal_form([[3, 1], [1, 3]], 8) == [1, 8]
    assert smith_normal_form([[0, 1], [1, 0]], -1) == [1, 1]
    # no unit mod 4 in the first column, and gcd(2, 4) does not divide the
    # 1 beside the pivot: the gcd steps run, then the transpose
    assert smith_normal_form([[2, 1], [0, 2]], 4) == [1, 4]
    # no unit mod 20 in the first column: the gcd steps give the pivot 2
    assert smith_normal_form([[4, 6], [6, 4]], -20) == [2, 10]
    # eliminating over Z without reduction, the entries of this one reach
    # millions of bits on the fourth pivot; modulo |det| they stay below it
    blowup = [[4, 6, -2, -1, 9, 4], [9, -5, -6, 7, -4, -7],
              [3, 0, 5, -9, -1, -6], [2, -2, -4, -9, -5, 4],
              [-7, 1, 5, -8, 6, -2], [-7, 6, -5, 8, -9, -5]]
    assert smith_normal_form(blowup, -1860234) == [1, 1, 1, 1, 1, 1860234]
    with pytest.raises(ValueError, match="singular"):
        smith_normal_form([[2, 0], [0, 0]], 0)
    with pytest.raises(ValueError, match="not square"):
        smith_normal_form([[1, 0, 0], [0, 1, 0]], 1)


def _determinantal_divisors(rows):
    """Smith diagonal from its definition: d_1...d_k is the gcd of all the
    k x k minors, each one a Leibniz determinant."""
    n = len(rows)
    divisors, previous = [], 1
    for k in range(1, n + 1):
        g = 0
        for r in combinations(range(n), k):
            for c in combinations(range(n), k):
                g = gcd(g, int(_leibniz_det([[rows[i][j] for j in c] for i in r])))
        divisors.append(g // previous)
        previous = g
    return divisors


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_smith_normal_form_properties(rows):
    det = int(_leibniz_det(rows))
    assume(det != 0)
    divisors = smith_normal_form(rows, det)
    assert divisors == _determinantal_divisors(rows)
    # invariant under transposition
    assert smith_normal_form(tuple(zip(*rows)), det) == divisors


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
    assert mat_mul(tuple(map(vec, a)), tuple(map(vec, b))) == _reference_mul(a, b)
    assert mat_mul(a, b) == _reference_mul(a, b)  # plain nested lists too


def test_mat_mul_rejects_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(tuple(map(vec, [(1, 2, 3)])), tuple(map(vec, [(1,), (2,)])))
    with pytest.raises(ValueError):
        mat_mul(tuple(map(vec, [(1, 2)])), tuple(map(vec, [(1,), (2,), (3,)])))


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
    minors = leading_minors(gram)
    assert _signature(minors) == _signature_by_determinants(gram)
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
    assert _signature(leading_minors(gram)) == expected
    if gram:
        assert _signature_by_determinants(gram) == expected


def test_determinant_exact_on_singular_swapped_and_rational_inputs():
    assert determinant(tuple(map(vec, [(0, 1), (1, 0)]))) == -1  # needs a row swap
    assert determinant(tuple(map(vec, [(0, 0, 1), (0, 2, 0), (3, 0, 0)]))) == -6
    assert determinant(tuple(map(vec, [(1, 2, 3), (2, 4, 6), (0, 1, 1)]))) == 0
    assert determinant(tuple(map(vec, [(0, 0), (0, 5)]))) == 0
    assert determinant(tuple(map(vec, [(Q(1, 2), Q(1, 3)), (Q(1, 4), Q(1, 5))]))) == Q(1, 60)
    assert determinant(()) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_determinant_matches_leibniz(rows):
    assert determinant(tuple(map(vec, rows))) == _leibniz_det(rows)


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


@pytest.mark.parametrize("x", [
    "1e999999", "-1e-999999", "1e99999999999999999999", "0e999999", "1e2000",
    "1/" + "3" * 2001, 10 ** 2000, -10 ** 4000, "1e" + "\u0669" * 9,
], ids=["1e999999", "-1e-999999", "1e99999999999999999999", "0e999999", "1e2000",
        "1/3...3", "10**2000", "-10**4000", "arabic-indic exponent"])
def test_parse_rational_refuses_a_numerator_or_denominator_past_max_digits(x):
    with pytest.raises(ValueError, match=f"^--level is too large: .* MAX_DIGITS = {MAX_DIGITS} digits$"):
        parse_rational(x, "--level")


def test_parse_rational_reads_up_to_max_digits():
    assert parse_rational("1e1999") == 10 ** 1999
    assert parse_rational("-1e-1999") == Q(-1, 10 ** 1999)
    assert parse_rational(f"{10 ** MAX_DIGITS - 1}/7") == Q(10 ** MAX_DIGITS - 1, 7)
