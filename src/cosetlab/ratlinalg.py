"""Exact linear algebra over the rationals, plus integer Smith normal form.

Products and determinants run on Python integers: each operand is scaled by
the lcm of its denominators and each distinct result entry is divided once.
The Smith form works modulo its caller's determinant, on unit pivots if any.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from typing import Callable, Collection, Iterable, List, Optional, Sequence, Tuple

Vector = Tuple[Q, ...]
Matrix = Tuple[Vector, ...]


# The most digits a numerator or denominator read by parse_rational may have;
# at a million, gcd inside Fraction arithmetic runs without end.
MAX_DIGITS = 2000
_DIGIT_BOUND = 10 ** MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def parse_rational(x, name: Optional[str] = None) -> Q:
    """x as an exact rational; only an int (not a bool) or a string qualifies,
    and neither its numerator nor its denominator may pass MAX_DIGITS digits.

    name, when given, is the seed field or CLI flag the error message names.
    """
    prefix = "" if name is None else f"{name} is "
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        exp = _EXPONENT.search(x) if isinstance(x, str) else None
        try:
            # an exponent past MAX_DIGITS by more than x's length leaves the
            # value past it too, so _DIGIT_BOUND stands in for 10 ** exp
            q = Q(x) if exp is None or abs(int(exp[1])) <= MAX_DIGITS + len(x) else Q(_DIGIT_BOUND)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            if max(abs(q.numerator), q.denominator) < _DIGIT_BOUND:
                return q
            raise ValueError(f"{prefix}too large: its numerator or denominator has"
                             f" more than MAX_DIGITS = {MAX_DIGITS} digits")
    raise ValueError(f"{prefix}not an exact rational: {x!r}")


def integer_vector(values: Iterable,
                   error: Optional[str]) -> Optional[Tuple[int, ...]]:
    """values as a tuple of ints when every entry is an exact integer.

    Otherwise raises ValueError(error), or returns None when error is None.
    """
    v = vec(values)
    if all(x.denominator == 1 for x in v):
        return tuple(x.numerator for x in v)
    if error is None:
        return None
    raise ValueError(error)


def vec(entries: Iterable) -> Vector:
    return tuple(Q(e) for e in entries)


def identity(n: int) -> Matrix:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    if any(len(row) != len(v) for row in a):
        raise ValueError("dimension mismatch")
    return tuple(sum((Q(x) * Q(y) for x, y in zip(row, v)), Q(0)) for row in a)


def integer_rows(rows: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """Integer rows m and one common denominator d with rows == m / d."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def rational_rows(m: Collection[Sequence[int]], d: int, fn: Callable = Q) -> tuple:
    """The rows of fn(m / d), entrywise; fn runs once per distinct numerator."""
    value = {x: fn(Q(x, d)) for x in {x for row in m for x in row}}
    return tuple(tuple(map(value.__getitem__, row)) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product: integer products over each operand's common
    denominator, one division per distinct entry."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("dimension mismatch")
    ma, da = integer_rows(a)
    mb, db = integer_rows(b)
    cols = list(zip(*mb))
    return rational_rows([[sum(map(mul, row, col)) for col in cols] for row in ma], da * db)


def mat_inv(a: Matrix) -> Matrix:
    """Invert a square rational matrix from one Bareiss pass over [a | I],
    scaled to integers.  Row i of the echelon U satisfies U_left a^-1 =
    U_right, so with D the last pivot, D a^-1 follows by exact integer back
    substitution."""
    n = len(a)
    m, _ = integer_rows([tuple(row) + e for row, e in zip(a, identity(n))])
    pivots, _ = bareiss(m, pivoting=True)
    D = pivots[-1] if pivots else 1
    if D == 0:
        raise ValueError("matrix is singular")
    adj: List[List[int]] = [[]] * n
    for i in reversed(range(n)):
        row = m[i]
        adj[i] = [(D * row[n + j] - sum(row[c] * adj[c][j] for c in range(i + 1, n)))
                  // row[i] for j in range(n)]
    return rational_rows(adj, D)


def solve(a: Matrix, b: Sequence) -> Vector:
    """Solve a x = b for square nonsingular a."""
    return mat_vec(mat_inv(a), vec(b))


def bareiss(m: List[List[int]], pivoting: bool) -> Tuple[List[int], int]:
    """Fraction-free elimination (Bareiss 1968) of n integer rows, at least n
    long, in place: its pivots and the sign of the row swaps made.

    The k-th pivot is the k-th leading principal minor of the row-swapped
    matrix, and row k keeps its fraction-free upper row from column k on.
    The pass stops at a zero pivot: the first zero minor without pivoting,
    a singular matrix with it.
    """
    sign, prev, pivots = 1, 1, []
    for k in range(len(m)):
        if pivoting and m[k][k] == 0:
            swap = next((r for r in range(k + 1, len(m)) if m[r][k]), k)
            if swap != k:
                m[k], m[swap], sign = m[swap], m[k], -sign
        p = m[k][k]
        pivots.append(p)
        if p == 0:
            break
        top = m[k][k + 1:]
        for row in m[k + 1:]:
            f = row[k]
            if f or p != prev:  # else the update would leave the row as it is
                row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = p
    return pivots, sign


def leading_minors(rows: Sequence[Sequence[int]]) -> List[int]:
    """Leading principal minors of a square integer matrix, from one pass
    without pivoting; the list stops at the first zero minor."""
    return bareiss([list(row) for row in rows], pivoting=False)[0]


def determinant(a: Matrix) -> Q:
    """Exact determinant from one Bareiss pass over the integer-scaled rows."""
    m, d = integer_rows(a)
    pivots, sign = bareiss(m, pivoting=True)
    return Q(sign * pivots[-1], d ** len(a)) if pivots else Q(1)


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b) for a, b >= 0; exactly
    (a, 1, 0) when a divides b, so a pass that leaves the pivot alone cannot
    undo the pass before it."""
    if a and b % a == 0:
        return a, 1, 0
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return a, u0, v0


def smith_normal_form(rows: Sequence[Sequence[int]], det: int) -> List[int]:
    """Diagonal of the Smith normal form of a square integer matrix whose
    determinant det is nonzero, in divisibility order.

    Elimination modulo D = |det| (Hafner-McCurley 1991; Cohen, A Course in
    Computational Algebraic Number Theory, 2.4.2): the row lattice holds
    D Z^n, so rows reduced mod D span it together with D Z^n.  A unit pivot
    mod D clears its column with one update per row, else unimodular
    extended-gcd row steps do.  Pivot p splits off g = gcd(p, D) when g
    divides the rest of its row, which column steps mod D then clear; else
    the matrix is transposed.  A gcd/lcm pass sorts by divisibility.
    """
    n, D = len(rows), abs(det)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if D == 0:
        raise ValueError("matrix is singular")
    m = [[int(x) % D for x in row] for row in rows]
    diag: List[int] = []
    for t in range(n):
        while True:
            unit = next((i for i in range(t, n) if gcd(m[i][t], D) == 1), None)
            if unit is not None:
                m[t], m[unit] = m[unit], m[t]
                inv, top = pow(m[t][t], -1, D), m[t][t:]
                for row in m[t + 1:]:
                    if f := row[t] * inv % D:
                        row[t:] = [(y - f * x) % D for x, y in zip(top, row[t:])]
            else:
                for i in range(t + 1, n):
                    if m[i][t]:
                        g, u, v = _xgcd(m[t][t], m[i][t])
                        a, b = m[t][t] // g, m[i][t] // g
                        top, row = m[t][t:], m[i][t:]
                        if v:
                            m[t][t:] = [(u * x + v * y) % D for x, y in zip(top, row)]
                        m[i][t:] = [(a * y - b * x) % D for x, y in zip(top, row)]
            g = gcd(m[t][t], D)
            if all(x % g == 0 for x in m[t][t + 1:]):
                break
            # only the trailing block is read from here on, so it alone counts
            m = [list(col) for col in zip(*m)]
        diag.append(g)
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag
