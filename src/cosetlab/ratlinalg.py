"""Exact linear algebra over the rationals, plus integer Smith normal form.

Products and determinants run on Python integers: each operand is scaled by
the lcm of its denominators and the result is divided once per entry.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

Vector = Tuple[Q, ...]
Matrix = Tuple[Vector, ...]


def parse_rational(x, name: Optional[str] = None) -> Q:
    """x as an exact rational; only an int (not a bool) or a string qualifies.

    name, when given, is the seed field or CLI flag the error message names.
    """
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Q(x)
        except (ValueError, ZeroDivisionError):
            pass
    prefix = "" if name is None else f"{name} is "
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


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def dot(u: Sequence, v: Sequence) -> Q:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((Q(a) * Q(b) for a, b in zip(u, v)), Q(0))


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    return tuple(dot(row, v) for row in a)


def integer_rows(rows: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """Integer rows m and one common denominator d with rows == m / d."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product: integer products over each operand's common
    denominator, one division per entry."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("dimension mismatch")
    ma, da = integer_rows(a)
    mb, db = integer_rows(b)
    cols = list(zip(*mb))
    return tuple(tuple(Q(sum(map(mul, row, col)), da * db) for col in cols)
                 for row in ma)


def mat_inv(a: Matrix) -> Matrix:
    """Invert a square rational matrix by Gauss-Jordan elimination."""
    n = len(a)
    work = [list(row) + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(mat(a))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = Q(1) / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def solve(a: Matrix, b: Sequence) -> Vector:
    """Solve a x = b for square nonsingular a."""
    return mat_vec(mat_inv(a), vec(b))


def bareiss(m: List[List[int]], pivoting: bool) -> Tuple[List[int], int]:
    """Fraction-free elimination (Bareiss 1968) of a square integer matrix,
    in place: its pivots and the sign of the row swaps made.

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


def smith_normal_form(rows: Sequence[Sequence[int]]) -> List[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the absolute diagonal entries in divisibility order,
    including any trailing zeros for rank deficiency.
    """
    m = [[int(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag: List[int] = []
    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        while True:
            reduced = True
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        reduced = False
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j] != 0:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        reduced = False
            if not reduced:
                continue
            # pivot must divide the remaining block for the divisor chain
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % m[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
        diag.append(abs(m[t][t]))
        t += 1
    while len(diag) < min(nr, nc):
        diag.append(0)
    return diag
