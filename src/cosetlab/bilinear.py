"""Level-dependent Gram matrices and the weight maps between the two sides.

Every matrix here is indexed by the positive roots in their canonical order.
The four Gram matrices come in two exact inverse pairs (g, g*) and (G, G*), built
on integers; ``forms verify`` checks both pairs there, and gram_* are rational views.
ScWeight stores values on the J basis; values on the dual basis J* are
derived through g*, so they depend on the level and the weight carries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from operator import mul
from typing import NamedTuple, Optional, Sequence, Tuple

from .ratlinalg import Matrix, Vector, integer_rows, integer_vector, mat_vec, rational_rows, vec
from .rootsys import RootSystem

IntGram = Tuple[Tuple[Tuple[int, ...], ...], int]  # numerator rows, one den > 0


@dataclass(frozen=True)
class LevelParams:
    """An admissible level: nonzero and noncritical."""

    k: Q
    shifted: Q


def level_params(rs: RootSystem, k) -> LevelParams:
    k = Q(k)
    if k == 0:
        raise ValueError("level is zero")
    if k == -rs.dual_coxeter:
        raise ValueError("level is the critical value -h_vee")
    return LevelParams(k, k + rs.dual_coxeter)


def _pair_rows(rs: RootSystem, scale: Q) -> IntGram:
    """scale (alpha, beta) + delta over the positive roots, from rs.pair_table."""
    num, den = (scale / rs.pair_den).as_integer_ratio()
    rows = [[num * x for x in row] for row in rs.pair_table]
    for i, row in enumerate(rows):
        row[i] += den
    return tuple(map(tuple, rows)), den


def _apply(gram: IntGram, v: Sequence) -> Vector:
    """The matrix gram times v, its products taken on integers."""
    rows, den = gram
    (ints,), d = integer_rows((vec(v),))
    if len(ints) != len(rows):
        raise ValueError("dimension mismatch")
    return tuple(Q(sum(map(mul, row, ints)), den * d) for row in rows)


def int_gram_g(rs: RootSystem, k) -> IntGram:
    """Pairing matrix of the J generators: (alpha, beta)/k + delta."""
    return _pair_rows(rs, 1 / level_params(rs, k).k)


def int_gram_g_star(rs: RootSystem, k) -> IntGram:
    """Exact inverse of g: -(alpha, beta)/(k + h_vee) + delta."""
    return _pair_rows(rs, -1 / level_params(rs, k).shifted)


def int_gram_G(rs: RootSystem, g_star: IntGram) -> IntGram:
    """g* with 1 subtracted on the diagonal at the simple roots."""
    rows, den = g_star
    return tuple(row[:i] + (row[i] - den,) + row[i + 1:] if i < rs.rank else row
                 for i, row in enumerate(rows)), den


def int_gram_G_star(rs: RootSystem, k) -> IntGram:
    """Exact inverse of G: -k C - 1 on the simple roots, C the inverse form;
    beside it minus the other roots' simple-root coordinates; else delta."""
    kn, kd = level_params(rs, k).k.as_integer_ratio()
    c, d = integer_rows(rs.form_inverse)
    den, ell, roots = kd * d, rs.rank, rs.positive_roots
    rows = [[-kn * x for x in c[i]] + [-den * b[i] for b in roots[ell:]] for i in range(ell)]
    rows += [[-den * x for x in a] + [0] * (len(roots) - ell) for a in roots[ell:]]
    for i, row in enumerate(rows):
        row[i] += -den if i < ell else den
    return tuple(map(tuple, rows)), den


def is_inverse_pair(a: IntGram, b: IntGram) -> bool:
    """Whether a b == I for square a and b of one size, checked as the integer
    product against den_a den_b I."""
    (ma, da), (mb, db) = a, b
    cols = list(zip(*mb))
    return all(sum(map(mul, row, col)) == (da * db if i == j else 0)
               for i, row in enumerate(ma) for j, col in enumerate(cols))


# the rational views of the four integer builders above
def gram_g(rs: RootSystem, k) -> Matrix:
    return rational_rows(*int_gram_g(rs, k))


def gram_g_star(rs: RootSystem, k) -> Matrix:
    return rational_rows(*int_gram_g_star(rs, k))


def gram_G(rs: RootSystem, k) -> Matrix:
    return rational_rows(*int_gram_G(rs, int_gram_g_star(rs, k)))


def gram_G_star(rs: RootSystem, k) -> Matrix:
    return rational_rows(*int_gram_G_star(rs, k))


@dataclass(frozen=True)
class ScWeight:
    """A weight of the coset algebra, stored by its values on the J basis."""

    family: str
    rank: int
    level: Q
    j_values: Tuple[Q, ...]

    def _check(self, rs: RootSystem) -> None:
        if (rs.family, rs.rank) != (self.family, self.rank):
            raise ValueError("root system does not match weight")
        if len(self.j_values) != rs.num_positive:
            raise ValueError("dimension mismatch")

    def jstar_values(self, rs: RootSystem) -> Vector:
        """Values on the dual basis: lambda(J*_a) = sum_b g*_ab lambda(J_b)."""
        self._check(rs)
        return _apply(int_gram_g_star(rs, self.level), self.j_values)

    def in_Qsc(self, rs: RootSystem) -> bool:
        """Membership in the J-span lattice: all dual-basis values integral."""
        return integer_vector(self.jstar_values(rs), None) is not None

    def _compatible(self, other: "ScWeight") -> None:
        if (self.family, self.rank) != (other.family, other.rank):
            raise ValueError("weights live on different algebras")
        if self.level != other.level:
            raise ValueError("weights have different levels")

    def __add__(self, other: "ScWeight") -> "ScWeight":
        self._compatible(other)
        values = tuple(a + b for a, b in zip(self.j_values, other.j_values))
        return ScWeight(self.family, self.rank, self.level, values)


def make_sc_weight(rs: RootSystem, k, j_values: Sequence) -> ScWeight:
    lp = level_params(rs, k)
    values = vec(j_values)
    if len(values) != rs.num_positive:
        raise ValueError("dimension mismatch")
    return ScWeight(rs.family, rs.rank, lp.k, values)


def sc_weight_from_jstar(rs: RootSystem, k, jstar: Sequence) -> ScWeight:
    """Weight with prescribed values on J*; J-values recovered through g."""
    return make_sc_weight(rs, k, _apply(int_gram_g(rs, k), jstar))


def weight_to_sc(rs: RootSystem, k, mu: Sequence) -> ScWeight:
    """Affine weight to coset weight: value (mu, alpha)/k on each J_alpha."""
    lp = level_params(rs, k)
    return make_sc_weight(rs, k, tuple(x / lp.k for x in rs.root_pairings(mu)))


def sc_weight_to_af(rs: RootSystem, k, lam: ScWeight) -> Vector:
    """Coset weight to affine weight, determined by the simple-root values."""
    lp = level_params(rs, k)
    lam._check(rs)
    if lam.level != lp.k:
        raise ValueError("weight level does not match")
    # solve (mu, alpha_i) = k * lam(J_{alpha_i}) over the simple roots
    targets = tuple(lp.k * lam.j_values[i] for i in range(rs.rank))
    return mat_vec(rs.form_inverse, targets)


class CongruenceVerdict(NamedTuple):
    ok: bool
    reason: Optional[str]
    offending: Optional[Tuple[int, ...]]
    differences: Tuple[Q, ...]


def _kernel_values(rs: RootSystem, lam: ScWeight) -> Vector:
    """lam on J_alpha - sum_i alpha_i J_{alpha_i}, for each positive root."""
    out = []
    for i, alpha in enumerate(rs.positive_roots):
        t = lam.j_values[i]
        for j in range(rs.rank):
            t -= alpha[j] * lam.j_values[j]
        out.append(t)
    return tuple(out)


def converse_congruence_check(rs: RootSystem, k, mu: ScWeight) -> CongruenceVerdict:
    """Verify mu(J_alpha) - (mu_af)_sc(J_alpha) is integral for every alpha.

    The hypothesis is that mu takes integer values on the kernel combinations
    J_alpha - sum_i alpha_i J_{alpha_i}; it is checked first, and a violation
    is reported with the offending root rather than assumed away.
    """
    mu._check(rs)
    kernel = _kernel_values(rs, mu)
    for alpha, value in zip(rs.positive_roots, kernel):
        if value.denominator != 1:
            return CongruenceVerdict(
                False, "not in the image of a V_K-graded module", alpha, ()
            )
    back = weight_to_sc(rs, k, sc_weight_to_af(rs, k, mu))
    differences = tuple(a - b for a, b in zip(mu.j_values, back.j_values))
    ok = integer_vector(differences, None) is not None
    return CongruenceVerdict(ok, None, None, differences)


def conformal_weight_plus(rs: RootSystem, k, mu: Sequence) -> Q:
    """Lowest conformal weight (mu, mu)/(2(k + h_vee)) of the plus-side module."""
    lp = level_params(rs, k)
    m = vec(mu)
    return rs.form(m, m) / (2 * lp.shifted)


def central_charges(rs: RootSystem, k) -> Tuple[Q, Q]:
    """Central charges (c_af, c_sc) with c_sc = c_af + N - ell."""
    lp = level_params(rs, k)
    c_af = lp.k * rs.dim_algebra / lp.shifted
    return c_af, c_af + rs.num_positive - rs.rank


def central_charge_sc_direct(rs: RootSystem, k) -> Q:
    """c_sc written out as k dim g/(k+h_vee) + dim(odd part)/2 - dim h."""
    lp = level_params(rs, k)
    dim_odd = 2 * rs.num_positive
    return lp.k * rs.dim_algebra / lp.shifted + Q(dim_odd, 2) - rs.rank
