"""Integral lattices with two-cocycles, and the maps tying them to the roots.

Cocycles are stored as 0/1 exponent matrices E with eps(u, v) = (-1)^(u.E.v),
extended bimultiplicatively.  The defining sign identity
eps(u,v) eps(v,u) = (-1)^(<u,v> + <u,u><v,v>) reduces mod 2 to the matrix
congruence E + E^T = G + diag(G) diag(G)^T, which every constructor asserts,
so a wrong convention fails at build time rather than deep inside a product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import isqrt, lcm
from itertools import repeat
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

from .bilinear import ScWeight, int_gram_g, sc_weight_from_jstar
from .ratlinalg import (Vector, bareiss, determinant, integer_vector,
                        leading_minors, smith_normal_form)
from .rootsys import RootSystem

IntMatrix = Tuple[Tuple[int, ...], ...]


def _diag_parity(gram: IntMatrix) -> Tuple[int, ...]:
    return tuple(gram[i][i] % 2 for i in range(len(gram)))


def _assert_cocycle_identity(gram: IntMatrix, eps: IntMatrix) -> None:
    g = _diag_parity(gram)
    n = len(gram)
    for i in range(n):
        for j in range(n):
            lhs = (eps[i][j] + eps[j][i]) % 2
            rhs = (gram[i][j] + g[i] * g[j]) % 2
            if lhs != rhs:
                raise ValueError(f"cocycle identity fails at basis pair ({i}, {j})")


def default_cocycle(gram: IntMatrix) -> IntMatrix:
    """Strictly lower-triangular exponent matrix satisfying the sign identity."""
    g = _diag_parity(gram)
    n = len(gram)
    return tuple(
        tuple((gram[i][j] + g[i] * g[j]) % 2 if i > j else 0 for j in range(n))
        for i in range(n)
    )


def _bilinear(u: Sequence, m: IntMatrix, v: Sequence):
    """u.M.v, summed over the nonzero entries of u."""
    return sum(x * sum(map(mul, m[i], v)) for i, x in enumerate(u) if x)


def _signature(minors: Sequence[int]) -> str:
    """Sylvester classification of a Gram's leading minors into positive /
    negative / indefinite; a zero minor ends the list and means indefinite."""
    if all(x > 0 for x in minors):
        return "positive"
    if all((x > 0) == (m % 2 == 0) and x != 0 for m, x in enumerate(minors, 1)):
        return "negative"
    return "indefinite"


@dataclass(frozen=True)
class IntegralLattice:
    """A based integral lattice carrying a bimultiplicative two-cocycle: its
    name, Gram and cocycle, with the rank, the signature and the determinant
    read off the Gram, so ``dataclasses.replace`` recomputes them."""

    name: str
    gram: IntMatrix
    eps_exponents: IntMatrix
    signature: str = field(init=False)
    determinant: int = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise ValueError("gram matrix is not square")
        if len(self.eps_exponents) != n or any(len(r) != n for r in self.eps_exponents):
            raise ValueError("cocycle matrix shape does not match basis")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix is not symmetric")
        _assert_cocycle_identity(self.gram, self.eps_exponents)
        minors = leading_minors(self.gram)  # they stop at a zero minor
        det = ([1] + minors)[-1] if len(minors) == n else int(determinant(self.gram))
        object.__setattr__(self, "signature", _signature(minors))
        object.__setattr__(self, "determinant", det)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pair(self, u: Sequence, v: Sequence):
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("dimension mismatch")
        return _bilinear(u, self.gram, v)

    def norm(self, u: Sequence):
        return self.pair(u, u)

    def eps(self, u: Sequence, v: Sequence) -> int:
        """Cocycle sign (+1 or -1) on integer vectors."""
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("dimension mismatch")
        return -1 if _bilinear(u, self.eps_exponents, v) % 2 else 1


def build_L_plus(rs: RootSystem) -> IntegralLattice:
    """Rank-N lattice indexed by the positive roots, identity pairing."""
    n = rs.num_positive
    gram = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return IntegralLattice("L+", gram, default_cocycle(gram))


def build_L_minus(rs: RootSystem) -> IntegralLattice:
    """Rank-ell lattice indexed by the simple roots, negated identity pairing.

    The cocycle is the negative of the plus-side one on generators, which
    makes the exponent matrix upper triangular with ones on the diagonal.
    """
    ell = rs.rank
    gram = tuple(tuple(-1 if i == j else 0 for j in range(ell)) for i in range(ell))
    eps = tuple(tuple(1 if i <= j else 0 for j in range(ell)) for i in range(ell))
    return IntegralLattice("L-", gram, eps)


def direct_sum(a: IntegralLattice, b: IntegralLattice) -> IntegralLattice:
    """Orthogonal direct sum with the parity-corrected product cocycle.

    The cross block records the sign (-1)^(<v,v> <u,u>) a graded tensor
    product inserts when the second-slot factor u moves past the first-slot
    factor v; without it the summed cocycle would violate the sign identity.
    """
    na, nb = a.rank, b.rank
    ga = _diag_parity(a.gram)
    gb = _diag_parity(b.gram)
    gram = []
    eps = []
    for i in range(na):
        gram.append(a.gram[i] + (0,) * nb)
        eps.append(a.eps_exponents[i] + (0,) * nb)
    for i in range(nb):
        gram.append((0,) * na + b.gram[i])
        eps.append(tuple(gb[i] * ga[j] for j in range(na)) + b.eps_exponents[i])
    return IntegralLattice(f"{a.name}(+){b.name}", tuple(gram), tuple(eps))


@dataclass(frozen=True)
class EmbeddedLattice:
    """A sublattice presented by basis vectors inside an ambient lattice."""

    lattice: IntegralLattice
    ambient: IntegralLattice
    basis_in_ambient: Tuple[Tuple[int, ...], ...]

    def embed(self, coords: Sequence[int]) -> Tuple[int, ...]:
        if len(coords) != self.lattice.rank:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(mul, coords, col))
                     for col in zip(*self.basis_in_ambient)) or (
                         (0,) * self.ambient.rank)


def sublattice(ambient: IntegralLattice, basis: Sequence[Sequence[int]],
               name: str) -> EmbeddedLattice:
    """Sublattice with Gram and cocycle pulled back along the embedding."""
    rows = tuple(integer_vector(row, "basis vectors must be integers") for row in basis)
    if any(len(row) != ambient.rank for row in rows):
        raise ValueError("dimension mismatch")
    gram = tuple(tuple(_bilinear(u, ambient.gram, v) for v in rows) for u in rows)
    eps = tuple(tuple(_bilinear(u, ambient.eps_exponents, v) % 2 for v in rows) for u in rows)
    return EmbeddedLattice(IntegralLattice(name, gram, eps), ambient, rows)


def f_af(rs: RootSystem, gamma: Sequence, sign: str) -> Tuple[int, ...]:
    """Embed a root-lattice element: gamma -> sum_i gamma_i alpha_i^(sign),
    as integer coordinates over the L+ or L- basis."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if len(gamma) != rs.rank:
        raise ValueError("dimension mismatch")
    coeffs = integer_vector(gamma, "weight is not in the root lattice")
    if sign == "-":
        return coeffs
    return coeffs + (0,) * (rs.num_positive - rs.rank)


def _lattice_coords(v: Sequence, rank: int) -> Tuple[int, ...]:
    if len(v) != rank:
        raise ValueError("dimension mismatch")
    return integer_vector(v, "coordinates must be integers")


def g_af_plus(rs: RootSystem, xi: Sequence) -> Vector:
    """Pair against the plus generators: sum over positive roots of <xi, a+> a."""
    c = _lattice_coords(xi, rs.num_positive)
    out = [Q(0)] * rs.rank
    # the plus-side pairing is the identity form, so <xi, a+> is a coordinate
    for coeff, alpha in zip(c, rs.positive_roots):
        for j in range(rs.rank):
            out[j] += coeff * alpha[j]
    return tuple(out)


def g_af_minus(rs: RootSystem, zeta: Sequence) -> Vector:
    """Pair against the minus generators: sum over simples of <zeta, a-> a,
    which is -zeta, the simple roots being unit vectors."""
    return tuple(Q(-x) for x in _lattice_coords(zeta, rs.rank))


def g_sc_plus(rs: RootSystem, k, xi: Sequence) -> ScWeight:
    """Coset weight with value <xi, beta+> on each dual generator J*_beta."""
    return sc_weight_from_jstar(rs, k, _lattice_coords(xi, rs.num_positive))


def g_sc_minus(rs: RootSystem, k, zeta: Sequence) -> ScWeight:
    """Coset weight with value <zeta, beta-> on J*_beta for simple beta, else 0."""
    c = _lattice_coords(zeta, rs.rank)
    jstar = tuple(-x for x in c) + (0,) * (rs.num_positive - rs.rank)
    return sc_weight_from_jstar(rs, k, jstar)


def form_profile(rs: RootSystem, gamma: Sequence) -> Vector:
    """Coordinates of sum over positive roots of (gamma, beta) beta+ in L+.

    The coefficients are rational for short inputs in some types, so the
    result is a plain coefficient vector, not integer lattice coordinates.
    """
    return rs.root_pairings(gamma)


def kernel_K(rs: RootSystem) -> EmbeddedLattice:
    """Kernel of g_af_plus inside L+, with basis alpha+ - f_af(alpha, +)."""
    basis = [tuple(int(i == idx) - x for i, x in enumerate(f_af(rs, alpha, "+")))
             for idx, alpha in enumerate(rs.positive_roots) if idx >= rs.rank]
    return sublattice(build_L_plus(rs), basis, "K")


def build_Qsc_dual_lattice(rs: RootSystem) -> IntegralLattice:
    """Lattice on the J generators with Gram g at level 1: (alpha, beta) + delta."""
    if not rs.is_simply_laced:
        raise ValueError("lattice requires a simply-laced root system")
    gram, _ = int_gram_g(rs, 1)  # over denominator 1: simply laced, pair_den == 1
    return IntegralLattice("Qsc-dual", gram, default_cocycle(gram))


def _positive_integer_level(k) -> int:
    q = Q(k)
    if q.denominator != 1 or q <= 0:
        raise ValueError("level must be a positive integer")
    return int(q)


def build_E_plus_lattice(rs: RootSystem, k) -> IntegralLattice:
    """Long-root lattice rescaled by k + h_vee."""
    kk = _positive_integer_level(k)
    scale = kk + rs.dual_coxeter
    base = rs.long_root_gram()
    gram = tuple(tuple(scale * x for x in row) for row in base)
    return IntegralLattice("E+", gram, default_cocycle(gram))


def build_E_minus_lattice(rs: RootSystem, k) -> IntegralLattice:
    """The E+ lattice negated, plus a unimodular tail."""
    ell = rs.rank
    tail = rs.num_positive - ell
    gram = tuple(tuple(-x for x in row) + (0,) * tail
                 for row in build_E_plus_lattice(rs, k).gram)
    gram += tuple((0,) * ell + tuple(int(i == j) for j in range(tail))
                  for i in range(tail))
    return IntegralLattice("E-", gram, default_cocycle(gram))


def discriminant_group(lattice: IntegralLattice) -> List[int]:
    """Elementary divisors (>1) of the Gram matrix, in divisibility order."""
    return [d for d in smith_normal_form(lattice.gram, lattice.determinant) if d > 1]


def enumerate_by_norm(lattice: IntegralLattice | EmbeddedLattice, bound,
                      offset: Optional[Sequence] = None) -> List[Tuple[int, ...]]:
    """All v in offset + lattice with sign <v,v> <= bound, sign the lattice's
    definiteness and offset an integer ambient vector (the origin when None).

    Only definite lattices are accepted; on an indefinite one the solution
    set is infinite.  The signature is read off the Gram, so every leading
    minor of the sign-adjusted Gram of a definite lattice is positive.  The
    search runs on integers (Fincke-Pohst 1985).  One Bareiss pass over the
    sign-adjusted Gram bordered by b = <basis, offset> and <offset, offset>
    gives the leading minors D_k, the upper rows U_k with border entries
    u_(k,n) and a last pivot D'; for v = offset + x.basis, sign <v,v> =
    sum_k (U_k.(x,1))^2 / (D_(k-1) D_k) + D'/D_n.  Scaled by
    lcm(D_(k-1) D_k), the bound less the D' term leaves each coordinate an
    exact integer interval, read with isqrt.

    An IntegralLattice gives sorted coordinate vectors, its offset in its own
    coordinates.  An EmbeddedLattice gives ambient images, unsorted in search
    order: a running sum down the recursion from the offset, where each level
    with a nonzero coordinate x adds x times its basis row.
    """
    embedded = isinstance(lattice, EmbeddedLattice)
    ambient = lattice.ambient if embedded else lattice
    m = ambient.rank
    rows = lattice.basis_in_ambient if embedded else tuple(
        tuple(int(i == j) for j in range(m)) for i in range(m))
    lattice = lattice.lattice if embedded else lattice
    b = Q(bound)
    if b < 0:
        raise ValueError("bound must be nonnegative")
    n = lattice.rank
    start = (0,) * m if offset is None else integer_vector(
        offset, "offset coordinates must be integers")
    if len(start) != m:
        raise ValueError("dimension mismatch")
    if lattice.signature == "indefinite":
        raise ValueError("lattice is not definite")
    sign = -1 if lattice.signature == "negative" else 1
    border = [sign * _bilinear(row, ambient.gram, start) for row in rows + (start,)]
    u = [[sign * x for x in row] + [t] for row, t in zip(lattice.gram, border)] + [border]
    pivots, _ = bareiss(u, pivoting=False)
    minors = pivots[:n]
    lead = [1] + minors  # D_0 = 1, ..., D_n
    dens = [a * d for a, d in zip(lead, minors)]  # D_(k-1) D_k
    scale = lcm(*dens)
    weight = [scale // x for x in dens]
    remaining = b.numerator * scale // b.denominator - scale // lead[-1] * pivots[n]

    results: List[Tuple[int, ...]] = []
    w = [0] * n  # the coordinates x fixed so far

    def search(k: int, remaining: int, point: Tuple[int, ...]) -> None:
        if k < 0:
            results.append(point)
            return
        # U_k.(x,1) = a x_k + c; weight[k] (a x_k + c)^2 <= remaining
        a = minors[k]
        c = sum(map(mul, u[k][k + 1:n], w[k + 1:])) + u[k][n]
        r = isqrt(remaining // weight[k])
        row = rows[k]
        for x in range(-((r + c) // a), (r - c) // a + 1):
            t = a * x + c
            w[k] = x
            search(k - 1, remaining - weight[k] * t * t,
                   tuple(map(add, point, map(mul, repeat(x), row)))
                   if x else point)

    if remaining >= 0:
        search(n - 1, remaining, start)
    # search reaches itself through its closure cell; unbinding it breaks
    # that cycle, so reference counting frees the closure at return
    search = None
    return results if embedded else sorted(results)
