"""Root-system combinatorics for the finite simple types, in exact arithmetic.

Roots and weights are coordinate tuples over the simple-root basis.  The
invariant form is normalized so long roots have squared length 2, which fixes
the dual Coxeter number and every downstream Gram matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from operator import add, mul, sub
from typing import Dict, Sequence, Tuple

from .ratlinalg import Matrix, Vector, integer_rows, integer_vector, mat_inv, vec

Coords = Tuple[int, ...]

# family -> (lowest, highest) admitted rank, highest None when unbounded
FAMILIES = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
            "E": (6, 8), "F": (4, 4), "G": (2, 2)}
# Each Dynkin diagram is the path 0-1-...-(rank-1) but for the path edges
# replaced here, keyed by their place on the path: D hangs its last node off
# node rank-3, and E opens with (0, 2), (1, 3).  Negative nodes count from
# the end.
_PATH_SWAPS = {"D": {-1: (-3, -1)}, "E": {0: (0, 2), 1: (1, 3)}}
# (row, column, bond): a double or triple bond scales the one entry in the
# short root's row; negative indices count from the end
_BONDS = {"B": (-1, -2, 2), "C": (-2, -1, 2), "F": (2, 1, 2), "G": (1, 0, 3)}


def cartan_matrix(family: str, rank: int) -> Tuple[Tuple[int, ...], ...]:
    """Integer Cartan matrix a[i][j] = 2(alpha_i, alpha_j)/(alpha_i, alpha_i),
    nodes numbered as in Bourbaki."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    low, high = FAMILIES[family]
    if rank < low or high is not None and rank > high:
        raise ValueError(f"rank out of range for {family}")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    edges = [(i, i + 1) for i in range(rank - 1)]
    for place, edge in _PATH_SWAPS.get(family, {}).items():
        edges[place] = edge
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    if family in _BONDS:
        i, j, bond = _BONDS[family]
        a[i][j] = -bond
    return tuple(tuple(row) for row in a)


def _symmetrizer(family: str, rank: int) -> Tuple[int, ...]:
    """Least positive integers D_i with D_i a_ij symmetric: the bond (1 in A,
    D and E) on its column root and every node on that side of the path, else
    1.  The largest is pair_den: D_i a_ij / pair_den gives long roots norm 2."""
    i, j, bond = _BONDS.get(family, (0, 0, 1))
    i, j = i % rank, j % rank
    return tuple(bond if (k <= j if j < i else k >= j) else 1 for k in range(rank))


def _positive_roots(a: Tuple[Tuple[int, ...], ...]) -> Tuple[Coords, ...]:
    """Close the simple roots under the ascending simple reflections, which
    reach every positive root: beta -> beta - c alpha_i where the pairing
    c = <beta, alpha_i-vee> < 0.  Each root carries its pairings (alpha_k's
    are column k of a); a reflection subtracts c times column i.  Ordered by
    height, then by coordinates so alpha_1 precedes alpha_2 within a height."""
    rank = len(a)
    columns = tuple(zip(*a))
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = list(zip(simples, columns))
    while frontier:
        beta, pairings = frontier.pop()
        for i, c in enumerate(pairings):
            if c < 0 and (refl := beta[:i] + (beta[i] - c,) + beta[i + 1:]) not in roots:
                roots.add(refl)
                frontier.append((refl, tuple(p - c * x for p, x in zip(pairings, columns[i]))))
    return tuple(sorted(roots, key=lambda r: (sum(r), tuple(-x for x in r))))


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    positive_roots: Tuple[Coords, ...]
    root_index: Dict[Coords, int]
    highest_root: Coords
    dual_coxeter: int
    # (alpha_a, alpha_b) over the positive roots == pair_table[a][b] / pair_den;
    # the simple roots come first, so its leading rank x rank block is the form
    pair_table: Tuple[Tuple[int, ...], ...]
    pair_den: int

    @cached_property
    def form_inverse(self) -> Matrix:
        """Inverse of the form (pair_table's leading block), on first read."""
        return mat_inv([[Q(x, self.pair_den) for x in row[:self.rank]]
                        for row in self.pair_table[:self.rank]])

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def dim_algebra(self) -> int:
        return self.rank + 2 * self.num_positive

    @property
    def simple_roots(self) -> Tuple[Coords, ...]:
        return self.positive_roots[: self.rank]

    @property
    def is_simply_laced(self) -> bool:
        return self.pair_den == 1

    def form(self, u: Sequence, v: Sequence) -> Q:
        """Normalized invariant form on simple-root coordinates."""
        if len(u) != self.rank or len(v) != self.rank:
            raise ValueError("dimension mismatch")
        (iu, iv), d = integer_rows((vec(u), vec(v)))
        # zip and map stop at rank: the leading block of pair_table
        total = sum(x * sum(map(mul, row, iv)) for x, row in zip(iu, self.pair_table))
        return Q(total, d * d * self.pair_den)

    def norm(self, u: Sequence) -> Q:
        return self.form(u, u)

    def root_pairings(self, w: Sequence) -> Vector:
        """(w, beta) for every positive root beta, in one integer pass over
        the simple-root columns of pair_table."""
        if len(w) != self.rank:
            raise ValueError("dimension mismatch")
        (iw,), d = integer_rows((vec(w),))
        den = d * self.pair_den
        # map stops at the end of iw: row[:rank] holds (beta, alpha_i)
        return tuple(Q(sum(map(mul, iw, row)), den) for row in self.pair_table)

    def is_root(self, coords: Sequence) -> bool:
        # exact coordinates: a Fraction hashes and compares as the equal int
        c = tuple(coords)
        return c in self.root_index or tuple(-x for x in c) in self.root_index

    def coroot(self, alpha: Sequence) -> Vector:
        """2 alpha / (alpha, alpha) as a vector in simple-root coordinates."""
        n = self.norm(alpha)
        return tuple(Q(2) * Q(x) / n for x in alpha)

    def fundamental_weight(self, i: int) -> Vector:
        """Vector with <w, alpha_j-vee> = delta_ij; half is (alpha_i, alpha_i)/2."""
        half = Q(self.pair_table[i][i], 2 * self.pair_den)
        return tuple(half * row[i] for row in self.form_inverse)

    def long_root_basis(self) -> Tuple[Vector, ...]:
        """Coroots of the simple roots; they span the long-root sublattice."""
        return tuple(self.coroot(alpha) for alpha in self.simple_roots)

    def long_root_gram(self) -> Tuple[Tuple[int, ...], ...]:
        """Gram of the simple coroots, 4 den t_ij / (t_ii t_jj) from the table."""
        t, den, simple = self.pair_table, self.pair_den, range(self.rank)
        return tuple(integer_vector([Q(4 * den * t[i][j], t[i][i] * t[j][j])
                                     for j in simple], "long-root Gram is not integral")
                     for i in simple)


def _dual_coxeter(table: Tuple[Tuple[int, ...], ...], den: int,
                  positives: Tuple[Coords, ...], theta: Coords) -> int:
    """Eigenvalue of w -> sum over positive roots of (w, alpha) alpha at alpha_1.

    Cross-checked against 1 + (rho, theta-vee); both must agree and be integral.
    """
    # den (alpha_1, beta) is column 0 of the pair table
    image = [sum(row[0] * beta[j] for row, beta in zip(table, positives))
             for j in range(len(theta))]
    if any(image[1:]):
        raise ValueError("form sum is not proportional to the test weight")
    ratio = Q(image[0], den)
    # (rho, theta-vee) = 2 (rho, theta) / (theta, theta), rho the half sum
    top = positives.index(theta)
    alt = 1 + Q(sum(row[top] for row in table), table[top][top])
    if ratio != alt or ratio.denominator != 1:
        raise ValueError("dual Coxeter number consistency check failed")
    return ratio.numerator


def _pair_table(form: Tuple[Tuple[int, ...], ...], positives: Tuple[Coords, ...],
                index: Dict[Coords, int]) -> Tuple[Tuple[int, ...], ...]:
    """u form v for every pair of positive roots u, v, in integers, by closure:
    beta past the simple roots has some beta - alpha_i earlier in height
    order, and adds alpha_i's row to that root's row.  Closing the form's rows
    gives the simple-root columns, which are the simple rows; closing those
    gives the full rows, one vector add per root."""
    steps = [next((index[low], i) for i, x in enumerate(beta)
                  if x and (low := beta[:i] + (x - 1,) + beta[i + 1:]) in index)
             for beta in positives[len(form):]]

    def closed(rows):
        for k, i in steps:
            rows.append(tuple(map(add, rows[k], rows[i])))
        return rows
    return tuple(closed(list(zip(*closed(list(form))))))


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the full root-system data for one finite simple type."""
    a = cartan_matrix(family, rank)
    sym = _symmetrizer(family, rank)
    den = max(sym)
    form_int = tuple(tuple(s * x for x in row) for s, row in zip(sym, a))
    positives = _positive_roots(a)
    index = {r: i for i, r in enumerate(positives)}
    theta = positives[-1]  # sorted by height first, and the highest root is unique
    table = _pair_table(form_int, positives, index)
    return RootSystem(
        family=family,
        rank=rank,
        positive_roots=positives,
        root_index=index,
        highest_root=theta,
        dual_coxeter=_dual_coxeter(table, den, positives, theta),
        pair_table=table,
        pair_den=den,
    )


def structure_constants(rs: RootSystem) -> Dict[Tuple[Coords, Coords], int]:
    """Chevalley constants [X_a, X_b] = N[a, b] X_(a+b) for every ordered pair
    of roots whose sum is a root: [X_a, X_-a] is the coroot, N[-a, -b] =
    -N[a, b] and |N[a, b]| = p + 1, p the largest with b - p a a root.

    Carter's algorithm (Simple Groups of Lie Type, 1972, 4.2), by height of the
    positive sum xi: +(p + 1) on its extraspecial pair (r0, s0), the first in
    root order of its pairs r + s = xi, the four-root identity over r0 + s0 -
    r - s = 0 on the others, and each triangle u + v + w = 0 filled in all signs
    by antisymmetry and N[u, v]/(w, w) = N[v, w]/(u, u) = N[w, u]/(v, v).
    """
    norm = {r: rs.pair_table[i][i] for i, r in enumerate(rs.positive_roots)}
    norm.update({_neg(r): x for r, x in norm.items()})
    n: Dict[Tuple[Coords, Coords], int] = {}
    for i, xi in enumerate(rs.positive_roots):
        pairs = [(r, s) for r in rs.positive_roots[:i]
                 if rs.root_index.get(s := tuple(map(sub, xi, r)), -1) > rs.root_index[r]]
        for r, s in pairs:
            if (r, s) == pairs[0]:
                x = 1
                while tuple(b - x * a for a, b in zip(r, s)) in norm:
                    x += 1
            else:  # c + d = -(a + b) is a root exactly when a + b is
                (r0, s0), nr, ns = pairs[0], _neg(r), _neg(s)
                t = sum(Q(n[a, b] * n[c, d], norm[tuple(map(add, a, b))])
                        for a, b, c, d in ((s0, nr, r0, ns), (nr, r0, s0, ns)) if (a, b) in n)
                x = int(t * norm[xi] / n[pairs[0]])
            w = _neg(xi)
            for a, b, y in ((r, s, x), (s, w, x * norm[r] // norm[w]),
                            (w, r, x * norm[s] // norm[w])):
                n[a, b], n[b, a], n[_neg(a), _neg(b)], n[_neg(b), _neg(a)] = y, -y, -y, y
    return n


def _neg(r: Coords) -> Coords:
    return tuple(-x for x in r)


def normalized_form(rs: RootSystem, lam: Sequence, mu: Sequence) -> Q:
    """Evaluate the normalized invariant form on two weights in the root span."""
    return rs.form(vec(lam), vec(mu))


def check_hvee_identity(rs: RootSystem) -> bool:
    """sum over positive roots of (w, alpha) alpha == h-vee * w for every w.

    Both sides are linear in w, so the simple roots, a basis, suffice.
    Column j < rank of pair_table holds den (alpha, alpha_j), which makes the
    identity one integer matrix equation (sum alpha alpha^T) S == h-vee den I.
    """
    rank, scale = rs.rank, rs.dual_coxeter * rs.pair_den
    coords = list(zip(*rs.positive_roots))
    columns = list(zip(*(row[:rank] for row in rs.pair_table)))
    return all(sum(map(mul, coords[i], col)) == (scale if i == j else 0)
               for i in range(rank) for j, col in enumerate(columns))
