"""Branching characters, eta factors, and character-level spectral flow.

Everything is exact.  A series holds integer exponent numerators over one
denominator, int coefficients where integral, and an integer validity cap
up to which its coefficients are certified.  Arithmetic propagates validity
pessimistically, so a passing comparison is a proof up to the stated order.

A character is a base weight plus finitely many strings indexed by integer
offsets: root-lattice coordinates on the affine side, dual-grid coordinates
on the coset side.  The two transport directions sum exponential-module
contributions over a lattice, each vector shifting exponents by an integer
numerator; the sums are restricted by certified exponent bounds computed
from the string floors, so no term below the requested order is dropped.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import lcm
from operator import add, mul, sub
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bilinear import (
    ScWeight,
    conformal_weight_plus,
    gram_G_star,
    gram_g_star,
    level_params,
    make_sc_weight,
    sc_weight_to_af,
    weight_to_sc,
)
from .latticekit import (
    build_L_plus,
    enumerate_by_norm,
    f_af,
    g_af_plus,
    g_sc_minus,
    g_sc_plus,
    kernel_K,
)
from .ratlinalg import dot, integer_vector, mat_inv, mat_vec, parse_rational, vec
from .rootsys import RootSystem, build_root_system


class QSeries:
    """A q-series on an integer exponent grid: the sum of c q^(n/den).

    terms maps each exponent numerator n to its nonzero coefficient (an int
    when from_terms, the checked entry, reads an integral one; the
    constructor trusts its input).  cap is the numerator of the validity
    order up to which coefficients are certified; None means the series is
    known completely.  Mixed grids are rescaled once to the lcm of their
    denominators; items(), validity and the other readers return Fractions.
    """

    __slots__ = ("den", "terms", "cap")

    def __init__(self, den: int, terms: Dict[int, object], cap=None) -> None:
        self.den, self.terms, self.cap = den, terms, cap

    @classmethod
    def from_terms(cls, terms, validity=None) -> "QSeries":
        """Series from (exponent, coefficient) pairs; duplicate exponents add."""
        acc: Dict[Q, Q] = {}
        for e, c in terms:
            acc[Q(e)] = acc.get(Q(e), 0) + Q(c)
        v = None if validity is None else Q(validity)
        den = lcm(*(e.denominator for e in acc), v.denominator if v else 1)
        s = cls(den, {int(e * den): int(c) if c.denominator == 1 else c
                      for e, c in acc.items() if c},
                None if v is None else int(v * den))
        if s.cap is not None and any(n > s.cap for n in s.terms):
            raise ValueError("term beyond the validity order")
        return s

    def _on(self, den: int):
        """(terms, cap) on the finer grid 1/den; den is a multiple of self.den."""
        f = den // self.den
        return ({e * f: c for e, c in self.terms.items()} if f > 1
                else self.terms, None if self.cap is None else self.cap * f)

    def items(self) -> Tuple[Tuple[Q, object], ...]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        return tuple((Q(e, self.den), c) for e, c in sorted(self.terms.items()))

    @property
    def validity(self) -> Optional[Q]:
        return None if self.cap is None else Q(self.cap, self.den)

    @property
    def min_exponent(self) -> Optional[Q]:
        return Q(min(self.terms), self.den) if self.terms else None

    def min_bound(self) -> Optional[Q]:
        """Certified lower bound on every exponent; None means plus infinity."""
        return self.min_exponent if self.terms else self.validity

    def coefficient(self, e):
        return self.terms.get(Q(e) * self.den, 0)  # hashes as an int key

    def shift(self, s) -> "QSeries":
        """Multiply by q^s."""
        return self._shift(*Q(s).as_integer_ratio())

    def _shift(self, n: int, d: int) -> "QSeries":
        """Multiply by q^(n/d), for integers n and d > 0."""
        den = lcm(self.den, d)
        (terms, cap), k = self._on(den), n * (den // d)
        return QSeries(den, {e + k: c for e, c in terms.items()},
                       None if cap is None else cap + k)

    def truncate(self, T) -> "QSeries":
        T = Q(T)
        den = lcm(self.den, T.denominator)
        (terms, cap), t = self._on(den), T.numerator * (den // T.denominator)
        v = t if cap is None else min(cap, t)
        return QSeries(den, {e: c for e, c in terms.items() if e <= v}, v)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        den = lcm(self.den, other.den)
        (a, va), (b, vb) = self._on(den), other._on(den)
        v = va if vb is None else vb if va is None else min(va, vb)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return QSeries(den, {e: c for e, c in out.items()
                             if c and (v is None or e <= v)}, v)

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        den = lcm(self.den, other.den)
        (a, va), (b, vb) = self._on(den), other._on(den)
        # each factor is certified up to its validity plus the floor of the
        # other; an exactly-zero factor imposes no finite limit at all
        limits = [v + m for v, m in ((va, min(b, default=vb)),
                                     (vb, min(a, default=va)))
                  if v is not None and m is not None]
        v = min(limits) if limits else None
        out: Dict[int, object] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                if v is None or e <= v:
                    out[e] = out.get(e, 0) + ca * cb
        return QSeries(den, {e: c for e, c in out.items() if c}, v)

    def __repr__(self) -> str:
        shown = self.items()
        body = " + ".join(f"{c}*q^{e}" for e, c in shown[:6]) or "0"
        if len(shown) > 6:
            body += " + ..."
        tag = "exact" if self.cap is None else f"T={self.validity}"
        return f"<QSeries {body} ({tag})>"


def qseries_diff(a: QSeries, b: QSeries, order=None):
    """Nonzero coefficients of a - b up to the jointly certified order.

    Returns (order, diffs); order None means the comparison was unbounded.
    """
    d = a + QSeries(b.den, {e: -c for e, c in b.terms.items()}, b.cap)
    if order is not None:
        d = d.truncate(order)
    return d.validity, d.items()


def eta_power(m: int, T) -> QSeries:
    """The m-th power of q^(1/24) prod(1 - q^n), certified to order T.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) for
    g = f^m with f_0 = 1: n g_n = sum_k ((m + 1) k - n) f_k g_(n-k), where
    f = prod(1 - q^n) has f_k = (-1)^j at the pentagonal numbers
    k = j(3j -+ 1)/2 and 0 elsewhere.  Every g_n is an integer, so the
    division by n is exact.
    """
    m = int(m)
    T = Q(T)
    den = lcm(24, T.denominator)
    lead, cap = m * (den // 24), T.numerator * (den // T.denominator)
    if cap < lead:
        raise ValueError("validity order is below the leading exponent")
    order = (cap - lead) // den
    terms = [(k, (-1) ** j) for j in range(1, order + 1)
             for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if k <= order]
    g = [1]
    for n in range(1, order + 1):
        g.append(sum(((m + 1) * k - n) * f * g[n - k]
                     for k, f in terms if k <= n) // n)
    return QSeries(den, {lead + n * den: c for n, c in enumerate(g) if c}, cap)


@dataclass
class FormalCharacter:
    """A branching character: base weight plus strings on an integer grid.

    rs is the root system the character lives over and level its validated
    level; every constructor checks both, so the transforms trust them.
    Affine-side strings sit at base + (integer combination of simple roots),
    with offsets in simple-root coordinates.  Coset-side strings sit at
    integer offsets on the dual-value grid relative to the base ScWeight.

    floor maps the offset of a stringless weight, its string key, to the
    order up to which it is certified zero; None, the default, is exact.
    """

    side: str
    rs: RootSystem
    level: Q
    base: object
    strings: Dict[Tuple[int, ...], QSeries] = field(default_factory=dict)
    floor: Callable[[Tuple[int, ...]], Optional[Q]] = field(
        default=lambda off: None, compare=False, repr=False)


_SIDE_NAMES = {"af": "affine", "sc": "coset"}


def _on_side(ch: FormalCharacter, side: str) -> RootSystem:
    """The root system of ch, which must be on the given side."""
    if ch.side != side:
        raise ValueError(f"character is not on the {_SIDE_NAMES[side]} side")
    return ch.rs


def affine_character(rs: RootSystem, k, base: Sequence,
                     strings: Dict[Tuple[int, ...], QSeries]) -> FormalCharacter:
    """Convenience constructor applying the same checks the seed reader does."""
    lp = level_params(rs, k)
    base = vec(base)
    if len(base) != rs.rank:
        raise ValueError("dimension mismatch")
    for off in strings:
        if len(off) != rs.rank or any(not isinstance(x, int) for x in off):
            raise ValueError("string offsets must be integer grid vectors")
    return FormalCharacter("af", rs, lp.k, base, dict(strings))


def character_support(ch: FormalCharacter):
    """Strings re-keyed by absolute weight: coordinates (af) or dual values (sc)."""
    base = vec(ch.base) if ch.side == "af" else ch.base.jstar_values(ch.rs)
    return {tuple(b + o for b, o in zip(base, off)): s
            for off, s in ch.strings.items()}


_OFF_COSET = "weight is not in the coset of the character"


def _grid_offset(target: Sequence, base: Sequence,
                 error: Optional[str] = _OFF_COSET):
    """target - base as a tuple of integers.

    Off the integer grid it raises ValueError(error), or returns None when
    error is None.
    """
    return integer_vector((t - b for t, b in zip(target, base)), error)


def _root_coords(gamma: Sequence, rs: RootSystem) -> Tuple[int, ...]:
    if len(gamma) != rs.rank:
        raise ValueError("dimension mismatch")
    return integer_vector(gamma, "weight is not in the root lattice")


_EXACT_ZERO = QSeries(1, {})


def _transport(groups, m: int, T: Q, sd: int) -> Dict[Tuple[int, ...], QSeries]:
    """Sum of q^(sh/sd) * s * eta^m, truncated to T, over the groups
    (s, [(key, sh), ...]) of strings with a floor and integer shifts sh.

    eta^m is expanded once, as far as the lowest planned term needs, and
    multiplied into each string once: (s q^sh) eta = (s eta) q^sh, with the
    same validity.  On one grid for all strings, shifts and T, each vector
    then shifts only the sorted prefix of s eta that survives truncation,
    s.shift(sh).truncate(T) term for term.
    """
    den = lcm(24, T.denominator, sd, *(s.den for s, _ in groups))
    t, f = T.numerator * (den // T.denominator), den // sd
    eta = None
    if m and groups:
        need = max(t - min(s.terms, default=s.cap) * (den // s.den)
                   - min(sh for _, sh in vecs) * f for s, vecs in groups)
        eta = eta_power(m, max(Q(need, den), Q(m, 24)))
    out: Dict[Tuple[int, ...], QSeries] = {}
    for s, vecs in groups:
        terms, cap = (s if eta is None else s * eta)._on(den)
        exps = sorted(terms)
        for key, sh in vecs:
            sh *= f
            v = t - sh if cap is None else min(cap, t - sh)
            kept = exps[:bisect_right(exps, v)]
            term = QSeries(den, {e + sh: terms[e] for e in kept}, v + sh)
            # sum: only test_roundtrip_sees_a_skipped_row_add's mutant collides keys
            out[key] = out[key] + term if key in out else term
    return out


def fermionize_character(ch: FormalCharacter, mu: Sequence, T) -> FormalCharacter:
    """Transport an affine character to the coset side at reference weight mu.

    Each input string is summed against the plus-lattice coset it generates;
    a lattice vector enters the sum exactly when the minimum exponent of its
    contribution is at most T, so the result is certified to order T.  The
    coset xi0 + K is enumerated directly: with y = G_K^-1 B xi0 for the
    kernel basis B, |xi0 + kappa|^2 = |kappa + y|_K^2 + |xi0|^2 - y.B xi0,
    so the K-ball around -y holds exactly the vectors that enter; the search
    returns them embedded in L+, so each costs one xi0 addition and one
    norm.  A weight the result lacks is certified zero up to T.
    """
    rs, k = _on_side(ch, "af"), ch.level
    T = Q(T)
    mu = vec(mu)
    if len(mu) != rs.rank:
        raise ValueError("dimension mismatch")
    m0 = _grid_offset(mu, vec(ch.base))
    delta = conformal_weight_plus(rs, k, mu)
    p, q = (2 * delta).as_integer_ratio()  # shift (q|xi|^2 - p) / 2q
    n_extra = rs.num_positive - rs.rank
    kernel = kernel_K(rs)
    ginv = mat_inv(kernel.lattice.gram)
    groups = []
    for off, s in ch.strings.items():
        floor = s.min_bound()
        if floor is None:
            continue
        d = tuple(off[i] - m0[i] for i in range(rs.rank))
        xi0 = f_af(rs, d, "+")
        bxi0 = tuple(sum(map(mul, r, xi0)) for r in kernel.basis_in_ambient)
        y = mat_vec(ginv, bxi0)
        bound = (2 * (T - floor + delta + Q(n_extra, 24))
                 - sum(map(mul, xi0, xi0)) + dot(y, bxi0))
        if bound < 0:
            continue
        vecs = []
        for kap in enumerate_by_norm(kernel, bound, tuple(-x for x in y)):
            xi = tuple(map(add, xi0, kap))
            vecs.append((xi, q * sum(map(mul, xi, xi)) - p))
        # the ball can be empty even for bound >= 0: its centre need not
        # be a lattice point
        if vecs:
            groups.append((s, vecs))
    out = _transport(groups, -n_extra, T, 2 * q)
    return FormalCharacter("sc", rs, k, weight_to_sc(rs, k, mu), out,
                           lambda off: T)


def defermionize_character(ch: FormalCharacter, mu_sc: ScWeight, T) -> FormalCharacter:
    """Transport a coset character back to the affine side at mu_sc.

    The candidate minus-lattice vectors are read off from the support: a
    string feeds the sum only when its offset agrees with mu_sc outside the
    simple slots, and the simple slots then determine the vector uniquely.
    Each output string records the validity its inputs actually justify.
    A weight it lacks is zero up to T, less a negative shift of the weight
    when no input string would feed it.
    """
    rs, k = _on_side(ch, "sc"), ch.level
    T = Q(T)
    mu = sc_weight_to_af(rs, k, mu_sc)  # checks the algebra and the level
    m0 = _grid_offset(mu_sc.jstar_values(rs), ch.base.jstar_values(rs))
    fibre = m0[rs.rank:]
    p, q = (2 * conformal_weight_plus(rs, k, mu)).as_integer_ratio()
    n_extra = rs.num_positive - rs.rank
    tn, td = (T - Q(n_extra, 24)).as_integer_ratio()

    def shift(z):  # the exponent shift of the string at z, over 2q
        return p - q * sum(x * x for x in z)

    groups = []
    for off, s in ch.strings.items():
        if off[rs.rank:] != fibre:
            continue
        floor = min(s.terms, default=s.cap)
        if floor is None:
            continue
        z = tuple(off[i] - m0[i] for i in range(rs.rank))
        sh = shift(z)
        # floor/den + sh/2q > T - n_extra/24 = tn/td: it starts above T
        if (floor * 2 * q + sh * s.den) * td > tn * 2 * q * s.den:
            continue
        groups.append((s, [(z, sh)]))

    def absent(z):
        if tuple(m + x for m, x in zip(m0, z)) + fibre in ch.strings:
            return T
        return T + min(Q(shift(z), 2 * q) + Q(n_extra, 24), 0)

    return FormalCharacter("af", rs, k, mu,
                           _transport(groups, n_extra, T, 2 * q), absent)


class Comparison(dict):
    """(order, diff) per weight, keyed by the weight's integer numerators
    over den; vacuous if no term is at or below its order."""
    vacuous = True


def _compare_supports(left: FormalCharacter, right: FormalCharacter):
    """Per-weight (order, diff) over the union of two characters' supports,
    in ascending order of the weights base + offset (simple-root coordinates
    on the af side, dual values on the sc side) as integer numerators over D,
    the lcm of both bases' denominators.  A weight missing on one side is
    that side's zero up to its floor at that offset, exact off its grid."""
    bases = [vec(ch.base) if ch.side == "af" else ch.base.jstar_values(ch.rs)
             for ch in (left, right)]
    D = lcm(*(x.denominator for base in bases for x in base))
    shifts = [[int(D * b) for b in base] for base in bases]
    lsup, rsup = ({tuple(n + D * o for n, o in zip(shift, off)): s
                   for off, s in ch.strings.items()}
                  for ch, shift in zip((left, right), shifts))
    orders: Dict[Tuple[int, int], Q] = {}
    diffs = Comparison()
    diffs.den = D
    for num in sorted(lsup.keys() | rsup.keys()):
        a, b = lsup.get(num), rsup.get(num)
        if a is None or b is None:
            ch, shift = (left, shifts[0]) if a is None else (right, shifts[1])
            qr = [divmod(n - s, D) for n, s in zip(num, shift)]
            f = None if any(r for _, r in qr) else ch.floor(tuple(o for o, _ in qr))
            zero = (_EXACT_ZERO if f is None
                    else QSeries(f.denominator, {}, f.numerator))
            a, b = zero if a is None else a, zero if b is None else b
        den = lcm(a.den, b.den)
        (ta, va), (tb, vb) = a._on(den), b._on(den)
        v = va if vb is None else vb if va is None else min(va, vb)
        out = {}
        if ta != tb:
            out = dict(ta)
            for e, c in tb.items():
                out[e] = out.get(e, 0) - c
        if v is not None and (v, den) not in orders:
            orders[v, den] = Q(v, den)
        diffs[num] = (v if v is None else orders[v, den],
                      tuple((Q(e, den), c) for e, c in sorted(out.items())
                            if c and (v is None or e <= v)))
        if diffs.vacuous:
            diffs.vacuous = not any(v is None or min(t) <= v
                                    for t in (ta, tb) if t)
    return diffs


class RoundTrip(NamedTuple):
    ok: bool
    diffs: Comparison


def roundtrip_check(ch: FormalCharacter, mu: Sequence, T) -> RoundTrip:
    """Transport to the coset side and back, then compare weight by weight.

    A weight missing from either character is compared as a zero certified
    up to that character's floor.  A nonempty diff is a verdict, not an
    exception.
    """
    sc = fermionize_character(ch, mu, T)
    diffs = _compare_supports(ch, defermionize_character(sc, sc.base, T))
    return RoundTrip(all(not d for _, d in diffs.values()), diffs)


def _string_at(ch: FormalCharacter, weight: Sequence) -> QSeries:
    """The string at an absolute affine weight; absent weights are zero."""
    off = _grid_offset(weight, vec(ch.base), error=None)
    return _EXACT_ZERO if off is None else ch.strings.get(off, _EXACT_ZERO)


class SupportPairs(NamedTuple):
    ok: bool
    members: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]
    compare_order: Optional[Q]
    diff: Tuple[Tuple[Q, Q], ...]


def cflemma_check(gamma: Sequence, seed: FormalCharacter, mu: Sequence, T,
                  enumeration_bound) -> SupportPairs:
    """Check the paired-lattice string identity at gamma by enumeration.

    The pair constraints force the minus vector coordinatewise and pin the
    plus vector through its dual values.  The enumeration bound must cover
    the forced candidate, otherwise the check refuses rather than report a
    vacuous truth over an incomplete support set.
    """
    rs, k = _on_side(seed, "af"), seed.level
    g = _root_coords(gamma, rs)
    T = Q(T)
    bound = Q(enumeration_bound)
    mu = vec(mu)
    _grid_offset(mu, vec(seed.base))
    zeta = f_af(rs, g, "-")
    forced = f_af(rs, g, "+")
    if Q(sum(x * x for x in forced)) > bound:
        raise ValueError("enumeration bound cannot certify the support set")
    target = tuple(-x for x in g_sc_minus(rs, k, zeta).jstar_values(rs))
    members = []
    for xi in enumerate_by_norm(build_L_plus(rs), bound):
        if g_sc_plus(rs, k, xi).jstar_values(rs) == target:
            members.append(xi)
    zeta_norm = -sum(x * x for x in zeta)
    lhs = _EXACT_ZERO
    for xi in members:
        sh = Q(sum(x * x for x in xi) + zeta_norm, 2)
        w = tuple(m + c for m, c in zip(mu, g_af_plus(rs, xi)))
        lhs = lhs + _string_at(seed, w).shift(sh)
    rhs = _string_at(seed, tuple(m + c for m, c in zip(mu, g)))
    to, d = qseries_diff(lhs, rhs, T)
    return SupportPairs(not d, tuple((xi, zeta) for xi in members), to, d)


def _sc_flow_form(rs: RootSystem, k, g: Sequence[int]):
    """The quadratic term g.g*.g / 2 of a coset flow by g, g* at level k."""
    gs = gram_g_star(rs, k)
    return sum(g[i] * g[j] * gs[i][j]
               for i in range(rs.rank) for j in range(rs.rank)) / 2


def _flow(ch: FormalCharacter, new_base, rekey, g, const) -> FormalCharacter:
    """ch at new_base, the string or floor at off moved to off - rekey and
    times q^(const + g.off), on integer numerators over den(const)."""
    cn, cd = const.as_integer_ratio()

    def shift(off):  # the exponent shift at off, over cd
        return cn + cd * sum(map(mul, g, off))

    out = {tuple(map(sub, off, rekey)): s._shift(shift(off), cd)
           for off, s in ch.strings.items()}

    def floor(off):
        pre = tuple(map(add, off, rekey))
        f = ch.floor(pre)
        return None if f is None else f + Q(shift(pre), cd)

    return FormalCharacter(ch.side, ch.rs, ch.level, new_base, out, floor)


def spectral_flow_sc(ch: FormalCharacter, gamma: Sequence) -> FormalCharacter:
    """Twist a coset character by a root-lattice vector.

    Closed form, locked by the transport-equivalence regression tests: the
    base translates by the plus embedding of gamma on the J grid, and each
    string and the floor shift by their dual values against gamma plus the
    quadratic dual-form term.
    """
    rs, k = _on_side(ch, "sc"), ch.level
    g = _root_coords(gamma, rs)
    new_base = make_sc_weight(
        rs, k, tuple(map(add, ch.base.j_values, f_af(rs, g, "+"))))
    const = _sc_flow_form(rs, k, g) + sum(map(mul, g, ch.base.jstar_values(rs)))
    return _flow(ch, new_base, (0,) * rs.num_positive, g, const)


def _flow_coefficients(rs: RootSystem, gamma: ScWeight) -> Tuple[int, ...]:
    return integer_vector(gamma.jstar_values(rs),
                          "flow weight is not in the coset root lattice")


def spectral_flow_af(ch: FormalCharacter, gamma: ScWeight) -> FormalCharacter:
    """Twist an affine character by a coset-lattice weight.

    Any weight with integral dual values is accepted; only its simple-slot
    coefficients enter the twist.  Closed form, locked by the
    transport-equivalence regression tests: the base translates by the
    affine image of gamma, strings and floor re-key by the simple-slot
    coefficients and shift so the two reference normalizations agree.  The
    constant part telescopes under composition, so flows add exactly.
    """
    rs, k = _on_side(ch, "af"), ch.level
    if gamma.level != k:
        raise ValueError("weight level does not match")
    n = _flow_coefficients(rs, gamma)[: rs.rank]
    base = vec(ch.base)
    new_base = tuple(map(add, base, sc_weight_to_af(rs, k, gamma)))
    const = (conformal_weight_plus(rs, k, new_base)
             - conformal_weight_plus(rs, k, base)
             - Q(sum(x * x for x in n), 2))
    return _flow(ch, new_base, n, n, const)


class FlowFrame(NamedTuple):
    xi: Tuple[int, ...]
    zeta: Tuple[int, ...]
    h_coefficients: Tuple[Q, ...]


def spectral_flow_af_frame(rs: RootSystem, k, gamma: ScWeight) -> FlowFrame:
    """The free-field data realizing an affine-side flow, for diagnostics.

    Returns the plus-kernel vector, the minus-lattice vector, and the
    coefficients of the twist field over the dual minus-side generators.
    """
    lp = level_params(rs, k)
    if gamma.level != lp.k:
        raise ValueError("weight level does not match")
    c = _flow_coefficients(rs, gamma)
    npos = rs.num_positive
    xi = [0] * npos
    zeta = [0] * rs.rank
    for idx, alpha in enumerate(rs.positive_roots):
        coef = c[idx]
        if coef == 0:
            continue
        for j in range(rs.rank):
            zeta[j] += coef * alpha[j]
        if idx >= rs.rank:
            xi[idx] += coef
            for j in range(rs.rank):
                xi[j] -= coef * alpha[j]
    gstar = gram_G_star(rs, lp.k)
    h = tuple(sum((Q(c[a]) * gstar[a][b] for a in range(npos)), Q(0))
              for b in range(npos))
    return FlowFrame(tuple(xi), tuple(zeta), h)


def flow_sc_equivariance_diff(ch: FormalCharacter, mu: Sequence,
                              gamma: Sequence, T):
    """Compare transport at mu - gamma with the flow of transport at mu.

    Weights absent from one side are compared as zeros certified up to that
    side's floor.  Returns per-weight (order, diff).
    """
    g = _root_coords(gamma, _on_side(ch, "af"))
    mu = vec(mu)
    left = fermionize_character(ch, tuple(m - x for m, x in zip(mu, g)), T)
    right = spectral_flow_sc(fermionize_character(ch, mu, T), g)
    return _compare_supports(left, right)


def flow_af_equivariance_diff(ch: FormalCharacter, mu_sc: ScWeight,
                              gamma: ScWeight, T):
    """Compare transport at mu_sc + gamma with the flow of transport at mu_sc.

    Weights absent from one side are compared as zeros certified up to that
    side's floor.  Returns per-weight (order, diff); all-empty diffs certify
    the identity.
    """
    _flow_coefficients(_on_side(ch, "sc"), gamma)  # refuse gamma first
    left = defermionize_character(ch, mu_sc + gamma, T)
    right = spectral_flow_af(defermionize_character(ch, mu_sc, T), gamma)
    return _compare_supports(left, right)


class SeedReport(NamedTuple):
    character: Optional[FormalCharacter]
    problems: Tuple[str, ...]


def validate_seed(raw) -> SeedReport:
    """Build an affine character from seed data, or report every violation.

    A seed is exact: its strings are finite polynomials with no validity cap,
    and each must declare the minimum exponent it actually attains.  Any
    decoded JSON value is accepted; a non-seed yields problems, never raises.
    """
    if not isinstance(raw, dict):
        return SeedReport(None, ("seed is not a JSON object",))
    problems: List[str] = []
    for key in ("type", "rank", "level", "base_weight", "strings"):
        if key not in raw:
            problems.append(f"missing field: {key}")
    if problems:
        return SeedReport(None, tuple(problems))
    rank = raw["rank"]
    if isinstance(rank, bool) or not isinstance(rank, int):
        return SeedReport(None, (f"bad root system: rank is not a JSON"
                                 f" integer: {rank!r}",))
    try:
        rs = build_root_system(str(raw["type"]), rank)
    except (TypeError, ValueError, OverflowError) as exc:
        return SeedReport(None, (f"bad root system: {exc}",))
    try:
        k = parse_rational(raw["level"])
        level_params(rs, k)
    except ValueError as exc:
        return SeedReport(None, (f"bad level: {exc}",))
    base_raw = raw["base_weight"]
    if not isinstance(base_raw, list) or len(base_raw) != rs.rank:
        return SeedReport(None, ("base weight has the wrong length",))
    try:
        base = tuple(parse_rational(x) for x in base_raw)
    except ValueError as exc:
        return SeedReport(None, (f"bad base weight: {exc}",))
    if not isinstance(raw["strings"], list):
        return SeedReport(None, ("strings is not a list",))
    strings: Dict[Tuple[int, ...], QSeries] = {}
    for entry in raw["strings"]:
        if not isinstance(entry, dict):
            problems.append(f"string entry is not an object: {entry!r}")
            continue
        label = str(entry.get("weight_offset"))
        off_raw = entry.get("weight_offset")
        if not isinstance(off_raw, list) or len(off_raw) != rs.rank:
            problems.append(f"weight offset has the wrong length: {label}")
            continue
        try:
            off_q = [parse_rational(x) for x in off_raw]
        except ValueError as exc:
            problems.append(f"bad weight offset {label}: {exc}")
            continue
        off = integer_vector(off_q, None)
        if off is None:
            problems.append(
                f"weight offset is not in the root lattice: {label}")
            continue
        if off in strings:
            problems.append(f"duplicate weight offset: {label}")
            continue
        terms_raw = entry.get("terms")
        if not terms_raw:
            problems.append(f"string has no terms: {label}")
            continue
        if not isinstance(terms_raw, list):
            problems.append(f"terms is not a list in string {label}")
            continue
        terms = []
        seen = set()
        bad = False
        for t in terms_raw:
            try:
                e = parse_rational(t["exp"])
                c = parse_rational(t["coef"])
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"bad term in string {label}: {exc}")
                bad = True
                break
            if e in seen:
                problems.append(f"duplicate exponent {e} in string {label}")
                bad = True
                break
            if c == 0:
                problems.append(f"zero coefficient at {e} in string {label}")
                bad = True
                break
            seen.add(e)
            terms.append((e, c))
        if bad:
            continue
        if "min_exp" not in entry or entry["min_exp"] is None:
            problems.append(f"no minimum exponent declared: {label}")
            continue
        try:
            declared = parse_rational(entry["min_exp"])
        except ValueError as exc:
            problems.append(f"bad minimum exponent in string {label}: {exc}")
            continue
        actual = min(e for e, _ in terms)
        if declared != actual:
            problems.append(
                f"declared minimum exponent {declared} does not match "
                f"{actual} in string {label}")
            continue
        strings[off] = QSeries.from_terms(terms)
    if problems:
        return SeedReport(None, tuple(problems))
    ch = FormalCharacter("af", rs, Q(k), base, strings)
    return SeedReport(ch, ())


def character_to_json(ch: FormalCharacter) -> dict:
    """Seed-schema dict for a character, exact rationals rendered as strings."""
    if ch.side == "af":
        base_out = [str(Q(x)) for x in ch.base]
    else:
        base_out = [str(x) for x in ch.base.j_values]
    strings = []
    for off in sorted(ch.strings):
        s = ch.strings[off]
        entry = {
            "weight_offset": list(off),
            "terms": [{"exp": str(e), "coef": str(c)} for e, c in s.items()],
            "min_exp": None if s.min_exponent is None else str(s.min_exponent),
            "validity_order": None if s.validity is None else str(s.validity),
        }
        strings.append(entry)
    return {
        "type": ch.rs.family,
        "rank": ch.rs.rank,
        "level": str(ch.level),
        "side": ch.side,
        "base_weight": base_out,
        "strings": strings,
    }
