"""Branching characters, eta factors, and character-level spectral flow.

Everything is exact: exponents and coefficients are Fractions, and every
series carries a validity order up to which its coefficients are certified.
Arithmetic propagates validity pessimistically, so a passing comparison is a
proof up to the stated order, never an artifact of truncation.

A character is a base weight plus finitely many strings indexed by integer
offsets: root-lattice coordinates on the affine side, dual-grid coordinates
on the coset side.  The two transport directions sum exponential-module
contributions over a lattice; the sums are restricted by certified exponent
bounds computed from the string floors, so no term below the requested order
is ever silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import isqrt, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
from .ratlinalg import Vector, vec
from .rootsys import RootSystem, build_root_system


class QSeries:
    """A q-series with exact rational exponents on a fixed grid.

    Exponents live on offset + Z/denom and coefficients are stored by the
    integer grid index.  validity is the order up to which coefficients are
    certified; None means the series is known completely (a polynomial).
    """

    __slots__ = ("offset", "denom", "coeffs", "validity")

    def __init__(self, offset, denom: int, coeffs: Dict[int, Q],
                 validity=None) -> None:
        self.offset = Q(offset)
        self.denom = int(denom)
        if self.denom < 1:
            raise ValueError("grid denominator must be positive")
        self.validity = None if validity is None else Q(validity)
        kept: Dict[int, Q] = {}
        for j, c in coeffs.items():
            c = Q(c)
            if c == 0:
                continue
            j = int(j)
            if self.validity is not None and self._exp(j) > self.validity:
                raise ValueError("term beyond the validity order")
            kept[j] = c
        self.coeffs = kept

    @classmethod
    def from_terms(cls, terms, validity=None) -> "QSeries":
        """Series from (exponent, coefficient) pairs; duplicate exponents add."""
        pairs = [(Q(e), Q(c)) for e, c in terms]
        denom = 1
        for e, _ in pairs:
            denom = lcm(denom, e.denominator)
        coeffs: Dict[int, Q] = {}
        for e, c in pairs:
            j = int(e * denom)
            coeffs[j] = coeffs.get(j, Q(0)) + c
        return cls(Q(0), denom, coeffs, validity)

    def _exp(self, j: int) -> Q:
        return self.offset + Q(j, self.denom)

    def items(self) -> Tuple[Tuple[Q, Q], ...]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        return tuple(sorted((self._exp(j), c) for j, c in self.coeffs.items()))

    @property
    def min_exponent(self) -> Optional[Q]:
        if not self.coeffs:
            return None
        return self._exp(min(self.coeffs))

    def min_bound(self) -> Optional[Q]:
        """Certified lower bound on every exponent; None means plus infinity."""
        m = self.min_exponent
        return m if m is not None else self.validity

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e) -> Q:
        j = (Q(e) - self.offset) * self.denom
        if j.denominator != 1:
            return Q(0)
        return self.coeffs.get(int(j), Q(0))

    def shift(self, s) -> "QSeries":
        """Multiply by q^s."""
        s = Q(s)
        v = None if self.validity is None else self.validity + s
        return QSeries(self.offset + s, self.denom, dict(self.coeffs), v)

    def scale(self, c) -> "QSeries":
        c = Q(c)
        if c == 0:
            return QSeries(0, 1, {}, None)
        return QSeries(self.offset, self.denom,
                       {j: c * x for j, x in self.coeffs.items()}, self.validity)

    def truncate(self, T) -> "QSeries":
        T = Q(T)
        v = T if self.validity is None else min(self.validity, T)
        kept = {j: c for j, c in self.coeffs.items() if self._exp(j) <= v}
        return QSeries(self.offset, self.denom, kept, v)

    def __neg__(self) -> "QSeries":
        return self.scale(-1)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        delta = other.offset - self.offset
        d = lcm(self.denom, other.denom, delta.denominator)
        out: Dict[int, Q] = {}
        step = d // self.denom
        for j, c in self.coeffs.items():
            out[j * step] = out.get(j * step, Q(0)) + c
        for j, c in other.coeffs.items():
            jj = int((delta + Q(j, other.denom)) * d)
            out[jj] = out.get(jj, Q(0)) + c
        if self.validity is None:
            v = other.validity
        elif other.validity is None:
            v = self.validity
        else:
            v = min(self.validity, other.validity)
        if v is not None:
            out = {j: c for j, c in out.items() if self.offset + Q(j, d) <= v}
        return QSeries(self.offset, d, out, v)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        # each factor is certified up to its validity plus the floor of the
        # other; an exactly-zero factor imposes no finite limit at all
        limits = []
        for v, m in ((self.validity, other.min_bound()),
                     (other.validity, self.min_bound())):
            if v is not None and m is not None:
                limits.append(v + m)
        v = min(limits) if limits else None
        d = lcm(self.denom, other.denom)
        off = self.offset + other.offset
        sa = d // self.denom
        sb = d // other.denom
        out: Dict[int, Q] = {}
        for ja, ca in self.coeffs.items():
            for jb, cb in other.coeffs.items():
                j = ja * sa + jb * sb
                if v is not None and off + Q(j, d) > v:
                    continue
                out[j] = out.get(j, Q(0)) + ca * cb
        return QSeries(off, d, out, v)

    def __repr__(self) -> str:
        shown = self.items()
        body = " + ".join(f"{c}*q^{e}" for e, c in shown[:6]) or "0"
        if len(shown) > 6:
            body += " + ..."
        tag = "exact" if self.validity is None else f"T={self.validity}"
        return f"<QSeries {body} ({tag})>"


def qseries_diff(a: QSeries, b: QSeries, order=None):
    """Nonzero coefficients of a - b up to the jointly certified order.

    Returns (order, diffs); order None means the comparison was unbounded.
    """
    bounds = [v for v in (a.validity, b.validity) if v is not None]
    if order is not None:
        bounds.append(Q(order))
    to = min(bounds) if bounds else None
    acc: Dict[Q, Q] = {}
    for series, sign in ((a, 1), (b, -1)):
        for e, c in series.items():
            if to is None or e <= to:
                acc[e] = acc.get(e, Q(0)) + sign * c
    return to, tuple(sorted((e, c) for e, c in acc.items() if c != 0))


def _euler_factor_coeffs(order: int) -> Dict[int, int]:
    """Coefficients of prod(1 - q^n) up to q^order, by the pentagonal rule."""
    out = {0: 1}
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        sign = 1 if j % 2 == 0 else -1
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= order:
                out[e] = sign
        j += 1
    return out


def _partition_coeffs(order: int) -> Dict[int, int]:
    """Partition numbers p(0..order) via the pentagonal recurrence."""
    p = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        j = 1
        while j * (3 * j - 1) // 2 <= n:
            sign = 1 if j % 2 == 1 else -1
            for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if e <= n:
                    total += sign * p[n - e]
            j += 1
        p[n] = total
    return {n: p[n] for n in range(order + 1) if p[n]}


def _convolve(a: Dict[int, int], b: Dict[int, int], order: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            if i + j <= order:
                out[i + j] = out.get(i + j, 0) + x * y
    return {n: c for n, c in out.items() if c}


def eta_power(m: int, T) -> QSeries:
    """The m-th power of q^(1/24) prod(1 - q^n), certified to order T."""
    m = int(m)
    T = Q(T)
    lead = Q(m, 24)
    if T < lead:
        raise ValueError("validity order is below the leading exponent")
    span = T - lead
    order = span.numerator // span.denominator
    base = _euler_factor_coeffs(order) if m >= 0 else _partition_coeffs(order)
    acc = {0: 1}
    for _ in range(abs(m)):
        acc = _convolve(acc, base, order)
    return QSeries(lead, 1, {j: Q(c) for j, c in acc.items()}, T)


@dataclass
class FormalCharacter:
    """A branching character: base weight plus strings on an integer grid.

    Affine-side strings sit at base + (integer combination of simple roots),
    with offsets in simple-root coordinates.  Coset-side strings sit at
    integer offsets on the dual-value grid relative to the base ScWeight.
    """

    side: str
    family: str
    rank: int
    level: Q
    base: object
    strings: Dict[Tuple[int, ...], QSeries] = field(default_factory=dict)


def _char_rs(ch: FormalCharacter) -> RootSystem:
    return build_root_system(ch.family, ch.rank)


def _check_character(ch: FormalCharacter, rs: RootSystem) -> None:
    if (rs.family, rs.rank) != (ch.family, ch.rank):
        raise ValueError("root system does not match the character")
    if ch.side == "af":
        if len(ch.base) != rs.rank:
            raise ValueError("dimension mismatch")
        width = rs.rank
    elif ch.side == "sc":
        ch.base._check(rs)
        if ch.base.level != ch.level:
            raise ValueError("weight level does not match")
        width = rs.num_positive
    else:
        raise ValueError("side must be 'af' or 'sc'")
    for off in ch.strings:
        if len(off) != width or any(not isinstance(x, int) for x in off):
            raise ValueError("string offsets must be integer grid vectors")


def affine_character(rs: RootSystem, k, base: Sequence,
                     strings: Dict[Tuple[int, ...], QSeries]) -> FormalCharacter:
    """Convenience constructor applying the same checks the seed reader does."""
    lp = level_params(rs, k)
    ch = FormalCharacter("af", rs.family, rs.rank, lp.k, vec(base), dict(strings))
    _check_character(ch, rs)
    return ch


def character_support(rs: RootSystem, ch: FormalCharacter):
    """Strings re-keyed by absolute weight: coordinates (af) or dual values (sc)."""
    if ch.side == "af":
        base = vec(ch.base)
    else:
        base = ch.base.jstar_values(rs)
    return {tuple(b + o for b, o in zip(base, off)): s
            for off, s in ch.strings.items()}


def _integer_offset(target: Sequence, base: Sequence) -> Tuple[int, ...]:
    out = []
    for t, b in zip(target, base):
        d = Q(t) - Q(b)
        if d.denominator != 1:
            raise ValueError("weight is not in the coset of the character")
        out.append(int(d))
    return tuple(out)


def _root_coords(gamma: Sequence, rs: RootSystem) -> Tuple[int, ...]:
    if len(gamma) != rs.rank:
        raise ValueError("dimension mismatch")
    out = []
    for x in gamma:
        q = Q(x)
        if q.denominator != 1:
            raise ValueError("weight is not in the root lattice")
        out.append(int(q))
    return tuple(out)


def _ceil_sqrt(x: Q) -> int:
    """Smallest nonnegative integer a with a*a >= x."""
    if x <= 0:
        return 0
    n = -((-x.numerator) // x.denominator)
    a = isqrt(n)
    if a * a < x:
        a += 1
    return a


_EXACT_ZERO = QSeries(0, 1, {}, None)


def fermionize_character(ch: FormalCharacter, mu: Sequence, T) -> FormalCharacter:
    """Transport an affine character to the coset side at reference weight mu.

    Each input string is summed against the plus-lattice coset it generates;
    a lattice vector enters the sum exactly when the minimum exponent of its
    contribution is at most T, so the result is certified to order T.
    """
    rs = _char_rs(ch)
    _check_character(ch, rs)
    if ch.side != "af":
        raise ValueError("character is not on the affine side")
    lp = level_params(rs, ch.level)
    T = Q(T)
    mu = vec(mu)
    if len(mu) != rs.rank:
        raise ValueError("dimension mismatch")
    m0 = _integer_offset(mu, vec(ch.base))
    delta = conformal_weight_plus(rs, lp.k, mu)
    n_extra = rs.num_positive - rs.rank
    kernel = kernel_K(rs)
    plans: List[Tuple[Tuple[int, ...], QSeries, Q]] = []
    for off, s in ch.strings.items():
        floor = s.min_bound()
        if floor is None:
            continue
        d = tuple(off[i] - m0[i] for i in range(rs.rank))
        xi0 = f_af(rs, d, "+").coords
        cap = 2 * (T - floor + delta + Q(n_extra, 24))
        if cap < 0:
            continue
        reach = (_ceil_sqrt(cap) + _ceil_sqrt(Q(sum(x * x for x in xi0)))) ** 2
        for kap in enumerate_by_norm(kernel.lattice, reach):
            amb = kernel.embed(kap)
            xi = tuple(a + b for a, b in zip(xi0, amb))
            norm2 = sum(x * x for x in xi)
            if norm2 > cap:
                continue
            plans.append((xi, s, Q(norm2, 2) - delta))
    eta = None
    if n_extra and plans:
        need = max(T - (s.min_bound() + sh) for _, s, sh in plans)
        eta = eta_power(-n_extra, max(need, Q(-n_extra, 24)))
    out: Dict[Tuple[int, ...], QSeries] = {}
    for xi, s, sh in plans:
        term = s.shift(sh)
        if eta is not None:
            term = term * eta
        term = term.truncate(T)
        out[xi] = out[xi] + term if xi in out else term
    return FormalCharacter("sc", ch.family, ch.rank, lp.k,
                           weight_to_sc(rs, lp.k, mu), out)


def defermionize_character(ch: FormalCharacter, mu_sc: ScWeight, T) -> FormalCharacter:
    """Transport a coset character back to the affine side at mu_sc.

    The candidate minus-lattice vectors are read off from the support: a
    string feeds the sum only when its offset agrees with mu_sc outside the
    simple slots, and the simple slots then determine the vector uniquely.
    Each output string records the validity its inputs actually justify.
    """
    rs = _char_rs(ch)
    _check_character(ch, rs)
    if ch.side != "sc":
        raise ValueError("character is not on the coset side")
    lp = level_params(rs, ch.level)
    T = Q(T)
    mu_sc._check(rs)
    if mu_sc.level != lp.k:
        raise ValueError("weight level does not match")
    m0 = _integer_offset(mu_sc.jstar_values(rs), ch.base.jstar_values(rs))
    mu = sc_weight_to_af(rs, lp.k, mu_sc)
    delta = conformal_weight_plus(rs, lp.k, mu)
    n_extra = rs.num_positive - rs.rank
    plans: List[Tuple[Tuple[int, ...], QSeries, Q]] = []
    for off, s in ch.strings.items():
        rel = tuple(off[i] - m0[i] for i in range(rs.num_positive))
        if any(rel[rs.rank:]):
            continue
        floor = s.min_bound()
        if floor is None:
            continue
        z = rel[: rs.rank]
        sh = delta - Q(sum(x * x for x in z), 2)
        if floor + sh + Q(n_extra, 24) > T:
            continue
        plans.append((z, s, sh))
    eta = None
    if n_extra and plans:
        need = max(T - (s.min_bound() + sh) for _, s, sh in plans)
        eta = eta_power(n_extra, max(need, Q(n_extra, 24)))
    out: Dict[Tuple[int, ...], QSeries] = {}
    for z, s, sh in plans:
        term = s.shift(sh)
        if eta is not None:
            term = term * eta
        out[z] = term.truncate(T)
    return FormalCharacter("af", ch.family, ch.rank, lp.k, mu, out)


class RoundTrip(NamedTuple):
    ok: bool
    diffs: Dict[Tuple[Q, ...], Tuple[Optional[Q], Tuple[Tuple[Q, Q], ...]]]


def roundtrip_check(ch: FormalCharacter, mu: Sequence, k, T) -> RoundTrip:
    """Transport to the coset side and back, then compare weight by weight.

    Weights missing from the returned character are compared as certified
    zeros: a weight reachable only through a heavier lattice vector is known
    to vanish up to T plus that vector's exponent shift, and the comparison
    stops there.  A nonempty diff is a verdict, not an exception.
    """
    rs = _char_rs(ch)
    _check_character(ch, rs)
    lp = level_params(rs, k)
    if lp.k != ch.level:
        raise ValueError("level mismatch with the character")
    T = Q(T)
    mu = vec(mu)
    sc = fermionize_character(ch, mu, T)
    back = defermionize_character(sc, weight_to_sc(rs, lp.k, mu), T)
    delta = conformal_weight_plus(rs, lp.k, mu)
    n_extra = rs.num_positive - rs.rank
    orig = character_support(rs, ch)
    got = character_support(rs, back)
    diffs: Dict[Tuple[Q, ...], Tuple[Optional[Q], Tuple[Tuple[Q, Q], ...]]] = {}
    ok = True
    for key in sorted(set(orig) | set(got)):
        a = orig.get(key, _EXACT_ZERO)
        b = got.get(key)
        if b is None:
            z = _integer_offset(key, mu)
            sh = delta - Q(sum(x * x for x in z), 2) + Q(n_extra, 24)
            b = QSeries(0, 1, {}, min(T, T + sh))
        to, d = qseries_diff(a, b)
        diffs[key] = (to, d)
        if d:
            ok = False
    return RoundTrip(ok, diffs)


def _string_at(ch: FormalCharacter, weight: Sequence) -> QSeries:
    """The string at an absolute affine weight; absent weights are zero."""
    off = []
    for t, b in zip(weight, vec(ch.base)):
        d = Q(t) - b
        if d.denominator != 1:
            return _EXACT_ZERO
        off.append(int(d))
    return ch.strings.get(tuple(off), _EXACT_ZERO)


class SupportPairs(NamedTuple):
    ok: bool
    members: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]
    compare_order: Optional[Q]
    diff: Tuple[Tuple[Q, Q], ...]


def cflemma_check(rs: RootSystem, gamma: Sequence, seed: FormalCharacter,
                  mu: Sequence, T, enumeration_bound) -> SupportPairs:
    """Check the paired-lattice string identity at gamma by enumeration.

    The pair constraints force the minus vector coordinatewise and pin the
    plus vector through its dual values.  The enumeration bound must cover
    the forced candidate, otherwise the check refuses rather than report a
    vacuous truth over an incomplete support set.
    """
    _check_character(seed, rs)
    if seed.side != "af":
        raise ValueError("character is not on the affine side")
    lp = level_params(rs, seed.level)
    g = _root_coords(gamma, rs)
    T = Q(T)
    bound = Q(enumeration_bound)
    mu = vec(mu)
    _integer_offset(mu, vec(seed.base))
    zeta = f_af(rs, g, "-")
    forced = f_af(rs, g, "+").coords
    if Q(sum(x * x for x in forced)) > bound:
        raise ValueError("enumeration bound cannot certify the support set")
    target = tuple(-x for x in g_sc_minus(rs, lp.k, zeta).jstar_values(rs))
    members = []
    for xi in enumerate_by_norm(build_L_plus(rs), bound):
        if g_sc_plus(rs, lp.k, xi).jstar_values(rs) == target:
            members.append(xi)
    zeta_norm = -sum(x * x for x in zeta.coords)
    lhs = _EXACT_ZERO
    for xi in members:
        sh = Q(sum(x * x for x in xi) + zeta_norm, 2)
        w = tuple(m + c for m, c in zip(mu, g_af_plus(rs, xi)))
        lhs = lhs + _string_at(seed, w).shift(sh)
    rhs = _string_at(seed, tuple(m + c for m, c in zip(mu, g)))
    to, d = qseries_diff(lhs, rhs, T)
    return SupportPairs(not d, tuple((xi, zeta.coords) for xi in members), to, d)


def spectral_flow_sc(ch: FormalCharacter, gamma: Sequence, k) -> FormalCharacter:
    """Twist a coset character by a root-lattice vector.

    Closed form, locked by the transport-equivalence regression tests: the
    base translates by the plus embedding of gamma on the J grid, and each
    string shifts by its dual values against gamma plus the quadratic
    dual-form term.
    """
    rs = _char_rs(ch)
    _check_character(ch, rs)
    if ch.side != "sc":
        raise ValueError("character is not on the coset side")
    lp = level_params(rs, k)
    if lp.k != ch.level:
        raise ValueError("level mismatch with the character")
    g = _root_coords(gamma, rs)
    pad = f_af(rs, g, "+").coords
    gs = gram_g_star(rs, lp.k)
    quad = sum(g[i] * g[j] * gs[i][j]
               for i in range(rs.rank) for j in range(rs.rank)) / 2
    base_js = ch.base.jstar_values(rs)
    new_base = make_sc_weight(
        rs, lp.k, tuple(v + p for v, p in zip(ch.base.j_values, pad)))
    out = {}
    for off, s in ch.strings.items():
        lin = sum((g[i] * (base_js[i] + off[i]) for i in range(rs.rank)), Q(0))
        out[off] = s.shift(lin + quad)
    return FormalCharacter("sc", ch.family, ch.rank, lp.k, new_base, out)


def _flow_coefficients(rs: RootSystem, gamma: ScWeight) -> Tuple[int, ...]:
    values = gamma.jstar_values(rs)
    if any(x.denominator != 1 for x in values):
        raise ValueError("flow weight is not in the coset root lattice")
    return tuple(int(x) for x in values)


def spectral_flow_af(ch: FormalCharacter, gamma: ScWeight, k) -> FormalCharacter:
    """Twist an affine character by a coset-lattice weight.

    Any weight with integral dual values is accepted; only its simple-slot
    coefficients enter the twist.  Closed form, locked by the
    transport-equivalence regression tests: the base translates by the
    affine image of gamma, strings re-key by the simple-slot coefficients,
    and exponents shift so the two reference normalizations agree.  The
    constant part telescopes under composition, so flows add exactly.
    """
    rs = _char_rs(ch)
    _check_character(ch, rs)
    if ch.side != "af":
        raise ValueError("character is not on the affine side")
    lp = level_params(rs, k)
    if lp.k != ch.level:
        raise ValueError("level mismatch with the character")
    if gamma.level != lp.k:
        raise ValueError("weight level does not match")
    n = _flow_coefficients(rs, gamma)[: rs.rank]
    base = vec(ch.base)
    t = sc_weight_to_af(rs, lp.k, gamma)
    new_base = tuple(b + x for b, x in zip(base, t))
    const = (conformal_weight_plus(rs, lp.k, new_base)
             - conformal_weight_plus(rs, lp.k, base)
             - Q(sum(x * x for x in n), 2))
    out = {}
    for off, s in ch.strings.items():
        lin = sum(n[i] * off[i] for i in range(rs.rank))
        out[tuple(off[i] - n[i] for i in range(rs.rank))] = s.shift(lin + const)
    return FormalCharacter("af", ch.family, ch.rank, lp.k, new_base, out)


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

    Weights absent from one side are compared as certified zeros up to that
    side's provable order: T for the direct transport, T plus the flow's
    exponent shift for the flowed one.  Returns per-weight (order, diff).
    """
    rs = _char_rs(ch)
    lp = level_params(rs, ch.level)
    T = Q(T)
    g = _root_coords(gamma, rs)
    mu = vec(mu)
    left = fermionize_character(ch, tuple(m - x for m, x in zip(mu, g)), T)
    right = spectral_flow_sc(fermionize_character(ch, mu, T), g, lp.k)
    gs = gram_g_star(rs, lp.k)
    quad = sum(g[i] * g[j] * gs[i][j]
               for i in range(rs.rank) for j in range(rs.rank)) / 2
    npos = rs.num_positive
    shift_js = tuple(sum((gs[b][i] * g[i] for i in range(rs.rank)), Q(0))
                     for b in range(npos))
    sup_l = character_support(rs, left)
    sup_r = character_support(rs, right)
    diffs = {}
    for key in sorted(set(sup_l) | set(sup_r)):
        a = sup_l.get(key)
        b = sup_r.get(key)
        if a is None:
            a = QSeries(0, 1, {}, T)
        if b is None:
            pre = tuple(x - s for x, s in zip(key, shift_js))
            lin = sum((g[i] * pre[i] for i in range(rs.rank)), Q(0))
            b = QSeries(0, 1, {}, T + lin + quad)
        diffs[key] = qseries_diff(a, b)
    return diffs


def flow_af_equivariance_diff(ch: FormalCharacter, mu_sc: ScWeight,
                              gamma: ScWeight, T, input_floor=None):
    """Compare transport at mu_sc + gamma with the flow of transport at mu_sc.

    input_floor is the order up to which weights absent from ch's support are
    known to vanish; None means the character is exact off its support.
    Returns per-weight (order, diff); all-empty diffs certify the identity.
    """
    rs = _char_rs(ch)
    lp = level_params(rs, ch.level)
    T = Q(T)
    if input_floor is not None:
        input_floor = Q(input_floor)
    n = _flow_coefficients(rs, gamma)[: rs.rank]
    left = defermionize_character(ch, mu_sc + gamma, T)
    right = spectral_flow_af(defermionize_character(ch, mu_sc, T), gamma, lp.k)
    n_extra = rs.num_positive - rs.rank
    base_js = ch.base.jstar_values(rs)

    def absent_floor(key, mu_ref, delta_ref, m0):
        """Certified-zero order of a transported side at a missing weight."""
        off = []
        for t, b in zip(key, mu_ref):
            d = Q(t) - b
            if d.denominator != 1:
                return None, None  # off the reachable grid: exactly zero
            off.append(int(d))
        v = tuple(m + z for m, z in zip(m0, off)) + tuple(m0[rs.rank:])
        if v in ch.strings:
            return T, off  # its contribution starts above T
        if input_floor is None:
            return None, off
        sh = delta_ref - Q(sum(z * z for z in off), 2) + Q(n_extra, 24)
        return min(T, input_floor + sh), off

    sides = []
    for lam in (mu_sc + gamma, mu_sc):
        m0 = _integer_offset(lam.jstar_values(rs), base_js)
        mu_ref = sc_weight_to_af(rs, lp.k, lam)
        sides.append((mu_ref, conformal_weight_plus(rs, lp.k, mu_ref), m0))
    (mu_l, delta_l, m0_l), (mu_r, delta_r, m0_r) = sides
    # the flow sends the string at offset z to weight mu_r + t + (z - n)
    flow_base = tuple(b + x for b, x in zip(mu_r, sc_weight_to_af(rs, lp.k, gamma)))
    flow_const = (conformal_weight_plus(rs, lp.k, flow_base) - delta_r
                  - Q(sum(x * x for x in n), 2))
    wshift = tuple(f - mr - x for f, mr, x in zip(flow_base, mu_r, map(Q, n)))
    sup_l = character_support(rs, left)
    sup_r = character_support(rs, right)
    diffs = {}
    for key in sorted(set(sup_l) | set(sup_r)):
        a = sup_l.get(key)
        b = sup_r.get(key)
        if a is None:
            floor, _ = absent_floor(key, mu_l, delta_l, m0_l)
            a = QSeries(0, 1, {}, floor)
        if b is None:
            pre = tuple(x - s for x, s in zip(key, wshift))
            floor, off = absent_floor(pre, mu_r, delta_r, m0_r)
            if floor is not None:
                floor = floor + sum(n[i] * off[i]
                                    for i in range(rs.rank)) + flow_const
            b = QSeries(0, 1, {}, floor)
        diffs[key] = qseries_diff(a, b)
    return diffs


def _parse_rational(x) -> Q:
    if isinstance(x, bool):
        raise ValueError(f"not an exact rational: {x!r}")
    if isinstance(x, int):
        return Q(x)
    if isinstance(x, str):
        try:
            return Q(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {x!r}") from exc
    raise ValueError(f"not an exact rational: {x!r}")


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
    try:
        rs = build_root_system(str(raw["type"]), int(raw["rank"]))
    except (TypeError, ValueError, OverflowError) as exc:
        return SeedReport(None, (f"bad root system: {exc}",))
    try:
        k = _parse_rational(raw["level"])
        level_params(rs, k)
    except ValueError as exc:
        return SeedReport(None, (f"bad level: {exc}",))
    base_raw = raw["base_weight"]
    if not isinstance(base_raw, list) or len(base_raw) != rs.rank:
        return SeedReport(None, ("base weight has the wrong length",))
    try:
        base = tuple(_parse_rational(x) for x in base_raw)
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
            off_q = [_parse_rational(x) for x in off_raw]
        except ValueError as exc:
            problems.append(f"bad weight offset {label}: {exc}")
            continue
        if any(x.denominator != 1 for x in off_q):
            problems.append(
                f"weight offset is not in the root lattice: {label}")
            continue
        off = tuple(int(x) for x in off_q)
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
                e = _parse_rational(t["exp"])
                c = _parse_rational(t["coef"])
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
            declared = _parse_rational(entry["min_exp"])
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
    ch = FormalCharacter("af", rs.family, rs.rank, Q(k), base, strings)
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
        "type": ch.family,
        "rank": ch.rank,
        "level": str(ch.level),
        "side": ch.side,
        "base_weight": base_out,
        "strings": strings,
    }
