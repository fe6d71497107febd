"""Symbolic operator-product engine for the free-field computations.

A Field is one sparse map from a term key to an exact int or Fraction.  A
term key is an optional abstract affine symbol (a root current or a Cartan
current over the simple basis), a normally ordered boson monomial over the
merged plus/minus lattice basis, and a lattice exponential, so every identity
checked here holds or fails exactly.

Contractions follow the standard free-field rules: bosons pair through the
lattice Gram matrix, bosons contract against exponential charges, exponential
pairs contribute a cocycle sign and a (z-w)^<xi,eta> prefactor, and the
abstract affine symbols contract through the affine table of the root system,
its integer Chevalley constants N[a,b] included.  An affine symbol with a
derivative is output only: no contraction takes one.  Uncontracted factors
on the z side move to w by Taylor's formula, through the one derivative (the
Leibniz rule, with d e^xi = b_xi e^xi), so a moved exponential leaves the
usual tail of normally ordered boson corrections behind.

The engine is ope_table, the singular part of the OPE of every field of one
list with every field of another, as {pole order: Field}; ope_singular is its
1x1 case.  Commutation relations read poles only, so no regular term is ever
built.  The OPE is bilinear, so each left field is contracted once against
each distinct term key on the right, on integer numerators over a common
denominator, divided once per output coefficient.  A table registers a term
key once, as (id, parity, G xi, E xi): with the Gram and cocycle images of its
charge xi, a charge pairing or sign is one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction as Q
from math import factorial, lcm, prod
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .bilinear import gram_G, gram_g, gram_g_star, level_params
from .latticekit import (IntegralLattice, IntMatrix, build_L_minus, build_L_plus, direct_sum,
                         form_profile)
from .ratlinalg import integer_rows, integer_vector
from .rootsys import RootSystem, structure_constants

AffineKey = Optional[Tuple]
BosonKey = Tuple[Tuple[int, int], ...]
TermKey = Tuple[AffineKey, BosonKey, Tuple[int, ...]]
Coef = Union[int, Q]
Field = Dict[TermKey, Coef]
Contraction = Tuple[int, Coef, AffineKey]
Poles = Dict[int, Field]
Label = Tuple[str, Tuple[int, ...]]  # (prefix, root): "J(1, 0)" once a diff formats it


# ---------------------------------------------------------------------------
# coefficients and fields

def _exact(x):
    """x as an int when it is integral, else as a Fraction: the two compare,
    hash and print alike, and integral products stay off Fraction."""
    if type(x) is int:
        return x
    q = x if type(x) is Q else Q(x)
    return q.numerator if q.denominator == 1 else q


def _add_at(out: dict, key, x) -> None:
    """out[key] += x in a sparse map: a key whose sum is zero is dropped."""
    s = out.get(key, 0) + x
    if not s:
        out.pop(key, None)
    elif type(s) is int or s.denominator != 1:
        out[key] = s
    else:
        out[key] = s.numerator


def _add_over(acc: dict, den: int, d: int, keys, nums, x: int) -> int:
    """Add x * nums, numerators over d, at keys to acc, numerators over den:
    acc is lifted in place to lcm(den, d), which is returned."""
    if den % d:
        up = lcm(den, d) // den
        den *= up
        for key in acc:
            acc[key] *= up
    x *= den // d
    for key, n in zip(keys, nums):
        acc[key] = acc.get(key, 0) + x * n
    return den


def field_add(a: Field, b: Field) -> Field:
    out = dict(a)
    for key, coef in b.items():
        _add_at(out, key, coef)
    return out


def field_scale(a: Field, x) -> Field:
    q = _exact(x)
    if not q:
        return {}
    return {key: _exact(coef * q) for key, coef in a.items()}


def field_repr(f: Field) -> str:
    if not f:
        return "0"
    chunks = []
    for key in sorted(f, key=repr):
        affine, bosons, exp = key
        atoms = []
        if affine is not None:
            kind, data, d = affine
            name = f"X({','.join(str(c) for c in data)})" if kind == "X" else f"H{data}"
            atoms.append(name + "'" * d)
        for i, d in bosons:
            atoms.append(f"b{i}" + "'" * d)
        if any(exp):
            atoms.append("E(" + ",".join(str(c) for c in exp) + ")")
        body = " ".join(atoms) if atoms else "1"
        chunks.append(f"({f[key]})*{body}")
    return " + ".join(chunks)


# ---------------------------------------------------------------------------
# the contraction context

@dataclass(frozen=True, eq=False)
class ContractionTable:
    """Immutable context: root system, level, merged lattice, cached grams."""

    rs: RootSystem
    k: Q
    lattice: IntegralLattice
    n_plus: int
    ell: int
    gstar: Tuple[Tuple[Q, ...], ...]
    # (a, b) -> the Chevalley constant N[a, b] of two roots whose sum is a root
    n_table: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]
    # term key -> (id, parity, G xi, E xi); memo rows by key A's id map key
    # B's id to (den, (pole, key) tuple, numerator tuple), or () for no term;
    # replace empties both, so a replaced lattice gets its own charge images
    registry: Dict[TermKey, Tuple] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False)
    memo: Dict[int, Dict[int, Tuple]] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.n_plus + self.ell


def make_table(rs: RootSystem, k) -> ContractionTable:
    lp = level_params(rs, k)
    merged = direct_sum(build_L_plus(rs), build_L_minus(rs))
    return ContractionTable(rs, lp.k, merged, rs.num_positive, rs.rank,
                            gram_g_star(rs, lp.k), structure_constants(rs))


def _zero_exp(table: ContractionTable) -> Tuple[int, ...]:
    return (0,) * table.dim


def identity_field(table: ContractionTable) -> Field:
    return {(None, (), _zero_exp(table)): 1}


def _root(table: ContractionTable, alpha: Sequence) -> Tuple[int, ...]:
    """alpha as integer coordinates; anything but a root is rejected."""
    if not table.rs.is_root(alpha):
        raise ValueError("not a root")
    return tuple(int(c) for c in alpha)


def x_field(table: ContractionTable, alpha: Sequence[int]) -> Field:
    return {(("X", _root(table, alpha), 0), (), _zero_exp(table)): 1}


def h_field(table: ContractionTable, lam: Sequence) -> Field:
    """Cartan current H_lam expanded over the simple-root currents."""
    if len(lam) != table.ell:
        raise ValueError("dimension mismatch")
    out: Field = {}
    for i, c in enumerate(lam):
        _add_at(out, (("H", i, 0), (), _zero_exp(table)), c)
    return out


def boson_field(table: ContractionTable, coeffs: Sequence) -> Field:
    """Boson of a rational merged-basis coefficient vector."""
    if len(coeffs) != table.dim:
        raise ValueError("unregistered lattice vector")
    out: Field = {}
    for i, c in enumerate(coeffs):
        _add_at(out, (None, ((i, 0),), _zero_exp(table)), c)
    return out


def boson_plus(table: ContractionTable, coeffs: Sequence) -> Field:
    return boson_field(table, tuple(coeffs) + (Q(0),) * table.ell)


def boson_minus(table: ContractionTable, coeffs: Sequence) -> Field:
    return boson_field(table, (Q(0),) * table.n_plus + tuple(coeffs))


def exp_field(table: ContractionTable, plus: Sequence[int], minus: Sequence[int]) -> Field:
    if len(plus) != table.n_plus or len(minus) != table.ell:
        raise ValueError("unregistered lattice vector")
    xi = integer_vector(tuple(plus) + tuple(minus), "unregistered lattice vector")
    return {(None, (), xi): 1}


# named fields used by the verification routines

def j_field(table: ContractionTable, index: int) -> Field:
    """J over a positive root: (1/k) H_alpha plus the plus-side boson."""
    alpha = table.rs.positive_roots[index]
    out = h_field(table, tuple(Q(c) / table.k for c in alpha))
    _add_at(out, (None, ((index, 0),), _zero_exp(table)), 1)
    return out


def jstar_field(table: ContractionTable, index: int) -> Field:
    """Dual generator sum_b g*_ab J_b, in closed form:
    H of (1/k) sum_b g*_ab alpha_b, plus sum_b g*_ab b_b."""
    row = table.gstar[index]
    (nums,), d = integer_rows([row])
    out = h_field(table, [Q(sum(map(mul, nums, col)) * table.k.denominator, d * table.k.numerator)
                          for col in zip(*table.rs.positive_roots)])
    for b, g in enumerate(row):
        _add_at(out, (None, ((b, 0),), _zero_exp(table)), g)
    return out


def h_plus_field(table: ContractionTable, index: int) -> Field:
    """Affine-side commutant generator H_alpha - b(profile of alpha)."""
    rs = table.rs
    alpha = rs.positive_roots[index]
    out = h_field(table, alpha)
    profile = form_profile(rs, alpha)
    return field_add(out, field_scale(boson_plus(table, profile), -1))


def h_minus_field(table: ContractionTable, index: int) -> Field:
    """Coset-side Heisenberg generator J*_alpha (+ the minus boson on simples)."""
    out = jstar_field(table, index)
    if index < table.ell:
        unit = tuple(1 if i == index else 0 for i in range(table.ell))
        out = field_add(out, boson_minus(table, unit))
    return out


def _xi_root(table: ContractionTable, a: Tuple[int, ...]) -> Tuple[int, ...]:
    return a + (0,) * (table.n_plus - table.ell) + a


def x_tilde_field(table: ContractionTable, alpha: Sequence[int]) -> Field:
    """Dressed root current X_alpha e^(f+ alpha) e^(f- alpha)."""
    a = _root(table, alpha)
    return {(("X", a, 0), (), _xi_root(table, a)): 1}


def h_tilde_field(table: ContractionTable, i: int) -> Field:
    """Dressed Cartan current H_i + k b_i(+) + k b_i(-), for a simple root."""
    if not 0 <= i < table.ell:
        raise ValueError("index out of range")
    out = h_field(table, tuple(1 if j == i else 0 for j in range(table.ell)))
    _add_at(out, (None, ((i, 0),), _zero_exp(table)), table.k)
    _add_at(out, (None, ((table.n_plus + i, 0),), _zero_exp(table)), table.k)
    return out


def coroot_tilde_field(table: ContractionTable, alpha: Sequence[int]) -> Field:
    """Image of the coroot: kappa (H_alpha + k b(f+ alpha) + k b(f- alpha))."""
    a = _root(table, alpha)
    out = h_field(table, a)
    out = field_add(out, field_scale(boson_field(table, _xi_root(table, a)), table.k))
    return field_scale(out, _kappa(table.rs, a))


# ---------------------------------------------------------------------------
# the derivative, which also moves the z side of a contraction to w

def derivative(f: Field) -> Field:
    out: Field = {}
    for (affine, bosons, exp), coef in f.items():
        if affine is not None:
            kind, data, d = affine
            _add_at(out, ((kind, data, d + 1), bosons, exp), coef)
        for pos in range(len(bosons)):
            i, d = bosons[pos]
            bumped = tuple(sorted(bosons[:pos] + ((i, d + 1),) + bosons[pos + 1:]))
            _add_at(out, (affine, bumped, exp), coef)
        for i, c in enumerate(exp):
            if c:
                bumped = tuple(sorted(bosons + ((i, 0),)))
                _add_at(out, (affine, bumped, exp), coef * c)
    return out


# ---------------------------------------------------------------------------
# the affine contraction table

def _root_form(rs: RootSystem, alpha: Tuple[int, ...], beta: Tuple[int, ...]):
    """(alpha, beta) of two roots, read from the integer pair table through
    the positive root of each sign."""
    (a, sa), (b, sb) = [(rs.root_index[r], 1) if r in rs.root_index
                        else (rs.root_index[tuple(-x for x in r)], -1) for r in (alpha, beta)]
    x = sa * sb * rs.pair_table[a][b]
    return x // rs.pair_den if x % rs.pair_den == 0 else Q(x, rs.pair_den)


def _kappa(rs: RootSystem, alpha: Tuple[int, ...]):
    """2 / (alpha, alpha) of a root."""
    return _exact(2 / Q(_root_form(rs, alpha, alpha)))


def _affine_base(table: ContractionTable, affA, affB) -> List[Contraction]:
    """Contractions (exponent, coefficient, symbol at w) of two affine symbols."""
    rs = table.rs
    kindA, dataA, _ = affA
    kindB, dataB, _ = affB
    if kindA == "X" and kindB == "X":
        total = tuple(a + b for a, b in zip(dataA, dataB))
        if not any(total):
            # the central term, then the coroot kappa alpha over the H_i
            kappa = _kappa(rs, dataA)
            return [(-2, table.k * kappa, None)] + [
                (-1, c * kappa, ("H", i, 0)) for i, c in enumerate(dataA) if c]
        n = table.n_table.get((dataA, dataB))
        return [(-1, n, ("X", total, 0))] if n else []
    if kindA == "H" and kindB == "X":
        c = _root_form(rs, rs.simple_roots[dataA], dataB)
        return [(-1, c, ("X", dataB, 0))] if c else []
    if kindA == "X" and kindB == "H":
        c = -_root_form(rs, dataA, rs.simple_roots[dataB])
        return [(-1, c, ("X", dataA, 0))] if c else []
    c = table.k * _root_form(rs, rs.simple_roots[dataA], rs.simple_roots[dataB])
    return [(-2, c, None)] if c else []


# ---------------------------------------------------------------------------
# the engine

def field_parity(table: ContractionTable, f: Field) -> int:
    """Shape-check a field and return its parity; reject mixed parity."""
    return _term_ids(table, f)[0]


def _entry(table: ContractionTable, key: TermKey) -> Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]:
    """A term key's registry entry (id, parity, G xi, E xi), shape-checked and
    with the Gram and cocycle images of its charge xi, once per table."""
    entry = table.registry.get(key)
    if entry is None:
        affine, bosons, xi = key
        if affine is not None and not (len(affine) == 3 and (
                affine[0] == "X" and table.rs.is_root(affine[1])
                or affine[0] == "H" and affine[1] in range(table.ell))):
            raise ValueError("unknown affine symbol")
        if affine is not None and affine[2]:
            raise ValueError("no contraction takes a derivative of an affine symbol")
        if len(xi) != table.dim or any(not 0 <= i < table.dim or d < 0 for i, d in bosons):
            raise ValueError("unregistered lattice vector")
        support = [(i, c) for i, c in enumerate(xi) if c]
        gxi, exi = (tuple(sum(row[i] * c for i, c in support) for row in m)
                    for m in (table.lattice.gram, table.lattice.eps_exponents))
        entry = table.registry[key] = (len(table.registry), sum(map(mul, xi, gxi)) % 2, gxi, exi)
    return entry


def _term_ids(table: ContractionTable, f: Field) -> Tuple[int, List[int]]:
    """A field's parity and the registry id of each term key."""
    entries = [_entry(table, key) for key in f]
    if len({entry[1] for entry in entries}) > 1:
        raise ValueError("field is not parity-homogeneous")
    return (entries[0][1] if entries else 0), [entry[0] for entry in entries]


def _boson_patterns(gram: IntMatrix, bosA: BosonKey, gxiA: Tuple[int, ...],
                    bosB: BosonKey, gxiB: Tuple[int, ...]) -> Iterator[Tuple]:
    """Live contraction fates: (links, A bosons kept, B bosons kept).

    A link is (pairing * weight, pole order) for a boson-boson pair, a
    z-boson against the w charge (G xi[i] for a boson b_i), or a w-boson
    against the z charge.  A fate with a zero pairing is never offered.
    """
    hitB = [(gxiB[i] * (-1) ** d * factorial(d), 1 + d) for i, d in bosA]
    hitA = [(-gxiA[j] * factorial(e), 1 + e) for j, e in bosB]
    return _assign(gram, bosA, bosB, hitA, hitB, 0, (), (), ())


def _assign(gram: IntMatrix, bosA: BosonKey, bosB: BosonKey, hitA, hitB,
            pos: int, used: Tuple[int, ...], links, kept) -> Iterator[Tuple]:
    """The fates of A's bosons from pos on, B's bosons in used taken; no
    closure, so no reference cycle outlives a contraction."""
    if pos == len(bosA):
        free = [j for j in range(len(bosB)) if j not in used]
        live = [j for j in free if hitA[j][0]]
        for mask in range(1 << len(live)):
            hit = [live[t] for t in range(len(live)) if mask >> t & 1]
            yield (links + tuple(hitA[j] for j in hit), kept,
                   tuple(bosB[j] for j in free if j not in hit))
        return
    state = (gram, bosA, bosB, hitA, hitB, pos + 1)
    if hitB[pos][0]:
        yield from _assign(*state, used, links + (hitB[pos],), kept)
    yield from _assign(*state, used, links, kept + (bosA[pos],))
    i, dA = bosA[pos]
    for j, (jB, dB) in enumerate(bosB):
        if j not in used and gram[i][jB]:
            link = (gram[i][jB] * (-1) ** dA * factorial(dA + dB + 1), 2 + dA + dB)
            yield from _assign(*state, used + (j,), links + (link,), kept)


def ope_table(table: ContractionTable, As: Sequence[Field],
              Bs: Sequence[Field]) -> List[List[Poles]]:
    """ope_singular(table, A, B) for every A in As and B in Bs, on each field's integer
    numerators n: U_A[key] = sum_i n_A,i * contract(key_A,i, key) over the distinct term keys
    of the Bs, then one pass over B's terms per pair.  Any refusal refuses all."""
    sidesA = [(_term_ids(table, A)[1], A, integer_rows([list(A.values())])) for A in As]
    sidesB = [(_term_ids(table, B)[1], integer_rows([list(B.values())])) for B in Bs]
    keysB = {idB: keyB for B, (ids, _) in zip(Bs, sidesB) for idB, keyB in zip(ids, B)}
    out = []
    for idsA, A, ((numsA,), dA) in sidesA:
        unit, dens = {}, {}  # id of key B -> {(pole, key): numerator over dens[id]}
        for idA, keyA, nA in zip(idsA, A, numsA):
            row = table.memo.setdefault(idA, {})
            for idB, keyB in keysB.items():
                entry = row.get(idB)
                if entry is None:
                    entry = row[idB] = _contract(table, keyA, keyB)
                if entry:
                    dens[idB] = _add_over(unit.setdefault(idB, {}), dens.get(idB, 1), *entry, nA)
        parts = []
        for idsB, ((numsB,), dB) in sidesB:
            sink, den = {}, 1
            for idB, nB in zip(idsB, numsB):
                if idB in unit:
                    den = _add_over(sink, den, dens[idB], unit[idB].keys(), unit[idB].values(), nB)
            poles, den = {}, den * dA * dB  # one division per output coefficient
            for (pole, key), n in sink.items():
                if n:
                    poles.setdefault(pole, {})[key] = Q(n, den) if n % den else n // den
            parts.append(poles)
        out.append(parts)
    return out


def ope_singular(table: ContractionTable, A: Field, B: Field) -> Poles:
    """Complete singular part of A(z)B(w) as {pole order: Field}.  A singular
    term keeping affine symbols of both A and B has no single-term key and
    raises ValueError("unsupported composite of affine symbols")."""
    return ope_table(table, [A], [B])[0][0]


def _contract(table: ContractionTable, keyA: TermKey,
              keyB: TermKey) -> Tuple:
    """Unit-coefficient singular terms of keyA(z) keyB(w), cocycle sign included, as (den,
    (pole order, key) tuple, numerator tuple), or () for no term."""
    affA, bosA, xiA = keyA
    affB, bosB, xiB = keyB
    (_, _, gxiA, _), (_, _, gxiB, exiB) = _entry(table, keyA), _entry(table, keyB)
    base = sum(map(mul, xiA, gxiB))
    sink, den = {}, 1  # (pole, key) -> numerator over den

    # affine fates (contraction entry, symbol kept at z, symbol kept at w);
    # the first contracts nothing and keeps the w symbol in place
    fates = [((0, 1, affB), affA, affB)]
    if affA is not None and affB is not None:
        fates += [(entry, None, None) for entry in _affine_base(table, affA, affB)]

    for links, kept, stay in _boson_patterns(table.lattice.gram, bosA, gxiA, bosB, gxiB):
        shift = base - sum(order for _, order in links)

        for (n, c, aff_out), aff_z, aff_w in fates:
            min_exp = shift + n
            if min_exp >= 0:
                continue
            if aff_z is not None and aff_w is not None:
                raise ValueError("unsupported composite of affine symbols")
            if not sink:  # the first live fate
                out_exp, sign = tuple(map(add, xiA, xiB)), -1 if sum(map(mul, xiA, exiB)) % 2 else 1
            # Taylor's rule moves the z side (its affine symbol, kept bosons and
            # charge) to w: its m-th derivative over m! lands at pole
            # -(min_exp + m); the budget carries a term up to order -1, the
            # last singular one, so every term is integral over den(c) full
            budget = -1 - min_exp
            full, fate, moved = factorial(budget + 1), {}, {(aff_z, kept, xiA): 1}
            for m in range(budget + 1):
                if m:
                    moved = derivative(moved)
                for (aff, bosons, _), t in moved.items():
                    key = (-(min_exp + m), (aff_out if aff_z is None else aff,
                                            tuple(sorted(bosons + stay)), out_exp))
                    fate[key] = fate.get(key, 0) + full // factorial(m) * t
            den = _add_over(sink, den, c.denominator * full, fate.keys(), fate.values(),
                            c.numerator * sign * prod(w for w, _ in links))
    terms = [item for item in sink.items() if item[1]]
    return (den, *zip(*terms)) if terms else ()


# ---------------------------------------------------------------------------
# consistency checks and verification reports

class SkewMismatch(NamedTuple):
    pole: int
    direct: str
    reconstructed: str


class SkewVerdict(NamedTuple):
    ok: bool
    mismatches: Tuple[SkewMismatch, ...]


def lambda_bracket_skew_check(table: ContractionTable, A: Field, B: Field) -> SkewVerdict:
    """Check the skew-symmetry relation between the two OPE orders."""
    pa = field_parity(table, A)
    pb = field_parity(table, B)
    sab = ope_singular(table, A, B)
    sba = ope_singular(table, B, A)
    top = max((*sab, *sba), default=0)
    sign = (-1) ** (pa * pb)
    mismatches = []
    for m in range(1, top + 1):
        acc: Field = {}
        for j in range(top - m + 1):
            part = sba.get(m + j)
            if not part:
                continue
            moved = part
            for _ in range(j):
                moved = derivative(moved)
            acc = field_add(acc, field_scale(moved, Q((-1) ** (m + j), factorial(j))))
        acc = field_scale(acc, sign)
        if acc != sab.get(m, {}):
            mismatches.append(SkewMismatch(m, field_repr(sab.get(m, {})), field_repr(acc)))
    return SkewVerdict(not mismatches, tuple(mismatches))


class OpeDiff(NamedTuple):
    left: str
    right: str
    pole: int
    expected: str
    got: str


class CentralTerm(NamedTuple):
    root: Tuple[int, ...]
    computed: Coef
    normalized_expected: Q
    literal_expected: Q


@dataclass
class VerifyReport:
    name: str
    checks: int
    diffs: List[OpeDiff]
    central_terms: List[CentralTerm] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "checks": self.checks,
            "ok": self.ok,
            "diffs": [d._asdict() for d in self.diffs],
            "central_terms": [
                {
                    "root": list(c.root),
                    "computed": str(c.computed),
                    "normalized_expected": str(c.normalized_expected),
                    "literal_expected": str(c.literal_expected),
                }
                for c in self.central_terms
            ],
        }


def _report(name: str, cases: Iterable[Tuple[Label, Label, Poles, Poles]],
            central: Sequence[CentralTerm] = ()) -> VerifyReport:
    """Compare each case's poles with the wanted ones; one check per case.

    A case is (left label, right label, computed poles, wanted poles).
    central is read only after cases is exhausted, so a case generator may
    fill it as it goes.
    """
    diffs: List[OpeDiff] = []
    checks = 0
    for left, right, got, want in cases:
        for n in sorted(set(got) | set(want), reverse=True):
            g = got.get(n, {})
            w = want.get(n, {})
            if g != w:
                diffs.append(OpeDiff("%s%s" % left, "%s%s" % right, n,
                                     field_repr(w), field_repr(g)))
        checks += 1
    return VerifyReport(name, checks, diffs, list(central))


def _scalar_field(table: ContractionTable, x) -> Field:
    return {(None, (), _zero_exp(table)): _exact(x)} if x else {}


def verify_Jalpha_heisenberg(table: ContractionTable) -> VerifyReport:
    """The J fields close a rank-N Heisenberg algebra with Gram gram_g."""
    rs = table.rs
    n = rs.num_positive
    g = gram_g(rs, table.k)
    gs = table.gstar
    js = [j_field(table, a) for a in range(n)]
    jstars = [jstar_field(table, a) for a in range(n)]
    jj = ope_table(table, js, js)
    sj = ope_table(table, jstars, js + jstars)

    def cases():
        for a, ra in enumerate(rs.positive_roots):
            for b, rb in enumerate(rs.positive_roots):
                yield ("J", ra), ("J", rb), jj[a][b], {2: _scalar_field(table, g[a][b])}
                yield ("J*", ra), ("J", rb), sj[a][b], {2: _scalar_field(table, int(a == b))}
                yield ("J*", ra), ("J*", rb), sj[a][n + b], {2: _scalar_field(table, gs[a][b])}

    return _report("jalpha", cases())


def verify_Hminus_heisenberg(table: ContractionTable) -> VerifyReport:
    """The minus-side Heisenberg generators close with Gram gram_G."""
    rs = table.rs
    n = rs.num_positive
    big_g = gram_G(rs, table.k)
    hs = [h_minus_field(table, a) for a in range(n)]
    hh = ope_table(table, hs, hs)
    roots = rs.positive_roots
    return _report("hminus", (
        (("H-", roots[a]), ("H-", roots[b]), hh[a][b], {2: _scalar_field(table, big_g[a][b])})
        for a in range(n) for b in range(n)))


def verify_fst_homomorphism(table: ContractionTable) -> VerifyReport:
    """The dressed currents reproduce the affine OPE table, and both
    candidate commutants actually commute with them."""
    rs = table.rs
    kq = table.k
    all_roots = list(rs.positive_roots) + [tuple(-c for c in a) for a in rs.positive_roots]
    roots = set(all_roots)
    xts = [x_tilde_field(table, a) for a in all_roots]
    hts = [h_tilde_field(table, i) for i in range(table.ell)]
    xx = ope_table(table, xts, xts)
    hx = ope_table(table, hts, xts + hts)
    cx = ope_table(table, [f(table, i) for i in range(rs.num_positive)
                           for f in (h_plus_field, h_minus_field)], xts)
    central: List[CentralTerm] = []

    def cases():
        idkey = (None, (), _zero_exp(table))
        for a, ra in enumerate(all_roots):
            for b, rb in enumerate(all_roots):
                got = xx[a][b]
                total = tuple(x + y for x, y in zip(ra, rb))
                if not any(total):
                    kappa = _kappa(rs, ra)
                    want = {1: coroot_tilde_field(table, ra),
                            2: _scalar_field(table, kq * kappa)}
                    computed = got.get(2, {}).get(idkey, 0)
                    central.append(CentralTerm(ra, computed, kq * kappa, kq))
                elif total in roots:
                    want = {1: {(("X", total, 0), (), _xi_root(table, total)): table.n_table[ra, rb]}}
                else:
                    want = {}
                yield ("Xt", ra), ("Xt", rb), got, want
        for i, si in enumerate(rs.simple_roots):
            for a, ra in enumerate(all_roots):
                yield (("Ht", si), ("Xt", ra), hx[i][a],
                       {1: field_scale(xts[a], _root_form(rs, si, ra))})
            for j, sj in enumerate(rs.simple_roots):
                yield (("Ht", si), ("Ht", sj), hx[i][len(xts) + j],
                       {2: _scalar_field(table, kq * _root_form(rs, si, sj))})
        for idx, root in enumerate(rs.positive_roots):
            for a, ra in enumerate(all_roots):
                yield ("H+", root), ("Xt", ra), cx[2 * idx][a], {}
                yield ("H-", root), ("Xt", ra), cx[2 * idx + 1][a], {}

    return _report("fst", cases(), central)
