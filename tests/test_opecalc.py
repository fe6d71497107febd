from __future__ import annotations

import dataclasses
from fractions import Fraction as Q
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cosetlab import opecalc as oc
from cosetlab.bilinear import gram_G, gram_g, gram_g_star
from cosetlab.latticekit import form_profile
from cosetlab.rootsys import build_root_system


def table(fam, rank, k):
    return oc.make_table(build_root_system(fam, rank), k)


def scalar(t, x):
    return {(None, (), (0,) * t.dim): Q(x)}


# ---------------------------------------------------------------------------
# basic contractions, frozen by hand

def test_boson_boson_pairing_through_gram():
    t = table("A", 1, 1)
    plus = oc.boson_plus(t, (1,))
    minus = oc.boson_minus(t, (1,))
    s = oc.ope_singular(t, plus, plus)
    assert s == {2: scalar(t, 1)}
    s = oc.ope_singular(t, minus, minus)
    assert s == {2: scalar(t, -1)}
    s = oc.ope_singular(t, plus, minus)
    assert s == {}


def test_boson_derivative_rule():
    # b'(z) b(w) has a third-order pole with coefficient -2<u,u>
    t = table("A", 1, 1)
    b = oc.boson_plus(t, (1,))
    s = oc.ope_singular(t, oc.derivative(b), b)
    assert s == {3: scalar(t, -2)}
    s = oc.ope_singular(t, b, oc.derivative(b))
    assert s == {3: scalar(t, 2)}


def test_charge_pair_example():
    # e(a+) against e(-a+): first-order pole with a plain cocycle sign
    t = table("A", 1, 1)
    A = oc.exp_field(t, (1,), (0,))
    B = oc.exp_field(t, (-1,), (0,))
    assert oc.ope_singular(t, A, B) == {1: scalar(t, 1)}
    # e(2a+) against e(-2a+): (z-w)^-4 exp(2 sum_n (z-w)^n b^(n-1)/n!), so
    # the boson corrections left behind by the moved charge fill the poles
    # below the fourth: 2b, then b' + 2b^2, then b''/3 + 2bb' + 4b^3/3
    A = oc.exp_field(t, (2,), (0,))
    B = oc.exp_field(t, (-2,), (0,))
    assert oc.ope_singular(t, A, B) == {
        4: scalar(t, 1),
        3: {(None, ((0, 0),), (0, 0)): 2},
        2: {(None, ((0, 0), (0, 0)), (0, 0)): 2,
            (None, ((0, 1),), (0, 0)): 1},
        1: {(None, ((0, 0), (0, 0), (0, 0)), (0, 0)): Q(4, 3),
            (None, ((0, 0), (0, 1)), (0, 0)): 2,
            (None, ((0, 2),), (0, 0)): Q(1, 3)},
    }


def test_dressed_charge_pairs_are_nonsingular():
    # norms cancel between the two sides for any pair of root-lattice vectors
    rs = build_root_system("A", 2)
    t = oc.make_table(rs, 1)
    gammas = [(1, 0), (0, 1), (1, 1), (2, 1), (-1, 2)]
    for ga in gammas:
        for gb in gammas:
            pad = (0,) * (t.n_plus - t.ell)
            A = oc.exp_field(t, ga + pad, ga)
            B = oc.exp_field(t, gb + pad, gb)
            s = oc.ope_singular(t, A, B)
            assert s == {}


def relocated_symbol_mismatches(t):
    """Simple roots a whose Xt(a)(z) e(-2a+)(w) misses its closed form: with xi
    the charge of Xt(a), eta = -2a+ and eps = eps(xi, eta), pole 2 is
    eps X(a) e(xi+eta), pole 1 eps (X(a)' + sum_j xi_j b_j X(a)) e(xi+eta)."""
    out = []
    for i, a in enumerate(t.rs.simple_roots):
        xt = oc.x_tilde_field(t, a)
        [(symbol, _, xi)] = xt
        eta = tuple(-2 * int(j == i) for j in range(t.n_plus)) + (0,) * t.ell
        eps = t.lattice.eps(xi, eta)
        moved = tuple(x + y for x, y in zip(xi, eta))
        kind, root, _ = symbol
        pole_one = {((kind, root, 1), (), moved): eps}
        for j, c in enumerate(xi):
            if c:
                pole_one[(symbol, ((j, 0),), moved)] = eps * c
        expected = {2: {(symbol, (), moved): eps}, 1: pole_one}
        got = oc.ope_singular(t, xt, oc.exp_field(t, eta[:t.n_plus], eta[t.n_plus:]))
        if got != expected:
            out.append(i)
    return out


@pytest.mark.parametrize("k", [1, 2, Q(5, 2)])
@pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_dressed_current_against_a_charge_relocates_its_symbol(fam, rank, k):
    # the affine symbol moved past a charge gains a derivative at the simple pole
    assert relocated_symbol_mismatches(table(fam, rank, k)) == []


def test_boson_against_charge_both_orders():
    t = table("A", 1, 1)
    b = oc.boson_plus(t, (1,))
    e = oc.exp_field(t, (1,), (0,))
    s = oc.ope_singular(t, b, e)
    assert s == {1: {(None, (), (1, 0)): Q(1)}}
    s = oc.ope_singular(t, e, b)
    assert s == {1: {(None, (), (1, 0)): Q(-1)}}


# ---------------------------------------------------------------------------
# named fields

@pytest.mark.parametrize("fam,rank,k", [("A", 2, 1), ("B", 2, Q(5, 2))])
def test_jstar_matches_shifted_form_expansion(fam, rank, k):
    # the g*-combination agrees with 1/(k+h) (H - b(profile)) + b(alpha+)
    rs = build_root_system(fam, rank)
    t = oc.make_table(rs, k)
    shift = Q(k) + rs.dual_coxeter
    for a in range(rs.num_positive):
        alpha = rs.positive_roots[a]
        direct = oc.h_field(t, tuple(Q(c) / shift for c in alpha))
        prof = form_profile(rs, alpha)
        direct = oc.field_add(direct, oc.boson_plus(t, tuple(-c / shift for c in prof)))
        unit = tuple(Q(1) if i == a else Q(0) for i in range(t.n_plus))
        direct = oc.field_add(direct, oc.boson_plus(t, unit))
        assert oc.jstar_field(t, a) == direct


@pytest.mark.parametrize("fam,rank", [("A", 2), ("B", 2), ("G", 2), ("B", 3)])
@pytest.mark.parametrize("k", [1, Q(7, 2), Q(-5, 3)])
def test_jstar_is_the_gstar_combination_of_j(fam, rank, k):
    t = table(fam, rank, k)
    for a in range(t.n_plus):
        combination = {}
        for b, g in enumerate(t.gstar[a]):
            combination = oc.field_add(combination, oc.field_scale(oc.j_field(t, b), g))
        assert oc.jstar_field(t, a) == combination


def test_j_field_pole_two_is_gram_g():
    rs = build_root_system("A", 1)
    t = oc.make_table(rs, 1)
    J = oc.j_field(t, 0)
    s = oc.ope_singular(t, J, J)
    assert s == {2: scalar(t, 3)}
    assert gram_g(rs, 1)[0][0] == Q(3)


def test_jstar_against_j_is_kronecker():
    rs = build_root_system("A", 2)
    t = oc.make_table(rs, 2)
    for a in range(3):
        for b in range(3):
            s = oc.ope_singular(t, oc.jstar_field(t, a), oc.j_field(t, b))
            want = {2: scalar(t, 1)} if a == b else {}
            assert s == want


def test_x_tilde_pair_gives_dressed_coroot():
    t = table("A", 1, 1)
    s = oc.ope_singular(t, oc.x_tilde_field(t, (1,)), oc.x_tilde_field(t, (-1,)))
    assert s.get(2, {}) == scalar(t, 1)
    assert s.get(1, {}) == oc.coroot_tilde_field(t, (1,))


def test_x_tilde_pair_structure_constant_is_chevalley():
    # the extraspecial pair (alpha_1, alpha_2) of A2 takes N = +1, and the
    # reversed pair -1, each at the simple pole of the dressed root theta
    rs = build_root_system("A", 2)
    t = oc.make_table(rs, 1)
    theta = (1, 1)
    key = (("X", theta, 0), (), theta + (0,) + theta)
    for a, b, n in (((1, 0), (0, 1), 1), ((0, 1), (1, 0), -1)):
        s = oc.ope_singular(t, oc.x_tilde_field(t, a), oc.x_tilde_field(t, b))
        assert s == {1: {key: n}} and t.n_table[a, b] == n


def test_field_parity():
    t = table("A", 1, 1)
    assert oc.field_parity(t, oc.exp_field(t, (1,), (0,))) == 1
    assert oc.field_parity(t, oc.x_tilde_field(t, (1,))) == 0
    assert oc.field_parity(t, oc.j_field(t, 0)) == 0


# ---------------------------------------------------------------------------
# verification reports

GRID = [("A", 1, 1), ("A", 1, 2), ("A", 1, Q(5, 2)),
        ("A", 2, 1), ("A", 2, 2), ("A", 2, Q(5, 2)),
        ("B", 2, 1), ("B", 2, 2), ("B", 2, Q(5, 2))]


@pytest.mark.parametrize("fam,rank,k", GRID)
def test_verify_jalpha(fam, rank, k):
    rs = build_root_system(fam, rank)
    report = oc.verify_Jalpha_heisenberg(oc.make_table(rs, k))
    assert report.ok
    assert report.checks == 3 * rs.num_positive ** 2


@pytest.mark.parametrize("fam,rank,k", GRID)
def test_verify_hminus(fam, rank, k):
    rs = build_root_system(fam, rank)
    report = oc.verify_Hminus_heisenberg(oc.make_table(rs, k))
    assert report.ok
    assert report.checks == rs.num_positive ** 2


@pytest.mark.parametrize("fam,rank,k", GRID)
def test_verify_fst(fam, rank, k):
    rs = build_root_system(fam, rank)
    report = oc.verify_fst_homomorphism(oc.make_table(rs, k))
    assert report.ok
    n = 2 * rs.num_positive
    assert report.checks == n * n + rs.rank * n + rs.rank ** 2 + 2 * n * rs.num_positive
    assert len(report.central_terms) == n


def test_fst_central_terms_report_both_conventions():
    # on the short roots of B2 the normalized value is 2k, the literal one k
    rs = build_root_system("B", 2)
    report = oc.verify_fst_homomorphism(oc.make_table(rs, Q(5, 2)))
    by_root = {c.root: c for c in report.central_terms}
    long_term = by_root[(1, 0)]
    short_term = by_root[(0, 1)]
    assert long_term.computed == long_term.literal_expected == Q(5, 2)
    assert short_term.computed == short_term.normalized_expected == Q(5)
    assert short_term.literal_expected == Q(5, 2)
    assert all(c.computed == c.normalized_expected for c in report.central_terms)


def affine_generators(t):
    """X~ of every root, H~ of every simple root, J and H- of every positive
    root: all even, so the commutator formula carries no sign."""
    rs = t.rs
    roots = list(rs.positive_roots) + [tuple(-c for c in a) for a in rs.positive_roots]
    return ([oc.x_tilde_field(t, a) for a in roots] + [oc.h_tilde_field(t, i) for i in range(t.ell)]
            + [f(t, a) for f in (oc.j_field, oc.h_minus_field) for a in range(t.n_plus)])


def commutator_failures(t):
    """(identities checked, identities failed) of the commutator formula
    a_(m)(b_(n)c) - b_(n)(a_(m)c) = sum_j C(m, j) (a_(j)b)_(m+n-j)c over every
    generator triple and every m, n below the top pole of any OPE taken, with
    x_(m)y the pole m + 1 of x(z)y(w); an identity whose sides are both zero
    is not counted.  The products b_(n)c are contracted in one ope_table on
    each side."""
    gens = affine_generators(t)
    products = {(b, c, pole - 1): f for b, row in enumerate(oc.ope_table(t, gens, gens))
                for c, poles in enumerate(row) for pole, f in poles.items()}
    col = {key: i for i, key in enumerate(products)}
    left = oc.ope_table(t, gens, list(products.values()))  # a_(m)(b_(n)c)
    right = oc.ope_table(t, list(products.values()), gens)  # (a_(j)b)_(l)c
    top = max(pole for table in (left, right) for row in table for poles in row for pole in poles)
    top = max(top, max(n for _, _, n in products) + 1)
    checked = failed = 0
    for a in range(len(gens)):
        for b in range(len(gens)):
            for c in range(len(gens)):
                for m in range(top):
                    for n in range(top):
                        lhs = oc.field_add(
                            left[a][col[b, c, n]].get(m + 1, {}) if (b, c, n) in col else {},
                            oc.field_scale(left[b][col[a, c, m]].get(n + 1, {})
                                           if (a, c, m) in col else {}, -1))
                        rhs = {}
                        for j in range(m + 1):
                            if (a, b, j) in col:
                                rhs = oc.field_add(rhs, oc.field_scale(
                                    right[col[a, b, j]][c].get(m + n - j + 1, {}), comb(m, j)))
                        checked += bool(lhs or rhs)
                        failed += lhs != rhs
    return checked, failed


@pytest.mark.parametrize("fam,rank,checked", [("A", 2, 816), ("B", 2, 1280)])
def test_engine_satisfies_the_commutator_formula(fam, rank, checked):
    # the affine table with its Chevalley constants is a Lie bracket through
    # the dressed currents, the Heisenberg fields and their composites
    assert commutator_failures(table(fam, rank, 1)) == (checked, 0)


def test_commutant_pairs_are_regular():
    rs = build_root_system("A", 2)
    t = oc.make_table(rs, 2)
    for idx in range(rs.num_positive):
        for alpha in [(1, 0), (0, 1), (1, 1), (-1, -1)]:
            xt = oc.x_tilde_field(t, alpha)
            assert oc.ope_singular(t, oc.h_plus_field(t, idx), xt) == {}
            assert oc.ope_singular(t, oc.h_minus_field(t, idx), xt) == {}


def test_hminus_pole_two_matches_gram_G():
    rs = build_root_system("B", 2)
    t = oc.make_table(rs, 3)
    big_g = gram_G(rs, 3)
    for a in range(rs.num_positive):
        for b in range(rs.num_positive):
            s = oc.ope_singular(t, oc.h_minus_field(t, a), oc.h_minus_field(t, b))
            want = {2: scalar(t, big_g[a][b])} if big_g[a][b] else {}
            assert s == want


def test_report_json_shape():
    rs = build_root_system("A", 1)
    d = oc.verify_fst_homomorphism(oc.make_table(rs, 1)).to_json_dict()
    assert d["ok"] is True
    assert d["diffs"] == []
    assert d["central_terms"][0]["computed"] == "1"


# ---------------------------------------------------------------------------
# skew symmetry

def test_skew_on_charge_pair():
    t = table("A", 1, 1)
    A = oc.exp_field(t, (1,), (0,))
    B = oc.exp_field(t, (-1,), (0,))
    assert oc.lambda_bracket_skew_check(t, A, B).ok


def test_skew_exercises_deep_charge_tails():
    # pairing -4 forces corrections up to the third tail order
    t = table("A", 1, 1)
    A = oc.exp_field(t, (2,), (0,))
    B = oc.exp_field(t, (-2,), (0,))
    s = oc.ope_singular(t, A, B)
    assert max(s) == 4
    assert oc.lambda_bracket_skew_check(t, A, B).ok


def test_skew_on_generator_samples():
    rs = build_root_system("B", 2)
    t = oc.make_table(rs, Q(5, 2))
    gens = [oc.j_field(t, 0), oc.jstar_field(t, 2), oc.h_minus_field(t, 1),
            oc.x_tilde_field(t, (0, 1)), oc.x_tilde_field(t, (0, -1)),
            oc.h_tilde_field(t, 0), oc.h_plus_field(t, 3)]
    for A in gens:
        for B in gens:
            assert oc.lambda_bracket_skew_check(t, A, B).ok


def skew_generators(t):
    """The generators whose skew checks the pole-order mutant must break."""
    rs = t.rs
    last = rs.num_positive - 1
    return [oc.j_field(t, 0), oc.jstar_field(t, last), oc.h_plus_field(t, 0),
            oc.h_minus_field(t, last), oc.h_tilde_field(t, 0),
            oc.x_tilde_field(t, rs.simple_roots[-1]),
            oc.x_tilde_field(t, tuple(-x for x in rs.simple_roots[-1]))]


def generators_and_free_parts(t):
    """The skew generators, then their free-field parts (symbols dropped)."""
    gens = skew_generators(t)
    for g in skew_generators(t):
        free = {}
        for (_, bosons, exp), coef in g.items():
            free = oc.field_add(free, {(None, bosons, exp): coef})
        gens.append(free)
    return gens


@pytest.mark.parametrize("fam,rank,k", [("A", 2, Q(3, 2)), ("B", 2, Q(5, 2))])
def test_memo_answers_as_a_fresh_table(fam, rank, k):
    # memo terms carry unit coefficients: J and J* share keys under
    # different coefficients, and so do the generators and their free-field
    # parts; a dead term pair is memoized too, as no terms
    rs = build_root_system(fam, rank)
    t = oc.make_table(rs, k)
    gens = generators_and_free_parts(t)
    for _ in range(2):
        for A in gens:
            for B in gens:
                assert oc.ope_singular(t, A, B) == oc.ope_singular(oc.make_table(rs, k), A, B)
    rows = list(t.memo.values())
    assert any(() in row.values() for row in rows)
    assert any(any(row.values()) for row in rows)


@pytest.mark.parametrize("fam,rank,k", [("A", 2, Q(3, 2)), ("B", 2, Q(5, 2)),
                                        ("G", 2, Q(7, 2))])
def test_ope_table_is_ope_singular_per_pair(fam, rank, k):
    # every entry of the batched table equals the single pair on a fresh table
    rs = build_root_system(fam, rank)
    fields = generators_and_free_parts(oc.make_table(rs, k))
    got = oc.ope_table(oc.make_table(rs, k), fields, fields)
    assert got == [[oc.ope_singular(oc.make_table(rs, k), A, B) for B in fields]
                   for A in fields]
    assert any(any(row) for row in got)


def _composite(t):
    """H_0 times the first plus boson: against X~(1, 0) the boson meets the
    charge in a simple pole, with both affine symbols still in place."""
    return {(("H", 0, 0), ((0, 0),), (0,) * t.dim): 1}


def test_ope_table_refuses_a_bad_field_on_either_side():
    t = table("A", 2, 1)
    good = oc.boson_plus(t, (1, 0, 0))
    X = oc.x_tilde_field(t, (1, 0))
    mixed = oc.field_add(oc.exp_field(t, (1, 0, 0), (0, 0)), oc.identity_field(t))
    unknown = {(("Y", 0, 0), (), (0,) * t.dim): 1}
    # X' and H' come out of the engine (a z side moved to w, the skew check),
    # but no contraction takes one in
    derived = [{(symbol, (), (0,) * t.dim): 1} for symbol in (("X", (0, 1), 1), ("H", 0, 1))]
    assert oc.ope_table(t, [good, X], [X, good])[1][0] == {}
    for bad, reason in ((_composite(t), "unsupported composite of affine"),
                        (mixed, "not parity-homogeneous"),
                        (unknown, "unknown affine symbol"),
                        *((f, "derivative of an affine symbol") for f in derived)):
        for As, Bs in (([good, bad], [good, X]), ([good, X], [good, bad])):
            with pytest.raises(ValueError, match=reason):
                oc.ope_table(table("A", 2, 1), As, Bs)


def test_registry_holds_the_gram_and_cocycle_images_of_each_charge():
    # <eta, xi> and the cocycle sign of every pair of registered charges are
    # one dot product with the registered images of xi
    t = table("B", 2, Q(5, 2))
    n = t.dim
    xis = [tuple(int(j in (a, b)) for j in range(n)) for a in range(n) for b in range(a, n)]
    exps = [oc.exp_field(t, xi[:t.n_plus], xi[t.n_plus:]) for xi in xis]
    oc.ope_table(t, exps, exps)
    lattice = t.lattice
    charges = {key[2]: entry for key, entry in t.registry.items()}
    assert len(charges) == n * (n + 1) // 2
    for eta in charges:
        for xi, (_, parity, gxi, exi) in charges.items():
            assert sum(a * b for a, b in zip(eta, gxi)) == lattice.pair(eta, xi)
            assert (-1) ** sum(a * b for a, b in zip(eta, exi)) == lattice.eps(eta, xi)
            assert parity == lattice.norm(xi) % 2


def test_skew_detects_a_wrong_table():
    # a sign error in one direction cannot satisfy the relation
    t = table("A", 1, 1)
    A = oc.boson_plus(t, (1,))
    good = oc.lambda_bracket_skew_check(t, A, A)
    assert good.ok
    s = oc.ope_singular(t, A, A)
    assert s == {2: scalar(t, 1)}


BILINEAR_CASES = [(fam, rank, k) for fam, rank in (("A", 2), ("B", 2), ("G", 2))
                  for k in (1, Q(-1, 3), Q(7, 2))]
SCALARS = st.builds(Q, st.integers(-4, 4).filter(bool), st.sampled_from([1, 2, 3]))


def _combination(gens, terms):
    """The sum of c * gens[i] over the (i, c) terms."""
    out = {}
    for i, c in terms:
        out = oc.field_add(out, oc.field_scale(gens[i], c))
    return out


def _integral_values_are_ints(poles):
    """Every coefficient of the poles is an int, or a Fraction that is not
    integral."""
    return all(type(v) is int or type(v) is Q and v.denominator != 1
               for f in poles.values() for v in f.values())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), case=st.sampled_from(BILINEAR_CASES))
def test_ope_singular_is_bilinear(data, case):
    t = table(*case)
    # all even, so every combination is parity-homogeneous
    gens = skew_generators(t)
    assert {oc.field_parity(t, g) for g in gens} == {0}
    terms = st.lists(st.tuples(st.integers(0, len(gens) - 1), SCALARS),
                     min_size=1, max_size=3)
    left, right = data.draw(terms, label="left"), data.draw(terms, label="right")
    got = oc.ope_singular(t, _combination(gens, left), _combination(gens, right))
    want = {}
    for i, a in left:
        for j, b in right:
            part = oc.ope_singular(t, gens[i], gens[j])
            assert _integral_values_are_ints(part)
            for n, f in part.items():
                want[n] = oc.field_add(want.get(n, {}), oc.field_scale(f, a * b))
    assert got == {n: f for n, f in want.items() if f}
    assert _integral_values_are_ints(got)


def reference_ope(t, A, B):
    """The singular part of A(z)B(w) as a Fraction sum of cA * cB * each
    _contract term of each term pair, zero sums and empty poles dropped."""
    want = {}
    for keyA, cA in A.items():
        for keyB, cB in B.items():
            entry = oc._contract(t, keyA, keyB)
            if entry:
                den, keys, nums = entry
                for (pole, key), n in zip(keys, nums):
                    f = want.setdefault(pole, {})
                    f[key] = f.get(key, 0) + Q(cA) * Q(cB) * Q(n, den)
    want = {pole: {key: c for key, c in f.items() if c} for pole, f in want.items()}
    return {pole: f for pole, f in want.items() if f}


# a positive, a negative and a large-prime-denominator level, on three types
REFERENCE_CASES = [(fam, rank, k) for fam, rank in (("A", 2), ("B", 2), ("G", 2))
                   for k in (Q(-5, 3), Q(7, 2), Q(1000003, 7))]
RATIONALS = st.builds(Q, st.integers(-6, 6).filter(bool), st.sampled_from([1, 2, 3, 7, 1000003]))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), case=st.sampled_from(REFERENCE_CASES))
def test_ope_table_is_the_fraction_sum_of_contract_terms(data, case):
    t = table(*case)
    gens = generators_and_free_parts(t)
    terms = st.lists(st.tuples(st.integers(0, len(gens) - 1), RATIONALS), min_size=1, max_size=3)
    lefts = [_combination(gens, data.draw(terms, label="left")) for _ in range(2)]
    rights = [_combination(gens, data.draw(terms, label="right")) for _ in range(2)]
    got = oc.ope_table(t, lefts, rights)
    assert got == [[reference_ope(t, A, B) for B in rights] for A in lefts]
    assert all(_integral_values_are_ints(poles) for row in got for poles in row)
    # a right field y g_i - x g_j whose two parts meet on one output key,
    # with coefficients x and y there: that key sums to exactly zero
    A = lefts[0]
    parts = oc.ope_table(t, [A], gens)[0]
    shared = [(pole, key, oc.field_add(oc.field_scale(gens[i], parts[j][pole][key]),
                                       oc.field_scale(gens[j], -parts[i][pole][key])))
              for i in range(len(gens)) for j in range(i + 1, len(gens))
              for pole, f in parts[i].items() for key in f if key in parts[j].get(pole, {})]
    shared = [drawn for drawn in shared if drawn[2]]  # g_i and g_j not proportional
    assume(shared)  # only an empty left side has none
    pole, key, right = data.draw(st.sampled_from(shared), label="cancel")
    got = oc.ope_singular(t, A, right)
    assert got == reference_ope(t, A, right)
    assert key not in got.get(pole, {})
    assert _integral_values_are_ints(got)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
)
def test_skew_on_random_single_term_fields(data):
    t = table("A", 1, 1)

    def draw_field(label):
        kind = data.draw(st.sampled_from(["boson", "charge", "affine"]), label=label)
        if kind == "boson":
            i = data.draw(st.integers(0, 1), label=label + "-idx")
            d = data.draw(st.integers(0, 2), label=label + "-der")
            return {(None, ((i, d),), (0, 0)): Q(1)}
        if kind == "charge":
            xp = data.draw(st.integers(-2, 2), label=label + "-xp")
            xm = data.draw(st.integers(-1, 1), label=label + "-xm")
            return oc.exp_field(t, (xp,), (xm,))
        which = data.draw(st.sampled_from([("H", 0), ("X", (1,)), ("X", (-1,))]),
                          label=label + "-aff")
        return {((which[0], which[1], 0), (), (0, 0)): Q(1)}

    A = draw_field("A")
    B = draw_field("B")
    assert oc.lambda_bracket_skew_check(t, A, B).ok


# ---------------------------------------------------------------------------
# errors

def test_mixed_parity_rejected():
    t = table("A", 1, 1)
    f = oc.field_add(oc.exp_field(t, (1,), (0,)), oc.identity_field(t))
    with pytest.raises(ValueError, match="parity"):
        oc.ope_singular(t, f, f)
    # still refused once each key has passed alone and sits in the registry
    t = table("A", 1, 1)
    for key, coef in f.items():
        oc.ope_singular(t, {key: coef}, {key: coef})
    assert set(t.registry) == set(f)
    with pytest.raises(ValueError, match="parity"):
        oc.ope_singular(t, f, f)
    with pytest.raises(ValueError, match="parity"):
        oc.field_parity(t, f)


def test_a_table_holding_keys_still_refuses_malformed_ones():
    t = table("A", 1, 1)
    J = oc.j_field(t, 0)
    oc.ope_singular(t, J, J)
    assert t.registry
    unregistered = "unregistered lattice vector"
    for key, reason in (((None, (), (1, 0, 0)), unregistered),
                        ((None, ((2, 0),), (0, 0)), unregistered),
                        ((None, ((0, -1),), (0, 0)), unregistered),
                        ((("Y", 0, 0), (), (0, 0)), "unknown affine symbol"),
                        ((("X", (2,), 0), (), (0, 0)), "unknown affine symbol"),
                        ((("H", 1, 0), (), (0, 0)), "unknown affine symbol")):
        with pytest.raises(ValueError, match=reason):
            oc.ope_singular(t, J, {key: Q(1)})
        assert key not in t.registry


def test_replace_starts_with_an_empty_registry_and_memo():
    t = table("A", 2, 1)
    J = oc.j_field(t, 0)
    oc.ope_singular(t, J, J)
    assert t.registry and t.memo
    fresh = dataclasses.replace(t, k=Q(2))
    assert fresh.registry == {} and fresh.memo == {}
    assert t.registry and t.memo


def test_unregistered_vector_rejected():
    t = table("A", 1, 1)
    bad = {(None, (), (1, 0, 0)): Q(1)}
    with pytest.raises(ValueError, match="unregistered lattice vector"):
        oc.ope_singular(t, bad, oc.identity_field(t))
    with pytest.raises(ValueError, match="unregistered lattice vector"):
        oc.boson_field(t, (1, 0, 0))
    # a fractional charge is not a lattice vector, not a truncated one
    t2 = table("A", 2, 1)
    for plus, minus in (((Q(1, 2), 0, 0), (0, 0)), ((0, 0, 0), (0, Q(-3, 2)))):
        with pytest.raises(ValueError, match="unregistered lattice vector"):
            oc.exp_field(t2, plus, minus)
    assert oc.exp_field(t2, (Q(1), 0, 0), (0, 0)) == oc.exp_field(t2, (1, 0, 0), (0, 0))


def test_composite_singular_term_rejected():
    # two surviving affine symbols cannot be represented in a single term,
    # in either order of the pair
    t = table("A", 2, 1)
    X = oc.x_tilde_field(t, (1, 0))
    for A, B in ((X, _composite(t)), (_composite(t), X)):
        with pytest.raises(ValueError, match="composite"):
            oc.ope_singular(t, A, B)
    # two symbols kept at order 0 or above are regular and never built
    X = oc.x_field(t, (1, 0))
    assert oc.ope_singular(t, X, X) == {}


def test_x_field_requires_root():
    t = table("A", 2, 1)
    with pytest.raises(ValueError, match="not a root"):
        oc.x_field(t, (2, 0))
    with pytest.raises(ValueError, match="not a root"):
        oc.x_tilde_field(t, (1, 2))
    for make in (oc.x_field, oc.x_tilde_field, oc.coroot_tilde_field):
        with pytest.raises(ValueError, match="not a root"):
            make(t, (Q(3, 2), 0))
    assert oc.x_field(t, (Q(1), Q(0))) == oc.x_field(t, (1, 0))


def test_h_tilde_index_range():
    t = table("A", 2, 1)
    with pytest.raises(ValueError, match="index"):
        oc.h_tilde_field(t, 2)


def test_bad_level_rejected():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError, match="level"):
        oc.make_table(rs, 0)
    with pytest.raises(ValueError, match="level"):
        oc.make_table(rs, -2)


# ---------------------------------------------------------------------------
# derivative operator

def test_derivative_of_charge_adds_boson():
    t = table("A", 1, 1)
    e = oc.exp_field(t, (1,), (-1,))
    assert oc.derivative(e) == {
        (None, ((0, 0),), (1, -1)): Q(1),
        (None, ((1, 0),), (1, -1)): Q(-1),
    }


def test_derivative_bumps_orders():
    f = {(("X", (1,), 0), ((0, 1),), (0, 0)): Q(1)}
    assert oc.derivative(f) == {
        (("X", (1,), 1), ((0, 1),), (0, 0)): Q(1),
        (("X", (1,), 0), ((0, 2),), (0, 0)): Q(1),
    }


def test_gstar_cached_on_table():
    rs = build_root_system("A", 2)
    t = oc.make_table(rs, 3)
    assert t.gstar == gram_g_star(rs, 3)
