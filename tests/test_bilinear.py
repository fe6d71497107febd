from fractions import Fraction as Q

import pytest

from cosetlab.bilinear import (
    CongruenceVerdict,
    central_charge_sc_direct,
    central_charges,
    conformal_weight_plus,
    converse_congruence_check,
    gram_G,
    gram_G_star,
    gram_g,
    gram_g_star,
    int_gram_G,
    int_gram_G_star,
    int_gram_g,
    int_gram_g_star,
    is_inverse_pair,
    level_params,
    make_sc_weight,
    sc_weight_from_jstar,
    sc_weight_to_af,
    weight_to_sc,
)
from cosetlab.ratlinalg import identity, mat_mul, rational_rows
from cosetlab.rootsys import build_root_system

GRID_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
              ("C", 3), ("D", 4), ("F", 4), ("G", 2)]
GRID_LEVELS = [Q(1), Q(2), Q(3), Q(1, 2), Q(5, 3), Q(-1, 3)]


def test_level_validation():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        level_params(rs, 0)
    with pytest.raises(ValueError):
        level_params(rs, -3)  # h_vee = 3
    assert level_params(rs, Q(1, 2)).shifted == Q(7, 2)


# rank-one values worked out by hand: g = 2/k + 1, g* = k/(k+2),
# G = g* - 1, G* = -k/2 - 1
def test_rank_one_gram_values():
    rs = build_root_system("A", 1)
    assert gram_g(rs, 1) == ((Q(3),),)
    assert gram_g_star(rs, 1) == ((Q(1, 3),),)
    assert gram_G(rs, 1) == ((Q(-2, 3),),)
    assert gram_G_star(rs, 1) == ((Q(-3, 2),),)
    assert gram_g(rs, Q(-1, 2)) == ((Q(-3),),)
    assert gram_g_star(rs, Q(-1, 2)) == ((Q(-1, 3),),)


def test_gram_a2_entries():
    rs = build_root_system("A", 2)
    # at k=1 the J pairing matrix is (alpha,beta) + delta over (a1, a2, theta)
    assert gram_g(rs, 1) == (
        (Q(3), Q(-1), Q(1)),
        (Q(-1), Q(3), Q(1)),
        (Q(1), Q(1), Q(3)),
    )


@pytest.mark.parametrize("family,rank", GRID_TYPES)
@pytest.mark.parametrize("k", GRID_LEVELS)
def test_gram_inverse_pairs(family, rank, k):
    rs = build_root_system(family, rank)
    if k == -rs.dual_coxeter:
        return
    n = rs.num_positive
    assert mat_mul(gram_g(rs, k), gram_g_star(rs, k)) == identity(n)
    assert mat_mul(gram_G(rs, k), gram_G_star(rs, k)) == identity(n)


@pytest.mark.parametrize("family,rank", GRID_TYPES)
@pytest.mark.parametrize("k", GRID_LEVELS)
def test_integer_gram_pairs(family, rank, k):
    """The integer builders: a positive denominator, the gram_* views as
    their rational matrices, both pairs inverse on integers, and a pair with
    one numerator bumped refused."""
    rs = build_root_system(family, rank)
    if k == -rs.dual_coxeter:
        return
    g, g_star = int_gram_g(rs, k), int_gram_g_star(rs, k)
    big_g, big_g_star = int_gram_G(rs, g_star), int_gram_G_star(rs, k)
    for pair, view in ((g, gram_g), (g_star, gram_g_star), (big_g, gram_G),
                       (big_g_star, gram_G_star)):
        assert pair[1] > 0
        assert rational_rows(*pair) == view(rs, k)
    for a, b in ((g, g_star), (g_star, g), (big_g, big_g_star), (big_g_star, big_g)):
        assert is_inverse_pair(a, b)
        rows = [list(row) for row in b[0]]
        rows[-1][0] += 1
        assert not is_inverse_pair(a, (rows, b[1]))


def test_gram_rejects_bad_levels():
    rs = build_root_system("B", 2)  # h_vee = 3
    for f in (gram_g, gram_g_star, gram_G, gram_G_star):
        with pytest.raises(ValueError):
            f(rs, 0)
        with pytest.raises(ValueError):
            f(rs, -3)


def test_weight_to_sc_values():
    rs = build_root_system("A", 1)
    assert weight_to_sc(rs, 2, (1,)).j_values == (Q(1),)
    rs = build_root_system("A", 2)
    assert weight_to_sc(rs, 1, (1, 0)).j_values == (Q(2), Q(-1), Q(1))
    assert weight_to_sc(rs, 5, (0, 0)).j_values == (Q(0), Q(0), Q(0))


def test_sc_weight_round_trip():
    for family, rank, k in [("A", 1, Q(1)), ("A", 2, Q(3)), ("B", 2, Q(5, 2))]:
        rs = build_root_system(family, rank)
        for i in range(rank):
            mu = rs.fundamental_weight(i)
            lam = weight_to_sc(rs, k, mu)
            assert sc_weight_to_af(rs, k, lam) == mu
        alpha = rs.simple_roots[0]
        lam = weight_to_sc(rs, k, alpha)
        assert sc_weight_to_af(rs, k, lam) == tuple(Q(x) for x in alpha)


def test_jstar_values_are_dual():
    rs = build_root_system("A", 2)
    k = Q(2)
    gs = gram_g_star(rs, k)
    lam = make_sc_weight(rs, k, (1, 0, 0))
    assert lam.jstar_values(rs) == tuple(row[0] for row in gs)
    # building from prescribed dual values round-trips
    target = (Q(1), Q(-2), Q(3))
    assert sc_weight_from_jstar(rs, k, target).jstar_values(rs) == target


def test_qsc_membership():
    rs = build_root_system("A", 1)
    lam = weight_to_sc(rs, 1, (1,))
    # single dual value 2/3: not an integer combination of the J basis
    assert lam.jstar_values(rs) == (Q(2, 3),)
    assert not lam.in_Qsc(rs)
    assert sc_weight_from_jstar(rs, 1, (5,)).in_Qsc(rs)


def test_congruence_rank_one_trivial():
    rs = build_root_system("A", 1)
    for values in [(Q(1, 7),), (Q(3),), (Q(-2, 5),)]:
        verdict = converse_congruence_check(rs, 2, make_sc_weight(rs, 2, values))
        assert verdict.ok
        assert verdict.differences == (Q(0),)


def test_congruence_a2_integral():
    rs = build_root_system("A", 2)
    mu = weight_to_sc(rs, 1, (1, 0))
    verdict = converse_congruence_check(rs, 1, mu)
    assert verdict.ok
    assert all(d.denominator == 1 for d in verdict.differences)


def test_congruence_detects_bad_kernel_value():
    rs = build_root_system("A", 2)
    # value 1/2 on J_theta - J_a1 - J_a2 violates the integrality hypothesis
    mu = make_sc_weight(rs, 1, (0, 0, Q(1, 2)))
    verdict = converse_congruence_check(rs, 1, mu)
    assert not verdict.ok
    assert verdict.reason == "not in the image of a V_K-graded module"
    assert verdict.offending == (1, 1)


def test_congruence_difference_equals_kernel_value():
    # the defect mu(J_alpha) - (mu_af)_sc(J_alpha) is exactly the value of mu
    # on J_alpha - sum_i alpha_i J_{alpha_i}
    rs = build_root_system("B", 2)
    mu = make_sc_weight(rs, 3, (1, 2, 3, 5))
    verdict = converse_congruence_check(rs, 3, mu)
    expected = []
    for i, alpha in enumerate(rs.positive_roots):
        t = mu.j_values[i]
        for j in range(rs.rank):
            t -= alpha[j] * mu.j_values[j]
        expected.append(t)
    assert verdict.differences == tuple(expected)


def test_conformal_weight_plus_values():
    rs = build_root_system("A", 1)
    assert conformal_weight_plus(rs, 1, (1,)) == Q(1, 3)
    assert conformal_weight_plus(rs, 1, (0,)) == 0
    rs = build_root_system("A", 2)
    assert conformal_weight_plus(rs, 2, rs.highest_root) == Q(1, 5)


def test_central_charges_examples():
    rs = build_root_system("A", 1)
    assert central_charges(rs, 1) == (Q(1), Q(1))
    assert central_charges(rs, 100) == (Q(300, 102), Q(300, 102))
    rs = build_root_system("A", 2)
    assert central_charges(rs, 1) == (Q(2), Q(3))


@pytest.mark.parametrize("family,rank", GRID_TYPES)
@pytest.mark.parametrize("k", GRID_LEVELS)
def test_central_charge_formulas_agree(family, rank, k):
    rs = build_root_system(family, rank)
    if k == -rs.dual_coxeter:
        return
    assert central_charges(rs, k)[1] == central_charge_sc_direct(rs, k)
