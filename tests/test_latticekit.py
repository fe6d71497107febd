import dataclasses
import itertools
import math
from fractions import Fraction as Q
from operator import add, mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cosetlab import cli
from cosetlab.latticekit import (
    EmbeddedLattice,
    IntegralLattice,
    build_E_minus_lattice,
    build_E_plus_lattice,
    build_L_minus,
    build_L_plus,
    build_Qsc_dual_lattice,
    default_cocycle,
    direct_sum,
    discriminant_group,
    enumerate_by_norm,
    f_af,
    form_profile,
    g_af_minus,
    g_af_plus,
    g_sc_minus,
    g_sc_plus,
    kernel_K,
    sublattice,
)
from cosetlab.ratlinalg import determinant, mat_inv
from cosetlab.rootsys import build_root_system


def brute_sign_identity(lat):
    # the defining sign identity, checked directly on all basis pairs
    n = lat.rank
    for i in range(n):
        for j in range(n):
            u = tuple(1 if m == i else 0 for m in range(n))
            v = tuple(1 if m == j else 0 for m in range(n))
            lhs = lat.eps(u, v) * lat.eps(v, u)
            rhs = (-1) ** ((lat.pair(u, v) + lat.norm(u) * lat.norm(v)) % 2)
            assert lhs == rhs, (lat.name, i, j)


def test_basic_shapes():
    rs = build_root_system("A", 2)
    lp = build_L_plus(rs)
    lm = build_L_minus(rs)
    assert lp.rank == 3 and lm.rank == 2
    assert lp.signature == "positive"
    assert lm.signature == "negative"
    assert lp.pair((1, 0, 0), (0, 1, 0)) == 0
    assert lm.norm((1, 0)) == -1


def test_sign_identity_on_all_built_lattices():
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("C", 3)]:
        rs = build_root_system(family, rank)
        lats = [build_L_plus(rs), build_L_minus(rs)]
        lats.append(direct_sum(lats[0], lats[1]))
        lats.append(kernel_K(rs).lattice)
        lats.append(build_E_plus_lattice(rs, 2))
        lats.append(build_E_minus_lattice(rs, 2))
        if rs.is_simply_laced:
            lats.append(build_Qsc_dual_lattice(rs))
        for lat in lats:
            brute_sign_identity(lat)


def test_sign_identity_on_nonbasis_vectors():
    rs = build_root_system("B", 2)
    lat = direct_sum(build_L_plus(rs), build_L_minus(rs))
    vectors = [
        (1, 0, 1, 0, 1, 0),
        (1, 1, 1, 1, 1, 1),
        (2, -1, 0, 3, 1, -2),
        (0, 0, 1, 0, -1, 1),
    ]
    for u in vectors:
        for v in vectors:
            lhs = lat.eps(u, v) * lat.eps(v, u)
            rhs = (-1) ** int((lat.pair(u, v) + lat.norm(u) * lat.norm(v)) % 2)
            assert lhs == rhs


def test_plus_cocycle_antisymmetry_off_diagonal():
    rs = build_root_system("B", 2)
    lat = build_L_plus(rs)
    n = lat.rank
    for i in range(n):
        for j in range(n):
            u = tuple(1 if m == i else 0 for m in range(n))
            v = tuple(1 if m == j else 0 for m in range(n))
            product = lat.eps(u, v) * lat.eps(v, u)
            assert product == (1 if i == j else -1)


def test_minus_cocycle_negates_plus_on_generators():
    rs = build_root_system("A", 2)
    lp, lm = build_L_plus(rs), build_L_minus(rs)
    for i in range(2):
        for j in range(2):
            u = tuple(1 if m == i else 0 for m in range(2))
            v = tuple(1 if m == j else 0 for m in range(2))
            up = u + (0,)
            vp = v + (0,)
            assert lm.eps(u, v) == -lp.eps(up, vp)


def test_direct_sum_mixed_block_sign():
    # moving an odd minus-generator past an odd plus-generator costs a sign
    rs = build_root_system("A", 1)
    lat = direct_sum(build_L_plus(rs), build_L_minus(rs))
    plus = (1, 0)
    minus = (0, 1)
    assert lat.eps(plus, minus) * lat.eps(minus, plus) == -1


def test_f_af_values():
    rs = build_root_system("A", 2)
    theta = rs.highest_root
    v = f_af(rs, theta, "+")
    assert v == (1, 1, 0)
    assert f_af(rs, (0, 0), "+") == (0, 0, 0)
    rs1 = build_root_system("A", 1)
    w = f_af(rs1, (1,), "-")
    assert w == (1,)
    assert build_L_minus(rs1).norm(w) == -1


def test_f_af_rejects_non_lattice_weights():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        f_af(rs, (Q(1, 2), 0), "+")
    with pytest.raises(ValueError):
        f_af(rs, (1, 0), "x")


@pytest.mark.parametrize("lattice_map, plus", [
    (g_af_plus, True),
    (g_af_minus, False),
    (lambda rs, v: g_sc_plus(rs, 1, v), True),
    (lambda rs, v: g_sc_minus(rs, 1, v), False),
    (lambda rs, v: sublattice(build_L_plus(rs), [v], "W"), True),
], ids=["g_af_plus", "g_af_minus", "g_sc_plus", "g_sc_minus", "sublattice"])
def test_lattice_maps_refuse_fractional_coordinates(lattice_map, plus):
    # a half-integer coordinate is off the lattice, not truncated onto it
    rs = build_root_system("A", 2)
    n = rs.num_positive if plus else rs.rank
    with pytest.raises(ValueError):
        lattice_map(rs, (Q(1, 2),) + (0,) * (n - 1))


def test_f_norm_cancellation():
    for family, rank in [("A", 2), ("B", 2), ("C", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        for a in rs.simple_roots:
            for b in rs.simple_roots:
                plus = build_L_plus(rs).pair(f_af(rs, a, "+"),
                                             f_af(rs, b, "+"))
                minus = build_L_minus(rs).pair(f_af(rs, a, "-"),
                                               f_af(rs, b, "-"))
                assert plus + minus == 0


def test_g_af_plus_inverts_f_af():
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        rs = build_root_system(family, rank)
        for alpha in rs.simple_roots:
            assert g_af_plus(rs, f_af(rs, alpha, "+")) == tuple(Q(x) for x in alpha)


def test_g_af_plus_kernel_combination():
    rs = build_root_system("A", 2)
    # theta+ - a1+ - a2+ maps to theta - a1 - a2 = 0
    assert g_af_plus(rs, (-1, -1, 1)) == (Q(0), Q(0))


def test_g_af_minus_sign():
    # the minus pairing negates coordinates: zeta = alpha- pairs to -1
    rs = build_root_system("A", 1)
    assert g_af_minus(rs, (1,)) == (Q(-1),)
    rs2 = build_root_system("B", 2)
    assert g_af_minus(rs2, (2, -1)) == (Q(-2), Q(1))


def test_g_sc_values():
    rs = build_root_system("A", 2)
    xi = f_af(rs, rs.simple_roots[0], "+")
    lam = g_sc_plus(rs, 1, xi)
    assert lam.jstar_values(rs) == (Q(1), Q(0), Q(0))
    assert lam.in_Qsc(rs)
    zeta = f_af(rs, rs.simple_roots[1], "-")
    mu = g_sc_minus(rs, 1, zeta)
    assert mu.jstar_values(rs) == (Q(0), Q(-1), Q(0))


def test_kernel_rank_and_gram():
    rs = build_root_system("A", 1)
    assert kernel_K(rs).lattice.rank == 0
    rs = build_root_system("A", 2)
    emb = kernel_K(rs)
    assert emb.lattice.rank == 1
    assert emb.lattice.gram == ((3,),)
    assert emb.basis_in_ambient == ((-1, -1, 1),)
    rs = build_root_system("B", 2)
    assert kernel_K(rs).lattice.rank == 2
    assert kernel_K(rs).lattice.signature == "positive"


def test_kernel_vectors_annihilated():
    for family, rank in [("A", 2), ("B", 2), ("C", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        emb = kernel_K(rs)
        zero = (Q(0),) * rs.rank
        for row in emb.basis_in_ambient:
            assert g_af_plus(rs, row) == zero


def test_kernel_orthogonal_to_form_profiles():
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        emb = kernel_K(rs)
        lp = emb.ambient
        for alpha in rs.positive_roots:
            prof = form_profile(rs, alpha)
            for row in emb.basis_in_ambient:
                assert lp.pair(prof, row) == 0


def test_kernel_matches_brute_force():
    # every ambient vector of norm <= 6 killed by g_af_plus must be a kernel
    # lattice point, and conversely
    for family, rank in [("A", 2), ("B", 2)]:
        rs = build_root_system(family, rank)
        emb = kernel_K(rs)
        lp = emb.ambient
        zero = (Q(0),) * rs.rank
        brute = {
            v for v in enumerate_by_norm(lp, 6) if g_af_plus(rs, v) == zero
        }
        via_kernel = {
            emb.embed(c) for c in enumerate_by_norm(emb.lattice, 6)
        }
        assert brute == via_kernel


def test_form_profile_pairings():
    # <a_f, b_f> = h_vee (a, b) on the plus lattice
    for family, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(family, rank)
        lp = build_L_plus(rs)
        for a in rs.simple_roots:
            for b in rs.simple_roots:
                pa, pb = form_profile(rs, a), form_profile(rs, b)
                assert lp.pair(pa, pb) == rs.dual_coxeter * rs.form(a, b)


def test_qsc_dual_lattice_values():
    rs = build_root_system("A", 1)
    lat = build_Qsc_dual_lattice(rs)
    assert lat.gram == ((3,),)
    rs = build_root_system("A", 2)
    lat = build_Qsc_dual_lattice(rs)
    assert lat.gram == ((3, -1, 1), (-1, 3, 1), (1, 1, 3))


def test_qsc_dual_rejects_non_simply_laced():
    for family, rank in [("B", 2), ("G", 2), ("C", 3), ("F", 4)]:
        rs = build_root_system(family, rank)
        with pytest.raises(ValueError):
            build_Qsc_dual_lattice(rs)


def test_discriminant_groups():
    rs = build_root_system("A", 1)
    assert discriminant_group(build_Qsc_dual_lattice(rs)) == [3]
    rs = build_root_system("A", 2)
    assert discriminant_group(build_Qsc_dual_lattice(rs)) == [4, 4]
    rs = build_root_system("D", 4)
    assert discriminant_group(build_Qsc_dual_lattice(rs)) == [7, 7, 7, 7]
    # unimodular lattice: trivial group
    rs = build_root_system("A", 3)
    assert discriminant_group(build_L_plus(rs)) == []


def test_discriminant_group_order_matches_determinant():
    from cosetlab.ratlinalg import determinant, vec

    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("D", 4)]:
        rs = build_root_system(family, rank)
        lat = build_Qsc_dual_lattice(rs)
        order = 1
        for d in discriminant_group(lat):
            order *= d
        assert order == abs(determinant(tuple(map(vec, lat.gram))))
        hv = rs.dual_coxeter
        assert order == (1 + hv) ** rs.rank


def test_discriminant_rejects_singular():
    gram = ((1, 1), (1, 1))
    singular = IntegralLattice("S", gram, default_cocycle(gram))
    with pytest.raises(ValueError):
        discriminant_group(singular)


def test_e_lattice_grams():
    rs = build_root_system("A", 1)
    assert build_E_plus_lattice(rs, 1).gram == ((6,),)
    assert build_E_minus_lattice(rs, 1).gram == ((-6,),)
    rs = build_root_system("A", 2)
    em = build_E_minus_lattice(rs, 2)
    assert em.gram == (
        (-10, 5, 0),
        (5, -10, 0),
        (0, 0, 1),
    )
    assert em.signature == "indefinite"
    assert build_E_plus_lattice(rs, 2).gram == ((10, -5), (-5, 10))


def test_e_lattice_level_validation():
    rs = build_root_system("A", 2)
    for bad in (0, -1, Q(1, 2), Q(5, 3)):
        with pytest.raises(ValueError):
            build_E_plus_lattice(rs, bad)
        with pytest.raises(ValueError):
            build_E_minus_lattice(rs, bad)


def test_enumerate_rank_one():
    line = IntegralLattice("Z", ((1,),), ((0,),))
    assert enumerate_by_norm(line, 1) == [(-1,), (0,), (1,)]
    triple = IntegralLattice("T", ((3,),), ((1,),))
    assert enumerate_by_norm(triple, 3) == [(-1,), (0,), (1,)]


def test_enumerate_a2_plus():
    rs = build_root_system("A", 2)
    vectors = enumerate_by_norm(build_L_plus(rs), 1)
    assert len(vectors) == 7
    assert (0, 0, 0) in vectors
    assert all(abs(sum(x * x for x in v)) <= 1 for v in vectors)


def test_enumerate_negative_definite():
    rs = build_root_system("A", 2)
    vectors = enumerate_by_norm(build_L_minus(rs), 1)
    # zero plus the four signed generators
    assert len(vectors) == 5


def test_enumerate_counts_match_direct_scan():
    # independent oracle: scan a coordinate box that certainly contains the
    # ball, then compare sets exactly
    rs = build_root_system("B", 2)
    lat = build_L_plus(rs)
    bound = 4
    box = range(-2, 3)
    expected = set()
    for a in box:
        for b in box:
            for c in box:
                for d in box:
                    v = (a, b, c, d)
                    if lat.norm(v) <= bound:
                        expected.add(v)
    assert set(enumerate_by_norm(lat, bound)) == expected
    emb = kernel_K(rs)
    k_expected = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            if emb.lattice.norm((a, b)) <= 6:
                k_expected.add((a, b))
    assert set(enumerate_by_norm(emb.lattice, 6)) == k_expected


@st.composite
def _coset_ball(draw):
    """A definite sublattice of a +-identity ambient, with a nonsingular
    basis of integer rows, an integer ambient offset and a bound; half the
    time the bound puts a coset vector exactly on the sphere."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, min(m, 3)))
    basis = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    assume(determinant([[sum(map(mul, u, v)) for v in basis] for u in basis]) != 0)
    sign = draw(st.sampled_from((1, -1)))
    gram = tuple(tuple(sign * int(i == j) for j in range(m)) for i in range(m))
    ambient = IntegralLattice("I", gram, default_cocycle(gram))
    emb = sublattice(ambient, basis, "S")
    offset = tuple(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)))
    if draw(st.booleans()):
        bound = draw(st.fractions(0, 6))
    else:
        x = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        bound = abs(ambient.norm(tuple(map(add, offset, emb.embed(x)))))
    assume(math.prod(map(len, _box(emb, bound, offset))) <= 4000)
    return emb, bound, offset


def _box(emb, bound, offset):
    """Integer ranges of the box (x_i + y_i)^2 <= bound |G^-1|_ii, with
    y = G^-1 B offset the offset's projection onto the sublattice in its
    coordinates; the box holds every x with |<v,v>| <= bound for
    v = offset + x B."""
    inv = mat_inv(emb.lattice.gram)
    b = [emb.ambient.pair(row, offset) for row in emb.basis_in_ambient]
    ranges = []
    for i, row in enumerate(inv):
        c = -sum(map(mul, row, b))
        r = bound * abs(row[i])
        mid, half = math.floor(c), math.isqrt(math.ceil(r)) + 1
        ranges.append([x for x in range(mid - half, mid + half + 2)
                       if (x - c) ** 2 <= r])
    return ranges


@settings(max_examples=80, deadline=None)
@given(_coset_ball())
def test_centred_enumeration_matches_a_box_scan(ball):
    # an independent reference: a scan of offset + lattice that never calls
    # enumerate_by_norm; the images may come in any order, each once
    emb, bound, offset = ball
    images = (tuple(map(add, offset, emb.embed(x)))
              for x in itertools.product(*_box(emb, bound, offset)))
    expected = [v for v in images if abs(emb.ambient.norm(v)) <= bound]
    assert sorted(enumerate_by_norm(emb, bound, offset)) == sorted(expected)
    # an IntegralLattice reads the offset in its own coordinates, and a
    # lattice point moves its coset nowhere
    lat, x = emb.lattice, tuple(offset[:emb.lattice.rank])
    assert enumerate_by_norm(lat, bound, x) == enumerate_by_norm(lat, bound)


@settings(max_examples=60, deadline=None)
@given(_coset_ball())
def test_centred_enumeration_matches_filtered_origin_ball(ball):
    # the coset is centred on -offset: |x B|^2 <= 2 |o + x B|^2 + 2 |o|^2, so
    # the origin ball of that radius, moved by the offset and filtered on
    # the ambient norm, is the coset ball; only the order may differ
    emb, bound, offset = ball
    cover = 2 * bound + 2 * abs(emb.ambient.norm(offset))
    assume(math.prod(map(len, _box(emb, cover, (0,) * len(offset)))) <= 4000)
    moved = (tuple(map(add, offset, emb.embed(x)))
             for x in enumerate_by_norm(emb.lattice, cover))
    expected = [v for v in moved if abs(emb.ambient.norm(v)) <= bound]
    assert sorted(enumerate_by_norm(emb, bound, offset)) == sorted(expected)


@pytest.mark.parametrize("gram", [((1, 2), (2, 1)), ((1, 1), (1, 1))],
                         ids=["indefinite", "singular"])
def test_enumerate_refuses_an_indefinite_or_singular_gram(gram):
    # the signature is read off the Gram, so neither can pass for positive
    lat = IntegralLattice("X", gram, default_cocycle(gram))
    assert lat.signature == "indefinite"
    with pytest.raises(ValueError, match="^lattice is not definite$"):
        enumerate_by_norm(lat, 2)


def _disc_lattices(rs):
    """Every lattice ``lattice disc`` builds on rs: e-plus and e-minus at
    levels 1 and 2, and qsc-dual only where rs is simply laced."""
    for name, build in cli._LATTICES:
        if name.startswith("e-"):
            yield from (build(rs, k) for k in (1, 2))
        elif name != "qsc-dual" or rs.is_simply_laced:
            yield build(rs)


@pytest.mark.parametrize("family, rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("D", 4), ("F", 4),
    ("E", 6)])
def test_lattice_determinant_is_the_gram_determinant(family, rank):
    # the last leading minor of the signature pass, kept by the lattice
    lattices = list(_disc_lattices(build_root_system(family, rank)))
    assert len(lattices) == (7 if family in "ADE" else 6)
    for lat in lattices:
        assert lat.determinant == determinant(lat.gram), (family, rank, lat.name)


def test_lattice_determinant_at_rank_zero_and_a_zero_leading_minor():
    # the A1 kernel has no basis vector: the empty Gram has determinant 1
    kernel = kernel_K(build_root_system("A", 1)).lattice
    assert (kernel.rank, kernel.determinant, discriminant_group(kernel)) == (0, 1, [])
    # the hyperbolic plane's first leading minor is 0, which ends the
    # signature pass; the determinant comes from a pivoting pass instead
    gram = ((0, 1), (1, 0))
    plane = IntegralLattice("U", gram, default_cocycle(gram))
    assert (plane.signature, plane.determinant) == ("indefinite", -1)
    assert plane.determinant == determinant(gram)
    assert discriminant_group(plane) == []


def test_replace_recomputes_rank_and_signature():
    lat = IntegralLattice("X", ((2, 1), (1, 2)), ((0, 0), (1, 0)))
    assert (lat.rank, lat.signature) == (2, "positive")
    flipped = dataclasses.replace(lat, gram=((-2, -1), (-1, -2)))
    assert (flipped.rank, flipped.signature) == (2, "negative")
    mixed = dataclasses.replace(lat, gram=((2, 1), (1, -2)))
    assert (mixed.signature, mixed.determinant) == ("indefinite", -5)
    with pytest.raises(ValueError, match="cocycle identity fails"):
        dataclasses.replace(lat, gram=((2, 0), (0, 2)))


def test_centred_enumeration_checks_the_center_length():
    # the offset is an ambient vector, not one in the kernel's coordinates
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        enumerate_by_norm(build_L_plus(rs), 1, (1, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        enumerate_by_norm(kernel_K(rs), 1, (1,))


def test_coset_enumeration_refuses_a_non_integral_offset():
    emb = kernel_K(build_root_system("A", 2))
    with pytest.raises(ValueError, match="offset coordinates must be integers"):
        enumerate_by_norm(emb, 1, (Q(1, 2), 0, 0))


def test_enumerate_rejects_indefinite():
    rs = build_root_system("A", 2)
    both = direct_sum(build_L_plus(rs), build_L_minus(rs))
    with pytest.raises(ValueError):
        enumerate_by_norm(both, 2)


def test_enumerate_rank_zero():
    rs = build_root_system("A", 1)
    assert enumerate_by_norm(kernel_K(rs).lattice, 5) == [()]
    # embedded, the one vector is the ambient zero, not the empty tuple
    assert enumerate_by_norm(kernel_K(rs), 5) == [(0,)]
    # the coset of a rank-0 kernel is its offset alone, on the sphere at 4
    assert enumerate_by_norm(kernel_K(rs), 4, (2,)) == [(2,)]
    assert enumerate_by_norm(kernel_K(rs), Q(39, 10), (2,)) == []


@pytest.mark.parametrize("family, rank", [("A", 2), ("B", 2), ("G", 2),
                                          ("A", 3), ("B", 3)])
@pytest.mark.parametrize("shifted", [False, True], ids=["origin", "offset"])
def test_embedded_enumeration_is_the_embedded_coordinate_one(family, rank,
                                                             shifted):
    # the running-sum images against embed() of each coordinate vector,
    # moved by the offset and filtered on the ambient norm; only the order
    # may differ.  |x B|^2 <= 2 |o + x B|^2 + 2 |o|^2, so the coordinate
    # ball of that radius covers the coset's
    emb = kernel_K(build_root_system(family, rank))
    m = emb.ambient.rank
    o = tuple(i % 3 - 1 for i in range(m)) if shifted else (0,) * m
    images = enumerate_by_norm(emb, 6, o if shifted else None)
    cover = 12 + 2 * emb.ambient.norm(o)
    moved = (tuple(map(add, o, emb.embed(c)))
             for c in enumerate_by_norm(emb.lattice, cover))
    reference = [v for v in moved if emb.ambient.norm(v) <= 6]
    assert len(reference) > 1
    assert sorted(images) == sorted(reference)


def test_default_cocycle_satisfies_identity():
    grams = [
        ((2, -1), (-1, 2)),
        ((3, 1, 0), (1, 3, 1), (0, 1, 4)),
        ((-6, 3), (3, -6)),
        ((1, 0), (0, -1)),
    ]
    for gram in grams:
        eps = default_cocycle(gram)
        IntegralLattice("X", gram, eps)


def test_bad_cocycle_rejected():
    with pytest.raises(ValueError):
        IntegralLattice("bad", ((1, 0), (0, 1)), ((0, 0), (0, 0)))


def _dense(u, m, v):
    n = len(m)
    return sum(u[i] * m[i][j] * v[j] for i in range(n) for j in range(n))


_DENSE_LATTICE = direct_sum(build_Qsc_dual_lattice(build_root_system("A", 3)),
                            build_L_minus(build_root_system("A", 3)))
_COORD = st.integers(-3, 3)
_VECTOR = st.lists(_COORD, min_size=_DENSE_LATTICE.rank,
                   max_size=_DENSE_LATTICE.rank).map(tuple)


@settings(max_examples=60, deadline=None)
@given(_VECTOR, _VECTOR, st.integers(1, 4))
def test_pair_eps_and_pullback_match_dense_sums(u, v, den):
    # the sparse u.M.v against the double sum over every index pair
    lat = _DENSE_LATTICE
    g, e = lat.gram, lat.eps_exponents
    assert lat.pair(u, v) == _dense(u, g, v)
    half = tuple(Q(x, den) for x in u)
    assert lat.pair(half, v) == _dense(half, g, v)
    assert lat.eps(u, v) == (-1) ** (_dense(u, e, v) % 2)
    emb = sublattice(lat, [u, v], "W")
    rows = (u, v)
    assert emb.lattice.gram == tuple(tuple(_dense(a, g, b) for b in rows) for a in rows)
    assert emb.lattice.eps_exponents == tuple(
        tuple(_dense(a, e, b) % 2 for b in rows) for a in rows)


def test_pair_eps_and_sublattice_check_dimensions():
    lat = build_L_plus(build_root_system("A", 2))
    for u, v in (((1, 0, 0, 1), (1, 0, 0)), ((1, 0, 0), (1, 0))):
        for form in (lat.pair, lat.eps):
            with pytest.raises(ValueError, match="dimension mismatch"):
                form(u, v)
    with pytest.raises(ValueError, match="dimension mismatch"):
        sublattice(lat, [(1, 0)], "W")


def test_sublattice_of_sum_keeps_identity():
    rs = build_root_system("A", 2)
    both = direct_sum(build_L_plus(rs), build_L_minus(rs))
    emb = sublattice(both, [(1, 0, 0, 1, 0), (0, 0, 1, 0, 1)], "W")
    brute_sign_identity(emb.lattice)
    assert isinstance(emb, EmbeddedLattice)
    assert emb.embed((1, 1)) == (1, 0, 1, 1, 1)
