from __future__ import annotations

import dataclasses
import json
from fractions import Fraction as Q
from itertools import combinations_with_replacement
from math import gcd
from operator import add, mul, sub

import pytest

from cosetlab import cli, rootsys
from cosetlab.latticekit import build_E_minus_lattice, build_E_plus_lattice
from cosetlab.ratlinalg import mat_vec
from cosetlab.rootsys import (
    FAMILIES,
    _dual_coxeter,
    build_root_system,
    cartan_matrix,
    check_hvee_identity,
    normalized_form,
    structure_constants,
)

# Positive-root sets enumerated by hand from the defining reflection data,
# written down before the closure code and frozen here as the oracle.
HAND_ENUMERATED = {
    ("A", 2): {(1, 0), (0, 1), (1, 1)},
    ("A", 3): {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)},
    ("B", 2): {(1, 0), (0, 1), (1, 1), (1, 2)},
    ("G", 2): {(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)},
    ("C", 3): {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1),
        (1, 1, 1), (0, 2, 1),
        (1, 2, 1),
        (2, 2, 1),
    },
}

COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9,
    ("C", 3): 9, ("C", 4): 16,
    ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24,
    ("G", 2): 6,
}

DUAL_COXETER = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 4): 5,
    ("B", 2): 3, ("B", 3): 5,
    ("C", 3): 4, ("C", 4): 5,
    ("D", 4): 6, ("D", 5): 8,
    ("E", 6): 12, ("E", 7): 18, ("E", 8): 30,
    ("F", 4): 9,
    ("G", 2): 4,
}


@pytest.mark.parametrize("family,rank", sorted(HAND_ENUMERATED))
def test_positive_roots_match_hand_enumeration(family, rank):
    rs = build_root_system(family, rank)
    assert set(rs.positive_roots) == HAND_ENUMERATED[(family, rank)]


def test_positive_root_order_is_height_then_coordinates():
    rs = build_root_system("A", 2)
    assert rs.positive_roots == ((1, 0), (0, 1), (1, 1))
    rs = build_root_system("B", 2)
    assert rs.positive_roots == ((1, 0), (0, 1), (1, 1), (1, 2))
    rs = build_root_system("A", 3)
    assert rs.positive_roots == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
    )


@pytest.mark.parametrize("family,rank", sorted(COUNTS))
def test_positive_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert rs.num_positive == COUNTS[(family, rank)]
    assert rs.dim_algebra == rank + 2 * COUNTS[(family, rank)]


@pytest.mark.parametrize("family,rank", sorted(DUAL_COXETER))
def test_dual_coxeter_numbers(family, rank):
    # the constructor already cross-checks the eigenvalue against 1 + (rho, theta-vee)
    rs = build_root_system(family, rank)
    assert rs.dual_coxeter == DUAL_COXETER[(family, rank)]


@pytest.mark.parametrize("row, col, message", [
    (2, 0, "not proportional"),  # theta's pairing with alpha_1
    (0, 2, "consistency check failed"),  # alpha_1's pairing with theta
])
def test_dual_coxeter_refuses_a_corrupted_pair_table(row, col, message):
    rs = build_root_system("A", 2)
    table = [list(r) for r in rs.pair_table]
    table[row][col] += 1
    with pytest.raises(ValueError, match=message):
        _dual_coxeter(table, rs.pair_den, rs.positive_roots, rs.highest_root)


def test_short_root_norms():
    assert build_root_system("G", 2).norm((0, 1)) == Q(2, 3)
    assert build_root_system("B", 2).norm((0, 1)) == 1
    assert build_root_system("C", 3).norm((1, 0, 0)) == 1
    assert build_root_system("F", 4).norm((0, 0, 0, 1)) == 1


def test_long_roots_have_norm_two():
    for family, rank in sorted(COUNTS):
        rs = build_root_system(family, rank)
        norms = {rs.norm(alpha) for alpha in rs.positive_roots}
        assert max(norms) == 2
        assert len(norms) <= 2
        assert rs.norm(rs.highest_root) == 2


def test_normalized_form_values():
    rs = build_root_system("A", 2)
    a1, a2 = rs.simple_roots
    assert normalized_form(rs, a1, a1) == 2
    assert normalized_form(rs, a1, a2) == -1
    assert normalized_form(rs, a2, a1) == -1
    rs = build_root_system("B", 2)
    assert normalized_form(rs, rs.simple_roots[1], rs.simple_roots[1]) == 1
    assert normalized_form(rs, rs.highest_root, rs.highest_root) == 2


def test_fundamental_weights_dual_to_simple_coroots():
    for family, rank in [("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        rs = build_root_system(family, rank)
        for i in range(rank):
            w = rs.fundamental_weight(i)
            for j, alpha in enumerate(rs.simple_roots):
                assert rs.form(w, rs.coroot(alpha)) == (1 if i == j else 0)


def test_hvee_identity_on_fundamental_weights():
    # the integer check on the simple roots, against both sides evaluated on
    # each fundamental weight in Fraction arithmetic
    for family, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(family, rank)
        assert check_hvee_identity(rs)
        for i in range(rank):
            w = rs.fundamental_weight(i)
            pairings = rs.root_pairings(w)
            lhs = tuple(sum(map(mul, pairings, col))
                        for col in zip(*rs.positive_roots))
            assert lhs == tuple(rs.dual_coxeter * x for x in w)


def _bump_pair_table(rs, row, col):
    """rs with 1 added to pair_table[row][col]."""
    table = [list(r) for r in rs.pair_table]
    table[row][col] += 1
    return dataclasses.replace(rs, pair_table=tuple(map(tuple, table)))


def _hvee_mutants(rs):
    """One simple-root column entry of the pair table bumped, and h-vee + 1."""
    top = rs.root_index[rs.highest_root]
    return (_bump_pair_table(rs, top, rs.rank - 1),
            dataclasses.replace(rs, dual_coxeter=rs.dual_coxeter + 1))


def test_hvee_identity_fails_off_eigenvalue():
    for family, rank in [("A", 2), ("B", 3), ("G", 2), ("D", 4)]:
        rs = build_root_system(family, rank)
        assert check_hvee_identity(rs)
        for mutant in _hvee_mutants(rs):
            assert not check_hvee_identity(mutant), (family, rank)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_rootsys_info_exits_1_on_a_failed_hvee_identity(fmt, capsys,
                                                        monkeypatch):
    for mutant in _hvee_mutants(build_root_system("B", 3)):
        monkeypatch.setattr(cli, "build_root_system", lambda *_: mutant)
        rc = cli.main(["rootsys", "info", "--type", "B", "--rank", "3",
                       "--format", fmt])
        out = capsys.readouterr().out
        assert rc == 1
        if fmt == "json":
            assert json.loads(out)["hvee_identity_ok"] is False
        else:
            assert out.endswith("hvee identity on fundamental weights: FAIL\n")


def test_long_root_gram_is_even_integral():
    for family, rank in [("A", 2), ("B", 2), ("C", 3), ("G", 2), ("F", 4), ("D", 4)]:
        rs = build_root_system(family, rank)
        gram = rs.long_root_gram()
        for i, row in enumerate(gram):
            for j, entry in enumerate(row):
                assert isinstance(entry, int)
                if i == j:
                    assert entry % 2 == 0


def test_long_root_gram_refuses_a_fractional_entry():
    # t_00 = 3 on A2 makes (alpha_1-vee, alpha_1-vee) = 4 * 3 / 9 = 4/3
    rs = _bump_pair_table(build_root_system("A", 2), 0, 0)
    for read in (rs.long_root_gram,
                 lambda: build_E_plus_lattice(rs, 2),
                 lambda: build_E_minus_lattice(rs, 1)):
        with pytest.raises(ValueError, match="long-root Gram is not integral"):
            read()


def test_long_roots_lie_in_long_root_lattice():
    # every long root must be an integer combination of simple coroots
    from cosetlab.ratlinalg import mat_inv, vec
    for family, rank in [("B", 2), ("C", 3), ("G", 2), ("F", 4)]:
        rs = build_root_system(family, rank)
        basis = tuple(map(vec, rs.long_root_basis()))
        to_basis = mat_inv(tuple(zip(*basis)))
        for alpha in rs.positive_roots:
            if rs.norm(alpha) == 2:
                coords = mat_vec(to_basis, alpha)
                assert all(c.denominator == 1 for c in coords)


def test_simple_reflections_permute_roots():
    for family, rank in [("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(family, rank)
        roots = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
        for beta in roots:
            for i, alpha in enumerate(rs.simple_roots):
                c = 2 * rs.form(beta, alpha) / rs.norm(alpha)
                assert c.denominator == 1
                refl = tuple(b - int(c) * a for b, a in zip(beta, alpha))
                assert refl in roots


def test_is_root_is_exact():
    rs = build_root_system("A", 2)
    assert rs.is_root((1, 1)) and rs.is_root((Q(-1), Q(0)))
    # (3/2, 0) is not truncated to the root (1, 0)
    for coords in ((Q(3, 2), 0), (Q(1, 2), Q(1, 2)), (0, Q(-3, 2)), (2, 0)):
        assert not rs.is_root(coords)
    # a list is looked up like the tuple; half-integral entries never match
    assert rs.is_root([0, -1]) and rs.is_root([Q(1), 1])
    assert not rs.is_root([Q(1, 2), Q(1, 2)]) and not rs.is_root([Q(-1, 2), 0])


# each family's rank boundaries: (family, rank, refusal or None when admitted);
# a family outside the table is refused before its rank is read
RANK_BOUNDARIES = (
    ("A", 0, "rank out of range for A"), ("A", 1, None),
    ("B", 1, "rank out of range for B"), ("B", 2, None),
    ("C", 1, "rank out of range for C"), ("C", 2, None),
    ("D", 2, "rank out of range for D"), ("D", 3, None),
    ("E", 5, "rank out of range for E"), ("E", 6, None),
    ("E", 8, None), ("E", 9, "rank out of range for E"),
    ("F", 3, "rank out of range for F"), ("F", 4, None),
    ("F", 5, "rank out of range for F"),
    ("G", 1, "rank out of range for G"), ("G", 2, None),
    ("G", 3, "rank out of range for G"),
    ("H", 3, "unknown family 'H'"), ("H", 0, "unknown family 'H'"),
)


def test_rank_rule_at_every_family_boundary():
    for family, rank, refusal in RANK_BOUNDARIES:
        if refusal is None:
            rs = build_root_system(family, rank)
            assert (rs.family, rs.rank) == (family, rank)
            continue
        for build in (cartan_matrix, build_root_system):
            with pytest.raises(ValueError) as exc:
                build(family, rank)
            assert str(exc.value) == refusal, (family, rank)


def symmetrizer_faults():
    """(family, rank) up to rank 12 where rootsys._symmetrizer's D_i a_ij
    is not symmetric or its entries share a factor."""
    faults = []
    for family, (low, high) in FAMILIES.items():
        for rank in range(low, min(high or 12, 12) + 1):
            a, d = cartan_matrix(family, rank), rootsys._symmetrizer(family, rank)
            if gcd(*d) != 1 or any(d[i] * a[i][j] != d[j] * a[j][i]
                                   for i in range(rank) for j in range(rank)):
                faults.append((family, rank))
    return faults


def test_symmetrizer_symmetrizes_every_cartan_matrix():
    assert symmetrizer_faults() == []


@pytest.mark.parametrize("family, rank", sorted(COUNTS))
def test_pair_table_matches_form(family, rank):
    rs = build_root_system(family, rank)
    roots = rs.positive_roots
    assert len(rs.pair_table) == len(roots)
    for a, row in zip(roots, rs.pair_table):
        assert len(row) == len(roots)
        for b, x in zip(roots, row):
            assert isinstance(x, int)
            assert Q(x, rs.pair_den) == rs.form(a, b)
    assert rs.pair_den == {"B": 2, "C": 2, "F": 2, "G": 3}.get(family, 1)
    assert rs.is_simply_laced == (family in "ADE")


# ---------------------------------------------------------------------------
# Chevalley structure constants

def _roots(rs):
    return list(rs.positive_roots) + [tuple(-c for c in a) for a in rs.positive_roots]


def lie_brackets(rs, n):
    """The Chevalley basis labels and [u, v] of every two, as {label:
    coefficient}: a root a labels X_a and an index i labels H_i, the current
    of the simple root alpha_i, with [H_i, X_b] = (alpha_i, b) X_b,
    [X_a, X_-a] the coroot 2 a / (a, a) over the H_i, and [X_a, X_b] =
    n[a, b] X_(a+b) where n has the pair."""
    basis = _roots(rs) + list(range(rs.rank))
    out = {}
    for u in basis:
        for v in basis:
            if type(u) is int and type(v) is int:
                b = {}
            elif type(u) is int:
                b = {v: rs.form(rs.simple_roots[u], v)}
            elif type(v) is int:
                b = {u: -rs.form(rs.simple_roots[v], u)}
            elif not any(s := tuple(map(add, u, v))):
                b = {i: 2 * c / rs.norm(u) for i, c in enumerate(u)}
            else:
                b = {s: n[u, v]} if (u, v) in n else {}
            out[u, v] = {w: c for w, c in b.items() if c}
    return basis, out


def jacobi_failures(rs, n):
    """Unordered basis triples whose Jacobi sum [x, [y, z]] + [y, [z, x]] +
    [z, [x, y]] is not zero; on an antisymmetric n the bracket is
    antisymmetric, so these stand for every ordered triple."""
    basis, brackets = lie_brackets(rs, n)
    failures = 0
    for x, y, z in combinations_with_replacement(basis, 3):
        total = {}
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for t, c in brackets[v, w].items():
                for r, d in brackets[u, t].items():
                    total[r] = total.get(r, 0) + c * d
        failures += any(total.values())
    return failures


# every admitted type with at most 24 positive roots
JACOBI_TYPES = [("A", r) for r in range(1, 7)] + [("B", 2), ("B", 3), ("B", 4), ("C", 2),
                                                  ("C", 3), ("C", 4), ("D", 3), ("D", 4),
                                                  ("D", 5), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family, rank", JACOBI_TYPES)
def test_structure_constants_make_a_lie_algebra(family, rank):
    rs = build_root_system(family, rank)
    assert rs.num_positive <= 24
    assert jacobi_failures(rs, structure_constants(rs)) == 0


@pytest.mark.parametrize("family, rank", sorted(COUNTS))
def test_structure_constants_are_chevalley(family, rank):
    # one entry per ordered pair of roots whose sum is a root, |N| = p + 1,
    # antisymmetric, N[-a, -b] = -N[a, b], the triangle identity, and +(p + 1)
    # on the extraspecial pair of every positive sum
    rs = build_root_system(family, rank)
    n = structure_constants(rs)
    norm = {}
    for i, a in enumerate(rs.positive_roots):
        norm[a] = norm[tuple(-x for x in a)] = Q(rs.pair_table[i][i], rs.pair_den)
    pairs = [(a, b) for a in norm for b in norm if tuple(map(add, a, b)) in norm]
    assert sorted(n) == sorted(pairs) and all(type(x) is int for x in n.values())
    for a, b in pairs:
        p = 0
        while tuple(y - (p + 1) * x for x, y in zip(a, b)) in norm:
            p += 1
        w = tuple(-x - y for x, y in zip(a, b))
        assert abs(n[a, b]) == p + 1
        assert n[b, a] == n[tuple(-x for x in a), tuple(-x for x in b)] == -n[a, b]
        assert n[a, b] / norm[w] == n[b, w] / norm[a] == n[w, a] / norm[b]
    index = rs.root_index
    for xi in rs.positive_roots:
        special = [(a, b) for a in rs.positive_roots
                   if index[a] < index.get(b := tuple(map(sub, xi, a)), -1)]
        assert not special or n[special[0]] > 0
