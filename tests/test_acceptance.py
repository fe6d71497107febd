"""Acceptance gate: one test per shipped guarantee, all checks exact.

Run `python3 -m pytest tests/test_acceptance.py -v` to get one pass/fail
line per criterion.  Everything here goes through public APIs only; the
tolerances are zero throughout (Fraction equality).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from cosetlab.bilinear import (central_charge_sc_direct, central_charges,
                               gram_G, gram_G_star, gram_g, gram_g_star,
                               weight_to_sc)
from cosetlab.charflow import (QSeries, affine_character, cflemma_check,
                               defermionize_character, fermionize_character,
                               flow_af_equivariance_diff,
                               flow_sc_equivariance_diff, roundtrip_check,
                               spectral_flow_af, spectral_flow_sc,
                               validate_seed)
from cosetlab.latticekit import (build_E_minus_lattice, build_L_minus,
                                 build_L_plus, build_Qsc_dual_lattice, discriminant_group,
                                 enumerate_by_norm, f_af, g_af_plus,
                                 g_sc_plus, kernel_K)
from cosetlab.opecalc import (exp_field, h_minus_field, h_plus_field,
                              h_tilde_field, j_field, jstar_field,
                              lambda_bracket_skew_check, make_table,
                              ope_singular, verify_Hminus_heisenberg,
                              verify_Jalpha_heisenberg,
                              verify_fst_homomorphism, x_tilde_field)
from cosetlab.ratlinalg import identity, mat_mul
from cosetlab.rootsys import build_root_system, check_hvee_identity

TYPE_GRID = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
             ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]
LEVEL_GRID = [Q(1), Q(2), Q(3), Q(1, 2), Q(5, 3), Q(-1, 3)]


def level_grid(rs):
    return [k for k in LEVEL_GRID if k != -rs.dual_coxeter]


def random_seed_dict(rng, family, rank, level):
    """A syntactically valid random seed for the validator to accept."""
    strings = []
    used = set()
    for _ in range(rng.randint(1, 3)):
        off = tuple(rng.randint(-2, 2) for _ in range(rank))
        if off in used:
            continue
        used.add(off)
        exps = rng.sample([Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3)],
                          rng.randint(1, 3))
        terms = [{"exp": str(e), "coef": str(rng.choice((-3, -2, -1, 1, 2, 3)))}
                 for e in sorted(exps)]
        strings.append({
            "weight_offset": list(off),
            "terms": terms,
            "min_exp": terms[0]["exp"],
        })
    base = [str(Q(rng.randint(-2, 2), rng.choice((1, 2))))
            for _ in range(rank)]
    return {"type": family, "rank": rank, "level": str(level),
            "base_weight": base, "strings": strings}


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "cosetlab", *argv],
                          capture_output=True, text=True)


def test_criterion_01_gram_inverse_identities():
    for family, rank in TYPE_GRID:
        rs = build_root_system(family, rank)
        for k in level_grid(rs):
            eye = identity(rs.num_positive)
            g = mat_mul(gram_g(rs, k), gram_g_star(rs, k))
            assert g == eye, (family, rank, k)
            big = mat_mul(gram_G(rs, k), gram_G_star(rs, k))
            assert big == eye, (family, rank, k)


def test_criterion_02_hvee_identity_on_fundamental_weights():
    for family, rank in TYPE_GRID:
        rs = build_root_system(family, rank)
        assert check_hvee_identity(rs), (family, rank)


def test_criterion_03_lattice_layer():
    for family, rank in TYPE_GRID:
        rs = build_root_system(family, rank)
        for alpha in rs.simple_roots:
            image = g_af_plus(rs, f_af(rs, alpha, "+"))
            assert image == tuple(Q(x) for x in alpha), (family, rank)
        emb = kernel_K(rs)
        assert emb.lattice.rank == rs.num_positive - rs.rank
        for a in rs.simple_roots:
            for b in rs.simple_roots:
                plus = build_L_plus(rs).pair(f_af(rs, a, "+"),
                                             f_af(rs, b, "+"))
                minus = build_L_minus(rs).pair(f_af(rs, a, "-"),
                                               f_af(rs, b, "-"))
                assert plus + minus == 0, (family, rank, a, b)
    # brute-force confirmation of the kernel, where the ambient ball is small
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                         ("C", 3), ("G", 2)]:
        rs = build_root_system(family, rank)
        emb = kernel_K(rs)
        zero = (Q(0),) * rs.rank
        brute = {v for v in enumerate_by_norm(emb.ambient, 6)
                 if g_af_plus(rs, v) == zero}
        via_kernel = {emb.embed(c)
                      for c in enumerate_by_norm(emb.lattice, 6)}
        assert brute == via_kernel, (family, rank)


def test_criterion_04_discriminant_groups():
    # the Qsc-dual discriminant group is Z_(1+h_vee)^rank, up to 31^8 on E8
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4),
                         ("E", 6), ("E", 7), ("E", 8), ("D", 10)]:
        rs = build_root_system(family, rank)
        assert discriminant_group(build_Qsc_dual_lattice(rs)) == \
            [1 + rs.dual_coxeter] * rs.rank, (family, rank)


def bell_tail_mismatches(t):
    """Simple roots a whose e(2a+)(z) e(-2a+)(w) misses the closed form of
    the Taylor tail the moved charge leaves: poles 4 to 1 are 1; 2b;
    db + 2b^2; d^2b/3 + 2b db + 4b^3/3, with b the L+ boson of a."""
    out = []
    for i in range(t.ell):
        unit = tuple(int(j == i) for j in range(t.n_plus))

        def b(coef, *orders):  # coef times the product of the d^o b, o ascending
            return {(None, tuple((i, o) for o in orders), (0,) * t.dim): coef}

        expected = {4: b(1), 3: b(2, 0), 2: {**b(1, 1), **b(2, 0, 0)},
                    1: {**b(Q(1, 3), 2), **b(2, 0, 1), **b(Q(4, 3), 0, 0, 0)}}
        minus = (0,) * t.ell
        moved = ope_singular(t, exp_field(t, tuple(2 * x for x in unit), minus),
                             exp_field(t, tuple(-2 * x for x in unit), minus))
        if moved != expected:
            out.append(i)
    return out


def test_criterion_05_ope_engine():
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(family, rank)
        for k in (Q(1), Q(2), Q(5, 2)):
            for verify in (verify_Jalpha_heisenberg, verify_Hminus_heisenberg,
                           verify_fst_homomorphism):
                report = verify(make_table(rs, k))
                assert report.ok, (family, rank, k, report.name, report.diffs)
                assert report.diffs == []
            t = make_table(rs, k)
            assert bell_tail_mismatches(t) == [], (family, rank, k)
            last = rs.num_positive - 1
            gens = [j_field(t, 0), jstar_field(t, last), h_plus_field(t, 0),
                    h_minus_field(t, last), h_tilde_field(t, 0),
                    x_tilde_field(t, rs.simple_roots[-1]),
                    x_tilde_field(t, tuple(-x for x in rs.simple_roots[-1]))]
            for A in gens:
                for B in gens:
                    assert lambda_bracket_skew_check(t, A, B).ok, (family, k)


def test_criterion_06_roundtrip_on_random_validated_seeds():
    rng = random.Random(808)
    for family, rank in [("A", 1), ("A", 2)]:
        for k in (1, 2):
            for _ in range(10):
                raw = random_seed_dict(rng, family, rank, k)
                report = validate_seed(raw)
                assert not report.problems, report.problems
                ch = report.character
                verdict = roundtrip_check(ch, ch.base, 10)
                assert verdict.ok, (family, rank, k, verdict)


def heights_up_to(rank, top):
    out = [(0,) * rank]
    frontier = list(out)
    for _ in range(top):
        nxt = []
        for v in frontier:
            for i in range(rank):
                w = tuple(x + (1 if j == i else 0) for j, x in enumerate(v))
                if w not in nxt:
                    nxt.append(w)
        out.extend(w for w in nxt if w not in out)
        frontier = nxt
    return out


def test_criterion_07_cflemma_certified_supports():
    rng = random.Random(909)
    for family, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(family, rank)
        strings = {}
        for off in heights_up_to(rank, 2):
            terms = [(n, rng.randint(1, 4)) for n in range(3)]
            strings[off] = QSeries.from_terms(terms)
        seed = affine_character(rs, 1, (0,) * rank, strings)
        for gamma in heights_up_to(rank, 3):
            xi = f_af(rs, gamma, "+")
            bound = build_L_plus(rs).pair(xi, xi)
            report = cflemma_check(gamma, seed, (0,) * rank, 6, bound)
            assert report.ok, (family, rank, gamma)
            assert not report.diff, (family, rank, gamma)


def assert_no_diffs(diffs):
    for key, (order, terms) in diffs.items():
        assert not terms, (key, order, terms)


# level 1 and one level of each other kind: at level 1 a flow that took its
# level to be 1 would agree with the true one
FLOW_LEVELS = (Q(1), Q(3, 2), Q(-1, 2), Q(2))
FLOW_TYPES = (("A", 1), ("A", 2))


def flow_gammas(rank):
    """Each simple root and each sum of two simple roots."""
    simples = [tuple(1 if j == i else 0 for j in range(rank))
               for i in range(rank)]
    return simples + [tuple(a + b for a, b in zip(simples[i], simples[j]))
                      for i in range(rank) for j in range(i, rank)]


def delta_character(rs, k):
    """The character with the single string 1 at weight 0, at level k."""
    zero = (0,) * rs.rank
    return affine_character(rs, k, zero, {zero: QSeries.from_terms([(0, 1)])})


def flow_equivariance_comparisons(k):
    """Both sides' flow-equivariance comparisons of criterion 08 at level k."""
    out = []
    for family, rank in FLOW_TYPES:
        rs = build_root_system(family, rank)
        seed = delta_character(rs, k)
        zero = (0,) * rank
        for gamma in flow_gammas(rank):
            out.append(flow_sc_equivariance_diff(seed, gamma, gamma, 8))
            sc = fermionize_character(seed, zero, 8)
            gw = g_sc_plus(rs, k, f_af(rs, gamma, "+"))
            out.append(flow_af_equivariance_diff(
                sc, weight_to_sc(rs, k, zero), gw, 8))
    return out


def test_criterion_08_spectral_flow_equivariance():
    for k in FLOW_LEVELS:
        for diffs in flow_equivariance_comparisons(k):
            assert not diffs.vacuous, k
            assert_no_diffs(diffs)
        for family, rank in FLOW_TYPES:
            rs = build_root_system(family, rank)
            seed = delta_character(rs, k)
            gammas = flow_gammas(rank)
            # flows compose additively
            sc = fermionize_character(seed, (0,) * rank, 6)
            g1, g2 = gammas[0], gammas[-1]
            chained = spectral_flow_sc(spectral_flow_sc(sc, g1), g2)
            joint = spectral_flow_sc(sc, tuple(a + b for a, b in zip(g1, g2)))
            assert chained.base.j_values == joint.base.j_values
            for off, s in joint.strings.items():
                assert chained.strings[off].items() == s.items()
            e1 = g_sc_plus(rs, k, f_af(rs, g1, "+"))
            e2 = g_sc_plus(rs, k, f_af(rs, g2, "+"))
            chained = spectral_flow_af(spectral_flow_af(seed, e1), e2)
            joint = spectral_flow_af(seed, e1 + e2)
            assert chained.base == joint.base
            for off, s in joint.strings.items():
                assert chained.strings[off].items() == s.items()
            # gamma = 0 is the identity on both sides
            zero_sc = spectral_flow_sc(sc, (0,) * rank)
            assert zero_sc.base.j_values == sc.base.j_values
            assert set(zero_sc.strings) == set(sc.strings)
            for off, s in sc.strings.items():
                assert zero_sc.strings[off].items() == s.items()
            zero_af = spectral_flow_af(seed, weight_to_sc(rs, k, (0,) * rank))
            assert zero_af.base == seed.base
            assert set(zero_af.strings) == set(seed.strings)
            for off, s in seed.strings.items():
                assert zero_af.strings[off].items() == s.items()


def test_criterion_09_e_minus_isometry():
    for family, rank in [("A", 2), ("B", 2)]:
        rs = build_root_system(family, rank)
        for k in (1, 2):
            lat = build_E_minus_lattice(rs, k)
            g_star = gram_G_star(rs, k)
            n = rs.num_positive
            rows = []
            for gamma in rs.long_root_basis():
                rows.append(tuple(rs.form(gamma, beta)
                                  for beta in rs.positive_roots))
            for idx in range(rs.rank, n):
                rows.append(tuple(Q(1) if j == idx else Q(0)
                                  for j in range(n)))
            pairing = mat_mul(mat_mul(rows, g_star),
                              [list(col) for col in zip(*rows)])
            expected = tuple(tuple(Q(x) for x in row) for row in lat.gram)
            assert tuple(pairing) == expected, (family, rank, k)


def test_criterion_10_central_charges():
    for family, rank in TYPE_GRID:
        rs = build_root_system(family, rank)
        for k in level_grid(rs):
            _, c_sc = central_charges(rs, k)
            assert c_sc == central_charge_sc_direct(rs, k), (family, rank, k)
    a1 = build_root_system("A", 1)
    assert central_charges(a1, 1)[1] == 1


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    seed = tmp_path / "seed.json"
    seed.write_text(json.dumps({
        "type": "A", "rank": 1, "level": "1", "base_weight": ["0"],
        "strings": [{"weight_offset": [0],
                     "terms": [{"exp": "0", "coef": "1"}],
                     "min_exp": "0"}],
    }), encoding="utf-8")
    fixed = [
        ("rootsys", "info", "--type", "A", "--rank", "2", "--format", "json"),
        ("forms", "verify", "--type", "A", "--rank", "1", "--level", "1",
         "--format", "json"),
        ("weights", "map", "--type", "A", "--rank", "1", "--level", "1",
         "--weight", "1", "--format", "json"),
        ("lattice", "disc", "--lattice", "qsc-dual", "--type", "A",
         "--rank", "1", "--format", "json"),
        ("ope", "verify", "--check", "jalpha", "--type", "A", "--rank", "1",
         "--level", "1", "--format", "json"),
        ("char", "roundtrip", "--seed", str(seed), "--T", "4",
         "--format", "json"),
        ("flow", "check", "--seed", str(seed), "--side", "sc",
         "--gamma", "1", "--T", "4", "--format", "json"),
    ]
    for argv in fixed:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0, (argv, first.stderr)
        assert first.returncode == second.returncode
        assert first.stdout.encode() == second.stdout.encode(), argv
    # exit-code contract: success / mathematical failure / usage error
    assert run_cli("lattice", "disc", "--lattice", "qsc-dual", "--type", "A",
                   "--rank", "1", "--expect", "3").returncode == 0
    assert run_cli("lattice", "disc", "--lattice", "qsc-dual", "--type", "A",
                   "--rank", "1", "--expect", "4").returncode == 1
    assert run_cli("rootsys", "info", "--type", "Z",
                   "--rank", "1").returncode == 2
    assert run_cli("forms", "verify", "--type", "A", "--rank", "1",
                   "--level", "0").returncode == 2
    assert run_cli("forms", "verify", "--type", "B", "--rank", "2",
                   "--level", "-3").returncode == 2
