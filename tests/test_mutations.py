"""Mutation gate: a known-bad input must make each shipped check fail.

Every golden case passes, so a verifier that stopped comparing would still
reproduce every golden byte.  These tests feed the OPE verifiers a
contraction table with one deliberate defect (applied both to a fresh
table and to one whose contraction memo and term-key registry, with the
Gram and cocycle images of each charge, a clean run has filled), or an
engine that raises some pole orders, by replacing
``opecalc._boson_patterns``, or one whose Taylor budget stops an order
short of the simple pole, or whose Taylor terms skip their m! divisor, which
only criterion 05's closed Bell tails see, or whose z-side affine symbol
keeps its order when it moves to w, which only the closed form of
X~(a)(z) e(-2a+)(w) in ``test_opecalc`` sees, by recompiling
``opecalc._contract`` with that one line changed, or whose one division per output coefficient drops the
B-side denominator or truncates, by recompiling ``opecalc.ope_table``;
both fail acceptance criterion 05 and the ope verify grid digest.  Chevalley
constants with N[alpha_1, alpha_2] and N[alpha_2, alpha_1] negated fail the
Jacobi certificate of ``test_rootsys`` and, put in a table, the commutator
formula of ``test_opecalc``, while fst still passes; doubled instead, in a
table, they fail the commutator formula too, and fst passes again.  They feed character
transport a wrong eta power or a short lattice enumeration, by replacing
``charflow.eta_power`` or ``charflow.enumerate_by_norm``, or an enumeration
whose running sum skips one basis row or that drops one of the offset's
border terms, by recompiling ``latticekit.enumerate_by_norm`` with that one
line changed, and compare
transports over other bases of the kernel lattice, by replacing
``charflow.kernel_K``.  A coset-side flow that reads g* at level 1
replaces ``charflow._sc_flow_form``, and an affine-side flow with the
level-1 conformal weight in its constant recompiles
``charflow.spectral_flow_af``; both fail the level-3/2 equivariance check
and acceptance criterion 08 at every level but 1.  A flow that raises the
floor it moves by one, from recompiling ``charflow._flow``, the one helper
both flows call, fails the property test that flows move floors with
strings at every string on both sides.  Under the level-1 g*
mutant, the bytes of one failing coset-side flow report are pinned by
SHA-256.  A weight comparison that keeps terms above the certified order,
or compares a one-sided weight up to its string's own cap, recompiles
``charflow._compare_supports``.  A series rescale that
forgets the validity cap replaces ``QSeries._on``.  A discriminant group
whose largest divisor is one prime too big replaces
``latticekit.smith_normal_form``; a unit pivot whose row multiplier skips
the modular inverse, recompiled into that name, fails criterion 04 from A2
on.  A root-pair table whose closure adds the wrong simple row, from
recompiling ``rootsys._pair_table``, fails ``test_pair_table_matches_form``
and makes ``rootsys info`` exit 2 on every golden type.  A kernel lattice
whose last basis row is doubled, from replacing the name the acceptance
module imported, fails criterion 03 at A2.  A dual Coxeter number one too big, from replacing
``rootsys._dual_coxeter``, fails acceptance criterion 02.  A symmetrizer
that gives the bond to the short side of the path, recompiled into
``rootsys._symmetrizer``, fails the symmetry test of ``test_rootsys`` on
every B, C, F and G type.
A Cartan inverse with 1/2 added at (0, 1) and (1, 0), from replacing
``rootsys.mat_inv``, fails criteria 01 and 09 at A2, level 1.
A g* built at level k instead of k + h_vee, from replacing the integer
builder ``int_gram_g_star`` in ``bilinear`` and in the CLI, fails criterion
01 and makes ``forms verify`` exit 1.  A coset central charge without its
-rank term fails criterion 10; it replaces the ``bilinear`` function and
the name the acceptance module imported.  A coroot that drops kappa from
the simple pole of X_alpha X_-alpha, recompiled into ``opecalc._affine_base``,
fails the commutator formula of ``test_opecalc`` and fst on B2, and passes
both on A2, where kappa is 1.  A fermionization whose per-vector exponent
shift is one too big, recompiled into ``charflow.fermionize_character``,
fails acceptance criterion 06 first at A1, level 1.  A paired-lattice
string identity whose per-member shift is one too big, recompiled into the
``cflemma_check`` the acceptance module imported, fails criterion 07 at A1.
A CLI that exits 0 on a false verdict, from a copy of the package with
``cli.main`` changed and put on ``PYTHONPATH`` for the subprocesses,
fails criterion 11 at ``lattice disc --expect 4``.  Each pins the failures
its defect must cause.
A Lie algebra dimension one too big, from replacing
``RootSystem.dim_algebra``, makes ``forms verify`` exit 1 at level 7/2 on
A2, B3 and E6, and fails criterion 10: the central charge it gives no
longer meets the strange formula of ``central_charge_sc_direct``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import shutil
import sys
from fractions import Fraction as Q
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab import bilinear, charflow, cli, latticekit, opecalc, ratlinalg, rootsys
from cosetlab.bilinear import weight_to_sc
from cosetlab.charflow import (QSeries, affine_character, fermionize_character,
                               flow_af_equivariance_diff,
                               flow_sc_equivariance_diff, roundtrip_check,
                               validate_seed)
from cosetlab.latticekit import f_af, g_sc_plus, sublattice
from cosetlab.opecalc import (OpeDiff, h_minus_field, h_plus_field,
                              h_tilde_field, j_field, jstar_field,
                              lambda_bracket_skew_check, x_tilde_field)
from cosetlab.ratlinalg import identity, mat_mul
from cosetlab.rootsys import build_root_system, check_hvee_identity, structure_constants

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402
import test_acceptance  # noqa: E402
import test_charflow  # noqa: E402
import test_opecalc  # noqa: E402
import test_rootsys  # noqa: E402

REAL_BOSON_PATTERNS = opecalc._boson_patterns
REAL_ETA_POWER = charflow.eta_power
REAL_ENUMERATE = charflow.enumerate_by_norm
REAL_KERNEL = charflow.kernel_K
REAL_ON = QSeries._on
REAL_SC_FLOW_FORM = charflow._sc_flow_form
REAL_SMITH = latticekit.smith_normal_form
REAL_DUAL_COXETER = rootsys._dual_coxeter
REAL_MAT_INV = rootsys.mat_inv
REAL_CENTRAL_CHARGES = bilinear.central_charges
SEEDS = Path(__file__).resolve().parent / "golden" / "seeds"
B2_SEED = SEEDS / "B2.json"


VERIFIERS = (opecalc.verify_Jalpha_heisenberg, opecalc.verify_Hminus_heisenberg,
             opecalc.verify_fst_homomorphism)


def _bump_gstar(table):
    """The table with 1 added to the g* entry at (0, 0)."""
    rows = [list(row) for row in table.gstar]
    rows[0][0] += 1
    return dataclasses.replace(table, gstar=tuple(map(tuple, rows)))


def _flip_cocycle(table):
    """The table with cocycle exponents (0, 1) and (1, 0) both flipped.

    E + E^T is unchanged mod 2, so the lattice still passes the cocycle
    identity check its constructor runs; only the signs of products move.
    """
    rows = [list(row) for row in table.lattice.eps_exponents]
    rows[0][1] ^= 1
    rows[1][0] ^= 1
    lattice = dataclasses.replace(table.lattice,
                                  eps_exponents=tuple(map(tuple, rows)))
    return dataclasses.replace(table, lattice=lattice)


def _used_table(rs, k):
    """The true table after every verifier has run on it and filled its memo."""
    table = opecalc.make_table(rs, k)
    assert all(verify(table).ok for verify in VERIFIERS)
    return table


@pytest.fixture
def a2():
    return build_root_system("A", 2)


@pytest.mark.parametrize("verify", VERIFIERS)
def test_unmutated_table_passes(a2, verify):
    assert verify(opecalc.make_table(a2, 1)).ok


def test_jalpha_sees_a_wrong_gstar_entry(a2):
    report = opecalc.verify_Jalpha_heisenberg(_bump_gstar(opecalc.make_table(a2, 1)))
    assert not report.ok
    assert report.checks == 27
    assert len(report.diffs) == 4
    assert report.diffs[0] == OpeDiff("J*(1, 0)", "J(1, 0)", 2,
                                      "(1)*1", "(4)*1")


def test_hminus_sees_a_wrong_gstar_entry(a2):
    report = opecalc.verify_Hminus_heisenberg(_bump_gstar(opecalc.make_table(a2, 1)))
    assert report.checks == 9
    assert report.diffs == [OpeDiff("H-(1, 0)", "H-(1, 0)", 2,
                                    "(-1/2)*1", "(9/2)*1")]


def test_fst_sees_a_flipped_cocycle_bit(a2):
    report = opecalc.verify_fst_homomorphism(_flip_cocycle(opecalc.make_table(a2, 1)))
    assert not report.ok
    assert report.checks == 88
    assert len(report.diffs) == 12
    first = report.diffs[0]
    assert (first.left, first.right, first.pole) == ("Xt(1, 0)", "Xt(0, 1)", 1)
    assert first.expected == "(1)*X(1,1) E(1,1,0,1,1)"
    assert first.got == "(-1)*X(1,1) E(1,1,0,1,1)"


@pytest.mark.parametrize("verify, checks, diffs", [
    (opecalc.verify_Jalpha_heisenberg, 48, [
        ("J*(1, 0)", "J(1, 0)", 2, "(1)*1", "(-4)*1"),
        ("J*(1, 0)", "J*(1, 0)", 2, "(5/4)*1", "(-11/4)*1"),
        ("J*(1, 0)", "J(0, 1)", 2, "0", "(3)*1"),
        ("J*(1, 0)", "J(1, 1)", 2, "0", "(-3)*1")]),
    (opecalc.verify_Hminus_heisenberg, 16, [
        ("H-(1, 0)", "H-(1, 0)", 2, "(-3/4)*1", "(-15/4)*1")]),
])
def test_wrong_gstar_entry_off_level_one(verify, checks, diffs):
    # every rendered field of every diff on B2 at level -1/3, where the
    # wanted and the computed coefficients are not all integers
    rs = build_root_system("B", 2)
    report = verify(_bump_gstar(opecalc.make_table(rs, Q(-1, 3))))
    assert report.checks == checks
    assert report.diffs == [OpeDiff(*d) for d in diffs]


@pytest.mark.parametrize("mutate, verify, diffs", [
    (_bump_gstar, opecalc.verify_Jalpha_heisenberg, 4),
    (_bump_gstar, opecalc.verify_Hminus_heisenberg, 1),
    (_flip_cocycle, opecalc.verify_fst_homomorphism, 12),
])
def test_mutant_of_a_used_table_fails_alike(a2, mutate, verify, diffs):
    # a contraction or a charge image cached before the defect must not hide
    # it: the replaced table registers every key again, with images taken
    # from its own Gram and cocycle matrices
    assert len(verify(mutate(opecalc.make_table(a2, 1))).diffs) == diffs
    used = _used_table(a2, 1)
    assert used.memo and used.registry
    mutant = mutate(used)
    assert len(verify(mutant).diffs) == diffs
    moved = [key for key, entry in mutant.registry.items()
             if entry[2:] != used.registry[key][2:]]
    assert bool(moved) == (mutate is _flip_cocycle)


def _bump_pole_orders(*args):
    """The true contraction patterns with every link of pole order >= 2
    raised by one; simple poles are untouched."""
    for links, kept, stay in REAL_BOSON_PATTERNS(*args):
        yield (tuple((w, o + 1 if o >= 2 else o) for w, o in links),
               kept, stay)


def _skew_failures(family, rank, k):
    """Failing generator pairs of criterion 05's skew check."""
    rs = build_root_system(family, rank)
    t = opecalc.make_table(rs, k)
    last = rs.num_positive - 1
    gens = [j_field(t, 0), jstar_field(t, last), h_plus_field(t, 0),
            h_minus_field(t, last), h_tilde_field(t, 0),
            x_tilde_field(t, rs.simple_roots[-1]),
            x_tilde_field(t, tuple(-x for x in rs.simple_roots[-1]))]
    return sum(not lambda_bracket_skew_check(t, A, B).ok
               for A in gens for B in gens)


@pytest.mark.parametrize("family, rank, k, failing", [
    ("A", 2, Q(3, 2), 24),
    ("B", 2, Q(5, 2), 12),
])
def test_skew_check_sees_a_raised_pole_order(family, rank, k, failing,
                                             monkeypatch):
    assert _skew_failures(family, rank, k) == 0
    monkeypatch.setattr(opecalc, "_boson_patterns", _bump_pole_orders)
    assert _skew_failures(family, rank, k) == failing


def _recompiled(function, old, new):
    """function compiled again from its source with the one text old
    replaced by new, against the globals of its module."""
    source = inspect.getsource(function)
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


def test_fst_sees_a_taylor_budget_one_order_short(a2, monkeypatch):
    # the budget carries each term up to order -1; one order short, every
    # simple pole is lost, and fst is the verifier that reads simple poles
    monkeypatch.setattr(opecalc, "_contract", _recompiled(
        opecalc._contract, "budget = -1 - min_exp", "budget = -2 - min_exp"))
    table = opecalc.make_table(a2, 1)
    assert [len(verify(table).diffs) for verify in VERIFIERS] == [0, 0, 30]
    first = opecalc.verify_fst_homomorphism(table).diffs[0]
    assert first == OpeDiff("Xt(1, 0)", "Xt(0, 1)", 1,
                            "(1)*X(1,1) E(1,1,0,1,1)", "0")


@pytest.mark.parametrize("old, new, diffs", [
    # the divisor without the B-side denominator
    ("den * dA * dB", "den * dA", [[3, 1, 1], [21, 9, 4], [28, 12, 4]]),
    # every coefficient truncated to an integer
    ("Q(n, den) if n % den else n // den", "n // den",
     [[2, 1, 4], [18, 9, 14], [24, 12, 11]]),
])
def test_criterion_05_sees_a_wrong_final_division(old, new, diffs, monkeypatch):
    monkeypatch.setattr(opecalc, "ope_table", _recompiled(opecalc.ope_table, old, new))
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_05_ope_engine()
    # failing pairs per verifier on criterion 05's types at level 5/2, where
    # fst fails too: the dressed currents carry k, so both sides are fractional
    assert [[len(verify(opecalc.make_table(build_root_system(family, rank), Q(5, 2))).diffs)
             for verify in VERIFIERS]
            for family, rank in (("A", 1), ("A", 2), ("B", 2))] == diffs
    from test_golden import OPE_GRID_SHA256, ope_grid_digest  # it imports this module
    assert ope_grid_digest()[0] != OPE_GRID_SHA256


def test_criterion_05_sees_bell_tails_without_their_factorial(monkeypatch):
    # each Taylor term divides the m-th derivative by m!; without it a term
    # of order m is m! too big, which first shows at pole 2 of
    # e(2a)(z) e(-2a)(w), so every verifier still passes and only the
    # closed Bell tails see it
    monkeypatch.setattr(opecalc, "_contract", _recompiled(
        opecalc._contract, "full // factorial(m) * t", "full * t"))
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_05_ope_engine()
    for family, rank in (("A", 1), ("A", 2), ("B", 2)):
        for k in (Q(1), Q(2), Q(5, 2)):
            table = opecalc.make_table(build_root_system(family, rank), k)
            assert all(verify(table).ok for verify in VERIFIERS)
            assert test_acceptance.bell_tail_mismatches(table) == list(range(rank))


def test_closed_form_sees_a_relocated_symbol_that_keeps_its_order(monkeypatch):
    # a z-side affine symbol moved to w takes the derivative order of its
    # Taylor term; kept as it stood at z, X(a)' at the simple pole of
    # Xt(a)(z) e(-2a+)(w) reads X(a)
    monkeypatch.setattr(opecalc, "_contract", _recompiled(
        opecalc._contract, "aff_out if aff_z is None else aff,",
        "aff_out if aff_z is None else aff_z,"))
    for family, rank in (("A", 1), ("A", 2), ("B", 2)):
        for k in (Q(1), Q(2), Q(5, 2)):
            table = opecalc.make_table(build_root_system(family, rank), k)
            assert test_opecalc.relocated_symbol_mismatches(table) == list(range(rank))


def _flip_n(rs, n):
    """The Chevalley constants with N[alpha_1, alpha_2] and N[alpha_2, alpha_1]
    both negated: still antisymmetric, but no longer a Lie bracket."""
    a1, a2 = rs.simple_roots[:2]
    return {**n, (a1, a2): -n[a1, a2], (a2, a1): -n[a2, a1]}


def _double_n(rs, n):
    """The Chevalley constants with N[alpha_1, alpha_2] and N[alpha_2, alpha_1]
    both doubled: still antisymmetric, but no longer a Lie bracket."""
    a1, a2 = rs.simple_roots[:2]
    return {**n, (a1, a2): 2 * n[a1, a2], (a2, a1): 2 * n[a2, a1]}


@pytest.mark.parametrize("family, rank, triples", [("A", 2, 5), ("B", 2, 7), ("G", 2, 11)])
def test_jacobi_sees_a_flipped_structure_constant(family, rank, triples):
    rs = build_root_system(family, rank)
    assert test_rootsys.jacobi_failures(rs, _flip_n(rs, structure_constants(rs))) == triples


@pytest.mark.parametrize("family, rank, identities", [("A", 2, (824, 38)), ("B", 2, (1292, 50))])
def test_commutator_formula_sees_a_flipped_structure_constant(family, rank, identities):
    rs = build_root_system(family, rank)
    table = opecalc.make_table(rs, 1)
    mutant = dataclasses.replace(table, n_table=_flip_n(rs, table.n_table))
    assert test_opecalc.commutator_failures(mutant) == identities
    # fst compares the dressed currents with wanted terms built from the same
    # table, so it passes: only a Jacobi-type verdict on the OPE layer sees it
    assert opecalc.verify_fst_homomorphism(mutant).ok


@pytest.mark.parametrize("family, rank, identities", [("A", 2, (824, 38)), ("B", 2, (1292, 50))])
def test_commutator_formula_sees_a_doubled_structure_constant(family, rank, identities):
    rs = build_root_system(family, rank)
    table = opecalc.make_table(rs, 1)
    mutant = dataclasses.replace(table, n_table=_double_n(rs, table.n_table))
    assert test_opecalc.commutator_failures(mutant) == identities
    # as for the flipped constants, fst still passes
    assert opecalc.verify_fst_homomorphism(mutant).ok


@pytest.mark.parametrize("family, identities, fst_ok", [("A", (816, 0), True),
                                                        ("B", (1344, 192), False)])
def test_commutator_formula_sees_a_coroot_without_its_kappa(family, identities, fst_ok,
                                                            monkeypatch):
    # X_a(z) X_-a(w) has simple pole kappa_a sum_i c_i H_i; kappa is 1 on
    # every root of a simply laced type, so only B2 sees it dropped
    monkeypatch.setattr(opecalc, "_affine_base", _recompiled(
        opecalc._affine_base, '(-1, c * kappa, ("H", i, 0))', '(-1, c, ("H", i, 0))'))
    table = opecalc.make_table(build_root_system(family, 2), 1)
    assert test_opecalc.commutator_failures(table) == identities
    assert opecalc.verify_fst_homomorphism(table).ok is fst_ok


def _bump_eta(m, T):
    """The true eta power with 1 added to its coefficient at q^(m/24 + 1)."""
    s = REAL_ETA_POWER(m, T)
    return s + QSeries.from_terms([(s.min_exponent + 1, 1)])


def _drop_zero_vector(lattice, bound, offset=None):
    """The true enumeration without the offset itself, the coset member at
    kernel vector zero.

    A round trip passes every string through the zero kernel vector only,
    so that is the vector whose loss it must see.
    """
    return [v for v in REAL_ENUMERATE(lattice, bound, offset)
            if v != (tuple(offset) if offset is not None else (0,) * len(v))]


@pytest.fixture
def b2_seed():
    raw = json.loads(B2_SEED.read_text(encoding="utf-8"))
    return validate_seed(raw).character


def test_roundtrip_sees_a_wrong_eta_coefficient(b2_seed, monkeypatch):
    monkeypatch.setattr(charflow, "eta_power", _bump_eta)
    report = roundtrip_check(b2_seed, (0, 0), 6)
    assert not report.ok
    assert report == {
        (0, 0): (6, ((1, -2), (2, 3), (3, -8), (4, -7), (5, -9), (6, -32))),
        (0, 1): (Q(67, 12), ((Q(3, 2), -4), (Q(7, 2), -7), (Q(9, 2), -20),
                             (Q(11, 2), -30))),
    }


def test_roundtrip_sees_a_dropped_lattice_vector(b2_seed, monkeypatch):
    monkeypatch.setattr(charflow, "enumerate_by_norm", _drop_zero_vector)
    report = roundtrip_check(b2_seed, (0, 0), 6)
    assert not report.ok
    # each string comes back as zero: the diff is the seed string itself
    assert report == {
        (0, 0): (6, ((0, 1), (1, -2), (2, 3))),
        (0, 1): (Q(67, 12), ((Q(1, 2), 2), (Q(3, 2), -1))),
    }


def test_criterion_06_sees_a_fermionization_shifted_by_one(monkeypatch):
    # each kernel vector's exponent shift one too big on the coset side only
    monkeypatch.setattr(charflow, "fermionize_character", _recompiled(
        charflow.fermionize_character, "xi)) - p)", "xi)) - p + 1)"))
    with pytest.raises(AssertionError, match=r"^\('A', 1, 1, "):
        test_acceptance.test_criterion_06_roundtrip_on_random_validated_seeds()


def test_criterion_07_sees_a_support_shift_one_too_big(monkeypatch):
    # each member's exponent shift one too big moves every lhs string off
    # the rhs one, first at A1 and gamma = 0
    monkeypatch.setattr(test_acceptance, "cflemma_check", _recompiled(
        charflow.cflemma_check, "+ zeta_norm, 2)", "+ zeta_norm + 1, 2)"))
    with pytest.raises(AssertionError, match=r"^\('A', 1, \(0,\)\)"):
        test_acceptance.test_criterion_07_cflemma_certified_supports()


def test_roundtrip_sees_a_skipped_row_add(b2_seed, monkeypatch):
    # the search builds each kernel image as a running sum of basis rows;
    # skipping the row of the first coordinate maps every kernel vector to
    # the image of one with that coordinate zeroed, so strings pile up on
    # the same coset-side keys; the golden char-roundtrip and coset-side
    # flow-check cases of B2, G2, A3, B3 and B4 then exit 1
    monkeypatch.setattr(charflow, "enumerate_by_norm", _recompiled(
        latticekit.enumerate_by_norm, "if x else point",
        "if x and k else point"))
    report = roundtrip_check(b2_seed, (0, 0), 6)
    assert not report.ok
    assert report == {
        (0, 0): (6, ((0, -4), (1, 8), (2, -12))),
        (0, 1): (Q(67, 12), ((Q(1, 2), -6), (Q(3, 2), 3))),
    }


@pytest.mark.parametrize("old, exits", [
    # the border entry u_(k,n) dropped from c: each coset xi0 + K is
    # searched as if its offset were orthogonal to K
    (" + u[k][n]", {0: 136, 1: 22, 2: 2}),
    # the D'/D_n term dropped from the start bound: each ball as large as
    # if the offset lay in the span of K
    (" - scale // lead[-1] * pivots[n]", {0: 158, 2: 2}),
], ids=["border-entry", "last-pivot"])
def test_golden_sees_a_coset_search_without_an_offset_term(old, exits,
                                                           monkeypatch):
    # the transport enumerates each coset from the Gram bordered by the
    # offset; without either border term the golden coset-side flow on B2
    # and the character grid change bytes
    monkeypatch.setattr(charflow, "enumerate_by_norm", _recompiled(
        latticekit.enumerate_by_norm, old, ""))
    from test_golden import CASES, CHAR_GRID_SHA256, char_grid_digest  # it imports this module
    case = next(c for c in CASES if c["name"] == "flow-check-sc-B2")
    _, out, _ = regen.run(case["argv"])
    assert out != regen.output_file(case["name"], case["argv"]).read_text(encoding="utf-8")
    digest, calls, got = char_grid_digest()
    assert (digest != CHAR_GRID_SHA256, calls, got) == (True, 160, exits)


def _drop_last_vector(lattice, bound, *args, **kwargs):
    """The true enumeration without its last vector."""
    return list(REAL_ENUMERATE(lattice, bound, *args, **kwargs))[:-1]


def _other_kernel_basis(rs):
    """The true kernel lattice in another basis: rows reversed, then
    b_i -= b_(i+1), a unimodular change."""
    kernel = REAL_KERNEL(rs)
    rows = [list(row) for row in reversed(kernel.basis_in_ambient)]
    for i in range(len(rows) - 1):
        rows[i] = [a - b for a, b in zip(rows[i], rows[i + 1])]
    return sublattice(kernel.ambient, rows, "K")


def _fermionized(seed, T):
    raw = json.loads((SEEDS / f"{seed}.json").read_text(encoding="utf-8"))
    ch = validate_seed(raw).character
    out = fermionize_character(ch, ch.base, T).strings
    return {key: (s.items(), s.validity) for key, s in out.items()}


COVARIANCE_SEEDS = [("B2", 6, 26), ("G2", 6, 201), ("A3", 6, 97),
                    ("B3", 4, 424)]


@pytest.mark.parametrize("seed, T, keys", COVARIANCE_SEEDS)
def test_transport_is_kernel_basis_covariant(seed, T, keys, monkeypatch):
    direct = _fermionized(seed, T)
    monkeypatch.setattr(charflow, "kernel_K", _other_kernel_basis)
    assert len(direct) == keys
    assert _fermionized(seed, T) == direct


def _unimodular_kernel_basis(steps):
    """kernel_K in the basis U.B, with U the product of elementary steps:
    (i, j, m) adds m times row j to row i, or negates row i when i == j."""
    def kernel(rs):
        true = REAL_KERNEL(rs)
        rows = [list(row) for row in true.basis_in_ambient]
        r = len(rows)
        for i, j, m in steps:
            i, j = i % r, j % r
            if i == j:
                rows[i] = [-x for x in rows[i]]
            else:
                rows[i] = [a + m * b for a, b in zip(rows[i], rows[j])]
        return sublattice(true.ambient, rows, "K")
    return kernel


@functools.lru_cache(maxsize=None)
def _fermionized_in_true_basis(seed, T):
    return _fermionized(seed, T)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["B2", "G2", "A3"]),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.sampled_from((1, -1, 2, -2))), max_size=8))
def test_transport_is_covariant_under_random_unimodular_bases(seed, steps):
    direct = _fermionized_in_true_basis(seed, 6)
    with mock.patch.object(charflow, "kernel_K",
                           _unimodular_kernel_basis(steps)):
        assert _fermionized(seed, 6) == direct


@pytest.mark.parametrize("seed, T", [case[:2] for case in COVARIANCE_SEEDS])
def test_covariance_sees_a_dropped_last_vector(seed, T, monkeypatch):
    # each basis drops a different vector of some coset
    monkeypatch.setattr(charflow, "enumerate_by_norm", _drop_last_vector)
    direct = _fermionized(seed, T)
    monkeypatch.setattr(charflow, "kernel_K", _other_kernel_basis)
    assert len(direct.keys() ^ _fermionized(seed, T).keys()) == 4


def _on_keeping_cap(self, den):
    """QSeries._on with the terms rescaled to den but the cap left on the
    old grid."""
    return REAL_ON(self, den)[0], self.cap


def test_mixed_grids_see_a_cap_left_unscaled(b2_seed, monkeypatch):
    # a sum and a product of series on the grids 1 and 1/2, and one weight
    # of the B2 coset-side flow, whose sides lie on different grids; the
    # Fraction-reference property test in test_charflow.py fails as well
    a = QSeries.from_terms([(0, 1)], 3)
    b = QSeries.from_terms([(Q(1, 2), 1)], Q(5, 2))
    key = (Q(1, 4), Q(11, 4), 2, Q(-9, 4))
    assert ((a + b).validity, (a * b).validity) == (Q(5, 2), Q(5, 2))
    flowed = flow_sc_equivariance_diff(b2_seed, (0, 0), (0, 1), 6)
    num = tuple(int(x * flowed.den) for x in key)
    assert flowed[num] == (6, ())
    monkeypatch.setattr(QSeries, "_on", _on_keeping_cap)
    assert ((a + b).validity, (a * b).validity) == (Q(3, 2), 2)
    flowed = flow_sc_equivariance_diff(b2_seed, (0, 0), (0, 1), 6)
    assert flowed[num] == (Q(1, 4), ())


@pytest.mark.parametrize("old, new, diff_lines", [
    # the walk keeps terms above the jointly certified order
    ("if c and (v is None or e <= v)", "if c", 21),
    # a one-sided weight compared up to its string's own cap, not the lower
    # of that cap and the other side's floor
    ("QSeries(f.denominator, {}, f.numerator)", "QSeries(f.denominator, {})",
     5),
])
def test_comparison_walk_sees_an_order_too_high(old, new, diff_lines,
                                                monkeypatch):
    # each fails the Fraction-keyed reference property (here on the example
    # its search shrinks to: an exact q^1 on the right only, where the left
    # floor is 0), criterion 08 and the golden flow-check-sc-B2 case, which
    # then exits 1
    monkeypatch.setattr(charflow, "_compare_supports", _recompiled(
        charflow._compare_supports, old, new))
    prop = test_charflow.test_integer_key_comparison_matches_fraction_keys
    with pytest.raises(AssertionError):
        prop.hypothesis.inner_test((0, 0), (0, 0), {},
                                   {(0, 0): QSeries.from_terms([(1, 1)])})
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_08_spectral_flow_equivariance()
    rc, out, _ = regen.run(["flow", "check", "--seed", "seeds/B2.json",
                            "--side", "sc", "--gamma=0,1", "--T", "6",
                            "--format", "text"])
    assert (rc, out.count("DIFF")) == (1, diff_lines)


def _flow_sides_at_level_3_2():
    """Both flow-equivariance comparisons of a B2 seed at level 3/2, for
    gamma (1, 0) to order 4.

    At level 1 a flow that took its level to be 1 would agree with the true
    one, so only a level other than 1 sees it.
    """
    rs = build_root_system("B", 2)
    k, gamma, T = Q(3, 2), (1, 0), 4
    seed = affine_character(rs, k, (0, 0), {
        (0, 0): QSeries.from_terms([(0, 1), (1, -2), (2, 3)]),
        (0, 1): QSeries.from_terms([(Q(1, 2), 2), (Q(3, 2), -1)])})
    sc = flow_sc_equivariance_diff(seed, (0, 0), gamma, T)
    af = flow_af_equivariance_diff(
        fermionize_character(seed, (0, 0), T), weight_to_sc(rs, k, (0, 0)),
        g_sc_plus(rs, k, f_af(rs, gamma, "+")), T)
    return sc, af


def _failing_weights(diffs):
    return sum(1 for _, terms in diffs.values() if terms)


def test_flows_keep_the_character_level():
    # spectral_flow_sc with g* at level 1, or spectral_flow_af with the
    # level-1 conformal weight in its constant, fails one side here
    sc, af = _flow_sides_at_level_3_2()
    assert not (sc.vacuous or af.vacuous)
    assert (len(sc), _failing_weights(sc)) == (19, 0)
    assert (len(af), _failing_weights(af)) == (2, 0)


def test_flow_sc_sees_g_star_at_level_one(monkeypatch):
    monkeypatch.setattr(charflow, "_sc_flow_form",
                        lambda rs, k, g: REAL_SC_FLOW_FORM(rs, 1, g))
    sc, af = _flow_sides_at_level_3_2()
    assert (len(sc), _failing_weights(sc)) == (19, 13)
    assert _failing_weights(af) == 0


# exit code, stdout and stderr of the failing B2-k3_2 coset-side flow report
# below, JSON then text, hashed as test_golden.py hashes its grids
FAILING_REPORT_SHA256 = \
    "cfd2e181693bf921b74a033fa46cb58fde082446b4049d4b8990bc0ff1fc29c6"


def test_failing_flow_report_bytes(monkeypatch):
    # no golden case exits 1 with a character report; this one does, with
    # 13 DIFF lines whose exponents lie on mixed grids (7/6 against 43/36)
    monkeypatch.setattr(charflow, "_sc_flow_form",
                        lambda rs, k, g: REAL_SC_FLOW_FORM(rs, 1, g))
    digest = hashlib.sha256()
    for fmt in ("json", "text"):
        rc, out, err = regen.run(
            ["flow", "check", "--seed", "seeds/B2-k3_2.json", "--side", "sc",
             "--gamma=1,0", "--T", "4", "--format", fmt])
        assert rc == 1
        digest.update(f"{rc}\n{out}{err}".encode("utf-8"))
    assert out.count("DIFF") == 13
    assert "1*q^79/36" in out
    assert digest.hexdigest() == FAILING_REPORT_SHA256


def _af_flow_at_level_one():
    """spectral_flow_af with the level-1 conformal weight in both terms of
    its constant."""
    return _recompiled(
        charflow.spectral_flow_af,
        "conformal_weight_plus(rs, k, new_base)\n"
        "             - conformal_weight_plus(rs, k, base)",
        "conformal_weight_plus(rs, 1, new_base)\n"
        "             - conformal_weight_plus(rs, 1, base)")


@pytest.mark.parametrize("name, mutant, failing", [
    ("_sc_flow_form", lambda: lambda rs, k, g: REAL_SC_FLOW_FORM(rs, 1, g),
     [0, 22, 24, 22]),
    ("spectral_flow_af", _af_flow_at_level_one, [0, 7, 7, 7]),
])
def test_criterion_08_sees_a_flow_that_ignores_the_level(name, mutant, failing,
                                                         monkeypatch):
    monkeypatch.setattr(charflow, name, mutant())
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_08_spectral_flow_equivariance()
    # failing weights per level: level 1 cannot tell, every other level fails
    assert [sum(map(_failing_weights,
                    test_acceptance.flow_equivariance_comparisons(k)))
            for k in test_acceptance.FLOW_LEVELS] == failing


def test_flowed_floors_see_a_floor_one_too_high(monkeypatch):
    monkeypatch.setattr(charflow, "_flow", _recompiled(
        charflow._flow, "else f + Q(shift(", "else f + 1 + Q(shift("))
    # every string of the property test, on both sides
    pairs = test_charflow.floors_under_flows()
    assert sum(floor != validity for floor, validity in pairs) == 308


def _inflated_smith(rows, det):
    """The Smith diagonal with its largest divisor times its least prime."""
    divisors = REAL_SMITH(rows, det)
    last = divisors[-1]
    divisors[-1] *= next(p for p in range(2, last + 1) if last % p == 0)
    return divisors


@pytest.mark.parametrize("family, rank, inflated", [
    ("A", 3, [5, 5, 25]), ("D", 4, [7, 7, 7, 49])])
def test_criterion_04_sees_an_inflated_divisor(family, rank, inflated,
                                               monkeypatch):
    rs = build_root_system(family, rank)
    lattice = latticekit.build_Qsc_dual_lattice(rs)
    assert latticekit.discriminant_group(lattice) == [1 + rs.dual_coxeter] * rank
    monkeypatch.setattr(latticekit, "smith_normal_form", _inflated_smith)
    assert latticekit.discriminant_group(lattice) == inflated


def test_criterion_04_sees_a_unit_pivot_without_its_inverse(monkeypatch):
    # each row below a unit pivot p takes m[i][t] / p times the pivot row;
    # taking m[i][t] times it leaves the column uncleared wherever p != 1
    monkeypatch.setattr(latticekit, "smith_normal_form", _recompiled(
        ratlinalg.smith_normal_form, "row[t] * inv % D", "row[t]"))
    with pytest.raises(AssertionError, match=r"^\('A', 2\)"):
        test_acceptance.test_criterion_04_discriminant_groups()
    # A1 has no row below its pivot; every larger type of the criterion fails
    groups = [latticekit.discriminant_group(latticekit.build_Qsc_dual_lattice(
        build_root_system(family, rank))) for family, rank in (
            ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("E", 6))]
    assert groups == [[3], [2, 16], [], [2, 2, 2, 2], [], []]


def _doubled_last_kernel_row(rs):
    """The true kernel lattice with its last basis row doubled: a sublattice
    of index 2 wherever the kernel is not zero."""
    kernel = REAL_KERNEL(rs)
    rows = [list(row) for row in kernel.basis_in_ambient]
    rows[-1:] = [[2 * x for x in row] for row in rows[-1:]]
    return sublattice(kernel.ambient, rows, "K")


def test_criterion_03_sees_a_doubled_kernel_row(monkeypatch):
    monkeypatch.setattr(test_acceptance, "kernel_K", _doubled_last_kernel_row)
    # A1 has a zero kernel; A2 is the first type whose kernel loses vectors
    with pytest.raises(AssertionError, match=r"^\('A', 2\)"):
        test_acceptance.test_criterion_03_lattice_layer()


def test_criterion_02_sees_h_vee_plus_one(monkeypatch):
    monkeypatch.setattr(rootsys, "_dual_coxeter",
                        lambda *args: REAL_DUAL_COXETER(*args) + 1)
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_02_hvee_identity_on_fundamental_weights()
    # not only the first type of the grid: every one fails
    for family, rank in test_acceptance.TYPE_GRID:
        assert not check_hvee_identity(build_root_system(family, rank))


def test_symmetrizer_sees_the_bond_on_the_short_side(monkeypatch):
    monkeypatch.setattr(rootsys, "_symmetrizer", _recompiled(
        rootsys._symmetrizer, "(k <= j if j < i else k >= j)",
        "(k >= i if j < i else k <= i)"))
    assert test_rootsys.symmetrizer_faults() == [
        (family, rank) for family, (low, high) in rootsys.FAMILIES.items()
        if family in "BCFG" for rank in range(low, min(high or 12, 12) + 1)]


# every type with a golden rootsys info case
GOLDEN_ROOTSYS_TYPES = [("A", 2), ("A", 12), ("B", 3), ("B", 6), ("C", 3),
                        ("C", 6), ("D", 4), ("E", 6), ("E", 7), ("E", 8),
                        ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family, rank", GOLDEN_ROOTSYS_TYPES)
def test_a_closure_row_from_the_wrong_simple_row_is_seen(family, rank, capsys,
                                                         monkeypatch):
    # beta's row is beta - alpha_i's row plus alpha_(i-1)'s, not alpha_i's
    monkeypatch.setattr(rootsys, "_pair_table", _recompiled(
        rootsys._pair_table, "rows[k], rows[i])", "rows[k], rows[i - 1])"))
    assert cli.main(["rootsys", "info", "--type", family, "--rank", str(rank)]) == 2
    assert capsys.readouterr().err == (
        "error: form sum is not proportional to the test weight\n")
    # the table test sees it on its own, past the build's h-vee check too
    with pytest.raises(ValueError, match="not proportional"):
        test_rootsys.test_pair_table_matches_form(family, rank)
    monkeypatch.setattr(rootsys, "_dual_coxeter", lambda *args: 0)
    with pytest.raises(AssertionError):
        test_rootsys.test_pair_table_matches_form(family, rank)


def _skewed_inverse(a):
    """The inverse with 1/2 added at (0, 1) and (1, 0), where it has them."""
    rows = [list(row) for row in REAL_MAT_INV(a)]
    if len(rows) > 1:
        rows[0][1] += Q(1, 2)
        rows[1][0] += Q(1, 2)
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("criterion, level", [
    (test_acceptance.test_criterion_09_e_minus_isometry, "1"),
    (test_acceptance.test_criterion_01_gram_inverse_identities,
     r"Fraction\(1, 1\)")])
def test_criteria_01_and_09_see_a_skewed_cartan_inverse(criterion, level,
                                                        monkeypatch):
    monkeypatch.setattr(rootsys, "mat_inv", _skewed_inverse)
    with pytest.raises(AssertionError, match=rf"^\('A', 2, {level}\)"):
        criterion()


def _replace_in_bilinear(monkeypatch, name, mutant):
    """The bilinear function and the name the acceptance module imported."""
    for module in (bilinear, test_acceptance):
        monkeypatch.setattr(module, name, mutant)


def _gstar_at_level_k(rs, k):
    """g* as -(alpha, beta)/k + delta: the level k in place of k + h_vee."""
    return bilinear._pair_rows(rs, -1 / bilinear.level_params(rs, k).k)


def _replace_int_gram_g_star(monkeypatch):
    """The integer g* builder in bilinear, which the gram_g_star and gram_G
    views read, and the name the CLI imported."""
    for module in (bilinear, cli):
        monkeypatch.setattr(module, "int_gram_g_star", _gstar_at_level_k)


def test_criterion_01_sees_g_star_at_level_k(monkeypatch):
    _replace_int_gram_g_star(monkeypatch)
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_01_gram_inverse_identities()
    # every type and level of the grid fails, for both inverse pairs
    for family, rank in test_acceptance.TYPE_GRID:
        rs = build_root_system(family, rank)
        eye = identity(rs.num_positive)
        for k in test_acceptance.level_grid(rs):
            assert mat_mul(bilinear.gram_g(rs, k), bilinear.gram_g_star(rs, k)) != eye
            assert mat_mul(bilinear.gram_G(rs, k), bilinear.gram_G_star(rs, k)) != eye


@pytest.mark.parametrize("family,rank", [("A", 2), ("F", 4)])
def test_forms_verify_sees_g_star_at_level_k(family, rank, monkeypatch, capsys):
    _replace_int_gram_g_star(monkeypatch)
    argv = ["forms", "verify", "--type", family, "--rank", str(rank), "--level=1"]
    assert cli.main([*argv, "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["g_times_g_star_is_identity"] is False
    assert checks["G_times_G_star_is_identity"] is False
    assert checks["central_charge_formulas_agree"] is True
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "  g_times_g_star_is_identity: FAIL\n" in out
    assert "  G_times_G_star_is_identity: FAIL\n" in out


def _central_charges_without_rank(rs, k):
    """(c_af, c_af + N): the coset central charge without its -rank."""
    c_af, c_sc = REAL_CENTRAL_CHARGES(rs, k)
    return c_af, c_sc + rs.rank


def test_criterion_10_sees_a_central_charge_without_rank(monkeypatch):
    _replace_in_bilinear(monkeypatch, "central_charges",
                         _central_charges_without_rank)
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_10_central_charges()


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("E", 6)])
def test_forms_verify_sees_a_dimension_one_too_big(family, rank, monkeypatch, capsys):
    # c_sc from dim g now disagrees with the strange formula, which reads
    # only the roots; the Gram pairs still hold
    real = rootsys.RootSystem.dim_algebra.fget
    argv = ["forms", "verify", "--type", family, "--rank", str(rank), "--level=7/2",
            "--format", "json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["central_charge_formulas_agree"]
    monkeypatch.setattr(rootsys.RootSystem, "dim_algebra", property(lambda rs: real(rs) + 1))
    assert cli.main(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == {"central_charge_formulas_agree": False,
                      "g_times_g_star_is_identity": True,
                      "G_times_G_star_is_identity": True}


def test_criterion_10_sees_a_dimension_one_too_big(monkeypatch):
    real = rootsys.RootSystem.dim_algebra.fget
    monkeypatch.setattr(rootsys.RootSystem, "dim_algebra", property(lambda rs: real(rs) + 1))
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_10_central_charges()


def _mutated_package(tmp_path, monkeypatch, module, old, new):
    """Put first on PYTHONPATH a copy of the cosetlab package, under
    tmp_path, whose module has the one text old replaced by new, so that
    python -m cosetlab in a subprocess runs the copy."""
    root = tmp_path / "mutant"
    shutil.copytree(Path(cli.__file__).parent, root / "cosetlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = root / "cosetlab" / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1
    path.write_text(source.replace(old, new), encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", str(root))


def test_criterion_11_sees_a_cli_that_always_exits_0(tmp_path, monkeypatch):
    # every fixed request and --expect 3 still exit 0; --expect 4 must exit 1
    _mutated_package(tmp_path, monkeypatch, "cli",
                     "return 0 if ok else 1", "return 0")
    with pytest.raises(AssertionError) as failure:
        test_acceptance.test_criterion_11_cli_determinism_and_exit_codes(tmp_path)
    assert '"--expect", "4"' in str(failure.traceback[-1].statement)
