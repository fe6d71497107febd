"""Mutation gate: a known-bad input must make each shipped check fail.

Every golden case passes, so a verifier that stopped comparing would still
reproduce every golden byte.  These tests feed the OPE verifiers a
contraction table with one deliberate defect (applied both to a fresh
table and to one whose contraction memo and term-key registry, with the
Gram and cocycle images of each charge, a clean run has filled), or an
engine that raises some pole orders, by replacing
``opecalc._boson_patterns``, or one whose Taylor budget stops an order
short of the simple pole, by recompiling ``opecalc._contract`` with that
one line changed.  They feed character
transport a wrong eta power or a short lattice enumeration, by replacing
``charflow.eta_power`` or ``charflow.enumerate_by_norm``, or an enumeration
whose running sum skips one basis row, by recompiling
``latticekit.enumerate_by_norm`` with that one line changed, and compare
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
``latticekit.smith_normal_form``.  A dual Coxeter number one too big,
from replacing ``rootsys._dual_coxeter``, fails acceptance criterion 02.
A Cartan inverse with 1/2 added at (0, 1) and (1, 0), from replacing
``rootsys.mat_inv``, fails criteria 01 and 09 at A2, level 1.
A g* built at level k instead of k + h_vee fails criterion 01, and a coset
central charge without its -rank term fails criterion 10; each replaces the
``bilinear`` function and the name the acceptance module imported.  Each
pins the failures its defect must cause.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import sys
from fractions import Fraction as Q
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab import bilinear, charflow, latticekit, opecalc, rootsys
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
from cosetlab.rootsys import build_root_system, check_hvee_identity

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402
import test_acceptance  # noqa: E402
import test_charflow  # noqa: E402

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
    assert first.expected == "(-1*N[0,1|1,0])*X(1,1) E(1,1,0,1,1)"
    assert first.got == "(1*N[0,1|1,0])*X(1,1) E(1,1,0,1,1)"


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
                            "(-1*N[0,1|1,0])*X(1,1) E(1,1,0,1,1)", "0")


def _bump_eta(m, T):
    """The true eta power with 1 added to its coefficient at q^(m/24 + 1)."""
    s = REAL_ETA_POWER(m, T)
    return s + QSeries.from_terms([(s.min_exponent + 1, 1)])


def _drop_zero_vector(lattice, bound, *args, **kwargs):
    """The true enumeration without the zero vector.

    A round trip passes every string through the zero kernel vector only,
    so that is the vector whose loss it must see.
    """
    return [v for v in REAL_ENUMERATE(lattice, bound, *args, **kwargs)
            if any(v)]


@pytest.fixture
def b2_seed():
    raw = json.loads(B2_SEED.read_text(encoding="utf-8"))
    return validate_seed(raw).character


def test_roundtrip_sees_a_wrong_eta_coefficient(b2_seed, monkeypatch):
    monkeypatch.setattr(charflow, "eta_power", _bump_eta)
    report = roundtrip_check(b2_seed, (0, 0), 6)
    assert not report.ok
    assert report.diffs == {
        (0, 0): (6, ((1, -2), (2, 3), (3, -8), (4, -7), (5, -9), (6, -32))),
        (0, 1): (Q(67, 12), ((Q(3, 2), -4), (Q(7, 2), -7), (Q(9, 2), -20),
                             (Q(11, 2), -30))),
    }


def test_roundtrip_sees_a_dropped_lattice_vector(b2_seed, monkeypatch):
    monkeypatch.setattr(charflow, "enumerate_by_norm", _drop_zero_vector)
    report = roundtrip_check(b2_seed, (0, 0), 6)
    assert not report.ok
    # each string comes back as zero: the diff is the seed string itself
    assert report.diffs == {
        (0, 0): (6, ((0, 1), (1, -2), (2, 3))),
        (0, 1): (Q(67, 12), ((Q(1, 2), 2), (Q(3, 2), -1))),
    }


def test_roundtrip_sees_a_skipped_row_add(b2_seed, monkeypatch):
    # the search builds each kernel image as a running sum of basis rows;
    # skipping the row of the first coordinate maps every kernel vector to
    # the image of one with that coordinate zeroed, so strings pile up on
    # the same coset-side keys; the golden char-roundtrip and coset-side
    # flow-check cases of B2, G2, A3, B3 and B4 then exit 1
    monkeypatch.setattr(charflow, "enumerate_by_norm", _recompiled(
        latticekit.enumerate_by_norm, "if x else image",
        "if x and k else image"))
    report = roundtrip_check(b2_seed, (0, 0), 6)
    assert not report.ok
    assert report.diffs == {
        (0, 0): (6, ((0, -4), (1, 8), (2, -12))),
        (0, 1): (Q(67, 12), ((Q(1, 2), -6), (Q(3, 2), 3))),
    }


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
    return sublattice(kernel.ambient, rows, "K", kernel.lattice.labels)


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
        return sublattice(true.ambient, rows, "K", true.lattice.labels)
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


def _inflated_smith(rows):
    """The Smith diagonal with its largest divisor times its least prime."""
    divisors = REAL_SMITH(rows)
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


def test_criterion_02_sees_h_vee_plus_one(monkeypatch):
    monkeypatch.setattr(rootsys, "_dual_coxeter",
                        lambda *args: REAL_DUAL_COXETER(*args) + 1)
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_02_hvee_identity_on_fundamental_weights()
    # not only the first type of the grid: every one fails
    for family, rank in test_acceptance.TYPE_GRID:
        assert not check_hvee_identity(build_root_system(family, rank))


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
    return bilinear._pair_gram(rs, -1 / bilinear.level_params(rs, k).k)


def test_criterion_01_sees_g_star_at_level_k(monkeypatch):
    _replace_in_bilinear(monkeypatch, "gram_g_star", _gstar_at_level_k)
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_01_gram_inverse_identities()
    # every type and level of the grid fails, for both inverse pairs
    for family, rank in test_acceptance.TYPE_GRID:
        rs = build_root_system(family, rank)
        eye = identity(rs.num_positive)
        for k in test_acceptance.level_grid(rs):
            assert mat_mul(bilinear.gram_g(rs, k), _gstar_at_level_k(rs, k)) != eye
            assert mat_mul(bilinear.gram_G(rs, k), bilinear.gram_G_star(rs, k)) != eye


def _central_charges_without_rank(rs, k):
    """(c_af, c_af + N): the coset central charge without its -rank."""
    c_af, c_sc = REAL_CENTRAL_CHARGES(rs, k)
    return c_af, c_sc + rs.rank


def test_criterion_10_sees_a_central_charge_without_rank(monkeypatch):
    _replace_in_bilinear(monkeypatch, "central_charges",
                         _central_charges_without_rank)
    with pytest.raises(AssertionError):
        test_acceptance.test_criterion_10_central_charges()
