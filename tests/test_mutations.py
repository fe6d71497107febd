"""Mutation gate: a known-bad input must make each shipped check fail.

Every golden case passes, so a verifier that stopped comparing would still
reproduce every golden byte.  These tests feed the OPE verifiers a
contraction table with one deliberate defect, by replacing
``opecalc.make_table``, and pin the failures that defect must cause.
"""

from __future__ import annotations

import dataclasses

import pytest

from cosetlab import opecalc
from cosetlab.opecalc import OpeDiff
from cosetlab.rootsys import build_root_system

REAL_MAKE_TABLE = opecalc.make_table


def _bump_gstar(rs, k):
    """The true table with 1 added to the g* entry at (0, 0)."""
    table = REAL_MAKE_TABLE(rs, k)
    rows = [list(row) for row in table.gstar]
    rows[0][0] += 1
    return dataclasses.replace(table, gstar=tuple(map(tuple, rows)))


def _flip_cocycle(rs, k):
    """The true table with cocycle exponents (0, 1) and (1, 0) both flipped.

    E + E^T is unchanged mod 2, so the lattice still passes the cocycle
    identity check its constructor runs; only the signs of products move.
    """
    table = REAL_MAKE_TABLE(rs, k)
    rows = [list(row) for row in table.lattice.eps_exponents]
    rows[0][1] ^= 1
    rows[1][0] ^= 1
    lattice = dataclasses.replace(table.lattice,
                                  eps_exponents=tuple(map(tuple, rows)))
    return dataclasses.replace(table, lattice=lattice)


@pytest.fixture
def a2():
    return build_root_system("A", 2)


@pytest.mark.parametrize("verify", [opecalc.verify_Jalpha_heisenberg,
                                    opecalc.verify_Hminus_heisenberg,
                                    opecalc.verify_fst_homomorphism])
def test_unmutated_table_passes(a2, verify):
    assert verify(a2, 1).ok


def test_jalpha_sees_a_wrong_gstar_entry(a2, monkeypatch):
    monkeypatch.setattr(opecalc, "make_table", _bump_gstar)
    report = opecalc.verify_Jalpha_heisenberg(a2, 1)
    assert not report.ok
    assert report.checks == 27
    assert len(report.diffs) == 4
    assert report.diffs[0] == OpeDiff("J*(1, 0)", "J(1, 0)", 2,
                                      "(1)*1", "(4)*1")


def test_hminus_sees_a_wrong_gstar_entry(a2, monkeypatch):
    monkeypatch.setattr(opecalc, "make_table", _bump_gstar)
    report = opecalc.verify_Hminus_heisenberg(a2, 1)
    assert report.checks == 9
    assert report.diffs == [OpeDiff("H-(1, 0)", "H-(1, 0)", 2,
                                    "(-1/2)*1", "(9/2)*1")]


def test_fst_sees_a_flipped_cocycle_bit(a2, monkeypatch):
    monkeypatch.setattr(opecalc, "make_table", _flip_cocycle)
    report = opecalc.verify_fst_homomorphism(a2, 1)
    assert not report.ok
    assert report.checks == 88
    assert len(report.diffs) == 12
    first = report.diffs[0]
    assert (first.left, first.right, first.pole) == ("Xt(1, 0)", "Xt(0, 1)", 1)
    assert first.expected == "(-1*N[0,1|1,0])*X(1,1) E(1,1,0,1,1)"
    assert first.got == "(1*N[0,1|1,0])*X(1,1) E(1,1,0,1,1)"
