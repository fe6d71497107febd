"""Mutation gate: a known-bad input must make each shipped check fail.

Every golden case passes, so a verifier that stopped comparing would still
reproduce every golden byte.  These tests feed the OPE verifiers a
contraction table with one deliberate defect, by replacing
``opecalc.make_table``, and feed character transport a wrong eta power or a
short lattice enumeration, by replacing ``charflow.eta_power`` or
``charflow.enumerate_by_norm``.  Each pins the failures its defect must cause.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from cosetlab import charflow, opecalc
from cosetlab.charflow import QSeries, roundtrip_check, validate_seed
from cosetlab.opecalc import OpeDiff
from cosetlab.rootsys import build_root_system

REAL_MAKE_TABLE = opecalc.make_table
REAL_ETA_POWER = charflow.eta_power
REAL_ENUMERATE = charflow.enumerate_by_norm
B2_SEED = Path(__file__).resolve().parent / "golden" / "seeds" / "B2.json"


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


def _bump_eta(m, T):
    """The true eta power with 1 added to its coefficient at q^(m/24 + 1)."""
    s = REAL_ETA_POWER(m, T)
    return s + QSeries.from_terms([(s.offset + 1, 1)])


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
    report = roundtrip_check(b2_seed, (0, 0), 1, 6)
    assert not report.ok
    assert report.diffs == {
        (0, 0): (6, ((1, -2), (2, 3), (3, -8), (4, -7), (5, -9), (6, -32))),
        (0, 1): (Q(67, 12), ((Q(3, 2), -4), (Q(7, 2), -7), (Q(9, 2), -20),
                             (Q(11, 2), -30))),
    }


def test_roundtrip_sees_a_dropped_lattice_vector(b2_seed, monkeypatch):
    monkeypatch.setattr(charflow, "enumerate_by_norm", _drop_zero_vector)
    report = roundtrip_check(b2_seed, (0, 0), 1, 6)
    assert not report.ok
    # each string comes back as zero: the diff is the seed string itself
    assert report.diffs == {
        (0, 0): (6, ((0, 1), (1, -2), (2, 3))),
        (0, 1): (Q(67, 12), ((Q(1, 2), 2), (Q(3, 2), -1))),
    }
