"""Every argument guard of the library raises its own message.

One row per guard: a public call with one argument wrong (a vector of the
wrong length, a weight of another algebra or level, a malformed Gram or
cocycle, a negative norm bound) and the message it must raise.
"""

from fractions import Fraction as Q

import pytest

from cosetlab.bilinear import (ScWeight, make_sc_weight, sc_weight_from_jstar,
                               sc_weight_to_af)
from cosetlab.charflow import (QSeries, affine_character, fermionize_character,
                               spectral_flow_af, spectral_flow_af_frame)
from cosetlab.latticekit import (IntegralLattice, build_L_plus, enumerate_by_norm,
                                 f_af, g_af_plus, kernel_K)
from cosetlab.opecalc import exp_field, h_field, make_table
from cosetlab.ratlinalg import mat_vec
from cosetlab.rootsys import build_root_system

A1, A2 = build_root_system("A", 1), build_root_system("A", 2)
ZERO = (0, 0, 0)  # a weight's values on A2's three J generators
CHAR = affine_character(A2, 1, (0, 0), {(0, 0): QSeries.from_terms([(0, 1)])})
TABLE = make_table(A1, 1)

REFUSALS = [
    ("sc_weight_from_jstar", lambda: sc_weight_from_jstar(A2, 1, (1,)),
     "dimension mismatch"),
    ("jstar_values/algebra", lambda: make_sc_weight(A2, 1, ZERO).jstar_values(A1),
     "root system does not match weight"),
    ("jstar_values/length", lambda: ScWeight("A", 2, Q(1), (Q(0),)).jstar_values(A2),
     "dimension mismatch"),
    ("add/algebra", lambda: make_sc_weight(A2, 1, ZERO) + make_sc_weight(A1, 1, (0,)),
     "weights live on different algebras"),
    ("add/level", lambda: make_sc_weight(A2, 1, ZERO) + make_sc_weight(A2, 2, ZERO),
     "weights have different levels"),
    ("make_sc_weight", lambda: make_sc_weight(A2, 1, (0,)), "dimension mismatch"),
    ("sc_weight_to_af", lambda: sc_weight_to_af(A2, 2, make_sc_weight(A2, 1, ZERO)),
     "weight level does not match"),
    ("spectral_flow_af", lambda: spectral_flow_af(CHAR, make_sc_weight(A2, 2, ZERO)),
     "weight level does not match"),
    ("spectral_flow_af_frame",
     lambda: spectral_flow_af_frame(A2, 1, make_sc_weight(A2, 2, ZERO)),
     "weight level does not match"),
    ("fermionize_character", lambda: fermionize_character(CHAR, (0,), 2),
     "dimension mismatch"),
    ("lattice/square", lambda: IntegralLattice("X", ((2, 0),), ((0, 0),)),
     "gram matrix is not square"),
    ("lattice/cocycle", lambda: IntegralLattice("X", ((2,),), ((0, 0),)),
     "cocycle matrix shape does not match basis"),
    ("lattice/symmetric", lambda: IntegralLattice("X", ((2, 1), (0, 2)), ((0, 0), (0, 0))),
     "gram matrix is not symmetric"),
    ("embed", lambda: kernel_K(A2).embed((1, 0)), "dimension mismatch"),
    ("f_af", lambda: f_af(A2, (1,), "+"), "dimension mismatch"),
    ("g_af_plus", lambda: g_af_plus(A2, (1,)), "dimension mismatch"),
    ("enumerate_by_norm", lambda: enumerate_by_norm(build_L_plus(A1), -1),
     "bound must be nonnegative"),
    ("h_field", lambda: h_field(TABLE, (1, 0)), "dimension mismatch"),
    ("exp_field", lambda: exp_field(TABLE, (1,), ()), "unregistered lattice vector"),
    ("mat_vec", lambda: mat_vec(((1, 2),), (1,)), "dimension mismatch"),
    ("form", lambda: A2.form((1,), (1, 0)), "dimension mismatch"),
    ("root_pairings", lambda: A2.root_pairings((1,)), "dimension mismatch"),
]


@pytest.mark.parametrize("call,message", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_a_wrong_argument_raises_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
