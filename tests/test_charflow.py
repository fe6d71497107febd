import dataclasses
import hashlib
import json
import random
from fractions import Fraction as Q
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetlab import charflow
from cosetlab.bilinear import make_sc_weight, sc_weight_from_jstar, weight_to_sc
from cosetlab.charflow import (
    FormalCharacter,
    QSeries,
    affine_character,
    cflemma_check,
    character_support,
    character_to_json,
    defermionize_character,
    eta_power,
    fermionize_character,
    flow_af_equivariance_diff,
    flow_sc_equivariance_diff,
    qseries_diff,
    roundtrip_check,
    spectral_flow_af,
    spectral_flow_af_frame,
    spectral_flow_sc,
    validate_seed,
)
from cosetlab.latticekit import f_af, g_sc_plus, kernel_K
from cosetlab.ratlinalg import integer_vector, vec
from cosetlab.rootsys import build_root_system


# ---------------------------------------------------------------- oracles

def naive_euler_product(order):
    # expand prod_{n=1..order} (1 - q^n) by direct list convolution
    out = [1] + [0] * order
    for n in range(1, order + 1):
        nxt = list(out)
        for i in range(order + 1 - n):
            nxt[i + n] -= out[i]
        out = nxt
    return out


def count_partitions(n, largest=None):
    # brute-force partition count, exponential but independent of the library
    if n == 0:
        return 1
    if largest is None:
        largest = n
    total = 0
    for part in range(min(n, largest), 0, -1):
        total += count_partitions(n - part, part)
    return total


def series(*terms, validity=None):
    return QSeries.from_terms(terms, validity=validity)


def delta_seed(rs, k, base=None):
    base = base if base is not None else (0,) * rs.rank
    return affine_character(rs, k, base, {(0,) * rs.rank: series((0, 1))})


def assert_no_diffs(diffs):
    bad = {key: d for key, (_, d) in diffs.items() if d}
    assert not bad, bad


# ---------------------------------------------------------------- QSeries

def test_from_terms_items_and_min():
    s = series((Q(1, 2), 3), (2, -1), (Q(1, 2), 1))
    assert s.items() == ((Q(1, 2), 4), (2, -1))
    assert s.min_exponent == Q(1, 2)
    assert s.validity is None
    assert s.coefficient(Q(1, 2)) == 4
    assert s.coefficient(Q(1, 3)) == 0


def test_add_aligns_mixed_grids():
    a = series((Q(1, 24), 1), (Q(25, 24), -1), validity=Q(5))
    b = series((Q(1, 2), 2), validity=Q(3))
    total = a + b
    assert total.coefficient(Q(1, 24)) == 1
    assert total.coefficient(Q(25, 24)) == -1
    assert total.coefficient(Q(1, 2)) == 2
    assert total.validity == 3


def test_mul_validity_rule():
    a = series((1, 1), (2, 1), validity=Q(5))
    b = series((3, 1), validity=Q(7))
    # min(5 + 3, 7 + 1) = 8
    assert (a * b).validity == 8
    assert (a * b).items() == ((4, 1), (5, 1))


def test_mul_with_exact_zero_is_exact_zero():
    a = series((1, 1), validity=Q(4))
    z = QSeries.from_terms([])
    assert not (a * z).terms
    assert (a * z).validity is None


def test_truncate_and_validity_guard():
    s = series((0, 1), (3, 5), validity=Q(10)).truncate(2)
    assert s.items() == ((0, 1),)
    assert s.validity == 2
    with pytest.raises(ValueError, match="validity"):
        QSeries.from_terms([(3, 1)], Q(2))


def test_shift_moves_exponents_and_validity():
    s = series((0, 1), (1, 2))
    t = s.shift(Q(1, 2))
    assert t.items() == ((Q(1, 2), 1), (Q(3, 2), 2))
    assert t.validity is None
    assert s.truncate(4).shift(Q(1, 2)).validity == Q(9, 2)


def test_min_bound_of_truncated_zero():
    z = QSeries.from_terms([], Q(4))
    assert z.min_bound() == 4
    assert series((2, 1), validity=Q(9)).min_bound() == 2
    assert QSeries.from_terms([]).min_bound() is None


def build_series(terms, v):
    s = QSeries.from_terms([(Q(e, d), Q(c)) for e, d, c in terms])
    return s if v is None else s.truncate(Q(v))


small_series = st.builds(
    build_series,
    st.lists(st.tuples(st.integers(-4, 8), st.integers(1, 3),
                       st.integers(-3, 3)), max_size=4),
    st.one_of(st.none(), st.integers(3, 9)),
)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_qseries_ring_laws(a, b, c):
    _, d1 = qseries_diff(a + b, b + a)
    assert not d1
    _, d2 = qseries_diff((a + b) + c, a + (b + c))
    assert not d2
    _, d3 = qseries_diff(a * b, b * a)
    assert not d3
    _, d4 = qseries_diff(a * (b + c), a * b + a * c)
    assert not d4


halves = st.builds(Q, st.integers(-9, 18), st.just(2))


@settings(max_examples=80, deadline=None)
@given(small_series, small_series, halves, halves,
       st.builds(Q, st.integers(-6, 6), st.integers(1, 4)))
def test_qseries_validity_is_sound(a, b, ta, tb, sh):
    # a and b read as exact polynomials; truncation forgets their tails, and
    # every coefficient the result certifies must still be the exact one
    a, b = (QSeries.from_terms(s.items()) for s in (a, b))
    at, bt = a.truncate(ta), b.truncate(tb)
    for got, exact in ((at * bt, a * b), (at + bt, a + b),
                       (at.shift(sh), a.shift(sh))):
        assert exact.validity is None
        v = got.validity
        for e, _ in got.items() + exact.items():
            if v is None or e <= v:
                assert got.coefficient(e) == exact.coefficient(e), (e, v)


class RefSeries:
    """The Fraction-keyed series the integer grid replaced, kept as the
    reference: exponent -> nonzero coefficient, validity a Fraction or None."""

    def __init__(self, terms, validity=None):
        self.terms = {e: c for e, c in terms.items() if c}
        self.validity = validity

    def items(self):
        return tuple(sorted(self.terms.items()))

    def shift(self, s):
        v = None if self.validity is None else self.validity + s
        return RefSeries({e + s: c for e, c in self.terms.items()}, v)

    def truncate(self, T):
        v = T if self.validity is None else min(self.validity, T)
        return RefSeries({e: c for e, c in self.terms.items() if e <= v}, v)

    def __add__(self, other):
        bounds = [v for v in (self.validity, other.validity) if v is not None]
        v = min(bounds) if bounds else None
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return RefSeries({e: c for e, c in out.items()
                          if v is None or e <= v}, v)

    def __mul__(self, other):
        def floor(s):
            return min(s.terms) if s.terms else s.validity
        limits = [v + m for v, m in ((self.validity, floor(other)),
                                     (other.validity, floor(self)))
                  if v is not None and m is not None]
        v = min(limits) if limits else None
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                if v is None or ea + eb <= v:
                    out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        return RefSeries(out, v)


def reference_diff(a, b, order=None):
    """qseries_diff spelled out on the reference."""
    bounds = [v for v in (a.validity, b.validity, order) if v is not None]
    to = min(bounds) if bounds else None
    acc = {e: c for e, c in a.terms.items() if to is None or e <= to}
    for e, c in b.terms.items():
        if to is None or e <= to:
            acc[e] = acc.get(e, 0) - c
    return to, tuple(sorted((e, c) for e, c in acc.items() if c))


def assert_same(got, want):
    assert got.items() == want.items()
    assert got.validity == want.validity
    assert all(type(n) is int for n in got.terms)
    assert got.cap is None or type(got.cap) is int


GRID_DENS = (1, 2, 3, 24)
grid_rationals = st.builds(Q, st.integers(-30, 60), st.sampled_from(GRID_DENS))


@st.composite
def grid_pairs(draw):
    """A grid series and its reference on denominators 1, 2, 3 and 24, with
    validity None or finite, and coefficients both integral and not."""
    terms = draw(st.lists(st.tuples(
        grid_rationals, st.builds(Q, st.integers(-3, 3),
                                  st.sampled_from((1, 1, 2)))), max_size=5))
    v = draw(st.one_of(st.none(), grid_rationals))
    if v is not None:
        terms = [(e, c) for e, c in terms if e <= v]
    return grid_pair(terms, v)


def grid_pair(terms, v=None):
    ref = {}
    for e, c in terms:
        ref[e] = ref.get(e, 0) + c
    return QSeries.from_terms(terms, v), RefSeries(ref, v)


@settings(max_examples=200, deadline=None)
@given(grid_pairs(), grid_pairs(),
       st.builds(Q, st.integers(-40, 40), st.sampled_from((1, 2, 5, 7, 24))),
       st.builds(Q, st.integers(-40, 60), st.sampled_from((1, 3, 4, 24))),
       st.one_of(st.none(), grid_rationals))
@example(grid_pair([(0, 1), (1, 2)], Q(3)), grid_pair([(Q(1, 2), -1)], Q(5, 2)),
         Q(1, 5), Q(7, 3), None)
@example(grid_pair([(Q(-1, 2), 1)], Q(-1, 3)), grid_pair([(0, Q(1, 2))]),
         Q(-2, 7), Q(-1, 4), Q(-1, 3))
def test_grid_arithmetic_matches_the_fraction_reference(pa, pb, sh, T, order):
    # shifts and truncation orders off the series' grids, and mixed grids on
    # the two operands: every result must rescale terms and cap alike
    (a, ra), (b, rb) = pa, pb
    assert_same(a, ra)
    assert_same(a + b, ra + rb)
    assert_same(a * b, ra * rb)
    assert_same(a.shift(sh), ra.shift(sh))
    assert_same(a.truncate(T), ra.truncate(T))
    assert_same(a.shift(sh).truncate(T) + b, ra.shift(sh).truncate(T) + rb)
    assert qseries_diff(a, b, order) == reference_diff(ra, rb, order)
    assert qseries_diff(a.shift(sh), b) == reference_diff(ra.shift(sh), rb)


# ---------------------------------------------------------------- eta

def test_eta_first_power_frozen():
    s = eta_power(1, 8)
    expected = [1, -1, -1, 0, 0, 1, 0, 1]
    assert [s.coefficient(Q(1, 24) + n) for n in range(8)] == expected


def test_eta_matches_naive_product():
    s = eta_power(1, 12)
    naive = naive_euler_product(11)
    for n, c in enumerate(naive):
        assert s.coefficient(Q(1, 24) + n) == c


def test_eta_inverse_partition_numbers():
    s = eta_power(-1, 6)
    assert [s.coefficient(Q(-1, 24) + n) for n in range(6)] == [1, 1, 2, 3, 5, 7]
    for n in range(9):
        assert eta_power(-1, 10).coefficient(Q(-1, 24) + n) == count_partitions(n)


def test_eta_zeroth_power_is_one():
    assert eta_power(0, 5).items() == ((0, 1),)


def test_eta_leading_exponent_guard():
    with pytest.raises(ValueError, match="leading exponent"):
        eta_power(2, 0)


@pytest.mark.parametrize("m", range(1, 7))
def test_eta_power_cancels_its_inverse(m):
    prod = eta_power(m, 9) * eta_power(-m, 9)
    assert prod.items() == ((0, 1),)
    assert prod.validity is not None


def convolved_eta_power(m, order):
    # |m|-fold convolution of the Euler product or of the partition numbers
    base = (naive_euler_product(order) if m >= 0
            else [count_partitions(n) for n in range(order + 1)])
    acc = [1] + [0] * order
    for _ in range(abs(m)):
        acc = [sum(acc[i] * base[n - i] for i in range(n + 1))
               for n in range(order + 1)]
    return acc


@pytest.mark.parametrize("T", [Q(7), Q(13, 2)])
@pytest.mark.parametrize("m", range(-8, 9))
def test_eta_power_matches_convolution(m, T):
    s = eta_power(m, T)
    lead = Q(m, 24)
    span = T - lead
    coeffs = convolved_eta_power(m, span.numerator // span.denominator)
    assert s.validity == T
    assert s.items() == tuple((lead + n, c) for n, c in enumerate(coeffs) if c)


def test_eta_recompute_at_higher_order_agrees():
    low = eta_power(-2, 5)
    high = eta_power(-2, 9)
    for e, c in low.items():
        assert high.coefficient(e) == c


# ---------------------------------------------------------------- seeds

def seed_dict(**overrides):
    raw = {
        "type": "A",
        "rank": 1,
        "level": "1",
        "base_weight": ["0"],
        "strings": [
            {"weight_offset": [0], "terms": [{"exp": "0", "coef": "1"}],
             "min_exp": "0"},
            {"weight_offset": [1], "terms": [{"exp": "0", "coef": "1"}],
             "min_exp": "0"},
        ],
    }
    raw.update(overrides)
    return raw


def test_validate_seed_accepts_example():
    report = validate_seed(seed_dict())
    assert not report.problems
    ch = report.character
    assert ch.side == "af"
    assert set(ch.strings) == {(0,), (1,)}
    assert ch.strings[(0,)].items() == ((0, 1),)
    assert ch.strings[(0,)].validity is None


def test_validate_seed_rejects_half_root_offset():
    raw = seed_dict(strings=[
        {"weight_offset": ["1/2"], "terms": [{"exp": "0", "coef": "1"}],
         "min_exp": "0"}])
    report = validate_seed(raw)
    assert report.character is None
    assert any("not in the root lattice" in p for p in report.problems)


def test_validate_seed_rejects_missing_min_exp():
    raw = seed_dict(strings=[
        {"weight_offset": [0], "terms": [{"exp": "0", "coef": "1"}]}])
    report = validate_seed(raw)
    assert any("minimum exponent" in p for p in report.problems)


def test_validate_seed_rejects_wrong_min_exp():
    raw = seed_dict(strings=[
        {"weight_offset": [0], "terms": [{"exp": "1", "coef": "1"}],
         "min_exp": "0"}])
    report = validate_seed(raw)
    assert any("does not match" in p for p in report.problems)


def test_validate_seed_rejects_duplicates_and_bad_terms():
    raw = seed_dict(strings=[
        {"weight_offset": [0],
         "terms": [{"exp": "1", "coef": "1"}, {"exp": "1", "coef": "2"}],
         "min_exp": "1"},
        {"weight_offset": [2], "terms": [{"exp": "0", "coef": "0"}],
         "min_exp": "0"},
        {"weight_offset": [3], "terms": [{"exp": 0.5, "coef": "1"}],
         "min_exp": "1/2"},
    ])
    report = validate_seed(raw)
    assert len(report.problems) == 3


def test_validate_seed_rejects_duplicate_offsets_and_bad_level():
    raw = seed_dict(strings=[
        {"weight_offset": [0], "terms": [{"exp": "0", "coef": "1"}],
         "min_exp": "0"},
        {"weight_offset": [0], "terms": [{"exp": "1", "coef": "1"}],
         "min_exp": "1"},
    ])
    assert any("duplicate weight offset" in p
               for p in validate_seed(raw).problems)
    assert any("bad level" in p
               for p in validate_seed(seed_dict(level="0")).problems)
    assert any("bad root system" in p
               for p in validate_seed(seed_dict(type="Z")).problems)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.text(max_size=4)
    | st.floats(-4, 4) | st.sampled_from([float("inf"), float("nan")]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)
SEED_PATHS = [
    (), ("type",), ("rank",), ("level",), ("base_weight",), ("base_weight", 0),
    ("strings",), ("strings", 0), ("strings", 0, "weight_offset"),
    ("strings", 1, "weight_offset", 0), ("strings", 0, "terms"),
    ("strings", 0, "terms", 0), ("strings", 0, "terms", 0, "exp"),
    ("strings", 1, "terms", 0, "coef"), ("strings", 0, "min_exp"),
]


def _assert_report_consistent(report):
    assert (report.character is None) == bool(report.problems)
    assert all(isinstance(p, str) for p in report.problems)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_validate_seed_is_total_on_any_json_value(raw):
    _assert_report_consistent(validate_seed(raw))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SEED_PATHS), JSON_VALUES)
def test_validate_seed_is_total_on_corrupted_seeds(path, value):
    raw = json.loads(json.dumps(seed_dict()))
    if path:
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        raw = value
    _assert_report_consistent(validate_seed(raw))


@pytest.mark.parametrize("raw, fragment", [
    (5, "not a JSON object"),
    ([seed_dict()], "not a JSON object"),
    (seed_dict(strings=5), "strings is not a list"),
    (seed_dict(strings={"0": 1}), "strings is not a list"),
    (seed_dict(strings=[5]), "not an object"),
    (seed_dict(strings=[{"weight_offset": [0], "terms": 5, "min_exp": "0"}]),
     "terms is not a list"),
    (seed_dict(rank=float("inf")), "bad root system"),
    (seed_dict(rank=True), "rank is not a JSON integer"),
    (seed_dict(rank=2.7), "rank is not a JSON integer"),
    (seed_dict(rank="2"), "rank is not a JSON integer"),
])
def test_validate_seed_reports_malformed_structure(raw, fragment):
    report = validate_seed(raw)
    assert report.character is None
    assert any(fragment in p for p in report.problems)


@pytest.mark.parametrize("base, strings, fragment", [
    ((0, 0, 0), {}, "dimension mismatch"),
    ((0, 0), {(0,): series((0, 1))}, "integer grid vectors"),
    ((0, 0), {(Q(1, 2), 0): series((0, 1))}, "integer grid vectors"),
], ids=["base-length", "offset-length", "fractional-offset"])
def test_affine_character_refuses_malformed_data(base, strings, fragment):
    with pytest.raises(ValueError, match=fragment):
        affine_character(build_root_system("A", 2), 1, base, strings)


def _entry(offset, *terms, **extra):
    """A string entry with (exp, coef) terms and min_exp "0" unless extra
    overrides or (with a value of ...) drops a key."""
    raw = {"weight_offset": offset,
           "terms": [{"exp": e, "coef": c} for e, c in terms], "min_exp": "0"}
    raw.update(extra)
    return {key: value for key, value in raw.items() if value is not ...}


_GOOD = _entry([0], ("0", "1"))
# seeds that reach every message the reader can emit: the missing fields
# (all reported), each header failure (only the first reported, even beside
# a later bad field), each string-entry failure (one per entry, even beside
# a later bad part of it), and several bad strings in one seed
MALFORMED_SEEDS = [
    5, [seed_dict()], {},
    {key: v for key, v in seed_dict().items() if key not in ("level", "strings")},
    seed_dict(rank=True), seed_dict(rank="1", level="0"),
    seed_dict(type="Z"), seed_dict(type=5), seed_dict(rank=0), seed_dict(rank=-1),
    seed_dict(level=0.5), seed_dict(level="0"), seed_dict(level="-2"),
    seed_dict(level="1e999999"), seed_dict(level="3/0", base_weight=[0.5]),
    seed_dict(base_weight=["0", "0"]), seed_dict(base_weight="0"),
    seed_dict(base_weight=[0.5]), seed_dict(base_weight=[0.5], strings=5),
    seed_dict(strings={"0": 1}), seed_dict(strings=None),
    seed_dict(strings=[5, None, "x", [_GOOD]]),
    seed_dict(strings=[_entry([0, 0], ("0", "1")), _entry(None, ("0", "1")),
                       _entry(..., ("0", "1")), _entry(0, ("0", "1"))]),
    seed_dict(strings=[_entry(["x"], ("0", "1")), _entry([True], ("0", "1")),
                       _entry(["1/2"], ("0", "1")), _entry([0.5], ("0", "1")),
                       _entry(["1/2"], ("x", "0"))]),
    seed_dict(strings=[_GOOD, _entry(["0"], ("1", "1"), min_exp="1"),
                       _entry(["2/2"], ("0", "1")), _entry([1], ("0", "1"))]),
    # a duplicate only of a rejected entry is no duplicate
    seed_dict(strings=[_entry([0], ("0", "0")), _GOOD]),
    seed_dict(strings=[_entry([0]), _entry([1], terms=...), _entry([2], terms=0),
                       _entry([3], terms=None), _entry([4], terms=""),
                       _entry([5], terms={})]),
    seed_dict(strings=[_entry([0], terms=5), _entry([1], terms={"0": "1"}),
                       _entry([2], terms="x"), _entry([3], terms=True)]),
    seed_dict(strings=[_entry([0], terms=[{"exp": "0"}]),
                       _entry([1], terms=[{"coef": "1"}]),
                       _entry([2], terms=[5]), _entry([3], terms=[None]),
                       _entry([4], ("x", "1")), _entry([5], ("0", 0.5)),
                       _entry([6], ("0", "1"), ("1", "1/0")),
                       _entry([7], (True, "1"))]),
    seed_dict(strings=[_entry([0], ("1", "1"), ("2/2", "2"), min_exp="1"),
                       _entry([1], ("0", "1"), ("0", "0")),
                       _entry([2], ("0", "0"), min_exp=...),
                       _entry([3], ("0", "0"), ("x", "1")),
                       _entry([4], ("-1/3", "0"), ("-1/3", "1"))]),
    seed_dict(strings=[_entry([0], ("0", "1"), min_exp=...),
                       _entry([1], ("0", "1"), min_exp=None),
                       _entry([2], ("0", "1"), min_exp=0.5),
                       _entry([3], ("0", "1"), min_exp="1/0"),
                       _entry([4], ("0", "1"), min_exp=[]),
                       _entry([5], ("1", "1"), ("2", "1")),
                       _entry([6], ("1/2", "1"), ("-1", "3"), min_exp="1/2")]),
    seed_dict(strings=[_GOOD, 5, _entry([1], terms=[]), _entry(["1/2"], ("0", "1")),
                       _entry([2], ("0", "0")), _entry([3], ("1", "1")),
                       _entry([4], ("0", "1"))]),
]
SEED_MESSAGES = (
    "seed is not a JSON object", "missing field: ", "bad root system: rank is not",
    "bad root system: unknown family", "bad root system: rank out of range",
    "bad level: not an exact", "bad level: level is zero",
    "bad level: level is the critical", "bad level: too large",
    "base weight has the wrong length", "bad base weight: ", "strings is not a list",
    "string entry is not an object: ", "weight offset has the wrong length: ",
    "bad weight offset ", "weight offset is not in the root lattice: ",
    "duplicate weight offset: ", "string has no terms: ", "terms is not a list in string ",
    "bad term in string ", "duplicate exponent ", "zero coefficient at ",
    "no minimum exponent declared: ", "bad minimum exponent in string ",
    "declared minimum exponent ",
)
SEED_MESSAGES_SHA256 = "d081bf268ca43ce3ae75484a72e6e6c06468218c842f6243c3f9863cdc4ec2c1"


def seed_messages_digest():
    """The SHA-256 of the problems of every malformed seed, as one JSON list
    of lists; and the count of problems."""
    problems = []
    for raw in MALFORMED_SEEDS:
        report = validate_seed(raw)
        assert report.character is None and report.problems
        problems.append(report.problems)
    text = json.dumps(problems)
    assert all(message in text for message in SEED_MESSAGES)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), sum(map(len, problems))


def test_seed_messages_digest():
    assert seed_messages_digest() == (SEED_MESSAGES_SHA256, 77)


def test_seed_json_round_trip():
    report = validate_seed(seed_dict())
    emitted = character_to_json(report.character)
    again = validate_seed(emitted)
    assert not again.problems
    for off, s in report.character.strings.items():
        assert again.character.strings[off].items() == s.items()
    assert emitted["strings"][0]["validity_order"] is None


def test_coset_character_json_reads_the_j_values():
    # a transported character renders its base by the weight's J values
    rs = build_root_system("A", 2)
    out = fermionize_character(delta_seed(rs, 1), (1, 0), 3)
    emitted = character_to_json(out)
    assert emitted["side"] == "sc"
    assert emitted["base_weight"] == [str(x) for x in out.base.j_values]
    assert len(emitted["base_weight"]) == rs.num_positive
    assert emitted["strings"][0]["validity_order"] == "3"
    assert [s["weight_offset"] for s in emitted["strings"]] == sorted(map(list, out.strings))


# ---------------------------------------------------------------- transport

def test_fermionize_delta_trivial_A1():
    rs = build_root_system("A", 1)
    out = fermionize_character(delta_seed(rs, 1), (0,), 10)
    assert out.side == "sc"
    assert set(out.strings) == {(0,)}
    assert out.strings[(0,)].items() == ((0, 1),)
    assert out.base.j_values == (Q(0),)


def test_fermionize_string_at_simple_root_A1():
    rs = build_root_system("A", 1)
    seed = affine_character(rs, 1, (0,), {(1,): series((0, 1))})
    out = fermionize_character(seed, (0,), 10)
    assert set(out.strings) == {(1,)}
    assert out.strings[(1,)].items() == ((Q(1, 2), 1),)
    # the offset grid is the dual-value grid of the plus embedding
    assert g_sc_plus(rs, 1, f_af(rs, (1,), "+")).jstar_values(rs) == (Q(1),)


def test_fermionize_reference_shift_A1():
    # transporting the delta seed at reference alpha lands at offset -1
    # with exponent 1/2 - 1/3 = 1/6
    rs = build_root_system("A", 1)
    out = fermionize_character(delta_seed(rs, 1), (1,), 10)
    assert set(out.strings) == {(-1,)}
    assert out.strings[(-1,)].items() == ((Q(1, 6), 1),)


def test_fermionize_A2_kernel_ball():
    rs = build_root_system("A", 2)
    out = fermionize_character(delta_seed(rs, 1), (0, 0), 3)
    kernel = kernel_K(rs)
    xi = kernel.embed((1,))
    assert set(out.strings) == {(0, 0, 0), xi,
                                tuple(-x for x in xi)}
    # the stationary string is the eta inverse: partition coefficients
    s = out.strings[(0, 0, 0)]
    assert [s.coefficient(Q(-1, 24) + n) for n in range(4)] == [1, 1, 2, 3]
    # kernel vectors of norm 3 enter at exponent 3/2 - 1/24
    lead = out.strings[xi].min_exponent
    assert lead == Q(3, 2) - Q(1, 24)
    assert out.strings[xi].coefficient(lead) == 1


def test_fermionize_keeps_every_enumerated_vector(monkeypatch):
    # the kernel coset is enumerated exactly: each vector the enumeration
    # returns is one coset-side string, none is filtered away
    real = charflow.enumerate_by_norm
    returned = []

    def counted(*args):
        vectors = real(*args)
        returned.extend(vectors)
        return vectors

    monkeypatch.setattr(charflow, "enumerate_by_norm", counted)
    rs = build_root_system("B", 2)
    seed = affine_character(rs, 1, (0, 0), {(0, 0): series((0, 1), (1, -2)),
                                            (0, 1): series((Q(1, 2), 2))})
    out = fermionize_character(seed, (0, 0), 6)
    assert len(returned) == len(out.strings) == 26


def test_fermionize_empty_coset_ball_gives_empty_character():
    # A2, one string at offset (0,1): xi0 = (0,1,0), K = Z(-1,-1,1), the
    # centre -1/3 is no lattice point and the ball of squared radius 1/12
    # holds no vector, so nothing reaches order 1/3
    rs = build_root_system("A", 2)
    seed = affine_character(rs, 1, (0, 0), {(0, 1): series((0, 1))})
    out = fermionize_character(seed, (0, 0), Q(1, 3))
    assert out.strings == {}
    report = roundtrip_check(seed, (0, 0), Q(1, 3))
    assert report.ok
    assert report == {(0, 1): (Q(-1, 8), ())}


@settings(max_examples=120, deadline=None)
@given(small_series, st.builds(Q, st.integers(-12, 12), st.integers(1, 4)),
       st.lists(st.builds(Q, st.integers(-12, 12), st.integers(1, 6)),
                min_size=1, max_size=4),
       st.integers(0, 3))
@example(series((0, 1), (1, -2)), Q(3), [Q(2), Q(5, 2)], 1)
@example(series((0, 1), (1, -2), validity=Q(3, 2)), Q(3), [Q(2)], 1)
def test_sliced_transport_matches_shift_then_truncate(s, T, shifts, pin):
    # with no eta factor, _transport keeps q^sh * s up to T for each vector;
    # the first shift puts a term of s exactly at T - sh when s has one
    terms = s.items()
    if terms:
        shifts[0] = T - terms[pin % len(terms)][0]
    # shift numerators over sd, s on the transport grid of s, sd, T and 24
    sd = lcm(*(sh.denominator for sh in shifts))
    grid = lcm(24, s.den, sd, T.denominator)
    s = QSeries(grid, *s._on(grid))
    vecs = [((i,), int(sh * sd)) for i, sh in enumerate(shifts)]
    out = charflow._transport([(s, vecs)], 0, T, sd)
    for (key, _), sh in zip(vecs, shifts):
        want = s.shift(sh).truncate(T)
        assert out[key].terms == want.terms
        assert out[key].validity == want.validity


def test_fermionize_rejects_bad_reference():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match="coset"):
        fermionize_character(delta_seed(rs, 1), (Q(1, 2), 0), 3)
    sc = fermionize_character(delta_seed(rs, 1), (0, 0), 3)
    with pytest.raises(ValueError, match="affine side"):
        fermionize_character(sc, (0, 0), 3)


def test_defermionize_inverts_fermionize_exactly_A1():
    rs = build_root_system("A", 1)
    seed = affine_character(rs, 1, (0,), {
        (0,): series((0, 1)),
        (1,): series((0, 2), (1, -1)),
    })
    sc = fermionize_character(seed, (0,), 12)
    back = defermionize_character(sc, weight_to_sc(rs, 1, (0,)), 12)
    assert back.side == "af"
    for off, s in seed.strings.items():
        assert back.strings[off].items() == s.items()


def test_defermionize_rejects_wrong_side_and_coset():
    rs = build_root_system("A", 1)
    seed = delta_seed(rs, 1)
    with pytest.raises(ValueError, match="coset side"):
        defermionize_character(seed, weight_to_sc(rs, 1, (0,)), 5)
    sc = fermionize_character(seed, (0,), 5)
    off_grid = make_sc_weight(rs, 1, (Q(1, 2),))
    with pytest.raises(ValueError, match="coset"):
        defermionize_character(sc, off_grid, 5)


def test_roundtrip_zero_character():
    rs = build_root_system("B", 2)
    empty = affine_character(rs, 2, (0, 0), {})
    verdict = roundtrip_check(empty, (0, 0), 6)
    assert verdict.ok
    assert verdict == {}


def test_roundtrip_randomized_seeds_A1():
    rs = build_root_system("A", 1)
    rng = random.Random(20240817)
    for _ in range(10):
        strings = {}
        for off in range(-2, 3):
            if rng.random() < 0.4:
                continue
            terms = [(n, rng.randint(-3, 3)) for n in range(3)]
            terms = [(e, c) for e, c in terms if c]
            if terms:
                strings[(off,)] = series(*terms)
        ch = affine_character(rs, 1, (0,), strings)
        verdict = roundtrip_check(ch, (0,), 10)
        assert verdict.ok, verdict


def test_roundtrip_delta_at_simple_root_A2():
    rs = build_root_system("A", 2)
    ch = affine_character(rs, 2, (0, 0), {(1, 0): series((0, 1))})
    verdict = roundtrip_check(ch, (0, 0), 8)
    assert verdict.ok, verdict
    assert all(not d for _, d in verdict.values())


# ---------------------------------------------------------------- lemma

def test_cflemma_singleton_at_simple_root_A1():
    rs = build_root_system("A", 1)
    seed = validate_seed(seed_dict()).character
    report = cflemma_check((1,), seed, (0,), 6, 8)
    assert report.ok
    assert report.members == (((1,), (1,)),)


def test_cflemma_trivial_at_zero():
    rs = build_root_system("A", 1)
    seed = validate_seed(seed_dict()).character
    report = cflemma_check((0,), seed, (0,), 6, 4)
    assert report.ok
    assert report.members == (((0,), (0,)),)


def test_cflemma_highest_root_A2_random_seed():
    rs = build_root_system("A", 2)
    rng = random.Random(7)
    strings = {}
    for off in [(0, 0), (1, 1), (1, 0), (0, 1), (2, 1)]:
        terms = [(n, rng.randint(1, 4)) for n in range(3)]
        strings[off] = series(*terms)
    seed = affine_character(rs, 1, (0, 0), strings)
    report = cflemma_check((1, 1), seed, (0, 0), 6, 10)
    assert report.ok
    assert report.members == (((1, 1, 0), (1, 1)),)
    assert not report.diff


def test_cflemma_refuses_uncertified_bound():
    rs = build_root_system("A", 2)
    seed = delta_seed(rs, 1)
    with pytest.raises(ValueError, match="cannot certify"):
        cflemma_check((1, 1), seed, (0, 0), 6, 1)


def test_cflemma_all_small_heights_B2():
    rs = build_root_system("B", 2)
    seed = delta_seed(rs, 2)
    for gamma in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 0), (3, 0)]:
        report = cflemma_check(gamma, seed, (0, 0), 5, 20)
        assert report.ok, gamma


# ---------------------------------------------------------------- flow

def test_flow_sc_zero_is_identity():
    rs = build_root_system("A", 2)
    sc = fermionize_character(delta_seed(rs, 1), (0, 0), 4)
    flowed = spectral_flow_sc(sc, (0, 0))
    assert flowed.base.j_values == sc.base.j_values
    assert set(flowed.strings) == set(sc.strings)
    for off, s in sc.strings.items():
        assert flowed.strings[off].items() == s.items()


def test_flow_sc_equivariance_A1_frozen_example():
    rs = build_root_system("A", 1)
    seed = delta_seed(rs, 1)
    diffs = flow_sc_equivariance_diff(seed, (1,), (1,), 8)
    assert_no_diffs(diffs)
    # the same comparison, spelled out at the matching absolute weight
    left = fermionize_character(seed, (0,), 8)
    right = spectral_flow_sc(fermionize_character(seed, (1,), 8), (1,))
    sup = character_support(right)
    assert sup[(Q(0),)].items()[0] == (0, 1)
    assert left.strings[(0,)].items()[0] == (0, 1)


def test_flow_sc_composition_additive_A2():
    rs = build_root_system("A", 2)
    sc = fermionize_character(delta_seed(rs, 1), (0, 0), 5)
    one = spectral_flow_sc(spectral_flow_sc(sc, (1, 0)), (0, 1))
    both = spectral_flow_sc(sc, (1, 1))
    assert one.base.j_values == both.base.j_values
    for off, s in both.strings.items():
        assert one.strings[off].items() == s.items()


def test_flow_sc_rejects_non_lattice_gamma():
    rs = build_root_system("A", 1)
    sc = fermionize_character(delta_seed(rs, 1), (0,), 4)
    with pytest.raises(ValueError, match="root lattice"):
        spectral_flow_sc(sc, (Q(1, 2),))


def test_flow_af_zero_is_identity():
    rs = build_root_system("A", 1)
    ch = delta_seed(rs, 1)
    gamma = make_sc_weight(rs, 1, (0,))
    flowed = spectral_flow_af(ch, gamma)
    assert flowed.base == ch.base
    assert flowed.strings[(0,)].items() == ch.strings[(0,)].items()


def test_flow_af_equivariance_A1_frozen_example():
    rs = build_root_system("A", 1)
    sc = fermionize_character(delta_seed(rs, 1), (0,), 8)
    gamma = g_sc_plus(rs, 1, f_af(rs, (1,), "+"))
    diffs = flow_af_equivariance_diff(sc, weight_to_sc(rs, 1, (0,)),
                                      gamma, 8)
    assert_no_diffs(diffs)
    # hand values: the flowed side carries weight 1/2 with exponent 1/4
    right = spectral_flow_af(
        defermionize_character(sc, weight_to_sc(rs, 1, (0,)), 8), gamma)
    sup = character_support(right)
    assert sup[(Q(1, 2),)].items()[0] == (Q(1, 4), 1)


def test_flow_af_composition_additive_A2():
    rs = build_root_system("A", 2)
    ch = affine_character(rs, 2, (0, 0), {
        (0, 0): series((0, 1)),
        (1, 0): series((0, 1), (1, 1)),
    })
    g1 = g_sc_plus(rs, 2, f_af(rs, (1, 0), "+"))
    g2 = g_sc_plus(rs, 2, f_af(rs, (0, 1), "+"))
    one = spectral_flow_af(spectral_flow_af(ch, g1), g2)
    both = spectral_flow_af(ch, g1 + g2)
    assert one.base == both.base
    for off, s in both.strings.items():
        assert one.strings[off].items() == s.items()


def test_flow_af_rejects_fractional_dual_values():
    rs = build_root_system("A", 1)
    ch = delta_seed(rs, 1)
    gamma = sc_weight_from_jstar(rs, 1, (Q(1, 2),))
    with pytest.raises(ValueError, match="coset root lattice"):
        spectral_flow_af(ch, gamma)


def test_flow_af_frame_A2():
    rs = build_root_system("A", 2)
    gamma = g_sc_plus(rs, 1, (0, 0, 1))  # dual values pick out the long root
    frame = spectral_flow_af_frame(rs, 1, gamma)
    assert frame.xi == (-1, -1, 1)
    assert frame.zeta == (1, 1)
    assert len(frame.h_coefficients) == 3
    zero = spectral_flow_af_frame(rs, 1, g_sc_plus(rs, 1, (0, 0, 0)))
    assert zero.xi == (0, 0, 0) and zero.zeta == (0, 0)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2)])
def test_flow_equivariance_grid_k1(family, rank):
    rs = build_root_system(family, rank)
    seed = delta_seed(rs, 1)
    simples = [tuple(1 if j == i else 0 for j in range(rank))
               for i in range(rank)]
    gammas = list(simples)
    for i in range(rank):
        for j in range(i, rank):
            gammas.append(tuple(a + b for a, b in zip(simples[i], simples[j])))
    for gamma in gammas:
        assert_no_diffs(flow_sc_equivariance_diff(seed, gamma, gamma, 6))
        sc = fermionize_character(seed, (0,) * rank, 6)
        gw = g_sc_plus(rs, 1, f_af(rs, gamma, "+"))
        diffs = flow_af_equivariance_diff(
            sc, weight_to_sc(rs, 1, (0,) * rank), gw, 6)
        assert_no_diffs(diffs)


def test_validity_is_never_optimistic_on_recompute():
    rs = build_root_system("A", 2)
    seed = delta_seed(rs, 1)
    low = fermionize_character(seed, (0, 0), 4)
    high = fermionize_character(seed, (0, 0), 7)
    for off, s in low.strings.items():
        other = high.strings[off]
        for e, c in s.items():
            assert other.coefficient(e) == c


# ------------------------------------------------- weight-keyed comparison

def reference_compare(left, right):
    """_compare_supports spelled out on Fraction weight keys: a weight
    missing from a character is its exact zero off the character's grid,
    else zero up to its floor at the weight's offset."""
    def at(ch, sup, key):
        if key in sup:
            return sup[key]
        base = vec(ch.base) if ch.side == "af" else ch.base.jstar_values(ch.rs)
        off = integer_vector((w - b for w, b in zip(key, base)), None)
        return QSeries.from_terms((), None if off is None else ch.floor(off))

    lsup, rsup = character_support(left), character_support(right)
    return {key: qseries_diff(at(left, lsup, key), at(right, rsup, key))
            for key in sorted(set(lsup) | set(rsup))}


def compare_against_reference(compare, left, right):
    diffs = compare(left, right)
    assert {tuple(Q(x, diffs.den) for x in key): d
            for key, d in diffs.items()} == reference_compare(left, right)
    # the report renders the weights in this order without sorting
    assert list(diffs) == sorted(diffs)
    return diffs


BASES_B2 = [(0, 0), (Q(1, 2), 0), (Q(1, 3), Q(-1, 2)), (Q(-3, 4), 2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BASES_B2), st.sampled_from(BASES_B2),
       st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       small_series, max_size=5),
       st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       small_series, max_size=5))
def test_integer_key_comparison_matches_fraction_keys(lbase, rbase, lstrings,
                                                     rstrings):
    # bases of different denominators interleave the two supports, and most
    # keys are then present on one side only; the floors read the offset
    rs = build_root_system("B", 2)
    left = dataclasses.replace(affine_character(rs, 1, lbase, lstrings),
                               floor=lambda off: sum(off))
    right = dataclasses.replace(affine_character(rs, 1, rbase, rstrings),
                                floor=lambda off: None if off[0] < 0 else off[1])
    compare_against_reference(charflow._compare_supports, left, right)


def test_a_weight_off_the_grid_is_exactly_zero():
    # the bases differ by half a simple root, so no left weight is on the
    # right grid: the right floor is never asked, and an exact zero on the
    # left compares exactly
    rs = build_root_system("B", 2)
    zero = QSeries.from_terms(())
    left = affine_character(rs, 1, (0, 0), {(0, 0): zero, (1, -1): zero})
    right = dataclasses.replace(
        affine_character(rs, 1, (Q(1, 2), 0), {(0, 0): zero}),
        floor=lambda off: 3)
    diffs = charflow._compare_supports(left, right)
    left_only = [tuple(diffs.den * o for o in off) for off in left.strings]
    assert [diffs[num] for num in left_only] == [(None, ())] * 2


def test_integer_key_comparison_on_the_verdicts(monkeypatch):
    # every comparison the three verdicts make, against the Fraction-keyed
    # reference: an af-side flow at the half-integral weight 3/2, a round trip
    # at a half-integral base, one at an order that drops a string (a key on
    # one side only), and a B3 coset-side flow (denominator 6, 47 one-sided
    # keys)
    real = charflow._compare_supports
    seen = []

    def checked(left, right):
        seen.append(len(character_support(left).keys()
                        ^ character_support(right).keys()))
        return compare_against_reference(real, left, right)

    monkeypatch.setattr(charflow, "_compare_supports", checked)
    a1 = build_root_system("A", 1)
    sc = fermionize_character(delta_seed(a1, 1), (0,), 8)
    flow_af_equivariance_diff(sc, weight_to_sc(a1, 1, (0,)),
                              g_sc_plus(a1, 1, f_af(a1, (1,), "+")), 8)
    seeds = Path(__file__).parent / "golden" / "seeds"
    b2 = validate_seed(json.loads((seeds / "B2.json").read_text())).character
    rs = build_root_system("B", 2)
    half = affine_character(rs, 1, (Q(1, 2), 0), b2.strings)
    assert roundtrip_check(half, (Q(3, 2), 0), 6).ok
    assert roundtrip_check(b2, (0, 0), Q(1, 4)).ok
    # the off-coset golden request refuses before any comparison
    with pytest.raises(ValueError, match="not in the coset"):
        roundtrip_check(b2, (Q(1, 2), 0), 6)
    b3 = validate_seed(json.loads((seeds / "B3.json").read_text())).character
    assert_no_diffs(flow_sc_equivariance_diff(b3, b3.base, (0, 1, 0), 2))
    assert seen == [0, 0, 1, 47]


# ------------------------------------------------------- floors under flows

FLOOR_SEEDS = ("A2", "A3", "B2", "B2-k3_2", "B2-k-1_2", "B2-k2", "G2",
               "G2-k3_2", "G2-k-1_2", "G2-k2")


def flowed_floors(ch, flow):
    """(floor, validity) per string of ch: with the string dropped and its
    validity put as the floor at its offset (exact zero elsewhere), the
    floor the flow gives the offset the string moves to; and the validity
    of the flowed string."""
    flowed = flow(ch).strings
    out = []
    for off, s in ch.strings.items():
        dropped = dataclasses.replace(
            ch, strings={o: t for o, t in ch.strings.items() if o != off},
            floor=lambda o, off=off, v=s.validity: v if o == off else None)
        moved = flow(dropped)
        (image,) = flowed.keys() - moved.strings.keys()
        out.append((moved.floor(image), flowed[image].validity))
    return out


def floors_under_flows():
    """flowed_floors for both flows, by the first simple root on the coset
    side and the last one on the affine side, of each seed transported to
    order 3 and back."""
    seeds = Path(__file__).parent / "golden" / "seeds"
    out = []
    for name in FLOOR_SEEDS:
        raw = json.loads((seeds / f"{name}.json").read_text(encoding="utf-8"))
        ch = validate_seed(raw).character
        rs, k = ch.rs, ch.level
        sc = fermionize_character(ch, ch.base, 3)
        af = defermionize_character(sc, sc.base, 3)
        first = (1,) + (0,) * (rs.rank - 1)
        gamma = g_sc_plus(rs, k, f_af(rs, first[::-1], "+"))
        out += flowed_floors(sc, lambda c: spectral_flow_sc(c, first))
        out += flowed_floors(af, lambda c: spectral_flow_af(c, gamma))
    return out


def test_flows_move_the_floor_with_the_strings():
    # a transported string certifies its weight up to its validity, and a
    # missing one up to the floor: the flow must shift both alike
    pairs = floors_under_flows()
    assert len(pairs) == 308
    assert all(floor == validity for floor, validity in pairs)
    assert all(validity is not None for _, validity in pairs)
