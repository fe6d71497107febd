"""Request lists for the benchmark sweeps, generated from a workload seed.

Each workload is a fixed list of CLI requests.  The seed draws every level,
weight, gamma and seed-file coefficient, but never the shape of the list:
which commands run on which types, and how many, is the same for every
seed, so two seeds cost about the same and a run's spread is mostly noise.

Every request carries the outcome the oracle expects, taken from closed
forms that do not go through the code under test (see ``oracle.py``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# Standard tables for the finite simple types, independent of cosetlab.
DUAL_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1,
                "C": lambda n: n + 1, "D": lambda n: 2 * n - 2,
                "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
                "F": lambda n: 9, "G": lambda n: 4}
NUM_POSITIVE = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
                "F": lambda n: 24, "G": lambda n: 6}
# det of the coroot Gram matrix with long roots of norm 2: det(Cartan)
# times r for each short simple root, where r is the ratio of squared
# root lengths.
COROOT_DET = {"A": lambda n: n + 1, "B": lambda n: 4, "C": lambda n: 2 ** n,
              "D": lambda n: 4, "E": lambda n: 9 - n, "F": lambda n: 4,
              "G": lambda n: 3}

ALGEBRA_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                 ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)]
OPE_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)]
# Truncation order per type, sized so no single request dominates a pass.
CHAR_TYPES = [("A", 2, 10), ("B", 2, 10), ("G", 2, 8), ("A", 3, 8),
              ("B", 3, 6)]

# Admissible levels: nonzero, never a negative integer, so never -h_vee.
# Values that may start with "-" are passed as --flag=value, because
# argparse reads "--level -1/3" as two flags.
LEVEL_POOL = ["1", "2", "3", "1/2", "5/3", "-1/3", "7/2", "4/3", "-5/2"]
INT_LEVEL_POOL = ["1", "2", "3", "4"]


@dataclass(frozen=True)
class Request:
    """One CLI call and the outcome the oracle requires of it."""

    argv: Tuple[str, ...]
    expect_rc: int
    expect: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# Candidate tail percentiles, as fractions.
PERCENTILES = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Tuple[Request, ...]
    min_passes: int

    @property
    def tail_percentile(self) -> float:
        """Highest candidate percentile with at least ten samples beyond it
        when the run makes its minimum number of passes.  Fixed per
        workload, so every run of it reports the same percentile.

        The request counts (95, 13 and 17) are chosen so that this
        percentile and the median fall inside one request's group of
        samples, or between two groups of the same command and type (the
        F4 ``forms verify`` levels in algebra-sweep), never between two
        requests of different cost.
        """
        n = len(self.requests) * self.min_passes
        return max(p for p in PERCENTILES if (1 - p) * n >= 10)


def _type_facts(family: str, rank: int) -> Dict[str, object]:
    return {"type": family, "rank": rank,
            "dual_coxeter": DUAL_COXETER[family](rank),
            "num_positive": NUM_POSITIVE[family](rank)}


def _rs_flags(family: str, rank: int) -> List[str]:
    return ["--type", family, "--rank", str(rank)]


def _disc_order(family: str, rank: int, lattice: str, level: int) -> int:
    h = DUAL_COXETER[family](rank)
    if lattice == "qsc-dual":
        return (1 + h) ** rank
    if lattice == "l-minus":
        return 1
    # e-plus and e-minus: (k + h_vee) times the coroot lattice, the
    # e-minus tail being unimodular
    return (level + h) ** rank * COROOT_DET[family](rank)


def _disc_signature(family: str, rank: int, lattice: str) -> str:
    if lattice == "e-minus":
        tail = NUM_POSITIVE[family](rank) - rank
        return "indefinite" if tail else "negative"
    return {"qsc-dual": "positive", "e-plus": "positive",
            "l-minus": "negative"}[lattice]


def _disc_request(family: str, rank: int, lattice: str, level: int,
                  expect_divisors: Optional[str] = None) -> Request:
    argv = ["lattice", "disc", "--lattice", lattice] + _rs_flags(family, rank)
    if lattice in ("e-plus", "e-minus"):
        argv.append(f"--level={level}")
    expect = dict(_type_facts(family, rank),
                  group_order=_disc_order(family, rank, lattice, level),
                  signature=_disc_signature(family, rank, lattice), ok=True)
    rc = 0
    if expect_divisors is not None:
        argv += ["--expect", expect_divisors]
        expect["expected_divisors"] = [int(x) for x in
                                       expect_divisors.split(",")]
        expect["ok"] = _qsc_divisors(family, rank) == \
            expect["expected_divisors"]
        rc = 0 if expect["ok"] else 1
    return Request(tuple(argv + ["--format", "json"]), rc, expect)


def _qsc_divisors(family: str, rank: int) -> List[int]:
    # Z_(1+h)^rank: the Smith form of the qsc-dual Gram has rank equal
    # divisors 1 + h_vee (criterion 04 of the acceptance suite).
    return [1 + DUAL_COXETER[family](rank)] * rank


def _weight(rng: random.Random, rank: int) -> str:
    return ",".join(str(Q(rng.randint(-2, 2), rng.choice((1, 2))))
                    for _ in range(rank))


def algebra_sweep(rng: random.Random) -> List[Request]:
    reqs: List[Request] = []
    for family, rank in ALGEBRA_TYPES:
        facts = _type_facts(family, rank)
        reqs.append(Request(("rootsys", "info", *_rs_flags(family, rank),
                             "--format", "json"), 0, facts))
        n_levels = 1 if family == "E" else 3
        for level in rng.sample(LEVEL_POOL, n_levels):
            reqs.append(Request(("forms", "verify", *_rs_flags(family, rank),
                                 f"--level={level}", "--format", "json"),
                                0, dict(facts, level=level)))
        level = rng.choice(LEVEL_POOL)
        reqs.append(Request(("weights", "map", *_rs_flags(family, rank),
                             f"--level={level}",
                             f"--weight={_weight(rng, rank)}",
                             "--format", "json"), 0, dict(facts, level=level)))
        for lattice in ("e-plus", "e-minus", "l-minus"):
            reqs.append(_disc_request(family, rank, lattice,
                                      int(rng.choice(INT_LEVEL_POOL))))
        if family in "ADE":
            reqs.append(_disc_request(family, rank, "qsc-dual", 0))
    # known outcomes: the right divisors pass, wrong ones exit 1, and the
    # critical level is refused with exit 2
    family, rank = rng.choice([("A", 1), ("A", 2), ("A", 3)])
    right = ",".join(str(d) for d in _qsc_divisors(family, rank))
    reqs.append(_disc_request(family, rank, "qsc-dual", 0, right))
    wrong = ",".join(str(d + 1) for d in _qsc_divisors(family, rank))
    reqs.append(_disc_request(family, rank, "qsc-dual", 0, wrong))
    family, rank = rng.choice(ALGEBRA_TYPES[:8])
    reqs.append(Request(("forms", "verify", *_rs_flags(family, rank),
                         f"--level=-{DUAL_COXETER[family](rank)}",
                         "--format", "json"), 2))
    return reqs


def ope_sweep(rng: random.Random) -> List[Request]:
    reqs: List[Request] = []
    for family, rank in OPE_TYPES:
        for level in rng.sample(LEVEL_POOL, 2):
            reqs.append(Request(("ope", "verify", "--check", "all",
                                 *_rs_flags(family, rank),
                                 f"--level={level}", "--format", "json"),
                                0, dict(_type_facts(family, rank),
                                        level=level)))
    family, rank = rng.choice(OPE_TYPES)
    reqs.append(Request(("ope", "verify", "--check", "all",
                         *_rs_flags(family, rank),
                         f"--level=-{DUAL_COXETER[family](rank)}",
                         "--format", "json"), 2))
    return reqs


def _simple_offsets(rank: int) -> List[Tuple[int, ...]]:
    return [tuple(1 if j == i else 0 for j in range(rank))
            for i in range(rank)]


def seed_dict(rng: random.Random, family: str, rank: int) -> dict:
    """Level-1 seed: one string at the base weight and a random simple
    root's string, with fixed exponents and seed-drawn coefficients."""
    coef = lambda: str(rng.choice((-3, -2, -1, 1, 2, 3)))  # noqa: E731
    offsets = [(0,) * rank, rng.choice(_simple_offsets(rank))]
    exps = [["0", "1", "2"], ["1/2", "3/2"]]
    strings = [{"weight_offset": list(off),
                "terms": [{"exp": e, "coef": coef()} for e in es],
                "min_exp": es[0]}
               for off, es in zip(offsets, exps)]
    return {"type": family, "rank": rank, "level": "1",
            "base_weight": ["0"] * rank, "strings": strings}


def char_sweep(rng: random.Random, workdir: Path) -> List[Request]:
    reqs: List[Request] = []
    for family, rank, T in CHAR_TYPES:
        path = workdir / f"seed-{family}{rank}.json"
        path.write_text(json.dumps(seed_dict(rng, family, rank)),
                        encoding="utf-8")
        facts = dict(_type_facts(family, rank), T=str(T))
        gamma_sc, gamma_af = (",".join(str(x) for x in rng.choice(
            _simple_offsets(rank))) for _ in range(2))
        reqs.append(Request(("char", "roundtrip", "--seed", str(path),
                             "--T", str(T), "--format", "json"), 0, facts))
        for side, gamma in (("sc", gamma_sc), ("af", gamma_af)):
            reqs.append(Request(("flow", "check", "--seed", str(path),
                                 "--side", side, f"--gamma={gamma}",
                                 "--T", str(T), "--format", "json"), 0,
                                dict(facts, side=side, gamma=gamma)))
    # known outcomes: a declared minimum exponent that the terms do not
    # attain, and a seed at the critical level; the validator refuses both
    family, rank = rng.choice([("A", 2), ("B", 2), ("G", 2)])
    bad = seed_dict(rng, family, rank)
    bad["strings"][0]["min_exp"] = "1"
    critical = seed_dict(rng, family, rank)
    critical["level"] = str(-DUAL_COXETER[family](rank))
    for name, raw in (("seed-bad-min-exp.json", bad),
                      ("seed-critical.json", critical)):
        path = workdir / name
        path.write_text(json.dumps(raw), encoding="utf-8")
        reqs.append(Request(("char", "roundtrip", "--seed", str(path),
                             "--T", "4", "--format", "json"), 2))
    return reqs


NAMES = ("algebra-sweep", "ope-sweep", "char-sweep")


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The request list of one workload; writes its seed files to workdir."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "algebra-sweep":
        wl = Workload(name, tuple(algebra_sweep(rng)), 3)
    elif name == "ope-sweep":
        wl = Workload(name, tuple(ope_sweep(rng)), 4)
    elif name == "char-sweep":
        wl = Workload(name, tuple(char_sweep(rng, workdir)), 3)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    # a repeated argv could be served from a cache that real sweeps miss
    if len({r.argv for r in wl.requests}) != len(wl.requests):
        raise ValueError(f"{name}: an argv repeats within a pass")
    return wl
