"""Golden CLI corpus: every case's exit code, stdout and stderr, byte for byte.

The corpus lives in ``tests/golden`` and is written by
``tests/golden/regen.py``; a refactor that changes any output byte fails
here.  Regenerate only when an output change is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from cosetlab import cli, opecalc
from cosetlab.rootsys import build_root_system

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
sys.path.insert(0, str(GOLDEN.parent))
import regen  # noqa: E402
from test_acceptance import TYPE_GRID  # noqa: E402
from test_mutations import VERIFIERS, _bump_gstar, _flip_cocycle  # noqa: E402

CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_corpus_matches_case_table():
    assert [(c["name"], c["argv"]) for c in CASES] == \
        [(name, argv) for name, argv in regen.cases()]


def _subcommands(parser):
    """(group, action) for every leaf command of the CLI parser."""
    for group, group_parser in _choices(parser).items():
        for action in _choices(group_parser):
            yield group, action


def _choices(parser):
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def test_corpus_covers_every_command_and_choice():
    parser = cli.build_parser()
    parsed = [parser.parse_args(regen.resolve(c["argv"])) for c in CASES]
    covered = {(a.group, a.action) for a in parsed}
    assert set(_subcommands(parser)) <= covered
    checks = {a.check for a in parsed if a.group == "ope"}
    assert {name for name, _ in cli._OPE_CHECKS} | {"all"} <= checks
    lattices = {a.lattice for a in parsed if a.group == "lattice"}
    assert {name for name, _ in cli._LATTICES} <= lattices


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output_is_byte_identical(case):
    rc, out, err = regen.run(case["argv"])
    assert rc == case["exit"]
    assert err == case["stderr"]
    expected = regen.output_file(case["name"], case["argv"])
    assert out == expected.read_text(encoding="utf-8")


# ope verify --check all on eight small types at four levels, in both
# formats: 64 outputs pinned by one SHA-256 over each call's exit code,
# stdout and stderr, so an engine change that moves any byte fails here
OPE_GRID_TYPES = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                  ("C", 3), ("G", 2))
OPE_GRID_LEVELS = ("1", "-1/3", "5/3", "7/2")
OPE_GRID_SHA256 = "f4987aec18365f88287c17959997d9a6aa406fdb22cbf5d890e8d451cbbe6c5f"


def ope_grid_digest():
    """The SHA-256 of the ope verify grid's outputs, each call hashed as
    its exit code, a newline, its stdout and its stderr; and the call count."""
    digest = hashlib.sha256()
    calls = 0
    for family, rank in OPE_GRID_TYPES:
        for level in OPE_GRID_LEVELS:
            for fmt in ("json", "text"):
                rc, out, err = regen.run(["ope", "verify", "--type", family,
                                          "--rank", str(rank), f"--level={level}",
                                          "--check", "all", "--format", fmt])
                digest.update(f"{rc}\n{out}{err}".encode("utf-8"))
                calls += 1
    return digest.hexdigest(), calls


def test_ope_verify_grid_digest():
    assert ope_grid_digest() == (OPE_GRID_SHA256, 64)


# forms verify on the acceptance type grid at the ope grid's levels, in both
# formats, and E7 and E8 at 5/2 in JSON: 82 outputs pinned by one SHA-256 in
# the form of the ope grid's, so every rendered Gram entry is covered
FORMS_GRID_LARGE = (("E", 7), ("E", 8))
FORMS_GRID_SHA256 = "a548fd9cb7ea525cc863f4b4ca5779f96305d721c514cf0362930983fe7447ee"


def forms_grid_argvs():
    for family, rank in TYPE_GRID:
        for level in OPE_GRID_LEVELS:
            for fmt in ("json", "text"):
                yield ["forms", "verify", "--type", family, "--rank", str(rank),
                       f"--level={level}", "--format", fmt]
    for family, rank in FORMS_GRID_LARGE:
        yield ["forms", "verify", "--type", family, "--rank", str(rank),
               "--level=5/2", "--format", "json"]


def forms_grid_digest():
    """The SHA-256 of the forms verify grid's outputs, hashed as the ope
    grid's; and the call count."""
    digest = hashlib.sha256()
    calls = 0
    for argv in forms_grid_argvs():
        rc, out, err = regen.run(argv)
        digest.update(f"{rc}\n{out}{err}".encode("utf-8"))
        calls += 1
    return digest.hexdigest(), calls


def test_forms_verify_grid_digest():
    assert forms_grid_digest() == (FORMS_GRID_SHA256, 82)


# the failing side of the same verifiers: the g* and cocycle mutants of
# test_mutations under jalpha, hminus and fst, on six types at three levels,
# so the rendering of every field in a diff is pinned, not only A2's
FAILING_OPE_TYPES = (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3))
FAILING_OPE_LEVELS = (1, Q(5, 3), Q(-1, 3))
FAILING_OPE_SHA256 = "cc7f708c3522fe3931578f2882407208c61060f081b7678e47afd62b81c28492"


def failing_ope_digest():
    """The SHA-256 of every mutant report, each hashed as its JSON dict
    dumped with sorted keys; and the count of diffs over all reports."""
    digest = hashlib.sha256()
    diffs = 0
    for family, rank in FAILING_OPE_TYPES:
        rs = build_root_system(family, rank)
        for level in FAILING_OPE_LEVELS:
            for mutate in (_bump_gstar, _flip_cocycle):
                for verify in VERIFIERS:
                    report = verify(mutate(opecalc.make_table(rs, level)))
                    digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode("utf-8"))
                    diffs += len(report.diffs)
    return digest.hexdigest(), diffs


def test_failing_ope_report_digest():
    assert failing_ope_digest() == (FAILING_OPE_SHA256, 1047)


# the character layer on five seeds (level 1, 3/2 and -1/2) at two orders,
# in both formats: the round trip at the base weight and at 1,0, and the
# flow on both sides at three gammas: 160 outputs pinned by one SHA-256 in
# the form of the ope grid's.  Some af-side flows here compare weights that
# only one side holds; two requests are vacuous and exit 2
CHAR_GRID_SEEDS = ("A2", "B2", "G2", "B2-k3_2", "G2-k-1_2")
CHAR_GRID_GAMMAS = ("1,0", "0,1", "2,1")
CHAR_GRID_SHA256 = "d7d14955b3545233f12ea4f6bb5f9dff680c82f50c1d1c15b16ceac414c2b25c"


def char_grid_argvs():
    for seed in CHAR_GRID_SEEDS:
        path = ["--seed", f"seeds/{seed}.json"]
        for T in ("2", "4"):
            for fmt in ("json", "text"):
                tail = ["--T", T, "--format", fmt]
                yield ["char", "roundtrip", *path, *tail]
                yield ["char", "roundtrip", *path, "--weight=1,0", *tail]
                for side in ("sc", "af"):
                    for gamma in CHAR_GRID_GAMMAS:
                        yield ["flow", "check", *path, "--side", side,
                               f"--gamma={gamma}", *tail]


def char_grid_digest():
    """The SHA-256 of the character grid's outputs, hashed as the ope
    grid's; the call count; and the count of calls per exit code."""
    digest = hashlib.sha256()
    exits = {}
    for argv in char_grid_argvs():
        rc, out, err = regen.run(argv)
        digest.update(f"{rc}\n{out}{err}".encode("utf-8"))
        exits[rc] = exits.get(rc, 0) + 1
    return digest.hexdigest(), sum(exits.values()), exits


def test_char_grid_digest():
    assert char_grid_digest() == (CHAR_GRID_SHA256, 160, {0: 158, 2: 2})


# --help of the top level, of the seven command groups and of the seven
# commands at an 80-column terminal: 15 outputs pinned by one SHA-256 in the
# form of the ope grid's, so a change to how the parser is declared cannot
# move a flag, a choice or a help string
HELP_COMMANDS = (("rootsys", "info"), ("forms", "verify"), ("weights", "map"),
                 ("lattice", "disc"), ("ope", "verify"), ("char", "roundtrip"),
                 ("flow", "check"))
HELP_SHA256 = "58873b42d357432bb76c947c3381fce5461548907ee00671b7c6822af892e8cb"


def help_argvs():
    yield ["--help"]
    for group, action in HELP_COMMANDS:
        yield [group, "--help"]
        yield [group, action, "--help"]


def help_digest():
    """The SHA-256 of every --help output, each call hashed as the ope
    grid's with argparse's SystemExit code as its exit code; and the call
    count."""
    digest = hashlib.sha256()
    calls = 0
    for argv in help_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as stop:
                cli.main(argv)
        digest.update(f"{stop.value.code}\n{out.getvalue()}{err.getvalue()}".encode("utf-8"))
        calls += 1
    return digest.hexdigest(), calls


def test_help_digest(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_digest() == (HELP_SHA256, 15)
