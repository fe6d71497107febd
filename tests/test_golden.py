"""Golden CLI corpus: every case's exit code, stdout and stderr, byte for byte.

The corpus lives in ``tests/golden`` and is written by
``tests/golden/regen.py``; a refactor that changes any output byte fails
here.  Regenerate only when an output change is intended.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

from cosetlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
import regen  # noqa: E402

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
