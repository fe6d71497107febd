"""Golden CLI corpus: every case's exit code, stdout and stderr, byte for byte.

The corpus lives in ``tests/golden`` and is written by
``tests/golden/regen.py``; a refactor that changes any output byte fails
here.  Regenerate only when an output change is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
import regen  # noqa: E402

CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_corpus_matches_case_table():
    assert [(c["name"], c["argv"]) for c in CASES] == \
        [(name, argv) for name, argv in regen.cases()]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output_is_byte_identical(case):
    rc, out, err = regen.run(case["argv"])
    assert rc == case["exit"]
    assert err == case["stderr"]
    expected = regen.output_file(case["name"], case["argv"])
    assert out == expected.read_text(encoding="utf-8")
