"""Regenerate the golden CLI corpus from whichever cosetlab is importable.

    PYTHONPATH=src python tests/golden/regen.py

Writes ``cases.json`` (name, argv, exit code per case) and one ``<name>.json``
file holding the exact ``--format json`` stdout of that case.  Run it only
when an output change is intended; ``tests/test_golden.py`` fails on any
byte that differs from the committed files.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from cosetlab.cli import main

HERE = Path(__file__).resolve().parent

# type, rank, weight for `weights map`, whether qsc-dual applies
TYPES = [
    ("A", 2, "1/2,-1", True),
    ("B", 3, "1,-1/2,1/2", False),
    ("C", 3, "-1/2,1,0", False),
    ("G", 2, "1/2,1", False),
    ("F", 4, "1,0,-1/2,1/2", False),
    ("D", 4, "1/2,0,-1,1", True),
    ("E", 6, "1,0,1/2,0,-1,1/2", True),
]
LEVELS = ("7/2", "-5/3")  # one positive and one negative fractional level


def cases():
    out = []
    for family, rank, weight, simply_laced in TYPES:
        tag = f"{family}{rank}"
        rs = ["--type", family, "--rank", str(rank)]
        out.append((f"rootsys-info-{tag}", ["rootsys", "info", *rs]))
        for level, sign in zip(LEVELS, ("pos", "neg")):
            out.append((f"forms-verify-{tag}-{sign}",
                        ["forms", "verify", *rs, f"--level={level}"]))
        out.append((f"weights-map-{tag}",
                    ["weights", "map", *rs, "--level=7/2",
                     f"--weight={weight}"]))
        lattices = [("l-plus", []), ("l-minus", []),
                    ("e-plus", ["--level=2"]), ("e-minus", ["--level=1"])]
        if simply_laced:
            lattices.append(("qsc-dual", []))
        for lattice, extra in lattices:
            out.append((f"lattice-disc-{lattice}-{tag}",
                        ["lattice", "disc", "--lattice", lattice, *rs,
                         *extra]))
    # both read gram_g_star: the dual generators and the coset-side weights
    out.append(("ope-verify-jalpha-A2",
                ["ope", "verify", "--check", "jalpha", "--type", "A",
                 "--rank", "2", "--level=3/2"]))
    out.append(("char-roundtrip-B2",
                ["char", "roundtrip", "--seed", "seeds/B2.json", "--T", "6"]))
    return [(name, argv + ["--format", "json"]) for name, argv in out]


def resolve(argv):
    """argv with seed paths made absolute against this directory."""
    return [str(HERE / a) if a.startswith("seeds/") else a for a in argv]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(resolve(argv))
    return rc, buf.getvalue()


if __name__ == "__main__":
    manifest = []
    for name, argv in cases():
        rc, out = run(argv)
        (HERE / f"{name}.json").write_text(out, encoding="utf-8")
        manifest.append({"name": name, "argv": argv, "exit": rc})
        print(rc, name)
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                     encoding="utf-8")
