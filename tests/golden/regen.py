"""Regenerate the golden CLI corpus from whichever cosetlab is importable.

    PYTHONPATH=src python tests/golden/regen.py

Writes ``cases.json`` (name, argv, exit code and stderr per case) and one
file per case holding its exact stdout: ``<name>.json`` for ``--format json``
and ``<name>.txt`` for the ``--format text`` twins.  Run it only when an
output change is intended; ``tests/test_golden.py`` fails on any byte that
differs from the committed files.
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
    # spectral flow on both sides, the second seed with an explicit weight
    for seed, sc_gamma, af_gamma, weight in (("B2", "0,1", "1,0", []),
                                             ("G2", "1,0", "0,1",
                                              ["--weight=1,0"])):
        for side, gamma in (("sc", sc_gamma), ("af", af_gamma)):
            out.append((f"flow-check-{side}-{seed}",
                        ["flow", "check", "--seed", f"seeds/{seed}.json",
                         "--side", side, f"--gamma={gamma}", "--T", "6",
                         *weight]))
    out.append(("char-roundtrip-G2",
                ["char", "roundtrip", "--seed", "seeds/G2.json", "--T", "6"]))
    # unusable requests: exit 2 with the reason on stderr
    out.append(("flow-check-fractional-gamma-B2",
                ["flow", "check", "--seed", "seeds/B2.json", "--side", "sc",
                 "--gamma=1/2,0", "--T", "6"]))
    out.append(("forms-verify-B2-critical",
                ["forms", "verify", "--type", "B", "--rank", "2",
                 "--level=-3"]))
    out.append(("char-roundtrip-B2-off-coset",
                ["char", "roundtrip", "--seed", "seeds/B2.json", "--T", "6",
                 "--weight=1/2,0"]))
    out.append(("lattice-disc-e-plus-no-level-A2",
                ["lattice", "disc", "--lattice", "e-plus", "--type", "A",
                 "--rank", "2"]))
    # a false statement: exit 1
    out.append(("lattice-disc-expect-fail-A2",
                ["lattice", "disc", "--lattice", "qsc-dual", "--type", "A",
                 "--rank", "2", "--expect", "3,3"]))
    json_cases = [(name, argv + ["--format", "json"]) for name, argv in out]
    text_cases = [(name + "-text", argv + ["--format", "text"])
                  for name, argv in out if name in TEXT_TWINS]
    return json_cases + text_cases


# one case per command, plus the exit-1 and exit-2 cases, in text mode too
TEXT_TWINS = ("rootsys-info-A2", "forms-verify-A2-pos", "weights-map-A2",
              "lattice-disc-qsc-dual-A2", "ope-verify-jalpha-A2",
              "char-roundtrip-B2", "flow-check-sc-B2", "flow-check-af-G2",
              "flow-check-fractional-gamma-B2", "forms-verify-B2-critical",
              "lattice-disc-expect-fail-A2")


def output_file(name, argv):
    """The file holding a case's stdout, named by its output format."""
    return HERE / (name + (".txt" if argv[-1] == "text" else ".json"))


def resolve(argv):
    """argv with seed paths made absolute against this directory."""
    return [str(HERE / a) if a.startswith("seeds/") else a for a in argv]


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(resolve(argv))
    return rc, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    manifest = []
    for name, argv in cases():
        rc, out, err = run(argv)
        output_file(name, argv).write_text(out, encoding="utf-8")
        manifest.append({"name": name, "argv": argv, "exit": rc,
                         "stderr": err})
        print(rc, name)
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                     encoding="utf-8")
