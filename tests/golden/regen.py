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
# the largest types: root data and the weight map only
LARGE_TYPES = [
    ("E", 7, "1,0,1/2,0,-1,1/2,0"),
    ("E", 8, "1,0,1/2,0,-1,1/2,0,-1/2"),
]


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
    for family, rank, weight in LARGE_TYPES:
        tag = f"{family}{rank}"
        rs = ["--type", family, "--rank", str(rank)]
        out.append((f"rootsys-info-{tag}", ["rootsys", "info", *rs]))
        out.append((f"weights-map-{tag}",
                    ["weights", "map", *rs, "--level=7/2",
                     f"--weight={weight}"]))
    # two long-root lengths above rank 4 (pair_den 2): the integer long-root
    # Gram in the root data and in the e-plus lattice built on it
    for family in ("B", "C"):
        rs = ["--type", family, "--rank", "6"]
        out.append((f"rootsys-info-{family}6", ["rootsys", "info", *rs]))
        out.append((f"lattice-disc-e-plus-{family}6",
                    ["lattice", "disc", "--lattice", "e-plus", *rs,
                     "--level=2"]))
    # long chains: the Cartan inverse and the positive-root closure of A12
    # (78 roots) and D10 (90 roots), through G* and the weight map
    a12 = ["--type", "A", "--rank", "12"]
    d10 = ["--type", "D", "--rank", "10"]
    out.append(("rootsys-info-A12", ["rootsys", "info", *a12]))
    out.append(("forms-verify-D10-pos",
                ["forms", "verify", *d10, "--level=7/2"]))
    out.append(("forms-verify-A12-neg",
                ["forms", "verify", *a12, "--level=-5/3"]))
    out.append(("weights-map-D10",
                ["weights", "map", *d10, "--level=7/2",
                 "--weight=1/2,0,-1,1,0,1/2,0,-1/2,1,0"]))
    # every lattice on the largest types, in text only: in JSON the 120x120
    # gram of E8 takes one line per entry.  E7 qsc-dual also pins the closed
    # form 19^7 of its discriminant group through --expect
    large_lattices = [("l-plus", []), ("l-minus", []),
                      ("e-plus", ["--level=2"]), ("e-minus", ["--level=1"]),
                      ("qsc-dual", [])]
    large_disc = []
    for family, rank, _ in LARGE_TYPES:
        rs = ["--type", family, "--rank", str(rank)]
        for lattice, extra in large_lattices:
            if (family, rank, lattice) == ("E", 7, "qsc-dual"):
                extra = ["--expect", ",".join(["19"] * 7)]
            large_disc.append((f"lattice-disc-{lattice}-{family}{rank}-text",
                               ["lattice", "disc", "--lattice", lattice, *rs,
                                *extra, "--format", "text"]))
    # both read gram_g_star: the dual generators and the coset-side weights
    for check in ("jalpha", "hminus", "fst"):
        out.append((f"ope-verify-{check}-A2",
                    ["ope", "verify", "--check", check, "--type", "A",
                     "--rank", "2", "--level=3/2"]))
    # every check at once: rank 1, a non-simply-laced pair, both level signs,
    # and rank 3, where each term pair recurs across many field pairs; then
    # off A1-B3: A3 and D4 at integer levels, C3 at a negative fraction
    for family, rank, level in (("A", 1, "7/2"), ("B", 2, "-5/3"),
                                ("G", 2, "7/2"), ("B", 3, "-5/3"),
                                ("A", 3, "1"), ("C", 3, "-1/3"),
                                ("D", 4, "2")):
        out.append((f"ope-verify-all-{family}{rank}",
                    ["ope", "verify", "--type", family, "--rank", str(rank),
                     f"--level={level}", "--check", "all"]))
    # every check at one negative and one positive fractional level off the
    # cases above, so fractional g*, G and kappa k coefficients are pinned
    for family, rank in (("A", 2), ("G", 2), ("B", 3)):
        for level, sign in (("-1/3", "neg"), ("5/3", "pos")):
            out.append((f"ope-verify-all-{family}{rank}-{sign}",
                        ["ope", "verify", "--type", family, "--rank",
                         str(rank), f"--level={level}", "--check", "all"]))
    # an exceptional type: 36 positive roots, so every field pair meets
    # term keys that recur across many other pairs
    out.append(("ope-verify-all-E6-pos",
                ["ope", "verify", "--type", "E", "--rank", "6", "--level=5/3",
                 "--check", "all"]))
    # rank 4 off the simply-laced types: kappa, the pair denominator and the
    # k + h_vee denominator of g* all meet in one table
    for family, level, sign in (("F", "7/3", "pos"), ("C", "-1/3", "neg")):
        out.append((f"ope-verify-all-{family}4-{sign}",
                    ["ope", "verify", "--type", family, "--rank", "4",
                     f"--level={level}", "--check", "all"]))
    out.append(("char-roundtrip-B2",
                ["char", "roundtrip", "--seed", "seeds/B2.json", "--T", "6"]))
    # spectral flow on both sides, the second seed with an explicit weight.
    # B3 on the sc side runs to T 2 only: there its rank-6 kernel already
    # yields 109 vectors, with both signs in every coordinate, where T 6
    # would pin about 3000 of them in 28 000 lines
    for seed, sc_gamma, af_gamma, weight, sc_T in (
            ("B2", "0,1", "1,0", [], "6"),
            ("G2", "1,0", "0,1", ["--weight=1,0"], "6"),
            ("A3", "1,0,0", "0,0,1", [], "6"),
            ("B3", "1,0,0", "0,0,1", [], "2")):
        for side, gamma, T in (("sc", sc_gamma, sc_T), ("af", af_gamma, "6")):
            out.append((f"flow-check-{side}-{seed}",
                        ["flow", "check", "--seed", f"seeds/{seed}.json",
                         "--side", side, f"--gamma={gamma}", "--T", T,
                         *weight]))
    # rank-3 seeds: plus-kernel lattices of rank 3 (A3) and 6 (B3)
    for seed in ("G2", "A3", "B3"):
        out.append((f"char-roundtrip-{seed}",
                    ["char", "roundtrip", "--seed", f"seeds/{seed}.json",
                     "--T", "6"]))
    # a rank-4 seed, the B3 one zero-padded: a plus-kernel lattice of rank
    # 12, at a T small enough to pin byte for byte
    out.append(("char-roundtrip-B4",
                ["char", "roundtrip", "--seed", "seeds/B4.json", "--T", "3"]))
    out.append(("flow-check-af-B4",
                ["flow", "check", "--seed", "seeds/B4.json", "--side", "af",
                 "--gamma=0,0,0,1", "--T", "3"]))
    # the seed's q^1 term sits exactly at T: its back transport lands on the
    # truncation order itself, which the comparison must keep
    out.append(("char-roundtrip-A2-edge",
                ["char", "roundtrip", "--seed", "seeds/A2.json", "--T", "1"]))
    # the B2 and G2 seed strings off level 1, at a positive (3/2) and a
    # negative (-1/2) fractional level and at the integer level 2: the round
    # trip at a non-base weight, so delta is nonzero, and the flow on both
    # sides
    for seed in ("B2", "G2"):
        for tag in ("k3_2", "k-1_2", "k2"):
            path = f"seeds/{seed}-{tag}.json"
            out.append((f"char-roundtrip-{seed}-{tag}",
                        ["char", "roundtrip", "--seed", path, "--T", "4",
                         "--weight=1,0"]))
            for side, gamma in (("sc", "1,0"), ("af", "0,1")):
                out.append((f"flow-check-{side}-{seed}-{tag}",
                            ["flow", "check", "--seed", path, "--side", side,
                             f"--gamma={gamma}", "--T", "4"]))
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
    # no weight has a term at or below its compare order: nothing compared
    out.append(("char-roundtrip-B2-vacuous",
                ["char", "roundtrip", "--seed", "seeds/B2.json", "--T=-5"]))
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
    return json_cases + text_cases + large_disc


# one case per command, plus the exit-1 and exit-2 cases, in text mode too
TEXT_TWINS = ("rootsys-info-A2", "forms-verify-A2-pos", "weights-map-A2",
              "lattice-disc-qsc-dual-A2", "ope-verify-jalpha-A2",
              "ope-verify-hminus-A2", "ope-verify-fst-A2",
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
