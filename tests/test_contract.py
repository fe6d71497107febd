"""Contract fuzzer: argv drawn from the CLI's command table, run in process.

Every call must exit 0, 1 or 2 with no exception escaping; argparse's
SystemExit counts as its exit code.  Exit 1 must come with a FAIL line in
text mode or a false verdict in JSON mode, exit 0 with neither, and exit 2
with a reason on stderr and nothing on stdout.

The grammar walks ``cli._COMMANDS``, so a new command or flag is drawn
without an edit here.  Each flag takes a well-formed value seven times in
eight and a bad one otherwise, so most requests reach a handler.  It draws
ranks 0-4 of every family; levels 0, every -h_vee of those ranks, p/0,
1e999999, junk strings and small rationals; vectors of every arity up to 5;
--T up to MAX_T and past it; and seeds mutated from the golden A2, B2 and G2
seeds.  Ranks past 4 and seed exponents far below the truncation order are
not drawn: no size budget refuses them yet, so they would only run long.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab import cli
from cosetlab.cli import MAX_T
from cosetlab.rootsys import FAMILIES

SEEDS = Path(__file__).resolve().parent / "golden" / "seeds"
# all three of rank 2 and base weight 0
GOLDEN_SEEDS = [json.loads((SEEDS / f"{name}.json").read_text(encoding="utf-8"))
                for name in ("A2", "B2", "G2")]

TYPES = [(family, rank) for family in FAMILIES for rank in range(5)]
BUILT_TYPES = [(family, rank) for family, rank in TYPES
               if FAMILIES[family][0] <= rank <= (FAMILIES[family][1] or rank)]
SMALL = st.sampled_from(["1", "-1", "2", "1/2", "-3/2", "5/3", "7/2", "-1/3"])
JUNK = st.sampled_from(["", "x", "1/0", "0/0", "1.5.2", "nan", "inf", "1_0",
                        " 2 ", "--", "٣", "\x00"])
INTS = st.integers(-2, 2).map(str)
# 0, -2 ... -9 (every dual Coxeter number of a type drawn, negated), p/0,
# and a million digits
BAD_LEVELS = st.one_of(st.just("0"), st.integers(-9, -2).map(str), st.just("3/0"),
                       st.sampled_from(["1e999999", "-1e-999999"]), JUNK)
WRONG_ARITY = st.lists(st.one_of(INTS, SMALL, JUNK), max_size=5).map(",".join)


def _one_in(n):
    """False once in n draws, True otherwise.  Drawn from a list, so the
    draws that hypothesis favours, the first entries, are True."""
    return st.sampled_from([True] * (n - 1) + [False])


def _vector(entries, rank):
    return st.lists(entries, min_size=rank, max_size=rank).map(",".join)


# each mutation changes the seed in place and returns what the file holds
def _mutate_level(seed, data):
    seed["level"] = data.draw(st.one_of(BAD_LEVELS, SMALL, st.integers(-3, 3), st.none()))
    return seed


def _mutate_type(seed, data):
    seed["type"] = data.draw(st.sampled_from(["A", "B", "G", "E", "Z", 1]))
    seed["rank"] = data.draw(st.one_of(st.integers(-1, 4), st.sampled_from(["2", True, 2.0])))
    return seed


def _drop_field(seed, data):
    del seed[data.draw(st.sampled_from(sorted(seed)))]
    return seed


def _mutate_base(seed, data):
    seed["base_weight"] = data.draw(st.lists(st.one_of(INTS, SMALL, JUNK, st.integers(-2, 2)),
                                             max_size=4))
    return seed


def _mutate_string(seed, data):
    entry = data.draw(st.sampled_from(seed["strings"]))
    key = data.draw(st.sampled_from(["weight_offset", "terms", "min_exp"]))
    if key == "weight_offset":
        entry[key] = data.draw(st.lists(st.one_of(st.integers(-2, 2), SMALL), max_size=4))
    elif key == "min_exp":
        entry[key] = data.draw(st.one_of(SMALL, JUNK, st.none()))
    else:
        term = data.draw(st.sampled_from(entry[key]))
        # exponents move by a little, so none falls far below the order
        term[data.draw(st.sampled_from(["exp", "coef"]))] = data.draw(
            st.one_of(SMALL, st.just("0"), JUNK, st.integers(-2, 2)))
    return seed


def _duplicate_string(seed, data):
    seed["strings"].append(copy.deepcopy(data.draw(st.sampled_from(seed["strings"]))))
    return seed


def _not_an_object(seed, data):
    return data.draw(st.sampled_from([[], "seed", 1, None]))


SEED_MUTATIONS = st.sampled_from([_mutate_level, _mutate_type, _drop_field, _mutate_base,
                                  _mutate_string, _duplicate_string, _not_an_object])


def _seed_file(data, tmp: Path, well_formed: bool) -> str:
    """A golden seed, mutated half the time, as a file; or, not well formed,
    a missing file, broken JSON or JSON nested too deeply."""
    path = tmp / "seed.json"
    seed = copy.deepcopy(data.draw(st.sampled_from(GOLDEN_SEEDS)))
    if not well_formed:
        text = data.draw(st.sampled_from([None, "{", "[" * 100000]))
        if text is None:
            return str(tmp / "missing.json")
    elif not data.draw(_one_in(2)):
        text = json.dumps(data.draw(SEED_MUTATIONS)(seed, data))
    else:
        text = json.dumps(seed)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _flag_value(data, name, options, family, rank, tmp: Path) -> str:
    """A value for one flag: well formed seven times in eight."""
    well_formed = data.draw(_one_in(8))
    if not well_formed and not data.draw(_one_in(4)):
        return "--"  # which argparse stores as []
    if name == "--seed":
        return _seed_file(data, tmp, well_formed)
    if "choices" in options:
        return data.draw(st.sampled_from(options["choices"]) if well_formed else JUNK)
    good, bad = {
        "--type": (st.just(family), st.sampled_from(["a", "Z", "AB", ""])),
        "--rank": (st.just(str(rank)), st.sampled_from(["x", "2.0", "", "-1"])),
        # lattice disc's --level, the one not required, takes a positive integer
        "--level": (SMALL if options.get("required") else st.sampled_from(["1", "2"]),
                    BAD_LEVELS),
        "--weight": (_vector(st.one_of(INTS, SMALL), rank), WRONG_ARITY),
        "--gamma": (_vector(INTS, rank), st.one_of(WRONG_ARITY, _vector(SMALL, rank))),
        "--expect": (st.one_of(st.just("none"), st.lists(st.integers(1, 9).map(str),
                                                         max_size=4).map(",".join)),
                     WRONG_ARITY),
        "--T": (st.sampled_from(["-1", "0", "1/2", "1", "2", "3", str(MAX_T)]),
                st.one_of(st.sampled_from([str(MAX_T + 1), "65/2", "1e9", "1e999999"]), JUNK)),
    }[name]
    return data.draw(good if well_formed else bad)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as stop:
            rc = stop.code
    return rc, out.getvalue(), err.getvalue()


def _reports_a_failure(out: str, fmt: str) -> bool:
    """Whether output shows a false verdict: a FAIL line in text mode, a
    false ok (or *_ok, or check) in JSON mode."""
    if fmt == "text":
        return any("FAIL" in line for line in out.splitlines())
    payload = json.loads(out)
    verdicts = [payload.get(key) for key in ("ok", "hvee_identity_ok", "roundtrip_ok")]
    return any(v is False for v in verdicts + list(payload.get("checks", {}).values()))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_drawn_request_keeps_the_exit_code_contract(data):
    group, _, action, _, _, flags = data.draw(st.sampled_from(cli._COMMANDS))
    # a type that builds three times in four; a seed command's vectors take
    # the seeds' rank
    family, rank = data.draw(st.one_of(st.sampled_from(BUILT_TYPES), st.sampled_from(TYPES)))
    if any(name == "--seed" for name, _ in flags):
        rank = 2
    argv = [group, action]
    with tempfile.TemporaryDirectory() as tmp:
        for name, options in flags:
            # a required flag is left out now and then, an optional one half the time
            if data.draw(_one_in(16 if options.get("required") else 2)):
                argv.append(f"{name}={_flag_value(data, name, options, family, rank, Path(tmp))}")
        rc, out, err = _run(argv)
    assert rc in (0, 1, 2), argv
    if rc == 2:
        assert out == "" and err, argv
    else:
        fmt = next((a.split("=", 1)[1] for a in argv if a.startswith("--format=")), "text")
        assert _reports_a_failure(out, fmt) == (rc == 1), argv
