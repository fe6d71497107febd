from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetlab import cli, ratlinalg, rootsys
from cosetlab.bilinear import ScWeight
from cosetlab.cli import MAX_T, build_parser, main

A1_SEED = {
    "type": "A",
    "rank": 1,
    "level": "1",
    "base_weight": ["0"],
    "strings": [
        {"weight_offset": [0],
         "terms": [{"exp": "0", "coef": "1"}],
         "min_exp": "0"},
        {"weight_offset": [1],
         "terms": [{"exp": "1/2", "coef": "1"}, {"exp": "3/2", "coef": "2"}],
         "min_exp": "1/2"},
    ],
}


@pytest.fixture
def seed_path(tmp_path):
    p = tmp_path / "seed.json"
    p.write_text(json.dumps(A1_SEED), encoding="utf-8")
    return str(p)


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "cosetlab", *argv],
                          capture_output=True, text=True)


def test_rootsys_info_table(capsys):
    assert main(["rootsys", "info", "--type", "A", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "positive (N)   3" in out
    assert "dual coxeter   3" in out
    assert "hvee identity on fundamental weights: ok" in out


def test_rootsys_info_g2(capsys):
    assert main(["rootsys", "info", "--type", "G", "--rank", "2"]) == 0
    assert "dual coxeter   4" in capsys.readouterr().out


def test_unknown_family_is_usage_error(capsys):
    assert main(["rootsys", "info", "--type", "Z", "--rank", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_forms_verify_ok(capsys):
    assert main(["forms", "verify", "--type", "A", "--rank", "2",
                 "--level", "1"]) == 0
    out = capsys.readouterr().out
    assert "g_times_g_star_is_identity: ok" in out
    assert "G_times_G_star_is_identity: ok" in out


@pytest.mark.parametrize("family,rank,level", [
    ("A", 1, "0"),
    ("B", 2, "-3"),
])
def test_forms_excluded_levels_are_usage_errors(family, rank, level, capsys):
    code = main(["forms", "verify", "--type", family, "--rank", str(rank),
                 "--level", level])
    capsys.readouterr()
    assert code == 2


def test_a_decimal_level_is_read_exactly(capsys):
    outs = []
    for level in ("0.5", "1/2"):
        assert main(["forms", "verify", "--type", "B", "--rank", "2",
                     "--level", level, "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_forms_verify_json_payload(capsys):
    assert main(["forms", "verify", "--type", "B", "--rank", "2",
                 "--level", "5/2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "cosetlab/1"
    assert payload["checks"]["central_charge_formulas_agree"] is True
    assert payload["matrices"]["g"][0][0] is not None


def test_weights_map_roundtrip(capsys):
    assert main(["weights", "map", "--type", "A", "--rank", "1",
                 "--level", "1", "--weight", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["j_values"] == ["2"]
    assert payload["jstar_values"] == ["2/3"]
    assert payload["in_Qsc"] is False
    assert payload["roundtrip_ok"] is True


def test_weights_map_takes_jstar_once(capsys, monkeypatch):
    # membership in Q_sc is read from the J* values the report prints
    calls = []
    real = ScWeight.jstar_values
    monkeypatch.setattr(ScWeight, "jstar_values",
                        lambda self, rs: calls.append(rs) or real(self, rs))
    for weight, member in (("1", False), ("3", True)):
        assert main(["weights", "map", "--type", "A", "--rank", "1",
                     "--level", "1", "--weight", weight, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["in_Qsc"] is member
    assert len(calls) == 2


def test_weights_map_wrong_arity_is_usage_error(capsys):
    assert main(["weights", "map", "--type", "A", "--rank", "2",
                 "--level", "1", "--weight", "1"]) == 2
    assert "comma-separated" in capsys.readouterr().err


def test_lattice_disc_qsc_dual_a1(capsys):
    assert main(["lattice", "disc", "--lattice", "qsc-dual",
                 "--type", "A", "--rank", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["elementary_divisors"] == [3]
    assert payload["group_order"] == 3


def test_lattice_disc_expect_mismatch_exits_one(capsys):
    assert main(["lattice", "disc", "--lattice", "qsc-dual",
                 "--type", "A", "--rank", "1", "--expect", "4"]) == 1
    assert "match: FAIL" in capsys.readouterr().out


def test_lattice_disc_expect_match_exits_zero(capsys):
    assert main(["lattice", "disc", "--lattice", "qsc-dual",
                 "--type", "A", "--rank", "1", "--expect", "3"]) == 0
    capsys.readouterr()


def _counted(monkeypatch, name):
    """Calls of ratlinalg's name, counted through every cosetlab module that
    holds it: a module that imported it by name calls its own binding."""
    real, calls = getattr(ratlinalg, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for module in [m for key, m in sys.modules.items() if key.startswith("cosetlab.")]:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_root_system_and_lattice_builds_eliminate_once(capsys, monkeypatch):
    bareiss, mat_inv = _counted(monkeypatch, "bareiss"), _counted(monkeypatch, "mat_inv")
    # the signature pass gives the determinant, so the Smith form needs none
    assert main(["lattice", "disc", "--lattice", "qsc-dual",
                 "--type", "E", "--rank", "6", "--format", "json"]) == 0
    assert (len(bareiss), len(mat_inv)) == (1, 0)
    # no request of rootsys info or lattice disc reads the form inverse
    requests = [["rootsys", "info", "--type", family, "--rank", rank]
                for family, rank in (("A", "4"), ("B", "3"), ("E", "6"))]
    requests += [["lattice", "disc", "--lattice", lattice, "--type", "B",
                  "--rank", "3", *(["--level", "2"] if lattice[0] == "e" else [])]
                 for lattice in ("l-plus", "l-minus", "e-plus", "e-minus")]
    for argv in requests:
        assert main(argv) == 0, argv
    assert mat_inv == []
    # weights map reads it, once per root system
    assert main(["weights", "map", "--type", "B", "--rank", "3",
                 "--level", "1", "--weight", "1,0,0"]) == 0
    assert mat_inv == ["mat_inv"]
    capsys.readouterr()


def test_lattice_disc_level_flag_rules(capsys):
    assert main(["lattice", "disc", "--lattice", "e-plus",
                 "--type", "A", "--rank", "2"]) == 2
    assert main(["lattice", "disc", "--lattice", "qsc-dual",
                 "--type", "A", "--rank", "1", "--level", "1"]) == 2
    capsys.readouterr()


def test_lattice_disc_unimodular_reports_none(capsys):
    assert main(["lattice", "disc", "--lattice", "l-minus",
                 "--type", "A", "--rank", "1"]) == 0
    assert "elementary divisors: none" in capsys.readouterr().out


def test_ope_verify_fst(capsys):
    assert main(["ope", "verify", "--check", "fst", "--type", "A",
                 "--rank", "2", "--level", "1"]) == 0
    assert "fst: ok" in capsys.readouterr().out


def test_ope_verify_all_json(capsys):
    assert main(["ope", "verify", "--type", "A", "--rank", "1",
                 "--level", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in payload["reports"]] == [
        "jalpha", "hminus", "fst"]
    assert all(r["ok"] for r in payload["reports"])


def test_char_roundtrip_seed(seed_path, capsys):
    assert main(["char", "roundtrip", "--seed", seed_path, "--T", "6"]) == 0
    assert "round trip at weight 0 to order 6: ok" in capsys.readouterr().out


def test_char_roundtrip_rejects_bad_seed(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"type": "A", "rank": 1}), encoding="utf-8")
    assert main(["char", "roundtrip", "--seed", str(p), "--T", "6"]) == 2
    assert "bad seed file" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [
    5,
    dict(A1_SEED, strings=5),
    dict(A1_SEED, strings=[5]),
    dict(A1_SEED, strings=[dict(A1_SEED["strings"][0], terms=5)]),
])
def test_char_roundtrip_malformed_seed_is_usage_error(raw, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["char", "roundtrip", "--seed", str(p), "--T", "6"]) == 2
    assert "bad seed file" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    json.dumps({k: v for k, v in A1_SEED.items() if k != "strings"})[:-1]
    + ', "strings": ' + "[" * 995 + "]" * 995 + "}",
], ids=["100000-deep", "995-deep-strings"])
def test_char_roundtrip_deeply_nested_seed_is_usage_error(text, tmp_path,
                                                          capsys):
    p = tmp_path / "deep.json"
    p.write_text(text, encoding="utf-8")
    assert main(["char", "roundtrip", "--seed", str(p), "--T", "6"]) == 2
    assert "bad seed file" in capsys.readouterr().err


def test_char_roundtrip_missing_file(capsys):
    assert main(["char", "roundtrip", "--seed", "/nonexistent/s.json",
                 "--T", "6"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ("char", "roundtrip"),
    ("flow", "check", "--side", "sc", "--gamma", "1"),
])
def test_T_above_the_limit_is_refused_before_the_seed_is_read(command,
                                                              seed_path,
                                                              capsys):
    start = time.perf_counter()
    assert main([*command, "--seed", "/nonexistent/s.json",
                 "--T", "1e9"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        f"error: --T 1e9 is above the limit MAX_T = {MAX_T}\n"
    assert main([*command, "--seed", seed_path, "--T", str(MAX_T)]) == 0
    capsys.readouterr()


LIMIT_REFUSAL = ("too large: its numerator or denominator has more than"
                 f" MAX_DIGITS = {ratlinalg.MAX_DIGITS} digits\n")


@pytest.mark.parametrize("argv, reason", [
    (["weights", "map", "--type", "A", "--rank", "2", "--weight=1,0"], "--level is "),
    (["ope", "verify", "--type", "A", "--rank", "1"], "--level is "),
    (["forms", "verify", "--type", "E", "--rank", "8"], "--level is "),
    (["char", "roundtrip", "--T", "2"], "bad seed file: bad level: "),
    (["flow", "check", "--side", "af", "--gamma", "1", "--T", "2"], "bad seed file: bad level: "),
], ids=["weights map", "ope verify", "forms verify", "char roundtrip", "flow check"])
def test_an_enormous_level_is_refused(argv, reason, tmp_path, capsys):
    # a million digits, on which Fraction's gcd would run without end
    if argv[0] in ("char", "flow"):
        p = tmp_path / "seed.json"
        p.write_text(json.dumps({**A1_SEED, "level": "1e999999"}), encoding="utf-8")
        argv = argv + ["--seed", str(p)]
    else:
        argv = argv + ["--level=1e999999"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: {reason}{LIMIT_REFUSAL}"


@pytest.mark.parametrize("command", [
    ("char", "roundtrip"),
    ("flow", "check", "--side", "sc", "--gamma", "1"),
    ("flow", "check", "--side", "af", "--gamma", "1"),
])
def test_vacuous_comparison_exits_2(command, seed_path, capsys):
    # every term lies above every compare order at T = -1/2
    assert main([*command, "--seed", seed_path, "--T=-1/2"]) == 2
    assert capsys.readouterr().err.endswith(" to order -1/2 is vacuous\n")


def test_a_term_exactly_at_the_compare_order_is_compared(seed_path, capsys):
    # the round trip compares weight 0 to order T = 0, where the seed's q^0
    # term sits; weight 1 starts at 1/2 and is compared to a lower order
    assert main(["char", "roundtrip", "--seed", seed_path, "--T", "0",
                 "--format", "json"]) == 0
    orders = [w["compare_order"] for w in json.loads(
        capsys.readouterr().out)["weights"]]
    assert orders[0] == "0"


def test_flow_check_sc_side(seed_path, capsys):
    assert main(["flow", "check", "--seed", seed_path, "--side", "sc",
                 "--gamma", "1", "--T", "6"]) == 0
    capsys.readouterr()


def test_flow_check_af_side(seed_path, capsys):
    assert main(["flow", "check", "--seed", seed_path, "--side", "af",
                 "--gamma", "1", "--T", "6", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["weights"]


@pytest.mark.parametrize("command", [
    ("char", "roundtrip"),
    ("flow", "check", "--side", "sc", "--gamma", "1"),
    ("flow", "check", "--side", "af", "--gamma", "1"),
])
def test_a_seed_request_builds_one_root_system(command, seed_path, capsys,
                                               monkeypatch):
    # the seed reader builds it; every later step reads it off the character
    real = rootsys.build_root_system
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "build_root_system", None) is real:
            monkeypatch.setattr(module, "build_root_system", counted)
    assert main([*command, "--seed", seed_path, "--T", "6"]) == 0
    capsys.readouterr()
    assert calls == [("A", 1)]


def test_flow_check_fractional_gamma_is_usage_error(seed_path, capsys):
    assert main(["flow", "check", "--seed", seed_path, "--side", "sc",
                 "--gamma", "1/2", "--T", "6"]) == 2
    capsys.readouterr()


def test_cli_runs_are_byte_identical(seed_path):
    argv = ("char", "roundtrip", "--seed", seed_path, "--T", "8",
            "--format", "json")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()


def test_cli_no_arguments_is_usage_error():
    assert run_cli().returncode == 2


def test_cli_json_keys_sorted(seed_path):
    result = run_cli("flow", "check", "--seed", seed_path, "--side", "sc",
                     "--gamma", "1", "--T", "4", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    canonical = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert result.stdout == canonical
    assert payload["schema"] == "cosetlab/1"


def test_forms_verify_e8_fractional_level(capsys):
    assert main(["forms", "verify", "--type", "E", "--rank", "8",
                 "--level", "5/2", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["g_times_g_star_is_identity"] is True
    assert checks["G_times_G_star_is_identity"] is True


def test_weights_map_e7(capsys):
    assert main(["weights", "map", "--type", "E", "--rank", "7",
                 "--level", "3/2", "--weight", "1,0,1/2,0,-1,0,1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["roundtrip_ok"] is True
    assert len(payload["jstar_values"]) == 63


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


SEEDS = Path(__file__).parent / "golden" / "seeds"

# one small request per subcommand, without its --format
SUBCOMMAND_REQUESTS = (
    ["rootsys", "info", "--type", "B", "--rank", "3"],
    ["forms", "verify", "--type", "B", "--rank", "3", "--level=7/2"],
    ["weights", "map", "--type", "B", "--rank", "3", "--level=7/2",
     "--weight=1,-1/2,1/2"],
    ["lattice", "disc", "--lattice", "qsc-dual", "--type", "A", "--rank", "2"],
    ["ope", "verify", "--type", "B", "--rank", "3", "--level", "2", "--check", "all"],
    ["char", "roundtrip", "--seed", str(SEEDS / "B3.json"), "--T", "6"],
    ["flow", "check", "--seed", str(SEEDS / "B2.json"), "--side", "af", "--gamma=1,0",
     "--T", "6"],
)


@pytest.mark.parametrize("argv", SUBCOMMAND_REQUESTS, ids=lambda argv: " ".join(argv[:2]))
def test_a_flag_value_of_double_dash_is_a_usage_error(argv, capsys):
    # argparse stores [] for --flag=--, and the last value given wins; []
    # must not reach a handler, where it raises past the exit-code contract
    for flag in [a.split("=")[0] for a in argv if a.startswith("--")] + ["--format"]:
        with pytest.raises(SystemExit) as stop:
            main(argv + [f"{flag}=--"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith(f": error: argument {flag}: expected one argument\n")


def test_no_subcommand_leaves_a_cosetlab_function_to_the_cycle_collector(capsys):
    # reference counting alone must free what a request builds: a function
    # in a reference cycle (a recursive closure, say) would wait for the
    # cyclic collector after every call that made it; text mode runs the
    # line builders a handler returns
    cyclic = {}
    for argv in (request + ["--format", fmt] for request in SUBCOMMAND_REQUESTS
                 for fmt in ("json", "text")):
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0, argv
            gc.collect()
            names = [f.__qualname__ for f in gc.garbage if isinstance(f, FunctionType)
                     and f.__module__.startswith("cosetlab")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        capsys.readouterr()
        if names:
            cyclic[" ".join(argv[:2] + argv[-1:])] = names
    assert cyclic == {}


def _refuse(*args):
    raise AssertionError("text built for a JSON request")


@pytest.mark.parametrize("argv", [
    ["rootsys", "info", "--type", "B", "--rank", "3"],
    ["lattice", "disc", "--lattice", "qsc-dual", "--type", "A", "--rank", "2"],
    ["flow", "check", "--side", "sc", "--gamma", "1", "--T", "6"],
])
def test_a_json_request_builds_no_text(argv, seed_path, monkeypatch, capsys):
    if argv[0] == "flow":
        argv = argv + ["--seed", seed_path]
    monkeypatch.setattr(cli, "_mat_lines", _refuse)
    monkeypatch.setattr(cli, "_weight_line", _refuse)
    assert main(argv + ["--format", "json"]) == 0
    # the refusing builders are the ones text mode calls
    with pytest.raises(AssertionError, match="^text built"):
        main(argv + ["--format", "text"])
    capsys.readouterr()


_JSON_CHARS = st.one_of(st.sampled_from('"\\\x00\n\x1f\x7f\xe9\u2028\ud800\udfff'),
                        st.characters(blacklist_categories=()))
_JSON_TEXT = st.text(_JSON_CHARS, max_size=8)
_JSON_TREES = st.recursive(
    st.one_of(_JSON_TEXT, st.integers(), st.integers(-2**80, 2**80),
              st.sampled_from([2**64, -2**64 - 1, True, False, None])),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_JSON_TEXT, kids, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_json_writer_matches_json_dumps(tree):
    assert cli._json(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), {1}, {1: "a"}, {"a": 1, 2: "b"},
                                   {"a": [1, 0.0]}])
def test_json_writer_refuses_what_a_report_must_not_hold(value):
    with pytest.raises(TypeError):
        cli._json(value)
