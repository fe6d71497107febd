from __future__ import annotations

import json
import subprocess
import sys

import pytest

from cosetlab.cli import build_parser, main

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
