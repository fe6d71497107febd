"""Tests of the benchmark itself: the oracle must be able to fail, the
count gate must trip on a mismatch, and each workload must pass once.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cosetlab.cli import main as cli_main  # noqa: E402


def _failed_share(wl) -> float:
    records, wall = passrun.run_pass(wl, cli_main)
    passes = [{"requests": passrun.judge(wl, records), "wall_s": wall,
               "setup_s": 0.0, "peak_rss_mb": 1.0,
               "probe_s": [run.REF_PROBE_S] * 2}]
    metrics, detail = run.end_to_end(passes, wl, run.count_failures(passes))
    assert metrics["ok_share"][0] == 1 - detail["failed_share"]
    return detail["failed_share"]


def _small_algebra(tmp_path):
    """The cheap A1-A3 requests of algebra-sweep, known outcomes included."""
    wl = workloads.build("algebra-sweep", 7, tmp_path)
    small = tuple(r for r in wl.requests
                  if r.argv[r.argv.index("--type") + 1] == "A"
                  and r.argv[r.argv.index("--rank") + 1] in ("1", "2", "3"))
    assert any(r.expect_rc == 1 for r in small)
    return dataclasses.replace(wl, requests=small)


def test_oracle_passes_the_unchanged_requests(tmp_path):
    assert _failed_share(_small_algebra(tmp_path)) == 0


def test_oracle_counts_a_flipped_exit_code(tmp_path):
    wl = _small_algebra(tmp_path)
    reqs = list(wl.requests)
    reqs[0] = dataclasses.replace(reqs[0], expect_rc=1 - reqs[0].expect_rc)
    share = _failed_share(dataclasses.replace(wl, requests=tuple(reqs)))
    assert share == pytest.approx(1 / len(reqs))


def test_oracle_counts_a_wrong_group_order(tmp_path):
    wl = _small_algebra(tmp_path)
    reqs = list(wl.requests)
    i = next(i for i, r in enumerate(reqs) if "qsc-dual" in r.argv)
    expect = dict(reqs[i].expect, group_order=reqs[i].expect["group_order"] + 1)
    reqs[i] = dataclasses.replace(reqs[i], expect=expect)
    share = _failed_share(dataclasses.replace(wl, requests=tuple(reqs)))
    assert share == pytest.approx(1 / len(reqs))


def test_output_bytes_that_differ_between_passes_count_as_failures():
    ok = {"problems": [], "sha256": "a"}
    passes = [{"requests": [ok, ok]},
              {"requests": [ok, dict(ok, sha256="b")]}]
    assert run.count_failures(passes) == 1


def test_count_gate_rejects_counts_that_differ():
    layers = {"rootsys.build_calls": 3, "rootsys.build_s": 0.1}
    passes = [{"traced": False, "wall_s": 1.0},
              {"traced": True, "wall_s": 1.2, "layers": layers, "spans": 9},
              {"traced": True, "wall_s": 1.3, "spans": 9,
               "layers": dict(layers, **{"rootsys.build_calls": 4})}]
    with pytest.raises(RuntimeError, match="rootsys.build_calls"):
        run.per_layer(passes, Path("."))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_pass_of_each_workload_is_correct(name, tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "passrun.py"), "--workload", name,
         "--seed", "3", "--workdir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "READY"
    record = json.loads(lines[-1])
    wl = workloads.build(name, 3, tmp_path)
    assert len(record["requests"]) == len(wl.requests)
    assert [r["problems"] for r in record["requests"]] == \
        [[] for _ in wl.requests]


def test_times_are_scaled_by_the_speed_probe_but_setup_is_not():
    reqs = tuple(workloads.Request((str(i),), 0) for i in range(20))
    wl = workloads.Workload("toy", reqs, 1)
    record = {"latency_s": 1.0, "problems": [], "sha256": "a"}
    passes = [{"requests": [record] * 20, "wall_s": 20.0, "setup_s": 0.1,
               "peak_rss_mb": 1.0, "probe_s": [2 * run.REF_PROBE_S] * 2}]
    metrics, detail = run.end_to_end(passes, wl, 0)
    assert metrics["wall_s"][0] == pytest.approx(10.0)
    assert metrics["latency_p50_s"][0] == pytest.approx(0.5)
    assert metrics["setup_s"][0] == pytest.approx(0.1)
    assert detail["unscaled"]["wall_s"] == pytest.approx(20.0)
