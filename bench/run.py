"""cosetlab benchmark: closed-loop sweeps of CLI requests, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats passes over the workload's
request list (see ``workloads.py``) until ``--seconds`` have gone by, and at
least the workload's minimum number of passes.  Each pass is a fresh
interpreter (``passrun.py``): CLI users start a process per call, so no cache
may carry results from one pass to the next.  Within a pass no argv repeats.

Wall time and latencies are scaled to a reference machine speed.  The
machine this was built on drifts by 20-40% over minutes, with CPU time
tracking wall time, so raw seconds of runs a few minutes apart are not
comparable.  Each pass therefore also times a fixed kernel that no cosetlab
change can move (``passrun.speed_probe``), before and after its requests,
and the run multiplies its times by REF_PROBE_S / (median probe time).  The
unscaled figures are printed on the detail line.  Set-up time and memory
are reported as measured.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced pass and two traced passes and reports per-layer
metrics.  The last line of stdout is the JSON result; the line before it
holds the sample counts and percentiles behind the numbers.
"""

from __future__ import annotations

import argparse
import compileall
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
PASS_TIMEOUT_S = 120
# Median time of passrun.speed_probe on the machine the bounds were set on
# (a 2-vCPU Xeon VM, Python 3.11.7).
REF_PROBE_S = 0.4


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 1]."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_one_pass(workload: str, seed: int, workdir: Path,
                 trace: bool) -> dict:
    """Spawn one pass; returns its record with the measured set-up time."""
    cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pass took over {PASS_TIMEOUT_S} s: {cmd}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass failed (exit {proc.returncode}): {cmd}")
    record = json.loads(lines[-1])
    record["setup_s"] = setup
    record["traced"] = trace
    return record


def count_failures(passes) -> int:
    """Executions failing the oracle, or whose output bytes differ from the
    same request in the first pass."""
    first = [r["sha256"] for r in passes[0]["requests"]]
    return sum(1 for p in passes for r, sha in zip(p["requests"], first)
               if r["problems"] or r["sha256"] != sha)


def report_problems(passes, wl) -> None:
    first = passes[0]["requests"]
    for n, p in enumerate(passes):
        for req, r, r0 in zip(wl.requests, p["requests"], first):
            probs = list(r["problems"])
            if r["sha256"] != r0["sha256"]:
                probs.append("output bytes differ from pass 0")
            if probs:
                print(f"pass {n}: {req.key}: {'; '.join(probs)}",
                      file=sys.stderr)


def end_to_end(passes, wl, failed: int) -> tuple:
    lat = [r["latency_s"] for p in passes for r in p["requests"]]
    raw = {"wall_s": statistics.median(p["wall_s"] for p in passes),
           "latency_p50_s": percentile(lat, 0.5),
           "latency_tail_s": percentile(lat, wl.tail_percentile)}
    probe = statistics.median(x for p in passes for x in p["probe_s"])
    speed = REF_PROBE_S / probe
    attempted = len(lat)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (raw["wall_s"] * speed, "s"),
        "latency_p50_s": (raw["latency_p50_s"] * speed, "s"),
        "latency_tail_s": (raw["latency_tail_s"] * speed, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MiB"),
        "ok_share": (1 - failed / attempted, "ratio"),
    }
    detail = {
        "latency_samples": attempted,
        "tail_percentile": round(100 * wl.tail_percentile, 3),
        "samples_beyond_tail": sum(1 for x in lat
                                   if x > raw["latency_tail_s"]),
        "unscaled": raw,
        "probe_s_median": probe,
        "speed_factor": speed,
        "failed_share": failed / attempted,
        "wall_s_per_pass": [p["wall_s"] for p in passes],
        "setup_s_per_pass": [p["setup_s"] for p in passes],
    }
    return metrics, detail


def per_layer(passes, workdir: Path) -> tuple:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    counts = [{k: v for k, v in p["layers"].items()
               if k.endswith("_calls") or k == "latticekit.enum_vectors"}
              for p in traced]
    for n, c in enumerate(counts[1:], 1):
        diff = sorted(k for k in c if c[k] != counts[0][k])
        if diff:
            raise RuntimeError(
                "layer counts differ between traced passes 0 and "
                f"{n}: " + ", ".join(f"{k} {counts[0][k]} vs {c[k]}"
                                     for k in diff))
    metrics = {}
    for key in traced[0]["layers"]:
        if key in counts[0]:
            metrics[key] = (counts[0][key], "count")
        else:
            metrics[key] = (statistics.median(p["layers"][key]
                                              for p in traced),
                            "s" if key.endswith("_s") else "ratio")
    ratio = (statistics.median(p["wall_s"] for p in traced)
             / statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    detail = {"traced_passes": len(traced), "untraced_passes": len(plain),
              "spans_per_pass": traced[0]["spans"],
              "spans_file": str(workdir / "spans.tsv")}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so the running pass is
    # killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not Path("src", "cosetlab", "__init__.py").is_file():
        print("error: run from the root of a cosetlab checkout"
              " (src/cosetlab not found)", file=sys.stderr)
        return 2
    # compile once so no pass pays bytecode compilation in its set-up
    compileall.compile_dir("src", quiet=1)
    workdir = Path(".bench_work", args.workload)
    wl = workloads.build(args.workload, args.seed, workdir)
    started = time.perf_counter()
    passes = []
    try:
        if args.trace:
            for trace in (False, True, True):
                passes.append(run_one_pass(args.workload, args.seed, workdir,
                                           trace))
            metrics, detail = per_layer(passes, workdir)
        else:
            while (len(passes) < wl.min_passes
                   or time.perf_counter() - started < args.seconds):
                passes.append(run_one_pass(args.workload, args.seed, workdir,
                                           False))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(p["requests"]) for p in passes)
    failed = count_failures(passes)
    if failed:
        report_problems(passes, wl)
    if not args.trace:
        metrics, detail = end_to_end(passes, wl, failed)
    detail.update(workload=args.workload, seed=args.seed, passes=len(passes),
                  requests_per_pass=len(wl.requests),
                  measured_s=time.perf_counter() - started)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
