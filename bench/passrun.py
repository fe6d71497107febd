"""One pass over a workload's request list, in a fresh interpreter.

    python3 bench/passrun.py --workload NAME --seed N --workdir DIR [--trace]

Run from the root of a checkout.  It imports cosetlab from ./src, builds the
request list, prints ``READY`` (the driver times set-up up to that line),
then runs every request in-process through ``cosetlab.cli.main`` with
stdout captured, one after the other.  The last line of its output is a JSON
record of the pass; the oracle has already checked each request.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from oracle import check
from tracer import Tracer, layer_metrics

ROOT = Path.cwd()
SRC = ROOT / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import cosetlab.cli
    if Path(cosetlab.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"cosetlab was not imported from {SRC}")
    return cosetlab.cli


def _call(main, argv):
    """Exit code of one CLI call; SystemExit from argparse is an exit code,
    and an uncaught exception is the 1 the interpreter would exit with."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    except Exception:  # a traceback from the CLI is a result too
        traceback.print_exc()
        return 1


def run_pass(workload, main, tracer=None):
    """Run each request once; returns per-request records and the wall time."""
    records = []
    clock = time.perf_counter
    t_pass = clock()
    for i, req in enumerate(workload.requests):
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = _call(main, req.argv)
            else:
                rc = tracer.run_request(i, lambda: _call(main, req.argv))
        records.append((clock() - t0, rc, out.getvalue()))
    return records, clock() - t_pass


def speed_probe() -> float:
    """Seconds taken by a fixed exact-arithmetic kernel.

    It measures how fast the machine runs this kind of work right now:
    rational elimination and dict accumulation, as cosetlab does, but
    frozen here so that no change to cosetlab moves it.
    """
    t0 = time.perf_counter()
    acc = {}
    for r in range(40):
        n = 14
        m = [[Fraction(i * j + r + 1, i + 2 * j + 3) + (n if i == j else 0)
              for j in range(n)] for i in range(n)]
        for c in range(n):
            inv = 1 / m[c][c]
            for k in range(c + 1, n):
                f = m[k][c] * inv
                m[k] = [x - f * y for x, y in zip(m[k], m[c])]
                key = (c % 5, k % 7)
                acc[key] = acc.get(key, 0) + f
    return time.perf_counter() - t0


def judge(workload, records):
    """Oracle verdicts plus an output digest per request."""
    return [{"latency_s": lat, "rc": rc,
             "sha256": hashlib.sha256(text.encode()).hexdigest(),
             "problems": check(req, rc, text)}
            for req, (lat, rc, text) in zip(workload.requests, records)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    cli = _import_cli()
    workdir = Path(args.workdir)
    workload = workloads.build(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    print("READY", flush=True)

    probe_before = speed_probe()
    records, wall = run_pass(workload, cli.main, tracer)
    probe_after = speed_probe()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"wall_s": wall, "peak_rss_mb": rss_mb,
              "probe_s": [probe_before, probe_after],
              "requests": judge(workload, records)}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["spans"] = len(tracer.start)
        tracer.write(workdir / "spans.tsv")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
