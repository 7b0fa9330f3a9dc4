"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  Every process started here runs one after the other (a closed loop
with one caller) and is waited for.

--trace 0 first times set-up in a fresh interpreter (ready.py), then
runs the workload in one more fresh interpreter (worker.py) and prints
the end-to-end metrics.  --trace 1 runs traced passes instead and prints the
per-layer metrics (see worker.py and spans.py).  Times are scaled to a
fixed machine speed (speed.py); the raw ones are in the result file.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, and with
--trace 1 the spans, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _child(script, args, deadline):
    cmd = [sys.executable, os.path.join(HERE, script), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ambreal", "engine.py")):
        print(f"no ambreal sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            trace_file = os.path.join(OUT, f"trace-{tag}.tsv.gz")
            res = _child("worker.py", run_args + ["--trace", "--trace-file", trace_file], deadline)
            metrics = res["layers"]
        else:
            setup = _child("ready.py", [], deadline)
            res = _child("worker.py", run_args, deadline)
            res["setup"] = setup
            res["raw_setup_s"] = setup["raw_setup_s"]
            if "op_p50_ms" not in res:
                raise BenchError(f"fewer than two operations succeeded: {res['errors']}")
            metrics = {
                "setup_s": _metric(setup["setup_s"], "s"),
                "items_per_s": _metric(res["items_per_s"], "items/s"),
                "op_p50_ms": _metric(res["op_p50_ms"], "ms"),
                "op_p90_ms": _metric(res["op_p90_ms"], "ms"),
                "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(res, f, indent=1)
    core = "compiled" if res["compiled"] else "pure-Python"
    print(f"{args.workload} seed {args.seed}: step core {core} (engine.COMPILED={res['compiled']})")
    print(
        f"{res['passes']} passes, {res['attempted']} operations, {res['items']} items per pass; "
        f"machine speed {res['speed']:.3f} of the reference; raw items_per_s {res['raw_items_per_s']:.6g}, "
        f"op_p50_ms {res['raw_op_p50_ms']:.6g}, op_p90_ms {res['raw_op_p90_ms']:.6g}"
    )
    for reason in res["errors"]:
        print(f"failed operation: {reason}", file=sys.stderr)
    if not res["correct"]:
        print(f"wrong output: {res['check_error']}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
