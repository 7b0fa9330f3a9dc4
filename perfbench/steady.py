"""Steadiness check: repeat every workload over several seeds.

    python3 perfbench/steady.py [--first-seed 1] [--workload NAME ...]

For each workload, runs perfbench/run.py once on each of RUNS seeds
(--trace 0, with BENCHMARK.json's run_seconds unless --seconds is given)
and reports each end-to-end metric's median, quartiles
(statistics.quantiles, n=4) and spread (q3 - q1) / median next to its
limit: a third of its bound from BENCHMARK.json, and half for setup_s,
whose scaling is the least exact (see ready.py).  The bounds were set
from this output.  The spreads of the raw, unscaled times (from the
result files) are shown beside them.  It also reports the share of
failed operations, which must be the same in every run.

Then, per workload, it makes two traced runs over the same FUEL_INPUTS
inputs of the first seed and checks that the step count
(stepcore.fuel_used) and the other per-layer counts repeat exactly.

Exits 1 if a run fails, an output is wrong, a spread reaches its limit,
the failed share varies, or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
FUEL_INPUTS = 20
EXACT_COUNTS = (
    "stepcore.fuel_used",
    "stepcore.burn_fuel",
    "engine.load_cells",
    "engine.resolve_calls",
    "engine.collapse_calls",
    "engine.unresolved",
    "compact.tree_nodes",
    "compact.code_cells",
    "intervals.sets_built",
    "codec.gray_encode_calls",
)


def _last_json(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    summary = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            res = _last_json(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            )
            with open(os.path.join(HERE, "out", f"result-{name}-s{seed}-t0.json")) as f:
                res["raw"] = json.load(f)
            runs.append(res)
            print(f"{name} seed {seed}: attempted {res['attempted']} failed {res['failed']} "
                  f"correct {res['correct']}", file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) > 1 or not all(r["correct"] for r in runs):
            ok = False
        print(f"\n{name}: {RUNS} runs of {args.seconds:g} s, failed share {sorted(shares)}, "
              f"operations per run {min(r['attempted'] for r in runs)}..{max(r['attempted'] for r in runs)}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'limit':>9}{'raw spread':>12}")
        summary[name] = {}
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3, spread = _spread(vals)
            limit = bound / (2 if metric == "setup_s" else 3)
            steady = spread < limit
            ok &= steady
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            raw = [r["raw"].get("raw_" + metric) for r in runs]
            raw_spread = f"{_spread(raw)[3]:12.3f}" if None not in raw else " " * 12
            print(f"  {metric:<14}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}{spread:>9.3f}{limit:>9.3f}"
                  f"{raw_spread}{'' if steady else '  NOT STEADY'}")

    print(f"\nexact repeat of per-layer counts ({FUEL_INPUTS} inputs traced, seed {args.first_seed})")
    for name in names:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
               "--seed", str(args.first_seed), "--inputs", str(FUEL_INPUTS), "--seconds", "0", "--trace"]
        a, b = (_last_json(cmd)["layers"] for _ in range(2))
        diff = [k for k in EXACT_COUNTS if a[k]["value"] != b[k]["value"]]
        ok &= not diff
        print(f"  {name:<18} fuel_used {a['stepcore.fuel_used']['value']:>10} "
              f"{'repeats' if not diff else 'DIFFERS: ' + ', '.join(diff)}")
        summary[name]["fuel_used"] = [a["stepcore.fuel_used"]["value"], b["stepcore.fuel_used"]["value"]]

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
