"""One workload in one fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--inputs N]

Set-up is done first (ready.py); this process's set-up time is reported
but run.py takes setup_s from interpreters that import nothing else.

The seed gives the workload's per_pass inputs, in whole rounds.  The
timed run is a closed loop: one caller converts each input after the
previous one returned and checks the output against `reference` outside
the timed region.  It makes
passes over all the inputs, one and then as many more as fit in S seconds
of wall time; an input's time is the mean over the passes.

Times are scaled to a fixed machine speed (see speed.py): the kernel is
timed just before and just after each operation, and the operation's time
is multiplied by KERNEL_REF_S over the mean of the two.  The raw figures
are kept beside the scaled ones.

With --trace the passes come in pairs, one untraced and one traced; the
layers are wrapped (see spans.py) only for the traced pass, so the
untraced one runs the program as it is.  Per-layer figures are per traced
pass, so counts repeat exactly for a seed; the overhead compares the two
kinds of pass.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time

from ready import setup
from speed import KERNEL_REF_S, kernel_s, scale_now

def make_inputs(workload, seed, count):
    from workloads import ROUND

    rng = random.Random(seed)
    out = []
    for r in range(-(-count // ROUND)):
        out.extend(workload.inputs(rng, r))
    return out


class Pass:
    """One pass over the inputs: raw seconds and scale per input (None where
    the operation raised), items, failures, first wrong output."""

    def __init__(self):
        self.times = []
        self.scales = []
        self.items = []
        self.failures = []
        self.error = None


def run_pass(workload, prelude, inputs, tracer=None):
    res = Pass()
    for i, inp in enumerate(inputs):
        k0 = kernel_s()
        if tracer is not None:
            tracer.op = i
            tracer.active = True
            frame = tracer.enter("op")
        t0 = time.perf_counter()
        try:
            out = workload.run(prelude, inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, dt = exc, None
        else:
            dt = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.exit(frame)
                tracer.active = False
        res.scales.append(2 * KERNEL_REF_S / (k0 + kernel_s()))
        res.times.append(dt)
        if dt is None:
            res.items.append(0)
            res.failures.append(f"{type(out).__name__}: {out}")
            continue
        items, err = workload.check(inp, out)
        res.items.append(items)
        if err and res.error is None:
            res.error = err
    return res


def _figures(per_input, items):
    spent = sum(per_input)
    return {
        "items_per_s": items / spent if spent else 0.0,
        "op_p50_ms": statistics.median(per_input) * 1e3,
        "op_p90_ms": statistics.quantiles(per_input, n=10)[8] * 1e3,
    }


def summarize(passes):
    """End-to-end figures from each input's mean time over the passes,
    scaled and raw."""
    scaled, raw = [], []
    items = 0
    for i in range(len(passes[0].times)):
        ok = [p for p in passes if p.times[i] is not None]
        if ok:
            scaled.append(statistics.fmean(p.times[i] * p.scales[i] for p in ok))
            raw.append(statistics.fmean(p.times[i] for p in ok))
            items += ok[0].items[i]
    out = {"items": items, "op_seconds": sum(scaled), "raw_op_seconds": sum(raw)}
    if len(scaled) >= 2:
        out.update(_figures(scaled, items))
        out.update({"raw_" + k: v for k, v in _figures(raw, items).items()})
    return out


def run_timed(workload, prelude, inputs, seconds, tracer=None):
    """Passes (pairs of untraced and traced passes with a tracer) until the
    next would end past S seconds; returns (untraced, traced) pass lists."""
    plain, traced = [], []
    t0 = time.perf_counter()
    last = 0.0
    while not plain or time.perf_counter() - t0 + last <= seconds:
        start = time.perf_counter()
        plain.append(run_pass(workload, prelude, inputs))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(workload, prelude, inputs, tracer))
            finally:
                tracer.uninstall()
        last = time.perf_counter() - start
    return plain, traced


def layer_metrics(tracer, traced, untraced, setup_scale):
    """Per-layer figures per traced pass, from its spans and counters, with
    times scaled like the end-to-end ones; set-up figures are from the one
    traced set-up."""
    t, c = tracer, tracer.counts
    passes = len(traced)
    scale = statistics.fmean(s for p in traced for s, dt in zip(p.scales, p.times) if dt is not None)
    S, O = "setup", "ops"

    def ops_self(*names):
        return t.self_s(O, *names) * scale / passes

    def ops_calls(*names):
        return t.calls(O, *names) / passes

    def setup_s(total, *names):
        return (t.total if total else t.self_s)(S, *names) * setup_scale

    engine_calls = ("engine.whnf", "engine.resolve_amb", "engine.collapse_star")
    useful, burnt = c["fuel.useful"] / passes, c["fuel.burnt"] / passes
    steps = useful + burnt
    tr, un = summarize(traced), summarize(untraced)
    code = ("compact.cell_min", "compact.cell_max")
    m = {
        "terms.parse_s": (setup_s(True, "terms.parse_defs"), "s"),
        "terms.compat_s": (setup_s(True, "terms.check_compatibility"), "s"),
        "prelude.load_s": (setup_s(False, "prelude.load_prelude"), "s"),
        "prelude.compile_s": (setup_s(True, "prelude.node"), "s"),
        "engine.load_calls": (ops_calls("engine.load"), "count"),
        "engine.load_s": (ops_self("engine.load"), "s"),
        "engine.load_cells": (c["engine.load_cells"] / passes, "count"),
        "engine.resolve_calls": (ops_calls("engine.resolve_amb"), "count"),
        "engine.resolve_s": (ops_self("engine.resolve_amb"), "s"),
        "engine.collapse_calls": (ops_calls("engine.collapse_star"), "count"),
        "engine.collapse_s": (ops_self("engine.collapse_star"), "s"),
        "engine.unresolved": (c["engine.unresolved"] / passes, "count"),
        "stepcore.fuel_used": (steps, "steps"),
        "stepcore.fuel_per_item": (steps / tr["items"] if tr["items"] else 0.0, "steps/item"),
        "stepcore.us_per_step": (ops_self(*engine_calls) * 1e6 / steps if steps else 0.0, "us"),
        "stepcore.burn_fuel": (burnt, "steps"),
        "stepcore.useful_fuel_ratio": (useful / steps if steps else 0.0, "ratio"),
        "codec.inject_s": (ops_self("codec.inject_sd", "codec.inject_gray"), "s"),
        "codec.extract_s": (ops_self("codec.extract_gray", "codec.extract_sd"), "s"),
        "codec.gray_encode_calls": (ops_calls("codec.gray_encode"), "count"),
        "codec.gray_encode_s": (ops_self("codec.gray_encode"), "s"),
        "compact.tree_nodes": (c["compact.SDTree"] / passes, "count"),
        "compact.convert_s": (ops_self("compact.grayk_to_sdk", "compact.sdk_to_grayk"), "s"),
        "compact.code_cells": (ops_calls(*code), "count"),
        "compact.code_s": (ops_self(*code), "s"),
        "intervals.sets_built": (ops_calls("intervals.IntervalSet"), "count"),
        "intervals.s": (ops_self("intervals.IntervalSet"), "s"),
        "runtime.gc_pause_s": (t.total(O, "runtime.gc") * scale / passes, "s"),
        "runtime.gc_collections": (ops_calls("runtime.gc"), "count"),
        "trace.items_per_s": (tr["items_per_s"], "items/s"),
        "trace.untraced_items_per_s": (un["items_per_s"], "items/s"),
        "trace.overhead_pct": (100 * (1 - tr["items_per_s"] / un["items_per_s"]), "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--inputs", type=int, help="inputs per pass, if not the workload's own")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-file", help="write the traced passes' spans here")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    prelude, setup_raw, compiled = setup(tracer)
    setup_scale = scale_now()
    result = {"setup_s": setup_raw * setup_scale, "raw_setup_s": setup_raw, "compiled": compiled}

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed, args.inputs or workload.per_pass)
    plain, traced = run_timed(workload, prelude, inputs, args.seconds, tracer)
    if tracer is None:
        result.update(summarize(plain))
    else:
        result.update(summarize(traced))
        result["layers"] = layer_metrics(tracer, traced, plain, setup_scale)
        result["spans"] = tracer.spans
        if args.trace_file:
            tracer.write(args.trace_file)
    every = plain + traced  # every pass counts, traced or not
    result["passes"] = len(every)
    result["attempted"] = sum(len(p.times) for p in every)
    result["failed"] = sum(len(p.failures) for p in every)
    result["errors"] = [f for p in every for f in p.failures][:5]
    result["check_error"] = next((p.error for p in every if p.error), None)
    result["correct"] = result["check_error"] is None
    result["speed"] = statistics.fmean(s for p in every for s in p.scales)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
