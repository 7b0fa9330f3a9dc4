"""The benchmark's own tests: workloads run, checks reject corrupt outputs.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import reference
import workloads
import worker
from spans import Tracer

from ambreal import compact
from ambreal.intervals import IntervalSet

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_names_what_the_code_runs():
    bench = _bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_to_its_end(prelude, name):
    w = workloads.WORKLOADS[name]
    res = worker.run_pass(w, prelude, worker.make_inputs(w, 3, 4))
    assert res.error is None and not res.failures
    assert len(res.times) == 4 and all(n > 0 for n in res.items)


def _first(workload, want=lambda x: True, seed=5):
    rng = random.Random(seed)
    for r in range(50):
        for inp in workload.inputs(rng, r):
            if want(inp[0]):
                return inp
    raise AssertionError("no such input")


def test_sd2gray_check(prelude):
    w = workloads.WORKLOADS["sd2gray"]
    inp = _first(w, reference.is_dyadic)
    out = w.run(prelude, inp)
    assert w.check(inp, out)[1] is None
    for guess in (-1, 1):  # the unknown cell resolved either way
        assert w.check(inp, [guess if c is None else c for c in out])[1] is not None
    flipped = list(out)
    k = next(i for i, c in enumerate(out) if c is not None)
    flipped[k] = -flipped[k]
    assert w.check(inp, flipped)[1] is not None


def test_gray2sd_check(prelude):
    w = workloads.WORKLOADS["gray2sd"]
    inp = _first(w, reference.is_dyadic)
    out = w.run(prelude, inp)
    assert w.check(inp, out)[1] is None
    for k in (0, len(out) // 2, len(out) - 3):
        bad = list(out)
        bad[k] = 1 if out[k] <= 0 else -1
        assert w.check(inp, bad)[1] is not None
    assert w.check(inp, out[:-1] + [None])[1] is not None


def _drop_child(tree):
    """Remove one child below the root, keeping the parent's digit set."""
    node = tree.child(min(tree.digits))
    node._kids.pop(max(node.digits))
    return tree


def test_hyperspace_check(prelude):
    w = workloads.WORKLOADS["hyperspace"]
    inp = _first(w)
    G, T = w.run(prelude, inp)
    assert w.check(inp, (G, T))[1] is None
    assert w.check(inp, (G, _drop_child(T)))[1] is not None

    class FlippedMin:
        def cell_min(self, i):
            return -G.cell_min(i) if i == 0 else G.cell_min(i)

        def cell_max(self, i):
            return G.cell_max(i)

    class StarvedMin(FlippedMin):  # deeper cells left Unresolved, as by too little fuel
        def cell_min(self, i):
            return G.cell_min(i) if i < 2 else None

    lo = inp[0][0][0]
    if lo != 0:  # cell 0 of min K is its sign, so flipping it excludes min K
        assert w.check(inp, (FlippedMin(), w.run(prelude, inp)[1]))[1] is not None
    if 0 not in reference.tent_signs(lo, workloads.CODE_CELLS):
        assert w.check(inp, (StarvedMin(), w.run(prelude, inp)[1]))[1] is not None


def test_hyperspace_exact_check(prelude):
    w = workloads.WORKLOADS["hyperspace-exact"]
    inp = _first(w)
    T = w.run(prelude, inp)
    assert w.check(inp, T)[1] is None
    assert w.check(inp, _drop_child(w.run(prelude, inp)))[1] is not None
    # a tree of the whole of [0,1] is far from a set that reaches below -1/2
    far = ([(Fraction(-1), Fraction(-3, 4))], None)
    whole = compact.grayk_to_sdk(compact.gray_lazy(IntervalSet([(0, 1)])), workloads.EXACT_DEPTH)
    assert w.check(far, whole)[1] is not None


def test_reference_streams():
    assert reference.sd_stream(Fraction(1, 3)) == ((), (1, -1))
    pre, period = reference.gray_stream(Fraction(3, 8))
    assert (pre + period * 4)[:6] == (1, 1, 1, 0, 1, -1)
    assert reference.tent_signs(Fraction(1, 2), 4) == [1, 0, 1, -1]
    assert reference.check_gray_cells(Fraction(1, 2), [1, None, 1, -1]) is None
    assert reference.check_gray_cells(Fraction(1, 2), [1, -1, 1, -1]) is not None
    assert reference.check_gray_cells(Fraction(1, 2), [1, -1, 1, -1], (None, -1, 1)) is None
    assert reference.check_gray_cells(Fraction(1, 2), [1, None, 1, None], (None, -1, 1)) is not None
    assert reference.check_sd_digits(Fraction(1, 3), [1, 0, -1, 0, -1]) is None
    assert reference.check_sd_digits(Fraction(1, 3), [1, 1]) is not None


def test_reference_hausdorff():
    A = [(Fraction(0), Fraction(1, 4)), (Fraction(3, 4), Fraction(1))]
    assert reference.hausdorff(A, [(Fraction(0), Fraction(1))]) == Fraction(1, 4)
    assert reference.hausdorff(A, A) == 0
    assert reference.hausdorff([(Fraction(-1), Fraction(-1))], [(Fraction(1), Fraction(1))]) == 2


def test_tracer_self_time_and_restore():
    import ambreal.codec as codec

    orig = codec.inject_sd
    t = Tracer()
    t.install()
    assert codec.inject_sd is not orig
    t.active, t.op = True, 0
    outer = t.enter("outer")
    inner = t.enter("inner")
    t.exit(inner)
    t.exit(outer)
    t.active = False
    t.uninstall()
    assert codec.inject_sd is orig
    o, i = t.agg["ops", "outer"], t.agg["ops", "inner"]
    assert o[1] == o[2] + i[1] and i[1] == i[2]
    assert list(t.span_parent) == [-1, 0]


def test_untraced_passes_run_unwrapped(prelude):
    import ambreal.codec as codec

    orig = codec.inject_sd
    w = workloads.WORKLOADS["sd2gray"]
    inputs = worker.make_inputs(w, 3, 4)
    t = Tracer()
    seen = []
    run_pass = worker.run_pass

    def spy(*args):
        seen.append(codec.inject_sd is orig)
        return run_pass(*args)

    worker.run_pass = spy
    try:
        plain, traced = worker.run_timed(w, prelude, inputs, 0, t)
    finally:
        worker.run_pass = run_pass
    assert seen == [True, False] and len(plain) == len(traced) == 1
    assert codec.inject_sd is orig
    assert t.calls("ops", "codec.inject_sd") == len(inputs)


def _worker_json(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_reports_every_per_layer_metric_and_repeats():
    run = ("--workload", "sd2gray", "--seed", "7", "--inputs", "4", "--seconds", "0", "--trace")
    a, b = (_worker_json(*run) for _ in range(2))
    names = [m["name"] for m in _bench_json()["per_layer"]]
    assert sorted(a["layers"]) == sorted(names)
    assert a["layers"]["stepcore.fuel_used"]["value"] > 0
    assert a["layers"]["stepcore.burn_fuel"]["value"] == workloads.SD2GRAY_FUEL
    assert a["layers"]["stepcore.fuel_used"] == b["layers"]["stepcore.fuel_used"]


def test_run_prints_end_to_end_metrics(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hyperspace-exact",
         "--seed", "2", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= workloads.PER_PASS
    assert sorted(res["metrics"]) == sorted(m["name"] for m in _bench_json()["end_to_end"])


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sd2gray", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
