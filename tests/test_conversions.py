"""Engine-driven conversions between the two stream representations.

The headline correctness content: every defined digit prefix read from
gray2sd names the encoded number (oracle containment), every defined cell
read from sd2gray equals the canonical gray cell, and the unknown cell of
a dyadic stays unresolved while its neighbours remain readable.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from ambreal import engine
from ambreal.codec import (
    BOT_CELL,
    extract_gray,
    extract_sd,
    gray_encode,
    gray2sd_node,
    gray_prefix,
    sd2gray_node,
    sd_encode,
    sd_prefix_interval,
)

from .conftest import random_dyadic, random_rational


def run_sd2gray(prelude, x, n, fuel=10**5):
    return extract_gray(prelude.engine, sd2gray_node(prelude, sd_encode(x)), n, fuel)


def run_gray2sd(prelude, x, n, fuel=10**5):
    return extract_sd(prelude.engine, gray2sd_node(prelude, gray_encode(x)), n, fuel)


CASES = [
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
    Fraction(-2, 3),
    Fraction(3, 7),
    Fraction(-5, 8),
    Fraction(7, 16),
    Fraction(355, 1024),
    Fraction(-22, 123),
]


@pytest.mark.parametrize("x", CASES, ids=str)
def test_gray_to_sd_oracle(prelude, x):
    digs = run_gray2sd(prelude, x, 16)
    assert all(d is not None for d in digs)
    for i in range(1, len(digs) + 1):
        assert sd_prefix_interval(digs[:i]).contains(x)


@pytest.mark.parametrize("x", CASES, ids=str)
def test_sd_to_gray_matches_canonical(prelude, x):
    n = 12
    cells = run_sd2gray(prelude, x, n)
    oracle = gray_prefix(x, n)
    for got, want in zip(cells, oracle):
        if want == BOT_CELL:
            assert got is None
        else:
            assert got == want


def test_sd2gray_half(prelude):
    assert run_sd2gray(prelude, Fraction(1, 2), 4) == [1, None, 1, -1]


def test_gray2sd_zero(prelude):
    assert run_gray2sd(prelude, Fraction(0), 4) == [0, 0, 0, 0]


def test_gray2sd_one(prelude):
    assert run_gray2sd(prelude, Fraction(1), 4) == [1, 1, 1, 1]


def test_bot_cell_independence_at_zero(prelude):
    # x = 0: cell 0 never resolves, cells 1..8 do
    cells = extract_gray(prelude.engine, sd2gray_node(prelude, sd_encode(Fraction(0))), 9, 10**4)
    assert cells[0] is None
    oracle = gray_prefix(Fraction(0), 9)
    assert cells[1:] == oracle[1:]


def test_random_roundtrip_small_corpus(prelude):
    rng = random.Random(20)
    xs = [random_rational(rng, 2**10) for _ in range(15)] + [
        random_dyadic(rng, 8) for _ in range(5)
    ]
    for x in xs:
        digs = run_gray2sd(prelude, x, 10)
        assert all(d is not None for d in digs)
        assert sd_prefix_interval(digs).contains(x)
        cells = run_sd2gray(prelude, x, 8)
        oracle = gray_prefix(x, 8)
        for got, want in zip(cells, oracle):
            assert (got is None) == (want == BOT_CELL) and (got is None or got == want)


def test_unresolved_cell_stays_unresolved_across_fuels(prelude):
    # dyadic: the unknown position must not resolve however much fuel we pour
    x = Fraction(3, 8)
    oracle = gray_prefix(x, 8)
    j = oracle.index(BOT_CELL)
    for fuel in (10**3, 10**5):
        cells = run_sd2gray(prelude, x, j + 1, fuel=fuel)
        assert cells[j] is None


@pytest.mark.parametrize("x", [Fraction(5, 16), Fraction(-3, 64), Fraction(1, 2)])
def test_unknown_cell_cut_off(prelude, x):
    # the unknown cell diverges, and the collapse's recurrence cut-off
    # says so within a few thousand ticks of a 10^7 budget
    j = gray_prefix(x, 8).index(BOT_CELL)
    e = prelude.engine
    node = sd2gray_node(prelude, sd_encode(x))
    for _ in range(j):
        node = e.resolve_amb(node, 10**5)[0][2][1]
    cell = e.resolve_amb(node, 10**5)[0][2][0]
    v, left = e.collapse_star(cell, 10**7)
    assert v is None and 10**7 - left <= 4 * engine.CHECK_WORK


LONG_PERIOD = """
from ambreal.codec import EPStream, extract_gray, sd2gray_node
from ambreal.prelude import load_prelude

p = load_prelude()
node = sd2gray_node(p, EPStream((), (1, 0, -1) * 40000))
print(extract_gray(p.engine, node, 6, 10**5))
"""


def test_long_period_stream_loads():
    # 120 000 spine cells: loading must not recurse once per cell.  A child
    # interpreter keeps a stack overflow from taking the test run down.
    import ambreal

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(list(ambreal.__path__)[0]), env.get("PYTHONPATH", "")]
    )
    run = subprocess.run(
        [sys.executable, "-c", LONG_PERIOD], env=env, capture_output=True, text=True, timeout=600
    )
    assert run.returncode == 0, run.stderr[-2000:]
    # (1, 0, -1) repeated has the value of its one-period stream, 3/7
    assert run.stdout.split("\n")[0] == str(gray_prefix(Fraction(3, 7), 6))
