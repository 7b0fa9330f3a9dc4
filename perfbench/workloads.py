"""The four workloads: seeded inputs, the timed operation, the exact check.

An operation is one input converted to its full stated output.  Inputs
come in rounds of ROUND drawn from random.Random(seed), so a seed fixes
the sequence; a run makes whole passes over the first per_pass of them.
Inputs are made with the exact encoders of `reference`; the program sees
only the resulting digit tuples and interval lists.

A stream of denominator q has at most 2q + 1 cells (pre-period plus
period), so inputs have at most 513 cells in sd2gray and 8 193 in gray2sd,
under half the ~17 000-cell period at which `Engine.load` overflows the C
stack (it recurses once per Pair in `compile_term`).
"""

from __future__ import annotations

import random
from fractions import Fraction

from ambreal import codec, compact
from ambreal.intervals import IntervalSet

import reference

ROUND = 4
PER_PASS = 200  # inputs per pass: the mix of inputs, not the run, moves the figures most

SD2GRAY_CELLS = 8  # cells read per input
SD2GRAY_FUEL = 6000  # per cell; over 3x the most (1 875) a defined cell of 10 took over 1 560 inputs
SD2GRAY_MAX_DEN = 2**8
GRAY2SD_DIGITS = 32  # digits read per input
GRAY2SD_FUEL = 10**5  # per digit; never reached, nothing is burnt
GRAY2SD_MAX_DEN = 2**12
GRAY2SD_MAX_K = 12  # dyadics m/2^k, k up to 12
HYPER_DEPTH = 4
HYPER_FUEL = 10**4  # below Engine's 50 000 threshold, so the collector stays on
EXACT_DEPTH = 11
SET_DEN = 2**10  # interval endpoints are multiples of 2^-10
SET_MAX_PARTS = ROUND
CODE_CELLS = 4  # min/max code cells checked on the hyperspace Gray tree
ANY_AT_ZERO = (None, -1, 1)  # codes of least/greatest paths, not canonical streams


def _rational(rng: random.Random, max_den: int) -> Fraction:
    """A rational in (-1,1) that is not dyadic, so it has no unknown cell."""
    while True:
        den = rng.randint(3, max_den)
        x = Fraction(rng.randint(-den, den), den)
        if not reference.is_dyadic(x):
            return x


def _dyadic(rng: random.Random, k: int) -> Fraction:
    """An odd multiple of 2^-k in (-1,1): its orbit hits 0 at index k."""
    return Fraction(rng.randrange(-(2**k) + 1, 2**k, 2), 2**k)


def _stream_round(rng, r, max_den, max_k):
    """Three rationals and one dyadic; the dyadic's unknown-cell index
    cycles through 1..max_k so every run sees the same spread of burns."""
    xs = [_rational(rng, max_den) for _ in range(ROUND - 1)]
    xs.append(_dyadic(rng, 1 + r % max_k))
    return xs


class Sd2Gray:
    """Signed-digit streams through sd_emb + sd2gray, read cell by cell."""

    name = "sd2gray"
    per_pass = PER_PASS

    def inputs(self, rng, r):
        out = []
        for x in _stream_round(rng, r, SD2GRAY_MAX_DEN, SD2GRAY_CELLS - 1):
            pre, period = reference.sd_stream(x)
            out.append((x, codec.EPStream(pre, period)))
        return out

    def run(self, prelude, inp):
        e = prelude.engine
        src = e.apply(prelude.node("sd_emb"), e.load(codec.inject_sd(inp[1])))
        node = e.apply(prelude.node("sd2gray"), src)
        return codec.extract_gray(e, node, SD2GRAY_CELLS, SD2GRAY_FUEL)

    def check(self, inp, out):
        return len(out), reference.check_gray_cells(inp[0], out)


class Gray2Sd:
    """Star-wrapped Gray streams through gray2sd, read digit by digit."""

    name = "gray2sd"
    per_pass = PER_PASS

    def inputs(self, rng, r):
        out = []
        for x in _stream_round(rng, r, GRAY2SD_MAX_DEN, GRAY2SD_MAX_K):
            pre, period = reference.gray_stream(x)
            out.append((x, codec.EPStream(pre, period)))
        return out

    def run(self, prelude, inp):
        e = prelude.engine
        node = e.apply(prelude.node("gray2sd"), e.load(codec.inject_gray(inp[1], "star")))
        return codec.extract_sd(e, node, GRAY2SD_DIGITS, GRAY2SD_FUEL)

    def check(self, inp, out):
        return len(out), reference.check_sd_digits(inp[0], out)


def _sets(rng):
    """One union of each size from 1 to SET_MAX_PARTS intervals, with dyadic
    endpoints: the size sets the cost, so every round holds each size."""
    out = []
    for parts in range(1, SET_MAX_PARTS + 1):
        pts = sorted(Fraction(rng.randint(-SET_DEN, SET_DEN), SET_DEN) for _ in range(2 * parts))
        ivs = [(pts[2 * i], pts[2 * i + 1]) for i in range(parts)]
        out.append((ivs, IntervalSet(ivs)))
    return out


class Hyperspace:
    """The compact-set round trip through the engine:
    grayk_to_sdk(sdk_to_grayk(sd_tree(K)))."""

    name = "hyperspace"
    per_pass = PER_PASS

    def inputs(self, rng, r):
        return _sets(rng)

    def run(self, prelude, inp):
        G = compact.sdk_to_grayk(compact.sd_tree(inp[1]), prelude, HYPER_FUEL)
        return G, compact.grayk_to_sdk(G, HYPER_DEPTH)

    def check(self, inp, out):
        G, T = out
        nodes, err = reference.check_sd_tree(inp[0], T, HYPER_DEPTH)
        if err:
            return nodes, err
        lo, hi = inp[0][0][0], inp[0][-1][1]
        return nodes, (
            reference.check_gray_cells(lo, [G.cell_min(i) for i in range(CODE_CELLS)], ANY_AT_ZERO)
            or reference.check_gray_cells(hi, [G.cell_max(i) for i in range(CODE_CELLS)], ANY_AT_ZERO)
        )


class HyperspaceExact:
    """grayk_to_sdk on the exact Gray tree of K: no engine steps."""

    name = "hyperspace-exact"
    per_pass = 2 * PER_PASS  # cheap operations: more inputs steady the median

    def inputs(self, rng, r):
        return _sets(rng)

    def run(self, prelude, inp):
        return compact.grayk_to_sdk(compact.gray_lazy(inp[1]), EXACT_DEPTH)

    def check(self, inp, out):
        return reference.check_sd_tree(inp[0], out, EXACT_DEPTH)


WORKLOADS = {w.name: w for w in (Sd2Gray(), Gray2Sd(), Hyperspace(), HyperspaceExact())}
