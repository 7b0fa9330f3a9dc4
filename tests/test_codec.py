import itertools
import random
from fractions import Fraction

import pytest

from ambreal.codec import (
    BOT_CELL,
    EPStream,
    extract_gray,
    extract_sd,
    gray_encode,
    gray_prefix,
    gray_prefix_set,
    inject_gray,
    inject_sd,
    parse_stream,
    sd_encode,
    sd_prefix,
    sd_prefix_interval,
    tent,
    DomainError,
    ShapeError,
)
from ambreal.engine import CON_, REC_, VAR_
from ambreal.intervals import IntervalSet, hausdorff_sets, parse_interval_set
from ambreal.terms import App, parse_term

from .conftest import random_rational


# ---------------------------------------------------------------------------
# tent and encoders


def test_tent_values():
    assert tent(0) == 1
    assert tent(Fraction(1, 3)) == Fraction(1, 3)
    assert tent(Fraction(-1, 2)) == 0
    with pytest.raises(DomainError):
        tent(2)


def test_sd_encode_examples():
    assert sd_encode(0).take(4) == [0, 0, 0, 0]
    stream = sd_encode(Fraction(1, 2))
    assert stream.take(4) == [1, 0, 0, 0]
    assert stream.pre == (1,) and stream.period == (0,)
    s13 = sd_encode(Fraction(1, 3))
    assert s13.pre == () and s13.period == (1, -1)
    assert s13.sd_value() == Fraction(1, 3)


def test_gray_encode_examples():
    assert gray_encode(0).take(4) == [BOT_CELL, 1, -1, -1]
    assert gray_encode(Fraction(1, 3)).take(4) == [1, 1, 1, 1]
    assert gray_encode(Fraction(-1, 2)).take(4) == [-1, BOT_CELL, 1, -1]
    assert gray_encode(1).take(4) == [1, -1, -1, -1]


def test_gray_cell_is_orbit_sign():
    rng = random.Random(7)
    for _ in range(50):
        x = random_rational(rng, 2**12)
        cells = gray_encode(x).take(32)
        cur = x
        for c in cells:
            assert c == (-1 if cur < 0 else (1 if cur > 0 else BOT_CELL))
            cur = 1 - 2 * abs(cur)


def test_at_most_one_bot_iff_dyadic():
    rng = random.Random(8)
    for _ in range(80):
        x = random_rational(rng, 2**10)
        cells = gray_encode(x).take(64)
        bots = [i for i, c in enumerate(cells) if c == BOT_CELL]
        assert len(bots) <= 1
        is_dyadic = (
            abs(x) < 1
            and (x.denominator & (x.denominator - 1)) == 0
            and x.denominator > 1
            or x == 0
        )
        if bots:
            j = bots[0]
            assert cells[j + 1] == 1
            assert all(c == -1 for c in cells[j + 2 : j + 10])
            assert is_dyadic
        else:
            assert not is_dyadic


def test_periodicity_bound():
    rng = random.Random(9)
    for _ in range(60):
        x = random_rational(rng, 2**10)
        s = sd_encode(x)
        assert len(s.pre) + len(s.period) <= 4 * x.denominator + 4
        g = gray_encode(x)
        assert len(g.pre) + len(g.period) <= 4 * x.denominator + 4


def _reference_orbit(x, cell, step, n):
    # the encoders' contract as a plain Fraction loop: the pre-period ends
    # where the orbit first revisits a state
    cells, seen, cur = [], {}, Fraction(x)
    while cur not in seen:
        seen[cur] = len(cells)
        cells.append(cell(cur))
        cur = step(cur)
    start = seen[cur]
    stream = EPStream(tuple(cells[:start]), tuple(cells[start:]))
    return stream.take(n), stream


def reference_sd_encode(x, n):
    def digit(v):
        return -1 if v <= Fraction(-1, 4) else (1 if v >= Fraction(1, 4) else 0)

    return _reference_orbit(x, digit, lambda v: 2 * v - digit(v), n)


def reference_gray_encode(x, n):
    return _reference_orbit(
        x,
        lambda v: -1 if v < 0 else (1 if v > 0 else BOT_CELL),
        lambda v: 1 - 2 * abs(v),
        n,
    )


def _encoder_inputs():
    thresholds = [Fraction(m, 4) for m in range(-4, 5)]
    dyadics = [Fraction(m, 2**k) for k in range(1, 13) for m in range(1 - 2**k, 2**k, 2)]
    rng = random.Random(12)
    rationals = [random_rational(rng, 2**12) for _ in range(300)]
    return thresholds + dyadics + rationals + [Fraction(-699051, 2**20 - 3)]


def test_encoders_match_fraction_reference():
    for x in _encoder_inputs():
        s, g = sd_encode(x), gray_encode(x)
        assert (s.take(48), s) == reference_sd_encode(x, 48), x
        assert (g.take(48), g) == reference_gray_encode(x, 48), x


def test_prefix_walks_match_the_encoders():
    # the thresholds m/4 are among the inputs
    for x in _encoder_inputs():
        sd, gray = sd_encode(x).take(48), gray_encode(x).take(48)
        for n in (0, 1, 5, 48):
            assert sd_prefix(x, n) == sd[:n], x
            assert gray_prefix(x, n) == gray[:n], x
    with pytest.raises(DomainError):
        sd_prefix(Fraction(3, 2), 4)


# ---------------------------------------------------------------------------
# prefix oracles


def test_sd_prefix_examples():
    assert sd_prefix_interval([]) == IntervalSet.full()
    assert sd_prefix_interval([1]) == IntervalSet([(0, 1)])
    assert sd_prefix_interval([1, 0]) == IntervalSet([(Fraction(1, 4), Fraction(3, 4))])


def test_gray_prefix_examples():
    assert gray_prefix_set([-1, 1]) == IntervalSet([(Fraction(-1, 2), 0)])
    assert gray_prefix_set([BOT_CELL, 1]) == IntervalSet(
        [(Fraction(-1, 2), Fraction(1, 2))]
    )
    assert gray_prefix_set([]) == IntervalSet.full()
    # paper family: g_-1 g_1 g_-1^n applied to the full interval
    for n in range(5):
        cells = [-1, 1] + [-1] * n
        assert gray_prefix_set(cells) == IntervalSet([(-Fraction(1, 2 ** (n + 1)), 0)])


def _gray_prefix_union(cells):
    # every resolution of the bot cells, each image of [-1,1] under the
    # gray maps g_c(x) = c(1 - x)/2 composed from the last cell in
    parts = []
    for signs in itertools.product((-1, 1), repeat=cells.count(BOT_CELL)):
        it = iter(signs)
        lo, hi = Fraction(-1), Fraction(1)
        for c in reversed([next(it) if c == BOT_CELL else c for c in cells]):
            lo, hi = sorted((c * (1 - lo) / 2, c * (1 - hi) / 2))
        parts.append((lo, hi))
    return IntervalSet(parts)


def test_gray_prefix_set_matches_brute_force_union():
    for n in range(7):
        for cells in itertools.product((-1, 1, BOT_CELL), repeat=n):
            assert gray_prefix_set(cells) == _gray_prefix_union(list(cells)), cells


def test_prefix_hull_examples():
    assert sd_prefix_interval([1, 0]).hull() == (Fraction(1, 4), Fraction(3, 4))
    assert gray_prefix_set([BOT_CELL, 1]).hull() == (-Fraction(1, 2), Fraction(1, 2))
    assert sd_prefix_interval([]).hull() == (-1, 1)


def test_oracle_containment_and_convergence():
    rng = random.Random(10)
    for _ in range(80):
        x = random_rational(rng, 2**16)
        n = rng.randint(1, 64)
        w = sd_prefix(x, n)
        s = sd_prefix_interval(w)
        assert s.contains(x)
        assert s.diameter() == Fraction(2, 2**n)
        cells = gray_prefix(x, n)
        g = gray_prefix_set(cells)
        assert g.contains(x)
        assert g.max() - g.min() <= Fraction(4, 2**n)


# ---------------------------------------------------------------------------
# streams, injection and extraction


def test_epstream_indexing():
    s = EPStream((1,), (0, -1))
    assert s.take(6) == [1, 0, -1, 0, -1, 0]


def test_stream_values():
    assert EPStream((), (1, -1)).sd_value() == Fraction(1, 3)
    g = gray_encode(Fraction(-3, 7))
    assert g.gray_value() == Fraction(-3, 7)
    g0 = gray_encode(0)
    assert g0.gray_value() == 0


def test_parse_stream():
    s = parse_stream("1;0", "sd")
    assert s.pre == (1,) and s.period == (0,)
    g = parse_stream("-1,_,1;-1", "gray")
    assert g.pre == (-1, BOT_CELL, 1) and g.period == (-1,)
    with pytest.raises(ValueError):
        parse_stream("2;0", "sd")


def test_inject_extract_sd_plain(prelude):
    # a plain digit spine is read through sd_emb, which makes it a racing-cons stream
    for spec in (EPStream((), (0,)), EPStream((1,), (0,)), EPStream((), (1, -1))):
        src = App(prelude.terms["sd_emb"], inject_sd(spec))
        got = extract_sd(prelude.engine, src, 6, 10**4)
        assert got == spec.take(6)


def test_inject_extract_gray_star(engine):
    g = gray_encode(Fraction(1, 3))
    got = extract_gray(engine, inject_gray(g, "star"), 4, 10**4)
    assert got == [1, 1, 1, 1]


def test_inject_gray_plain_bot_cell(engine):
    # gray_encode(0) = _ 1 (-1)^omega as a plain spine: cell 0 is literally
    # bot; cells 1, 2 are readable
    t = parse_term("Pair(bot, Pair(Right(Nil), rec (fun s -> Pair(Left(Nil), s))))")
    assert engine.observe(t, 4, 10**4) == (
        "Pair(<unresolved>, Pair(Right(Nil), Pair(Left(Nil), Pair(Left(...), Pair(...)))))"
    )


def test_loaded_stream_shares_cell_codes(engine):
    # equal cells compile to one code tuple per spine; each cell still
    # gets its own node when the spine is read
    stream = EPStream((1, 1, BOT_CELL), (-1, 1, -1, BOT_CELL, 1))
    code = engine.load(inject_gray(stream, "star")).code
    for cells in (stream.pre, stream.period):
        heads = {}
        while code[0] == CON_:
            head, code = code[2]
            heads.setdefault(head, set()).add(id(head))
        assert code[0] == REC_ or code[0] == VAR_
        assert len(heads) == len(set(cells))
        assert all(len(ids) == 1 for ids in heads.values())
        if code[0] == REC_:
            code = code[1][1]  # rec (fun s -> <period spine>)
    assert extract_gray(engine, inject_gray(stream, "star"), 8, 10**4) == [1, 1, None, -1, 1, -1, None, 1]


def test_inject_gray_star_bot_cell_unresolved(engine):
    g0 = gray_encode(0)
    got = extract_gray(engine, inject_gray(g0, "star"), 3, 10**4)
    assert got == [None, 1, -1]


def test_spine_ending_in_nil_is_a_shape_error(engine):
    with pytest.raises(ShapeError):
        extract_gray(engine, parse_term("Pair(Amb(Left(Right(Nil)), bot), Nil)"), 3, 10**4)
    # the second racing cons collapses to Nil
    t = parse_term("Amb(Left(Pair(Right(Nil), Amb(Left(Nil), bot))), bot)")
    with pytest.raises(ShapeError):
        extract_sd(engine, t, 3, 10**4)


def test_gray_cell_in_digit_place_is_a_shape_error(engine):
    with pytest.raises(ShapeError):
        extract_sd(engine, parse_term("Amb(Left(Pair(Left(Nil), bot)), bot)"), 2, 10**4)


def test_spine_ending_in_bot_pads_unresolved(engine):
    t = parse_term("Pair(Amb(Left(Left(Nil)), bot), bot)")
    assert inject_gray([-1]) == t  # a finite digit sequence ends in bot
    got = extract_gray(engine, t, 3, 10**4)
    assert got == [-1, None, None]


# ---------------------------------------------------------------------------
# interval sets


def test_interval_set_ops():
    s = parse_interval_set("[-1/2,1/4];[3/8,3/8]")
    assert s.intervals == ((Fraction(-1, 2), Fraction(1, 4)), (Fraction(3, 8), Fraction(3, 8)))
    assert s.contains(Fraction(3, 8)) and not s.contains(Fraction(5, 16))
    assert s.min() == Fraction(-1, 2) and s.max() == Fraction(3, 8)
    merged = IntervalSet([(0, Fraction(1, 2)), (Fraction(1, 2), 1)])
    assert merged.intervals == ((0, 1),)


def test_hausdorff_examples():
    A = IntervalSet.point(0)
    B = IntervalSet([(Fraction(-1, 2), Fraction(1, 2))])
    assert hausdorff_sets(A, B) == Fraction(1, 2)
    assert hausdorff_sets(B, B) == 0
    assert hausdorff_sets(IntervalSet([(-1, 0)]), IntervalSet([(0, 1)])) == 1


def test_hausdorff_gap_midpoint():
    # the sup sits strictly inside an interval, against a gap of the other set
    A = IntervalSet([(0, 1)])
    B = IntervalSet([(0, 0), (1, 1)])
    assert hausdorff_sets(A, B) == Fraction(1, 2)


def test_hausdorff_brute_force_agreement():
    rng = random.Random(11)
    from .conftest import random_compact

    for _ in range(30):
        A, B = random_compact(rng), random_compact(rng)
        exact = hausdorff_sets(A, B)
        # brute force on a fine dyadic grid, always a lower bound
        grid = [Fraction(i, 256) for i in range(-256, 257)]
        da = max(
            min(abs(x - y) for lo, hi in B.intervals for y in (lo, hi, min(max(x, lo), hi)))
            for x in grid
            if A.contains(x)
        )
        db = max(
            min(abs(x - y) for lo, hi in A.intervals for y in (lo, hi, min(max(x, lo), hi)))
            for x in grid
            if B.contains(x)
        )
        approx_d = max(da, db)
        assert approx_d <= exact <= approx_d + Fraction(1, 128)
