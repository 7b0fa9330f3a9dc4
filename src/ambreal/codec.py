"""Signed-digit and Gray-code representations of rationals in [-1,1].

The canonical encoders walk the orbits of x -> 2x-d and of the tent map on
the integer numerator of x over its fixed denominator and return
eventually periodic streams (a rational orbit revisits a state after at
most ~2*denominator steps).  Prefix oracles map finite digit words to
exact interval sets; they are the ground truth every engine-level
conversion is checked against.

Digit conventions, here and in term encodings:

    signed digit   -1, 0, +1        Left(Left(Nil)) / Right(Nil) / Left(Right(Nil))
    gray cell      -1, +1, bot      Left(Nil) / Right(Nil) / divergence

Gray cell i of x is the sign of t^i(x) where t(x) = 1 - 2|x|; the cell is
bot exactly when that iterate is 0, which happens at most once and only
for dyadic x in (-1,1).

This module is the one boundary between digit streams and the graph
machine.  The injectors take an EPStream (a Pair spine whose period is a
rec loop) or a finite digit sequence (that prefix and a bot tail), with
plain signed digits or racing Gray cells as heads.  sd2gray_node and
gray2sd_node hold the prelude's recipes for the two conversions.  The
readers take the two shapes that come out: read_gray and extract_gray a
G* stream (plain conses of racing cells), extract_sd an S* stream
(racing conses of plain digits).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .intervals import IntervalSet
from .terms import BOT, Con, Lam, Rec, Term, Var

BOT_CELL = 0  # the unknown-cell marker in gray digit lists


class DomainError(ValueError):
    pass


class ShapeError(Exception):
    """A stream value had the wrong constructor structure."""


def _check_domain(x) -> Fraction:
    x = Fraction(x)
    if abs(x) > 1:
        raise DomainError(f"{x} outside [-1,1]")
    return x


def tent(x) -> Fraction:
    x = _check_domain(x)
    return 1 - 2 * abs(x)


# ---------------------------------------------------------------------------
# eventually periodic streams


@dataclass(frozen=True)
class EPStream:
    """pre . period^omega over some digit alphabet (ints)."""

    pre: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")

    def __getitem__(self, i: int) -> int:
        if i < len(self.pre):
            return self.pre[i]
        return self.period[(i - len(self.pre)) % len(self.period)]

    def take(self, n: int) -> list:
        return [self[i] for i in range(n)]

    def sd_value(self) -> Fraction:
        """Exact value of a signed-digit stream: sum of w_i * 2^-(i+1)."""
        k = len(self.period)
        per = sum(Fraction(d, 2 ** (i + 1)) for i, d in enumerate(self.period))
        tail = per / (1 - Fraction(1, 2**k))
        val = tail
        for d in reversed(self.pre):
            val = (val + d) / 2
        return val

    def gray_value(self) -> Fraction:
        """Exact value of a gray stream; bot cells resolve to either branch."""
        # compose the affine cell maps over pre + one period, then take the
        # fixed point of the period part: each map is x -> -c(x-1)/2
        a, b = Fraction(1), Fraction(0)  # running composition f(x) = a*x+b
        for c in self.period:
            cc = -1 if c == BOT_CELL else c
            # g_c(x) = -c*(x-1)/2, composed on the inside
            a, b = a * Fraction(-cc, 2), a * Fraction(cc, 2) + b
        x = b / (1 - a)
        for c in reversed(self.pre):
            cc = -1 if c == BOT_CELL else c
            x = Fraction(-cc, 2) * (x - 1)
        return x


def parse_digits(text: str, rep: str) -> tuple:
    """Comma-separated digits of rep ("sd" or "gray"), "_" for a gray bot cell."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok == "_":
            if rep != "gray":
                raise ValueError("bot cell only exists in gray streams")
            out.append(BOT_CELL)
        else:
            try:
                d = int(tok)
            except ValueError:
                d = None
            if rep == "sd" and d not in (-1, 0, 1):
                raise ValueError(f"bad signed digit {tok}")
            if rep == "gray" and d not in (-1, 1):
                raise ValueError(f"bad gray cell {tok}")
            out.append(d)
    return tuple(out)


def parse_stream(text: str, rep: str) -> EPStream:
    """CLI stream literal "pre;period" of parse_digits lists."""
    if ";" in text:
        pre, per = text.split(";", 1)
        return EPStream(parse_digits(pre, rep), parse_digits(per, rep))
    return EPStream((), parse_digits(text, rep))


# ---------------------------------------------------------------------------
# canonical encoders


def _orbit(x, step) -> EPStream:
    """Walk the orbit of x = a/q on the integer numerator a until a state
    repeats; step(a, q) gives the cell of a and the next numerator, whose
    denominator stays q.  Returns the eventually periodic stream."""
    x = _check_domain(x)
    a, q = x.numerator, x.denominator
    cells = []
    seen = {}
    while a not in seen:
        seen[a] = len(cells)
        c, a = step(a, q)
        cells.append(c)
    start = seen[a]
    return EPStream(tuple(cells[:start]), tuple(cells[start:]))


def _sd_step(a, q):
    d = -1 if 4 * a <= -q else (1 if 4 * a >= q else 0)
    return d, 2 * a - d * q


def _gray_step(a, q):
    return (-1 if a < 0 else (1 if a > 0 else BOT_CELL)), q - 2 * abs(a)


def _prefix(x, step, n: int) -> list:
    """The first n cells of the orbit of x = a/q: n steps, no period
    search, so the cost follows n and not the denominator."""
    x = _check_domain(x)
    a, q = x.numerator, x.denominator
    cells = []
    for _ in range(n):
        c, a = step(a, q)
        cells.append(c)
    return cells


def sd_prefix(x, n: int) -> list:
    """First n signed digits of x, as sd_encode(x).take(n)."""
    return _prefix(x, _sd_step, n)


def gray_prefix(x, n: int) -> list:
    """First n gray cells of x, as gray_encode(x).take(n)."""
    return _prefix(x, _gray_step, n)


def sd_encode(x) -> EPStream:
    """The eventually periodic signed-digit stream of x.

    Digit choice: -1 below -1/4, +1 above 1/4, else 0; then recurse on
    2x - d.  Thresholds are symmetric so negation flips digits exactly.
    """
    return _orbit(x, _sd_step)


def gray_encode(x) -> EPStream:
    """The eventually periodic gray stream of x (signs of the tent orbit)."""
    return _orbit(x, _gray_step)


# ---------------------------------------------------------------------------
# prefix oracles


def sd_prefix_interval(w: Sequence[int]) -> IntervalSet:
    """Exact image of [-1,1] under the affine maps of a signed digit word,
    in one integer pass: endpoint numerators over q = 2^len(w)."""
    lo, hi, q = -1, 1, 1
    for d in reversed(list(w)):
        # (a/q + d)/2 = (a + d*q)/(2q)
        lo, hi, q = lo + d * q, hi + d * q, 2 * q
    return IntervalSet([(Fraction(lo, q), Fraction(hi, q))])


def gray_prefix_set(cells: Sequence[int]) -> IntervalSet:
    """Union over all resolutions of bot cells of the gray map images, in
    one integer pass: endpoint numerators over q = 2^len(cells).  Meeting
    intervals are merged after each cell (each g_c maps a union to the
    union of the images), so k bot cells cost no 2^k branches."""
    sets, q = [(-1, 1)], 1
    for c in reversed(list(cells)):
        branches = (-1, 1) if c == BOT_CELL else (c,)
        # g_c(a/q) = -c*(a/q - 1)/2 = c*(q - a)/(2q)
        images = sorted(tuple(sorted((cc * (q - lo), cc * (q - hi)))) for lo, hi in sets for cc in branches)
        sets = images[:1]
        for lo, hi in images[1:]:
            if lo <= sets[-1][1]:
                sets[-1] = (sets[-1][0], max(sets[-1][1], hi))
            else:
                sets.append((lo, hi))
        q *= 2
    return IntervalSet([(Fraction(lo, q), Fraction(hi, q)) for lo, hi in sets])


# ---------------------------------------------------------------------------
# term encodings of digits and streams

SD_TERMS = {
    -1: Con("Left", (Con("Left", (Con("Nil", ()),)),)),
    1: Con("Left", (Con("Right", (Con("Nil", ()),)),)),
    0: Con("Right", (Con("Nil", ()),)),
}
# Gray cells as stream heads: the finite iteration Amb(Left(cell), bot),
# with Amb(bot, bot) for the bot cell.  One term object per cell, so a
# stream shares its cells' terms and Engine.load compiles each once.
GRAY_STAR_TERMS = {
    -1: Con("Amb", (Con("Left", (Con("Left", (Con("Nil", ()),)),)), BOT)),
    1: Con("Amb", (Con("Left", (Con("Right", (Con("Nil", ()),)),)), BOT)),
    BOT_CELL: Con("Amb", (BOT, BOT)),
}


def _inject(cells: dict, stream) -> Term:
    """The Pair spine of the cells' terms: an EPStream as its prefix and a
    rec-defined loop of its period, a finite digit sequence as itself and
    a bot tail."""

    def spine(digits, tail):
        for c in reversed(digits):
            tail = Con("Pair", (cells[c], tail))
        return tail

    if isinstance(stream, EPStream):
        return spine(stream.pre, Rec(Lam("s", spine(stream.period, Var("s")))))
    return spine(stream, BOT)


def inject_sd(stream) -> Term:
    """A plain signed-digit spine: the digits themselves as heads."""
    return _inject(SD_TERMS, stream)


def inject_gray(stream, wrap: str = "star") -> Term:
    """A Gray spine of racing cells (GRAY_STAR_TERMS); "star" is the only wrap."""
    if wrap != "star":
        raise ValueError(wrap)
    return _inject(GRAY_STAR_TERMS, stream)


def sd2gray_node(prelude, stream):
    """The prelude's sd2gray applied through sd_emb to a signed-digit stream."""
    e = prelude.engine
    return e.apply(prelude.node("sd2gray"), e.apply(prelude.node("sd_emb"), e.load(inject_sd(stream))))


def gray2sd_node(prelude, stream):
    """The prelude's gray2sd applied to a Gray stream."""
    e = prelude.engine
    return e.apply(prelude.node("gray2sd"), e.load(inject_gray(stream)))


# ---------------------------------------------------------------------------
# extraction back out of the engine


# Left / Right as a Gray cell, and under a signed digit's outer Left
_SIGNS = {"Left": -1, "Right": 1}


def _sd_digit(engine, node, fuel) -> Optional[int]:
    """Decode one digit with at most two resolve_amb calls: Right(_) is 0,
    Left(Left(_)) is -1, Left(Right(_)) is +1; None while Unresolved."""
    view, _left = engine.resolve_amb(node, fuel)
    if view is None:
        return None
    if view[1] == "Right":
        return 0
    if view[1] == "Left":
        inner, _left = engine.resolve_amb(view[2][0], fuel)
        if inner is None:
            return None
        if inner[1] in _SIGNS:
            return _SIGNS[inner[1]]
        raise ShapeError(f"not a signed digit: Left({inner[1]})")
    raise ShapeError(f"not a signed digit: {view[1]}")


def _gray_cell(engine, node, fuel) -> Optional[int]:
    """Decode one racing Gray cell by collapsing it; None while Unresolved."""
    view, _left = engine.collapse_star(node, fuel)
    if view is None:
        return None
    if view[1] not in _SIGNS:
        raise ShapeError(f"not a gray cell: {view[1]}")
    return _SIGNS[view[1]]


def _read(engine, node, n: int, fuel, cons, cell) -> tuple:
    """Read up to n cells off a Pair spine, driving each cons with cons and
    decoding its head with cell, each on a fresh budget.  Returns the cells
    and the spine node after them, or None for it (and fewer cells) where
    the spine stays Unresolved, so that reading can go on where it stopped."""
    out = []
    while len(out) < n:
        view, _left = cons(node, fuel)
        if view is None:
            return out, None
        kind, tag, kids = view
        if tag != "Pair":
            raise ShapeError(f"stream cons resolved to {tag}")
        out.append(cell(engine, kids[0], fuel))
        node = kids[1]
    return out, node


def read_gray(engine, source, n: int, fuel) -> tuple:
    """_read on a G* stream: plain conses of racing cells."""
    return _read(engine, source, n, fuel, engine.resolve_amb, _gray_cell)


def extract_gray(engine, source, n: int, fuel) -> list:
    """Read n gray cells from a G* stream; None marks Unresolved."""
    out, _tail = read_gray(engine, source, n, fuel)
    return out + [None] * (n - len(out))


def extract_sd(engine, source, n: int, fuel) -> list:
    """Read n signed digits from an S* stream (racing conses of plain
    digits); None marks Unresolved."""
    out, _tail = _read(engine, source, n, fuel, engine.collapse_star, _sd_digit)
    return out + [None] * (n - len(out))
