"""Command line surface: encode, convert, eval, tree, oracle.

Exit codes: 0 on success, 1 when the final answer is Unresolved, 2 on
usage or parse errors.  Unresolved digits print as "?", semantic unknown
cells (Gray bot) as "_"; rationals print as p/q.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .codec import (
    BOT_CELL,
    extract_gray,
    extract_sd,
    gray2sd_node,
    gray_encode,
    gray_prefix,
    gray_prefix_set,
    parse_digits,
    parse_stream,
    sd_encode,
    sd_prefix,
    sd_prefix_interval,
    sd2gray_node,
)
from .compact import (
    grayk_to_sdk,
    gray_lazy,
    hausdorff_trunc,
    sd_tree,
    sdk_to_grayk,
    tree_value_set,
)
from .engine import UNRESOLVED_TEXT, ObservationTooLarge
from .intervals import parse_interval_set
from .prelude import load_prelude
from .terms import ParseError, TermError, parse_defs

DEFAULT_FUEL = 10**6
DEFAULT_DEPTH = 16
# deepest tree that tree ... encode|convert prints: a dump has up to 3^depth
# nodes ([-1,1] has that many), so depth 12 is already ~17 MB of text
DUMP_DEPTH_LIMIT = 12
# most digits that encode prints with their hull, deepest tree ... value and
# longest oracle prefix: each prints exact endpoints of up to N+1 bits, and
# Python prints an int of at most 4 300 decimal digits (~14 280 bits) by
# default
ENCODE_DIGIT_LIMIT = 10_000
# largest denominator of a convert --value between sd and gray, and of the
# endpoints of a tree that encodes Gray codes: periods can be as long as twice
# it (1/262139 has a 262 138-digit signed-digit period: ~1.6 s and ~100 MB)
VALUE_DENOMINATOR_LIMIT = 2**18
# most digits convert reads through the engine, by source: sd to gray
# spends ticks quadratic in the digits (100 digits of 1/3: ~4 s and
# ~60 MB), gray to sd linear ones (10 000 digits: ~4.5 s and <100 MB)
CONVERT_DIGIT_LIMIT = {"sd": 100, "gray": 10_000}
DIGITS_FORMAT = "comma-separated digits (-1, 0, 1 in sd; -1, 1 and _ for a bot cell in gray)"


class CliError(Exception):
    pass


def _frac(text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}: {exc}") from None


def _digit_str(d, rep) -> str:
    if d is None:
        return "?"
    if rep == "gray" and d == BOT_CELL:
        return "_"
    return str(d)


def _parse(parse, text, rep, where):
    """parse(text, rep), with a digit literal's error naming where it came from."""
    try:
        return parse(text, rep)
    except ValueError as exc:
        raise CliError(f"{where} {text!r}: {exc}; use {DIGITS_FORMAT}, pre;period for a stream") from None


def _gray_text(cells, bots, missed) -> str:
    """Engine Gray cells against the exact code: Unresolved prints "_" where
    bots says the exact cell is bot, else "?", whose index joins missed."""
    missed.extend(i for i, (c, bot) in enumerate(zip(cells, bots)) if c is None and not bot)
    return " ".join("_" if c is None and bot else _digit_str(c, "gray") for c, bot in zip(cells, bots))


# ---------------------------------------------------------------------------
# subcommands


def cmd_encode(args) -> int:
    x = _frac(args.value)
    n = args.digits
    if n > ENCODE_DIGIT_LIMIT:
        raise CliError(f"encode prints {n} digits and their hull; the limit is {ENCODE_DIGIT_LIMIT}")
    if args.rep == "sd":
        digits = sd_prefix(x, n)
        hull = sd_prefix_interval(digits)
    else:
        digits = gray_prefix(x, n)
        hull = gray_prefix_set(digits)
    print(" ".join(_digit_str(d, args.rep) for d in digits))
    lo, hi = hull.hull()
    print(f"[{lo},{hi}]")
    return 0


def _input_stream(args, rep) -> tuple:
    """Returns (stream, exact value)."""
    if args.stream is not None:
        stream = _parse(parse_stream, args.stream, rep, "--stream")
        value = stream.sd_value() if rep == "sd" else stream.gray_value()
        return stream, value
    x = _frac(args.value)
    if x.denominator > VALUE_DENOMINATOR_LIMIT:
        raise CliError(f"--value {x} has denominator {x.denominator}; the limit is {VALUE_DENOMINATOR_LIMIT}")
    return (sd_encode if rep == "sd" else gray_encode)(x), x


def cmd_convert(args) -> int:
    src, dst = args.source, args.target
    n = args.digits
    fuel = args.fuel
    if src == dst:
        # the input itself: no period search for a --value, no prelude
        if args.value is not None:
            out = (sd_prefix if src == "sd" else gray_prefix)(_frac(args.value), n)
        else:
            out = _input_stream(args, src)[0].take(n)
        print(" ".join(_digit_str(d, dst) for d in out))
        return 0
    limit = CONVERT_DIGIT_LIMIT[src]
    if n > limit:
        raise CliError(f"convert {src} {dst} reads {n} digits through the engine; the limit is {limit}")

    stream, x = _input_stream(args, src)
    prelude = load_prelude()
    e = prelude.engine

    if src == "sd":
        missed = []
        cells = extract_gray(e, sd2gray_node(prelude, stream), n, fuel)
        print(_gray_text(cells, [c == BOT_CELL for c in gray_prefix(x, n)], missed))
        return 1 if missed else 0

    digits = extract_sd(e, gray2sd_node(prelude, stream), n, fuel)
    print(" ".join(_digit_str(d, "sd") for d in digits))
    return 0 if all(d is not None for d in digits) else 1


def cmd_eval(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        src = fh.read()
    prelude = load_prelude()
    try:
        defs, main = parse_defs(src, dict(prelude.terms))
        if main is None:
            raise CliError(f"{args.file}: no main")
        obs = prelude.engine.observe(main, args.depth, args.fuel, args.policy)
    except RecursionError:  # parse_defs reports its own as a ParseError
        raise CliError(f"{args.file}: a term is nested too deeply") from None
    except ObservationTooLarge as exc:
        raise CliError(f"{args.file}: {exc}; lower --depth or --fuel") from None
    print(obs)
    return 1 if obs == UNRESOLVED_TEXT else 0


def _dump_sd(tree, depth) -> str:
    ds = ",".join(str(d) for d in sorted(tree.digits))
    if depth == 0:
        return f"(E={ds})"
    kids = " ".join(
        f"(child {d} {_dump_sd(tree.child(d), depth - 1)})" for d in sorted(tree.digits)
    )
    return f"(E={ds} {kids})" if kids else f"(E={ds})"


def _dump_gray(node, exact, depth, cells, missed) -> str:
    """A Gray tree to depth, with the first cells cells of each code, each
    printed against exact, gray_lazy of the same set walked alongside."""

    def code(cell, exact_cell):
        bots = [exact_cell(i) is None for i in range(cells)]
        return _gray_text([cell(i) for i in range(cells)], bots, missed)

    parts = [f"min={code(node.cell_min, exact.cell_min)}", f"max={code(node.cell_max, exact.cell_max)}"]
    if depth > 0:
        for d, name in ((-1, "L"), (1, "R")):
            if node.has_child(d):
                kid = _dump_gray(node.child(d), exact.child(d), depth - 1, cells, missed)
                parts.append(f"({name} {kid})")
    return "(" + " ".join(parts) + ")"


def cmd_tree(args) -> int:
    K = parse_interval_set(args.set)
    if not K:
        raise CliError("empty set")
    depth = args.depth
    action = args.action
    # restriction and the tent maps never raise a denominator, so the
    # root's endpoints bound every Gray code the tree encodes
    q = max(x.denominator for iv in K.intervals for x in iv)
    if (args.rep == "grayk" or action == "convert") and q > VALUE_DENOMINATOR_LIMIT:
        limit = VALUE_DENOMINATOR_LIMIT
        raise CliError(f"{args.set} has endpoint denominator {q}; the Gray code limit is {limit}")

    # every reader below stops at depth; the trees themselves are lazy
    if action == "value":
        if depth > ENCODE_DIGIT_LIMIT:
            raise CliError(f"value prints the set's endpoints at depth {depth}; the limit is {ENCODE_DIGIT_LIMIT}")
        T = sd_tree(K) if args.rep == "sdk" else gray_lazy(K)
        print(tree_value_set(T, depth))
        return 0

    if action in ("encode", "convert") and depth > DUMP_DEPTH_LIMIT:
        raise CliError(f"{action} prints the tree to depth {depth}; the limit is {DUMP_DEPTH_LIMIT}")

    if action == "encode":
        if args.rep == "sdk":
            print(_dump_sd(sd_tree(K), depth))
        else:
            G = gray_lazy(K)
            print(_dump_gray(G, G, depth, depth + 1, []))
        return 0

    if action == "convert":
        if args.rep == "sdk":
            missed = []
            out = sdk_to_grayk(sd_tree(K), load_prelude(), fuel=args.fuel)
            print(_dump_gray(out, gray_lazy(K), depth, depth + 1, missed))
            return 1 if missed else 0
        print(_dump_sd(grayk_to_sdk(gray_lazy(K), depth), depth))
        return 0

    if action == "dist":
        if args.other is None:
            raise CliError("dist needs --other")
        if args.rep != "sdk":
            raise CliError("dist is defined on sdk trees")
        other = parse_interval_set(args.other)
        if not other:
            raise CliError("empty set")
        d = hausdorff_trunc(sd_tree(K), sd_tree(other), depth)
        print(d)
        return 0

    raise CliError(f"unknown action {action}")


def cmd_oracle(args) -> int:
    cells = _parse(parse_digits, args.prefix, args.rep, "prefix")
    if len(cells) > ENCODE_DIGIT_LIMIT:
        raise CliError(f"oracle prints the hull of {len(cells)} digits; the limit is {ENCODE_DIGIT_LIMIT}")
    s = sd_prefix_interval(cells) if args.rep == "sd" else gray_prefix_set(cells)
    print(s)
    return 0


# ---------------------------------------------------------------------------


# "-" then a digit: a negative rational or a digit prefix, never an option
_NEGATIVE = re.compile(r"-\.?\d")


def _shield_negatives(argv) -> list:
    """Keep argparse from reading "-1/3" or "-1,1" as an option.  Such a
    token joins the option flag before it ("--value=-1/3"); any other one
    ends option parsing ("--" before it), so it and what follows are
    positionals."""
    out = []
    for tok in argv:
        if "--" not in out and _NEGATIVE.match(tok):
            if out and out[-1].startswith("--") and "=" not in out[-1]:
                out[-1] += "=" + tok
                continue
            out.append("--")
        out.append(tok)
    return out


def _count(text) -> int:
    """The argparse type of every count (digits, fuel, depth): an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ambreal", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("encode", help="canonical digits and exact hull of a rational")
    p.add_argument("value")
    p.add_argument("rep", choices=("sd", "gray"))
    p.add_argument("digits", nargs="?", type=_count, default=DEFAULT_DEPTH)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("convert", help="engine-driven stream conversion")
    p.add_argument("source", choices=("sd", "gray"))
    p.add_argument("target", choices=("sd", "gray"))
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--value", help="a rational p/q in [-1,1]")
    g.add_argument("--stream", help="an eventually periodic stream pre;period of " + DIGITS_FORMAT)
    p.add_argument("--digits", type=_count, default=DEFAULT_DEPTH)
    p.add_argument("--fuel", type=_count, default=DEFAULT_FUEL)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("eval", help="evaluate main of a .cfp file")
    p.add_argument("file")
    p.add_argument("--fuel", type=_count, default=DEFAULT_FUEL)
    p.add_argument("--depth", type=_count, default=DEFAULT_DEPTH)
    p.add_argument("--policy", choices=("raw", "resolving"), default="resolving")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("tree", help="compact-set tree operations")
    p.add_argument("set")
    p.add_argument("rep", choices=("sdk", "grayk"))
    p.add_argument("depth", type=_count)
    p.add_argument("action", choices=("encode", "convert", "value", "dist"))
    p.add_argument("--other")
    p.add_argument("--fuel", type=_count, default=DEFAULT_FUEL)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("oracle", help="exact interval set of a digit prefix")
    p.add_argument("prefix", help=DIGITS_FORMAT)
    p.add_argument("rep", choices=("sd", "gray"))
    p.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_shield_negatives(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, ParseError, TermError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
