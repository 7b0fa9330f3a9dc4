import io
import contextlib
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ambreal.cli import (
    CONVERT_DIGIT_LIMIT,
    DUMP_DEPTH_LIMIT,
    ENCODE_DIGIT_LIMIT,
    VALUE_DENOMINATOR_LIMIT,
    main,
)
from ambreal.codec import gray_prefix
from ambreal.engine import OBSERVE_NODE_LIMIT
from ambreal.intervals import hausdorff_sets, parse_interval_set


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().rstrip("\n"), err.getvalue()


# encode


def test_encode_gray_zero():
    code, out, _ = run("encode", "0", "gray", "4")
    assert code == 0
    digits, hull = out.splitlines()
    assert digits == "_ 1 -1 -1"
    assert hull == "[-1/8,1/8]"


def test_encode_sd_third():
    code, out, _ = run("encode", "1/3", "sd", "4")
    assert code == 0
    assert out.splitlines()[0] == "1 -1 1 -1"


def test_encode_prefix_of_a_long_period():
    # 8 digits take 8 steps, not the ~10^6-cell walk to the period
    assert run("encode", "1/1000003", "sd", "8") == (0, "0 0 0 0 0 0 0 0\n[-1/256,1/256]", "")
    code, out, _ = run("encode", "-1/1000003", "gray", "3")
    assert code == 0 and out.splitlines()[0] == "-1 1 -1"


@pytest.mark.parametrize("rep", ["sd", "gray"])
def test_encode_at_the_digit_limit_prints_its_hull(rep):
    n = ENCODE_DIGIT_LIMIT
    code, out, _ = run("encode", "1/3", rep, str(n))
    assert code == 0
    digits, hull = out.splitlines()
    assert len(digits.split()) == n
    lo, hi = (Fraction(e) for e in hull.strip("[]").split(","))
    # 1/3 has no bot cell: the hull is one interval of width 2^(1-n)
    assert lo < Fraction(1, 3) < hi and hi - lo == Fraction(2, 2**n)


@pytest.mark.parametrize("rep", ["sd", "gray"])
@pytest.mark.parametrize("n", [14291, 20000, 10**6])
def test_encode_above_the_digit_limit_prints_nothing(monkeypatch, rep, n):
    # checked before any digit is computed: 10^6 digits take no time
    import ambreal.cli

    def unused(*args):
        raise AssertionError("no digit is computed above the limit")

    monkeypatch.setattr(ambreal.cli, f"{rep}_prefix", unused)
    code, out, err = run("encode", "1/3", rep, str(n))
    assert code == 2 and out == ""
    assert f"the limit is {ENCODE_DIGIT_LIMIT}" in err


def test_encode_domain_error():
    code, _, err = run("encode", "2", "sd", "4")
    assert code == 2 and "2 outside [-1,1]" in err


# convert


def test_convert_sd_gray_half():
    code, out, _ = run("convert", "sd", "gray", "--value", "1/2", "--digits", "4")
    assert out == "1 _ 1 -1"
    assert code == 0  # the unresolved cell is the oracle bot cell


def test_convert_gray_sd_zero():
    code, out, _ = run("convert", "gray", "sd", "--value", "0", "--digits", "4")
    assert code == 0 and out == "0 0 0 0"


def test_convert_identity():
    code, out, _ = run("convert", "sd", "sd", "--value", "1/3", "--digits", "4")
    assert code == 0 and out == "1 -1 1 -1"


def test_convert_stream_input():
    code, out, _ = run("convert", "sd", "gray", "--stream=1;0", "--digits", "4")
    assert code == 0 and out == "1 _ 1 -1"


@pytest.mark.parametrize("x", ["1/3", "1/2", "-5/7", "3/8"])
def test_convert_sd_gray_prints_the_encoding(x):
    # the engine's cells print as encode prints the exact ones, "_" for bot
    code, out, _ = run("convert", "sd", "gray", f"--value={x}", "--digits", "8")
    assert code == 0
    assert out == run("encode", x, "gray", "8")[1].splitlines()[0]


@pytest.mark.parametrize("literal, token", [("1 0;-1", "1 0"), ("1,x", "x"), ("1;", "period")])
def test_convert_bad_stream_literal(literal, token):
    code, out, err = run("convert", "sd", "gray", f"--stream={literal}")
    assert code == 2 and out == ""
    assert f"--stream {literal!r}" in err and token in err and "pre;period" in err


def test_convert_domain_error():
    code, out, err = run("convert", "sd", "gray", "--value", "2")
    assert code == 2 and out == "" and "2 outside [-1,1]" in err


def test_encode_negative_rational():
    code, out, _ = run("encode", "-1/3", "sd", "4")
    assert code == 0 and out.splitlines()[0] == "-1 1 -1 1"


def test_convert_negative_value():
    joined = run("convert", "sd", "gray", "--value=-1/3")
    assert joined[0] == 0
    assert run("convert", "sd", "gray", "--value", "-1/3") == joined


def test_convert_needs_input():
    code, _, err = run("convert", "sd", "gray", "--digits", "4")
    assert code == 2 and "one of the arguments --value --stream is required" in err


def test_convert_takes_one_input():
    # --value and --stream name the input twice: neither one is dropped
    code, out, err = run("convert", "sd", "gray", "--value=1/3", "--stream=1", "--digits", "3")
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


# eval


def test_eval_parallel_or(tmp_path):
    f = tmp_path / "t.cfp"
    f.write_text("main = por Pair(Left(Nil), bot) ;")
    code, out, _ = run("eval", str(f), "--fuel", "10000")
    assert code == 0 and out == "Left(Nil)"


def test_eval_bot_exit_one(tmp_path):
    f = tmp_path / "t.cfp"
    f.write_text("main = bot ;")
    code, out, _ = run("eval", str(f), "--fuel", "1000")
    assert code == 1 and out == "<unresolved>"


def test_eval_raw_policy(tmp_path):
    f = tmp_path / "t.cfp"
    f.write_text("main = f_ret Nil ;")
    code, out, _ = run("eval", str(f), "--policy", "raw", "--depth", "2")
    assert code == 0 and out == "Amb(Left(Nil), <unresolved>)"


def test_eval_parse_error(tmp_path):
    f = tmp_path / "t.cfp"
    f.write_text("main = case x of ;")
    code, _, err = run("eval", str(f))
    assert code == 2


@pytest.mark.parametrize("depth", [200, 5000])
def test_eval_deep_term(tmp_path, depth):
    # too deep a term is a usage error (exit 2), never a traceback or the
    # exit code of an Unresolved answer
    f = tmp_path / "t.cfp"
    f.write_text("main = " + "Left(" * depth + "Nil" + ")" * depth + " ;")
    code, out, err = run("eval", str(f), "--depth", "3")
    if depth == 200:
        assert (code, out) == (0, "Left(Left(Left(Left(...))))")
    else:
        assert code == 2 and out == "" and "nested too deeply" in err


@pytest.mark.parametrize("depth", [400, 5000])
def test_eval_deep_observation(tmp_path, depth):
    # the observation is walked and printed without recursion: a deep
    # answer prints, where it was a RecursionError traceback (exit 1) or a
    # "nested too deeply" usage error
    f = tmp_path / "t.cfp"
    f.write_text("main = rec (fun s -> Pair(Nil, s)) ;")
    code, out, err = run("eval", str(f), "--depth", str(depth))
    assert (code, err) == (0, "")
    assert out == "Pair(Nil, " * depth + "Pair(...)" + ")" * depth


def test_eval_observation_past_the_node_budget(tmp_path):
    # 2^31 - 1 nodes at depth 30: refused with exit 2 once the walk passes
    # the budget (as many nodes as a tree dump at the depth limit), in
    # bounded memory and with nothing printed.  The peak is
    # the child's own (VmHWM is per process image; ru_maxrss would count
    # the forking test process).  The child's address space is capped at
    # 1 GiB, so a walk with no budget fails fast instead of filling memory
    assert OBSERVE_NODE_LIMIT == 3**DUMP_DEPTH_LIMIT
    f = tmp_path / "t.cfp"
    f.write_text("main = rec (fun s -> Pair(s, s)) ;")
    import ambreal

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(list(ambreal.__path__)[0]), env.get("PYTHONPATH", "")]
    )
    script = (
        "import os, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from ambreal.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        print(*[l for l in fh if l.startswith('VmHWM')], file=sys.stderr, end='')\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "eval", str(f), "--depth", "30"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"more than {OBSERVE_NODE_LIMIT} nodes" in proc.stderr
    peak = re.search(r"VmHWM:\s*(\d+) kB", proc.stderr)
    if peak is not None:
        assert int(peak.group(1)) < 200 * 1024


def test_eval_observation_past_the_tick_budget(tmp_path):
    # every node of this stream is a term that grows by a node a tick; at
    # the default fuel the observation runs out of ticks in its first such
    # node and is refused with exit 2, in memory that the tick budget
    # bounds.  The child patches in a budget of 2 * 10^5 ticks (a tenth of
    # a default node's fuel) and reports its own peak, as above
    f = tmp_path / "t.cfp"
    f.write_text("main = rec (fun s -> Pair((rec (fun f -> fun x -> f (Pair(x, x)))) Nil, s)) ;")
    import ambreal

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(list(ambreal.__path__)[0]), env.get("PYTHONPATH", "")]
    )
    script = (
        "import os, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from ambreal import engine\n"
        "from ambreal.cli import main\n"
        "engine.OBSERVE_TICK_LIMIT = 2 * 10**5\n"
        "code = main(sys.argv[1:])\n"
        "if os.path.exists('/proc/self/status'):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        print(*[l for l in fh if l.startswith('VmHWM')], file=sys.stderr, end='')\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "eval", str(f)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "more than 200000 ticks" in proc.stderr
    peak = re.search(r"VmHWM:\s*(\d+) kB", proc.stderr)
    if peak is not None:
        assert int(peak.group(1)) < 100 * 1024


# tree


def test_tree_value():
    code, out, _ = run("tree", "[0,0]", "sdk", "2", "value")
    assert code == 0 and out == "[-1/2,1/2]"
    code, out, _ = run("tree", "[0,0]", "sdk", "0", "value")
    assert out == "[-1,1]"


def test_tree_encode_gray():
    code, out, _ = run("tree", "[-1,1]", "grayk", "1", "encode")
    assert code == 0
    assert out.startswith("(min=-1 -1 max=1 -1")
    assert "(L " in out and "(R " in out


def test_tree_dist():
    code, out, _ = run("tree", "[0,0]", "sdk", "5", "dist", "--other", "[1,1]")
    assert code == 0 and out == "1/2"
    code, out, _ = run("tree", "[0,0]", "sdk", "5", "dist", "--other", "[0,0]")
    assert out == "0"


def test_tree_encode_sdk():
    code, out, _ = run("tree", "[1/3,1/2]", "sdk", "2", "encode")
    assert code == 0
    assert out == (
        "(E=0,1 (child 0 (E=1 (child 1 (E=0,1))))"
        " (child 1 (E=-1,0,1 (child -1 (E=0,1)) (child 0 (E=-1,0,1)) (child 1 (E=-1)))))"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("tree", "[0,1]", "sdk", "3", "dist"), "dist needs --other"),
        (("tree", "[0,1]", "grayk", "3", "dist", "--other", "[0,1/2]"), "dist is defined on sdk trees"),
    ],
)
def test_tree_dist_usage_errors(argv, message):
    code, out, err = run(*argv)
    assert code == 2 and out == "" and message in err


def test_tree_convert_sdk():
    code, out, _ = run("tree", "[1/3,1/3]", "sdk", "2", "convert")
    assert code == 0 and out.startswith("(min=1 1 1")


def test_tree_convert_sdk_unresolved_cells():
    # at fuel 10 no engine cell resolves: every cell the exact tree defines
    # prints "?" (exit 1), every bot cell "_", as in the grayk encoding
    code, out, _ = run("tree", "[1/3,1/2]", "sdk", "2", "convert", "--fuel", "10")
    assert code == 1
    _, exact, _ = run("tree", "[1/3,1/2]", "grayk", "2", "encode")
    assert exact.startswith("(min=1 1 1 max=1 _ 1 (R (min=_ 1 -1")
    assert out == re.sub(r"-?1", "?", exact)


def test_tree_convert_sdk_default_fuel():
    # every cell resolves; a resolved bot cell of the exact code may take
    # either sign, all others agree with it
    code, out, _ = run("tree", "[1/3,1/2]", "sdk", "2", "convert")
    _, exact, _ = run("tree", "[1/3,1/2]", "grayk", "2", "encode")
    assert code == 0 and "?" not in out
    cell = r"-?1|_"
    assert re.sub(cell, "c", out) == re.sub(cell, "c", exact)
    for c, x in zip(re.findall(cell, out), re.findall(cell, exact)):
        assert c == x or x == "_"


def test_tree_deep_sdk_value_is_fast():
    # the reader stops at the depth; nothing is unrolled into 3^40 nodes
    import ambreal

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(list(ambreal.__path__)[0]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ambreal.cli", "tree", "[-1,1]", "sdk", "40", "value"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0 and proc.stdout == "[-1,1]\n"


def test_tree_value_at_depth_2000():
    # the value reader works bottom up by depth: no recursion per level
    assert run("tree", "[-1,1]", "sdk", "2000", "value") == (0, "[-1,1]", "")
    code, out, _ = run("tree", "[1/3,1/2]", "grayk", "2000", "value")
    K = parse_interval_set("[1/3,1/2]")
    assert code == 0 and hausdorff_sets(parse_interval_set(out), K) <= Fraction(4, 2**2000)


@pytest.mark.parametrize(
    "argv",
    [
        ("tree", "[1/3,1/2]", "sdk", "2000", "encode"),
        ("tree", "[1/3,1/2]", "grayk", "2000", "convert"),
        ("tree", "[-1,1]", "grayk", str(DUMP_DEPTH_LIMIT + 1), "encode"),
        ("tree", "[0,0]", "sdk", str(DUMP_DEPTH_LIMIT + 1), "convert"),
    ],
)
def test_tree_dump_above_the_depth_limit(argv):
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert f"the limit is {DUMP_DEPTH_LIMIT}" in err


def test_tree_dump_at_the_depth_limit():
    code, out, _ = run("tree", "[1/3,1/3]", "grayk", str(DUMP_DEPTH_LIMIT), "convert")
    assert code == 0 and out.count("(E=") == DUMP_DEPTH_LIMIT + 1


def test_tree_convert_grayk():
    code, out, _ = run("tree", "[0,0]", "grayk", "2", "convert")
    assert code == 0 and out.startswith("(E=")


@pytest.mark.parametrize(
    "rep, action", [("grayk", "encode"), ("grayk", "value"), ("grayk", "convert"), ("sdk", "convert")]
)
def test_tree_gray_codes_above_the_denominator_limit(rep, action):
    # each of these encodes Gray codes of the set's endpoints, whose
    # periods grow with the denominator: refused before any tree is built
    q = VALUE_DENOMINATOR_LIMIT + 1
    start = time.perf_counter()
    code, out, err = run("tree", f"[1/2,{q - 1}/{q}]", rep, "2", action)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and f"denominator {q};" in err and f"limit is {VALUE_DENOMINATOR_LIMIT}" in err
    # at the limit it runs
    assert run("tree", f"[1/2,{q - 2}/{q - 1}]", rep, "1", action)[0] == 0


@pytest.mark.parametrize("rep", ["sdk", "grayk"])
def test_tree_value_above_the_depth_limit(monkeypatch, rep):
    # the endpoints at depth n have n-bit denominators: refused before any
    # tree is built
    import ambreal.cli

    def unused(*args):
        raise AssertionError("no tree is built above the limit")

    for name in ("sd_tree", "gray_lazy", "tree_value_set"):
        monkeypatch.setattr(ambreal.cli, name, unused)
    code, out, err = run("tree", "[0,1/2]", rep, str(ENCODE_DIGIT_LIMIT + 1), "value")
    assert code == 2 and out == ""
    assert f"depth {ENCODE_DIGIT_LIMIT + 1}; the limit is {ENCODE_DIGIT_LIMIT}" in err


def test_tree_sdk_value_has_no_denominator_limit():
    code, out, _ = run("tree", "[1/16777259,1/2]", "sdk", "6", "value")
    assert code == 0 and out == "[-1/64,17/32]"


def test_tree_empty_set():
    code, _, err = run("tree", "", "sdk", "2", "value")
    assert code == 2


# oracle


def test_oracle_examples():
    assert run("oracle", "-1,1", "gray") == (0, "[-1/2,0]", "")
    assert run("oracle", "1,0", "sd") == (0, "[1/4,3/4]", "")
    assert run("oracle", "", "sd") == (0, "[-1,1]", "")


def test_oracle_bot_cells():
    code, out, _ = run("oracle", "_,1", "gray")
    assert code == 0 and out == "[-1/2,1/2]"


def test_oracle_many_bot_cells_is_fast():
    start = time.perf_counter()
    assert run("oracle", ",".join(["_"] * 40), "gray") == (0, "[-1,1]", "")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("rep, hull", [("sd", "sd_prefix_interval"), ("gray", "gray_prefix_set")])
def test_oracle_above_the_digit_limit(monkeypatch, rep, hull):
    import ambreal.cli

    def unused(*args):
        raise AssertionError("no hull is computed above the limit")

    monkeypatch.setattr(ambreal.cli, hull, unused)
    n = ENCODE_DIGIT_LIMIT + 1
    code, out, err = run("oracle", ",".join(["1"] * n), rep)
    assert code == 2 and out == ""
    assert f"hull of {n} digits; the limit is {ENCODE_DIGIT_LIMIT}" in err


def test_usage_error_exit_two():
    code, _, _ = run("oracle", "1,0")
    assert code == 2


@pytest.mark.parametrize(
    "prefix, rep, message",
    [
        ("0,1", "gray", "bad gray cell 0"),  # 0 is not the bot cell "_"
        ("2", "sd", "bad signed digit 2"),
        ("_,1", "sd", "bot cell only exists in gray"),
    ],
)
def test_oracle_rejects_bad_digits(prefix, rep, message):
    code, out, err = run("oracle", prefix, rep)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("encode", "1/3", "sd", "-4"), "argument digits"),
        (("convert", "sd", "gray", "--value", "1/3", "--digits", "-4"), "argument --digits"),
        (("convert", "sd", "gray", "--value", "1/3", "--fuel", "-5"), "argument --fuel"),
        (("eval", "main.cfp", "--depth", "-1"), "argument --depth"),
        (("eval", "main.cfp", "--fuel", "-1"), "argument --fuel"),
        (("tree", "[0,1/2]", "sdk", "-2", "encode"), "argument depth"),
        (("tree", "[0,1/2]", "sdk", "-2", "value"), "argument depth"),
        (("tree", "[0,1/2]", "grayk", "-2", "convert"), "argument depth"),
    ],
)
def test_negative_count_is_a_usage_error(argv, name):
    code, out, err = run(*argv)
    assert code == 2 and out == "" and f"{name}: count must be >= 0" in err


@pytest.mark.parametrize("src, dst", [("sd", "gray"), ("gray", "sd")])
def test_convert_value_above_the_denominator_limit(monkeypatch, src, dst):
    # the engine would load the whole ~10^6-cell period: refused before
    # the orbit is walked
    import ambreal.codec

    def unused(*args):
        raise AssertionError("no orbit is walked above the limit")

    monkeypatch.setattr(ambreal.codec, "_orbit", unused)
    code, out, err = run("convert", src, dst, "--value", "1/1000003", "--digits", "4")
    assert code == 2 and out == ""
    assert f"denominator 1000003; the limit is {VALUE_DENOMINATOR_LIMIT}" in err


def test_convert_value_at_the_denominator_limit():
    assert VALUE_DENOMINATOR_LIMIT > 131071
    x = Fraction(1, VALUE_DENOMINATOR_LIMIT)
    code, out, _ = run("convert", "sd", "gray", "--value", str(x), "--digits", "4")
    assert code == 0 and out == " ".join(str(c) for c in gray_prefix(x, 4))


@pytest.mark.parametrize("src, dst", [("sd", "gray"), ("gray", "sd")])
def test_convert_above_the_digit_limit(monkeypatch, src, dst):
    # refused before the input's period is searched or the prelude loads
    import ambreal.cli
    import ambreal.codec

    def unused(*args):
        raise AssertionError("nothing is read above the limit")

    monkeypatch.setattr(ambreal.codec, "_orbit", unused)
    monkeypatch.setattr(ambreal.cli, "load_prelude", unused)
    n = CONVERT_DIGIT_LIMIT[src] + 1
    code, out, err = run("convert", src, dst, "--value", "1/3", "--digits", str(n))
    assert code == 2 and out == ""
    assert f"reads {n} digits through the engine; the limit is {CONVERT_DIGIT_LIMIT[src]}" in err


@pytest.mark.parametrize("rep, digits", [("sd", "0 0 0 0"), ("gray", "1 1 -1 -1")])
def test_convert_identity_reads_only_the_prefix(monkeypatch, rep, digits):
    # the identity prints the input's own cells: no period search, no prelude
    import ambreal.cli
    import ambreal.codec

    def unused(*args):
        raise AssertionError("not needed by the identity")

    monkeypatch.setattr(ambreal.codec, "_orbit", unused)
    monkeypatch.setattr(ambreal.cli, "load_prelude", unused)
    assert run("convert", rep, rep, "--value", "1/1000003", "--digits", "4") == (0, digits, "")
    assert run("convert", rep, rep, "--stream=1;-1", "--digits", "3") == (0, "1 -1 -1", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("tree", "[1/0,1]", "sdk", "2", "value"),
        ("tree", "[0,1]", "sdk", "2", "dist", "--other", "[0,1/0]"),
    ],
)
def test_zero_denominator_in_a_set_is_a_usage_error(argv):
    code, out, err = run(*argv)
    assert code == 2 and out == "" and "bad interval literal" in err


def test_tree_convert_sdk_deep_is_fast():
    # one engine conversion per distinct source tree, not one per path
    start = time.perf_counter()
    code, out, _ = run("tree", "[-1,1]", "sdk", "8", "convert")
    assert time.perf_counter() - start < 5
    assert code == 0 and out.count("(L ") == 2**8 - 1 and "?" not in out
