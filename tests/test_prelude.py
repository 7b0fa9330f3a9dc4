from fractions import Fraction

import pytest

from ambreal import engine
from ambreal.codec import EPStream, inject_sd, sd_encode
from ambreal.terms import (
    BOT,
    NIL,
    App,
    alpha_eq,
    check_compatibility,
    con,
    parse_term,
)

from .conftest import cases, observe_app

TRUE = con("Left", NIL)
FALSE = con("Right", NIL)

EXPECTED_NAMES = [
    "por", "strict", "amb_LR", "h_restrict_intro", "g_or", "mapamb",
    "sup_nil", "guard", "fstar", "h_plus", "g_iter",
    "h1", "h2", "g_and", "fstar_and",
    "f_ret", "f_bind", "f_pardist", "f_mon", "mapLR", "proj_L", "proj_R",
    "g_bar", "f1", "f2", "f3", "f4",
    "mon_S", "mon_G",
    "it_S", "it_G", "coit_S", "coit_G", "hscoit_S", "hscoit_G",
    "scoit_S", "scoit_G", "chscoit_S",
    "caib_fix", "caibs",
    "sd_neg", "sd_tent", "f_d", "sd_emb", "sd2gray",
    "gray_neg", "gray_affine", "gray_min1", "gray_double", "halfC", "gray2sd",
    "aicsd_fix", "aicr_fix", "caicr_fix",
]


def test_prelude_complete(prelude):
    for name in EXPECTED_NAMES:
        assert name in prelude, name


def test_prelude_entries_closed_and_compatible(prelude):
    from ambreal.terms import free_vars

    for name in prelude.names():
        t = prelude.get(name)
        assert not free_vars(t), name
        for c in cases(t):
            check_compatibility(c.clauses)


def test_unknown_program(prelude):
    from ambreal.prelude import UnknownProgram

    with pytest.raises(UnknownProgram):
        prelude.get("nonexistent")


# spot checks of entry shapes against independently written terms

STRICT = """fun f2 -> fun a2 -> case a2 of {
  Nil -> f2 a2; Left(_) -> f2 a2; Right(_) -> f2 a2;
  Pair(_, _) -> f2 a2; Amb(_, _) -> f2 a2; fun(_) -> f2 a2 }"""


def test_mapamb_shape(prelude):
    expected = parse_term(
        "fun f -> fun c -> case c of { Amb(a,b) -> Amb((%s) f a, (%s) f b) }"
        % (STRICT, STRICT)
    )
    assert alpha_eq(prelude.get("mapamb"), expected)


def test_f_ret_shape(prelude):
    assert alpha_eq(prelude.get("f_ret"), parse_term("fun a -> Amb(Left(a), bot)"))


def test_por_shape(prelude):
    expected = parse_term(
        """fun c -> case c of {
          Pair(Left(Nil), _) -> Left(Nil);
          Pair(_, Left(Nil)) -> Left(Nil);
          Pair(Right(Nil), Right(Nil)) -> Right(Nil) }"""
    )
    assert alpha_eq(prelude.get("por"), expected)


# observing applied programs


def test_run_por(prelude):
    o = observe_app(prelude, "por", [con("Pair", TRUE, BOT)], fuel=10**4)
    assert o == "Left(Nil)"


def test_run_f_ret_raw(prelude):
    o = observe_app(prelude, "f_ret", [NIL], fuel=10**3, depth=2, policy="raw")
    assert o == "Amb(Left(Nil), <unresolved>)"


def test_run_sd_neg(prelude):
    from ambreal.codec import extract_sd, sd_prefix_interval

    x = Fraction(1, 2)
    s = sd_encode(x)
    e = prelude.engine
    node = e.apply(
        prelude.node("sd_neg"),
        e.apply(prelude.node("sd_emb"), e.load(inject_sd(s))),
    )
    digs = extract_sd(e, node, 6, 10**5)
    assert all(d is not None for d in digs)
    assert sd_prefix_interval(digs).contains(-x)


# h_plus shape laws (three parts of the guard lemma)


def _collapse(prelude, term, fuel=10**5):
    return prelude.engine.collapse_star(term, fuel)[0]


def _resolve(prelude, term, fuel=10**5):
    return prelude.engine.resolve_amb(term, fuel)[0]


def test_h_plus_decided_passthrough(prelude):
    # a decided two-case value: h_plus yields a defined race whose collapse
    # is the payload
    for payload in ("Left(Nil)", "Right(Nil)"):
        c = parse_term(f"Amb(Left({payload}), bot)")
        out = _collapse(prelude, App(prelude.get("h_plus"), c))
        assert out is not None and out[1] == payload.split("(")[0]


def test_h_plus_iterates(prelude):
    c = parse_term("Amb(bot, Right(Amb(Left(Right(Nil)), bot)))")
    out = _collapse(prelude, App(prelude.get("h_plus"), c))
    assert out is not None and out[1] == "Right"


def test_h_plus_depth3(prelude):
    c = parse_term(
        "Amb(Right(Amb(bot, Right(Amb(Left(Left(Nil)), bot)))), bot)"
    )
    out = _collapse(prelude, App(prelude.get("h_plus"), c))
    assert out is not None and out[1] == "Left"


def test_h_plus_undecided_is_bottom(prelude):
    c = parse_term("Amb(bot, bot)")
    assert _resolve(prelude, App(prelude.get("h_plus"), c), 10**5) is None


def test_h_plus_junk_cell_is_bottom(prelude):
    # the unknown-cell value: defined but undecided; the guard must diverge
    c = parse_term("Amb(bot, bot)")
    out = prelude.engine.whnf(App(prelude.get("h_plus"), c), 10**5)[0]
    assert out is None


# monad laws, observationally


def test_bind_ret_left_identity(prelude):
    g = parse_term("fun x -> Amb(Left(Pair(x, x)), bot)")
    e = prelude.engine
    lhs = App(App(prelude.get("f_bind"), g), App(prelude.get("f_ret"), NIL))
    rhs = App(g, NIL)
    vl, _ = e.collapse_star(lhs, 10**5)
    vr, _ = e.collapse_star(rhs, 10**5)
    assert vl[1] == vr[1] == "Pair"


def test_bind_ret_right_identity(prelude):
    e = prelude.engine
    for src in ("Amb(Left(Nil), bot)", "Amb(bot, Right(Amb(Left(Left(Nil)), bot)))"):
        c = parse_term(src)
        lhs = App(App(prelude.get("f_bind"), prelude.get("f_ret")), c)
        vl, _ = e.collapse_star(lhs, 10**5)
        vr, _ = e.collapse_star(c, 10**5)
        assert vl[1] == vr[1]


# pairing (h1)


def test_h1_pairs_payloads(prelude):
    e = prelude.engine
    c1 = parse_term("Amb(Left(Left(Nil)), bot)")
    c2 = parse_term("Amb(bot, Right(Amb(Left(Right(Nil)), bot)))")
    out = App(App(prelude.get("h1"), c1), c2)
    v, _ = e.collapse_star(out, 10**6)
    assert v is not None and v[1] == "Pair"
    left = e.observe(v[2][0], 2, 10**4)
    right = e.observe(v[2][1], 2, 10**4)
    assert left == "Left(Nil)"
    assert right == "Right(Nil)"


def test_h2_pairs_decided_with_race(prelude):
    e = prelude.engine
    d = parse_term("Left(Nil)")
    c = parse_term("Amb(Left(Right(Nil)), bot)")
    out = App(App(prelude.get("h2"), con("Left", d)), c)
    v, _ = e.collapse_star(out, 10**6)
    assert v is not None and v[1] == "Pair"


# caibs termination bound: linear fuel in the first nonzero index


def test_caibs_linear_fuel(prelude):
    e = prelude.engine
    budgets = []
    for k in (2, 6, 10, 14, 18, 22):
        x = Fraction(1, 2**k)
        s = sd_encode(x)
        idx = next(i for i, d in enumerate(s.take(64)) if d != 0)
        node = e.apply(
            prelude.node("f_d"),
            e.apply(prelude.node("sd_emb"), e.load(inject_sd(s))),
        )
        v, left = e.collapse_star(node, 10**5)
        assert v is not None
        budgets.append((idx, 10**5 - left))
    # measured: 24 + 25*idx; assert the linear envelope with slack
    for idx, used in budgets:
        assert used <= 64 * (idx + 1), (idx, used)


def test_caibs_zero_diverges(prelude):
    # each zero digit threads one more accumulator closure that no round
    # applies, so the collapse state recurs up to it: the cut-off ends
    # the collapse soon after its checks start, whatever the fuel
    s = sd_encode(Fraction(0))
    for fuel in (10**3, 10**4, 10**6, 10**9):
        e = prelude.engine
        node = e.apply(
            prelude.node("f_d"),
            e.apply(prelude.node("sd_emb"), e.load(inject_sd(s))),
        )
        v, left = e.collapse_star(node, fuel)
        assert v is None and fuel - left <= 2 * engine.CHECK_WORK


@pytest.mark.parametrize("zeros", [60, 200, 1000])
@pytest.mark.parametrize("sign", [-1, 1])
def test_caibs_long_zero_prefix(prelude, zeros, sign):
    # the recurrence checks run through the zero prefix (its cells are
    # distinct code positions) and must not cut off before the sign
    e = prelude.engine
    s = EPStream((0,) * zeros + (sign,), (0,))
    node = e.apply(prelude.node("f_d"), e.apply(prelude.node("sd_emb"), e.load(inject_sd(s))))
    v, left = e.collapse_star(node, 10**6)
    assert v is not None and v[1] == ("Left" if sign < 0 else "Right")
    assert 10**6 - left <= 64 * (zeros + 1)
