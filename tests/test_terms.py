from itertools import chain, count

import pytest
from hypothesis import given, settings, strategies as st

from ambreal.prelude import prelude_source
from ambreal.terms import (
    BOT,
    NIL,
    App,
    Case,
    Clause,
    Con,
    IncompatibleClauses,
    Lam,
    ParseError,
    PCon,
    PFun,
    PVar,
    Rec,
    TermError,
    Var,
    _meet,
    alpha_eq,
    check_compatibility,
    con,
    free_vars,
    parse_defs,
    parse_term,
    pattern_vars,
    print_term,
    substitute,
)

from .conftest import closed_terms

POR_SRC = """case x of {
  Pair(Left(Nil), _) -> Left(Nil);
  Pair(_, Left(Nil)) -> Left(Nil);
  Pair(Right(Nil), Right(Nil)) -> Right(Nil) }"""


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_rec():
    assert alpha_eq(parse_term("rec (fun a -> a)"), Rec(Lam("b", Var("b"))))


def test_parse_pair_bot():
    assert parse_term("Pair(Nil, bot)") == Con("Pair", (NIL, BOT))


def test_parse_case_amb():
    t = parse_term("case c of { Amb(a,b) -> a }")
    assert isinstance(t, Case)
    assert t.clauses[0].pattern == PCon("Amb", (PVar("a"), PVar("b")))
    assert t.clauses[0].body == Var("a")


def test_print_trivia():
    assert print_term(BOT) == "bot"
    assert print_term(con("Left", NIL)) == "Left(Nil)"
    assert print_term(Lam("a", Var("a"))) == "fun a -> a"


def test_parse_errors_have_location():
    with pytest.raises(ParseError) as exc:
        parse_term("fun ->")
    assert exc.value.line == 1


DEEP = 5000


@pytest.mark.parametrize(
    "parse, src",
    [
        (parse_term, "Left(" * DEEP + "Nil" + ")" * DEEP),
        (parse_term, "(" * DEEP + "Nil" + ")" * DEEP),
        (parse_term, "case x of { " + "Left(" * DEEP + "y" + ")" * DEEP + " -> y }"),
        (parse_defs, "main = " + "fun x -> " * DEEP + "x ;"),
    ],
)
def test_parse_deep_term_is_a_parse_error(parse, src):
    # the parser recurses per nesting level: running out of stack is a
    # ParseError that names the depth reached, not a RecursionError
    with pytest.raises(ParseError, match=r"nested too deeply \(over \d+ levels\)") as exc:
        parse(src)
    assert exc.value.line == 1 and exc.value.col > 100


def test_nonlinear_pattern_rejected():
    with pytest.raises(TermError):
        parse_term("case x of { Pair(a, a) -> a }")


def test_application_associativity():
    t = parse_term("f a b")
    assert t == App(App(Var("f"), Var("a")), Var("b"))


def test_fun_body_extends_right():
    t = parse_term("fun a -> f a b")
    assert isinstance(t, Lam) and isinstance(t.body, App)


# ---------------------------------------------------------------------------
# alpha equality


def test_alpha_eq_examples():
    assert alpha_eq(parse_term("fun a -> a"), parse_term("fun b -> b"))
    assert not alpha_eq(
        Lam("a", con("Pair", Var("a"), Var("a"))),
        Lam("b", con("Pair", Var("b"), Var("a"))),
    )
    assert alpha_eq(parse_term("rec (fun f -> f)"), parse_term("rec (fun g -> g)"))


# ---------------------------------------------------------------------------
# substitution


def test_subst_examples():
    assert substitute(Var("a"), "a", NIL) == NIL
    shadow = parse_term("Pair(a, fun a -> a)")
    assert alpha_eq(substitute(shadow, "a", NIL), parse_term("Pair(Nil, fun a -> a)"))
    # no binder is renamed, so an open image is refused
    capture = Lam("b", con("Pair", Var("a"), Var("b")))
    with pytest.raises(TermError):
        substitute(capture, "a", Var("b"))


@settings(max_examples=120, deadline=None)
@given(closed_terms())
def test_print_parse_roundtrip(t):
    assert alpha_eq(parse_term(print_term(t)), t)


def test_prelude_entries_print_parse_roundtrip():
    # closed_terms() draws no case, so no wildcard pattern such as fun(_)
    defs, _ = parse_defs(prelude_source())
    for name, t in defs:
        assert alpha_eq(parse_term(print_term(t)), t), name


@settings(max_examples=100, deadline=None)
@given(closed_terms(), st.sampled_from(["a", "b", "z"]))
def test_subst_freevar_law(t, v):
    s = con("Pair", NIL, NIL)
    out = substitute(t, v, s)
    expected = (free_vars(t) - {v}) | (free_vars(s) if v in free_vars(t) else set())
    assert free_vars(out) == frozenset(expected)


# ---------------------------------------------------------------------------
# clause compatibility


def test_parallel_or_accepted():
    t = parse_term(POR_SRC)
    check_compatibility(t.clauses)


def test_adversarial_pair_rejected():
    c1 = Clause(PCon("Left", (PVar("a"),)), Var("a"))
    c2 = Clause(PCon("Left", (PCon("Nil", ()),)), con("Left", NIL))
    with pytest.raises(IncompatibleClauses) as exc:
        check_compatibility((c1, c2))
    assert exc.value.indices == (0, 1)
    assert exc.value.bindings == ({"a": NIL}, {})
    assert "a -> Nil" in str(exc.value)
    lhs, rhs = exc.value.bodies
    assert lhs == NIL and rhs == con("Left", NIL)


def test_disjoint_clauses_ok():
    t = parse_term("case x of { Left(a) -> a; Right(b) -> b }")
    check_compatibility(t.clauses)


def test_funpat_vs_con_not_unifiable():
    t = parse_term("case x of { fun(f) -> Nil; Left(_) -> Nil }")
    check_compatibility(t.clauses)


def test_funpat_overlap_checked():
    with pytest.raises(IncompatibleClauses):
        parse_term("case x of { fun(f) -> f; fun(g) -> Nil }")


def _mgu_instance(p, q):
    env_p, env_q = {}, {}
    if not _meet(p, q, env_p, env_q, count()):
        return None

    def inst(pat, env):
        if isinstance(pat, PCon):
            return Con(pat.tag, tuple(inst(a, env) for a in pat.args))
        return env[pat.name]

    # both sides name the same common instance
    assert inst(p, env_p) == inst(q, env_q)
    return inst(p, env_p)


def test_mgu_order_independent():
    cases = [
        (PCon("Pair", (PCon("Left", (PVar("a"),)), PVar("b"))),
         PCon("Pair", (PVar("c"), PCon("Right", (PVar("d"),))))),
        (PCon("Left", (PVar("x"),)), PCon("Left", (PCon("Nil", ()),))),
        (PVar("x"), PCon("Pair", (PVar("u"), PVar("v")))),
    ]
    for p, q in cases:
        lhs = _mgu_instance(p, q)
        rhs = _mgu_instance(q, p)
        assert lhs is not None and rhs is not None
        assert alpha_eq_mod_vars(lhs, rhs)


def alpha_eq_mod_vars(t1, t2):
    # compare up to a renaming of free variables (mgu instances are unique
    # up to that)
    mapping = {}
    used = set()

    def go(a, b):
        if isinstance(a, Var) and isinstance(b, Var):
            if a.name in mapping:
                return mapping[a.name] == b.name
            if b.name in used:
                return False
            mapping[a.name] = b.name
            used.add(b.name)
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, Con):
            return a.tag == b.tag and all(go(x, y) for x, y in zip(a.args, b.args))
        return a == b

    return go(t1, t2)


def test_overlap_with_shared_names_is_rejected():
    # at Pair(Left(v), Nil) one body is a constant function, the other the
    # identity; clause 1's x is not clause 0's x
    with pytest.raises(IncompatibleClauses) as exc:
        parse_term("case w of { Pair(Left(x), Nil) -> fun y -> Nil; Pair(c, x) -> fun x -> x }")
    env_0, env_1 = exc.value.bindings
    assert set(env_0) == {"x"} and set(env_1) == {"c", "x"}
    assert env_1["x"] == NIL and env_1["c"] == con("Left", env_0["x"])


def test_overlap_with_shared_names_is_accepted():
    # both bodies are the identity at every common instance
    t = parse_term("case w of { Pair(Left(x), Nil) -> fun y -> y; Pair(c, x) -> fun x -> x }")
    check_compatibility(t.clauses)


# A reference check written apart from terms.py: give every binder of both
# clauses a unique name, then unify the patterns and substitute naively.

_PNAMES = ["x", "y", "c", "f", "g"]


def _ref_compatible(c1, c2):
    fresh = (f"u{k}" for k in count())
    funs = set()

    def uniq_pat(p, ren):
        # the pattern as a term, its variables renamed
        if isinstance(p, PCon):
            return Con(p.tag, tuple(uniq_pat(a, ren) for a in p.args))
        ren[p.name] = n = next(fresh)
        if isinstance(p, PFun):
            funs.add(n)
        return Var(n)

    def uniq(t, ren):
        if isinstance(t, Var):
            return Var(ren.get(t.name, t.name))
        if isinstance(t, Lam):
            n = next(fresh)
            return Lam(n, uniq(t.body, {**ren, t.var: n}))
        if isinstance(t, Con):
            return Con(t.tag, tuple(uniq(a, ren) for a in t.args))
        if isinstance(t, App):
            return App(uniq(t.fn, ren), uniq(t.arg, ren))
        if isinstance(t, Rec):
            return Rec(uniq(t.body, ren))
        assert t == BOT, t
        return t

    clauses = []
    for c in (c1, c2):
        ren = {}
        clauses.append((uniq_pat(c.pattern, ren), uniq(c.body, ren)))
    (p1, b1), (p2, b2) = clauses

    s = {}

    def walk(t):
        while isinstance(t, Var) and t.name in s:
            t = s[t.name]
        return t

    def unify(a, b):
        a, b = walk(a), walk(b)
        if isinstance(a, Var) and isinstance(b, Var):
            if a.name != b.name:
                if a.name in funs:
                    s[b.name] = a
                else:
                    s[a.name] = b
            return True
        if isinstance(a, Var):
            a, b = b, a
        if isinstance(b, Var):
            if b.name in funs:
                return False  # a lambda never matches a constructor
            s[b.name] = a
            return True
        return a.tag == b.tag and all(unify(x, y) for x, y in zip(a.args, b.args))

    if not unify(p1, p2):
        return True

    def naive(t):
        # every binder is unique, so nothing can be captured or shadowed
        t = walk(t)
        if isinstance(t, Var):
            return t
        if isinstance(t, Lam):
            return Lam(t.var, naive(t.body))
        if isinstance(t, Con):
            return Con(t.tag, tuple(naive(a) for a in t.args))
        if isinstance(t, App):
            return App(naive(t.fn), naive(t.arg))
        if isinstance(t, Rec):
            return Rec(naive(t.body))
        return t

    return alpha_eq(naive(b1), naive(b2))


def _shapes():
    leaf = st.sampled_from(["var", "wild", "fun", "Nil"])
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(["Left", "Right"]), kids),
            st.tuples(st.just("Pair"), kids, kids),
        ),
        max_leaves=4,
    )


def _build(shape, names):
    """A linear pattern of the given shape, its leaves named from names."""
    if shape == "Nil":
        return PCon("Nil", ())
    if shape in ("var", "wild", "fun"):
        n = next(names)
        wild = shape == "wild"
        return PFun(n) if shape == "fun" else PVar("_" + n if wild else n, wild)
    return PCon(shape[0], tuple(_build(a, names) for a in shape[1:]))


def _bodies(scope):
    # outer names and lambda binders reuse the pattern names, so clauses
    # collide with each other's binders
    base = st.one_of(st.just(NIL), st.just(BOT), st.sampled_from(sorted(scope) + ["w"]).map(Var))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(_PNAMES), kids).map(lambda p: Lam(*p)),
            kids.map(lambda t: con("Left", t)),
            st.tuples(kids, kids).map(lambda p: con("Pair", *p)),
            st.tuples(kids, kids).map(lambda p: App(*p)),
        ),
        max_leaves=4,
    )


def _specialise(shape, draw):
    """Specialise some leaves to a drawn shape, generalise some nodes to a
    variable: the two patterns still overlap, unless a fun(_) leaf meets a
    constructor."""
    if isinstance(shape, str):
        return draw(_shapes()) if shape != "Nil" and draw(st.booleans()) else shape
    if draw(st.integers(0, 3)) == 0:
        return "var"
    return (shape[0], *(_specialise(a, draw) for a in shape[1:]))


def _named(draw, shape):
    # the drawn order of the shared names first, then spare names
    names = chain(draw(st.permutations(_PNAMES)), (f"v{k}" for k in count()))
    pat = _build(shape, names)
    scope = {n for n in pattern_vars(pat) if not n.startswith("_")}
    # x and y are also outer names where the pattern does not bind them
    return pat, draw(_bodies(scope | {"x", "y"}))


@st.composite
def overlapping_pairs(draw):
    shape = draw(_shapes())
    p1, b1 = _named(draw, shape)
    # a specialised or generalised copy, renamed with the names clause 1 uses
    p2, b2 = _named(draw, _specialise(shape, draw))
    if draw(st.booleans()):
        b2 = b1  # the same body, read under clause 2's names
    return Clause(p1, b1), Clause(p2, b2)


@settings(max_examples=400, deadline=None)
@given(overlapping_pairs())
def test_compatibility_agrees_with_unique_name_reference(pair):
    try:
        check_compatibility(pair)
        verdict = True
    except IncompatibleClauses:
        verdict = False
    assert verdict == _ref_compatible(*pair)


# ---------------------------------------------------------------------------
# def files


def test_parse_defs_scoping():
    defs, main = parse_defs("def i = fun x -> x ; def k = i ; main = k Nil ;")
    env = dict(defs)
    assert alpha_eq(env["k"], parse_term("fun x -> x"))
    assert main is not None and free_vars(main) == frozenset()


def test_parse_defs_unbound():
    with pytest.raises(TermError):
        parse_defs("def a = nosuch ;")
    # substitution renames no binder, so an initial name must be closed
    with pytest.raises(TermError):
        parse_defs("main = fun b -> a ;", {"a": Var("b")})


def test_parse_defs_rejects_incompatible_case():
    # the parser checks every case, so a loaded prelude needs no re-check
    with pytest.raises(IncompatibleClauses):
        parse_defs("def f = fun x -> case x of { Left(a) -> a; Left(Nil) -> Left(Nil) } ;")
