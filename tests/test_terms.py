import pytest
from hypothesis import given, settings, strategies as st

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
    PVar,
    Rec,
    TermError,
    Var,
    alpha_eq,
    check_compatibility,
    con,
    free_vars,
    parse_defs,
    parse_term,
    pattern_to_term,
    print_term,
    resolve_pattern,
    substitute,
    unify_patterns,
)

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
    capture = Lam("b", con("Pair", Var("a"), Var("b")))
    out = substitute(capture, "a", Var("b"))
    assert alpha_eq(out, Lam("c", con("Pair", Var("b"), Var("c"))))
    assert "b'" in print_term(out)


# a small strategy for closed terms

_names = st.sampled_from(["a", "b", "c", "f", "g"])


def _terms(scope):
    closed = [
        st.just(BOT),
        st.just(NIL),
    ]
    if scope:
        closed.append(st.sampled_from(sorted(scope)).map(Var))
    base = st.one_of(closed)

    def extend(children):
        lam = st.tuples(_names, st.deferred(lambda: children)).map(
            lambda p: Lam(p[0], p[1])
        )
        return st.one_of(
            st.tuples(children, children).map(lambda p: App(p[0], p[1])),
            children.map(lambda t: con("Left", t)),
            st.tuples(children, children).map(lambda p: con("Pair", *p)),
            children.map(Rec),
        )

    return st.recursive(base, extend, max_leaves=12)


def closed_terms():
    def build(draw):
        # binder-aware generation: wrap a scoped body in its lambdas
        names = draw(st.lists(_names, min_size=0, max_size=3, unique=True))
        body = draw(_terms(frozenset(names)))
        for n in reversed(names):
            body = Lam(n, body)
        # apply to dummies so the term is closed and interesting
        for _ in names:
            body = App(body, NIL)
        return body

    return st.composite(lambda draw: build(draw))()


@settings(max_examples=120, deadline=None)
@given(closed_terms())
def test_print_parse_roundtrip(t):
    assert alpha_eq(parse_term(print_term(t)), t)


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
    s = unify_patterns(p, q)
    if s is None:
        return None
    return pattern_to_term(resolve_pattern(p, s))


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


def test_parse_defs_rejects_incompatible_case():
    # the parser checks every case, so a loaded prelude needs no re-check
    with pytest.raises(IncompatibleClauses):
        parse_defs("def f = fun x -> case x of { Left(a) -> a; Left(Nil) -> Left(Nil) } ;")
