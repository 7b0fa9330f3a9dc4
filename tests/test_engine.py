import gc
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ambreal import engine
from ambreal.codec import EPStream, inject_sd, sd_encode
from ambreal.engine import (
    TAGS,
    UNRESOLVED_TEXT,
    Engine,
    ObservationTooLarge,
    OpenTerm,
    det_step,
)
from ambreal.prelude import Prelude, load_prelude
from ambreal.terms import (
    ARITY,
    BOT,
    NIL,
    App,
    Case,
    Clause,
    Con,
    Lam,
    PCon,
    PFun,
    PVar,
    Var,
    alpha_eq,
    con,
    parse_defs,
    parse_term,
    print_term,
)

from .conftest import closed_terms

POR = parse_term(
    """fun c -> case c of {
  Pair(Left(Nil), _) -> Left(Nil);
  Pair(_, Left(Nil)) -> Left(Nil);
  Pair(Right(Nil), Right(Nil)) -> Right(Nil) }"""
)
TRUE = con("Left", NIL)
FALSE = con("Right", NIL)


@pytest.fixture
def e():
    return Engine()


# ---------------------------------------------------------------------------
# det_step: the one-step relation on terms


def test_rec_unfold():
    t = parse_term("rec (fun a -> a)")
    assert alpha_eq(det_step(t), App(Lam("a", Var("a")), t))


def test_beta():
    assert det_step(parse_term("(fun a -> a) Nil")) == NIL


def test_values_self_step():
    for t in (parse_term("fun a -> a"), NIL, BOT):
        assert det_step(t) == t


def test_parallel_or_by_det_steps():
    t = App(POR, con("Pair", TRUE, BOT))
    for _ in range(20):
        if t == TRUE:
            break
        t = det_step(t)
    assert t == TRUE


def test_constructor_children_step_together():
    redex = App(Lam("x", Var("x")), NIL)
    t = con("Pair", redex, redex)
    assert det_step(t) == con("Pair", NIL, NIL)


@settings(max_examples=100, deadline=None)
@given(closed_terms())
def test_det_step_deterministic(t):
    assert alpha_eq(det_step(t), det_step(t))


# ---------------------------------------------------------------------------
# whnf


def test_whnf_bot_unresolved(e):
    assert e.whnf(BOT, 1000)[0] is None


def test_whnf_pair_is_value(e):
    v, _ = e.whnf(parse_term("Pair(bot, bot)"), 1)
    assert v[0] == "con" and v[1] == "Pair"


def test_whnf_rec_identity_loops(e):
    assert e.whnf(parse_term("rec (fun f -> f)"), 1000)[0] is None


def test_whnf_amb_is_value(e):
    v, _ = e.whnf(parse_term("Amb(bot, bot)"), 10)
    assert v[1] == "Amb"


# ---------------------------------------------------------------------------
# resolve_amb


def test_resolve_left_ready(e):
    v, _ = e.resolve_amb(parse_term("Amb(Left(Nil), bot)"), 100)
    assert v[1] == "Left"


def test_resolve_right_defined(e):
    v, _ = e.resolve_amb(parse_term("Amb(bot, Right(Nil))"), 10**5)
    assert v[1] == "Right"


def test_resolve_both_bot(e):
    assert e.resolve_amb(parse_term("Amb(bot, bot)"), 10**6)[0] is None


def test_tie_breaks_left(e):
    v, _ = e.resolve_amb(parse_term("Amb(Left(Nil), Right(Nil))"), 100)
    assert v[1] == "Left"


# ---------------------------------------------------------------------------
# observe


def test_observe_raw_spine(e):
    o = e.observe(parse_term("Pair(Nil, Pair(Nil, bot))"), 3, 1000, "raw")
    assert o == "Pair(Nil, Pair(Nil, <unresolved>))"


def test_observe_resolving_collapses(e):
    o = e.observe(parse_term("Amb(bot, Pair(Nil, Nil))"), 2, 10**4, "resolving")
    assert o == "Pair(Nil, Nil)"


def test_observe_raw_amb(e):
    o = e.observe(parse_term("Amb(Nil, bot)"), 1, 1000, "raw")
    assert o == "Amb(Nil, <unresolved>)"


def test_observe_depth_truncation(e):
    o = e.observe(parse_term("Left(Left(Nil))"), 0, 100)
    assert o == "Left(...)"


def test_observe_past_the_node_limit(monkeypatch):
    # every level of Pair(s, s) doubles the observation: 31 nodes to depth
    # 4, 63 to depth 5; the walk stops at the limit, before the next drive
    monkeypatch.setattr(engine, "OBSERVE_NODE_LIMIT", 31)
    e = Engine()
    drives = []
    whnf = e.whnf
    monkeypatch.setattr(e, "whnf", lambda n, fuel: drives.append(n) or whnf(n, fuel))
    t = parse_term("rec (fun s -> Pair(s, s))")
    assert e.observe(t, 4, 100, "raw").count("Pair") == 31
    drives.clear()
    with pytest.raises(ObservationTooLarge, match="more than 31 nodes"):
        e.observe(t, 5, 100, "raw")
    assert len(drives) == 31


def test_observe_past_the_tick_limit(monkeypatch):
    # a node gets the ticks the observation has left where those are fewer
    # than its fuel: spending them all and staying Unresolved raises, an
    # observation that fits reads as with no limit, and a cut-off that
    # leaves ticks unspent is an Unresolved node as before
    grow = "(rec (fun f -> fun x -> f (Pair(x, x)))) Nil"
    fits = parse_term(f"Pair({grow}, Pair(Left(Nil), Nil))")
    want = Engine().observe(fits, 3, 1000)
    monkeypatch.setattr(engine, "OBSERVE_TICK_LIMIT", 1000)
    assert want == "Pair(<unresolved>, Pair(Left(Nil), Nil))"
    assert Engine().observe(fits, 3, 1000) == want
    with pytest.raises(ObservationTooLarge, match="more than 1000 ticks"):
        Engine().observe(fits, 3, 1001)
    with pytest.raises(ObservationTooLarge, match="more than 1000 ticks"):
        Engine().observe(parse_term(f"Pair({grow}, {grow})"), 3, 600)
    assert Engine().observe(parse_term("rec (fun s -> Amb(s, s))"), 3) == UNRESOLVED_TEXT


# ---------------------------------------------------------------------------
# strict application


def strict_apply(f, a):
    """The case dispatch that forces a to a non-Amb value before applying f."""
    clauses = [
        Clause(PCon("Nil", ()), App(f, a)),
        Clause(PCon("Left", (PVar("_s1", True),)), App(f, a)),
        Clause(PCon("Right", (PVar("_s2", True),)), App(f, a)),
        Clause(PCon("Pair", (PVar("_s3", True), PVar("_s4", True))), App(f, a)),
        Clause(PFun("_s5", True), App(f, a)),
    ]
    return Case(a, tuple(clauses))


def test_strict_apply_value(e):
    f = parse_term("fun x -> Nil")
    o = e.observe(strict_apply(f, parse_term("Left(Nil)")), 1, 1000)
    assert o == "Nil"


def test_strict_apply_bot(e):
    f = parse_term("fun x -> Nil")
    assert e.observe(strict_apply(f, BOT), 1, 10**5) == UNRESOLVED_TEXT


def test_strict_apply_passes_argument(e):
    f = parse_term("fun x -> x")
    o = e.observe(strict_apply(f, parse_term("Right(Nil)")), 2, 1000)
    assert o == "Right(Nil)"


def test_strict_apply_excludes_amb(e):
    f = parse_term("fun x -> Nil")
    assert e.observe(strict_apply(f, parse_term("Amb(Nil, Nil)")), 1, 10**4) == UNRESOLVED_TEXT


# ---------------------------------------------------------------------------
# collapse_star


def test_collapse_immediate(e):
    v, _ = e.collapse_star(parse_term("Amb(Left(Nil), bot)"), 10**4)
    assert v[1] == "Nil"


def test_collapse_two_levels(e):
    t = parse_term("Amb(bot, Right(Amb(Left(Right(Nil)), bot)))")
    v, _ = e.collapse_star(t, 10**4)
    assert v[1] == "Right"


# the second resolves to Left at once, but its payload is bot
@pytest.mark.parametrize("src", ["Amb(bot, Right(Amb(bot, bot)))", "Amb(Left(bot), bot)"])
def test_collapse_unresolved(e, src):
    assert e.collapse_star(parse_term(src), 10**5) == (None, 10**5)


def test_collapse_malformed(e):
    from ambreal.engine import MalformedStar

    with pytest.raises(MalformedStar):
        e.collapse_star(parse_term("Amb(Nil, bot)"), 10**4)


def test_collapse_malformed_function(e):
    from ambreal.engine import MalformedStar

    with pytest.raises(MalformedStar, match="resolved to a function"):
        e.collapse_star(parse_term("Amb(fun x -> x, bot)"), 100)


def test_collapse_recurring_state_unresolved(e):
    # every peel leaves the same graph: the first checkpoint after
    # CHECK_WORK of work and the next one compare equal
    t = parse_term("(rec (fun f -> fun x -> Amb(Right(f x), bot))) Nil")
    assert e.collapse_star(t, 10**5) == (None, 99485)


@pytest.mark.parametrize(
    "src",
    [
        "rec (fun s -> Right(s))",
        "rec (fun s -> Right(Amb(bot, Right(s))))",
        "rec (fun s -> Amb(Right(s), bot))",
    ],
)
def test_collapse_free_peels_stop(e, src):
    # after a few ticks each peel costs none, so no fuel bound ends the
    # loop; the checks count peels as work, so they still start
    assert e.collapse_star(parse_term(src), 10**4) == (None, 9998)


# a countdown whose state is a closure: each round applies the state it
# was given (n Nil), so the state at one peel is the state at the next
# one up to a lambda that the next round enters.  mk builds the closure
# for a numeral Left^k(Nil).
MK = parse_term(
    "rec (fun mk -> fun d -> fun z -> case d of { Nil -> Nil; Left(e) -> Left(fun w -> mk e w) })"
)
CLOSURE_COUNTDOWN = parse_term(
    "rec (fun f -> fun n -> case n Nil of {"
    " Nil -> Amb(Left(Nil), bot); Left(m) -> Amb(Right(f m), bot) })"
)


def _nat(k, tag="Right"):
    t = NIL
    for _ in range(k):
        t = con(tag, t)
    return t


def test_collapse_closure_countdown_resolves(e):
    # the entered-lambda check keeps the cut-off from firing: dropping it
    # makes this Unresolved
    v, left = e.collapse_star(App(CLOSURE_COUNTDOWN, App(MK, _nat(300, "Left"))), 10**6)
    assert v == ("con", "Nil", [])
    assert 10**6 - left > engine.CHECK_WORK  # checks ran


@pytest.mark.parametrize(
    "src", ["rec (fun s -> Amb(s, bot))", "rec (fun s -> Amb(Amb(s, bot), bot))"]
)
@pytest.mark.parametrize("method", ["resolve_amb", "collapse_star"])
def test_indirection_cycle_cut_off(e, method, src):
    # the Amb's left arm is the stream itself (in the nested stream, the
    # inner Amb's arm is the outer Amb, which commits to the inner one),
    # so an Amb node wins its own race: committing it would close a cycle
    # of indirections, and resolve_node makes it bot instead
    assert getattr(e, method)(parse_term(src), 10**4) == (None, 9998)


@pytest.mark.parametrize("fuel", [100, 10**5])
@pytest.mark.parametrize("method", ["whnf", "resolve_amb", "collapse_star"])
@pytest.mark.parametrize("enabled", [True, False])
def test_fueled_call_restores_collector(e, method, fuel, enabled):
    t = parse_term("Amb(bot, Left(Nil))")
    was = gc.isenabled()
    try:
        if enabled:
            gc.enable()
        else:
            gc.disable()
        getattr(e, method)(t, fuel)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("policy, drive", [("resolving", "resolve_node"), ("raw", "whnf_node")])
def test_observe_pauses_the_collector(e, monkeypatch, policy, drive):
    # observe reads every node through a fueled call, so the collector
    # stays paused while the core runs, as for whnf / resolve_amb
    paused = []
    core = getattr(engine, drive)

    def spy(x, fuel):
        paused.append(not gc.isenabled())
        return core(x, fuel)

    monkeypatch.setattr(engine, drive, spy)
    was = gc.isenabled()
    gc.enable()
    try:
        o = e.observe(parse_term("Pair(Amb(bot, Nil), Left(Nil))"), 2, 10**3, policy)
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert o != UNRESOLVED_TEXT and len(paused) >= 3 and all(paused)


# ---------------------------------------------------------------------------
# parallel-or through the engine


@pytest.mark.parametrize(
    "arg,want",
    [
        (con("Pair", TRUE, BOT), "Left(Nil)"),
        (con("Pair", BOT, TRUE), "Left(Nil)"),
        (con("Pair", FALSE, FALSE), "Right(Nil)"),
    ],
)
def test_por(e, arg, want):
    assert e.observe(App(POR, arg), 2, 10**4) == want


def test_por_bot_bot(e):
    assert e.observe(App(POR, con("Pair", BOT, BOT)), 2, 10**6) == UNRESOLVED_TEXT


# ---------------------------------------------------------------------------
# case dispatch against first-match order


def _patterns(depth=2):
    leaves = st.sampled_from([(engine.PVAR,), (engine.PFUN,)])
    if depth == 0:
        return leaves
    sub = _patterns(depth - 1)
    cons = st.integers(0, 4).flatmap(
        lambda tag: st.tuples(*[sub] * engine.ARITY_OF[tag]).map(
            lambda kids: (engine.PCON, tag, kids)
        )
    )
    return leaves | cons


def _scrutinees(depth=2):
    leaves = st.sampled_from(
        [parse_term("fun x -> x"), parse_term("(fun x -> x) Nil"), BOT, NIL]
    )
    if depth == 0:
        return leaves
    sub = _scrutinees(depth - 1)
    cons = st.sampled_from(TAGS[1:]).flatmap(
        lambda tag: st.tuples(*[sub] * ARITY[tag]).map(lambda kids: Con(tag, kids))
    )
    return leaves | cons


def _first_match(m, clauses):
    def match(nd, pat, binds):
        if pat[0] == engine.PVAR:
            binds.append(nd)
            return True
        nd = engine.head(nd)
        if pat[0] == engine.PFUN:
            if nd.kind != engine.LAM:
                return False
            binds.append(nd)
            return True
        if nd.kind != engine.CON or nd.tag != pat[1]:
            return False
        return all(match(k, p, binds) for k, p in zip((nd.k0, nd.k1), pat[2]))

    for pat, body in clauses:
        binds = []
        if match(m, pat, binds):
            return binds, body
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(_patterns(), min_size=1, max_size=6), _scrutinees())
def test_dispatch_keeps_first_match_order(patterns, t):
    clauses = tuple((p, ("body", i)) for i, p in enumerate(patterns))
    m = engine.head(Engine().load(t))
    table = engine.dispatch(clauses)
    if m.kind == engine.CON:
        slot = m.tag
    else:
        slot = engine.LAM_SLOT if m.kind == engine.LAM else engine.PENDING_SLOT
    got = engine.try_match(m, table[slot])
    want = _first_match(m, clauses)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[1] == want[1]
        assert [id(n) for n in got[0]] == [id(n) for n in want[0]]


# ---------------------------------------------------------------------------
# fuel properties


@settings(max_examples=60, deadline=None)
@given(closed_terms(), st.integers(min_value=1, max_value=64))
def test_fuel_monotone(t, fuel):
    e1, e2 = Engine(), Engine()
    r1 = e1.observe(t, 3, fuel)
    r2 = e2.observe(t, 3, fuel * 4)
    if r1 != UNRESOLVED_TEXT:
        assert r1 == r2


CONFORM_STEPS = 400

COUNTDOWN = parse_term("rec (fun f -> fun n -> case n of { Right(m) -> f m; Nil -> Nil })")
NTH = parse_term(
    "rec (fun f -> fun n -> fun s -> case n of {"
    " Right(m) -> case s of { Pair(_, r) -> f m r };"
    " Nil -> case s of { Pair(h, _) -> h } })"
)
# forces its argument to a head, then returns it: the graph machine reuses
# the evaluated node, det_step evaluates the substituted copy again
SHARE = parse_term(
    "fun x -> case x of { Nil -> x; Left(_) -> x; Right(_) -> x;"
    " Pair(_, _) -> x; Amb(_, _) -> x; fun(_) -> x }"
)
_PRELUDE = load_prelude()
PROJ_L, PROJ_R, NEG3, CELL2SD = (_PRELUDE.get(n) for n in ("proj_L", "proj_R", "neg3", "cell2sd"))
TOWER = {
    "id": lambda t: App(Lam("x", Var("x")), t),
    "left": lambda t: App(Lam("x", con("Left", Var("x"))), t),
    "share": lambda t: App(SHARE, t),
}


def _tower(base, kinds):
    for kind in kinds:
        base = TOWER[kind](base)
    return base


def slow_terms():
    """Terms that reach their head late or share nodes: countdowns of drawn
    depth, identity / Left / sharing towers, and signed digits read off rec
    streams through NTH and the prelude's projections, then passed to
    digit combinators.  A countdown ends in Nil, which neg3 and cell2sd
    do not match, so those terms get stuck only after their argument ran."""
    digits = st.lists(st.sampled_from((-1, 0, 1)), max_size=3)
    streams = st.recursive(
        st.builds(lambda pre, per: inject_sd(EPStream(tuple(pre), (0, *per))), digits, digits),
        lambda inner: st.one_of(
            st.builds(App, st.just(PROJ_R), inner), inner.map(TOWER["share"])
        ),
        max_leaves=3,
    )
    countdowns = st.integers(0, 120).map(lambda k: App(COUNTDOWN, _nat(k)))
    values = st.one_of(
        countdowns,
        countdowns.map(lambda t: App(NEG3, t)),
        st.builds(
            _tower,
            st.sampled_from((NIL, con("Left", NIL), con("Pair", NIL, NIL))),
            st.lists(st.sampled_from(sorted(TOWER)), max_size=40),
        ),
        st.builds(App, st.just(PROJ_L), streams),
        st.builds(lambda k, s: App(App(NTH, _nat(k)), s), st.integers(0, 24), streams),
    )
    return st.recursive(
        values,
        lambda inner: st.builds(App, st.sampled_from((NEG3, CELL2SD)), inner),
        max_leaves=3,
    )


# det_step reaches Nil after 804 steps, so the engine spends all its fuel
# on it; a cut-off that fired on it would be unsound.
SLOW_HEAD = App(COUNTDOWN, _nat(200))

# terms whose shared argument SLOW (three beta steps from Left(Nil)) is
# met twice in one tick, so the generation stamp skips the second visit:
# in _broadcast's first child, in its second child (under resolve_amb),
# and as a node of _step's congruence spine.  Fuel left is pinned below.
SLOW = "((fun a -> (fun b -> (fun c -> c) b) a) Left(Nil))"
STAMP_K0 = (
    "(fun y -> case Pair(Pair(y, Nil), Pair(y, Nil))"
    f" of {{ Pair(Pair(Left(_), _), _) -> Nil }}) {SLOW}"
)
STAMP_K1 = f"(fun y -> Amb(y, y)) {SLOW}"
STAMP_SPINE = (
    "(fun y -> case Pair(case y of { Left(_) -> Nil }, case y of { Left(_) -> Nil })"
    f" of {{ Pair(Nil, Nil) -> Nil }}) {SLOW}"
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(closed_terms(), slow_terms()))
@example(SLOW_HEAD)
@example(parse_term(STAMP_K0))
@example(parse_term(STAMP_K1))
@example(parse_term(STAMP_SPINE))
def test_graph_machine_conforms_to_det_step(t):
    # if det_step reaches a constructor or lambda head after k steps, the
    # graph machine reaches the same head within k ticks (sharing can only
    # save steps).  An Unresolved before the fuel is spent is a divergence
    # cut-off (a quiescent drain or a frozen spine): det_step must then
    # reach no head within ten times the budget.
    v, left = Engine().whnf(t, CONFORM_STEPS)
    cut_off = v is None and left > 0
    limit = 10 * CONFORM_STEPS if cut_off else CONFORM_STEPS
    # a term the machine cut off may grow an application deeper with every
    # unfolding, as (fun g -> rec (fun g -> g g)) Nil does, and det_step
    # recurses once per level
    depth = sys.getrecursionlimit()
    sys.setrecursionlimit(max(depth, 10 * limit))
    try:
        u, k = t, 0
        while not isinstance(u, (Con, Lam)):
            if k == limit:
                return
            u, k = det_step(u), k + 1
    finally:
        sys.setrecursionlimit(depth)
    want = ("con", u.tag) if isinstance(u, Con) else ("lam", None)
    assert v is not None and v[:2] == want
    assert CONFORM_STEPS - left <= k


def _observe_recursively(drive, node, depth, fuel):
    """The observation walk as plain recursion: the order the stack walk
    of Engine.observe must keep."""
    view, _left = drive(node, fuel)
    if view is None:
        return UNRESOLVED_TEXT
    kind, name, kids = view
    if kind == "lam":
        return "<fun>"
    if not kids:
        return name
    if depth <= 0:
        return f"{name}(...)"
    return f"{name}({', '.join(_observe_recursively(drive, k, depth - 1, fuel) for k in kids)})"


# both children share one countdown of 23 ticks and each node gets 15: the
# left child runs out, the right one finishes the work
SHARED_COUNTDOWN = (
    "(fun x -> Pair(x, x)) ((rec (fun f -> fun n -> case n of { Left(m) -> f m; Nil -> Nil }))"
    f" {'Left(' * 10}Nil{')' * 10})"
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(closed_terms(), slow_terms()), st.sampled_from(["raw", "resolving"]))
@example(parse_term(SHARED_COUNTDOWN), "raw")
@example(parse_term(STAMP_K1), "raw")
def test_observe_keeps_the_recursive_order(t, policy):
    # same nodes driven in the same order: the same observation, and the
    # same ticks spent
    e = Engine()
    drive = e.resolve_amb if policy == "resolving" else e.whnf
    start = engine._tick
    want = _observe_recursively(drive, e.load(t), 3, 15)
    ticks = engine._tick - start
    start = engine._tick
    got = e.observe(t, 3, 15, policy)
    assert (got, engine._tick - start) == (want, ticks)


def test_frozen_spine_cut_off(e):
    # the unfolded rec applies itself to Nil, so the congruence descent
    # meets the stepped node again: _step freezes the spine and whnf
    # returns Unresolved early.  det_step's term grows by one App every
    # two steps, so it is checked here, not by the conformance property,
    # whose 10x budget would overflow _det's recursion.
    t = parse_term("rec (fun f -> f Nil)")
    assert e.whnf(t, 10**4) == (None, 9997)
    for _ in range(CONFORM_STEPS):
        assert not isinstance(t, (Con, Lam))
        t = det_step(t)


def test_frozen_spine_loop_below_top(e):
    # two cases lead down to the unfolded rec, whose scrutinee spine runs
    # through three cases back to itself: the descent meets its own stamp
    # two levels below its top, and every node it passed is frozen, the
    # two above the loop as well as the three on it
    case = "case {} of {{ Nil -> Nil }}"
    loop = "rec (fun s -> " + case.format(case.format(case.format("s"))) + ")"
    node = e.load(parse_term(case.format(case.format(loop))))
    assert e.whnf(node, 10**4) == (None, 9997)
    spine = []
    n = node
    while n not in spine:
        spine.append(n)
        n = n.k0
    assert spine.index(n) == 2 and len(spine) == 5
    assert all(s.kind == engine.CASE and s.q for s in spine)
    assert e.whnf(node, 10**4) == (None, 10**4)


def test_form_reads_an_application_s_children(e):
    # two applications that differ only in their argument have different
    # forms, so a recurrence check cannot take one state for the other
    fn = parse_term("fun x -> x")
    forms = [
        engine._form(e.apply(e.load(fn), e.load(parse_term(arg))), 0)[0]
        for arg in ("Nil", "Left(Nil)")
    ]
    assert forms[0] != forms[1]


def test_collapse_checks_cost_at_most_their_ticks(monkeypatch):
    # the accumulator grows by a pair each round, so the readable graph
    # grows with the peels and no two forms are equal.  A check waits for
    # as much work (ticks and peels) as the last form had entries;
    # checking at every peel would make this collapse quadratic in k
    sizes = []
    form = engine._form

    def spy(root, since):
        f, opaque = form(root, since)
        sizes.append(len(f))
        return f, opaque

    monkeypatch.setattr(engine, "_form", spy)
    it = parse_term(
        "rec (fun f -> fun n -> fun acc -> case n of { Nil -> Amb(Left(acc), bot);"
        " Left(m) -> Amb(Right(f m (Pair(m, acc))), bot) })"
    )
    v, left = Engine().collapse_star(App(App(it, _nat(2000, "Left")), NIL), 10**6)
    ticks = 10**6 - left
    assert v[1] == "Pair" and ticks == 6005
    assert len(sizes) >= 3 and sum(sizes[:-1]) <= ticks + 2000


# ---------------------------------------------------------------------------
# the collapse's recurrence cut-off against a plain peel loop

CUT_BUDGET = 4 * engine.CHECK_WORK


def _plain_collapse(node, fuel):
    """collapse_node without checkpoints: (view or None, fuel left).  A
    collapse that peels more times than its fuel is Unresolved (its
    peels stopped costing ticks)."""
    e = Engine()
    for _ in range(fuel + 1):
        r, fuel = engine.resolve_node(node, fuel)
        if r is None:
            return r, fuel
        if r.kind == engine.CON and r.tag == engine.RIGHT:
            node = r.k0
            continue
        assert r.kind == engine.CON and r.tag == engine.LEFT
        v, fuel = engine.whnf_node(r.k0, fuel)
        return (e.view(v) if v is not None else None), fuel
    return None, 0


# one round of an iteration over a state n and an accumulator a: the
# state is a numeral (data), the closure mk makes of one (closure), or a
# lambda that returns one (wrapped); the accumulator stays, or grows a
# closure that only the final answer applies
_VIEW = {"data": "n", "closure": "n Nil", "wrapped": "n Nil"}
_NEXT = {"data": "m", "closure": "m", "wrapped": "(fun z -> m)"}
_ACC = {"same": "a", "grow": "fun y -> a (Left(y))"}


def _iteration(state, acc, right_first, k):
    done = "Amb(bot, Left(a Nil))" if right_first else "Amb(Left(a Nil), bot)"
    more = f"Right(f {_NEXT[state]} ({_ACC[acc]}))"
    more = f"Amb(bot, {more})" if right_first else f"Amb({more}, bot)"
    it = parse_term(
        f"rec (fun f -> fun n -> fun a -> case {_VIEW[state]} of"
        f" {{ Nil -> {done}; Left(m) -> {more} }})"
    )
    # k None: a numeral with no end
    num = parse_term("rec (fun s -> Left(s))") if k is None else _nat(k, "Left")
    if state == "closure":
        num = parse_term("rec (fun s -> fun z -> Left(s))") if k is None else App(MK, num)
    elif state == "wrapped":
        num = Lam("z", num)
    return App(App(it, num), parse_term("fun y -> y"))


def _first_sign(pre, per):
    return App(_PRELUDE.get("f_d"), App(_PRELUDE.get("sd_emb"), inject_sd(EPStream(pre, per))))


def iterations():
    """Finite-iteration values whose collapse takes a few hundred to a few
    thousand ticks, as (builder, arguments): drawn iterations (above)
    that end after k rounds or never, and f_d over signed-digit streams
    with long zero prefixes.  The terms nest hundreds of levels deep, too
    deep for hypothesis to print, so the test builds them."""
    ks = st.one_of(st.none(), st.integers(0, 400))
    drawn = st.tuples(
        st.just(_iteration),
        st.sampled_from(sorted(_VIEW)),
        st.sampled_from(sorted(_ACC)),
        st.booleans(),
        ks,
    )
    zeros = st.integers(0, 200).map(lambda z: (0,) * z)
    digits = st.lists(st.sampled_from((-1, 0, 1)), max_size=2).map(tuple)
    streams = st.builds(
        lambda z, tail, per: (_first_sign, z + tail, (0, *per)), zeros, digits, digits
    )
    return st.one_of(drawn, streams)


@settings(max_examples=120, deadline=None)
@given(iterations())
@example((_iteration, "closure", "same", False, 300))
@example((_iteration, "closure", "grow", True, 300))
@example((_first_sign, (0,) * 150, (0,)))
@example((_first_sign, (0,) * 150 + (1,), (0,)))
# the race exposes the stuck application Nil Nil and never wins it: the
# checkpoint form meets an application node
@example((parse_term, "(rec (fun f -> fun x -> Amb(x, Right(f x)))) (Nil Nil)"))
def test_collapse_cut_off_is_sound(spec):
    # an Unresolved before the budget is spent must be one that a plain
    # peel loop also reaches at ten times the budget; a resolved value is
    # the plain loop's, with the same fuel left (checks cost no tick)
    build, *args = spec
    t = build(*args)
    got = Engine().collapse_star(t, CUT_BUDGET)
    if got[0] is None and got[1] > 0:
        assert _plain_collapse(Engine().load(t), 10 * CUT_BUDGET)[0] is None
    elif got[0] is not None:
        v, left = _plain_collapse(Engine().load(t), CUT_BUDGET)
        assert (v[:2], left) == (got[0][:2], got[1])


# ---------------------------------------------------------------------------
# a result that did not run out of fuel does not depend on the fuel


def _same_at_four_times_the_fuel(drive, t, fuel):
    """An answer, or an Unresolved with fuel left (a cut-off), that a fresh
    load of t reaches at `fuel` is reached at 4 * fuel too, after the same
    ticks."""
    v, left = drive(t, fuel)
    if v is None and not left:
        return  # the fuel ran out: a larger fuel may get further
    w, left4 = drive(t, 4 * fuel)
    assert (w and w[:2], 4 * fuel - left4) == (v and v[:2], fuel - left)


@settings(max_examples=400, deadline=None)
@given(st.one_of(closed_terms(), slow_terms()), st.sampled_from(["whnf", "resolve_amb"]))
@example(SLOW_HEAD, "whnf")
@example(parse_term("rec (fun f -> f Nil)"), "whnf")
@example(parse_term("rec (fun s -> Amb(Amb(s, bot), bot))"), "resolve_amb")
@example(parse_term("Amb(bot, rec (fun f -> f))"), "resolve_amb")
def test_cut_off_does_not_depend_on_fuel(t, method):
    _same_at_four_times_the_fuel(getattr(Engine(), method), t, CONFORM_STEPS)


@settings(max_examples=60, deadline=None)
@given(iterations())
@example((_iteration, "closure", "same", False, None))
@example((_first_sign, (0,) * 150, (0,)))
@example((_first_sign, (0,) * 200 + (1,), (0,)))
def test_collapse_cut_off_does_not_depend_on_fuel(spec):
    build, *args = spec
    _same_at_four_times_the_fuel(Engine().collapse_star, build(*args), CUT_BUDGET)


def test_fairness_bound():
    # A reaches whnf in k ticks; racing it against bot must finish in 3k+64
    e = Engine()
    rng_terms = []
    t = NIL
    for i in range(40):
        rng_terms.append(t)
        t = App(Lam("x", Var("x")), t)  # one more beta step each time
    for t in rng_terms:
        probe = Engine()
        node = probe.load(t)
        _, left = probe.whnf(node, 10**6)
        k = 10**6 - left
        assert k <= 10**3
        race = Engine()
        v, left2 = race.resolve_amb(Con("Amb", (BOT, t)), 3 * k + 64)
        assert v is not None


def test_amb_commitment_stable():
    e = Engine()
    node = e.load(parse_term("Amb(bot, Pair(Nil, Nil))"))
    first = e.observe(node, 2, 10**4)
    for _ in range(3):
        assert e.observe(node, 2, 10**4) == first


def test_observation_never_mixes_branches():
    # once committed to the right branch, the left one is gone
    e = Engine()
    node = e.load(parse_term("Amb(bot, Left(Nil))"))
    v, _ = e.resolve_amb(node, 10**4)
    assert v[1] == "Left"
    o = e.observe(node, 2, 10**3, "raw")
    assert o == "Left(Nil)"


@pytest.mark.parametrize(
    "t",
    [
        Var("x"),
        Lam("y", con("Pair", Var("y"), Var("x"))),
        # x is bound by the first clause only
        Case(
            TRUE,
            (
                Clause(PCon("Left", (PVar("x"),)), Var("x")),
                Clause(PCon("Right", (PVar("z"),)), Var("x")),
            ),
        ),
    ],
)
def test_load_rejects_open_terms(e, t):
    with pytest.raises(OpenTerm, match="unbound variable x"):
        e.load(t)


def test_case_binds_64_variables(e):
    # a depth-6 Pair pattern binds 64 variables: the environment is a
    # linked tuple, so no limit on binders applies
    def tree(depth, pair, leaves):
        if depth == 0:
            return next(leaves)
        return pair(tree(depth - 1, pair, leaves), tree(depth - 1, pair, leaves))

    pattern = tree(6, lambda a, b: PCon("Pair", (a, b)), (PVar(f"v{i}") for i in range(64)))
    scrutinee = tree(6, lambda a, b: con("Pair", a, b), (_nat(i) for i in range(64)))
    t = Case(scrutinee, (Clause(pattern, Var("v41")),))
    assert e.whnf(t, 10**4)[1] == 10**4 - 1
    assert e.observe(t, 50, policy="raw") == e.observe(_nat(41), 50, policy="raw")


# ---------------------------------------------------------------------------
# tick accounting: exact fuel left, pinned


@pytest.mark.parametrize(
    "src, head, left",
    [
        ("bot", None, 10**4),
        ("rec (fun f -> f)", None, 9998),
        ("(fun a -> a) Nil", "Nil", 9999),
        ("por Pair(bot, Left(Nil))", "Left", 9998),
        ("f_ret Nil", "Amb", 9999),
        ("rec (fun s -> Pair(Nil, s))", "Pair", 9998),
        (STAMP_K0, "Nil", 9995),
        (STAMP_SPINE, "Nil", 9994),
    ],
)
def test_whnf_fuel_left(prelude, src, head, left):
    t = parse_defs(f"main = {src} ;", dict(prelude.terms))[1]
    r, got = Engine().whnf(t, 10**4)
    assert (r and r[1], got) == (head, left)


@pytest.mark.parametrize(
    "src, head, left",
    [
        ("Amb(bot, Right(Nil))", "Right", 10**4),
        ("Amb(Left(Nil), Right(Nil))", "Left", 10**4),
        ("Amb(bot, Right(Amb(Left(Right(Nil)), bot)))", "Right", 10**4),
        ("Amb(rec (fun f -> f), (fun a -> (fun b -> b) a) Left(Nil))", "Left", 9998),
        (STAMP_K1, "Left", 9996),
    ],
)
def test_race_fuel_left(src, head, left):
    r, got = Engine().resolve_amb(parse_term(src), 10**4)
    assert (r[1], got) == (head, left)


def test_collapse_fuel_left(prelude):
    # the first Gray cell of x: f_d over the signed-digit embedding.  One
    # fresh Prelude for all four, so the first run also pays for
    # evaluating the shared f_d and sd_emb nodes and the others do not.
    p = Prelude(prelude.terms)
    e = p.engine
    got = []
    for x in (Fraction(1, 3), Fraction(1, 64), Fraction(-7, 32), Fraction(0)):
        s = sd_encode(x)
        n = e.apply(p.node("f_d"), e.apply(p.node("sd_emb"), e.load(inject_sd(s))))
        v, left = engine.collapse_node(n, 10**4)
        got.append((v and e.view(v)[1], left))
    assert got == [("Right", 9964), ("Right", 9876), ("Left", 9951), (None, 8985)]
