"""Operational semantics: deterministic small steps, Amb racing, observation.

Two layers live here.  `det_step` is the textbook one-step relation on
closed terms (rules: case firing, beta, rec unfolding, congruence steps,
parallel stepping under constructors, values and bot stepping to
themselves).  The graph machine evaluates the same relation on a shared
mutable graph with memoized heads, so that Amb commitments are remembered
and both arms of a race advance on every tick.  It runs the code tuples
that compile_term makes of terms, and `Engine` drives it.

Fuel counts root steps.  A "tick" of fuel is one application of the root
step relation: beta, case firing, rec unfolding, or the congruence step
that advances the function position, the scrutinee, or (for
constructor-rooted terms) all children at once.  That last broadcast rule
is what races the two arms of Amb fairly: one tick advances both.
Exhaustion yields Unresolved, never a wrong answer, and any result
obtained at some fuel is returned unchanged at every larger fuel.

Sharing subtleties: rec unfolds to an application whose argument is the
rec node itself, so streams are cyclic graphs.  A node's gen holds the
tick of its last step, which keeps it from being advanced twice in one
tick (a shared subterm steps once for all its occurrences); or the
negative stamp of the last congruence descent that passed it, with which
_step finds a spine that loops back on itself in one pass and freezes it
as divergent; or, on a lambda, the tick of its last entry.

Divergence is detected eagerly where sound: a node whose step is the
identity (bot, a stuck application, a frozen scrutinee matching no clause)
is flagged quiescent, a fuel loop that observes a no-progress tick stops,
an Amb node that wins its own race becomes bot, and a finite-iteration
collapse whose state recurs modulo the closures it never applies is cut
off (below; the unknown cell of a Gray code at a dyadic point would
otherwise burn every tick given).  None of this changes an answer or its
ticks.  Every fueled call returns (node or None, fuel left) having spent
fuel - left ticks, so an Unresolved with fuel left is a cut-off, reached
after the same ticks at any larger fuel, and one with none ran out.

The recurrence cut-off.  At a peel boundary the future of collapse_node
depends only on the graph its run can read from the peel root x.  _form
writes that graph down canonically: it looks through indirections
(they only forward to their target), descends a node's env only at the
slots its code reads (compile_term records them as a mask on each code),
and keeps q, kinds, tags and code identities.  A lambda is used only by
beta: matching, binding, racing and returning it read nothing inside
it.  So a lambda that the run will not enter is a token, and _form makes
an opaque leaf of every lambda not entered since the previous checkpoint
(beta stamps f.gen with the tick) and of every suspension of a lambda.
The collapse returns Unresolved at checkpoint i+1 when its form equals
that of checkpoint i and no opaque lambda of checkpoint i was entered
between them.  Soundness is a simulation up to opaque leaves: equal
forms give a bijection phi from checkpoint i's readable graph to
checkpoint i+1's that maps opaque leaves to opaque leaves.  The run from
checkpoint i reached checkpoint i+1 reading no opaque leaf's inside, so
the run from checkpoint i+1 makes the phi-image of every step, node for
node and tick for tick (a step reads only what the form holds; the gen
stamps it compares are all older than the current tick), and it too
ends in a Right peel having entered no opaque leaf.  Entry is mirrored,
so the checkpoint it reaches has the same form and the same opaque
leaves, and the argument repeats: the collapse peels Right forever.
Codes are compared by id; no code is made while a collapse runs, so an
id in the previous form cannot name a code made since.

Two choices keep the per-tick work small without moving a tick.  A
child position whose code is a variable is linked straight to its
binding instead of getting a suspension of its own (as the STG machine
never builds a thunk for a variable argument): exposing such a fresh
suspension could only make it an indirection to that binding, and heads
look through indirections, so every step sees the same nodes.  And a
case's clauses are compiled (dispatch) into a table indexed by the
scrutinee's head: one slot per constructor tag, one for a lambda, one
for a head that is not yet a value, each holding the clauses whose top
pattern can match that head, in order.  A clause left out of a slot is
one whose top pattern fails at once on that head, and matching costs no
fuel, so the first match and its bindings are those of the plain
first-match scan.

Nodes have at most two children (constructor arity is bounded by 2 and
application/case use the same slots), stored in direct fields.

The tick accounting above is pinned by exact fuel-left values in
tests/test_engine.py.
"""

from __future__ import annotations

import gc

from .terms import (
    ARITY,
    App,
    Bot,
    Case,
    Con,
    Lam,
    PFun,
    PVar,
    Rec,
    Term,
    Var,
    free_vars,
    match_clause,
    pattern_vars,
    _subst,
)

# there is no compiled step core; the benchmark reports this flag
# (perfbench/ready.py)
COMPILED = False

UNLIMITED = 10**15

# node kinds / code opcodes (shared numbering where it helps)
SUSP, CON, LAM, APP, CASE, REC, BOT, IND = range(8)
# code tuples, each ending with its free-slot mask (bit i: reads env slot
# i): (VAR_, idx, m) (CON_, tag, kids, m) (LAM_, body, m) (APP_, fn, arg, m)
# (CASE_, scrut, dispatch table, m) (REC_, body, m) (BOT_, m)
VAR_, CON_, LAM_, APP_, CASE_, REC_, BOT_ = range(7)
# pattern opcodes: (PVAR,) (PFUN,) (PCON, tag, kids)
PVAR, PFUN, PCON = range(3)

# constructor tags, numbered in terms.ARITY's order
TAGS = tuple(ARITY)
TAGNUM = {t: i for i, t in enumerate(TAGS)}
ARITY_OF = tuple(ARITY[t] for t in TAGS)
LEFT, RIGHT, AMB = TAGNUM["Left"], TAGNUM["Right"], TAGNUM["Amb"]

# case dispatch slots after the constructor tags
LAM_SLOT, PENDING_SLOT = len(TAGS), len(TAGS) + 1


class EngineError(Exception):
    pass


class OpenTerm(EngineError):
    pass


class MalformedStar(EngineError):
    """A finite-iteration value resolved to neither Left nor Right."""


class ObservationTooLarge(EngineError):
    """An observation past OBSERVE_NODE_LIMIT nodes or OBSERVE_TICK_LIMIT ticks."""


# ---------------------------------------------------------------------------
# the deterministic one-step relation on closed terms


def det_step(t: Term) -> Term:
    """The unique one-step successor of a closed term."""
    if free_vars(t):
        raise OpenTerm(f"det_step needs a closed term, got free {sorted(free_vars(t))}")
    return _det(t)


def _det(t: Term) -> Term:
    if isinstance(t, Case):
        hit = match_clause(t.scrutinee, t.clauses)
        if hit is not None:
            clause, env = hit
            return _subst(clause.body, env)
        return Case(_det(t.scrutinee), t.clauses)
    if isinstance(t, App):
        if isinstance(t.fn, Lam):
            return _subst(t.fn.body, {t.fn.var: t.arg})
        return App(_det(t.fn), t.arg)
    if isinstance(t, Rec):
        return App(t.body, t)
    if isinstance(t, Con):
        return Con(t.tag, tuple(_det(a) for a in t.args))
    # Lam, Bot: self steps
    return t


# ---------------------------------------------------------------------------
# the graph machine

_tick = 0
_stamp = 0  # the last congruence descent's stamp; counts down from -1


class Node:
    __slots__ = ("kind", "tag", "k0", "k1", "code", "env", "q", "gen")

    def __init__(self, kind, tag, k0, k1, code, env):
        self.kind = kind
        self.tag = tag
        self.k0 = k0
        self.k1 = k1
        self.code = code
        self.env = env
        self.q = False
        self.gen = 0


def follow(n):
    """The node at the end of n's indirections, compressing the path onto
    it.  No chain of indirections is a cycle (see resolve_node), so the
    walk ends."""
    if n.kind != IND:
        return n
    start = n
    while n.kind == IND:
        n = n.code
    while start.kind == IND:  # path compression
        nxt = start.code
        start.code = n
        start = nxt
    return n


def _link(code, env):
    """The node for a child position.  A variable is linked straight to
    its binding; any other code is suspended in env."""
    if code[0] == VAR_:
        idx = code[1]
        while idx:
            env = env[1]
            idx -= 1
        return env[0]
    return Node(SUSP, 0, None, None, code, env)


def head(n):
    """The head form of n: the node at the end of its indirections, with a
    suspension there unfolded.  A suspension of a variable becomes an
    indirection to the variable's binding, whose head is taken in turn.
    Costs no fuel.  Hot callers test for a SUSP or IND kind before calling."""
    while True:
        k = n.kind
        if k == IND:
            n = follow(n)
            k = n.kind
        if k != SUSP:
            return n
        code = n.code
        env = n.env
        op = code[0]
        if op == VAR_:
            target = follow(_link(code, env))
            n.env = None
            if target is n:
                n.kind = BOT
                n.code = None
                n.q = True
                return n
            n.kind = IND
            n.code = target
            n = target
            continue
        if op == APP_:
            n.kind = APP
            n.k0 = _link(code[1], env)
            n.k1 = _link(code[2], env)
            n.code = None
            n.env = None
        elif op == CASE_:
            n.kind = CASE
            n.k0 = _link(code[1], env)
            n.code = code[2]
        elif op == CON_:
            kids = code[2]
            n.kind = CON
            n.tag = code[1]
            if kids:
                n.k0 = _link(kids[0], env)
                if len(kids) > 1:
                    n.k1 = _link(kids[1], env)
            else:
                n.q = True
            n.code = None
            n.env = None
        elif op == LAM_:
            n.kind = LAM
            n.code = code[1]
            n.q = True
            n.gen = 0  # a lambda's gen is the tick of its last entry
        elif op == REC_:
            n.kind = REC
            n.code = code[1]
        else:  # BOT_
            n.kind = BOT
            n.code = None
            n.env = None
            n.q = True
        return n


def dispatch(clauses):
    """Compile a case's (pattern, body) clauses into its dispatch table.

    Slot t holds the clauses that can match a constructor head of tag t,
    LAM_SLOT those that can match a lambda and PENDING_SLOT those that
    can match a head that is not yet a value; each slot keeps first-match
    order.  An entry is (subpatterns, body), with None in place of
    the subpatterns for a variable or fun(_) pattern, which binds the head
    itself.  One pass over the clauses.
    """
    slots = tuple([] for _ in range(PENDING_SLOT + 1))
    for pattern, body in clauses:
        op = pattern[0]
        if op == PVAR:
            entry = (None, body)
            for slot in slots:
                slot.append(entry)
        elif op == PFUN:
            slots[LAM_SLOT].append((None, body))
        else:
            slots[pattern[1]].append((pattern[2], body))
    # tuples, not lists: the collector stops tracking a tuple of untracked
    # items, and the prelude alone holds 723 tables
    return tuple(map(tuple, slots))


def _match(nd, pat, binds):
    op = pat[0]
    if op == PVAR:
        binds.append(nd)
        return True
    k = nd.kind
    if k == SUSP or k == IND:
        nd = head(nd)
        k = nd.kind
    if op == PFUN:
        if k == LAM:
            binds.append(nd)
            return True
        return False
    if k != CON or nd.tag != pat[1]:
        return False
    sub = pat[2]
    if sub:
        if not _match(nd.k0, sub[0], binds):
            return False
        if len(sub) > 1 and not _match(nd.k1, sub[1], binds):
            return False
    return True


def try_match(m, entries):
    """The first of a dispatch slot's entries that matches m, the node in
    head form whose slot it is: (bound nodes, body), or None."""
    for sub, body in entries:
        if sub is None:
            return [m], body
        binds = []
        if not sub or (
            _match(m.k0, sub[0], binds) and (len(sub) == 1 or _match(m.k1, sub[1], binds))
        ):
            return binds, body
    return None


def _broadcast(c):
    """One simultaneous step of every non-quiescent child under c, a
    constructor node.

    Shared children (including cyclic occurrences) advance once per tick:
    the generation stamp set by _step skips them on a second visit.
    """
    prog = False
    allq = True
    ch = c.k0
    k = ch.kind
    if k == SUSP or k == IND:
        ch = head(ch)
        c.k0 = ch
    if not ch.q:
        if ch.gen == _tick:
            allq = False
            prog = True
        else:
            if _step(ch):
                prog = True
            if not ch.q:
                allq = False
    if ARITY_OF[c.tag] > 1:
        ch = c.k1
        k = ch.kind
        if k == SUSP or k == IND:
            ch = head(ch)
            c.k1 = ch
        if not ch.q:
            if ch.gen == _tick:
                allq = False
                prog = True
            else:
                if _step(ch):
                    prog = True
                if not ch.q:
                    allq = False
    if allq and not prog:
        c.q = True
    return prog


def _step(x):
    """One step at x, a node in head form.  Returns False iff x is frozen:
    nothing changed and nothing ever will.

    No quiescent node and no nullary constructor reaches _step: every
    caller, and the descent below, skips quiescent nodes; head makes
    lambdas, bot and nullary constructors quiescent at birth, and q is
    never reset.  So x and each node of the congruence spine below it is
    a constructor with children, a rec, an application or a case; the
    final return covers any other kind.  A step never turns x into an
    indirection (only resolve_node's commitment does), so a caller reads
    x.q afterwards with no follow.

    The descent writes a fresh stamp into gen of each spine node it
    leaves, an application or a case whose k0 now holds the next one.
    Meeting the stamp again closes a loop: the spine feeds itself, and the
    k0 walk from the top freezes the descent up to the node already frozen
    where the loop closed.  Ticks are positive and stamps negative, and a
    spine node's gen is compared only with _tick (head resets a new
    lambda's), so a stamp never passes for a step or an entry."""
    global _stamp
    top = None
    while True:
        if x.gen == _tick:
            return True  # this spine's step already happened via sharing
        k = x.kind
        if k == CON:
            x.gen = _tick
            return _broadcast(x)
        if k == REC:
            # rec M -> M (rec M); the recursive occurrence is shared with x
            x.gen = _tick
            fn = _link(x.code, x.env)
            x.kind = APP
            x.k0 = fn
            x.k1 = x
            x.code = None
            x.env = None
            return True
        if k == APP:
            f = x.k0
            k = f.kind
            if k == SUSP or k == IND:
                f = head(f)
                x.k0 = f
                k = f.kind
            if k == LAM:
                x.gen = _tick
                f.gen = _tick  # entry stamp, read by collapse_node
                arg = x.k1
                x.kind = SUSP
                x.code = f.code
                x.env = (arg, f.env)
                x.k0 = None
                x.k1 = None
                return True
            if f.q:  # fn frozen as constructor/bot: application is stuck
                x.q = True
                return False
            if k == CON:
                x.gen = _tick
                if _broadcast(f):
                    return True
                x.q = True
                return False
        elif k == CASE:
            f = x.k0
            k = f.kind
            if k == SUSP or k == IND:
                f = head(f)
                x.k0 = f
                k = f.kind
            entries = x.code[f.tag if k == CON else LAM_SLOT if k == LAM else PENDING_SLOT]
            r = try_match(f, entries) if entries else None
            if r is not None:
                x.gen = _tick
                binds, body = r
                env = x.env
                for nd in binds:
                    env = (nd, env)
                x.kind = SUSP
                x.code = body
                x.env = env
                x.k0 = None
                return True
            if f.q:
                x.q = True
                return False
            if k == CON:
                x.gen = _tick
                if _broadcast(f):
                    return True
                x.q = True
                return False
        else:
            return False
        # descend the congruence spine (fn / scrutinee positions)
        if top is None:
            _stamp -= 1
            stamp = _stamp
            top = x
        x.gen = stamp
        x = f
        if x.gen == stamp:  # the spine feeds itself: freeze the descent
            while not top.q:
                top.q = True
                top = top.k0
            return False


def whnf_node(x, fuel):
    """Drive x to weak head normal form.  Returns (node or None, fuel left)."""
    global _tick
    while True:
        k = x.kind
        if k == SUSP or k == IND:
            x = head(x)
            k = x.kind
        if k == CON or k == LAM:
            return x, fuel
        if x.q or fuel <= 0:
            return None, fuel
        fuel -= 1
        _tick += 1
        if not _step(x):
            return None, fuel


def resolve_node(x, fuel):
    """whnf, then race and commit Amb heads until a non-Amb value appears."""
    global _tick
    while True:
        x, fuel = whnf_node(x, fuel)
        if x is None or x.kind != CON or x.tag != AMB:
            return x, fuel
        while True:
            a = x.k0
            k = a.kind
            if k == SUSP or k == IND:
                a = head(a)
                x.k0 = a
                k = a.kind
            if k == CON or k == LAM:
                won = a
                break
            b = x.k1
            k = b.kind
            if k == SUSP or k == IND:
                b = head(b)
                x.k1 = b
                k = b.kind
            if k == CON or k == LAM:
                won = b
                break
            if fuel <= 0 or (a.q and b.q):
                return None, fuel
            fuel -= 1
            _tick += 1
            if not _step(x):
                return None, fuel
        x.k0 = None
        x.k1 = None
        # Only this commitment and head's VAR_ arm make an indirection.
        # head refuses a target whose chain ends at the node itself, and
        # path compression only shortens chains, so the indirections form
        # no cycle; and won is in head form, never an indirection, so
        # pointing x at it closes a cycle only if won is x.  That is an
        # Amb that wins its own race: rec (fun s -> Amb(s, bot)), or the
        # inner Amb of rec (fun s -> Amb(Amb(s, bot), bot)) on the next
        # round.  Resolving it only resolves it again, so x becomes bot.
        if won is x:
            x.kind = BOT
            x.q = True
            return None, fuel
        # commitment: the Amb node becomes its chosen branch for good
        x.kind = IND
        x.code = won
        x = won


# a collapse starts its recurrence checks after this much work (ticks and
# peels)
CHECK_WORK = 1024

_OPAQUE = ("fun",)


def _form(root, since):
    """The canonical form of the graph that the run from root can read, and
    its opaque lambdas.

    A preorder walk that looks through indirections and descends only the
    env slots a node's code reads.  A lambda not entered after tick
    `since`, or a suspension whose code is a lambda, is an opaque leaf:
    only the fact that it is a lambda goes into the form.  Each node's
    entry is a tuple, or the index of its first visit; a tuple fixes how
    many children follow it, so equal forms are isomorphic graphs."""
    seen = {}
    form = []
    opaque = []
    stack = [root]
    while stack:
        n = stack.pop()
        if n.kind == IND:
            n = follow(n)
        i = seen.get(n)
        if i is not None:
            form.append(i)
            continue
        seen[n] = len(seen)
        k = n.kind
        if k == CON:
            form.append((CON, n.tag, n.q))
            arity = ARITY_OF[n.tag]
            if arity:
                stack.append(n.k0)
                if arity > 1:
                    stack.append(n.k1)
            continue
        if k == APP:
            form.append((APP, n.q))
            stack.append(n.k0)
            stack.append(n.k1)
            continue
        code = n.code
        if k == CASE:
            form.append((CASE, id(code), n.q))
            stack.append(n.k0)
            mask = code[-1]
        elif k == LAM:
            if n.gen <= since:
                form.append(_OPAQUE)
                opaque.append(n)
                continue
            form.append((LAM, id(code)))
            mask = code[-1] >> 1
        elif k == BOT:
            form.append((BOT,))
            continue
        elif k == SUSP and code[0] == LAM_:
            form.append(_OPAQUE)
            opaque.append(n)
            continue
        else:  # SUSP, REC
            form.append((k, id(code)))
            mask = code[-1]
        env = n.env
        while mask:
            if mask & 1:
                stack.append(env[0])
            env = env[1]
            mask >>= 1
    return form, opaque


def collapse_node(x, fuel):
    """Resolve a finite-iteration value: peel Right(..), return whnf of the
    Left payload.  Returns (node or None, fuel left); MalformedStar if the
    value resolves to neither Left nor Right.

    An iteration whose state recurs modulo the closures it never applies
    is cut off (see the module docstring).  The checks are paid for by
    work, which counts ticks and peels (a loop of peels that cost no tick
    has no fuel to end it): they start after CHECK_WORK of work, and each
    later one waits for as much work as the last form had entries, so a
    collapse never spends more on checks than on steps.
    """
    start = since = _tick  # since: the tick of the last checkpoint
    peels = 0
    due = CHECK_WORK
    mark = None  # the last checkpoint's (form, opaque lambdas)
    while True:
        r, fuel = resolve_node(x, fuel)
        if r is None:
            return None, fuel
        if r.kind == CON and r.tag == RIGHT:
            x = r.k0
            peels += 1
            work = _tick - start + peels
            if work >= due:
                form, opaque = _form(x, since)
                if mark is not None and form == mark[0]:
                    for n in mark[1]:
                        if n.gen > since:
                            break
                    else:
                        return None, fuel  # the state recurs
                mark = (form, opaque)
                since = _tick
                due = work + len(form)
        elif r.kind == CON and r.tag == LEFT:
            return whnf_node(r.k0, fuel)
        else:
            raise MalformedStar(
                f"iteration value resolved to {TAGS[r.tag] if r.kind == CON else 'a function'}"
            )


# ---------------------------------------------------------------------------
# compilation to the graph machine's code tuples

# codes that depend on nothing but their slot are shared, one per slot
_BOT_CODE = (BOT_, 0)
_VAR_CODES = {}


def compile_term(t: Term, scope=()):
    """The code tuple of t in scope (innermost binder first).

    Every code tuple ends with its free-slot mask, an int whose bit i is
    set when the code reads env slot i.  A case's dispatch table ends with
    the mask of its clause bodies, taken in the case's own env, since a
    case node keeps the table, not its code."""
    if isinstance(t, Var):
        try:
            idx = scope.index(t.name)
        except ValueError:
            raise OpenTerm(f"unbound variable {t.name}") from None
        code = _VAR_CODES.get(idx)
        if code is None:
            code = _VAR_CODES[idx] = (VAR_, idx, 1 << idx)
        return code
    if isinstance(t, Con):
        # a right-nested chain (a stream spine) compiles in one loop, so
        # its length does not set the stack depth.  Its head terms all sit
        # in this scope, so each distinct term object compiles once: the
        # code tuple is only a template, every cell still gets its own node
        spine = []
        while isinstance(t, Con) and t.args:
            spine.append(t)
            t = t.args[-1]
        code = (CON_, TAGNUM[t.tag], (), 0) if isinstance(t, Con) else compile_term(t, scope)
        compiled = {}
        for c in reversed(spine):
            heads = []
            mask = code[-1]
            for a in c.args[:-1]:
                hit = compiled.get(id(a))
                if hit is None:
                    hit = compiled[id(a)] = compile_term(a, scope)
                heads.append(hit)
                mask |= hit[-1]
            code = (CON_, TAGNUM[c.tag], (*heads, code), mask)
        return code
    if isinstance(t, Lam):
        body = compile_term(t.body, (t.var,) + tuple(scope))
        return (LAM_, body, body[-1] >> 1)
    if isinstance(t, App):
        fn = compile_term(t.fn, scope)
        arg = compile_term(t.arg, scope)
        return (APP_, fn, arg, fn[-1] | arg[-1])
    if isinstance(t, Rec):
        body = compile_term(t.body, scope)
        return (REC_, body, body[-1])
    if isinstance(t, Bot):
        return _BOT_CODE
    if isinstance(t, Case):
        clauses = []
        mask = 0
        for c in t.clauses:
            names = pattern_vars(c.pattern)
            body = compile_term(c.body, tuple(reversed(names)) + tuple(scope))
            clauses.append((compile_pattern(c.pattern), body))
            mask |= body[-1] >> len(names)
        scrut = compile_term(t.scrutinee, scope)
        return (CASE_, scrut, dispatch(clauses) + (mask,), scrut[-1] | mask)
    raise TypeError(t)


def compile_pattern(p):
    if isinstance(p, PVar):
        return (PVAR,)
    if isinstance(p, PFun):
        return (PFUN,)
    return (PCON, TAGNUM[p.tag], tuple(compile_pattern(a) for a in p.args))


# ---------------------------------------------------------------------------
# observations

# the text of a node whose fuel ran out
UNRESOLVED_TEXT = "<unresolved>"

# most nodes one observation holds: as many as a tree dump of depth 12
# (3^12).  A depth alone bounds nothing, since each level can double an
# observation: rec (fun s -> Pair(s, s)) at depth 30 has 2^31 - 1 nodes
OBSERVE_NODE_LIMIT = 3**12
# most ticks one observation spends, whatever its fuel per node: a growing
# term keeps 120-385 bytes a tick on six growth programs (the most for a
# three-way Amb of recursive calls), so its graph stays under ~400 MB
OBSERVE_TICK_LIMIT = 10**6


# ---------------------------------------------------------------------------
# the engine


class Engine:
    """Evaluation on the graph machine.

    An Engine holds no state: nodes are garbage-collected Node objects, so
    nodes from one Engine may be used with any other.
    """

    # node plumbing

    def load(self, t: Term):
        """Compile a closed term into a node; OpenTerm if it is not closed."""
        return Node(SUSP, 0, None, None, compile_term(t), None)

    def view(self, node):
        """("con", tag, children) or ("lam", None, None) of a node in head
        form, as the fueled calls return it."""
        if node.kind == LAM:
            return ("lam", None, None)
        return ("con", TAGS[node.tag], [node.k0, node.k1][: ARITY_OF[node.tag]])

    # fueled evaluation; every method returns (view or None, fuel left), as
    # whnf_node does.  Almost every node allocated during a run stays
    # reachable, so cyclic-gc passes are pure cost: every fueled call
    # pauses the collector for its duration, whatever its fuel.

    def _drive(self, drive, t, fuel):
        node = self.load(t) if isinstance(t, Term) else t
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            node, left = drive(node, fuel)
        finally:
            if paused:
                gc.enable()
        return (self.view(node) if node is not None else None), left

    def whnf(self, t, fuel=UNLIMITED):
        return self._drive(whnf_node, t, fuel)

    def resolve_amb(self, t, fuel=UNLIMITED):
        return self._drive(resolve_node, t, fuel)

    def collapse_star(self, t, fuel=UNLIMITED):
        return self._drive(collapse_node, t, fuel)

    def observe(self, t, depth, fuel_per_node=UNLIMITED, policy="resolving") -> str:
        """The text of the constructor spine evaluated to `depth` levels
        below the root.

        A constructor is written `Tag(a, b)`, or `Tag` without arguments;
        one whose children lie below the depth is written `Tag(...)`.  A
        lambda is written `<fun>`, and a node whose fuel ran out
        UNRESOLVED_TEXT.  Each node gets its own fuel, so one diverging
        child cannot block its siblings.  Under policy="resolving" every
        Amb head met on the way is collapsed; under "raw" Amb is reported
        as a constructor.  The nodes are driven in pre-order (each before
        its children, left to right) from an explicit stack, which also
        holds the separators written between them, and ObservationTooLarge
        stops the walk past OBSERVE_NODE_LIMIT nodes.

        A node gets the ticks left of OBSERVE_TICK_LIMIT where those are
        fewer than its fuel, and raises ObservationTooLarge if it spends
        them all and stays Unresolved.  A drive takes the same ticks to its
        result at any larger fuel, so what fits reads as with no limit.
        """
        if policy not in ("raw", "resolving"):
            raise ValueError(policy)
        drive = self.resolve_amb if policy == "resolving" else self.whnf
        out = []
        driven = 0
        ticks = OBSERVE_TICK_LIMIT  # left to spend
        stack = [(t, depth)]
        while stack:
            item = stack.pop()
            if type(item) is str:  # a separator pushed below
                out.append(item)
                continue
            if driven == OBSERVE_NODE_LIMIT:
                raise ObservationTooLarge(f"the observation has more than {OBSERVE_NODE_LIMIT} nodes")
            driven += 1
            node, depth = item
            fuel = min(fuel_per_node, ticks)
            view, left = drive(node, fuel)
            ticks -= fuel - left
            if view is None and not left and fuel < fuel_per_node:
                raise ObservationTooLarge(f"the observation spends more than {OBSERVE_TICK_LIMIT} ticks")
            if view is None:
                out.append(UNRESOLVED_TEXT)
                continue
            kind, name, kids = view
            if kind == "lam":
                out.append("<fun>")
            elif not kids:
                out.append(name)
            elif depth <= 0:
                out.append(f"{name}(...)")
            else:
                out += (name, "(")
                stack.append(")")
                for k in kids[:0:-1]:
                    stack += ((k, depth - 1), ", ")
                stack.append((kids[0], depth - 1))
        return "".join(out)

    def apply(self, fnode, anode):
        return Node(APP, 0, fnode, anode, None, None)
