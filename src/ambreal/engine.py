"""Operational semantics: deterministic small steps, Amb racing, observation.

Two layers live here.  `det_step` is the textbook one-step relation on
closed terms (rules: case firing, beta, rec unfolding, congruence steps,
parallel stepping under constructors, values and bot stepping to
themselves).  The `Engine` evaluates the same relation on a shared graph
with memoized heads, so that Amb commitments are remembered and both arms
of a race advance on every tick.

Fuel counts root steps.  Exhaustion yields Unresolved, never a wrong
answer, and any result obtained at some fuel is returned unchanged at
every larger fuel.  Some divergence is shown before the fuel is spent:
among others, `collapse_star` stops a finite iteration whose state
recurs up to the closures it never applies (the unknown cell of a Gray
code at a dyadic point), which would otherwise burn every tick given.

The graph machine itself lives in _stepcore; compile_term gives it, on
every code tuple, the env slots the code reads.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Optional

from . import _stepcore as _core
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

# codes that depend on nothing but their slot are shared, one per slot
_BOT_CODE = (_core.BOT_, 0)
_VAR_CODES = {}

TAGS = ("Nil", "Left", "Right", "Pair", "Amb")
TAGNUM = {t: i for i, t in enumerate(TAGS)}


class EngineError(Exception):
    pass


class OpenTerm(EngineError):
    pass


class MalformedStar(EngineError):
    """A finite-iteration value resolved to neither Left nor Right."""


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
# compilation to the graph core's code tuples


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
            code = _VAR_CODES[idx] = (_core.VAR_, idx, 1 << idx)
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
        code = (_core.CON_, TAGNUM[t.tag], (), 0) if isinstance(t, Con) else compile_term(t, scope)
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
            code = (_core.CON_, TAGNUM[c.tag], (*heads, code), mask)
        return code
    if isinstance(t, Lam):
        body = compile_term(t.body, (t.var,) + tuple(scope))
        return (_core.LAM_, body, body[-1] >> 1)
    if isinstance(t, App):
        fn = compile_term(t.fn, scope)
        arg = compile_term(t.arg, scope)
        return (_core.APP_, fn, arg, fn[-1] | arg[-1])
    if isinstance(t, Rec):
        body = compile_term(t.body, scope)
        return (_core.REC_, body, body[-1])
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
        return (_core.CASE_, scrut, _core.dispatch(clauses) + (mask,), scrut[-1] | mask)
    raise TypeError(t)


def compile_pattern(p):
    if isinstance(p, PVar):
        return (_core.PVAR,)
    if isinstance(p, PFun):
        return (_core.PFUN,)
    return (_core.PCON, TAGNUM[p.tag], tuple(compile_pattern(a) for a in p.args))


# ---------------------------------------------------------------------------
# observations


@dataclass(frozen=True)
class Obs:
    __slots__ = ()


@dataclass(frozen=True)
class OCon(Obs):
    tag: str
    children: Optional[tuple]  # None: present but not explored


@dataclass(frozen=True)
class OLam(Obs):
    pass


@dataclass(frozen=True)
class OUnresolved(Obs):
    pass


UNRESOLVED_OBS = OUnresolved()
LAM_OBS = OLam()


def render_obs(o: Obs) -> str:
    if isinstance(o, OUnresolved):
        return "<unresolved>"
    if isinstance(o, OLam):
        return "<fun>"
    if o.children is None:
        return o.tag if ARITY[o.tag] == 0 else f"{o.tag}(...)"
    if not o.children:
        return o.tag
    return f"{o.tag}({', '.join(render_obs(c) for c in o.children)})"


# ---------------------------------------------------------------------------
# the engine


class Engine:
    """Evaluation on the step core's graph.

    An Engine holds no state: nodes are garbage-collected objects of
    _stepcore, so nodes from one Engine may be used with any other.
    """

    # node plumbing

    def load(self, t: Term):
        """Compile a closed term into a node; OpenTerm if it is not closed."""
        return _core.mk_node(compile_term(t))

    def _node(self, t):
        return self.load(t) if isinstance(t, Term) else t

    def view(self, node):
        """("con", tag, children) or ("lam", None, None) of a node in head
        form, as the fueled calls return it."""
        if node.kind == _core.LAM:
            return ("lam", None, None)
        return ("con", TAGS[node.tag], [node.k0, node.k1][: _core.ARITY_OF[node.tag]])

    # fueled evaluation; every method returns (result, fuel_left), with
    # None standing for Unresolved.  Almost every node allocated during a
    # run stays reachable, so cyclic-gc passes are pure cost: every fueled
    # call pauses the collector for its duration, whatever its fuel.

    def _drive(self, drive, t, fuel):
        node = self._node(t)
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            return drive(node, fuel)
        finally:
            if paused:
                gc.enable()

    def whnf(self, t, fuel=UNLIMITED):
        node, left = self._drive(_core.whnf_node, t, fuel)
        return (self.view(node) if node is not None else None), left

    def resolve_amb(self, t, fuel=UNLIMITED):
        node, left = self._drive(_core.resolve_node, t, fuel)
        return (self.view(node) if node is not None else None), left

    def collapse_star(self, t, fuel=UNLIMITED):
        status, node, left = self._drive(_core.collapse_node, t, fuel)
        if status == _core.MALFORMED:
            kind, tag, _ = self.view(node)
            raise MalformedStar(f"iteration value resolved to {tag if kind == 'con' else 'a function'}")
        if status == _core.UNRESOLVED:
            return None, 0
        return self.view(node), left

    def observe(self, t, depth, fuel_per_node=UNLIMITED, policy="resolving") -> Obs:
        """Evaluate the constructor spine to `depth` levels below the root.

        Each node gets its own fuel, so one diverging child cannot block
        its siblings.  Under policy="resolving" every Amb head met on the
        way is collapsed; under "raw" Amb is reported as a constructor.
        """
        if policy not in ("raw", "resolving"):
            raise ValueError(policy)
        drive = self.resolve_amb if policy == "resolving" else self.whnf
        return self._observe(drive, self._node(t), depth, fuel_per_node)

    def _observe(self, drive, node, depth, fuel) -> Obs:
        view, _left = drive(node, fuel)
        if view is None:
            return UNRESOLVED_OBS
        kind, name, kids = view
        if kind == "lam":
            return LAM_OBS
        if not kids:
            return OCon(name, ())
        if depth <= 0:
            return OCon(name, None)
        return OCon(name, tuple(self._observe(drive, k, depth - 1, fuel) for k in kids))

    def apply(self, fnode, anode):
        return _core.mk_app(fnode, anode)
