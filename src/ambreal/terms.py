"""Abstract syntax, concrete syntax and static checks for the program calculus.

Terms are built from five constructors (Nil, Left, Right, Pair, Amb),
lambda abstraction, application, overlapping-pattern case, rec and bot.
Case clauses may overlap but must be pairwise compatible: whenever two
patterns have a common instance, the two bodies must agree (up to alpha
equality) at their most general common instance.  Compatibility is
checked at parse time by `check_compatibility`.

Concrete syntax (normative for this artifact)::

    term    := "fun" name "->" term        -- body extends maximally right
             | term term                   -- application, left associative
             | "rec" atom
             | "case" term "of" "{" clause (";" clause)* "}"
             | name | "bot" | constructor | "(" term ")"
    clause  := pattern "->" term
    pattern := "_" | name | "fun(" name ")" | constructor over patterns

Constructor names are capitalized and have fixed arity; "_" is an
anonymous pattern variable (each occurrence fresh); "fun(a)" matches any
lambda abstraction and binds it to a.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, Optional

ARITY = {"Nil": 0, "Left": 1, "Right": 1, "Pair": 2, "Amb": 2}


class TermError(Exception):
    """Malformed term (bad arity, nonlinear pattern, unknown constructor)."""


class ParseError(TermError):
    def __init__(self, msg, line, col):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class IncompatibleClauses(TermError):
    """Two overlapping clauses disagree on their common instances."""

    def __init__(self, i, j, env_i, env_j, body_i, body_j):
        self.indices = (i, j)
        # each clause's bindings apart: both clauses may use the same name
        self.bindings = (env_i, env_j)
        self.bodies = (body_i, body_j)
        bind_i, bind_j = (
            ", ".join(f"{v} -> {print_term(t)}" for v, t in sorted(env.items()))
            for env in (env_i, env_j)
        )
        super().__init__(
            f"clauses {i} and {j} overlap (clause {i} binds {{{bind_i}}}, clause {j} "
            f"binds {{{bind_j}}}) but their bodies differ: {print_term(body_i)}  vs  "
            f"{print_term(body_j)}"
        )


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()

    def __repr__(self):
        return print_term(self)


@dataclass(frozen=True, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, repr=False)
class Con(Term):
    tag: str
    args: tuple

    def __post_init__(self):
        if self.tag not in ARITY:
            raise TermError(f"unknown constructor {self.tag}")
        if len(self.args) != ARITY[self.tag]:
            raise TermError(f"{self.tag} expects {ARITY[self.tag]} arguments")


@dataclass(frozen=True, repr=False)
class Lam(Term):
    var: str
    body: Term


@dataclass(frozen=True, repr=False)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, repr=False)
class Case(Term):
    scrutinee: Term
    clauses: tuple

    def __post_init__(self):
        if not self.clauses:
            raise TermError("case needs at least one clause")


@dataclass(frozen=True, repr=False)
class Rec(Term):
    body: Term


@dataclass(frozen=True, repr=False)
class Bot(Term):
    pass


BOT = Bot()
NIL = Con("Nil", ())


def con(tag, *args):
    return Con(tag, tuple(args))


# patterns


class Pattern:
    __slots__ = ()

    def __repr__(self):
        return print_pattern(self)


@dataclass(frozen=True, repr=False)
class PVar(Pattern):
    name: str
    wildcard: bool = False


@dataclass(frozen=True, repr=False)
class PCon(Pattern):
    tag: str
    args: tuple


@dataclass(frozen=True, repr=False)
class PFun(Pattern):
    name: str
    wildcard: bool = False


@dataclass(frozen=True, repr=False)
class Clause:
    pattern: Pattern
    body: Term


def pattern_vars(p: Pattern) -> list:
    if isinstance(p, (PVar, PFun)):
        return [p.name]
    out = []
    for q in p.args:
        out.extend(pattern_vars(q))
    return out


# ---------------------------------------------------------------------------
# free variables, substitution, alpha equality


def free_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Con):
        out = frozenset()
        for a in t.args:
            out |= free_vars(a)
        return out
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.var}
    if isinstance(t, App):
        return free_vars(t.fn) | free_vars(t.arg)
    if isinstance(t, Rec):
        return free_vars(t.body)
    if isinstance(t, Case):
        out = free_vars(t.scrutinee)
        for c in t.clauses:
            out |= free_vars(c.body) - set(pattern_vars(c.pattern))
        return out
    return frozenset()


def substitute(t: Term, v: str, s: Term) -> Term:
    """Substitute the closed term s for the free occurrences of v in t."""
    if free_vars(s):
        raise TermError(f"substitute needs a closed image, got free {sorted(free_vars(s))}")
    return _subst(t, {v: s})


def _subst(t: Term, env: dict) -> Term:
    """Substitute env's images for the free occurrences of its names in t.

    No binder is renamed, which is sound because no image has a free name
    that a binder of t can carry:
    - `engine.det_step` fires beta and case on a closed term, and its redex
      sits under no binder (a step descends only into scrutinees, functions
      and constructor arguments): the redex is closed, and so are its parts;
    - `parse_defs` substitutes resolved definitions, which it found closed;
    - `check_compatibility` substitutes constructors over `%k` names, and
      the lexer makes no name with "%", so no parsed binder is one.
    `substitute` and `parse_defs` check the images they take from outside.
    """
    if not env:
        return t
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, Con):
        return Con(t.tag, tuple(_subst(a, env) for a in t.args))
    if isinstance(t, App):
        return App(_subst(t.fn, env), _subst(t.arg, env))
    if isinstance(t, Rec):
        return Rec(_subst(t.body, env))
    if isinstance(t, Bot):
        return t
    if isinstance(t, Lam):
        if t.var in env:
            env = {k: u for k, u in env.items() if k != t.var}
        return Lam(t.var, _subst(t.body, env))
    if isinstance(t, Case):
        clauses = []
        for c in t.clauses:
            bound = pattern_vars(c.pattern)
            inner = {k: u for k, u in env.items() if k not in bound}
            clauses.append(Clause(c.pattern, _subst(c.body, inner)))
        return Case(_subst(t.scrutinee, env), tuple(clauses))
    raise TypeError(t)


def alpha_eq(t1: Term, t2: Term) -> bool:
    return _aeq(t1, t2, {}, {}, [0])


def _aeq(a, b, ma, mb, ctr) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        ra, rb = ma.get(a.name, a.name), mb.get(b.name, b.name)
        # both bound to the same level, or both free with the same name
        return ra == rb and (a.name in ma) == (b.name in mb)
    if isinstance(a, Con):
        return a.tag == b.tag and all(
            _aeq(x, y, ma, mb, ctr) for x, y in zip(a.args, b.args)
        )
    if isinstance(a, App):
        return _aeq(a.fn, b.fn, ma, mb, ctr) and _aeq(a.arg, b.arg, ma, mb, ctr)
    if isinstance(a, Rec):
        return _aeq(a.body, b.body, ma, mb, ctr)
    if isinstance(a, Bot):
        return True
    if isinstance(a, Lam):
        ctr[0] += 1
        lvl = ctr[0]
        return _aeq(a.body, b.body, {**ma, a.var: lvl}, {**mb, b.var: lvl}, ctr)
    if isinstance(a, Case):
        if len(a.clauses) != len(b.clauses):
            return False
        if not _aeq(a.scrutinee, b.scrutinee, ma, mb, ctr):
            return False
        for ca, cb in zip(a.clauses, b.clauses):
            ok, na, nb = _aeq_pattern(ca.pattern, cb.pattern, ctr)
            if not ok:
                return False
            if not _aeq(ca.body, cb.body, {**ma, **na}, {**mb, **nb}, ctr):
                return False
        return True
    raise TypeError(a)


def _aeq_pattern(p, q, ctr):
    if type(p) is not type(q):
        return False, None, None
    if isinstance(p, (PVar, PFun)):
        ctr[0] += 1
        return True, {p.name: ctr[0]}, {q.name: ctr[0]}
    if p.tag != q.tag:
        return False, None, None
    ma, mb = {}, {}
    for x, y in zip(p.args, q.args):
        ok, na, nb = _aeq_pattern(x, y, ctr)
        if not ok:
            return False, None, None
        ma.update(na)
        mb.update(nb)
    return True, ma, mb


# ---------------------------------------------------------------------------
# syntactic matching (used by the small-step rules)


def match_term(t: Term, p: Pattern) -> Optional[dict]:
    """Match the current shape of t against p, or None.

    Constructor patterns require the constructor to be literally present;
    a term that might still evaluate to the right shape does not match yet.
    """
    if isinstance(p, PVar):
        return {p.name: t}
    if isinstance(p, PFun):
        return {p.name: t} if isinstance(t, Lam) else None
    if isinstance(t, Con) and t.tag == p.tag:
        env = {}
        for sub, q in zip(t.args, p.args):
            m = match_term(sub, q)
            if m is None:
                return None
            env.update(m)
        return env
    return None


def match_clause(t: Term, clauses) -> Optional[tuple]:
    for c in clauses:
        env = match_term(t, c.pattern)
        if env is not None:
            return c, env
    return None


# ---------------------------------------------------------------------------
# clause compatibility


def _instance(p: Pattern, env: dict, fresh) -> Term:
    """The generic instance of p: a fresh %k name stands at each leaf, and
    env binds each named variable of p to its %k (a wildcard binds none)."""
    if isinstance(p, PCon):
        return Con(p.tag, tuple(_instance(a, env, fresh) for a in p.args))
    v = Var(f"%{next(fresh)}")
    if not p.wildcard:
        env[p.name] = v
    return v


def _meet(p: Pattern, q: Pattern, env_p: dict, env_q: dict, fresh) -> bool:
    """Meet two linear patterns in one simultaneous walk.

    Each variable of p is bound in env_p, and each of q in env_q, to its
    part of the most general common instance, whose leaves are fresh %k
    names.  Each side binds its own names, so the patterns need no renaming
    apart, and each variable is met once, so no substitution chains form.
    Returns False when the patterns have no common instance.
    """
    if isinstance(q, PVar) or (isinstance(p, PFun) and isinstance(q, PFun)):
        env_q[q.name] = _instance(p, env_p, fresh)
        return True
    if isinstance(p, PVar):
        env_p[p.name] = _instance(q, env_q, fresh)
        return True
    if isinstance(p, PFun) or isinstance(q, PFun):
        return False  # lambda vs constructor: no common match
    return p.tag == q.tag and all(
        _meet(x, y, env_p, env_q, fresh) for x, y in zip(p.args, q.args)
    )


def check_compatibility(clauses) -> None:
    """Raise IncompatibleClauses unless all clause pairs agree on overlaps,
    and TermError unless every pattern is linear."""
    for c in clauses:
        seen = set()
        for v in pattern_vars(c.pattern):
            if v in seen:
                raise TermError(f"variable {v} occurs twice in pattern {print_pattern(c.pattern)}")
            seen.add(v)
    for i, ci in enumerate(clauses):
        for j, cj in enumerate(clauses[i + 1 :], i + 1):
            env_i, env_j = {}, {}
            if not _meet(ci.pattern, cj.pattern, env_i, env_j, count()):
                continue
            body_i, body_j = _subst(ci.body, env_i), _subst(cj.body, env_j)
            if not alpha_eq(body_i, body_j):
                raise IncompatibleClauses(i, j, env_i, env_j, body_i, body_j)


# ---------------------------------------------------------------------------
# printer


def print_term(t: Term) -> str:
    return _pr(t, 0)


def _pr(t, level) -> str:
    # level 0: any, 1: application spine, 2: atom
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Bot):
        return "bot"
    if isinstance(t, Con):
        if not t.args:
            return t.tag
        return f"{t.tag}({', '.join(_pr(a, 0) for a in t.args)})"
    if isinstance(t, Lam):
        s = f"fun {t.var} -> {_pr(t.body, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, Rec):
        s = f"rec {_pr(t.body, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(t, App):
        s = f"{_pr(t.fn, 1)} {_pr(t.arg, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(t, Case):
        cls = "; ".join(f"{print_pattern(c.pattern)} -> {_pr(c.body, 0)}" for c in t.clauses)
        s = f"case {_pr(t.scrutinee, 0)} of {{ {cls} }}"
        return f"({s})" if level > 0 else s
    raise TypeError(t)


def print_pattern(p: Pattern) -> str:
    if isinstance(p, PVar):
        return "_" if p.wildcard else p.name
    if isinstance(p, PFun):
        return "fun(_)" if p.wildcard else f"fun({p.name})"
    if not p.args:
        return p.tag
    return f"{p.tag}({', '.join(print_pattern(a) for a in p.args)})"


# ---------------------------------------------------------------------------
# parser

_KEYWORDS = {"fun", "case", "of", "rec", "bot", "def", "main"}


@dataclass
class _Tok:
    kind: str  # ident, conname, punct, eof
    text: str
    line: int
    col: int


def _lex(src: str) -> Iterator[_Tok]:
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c == "-" and i + 1 < n and src[i + 1] == ">":
            yield _Tok("punct", "->", line, col)
            i += 2
            col += 2
            continue
        if c in "(){};,=_":
            yield _Tok("punct", c, line, col)
            i += 1
            col += 1
            continue
        if c.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            while j < n and src[j] == "'":
                j += 1
            word = src[i:j]
            kind = "conname" if word[0].isupper() else "ident"
            yield _Tok(kind, word, line, col)
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    yield _Tok("eof", "", line, col)


class _Parser:
    def __init__(self, src: str):
        self.toks = list(_lex(src))
        self.pos = 0
        self.wild = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def fail(self, msg):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def nested(self, parse):
        """parse(), with the interpreter's recursion limit, which the
        parser meets at a few hundred levels, reported as a ParseError
        naming the depth reached: the term and pattern calls open when
        the stack ran out."""
        try:
            return parse()
        except RecursionError as exc:
            depth = 0
            tb = exc.__traceback__
            while tb is not None:
                if tb.tb_frame.f_code in _LEVELS:
                    depth += 1
                tb = tb.tb_next
            t = self.peek()
            msg = f"term nested too deeply (over {depth} levels)"
            raise ParseError(msg, t.line, t.col) from None

    # terms

    def term(self) -> Term:
        t = self.peek()
        if t.text == "fun":
            self.next()
            name = self.ident()
            self.expect("->")
            return Lam(name, self.term())
        return self.app()

    def app(self) -> Term:
        t = self.atom()
        if t is None:
            self.fail("expected a term")
        while True:
            a = self.atom()
            if a is None:
                return t
            t = App(t, a)

    def atom(self) -> Optional[Term]:
        t = self.peek()
        if t.text == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if t.text == "bot":
            self.next()
            return BOT
        if t.text == "rec":
            self.next()
            body = self.atom()
            if body is None:
                self.fail("rec needs an argument")
            return Rec(body)
        if t.text == "case":
            self.next()
            scrut = self.term()
            self.expect("of")
            self.expect("{")
            clauses = [self.clause()]
            while self.peek().text == ";":
                self.next()
                clauses.append(self.clause())
            self.expect("}")
            cs = tuple(clauses)
            check_compatibility(cs)
            return Case(scrut, cs)
        if t.kind == "conname":
            return self.constructor(in_pattern=False)
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.next()
            return Var(t.text)
        return None

    def constructor(self, in_pattern):
        t = self.next()
        if t.text not in ARITY:
            raise ParseError(f"unknown constructor {t.text}", t.line, t.col)
        arity = ARITY[t.text]
        build = PCon if in_pattern else Con
        if arity == 0:
            return build(t.text, ())
        sub = self.pattern if in_pattern else self.term
        self.expect("(")
        args = [sub()]
        while self.peek().text == ",":
            self.next()
            args.append(sub())
        self.expect(")")
        if len(args) != arity:
            raise ParseError(f"{t.text} expects {arity} arguments", t.line, t.col)
        return build(t.text, tuple(args))

    def ident(self) -> str:
        t = self.next()
        if t.kind != "ident" or t.text in _KEYWORDS:
            raise ParseError(f"expected a name, found {t.text!r}", t.line, t.col)
        return t.text

    # patterns

    def clause(self) -> Clause:
        pat = self.pattern()
        self.expect("->")
        return Clause(pat, self.term())

    def pattern(self) -> Pattern:
        t = self.peek()
        if t.text == "_":
            self.next()
            self.wild += 1
            return PVar(f"_w{self.wild}", wildcard=True)
        if t.text == "fun":
            self.next()
            self.expect("(")
            if self.peek().text == "_":
                self.next()
                self.wild += 1
                pat = PFun(f"_w{self.wild}", wildcard=True)
            else:
                pat = PFun(self.ident())
            self.expect(")")
            return pat
        if t.kind == "conname":
            return self.constructor(in_pattern=True)
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.next()
            return PVar(t.text)
        self.fail("expected a pattern")

    # files

    def defs(self):
        out = []
        while self.peek().text == "def":
            self.next()
            name = self.ident()
            self.expect("=")
            out.append((name, self.term()))
            self.expect(";")
        main = None
        if self.peek().text == "main":
            self.next()
            self.expect("=")
            main = self.term()
            self.expect(";")
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
        return out, main


# the parser's calls that open a nesting level
_LEVELS = (_Parser.term.__code__, _Parser.pattern.__code__)


def parse_term(src: str) -> Term:
    p = _Parser(src)
    t = p.nested(p.term)
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.text!r} after term", tok.line, tok.col)
    return t


def parse_defs(src: str, env=None):
    """Parse a .cfp file: a list of (name, term) defs plus an optional main.

    Def names are in scope for later defs and for main; scoping is resolved
    by substituting the earlier names a body mentions (and only those), so
    every returned term is closed relative to earlier names only.  An
    initial name environment may be supplied.
    """
    p = _Parser(src)
    defs, main = p.nested(p.defs)
    env = dict(env) if env else {}
    for k, u in env.items():
        if free_vars(u):
            raise TermError(f"initial name {k} is bound to an open term")

    def resolve(label, t):
        resolved = _subst(t, {k: env[k] for k in free_vars(t) if k in env})
        unresolved = free_vars(resolved)
        if unresolved:
            raise TermError(f"{label}: unbound names {sorted(unresolved)}")
        return resolved

    out = []
    for name, t in defs:
        env[name] = resolve(f"def {name}", t)
        out.append((name, env[name]))
    if main is not None:
        main = resolve("main", main)
    return out, main
