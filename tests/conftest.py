import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ambreal.engine import Engine
from ambreal.prelude import Prelude, load_prelude
from ambreal.terms import BOT, NIL, App, Case, Lam, Rec, Term, Var, con


@pytest.fixture(scope="session")
def prelude() -> Prelude:
    return load_prelude()


@pytest.fixture(scope="session")
def engine(prelude) -> Engine:
    return prelude.engine


def observe_app(prelude, name, args, fuel, depth=8, policy="resolving"):
    """Observe a prelude program applied to argument terms."""
    e = prelude.engine
    node = prelude.node(name)
    for a in args:
        node = e.apply(node, e.load(a))
    return e.observe(node, depth, fuel, policy)


def cases(t: Term):
    """Every case subterm of t, clause bodies included."""
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Case):
            yield u
        for f in getattr(u, "__dataclass_fields__", ()):
            v = getattr(u, f)
            if isinstance(v, Term):
                stack.append(v)
            elif isinstance(v, tuple):
                for w in v:
                    if isinstance(w, Term):
                        stack.append(w)
                    elif hasattr(w, "body"):
                        stack.append(w.body)


def random_rational(rng: random.Random, max_den=2**20) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(-den, den)
    return Fraction(num, den)


def random_dyadic(rng: random.Random, max_k=16) -> Fraction:
    """A dyadic rational in (-1, 1): these carry exactly one unknown cell."""
    k = rng.randint(1, max_k)
    num = rng.randrange(-(2**k) + 1, 2**k, 2)  # odd numerator
    return Fraction(num, 2**k)


def random_compact(rng: random.Random, max_parts=4):
    """Nonempty union of up to max_parts intervals with dyadic endpoints."""
    from ambreal.intervals import IntervalSet

    parts = rng.randint(1, max_parts)
    points = sorted(
        Fraction(rng.randint(-(2**10), 2**10), 2**10) for _ in range(2 * parts)
    )
    return IntervalSet([(points[2 * i], points[2 * i + 1]) for i in range(parts)])


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
            lam,
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
