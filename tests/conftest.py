import random
from fractions import Fraction

import pytest

from ambreal.engine import Engine
from ambreal.prelude import Prelude, load_prelude


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
