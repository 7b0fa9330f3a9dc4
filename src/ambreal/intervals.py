"""Finite unions of closed rational subintervals of [-1,1].

This is the semantic oracle: digit prefixes and digit trees are given
meaning as interval sets with exact Fraction endpoints, and all
correctness checks reduce to containment and exact Hausdorff distances
here.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


class EmptySet(ValueError):
    pass


class IntervalSet:
    """Sorted, pairwise-disjoint closed intervals inside [-1,1]."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple]):
        ivs = []
        for lo, hi in intervals:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo > hi:
                raise ValueError(f"empty interval [{lo},{hi}]")
            if lo < -1 or hi > 1:
                raise ValueError(f"interval [{lo},{hi}] outside [-1,1]")
            ivs.append((lo, hi))
        ivs.sort()
        merged = []
        for lo, hi in ivs:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self.intervals = tuple(merged)

    # construction helpers

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet([(MINUS_ONE, ONE)])

    @staticmethod
    def point(x) -> "IntervalSet":
        return IntervalSet([(x, x)])

    # predicates / accessors

    def __bool__(self):
        return bool(self.intervals)

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return ";".join(f"[{lo},{hi}]" for lo, hi in self.intervals) or "(empty)"

    def contains(self, x) -> bool:
        x = Fraction(x)
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def min(self) -> Fraction:
        if not self.intervals:
            raise EmptySet("min of empty set")
        return self.intervals[0][0]

    def max(self) -> Fraction:
        if not self.intervals:
            raise EmptySet("max of empty set")
        return self.intervals[-1][1]

    def hull(self) -> tuple:
        return (self.min(), self.max())

    def diameter(self) -> Fraction:
        if not self.intervals:
            raise EmptySet("diameter of empty set")
        return self.max() - self.min()

    # set algebra

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def intersect_interval(self, lo, hi) -> "IntervalSet":
        lo, hi = Fraction(lo), Fraction(hi)
        out = []
        for a, b in self.intervals:
            c, d = max(a, lo), min(b, hi)
            if c <= d:
                out.append((c, d))
        return IntervalSet(out)

    def affine(self, a, b) -> "IntervalSet":
        """Image under x -> a*x + b (exact; a may be negative)."""
        a, b = Fraction(a), Fraction(b)
        out = []
        for lo, hi in self.intervals:
            u, v = a * lo + b, a * hi + b
            out.append((min(u, v), max(u, v)))
        return IntervalSet(out)

    def negate(self) -> "IntervalSet":
        return self.affine(-1, 0)


def hausdorff_sets(A: IntervalSet, B: IntervalSet) -> Fraction:
    """Exact Hausdorff distance between two nonempty interval unions.

    sup_{a in A} d(a, B) is attained at an endpoint of A or at the midpoint
    of a gap of B lying inside A, so finitely many exact candidates suffice.
    """
    if not A or not B:
        raise EmptySet("hausdorff distance needs nonempty sets")
    return max(_directed(A, B), _directed(B, A))


def _dist_point(x, B: IntervalSet) -> Fraction:
    best = None
    for lo, hi in B.intervals:
        if lo <= x <= hi:
            return Fraction(0)
        d = lo - x if x < lo else x - hi
        best = d if best is None else min(best, d)
    return best


def _directed(A: IntervalSet, B: IntervalSet) -> Fraction:
    candidates = []
    for lo, hi in A.intervals:
        candidates.append(lo)
        candidates.append(hi)
    for (a, b), (c, d) in zip(B.intervals, B.intervals[1:]):
        mid = (b + c) / 2
        if A.contains(mid):
            candidates.append(mid)
    return max(_dist_point(x, B) for x in candidates)


def parse_interval_set(text: str) -> IntervalSet:
    """CLI literal: semicolon-separated closed intervals "[-1/2,1/4];[3/8,3/8]"."""
    text = text.strip()
    if not text:
        return IntervalSet([])
    ivs = []
    for part in text.split(";"):
        part = part.strip()
        if not (part.startswith("[") and part.endswith("]")):
            raise ValueError(f"bad interval literal {part!r}")
        try:
            lo, hi = (Fraction(end.strip()) for end in part[1:-1].split(","))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad interval literal {part!r}") from None
        ivs.append((lo, hi))
    return IntervalSet(ivs)
