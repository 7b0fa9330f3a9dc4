"""Exact reference arithmetic for checking benchmark outputs.

Everything here is written from the definitions with Fraction and integer
arithmetic, and imports nothing from ambreal: a check must not share code
with the program it checks.  Inputs are generated here too, so the program
receives only plain digit tuples and interval lists.

Conventions (the same as the program's documented ones):

    signed digit   -1, 0, +1; prefix d_1..d_n names [c - 2^-n, c + 2^-n],
                   c = sum d_i 2^-i
    gray cell      -1, +1, and 0 for the unknown cell; cell i of x is the
                   sign of t^i(x), t(x) = 1 - 2|x|
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

QUARTER = Fraction(1, 4)


def tent(x: Fraction) -> Fraction:
    return 1 - 2 * abs(x)


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _eventually_periodic(x: Fraction, digit, step):
    """Split the digit orbit of x into (pre, period) by detecting the first
    repeated state."""
    seen = {}
    digits = []
    while x not in seen:
        seen[x] = len(digits)
        d = digit(x)
        digits.append(d)
        x = step(x, d)
    k = seen[x]
    return tuple(digits[:k]), tuple(digits[k:])


def sd_stream(x: Fraction):
    """Canonical signed-digit stream of x as (pre, period): digit -1 at or
    below -1/4, +1 at or above 1/4, else 0; then continue on 2x - d."""

    def digit(v):
        return -1 if v <= -QUARTER else (1 if v >= QUARTER else 0)

    return _eventually_periodic(x, digit, lambda v, d: 2 * v - d)


def gray_stream(x: Fraction):
    """Gray stream of x as (pre, period): signs of the tent orbit, with 0
    where the orbit is 0 (the unknown cell)."""
    return _eventually_periodic(x, sign, lambda v, _d: tent(v))


def tent_signs(x: Fraction, n: int) -> list:
    """sign(t^i(x)) for i < n; 0 marks the unknown cell."""
    out = []
    for _ in range(n):
        out.append(sign(x))
        x = tent(x)
    return out


def is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


# ---------------------------------------------------------------------------
# stream checks: each returns None when the output is right, else a reason


def check_gray_cells(x: Fraction, cells, at_zero=(None,)) -> str | None:
    """Every cell where the tent orbit is non-zero is defined and equals its
    sign; the cell where the orbit hits 0 is one of at_zero.

    By default that cell must be Unresolved (None), as in the conversion of
    a canonical stream.  A Gray code only asks for the sign where the orbit
    is non-zero, so the code of another stream of the same value (the least
    path -1, 1, 1, ... of 0) may resolve it: at_zero=(None, -1, 1)."""
    want = tent_signs(x, len(cells))
    for i, (got, w) in enumerate(zip(cells, want)):
        if w == 0:
            if got not in at_zero:
                return f"x={x}: cell {i} is the unknown cell but is {got}"
        elif got != w:
            return f"x={x}: cell {i} is {got}, want {w}"
    return None


def check_sd_digits(x: Fraction, digits) -> str | None:
    """Every digit is defined and every prefix's interval contains x.

    With r_0 = x and r_k = 2 r_{k-1} - d_k, the k-digit prefix interval
    contains x exactly when |r_k| <= 1."""
    r = x
    for k, d in enumerate(digits, 1):
        if d not in (-1, 0, 1):
            return f"x={x}: digit {k} is {d}"
        r = 2 * r - d
        if abs(r) > 1:
            return f"x={x}: the {k}-digit prefix interval excludes x"
    return None


# ---------------------------------------------------------------------------
# interval unions and digit trees


def merge(intervals) -> list:
    """Sorted disjoint closed intervals covering the same points."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _dist(x: Fraction, B, los) -> Fraction:
    """Distance from x to the merged union B; los are B's left ends."""
    i = bisect_right(los, x)  # B[i-1] is the last interval starting at or before x
    best = None
    if i > 0:
        best = max(Fraction(0), x - B[i - 1][1])
    if i < len(B):
        d = B[i][0] - x
        best = d if best is None else min(best, d)
    return best


def _directed(A, B) -> Fraction:
    """sup over a in A of d(a, B): attained at an endpoint of A or at the
    midpoint of a gap of B that lies in A."""
    a_los = [lo for lo, _hi in A]
    points = [p for iv in A for p in iv]
    for (_a, b), (c, _d) in zip(B, B[1:]):
        mid = (b + c) / 2
        i = bisect_right(a_los, mid)
        if i > 0 and mid <= A[i - 1][1]:
            points.append(mid)
    b_los = [lo for lo, _hi in B]
    return max(_dist(p, B, b_los) for p in points)


def hausdorff(A, B) -> Fraction:
    """Hausdorff distance of two nonempty merged interval unions."""
    return max(_directed(A, B), _directed(B, A))


def sd_tree_value_set(tree, n: int):
    """(value set, node count, error) of a depth-n signed-digit tree.

    The depth-n value set is the union over depth-n paths of the digit-map
    images of [-1,1]; a path with digits d_1..d_n maps [-1,1] onto
    [c - 2^-n, c + 2^-n].  Centers are kept as integers m = c * 2^n.  Every
    node above depth n must have a child for each digit it carries.
    """
    ends = set()
    nodes = 0
    stack = [(tree, 0, 0)]
    while stack:
        node, depth, m = stack.pop()
        nodes += 1
        digits = node.digits
        if not digits or not set(digits) <= {-1, 0, 1}:
            return None, nodes, f"node at depth {depth} has digit set {set(digits)}"
        if depth == n:
            ends.add(m)
            continue
        for d in digits:
            try:
                child = node.child(d)
            except Exception as exc:  # a missing child is the defect we report
                return None, nodes, f"node at depth {depth} lacks its {d}-child ({type(exc).__name__})"
            stack.append((child, depth + 1, m + d * 2 ** (n - depth - 1)))
    scale = Fraction(1, 2**n)
    return [(lo * scale, hi * scale) for lo, hi in merge((m - 1, m + 1) for m in ends)], nodes, None


def check_sd_tree(K, tree, n: int):
    """(node count, error): the depth-n value set of tree lies within
    Hausdorff distance 2^-(n-2) of the interval union K."""
    V, nodes, err = sd_tree_value_set(tree, n)
    if err:
        return nodes, err
    h = hausdorff(V, merge(K))
    if h > Fraction(1, 2 ** (n - 2)):
        return nodes, f"depth-{n} value set is {h} from K, bound 2^-{n - 2}"
    return nodes, None
