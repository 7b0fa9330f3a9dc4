"""Nonempty compact subsets of [-1,1] as digit trees.

A signed-digit tree node carries the set E of digits whose restriction is
nonempty and one child per digit (the child represents av_d^-1[K_d]).  A
Gray tree node carries Gray codes of min K and max K plus up to two
children for the tent images t[K_d], d in {-1,+1}; a child slot is present
exactly when the restriction is nonempty.

Trees built from interval sets are lazy and memoized by exact set value,
so rational inputs produce cyclic graphs; streams read off such trees are
eventually periodic and can be fed to the engine.  Syntactic transforms
(negate, tent-child) preserve the cycles through per-node caches, and
the Gray trees share their nodes the same way: OracleGray by set,
EngineGray by source tree.  The min/max digit streams read off a tree
are minimal EPStreams (shortest period, then shortest pre-period), so
one digit sequence is one value, and an engine conversion loads and
converts each distinct stream once, whichever nodes and codes read it.
No tree is ever copied to a depth: every reader (tree_value_set,
hausdorff_trunc, the CLI's dumps) takes the depth it reads to, so its
cost follows the distinct nodes it meets, not the 3^n paths below the
root.  The only finite trees are grayk_to_sdk's depth-n outputs, whose
leaves raise TruncatedTree when asked for a child.  Such an output is a DAG: it holds
one node per distinct (Gray node, remaining depth), shared by every path
that reaches that pair, with the digit set the per-path conversion gives
on each path; it is built level by level, so depth is no recursion.

The two conversions:

  * sdk_to_grayk reads min/max digit streams off the SD tree, converts
    them pointwise through the engine (sd2gray), and recurses into tent
    children - the digit set of a node certifies which children exist.
  * grayk_to_sdk concurrently probes the first two cells of the min and
    the max code (four sign queries; at least three resolve for any set)
    and selects the digit set from the resolved combination, in the fixed
    priority (0,0) > (0,1) > (1,0) > (1,1).  Children come from the Gray
    children combined with exact code-level transforms: negation swaps
    children and flips the leading cell; the 0-child's codes are assembled
    from the grandchildren under the tent bijections.

Outputs are compared to oracles by value sets, never by tree equality.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from .codec import BOT_CELL, EPStream, gray_encode, read_gray, sd2gray_node
from .intervals import EmptySet, IntervalSet

HALF = Fraction(1, 2)

II = {
    -1: (Fraction(-1), Fraction(0)),
    0: (Fraction(-1, 2), Fraction(1, 2)),
    1: (Fraction(0), Fraction(1)),
}


class TruncatedTree(Exception):
    """A child below the depth of a grayk_to_sdk output was requested."""


class UnresolvedNode(Exception):
    """No digit-set case resolved within the probe fuel."""


def restrict(K: IntervalSet, d: int) -> IntervalSet:
    lo, hi = II[d]
    return K.intersect_interval(lo, hi)


def _check_nonempty(K: IntervalSet):
    if not K:
        raise EmptySet("compact set must be nonempty")
    return K


# ---------------------------------------------------------------------------
# signed digit trees


class SDTree:
    __slots__ = ("digits", "_kids", "_child_fn", "_neg", "_tent")

    def __init__(self, digits, child_fn=None, kids=None):
        self.digits = frozenset(digits)
        if not self.digits:
            raise ValueError("digit set must be nonempty")
        self._child_fn = child_fn
        self._kids = dict(kids) if kids is not None else {}
        self._neg = None
        self._tent = {}

    def has_child(self, d) -> bool:
        return d in self.digits

    def child(self, d) -> "SDTree":
        if d not in self.digits:
            raise KeyError(f"no child for digit {d}")
        if d not in self._kids:
            if self._child_fn is None:
                raise TruncatedTree(f"tree truncated below digit {d}")
            self._kids[d] = self._child_fn(d)
        return self._kids[d]

    def __repr__(self):
        ds = ",".join(str(d) for d in sorted(self.digits))
        return f"<SDTree E={{{ds}}}>"


def sd_tree(K: IntervalSet) -> SDTree:
    """The lazy canonical tree of K: E is maximal, children are exact."""
    _check_nonempty(K)
    memo = {}

    def build(S: IntervalSet) -> SDTree:
        node = memo.get(S)
        if node is not None:
            return node
        digits = frozenset(d for d in (-1, 0, 1) if restrict(S, d))
        node = SDTree(digits, child_fn=lambda d, S=S: build(restrict(S, d).affine(2, -d)))
        memo[S] = node
        return node

    return build(K)


def sdk_negate(T: SDTree) -> SDTree:
    if T._neg is None:
        node = SDTree(
            frozenset(-d for d in T.digits),
            child_fn=lambda d: sdk_negate(T.child(-d)),
        )
        T._neg = node
        node._neg = T
    return T._neg


_ONE_TREE = SDTree({1})
_ONE_TREE._kids[1] = _ONE_TREE  # constant tree of {1}


def sdk_tent_child(T: SDTree, d: int) -> SDTree:
    """Tree of t[K_d] for d in {-1,+1}, assuming K_d is nonempty.

    Case split on the root digit set F: if d is in F the tent image is the
    d-child (negated for d = +1); otherwise the mass sits in the 0-part and
    the image lives in [0,1], reached through the 0-child; if F = {-d} the
    restriction is the single point 0 and the image is {1}.
    """
    if d not in (-1, 1):
        raise ValueError("tent child needs d in {-1,+1}")
    cached = T._tent.get(d)
    if cached is not None:
        return cached
    F = T.digits
    if d in F:
        out = T.child(d) if d == -1 else sdk_negate(T.child(1))
    elif 0 in F:
        out = SDTree(
            {1},
            child_fn=lambda _d, T=T, d=d: sdk_tent_child(T.child(0), d),
        )
    else:  # F = {-d}: K_d = {0}, t[K_d] = {1}
        out = _ONE_TREE
    T._tent[d] = out
    return out


# longest min/max path walked before giving up on finding its cycle
STREAM_LIMIT = 4096


def sdk_path_stream(T: SDTree, pick):
    """Digits of the path that takes pick(digits) (min or max) at each
    node: the minimal EPStream (shortest period, then shortest pre-period)
    when the walk becomes cyclic, so one digit sequence is one value
    whatever tree nodes it passes; otherwise (for truncated input or
    beyond STREAM_LIMIT digits) the list of digits seen."""
    digits = []
    seen = {}
    node = T
    for i in range(STREAM_LIMIT):
        key = id(node)
        if key in seen:
            k = seen[key]
            return _minimal(tuple(digits[:k]), tuple(digits[k:]))
        seen[key] = i
        d = pick(node.digits)
        digits.append(d)
        try:
            node = node.child(d)
        except TruncatedTree:
            return digits
    return digits


def _minimal(pre: tuple, period: tuple) -> EPStream:
    """pre . period^omega with its shortest period, whose length divides
    len(period), then its shortest pre-period: a last pre digit equal to
    the period's last digit rolls into the period."""
    n = len(period)
    p = next(p for p in range(1, n + 1) if n % p == 0 and period == period[:p] * (n // p))
    period = period[:p]
    while pre and pre[-1] == period[-1]:
        pre, period = pre[:-1], pre[-1:] + period[:-1]
    return EPStream(pre, period)


AV_CODED = {-1: (HALF, Fraction(-1, 2)), 0: (HALF, Fraction(0)), 1: (HALF, HALF)}
G_CODED = {-1: (HALF, Fraction(-1, 2)), 1: (-HALF, HALF)}


def _levels(root, n: int, kids) -> list:
    """The distinct nodes at depths 0..n below root, one list per depth;
    kids(node) gives a node's children.  Nodes are told apart by ==, so a
    cyclic tree costs its distinct nodes per level, not its 3^n paths."""
    levels = [[root]]
    for _ in range(n):
        nxt = {}
        for node in levels[-1]:
            for kid in kids(node):
                nxt[kid] = None
        levels.append(list(nxt))
    return levels


def tree_value_set(T, n: int) -> IntervalSet:
    """Union over depth-n paths of the digit-map images of [-1,1], for a
    signed-digit or a Gray tree.

    Bottom up over the distinct nodes of each depth: cyclic trees of
    rational sets have few of them, so this is linear in nodes x depth
    rather than 3^n, and it recurses at no depth.
    """
    maps = AV_CODED if isinstance(T, SDTree) else G_CODED

    def kids(node):
        return [node.child(d) for d in maps if node.has_child(d)]

    levels = _levels(T, n, kids)
    value = dict.fromkeys(levels[-1], IntervalSet.full())
    for level in reversed(levels[:-1]):
        below = value
        value = {}
        for node in level:
            out = IntervalSet([])
            for d, (a, b) in maps.items():
                if node.has_child(d):
                    out = out.union(below[node.child(d)].affine(a, b))
            value[node] = out
    return value[T]


def hausdorff_trunc(S: SDTree, T: SDTree, max_depth: int) -> Fraction:
    """2^-n for the least n <= max_depth at which the depth-n truncations
    differ (the roots' digit sets are always compared), 0 when none does.

    Breadth first over node pairs, level by level: a pair met again lies
    no higher than at its first visit, so below it lies no difference
    nearer the root than below that visit, and it is skipped.  Cyclic
    trees thus cost their distinct node pairs, whatever the depth.
    """
    level = [(S, T)]
    seen = {(S, T)}
    n = 1
    while level:
        if any(a.digits != b.digits for a, b in level):
            return Fraction(1, 2**n)
        if n >= max_depth:
            break
        nxt = []
        for a, b in level:
            for d in a.digits:
                try:
                    pair = (a.child(d), b.child(d))
                except TruncatedTree:
                    continue
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        level = nxt
        n += 1
    return Fraction(0)


# ---------------------------------------------------------------------------
# gray trees: a common cell/child interface with several backings


class OracleGray:
    """Gray tree of an exact set: codes from gray_encode, children exact.
    One memo per tree shares the nodes by set; each child slot holds the
    child, or None, from its first use."""

    __slots__ = ("set", "_min", "_max", "_kids", "_memo")

    def __init__(self, K: IntervalSet, _memo=None):
        _check_nonempty(K)
        self.set = K
        self._min = gray_encode(K.min())
        self._max = gray_encode(K.max())
        self._kids = {}
        self._memo = {K: self} if _memo is None else _memo

    def cell_min(self, i):
        c = self._min[i]
        return None if c == BOT_CELL else c

    def cell_max(self, i):
        c = self._max[i]
        return None if c == BOT_CELL else c

    def _kid(self, d):
        if d not in self._kids:
            node = None
            Kd = restrict(self.set, d)
            if Kd:
                img = Kd.affine(2, 1) if d == -1 else Kd.affine(-2, 1)
                node = self._memo.get(img)
                if node is None:
                    node = self._memo[img] = OracleGray(img, self._memo)
            self._kids[d] = node
        return self._kids[d]

    def has_child(self, d) -> bool:
        return self._kid(d) is not None

    def child(self, d) -> "OracleGray":
        node = self._kid(d)
        if node is None:
            raise KeyError(f"no child for {d}")
        return node


def gray_lazy(K: IntervalSet) -> OracleGray:
    return OracleGray(K)


# The wrappers below compare and hash by the nodes they read, so a
# conversion meets each distinct derived node once per depth.  In a
# conversion those are backing nodes (OracleGray, EngineGray), which keep
# their identity: a DoubleGray reads two grandchildren, each a backing
# node, and _neg unwraps a NegGray instead of nesting one.


class NegGray:
    """Gray tree of -K: swap children, flip the first cell of each code."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    def __eq__(self, other):
        return type(other) is NegGray and self.base == other.base

    def __hash__(self):
        return hash((NegGray, self.base))

    def cell_min(self, i):
        c = self.base.cell_max(i)
        return -c if i == 0 and c is not None else c

    def cell_max(self, i):
        c = self.base.cell_min(i)
        return -c if i == 0 and c is not None else c

    def has_child(self, d):
        return self.base.has_child(-d)

    def child(self, d):
        # t[(-K)_d] = t[K_{ -d }]: the opposite child, unnegated
        return self.base.child(-d)


def _neg(node):
    """Gray tree of -K for the tree node of K; never a double negation."""
    return node.base if type(node) is NegGray else NegGray(node)


class DoubleGray:
    """Gray tree of 2*K_0, derived from the grandchildren of the base node.

    Writing L, R for the tent children of K and A' = K_{-1} n [-1/2,0],
    B' = K_1 n [0,1/2]: A' is nonempty iff L has a +1 child (same for B'
    and R), min 2K_0 = -(1+max Lc1)/2 and max 2K_0 = (1+max Rc1)/2 where
    Lc1, Rc1 are the +1 grandchildren, and the children of 2K_0 are their
    negations.  Everything is exact code plumbing over the tent bijections,
    so the node is fixed by (Lc1, Rc1) and compares by them.
    """

    __slots__ = ("_lc1", "_rc1")

    def __init__(self, base):
        L = base.child(-1) if base.has_child(-1) else None
        R = base.child(1) if base.has_child(1) else None
        self._lc1 = L.child(1) if (L is not None and L.has_child(1)) else None
        self._rc1 = R.child(1) if (R is not None and R.has_child(1)) else None
        if self._lc1 is None and self._rc1 is None:
            raise EmptySet("0-restriction is empty")

    def __eq__(self, other):
        return type(other) is DoubleGray and self._lc1 is other._lc1 and self._rc1 is other._rc1

    def __hash__(self):
        return hash((DoubleGray, self._lc1, self._rc1))

    def cell_min(self, i):
        if self._lc1 is not None:
            # -(1+m)/2 with m = max Lc1: head -1, then the code of -m
            return -1 if i == 0 else _neg(self._lc1).cell_min(i - 1)
        return 1 if i == 0 else _neg(self._rc1).cell_max(i - 1)

    def cell_max(self, i):
        if self._rc1 is not None:
            return 1 if i == 0 else _neg(self._rc1).cell_min(i - 1)
        return -1 if i == 0 else _neg(self._lc1).cell_max(i - 1)

    def has_child(self, d):
        return (self._lc1 if d == -1 else self._rc1) is not None

    def child(self, d):
        node = self._lc1 if d == -1 else self._rc1
        if node is None:
            raise KeyError(f"no child for {d}")
        return _neg(node)


class EngineGray:
    """Gray tree read off a signed-digit tree through the engine.

    Codes are engine conversions (sd2gray) of the tree's min/max digit
    streams; children follow the digit-set certificates and the syntactic
    tent-child transform.  One memo per conversion shares the nodes by
    source tree, as OracleGray's does by set, and a second one shares the
    codes by stream: each distinct minimal stream is loaded, converted
    and read once, for every node and code (min or max) that has it.
    Every node of a conversion reads with the same fuel, one budget per
    cell and the cells in order, so a shared code gives each reader the
    cells it would read alone.  The node memo holds nodes weakly and
    child slots hold only the children a node made, so shared nodes form
    no reference cycle, even where the source tree is cyclic.
    """

    __slots__ = ("source", "prelude", "fuel", "_cells", "_kids", "_memo", "_codes", "__weakref__")

    def __init__(self, source: SDTree, prelude, fuel, _memo=None, _codes=None):
        self.source = source
        self.prelude = prelude
        self.fuel = fuel
        self._cells = {}
        self._kids = {}
        self._memo = weakref.WeakValueDictionary() if _memo is None else _memo
        self._memo[source] = self
        self._codes = {} if _codes is None else _codes

    def _cell(self, pick, i):
        # the conversion's record of this code's stream: the cells read so
        # far and the unread spine tail (None once the spine stays
        # Unresolved); each cell is read once, with one budget
        code = self._cells.get(pick)
        if code is None:
            stream = sdk_path_stream(self.source, pick)
            key = stream if isinstance(stream, EPStream) else tuple(stream)
            code = self._codes.get(key)
            if code is None:
                code = self._codes[key] = [[], sd2gray_node(self.prelude, stream)]
            self._cells[pick] = code
        cells, tail = code
        if len(cells) <= i and tail is not None:
            got, code[1] = read_gray(self.prelude.engine, tail, i + 1 - len(cells), self.fuel)
            cells.extend(got)
        return cells[i] if i < len(cells) else None

    def cell_min(self, i):
        return self._cell(min, i)

    def cell_max(self, i):
        return self._cell(max, i)

    def has_child(self, d):
        return d in self.source.digits

    def child(self, d):
        node = self._kids.get(d)
        if node is None:
            source = sdk_tent_child(self.source, d)
            node = self._memo.get(source)
            if node is None:
                node = self._kids[d] = EngineGray(
                    source, self.prelude, self.fuel, self._memo, self._codes
                )
        return node


def sdk_to_grayk(T: SDTree, prelude, fuel) -> EngineGray:
    return EngineGray(T, prelude, fuel)


# ---------------------------------------------------------------------------
# gray -> signed digit trees: the concurrent probe table


def _probe_digits(G) -> frozenset:
    """Select a digit set from the four sign probes, in the fixed priority.

    Probe values: -1 / +1 for a resolved sign, None while unresolved.  For
    canonically encoded trees at least one case always fires.  A case is
    tried only when every earlier one did not fire, so C01 and C11 run
    with M0 unresolved, C10 and C11 with m0 unresolved.
    """
    m0, m1 = G.cell_min(0), G.cell_min(1)
    M0, M1 = G.cell_max(0), G.cell_max(1)

    # C00: signs of min and max
    if m0 is not None and M0 is not None:
        if m0 > 0:
            return frozenset({1})
        if M0 < 0:
            return frozenset({-1})
        return frozenset({-1, 1})
    # C01: sign of min, sign of t(max)
    if m0 is not None and M1 is not None:
        if m0 > 0:
            return frozenset({1})
        if M1 > 0:  # |max| <= 1/2
            return frozenset({-1, 0})
    # C10: sign of t(min), sign of max
    if m1 is not None and M0 is not None:
        if M0 < 0:
            return frozenset({-1})
        if m1 > 0:  # |min| <= 1/2
            return frozenset({0, 1})
    # C11: signs of t(min), t(max)
    if m1 is not None and M1 is not None:
        if m1 > 0 and M1 > 0:
            return frozenset({0})
        if m1 > 0:  # |max| >= 1/2, max >= 0
            return frozenset({0, 1})
        if M1 > 0:  # |min| >= 1/2, min <= 0
            return frozenset({-1, 0})
    raise UnresolvedNode("no probe case resolved")


def _sd_child(node, d):
    """Gray tree of the d-child of the signed-digit tree converted from node."""
    if d == -1:
        return node.child(-1)
    if d == 1:
        return _neg(node.child(1))
    return DoubleGray(node)


def grayk_to_sdk(G, n: int) -> SDTree:
    """Depth-n signed-digit tree converted from a Gray tree.

    Level by level: each distinct Gray node is probed and given its
    children once, then the SDTrees are built from depth n up to the
    root, one per distinct (node, depth), so equal subtrees are shared.
    Engine-backed nodes carry their own fuel.
    """
    digits = {}
    subs = {}

    def probe(node):
        E = digits.get(node)
        if E is None:
            E = digits[node] = _probe_digits(node)
        return E

    def kids(node):
        out = subs.get(node)
        if out is None:
            out = subs[node] = {d: _sd_child(node, d) for d in probe(node)}
        return out.values()

    levels = _levels(G, n, kids)
    built = {node: SDTree(probe(node)) for node in levels[-1]}
    for level in reversed(levels[:-1]):
        below = built
        built = {
            node: SDTree(digits[node], kids={d: below[sub] for d, sub in subs[node].items()})
            for node in level
        }
    return built[G]
