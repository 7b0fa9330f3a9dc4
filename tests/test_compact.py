import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ambreal.codec import BOT_CELL, EPStream, gray_prefix, gray_prefix_set, sd_prefix_interval
from ambreal.compact import (
    II,
    STREAM_LIMIT,
    DoubleGray,
    EngineGray,
    NegGray,
    OracleGray,
    SDTree,
    TruncatedTree,
    UnresolvedNode,
    _ONE_TREE,
    _neg,
    _probe_digits,
    grayk_to_sdk,
    gray_lazy,
    hausdorff_trunc,
    restrict,
    sd_tree,
    sdk_negate,
    sdk_path_stream,
    sdk_tent_child,
    sdk_to_grayk,
    tree_value_set,
)
from ambreal.intervals import EmptySet, IntervalSet, hausdorff_sets

from .conftest import random_compact

pt = IntervalSet.point
FULL = IntervalSet.full()
H = Fraction(1, 2)


# ---------------------------------------------------------------------------
# restriction and truncation


def test_restrict_examples():
    assert restrict(pt(0), -1) == pt(0)
    assert restrict(IntervalSet([(Fraction(-3, 4), Fraction(1, 4))]), 1) == IntervalSet(
        [(0, Fraction(1, 4))]
    )
    assert not restrict(IntervalSet([(H, 1)]), -1)


def test_sd_tree_point_zero():
    T = sd_tree(pt(0))
    assert sorted(T.digits) == [-1, 0, 1]
    # children represent av_d^-1[{0}] = {-d}
    assert tree_value_set(T.child(-1), 0) == FULL
    assert tree_value_set(T.child(-1), 2) == tree_value_set(sd_tree(pt(1)), 2)
    assert T.has_child(0) and not sd_tree(pt(1)).has_child(0)


def test_sd_tree_full_selfsimilar():
    T = sd_tree(FULL)
    assert sorted(T.digits) == [-1, 0, 1]
    for d in (-1, 0, 1):
        assert T.child(d) is T


def test_sd_tree_one_chain():
    T = sd_tree(pt(1))
    assert T.digits == {1} and T.child(1) is T


def test_truncated_leaf_raises():
    # grayk_to_sdk's depth-n output is the one finite tree
    leaf = grayk_to_sdk(gray_lazy(pt(0)), 1).child(0)
    with pytest.raises(TruncatedTree):
        leaf.child(min(leaf.digits))


def test_empty_set_rejected():
    with pytest.raises(EmptySet):
        sd_tree(IntervalSet([]))


# ---------------------------------------------------------------------------
# value sets


def test_value_set_examples():
    assert tree_value_set(sd_tree(pt(0)), 2) == IntervalSet([(-H, H)])
    assert tree_value_set(sd_tree(pt(0)), 0) == FULL
    assert tree_value_set(sd_tree(pt(1)), 3) == IntervalSet([(Fraction(3, 4), 1)])


def test_tree_soundness_random():
    rng = random.Random(31)
    for _ in range(25):
        K = random_compact(rng)
        n = rng.randint(1, 10)
        V = tree_value_set(sd_tree(K), n)
        assert hausdorff_sets(V, K) <= Fraction(2, 2**n)
        G = gray_lazy(K)
        VG = tree_value_set(G, n)
        assert hausdorff_sets(VG, K) <= Fraction(4, 2**n)


# ---------------------------------------------------------------------------
# negation, min/max, tent children


def test_negate_examples():
    T1 = sd_tree(pt(1))
    N = sdk_negate(T1)
    assert N.digits == {-1}
    assert tree_value_set(N, 4) == tree_value_set(sd_tree(pt(-1)), 4)
    Z = sd_tree(pt(0))
    assert sdk_negate(Z).digits == Z.digits


def test_negate_involution():
    rng = random.Random(32)
    for _ in range(10):
        K = random_compact(rng)
        T = sd_tree(K)
        NN = sdk_negate(sdk_negate(T))
        assert hausdorff_trunc(T, NN, 5) == 0


def test_negate_value_law():
    rng = random.Random(33)
    for _ in range(15):
        K = random_compact(rng)
        n = rng.randint(1, 8)
        assert tree_value_set(sdk_negate(sd_tree(K)), n) == tree_value_set(
            sd_tree(K), n
        ).negate()


def test_min_stream_examples():
    assert sdk_path_stream(sd_tree(FULL), min).take(4) == [-1, -1, -1, -1]
    assert sdk_path_stream(sd_tree(FULL), max).take(4) == [1, 1, 1, 1]
    ms = sdk_path_stream(sd_tree(pt(0)), min)
    assert ms.take(4) == [-1, 1, 1, 1]
    for k in range(1, 10):
        assert sd_prefix_interval(ms.take(k)).contains(0)
    xs = sdk_path_stream(sd_tree(pt(0)), max)
    for k in range(1, 10):
        assert sd_prefix_interval(xs.take(k)).contains(0)
    assert sdk_path_stream(sd_tree(pt(-1)), max).take(3) == [-1, -1, -1]


def test_min_max_coherence_random():
    rng = random.Random(34)
    for _ in range(20):
        K = random_compact(rng)
        T = sd_tree(K)
        ms, xs = sdk_path_stream(T, min), sdk_path_stream(T, max)
        assert isinstance(ms, EPStream) and isinstance(xs, EPStream)
        # the max path is the mirror of the min path of the negated tree
        mirror = sdk_path_stream(sdk_negate(T), min)
        assert xs == EPStream(tuple(-d for d in mirror.pre), tuple(-d for d in mirror.period))
        for k in (4, 10):
            assert sd_prefix_interval(ms.take(k)).contains(K.min())
            assert sd_prefix_interval(xs.take(k)).contains(K.max())


def test_tent_child_examples():
    T0 = sd_tree(pt(0))
    out = sdk_tent_child(T0, -1)
    assert tree_value_set(out, 5) == tree_value_set(sd_tree(pt(1)), 5)
    TF = sd_tree(FULL)
    assert tree_value_set(sdk_tent_child(TF, 1), 3) == FULL
    # F = {-1} on the tree of {0}: K_1 = {0}, whose image is the constant
    # tree of {1}
    T = SDTree({-1}, kids={-1: _ONE_TREE})
    assert tree_value_set(T, 6) == IntervalSet([(Fraction(-1, 32), 0)])
    out = sdk_tent_child(T, 1)
    assert out is _ONE_TREE
    assert tree_value_set(out, 6) == IntervalSet([(Fraction(31, 32), 1)])


def test_tent_child_law_random():
    rng = random.Random(35)
    n = 8
    for _ in range(15):
        K = random_compact(rng)
        T = sd_tree(K)
        for d in (-1, 1):
            Kd = restrict(K, d)
            if not Kd:
                continue
            image = Kd.affine(2, 1) if d == -1 else Kd.affine(-2, 1)
            V = tree_value_set(sdk_tent_child(T, d), n)
            assert hausdorff_sets(V, image) <= Fraction(2, 2**n)


@pytest.mark.parametrize(
    "K, ds",
    [(pt(0), (-1, 1)), (IntervalSet([(0, H)]), (-1,)), (IntervalSet([(-H, 0)]), (1,))],
)
def test_tent_child_past_a_digit_set_that_is_not_maximal(K, ds):
    # grayk_to_sdk picks the root digit set by probe priority, so it leaves
    # out a d whose restriction is nonempty: the tent image is then reached
    # through the 0-child
    T = grayk_to_sdk(gray_lazy(K), 8)
    for d in ds:
        Kd = restrict(K, d)
        assert d not in T.digits and Kd
        image = Kd.affine(2, 1) if d == -1 else Kd.affine(-2, 1)
        V = tree_value_set(sdk_tent_child(T, d), 6)
        assert V == IntervalSet([(Fraction(31, 32), 1)])
        assert hausdorff_sets(V, image) <= Fraction(1, 2**5)


# ---------------------------------------------------------------------------
# hausdorff on trees


def test_hausdorff_trunc_examples():
    Z, O = sd_tree(pt(0)), sd_tree(pt(1))
    assert hausdorff_trunc(Z, Z, 6) == 0
    assert hausdorff_trunc(Z, O, 6) == H
    # below a depth-3 output's leaves there is nothing left to differ
    A = grayk_to_sdk(gray_lazy(FULL), 3)
    assert hausdorff_trunc(A, A, 6) == 0


def _first_diff(S, T, depth):
    # the plain recursion over every path, 3^depth nodes at most
    if S.digits != T.digits:
        return 1
    subs = [_first_diff(S.child(d), T.child(d), depth - 1) for d in S.digits] if depth > 1 else []
    subs = [n for n in subs if n is not None]
    return min(subs) + 1 if subs else None


def test_hausdorff_trunc_matches_path_recursion():
    # breadth first over node pairs with revisits skipped gives the least
    # differing depth of the plain recursion; near-equal sets differ deep
    rng = random.Random(37)
    for _ in range(40):
        K = random_compact(rng)
        L = K.union(pt(Fraction(rng.randint(-(2**10), 2**10), 2**10)))
        n = rng.randint(0, 9)
        want = _first_diff(sd_tree(K), sd_tree(L), n)
        assert hausdorff_trunc(sd_tree(K), sd_tree(L), n) == (0 if want is None else H**want)


def test_hausdorff_trunc_vs_sets():
    A = sd_tree(pt(1))
    B = sd_tree(pt(Fraction(3, 4)))
    d = hausdorff_trunc(A, B, 12)
    exact = hausdorff_sets(pt(1), pt(Fraction(3, 4)))
    # tree distance 2^-n bounds the set distance within the digit geometry
    assert 0 < d <= 1
    assert exact <= 2 * d


def test_hausdorff_trunc_ultrametric():
    rng = random.Random(36)
    for _ in range(10):
        S, T, U = (sd_tree(random_compact(rng)) for _ in range(3))
        d = lambda a, b: hausdorff_trunc(a, b, 8)
        assert d(S, T) <= max(d(S, U), d(U, T))


# ---------------------------------------------------------------------------
# gray trees


def test_gray_lazy_full():
    G = gray_lazy(FULL)
    assert [G.cell_min(i) for i in range(2)] == [-1, -1]
    assert [G.cell_max(i) for i in range(2)] == [1, -1]
    assert G.has_child(-1) and G.has_child(1)
    assert G.child(-1).set == FULL and G.child(1).set == FULL


def test_gray_lazy_third():
    G = gray_lazy(pt(Fraction(1, 3)))
    assert [G.cell_min(i) for i in range(3)] == [1, 1, 1]
    assert not G.has_child(-1) and G.has_child(1)
    assert G.child(1).set == pt(Fraction(1, 3))


def test_gray_lazy_zero():
    G = gray_lazy(pt(0))
    assert [G.cell_min(i) for i in range(4)] == [None, 1, -1, -1]
    assert G.has_child(-1) and G.has_child(1)
    assert G.child(1).set == pt(1)


# ---------------------------------------------------------------------------
# conversions


def test_sdk_to_grayk_examples(prelude):
    G = sdk_to_grayk(sd_tree(FULL), prelude, fuel=10**4)
    assert G.has_child(-1) and G.has_child(1)
    assert tree_value_set(G, 6) == FULL
    cells = [G.cell_min(i) for i in range(3)]
    assert cells == [-1, -1, -1]

    G3 = sdk_to_grayk(sd_tree(pt(Fraction(1, 3))), prelude, fuel=10**4)
    assert [G3.cell_min(i) for i in range(3)] == [1, 1, 1]
    assert [G3.cell_max(i) for i in range(3)] == [1, 1, 1]
    assert G3.has_child(1) and not G3.has_child(-1)


def test_engine_gray_reads_each_code_cell_once(prelude, monkeypatch):
    K = IntervalSet([(Fraction(-1, 3), Fraction(5, 7))])
    G = sdk_to_grayk(sd_tree(K), prelude, fuel=10**4)
    e = prelude.engine
    calls = []
    resolve = e.resolve_amb

    def counted(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(e, "resolve_amb", counted)
    mins = [G.cell_min(i) for i in range(8)]
    assert mins == gray_prefix(K.min(), 8)
    assert len(calls) == 8  # one spine resolution per cell, none repeated
    assert G.cell_min(3) == mins[3] and len(calls) == 8
    assert [G.cell_max(i) for i in (5, 2, 7)] == [gray_prefix(K.max(), 8)[i] for i in (5, 2, 7)]
    assert len(calls) == 16


def test_sdk_to_grayk_value_agreement(prelude):
    rng = random.Random(37)
    n = 8
    for _ in range(8):
        K = random_compact(rng)
        G = sdk_to_grayk(sd_tree(K), prelude, fuel=10**4)
        V = tree_value_set(G, n)
        W = tree_value_set(gray_lazy(K), n)
        assert hausdorff_sets(V, W) <= Fraction(4, 2**n)


def test_sdk_to_grayk_long_period_min_path(prelude):
    # the doubling map mod 4099 has period 4098 > STREAM_LIMIT, so the min
    # path of {1/4099} comes back as a list of digits, loaded with a bot
    # tail; its first cells are still exact
    x = Fraction(1, 4099)
    T = sd_tree(pt(x))
    path = sdk_path_stream(T, min)
    assert isinstance(path, list) and len(path) == STREAM_LIMIT
    G = sdk_to_grayk(T, prelude, fuel=10**4)
    assert [G.cell_min(i) for i in range(4)] == gray_prefix(x, 4) == [1, 1, -1, -1]


def test_sdk_to_grayk_truncated_paths(prelude):
    # a depth-3 tree's min path ends after 4 digits: the cells read are
    # the exact cells of -1 or Unresolved, never a wrong cell
    T = grayk_to_sdk(gray_lazy(FULL), 3)
    assert sdk_path_stream(T, min) == [-1, -1, -1, -1]
    G = sdk_to_grayk(T, prelude, fuel=10**4)
    got = [G.cell_min(i) for i in range(5)]
    assert got == [-1, -1, -1, -1, None]
    assert all(c is None or c == want for c, want in zip(got, gray_prefix(-1, 5)))


def test_grayk_to_sdk_examples():
    T = grayk_to_sdk(gray_lazy(FULL), 8)
    assert T.digits in ({-1, 1}, {-1, 0, 1})
    assert hausdorff_sets(tree_value_set(T, 8), FULL) <= Fraction(2, 2**8)

    T3 = grayk_to_sdk(gray_lazy(pt(Fraction(1, 3))), 10)
    # every path interval names 1/3
    node, digs = T3, []
    for _ in range(10):
        d = sorted(node.digits)[0]
        digs.append(d)
        node = node.child(d)
        assert sd_prefix_interval(digs).contains(Fraction(1, 3))

    T0 = grayk_to_sdk(gray_lazy(pt(0)), 10)
    assert hausdorff_sets(tree_value_set(T0, 10), pt(0)) <= Fraction(2, 2**10)


def test_grayk_to_sdk_random(prelude):
    rng = random.Random(38)
    n = 8
    for _ in range(10):
        K = random_compact(rng)
        T = grayk_to_sdk(gray_lazy(K), n)
        assert hausdorff_sets(tree_value_set(T, n), K) <= Fraction(2, 2**n)


def test_roundtrip_value_sets(prelude):
    rng = random.Random(39)
    n = 7
    for _ in range(6):
        K = random_compact(rng)
        # sd -> gray -> sd
        G = sdk_to_grayk(sd_tree(K), prelude, fuel=10**4)
        T = grayk_to_sdk(G, n)
        assert hausdorff_sets(tree_value_set(T, n), K) <= Fraction(4, 2**n)


def test_converted_min_code_containment(prelude):
    # min/max codes of converted trees name the exact min/max
    for K in (FULL, pt(Fraction(1, 3)), pt(0), IntervalSet([(-H, Fraction(1, 4))])):
        G = sdk_to_grayk(sd_tree(K), prelude, fuel=10**4)
        got = [G.cell_min(i) for i in range(6)]
        cells = [BOT_CELL if c is None else c for c in got]
        assert gray_prefix_set(cells).contains(K.min())
        got = [G.cell_max(i) for i in range(6)]
        cells = [BOT_CELL if c is None else c for c in got]
        assert gray_prefix_set(cells).contains(K.max())


def test_neg_gray_wrapper():
    K = IntervalSet([(Fraction(-3, 4), Fraction(-1, 4))])
    N = NegGray(gray_lazy(K))
    negK = K.negate()
    oracle = gray_lazy(negK)
    for i in range(4):
        assert N.cell_min(i) == oracle.cell_min(i)
        assert N.cell_max(i) == oracle.cell_max(i)
    assert N.has_child(1) and not N.has_child(-1)
    assert hausdorff_sets(tree_value_set(N, 6), negK) <= Fraction(4, 2**6)


def test_double_gray_wrapper():
    # [1/4,1] has no left grandchild (cell_min reads the right one) and
    # [-1,-1/4] no right grandchild (cell_max reads the left one)
    for K in (
        FULL,
        pt(0),
        IntervalSet([(Fraction(-1, 4), Fraction(1, 4))]),
        IntervalSet([(Fraction(1, 4), 1)]),
        IntervalSet([(-1, Fraction(-1, 4))]),
    ):
        if not restrict(K, 0):
            continue
        D = DoubleGray(gray_lazy(K))
        S = restrict(K, 0).affine(2, 0)
        got_min = [D.cell_min(i) for i in range(5)]
        cells = [BOT_CELL if c is None else c for c in got_min]
        assert gray_prefix_set(cells).contains(S.min())
        got_max = [D.cell_max(i) for i in range(5)]
        cells = [BOT_CELL if c is None else c for c in got_max]
        assert gray_prefix_set(cells).contains(S.max())
        assert hausdorff_sets(tree_value_set(D, 7), S) <= Fraction(4, 2**7)


def test_wrappers_compare_by_backing_nodes():
    G = gray_lazy(IntervalSet([(Fraction(-3, 4), Fraction(1, 3))]))
    L, R = G.child(-1), G.child(1)
    assert NegGray(L) == NegGray(L) and hash(NegGray(L)) == hash(NegGray(L))
    assert NegGray(L) != NegGray(R) and NegGray(L) != L
    # built twice from one node, or from nodes with the same grandchildren
    D = DoubleGray(G)
    assert D == DoubleGray(G) and hash(D) == hash(DoubleGray(G))
    assert DoubleGray(NegGray(NegGray(G))) == D
    assert D != DoubleGray(gray_lazy(FULL)) and D != NegGray(D)
    assert NegGray(D) == NegGray(DoubleGray(G))


def test_neg_never_doubles():
    G = gray_lazy(IntervalSet([(Fraction(-1, 5), Fraction(2, 3))]))
    for x in (G, DoubleGray(G)):
        assert _neg(_neg(x)) is x
        assert type(_neg(x)) is NegGray and _neg(x).base is x
    N = NegGray(G)
    assert _neg(N) is G and _neg(_neg(N)) == N


def test_oracle_gray_restricts_each_slot_once(monkeypatch):
    G = gray_lazy(IntervalSet([(Fraction(1, 3), Fraction(1, 2))]))
    calls = []
    intersect = IntervalSet.intersect_interval

    def counted(self, lo, hi):
        calls.append((lo, hi))
        return intersect(self, lo, hi)

    monkeypatch.setattr(IntervalSet, "intersect_interval", counted)
    for _ in range(3):
        assert G.has_child(1) and not G.has_child(-1)
        G.child(1)
    with pytest.raises(KeyError):
        G.child(-1)
    assert len(calls) == 2


def _per_path(node, depth):
    # the plain conversion: a fresh wrapper and a fresh node on every path
    E = _probe_digits(node)
    kids = {}
    if depth:
        for d in E:
            if d == -1:
                sub = node.child(-1)
            elif d == 1:
                sub = NegGray(node.child(1))
            else:
                sub = DoubleGray(node)
            kids[d] = _per_path(sub, depth - 1)
    return E, kids


def _same_paths(T, ref, depth):
    E, kids = ref
    assert T.digits == E
    if depth:
        for d in E:
            _same_paths(T.child(d), kids[d], depth - 1)


@st.composite
def unions(draw):
    """A union of 1-4 intervals; endpoints over a dyadic or an odd
    denominator, so codes end in zero cells, bot cells or long periods."""
    den = draw(st.sampled_from([2**10, 2**4, 3, 7, 12, 45, 1000, 2**10 - 1]))
    parts = draw(st.integers(min_value=1, max_value=4))
    ends = draw(st.lists(st.integers(min_value=-den, max_value=den), min_size=2 * parts, max_size=2 * parts))
    pts = sorted(Fraction(e, den) for e in ends)
    return IntervalSet([(pts[2 * i], pts[2 * i + 1]) for i in range(parts)])


@settings(max_examples=150, deadline=None)
@given(unions())
def test_grayk_to_sdk_matches_per_path_conversion(K):
    n = 7
    _same_paths(grayk_to_sdk(gray_lazy(K), n), _per_path(gray_lazy(K), n), n)


def test_grayk_to_sdk_shares_subtrees_deep():
    start = time.perf_counter()
    T = grayk_to_sdk(gray_lazy(IntervalSet([(Fraction(1, 3), H)])), 2000)
    assert time.perf_counter() - start < 10
    seen = {id(T)}
    stack = [T]
    while stack:
        node = stack.pop()
        assert isinstance(node, SDTree)
        for d in node.digits:
            try:
                kid = node.child(d)
            except TruncatedTree:
                continue
            if id(kid) not in seen:
                seen.add(id(kid))
                stack.append(kid)
    # one node per distinct (Gray node, depth): a few per level
    assert 2000 < len(seen) < 10**4


class _FreshEngineGray(EngineGray):
    """The per-path engine conversion: a fresh node on every path."""

    __slots__ = ()

    def child(self, d):
        return _FreshEngineGray(sdk_tent_child(self.source, d), self.prelude, self.fuel)


@settings(max_examples=100, deadline=None)
@given(unions())
def test_engine_gray_sharing_matches_per_path_conversion(prelude, K):
    n, fuel = 3, 10**4
    G = sdk_to_grayk(sd_tree(K), prelude, fuel)
    fresh = _FreshEngineGray(sd_tree(K), prelude, fuel)
    _same_paths(grayk_to_sdk(G, n), _per_path(fresh, n), n)
    for i in range(4):
        assert (G.cell_min(i), G.cell_max(i)) == (fresh.cell_min(i), fresh.cell_max(i))


class _Cells:
    """A Gray node whose first two min and max cells are given, None where
    unresolved."""

    def __init__(self, mins, maxs):
        self.mins, self.maxs = mins, maxs

    def cell_min(self, i):
        return self.mins[i]

    def cell_max(self, i):
        return self.maxs[i]


@settings(max_examples=300, deadline=None)
@given(unions(), st.lists(st.booleans(), min_size=4, max_size=4))
@example(IntervalSet([(Fraction(-3, 4), Fraction(-1, 4))]), [True, False, False, False])
def test_probe_digits_sound_on_unresolved_cells(K, hide):
    # the exact first two cells of min K and max K, a bot cell as None and
    # any cell hidden as None, as when fuel runs out on a defined cell:
    # the table either gives up, or picks digits whose intervals cover K,
    # each meeting K
    def cells(x, mask):
        return [None if c == BOT_CELL or h else c for c, h in zip(gray_prefix(x, 2), mask)]

    node = _Cells(cells(K.min(), hide[:2]), cells(K.max(), hide[2:]))
    try:
        E = _probe_digits(node)
    except UnresolvedNode:
        return
    cover = IntervalSet([II[d] for d in E])
    assert all(any(a <= lo and hi <= b for a, b in cover.intervals) for lo, hi in K.intervals)
    assert all(restrict(K, d) for d in E)


def test_engine_gray_one_node_per_source(prelude):
    # the 511 positions of the tree to depth 8 hold only a few distinct sources
    level = [sdk_to_grayk(sd_tree(FULL), prelude, 10**4)]
    nodes = {}
    for _ in range(8):
        level = [node.child(d) for node in level for d in (-1, 1) if node.has_child(d)]
        for node in level:
            assert nodes.setdefault(node.source, node) is node
    assert len(level) == 2**8 and len(nodes) < 20


def _walk(T, pick, n):
    out = []
    for _ in range(n):
        d = pick(T.digits)
        out.append(d)
        T = T.child(d)
    return out


@settings(max_examples=150, deadline=None)
@given(unions(), st.sampled_from([min, max]))
def test_path_stream_is_minimal(K, pick):
    T = sd_tree(K)
    s = sdk_path_stream(T, pick)
    assert isinstance(s, EPStream)
    pre, per = s.pre, s.period
    k = len(per)
    assert all(k % p or per != per[:p] * (k // p) for p in range(1, k))
    assert not pre or pre[-1] != per[-1]
    n = len(pre) + 2 * k + 8
    assert s.take(n) == _walk(T, pick, n)


def test_path_stream_minimal_examples():
    # [-1,-3/4]'s min path passes four nodes before its cycle, on -1 digits
    assert sdk_path_stream(sd_tree(IntervalSet([(-1, Fraction(-3, 4))])), min) == EPStream((), (-1,))
    assert sdk_path_stream(sd_tree(pt(0)), min) == EPStream((-1,), (1,))
    assert sdk_path_stream(sd_tree(pt(Fraction(1, 3))), max) == EPStream((1,), (0, -1))


@pytest.mark.parametrize(
    "K",
    [
        FULL,
        pt(1),
        pt(Fraction(1, 3)),
        IntervalSet([(Fraction(-3, 4), Fraction(-1, 4)), (Fraction(1, 8), Fraction(5, 8))]),
        IntervalSet([(Fraction(-1, 5), Fraction(2, 3))]),
    ],
)
def test_one_conversion_loads_one_code_per_stream(prelude, monkeypatch, K):
    e = prelude.engine
    for name in ("sd2gray", "sd_emb"):
        prelude.node(name)  # the programs load once per prelude, not here
    loads = []
    load = e.load

    def counted(term):
        loads.append(term)
        return load(term)

    monkeypatch.setattr(e, "load", counted)
    T = sd_tree(K)
    G = sdk_to_grayk(T, prelude, 10**4)
    if sdk_path_stream(T, min) == sdk_path_stream(T, max):
        # a node's min and max code share one load
        assert (G.cell_min(0), G.cell_max(0)) == (1, 1) and len(loads) == 1
    grayk_to_sdk(G, 4)
    # every node the conversion built is in its memo while the root lives;
    # the codes it read are the (node, pick) pairs with cells
    codes = [(node, pick) for node in G._memo.values() for pick in node._cells]
    streams = {sdk_path_stream(node.source, pick) for node, pick in codes}
    assert len(loads) == len(streams) < len(codes)
