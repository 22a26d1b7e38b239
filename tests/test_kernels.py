"""The shared walk kernels against slow oracles.

The walk generator _grow (with the loop erasure it carries, and walks and
saws on top of it), the canonical-SAW pass _LEStates.saws, the class tally,
the interaction factor, the visit sum, the bubble chain, the heap sum, the
closed-walk catalog and the loop measure (on Z^d and finite graphs alike)
each have one implementation that several public functions call. The
oracles below are independent enumerations, or the bodies those functions
had before they shared a kernel, kept here so the merge is checked
Fraction for Fraction. On Z^d the catalog and the loop-erased two-point
table run on canonical walks only, one per point-group orbit; their
oracles walk every image.
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import lww
from lww import enumeration as en
from lww import expansion as ex
from lww import heaps as hp
from lww.core import GraphCtx, LoopActivity, _erase, sap_key, walk_weight
from lww.cli import main
from lww.series import SeriesSum, SpatialSeries, ZSeries, exp_series
from lww.verify import SAW_COUNTS_D2
from test_acceptance import _saw_counts_brute
from test_expansion import _table_activity
from test_transfer import SAW_COUNTS, _FullStates, _canonical_saws_shorter_than

LAMBDAS = (Fraction(0), Fraction(1, 2), Fraction(2))
BOXES = ((2, 2), (2, 3), (3, 3))


def _lengths(gen):
    return Counter(len(w) - 1 for w in gen)


def _saw_dfs(ctx, start, max_len):
    """Recursive SAW enumeration (verify.suite_heaps' former saw_dfs)."""
    out = []

    def rec(path):
        out.append(tuple(path))
        for w in ctx.neighbors(path[-1]):
            if w in path or len(path) > max_len:
                continue
            path.append(w)
            rec(path)
            path.pop()

    rec([start])
    return out


def _cycles_dfs(ctx, max_len):
    """heaps.all_oriented_cycles' former DFS for self-avoiding closed walks."""
    out = set()
    for root in ctx.vertices():

        def dfs(path):
            for w in ctx.neighbors(path[-1]):
                if w == root and len(path) >= 2:
                    out.add(hp.OrientedCycle.from_closed_walk(tuple(path) + (root,)))
                if w in path or len(path) > max_len - 1:
                    continue
                dfs(path + [w])

        dfs([root])
    return tuple(sorted(out, key=lambda c: c.seq))


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("d,n", [(1, 8), (2, 6), (3, 4)])
def test_walks_counts(d, n):
    ctx = GraphCtx.lattice(d)
    ws = list(en.walks(ctx, ctx.origin(), n))
    assert _lengths(ws) == {m: (2 * d) ** m for m in range(n + 1)}
    assert len(set(ws)) == len(ws)
    assert all(b in ctx.neighbors(a) for w in ws for a, b in zip(w, w[1:]))


@pytest.mark.parametrize("d,n", [(1, 10), (2, 8), (3, 5)])
def test_saws_counts(d, n):
    ctx = GraphCtx.lattice(d)
    got = _lengths(en.saws(ctx, ctx.origin(), n))
    assert [got[m] for m in range(n + 1)] == _saw_counts_brute(d, n)
    if d == 2:
        assert tuple(got[m] for m in range(1, n + 1)) == SAW_COUNTS_D2[:n]


def test_saws_on_box_match_recursive_dfs():
    box = hp.box_graph(3, 3)
    for start in ((0, 0), (1, 1), (2, 1)):
        for cap in (0, 1, 4, 8, 10):
            got = list(en.saws(box, start, cap))
            assert len(set(got)) == len(got)
            assert set(got) == set(_saw_dfs(box, start, cap)), (start, cap)


@pytest.mark.parametrize("dims", BOXES)
def test_all_oriented_cycles_match_dfs(dims):
    box = hp.box_graph(*dims)
    for cap in (1, 2, 4, 8):
        assert hp.all_oriented_cycles(box, cap) == _cycles_dfs(box, cap), cap


GROW_CASES = [(GraphCtx.lattice(1), 8), (GraphCtx.lattice(2), 6), (GraphCtx.lattice(3), 4)]
GROW_CASES += [(hp.box_graph(*dims), 6) for dims in BOXES]


def _all_walks(ctx, start, n):
    """Every walk of at most n steps from start, level by level."""
    level, out = [(start,)], [(start,)]
    for _ in range(n):
        level = [w + (v,) for w in level for v in ctx.neighbors(w[-1])]
        out += level
    return out


@pytest.mark.parametrize("ctx,n", GROW_CASES, ids=["Z1", "Z2", "Z3"] + [f"box{w}x{h}" for w, h in BOXES])
def test_grow_carries_the_loop_erasure(ctx, n):
    o = ctx.origin() if ctx.is_lattice else (0, 0)
    nb = ctx.neighbors(o)
    prefix = (o, nb[-1], o, nb[0])  # erases the loop (o, nb[-1], o)
    if not ctx.is_lattice:
        prefix = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 0))
    for start in ((o,), prefix):
        m = n + len(start) - 1
        plain = list(en._grow(ctx, start, m))
        assert all(t == (t[0], *_erase(t[0])) for t in plain)
        want = sorted(start + w[1:] for w in _all_walks(ctx, start[-1], n))
        assert sorted(t[0] for t in plain) == want
        keyed = list(en._grow(ctx, start, m, keys=True))
        assert [t[0] for t in keyed] == [t[0] for t in plain]
        for w, saw, keys in keyed:
            assert saw == _erase(w)[0]
            assert keys == [sap_key(loop, ctx) for loop in _erase(w)[1]]
    far = nb[-1] if ctx.is_lattice else (1, 1)
    for end, avoid in ((o, frozenset()), (far, frozenset([o])), (far, frozenset([nb[0]])), (o, frozenset([far]))):
        got = sorted(w for w, _, _ in en._grow(ctx, (o,), n, end, avoid) if w[-1] == end)
        want = sorted(w for w in en.walks(ctx, o, n) if w[-1] == end and avoid.isdisjoint(w[1:]))
        assert got == want, (end, avoid)


def _is_canonical(w):
    """Whether a lattice walk's axes first appear in the order 0, 1, ...,
    each first taken in the + direction."""
    first = []
    for p, q in zip(w, w[1:]):
        a = next(i for i in range(len(p)) if p[i] != q[i])
        if a not in first:
            if a != len(first) or q[a] < p[a]:
                return False
            first.append(a)
    return True


PINNED_SAW_COUNTS = {1: (1,) + (2,) * 6, 2: (1,) + SAW_COUNTS[2], 3: (1,) + SAW_COUNTS[3],
                     4: (1, 8, 56, 392, 2648), 10: (1, 20, 20 * 19, 20 * 19 * 19)}


@pytest.mark.parametrize("d,n", [(1, 6), (2, 5), (3, 4), (4, 3), (10, 3)])
def test_states_saws_are_the_canonical_saws(d, n):
    """_LEStates.saws(n) yields exactly the canonical SAWs of at most n
    steps, each with its endpoint, axis count, points, positions and prefix
    codes; the orbit sizes of each length add up to every SAW."""
    ctx = GraphCtx.lattice(d)
    states = en._LEStates(ctx, n)
    full = _FullStates(ctx, n)
    got, sizes = [], Counter()
    for length, x, k in states.saws(n):
        w = tuple(map(states.point, states.path))
        got.append(w)
        assert len(w) == length + 1 and states.path[-1] == x
        assert states.pos == {q: i for i, q in enumerate(states.path)}
        assert [full.points(c) for c in states.codes] == [states.path[: i + 1] for i in range(length + 1)]
        assert k == sum(map(any, zip(*w)))
        if d <= 4:
            assert states.sizes[k] == len(set(_group_images(w, d, tuple)))
        sizes[length] += states.sizes[k]
    if d <= 4:
        assert sorted(got) == sorted(w for w in en.saws(ctx, ctx.origin(), n) if _is_canonical(w))
    assert len(got) == len(set(got))
    assert tuple(sizes[m] for m in range(n + 1)) == PINNED_SAW_COUNTS[d][: n + 1]


def test_generators_charge_each_walk(monkeypatch):
    ctx = GraphCtx.lattice(2)
    o = ctx.origin()
    for gen, total in ((en.walks, 1 + 4 + 16 + 64), (en.saws, 1 + 4 + 12 + 36)):
        monkeypatch.setenv("LWW_BUDGET", str(total))
        assert len(list(gen(ctx, o, 3))) == total
        monkeypatch.setenv("LWW_BUDGET", str(total - 1))
        with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
            list(gen(ctx, o, 3))


def test_loop_erased_table_and_universe_charge_walks(monkeypatch):
    ctx = GraphCtx.lattice(2)
    half = LoopActivity.constant(Fraction(1, 2))
    lww.clear_caches()
    # Only the SAW charge is under test here: the catalogs are built first,
    # so their state charges do not count, and the up-front guard (4^6 naive
    # walks), which runs on every catalog call, is off.
    for m in (2, 4, 6):
        en.closed_walk_catalog(GraphCtx.lattice(2), m)
    monkeypatch.setattr(en, "_guard", lambda ctx, max_len: None)
    n_saws = _canonical_saws_shorter_than(2, 7)  # the canonical SAWs of <= 6 steps
    assert n_saws == 1 + 1 + 2 + 5 + 13 + 36 + 98
    monkeypatch.setenv("LWW_BUDGET", str(n_saws - 1))
    with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
        en.loop_erased_two_point_table(half, 6, ctx)
    monkeypatch.setenv("LWW_BUDGET", str(n_saws))
    assert en.loop_erased_two_point_table(half, 6, ctx).support()
    n_walks = sum(4**m for m in range(5))  # 341: loop_universe's cutoff 4
    monkeypatch.setenv("LWW_BUDGET", str(n_walks - 1))
    with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
        ex.loop_universe({(0, 0)}, half, 4, ctx)
    monkeypatch.setenv("LWW_BUDGET", str(n_walks))
    assert ex.loop_universe({(0, 0)}, half, 4, ctx)
    lww.clear_caches()


def _loop_erased_table_oracle(act, nmax, ctx):
    """loop_erased_two_point_table's former body: every SAW from the origin,
    each with its own loop measure."""
    table: dict = {}
    for eta in en.saws(ctx, ctx.origin(), nmax):
        length = len(eta) - 1
        budget = nmax - length
        if budget < 2:  # no loop fits: exp(mu) = 1
            contrib = ZSeries.one(nmax).shift(length)
        else:
            mu = en.loop_measure(eta, (), act, budget, ctx)
            contrib = exp_series(ZSeries.of(mu.coeffs, nmax)).shift(length)
        acc = table.get(eta[-1])
        if acc is None:
            acc = table[eta[-1]] = SeriesSum(nmax)
        acc.add(contrib)
    return SpatialSeries.build({x: acc.value() for x, acc in table.items()}, nmax)


@pytest.mark.parametrize("d,nmax", [(1, 8), (2, 6), (3, 5), (4, 4)])
@pytest.mark.parametrize("lam", LAMBDAS + ("table",), ids=str)
def test_loop_erased_table_matches_every_saw(d, nmax, lam):
    ctx = GraphCtx.lattice(d)
    act = _table_activity(d) if lam == "table" else LoopActivity.constant(lam)
    want = _loop_erased_table_oracle(act, nmax, ctx)
    assert en.loop_erased_two_point_table(act, nmax, ctx).to_json() == want.to_json()


def test_quotient_sums_budget_guard(monkeypatch, capsys):
    """The canonical sums raise ResourceError from a cold cache, and a CLI
    command that reaches them exits 2 with one line."""
    ctx, half = GraphCtx.lattice(2), LoopActivity.constant(Fraction(1, 2))
    monkeypatch.setenv("LWW_BUDGET", "1000")
    for call in (
        lambda: en.closed_walk_catalog(ctx, 8),
        lambda: en.closed_walk_catalog(GraphCtx.lattice(5), 6),
        lambda: en.loop_erased_two_point_table(half, 8, ctx),
        lambda: ex.pi_n_table(1, half, 8, ctx),
    ):
        lww.clear_caches()
        with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
            call()
    lww.clear_caches()
    assert main(["analyze", "--d", "2", "--lambda", "2", "--nmax", "8"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "LWW_BUDGET" in err[0] and "Traceback" not in err[0]
    lww.clear_caches()


# ---------------------------------------------------------------------------
# the interaction factor


def _i_oracle(x, y, interior, act, nmax, ctx):
    """I = 1 - exp(-mu(x, y; interior)) from the uncached loop measure."""
    if x == y:
        return ZSeries.one(nmax)
    mu = en.generalized_loop_measure(
        frozenset([x]), frozenset([y]), frozenset(interior), act, nmax, ctx
    )
    return ZSeries.one(nmax) - exp_series(-mu)


def _activity(d, lam):
    return _table_activity(d) if lam == "table" else LoopActivity.constant(lam)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(0, 5), min_size=1, max_size=5), st.data())
def test_interaction_factor_matches_loop_measure(d, steps, data):
    ctx = GraphCtx.lattice(d)
    w = [ctx.origin()]
    for i in steps:
        nbrs = ctx.neighbors(w[-1])
        w.append(nbrs[i % len(nbrs)])
    w = tuple(w)
    a = data.draw(st.integers(0, len(w) - 2))
    b = data.draw(st.integers(a + 1, len(w) - 1))
    act = _activity(d, data.draw(st.sampled_from(LAMBDAS + ("table",))))
    nmax = data.draw(st.integers(0, 6))
    got = en.i_omega(w, a, b, act, nmax, ctx)
    assert got.coeffs == _i_oracle(w[a], w[b], w[a + 1 : b], act, nmax, ctx).coeffs
    got = en.interaction_two_point(w[a], w[b], act, nmax, ctx)
    assert got.coeffs == _i_oracle(w[a], w[b], (), act, nmax, ctx).coeffs


def test_interaction_factor_on_a_box():
    box = hp.box_graph(3, 2)
    act = LoopActivity.constant(Fraction(1, 2))
    w = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (1, 0))
    for a in range(len(w) - 1):
        for b in range(a + 1, len(w)):
            got = en.i_omega(w, a, b, act, 6, box)
            assert got.coeffs == _i_oracle(w[a], w[b], w[a + 1 : b], act, 6, box).coeffs
            got = en.interaction_two_point(w[a], w[b], act, 6, box)
            assert got.coeffs == _i_oracle(w[a], w[b], (), act, 6, box).coeffs


# ---------------------------------------------------------------------------
# visit sums


def _visit_brute(x, end, b, avoid, act, nmax, ctx):
    """Walks x -> end of 1..nmax steps off `avoid`, weighted by walk_weight
    times the number of visits to b at times j >= 1."""
    coeffs = [Fraction(0)] * (nmax + 1)
    for w in en.walks(ctx, x, nmax):
        if len(w) == 1 or w[-1] != end or any(v in avoid for v in w[1:]):
            continue
        n, lf = walk_weight(w, act, ctx)
        coeffs[n] += lf * w[1:].count(b)
    return ZSeries(tuple(coeffs))


@pytest.mark.parametrize("d,n", [(1, 6), (2, 6)])
@pytest.mark.parametrize("lam", LAMBDAS + ("table",), ids=str)
def test_visit_sums_match_brute_force(d, n, lam):
    ctx = GraphCtx.lattice(d)
    act = _activity(d, lam)
    o = ctx.origin()
    e = ctx.neighbors(o)[1]
    e2 = tuple(2 * c for c in e)
    pts = [o, e, e2, ctx.neighbors(o)[0 if d == 1 else 3]]
    for y in pts:
        got = en.visit_weighted_closed_sum(o, y, act, n, ctx)
        assert got.coeffs == _visit_brute(o, o, y, (), act, n, ctx).coeffs, y
    for y in pts[1:]:
        for b in pts[1:]:
            got = en.split_visit_sum(o, y, b, act, n, ctx)
            assert got.coeffs == _visit_brute(o, y, b, {o}, act, n, ctx).coeffs, (y, b)


@pytest.mark.parametrize("d,n", [(1, 8), (2, 6)])
@pytest.mark.parametrize("lam", (Fraction(1, 2), Fraction(2)), ids=str)
def test_restricted_bubble_chain_matches_brute_force(d, n, lam):
    """The bubble chain avoiding F is the visit sum of the closed walks at o
    that never step onto F."""
    ctx = GraphCtx.lattice(d)
    act = LoopActivity.constant(lam)
    o = ctx.origin()
    e = ctx.neighbors(o)[-1]
    for F in (frozenset([tuple(-c for c in e)]), frozenset([tuple(-2 * c for c in e)])):
        for y in ctx.neighbors(o)[1:3] + [tuple(2 * c for c in e)]:
            got = en.true_bubble_chain(o, y, act, n, ctx, forbidden=F)
            assert got.coeffs == _visit_brute(o, o, y, F, act, n, ctx).coeffs, (F, y)


# ---------------------------------------------------------------------------
# the class tally behind walk_sum, the visit sums and the closed tail of the
# pinch part; the finite-graph tables of the transfer against the same bodies


def _walk_sum_oracle(start, end, act, nmax, ctx, avoid=frozenset()):
    """walk_sum's former body: one Fraction power and one add per walk."""
    coeffs = [Fraction(0)] * (nmax + 1)
    for w, _, erased in en._grow(ctx, (start,), nmax, end, avoid, not act.is_constant):
        if end is None or w[-1] == end:
            coeffs[len(w) - 1] += act.weight_of_keys(erased)
    return ZSeries(tuple(coeffs))


def _visit_sum_oracle(x, end, b, avoid, act, nmax, ctx):
    """The former _visit_sum: the walks x -> end off `avoid`, one at a time,
    each weighed once per visit to b at a time j >= 1."""
    coeffs = [Fraction(0)] * (nmax + 1)
    for w, _, erased in en._grow(ctx, (x,), nmax, end, avoid, not act.is_constant):
        if w[-1] == end:
            coeffs[len(w) - 1] += act.weight_of_keys(erased) * w[1:].count(b)
    return ZSeries(tuple(coeffs))


def _pinch_tail_oracle(prefix, lam, k, max_len, ctx, forbidden):
    """bubble_chain_pinch_part's former closed tail: every closed walk at
    x = prefix[-1] that extends prefix off `forbidden` weighs
    lam^(erased loops + k), one walk at a time."""
    x = prefix[-1]
    coeffs = [Fraction(0)] * (max_len + 1)
    for w, _, loops in en._grow(ctx, prefix, max_len, x, forbidden):
        if w[-1] == x:
            coeffs[len(w) - 1] += lam ** (len(loops) + k)
    return ZSeries(tuple(coeffs))


def _box_table(box):
    """The unit square at 3 and the backtrack on one edge at 1/3 (finite keys
    name vertices), every other loop at 1/2."""
    square = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    edge = ((0, 0), (1, 0), (0, 0))
    return LoopActivity.of_table({sap_key(square, box): Fraction(3), sap_key(edge, box): Fraction(1, 3)},
                                 Fraction(1, 2))


# (ctx, nmax, points): points[0] is the start; on Z^d the last point is out
# of reach, so a mark there is off every walk
TALLY_CASES = {
    "Z1": (GraphCtx.lattice(1), 8, [(0,), (1,), (2,), (-1,), (9,)]),
    "Z2": (GraphCtx.lattice(2), 5, [(0, 0), (1, 0), (1, 1), (0, -1), (6, 0)]),
    "box2x2": (hp.box_graph(2, 2), 8, [(0, 0), (1, 0), (1, 1), (0, 1)]),
    "box3x3": (hp.box_graph(3, 3), 6, [(0, 0), (1, 0), (1, 1), (2, 2)]),
}


@pytest.mark.parametrize("case", TALLY_CASES)
def test_tally_matches_per_walk_bodies(case):
    ctx, nmax, pts = TALLY_CASES[case]
    o = pts[0]
    acts = [LoopActivity.constant(lam) for lam in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))]
    acts.append(_table_activity(ctx.d) if ctx.is_lattice else _box_table(ctx))
    # avoid sets without and with the start; a mark in `avoid` is off every walk too
    for act, avoid in product(acts, (frozenset(), frozenset([pts[3]]), frozenset([o]), frozenset([o, pts[2]]))):
        for end in (None, *pts):
            got = en.walk_sum(o, end, act, nmax, ctx, avoid)
            assert got.coeffs == _walk_sum_oracle(o, end, act, nmax, ctx, avoid).coeffs, (act, avoid, end)
        for end, mark in product(pts[:2], pts):
            got = en._tally(ctx, (o,), act, nmax, end, avoid, mark).get(end, ZSeries.zero(nmax))
            assert got.coeffs == _visit_sum_oracle(o, end, mark, avoid, act, nmax, ctx).coeffs, (act, avoid, end, mark)


TRIANGLE = GraphCtx.finite([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
K4 = GraphCtx.finite(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
# (ctx, nmax, table activity): the 2x1 box has max degree 1, the triangle
# and K4 have odd cycles, and the last vertex of "isolated" has no edge
FINITE_TABLE_CASES = {
    **{f"box{w}x{h}": (hp.box_graph(w, h), nmax, _box_table(hp.box_graph(w, h)))
       for w, h, nmax in ((2, 1, 8), (2, 2, 8), (3, 2, 8), (3, 3, 6), (4, 4, 6))},
    "triangle": (TRIANGLE, 8, LoopActivity.of_table(
        {sap_key((0, 1, 2, 0), TRIANGLE): Fraction(3), sap_key((1, 2, 1), TRIANGLE): Fraction(1, 3)}, Fraction(1, 2))),
    "K4": (K4, 6, LoopActivity.of_table({sap_key((0, 1, 2, 0), K4): Fraction(3)}, Fraction(1, 2))),
    "isolated": (GraphCtx.finite([0, 1, 2], [(0, 1)]), 6, LoopActivity.of_table({}, Fraction(2))),
}


@pytest.mark.parametrize("case", FINITE_TABLE_CASES)
def test_finite_tables_match_per_walk_bodies_from_every_vertex(case):
    """two_point_table from every vertex of a finite graph, and chi_series
    from the first, against the walks one at a time."""
    ctx, nmax, table = FINITE_TABLE_CASES[case]
    for act in [LoopActivity.constant(lam) for lam in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))] + [table]:
        for v in ctx.vertices():
            got = en.two_point_table(act, nmax, ctx, origin=v)
            assert all(got.at(x).coeffs == _walk_sum_oracle(v, x, act, nmax, ctx).coeffs for x in ctx.vertices()), (act, v)
        assert en.chi_series(act, nmax, ctx).coeffs == _walk_sum_oracle(ctx.vertices()[0], None, act, nmax, ctx).coeffs


def test_pinch_tail_tally_matches_per_walk_body():
    """The prefixes end at x after a return piece, some with a loop erased
    on the way."""
    cases = (
        (GraphCtx.lattice(1), 8, [((0,),), ((1,), (0,)), ((1,), (2,), (1,), (0,))], frozenset([(-1,)])),
        (GraphCtx.lattice(2), 6, [((0, 0),), ((1, 0), (1, 1), (0, 1), (0, 0)), ((1, 0), (2, 0), (1, 0), (0, 0))],
         frozenset([(-1, 0)])),
    )
    for ctx, nmax, prefixes, F in cases:
        for lam, prefix, forbidden, k in product(LAMBDAS + (Fraction(1),), prefixes, (frozenset(), F), (1, 2)):
            x = prefix[-1]
            got = en._tally(ctx, prefix, LoopActivity.constant(lam), nmax, x, forbidden)[x] * lam**k
            assert got.coeffs == _pinch_tail_oracle(prefix, lam, k, nmax, ctx, forbidden).coeffs, (lam, prefix)


def _bubble_grid() -> list:
    """bubble_chain_pinch_part and split_visit_sum_rhs on a small grid, as JSON."""
    out = []
    grid = (
        (GraphCtx.lattice(1), 8, [(1,), (2,), (-1,)], frozenset([(-1,)]),
         [((0,), (2,), (1,)), ((0,), (1,), (1,)), ((0,), (-1,), (1,))]),
        (GraphCtx.lattice(2), 6, [(1, 0), (1, 1)], frozenset([(-1, 0)]),
         [((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 1), (1, 0))]),
    )
    for lam in LAMBDAS + (Fraction(1),):
        act = LoopActivity.constant(lam)
        for ctx, nmax, ys, F, splits in grid:
            for y, forbidden in product(ys, (frozenset(), F)):
                out.append(en.bubble_chain_pinch_part(ctx.origin(), y, act, nmax, ctx, forbidden).to_json())
            out += [en.split_visit_sum_rhs(x, y, b, act, nmax, ctx).to_json() for x, y, b in splits]
    return out


def test_bubble_chain_values_unchanged():
    """The pinch part and the right side of the splitting identity keep the
    values they had when the pinch part's closed tail was summed one walk at
    a time: the sha256 of _bubble_grid's JSON as that code printed it."""
    digest = hashlib.sha256(json.dumps(_bubble_grid()).encode()).hexdigest()
    assert digest == "37e23a39ca99eb648465f3076d248cdbc5ee1408c3b710f73c1b46f2689c14e8"


# ---------------------------------------------------------------------------
# heap sums and the closed-walk sum


def _trivial_heap_oracle(forbidden, ctx, act, nmax):
    """trivial_heap_sum's former body: cycle weights rebuilt at every node."""
    cycles = [
        c
        for c in hp.all_oriented_cycles(ctx, nmax)
        if not (c.vertices() & forbidden) and len(c) <= nmax
    ]
    total = [ZSeries.one(nmax)]

    def dfs(start, chosen_verts, weight):
        for i in range(start, len(cycles)):
            c = cycles[i]
            if chosen_verts & c.vertices():
                continue
            w2 = weight * hp.cycle_weight(c, act, nmax, ctx) * Fraction(-1)
            if w2.is_zero():
                continue
            total[0] = total[0] + w2
            dfs(i + 1, chosen_verts | c.vertices(), w2)

    dfs(0, frozenset(), ZSeries.one(nmax))
    return total[0]


def _unoriented_heap_oracle(forbidden, ctx, act, nmax):
    """unoriented_heap_sum's former body."""
    seen = set()
    unoriented = []
    for c in hp.all_oriented_cycles(ctx, nmax):
        if c.vertices() & forbidden or len(c) > nmax:
            continue
        base = min(c.seq, c.reversed_cycle().seq)
        if base in seen:
            continue
        seen.add(base)
        unoriented.append(c)
    total = [ZSeries.one(nmax)]

    def dfs(start, chosen_verts, weight):
        for i in range(start, len(unoriented)):
            c = unoriented[i]
            if chosen_verts & c.vertices():
                continue
            mult = 1 if len(c) == 2 else 2
            w2 = weight * (hp.cycle_weight(c, act, nmax, ctx) * Fraction(-mult))
            if w2.is_zero():
                continue
            total[0] = total[0] + w2
            dfs(i + 1, chosen_verts | c.vertices(), w2)

    dfs(0, frozenset(), ZSeries.one(nmax))
    return total[0]


def _closed_walk_loop_sum_oracle(forbidden, ctx, act, nmax):
    """closed_walk_loop_sum's former body: one division per root."""
    acc = ZSeries.zero(nmax)
    for v in ctx.vertices():
        if v in forbidden:
            continue
        raw = en.walk_sum(v, v, act, nmax, ctx, forbidden)  # the 0-step walk has n = 0
        acc = acc + ZSeries(tuple(c / n if n else Fraction(0) for n, c in enumerate(raw.coeffs)))
    return acc


@pytest.mark.parametrize("dims", BOXES)
def test_heap_sums_match_former_bodies(dims):
    box = hp.box_graph(*dims)
    square = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    acts = [LoopActivity.constant(lam) for lam in LAMBDAS]
    acts.append(LoopActivity.of_table({sap_key(square, box): Fraction(3)}, Fraction(1, 2)))
    nmax = 6 if dims == (3, 3) else 8
    for act in acts:
        for forbidden in (frozenset(), frozenset([(0, 0)]), frozenset([(1, 0), (1, 1)])):
            args = (forbidden, box, act, nmax)
            assert hp.trivial_heap_sum(*args).coeffs == _trivial_heap_oracle(*args).coeffs
            assert hp.unoriented_heap_sum(*args).coeffs == _unoriented_heap_oracle(*args).coeffs
            got = hp.closed_walk_loop_sum(*args)
            assert got.coeffs == _closed_walk_loop_sum_oracle(*args).coeffs


# ---------------------------------------------------------------------------
# the closed-walk catalog


def _closed_walks(n, d):
    """Number of closed n-step walks from the origin of Z^d: axis 0 takes 2a
    of the steps, a each way, and the others close up in Z^(d-1)."""
    if n % 2:
        return 0
    if d == 1:
        return comb(n, n // 2)
    return sum(comb(n, 2 * a) * comb(2 * a, a) * _closed_walks(n - 2 * a, d - 1) for a in range(n // 2 + 1))


@pytest.mark.parametrize("d,n", [(1, 10), (2, 8), (3, 6), (4, 6)])
def test_closed_walk_catalog(d, n):
    ctx = GraphCtx.lattice(d)
    o = ctx.origin()
    cat = en.closed_walk_catalog(GraphCtx.lattice(d), n)
    got = _expanded(cat)
    per_len = Counter()
    for (_, m, _), cnt in got.items():
        per_len[m] += cnt
    assert per_len == {m: _closed_walks(m, d) for m in range(2, n + 1, 2)}
    want = Counter()
    for w in en.walks(ctx, o, n):
        if len(w) > 2 and w[-1] == o:
            keys = tuple(sorted(sap_key(loop) for loop in _erase(w)[1]))
            want[(frozenset(w), len(w) - 1, keys)] += 1
    assert got == want
    for rng, size, _ in cat.ranges:  # canonical: on the axes 0..k-1, with 2^k d!/(d-k)! images
        k = sum(map(any, zip(*rng)))
        assert not any(p[k:] != (0,) * (d - k) for p in rng)
        assert size == 2**k * len(list(permutations(range(d), k))) == len(en._range_images(rng, d))


def _expanded(cat) -> Counter:
    """(range, n, keys) -> count over the closed walks of a catalog, each
    canonical range replaced by its images: on Z^d every closed walk rooted
    at the origin, on a finite graph every closed walk."""
    out = Counter()
    for rng, _, rows in cat.ranges:
        for image, copies in Counter(en._range_images(rng, cat.d)).items() if cat.d else [(rng, 1)]:
            for n, keys, cnt in rows:
                out[(image, n, keys)] += cnt * copies
    return out


def _group_images(points, d, collect=frozenset):
    """The images of a range (or, collected as a tuple, a walk) under every
    signed permutation of the axes, with repetition."""
    return [collect(tuple(s * p[i] for s, i in zip(signs, perm)) for p in points)
            for perm in permutations(range(d)) for signs in product((1, -1), repeat=d)]


@pytest.mark.parametrize("d,rng,distinct", [
    (2, {(0, 0), (1, 0), (2, 0), (2, 1)}, 8),
    (2, {(0, 0), (1, 0), (1, 1), (0, 1)}, 4),  # a square: each image twice
    (3, {(0, 0, 0), (1, 0, 0), (1, 1, 0)}, 24),
    (3, {(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)}, 12),
    (3, {(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)}, 48),
    (4, {(0, 0, 0, 0), (1, 0, 0, 0)}, 8),
    (4, {(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (0, 1, 1, 0)}, 192),
])
def test_range_images_are_the_orbit(d, rng, distinct):
    """A canonical range on k axes has 2^k d!/(d-k)! images, one per
    injective signed map of its axes, fewer distinct ones when the range is
    symmetric. They are its point-group orbit, each hit equally often, so
    the catalog's merged counts (checked against every walk in
    test_closed_walk_catalog) give each range of the orbit the same count."""
    rng = frozenset(rng)
    k = sum(map(any, zip(*rng)))
    images = en._range_images(rng, d)
    assert len(images) == 2**k * len(list(permutations(range(d), k)))
    hits, full = Counter(images), Counter(_group_images(rng, d))
    assert len(hits) == distinct and set(hits) == set(full)
    assert set(hits.values()) == {len(images) // distinct}
    assert set(full.values()) == {sum(full.values()) // distinct}


@pytest.mark.parametrize("dims,n", [((2, 2), 8), ((2, 3), 7), ((3, 3), 6)])
def test_closed_walk_catalog_on_a_box(dims, n):
    box = hp.box_graph(*dims)
    got = _expanded(en.closed_walk_catalog(box, n))
    want = Counter()
    for root in box.vertices():
        for w in en.walks(box, root, n):
            if len(w) > 2 and w[-1] == root:
                keys = tuple(sorted(sap_key(loop, box) for loop in _erase(w)[1]))
                want[(frozenset(w), len(w) - 1, keys)] += 1
    assert got == want
    # closed walks over every root: the trace of the adjacency matrix power
    verts = box.vertices()
    adj = [[int(v in box.neighbors(u)) for v in verts] for u in verts]
    power, traces = adj, {}
    for m in range(2, n + 1):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*adj)] for row in power]
        traces[m] = sum(power[i][i] for i in range(len(verts)))
    per_len = Counter()
    for (_, m, _), cnt in got.items():
        per_len[m] += cnt
    assert per_len == {m: t for m, t in traces.items() if t}


def _catalog_walks(ctx, max_len):
    """(root, node) for each node of closed_walk_catalog's former depth-first
    body: the walks that can still close up at their root, on Z^d the
    canonical ones alone, each carrying its erased-loop keys."""
    for root in (ctx.origin(),) if ctx.is_lattice else ctx.vertices():
        for node in en._grow(ctx, (root,), max_len, end=root, keys=True):
            if not ctx.is_lattice or _is_canonical(node[0]):
                yield root, node


def _catalog_oracle(ctx, max_len):
    """closed_walk_catalog's former body: every closed walk of _catalog_walks
    counted by (range, n, sorted keys), and on Z^d each canonical entry
    counted again under every image of its range."""
    agg = Counter()
    for root, (w, _, keys) in _catalog_walks(ctx, max_len):
        if len(w) > 2 and w[-1] == root:
            agg[(frozenset(w), len(w) - 1, tuple(sorted(keys)))] += 1
    if not ctx.is_lattice:
        return agg
    out = Counter()
    for (rng, n, keys), cnt in agg.items():
        for image in en._range_images(rng, ctx.d):
            out[(image, n, keys)] += cnt
    return out


CATALOG_CASES = [(hp.box_graph(*dims), 8) for dims in ((2, 2), (3, 2), (3, 3))]
CATALOG_CASES += [(GraphCtx.lattice(d), n) for d, n in ((1, 12), (2, 10), (3, 6), (4, 6))]
CATALOG_IDS = ["box2x2", "box3x2", "box3x3", "Z1", "Z2", "Z3", "Z4"]


@pytest.mark.parametrize("ctx,n", CATALOG_CASES, ids=CATALOG_IDS)
def test_closed_walk_catalog_matches_former_body(ctx, n):
    lww.clear_caches()
    assert _expanded(en.closed_walk_catalog(ctx, n)) == _catalog_oracle(ctx, n)


@pytest.mark.parametrize("ctx,n", [
    (GraphCtx.finite("abc", [("a", "b"), ("b", "c"), ("c", "a")]), 8),
    (GraphCtx.finite(range(10, 14), [(a, b) for a in range(10, 14) for b in range(a + 1, 14)]), 6),
    (GraphCtx.finite(["x", "y", "z"], [("x", "z")]), 6),
], ids=["triangle", "K4", "isolated"])
def test_closed_walk_catalog_on_small_graphs(ctx, n):
    """The catalog numbers a finite graph's vertices as ints and decodes
    them back: odd cycles, labels that are not their places, and a vertex
    with no edge between two that have one."""
    lww.clear_caches()
    got = _expanded(en.closed_walk_catalog(ctx, n))
    assert got and got == _catalog_oracle(ctx, n)


@pytest.mark.parametrize("ctx,n", [(GraphCtx.lattice(2), 8), (hp.box_graph(3, 3), 8)], ids=["Z2", "box3x3"])
def test_closed_walk_catalog_charges_each_state(monkeypatch, ctx, n):
    """With the up-front guard off, the catalog is charged one unit per
    state it expands: the distinct (loop erasure, range, erased keys) of
    the walks shorter than n that can still close up, per root."""
    states = {(root, len(w), saw, frozenset(w), tuple(sorted(keys)))
              for root, (w, saw, keys) in _catalog_walks(ctx, n) if len(w) <= n}
    monkeypatch.setattr(en, "_guard", lambda ctx, max_len: None)
    for budget in (len(states) - 1, 50):
        lww.clear_caches()
        monkeypatch.setenv("LWW_BUDGET", str(budget))
        with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
            en.closed_walk_catalog(ctx, n)
    lww.clear_caches()
    monkeypatch.setenv("LWW_BUDGET", str(len(states)))
    assert en.closed_walk_catalog(ctx, n).ranges
    lww.clear_caches()


def test_each_erased_loop_is_keyed_once(monkeypatch):
    """_grow with keys, and a catalog build, call sap_key once per distinct
    erased loop."""
    calls = Counter()

    def counting(loop, ctx=None):
        calls[loop] += 1
        return sap_key(loop, ctx)

    monkeypatch.setattr(en, "sap_key", counting)
    for ctx, start in ((GraphCtx.lattice(2), (0, 0)), (hp.box_graph(3, 3), (1, 1))):
        loops = {loop for w in en.walks(ctx, start, 6) for loop in _erase(w)[1]}
        calls.clear()
        list(en._grow(ctx, (start,), 6, keys=True))
        assert set(calls) == loops and set(calls.values()) == {1}
        calls.clear()
        lww.clear_caches()
        en.closed_walk_catalog(ctx, 6)
        assert calls and set(calls.values()) == {1}
    lww.clear_caches()


# ---------------------------------------------------------------------------
# loop measures


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_shifts_are_the_translates_meeting_a_region(d, data):
    """On Z^d, _shifts(region, rng) = {v : (rng + v) meets region}, brute
    forced over the box of every v that can move rng onto the region."""
    ctx = GraphCtx.lattice(d)
    point = st.tuples(*[st.integers(-3, 3)] * d)
    region = data.draw(st.frozensets(point, min_size=1, max_size=4))
    rng = data.draw(st.frozensets(point, min_size=1, max_size=5))
    box = [range(min(a[i] for a in region) - max(r[i] for r in rng),
                 max(a[i] for a in region) - min(r[i] for r in rng) + 1) for i in range(d)]
    want = {v for v in product(*box)
            if any(tuple(c + o for c, o in zip(r, v)) in region for r in rng)}
    assert en._shifts(region, rng, ctx) == want
    assert en._shifts(frozenset(), rng, ctx) == set()


@pytest.mark.parametrize("dims", BOXES)
def test_shifts_on_a_box(dims):
    """On a finite graph an entry is its own walk: {()} exactly when its
    range meets the region."""
    box = hp.box_graph(*dims)
    verts = box.vertices()
    rng = random.Random(BOXES.index(dims))
    for _ in range(60):
        region = frozenset(rng.sample(verts, rng.randint(0, 3)))
        walk_range = frozenset(rng.sample(verts, rng.randint(1, 4)))
        want = {()} if region & walk_range else set()
        assert en._shifts(region, walk_range, box) == want, (region, walk_range)


def _mu_finite_oracle(A, B, C, act, nmax, ctx):
    """The former finite-graph loop measure: inclusion-exclusion on the
    misses, each term one constrained walk_sum per root, divided by the
    length at the end."""
    C = frozenset(C)
    A = frozenset(A) - C
    if not A:
        return ZSeries.zero(nmax)

    def closed(avoid):
        acc = ZSeries.zero(nmax)
        for x in ctx.vertices():
            if x not in avoid:
                acc = acc + en.walk_sum(x, x, act, nmax, ctx, avoid)
        return acc

    if B is None:
        raw = closed(C) - closed(C | A)
    else:
        B = frozenset(B) - C
        if not B:
            return ZSeries.zero(nmax)
        raw = closed(C) - closed(C | A) - closed(C | B) + closed(C | A | B)
    return ZSeries(tuple(c / n if n else Fraction(0) for n, c in enumerate(raw.coeffs)))


def _box_cases(box, seed):
    """(A, B, C) triples on a box: random ones, then B = None, A meeting C
    and B inside C."""
    rng = random.Random(seed)
    verts = box.vertices()

    def some(lo, hi):
        return frozenset(rng.sample(verts, rng.randint(lo, hi)))

    cases = [(some(1, 3), some(1, 2), some(0, 2)) for _ in range(4)]
    cases += [(some(1, 3), None, some(0, 2)) for _ in range(2)]
    a, c = some(1, 3), some(1, 2)
    cases.append((a | c, some(1, 2), c))
    cases.append((a, c, c | some(0, 1)))
    cases.append((a, None, a))
    return cases


@pytest.mark.parametrize("dims", BOXES)
def test_loop_measures_on_a_box_match_inclusion_exclusion(dims):
    box = hp.box_graph(*dims)
    square = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    acts = [LoopActivity.constant(lam) for lam in LAMBDAS]
    acts.append(LoopActivity.of_table({sap_key(square, box): Fraction(3)}, Fraction(1, 2)))
    for i, act in enumerate(acts):
        for A, B, C in _box_cases(box, 10 * BOXES.index(dims) + i):
            for nmax in (0, 3, 6):
                if B is None:
                    got = en.loop_measure(A, C, act, nmax, box)
                else:
                    got = en.generalized_loop_measure(A, B, C, act, nmax, box)
                assert got.coeffs == _mu_finite_oracle(A, B, C, act, nmax, box).coeffs, (A, B, C, nmax)


def _mu_brute(A, B, C, act, nmax, ctx):
    """mu(A, B; C) on Z^d from every closed walk rooted within reach of A."""
    coeffs = [Fraction(0)] * (nmax + 1)
    roots = {w[-1] for a in A for w in en.walks(ctx, a, nmax // 2)}
    for root in roots:
        for w in en.walks(ctx, root, nmax):
            if len(w) < 3 or w[-1] != root or not set(w) & A or set(w) & C:
                continue
            if B is not None and not set(w) & B:
                continue
            n, lf = walk_weight(w, act, ctx)
            coeffs[n] += lf / n
    return ZSeries(tuple(coeffs))


@pytest.mark.parametrize("d,nmax", [(1, 7), (2, 4), (3, 4)])
@pytest.mark.parametrize("lam", LAMBDAS + ("table",), ids=str)
def test_lattice_loop_measures_match_brute_force(d, nmax, lam):
    ctx = GraphCtx.lattice(d)
    act = _activity(d, lam)
    o = ctx.origin()
    e, f = ctx.neighbors(o)[-1], ctx.neighbors(o)[0]
    A, B = frozenset([o, e]), frozenset([f])
    for C in (frozenset(), frozenset([e]), frozenset([f]), frozenset([tuple(2 * c for c in e)])):
        got = en.loop_measure(A, C, act, nmax, ctx)
        assert got.coeffs == _mu_brute(A, None, C, act, nmax, ctx).coeffs, C
        got = en.generalized_loop_measure(A, B, C, act, nmax, ctx)
        assert got.coeffs == _mu_brute(A, B, C, act, nmax, ctx).coeffs, C


def _mu_catalog_oracle(A, B, C, act, nmax, ctx):
    """The former _mu: every entry of the former catalog body (every image
    of every canonical range on Z^d) weighed on its own, times the number of
    its rooted walks (_shifts) that hit A, and B unless B is None, and avoid C."""
    C = frozenset(C)
    A = frozenset(A) - C
    if B is not None:
        B = frozenset(B) - C
        if B == A:
            B = None
    coeffs = [Fraction(0)] * (nmax + 1)
    if not A or B is not None and not B:
        return ZSeries(tuple(coeffs))
    for (rng, n, keys), cnt in _catalog_oracle(ctx, nmax - nmax % 2 if ctx.is_lattice else nmax).items():
        hits = en._shifts(A, rng, ctx)
        if B is not None:
            hits &= en._shifts(B, rng, ctx)
        hits -= en._shifts(C, rng, ctx)
        coeffs[n] += act.weight_of_keys(keys) * cnt * len(hits) / n
    return ZSeries(tuple(coeffs))


@pytest.mark.parametrize("d,nmax", [(1, 10), (2, 8), (2, 7), (3, 6), (4, 6), (5, 6)])
@pytest.mark.parametrize("lam", (Fraction(1, 2), Fraction(2), "table"), ids=str)
def test_alpha_closed_forms_match_the_expanded_catalog(d, nmax, lam):
    """alpha_0 = exp mu({0}) and alpha = exp mu({0}; {y}) from the canonical
    ranges alone (|R| and E(R)/d per range) equal the former route over every
    image of every range; so do mu({x}) and mu({x}, {x + u}) at other points
    x and unit steps u, which read the same closed forms."""
    ctx, act = GraphCtx.lattice(d), _activity(d, lam)
    o = ctx.origin()
    lww.clear_caches()
    mu0 = _mu_catalog_oracle({o}, None, (), act, nmax, ctx)
    mu_y = _mu_catalog_oracle({o}, {ctx.neighbors(o)[0]}, (), act, nmax, ctx)
    assert en.alpha0(act, nmax, ctx) == exp_series(mu0)
    assert en.alpha_renorm(act, nmax, ctx) == exp_series(mu0 - mu_y)
    x = tuple(range(1, d + 1))
    assert en.loop_measure({x}, (), act, nmax, ctx) == mu0
    for u in ctx.neighbors(o):
        assert en.generalized_loop_measure({x}, {tuple(map(sum, zip(x, u)))}, (), act, nmax, ctx) == mu_y
    lww.clear_caches()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_lattice_loop_measures_match_the_expanded_catalog(d, data):
    """loop_measure and generalized_loop_measure on random regions of Z^d,
    with and without an avoided set, against the former route; one point,
    and the two ends of a unit step, take the closed forms."""
    ctx = GraphCtx.lattice(d)
    nmax = data.draw(st.integers(0, {1: 9, 2: 8, 3: 5}[d]), label="nmax")
    act = _activity(d, data.draw(st.sampled_from(LAMBDAS + ("table",)), label="lam"))
    reach = data.draw(st.integers(1, 3), label="reach")  # near regions meet long loops in many shifts
    point = st.tuples(*[st.integers(-reach, reach)] * d)
    shape = data.draw(st.sampled_from(("point", "step", "regions")), label="shape")
    a = data.draw(point, label="a")
    if shape == "regions":
        A = data.draw(st.frozensets(point, min_size=1, max_size=3), label="A")
        B = data.draw(st.none() | st.frozensets(point, min_size=1, max_size=2), label="B")
        C = data.draw(st.frozensets(point, max_size=2), label="C")
    else:
        A, C = frozenset([a]), frozenset()
        B = None if shape == "point" else frozenset([tuple(map(sum, zip(a, data.draw(
            st.sampled_from(ctx.neighbors(ctx.origin())), label="u"))))])
    want = _mu_catalog_oracle(A, B, C, act, nmax, ctx)
    got = en.loop_measure(A, C, act, nmax, ctx) if B is None else en.generalized_loop_measure(A, B, C, act, nmax, ctx)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BOXES), st.data())
def test_box_loop_measures_match_the_expanded_catalog(dims, data):
    box = hp.box_graph(*dims)
    verts = st.sampled_from(box.vertices())
    nmax = data.draw(st.integers(0, 6), label="nmax")
    act = data.draw(st.sampled_from([LoopActivity.constant(lam) for lam in LAMBDAS] + [_box_table(box)]), label="act")
    A = data.draw(st.frozensets(verts, min_size=1, max_size=3), label="A")
    B = data.draw(st.none() | st.frozensets(verts, min_size=1, max_size=2), label="B")
    C = data.draw(st.frozensets(verts, max_size=2), label="C")
    want = _mu_catalog_oracle(A, B, C, act, nmax, box)
    got = en.loop_measure(A, C, act, nmax, box) if B is None else en.generalized_loop_measure(A, B, C, act, nmax, box)
    assert got == want


def test_catalog_guard_runs_cold_and_warm(monkeypatch):
    """The catalog's up-front guard ((2d)^n naive walks) runs on every call,
    so a small budget raises whether or not the catalog, or the weights and
    loop measures read from it, are cached; alpha0 and alpha_renorm run it
    before they read _mu_pair (at nmax 7 on the catalog of closed walks of
    at most 6 steps)."""
    ctx, half = GraphCtx.lattice(2), LoopActivity.constant(Fraction(1, 2))
    for call in (lambda: en.closed_walk_catalog(ctx, 6),
                 lambda: en.loop_measure({(0, 0), (1, 1)}, {(1, 0)}, half, 6, ctx),
                 lambda: en.alpha0(half, 6, ctx),
                 lambda: en.alpha_renorm(half, 7, ctx)):
        lww.clear_caches()
        for warm in (False, True):
            monkeypatch.setenv("LWW_BUDGET", str(4**6 - 1))
            with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
                call()
            monkeypatch.setenv("LWW_BUDGET", str(4**6))
            call()  # fills the caches on the cold pass
    lww.clear_caches()


def test_table_guards_run_cold_and_warm(monkeypatch):
    """Every reader of a cached table refuses a small budget whether or not
    the cache is filled. pi_n_table and all_oriented_cycles (so also
    trivial_heap_sum) run an up-front guard (4^6 naive walks) before their
    caches. pi_total_table and bubble_chain_pinch_part have no cache of
    their own, and two_point_table runs _transfer on every call, which
    charges the states behind its rows (cached for a constant activity) or
    the SAWs it counts against the budget: 3699 states or 3202 canonical
    SAWs on Z^2 at nmax 10, 2500 states or 1377 SAWs on the 4x4 box at
    nmax 12."""
    ctx, box, two = GraphCtx.lattice(2), hp.box_graph(4, 4), LoopActivity.constant(2)
    half, zero = LoopActivity.constant(Fraction(1, 2)), LoopActivity.constant(0)
    for call in (lambda: ex.pi_n_table(1, two, 6, ctx),
                 lambda: ex.pi_total_table(two, 6, ctx),
                 lambda: en.two_point_table(half, 10, ctx),
                 lambda: en.two_point_table(_table_activity(2), 10, ctx),
                 lambda: en.two_point_table(zero, 10, ctx),
                 lambda: en.two_point_table(two, 12, box),
                 lambda: en.two_point_table(zero, 12, box),
                 lambda: en.two_point_table(_box_table(box), 12, box),
                 lambda: en.bubble_chain_pinch_part((0, 0), (1, 0), half, 6, ctx),
                 lambda: hp.all_oriented_cycles(hp.box_graph(3, 3), 7),
                 lambda: hp.trivial_heap_sum(frozenset(), hp.box_graph(3, 3), half, 7)):
        lww.clear_caches()
        for warm in (False, True):
            monkeypatch.setenv("LWW_BUDGET", "1000")
            with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
                call()
            monkeypatch.setenv("LWW_BUDGET", str(4**6))
            call()  # fills the caches on the cold pass
    lww.clear_caches()


def test_every_cache_is_named():
    """The package keeps exactly these lru_caches, each on engine output
    behind one guard at its reader, or needing none (_step_code,
    _lace_terms). A result cache whose hit skips the budget would show here
    first; a new cache comes with a decision and a cold/warm test."""
    import importlib
    import pkgutil

    found = set()
    for info in pkgutil.iter_modules(lww.__path__):
        for obj in vars(importlib.import_module(f"lww.{info.name}")).values():
            if hasattr(obj, "cache_info"):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    assert found == {
        "lww.core._step_code",
        "lww.enumeration._packed_rows",
        "lww.enumeration._catalog",
        "lww.enumeration._entry_weights",
        "lww.enumeration._mu_pair",
        "lww.expansion._pi_n_table",
        "lww.heaps._oriented_cycles",
        "lww.laces._lace_terms",
        "lww.sampling._importance_samples",
    }


def test_pair_measure_guard_runs_cold_and_warm(monkeypatch):
    """interaction_two_point and i_omega on Z^2 run the catalog guard (4^6
    naive walks) before they read _mu_pair, so a small budget raises whether
    or not the pair measure is cached; equal points read no loop measure, so
    I is 1 at any nmax under the same budget."""
    ctx, two = GraphCtx.lattice(2), LoopActivity.constant(2)
    walk = ((0, 0), (0, 1), (1, 1), (1, 0))
    for call in (lambda: en.interaction_two_point((0, 0), (1, 0), two, 6, ctx),
                 lambda: en.i_omega(walk, 0, 3, two, 6, ctx)):
        lww.clear_caches()
        for warm in (False, True):
            monkeypatch.setenv("LWW_BUDGET", "1000")
            with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
                call()
            monkeypatch.setenv("LWW_BUDGET", str(4**6))
            assert not call().is_zero()  # fills the caches on the cold pass
    monkeypatch.setenv("LWW_BUDGET", "1000")
    assert en.interaction_two_point((1, 0), (1, 0), two, 40, ctx) == ZSeries.one(40)
    assert en.i_omega(walk + ((0, 0),), 0, 4, two, 40, ctx) == ZSeries.one(40)
    lww.clear_caches()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_range_key_names_the_orbit(d, data):
    """_range_key(P) == _range_key(Q) exactly when Q is a translate of an
    image of P under the point group, brute forced over the whole group."""
    point = st.tuples(*[st.integers(-2, 2)] * d)

    def canon(pts):
        return min(tuple(sorted(tuple(c - m for c, m in zip(p, map(min, zip(*img)))) for p in img))
                   for img in _group_images(pts, d))

    P = data.draw(st.frozensets(point, min_size=1, max_size=6), label="P")
    Q = data.draw(st.frozensets(point, min_size=1, max_size=6), label="Q")
    assert (en._range_key(P) == en._range_key(Q)) == (canon(P) == canon(Q))
    shift = data.draw(point, label="shift")
    image = data.draw(st.sampled_from(_group_images(P, d)), label="image")
    assert en._range_key([tuple(map(sum, zip(p, shift))) for p in image]) == en._range_key(P)


def test_clear_caches_drops_the_catalog_and_its_images():
    """Images are built on the first query that needs them, kept by the
    catalog, and dropped with it by lww.clear_caches()."""
    ctx, half = GraphCtx.lattice(2), LoopActivity.constant(Fraction(1, 2))
    lww.clear_caches()
    cat = en.closed_walk_catalog(ctx, 6)
    en.alpha0(half, 6, ctx)
    assert not cat._images  # the closed forms read the canonical ranges alone
    en.loop_measure({(0, 0), (2, 0)}, (), half, 6, ctx)
    assert {rng for rng, _ in cat._images} == {rng for rng, _, _ in cat.ranges}
    lww.clear_caches()
    fresh = en.closed_walk_catalog(ctx, 6)
    assert fresh is not cat and not fresh._images
    lww.clear_caches()
