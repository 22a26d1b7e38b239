import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from lww.core import GraphCtx, LoopActivity, PreconditionError, loop_erase, sap_key, walk_weight
from lww.series import SeriesSum, ZSeries, exp_series
from lww import heaps as hp
from lww import enumeration as en

CTX2 = GraphCtx.lattice(2)
HALF = LoopActivity.constant(Fraction(1, 2))


def w1(*xs):
    return tuple((x,) for x in xs)


def oc(*vertices):
    return hp.OrientedCycle.from_closed_walk(tuple(vertices) + (vertices[0],))


def test_oriented_cycle_canonical():
    a = oc((0, 0), (1, 0), (1, 1), (0, 1))
    b = oc((1, 0), (1, 1), (0, 1), (0, 0))
    assert a == b
    rev = a.reversed_cycle()
    assert rev != a
    assert rev.vertices() == a.vertices()
    # trivial cycles have a single orientation
    t1 = oc((0,), (1,))
    t2 = oc((1,), (0,))
    assert t1 == t2


def test_heap_compose_and_commutation():
    c1 = oc((0,), (1,))
    c2 = oc((3,), (4,))
    h_a = hp.CycleHeap.empty().compose(c1).compose(c2)
    h_b = hp.CycleHeap.empty().compose(c2).compose(c1)
    assert h_a == h_b  # disjoint pieces commute
    c3 = oc((1,), (2,))
    h_c = hp.CycleHeap.empty().compose(c1).compose(c3)
    h_d = hp.CycleHeap.empty().compose(c3).compose(c1)
    assert h_c != h_d  # overlapping pieces do not
    single = hp.CycleHeap.empty().compose(c1)
    assert [p for _, p in single.maximal_pieces()] == [c1]


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(4))))
def test_heap_canonical_linearization(order):
    pieces = [oc((0,), (1,)), oc((1,), (2,)), oc((5,), (6,)), oc((2,), (3,))]
    base = hp.CycleHeap.of(pieces)
    # any reordering that respects the dependency order gives the same heap
    seq = [pieces[i] for i in order]
    # filter to dependency-respecting orders
    pos = {id(p): i for i, p in enumerate(pieces)}

    def respects(s):
        seen = []
        for p in s:
            for q in seen:
                if hp.concurrent(p, q) and pieces.index(q) > pieces.index(p):
                    return False
            seen.append(p)
        return True

    if respects(seq):
        assert hp.CycleHeap.of(seq) == base


def test_loop_insert():
    w = w1(0, 1, 2)
    c = oc((1,), (2,))
    assert hp.loop_insert(w, c) == w1(0, 1, 2, 1, 2)
    with pytest.raises(PreconditionError):
        hp.loop_insert(w1(5, 6), oc((0,), (1,)))


def test_insert_then_erase_removes_it():
    saw = ((0, 0), (1, 0), (1, 1))
    c = oc((1, 0), (2, 0))
    w = hp.loop_insert(saw, c)
    from lww.core import single_loop_erase

    back, removed = single_loop_erase(w)
    assert back == saw
    assert hp.OrientedCycle.from_closed_walk(removed) == c


def test_walk_order():
    w = w1(0, 1, 2)
    c1 = oc((0,), (1,))
    c2 = oc((1,), (2,))
    assert hp.walk_order_max(w, [c1, c2]) == c2
    assert hp.walk_order_max(w, [c1]) == c1
    with pytest.raises(PreconditionError):
        hp.walk_order_max(w1(0, 1), [oc((5,), (6,))])


def test_loop_addition_examples():
    eta = w1(0, -1)
    heap = hp.CycleHeap.empty().compose(oc((0,), (1,)))
    pair = hp.LegalPair(eta=eta, heap=heap)
    assert hp.loop_addition(pair) == w1(0, 1, 0, -1)
    empty = hp.LegalPair(eta=eta, heap=hp.CycleHeap.empty())
    assert hp.loop_addition(empty) == eta
    bad = hp.LegalPair(eta=w1(5, 6), heap=heap)
    with pytest.raises(PreconditionError):
        hp.loop_addition(bad)
    # one maximal piece meets eta and one misses it: nothing is inserted
    mixed = hp.LegalPair(eta=eta, heap=heap.compose(oc((5,), (6,))))
    assert not mixed.is_legal()
    trace = []
    with pytest.raises(PreconditionError):
        hp.loop_addition(mixed, trace=trace)
    assert trace == []


def test_loop_addition_with_two_maxima():
    """Disjoint maxima: the one hit last along eta goes in first, and the
    scan stops at its first hit."""
    eta = w1(0, 1, 2, 4)
    heap = hp.CycleHeap.of([oc((2,), (3,)), oc((0,), (-1,))])
    assert len(heap.maximal_pieces()) == 2
    trace = []
    assert hp.loop_addition(hp.LegalPair(eta=eta, heap=heap), trace=trace) == w1(0, -1, 0, 1, 2, 3, 2, 4)
    assert trace == [oc((2,), (3,)), oc((0,), (-1,))]


def test_loop_erasure_to_pair_examples():
    saw = w1(0, 1, 2)
    pair = hp.loop_erasure_to_pair(saw)
    assert pair.eta == saw and len(pair.heap) == 0
    pair = hp.loop_erasure_to_pair(w1(0, 1, 0, -1))
    assert pair.eta == w1(0, -1)
    assert [p for _, p in pair.heap.maximal_pieces()] == [oc((0,), (1,))]


def test_last_inserted_is_first_erased():
    # Insert-Remove lemma: the last cycle inserted by loop addition is the
    # first cycle removed by loop erasure
    cases = [
        (((0, 0), (0, 1)), [oc((0, 0), (1, 0)), oc((0, 0), (-1, 0))]),
        (((0, 0), (1, 0), (1, 1)), [oc((1, 0), (2, 0)), oc((2, 0), (3, 0)), oc((0, 0), (0, -1))]),
    ]
    for eta, pieces in cases:
        heap = hp.CycleHeap.of(pieces)
        pair = hp.LegalPair(eta=eta, heap=heap)
        if not pair.is_legal():
            continue
        trace = []
        w = hp.loop_addition(pair, trace=trace)
        _, _, erased = loop_erase(w)
        assert hp.OrientedCycle.from_closed_walk(erased[0]) == trace[-1]
        pair2 = hp.loop_erasure_to_pair(w)
        assert pair2.heap == heap and pair2.eta == eta


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=0, max_size=8))
def test_round_trip_random(steps):
    pos = (0, 0)
    w = [pos]
    for s in steps:
        nb = CTX2.neighbors(pos)[s]
        pos = nb
        w.append(pos)
    w = tuple(w)
    pair = hp.loop_erasure_to_pair(w)
    assert pair.is_legal()
    assert hp.loop_addition(pair) == w


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=0, max_size=14))
def test_erasure_heap_equals_composed_heap(steps):
    # one CycleHeap.of over the erased cycles equals composing them one by one
    w = [(0, 0)]
    for s in steps:
        w.append(CTX2.neighbors(w[-1])[s])
    _, _, erased = loop_erase(tuple(w))
    heap = hp.CycleHeap.empty()
    for loop in erased:
        heap = heap.compose(hp.OrientedCycle.from_closed_walk(loop))
    assert hp.loop_erasure_to_pair(tuple(w)).heap == heap


def test_all_heaps_are_the_distinct_heaps():
    # every ordered sequence of cycles of total size <= 7 on the 3x3 box,
    # deduplicated by its canonical heap
    cycles = hp.all_oriented_cycles(hp.box_graph(3, 3), 7)

    def sequences(budget, seq):
        yield seq
        for c in cycles:
            if len(c) <= budget:
                yield from sequences(budget - len(c), seq + (c,))

    expect = {hp.CycleHeap.of(seq).pieces for seq in sequences(7, ())}
    got = [h.pieces for h in hp.all_heaps(cycles, 7)]
    assert len(got) == len(set(got))
    assert set(got) == expect


def test_trivial_heap_sum_examples():
    edge = GraphCtx.finite(["u", "v"], [("u", "v")])
    s = hp.trivial_heap_sum(frozenset(), edge, HALF, 4)
    assert s.coeffs == ZSeries.of([1, 0, Fraction(-1, 2)], 4).coeffs
    # forbidden everything -> only the empty heap
    s2 = hp.trivial_heap_sum(frozenset(["u", "v"]), edge, HALF, 4)
    assert s2.coeffs == ZSeries.one(4).coeffs


def test_heap_theorem_2x2():
    box = hp.box_graph(2, 2)
    lhs = hp.trivial_heap_sum(frozenset(), box, HALF, 8)
    rhs = exp_series(-hp.closed_walk_loop_sum(frozenset(), box, HALF, 8))
    assert lhs.coeffs == rhs.coeffs


def test_cycle_gas_lambda0_is_saw_generating_function():
    box = hp.box_graph(2, 2)
    zero = LoopActivity.constant(0)
    gas = hp.cycle_gas_two_point((1, 1), box, zero, 6, origin=(0, 0))
    direct = [0] * 7
    for w in en.saws(box, (0, 0), 6):
        if w[-1] == (1, 1):
            direct[len(w) - 1] += 1
    assert gas.coeffs == tuple(direct)


def test_box_graph_json_round_trip(tmp_path):
    import json

    box = hp.box_graph(2, 2)
    verts = box.vertices()
    idx = {v: i for i, v in enumerate(verts)}
    edges = sorted(
        (idx[v], idx[w]) for v, ns in box.adjacency for w in ns if idx[v] < idx[w]
    )
    payload = {"vertices": [list(v) for v in verts], "edges": [list(e) for e in edges]}
    path = tmp_path / "box.json"
    path.write_text(json.dumps(payload))
    data = json.loads(path.read_text())
    verts2 = [tuple(v) for v in data["vertices"]]
    rebuilt = GraphCtx.finite(
        verts2, [(verts2[i], verts2[j]) for i, j in data["edges"]]
    )
    assert rebuilt == box


# ---------------------------------------------------------------------------
# the linear scans and the monomial heap sum against their former bodies


def _maximal_oracle(pieces):
    """_maximal's former body: each piece tested against every later one."""
    return [(i, p) for i, p in enumerate(pieces) if not any(hp.concurrent(p, q) for q in pieces[i + 1:])]


def _canonical_order_oracle(seq):
    """_canonical_order's former body: pairwise tests against earlier pieces."""
    items = list(seq)
    out = []
    while items:
        minimal, rest = [], []
        for pos, p in enumerate(items):
            blocked = any(hp.concurrent(p, items[k]) for k in range(pos))
            (rest if blocked else minimal).append(p)
        minimal.sort(key=lambda c: c.seq)
        out.extend(minimal)
        items = rest
    return tuple(out)


def test_linear_scans_match_pairwise_oracles():
    cycles = hp.all_oriented_cycles(hp.box_graph(3, 3), 8)
    rng = random.Random(18)
    heaps = 0
    for heap in hp.all_heaps(cycles, 8):
        heaps += 1
        shuffled = list(heap.pieces)
        rng.shuffle(shuffled)
        for seq in (heap.pieces, heap.pieces[::-1], tuple(shuffled)):
            assert hp._maximal(seq) == _maximal_oracle(seq)
            assert hp._canonical_order(seq) == _canonical_order_oracle(seq)
        assert heap.maximal_pieces() == _maximal_oracle(heap.pieces)
    assert heaps == 8265


def _heap_sum_oracle(forbidden, ctx, act, nmax, unoriented):
    """_heap_pieces and _heap_sum's former bodies: ZSeries weights, one
    series product per node of the independent-set DFS."""
    seen = set()
    pieces = []
    for c in hp.all_oriented_cycles(ctx, nmax):
        mult = 1
        if unoriented:
            base = min(c.seq, c.reversed_cycle().seq)
            if base in seen:
                continue
            seen.add(base)
            mult = 1 if len(c) == 2 else 2
        if not c.vertices() & forbidden:
            pieces.append((c.vertices(), hp.cycle_weight(c, act, nmax, ctx) * Fraction(-mult)))
    total = SeriesSum(nmax)

    def dfs(start, chosen_verts, weight):
        total.add(weight)
        for i in range(start, len(pieces)):
            verts, w = pieces[i]
            if chosen_verts & verts:
                continue
            w2 = weight * w
            if not w2.is_zero():
                dfs(i + 1, chosen_verts | verts, w2)

    dfs(0, frozenset(), ZSeries.one(nmax))
    return total.value()


def _activities(box):
    square = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    acts = [LoopActivity.constant(lam) for lam in (Fraction(0), Fraction(1, 2), Fraction(2))]
    acts.append(LoopActivity.of_table({sap_key(square, box): Fraction(3)}, Fraction(1, 2)))
    return acts


@pytest.mark.parametrize("dims,nmax", [((2, 2), 8), ((3, 2), 8), ((3, 3), 8)])
def test_heap_sum_matches_series_dfs(dims, nmax):
    box = hp.box_graph(*dims)
    for act in _activities(box):
        for unoriented in (False, True):
            pieces = hp._heap_pieces(box, act, nmax, unoriented)
            for forbidden in (frozenset(), frozenset([(0, 0)]), frozenset([(1, 0), (1, 1)])):
                got = hp._heap_sum(pieces, forbidden, nmax)
                assert got.coeffs == _heap_sum_oracle(forbidden, box, act, nmax, unoriented).coeffs


def test_heap_sum_at_odd_orders_and_with_every_piece_forbidden():
    """The int DFS at odd nmax, where a set's pieces are at most nmax // 2,
    rounded down, on graphs with odd cycles too; with every vertex
    forbidden only the empty set is left and the sum is 1."""
    triangle = GraphCtx.finite("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    k4 = GraphCtx.finite(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    for ctx, nmax in ((hp.box_graph(3, 3), 7), (hp.box_graph(3, 2), 5), (triangle, 7), (k4, 5)):
        for act in _activities(ctx):
            for unoriented in (False, True):
                pieces = hp._heap_pieces(ctx, act, nmax, unoriented)
                for forbidden in (frozenset(), frozenset(ctx.vertices()[:1])):
                    got = hp._heap_sum(pieces, forbidden, nmax)
                    assert got.coeffs == _heap_sum_oracle(forbidden, ctx, act, nmax, unoriented).coeffs
                assert hp._heap_sum(pieces, frozenset(ctx.vertices()), nmax) == ZSeries.one(nmax)


@pytest.mark.parametrize("dims,nmax", [((2, 2), 8), ((3, 2), 8), ((3, 3), 8)])
def test_finite_two_point_table_matches_walk_fold(dims, nmax):
    box = hp.box_graph(*dims)
    for act in _activities(box):
        table = {}
        for w in en.walks(box, (0, 0), nmax):
            m, weight = walk_weight(w, act, box)
            table.setdefault(w[-1], [Fraction(0)] * (nmax + 1))[m] += weight
        got = en.two_point_table(act, nmax, box)
        assert {x: s.coeffs for x, s in got.data} == {x: tuple(c) for x, c in table.items()}


# ---------------------------------------------------------------------------
# loop addition against its former body


def _loop_addition_oracle(pair, trace=None):
    """loop_addition's former body: the maxima by _maximal, the last one hit
    by walk_order_max and its insertion by loop_insert, each scanning the
    walk on its own."""
    w, pieces = pair.eta, list(pair.heap.pieces)
    while pieces:
        maxima = hp._maximal(pieces)
        c = hp.walk_order_max(w, [p for _, p in maxima])
        del pieces[next(i for i, p in maxima if p == c)]
        w = hp.loop_insert(w, c)
        if trace is not None:
            trace.append(c)
    return w


def _both_rebuild(pair):
    got, want = [], []
    w = hp.loop_addition(pair, trace=got)
    assert w == _loop_addition_oracle(pair, trace=want)
    assert got == want
    return w


def test_loop_addition_matches_former_body_on_walks():
    walks = 0
    for w, saw, erased in en._grow(CTX2, ((0, 0),), 6):
        heap = hp.CycleHeap.of(hp.OrientedCycle.from_closed_walk(loop) for loop in erased)
        assert _both_rebuild(hp.LegalPair(eta=saw, heap=heap)) == w
        walks += 1
    assert walks == sum(4**m for m in range(7))


def test_loop_addition_matches_former_body_on_box_pairs():
    box, cap = hp.box_graph(3, 3), 7
    heaps = list(hp.all_heaps(hp.all_oriented_cycles(box, cap), cap))
    legal = illegal = full = 0
    for eta in en.saws(box, (0, 0), cap):
        budget = cap - (len(eta) - 1)
        full += budget < 2
        for heap in heaps:
            if heap.size() > budget:
                continue
            pair = hp.LegalPair(eta=eta, heap=heap)
            if pair.is_legal():
                legal += 1
                _both_rebuild(pair)
                continue
            illegal += 1
            for rebuild in (hp.loop_addition, _loop_addition_oracle):
                trace = []
                with pytest.raises(PreconditionError):
                    rebuild(pair, trace=trace)
                assert trace == []
    # criterion 04 counts 1581 legal pairs; it skips the SAWs with no room
    # for a loop, each legal with the empty heap alone
    assert legal == 1581 + full
    assert illegal > 0


def test_walk_order_max_rejects_tied_first_hits():
    w = w1(0, 1, 2)
    with pytest.raises(PreconditionError, match="tied"):
        hp.walk_order_max(w, [oc((1,), (2,)), oc((1,), (5,))])
    assert hp.walk_order_max(w, [oc((0,), (-1,)), oc((2,), (3,))]) == oc((2,), (3,))


def test_heap_theorem_suite_reuses_the_oriented_gas(monkeypatch):
    """suite_heap_theorem computes each oriented cycle gas once: three
    targets plus the unoriented one per lambda."""
    from lww import verify as vf

    calls = []
    gas = hp.cycle_gas_two_point

    def counting(*args, **kwargs):
        calls.append(args[0])
        return gas(*args, **kwargs)

    monkeypatch.setattr(hp, "cycle_gas_two_point", counting)
    assert all(r.passed for r in vf.suite_heap_theorem(4))
    assert len(calls) == 12


# ---------------------------------------------------------------------------
# the Viennot suite's fast paths


def test_maximal_pieces_is_a_fresh_list_of_the_cached_maxima():
    heap = hp.CycleHeap.of([oc((0,), (1,)), oc((1,), (2,)), oc((5,), (6,))])
    got = heap.maximal_pieces()
    assert got == _maximal_oracle(heap.pieces) == [(1, oc((5,), (6,))), (2, oc((1,), (2,)))]
    got.clear()
    assert heap.maximal_pieces() == _maximal_oracle(heap.pieces)


def test_edge_ids_name_undirected_edges():
    """Over every step of a ball, in any order of first use, (u, v) and
    (v, u) get one code, and the i-th undirected edge used gets base^i with
    base = 2 nmax + 1."""
    from lww import verify as vf

    r = 4
    ball = {p for p in product(range(-r, r + 1), repeat=2) if abs(p[0]) + abs(p[1]) <= r}
    steps = [(u, v) for u in sorted(ball) for v in CTX2.neighbors(u) if v in ball]
    for order in (steps, steps[::-1], random.Random(7).sample(steps, len(steps))):
        codes = vf._EdgeCodes(r)
        got = {step: codes[step] for step in order}
        assert all(codes[v, u] == c for (u, v), c in got.items())
        by_edge = {frozenset(step): c for step, c in got.items()}
        assert sorted(by_edge.values()) == [(2 * r + 1) ** i for i in range(len(steps) // 2)]
        assert len(codes) == len(steps)


def test_edge_code_sums_tell_edge_multisets_apart():
    """A walk of at most nmax steps and its SAW plus erased loops cross
    each edge at most 2 nmax times, and every such multiset of edges sums
    to its own code. Under base nmax, n crossings of one edge would sum to
    one crossing of the next."""
    from lww import verify as vf

    for nmax in (1, 2, 3, 4):
        codes = vf._EdgeCodes(nmax)
        edges = [codes[0, 1], codes[2, 1], codes[2, 3]]
        seen = {}
        for counts in product(range(2 * nmax + 1), repeat=3):
            if sum(counts) <= 2 * nmax:
                total = sum(c * e for c, e in zip(counts, edges))
                assert seen.setdefault(total, counts) == counts
        walk = ((0, 1) * nmax)[: nmax + 1]  # nmax steps, each across {0, 1}
        assert sum(map(codes.__getitem__, zip(walk, walk[1:]))) == nmax * edges[0] != edges[1]


def test_grid_walks_decode_to_the_lattice_walks():
    """_grow on the int-labelled grid yields the walks, SAWs and erased
    loops of _grow on Z^2, in the same order, once labels are decoded."""
    from lww import verify as vf

    for n in range(6):
        ctx, centre = vf._grid(n)
        side = 2 * n + 1

        def decode(walk):
            return tuple((label // side - n, label % side - n) for label in walk)

        got = [(decode(w), decode(saw), [decode(e) for e in erased]) for w, saw, erased in en._grow(ctx, (centre,), n)]
        want = [(w, saw, list(erased)) for w, saw, erased in en._grow(CTX2, ((0, 0),), n)]
        assert len(got) == sum(4**m for m in range(n + 1))
        assert got == want


def test_suite_heaps_catches_a_dropped_loop(monkeypatch):
    """The round trip passes, and fails once _grow, as verify reads it,
    hands one walk an erased list with its last loop dropped."""
    from lww import verify as vf

    assert [r.passed for r in vf.suite_heaps(3, 3)] == [True, True]
    grow = en._grow

    def dropping(*args, **kwargs):
        dropped = False
        for w, saw, erased in grow(*args, **kwargs):
            if erased and not dropped:
                dropped, erased = True, erased[:-1]
            yield w, saw, erased

    monkeypatch.setattr(en, "_grow", dropping)
    trip, box = vf.suite_heaps(3, 3)
    assert trip.name.startswith("Viennot round-trip") and not trip.passed
    assert box.passed  # the box's SAWs erase no loop


def test_suite_heaps_edge_check_catches_a_dropped_loop(monkeypatch):
    """With loop_addition answering every walk itself, the edge multisets
    alone still catch a walk whose erased list lost a loop."""
    from lww import verify as vf

    grow, last = en._grow, []

    def dropping(*args, **kwargs):
        for w, saw, erased in grow(*args, **kwargs):
            last[:] = [w]
            yield w, saw, erased[:-1] if len(w) == 4 and erased else erased

    monkeypatch.setattr(en, "_grow", dropping)
    monkeypatch.setattr(hp, "loop_addition", lambda pair, trace=None: last[0])
    trip = vf.suite_heaps(3, 3)[0]
    assert not trip.passed
