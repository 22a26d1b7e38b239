from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from lww.core import GraphCtx, LoopActivity, PreconditionError, loop_erase
from lww.series import ZSeries, exp_series
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
