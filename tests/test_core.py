import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lww import core, heaps as hp, verify
from lww.core import (
    GraphCtx,
    LoopActivity,
    PreconditionError,
    _erase,
    classify,
    concat,
    diamond_concat,
    loop_erase,
    loop_erase_last_exit,
    preimage_segments,
    sap_key,
    shrinking_times,
    single_loop_erase,
    walk_weight,
)

CTX1 = GraphCtx.lattice(1)
CTX2 = GraphCtx.lattice(2)


def w1(*xs):
    return tuple((x,) for x in xs)


@st.composite
def lattice_walks(draw, d=2, max_steps=10):
    n = draw(st.integers(min_value=0, max_value=max_steps))
    pos = (0,) * d
    out = [pos]
    for _ in range(n):
        axis = draw(st.integers(min_value=0, max_value=d - 1))
        sgn = draw(st.sampled_from((-1, 1)))
        q = list(pos)
        q[axis] += sgn
        pos = tuple(q)
        out.append(pos)
    return tuple(out)


def test_neighbors_orders():
    assert CTX1.neighbors((0,)) == [(-1,), (1,)]
    assert CTX2.neighbors((0, 0)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    tri = GraphCtx.finite([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    assert tri.neighbors(0) == [1, 2]


def test_concat():
    assert concat(w1(0, 1), w1(1, 2)) == w1(0, 1, 2)
    walk = w1(0, 1)
    assert concat(walk, (walk[-1],)) == walk
    assert concat(((0, 0), (1, 0), (0, 0)), ((0, 0), (0, 1))) == (
        (0, 0),
        (1, 0),
        (0, 0),
        (0, 1),
    )
    with pytest.raises(PreconditionError):
        concat(w1(0, 1), w1(2, 3))


def test_diamond_concat():
    assert diamond_concat(w1(0), w1(1), CTX1) == w1(0, 1)
    assert diamond_concat(w1(0, 1), w1(2, 3), CTX1) == w1(0, 1, 2, 3)
    with pytest.raises(PreconditionError):
        diamond_concat(w1(0), w1(2), CTX1)


def test_classify():
    assert classify(w1(0, 1, 0)) == "SAP"
    assert classify(w1(0, 1, 2)) == "SAW"
    assert classify(w1(0, 1, 0, 1, 0)) == "Loop"
    assert classify(w1(0, 1, 2, 1)) == "General"
    assert classify(w1(0)) == "SAW"


def test_single_loop_erase():
    assert single_loop_erase(w1(0, 1, 0, -1)) == (w1(0, -1), w1(0, 1, 0))
    assert single_loop_erase(w1(0, 1, 2, 1)) == (w1(0, 1), w1(1, 2, 1))
    assert single_loop_erase(w1(0, 1, 2)) == (w1(0, 1, 2), None)


def test_loop_erase_examples():
    saw, rec, erased = loop_erase(w1(0, 1, 0, 1, 0))
    assert saw == w1(0) and rec.count == 2
    saw, rec, _ = loop_erase(w1(0, 1, 0, -1))
    assert saw == w1(0, -1) and rec.count == 1


@settings(max_examples=200, deadline=None)
@given(lattice_walks())
def test_loop_erase_properties(w):
    saw, rec, erased = loop_erase(w)
    assert len(set(saw)) == len(saw)
    assert saw[0] == w[0] and saw[-1] == w[-1]
    assert loop_erase(saw)[0] == saw
    assert loop_erase_last_exit(w) == saw
    assert rec.count == len(erased)
    for loop in erased:
        assert classify(loop) == "SAP"


def test_le_equals_last_exit_exhaustive_d2():
    # all walks of length <= 6, d=2
    stack = [((0, 0),)]
    while stack:
        w = stack.pop()
        assert loop_erase_last_exit(w) == loop_erase(w)[0]
        if len(w) - 1 < 6:
            for nb in CTX2.neighbors(w[-1]):
                stack.append(w + (nb,))


def test_preimage_segments_trivial():
    w = w1(0, 1, 2)
    assert preimage_segments(w, (0, 2)) == [w]
    looped = w1(0, 1, 0, -1)
    assert preimage_segments(looped, (0, 1)) == [looped]


@settings(max_examples=150, deadline=None)
@given(lattice_walks(max_steps=12), st.randoms())
def test_preimage_segments_reassembly(w, rnd):
    saw, _, _ = loop_erase(w)
    k = len(saw) - 1
    if k == 0:
        assert preimage_segments(w, (0,)) == [w]
        return
    interior = sorted(rnd.sample(range(1, k), rnd.randint(0, k - 1))) if k > 1 else []
    cuts = [0] + interior + [k]
    segs = preimage_segments(w, cuts)
    # diamond reassembly
    rebuilt = segs[0]
    for s in segs[1:]:
        rebuilt = diamond_concat(rebuilt, s, CTX2)
    assert rebuilt == w
    # per-segment loop erasure tiles LE(w)
    for i, s in enumerate(segs):
        le = loop_erase(s)[0]
        if i < len(segs) - 1:
            assert le == saw[cuts[i] : cuts[i + 1]]
        else:
            assert le == saw[cuts[i] :]
    # segments sit after the last exits: segment i never revisits the strictly
    # earlier part of the loop erasure
    for i, s in enumerate(segs):
        assert not (set(s) & set(saw[: cuts[i]]))


def test_segment_start_revisit_counterexample():
    # A tempting invariant ("segments after the first never revisit their
    # start") is false for the diamond decomposition: the second segment
    # here revisits its start vertex. Frozen counterexample.
    w = w1(0, 1, 2, 1, 2, 3)
    segs = preimage_segments(w, (0, 1, 3))
    assert segs[1][0] in segs[1][1:]


def test_shrinking_times():
    eta = w1(0, 1, 2)
    # never hits the proper prefix of eta
    omega = w1(2, 3, 4)
    assert shrinking_times(eta, omega) == []
    # a hit on the erased portion is not a shrinking time (Fig. 5 pattern):
    # omega first hits eta at 1, erasing (1, 2); its later visit to 2 is not
    # a shrinking time, while the visit to 0 is.
    eta2 = ((0, 0), (1, 0), (2, 0))
    omega2 = ((2, 0), (2, 1), (1, 1), (1, 0), (2, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    st_times = shrinking_times(eta2, omega2)
    assert st_times == [(3, 1), (8, 0)]
    ts = [t for _, t in st_times]
    assert ts == sorted(ts, reverse=True)
    with pytest.raises(PreconditionError):
        shrinking_times(eta, w1(5, 6))


@settings(max_examples=100, deadline=None)
@given(lattice_walks(max_steps=10))
def test_shrinking_times_decreasing(w):
    saw, _, _ = loop_erase(w)
    out = shrinking_times(saw, tuple(reversed(w)))
    ts = [t for _, t in out]
    assert ts == sorted(ts, reverse=True)
    ss = [s for s, _ in out]
    assert ss == sorted(ss)


def test_sap_key_quotient():
    base = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    key = sap_key(base)
    # rotation of starting vertex
    assert sap_key(((1, 0), (1, 1), (0, 1), (0, 0), (1, 0))) == key
    # orientation reversal
    assert sap_key(tuple(reversed(base))) == key
    # translation + 90 degree rotation
    rot = tuple((-y + 2, x - 1) for x, y in base)
    assert sap_key(rot) == key
    # finite-graph mode: only rotation/reversal
    tri = GraphCtx.finite([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    assert sap_key((0, 1, 2, 0), tri) == sap_key((1, 2, 0, 1), tri) == sap_key((0, 2, 1, 0), tri)


def _sap_key_oracle(sap):
    """The lattice key by brute force: every rotation and orientation of the
    point sequence, translated to the origin, under every signed permutation."""
    cyc = sap[:-1]
    k, d = len(cyc), len(cyc[0])
    rotations = [cyc[i:] + cyc[:i] for i in range(k)]
    rotations += [tuple(reversed(r)) for r in rotations]
    best = None
    for rep in rotations:
        shifted = [tuple(a - b for a, b in zip(v, rep[0])) for v in rep]
        for perm in itertools.permutations(range(d)):
            for signs in itertools.product((1, -1), repeat=d):
                cand = tuple(tuple(signs[i] * v[perm[i]] for i in range(d)) for v in shifted)
                if best is None or cand < best:
                    best = cand
    return best


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(((1, 12), (2, 14), (3, 8), (4, 5))).flatmap(lambda dn: lattice_walks(*dn)))
def test_sap_key_matches_oracle(w):
    # the erased loops of w, and w closed by a straight path back to its
    # start (often chiral, which few short erased loops are)
    closed = list(w)
    for axis in range(len(w[0])):
        while closed[-1][axis]:
            p = list(closed[-1])
            p[axis] -= 1 if p[axis] > 0 else -1
            closed.append(tuple(p))
    loops = _erase(w)[1] + ([tuple(closed)] if len(closed) > 2 else [])
    ctx = GraphCtx.lattice(len(w[0]))
    for loop in loops:
        assert sap_key(loop) == sap_key(loop, ctx) == _sap_key_oracle(loop)


def test_sap_key_examples():
    assert sap_key(w1(3, 2, 3)) == w1(0, -1)
    square = ((5, 5), (5, 6), (4, 6), (4, 5), (5, 5))
    assert sap_key(square) == ((0, 0), (-1, 0), (-1, -1), (0, -1))
    # closed walks that are not self-avoiding get the same key as before
    for closed in (
        ((0, 0), (1, 0), (0, 0), (0, 1), (0, 0)),
        ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 0, 1), (1, 0, 1), (1, 0, 0), (0, 0, 0)),
    ):
        assert sap_key(closed) == _sap_key_oracle(closed)


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 10).flatmap(lambda d: st.tuples(
    lattice_walks(d, 14),
    st.permutations(range(d)),
    st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d),
    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
    st.integers(0, 27),
    st.booleans(),
)))
def test_sap_key_invariant_high_dimension(case):
    """sap_key is unchanged when a polygon is moved by a signed permutation
    and a translation, re-rooted and reversed: an invariance that holds
    however the key is computed, checked where no group walk is affordable."""
    w, perm, signs, shift, root, reverse = case
    d = len(w[0])
    closed = list(w)  # w closed by a straight path back to its start
    for axis in range(d):
        while closed[-1][axis]:
            p = list(closed[-1])
            p[axis] -= 1 if p[axis] > 0 else -1
            closed.append(tuple(p))
    loops = _erase(w)[1] + ([tuple(closed)] if len(closed) > 2 else [])
    for loop in loops:
        cyc = [tuple(signs[i] * v[perm[i]] + shift[i] for i in range(d)) for v in loop[:-1]]
        r = root % len(cyc)
        cyc = cyc[r:] + cyc[:r]
        if reverse:
            cyc.reverse()
        assert sap_key(tuple(cyc + cyc[:1])) == sap_key(loop), loop


def test_cached_views_keep_equality_and_hash():
    edges = [(0, 1), (1, 2), (2, 3)]
    ctx, twin = GraphCtx.finite(range(4), edges), GraphCtx.finite(range(4), edges)
    assert ctx.neighbors(1) == [0, 2] and ctx.distance(0, 3) == 3
    table = {sap_key(((0, 0), (1, 0), (0, 0))): Fraction(3)}
    act, act_twin = LoopActivity.of_table(table, Fraction(1, 2)), LoopActivity.of_table(table, Fraction(1, 2))
    assert act.weight_of_key(next(iter(table))) == 3
    cached = functools.lru_cache(maxsize=None)(lambda x: object())
    for built, fresh in ((ctx, twin), (act, act_twin)):
        assert vars(built).keys() - vars(fresh).keys()  # the cached views
        assert built == fresh and hash(built) == hash(fresh)
        assert cached(built) is cached(fresh)


def _least_rotation(cyc):
    """The finite-graph key by its definition: the least of all rotations of
    both orientations."""
    rotations = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
    rotations += [tuple(reversed(r)) for r in rotations]
    return min(rotations)


def test_sap_key_finite_graph_unchanged():
    tri = GraphCtx.finite([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    assert sap_key((2, 1, 0, 2), tri) == (0, 1, 2)
    box = hp.box_graph(3, 3)
    square = ((1, 1), (2, 1), (2, 2), (1, 2), (1, 1))
    # starting vertex and orientation only: no translation, no isometry
    assert sap_key(square, box) == ((1, 1), (1, 2), (2, 2), (2, 1))
    for c in hp.all_oriented_cycles(box, 8):
        assert sap_key(c.seq + c.seq[:1], box) == _least_rotation(c.seq)
    # closed walks that are not polygons, whose least vertex may repeat
    rng = random.Random(5)
    for _ in range(2000):
        w = [rng.choice(box.vertices())]
        for _ in range(rng.randint(1, 9)):
            w.append(rng.choice(box.neighbors(w[-1])))
        while w[-1] != w[0]:  # close up along the first axis, then the second
            (a, b), (a0, b0) = w[-1], w[0]
            w.append((a + (a0 > a) - (a0 < a), b) if a != a0 else (a, b + (b0 > b) - (b0 < b)))
        if len(w) >= 3:
            assert sap_key(tuple(w), box) == _least_rotation(tuple(w[:-1])), w


def test_sap_key_rejects_non_unit_steps():
    for bad in (
        ((0, 0), (2, 0), (0, 0)),
        ((0, 0), (1, 1), (0, 0)),
        ((0, 0), (0, 0), (0, 0)),
        ((0, 0), (1,), (0, 0)),
    ):
        with pytest.raises(PreconditionError):
            sap_key(bad)
    with pytest.raises(PreconditionError):
        sap_key(w1(0, 1))


def test_loop_erasure_callers_compute_no_keys(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sap_key(*args, **kwargs)

    for mod in (core, hp, verify):
        monkeypatch.setattr(mod, "sap_key", counting)
    hp.loop_erasure_to_pair(((0, 0), (1, 0), (0, 0), (0, 1), (1, 1), (1, 0), (1, 1)))
    assert all(r.passed for r in verify.suite_heaps(3, 3))
    assert not calls
    # suite_core's isometry check keys a fixed list of polygons; none is
    # keyed per enumerated walk, so the count does not grow with nmax
    verify.suite_core(0)
    fixed = len(calls)
    verify.suite_core(3)
    assert len(calls) == 2 * fixed


def test_walk_weight():
    act = LoopActivity.constant(Fraction(1, 2))
    assert walk_weight(w1(0, 1, 2), act) == (2, Fraction(1))
    assert walk_weight(w1(0, 1, 0, -1), act) == (3, Fraction(1, 2))
    one = LoopActivity.constant(1)
    assert walk_weight(w1(0, 1, 0, 1, 0), one) == (4, Fraction(1))


def test_walk_weight_table_mode():
    trivial = sap_key(w1(0, 1, 0))
    act = LoopActivity.of_table({trivial: Fraction(3)}, default=Fraction(5))
    # two trivial loops -> 3 * 3
    assert walk_weight(w1(0, 1, 0, 1, 0), act)[1] == Fraction(9)
    # a square loop in d=2 falls back to the default
    sq = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (0, -1))
    assert walk_weight(sq, act)[1] == Fraction(5)


def test_activities_nonnegative():
    with pytest.raises(PreconditionError):
        LoopActivity.constant(Fraction(-1))
    with pytest.raises(PreconditionError):
        LoopActivity.of_table({}, default=Fraction(-1, 2))


def test_zero_step_walk_is_valid():
    act = LoopActivity.constant(Fraction(7))
    assert walk_weight(((0, 0),), act) == (0, Fraction(1))
    assert classify(((0, 0),)) == "SAW"


def test_invalid_cut_times():
    w = w1(0, 1, 2)
    for cuts in ((1, 2), (0,), (0, 1, 1, 2), (0, 3)):
        with pytest.raises(PreconditionError):
            preimage_segments(w, cuts)


def test_walk_json_round_trip():
    from lww.core import walk_from_json, walk_to_json

    w = ((0, 0), (1, 0), (0, 0))
    assert walk_to_json(w) == [[0, 0], [1, 0], [0, 0]]
    assert walk_from_json(walk_to_json(w)) == w


def test_lattice_neighbors_are_the_sorted_unit_steps():
    rng = random.Random(11)
    for d in range(1, 9):
        ctx = GraphCtx.lattice(d)
        for _ in range(20):
            p = tuple(rng.randint(-4, 4) for _ in range(d))
            units = [tuple(c + s * (i == j) for j, c in enumerate(p)) for i in range(d) for s in (-1, 1)]
            assert ctx.neighbors(p) == sorted(units)
