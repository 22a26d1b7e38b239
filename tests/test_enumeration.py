import os
from collections import Counter
from fractions import Fraction

import pytest

from lww.core import GraphCtx, LoopActivity, PreconditionError, sap_key, walk_weight
from lww.heaps import box_graph
from lww.series import ZSeries, exp_series
from lww import enumeration as en

CTX1 = GraphCtx.lattice(1)
CTX2 = GraphCtx.lattice(2)
HALF = LoopActivity.constant(Fraction(1, 2))
ONE = LoopActivity.constant(1)
ZERO = LoopActivity.constant(0)


def test_walk_sum_closed_srw():
    s = en.walk_sum((0,), (0,), ONE, 4, CTX1)
    assert s.coeffs == ZSeries.of([1, 0, 2, 0, 6], 4).coeffs


def test_walk_sum_saw_counts():
    counts = Counter(len(w) - 1 for w in en.saws(CTX2, (0, 0), 4))
    assert [counts[m] for m in range(5)] == [1, 4, 12, 36, 100]
    # lambda = 0 equals the SAW count
    s0 = en.walk_sum((0, 0), None, ZERO, 4, CTX2)
    assert s0.coeffs == ZSeries.of([1, 4, 12, 36, 100], 4).coeffs


def test_walk_sum_constraints():
    # avoid holding the start forbids every return to it: (0,1,2,1) and
    # (0,1,2,3) are the 3-step walks on the + side
    s = en.walk_sum((0,), None, ONE, 3, CTX1, frozenset([(0,)]))
    assert s.coeffs == ZSeries.of([1, 2, 2, 4], 3).coeffs
    assert en.walk_sum((0,), (0,), ONE, 3, CTX1, frozenset([(0,)])).coeffs == ZSeries.one(3).coeffs
    # hitting a vertex as range-intersection
    hit = Counter(len(w) - 1 for w in en.walks(CTX1, (0,), 3) if (2,) in w)
    # walks hitting 2 within 3 steps: lengths 2 and 3
    assert hit[0] == 0 and hit[1] == 0
    assert hit[2] == 1  # (0,1,2)
    assert hit[3] == 2  # (0,1,2,1), (0,1,2,3)


def test_loop_count_table():
    t = en.loop_count_table(3, 1)
    assert t.count(2, 0) == 2 and t.count(2, 1) == 2
    assert t.count(3, 0) == 2 and t.count(3, 1) == 6
    lam = Fraction(1, 3)
    assert t.c_n(2, lam) == 2 + 2 * lam
    assert t.c_n(3, lam) == 2 + 6 * lam
    for n in range(4):
        assert t.c_n(n, 1) == 2**n
    # k never exceeds n/2
    assert all(k <= n // 2 for (n, k) in t.rows())


def test_loop_count_table_endpoint_resolved():
    t = en.loop_count_table(2, 1, endpoint_resolved=True)
    assert t.count(2, 1, (0,)) == 2
    assert t.count(2, 0, (2,)) == 1


def test_two_point_basics():
    g0 = en.two_point((0,), HALF, 4, CTX1)
    assert g0.coeffs[0] == 1
    g1 = en.two_point((1,), ZERO, 4, CTX1)
    assert g1.coeffs == ZSeries.monomial(1, 1, 4).coeffs
    h0 = en.two_point((0,), HALF, 4, CTX1, reduced=True)
    assert h0.is_zero()
    # endpoint-summed lambda=1 counts
    assert en.chi_series(ONE, 4, CTX2).coeffs == ZSeries.of([1, 4, 16, 64, 256], 4).coeffs


def test_loop_measure_examples():
    mu = en.loop_measure(frozenset([(0,)]), frozenset(), HALF, 2, CTX1)
    assert mu.coeffs[2] == 2 * Fraction(1, 2)
    mu2 = en.loop_measure(frozenset([(0, 0)]), frozenset(), HALF, 2, CTX2)
    assert mu2.coeffs[2] == 4 * Fraction(1, 2)
    # A inside B -> zero
    mu3 = en.loop_measure(frozenset([(0,)]), frozenset([(0,)]), HALF, 4, CTX1)
    assert mu3.is_zero()


def test_loop_measure_finite_graph_agrees():
    from lww.heaps import box_graph

    box = box_graph(3, 3)
    # embed the box in Z^2 and restrict by forbidding everything else nearby
    A = frozenset([(1, 1)])
    mu_fin = en.loop_measure(A, frozenset(), HALF, 4, box)
    # direct check: per-length sum over closed walks in the box through (1,1)
    coeffs = [Fraction(0)] * 5
    for v in box.vertices():
        for w in en.walks(box, v, 4):
            if len(w) > 1 and w[-1] == v and not A.isdisjoint(w):
                n, lf = walk_weight(w, HALF, box)
                coeffs[n] += lf
    raw = ZSeries(tuple(coeffs))
    expect = ZSeries(tuple(c / n if n else Fraction(0) for n, c in enumerate(raw.coeffs)))
    assert mu_fin.coeffs == expect.coeffs


def test_generalized_loop_measure():
    # A=B reduces to the plain loop measure
    a = frozenset([(0, 0)])
    g1 = en.generalized_loop_measure(a, a, frozenset(), HALF, 4, CTX2)
    g2 = en.loop_measure(a, frozenset(), HALF, 4, CTX2)
    assert g1.coeffs == g2.coeffs
    # far-apart B -> zero at low order
    far = frozenset([(9, 9)])
    assert en.generalized_loop_measure(a, far, frozenset(), HALF, 4, CTX2).is_zero()
    # hand count: closed 2-walks hitting both 0 and 1 in d=1
    g = en.generalized_loop_measure(
        frozenset([(0,)]), frozenset([(1,)]), frozenset(), HALF, 2, CTX1
    )
    assert g.coeffs[2] == Fraction(1, 2)  # lambda at lambda=1/2
    # decreasing in C coefficientwise
    gc = en.generalized_loop_measure(
        frozenset([(0,)]), frozenset([(1,)]), frozenset([(2,)]), HALF, 6, CTX1
    )
    g6 = en.generalized_loop_measure(
        frozenset([(0,)]), frozenset([(1,)]), frozenset(), HALF, 6, CTX1
    )
    assert gc.leq(g6)


def test_alpha_examples():
    assert en.alpha0(ZERO, 6, CTX1).coeffs == ZSeries.one(6).coeffs
    assert en.alpha_renorm(ZERO, 6, CTX1).coeffs == ZSeries.one(6).coeffs
    a0 = en.alpha0(ONE, 2, CTX1)
    assert a0.coeffs[2] == 2
    a0d2 = en.alpha0(HALF, 6, CTX2)
    al = en.alpha_renorm(HALF, 6, CTX2)
    assert al.leq(a0d2) and ZSeries.one(6).leq(al)


def _square_table(d):
    """A sap_key table: the unit square at 3, every other loop at 1/2."""
    if d == 1:
        return LoopActivity.of_table({sap_key(((0,), (1,), (0,))): 3}, Fraction(1, 2))
    o, e0, e1 = (0,) * d, *[tuple(int(j == i) for j in range(d)) for i in (0, 1)]
    square = (o, e0, tuple(map(sum, zip(e0, e1))), e1, o)
    return LoopActivity.of_table({sap_key(square): 3}, Fraction(1, 2))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_alpha0_and_alpha_match_loop_measure(d):
    """alpha0 = exp(mu({0})) and alpha = exp(mu({0}; {y})) against the loop
    measures summed directly, at every nmax up to 7; a repeated alpha0 call
    is one _mu_pair hit and no miss."""
    ctx = GraphCtx.lattice(d)
    o = ctx.origin()
    y = ctx.neighbors(o)[0]
    acts = [ZERO, HALF, LoopActivity.constant(2), _square_table(d)]
    for act in acts:
        for nmax in range(8):
            mu0 = en.loop_measure(frozenset([o]), frozenset(), act, nmax, ctx)
            mu0y = en.loop_measure(frozenset([o]), frozenset([y]), act, nmax, ctx)
            assert en.alpha0(act, nmax, ctx).coeffs == exp_series(mu0).coeffs, (act, nmax)
            assert en.alpha_renorm(act, nmax, ctx).coeffs == exp_series(mu0y).coeffs, (act, nmax)
            before = en._mu_pair.cache_info()
            en.alpha0(act, nmax, ctx)
            after = en._mu_pair.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_interaction_two_point():
    assert en.interaction_two_point((0, 0), (0, 0), HALF, 4, CTX2).coeffs == ZSeries.one(4).coeffs
    assert en.interaction_two_point((0,), (1,), ZERO, 4, CTX1).is_zero()
    i = en.interaction_two_point((0,), (1,), HALF, 2, CTX1)
    assert i.coeffs[2] == Fraction(1, 2)  # leading lambda z^2


def test_i_omega():
    w = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    assert en.i_omega(w, 0, 4, HALF, 4, CTX2).coeffs == ZSeries.one(4).coeffs
    # empty interior equals I exactly
    iw = en.i_omega(w, 0, 1, HALF, 6, CTX2)
    ii = en.interaction_two_point(w[0], w[1], HALF, 6, CTX2)
    assert iw.coeffs == ii.coeffs
    with pytest.raises(Exception):
        en.i_omega(w, 3, 3, HALF, 4, CTX2)


def test_visit_sum_examples():
    # closed walks need loops: lambda=0 kills the sum
    assert en.visit_weighted_closed_sum((0,), (1,), ZERO, 6, CTX1).is_zero()
    lhs = en.visit_weighted_closed_sum((0,), (1,), HALF, 2, CTX1)
    assert lhs.coeffs[2] == Fraction(1, 2)  # walk (0,1,0) visits y once
    # walk-Leibniz: visit sums over all targets recover |w| chi-weighted
    total = ZSeries.zero(4)
    for y in [(-2,), (-1,), (0,), (1,), (2,)]:
        total = total + en.visit_weighted_closed_sum((0,), y, HALF, 4, CTX1)
    raw = en.walk_sum((0,), (0,), HALF, 4, CTX1)  # the 0-step walk has n = 0
    expect = ZSeries(tuple(Fraction(n) * c for n, c in enumerate(raw.coeffs)))
    assert total.coeffs == expect.coeffs


def test_bubble_chain_zero_and_diag():
    assert en.true_bubble_chain((0,), (1,), ZERO, 6, CTX1).is_zero()
    assert en.upper_bubble_chain((0, 0), (1, 0), ZERO, 6, CTX2).is_zero()
    a0 = en.alpha0(HALF, 6, CTX2)
    t = en.true_bubble_chain((0, 0), (0, 0), HALF, 6, CTX2)
    u = en.upper_bubble_chain((0, 0), (0, 0), HALF, 6, CTX2)
    expect = a0 * (a0 - ZSeries.one(6))
    assert t.coeffs == expect.coeffs and u.coeffs == expect.coeffs


@pytest.mark.parametrize("y", [(0, 0), (1, 0)])
def test_upper_bubble_chain_is_lattice_only(y):
    with pytest.raises(PreconditionError, match="upper bubble chain is lattice-only"):
        en.upper_bubble_chain((0, 0), y, HALF, 4, box_graph(2, 2))


def test_diagrams():
    d = en.diagrams(HALF, 6, CTX2)
    assert d["triangle"].nonneg() and d["square"].nonneg()
    # lambda=0, d=1: no odd-order triangle (three one-step SAW legs cannot close)
    d1 = en.diagrams(ZERO, 6, CTX1)
    assert d1["triangle"].coeffs[3] == 0
    # lambda=1, d=2: cross-check against direct triple enumeration over x, y
    h = en.reduced_table(ONE, 4, CTX2)
    acc = ZSeries.zero(4)
    for x, sx in h.data:
        for y, _ in h.data:
            acc = acc + sx * h.at(tuple(b - a for a, b in zip(x, y))) * h.at(
                tuple(-c for c in y)
            )
    d4 = en.diagrams(ONE, 4, CTX2)
    assert d4["triangle"].coeffs == acc.coeffs


def test_support_bound():
    # [z^n] G(x) vanishes for |x|_1 > n
    g = en.two_point_table(HALF, 5, CTX2)
    for x, s in g.data:
        dist = abs(x[0]) + abs(x[1])
        for n, c in enumerate(s.coeffs):
            if c:
                assert dist <= n


def test_neighbors_domain_error():
    from lww.core import DomainError

    tri = GraphCtx.finite([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(DomainError):
        tri.neighbors(9)


def test_chi_fast_path_vs_enumeration():
    # the lambda=1 integer DP must agree with the generic weighted engine
    for d in (1, 2):
        ctx = GraphCtx.lattice(d)
        dp = en.chi_series(ONE, 5, ctx)
        direct = en.two_point_table(ONE, 5, ctx).sum_over_x()
        assert dp.coeffs == direct.coeffs


def test_budget_guard():
    os.environ["LWW_BUDGET"] = "1000"
    try:
        with pytest.raises(en.ResourceError):
            en.walk_sum((0, 0), None, ONE, 10, CTX2)
    finally:
        del os.environ["LWW_BUDGET"]


def test_table_mode_two_point():
    # table activities: trivial loops cheap, everything else capped
    from lww.core import sap_key

    trivial = sap_key(((0, 0), (1, 0), (0, 0)))
    act = LoopActivity.of_table({trivial: Fraction(1, 3)}, default=Fraction(2))
    g = en.two_point_table(act, 4, CTX2)
    # c_2(0,0) = 4 trivial loops at 1/3 each
    assert g.at((0, 0)).coeffs[2] == 4 * Fraction(1, 3)
    # order 4 closed walks include squares at the default activity
    assert g.at((0, 0)).coeffs[4] == 28 * Fraction(1, 9) + 8 * Fraction(2)
