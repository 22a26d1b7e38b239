import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import lww
from lww.core import GraphCtx, LoopActivity, l1, sap_key, walk_weight
from lww.series import SpatialSeries, ZSeries, exp_series, reciprocal, spatial_convolve
from lww import enumeration as en
from lww import expansion as ex
from lww.laces import (
    compatible_edges,
    lace_positions_for_vector,
    valid_vectors,
)

CTX1 = GraphCtx.lattice(1)
CTX2 = GraphCtx.lattice(2)
HALF = LoopActivity.constant(Fraction(1, 2))
ZERO = LoopActivity.constant(0)
NM = 6


def _table_activity(d):
    """One polygon at weight 3, every other loop shape at 1/2."""
    if d == 1:
        poly = ((0,), (1,), (0,))
    else:
        e0, e1 = [tuple(int(j == i) for j in range(d)) for i in (0, 1)]
        o = (0,) * d
        poly = (o, e0, tuple(a + b for a, b in zip(e0, e1)), e1, o)
    return LoopActivity.of_table({sap_key(poly): Fraction(3)}, Fraction(1, 2))


def _random_walk(rng, ctx, n):
    w = [ctx.origin()]
    for _ in range(n):
        w.append(rng.choice(ctx.neighbors(w[-1])))
    return tuple(w)


def test_product_identity():
    rng = random.Random(1)
    universe = ex.loop_universe({(0, 0), (1, 0)}, HALF, 4, CTX2)
    assert universe
    for _ in range(6):
        w = _random_walk(rng, CTX2, 4)
        for X, ax in universe[:8]:
            assert ex.product_identity_check(w, X, ax, 4)


def test_remainder_identity():
    rng = random.Random(2)
    universe = ex.loop_universe({(0, 0)}, HALF, 4, CTX2)
    for _ in range(5):
        w = _random_walk(rng, CTX2, 4)
        for k in (0, 2, len(w) - 1):
            for X, ax in universe[:6]:
                assert ex.remainder_identity_check(w, k, X, ax, 4)


def test_alpha_x_nonneg():
    universe = ex.loop_universe({(0, 0)}, HALF, 6, CTX2)
    for _, ax in universe:
        assert ax.nonneg()


def test_hyperedge_weight_cases():
    universe = ex.loop_universe({(0, 0)}, HALF, 4, CTX2)
    X, ax = universe[0]
    w = ((0, 0), (1, 0), (0, 0), (0, 1))
    # a J containing a position off the loop kills the weight
    off = [j for j, v in enumerate(w) if v not in set(X)]
    if off:
        assert ex.hyperedge_weight((off[0],), X, ax, w, 4).is_zero()
    on = [j for j, v in enumerate(w) if v in set(X)]
    if on:
        assert ex.hyperedge_weight((on[0],), X, ax, w, 4).coeffs == ax.coeffs
    # timelike
    assert ex.hyperedge_weight((0, 2), None, None, w, 4).coeffs == ZSeries.const(-1, 4).coeffs
    assert ex.hyperedge_weight((0, 1), None, None, w, 4).is_zero()
    with pytest.raises(Exception):
        ex.hyperedge_weight((0, 1, 2), None, None, w, 4)


def test_span_resummation():
    rng = random.Random(3)
    for _ in range(4):
        w = _random_walk(rng, CTX1, 4)
        for s, t in ((0, 2), (1, 3), (0, len(w) - 1)):
            assert ex.span_resummation_check(w, s, t, HALF, 4, CTX1)


def test_exponent_resummation_matches_literal_products():
    """(1+alpha)^{e(X)} against the literal product over singleton hyperedges
    and compatible-span hyperedges."""
    rng = random.Random(4)
    m = 4
    mvec = (1, 2, 1)
    positions = lace_positions_for_vector(mvec)
    cp = compatible_edges(positions, 0, m)
    universe = ex.loop_universe({(0,)}, HALF, 4, CTX1)
    for _ in range(8):
        w = _random_walk(rng, CTX1, m)
        for X, ax in universe[:10]:
            lx = set(X)
            S = [j for j, v in enumerate(w) if v in lx]
            one = ZSeries.one(4)
            prod = one
            for j in S:
                prod = prod * (one + ex.hyperedge_weight((j,), X, ax, w, 4))
            for a, b in combinations(S, 2):
                if (a, b) not in cp:
                    continue
                mids = [j for j in S if a < j < b]
                for r in range(0, len(mids) + 1):
                    for mid in combinations(mids, r):
                        J = (a,) + mid + (b,)
                        prod = prod * (one + ex.hyperedge_weight(J, X, ax, w, 4))
            e = len(S) - sum(
                1 for a, b in zip(S, S[1:]) if (a, b) in cp
            )
            target = one
            base = one + ax
            for _k in range(e):
                target = target * base
            assert prod.coeffs == target.coeffs


def test_pi1_values():
    # d=1, x=0: leading coefficient is 2 (lambda-free; the polygon closes via
    # a timelike hyperedge, not an erased loop)
    p = ex.pi1((0,), HALF, 4, CTX1)
    assert p.coeffs[2] == 2
    p0 = ex.pi1((0,), ZERO, 4, CTX1)
    assert p0.coeffs[2] == 2
    # x != 0 at lambda=0: the interaction factor vanishes
    assert ex.pi1((1,), ZERO, NM, CTX1).is_zero()
    # x = 0 loop-measure form: alpha0^{-1} sum over SAPs of
    # z^k exp(mu(range)) exp(mu(root; range minus root))
    act = HALF
    a0_inv = reciprocal(en.alpha0(act, NM, CTX1))
    acc = ZSeries.zero(NM)
    for sap in (((0,), (1,), (0,)), ((0,), (-1,), (0,))):
        rng_ = frozenset(sap)
        mu_r = en.loop_measure(rng_, frozenset(), act, NM - 2, CTX1)
        mu_root = en.generalized_loop_measure(
            frozenset([(0,)]), frozenset([(0,)]), rng_ - {(0,)}, act, NM - 2, CTX1
        )
        term = exp_series(ZSeries.of(mu_r.coeffs, NM)) * exp_series(
            ZSeries.of(mu_root.coeffs, NM)
        )
        acc = acc + term.shift(2)
    assert (a0_inv * acc).coeffs == ex.pi1((0,), act, NM, CTX1).coeffs


def test_pi1_x_ne_0_matches_loop_measure_form():
    # eq form: alpha0^{-1} sum over SAWs 0->x of z^m exp(mu(range)) *
    # (exp(mu(0, x; interior)) - 1)
    act = HALF
    x = (1,)
    a0_inv = reciprocal(en.alpha0(act, NM, CTX1))
    acc = ZSeries.zero(NM)
    stack = [((0,),)]
    while stack:
        w = stack.pop()
        if w[-1] == x and len(w) >= 3:  # pi_m exists for m >= 2 only
            m = len(w) - 1
            mu_r = en.loop_measure(frozenset(w), frozenset(), act, NM - m, CTX1)
            mu_pair = en.generalized_loop_measure(
                frozenset([w[0]]), frozenset([w[-1]]), frozenset(w[1:-1]), act, NM - m, CTX1
            )
            term = exp_series(ZSeries.of(mu_r.coeffs, NM)) * (
                exp_series(ZSeries.of(mu_pair.coeffs, NM)) - ZSeries.one(NM)
            )
            acc = acc + term.shift(m)
        if len(w) - 1 < NM:
            for nb in CTX1.neighbors(w[-1]):
                if nb not in w:
                    stack.append(w + (nb,))
    assert (a0_inv * acc).coeffs == ex.pi1(x, act, NM, CTX1).coeffs


def test_pi1_cross_identity_replacement():
    # A tempting cross-identity pi1(0) = z lam |Omega| D*Hbar(0)
    # (= alpha0^{-1}(alpha0 - 1)) conflicts with the lace equation: the
    # oracle-certified pi1(0) carries the root-loop dressing and no activity
    # for the closing polygon.
    act = HALF
    a0 = en.alpha0(act, NM, CTX1)
    claimed = reciprocal(a0) * (a0 - ZSeries.one(NM))
    got = ex.pi1((0,), act, NM, CTX1)
    assert got.coeffs[2] != claimed.coeffs[2]  # 2 vs lambda * 2
    # the identity that does hold: alpha0 - 1 = z lam |Omega| (D*H)(0)
    h = en.reduced_table(act, NM, CTX1)
    dh0 = ZSeries.zero(NM)
    for y in CTX1.neighbors((0,)):
        dh0 = dh0 + h.at(tuple(-c for c in y))
    rhs = (dh0 * Fraction(1, 2)).shift(1)
    assert (a0 - ZSeries.one(NM)).coeffs == rhs.coeffs


def test_piN_support_and_degenerate():
    table = ex.pi_n_table(2, HALF, NM, CTX1)
    for x, s in table.data:
        # support bound: pi_m(x) = 0 for |x|_1 > m
        for n, c in enumerate(s.coeffs):
            if c:
                assert abs(x[0]) <= n
    # N too large for nmax: zero series (no valid vector)
    assert ex.piN((0,), 7, HALF, NM, CTX1).is_zero()


def test_pi_total_low_orders_vanish():
    t = ex.pi_total_table(HALF, NM, CTX2)
    for x, s in t.data:
        assert s.coeffs[0] == 0 and s.coeffs[1] == 0


def test_pi_total_equals_oracle_d1():
    for lam in (Fraction(0), Fraction(1, 2), Fraction(2)):
        act = LoopActivity.constant(lam)
        direct = ex.pi_total_table(act, NM, CTX1)
        oracle = ex.pi_oracle(act, NM, CTX1)
        for x in set(direct.support()) | set(oracle.support()):
            assert direct.at(x).coeffs == oracle.at(x).coeffs, (lam, x)


def test_oracle_srw_consistency():
    # lambda = 1: solving the lace equation with the SRW G forces
    # sum_x Pi(x) = 1 - 2dz*alpha - alpha0*(1 - 2dz)
    act = LoopActivity.constant(1)
    oracle = ex.pi_oracle(act, NM, CTX2)
    a0 = en.alpha0(act, NM, CTX2)
    al = en.alpha_renorm(act, NM, CTX2)
    lhs = oracle.sum_over_x()
    rhs = (
        ZSeries.one(NM)
        - (al * 4).shift(1)
        - a0 * (ZSeries.one(NM) - ZSeries.monomial(4, 1, NM))
    )
    assert lhs.coeffs == rhs.coeffs
    assert oracle.sum_over_x().coeffs[0] == 0


def test_lace_recursion_residual_zero():
    assert ex.lace_recursion_residual(HALF, NM, CTX1) == 0
    assert ex.lace_recursion_residual(ZERO, NM, CTX1) == 0


def test_lace_recursion_residual_detects_a_wrong_pi(monkeypatch):
    # adding z^2 at the origin to Pi leaves the residual -z^2 G, whose
    # largest |coefficient| is the largest of G's below order NM - 1: here
    # G_4(+-2) = 2 (the residual's z^6 coefficient at x = +-2)
    right = ex.pi_total_table
    bump = SpatialSeries.build({(0,): ZSeries.monomial(1, 2, NM)}, NM)
    monkeypatch.setattr(ex, "pi_total_table", lambda *args: right(*args) + bump)
    g = en.two_point_table(HALF, NM, CTX1)
    want = max(abs(c) for _, s in g.data for c in s.coeffs[: NM - 1])
    assert want == 2
    assert ex.lace_recursion_residual(HALF, NM, CTX1) == want


def _neighbor_sum_oracle(table, ctx):
    """x -> sum_{y ~ 0} table(x - y), one Fraction series add per point and
    neighbour: the former expansion.neighbor_sum."""
    out: dict = {}
    for y in ctx.neighbors(ctx.origin()):
        for x, s in table.data:
            xx = tuple(a + b for a, b in zip(x, y))
            out[xx] = out[xx] + s if xx in out else s
    return SpatialSeries.build(out, table.nmax)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_step_kernel_matches_neighbor_sum_oracle(d):
    ctx = GraphCtx.lattice(d)
    g = en.two_point_table(HALF, 5, ctx)
    got = spatial_convolve(ex.step_kernel(ZSeries.one(5), ctx), g)
    assert got.data == _neighbor_sum_oracle(g, ctx).data


_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.data())
def test_step_kernel_scaled_matches_oracle(d, n, data):
    def series():
        return ZSeries.of(data.draw(st.lists(_fracs, min_size=n + 1, max_size=n + 1)), n)

    pts = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=5, unique=True))
    table = SpatialSeries.build({p: series() for p in pts}, n)
    c = series()
    ctx = GraphCtx.lattice(d)
    got = spatial_convolve(ex.step_kernel(c, ctx), table)
    assert got.data == _neighbor_sum_oracle(table, ctx).scale(c).data


def test_lace_equation_d8():
    # d = 8 needs loop keys without the 2^8 8! point group
    act, ctx = LoopActivity.constant(2), GraphCtx.lattice(8)
    assert ex.lace_recursion_residual(act, 4, ctx) == 0
    assert ex.pi_total_table(act, 4, ctx).to_json() == ex.pi_oracle(act, 4, ctx).to_json()


@pytest.mark.parametrize("d,lam,nmax", [(2, 2, 10), (3, Fraction(1, 2), 8)])
def test_lace_equation_where_compatible_spans_carry_loops(d, lam, nmax):
    # budgets up to nmax - 2 >= 6: the X-dressing's compatible-span
    # measures reach loops of 4 and more steps
    act, ctx = LoopActivity.constant(lam), GraphCtx.lattice(d)
    assert ex.lace_recursion_residual(act, nmax, ctx) == 0
    assert ex.pi_total_table(act, nmax, ctx).to_json() == ex.pi_oracle(act, nmax, ctx).to_json()


def test_pi_repulsive_bound():
    # |pi^(N)| <= the relaxed sum with constraints dropped: junction pairs
    # carry I factors, legs carry Hbar (>=1 step) or Gbar (interior odd)
    act = HALF
    nm = 6
    for ctx in (CTX1, CTX2):
        a0_inv = reciprocal(en.alpha0(act, nm, ctx))
        g = en.two_point_table(act, nm, ctx)
        origin = ctx.origin()
        hbar = {
            x: s * a0_inv for x, s in g.data if x != origin
        }
        direct = ex.pi_n_table(2, act, nm, ctx)

        def hb(p):
            return hbar.get(p, ZSeries.zero(nm))

        pts = set(hbar) | {origin}
        for x in direct.support():
            bound = ZSeries.zero(nm)
            for x1 in pts:
                for x0p in pts:
                    legs = (
                        hb(x1)
                        * hb(tuple(b - a for a, b in zip(x1, x0p)))
                        * hb(tuple(b - a for a, b in zip(x0p, x)))
                    )
                    if legs.is_zero():
                        continue
                    i1 = en.interaction_two_point(origin, x0p, act, nm, ctx)
                    i2 = en.interaction_two_point(x1, x, act, nm, ctx)
                    bound = bound + legs * i1 * i2
            assert direct.at(x).leq(bound), (ctx.d, x)


# ---------------------------------------------------------------------------
# the order-bound pruning and the point-group quotient of the lace DFS


def _pi_n_unpruned(N, act, nmax, ctx):
    """pi^(N) by the lace sum over every walk of every lace vector (no order
    bound, no point-group quotient); the slow oracle for pi_n_table."""
    origin = ctx.origin()
    table = {}
    for m in range(2, nmax + 1):
        budget = nmax - m
        for mvec in valid_vectors(N, m):
            positions = lace_positions_for_vector(mvec)
            cp = compatible_edges(positions, 0, m)
            walks = [(origin,)]
            for j in range(1, m + 1):
                walks = [
                    w + (v,)
                    for w in walks
                    for v in ctx.neighbors(w[-1])
                    if all(w[s] != v for s, t in cp if t == j)
                ]
            for w in walks:
                factor = ZSeries.one(budget)
                for s, t in positions:
                    factor = factor * ex._i_factor(w[s], w[t], w[s + 1 : t], act, budget, ctx)
                if factor.is_zero():
                    continue
                factor = factor * ex._x_dressing(w, cp, act, budget, ctx)
                row = table.setdefault(w[-1], [Fraction(0)] * (nmax + 1))
                for k, c in enumerate(factor.coeffs):
                    row[m + k] += c
    a0_inv = reciprocal(en.alpha0(act, nmax, ctx))
    return SpatialSeries.build(
        {x: ZSeries(tuple(c)) * a0_inv for x, c in table.items()}, nmax
    )


ORACLE_NMAX = {1: 7, 2: 5, 3: 4, 4: 4}


@pytest.mark.parametrize("d", sorted(ORACLE_NMAX))
@pytest.mark.parametrize("act", [0, Fraction(1, 2), 2, "table"], ids=str)
def test_pi_n_table_matches_unpruned_oracle(d, act):
    ctx, nmax = GraphCtx.lattice(d), ORACLE_NMAX[d]
    act = _table_activity(d) if act == "table" else LoopActivity.constant(act)
    for N in range(1, ex.max_lace_edges(nmax) + 1):
        want = _pi_n_unpruned(N, act, nmax, ctx)
        assert ex.pi_n_table(N, act, nmax, ctx).to_json() == want.to_json(), N


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(0, 5), min_size=1, max_size=5), st.data())
def test_i_factor_order_bound(d, steps, data):
    """I^omega between w_s and w_t vanishes below order 2 |w_t - w_s|_1."""
    ctx = GraphCtx.lattice(d)
    w = [ctx.origin()]
    for i in steps:
        nbrs = ctx.neighbors(w[-1])
        w.append(nbrs[i % len(nbrs)])
    s = data.draw(st.integers(0, len(w) - 2))
    t = data.draw(st.integers(s + 1, len(w) - 1))
    lam = data.draw(st.sampled_from([0, Fraction(1, 2), 1, 3, "table"]))
    act = _table_activity(d) if lam == "table" else LoopActivity.constant(lam)
    bound = 2 * l1(w[s], w[t])
    budget = min(bound + 2, 8 if d < 3 else 6)
    factor = ex._i_factor(w[s], w[t], tuple(w[s + 1 : t]), act, budget, ctx)
    assert all(c == 0 for c in factor.coeffs[:bound]), (w, s, t)


def test_clear_caches_empties_every_cache():
    ex.pi_total_table(HALF, 4, CTX2)
    en.loop_erased_two_point_table(HALF, 4, CTX2)
    caches = []
    for name in ("core", "series", "enumeration", "heaps", "laces", "expansion",
                 "sampling", "analysis", "verify", "cli"):
        module = __import__(f"lww.{name}", fromlist=[name])
        caches += [obj for obj in vars(module).values() if hasattr(obj, "cache_info")]
    assert any(c.cache_info().currsize for c in caches)
    lww.clear_caches()
    assert all(c.cache_info().currsize == 0 for c in caches)


# ---------------------------------------------------------------------------
# the X-dressing and the loop universe against rooted closed walks


@lru_cache(maxsize=None)
def _closed_walks_from_origin(d, nmax):
    ctx = GraphCtx.lattice(d)
    o = ctx.origin()
    return tuple(w for w in en.walks(ctx, o, nmax) if len(w) > 2 and w[-1] == o)


def _exponent_sums(walk, cp, nmax, ctx):
    """X -> sum of e(X + root) over the roots within nmax/2 of the walk, for
    each closed walk X from the origin of at most nmax steps.

    e is read off the hit positions S = {j : walk_j in range(X + root)},
    i.e. walk_j - root in range(X): |S| minus the consecutive pairs of S
    that are compatible spans."""
    roots = {u[-1] for p in set(walk) for u in en.walks(ctx, p, nmax // 2)}
    moved = [[tuple(a - b for a, b in zip(p, root)) for p in walk] for root in roots]
    out = {}
    for X in _closed_walks_from_origin(ctx.d, nmax):
        points, e = set(X), 0
        for rel in moved:
            S = [j for j, p in enumerate(rel) if p in points]
            e += len(S) - sum((a, b) in cp for a, b in zip(S, S[1:]))
        out[X] = e
    return out


@lru_cache(maxsize=None)
def _weight(X, act, ctx):
    return walk_weight(X, act, ctx)


def _x_exponent(sums, act, nmax, ctx):
    """sum_X e(X) w(X)/|X| z^|X| from _exponent_sums at nmax, as a list."""
    acc = [Fraction(0)] * (nmax + 1)
    for X, e in sums.items():
        if e:
            n, lf = _weight(X, act, ctx)
            acc[n] += e * lf / n
    return acc


@pytest.mark.parametrize("d,m_max", [(1, 5), (2, 4), (3, 3)])
def test_x_dressing_matches_rooted_closed_walks(d, m_max):
    """_x_dressing at budgets 0..6 against exp of the exponent summed over
    the rooted closed walks; truncating that sum at b keeps exactly the
    walks of at most b steps, rooted within b/2 of the walk."""
    ctx, budget = GraphCtx.lattice(d), 6
    rng = random.Random(d)
    acts = [LoopActivity.constant(lam) for lam in (0, Fraction(1, 2), 2)] + [_table_activity(d)]
    for m in range(2, m_max + 1):
        for N in range(1, ex.max_lace_edges(m) + 1):
            for mvec in valid_vectors(N, m):
                cp = compatible_edges(lace_positions_for_vector(mvec), 0, m)
                walk = _random_walk(rng, ctx, m)
                sums = _exponent_sums(walk, cp, budget, ctx)
                for act in acts:
                    exponent = _x_exponent(sums, act, budget, ctx)
                    for b in range(budget + 1):
                        want = exp_series(ZSeries(tuple(exponent[: b + 1])))
                        got = ex._x_dressing(walk, cp, act, b, ctx)
                        assert got.coeffs == want.coeffs, (mvec, walk, b)


@pytest.mark.parametrize("d,cutoff", [(1, 6), (2, 5), (3, 4)])
def test_loop_universe_matches_rooted_closed_walks(d, cutoff):
    """Every closed walk of 2..cutoff steps whose range meets the region,
    once, sorted, with alpha_X = exp(w(X)/|X|) - 1."""
    ctx = GraphCtx.lattice(d)
    o = ctx.origin()
    e = ctx.neighbors(o)[-1]
    far = tuple(3 * c for c in ctx.neighbors(o)[0])
    for region in (frozenset([o]), frozenset([o, e]), frozenset([e, far])):
        roots = {u[-1] for a in region for u in en.walks(ctx, a, cutoff // 2)}
        want = sorted(
            X for root in roots for X in en.walks(ctx, root, cutoff)
            if len(X) > 2 and X[-1] == root and not region.isdisjoint(X)
        )
        for act in (HALF, _table_activity(d)):
            got = ex.loop_universe(region, act, cutoff, ctx)
            assert [X for X, _ in got] == want, region
            for X, ax in got:
                n, lf = walk_weight(X, act, ctx)
                one = ZSeries.one(cutoff)
                assert ax == exp_series(ZSeries.monomial(lf / n, n, cutoff)) - one, X
