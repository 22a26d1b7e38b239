"""Lace-expansion coefficients pi^(N) and the solved-Pi oracle.

pi^(N) is computed from the lace sum directly: for the lace of each valid
length vector, compatible timelike edges force hard constraints
omega_s != omega_t, lace edges contribute walk interaction factors I^omega,
and the product of spacelike hyperedge weights over a closed walk X
collapses exactly to (1 + alpha_X)^{e(X)} with

    e(X) = |S| - #{consecutive elements of S whose span is compatible},
    S = {j : omega_j in range(X)}.

This resummation (derived from the span pushforward and checked against
literal hyperedge products in the tests) sidesteps the prose description of
the subwalk weights entirely; the oracle identity certifies it end to end.
Summed over X position by position, the exponent is

    sum_X e(X) w(X)/|X| = (m+1) mu({0}) - sum_{(a, b) compatible} mu(omega_a, omega_b; {omega_j : a < j < b}):

each position j contributes mu({omega_j}) = mu({0}) by translation
invariance, and a compatible (a, b) is consecutive in S exactly when X hits
omega_a and omega_b and avoids the points strictly between them. So the
dressing is alpha_0^{m+1} prod_cp (1 - I^omega_ab), the textbook
compatible-edge product, and every loop measure the lace sum reads comes
from the pair-measure cache enumeration._mu_pair, through _pair_mu.

The lace DFS is pruned by an exact order bound. Every loop in
mu(omega_s, omega_t; interior) passes through both endpoints, so a lace
edge's I^omega starts at order z^{2 |omega_t - omega_s|_1} or later, and the
I-product of a walk starts no earlier than the sum of these orders. After
omega_j is placed, an edge (s, t) with t <= j contributes 2 |omega_t -
omega_s|_1 and an edge with s < j < t at least 2 (|omega_j - omega_s|_1 -
(t - j)), since t - j steps remain to reach omega_t. A prefix whose bound exceeds the
truncation budget nmax - m has only leaves whose truncated I-product is zero,
so it is skipped. The bound concerns which loop lengths exist, not their
weights: it holds for every activity, and the sum is unchanged.

The DFS runs on canonical walks, one per orbit of the point group
(enumeration._canonical_steps), each counted for the walks of its orbit.
Every factor of a walk's term is point-group invariant: the loop
measures, the X-dressing and the constraints omega_s != omega_t. So is
the l1 distance of the order bound, so a canonical prefix is pruned
exactly when its images are. The rows are summed by endpoint orbit and
spread over the endpoints at the end (enumeration._spread).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add

from .core import GraphCtx, LoopActivity, PreconditionError, l1, walk_weight
from .series import (
    SeriesSum,
    SpatialSeries,
    ZSeries,
    exp_series,
    reciprocal,
    spatial_convolve,
    spatial_inverse,
)
from .enumeration import (
    alpha0,
    alpha_renorm,
    two_point_table,
    walks,
    _canonical_units,
    _guard,
    _i_factor,
    _orbit_key,
    _pair_mu,
    _shifts,
    _spread,
)
from .laces import (
    _compatible_edges,
    lace_positions_for_vector,
    valid_vectors,
)


def _x_dressing(walk, cp_set, act, budget, ctx) -> ZSeries:
    """exp( sum_X e(X) w(X)/|X| ) truncated at `budget`, on Z^d.

    X runs over rooted closed walks touching the walk's range; e(X) counts
    hit positions minus compatible consecutive spans. The exponent is read
    position by position off pair measures (see the module docstring).
    """
    if budget < 2:
        return ZSeries.one(max(budget, 0))
    exponent = _pair_mu(walk[0], walk[0], (), act, budget, ctx) * len(walk)
    for a, b in cp_set:
        exponent = exponent - _pair_mu(walk[a], walk[b], walk[a + 1 : b], act, budget, ctx)
    return exp_series(exponent)


def pi_n_table(N: int, act: LoopActivity, nmax: int, ctx: GraphCtx) -> SpatialSeries:
    """pi^(N)(x) = sum_m pi_m^(N)(x) as a SpatialSeries (positive objects;
    signs enter in pi_total); _guard runs on every call, cached or not."""
    if not ctx.is_lattice:
        raise PreconditionError("expansion runs on the lattice")
    _guard(ctx, nmax)
    return _pi_n_table(N, act, nmax, ctx)


@lru_cache(maxsize=None)
def _pi_n_table(N: int, act: LoopActivity, nmax: int, ctx: GraphCtx) -> SpatialSeries:
    steps = _canonical_units(ctx)
    table: dict = {}  # endpoint orbit -> SeriesSum over its walks
    a0_inv = reciprocal(alpha0(act, nmax, ctx))

    for m in range(2, nmax + 1):
        for mvec in valid_vectors(N, m):
            positions = lace_positions_for_vector(mvec)
            # compatibility does not depend on labels (the spacelike
            # tie-break fires only when both labels sit on a lace edge), so
            # one unlabelled set serves both the timelike constraints and
            # the spacelike hyperedge count; the lace is built by rule, so
            # the closed form needs no lace_of re-derivation
            cp = _compatible_edges(positions, 0, m)
            _accumulate_lace_term(table, positions, cp, m, act, nmax, ctx, steps)
    totals = {key: acc.value() * a0_inv for key, acc in table.items()}
    return SpatialSeries.build(_spread(totals, lambda s, n: s * Fraction(1, n)), nmax)


def _accumulate_lace_term(table, positions, cp, m, act, nmax, ctx, steps):
    """Add the contribution of one lace (fixed subinterval vector) to table,
    by endpoint orbit.

    The walks are the canonical ones (steps = _canonical_units(ctx)), each
    counted for the size of its orbit. A prefix omega_0..omega_j is
    extended only while the lowest z-order of the I-product stays within
    `budget` (see the module docstring)."""
    budget = nmax - m
    cp_by_t: dict = {}
    for s, t in cp:
        cp_by_t.setdefault(t, []).append(s)
    lace_edges = sorted(positions)
    closing: dict = {}  # t -> [s] of the lace edges (s, t)
    spanning = [[] for _ in range(m + 1)]  # j -> [(s, t - j)] for s < j < t
    for s, t in lace_edges:
        closing.setdefault(t, []).append(s)
        for j in range(s + 1, t):
            spanning[j].append((s, t - j))
    state_walk = [ctx.origin()]

    def complete(size):
        w = tuple(state_walk)
        factor = None  # a lace has at least one edge
        for s, t in lace_edges:
            i_st = _i_factor(w[s], w[t], w[s + 1 : t], act, budget, ctx)
            factor = i_st if factor is None else factor * i_st
            if factor.is_zero():
                return
        factor = factor * _x_dressing(w, cp, act, budget, ctx)
        key = _orbit_key(w[-1])
        acc = table.get(key)
        if acc is None:
            acc = table[key] = SeriesSum(nmax)
        acc.add(factor, m, size)

    def dfs(j, closed, k, size):
        # closed: lowest order of the I-factors of the edges closed before j;
        # k: the axes the canonical prefix uses; size: its orbit's size
        if j == m + 1:
            complete(size)
            return
        cur = state_walk[-1]
        checks = cp_by_t.get(j, ())
        ends = closing.get(j, ())
        opens = spanning[j]
        for u, mult, k2 in steps[k]:
            w = tuple(map(add, cur, u))
            if any(state_walk[s] == w for s in checks):
                continue
            now = closed
            for s in ends:
                now += 2 * l1(state_walk[s], w)
            low = now
            for s, left in opens:
                gap = l1(state_walk[s], w) - left
                if gap > 0:
                    low += 2 * gap
            if low > budget:
                continue
            state_walk.append(w)
            dfs(j + 1, now, k2, size * mult)
            state_walk.pop()

    dfs(1, 0, 0, 1)


def pi1(x, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """pi^(1)(x)."""
    return pi_n_table(1, act, nmax, ctx).at(x)


def piN(x, N: int, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """pi^(N)(x) for N >= 2 (zero series when no valid vector fits)."""
    if N < 1:
        raise PreconditionError("N >= 1")
    return pi_n_table(N, act, nmax, ctx).at(x)


def max_lace_edges(nmax: int) -> int:
    """Largest N with a valid vector of total length <= nmax (at least 1):
    an N-edge lace needs N + 1 steps."""
    return max(1, nmax - 1)


def pi_total_table(act: LoopActivity, nmax: int, ctx: GraphCtx) -> SpatialSeries:
    """Pi(x) = sum_N (-1)^N pi^(N)(x)."""
    total = SpatialSeries.build({}, nmax)
    for N in range(1, max_lace_edges(nmax) + 1):
        tbl = pi_n_table(N, act, nmax, ctx)
        total = total - tbl if N % 2 else total + tbl
    return total


def pi_total(x, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    return pi_total_table(act, nmax, ctx).at(x)


def step_kernel(c: ZSeries, ctx: GraphCtx) -> SpatialSeries:
    """The series c at each of the 2d neighbours of the origin, so that
    spatial_convolve(step_kernel(c, ctx), T) = c |Omega| (D * T)."""
    return SpatialSeries.build({y: c for y in ctx.neighbors(ctx.origin())}, c.nmax)


def pi_oracle(act: LoopActivity, nmax: int, ctx: GraphCtx) -> SpatialSeries:
    """The unique Pi solving the lace equation for the enumerated G:

    Pi(x) = delta_0(x) - z alpha |Omega| D(x) - alpha_0 G^{-1}(x).
    """
    if not ctx.is_lattice:
        raise PreconditionError("expansion runs on the lattice")
    g_inv = spatial_inverse(two_point_table(act, nmax, ctx))
    z_al = alpha_renorm(act, nmax, ctx).shift(1)
    return (SpatialSeries.delta(ctx.origin(), nmax) - step_kernel(z_al, ctx)
            - g_inv.scale(alpha0(act, nmax, ctx)))


def lace_recursion_residual(act: LoopActivity, nmax: int, ctx: GraphCtx) -> Fraction:
    """Max |coefficient| residual of G = alpha0 delta + (z alpha |Omega| D
    + Pi) * G with Pi from the direct lace sum. Exactly 0 when the expansion
    is right."""
    g = two_point_table(act, nmax, ctx)
    kernel = pi_total_table(act, nmax, ctx) + step_kernel(alpha_renorm(act, nmax, ctx).shift(1), ctx)
    a0_delta = SpatialSeries.build({ctx.origin(): alpha0(act, nmax, ctx)}, nmax)
    diff = g - spatial_convolve(kernel, g) - a0_delta
    worst = Fraction(0)
    for _, s in diff.data:
        for c in s.coeffs:
            if abs(c) > worst:
                worst = abs(c)
    return worst


# ---------------------------------------------------------------------------
# hypergraph layer (cutoff universes; exercised by the identity tests)


def loop_universe(region, act: LoopActivity, cutoff: int, ctx: GraphCtx):
    """All rooted closed walks X with |X| <= cutoff whose range meets region.

    Returns a list of (walk, alpha_X) with alpha_X = exp(w(X)/|X|) - 1 at
    truncation `cutoff`.
    """
    if not ctx.is_lattice:
        raise PreconditionError("lattice universes only")
    region = frozenset(region)
    origin = ctx.origin()
    out = []
    for w in walks(ctx, origin, cutoff):
        if len(w) == 1 or w[-1] != origin:
            continue
        zp, lf = walk_weight(w, act, ctx)
        alpha = exp_series(ZSeries.monomial(lf * Fraction(1, zp), zp, cutoff)) - ZSeries.one(cutoff)
        # a shifted walk starts at its shift, so no two coincide
        out += [(tuple(tuple(map(add, u, v)) for u in w), alpha) for v in _shifts(region, set(w), ctx)]
    out.sort(key=lambda item: item[0])
    return out


def hyperedge_weight(J, X, alpha_x, w, nmax: int) -> ZSeries:
    """F_{J,X}(w): the inclusion-exclusion weight of a hyperedge.

    X = None encodes a timelike hyperedge (|J| = 2 required), with weight
    -1{w_s = w_t} as a constant series.
    """
    J = tuple(sorted(J))
    if not J:
        raise PreconditionError("J must be nonempty")
    if X is None:
        if len(J) != 2:
            raise PreconditionError("timelike hyperedges have |J| = 2")
        s, t = J
        return ZSeries.const(-1 if w[s] == w[t] else 0, nmax)
    lx = set(X)
    if any(w[j] not in lx for j in J):
        return ZSeries.zero(nmax)
    if len(J) % 2 == 1:
        return alpha_x
    return -(alpha_x * reciprocal(ZSeries.one(nmax) + alpha_x))


def product_identity_check(w, X, alpha_x, nmax: int) -> bool:
    """Lemma: prod over nonempty J of (1+F_{J,X}) = (1+alpha_X)^{1{hit}}:
    the corollary at k = 0, where every nonempty J meets [0, n] and the
    empty head misses X."""
    return remainder_identity_check(w, 0, X, alpha_x, nmax)


def remainder_identity_check(w, k: int, X, alpha_x, nmax: int) -> bool:
    """Corollary: the product over J meeting [k, n] equals
    (1+alpha_X)^{1{tail hits} 1{head misses}}."""
    n = len(w) - 1
    if not 0 <= k <= n:
        raise PreconditionError("k out of range")
    prod = ZSeries.one(nmax)
    for r in range(1, n + 2):
        for J in combinations(range(n + 1), r):
            if max(J) < k:
                continue
            prod = prod * (ZSeries.one(nmax) + hyperedge_weight(J, X, alpha_x, w, nmax))
    lx = set(X)
    tail_hits = any(v in lx for v in w[k:])
    head_misses = all(v not in lx for v in w[:k])
    target = (
        ZSeries.one(nmax) + alpha_x if (tail_hits and head_misses) else ZSeries.one(nmax)
    )
    return prod.coeffs == target.coeffs


def span_resummation_check(w, s: int, t: int, act, nmax: int, ctx: GraphCtx) -> bool:
    """Lemma: w*(st, spacelike) + w*(st, timelike) = -I^w(s,t), with the
    spacelike pushforward summed over a cutoff universe."""
    universe = loop_universe(set(w), act, nmax, ctx)
    one = ZSeries.one(nmax)
    if w[s] == w[t]:
        spacelike = ZSeries.zero(nmax)
    else:
        prod = one
        interior = list(range(s + 1, t))
        for X, ax in universe:
            lx = set(X)
            if w[s] not in lx or w[t] not in lx:
                continue
            for r in range(0, len(interior) + 1):
                for mid in combinations(interior, r):
                    J = (s,) + mid + (t,)
                    prod = prod * (one + hyperedge_weight(J, X, ax, w, nmax))
        spacelike = prod - one
    timelike = ZSeries.const(-1 if w[s] == w[t] else 0, nmax)
    lhs = spacelike + timelike
    rhs = -_i_factor(w[s], w[t], w[s + 1 : t], act, nmax, ctx)
    return lhs.coeffs == rhs.coeffs
