"""Exhaustive walk-sum engine.

Every lattice sum from the origin of Z^d runs on canonical walks, one per
orbit of the point group, each standing for its orbit (_canonical_steps is
the one step rule: which steps, with which multiplicity), and spreads its
totals over the endpoint orbits only where an endpoint is read (_spread).
Lattice two-point tables, loop-count tables and exact MSDs run forward over
loop-erasure states (_transfer), merging walks that share their partial
loop erasure; an activity that weighs every loop 0 counts SAWs instead
(_saw_rows). Both run on canonical SAWs, as the exact sampler does
(_LEStates is the chain all three share), and return orbit totals: chi and
the MSD sum them, two_point_table spreads them. Every other exhaustive sum
(the loop-erased two-point table, constrained walk sums, visit sums, bubble
chains, the closed-walk catalog, finite graphs) reads one depth-first
generator, _grow, which carries each walk's partial loop erasure along, so
activity weights never require re-scanning the walk; on Z^d from the
origin it can grow the canonical walks alone. `walks` and `saws` are its
walks alone. Loop measures on both kinds of graph read one catalog of
closed walks (rooted at the origin of Z^d, or at every vertex of a finite
graph), its entries weighed once per activity (_entries). The rooted walks
of an entry that meet a region are named by _shifts: on Z^d the shifts v
whose translate range + v meets it (mu is translation invariant), on a
finite graph the entry itself. So "sum over closed walks hitting A and B
avoiding C" adds w(X)/|X| times |S_A & S_B - S_C| per entry, and the
interaction factor I = 1 - exp(-mu) of every caller is _i_factor.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from operator import add, mul, sub
from typing import Optional

from .core import (
    GraphCtx,
    LoopActivity,
    PreconditionError,
    _erase,
    sap_key,
)
from .series import SeriesSum, ZSeries, SpatialSeries, exp_series, reciprocal, spatial_convolve

DEFAULT_BUDGET = 10**9


class ResourceError(RuntimeError):
    pass


def node_budget() -> int:
    env = os.environ.get("LWW_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


def _guard(ctx: GraphCtx, max_len: int):
    if max_len > 0 and ctx.max_degree() ** max_len > node_budget():
        raise ResourceError(
            f"naive walk count {ctx.max_degree()}^{max_len} exceeds budget "
            f"{node_budget()} (override with LWW_BUDGET)"
        )


def walks(ctx: GraphCtx, start, max_len: int):
    """Every walk of at most max_len steps from start, as tuples, depth first.

    Each walk yielded is charged against node_budget(); one more raises
    ResourceError."""
    return (w for w, _, _ in _grow(ctx, (start,), max_len))


def saws(ctx: GraphCtx, start, max_len: int):
    """Every self-avoiding walk of at most max_len steps from start, as
    tuples, depth first, charged like walks()."""
    return (w for w, _, _ in _grow(ctx, (start,), max_len, self_avoiding=True))


def _grow(ctx, prefix, max_len, end=None, avoid=frozenset(), keys=False, self_avoiding=False,
          canonical=False):
    """(walk, LE(walk), erased loops) for prefix and for every extension of
    it of at most max_len steps in all that never steps onto `avoid` and can
    still reach `end` (when given) in the steps left, depth first.

    The loop erasure is carried along: a step onto the SAW truncates it at
    the hit point and erases the loop saw[j:] + (v,), or its sap_key when
    `keys` is true, so act.weight_of_keys(erased) is the walk's loop weight
    under either kind of activity. Erased lists are shared between walks;
    do not mutate them. Each walk yielded is charged to node_budget().

    With `canonical` (Z^d, prefix the origin alone) only the canonical walks
    are grown (_canonical_steps), one per orbit of the point group, and each
    node carries the size of its orbit as a fourth entry. A walk's axis
    count and orbit size follow from its parent's, which, depth first, is
    the last walk expanded one step shorter. The constraints must then be
    point-group invariant (end the origin, avoid empty).
    """
    saw, erased = _erase(prefix)
    if keys:
        erased = [sap_key(loop, ctx) for loop in erased]
    if canonical:
        rows = _canonical_units(ctx)
        units = [[u for u, _, _ in row] for row in rows]
        after = [{u: (mult, k2) for u, mult, k2 in row} for row in rows]
        axes, sizes = [0] * (max_len + 1), [1] * (max_len + 1)  # by length, along the current path
    left = node_budget()
    stack = [(prefix, saw, erased)]
    while stack:
        node = stack.pop()
        left -= 1
        if left < 0:
            raise ResourceError(f"walk generator yields more than {node_budget()} walks "
                                "(override with LWW_BUDGET)")
        w, saw, erased = node
        if canonical:
            m = len(w) - 1
            if m:
                mult, axes[m] = after[axes[m - 1]][tuple(map(sub, w[-1], w[-2]))]
                sizes[m] = sizes[m - 1] * mult
            yield node + (sizes[m],)
        else:
            yield node
        room = max_len - len(w)  # steps left after the next one
        if room < 0:
            continue
        nxt = [tuple(map(add, w[-1], u)) for u in units[axes[m]]] if canonical else ctx.neighbors(w[-1])
        for v in nxt:
            if v in avoid or (end is not None and ctx.distance(v, end) > room):
                continue
            if v not in saw:
                stack.append((w + (v,), saw + (v,), erased))
            elif not self_avoiding:
                j = saw.index(v)
                loop = saw[j:] + (v,)
                stack.append((w + (v,), saw[: j + 1], erased + [sap_key(loop, ctx) if keys else loop]))


def walk_sum(start, end, act: LoopActivity, nmax: int, ctx: GraphCtx, avoid=frozenset()) -> ZSeries:
    """Sum of z^{|w|} * loop weight over the walks start -> end (any end when
    end is None) of at most nmax steps, the 0-step walk included, that never
    step onto `avoid` (start in avoid: no return to start)."""
    _guard(ctx, nmax)
    coeffs = [Fraction(0)] * (nmax + 1)
    for w, _, erased in _grow(ctx, (start,), nmax, end, avoid, not act.is_constant):
        if end is None or w[-1] == end:
            coeffs[len(w) - 1] += act.weight_of_keys(erased)
    return ZSeries(tuple(coeffs))


def _canonical_steps(d: int) -> list:
    """The point-group quotient of Z^d as a step rule: rows[k] lists
    (step, multiplicity, axes used after it) for each step out of a
    canonical walk on the first k axes, in GraphCtx.neighbors order (step
    s < d is -e_s, step 2d-1-s is +e_s).

    A walk from the origin is canonical when its axes first appear in the
    order 0, 1, ... and each axis is first taken in the + direction: one
    walk per orbit of the point group (2^d d! isometries), and prefixes of
    canonical walks are canonical. Each direction of a used axis is its own
    step, of multiplicity 1; the 2(d-k) steps onto unused axes map to the
    one canonical push +e_k. So a canonical walk on k axes stands for the
    product of its multiplicities, 2^k d!/(d-k)! walks, and its stabiliser
    (the signed permutations of its unused axes) fixes its endpoint. Every
    lattice activity is invariant under the group (constants trivially,
    tables because sap_key is a point-group canonical form), so every walk
    of an orbit carries the same weight.
    """
    base, rows = 2 * d, []
    for k in range(d + 1):
        row = [(s, 1, k) for s in range(base) if s < k or s >= base - k]
        if k < d:
            row.insert(k, (base - 1 - k, 2 * (d - k), k + 1))
        rows.append(row)
    return rows


def _canonical_units(ctx: GraphCtx) -> list:
    """_canonical_steps of Z^d with each step as its unit vector:
    rows[k] lists (unit, multiplicity, axes used after it)."""
    units = ctx.neighbors(ctx.origin())
    return [[(units[s], mult, k2) for s, mult, k2 in row] for row in _canonical_steps(ctx.d)]


def _orbit_key(x) -> tuple:
    """The point-group orbit of a point of Z^d, as its sorted |coordinates|."""
    return tuple(sorted(map(abs, x)))


def _spread(totals: dict, share) -> dict:
    """Orbit totals keyed by _orbit_key, spread over every point: each point
    of an orbit O gets share(total, |O|).

    A total sums the weight of orbits of walks from the origin, whose
    endpoints cover the orbit of their endpoint evenly: the stabiliser of a
    canonical walk fixes its endpoint (_canonical_steps). So every division
    is exact. share is called once per orbit, and its value is shared by
    the orbit's points.
    """
    out = {}
    for key, w in totals.items():
        orbit = _point_orbit(key)
        out.update(dict.fromkeys(orbit, share(w, len(orbit))))
    return out


def _point_orbit(x) -> list:
    """The distinct signed permutations of the coordinates of x, placed one
    coordinate at a time from the multiset of |x_i|, so that the 2^d d!
    group itself is never walked."""
    left, out = Counter(map(abs, x)), []

    def place(prefix):
        if len(prefix) == len(x):
            out.append(prefix)
            return
        for a, c in left.items():
            if c:
                left[a] -= 1
                for v in (a, -a) if a else (0,):
                    place(prefix + (v,))
                left[a] += 1

    place(())
    return out


class _LEStates:
    """Loop-erasure states of walks of at most n steps from the origin of Z^d,
    up to the point group.

    The partial loop erasure of a walk is a Markov chain on SAWs (Lawler
    1991), and a walk's loop weight depends only on the loops it erases. A
    state is the SAW's steps as base-2d digits under a leading 1 (the origin
    alone is 1); points are ints in radix 2n+1. Every engine runs the chain
    on canonical SAWs alone, stepping by `steps` (_canonical_steps with each
    step's int move): _transfer and _saw_rows forward, summing their rows by
    endpoint orbit (totals()), and sampling.sample_exact backward, by
    push_frame(). Each charge()s the states it expands to node_budget().
    """

    def __init__(self, ctx: GraphCtx, n: int):
        if n < 0:
            raise PreconditionError("need a walk length n >= 0")
        self.d, self.n, self.base, self.radix = ctx.d, n, 2 * ctx.d, 2 * n + 1
        self.moves = [sum(c * self.radix**i for i, c in enumerate(v)) for v in ctx.neighbors(ctx.origin())]
        self.steps = [[(s, self.moves[s], mult, k2) for s, mult, k2 in row] for row in _canonical_steps(self.d)]
        self.axes_after = [{s: k2 for s, _, _, k2 in row} for row in self.steps]
        self.offset = n * sum(self.radix**i for i in range(self.d))  # makes every digit nonnegative
        self.powers = [self.base**i for i in range(n + 1)]
        self.left = node_budget()

    def point(self, q) -> tuple:
        return tuple((q + self.offset) // self.radix**i % self.radix - self.n for i in range(self.d))

    def walk(self, code) -> tuple:
        """(points, k): the SAW of a state as int points from the origin, and
        the number of axes a canonical SAW uses (its axes are 0 .. k-1; k
        means nothing for another SAW, such as an erased loop's)."""
        steps = []
        while code > 1:
            code, s = divmod(code, self.base)
            steps.append(s)
        pts, k = [0], 0
        for s in reversed(steps):
            pts.append(pts[-1] + self.moves[s])
            k = self.axes_after[k].get(s, k)
        return pts, k

    def root_frame(self) -> tuple:
        """The frame of the SAW of no steps: every step is the canonical +e_0."""
        return (self.base - 1,) * self.base

    def push_frame(self, frame: tuple, k: int, s: int):
        """The frame and axis count after a push s out of a SAW on k axes.

        frame[s] is the canonical step of a push s: for a used axis the
        isometry that takes the SAW to its canonical SAW, for an unused one
        +e_k. A first step on an unused axis assigns it canonical axis k.
        """
        plus_k = self.base - 1 - k
        if k == self.d or frame[s] != plus_k:  # s is on a used axis
            return frame, k
        f = [plus_k - 1 if c == plus_k else c for c in frame]
        f[s], f[self.base - 1 - s] = plus_k, k
        return tuple(f), k + 1

    def totals(self, row: dict) -> dict:
        """A row keyed by canonical int endpoints, summed by _orbit_key."""
        out: dict = {}
        for q, w in row.items():
            key = _orbit_key(self.point(q))
            out[key] = out.get(key, 0) + w
        return out

    def charge(self, states: int):
        self.left -= states
        if self.left < 0:
            raise ResourceError(f"walk enumeration expands more than {node_budget()} loop-erasure "
                                "states (override with LWW_BUDGET)")


def _saw_rows(n: int, ctx: GraphCtx) -> list:
    """_transfer's rows for an activity that weighs every loop 0: the SAWs of
    length m <= n from the origin of Z^d, counted by endpoint orbit.

    Depth-first over the canonical SAWs (_LEStates), each carrying the size
    of its orbit, with the SAW's int points in a set (a (2n+1)^d occupancy
    map would not fit in memory for large d) and an explicit stack, so n is
    not bounded by the recursion limit. Each canonical SAW expanded is
    charge()d.
    """
    states = _LEStates(ctx, n)
    moves = states.steps
    rows = [{0: 1}] + [{} for _ in range(n)]
    last, path, on_path = rows[n], [], set()
    todo = [(0, 0, 0, 1)] if n else []  # (endpoint, length, axes used, orbit size) of the SAWs to expand
    while todo:
        q, m, k, size = todo.pop()
        for p in path[m:]:  # back up to this SAW's parent
            on_path.remove(p)
        del path[m:]
        path.append(q)
        on_path.add(q)
        states.charge(1)
        m += 1
        row = rows[m]
        for _, mv, mult, k2 in moves[k]:
            r = q + mv
            if r not in on_path:
                c = size * mult
                row[r] = row.get(r, 0) + c
                if m < n - 1:
                    todo.append((r, m, k2, c))
                elif m < n:  # expand r in place: no step out of r lands on r
                    states.charge(1)
                    for _, mv2, mult2, _ in moves[k2]:
                        t = r + mv2
                        if t not in on_path:
                            last[t] = last.get(t, 0) + c * mult2
    return [states.totals(row) for row in rows]


def _transfer(n: int, ctx: GraphCtx, act: Optional[LoopActivity] = None) -> list:
    """Walks of length m <= n from the origin of Z^d, summed by endpoint
    orbit.

    Walks sharing a loop-erasure state (_LEStates) at the same time are
    merged, and the states of one point-group orbit are merged into its
    canonical SAW, which carries the orbit's total: a push onto an unused
    axis stands for its 2(d-k) images, and a loop-closing step truncates to
    a canonical prefix. Level n is recorded, never stored. Constant
    activities carry sum_k N_k lambda^k as one int with N_k in digit k, so
    a charged loop is a shift; table activities carry a Fraction. An
    activity that weighs every loop 0 (lambda = 0, or a table of zeros)
    leaves only the SAWs, which share no states: _saw_rows counts them
    instead.

    Returns rows: rows[m] maps each endpoint orbit (_orbit_key) to the
    total over the m-step walks ending in it: [N_0, N_1, ...] (act=None) or
    their weight sum. A point's own value is the total over the orbit's
    size (_spread). Raises ResourceError when more than node_budget()
    canonical states are expanded.
    """
    if act is not None and act.sup() == 0:
        return _saw_rows(n, ctx)
    states = _LEStates(ctx, n)
    moves = states.steps
    base, powers = states.base, states.powers
    packed = act is None or act.is_constant
    width = (base**n).bit_length()  # N_k <= (2d)^n, also for an orbit's total
    loop_weights: dict = {}  # erased loop -> activity

    one = 1 if packed else Fraction(1)
    rows = [{0: one}] + [{} for _ in range(n)]
    level = {1: one}
    for m in range(n):
        states.charge(len(level))
        row, nxt = rows[m + 1], {}
        for code, w in level.items():
            pts, k = states.walk(code)
            pos = {q: i for i, q in enumerate(pts)}
            for s, mv, mult, _ in moves[k]:
                q = pts[-1] + mv
                j = pos.get(q)
                if j is None:
                    child, cw = code * base + s, w * mult
                else:  # truncate at the hit point, erasing the loop after it
                    cut = powers[len(pts) - 1 - j]
                    child = code // cut
                    if packed:
                        cw = w << width
                    else:
                        loop = cut + code % cut
                        if loop not in loop_weights:
                            closed = tuple(map(states.point, states.walk(loop)[0] + [0]))
                            loop_weights[loop] = act.weight_of_key(sap_key(closed))
                        cw = w * loop_weights[loop]
                row[q] = row.get(q, 0) + cw
                if m < n - 1:
                    nxt[child] = nxt.get(child, 0) + cw
        level = nxt
    mask = (1 << width) - 1

    def value(w):
        if not packed:
            return w
        counts = []
        while w:
            counts.append(w & mask)
            w >>= width
        if act is None:
            return counts
        return sum((c * act.value**k for k, c in enumerate(counts)), Fraction(0))

    return [{key: value(w) for key, w in states.totals(row).items()} for row in rows]


# ---------------------------------------------------------------------------
# closed-walk catalogs and loop measures


@lru_cache(maxsize=None)
def closed_walk_catalog(ctx: GraphCtx, max_len: int):
    """Closed walks with 2 <= length <= max_len, rooted at the origin of Z^d
    or at every vertex of a finite graph.

    Aggregated by (range, steps, erased-loop key multiset); each entry is
    (range frozenset, n, keys tuple, count). Readers sum over the entries,
    whose order is not part of the result. A lattice range is relative to
    the origin, a finite one is the walk's own vertex set. On Z^d only the
    canonical closed walks are grown (_grow with canonical), one per
    point-group orbit. An orbit shares its keys (sap_key is a point-group
    canonical form), and its walks are the images of the canonical one
    under the injective signed maps of its axes, so each canonical entry is
    counted again under every image of its range (_range_images), each
    range expanded once for all the entries that share it.
    """
    _guard(ctx, max_len)
    agg: dict = {}
    for root in (ctx.origin(),) if ctx.is_lattice else ctx.vertices():
        for node in _grow(ctx, (root,), max_len, end=root, keys=True, canonical=ctx.is_lattice):
            w = node[0]
            if len(w) > 2 and w[-1] == root:
                key = (frozenset(w), len(w) - 1, tuple(sorted(node[2])))
                agg[key] = agg.get(key, 0) + 1
    if ctx.is_lattice:
        by_range: dict = {}
        for (rng, n, keys), cnt in agg.items():
            by_range.setdefault(rng, []).append((n, keys, cnt))
        agg = {}
        for rng, rows in by_range.items():
            for image in _range_images(rng, ctx.d):
                for n, keys, cnt in rows:
                    key = (image, n, keys)
                    agg[key] = agg.get(key, 0) + cnt
    return tuple((rng, n, keys, cnt) for (rng, n, keys), cnt in agg.items())


def _range_images(rng, d: int) -> list:
    """The images of a canonical range on the axes 0..k-1 of Z^d under the
    2^k d!/(d-k)! injective signed maps of those axes, one per map: these
    are the ranges of the orbit of a canonical walk (its stabiliser moves
    only the unused axes). A symmetric range repeats."""
    k = sum(map(any, zip(*rng)))
    out = []
    for axes in permutations(range(d), k):
        src = [k] * d  # the axis each image axis reads; an unused one reads axis k, which is 0
        for i, a in enumerate(axes):
            src[a] = i
        for signs in product((1, -1), repeat=k):
            sg = [1] * d
            for a, sign in zip(axes, signs):
                sg[a] = sign
            out.append(frozenset(tuple(map(mul, sg, map(p.__getitem__, src))) for p in rng))
    return out


def _shifts(region, rng, ctx) -> set:
    """The rooted walks of a catalog entry with range `rng` that meet `region`.

    On Z^d an entry stands for its translates, and rng + v meets the region
    exactly when v = a - r for some a in the region and r in rng: the shift
    v names the walk rooted at v. On a finite graph the entry is its own
    walk, named (), and meets the region or not.
    """
    if not ctx.is_lattice:
        return set() if rng.isdisjoint(region) else {()}
    return {tuple(map(sub, a, r)) for a in region for r in rng}


def _entries(act, nmax, ctx) -> tuple:
    """(n, w(X)/|X| summed over the entry's walks, range) per catalog entry of
    at most nmax steps and nonzero weight."""
    return _entry_weights(act, ctx, nmax - nmax % 2 if ctx.is_lattice else nmax)


@lru_cache(maxsize=None)
def _entry_weights(act, ctx, max_len) -> tuple:
    """_entries of closed_walk_catalog(ctx, max_len), weighed once per
    activity."""
    weighed = ((n, act.weight_of_keys(keys) * Fraction(cnt, n), rng)
               for rng, n, keys, cnt in closed_walk_catalog(ctx, max_len))
    return tuple(entry for entry in weighed if entry[1])


def _mu(A, B, C, act, nmax, ctx) -> ZSeries:
    """mu(A, B; C): closed walks (any root) hitting A, and B unless B is
    None, avoiding C, weight w/|w|."""
    C = frozenset(C)
    A = frozenset(A) - C
    if B is not None:
        B = frozenset(B) - C
        if not B:
            return ZSeries.zero(nmax)
    if not A:
        return ZSeries.zero(nmax)
    acc = SeriesSum(nmax)
    for n, w, rng in _entries(act, nmax, ctx):
        hits = _shifts(A, rng, ctx)
        if B is not None:
            hits &= _shifts(B, rng, ctx)
        if C and hits:
            hits -= _shifts(C, rng, ctx)
        if hits:
            acc.add_term(n, w * len(hits))
    return acc.value()


def loop_measure(A, B, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """mu(A;B): closed walks (any root) hitting A, avoiding B, weight w/|w|."""
    return _mu(A, None, B, act, nmax, ctx)


def generalized_loop_measure(
    A, B, C, act: LoopActivity, nmax: int, ctx: GraphCtx
) -> ZSeries:
    """mu(A,B;C): closed walks hitting both A and B, avoiding C."""
    return _mu(A, B, C, act, nmax, ctx)


def alpha0(act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """alpha_0 = exp(mu({0})): renormalization by loops through the origin."""
    return exp_series(loop_measure(frozenset([ctx.origin()]), frozenset(), act, nmax, ctx))


def alpha_renorm(act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """alpha = exp(mu({0}; {y})) with y the first lexicographic neighbor."""
    o = ctx.origin()
    return exp_series(loop_measure(frozenset([o]), frozenset([ctx.neighbors(o)[0]]), act, nmax, ctx))


# ---------------------------------------------------------------------------
# two-point functions


def _default_origin(ctx: GraphCtx):
    return ctx.origin() if ctx.is_lattice else ctx.vertices()[0]


@lru_cache(maxsize=None)
def two_point_table(act: LoopActivity, nmax: int, ctx: GraphCtx, origin=None) -> SpatialSeries:
    """G(x) for all endpoints at once: direct weighted enumeration from 0.

    Lattice activities go through _transfer (its SAW counter when every
    loop weighs 0), whose orbit totals are _spread over the endpoints;
    finite graphs enumerate every walk with _grow, counted as ints by
    (endpoint, length, loop count), or by the sorted erased-loop keys for a
    table activity, and each group is weighed once."""
    start = _default_origin(ctx) if origin is None else origin
    if ctx.is_lattice:
        terms = ((tuple(map(add, x, start)), m, w) for m, row in enumerate(_transfer(nmax, ctx, act))
                 for x, w in _spread(row, Fraction).items())
    else:
        _guard(ctx, nmax)
        keys = not act.is_constant
        groups = Counter((w[-1], len(w) - 1, tuple(sorted(erased)) if keys else len(erased))
                         for w, _, erased in _grow(ctx, (start,), nmax, keys=keys))
        terms = ((x, m, cnt * (act.weight_of_keys(loops) if keys else act.value**loops))
                 for (x, m, loops), cnt in groups.items())
    table: dict = {}
    for x, m, w in terms:
        table.setdefault(x, [Fraction(0)] * (nmax + 1))[m] += w
    return SpatialSeries.build({x: ZSeries(tuple(c)) for x, c in table.items()}, nmax)


def two_point(x, act: LoopActivity, nmax: int, ctx: GraphCtx, reduced: bool = False, origin=None) -> ZSeries:
    """G(0,x), or the reduced H(0,x) = (1 - delta) G(0,x)."""
    start = _default_origin(ctx) if origin is None else origin
    g = two_point_table(act, nmax, ctx, origin).at(x)
    if reduced and x == start:
        return ZSeries.zero(nmax)
    return g


def reduced_table(act: LoopActivity, nmax: int, ctx: GraphCtx) -> SpatialSeries:
    """H(x) = (1 - delta_{0,x}) G(x)."""
    g = two_point_table(act, nmax, ctx)
    origin = ctx.origin()
    return SpatialSeries.build(
        {x: s for x, s in g.data if x != origin}, nmax
    )


@lru_cache(maxsize=None)
def loop_erased_two_point_table(act: LoopActivity, nmax: int, ctx: GraphCtx) -> SpatialSeries:
    """sum over SAWs eta: 0 -> x of z^{|eta|} exp(mu(range eta)).

    Theorem "LM-Rep" route to the two-point function; must agree with
    two_point_table coefficientwise. The SAWs are the canonical ones of
    Z^d (_grow with canonical), each charged to node_budget(). mu of a
    range is point-group invariant, so each canonical SAW's term is
    computed once and counted for its orbit; the totals by endpoint orbit
    are _spread at the end.
    """
    totals: dict = {}
    for eta, _, _, size in _grow(ctx, (ctx.origin(),), nmax, self_avoiding=True, canonical=True):
        length = len(eta) - 1
        budget = nmax - length
        if budget < 2:  # no loop fits: exp(mu) = 1
            contrib = ZSeries.monomial(size, length, nmax)
        else:
            mu = loop_measure(eta, (), act, budget, ctx)
            contrib = (exp_series(ZSeries.of(mu.coeffs, nmax)) * size).shift(length)
        key = _orbit_key(eta[-1])
        acc = totals.get(key)
        if acc is None:
            acc = totals[key] = SeriesSum(nmax)
        acc.add(contrib)
    table = _spread({key: acc.value() for key, acc in totals.items()}, lambda s, n: s * Fraction(1, n))
    return SpatialSeries.build(table, nmax)


@lru_cache(maxsize=None)
def _mu_pair(delta, interior: frozenset, act: LoopActivity, budget: int, ctx: GraphCtx) -> ZSeries:
    """mu(0, delta; interior) truncated at budget (translation-normalized)."""
    if budget < 2:
        return ZSeries.zero(budget if budget >= 0 else 0)
    return generalized_loop_measure(
        frozenset([ctx.origin()]), frozenset([delta]), interior, act, budget, ctx
    )


def _i_factor(wa, wb, interior, act, budget, ctx) -> ZSeries:
    """I^omega = 1 - exp(-mu(wa, wb; interior)) between two marked times,
    truncated at `budget`; 1 when wa = wb."""
    if wa == wb:
        return ZSeries.one(budget)
    if ctx.is_lattice:
        delta = tuple(b - a for a, b in zip(wa, wb))
        inter = frozenset(tuple(c - a for a, c in zip(wa, v)) for v in interior)
        mu = _mu_pair(delta, inter, act, budget, ctx)
    else:
        mu = generalized_loop_measure(
            frozenset([wa]), frozenset([wb]), frozenset(interior), act, budget, ctx
        )
    return ZSeries.one(budget) - exp_series(-mu)


def interaction_two_point(x, y, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """I(x,y) = 1 if x=y else 1 - exp(-mu(x,y))."""
    return _i_factor(x, y, (), act, nmax, ctx)


def i_omega(w, a: int, b: int, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """I^w(a,b): walk-dependent interaction along w between times a < b."""
    if not (0 <= a < b <= len(w) - 1):
        raise PreconditionError("need 0 <= a < b <= |w|")
    return _i_factor(w[a], w[b], w[a + 1 : b], act, nmax, ctx)


# ---------------------------------------------------------------------------
# loop-count tables and the lambda=1 fast path


@dataclass(frozen=True)
class LoopCountTable:
    d: int
    n_max: int
    entries: tuple  # ((n, k) -> count) or ((n, k, x) -> count) as sorted items
    endpoint_resolved: bool

    def count(self, n: int, k: int, x=None):
        key = (n, k) if not self.endpoint_resolved else (n, k, x)
        return dict(self.entries).get(key, 0)

    def c_n(self, n: int, lam) -> Fraction:
        lam = Fraction(lam)
        acc = Fraction(0)
        for key, cnt in self.entries:
            if key[0] == n:
                acc += cnt * lam ** key[1]
        return acc

    def rows(self):
        return dict(self.entries)


def loop_count_table(n_max: int, d: int, endpoint_resolved: bool = False) -> LoopCountTable:
    """Exact counts N(n, k) of n-step walks with k erased loops."""
    entries: dict = {}
    for n, row in enumerate(_transfer(n_max, GraphCtx.lattice(d))):
        if endpoint_resolved:
            row = _spread(row, lambda counts, size: [c // size for c in counts])
        for x, counts in row.items():
            for k, cnt in enumerate(counts):
                if cnt:
                    key = (n, k, x) if endpoint_resolved else (n, k)
                    entries[key] = entries.get(key, 0) + cnt
    return LoopCountTable(
        d=d,
        n_max=n_max,
        entries=tuple(sorted(entries.items())),
        endpoint_resolved=endpoint_resolved,
    )


def chi_series(act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """Susceptibility: endpoint-summed walk weights.

    lambda = 1 on the lattice is the simple random walk (every loop weighs
    1), so chi_m = (2d)^m; other lattice activities sum _transfer's orbit
    totals, which cover every endpoint; finite graphs sum two_point_table.
    """
    if not ctx.is_lattice:
        return two_point_table(act, nmax, ctx).sum_over_x()
    if act.is_constant and act.value == 1:
        return ZSeries(tuple(Fraction(2 * ctx.d) ** m for m in range(nmax + 1)))
    return ZSeries(tuple(Fraction(sum(row.values())) for row in _transfer(nmax, ctx, act)))


# ---------------------------------------------------------------------------
# visit identities and bubble chains


def visit_weighted_closed_sum(x, y, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """sum over closed walks at x of |{j>=1: w_j = y}| * weight."""
    return _visit_sum(x, x, y, frozenset(), act, nmax, ctx)


def _visit_sum(x, end, b, avoid, act, nmax, ctx) -> ZSeries:
    """sum over walks x -> end of >= 1 step that never step onto `avoid`, of
    |{j>=1: w_j = b}| * weight."""
    _guard(ctx, nmax)
    coeffs = [Fraction(0)] * (nmax + 1)
    for w, _, erased in _grow(ctx, (x,), nmax, end, avoid, not act.is_constant):
        if w[-1] == end:
            coeffs[len(w) - 1] += act.weight_of_keys(erased) * w[1:].count(b)
    return ZSeries(tuple(coeffs))


def restricted_alpha0(x, forbidden: frozenset, act, nmax, ctx) -> ZSeries:
    """1 + sum over closed walks at x avoiding `forbidden`."""
    return walk_sum(x, x, act, nmax, ctx, forbidden)


def true_bubble_chain(
    x, y, act: LoopActivity, nmax: int, ctx: GraphCtx, forbidden: frozenset = frozenset()
) -> ZSeries:
    """The bubble chain B(x,y): the pinch-point decomposition of visit sums.

    x = y: alpha0_r (alpha0_r - 1) with alpha0_r restricted to avoid
    `forbidden`. x != y: alpha0_r * (pinch-chain part): sum over k >= 1,
    pinch points x = x_0, .., x_k = y, lambda^k, and constrained
    forward/return pieces. Constant activities only (the pinch factor is a
    bare lambda per pinch).
    """
    a0r = restricted_alpha0(x, forbidden, act, nmax, ctx)
    if x == y:
        return a0r * (a0r - ZSeries.one(nmax))
    return a0r * bubble_chain_pinch_part(x, y, act, nmax, ctx, forbidden)


@lru_cache(maxsize=None)
def bubble_chain_pinch_part(
    x, y, act: LoopActivity, nmax: int, ctx: GraphCtx, forbidden: frozenset = frozenset()
) -> ZSeries:
    """Pile-free part of the bubble chain from x to y != x.

    The chain departs x immediately (no initial closed walks at x) but keeps
    the free closed tail at x after the last return; the full bubble chain of
    the closed-walk visit identity is alpha0_restricted times this.
    """
    if x == y:
        raise PreconditionError("pinch part needs x != y")
    lam = act.constant_value()
    coeffs = [Fraction(0)] * (nmax + 1)
    back = ctx.distance(y, x)
    # forward pieces run from pinch to pinch; the ranges of their loop
    # erasures accumulate into the set later pieces avoid
    pinches = [x]
    P_ranges: list = []  # range(LE(piece)) per forward piece, in order

    def forward(used, factor):
        avoid = forbidden.union({x}, *P_ranges)
        for piece, saw, erased in _grow(ctx, (pinches[-1],), nmax - used - back, y, avoid):
            if len(piece) == 1:
                continue
            pinches.append(piece[-1])
            P_ranges.append(frozenset(saw))
            used2, f = used + len(piece) - 1, factor * lam ** len(erased)
            if piece[-1] == y:
                returning(1, used2, f)
            else:
                forward(used2, f)
            P_ranges.pop()
            pinches.pop()

    def returning(i, used, factor):
        # Return piece i of k runs from pinches[k-i+1] to pinches[k-i] and
        # ends at its FIRST arrival at that target (the next shrink
        # boundary); before it, the piece avoids the not-yet-erased part of
        # the loop erasure (earlier pieces' LE ranges minus its own start)
        # but may revisit its start. The final step never erases a loop, as
        # the interior avoids the target. The last piece goes on with a free
        # closed tail at x, whose loops the same erasure weighs.
        k = len(P_ranges)
        start, target = pinches[k - i + 1], pinches[k - i]
        avoid = forbidden.union(*P_ranges[: k - i + 1]) - {start} | {target}
        room = nmax - used - sum(ctx.distance(p, q) for p, q in zip(pinches[1 : k - i + 1], pinches))
        for piece, _, erased in _grow(ctx, (start,), room, target, avoid):
            if len(piece) > room or target not in ctx.neighbors(piece[-1]):
                continue
            if i < k:
                returning(i + 1, used + len(piece), factor * lam ** len(erased))
                continue
            for w, _, loops in _grow(ctx, piece + (x,), nmax - used, x, forbidden):
                if w[-1] == x:
                    coeffs[used + len(w) - 1] += factor * lam ** (len(loops) + k)

    forward(0, Fraction(1))
    return ZSeries(tuple(coeffs))


def upper_bubble_chain(x, y, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """BC upper bound: alpha0 sum_k lambda^k (Hbar^2)^{*k}(y-x); x=y gives
    alpha0(alpha0-1)."""
    lam = act.constant_value()
    a0 = alpha0(act, nmax, ctx)
    if x == y:
        return a0 * (a0 - ZSeries.one(nmax))
    if not ctx.is_lattice:
        raise PreconditionError("upper bubble chain is lattice-only")
    a0_inv = reciprocal(a0)
    h = reduced_table(act, nmax, ctx)
    hbar = h.scale(a0_inv)
    bbar = SpatialSeries.build({p: s * s for p, s in hbar.data}, nmax)
    target = tuple(b - a for a, b in zip(x, y))
    acc = ZSeries.zero(nmax)
    power = None
    lam_k = Fraction(1)
    for _ in range(1, nmax // 2 + 1):
        power = bbar if power is None else spatial_convolve(power, bbar)
        if not power.data:
            break
        lam_k *= lam
        acc = acc + power.at(target) * lam_k
    return a0 * acc


def split_visit_sum(x, y, b, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """LHS of the splitting identity: walks x->y never returning to x,
    weighted by the number of visits to b (j >= 1)."""
    if x == y or b == x:
        raise PreconditionError("need x != y and b != x")
    return _visit_sum(x, y, b, frozenset([x]), act, nmax, ctx)


def split_visit_sum_rhs(x, y, b, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """RHS of the splitting identity: split at the last loop-erasure point a,
    with a restricted bubble chain from a to b."""
    if x == y or b == x:
        raise PreconditionError("need x != y and b != x")
    _guard(ctx, nmax)
    acc = [Fraction(0)] * (nmax + 1)
    for omega1, saw, erased in _grow(ctx, (x,), nmax, avoid={x}, keys=not act.is_constant):
        a, length, le_range = omega1[-1], len(omega1) - 1, frozenset(saw)
        rem = nmax - length
        inner = walk_sum(a, y, act, rem, ctx, le_range)
        if inner.is_zero():
            continue
        # Visits at the split point come with a free pile of closed walks at
        # a (the part of the walk between the mark and the last return to a);
        # genuine chains to b != a depart a at once and may not exist for
        # a = x (they would revisit x).
        if a == b:
            factor = restricted_alpha0(a, le_range - {a}, act, rem, ctx)
        else:
            factor = ZSeries.zero(rem)
        if a != x and a != b:
            factor = factor + bubble_chain_pinch_part(a, b, act, rem, ctx, forbidden=le_range - {a})
        w1 = act.weight_of_keys(erased)
        for n, c in enumerate((factor * inner).coeffs):
            if c:
                acc[length + n] += w1 * c
    return ZSeries(tuple(acc))


def diagrams(act: LoopActivity, nmax: int, ctx: GraphCtx) -> dict:
    """Triangle and square diagrams in x-space: (H*H*H)(0) and (H*H*H*H)(0)."""
    h = reduced_table(act, nmax, ctx)
    h2 = spatial_convolve(h, h)
    h3 = spatial_convolve(h2, h)
    h4 = spatial_convolve(h3, h)
    origin = ctx.origin()
    return {"triangle": h3.at(origin), "square": h4.at(origin)}
