"""Exhaustive walk-sum engine.

Every lattice sum from the origin of Z^d runs on canonical walks, one per
orbit of the point group, each standing for its orbit (_canonical_steps is
the one step rule), and spreads its totals over the endpoint orbits only
where an endpoint is read (_spread). A walk's loop weight depends only on
the loops its chronological loop erasure removes, a chain on SAWs, so these
engines run on SAWs (canonical ones on Z^d), all read from one depth-first
pass (_LEStates.saws): the forward transfer (_forward: two-point, chi and
loop-count tables on Z^d and on finite graphs, exact MSDs), the SAW counter
for an activity that weighs every loop 0 (_saw_rows), the exact sampler's
completion sums and the loop-erased two-point table. Every other exhaustive
sum reads one depth-first generator of whole walks, _grow, which carries
each walk's loop erasure along (`walks` and `saws` are its walks alone);
the sums over whole walks weigh its classes once (_tally).

Loop measures read one catalog of closed walks by (range, length, erased-loop
keys), rooted at the origin of Z^d or at every vertex of a finite graph and
built forward over merged states like _transfer. On Z^d it keeps the
ranges of the canonical walks, each with the number of its images. mu({0}) and
mu({0}, {e}), hence alpha_0 and alpha, are closed forms over the canonical
ranges (_mu); any other region counts, for each image of each range, built
on first request, the translates that meet it (_shifts).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, permutations, product
from math import gcd, lcm, perm
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


class ResourceError(RuntimeError):
    pass


class _Budget:
    """The budget ledger of one engine run: it reads LWW_BUDGET (default
    10^9) once, counts the engine's units against it and raises every
    refusal of the package, as one line. A hot loop may count locally and
    charge its count when it runs out."""

    def __init__(self, engine: str, unit: str):
        env = os.environ.get("LWW_BUDGET") or str(10**9)
        if not env.isdecimal():
            raise PreconditionError(f"LWW_BUDGET must be a nonnegative integer, got {env!r}")
        self.engine, self.unit, self.limit, self.used = engine, unit, int(env), 0

    def charge(self, units: int):
        self.used += units
        if self.used > self.limit:
            self.refuse(self.used)

    def charge_power(self, base: int, exp: int):
        """charge(base^exp) up front when exp > 0, refused as base^exp. A
        power past the limit's bit length is refused unbuilt: base^exp >=
        2^exp when base >= 2."""
        if exp > 0:
            units = base**exp if base < 2 or exp < self.limit.bit_length() else None
            if units is None or self.used + units > self.limit:
                self.refuse(f"{base}^{exp}")
            self.used += units

    def refuse(self, count):
        raise ResourceError(f"{self.engine}: {count} {self.unit} exceed LWW_BUDGET={self.limit}")


def _guard(ctx: GraphCtx, max_len: int):
    _Budget("up-front guard", "naive walks ((max degree)^n)").charge_power(ctx.max_degree(), max_len)


def walks(ctx: GraphCtx, start, max_len: int):
    """Every walk of at most max_len steps from start, as tuples, depth
    first, each charged to the ledger (_Budget)."""
    return (w for w, _, _ in _grow(ctx, (start,), max_len))


def saws(ctx: GraphCtx, start, max_len: int):
    """Every self-avoiding walk of at most max_len steps from start, as
    tuples, depth first, charged like walks()."""
    return (w for w, _, _ in _grow(ctx, (start,), max_len, self_avoiding=True))


def _grow(ctx, prefix, max_len, end=None, avoid=frozenset(), keys=False, self_avoiding=False):
    """(walk, LE(walk), erased loops) for prefix and for every extension of
    it of at most max_len steps in all that never steps onto `avoid` and can
    still reach `end` (when given) in the steps left, depth first.

    The loop erasure is carried along: a step onto the SAW truncates it at
    the hit point and erases the loop saw[j:] + (v,), or its sap_key when
    `keys` is true (each distinct loop keyed once per run), so
    act.weight_of_keys(erased) is the walk's loop weight under either kind
    of activity. Erased lists are shared between walks; do not mutate them.
    The walks yielded are counted down locally and charged when the count
    runs out.
    """
    key_of: dict = {}  # erased loop -> its sap_key, for this run

    def key(loop):
        k = key_of.get(loop)
        if k is None:
            k = key_of[loop] = sap_key(loop, ctx)
        return k

    saw, erased = _erase(prefix)
    if keys:
        erased = [key(loop) for loop in erased]
    ledger = _Budget("walk generator", "walks yielded")
    left = ledger.limit
    stack = [(prefix, saw, erased)]
    while stack:
        node = stack.pop()
        left -= 1
        if left < 0:
            ledger.charge(ledger.limit - left)
        yield node
        w, saw, erased = node
        room = max_len - len(w)  # steps left after the next one
        if room < 0:
            continue
        for v in ctx.neighbors(w[-1]):
            if v in avoid or (end is not None and ctx.distance(v, end) > room):
                continue
            if v not in saw:
                stack.append((w + (v,), saw + (v,), erased))
            elif not self_avoiding:
                j = saw.index(v)
                loop = saw[j:] + (v,)
                stack.append((w + (v,), saw[: j + 1], erased + [key(loop) if keys else loop]))


def walk_sum(start, end, act: LoopActivity, nmax: int, ctx: GraphCtx, avoid=frozenset()) -> ZSeries:
    """Sum of z^{|w|} * loop weight over the walks start -> end (any end when
    end is None) of at most nmax steps, the 0-step walk included, that never
    step onto `avoid` (start in avoid: no return to start)."""
    return ZSeries.sum(_tally(ctx, (start,), act, nmax, end, avoid).values(), nmax)


def _tally(ctx, prefix, act, max_len, end=None, avoid=frozenset(), mark=None) -> dict:
    """{endpoint: sum of z^{|w|} * loop weight} over the walks w of
    _grow(ctx, prefix, max_len, end, avoid) that end at `end` (when given),
    each counted once per visit to `mark` at a time j >= 1 when a mark is
    given.

    A walk's loop weight depends only on its erased loops: their number
    under a constant activity, their sorted keys under a table. So the walks
    are counted as ints by (endpoint, length, loops, visits), and each class
    is weighed once. Refuses a job up front by _guard."""
    _guard(ctx, max_len)
    keys = not act.is_constant
    classes = Counter((w[-1], len(w) - 1, tuple(sorted(erased)) if keys else len(erased),
                       1 if mark is None else w[1:].count(mark))
                      for w, _, erased in _grow(ctx, prefix, max_len, end, avoid, keys)
                      if end is None or w[-1] == end)
    sums: dict = {}
    for (x, m, loops, visits), cnt in classes.items():
        if x not in sums:
            sums[x] = SeriesSum(max_len)
        sums[x].add_term(m, cnt * visits * (act.weight_of_keys(loops) if keys else act.value**loops))
    return {x: acc.value() for x, acc in sums.items()}


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


def _orbit_size(d: int, k: int) -> int:
    """The walks in the orbit of a canonical walk on k of the d axes of Z^d,
    and the images of its range: 2^k d!/(d-k)! (_canonical_steps)."""
    return 2**k * perm(d, k)


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
    up to the point group, or from `start` of a finite graph.

    The partial loop erasure of a walk is a Markov chain on SAWs (Lawler
    1991), and a walk's loop weight depends only on the loops it erases. A
    state is a SAW (canonical on Z^d), its steps as base-`base` digits under a
    leading 1. Every engine reads the SAWs from one pass, saws(), steps out of
    a SAW by steps[k], counts it as sizes[k] walks and charge()s its work to
    its engine's ledger. On Z^d points are ints in radix 2n+1, k counts the
    axes used (_canonical_steps), totals() sums by endpoint orbit and
    sampling.sample_exact draws by push_frame(). On a finite graph k is the
    endpoint, numbered from `start` (default the first vertex) as 0, and a
    digit, in a base of at least 2, names a neighbour of the vertex it leaves.
    """

    def __init__(self, ctx: GraphCtx, n: int, engine="transfer engine", unit="loop-erasure states expanded",
                 start=None):
        if n < 0:
            raise PreconditionError("need a walk length n >= 0")
        self.ctx, self.d, self.n = ctx, ctx.d, n
        if ctx.is_lattice:
            self.base, self.radix = 2 * ctx.d, 2 * n + 1
            self.moves = [sum(c * self.radix**i for i, c in enumerate(v)) for v in ctx.neighbors(ctx.origin())]
            self.steps = [[(s, self.moves[s], mult, k2) for s, mult, k2 in row] for row in _canonical_steps(self.d)]
            self.sizes = [_orbit_size(self.d, k) for k in range(self.d + 1)]
            self.offset = n * sum(self.radix**i for i in range(self.d))  # makes every digit nonnegative
        else:
            verts = ctx.vertices()
            order = verts if start is None else [start] + [v for v in verts if v != start]
            index = {v: k for k, v in enumerate(order)}
            self.base, self.point, self.sizes = max(2, ctx.max_degree()), order.__getitem__, [1] * len(order)
            self.steps = [[(s, index[u] - k, 1, index[u]) for s, u in enumerate(ctx.neighbors(v))]
                          for k, v in enumerate(order)]
        self.width = (self.base**n).bit_length()  # packed N_k <= base^n, also for an orbit's total
        self.ledger = _Budget(engine, unit)
        self.charge = self.ledger.charge
        self.path, self.pos, self.codes = [], {}, []  # saws()'s current SAW

    def point(self, q) -> tuple:
        return tuple((q + self.offset) // self.radix**i % self.radix - self.n for i in range(self.d))

    def saws(self, m: int):
        """(length, endpoint, k) of each SAW (canonical on Z^d) of at most m
        steps, depth first from an explicit stack, so m is not bounded by
        the recursion limit.

        While a SAW is yielded, path holds its int points, pos maps each of
        them to its index and codes[i] is the state of its first i steps: a
        push s out of it leads to codes[-1] * base + s, a step onto path[j]
        truncates it to codes[j]. The three are updated in place.
        """
        path, pos, codes, moves, base = self.path, self.pos, self.codes, self.steps, self.base
        todo = [(0, 0, 1, 0)]  # (length, endpoint, code, axes used) of the SAWs to visit
        while todo:
            length, x, code, k = todo.pop()
            for y in path[length:]:  # back up to this SAW's parent
                del pos[y]
            del path[length:], codes[length:]
            pos[x] = length
            path.append(x)
            codes.append(code)
            yield length, x, k
            if length < m:
                for s, mv, _, k2 in moves[k]:
                    y = x + mv
                    if y not in pos:
                        todo.append((length + 1, y, code * base + s, k2))

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
        """A row keyed by int endpoints, by _orbit_key on Z^d, else by vertex."""
        out: dict = {}
        for q, w in row.items():
            key = _orbit_key(self.point(q)) if self.d else self.point(q)
            out[key] = out.get(key, 0) + w
        return out


def _saw_rows(n: int, ctx: GraphCtx, start=None) -> list:
    """_transfer's rows for an activity that weighs every loop 0: the SAWs of
    length m <= n, counted by endpoint orbit.

    One pass over the SAWs of at most n - 2 steps (_LEStates.saws) counts
    each child of each for its orbit, and expands the children of length
    n - 1 in place: no step out of one lands on it. The SAW's points are a
    set, as a (2n+1)^d occupancy map would not fit in memory for large d.
    Each SAW expanded is charged, counted down locally as in _grow.
    """
    states = _LEStates(ctx, n, "SAW counter", "canonical SAWs expanded", start)
    moves, sizes, pos = states.steps, states.sizes, states.pos
    rows = [{0: 1}] + [{} for _ in range(n)]
    last = rows[n]
    left = allowance = states.ledger.limit - states.ledger.used  # SAWs to expand before a refusal
    for length, x, k in states.saws(max(n - 2, 0)) if n else ():
        left -= 1
        if left < 0:
            states.charge(allowance - left)
        row, in_place = rows[length + 1], length == n - 2
        for _, mv, _, k2 in moves[k]:
            r = x + mv
            if r not in pos:
                row[r] = row.get(r, 0) + sizes[k2]
                if in_place:
                    left -= 1
                    for _, mv2, _, k3 in moves[k2]:
                        t = r + mv2
                        if t not in pos:
                            last[t] = last.get(t, 0) + sizes[k3]
    states.charge(allowance - left)
    return [states.totals(row) for row in rows]


def _transfer(n: int, ctx: GraphCtx, act: Optional[LoopActivity] = None, start=None) -> tuple:
    """Walks of length m <= n from the origin of Z^d, or from `start` of a
    finite graph, summed by endpoint orbit or vertex (_LEStates).

    Walks sharing a loop-erasure state at the same time are merged, and on
    Z^d an orbit's states into its canonical SAW (_forward). Constant
    activities (and act=None) decode the loop-count rows of _packed_rows,
    built once per (n, ctx, start), so a lambda sweep pays for one transfer.
    Table activities run _forward with a Fraction per state. An activity
    that weighs every loop 0 (lambda = 0, or a table of zeros) leaves only
    the SAWs, which share no states: _saw_rows counts them.

    Returns (rows, den): rows[m] maps each endpoint orbit (_orbit_key) or
    vertex to the total over the m-step walks ending in it, an int over
    den, or their counts [N_0, N_1, ...] by loop number when act is None
    (den 1). With lambda = p/q, sum_k N_k lambda^k is decoded as sum_k N_k
    p^k q^(K-k) over q^K, K the most loops in any row. Cached rows charge
    again the states their build expanded, so they are refused as a fresh
    build would be.
    """
    start = None if ctx.is_lattice or start == ctx.vertices()[0] else start  # one _packed_rows key per start vertex
    if act is not None and act.sup() == 0:
        return _saw_rows(n, ctx, start), 1
    if act is not None and not act.is_constant:
        rows = _forward(_LEStates(ctx, n, start=start), act)
        den = lcm(*[w.denominator for row in rows for w in row.values()])
        return [{key: w.numerator * (den // w.denominator) for key, w in row.items()} for row in rows], den
    rows, width, expanded = _packed_rows(n, ctx, start)
    _Budget("cached transfer rows", "loop-erasure states in their build").charge(expanded)
    mask = (1 << width) - 1

    def counts(w):
        out = []
        while w:
            out.append(w & mask)
            w >>= width
        return out

    if act is None:
        return [{key: counts(w) for key, w in row.items()} for row in rows], 1
    p, q = act.value.numerator, act.value.denominator
    top = max((w.bit_length() - 1) // width for row in rows for w in row.values())
    scale = [p**k * q ** (top - k) for k in range(top + 1)]
    return [{key: sum(map(mul, counts(w), scale)) for key, w in row.items()} for row in rows], q**top


@lru_cache(maxsize=16)
def _packed_rows(n: int, ctx: GraphCtx, start=None) -> tuple:
    """(rows, width, expanded): _forward's rows under act=None, whose
    values pack sum_k N_k lambda^k as one int with N_k in digit k of width
    bits, and the number of states charged to build them. They do not
    depend on lambda; _transfer decodes them for each activity and charges
    expanded again."""
    states = _LEStates(ctx, n, start=start)
    return tuple(_forward(states, None)), states.width, states.ledger.used


def _forward(states: _LEStates, act: Optional[LoopActivity]) -> list:
    """_transfer's rows, run forward over the SAWs of states: packed
    loop-count ints when act is None (a charged loop is a shift by
    states.width), else a Fraction weight per state, each erased loop
    weighed once per digit string (and hit point, on a finite graph).

    Level m maps each state of the m-step walks, a SAW of at most m steps, to
    its weight. One pass of states.saws(m) expands it: a push onto an unused
    axis of Z^d stands for its 2(d-k) images, and a loop-closing step onto
    path[j] truncates it to codes[j]. Level n is recorded, never stored."""
    n, moves, ctx = states.n, states.steps, states.ctx
    base, width, lattice = states.base, states.width, ctx.is_lattice
    path, pos, codes = states.path, states.pos, states.codes
    loop_weights: dict = {}  # erased loop's memo key -> activity

    one = 1 if act is None else Fraction(1)
    rows = [{0: one}] + [{} for _ in range(n)]
    level = {1: one}
    for m in range(n):
        states.charge(len(level))
        row, nxt = rows[m + 1], {}
        for length, x, k in states.saws(m):
            code = codes[-1]
            w = level.get(code)
            if w is None:  # no m-step walk ends in this SAW
                continue
            for s, mv, mult, _ in moves[k]:
                q = x + mv
                j = pos.get(q)
                if j is None:
                    child, cw = code * base + s, w * mult
                else:  # truncate at the hit point, erasing the loop after it
                    child = codes[j]
                    if act is None:
                        cw = w << width
                    else:
                        cut = base ** (length - j)
                        memo = cut + code % cut if lattice else (q, cut + code % cut)
                        if memo not in loop_weights:
                            loop = tuple(map(states.point, path[j:])) + (states.point(q),)
                            loop_weights[memo] = act.weight_of_key(sap_key(loop, ctx))
                        cw = w * loop_weights[memo]
                row[q] = row.get(q, 0) + cw
                if m < n - 1:
                    nxt[child] = nxt.get(child, 0) + cw
        level = nxt
    return [states.totals(row) for row in rows]


# ---------------------------------------------------------------------------
# closed-walk catalogs and loop measures


class _Catalog:
    """closed_walk_catalog's result: `ranges`, one (range, size, rows) per
    range, rows ((n, keys, count), ...). On a finite graph a range is a
    walk's vertex set, of size 1. On Z^d it is a canonical walk's range on
    the axes 0..k-1, its rows count canonical walks, and each of its size =
    2^k d!/(d-k)! images (the injective signed maps of those axes) holds
    them again; images() builds them on first request and keeps them.
    """

    __slots__ = ("ranges", "d", "_images")

    def __init__(self, ranges: tuple, d: Optional[int]):
        self.ranges, self.d, self._images = ranges, d, {}

    def images(self, rng, base) -> list:
        """[(image, copies)]: the distinct images of a range, each as the set
        of its points' _code in base, with the number of maps giving each (a
        symmetric range repeats); [(rng, 1)] off Z^d."""
        out = self._images.get((rng, base))
        if out is None:
            out = self._images[rng, base] = [
                (frozenset(_code(p, base) for p in image), c) for image, c in Counter(_range_images(rng, self.d)).items()
            ] if self.d else [(rng, 1)]
        return out


def closed_walk_catalog(ctx: GraphCtx, max_len: int) -> _Catalog:
    """Closed walks with 2 <= length <= max_len, rooted at the origin of Z^d
    or at every vertex of a finite graph, aggregated by (range, steps,
    erased-loop key multiset) into a _Catalog. A job is refused up front by
    _guard on every call, cached or not."""
    _guard(ctx, max_len)
    return _catalog(ctx, max_len)


@lru_cache(maxsize=None)
def _catalog(ctx: GraphCtx, max_len: int) -> _Catalog:
    """closed_walk_catalog's build.

    The walks run forward one length at a time over merged states (partial
    loop erasure, range so far, erased-loop keys) -> number of walks, as in
    _transfer: a walk is back at its root exactly when its erasure is the
    root alone. A state that can no longer reach the root in the steps left
    is dropped, each distinct erased loop is keyed once per build, and each
    state expanded is charged. On Z^d only the canonical walks are run, one
    per point-group orbit, stepping by _canonical_steps for the axes their
    range uses; an orbit shares its keys (sap_key is a point-group canonical
    form), and its walks are the images of the canonical one under the
    injective signed maps of its axes. A finite graph runs on its vertices'
    places in ctx.vertices(), as _LEStates does, decoded once per new loop and range.
    """
    lattice = ctx.is_lattice
    if lattice:
        steps = [[(u, k2) for u, _, k2 in row] for row in _canonical_units(ctx)]
    else:
        point = ctx.vertices().__getitem__
        index = {v: i for i, v in enumerate(ctx.vertices())}
    distance = ctx.distance if lattice else lambda i, r: ctx.distance(point(i), point(r))
    ledger = _Budget("closed-walk catalog", "merged states expanded")
    loop_ids: dict = {}  # erased loop -> id of its sap_key
    key_ids: dict = {}  # sap_key -> id, in order of first sight
    agg: dict = {}  # (range, n, sorted key ids) -> count
    for root in (ctx.origin(),) if lattice else range(len(index)):
        moves: dict = {}  # (vertex, axes used) -> [(next vertex, axes used, its distance to root)]
        level = {((root,), frozenset((root,)), (), 0): 1}  # (LE, range, key ids, axes used) -> walks
        for m in range(1, max_len + 1):
            ledger.charge(len(level))
            room, nxt = max_len - m, {}  # room: steps left after this one
            for (saw, rng, ids, k), cnt in level.items():
                here = saw[-1]
                out = moves.get((here, k))
                if out is None:
                    if lattice:
                        out = [(tuple(map(add, here, u)), k2) for u, k2 in steps[k]]
                    else:
                        out = [(index[v], 0) for v in ctx.neighbors(point(here))]
                    out = moves[here, k] = [(v, k2, distance(v, root)) for v, k2 in out]
                for v, k2, far in out:
                    if far > room:
                        continue
                    if v in saw:  # truncate at the hit point, erasing the loop after it
                        j = saw.index(v)
                        loop = saw[j:] + (v,)
                        i = loop_ids.get(loop)
                        if i is None:
                            key = sap_key(loop if lattice else tuple(map(point, loop)), ctx)
                            i = loop_ids[loop] = key_ids.setdefault(key, len(key_ids))
                        state = (saw[: j + 1], rng, tuple(sorted(ids + (i,))), k2)
                        if j == 0:  # back at the root
                            entry = (rng, m, state[2])
                            agg[entry] = agg.get(entry, 0) + cnt
                    else:
                        state = (saw + (v,), rng if v in rng else rng | {v}, ids, k2)
                    if room:
                        nxt[state] = nxt.get(state, 0) + cnt
            level = nxt
    names = list(key_ids)
    by_range: dict = {}
    for (rng, n, ids), cnt in agg.items():
        by_range.setdefault(rng, []).append((n, tuple(sorted(names[i] for i in ids)), cnt))
    if not lattice:
        return _Catalog(tuple((frozenset(map(point, rng)), 1, tuple(rows)) for rng, rows in by_range.items()), None)
    return _Catalog(tuple((rng, _orbit_size(ctx.d, sum(map(any, zip(*rng)))), tuple(rows))
                          for rng, rows in by_range.items()), ctx.d)


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


def _code(p, base: int) -> int:
    """The point p of Z^d as the int sum_i p_i base^i."""
    return sum(c * base**i for i, c in enumerate(p))


def _edges(rng) -> int:
    """The number of pairs of points of a range of Z^d at distance 1."""
    return sum(p[:i] + (p[i] + 1,) + p[i + 1:] in rng for p in rng for i in range(len(p)))


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


@lru_cache(maxsize=None)
def _entry_weights(act, ctx, max_len) -> tuple:
    """(den, rows): one (range, size, [(n, W), ...]) per range of
    closed_walk_catalog(ctx, max_len) of nonzero weight, W / den the w(X)/|X|
    summed over its walks of length n, over one common denominator; once per
    activity."""
    weights: dict = {}  # keys -> w
    raw = []
    for rng, size, rows in closed_walk_catalog(ctx, max_len).ranges:
        terms = []
        for n, keys, cnt in rows:
            w = weights.get(keys)
            if w is None:
                w = weights[keys] = act.weight_of_keys(keys)
            if w:
                p, q = w.numerator * cnt, w.denominator * n
                g = gcd(p, q)
                terms.append((n, p // g, q // g))
        if terms:
            raw.append((rng, size, terms))
    den = lcm(*[q for _, _, terms in raw for _, _, q in terms])
    return den, tuple((rng, size, [(n, p * (den // q)) for n, p, q in terms]) for rng, size, terms in raw)


def _mu(A, B, C, act, nmax, ctx) -> ZSeries:
    """mu(A, B; C): closed walks (any root) hitting A, and B unless B is
    None, avoiding C, weight w/|w|.

    On Z^d a range R stands for its translates: |R| of them contain a given
    point, and, summed over the `size` images of R, size E(R)/d contain both
    ends of a given unit step (E(R) counts the pairs of R at distance 1,
    each along one of 2d directions). So mu({a}) and mu({a}, {a + e}) are
    read off the canonical ranges; any other query counts the shifts (as in
    _shifts) of each image of each range, built on first request.
    """
    C = frozenset(C)
    A = frozenset(A) - C
    if B is not None:
        B = frozenset(B) - C
        if not B:
            return ZSeries.zero(nmax)
        if B == A:  # hitting B is hitting A: count each shift set once
            B = None
    if not A:
        return ZSeries.zero(nmax)
    budget = nmax - nmax % 2 if ctx.is_lattice else nmax
    cat = closed_walk_catalog(ctx, budget)
    den, rows = _entry_weights(act, ctx, budget)
    closed = ctx.is_lattice and not C and len(A) == 1 and (
        B is None or len(B) == 1 and ctx.distance(*A, *B) == 1)
    base = None
    if ctx.is_lattice and not closed:
        # points as _codes, so that a shift a - r is one int subtraction; an
        # image lies within budget / 2 of the origin, so every coordinate of a
        # shift is below base / 2 and distinct shifts keep distinct codes
        far = max(abs(c) for p in A | C | (B or frozenset()) for c in p)
        base = 1 << (far + budget).bit_length() + 1
        A, C = frozenset(_code(p, base) for p in A), frozenset(_code(p, base) for p in C)
        B = None if B is None else frozenset(_code(p, base) for p in B)

    def shifts(region, image):
        return {a - r for a in region for r in image} if base else _shifts(region, image, ctx)

    nums = [0] * (nmax + 1)
    for rng, size, terms in rows:
        if closed:
            hits = size * len(rng) if B is None else size * _edges(rng) // ctx.d
        else:
            hits = 0
            for image, copies in cat.images(rng, base):
                found = shifts(A, image)
                if B is not None:
                    found &= shifts(B, image)
                if C and found:
                    found -= shifts(C, image)
                hits += copies * len(found)
        if hits:
            for n, w in terms:
                nums[n] += hits * w
    return ZSeries.from_ints(nums, den)


def loop_measure(A, B, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """mu(A;B): closed walks (any root) hitting A, avoiding B, weight w/|w|."""
    return _mu(A, None, B, act, nmax, ctx)


def generalized_loop_measure(
    A, B, C, act: LoopActivity, nmax: int, ctx: GraphCtx
) -> ZSeries:
    """mu(A,B;C): closed walks hitting both A and B, avoiding C."""
    return _mu(A, B, C, act, nmax, ctx)


def alpha0(act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """alpha_0 = exp(mu({0})), with mu({0}) = mu(0, 0; {}) read through
    _pair_mu (on Z^d the closed form sum over ranges of size w/|W| |R|, see
    _mu)."""
    o = ctx.origin()
    return exp_series(_pair_mu(o, o, (), act, nmax, ctx))


def alpha_renorm(act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """alpha = exp(mu({0}; {y})) with y the first lexicographic neighbor,
    as mu({0}) - mu({0}, {y}) read through _pair_mu (on Z^d the closed form
    sum over ranges of size w/|W| (|R| - E(R)/d), see _mu)."""
    o = ctx.origin()
    return exp_series(_pair_mu(o, o, (), act, nmax, ctx) - _pair_mu(o, ctx.neighbors(o)[0], (), act, nmax, ctx))


# ---------------------------------------------------------------------------
# two-point functions


def _default_origin(ctx: GraphCtx):
    return ctx.origin() if ctx.is_lattice else ctx.vertices()[0]


def two_point_table(act: LoopActivity, nmax: int, ctx: GraphCtx, origin=None) -> SpatialSeries:
    """G(x) for all endpoints at once, from _transfer's rows on every call.
    On Z^d their orbit totals are _spread and translated to the origin."""
    rows, den = _transfer(nmax, ctx, act, origin)
    totals: dict = {}  # endpoint orbit or vertex -> numerators by length
    for m, row in enumerate(rows):
        for key, w in row.items():
            totals.setdefault(key, [0] * (nmax + 1))[m] = w
    if not ctx.is_lattice:
        return SpatialSeries.build({x: ZSeries.from_ints(nums, den) for x, nums in totals.items()}, nmax)
    table = _spread(totals, lambda nums, size: ZSeries.from_ints(nums, den * size))
    start = ctx.origin() if origin is None else origin
    return SpatialSeries.build({tuple(map(add, x, start)): s for x, s in table.items()}, nmax)


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


def loop_erased_two_point_table(act: LoopActivity, nmax: int, ctx: GraphCtx) -> SpatialSeries:
    """sum over SAWs eta: 0 -> x of z^{|eta|} exp(mu(range eta)).

    Theorem "LM-Rep" route to the two-point function; must agree with
    two_point_table coefficientwise. The SAWs are the canonical ones of Z^d
    (_LEStates.saws), each charged and counted for its orbit. A SAW with no
    room for a loop counts at its int endpoint, and those counts are summed
    by endpoint orbit once; only the other SAWs are decoded to points. mu of a range is invariant under translations and the
    point group, so it is computed once per _range_key (a SAW and its
    reversal share one); the key fixes |range|, hence the length and the
    budget.
    """
    states = _LEStates(ctx, nmax, "loop-erased table", "canonical SAWs")
    path, sizes = states.path, states.sizes
    bare = [{} for _ in range(nmax + 1)]  # by length: int endpoint -> SAWs with exp(mu) = 1
    totals: dict = {}  # endpoint orbit -> SeriesSum
    dressed: dict = {}  # _range_key -> exp(mu(range))
    left = allowance = states.ledger.limit - states.ledger.used  # SAWs before a refusal, counted down
    for length, x, k in states.saws(nmax):
        left -= 1
        if left < 0:
            states.charge(allowance - left)
        budget = nmax - length
        if budget < 2:  # no loop fits: exp(mu) = 1
            row = bare[length]
            row[x] = row.get(x, 0) + sizes[k]
            continue
        eta = tuple(map(states.point, path))
        rng = _range_key(eta)
        e = dressed.get(rng)
        if e is None:
            e = dressed[rng] = exp_series(loop_measure(eta, (), act, budget, ctx))
        totals.setdefault(_orbit_key(eta[-1]), SeriesSum(nmax)).add(e, length, sizes[k])
    states.charge(allowance - left)
    for length, row in enumerate(bare):
        for key, count in states.totals(row).items():
            totals.setdefault(key, SeriesSum(nmax)).add_term(length, count)
    table = _spread({key: acc.value() for key, acc in totals.items()}, lambda s, n: s * Fraction(1, n))
    return SpatialSeries.build(table, nmax)


def _range_key(points) -> tuple:
    """A finite point set of Z^d up to translation and the point group: the
    least sorted image, translated to the nonnegative orthant, over the
    signed permutations of the axes that put it in normal position.

    An axis's profile is the histogram of its coordinates, least or reversed
    to least; normal position orders the axes the set spans by profile and
    orients each to its profile. Isometric sets have the same normal
    positions, so only axes of equal profile are permuted, and only an axis
    with a symmetric histogram takes both signs.
    """
    cols = list(zip(*points))
    axes = []  # (profile, axis, signs) of each spanned axis
    for i, col in enumerate(cols):
        lo = min(col)
        hist = [0] * (max(col) - lo + 1)
        for c in col:
            hist[c - lo] += 1
        if len(hist) > 1:
            rev = hist[::-1]
            axes.append((min(hist, rev), i, (1, -1) if hist == rev else (1,) if hist < rev else (-1,)))
    axes.sort()
    best = None
    for order in product(*[permutations(g) for _, g in groupby(axes, key=lambda a: a[0])]):
        chosen = [a for g in order for a in g]
        for signs in product(*[a[2] for a in chosen]):
            oriented = [[s * c for c in cols[a[1]]] for s, a in zip(signs, chosen)]
            image = sorted(zip(*[[c - min(col) for c in col] for col in oriented]))
            if best is None or image < best:
                best = image
    return tuple(best)


@lru_cache(maxsize=None)
def _mu_pair(delta, interior: frozenset, act: LoopActivity, budget: int, ctx: GraphCtx) -> ZSeries:
    """mu(0, delta; interior) truncated at budget (translation-normalized): the
    one cache of alpha_0, alpha, the I-factors and the X-dressing (_pair_mu)."""
    if budget < 2:
        return ZSeries.zero(budget if budget >= 0 else 0)
    return generalized_loop_measure(
        frozenset([ctx.origin()]), frozenset([delta]), interior, act, budget, ctx
    )


def _pair_mu(wa, wb, interior, act, budget, ctx) -> ZSeries:
    """mu(wa, wb; interior) truncated at `budget`: on Z^d translated to
    wa = 0 and read from _mu_pair, after the up-front refusal (_guard) of
    the catalog it reads, so that a job is refused cached or not."""
    if ctx.is_lattice:
        _guard(ctx, budget - budget % 2)
        delta = tuple(map(sub, wb, wa))
        inter = frozenset(tuple(map(sub, v, wa)) for v in interior)
        return _mu_pair(delta, inter, act, budget, ctx)
    return generalized_loop_measure(
        frozenset([wa]), frozenset([wb]), frozenset(interior), act, budget, ctx
    )


def _i_factor(wa, wb, interior, act, budget, ctx) -> ZSeries:
    """I^omega = 1 - exp(-mu(wa, wb; interior)) between two marked times,
    truncated at `budget`; 1 when wa = wb."""
    if wa == wb:
        return ZSeries.one(budget)
    return ZSeries.one(budget) - exp_series(-_pair_mu(wa, wb, interior, act, budget, ctx))


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
    for n, row in enumerate(_transfer(n_max, GraphCtx.lattice(d))[0]):
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
    """Susceptibility: endpoint-summed walk weights (from the first vertex of
    a finite graph). lambda = 1 on Z^d is the simple random walk (every loop
    weighs 1), so chi_m = (2d)^m; every other sum adds up _transfer's rows,
    which cover every endpoint."""
    if ctx.is_lattice and act.is_constant and act.value == 1:
        return ZSeries.from_ints([(2 * ctx.d) ** m for m in range(nmax + 1)], 1)
    rows, den = _transfer(nmax, ctx, act)
    return ZSeries.from_ints([sum(row.values()) for row in rows], den)


# ---------------------------------------------------------------------------
# visit identities and bubble chains


def visit_weighted_closed_sum(x, y, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """sum over closed walks at x of |{j>=1: w_j = y}| * weight."""
    return _tally(ctx, (x,), act, nmax, x, mark=y)[x]  # the 0-step walk ends at x


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
    acc = SeriesSum(nmax)
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
            tail = _tally(ctx, piece + (x,), act, nmax - used, x, forbidden)[x]
            acc.add(tail, used, factor * lam**k)

    forward(0, Fraction(1))
    return acc.value()


def upper_bubble_chain(x, y, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """BC upper bound: alpha0 sum_k lambda^k (Hbar^2)^{*k}(y-x); x=y gives
    alpha0(alpha0-1)."""
    if not ctx.is_lattice:
        raise PreconditionError("upper bubble chain is lattice-only")
    lam = act.constant_value()
    a0 = alpha0(act, nmax, ctx)
    if x == y:
        return a0 * (a0 - ZSeries.one(nmax))
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
    return _tally(ctx, (x,), act, nmax, y, frozenset([x]), b).get(y, ZSeries.zero(nmax))


def split_visit_sum_rhs(x, y, b, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """RHS of the splitting identity: split at the last loop-erasure point a,
    with a restricted bubble chain from a to b."""
    if x == y or b == x:
        raise PreconditionError("need x != y and b != x")
    _guard(ctx, nmax)
    acc = SeriesSum(nmax)
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
        acc.add(factor * inner, length, act.weight_of_keys(erased))
    return acc.value()


def diagrams(act: LoopActivity, nmax: int, ctx: GraphCtx) -> dict:
    """Triangle and square diagrams in x-space: (H*H*H)(0) and (H*H*H*H)(0)."""
    h = reduced_table(act, nmax, ctx)
    h2 = spatial_convolve(h, h)
    h3 = spatial_convolve(h2, h)
    h4 = spatial_convolve(h3, h)
    origin = ctx.origin()
    return {"triangle": h3.at(origin), "square": h4.at(origin)}
