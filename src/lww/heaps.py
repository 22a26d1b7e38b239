"""Heaps of oriented cycles and Viennot's bijection.

Oriented cycles are equivalence classes of self-avoiding polygons under
cyclic rotation (orientation kept; a trivial two-step cycle has a single
orientation). Heaps are stored as composition sequences with a
Cartier-Foata canonical form; two pieces are concurrent when their vertex
sets intersect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import GraphCtx, LoopActivity, PreconditionError, loop_erase
from .series import ZSeries
from .enumeration import WalkConstraint, walk_sum, _per_length_division


@dataclass(frozen=True)
class OrientedCycle:
    """Cyclic vertex sequence, canonical under rotation of the start."""

    seq: tuple  # k vertices, k >= 2; successive (and last->first) adjacent

    @staticmethod
    def from_closed_walk(w) -> "OrientedCycle":
        if w[0] != w[-1] or len(w) < 3:
            raise PreconditionError("need a closed walk of length >= 2")
        cyc = w[:-1]
        if len(set(cyc)) != len(cyc):
            raise PreconditionError("not a self-avoiding polygon")
        k = len(cyc)
        best = min(cyc[i:] + cyc[:i] for i in range(k))
        return OrientedCycle(best)

    def __len__(self) -> int:
        return len(self.seq)

    def vertices(self) -> frozenset:
        return frozenset(self.seq)

    def rooted_at(self, v) -> tuple:
        """The unique representative (c_0 .. c_k) with c_0 = v (closed)."""
        i = self.seq.index(v)
        rep = self.seq[i:] + self.seq[:i]
        return rep + (v,)

    def reversed_cycle(self) -> "OrientedCycle":
        rev = tuple(reversed(self.seq))
        k = len(rev)
        return OrientedCycle(min(rev[i:] + rev[:i] for i in range(k)))


def concurrent(c1: OrientedCycle, c2: OrientedCycle) -> bool:
    return bool(c1.vertices() & c2.vertices())


@dataclass(frozen=True)
class CycleHeap:
    """Heap of pieces in Cartier-Foata normal form.

    pieces: the canonical linear extension. Internally rebuilt from any
    composition order via greedy levels with a lexicographic tie-break.
    """

    pieces: tuple  # tuple of OrientedCycle in canonical order

    @staticmethod
    def empty() -> "CycleHeap":
        return CycleHeap(())

    @staticmethod
    def of(sequence) -> "CycleHeap":
        return CycleHeap(_canonical_order(tuple(sequence)))

    def compose(self, c: OrientedCycle) -> "CycleHeap":
        return CycleHeap.of(self.pieces + (c,))

    def __len__(self) -> int:
        return len(self.pieces)

    def size(self) -> int:
        return sum(len(p) for p in self.pieces)

    def maximal_pieces(self) -> list:
        """Pieces with no concurrent piece above them (poppable from the top)."""
        out = []
        for i, p in enumerate(self.pieces):
            if not any(concurrent(p, q) for q in self.pieces[i + 1 :]):
                out.append((i, p))
        return out

    def remove_at(self, idx: int) -> "CycleHeap":
        return CycleHeap.of(self.pieces[:idx] + self.pieces[idx + 1 :])

    def labels(self) -> tuple:
        return tuple(sorted(p.seq for p in self.pieces))


def _canonical_order(seq: tuple) -> tuple:
    """Greedy Cartier-Foata linearization: repeatedly emit all minimal pieces
    (no earlier remaining piece concurrent with them), sorted by cycle key."""
    items = list(seq)
    out = []
    while items:
        minimal, rest = [], []
        for pos, p in enumerate(items):
            blocked = any(concurrent(p, items[k]) for k in range(pos))
            (rest if blocked else minimal).append(p)
        minimal.sort(key=lambda c: c.seq)
        out.extend(minimal)
        items = rest
    return tuple(out)


@dataclass(frozen=True)
class LegalPair:
    """A SAW together with a heap whose maximal pieces all touch the SAW."""

    eta: tuple
    heap: CycleHeap

    def is_legal(self) -> bool:
        rng = set(self.eta)
        return all(p.vertices() & rng for _, p in self.heap.maximal_pieces())


def loop_insert(w, c: OrientedCycle):
    """Insert c into w at the first vertex of w lying on c."""
    hit = None
    verts = c.vertices()
    for i, v in enumerate(w):
        if v in verts:
            hit = i
            break
    if hit is None:
        raise PreconditionError("cycle shares no vertex with the walk")
    rep = c.rooted_at(w[hit])
    return w[:hit] + rep + w[hit + 1 :]


def walk_order_max(w, cycles):
    """The cycle whose first-hit time along w is largest.

    Each cycle must intersect w and the first-hit times must be distinct
    (pairwise disjoint cycles, e.g. the maximal pieces of a heap, always
    are).
    """
    best = None
    best_t = -1
    seen_times = set()
    for c in cycles:
        verts = c.vertices()
        t = next((i for i, v in enumerate(w) if v in verts), None)
        if t is None:
            raise PreconditionError("cycle does not intersect the walk")
        if t in seen_times:
            raise PreconditionError("tied first-hit times: walk order not strict")
        seen_times.add(t)
        if t > best_t:
            best, best_t = c, t
    return best


def loop_addition(pair: LegalPair, trace=None):
    """Rebuild the walk from a legal pair (inverse of total loop erasure).

    When `trace` is a list the inserted cycles are appended in insertion
    order (the last entry is the first loop a subsequent erasure removes).
    """
    if not pair.is_legal():
        raise PreconditionError("pair is not legal")
    w = pair.eta
    heap = pair.heap
    while len(heap):
        maxima = heap.maximal_pieces()
        labels = [p for _, p in maxima]
        c = walk_order_max(w, labels)
        idx = next(i for i, p in maxima if p == c)
        w = loop_insert(w, c)
        heap = heap.remove_at(idx)
        if trace is not None:
            trace.append(c)
    return w


def loop_erasure_to_pair(w) -> LegalPair:
    """Total loop erasure: (LE(w), heap of erased cycles in erasure order)."""
    saw, _, erased = loop_erase(w)
    heap = CycleHeap.empty()
    for loop in erased:
        heap = heap.compose(OrientedCycle.from_closed_walk(loop))
    return LegalPair(eta=saw, heap=heap)


# ---------------------------------------------------------------------------
# trivial heaps and the cycle gas (finite graphs only)


@lru_cache(maxsize=None)
def all_oriented_cycles(ctx: GraphCtx, max_len: int):
    """All oriented cycles of length 2..max_len on a finite graph."""
    if ctx.is_lattice:
        raise PreconditionError("finite graph mode only")
    out = set()
    verts = ctx.vertices()
    for root in verts:
        # DFS for self-avoiding closed walks from root
        def dfs(path):
            v = path[-1]
            for w in ctx.neighbors(v):
                if w == root and len(path) >= 2:
                    out.add(OrientedCycle.from_closed_walk(tuple(path) + (root,)))
                if w in path or len(path) > max_len - 1:
                    continue
                dfs(path + [w])

        dfs([root])
    return tuple(sorted(out, key=lambda c: c.seq))


def cycle_weight(c: OrientedCycle, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """z^{|C|} times the activity of the polygon class of C."""
    if act.is_constant:
        lam = act.value
    else:
        from .core import sap_key

        lam = act.weight_of_key(sap_key(c.rooted_at(c.seq[0]), ctx))
    return ZSeries.monomial(lam, len(c), nmax)


def trivial_heap_sum(forbidden, ctx: GraphCtx, act: LoopActivity, nmax: int) -> ZSeries:
    """Signed sum over sets of pairwise disjoint cycles avoiding `forbidden`.

    Equals exp(-(loop measure of closed walks avoiding forbidden)) by the
    heap theorem; diverges on infinite lattices, so finite graphs only.
    """
    if ctx.is_lattice:
        raise PreconditionError("finite graph mode only")
    forbidden = frozenset(forbidden)
    cycles = [
        c
        for c in all_oriented_cycles(ctx, nmax)
        if not (c.vertices() & forbidden) and len(c) <= nmax
    ]
    total = [ZSeries.one(nmax)]

    # DFS over independent sets of the concurrency graph
    def dfs(start, chosen_verts, weight: ZSeries):
        for i in range(start, len(cycles)):
            c = cycles[i]
            if chosen_verts & c.vertices():
                continue
            w2 = weight * cycle_weight(c, act, nmax, ctx) * Fraction(-1)
            if w2.is_zero():
                continue
            total[0] = total[0] + w2
            dfs(i + 1, chosen_verts | c.vertices(), w2)

    dfs(0, frozenset(), ZSeries.one(nmax))
    return total[0]


def closed_walk_loop_sum(forbidden, ctx: GraphCtx, act: LoopActivity, nmax: int) -> ZSeries:
    """sum over closed walks avoiding `forbidden` of w/|w| (all roots)."""
    forbidden = frozenset(forbidden)
    acc = ZSeries.zero(nmax)
    for v in ctx.vertices():
        if v in forbidden:
            continue
        raw = walk_sum(
            WalkConstraint(start=v, end=v, must_avoid=forbidden, min_len=1, max_len=nmax),
            act,
            nmax,
            ctx,
        )
        acc = acc + _per_length_division(raw)
    return acc


def cycle_gas_two_point(x, ctx: GraphCtx, act: LoopActivity, nmax: int, origin=None, unoriented: bool = False) -> ZSeries:
    """Two-point function of the cycle gas: ratio of signed partition sums.

    numerator: SAWs 0 -> x together with disjoint cycle collections avoiding
    the SAW; denominator: the full trivial-heap sum. Equals the walk
    two-point function on the graph. With unoriented=True the same ratio is
    assembled from unoriented cycles at weight -2*lambda (length > 2) and
    -lambda (trivial), checking the orientation bookkeeping.
    """
    if ctx.is_lattice:
        raise PreconditionError("finite graph mode only")
    start = origin if origin is not None else ctx.vertices()[0]
    denom = (
        trivial_heap_sum(frozenset(), ctx, act, nmax)
        if not unoriented
        else unoriented_heap_sum(frozenset(), ctx, act, nmax)
    )
    num = ZSeries.zero(nmax)

    def saw_walks(path):
        yield tuple(path)
        if len(path) - 1 >= nmax:
            return
        for w in ctx.neighbors(path[-1]):
            if w in path:
                continue
            path.append(w)
            yield from saw_walks(path)
            path.pop()

    for eta in saw_walks([start]):
        if eta[-1] != x:
            continue
        n = len(eta) - 1
        ths = (
            trivial_heap_sum(frozenset(eta), ctx, act, nmax)
            if not unoriented
            else unoriented_heap_sum(frozenset(eta), ctx, act, nmax)
        )
        num = num + ths.shift(n)
    from .series import reciprocal

    return num * reciprocal(denom)


def unoriented_heap_sum(forbidden, ctx: GraphCtx, act: LoopActivity, nmax: int) -> ZSeries:
    """Trivial-heap sum with orientations of long cycles pre-summed.

    Unoriented cycles of length > 2 get weight -2*lambda z^{|C|}; trivial
    cycles -lambda z^2.
    """
    if ctx.is_lattice:
        raise PreconditionError("finite graph mode only")
    forbidden = frozenset(forbidden)
    seen = set()
    unoriented = []
    for c in all_oriented_cycles(ctx, nmax):
        if c.vertices() & forbidden or len(c) > nmax:
            continue
        base = min(c.seq, c.reversed_cycle().seq)
        if base in seen:
            continue
        seen.add(base)
        unoriented.append(c)
    total = [ZSeries.one(nmax)]

    def wgt(c: OrientedCycle) -> ZSeries:
        mult = 1 if len(c) == 2 else 2
        w = cycle_weight(c, act, nmax, ctx) * Fraction(-mult)
        return w

    def dfs(start, chosen_verts, weight: ZSeries):
        for i in range(start, len(unoriented)):
            c = unoriented[i]
            if chosen_verts & c.vertices():
                continue
            w2 = weight * wgt(c)
            if w2.is_zero():
                continue
            total[0] = total[0] + w2
            dfs(i + 1, chosen_verts | c.vertices(), w2)

    dfs(0, frozenset(), ZSeries.one(nmax))
    return total[0]


def box_graph(w: int, h: int) -> GraphCtx:
    """(w x h)-vertex grid graph with integer-pair vertices."""
    verts = [(i, j) for i in range(w) for j in range(h)]
    edges = []
    for i, j in verts:
        if i + 1 < w:
            edges.append(((i, j), (i + 1, j)))
        if j + 1 < h:
            edges.append(((i, j), (i, j + 1)))
    return GraphCtx.finite(verts, edges)
