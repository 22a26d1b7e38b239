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
from functools import cached_property, lru_cache

from .core import GraphCtx, LoopActivity, PreconditionError, _erase, sap_key
from .series import SeriesSum, ZSeries, reciprocal
from .enumeration import _guard, loop_measure, saws


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
        return OrientedCycle(_least_rotation(cyc))

    def __len__(self) -> int:
        return len(self.seq)

    def __post_init__(self):  # the vertex set, built once: concurrency tests read it
        object.__setattr__(self, "_vertex_set", frozenset(self.seq))

    def vertices(self) -> frozenset:
        return self._vertex_set

    def rooted_at(self, v) -> tuple:
        """The unique representative (c_0 .. c_k) with c_0 = v (closed)."""
        i = self.seq.index(v)
        rep = self.seq[i:] + self.seq[:i]
        return rep + (v,)

    def reversed_cycle(self) -> "OrientedCycle":
        return OrientedCycle(_least_rotation(self.seq[::-1]))


def _least_rotation(cyc: tuple) -> tuple:
    """The least rotation of a sequence of distinct vertices: the one that
    starts at its least vertex."""
    i = cyc.index(min(cyc))
    return cyc[i:] + cyc[:i]


def concurrent(c1: OrientedCycle, c2: OrientedCycle) -> bool:
    return not c1.vertices().isdisjoint(c2.vertices())


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

    @cached_property
    def _maxima(self) -> list:  # built once: LegalPair and loop_addition read it
        return _maximal(self.pieces)

    def maximal_pieces(self) -> list:
        """Pieces with no concurrent piece above them (poppable from the top)."""
        return list(self._maxima)


def _maximal(pieces) -> list:
    """(index, piece) of each piece of a linear extension of a heap that no
    later piece is concurrent with: the same set for every extension. One
    backward pass: a piece is maximal when it misses the union of the
    vertex sets after it."""
    out, above = [], set()
    for i in reversed(range(len(pieces))):
        if above.isdisjoint(pieces[i].vertices()):
            out.append((i, pieces[i]))
        above |= pieces[i].vertices()
    return out[::-1]


def _canonical_order(seq: tuple) -> tuple:
    """Greedy Cartier-Foata linearization: repeatedly emit all minimal pieces
    (no earlier remaining piece concurrent with them), sorted by cycle key.
    One pass per level: a piece is minimal when it misses the union of the
    vertex sets of the remaining pieces before it."""
    items = list(seq)
    out = []
    while items:
        minimal, rest, below = [], [], set()
        for p in items:
            verts = p.vertices()
            (minimal if below.isdisjoint(verts) else rest).append(p)
            below |= verts
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
        return not any(rng.isdisjoint(p.vertices()) for _, p in self.heap._maxima)


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

    Each pop inserts the maximal piece whose first hit along the walk comes
    last, at that hit (walk_order_max, then loop_insert): a lone maximum at
    its first hit, several (disjoint) by one scan of the walk that stops once
    all are hit. The heap's cached maxima come first, then _maximal's.

    When `trace` is a list the inserted cycles are appended in insertion
    order (the last entry is the first loop a subsequent erasure removes).
    An illegal pair raises PreconditionError at the first pop, before any
    insertion: a maximal piece that misses eta is never hit. A piece that
    becomes maximal later lay under the cycle just inserted, so it meets
    the walk.
    """
    w, pieces = pair.eta, list(pair.heap.pieces)  # a linear extension stays one as maxima pop
    maxima = pair.heap._maxima
    while maxima:
        if len(maxima) == 1:
            [(i, c)] = maxima
            verts = c.vertices()
            for t, v in enumerate(w):
                if v in verts:
                    break
            else:
                raise PreconditionError("cycle does not intersect the walk")
        else:
            owner = {v: i for i, p in maxima for v in p.seq}  # vertex -> index of its maximum
            for t, v in enumerate(w):
                i = owner.get(v)
                if i is not None:
                    for u in pieces[i].seq:
                        del owner[u]
                    if not owner:  # every maximum is hit, piece i last
                        break
            else:
                raise PreconditionError("cycle does not intersect the walk")
        c = pieces.pop(i)
        k = c.seq.index(v)  # c goes in rotated to start at v, before v's visit
        w = w[:t] + c.seq[k:] + c.seq[:k] + w[t:]
        if trace is not None:
            trace.append(c)
        maxima = _maximal(pieces) if len(pieces) > 1 else list(enumerate(pieces))  # one left is maximal
    return w


def loop_erasure_to_pair(w) -> LegalPair:
    """Total loop erasure: (LE(w), heap of erased cycles in erasure order)."""
    saw, erased = _erase(w)
    heap = CycleHeap.of(OrientedCycle.from_closed_walk(loop) for loop in erased)
    return LegalPair(eta=saw, heap=heap)


# ---------------------------------------------------------------------------
# trivial heaps and the cycle gas (finite graphs only)


def all_oriented_cycles(ctx: GraphCtx, max_len: int):
    """All oriented cycles of length 2..max_len on a finite graph: each is a
    SAW of at most max_len - 1 steps whose end neighbours its start, closed.
    A job is refused up front by _guard on every call, cached or not."""
    if ctx.is_lattice:
        raise PreconditionError("finite graph mode only")
    _guard(ctx, max_len - 1)
    return _oriented_cycles(ctx, max_len)


@lru_cache(maxsize=None)
def _oriented_cycles(ctx: GraphCtx, max_len: int):
    out = set()
    for root in ctx.vertices():
        for eta in saws(ctx, root, max_len - 1):
            if len(eta) >= 2 and root in ctx.neighbors(eta[-1]):
                out.add(OrientedCycle.from_closed_walk(eta + (root,)))
    return tuple(sorted(out, key=lambda c: c.seq))


def all_heaps(cycles, max_size: int):
    """Every heap of pieces from `cycles` of total size <= max_size, once.

    Each heap is grown as its lexicographically least linear extension,
    pieces ordered as listed (Viennot, "Heaps of pieces I", 1986): a piece
    may follow a sequence unless it commutes back past a larger piece, that
    is, past a later-listed piece before reaching one it is concurrent with.
    """
    cycles = tuple(cycles)
    sizes = [len(c) for c in cycles]
    seq = []  # indices into cycles

    def commutes_past_larger(j):
        for i in reversed(seq):
            if concurrent(cycles[i], cycles[j]):
                return False
            if i > j:
                return True
        return False

    def grow(budget):
        yield CycleHeap.of(cycles[i] for i in seq)
        for j, k in enumerate(sizes):
            if k <= budget and not commutes_past_larger(j):
                seq.append(j)
                yield from grow(budget - k)
                seq.pop()

    yield from grow(max_size)


def _activity(c: OrientedCycle, act: LoopActivity, ctx: GraphCtx) -> Fraction:
    """The activity of the polygon class of C."""
    if act.is_constant:
        return act.value
    return act.weight_of_key(sap_key(c.rooted_at(c.seq[0]), ctx))


def cycle_weight(c: OrientedCycle, act: LoopActivity, nmax: int, ctx: GraphCtx) -> ZSeries:
    """z^{|C|} times the activity of the polygon class of C."""
    return ZSeries.monomial(_activity(c, act, ctx), len(c), nmax)


def _heap_pieces(ctx: GraphCtx, act: LoopActivity, nmax: int, unoriented: bool) -> list:
    """(vertex set, degree k, coefficient c) of each piece of a trivial-heap
    sum whose signed weight c z^k is nonzero at order nmax.

    Oriented cycles weigh -w(C). With unoriented=True one orientation of
    each cycle stands for both: -2 w(C) for length > 2, -w(C) for trivial
    cycles.
    """
    seen = set()
    out = []
    for c in all_oriented_cycles(ctx, nmax):
        mult = 1
        if unoriented:
            base = min(c.seq, c.reversed_cycle().seq)
            if base in seen:
                continue
            seen.add(base)
            mult = 1 if len(c) == 2 else 2
        coeff = -mult * _activity(c, act, ctx)
        if coeff:
            out.append((c.vertices(), len(c), coeff))
    return out


def _heap_sum(pieces: list, forbidden: frozenset, nmax: int) -> ZSeries:
    """Sum over sets of pairwise disjoint pieces avoiding `forbidden` of the
    product of their weights (the empty set gives 1): a DFS over the
    independent sets of the concurrency graph. Every weight is a monomial,
    so a set carries its (degree, coefficient) and stops growing past nmax."""
    pieces = [p for p in pieces if not p[0] & forbidden]
    total = SeriesSum(nmax)

    def dfs(start, chosen_verts, degree, coeff):
        total.add_term(degree, coeff)
        for i in range(start, len(pieces)):
            verts, k, c = pieces[i]
            if degree + k <= nmax and chosen_verts.isdisjoint(verts):
                dfs(i + 1, chosen_verts | verts, degree + k, coeff * c)

    dfs(0, frozenset(), 0, Fraction(1))
    return total.value()


def trivial_heap_sum(forbidden, ctx: GraphCtx, act: LoopActivity, nmax: int) -> ZSeries:
    """Signed sum over sets of pairwise disjoint cycles avoiding `forbidden`.

    Equals exp(-(loop measure of closed walks avoiding forbidden)) by the
    heap theorem; diverges on infinite lattices, so finite graphs only.
    """
    return _heap_sum(_heap_pieces(ctx, act, nmax, False), frozenset(forbidden), nmax)


def closed_walk_loop_sum(forbidden, ctx: GraphCtx, act: LoopActivity, nmax: int) -> ZSeries:
    """sum over closed walks avoiding `forbidden` of w/|w| (all roots): the
    loop measure mu(V - F; F) with F = `forbidden`, since a closed walk that
    avoids F lies in V - F."""
    return loop_measure(frozenset(ctx.vertices()).difference(forbidden), forbidden, act, nmax, ctx)


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
    pieces = _heap_pieces(ctx, act, nmax, unoriented)
    num = ZSeries.sum((_heap_sum(pieces, frozenset(eta), nmax).shift(len(eta) - 1)
                       for eta in saws(ctx, start, nmax) if eta[-1] == x), nmax)
    return num * reciprocal(_heap_sum(pieces, frozenset(), nmax))


def unoriented_heap_sum(forbidden, ctx: GraphCtx, act: LoopActivity, nmax: int) -> ZSeries:
    """Trivial-heap sum with orientations of long cycles pre-summed.

    Unoriented cycles of length > 2 get weight -2*lambda z^{|C|}; trivial
    cycles -lambda z^2.
    """
    return _heap_sum(_heap_pieces(ctx, act, nmax, True), frozenset(forbidden), nmax)


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
