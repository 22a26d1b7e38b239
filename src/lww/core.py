"""Lattice geometry, walk algebra, loop erasure, and polygon classification.

Walks are tuples of vertices. On the integer lattice a vertex is a tuple of
d ints; on a finite graph a vertex is whatever hashable the graph uses.
Everything here is immutable and value-semantic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

Point = tuple
Walk = tuple


class DomainError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class GraphCtx:
    """Neighbor structure: infinite Z^d lattice or an explicit finite graph.

    Finite graphs carry a symmetric adjacency map vertex -> sorted tuple of
    neighbors (stored as a sorted tuple of pairs so the context is hashable).
    Lattice mode has degree exactly 2d everywhere.
    """

    d: int = 0
    adjacency: Optional[tuple] = None

    @staticmethod
    def lattice(d: int) -> "GraphCtx":
        if d < 1:
            raise DomainError("dimension must be >= 1")
        return GraphCtx(d=d, adjacency=None)

    @staticmethod
    def finite(vertices, edges) -> "GraphCtx":
        adj = {v: set() for v in vertices}
        for a, b in edges:
            if a == b:
                raise DomainError("self-loops not allowed")
            if a not in adj or b not in adj:
                raise DomainError("edge endpoint not in vertex list")
            adj[a].add(b)
            adj[b].add(a)
        rows = tuple(sorted((v, tuple(sorted(ns))) for v, ns in adj.items()))
        return GraphCtx(d=0, adjacency=rows)

    @property
    def is_lattice(self) -> bool:
        return self.adjacency is None

    @cached_property
    def _adj(self) -> dict:
        """The adjacency as a dict, built on first use; equality and hash
        read the fields only, so a context stays a valid cache key."""
        return dict(self.adjacency)

    @cached_property
    def _dist(self) -> dict:
        """All-pairs BFS distances; unreachable pairs get a big value."""
        adj = self._adj
        big = 10**9
        dist = {}
        for src in adj:
            row = {v: big for v in adj}
            row[src] = 0
            frontier = [src]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if row[v] > d:
                            row[v] = d
                            nxt.append(v)
                frontier = nxt
            dist[src] = row
        return dist

    def max_degree(self) -> int:
        if self.is_lattice:
            return 2 * self.d
        return max((len(ns) for _, ns in self.adjacency), default=0)

    def origin(self):
        if self.is_lattice:
            return (0,) * self.d
        raise DomainError("finite graph has no canonical origin")

    def neighbors(self, p):
        """Neighbors of p in deterministic (lexicographic) order: on Z^d
        p - e_0, .., p - e_{d-1}, then p + e_{d-1}, .., p + e_0."""
        if self.is_lattice:
            q, out = list(p), []
            for i in range(self.d):
                q[i] -= 1
                out.append(tuple(q))
                q[i] += 1
            for i in reversed(range(self.d)):
                q[i] += 1
                out.append(tuple(q))
                q[i] -= 1
            return out
        adj = self._adj
        if p not in adj:
            raise DomainError(f"vertex {p!r} not in graph")
        return list(adj[p])

    def contains(self, p) -> bool:
        return self.is_lattice or p in self._adj

    def vertices(self):
        if self.is_lattice:
            raise DomainError("infinite lattice")
        return [v for v, _ in self.adjacency]

    def distance(self, p, q) -> int:
        """Graph distance (L1 on the lattice, BFS on finite graphs)."""
        if self.is_lattice:
            return l1(p, q)
        return self._dist[p][q]


def l1(p, q) -> int:
    return sum(abs(a - b) for a, b in zip(p, q))


def concat(w1: Walk, w2: Walk) -> Walk:
    """Concatenation w1 o w2; the shared endpoint appears once."""
    if not w1 or not w2:
        raise PreconditionError("walks must be nonempty vertex sequences")
    if w1[-1] != w2[0]:
        raise PreconditionError("end of w1 must equal start of w2")
    return w1 + w2[1:]


def diamond_concat(w1: Walk, w2: Walk, ctx: GraphCtx) -> Walk:
    """w1, one connecting step, then w2 (endpoints must be adjacent)."""
    if w2[0] not in ctx.neighbors(w1[-1]):
        raise PreconditionError("endpoints not adjacent")
    return w1 + w2


def is_saw(w: Walk) -> bool:
    return len(set(w)) == len(w)


def classify(w: Walk) -> str:
    """'SAW', 'SAP', 'Loop' or 'General'.

    SAP: the only repeated vertex is first = last, length >= 2.
    """
    if is_saw(w):
        return "SAW"
    closed = w[0] == w[-1]
    if closed and len(w) >= 3 and len(set(w)) == len(w) - 1:
        return "SAP"
    return "Loop" if closed else "General"


def single_loop_erase(w: Walk):
    """One step of chronological loop erasure.

    Returns (walk after erasing the first loop, the removed loop) or
    (w, None) when w is self-avoiding.
    """
    seen = {}
    for i, v in enumerate(w):
        if v in seen:
            tau_star, tau = seen[v], i
            removed = w[tau_star : tau + 1]
            return w[: tau_star + 1] + w[tau + 1 :], removed
        seen[v] = i
    return w, None


@dataclass(frozen=True)
class LoopRecord:
    """Multiset of canonical keys of loops erased from a walk."""

    loops: tuple  # sorted tuple of SapKeys (with multiplicity)
    count: int


def _erase(w: Walk):
    """Chronological loop erasure by a stack: (SAW, erased loops in order)."""
    stack, pos, erased = [], {}, []
    for v in w:
        j = pos.get(v)
        if j is None:
            pos[v] = len(stack)
            stack.append(v)
        else:
            erased.append(tuple(stack[j:]) + (v,))
            for u in stack[j + 1 :]:
                del pos[u]
            del stack[j + 1 :]
    return tuple(stack), erased


def loop_erase(w: Walk, ctx: Optional[GraphCtx] = None):
    """Full chronological loop erasure.

    Returns (saw, LoopRecord, erased walks in erasure order). The record
    canonicalizes each erased loop with sap_key (lattice isometries are
    quotiented only in lattice mode). A caller that reads no key calls
    _erase, which returns (saw, erased walks) without computing any.
    """
    saw, erased = _erase(w)
    keys = tuple(sorted(sap_key(e, ctx) for e in erased))
    return saw, LoopRecord(loops=keys, count=len(erased)), erased


def loop_count(w: Walk) -> int:
    """Number of loops removed by loop erasure."""
    return len(_erase(w)[1])


def loop_erase_last_exit(w: Walk) -> Walk:
    """Loop erasure via the last-exit recursion l_k = sup{j: w_j = w_{l_{k-1}}}+1."""
    return tuple(w[i] for i in last_exit_indices(w))


def last_exit_indices(w: Walk):
    """Indices l_0, l_1, ... of Prop LE-LE (those <= |w|)."""
    idxs = [0]
    ell = 0
    n = len(w) - 1
    while True:
        v = w[ell]
        last = max(j for j in range(len(w)) if w[j] == v)
        ell = last + 1
        if ell > n:
            return idxs
        idxs.append(ell)


def preimage_segments(w: Walk, cut_times) -> list:
    """Split w at loop-erasure times; diamond-concatenation reassembles w.

    cut_times must be strictly increasing, start at 0 and end at |LE(w)|.
    Segment i is w[l_{t_i} .. l_{t_{i+1}}-1]; the final segment runs to the
    end of w. Loop-erasing segment i gives LE(w)[t_i .. t_{i+1}-1] (the final
    segment gives the closing piece of LE(w)).
    """
    ell = last_exit_indices(w)
    k = len(ell) - 1  # |LE(w)|
    cuts = list(cut_times)
    if (
        not cuts
        or cuts[0] != 0
        or cuts[-1] != k
        or any(a >= b for a, b in zip(cuts, cuts[1:]))
        or any(t < 0 or t > k for t in cuts)
    ):
        raise PreconditionError("cut times must strictly increase from 0 to |LE(w)|")
    if len(cuts) == 1:  # zero-step loop erasure: whole walk is one segment
        return [w]
    segs = []
    for i in range(len(cuts) - 1):
        a = ell[cuts[i]]
        b = ell[cuts[i + 1]] - 1 if i < len(cuts) - 2 else len(w) - 1
        segs.append(w[a : b + 1])
    return segs


def shrinking_times(eta: Walk, omega: Walk):
    """Shrinking times of the SAW eta by omega: list of (s_k, t_k).

    omega must begin at eta's endpoint. eta^0 is eta minus its final vertex;
    s_k is the first hit of eta^{k-1} by omega, t_k the index of the hit
    vertex in eta, and eta^k = eta[0:t_k). t_k is strictly decreasing.
    """
    if not is_saw(eta):
        raise PreconditionError("eta must be self-avoiding")
    if omega[0] != eta[-1]:
        raise PreconditionError("omega must start at eta's endpoint")
    index = {v: i for i, v in enumerate(eta)}
    cur = len(eta) - 1  # eta^k = eta[0:cur], shrinking prefix length
    out = []
    for s in range(len(omega)):
        v = omega[s]
        i = index.get(v)
        if i is not None and i < cur:
            out.append((s, i))
            cur = i
            if cur == 0:
                break
    return out


@lru_cache(maxsize=None)
def _step_code(d: int):
    """(rank of each unit step of Z^d, unit step of each rank).

    Ranks follow the tuple order of the unit vectors, so step words compare
    like the origin-translated point sequences they trace: -e_i has rank i
    and +e_i rank 2d-1-i.
    """
    units = sorted(tuple(s if i == a else 0 for i in range(d)) for a in range(d) for s in (-1, 1))
    return {u: r for r, u in enumerate(units)}, units


def sap_key(sap: Walk, ctx: Optional[GraphCtx] = None):
    """Canonical key of a self-avoiding polygon.

    Normalizes over starting vertex, traversal orientation and, in lattice
    mode, point-group isometries with translation of the first vertex to the
    origin. Lexicographically minimal orbit element; deterministic.

    On the lattice the polygon is read as its word of k unit steps, one byte
    each (_step_code). Rotating the start rotates the word, reversal reverses
    it and negates every step, and an isometry relabels the axes and flips
    their signs; negation is an isometry, so the reversed word is taken
    without it. The least image of a word under the point group needs no
    group: relabel the axes in the order they first appear and send each
    axis's first step to -e_j, byte j, with j the least unused axis. A later
    step on that axis is then byte j with the same sign and byte 2d-1-j with
    the opposite one. Any other image is larger at the first step where it
    differs. The key is the least such word over both orientations and all k
    rotations, O(k^2) for every d, decoded to k points from the origin.
    """
    if sap[0] != sap[-1] or len(sap) < 3:
        raise PreconditionError("not a closed walk of length >= 2")
    cyc = sap[:-1]
    k = len(cyc)
    lattice = ctx is None or ctx.is_lattice
    if not lattice:  # a least rotation starts at the least vertex
        low = min(cyc)
        return min(r[i:] + r[:i] for r in (cyc, cyc[::-1]) for i, v in enumerate(r) if v == low)
    d = len(cyc[0])
    rank, units = _step_code(d)
    try:
        word = bytes(rank[tuple(map(operator.sub, q, p))] for p, q in zip(sap, sap[1:]))
    except KeyError:
        raise PreconditionError("not a lattice polygon: a step is not a unit step") from None
    top = 2 * d - 1
    pairs = [bytes((b, top - b)) for b in range(2 * d)]  # both signs of an axis
    relabelled = b"".join(pairs[: len({min(b, top - b) for b in word})])
    best = None
    for w in (word * 2, word[::-1] * 2):
        for i in range(k):
            r = w[i : i + k]
            first = bytearray()  # the signed axes of r in order of appearance
            for b in r:
                if b not in first:
                    first += pairs[b]
                    if len(first) == len(relabelled):
                        break
            r = r.translate(bytes.maketrans(first, relabelled))
            if best is None or r < best:
                best = r
    p = (0,) * d
    out = [p]
    for b in best[:-1]:
        p = tuple(map(operator.add, p, units[b]))
        out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class LoopActivity:
    """Per-polygon activities: a constant lambda or a SapKey table with default.

    All activities must be nonnegative rationals; the table default is the
    uniform cap for keys not listed. Table entries are keyed by sap_key, so
    Assumption-style symmetry (isometries, starting vertex, orientation) is
    automatic.
    """

    value: Fraction = Fraction(1)
    table: Optional[tuple] = None  # sorted ((SapKey, Fraction), ...)
    default: Fraction = Fraction(1)

    @staticmethod
    def constant(lam) -> "LoopActivity":
        lam = Fraction(lam)
        if lam < 0:
            raise PreconditionError("activity must be >= 0")
        return LoopActivity(value=lam, table=None)

    @staticmethod
    def of_table(table: dict, default) -> "LoopActivity":
        default = Fraction(default)
        items = tuple(sorted((k, Fraction(v)) for k, v in table.items()))
        if default < 0 or any(v < 0 for _, v in items):
            raise PreconditionError("activities must be >= 0")
        return LoopActivity(value=Fraction(0), table=items, default=default)

    @property
    def is_constant(self) -> bool:
        return self.table is None

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise PreconditionError("constant-activity mode required")
        return self.value

    @cached_property
    def _tbl(self) -> dict:
        return dict(self.table)

    def weight_of_key(self, key) -> Fraction:
        if self.table is None:
            return self.value
        return self._tbl.get(key, self.default)

    def weight_of_keys(self, keys) -> Fraction:
        if self.table is None:
            return self.value ** len(keys)
        f = Fraction(1)
        tbl = self._tbl
        for k in keys:
            f *= tbl.get(k, self.default)
        return f

    def sup(self) -> Fraction:
        if self.table is None:
            return self.value
        return max([self.default] + [v for _, v in self.table])


def walk_weight(w: Walk, act: LoopActivity, ctx: Optional[GraphCtx] = None):
    """(z-power, loop factor) of a walk: z^{|w|} prod_eta lambda_eta^{n_eta}."""
    if act.is_constant:
        return len(w) - 1, act.value ** loop_count(w)
    _, rec, _ = loop_erase(w, ctx)
    return len(w) - 1, act.weight_of_keys(rec.loops)


def walk_to_json(w: Walk) -> list:
    return [list(v) for v in w]


def walk_from_json(data) -> Walk:
    return tuple(tuple(v) for v in data)
