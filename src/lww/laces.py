"""Interval graphs, lace connectedness, the lace algorithm, and brute-force
verification of the lace prescription and the K/J recursion.

Edges are pairs (s, t) with s < t on a discrete interval [a, b]; labelled
edges are triples (s, t, label) with label in {"spacelike", "timelike"}.
Graphs are frozensets of edges.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .core import PreconditionError

SPACELIKE = "spacelike"
TIMELIKE = "timelike"

BRUTE_FORCE_CAP = 6


class CapExceeded(RuntimeError):
    pass


def _positions(graph):
    """Strip labels if present."""
    out = set()
    for e in graph:
        if len(e) == 3:
            out.add((e[0], e[1]))
        else:
            out.add(tuple(e))
    return out


def is_connected(graph, a: int, b: int) -> bool:
    """Lace connectedness on [a, b].

    (i) b > a + 1, (ii) every interior j is straddled by some edge,
    (iii) some edge leaves a and some edge enters b. This differs from
    graph-theoretic connectivity: the single edge {a, a+1} is not connected.
    """
    edges = _positions(graph)
    if b <= a + 1:
        return False
    if not any(s == a for s, t in edges) or not any(t == b for s, t in edges):
        return False
    for j in range(a + 1, b):
        if not any(s < j < t for s, t in edges):
            return False
    return True


def lace_of(graph, a: int, b: int) -> frozenset:
    """The unique labelled lace of a connected labelled graph on [a, b].

    Follows the max/min scan; when the chosen position carries both labels
    the spacelike one is kept.
    """
    if not is_connected(graph, a, b):
        raise PreconditionError("graph is not lace-connected")
    labelled = all(len(e) == 3 for e in graph)
    positions = _positions(graph)

    def label_of(s, t):
        if not labelled:
            return None
        labs = {e[2] for e in graph if (e[0], e[1]) == (s, t)}
        return SPACELIKE if SPACELIKE in labs else TIMELIKE

    out = []
    s1 = a
    t1 = max(t for s, t in positions if s == s1)
    out.append((s1, t1))
    ti = t1
    while ti != b:
        t_next = max(t for s, t in positions if s < ti)
        s_next = min(s for s, t in positions if t == t_next and s < ti)
        out.append((s_next, t_next))
        ti = t_next
    if labelled:
        return frozenset((s, t, label_of(s, t)) for s, t in out)
    return frozenset(out)


def is_lace(graph, a: int, b: int) -> bool:
    """Minimally connected: removing any edge disconnects."""
    if not is_connected(graph, a, b):
        return False
    for e in graph:
        if is_connected(graph - {e}, a, b):
            return False
    return True


@lru_cache(maxsize=None)
def compatible_edges(lace, a: int, b: int):
    """All labelled edges st with lace_of(lace + st) == lace."""
    labelled = all(len(e) == 3 for e in lace)
    out = set()
    for s, t in combinations(range(a, b + 1), 2):
        labels = (SPACELIKE, TIMELIKE) if labelled else (None,)
        for lab in labels:
            e = (s, t, lab) if labelled else (s, t)
            if e in lace:
                continue
            if lace_of(lace | {e}, a, b) == lace:
                out.add(e)
    return frozenset(out)


def all_laces(a: int, b: int, labelled: bool = False):
    """Enumerate laces on [a, b] constructively via valid length vectors.

    A lace with N edges corresponds to a valid subinterval vector; labelled
    laces decorate each edge with either label.
    """
    m = b - a
    out = []
    N = 1
    while True:
        vecs = valid_vectors(N, m)
        if not vecs and N > (m + 1) // 2 + 1:
            break
        found = False
        for mvec in vecs:
            pos = frozenset((s + a, t + a) for s, t in lace_positions_for_vector(mvec))
            if not is_lace(pos, a, b):
                continue
            found = True
            if labelled:
                pos_list = sorted(pos)
                from itertools import product as iproduct

                for labs in iproduct((SPACELIKE, TIMELIKE), repeat=len(pos_list)):
                    out.append(
                        frozenset((s, t, lab) for (s, t), lab in zip(pos_list, labs))
                    )
            else:
                out.append(pos)
        if not vecs:
            break
        N += 1
    return out


def _cap(a, b, labelled):
    limit = 4 if labelled else BRUTE_FORCE_CAP
    if b - a > limit:
        raise CapExceeded(f"interval length {b - a} exceeds brute-force cap {limit}")


def _position_weights(a: int, b: int, weights: dict) -> dict:
    """Collapse labelled weights onto positions.

    A position present in a labelled graph may carry one or both labels, so
    its effective weight is w_sp + w_tl + w_sp*w_tl; connectivity only sees
    positions.
    """
    labelled = any(len(k) == 3 for k in weights)
    out = {}
    for s, t in combinations(range(a, b + 1), 2):
        if labelled:
            wsp = weights.get((s, t, SPACELIKE), Fraction(0))
            wtl = weights.get((s, t, TIMELIKE), Fraction(0))
            w = wsp + wtl + wsp * wtl
        else:
            w = weights.get((s, t), Fraction(0))
        if w != 0:
            out[(s, t)] = Fraction(w)
    return out


def _graph_sums(a: int, b: int, pos_weights: dict):
    """(K, J) = (sum over all graphs, sum over connected graphs) of products.

    Dynamic programming over positions with the state (straddle coverage
    bitmask, touches-a, touches-b); exponentially many graphs collapse onto
    at most 2^{b-a+1} states.
    """
    if b <= a:
        return (Fraction(1), Fraction(0)) if b == a else (Fraction(0), Fraction(0))
    interior = b - a - 1
    full = (1 << interior) - 1
    states = {(0, False, False): Fraction(1)}
    for (s, t), w in pos_weights.items():
        mask = 0
        for j in range(max(s + 1, a + 1), min(t, b)):
            mask |= 1 << (j - a - 1)
        xa, xb = s == a, t == b
        nxt = dict(states)
        for (cover, ta, tb), wt in states.items():
            key = (cover | mask, ta or xa, tb or xb)
            add = wt * w
            if key in nxt:
                nxt[key] += add
            else:
                nxt[key] = add
        states = nxt
    K = sum(states.values(), Fraction(0))
    J = states.get((full, True, True), Fraction(0)) if b > a + 1 else Fraction(0)
    return K, J


def connected_graph_sum(a: int, b: int, weights: dict) -> Fraction:
    """Sum over labelled connected graphs of the product of edge weights."""
    labelled = any(len(k) == 3 for k in weights)
    _cap(a, b, labelled)
    _, J = _graph_sums(a, b, _position_weights(a, b, weights))
    return J


def lace_prescription_sum(a: int, b: int, weights: dict) -> Fraction:
    """Sum over laces of prod(lace weights) * prod over compatible (1+w)."""
    labelled = any(len(k) == 3 for k in weights)
    _cap(a, b, labelled)
    acc = Fraction(0)
    for lace in all_laces(a, b, labelled=labelled):
        p = Fraction(1)
        for e in lace:
            p *= weights.get(e, Fraction(0))
        if p == 0:
            continue
        for e in compatible_edges(lace, a, b):
            p *= 1 + weights.get(e, Fraction(0))
        acc += p
    return acc


def K_J(a: int, b: int, weights: dict):
    """K[a,b] (all graphs) and J[a,b] (connected graphs), with K=J=0 for a>b
    and the empty graph carrying weight 1."""
    if a > b:
        return Fraction(0), Fraction(0)
    labelled = any(len(k) == 3 for k in weights)
    _cap(a, b, labelled)
    pos = {
        e: w
        for e, w in _position_weights(a, b, weights).items()
        if a <= e[0] and e[1] <= b
    }
    return _graph_sums(a, b, pos)


def kj_recursion_residual(a: int, b: int, weights: dict) -> Fraction:
    """Residual of K[a,b] = K[a,a+1] K[a+1,b] + sum_{j>=2} J[a,a+j] K[a+j,b]."""
    K_ab, _ = K_J(a, b, weights)
    K_a1, _ = K_J(a, a + 1, weights)
    K_rest, _ = K_J(a + 1, b, weights)
    acc = K_a1 * K_rest
    for j in range(2, b - a + 1):
        _, J_j = K_J(a, a + j, weights)
        K_j, _ = K_J(a + j, b, weights)
        acc += J_j * K_j
    return K_ab - acc


def lace_positions_for_vector(mvec) -> frozenset:
    """Lace edges (s_i, t_i) on [0, sum(m)] determined by a valid vector.

    s_1 = 0, s_{j+1} = m_1 + .. + m_{2j-1}, t_j = m_1 + .. + m_{2j}.
    """
    n_edges = (len(mvec) + 1) // 2
    cum = [0]
    for m in mvec:
        cum.append(cum[-1] + m)
    edges = []
    for i in range(1, n_edges + 1):
        s = 0 if i == 1 else cum[2 * (i - 1) - 1]
        t = cum[2 * i] if i < n_edges else cum[-1]
        edges.append((s, t))
    return frozenset(edges)


def valid_vectors(N: int, m: int):
    """Valid subinterval length vectors for an N-edge lace on [0, m]."""
    if N == 1:
        # the single edge {a, a+1} does not count as connected here
        return [(m,)] if m >= 2 else []
    out = []

    def rec(prefix, remaining, idx):
        if idx == 2 * N - 1:
            if remaining >= 1:
                out.append(tuple(prefix) + (remaining,))
            return
        lo = 1 if (idx == 1 or idx % 2 == 0) else 0
        for v in range(lo, remaining + 1):
            rec(prefix + [v], remaining - v, idx + 1)

    rec([], m, 1)
    return out
