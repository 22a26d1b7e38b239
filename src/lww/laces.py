"""Interval graphs, lace connectedness, the lace algorithm, and brute-force
verification of the lace prescription and the K/J recursion.

Edges are pairs (s, t) with s < t on a discrete interval [a, b]; labelled
edges are triples (s, t, label) with label in {"spacelike", "timelike"}.
Graphs are frozensets of edges. Weight dicts map edges, all unlabelled or
all labelled, to ints or Fractions; the sums run on integer numerators over
one common denominator and return exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .core import PreconditionError
from .series import _scaled

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


def compatible_edges(lace, a: int, b: int):
    """All edges st not in `lace` with lace_of(lace + st) == lace; a graph
    that is not a lace raises PreconditionError."""
    if lace_of(lace, a, b) != lace:
        raise PreconditionError("graph is not a lace")
    return _compatible_edges(lace, a, b)


def _compatible_edges(lace, a: int, b: int):
    """compatible_edges for a graph known to be a lace on [a, b].

    Closed form of the lace algorithm (Madras & Slade 1993, section 5.2).
    Let s_1t_1, .., s_Nt_N be the lace edges in scan order, and put
    t_0 = a + 1 and t_{N+1} = b + 1. A position st first competes in the
    scan step out of t_i, i the first index with s < t_i (i = 0 is the
    step out of a), and is compatible when that step still picks
    s_{i+1}t_{i+1}: t < t_{i+1}, or t = t_{i+1} and s > s_{i+1} (the min-s
    tie-break). Later steps pick larger t, and past t_N the scan has
    stopped. Both labels of such a position are compatible; on a lace
    position only the timelike label can be added, to a spacelike lace edge.
    """
    labelled = all(len(e) == 3 for e in lace)
    ends = [(a + 1, 0), *sorted((t, -s) for s, t in _positions(lace)), (b + 1, 0)]  # (t_i, -s_i)
    out = set()
    for s, t in combinations(range(a, b + 1), 2):
        i = next(i for i, (ti, _) in enumerate(ends) if s < ti)
        if (t, -s) < ends[i + 1]:
            out |= {(s, t, SPACELIKE), (s, t, TIMELIKE)} if labelled else {(s, t)}
    if labelled:
        out |= {(s, t, TIMELIKE) for s, t, lab in lace if lab == SPACELIKE}
    return frozenset(out)


def all_laces(a: int, b: int, labelled: bool = False):
    """Every lace on [a, b], one per valid subinterval vector (an N-edge
    lace exists on [0, m] only for N < m); labelled laces decorate each
    edge with either label."""
    out = []
    for N in range(1, b - a):
        for mvec in valid_vectors(N, b - a):
            pos = sorted((s + a, t + a) for s, t in lace_positions_for_vector(mvec))
            if not labelled:
                out.append(frozenset(pos))
                continue
            for labs in product((SPACELIKE, TIMELIKE), repeat=N):
                out.append(frozenset((s, t, lab) for (s, t), lab in zip(pos, labs)))
    return out


def _cap(a, b, labelled):
    limit = 4 if labelled else BRUTE_FORCE_CAP
    if b - a > limit:
        raise CapExceeded(f"interval length {b - a} exceeds brute-force cap {limit}")


def _labelled(weights: dict) -> bool:
    """Whether a weight dict is labelled, after checking it: the keys are
    all (s, t) or all (s, t, label) with a known label, and every weight is
    an int or a Fraction. Keys outside the interval are allowed (K_J ignores
    them)."""
    sizes = {len(k) for k in weights}
    if not sizes <= {2, 3} or len(sizes) > 1:
        raise PreconditionError("weight keys must be all (s, t) or all (s, t, label)")
    if any(len(k) == 3 and k[2] not in (SPACELIKE, TIMELIKE) for k in weights):
        raise PreconditionError(f"edge labels must be {SPACELIKE!r} or {TIMELIKE!r}")
    if not all(isinstance(w, (int, Fraction)) for w in weights.values()):
        raise PreconditionError("weights must be ints or Fractions")
    return sizes == {3}


def _position_weights(a: int, b: int, weights: dict, labelled: bool) -> tuple:
    """Collapse labelled weights onto positions: ({(s, t): n}, D), each
    nonzero weight n / D over one D, the lcm of the denominators.

    A position present in a labelled graph may carry one or both labels, so
    its effective weight is w_sp + w_tl + w_sp*w_tl; connectivity only sees
    positions.
    """
    out = {}
    for s, t in combinations(range(a, b + 1), 2):
        if labelled:
            wsp = weights.get((s, t, SPACELIKE), 0)
            wtl = weights.get((s, t, TIMELIKE), 0)
            w = wsp + wtl + wsp * wtl
        else:
            w = weights.get((s, t), 0)
        if w != 0:
            out[(s, t)] = w
    nums, den = _scaled(out.values())
    return dict(zip(out, nums)), den


def _graph_sums(a: int, b: int, nums: dict, den: int):
    """(K, J) = (sum over all graphs, sum over connected graphs) of products,
    the weights given as integer numerators n_e (nums) over one D = den.

    Dynamic programming over positions with the state (straddle coverage,
    touches-a, touches-b) as one int: bit j - a + 1 per straddled interior
    j, bits 1 and 0 for touching a and b, so taking a position ORs its bits
    in; exponentially many graphs collapse onto at most 2^{b-a+1} states.
    A state that skips a position is multiplied by D and one that takes it
    by n_e, so each ends as its sum times D^E (E positions).
    """
    if b <= a:
        return (Fraction(1), Fraction(0)) if b == a else (Fraction(0), Fraction(0))
    states = {0: 1}
    for (s, t), n in nums.items():
        bits = (s == a) << 1 | (t == b)
        for j in range(max(s + 1, a + 1), min(t, b)):
            bits |= 1 << (j - a + 1)
        nxt = {key: wt * den for key, wt in states.items()}
        for key, wt in states.items():
            key |= bits
            nxt[key] = nxt.get(key, 0) + wt * n
        states = nxt
    scale = den ** len(nums)
    K = Fraction(sum(states.values()), scale)
    J = Fraction(states.get((1 << b - a + 1) - 1, 0), scale) if b > a + 1 else Fraction(0)
    return K, J


def connected_graph_sum(a: int, b: int, weights: dict) -> Fraction:
    """Sum over labelled connected graphs of the product of edge weights."""
    return K_J(a, b, weights)[1]


@lru_cache(maxsize=32)
def _lace_terms(a: int, b: int, labelled: bool) -> tuple:
    """(lace, _compatible_edges) for each of all_laces(a, b): weight-free."""
    return tuple((lace, _compatible_edges(lace, a, b)) for lace in all_laces(a, b, labelled=labelled))


def lace_prescription_sum(a: int, b: int, weights: dict) -> Fraction:
    """Sum over laces of prod(lace weights) * prod over compatible (1+w).

    With every weight n_e / D over one D, a lace term is prod n_e * prod
    (D + n_e) over D^(edges it reads); each term is scaled to D^E, E the
    number of edges on [a, b], and one Fraction is built for the sum.
    """
    labelled = _labelled(weights)
    _cap(a, b, labelled)
    nums, den = _scaled(weights.values())
    num = dict(zip(weights, nums))
    total = comb(b - a + 1, 2) * (2 if labelled else 1)
    acc = 0
    for lace, comp in _lace_terms(a, b, labelled):
        p = 1
        for e in lace:
            p *= num.get(e, 0)
        if p == 0:
            continue
        for e in comp:
            p *= den + num.get(e, 0)
        acc += p * den ** (total - len(lace) - len(comp))
    return Fraction(acc, den**total)


def K_J(a: int, b: int, weights: dict):
    """K[a,b] (all graphs) and J[a,b] (connected graphs), with K=J=0 for a>b
    and the empty graph carrying weight 1."""
    labelled = _labelled(weights)
    _cap(a, b, labelled)
    return _graph_sums(a, b, *_position_weights(a, b, weights, labelled))


def kj_recursion_residual(a: int, b: int, weights: dict) -> Fraction:
    """Residual of K[a,b] = K[a,a+1] K[a+1,b] + sum_{j>=2} J[a,a+j] K[a+j,b]
    (weights checked, capped and scaled once, for [a, b])."""
    labelled = _labelled(weights)
    _cap(a, b, labelled)
    nums, den = _position_weights(a, b, weights, labelled)

    def kj(s, t):  # [s, t]'s positions over the same D
        return _graph_sums(s, t, {e: n for e, n in nums.items() if s <= e[0] and e[1] <= t}, den)

    acc = kj(a, a + 1)[0] * kj(a + 1, b)[0]
    for j in range(2, b - a + 1):
        acc += kj(a, a + j)[1] * kj(a + j, b)[0]
    return kj(a, b)[0] - acc


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
