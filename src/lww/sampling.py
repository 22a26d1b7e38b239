"""Monte Carlo estimation of loop-weighted walk observables.

Floats live only here; everything upstream is exact. Randomness comes from
the Philox4x64-10 counter-based generator (Salmon et al., SC'11): sample i
of a run with seed s reads its own stream, keyed by the exact 64-bit pair
(s, i), so a sample depends only on (s, i). Results are reproducible and do
not depend on how samples are batched. Seeds are integers in [0, 2^64).
Importance samples are generated and loop-erased a batch at a time by array
kernels: Philox by 32-bit limbs, points as narrow integer codes, and one
first-match scan of the loop-erasure stacks per step. Only the weight
lambda^k of a sample depends on lambda, so one sample set per (seed, d, n,
samples), its loop counts and |end|^2 at 3 bytes a sample, serves every
lambda of a sweep; the last set drawn is kept. Both samplers charge their
work to the budget ledger (enumeration._Budget). The exact sampler runs on
the transfer engine's loop-erasure states. It stores completion sums for
one state per orbit of the point group, about 8x fewer than all states in
d = 2 and 48x in d = 3, but its memory is still not capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import GraphCtx, LoopActivity, PreconditionError
from .enumeration import _Budget, _LEStates, _transfer

MAX_STEPS = 64  # importance walks; bounds the (n+1, BATCH) stack and its O(n^2) scan
BATCH = 8192  # samples per kernel call; bounds memory, outputs do not depend on it

# Philox4x64 multipliers and Weyl key increments (Random123, as in NumPy)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise PreconditionError(f"seed must be in [0, 2^64), got {seed}")


@dataclass(frozen=True)
class SamplerConfig:
    d: int
    n: int
    lam: Fraction
    num_samples: int
    seed: int

    def __post_init__(self):
        _check_seed(self.seed)
        if self.num_samples < 1:
            raise PreconditionError(f"need at least 1 sample, got {self.num_samples}")
        if self.d < 1 or not 0 <= self.n <= MAX_STEPS:
            raise PreconditionError(f"need d >= 1 and 0 <= n <= {MAX_STEPS}")


class UnsupportedMethod(ValueError):
    pass


def msd_exact(n: int, d: int, act: LoopActivity) -> Fraction:
    """<|w_n|^2> under the n-step loop-weighted measure, by enumeration.

    lambda = 1 is the simple random walk (every loop weighs 1), whose mean
    squared displacement is n; every other activity sums _transfer's last
    row (at lambda = 0, the n-step SAWs) of orbit totals: |x|^2 is the same
    on an orbit.
    """
    ctx = GraphCtx.lattice(d)  # checks d before the lambda = 1 closed form
    if n < 0:
        raise PreconditionError(f"need n >= 0, got {n}")
    if act.is_constant and act.value == 1:
        return Fraction(n)
    ends = _transfer(n, ctx, act)[0][n]  # a common denominator cancels
    num = sum(w * sum(x * x for x in pt) for pt, w in ends.items())
    return Fraction(num) / sum(ends.values())


def _mulhilo(m: int, x: np.ndarray):
    """High and low 64-bit words of the 128-bit products m * x, by 32-bit limbs."""
    lo32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & lo32, x >> s32
    t = x_lo * m_lo
    t >>= s32
    x_lo *= m_hi
    t += x_lo  # x_lo m_hi + (x_lo m_lo >> 32) < 2^64
    u = x_hi * m_lo
    u += t & lo32  # x_hi m_lo + (t mod 2^32) < 2^64
    x_hi *= m_hi
    x_hi += t >> s32
    u >>= s32
    x_hi += u
    return x_hi, x * np.uint64(m)


def _philox_raw(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """First n raw words of the streams of samples [start, start+count):
    a (count, n) uint64 array.

    Philox4x64-10 over arrays. Sample i keys the generator with the exact
    uint64 pair (seed, i) and reads counter blocks (1,0,0,0), (2,0,0,0), ...,
    four words each, so row i equals random_raw(n) of NumPy's Philox bit
    generator keyed with the uint64 array [seed, i].
    """
    blocks = -(-n // 4)
    k0 = np.array([[seed]], dtype=np.uint64)
    k1 = np.arange(start, start + count, dtype=np.uint64)[:, None]
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (count, blocks))
    c1 = c2 = c3 = np.zeros((count, blocks), dtype=np.uint64)
    for r in range(10):
        if r:
            k0 = k0 + np.uint64(_PHILOX_W[0])
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1 ^ k0
        hi0 ^= c3 ^ k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3), axis=2).reshape(count, 4 * blocks)[:, :n]


def _sample_steps(seed: int, start_index: int, count: int, n: int, two_d: int) -> np.ndarray:
    """Steps for samples [start_index, start_index+count): (count, n) ints in
    [0, 2d).

    Step t of sample i is raw word t of the stream keyed (seed, i), read as a
    signed int64, modulo 2d; a sample's steps therefore do not depend on the
    batch it is drawn in. The modulo bias is ~ 2d / 2^64, far below
    statistical resolution. When 2d is a power of two the floor modulo of a
    two's-complement word is its low bits, taken with a mask.
    """
    words = _philox_raw(seed, start_index, count, n).view(np.int64)
    if two_d & (two_d - 1) == 0:
        return words & (two_d - 1)
    return words % two_d


def _narrow_int(bound: int):
    """The narrowest signed integer dtype that holds [-bound, bound]."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _walk_keys(steps: np.ndarray, d: int) -> np.ndarray:
    """Point-major integer keys of walks from the origin with the given
    (count, n) step codes: row t keys the t-th points, the origin's key is
    0, and two points are equal iff their keys are.

    While (2n+1)^d < 2^63 a point is one balanced base-(2n+1) code (keys of
    shape (n+1, count)), otherwise its d coordinates ((n+1, count, d)). Step
    code s adds entry s of a table, +-(2n+1)^axis or +-e_axis, in the
    narrowest signed dtype that holds every code or coordinate.
    """
    count, n = steps.shape
    radix = 2 * n + 1
    packed = radix**d < 2**63
    unit = radix ** np.arange(d, dtype=np.int64) if packed else np.eye(d, dtype=np.int64)
    dtype = _narrow_int((radix**d - 1) // 2 if packed else n)
    table = np.stack((-unit, unit), axis=1).reshape(2 * d, *unit.shape[1:]).astype(dtype)
    keys = np.zeros((n + 1, count) + table.shape[1:], dtype=dtype)
    np.cumsum(table.take(steps.T, axis=0), axis=0, dtype=dtype, out=keys[1:])
    return keys


def _endpoints(keys: np.ndarray, d: int) -> np.ndarray:
    """(count, d) end coordinates of the walks keyed by _walk_keys."""
    if keys.ndim == 3:
        return keys[-1].astype(np.int64)
    radix = 2 * len(keys) - 1  # shifted by (radix^d - 1) / 2, every digit is coordinate + n
    code = keys[-1].astype(np.int64) + (radix**d - 1) // 2
    return np.stack([code // radix**j % radix for j in range(d)], axis=1) - (radix - 1) // 2


def _loop_counts(keys: np.ndarray) -> np.ndarray:
    """Loops erased by chronological loop erasure from each walk keyed by
    _walk_keys: core.loop_count, walk by walk, for the whole batch.

    Each walk keeps its partial loop erasure as a stack of distinct point
    keys, stale from its length on. A step whose first match j in the stack
    is below the length truncates it just past j and counts one loop; any
    other step pushes.
    """
    n1, count = keys.shape[:2]
    stack = np.zeros_like(keys)
    length = np.ones(count, dtype=np.int64)
    loops = np.zeros(count, dtype=np.int64)
    walks = np.arange(count)
    pos = np.arange(n1, dtype=_narrow_int(n1))[:, None]
    for t in range(1, n1):
        on = stack[:t] == keys[t]
        if on.ndim == 3:
            on = on.all(axis=2)
        j = np.where(on, pos[:t], n1).min(axis=0)  # n1 where nothing matches
        loops += j < length
        np.minimum(j, length, out=length)  # where keys[t] goes
        stack[length, walks] = keys[t]  # on a hit this rewrites the same key
        length += 1
    return loops


def _importance_batches(cfg: SamplerConfig):
    """(start, loop counts, end points) of the SRW walks of cfg, a batch of
    samples at a time."""
    for start in range(0, cfg.num_samples, BATCH):
        count = min(BATCH, cfg.num_samples - start)
        keys = _walk_keys(_sample_steps(cfg.seed, start, count, cfg.n, 2 * cfg.d), cfg.d)
        yield start, _loop_counts(keys), _endpoints(keys, cfg.d)


def _rows(start: int, loops: np.ndarray, ends: np.ndarray) -> list:
    """Rows (sample_index, loop_count, end coords..., |end|^2), numbered from start."""
    table = np.column_stack((np.arange(start, start + len(loops)), loops, ends,
                             (ends * ends).sum(axis=1)))
    return list(map(tuple, table.tolist()))


def walk_rows(walks, n: int, d: int) -> list:
    """Rows (sample_index, loop_count, end coords..., |end|^2) of n-step
    walks from the origin of Z^d, given as vertex tuples."""
    points = np.array(walks, dtype=np.int64).reshape(len(walks), n + 1, d)
    moves = np.diff(points, axis=1)
    steps = 2 * np.abs(moves).argmax(axis=2) + (moves.sum(axis=2) > 0)
    return _rows(0, _loop_counts(_walk_keys(steps, d)), points[:, -1])


@lru_cache(maxsize=1)
def _importance_samples(seed: int, d: int, n: int, num_samples: int) -> tuple:
    """(loops, end_sq): the loop counts (int8, <= n/2) and |end|^2 (int16,
    <= n^2) of the SRW walks of a run, one entry per sample, read-only.

    lambda is not read, so one sample set serves every lambda at the same
    (seed, d, n, num_samples).
    """
    cfg = SamplerConfig(d=d, n=n, lam=Fraction(1), num_samples=num_samples, seed=seed)
    loops = np.empty(num_samples, dtype=np.int8)
    end_sq = np.empty(num_samples, dtype=np.int16)
    for start, k, ends in _importance_batches(cfg):
        loops[start : start + len(k)] = k
        end_sq[start : start + len(k)] = (ends * ends).sum(axis=1)
    loops.flags.writeable = end_sq.flags.writeable = False
    return loops, end_sq


def msd_importance(cfg: SamplerConfig):
    """Self-normalized importance sampling from SRW with weight lambda^{n_L}.

    Returns (estimate, stderr); stderr by the delta method for a ratio.
    Charges (n+1) per sample before any sample is drawn or looked up in
    the cache of _importance_samples.
    """
    if cfg.lam <= 0:
        raise UnsupportedMethod("importance sampling needs lambda > 0")
    _Budget("importance sampler", "walk points ((n + 1) per sample)").charge((cfg.n + 1) * cfg.num_samples)
    try:
        lam = float(cfg.lam)
        # lambda^k by float.__pow__; an n-step walk erases at most n/2 loops
        weight = np.array([lam**k for k in range(cfg.n // 2 + 1)])
    except OverflowError:
        raise PreconditionError(f"lambda^k overflows a float for some k <= {cfg.n // 2}") from None
    loops, end_sq = _importance_samples(cfg.seed, cfg.d, cfg.n, cfg.num_samples)
    rows_w = weight[loops]
    sw = float(rows_w.sum())
    swy = float((rows_w * end_sq).sum())  # end_sq is exact as a float64
    if not (0 < sw < math.inf and math.isfinite(swy)):
        raise PreconditionError(f"lambda is out of float range: the weights lambda^k sum to {sw}")
    est = swy / sw
    resid = rows_w * (end_sq - est)
    var = float((resid**2).sum()) / (sw * sw)
    return est, math.sqrt(var)


def _completion_sums(states: _LEStates, p: int, q: int) -> list:
    """Completion sums of the canonical states of _LEStates, by level.

    levels[m] maps each canonical SAW that m steps can reach (length <= m,
    of the parity of m) to q^(n-m) times its completion sum under lambda =
    p/q, an int: a push weighs q and an erasure p, times the sum of the state
    it leads to. levels[n] is None: every sum there is 1. Level m is filled
    by one pass of states.saws(m), whose prefix codes name the state each
    step leads to. Each state filled is charge()d.
    """
    base, n, moves, pos, codes = states.base, states.n, states.steps, states.pos, states.codes
    levels = [None] * (n + 1)
    for m in reversed(range(n)):
        sums, level = levels[m + 1], {}
        for length, x, k in states.saws(m):
            if (m - length) % 2:
                continue
            code, total = codes[-1], 0
            for s, mv, mult, _ in moves[k]:
                j = pos.get(x + mv)
                if j is None:
                    total += mult * q * (1 if sums is None else sums[code * base + s])
                else:
                    total += p * (1 if sums is None else sums[codes[j]])
            states.charge(1)
            level[code] = total
        levels[m] = level
    return levels


def _walk_down(states: _LEStates, levels: list, p: int, q: int, ks: list) -> list:
    """Steps of one exact draw, as GraphCtx.neighbors indices, given the top
    53 bits ks of its raw words.

    The walk is drawn in the original frame. Its partial loop erasure is a
    stack of (point, canonical code, frame, axes used): a push extends it,
    an erasure pops it back to the hit point, and the canonical child of
    every step is read off the top in O(1).
    """
    base, moves = states.base, states.moves
    x, code, frame, k = 0, 1, states.root_frame(), 0
    stack, pos = [(x, code, frame, k)], {x: 0}
    steps = []
    for m, kt in enumerate(ks):
        sums = levels[m + 1]
        u = kt * levels[m][code]  # 2^53 * u * total
        acc = 0
        for s, mv in enumerate(moves):  # stops at the first with u * total < acc
            j = pos.get(x + mv)
            if j is None:
                child, w = code * base + frame[s], q
            else:
                child, w = stack[j][1], p
            acc += w if sums is None else w * sums[child]
            if u < acc << 53:
                break
        steps.append(s)
        if j is None:
            frame, k = states.push_frame(frame, k, s)
            x, code = x + mv, child
            pos[x] = len(stack)
            stack.append((x, code, frame, k))
        else:
            for y, *_ in stack[j + 1 :]:
                del pos[y]
            del stack[j + 1 :]
            x, code, frame, k = stack[j]
    return steps


def _lattice_walks(steps: np.ndarray, d: int) -> list:
    """Vertex tuples of the walks from the origin of Z^d that take the
    GraphCtx.neighbors steps in the rows of steps."""
    ctx = GraphCtx.lattice(d)
    moves = np.array(ctx.neighbors(ctx.origin()), dtype=np.int64)
    points = np.zeros((steps.shape[0], steps.shape[1] + 1, d), dtype=np.int64)
    np.cumsum(moves[steps], axis=1, out=points[:, 1:])
    return [tuple(map(tuple, w)) for w in points.tolist()]


def sample_exact(n: int, d: int, act: LoopActivity, seed: int, count: int):
    """i.i.d. exact draws from the n-step loop-weighted walk distribution.

    Sequential sampling on enumeration._LEStates: a step weighs 1 (push) or
    lambda = p/q (erasure) times the completion sum of the state it leads
    to. The sums depend on a state only up to the point group, so they are
    filled in backward for canonical states alone (_completion_sums) and
    each walk is drawn in the original frame (_walk_down). A draw takes the
    first step whose running weight exceeds u times the total, where u =
    k / 2^53 and k is the top 53 bits of a raw word, as
    Generator(Philox).random. At lambda = 1 every sum of r steps is (2d)^r,
    so step t is neighbor (k_t 2d) >> 53 and nothing is filled. Each step
    drawn is charge()d like a state expanded.
    """
    _check_seed(seed)
    if n < 0 or count < 0:
        raise PreconditionError(f"need n >= 0 and count >= 0, got n={n}, count={count}")
    p, q = act.constant_value().as_integer_ratio()
    states = _LEStates(GraphCtx.lattice(d), n, "exact sampler", "states filled and steps drawn")
    levels = None if p == q else _completion_sums(states, p, q)
    walks = []
    for start in range(0, count, BATCH):
        size = min(BATCH, count - start)
        states.charge(n * size)
        ks = _philox_raw(seed, start, size, n) >> np.uint64(11)
        if levels is None:
            steps = ks.astype(object) * states.base >> 53
        else:
            steps = [_walk_down(states, levels, p, q, row) for row in ks.tolist()]
        walks += _lattice_walks(np.array(steps, dtype=np.int64), d)
    return walks
