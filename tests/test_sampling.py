import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lww.core import GraphCtx, LoopActivity, PreconditionError, loop_count
from lww.enumeration import ResourceError, _LEStates, loop_count_table
from lww import sampling as sp
from test_transfer import _FullStates


def test_msd_exact_anchors():
    assert sp.msd_exact(1, 2, LoopActivity.constant(Fraction(7, 3))) == 1
    lam = Fraction(1, 2)
    assert sp.msd_exact(2, 1, LoopActivity.constant(lam)) == Fraction(4) / (1 + lam)
    for n in (3, 6):
        assert sp.msd_exact(n, 2, LoopActivity.constant(1)) == n
    assert sp.msd_exact(12, 3, LoopActivity.constant(1)) == 12


def test_msd_exact_table_mode():
    from lww.core import sap_key

    trivial = sap_key(((0,), (1,), (0,)))
    act = LoopActivity.of_table({trivial: Fraction(3)}, default=Fraction(3))
    # d=1, n=2 with lambda=3 everywhere: 4/(1+3) = 1
    assert sp.msd_exact(2, 1, act) == 1


def test_importance_requires_positive_lambda():
    cfg = sp.SamplerConfig(d=2, n=4, lam=Fraction(0), num_samples=10, seed=1)
    with pytest.raises(sp.UnsupportedMethod):
        sp.msd_importance(cfg)


def test_importance_lambda1_matches_n():
    cfg = sp.SamplerConfig(d=2, n=10, lam=Fraction(1), num_samples=50000, seed=7)
    est, se = sp.msd_importance(cfg)
    assert abs(est - 10) <= 3 * se


def test_importance_deterministic_and_partition_independent():
    cfg = sp.SamplerConfig(d=2, n=8, lam=Fraction(1, 2), num_samples=20000, seed=11)
    a = sp.msd_importance(cfg)
    sp._importance_samples.cache_clear()  # draw the samples again
    b = sp.msd_importance(cfg)
    assert a == b
    s_all = sp._sample_steps(11, 0, 100, 8, 4)
    s_parts = np.vstack([sp._sample_steps(11, 0, 33, 8, 4), sp._sample_steps(11, 33, 67, 8, 4)])
    assert np.array_equal(s_all, s_parts)



@pytest.mark.parametrize("two_d", [2, 4, 6, 8, 16])
def test_sample_steps_are_the_signed_floor_modulo(monkeypatch, two_d):
    """The steps equal raw.view(int64) % 2d (a mask when 2d is a power of
    two), on Philox words and on words at and around 2^63."""
    raw = sp._philox_raw(5, 0, 64, 12)
    assert (raw >= 2**63).any() and (raw < 2**63).any()
    want = raw.view(np.int64) % two_d
    got = sp._sample_steps(5, 0, 64, 12, two_d)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    edge = [0, 1, 2, 3, 5, 7, 2**62, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, 2**63 + 3,
            2**63 + 6, 2**64 - 7, 2**64 - 2, 2**64 - 1]
    words = np.array(edge * 2, dtype=np.uint64).reshape(2, len(edge))
    monkeypatch.setattr(sp, "_philox_raw", lambda seed, start, count, n: words)
    got = sp._sample_steps(0, 0, 2, len(edge), two_d)
    assert got.tolist() == [[(w - 2**64 if w >= 2**63 else w) % two_d for w in edge]] * 2

def test_importance_consistent_with_exact():
    lam = Fraction(1, 2)
    exact = float(sp.msd_exact(8, 2, LoopActivity.constant(lam)))
    cfg = sp.SamplerConfig(d=2, n=8, lam=lam, num_samples=60000, seed=3)
    est, se = sp.msd_importance(cfg)
    assert abs(est - exact) <= 3 * se


def test_sample_exact_return_probability():
    # d=1, n=2, lambda=3: P(return) = 2*3/(2+2*3) = 3/4
    walks = sp.sample_exact(2, 1, LoopActivity.constant(3), seed=5, count=3000)
    ret = sum(1 for w in walks if w[-1] == (0,))
    p = ret / 3000
    se = math.sqrt(0.75 * 0.25 / 3000)
    assert abs(p - 0.75) <= 4 * se


def test_sample_exact_uniform_lambda1():
    walks = sp.sample_exact(3, 1, LoopActivity.constant(1), seed=6, count=8000)
    cnt = Counter(walks)
    assert len(cnt) == 8
    # chi-square against uniform on 8 cells at the 0.999 quantile (24.3)
    chi2 = sum((c - 1000) ** 2 / 1000 for c in cnt.values())
    assert chi2 < 24.3


def test_sample_exact_loop_frequencies():
    # empirical loop-count frequencies against N(n,k) lambda^k / c_n
    lam = Fraction(1, 2)
    n, d, count = 4, 1, 4000
    table = loop_count_table(n, d)
    cn = table.c_n(n, lam)
    walks = sp.sample_exact(n, d, LoopActivity.constant(lam), seed=9, count=count)
    freq = Counter(loop_count(w) for w in walks)
    for k in range(0, n // 2 + 1):
        p = float(table.count(n, k) * lam**k / cn)
        if p == 0:
            assert freq.get(k, 0) == 0
            continue
        se = math.sqrt(p * (1 - p) / count)
        assert abs(freq.get(k, 0) / count - p) <= 5 * se, (k, p, freq)


def test_sample_exact_lambda0_uniform_saws():
    walks = sp.sample_exact(3, 1, LoopActivity.constant(0), seed=2, count=500)
    assert all(len(set(w)) == len(w) for w in walks)
    assert set(walks) == {
        ((0,), (1,), (2,), (3,)),
        ((0,), (-1,), (-2,), (-3,)),
    }


def _sample_oracle(n, d, lam, seed, count):
    """sample_exact walk by walk, sharing no code with it: a recursive,
    memoised completion sum V(partial SAW, steps left) over point tuples,
    and uniforms from NumPy's own Philox generator keyed (seed, i)."""
    ctx = GraphCtx.lattice(d)

    def options(state, left):
        pos = {v: i for i, v in enumerate(state)}
        out = []
        for w in ctx.neighbors(state[-1]):
            j = pos.get(w)
            nxt = state + (w,) if j is None else state[: j + 1]
            out.append((w, nxt, (1 if j is None else lam) * V(nxt, left - 1)))
        return out

    @lru_cache(maxsize=None)
    def V(state, left):
        return Fraction(1) if left == 0 else sum(wt for _, _, wt in options(state, left))

    walks = []
    for i in range(count):
        us = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64))).random(n)
        state = walk = (ctx.origin(),)
        for step in range(n):
            opts = options(state, n - step)
            u = Fraction(float(us[step])) * sum(wt for _, _, wt in opts)
            acc = Fraction(0)
            for w, state, wt in opts:
                acc += wt
                if u < acc:
                    break
            walk += (w,)
        walks.append(walk)
    return walks


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)])
def test_sample_exact_matches_oracle(d, lam):
    for n in (0, 1, 2, 6):
        for seed, count in ((0, 25), (7, 25), (2**64 - 1, 25), (3, 0)):
            want = _sample_oracle(n, d, lam, seed, count)
            assert sp.sample_exact(n, d, LoopActivity.constant(lam), seed, count) == want, (n, seed)


@pytest.mark.parametrize("d, ns", [(4, range(6)), (2, (8,))])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)])
def test_sample_exact_matches_oracle_more_sizes(d, ns, lam):
    for n in ns:
        for seed, count in ((0, 25), (7, 25), (2**64 - 1, 25)):
            want = _sample_oracle(n, d, lam, seed, count)
            assert sp.sample_exact(n, d, LoopActivity.constant(lam), seed, count) == want, (n, seed)


def _sums_oracle(n, d, p, q):
    """sample_exact's former tables, without the quotient: every state that
    m < n steps reach, collected forward by the full-state chain of
    test_transfer, mapped to q^(n-m) times its completion sum, filled in
    backward."""
    states = _FullStates(GraphCtx.lattice(d), n)
    levels = [{1}]
    for m in range(n - 1):
        levels.append({c for code in levels[m] for _, c, _ in states.successors(code)})
    for m in reversed(range(n)):
        sums = levels[m + 1] if m < n - 1 else None
        levels[m] = {
            code: sum((p if loop else q) * (1 if sums is None else sums[c]) for _, c, loop in states.successors(code))
            for code in levels[m]
        }
    return levels[:n]


def _canonical_code(code, d):
    """The state of the canonical SAW of a state's orbit: axes renumbered in
    order of first appearance, each first taken in the + direction."""
    base, digits = 2 * d, []
    while code > 1:
        code, s = divmod(code, base)
        digits.append(s)
    first = {}  # axis -> (canonical axis, sign of its first step)
    out = 1
    for s in reversed(digits):
        axis, sign = (s, -1) if s < d else (base - 1 - s, 1)
        c, sign0 = first.setdefault(axis, (len(first), sign))
        out = out * base + (base - 1 - c if sign == sign0 else c)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(3)])
def test_canonical_sums_match_every_orbit(d, lam):
    p, q = lam.as_integer_ratio()
    for n in range(8):
        canon = sp._completion_sums(_LEStates(GraphCtx.lattice(d), n), p, q)
        assert len(canon) == n + 1 and canon[n] is None
        for m, level in enumerate(_sums_oracle(n, d, p, q)):
            orbits = {}
            for code, total in level.items():
                orbits.setdefault(_canonical_code(code, d), set()).add(total)
            assert all(len(totals) == 1 for totals in orbits.values()), (n, m)
            assert canon[m] == {c: totals.pop() for c, totals in orbits.items()}, (n, m)


def _canonical_state_count(n, d):
    """States the backward fill charges: canonical SAWs of length <= m of
    the parity of m, summed over m < n, counted from the oracle's tables."""
    return sum(len({_canonical_code(c, d) for c in level}) for level in _sums_oracle(n, d, 1, 2))


@pytest.mark.parametrize("d, n, lam", [(2, 6, Fraction(1, 2)), (3, 5, Fraction(3)), (2, 7, Fraction(1))])
def test_sample_exact_budget_is_exact(monkeypatch, d, n, lam):
    """The fill charges each canonical state it fills and the walk-down each
    step it draws; lambda = 1 fills nothing."""
    count, act = 9, LoopActivity.constant(lam)
    charged = (0 if lam == 1 else _canonical_state_count(n, d)) + n * count
    monkeypatch.setenv("LWW_BUDGET", str(charged))
    want = sp.sample_exact(n, d, act, 4, count)
    assert want == _sample_oracle(n, d, lam, 4, count)
    monkeypatch.setenv("LWW_BUDGET", str(charged - 1))
    with pytest.raises(ResourceError, match="LWW_BUDGET"):
        sp.sample_exact(n, d, act, 4, count)


def test_sample_exact_independent_of_batch_size(monkeypatch):
    for lam in (Fraction(1, 2), Fraction(1)):
        got = []
        for batch in (1, 3, 2000):
            monkeypatch.setattr(sp, "BATCH", batch)
            got.append(sp.sample_exact(7, 2, LoopActivity.constant(lam), 2**63 + 5, 10))
        assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lambda1_closed_form_matches_general_path(d):
    """At lambda = 1 sample_exact skips the fill; the general path with
    p = q = 1 draws the same walks."""
    for n in (0, 1, 5, 8):
        for seed in (0, 7, 2**64 - 1):
            states = _LEStates(GraphCtx.lattice(d), n)
            levels = sp._completion_sums(states, 1, 1)
            ks = (sp._philox_raw(seed, 0, 30, n) >> np.uint64(11)).tolist()
            steps = np.array([sp._walk_down(states, levels, 1, 1, row) for row in ks], dtype=np.int64)
            want = sp._lattice_walks(steps, d)
            assert sp.sample_exact(n, d, LoopActivity.constant(1), seed, 30) == want, (n, seed)


def test_csv_rows_shape():
    walks = sp.sample_exact(5, 2, LoopActivity.constant(1), seed=4, count=10)
    rows = sp.walk_rows(walks, 5, 2)
    assert len(rows) == 10
    for i, row in enumerate(rows):
        assert row[0] == i
        assert len(row) == 2 + 2 + 1
        end_sq = row[-1]
        assert end_sq == row[2] ** 2 + row[3] ** 2


def _walk_brute(steps, d):
    """Vertex tuple of the walk from the origin with the given step codes."""
    pos = [0] * d
    out = [tuple(pos)]
    for s in steps:
        axis, sgn = divmod(int(s), 2)
        pos[axis] += 1 if sgn else -1
        out.append(tuple(pos))
    return tuple(out)


@pytest.mark.parametrize("n", [1, 5, 10, 64])
def test_philox_raw_matches_numpy(n):
    rng = np.random.default_rng(0)
    seeds = [0, 1, 2**32 - 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, int(rng.integers(2**62))]
    starts = [0, 12345, 2**63 - 1, 2**64 - 3]
    for seed in seeds:
        for start in starts:
            raw = sp._philox_raw(seed, start, 3, n)
            assert raw.shape == (3, n) and raw.dtype == np.uint64
            for r in range(3):
                key = np.array([seed, start + r], dtype=np.uint64)
                assert np.array_equal(raw[r], np.random.Philox(key=key).random_raw(n)), (seed, start + r)


def test_mulhilo_matches_python_ints():
    """Both Philox multipliers against Python ints, on words whose 32-bit
    limbs are 0, 1 or all ones (where a lost carry shows) and random words."""
    edge = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1, 0xFFFFFFFF00000000, 0xFFFFFFFF00000001]
    words = edge + np.random.default_rng(21).integers(0, 2**64, size=200, dtype=np.uint64).tolist()
    x = np.array(words, dtype=np.uint64)
    for m in sp._PHILOX_M:
        hi, lo = sp._mulhilo(m, x)
        assert hi.tolist() == [(m * w) >> 64 for w in words], hex(m)
        assert lo.tolist() == [(m * w) % 2**64 for w in words], hex(m)
    assert x.tolist() == words  # the input is left as it was


def test_seed_keying_is_exact():
    a = sp._philox_raw(2**63, 0, 4, 8)
    b = sp._philox_raw(2**63 + 1, 0, 4, 8)
    assert not np.array_equal(a, b)
    cfg = dict(d=2, n=6, lam=Fraction(1, 2), num_samples=500)
    assert sp.msd_importance(sp.SamplerConfig(seed=2**63, **cfg)) != sp.msd_importance(
        sp.SamplerConfig(seed=2**63 + 1, **cfg)
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=-1),
        dict(seed=2**64),
        dict(num_samples=0),
        dict(num_samples=-3),
        dict(n=sp.MAX_STEPS + 1),
        dict(n=-1),
        dict(d=0),
    ],
)
def test_sampler_config_rejects(kwargs):
    base = dict(d=2, n=4, lam=Fraction(1, 2), num_samples=10, seed=0)
    with pytest.raises(PreconditionError):
        sp.SamplerConfig(**{**base, **kwargs})


def test_sample_exact_rejects_bad_seed():
    for seed in (-1, 2**64):
        with pytest.raises(PreconditionError):
            sp.sample_exact(2, 1, LoopActivity.constant(1), seed=seed, count=1)


@pytest.mark.parametrize("n, count", [(-1, 2), (2, -1)])
def test_sample_exact_rejects_bad_size(n, count):
    with pytest.raises(PreconditionError):
        sp.sample_exact(n, 2, LoopActivity.constant(1), seed=0, count=count)


@pytest.mark.parametrize("d", [1, 2, 3, 15])
def test_batch_loop_counts_match_loop_count(d):
    # d = 15 at n = 10 overflows the packed code and compares coordinates
    rng = np.random.default_rng(d)
    for n in (0, 1, 2, 7, 10):
        steps = rng.integers(0, 2 * d, size=(300, n))
        keys = sp._walk_keys(steps, d)
        loops, ends = sp._loop_counts(keys), sp._endpoints(keys, d)
        for r in range(len(steps)):
            w = _walk_brute(steps[r], d)
            assert loops[r] == loop_count(w)
            assert tuple(ends[r]) == w[-1]


@pytest.mark.parametrize(
    "d, n, dtype",
    [
        # packed codes, largest ((2n+1)^d - 1) / 2, on each side of every dtype cut
        (1, 127, np.int8), (1, 128, np.int16),
        (2, 7, np.int8), (2, 8, np.int16),
        (2, 127, np.int16), (2, 128, np.int32),
        (3, 19, np.int16), (3, 20, np.int32),
        (7, 11, np.int32), (7, 12, np.int64),
        (8, 116, np.int64),
        # (2n+1)^d >= 2^63: coordinates in [-n, n]
        (8, 117, np.int8), (8, 127, np.int8), (8, 128, np.int16),
    ],
)
def test_walk_keys_dtype_boundaries(d, n, dtype):
    up, down = 2 * d - 1, 2 * d - 2  # +e_{d-1} and -e_{d-1}: codes +-n (2n+1)^(d-1)
    fixed = [[up] * n, [down] * n, [0] * n, [1] * n, ([up, down] * n)[:n], ([0, up, 1, down] * n)[:n]]
    steps = np.array(fixed + np.random.default_rng(n).integers(0, 2 * d, size=(30, n)).tolist(), dtype=np.int64)
    keys = sp._walk_keys(steps, d)
    assert keys.dtype == dtype and keys.shape[:2] == (n + 1, len(steps))
    assert keys.ndim == (2 if (2 * n + 1) ** d < 2**63 else 3)
    loops, ends = sp._loop_counts(keys), sp._endpoints(keys, d)
    for r in range(len(steps)):
        w = _walk_brute(steps[r], d)
        assert loops[r] == loop_count(w), (r, steps[r])
        assert tuple(ends[r]) == w[-1], r


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12), st.data())
def test_batch_loop_counts_property(d, n, data):
    walks = data.draw(st.lists(st.lists(st.integers(0, 2 * d - 1), min_size=n, max_size=n), min_size=1, max_size=6))
    steps = np.array(walks, dtype=np.int64).reshape(len(walks), n)
    loops = sp._loop_counts(sp._walk_keys(steps, d))
    assert loops.tolist() == [loop_count(_walk_brute(s, d)) for s in steps]


def test_msd_importance_independent_of_batch_size(monkeypatch):
    cfg = sp.SamplerConfig(d=2, n=9, lam=Fraction(2), num_samples=7000, seed=13)
    got = []
    for batch in (1000, 2048, 7000):
        monkeypatch.setattr(sp, "BATCH", batch)
        rows = [row for b in sp._importance_batches(cfg) for row in sp._rows(*b)]
        sp._importance_samples.cache_clear()  # draw the samples in batches of this size
        got.append((sp.msd_importance(cfg), rows))
    assert got[0] == got[1] == got[2]


def test_walk_rows_match_loop_count():
    walks = sp.sample_exact(6, 2, LoopActivity.constant(Fraction(1, 2)), seed=8, count=200)
    rows = sp.walk_rows(walks, 6, 2)
    assert rows == [(i, loop_count(w)) + w[-1] + (sum(c * c for c in w[-1]),) for i, w in enumerate(walks)]
