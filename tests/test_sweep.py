"""Lambda sweeps against cold calls.

The importance sample set (sampling._importance_samples) and the packed
loop-count rows of the transfer engine (enumeration._packed_rows) do not
depend on lambda and are cached. A sweep over lambda must return exactly
what a fresh process returns for each lambda alone: the oracle here is the
same call with every cache emptied first.
"""

from fractions import Fraction

import numpy as np
import pytest

import lww
from lww import enumeration as en
from lww import sampling as sp
from lww.core import GraphCtx, LoopActivity
from lww.heaps import box_graph
from lww.series import ZSeries

SWEEP = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 5)]
EXACT_SWEEP = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
EXACT_SIZES = {1: 10, 2: 8, 3: 6}


def _cfg(d, n, lam, samples=2000, seed=21):
    return sp.SamplerConfig(d=d, n=n, lam=lam, num_samples=samples, seed=seed)


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("n", (0, 1, 10, 64))
def test_importance_sweep_matches_cold_calls(d, n):
    """n = 64 reaches the dtype limits: 32 loops in int8, |end|^2 = 4096 in int16."""
    lww.clear_caches()
    warm = [sp.msd_importance(_cfg(d, n, lam)) for lam in SWEEP]
    info = sp._importance_samples.cache_info()
    assert (info.misses, info.hits) == (1, len(SWEEP) - 1)
    cold = []
    for lam in SWEEP:
        lww.clear_caches()
        cold.append(sp.msd_importance(_cfg(d, n, lam)))
    assert warm == cold


def test_importance_samples_are_read_only_and_narrow():
    loops, end_sq = sp._importance_samples(5, 1, 64, 300)
    assert (loops.dtype, end_sq.dtype) == (np.int8, np.int16)
    for arr in (loops, end_sq):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert loops.max() <= 32 and end_sq.max() <= 64 * 64


@pytest.mark.parametrize("d", sorted(EXACT_SIZES))
def test_exact_sweep_matches_cold_calls(d):
    n, ctx = EXACT_SIZES[d], GraphCtx.lattice(d)
    calls = (
        lambda act: en.chi_series(act, n, ctx),
        lambda act: sp.msd_exact(n, d, act),
        lambda act: en.two_point_table(act, n, ctx).to_json(),
        lambda act: en.loop_count_table(n, d).rows(),
    )
    lww.clear_caches()
    warm = [[call(LoopActivity.constant(lam)) for call in calls] for lam in EXACT_SWEEP]
    info = en._packed_rows.cache_info()
    assert info.misses == 1 and info.hits > len(EXACT_SWEEP)
    cold = []
    for lam in EXACT_SWEEP:
        row = []
        for call in calls:
            lww.clear_caches()
            row.append(call(LoopActivity.constant(lam)))
        cold.append(row)
    assert warm == cold


def test_finite_rows_are_keyed_by_the_start_they_use():
    """A finite graph's first vertex, named or left as the default, builds
    its rows once."""
    box, half = box_graph(3, 3), LoopActivity.constant(Fraction(1, 2))
    lww.clear_caches()
    chi = en.chi_series(half, 8, box)
    named = en.two_point_table(half, 8, box, origin=(0, 0))
    default = en.two_point_table(half, 8, box)
    info = en._packed_rows.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert named == default and ZSeries.sum((named.at(x) for x in box.vertices()), 8) == chi


def test_caches_stay_bounded_and_clear():
    lww.clear_caches()
    for seed in range(5):
        sp.msd_importance(_cfg(2, 6, Fraction(1, 2), samples=100, seed=seed))
    assert sp._importance_samples.cache_info().currsize == 1
    limit = en._packed_rows.cache_info().maxsize
    ctx1 = GraphCtx.lattice(1)
    for n in range(limit + 4):
        en._transfer(n, ctx1)
    assert en._packed_rows.cache_info().currsize == limit
    lww.clear_caches()
    assert sp._importance_samples.cache_info().currsize == 0
    assert en._packed_rows.cache_info().currsize == 0


def test_importance_budget_cold_and_warm(monkeypatch):
    """(n+1) per sample is charged before the cache is read."""
    cfg = _cfg(2, 9, Fraction(2), samples=100)
    lww.clear_caches()
    monkeypatch.setenv("LWW_BUDGET", str(10 * 100 - 1))
    with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
        sp.msd_importance(cfg)  # cold
    monkeypatch.setenv("LWW_BUDGET", str(10 * 100))
    want = sp.msd_importance(cfg)
    monkeypatch.setenv("LWW_BUDGET", str(10 * 100 - 1))
    with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
        sp.msd_importance(cfg)  # warm
    lww.clear_caches()
    monkeypatch.setenv("LWW_BUDGET", str(10 * 100))
    assert sp.msd_importance(cfg) == want


def test_transfer_budget_cold_and_warm(monkeypatch):
    """Cached rows are refused under a budget smaller than their build took."""
    ctx, half = GraphCtx.lattice(2), LoopActivity.constant(Fraction(1, 2))
    lww.clear_caches()
    en._transfer(7, ctx)
    expanded = en._packed_rows(7, ctx)[2]
    lww.clear_caches()
    monkeypatch.setenv("LWW_BUDGET", str(expanded - 1))
    with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
        en.chi_series(half, 7, ctx)  # cold
    monkeypatch.setenv("LWW_BUDGET", str(expanded))
    want = en.chi_series(half, 7, ctx)
    monkeypatch.setenv("LWW_BUDGET", str(expanded - 1))
    for call in (
        lambda: en.chi_series(half, 7, ctx),
        lambda: sp.msd_exact(7, 2, half),
        lambda: en.loop_count_table(7, 2),
    ):
        with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
            call()  # warm
    monkeypatch.setenv("LWW_BUDGET", str(expanded))
    assert en.chi_series(half, 7, ctx) == want
