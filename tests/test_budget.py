"""The budget ledger (enumeration._Budget): every engine's refusal in one
form, the up-front charge's exact boundary, and refusals that allocate
little before they are made."""

import tracemalloc
from fractions import Fraction

import pytest

import lww
from lww import enumeration as en
from lww import sampling as sp
from lww.core import GraphCtx, LoopActivity

Z2 = GraphCtx.lattice(2)
ONE, HALF, ZERO = (LoopActivity.constant(v) for v in (1, Fraction(1, 2), 0))


def _no_guard(monkeypatch):
    monkeypatch.setattr(en, "_guard", lambda ctx, max_len: None)


def _loop_erased_table(monkeypatch):
    for m in (2, 4, 6):  # the catalogs are built first, so only the SAW charge counts
        en.closed_walk_catalog(Z2, m)
    _no_guard(monkeypatch)
    return 1 + 1 + 2 + 5 + 13 + 36 + 98 - 1, lambda: en.loop_erased_two_point_table(HALF, 6, Z2)


def _catalog(monkeypatch):
    _no_guard(monkeypatch)
    return 50, lambda: en.closed_walk_catalog(Z2, 8)


def _cached_rows(monkeypatch):
    en._transfer(7, Z2)
    return en._packed_rows(7, Z2)[2] - 1, lambda: en.chi_series(HALF, 7, Z2)


# engine -> (monkeypatch -> (a budget below the call's count, the call)), from
# the cases of each engine's budget tests
REFUSALS = {
    "up-front guard": lambda mp: (1000, lambda: en.walk_sum((0, 0), None, ONE, 10, Z2)),
    "walk generator": lambda mp: (1 + 4 + 16 + 64 - 1, lambda: list(en.walks(Z2, (0, 0), 3))),
    "transfer engine": lambda mp: (1000, lambda: en.loop_count_table(10, 2)),
    "cached transfer rows": _cached_rows,
    "SAW counter": lambda mp: (1 + 1 + 2 + 5 + 13 - 1, lambda: en._transfer(5, Z2, ZERO)),
    "loop-erased table": _loop_erased_table,
    "closed-walk catalog": _catalog,
    "importance sampler": lambda mp: (10 * 100 - 1, lambda: sp.msd_importance(
        sp.SamplerConfig(d=2, n=9, lam=Fraction(2), num_samples=100, seed=21))),
    "exact sampler": lambda mp: (1000, lambda: sp.sample_exact(10, 2, HALF, seed=0, count=1)),
}


@pytest.mark.parametrize("engine", list(REFUSALS))
def test_every_refusal_is_one_line_naming_its_engine(monkeypatch, engine):
    monkeypatch.delenv("LWW_BUDGET", raising=False)
    lww.clear_caches()
    budget, call = REFUSALS[engine](monkeypatch)
    monkeypatch.setenv("LWW_BUDGET", str(budget))
    with pytest.raises(en.ResourceError) as err:
        call()
    msg = str(err.value)
    assert "\n" not in msg
    assert msg.startswith(engine + ": ") and msg.endswith(f" exceed LWW_BUDGET={budget}")
    lww.clear_caches()


def test_up_front_charge_is_the_exact_power(monkeypatch):
    """charge_power refuses base^exp exactly when it exceeds the limit, on
    either side of the bit-length shortcut."""
    for limit in range(260):
        monkeypatch.setenv("LWW_BUDGET", str(limit))
        for base in range(6):
            for exp in range(-1, 10):
                refused = exp > 0 and base**exp > limit
                ledger = en._Budget("engine", "units")
                if refused:
                    with pytest.raises(en.ResourceError, match=rf": {base}\^{exp} units exceed"):
                        ledger.charge_power(base, exp)
                else:
                    ledger.charge_power(base, exp)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_up_front_refusal_builds_no_huge_power(monkeypatch):
    """6^(10^7) naive walks are refused by bit length: the power, millions
    of digits long, is never built."""
    monkeypatch.delenv("LWW_BUDGET", raising=False)
    assert _traced_peak(lambda: en.closed_walk_catalog(GraphCtx.lattice(3), 10**7)) < 1 << 20


def test_transfer_states_hold_no_power_table(monkeypatch):
    """A long transfer refused after a few levels allocates little: its
    states keep no table of the powers (2d)^i."""
    monkeypatch.setenv("LWW_BUDGET", "1000")
    lww.clear_caches()
    assert _traced_peak(lambda: en.chi_series(HALF, 20000, Z2)) < 5 << 20
    lww.clear_caches()
