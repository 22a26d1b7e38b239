"""The loop-erasure transfer engine against a slow walk-by-walk oracle.

loop_count_table, msd_exact and lattice two_point_table (hence chi_series)
merge walks by their partial loop erasure; sample_exact runs on the same
states and has its own oracle in test_sampling.py. The oracle below shares
no code with that engine: it enumerates every walk on its own and erases
loops with its own stack. Results must agree exactly, down to the
canonical text.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from lww import enumeration as en
from lww import sampling as sp
from lww.cli import main
from lww.core import GraphCtx, LoopActivity, sap_key
from lww.series import SpatialSeries, ZSeries

SIZES = {1: 8, 2: 6, 3: 4}  # (2d)^n stays small for the oracle
LAMBDAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


@lru_cache(maxsize=None)
def _walk_oracle(d, nmax):
    """Every walk of length <= nmax from the origin of Z^d, one at a time,
    loop-erased chronologically by its own stack: a Counter over
    (length, endpoint, erased loops as a tuple of closed walks)."""
    moves = [tuple(s if j == i else 0 for j in range(d)) for i in range(d) for s in (-1, 1)]
    seen = Counter()

    def rec(m, stack, loops):
        seen[m, stack[-1], loops] += 1
        if m == nmax:
            return
        for mv in moves:
            y = tuple(a + b for a, b in zip(stack[-1], mv))
            if y in stack:
                j = stack.index(y)
                rec(m + 1, stack[: j + 1], loops + (tuple(stack[j:]) + (y,),))
            else:
                rec(m + 1, stack + [y], loops)

    rec(0, [(0,) * d], ())
    return seen


def _oracle_weights(d, nmax, act):
    """{(length, endpoint): summed weight} under act."""
    out = {}
    for (m, x, loops), cnt in _walk_oracle(d, nmax).items():
        keys = loops if act.is_constant else [sap_key(loop) for loop in loops]
        out[m, x] = out.get((m, x), 0) + cnt * act.weight_of_keys(keys)
    return out


def _oracle_table(d, nmax, act, origin):
    rows = {}
    for (m, x), w in _oracle_weights(d, nmax, act).items():
        y = tuple(a + b for a, b in zip(x, origin))
        rows.setdefault(y, [Fraction(0)] * (nmax + 1))[m] += w
    return SpatialSeries.build({x: ZSeries(tuple(c)) for x, c in rows.items()}, nmax)


def _oracle_msd(d, n, act):
    ends = {x: w for (m, x), w in _oracle_weights(d, n, act).items() if m == n}
    return Fraction(sum(w * sum(c * c for c in x) for x, w in ends.items())) / sum(ends.values())


def _table_activity(d):
    """The benchmark's kind of table: one polygon at 3, everything else 1/2."""
    if d == 1:
        poly = ((0,), (1,), (0,))
    else:
        e0, e1 = [tuple(int(j == i) for j in range(d)) for i in (0, 1)]
        o = (0,) * d
        poly = (o, e0, tuple(a + b for a, b in zip(e0, e1)), e1, o)
    return LoopActivity.of_table({sap_key(poly): Fraction(3)}, Fraction(1, 2))


def _activities(d):
    return [LoopActivity.constant(lam) for lam in LAMBDAS] + [_table_activity(d)]


@pytest.mark.parametrize("d", sorted(SIZES))
def test_loop_count_table_matches_oracle(d):
    n = SIZES[d]
    want = Counter()
    for (m, x, loops), cnt in _walk_oracle(d, n).items():
        want[m, len(loops), x] += cnt
    got = en.loop_count_table(n, d, endpoint_resolved=True)
    assert got.rows() == dict(want)
    summed = Counter()
    for (m, k, _), cnt in want.items():
        summed[m, k] += cnt
    assert en.loop_count_table(n, d).rows() == dict(summed)


@pytest.mark.parametrize("d", sorted(SIZES))
def test_two_point_table_matches_oracle(d):
    n = SIZES[d]
    ctx = GraphCtx.lattice(d)
    origin = (2,) + (-1,) * (d - 1)
    for act in _activities(d):
        assert en.two_point_table(act, n, ctx).to_json() == _oracle_table(d, n, act, (0,) * d).to_json()
        shifted = en.two_point_table(act, n, ctx, origin)
        assert shifted.to_json() == _oracle_table(d, n, act, origin).to_json()
        assert en.chi_series(act, n, ctx).coeffs == shifted.sum_over_x().coeffs


@pytest.mark.parametrize("d", sorted(SIZES))
def test_msd_exact_matches_oracle(d):
    for n in range(SIZES[d] + 1):
        for act in _activities(d):
            assert sp.msd_exact(n, d, act) == _oracle_msd(d, n, act), (n, act)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(1, 3),
    n=st.integers(0, 4),
    lam=st.fractions(min_value=0, max_value=5, max_denominator=7),
)
def test_engine_matches_oracle_property(d, n, lam):
    act = LoopActivity.constant(lam)
    ctx = GraphCtx.lattice(d)
    assert en.two_point_table(act, n, ctx).to_json() == _oracle_table(d, n, act, (0,) * d).to_json()
    assert sp.msd_exact(n, d, act) == _oracle_msd(d, n, act)
    table = en.loop_count_table(n, d)
    weights = _oracle_weights(d, n, act)
    for m in range(n + 1):
        assert table.c_n(m, lam) == sum(w for (k, _), w in weights.items() if k == m)


def test_transfer_budget_guard(monkeypatch, capsys):
    half = LoopActivity.constant(Fraction(1, 2))
    monkeypatch.setenv("LWW_BUDGET", "1000")
    for call in (
        lambda: en.loop_count_table(10, 2),
        lambda: sp.msd_exact(10, 2, half),
        lambda: en.two_point_table(half, 10, GraphCtx.lattice(2)),
        lambda: sp.sample_exact(10, 2, half, seed=0, count=1),
    ):
        with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
            call()
    for argv in (["enumerate", "--n", "10"], ["msd", "--lambda", "1/2", "--n", "10"], ["sample", "--n", "12"]):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "LWW_BUDGET" in err[0]
