"""The loop-erasure transfer engine against slow oracles.

loop_count_table, msd_exact and lattice two_point_table (hence chi_series)
merge walks by their partial loop erasure, up to the point group;
sample_exact runs on the same canonical states and has its own oracle in
test_sampling.py. Two oracles check the engine. The walk-by-walk oracle
shares no code with it: it enumerates every walk on its own and erases
loops with its own stack. The full-state oracles (_full_transfer,
_full_saw_rows) are the engine as it was before the quotient: the same
chain run on every SAW, with no orbit and no spreading; the engine's rows
of orbit totals are spread over the endpoints (_spread_rows) before they
are compared. Results must agree exactly, down to the canonical text. Activities that weigh every loop 0
take the engine's SAW counter, checked here also against the saws() and
walks() generators, the pinned SAW counts and test_acceptance's independent
SAW enumerator; the lambda = 1 closed forms are checked against
simple-random-walk endpoint counts.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import lww
from lww import enumeration as en
from lww import sampling as sp
from lww.cli import main
from lww.core import GraphCtx, LoopActivity, sap_key, walk_weight
from lww.series import SpatialSeries, ZSeries
from test_acceptance import _saw_counts_brute

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


def _zero_table_activity(d):
    """A sap_key table that weighs every loop 0: the SAW counter's other input."""
    return LoopActivity.of_table({key: 0 for key, _ in _table_activity(d).table}, 0)


def _activities(d):
    return [LoopActivity.constant(lam) for lam in LAMBDAS] + [_table_activity(d), _zero_table_activity(d)]


class _FullStates(en._LEStates):
    """The loop-erasure chain on every SAW: _LEStates with the transition
    rule the engine ran before it ran on canonical states."""

    def points(self, code) -> list:
        """The SAW of a state, as int points from the origin: its steps are
        the base-2d digits of the code under the leading 1."""
        steps = []
        while code > 1:
            code, s = divmod(code, self.base)
            steps.append(s)
        pts = [0]
        for s in reversed(steps):
            pts.append(pts[-1] + self.moves[s])
        return pts

    def successors(self, code) -> list:
        """(endpoint, next state, erased loop) of each step out of a state, in
        GraphCtx.neighbors order. A step onto the SAW truncates it at the hit
        point and erases the loop of the steps after it, coded as a state
        (the closing step is implied); any other step pushes and erases 0."""
        pts = self.points(code)
        pos = {q: i for i, q in enumerate(pts)}
        out = []
        for s, mv in enumerate(self.moves):
            q = pts[-1] + mv
            j = pos.get(q)
            if j is None:
                out.append((q, code * self.base + s, 0))
            else:
                cut = self.base ** (len(pts) - 1 - j)
                out.append((q, code // cut, cut + code % cut))
        return out


def _full_saw_rows(n, ctx):
    """Oracle for en._saw_rows: every SAW expanded, none merged by orbit."""
    states = _FullStates(ctx, n)
    moves, rows = states.moves, [{0: 1}] + [{} for _ in range(n)]
    last, path, on_path = rows[n], [], set()
    todo = [(0, 0)] if n else []  # (endpoint, length) of the SAWs to expand
    while todo:
        q, m = todo.pop()
        for p in path[m:]:  # back up to this SAW's parent
            on_path.remove(p)
        del path[m:]
        path.append(q)
        on_path.add(q)
        states.charge(1)
        m += 1
        row = rows[m]
        for mv in moves:
            r = q + mv
            if r not in on_path:
                row[r] = row.get(r, 0) + 1
                if m < n - 1:
                    todo.append((r, m))
                elif m < n:  # expand r in place: no step out of r lands on r
                    states.charge(1)
                    for mv2 in moves:
                        t = r + mv2
                        if t not in on_path:
                            last[t] = last.get(t, 0) + 1
    return [{states.point(q): Fraction(c) for q, c in row.items()} for row in rows]


def _full_transfer(n, ctx, act=None):
    """Oracle for en._transfer: every loop-erasure state expanded, none
    merged by orbit."""
    if act is not None and act.sup() == 0:
        return _full_saw_rows(n, ctx)
    states = _FullStates(ctx, n)
    packed = act is None or act.is_constant
    width = (states.base**n).bit_length()  # N_k <= (2d)^n
    loop_weights: dict = {}  # erased loop -> activity

    one = 1 if packed else Fraction(1)
    rows = [{0: one}] + [{} for _ in range(n)]
    level = {1: one}
    for m in range(n):
        states.charge(len(level))
        row, nxt = rows[m + 1], {}
        for code, w in level.items():
            for q, child, loop in states.successors(code):
                if not loop:
                    cw = w
                elif packed:
                    cw = w << width
                else:
                    if loop not in loop_weights:
                        closed = tuple(map(states.point, states.points(loop) + [0]))
                        loop_weights[loop] = act.weight_of_key(sap_key(closed))
                    cw = w * loop_weights[loop]
                row[q] = row.get(q, 0) + cw
                if m < n - 1:
                    nxt[child] = nxt.get(child, 0) + cw
        level = nxt
    mask = (1 << width) - 1

    def value(w):
        if not packed:
            return w
        counts = []
        while w:
            counts.append(w & mask)
            w >>= width
        if act is None:
            return counts
        return sum((c * act.value**k for k, c in enumerate(counts)), Fraction(0))

    return [{states.point(q): value(w) for q, w in row.items()} for row in rows]


def _spread_rows(transfer):
    """The engine's rows of orbit totals spread over every endpoint, as the
    full-state oracles return them: counts divided digit by digit, weights
    as Fractions."""
    rows, den = transfer

    def share(w, size):
        if not isinstance(w, list):
            return Fraction(w, den * size)
        assert all(c % size == 0 for c in w), (w, size)
        return [c // size for c in w]

    return [en._spread(row, share) for row in rows]


QUOTIENT_SIZES = {1: 12, 2: 9, 3: 6, 4: 5}


@pytest.mark.parametrize("d", sorted(QUOTIENT_SIZES))
def test_quotient_transfer_matches_full_states(d):
    """Every row of the canonical-state engine equals the full-state
    oracle's, for every n up to the size, under act=None, constants
    (0 takes the SAW counter) and a sap_key table."""
    ctx = GraphCtx.lattice(d)
    acts = [None] + [LoopActivity.constant(lam) for lam in (0, Fraction(1, 2), 2, 3)] + [_table_activity(d)]
    for n in range(QUOTIENT_SIZES[d] + 1):
        for act in acts:
            assert _spread_rows(en._transfer(n, ctx, act)) == _full_transfer(n, ctx, act), (n, act)


@pytest.mark.parametrize("d, n", [(8, 3), (8, 4), (10, 2), (10, 3)])
def test_quotient_transfer_high_dimension(d, n):
    """The orbit spreading at d = 8 and 10, where the point group has
    2^d d! > 10^7 elements and is never walked, sap_key included."""
    ctx = GraphCtx.lattice(d)
    for act in (None, LoopActivity.constant(0), LoopActivity.constant(Fraction(1, 2)), LoopActivity.constant(2),
                _table_activity(d)):
        assert _spread_rows(en._transfer(n, ctx, act)) == _full_transfer(n, ctx, act), act


@pytest.mark.parametrize("x", [(0, 0, 0), (2, 0, 0), (1, -1, 0), (3, -2, 1), (0, 2, -2, 0, 1)])
def test_point_orbit_is_the_signed_permutations(x):
    d = len(x)
    want = {tuple(s * x[i] for s, i in zip(signs, perm))
            for perm in permutations(range(d)) for signs in product((1, -1), repeat=d)}
    got = en._point_orbit(x)
    assert len(got) == len(set(got)) and set(got) == want


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


SAW_SIZES = {1: 10, 2: 9, 3: 6, 4: 5}
SAW_COUNTS = {  # n-step SAWs from the origin, n = 1, 2, ...
    2: (4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932),
    3: (6, 30, 150, 726, 3534, 16926, 81390, 387966),
}


def _generator_table(ws, act, n, ctx):
    """Endpoint table of the walks ws, each weighed by walk_weight."""
    rows = {}
    for w in ws:
        m, lf = walk_weight(w, act, ctx)
        rows.setdefault(w[-1], [Fraction(0)] * (n + 1))[m] += lf
    return SpatialSeries.build({x: ZSeries(tuple(c)) for x, c in rows.items()}, n)


@pytest.mark.parametrize("d", sorted(SAW_SIZES))
def test_saw_counter_matches_dfs(d):
    """lambda = 0 on the lattice against the SAWs of saws(); then a table of
    zeros against every walk of walks(), each weighed by walk_weight."""
    n, ctx = SAW_SIZES[d], GraphCtx.lattice(d)
    zero = LoopActivity.constant(0)
    for origin in ((0,) * d, (2,) + (-1,) * (d - 1)):
        dfs = _generator_table(en.saws(ctx, origin, n), zero, n, ctx)
        assert en.two_point_table(zero, n, ctx, origin).to_json() == dfs.to_json()
    ends = {x: s.coeffs[n] for x, s in dfs.data}  # from the shifted origin
    msd = Fraction(sum(w * sum((a - b) ** 2 for a, b in zip(x, origin)) for x, w in ends.items()), sum(ends.values()))
    assert sp.msd_exact(n, d, zero) == msd
    if d in SIZES:
        m, act = SIZES[d], _zero_table_activity(d)
        dfs = _generator_table(en.walks(ctx, (0,) * d, m), act, m, ctx)
        assert en.two_point_table(act, m, ctx).to_json() == dfs.to_json()


@pytest.mark.parametrize("d", sorted(SAW_COUNTS))
def test_saw_counts_pinned(d):
    counts = SAW_COUNTS[d]
    chi = en.chi_series(LoopActivity.constant(0), len(counts), GraphCtx.lattice(d))
    assert chi.coeffs == (1,) + counts
    assert tuple(_saw_counts_brute(d, len(counts))) == (1,) + counts


def _canonical_saws_shorter_than(d, n):
    """Brute force over step words: the self-avoiding ones of fewer than n
    steps whose axes first appear in the order 0, 1, ..., each first taken
    in the + direction."""
    count = 0
    for m in range(n):
        for word in product([(a, s) for a in range(d) for s in (-1, 1)], repeat=m):
            x, seen, first = (0,) * d, {(0,) * d}, []
            for a, s in word:
                if a not in first:
                    if a != len(first) or s < 0:
                        break
                    first.append(a)
                x = x[:a] + (x[a] + s,) + x[a + 1 :]
                if x in seen:
                    break
                seen.add(x)
            else:
                count += 1
    return count


def test_saw_counter_charges_each_expanded_saw(monkeypatch):
    expanded = _canonical_saws_shorter_than(2, 5)  # the canonical SAWs shorter than 5 steps
    assert expanded == 1 + 1 + 2 + 5 + 13
    ctx, zero = GraphCtx.lattice(2), LoopActivity.constant(0)
    monkeypatch.setenv("LWW_BUDGET", str(expanded))
    assert sum(en._transfer(5, ctx, zero)[0][5].values()) == SAW_COUNTS[2][4]
    monkeypatch.setenv("LWW_BUDGET", str(expanded - 1))
    with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
        en._transfer(5, ctx, zero)


def test_saw_counter_high_dimension():
    # d = 10 at n = 3 would need a (2n+1)^d = 7^10 table as an occupancy map
    chi = en.chi_series(LoopActivity.constant(0), 3, GraphCtx.lattice(10))
    assert chi.coeffs == (1, 20, 20 * 19, 20 * 19 * 19)


def _srw_levels(d, n):
    """Endpoint counts of the m-step simple random walks on Z^d, m = 0..n."""
    levels = [{(0,) * d: 1}]
    for _ in range(n):
        nxt = {}
        for x, c in levels[-1].items():
            for i in range(d):
                for s in (-1, 1):
                    y = x[:i] + (x[i] + s,) + x[i + 1 :]
                    nxt[y] = nxt.get(y, 0) + c
        levels.append(nxt)
    return levels


@pytest.mark.parametrize("d", (1, 2, 3))
def test_lambda1_closed_forms(d):
    one, ctx = LoopActivity.constant(1), GraphCtx.lattice(d)
    levels = _srw_levels(d, 12)
    assert en.chi_series(one, 12, ctx).coeffs == tuple(sum(ends.values()) for ends in levels)
    for n, ends in enumerate(levels):
        msd = Fraction(sum(c * sum(a * a for a in x) for x, c in ends.items()), sum(ends.values()))
        assert sp.msd_exact(n, d, one) == msd


@pytest.mark.parametrize("d", (1, 2, 3))
def test_engine_exact_at_lambda1(d, monkeypatch):
    """The closed forms bypass the engine; the engine itself stays exact there."""
    calls = []
    transfer = en._transfer
    monkeypatch.setattr(en, "_transfer", lambda *a: calls.append(a) or transfer(*a))
    one, ctx, n = LoopActivity.constant(1), GraphCtx.lattice(d), 8
    chi = en.two_point_table(one, n, ctx).sum_over_x()
    assert calls and chi.coeffs == tuple((2 * d) ** m for m in range(n + 1))


def test_transfer_budget_guard(monkeypatch, capsys):
    half, zero = LoopActivity.constant(Fraction(1, 2)), LoopActivity.constant(0)
    monkeypatch.setenv("LWW_BUDGET", "1000")
    lww.clear_caches()
    for call in (
        lambda: en.loop_count_table(10, 2),
        lambda: sp.msd_exact(10, 2, half),
        lambda: en.two_point_table(half, 10, GraphCtx.lattice(2)),
        lambda: sp.sample_exact(10, 2, half, seed=0, count=1),
        lambda: en.two_point_table(zero, 10, GraphCtx.lattice(2)),
        lambda: sp.msd_exact(10, 2, zero),
    ):
        with pytest.raises(en.ResourceError, match="LWW_BUDGET"):
            call()
    for argv in (
        ["enumerate", "--n", "10"],
        ["msd", "--lambda", "1/2", "--n", "10"],
        ["sample", "--n", "12"],
        ["chi", "--d", "2", "--lambda", "0", "--nmax", "12"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "LWW_BUDGET" in err[0]
