"""One-shot verification suites.

Each suite runs an identity battery and returns a list of CheckResult rows;
the CLI prints one line per check and exits nonzero on any failure. The
acceptance tests call the same functions, so the CLI and pytest agree by
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from .core import (
    GraphCtx,
    LoopActivity,
    _erase,
    classify,
    concat,
    l1,
    loop_count,
    loop_erase_last_exit,
    sap_key,
)
from .series import ZSeries, exp_series, spatial_convolve
from . import enumeration as en
from . import heaps as hp
from . import laces as lc
from . import expansion as ex
from . import sampling as sp
from . import analysis as an

# n-step SAWs from the origin of Z^2, n = 1..12 (OEIS A001411)
SAW_COUNTS_D2 = (4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932)


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _first_divergence(a: ZSeries, b: ZSeries):
    for n, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            return f"first divergent coefficient: order {n}, lhs {x}, rhs {y}"
    return ""


def _series_eq(suite, name, a: ZSeries, b: ZSeries, out):
    ok = a.coeffs == b.coeffs
    out.append(CheckResult(suite, name, ok, "" if ok else _first_divergence(a, b)))
    return ok


def _tables_eq(suite, name, a, b, keys, out):
    """One check that the SpatialSeries a and b agree at every point of keys;
    the detail names the first point, in sorted order, where they differ."""
    x = next((x for x in sorted(keys) if a.at(x).coeffs != b.at(x).coeffs), None)
    detail = "" if x is None else f"x={x}; " + _first_divergence(a.at(x), b.at(x))
    out.append(CheckResult(suite, name, x is None, detail))


# ---------------------------------------------------------------------------


def suite_core(nmax: int = 6) -> list:
    out = []
    ctx = GraphCtx.lattice(2)
    origin = ctx.origin()

    le_ok = lelast_ok = endpoints_ok = sap_ok = idem_ok = True
    for w in en.walks(ctx, origin, nmax):
        saw, erased = _erase(w)
        if loop_erase_last_exit(w) != saw:
            lelast_ok = False
        if saw[0] != w[0] or saw[-1] != w[-1]:
            endpoints_ok = False
        if _erase(saw)[0] != saw:
            idem_ok = False
        for loop in erased:
            if classify(loop) != "SAP":
                sap_ok = False
    out.append(CheckResult("core", f"loop_erase == last-exit on all walks <= {nmax}", lelast_ok))
    out.append(CheckResult("core", "loop erasure preserves endpoints", endpoints_ok))
    out.append(CheckResult("core", "loop erasure idempotent on SAWs", idem_ok))
    out.append(CheckResult("core", "every erased loop is a SAP", sap_ok))

    # SapKey isometry invariance on sampled polygons, under the 8 signed
    # permutations of Z^2
    polys = [
        ((0, 0), (1, 0), (0, 0)),
        ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0)),
        ((2, 1), (3, 1), (3, 2), (2, 2), (2, 1)),
        ((0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1), (0, 0)),
    ]
    iso_ok = True
    for p in polys:
        key = sap_key(p)
        for perm, signs in product(permutations(range(2)), product((1, -1), repeat=2)):
            moved = tuple(tuple(signs[i] * v[perm[i]] for i in range(2)) for v in p)
            shifted = tuple(tuple(a + 3 for a in v) for v in moved)
            if sap_key(shifted) != key or sap_key(tuple(reversed(p))) != key:
                iso_ok = False
    out.append(CheckResult("core", "SapKey invariant under isometries/reversal/translation", iso_ok))

    # non-repulsiveness witnesses (both strict directions)
    sup_found = sub_found = False
    for w1 in en.walks(ctx, origin, nmax):
        if sup_found and sub_found:
            break
        n1 = loop_count(w1)
        for w2 in en.walks(ctx, w1[-1], nmax - (len(w1) - 1)):
            if len(w2) == 1:
                continue
            n12 = loop_count(concat(w1, w2))
            n2 = loop_count(w2)
            if n12 > n1 + n2:
                sup_found = True
            elif n12 < n1 + n2:
                sub_found = True
            if sup_found and sub_found:
                break
    out.append(CheckResult("core", "non-repulsiveness witnesses in both directions", sup_found and sub_found))
    return out


def suite_lm_rep(d: int, lam, nmax: int, max_l1: int = 3) -> list:
    out = []
    ctx = GraphCtx.lattice(d)
    act = LoopActivity.constant(lam)
    g = en.two_point_table(act, nmax, ctx)
    gb = en.loop_erased_two_point_table(act, nmax, ctx)
    keys = {x for x in set(g.support()) | set(gb.support()) if l1(x, ctx.origin()) <= max_l1}
    _tables_eq("lm-rep", f"LM representation d={d} lambda={lam} nmax={nmax} |x|<= {max_l1}", gb, g, keys, out)
    # alpha0 cross-check: alpha0 = 1 + closed-walk sum = 1 + z lam |Omega| D*H(0)
    a0 = en.alpha0(act, nmax, ctx)
    closed = en.walk_sum(ctx.origin(), ctx.origin(), act, nmax, ctx)  # the 0-step walk is the 1
    _series_eq("lm-rep", f"alpha0 = 1 + closed walk sum (d={d}, lambda={lam})", a0, closed, out)
    z_lam = ex.step_kernel(ZSeries.monomial(lam, 1, nmax), ctx)
    rhs = ZSeries.one(nmax) + spatial_convolve(z_lam, en.reduced_table(act, nmax, ctx)).at(ctx.origin())
    _series_eq("lm-rep", f"alpha0 = 1 + z lam |Omega| (D*H)(0) (d={d}, lambda={lam})", a0, rhs, out)
    # SAP form of alpha0 - 1: sum over polygons of lam z^k exp(mu(range))
    sap_sum = ZSeries.zero(nmax)
    origin = ctx.origin()
    for eta in en.saws(ctx, origin, nmax - 1):
        if len(eta) >= 2 and origin in ctx.neighbors(eta[-1]):
            k = len(eta)  # steps of the polygon eta + (origin,)
            mu = en.loop_measure(frozenset(eta), frozenset(), act, nmax - k, ctx)
            sap_sum = sap_sum + (exp_series(mu.to_order(nmax)) * Fraction(lam)).shift(k)
    _series_eq(
        "lm-rep",
        f"alpha0 - 1 = sum over SAPs of lam z^k exp(mu(range)) (d={d}, lambda={lam})",
        a0 - ZSeries.one(nmax),
        sap_sum,
        out,
    )
    return out


class _EdgeCodes(dict):
    """{(u, v): base^i, {u, v} the i-th edge used}: no sum over <= 2 nmax edges carries."""

    def __init__(self, nmax: int):
        self.base = 2 * nmax + 1

    def __missing__(self, step):
        self[step] = self[step[::-1]] = c = self.base ** (len(self) // 2)  # two entries per edge
        return c


def _grid(r: int):
    """The box [-r, r]^2 of Z^2 on row-major labels (x + r)(2r + 1) + y + r, and the label of 0.
    Labels order as their points do, so _grow walks the box as it walks Z^2."""
    side = 2 * r + 1
    edges = [(i * side + j, k * side + m) for (i, j), ns in hp.box_graph(side, side).adjacency for k, m in ns]
    return GraphCtx.finite(range(side * side), edges), r * side + r


def suite_heaps(nmax_walks: int = 8, box_cap: int = 8) -> list:
    """Viennot's bijection both ways: walks of Z^2 (len <= nmax_walks, on the int _grid) from legal
    pairs, edge multisets kept (_EdgeCodes sums), a heap per erased list (256 kept); 3x3-box pairs."""
    out = []
    ctx, centre = _grid(nmax_walks)
    get = _EdgeCodes(nmax_walks).__getitem__
    ok = True
    prev, cycles = None, {}  # cycles: erased loop -> (its oriented cycle, its edge code)
    by_list = {}  # tuple(erased) -> (heap, its edge code, same_pieces)
    for total, (w, saw, erased) in enumerate(en._grow(ctx, (centre,), nmax_walks), 1):
        if erased is not prev:  # _grow shares one erased list until a loop closes
            prev = erased
            key = tuple(erased)
            if key not in by_list:
                if len(by_list) == 256:
                    by_list.clear()
                for e in erased:
                    if e not in cycles:
                        cycles[e] = hp.OrientedCycle.from_closed_walk(e), sum(map(get, zip(e, e[1:])))
                loops = [cycles[e][0] for e in erased]
                heap = hp.CycleHeap.of(loops)
                same = sorted(p.seq for p in heap.pieces) == sorted(c.seq for c in loops)
                by_list[key] = heap, sum(cycles[e][1] for e in erased), same
            heap, heap_code, same_pieces = by_list[key]
        back = hp.loop_addition(hp.LegalPair(eta=saw, heap=heap))
        if back != w or not same_pieces or (heap.pieces or w != saw) and (
                sum(map(get, zip(w, w[1:]))) != heap_code + sum(map(get, zip(saw, saw[1:])))):
            ok = False
            break
    out.append(
        CheckResult("heaps", f"Viennot round-trip + multiset conservation on {total} walks (len <= {nmax_walks}, d=2)", ok)
    )

    # legal pairs on a 3x3 box of total size <= box_cap
    box = hp.box_graph(3, 3)
    heaps = sorted(((h.size(), h) for h in hp.all_heaps(hp.all_oriented_cycles(box, box_cap), box_cap)),
                   key=lambda e: e[0])
    ok = True
    count = 0
    for eta in en.saws(box, (0, 0), box_cap):
        budget = box_cap - (len(eta) - 1)
        if budget < 2:  # only the empty heap fits; such pairs are not counted
            continue
        for size, heap in heaps:  # by size
            if size > budget:
                break
            pair = hp.LegalPair(eta=eta, heap=heap)
            if not pair.is_legal():
                continue
            count += 1
            if hp.loop_erasure_to_pair(hp.loop_addition(pair)) != pair:
                ok = False
    out.append(
        CheckResult("heaps", f"loop_addition/erasure inverse on {count} legal pairs (3x3 box, size <= {box_cap})", ok)
    )
    return out


def suite_heap_theorem(nmax: int = 8) -> list:
    out = []
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
        act = LoopActivity.constant(lam)
        for dims in ((2, 2), (3, 2), (3, 3)):
            box = hp.box_graph(*dims)
            lhs = hp.trivial_heap_sum(frozenset(), box, act, nmax)
            rhs = exp_series(-hp.closed_walk_loop_sum(frozenset(), box, act, nmax))
            _series_eq(
                "cycle-gas",
                f"heap theorem {dims[0]}x{dims[1]} lambda={lam}",
                lhs,
                rhs,
                out,
            )
        box = hp.box_graph(3, 3)
        for tgt in ((0, 0), (1, 1), (2, 2)):
            gas = hp.cycle_gas_two_point(tgt, box, act, nmax, origin=(0, 0))
            direct = en.two_point(tgt, act, nmax, box, origin=(0, 0))
            _series_eq("cycle-gas", f"cycle gas = G on 3x3, x={tgt}, lambda={lam}", gas, direct, out)
            if tgt == (1, 1):
                gas_o = gas
        gas_u = hp.cycle_gas_two_point((1, 1), box, act, nmax, origin=(0, 0), unoriented=True)
        _series_eq("cycle-gas", f"unoriented weight -2 lambda bookkeeping, lambda={lam}", gas_u, gas_o, out)
    return out


def suite_laces(seed: int = 20260810, assignments: int = 20) -> list:
    out = []
    rng = random.Random(seed)

    def rand_frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 7))

    ok = True
    for L in range(2, 7):
        for _ in range(assignments):
            ws = {(s, t): rand_frac() for s, t in combinations(range(L + 1), 2)}
            if lc.connected_graph_sum(0, L, ws) != lc.lace_prescription_sum(0, L, ws):
                ok = False
    out.append(CheckResult("laces", f"lace prescription, single label, intervals <= 6, {assignments} weight draws", ok))
    ok = True
    for L in range(2, 5):
        for _ in range(assignments):
            ws = {}
            for s, t in combinations(range(L + 1), 2):
                ws[(s, t, lc.SPACELIKE)] = rand_frac()
                ws[(s, t, lc.TIMELIKE)] = rand_frac()
            if lc.connected_graph_sum(0, L, ws) != lc.lace_prescription_sum(0, L, ws):
                ok = False
    out.append(CheckResult("laces", f"lace prescription, dual label, intervals <= 4, {assignments} weight draws", ok))
    ok = True
    for L in range(1, 7):
        for _ in range(assignments):
            ws = {(s, t): rand_frac() for s, t in combinations(range(L + 1), 2)}
            if lc.kj_recursion_residual(0, L, ws) != 0:
                ok = False
    out.append(CheckResult("laces", f"K/J recursion on intervals <= 6, {assignments} weight draws", ok))

    # structural checks
    ok = True
    for L in range(2, 6):
        for lace in lc.all_laces(0, L):
            if lc.lace_of(lace, 0, L) != lace or not lc.is_lace(lace, 0, L):
                ok = False
            comp = lc.compatible_edges(lace, 0, L)
            for s, t in combinations(range(L + 1), 2):
                e = (s, t)
                if e in lace:
                    continue
                in_comp = e in comp
                stays = lc.lace_of(lace | {e}, 0, L) == lace
                if in_comp != stays:
                    ok = False
    out.append(CheckResult("laces", "lace_of idempotent; compatibility consistent", ok))
    return out


def suite_lace_eq(d: int, lam, nmax: int = 6) -> list:
    out = []
    ctx = GraphCtx.lattice(d)
    act = LoopActivity.constant(lam)
    res = ex.lace_recursion_residual(act, nmax, ctx)
    out.append(
        CheckResult(
            "lace-eq",
            f"lace equation residual = 0 (d={d}, lambda={lam}, nmax={nmax})",
            res == 0,
            "" if res == 0 else f"max residual {res}",
        )
    )
    direct = ex.pi_total_table(act, nmax, ctx)
    oracle = ex.pi_oracle(act, nmax, ctx)
    keys = set(direct.support()) | set(oracle.support())
    _tables_eq("lace-eq", f"pi_total = pi_oracle (d={d}, lambda={lam}, nmax={nmax})", direct, oracle, keys, out)
    return out


def suite_visits(d: int, lam, nmax: int) -> list:
    out = []
    ctx = GraphCtx.lattice(d)
    act = LoopActivity.constant(lam)
    origin = ctx.origin()
    a0 = en.alpha0(act, nmax, ctx)
    lhs = en.visit_weighted_closed_sum(origin, origin, act, nmax, ctx)
    _series_eq("visits", f"visit sum at x = alpha0(alpha0-1) (d={d}, lambda={lam})", lhs, a0 * (a0 - ZSeries.one(nmax)), out)
    ys = [(1,)] if d == 1 else [(1, 0), (1, 1)]
    for y in ys:
        lhs = en.visit_weighted_closed_sum(origin, y, act, nmax, ctx)
        rhs = en.true_bubble_chain(origin, y, act, nmax, ctx)
        _series_eq("visits", f"bubble chain identity y={y} (d={d}, lambda={lam})", lhs, rhs, out)
    cases = [((0,), (2,), (1,))] if d == 1 else [((0, 0), (1, 0), (0, 1))]
    for x, y, b in cases:
        lhs = en.split_visit_sum(x, y, b, act, nmax, ctx)
        rhs = en.split_visit_sum_rhs(x, y, b, act, nmax, ctx)
        _series_eq("visits", f"split identity x={x} y={y} b={b} (d={d}, lambda={lam})", lhs, rhs, out)
    return out


def suite_inequalities(nmax: int = 8) -> list:
    out = []
    ctx = GraphCtx.lattice(2)
    origin = ctx.origin()

    # Trivial-G bound (hypothesis: sup activity > 1)
    for lam in (Fraction(3, 2), Fraction(2)):
        act = LoopActivity.constant(lam)
        chi = en.chi_series(act, nmax, ctx)
        ok = all(
            chi.coeffs[n] <= lam ** (n // 2) * Fraction((2 * ctx.d) ** n)
            for n in range(nmax + 1)
        )
        out.append(CheckResult("ineq", f"c_n <= lam^(n/2) (2d)^n for lam={lam} (lam > 1 hypothesis)", ok))

    for lam in (Fraction(1, 2), Fraction(2)):
        act = LoopActivity.constant(lam)
        # Repulsion: I^w <= I coefficientwise on sampled walks
        rng = random.Random(11)
        ok = True
        for _ in range(25):
            n = rng.randint(2, 6)
            w = [origin]
            for _ in range(n):
                w.append(rng.choice(ctx.neighbors(w[-1])))
            w = tuple(w)
            a = rng.randint(0, n - 1)
            b = rng.randint(a + 1, n)
            iw = en.i_omega(w, a, b, act, 6, ctx)
            ii = en.interaction_two_point(w[a], w[b], act, 6, ctx)
            if not iw.leq(ii):
                ok = False
        out.append(CheckResult("ineq", f"I^w <= I coefficientwise (lambda={lam})", ok))

        # bubble chain: restricted <= true <= alpha0 * upper
        a0 = en.alpha0(act, nmax, ctx)
        ok_restr = True
        ok_upper = True
        for y in ((1, 0), (1, 1), (2, 0)):
            t = en.true_bubble_chain(origin, y, act, nmax, ctx)
            r = en.true_bubble_chain(origin, y, act, nmax, ctx, forbidden=frozenset([(-1, 0)]))
            u = en.upper_bubble_chain(origin, y, act, nmax, ctx)
            if not r.leq(t):
                ok_restr = False
            if not t.leq(a0 * u):
                ok_upper = False
        out.append(CheckResult("ineq", f"restricted BC <= BC (lambda={lam})", ok_restr))
        out.append(
            CheckResult(
                "ineq",
                f"BC <= alpha0 * upper BC (lambda={lam}; without the alpha0 factor the bound fails at order 4)",
                ok_upper,
            )
        )

        # one-step submultiplicativity
        g = en.two_point_table(act, nmax, ctx)
        al = en.alpha_renorm(act, nmax, ctx)
        zdg = spatial_convolve(ex.step_kernel(al.shift(1), ctx), g)
        ok = all(g.at(y).leq(zdg.at(y)) for y in ((1, 0), (1, 1), (2, 1)))
        out.append(CheckResult("ineq", f"G(y) <= z alpha |Omega| (D*G)(y) (lambda={lam})", ok))

        # loop measure monotonicity + isometry, alpha0 >= alpha >= 1
        A1 = frozenset([origin])
        A2 = frozenset([origin, (1, 0)])
        B1 = frozenset()
        B2 = frozenset([(0, 1)])
        m_a1 = en.loop_measure(A1, B1, act, 6, ctx)
        m_a2 = en.loop_measure(A2, B1, act, 6, ctx)
        m_b2 = en.loop_measure(A1, B2, act, 6, ctx)
        mono = m_a1.leq(m_a2) and m_b2.leq(m_a1)
        rot = en.loop_measure(
            frozenset([(0, 0), (0, 1)]), frozenset([(-1, 0)]), act, 6, ctx
        )
        base = en.loop_measure(
            frozenset([(0, 0), (1, 0)]), frozenset([(0, -1)]), act, 6, ctx
        )
        mono = mono and rot.coeffs == base.coeffs
        out.append(CheckResult("ineq", f"loop measure monotone in A, antitone in B, isometry invariant (lambda={lam})", mono))
        a0 = en.alpha0(act, 6, ctx)
        al6 = en.alpha_renorm(act, 6, ctx)
        ok = al6.leq(a0) and ZSeries.one(6).leq(al6)
        out.append(CheckResult("ineq", f"alpha0 >= alpha >= 1 coefficientwise (lambda={lam})", ok))

        # derivative respects subset inclusion of walk sets: walks avoiding a
        # vertex form a subset of all walks with the same weights
        sub = en.walk_sum(origin, None, act, nmax, ctx, frozenset([(2, 2)]))
        full = en.walk_sum(origin, None, act, nmax, ctx)
        ok = sub.derivative().leq(full.derivative()) and sub.leq(full)
        out.append(CheckResult("ineq", f"d/dz monotone under subset inclusion (lambda={lam})", ok))
    return out


def suite_anchors() -> list:
    """Exactly-known special cases: SRW and SAW."""
    out = []
    ok = True
    for d in (1, 2, 3):
        ctx = GraphCtx.lattice(d)
        chi = en.chi_series(LoopActivity.constant(1), 12, ctx)
        ok = ok and all(chi.coeffs[n] == (2 * d) ** n for n in range(13))
        ok = ok and sp.msd_exact(12, d, LoopActivity.constant(1)) == 12
    out.append(CheckResult("anchors", "lambda=1: c_n = (2d)^n and msd = n, d in {1,2,3}, n <= 12", ok))
    # the same measure as a table activity: not constant, so chi and the MSD
    # run the transfer engine instead of their lambda = 1 closed forms
    ones = LoopActivity.of_table({}, 1)
    ok = all(en.chi_series(ones, n, GraphCtx.lattice(d)).coeffs == tuple((2 * d) ** m for m in range(n + 1))
             and sp.msd_exact(n, d, ones) == n for d, n in ((1, 12), (2, 10), (3, 8)))
    out.append(CheckResult("anchors", "every loop weighing 1 in a table: c_n = (2d)^n and msd = n through the transfer engine, (d, n) in {(1,12),(2,10),(3,8)}", ok))
    chi0 = en.chi_series(LoopActivity.constant(0), 12, GraphCtx.lattice(2))
    ok = chi0.coeffs[1:] == SAW_COUNTS_D2
    out.append(CheckResult("anchors", "lambda=0, d=2: SAW counts 4,12,36,...,324932 (n <= 12)", ok))
    one = LoopActivity.constant(1)
    ctx2 = GraphCtx.lattice(2)
    est = an.zc_ratio_estimate(en.chi_series(one, 8, ctx2))
    a_est = an.amplitude_A_estimate(one, 8, ctx2)
    d_est = an.diffusion_D_estimate(one, 8, ctx2)
    ok = est.value == 0.25 and abs(a_est.value - 1) <= 0.1 and abs(d_est.value - 1) <= 0.1
    est2 = an.zc_ratio_estimate(en.chi_series(LoopActivity.constant(2), 10, ctx2))
    ok = ok and (1 / (4 * 2**0.5)) < est2.value < 0.25
    out.append(CheckResult("anchors", "analysis sanity: z_c, A, D anchors and lambda=2 bounds", ok))
    return out


def suite_mc(samples: int = 10**6, coverage_seeds: int = 100) -> list:
    """Monte Carlo consistency battery (acceptance-gate sizes by default)."""
    out = []
    for lam in (Fraction(1, 2), Fraction(2)):
        exact = float(sp.msd_exact(10, 2, LoopActivity.constant(lam)))
        est, se = sp.msd_importance(
            sp.SamplerConfig(d=2, n=10, lam=lam, num_samples=samples, seed=2026)
        )
        ok = abs(est - exact) <= 3 * se
        out.append(
            CheckResult(
                "mc",
                f"importance MSD within 3 stderr (lambda={lam}, {samples} samples)",
                ok,
                f"exact {exact:.4f}, est {est:.4f} +- {se:.4f}",
            )
        )
    lam = Fraction(1, 2)
    exact = float(sp.msd_exact(10, 2, LoopActivity.constant(lam)))
    hits = 0
    for s in range(coverage_seeds):
        est, se = sp.msd_importance(
            sp.SamplerConfig(d=2, n=10, lam=lam, num_samples=10**4, seed=5000 + s)
        )
        hits += abs(est - exact) <= 3 * se
    out.append(
        CheckResult(
            "mc",
            f"3-sigma coverage >= 95% over {coverage_seeds} seeds",
            hits >= 0.95 * coverage_seeds,
            f"{hits}/{coverage_seeds}",
        )
    )
    return out


SUITES = {
    "core": lambda: suite_core(),
    "heaps": lambda: suite_heaps(),
    "laces": lambda: suite_laces(),
    "lm-rep": lambda: [
        r
        for d in (1, 2)
        for lam in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
        for r in suite_lm_rep(d, lam, 8)
    ],
    "lace-eq": lambda: [
        r
        for d in (1, 2)
        for lam in (Fraction(0), Fraction(1, 2), Fraction(2))
        for r in suite_lace_eq(d, lam, 6)
    ],
    "visits": lambda: [
        r
        for d in (1, 2)
        for lam in (Fraction(1, 2), Fraction(2))
        for r in suite_visits(d, lam, 8 if d == 1 else 6)
    ],
    "cycle-gas": lambda: suite_heap_theorem(),
    "ineq": lambda: suite_inequalities(),
    "anchors": lambda: suite_anchors(),
    "mc": lambda: suite_mc(),
    "all": lambda: [
        r
        for name in ("anchors", "core", "lm-rep", "heaps", "cycle-gas", "laces", "lace-eq", "visits", "ineq", "mc")
        for r in SUITES[name]()
    ],
}
