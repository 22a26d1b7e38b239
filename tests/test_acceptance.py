"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance is pinned here from the statement of the criterion. All
identity checks are exact (zero tolerance); the Monte Carlo criterion uses
its stated 3-sigma/95% coverage bounds; the analysis criterion uses its
stated 10% windows.

Run with `pytest tests/test_acceptance.py -v -s` or `lww verify all`.
"""

import math
import time
from fractions import Fraction

import pytest

from lww.core import GraphCtx, LoopActivity, concat, loop_count
from lww.series import ZSeries
from lww import enumeration as en
from lww import sampling as sp
from lww import analysis as an
from lww import verify as vf

PASS_LINES = []


def report(criterion, text):
    line = f"[criterion {criterion:>2}] PASS {text}"
    PASS_LINES.append(line)
    print(line)


def _assert_all(results):
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(f"{r.suite}:{r.name} {r.detail}" for r in failed)


def test_criterion_01_srw_anchor():
    t0 = time.time()
    for d in (1, 2, 3):
        ctx = GraphCtx.lattice(d)
        chi = en.chi_series(LoopActivity.constant(1), 12, ctx)
        for n in range(13):
            assert chi.coeffs[n] == (2 * d) ** n, (d, n)
    for d in (1, 2, 3):
        for n in (1, 5, 12):
            assert sp.msd_exact(n, d, LoopActivity.constant(1)) == n, (d, n)
    # the closed forms above answer lambda = 1 without enumerating; a table
    # in which every loop weighs 1 is the same measure through the transfer engine
    ones = LoopActivity.of_table({}, 1)
    for d, n in ((1, 12), (2, 10), (3, 8)):
        chi = en.chi_series(ones, n, GraphCtx.lattice(d))
        assert chi.coeffs == tuple((2 * d) ** m for m in range(n + 1)), d
        assert sp.msd_exact(n, d, ones) == n, d
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, f"c_n = (2d)^n and msd = n at lambda=1, d in {{1,2,3}}, n <= 12, closed forms and transfer engine ({elapsed:.1f}s < 60s)")


def _saw_counts_brute(d, nmax):
    """Independent SAW counter: bare recursive enumeration, no shared code
    with the walk engine."""
    ctx_moves = []
    for i in range(d):
        for s in (-1, 1):
            ctx_moves.append(tuple(s if j == i else 0 for j in range(d)))
    counts = [0] * (nmax + 1)

    def rec(path, seen):
        n = len(path) - 1
        counts[n] += 1
        if n == nmax:
            return
        x = path[-1]
        for m in ctx_moves:
            y = tuple(a + b for a, b in zip(x, m))
            if y in seen:
                continue
            seen.add(y)
            path.append(y)
            rec(path, seen)
            path.pop()
            seen.remove(y)

    origin = (0,) * d
    rec([origin], {origin})
    return counts


def test_criterion_02_saw_anchor():
    brute = _saw_counts_brute(2, 5)
    assert brute[1:6] == [4, 12, 36, 100, 284]
    chi0 = en.chi_series(LoopActivity.constant(0), 5, GraphCtx.lattice(2))
    assert [int(c) for c in chi0.coeffs[1:6]] == brute[1:6]
    report(2, "lambda=0 endpoint-summed counts 4,12,36,100,284 match the independent SAW enumerator")


def test_criterion_03_lm_rep_suite():
    t0 = time.time()
    results = []
    for d in (1, 2):
        for lam in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
            results += vf.suite_lm_rep(d, lam, 8, max_l1=3)
    _assert_all(results)
    elapsed = time.time() - t0
    assert elapsed < 600
    report(3, f"loop-erased two-point = two-point exactly, d in {{1,2}}, 4 activities, nmax=8 ({elapsed:.0f}s < 600s)")


def test_criterion_04_viennot_suite():
    t0 = time.time()
    results = vf.suite_heaps(nmax_walks=8, box_cap=8)
    _assert_all(results)
    elapsed = time.time() - t0
    assert elapsed < 300
    report(4, f"Viennot round-trip + multiset conservation, walks <= 8 (d=2) and legal pairs <= 8 (3x3 box) ({elapsed:.0f}s < 300s)")


def test_criterion_05_heap_theorem_and_cycle_gas():
    results = vf.suite_heap_theorem(nmax=8)
    _assert_all(results)
    report(5, "trivial-heap sum = exp(-loop sum) and cycle gas = G on boxes up to 3x3, nmax=8, lambda in {1/2,1,2}")


def test_criterion_06_lace_machinery():
    results = vf.suite_laces(assignments=20)
    _assert_all(results)
    report(6, "lace prescription (single label <= 6, dual label <= 4) and K/J recursion, 20 random weight draws each")


def _names(results, suite):
    assert {r.suite for r in results} == {suite}
    return [r.name for r in results]


def test_heap_and_lace_workloads_keep_their_size():
    """A speed-up or a refactor may not shrink an acceptance workload: the
    heap suite at the benchmark's sizes still replays every walk and legal
    pair, and the cycle-gas, lace, visit, inequality and LM-rep suites, at
    the sizes of their criteria, still run every check they ran."""
    assert [r.name for r in vf.suite_heaps(7, 7)] == [
        "Viennot round-trip + multiset conservation on 21845 walks (len <= 7, d=2)",
        "loop_addition/erasure inverse on 1581 legal pairs (3x3 box, size <= 7)",
    ]
    gas = [
        name
        for lam in ("1/2", "1", "2")
        for name in (
            *(f"heap theorem {dims} lambda={lam}" for dims in ("2x2", "3x2", "3x3")),
            *(f"cycle gas = G on 3x3, x={x}, lambda={lam}" for x in ("(0, 0)", "(1, 1)", "(2, 2)")),
            f"unoriented weight -2 lambda bookkeeping, lambda={lam}",
        )
    ]
    assert _names(vf.suite_heap_theorem(8), "cycle-gas") == gas
    assert [r.name for r in vf.suite_laces()] == [
        "lace prescription, single label, intervals <= 6, 20 weight draws",
        "lace prescription, dual label, intervals <= 4, 20 weight draws",
        "K/J recursion on intervals <= 6, 20 weight draws",
        "lace_of idempotent; compatibility consistent",
    ]
    visits = [
        name
        for d, ys, split in ((1, ("(1,)",), "x=(0,) y=(2,) b=(1,)"),
                             (2, ("(1, 0)", "(1, 1)"), "x=(0, 0) y=(1, 0) b=(0, 1)"))
        for lam in ("1/2", "2")
        for name in (
            f"visit sum at x = alpha0(alpha0-1) (d={d}, lambda={lam})",
            *(f"bubble chain identity y={y} (d={d}, lambda={lam})" for y in ys),
            f"split identity {split} (d={d}, lambda={lam})",
        )
    ]
    results = [r for d in (1, 2) for lam in (Fraction(1, 2), Fraction(2))
               for r in vf.suite_visits(d, lam, 8 if d == 1 else 6)]
    assert _names(results, "visits") == visits
    ineq = [f"c_n <= lam^(n/2) (2d)^n for lam={lam} (lam > 1 hypothesis)" for lam in ("3/2", "2")]
    ineq += [
        name
        for lam in ("1/2", "2")
        for name in (
            f"I^w <= I coefficientwise (lambda={lam})",
            f"restricted BC <= BC (lambda={lam})",
            f"BC <= alpha0 * upper BC (lambda={lam}; without the alpha0 factor the bound fails at order 4)",
            f"G(y) <= z alpha |Omega| (D*G)(y) (lambda={lam})",
            f"loop measure monotone in A, antitone in B, isometry invariant (lambda={lam})",
            f"alpha0 >= alpha >= 1 coefficientwise (lambda={lam})",
            f"d/dz monotone under subset inclusion (lambda={lam})",
        )
    ]
    assert _names(vf.suite_inequalities(8), "ineq") == ineq
    lm_rep = [
        name
        for d in (1, 2)
        for lam in ("0", "1/2", "1", "2")
        for name in (
            f"LM representation d={d} lambda={lam} nmax=8 |x|<= 3",
            f"alpha0 = 1 + closed walk sum (d={d}, lambda={lam})",
            f"alpha0 = 1 + z lam |Omega| (D*H)(0) (d={d}, lambda={lam})",
            f"alpha0 - 1 = sum over SAPs of lam z^k exp(mu(range)) (d={d}, lambda={lam})",
        )
    ]
    results = [r for d in (1, 2) for lam in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
               for r in vf.suite_lm_rep(d, lam, 8)]
    assert _names(results, "lm-rep") == lm_rep


def test_criterion_07_lace_equation():
    t0 = time.time()
    results = []
    for d in (1, 2):
        for lam in (Fraction(0), Fraction(1, 2), Fraction(2)):
            results += vf.suite_lace_eq(d, lam, 6)
    _assert_all(results)
    elapsed = time.time() - t0
    assert elapsed < 1800
    report(7, f"lace equation residual 0 and pi_total = pi_oracle, d in {{1,2}}, lambda in {{0,1/2,2}}, nmax=6 ({elapsed:.0f}s < 1800s)")


def test_criterion_08_visit_identities():
    results = []
    for lam in (Fraction(1, 2), Fraction(2)):
        results += vf.suite_visits(1, lam, 8)
        results += vf.suite_visits(2, lam, 6)
    _assert_all(results)
    report(8, "BC-diagonal, bubble-chain, and splitting identities exactly, d=1 at nmax=8 and d=2 at nmax=6")


def test_criterion_09_inequalities():
    results = vf.suite_inequalities(nmax=8)
    _assert_all(results)
    report(
        9,
        "coefficientwise suite: trivial-G bound (lam>1), I^w <= I, BC <= alpha0*upper (the bound needs the alpha0 factor), one-step bound, loop-measure monotonicity",
    )


def test_criterion_10_monte_carlo():
    t0 = time.time()
    results = vf.suite_mc(samples=10**6, coverage_seeds=100)
    assert [r.name for r in results] == [
        "importance MSD within 3 stderr (lambda=1/2, 1000000 samples)",
        "importance MSD within 3 stderr (lambda=2, 1000000 samples)",
        "3-sigma coverage >= 95% over 100 seeds",
    ]
    _assert_all(results)
    elapsed = time.time() - t0
    assert elapsed < 600
    report(10, f"importance sampling within 3 stderr at 10^6 samples (lambda 1/2 and 2); 3-sigma coverage {results[-1].detail} ({elapsed:.0f}s < 600s)")


def test_criterion_11_analysis_sanity():
    ctx2 = GraphCtx.lattice(2)
    one = LoopActivity.constant(1)
    for d in (1, 2, 3):
        est = an.zc_ratio_estimate(en.chi_series(one, 8, GraphCtx.lattice(d)))
        assert est.value == 1 / (2 * d)
    est2 = an.zc_ratio_estimate(en.chi_series(LoopActivity.constant(2), 10, ctx2))
    assert 1 / (4 * math.sqrt(2)) < est2.value < 0.25
    a_est = an.amplitude_A_estimate(one, 8, ctx2)
    d_est = an.diffusion_D_estimate(one, 8, ctx2)
    assert abs(a_est.value - 1) <= 0.1 and abs(d_est.value - 1) <= 0.1
    probe = an.chi_divergence_probe(one, 150, ctx2, Fraction(1, 4))
    assert abs(float(probe) - a_est.value) <= 0.1
    report(11, "lambda=1 ratios exactly 1/(2d); lambda=2 z_c inside its bounds; A, D within 10% of 1 at lambda=1")


def test_criterion_12_non_repulsiveness():
    ctx = GraphCtx.lattice(2)
    origin = ctx.origin()
    sup_w = sub_w = None

    def walks(start, n):
        stack = [(start,)]
        while stack:
            w = stack.pop()
            yield w
            if len(w) - 1 < n:
                for nb in ctx.neighbors(w[-1]):
                    stack.append(w + (nb,))

    for w1 in walks(origin, 6):
        if sup_w and sub_w:
            break
        n1 = loop_count(w1)
        for w2 in walks(w1[-1], 6):
            if len(w2) == 1:
                continue
            both = loop_count(concat(w1, w2))
            parts = n1 + loop_count(w2)
            if both > parts and sup_w is None:
                sup_w = (w1, w2)
            elif both < parts and sub_w is None:
                sub_w = (w1, w2)
            if sup_w and sub_w:
                break
    assert sup_w is not None and sub_w is not None
    report(12, "witnesses found for both n_L(w o w') > and < n_L(w) + n_L(w'), d=2, lengths <= 6")
