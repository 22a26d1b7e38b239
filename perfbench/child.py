"""One pass of one workload, in a fresh interpreter.

Started by run.py as `python3 perfbench/child.py --workload W --seed S ...`
with `src` on PYTHONPATH. It imports the package, builds the workload's
inputs, checks that every lru cache in the package is empty, runs the ops
one after another (a closed loop: each op starts when the previous one
ends) and prints one JSON line with per-op times, verdicts and digests.

`--trace 1` installs the span wrappers of tracer.py after set-up; the
default pass installs none.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 0
SAW_COUNTS_D2 = (4, 12, 36, 100, 284, 780, 2172, 5916, 16268, 44100, 120292, 324932)
# An honest estimate misses a 3-stderr gate 1 time in 370 and a 4-stderr
# gate 1 time in 16000. With two estimates per run and ~100 runs per
# comparison of two commits, 3 stderr would fail some run of correct code in
# about two comparisons of five; 4 stderr in about one of 80.
MC_STDERR_GATE = 4

# Sizes per workload. "smoke" is the tiny variant used by selftest.py.
SIZES = {
    "full": {
        "chi_nmax": 9, "msd_n": 10, "lct_n": 10, "tp_d3_nmax": 7, "tp_table_nmax": 7,
        "saw_nmax": 12,
        "pi_nmax": 7, "pi_N": (1, 2, 3, 4, 5, 6), "pi_d3_nmax": 5, "le_tp_nmax": 8,
        "analyze_nmax": 8, "series_nmax": 10, "series_reps": 1000,
        "is_samples": 200000, "exact_n": 12, "exact_count": 2000,
        "heaps_walks": 7, "heaps_box": 7, "heap_thm_nmax": 8, "lace_assignments": 20,
    },
    "smoke": {
        "chi_nmax": 6, "msd_n": 6, "lct_n": 6, "tp_d3_nmax": 4, "tp_table_nmax": 5,
        "saw_nmax": 7,
        "pi_nmax": 4, "pi_N": (1, 2), "pi_d3_nmax": 3, "le_tp_nmax": 4,
        "analyze_nmax": 5, "series_nmax": 6, "series_reps": 5,
        "is_samples": 3000, "exact_n": 6, "exact_count": 50,
        "heaps_walks": 4, "heaps_box": 4, "heap_thm_nmax": 4, "lace_assignments": 2,
    },
}


@dataclass
class Op:
    """A timed call into the package.

    `run` returns the op's output; `check` maps it to a list of failure
    messages (empty when the output is right); `digest` maps it to the text
    whose sha256 is pinned in expected.json (None: nothing pinned).
    """

    name: str
    run: Callable
    check: Callable = lambda out: []
    digest: Callable | None = None
    seeded: bool = False  # the output depends on the workload seed
    work: dict = field(default_factory=dict)  # counts computed from the inputs


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canon(obj) -> str:
    """Value-based text of an exact result, independent of internal reprs."""
    from lww.series import SpatialSeries, ZSeries

    def enc(o):
        if isinstance(o, ZSeries):
            return o.to_json()
        if isinstance(o, SpatialSeries):
            return o.to_json()
        if isinstance(o, Fraction):
            return f"{o.numerator}/{o.denominator}"
        if isinstance(o, (list, tuple)):
            return [enc(x) for x in o]
        if isinstance(o, (int, str)):  # bool is an int
            return o
        raise TypeError(f"no canonical form for {type(o).__name__}")

    return json.dumps(enc(obj), separators=(",", ":"))


def cli(argv):
    """Run `lww <argv>` in-process; returns (exit code, stdout text)."""
    import lww.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lww.cli.main(list(argv))
    return code, buf.getvalue()


def cli_ok(out):
    code, _ = out
    return [] if code == 0 else [f"exit code {code}"]


def checks_passed(results):
    bad = [f"{r.suite}: {r.name}" for r in results if not r.passed]
    return [f"check failed: {b}" for b in bad]


def checks_text(results):
    return canon([[r.suite, r.name, r.passed, r.detail] for r in results])


def walks_from_origin(smax: int, d: int) -> int:
    """Number of walks of length <= smax on Z^d: the nodes a full DFS visits."""
    return sum((2 * d) ** m for m in range(smax + 1))


# ---------------------------------------------------------------------------
# workloads: each builder returns the op list; inputs are made here, in set-up


def exact_walks(seed: int, sz: dict, pins: dict):
    from lww import core, enumeration as en

    ctx2, ctx3 = core.GraphCtx.lattice(2), core.GraphCtx.lattice(3)
    half, two = Fraction(1, 2), Fraction(2)
    square = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 0))
    table_act = core.LoopActivity.of_table({core.sap_key(square): Fraction(3)}, half)
    msd_pin = pins.get(f"msd_exact_n{sz['msd_n']}_d2_lambda_1/2")

    def lct_check(t):
        bad = []
        for n in range(sz["lct_n"] + 1):
            total = sum(c for (m, _), c in t.rows().items() if m == n)
            if total != 4**n:
                bad.append(f"sum_k N({n},k) = {total} != 4^{n}")
        return bad

    def lct_text(t):
        return canon(sorted([list(k), c] for k, c in t.rows().items()))

    def msd_check(out):
        bad = cli_ok(out)
        if not bad and msd_pin is not None and json.loads(out[1])["estimate"] != msd_pin:
            bad.append("exact msd differs from the pinned value")
        return bad

    def saw_check(s):
        want = SAW_COUNTS_D2[: sz["saw_nmax"]]
        got = tuple(s.coeffs[1 : sz["saw_nmax"] + 1])
        return [] if got == want else [f"SAW counts {got} != {want}"]

    n, m = sz["chi_nmax"], sz["msd_n"]
    return [
        Op("chi-cli",
           lambda: cli(["chi", "--d", "2", "--lambda", "1/2", "--nmax", str(n), "--format", "json"]),
           cli_ok, lambda out: out[1], work={"walks": walks_from_origin(n, 2)}),
        Op("msd-exact-cli",
           lambda: cli(["msd", "--d", "2", "--lambda", "1/2", "--n", str(m), "--format", "json"]),
           msd_check, lambda out: out[1]),
        Op("loop-count-table",
           lambda: en.loop_count_table(sz["lct_n"], 2),
           lct_check, lct_text, work={"walks": walks_from_origin(sz["lct_n"], 2)}),
        Op("two-point-d3",
           lambda: en.two_point_table(core.LoopActivity.constant(two), sz["tp_d3_nmax"], ctx3),
           digest=canon, work={"walks": walks_from_origin(sz["tp_d3_nmax"], 3)}),
        Op("two-point-table-activity",
           lambda: en.two_point_table(table_act, sz["tp_table_nmax"], ctx2),
           digest=canon),
        Op("saw-chi",
           lambda: en.chi_series(core.LoopActivity.constant(0), sz["saw_nmax"], ctx2),
           saw_check, canon),
    ]


def lace_expansion(seed: int, sz: dict, pins: dict):
    from lww import core, enumeration as en, expansion as ex, series as se

    ctx2, ctx3 = core.GraphCtx.lattice(2), core.GraphCtx.lattice(3)
    act2 = core.LoopActivity.constant(2)
    act_half = core.LoopActivity.constant(Fraction(1, 2))
    nmax = sz["pi_nmax"]
    an = sz["analyze_nmax"]

    def residual_check(r):
        return [] if r == 0 else [f"lace residual {r} != 0"]

    def oracle_check(oracle):
        direct = ex.pi_total_table(act2, nmax, ctx2)
        return [] if direct.to_json() == oracle.to_json() else ["pi_total != pi_oracle"]

    # alpha0(lambda=2), the series the lace sum divides by, comes pinned:
    # enumerating it at nmax=10 takes ~28 s, and the batch times the ring only.
    alpha0 = se.ZSeries.of(pins["alpha0_d2_lambda_2_nmax10"], sz["series_nmax"])
    tail = alpha0 - se.ZSeries.const(alpha0.coeffs[0], alpha0.nmax)

    def series_batch():
        out = []
        for _ in range(sz["series_reps"]):
            out = [alpha0 * alpha0, se.exp_series(tail), se.reciprocal(alpha0)]
        return out

    ops = [
        Op(f"pi-n-table-N{N}", lambda N=N: ex.pi_n_table(N, act2, nmax, ctx2), digest=canon)
        for N in sz["pi_N"]
    ]
    ops += [
        Op("lace-residual", lambda: ex.lace_recursion_residual(act2, nmax, ctx2),
           residual_check, canon),
        Op("pi-oracle", lambda: ex.pi_oracle(act2, nmax, ctx2), oracle_check, canon),
        Op("pi-total-d3", lambda: ex.pi_total_table(act_half, sz["pi_d3_nmax"], ctx3),
           digest=canon),
        Op("loop-erased-two-point",
           lambda: en.loop_erased_two_point_table(act_half, sz["le_tp_nmax"], ctx2),
           digest=canon),
        Op("analyze-cli",
           lambda: cli(["analyze", "--d", "2", "--lambda", "2", "--nmax", str(an)]),
           cli_ok, lambda out: out[1]),
        Op("spatial-convolve",
           lambda: se.spatial_convolve(en.two_point_table(act2, an, ctx2),
                                       en.two_point_table(act2, an, ctx2)),
           digest=canon),
        Op("spatial-inverse",
           lambda: se.spatial_inverse(en.two_point_table(act2, an, ctx2)),
           digest=canon),
        Op("series-batch", series_batch, digest=canon,
           work={"zseries_ops": 3 * sz["series_reps"]}),
    ]
    return ops


def monte_carlo(seed: int, sz: dict, pins: dict):
    from lww import core, sampling as sp

    exact_n = sz["exact_n"]

    def importance(lam):
        pin = pins.get(f"msd_exact_n10_d2_lambda_{lam}")

        def check(out):
            bad = cli_ok(out)
            if bad:
                return bad
            res = json.loads(out[1])
            est, err = res["estimate"], res["stderr"]
            exact = float(Fraction(pin))
            if not abs(est - exact) <= MC_STDERR_GATE * err:
                bad.append(f"estimate {est} +- {err} misses exact {exact:.6f}")
            return bad

        return Op(
            f"importance-lambda-{lam.replace('/', '_')}",
            lambda: cli(["msd", "--method", "importance", "--d", "2", "--lambda", lam,
                         "--n", "10", "--samples", str(sz["is_samples"]),
                         "--seed", str(seed), "--format", "json"]),
            check, lambda out: out[1], seeded=True,
            work={"samples": sz["is_samples"]},
        )

    def walks_check(walks):
        ctx = core.GraphCtx.lattice(2)
        if len(walks) != sz["exact_count"]:
            return [f"{len(walks)} walks, wanted {sz['exact_count']}"]
        for w in walks:
            if len(w) != exact_n + 1 or w[0] != ctx.origin():
                return [f"walk of length {len(w) - 1} from {w[0]}"]
            for a, b in zip(w, w[1:]):
                if b not in ctx.neighbors(a):
                    return [f"non-lattice step {a} -> {b}"]
        return []

    return [
        importance("1/2"),
        importance("2"),
        Op("sample-exact",
           lambda: sp.sample_exact(exact_n, 2, core.LoopActivity.constant(Fraction(1, 2)),
                                   seed, sz["exact_count"]),
           walks_check, canon, seeded=True, work={"samples": sz["exact_count"]}),
    ]


def heaps_viennot(seed: int, sz: dict, pins: dict):
    from lww import verify

    return [
        Op("suite-heaps", lambda: verify.suite_heaps(sz["heaps_walks"], sz["heaps_box"]),
           checks_passed, checks_text),
        Op("suite-heap-theorem", lambda: verify.suite_heap_theorem(sz["heap_thm_nmax"]),
           checks_passed, checks_text),
        Op("suite-laces",
           lambda: verify.suite_laces(seed=seed, assignments=sz["lace_assignments"]),
           checks_passed, checks_text),
    ]


WORKLOADS = {
    "exact-walks": exact_walks,
    "lace-expansion": lace_expansion,
    "monte-carlo": monte_carlo,
    "heaps-viennot": heaps_viennot,
}


# ---------------------------------------------------------------------------


def package_caches():
    """(layer, name, cache) for every lru cache in the package's namespaces."""
    import importlib

    out, seen = [], set()
    for layer in LAYERS:
        mod = importlib.import_module(f"lww.{layer}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and id(obj) not in seen:
                seen.add(id(obj))
                out.append((layer, name, obj))
    return out


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(ops, expected: dict, use_digests_for_seeded: bool, tracer=None):
    """Run ops in order; every failure is recorded, none aborts the pass.

    With a tracer, only spans recorded inside op.run count, not those of the
    checks and digests, so the layers' self times add up to the op times.
    """
    scope = tracer.counting if tracer is not None else contextlib.nullcontext
    rows = []
    for op in ops:
        rss0 = maxrss_mb()
        with scope():
            t0 = time.perf_counter()
            try:
                out, raised = op.run(), None
            except Exception as exc:  # an op that raises is a failed op
                out, raised = None, exc
            dt = time.perf_counter() - t0
        row = {"op": op.name, "seconds": dt, "rss_growth_mb": maxrss_mb() - rss0}
        errors = []
        if raised is not None:
            errors.append(f"raised {type(raised).__name__}: {raised}")
        else:
            try:
                errors += op.check(out)
                if op.digest is not None:
                    row["digest"] = sha(op.digest(out))
                    want = expected.get(op.name)
                    if want is None:
                        errors.append("no pinned digest")
                    elif (use_digests_for_seeded or not op.seeded) and row["digest"] != want:
                        errors.append("digest differs from the pinned one")
            except Exception as exc:
                errors.append(f"check raised {type(exc).__name__}: {exc}")
        row["ok"] = not errors
        row["errors"] = errors
        row.update({f"work.{k}": v for k, v in op.work.items()})
        rows.append(row)
    return rows


def run_workload(name: str, seed: int, mode: str = "full", expected_path: str = EXPECTED_PATH,
                 trace: bool = False, setup_only: bool = False, t_start: float = T_START,
                 extra_ops=()):
    """Set up and run one pass; returns the pass's JSON-ready result."""
    import lww.cli  # noqa: F401  (every layer and NumPy)
    import numpy

    with open(expected_path) as fh:
        pinned = json.load(fh)
    caches = package_caches()
    warm = [f"{layer}.{n}" for layer, n, c in caches if c.cache_info().currsize]
    ops = WORKLOADS[name](seed, SIZES[mode], pinned["values"]) + list(extra_ops)
    setup_s = time.monotonic() - t_start
    result = {"workload": name, "seed": seed, "mode": mode, "setup_s": setup_s}
    if setup_only:
        return result

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    rows = [{"op": "cold-caches", "seconds": 0.0, "ok": not warm,
             "errors": [f"cache not empty at start: {w}" for w in warm]}]
    rows += run_ops(ops, pinned["digests"][mode].get(name, {}), seed == DEFAULT_SEED, tracer)

    result.update({
        "ops": rows,
        "wall_s": sum(r["seconds"] for r in rows),
        "peak_rss_mb": maxrss_mb(),
        "caches": [
            {"layer": layer, "name": n, **c.cache_info()._asdict()} for layer, n, c in caches
        ],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=sorted(SIZES), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--expected", default=EXPECTED_PATH)
    p.add_argument("--spawned-at", type=float, default=None,
                   help="time.monotonic() of the parent just before it started this process")
    args = p.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.mode, args.expected, bool(args.trace),
        args.setup_only, T_START if args.spawned_at is None else args.spawned_at,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
