"""lww benchmark: cold-start workloads, exact-output gates, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload exact-walks --seed 0 --seconds 25 --trace 0

Each pass of a workload runs in a fresh interpreter (perfbench/child.py),
so every lru cache in the package starts empty, as on each `lww` command.
Passes run one at a time, single-threaded; another pass starts only if it
can end within --seconds, and there is always at least one. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over passes):
  wall_s       sum of the op times of a pass, set-up excluded
  setup_s      fresh interpreter to ready: `import lww.cli` plus building the
               workload's inputs (median of SETUP_SAMPLES interpreters)
  peak_rss_mb  ru_maxrss of a pass's interpreter at exit

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics (see perfbench/METRICS.md). An op fails if it raises, if its
output's digest differs from perfbench/expected.json or if a check on it
fails; failures are counted, never fatal. The line before the result holds
the full report: provenance, every op's time, verdict and digest, cache
statistics and trace aggregates.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from child import WORKLOADS
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CACHED_LAYERS = ("enumeration", "heaps", "laces", "expansion", "sampling")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s
# per-layer metric <- one op's untraced time
OP_SECONDS = {
    "series.spatial_convolve_s": "spatial-convolve",
    "series.spatial_inverse_s": "spatial-inverse",
    "enumeration.table_activity_s": "two-point-table-activity",
    "enumeration.saw_chi_s": "saw-chi",
    "enumeration.loop_erased_two_point_s": "loop-erased-two-point",
    **{f"expansion.pi_n_table.N{n}_s": f"pi-n-table-N{n}" for n in range(1, 7)},
    "expansion.pi_total_table.d3_s": "pi-total-d3",
    "expansion.pi_oracle_s": "pi-oracle",
    "expansion.lace_residual_s": "lace-residual",
}
# per-layer metric <- (span counter of the traced pass)
SPAN_CALLS = {
    "core.sap_key.calls": "core.sap_key",
    "core.loop_erase.calls": "core.loop_erase",
    "heaps.cycleheap_of.calls": "heaps.CycleHeap.of",
}
# per-layer throughput <- (work key, ops whose work and time are summed)
RATES = {
    "enumeration.walks_per_s": ("walks", ("chi-cli", "loop-count-table", "two-point-d3")),
    "series.zseries_ops_per_s": ("zseries_ops", ("series-batch",)),
    "sampling.importance.samples_per_s": (
        "samples", ("importance-lambda-1_2", "importance-lambda-2")),
    "sampling.exact.samples_per_s": ("samples", ("sample-exact",)),
}


def run_child(root: str, args, deadline: float, extra=()):
    """One fresh interpreter; returns (result dict or None, error text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--mode", "smoke" if args.smoke else "full", "--expected", args.expected,
           *extra, "--spawned-at", repr(time.monotonic())]
    try:
        # run() kills and reaps the child on timeout and on any exception here
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, f"run exceeded {RUN_LIMIT_S} s; pass killed"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def provenance(root: str, child_result) -> dict:
    src = sorted(glob.glob(os.path.join(root, "src", "lww", "**", "*.py"), recursive=True))
    digest, lines = hashlib.sha256(), 0
    for path in src:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, root).encode() + b"\0" + data)
        lines += sum(1 for line in data.splitlines() if line.strip())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
        rev = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "src_lww_nonblank_lines": lines,
        "python": (child_result or {}).get("python", "unknown"),
        "numpy": (child_result or {}).get("numpy", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setups) -> dict:
    return {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(plain, traced) -> dict:
    ops = {r["op"]: r for r in plain["ops"]}
    out = {}
    layers = traced["trace"]["layers"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(layers[layer]["self_s"], "s")
        out[f"{layer}.calls"] = metric(layers[layer]["calls"], "count")
    calls = traced["trace"]["calls"]
    for name, key in SPAN_CALLS.items():
        out[name] = metric(calls.get(key, 0), "count")
    for name, op in OP_SECONDS.items():
        out[name] = metric(ops[op]["seconds"] if op in ops else 0.0, "s")
    for name, (work, names) in RATES.items():
        rows = [ops[n] for n in names if n in ops]
        seconds = sum(r["seconds"] for r in rows)
        done = sum(r.get(f"work.{work}", 0) for r in rows)
        out[name] = metric(done / seconds if seconds else 0.0, "1/s")
    growth = ops["sample-exact"]["rss_growth_mb"] if "sample-exact" in ops else 0.0
    out["sampling.exact.rss_growth_mb"] = metric(growth, "MB")
    caches = plain["caches"]
    for layer in CACHED_LAYERS:
        mine = [c for c in caches if c["layer"] == layer]
        hits = sum(c["hits"] for c in mine)
        looked = hits + sum(c["misses"] for c in mine)
        out[f"{layer}.cache_entries"] = metric(sum(c["currsize"] for c in mine), "count")
        out[f"{layer}.cache_hit_ratio"] = metric(hits / looked if looked else 0.0, "ratio")
    mu = next(c for c in caches if c["name"] == "_mu_pair")
    looked = mu["hits"] + mu["misses"]
    out["expansion.mu_pair.hit_ratio"] = metric(mu["hits"] / looked if looked else 0.0, "ratio")
    self_total = sum(v["self_s"] for v in layers.values())
    out["trace.wall_s"] = metric(traced["wall_s"], "s")
    out["trace.unattributed_s"] = metric(traced["wall_s"] - self_total, "s")
    out["trace.overhead_frac"] = metric(traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lww benchmark (see the module docstring)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for perfbench/selftest.py")
    p.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                   help="pinned digests and values (default: perfbench/expected.json)")
    args = p.parse_args(argv)

    # SIGTERM unwinds through subprocess.run, which kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lww", "__init__.py")):
        print("perfbench: run from the repository root; src/lww is missing", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    passes, setups, errors = [], [], []

    def child(extra=()):
        res, err = run_child(root, args, deadline, extra)
        if res is None:
            errors.append(err)
        return res

    if args.trace:  # one untraced pass, then one traced pass
        for extra in ((), ("--trace", "1")):
            res = child(extra)
            if res is None:
                break
            passes.append(res)
    else:  # passes until the next one could not end within --seconds
        while not errors:
            started = time.monotonic()
            res = child()
            if res:
                passes.append(res)
                setups.append(res["setup_s"])
            now = time.monotonic()
            if now - t0 + (now - started) > args.seconds:
                break
        while not errors and len(setups) < SETUP_SAMPLES:
            res = child(("--setup-only",))
            if res:
                setups.append(res["setup_s"])

    rows = [r for res in passes for r in res["ops"]]
    failed = sum(not r["ok"] for r in rows) + len(errors)
    attempted = len(rows) + len(errors)
    metrics = {}
    if not errors:
        metrics = per_layer(*passes) if args.trace else end_to_end(passes, setups)
        if args.trace and metrics["trace.unattributed_s"]["value"] < -1e-6:
            errors.append("layer self times exceed the traced wall time")
            failed += 1
    report = {
        "provenance": provenance(root, passes[0] if passes else None),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        "errors": errors,
        "passes": passes,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
