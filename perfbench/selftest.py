"""Self-tests of the benchmark harness, at tiny sizes (under a minute).

Run from the repository root: `python3 perfbench/selftest.py`. It checks:

1. every workload passes in smoke mode, untraced and traced, and prints
   exactly the metrics BENCHMARK.json declares;
2. a corrupted pinned digest and an op that raises are counted as failed
   ops, and the run still completes and reports;
3. run.py refuses to run, printing no result, without the package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def test_smoke_workloads():
    workloads, e2e, layer = declared()
    for name in workloads:
        for trace, names in (("0", e2e), ("1", layer)):
            code, res, proc = bench("--smoke", "--workload", name, "--seed", "0",
                                    "--seconds", "1", "--trace", trace)
            assert code == 0, proc.stderr
            assert res["correct"] and res["failed"] == 0, (name, trace, proc.stdout[-3000:])
            assert set(res["metrics"]) == names, (name, set(res["metrics"]) ^ names)
            if trace == "1":
                m = res["metrics"]
                self_sum = sum(m[f"{x}.self_s"]["value"] for x in LAYERS)
                total = self_sum + m["trace.unattributed_s"]["value"]
                assert abs(total - m["trace.wall_s"]["value"]) < 1e-6
                assert m["trace.unattributed_s"]["value"] >= 0


def test_corrupted_digest_is_a_failed_op():
    with open(os.path.join(HERE, "expected.json")) as fh:
        pinned = json.load(fh)
    ops = pinned["digests"]["smoke"]["exact-walks"]
    ops["saw-chi"] = "0" * 64
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "expected.json")
        with open(bad, "w") as fh:
            json.dump(pinned, fh)
        code, res, proc = bench("--smoke", "--workload", "exact-walks", "--seed", "0",
                                "--seconds", "1", "--expected", bad)
    assert code == 0, proc.stderr
    assert res["failed"] >= 1 and not res["correct"], res
    assert res["failed"] < res["attempted"], res
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    bad_ops = {r["op"] for p in report["passes"] for r in p["ops"] if not r["ok"]}
    assert bad_ops == {"saw-chi"}, bad_ops


def test_raising_op_is_a_failed_op():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import child

    def boom():
        raise RuntimeError("deliberate")

    res = child.run_workload("heaps-viennot", 0, "smoke", extra_ops=[child.Op("boom", boom)])
    verdicts = {r["op"]: r["ok"] for r in res["ops"]}
    assert verdicts.pop("boom") is False
    assert all(verdicts.values()), res["ops"]


def test_refuses_without_the_package():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-walks",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
