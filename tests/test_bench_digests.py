"""The benchmark's smoke passes reproduce every pinned digest.

perfbench/expected.json pins a sha256 of each exact output the benchmark
computes; a kernel that changes a single coefficient changes a digest. Each
workload's smoke pass (seed 0, so seeded ops are checked too) runs here in
its own interpreter, as the benchmark runs it. Nothing under perfbench/ is
written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["exact-walks", "lace-expansion", "monte-carlo", "heaps-viennot"])
def test_smoke_pass_matches_pinned_digests(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--seed", "0", "--mode", "smoke"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["ops"], "no op ran"
    bad = {row["op"]: row["errors"] for row in result["ops"] if not row["ok"]}
    assert not bad, bad
