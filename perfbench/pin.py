"""Write perfbench/expected.json: the exact outputs every run is checked against.

Run from the repository root: `PYTHONPATH=src python3 perfbench/pin.py`.
It runs every workload once in each mode at the default seed and records
the sha256 of each op's canonical output, plus the exact MSD values that
the importance-sampling estimates are checked against. Exact outputs must
never change, so this is re-run only when a workload or its sizes change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import child


def pinned_values() -> dict:
    from lww import sampling
    from lww.core import GraphCtx, LoopActivity
    from lww.enumeration import alpha0

    out = {}
    for n, lams in ((10, ("1/2", "2")), (child.SIZES["smoke"]["msd_n"], ("1/2",))):
        for lam in lams:
            val = sampling.msd_exact(n, 2, LoopActivity.constant(Fraction(lam)))
            out[f"msd_exact_n{n}_d2_lambda_{lam}"] = str(val)
    a0 = alpha0(LoopActivity.constant(2), 10, GraphCtx.lattice(2))
    out["alpha0_d2_lambda_2_nmax10"] = a0.to_json()
    return out


def main() -> int:
    values = pinned_values()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        bare = os.path.join(tmp, "expected.json")
        with open(bare, "w") as fh:
            json.dump({"values": values, "digests": {m: {} for m in child.SIZES}}, fh)
        for mode in child.SIZES:
            digests[mode] = {}
            for name in child.WORKLOADS:
                proc = subprocess.run(
                    [sys.executable, child.__file__, "--workload", name, "--mode", mode,
                     "--seed", str(child.DEFAULT_SEED), "--expected", bare],
                    capture_output=True, text=True, check=True,
                )
                rows = json.loads(proc.stdout.splitlines()[-1])["ops"]
                digests[mode][name] = {r["op"]: r["digest"] for r in rows if "digest" in r}
                print(mode, name, {r["op"]: round(r["seconds"], 3) for r in rows}, file=sys.stderr)
    with open(child.EXPECTED_PATH, "w") as fh:
        json.dump({"values": values, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
