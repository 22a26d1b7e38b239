#!/usr/bin/env python3
"""Mutation checks: each listed mutant must make its listed tests fail.

An entry names a file, an exact snippet in it, the snippet's replacement
and the test ids that must catch the change. The script copies src/,
tests/ and pyproject.toml to a temporary directory, runs every listed test
there once unmutated (they must pass), then, for each entry, applies it to
a fresh copy and runs its tests with `pytest -x -q` (they must fail).
Hypothesis runs with a fixed seed, so a verdict does not change from run to
run. Each pytest run is stopped after TIMEOUT_S seconds and then counts as
failed. Stdlib only.

    python3 scripts/mutants.py            # every entry
    python3 scripts/mutants.py NAME ...   # the named entries

Exits 1 if a snippet does not occur exactly once in its file (update the
entry, never drop it in silence), if the unmutated tree fails a listed
test, or if a mutant survives. Prints one line per entry.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 300  # per pytest run


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple


KERNELS = "tests/test_kernels.py::"
MUTANTS = [
    Mutant("image-count-without-2^k", "src/lww/enumeration.py",
           "    return 2**k * perm(d, k)\n",
           "    return perm(d, k)\n",
           (KERNELS + "test_alpha_closed_forms_match_the_expanded_catalog",)),
    Mutant("edge-term-without-1/d", "src/lww/enumeration.py",
           "size * _edges(rng) // ctx.d",
           "size * _edges(rng)",
           (KERNELS + "test_alpha_closed_forms_match_the_expanded_catalog",)),
    Mutant("convolution-cut-one-order-early", "src/lww/series.py",
           "            if low >= room:\n",
           "            if low >= room - 1:\n",
           ("tests/test_series.py::test_spatial_convolve_skips_only_pairs_past_nmax",)),
    Mutant("le-table-cache-keyed-by-budget-alone", "src/lww/enumeration.py",
           "        rng = _range_key(eta)\n",
           "        rng = budget\n",
           (KERNELS + "test_loop_erased_table_matches_every_saw",)),
    Mutant("range-key-not-translated", "src/lww/enumeration.py",
           "[[c - min(col) for c in col] for col in oriented]",
           "oriented",
           (KERNELS + "test_range_key_names_the_orbit",)),
    Mutant("shift-code-base-without-the-budget", "src/lww/enumeration.py",
           "        base = 1 << (far + budget).bit_length() + 1\n",
           "        base = 1 << far.bit_length() + 1\n",
           (KERNELS + "test_lattice_loop_measures_match_the_expanded_catalog",)),
    Mutant("catalog-guard-only-on-a-miss", "src/lww/enumeration.py",
           "    _guard(ctx, max_len)\n    return _catalog(ctx, max_len)\n",
           "    return _catalog(ctx, max_len)\n",
           (KERNELS + "test_catalog_guard_runs_cold_and_warm",)),
    Mutant("transfer-decoder-power-off-by-one", "src/lww/enumeration.py",
           "    scale = [p**k * q ** (top - k) for k in range(top + 1)]\n",
           "    scale = [p**k * q ** (top - k - 1) for k in range(top + 1)]\n",
           ("tests/test_transfer.py::test_quotient_transfer_matches_full_states",)),
    Mutant("forward-parity-flipped", "src/lww/enumeration.py",
           "            if w is None:  # no m-step walk ends in this SAW\n",
           "            if w is None or not (m - length) % 2:\n",
           ("tests/test_transfer.py::test_quotient_transfer_matches_full_states[2]",)),
    Mutant("forward-skips-by-parity", "src/lww/enumeration.py",
           "            if w is None:  # no m-step walk ends in this SAW\n",
           "            if w is None or (m - length) % 2:\n",
           (KERNELS + "test_finite_tables_match_per_walk_bodies_from_every_vertex[triangle]",)),
    Mutant("finite-rows-ignore-start", "src/lww/enumeration.py",
           "            order = verts if start is None else [start] + [v for v in verts if v != start]\n",
           "            order = verts\n",
           (KERNELS + "test_finite_tables_match_per_walk_bodies_from_every_vertex",)),
    Mutant("finite-loop-memo-without-vertex", "src/lww/enumeration.py",
           "memo = cut + code % cut if lattice else (q, cut + code % cut)\n",
           "memo = cut + code % cut\n",
           (KERNELS + "test_finite_tables_match_per_walk_bodies_from_every_vertex[box2x2]",)),
    Mutant("forward-loop-truncates-one-short", "src/lww/enumeration.py",
           "                    child = codes[j]\n",
           "                    child = codes[j - 1]\n",
           ("tests/test_transfer.py::test_quotient_transfer_matches_full_states[2]",)),
    Mutant("saw-rows-in-place-level-one-early", "src/lww/enumeration.py",
           "], length == n - 2\n",
           "], length == n - 3\n",
           ("tests/test_transfer.py::test_saw_counts_pinned",)),
    Mutant("le-table-loop-room-off-by-one", "src/lww/enumeration.py",
           "        if budget < 2:  # no loop fits: exp(mu) = 1\n",
           "        if budget < 3:  # no loop fits: exp(mu) = 1\n",
           (KERNELS + "test_loop_erased_table_matches_every_saw",)),
    Mutant("alpha-guard-only-on-a-miss", "src/lww/enumeration.py",
           "    return exp_series(_pair_mu(o, o, (), act, nmax, ctx))\n",
           "    return exp_series(_mu_pair(o, frozenset(), act, nmax, ctx))\n",
           (KERNELS + "test_catalog_guard_runs_cold_and_warm",)),
    Mutant("catalog-without-prune", "src/lww/enumeration.py",
           "                    if far > room:\n",
           "                    if far > max_len:\n",
           (KERNELS + "test_closed_walk_catalog_charges_each_state",)),
    Mutant("catalog-charges-nothing", "src/lww/enumeration.py",
           "            ledger.charge(len(level))\n",
           "",
           (KERNELS + "test_closed_walk_catalog_charges_each_state",)),
    Mutant("grow-stops-its-charge", "src/lww/enumeration.py",
           "        left -= 1\n        if left < 0:\n            ledger.charge(",
           "        if left < 0:\n            ledger.charge(",
           (KERNELS + "test_generators_charge_each_walk",)),
    Mutant("le-states-stop-their-charge", "src/lww/enumeration.py",
           "        self.charge = self.ledger.charge\n",
           "        self.charge = lambda units: None\n",
           ("tests/test_transfer.py::test_transfer_budget_guard",)),
    Mutant("transfer-warm-replay-stops-its-charge", "src/lww/enumeration.py",
           "    _Budget(\"cached transfer rows\", \"loop-erasure states in their build\").charge(expanded)\n",
           "",
           ("tests/test_sweep.py::test_transfer_budget_cold_and_warm",)),
    Mutant("importance-sampler-stops-its-charge", "src/lww/sampling.py",
           ".charge((cfg.n + 1) * cfg.num_samples)\n",
           "\n",
           ("tests/test_sweep.py::test_importance_budget_cold_and_warm",)),
    Mutant("up-front-shortcut-one-bit-early", "src/lww/enumeration.py",
           "exp < self.limit.bit_length() else None",
           "exp < self.limit.bit_length() - 1 else None",
           ("tests/test_budget.py::test_up_front_charge_is_the_exact_power",)),
    Mutant("catalog-without-key-cache", "src/lww/enumeration.py",
           "                        i = loop_ids.get(loop)\n",
           "                        i = None\n",
           (KERNELS + "test_each_erased_loop_is_keyed_once",)),
    Mutant("grow-without-key-cache", "src/lww/enumeration.py",
           "        k = key_of.get(loop)\n",
           "        k = None\n",
           (KERNELS + "test_each_erased_loop_is_keyed_once",)),
    Mutant("mulhilo-carry-slip", "src/lww/sampling.py",
           "    x_hi += t >> s32\n",
           "",
           ("tests/test_sampling.py::test_mulhilo_matches_python_ints",)),
    Mutant("narrow-int-off-by-one", "src/lww/sampling.py",
           "if bound <= np.iinfo(t).max)",
           "if bound < np.iinfo(t).max)",
           ("tests/test_sampling.py::test_walk_keys_dtype_boundaries",)),
    Mutant("sample-steps-wrong-mask", "src/lww/sampling.py",
           "        return words & (two_d - 1)\n",
           "        return words & two_d\n",
           ("tests/test_sampling.py::test_sample_steps_are_the_signed_floor_modulo",)),
    Mutant("from-ints-without-sign-fix", "src/lww/series.py",
           "        if den < 0:\n",
           "        if False:\n",
           ("tests/test_series.py::test_negative_constant_terms_give_normalised_coefficients",)),
    Mutant("from-ints-without-gcd", "src/lww/series.py",
           "        if g != 1:\n",
           "        if False:\n",
           ("tests/test_series.py::test_eq_and_hash_agree_across_forms",)),
    Mutant("eager-coeffs", "src/lww/series.py",
           "        s._co, s._nums, s._den = None, tuple(nums), den\n",
           "        s._co, s._nums, s._den = tuple(Fraction(x, den) for x in nums), tuple(nums), den\n",
           ("tests/test_series.py::test_unread_ring_chain_builds_no_fraction",)),
    Mutant("eval-at-wrong-horner-step", "src/lww/series.py",
           "            acc = acc * p + x * qk\n",
           "            acc = acc * q + x * qk\n",
           ("tests/test_series.py::test_eval_at_matches_the_coefficient_sum",)),
    Mutant("loop-addition-scan-without-early-stop", "src/lww/heaps.py",
           "                    if not owner:  # every maximum is hit, piece i last\n                        break\n",
           "                    if not owner:  # every maximum is hit, piece i last\n                        pass\n",
           ("tests/test_heaps.py::test_loop_addition_with_two_maxima",)),
    Mutant("heap-cache-keyed-by-length", "src/lww/verify.py",
           "            key = tuple(erased)\n",
           "            key = len(erased)\n",
           ("tests/test_heaps.py::test_suite_heaps_catches_a_dropped_loop",)),
    Mutant("edge-ids-per-direction", "src/lww/verify.py",
           "        self[step] = self[step[::-1]] = c = self.base ** (len(self) // 2)",
           "        self[step] = c = self.base ** len(self)",
           ("tests/test_heaps.py::test_edge_ids_name_undirected_edges",)),
    Mutant("edge-code-base-n", "src/lww/verify.py",
           "        self.base = 2 * nmax + 1\n",
           "        self.base = nmax\n",
           ("tests/test_heaps.py::test_edge_code_sums_tell_edge_multisets_apart",)),
    Mutant("loop-addition-rotation-off-by-one", "src/lww/heaps.py",
           "        w = w[:t] + c.seq[k:] + c.seq[:k] + w[t:]\n",
           "        w = w[:t] + c.seq[k + 1:] + c.seq[:k + 1] + w[t:]\n",
           ("tests/test_heaps.py::test_loop_addition_examples",)),
    Mutant("maxima-cached-from-the-wrong-end", "src/lww/heaps.py",
           "        return _maximal(self.pieces)\n",
           "        return _maximal(self.pieces[::-1])\n",
           ("tests/test_heaps.py::test_linear_scans_match_pairwise_oracles",)),
    Mutant("lace-terms-asked-without-labelled", "src/lww/laces.py",
           "_lace_terms(a, b, labelled):",
           "_lace_terms(a, b, False):",
           ("tests/test_laces.py::test_prescription_random",)),
    Mutant("kj-residual-without-cap", "src/lww/laces.py",
           "    _cap(a, b, labelled)\n    nums, den = _position_weights(a, b, weights, labelled)\n",
           "    nums, den = _position_weights(a, b, weights, labelled)\n",
           ("tests/test_laces.py::test_kj_residual_matches_former_body_and_caps",)),
    Mutant("pi-n-table-guard-only-on-a-miss", "src/lww/expansion.py",
           "    _guard(ctx, nmax)\n    return _pi_n_table(",
           "    return _pi_n_table(",
           (KERNELS + "test_table_guards_run_cold_and_warm",)),
    Mutant("two-point-table-guard-only-on-a-miss", "src/lww/enumeration.py",
           "    _Budget(\"cached transfer rows\", \"loop-erasure states in their build\").charge(expanded)\n",
           "",
           (KERNELS + "test_table_guards_run_cold_and_warm",)),
    Mutant("kj-subinterval-keeps-later-positions", "src/lww/laces.py",
           "if s <= e[0] and e[1] <= t}",
           "if s <= e[0]}",
           ("tests/test_laces.py::test_kj_residual_matches_former_body_and_caps",)),
    Mutant("graph-sums-interior-bit-off-by-one", "src/lww/laces.py",
           "            bits |= 1 << (j - a + 1)\n",
           "            bits |= 1 << (j - a)\n",
           ("tests/test_laces.py::test_graph_sums_match_fraction_oracle",)),
    Mutant("round-trip-without-edge-check", "src/lww/verify.py",
           "        if back != w or not same_pieces or (heap.pieces or w != saw) and (\n",
           "        if back != w or not same_pieces or False and (\n",
           ("tests/test_heaps.py::test_suite_heaps_edge_check_catches_a_dropped_loop",)),
    Mutant("edge-sums-skipped-without-w-equals-saw", "src/lww/verify.py",
           " or (heap.pieces or w != saw) and (\n",
           " or heap.pieces and (\n",
           ("tests/test_heaps.py::test_suite_heaps_edge_check_catches_a_dropped_loop",)),
    Mutant("catalog-vertex-decode-off-by-one", "src/lww/enumeration.py",
           "        point = ctx.vertices().__getitem__\n",
           "        point = lambda i: ctx.vertices()[i - 1]\n",
           (KERNELS + "test_closed_walk_catalog_matches_former_body",)),
    Mutant("heap-sum-scale-off-by-one", "src/lww/heaps.py",
           "    scale = den ** (nmax // 2)\n",
           "    scale = den ** (nmax // 2 - 1)\n",
           ("tests/test_heaps.py::test_heap_sum_matches_series_dfs",)),
    Mutant("fill-countdown-refuses-only-at-the-end", "src/lww/sampling.py",
           "            if left < 0:\n                states.charge(allowance - left)\n            code, total",
           "            if False:\n                states.charge(allowance - left)\n            code, total",
           ("tests/test_budget.py::test_counted_down_charges_refuse_as_the_count_runs_out",)),
    Mutant("charge-countdown-off-by-one", "src/lww/enumeration.py",
           "    states.charge(allowance - left)\n    return [states.totals(row) for row in rows]\n",
           "    states.charge(allowance - left - 1)\n    return [states.totals(row) for row in rows]\n",
           ("tests/test_transfer.py::test_saw_counter_charges_each_expanded_saw",)),
    Mutant("lace-term-sum-one-order-off", "src/lww/expansion.py",
           "        acc.add(factor, m, size)\n",
           "        acc.add(factor.to_order(budget - 1), m + 1, size)\n",
           ("tests/test_expansion.py::test_pi_n_table_matches_unpruned_oracle",)),
    Mutant("pinch-tail-sum-one-order-off", "src/lww/enumeration.py",
           "            acc.add(tail, used, factor * lam**k)\n",
           "            acc.add(tail.to_order(nmax - used - 1), used + 1, factor * lam**k)\n",
           (KERNELS + "test_bubble_chain_values_unchanged",)),
    Mutant("split-rhs-sum-one-order-off", "src/lww/enumeration.py",
           "        acc.add(factor * inner, length, act.weight_of_keys(erased))\n",
           "        acc.add((factor * inner).to_order(rem - 1), length + 1, act.weight_of_keys(erased))\n",
           (KERNELS + "test_bubble_chain_values_unchanged",)),
    Mutant("le-table-sum-one-order-off", "src/lww/enumeration.py",
           ".add(e, length, sizes[k])\n",
           ".add(e.to_order(budget - 1), length + 1, sizes[k])\n",
           (KERNELS + "test_loop_erased_table_matches_every_saw",)),
    Mutant("pair-measure-guard-only-on-a-miss", "src/lww/enumeration.py",
           "        _guard(ctx, budget - budget % 2)\n        delta = ",
           "        delta = ",
           (KERNELS + "test_pair_measure_guard_runs_cold_and_warm",)),
    Mutant("oriented-cycles-guard-only-on-a-miss", "src/lww/heaps.py",
           "    _guard(ctx, max_len - 1)\n    return _oriented_cycles(",
           "    return _oriented_cycles(",
           (KERNELS + "test_table_guards_run_cold_and_warm",)),
    Mutant("pi-total-table-cached", "src/lww/expansion.py",
           "\ndef pi_total_table(",
           "\n@lru_cache(maxsize=None)\ndef pi_total_table(",
           (KERNELS + "test_table_guards_run_cold_and_warm",)),
    Mutant("pinch-part-cached", "src/lww/enumeration.py",
           "\ndef bubble_chain_pinch_part(",
           "\n@lru_cache(maxsize=None)\ndef bubble_chain_pinch_part(",
           (KERNELS + "test_table_guards_run_cold_and_warm",)),
    Mutant("lattice-two-point-table-cached", "src/lww/enumeration.py",
           "\ndef two_point_table(",
           "\n@lru_cache(maxsize=None)\ndef two_point_table(",
           (KERNELS + "test_table_guards_run_cold_and_warm",)),
]


def copy_tree(dest: str) -> None:
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, os.path.join(dest, name))


def run_tests(tree: str, tests) -> bool:
    """True when every test passes in the tree within TIMEOUT_S seconds: a
    mutant that hangs counts as killed, an unmutated tree that does as
    failed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", "-o", "addopts=", *tests]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    bad = 0
    for m in chosen:
        with open(os.path.join(ROOT, m.path)) as f:
            found = f.read().count(m.snippet)
        if found != 1:
            print(f"STALE    {m.name}: its snippet occurs {found} times in {m.path}")
            bad += 1
    if bad:
        return 1
    with tempfile.TemporaryDirectory(prefix="lww-mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        copy_tree(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        if not run_tests(clean, tests):
            print("FAILED   the unmutated tree fails the listed tests")
            return 1
        for i, m in enumerate(chosen):
            tree = os.path.join(tmp, f"mutant{i}")
            copy_tree(tree)
            path = os.path.join(tree, m.path)
            with open(path) as f:
                text = f.read()
            with open(path, "w") as f:
                f.write(text.replace(m.snippet, m.replacement))
            killed = not run_tests(tree, m.tests)
            print(f"{'killed  ' if killed else 'SURVIVED'} {m.name}")
            bad += not killed
            shutil.rmtree(tree)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
