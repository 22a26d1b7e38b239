"""Command-line surface.

Rationals are passed as "p/q" strings so everything stays exact end to end.
Output files carry a metadata header; identity failures print the first
divergent coefficient and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .core import GraphCtx, LoopActivity, PreconditionError
from . import enumeration as en
from . import expansion as ex
from . import sampling as sp
from . import analysis as an
from .verify import SUITES


def _fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}") from exc


def _vertex(s: str, ctx: GraphCtx):
    """A point given on the command line; on a finite graph "3" also names vertex 3."""
    try:
        p = tuple(int(c) for c in s.split(","))
    except ValueError:
        p = ()  # names no vertex
    if not ctx.is_lattice and len(p) == 1 and not ctx.contains(p):
        p = p[0]
    if not ctx.contains(p) or ctx.is_lattice and len(p) != ctx.d:
        where = f"Z^{ctx.d}" if ctx.is_lattice else "the graph"
        raise PreconditionError(f"{s!r} is not a vertex of {where}")
    return p


def _meta(args, extra=None):
    meta = {
        "version": __version__,
        "flags": {k: str(v) for k, v in vars(args).items() if k != "func" and v is not None},
    }
    if extra:
        meta.update(extra)
    return meta


def _emit(args, payload: dict, csv_rows=None, csv_header=None):
    meta = payload.pop("_meta")
    if args.format == "json":
        text = json.dumps({"meta": meta, **payload}, indent=2)
    else:
        lines = [f"# {k}: {json.dumps(v)}" for k, v in meta.items()]
        if csv_rows is None:
            csv_rows = payload.get("rows", [])
            csv_header = payload.get("header")
        if csv_header:
            lines.append(",".join(str(h) for h in csv_header))
        for row in csv_rows:
            lines.append(",".join(str(c) for c in row))
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_series(args, series) -> int:
    _emit(
        args,
        {
            "_meta": _meta(args, {"truncation": args.nmax}),
            "header": ("order", "coefficient"),
            "rows": list(enumerate(series.to_json())),
            "coeffs": series.to_json(),
        },
    )
    return 0


def _ctx(args) -> GraphCtx:
    if not getattr(args, "graph", None):
        return GraphCtx.lattice(args.d)
    try:
        with open(args.graph) as fh:
            data = json.load(fh)
        verts = [tuple(v) if isinstance(v, list) else v for v in data["vertices"]]
        # an int endpoint indexes the vertex list; anything else is a vertex
        edges = [
            tuple(verts[v] if isinstance(v, int) else tuple(v) if isinstance(v, list) else v for v in e)
            for e in data["edges"]
        ]
        ctx = GraphCtx.finite(verts, edges)
    except (OSError, LookupError, TypeError) as exc:
        raise PreconditionError(f"bad graph file {args.graph}: {exc!r}") from None
    if not verts:
        raise PreconditionError(f"graph file {args.graph} has no vertices")
    return ctx


def _lattice_only(args) -> None:
    if args.graph:
        raise PreconditionError(f"lww {args.command} supports Z^d only, not --graph")


def cmd_enumerate(args) -> int:
    _lattice_only(args)
    table = en.loop_count_table(args.n, args.d)
    rows = [(n, k, c) for (n, k), c in sorted(table.rows().items())]
    _emit(
        args,
        {"_meta": _meta(args), "header": ("n", "k", "count"), "rows": rows},
    )
    return 0


def cmd_two_point(args) -> int:
    ctx = _ctx(args)
    act = LoopActivity.constant(args.lam)
    x = _vertex(args.x, ctx)
    series = en.two_point(x, act, args.nmax, ctx, reduced=args.reduced)
    return _emit_series(args, series)


def cmd_chi(args) -> int:
    ctx = _ctx(args)
    act = LoopActivity.constant(args.lam)
    series = en.chi_series(act, args.nmax, ctx)
    return _emit_series(args, series)


def cmd_loop_measure(args) -> int:
    ctx = _ctx(args)
    act = LoopActivity.constant(args.lam)
    A = frozenset(_vertex(p, ctx) for p in args.hit.split(";"))
    B = frozenset(_vertex(p, ctx) for p in args.avoid.split(";")) if args.avoid else frozenset()
    series = en.loop_measure(A, B, act, args.nmax, ctx)
    return _emit_series(args, series)


def cmd_alpha(args) -> int:
    _lattice_only(args)
    ctx = _ctx(args)
    act = LoopActivity.constant(args.lam)
    a0 = en.alpha0(act, args.nmax, ctx)
    al = en.alpha_renorm(act, args.nmax, ctx)
    _emit(
        args,
        {
            "_meta": _meta(args, {"truncation": args.nmax}),
            "header": ("order", "alpha0", "alpha"),
            "rows": [(n, a, b) for n, (a, b) in enumerate(zip(a0.to_json(), al.to_json()))],
            "alpha0": a0.to_json(),
            "alpha": al.to_json(),
        },
    )
    return 0


def cmd_pi(args) -> int:
    _lattice_only(args)
    ctx = _ctx(args)
    act = LoopActivity.constant(args.lam)
    direct = ex.pi_total_table(act, args.nmax, ctx)
    oracle = ex.pi_oracle(act, args.nmax, ctx)
    rows = []
    agree = True
    for x in sorted(set(direct.support()) | set(oracle.support())):
        same = direct.at(x).coeffs == oracle.at(x).coeffs
        agree = agree and same
        rows.append((list(x), direct.at(x).to_json(), oracle.at(x).to_json(), same))
    _emit(
        args,
        {
            "_meta": _meta(args, {"truncation": args.nmax, "agree": agree}),
            "header": ("x", "direct", "oracle", "agree"),
            "rows": rows,
        },
    )
    return 0 if agree else 1


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return 2
    results = SUITES[args.suite]()
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        line = f"[{mark}] ({r.suite}) {r.name}"
        if r.detail:
            line += f" -- {r.detail}"
        print(line)
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_sample(args) -> int:
    _lattice_only(args)
    act = LoopActivity.constant(args.lam)
    walks = sp.sample_exact(args.n, args.d, act, args.seed, args.samples)
    rows = sp.walk_rows(walks, args.n, args.d)
    header = ("sample_index", "loop_count") + tuple(f"end_{i}" for i in range(args.d)) + ("end_sq",)
    _emit(args, {"_meta": _meta(args), "header": header, "rows": rows})
    return 0


def cmd_msd(args) -> int:
    _lattice_only(args)
    act = LoopActivity.constant(args.lam)
    payload = {"_meta": _meta(args)}
    rows = []
    if args.method == "exact":
        val = sp.msd_exact(args.n, args.d, act)
        rows.append(("exact", str(val), ""))
        payload["estimate"] = str(val)
    else:
        cfg = sp.SamplerConfig(
            d=args.d, n=args.n, lam=args.lam, num_samples=args.samples, seed=args.seed
        )
        est, se = sp.msd_importance(cfg)
        rows.append(("importance", est, se))
        payload["estimate"] = est
        payload["stderr"] = se
    payload["header"] = ("method", "estimate", "stderr")
    payload["rows"] = rows
    _emit(args, payload)
    return 0


def cmd_analyze(args) -> int:
    _lattice_only(args)
    ctx = GraphCtx.lattice(args.d)
    act = LoopActivity.constant(args.lam)
    chi = en.chi_series(act, args.nmax, ctx)
    zc = an.zc_ratio_estimate(chi)
    a_est = an.amplitude_A_estimate(act, args.nmax, ctx)
    d_est = an.diffusion_D_estimate(act, args.nmax, ctx)
    rows = [("z_c", zc.value, zc.method)]
    rows += [(f"z_c ratio order {n}", v, "") for n, v in zc.per_order]
    rows.append(("A", a_est.value, a_est.method))
    rows += [(f"A at z={z:.5f}", v, "sensitivity") for z, v in a_est.per_order]
    rows.append(("D", d_est.value, d_est.method))
    rows += [(f"D at z={z:.5f}", v, "sensitivity") for z, v in d_est.per_order]
    _emit(
        args,
        {
            "_meta": _meta(args, {"truncation": args.nmax}),
            "header": ("quantity", "value", "note"),
            "rows": rows,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lww",
        description="Exact-arithmetic laboratory for loop-weighted walks.",
    )
    p.add_argument("--threads", type=int, default=1, help="accepted for interface compatibility; outputs do not depend on it")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, nmax=True, lam=True):
        q.add_argument("--d", type=int, default=2)
        if lam:
            q.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(1))
        if nmax:
            q.add_argument("--nmax", type=int, default=10)
        q.add_argument("--output", default=None)
        q.add_argument("--format", choices=("json", "csv"), default="csv")
        q.add_argument("--graph", default=None, help="JSON adjacency file for finite-graph mode")

    q = sub.add_parser("enumerate", help="loop-count table N(n, k)")
    common(q, nmax=False, lam=False)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_enumerate)

    q = sub.add_parser("two-point", help="G(0,x) or reduced H(0,x)")
    common(q)
    q.add_argument("--x", required=True, help="comma-separated point, e.g. 1,0")
    q.add_argument("--reduced", action="store_true")
    q.set_defaults(func=cmd_two_point)

    q = sub.add_parser("chi", help="susceptibility series")
    common(q)
    q.set_defaults(func=cmd_chi)

    q = sub.add_parser("loop-measure", help="mu(A;B) series")
    common(q)
    q.add_argument("--hit", required=True, help="semicolon-separated points to hit")
    q.add_argument("--avoid", default=None, help="semicolon-separated points to avoid")
    q.set_defaults(func=cmd_loop_measure)

    q = sub.add_parser("alpha", help="alpha0 and alpha series")
    common(q)
    q.set_defaults(func=cmd_alpha)

    q = sub.add_parser("pi", help="lace-expansion Pi: direct lace sum vs solved oracle")
    common(q)
    q.set_defaults(func=cmd_pi)

    q = sub.add_parser("verify", help="run an identity suite")
    q.add_argument("suite", help=f"one of {sorted(SUITES)}")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("sample", help="exact sequential sampling")
    common(q, nmax=False)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--samples", type=int, default=1000)
    q.set_defaults(func=cmd_sample)

    q = sub.add_parser("msd", help="mean-square displacement (exact or importance)")
    common(q, nmax=False)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--method", choices=("exact", "importance"), default="exact")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--samples", type=int, default=100000)
    q.set_defaults(func=cmd_msd)

    q = sub.add_parser("analyze", help="z_c / A / D series estimates")
    common(q)
    q.set_defaults(func=cmd_analyze)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for size in ("n", "nmax"):
            if getattr(args, size, 0) < 0:
                raise PreconditionError(f"--{size} must be >= 0, got {getattr(args, size)}")
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
