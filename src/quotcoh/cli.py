"""Command line front end.

Every subcommand prints a single JSON document (or a flattened TSV) on
stdout and reserves stderr for progress notes.  Integers are emitted as
decimal strings so arbitrarily large values survive any JSON consumer, and
key order is fixed for byte-stable output.  Exit codes: 0 on success or a
verified claim, 1 when a claim check fails numerically, 2 on invalid input.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import indices, series
from .bott import (
    GrassmannianContext,
    HomogeneousBundle,
    bwb,
    cohomology_dims,
    euler_char,
)
from .partitions import weyl_dim
from .quot import (
    G1,
    G2,
    check_conjecture,
    dual_wedge_product,
    embedding_data,
    quot_cohomology,
    sym_power,
    verify_resolution_propositions,
    verify_theorem,
    wedge_power,
)
from .schur import cauchy_wedge, lr_coefficient


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": message}))
        raise SystemExit(2)


def _parse_ints(text: str) -> tuple:
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parse_sides(text: str, count: int) -> tuple:
    if not text:
        return (G2,) * count
    sides = tuple(s.strip().upper() for s in text.split(","))
    if any(s not in (G1, G2) for s in sides):
        raise ValueError("sides must be G1 or G2")
    return sides


def _stringify(obj):
    """Render every integer as a decimal string; booleans stay booleans."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def _flatten(obj, prefix, lines):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), lines)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix}\t{obj}")


def _emit(doc: dict, fmt: str):
    doc = _stringify(doc)
    if fmt == "tsv":
        lines = []
        _flatten(doc, "", lines)
        print("\n".join(lines))
    else:
        print(json.dumps(doc))


def _weights_doc(w) -> list:
    return list(w)


def _profile_doc(profile) -> dict:
    return {str(i): d for i, d in profile.dims}


def _cohomology_doc(result) -> dict:
    doc = {"chi": result.chi, "degenerate": result.degenerate}
    if result.dims is None:
        doc["dims"] = None
    else:
        doc["dims"] = {str(i): d for i, d in result.dims}
    doc["per_term"] = [
        {"ell": ell, "dims": _profile_doc(p), "chi": p.chi, "acyclic": p.is_zero}
        for ell, p in result.per_term
    ]
    return doc


def _sheaf_from_args(args):
    side = getattr(args, "side", None) or G2
    if args.functor in ("wedge", "sym") and args.k is None:
        raise ValueError(f"--functor {args.functor} needs --k")
    if args.functor == "wedge":
        return wedge_power(args.k, side)
    if args.functor == "sym":
        return sym_power(args.k, side)
    ks = _parse_ints(args.ks)
    sides = _parse_sides(getattr(args, "sides", "") or "", len(ks))
    if len(sides) != len(ks):
        raise ValueError("need one side per degree")
    return dual_wedge_product(tuple(zip(ks, sides)))


def _add_embedding_flags(p):
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--splitting", type=str, default="")


def _data_from_args(args):
    splitting = _parse_ints(args.splitting) if args.splitting else None
    return embedding_data(args.N, splitting, args.n, args.r, args.m)


# Top-level workers so grid verification can run in a process pool.

def _wedge_case(case):
    d, n, lam, k = case
    rec = indices.verify_wedge_vanishing(d, n, lam, k)
    return lam, rec.index, (k,), rec.ok, len(rec.summands)


def _sym_case(case):
    d, n, lam, k = case
    rec = indices.verify_sym_vanishing(d, n, lam, k)
    return lam, rec.index, (k,), rec.ok, len(rec.summands)


def _dual_case(case):
    d, n, r, lam, ks, mode, k = case
    rec = indices.verify_dual_vanishing(d, n, r, lam, ks, mode, k)
    return lam, rec.index, tuple(ks) + ((k,) if k is not None else ()), \
        rec.ok, len(rec.summands)


def _worker_count(jobs: int, ncases: int) -> int:
    """Pool size for a grid: a pool forks all its workers up front, so never
    more than there are cores or cases."""
    return max(1, min(jobs, os.cpu_count() or 1, ncases))


def _run_cases(worker, cases, jobs: int):
    workers = _worker_count(jobs, len(cases))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, cases, chunksize=8))
    return [worker(c) for c in cases]


def _grid_doc(rows) -> dict:
    failures = [
        {"lambda": _weights_doc(lam), "index": idx, "ks": list(ks)}
        for lam, idx, ks, ok, _ in rows if not ok
    ]
    return {
        "cases": len(rows),
        "summands_checked": sum(r[4] for r in rows),
        "failures": failures,
        "verified": not failures,
    }


def _cmd_lr(args, fmt):
    a, b, g = (_parse_ints(args.alpha), _parse_ints(args.beta),
               _parse_ints(args.gamma))
    _emit({"coefficient": lr_coefficient(a, b, g)}, fmt)
    return 0


def _cmd_cauchy(args, fmt):
    pairs = cauchy_wedge(args.ell, args.rank_left, args.rank_right)
    _emit({
        "ell": args.ell,
        "terms": [{"left": _weights_doc(l), "right": _weights_doc(r)}
                  for l, r in pairs],
    }, fmt)
    return 0


def _cmd_bwb(args, fmt):
    ctx = GrassmannianContext(args.d, args.n)
    bundle = HomogeneousBundle(ctx, _parse_ints(args.quot),
                               _parse_ints(args.sub))
    res = bwb(bundle)
    doc = {"vanishes": res.vanishes}
    if not res.vanishes:
        doc["degree"] = res.degree
        doc["gl_weight"] = _weights_doc(res.gl_weight)
        doc["dimension"] = weyl_dim(res.gl_weight, args.d)
    doc["chi"] = euler_char(bundle)
    doc["dims"] = {str(i): v for i, v in cohomology_dims(bundle).items()}
    _emit(doc, fmt)
    return 0


def _cmd_index(args, fmt):
    lam = _parse_ints(args.lam)
    if args.k is None:
        rep = indices.n_index(lam, args.n)
    else:
        rep = indices.kn_index(lam, args.k, args.n)
    doc = {"defined": rep.defined}
    if rep.defined:
        doc["index"] = rep.index
        doc["shape"] = rep.shape
    _emit(doc, fmt)
    return 0


def _cmd_chi(args, fmt):
    data = _data_from_args(args)
    sheaf = _sheaf_from_args(args)
    result = quot_cohomology(data, sheaf)
    _emit({"sheaf": sheaf.describe(), "chi": result.chi}, fmt)
    return 0


def _cmd_cohomology(args, fmt):
    data = _data_from_args(args)
    sheaf = _sheaf_from_args(args)
    result = quot_cohomology(data, sheaf)
    doc = {"sheaf": sheaf.describe()}
    doc.update(_cohomology_doc(result))
    _emit(doc, fmt)
    return 0


def _cmd_verify(args, fmt):
    target = args.target
    if target in ("theorem-a", "theorem-b", "theorem-c", "props"):
        for flag in ("N", "n", "m"):
            if getattr(args, flag) is None:
                raise ValueError(f"--{flag} is required for {target}")
    if target in ("theorem-a", "theorem-b"):
        data = _data_from_args(args)
        which = "A" if target == "theorem-a" else "B"
        side = args.side or G2
        report = verify_theorem(data, which, (args.k,), (side,))
        _emit({
            "theorem": which,
            "expected_h0": report.expected_h0,
            "computed": _cohomology_doc(report.computed),
            "verified": report.verified,
        }, fmt)
        return 0 if report.verified else 1
    if target == "theorem-c":
        data = _data_from_args(args)
        ks = _parse_ints(args.ks)
        sides = _parse_sides(args.sides or "", len(ks))
        report = verify_theorem(data, "C", ks, sides)
        all_zero = all(p.is_zero for _, p in report.computed.per_term)
        _emit({
            "theorem": "C",
            "all_zero": all_zero,
            "computed": _cohomology_doc(report.computed),
            "verified": report.verified,
        }, fmt)
        return 0 if report.verified else 1
    if target == "props":
        data = _data_from_args(args)
        wedge_k = args.wedge_k if args.wedge_k is not None else min(1, args.n)
        sym_k = args.sym_k if args.sym_k is not None else min(2, args.n)
        dual_ks = _parse_ints(args.dual_ks) or (min(1, args.n),)
        sheaves = [
            ("wedge", wedge_power(wedge_k)),
            ("sym", sym_power(sym_k)),
            ("dual", dual_wedge_product(tuple((k, G2) for k in dual_ks))),
        ]
        doc = {}
        ok = True
        for name, sheaf in sheaves:
            print(f"certifying resolution terms: {sheaf.describe()}",
                  file=sys.stderr)
            report = verify_resolution_propositions(data, sheaf)
            doc[name] = {
                "rows": [
                    {"ell": ell, "dims": _profile_doc(p), "ok": row_ok}
                    for ell, p, row_ok in report.rows
                ],
                "verified": report.ok,
            }
            ok = ok and report.ok
        doc["verified"] = ok
        _emit(doc, fmt)
        return 0 if ok else 1
    if target in ("prop-3.1", "prop-3.2", "prop-3.3"):
        return _cmd_verify_grid(args, fmt)
    raise ValueError(f"unknown verify target {target!r}")


def _cmd_verify_grid(args, fmt):
    d, n = args.d, args.n
    jobs = args.jobs or os.cpu_count() or 1
    if args.target == "prop-3.1":
        lams = indices.indexed_partitions(d, n, 0, args.max_size)
        cases = [(d, n, lam, k) for lam, _ in lams for k in range(n + 1)]
        rows = _run_cases(_wedge_case, cases, jobs)
    elif args.target == "prop-3.2":
        lams = indices.indexed_partitions(d, n, 0, args.max_size)
        cases = []
        for lam, rep in lams:
            cap = n if rep.index == n else args.sym_cap
            cases.extend((d, n, lam, k) for k in range(cap + 1))
        rows = _run_cases(_sym_case, cases, jobs)
    else:
        r = args.r
        if args.mode == "plain":
            lams = indices.indexed_partitions(d, n, r, args.max_size)
            cases = []
            for lam, _ in lams:
                for ks in _tuples_up_to(n, r):
                    cases.append((d, n, r, lam, ks, "plain", None))
        else:
            if r < 1:
                raise ValueError("plus mode needs r >= 1")
            cases = []
            for k in range(n + 1):
                for lam, _ in indices.indexed_partitions(
                        d, n, r, args.max_size, k=k):
                    for ks in _tuples_up_to(n, r - 1):
                        cases.append((d, n, r, lam, ks, "plus", k))
        rows = _run_cases(_dual_case, cases, jobs)
    doc = {"d": d, "n": n}
    if args.target == "prop-3.3":
        doc["r"] = args.r
        doc["mode"] = args.mode
    doc.update(_grid_doc(rows))
    _emit(doc, fmt)
    return 0 if doc["verified"] else 1


def _tuples_up_to(cap: int, length: int) -> list:
    if length == 0:
        return [()]
    shorter = _tuples_up_to(cap, length - 1)
    return [t + (k,) for t in shorter for k in range(cap + 1)]


def _cmd_conjecture(args, fmt):
    data = _data_from_args(args)
    if args.kind == "dual":
        ks = _parse_ints(args.ks)
        deg_ls = _parse_ints(args.degLs)
    else:
        if args.k is None or args.degL is None:
            raise ValueError("wedge and sym need --k and --degL")
        ks = (args.k,)
        deg_ls = (args.degL,)
    report = check_conjecture(data, args.kind, ks, deg_ls)
    _emit({
        "conjecture": args.kind,
        "ks": list(report.ks),
        "degL": list(report.deg_ls),
        "bound": report.bound,
        "predicted": report.predicted,
        "computed": report.computed,
        "verified": report.verified,
    }, fmt)
    return 0 if report.verified else 1


def _cmd_series(args, fmt):
    splitting = _parse_ints(args.splitting) if args.splitting else None
    comparison = series.compare(args.kind, args.N, args.degL, args.nmax,
                                splitting)
    _emit({
        "kind": args.kind,
        "N": args.N,
        "degL": args.degL,
        "n_max": args.nmax,
        "window": "k <= n",
        "resolution": comparison.resolution.to_table(),
        "closed_form": comparison.closed.to_table(),
        "mismatches": [list(m) for m in comparison.mismatches],
        "verified": comparison.equal,
    }, fmt)
    return 0 if comparison.equal else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="quotcoh", description=__doc__)
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel workers for grid verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lr", help="one Littlewood-Richardson coefficient")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma", required=True)
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("cauchy", help="exterior-power Cauchy index pairs")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--rank-left", dest="rank_left", type=int, required=True)
    p.add_argument("--rank-right", dest="rank_right", type=int, required=True)
    p.set_defaults(func=_cmd_cauchy)

    p = sub.add_parser("bwb", help="cohomology of one homogeneous bundle")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--quot", required=True)
    p.add_argument("--sub", required=True)
    p.set_defaults(func=_cmd_bwb)

    p = sub.add_parser("index", help="column index of a partition")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_index)

    for name, fn, extra in (("chi", _cmd_chi, False),
                            ("cohomology", _cmd_cohomology, True)):
        p = sub.add_parser(name, help=f"{name} of a tautological sheaf")
        _add_embedding_flags(p)
        p.add_argument("--functor", choices=("wedge", "sym", "dual"),
                       required=True)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--ks", type=str, default="")
        p.add_argument("--side", choices=(G1, G2), default=None)
        p.add_argument("--sides", type=str, default="")
        p.set_defaults(func=fn)

    p = sub.add_parser("verify", help="verify a stated claim on a grid")
    p.add_argument("target", choices=(
        "theorem-a", "theorem-b", "theorem-c", "props",
        "prop-3.1", "prop-3.2", "prop-3.3"))
    p.add_argument("--N", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--m", type=int)
    p.add_argument("--splitting", type=str, default="")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--ks", type=str, default="")
    p.add_argument("--side", choices=(G1, G2), default=None)
    p.add_argument("--sides", type=str, default="")
    p.add_argument("--wedge-k", dest="wedge_k", type=int, default=None)
    p.add_argument("--sym-k", dest="sym_k", type=int, default=None)
    p.add_argument("--dual-ks", dest="dual_ks", type=str, default="")
    p.add_argument("--d", type=int)
    p.add_argument("--max-size", dest="max_size", type=int, default=None)
    p.add_argument("--sym-cap", dest="sym_cap", type=int, default=None)
    p.add_argument("--mode", choices=("plain", "plus"), default="plain")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjecture", help="compare chi against a closed form")
    p.add_argument("kind", choices=("wedge", "sym", "dual"))
    _add_embedding_flags(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--degL", type=int, default=None)
    p.add_argument("--ks", type=str, default="")
    p.add_argument("--degLs", type=str, default="")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("series", help="generating-series comparison")
    p.add_argument("kind", choices=("wedge", "sym", "dual"))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--degL", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--splitting", type=str, default="")
    p.set_defaults(func=_cmd_series)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    if args.command == "verify" and args.target.startswith("prop-3"):
        for flag in ("d", "n"):
            if getattr(args, flag) is None:
                print(json.dumps({"error": f"--{flag} is required"}))
                return 2
        if args.sym_cap is None:
            args.sym_cap = 2 * args.n
    try:
        return args.func(args, args.format)
    except (ValueError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Point stdout
        # at devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
