"""Command line front end.

Every subcommand prints a single JSON document (or a flattened TSV) on
stdout and reserves stderr for progress notes.  Integers are emitted as
decimal strings so arbitrarily large values survive any JSON consumer, and
key order is fixed for byte-stable output.  Exit codes: 0 on success or a
verified claim, 1 when a claim check fails numerically, 2 on invalid input,
3 on an internal fault: a consistency check inside the engine failed (an
ArithmeticError or AssertionError), which no input should cause.  Exits 2
and 3 print {"error": ...} on stdout, the message of exit 3 prefixed with
"internal: ".
"""

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import product

from . import indices, series
from .bott import (
    GrassmannianContext,
    HomogeneousBundle,
    bwb,
    cohomology_dims,
)
from .quot import (
    G1,
    G2,
    check_conjecture,
    check_proposition_hypotheses,
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
    # Every flag must be spelled in full: with prefix matching a flag that a
    # subcommand lacks could be read as a longer one it has.  Subparsers are
    # built from this class, so they inherit the setting.
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

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


def _parse_factors(args) -> tuple:
    """The degrees of --ks and their sides from --sides (default all G2)."""
    ks = _parse_ints(args.ks)
    if not args.sides:
        return ks, (G2,) * len(ks)
    sides = tuple(s.strip().upper() for s in args.sides.split(","))
    if any(s not in (G1, G2) for s in sides):
        raise ValueError("sides must be G1 or G2")
    if len(sides) != len(ks):
        raise ValueError("need one side per degree")
    return ks, sides


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


def _cohomology_doc(result) -> dict:
    doc = {"chi": result.chi, "degenerate": result.degenerate,
           "dims": None if result.dims is None else dict(result.dims)}
    doc["per_term"] = [
        {"ell": ell, "dims": dict(p.dims), "chi": p.chi, "acyclic": p.is_zero}
        for ell, p in result.per_term
    ]
    return doc


def _functor_flags(args, kind: str, need: tuple, foreign: tuple):
    """Reject each flag in foreign that was given and require each in need;
    flags are named by their dest, and an unset one is None or empty."""
    given = [f"--{f}" for f in foreign if getattr(args, f) not in (None, "")]
    if given:
        raise ValueError(f"{kind} does not take {' or '.join(given)}")
    missing = [f"--{f}" for f in need if getattr(args, f) in (None, "")]
    if missing:
        raise ValueError(f"{kind} needs {' and '.join(missing)}")


def _sheaf_from_args(args):
    """A power takes --k (and --side); the dualized product takes --ks
    (and --sides)."""
    kind = f"--functor {args.functor}"
    if args.functor == "dual":
        _functor_flags(args, kind, ("ks",), ("k",))
        return dual_wedge_product(zip(*_parse_factors(args)))
    _functor_flags(args, kind, ("k",), ("ks", "sides"))
    power = wedge_power if args.functor == "wedge" else sym_power
    return power(args.k, args.side)


def _add_embedding_flags(p):
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--splitting", type=str, default="")


def _data_from_args(args):
    splitting = _parse_ints(args.splitting) if args.splitting else None
    return embedding_data(args.N, splitting, args.n, args.r, args.m)


# Each command returns (document, verified); run prints the document and
# turns the verdict into the exit code.

def _cmd_lr(args):
    a, b, g = (_parse_ints(args.alpha), _parse_ints(args.beta),
               _parse_ints(args.gamma))
    return {"coefficient": lr_coefficient(a, b, g)}, True


def _cmd_cauchy(args):
    pairs = cauchy_wedge(args.ell, args.rank_left, args.rank_right)
    return {
        "ell": args.ell,
        "terms": [{"left": l, "right": r} for l, r in pairs],
    }, True


def _cmd_bwb(args):
    ctx = GrassmannianContext(args.d, args.n)
    bundle = HomogeneousBundle(ctx, _parse_ints(args.quot),
                               _parse_ints(args.sub))
    res = bwb(bundle)
    dims = cohomology_dims(bundle)
    doc = {"vanishes": res.vanishes}
    if not res.vanishes:
        doc["degree"] = res.degree
        doc["gl_weight"] = res.gl_weight
        doc["dimension"] = dims[res.degree]
    doc["chi"] = sum((-1) ** i * v for i, v in dims.items())
    doc["dims"] = dims
    return doc, True


def _cmd_index(args):
    lam = _parse_ints(args.lam)
    if args.k is None:
        rep = indices.n_index(lam, args.n)
    else:
        rep = indices.kn_index(lam, args.k, args.n)
    doc = {"defined": rep.defined}
    if rep.defined:
        doc["index"] = rep.index
        doc["shape"] = rep.shape
    return doc, True


def _cmd_cohomology(args):
    """chi and cohomology of a sheaf; chi emits the Euler characteristic
    alone."""
    data = _data_from_args(args)
    sheaf = _sheaf_from_args(args)
    result = quot_cohomology(data, sheaf)
    doc = {"sheaf": sheaf.describe()}
    if args.command == "chi":
        doc["chi"] = result.chi
    else:
        doc.update(_cohomology_doc(result))
    return doc, True


def _cmd_theorem(args):
    """Theorem A or B on one power of degree --k, or C on the dualized
    product of --ks; C's verdict is that every term is acyclic."""
    data = _data_from_args(args)
    c = args.theorem == "C"
    factors = _parse_factors(args) if c else ((args.k,), (args.side,))
    report = verify_theorem(data, args.theorem, *factors)
    head = ({"all_zero": report.verified} if c
            else {"expected_h0": report.expected_h0})
    return {
        "theorem": args.theorem,
        **head,
        "computed": _cohomology_doc(report.computed),
        "verified": report.verified,
    }, report.verified


def _cmd_props(args):
    data = _data_from_args(args)
    wedge_k = args.wedge_k if args.wedge_k is not None else min(1, args.n)
    sym_k = args.sym_k if args.sym_k is not None else min(2, args.n)
    dual_ks = _parse_ints(args.dual_ks) or (min(1, args.n),)
    sheaves = [
        ("wedge", wedge_power(wedge_k)),
        ("sym", sym_power(sym_k)),
        ("dual", dual_wedge_product(tuple((k, G2) for k in dual_ks))),
    ]
    # Every sheaf is checked before any is resolved.
    for _, sheaf in sheaves:
        check_proposition_hypotheses(data, sheaf)
    doc = {}
    ok = True
    for name, sheaf in sheaves:
        print(f"certifying resolution terms: {sheaf.describe()}",
              file=sys.stderr)
        report = verify_resolution_propositions(data, sheaf)
        doc[name] = {
            "rows": [
                {"ell": ell, "dims": dict(p.dims), "ok": row_ok}
                for ell, p, row_ok in report.rows
            ],
            "verified": report.ok,
        }
        ok = ok and report.ok
    doc["verified"] = ok
    return doc, ok


def _verify_grid(doc, verify, cases):
    """Certify every case of a proposition's grid: each is verify's
    arguments and the degrees a failure lists for it.  An empty grid is an
    input error, not a verified claim."""
    if not cases:
        raise ValueError(f"no cases on the grid d={doc['d']}, n={doc['n']}")
    failures = []
    checked = 0
    for case, ks in cases:
        rec = verify(*case)
        checked += len(rec.summands)
        if not rec.ok:
            failures.append({"lambda": rec.lam, "index": rec.index, "ks": ks})
    doc.update(cases=len(cases), summands_checked=checked, failures=failures,
               verified=not failures)
    return doc, not failures


def _cmd_prop_31(args):
    d, n = args.d, args.n
    cases = [((d, n, lam, k), (k,))
             for lam, _ in indices.indexed_partitions(d, n, 0, args.max_size)
             for k in range(n + 1)]
    return _verify_grid({"d": d, "n": n}, indices.verify_wedge_vanishing,
                        cases)


def _cmd_prop_32(args):
    d, n = args.d, args.n
    sym_cap = 2 * n if args.sym_cap is None else args.sym_cap
    if sym_cap < 0:
        raise ValueError("--sym-cap must be nonnegative")
    cases = [((d, n, lam, k), (k,))
             for lam, rep in indices.indexed_partitions(d, n, 0, args.max_size)
             for k in range((n if rep.index == n else sym_cap) + 1)]
    return _verify_grid({"d": d, "n": n}, indices.verify_sym_vanishing,
                        cases)


def _cmd_prop_33(args):
    d, n, r, plus = args.d, args.n, args.r, args.mode == "plus"
    if plus and r < 1:
        raise ValueError("plus mode needs r >= 1")
    # plus mode runs the k-variant index for each k, which takes one degree;
    # a failure lists the chained degrees, then k
    cases = [((d, n, r, lam, ks, args.mode, k), ks + ((k,) if plus else ()))
             for k in (range(n + 1) if plus else (None,))
             for lam, _ in indices.indexed_partitions(d, n, r, args.max_size,
                                                      k=k)
             for ks in product(range(n + 1), repeat=r - plus)]
    return _verify_grid({"d": d, "n": n, "r": r, "mode": args.mode},
                        indices.verify_dual_vanishing, cases)


def _cmd_conjecture(args):
    data = _data_from_args(args)
    single, multi = ("k", "degL"), ("ks", "degLs")
    if args.kind == "dual":
        _functor_flags(args, args.kind, multi, single)
        ks = _parse_ints(args.ks)
        deg_ls = _parse_ints(args.degLs)
    else:
        _functor_flags(args, args.kind, single, multi)
        ks = (args.k,)
        deg_ls = (args.degL,)
    report = check_conjecture(data, args.kind, ks, deg_ls)
    return {
        "conjecture": args.kind,
        "ks": list(report.ks),
        "degL": list(report.deg_ls),
        "bound": report.bound,
        "predicted": report.predicted,
        "computed": report.computed,
        "verified": report.verified,
    }, report.verified


def _cmd_series(args):
    splitting = _parse_ints(args.splitting) if args.splitting else None
    comparison = series.compare(args.kind, args.N, args.degL, args.nmax,
                                splitting)
    return {
        "kind": args.kind,
        "N": args.N,
        "degL": args.degL,
        "n_max": args.nmax,
        "window": "k <= n",
        "resolution": comparison.resolution,
        "closed_form": comparison.closed,
        "mismatches": [list(m) for m in comparison.mismatches],
        "verified": comparison.equal,
    }, comparison.equal


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The command line parser, built once per process: argparse's objects
    form reference cycles, and every default below is immutable, so one
    parser serves every call of run."""
    parser = _Parser(prog="quotcoh", description=__doc__)
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
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

    for name in ("chi", "cohomology"):
        p = sub.add_parser(name, help=f"{name} of a tautological sheaf")
        _add_embedding_flags(p)
        p.add_argument("--functor", choices=("wedge", "sym", "dual"),
                       required=True)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--ks", type=str, default="")
        p.add_argument("--side", choices=(G1, G2), default=G2)
        p.add_argument("--sides", type=str, default="")
        p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("verify", help="verify a stated claim on a grid")
    targets = p.add_subparsers(dest="target", required=True)
    for name, which in (("theorem-a", "A"), ("theorem-b", "B")):
        t = targets.add_parser(name, help=f"Theorem {which} on one embedding")
        _add_embedding_flags(t)
        t.add_argument("--k", type=int, required=True)
        t.add_argument("--side", choices=(G1, G2), default=G2)
        t.set_defaults(func=_cmd_theorem, theorem=which)

    t = targets.add_parser("theorem-c", help="Theorem C on one embedding")
    _add_embedding_flags(t)
    t.add_argument("--ks", type=str, required=True)
    t.add_argument("--sides", type=str, default="")
    t.set_defaults(func=_cmd_theorem, theorem="C")

    t = targets.add_parser("props", help="per-term acyclicity of the "
                           "resolutions of three sheaves")
    _add_embedding_flags(t)
    t.add_argument("--wedge-k", dest="wedge_k", type=int, default=None)
    t.add_argument("--sym-k", dest="sym_k", type=int, default=None)
    t.add_argument("--dual-ks", dest="dual_ks", type=str, default="")
    t.set_defaults(func=_cmd_props)

    grids = {}
    for name, fn in (("prop-3.1", _cmd_prop_31), ("prop-3.2", _cmd_prop_32),
                     ("prop-3.3", _cmd_prop_33)):
        t = grids[name] = targets.add_parser(
            name, help=f"Proposition {name[5:]} on a grid of partitions")
        t.add_argument("--d", type=int, required=True)
        t.add_argument("--n", type=int, required=True)
        t.add_argument("--max-size", dest="max_size", type=int, default=None)
        t.set_defaults(func=fn)
    grids["prop-3.2"].add_argument("--sym-cap", dest="sym_cap", type=int,
                                   default=None, help="default 2n")
    grids["prop-3.3"].add_argument("--r", type=int, required=True)
    grids["prop-3.3"].add_argument("--mode", choices=("plain", "plus"),
                                   default="plain")

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


# argparse sets aside an unknown flag ahead of the command but reads its
# value as the command; this parser sets the command aside and names it.
_GLOBAL_FLAGS = _Parser(add_help=False)
_GLOBAL_FLAGS.add_argument("-h", "--help", action="store_true")
_GLOBAL_FLAGS.add_argument("--format")
_GLOBAL_FLAGS.add_argument("rest", nargs=argparse.REMAINDER)


def run(argv) -> int:
    parser = build_parser()
    try:
        _, unknown = _GLOBAL_FLAGS.parse_known_args(argv)
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        doc, verified = args.func(args)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except (ArithmeticError, AssertionError) as exc:
        print(json.dumps({"error": f"internal: {exc}"}))
        return 3
    _emit(doc, args.format)
    return 0 if verified else 1


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
