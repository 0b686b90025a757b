"""Case lists, answers and golden checks for the three benchmark workloads.

Every case has a string id that keys its golden answer.  The program is
always reached through module attributes (``quot.quot_cohomology``, never a
name imported from it), so the tracer's wrappers see every call.

series  in-scope ``quotcoh series`` tables run through ``cli.run``.
grid    vanishing certificates, one case at a time, drawn from
        ``indices.indexed_partitions``.
sweep   ``quot_cohomology`` of many sheaves on embeddings primed in set-up.
"""

import contextlib
import io
import itertools
import json
import math
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (N, degL) pairs of the series tables; every kind runs at nmax 2.
SERIES_PAIRS = ((2, 2), (2, 3), (3, 2), (2, 4))
SERIES_KINDS = ("wedge", "sym", "dual")
SERIES_NMAX = 2

# (grid name, functor, parameters), mirroring the CLI's prop-3.x grids with
# their default sym cap 2n.
GRIDS = (
    ("prop-3.1", "wedge", {"d": 8, "n": 3}),
    ("prop-3.2", "sym", {"d": 8, "n": 3}),
    ("prop-3.3-plus", "dual", {"d": 9, "n": 2, "r": 1, "mode": "plus"}),
    ("prop-3.3-plain", "dual", {"d": 9, "n": 2, "r": 2, "mode": "plain"}),
)

# (N, n, m) of the trivial-bundle, rank-0 embeddings the sweep primes.
SWEEP_EMBEDDINGS = ((4, 2, 2), (3, 2, 2), (2, 3, 3))


def _ints(t) -> str:
    return ",".join(str(x) for x in t)


# ---------------------------------------------------------------- series

def series_cases() -> list:
    """[(id, argv)] for every in-scope table."""
    out = []
    for N, deg_l in SERIES_PAIRS:
        for kind in SERIES_KINDS:
            argv = ["series", kind, "--N", str(N), "--degL", str(deg_l),
                    "--nmax", str(SERIES_NMAX)]
            out.append((f"{kind}/N{N}/degL{deg_l}", argv))
    return out


def run_series_case(case):
    from quotcoh import cli
    _, argv = case
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def check_series(answer, golden) -> str:
    if answer["exit"] != 0:
        return f"exit code {answer['exit']}"
    if answer["stdout"].encode() != golden["stdout"].encode():
        return "stdout differs from the golden bytes"
    if json.loads(answer["stdout"]).get("verified") is not True:
        return "verified is not true"
    return ""


# ------------------------------------------------------------------ grid

def grid_cases() -> list:
    """[(id, functor, args)] for every grid case.  Calls
    indices.indexed_partitions, so it belongs to the timed phase."""
    from quotcoh import indices
    out = []
    for name, functor, p in GRIDS:
        d, n = p["d"], p["n"]
        if functor == "wedge":
            for lam, _ in indices.indexed_partitions(d, n):
                for k in range(n + 1):
                    out.append((f"{name}/{_ints(lam)}/k{k}", functor,
                                (d, n, lam, k)))
        elif functor == "sym":
            for lam, rep in indices.indexed_partitions(d, n):
                cap = n if rep.index == n else 2 * n
                for k in range(cap + 1):
                    out.append((f"{name}/{_ints(lam)}/k{k}", functor,
                                (d, n, lam, k)))
        elif p["mode"] == "plain":
            r = p["r"]
            for lam, _ in indices.indexed_partitions(d, n, r):
                for ks in itertools.product(range(n + 1), repeat=r):
                    out.append((f"{name}/{_ints(lam)}/ks{_ints(ks)}", functor,
                                (d, n, r, lam, ks, "plain", None)))
        else:
            r = p["r"]
            for k in range(n + 1):
                for lam, _ in indices.indexed_partitions(d, n, r, k=k):
                    for ks in itertools.product(range(n + 1), repeat=r - 1):
                        out.append((f"{name}/{_ints(lam)}/ks{_ints(ks)}/k{k}",
                                    functor, (d, n, r, lam, ks, "plus", k)))
    return out


def run_grid_case(case):
    from quotcoh import indices
    _, functor, args = case
    verify = {"wedge": indices.verify_wedge_vanishing,
              "sym": indices.verify_sym_vanishing,
              "dual": indices.verify_dual_vanishing}[functor]
    rec = verify(*args)
    return {"ok": rec.ok, "summands": len(rec.summands)}


def check_grid(answer, golden) -> str:
    if answer != golden:
        return f"got {answer}, golden {golden}"
    if not answer["ok"]:
        return "certificate failed"
    return ""


# ----------------------------------------------------------------- sweep

def _emb_id(emb) -> str:
    N, n, m = emb
    return f"N{N}n{n}m{m}"


def sweep_cases() -> list:
    """[(id, embedding, functor, factors)] for every swept sheaf.

    Per embedding (quotient rank q = n on both sides): wedge^k and sym^k for
    1 <= k <= q on each side plus their k = 0 term once, and dualized
    products of 1..N-1 factors of degree 1..q with at most one factor on G1.
    Products are ordered: the factor order fixes the order of the chained
    Pieri twists, so each order is its own computation with the same answer.
    """
    out = []
    for emb in SWEEP_EMBEDDINGS:
        N, q, _ = emb
        eid = _emb_id(emb)
        for functor in ("wedge", "sym"):
            out.append((f"{eid}/{functor}/0@G2", emb, functor, ((0, "G2"),)))
            for side in ("G1", "G2"):
                for k in range(1, q + 1):
                    out.append((f"{eid}/{functor}/{k}@{side}", emb, functor,
                                ((k, side),)))
        factors = [(k, side) for k in range(1, q + 1) for side in ("G1", "G2")]
        for length in range(1, N):
            for prod in itertools.product(factors, repeat=length):
                if sum(1 for _, s in prod if s == "G1") > 1:
                    continue
                desc = ",".join(f"{k}@{s}" for k, s in prod)
                out.append((f"{eid}/dual/{desc}", emb, "dual", prod))
    return out


def sweep_sheaf(functor, factors):
    from quotcoh import quot
    if functor == "wedge":
        return quot.wedge_power(*factors[0])
    if functor == "sym":
        return quot.sym_power(*factors[0])
    return quot.dual_wedge_product(factors)


def prime_sweep(embeddings) -> dict:
    """Resolve the structure sheaf on each embedding, filling every doubled
    expansion the sweep reads.  Returns {embedding: EmbeddingData}."""
    from quotcoh import quot
    data = {}
    for N, n, m in embeddings:
        data[N, n, m] = quot.embedding_data(N, None, n, 0, m)
        quot.quot_cohomology(data[N, n, m], quot.wedge_power(0))
    return data


def run_sweep_case(case, data):
    from quotcoh import quot
    _, emb, functor, factors = case
    res = quot.quot_cohomology(data[emb], sweep_sheaf(functor, factors))
    dims = None if res.dims is None else [list(x) for x in res.dims]
    return {"chi": res.chi, "dims": dims}


def check_sweep(answer, golden) -> str:
    if answer != golden:
        return f"got {answer}, golden {golden}"
    return ""


def identity_failures(emb, data) -> list:
    """The two cheap identities on one primed embedding, as failure notes.

    Koszul ranks: term ell of the structure sheaf's resolution has rank
    C(rank E, ell) times the sheaf rank.  Doubled expansion: the pieces of
    S_lam(C^2q) have dimensions summing to its own.
    """
    from quotcoh import partitions, quot, schur
    notes = []
    sheaf = quot.wedge_power(0)
    unit = quot.sheaf_rank(data, sheaf)
    for ell in range(data.rank_e + 1):
        got = quot.resolution_terms(data, sheaf, ell).total_rank()
        want = math.comb(data.rank_e, ell) * unit
        if got != want:
            notes.append(f"{_emb_id(emb)}: Koszul rank at ell={ell} is {got},"
                         f" expected {want}")
    q = data.q2
    for lam in partitions.all_in_box(2 * q, data.d1 - data.q1):
        pieces = schur.double_bundle_expand(lam, q)
        got = sum(mult * partitions.weyl_dim(partitions.pad(g, q), q)
                  for g, mult in pieces.items())
        want = partitions.weyl_dim(partitions.pad(lam, 2 * q), 2 * q)
        if got != want:
            notes.append(f"{_emb_id(emb)}: doubled expansion of {lam} has "
                         f"dimension {got}, expected {want}")
    return notes


# ---------------------------------------------------------------- golden

def golden_path(workload) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_golden(workload) -> dict:
    with open(golden_path(workload), encoding="ascii") as fh:
        return json.load(fh)


CHECKS = {"series": check_series, "grid": check_grid, "sweep": check_sweep}
