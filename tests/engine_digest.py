"""The engine's result digest: one SHA-256 per embedding of a fixed grid.

The grid holds every embedding with N = 1..4, the trivial splitting or
(1, 0, ..., 0), n = 0..4, every r, m = n..n+2 and rank E <= 40 (150
embeddings), and on each the same 36 sheaves: wedge^k and sym^k, k =
0..3, on either side, dual^1 and dual^2 on either side, and the ordered
products of two of those duals on every pair of sides.  Each result is
one line, the sheaf's description and either its canonical JSON (chi,
the degeneration flag, dims and the profiles of the terms with
cohomology) or the type and message of what it raised; an embedding's
digest is the SHA-256 of its 36 lines.  The text is fixed here, so the
digest does not depend on the process (no builtin hash) or on repr.

test_engine_digest.py rebuilds the digests from cold caches and compares
them with engine_digest.json.  A change that moves an answer on purpose
rewrites that file with

    PYTHONPATH=src python tests/engine_digest.py

and names every embedding that moved.
"""

import hashlib
import json
import os
import sys

from quotcoh.quot import (
    G1,
    G2,
    dual_wedge_product,
    embedding_data,
    quot_cohomology,
    sym_power,
    wedge_power,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "engine_digest.json")


def embeddings() -> list:
    """The grid's embeddings that build and have rank E <= 40."""
    out = []
    for N in range(1, 5):
        for splitting in ((0,) * N, (1,) + (0,) * (N - 1)):
            for n in range(5):
                for r in range(N):
                    for m in range(n, n + 3):
                        try:
                            data = embedding_data(N, splitting, n, r, m)
                        except ValueError:
                            continue
                        if data.rank_e <= 40:
                            out.append(data)
    return out


def sheaves() -> list:
    """The 36 sheaves resolved on every embedding."""
    out = [power(k, side) for power in (wedge_power, sym_power)
           for side in (G1, G2) for k in range(4)]
    duals = [(k, side) for side in (G1, G2) for k in (1, 2)]
    out += [dual_wedge_product((factor,)) for factor in duals]
    out += [dual_wedge_product((a, b)) for a in duals for b in duals]
    return out


def result_line(data, sheaf) -> str:
    try:
        res = quot_cohomology(data, sheaf)
    except (ValueError, ArithmeticError) as err:
        return f"{sheaf.describe()}\t{type(err).__name__}: {err}"
    terms = [[ell, profile.dims] for ell, profile in res.per_term
             if not profile.is_zero]
    return f"{sheaf.describe()}\t" + json.dumps(
        [res.chi, res.degenerate, res.dims, terms], separators=(",", ":"))


def embedding_key(data) -> str:
    split = ",".join(map(str, data.splitting))
    return f"N={data.N} splitting={split} n={data.n} r={data.r} m={data.m}"


def digests() -> dict:
    """{embedding key: SHA-256 hex digest of its result lines}."""
    grid = sheaves()
    out = {}
    for data in embeddings():
        text = "\n".join(result_line(data, sheaf) for sheaf in grid)
        out[embedding_key(data)] = hashlib.sha256(text.encode()).hexdigest()
    return out


def load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def main() -> int:
    new = digests()
    old = load() if os.path.exists(GOLDEN) else {}
    moved = sorted(key for key in new if old.get(key) != new[key])
    with open(GOLDEN, "w") as fh:
        json.dump(new, fh, indent=1)
        fh.write("\n")
    for key in moved:
        print(f"moved: {key}")
    print(f"{len(new)} embeddings, {len(moved)} moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
