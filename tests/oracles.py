"""Independent oracles used by the tests.

The Littlewood-Richardson oracle multiplies Schur polynomials in enough
variables and decomposes the product in the Schur basis by repeatedly
stripping the lexicographically leading monomial.  The doubled-bundle
oracle folds the Schur polynomial of lam in 2n variables onto n and
decomposes it the same way.  Neither touches the library's tableau
enumeration, so agreement between the two is meaningful.

The G1 scan is the reference for quot's walk over the live Cauchy pieces:
it lists every pair (lam^T, lam) of every term with cauchy_wedge and keeps
those whose twisted G1 factor has cohomology by Borel-Weil-Bott.  The two
share the twist's quotient weights and the Borel-Weil-Bott step, but the
scan runs that step on every piece to decide which are live, where the
walk decides by its per-row rule and never lists a dead piece.  The G2
test of lam itself, g2_admits, is the walk's branch cut at rest = 0, fed
the prefix sums of lam that the walk carries as running sums.

bwb_oracle is Borel-Weil-Bott read off the definition in four passes: shift
by rho, test for a repeated entry, count the inversions pair by pair and
sort.  bott.bwb_weight does the same in one insertion pass.

pieri_chain_oracle twists by one public pieri_wedge or pieri_sym step per
degree, degree 0 and sym^1 included, where schur._pieri_chain drops the
first and reads a lone second as wedge^1.  column_index_oracle reads the index
of a partition off its columns, as the definition states it; indices reads
it off the rows.

quot_dual_bundle, sub_bundle and line_bundle_p1 build the bundles that the
closed-form vanishing windows and the P^1 checks are stated for; the engine
itself hands Borel-Weil-Bott bare weights.
"""

from functools import lru_cache

from quotcoh.bott import GrassmannianContext, HomogeneousBundle
from quotcoh.partitions import (
    as_weight,
    negate_reverse,
    pad,
    part,
    transpose,
    weyl_dim,
)
from quotcoh.quot import (
    G1,
    _factor_dims,
    _g2_admits,
    _g2_bound,
    _quotient_weights,
    _twist,
)
from quotcoh.schur import cauchy_wedge, pieri_sym, pieri_wedge


@lru_cache(maxsize=None)
def schur_monomials(shape: tuple, nvars: int) -> tuple:
    """Monomial expansion of the Schur polynomial of the given shape.

    Returns ((exponent vector, coefficient), ...) where exponents count the
    occurrences of each of the nvars variables over all semistandard
    tableaux of the shape.
    """
    rows = len(shape)
    if rows > nvars:
        return ()
    counts: dict = {}
    tableau = [[0] * r for r in shape]

    def fill(r, c):
        if r == rows:
            exp = [0] * nvars
            for row in tableau:
                for v in row:
                    exp[v - 1] += 1
            key = tuple(exp)
            counts[key] = counts.get(key, 0) + 1
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, tableau[r][c - 1])
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, tableau[r - 1][c] + 1)
        for v in range(lo, nvars + 1):
            tableau[r][c] = v
            fill(nr, nc)
        tableau[r][c] = 0

    fill(0, 0)
    return tuple(sorted(counts.items()))


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def schur_decompose(poly: dict, nvars: int) -> dict:
    """Write a symmetric polynomial in the Schur basis."""
    work = dict(poly)
    out: dict = {}
    while work:
        lead = max(work)
        coeff = work[lead]
        shape = tuple(x for x in lead if x)
        if any(a < b for a, b in zip(lead, lead[1:])):
            raise AssertionError(f"leading monomial {lead} is not dominant; "
                                 "input was not symmetric")
        out[shape] = coeff
        for exp, c in schur_monomials(shape, nvars):
            key = exp
            val = work.get(key, 0) - coeff * c
            if val:
                work[key] = val
            else:
                work.pop(key, None)
    return out


def schur_product(alpha: tuple, beta: tuple, nvars: int) -> dict:
    """Expansion of s_alpha s_beta in the Schur basis, via monomials."""
    p = dict(schur_monomials(alpha, nvars))
    q = dict(schur_monomials(beta, nvars))
    return schur_decompose(poly_mul(p, q), nvars)


def doubled_schur(lam: tuple, n: int) -> dict:
    """S_lam(V + V), V of dimension n, in the Schur basis of V: the Schur
    polynomial of lam in 2n variables with x_{i+n} folded onto x_i."""
    folded: dict = {}
    for exp, c in schur_monomials(lam, 2 * n):
        key = tuple(a + b for a, b in zip(exp[:n], exp[n:]))
        folded[key] = folded.get(key, 0) + c
    return schur_decompose(folded, n)


def lr_oracle(alpha: tuple, beta: tuple, gamma: tuple, nvars: int) -> int:
    return schur_product(alpha, beta, nvars).get(tuple(gamma), 0)


def ssyt_count(shape: tuple, nvars: int) -> int:
    """Number of semistandard tableaux with entries up to nvars."""
    return sum(c for _, c in schur_monomials(shape, nvars))


def g1_scan(data, sheaf) -> list:
    """For each term ell, the sorted (lam, sorted G1 {degree: dim} items)
    of the Cauchy pieces whose G1 factor under the sheaf's G1 twist has
    cohomology, by scanning every piece."""
    sub_len = data.d1 - data.q1
    quots = _quotient_weights([((0,) * data.q1, 1)], data.q1,
                               *_twist(sheaf, G1)).items()
    live = []
    for ell in range(data.rank_e + 1):
        pieces = []
        for lam_t, lam in cauchy_wedge(ell, sub_len, 2 * data.q2):
            dims1 = _factor_dims(data.d1, quots, pad(lam_t, sub_len))
            if dims1:
                pieces.append((lam, tuple(sorted(dims1.items()))))
        live.append(sorted(pieces))
    return live


def g2_admits(lam: tuple, q: int, width: int, functor: str, ks: tuple) -> bool:
    """The G2 test on lam itself: the walk's cut with no rows to come, fed
    lam's prefix sums P_p = lam_1 + ... + lam_{2p}, p = 0..q; lam has at
    most 2q rows, so P_q is its size."""
    tops = [sum(lam[:2 * p]) for p in range(q + 1)]
    return _g2_admits(_g2_bound(q, width, functor, ks), tops, 0, 0)


def bwb_oracle(d: int, weight: tuple) -> tuple | None:
    """Borel-Weil-Bott on a weight of length d: None when the shifted
    weight repeats an entry, else (degree, gl_weight, dimension)."""
    shifted = [weight[i] + d - 1 - i for i in range(d)]
    if len(set(shifted)) < d:
        return None
    degree = sum(
        1
        for i in range(d)
        for j in range(i + 1, d)
        if shifted[i] < shifted[j]
    )
    shifted.sort(reverse=True)
    gl = tuple(shifted[i] - (d - 1 - i) for i in range(d))
    return degree, gl, weyl_dim(gl, d)


def pieri_chain_oracle(weights: dict, n: int, functor: str, ks) -> dict:
    """pieri_twist spelled out: weights padded to n entries, then one public
    Pieri step per degree in ks.  In dual coordinates wedge^k B and S^k B
    lower entries (the dualized rules) and wedge^k B* raises them."""
    acc = {pad(w, n): mult for w, mult in weights.items()}
    for k in ks:
        step: dict = {}
        for w, mult in acc.items():
            if functor == "sym":
                out = pieri_sym(w, k, dualized=True)
            else:
                out = pieri_wedge(w, k, dualized=functor == "wedge")
            for v, c in out.items():
                step[v] = step.get(v, 0) + mult * c
        acc = step
    return acc


def column_index_oracle(lam: tuple, n: int, k: int) -> tuple | None:
    """(i, middle) for lam's index from its columns h_j, or None: i is the
    largest j with h_j >= n + j, every other column must have h_j < j - 1
    or h_j = j + k - 1 (k = 0: h_j <= j - 1), and middle says whether
    column i + 1 has i + k boxes."""
    cols = transpose(lam)
    best = None
    for j, h in enumerate(cols, start=1):
        if h >= n + j:
            best = j
        elif h >= j - 1 and h != j + k - 1:
            return None
    if best is None:
        return None
    return best, part(cols, best + 1) == best + k


def quot_dual_bundle(ctx: GrassmannianContext, nu) -> HomogeneousBundle:
    """The bundle S_nu(B dual) as a HomogeneousBundle."""
    nu = as_weight(nu)
    return HomogeneousBundle(ctx, negate_reverse(pad(nu, ctx.n)),
                             (0,) * ctx.sub_rank)


def sub_bundle(ctx: GrassmannianContext, mu) -> HomogeneousBundle:
    """The bundle S_mu(A) as a HomogeneousBundle."""
    mu = as_weight(mu)
    return HomogeneousBundle(ctx, (0,) * ctx.n, pad(mu, ctx.sub_rank))


def line_bundle_p1(t: int) -> HomogeneousBundle:
    """O(t) on the projective line presented as G(2, 1)."""
    ctx = GrassmannianContext(2, 1)
    if t >= 0:
        return HomogeneousBundle(ctx, (t,), (0,))
    return HomogeneousBundle(ctx, (0,), (-t,))
