"""Littlewood-Richardson coefficients, Pieri products and Cauchy terms.

Coefficients are computed by backtracking enumeration of semistandard skew
fillings with the lattice word property.  Single coefficients are not
cached: a triple rarely recurs outside the expansion that first asked for
it.  The reuse sits one level up.  The tensor, direct-sum and doubled-bundle
expansions are cached per input, because every sheaf resolved on an
embedding meets the same partitions lam again; the two Pieri rules are
cached per weight and degree, because every twist meets the same expanded
weights again.  (weyl_dim in partitions and bwb_weight in bott are the
other two caches; they pay for the same reason at the Kunneth step.)

The doubled-bundle expansion of S_lam(B* + B*), B of rank n, keeps only
pieces with at most n rows, so n travels down as a row bound: the
direct-sum step builds only alpha and beta, and the tensor step only
gamma, of at most n rows.  The public direct_sum_expand and
lr_expand_tensor pass their natural bounds, len(lam) and
len(alpha) + len(beta), through the same two cached functions.

The Pieri rules act directly on dominant weights with possibly negative
entries; this is legitimate because both rules commute with twisting every
entry by the same determinant power, the usual normalization that makes
negative entries nonnegative.
"""

from functools import lru_cache
from itertools import combinations

from .partitions import (
    as_partition,
    as_weight,
    contains,
    enumerate_in_box,
    pad,
    size,
    subpartitions,
    transpose,
)


def lr_coefficient(alpha, beta, gamma) -> int:
    """The multiplicity c^gamma_{alpha,beta} of S_gamma in S_alpha . S_beta.

    Counts fillings of the skew diagram gamma/alpha with content beta that
    are semistandard (rows weakly increase, columns strictly increase) and
    whose right-to-left, top-to-bottom reading word is a lattice word.
    Returns 0 when the sizes do not match or gamma does not contain alpha.
    """
    alpha = as_partition(alpha)
    beta = as_partition(beta)
    gamma = as_partition(gamma)
    if size(gamma) != size(alpha) + size(beta) or not contains(gamma, alpha):
        return 0
    return _count_tableaux(alpha, beta, gamma)


def _count_tableaux(alpha, beta, gamma) -> int:
    nlab = len(beta)
    rows = len(gamma)
    alpha_p = pad(alpha, rows)

    # Cells of gamma/alpha in reading order: each row right to left, top row
    # first.  Every cell below a skew cell in the same column is again a skew
    # cell, so the strict-column prune below is exact.
    cells = []
    for r in range(rows):
        for c in range(gamma[r] - 1, alpha_p[r] - 1, -1):
            below = sum(1 for r2 in range(r + 1, rows) if gamma[r2] > c)
            cells.append((r, c, below))
    if not cells:
        return 1
    if nlab == 0:
        return 0

    remaining = list(beta)
    counts = [0] * (nlab + 1)
    vals = [[0] * gamma[0] for _ in range(rows)]

    return _count_from(0, cells, vals, remaining, counts, nlab, alpha_p,
                       gamma)


def _count_from(idx, cells, vals, remaining, counts, nlab, alpha_p,
                gamma) -> int:
    """Count the ways to fill cells[idx:] given the partial filling vals,
    the labels still to place (remaining) and those placed (counts).  A
    module-level recursion, so no call leaves a reference cycle behind."""
    if idx == len(cells):
        return 1
    r, c, below = cells[idx]
    hi = vals[r][c + 1] if c + 1 < gamma[r] else nlab
    lo = vals[r - 1][c] + 1 if r > 0 and c >= alpha_p[r - 1] else 1
    total = 0
    for v in range(lo, min(hi, nlab - below) + 1):
        if remaining[v - 1] == 0:
            continue
        if v > 1 and counts[v - 1] <= counts[v]:
            continue
        remaining[v - 1] -= 1
        counts[v] += 1
        vals[r][c] = v
        total += _count_from(idx + 1, cells, vals, remaining, counts, nlab,
                             alpha_p, gamma)
        vals[r][c] = 0
        counts[v] -= 1
        remaining[v - 1] += 1
    return total


@lru_cache(maxsize=None)
def _lr_expand_cached(alpha, beta, rows) -> tuple:
    total = size(alpha) + size(beta)
    max_cols = (alpha[0] if alpha else 0) + (beta[0] if beta else 0)
    out = []
    for gamma in enumerate_in_box(rows, max_cols, total):
        c = lr_coefficient(alpha, beta, gamma)
        if c:
            out.append((gamma, c))
    return tuple(out)


def lr_expand_tensor(alpha, beta) -> dict:
    """All gamma with c^gamma_{alpha,beta} != 0, as {gamma: coefficient}."""
    alpha, beta = as_partition(alpha), as_partition(beta)
    return dict(_lr_expand_cached(alpha, beta, len(alpha) + len(beta)))


@lru_cache(maxsize=None)
def _direct_sum_cached(lam, rows) -> tuple:
    # alpha is contained in lam, so the alpha of at most `rows` rows are
    # the subpartitions of lam's first `rows` rows.
    out = []
    for alpha in subpartitions(lam[:rows]):
        rest = size(lam) - size(alpha)
        for beta in enumerate_in_box(rows, lam[0] if lam else 0, rest):
            c = lr_coefficient(alpha, beta, lam)
            if c:
                out.append((alpha, beta, c))
    return tuple(out)


def direct_sum_expand(lam) -> list:
    """Decompose S_lam(V + W) into S_alpha(V) x S_beta(W) pieces.

    Returns the triples (alpha, beta, c^lam_{alpha,beta}) with nonzero
    coefficient.
    """
    lam = as_partition(lam)
    return list(_direct_sum_cached(lam, len(lam)))


def double_bundle_triples(lam, n: int):
    """Walk the doubled-bundle expansion of S_lam one triple at a time.

    Yields (alpha, beta, gamma, c^lam_{alpha,beta} c^gamma_{alpha,beta}) over
    nonzero products with alpha, beta and gamma of at most n rows.
    """
    lam = as_partition(lam)
    # A nonzero alpha or beta has no more rows than lam, and a nonzero gamma
    # no more than alpha and beta together, so a larger n builds nothing
    # more; capping it there also shares the public expansions' entries.
    for alpha, beta, c1 in _direct_sum_cached(lam, min(n, len(lam))):
        rows = min(n, len(alpha) + len(beta))
        for gamma, c2 in _lr_expand_cached(alpha, beta, rows):
            yield alpha, beta, gamma, c1 * c2


@lru_cache(maxsize=None)
def _double_bundle_cached(lam, n) -> tuple:
    if len(lam) > 2 * n:
        raise ValueError(f"{lam} has more than {2 * n} rows")
    acc: dict = {}
    for _, _, gamma, c in double_bundle_triples(lam, n):
        acc[gamma] = acc.get(gamma, 0) + c
    return tuple(sorted(acc.items(), reverse=True))


def double_bundle_expand(lam, n: int) -> dict:
    """Decompose S_lam of a doubled rank-n bundle into rank-n pieces.

    Returns {gamma: sum_{alpha,beta} c^lam_{alpha,beta} c^gamma_{alpha,beta}}
    over partitions gamma with at most n rows.  Requires lam to have at most
    2n rows.
    """
    return dict(_double_bundle_cached(as_partition(lam), n))


def cauchy_wedge(ell: int, rank_left: int, rank_right: int) -> list:
    """Index pairs (lam^T, lam) of the ell-th exterior power of a tensor
    product of bundles of the given ranks.

    lam runs over partitions of size ell with at most rank_right rows and at
    most rank_left columns.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return [
        (transpose(lam), lam)
        for lam in enumerate_in_box(rank_right, rank_left, ell)
    ]


@lru_cache(maxsize=None)
def _pieri_wedge_cached(w, k, dualized) -> tuple:
    r = len(w)
    if not 0 <= k <= r:
        raise ValueError(f"k={k} out of range for rank {r}")
    step = -1 if dualized else 1
    out = []
    for spots in combinations(range(r), k):
        nw = list(w)
        for i in spots:
            nw[i] += step
        if all(a >= b for a, b in zip(nw, nw[1:])):
            out.append(tuple(nw))
    return tuple(sorted(out, reverse=True))


def pieri_wedge(w, k: int, dualized: bool = False) -> dict:
    """Tensor S_w with the k-th exterior power of the same bundle.

    Adds 1 to k distinct entries of w (subtracts when dualized), keeping only
    the weakly decreasing results; every summand has multiplicity 1.
    """
    return {v: 1 for v in _pieri_wedge_cached(as_weight(w), k, dualized)}


@lru_cache(maxsize=None)
def _pieri_sym_cached(w, k, dualized) -> tuple:
    r = len(w)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r == 0:
        return ((),) if k == 0 else ()
    out = []
    _fill_interlacing(out, [], w, dualized, 0, k)
    return tuple(sorted(out, reverse=True))


def _fill_interlacing(out, stack, w, dualized, j, left):
    r = len(w)
    if j == r:
        if left == 0:
            out.append(tuple(stack))
        return
    if dualized:
        # Drops interlace below w: w_j >= nu_j >= w_{j+1}.
        cap = left if j == r - 1 else min(left, w[j] - w[j + 1])
    else:
        # Gains interlace above w: nu_j >= w_j >= nu_{j+1}.
        cap = left if j == 0 else min(left, w[j - 1] - w[j])
    for a in range(cap + 1):
        stack.append(w[j] - a if dualized else w[j] + a)
        _fill_interlacing(out, stack, w, dualized, j + 1, left - a)
        stack.pop()


def pieri_sym(w, k: int, dualized: bool = False) -> dict:
    """Tensor S_w with the k-th symmetric power of the same bundle (its dual
    when dualized).

    Summands are the dominant weights nu with |nu| = |w| + k (or |w| - k)
    interlacing w; every multiplicity is 1.
    """
    return {v: 1 for v in _pieri_sym_cached(as_weight(w), k, dualized)}


def pieri_twist(weights: dict, n: int, functor: str, ks) -> dict:
    """Tensor S_w(B*) by F^k(B) for each k in ks in turn, B of rank n.

    F is the exterior power ("wedge"), the symmetric power ("sym") or the
    exterior power of the dual ("dual").  weights maps dual-coordinate
    weights of at most n entries to multiplicities; the result maps weights
    padded to n entries, still in dual coordinates.  wedge^k B is
    wedge^(n-k) B* twisted by det B, hence the shift by -1.
    """
    if functor not in ("wedge", "sym", "dual"):
        raise ValueError(f"unknown functor {functor!r}")
    # Every later weight comes out of a Pieri rule already valid, so only
    # the input is checked.
    acc = {as_weight(pad(w, n)): mult for w, mult in weights.items()}
    for k in ks:
        step: dict = {}
        for w, mult in acc.items():
            if functor == "wedge":
                summands = [tuple(e - 1 for e in v)
                            for v in _pieri_wedge_cached(w, n - k, False)]
            elif functor == "sym":
                summands = _pieri_sym_cached(w, k, True)
            else:
                summands = _pieri_wedge_cached(w, k, False)
            for v in summands:
                step[v] = step.get(v, 0) + mult
        acc = step
    return acc
