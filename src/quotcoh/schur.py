"""Littlewood-Richardson coefficients, Pieri products and Cauchy terms.

Littlewood-Richardson (LR) coefficients come from one walk that reaches
only nonzero terms (Fulton, *Young Tableaux*, ch. 5; A. Buch's lrcalc
generates the same fillings).  It fills a skew shape outer/inner
semistandardly, reading each row right to left from the top row down,
with labels capped by a row bound, and keeps a start partition plus the
content read so far a partition.  The inner shape is chosen row by row as
the walk goes: row r may end at any column inner_r from low_r to
min(high_r, inner_{r-1}), so the inner shapes that agree on a row's right
part share its fillings.  A finished filling is counted under (inner,
start + content), which gives:

* the direct-sum step, lam/alpha from an empty start (a lattice reading
  word) over every alpha in one walk per lam: the content is beta, with
  c^lam_{alpha,beta} fillings;
* the tensor step, the shape beta from the start alpha (inner fixed
  empty): the final shape is gamma, with c^gamma_{alpha,beta} fillings.
  Since c^gamma_{alpha,beta} = c^gamma_{beta,alpha}, each unordered pair
  is walked once, filling the smaller shape from the larger start;
* lr_coefficient, gamma/alpha with inner fixed at alpha and labels at
  most len(beta), read at content beta.  It drops a path at the end of a
  row once the content exceeds beta anywhere.

Single coefficients are not cached: a triple rarely recurs outside the
expansion that first asked for it.  The reuse sits one level up.  The
tensor and doubled-bundle expansions are cached per input.  Their reuse
comes mostly from the vanishing certificates of indices._certify: a
grid certifies each lam under several twists, and its lam share their
(alpha, beta) pairs (one pass of the benchmark's grid makes 466 hits and
82 misses on the doubled expansion, 411 and 202 on the tensor step).
quot's hot path expands only the G2 factors its acyclicity bound lets
through, nearly all with cohomology, so it expands few lam (a sweep pass
14 factors over 2 lam, a series pass 60 over 3), each under several
twists and ranks.  The Cauchy pairs are cached per degree and box, because
every G1 twist on an embedding splits its terms over the same boxes; the
two Pieri rules per weight and degree, because the expansions of different
lam share their weights.  (weyl_dim in partitions and bwb_weight in bott
are the other two caches; they pay for the same reason at the
Borel-Weil-Bott step.)  These caches are global and unbounded.  The reuse
among the sheaves resolved on one embedding sits higher still, in the
memo of piece cohomology that quot keeps on each embedding and frees with
it.  The direct-sum step is not cached: its one hot caller is the
doubled-bundle expansion, whose own cache already holds the reuse.

The doubled-bundle expansion of S_lam(B* + B*), B of rank n, keeps only
pieces with at most n rows, so n travels down as a row bound: the
direct-sum step builds only alpha and beta, and the tensor step only
gamma, of at most n rows.  The public direct_sum_expand and
lr_expand_tensor pass their natural bounds, len(lam) and
len(alpha) + len(beta), through the same two functions.  Each doubled
expansion checks its dimensions when it is built: S_lam(C^2n) splits into
its rank-n pieces, so their dimensions must add up to dim_2n(lam); a
mismatch raises ArithmeticError.  No other step reads these dimensions, so
they are computed uncached.

The Pieri rules act directly on dominant weights with possibly negative
entries; this is legitimate because both rules commute with twisting every
entry by the same determinant power, the usual normalization that makes
negative entries nonnegative.
"""

from functools import lru_cache
from itertools import combinations
from operator import le

from .partitions import (
    as_partition,
    as_weight,
    contains,
    enumerate_in_box,
    pad,
    size,
    transpose,
    weyl_dim_uncached,
)


def lr_coefficient(alpha, beta, gamma) -> int:
    """The multiplicity c^gamma_{alpha,beta} of S_gamma in S_alpha . S_beta.

    Counts the LR fillings of gamma/alpha with content beta (see the module
    docstring).  Returns 0 when the sizes do not match or gamma does not
    contain alpha.
    """
    alpha = as_partition(alpha)
    beta = as_partition(beta)
    gamma = as_partition(gamma)
    if size(gamma) != size(alpha) + size(beta) or not contains(gamma, alpha):
        return 0
    fillings = _fillings(gamma, alpha, alpha, (), len(beta), beta)
    return fillings.get((alpha, beta), 0)


def _fillings(outer, low, high, start, nlab, bound=None) -> dict:
    """Count the semistandard fillings of outer/inner with labels at most
    nlab whose content, added to start label by label in reading order,
    stays a partition, over the partitions inner with low <= inner <= high
    row by row.  With a bound, a filling is dropped once start + content
    exceeds it where a row may end.  Returns {(inner, start + content):
    count}."""
    rows = len(outer)
    out: dict = {}
    if not rows:
        out[(), tuple(start)] = 1
        return out
    vals = [[0] * (outer[0] + 1) for _ in outer]
    _walk(out, 0, outer[0], (), list(pad(start, nlab)), vals, [0] * rows,
          outer, pad(low, rows), pad(high, rows), transpose(outer), nlab,
          None if bound is None else pad(bound, nlab))
    return out


def _walk(out, r, c, ikey, shape, vals, inner, outer, low, high, cols, nlab,
          bound):
    # The recursive walks in this package are module-level functions that
    # take their state as arguments, so no call leaves a reference cycle.
    # Row r holds its labels from column c rightward; ikey is the inner
    # shape chosen above it.  Row r may end here, with inner_r = c, if that
    # keeps inner between low and high and a partition.  The content only
    # grows, so a path past the bound there is dropped.
    if c <= high[r] and (not r or c <= inner[r - 1]):
        if bound is not None and not all(map(le, shape, bound)):
            return
        inner[r] = c
        key = ikey + (c,) if c else ikey
        if r + 1 < len(outer):
            _walk(out, r + 1, outer[r + 1], key, shape, vals, inner, outer,
                  low, high, cols, nlab, bound)
        else:
            key = key, tuple(x for x in shape if x)
            out[key] = out.get(key, 0) + 1
    if c <= low[r]:
        return
    c -= 1
    row = vals[r]
    # Rows weakly increase, so a label is at most its right neighbour's
    # (row[c + 1] is 0 past the end of the row); columns strictly increase,
    # and a label v needs room for the cols[c] - r - 1 cells below it.
    hi = min(row[c + 1] or nlab, nlab - cols[c] + r + 1)
    lo = vals[r - 1][c] + 1 if r and c >= inner[r - 1] else 1
    for v in range(lo, hi + 1):
        if v > 1 and shape[v - 2] == shape[v - 1]:
            continue
        shape[v - 1] += 1
        row[c] = v
        _walk(out, r, c, ikey, shape, vals, inner, outer, low, high, cols,
              nlab, bound)
        shape[v - 1] -= 1
    row[c] = 0


@lru_cache(maxsize=None)
def _lr_expand_cached(alpha, beta, rows) -> tuple:
    # Keyed on the pair ordered by (size, shape): the walk fills the
    # smaller shape beta from the larger start alpha.
    if len(alpha) > rows:
        return ()
    return tuple(sorted(((gamma, c) for (_, gamma), c
                         in _fillings(beta, (), (), alpha, rows).items()),
                        reverse=True))


def _ordered(alpha, beta) -> tuple:
    # c^gamma_{alpha,beta} = c^gamma_{beta,alpha}: one entry per unordered
    # pair, the larger shape first.
    if (size(alpha), alpha) < (size(beta), beta):
        return beta, alpha
    return alpha, beta


def lr_expand_tensor(alpha, beta) -> dict:
    """All gamma with c^gamma_{alpha,beta} != 0, as {gamma: coefficient}."""
    alpha, beta = as_partition(alpha), as_partition(beta)
    return dict(_lr_expand_cached(*_ordered(alpha, beta),
                                  len(alpha) + len(beta)))


def _direct_sum(lam, rows) -> list:
    # One walk over every alpha of at most `rows` rows: a column of
    # lam/alpha holds distinct labels at most `rows`, so alpha_r >=
    # lam_{r + rows}.
    fillings = _fillings(lam, lam[rows:], lam[:rows], (), rows)
    return [(alpha, beta, c)
            for (alpha, beta), c in sorted(fillings.items(), reverse=True)]


def direct_sum_expand(lam) -> list:
    """Decompose S_lam(V + W) into S_alpha(V) x S_beta(W) pieces.

    Returns the triples (alpha, beta, c^lam_{alpha,beta}) with nonzero
    coefficient.
    """
    lam = as_partition(lam)
    return _direct_sum(lam, len(lam))


def double_bundle_triples(lam, n: int):
    """Walk the doubled-bundle expansion of S_lam one triple at a time.

    Yields (alpha, beta, gamma, c^lam_{alpha,beta} c^gamma_{alpha,beta}) over
    nonzero products with alpha, beta and gamma of at most n rows.  lam
    must already be a normalized partition.
    """
    # A nonzero alpha or beta has no more rows than lam, and a nonzero gamma
    # no more than alpha and beta together, so a larger n builds nothing
    # more; capping it there also shares the public tensor expansion's
    # cache entries.
    for alpha, beta, c1 in _direct_sum(lam, min(n, len(lam))):
        rows = min(n, len(alpha) + len(beta))
        for gamma, c2 in _lr_expand_cached(*_ordered(alpha, beta), rows):
            yield alpha, beta, gamma, c1 * c2


@lru_cache(maxsize=None)
def _double_bundle_cached(lam, n) -> tuple:
    if len(lam) > 2 * n:
        raise ValueError(f"{lam} has more than {2 * n} rows")
    acc: dict = {}
    for _, _, gamma, c in double_bundle_triples(lam, n):
        acc[gamma] = acc.get(gamma, 0) + c
    # S_lam(C^2n) splits into the rank-n pieces, dimensions included.
    want = weyl_dim_uncached(pad(lam, 2 * n), 2 * n)
    total = sum(c * weyl_dim_uncached(pad(gamma, n), n)
                for gamma, c in acc.items())
    if total != want:
        raise ArithmeticError(f"doubled expansion of {lam} over rank {n} "
                              f"has dimension {total}, not {want}")
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
    most rank_left columns.  The list is the caller's own.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return list(_cauchy_cached(ell, rank_left, rank_right))


@lru_cache(maxsize=None)
def _cauchy_cached(ell, rank_left, rank_right) -> tuple:
    return tuple((transpose(lam), lam)
                 for lam in enumerate_in_box(rank_right, rank_left, ell))


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
    padded to n entries, still in dual coordinates.  B is the dual of B*,
    so wedge^k B lowers k entries by 1, and wedge^k B* raises k entries.
    """
    if functor not in ("wedge", "sym", "dual"):
        raise ValueError(f"unknown functor {functor!r}")
    # Every later weight comes out of a Pieri rule already valid, so only
    # the input is checked.
    acc = {as_weight(pad(w, n)): mult for w, mult in weights.items()}
    for k in ks:
        step: dict = {}
        for w, mult in acc.items():
            if functor == "sym":
                summands = _pieri_sym_cached(w, k, True)
            else:
                summands = _pieri_wedge_cached(w, k, functor == "wedge")
            for v in summands:
                step[v] = step.get(v, 0) + mult
        acc = step
    return acc
