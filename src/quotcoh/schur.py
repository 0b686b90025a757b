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
  c^lam_{alpha,beta} fillings.  Since c^lam_{alpha,beta} =
  c^lam_{beta,alpha}, the doubled expansion stops each path at |lam| / 2
  labels and counts a pair with |beta| < |alpha| for its mirror too;
* the tensor step, the shape beta from the start alpha (inner fixed
  empty): the final shape is gamma, with c^gamma_{alpha,beta} fillings.
  Since c^gamma_{alpha,beta} = c^gamma_{beta,alpha}, each unordered pair
  is walked once, filling the smaller shape from the larger start;
* lr_coefficient, gamma/alpha with inner fixed at alpha and labels at
  most len(beta), read at content beta.  It drops a path at the end of a
  row once the content exceeds beta anywhere.

Single coefficients are not cached: a triple rarely recurs outside the
expansion that first asked for it.  The reuse sits one level up, in four
caches keyed by their input: the tensor step, the doubled expansion and
the two Pieri rules, and above them in quot's caches of finished records
and of each walk's G1 side.  One pass of each benchmark workload makes
these hits and misses (the sweep's expansions are filled in its set-up):

    cache      grid       series    sweep
    profiles     0 / 0    32 / 40   44 / 60
    G1 side      0 / 0    28 / 12   42 / 18
    doubled    466 / 82   25 / 3    22 / 0
    tensor     158 / 202   2 / 1     0 / 0
    wedge      464 / 244   9 / 3    11 / 10
    sym        185 / 292   3 / 1     5 / 3

The grid's certificates (indices._certify) twist each lam several ways,
and their lam share (alpha, beta) pairs and weights; quot expands only the
few G2 factors its bound lets through, each under several twists and
ranks.  Both read _double_bundle_cached's tuple as stored, their lam being
normalized already: its pieces are weights of n entries, the form the
Pieri chain takes, and double_bundle_expand strips their zeros.  With
bott.bwb_weight, seven caches share the bound partitions.CACHE_ENTRIES.
The largest fill measured is 3,287 tensor entries, by
"cohomology --N 3 --n 3 --r 1 --m 4 --functor dual --ks 3,1
--sides G2,G2", so no measured run evicts.  The Cauchy pairs are not
cached: quot's hot path never lists them, so cauchy_wedge serves only
resolution_terms and the cauchy command, and checks the Cauchy identity on
each list.  The direct-sum step is not cached: its one hot caller is the
doubled expansion, whose cache holds the reuse.

The doubled-bundle expansion of S_lam(B* + B*), B of rank n, keeps only
pieces with at most n rows, so n travels down as a row bound: the
direct-sum step builds only alpha and beta, and the tensor step only
gamma, of at most n rows.  The public direct_sum_expand and
lr_expand_tensor pass their natural bounds, len(lam) and
len(alpha) + len(beta), through the same two functions.  Each doubled
expansion checks its dimensions when it is built: S_lam(C^2n) splits into
its rank-n pieces, so their dimensions must add up to dim_2n(lam); a
mismatch raises ArithmeticError.

The Pieri rules act directly on dominant weights with possibly negative
entries; this is legitimate because both rules commute with twisting every
entry by the same determinant power, the usual normalization that makes
negative entries nonnegative.

The public functions check their input, then call the unchecked cached
rules; pieri_twist calls _pieri_chain, which indices and quot call
directly on weights the engine built.  _plain_twist holds the two rules
they share: a degree-0 factor is the trivial bundle, so it is dropped,
and S^1 B = wedge^1 B, so at positive rank a lone sym^1 reads wedge^1's
entries.  _pieri_chain reads every twist through it, and so does quot's
profile key.  On the grid these rules save 215 of 751 Pieri fills (153
identity steps and 62 sym^1 duplicates).
"""

from functools import lru_cache
from itertools import combinations
from operator import ge, le

from .partitions import (
    CACHE_ENTRIES,
    as_partition,
    as_weight,
    binom,
    contains,
    enumerate_in_box,
    pad,
    size,
    transpose,
    weyl_dim,
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


def _fillings(outer, low, high, start, nlab, bound=None, most=None) -> dict:
    """Count the semistandard fillings of outer/inner with labels at most
    nlab whose content, added to start label by label in reading order,
    stays a partition, over the partitions inner with low <= inner <= high
    row by row.  With a bound, a filling is dropped once start + content
    exceeds it where a row may end; with most, only the fillings of at most
    that many labels are walked.  Returns {(inner, start + content):
    count}."""
    rows = len(outer)
    out: dict = {}
    if not rows:
        out[(), tuple(start)] = 1
        return out
    high = pad(high, rows)
    # Every cell right of high is labelled, so `slack` counts the labels
    # that may still go left of it, into cells the inner shape could take.
    slack = sum(high) if most is None else most - sum(outer) + sum(high)
    if slack < 0:
        return out
    vals = [[0] * (outer[0] + 1) for _ in outer]
    _walk(out, 0, outer[0], (), list(pad(start, nlab)), vals, [0] * rows,
          outer, pad(low, rows), high, transpose(outer), nlab,
          None if bound is None else pad(bound, nlab), slack)
    return out


def _walk(out, r, c, ikey, shape, vals, inner, outer, low, high, cols, nlab,
          bound, slack):
    # The recursive walks in this package are module-level functions that
    # take their state as arguments, so no call leaves a reference cycle.
    # Row r holds its labels from column c rightward; ikey is the inner
    # shape chosen above it.  Row r may end here, with inner_r = c, if that
    # keeps inner between low and high and a partition.  The content only
    # grows, so a path past the bound there is dropped.  A label left of
    # high[r] spends one of the slack labels left.  cols[0] is outer's row
    # count.
    if c <= high[r] and (not r or c <= inner[r - 1]):
        if bound is not None and not all(map(le, shape, bound)):
            return
        inner[r] = c
        key = ikey + (c,) if c else ikey
        if r + 1 < cols[0]:
            _walk(out, r + 1, outer[r + 1], key, shape, vals, inner, outer,
                  low, high, cols, nlab, bound, slack)
        else:
            key = key, tuple(filter(None, shape))
            out[key] = out.get(key, 0) + 1
    if c <= low[r]:
        return
    c -= 1
    if c < high[r]:
        if not slack:
            return
        slack -= 1
    row = vals[r]
    # Rows weakly increase, so a label is at most its right neighbour's
    # (row[c + 1] is 0 past the end of the row); columns strictly increase,
    # and a label v needs room for the cols[c] - r - 1 cells below it.
    hi = nlab - cols[c] + r + 1
    if 0 < row[c + 1] < hi:
        hi = row[c + 1]
    lo = vals[r - 1][c] + 1 if r and c >= inner[r - 1] else 1
    for v in range(lo, hi + 1):
        if v > 1 and shape[v - 2] == shape[v - 1]:
            continue
        shape[v - 1] += 1
        row[c] = v
        _walk(out, r, c, ikey, shape, vals, inner, outer, low, high, cols,
              nlab, bound, slack)
        shape[v - 1] -= 1
    row[c] = 0


@lru_cache(maxsize=CACHE_ENTRIES)
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
    if (sum(alpha), alpha) < (sum(beta), beta):
        return beta, alpha
    return alpha, beta


def lr_expand_tensor(alpha, beta) -> dict:
    """All gamma with c^gamma_{alpha,beta} != 0, as {gamma: coefficient}."""
    alpha, beta = as_partition(alpha), as_partition(beta)
    return dict(_lr_expand_cached(*_ordered(alpha, beta),
                                  len(alpha) + len(beta)))


def _direct_sum(lam, rows, most=None) -> list:
    # One walk over every alpha of at most `rows` rows: a column of
    # lam/alpha holds distinct labels at most `rows`, so alpha_r >=
    # lam_{r + rows}.  With most, only the triples with |beta| <= most.
    fillings = _fillings(lam, lam[rows:], lam[:rows], (), rows, None, most)
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


@lru_cache(maxsize=CACHE_ENTRIES)
def _double_bundle_cached(lam, n) -> tuple:
    if len(lam) > 2 * n:
        raise ValueError(f"{lam} has more than {2 * n} rows")
    # double_bundle_triples summed over alpha and beta.  The pair
    # (beta, alpha) adds what (alpha, beta) adds, since c^lam and c^gamma
    # are both symmetric and the row bounds are too, so the walk stops at
    # |lam| / 2 labels and a pair with |beta| < |alpha| counts twice.
    acc: dict = {}
    boxes = sum(lam)
    for alpha, beta, c1 in _direct_sum(lam, min(n, len(lam)), boxes // 2):
        if 2 * sum(beta) < boxes:
            c1 *= 2
            pair = alpha, beta
        else:
            pair = _ordered(alpha, beta)
        rows = min(n, len(alpha) + len(beta))
        for gamma, c2 in _lr_expand_cached(*pair, rows):
            acc[gamma] = acc.get(gamma, 0) + c1 * c2
    # Stored as weights of n entries, the form the Pieri chain reads; the
    # order is the partitions' order.  S_lam(C^2n) splits into the rank-n
    # pieces, dimensions included.
    pieces = sorted(((pad(gamma, n), c) for gamma, c in acc.items()),
                    reverse=True)
    want = weyl_dim(pad(lam, 2 * n), 2 * n)
    total = sum(c * weyl_dim(gamma, n) for gamma, c in pieces)
    if total != want:
        raise ArithmeticError(f"doubled expansion of {lam} over rank {n} "
                              f"has dimension {total}, not {want}")
    return tuple(pieces)


def double_bundle_expand(lam, n: int) -> dict:
    """Decompose S_lam of a doubled rank-n bundle into rank-n pieces.

    Returns {gamma: sum_{alpha,beta} c^lam_{alpha,beta} c^gamma_{alpha,beta}}
    over partitions gamma with at most n rows.  Requires lam to have at most
    2n rows.
    """
    return {gamma[:n - gamma.count(0)]: c
            for gamma, c in _double_bundle_cached(as_partition(lam), n)}


def cauchy_wedge(ell: int, rank_left: int, rank_right: int) -> list:
    """Index pairs (lam^T, lam) of the ell-th exterior power of a tensor
    product of bundles of the given ranks.

    lam runs over partitions of size ell with at most rank_right rows and at
    most rank_left columns.  The list is built on each call and checked
    against the Cauchy identity: the pieces' dimensions add up to
    C(rank_left * rank_right, ell), or ArithmeticError is raised.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    pairs = [(transpose(lam), lam)
             for lam in enumerate_in_box(rank_right, rank_left, ell)]
    total = sum(weyl_dim(pad(lam_t, rank_left), rank_left)
                * weyl_dim(pad(lam, rank_right), rank_right)
                for lam_t, lam in pairs)
    want = binom(rank_left * rank_right, ell)
    if total != want:
        raise ArithmeticError(f"Cauchy pieces of wedge^{ell} over ranks "
                              f"{rank_left} x {rank_right} have dimension "
                              f"{total}, not {want}")
    return pairs


@lru_cache(maxsize=CACHE_ENTRIES)
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
        if all(map(ge, nw, nw[1:])):
            out.append(tuple(nw))
    return tuple(sorted(out, reverse=True))


def pieri_wedge(w, k: int, dualized: bool = False) -> dict:
    """Tensor S_w with the k-th exterior power of the same bundle.

    Adds 1 to k distinct entries of w (subtracts when dualized), keeping only
    the weakly decreasing results; every summand has multiplicity 1.
    """
    return {v: 1 for v in _pieri_wedge_cached(as_weight(w), k, dualized)}


@lru_cache(maxsize=CACHE_ENTRIES)
def _pieri_sym_cached(w, k, dualized) -> tuple:
    r = len(w)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r == 0:
        return ((),) if k == 0 else ()
    if r == 1:
        return ((w[0] - k if dualized else w[0] + k,),)
    out = []
    _fill_interlacing(out, [], w, dualized, 0, k)
    # Each entry tries its changes from the smallest up, so drops come out
    # in decreasing order and gains in increasing order.
    return tuple(out) if dualized else tuple(reversed(out))


def _fill_interlacing(out, stack, w, dualized, j, left):
    # Entries j, j + 1, ... after the stack, with left still to place.
    # Gains interlace above w, nu_j >= w_j >= nu_{j+1}; drops interlace
    # below, w_j >= nu_j >= w_{j+1}.  The last two entries are placed
    # together: the last takes what is left.
    x, y = w[j], w[j + 1]
    if dualized:
        cap = min(left, x - y)
    else:
        cap = left if j == 0 else min(left, w[j - 1] - x)
    if j + 2 < len(w):
        for a in range(cap + 1):
            stack.append(x - a if dualized else x + a)
            _fill_interlacing(out, stack, w, dualized, j + 1, left - a)
            stack.pop()
    elif dualized:
        for a in range(cap + 1):
            out.append((*stack, x - a, y - left + a))
    else:
        # the last entry gains left - a, which must not pass x
        for a in range(max(0, left - x + y), cap + 1):
            out.append((*stack, x + a, y + left - a))


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
    return _pieri_chain([(as_weight(pad(w, n)), mult)
                         for w, mult in weights.items()], n, functor,
                        tuple(ks))


# The twist with no factors: a Pieri chain with no degrees leaves every
# weight as it is, whatever the functor.
_IDENTITY = ("wedge", ())


def _plain_twist(functor: str, ks: tuple) -> tuple:
    """The twist by F^k for k in ks as (functor, ks) in its plain form: a
    degree-0 factor is the trivial bundle, so it is dropped, and S^1 B =
    wedge^1 B, so a lone sym^1 reads as wedge^1 (at positive rank).  Equal
    twists then share the Pieri rules' cache entries and quot's profile
    key."""
    if 0 in ks:
        ks = tuple(k for k in ks if k)
    if not ks:
        return _IDENTITY
    if ks == (1,) and functor == "sym":
        return "wedge", ks
    return functor, ks


def _pieri_chain(pairs, n, functor, ks) -> dict:
    # pieri_twist unchecked, on (weight, multiplicity) pairs the engine
    # built: distinct dominant weights of n entries.  The twist is read in
    # its plain form, except over rank 0, where S^1 is zero and wedge^1 out
    # of range.
    if n:
        functor, ks = _plain_twist(functor, ks)
    acc = dict(pairs)
    if functor == "sym":
        rule, flag = _pieri_sym_cached, True
    else:
        rule, flag = _pieri_wedge_cached, functor == "wedge"
    for k in ks:
        step: dict = {}
        for w, mult in acc.items():
            for v in rule(w, k, flag):
                step[v] = step.get(v, 0) + mult
        acc = step
    return acc
