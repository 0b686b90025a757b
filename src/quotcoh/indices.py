"""Column indices of partitions and the Grassmannian vanishing checks.

A partition has index i relative to a threshold n when the first i columns
are "long" (the j-th has at least n + j boxes) and every other column is
"short"; the variant with a wedge parameter k additionally tolerates a
middle column of exactly j + k - 1 boxes.  Partitions carrying an index feed
the vanishing machine: every rank-n piece of the doubled-bundle expansion,
after the relevant Pieri twists, must avoid cohomology for the reason
witnessed at column i.

The verify_* functions certify this summand by summand on explicit inputs
and return full records rather than booleans, so failures stay diagnosable.

Inputs are checked once, at the public boundary.  n_index, kn_index and the
verify_* functions normalize lam and check their arguments; after that the
index is read off lam's rows by _row_index, which needs neither the
transpose nor a pass over the columns, and _certify runs on trusted values:
it reads schur's cached doubled expansion as stored and twists it through
schur's unchecked Pieri chain.  Borel-Weil-Bott still runs on every
summand, and the expansion's dimension identity on every fill.
indexed_partitions lists the grids' inputs from one walk of the box, by
increasing size, and builds a report only for the partitions with an
index.
"""

from collections import namedtuple
from operator import neg

from .bott import bwb_weight
from .partitions import as_partition, box_by_size, part
from .schur import _double_bundle_cached, _pieri_chain, double_bundle_triples

SHAPE_PLAIN = "plain"
SHAPE_A = "a"
SHAPE_B = "b"


IndexReport = namedtuple("IndexReport", "defined index shape",
                         defaults=(None, None))


def _row_index(lam: tuple, n: int, k: int) -> tuple | None:
    """lam's index read off its rows, as (i, middle), or None.

    In columns, i is the largest j with h_j >= n + j, and every other
    column needs h_j < j - 1 or h_j = j + k - 1 (k = 0: h_j <= j - 1).
    Column j is long exactly when row n + j has at least j boxes, so the
    long columns are the first i.  The columns fall as the bounds rise, so
    only column i + 1 can hold i + k boxes (middle), and then column i + 2
    must hold at most i; otherwise h_{i+1} < i.  In rows, with lam_j = 0
    past the last: h_{i+1} < i is lam_i = i, since lam_i >= lam_{n+i} >= i;
    h_{i+1} = i + k is lam_{i+k} > i >= lam_{i+k+1}; and h_{i+2} <= i is
    lam_{i+1} <= i + 1."""
    rows = len(lam)
    i = 0
    while n + i < rows and lam[n + i] > i:
        i += 1
    if not i:
        return None
    if lam[i - 1] == i:
        return i, False
    # row i + k lies within lam, as row n + i does and k <= n
    if lam[i + k - 1] > i >= part(lam, i + k + 1) \
            and part(lam, i + 1) <= i + 1:
        return i, True
    return None


def _check_index_args(lam: tuple, n: int, k: int | None):
    # The arguments n_index (k None) and kn_index reject; lam is normalized.
    if k is None:
        if n < 0:
            raise ValueError(f"need n >= 0, got n={n}")
        if not lam:
            raise ValueError("the empty partition has no index")
        return
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not lam or lam == (1,) * k:
        raise ValueError(f"the index of {lam} is undefined by fiat")


def _report(found: tuple | None, k: int | None) -> IndexReport:
    # The report on _row_index's answer: the plain index when k is None,
    # else the k-variant with its shape.
    if found is None:
        return IndexReport(False)
    i, middle = found
    if k is None:
        return IndexReport(True, i, SHAPE_PLAIN)
    return IndexReport(True, i, SHAPE_B if middle else SHAPE_A)


def n_index(lam, n: int) -> IndexReport:
    """Largest j whose column has >= n + j boxes, defined only when every
    column has either < j or >= n + j boxes."""
    lam = as_partition(lam)
    _check_index_args(lam, n, None)
    return _report(_row_index(lam, n, 0), None)


def kn_index(lam, k: int, n: int) -> IndexReport:
    """Index variant tolerating one middle column of exactly j + k - 1 boxes.

    Undefined inputs 0 and a single column of k boxes are rejected; k = 0
    recovers the plain index.
    """
    lam = as_partition(lam)
    _check_index_args(lam, n, k)
    return _report(_row_index(lam, n, k), k)


class SummandCheck(namedtuple("SummandCheck",
                              "delta multiplicity in_window bott_vanishes")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.in_window and self.bott_vanishes


VanishingRecord = namedtuple("VanishingRecord",
                             "d n lam index kind ks summands ok")


def _certify(d, n, lam, index, kind, functor, ks) -> VanishingRecord:
    """Twist lam's doubled expansion by functor over ks and check every
    summand against the window [index, d-n+index-1] at row index and
    against Borel-Weil-Bott on S_delta(B dual).

    This is the trusted side of the certificates: the verify_* callers have
    checked and normalized every argument, so the cached expansion is read
    as it is stored and twisted by the unchecked Pieri chain.  Each delta
    comes out of a Pieri rule, padded to n entries, so neither it nor its
    bundle weight is checked again; Borel-Weil-Bott reads that weight
    without its sub block, which is zero.  The index is at most n, since a
    column of the (2n)-row box has at most 2n boxes.  One loop builds each
    summand's record and the verdict with it; the records are built
    through tuple.__new__, since every field is trusted.
    """
    deltas = _pieri_chain(_double_bundle_cached(lam, n), n, functor, ks)
    row, hi = index - 1, d - n + index - 1
    new = tuple.__new__
    checks = []
    ok = True
    for delta in sorted(deltas, reverse=True):
        in_window = index <= delta[row] <= hi
        vanishes = bwb_weight(d, tuple(map(neg, reversed(delta)))) is None
        checks.append(new(SummandCheck,
                          (delta, deltas[delta], in_window, vanishes)))
        if not (in_window and vanishes):
            ok = False
    return new(VanishingRecord,
               (d, n, lam, index, kind, ks, tuple(checks), ok))


def _indexed(d: int, n: int, r: int, lam, mode: str | None = None,
             k: int | None = None) -> tuple:
    """The prologue every certificate shares, and the one place it checks
    lam: lam normalized once, fitting the (2n) x (d-n-r-1) box, with its
    index (the k-variant in plus mode) read off its rows."""
    lam = as_partition(lam)
    rows, cols = 2 * n, d - n - r - 1
    if len(lam) > rows or (lam and lam[0] > cols):
        raise ValueError(f"{lam} does not fit in a {rows} x {cols} box")
    if mode != "plus":
        k = None
    _check_index_args(lam, n, k)
    found = _row_index(lam, n, k or 0)
    if found is None:
        where = "" if mode is None else f" in mode {mode}"
        raise ValueError(f"{lam} has no index for n={n}{where}")
    return lam, found[0]


def verify_wedge_vanishing(d: int, n: int, lam, k: int) -> VanishingRecord:
    """Certify vanishing of the doubled-bundle expansion twisted by the k-th
    exterior power of the quotient.

    lam must be nonzero, fit in the (2n) x (d-n-1) box and carry a defined
    index; every summand is checked against the window [i, d-n+i-1] at row i
    and against Borel-Weil-Bott directly.
    """
    lam, index = _indexed(d, n, 0, lam)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    return _certify(d, n, lam, index, "wedge", "wedge", (k,))


def verify_sym_vanishing(d: int, n: int, lam, k: int) -> VanishingRecord:
    """Same certification against the k-th symmetric power of the quotient.

    The statement splits: any k when the index is below n, while index n
    requires k <= n and anything larger is out of scope.
    """
    lam, index = _indexed(d, n, 0, lam)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if index == n and k > n:
        raise ValueError(f"index n={n} only covers k <= n, got k={k}")
    return _certify(d, n, lam, index, "sym", "sym", (k,))


def verify_dual_vanishing(d: int, n: int, r: int, lam, ks,
                          mode: str = "plain",
                          k: int | None = None) -> VanishingRecord:
    """Certify vanishing after tensoring with dual exterior powers.

    In plain mode lam needs a defined index and ks lists the r dual wedge
    degrees chained onto every summand.  In plus mode lam needs the k-variant
    index and only r - 1 degrees are chained; the remaining wedge factor
    lives on the other Grassmannian and enters through the index of lam.
    """
    ks = tuple(map(int, ks))
    if any(x < 0 for x in ks):
        raise ValueError("dual wedge degrees must be nonnegative")
    if mode not in ("plain", "plus"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "plus" and k is None:
        raise ValueError("plus mode needs the wedge parameter k")
    floor = int(mode == "plus")
    if r < floor:
        raise ValueError(f"{mode} mode needs r >= {floor}")
    chained = r - floor
    if len(ks) != chained:
        raise ValueError(
            f"{mode} mode expects {chained} degrees, got {len(ks)}")
    lam, index = _indexed(d, n, r, lam, mode, k)
    return _certify(d, n, lam, index, f"dual-{mode}", "dual", ks)


def indexed_partitions(d: int, n: int, r: int = 0,
                       max_size: int | None = None,
                       k: int | None = None) -> list:
    """Nonzero partitions in the (2n) x (d-n-r-1) box carrying an index, as
    (lam, IndexReport) pairs by increasing size, each size in
    enumerate_in_box's order.

    With k given, the k-variant index is used instead (skipping the inputs
    it leaves undefined by fiat).  One walk of the box lists every size.
    """
    rows, cols = 2 * n, d - n - r - 1
    cap = rows * cols if max_size is None else min(max_size, rows * cols)
    if cap < 1:
        return []
    lams = box_by_size(rows, cols, 1, cap)
    # kn_index's check on k, due once the box holds a partition.
    if k is not None and lams and not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    skip = None if k is None else (1,) * k
    out = []
    for lam in lams:
        if lam != skip:
            found = _row_index(lam, n, k or 0)
            if found is not None:
                out.append((lam, _report(found, k)))
    return out


class TripleCheck(namedtuple("TripleCheck", "alpha beta gamma alpha_row_ge_i "
                             "prefix_bound gamma_window gamma_tail")):
    """One (alpha, beta, gamma) triple from the doubled-bundle expansion,
    with the supporting inequalities evaluated at the index i."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.alpha_row_ge_i and self.prefix_bound
                and self.gamma_window and self.gamma_tail)


def lemma_triples(d: int, n: int, lam) -> list:
    """Evaluate the supporting inequalities on every contributing triple.

    For each (alpha, beta, gamma) with nonzero product of coefficients and
    gamma of at most n rows: alpha_i >= i, the prefix sums of alpha + beta
    up to i stay below i(d-n+i-1), i+1 <= gamma_i <= d-n+i-1, and the tail
    bound gamma_{i+1} >= i (index below n) or gamma_n >= 2n (index n).
    """
    lam = as_partition(lam)
    rep = n_index(lam, n)
    if not rep.defined:
        raise ValueError(f"{lam} has no index for n={n}")
    i = rep.index
    out = []
    for alpha, beta, gamma, _ in double_bundle_triples(lam, n):
        prefix = sum(part(alpha, j) + part(beta, j) for j in range(1, i + 1))
        if i < n:
            tail = part(gamma, i + 1) >= i
        else:
            tail = part(gamma, n) >= 2 * n
        out.append(TripleCheck(
            alpha, beta, gamma,
            part(alpha, i) >= i,
            prefix <= i * (d - n + i - 1),
            i + 1 <= part(gamma, i) <= d - n + i - 1,
            tail,
        ))
    return out
