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
"""

from dataclasses import dataclass
from typing import Optional

from .bott import bwb_weight
from .partitions import (
    as_partition,
    negate_reverse,
    part,
    transpose,
    enumerate_in_box,
)
from .schur import double_bundle_expand, double_bundle_triples, pieri_twist

SHAPE_PLAIN = "plain"
SHAPE_A = "a"
SHAPE_B = "b"


@dataclass(frozen=True)
class IndexReport:
    defined: bool
    index: Optional[int] = None
    shape: Optional[str] = None


def _column_index(cols: tuple, n: int, k: int) -> Optional[int]:
    """Largest j with h_j >= n + j, or None when there is none or another
    column has j - 1 <= h_j < n + j, h_j != j + k - 1 (k = 0: h_j >= j)."""
    best = None
    for j, h in enumerate(cols, start=1):
        if h >= n + j:
            best = j
        elif h >= j - 1 and h != j + k - 1:
            return None
    return best


def n_index(lam, n: int) -> IndexReport:
    """Largest j whose column has >= n + j boxes, defined only when every
    column has either < j or >= n + j boxes."""
    lam = as_partition(lam)
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not lam:
        raise ValueError("the empty partition has no index")
    best = _column_index(transpose(lam), n, 0)
    if best is None:
        return IndexReport(False)
    return IndexReport(True, best, SHAPE_PLAIN)


def kn_index(lam, k: int, n: int) -> IndexReport:
    """Index variant tolerating one middle column of exactly j + k - 1 boxes.

    Undefined inputs 0 and a single column of k boxes are rejected; k = 0
    recovers the plain index.
    """
    lam = as_partition(lam)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not lam or lam == (1,) * k:
        raise ValueError(f"the index of {lam} is undefined by fiat")
    cols = transpose(lam)
    best = _column_index(cols, n, k)
    if best is None:
        return IndexReport(False)
    middle = part(cols, best + 1)
    shape = SHAPE_B if middle == k + best else SHAPE_A
    return IndexReport(True, best, shape)


@dataclass(frozen=True)
class SummandCheck:
    delta: tuple
    multiplicity: int
    in_window: bool
    bott_vanishes: bool

    @property
    def ok(self) -> bool:
        return self.in_window and self.bott_vanishes


@dataclass(frozen=True)
class VanishingRecord:
    d: int
    n: int
    lam: tuple
    index: int
    kind: str
    ks: tuple
    summands: tuple
    ok: bool


def _certify(d, n, lam, index, kind, functor, ks) -> VanishingRecord:
    """Twist lam's doubled expansion by functor over ks and check every
    summand against the window [index, d-n+index-1] at row index and
    against Borel-Weil-Bott on S_delta(B dual).

    The callers have checked their arguments; each delta is a Pieri output
    padded to n entries, so its bundle weight needs no second check.
    """
    deltas = pieri_twist(double_bundle_expand(lam, n), n, functor, ks)
    zeros = (0,) * (d - n)
    hi = d - n + index - 1
    checks = tuple(
        SummandCheck(delta, mult, index <= part(delta, index) <= hi,
                     bwb_weight(d, negate_reverse(delta) + zeros) is None)
        for delta, mult in sorted(deltas.items(), reverse=True))
    return VanishingRecord(d, n, lam, index, kind, tuple(ks), checks,
                           all(c.ok for c in checks))


def _require_box(lam, rows: int, cols: int):
    if len(lam) > rows or (lam and lam[0] > cols):
        raise ValueError(f"{lam} does not fit in a {rows} x {cols} box")


def verify_wedge_vanishing(d: int, n: int, lam, k: int) -> VanishingRecord:
    """Certify vanishing of the doubled-bundle expansion twisted by the k-th
    exterior power of the quotient.

    lam must be nonzero, fit in the (2n) x (d-n-1) box and carry a defined
    index; every summand is checked against the window [i, d-n+i-1] at row i
    and against Borel-Weil-Bott directly.
    """
    lam = as_partition(lam)
    _require_box(lam, 2 * n, d - n - 1)
    rep = n_index(lam, n)
    if not rep.defined:
        raise ValueError(f"{lam} has no index for n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    return _certify(d, n, lam, rep.index, "wedge", "wedge", (k,))


def verify_sym_vanishing(d: int, n: int, lam, k: int) -> VanishingRecord:
    """Same certification against the k-th symmetric power of the quotient.

    The statement splits: any k when the index is below n, while index n
    requires k <= n and anything larger is out of scope.
    """
    lam = as_partition(lam)
    _require_box(lam, 2 * n, d - n - 1)
    rep = n_index(lam, n)
    if not rep.defined:
        raise ValueError(f"{lam} has no index for n={n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if rep.index == n and k > n:
        raise ValueError(f"index n={n} only covers k <= n, got k={k}")
    return _certify(d, n, lam, rep.index, "sym", "sym", (k,))


def verify_dual_vanishing(d: int, n: int, r: int, lam, ks,
                          mode: str = "plain",
                          k: Optional[int] = None) -> VanishingRecord:
    """Certify vanishing after tensoring with dual exterior powers.

    In plain mode lam needs a defined index and ks lists the r dual wedge
    degrees chained onto every summand.  In plus mode lam needs the k-variant
    index and only r - 1 degrees are chained; the remaining wedge factor
    lives on the other Grassmannian and enters through the index of lam.
    """
    lam = as_partition(lam)
    ks = tuple(int(x) for x in ks)
    if any(x < 0 for x in ks):
        raise ValueError("dual wedge degrees must be nonnegative")
    _require_box(lam, 2 * n, d - n - r - 1)
    if mode == "plain":
        if len(ks) != r:
            raise ValueError(f"plain mode expects {r} degrees, got {len(ks)}")
        rep = n_index(lam, n)
    elif mode == "plus":
        if k is None:
            raise ValueError("plus mode needs the wedge parameter k")
        if len(ks) != r - 1:
            raise ValueError(
                f"plus mode expects {r - 1} degrees, got {len(ks)}")
        rep = kn_index(lam, k, n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not rep.defined:
        raise ValueError(f"{lam} has no index for n={n} in mode {mode}")
    return _certify(d, n, lam, rep.index, f"dual-{mode}", "dual", ks)


def indexed_partitions(d: int, n: int, r: int = 0,
                       max_size: Optional[int] = None,
                       k: Optional[int] = None) -> list:
    """Nonzero partitions in the (2n) x (d-n-r-1) box carrying an index.

    With k given, the k-variant index is used instead (skipping the inputs
    it leaves undefined by fiat).
    """
    rows, cols = 2 * n, d - n - r - 1
    cap = rows * cols if max_size is None else min(max_size, rows * cols)
    out = []
    for total in range(1, cap + 1):
        for lam in enumerate_in_box(rows, cols, total):
            if k is None:
                rep = n_index(lam, n)
            else:
                if lam == (1,) * k:
                    continue
                rep = kn_index(lam, k, n)
            if rep.defined:
                out.append((lam, rep))
    return out


@dataclass(frozen=True)
class TripleCheck:
    """One (alpha, beta, gamma) triple from the doubled-bundle expansion,
    with the supporting inequalities evaluated at the index i."""

    alpha: tuple
    beta: tuple
    gamma: tuple
    alpha_row_ge_i: bool
    prefix_bound: bool
    gamma_window: bool
    gamma_tail: bool

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
