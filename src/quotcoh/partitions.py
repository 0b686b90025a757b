"""Integer partitions and dominant weights as plain tuples.

A partition is a weakly decreasing tuple of nonnegative integers with
trailing zeros stripped, so ``(3, 1)`` and ``(3, 1, 0)`` denote the same
partition and only the first form is ever returned.  A dominant weight is a
weakly decreasing tuple of integers whose length is significant: it labels a
representation of GL of that rank, entries may be negative, and zeros are
kept.
"""

import math
from operator import ge

# The bound shared by the engine's six caches.  The largest fill measured
# is 3,287 entries, so no measured run evicts.
CACHE_ENTRIES = 1 << 14


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside the Pascal triangle."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def as_partition(parts) -> tuple:
    """Validate and normalize a partition: weakly decreasing, nonnegative,
    trailing zeros stripped."""
    t = tuple(map(int, parts))
    if not all(map(ge, t, t[1:])):
        raise ValueError(f"not weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise ValueError(f"negative part in partition: {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def as_weight(entries) -> tuple:
    """Validate a dominant weight: weakly decreasing integers, length kept."""
    t = tuple(map(int, entries))
    if not all(map(ge, t, t[1:])):
        raise ValueError(f"not weakly decreasing: {t}")
    return t


def size(lam) -> int:
    """Number of boxes |lambda|."""
    return sum(lam)


def part(lam, i: int) -> int:
    """The i-th part (1-based), zero beyond the last row."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def transpose(lam) -> tuple:
    """Exchange rows and columns of the Young diagram.  Involutive."""
    if not lam:
        return ()
    # Column j + 1 holds one box per row longer than j; the rows decrease,
    # so those are the first `rows` of them.
    cols = []
    rows = len(lam)
    for j in range(lam[0]):
        while lam[rows - 1] <= j:
            rows -= 1
        cols.append(rows)
    return tuple(cols)


def contains(outer, inner) -> bool:
    """Containment of Young diagrams: outer_i >= inner_i for all i."""
    if len(inner) > len(outer):
        # A longer inner can only fit if its extra rows are zero, but
        # normalized partitions have no zero rows.
        return False
    return all(o >= i for o, i in zip(outer, inner))


def dominates(alpha, beta) -> bool:
    """Dominance order: every prefix sum of alpha is >= that of beta.

    Only defined for partitions of equal size.
    """
    if size(alpha) != size(beta):
        raise ValueError(f"size mismatch: |{alpha}| != |{beta}|")
    sa = sb = 0
    for i in range(max(len(alpha), len(beta))):
        sa += part(alpha, i + 1)
        sb += part(beta, i + 1)
        if sa < sb:
            return False
    return True


def union(alpha, beta) -> tuple:
    """Multiset union of the rows of alpha and beta, sorted decreasingly."""
    return tuple(sorted(alpha + beta, reverse=True))


def add(alpha, beta) -> tuple:
    """Entrywise sum alpha + beta, padding the shorter with zeros."""
    n = max(len(alpha), len(beta))
    return tuple(part(alpha, i + 1) + part(beta, i + 1) for i in range(n))


def pad(w, length: int) -> tuple:
    """Extend with trailing zeros to the given length."""
    if len(w) > length:
        raise ValueError(f"{w} has more than {length} entries")
    return tuple(w) + (0,) * (length - len(w))


def negate_reverse(w) -> tuple:
    """The weight (-w_r, ..., -w_1); labels the dual representation."""
    return tuple(-e for e in reversed(w))


def weyl_dim(w: tuple, d: int) -> int:
    """Dimension of the GL(d) representation with highest weight w.

    Computed by the Weyl formula prod_{i<j} (w_i - w_j + j - i) / (j - i),
    over exact integers with a final integrality check.  A pair with
    w_i = w_j contributes exactly 1, so each i starts j past its run of
    equal entries.
    """
    if len(w) != d:
        raise ValueError(f"weight {w} does not have length {d}")
    for a, b in zip(w, w[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {w}")
    num = den = 1
    after_run = 0
    for i in range(d):
        if after_run <= i:
            after_run = i + 1
            while after_run < d and w[after_run] == w[i]:
                after_run += 1
        for j in range(after_run, d):
            num *= w[i] - w[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl formula gave a non-integer for {w}")
    return q


def enumerate_in_box(max_rows: int, max_cols: int, total: int) -> list:
    """All partitions of the given size fitting in a max_rows x max_cols box,
    in decreasing lexicographic order."""
    return box_by_size(max_rows, max_cols, total, total)


def box_by_size(max_rows: int, max_cols: int, smallest: int,
                largest: int) -> list:
    """The partitions fitting in the box with smallest <= size <= largest,
    grouped by increasing size, each size in enumerate_in_box's order.
    One walk of the box lists every size."""
    if min(max_rows, max_cols, smallest) < 0:
        raise ValueError("arguments must be nonnegative")
    return [lam for group in _walk_box(max_rows, max_cols, smallest, largest)
            for lam in group]


def _walk_box(rows, cols, lo, hi) -> list:
    # One depth-first walk of the box, kept iterative so that a tall box
    # costs no stack depth.  parts holds the rows chosen so far and p the
    # next value to try for the row below them; values are tried from the
    # largest down, so every size comes out in decreasing lexicographic
    # order.  A value is tried only if the rows left can still reach lo.
    # Returns the partitions of size lo + i in group i.
    groups = [[] for _ in range(hi - lo + 1)]
    if not groups:
        return groups
    if lo == 0:
        groups[0].append(())
    parts, total = [], 0
    p = min(cols, hi) if rows else 0
    while True:
        if p and total + p * (rows - len(parts)) >= lo:
            parts.append(p)
            total += p
            if total >= lo:
                groups[total - lo].append(tuple(parts))
            p = min(p, hi - total) if len(parts) < rows else 0
        elif parts:
            p = parts.pop()
            total -= p
            p -= 1
        else:
            return groups


def all_in_box(max_rows: int, max_cols: int) -> list:
    """All partitions fitting in the box, grouped by increasing size."""
    return box_by_size(max_rows, max_cols, 0, max_rows * max_cols)
