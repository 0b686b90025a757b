"""Integer partitions and dominant weights as plain tuples.

A partition is a weakly decreasing tuple of nonnegative integers with
trailing zeros stripped, so ``(3, 1)`` and ``(3, 1, 0)`` denote the same
partition and only the first form is ever returned.  A dominant weight is a
weakly decreasing tuple of integers whose length is significant: it labels a
representation of GL of that rank, entries may be negative, and zeros are
kept.
"""

import math
from functools import lru_cache


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside the Pascal triangle."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def as_partition(parts) -> tuple:
    """Validate and normalize a partition: weakly decreasing, nonnegative,
    trailing zeros stripped."""
    t = tuple(map(int, parts))
    if tuple(sorted(t, reverse=True)) != t:
        raise ValueError(f"not weakly decreasing: {t}")
    if t and t[-1] < 0:
        raise ValueError(f"negative part in partition: {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def as_weight(entries) -> tuple:
    """Validate a dominant weight: weakly decreasing integers, length kept."""
    t = tuple(map(int, entries))
    if tuple(sorted(t, reverse=True)) != t:
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
    cols = [0] * lam[0]
    for row in lam:
        for j in range(row):
            cols[j] += 1
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


def weyl_dim_uncached(w: tuple, d: int) -> int:
    """Dimension of the GL(d) representation with highest weight w.

    Computed by the Weyl formula prod_{i<j} (w_i - w_j + j - i) / (j - i),
    over exact integers with a final integrality check.  weyl_dim caches it.
    """
    if len(w) != d:
        raise ValueError(f"weight {w} does not have length {d}")
    for a, b in zip(w, w[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {w}")
    num = den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= w[i] - w[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl formula gave a non-integer for {w}")
    return q


weyl_dim = lru_cache(maxsize=None)(weyl_dim_uncached)


def enumerate_in_box(max_rows: int, max_cols: int, total: int) -> list:
    """All partitions of the given size fitting in a max_rows x max_cols box,
    in decreasing lexicographic order."""
    if min(max_rows, max_cols, total) < 0:
        raise ValueError("arguments must be nonnegative")
    out = []
    _fill_box(out, [], total, max_cols, max_rows)
    return out


def _fill_box(out, stack, remaining, largest, rows_left):
    # The recursive walks in this package are module-level functions that
    # take their state as arguments.  A nested function that calls itself
    # is a reference cycle, so each call would leave its output behind for
    # the cyclic collector instead of freeing it on return.
    if remaining == 0:
        out.append(tuple(stack))
        return
    if rows_left == 0 or largest * rows_left < remaining:
        return
    for p in range(min(largest, remaining), 0, -1):
        stack.append(p)
        _fill_box(out, stack, remaining - p, p, rows_left - 1)
        stack.pop()


def all_in_box(max_rows: int, max_cols: int) -> list:
    """All partitions fitting in the box, grouped by increasing size."""
    return [
        lam
        for total in range(max_rows * max_cols + 1)
        for lam in enumerate_in_box(max_rows, max_cols, total)
    ]

