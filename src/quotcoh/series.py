"""Genus-zero generating series and their binomial closed forms.

Tabulating Euler characteristics of exterior, symmetric and dualized
exterior powers over all degrees n produces a series in q (tracking n) and
y (tracking the functor degree k).  On the projective line those series are
explicit products,

    wedge: (1-q)^{-1} (1+qy)^{chi};  dual: (1-q)^{-1};
    sym:   (1-q)^{-1} (1-qy)^{-chi},

with chi = h^0 of the twisted bundle, so the coefficient of q^n y^k is
C(chi, k), [k = 0] and C(chi+k-1, k) respectively when k <= n, and 0 when
k > n.  Comparing the two tables entry by entry is a finite, exact
verification of the closed forms.
"""

from dataclasses import dataclass

from .quot import (
    G2,
    dual_wedge_product,
    embedding_data,
    power_rank,
    quot_cohomology,
    sym_power,
    wedge_power,
)


def _check_kind(kind: str):
    if kind not in ("wedge", "sym", "dual"):
        raise ValueError(f"unknown series kind {kind!r}")


def closed_form(kind: str, sections: int, n_max: int) -> list:
    """The (n_max+1) x (n_max+1) coefficient table of the genus-zero closed
    form, row n holding the coefficients of q^n y^k; sections is chi, the
    section count of the twisted bundle."""
    _check_kind(kind)
    row = [int(k == 0) if kind == "dual" else power_rank(kind, sections, k)
           for k in range(n_max + 1)]
    return [row[:n + 1] + [0] * (n_max - n) for n in range(n_max + 1)]


def resolution_series(kind: str, N: int, deg_l: int, n_max: int,
                      splitting=None) -> list:
    """Tabulate resolution Euler characteristics, one row per degree n.

    Entry (n, k) is chi of the k-th exterior (resp. symmetric, resp. single
    dualized exterior) power of the degree-deg_l tautological bundle on the
    degree-n Quot scheme; only the window k <= n is filled, the rest is 0.
    Requires deg_l >= n_max so every column satisfies the theorems'
    hypotheses, and quotient rank 0 throughout; the dual kind needs N >= 2.
    """
    _check_kind(kind)
    if kind == "dual" and N < 2:
        raise ValueError("the dual series needs N >= 2: Theorem C allows "
                         "at most N-1 factors")
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got n_max={n_max}")
    if deg_l < n_max:
        raise ValueError(f"need deg L >= {n_max} so all columns are covered")
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for n in range(n_max + 1):
        data = embedding_data(N, splitting, n, 0, deg_l)
        for k in range(n + 1):
            if kind == "wedge":
                sheaf = wedge_power(k, G2)
            elif kind == "sym":
                sheaf = sym_power(k, G2)
            else:
                sheaf = dual_wedge_product(((k, G2),))
            table[n][k] = quot_cohomology(data, sheaf).chi
    return table


@dataclass(frozen=True)
class SeriesComparison:
    kind: str
    N: int
    deg_l: int
    n_max: int
    window: tuple  # of (n, k) pairs compared
    mismatches: tuple  # of (n, k, resolution value, closed form value)
    resolution: list  # resolution_series table
    closed: list  # closed_form table

    @property
    def equal(self) -> bool:
        return not self.mismatches


def compare(kind: str, N: int, deg_l: int, n_max: int,
            splitting=None) -> SeriesComparison:
    """Entrywise comparison on the window k <= n <= n_max."""
    computed = resolution_series(kind, N, deg_l, n_max, splitting)
    # The closed forms see N and the splitting only through the section
    # count of the twisted bundle, which does not depend on n.
    sections = embedding_data(N, splitting, 0, 0, deg_l).section_dim(G2)
    reference = closed_form(kind, sections, n_max)
    window = tuple((n, k) for n in range(n_max + 1) for k in range(n + 1))
    mismatches = tuple((n, k, computed[n][k], reference[n][k])
                       for n, k in window if computed[n][k] != reference[n][k])
    return SeriesComparison(kind, N, deg_l, n_max, window, mismatches,
                            computed, reference)
