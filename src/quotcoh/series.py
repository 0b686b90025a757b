"""Exact bivariate generating series and genus-zero identity checks.

Tabulating Euler characteristics of exterior, symmetric and dualized
exterior powers over all degrees n produces a series in q (tracking n) and
y (tracking the functor degree k).  On the projective line those series are
explicit products, and comparing the two expansions coefficient by
coefficient is a finite, exact verification of the closed forms.
"""

from dataclasses import dataclass

from .partitions import binom
from .quot import (
    G2,
    dual_wedge_product,
    embedding_data,
    quot_cohomology,
    sym_power,
    wedge_power,
)


class BivariateSeries:
    """Integer power series in q and y, truncated at fixed orders.

    Coefficients beyond (n_max, k_max) are dropped by every operation.
    """

    __slots__ = ("n_max", "k_max", "coeffs")

    def __init__(self, n_max: int, k_max: int, coeffs=None):
        self.n_max = n_max
        self.k_max = k_max
        self.coeffs = {}
        if coeffs:
            for (i, j), c in dict(coeffs).items():
                if c and 0 <= i <= n_max and 0 <= j <= k_max:
                    self.coeffs[(i, j)] = c

    @classmethod
    def one(cls, n_max: int, k_max: int) -> "BivariateSeries":
        return cls(n_max, k_max, {(0, 0): 1})

    def coefficient(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def _like(self, coeffs) -> "BivariateSeries":
        return BivariateSeries(self.n_max, self.k_max, coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BivariateSeries)
                and self.n_max == other.n_max
                and self.k_max == other.k_max
                and self.coeffs == other.coeffs)

    def __add__(self, other) -> "BivariateSeries":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return self._like(out)

    def __sub__(self, other) -> "BivariateSeries":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) - c
        return self._like(out)

    def __mul__(self, other) -> "BivariateSeries":
        out: dict = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i <= self.n_max and j <= self.k_max:
                    key = (i, j)
                    out[key] = out.get(key, 0) + c1 * c2
        return self._like(out)

    def __pow__(self, e: int) -> "BivariateSeries":
        if e < 0:
            return self.inverse() ** (-e)
        result = BivariateSeries.one(self.n_max, self.k_max)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "BivariateSeries":
        """Reciprocal of a series whose constant-in-q part is 1."""
        a0 = {j: c for (i, j), c in self.coeffs.items() if i == 0}
        if a0 != {0: 1}:
            raise ValueError("only series with constant term 1 are inverted")
        # Solve a * b = 1 degree by degree in q; coefficients of each power
        # of q are polynomials in y.
        a = [{} for _ in range(self.n_max + 1)]
        for (i, j), c in self.coeffs.items():
            a[i][j] = c
        b = [{} for _ in range(self.n_max + 1)]
        b[0] = {0: 1}
        for i in range(1, self.n_max + 1):
            row: dict = {}
            for p in range(1, i + 1):
                for j1, c1 in a[p].items():
                    for j2, c2 in b[i - p].items():
                        j = j1 + j2
                        if j <= self.k_max:
                            row[j] = row.get(j, 0) - c1 * c2
            b[i] = {j: c for j, c in row.items() if c}
        return self._like({(i, j): c
                           for i, rowi in enumerate(b)
                           for j, c in rowi.items()})

    def to_table(self) -> list:
        """Dense row-per-n table of coefficients."""
        return [[self.coefficient(i, j) for j in range(self.k_max + 1)]
                for i in range(self.n_max + 1)]


def geometric_q(n_max: int, k_max: int) -> BivariateSeries:
    """(1 - q)^{-1} truncated."""
    return BivariateSeries(n_max, k_max, {(i, 0): 1 for i in range(n_max + 1)})


def closed_form(kind: str, N: int, chi_l: int, n_max: int,
                k_max: int) -> BivariateSeries:
    """The genus-zero closed form of the chi series.

    wedge: (1-q)^{-1} (1+qy)^{N chi(L)};  dual: (1-q)^{-1};
    sym:   (1-q)^{-1} (1-qy)^{-N chi(L)}.
    """
    one_minus_q = BivariateSeries(n_max, k_max, {(0, 0): 1, (1, 0): -1})
    if kind == "wedge":
        base = BivariateSeries(n_max, k_max, {(0, 0): 1, (1, 1): 1})
        return one_minus_q.inverse() * base ** (N * chi_l)
    if kind == "dual":
        return one_minus_q.inverse()
    if kind == "sym":
        base = BivariateSeries(n_max, k_max, {(0, 0): 1, (1, 1): -1})
        return one_minus_q.inverse() * base.inverse() ** (N * chi_l)
    raise ValueError(f"unknown series kind {kind!r}")


def resolution_series(kind: str, N: int, deg_l: int, n_max: int,
                      splitting=None) -> BivariateSeries:
    """Tabulate resolution Euler characteristics into a series.

    The (n, k) coefficient is chi of the k-th exterior (resp. symmetric,
    resp. single dualized exterior) power of the degree-deg_l tautological
    bundle on the degree-n Quot scheme; only the window k <= n is filled.
    Requires deg_l >= n_max so every column satisfies the theorems'
    hypotheses, and quotient rank 0 throughout; the dual kind needs N >= 2.
    """
    if kind not in ("wedge", "sym", "dual"):
        raise ValueError(f"unknown series kind {kind!r}")
    if kind == "dual" and N < 2:
        raise ValueError("the dual series needs N >= 2: Theorem C allows "
                         "at most N-1 factors")
    if deg_l < n_max:
        raise ValueError(f"need deg L >= {n_max} so all columns are covered")
    coeffs = {}
    for n in range(n_max + 1):
        data = embedding_data(N, splitting, n, 0, deg_l)
        for k in range(n + 1):
            if kind == "wedge":
                sheaf = wedge_power(k, G2)
            elif kind == "sym":
                sheaf = sym_power(k, G2)
            else:
                sheaf = dual_wedge_product(((k, G2),))
            coeffs[(n, k)] = quot_cohomology(data, sheaf).chi
    return BivariateSeries(n_max, n_max, coeffs)


@dataclass(frozen=True)
class SeriesComparison:
    kind: str
    N: int
    deg_l: int
    n_max: int
    window: tuple  # of (n, k) pairs compared
    mismatches: tuple  # of (n, k, resolution value, closed form value)
    resolution: BivariateSeries
    closed: BivariateSeries

    @property
    def equal(self) -> bool:
        return not self.mismatches


def compare(kind: str, N: int, deg_l: int, n_max: int,
            splitting=None) -> SeriesComparison:
    """Coefficientwise comparison on the window k <= n <= n_max."""
    computed = resolution_series(kind, N, deg_l, n_max, splitting)
    chi_l = (sum(splitting) if splitting else 0) + N * (deg_l + 1)
    # The closed forms use N chi(L) only through the section count of the
    # twisted bundle, so a nontrivial splitting just shifts it.
    reference = closed_form(kind, 1, chi_l, n_max, n_max)
    window = []
    mismatches = []
    for n in range(n_max + 1):
        for k in range(n + 1):
            window.append((n, k))
            lhs = computed.coefficient(n, k)
            rhs = reference.coefficient(n, k)
            if lhs != rhs:
                mismatches.append((n, k, lhs, rhs))
    return SeriesComparison(kind, N, deg_l, n_max, tuple(window),
                            tuple(mismatches), computed, reference)
