"""Borel-Weil-Bott on a single Grassmannian of quotients.

The Grassmannian G(d, n) parametrizes n-dimensional quotients of a fixed
d-dimensional space and carries the tautological sequence

    0 -> A -> O^d -> B -> 0,    rank B = n, rank A = d - n.

A homogeneous bundle S_nu(B) . S_mu(A) is encoded by the pair of dominant
weights (nu, mu).  Its cohomology is computed by the dotted Weyl action on
the concatenated weight: add the staircase rho = (d-1, ..., 1, 0); a repeated
entry kills all cohomology, otherwise sorting decreasingly leaves a single
group in degree equal to the number of inversions.

Degenerate ends n = 0 and n = d (the Grassmannian is a point) are allowed;
they arise in the Quot embedding whenever one of the two factors collapses.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .partitions import as_weight, negate_reverse, pad, part, weyl_dim


@dataclass(frozen=True)
class GrassmannianContext:
    """Ambient dimension d and quotient rank n, with 0 <= n <= d."""

    d: int
    n: int

    def __post_init__(self):
        if not 0 <= self.n <= self.d:
            raise ValueError(f"need 0 <= n <= d, got d={self.d}, n={self.n}")

    @property
    def sub_rank(self) -> int:
        return self.d - self.n

    @property
    def dim(self) -> int:
        return self.n * (self.d - self.n)


def check_weight(entries, length: int, what: str) -> tuple:
    """Validate a dominant weight that must have the given length."""
    w = as_weight(entries)
    if len(w) != length:
        raise ValueError(f"{what} weight {w} must have length {length}")
    return w


@dataclass(frozen=True)
class HomogeneousBundle:
    """S_quot(B) . S_sub(A) on the Grassmannian ctx."""

    ctx: GrassmannianContext
    quot: tuple
    sub: tuple

    def __post_init__(self):
        object.__setattr__(self, "quot",
                           check_weight(self.quot, self.ctx.n, "quotient"))
        object.__setattr__(self, "sub",
                           check_weight(self.sub, self.ctx.sub_rank, "sub"))

    def rank(self) -> int:
        return weyl_dim(self.quot, self.ctx.n) * weyl_dim(
            self.sub, self.ctx.sub_rank)


@dataclass(frozen=True)
class BWBResult:
    """Either total vanishing, or a single group H^degree = S_gl_weight."""

    vanishes: bool
    degree: Optional[int] = None
    gl_weight: Optional[tuple] = None


def quot_dual_bundle(ctx: GrassmannianContext, nu) -> HomogeneousBundle:
    """The bundle S_nu(B dual) as a HomogeneousBundle."""
    nu = as_weight(nu)
    return HomogeneousBundle(ctx, negate_reverse(pad(nu, ctx.n)),
                             (0,) * ctx.sub_rank)


def sub_bundle(ctx: GrassmannianContext, mu) -> HomogeneousBundle:
    """The bundle S_mu(A) as a HomogeneousBundle."""
    mu = as_weight(mu)
    return HomogeneousBundle(ctx, (0,) * ctx.n, pad(mu, ctx.sub_rank))


@lru_cache(maxsize=None)
def bwb_weight(d: int, weight: tuple) -> Optional[tuple]:
    """Borel-Weil-Bott on a concatenated weight quot + sub of length d.

    Returns None when every group vanishes, else (degree, gl_weight).  The
    weight is taken as valid: callers check it once, as HomogeneousBundle
    does.
    """
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
    return degree, gl


def bwb(bundle: HomogeneousBundle) -> BWBResult:
    """Run the Borel-Weil-Bott algorithm on a homogeneous bundle."""
    res = bwb_weight(bundle.ctx.d, bundle.quot + bundle.sub)
    if res is None:
        return BWBResult(True)
    return BWBResult(False, *res)


def cohomology_dims(bundle: HomogeneousBundle) -> dict:
    """Nonzero cohomology as {degree: dimension}; empty when all vanish."""
    res = bwb(bundle)
    if res.vanishes:
        return {}
    return {res.degree: weyl_dim(res.gl_weight, bundle.ctx.d)}


def euler_char(bundle: HomogeneousBundle) -> int:
    """Exact Euler characteristic: the alternating sum of the cohomology
    dimensions."""
    return sum((-1) ** i * v for i, v in cohomology_dims(bundle).items())


def _window_row(mu: tuple, width: int, k: int) -> Optional[int]:
    """Smallest j with j - 1 <= mu_j <= width + j - 1 and mu_j != j + k - 1,
    reading row len(mu) + 1 as 0, or None.  At k = 0: j <= mu_j."""
    for j in range(1, len(mu) + 2):
        mj = part(mu, j)
        if j - 1 <= mj <= width + j - 1 and mj != j + k - 1:
            return j
    return None


def vanishes_sub_condition(mu, n: int) -> Optional[int]:
    """Smallest j with j <= mu_j <= n + j - 1, or None.

    When some j qualifies, S_mu(A) on any G(d, n) has no cohomology.
    """
    mu = as_weight(mu)
    if mu and mu[-1] < 0:
        raise ValueError(f"expected a partition, got {mu}")
    return _window_row(mu, n, 0)


def vanishes_quot_dual_condition(nu, d: int, n: int) -> Optional[int]:
    """Smallest j with j <= nu_j <= d - n + j - 1, or None.

    When some j qualifies, S_nu(B dual) on G(d, n) has no cohomology.
    """
    nu = as_weight(nu)
    if nu and nu[-1] < 0:
        raise ValueError(f"expected a partition, got {nu}")
    if len(nu) > n:
        raise ValueError(f"{nu} has more than n={n} rows")
    return _window_row(nu, d - n, 0)


def vanishes_plus_condition(mu, n: int, k: int) -> Optional[int]:
    """Smallest j with j - 1 <= mu_j <= n + j - 1 and mu_j != j + k - 1.

    When some j qualifies, S_mu(A) tensored with the k-th exterior power of
    the dual quotient has no cohomology.  At k = 0 this reduces to the plain
    sub-side condition.
    """
    mu = as_weight(mu)
    if mu and mu[-1] < 0:
        raise ValueError(f"expected a partition, got {mu}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return _window_row(mu, n, k)


def line_bundle_p1(t: int) -> HomogeneousBundle:
    """O(t) on the projective line presented as G(2, 1)."""
    ctx = GrassmannianContext(2, 1)
    if t >= 0:
        return HomogeneousBundle(ctx, (t,), (0,))
    return HomogeneousBundle(ctx, (0,), (-t,))


def structure_sheaf(ctx: GrassmannianContext) -> HomogeneousBundle:
    return HomogeneousBundle(ctx, (0,) * ctx.n, (0,) * ctx.sub_rank)

