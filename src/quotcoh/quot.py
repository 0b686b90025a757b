"""Cohomology of tautological sheaves on Quot schemes of the projective line.

The Quot scheme of degree-n, rank-r quotients of a split bundle on the line
embeds in a product of two Grassmannians as the zero locus of a regular
section of E = A1* . W . B2, where W is the two-dimensional space of linear
forms.  The Koszul complex of that section, tensored by the pullback sheaf
realizing the tautological bundle, resolves the sheaf on the product, and
every resolution term splits into homogeneous pieces via the Cauchy identity

    wedge^l E* = sum over |lam| = l of S_{lam^T}(A1) box S_lam(B2* + B2*),

with lam confined to 2 rank(B2) rows and rank(A1) columns.  Each piece is a
pair of single-Grassmannian bundles, so its cohomology follows from
Borel-Weil-Bott and Kunneth, and the alternating sum over l computes the
Euler characteristic of the tautological sheaf unconditionally.  When every
term in degrees l >= 1 turns out acyclic, the degeneration flag certifies
that the degree-0 term's cohomology equals the actual cohomology on Quot.

The cohomology of a term is computed factor by factor.  A Cauchy piece is
an external product F1 box F2 of a G1 bundle F1 (S_{lam^T}(A1) twisted by
the sheaf's G1 factors) and a G2 bundle F2 (the doubled expansion of
S_lam twisted by its G2 factors), so by Kunneth H(F1 box F2) is
H(F1) tensor H(F2): degrees add and dimensions multiply.  When F1 is
acyclic the product vanishes whatever F2 is, so term_profiles never
expands the G2 side of such a piece.  This is exact, not a bound: it skips
only summands whose contribution is zero.  resolution_terms still lists
every summand of a term, and term_cohomology of that list is the reference
the factored profiles are tested against.

A G2 factor whose every weight is acyclic is decided from lam alone, before
its doubled expansion, Pieri twist and Borel-Weil-Bott are built
(_g2_acyclic).  On G(d2, q2) with width = d2 - q2, S_w(B2*) with w in dual
coordinates (q2 entries) has cohomology only if every row j escapes the
window j <= w_j <= width + j - 1 (bott._window_row at k = 0).  Since w_j - j
strictly decreases, the escaping rows are a prefix 1..p with
w_j >= w_p >= width + p, then a suffix with w_j <= w_{p+1} <= p.  A weight
w of the factor comes from some gamma with
c^lam_{alpha,beta} c^gamma_{alpha,beta} != 0, alpha and beta of at most q2
rows.  Two facts bound gamma by lam.  Containment puts alpha and beta inside
lam, and Weyl's inequality gamma_{i+k-1} <= alpha_i + beta_k (Fulton,
Bull. AMS 37, 2000) gives gamma_j <= lam_i + lam_{j+1-i}.  Dominance
(Fulton, *Young Tableaux*, ch. 5) gives alpha u beta <| lam for the union of
the parts and gamma <| alpha + beta, so gamma_1 + ... + gamma_j is at most
(alpha + beta)_1 + ... + (alpha + beta)_j, a sum of 2j parts of alpha u
beta, hence at most P_j = lam_1 + ... + lam_{2j}; and gamma_j <= P_j // j.
Neither bound implies the other: for lam = (9) Weyl gives gamma_3 <= 0 and
dominance only 3, for lam = (4, 4, 1, 1) at j = 2 dominance gives 5 and
Weyl 8.  So

    gamma_j <= min(P_j // j, lam_i + lam_{j+1-i} for 1 <= i <= j),

taken weakly decreasing in j, and gamma_1 + ... + gamma_p <= P_p.  The
Pieri twist then moves each entry by a bounded amount: wedge^k B lowers it
by at most 1 per factor, the symmetric power by at most sum(ks) in all, and
wedge^k B2* raises it by at most 1 per factor, up = len(ks) in all; so
-down <= w_j <= gamma_j + up, and the first p rows of w sum to at most
P_p + p * up.  The size is exact: |w| = |lam| - sum(ks) for wedge and sym,
|lam| + sum(ks) for dual.  If for no p the first p rows can sum to
p * (width + p) and |w| fits between the least and the greatest sum the
rows allow (the first p rows within that prefix bound, the others at most
p and at least -down), no weight of the factor escapes, and its cohomology
is zero.  This is exact too: it uses only containment, Weyl's inequality,
dominance, sizes, row counts and Pieri shifts, never the index
propositions that verify checks, and skips only factors whose
contribution is zero.  The converse is not claimed: the bound is only a
sufficient condition for acyclicity.  On the benchmark's sweep and the
large series and cohomology cases every factor it lets through has
cohomology; on the test grid of G2 factors it lets through 268 acyclic
ones of 17,500, which the expansion then decides.

Every sheaf resolved on one embedding meets the same Cauchy pieces, and
its twist touches only the G1 side, the G2 side or both.  So the factor
cohomology is memoized on the EmbeddingData itself, keyed by the twist of
one side, (functor, ks) over that side's factors of positive degree (the
identity twist when there are none).  It holds two kinds of entry:

* per G1 twist: for every term ell, the live pieces, those whose G1 factor
  is not acyclic, each as lam with its G1 {degree: dim} items;
* per (G2 twist, lam): the G2 factor's {degree: dim} items.

Only the Kunneth convolution of the two is done per sheaf.  The memo is
exact: an entry depends on nothing but the embedding, the side's twist
and lam, if any, which its scope and key fix, so it is the very integer
table a sheaf would build for itself, whichever sheaf first asked for it.
Degree-0 factors are trivial bundles and leave the key, so the structure
sheaf shares its pieces with every sheaf twisted on the other side only.
The memo lives on the embedding and is freed with it; it takes no part in
the embedding's equality, hash or repr.
"""

from dataclasses import dataclass, field
from operator import add
from typing import Optional

from .bott import (
    GrassmannianContext,
    HomogeneousBundle,
    bwb_weight,
    cohomology_dims,
)
from .partitions import (
    binom,
    negate_reverse,
    pad,
    weyl_dim,
)
from .schur import cauchy_wedge, double_bundle_expand, pieri_twist

G1 = "G1"
G2 = "G2"


@dataclass(frozen=True)
class EmbeddingData:
    """Numerical data of the two-Grassmannian embedding.

    splitting lists the degrees of the summands of the bundle being
    quotiented (all zero for the trivial bundle), n and r are the degree and
    rank of the quotients, and m is the twist; sections of twists m-1 and m
    span the two factor Grassmannians.
    """

    N: int
    splitting: tuple
    n: int
    r: int
    m: int
    d1: int = field(init=False)
    d2: int = field(init=False)
    q1: int = field(init=False)
    q2: int = field(init=False)
    rank_e: int = field(init=False)
    # The memo of piece cohomology (see the module docstring).
    _pieces: dict = field(init=False, default_factory=dict, compare=False,
                          repr=False)

    def __post_init__(self):
        splitting = tuple(sorted((int(a) for a in self.splitting),
                                 reverse=True))
        object.__setattr__(self, "splitting", splitting)
        if self.N < 1:
            raise ValueError(f"need N >= 1, got N={self.N}")
        if len(splitting) != self.N:
            raise ValueError("splitting must list one degree per summand")
        if not 0 <= self.r <= self.N - 1:
            raise ValueError(f"need 0 <= r <= N-1, got r={self.r}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        deg = sum(splitting)
        min_m = self.n + (self.N - 1) * splitting[0] - deg
        if self.m < min_m:
            raise ValueError(f"twist m={self.m} too small; the embedding "
                             f"needs m >= {min_m}")
        d1 = deg + self.N * self.m
        d2 = deg + self.N * (self.m + 1)
        q1 = self.n + self.r * self.m
        q2 = self.n + self.r * (self.m + 1)
        if not (0 <= q1 <= d1 and 0 <= q2 <= d2):
            raise ValueError("degenerate embedding: quotient ranks exceed "
                             "section space dimensions")
        rank_e = (d1 - q1) * 2 * q2
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "rank_e", rank_e)
        if all(a == 0 for a in splitting):
            # The section is regular, so the rank of E must equal the
            # codimension of the Quot scheme in the ambient product.
            ambient = q1 * (d1 - q1) + q2 * (d2 - q2)
            quot_dim = self.N * self.n + self.r * (self.N - self.r)
            if rank_e != ambient - quot_dim:
                raise AssertionError(
                    f"codimension check failed: rank E = {rank_e}, ambient "
                    f"dim {ambient}, Quot dim {quot_dim}")

    @property
    def ctx1(self) -> GrassmannianContext:
        return GrassmannianContext(self.d1, self.q1)

    @property
    def ctx2(self) -> GrassmannianContext:
        return GrassmannianContext(self.d2, self.q2)

    def quotient_rank(self, side: str) -> int:
        return self.q1 if side == G1 else self.q2

    def section_dim(self, side: str) -> int:
        """Dimension of the section space spanning the given side's
        Grassmannian: h^0 of the bundle twisted by m - 1 (G1) or m (G2),
        sum(splitting) + N (deg L + 1) for the line bundle L of that twist."""
        return self.d1 if side == G1 else self.d2

    def twist_degree(self, side: str) -> int:
        """Degree of the line bundle realized by the tautological quotient
        on the given side."""
        return self.m - 1 if side == G1 else self.m


def embedding_data(N: int, splitting, n: int, r: int, m: int) -> EmbeddingData:
    """Build and validate the embedding data; splitting=None means the
    trivial bundle of rank N."""
    if splitting is None:
        splitting = (0,) * N
    return EmbeddingData(N, tuple(splitting), n, r, m)


@dataclass(frozen=True)
class TautologicalSheaf:
    """A tautological sheaf to resolve: one exterior or symmetric power, or
    a product of dualized exterior powers.

    Each degree k comes with the side naming the twist that realizes the
    underlying line bundle: G2 for degree m, G1 for degree m - 1.
    """

    functor: str  # "wedge" | "sym" | "dual"
    ks: tuple
    sides: tuple

    def __post_init__(self):
        if self.functor not in ("wedge", "sym", "dual"):
            raise ValueError(f"unknown functor {self.functor!r}")
        ks = tuple(int(k) for k in self.ks)
        sides = tuple(self.sides)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "sides", sides)
        if len(ks) != len(sides):
            raise ValueError("each degree needs a side")
        if any(s not in (G1, G2) for s in sides):
            raise ValueError("sides must be G1 or G2")
        if self.functor in ("wedge", "sym") and len(ks) != 1:
            raise ValueError("wedge and sym take a single degree")
        if any(k < 0 for k in ks):
            raise ValueError("degrees must be nonnegative")

    def describe(self) -> str:
        if self.functor == "dual":
            inner = ", ".join(f"{k}@{s}" for k, s in zip(self.ks, self.sides))
            return f"dual-wedge product [{inner}]"
        return f"{self.functor}^{self.ks[0]} via {self.sides[0]}"


def wedge_power(k: int, side: str = G2) -> TautologicalSheaf:
    return TautologicalSheaf("wedge", (k,), (side,))


def sym_power(k: int, side: str = G2) -> TautologicalSheaf:
    return TautologicalSheaf("sym", (k,), (side,))


def dual_wedge_product(factors) -> TautologicalSheaf:
    factors = tuple(factors)
    return TautologicalSheaf("dual", tuple(k for k, _ in factors),
                             tuple(s for _, s in factors))


def power_rank(functor: str, dim: int, k: int) -> int:
    """Dimension of the k-th symmetric power (functor "sym") or exterior
    power (any other functor) of a dim-dimensional space."""
    if functor == "sym":
        return binom(dim + k - 1, k) if k else 1
    return binom(dim, k)


def sheaf_rank(data: EmbeddingData, sheaf: TautologicalSheaf) -> int:
    """Rank of the twisting sheaf on the ambient product."""
    total = 1
    for k, side in zip(sheaf.ks, sheaf.sides):
        total *= power_rank(sheaf.functor, data.quotient_rank(side), k)
    return total


def _validate_sheaf(data: EmbeddingData, sheaf: TautologicalSheaf):
    for k, side in zip(sheaf.ks, sheaf.sides):
        q = data.quotient_rank(side)
        if sheaf.functor in ("wedge", "dual") and k > q:
            raise ValueError(
                f"k={k} exceeds the rank {q} of the side-{side} quotient")
        if sheaf.functor == "sym" and k > 0 and q == 0:
            raise ValueError("symmetric power of a rank-0 bundle")


# The twist of a side with no factors: pieri_twist with no degrees leaves
# every weight as it is, whatever the functor.
_IDENTITY = ("wedge", ())


def _twist(sheaf: TautologicalSheaf, side: str) -> tuple:
    """The sheaf's twist on one side, as (functor, ks): the degrees of the
    factors whose twist is realized there.  A degree-0 factor is the trivial
    bundle, whose Pieri twist leaves every weight as it is, so it is left
    out, and a side left with no factors gets the identity twist."""
    ks = tuple(k for k, s in zip(sheaf.ks, sheaf.sides) if s == side and k)
    return (sheaf.functor, ks) if ks else _IDENTITY


def _quotient_weights(dual: dict, q: int, functor: str, ks: tuple) -> dict:
    """The dual-coordinate weights dual of a rank-q quotient twisted by
    (functor, ks), as {quotient weight: multiplicity} in ordinary
    coordinates.  On G1 dual is {(): 1}, so the twist is the whole weight;
    on G2 it is the doubled expansion of S_lam(B2* + B2*)."""
    twisted = pieri_twist(dual, q, functor, ks)
    return {negate_reverse(w): m for w, m in twisted.items()}


@dataclass(frozen=True)
class ResolutionTerm:
    ell: int
    summands: tuple  # of (HomogeneousBundle, HomogeneousBundle, multiplicity)

    def total_rank(self) -> int:
        return sum(m * b1.rank() * b2.rank() for b1, b2, m in self.summands)


def resolution_terms(data: EmbeddingData, sheaf: TautologicalSheaf,
                     ell: int) -> ResolutionTerm:
    """The degree-ell term of the twisted Koszul resolution, split into
    homogeneous summands over the two Grassmannians.  This is the reference
    the factored profiles are tested against, so it reads no memo."""
    if not 0 <= ell <= data.rank_e:
        raise ValueError(f"ell={ell} outside 0..{data.rank_e}")
    _validate_sheaf(data, sheaf)
    ctx1, ctx2 = data.ctx1, data.ctx2
    sub_len = data.d1 - data.q1
    g1_quots = _quotient_weights({(): 1}, data.q1, *_twist(sheaf, G1))
    twist2 = _twist(sheaf, G2)
    zeros2 = (0,) * (data.d2 - data.q2)
    acc: dict = {}
    for lam_t, lam in cauchy_wedge(ell, sub_len, 2 * data.q2):
        sub1 = pad(lam_t, sub_len)
        g1_bundles = [
            (HomogeneousBundle(ctx1, w, sub1), m) for w, m in g1_quots.items()
        ]
        g2_dual = double_bundle_expand(lam, data.q2)
        for w2, m2 in _quotient_weights(g2_dual, data.q2, *twist2).items():
            b2 = HomogeneousBundle(ctx2, w2, zeros2)
            for b1, m1 in g1_bundles:
                key = (b1, b2)
                acc[key] = acc.get(key, 0) + m1 * m2
    ordered = sorted(
        acc.items(),
        key=lambda kv: (kv[0][0].quot, kv[0][0].sub, kv[0][1].quot),
        reverse=True,
    )
    return ResolutionTerm(ell, tuple((b1, b2, m) for (b1, b2), m in ordered))


@dataclass(frozen=True)
class CohomologyProfile:
    """Cohomology dimensions by degree, with the alternating sum."""

    dims: tuple  # of (degree, dimension), increasing degrees

    @property
    def chi(self) -> int:
        return sum((-1) ** i * d for i, d in self.dims)

    @property
    def is_zero(self) -> bool:
        return not self.dims


def term_cohomology(term: ResolutionTerm) -> CohomologyProfile:
    """Kunneth: each summand contributes the product of its two
    single-Grassmannian groups in the sum of the degrees."""
    dims: dict = {}
    for b1, b2, mult in term.summands:
        for i1, n1 in cohomology_dims(b1).items():
            for i2, n2 in cohomology_dims(b2).items():
                dims[i1 + i2] = dims.get(i1 + i2, 0) + mult * n1 * n2
    return CohomologyProfile(tuple(sorted(dims.items())))


def _factor_dims(d: int, quots, sub: tuple) -> dict:
    """{degree: dimension} of the sum of mult * S_w(B) . S_sub(A) over the
    (w, mult) pairs in quots, on a Grassmannian of d-dimensional space."""
    dims: dict = {}
    for w, mult in quots:
        res = bwb_weight(d, w + sub)
        if res is not None:
            degree, gl = res
            dims[degree] = dims.get(degree, 0) + mult * weyl_dim(gl, d)
    return dims


def _g1_live_pieces(data: EmbeddingData, functor: str, ks: tuple) -> tuple:
    """For each term ell, the Cauchy pieces whose G1 factor, S_{lam^T}(A1)
    twisted by (functor, ks), is not acyclic, as (lam, G1 {degree: dim}
    items).  Memoized on the embedding."""
    key = (G1, functor, ks)
    live = data._pieces.get(key)
    if live is None:
        sub_len = data.d1 - data.q1
        quots = _quotient_weights({(): 1}, data.q1, functor, ks).items()
        live = []
        for ell in range(data.rank_e + 1):
            pieces = []
            for lam_t, lam in cauchy_wedge(ell, sub_len, 2 * data.q2):
                dims1 = _factor_dims(data.d1, quots, pad(lam_t, sub_len))
                if dims1:
                    pieces.append((lam, tuple(dims1.items())))
            live.append(tuple(pieces))
        live = data._pieces[key] = tuple(live)
    return live


def _g2_acyclic(lam: tuple, q: int, width: int, functor: str,
                ks: tuple) -> bool:
    """True when S_lam(B* + B*) twisted by (functor, ks) is acyclic on the
    Grassmannian of rank-q quotients of (q + width)-dimensional space, read
    off lam without expanding it.  False means only that the bounds admit a
    weight with cohomology (see the module docstring)."""
    boxes = sum(lam)
    if functor == "dual":
        down, up, total = 0, len(ks), boxes + sum(ks)
    else:
        down = len(ks) if functor == "wedge" else sum(ks)
        up, total = 0, boxes - sum(ks)
    # caps[j - 1] bounds w_j and reach[j] bounds w_1 + ... + w_j.  With
    # top = lam_1 + ... + lam_{2j}, gamma_j is at most lam_i + lam_{j+1-i}
    # (Weyl) and top // j (dominance), kept weakly decreasing, and
    # gamma_1 + ... + gamma_j is at most top; the Pieri twist then raises
    # each row by at most up.
    rows = lam + (0,) * (2 * q)
    caps, reach = [], [0]
    cap, top = boxes, 0
    for j in range(1, q + 1):
        top += rows[2 * j - 2] + rows[2 * j - 1]
        cap = min(cap, top // j, min(map(add, rows[:j], rows[j - 1::-1])))
        caps.append(cap + up)
        reach.append(min(reach[-1] + cap + up, top + j * up))
    # p rows above the window, each at least width + p, and q - p rows
    # below it, each at most p and at least -down.
    for p in range(q + 1):
        if p and caps[p - 1] < width + p:
            break
        if reach[p] < p * (width + p):
            continue
        low = p * (width + p) - (q - p) * down
        high = reach[p] + sum(min(p, c) for c in caps[p:])
        if low <= total <= high:
            return False
    return True


def _g2_piece(data: EmbeddingData, functor: str, ks: tuple,
              lam: tuple) -> tuple:
    """The G2 factor of the Cauchy piece lam twisted by (functor, ks), as
    {degree: dim} items; () without expanding lam when _g2_acyclic rules
    it out.  Memoized on the embedding."""
    key = (G2, functor, ks, lam)
    dims2 = data._pieces.get(key)
    if dims2 is None:
        dims2 = ()
        if not _g2_acyclic(lam, data.q2, data.d2 - data.q2, functor, ks):
            zeros2 = (0,) * (data.d2 - data.q2)
            quots = _quotient_weights(double_bundle_expand(lam, data.q2),
                                      data.q2, functor, ks).items()
            dims2 = tuple(_factor_dims(data.d2, quots, zeros2).items())
        data._pieces[key] = dims2
    return dims2


def term_profiles(data: EmbeddingData, sheaf: TautologicalSheaf):
    """Yield (ell, CohomologyProfile) for every term of the resolution.

    Each profile equals term_cohomology(resolution_terms(data, sheaf, ell)),
    computed by factored Kunneth (see the module docstring).  The factor
    cohomology of the Cauchy pieces is read from the embedding's memo,
    filled on first use: every term's live pieces with their G1 factors
    per G1 twist, the G2 factor per (G2 twist, lam).  Only their
    convolution is done per sheaf.  Every weight is a padded Cauchy
    transpose, a zero weight or a Pieri output, valid by construction, so
    none is checked here; only the sheaf is, at the entry.
    """
    _validate_sheaf(data, sheaf)
    twist2 = _twist(sheaf, G2)
    for ell, live in enumerate(_g1_live_pieces(data, *_twist(sheaf, G1))):
        dims: dict = {}
        for lam, dims1 in live:
            dims2 = _g2_piece(data, *twist2, lam)
            for i1, n1 in dims1:
                for i2, n2 in dims2:
                    dims[i1 + i2] = dims.get(i1 + i2, 0) + n1 * n2
        yield ell, CohomologyProfile(tuple(sorted(dims.items())))


@dataclass(frozen=True)
class QuotCohomology:
    """Outcome of pushing a tautological sheaf through the resolution.

    chi is always valid: the Euler characteristic is additive along the
    resolution.  dims reports actual cohomology of the sheaf on Quot and is
    only available when the degeneration flag certifies that every term in
    degrees >= 1 is acyclic.
    """

    chi: int
    degenerate: bool
    dims: Optional[tuple]
    per_term: tuple  # of (ell, CohomologyProfile)


def quot_cohomology(data: EmbeddingData,
                    sheaf: TautologicalSheaf) -> QuotCohomology:
    """Stream the resolution term by term and aggregate."""
    chi = 0
    degenerate = True
    term0: Optional[CohomologyProfile] = None
    per_term = []
    for ell, profile in term_profiles(data, sheaf):
        per_term.append((ell, profile))
        chi += (-1) ** ell * profile.chi
        if ell == 0:
            term0 = profile
        elif not profile.is_zero:
            degenerate = False
    dims = term0.dims if degenerate else None
    return QuotCohomology(chi, degenerate, dims, tuple(per_term))


@dataclass(frozen=True)
class TheoremReport:
    which: str
    sheaf: TautologicalSheaf
    expected_h0: int
    computed: QuotCohomology
    verified: bool


def _check_theorem_c(data: EmbeddingData, ks: tuple, sides: tuple):
    """Raise unless the dualized product with these degrees and sides meets
    Theorem C's hypotheses."""
    if not ks or all(k == 0 for k in ks):
        raise ValueError("at least one degree must be positive")
    if len(ks) > data.N - 1:
        raise ValueError(f"at most N-1={data.N - 1} factors allowed")
    if sides.count(G1) > 1:
        raise ValueError("at most one factor may use the lower twist")
    if data.m < data.n:
        raise ValueError("need deg M = m >= n")


_THEOREM_FUNCTORS = {"A": "wedge", "B": "sym", "C": "dual"}


def verify_theorem(data: EmbeddingData, which: str, ks, sides=None) -> TheoremReport:
    """Check one of the three global-sections statements on given data.

    which = "A": sections of an exterior power are the exterior power of the
    twist's section space and higher cohomology vanishes; "B": the same for
    symmetric powers; "C": a product of dualized exterior powers, not all
    trivial, has no cohomology at all.  The theorems hold under the
    hypotheses of the per-term propositions (check_proposition_hypotheses:
    r = 0, exterior degrees at most the quotient rank, deg L >= n >= k for
    B, Theorem C's factor rules); A also needs deg L >= n.  sides defaults
    to all G2.
    """
    if which not in _THEOREM_FUNCTORS:
        raise ValueError(f"unknown theorem {which!r}")
    ks = tuple(ks)
    sheaf = TautologicalSheaf(_THEOREM_FUNCTORS[which], ks,
                              (G2,) * len(ks) if sides is None else sides)
    check_proposition_hypotheses(data, sheaf)
    expected = 0
    if which != "C":
        (k,), (side,) = sheaf.ks, sheaf.sides
        deg_l = data.twist_degree(side)
        if which == "A" and deg_l < data.n:
            raise ValueError(f"need deg L >= n, got deg L = {deg_l}")
        expected = power_rank(sheaf.functor, data.section_dim(side), k)
    computed = quot_cohomology(data, sheaf)
    # dims is None unless the resolution degenerates, so this is exact.
    want = ((0, expected),) if expected else ()
    return TheoremReport(which, sheaf, expected, computed,
                         computed.dims == want)


@dataclass(frozen=True)
class PropositionReport:
    """Per-degree acyclicity table for one resolution."""

    sheaf: TautologicalSheaf
    rows: tuple  # of (ell, CohomologyProfile, ok)
    ok: bool


def check_proposition_hypotheses(data: EmbeddingData,
                                 sheaf: TautologicalSheaf):
    """Raise unless verify_resolution_propositions applies to the sheaf on
    this embedding, without resolving anything."""
    if data.r != 0:
        raise ValueError("per-term certification is stated for r = 0")
    _validate_sheaf(data, sheaf)
    if sheaf.functor == "sym":
        k, deg_l = sheaf.ks[0], data.twist_degree(sheaf.sides[0])
        if not deg_l >= data.n >= k:
            raise ValueError(f"symmetric case needs deg L >= n >= k, got "
                             f"deg L = {deg_l}, n = {data.n}, k = {k}")
    elif sheaf.functor == "dual":
        _check_theorem_c(data, sheaf.ks, sheaf.sides)


def verify_resolution_propositions(data: EmbeddingData,
                                   sheaf: TautologicalSheaf) -> PropositionReport:
    """Certify the per-term vanishing pattern of one resolution.

    Exterior and symmetric twists must be acyclic in degrees >= 1 with the
    degree-0 term concentrated in cohomological degree 0; dualized products
    must be acyclic everywhere, and are held to Theorem C's hypotheses.
    """
    check_proposition_hypotheses(data, sheaf)
    rows = []
    for ell, profile in term_profiles(data, sheaf):
        if sheaf.functor == "dual" or ell >= 1:
            ok = profile.is_zero
        else:
            ok = all(i == 0 for i, _ in profile.dims)
        rows.append((ell, profile, ok))
    return PropositionReport(sheaf, tuple(rows), all(r[2] for r in rows))


@dataclass(frozen=True)
class ConjectureReport:
    which: str
    ks: tuple
    deg_ls: tuple
    predicted: int
    computed: int
    bound: int
    verified: bool


def _side_for_degree(data: EmbeddingData, deg_l: int) -> str:
    if deg_l == data.m:
        return G2
    if deg_l == data.m - 1:
        return G1
    raise ValueError(
        f"deg L = {deg_l} is not realizable in the twist-{data.m} embedding; "
        f"only degrees {data.m - 1} and {data.m} are")


def check_conjecture(data: EmbeddingData, which: str, ks, deg_ls) -> ConjectureReport:
    """Compare a resolution Euler characteristic against the conjectured
    binomial closed form for positive quotient rank.

    wedge/sym take a single degree k <= n + r(a+1) where n = (N-r)a + b;
    dual takes up to N-r-1 degrees with positive total at most
    n + (N-r)(a+1) where n = ar + b.  Line-bundle degrees must be m-1 or m.
    """
    if data.r < 1:
        raise ValueError("the conjectures concern positive quotient rank")
    if which not in ("wedge", "sym", "dual"):
        raise ValueError(f"unknown conjecture {which!r}")
    ks = tuple(ks)
    deg_ls = tuple(int(d) for d in deg_ls)
    if len(ks) != len(deg_ls):
        raise ValueError("each degree k needs a line bundle degree")
    sheaf = TautologicalSheaf(which, ks, tuple(_side_for_degree(data, d)
                                               for d in deg_ls))
    ks = sheaf.ks
    if which == "dual":
        if not 1 <= len(ks) <= data.N - data.r - 1:
            raise ValueError(
                f"need between 1 and N-r-1={data.N - data.r - 1} factors")
        a = data.n // data.r
        bound = data.n + (data.N - data.r) * (a + 1)
        if not 0 < sum(ks) <= bound:
            raise ValueError(f"total degree {sum(ks)} outside the stated "
                             f"range 1..{bound}")
        predicted = 0
    else:
        a = data.n // (data.N - data.r)
        bound = data.n + data.r * (a + 1)
        if ks[0] > bound:
            raise ValueError(f"k={ks[0]} exceeds the stated bound {bound}")
        predicted = power_rank(which, data.section_dim(sheaf.sides[0]),
                               ks[0])
    computed = quot_cohomology(data, sheaf).chi
    return ConjectureReport(which, ks, deg_ls, predicted, computed,
                            bound, predicted == computed)
