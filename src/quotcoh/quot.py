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
acyclic, or the G2 test below proves F2 acyclic, the product vanishes, and
term_profiles builds neither side of the piece.  This skips only summands
whose contribution is zero.  resolution_terms still lists every summand of a term, and
term_cohomology of that list is the reference the factored profiles are
tested against.

The live pieces, those whose G1 factor has cohomology, are built without
listing the others (_live_pieces).  On G1 = G(d1, q1), with s = d1 - q1
the rank of A1, the G1 factor of the piece lam under a quotient weight w
of the G1 twist is S_w(B1) . S_mu(A1), mu = lam^T padded to s rows.
Borel-Weil-Bott reads the concatenated weight (w, mu) plus the staircase
rho = (d1 - 1, ..., 1, 0): its entries are w_i + d1 - i for 1 <= i <= q1
and mu_j + s - j for 1 <= j <= s.  Each half strictly decreases, so an
entry can repeat only across the halves, where mu_j + s - j = w_i + d1 - i
means mu_j - j = w_i - i + q1.  The factor therefore has cohomology iff
for every row j = 1..s

    mu_j - j avoids F_w = {w_i - i + q1 : 1 <= i <= q1},

rows past len(mu) read as 0.  The rule is one per row, so a walk that
builds mu row by row, each row at most 2 q2 and at most the row above,
skips the forbidden values, and may end mu at row j only when every later
zero row is allowed; it reaches only live mu, of every size ell at once.
A twist with several quotient weights takes one walk per weight and the
union of their outputs.  Under the identity twist
w = 0 and F_w = {0, ..., q1 - 1}, which is Bott's theorem for S_mu(A1)
(Weyman, *Cohomology of Vector Bundles and Syzygies*, 2003, ch. 4), the
window of bott._window_row at width q1: a live mu has p rows of at least
q1 + p and every other row at most p.

A G2 factor whose every weight is acyclic is decided from lam alone, before
its doubled expansion, Pieri twist and Borel-Weil-Bott are built.  On
G(d2, q2) with width = d2 - q2, S_w(B2*) with w in dual coordinates (q2
entries) has cohomology only if every row j escapes the window
j <= w_j <= width + j - 1 (bott._window_row at k = 0).  Since w_j - j
strictly decreases, the escaping rows are a prefix 1..p with
w_j >= w_p >= width + p, then a suffix with w_j <= w_{p+1} <= p.  A weight
w of the factor comes from some gamma with
c^lam_{alpha,beta} c^gamma_{alpha,beta} != 0, alpha and beta of at most q2
rows.  Dominance (Fulton, *Young Tableaux*, ch. 5) gives alpha u beta <| lam
for the union of the parts and gamma <| alpha + beta, so
gamma_1 + ... + gamma_p is at most (alpha + beta)_1 + ... + (alpha + beta)_p,
a sum of 2p parts of alpha u beta, hence at most
P_p = lam_1 + ... + lam_{2p}.

The Pieri twist then moves the entries by bounded amounts.  wedge^k B
lowers k entries by 1, and the symmetric power lowers entries by sum(ks)
in all, so every entry of w is at least -down, with down = len(ks) for
wedge and sum(ks) for sym.  Each factor wedge^k B2* of a dual twist raises
k distinct entries by 1, so the first p rows rise by at most
rise_p = min(p * len(ks), sum(ks)) and no entry falls (down = 0).  The
wedge and sym twists take rise_p = 0: their lowering earns the prefix no
credit.  So the first p rows of w sum to at most P_p + rise_p.  The size
is exact: |w| = |lam| + shift, with shift = -sum(ks) for wedge and sym and
sum(ks) for dual (_g2_bound).  A weight whose first p rows escape above
the window, each at least width + p, and whose other q2 - p rows escape
below it, each at most p and at least -down, therefore needs

    (A) p * (width + p) <= P_p + rise_p,
    (B) p * (width + p) - (q2 - p) * down <= |lam| + shift,
    (C) |lam| - P_p + shift <= rise_p + (q2 - p) * p.

If no p = 0..q2 meets all three, no weight escapes and the factor is
acyclic.  The test reads lam only through |lam| and P_1..P_q2, and uses
only dominance, sizes, row counts and Pieri shifts.  It is sufficient, not
necessary: on the test grid of G2 factors it lets through 225 acyclic ones
of 17,500, which the expansion then decides.

The walk runs the test as it builds mu (_g2_admits).  Column j of lam
meets its first 2p rows in min(mu_j, 2p) boxes, so P_p = sum_j min(mu_j, 2p)
is a running sum of the rows chosen so far, and so is |lam| = P_q2, since
no row of mu exceeds 2 q2.  Before
the walk takes v as row j, with rest = s - j rows after it, each at most
v, it bounds every completion of the rows so far, v included: P_p grows by
at most rest * min(v, 2p), since a later row u adds min(u, 2p) <=
min(v, 2p); |lam| grows by at most rest * v; and the tail |lam| - P_p =
sum_j max(mu_j - 2p, 0) never falls.  So (A) failing with
P_p + rest * min(v, 2p), (B) with |lam| + rest * v or (C) with the
current tail fails on every completion, and when for every p one of them
fails, the branch is cut.  The bounds ignore the G1 rule, so a cut removes
only pieces the test rejects.  At rest = 0 each bound is the value itself
and the cut is the test on lam, which the walk runs wherever mu may end; so
it emits exactly the pieces live on G1 and admitted on G2.

The term profiles are cached in _fill_profiles, one bounded lru_cache
keyed by the embedding's value and the pair of twists, each side's
(functor, ks) over its factors of positive degree (the identity twist when
there are none; sym^1 reads as wedge^1).  The value is {ell:
CohomologyProfile} for the terms with cohomology, filled in one pass: the
walk, Borel-Weil-Bott on each piece's G1 factor, the doubled expansion,
Pieri twist and Borel-Weil-Bott of its G2 factor, and Kunneth.  A term
missing from it is acyclic and reads as one shared empty profile, so a
sheaf pays only for its few terms with cohomology.  The walk's output
depends on both twists, hence the pair key.  The key is exact: a profile
depends only on (N, splitting, n, r, m), which an EmbeddingData's equality
compares, and on the twists; so equal embeddings built apart share entries.
Records are namedtuples, equal to plain tuples with the same entries, but
every key holds an EmbeddingData in its first slot and only there, with a
(functor, ks) twist in each other slot, so tuple equality cannot mix up
two entries.
"""

from collections import namedtuple
from functools import lru_cache

from .bott import (
    GrassmannianContext,
    HomogeneousBundle,
    bwb_weight,
    cohomology_dims,
)
from .partitions import CACHE_ENTRIES, binom, negate_reverse, pad, transpose
from .schur import (
    _double_bundle_cached,
    _pieri_chain,
    _plain_twist,
    cauchy_wedge,
)

G1 = "G1"
G2 = "G2"


class EmbeddingData(namedtuple("EmbeddingData",
                               "N splitting n r m d1 d2 q1 q2 rank_e")):
    """Numerical data of the two-Grassmannian embedding.

    splitting lists the degrees of the summands of the bundle being
    quotiented (all zero for the trivial bundle), n and r are the degree and
    rank of the quotients, and m is the twist; sections of twists m-1 and m
    span the two factor Grassmannians.  d1, d2, q1, q2 and rank_e are
    derived from the first five fields.
    """

    __slots__ = ()

    def __new__(cls, N: int, splitting: tuple, n: int, r: int, m: int):
        splitting = tuple(sorted((int(a) for a in splitting), reverse=True))
        if N < 1:
            raise ValueError(f"need N >= 1, got N={N}")
        if len(splitting) != N:
            raise ValueError("splitting must list one degree per summand")
        if not 0 <= r <= N - 1:
            raise ValueError(f"need 0 <= r <= N-1, got r={r}")
        if n < 0:
            raise ValueError("n must be nonnegative")
        deg = sum(splitting)
        min_m = n + (N - 1) * splitting[0] - deg
        if m < min_m:
            raise ValueError(f"twist m={m} too small; the embedding "
                             f"needs m >= {min_m}")
        d1 = deg + N * m
        d2 = deg + N * (m + 1)
        q1 = n + r * m
        q2 = n + r * (m + 1)
        if not (0 <= q1 <= d1 and 0 <= q2 <= d2):
            raise ValueError("degenerate embedding: quotient ranks exceed "
                             "section space dimensions")
        rank_e = (d1 - q1) * 2 * q2
        if all(a == 0 for a in splitting):
            # The section is regular, so the rank of E must equal the
            # codimension of the Quot scheme in the ambient product.
            ambient = q1 * (d1 - q1) + q2 * (d2 - q2)
            quot_dim = N * n + r * (N - r)
            if rank_e != ambient - quot_dim:
                raise AssertionError(
                    f"codimension check failed: rank E = {rank_e}, ambient "
                    f"dim {ambient}, Quot dim {quot_dim}")
        return tuple.__new__(cls, (N, splitting, n, r, m, d1, d2, q1, q2,
                                   rank_e))

    def __getnewargs__(self):
        # pickle and copy rebuild an embedding from its five inputs
        return tuple(self[:5])

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


class TautologicalSheaf(namedtuple("TautologicalSheaf", "functor ks sides")):
    """A tautological sheaf to resolve: one exterior or symmetric power, or
    a product of dualized exterior powers.

    functor is "wedge", "sym" or "dual".  Each degree k comes with the side
    naming the twist that realizes the underlying line bundle: G2 for
    degree m, G1 for degree m - 1.
    """

    __slots__ = ()

    def __new__(cls, functor: str, ks: tuple, sides: tuple):
        if functor not in ("wedge", "sym", "dual"):
            raise ValueError(f"unknown functor {functor!r}")
        ks = tuple(int(k) for k in ks)
        sides = tuple(sides)
        if len(ks) != len(sides):
            raise ValueError("each degree needs a side")
        if any(s not in (G1, G2) for s in sides):
            raise ValueError("sides must be G1 or G2")
        if functor in ("wedge", "sym") and len(ks) != 1:
            raise ValueError("wedge and sym take a single degree")
        if any(k < 0 for k in ks):
            raise ValueError("degrees must be nonnegative")
        return tuple.__new__(cls, (functor, ks, sides))

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


def _twist(sheaf: TautologicalSheaf, side: str) -> tuple:
    """The sheaf's twist on one side, as (functor, ks): the degrees of the
    factors whose twist is realized there, in descending order, since the
    factors of a tensor product commute.  A degree-0 factor is the trivial
    bundle, so it is left out, and a side left with none gets the identity.
    S^1 B = wedge^1 B = B, so sym^1 reads as wedge^1.  Both rules are
    schur._plain_twist's, which _pieri_chain applies too; the twist needs
    them here as well, since it keys _fill_profiles and feeds the G2
    bound, which counts only the factors of positive degree."""
    return _plain_twist(sheaf.functor, tuple(sorted(
        (k for k, s in zip(sheaf.ks, sheaf.sides) if s == side),
        reverse=True)))


def _quotient_weights(dual, q: int, functor: str, ks: tuple) -> dict:
    """The (weight, multiplicity) pairs dual, in dual coordinates and of
    q entries each, of a rank-q quotient twisted by (functor, ks), as
    {quotient weight: multiplicity} in ordinary coordinates.  On G1 dual is
    the zero weight alone, so the twist is the whole weight; on G2 it is
    lam's stored doubled expansion.  The engine built both and checked the
    functor, so they go through schur's unchecked Pieri chain."""
    twisted = _pieri_chain(dual, q, functor, ks)
    return {negate_reverse(w): m for w, m in twisted.items()}


class ResolutionTerm(namedtuple("ResolutionTerm", "ell summands")):
    # summands: (HomogeneousBundle, HomogeneousBundle, multiplicity) triples
    __slots__ = ()

    def total_rank(self) -> int:
        return sum(m * b1.rank() * b2.rank() for b1, b2, m in self.summands)


def resolution_terms(data: EmbeddingData, sheaf: TautologicalSheaf,
                     ell: int) -> ResolutionTerm:
    """The degree-ell term of the twisted Koszul resolution, split into
    homogeneous summands over the two Grassmannians.  This is the reference
    the factored profiles are tested against, so it reads none of them."""
    if not 0 <= ell <= data.rank_e:
        raise ValueError(f"ell={ell} outside 0..{data.rank_e}")
    _validate_sheaf(data, sheaf)
    ctx1, ctx2 = data.ctx1, data.ctx2
    sub_len = data.d1 - data.q1
    g1_quots = _quotient_weights([((0,) * data.q1, 1)], data.q1,
                                 *_twist(sheaf, G1))
    twist2 = _twist(sheaf, G2)
    zeros2 = (0,) * (data.d2 - data.q2)
    acc: dict = {}
    for lam_t, lam in cauchy_wedge(ell, sub_len, 2 * data.q2):
        sub1 = pad(lam_t, sub_len)
        g1_bundles = [
            (HomogeneousBundle(ctx1, w, sub1), m) for w, m in g1_quots.items()
        ]
        g2_dual = _double_bundle_cached(lam, data.q2)
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


class CohomologyProfile(namedtuple("CohomologyProfile", "dims")):
    """Cohomology dimensions by degree, with the alternating sum: dims is a
    tuple of (degree, dimension) pairs by increasing degree."""

    __slots__ = ()

    @property
    def chi(self) -> int:
        return sum((-1) ** i * d for i, d in self.dims)

    @property
    def is_zero(self) -> bool:
        return not self.dims


# The profile of every term without cohomology.
_ACYCLIC = CohomologyProfile(())


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
            degree, _, dim = res
            dims[degree] = dims.get(degree, 0) + mult * dim
    return dims


def _g2_bound(q: int, width: int, functor: str, ks: tuple) -> tuple:
    """What the G2 test reads off the twist (functor, ks) on the
    Grassmannian of rank-q quotients of (q + width)-dimensional space:
    (q, width, down, up, rise, shift), with every entry of a twisted weight
    at least -down, the first p rows rising by at most min(p * up, rise) and
    |w| = |lam| + shift (see the module docstring)."""
    if functor == "dual":
        return q, width, 0, len(ks), sum(ks), sum(ks)
    down = len(ks) if functor == "wedge" else sum(ks)
    return q, width, down, 0, 0, -sum(ks)


def _g2_admits(bound, tops, rest, v) -> bool:
    """False when no completion of mu's rows so far (with tops[p] = P_p,
    so tops[-1] = |lam|) by up to rest more rows of at most v can give a
    G2 factor the bound admits.  At rest = 0 it is the test on lam itself;
    True there means only that the bound admits a weight with cohomology
    (see the module docstring).  This is the walk's inner loop, so it
    spells out min() as conditional expressions: the builtin call costs a
    third of it."""
    q, width, down, up, rise, shift = bound
    total = tops[-1] + shift
    for p, top in enumerate(tops):
        rise_p = p * up if p * up < rise else rise
        least = p * (width + p)
        if (least - (q - p) * down <= total + rest * v
                and total - top <= rise_p + (q - p) * p
                and least <= top + rest * (v if v < 2 * p else 2 * p)
                + rise_p):
            return True
    return False


def _fill_live(out, stack, tops, largest, forbidden, zero_ok, bound):
    """Walk the rows of mu = lam^T that follow the stack, emitting into
    out[ell] every live mu the G2 test admits (see the module docstring).

    Module-level like the other walks, so no call leaves a reference
    cycle.  Rows 1..j-1 of mu are on the stack, with the running prefix
    sums tops[p] = P_p, and row j comes next; no row exceeds 2 q2, so
    tops[-1] = P_q2 counts the boxes so far.  mu may end here if rows
    j..s may all be 0 (zero_ok[j]) and the G2 test admits lam.
    Row j may take any v from largest down to 1 with v - j not forbidden,
    if some completion of the rows with v, by the rest = s - j rows after
    it, could be admitted."""
    j = len(stack) + 1
    if zero_ok[j] and _g2_admits(bound, tops, 0, 0):
        out[tops[-1]][tuple(stack)] = None
    if j == len(zero_ok) - 1:
        return
    rest = len(zero_ok) - 2 - j
    for v in range(largest, 0, -1):
        if v - j in forbidden:
            continue
        below = [top + (v if v < 2 * p else 2 * p)
                 for p, top in enumerate(tops)]
        if _g2_admits(bound, below, rest, v):
            stack.append(v)
            _fill_live(out, stack, below, v, forbidden, zero_ok, bound)
            stack.pop()


def _live_pieces(data: EmbeddingData, twist1, twist2):
    """Yield (ell, lam, G1 {degree: dim}) for the Cauchy pieces whose G1
    factor, S_{lam^T}(A1) twisted by twist1 = (functor, ks), has cohomology
    and whose G2 factor under twist2 the G2 test admits, in term order.

    One walk per quotient weight w of twist1 picks the rows of mu = lam^T
    that avoid w's forbidden values and cuts every branch no completion of
    which the G2 test admits (see the module docstring), all sizes at once;
    a mu found under several weights is kept once.  Only these mu are
    transposed and run through Borel-Weil-Bott."""
    q1, sub_len = data.q1, data.d1 - data.q1
    quots = _quotient_weights([((0,) * q1, 1)], q1, *twist1).items()
    bound = _g2_bound(data.q2, data.d2 - data.q2, *twist2)
    found = [{} for _ in range(data.rank_e + 1)]
    for w, _ in quots:
        forbidden = {x + q1 - i for i, x in enumerate(w, 1)}
        # zero_ok[j]: rows j..s of mu may all be 0.
        zero_ok = [True] * (sub_len + 2)
        for j in range(sub_len, 0, -1):
            zero_ok[j] = zero_ok[j + 1] and -j not in forbidden
        _fill_live(found, [], [0] * (data.q2 + 1), 2 * data.q2, forbidden,
                   zero_ok, bound)
    for ell, mus in enumerate(found):
        for mu in mus:
            yield ell, transpose(mu), _factor_dims(data.d1, quots,
                                                   pad(mu, sub_len))


@lru_cache(maxsize=CACHE_ENTRIES)
def _fill_profiles(data: EmbeddingData, twist1, twist2) -> dict:
    """{ell: CohomologyProfile} of the terms with cohomology under the G1
    twist twist1 and the G2 twist twist2: each live piece's G2 factor is
    expanded, twisted and run through Borel-Weil-Bott, and Kunneth sums the
    products of the two factors' dimensions by total degree."""
    q2, zeros2 = data.q2, (0,) * (data.d2 - data.q2)
    terms: dict = {}
    for ell, lam, dims1 in _live_pieces(data, twist1, twist2):
        quots2 = _quotient_weights(_double_bundle_cached(lam, q2), q2,
                                   *twist2)
        dims2 = _factor_dims(data.d2, quots2.items(), zeros2)
        dims = terms.setdefault(ell, {})
        for i1, n1 in dims1.items():
            for i2, n2 in dims2.items():
                dims[i1 + i2] = dims.get(i1 + i2, 0) + n1 * n2
    return {ell: CohomologyProfile(tuple(sorted(dims.items())))
            for ell, dims in terms.items() if dims}


def term_profiles(data: EmbeddingData, sheaf: TautologicalSheaf):
    """Yield (ell, CohomologyProfile) for every term of the resolution.

    Each profile equals term_cohomology(resolution_terms(data, sheaf, ell)),
    computed by factored Kunneth (see the module docstring) and cached per
    embedding and pair of twists; a term without cohomology yields the
    shared empty profile.  Every weight is valid by construction, so only
    the sheaf is checked.
    """
    _validate_sheaf(data, sheaf)
    profiles = _fill_profiles(data, _twist(sheaf, G1), _twist(sheaf, G2))
    for ell in range(data.rank_e + 1):
        yield ell, profiles.get(ell, _ACYCLIC)


class QuotCohomology(namedtuple("QuotCohomology",
                                "chi degenerate dims per_term")):
    """Outcome of pushing a tautological sheaf through the resolution.

    chi is always valid: the Euler characteristic is additive along the
    resolution.  dims reports actual cohomology of the sheaf on Quot and is
    only available (else None) when the degeneration flag certifies that
    every term in degrees >= 1 is acyclic.  per_term holds the
    (ell, CohomologyProfile) pairs.
    """

    __slots__ = ()


def quot_cohomology(data: EmbeddingData,
                    sheaf: TautologicalSheaf) -> QuotCohomology:
    """Resolve term by term and aggregate the terms with cohomology."""
    per_term = tuple(term_profiles(data, sheaf))
    live = [(ell, p) for ell, p in per_term if p.dims]
    chi = sum((-1) ** ell * p.chi for ell, p in live)
    degenerate = all(ell == 0 for ell, _ in live)
    dims = per_term[0][1].dims if degenerate else None
    return QuotCohomology(chi, degenerate, dims, per_term)


TheoremReport = namedtuple("TheoremReport",
                           "which sheaf expected_h0 computed verified")


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


class PropositionReport(namedtuple("PropositionReport", "sheaf rows ok")):
    """Per-degree acyclicity table for one resolution: rows holds the
    (ell, CohomologyProfile, ok) triples."""

    __slots__ = ()


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


ConjectureReport = namedtuple("ConjectureReport", "which ks deg_ls "
                              "predicted computed bound verified")


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
