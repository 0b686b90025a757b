import random

import pytest
from hypothesis import given, strategies as st

from quotcoh.bott import (
    GrassmannianContext,
    HomogeneousBundle,
    bwb,
    bwb_weight,
    cohomology_dims,
    euler_char,
    vanishes_plus_condition,
    vanishes_quot_dual_condition,
    vanishes_sub_condition,
)
from quotcoh.partitions import (
    enumerate_in_box,
    negate_reverse,
    pad,
    weyl_dim,
)
from oracles import (
    bwb_oracle,
    line_bundle_p1,
    quot_dual_bundle,
    sub_bundle,
)


def structure_sheaf(ctx: GrassmannianContext) -> HomogeneousBundle:
    return HomogeneousBundle(ctx, (0,) * ctx.n, (0,) * ctx.sub_rank)


def test_context_validation():
    GrassmannianContext(4, 2)
    GrassmannianContext(3, 3)
    GrassmannianContext(3, 0)
    with pytest.raises(ValueError):
        GrassmannianContext(2, 3)


def test_bundle_validation():
    ctx = GrassmannianContext(4, 2)
    with pytest.raises(ValueError):
        HomogeneousBundle(ctx, (1,), (0, 0))
    with pytest.raises(ValueError):
        HomogeneousBundle(ctx, (0, 1), (0, 0))


def test_bwb_examples():
    # H^1 of the degree -2 line bundle on the line is one dimensional
    b = HomogeneousBundle(GrassmannianContext(2, 1), (0,), (2,))
    res = bwb(b)
    assert not res.vanishes
    assert res.degree == 1 and res.gl_weight == (1, 1)
    assert weyl_dim(res.gl_weight, 2) == 1
    assert euler_char(b) == -1

    assert bwb(HomogeneousBundle(GrassmannianContext(4, 2),
                                 (0, 0), (1, 0))).vanishes

    for d in range(1, 6):
        for n in range(0, d + 1):
            res = bwb(structure_sheaf(GrassmannianContext(d, n)))
            assert res.degree == 0 and set(res.gl_weight) == {0}


def test_euler_char_examples():
    for d in range(2, 7):
        for n in range(0, d + 1):
            assert euler_char(structure_sheaf(GrassmannianContext(d, n))) == 1
    # global sections of an exterior power of the quotient
    import math
    for d in range(2, 6):
        for n in range(1, d):
            for k in range(0, n + 1):
                ctx = GrassmannianContext(d, n)
                b = HomogeneousBundle(ctx, (1,) * k + (0,) * (n - k),
                                      (0,) * (d - n))
                assert euler_char(b) == math.comb(d, k)
                assert cohomology_dims(b) == {0: math.comb(d, k)}


def test_p1_oracle():
    for t in range(-5, 6):
        dims = cohomology_dims(line_bundle_p1(t))
        assert dims.get(0, 0) == max(t + 1, 0)
        assert dims.get(1, 0) == max(-t - 1, 0)
    # twisting both weights by the same amount leaves O(t) unchanged
    ctx = GrassmannianContext(2, 1)
    for t in range(-4, 5):
        for shift in (1, 3):
            b = HomogeneousBundle(ctx, (t + shift,), (shift,))
            assert cohomology_dims(b) == cohomology_dims(line_bundle_p1(t))


def test_degree_bounded_by_dimension():
    for d in (3, 4, 5):
        for n in range(0, d + 1):
            ctx = GrassmannianContext(d, n)
            for nu in enumerate_in_box(n, 3, 2):
                for mu in enumerate_in_box(d - n, 3, 3):
                    b = HomogeneousBundle(ctx, pad(nu, n), pad(mu, d - n))
                    res = bwb(b)
                    if not res.vanishes:
                        assert 0 <= res.degree <= ctx.dim
                        assert res.dimension == weyl_dim(res.gl_weight, d) > 0
    # random weights with negative and repeated entries: the stored
    # dimension is the Weyl dimension of the answer's weight
    rng = random.Random(23)
    live = 0
    for _ in range(400):
        d = rng.randint(1, 7)
        n = rng.randint(0, d)
        w = [rng.randint(-3, 3) for _ in range(d)]
        b = HomogeneousBundle(GrassmannianContext(d, n),
                              sorted(w[:n], reverse=True),
                              sorted(w[n:], reverse=True))
        res = bwb(b)
        if res.vanishes:
            assert res.dimension is None and cohomology_dims(b) == {}
        else:
            live += 1
            assert 0 <= res.degree <= b.ctx.dim
            assert res.dimension == weyl_dim(res.gl_weight, d) > 0
            assert cohomology_dims(b) == {res.degree: res.dimension}
    assert live > 100


@given(st.lists(st.integers(-6, 6), max_size=12), st.data())
def test_bwb_weight_matches_the_oracle(entries, data):
    # any weight, negative and repeated entries included, and the two
    # dominant blocks, quotient then sub, that every caller passes; a
    # weight given without its trailing zeros reads as the padded one
    n = data.draw(st.integers(0, len(entries)))
    blocks = (tuple(sorted(entries[:n], reverse=True))
              + tuple(sorted(entries[n:], reverse=True)))
    zeros = data.draw(st.integers(0, 4))
    for w in (tuple(entries), blocks):
        assert bwb_weight.__wrapped__(len(w), w) == bwb_oracle(len(w), w)
        d = len(w) + zeros
        assert bwb_weight.__wrapped__(d, w) == bwb_oracle(d, w + (0,) * zeros)


def test_bwb_weight_on_long_weights():
    # long weights as large twists give them: a short block and a long one
    # whose sorted weight is one long run, built from distinct shifted
    # entries, so each has cohomology until one shifted entry is repeated
    rng = random.Random(5)
    for d in (50, 200, 1000):
        for _ in range(5):
            shifted = list(range(d - 3)) + rng.sample(range(d - 3, d + 9), 3)
            rng.shuffle(shifted)
            n = rng.choice((rng.randint(0, 3), d - rng.randint(0, 3)))
            blocks = (sorted(shifted[:n], reverse=True)
                      + sorted(shifted[n:], reverse=True))
            w = tuple(s - (d - 1 - i) for i, s in enumerate(blocks))
            res = bwb_weight.__wrapped__(d, w)
            assert res is not None and res == bwb_oracle(d, w)
            i, j = rng.sample(range(d), 2)
            repeated = w[:j] + (w[i] + j - i,) + w[j + 1:]
            assert bwb_weight.__wrapped__(d, repeated) is None
            assert bwb_oracle(d, repeated) is None


def test_sub_condition_examples():
    assert vanishes_sub_condition((1, 0), 2) == 1
    assert vanishes_sub_condition((0, 0, 0), 4) is None
    assert vanishes_sub_condition((5, 1), 2) is None
    # ... and that bundle really does carry cohomology
    assert not bwb(sub_bundle(GrassmannianContext(4, 2), (5, 1))).vanishes


def test_quot_dual_condition_examples():
    assert vanishes_quot_dual_condition((1,), 4, 2) == 1
    assert vanishes_quot_dual_condition((), 4, 2) is None
    assert vanishes_quot_dual_condition((4,), 5, 2) is None
    with pytest.raises(ValueError, match="more than n=2 rows"):
        vanishes_quot_dual_condition((1, 1, 1), 5, 2)


def test_conditions_read_partitions():
    # trailing zeros do not change a partition, so they change no answer;
    # (1, 0, 0) is the partition (1), which fits G(5, 2)
    assert vanishes_quot_dual_condition((1, 0, 0), 5, 2) == 1
    for lam in enumerate_in_box(3, 4, 3) + enumerate_in_box(2, 4, 5):
        padded = lam + (0, 0)
        assert vanishes_sub_condition(padded, 2) == \
            vanishes_sub_condition(lam, 2)
        assert vanishes_quot_dual_condition(padded, 6, 3) == \
            vanishes_quot_dual_condition(lam, 6, 3)
        for k in range(3):
            assert vanishes_plus_condition(padded, 2, k) == \
                vanishes_plus_condition(lam, 2, k)
    for check in (lambda w: vanishes_sub_condition(w, 2),
                  lambda w: vanishes_quot_dual_condition(w, 5, 2),
                  lambda w: vanishes_plus_condition(w, 2, 1)):
        with pytest.raises(ValueError, match="negative part"):
            check((1, -1))
        with pytest.raises(ValueError, match="not weakly decreasing"):
            check((0, 1))
    assert not bwb(quot_dual_bundle(GrassmannianContext(5, 2),
                                    (4,))).vanishes


def test_plus_condition_examples():
    # k = 0 recovers the plain sub-side condition
    for n in (1, 2, 3):
        for mu in enumerate_in_box(4, 4, 3) + enumerate_in_box(4, 4, 4):
            assert vanishes_plus_condition(mu, n, 0) == \
                vanishes_sub_condition(mu, n)
    # mu = (k, 0, ...) survives the exclusion at j = 1
    assert vanishes_plus_condition((1,), 2, 1) is None
    assert vanishes_plus_condition((), 3, 1) == 1
    assert vanishes_plus_condition((), 3, 0) is None
    with pytest.raises(ValueError):
        vanishes_plus_condition((1,), 2, 5)


def _wedge_dual_quot_bundle(ctx, mu, k):
    # S_mu(A) tensored with the k-th exterior power of the dual quotient
    quot = (0,) * (ctx.n - k) + (-1,) * k
    return HomogeneousBundle(ctx, quot, pad(mu, ctx.sub_rank))


def test_conditions_match_bwb_exactly():
    # each closed-form condition is equivalent to actual vanishing
    for d, n in ((4, 2), (5, 2), (5, 3), (6, 2)):
        ctx = GrassmannianContext(d, n)
        for s in range(0, 8):
            for mu in enumerate_in_box(d - n, 5, s):
                cond = vanishes_sub_condition(mu, n)
                assert (cond is not None) == bwb(sub_bundle(ctx, mu)).vanishes
                for k in range(0, n + 1):
                    cond = vanishes_plus_condition(mu, n, k)
                    bundle = _wedge_dual_quot_bundle(ctx, mu, k)
                    assert (cond is not None) == bwb(bundle).vanishes, (mu, k)
            for nu in enumerate_in_box(n, 5, s):
                cond = vanishes_quot_dual_condition(nu, d, n)
                assert (cond is not None) == \
                    bwb(quot_dual_bundle(ctx, nu)).vanishes


def test_negate_reverse_duality():
    # S_nu(B dual) and S_{-nu}(B) are the same bundle
    ctx = GrassmannianContext(5, 2)
    for nu in enumerate_in_box(2, 4, 3):
        direct = HomogeneousBundle(ctx, negate_reverse(pad(nu, 2)), (0, 0, 0))
        assert cohomology_dims(direct) == \
            cohomology_dims(quot_dual_bundle(ctx, nu))
