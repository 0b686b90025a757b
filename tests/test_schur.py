import math
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from quotcoh.partitions import (
    add,
    all_in_box,
    contains,
    dominates,
    enumerate_in_box,
    pad,
    size,
    transpose,
    union,
    weyl_dim,
)
from quotcoh import cli, schur
from quotcoh.schur import (
    cauchy_wedge,
    direct_sum_expand,
    double_bundle_expand,
    lr_coefficient,
    lr_expand_tensor,
    pieri_sym,
    pieri_twist,
    pieri_wedge,
)
from oracles import doubled_schur, lr_oracle, schur_product


def small_partitions(limit):
    return [lam for s in range(limit + 1)
            for lam in enumerate_in_box(limit, limit, s)]


def test_lr_examples():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1, 1), (2, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2,), (1,), (1, 1, 1)) == 0


def test_lr_oracle_agreement():
    # every pair of total size <= 6, both the support and each coefficient
    parts = small_partitions(6)
    for a in parts:
        for b in parts:
            if size(a) + size(b) > 6:
                continue
            assert lr_expand_tensor(a, b) == schur_product(a, b, 6), (a, b)


def test_lr_symmetry_and_transpose_symmetry():
    parts = small_partitions(6)
    for a in parts:
        for b in parts:
            if size(a) + size(b) > 6:
                continue
            ta, tb = transpose(a), transpose(b)
            for g, c in lr_expand_tensor(a, b).items():
                assert lr_coefficient(b, a, g) == c
                assert lr_coefficient(ta, tb, transpose(g)) == c


def test_lr_support_facts():
    # nonzero coefficients force size additivity, containment, and the two
    # dominance comparisons
    parts = small_partitions(6)
    for a in parts:
        for b in parts:
            if size(a) + size(b) > 6:
                continue
            for g, c in lr_expand_tensor(a, b).items():
                assert c > 0
                assert size(g) == size(a) + size(b)
                assert contains(g, a) and contains(g, b)
                assert dominates(add(a, b), g)
                assert dominates(g, union(a, b))


def test_lr_expand_identity_and_dimension():
    assert lr_expand_tensor((), (3, 1)) == {(3, 1): 1}
    got = lr_expand_tensor((1,), (1,))
    assert got == {(2,): 1, (1, 1): 1}
    expansion = lr_expand_tensor((2, 1), (2, 1))
    assert len(expansion) == 7
    assert sum(expansion.values()) == 8
    for d in (4, 5, 7):
        total = sum(c * weyl_dim(pad(g, d), d) for g, c in expansion.items()
                    if len(g) <= d)
        assert total == weyl_dim(pad((2, 1), d), d) ** 2


def test_direct_sum_expand_examples():
    assert set(direct_sum_expand((1,))) == {((1,), (), 1), ((), (1,), 1)}
    assert set(direct_sum_expand((1, 1))) == {
        ((1, 1), (), 1), ((1,), (1,), 1), ((), (1, 1), 1)}
    triples = direct_sum_expand((2, 1))
    pairs = {(a, b): c for a, b, c in triples}
    assert pairs[((2,), (1,))] == 1
    assert pairs[((1, 1), (1,))] == 1
    assert ((1,), (1,)) not in pairs  # sizes cannot match
    # total dimension over a rank-(2+3) split
    total = sum(c * weyl_dim(pad(a, 2), 2) * weyl_dim(pad(b, 3), 3)
                for a, b, c in triples if len(a) <= 2 and len(b) <= 3)
    assert total == weyl_dim(pad((2, 1), 5), 5)


def test_double_bundle_expand_examples():
    assert double_bundle_expand((1,), 1) == {(1,): 2}
    assert double_bundle_expand((1,), 3) == {(1,): 2}
    assert double_bundle_expand((1, 1), 1) == {(2,): 1}
    # Sym^2 of a doubled bundle: three symmetric pieces and one exterior one
    assert double_bundle_expand((2,), 2) == {(2,): 3, (1, 1): 1}
    with pytest.raises(ValueError):
        double_bundle_expand((1, 1, 1), 1)


def test_double_bundle_dimension_identity():
    for n in (1, 2):
        for lam in small_partitions(4):
            if len(lam) > 2 * n:
                continue
            got = double_bundle_expand(lam, n)
            total = sum(c * weyl_dim(pad(g, n), n) for g, c in got.items())
            assert total == weyl_dim(pad(lam, 2 * n), 2 * n), lam


def test_double_bundle_row_cap_matches_uncapped():
    # the row-capped expansion keeps exactly the rank-n pieces of the
    # uncapped public expansions; pairs with a tall alpha or beta are
    # skipped because every gamma contains both (test_lr_support_facts)
    for n in (1, 2, 3):
        for lam in all_in_box(2 * n, 4):
            want: dict = {}
            for alpha, beta, c1 in direct_sum_expand(lam):
                if len(alpha) > n or len(beta) > n:
                    continue
                for gamma, c2 in lr_expand_tensor(alpha, beta).items():
                    if len(gamma) <= n:
                        want[gamma] = want.get(gamma, 0) + c1 * c2
            assert double_bundle_expand(lam, n) == want, (lam, n)
    # the public expansions still reach their natural row bounds
    for a, b in (((1, 1), (1, 1, 1)), ((2, 1, 1), (1, 1))):
        nvars = len(a) + len(b)
        assert lr_expand_tensor(a, b) == schur_product(a, b, nvars), (a, b)
    assert set(direct_sum_expand((1, 1, 1))) == {
        ((1, 1, 1), (), 1), ((1, 1), (1,), 1), ((1,), (1, 1), 1),
        ((), (1, 1, 1), 1)}
    for lam in ((2, 1, 1), (2, 2, 1, 1)):
        r = len(lam)
        total = sum(c * weyl_dim(pad(a, r), r) * weyl_dim(pad(b, r), r)
                    for a, b, c in direct_sum_expand(lam))
        assert total == weyl_dim(pad(lam, 2 * r), 2 * r), lam


def test_double_bundle_matches_folded_oracle():
    # independent of the LR walk: fold the Schur polynomial of lam in 2n
    # variables onto n and decompose it
    for n in (1, 2, 3):
        for lam in all_in_box(2 * n, 3):
            assert double_bundle_expand(lam, n) == doubled_schur(lam, n), \
                (lam, n)


def _clear_expansion_caches(lr_expand):
    lr_expand.cache_clear()
    schur._double_bundle_cached.cache_clear()


def test_tensor_cache_holds_one_entry_per_unordered_pair(monkeypatch):
    # c^gamma_{alpha,beta} = c^gamma_{beta,alpha}, so a cold doubled
    # expansion stores each pair once, the larger shape by (size, shape)
    # first
    real = schur._lr_expand_cached
    keys = []

    def record(alpha, beta, rows):
        keys.append((alpha, beta, rows))
        return real(alpha, beta, rows)

    _clear_expansion_caches(real)
    monkeypatch.setattr(schur, "_lr_expand_cached", record)
    try:
        for n in (1, 2, 3):
            for lam in all_in_box(2 * n, 3):
                double_bundle_expand(lam, n)
        assert lr_expand_tensor((1,), (2, 1)) == lr_expand_tensor((2, 1), (1,))
        assert all((size(a), a) >= (size(b), b) for a, b, _ in keys)
        assert real.cache_info().currsize == len(set(keys)) > 100
    finally:
        _clear_expansion_caches(real)


def test_doubled_identity_catches_a_wrong_coefficient(monkeypatch, capsys):
    # one wrong tensor coefficient, c^(2)_{(1),(1)} = 2, breaks the
    # dimension identity of every doubled expansion that reads it; the
    # command's piece lam = (1, 1) on G2 has cohomology, so it is expanded
    real = schur._lr_expand_cached

    def corrupt(alpha, beta, rows):
        out = real(alpha, beta, rows)
        if (alpha, beta) == ((1,), (1,)):
            out = tuple((g, c + (g == (2,))) for g, c in out)
        return out

    _clear_expansion_caches(real)
    monkeypatch.setattr(schur, "_lr_expand_cached", corrupt)
    try:
        with pytest.raises(ArithmeticError, match="doubled expansion"):
            double_bundle_expand((1, 1), 2)
        code = cli.run(["chi", "--N", "1", "--n", "1", "--m", "2",
                        "--functor", "dual", "--ks", "1"])
        out = capsys.readouterr().out
        assert code == 3
        assert out.startswith('{"error": "internal: doubled expansion')
    finally:
        _clear_expansion_caches(real)


def test_walks_match_oracle_under_row_cap():
    # Direct-sum walk: every (lam, rows) with lam in a 6 x 4 box.  Since
    # c^lam_{a,b} = c^{lam^T}_{a^T,b^T} and lam^T has at most 4 rows, the
    # oracle's products of transposes in 4 variables give every coefficient.
    table: dict = {}
    pieces = all_in_box(3, 4)
    for a in pieces:
        for b in pieces:
            for gt, c in schur_product(transpose(a), transpose(b), 4).items():
                table.setdefault(transpose(gt), []).append((a, b, c))
    for lam in all_in_box(6, 4):
        for rows in range(4):
            got = schur._direct_sum(lam, rows)
            want = sorted(((a, b, c) for a, b, c in table.get(lam, ())
                           if len(a) <= rows and len(b) <= rows),
                          reverse=True)
            assert list(got) == want, (lam, rows)
            assert all(c > 0 for _, _, c in got)
    # Tensor walk: in `rows` variables the oracle keeps exactly the gamma
    # of at most `rows` rows.
    pieces = all_in_box(4, 3)
    for a in pieces:
        for b in pieces:
            if size(a) + size(b) > 9:
                continue
            for rows in range(1, len(a) + len(b)):
                got = schur._lr_expand_cached(a, b, rows)
                want = sorted(schur_product(a, b, rows).items(), reverse=True)
                assert list(got) == want, (a, b, rows)
                assert all(c > 0 for _, c in got)
    # lr_coefficient on every triple of a 3 x 4 box, zeros included.
    pieces = all_in_box(3, 4)
    for a in pieces:
        for b in pieces:
            product = schur_product(a, b, 3)
            for g in pieces:
                assert lr_coefficient(a, b, g) == product.get(g, 0), (a, b, g)
    # and on gamma taller than either factor
    for a, b, g in (((2, 1), (2, 1), (2, 1, 1, 1, 1)),
                    ((2, 1), (1, 1), (2, 2, 1)),
                    ((3, 1), (2, 1, 1), (3, 2, 1, 1)),
                    ((1, 1), (1, 1), (1, 1, 1, 1))):
        assert lr_coefficient(a, b, g) == lr_oracle(a, b, g, len(g)), (a, b, g)


def test_cauchy_wedge_examples():
    assert cauchy_wedge(1, 3, 2) == [((1,), (1,))]
    assert cauchy_wedge(2, 3, 2) == [((1, 1), (2,)), ((2,), (1, 1))]
    assert cauchy_wedge(0, 3, 2) == [((), ())]


def test_cauchy_wedge_returns_a_fresh_list():
    # each call builds its own list; a caller's edits must not reach the
    # next one
    pairs = cauchy_wedge(2, 3, 2)
    pairs[0] = None
    pairs.append(((3,), (1, 1, 1)))
    assert cauchy_wedge(2, 3, 2) == [((1, 1), (2,)), ((2,), (1, 1))]


def test_cauchy_wedge_dimension_identity():
    for rank_left in range(1, 5):
        for rank_right in range(1, 5):
            for ell in range(0, 9):
                total = sum(
                    weyl_dim(pad(lt, rank_left), rank_left)
                    * weyl_dim(pad(lam, rank_right), rank_right)
                    for lt, lam in cauchy_wedge(ell, rank_left, rank_right))
                assert total == math.comb(rank_left * rank_right, ell)


def test_pieri_wedge_examples():
    assert pieri_wedge((0, 0), 2) == {(1, 1): 1}
    assert pieri_wedge((1, 0), 1) == {(2, 0): 1, (1, 1): 1}
    assert pieri_wedge((1, 0), 1, dualized=True) == {(0, 0): 1, (1, -1): 1}
    with pytest.raises(ValueError):
        pieri_wedge((1, 0), 3)


def test_pieri_sym_examples():
    assert pieri_sym((0,), 3) == {(3,): 1}
    assert pieri_sym((1, 0), 2) == {(3, 0): 1, (2, 1): 1}
    assert pieri_sym((0, 0), 1, dualized=True) == {(0, -1): 1}
    assert pieri_sym((), 0) == {(): 1}
    assert pieri_sym((), 2) == {}


weights_st = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


@settings(max_examples=60)
@given(weights_st, st.integers(0, 5))
def test_pieri_wedge_dimension(w, k):
    r = len(w)
    if k > r:
        return
    for dualized in (False, True):
        out = pieri_wedge(w, k, dualized)
        total = sum(weyl_dim(v, r) for v in out)
        assert total == weyl_dim(w, r) * math.comb(r, k)


@settings(max_examples=60)
@given(weights_st, st.integers(0, 4))
def test_pieri_sym_dimension(w, k):
    r = len(w)
    for dualized in (False, True):
        out = pieri_sym(w, k, dualized)
        total = sum(weyl_dim(v, r) for v in out)
        assert total == weyl_dim(w, r) * math.comb(r + k - 1, k)


def test_pieri_shift_invariance():
    # tensoring by the determinant commutes with both rules
    w = (2, 0, -1)
    for k in (1, 2):
        base = pieri_wedge(w, k)
        shifted = pieri_wedge(tuple(e + 3 for e in w), k)
        assert {tuple(e + 3 for e in v) for v in base} == set(shifted)
        base = pieri_sym(w, k, dualized=True)
        shifted = pieri_sym(tuple(e + 3 for e in w), k, dualized=True)
        assert {tuple(e + 3 for e in v) for v in base} == set(shifted)


def test_pieri_twist_ranks():
    # the twisted ranks multiply by the rank of F^k(B) at every step
    n = 3
    weights = {(2, 1): 2, (1,): 1, (): 1}
    base = sum(m * weyl_dim(pad(w, n), n) for w, m in weights.items())
    for functor, ks, factor in (
            ("wedge", (2,), math.comb(3, 2)),
            ("sym", (2,), math.comb(4, 2)),
            ("dual", (1, 2), math.comb(3, 1) * math.comb(3, 2)),
            ("sym", (), 1)):
        out = pieri_twist(weights, n, functor, ks)
        assert all(len(w) == n for w in out)
        assert sum(m * weyl_dim(w, n) for w, m in out.items()) == base * factor


def test_pieri_twist_wedge_is_shifted_complement():
    # wedge^k B = wedge^(n-k) B* . det B in dual coordinates: raising n - k
    # entries and shifting every entry by -1 gives the same weights in the
    # same order
    for n in range(5):
        for w in combinations_with_replacement(range(2, -3, -1), n):
            for k in range(n + 1):
                want = [(tuple(e - 1 for e in v), 1)
                        for v in pieri_wedge(w, n - k)]
                assert list(pieri_twist({w: 1}, n, "wedge", (k,)).items()) \
                    == want, (w, k)
    assert pieri_twist({(): 1}, 3, "wedge", (1,)) == {(0, 0, -1): 1}
    assert pieri_twist({(1,): 1}, 2, "dual", (1,)) == {(2, 0): 1, (1, 1): 1}
    with pytest.raises(ValueError):
        pieri_twist({(): 1}, 2, "tensor", (1,))
    # input weights are checked after padding: (1, -1, 0) is not dominant
    with pytest.raises(ValueError):
        pieri_twist({(1, -1): 1}, 3, "sym", (1,))
