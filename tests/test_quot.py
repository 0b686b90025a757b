import functools
import gc
import itertools
import json
import math

import pytest

from quotcoh import cli, partitions, quot, schur
from quotcoh.partitions import enumerate_in_box, pad
from quotcoh.quot import (
    G1,
    G2,
    check_conjecture,
    dual_wedge_product,
    embedding_data,
    quot_cohomology,
    resolution_terms,
    sheaf_rank,
    sym_power,
    term_cohomology,
    term_profiles,
    verify_resolution_propositions,
    verify_theorem,
    wedge_power,
)
from oracles import g1_scan, g2_admits


def test_embedding_examples():
    d = embedding_data(2, None, 2, 0, 2)
    assert (d.d1, d.q1, d.d2, d.q2, d.rank_e) == (4, 2, 6, 2, 8)
    assert d.ctx1.dim + d.ctx2.dim == d.rank_e + 2 * 2

    d = embedding_data(2, None, 1, 1, 1)
    assert (d.d1, d.q1, d.d2, d.q2, d.rank_e) == (2, 2, 4, 3, 0)
    assert d.ctx1.dim == 0  # the first factor collapses to a point

    d = embedding_data(2, None, 2, 1, 3)
    assert (d.d1, d.q1, d.d2, d.q2, d.rank_e) == (6, 5, 8, 6, 12)
    assert d.ctx1.dim + d.ctx2.dim - d.rank_e == 2 * 2 + 1 * (2 - 1)


def test_embedding_bound_error_names_minimum():
    with pytest.raises(ValueError, match="m >= 2"):
        embedding_data(2, None, 2, 0, 1)
    # nontrivial splitting shifts the bound: n + (N-1)a - deg E
    with pytest.raises(ValueError, match="m >= 3"):
        embedding_data(2, (2, -1), 2, 0, 2)
    embedding_data(2, (2, -1), 2, 0, 3)


def test_embedding_validation():
    with pytest.raises(ValueError):
        embedding_data(2, None, 2, 2, 5)  # r beyond N - 1
    with pytest.raises(ValueError):
        embedding_data(2, None, -1, 0, 3)
    with pytest.raises(ValueError):
        embedding_data(2, (0, 0, 0), 1, 0, 1)  # splitting length mismatch


def test_sheaf_validation():
    data = embedding_data(2, None, 2, 0, 2)
    with pytest.raises(ValueError):
        resolution_terms(data, wedge_power(3), 0)  # k beyond rank
    with pytest.raises(ValueError):
        resolution_terms(data, wedge_power(1), 9)  # ell beyond rank E
    with pytest.raises(ValueError):
        wedge_power(-1)
    with pytest.raises(ValueError):
        dual_wedge_product(((1, "nowhere"),))


def test_term_zero_is_the_bare_twist():
    data = embedding_data(2, None, 2, 0, 2)
    term = resolution_terms(data, wedge_power(1), 0)
    assert len(term.summands) == 1
    b1, b2, mult = term.summands[0]
    assert mult == 1
    assert set(b1.quot) == {0} and set(b1.sub) == {0}
    assert b2.quot == (1, 0) and set(b2.sub) == {0}
    prof = term_cohomology(term)
    assert prof.dims == ((0, math.comb(6, 1)),)


def test_term_one_matches_hand_expansion():
    data = embedding_data(2, None, 2, 0, 2)
    term = resolution_terms(data, wedge_power(1), 1)
    got = {(b1.sub, b2.quot): m for b1, b2, m in term.summands}
    assert got == {((1, 0), (1, -1)): 2, ((1, 0), (0, 0)): 2}
    assert term_cohomology(term).is_zero


def test_dual_term_zero_vanishes():
    data = embedding_data(2, None, 2, 0, 2)
    term = resolution_terms(data, dual_wedge_product(((1, G2),)), 0)
    assert term_cohomology(term).is_zero


def test_rank_bookkeeping():
    data = embedding_data(2, None, 2, 0, 2)
    sheaves = [wedge_power(1), wedge_power(2), sym_power(2),
               dual_wedge_product(((1, G2),)),
               dual_wedge_product(((1, G1),)),
               wedge_power(1, G1), sym_power(1, G1)]
    for sheaf in sheaves:
        expected_unit = sheaf_rank(data, sheaf)
        for ell in range(data.rank_e + 1):
            term = resolution_terms(data, sheaf, ell)
            assert term.total_rank() == \
                math.comb(data.rank_e, ell) * expected_unit, (sheaf, ell)
    # n = 0: both quotients have rank 0, and sym^0 of them is the trivial
    # line bundle, not the empty binomial C(-1, 0) = 0
    data = embedding_data(2, None, 0, 0, 0)
    assert (data.q1, data.q2, data.rank_e) == (0, 0, 0)
    for sheaf in (sym_power(0), sym_power(0, G1), wedge_power(0)):
        assert sheaf_rank(data, sheaf) == 1
        assert resolution_terms(data, sheaf, 0).total_rank() == 1


def _cross_check_sheaves(data):
    """Every exterior and symmetric power on each side, and every
    dualized product of one G1 factor with one G2 factor."""
    sheaves = [dual_wedge_product(((k1, G1), (k2, G2)))
               for k1 in range(1, data.q1 + 1)
               for k2 in range(1, data.q2 + 1)]
    for side in (G1, G2):
        for k in range(data.quotient_rank(side) + 1):
            sheaves += [wedge_power(k, side), sym_power(k, side)]
    return sheaves


def test_factored_profiles_match_explicit_summands():
    # term_profiles never expands the G2 side of a Cauchy piece whose G1
    # factor is acyclic; the explicit summand list is the reference.
    live = 0
    for N, splitting in ((2, None), (2, (1, 0)), (3, None)):
        for n in (1, 2, 3):
            for r in range(N):
                for m in (n, n + 1, n + 2):
                    data = embedding_data(N, splitting, n, r, m)
                    if data.rank_e > 16:
                        continue
                    for sheaf in _cross_check_sheaves(data):
                        profiles = list(term_profiles(data, sheaf))
                        assert [ell for ell, _ in profiles] == \
                            list(range(data.rank_e + 1))
                        for ell, profile in profiles:
                            want = term_cohomology(
                                resolution_terms(data, sheaf, ell))
                            assert profile == want, (data, sheaf, ell)
                            live += not profile.is_zero
    assert live >= 700  # the comparison is not between empty profiles


def _g2_twists(q):
    """The identity, every wedge and dual power of a rank-q bundle and
    every product of two dual ones, and sym^1..3."""
    yield "wedge", ()
    for k in range(1, q + 1):
        yield "wedge", (k,)
        yield "dual", (k,)
        for k2 in range(k, q + 1):
            yield "dual", (k, k2)
    for k in range(1, 4):
        yield "sym", (k,)


def test_g2_bound_skips_only_acyclic_factors():
    # the walk's G2 test at rest = 0 against the full expansion, twist and
    # Borel-Weil-Bott of the G2 factor on G(q + width, q)
    skipped = acyclic = 0
    for q in range(1, 5):
        lams = [lam for total in range(9)
                for lam in enumerate_in_box(2 * q, 4, total)]
        for width in range(7):
            zeros = (0,) * width
            for lam in lams:
                dual = [(pad(gamma, q), c) for gamma, c
                        in schur.double_bundle_expand(lam, q).items()]
                for functor, ks in _g2_twists(q):
                    quots = quot._quotient_weights(dual, q, functor, ks)
                    dims = quot._factor_dims(q + width, quots.items(), zeros)
                    skip = not g2_admits(lam, q, width, functor, ks)
                    assert not (skip and dims), (lam, q, width, functor, ks)
                    skipped += skip
                    acyclic += not dims
    # the bound rules out nearly every acyclic factor (6,765 of 6,990), so
    # the check is not vacuous; without the cap of the dual twist's rise at
    # sum(ks) it rules out 6,722, and without the lower size bound 6,665
    assert skipped > 6750 and skipped >= 0.96 * acyclic


def _record_g2_factors(monkeypatch):
    """Record the {degree: dim} of every G2 factor the hot path expands: the
    _factor_dims call that follows a doubled expansion reads its weights."""
    expanded, sent = [], []
    real_expand, real_dims = quot._double_bundle_cached, quot._factor_dims

    def expand(lam, n):
        expanded.append(lam)
        return real_expand(lam, n)

    def factor_dims(d, quots, sub):
        dims = real_dims(d, quots, sub)
        if expanded:
            sent.append((expanded.pop(), dims))
        return dims

    monkeypatch.setattr(quot, "_double_bundle_cached", expand)
    monkeypatch.setattr(quot, "_factor_dims", factor_dims)
    return sent


def _sweep_sheaves(N, n) -> list:
    """wedge^k and sym^k on each side, and dualized products of 1..N-1
    factors with at most one on G1."""
    sheaves = [f(k, side) for f in (wedge_power, sym_power)
               for side in (G1, G2) for k in range(n + 1)]
    factors = [(k, side) for k in range(1, n + 1) for side in (G1, G2)]
    for length in range(1, N):
        sheaves += [dual_wedge_product(prod) for prod
                    in itertools.product(factors, repeat=length)
                    if [s for _, s in prod].count(G1) <= 1]
    return sheaves


def test_only_g2_factors_with_cohomology_are_expanded(monkeypatch,
                                                      cold_caches):
    # The hot path pays for a doubled expansion only where the bound admits
    # cohomology; on these embeddings every such factor has some.
    sent = _record_g2_factors(monkeypatch)
    for N, n, r, m in ((4, 2, 0, 2), (3, 2, 0, 2), (2, 3, 0, 3), (3, 1, 1, 2),
                       (3, 2, 1, 3)):
        data = embedding_data(N, None, n, r, m)
        for sheaf in _sweep_sheaves(N, n):
            quot_cohomology(data, sheaf)
    # 64 factors are sent, 31 of them on the r = 0 embeddings; without the
    # cap of the dual twist's rise at sum(ks), (3, 1, 1, 2) alone sends 22,
    # of which 13 are acyclic
    assert len(sent) >= 10
    assert [x for x in sent if not x[-1]] == []


def test_engine_reads_stored_expansions(capsys, cold_caches, count_calls):
    # From cold caches, resolving reads each doubled expansion as it is
    # stored and re-checks no weight or partition the engine built: the
    # checked public expansion and both input checks are never called.
    calls = [count_calls(schur, "double_bundle_expand"),
             count_calls(partitions, "as_partition"),
             count_calls(partitions, "as_weight")]
    data = embedding_data(3, None, 2, 0, 2)
    for sheaf in _sweep_sheaves(3, 2):
        quot_cohomology(data, sheaf)
    assert cli.run(["series", "wedge", "--N", "2", "--degL", "6",
                    "--nmax", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    assert schur._double_bundle_cached.cache_info().misses >= 5
    assert calls == [[], [], []]


def test_walk_emits_only_g2_factors_with_cohomology(monkeypatch,
                                                     cold_caches):
    # The series' embeddings (2, n, 0, 6), n = 0..6, under wedge^0..n on
    # G2: the walk cuts every piece the G2 test rules out, so each piece it
    # emits is expanded and has cohomology.  (A walk that emitted every
    # piece live on G1 would send 14,798.)
    sent = _record_g2_factors(monkeypatch)
    for n in range(7):
        data = embedding_data(2, None, n, 0, 6)
        for k in range(n + 1):
            quot_cohomology(data, wedge_power(k, G2))
    assert len(sent) == 28
    assert all(dims for _, dims in sent)


def _clear(caches):
    for cached in caches.values():
        cached.cache_clear()


def test_equal_embeddings_share_profiles(cold_caches, count_calls):
    # The profile cache is keyed by the embedding's value, so an embedding
    # built again with equal arguments walks nothing and answers the same.
    sheaves = (dual_wedge_product(((1, G1), (1, G2))), sym_power(2, G1),
               wedge_power(1, G2))
    first = [quot_cohomology(embedding_data(2, None, 2, 0, 2), s)
             for s in sheaves]
    walks = count_calls(quot, "_fill_live")
    again = embedding_data(2, None, 2, 0, 2)
    assert [quot_cohomology(again, s) for s in sheaves] == first
    assert walks == []


def test_sym1_shares_the_wedge1_entry(cold_caches):
    # S^1 B = wedge^1 B = B: both sheaves read one entry, so the second
    # resolves from the cache
    for args in ((2, None, 2, 0, 2), (3, None, 2, 1, 2), (2, (1, 0), 2, 0, 2)):
        data = embedding_data(*args)
        for side in (G1, G2):
            _clear(cold_caches)
            sym = quot_cohomology(data, sym_power(1, side))
            misses = quot._fill_profiles.cache_info().misses
            assert quot_cohomology(data, wedge_power(1, side)) == sym
            assert quot._fill_profiles.cache_info().misses == misses


def test_piece_memo_is_order_independent(cold_caches):
    # Every sheaf resolved in either order with a shared cache gets the
    # profile it gets from cold caches.
    for args in ((2, None, 2, 0, 2), (3, None, 2, 1, 2)):
        sheaves = _cross_check_sheaves(embedding_data(*args))
        cold = []
        for s in sheaves:
            _clear(cold_caches)
            cold.append(quot_cohomology(embedding_data(*args), s))
        for order in (sheaves, sheaves[::-1]):
            _clear(cold_caches)
            shared = embedding_data(*args)
            warm = {s: quot_cohomology(shared, s) for s in order}
            assert [warm[s] for s in sheaves] == cold, args


def test_g1_weights_built_once_per_twist(monkeypatch, cold_caches):
    # every term of a G1-twisted sheaf reads the same quotient weights
    built = []
    real = quot._pieri_chain

    def record(pairs, n, functor, ks):
        if dict(pairs) == {(0,) * n: 1}:
            built.append((functor, ks))
        return real(pairs, n, functor, ks)

    monkeypatch.setattr(quot, "_pieri_chain", record)
    data = embedding_data(2, None, 2, 0, 2)
    for sheaf in (sym_power(2, G1), sym_power(2, G1), wedge_power(1, G1)):
        quot_cohomology(data, sheaf)
    # (the G2 factor of the piece lam = () starts from the zero weight too,
    # under the identity twist)
    assert data.rank_e > 1
    assert sorted(t for t in built if t[1]) == [("sym", (2,)), ("wedge", (1,))]


def test_reference_terms_leave_the_memo_empty(cold_caches):
    # resolution_terms is the reference the memo is checked against, so it
    # neither reads nor fills it
    data = embedding_data(2, None, 2, 0, 2)
    for ell in range(data.rank_e + 1):
        resolution_terms(data, sym_power(2, G1), ell)
        resolution_terms(data, dual_wedge_product(((1, G1), (1, G2))), ell)
    info = quot._fill_profiles.cache_info()
    assert info.hits == info.misses == info.currsize == 0


def test_one_entry_per_twist_pair(cold_caches):
    # every term of every sheaf under one pair (G1 twist, G2 twist) shares
    # one entry, keyed by the embedding and the two twists alone.  The
    # walk leaves pieces in term 3 of sym^3 on G2 whose G2 factors are all
    # acyclic, and the entry leaves that term out.
    data = embedding_data(2, None, 2, 0, 2)
    sheaves = (sym_power(2, G1), sym_power(2, G1), wedge_power(1, G1),
               wedge_power(1, G2), dual_wedge_product(((1, G1), (1, G2))),
               wedge_power(0, G1), sym_power(3, G2))
    for sheaf in sheaves:
        quot_cohomology(data, sheaf)
    keys = [(("dual", (1,)), ("dual", (1,))), (("sym", (2,)), ("wedge", ())),
            (("wedge", ()), ("sym", (3,))), (("wedge", ()), ("wedge", ())),
            (("wedge", ()), ("wedge", (1,))), (("wedge", (1,)), ("wedge", ()))]
    info = quot._fill_profiles.cache_info()
    assert info.misses == info.currsize == 6
    entries = [quot._fill_profiles(data, *key) for key in keys]
    assert quot._fill_profiles.cache_info().misses == 6
    for entry in entries:
        # one profile per term with cohomology, in term order
        assert list(entry) == sorted(entry)
        assert set(entry) <= set(range(data.rank_e + 1))
        assert all(not p.is_zero for p in entry.values())


def test_memo_stores_only_terms_with_pieces(cold_caches):
    # On the sweep's (4, 2, 0, 2), wedge^1 on G2 has cohomology in 1 of its
    # 25 terms: the pair entry holds that one, and every other term reads
    # as the shared empty profile
    data = embedding_data(4, None, 2, 0, 2)
    sheaf = wedge_power(1, G2)
    res = quot_cohomology(data, sheaf)
    entry = quot._fill_profiles(data, quot._twist(sheaf, G1),
                                quot._twist(sheaf, G2))
    assert quot._fill_profiles.cache_info()[:2] == (1, 1)
    assert 0 < len(entry) < data.rank_e + 1
    assert [ell for ell, _ in res.per_term] == list(range(data.rank_e + 1))
    assert {ell: p for ell, p in res.per_term if not p.is_zero} == entry
    zero = [p for ell, p in res.per_term if ell not in entry]
    assert len(zero) == data.rank_e + 1 - len(entry)
    assert all(p is quot._ACYCLIC for p in zero)


def test_memo_hit_runs_no_walk_and_no_expansion(monkeypatch, cold_caches):
    # the factors of a dual product commute, so both orders of one product
    # read one entry; the second order finds it filled, so it neither walks
    # nor expands, and gets the answer of cold caches
    def refuse(*args):
        raise AssertionError("a memo hit walked or expanded")

    first_order = ((1, G2), (2, G2), (1, G1))
    second_order = ((1, G1), (2, G2), (1, G2))
    data = embedding_data(3, None, 1, 1, 2)
    first = quot_cohomology(data, dual_wedge_product(first_order))
    entry = quot._fill_profiles(data, ("dual", (1,)), ("dual", (2, 1)))
    assert quot._fill_profiles.cache_info()[:2] == (1, 1)
    assert len(entry) == 5  # the hit has terms to read
    with monkeypatch.context() as patch:
        patch.setattr(quot, "_fill_live", refuse)
        patch.setattr(quot, "_double_bundle_cached", refuse)
        second = quot_cohomology(data, dual_wedge_product(second_order))
    info = quot._fill_profiles.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    assert quot._fill_profiles(data, ("dual", (1,)), ("dual", (2, 1))) \
        is entry
    _clear(cold_caches)
    cold = quot_cohomology(embedding_data(3, None, 1, 1, 2),
                           dual_wedge_product(second_order))
    assert first == second == cold


def _g1_twisted_sheaves(q):
    """The identity, wedge^k, sym^k and dual^k for k = 1..3 and the dual
    products (1, 1) and (2, 1), all on G1, that a rank-q quotient admits."""
    yield wedge_power(0, G1)
    for k in (1, 2, 3):
        if q:
            yield sym_power(k, G1)
        if k <= q:
            yield wedge_power(k, G1)
            yield dual_wedge_product(((k, G1),))
    for ks in ((1, 1), (2, 1)):
        if ks[0] <= q:
            yield quot.TautologicalSheaf("dual", ks, (G1, G1))


def test_live_walk_matches_the_full_scan():
    # The walk builds only the Cauchy pieces whose G1 factor has
    # cohomology and whose G2 factor the G2 test admits; the reference lists
    # every piece, runs Borel-Weil-Bott on each G1 factor and the G2 test on
    # each lam.  Embeddings with r = 0, with r >= 1 and on a split bundle,
    # under every pair of a G1 twist and a G2 twist, the identities included.
    cases = live = 0
    admits = functools.cache(g2_admits)  # the G1 twists share most lam
    for args in ((2, None, 2, 0, 2), (3, None, 2, 0, 2), (4, None, 2, 0, 2),
                 (2, None, 3, 0, 3), (3, None, 2, 1, 3), (2, None, 3, 1, 4),
                 (3, None, 1, 1, 1), (2, (1, 0), 2, 0, 2),
                 (2, (1, 0), 2, 1, 3)):
        data = embedding_data(*args)
        q2, width = data.q2, data.d2 - data.q2
        for sheaf in _g1_twisted_sheaves(data.q1):
            twist1 = quot._twist(sheaf, G1)
            scanned = g1_scan(data, sheaf)
            for twist2 in _g2_twists(q2):
                walked = [[] for _ in range(data.rank_e + 1)]
                for ell, lam, dims in quot._live_pieces(data, twist1, twist2):
                    walked[ell].append((lam, tuple(sorted(dims.items()))))
                assert len(scanned) == data.rank_e + 1
                for ell in range(data.rank_e + 1):
                    got = sorted(walked[ell])
                    want = [x for x in scanned[ell]
                            if admits(x[0], q2, width, *twist2)]
                    assert got == want, (args, sheaf, twist2, ell)
                    cases += 1
                    live += len(got)
    # 56,088 cases and 9,487 pieces emitted
    assert cases >= 56000 and live >= 9400, (cases, live)


# (functor, ks, sides) -> (chi, dims, the nonzero term profiles), computed
# by listing every Cauchy piece of every term.
_GUARD_ANSWERS = {
    (4, None, 2, 0, 2): {
        ("wedge", (0,), (G2,)): (1, ((0, 1),), ((0, ((0, 1),)),)),
        ("wedge", (1,), (G1,)): (8, ((0, 8),), ((0, ((0, 8),)),)),
        ("wedge", (2,), (G1,)): (28, ((0, 28),), ((0, ((0, 28),)),)),
        ("wedge", (1,), (G2,)): (12, ((0, 12),), ((0, ((0, 12),)),)),
        ("wedge", (2,), (G2,)): (66, ((0, 66),), ((0, ((0, 66),)),)),
        ("sym", (1,), (G1,)): (8, ((0, 8),), ((0, ((0, 8),)),)),
        ("sym", (2,), (G1,)): (36, ((0, 36),), ((0, ((0, 36),)),)),
        ("sym", (3,), (G1,)): (120, ((0, 120),), ((0, ((0, 120),)),)),
        ("sym", (1,), (G2,)): (12, ((0, 12),), ((0, ((0, 12),)),)),
        ("sym", (2,), (G2,)): (78, ((0, 78),), ((0, ((0, 78),)),)),
        ("sym", (3,), (G2,)): (360, None, ((0, ((0, 364),)),
                                           (15, ((14, 16),)),
                                           (16, ((14, 12),)))),
        ("dual", (1, 1), (G1, G2)): (0, (), ()),
        ("dual", (2, 1), (G2, G1)): (0, (), ()),
    },
    (3, None, 2, 1, 3): {
        ("wedge", (0,), (G2,)): (1, ((0, 1),), ((0, ((0, 1),)),)),
        ("wedge", (1,), (G1,)): (9, ((0, 9),), ((0, ((0, 9),)),)),
        ("wedge", (2,), (G1,)): (36, ((0, 36),), ((0, ((0, 36),)),)),
        ("wedge", (3,), (G1,)): (84, ((0, 84),), ((0, ((0, 84),)),)),
        ("wedge", (1,), (G2,)): (12, ((0, 12),), ((0, ((0, 12),)),)),
        ("wedge", (2,), (G2,)): (66, ((0, 66),), ((0, ((0, 66),)),)),
        ("wedge", (3,), (G2,)): (220, ((0, 220),), ((0, ((0, 220),)),)),
        ("sym", (1,), (G1,)): (9, ((0, 9),), ((0, ((0, 9),)),)),
        ("sym", (2,), (G1,)): (45, ((0, 45),), ((0, ((0, 45),)),)),
        ("sym", (3,), (G1,)): (165, ((0, 165),), ((0, ((0, 165),)),)),
        ("sym", (1,), (G2,)): (12, ((0, 12),), ((0, ((0, 12),)),)),
        ("sym", (2,), (G2,)): (78, ((0, 78),), ((0, ((0, 78),)),)),
        ("sym", (3,), (G2,)): (364, ((0, 364),), ((0, ((0, 364),)),)),
        ("dual", (1, 1), (G1, G2)): (18, None, ((10, ((12, 180),)),
                                                (11, ((12, 162),)))),
        ("dual", (2, 1), (G2, G1)): (15, None, ((10, ((12, 15),)),)),
    },
}


def test_hot_path_never_lists_every_cauchy_piece(monkeypatch):
    # cauchy_wedge serves only the reference; the answers must not change
    # when the hot path cannot reach it
    def refuse(*args):
        raise AssertionError("the hot path listed every Cauchy piece")

    monkeypatch.setattr(quot, "cauchy_wedge", refuse)
    for args, answers in _GUARD_ANSWERS.items():
        data = embedding_data(*args)
        for (functor, ks, sides), want in answers.items():
            res = quot_cohomology(data,
                                  quot.TautologicalSheaf(functor, ks, sides))
            nonzero = tuple((ell, p.dims) for ell, p in res.per_term
                            if not p.is_zero)
            assert (res.chi, res.dims, nonzero) == want, (args, functor, ks)


def test_warm_embedding_equals_cold(cold_caches):
    # an embedding is a plain value: resolving on it changes nothing in it,
    # and every field takes part in eq, hash and repr
    warm = embedding_data(2, (1, 0), 2, 0, 2)
    quot_cohomology(warm, sym_power(2, G1))
    cold = embedding_data(2, (0, 1), 2, 0, 2)
    fields = quot.EmbeddingData._fields
    assert len(fields) == len(warm) == 10
    assert all(f"{f}={getattr(warm, f)!r}" in repr(warm) for f in fields)
    # no instance dict, so no state outside the fields
    assert not hasattr(warm, "__dict__")
    assert [getattr(warm, f) for f in fields] == [getattr(cold, f)
                                                  for f in fields]
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)


def test_quot_cohomology_examples():
    data = embedding_data(2, None, 2, 0, 2)
    res = quot_cohomology(data, wedge_power(1))
    assert res.degenerate and res.dims == ((0, 6),) and res.chi == 6
    res = quot_cohomology(data, sym_power(2))
    assert res.degenerate and res.dims == ((0, 21),) and res.chi == 21
    res = quot_cohomology(embedding_data(2, None, 1, 0, 1),
                          dual_wedge_product(((1, G2),)))
    assert res.chi == 0 and res.dims == ()


def test_profile_degrees_within_ambient_dimension():
    data = embedding_data(2, None, 2, 0, 2)
    ambient = data.ctx1.dim + data.ctx2.dim
    for sheaf in (wedge_power(2), dual_wedge_product(((1, G1), (1, G2)))):
        res = quot_cohomology(data, sheaf)
        for _, profile in res.per_term:
            assert all(0 <= i <= ambient for i, _ in profile.dims)
            assert all(v > 0 for _, v in profile.dims)


def test_chi_additivity_matches_per_term():
    data = embedding_data(2, None, 2, 0, 2)
    res = quot_cohomology(data, wedge_power(2))
    assert res.chi == sum((-1) ** ell * p.chi for ell, p in res.per_term)
    assert len(res.per_term) == data.rank_e + 1


def test_verify_theorem_a_b():
    for N in (1, 2):
        for n in (0, 1, 2):
            for m in (n, n + 1):
                data = embedding_data(N, None, n, 0, m)
                for k in range(n + 1):
                    rep = verify_theorem(data, "A", (k,))
                    assert rep.verified
                    assert rep.expected_h0 == math.comb(N * (m + 1), k)
                    rep = verify_theorem(data, "B", (k,))
                    assert rep.verified
                    assert rep.expected_h0 == math.comb(N * (m + 1) + k - 1, k)


def test_symmetric_degree_zero_without_sections():
    # the twist m - 1 = 0 of O(-1) + O(-1) has no sections, yet sym^0 is
    # the trivial bundle with one section, as Theorem B and the positive-
    # rank conjecture both predict
    data = embedding_data(2, (-1, -1), 0, 0, 1)
    assert data.section_dim(G1) == 0
    rep = verify_theorem(data, "B", (0,), (G1,))
    assert rep.verified and rep.expected_h0 == 1
    data = embedding_data(2, None, 0, 1, 0)
    assert data.section_dim(G1) == 0
    rep = check_conjecture(data, "sym", (0,), (-1,))
    assert rep.verified and rep.predicted == rep.computed == 1


def test_verify_theorem_parameter_errors():
    data = embedding_data(2, None, 2, 0, 2)
    with pytest.raises(ValueError):
        verify_theorem(data, "A", (3,))  # k beyond n
    with pytest.raises(ValueError):
        verify_theorem(data, "A", (1,), (G1,))  # deg L = m - 1 < n
    with pytest.raises(ValueError):
        verify_theorem(data, "C", (0,))  # all degrees zero
    with pytest.raises(ValueError):
        verify_theorem(data, "C", (1, 1))  # more than N - 1 factors
    with pytest.raises(ValueError):
        verify_theorem(embedding_data(2, None, 1, 1, 1), "A", (1,))
    # a degree without a side, or a side without a degree, is an error, not
    # a smaller sheaf
    data = embedding_data(3, None, 1, 0, 1)
    for ks, sides in (((1, 1), (G1,)), ((1,), (G1, G2))):
        with pytest.raises(ValueError, match="each degree needs a side"):
            verify_theorem(data, "C", ks, sides)


def test_verify_theorem_c_both_placements():
    for n in (1, 2):
        data = embedding_data(2, None, n, 0, n)
        for k1 in range(1, n + 1):
            for side in (G1, G2):
                rep = verify_theorem(data, "C", (k1,), (side,))
                assert rep.verified, (n, k1, side)


def test_theorem_c_three_factors():
    # N = 4 allows a genuine product with a lower-twist factor
    data = embedding_data(4, None, 1, 0, 1)
    rep = verify_theorem(data, "C", (1, 1, 0), (G1, G2, G2))
    assert rep.verified


def test_resolution_propositions():
    data = embedding_data(2, None, 2, 0, 2)
    for sheaf in (wedge_power(1), sym_power(2),
                  dual_wedge_product(((1, G2),))):
        rep = verify_resolution_propositions(data, sheaf)
        assert rep.ok and len(rep.rows) == data.rank_e + 1
    with pytest.raises(ValueError):
        verify_resolution_propositions(data, sym_power(3))  # needs k <= n
    with pytest.raises(ValueError):  # Theorem C allows N-1 = 1 factor
        verify_resolution_propositions(
            data, dual_wedge_product(((1, G2), (1, G2))))


def test_conjecture_projective_space():
    data = embedding_data(2, None, 1, 1, 1)
    euler_sequence_values = {0: 1, 1: 4, 2: 6, 3: 4}
    for k, expected in euler_sequence_values.items():
        rep = check_conjecture(data, "wedge", (k,), (1,))
        assert rep.verified and rep.computed == expected


def test_conjecture_both_sides():
    data = embedding_data(2, None, 2, 1, 3)
    for deg_l in (2, 3):
        for k in range(6):
            rep = check_conjecture(data, "wedge", (k,), (deg_l,))
            assert rep.verified, (deg_l, k)
            assert rep.predicted == math.comb(2 * (deg_l + 1), k)


def test_conjecture_sym_spot():
    data = embedding_data(2, None, 1, 1, 1)
    for k in (0, 1, 2):
        rep = check_conjecture(data, "sym", (k,), (1,))
        assert rep.verified
        assert rep.predicted == math.comb(4 + k - 1, k)


def test_conjecture_dual_spot():
    # needs N - r - 1 >= 1, so the smallest case is N = 3
    data = embedding_data(3, None, 1, 1, 1)
    for k in (1, 2):
        for deg_l in (0, 1):
            rep = check_conjecture(data, "dual", (k,), (deg_l,))
            assert rep.verified and rep.computed == 0, (k, deg_l)


def test_conjecture_parameter_errors():
    data = embedding_data(2, None, 2, 1, 3)
    with pytest.raises(ValueError, match="not realizable"):
        check_conjecture(data, "wedge", (1,), (1,))
    with pytest.raises(ValueError, match="bound"):
        check_conjecture(data, "wedge", (6,), (3,))
    with pytest.raises(ValueError, match="nonnegative"):
        check_conjecture(data, "wedge", (-1,), (3,))
    with pytest.raises(ValueError):
        check_conjecture(embedding_data(2, None, 2, 0, 2), "wedge", (1,), (2,))
    with pytest.raises(ValueError):
        check_conjecture(data, "dual", (1,), (3,))  # needs N - r - 1 >= 1


def test_twist_side_independence():
    # the same sheaf computed through both embeddings, small grid
    for N in (1, 2):
        for n in (1, 2):
            deg_l = n
            via_b2 = embedding_data(N, None, n, 0, deg_l)
            via_b1 = embedding_data(N, None, n, 0, deg_l + 1)
            for k in range(n + 1):
                chi2 = quot_cohomology(via_b2, wedge_power(k, G2)).chi
                chi1 = quot_cohomology(via_b1, wedge_power(k, G1)).chi
                assert chi1 == chi2 == math.comb(N * (deg_l + 1), k)


def test_split_bundle_sections():
    # one nontrivial splitting: sections of E(m) replace the binomial count
    splitting = (1, 0)
    m, n, k = 2, 1, 1
    data = embedding_data(2, splitting, n, 0, m)
    rep = verify_theorem(data, "A", (k,))
    assert rep.verified
    assert rep.expected_h0 == sum(a + m + 1 for a in splitting)


def test_conjecture_bound_sharpness_probe():
    # one past the stated bound the closed form is expected to fail; record
    # the actual value without asserting a particular outcome
    data = embedding_data(2, None, 2, 1, 3)
    k = 2 + 1 * (2 + 1) + 1  # bound + 1
    chi = quot_cohomology(data, wedge_power(k, G2)).chi
    predicted = math.comb(8, k)
    print(f"sharpness probe: k={k} computed chi={chi} closed form={predicted}")


def test_recursive_walks_leave_no_reference_cycles(cold_caches):
    # Each walk frees its work when it returns, so the cyclic collector
    # finds nothing after the raw enumerations and a whole resolution.
    # _pieri_sym_cached is called through __wrapped__, and every cache is
    # cleared, so a warm cache cannot skip a walk.
    data = embedding_data(2, None, 2, 0, 3)
    gc.collect()
    gc.disable()
    try:
        enumerate_in_box(4, 4, 6)
        schur.lr_coefficient((2, 1), (2, 1), (3, 2, 1))
        schur._pieri_sym_cached.__wrapped__((2, 1, 0), 3, False)
        quot_cohomology(data, sym_power(2, G1))
        assert gc.collect() == 0
    finally:
        gc.enable()
