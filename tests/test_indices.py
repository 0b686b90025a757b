import itertools
import json

import pytest

from quotcoh import cli, partitions
from quotcoh.bott import GrassmannianContext, bwb
from quotcoh.indices import (
    SummandCheck,
    _certify,
    indexed_partitions,
    kn_index,
    lemma_triples,
    n_index,
    verify_dual_vanishing,
    verify_sym_vanishing,
    verify_wedge_vanishing,
)
from quotcoh.partitions import (
    all_in_box,
    enumerate_in_box,
    part,
    transpose,
)
from quotcoh.indices import _row_index
from quotcoh.schur import double_bundle_expand
from oracles import column_index_oracle, pieri_chain_oracle, quot_dual_bundle


def test_n_index_examples():
    rep = n_index((8, 7, 4, 3, 3, 1), 2)
    assert rep.defined and rep.index == 3
    assert not n_index((1,), 2).defined
    rep = n_index((1, 1, 1), 2)
    assert rep.defined and rep.index == 1
    with pytest.raises(ValueError):
        n_index((), 2)


def test_kn_index_examples():
    rep = kn_index((6, 2, 2, 2, 2, 1), 1, 3)
    assert rep.defined and rep.index == 2 and rep.shape == "a"
    rep = kn_index((7, 6, 3, 2, 2), 1, 3)
    assert rep.defined and rep.index == 2 and rep.shape == "b"
    with pytest.raises(ValueError):
        kn_index((), 1, 3)
    with pytest.raises(ValueError):
        kn_index((1, 1), 2, 3)  # the single column of k boxes is excluded
    with pytest.raises(ValueError):
        kn_index((2, 1), 3, 2)  # k beyond n


def test_kn_index_k0_matches_n_index():
    for lam in all_in_box(6, 6):
        if not lam:
            continue
        for n in (1, 2, 3):
            plain = n_index(lam, n)
            variant = kn_index(lam, 0, n)
            assert plain.defined == variant.defined
            if plain.defined:
                assert plain.index == variant.index


def test_index_row_pattern():
    # rows i+1 .. i+n of an indexed partition all equal i
    for lam in all_in_box(8, 8):
        if not lam:
            continue
        for n in (1, 2, 3):
            rep = n_index(lam, n)
            if rep.defined:
                i = rep.index
                for j in range(1, n + 1):
                    assert part(lam, i + j) == i, (lam, n, i)


def test_kn_index_row_pattern():
    # the variant allows rows i+1 .. i+n to be i or i+1
    for lam in all_in_box(8, 8):
        for n in (1, 2, 3):
            for k in range(0, n + 1):
                if not lam or lam == (1,) * k:
                    continue
                rep = kn_index(lam, k, n)
                if rep.defined:
                    i = rep.index
                    for j in range(1, n + 1):
                        assert i <= part(lam, i + j) <= i + 1, (lam, k, n)


def test_row_index_matches_the_column_definition():
    # the index read off the rows equals the column definition, shape
    # included, on every partition of an 8 x 7 box
    defined = middles = 0
    for lam in all_in_box(8, 7):
        for n in range(5):
            for k in range(n + 1):
                want = column_index_oracle(lam, n, k)
                assert _row_index(lam, n, k) == want, (lam, n, k)
                defined += want is not None
                middles += want is not None and want[1]
    assert defined > 1000 and middles > 100


def test_index_dichotomy():
    # middle-range columns are exactly the failure of the index
    d, n = 6, 2
    for lam in all_in_box(2 * n, d - n - 1):
        if not lam:
            continue
        cols = transpose(lam)
        middle = any(j <= cols[j - 1] <= n + j - 1
                     for j in range(1, len(cols) + 1))
        assert middle != n_index(lam, n).defined, lam


def test_verify_wedge_examples():
    rec = verify_wedge_vanishing(6, 2, (1, 1, 1), 1)
    assert rec.ok and rec.index == 1 and rec.summands
    with pytest.raises(ValueError):
        verify_wedge_vanishing(6, 2, (5, 1), 1)  # outside the box
    with pytest.raises(ValueError):
        verify_wedge_vanishing(6, 2, (2, 1), 1)  # no index
    with pytest.raises(ValueError):
        verify_wedge_vanishing(6, 2, (1, 1, 1), 3)  # k beyond n


def test_verify_sym_examples():
    for k in range(0, 5):
        assert verify_sym_vanishing(6, 2, (1, 1, 1), k).ok
    # a partition of index n = 2: both long columns
    rep = n_index((2, 2, 2, 2), 2)
    assert rep.defined and rep.index == 2
    for k in range(0, 3):
        assert verify_sym_vanishing(6, 2, (2, 2, 2, 2), k).ok
    with pytest.raises(ValueError):
        verify_sym_vanishing(6, 2, (2, 2, 2, 2), 3)  # i = n needs k <= n


def test_verify_dual_examples():
    # r = 0 degenerates to the window bounds on the expansion itself
    rec = verify_dual_vanishing(6, 2, 0, (1, 1, 1), ())
    assert rec.ok
    for k1 in (0, 1, 2):
        assert verify_dual_vanishing(7, 2, 1, (1, 1, 1), (k1,)).ok
    # plus mode on the shape-b exemplar
    rec = verify_dual_vanishing(12, 3, 1, (7, 6, 3, 2, 2), (), "plus", 1)
    assert rec.ok and rec.index == 2
    with pytest.raises(ValueError):
        verify_dual_vanishing(7, 2, 1, (1, 1, 1), (1, 2))  # wrong list length
    with pytest.raises(ValueError):
        verify_dual_vanishing(7, 2, 1, (1, 1, 1), (1,), "plus")  # needs k


def test_verify_dual_rejects_a_negative_chain_length():
    # r below the mode's floor is named as such, with the CLI's wording,
    # not as a negative count of degrees
    with pytest.raises(ValueError, match=r"^plain mode needs r >= 0$"):
        verify_dual_vanishing(7, 2, -1, (1, 1, 1), ())
    for r in (-1, 0):
        with pytest.raises(ValueError, match=r"^plus mode needs r >= 1$"):
            verify_dual_vanishing(7, 2, r, (1, 1, 1), (), "plus", 1)
    assert verify_dual_vanishing(7, 2, 0, (1, 1, 1), ()).ok


def test_certificates_reject_partitions_one_past_the_box():
    # d = 6, n = 2, r = 0 (and d = 7, r = 1) give a 4 x 3 box; each
    # partition below carries an index, so only the box can reject it
    wide, tall = (4, 2, 2, 2), (1, 1, 1, 1, 1)
    for lam in (wide, tall):
        assert n_index(lam, 2).defined and kn_index(lam, 1, 2).defined
        for verify, args in (
                (verify_wedge_vanishing, (6, 2, lam, 1)),
                (verify_sym_vanishing, (6, 2, lam, 1)),
                (verify_dual_vanishing, (7, 2, 1, lam, (1,))),
                (verify_dual_vanishing, (7, 2, 1, lam, (), "plus", 1))):
            with pytest.raises(ValueError, match="fit in a 4 x 3 box"):
                verify(*args)


def test_verify_grids_small():
    # one complete parameter point of each proposition-style grid
    d, n = 5, 2
    for lam, rep in indexed_partitions(d, n):
        for k in range(n + 1):
            assert verify_wedge_vanishing(d, n, lam, k).ok
        cap = n if rep.index == n else 2 * n
        for k in range(cap + 1):
            assert verify_sym_vanishing(d, n, lam, k).ok
    for r in (0, 1):
        for lam, rep in indexed_partitions(d, n, r):
            kss = [()] if r == 0 else [(k,) for k in range(n + 1)]
            for ks in kss:
                assert verify_dual_vanishing(d, n, r, lam, ks).ok


def test_vanishing_flag_matches_bwb():
    # every certificate on these grids is ok, so each summand's flag is
    # compared with Borel-Weil-Bott run on its bundle from scratch
    records = []
    for d, n in ((5, 2), (7, 2), (7, 3)):
        for lam, _ in indexed_partitions(d, n):
            for k in range(n + 1):
                records.append(verify_wedge_vanishing(d, n, lam, k))
                records.append(verify_sym_vanishing(d, n, lam, k))
        for lam, _ in indexed_partitions(d, n, 1):
            for k in range(n + 1):
                records.append(verify_dual_vanishing(d, n, 1, lam, (k,)))
    summands = [(rec, s) for rec in records for s in rec.summands]
    assert summands
    for rec, s in summands:
        ctx = GrassmannianContext(rec.d, rec.n)
        assert s.bott_vanishes == bwb(quot_dual_bundle(ctx, s.delta)).vanishes

    # the zero weight, the trivial bundle, has H^0 and must be flagged
    rec = _certify(6, 2, (), 1, "dual-plain", "dual", ())
    assert [s.delta for s in rec.summands] == [(0, 0)]
    assert rec.summands[0].bott_vanishes is False and not rec.ok


def test_indexed_partitions_box_and_size():
    lams = indexed_partitions(6, 2, max_size=5)
    assert all(sum(lam) <= 5 for lam, _ in lams)
    assert all(len(lam) <= 4 and lam[0] <= 3 for lam, _ in lams)
    with_k = indexed_partitions(6, 2, k=1)
    assert all(lam != (1,) for lam, _ in with_k)


def test_lemma_triples_spot():
    checks = lemma_triples(6, 2, (1, 1, 1))
    assert checks and all(t.ok for t in checks)
    for t in checks:
        assert len(t.alpha) <= 2 and len(t.beta) <= 2 and len(t.gamma) <= 2
    with pytest.raises(ValueError):
        lemma_triples(6, 2, (2, 1))


def test_lemma_triples_bounds_are_measured():
    # the checks reflect the actual inequalities, not a constant true
    d, n = 6, 2
    lam = (2, 2, 2, 2)
    i = 2
    for t in lemma_triples(d, n, lam):
        assert part(t.alpha, i) >= i
        assert part(t.gamma, n) >= 2 * n


def _public_summands(d, n, index, functor, ks, lam):
    # The summands of a certificate built from the checked public steps:
    # the expansion, one public Pieri step per degree and Borel-Weil-Bott
    # on the bundle itself.
    ctx = GrassmannianContext(d, n)
    deltas = pieri_chain_oracle(double_bundle_expand(lam, n), n, functor, ks)
    hi = d - n + index - 1
    return tuple(
        SummandCheck(delta, mult, index <= part(delta, index) <= hi,
                     bwb(quot_dual_bundle(ctx, delta)).vanishes)
        for delta, mult in sorted(deltas.items(), reverse=True))


def _grid_records(d, n):
    # Every certificate of prop-3.1, prop-3.2 and both prop-3.3 modes at
    # r = 1, 2, as the verify grids list them, with its functor.
    for lam, rep in indexed_partitions(d, n):
        for k in range(n + 1):
            yield "wedge", verify_wedge_vanishing(d, n, lam, k)
        for k in range((n if rep.index == n else 2 * n) + 1):
            yield "sym", verify_sym_vanishing(d, n, lam, k)
    for r in (1, 2):
        for lam, _ in indexed_partitions(d, n, r):
            for ks in itertools.product(range(n + 1), repeat=r):
                yield "dual", verify_dual_vanishing(d, n, r, lam, ks)
        for k in range(n + 1):
            for lam, _ in indexed_partitions(d, n, r, k=k):
                for ks in itertools.product(range(n + 1), repeat=r - 1):
                    yield "dual", verify_dual_vanishing(d, n, r, lam, ks,
                                                        "plus", k)


def test_trusted_certificates_match_the_public_path():
    # the certificates read the cached expansion and twist it unchecked;
    # each record must equal the one the checked public steps build
    kinds = set()
    for d, n in ((6, 2), (7, 2), (7, 3), (8, 3)):
        for functor, rec in _grid_records(d, n):
            want = _public_summands(d, n, rec.index, functor, rec.ks,
                                    rec.lam)
            assert rec.summands == want, (d, n, rec.lam, rec.kind, rec.ks)
            assert rec.ok == all(c.ok for c in want)
            kinds.add(rec.kind)
    assert kinds == {"wedge", "sym", "dual-plain", "dual-plus"}
    # at rows other than lam's index some summands leave the window, and
    # both paths must flag the same ones
    outside = 0
    for lam, _ in indexed_partitions(7, 3):
        for i in range(1, 4):
            rec = _certify(7, 3, lam, i, "wedge", "wedge", (1,))
            want = _public_summands(7, 3, i, "wedge", (1,), lam)
            assert rec.summands == want, (lam, i)
            outside += sum(not c.in_window for c in want)
    assert outside


def _filtered_box(d, n, r, max_size, k):
    # indexed_partitions spelled out: every size of the box in turn,
    # filtered through the public n_index and kn_index
    rows, cols = 2 * n, d - n - r - 1
    cap = rows * cols if max_size is None else min(max_size, rows * cols)
    out = []
    for total in range(1, cap + 1):
        for lam in enumerate_in_box(rows, cols, total):
            if k is None:
                rep = n_index(lam, n)
            elif lam == (1,) * k:
                continue
            else:
                rep = kn_index(lam, k, n)
            if rep.defined:
                out.append((lam, rep))
    return out


def test_indexed_partitions_match_the_filtered_box():
    for d, n, r in ((5, 2, 0), (6, 2, 0), (7, 2, 1), (8, 3, 0), (9, 2, 2),
                    (9, 3, 1), (4, 2, 1), (3, 1, 1)):
        for max_size in (None, 0, 1, 3, 6, 11, 100):
            for k in (None, *range(n + 1)):
                assert indexed_partitions(d, n, r, max_size, k) \
                    == _filtered_box(d, n, r, max_size, k), \
                    (d, n, r, max_size, k)
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        indexed_partitions(6, 2, k=3)


def test_grid_checks_each_input_once(capsys, cold_caches, count_calls):
    # Certifying a grid normalizes each lam once, at the public boundary,
    # and never re-checks a weight the engine built, cold caches included.
    as_partition_calls = count_calls(partitions, "as_partition")
    as_weight_calls = count_calls(partitions, "as_weight")
    walks = count_calls(partitions, "_walk_box")
    assert cli.run(["verify", "prop-3.2", "--d", "8", "--n", "3"]) == 0
    cases = int(json.loads(capsys.readouterr().out)["cases"])
    assert cases > 100
    assert 0 < len(as_partition_calls) <= cases
    assert as_weight_calls == []
    assert len(walks) == 1
    # one walk of the box per call, whatever the sizes and k
    for args in ((8, 3), (9, 2, 1, None, 1), (9, 3, 0, 7)):
        walks.clear()
        indexed_partitions(*args)
        assert len(walks) == 1, args
