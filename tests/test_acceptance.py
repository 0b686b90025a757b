"""Acceptance suite: one test per stated criterion, exact equality
throughout.  Each test prints a single pass line; pytest -v doubles as the
per-criterion report."""

import math
import time

from quotcoh import indices
from quotcoh.partitions import enumerate_in_box, size
from quotcoh.quot import (
    G1,
    G2,
    check_conjecture,
    dual_wedge_product,
    embedding_data,
    quot_cohomology,
    sym_power,
    verify_resolution_propositions,
    verify_theorem,
    wedge_power,
)
from quotcoh.series import compare
from quotcoh.bott import cohomology_dims, line_bundle_p1
from quotcoh.schur import lr_coefficient, lr_expand_tensor
from oracles import schur_product


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_exterior_powers():
    start = time.time()
    cases = 0
    for N in (1, 2):
        for n in (0, 1, 2):
            for m in (n, n + 1):
                data = embedding_data(N, None, n, 0, m)
                for k in range(n + 1):
                    rep = verify_theorem(data, "A", (k,))
                    assert rep.verified, (N, n, m, k)
                    assert rep.computed.degenerate
                    assert rep.computed.dims_dict().get(0, 0) == \
                        math.comb(N * (m + 1), k)
                    assert all(i == 0 for i in rep.computed.dims_dict())
                    cases += 1
    _report("criterion 1 (exterior powers)",
            f"{cases} cases in {time.time() - start:.1f}s")


def test_criterion_02_symmetric_powers():
    start = time.time()
    cases = 0
    for N in (1, 2):
        for n in (0, 1, 2):
            for m in (n, n + 1):
                data = embedding_data(N, None, n, 0, m)
                for k in range(n + 1):
                    rep = verify_theorem(data, "B", (k,))
                    assert rep.verified, (N, n, m, k)
                    assert rep.computed.dims_dict().get(0, 0) == \
                        math.comb(N * (m + 1) + k - 1, k)
                    cases += 1
    _report("criterion 2 (symmetric powers)",
            f"{cases} cases in {time.time() - start:.1f}s")


def test_criterion_03_dualized_exterior_powers():
    start = time.time()
    cases = 0
    for n in (1, 2):
        data = embedding_data(2, None, n, 0, n)
        for k1 in range(1, n + 1):
            for side in (G2, G1):  # deg M - deg L = 0 and 1
                rep = verify_theorem(data, "C", (k1,), (side,))
                assert rep.verified, (n, k1, side)
                assert all(p.is_zero for _, p in rep.computed.per_term)
                cases += 1
    _report("criterion 3 (dualized exterior powers)",
            f"{cases} cases in {time.time() - start:.1f}s")


def test_criterion_04_per_term_certification():
    start = time.time()
    data = embedding_data(2, None, 2, 0, 2)
    assert data.rank_e == 8
    for sheaf, kind in ((wedge_power(1), "wedge"),
                        (sym_power(2), "sym"),
                        (dual_wedge_product(((1, G2),)), "dual")):
        rep = verify_resolution_propositions(data, sheaf)
        assert rep.ok, kind
        for ell, profile, _ in rep.rows:
            if kind == "dual" or ell >= 1:
                assert profile.is_zero, (kind, ell)
            else:
                assert all(i == 0 for i, _ in profile.dims)
    _report("criterion 4 (per-term certification)",
            f"3 resolutions x 9 terms in {time.time() - start:.1f}s")


def test_criterion_05_vanishing_propositions():
    start = time.time()
    checks = 0
    for d, n in ((5, 2), (6, 2), (7, 3)):
        for lam, rep in indices.indexed_partitions(d, n):
            for k in range(n + 1):
                rec = indices.verify_wedge_vanishing(d, n, lam, k)
                assert rec.ok, ("wedge", d, n, lam, k)
                checks += len(rec.summands)
            cap = n if rep.index == n else 2 * n
            for k in range(cap + 1):
                rec = indices.verify_sym_vanishing(d, n, lam, k)
                assert rec.ok, ("sym", d, n, lam, k)
                checks += len(rec.summands)
        for r in (0, 1):
            for lam, _ in indices.indexed_partitions(d, n, r):
                ks_lists = [()] if r == 0 else [(k,) for k in range(n + 1)]
                for ks in ks_lists:
                    rec = indices.verify_dual_vanishing(d, n, r, lam, ks)
                    assert rec.ok, ("dual", d, n, r, lam, ks)
                    checks += len(rec.summands)
            if r >= 1:
                for k in range(n + 1):
                    for lam, _ in indices.indexed_partitions(d, n, r, k=k):
                        rec = indices.verify_dual_vanishing(
                            d, n, r, lam, (), "plus", k)
                        assert rec.ok, ("dual-plus", d, n, lam, k)
                        checks += len(rec.summands)
    _report("criterion 5 (vanishing propositions)",
            f"{checks} summand checks in {time.time() - start:.1f}s")


def test_criterion_06_supporting_lemmas():
    start = time.time()
    d, n = 6, 2
    triples = 0
    for lam, _ in indices.indexed_partitions(d, n, max_size=10):
        for check in indices.lemma_triples(d, n, lam):
            assert check.ok, (lam, check)
            triples += 1
    assert triples > 0
    _report("criterion 6 (supporting lemmas)",
            f"{triples} triples in {time.time() - start:.1f}s")


def test_criterion_07_lr_oracle_equivalence():
    start = time.time()
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    parts = [lam for s in range(7) for lam in enumerate_in_box(6, 6, s)]
    triples = 0
    for alpha in parts:
        for beta in parts:
            if size(alpha) + size(beta) > 6:
                continue
            expected = schur_product(alpha, beta, 6)
            assert lr_expand_tensor(alpha, beta) == expected, (alpha, beta)
            for gamma in enumerate_in_box(6, 6, size(alpha) + size(beta)):
                assert lr_coefficient(alpha, beta, gamma) == \
                    expected.get(gamma, 0)
                triples += 1
    _report("criterion 7 (LR oracle equivalence)",
            f"{triples} triples in {time.time() - start:.1f}s")


def test_criterion_08_line_oracle():
    start = time.time()
    for t in range(-5, 6):
        dims = cohomology_dims(line_bundle_p1(t))
        assert (dims.get(0, 0), dims.get(1, 0)) == \
            (max(t + 1, 0), max(-t - 1, 0)), t
    _report("criterion 8 (line bundle oracle)",
            f"11 twists in {time.time() - start:.2f}s")


def test_criterion_09_projective_space_cross_check():
    start = time.time()
    data = embedding_data(2, None, 1, 1, 1)
    euler_sequence = {0: 1, 1: 4, 2: 6, 3: 4}
    for k in range(4):
        rep = check_conjecture(data, "wedge", (k,), (1,))
        assert rep.verified
        assert rep.computed == math.comb(4, k) == euler_sequence[k]
    _report("criterion 9 (projective space cross-check)",
            f"k = 0..3 in {time.time() - start:.2f}s")


def test_criterion_10_conjecture_probe():
    start = time.time()
    data = embedding_data(2, None, 2, 1, 3)
    cases = 0
    for deg_l in (2, 3):
        for k in range(6):   # bound k <= n + r(a+1) = 5 with a = 2, b = 0
            rep = check_conjecture(data, "wedge", (k,), (deg_l,))
            assert rep.verified, (deg_l, k)
            assert rep.computed == math.comb(2 * (deg_l + 1), k)
            cases += 1
    _report("criterion 10 (positive-rank conjecture probe)",
            f"{cases} cases in {time.time() - start:.1f}s")


def test_criterion_11_series_identities():
    start = time.time()
    for kind in ("wedge", "sym"):
        comparison = compare(kind, 2, 4, 3)
        assert comparison.equal, (kind, comparison.mismatches)
    dual = compare("dual", 2, 4, 3)
    assert dual.equal
    for n in range(4):
        assert dual.resolution[n][0] == 1
        for k in range(1, n + 1):
            assert dual.resolution[n][k] == 0
    _report("criterion 11 (series identities)",
            f"three kinds at degL=4, n<=3 in {time.time() - start:.1f}s")


def test_criterion_12_twist_independence():
    start = time.time()
    via_b2 = embedding_data(2, None, 2, 0, 3)
    via_b1 = embedding_data(2, None, 2, 0, 4)
    chi2 = quot_cohomology(via_b2, wedge_power(1, G2)).chi
    chi1 = quot_cohomology(via_b1, wedge_power(1, G1)).chi
    assert chi1 == chi2 == 8
    _report("criterion 12 (embedding independence)",
            f"chi = {chi1} both ways in {time.time() - start:.1f}s")
