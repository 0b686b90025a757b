import math

import pytest

from quotcoh.series import closed_form, compare, resolution_series


def test_closed_form_coefficients():
    n_chi = 6
    wedge = closed_form("wedge", n_chi, 5)
    assert len(wedge) == 6 and all(len(row) == 6 for row in wedge)
    assert wedge[0][0] == 1
    for n in range(6):
        for k in range(6):
            expected = math.comb(n_chi, k) if k <= n else 0
            assert wedge[n][k] == expected
    dual = closed_form("dual", n_chi, 5)
    for n in range(6):
        for k in range(6):
            assert dual[n][k] == (1 if k == 0 else 0)
    sym = closed_form("sym", n_chi, 5)
    for n in range(6):
        for k in range(6):
            expected = math.comb(n_chi + k - 1, k) if k <= n else 0
            assert sym[n][k] == expected


def test_resolution_series_values():
    series = resolution_series("wedge", 2, 3, 2)
    assert series[0][0] == 1
    assert series[1][1] == 8
    assert series[2][1] == 8  # binom(N chi(L), 1)
    assert series[2][2] == math.comb(8, 2)
    with pytest.raises(ValueError):
        resolution_series("wedge", 2, 1, 2)  # deg L below n_max


def test_compare_small_grids():
    for kind in ("wedge", "sym", "dual"):
        comparison = compare(kind, 2, 2, 2)
        assert comparison.equal, comparison.mismatches
        assert comparison.window == ((0, 0), (1, 0), (1, 1),
                                     (2, 0), (2, 1), (2, 2))


def test_compare_single_summand():
    comparison = compare("wedge", 1, 2, 2)
    assert comparison.equal


def test_compare_split_bundle():
    # a nontrivial splitting only shifts the section count
    for kind in ("wedge", "sym", "dual"):
        comparison = compare(kind, 2, 2, 1, splitting=(1, 0))
        assert comparison.equal, (kind, comparison.mismatches)
