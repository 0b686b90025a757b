import math

import pytest
from hypothesis import given, strategies as st

from quotcoh import cli, partitions
from quotcoh.partitions import (
    add,
    all_in_box,
    as_partition,
    box_by_size,
    dominates,
    enumerate_in_box,
    negate_reverse,
    pad,
    part,
    size,
    transpose,
    union,
    weyl_dim,
)
from oracles import ssyt_count, weyl_dim_pairwise


partitions_st = st.lists(st.integers(0, 8), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


def test_as_partition_normalizes():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((1, -1))


def test_transpose_examples():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(()) == ()
    # column heights of the 2-index example diagram
    assert transpose((8, 7, 4, 3, 3, 1)) == (6, 5, 5, 3, 2, 2, 2, 1)
    assert transpose((1,) * 5) == (5,)
    # column j counts the rows of length at least j
    for lam in all_in_box(5, 5):
        assert transpose(lam) == tuple(sum(1 for row in lam if row >= j)
                                       for j in range(1, part(lam, 1) + 1))


@given(partitions_st)
def test_transpose_involutive(lam):
    lam = as_partition(lam)
    assert transpose(transpose(lam)) == lam
    assert size(transpose(lam)) == size(lam)


def test_dominates_examples():
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert dominates((3, 2, 1), (2, 2, 2))
    with pytest.raises(ValueError):
        dominates((2, 1), (2,))


def test_dominance_transpose_duality():
    # alpha >= beta iff transpose(beta) >= transpose(alpha), exhaustively
    for s in range(7):
        parts = enumerate_in_box(s, s, s)
        for a in parts:
            for b in parts:
                assert dominates(a, b) == dominates(transpose(b), transpose(a))


def test_union_examples():
    assert union((2, 1), (1,)) == (2, 1, 1)
    assert union((3,), (3,)) == (3, 3)
    assert union((3, 1), (2, 2)) == (3, 2, 2, 1)


@given(partitions_st, partitions_st)
def test_union_transpose_additivity(a, b):
    a, b = as_partition(a), as_partition(b)
    assert size(union(a, b)) == size(a) + size(b)
    assert transpose(union(a, b)) == add(transpose(a), transpose(b))


def test_weyl_dim_examples():
    assert weyl_dim((1, 1), 2) == 1
    for d in range(1, 5):
        for k in range(0, 5):
            w = (k,) + (0,) * (d - 1)
            assert weyl_dim(w, d) == math.comb(d + k - 1, k)
    assert weyl_dim((2, 1, 0), 3) == 8
    # independently: count semistandard tableaux of the shape
    assert ssyt_count((2, 1), 3) == 8
    assert weyl_dim((3, 1, 0, 0), 4) == ssyt_count((3, 1), 4)


def test_weyl_dim_wedge_rows():
    for d in range(1, 6):
        for k in range(0, d + 1):
            w = (1,) * k + (0,) * (d - k)
            assert weyl_dim(w, d) == math.comb(d, k)


def test_weyl_dim_shift_invariance():
    for w in ((2, 1, 0), (3, 3, 1), (1, 0, -2)):
        base = weyl_dim(w, 3)
        for c in (-2, 1, 5):
            assert weyl_dim(tuple(e + c for e in w), 3) == base


def test_weyl_dim_errors():
    with pytest.raises(ValueError):
        weyl_dim((1, 0), 3)
    with pytest.raises(ValueError):
        weyl_dim((0, 1), 2)


def test_enumerate_in_box_examples():
    assert enumerate_in_box(2, 2, 2) == [(2,), (1, 1)]
    assert enumerate_in_box(5, 7, 0) == [()]
    total = sum(len(enumerate_in_box(2, 2, s)) for s in range(5))
    assert total == 6


def test_enumerate_in_box_counts_and_order():
    for rows in range(5):
        for cols in range(5):
            seen = []
            for s in range(rows * cols + 1):
                batch = enumerate_in_box(rows, cols, s)
                assert batch == sorted(batch, reverse=True)
                for lam in batch:
                    assert len(lam) <= rows
                    assert all(p <= cols for p in lam)
                    assert size(lam) == s
                    t = transpose(lam)
                    assert len(t) <= cols and all(p <= rows for p in t)
                seen.extend(batch)
            assert len(seen) == len(set(seen))
            assert len(seen) == math.comb(rows + cols, rows)


def test_enumerate_in_box_needs_no_stack_depth():
    # a box 1500 rows tall is walked without one frame per row
    assert enumerate_in_box(1500, 1, 1500) == [(1,) * 1500]
    assert enumerate_in_box(1500, 2, 2999) == [(2,) * 1499 + (1,)]


def test_box_by_size_is_the_sizes_in_turn():
    for rows in range(5):
        for cols in range(5):
            for lo in range(4):
                for hi in range(-1, rows * cols + 2):
                    assert box_by_size(rows, cols, lo, hi) == [
                        lam for s in range(lo, hi + 1)
                        for lam in enumerate_in_box(rows, cols, s)]
            assert all_in_box(rows, cols) == box_by_size(rows, cols, 0,
                                                         rows * cols)
    with pytest.raises(ValueError):
        box_by_size(-1, 2, 0, 3)


@given(st.lists(st.integers(-3, 3), max_size=40))
def test_weyl_dim_matches_the_pairwise_product(entries):
    # the Weyl formula over every pair i < j, equal entries included
    w = tuple(sorted(entries, reverse=True))
    assert weyl_dim(w, len(w)) == weyl_dim_pairwise(w)


@given(st.lists(st.tuples(st.integers(-15, 15), st.integers(1, 40)),
                max_size=5))
def test_weyl_dim_of_long_runs_matches_the_pairwise_product(runs):
    # runs of equal entries, with gaps between their values both below and
    # above their lengths, so each entry takes both telescoped ratios
    w = tuple(sorted((y for y, length in runs for _ in range(length)),
                     reverse=True))
    assert weyl_dim(w, len(w)) == weyl_dim_pairwise(w)


def test_every_engine_cache_is_bounded(cold_caches, capsys):
    # The engine's caches share one bound; the parser builder keeps one
    # parser per command, one per verify target and one of every command,
    # and an unknown command is served by the latter.  weyl_dim is a plain
    # function: Borel-Weil-Bott stores the dimension with its answer.
    bounds = {name: cached.cache_parameters()["maxsize"]
              for name, cached in cold_caches.items()}
    assert bounds.pop("quotcoh.cli.build_parser") == \
        len(cli._COMMANDS) + len(cli._VERIFY_TARGETS) + 1
    for argv in (["bogus"], ["verify", "bogus"], ["Series"], []):
        assert cli.run(argv) == 2
    # the parser of every command and that of verify
    assert cli.build_parser.cache_info().currsize == 2
    assert len(bounds) >= 7 and "quotcoh.quot._fill_profiles" in bounds
    assert "quotcoh.quot._g1_side" in bounds
    assert set(bounds.values()) == {partitions.CACHE_ENTRIES}
    assert not hasattr(weyl_dim, "cache_info")
    assert not hasattr(partitions, "weyl_dim_uncached")


def test_weyl_dim_of_long_flat_weights():
    # pairs of equal entries contribute 1 and are skipped, so a long weight
    # with few distinct values is quick; wedge^k and sym^k of C^d check it
    assert weyl_dim((1,) * 1500, 1500) == 1
    assert weyl_dim((0,) * 400, 400) == 1
    assert weyl_dim((1,) * 3 + (0,) * 397, 400) == math.comb(400, 3)
    assert weyl_dim((5,) + (0,) * 399, 400) == math.comb(404, 5)
    assert weyl_dim((2, 2) + (-1,) * 98, 100) == weyl_dim((3, 3) + (0,) * 98,
                                                          100)


def test_negate_reverse_involutive():
    for w in ((), (3, 1), (2, 0, -1)):
        assert negate_reverse(negate_reverse(w)) == w


def test_pad():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        pad((2, 1), 1)
