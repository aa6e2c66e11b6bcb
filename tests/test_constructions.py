"""Constructions against the frozen arrays and their parameter formulas."""

from collections import Counter
from math import comb

import pytest

from conftest import BIPARTITE_M5_A2_B1, GRID_K4_F6_Z3, PARTITION_Q3_M2
from pda_workbench.constructions import (
    bipartite_params,
    bipartite_pda,
    grouping_pda,
    mn_pda,
    partition_column_id,
    partition_columns,
    partition_params,
    partition_pda,
    partition_rows,
    residue_q,
    subsets,
)
from pda_workbench.core import STAR, pda_params, to_star_pattern, verify_pda


def symbol_multiplicities(grid):
    return Counter(c for row in grid.cells for c in row if c != STAR)


# ---------------------------------------------------------------------------
# frozen arrays, byte for byte
# ---------------------------------------------------------------------------


def test_partition_q3_m2_matches_frozen_array():
    assert partition_pda(3, 2).cells == PARTITION_Q3_M2


def test_bipartite_m5_a2_b1_matches_frozen_array():
    assert bipartite_pda(5, 2, 1).cells == BIPARTITE_M5_A2_B1


def test_mn_4_2_matches_frozen_array():
    assert mn_pda(4, 2).cells == GRID_K4_F6_Z3


def test_mn_is_the_singleton_bipartite_family():
    for k in range(2, 8):
        for t in range(1, k):
            assert mn_pda(k, t) == bipartite_pda(k, 1, t)


# ---------------------------------------------------------------------------
# partition family
# ---------------------------------------------------------------------------


def test_partition_rows_match_frozen_label_order():
    assert partition_rows(3, 2) == [
        (1, 1, 2), (2, 1, 3), (3, 1, 1),
        (1, 2, 3), (2, 2, 1), (3, 2, 2),
        (1, 3, 1), (2, 3, 2), (3, 3, 3),
    ]
    # first coordinate fastest, and the checksum closes each vector
    for q, m in [(2, 3), (4, 2)]:
        rows = partition_rows(q, m)
        assert len(rows) == q ** m
        assert all(residue_q(sum(r[:-1]), q) == r[-1] for r in rows)
        assert [r[0] for r in rows[:q]] == list(range(1, q + 1))


def test_partition_columns_are_u_major():
    cols = partition_columns(3, 2)
    assert cols == [(u, v) for u in range(1, 4) for v in range(1, 4)]
    assert all(
        partition_column_id(3, u, v) == i + 1 for i, (u, v) in enumerate(cols)
    )


@pytest.mark.parametrize(
    "q,m",
    [(q, m) for q in range(2, 6) for m in range(1, 5) if q ** m <= 256]
    + [(2, 5), (2, 6)],
)
def test_partition_sweep_valid_with_expected_params(q, m):
    grid = partition_pda(q, m)
    assert verify_pda(grid).valid
    assert pda_params(grid) == partition_params(q, m)
    # every pinned vector shows up once per coordinate group
    assert set(symbol_multiplicities(grid).values()) == {m + 1}


def test_residue_q():
    assert [residue_q(x, 3) for x in range(7)] == [3, 1, 2, 3, 1, 2, 3]


@pytest.mark.parametrize("q", [0, -3])
def test_residue_q_needs_a_positive_modulus(q):
    with pytest.raises(ValueError, match=rf"modulus must be positive, got {q}$"):
        residue_q(5, q)


@pytest.mark.parametrize("q,m", [(1, 2), (0, 1), (2, 0), (2, 13), (5, 6)])
def test_partition_rejects_bad_or_oversized_shapes(q, m):
    with pytest.raises(ValueError):
        partition_pda(q, m)


# ---------------------------------------------------------------------------
# bipartite family
# ---------------------------------------------------------------------------


def test_subsets_are_lexicographic():
    assert subsets(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert subsets(3, 3) == [(1, 2, 3)]


@pytest.mark.parametrize(
    "m,a,b",
    [
        (m, a, b)
        for m in range(2, 8)
        for a in range(1, m)
        for b in range(1, m - a + 1)
    ],
)
def test_bipartite_sweep_valid_with_expected_params(m, a, b):
    grid = bipartite_pda(m, a, b)
    assert verify_pda(grid).valid
    assert pda_params(grid) == bipartite_params(m, a, b)
    # each union symbol appears once per way of splitting it into (a, b)
    assert set(symbol_multiplicities(grid).values()) == {comb(a + b, a)}


def test_bipartite_uncached_sets_avoid_the_column_subset():
    pat = to_star_pattern(bipartite_pda(5, 2, 1))
    rows = subsets(5, 1)
    for col, block in zip(subsets(5, 2), pat.uncached_sets()):
        assert len(block) == comb(3, 1)
        assert all(not set(rows[j - 1]) & set(col) for j in block)


@pytest.mark.parametrize("m,a,b", [(3, 0, 1), (3, 1, 0), (3, 2, 2), (2, 1, 2)])
def test_bipartite_rejects_bad_shapes(m, a, b):
    with pytest.raises(ValueError):
        bipartite_pda(m, a, b)


def test_bipartite_rejects_oversized_row_count():
    with pytest.raises(ValueError, match="row cap"):
        bipartite_pda(20, 1, 10)


@pytest.mark.parametrize("k,t", [(3, 0), (3, 3), (1, 1)])
def test_mn_rejects_bad_shapes(k, t):
    with pytest.raises(ValueError):
        mn_pda(k, t)


# ---------------------------------------------------------------------------
# grouping (horizontal copies)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,a,b,h", [(4, 1, 2, 2), (5, 2, 1, 3), (4, 2, 2, 2)])
def test_grouping_is_shifted_copies(m, a, b, h):
    base = bipartite_pda(m, a, b)
    grid = grouping_pda(m, a, b, h)
    assert verify_pda(grid).valid
    assert pda_params(grid) == bipartite_params(m, a, b, h)
    shift = comb(m, a + b)
    for i in range(h):
        for k in range(1, base.k + 1):
            expect = tuple(
                STAR if c == STAR else c + i * shift for c in base.column(k)
            )
            assert grid.column(i * base.k + k) == expect


def test_grouping_single_copy_is_the_base_array():
    assert grouping_pda(4, 1, 2, 1) == bipartite_pda(4, 1, 2)


def test_grouping_rejects_bad_copy_count():
    with pytest.raises(ValueError):
        grouping_pda(4, 1, 2, 0)
