"""Closed forms against independent enumerations.

The paper's proof arithmetic is stated here in its shortest form, next to
an oracle that never calls it: residue classes are counted by
enumeration and checked against the order `partition_ordering` visits
them in, fibers are rebuilt from the actual construction rows, and the bound constants are compared against the
prescribed-ordering evaluation on real patterns.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest

from conftest import replayed_ordering_value
from pda_workbench import formulas
from pda_workbench.bounds import eval_ordering
from pda_workbench.constructions import (
    partition_columns,
    partition_ordering,
    partition_pda,
    partition_rows,
    residue_q,
)
from pda_workbench.core import to_star_pattern
from pda_workbench.formulas import (
    RatioReport,
    partition_bound_closed,
    ratio_report,
)

# ---------------------------------------------------------------------------
# shrink factor
# ---------------------------------------------------------------------------


def phi(q, z):
    """(q-z) q^(z-1) / (q-1)^z, the step-z shrink factor of the bound sum."""
    return Fraction((q - z) * q ** (z - 1), (q - 1) ** z)


def test_phi_spot_values():
    assert phi(3, 2) == Fraction(3, 4)
    assert phi(4, 2) == Fraction(8, 9)
    assert phi(4, 3) == Fraction(16, 27)
    assert phi(2, 2) == 0


@pytest.mark.parametrize("q", [3, 5, 8, 13, 21, 34, 64])
def test_phi_starts_at_one_then_strictly_shrinks(q):
    values = [phi(q, z) for z in range(1, q + 1)]
    assert values[0] == 1
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v < 1 for v in values[1:])
    assert values[-1] == 0


# ---------------------------------------------------------------------------
# residue-class sizes
# ---------------------------------------------------------------------------


def two_size_law(q, m):
    """The residue class sizes the paper states for m >= 2, ascending: q-1
    classes of one size and one exception, one smaller for even m and one
    larger for odd m.  Each count must come out integral."""
    base = (q - 1) ** (m - 1)
    if m % 2 == 0:
        sizes = [base - q + 1] + [base + 1] * (q - 1)
    else:
        sizes = [base - 1] * (q - 1) + [base + q - 1]
    assert all(size % q == 0 for size in sizes), (q, m)
    return [size // q for size in sizes]


def residue_counts(q, m):
    """How many tails (f_2..f_m) over [q-1] hit each residue <sum>_q, by
    enumeration."""
    counts = {v: 0 for v in range(1, q + 1)}
    for tail in itertools.product(range(1, q), repeat=m - 1):
        counts[residue_q(sum(tail), q)] += 1
    return counts


def checksum_order(q, m):
    """The v's of the checksum columns (m+1, v), in the order
    `partition_ordering` visits them."""
    cols = partition_columns(q, m)
    visited = [cols[k - 1] for k in partition_ordering(q, m)[m : m + q]]
    assert all(u == m + 1 for u, _ in visited), visited
    return [v for _, v in visited]


@pytest.mark.parametrize("q,m", [(q, m) for q in range(2, 7) for m in range(1, 9)])
def test_residue_class_sizes_match_enumeration(q, m):
    brute = residue_counts(q, m)
    assert sum(brute.values()) == (q - 1) ** (m - 1)
    assert checksum_order(q, m) == sorted(brute, key=lambda v: (-brute[v], v))


@pytest.mark.parametrize("q,m", [(q, m) for q in range(2, 7) for m in range(2, 9)])
def test_two_size_law_with_parity_dependent_exception(q, m):
    assert sorted(residue_counts(q, m).values()) == two_size_law(q, m)


# ---------------------------------------------------------------------------
# fiber intersections
# ---------------------------------------------------------------------------


def fiber_closed_form(q, residues, f_tail):
    """Lemma 3: the fiber's q-1 rows hit every checksum residue except
    <sum f_tail>_q once, so avoiding l residues leaves q-l rows if that one
    is among them, else q-l-1."""
    l = len(residues)
    return q - l if residue_q(sum(f_tail), q) in residues else q - l - 1


def fiber_survivors_from_construction(q, m, residues, f_tail):
    """Count the fiber's rows straight off the construction's row list."""
    forbidden = set(residues)
    return sum(
        1
        for row in partition_rows(q, m)
        if row[1:m] == tuple(f_tail) and row[0] != q and row[m] not in forbidden
    )


@pytest.mark.parametrize("q,m", [(q, m) for q in range(2, 6) for m in range(2, 5)])
def test_fiber_intersections_match_the_real_rows(q, m):
    for f_tail in itertools.product(range(1, q), repeat=m - 1):
        for l in range(1, q):
            for residues in itertools.combinations(range(1, q + 1), l):
                assert fiber_closed_form(
                    q, residues, f_tail
                ) == fiber_survivors_from_construction(q, m, residues, f_tail)


# ---------------------------------------------------------------------------
# geometric identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", range(2, 11))
def test_geometric_sum_closed_form(q):
    for m in range(1, 13):
        total = sum((q - 1) ** u * q ** (m - u) for u in range(1, m + 1))
        assert total == (q - 1) * q ** m - (q - 1) ** (m + 1)


# ---------------------------------------------------------------------------
# partition bound values
# ---------------------------------------------------------------------------


def ordered_value(q, m):
    pattern = to_star_pattern(partition_pda(q, m))
    return eval_ordering(pattern, partition_ordering(q, m)).value


def test_bound_at_q3_m2_is_15():
    assert partition_bound_closed(3, 2) == 15


def test_bound_at_q3_m3_is_47():
    assert partition_bound_closed(3, 3) == 47 == ordered_value(3, 3)


@pytest.mark.parametrize("q,m", [(q, m) for q in (3, 4, 5) for m in (2, 4)])
def test_even_m_closed_form_matches_the_ordering_oracle(q, m):
    assert partition_bound_closed(q, m) == ordered_value(q, m)


@pytest.mark.parametrize("m", range(2, 9))
def test_q2_bound_is_the_full_symbol_count(m):
    assert partition_bound_closed(2, m) == 2 ** m


def test_even_m_closed_form_needs_no_pattern():
    # 289 rows would be fine too, but the point is the even-m branch is
    # pure arithmetic: (q-1)q^m - (q-1)^(m+1)/2 + (q-1)/2 at q=17, m=2.
    assert partition_bound_closed(17, 2) == 16 * 289 - 16 ** 3 // 2 + 8


def test_odd_m_needs_the_rows_to_fit():
    # It does not: the closed form builds no rows at any m.  Each shape past
    # the 4,096-row cap, odd and even m, agrees with the replayed ordering.
    for q, m in [(3, 9), (4, 7), (6, 5), (3, 8), (7, 5), (2, 13)]:
        assert q ** m > 4096
        assert partition_bound_closed(q, m) == replayed_ordering_value(q, m), (q, m)
    with pytest.raises(ValueError):
        partition_bound_closed(3, 1)


def test_printed_odd_constant_is_non_integral_and_undershoots():
    # The odd-m bound as printed, (q-1)q^m - (q-1)^(m+1)/2 + (q-1)/q:
    # non-integral at q=3, so it cannot count symbols and is never asserted.
    q, m = 3, 3
    printed = (q - 1) * q ** m - Fraction((q - 1) ** (m + 1), 2) + Fraction(q - 1, q)
    assert printed == Fraction(140, 3)
    assert printed.denominator != 1
    assert printed < partition_bound_closed(3, 3)


# ---------------------------------------------------------------------------
# stage-sum identity
# ---------------------------------------------------------------------------


def stage_sum(m, a, b):
    """The bipartite ordering's step sizes for a+b < m:
    C(a,a) C(m-a,b) + sum over i in [0, m-a-b-1] of C(a+i, a-1) C(m-a-i-1, b)."""
    return comb(a, a) * comb(m - a, b) + sum(
        comb(a + i, a - 1) * comb(m - a - i - 1, b) for i in range(m - a - b)
    )


def test_stage_sum_identity_everywhere_it_is_defined():
    checked = 0
    for m in range(3, 17):
        for a in range(1, m):
            for b in range(1, m - a):
                assert stage_sum(m, a, b) == comb(m, a + b)
                checked += 1
    assert checked == 560


# ---------------------------------------------------------------------------
# running-union sum
# ---------------------------------------------------------------------------


def union_sum(pattern, order):
    """sum_h |complement(A_{i_1}) | .. | complement(A_{i_h})|, the
    running-union sum over a full ordering of the users."""
    full = (1 << pattern.f) - 1
    union = total = 0
    for u in order:
        union |= full & ~pattern.masks[u - 1]
        total += union.bit_count()
    return total


# ---------------------------------------------------------------------------
# ratio reports
# ---------------------------------------------------------------------------


def test_formula_ratio_is_derived_over_construction():
    for q in (2, 3, 4, 5):
        for m in (2, 3, 4):
            assert ratio_report(q, m).formula_ratio == Fraction(
                partition_bound_closed(q, m), (q - 1) * q ** m
            )
    assert ratio_report(3, 2).formula_ratio == Fraction(5, 6)
    assert ratio_report(3, 3).formula_ratio == Fraction(47, 54)


@pytest.mark.parametrize("m", range(2, 11))
def test_formula_ratio_is_exactly_one_at_q2(m):
    assert ratio_report(2, m).formula_ratio == 1


@pytest.mark.parametrize("q", range(3, 9))
def test_formula_ratio_strictly_below_one_otherwise(q):
    assert all(ratio_report(q, m).formula_ratio < 1 for m in range(2, 9))


def test_ratio_report_q2_closes_without_searching():
    rep = ratio_report(2, 6)
    assert rep.s_pda == rep.s_derived == rep.s_exact == 64
    assert rep.mu == 1


def test_ratio_report_q3_m2_with_exact_search():
    rep = ratio_report(3, 2, want_exact=True)
    # the true per-placement maximum (17) sits strictly between the
    # prescribed-ordering value and the construction's symbol count;
    # 17 was pinned by brute force over all 9! orderings
    assert (rep.s_derived, rep.s_exact, rep.s_pda) == (15, 17, 18)
    assert rep.mu == Fraction(17, 15)
    assert rep.formula_ratio == Fraction(5, 6)


def test_ratio_report_without_exact_leaves_the_middle_open():
    rep = ratio_report(3, 2)
    assert rep.s_exact is None and rep.mu is None


def test_ratio_report_budget_truncation_leaves_the_middle_open(monkeypatch):
    monkeypatch.setattr(formulas, "_EXACT_BUDGET", 2)
    rep = ratio_report(3, 3, want_exact=True)
    assert rep.s_exact is None


def test_ratio_report_past_the_row_cap_leaves_the_middle_open(monkeypatch):
    # partition(3, 8) would need 3^8 = 6,561 rows, past the row cap, so
    # the exact bound is never asked for.
    monkeypatch.setattr(formulas, "theorem1_exact", None)
    rep = ratio_report(3, 8, want_exact=True)
    assert (rep.s_pda, rep.s_derived, rep.s_exact, rep.mu) == (13122, 12867, None, None)


def test_ratio_report_enforces_the_sandwich():
    with pytest.raises(ValueError, match="outside"):
        RatioReport(
            q=3, m=2, s_pda=18, s_derived=15, s_exact=19,
            mu=Fraction(19, 15), formula_ratio=Fraction(5, 6),
        )
