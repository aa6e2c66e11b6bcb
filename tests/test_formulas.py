"""Closed forms against independent enumerations.

The oracles here never call the helper under test: residue classes are
recounted with itertools.product, fibers are rebuilt from the actual
construction rows, and the bound constants are compared against the
prescribed-ordering evaluation on real patterns.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest

from pda_workbench import formulas
from pda_workbench.bounds import eval_ordering, partition_ordering
from pda_workbench.constructions import partition_pda, partition_rows, residue_q
from pda_workbench.core import to_star_pattern
from pda_workbench.formulas import (
    PartitionCounts,
    RatioReport,
    binomial_identity_check,
    formula_ratio,
    geometric_sum,
    lemma3_intersection,
    partition_bound_closed,
    partition_bound_printed_odd,
    partition_counts,
    phi,
    ratio_report,
)

# ---------------------------------------------------------------------------
# shrink factor
# ---------------------------------------------------------------------------


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


def test_phi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        phi(1, 1)
    with pytest.raises(ValueError):
        phi(3, 0)
    with pytest.raises(ValueError):
        phi(3, 4)


# ---------------------------------------------------------------------------
# residue-class sizes
# ---------------------------------------------------------------------------


def brute_residue_classes(q, m):
    counts = {v: 0 for v in range(1, q + 1)}
    for tail in itertools.product(range(1, q), repeat=m - 1):
        counts[residue_q(sum(tail), q)] += 1
    return counts


@pytest.mark.parametrize("q,m", [(q, m) for q in range(2, 7) for m in range(1, 9)])
def test_residue_class_sizes_match_enumeration(q, m):
    counts = partition_counts(q, m)
    brute = brute_residue_classes(q, m)
    assert counts.c_sizes == brute
    assert counts.e_size == (q - 1) ** m
    assert all(partition_counts(q, m).c_sizes[v] == brute[v] for v in range(1, q + 1))


@pytest.mark.parametrize("q,m", [(q, m) for q in range(2, 7) for m in range(2, 9)])
def test_two_size_law_with_parity_dependent_exception(q, m):
    sizes = sorted(partition_counts(q, m).c_sizes.values())
    base = (q - 1) ** (m - 1)
    if m % 2 == 0:
        # one residue class runs q-1 short of the others
        assert sizes == [(base - q + 1) // q] + [(base + 1) // q] * (q - 1)
    else:
        assert sizes == [(base - 1) // q] * (q - 1) + [(base + q - 1) // q]


def test_partition_counts_must_cover_all_tails():
    with pytest.raises(ValueError, match="partition the tails"):
        PartitionCounts(q=3, m=2, c_sizes={1: 1, 2: 0, 3: 0}, e_size=4)


# ---------------------------------------------------------------------------
# fiber intersections
# ---------------------------------------------------------------------------


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
                assert lemma3_intersection(
                    q, m, l, residues, f_tail
                ) == fiber_survivors_from_construction(q, m, residues, f_tail)


def test_fiber_intersection_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lemma3_intersection(3, 2, 0, (), (1,))
    with pytest.raises(ValueError):
        lemma3_intersection(3, 2, 3, (1, 2, 3), (1,))  # l > q-1
    with pytest.raises(ValueError):
        lemma3_intersection(3, 2, 2, (1, 1), (1,))  # repeated residue
    with pytest.raises(ValueError):
        lemma3_intersection(3, 2, 1, (4,), (1,))  # residue out of range
    with pytest.raises(ValueError):
        lemma3_intersection(3, 3, 1, (1,), (1,))  # tail too short
    with pytest.raises(ValueError):
        lemma3_intersection(3, 2, 1, (1,), (3,))  # tail entry hits q


# ---------------------------------------------------------------------------
# geometric identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", range(2, 11))
def test_geometric_sum_closed_form(q):
    for m in range(1, 13):
        expected = sum((q - 1) ** u * q ** (m - u) for u in range(1, m + 1))
        assert geometric_sum(q, m) == expected == (q - 1) * q ** m - (q - 1) ** (m + 1)


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
    with pytest.raises(ValueError, match="row cap"):
        partition_bound_closed(3, 9)  # 3^9 rows is past the bitmask cap
    with pytest.raises(ValueError):
        partition_bound_closed(3, 1)


def test_printed_odd_constant_is_non_integral_and_undershoots():
    printed = partition_bound_printed_odd(3, 3)
    assert printed == Fraction(140, 3)
    assert printed.denominator != 1
    assert printed < partition_bound_closed(3, 3)


# ---------------------------------------------------------------------------
# stage-sum identity
# ---------------------------------------------------------------------------


def test_stage_sum_identity_everywhere_it_is_defined():
    checked = 0
    for m in range(3, 17):
        for a in range(1, m):
            for b in range(1, m - a):
                assert binomial_identity_check(m, a, b) == comb(m, a + b)
                checked += 1
    assert checked == 560


def test_stage_sum_identity_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        binomial_identity_check(4, 2, 2)  # needs a+b < m
    with pytest.raises(ValueError):
        binomial_identity_check(4, 0, 1)


# ---------------------------------------------------------------------------
# ratio reports
# ---------------------------------------------------------------------------


def test_formula_ratio_is_derived_over_construction():
    for q in (2, 3, 4, 5):
        for m in (2, 3, 4):
            assert formula_ratio(q, m) == Fraction(
                partition_bound_closed(q, m), (q - 1) * q ** m
            )
    assert formula_ratio(3, 2) == Fraction(5, 6)
    assert formula_ratio(3, 3) == Fraction(47, 54)


@pytest.mark.parametrize("m", range(1, 11))
def test_formula_ratio_is_exactly_one_at_q2(m):
    assert formula_ratio(2, m) == 1


@pytest.mark.parametrize("q", range(3, 9))
def test_formula_ratio_strictly_below_one_otherwise(q):
    assert all(formula_ratio(q, m) < 1 for m in range(1, 9))


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


def test_ratio_report_enforces_the_sandwich():
    with pytest.raises(ValueError, match="outside"):
        RatioReport(
            q=3, m=2, s_pda=18, s_derived=15, s_exact=19,
            mu=Fraction(19, 15), formula_ratio=Fraction(5, 6),
        )
