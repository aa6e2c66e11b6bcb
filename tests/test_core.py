"""Core types: the axiom checker against a brute-force oracle, the
params and star-pattern records, and the text formats."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOLDEN_PARAMS, golden_grid
from pda_workbench.cli import _frac_dict, _frac_text
from pda_workbench.core import (
    MAX_ROWS,
    STAR,
    MalformedGridError,
    PdaGrid,
    PdaParams,
    StarPattern,
    format_pda,
    format_placement,
    parse_pda,
    parse_placement,
    pda_params,
    ratio,
    to_star_pattern,
    verify_pda,
)

# ---------------------------------------------------------------------------
# verify_pda vs a brute-force oracle
# ---------------------------------------------------------------------------
#
# The oracle restates the axioms with no shared machinery: quadratic scan
# over all cell pairs, nothing bucketed.  It only reports WHICH axioms
# break, so the comparison is on the violated-axiom set.


def oracle_broken_axioms(rows):
    f, k = len(rows), len(rows[0])
    broken = set()
    star_counts = {sum(1 for j in range(f) if rows[j][c] == STAR) for c in range(k)}
    if len(star_counts) > 1:
        broken.add("C1")
    symbols = sorted({c for row in rows for c in row if c != STAR})
    if symbols and symbols != list(range(1, symbols[-1] + 1)):
        broken.add("C2")
    cells = [(j, c) for j in range(f) for c in range(k) if rows[j][c] != STAR]
    for (j1, c1), (j2, c2) in itertools.combinations(cells, 2):
        if rows[j1][c1] != rows[j2][c2]:
            continue
        if j1 == j2 or c1 == c2:
            broken.add("C3a")
        elif rows[j1][c2] != STAR or rows[j2][c1] != STAR:
            broken.add("C3b")
    return broken


def assert_matches_oracle(rows):
    res = verify_pda(rows)
    expected = oracle_broken_axioms(rows)
    assert {v.axiom for v in res.violations} == expected
    assert res.valid == (not expected)


random_rows = st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=k, max_size=k),
        min_size=1,
        max_size=5,
    )
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(random_rows)
def test_verifier_matches_oracle_on_random_grids(rows):
    assert_matches_oracle([tuple(r) for r in rows])


# Random grids rarely come close to satisfying the axioms, so also start
# from known-valid arrays and flip a few cells: that is where the C3b
# cross-cell logic and near-miss C1 cases actually get exercised.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.sampled_from(sorted(GOLDEN_PARAMS)),
    st.data(),
)
def test_verifier_matches_oracle_on_mutated_goldens(name, data):
    rows = [list(r) for r in GOLDEN_PARAMS[name][0]]
    f, k = len(rows), len(rows[0])
    s = max(c for row in rows for c in row)
    for _ in range(data.draw(st.integers(1, 3))):
        j = data.draw(st.integers(0, f - 1))
        c = data.draw(st.integers(0, k - 1))
        rows[j][c] = data.draw(st.integers(0, s + 1))
    assert_matches_oracle([tuple(r) for r in rows])


def test_goldens_verify_clean():
    for name, (cells, params) in GOLDEN_PARAMS.items():
        res = verify_pda(cells)
        assert res.valid and res.violations == (), name
        assert tuple(pda_params(PdaGrid(cells))) == params, name


# ---------------------------------------------------------------------------
# individual violations, with exact cells and details
# ---------------------------------------------------------------------------


def test_c1_reports_mismatched_column():
    res = verify_pda(((STAR, 1), (STAR, STAR)))
    assert [v.axiom for v in res.violations] == ["C1"]
    v = res.violations[0]
    assert v.cells == ((1, 2),)
    assert v.detail == "column 2 has 1 stars, column 1 has 2"


def test_c2_reports_missing_symbol():
    res = verify_pda(((1, 3),))
    assert [(v.axiom, v.cells, v.detail) for v in res.violations] == [
        ("C2", (), "symbol 2 never appears")
    ]


def test_c3a_same_row_and_same_column():
    res = verify_pda(((1, 1),))
    assert [(v.axiom, v.cells) for v in res.violations] == [("C3a", ((1, 1), (1, 2)))]
    assert "same row" in res.violations[0].detail

    res = verify_pda(((1,), (1,)))
    assert [(v.axiom, v.cells) for v in res.violations] == [("C3a", ((1, 1), (2, 1)))]
    assert "same column" in res.violations[0].detail


def test_c3b_cross_cells_must_be_stars():
    # Symbols 1 and 2 each appear twice on a diagonal whose cross cells
    # hold the other symbol, so both pairs break C3b.
    res = verify_pda(((1, 2), (2, 1)))
    assert [(v.axiom, v.cells) for v in res.violations] == [
        ("C3b", ((1, 1), (2, 2))),
        ("C3b", ((1, 2), (2, 1))),
    ]


def test_violations_come_back_sorted():
    # A thoroughly broken grid; just confirm the reported order is the
    # documented (axiom, cells, detail) sort.
    res = verify_pda(((1, 1, STAR), (3, STAR, 3), (STAR, 1, STAR)))
    keys = [(v.axiom, v.cells, v.detail) for v in res.violations]
    assert keys == sorted(keys)
    assert not res.valid


# ---------------------------------------------------------------------------
# params and structural errors
# ---------------------------------------------------------------------------


def test_pda_params_requires_uniform_stars():
    with pytest.raises(ValueError, match="column 1 has 2, column 2 has 1"):
        pda_params(PdaGrid(((STAR, 1), (STAR, STAR))))


def test_params_fractions_are_exact():
    p = pda_params(golden_grid("GRID_K4_F6_Z3"))
    assert p.rate == (2, 3)
    assert p.memory_ratio == (1, 2)
    assert tuple(p) == (4, 6, 3, 4)


def test_ratio_and_the_cli_rate_text_agree_with_fractions():
    # Fraction is the reference: the pair is its numerator and denominator,
    # the text is str(Fraction), the JSON is {"num", "den"}, and table's six
    # places round as float(Fraction) does.  The cases: zero, denominators
    # of 1, equal values, shared factors, and a seeded sweep up to 40 digits.
    big = 10 ** 40 - 1
    cases = [(0, 1), (0, 7), (0, big), (1, 1), (5, 1), (big, 1), (7, 7), (big, big),
             (6, 4), (48, 16), (17, 15), (2 * 3 ** 80, 3 ** 81)]
    rng = random.Random(29)
    for digits in (1, 2, 3, 6, 12, 20, 40):
        top = 10 ** digits - 1
        for _ in range(60):
            g = rng.randint(1, top)
            cases.append((rng.randint(0, top), rng.randint(1, top)))
            cases.append((rng.randint(0, top) * g, rng.randint(1, top) * g))
    for num, den in cases:
        want = Fraction(num, den)
        pair = ratio(num, den)
        assert pair == (want.numerator, want.denominator), (num, den)
        assert type(pair[0]) is int and type(pair[1]) is int
        assert _frac_text(pair) == str(want)
        assert _frac_dict(pair) == {"num": want.numerator, "den": want.denominator}
        assert f"{pair[0] / pair[1]:.6f}" == f"{float(want):.6f}"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=0, f=1, z=0, s=0),
        dict(k=1, f=0, z=0, s=0),
        dict(k=1, f=2, z=3, s=0),
        dict(k=1, f=2, z=-1, s=0),
        dict(k=1, f=2, z=1, s=-1),
    ],
)
def test_bad_params_rejected(kwargs):
    with pytest.raises(ValueError):
        PdaParams(**kwargs)


@pytest.mark.parametrize(
    "cells",
    [
        (),
        ((),),
        ((1, 2), (3,)),  # ragged
        ((1, -2),),
        ((1, True),),  # bools are not symbol ids
        ((1, "2"),),
    ],
)
def test_malformed_grids_rejected(cells):
    with pytest.raises(MalformedGridError):
        PdaGrid(cells)


def test_row_cap_enforced():
    with pytest.raises(MalformedGridError, match="row cap"):
        PdaGrid(tuple((STAR,) for _ in range(MAX_ROWS + 1)))
    with pytest.raises(ValueError, match="row cap"):
        StarPattern(MAX_ROWS + 1, (0,))


# ---------------------------------------------------------------------------
# star patterns
# ---------------------------------------------------------------------------


def test_star_pattern_round_trip():
    pat = to_star_pattern(golden_grid("GRID_K4_F6_Z3"))
    assert pat.f == 6 and pat.k == 4
    assert pat.uncached_sets() == [(4, 5, 6), (2, 3, 6), (1, 3, 5), (1, 2, 4)]
    assert pat.sizes() == (3, 3, 3, 3)
    assert pat.uniform_z() == 3


def test_uniform_z_none_when_sizes_differ():
    pat = StarPattern(3, (0b001, 0b011))
    assert pat.uniform_z() is None
    assert pat.sizes() == (1, 2)


def test_star_pattern_rejects_bad_masks():
    with pytest.raises(ValueError, match="mask"):
        StarPattern(2, (1 << 2,))
    with pytest.raises(ValueError, match="at least one user"):
        StarPattern(2, ())


@pytest.mark.parametrize("f", [0, -1])
def test_star_pattern_needs_a_row(f):
    with pytest.raises(ValueError, match=rf"need F >= 1, got {f}$"):
        StarPattern(f, (0,))


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def test_pda_text_round_trip_on_goldens():
    for name in GOLDEN_PARAMS:
        g = golden_grid(name)
        assert parse_pda(format_pda(g)) == g, name


def test_parse_pda_relabels_preserving_order():
    g = parse_pda("PDA 1 3\n9 * 5\n")
    assert g.cells == ((2, STAR, 1),)


def test_placement_text_round_trip():
    for name in GOLDEN_PARAMS:
        pat = to_star_pattern(golden_grid(name))
        text = format_placement(pat)
        assert parse_placement(text) == pat, name
        # spot-check the surface form once
    assert format_placement(StarPattern(2, (0b01, 0b10))) == (
        "PLC 2 2\n. *\n* .\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        "",
        "PDA 2\n* *\n* *\n",
        "XYZ 1 1\n*\n",
        "PDA x 1\n*\n",
        "PDA 0 1\n",  # no rows
        pytest.param("PDA 4097 1\n" + "*\n" * 4097, id="PDA-past-the-row-cap"),
        "PDA 2 1\n*\n",  # row count mismatch
        "PDA 1 2\n*\n",  # token count mismatch
        "PDA 1 1\nzap\n",
        "PDA 1 1\n0\n",
        "PDA 1 1\n-3\n",
    ],
)
def test_parse_pda_rejects_malformed_text(text):
    with pytest.raises(MalformedGridError):
        parse_pda(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "PDA 1 1\n*\n",  # wrong magic for a placement
        "PLC 2\n. .\n. .\n",
        "PLC x 1\n.\n",
        "PLC 1 0\n.\n",  # no columns
        pytest.param("PLC 4097 1\n" + ".\n" * 4097, id="PLC-past-the-row-cap"),
        "PLC 1 1\nx\n",
        "PLC 2 1\n*\n",
        "PLC 1 2\n*\n",
    ],
)
def test_parse_placement_rejects_malformed_text(text):
    with pytest.raises(MalformedGridError):
        parse_placement(text)
