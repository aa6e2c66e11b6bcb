"""Closed-form quantities behind the partition-family bound analysis.

Everything here is exact arithmetic (ints and Fractions).  Each closed form
either self-checks against a direct enumeration (cheap ones do it inline)
or is written to be cross-checked by the test suite's independent oracles.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb
from typing import Dict, Optional, Sequence

from .bounds import eval_ordering, partition_ordering, theorem1_exact
from .constructions import partition_pda, partition_residue_buckets, residue_q
from .core import to_star_pattern

_EXACT_BUDGET = 2_000_000  # intersections for ratio_report's exact bound


def phi(q: int, z: int) -> Fraction:
    """(q-z) * q^(z-1) / (q-1)^z, the step-z shrink factor of the bound sum.

    Equals 1 at z=1 and drops strictly below 1 for 2 <= z <= q.
    """
    if q <= 1:
        raise ValueError(f"need q >= 2, got {q}")
    if not 1 <= z <= q:
        raise ValueError(f"need 1 <= z <= q, got z={z}")
    return Fraction((q - z) * q ** (z - 1), (q - 1) ** z)


class PartitionCounts(namedtuple("PartitionCounts", "q m c_sizes e_size")):
    """Residue-class sizes |C_v| for the checksum coordinate.

    C_v collects the tails (f_2..f_m) over [q-1] whose sum has least
    positive residue v; e_size is |E| = (q-1)^m, the rows with no
    q-coordinate among f_1..f_m.
    """

    __slots__ = ()

    def __new__(
        cls, q: int, m: int, c_sizes: Dict[int, int], e_size: int
    ) -> "PartitionCounts":
        if sum(c_sizes.values()) != (q - 1) ** (m - 1):
            raise ValueError("residue classes must partition the tails")
        return super().__new__(cls, q, m, c_sizes, e_size)


def partition_counts(q: int, m: int) -> PartitionCounts:
    """Bucket the tails by residue and cross-check the two-size law.

    The enumeration is the authority; the closed counts — (q-1) residues
    of one size and a single exceptional one, which side of the average
    depending on the parity of m — are asserted against it.  Which residue
    is exceptional comes out of the enumeration, not a formula.
    """
    sizes = partition_residue_buckets(q, m)
    base = (q - 1) ** (m - 1)
    if m % 2 == 0:
        expected = [(base + 1) // q] * (q - 1) + [(base - q + 1) // q]
        if (base + 1) % q or (base - q + 1) % q:
            raise AssertionError("even-m residue counts are not integral")
    else:
        expected = [(base - 1) // q] * (q - 1) + [(base + q - 1) // q]
        if m > 1 and ((base - 1) % q or (base + q - 1) % q):
            raise AssertionError("odd-m residue counts are not integral")
    if m > 1 and sorted(sizes.values()) != sorted(expected):
        raise AssertionError(
            f"residue bucket sizes {sorted(sizes.values())} disagree with "
            f"the closed counts {sorted(expected)} at q={q}, m={m}"
        )
    return PartitionCounts(q=q, m=m, c_sizes=sizes, e_size=(q - 1) ** m)


def lemma3_intersection(
    q: int, m: int, l: int, residues: Sequence[int], f_tail: Sequence[int]
) -> int:
    """Rows of the tail's fiber avoiding l forbidden checksum residues.

    The fiber F_{f_2..f_m} = {(i, f_2..f_m, <i + sum>_q) : i in [q-1]} has
    q-1 rows whose checksums hit every residue except <sum f_tail>_q
    exactly once.  Removing the rows whose checksum lies in `residues`
    leaves q-l of them if <sum f_tail>_q is among the forbidden residues
    (one forbidden value was never hit), else q-l-1.  The enumeration is
    run alongside the closed form as a self-check.
    """
    if not 1 <= l <= q - 1:
        raise ValueError(f"need 1 <= l <= q-1, got l={l}")
    residues = tuple(residues)
    if len(residues) != l:
        raise ValueError(f"expected {l} residues, got {len(residues)}")
    if len(set(residues)) != l:
        raise ValueError("residues must be distinct")
    for r in residues:
        if not 1 <= r <= q:
            raise ValueError(f"residue {r} outside [1, {q}]")
    f_tail = tuple(f_tail)
    if len(f_tail) != m - 1:
        raise ValueError(f"tail must have m-1 = {m - 1} entries")
    for x in f_tail:
        if not 1 <= x <= q - 1:
            raise ValueError(f"tail entry {x} outside [1, {q - 1}]")

    s = sum(f_tail)
    value = q - l if residue_q(s, q) in residues else q - l - 1
    forbidden = set(residues)
    survivors = sum(
        1 for i in range(1, q) if residue_q(i + s, q) not in forbidden
    )
    if survivors != value:
        raise AssertionError("fiber enumeration disagrees with the closed form")
    return value


def geometric_sum(q: int, m: int) -> int:
    """sum_{u=1}^{m} (q-1)^u q^(m-u); checked against its closed form."""
    if q < 2 or m < 1:
        raise ValueError(f"need q >= 2 and m >= 1, got q={q}, m={m}")
    total = sum((q - 1) ** u * q ** (m - u) for u in range(1, m + 1))
    if total != (q - 1) * q ** m - (q - 1) ** (m + 1):
        raise AssertionError("geometric sum disagrees with its closed form")
    return total


def partition_bound_printed_odd(q: int, m: int) -> Fraction:
    """The odd-m bound as printed: ... + (q-1)/q.  Kept only for display.

    Non-integral for q=3, so it cannot count symbols; the workbench never
    asserts it.  The oracle value (see partition_bound_closed) matches the
    even-m constant (q-1)/2 instead.
    """
    return (
        Fraction((q - 1) * q ** m)
        - Fraction((q - 1) ** (m + 1), 2)
        + Fraction(q - 1, q)
    )


def partition_bound_closed(q: int, m: int) -> int:
    """Best known ordering value for the partition PDA's pattern.

    Even m has a trusted closed form, (q-1)q^m - (q-1)^(m+1)/2 + (q-1)/2.
    For odd m the printed constant term is suspect (non-integral at q=3),
    so the value is computed by evaluating the prescribed ordering on the
    actual pattern — which needs q^m within the row cap.
    """
    if q < 2 or m < 2:
        raise ValueError(f"need q >= 2 and m >= 2, got q={q}, m={m}")
    if m % 2 == 0:
        value = (
            Fraction((q - 1) * q ** m)
            - Fraction((q - 1) ** (m + 1), 2)
            + Fraction(q - 1, 2)
        )
        if value.denominator != 1:
            raise AssertionError(f"even-m bound not integral at q={q}, m={m}")
        return int(value)
    pattern = to_star_pattern(partition_pda(q, m))
    return eval_ordering(pattern, partition_ordering(q, m)).value


def binomial_identity_check(m: int, a: int, b: int) -> int:
    """Stage-sum identity: the ordering's step sizes add up to C(m, a+b).

    Evaluates C(a,a)C(m-a,b) + sum_i C(a+i, a-1) C(m-a-i-1, b) over
    i in [0, m-a-b-1] and asserts it equals C(m, a+b).
    """
    if a < 1 or b < 1 or a + b >= m:
        raise ValueError(f"need a, b >= 1 and a+b < m, got m={m}, a={a}, b={b}")
    total = comb(a, a) * comb(m - a, b)
    total += sum(
        comb(a + i, a - 1) * comb(m - a - i - 1, b)
        for i in range(m - a - b)
    )
    if total != comb(m, a + b):
        raise AssertionError(
            f"stage sum {total} != C({m},{a + b}) = {comb(m, a + b)}"
        )
    return total


class RatioReport(
    namedtuple("RatioReport", "q m s_pda s_derived s_exact mu formula_ratio")
):
    """One row of the bound-vs-construction comparison table."""

    __slots__ = ()

    def __new__(
        cls,
        q: int,
        m: int,
        s_pda: int,
        s_derived: int,
        s_exact: Optional[int],
        mu: Optional[Fraction],
        formula_ratio: Fraction,
    ) -> "RatioReport":
        if s_exact is not None:
            if not s_derived <= s_exact <= s_pda:
                raise ValueError(
                    f"exact value {s_exact} outside [{s_derived}, {s_pda}]"
                )
        return super().__new__(
            cls, q, m, s_pda, s_derived, s_exact, mu, formula_ratio
        )


def formula_ratio(q: int, m: int) -> Fraction:
    """Ratio of the derived bound to the construction's symbol count.

    1 - ((q-1)/q)^m / 2 + 1/(2 q^m) = 1 - ((q-1)^m - 1)/(2 q^m), which is
    exactly 1 at q=2 and strictly below 1 for every q >= 3.
    """
    return 1 - Fraction((q - 1) ** m, 2 * q ** m) + Fraction(1, 2 * q ** m)


def ratio_report(
    q: int,
    m: int,
    want_exact: bool = False,
) -> RatioReport:
    """Assemble s_pda, the derived bound, and (optionally) the true maximum.

    The sandwich s_derived <= s_exact <= s_pda closes by itself whenever
    the derived bound already meets the construction (all of q=2), so the
    exact engine only runs when there is a real gap.  If the search is
    truncated by its budget (or the pattern exceeds the row cap), s_exact
    is simply absent.
    """
    s_pda = (q - 1) * q ** m
    s_derived = partition_bound_closed(q, m)
    s_exact: Optional[int] = None
    if s_derived == s_pda:
        s_exact = s_derived
    elif want_exact:
        try:
            pattern = to_star_pattern(partition_pda(q, m))
        except ValueError:
            pattern = None
        if pattern is not None:
            cert = theorem1_exact(pattern, budget=_EXACT_BUDGET)
            if cert.exact:
                s_exact = cert.value
    return RatioReport(
        q=q,
        m=m,
        s_pda=s_pda,
        s_derived=s_derived,
        s_exact=s_exact,
        mu=None if s_exact is None else Fraction(s_exact, s_derived),
        formula_ratio=formula_ratio(q, m),
    )
