"""The closed forms `table` reports: the partition family's derived bound,
its ratio to the construction's symbol count, and the exact bound beside them.

Everything here is exact: ints, and ratios as `core.ratio` pairs.  The
derived bound is one integer expression at every m, so no row cap limits
it.  The test suite cross-checks it against independent oracles.
"""

from __future__ import annotations

from collections import namedtuple

from .bounds import theorem1_exact
from .constructions import partition_pda
from .core import ratio, to_star_pattern

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional, Tuple

_EXACT_BUDGET = 2_000_000  # intersections for ratio_report's exact bound


def partition_bound_closed(q: int, m: int) -> int:
    """The partition PDA's value along `partition_ordering`, at every m >= 2:
    (q-1)q^m - ((q-1)^(m+1) - (q-1))/2, an integer since q-1 or
    (q-1)^m - 1 is even.

    Proof.  The m head columns (u, q) leave (q-1)^h q^(m-h) rows at step h,
    (q-1)(q^m - N) in all, where N = (q-1)^m.  By the two-size law, (N +
    (-1)^m (q-1))/q of those N rows have checksum residue q and
    (N - (-1)^m)/q have each other residue.  At either parity
    `partition_ordering` cuts the smaller class first, so the q checksum
    steps sum to (q-1)(N + 1)/2.  The paper's odd-m constant (q-1)/q is
    thus (q-1)/2.
    """
    if q < 2 or m < 2:
        raise ValueError(f"need q >= 2 and m >= 2, got q={q}, m={m}")
    return (q - 1) * q ** m - ((q - 1) ** (m + 1) - (q - 1)) // 2


class RatioReport(
    namedtuple("RatioReport", "q m s_pda s_derived s_exact mu formula_ratio")
):
    """One row of the comparison table; mu and formula_ratio are `ratio` pairs."""

    __slots__ = ()

    def __new__(
        cls,
        q: int,
        m: int,
        s_pda: int,
        s_derived: int,
        s_exact: Optional[int],
        mu: Optional[Tuple[int, int]],
        formula_ratio: Tuple[int, int],
    ) -> "RatioReport":
        if s_exact is not None:
            if not s_derived <= s_exact <= s_pda:
                raise ValueError(
                    f"exact value {s_exact} outside [{s_derived}, {s_pda}]"
                )
        return super().__new__(
            cls, q, m, s_pda, s_derived, s_exact, mu, formula_ratio
        )


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
        mu=None if s_exact is None else ratio(s_exact, s_derived),
        formula_ratio=ratio(s_derived, s_pda),
    )
