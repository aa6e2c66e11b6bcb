"""Shared expected arrays, frozen as literals.

Every grid below is spelled out cell by cell instead of being generated
by the code under test.  That is the point: when a construction or the
verifier drifts, the comparison against these literals is what catches
it.  Symbols in the first four grids are already dense (1..S); the two
labelled grids carry opaque tokens that a tiny helper maps to dense ids.
"""

from __future__ import annotations

import itertools
from typing import Dict, Tuple

from pda_workbench.constructions import partition_ordering, residue_q
from pda_workbench.core import STAR, PdaGrid

Rows = Tuple[Tuple[int, ...], ...]

# Acceptance tests append "(n, line)" pairs here; the terminal-summary
# hook prints them after the run so the verdicts survive output capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def cells_from(text: str) -> Rows:
    """Parse an inline block: '*' is a star, anything else an int symbol."""
    return tuple(
        tuple(STAR if tok == "*" else int(tok) for tok in line.split())
        for line in text.strip().splitlines()
    )


def dense_from(text: str) -> Rows:
    """Same, but symbols are opaque labels renumbered by first appearance."""
    ids: Dict[str, int] = {}
    rows = []
    for line in text.strip().splitlines():
        row = []
        for tok in line.split():
            if tok == "*":
                row.append(STAR)
            else:
                row.append(ids.setdefault(tok, len(ids) + 1))
        rows.append(tuple(row))
    return tuple(rows)


# (K, F, Z, S) = (6, 4, 2, 4): six users, half memory, four signals.
GRID_K6_F4_Z2 = cells_from("""
* * * 1 2 3
* 1 2 * * 4
1 * 3 * 4 *
2 3 * 4 * *
""")

# (6, 4, 1, 11): low memory, eleven signals; the nested-intersection
# bound on this placement is exactly 11, with chain 3+3+2+2+1.
GRID_K6_F4_Z1 = cells_from("""
1 2 3 * 7 8
4 5 * 3 9 10
6 * 5 2 11 *
* 6 4 1 * 11
""")

# (4, 6, 3, 4): four users, half memory at subpacketization six.  Also
# the output shape of mn_pda(4, 2).
GRID_K4_F6_Z3 = cells_from("""
* * 1 2
* 1 * 3
* 2 3 *
1 * * 4
2 * 4 *
3 4 * *
""")

# (6, 8, 5, 5): an irregular array (non-uniform symbol multiplicity).
GRID_K6_F8_Z5 = cells_from("""
1 * * * 4 *
2 4 * * * 5
* 1 2 * * *
3 * 4 * * *
* 3 * 2 * *
* * 5 1 3 *
* * * * 2 1
* * * 4 * 3
""")

# (9, 9, 3, 18): the q=3, m=2 partition array.  Row vectors are
# (f1, f2, checksum), f1 fastest; columns are (u, v) in u-major order.
# Symbols are the pinned vectors, written here as 3-digit tokens and
# renumbered by first appearance -- the same rule partition_pda uses.
PARTITION_Q3_M2 = dense_from("""
*   212 312 *   122 132 111 *   113
113 *   313 *   223 233 211 212 *
111 211 *   *   321 331 *   312 313
*   223 323 113 *   133 121 122 *
121 *   321 211 *   231 *   222 223
122 222 *   312 *   332 321 *   323
*   231 331 111 121 *   *   132 133
132 *   332 212 222 *   231 *   233
133 233 *   313 323 *   331 332 *
""")

# (10, 5, 2, 10): the m=5, a=2, b=1 bipartite array.  Columns are the
# 2-subsets of [5] in lex order (12 13 14 15 23 24 25 34 35 45), rows
# the singletons; each symbol token is the 3-subset union of its row
# and column.  Lex rank of the union coincides with first appearance.
BIPARTITE_M5_A2_B1 = dense_from("""
*   *   *   *   123 124 125 134 135 145
*   123 124 125 *   *   *   234 235 245
123 *   134 135 *   234 235 *   *   345
124 134 *   145 234 *   245 *   345 *
125 135 145 *   235 245 *   345 *   *
""")

# Delivery schedule of GRID_K6_F4_Z2: signal s carries one term per cell
# holding s, as (user, row) pairs sorted the way deliver() emits them.
SIGNAL_TERMS_K6_F4_Z2 = (
    ((1, 3), (2, 2), (4, 1)),
    ((1, 4), (3, 2), (5, 1)),
    ((2, 4), (3, 3), (6, 1)),
    ((4, 4), (5, 3), (6, 2)),
)

GOLDEN_PARAMS = {
    "GRID_K6_F4_Z2": (GRID_K6_F4_Z2, (6, 4, 2, 4)),
    "GRID_K6_F4_Z1": (GRID_K6_F4_Z1, (6, 4, 1, 11)),
    "GRID_K4_F6_Z3": (GRID_K4_F6_Z3, (4, 6, 3, 4)),
    "GRID_K6_F8_Z5": (GRID_K6_F8_Z5, (6, 8, 5, 5)),
    "PARTITION_Q3_M2": (PARTITION_Q3_M2, (9, 9, 3, 18)),
    "BIPARTITE_M5_A2_B1": (BIPARTITE_M5_A2_B1, (10, 5, 2, 10)),
}


def golden_grid(name: str) -> PdaGrid:
    return PdaGrid(GOLDEN_PARAMS[name][0])


def replayed_ordering_value(q: int, m: int) -> int:
    """The partition PDA's value along `partition_ordering`, replayed on
    bitmasks built straight from the checksum vectors of [q]^m, with no
    PdaGrid and so no row cap: bit i of column (u, v)'s mask is set when
    row i leaves it uncached, f_u != v."""
    rows = [
        f + (residue_q(sum(f), q),)
        for f in itertools.product(range(1, q + 1), repeat=m)
    ]
    inter = (1 << len(rows)) - 1
    total = 0
    for user in partition_ordering(q, m):
        u, v = divmod(user - 1, q)  # column (u + 1, v + 1)
        inter &= int("".join("0" if f[u] == v + 1 else "1" for f in reversed(rows)), 2)
        if not inter:
            break
        total += inter.bit_count()
    return total
