"""Generators for the four PDA families the workbench knows how to build,
and their shape functions: a family's parameters (K, F, Z, S), or a refusal
of a shape past the row or column cap.  Each builder calls one first.

* partition_pda(q, m): rows are the q^m checksum-extended vectors over [q],
  columns are the (m+1)q coordinate/value pairs (u, v); a cell is starred
  when the row agrees with the column's pin.
  partition_params(q, m) = ((m+1)q, q^m, q^(m-1), (q-1)q^m).
* bipartite_pda(m, a, b): rows are b-subsets and columns a-subsets of [m];
  a cell is starred when they meet, otherwise it carries their union.
  bipartite_params(m, a, b) = (C(m,a), C(m,b), C(m,b)-C(m-a,b), C(m,a+b)).
* mn_pda(k, t): the classic one-coordinate special case, bipartite with
  m=k, a=1, b=t.
* grouping_pda(m, a, b, h): h bipartite copies side by side with disjoint
  symbol ranges; bipartite_params(m, a, b, h) multiplies K and S by h.

partition_ordering and bipartite_ordering give the user orderings of the
paper's proofs as column ids of these builders, for `bounds.eval_ordering`
to replay.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from .core import MAX_ROWS, STAR, PdaGrid, PdaParams

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, List, Tuple

# Columns are capped like rows, so that no family asks for a grid of more
# than MAX_ROWS^2 cells.
_MAX_COLUMNS = MAX_ROWS


def _check_partition(q: int, m: int) -> None:
    if q < 2 or m < 1:
        raise ValueError(f"need q >= 2 and m >= 1, got q={q}, m={m}")


def partition_params(q: int, m: int) -> PdaParams:
    """partition_pda(q, m)'s parameters.  As q^m >= 2^m, a long m is
    refused before the power is taken."""
    _check_partition(q, m)
    if m >= MAX_ROWS.bit_length() or q ** m > MAX_ROWS:
        raise ValueError(f"q^m rows at q={q}, m={m} exceed the row cap {MAX_ROWS}")
    if (m + 1) * q > _MAX_COLUMNS:
        raise ValueError(
            f"(m+1)q columns at q={q}, m={m} exceed the column cap {_MAX_COLUMNS}"
        )
    return PdaParams(k=(m + 1) * q, f=q ** m, z=q ** (m - 1), s=(q - 1) * q ** m)


def _check_bipartite(m: int, a: int, b: int) -> None:
    if a < 1 or b < 1 or a + b > m:
        raise ValueError(f"need a, b >= 1 and a+b <= m, got m={m}, a={a}, b={b}")


def bipartite_params(m: int, a: int, b: int, h: int = 1) -> PdaParams:
    """grouping_pda(m, a, b, h)'s parameters, bipartite_pda(m, a, b)'s at
    h = 1.  As C(m, b) >= m, a large m is refused before the binomials are
    taken."""
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    _check_bipartite(m, a, b)
    if m > MAX_ROWS or comb(m, b) > MAX_ROWS:
        raise ValueError(f"C({m},{b}) rows exceed the row cap {MAX_ROWS}")
    if h * comb(m, a) > _MAX_COLUMNS:
        columns = f"C({m},{a})" if h == 1 else f"{h}*C({m},{a})"
        raise ValueError(f"{columns} columns exceed the column cap {_MAX_COLUMNS}")
    f = comb(m, b)
    return PdaParams(k=h * comb(m, a), f=f, z=f - comb(m - a, b), s=h * comb(m, a + b))


def residue_q(x: int, q: int) -> int:
    """Least positive residue: x mod q, except multiples of q map to q."""
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    r = x % q
    return r if r else q


# ---------------------------------------------------------------------------
# Partition PDA
# ---------------------------------------------------------------------------

def partition_rows(q: int, m: int) -> List[Tuple[int, ...]]:
    """All (m+1)-vectors (f_1..f_m, <sum f_i>_q), first coordinate fastest."""
    # product runs its last coordinate fastest, so each tuple is reversed.
    flipped = (f[::-1] for f in product(range(1, q + 1), repeat=m))
    return [f + (residue_q(sum(f), q),) for f in flipped]


def partition_columns(q: int, m: int) -> List[Tuple[int, int]]:
    """Column labels (u, v), u in [m+1] outer, v in [q] inner."""
    return [(u, v) for u in range(1, m + 2) for v in range(1, q + 1)]


def partition_column_id(q: int, u: int, v: int) -> int:
    """1-based user id of column (u, v) in the enumeration above."""
    return (u - 1) * q + v


def partition_pda(q: int, m: int) -> PdaGrid:
    """Build the ((m+1)q, q^m, q^(m-1), (q-1)q^m) partition PDA.

    Cell (f, (u,v)) is a star when f_u = v; otherwise its symbol is the
    vector g obtained from f by pinning coordinate u to v.  Pinning breaks
    the checksum, so g is never a row vector, and each such g shows up
    exactly once per coordinate group -- m+1 occurrences in total.  Symbols
    are relabelled to dense ids by first appearance in row-major order.
    """
    partition_params(q, m)
    rows = partition_rows(q, m)
    cols = partition_columns(q, m)
    ids: Dict[Tuple[int, ...], int] = {}
    cells = []
    for f in rows:
        row = []
        for (u, v) in cols:
            if f[u - 1] == v:
                row.append(STAR)
            else:
                g = f[: u - 1] + (v,) + f[u:]
                row.append(ids.setdefault(g, len(ids) + 1))
        cells.append(tuple(row))
    return PdaGrid(tuple(cells))


def partition_ordering(q: int, m: int) -> Tuple[int, ...]:
    """The paper's user ordering for the partition PDA's columns.

    Visit the value-q column of each of the first m coordinates, then the
    checksum-coordinate columns (m+1, v), then everything else in plain
    column order.  The tail never changes the sum: by then the running
    intersection is empty.

    Column (m+1, v) cuts the rows left with checksum residue v, so the
    smaller residue class goes first.  By the two-size law (proved in
    `formulas.partition_bound_closed`) residue q's class is the smaller
    one, by one row, exactly when m is odd: the checksum columns run
    q, 1..q-1 at odd m and 1..q at even m.

    The ordering's value, `formulas.partition_bound_closed`, is a lower
    bound that is not maximal past q = 2: at q = 3, m = 2 it is 15, while
    S* is 17 and S is 18.  At q = 2 it meets S.
    """
    _check_partition(q, m)
    head = [partition_column_id(q, u, q) for u in range(1, m + 1)]
    tail_vs = [q, *range(1, q)] if m % 2 else range(1, q + 1)
    head += [partition_column_id(q, m + 1, v) for v in tail_vs]
    seen = set(head)
    rest = [k for k in range(1, (m + 1) * q + 1) if k not in seen]
    return tuple(head + rest)


# ---------------------------------------------------------------------------
# Bipartite (subset) PDA
# ---------------------------------------------------------------------------

def subsets(m: int, r: int) -> List[Tuple[int, ...]]:
    """r-subsets of [m] as sorted tuples, lexicographic."""
    return list(combinations(range(1, m + 1), r))


def bipartite_pda(m: int, a: int, b: int) -> PdaGrid:
    """Rows = b-subsets, columns = a-subsets of [m], both lexicographic.

    Disjoint row/column subsets get the lex rank of their union as symbol;
    overlapping pairs are starred.  a+b = m is allowed and degenerates to a
    single symbol.
    """
    bipartite_params(m, a, b)
    union_rank = {d: i + 1 for i, d in enumerate(subsets(m, a + b))}
    cols = subsets(m, a)
    cells = []
    for row_set in subsets(m, b):
        bset = set(row_set)
        row = []
        for col_set in cols:
            if bset & set(col_set):
                row.append(STAR)
            else:
                row.append(union_rank[tuple(sorted(row_set + col_set))])
        cells.append(tuple(row))
    return PdaGrid(tuple(cells))


def bipartite_ordering(m: int, a: int, b: int) -> Tuple[int, ...]:
    """Maximizing user ordering for the bipartite PDA's columns (a-subsets).

    Start at [a]; at stage i visit the a-subsets of [a+i] that contain
    a+i, i.e. [a+i] minus an i-subset of [a+i-1].  Each stage-i step
    shrinks the intersection to the rows avoiding [a+i], contributing
    C(m-a-i, b); the within-stage order is immaterial for the sum.  The
    steps add up to S = C(m, a+b), and S* <= S, so the ordering is
    maximal.  Users are returned as column ids, the lex ranks of the
    subsets in `bipartite_pda`'s column order.
    """
    _check_bipartite(m, a, b)
    rank = {s: i + 1 for i, s in enumerate(subsets(m, a))}
    order = [rank[tuple(range(1, a + 1))]]
    for i in range(1, m - a + 1):
        base = set(range(1, a + i + 1))
        for j_set in combinations(range(1, a + i), i):
            order.append(rank[tuple(sorted(base - set(j_set)))])
    return tuple(order)


def mn_pda(k: int, t: int) -> PdaGrid:
    """Single-element user labels: bipartite with m=k, a=1, b=t."""
    if not 1 <= t < k:
        raise ValueError(f"need 1 <= t < k, got k={k}, t={t}")
    return bipartite_pda(m=k, a=1, b=t)


def grouping_pda(m: int, a: int, b: int, h: int) -> PdaGrid:
    """h horizontal copies of bipartite_pda(m, a, b) with disjoint symbols.

    Copy i's symbols are shifted by (i-1)*C(m, a+b), so the concatenation
    keeps C2/C3 and multiplies both K and S by h.
    """
    bipartite_params(m, a, b, h)
    base = bipartite_pda(m, a, b)
    shift = comb(m, a + b)
    cells = []
    for row in base.cells:
        out = []
        for i in range(h):
            out.extend(c if c == STAR else c + i * shift for c in row)
        cells.append(tuple(out))
    return PdaGrid(tuple(cells))

