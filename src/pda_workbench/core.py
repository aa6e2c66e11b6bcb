"""Core types for placement delivery arrays (PDAs).

A PDA is an F x K array whose cells are either a star or a symbol id in
[S].  Columns are users, rows are packet indices.  The three axioms:

  C1: every column contains exactly Z stars;
  C2: every symbol id in [S] occurs at least once;
  C3: two cells holding the same symbol lie in distinct rows and distinct
      columns (C3a), and the two "cross" cells of the 2x2 subarray they
      span are both stars (C3b).

Such an array encodes a caching scheme: user k caches the rows starred in
column k (for every file), and symbol s names the XOR signal that serves
every cell labelled s.  The star positions alone form a *star pattern*;
`StarPattern` stores, per user, the set A_k of rows NOT starred (the
packets user k still needs), as an int bitmask over [F].

Typical round trip::

    grid = parse_pda(text)
    res = verify_pda(grid)          # res.valid, res.violations
    params = pda_params(grid)       # (K, F, Z, S), rate, memory ratio
    pat = to_star_pattern(grid)     # per-user uncached row sets

Internally stars are stored as 0 (`STAR`) and symbols as positive ints.
All external formats and reports are 1-based.

The records here and in the other modules are `collections.namedtuple`
subclasses with `__slots__ = ()`, so they are immutable and unpack,
compare, hash and sort like plain tuples of their fields (a `PdaGrid` is
the 1-tuple `(cells,)`).  Their checks and normalisation run in
`__new__`; `_replace` builds a copy without re-running them.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import gcd

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

STAR = 0

# Hard cap on row counts: uncached sets are int bitmasks over [F], and the
# bound engine relies on single-word-ish intersections staying cheap.
MAX_ROWS = 4096

# Engine defaults that the CLI's parser shows.  They live here, not in the
# engines, so that building the parser imports no engine.  The node budget
# counts intersections the exact bound may expand; each one keeps one
# integer in its table (under 90 bytes), so it also caps memory near 0.9 GB.
DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_COLOR_BUDGET = 5_000_000  # nodes of the exact fill's search
DEFAULT_PACKET_LEN = 64  # bytes per packet of a simulated library


class MalformedGridError(ValueError):
    """An input that fails a check (ragged rows, a bad token, C1); the CLI exits 1."""


def ratio(num: int, den: int) -> Tuple[int, int]:
    """num/den in lowest terms, as the pair (num, den); den must be positive."""
    g = gcd(num, den)
    return num // g, den // g


class PdaParams(namedtuple("PdaParams", "k f z s")):
    __slots__ = ()

    def __new__(cls, k: int, f: int, z: int, s: int) -> "PdaParams":
        if k < 1 or f < 1:
            raise ValueError(f"need K >= 1 and F >= 1, got K={k}, F={f}")
        if not 0 <= z <= f:
            raise ValueError(f"need 0 <= Z <= F, got Z={z}, F={f}")
        if s < 0:
            raise ValueError(f"need S >= 0, got S={s}")
        return super().__new__(cls, k, f, z, s)

    @property
    def rate(self) -> Tuple[int, int]:
        """Transmission load S/F, exact, as a `ratio` pair."""
        return ratio(self.s, self.f)

    @property
    def memory_ratio(self) -> Tuple[int, int]:
        """Share of the library each user caches, Z/F, as a `ratio` pair."""
        return ratio(self.z, self.f)


class PdaGrid(namedtuple("PdaGrid", "cells")):
    """F x K array; cells[j][k] is STAR (0) or a positive symbol id.

    Rows given as any iterables are stored as tuples of tuples.
    """

    __slots__ = ()

    def __new__(cls, cells: Iterable[Iterable[int]]) -> "PdaGrid":
        rows = tuple(tuple(row) for row in cells)
        if not rows or not rows[0]:
            raise MalformedGridError("grid must have at least one row and one column")
        width = len(rows[0])
        for j, row in enumerate(rows, start=1):
            if len(row) != width:
                raise MalformedGridError(
                    f"ragged grid: row 1 has {width} cells, row {j} has {len(row)}"
                )
            for k, cell in enumerate(row, start=1):
                if not isinstance(cell, int) or isinstance(cell, bool) or cell < 0:
                    raise MalformedGridError(
                        f"cell ({j},{k}) is {cell!r}; want STAR or a positive symbol id"
                    )
        if len(rows) > MAX_ROWS:
            raise MalformedGridError(f"F={len(rows)} exceeds the row cap {MAX_ROWS}")
        return super().__new__(cls, rows)

    @property
    def f(self) -> int:
        return len(self.cells)

    @property
    def k(self) -> int:
        return len(self.cells[0])

    def column(self, k: int) -> Tuple[int, ...]:
        """Column k, 1-based."""
        return tuple(row[k - 1] for row in self.cells)

    def max_symbol(self) -> int:
        return max((c for row in self.cells for c in row), default=0)


class StarPattern(namedtuple("StarPattern", "f masks")):
    """Per-user uncached row sets A_k, as bitmasks over [F] (bit j-1 = row j).

    Masks given as any iterable are stored as a tuple.
    """

    __slots__ = ()

    def __new__(cls, f: int, masks: Iterable[int]) -> "StarPattern":
        if f < 1:
            raise ValueError(f"need F >= 1, got {f}")
        if f > MAX_ROWS:
            raise ValueError(f"F={f} exceeds the row cap {MAX_ROWS}")
        masks = tuple(masks)
        if not masks:
            raise ValueError("need at least one user")
        full = (1 << f) - 1
        for k, m in enumerate(masks, start=1):
            if not 0 <= m <= full:
                raise ValueError(f"user {k} mask {m:#x} out of range for F={f}")
        return super().__new__(cls, f, masks)

    @property
    def k(self) -> int:
        return len(self.masks)

    def uncached_sets(self) -> List[Tuple[int, ...]]:
        """A_k as sorted 1-based row tuples."""
        return [_mask_to_rows(m) for m in self.masks]

    def sizes(self) -> Tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)

    def uniform_z(self) -> Optional[int]:
        """Z = F - |A_k| when all users miss equally many rows, else None."""
        sizes = set(self.sizes())
        if len(sizes) != 1:
            return None
        return self.f - sizes.pop()


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_to_rows(mask: int) -> Tuple[int, ...]:
    return tuple(i + 1 for i in _bits(mask))


class Violation(namedtuple("Violation", "axiom cells detail", defaults=("",))):
    """One broken axiom with the offending 1-based cells.

    C3a/C3b carry the two same-symbol cells.  C1 anchors the mismatched
    column at its row-1 cell; a missing symbol (C2) has no cell at all --
    `detail` says what went wrong in either case.
    """

    __slots__ = ()


class VerifyResult(namedtuple("VerifyResult", "valid violations")):
    __slots__ = ()

    def __new__(cls, valid: bool, violations: Tuple[Violation, ...]) -> "VerifyResult":
        assert valid == (not violations)
        return super().__new__(cls, valid, violations)


def _star_counts(grid: PdaGrid) -> List[int]:
    """Stars per column, column 1 first."""
    return [column.count(STAR) for column in zip(*grid.cells)]


def verify_pda(grid: "PdaGrid | Sequence[Sequence[int]]") -> VerifyResult:
    """Check C1, C2 and C3 and report every violation found.

    Accepts a PdaGrid or raw nested rows (stars as 0).  Structural problems
    raise MalformedGridError; axiom failures come back in the result, sorted
    by (axiom, cells) so output is deterministic.
    """
    if not isinstance(grid, PdaGrid):
        grid = PdaGrid(tuple(tuple(row) for row in grid))
    violations: List[Violation] = []

    # C1: uniform star count, judged against column 1.
    star_counts = _star_counts(grid)
    z = star_counts[0]
    for k, count in enumerate(star_counts[1:], start=2):
        if count != z:
            violations.append(
                Violation(
                    "C1",
                    ((1, k),),
                    f"column {k} has {count} stars, column 1 has {z}",
                )
            )

    # Bucket symbol cells once, then check C2 and C3 in one pass over them.
    s = grid.max_symbol()
    buckets: List[List[Tuple[int, int]]] = [[] for _ in range(s + 1)]
    for j, row in enumerate(grid.cells, start=1):
        for k, cell in enumerate(row, start=1):
            if cell != STAR:
                buckets[cell].append((j, k))

    for sym in range(1, s + 1):
        cells = buckets[sym]
        if not cells:
            violations.append(Violation("C2", (), f"symbol {sym} never appears"))
        for (j1, k1), (j2, k2) in combinations(cells, 2):
            if j1 == j2 or k1 == k2:
                violations.append(
                    Violation(
                        "C3a",
                        ((j1, k1), (j2, k2)),
                        f"symbol {sym} repeats in the same "
                        + ("row" if j1 == j2 else "column"),
                    )
                )
                continue
            if grid.cells[j1 - 1][k2 - 1] != STAR or grid.cells[j2 - 1][k1 - 1] != STAR:
                violations.append(
                    Violation(
                        "C3b",
                        ((j1, k1), (j2, k2)),
                        f"symbol {sym} at ({j1},{k1}) and ({j2},{k2}) "
                        f"has a non-star cross cell",
                    )
                )

    violations.sort(key=lambda v: (v.axiom, v.cells, v.detail))
    return VerifyResult(valid=not violations, violations=tuple(violations))


def pda_params(grid: PdaGrid) -> PdaParams:
    """Read off (K, F, Z, S).  Requires uniform star counts (C1)."""
    star_counts = _star_counts(grid)
    z = star_counts[0]
    for k, count in enumerate(star_counts[1:], start=2):
        if count != z:
            raise ValueError(
                f"star count not uniform: column 1 has {z}, column {k} has {count}"
            )
    return PdaParams(k=grid.k, f=grid.f, z=z, s=grid.max_symbol())


def to_star_pattern(grid: PdaGrid) -> StarPattern:
    """A_k = rows of column k holding symbols (everything not starred)."""
    masks = []
    for k in range(1, grid.k + 1):
        m = 0
        for j, cell in enumerate(grid.column(k)):
            if cell != STAR:
                m |= 1 << j
        masks.append(m)
    return StarPattern(grid.f, tuple(masks))


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------
#
# PDA file:        "PDA F K" header, then F lines of K tokens, each "*" or a
#                  positive integer.
# Placement file:  "PLC F K" header, then F lines of K tokens from {"*", "."}
#                  ("." marks an uncached cell).
# Writers emit single-space separators; parsers accept any whitespace.


def format_pda(grid: PdaGrid) -> str:
    lines = [f"PDA {grid.f} {grid.k}"]
    for row in grid.cells:
        lines.append(" ".join("*" if c == STAR else str(c) for c in row))
    return "\n".join(lines) + "\n"


def _read_table(text: str, magic: str) -> Tuple[int, int, List[List[str]]]:
    """The checks both formats share: a "MAGIC F K" header with K >= 1 and
    1 <= F <= MAX_ROWS, then F rows of K tokens.  Returns F, K and the rows'
    tokens."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedGridError("empty input")
    header = lines[0].split()
    if len(header) != 3 or header[0] != magic:
        raise MalformedGridError(f"bad header {lines[0]!r}; want '{magic} F K'")
    try:
        f, k = int(header[1]), int(header[2])
    except ValueError:
        raise MalformedGridError(f"bad header {lines[0]!r}; want '{magic} F K'") from None
    if f < 1 or k < 1:
        raise MalformedGridError(f"{magic} file must have at least one row and one column")
    if f > MAX_ROWS:
        raise MalformedGridError(f"F={f} exceeds the row cap {MAX_ROWS}")
    if len(lines) - 1 != f:
        raise MalformedGridError(f"header says F={f} but found {len(lines) - 1} rows")
    rows = [line.split() for line in lines[1:]]
    for j, tokens in enumerate(rows, start=1):
        if len(tokens) != k:
            raise MalformedGridError(
                f"row {j}: header says K={k} but found {len(tokens)} tokens"
            )
    return f, k, rows


def parse_pda(text: str) -> PdaGrid:
    """Parse the PDA text format; symbol ids are densified on ingest.

    Arbitrary positive ids are accepted and relabelled to 1..S preserving
    their numeric order, so files with gaps load as equivalent grids.
    """
    _, _, table = _read_table(text, "PDA")
    rows: List[Tuple[int, ...]] = []
    for j, tokens in enumerate(table, start=1):
        row = []
        for col, tok in enumerate(tokens, start=1):
            if tok == "*":
                row.append(STAR)
                continue
            try:
                value = int(tok)
            except ValueError:
                raise MalformedGridError(f"cell ({j},{col}): bad token {tok!r}") from None
            if value <= 0:
                raise MalformedGridError(
                    f"cell ({j},{col}): symbol id must be positive, got {value}"
                )
            row.append(value)
        rows.append(tuple(row))

    ids = sorted({c for row in rows for c in row if c != STAR})
    relabel = {old: new for new, old in enumerate(ids, start=1)}
    relabel[STAR] = STAR
    return PdaGrid(tuple(tuple(relabel[c] for c in row) for row in rows))


def format_placement(pattern: StarPattern) -> str:
    lines = [f"PLC {pattern.f} {pattern.k}"]
    for j in range(pattern.f):
        bit = 1 << j
        lines.append(" ".join("." if m & bit else "*" for m in pattern.masks))
    return "\n".join(lines) + "\n"


def parse_placement(text: str) -> StarPattern:
    f, k, rows = _read_table(text, "PLC")
    masks = [0] * k
    for j, tokens in enumerate(rows):
        for col, tok in enumerate(tokens):
            if tok == ".":
                masks[col] |= 1 << j
            elif tok != "*":
                raise MalformedGridError(f"cell ({j + 1},{col + 1}): bad token {tok!r}")
    return StarPattern(f, tuple(masks))
