"""Independent reference answers for the benchmark.

Nothing here imports pda_workbench: the oracles rebuild the family patterns,
the ordering bound and the array axioms from their definitions, so a defect
in the engine under test cannot also hide in its own check.

A placement is a list of K row masks; bit j-1 of mask k is set when user k
leaves row j uncached.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Dict, List, Sequence, Tuple

Masks = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Placements
# ---------------------------------------------------------------------------

def partition_masks(q: int, m: int) -> Tuple[int, Masks]:
    """Uncached-row masks of the partition array's columns, and F = q^m.

    Rows are the vectors x in [q]^m extended by the checksum
    x_{m+1} = (sum x) mod q (with 0 read as q); column (u, v) caches the rows
    with x_u = v.  Any row or column order gives the same ordering bound.
    """
    rows = []
    for x in product(range(1, q + 1), repeat=m):
        rows.append(x + ((sum(x) - 1) % q + 1,))
    masks = []
    for u in range(m + 1):
        for v in range(1, q + 1):
            mask = 0
            for j, x in enumerate(rows):
                if x[u] != v:
                    mask |= 1 << j
            masks.append(mask)
    return len(rows), tuple(masks)


def random_masks(rng: random.Random, k: int, f: int, z: int) -> Masks:
    """K users, each caching a uniformly random Z-subset of the F rows."""
    full = (1 << f) - 1
    out = []
    for _ in range(k):
        cached = 0
        for j in rng.sample(range(f), z):
            cached |= 1 << j
        out.append(full & ~cached)
    return tuple(out)


def format_placement(f: int, masks: Masks) -> str:
    """The PLC text format: '*' cached, '.' uncached."""
    lines = [f"PLC {f} {len(masks)}"]
    for j in range(f):
        lines.append(" ".join("." if mk >> j & 1 else "*" for mk in masks))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The ordering bound
# ---------------------------------------------------------------------------

def nested_sum(f: int, masks: Masks, order: Sequence[int]) -> Tuple[int, List[int]]:
    """Sum of |A_{i_1} & .. & A_{i_h}| along a 1-based user ordering."""
    inter = (1 << f) - 1
    steps = []
    for u in order:
        inter &= masks[u - 1]
        steps.append(bin(inter).count("1"))
    return sum(steps), steps


def ordering_bound(f: int, masks: Masks) -> int:
    """max over user orderings of the nested-intersection sum.

    The running intersection after a prefix depends only on the set of users
    in it, so the maximum is a longest path in the lattice of user subsets:
    best(U) = max over u not in U of |I(U + u)| + best(U + u), with best = 0
    once the intersection is empty.  2^K states at most.
    """
    k = len(masks)
    memo: Dict[int, int] = {}

    def best(used: int, inter: int) -> int:
        got = memo.get(used)
        if got is not None:
            return got
        top = 0
        for u in range(k):
            if used >> u & 1:
                continue
            ni = inter & masks[u]
            if ni:
                top = max(top, bin(ni).count("1") + best(used | 1 << u, ni))
        memo[used] = top
        return top

    return best(0, (1 << f) - 1)


def minmax_bound_bruteforce(k: int, f: int, z: int) -> int:
    """Smallest ordering bound over every Z-uniform placement (tiny shapes)."""
    omega = []
    for rows in combinations(range(f), f - z):
        omega.append(sum(1 << j for j in rows))
    return min(ordering_bound(f, combo) for combo in combinations_with_replacement(omega, k))


# ---------------------------------------------------------------------------
# Family parameters (K, F, Z, S)
# ---------------------------------------------------------------------------

def partition_params(q: int, m: int) -> Tuple[int, int, int, int]:
    return (m + 1) * q, q ** m, q ** (m - 1), (q - 1) * q ** m


def bipartite_params(m: int, a: int, b: int) -> Tuple[int, int, int, int]:
    return comb(m, a), comb(m, b), comb(m, b) - comb(m - a, b), comb(m, a + b)


def mn_params(k: int, t: int) -> Tuple[int, int, int, int]:
    return bipartite_params(k, 1, t)


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------

STAR = 0


class OracleError(ValueError):
    """An output of the program failed an independent check."""


def parse_array(text: str) -> List[List[int]]:
    """Parse the 'PDA F K' text format; '*' becomes STAR (0)."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "PDA" or len(lines[0]) != 3:
        raise OracleError("array output lacks a 'PDA F K' header")
    f, k = int(lines[0][1]), int(lines[0][2])
    rows = lines[1:]
    if len(rows) != f or any(len(r) != k for r in rows):
        raise OracleError(f"array output is not {f}x{k}")
    cells = [[STAR if tok == "*" else int(tok) for tok in r] for r in rows]
    if any(tok != "*" and c <= 0 for r, cr in zip(rows, cells) for tok, c in zip(r, cr)):
        raise OracleError("array output has a symbol below 1")
    return cells


def parse_placement(text: str) -> Tuple[int, Masks]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "PLC" or len(lines[0]) != 3:
        raise OracleError("placement output lacks a 'PLC F K' header")
    f, k = int(lines[0][1]), int(lines[0][2])
    rows = lines[1:]
    if len(rows) != f or any(len(r) != k for r in rows):
        raise OracleError(f"placement output is not {f}x{k}")
    masks = [0] * k
    for j, r in enumerate(rows):
        for u, tok in enumerate(r):
            if tok == ".":
                masks[u] |= 1 << j
            elif tok != "*":
                raise OracleError(f"placement output has token {tok!r}")
    return f, tuple(masks)


def array_masks(cells: List[List[int]]) -> Masks:
    k = len(cells[0]) if cells else 0
    return tuple(
        sum(1 << j for j, row in enumerate(cells) if row[u] != STAR) for u in range(k)
    )


def check_array(cells: List[List[int]]) -> Tuple[int, int, int, int]:
    """Check the three array axioms and return (K, F, Z, S).

    C1: every column has the same number Z of stars.  C2: S counts the
    distinct symbols.  C3: two cells with one symbol lie in distinct rows and
    columns, and both cells crossing them are stars.
    """
    f = len(cells)
    k = len(cells[0]) if f else 0
    stars = {sum(1 for row in cells if row[u] == STAR) for u in range(k)}
    if len(stars) != 1:
        raise OracleError(f"C1: columns have unequal star counts {sorted(stars)}")
    where: Dict[int, List[Tuple[int, int]]] = {}
    for j, row in enumerate(cells):
        for u, c in enumerate(row):
            if c != STAR:
                where.setdefault(c, []).append((j, u))
    for s, cs in where.items():
        for (j1, u1), (j2, u2) in combinations(cs, 2):
            if j1 == j2 or u1 == u2:
                raise OracleError(f"C3: symbol {s} repeats a row or column")
            if cells[j1][u2] != STAR or cells[j2][u1] != STAR:
                raise OracleError(f"C3: symbol {s} at ({j1 + 1},{u1 + 1}), "
                                  f"({j2 + 1},{u2 + 1}) lacks a starred cross cell")
    return k, f, stars.pop(), len(where)


def xor_terms(cells: List[List[int]]) -> int:
    """Packet XORs one demand costs: deliver g_s, decode g_s (g_s - 1) per symbol.

    g_s is how often symbol s occurs.  Each deliver XORs every term into a
    zero payload; each of the g_s decoders cancels the other g_s - 1 terms.
    """
    count: Dict[int, int] = {}
    for row in cells:
        for c in row:
            if c != STAR:
                count[c] = count.get(c, 0) + 1
    return sum(g * g for g in count.values())


def table_row(q: int, m: int) -> Dict[str, object]:
    """Reference values for one row of `table`: s_pda, s_exact and the ratio."""
    f, masks = partition_masks(q, m)
    return {
        "s_pda": (q - 1) * q ** m,
        "s_exact": ordering_bound(f, masks),
        "formula_ratio": 1 - Fraction((q - 1) ** m - 1, 2 * q ** m),
    }
