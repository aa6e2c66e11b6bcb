"""Turn a star pattern into a concrete array with few symbols.

Fix the stars and ask for the cheapest symbol assignment on the remaining
cells.  Two cells can share a symbol only if they sit in distinct rows and
columns and their two cross cells are both stars, so legal assignments are
exactly the proper colorings of a *conflict graph* on the non-star cells —
and the minimum symbol count is its chromatic number.  (In graph terms it
is the strong chromatic index of the bipartite rows–users graph of the
uncached cells: Yan et al., "Placement delivery array design through
strong edge coloring of bipartite graphs", IEEE Commun. Lett., 2018.)
The graph keeps one neighbor bitmask per cell, so a vertex-set test is one
big-int operation.

`fill_exact` starts from a first-fit coloring, in two vertex orders
(row-major and most neighbors first) of which it keeps the better, and
proves its answer with two lower bounds:

* The ordering bound S* on the same pattern is a clique bound: along any
  user ordering, the cells (j, i_h) with j in the running intersection I_h
  are pairwise in conflict (two of them share a row or a column, or the
  later one's row lies in I_h, so its cross cell in column i_h is
  uncached).  Each ordering's value, the truncated bound's fallback
  included, is thus the size of a clique.  The bound expands at most
  min(budget, 1e6) intersections, so a budget of 0 runs no search at all:
  the first-fit grid comes back at once, with the better of the identity
  and greedy orderings' values as its lower bound.
* The symbol-class bound: a symbol class, the cells one symbol may take,
  is an independent set of the graph, so if no class has more than alpha
  cells every fill of the n cells needs ceil(n / alpha) symbols.  It runs
  only when first fit stops above S*: a branch and bound finds alpha,
  bounded by the distinct rows and columns among its candidates, and stops
  as soon as a class is too large for the bound to beat S*.  When alpha divides n,
  a fill with n / alpha symbols is an exact cover of the cells by
  alpha-classes, which Algorithm X (Knuth, "Dancing Links", 2000) finds or
  refutes.  On the partition family this certifies the construction's S,
  which S* alone cannot.

Past the bounds, `fill_exact` finds the chromatic number by trying k = LB,
LB+1, ... with a backtracking search that colors the most saturated vertex
next (DSATUR order, Brélaz 1979), updating per vertex a score and a
neighbor-color bitmask, and per color a neighbor bitmask.
"""

from __future__ import annotations

from collections import namedtuple

from .bounds import theorem1_exact
from .core import DEFAULT_COLOR_BUDGET, STAR, PdaGrid, StarPattern, _bits, _mask_to_rows

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, List, Optional, Sequence, Tuple

_BOUND_BUDGET = 1_000_000  # the most intersections the ordering lower bound expands


class ConflictGraph(namedtuple("ConflictGraph", "vertices adj")):
    """Non-star cells and the pairs that must not share a symbol."""

    # vertices: (row j, user k), row-major
    # adj: neighbor bitmask per vertex (bit u = vertex u)
    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2


def build_conflict_graph(pattern: StarPattern) -> ConflictGraph:
    """Vertices are the uncached cells; edges forbid sharing a symbol.

    (j1,k1) ~ (j2,k2) when the rows or the columns coincide, or one of the
    cross cells (j1,k2), (j2,k1) is itself uncached.  Row j1 is uncached in
    column k1, so the first two cases are inside the last two: a vertex's
    neighbors are the cells of every column missing its row and of every
    row its column misses.
    """
    vertices = sorted((j, k) for k, m in enumerate(pattern.masks, 1) for j in _mask_to_rows(m))
    rows, cols = [0] * (pattern.f + 1), [0] * (pattern.k + 1)  # cells per row / column
    for v, (j, k) in enumerate(vertices):
        rows[j] |= 1 << v
        cols[k] |= 1 << v
    # Per row: the cells of the columns missing it; per column: the cells of
    # the rows it misses.
    via_row, via_col = [0] * (pattern.f + 1), [0] * (pattern.k + 1)
    for j, k in vertices:
        via_row[j] |= cols[k]
        via_col[k] |= rows[j]
    adj = tuple((via_row[j] | via_col[k]) & ~(1 << v) for v, (j, k) in enumerate(vertices))
    return ConflictGraph(vertices=tuple(vertices), adj=adj)


def _grid_from_coloring(
    pattern: StarPattern, graph: ConflictGraph, colors: Sequence[int]
) -> PdaGrid:
    # Both colorers open color c only once 1..c-1 are in use, so the colors
    # are already the dense symbols 1..S.
    cells = [[STAR] * pattern.k for _ in range(pattern.f)]
    for (j, k), c in zip(graph.vertices, colors):
        cells[j - 1][k - 1] = c
    return PdaGrid(tuple(tuple(row) for row in cells))


def _greedy_orders(graph: ConflictGraph) -> Dict[str, Sequence[int]]:
    """The two first-fit vertex orders: row-major, and descending degree
    (ties row-major)."""
    return {
        "row_major": range(graph.n),
        "degree_desc": sorted(range(graph.n), key=lambda v: -graph.adj[v].bit_count()),
    }


def _first_fit(graph: ConflictGraph, order: Sequence[int]) -> List[int]:
    colors = [0] * graph.n
    classes: List[int] = []  # vertex bitmask per color, color c at c-1
    for v in order:
        c = 0
        while c < len(classes) and graph.adj[v] & classes[c]:
            c += 1
        if c == len(classes):
            classes.append(0)
        classes[c] |= 1 << v
        colors[v] = c + 1
    return colors


def _greedy_coloring(graph: ConflictGraph) -> List[int]:
    """The first-fit coloring with fewer colors, row-major on a tie."""
    best: List[int] = []
    for order in _greedy_orders(graph).values():
        colors = _first_fit(graph, order)
        if not best or max(colors) < max(best):
            best = colors
    return best


# No caller in the package; bench/layers.py patches it by this name.
def fill_greedy(pattern: StarPattern) -> PdaGrid:
    """The first-fit grid: `fill_exact` at budget 0."""
    return fill_exact(pattern, budget=0).grid


class FillResult(
    namedtuple("FillResult", "grid colors optimal lower_bound class_size", defaults=(None,))
):
    """Outcome of an exact fill: the grid, its symbol count, and the proof
    state (optimal=True means the search closed the gap to lower_bound or
    exhausted every smaller color count).  class_size names the bound that
    binds: None for the ordering bound, else alpha, the most cells a
    symbol class can hold, for the symbol-class bound ceil(n / alpha) (one
    more when alpha divides n and no exact cover by alpha-classes exists).
    The ordering bound is the exact S* only when its search, capped at
    min(budget, 1e6) intersections, finishes."""

    __slots__ = ()


def _saturation_search(
    graph: ConflictGraph, k: int, budget: int
) -> Tuple[Optional[List[int]], int]:
    """Proper k-coloring via backtracking, most-saturated vertex first.

    Returns (coloring or None, nodes used); nodes used > budget means the
    budget ran out before the question was settled.
    """
    n, adj = graph.n, graph.adj
    colors = [0] * n
    neighbor_colors = [0] * n  # bit c: some colored neighbor holds color c
    # saturation * n + rank by (degree, -u), so the largest score has the
    # largest (saturation, degree, -u); coloring a vertex sinks it below 0.
    score = [0] * n
    for rank, u in enumerate(sorted(range(n), key=lambda u: (adj[u].bit_count(), -u))):
        score[u] = rank
    sees = [0] * (k + 1)  # per color: the neighbors of the vertices holding it
    uncolored, sink, nodes = (1 << n) - 1, n * n + n, 0
    # One frame per colored vertex, so that n is not tied to the recursion
    # limit: the vertex, the largest color in use before it, the uncolored
    # neighbors its color was new to, and that color's `sees` before it.
    stack: List[Tuple[int, int, int, int]] = []
    c = max_used = 0
    while True:
        if c == 0:  # a new node: pick the vertex to color next
            if len(stack) == n:
                return colors, nodes
            nodes += 1
            if nodes > budget:
                return None, nodes
            v = score.index(max(score))
        # Free colors above c, at most one of them fresh: more only permute names.
        free = ((2 << min(k, max_used + 1)) - (2 << c)) & ~neighbor_colors[v]
        if free:
            c = (free & -free).bit_length() - 1
            colors[v] = c
            score[v] -= sink
            uncolored ^= 1 << v
            touched = adj[v] & uncolored & ~sees[c]
            stack.append((v, max_used, touched, sees[c]))
            sees[c] |= adj[v]
            _toggle(touched, 1 << c, n, neighbor_colors, score)
            max_used, c = max(max_used, c), 0
            continue
        # Every color for v failed: undo its parent's color and try the next.
        if not stack:
            return None, nodes
        v, max_used, touched, sees_before = stack.pop()
        c = colors[v]
        sees[c] = sees_before
        _toggle(touched, 1 << c, -n, neighbor_colors, score)
        colors[v] = 0
        score[v] += sink
        uncolored |= 1 << v


def _toggle(
    touched: int, bit: int, step: int, neighbor_colors: List[int], score: List[int]
) -> None:
    """Flip color `bit` on each vertex of `touched`; move its score by `step`."""
    while touched:
        low = touched & -touched
        u = low.bit_length() - 1
        neighbor_colors[u] ^= bit
        score[u] += step
        touched ^= low


def _classes_of_size(
    graph: ConflictGraph, size: int, limit: Optional[int], budget: int
) -> Tuple[List[int], int]:
    """Up to `limit` (None: all) symbol classes of `size` cells each.

    A symbol class is an independent set of the conflict graph, as a vertex
    bitmask.  It holds at most one cell per row and per column, so a node
    is cut when its candidates span fewer rows or fewer columns than the
    cells it still wants.  Otherwise it branches on a line of the scarcer
    kind (rows or columns), the one with the fewest candidates: one of its
    cells joins the class, or none does.  Every class of `size` cells is
    found once.  Returns (classes, nodes used); nodes used > budget means
    the budget ran out first.
    """
    rows: Dict[int, int] = {}  # cell bitmask per row and per column
    cols: Dict[int, int] = {}
    for v, (j, k) in enumerate(graph.vertices):
        rows[j] = rows.get(j, 0) | 1 << v
        cols[k] = cols.get(k, 0) | 1 << v
    found: List[int] = []
    nodes = 0
    # (class so far, cells it still wants, candidates compatible with it)
    stack = [(0, size, (1 << graph.n) - 1)]
    while stack:
        chosen, want, cand = stack.pop()
        if not want:
            found.append(chosen)
            if len(found) == limit:
                break
            continue
        nodes += 1
        if nodes > budget:
            break
        row_cands = [m & cand for m in rows.values() if m & cand]
        col_cands = [m & cand for m in cols.values() if m & cand]
        lines = min(row_cands, col_cands, key=len)
        if len(lines) < want:
            continue
        line = min(lines, key=int.bit_count)
        stack.append((chosen, want, cand & ~line))
        for u in _bits(line):
            stack.append((chosen | 1 << u, want - 1, cand & ~graph.adj[u] & ~(1 << u)))
    return found, nodes


def _symbol_classes(
    graph: ConflictGraph, lb: int, colors: int, budget: int
) -> Tuple[int, List[int], int]:
    """Bound the largest symbol class alpha, and list the alpha-classes when
    a cover by them could beat `colors`.

    Sizes are tried downward from cap + 1, where cap = (n - 1) // lb is the
    largest alpha with ceil(n / alpha) > lb.  Finding a class of cap + 1
    cells ends the search, since the bound cannot then beat lb; finding
    none of size t + 1 proves alpha <= t.  Returns (a proven upper bound
    on alpha, every alpha-class if alpha <= cap divides n and n / alpha <
    colors or else none, nodes used); nodes used > budget means the budget
    ran out first, and the bound is what was proven by then.
    """
    n = graph.n
    # At most one cell per row and per column.
    alpha = min(len({j for j, _ in graph.vertices}), len({k for _, k in graph.vertices}))
    cap, nodes = (n - 1) // lb, 0
    for size in range(min(alpha, cap + 1), 0, -1):
        cover = size <= cap and n % size == 0 and n // size < colors
        classes, used = _classes_of_size(graph, size, None if cover else 1, budget - nodes)
        nodes += used
        if nodes > budget or (classes and size > cap):
            break
        if classes:
            return size, classes if cover else [], nodes
        alpha = size - 1
    return alpha, [], nodes


def _exact_cover(
    n: int, classes: Sequence[int], budget: int
) -> Tuple[Optional[List[int]], int]:
    """Disjoint members of `classes` (vertex bitmasks) that cover all n
    cells, by Algorithm X (Knuth, "Dancing Links", 2000) on bitmasks: each
    node branches on the uncovered cell that the fewest usable classes hold.

    Returns (the cover or None, nodes used); nodes used > budget means the
    budget ran out first.
    """
    holders = [0] * n  # per cell: the classes that hold it, bit i = classes[i]
    for i, cls in enumerate(classes):
        for v in _bits(cls):
            holders[v] |= 1 << i
    meets = [0] * len(classes)  # per class: the classes sharing a cell with it
    for i, cls in enumerate(classes):
        for v in _bits(cls):
            meets[i] |= holders[v]
    nodes = 0
    # (uncovered cells, classes disjoint from the cover so far, the cover)
    stack = [((1 << n) - 1, (1 << len(classes)) - 1, 0)]
    while stack:
        left, usable, cover = stack.pop()
        if not left:
            return [classes[i] for i in _bits(cover)], nodes
        nodes += 1
        if nodes > budget:
            return None, nodes
        options, fewest = 0, len(classes) + 1
        for v in _bits(left):
            held = holders[v] & usable
            if held.bit_count() < fewest:
                options, fewest = held, held.bit_count()
                if not fewest:
                    break
        for i in _bits(options):
            stack.append((left & ~classes[i], usable & ~meets[i], cover | 1 << i))
    return None, nodes


def fill_exact(pattern: StarPattern, budget: int = DEFAULT_COLOR_BUDGET) -> FillResult:
    """Minimum-symbol fill with an optimality verdict.

    The conflict graph is built once; the first-fit coloring on it is the
    starting upper bound, and the ordering bound, which expands at most
    min(budget, 1e6) intersections, the starting lower bound.  While they
    differ, the symbol-class stage bounds the largest class alpha, raises
    the lower bound to ceil(n / alpha), and, when alpha divides n, looks
    for an exact cover by alpha-classes, which is a fill at the bound (its
    absence raises the bound by one).  Color counts are then tried upward
    from the lower bound; the first feasible count is the chromatic
    number.  These stages share `budget` search nodes; when it runs out the
    first-fit grid comes back with optimal=False.  A negative budget raises
    ValueError.
    """
    if budget < 0:
        raise ValueError(f"need a budget of at least 0 search nodes, got {budget}")
    graph = build_conflict_graph(pattern)
    # A clique size, so it bounds every coloring (see the module docstring).
    lb = theorem1_exact(pattern, budget=min(budget, _BOUND_BUDGET)).value
    greedy = _greedy_coloring(graph)
    top = max(greedy, default=0)
    remaining, class_size = budget, None  # remaining < 0: the budget ran out
    if top > lb:
        alpha, classes, used = _symbol_classes(graph, lb, top, remaining)
        remaining -= used
        if -(-graph.n // alpha) > lb:
            lb, class_size = -(-graph.n // alpha), alpha
        if classes:
            cover, used = _exact_cover(graph.n, classes, remaining)
            remaining -= used
            if cover is not None:
                colors = [0] * graph.n
                # Symbols by first appearance in row-major order.
                for c, cls in enumerate(sorted(cover, key=lambda cls: cls & -cls), 1):
                    for v in _bits(cls):
                        colors[v] = c
                grid = _grid_from_coloring(pattern, graph, colors)
                return FillResult(grid, lb, optimal=True, lower_bound=lb, class_size=class_size)
            if remaining >= 0:  # no fill has n / alpha symbols
                lb += 1
    for k in range(lb, top):
        if remaining < 0:
            break
        coloring, used = _saturation_search(graph, k, remaining)
        remaining -= used
        if coloring is not None:
            grid = _grid_from_coloring(pattern, graph, coloring)
            return FillResult(grid, k, optimal=True, lower_bound=lb, class_size=class_size)
    # Unless the budget ran out, every count below the first-fit one was
    # refuted; a bound that meets it proves it optimal all the same.
    grid = _grid_from_coloring(pattern, graph, greedy)
    optimal = remaining >= 0 or lb == top
    return FillResult(grid, top, optimal=optimal, lower_bound=lb, class_size=class_size)
