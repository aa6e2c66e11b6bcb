"""Turn a star pattern into a concrete array with few symbols.

Fix the stars and ask for the cheapest symbol assignment on the remaining
cells.  Two cells can share a symbol only if they sit in distinct rows and
columns and their two cross cells are both stars, so legal assignments are
exactly the proper colorings of a *conflict graph* on the non-star cells —
and the minimum symbol count is its chromatic number.

`fill_greedy` colors first-fit in two vertex orders, row-major and most
neighbors first, and keeps the better (fast, no optimality claim).
`fill_exact` starts from that coloring and finds the chromatic number by
trying k = LB, LB+1, ... with a saturation-guided backtracking search.
The lower bound is the larger of a greedy clique and the ordering bound on
the same pattern — the bound that limits every array with this placement
also limits every coloring, which is what lets the search start high and
certify optimality early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .bounds import theorem1_exact
from .core import STAR, PdaGrid, StarPattern, _mask_to_rows

DEFAULT_COLOR_BUDGET = 5_000_000
_BOUND_BUDGET = 1_000_000  # intersections for the ordering lower bound


@dataclass(frozen=True)
class ConflictGraph:
    """Non-star cells and the pairs that must not share a symbol."""

    vertices: Tuple[Tuple[int, int], ...]  # (row j, user k), row-major
    adj: Tuple[frozenset, ...]  # neighbor indices per vertex

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2


def build_conflict_graph(pattern: StarPattern) -> ConflictGraph:
    """Vertices are the uncached cells; edges forbid sharing a symbol.

    (j1,k1) ~ (j2,k2) when the rows or the columns coincide, or one of the
    cross cells (j1,k2), (j2,k1) is itself uncached.
    """
    vertices = sorted(
        (j, k)
        for k in range(1, pattern.k + 1)
        for j in _mask_to_rows(pattern.masks[k - 1])
    )
    adj: List[set] = [set() for _ in vertices]
    for a in range(len(vertices)):
        j1, k1 = vertices[a]
        for b in range(a + 1, len(vertices)):
            j2, k2 = vertices[b]
            if (
                j1 == j2
                or k1 == k2
                or pattern.masks[k2 - 1] >> (j1 - 1) & 1
                or pattern.masks[k1 - 1] >> (j2 - 1) & 1
            ):
                adj[a].add(b)
                adj[b].add(a)
    return ConflictGraph(
        vertices=tuple(vertices), adj=tuple(frozenset(a) for a in adj)
    )


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
        "degree_desc": sorted(range(graph.n), key=lambda v: -len(graph.adj[v])),
    }


def _first_fit(graph: ConflictGraph, order: Sequence[int]) -> List[int]:
    colors = [0] * graph.n
    for v in order:
        taken = {colors[u] for u in graph.adj[v]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def _greedy_coloring(graph: ConflictGraph) -> List[int]:
    """The first-fit coloring with fewer colors, row-major on a tie."""
    best: List[int] = []
    for order in _greedy_orders(graph).values():
        colors = _first_fit(graph, order)
        if not best or max(colors) < max(best):
            best = colors
    return best


def fill_greedy(pattern: StarPattern) -> PdaGrid:
    """The better of two first-fit colorings; C2/C3 hold by construction.

    (C1 additionally needs the input pattern to miss equally many rows per
    user, as every pattern of an actual array does.)
    """
    graph = build_conflict_graph(pattern)
    return _grid_from_coloring(pattern, graph, _greedy_coloring(graph))


@dataclass(frozen=True)
class FillResult:
    """Outcome of an exact fill: the grid, its symbol count, and the proof
    state (optimal=True means the search closed the gap to lower_bound or
    exhausted every smaller color count)."""

    grid: PdaGrid
    colors: int
    optimal: bool
    lower_bound: int


class _OutOfNodes(Exception):
    pass


def _greedy_clique(graph: ConflictGraph) -> int:
    """Clique by greedy extension from each high-degree seed (a few tries)."""
    if graph.n == 0:
        return 0
    best = 1
    by_degree = sorted(range(graph.n), key=lambda v: -len(graph.adj[v]))
    for seed in by_degree[: min(8, graph.n)]:
        clique = [seed]
        for v in by_degree:
            if v != seed and all(v in graph.adj[u] for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


def _saturation_search(
    graph: ConflictGraph, k: int, budget: int
) -> Tuple[Optional[List[int]], int]:
    """Proper k-coloring via backtracking, most-saturated vertex first.

    Returns (coloring or None, nodes used).  Raises _OutOfNodes when the
    budget runs out before the question is settled.
    """
    n = graph.n
    colors = [0] * n
    neighbor_colors: List[set] = [set() for _ in range(n)]
    nodes = 0

    def dfs(colored: int, max_used: int) -> bool:
        nonlocal nodes
        if colored == n:
            return True
        nodes += 1
        if nodes > budget:
            raise _OutOfNodes()
        v = max(
            (u for u in range(n) if not colors[u]),
            key=lambda u: (len(neighbor_colors[u]), len(graph.adj[u]), -u),
        )
        # Trying more than one fresh color only permutes names.
        for c in range(1, min(k, max_used + 1) + 1):
            if c in neighbor_colors[v]:
                continue
            colors[v] = c
            touched = [
                u for u in graph.adj[v] if not colors[u] and c not in neighbor_colors[u]
            ]
            for u in touched:
                neighbor_colors[u].add(c)
            if dfs(colored + 1, max(max_used, c)):
                return True
            for u in touched:
                neighbor_colors[u].remove(c)
            colors[v] = 0
        return False

    found = dfs(0, 0)
    return (colors if found else None), nodes


def fill_exact(pattern: StarPattern, budget: int = DEFAULT_COLOR_BUDGET) -> FillResult:
    """Minimum-symbol fill with an optimality verdict.

    The conflict graph is built once; the `fill_greedy` coloring on it is
    the starting upper bound.  Color counts are tried upward from the lower
    bound; the first feasible count is the chromatic number provided every
    smaller count was refuted within `budget` search nodes.  On budget
    exhaustion the greedy grid comes back with optimal=False.
    """
    graph = build_conflict_graph(pattern)
    if graph.n == 0:
        grid = PdaGrid(tuple(tuple([STAR] * pattern.k) for _ in range(pattern.f)))
        return FillResult(grid=grid, colors=0, optimal=True, lower_bound=0)

    # The ordering bound caps any array on this pattern, colorings included.
    bound_cert = theorem1_exact(pattern, budget=_BOUND_BUDGET)
    lb = max(_greedy_clique(graph), bound_cert.value, 1)

    greedy = _greedy_coloring(graph)
    best_grid, best_colors = _grid_from_coloring(pattern, graph, greedy), max(greedy)

    if best_colors == lb:
        return FillResult(grid=best_grid, colors=lb, optimal=True, lower_bound=lb)

    remaining = budget
    for k in range(lb, best_colors):
        try:
            coloring, used = _saturation_search(graph, k, remaining)
        except _OutOfNodes:
            return FillResult(
                grid=best_grid, colors=best_colors, optimal=False, lower_bound=lb
            )
        remaining -= used
        if coloring is not None:
            return FillResult(
                grid=_grid_from_coloring(pattern, graph, coloring),
                colors=k,
                optimal=True,
                lower_bound=lb,
            )
    # Every count below the greedy solution was refuted: greedy was optimal.
    return FillResult(
        grid=best_grid, colors=best_colors, optimal=True, lower_bound=lb
    )
