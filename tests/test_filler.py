"""Conflict-graph fill: edge structure, greedy vs exact coloring, and the
optimality certificates on the worked arrays."""

import random

import pytest

from conftest import golden_grid
from pda_workbench import filler
from pda_workbench.bounds import theorem1_exact
from pda_workbench.core import STAR, PdaGrid, StarPattern, to_star_pattern, verify_pda
from pda_workbench.filler import (
    ConflictGraph,
    FillResult,
    build_conflict_graph,
    fill_exact,
    fill_greedy,
)


def pattern_of(name):
    return to_star_pattern(golden_grid(name))


def random_pattern(rng, f_max=8, k_max=6):
    f = rng.randint(2, f_max)
    k = rng.randint(2, k_max)
    masks = []
    for _ in range(k):
        size = rng.randint(0, f)
        m = 0
        for j in rng.sample(range(f), size):
            m |= 1 << j
        masks.append(m)
    return StarPattern(f, tuple(masks))


def brute_edges(pattern):
    """Quadratic edge oracle written from the sharing rule itself: two
    uncached cells conflict when they share a row, share a column, or one
    of the two cross cells is uncached."""
    uncached = {
        (j, k)
        for k, rows in enumerate(pattern.uncached_sets(), start=1)
        for j in rows
    }
    cells = sorted(uncached)
    edges = set()
    for a, (j1, k1) in enumerate(cells):
        for j2, k2 in cells[a + 1 :]:
            if (
                j1 == j2
                or k1 == k2
                or (j1, k2) in uncached
                or (j2, k1) in uncached
            ):
                edges.add(((j1, k1), (j2, k2)))
    return cells, edges


def graph_edges(graph):
    return {
        tuple(sorted((graph.vertices[a], graph.vertices[b])))
        for a in range(graph.n)
        for b in graph.adj[a]
        if a < b
    }


def brute_chromatic(graph):
    """Smallest color count admitting a proper coloring, by plain
    backtracking.  Only meant for the tiny graphs in this file."""
    for k in range(1, graph.n + 1):
        colors = [0] * graph.n

        def feasible(v):
            if v == graph.n:
                return True
            taken = {colors[u] for u in graph.adj[v]}
            for c in range(1, k + 1):
                if c not in taken:
                    colors[v] = c
                    if feasible(v + 1):
                        return True
                    colors[v] = 0
            return False

        if feasible(0):
            return k
    return 0


# ---------------------------------------------------------------- graph


def test_example3_conflict_graph_shape():
    graph = build_conflict_graph(pattern_of("GRID_K4_F6_Z3"))
    assert graph.n == 12  # 4 users x 3 uncached rows each
    assert graph.vertices == tuple(sorted(graph.vertices))
    assert graph.edge_count() == 42


def test_vertices_are_exactly_the_uncached_cells():
    pattern = pattern_of("GRID_K6_F8_Z5")
    graph = build_conflict_graph(pattern)
    cells, _ = brute_edges(pattern)
    assert list(graph.vertices) == cells


@pytest.mark.parametrize(
    "name", ["GRID_K6_F4_Z2", "GRID_K6_F4_Z1", "GRID_K4_F6_Z3", "GRID_K6_F8_Z5"]
)
def test_edges_match_the_sharing_rule_on_goldens(name):
    pattern = pattern_of(name)
    graph = build_conflict_graph(pattern)
    _, expected = brute_edges(pattern)
    assert graph_edges(graph) == expected


def test_edges_match_the_sharing_rule_on_random_patterns():
    rng = random.Random(88)
    for _ in range(150):
        pattern = random_pattern(rng)
        graph = build_conflict_graph(pattern)
        cells, expected = brute_edges(pattern)
        assert list(graph.vertices) == cells
        assert graph_edges(graph) == expected


def test_adjacency_is_symmetric_and_irreflexive():
    rng = random.Random(89)
    for _ in range(60):
        graph = build_conflict_graph(random_pattern(rng))
        for v, nbrs in enumerate(graph.adj):
            assert v not in nbrs
            for u in nbrs:
                assert v in graph.adj[u]


def test_fully_cached_pattern_has_empty_graph():
    pattern = StarPattern(3, (0, 0, 0, 0))
    graph = build_conflict_graph(pattern)
    assert graph.n == 0
    assert graph.edge_count() == 0


# --------------------------------------------------------------- greedy


@pytest.mark.parametrize("order", ["row_major", "degree_desc"])
@pytest.mark.parametrize(
    "name", ["GRID_K6_F4_Z2", "GRID_K6_F4_Z1", "GRID_K4_F6_Z3", "GRID_K6_F8_Z5"]
)
def test_greedy_fill_is_a_valid_array_on_the_same_stars(name, order):
    # Each first-fit order on its own yields a valid array; fill_greedy keeps
    # one of them, so it is valid too and never uses more symbols.
    pattern = pattern_of(name)
    graph = build_conflict_graph(pattern)
    colors = filler._first_fit(graph, filler._greedy_orders(graph)[order])
    one_order = filler._grid_from_coloring(pattern, graph, colors)
    assert verify_pda(one_order).valid
    assert to_star_pattern(one_order) == pattern
    grid = fill_greedy(pattern)
    assert verify_pda(grid).valid
    assert to_star_pattern(grid) == pattern
    assert grid.max_symbol() <= one_order.max_symbol()


# Frozen from a seeded scan: first fit in row-major order needs 4 symbols
# here, and most-neighbors-first needs 3 (which is also the optimum).
DEGREE_ORDER_WINS = StarPattern(4, (9, 6, 10))


def test_greedy_fill_keeps_the_better_order():
    grid = fill_greedy(DEGREE_ORDER_WINS)
    assert grid.max_symbol() == 3
    assert verify_pda(grid).valid
    assert to_star_pattern(grid) == DEGREE_ORDER_WINS


def test_greedy_symbols_are_dense_from_one():
    rng = random.Random(90)
    for _ in range(80):
        f = rng.randint(2, 6)
        z = rng.randint(0, f)
        k = rng.randint(2, 5)
        masks = []
        for _ in range(k):
            m = 0
            for j in rng.sample(range(f), f - z):
                m |= 1 << j
            masks.append(m)
        pattern = StarPattern(f, tuple(masks))
        grid = fill_greedy(pattern)
        symbols = {c for row in grid.cells for c in row if c != STAR}
        assert symbols == set(range(1, grid.max_symbol() + 1))


def test_greedy_on_fully_cached_pattern_is_all_stars():
    grid = fill_greedy(StarPattern(2, (0, 0)))
    assert grid.cells == ((STAR, STAR), (STAR, STAR))
    assert grid.max_symbol() == 0


# ---------------------------------------------------------------- exact


@pytest.mark.parametrize(
    "name,colors",
    [
        ("GRID_K4_F6_Z3", 4),
        ("GRID_K6_F4_Z2", 4),
        ("GRID_K6_F4_Z1", 11),
        ("GRID_K6_F8_Z5", 5),
    ],
)
def test_exact_fill_matches_the_golden_symbol_counts(name, colors):
    # Each worked array already uses as few symbols as its placement
    # permits, so the exact fill must land on the same count.
    pattern = pattern_of(name)
    result = fill_exact(pattern)
    assert result.optimal
    assert result.colors == colors
    assert result.lower_bound <= result.colors
    assert verify_pda(result.grid).valid
    assert to_star_pattern(result.grid) == pattern
    assert result.grid.max_symbol() == colors


def test_exact_fill_lower_bound_covers_the_ordering_bound():
    for name in ("GRID_K6_F4_Z2", "GRID_K6_F4_Z1", "GRID_K6_F8_Z5"):
        pattern = pattern_of(name)
        result = fill_exact(pattern)
        assert result.lower_bound >= theorem1_exact(pattern).value


def test_exact_fill_on_fully_cached_pattern():
    result = fill_exact(StarPattern(2, (0, 0, 0)))
    assert result == FillResult(
        grid=PdaGrid(((STAR, STAR, STAR), (STAR, STAR, STAR))),
        colors=0,
        optimal=True,
        lower_bound=0,
    )


def test_exact_fill_on_disjoint_uncached_rows_needs_one_symbol():
    # Users missing disjoint rows never collide: one shared symbol serves
    # everyone.
    pattern = StarPattern.from_sets(2, [(1,), (2,)])
    result = fill_exact(pattern)
    assert result.colors == 1
    assert result.optimal
    assert result.grid.cells == ((1, STAR), (STAR, 1))


def test_exact_fill_matches_brute_chromatic_number():
    rng = random.Random(91)
    checked = 0
    for _ in range(120):
        pattern = random_pattern(rng, f_max=5, k_max=4)
        graph = build_conflict_graph(pattern)
        if graph.n > 10:
            continue
        result = fill_exact(pattern)
        assert result.optimal
        assert result.colors == brute_chromatic(graph)
        checked += 1
    assert checked >= 60


def test_exact_never_beats_the_ordering_bound_and_never_loses_to_greedy():
    rng = random.Random(92)
    for _ in range(80):
        pattern = random_pattern(rng, f_max=7, k_max=5)
        result = fill_exact(pattern)
        if not result.optimal:
            continue
        assert theorem1_exact(pattern).value <= result.colors
        assert result.colors <= fill_greedy(pattern).max_symbol()


def test_exact_fill_builds_the_conflict_graph_once(monkeypatch):
    calls = []

    def counting(pattern):
        calls.append(pattern)
        return build_conflict_graph(pattern)

    monkeypatch.setattr(filler, "build_conflict_graph", counting)
    result = fill_exact(pattern_of("GRID_K6_F4_Z1"))
    assert result.optimal
    assert len(calls) == 1


def test_exhausted_budget_reports_the_greedy_grid_unproven():
    # Frozen case where both greedy orders use 4 symbols but 3 suffice,
    # so a one-node budget must give up before refuting or finding 3.
    pattern = StarPattern(8, (136, 132, 72, 3, 66))
    full = fill_exact(pattern)
    assert (full.colors, full.optimal, full.lower_bound) == (3, True, 3)

    truncated = fill_exact(pattern, budget=1)
    assert not truncated.optimal
    assert truncated.colors == 4
    assert truncated.lower_bound == 3
    assert verify_pda(truncated.grid).valid
    assert to_star_pattern(truncated.grid) == pattern
