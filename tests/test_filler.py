"""Conflict-graph fill: edge structure, greedy vs exact coloring, and the
optimality certificates on the worked arrays."""

import collections
import functools
import itertools
import operator
import random
import time

import pytest

from conftest import GOLDEN_PARAMS, golden_grid
from pda_workbench import filler
from pda_workbench.bounds import theorem1_exact, theorem1_greedy
from pda_workbench.constructions import mn_pda, partition_pda
from pda_workbench.core import (
    STAR,
    PdaGrid,
    StarPattern,
    _mask_to_rows,
    to_star_pattern,
    verify_pda,
)
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


def neighbors(graph, v):
    """Vertex v's neighbor indices, decoded from its adjacency bitmask."""
    assert 0 <= graph.adj[v] < 1 << graph.n  # no bit outside the vertices
    return {u for u in range(graph.n) if graph.adj[v] >> u & 1}


def graph_edges(graph):
    return {
        tuple(sorted((graph.vertices[a], graph.vertices[b])))
        for a in range(graph.n)
        for b in neighbors(graph, a)
        if a < b
    }


def brute_chromatic(graph):
    """Smallest color count admitting a proper coloring, by plain
    backtracking.  Only meant for the tiny graphs in this file."""
    nbrs = [neighbors(graph, v) for v in range(graph.n)]
    for k in range(1, graph.n + 1):
        colors = [0] * graph.n

        def feasible(v):
            if v == graph.n:
                return True
            taken = {colors[u] for u in nbrs[v]}
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
        for v in range(graph.n):
            nbrs = neighbors(graph, v)
            assert v not in nbrs
            for u in nbrs:
                assert v in neighbors(graph, u)


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


def test_ordering_witness_cells_form_a_clique():
    # Along any ordering the cells (j, i_h) with j in the running
    # intersection I_h pairwise conflict, so the ordering bound is the size
    # of a clique and bounds the chromatic number.
    rng = random.Random(93)
    for _ in range(200):
        pattern = random_pattern(rng)
        cert = theorem1_exact(pattern)
        graph = build_conflict_graph(pattern)
        index = {cell: v for v, cell in enumerate(graph.vertices)}
        clique, inter = [], (1 << pattern.f) - 1
        for u in cert.witness:
            inter &= pattern.masks[u - 1]
            rows = [j for j in range(1, pattern.f + 1) if inter >> (j - 1) & 1]
            clique += [index[(j, u)] for j in rows]
        assert len(clique) == cert.value
        assert all(b in neighbors(graph, a) for a, b in itertools.combinations(clique, 2))


@pytest.mark.parametrize("uniform", [True, False], ids=["z-uniform", "non-uniform"])
def test_exact_fill_lower_bound_is_the_ordering_bound(uniform):
    rng = random.Random(94)
    for _ in range(100):
        if uniform:
            f = rng.randint(2, 8)
            z = rng.randint(0, f)
            k = rng.randint(2, 6)
            masks = [sum(1 << j for j in rng.sample(range(f), f - z)) for _ in range(k)]
            pattern = StarPattern(f, masks)
        else:
            pattern = random_pattern(rng)
        result = fill_exact(pattern, budget=2_000)
        assert result.lower_bound == theorem1_exact(pattern).value


def test_negative_budget_is_rejected_and_zero_refutes_nothing():
    # The frozen case of the budget test below: greedy uses 4 symbols where
    # 3 suffice.
    pattern = StarPattern(8, (136, 132, 72, 3, 66))
    with pytest.raises(ValueError, match="budget"):
        fill_exact(pattern, budget=-1)
    zero = fill_exact(pattern, budget=0)
    assert (zero.colors, zero.optimal, zero.lower_bound) == (4, False, 3)


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


def test_saturation_search_descends_past_the_recursion_limit():
    # One user missing all 1,100 rows: a 1,100-clique, colored one vertex
    # per search level, deeper than Python's default recursion limit.
    graph = build_conflict_graph(StarPattern(1100, ((1 << 1100) - 1,)))
    colors, nodes = filler._saturation_search(graph, graph.n, 10**6)
    assert sorted(colors) == list(range(1, 1101))
    assert nodes == 1100


# ------------------------------------------------------- symbol classes


def brute_classes(pattern):
    """Every nonempty set of pairwise compatible uncached cells (a symbol
    class), as sorted tuples of indices into `brute_edges`' cells, grown
    one cell at a time from the sharing rule itself."""
    cells, edges = brute_edges(pattern)
    classes, frontier = [], [()]
    while frontier:
        cls = frontier.pop()
        if cls:
            classes.append(cls)
        for b in range(cls[-1] + 1 if cls else 0, len(cells)):
            if all((cells[a], cells[b]) not in edges for a in cls):
                frontier.append(cls + (b,))
    return classes


def class_patterns():
    """200 seeded patterns with F <= 6 and K <= 5: every other one has all
    users missing equally many rows, the rest have independent row counts."""
    rng = random.Random(96)
    for i in range(200):
        if i % 2:
            yield random_pattern(rng, f_max=6, k_max=5)
        else:
            f, k = rng.randint(2, 6), rng.randint(2, 5)
            z = rng.randint(0, f)
            masks = [sum(1 << j for j in rng.sample(range(f), f - z)) for _ in range(k)]
            yield StarPattern(f, masks)


def as_mask(cls):
    return sum(1 << v for v in cls)


def test_class_search_finds_exactly_the_brute_force_classes():
    sizes = collections.Counter()
    for pattern in class_patterns():
        graph = build_conflict_graph(pattern)
        classes = brute_classes(pattern)
        alpha = max(map(len, classes), default=0)
        for size in range(1, alpha + 2):
            expected = sorted(as_mask(c) for c in classes if len(c) == size)
            found, nodes = filler._classes_of_size(graph, size, None, 10**6)
            assert sorted(found) == expected, (pattern, size)
            assert nodes <= 10**6
            if expected:
                first, _ = filler._classes_of_size(graph, size, 1, 10**6)
                assert len(first) == 1 and first[0] in expected
        sizes[len({p.bit_count() for p in pattern.masks}) > 1, alpha] += 1
    # Both kinds of pattern, and largest classes from 1 to 4 cells.
    assert {a for _, a in sizes} >= {1, 2, 3, 4} and {u for u, _ in sizes} == {True, False}


# Frozen from seeded scans: patterns where ceil(n / alpha) beats the
# ordering bound, with and without a cover by alpha-classes, and the
# partition(3,2) pattern.
CLASS_BOUND_BINDS = [
    StarPattern(4, (10, 5, 6, 9)),
    StarPattern(4, (9, 12, 3, 12, 6, 3)),
    StarPattern(7, (10, 9, 80, 33, 34)),
    StarPattern(5, (12, 5, 3, 17, 20, 18, 10)),
    StarPattern(6, (60, 57, 15, 39, 27, 46)),
    to_star_pattern(partition_pda(3, 2)),
]


def test_symbol_classes_bound_the_largest_class():
    # At the ordering bound itself the class stage rarely binds on small
    # random patterns, so each pattern also runs with lb = 1, where every
    # size from the root bound down to alpha is refuted or listed.
    stages = collections.Counter()
    for pattern in [*class_patterns(), *CLASS_BOUND_BINDS]:
        graph = build_conflict_graph(pattern)
        if not graph.n:
            continue
        classes = brute_classes(pattern)
        alpha = max(map(len, classes))
        largest = sorted(as_mask(c) for c in classes if len(c) == alpha)
        top = max(filler._greedy_coloring(graph))
        for lb in sorted({1, theorem1_exact(pattern).value}):
            bound, listed, nodes = filler._symbol_classes(graph, lb, top, 10**6)
            assert nodes <= 10**6
            assert bound >= alpha
            cap = (graph.n - 1) // lb
            if alpha <= cap:
                # Every larger size was refuted, so the bound is alpha itself.
                assert bound == alpha
                stages["binds"] += 1
            else:
                # A class of cap + 1 cells ends the search at the root bound.
                rows = len({j for j, _ in graph.vertices})
                assert bound == min(rows, len({k for _, k in graph.vertices}))
                assert -(-graph.n // bound) <= lb
            wanted = alpha <= cap and graph.n % alpha == 0 and graph.n // alpha < top
            assert sorted(listed) == (largest if wanted else [])
            stages["listed"] += bool(listed)
    assert stages["binds"] >= 100 and stages["listed"] >= 10, stages


def test_class_bound_never_exceeds_the_chromatic_number():
    checked = 0
    for pattern in class_patterns():
        graph = build_conflict_graph(pattern)
        if not 0 < graph.n <= 8:  # brute_chromatic's time explodes past 8 cells
            continue
        alpha = max(map(len, brute_classes(pattern)))
        chi = brute_chromatic(graph)
        assert -(-graph.n // alpha) <= chi
        result = fill_exact(pattern)
        assert result.optimal and result.colors == chi
        assert result.lower_bound <= chi
        checked += 1
    assert checked >= 100


def test_every_exact_cover_is_a_valid_fill():
    covers = refuted = 0
    for pattern in class_patterns():
        graph = build_conflict_graph(pattern)
        classes = brute_classes(pattern)
        if not classes:
            continue
        alpha = max(map(len, classes))
        if graph.n % alpha:
            continue
        largest = [as_mask(c) for c in classes if len(c) == alpha]
        cover, nodes = filler._exact_cover(graph.n, largest, 10**6)
        assert nodes <= 10**6
        if cover is None:
            if graph.n <= 8:
                assert brute_chromatic(graph) > graph.n // alpha
            refuted += 1
            continue
        covers += 1
        assert set(cover) <= set(largest)
        assert sum(cover) == (1 << graph.n) - 1 == functools.reduce(operator.or_, cover)
        colors = [0] * graph.n
        for c, cls in enumerate(cover, 1):
            for v in range(graph.n):
                if cls >> v & 1:
                    colors[v] = c
        grid = filler._grid_from_coloring(pattern, graph, colors)
        assert to_star_pattern(grid) == pattern
        if pattern.uniform_z() is not None:
            assert verify_pda(grid).valid
    assert covers >= 20 and refuted >= 5, (covers, refuted)


@pytest.mark.parametrize("q,m,s", [(3, 2, 18), (4, 2, 48), (3, 3, 54), (5, 2, 100)])
def test_partition_fills_are_certified_by_symbol_classes(q, m, s):
    # The ordering bound stops below S on each (17, 45, 51, 90), and the
    # saturation search alone cannot close the gap; classes of at most
    # m + 1 cells and an exact cover by them certify the construction's S.
    grid = partition_pda(q, m)
    pattern = to_star_pattern(grid)
    start = time.perf_counter()
    result = fill_exact(pattern, budget=5000)
    assert time.perf_counter() - start < 1.0
    assert (result.colors, result.optimal, result.lower_bound) == (s, True, s)
    assert result.class_size == m + 1
    assert theorem1_exact(pattern).value < s
    assert verify_pda(result.grid).valid
    assert to_star_pattern(result.grid) == pattern


def test_a_refuted_cover_raises_the_bound_by_one():
    # Frozen from a seeded scan: 24 cells, classes of at most 2, ordering
    # bound 11, and no cover by 12 classes, so 13 symbols are needed.  The
    # frozen set-based search below refutes 12 and fills 13 on its own.
    pattern = StarPattern(6, (60, 57, 15, 39, 27, 46))
    graph = build_conflict_graph(pattern)
    assert (graph.n, theorem1_exact(pattern).value) == (24, 11)
    assert max(map(len, brute_classes(pattern))) == 2
    result = fill_exact(pattern)
    assert (result.colors, result.optimal, result.lower_bound, result.class_size) == (
        13,
        True,
        13,
        2,
    )
    assert verify_pda(result.grid).valid
    _, adj = ref_conflict_graph(pattern)
    assert ref_saturation_search(adj, 12, 10**6)[0] is None
    assert ref_saturation_search(adj, 13, 10**6)[0] is not None


def test_a_cut_short_class_stage_keeps_what_it_proved():
    pattern = to_star_pattern(partition_pda(4, 2))
    graph = build_conflict_graph(pattern)
    # Nothing searched: the fallback ordering's bound (S* is 45) stands.
    zero = fill_exact(pattern, budget=0)
    assert (zero.colors, zero.optimal, zero.lower_bound, zero.class_size) == (81, False, 44, None)
    # No class of 4 cells, then the budget ends while listing the 3-classes.
    _, refute = filler._classes_of_size(graph, 4, 1, 10**6)
    cut = fill_exact(pattern, budget=refute + 10)
    assert (cut.colors, cut.optimal, cut.lower_bound, cut.class_size) == (81, False, 48, 3)
    assert verify_pda(cut.grid).valid
    assert to_star_pattern(cut.grid) == pattern


def test_a_cut_short_cover_refutes_nothing():
    # A budget of no nodes ends the cover before its first branch.
    assert filler._exact_cover(3, [0b111], 0) == (None, 1)
    # On partition(3, 2) the fill is optimal once the budget pays for the
    # class stage and the cover that follows it.  One node less cuts the
    # cover short: the class bound 54 / 3 = 18 stands, but the missing
    # cover does not raise it to 19.
    pattern = to_star_pattern(partition_pda(3, 2))
    graph = build_conflict_graph(pattern)
    lb = theorem1_exact(pattern).value
    top = max(filler._greedy_coloring(graph))
    alpha, classes, class_nodes = filler._symbol_classes(graph, lb, top, 10**6)
    cover, cover_nodes = filler._exact_cover(graph.n, classes, 10**6)
    assert (graph.n, alpha, cover is not None) == (54, 3, True)
    least = class_nodes + cover_nodes
    cut = fill_exact(pattern, budget=least - 1)
    assert (cut.colors, cut.optimal, cut.lower_bound, cut.class_size) == (29, False, 18, 3)
    assert verify_pda(cut.grid).valid
    full = fill_exact(pattern, budget=least)
    assert (full.colors, full.optimal, full.lower_bound, full.class_size) == (18, True, 18, 3)


# ------------------------------------------- frozen set-based reference
# The conflict graph, first fit and saturation search as they were before
# the filler moved to bitmasks: a pair loop building neighbor sets, a
# first fit that collects its neighbors' colors, and a search that picks
# each vertex by max over a (saturation, degree, -u) key.  The one change
# is that an exhausted budget returns (None, nodes) instead of raising.
# The bitmask engine must visit the same nodes in the same order, so
# everything it returns must match these.


def ref_conflict_graph(pattern):
    vertices = sorted(
        (j, k) for k in range(1, pattern.k + 1) for j in _mask_to_rows(pattern.masks[k - 1])
    )
    adj = [set() for _ in vertices]
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
    return vertices, adj


def ref_first_fit(adj, order):
    colors = [0] * len(adj)
    for v in order:
        taken = {colors[u] for u in adj[v]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def ref_saturation_search(adj, k, budget):
    n = len(adj)
    colors = [0] * n
    neighbor_colors = [set() for _ in range(n)]
    nodes = 0
    stack = []
    v, c, max_used = -1, 0, 0
    while True:
        if c == 0:
            if len(stack) == n:
                return colors, nodes
            nodes += 1
            if nodes > budget:
                return None, nodes
            v = max(
                (u for u in range(n) if not colors[u]),
                key=lambda u: (len(neighbor_colors[u]), len(adj[u]), -u),
            )
        limit = min(k, max_used + 1)
        c += 1
        while c <= limit and c in neighbor_colors[v]:
            c += 1
        if c <= limit:
            colors[v] = c
            touched = [u for u in adj[v] if not colors[u] and c not in neighbor_colors[u]]
            for u in touched:
                neighbor_colors[u].add(c)
            stack.append((v, max_used, touched))
            max_used, c = max(max_used, c), 0
            continue
        if not stack:
            return None, nodes
        v, max_used, touched = stack.pop()
        c = colors[v]
        for u in touched:
            neighbor_colors[u].remove(c)
        colors[v] = 0


def ref_fill(pattern, budget):
    """fill_greedy's cells and fill_exact's (cells, colors, optimal, lower
    bound), composed from the reference pieces as the filler composes its
    own."""
    vertices, adj = ref_conflict_graph(pattern)

    def cells(colors):
        grid = [[STAR] * pattern.k for _ in range(pattern.f)]
        for (j, k), c in zip(vertices, colors):
            grid[j - 1][k - 1] = c
        return tuple(tuple(row) for row in grid)

    greedy = min(
        (
            ref_first_fit(adj, range(len(adj))),
            ref_first_fit(adj, sorted(range(len(adj)), key=lambda v: -len(adj[v]))),
        ),
        key=lambda colors: max(colors, default=0),
    )
    top = max(greedy, default=0)
    lb = theorem1_exact(pattern, budget=filler._BOUND_BUDGET).value
    for k in range(lb, top):
        coloring, used = ref_saturation_search(adj, k, budget)
        if used > budget:
            return cells(greedy), (cells(greedy), top, False, lb)
        budget -= used
        if coloring is not None:
            return cells(greedy), (cells(coloring), k, True, lb)
    return cells(greedy), (cells(greedy), top, True, lb)


def differential_patterns():
    """300 seeded patterns with F, K <= 16: every other one has all users
    missing equally many rows, the rest have independent row counts."""
    rng = random.Random(95)
    for i in range(300):
        f, k = rng.randint(1, 16), rng.randint(1, 16)
        top = rng.randint(0, f)
        sizes = [rng.randint(0, top) for _ in range(k)] if i % 2 else [top] * k
        yield StarPattern(f, [sum(1 << j for j in rng.sample(range(f), z)) for z in sizes])


def test_bitmask_engine_matches_the_set_based_reference():
    outcomes = collections.Counter()
    for pattern in differential_patterns():
        graph = build_conflict_graph(pattern)
        vertices, adj = ref_conflict_graph(pattern)
        assert list(graph.vertices) == vertices
        assert [neighbors(graph, v) for v in range(graph.n)] == adj
        assert graph.edge_count() == sum(map(len, adj)) // 2
        for order in filler._greedy_orders(graph).values():
            assert filler._first_fit(graph, order) == ref_first_fit(adj, order)
        # k = 1..8, plus one below the greedy count, where most of the deep
        # searches and budget cut-offs are.
        top = max(filler._greedy_coloring(graph), default=0)
        for k in sorted({*range(1, 9), top - 1} - {-1, 0}):
            for budget in (1, 30, 2000):
                got = filler._saturation_search(graph, k, budget)
                expected = ref_saturation_search(adj, k, budget)
                assert got == expected, (pattern, k, budget)
                outcomes[budget, "cut" if got[1] > budget else got[0] is not None] += 1
    # Every budget cuts searches short and finds colorings; the larger two
    # also refute (one node refutes nothing when k >= 1).
    seen = [(1, "cut"), (1, True)] + [(b, o) for b in (30, 2000) for o in ("cut", True, False)]
    assert min(outcomes[key] for key in seen) >= 5, outcomes


# The three cases where the symbol-class stage certifies the construction's
# S, which the reference's ordering bound (17 on partition(3,2), 45 on
# partition(4,2), where the reference ends unproven at 81) cannot.
CERTIFIED_BY_CLASSES = {"PARTITION_Q3_M2": 18, "partition(3,2)": 18, "partition(4,2)": 48}
REFERENCE_CASES = {name: pattern_of(name) for name in sorted(GOLDEN_PARAMS)}
REFERENCE_CASES["partition(3,2)"] = to_star_pattern(partition_pda(3, 2))
REFERENCE_CASES["partition(4,2)"] = to_star_pattern(partition_pda(4, 2))


@pytest.mark.parametrize(
    "pattern,certified",
    [(p, CERTIFIED_BY_CLASSES.get(name)) for name, p in REFERENCE_CASES.items()],
    ids=list(REFERENCE_CASES),
)
def test_fills_match_the_set_based_reference(pattern, certified):
    greedy_cells, (cells, colors, optimal, lb) = ref_fill(pattern, 5000)
    assert fill_greedy(pattern).cells == greedy_cells
    result = fill_exact(pattern, budget=5000)
    if certified is not None:
        assert (result.colors, result.optimal, result.lower_bound) == (
            certified,
            True,
            certified,
        )
        assert verify_pda(result.grid).valid
        assert to_star_pattern(result.grid) == pattern
        return
    assert (result.grid.cells, result.colors, result.optimal, result.lower_bound) == (
        cells,
        colors,
        optimal,
        lb,
    )


# ------------------------------------------------------------- budget 0


def test_budget_zero_runs_no_search_and_returns_the_first_fit_grid():
    # fill_greedy is fill_exact at budget 0, so the reference's first fit
    # (the grid fill_greedy built on its own before) is the oracle here.
    extra = [to_star_pattern(partition_pda(3, 2)), to_star_pattern(mn_pda(6, 2))]
    for pattern in [*class_patterns(), *differential_patterns(), *extra]:
        first_fit_cells, _ = ref_fill(pattern, 0)
        assert fill_exact(pattern, budget=0).grid.cells == first_fit_cells, pattern
        assert theorem1_exact(pattern, budget=0).value >= theorem1_greedy(pattern).value


def test_a_bound_that_meets_first_fit_proves_it_even_when_the_budget_ran_out():
    # At budget 0 the fallback orderings give 1 (S* is 2), and the class
    # stage is cut short at once.  Its root bound, one cell per row and per
    # column, still caps a class at 3 of the 4 cells: 2 symbols, first fit's.
    zero = fill_exact(StarPattern(4, (2, 1, 4, 1)), budget=0)
    assert (zero.colors, zero.optimal, zero.lower_bound, zero.class_size) == (2, True, 2, 3)


def intersection_count(pattern):
    """The distinct nonempty intersections of user subsets, the full row
    set included: what the exact ordering bound expands."""
    full = (1 << pattern.f) - 1
    lattice = frontier = {full}
    while frontier:
        frontier = {inter & m for inter in frontier for m in pattern.masks} - lattice - {0}
        lattice = lattice | frontier
    return len(lattice)


def test_the_fill_bound_is_exact_once_the_budget_covers_the_intersections(monkeypatch):
    certs = []

    def recording(pattern, budget):
        certs.append(theorem1_exact(pattern, budget=budget))
        return certs[-1]

    monkeypatch.setattr(filler, "theorem1_exact", recording)
    for pattern in class_patterns():
        count = intersection_count(pattern)
        result = fill_exact(pattern, budget=count)
        assert certs[-1].exact
        assert certs[-1].value == theorem1_exact(pattern).value
        assert result.lower_bound >= certs[-1].value
        fill_exact(pattern, budget=count - 1)
        assert not certs[-1].exact
