"""Ordering bound: exact search vs brute force, prescribed orderings,
the running-union identity, and the min-max placement search."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import golden_grid
from test_formulas import union_sum
from pda_workbench import bounds
from pda_workbench.bounds import (
    BoundCertificate,
    eval_ordering,
    theorem1_exact,
    theorem1_greedy,
    theorem3_search,
)
from pda_workbench.constructions import (
    bipartite_ordering,
    bipartite_pda,
    grouping_pda,
    partition_ordering,
    partition_pda,
)
from pda_workbench.core import StarPattern, pda_params, to_star_pattern


def pattern_of(name):
    return to_star_pattern(golden_grid(name))


def brute_force_max(pattern):
    """Max nested-intersection sum over every full ordering.

    Permutations come out lexicographically and the maximum is kept only
    on strict improvement, so the returned ordering is the lex-least
    maximizer -- the same tie-break theorem1_exact promises.
    """
    full = (1 << pattern.f) - 1
    best, best_order = -1, None
    for perm in itertools.permutations(range(1, pattern.k + 1)):
        inter, total = full, 0
        for u in perm:
            inter &= pattern.masks[u - 1]
            if not inter:
                break
            total += inter.bit_count()
        if total > best:
            best, best_order = total, perm
    return best, best_order


# ---------------------------------------------------------------------------
# the low-memory 6-user placement: value 11, chain 3+3+2+2+1
# ---------------------------------------------------------------------------


def test_prescribed_ordering_reaches_11():
    cert = eval_ordering(pattern_of("GRID_K6_F4_Z1"), (1, 5, 2, 6, 3, 4))
    assert cert.value == 11
    assert cert.step_sizes == (3, 3, 2, 2, 1, 0)
    assert cert.method == "prescribed" and not cert.exact
    assert cert.rate_bound == Fraction(11, 4)


def test_exact_search_finds_11_with_lex_least_witness():
    cert = theorem1_exact(pattern_of("GRID_K6_F4_Z1"))
    assert cert.value == 11
    assert cert.witness == (1, 5, 2, 6, 3, 4)
    assert cert.step_sizes == (3, 3, 2, 2, 1, 0)
    assert cert.method == "exact" and cert.exact


def test_greedy_reaches_11_here():
    assert theorem1_greedy(pattern_of("GRID_K6_F4_Z1")).value == 11


def test_partial_orderings_are_allowed():
    pat = pattern_of("GRID_K6_F4_Z1")
    assert eval_ordering(pat, (5,)).step_sizes == (3,)
    assert eval_ordering(pat, (4, 1)).value == 5


# ---------------------------------------------------------------------------
# exact search vs brute force
# ---------------------------------------------------------------------------


def random_pattern(rng, k_max=6):
    f = rng.randint(1, 8)
    k = rng.randint(2, k_max)
    return StarPattern(f, tuple(rng.randint(0, (1 << f) - 1) for _ in range(k)))


def test_exact_matches_brute_force_values_and_witnesses():
    rng = random.Random(1302)
    for _ in range(150):
        pat = random_pattern(rng, k_max=6)
        value, order = brute_force_max(pat)
        cert = theorem1_exact(pat)
        assert cert.value == value
        assert cert.witness == order
        assert cert.exact and cert.method == "exact"


def test_exact_matches_brute_force_at_seven_users():
    rng = random.Random(77)
    for _ in range(40):
        f = rng.randint(2, 7)
        pat = StarPattern(f, tuple(rng.randint(0, (1 << f) - 1) for _ in range(7)))
        assert theorem1_exact(pat).value == brute_force_max(pat)[0]


def test_greedy_never_beats_exact_and_prescribed_never_beats_greedy_is_false():
    # Greedy is a lower bound on exact; arbitrary prescribed orderings can
    # land anywhere at or below exact.
    rng = random.Random(5)
    for _ in range(60):
        pat = random_pattern(rng)
        exact = theorem1_exact(pat).value
        assert theorem1_greedy(pat).value <= exact
        order = list(range(1, pat.k + 1))
        rng.shuffle(order)
        assert eval_ordering(pat, order).value <= exact


def test_budget_exhaustion_degrades_honestly():
    rng = random.Random(9)
    pat = StarPattern(10, tuple(rng.randint(0, (1 << 10) - 1) for _ in range(10)))
    cert = theorem1_exact(pat, budget=3)
    assert not cert.exact and cert.method == "branch_bound"
    # the incumbent is never worse than the identity ordering it was seeded with
    assert cert.value >= eval_ordering(pat, range(1, 11)).value
    assert cert.value == sum(cert.step_sizes)
    assert theorem1_exact(pat).value >= cert.value


def test_negative_budget_is_rejected_and_zero_truncates():
    pat = pattern_of("GRID_K6_F4_Z1")
    with pytest.raises(ValueError, match="budget"):
        theorem1_exact(pat, budget=-1)
    cert = theorem1_exact(pat, budget=0)
    assert not cert.exact and cert.method == "branch_bound"


def test_budget_counts_distinct_intersections():
    # The exact search expands each distinct nonempty intersection of a
    # user subset once (the empty subset gives the full row set).
    pat = pattern_of("GRID_K6_F4_Z1")
    full = (1 << pat.f) - 1
    lattice = {full}
    for r in range(1, pat.k + 1):
        for group in itertools.combinations(pat.masks, r):
            inter = full
            for mask in group:
                inter &= mask
            if inter:
                lattice.add(inter)
    assert theorem1_exact(pat, budget=len(lattice)).exact
    assert not theorem1_exact(pat, budget=len(lattice) - 1).exact


def test_truncated_search_reports_the_better_of_identity_and_greedy():
    pat = to_star_pattern(partition_pda(4, 3))
    cert = theorem1_exact(pat, budget=1_000)
    assert not cert.exact and cert.method == "branch_bound"
    fallbacks = [eval_ordering(pat, range(1, pat.k + 1)), theorem1_greedy(pat)]
    best = max(c.value for c in fallbacks)
    assert cert.value == best
    assert (cert.witness, cert.step_sizes) in [
        (c.witness, c.step_sizes) for c in fallbacks if c.value == best
    ]


def test_exact_search_descends_past_the_recursion_limit():
    # User u leaves every row but row u uncached, so the running
    # intersections nest 1,100 deep, past the default recursion limit,
    # before the budget runs out.  The fallback is the identity ordering,
    # 1099 + 1098 + ... + 1.
    full = (1 << 1100) - 1
    chain = StarPattern(1100, [full ^ (1 << u) for u in range(1100)])
    cert = theorem1_exact(chain, budget=2000)
    assert cert.method == "branch_bound"
    assert cert.value == 604450
    assert cert.exact is False


@pytest.mark.parametrize("q,m,value", [(5, 2, 90), (4, 3, 180)])
def test_exact_certifies_the_partition_frontier(q, m, value):
    pat = to_star_pattern(partition_pda(q, m))
    cert = theorem1_exact(pat, budget=300_000)
    assert cert.exact and cert.method == "exact"
    assert cert.value == value
    replay = eval_ordering(pat, cert.witness)
    assert (replay.value, replay.step_sizes) == (cert.value, cert.step_sizes)


# ---------------------------------------------------------------------------
# certificate plumbing
# ---------------------------------------------------------------------------


def test_certificate_consistency_is_enforced():
    with pytest.raises(ValueError, match="disagrees"):
        BoundCertificate(5, 4, (1, 2), (2, 2), "prescribed", False)
    with pytest.raises(ValueError, match="non-increasing"):
        BoundCertificate(5, 4, (1, 2), (2, 3), "prescribed", False)
    with pytest.raises(ValueError, match="repeats"):
        BoundCertificate(4, 4, (1, 1), (2, 2), "prescribed", False)


def test_certificate_as_dict_shape():
    d = theorem1_exact(pattern_of("GRID_K4_F6_Z3")).as_dict()
    assert d == {
        "value": 4,
        "rate_bound": {"num": 2, "den": 3},
        "witness": [1, 2, 3, 4],
        "step_sizes": [3, 1, 0, 0],
        "method": "exact",
        "exact": True,
    }


def test_bad_orderings_rejected():
    pat = pattern_of("GRID_K4_F6_Z3")
    with pytest.raises(ValueError, match="repeats"):
        eval_ordering(pat, (1, 1))
    with pytest.raises(ValueError, match="outside"):
        eval_ordering(pat, (0,))
    with pytest.raises(ValueError, match="outside"):
        eval_ordering(pat, (5,))


# ---------------------------------------------------------------------------
# running-union identity
# ---------------------------------------------------------------------------


def test_union_sum_on_reference_placements():
    assert union_sum(pattern_of("GRID_K4_F6_Z3"), (1, 2, 3, 4)) == 20
    assert union_sum(pattern_of("GRID_K6_F4_Z1"), (1, 5, 2, 6, 3, 4)) == 13


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_union_and_intersection_sums_are_complementary(data):
    f = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 6))
    pat = StarPattern(
        f, tuple(data.draw(st.integers(0, (1 << f) - 1)) for _ in range(k))
    )
    order = tuple(data.draw(st.permutations(list(range(1, k + 1)))))
    assert eval_ordering(pat, order).value == k * f - union_sum(pat, order)


# ---------------------------------------------------------------------------
# prescribed orderings for the construction families
# ---------------------------------------------------------------------------


def test_partition_ordering_shape_and_value():
    order = partition_ordering(3, 2)
    assert order == (3, 6, 7, 8, 9, 1, 2, 4, 5)
    cert = eval_ordering(to_star_pattern(partition_pda(3, 2)), order)
    assert cert.value == 15
    assert cert.step_sizes == (6, 4, 3, 2, 0, 0, 0, 0, 0)


def test_partition_ordering_value_at_q3_m3():
    pat = to_star_pattern(partition_pda(3, 3))
    assert eval_ordering(pat, partition_ordering(3, 3)).value == 47


@pytest.mark.parametrize("m", range(2, 7))
def test_partition_ordering_is_tight_at_q2(m):
    grid = partition_pda(2, m)
    cert = eval_ordering(to_star_pattern(grid), partition_ordering(2, m))
    assert cert.value == 2 ** m == pda_params(grid).s


def test_partition_ordering_is_a_permutation():
    for q, m in [(2, 4), (3, 2), (4, 3), (5, 2)]:
        order = partition_ordering(q, m)
        assert sorted(order) == list(range(1, (m + 1) * q + 1))


def test_bipartite_ordering_shape_and_value():
    order = bipartite_ordering(5, 2, 1)
    assert order == (1, 5, 2, 8, 6, 3, 10, 9, 7, 4)
    cert = eval_ordering(to_star_pattern(bipartite_pda(5, 2, 1)), order)
    assert cert.value == 10
    assert cert.step_sizes == (3, 2, 2, 1, 1, 1, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "m,a,b",
    [(m, a, b) for m in range(3, 8) for a in range(1, m) for b in range(1, m - a)],
)
def test_bipartite_ordering_is_tight(m, a, b):
    grid = bipartite_pda(m, a, b)
    order = bipartite_ordering(m, a, b)
    assert sorted(order) == list(range(1, comb(m, a) + 1))
    value = eval_ordering(to_star_pattern(grid), order).value
    assert value == comb(m, a + b) == pda_params(grid).s


# ---------------------------------------------------------------------------
# min-max placement search
# ---------------------------------------------------------------------------


def brute_force_min_max(k, f, z):
    """Least exact bound over every Z-uniform placement, in product order.

    Also returns how many placements it evaluated: up to and including the
    first that reaches the floor f - z, past which nothing can be lower,
    or all of them.
    """
    rows = itertools.combinations(range(1, f + 1), f - z)
    masks = [sum(1 << (j - 1) for j in r) for r in rows]
    best, evaluated = None, 0
    for placement in itertools.product(masks, repeat=k):
        evaluated += 1
        cert = theorem1_exact(StarPattern(f, placement))
        assert cert.exact
        best = cert.value if best is None else min(best, cert.value)
        if best == f - z:
            break
    return best, evaluated


def test_min_max_on_the_half_memory_shape():
    rep = theorem3_search(4, 6, 3)
    assert rep.best_value == 4
    assert rep.rate_bound == Fraction(2, 3)
    assert rep.exhaustive
    # the winning placement really attains 4 and is Z-uniform
    assert theorem1_exact(rep.best_pattern).value == 4
    assert rep.best_pattern.uniform_z() == 3


@pytest.mark.parametrize(
    "k,f,z",
    [(2, 2, 1), (2, 3, 1), (3, 3, 2), (3, 4, 2), (4, 4, 2), (2, 4, 2), (3, 5, 2), (3, 6, 3)],
)
def test_canonical_and_exhaustive_modes_agree(k, f, z):
    best, evaluated = brute_force_min_max(k, f, z)
    rep = theorem3_search(k, f, z)
    assert rep.best_value == best
    assert rep.exhaustive
    assert rep.dedup_hits >= 0 and rep.nodes_explored <= evaluated


@pytest.mark.parametrize(
    "k,f,z,budget,expected",
    [(4, 8, 4, 5000, 6), (5, 6, 3, None, 6)],
)
def test_min_max_frontier_completes(k, f, z, budget, expected):
    rep = theorem3_search(k, f, z, budget=budget)
    assert rep.exhaustive
    assert rep.best_value == expected
    assert rep.best_pattern.uniform_z() == z
    assert theorem1_exact(rep.best_pattern).value == expected


# (k, f, z, budget) -> (best_value, nodes_explored, dedup_hits, exhaustive).
# The counts pin the walk itself: its order, its pruning, where a budget
# stops it and where it stops at the floor f - z, not just the minimum.
SEARCH_WALKS = {
    (1, 4, 2, None): (2, 1, 0, True),  # one user: a single leaf
    (2, 4, 2, None): (2, 6, 0, True),  # stops at the floor 2
    (3, 5, 5, None): (0, 1, 0, True),  # all cached: the first leaf is the floor
    (3, 4, 2, None): (3, 17, 3, True),
    (3, 6, 3, None): (4, 72, 16, True),
    (4, 6, 3, None): (4, 139, 61, True),  # the README's example
    (4, 6, 3, 5): (11, 5, 0, False),  # stops before any pruning
    (4, 6, 3, 100): (5, 100, 31, False),  # stops mid-descent
    (5, 8, 4, 30): (18, 30, 0, False),
    (5, 6, 2, None): (10, 985, 446, True),
    (4, 8, 4, 5000): (6, 862, 500, True),
    (5, 4, 2, None): (4, 39, 12, True),  # stops at the shape floor 4
}


@pytest.mark.parametrize("shape", sorted(SEARCH_WALKS, key=str))
def test_search_walk_counts_are_pinned(shape):
    k, f, z, budget = shape
    rep = theorem3_search(k, f, z, budget=budget)
    assert (rep.best_value, rep.nodes_explored, rep.dedup_hits, rep.exhaustive) == (
        SEARCH_WALKS[shape]
    )
    # A budget cuts the walk short; every bound it evaluated stays exact.
    assert rep.bounds_exact
    assert rep.floor == max(f - z, shape_floor(k, f, z)) <= rep.best_value


def shape_floor(k, f, z):
    return -(-k * (f - z) // (z + 1))


@pytest.mark.parametrize("k,f,z", [(5, 4, 2), (5, 5, 2)], ids=["floor-binds", "floor-below"])
def test_the_shape_floor_agrees_with_brute_force(k, f, z):
    # At both shapes ceil(k(f-z)/(z+1)) is above f-z.  It is the min-max
    # S* at (5,4,2), and one below it at (5,5,2), where the search must
    # walk past it to the brute-force minimum 6.
    best, _ = brute_force_min_max(k, f, z)
    rep = theorem3_search(k, f, z)
    assert rep.exhaustive and rep.best_value == best
    assert (best, shape_floor(k, f, z)) == {(5, 4, 2): (4, 4), (5, 5, 2): (6, 5)}[k, f, z]


def test_the_round_robin_seed_is_a_placement_of_the_walk():
    # Every 2-subset of 4 rows once, in nondecreasing subset order.
    rep = theorem3_search(6, 4, 2)
    assert (rep.best_value, rep.nodes_explored, rep.exhaustive) == (4, 1, True)
    assert [sorted(rows) for rows in rep.best_pattern.uncached_sets()] == [
        list(rows) for rows in itertools.combinations(range(1, 5), 2)
    ]


@pytest.mark.parametrize(
    "f,z,h", [(2, 1, 3), (4, 2, 2), (5, 1, 2), (5, 2, 1), (6, 3, 1), (4, 3, 2)]
)
def test_grouping_meets_the_shape_floor(f, z, h):
    # At K = h C(f, z), grouping(f, z, 1, h) is a PDA whose S is the floor,
    # so the floor is the min-max S* and the least symbol count there.
    grid = grouping_pda(f, z, 1, h)
    params = pda_params(grid)
    k = h * comb(f, z)
    assert (params.k, params.f, params.z) == (k, f, z)
    assert params.s == theorem1_exact(to_star_pattern(grid)).value == shape_floor(k, f, z)
    rep = theorem3_search(k, f, z)
    assert (rep.best_value, rep.nodes_explored, rep.exhaustive) == (params.s, 1, True)


def test_search_descends_past_the_recursion_limit():
    # One row, nothing cached: a single placement, 3,000 users deep.
    rep = theorem3_search(3000, 1, 0, budget=1)
    assert (rep.best_value, rep.nodes_explored, rep.exhaustive) == (3000, 1, True)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_adding_a_user_never_lowers_the_exact_bound(data):
    # The lemma behind the search's monotone pruning: the new user goes
    # last in any ordering and adds a nonnegative term.
    f = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 5))
    masks = tuple(data.draw(st.integers(0, (1 << f) - 1)) for _ in range(k))
    extra = data.draw(st.integers(0, (1 << f) - 1))
    base = theorem1_exact(StarPattern(f, masks)).value
    assert theorem1_exact(StarPattern(f, masks + (extra,))).value >= base


def test_min_max_edge_cases():
    assert theorem3_search(3, 3, 3).best_value == 0  # everything cached
    # nothing cached: every ordering keeps the full row set alive
    assert theorem3_search(2, 3, 0).best_value == 6


def test_min_max_budget_truncates_honestly():
    rep = theorem3_search(4, 6, 3, budget=5)
    assert not rep.exhaustive
    assert rep.best_value >= 4  # partial minimum can only overshoot


def test_search_report_as_dict_shape():
    d = theorem3_search(2, 2, 1).as_dict()
    assert d["best_value"] == 1
    assert d["rate_bound"] == {"num": 1, "den": 2}
    assert d["witness_uncached_sets"] == [[1], [2]]
    assert d["exhaustive"] is True
    assert d["lower_bound"] == 1
    assert set(d) == {
        "k", "f", "z", "best_value", "rate_bound", "witness_uncached_sets",
        "nodes_explored", "dedup_hits", "exhaustive", "lower_bound",
    }


def test_an_inexact_bound_leaves_the_search_only_its_floor(monkeypatch):
    # A bound cut short by its own budget may undershoot S*, so best_value
    # proves nothing: the report keeps the floor alone.
    real = bounds.theorem1_exact
    monkeypatch.setattr(
        bounds, "theorem1_exact", lambda p, budget=None: real(p)._replace(exact=False)
    )
    rep = theorem3_search(4, 6, 3)
    assert (rep.best_value, rep.exhaustive, rep.bounds_exact) == (4, False, False)
    assert rep.as_dict()["lower_bound"] == rep.floor == 3


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theorem3_search(0, 2, 1)
    with pytest.raises(ValueError):
        theorem3_search(2, 2, 3)
