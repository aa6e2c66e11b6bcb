"""Lower bounds on the symbol count of a PDA with a fixed star pattern.

The central quantity, for a placement with uncached sets A_1..A_K, is

    S*  =  max over user orderings (i_1,..,i_K) of  sum_h |A_{i_1} & .. & A_{i_h}|.

Every PDA whose pattern has those uncached sets needs at least S* symbols:
walking the users in any order, each newly counted packet of the running
intersection must be served by a symbol no earlier user could share.

This module evaluates the sum for a prescribed ordering (`eval_ordering`),
maximizes it exactly by a longest path over the distinct running
intersections (`theorem1_exact`) or greedily (`theorem1_greedy`), produces
the prescribed orderings that are provably maximal for the partition and
bipartite families, and minimizes S* over all admissible placements
(`theorem3_search`) to get a placement-free bound on the rate at a given
subpacketization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from .constructions import partition_column_id, partition_residue_buckets, subsets
# canonical_pattern is not called here; bench/layers.py patches it by this name.
from .core import StarPattern, canonical_pattern  # noqa: F401

UserOrdering = Tuple[int, ...]

# Intersections the exact search may expand.  Each one stays in its memo
# (about 120 bytes), so this also caps memory near 1.2 GB.
DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class BoundCertificate:
    """A witnessed lower bound: value = sum of nested-intersection sizes.

    method is one of "exact" (proven maximum), "branch_bound" (the exact
    search was truncated by its intersection budget; the value is the
    better of the identity and greedy orderings), "greedy", or
    "prescribed" (caller-supplied ordering).  Only "exact" certificates
    carry exact=True.
    """

    value: int
    f: int
    witness: UserOrdering
    step_sizes: Tuple[int, ...]
    method: str
    exact: bool

    def __post_init__(self) -> None:
        if self.value != sum(self.step_sizes):
            raise ValueError("certificate value disagrees with its steps")
        if any(a < b for a, b in zip(self.step_sizes, self.step_sizes[1:])):
            raise ValueError("intersection sizes must be non-increasing")
        if len(set(self.witness)) != len(self.witness):
            raise ValueError("witness ordering repeats a user")

    @property
    def rate_bound(self) -> Fraction:
        return Fraction(self.value, self.f)

    def as_dict(self) -> dict:
        rb = self.rate_bound
        return {
            "value": self.value,
            "rate_bound": {"num": rb.numerator, "den": rb.denominator},
            "witness": list(self.witness),
            "step_sizes": list(self.step_sizes),
            "method": self.method,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the min-max placement search.

    best_value is the least exact bound found and best_pattern a placement
    attaining it.  nodes_explored counts exact-bound evaluations, partial
    placements included; dedup_hits counts the partial placements cut
    because their bound already reached the incumbent.  exhaustive is True
    when the search finished within its budget with every bound exact, so
    best_value is the true min-max; otherwise it may overshoot.
    """

    k: int
    f: int
    z: int
    best_value: int
    best_pattern: StarPattern
    rate_bound: Fraction
    nodes_explored: int
    dedup_hits: int
    exhaustive: bool
    mode: str

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "f": self.f,
            "z": self.z,
            "best_value": self.best_value,
            "rate_bound": {
                "num": self.rate_bound.numerator,
                "den": self.rate_bound.denominator,
            },
            "witness_uncached_sets": [
                sorted(rows) for rows in self.best_pattern.uncached_sets()
            ],
            "nodes_explored": self.nodes_explored,
            "dedup_hits": self.dedup_hits,
            "exhaustive": self.exhaustive,
            "mode": self.mode,
        }


def _check_order(pattern: StarPattern, order: Sequence[int]) -> Tuple[int, ...]:
    order = tuple(order)
    kk = pattern.k
    if len(set(order)) != len(order):
        raise ValueError("ordering repeats a user")
    for u in order:
        if not 1 <= u <= kk:
            raise ValueError(f"user {u} outside [1, {kk}]")
    return order


def eval_ordering(pattern: StarPattern, order: Sequence[int]) -> BoundCertificate:
    """Nested-intersection sum along a prescribed user ordering.

    Stops intersecting once the running intersection is empty (all later
    terms vanish) and pads step_sizes with zeros to the ordering's length.
    """
    order = _check_order(pattern, order)
    inter = (1 << pattern.f) - 1
    steps: List[int] = []
    for u in order:
        inter &= pattern.masks[u - 1]
        if inter == 0:
            break
        steps.append(inter.bit_count())
    steps.extend([0] * (len(order) - len(steps)))
    return BoundCertificate(
        value=sum(steps),
        f=pattern.f,
        witness=order,
        step_sizes=tuple(steps),
        method="prescribed",
        exact=False,
    )


def theorem1_greedy(pattern: StarPattern) -> BoundCertificate:
    """Maximize each step locally: largest |I & A_k|, ties to smallest k."""
    kk = pattern.k
    inter = (1 << pattern.f) - 1
    unused = list(range(1, kk + 1))
    witness: List[int] = []
    steps: List[int] = []
    while unused:
        best_k, best_gain = unused[0], -1
        for u in unused:
            gain = (inter & pattern.masks[u - 1]).bit_count()
            if gain > best_gain:
                best_k, best_gain = u, gain
        if best_gain == 0:
            witness.extend(unused)
            steps.extend([0] * len(unused))
            break
        unused.remove(best_k)
        witness.append(best_k)
        steps.append(best_gain)
        inter &= pattern.masks[best_k - 1]
    return BoundCertificate(
        value=sum(steps),
        f=pattern.f,
        witness=tuple(witness),
        step_sizes=tuple(steps),
        method="greedy",
        exact=False,
    )


class _OutOfBudget(Exception):
    pass


def theorem1_exact(
    pattern: StarPattern, budget: int = DEFAULT_NODE_BUDGET
) -> BoundCertificate:
    """Exact maximum of the nested-intersection sum over all user orderings.

    A longest path over the distinct running intersections.  A user whose
    uncached set contains the running intersection I leaves it unchanged
    and adds |I|, so taking every such user at once is optimal; after that
    the best future depends on I alone:

        f(I) = max over u with {} != I & A_u != I of
               (N(I & A_u) - N(I)) * |I & A_u| + f(I & A_u),

    where N(J) counts the users with A_w containing J, and
    S* = N(full) * F + f(full).  f is memoised per intersection and
    `budget` caps the number of intersections expanded.

    The witness is rebuilt from the memo: a prefix of p users with running
    intersection I has exact future (N(I) - p) * |I| + f(I), so taking at
    each step the smallest unused user whose step plus future still meets
    the optimum gives the lexicographically smallest optimal ordering.  If
    the budget runs out, the better of the identity ordering and the greedy
    one is returned with method "branch_bound" and exact=False.
    """
    masks = pattern.masks
    full = (1 << pattern.f) - 1
    holders: Dict[int, int] = {}
    memo: Dict[int, int] = {0: 0}
    expanded = 0

    def n_of(j: int) -> int:
        if j not in holders:
            holders[j] = sum(1 for a in masks if a & j == j)
        return holders[j]

    def future(inter: int) -> int:
        nonlocal expanded
        if inter in memo:
            return memo[inter]
        expanded += 1
        if expanded > budget:
            raise _OutOfBudget
        n = n_of(inter)
        best = 0
        for child in {inter & a for a in masks} - {inter, 0}:
            best = max(best, (n_of(child) - n) * child.bit_count() + future(child))
        memo[inter] = best
        return best

    try:
        target = n_of(full) * full.bit_count() + future(full)
    except _OutOfBudget:
        identity = eval_ordering(pattern, range(1, pattern.k + 1))
        greedy = theorem1_greedy(pattern)
        best_cert = greedy if greedy.value > identity.value else identity
        return replace(best_cert, method="branch_bound", exact=False)

    inter = full
    unused = list(range(1, pattern.k + 1))
    witness: List[int] = []
    steps: List[int] = []
    while unused:
        for u in unused:
            child = inter & masks[u - 1]
            size = child.bit_count()
            if (n_of(child) - len(witness)) * size + memo[child] == target:
                break
        unused.remove(u)
        witness.append(u)
        steps.append(size)
        target -= size
        inter = child
    return BoundCertificate(
        value=sum(steps),
        f=pattern.f,
        witness=tuple(witness),
        step_sizes=tuple(steps),
        method="exact",
        exact=True,
    )


def corollary1_value(pattern: StarPattern, order: Sequence[int]) -> int:
    """Running-union sum over the complements, for a full ordering.

    Returns sum_h |union_{j<=h} complement(A_{i_j})| and checks it against
    the intersection sum: the two must satisfy

        sum_h |I_h|  =  K*F - sum_h |U_h|

    because each prefix obeys |I_h| = F - |U_h|.
    """
    order = _check_order(pattern, order)
    if len(order) != pattern.k:
        raise ValueError("need a full-length ordering")
    full = (1 << pattern.f) - 1
    union = 0
    union_sum = 0
    for u in order:
        union |= full & ~pattern.masks[u - 1]
        union_sum += union.bit_count()
    inter_sum = eval_ordering(pattern, order).value
    if inter_sum != pattern.k * pattern.f - union_sum:
        raise AssertionError("prefix De Morgan identity failed")
    return union_sum


# ---------------------------------------------------------------------------
# Prescribed orderings for the two construction families
# ---------------------------------------------------------------------------

def partition_ordering(q: int, m: int) -> UserOrdering:
    """Maximizing ordering for the partition PDA's columns.

    Visit the value-q column of each of the first m coordinates, then the
    checksum-coordinate columns (m+1, v) with the v's sorted by how many
    star-q rows they cut (descending, ties by v), then everything else in
    plain column order.  The tail never changes the sum: by then the
    running intersection is empty.
    """
    buckets = partition_residue_buckets(q, m)
    head = [partition_column_id(q, u, q) for u in range(1, m + 1)]
    tail_vs = sorted(range(1, q + 1), key=lambda v: (-buckets[v], v))
    head += [partition_column_id(q, m + 1, v) for v in tail_vs]
    rest = [k for k in range(1, (m + 1) * q + 1) if k not in set(head)]
    return tuple(head + rest)


def bipartite_ordering(m: int, a: int, b: int) -> UserOrdering:
    """Maximizing ordering for the bipartite PDA's columns (a-subsets).

    Start at [a]; at stage i visit the a-subsets of [a+i] that contain
    a+i, i.e. [a+i] minus an i-subset of [a+i-1].  Each stage-i step
    shrinks the intersection to the rows avoiding [a+i], contributing
    C(m-a-i, b); the within-stage order is immaterial for the sum.  Users
    are returned as column ids (lex ranks of the subsets).
    """
    if a < 1 or b < 1 or a + b > m:
        raise ValueError(f"need a, b >= 1 and a+b <= m, got m={m}, a={a}, b={b}")
    rank = {s: i + 1 for i, s in enumerate(subsets(m, a))}
    order = [rank[tuple(range(1, a + 1))]]
    for i in range(1, m - a + 1):
        base = set(range(1, a + i + 1))
        for j_set in combinations(range(1, a + i), i):
            order.append(rank[tuple(sorted(base - set(j_set)))])
    return tuple(order)


# ---------------------------------------------------------------------------
# Min-max placement search
# ---------------------------------------------------------------------------

class _StopSearch(Exception):
    pass


def theorem3_search(
    k: int,
    f: int,
    z: int,
    mode: str = "canonical",
    budget: Optional[int] = None,
) -> SearchReport:
    """Minimize the exact ordering bound over all Z-uniform placements.

    Placements assign each of the k users an (f-z)-subset of rows to leave
    uncached.  "exhaustive" evaluates every assignment in product order and
    materialises all C(f, z) subsets first, so it is an oracle for small
    shapes only.  "canonical" is a depth-first branch and bound resting on
    two exact facts:

    * Row and user symmetry: relabelling rows and users changes no bound,
      so user 1 leaves rows 1..f-z uncached and users 2..k take a
      nondecreasing sequence of subset indices.
    * Monotonicity: adding a user never lowers S* (put it last in any
      ordering; it adds >= 0), so once a partial placement's exact bound
      reaches the incumbent, none of its completions can beat it.

    Partial placements are evaluated only once an incumbent exists, and
    the subsets are generated lazily as the search first reaches them, so
    a budget bounds time and memory for any f.

    nodes_explored counts exact-bound evaluations (partial placements
    included in "canonical"), and `budget` caps it.  dedup_hits counts the
    partial placements cut by the monotone bound.  Both modes stop as soon
    as a placement reaches the unbeatable floor f-z.
    """
    if k < 1:
        raise ValueError(f"need at least one user, got k={k}")
    if not 0 <= z <= f:
        raise ValueError(f"need 0 <= z <= f, got z={z}, f={f}")
    if mode not in ("exhaustive", "canonical"):
        raise ValueError(f"unknown search mode {mode!r}")
    if budget is not None and budget < 1:
        raise ValueError(f"need a budget of at least one evaluation, got {budget}")

    subset_masks = (
        sum(1 << (j - 1) for j in rows) for rows in combinations(range(1, f + 1), f - z)
    )
    floor = f - z
    best_value: Optional[int] = None
    best_pattern: Optional[StarPattern] = None
    nodes = 0
    pruned = 0
    complete = True

    def evaluate(masks: Tuple[int, ...]) -> int:
        nonlocal nodes, complete
        if budget is not None and nodes >= budget:
            complete = False
            raise _StopSearch
        nodes += 1
        cert = theorem1_exact(StarPattern(f, masks))
        if not cert.exact:
            complete = False
        return cert.value

    def offer(masks: Tuple[int, ...]) -> None:
        nonlocal best_value, best_pattern
        value = evaluate(masks)
        if best_value is None or value < best_value:
            best_value, best_pattern = value, StarPattern(f, masks)
            if value == floor:
                raise _StopSearch

    if mode == "exhaustive":
        try:
            for combo in product(subset_masks, repeat=k):
                offer(combo)
        except _StopSearch:
            pass
    else:
        omega: List[int] = [next(subset_masks)]

        def subset(i: int) -> Optional[int]:
            if i == len(omega):
                nxt = next(subset_masks, None)
                if nxt is None:
                    return None
                omega.append(nxt)
            return omega[i]

        # Iterative, so that k is not tied to the recursion limit.  ids
        # holds the subset index of each placed user after user 1, and the
        # next user tries indices from i upwards.
        prefix: Tuple[int, ...] = (omega[0],)
        ids: List[int] = []
        i = 0
        try:
            if k == 1:
                offer(prefix)
            else:
                while True:
                    mask = subset(i)
                    if mask is None:
                        if not ids:
                            break
                        i = ids.pop() + 1
                        prefix = prefix[:-1]
                        continue
                    child = prefix + (mask,)
                    if len(child) == k:
                        offer(child)
                    elif best_value is not None and evaluate(child) >= best_value:
                        pruned += 1
                    else:
                        ids.append(i)
                        prefix = child
                        continue
                    i += 1
        except _StopSearch:
            pass

    assert best_value is not None and best_pattern is not None
    return SearchReport(
        k=k,
        f=f,
        z=z,
        best_value=best_value,
        best_pattern=best_pattern,
        rate_bound=Fraction(best_value, f),
        nodes_explored=nodes,
        dedup_hits=pruned,
        exhaustive=complete,
        mode=mode,
    )
