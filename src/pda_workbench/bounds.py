"""Lower bounds on the symbol count of a PDA with a fixed star pattern.

The central quantity, for a placement with uncached sets A_1..A_K, is

    S*  =  max over user orderings (i_1,..,i_K) of  sum_h |A_{i_1} & .. & A_{i_h}|.

Every PDA whose pattern has those uncached sets needs at least S* symbols:
walking the users in any order, each newly counted packet of the running
intersection must be served by a symbol no earlier user could share.

This module evaluates the sum for a prescribed ordering (`eval_ordering`),
finds a maximizing ordering exactly by a longest path over the distinct
running intersections (`theorem1_exact`) or greedily (`theorem1_greedy`),
and minimizes S* over all admissible placements by one branch and bound
(`theorem3_search`) to get a placement-free bound on the rate at a given
subpacketization.  Every certificate is its ordering replayed by
`eval_ordering`, the one place the sum is computed.  The families'
prescribed orderings live in `constructions`, beside the column numbering
that they encode.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, islice
from math import comb

from .core import DEFAULT_NODE_BUDGET, StarPattern, ratio

# Never called: bench/layers.py patches this name, until the benchmark's
# trace stops looking it up (ROADMAP, benchmark shims).
canonical_pattern = None

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Dict, List, Optional, Sequence, Tuple
    UserOrdering = Tuple[int, ...]


class BoundCertificate(
    namedtuple("BoundCertificate", "value f witness step_sizes method exact")
):
    """A witnessed lower bound: value = sum of nested-intersection sizes.

    method is one of "exact" (proven maximum), "branch_bound" (the exact
    search was truncated by its intersection budget; the value is the
    better of the identity and greedy orderings), "greedy", or
    "prescribed" (caller-supplied ordering).  "exact" certificates carry
    exact=True.  So does any certificate that `bound` finds meeting the S
    of a valid PDA with its stars: S* <= S, so the value is S*.
    """

    __slots__ = ()

    def __new__(
        cls,
        value: int,
        f: int,
        witness: UserOrdering,
        step_sizes: Tuple[int, ...],
        method: str,
        exact: bool,
    ) -> "BoundCertificate":
        if value != sum(step_sizes):
            raise ValueError("certificate value disagrees with its steps")
        if any(a < b for a, b in zip(step_sizes, step_sizes[1:])):
            raise ValueError("intersection sizes must be non-increasing")
        if len(set(witness)) != len(witness):
            raise ValueError("witness ordering repeats a user")
        return super().__new__(cls, value, f, witness, step_sizes, method, exact)

    @property
    def rate_bound(self) -> Tuple[int, int]:
        return ratio(self.value, self.f)

    def as_dict(self) -> dict:
        num, den = self.rate_bound
        return {
            "value": self.value,
            "rate_bound": {"num": num, "den": den},
            "witness": list(self.witness),
            "step_sizes": list(self.step_sizes),
            "method": self.method,
            "exact": self.exact,
        }


class SearchReport(
    namedtuple(
        "SearchReport",
        "k f z best_value best_pattern nodes_explored dedup_hits exhaustive floor bounds_exact",
    )
):
    """Outcome of the min-max placement search.

    best_value is the least exact bound found and best_pattern a placement
    attaining it.  nodes_explored counts exact-bound evaluations, partial
    placements included; dedup_hits counts the partial placements cut
    because their bound already reached the incumbent.  bounds_exact is
    True when every bound evaluated was exact.  exhaustive is True when,
    besides, the search finished within its budget, so best_value is the
    true min-max; otherwise it may overshoot.  floor is the shape's proved
    lower bound on the min-max, max(f-z, ceil(k(f-z)/(z+1))).
    """

    __slots__ = ()

    @property
    def rate_bound(self) -> Tuple[int, int]:
        return ratio(self.best_value, self.f)

    def as_dict(self) -> dict:
        num, den = self.rate_bound
        return {
            "k": self.k,
            "f": self.f,
            "z": self.z,
            "best_value": self.best_value,
            "rate_bound": {"num": num, "den": den},
            "witness_uncached_sets": [
                sorted(rows) for rows in self.best_pattern.uncached_sets()
            ],
            "nodes_explored": self.nodes_explored,
            "dedup_hits": self.dedup_hits,
            "exhaustive": self.exhaustive,
            "lower_bound": self.best_value if self.exhaustive else self.floor,
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
    masks = pattern.masks
    inter = (1 << pattern.f) - 1
    unused = list(range(1, pattern.k + 1))
    order: List[int] = []
    while unused:
        best = max(unused, key=lambda u: (inter & masks[u - 1]).bit_count())
        if inter & masks[best - 1] == 0:
            order += unused
            break
        unused.remove(best)
        order.append(best)
        inter &= masks[best - 1]
    # _replace skips BoundCertificate's checks.  They read neither method
    # nor exact, the only fields that this and theorem1_exact relabel.
    return eval_ordering(pattern, order)._replace(method="greedy")


def theorem1_exact(
    pattern: StarPattern, budget: int = DEFAULT_NODE_BUDGET
) -> BoundCertificate:
    """Exact maximum of the nested-intersection sum over all user orderings.

    A longest path over the distinct running intersections.  A user whose
    uncached set contains the running intersection I leaves it unchanged
    and adds |I|, so taking every such user at once is optimal; after that
    the best future depends on I alone.  With N(J) the number of users
    whose A_w contains J, one table holds, per intersection,

        done(I) = N(I) * |I| + max over u with {} != I & A_u != I of
                  (done(I & A_u) - N(I) * |I & A_u|),

    a maximum of nothing being 0, and S* = done(full).  `budget` caps the
    number of intersections expanded.

    The witness is rebuilt from the table: a prefix of p users with running
    intersection I has exact future done(I) - p * |I|, so taking at each
    step the smallest unused user u whose step plus future,
    done(I & A_u) - p * |I & A_u|, still meets the optimum gives the
    lexicographically smallest optimal ordering.  The certificate is that
    ordering replayed by `eval_ordering`, and an AssertionError is raised
    if the replay misses S*.  If the budget runs out, the better of the
    identity ordering and the greedy one is returned with method
    "branch_bound" and exact=False.  A negative budget raises ValueError.
    """
    if budget < 0:
        raise ValueError(f"need a budget of at least 0 intersections, got {budget}")
    masks = pattern.masks
    full = (1 << pattern.f) - 1
    done: Dict[int, int] = {0: 0}  # done(J), once every child of J is done

    # Depth-first with an explicit stack, so that the depth is not tied to
    # the recursion limit.  A frame is (I, N(I), an iterator over the
    # children of I, those children).  A child not yet done is expanded,
    # and a frame whose iterator runs out is done.
    def frame(inter: int) -> tuple:
        rest = [inter & a for a in masks]
        children = set(rest) - {inter, 0}
        return inter, rest.count(inter), iter(children), children

    stack = [frame(full)]
    expanded = 1
    while stack and expanded <= budget:
        inter, n, unvisited, children = stack[-1]
        for child in unvisited:
            if child not in done:
                expanded += 1
                stack.append(frame(child))
                break
        else:
            stack.pop()
            done[inter] = n * inter.bit_count() + max(
                (done[j] - n * j.bit_count() for j in children), default=0
            )
    if stack:
        identity = eval_ordering(pattern, range(1, pattern.k + 1))
        greedy = theorem1_greedy(pattern)
        best_cert = greedy if greedy.value > identity.value else identity
        return best_cert._replace(method="branch_bound", exact=False)
    target = done[full]

    inter = full
    # Descending, scanned from the end: the smallest user comes first, and
    # deleting the one found shifts only the users scanned before it.
    unused = list(range(pattern.k, 0, -1))
    witness: List[int] = []
    remaining = target
    while unused:
        for i in reversed(range(len(unused))):
            u = unused[i]
            child = inter & masks[u - 1]
            size = child.bit_count()
            if done[child] - len(witness) * size == remaining:
                break
        del unused[i]
        witness.append(u)
        remaining -= size
        inter = child
    cert = eval_ordering(pattern, witness)
    if cert.value != target:
        raise AssertionError(f"witness replays to {cert.value}, the table says {target}")
    return cert._replace(method="exact", exact=True)


# ---------------------------------------------------------------------------
# Min-max placement search
# ---------------------------------------------------------------------------

def theorem3_search(
    k: int,
    f: int,
    z: int,
    budget: Optional[int] = None,
) -> SearchReport:
    """Minimize the exact ordering bound over all Z-uniform placements.

    Placements assign each of the k users an (f-z)-subset of rows to leave
    uncached.  The search is a depth-first branch and bound resting on two
    exact facts:

    * Row and user symmetry: relabelling rows and users changes no bound,
      so user 1 leaves rows 1..f-z uncached and users 2..k take a
      nondecreasing sequence of subset indices.
    * Monotonicity: adding a user never lowers S* (put it last in any
      ordering; it adds >= 0), so once a partial placement's exact bound
      reaches the incumbent, none of its completions can beat it.

    Partial placements are evaluated only once an incumbent exists, and
    the subsets are generated lazily as the search first reaches them, so
    a budget bounds time and memory for any f.

    nodes_explored counts exact-bound evaluations, partial placements
    included, and `budget` caps it.  dedup_hits counts the partial
    placements cut by the monotone bound.  The search stops as soon as a
    placement reaches the floor max(f-z, ceil(k(f-z)/(z+1))), which the
    report carries.  f-z is the first user's own term.  The second holds
    in four steps:

    1. In an ordering, moving a user right after the first user with the
       same uncached set never lowers the value: its term becomes the
       running intersection there, and the users in between see the same
       intersection.  So for multiplicities c_T of the distinct uncached
       sets T, S*(c) = max over chains of distinct sets T1, T2, ... of
       sum_i c_Ti |T1 & ... & Ti|, a maximum of linear functions: convex
       and homogeneous in c.
    2. Row permutations act transitively on the (f-z)-subsets and keep
       S*.  Averaging c over them gives the uniform vector, so by
       convexity every placement of k users has S* >= k S*(u), where u
       puts 1/C(f, z) on every subset.
    3. Every (f-z)-subset once is the star pattern of bipartite(f, z, 1),
       whose S* is C(f, z+1) (the bipartite family's bound, witnessed by
       `constructions.bipartite_ordering`).  So
       k S*(u) = k C(f, z+1)/C(f, z) = k(f-z)/(z+1).
    4. When C(f, z) divides k, the round-robin placement, every subset
       k/C(f, z) times, meets the floor by steps 1 and 3, and so does
       grouping(f, z, 1, k/C(f, z)), a PDA of that shape.  The search
       evaluates that placement first, in nondecreasing subset order as
       the walk would, and returns it after one evaluation.
    """
    if k < 1:
        raise ValueError(f"need at least one user, got k={k}")
    if not 0 <= z <= f:
        raise ValueError(f"need 0 <= z <= f, got z={z}, f={f}")
    if budget is not None and budget < 1:
        raise ValueError(f"need a budget of at least one evaluation, got {budget}")

    def subsets():
        for rows in combinations(range(1, f + 1), f - z):
            yield sum(1 << (j - 1) for j in rows)

    subset_masks = subsets()
    omega: List[int] = [next(subset_masks)]  # the subsets reached so far, in order
    floor = max(f - z, -(-k * (f - z) // (z + 1)))
    best_value: Optional[int] = None
    best_pattern: Optional[StarPattern] = None
    nodes = 0
    pruned = 0
    complete = True  # the walk ended within the budget
    bounds_exact = True
    copies, left = divmod(k, comb(f, z))
    if not left:  # the round-robin seed (step 4)
        best_pattern = StarPattern(f, [m for m in subsets() for _ in range(copies)])
        cert = theorem1_exact(best_pattern)
        nodes, best_value, bounds_exact = 1, cert.value, cert.exact

    # The walk is a loop over the current placement: masks[u] is user u+1's
    # uncached set and ids[u] its index in omega.  User 1 stays at index 0,
    # and each user's index starts at the one before it, so the ids never
    # decrease.  The lists grow as the walk descends, so k is not tied to
    # the recursion limit.
    masks: List[int] = [omega[0]]
    ids: List[int] = [0]
    while best_value != floor:
        value: Optional[int] = None
        if len(masks) == k or best_value is not None:
            if budget is not None and nodes >= budget:
                complete = False
                break
            nodes += 1
            pattern = StarPattern(f, masks)
            cert = theorem1_exact(pattern)
            bounds_exact = bounds_exact and cert.exact
            value = cert.value
        if len(masks) < k:
            if best_value is None or value < best_value:
                masks.append(masks[-1])
                ids.append(ids[-1])
                continue
            pruned += 1
        elif best_value is None or value < best_value:
            best_value, best_pattern = value, pattern
        # Move to the next sibling, climbing out of every level used up.
        while len(ids) > 1:
            i = ids[-1] + 1
            if i == len(omega):
                omega.extend(islice(subset_masks, 1))
            if i < len(omega):
                ids[-1], masks[-1] = i, omega[i]
                break
            ids.pop()
            masks.pop()
        else:
            break

    assert best_value is not None and best_pattern is not None
    return SearchReport(
        k=k,
        f=f,
        z=z,
        best_value=best_value,
        best_pattern=best_pattern,
        nodes_explored=nodes,
        dedup_hits=pruned,
        exhaustive=complete and bounds_exact,
        floor=floor,
        bounds_exact=bounds_exact,
    )
