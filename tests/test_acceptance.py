"""End-to-end acceptance run: ten numbered checks covering the worked
arrays, the bound engine, the closed forms, the simulator, and the CLI
table.  Each check prints one PASS/FAIL line (collected again by the
terminal-summary hook) and enforces its own wall-clock budget."""

import functools
import itertools
import random
import time
from fractions import Fraction
from math import comb

from conftest import (
    ACCEPTANCE_LINES,
    GOLDEN_PARAMS,
    SIGNAL_TERMS_K6_F4_Z2,
    golden_grid,
)
from test_core import oracle_broken_axioms
from test_bounds import brute_force_max
from test_formulas import (
    checksum_order,
    fiber_closed_form,
    fiber_survivors_from_construction,
    phi,
    residue_counts,
    stage_sum,
    two_size_law,
    union_sum,
)

from pda_workbench.bounds import eval_ordering, theorem1_exact, theorem3_search
from pda_workbench.cli import main
from pda_workbench.constructions import (
    bipartite_ordering,
    bipartite_pda,
    grouping_pda,
    mn_pda,
    partition_ordering,
    partition_pda,
)
from pda_workbench.core import (
    STAR,
    StarPattern,
    pda_params,
    to_star_pattern,
    verify_pda,
)
from pda_workbench.filler import fill_exact, fill_greedy
from pda_workbench.formulas import partition_bound_closed, ratio_report
from pda_workbench.simulate import FileLibrary, all_demands, decode, deliver, place, run_sweep


def criterion(n, limit_s, note=""):
    """Time the check, record one verdict line, re-raise on failure."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ACCEPTANCE_LINES[:] = [(i, line) for i, line in ACCEPTANCE_LINES if i != n]
            start = time.perf_counter()
            try:
                extra = fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append((n, f"ACCEPTANCE {n}: FAIL"))
                print(f"ACCEPTANCE {n}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            tail = f" — {extra}" if extra else (f" — {note}" if note else "")
            if elapsed >= limit_s:
                line = f"ACCEPTANCE {n}: FAIL (over budget: {elapsed:.2f}s >= {limit_s}s)"
                ACCEPTANCE_LINES.append((n, line))
                print(line)
                raise AssertionError(line)
            line = f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s){tail}"
            ACCEPTANCE_LINES.append((n, line))
            print(line)

        return wrapper

    return deco


@criterion(1, 1.0)
def test_acceptance_1_golden_arrays_verify_with_stated_params():
    for name, (cells, params) in sorted(GOLDEN_PARAMS.items()):
        grid = golden_grid(name)
        assert verify_pda(grid).valid, name
        assert tuple(pda_params(grid)) == params, name
    assert len(GOLDEN_PARAMS) == 6


@criterion(2, 1.0)
def test_acceptance_2_exact_bound_on_the_z1_placement():
    cert = theorem1_exact(to_star_pattern(golden_grid("GRID_K6_F4_Z1")))
    assert cert.value == 11
    assert cert.exact
    # Step decomposition 3+3+2+2+1 (zero-padded to the full ordering).
    assert tuple(s for s in cert.step_sizes if s) == (3, 3, 2, 2, 1)
    assert sum(cert.step_sizes) == 11


@criterion(3, 60.0)
def test_acceptance_3_minmax_search_and_fill_at_k4_f6_z3():
    report = theorem3_search(4, 6, 3)
    assert report.best_value == 4
    assert report.rate_bound == Fraction(2, 3)
    assert report.exhaustive
    filled = fill_exact(report.best_pattern)
    assert filled.optimal and filled.colors == 4
    assert verify_pda(filled.grid).valid
    assert pda_params(filled.grid).s == 4


@criterion(4, 10.0)
def test_acceptance_4_partition_bound_is_tight_at_q2():
    for m in range(2, 9):
        grid = partition_pda(2, m)
        cert = eval_ordering(to_star_pattern(grid), partition_ordering(2, m))
        assert cert.value == 2 ** m == pda_params(grid).s, m


@criterion(5, 30.0)
def test_acceptance_5_partition_derived_values():
    def oracle(q, m):
        grid = partition_pda(q, m)
        return eval_ordering(to_star_pattern(grid), partition_ordering(q, m)).value

    assert oracle(3, 2) == 15
    for q in (3, 4, 5):
        for m in (2, 4):
            assert partition_bound_closed(q, m) == oracle(q, m), (q, m)
    assert oracle(3, 3) == 47
    assert partition_bound_closed(3, 3) == 47


@criterion(6, 30.0)
def test_acceptance_6_bipartite_bound_is_tight_and_identity_holds():
    for m in range(3, 9):
        for a in range(1, m):
            for b in range(1, m - a):
                grid = bipartite_pda(m, a, b)
                cert = eval_ordering(
                    to_star_pattern(grid), bipartite_ordering(m, a, b)
                )
                assert cert.value == comb(m, a + b) == pda_params(grid).s, (m, a, b)
    assert eval_ordering(
        to_star_pattern(bipartite_pda(5, 2, 1)), bipartite_ordering(5, 2, 1)
    ).value == 10

    triples = 0
    for m in range(3, 17):
        for a in range(1, m):
            for b in range(1, m - a):
                assert stage_sum(m, a, b) == comb(m, a + b), (m, a, b)
                triples += 1
    assert triples == 560


@criterion(7, 60.0)
def test_acceptance_7_simulator_reproduces_the_worked_delivery():
    grid = golden_grid("GRID_K6_F4_Z2")
    lib = FileLibrary.generate(n=6, f=grid.f)
    demand = (1, 2, 3, 4, 5, 6)
    transcript = deliver(grid, lib, demand)
    assert tuple(sig.terms for sig in transcript.signals) == SIGNAL_TERMS_K6_F4_Z2
    outcome = decode(grid, transcript, place(grid, lib), demand, lib)
    assert outcome.ok

    sweep_grid = mn_pda(4, 2)
    sweep_lib = FileLibrary.generate(n=6, f=sweep_grid.f)
    sweep = run_sweep(sweep_grid, sweep_lib, all_demands(6, 4))
    assert sweep.demands_checked == 6 ** 4
    assert sweep.all_ok


@criterion(8, 300.0)
def test_acceptance_8_property_suites():
    # (a) verifier vs independent quadratic oracle
    rng = random.Random(20240801)
    cases = 0
    for _ in range(60):
        f, k = rng.randint(1, 5), rng.randint(1, 5)
        rows = tuple(
            tuple(rng.randint(0, 6) for _ in range(k)) for _ in range(f)
        )
        res = verify_pda(rows)
        assert {v.axiom for v in res.violations} == oracle_broken_axioms(rows)
        cases += 1
    for _ in range(60):
        name = rng.choice(sorted(GOLDEN_PARAMS))
        rows = [list(r) for r in golden_grid(name).cells]
        for _ in range(rng.randint(1, 3)):
            j = rng.randrange(len(rows))
            c = rng.randrange(len(rows[0]))
            rows[j][c] = rng.randint(0, 12)
        rows = tuple(tuple(r) for r in rows)
        res = verify_pda(rows)
        assert {v.axiom for v in res.violations} == oracle_broken_axioms(rows)
        cases += 1
    assert cases >= 100

    # (b) exact ordering bound equals brute force through K = 7
    cases = 0
    for _ in range(100):
        f = rng.randint(1, 7)
        k = rng.randint(2, 7)
        pattern = StarPattern(
            f, tuple(rng.randint(0, (1 << f) - 1) for _ in range(k))
        )
        value, order = brute_force_max(pattern)
        cert = theorem1_exact(pattern)
        assert (cert.value, cert.witness) == (value, order)
        cases += 1
    assert cases >= 100

    # (c) complement identity: union sum + intersection sum = K*F
    cases = 0
    for _ in range(100):
        f = rng.randint(1, 8)
        k = rng.randint(2, 6)
        pattern = StarPattern(
            f, tuple(rng.randint(0, (1 << f) - 1) for _ in range(k))
        )
        order = tuple(rng.sample(range(1, k + 1), k))
        inter_sum = eval_ordering(pattern, order).value
        assert union_sum(pattern, order) + inter_sum == k * f
        cases += 1
    assert cases >= 100

    # (d) shrink factor stays below one wherever caching helps
    cases = 0
    for q in range(3, 65):
        for z in range(2, q + 1):
            assert phi(q, z) < 1, (q, z)
            cases += 1
    assert cases >= 100

    # (e) the checksum columns' visiting order against residue class sizes
    # counted by direct enumeration
    cases = 0
    for q in range(2, 7):
        for m in range(1, 9):
            brute = residue_counts(q, m)
            want = sorted(brute, key=lambda v: (-brute[v], v))
            assert checksum_order(q, m) == want, (q, m)
            cases += q
            if m > 1:
                assert sorted(brute.values()) == two_size_law(q, m), (q, m)
    assert cases >= 100

    # (f) fiber intersection cardinalities against the real row lists
    cases = 0
    for q in range(2, 6):
        for m in range(2, 5):
            for tail in itertools.product(range(1, q), repeat=m - 1):
                for l in range(1, q):
                    for residues in itertools.combinations(range(1, q + 1), l):
                        got = fiber_closed_form(q, residues, tail)
                        want = fiber_survivors_from_construction(
                            q, m, residues, tail
                        )
                        assert got == want, (q, m, l, residues, tail)
                        cases += 1
    assert cases >= 100

    # (g) the ordering bound never exceeds S on an actual array
    # (family shapes capped at K = 12 so the exact search stays instant)
    cases = 0
    for q in range(2, 5):
        for m in range(1, 4):
            if (m + 1) * q > 12:
                continue
            grid = partition_pda(q, m)
            assert theorem1_exact(to_star_pattern(grid)).value <= pda_params(grid).s
            cases += 1
    for m in range(3, 7):
        for a in range(1, m):
            for b in range(1, m - a + 1):
                if comb(m, a) > 12:
                    continue
                grid = bipartite_pda(m, a, b)
                assert theorem1_exact(to_star_pattern(grid)).value <= pda_params(grid).s
                cases += 1
    for _ in range(70):
        f = rng.randint(2, 6)
        z = rng.randint(0, f - 1)
        k = rng.randint(2, 5)
        masks = []
        for _ in range(k):
            mask = 0
            for j in rng.sample(range(f), f - z):
                mask |= 1 << j
            masks.append(mask)
        pattern = StarPattern(f, tuple(masks))
        grid = fill_greedy(pattern)
        assert verify_pda(grid).valid
        assert theorem1_exact(pattern).value <= pda_params(grid).s
        cases += 1
    assert cases >= 100


@criterion(9, 30.0)
def test_acceptance_9_displayed_low_rate_placement_is_reported_not_assumed():
    grid = golden_grid("GRID_K6_F8_Z5")
    assert verify_pda(grid).valid
    assert tuple(pda_params(grid)) == (6, 8, 5, 5)
    cert = theorem1_exact(to_star_pattern(grid))
    assert cert.exact
    # Only the sandwich with the displayed S is asserted; the tighter
    # value quoted alongside the array is reported, never required.
    assert cert.value <= 5
    return f"exact bound on the (6,8,5,5) placement = {cert.value}, S = 5"


@criterion(10, 120.0)
def test_acceptance_10_table_command_emits_a_consistent_sandwich(capsys):
    code = main(["table", "--q-list", "2,3", "--m-max", "5"])
    out, _ = capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows, "table produced no data rows"
    exact_rows = 0
    for q, m, s_pda, s_derived, s_exact, mu, ratio in rows:
        if s_exact:
            assert int(s_derived) <= int(s_exact) <= int(s_pda), (q, m)
            exact_rows += 1
        if q == "2":
            assert mu == "1.000000" and ratio == "1.000000", m
    by_qm = {(r[0], r[1]): r for r in rows}
    assert by_qm[("3", "2")][2:5] == ["18", "15", "17"]
    assert by_qm[("3", "3")][2:5] == ["54", "47", "51"]
    assert exact_rows >= 6
