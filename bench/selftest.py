#!/usr/bin/env python3
"""Quick self-check of the benchmark's oracles and answer checks.

    python3 bench/selftest.py

Needs nothing but the files in bench/: the oracles are checked against
brute force and known values, and the answer checks against hand-made CLI
outputs, right and wrong.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import unittest
from itertools import combinations, permutations
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(os.path.dirname(HERE), ".bench_work")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, StepResult  # noqa: E402


def bipartite_masks(m: int, a: int, b: int):
    rows = list(combinations(range(m), b))
    return len(rows), tuple(
        sum(1 << j for j, r in enumerate(rows) if not set(r) & set(col))
        for col in combinations(range(m), a)
    )


def mn_array(k: int, t: int):
    """The MN array by hand: rows t-subsets, a star when the user is in it."""
    rows = list(combinations(range(k), t))
    symbols = {s: i + 1 for i, s in enumerate(combinations(range(k), t + 1))}
    return [[oracle.STAR if u in r else symbols[tuple(sorted(r + (u,)))] for u in range(k)]
            for r in rows]


def format_array(cells) -> str:
    lines = [f"PDA {len(cells)} {len(cells[0])}"]
    lines += [" ".join("*" if c == oracle.STAR else str(c) for c in row) for row in cells]
    return "\n".join(lines) + "\n"


class OracleTest(unittest.TestCase):
    def test_partition_bounds(self):
        for (q, m), want in {(3, 2): 17, (3, 3): 51, (4, 2): 45, (5, 2): 90}.items():
            f, masks = oracle.partition_masks(q, m)
            self.assertEqual(len(masks), (m + 1) * q)
            self.assertEqual(oracle.ordering_bound(f, masks), want, (q, m))

    def test_bipartite_closed_form(self):
        for m, a, b in ((5, 1, 2), (6, 2, 2), (6, 1, 3), (7, 2, 3)):
            f, masks = bipartite_masks(m, a, b)
            self.assertEqual(oracle.ordering_bound(f, masks), comb(m, a + b), (m, a, b))

    def test_bound_matches_every_ordering(self):
        rng = random.Random(7)
        for _ in range(30):
            k, f = rng.randint(2, 6), rng.randint(3, 8)
            masks = oracle.random_masks(rng, k, f, rng.randint(1, f - 1))
            best = max(oracle.nested_sum(f, masks, p)[0]
                       for p in permutations(range(1, k + 1)))
            self.assertEqual(oracle.ordering_bound(f, masks), best)

    def test_minmax_reference(self):
        self.assertEqual(oracle.minmax_bound_bruteforce(4, 6, 3),
                         workloads.MINMAX_REFERENCE[(4, 6, 3)])

    def test_random_masks_are_z_uniform(self):
        masks = oracle.random_masks(random.Random(1), 10, 14, 4)
        self.assertEqual({bin(m).count("1") for m in masks}, {10})
        text = oracle.format_placement(14, masks)
        self.assertEqual(oracle.parse_placement(text), (14, masks))

    def test_array_axioms(self):
        cells = mn_array(4, 2)
        self.assertEqual(oracle.check_array(cells), oracle.mn_params(4, 2))
        self.assertEqual(oracle.xor_terms(cells), 4 * 3 * 3)
        no_star = [row[:] for row in cells]
        no_star[0][0] = 99
        with self.assertRaisesRegex(oracle.OracleError, "C1"):
            oracle.check_array(no_star)
        clash = [row[:] for row in cells]
        j = next(j for j, row in enumerate(clash) if row[3] != oracle.STAR)
        clash[j][3] = next(c for c in clash[j] if c not in (oracle.STAR, clash[j][3]))
        with self.assertRaisesRegex(oracle.OracleError, "C3"):
            oracle.check_array(clash)

    def test_table_row(self):
        row = oracle.table_row(3, 2)
        self.assertEqual((row["s_pda"], row["s_exact"]), (18, 17))
        self.assertEqual(row["formula_ratio"], oracle.Fraction(5, 6))


class CheckTest(unittest.TestCase):
    """Hand-made outputs in the CLI's formats, right and wrong."""

    def setUp(self):
        rng = random.Random(3)
        self.f, self.masks = 8, oracle.random_masks(rng, 5, 8, 3)
        self.value = oracle.ordering_bound(self.f, self.masks)
        self.order = max(permutations(range(1, 6)),
                         key=lambda p: oracle.nested_sum(self.f, self.masks, p)[0])

    def bound_job(self):
        return Job("bound", [["bound"]],
                   workloads._check_bound(self.value, placement=(self.f, self.masks)),
                   workloads.ENGINE_CODES)

    def bound_out(self, order, exact):
        value, steps = oracle.nested_sum(self.f, self.masks, order)
        return json.dumps({"value": value, "witness": list(order), "step_sizes": steps,
                           "exact": exact})

    def test_exact_bound(self):
        v = workloads.judge(self.bound_job(),
                            [StepResult(["bound"], 0, self.bound_out(self.order, True), "")])
        self.assertIsNone(v.error)
        self.assertTrue(v.certified)
        self.assertEqual((v.gap, v.ratio), (0, 1.0))

    def test_truncated_bound(self):
        worst = min(permutations(range(1, 6)),
                    key=lambda p: oracle.nested_sum(self.f, self.masks, p)[0])
        low = oracle.nested_sum(self.f, self.masks, worst)[0]
        self.assertLess(low, self.value)
        v = workloads.judge(self.bound_job(),
                            [StepResult(["bound"], 3, self.bound_out(worst, False), "")])
        self.assertIsNone(v.error)
        self.assertFalse(v.certified)
        self.assertEqual(v.gap, self.value - low)
        # The same answer claimed as exact is wrong.
        v = workloads.judge(self.bound_job(),
                            [StepResult(["bound"], 0, self.bound_out(worst, True), "")])
        self.assertIsNotNone(v.error)

    def test_failures(self):
        out = self.bound_out(self.order, True)
        for step in (StepResult(["bound"], 1, out, ""),
                     StepResult(["bound"], 0, out, "Traceback (most recent call last):\n"),
                     StepResult(["bound"], 0, "not json", ""),
                     StepResult(["bound"], 0, out.replace('"value": ', '"value": 1 + '), "")):
            v = workloads.judge(self.bound_job(), [step])
            self.assertIsNotNone(v.error, step)
            self.assertEqual(v.ratio, 0.0)

    def test_fill(self):
        cells = mn_array(4, 2)
        masks = oracle.array_masks(cells)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            plc, pda = os.path.join(tmp, "p.plc"), os.path.join(tmp, "p.pda")
            with open(plc, "w") as fh:
                fh.write(oracle.format_placement(6, masks))
            with open(pda, "w") as fh:
                fh.write(format_array(cells))
            job = Job("fill", [["fill"]], workloads._check_fill(pda, placement_path=plc),
                      workloads.ENGINE_CODES)
            ok = workloads.judge(job, [StepResult(["fill"], 0, "", "exact fill: S = 4")])
            self.assertIsNone(ok.error)
            self.assertTrue(ok.certified)
            lie = workloads.judge(job, [StepResult(["fill"], 0, "", "exact fill: S = 3")])
            self.assertIsNotNone(lie.error)

    def test_build(self):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            for name in workloads.WORKLOADS:
                jobs = workloads.build(name, 5, tmp)
                again = workloads.build(name, 5, tmp)
                self.assertEqual([j.steps for j in jobs], [j.steps for j in again])
                for job in jobs:
                    for argv in job.steps:
                        self.assertNotIn("--threads", argv)
                        if argv[0] in ("bound", "fill", "search"):
                            self.assertIn("--budget", argv)


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside bench/")
        with open(path) as fh:
            spec = json.load(fh)
        import layers
        import run
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layers.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    os.makedirs(SCRATCH, exist_ok=True)
    unittest.main()
