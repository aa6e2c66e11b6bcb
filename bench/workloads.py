"""The three workloads: their job lists, seeded inputs and answer checks.

A job is a pipeline of CLI invocations; step i reads step i-1's standard
output on its standard input, as `a | b` would, and files named with -o pass
placements and arrays between steps that print a summary instead.  The last
step's output is the job's answer.  Every answer is checked against
`oracle`, which shares no code with the program.

Every flag whose default a planned change may move is pinned here: the
bound, search and fill budgets, `table --exact-cap`, and the serial simulate
path (no --threads; the runner removes PDA_WORKBENCH_THREADS).
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, List, Optional, Sequence, Tuple

import oracle
from oracle import OracleError

WORKLOADS = ("certify", "design", "deliver")

# Pinned budgets.  BOUND_BUDGET is the `bound` default and FILL_BUDGET the
# `fill` default.  The frontier jobs get budgets under which they stop short
# today, sized so that a pass takes a few seconds: partition(5,2) reaches 82
# of 90, the (4,8,4) search 7 where 6 is known, the partition(4,2) fill 81
# where the construction has 48.
BOUND_BUDGET = 100_000_000
FILL_BUDGET = 5_000_000
SEARCH_BUDGET = 1_000_000
FRONTIER_BOUND_BUDGET = 300_000
FRONTIER_SEARCH_BUDGET = 5_000
FRONTIER_FILL_BUDGET = 5_000
RANDOM_FILL_BUDGET = 1_000

# Best known min-max ordering bound for Z-uniform placements of (K, F, Z).
MINMAX_REFERENCE = {(4, 6, 3): 4, (4, 8, 4): 6}

ENGINE_CODES = (0, 3)


@dataclass
class StepResult:
    argv: List[str]
    code: int
    out: str
    err: str
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0


@dataclass
class Verdict:
    """A checked answer.  ratio compares it with the reference, at most 1."""

    error: Optional[str] = None
    certified: bool = False
    gap: int = 0
    ratio: float = 1.0
    xor_bytes: int = 0


@dataclass
class Job:
    name: str
    steps: List[List[str]]
    check: Callable[[List[StepResult]], Verdict]
    # Exit codes the last step may return: 3 means "out of budget", a
    # documented answer that is simply not certified.
    codes: Tuple[int, ...] = (0,)
    files: List[str] = field(default_factory=list)  # outputs removed before each run
    # A seeded job's input is drawn from the workload seed.  Whether the
    # filler proves a random placement optimal within budget changes with
    # the seed (even under mere row and user relabelling), so seeded jobs
    # count in the time metrics, the checks and answer_gap, but not in
    # certified_frac and answer_ratio, which must not depend on the seed.
    seeded: bool = False

    def clear_outputs(self) -> None:
        for path in self.files:
            if os.path.exists(path):
                os.remove(path)


def judge(job: Job, steps: List[StepResult]) -> Verdict:
    """Check one run of a job: exit codes, no traceback, then its answer.

    `steps` may stop early when a step failed; that step is then the last.
    """
    for i, step in enumerate(steps):
        allowed = job.codes if i == len(job.steps) - 1 else (0,)
        if "Traceback (most recent call last)" in step.err:
            return Verdict(error=f"{job.name}: step {i + 1} raised", ratio=0.0)
        if step.code not in allowed:
            return Verdict(error=f"{job.name}: step {i + 1} exited {step.code}", ratio=0.0)
    try:
        return job.check(steps)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        # Malformed output; OracleError, a wrong answer, is a ValueError.
        return Verdict(error=f"{job.name}: {e}", ratio=0.0)


def _json(step: StepResult) -> dict:
    try:
        return json.loads(step.out)
    except ValueError:
        raise OracleError(f"{step.argv[0]}: output is not JSON") from None


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        raise OracleError(f"missing output file {path}") from None


def _family_array(step: StepResult, params: Tuple[int, int, int, int]) -> List[List[int]]:
    cells = oracle.parse_array(step.out)
    got = oracle.check_array(cells)
    if got != params:
        raise OracleError(f"construct gave (K,F,Z,S)={got}, want {params}")
    return cells


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _check_verify(params):
    def check(steps: List[StepResult]) -> Verdict:
        _family_array(steps[0], params)
        doc = _json(steps[1])
        p = doc.get("params") or {}
        if not doc.get("valid") or (p.get("k"), p.get("f"), p.get("z"), p.get("s")) != params:
            raise OracleError(f"verify reported {doc.get('valid')} {p}, want valid {params}")
        return Verdict(certified=True)
    return check


def _check_bound(reference: int, params=None, placement=None):
    """Bound on a constructed array (params) or on a placement file."""
    def check(steps: List[StepResult]) -> Verdict:
        if params is not None:
            cells = _family_array(steps[0], params)
            f, masks = len(cells), oracle.array_masks(cells)
        else:
            f, masks = placement
        doc = _json(steps[-1])
        value, witness = doc["value"], doc["witness"]
        if sorted(witness) != list(range(1, len(masks) + 1)):
            raise OracleError("witness is not an ordering of every user")
        total, sizes = oracle.nested_sum(f, masks, witness)
        if (total, sizes) != (value, doc["step_sizes"]):
            raise OracleError(f"witness sums to {total}, bound says {value}")
        if value > reference:
            raise OracleError(f"bound {value} exceeds the true maximum {reference}")
        exact = bool(doc["exact"])
        if exact != (steps[-1].code == 0) or (exact and value != reference):
            raise OracleError(f"exact={exact} with value {value}, oracle {reference}")
        if params is not None and doc.get("grid_symbols") != params[3]:
            raise OracleError("bound misreports the grid's symbol count")
        return Verdict(certified=exact, gap=reference - value, ratio=value / reference)
    return check


def _check_search(k: int, f: int, z: int, witness_path: str):
    reference = MINMAX_REFERENCE[(k, f, z)]

    def check(steps: List[StepResult]) -> Verdict:
        doc = _json(steps[-1])
        value = doc["best_value"]
        wf, masks = oracle.parse_placement(_read(witness_path))
        if (wf, len(masks)) != (f, k) or any(bin(m).count("1") != f - z for m in masks):
            raise OracleError(f"witness is not a Z-uniform ({k},{f},{z}) placement")
        sets = [[j + 1 for j in range(f) if m >> j & 1] for m in masks]
        if sets != doc["witness_uncached_sets"]:
            raise OracleError("witness file disagrees with the reported witness")
        if oracle.ordering_bound(f, masks) != value:
            raise OracleError(f"witness does not attain the reported value {value}")
        if value < reference:
            raise OracleError(f"value {value} beats the known min-max {reference}")
        complete = bool(doc["exhaustive"])
        if complete != (steps[-1].code == 0) or (complete and value != reference):
            raise OracleError(f"complete={complete} with value {value}, known {reference}")
        return Verdict(certified=complete, gap=value - reference, ratio=reference / value)
    return check


def _check_fill(grid_path: str, placement_path: Optional[str] = None,
                params=None, best_known: Optional[int] = None):
    """Fill of a placement file, or of a constructed array piped in (params).

    The reference is the best known symbol count when there is one (the
    construction's own S), else the oracle's ordering bound; a fill the
    program proves optimal is its own reference.
    """
    def check(steps: List[StepResult]) -> Verdict:
        if params is not None:
            src = _family_array(steps[0], params)
            f, masks = len(src), oracle.array_masks(src)
        else:
            f, masks = oracle.parse_placement(_read(placement_path))
        cells = oracle.parse_array(_read(grid_path))
        if len(cells) != f or oracle.array_masks(cells) != masks:
            raise OracleError("fill changed the star pattern")
        _, _, _, s = oracle.check_array(cells)
        said = re.search(r"S = (\d+)", steps[-1].err)
        if said is None or int(said.group(1)) != s:
            raise OracleError(f"fill reports {said and said.group(0)}, the array has S = {s}")
        lower = oracle.ordering_bound(f, masks)
        if s < lower:
            raise OracleError(f"S = {s} is below the ordering bound {lower}")
        optimal = steps[-1].code == 0
        ref = best_known if best_known is not None else (s if optimal else lower)
        return Verdict(certified=optimal, gap=max(0, s - ref), ratio=min(1.0, ref / s))
    return check


def _check_table(q_list: Sequence[int], m_max: int, cap: int):
    def check(steps: List[StepResult]) -> Verdict:
        lines = [ln.split(",") for ln in steps[-1].out.splitlines() if ln.strip()]
        if not lines or lines[0] != ["q", "m", "s_pda", "s_derived", "s_exact", "mu",
                                     "formula_ratio"]:
            raise OracleError("table lacks its CSV header")
        rows = {(int(r[0]), int(r[1])): r for r in lines[1:]}
        want = [(q, m) for q in q_list for m in range(2, m_max + 1)]
        if sorted(rows) != sorted(want):
            raise OracleError(f"table rows {sorted(rows)}, want {want}")
        gap, ratios, complete = 0, [], True
        for (q, m), r in rows.items():
            ref = oracle.table_row(q, m)
            s_pda, s_derived = int(r[2]), int(r[3])
            ratio = ref["formula_ratio"]
            if s_pda != ref["s_pda"] or r[6] != f"{float(ratio):.6f}":
                raise OracleError(f"table row q={q} m={m}: {r}")
            if r[4]:
                s_exact = int(r[4])
                if s_exact != ref["s_exact"] or r[5] != f"{s_exact / s_derived:.6f}":
                    raise OracleError(f"table row q={q} m={m}: s_exact {s_exact}, "
                                      f"oracle {ref['s_exact']}")
                value = s_exact
            else:
                complete = False
                value = s_derived
            if value > ref["s_exact"]:
                raise OracleError(f"table row q={q} m={m}: {value} > {ref['s_exact']}")
            gap += ref["s_exact"] - value
            ratios.append(value / ref["s_exact"])
        return Verdict(certified=complete, gap=gap, ratio=sum(ratios) / len(ratios))
    return check


def _check_simulate(params, demands: int, packet_len: int):
    def check(steps: List[StepResult]) -> Verdict:
        cells = _family_array(steps[0], params)
        doc = _json(steps[-1])
        rate = doc.get("rate") or {}
        want = Fraction(params[3], params[1])
        if doc.get("demands_checked") != demands or not doc.get("all_ok") \
                or Fraction(rate.get("num", 0), rate.get("den", 1)) != want:
            raise OracleError(f"simulate reported {doc}, want {demands} byte-exact "
                              f"demands at rate {want}")
        return Verdict(certified=True,
                       xor_bytes=demands * packet_len * oracle.xor_terms(cells))
    return check


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------

def _construct(family: str, **kw: int) -> List[str]:
    argv = ["construct", family]
    for key, value in kw.items():
        argv += [f"--{key}", str(value)]
    return argv


def _bound(budget: int) -> List[str]:
    return ["bound", "--method", "exact", "--budget", str(budget), "--format", "json"]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build(workload: str, seed: int, work: str) -> List[Job]:
    """Generate the seeded inputs under `work` and return the job list.

    Oracle values are computed here, before any job runs, except where the
    input is itself a program output (a search witness).
    """
    rng = random.Random(f"{workload}:{seed}")
    path = lambda name: os.path.join(work, name)  # noqa: E731
    jobs: List[Job] = []

    if workload == "certify":
        p33 = oracle.partition_params(3, 3)
        jobs.append(Job("verify-partition-3-3",
                        [_construct("partition", q=3, m=3), ["verify", "--format", "json"]],
                        _check_verify(p33)))
        for q, m, budget in ((3, 3, BOUND_BUDGET), (5, 2, FRONTIER_BOUND_BUDGET)):
            f, masks = oracle.partition_masks(q, m)
            jobs.append(Job(f"bound-partition-{q}-{m}",
                            [_construct("partition", q=q, m=m), _bound(budget)],
                            _check_bound(oracle.ordering_bound(f, masks),
                                         params=oracle.partition_params(q, m)),
                            ENGINE_CODES))
        jobs.append(Job("bound-bipartite-8-2-3",
                        [_construct("bipartite", m=8, a=2, b=3), _bound(BOUND_BUDGET)],
                        _check_bound(comb(8, 5), params=oracle.bipartite_params(8, 2, 3)),
                        ENGINE_CODES))
        jobs.append(Job("table-q2,3-m2",
                        [["table", "--q-list", "2,3", "--m-max", "2", "--exact-cap", "12"]],
                        _check_table((2, 3), 2, 12)))
        # Many small random placements: one K=12 placement's bound time varies
        # by a factor of ten between seeds, five K=11 ones average that out.
        for i in range(5):
            f, masks = 16, oracle.random_masks(rng, 11, 16, 5)
            plc = path(f"certify-random-{i}.plc")
            _write(plc, oracle.format_placement(f, masks))
            jobs.append(Job(f"bound-random-{i}", [_bound(BOUND_BUDGET) + [plc]],
                            _check_bound(oracle.ordering_bound(f, masks), placement=(f, masks)),
                            ENGINE_CODES, seeded=True))

    elif workload == "design":
        for k, f, z, budget in ((4, 6, 3, SEARCH_BUDGET), (4, 8, 4, FRONTIER_SEARCH_BUDGET)):
            plc, pda = path(f"search-{k}-{f}-{z}.plc"), path(f"search-{k}-{f}-{z}.pda")
            jobs.append(Job(f"search-{k}-{f}-{z}",
                            [["search", "--k", str(k), "--f", str(f), "--z", str(z),
                              "--budget", str(budget), "--format", "json", "-o", plc]],
                            _check_search(k, f, z, plc), ENGINE_CODES, [plc]))
            jobs.append(Job(f"fill-search-{k}-{f}-{z}",
                            [["fill", plc, "--budget", str(FILL_BUDGET), "-o", pda]],
                            _check_fill(pda, placement_path=plc), ENGINE_CODES, [pda]))
        for q, m, budget in ((3, 2, FILL_BUDGET), (4, 2, FRONTIER_FILL_BUDGET)):
            params = oracle.partition_params(q, m)
            pda = path(f"fill-partition-{q}-{m}.pda")
            jobs.append(Job(f"fill-partition-{q}-{m}",
                            [_construct("partition", q=q, m=m),
                             ["fill", "--budget", str(budget), "-o", pda]],
                            _check_fill(pda, params=params, best_known=params[3]),
                            ENGINE_CODES, [pda]))
        # Six small random placements: whether a fill ends early or runs out
        # of budget changes with the seed, and six average that out.
        for i in range(6):
            f, masks = 14, oracle.random_masks(rng, 10, 14, 4)
            plc, pda = path(f"design-random-{i}.plc"), path(f"design-random-{i}.pda")
            _write(plc, oracle.format_placement(f, masks))
            jobs.append(Job(f"fill-random-{i}",
                            [["fill", plc, "--budget", str(RANDOM_FILL_BUDGET), "-o", pda]],
                            _check_fill(pda, placement_path=plc), ENGINE_CODES, [pda],
                            seeded=True))

    elif workload == "deliver":
        sim_seed = str(rng.randrange(1 << 30))
        p33 = oracle.partition_params(3, 3)
        jobs.append(Job("simulate-partition-3-3-sample",
                        [_construct("partition", q=3, m=3),
                         ["simulate", "--files", "8", "--sample", "50", "--packet-len", "1024",
                          "--seed", sim_seed, "--format", "json"]],
                        _check_simulate(p33, 50, 1024)))
        mn52 = oracle.mn_params(5, 2)
        jobs.append(Job("simulate-mn-5-2-sweep",
                        [_construct("mn", k=5, t=2),
                         ["simulate", "--files", "5", "--sweep", "--packet-len", "64",
                          "--seed", sim_seed, "--format", "json"]],
                        _check_simulate(mn52, 5 ** 5, 64)))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return jobs
