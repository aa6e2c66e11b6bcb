"""Traced in-process run: per-layer time and counts.

The jobs run through `pda_workbench.cli.main(argv)` in this process.
Wrappers installed from here replace the public functions at each module
boundary, under the name each caller looks them up by, and record a span
(name, start, end, parent, job) per call plus counts taken from the results.
Untraced and traced passes alternate; trace.overhead_frac compares them.
Spans stay in memory and are returned at the end.

Every *_s metric is self time: a span's duration minus its child spans',
summed per pass; the reported value is the median over traced passes.
"""

from __future__ import annotations

import io
import os
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import Job, StepResult, judge

# name -> unit
PER_LAYER = {
    "cli.spawn_s": "s",
    "cli.self_s": "s",
    "core.parse_s": "s",
    "core.verify_s": "s",
    "core.canonical_s": "s",
    "core.canonical_calls": "count",
    "constructions.build_s": "s",
    "bounds.exact_s": "s",
    "bounds.exact_calls": "count",
    "bounds.exact_truncated": "count",
    "bounds.search_self_s": "s",
    "bounds.search_evaluated": "count",
    "bounds.search_dedup_hits": "count",
    "bounds.search_useful_ratio": "frac",
    "formulas.ratio_report_s": "s",
    "filler.graph_s": "s",
    "filler.graph_edges": "count",
    "filler.greedy_s": "s",
    "filler.exact_self_s": "s",
    "filler.symbols": "count",
    "filler.optimal_frac": "frac",
    "simulate.library_s": "s",
    "simulate.place_s": "s",
    "simulate.deliver_s": "s",
    "simulate.decode_s": "s",
    "simulate.demands": "count",
    "simulate.xor_bytes": "computed_bytes",
    "simulate.xor_mb_per_s": "MB/s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, job]
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.job = ""

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result)
            return result
        return traced


def _exact(c: Counter, cert: Any) -> None:
    c["exact_truncated"] += not cert.exact


def _search(c: Counter, report: Any) -> None:
    c["search_evaluated"] += report.nodes_explored
    c["search_dedup_hits"] += report.dedup_hits


def _graph(c: Counter, graph: Any) -> None:
    c["graph_edges"] += graph.edge_count()


def _fill(c: Counter, result: Any) -> None:
    c["fills"] += 1
    c["symbols"] += result.colors
    c["optimal"] += result.optimal


def _sweep(c: Counter, sweep: Any) -> None:
    c["demands"] += sweep.demands_checked


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every boundary; return the function that undoes the patches."""
    from pda_workbench import bounds, cli, filler, formulas, simulate

    points = [
        (cli, "parse_pda", "core.parse", None),
        (cli, "parse_placement", "core.parse", None),
        (cli, "verify_pda", "core.verify", None),
        (bounds, "canonical_pattern", "core.canonical", None),
        (cli, "partition_pda", "constructions.build", None),
        (cli, "bipartite_pda", "constructions.build", None),
        (cli, "mn_pda", "constructions.build", None),
        (cli, "grouping_pda", "constructions.build", None),
        (formulas, "partition_pda", "constructions.build", None),
        (cli, "theorem1_exact", "bounds.exact", _exact),
        (bounds, "theorem1_exact", "bounds.exact", _exact),
        (filler, "theorem1_exact", "bounds.exact", _exact),
        (formulas, "theorem1_exact", "bounds.exact", _exact),
        (cli, "theorem3_search", "bounds.search", _search),
        (cli, "ratio_report", "formulas.ratio_report", None),
        (filler, "build_conflict_graph", "filler.graph", _graph),
        (filler, "fill_greedy", "filler.greedy", None),
        (cli, "fill_greedy", "filler.greedy", None),
        (cli, "fill_exact", "filler.exact", _fill),
        (cli, "place", "simulate.place", None),
        (simulate, "place", "simulate.place", None),
        (cli, "deliver", "simulate.deliver", None),
        (simulate, "deliver", "simulate.deliver", None),
        (cli, "decode", "simulate.decode", None),
        (simulate, "decode", "simulate.decode", None),
        (cli, "run_sweep", "simulate.sweep", _sweep),
    ]
    saved: List[Tuple[Any, str, Any]] = []
    for owner, attr, name, count in points:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
    lib = simulate.FileLibrary
    saved.append((lib, "generate", lib.__dict__["generate"]))
    lib.generate = tracer.wrap("simulate.library", lib.generate)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


def _run_inprocess(cli: Any, job: Job, tracer: Optional[Tracer]) -> List[StepResult]:
    job.clear_outputs()
    steps: List[StepResult] = []
    stdin_text = ""
    for i, argv in enumerate(job.steps):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
        except SystemExit as e:
            code = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
        except Exception:  # a crash is a measured failure, not a harness one
            code = None
            err.write(traceback.format_exc())
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        steps.append(StepResult(argv, code, out.getvalue(), err.getvalue(),
                                time.perf_counter() - t0))
        if code != 0 and i < len(job.steps) - 1:
            break
        stdin_text = out.getvalue()
    return steps


def _self_times(spans: List[List[Any]], first: int) -> Tuple[Dict[str, float], Counter]:
    """Per span name: summed self time and call count, for spans[first:]."""
    child = [0.0] * (len(spans) - first)
    for i in range(first, len(spans)):
        parent = spans[i][3]
        if parent >= first:
            child[parent - first] += spans[i][2] - spans[i][1]
    self_s: Dict[str, float] = Counter()
    calls: Counter = Counter()
    for i in range(first, len(spans)):
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        self_s[name] += end - start - child[i - first]
        calls[name] += 1
    return self_s, calls


def _layer_metrics(self_s: Dict[str, float], calls: Counter, c: Counter,
                   xor_bytes: int) -> Dict[str, float]:
    evaluated, dedup = c["search_evaluated"], c["search_dedup_hits"]
    xor_s = self_s["simulate.deliver"] + self_s["simulate.decode"]
    return {
        "cli.self_s": self_s["cli.main"],
        "core.parse_s": self_s["core.parse"],
        "core.verify_s": self_s["core.verify"],
        "core.canonical_s": self_s["core.canonical"],
        "core.canonical_calls": calls["core.canonical"],
        "constructions.build_s": self_s["constructions.build"],
        "bounds.exact_s": self_s["bounds.exact"],
        "bounds.exact_calls": calls["bounds.exact"],
        "bounds.exact_truncated": c["exact_truncated"],
        "bounds.search_self_s": self_s["bounds.search"],
        "bounds.search_evaluated": evaluated,
        "bounds.search_dedup_hits": dedup,
        "bounds.search_useful_ratio": evaluated / (evaluated + dedup) if evaluated else 0.0,
        "formulas.ratio_report_s": self_s["formulas.ratio_report"],
        "filler.graph_s": self_s["filler.graph"],
        "filler.graph_edges": c["graph_edges"],
        "filler.greedy_s": self_s["filler.greedy"],
        "filler.exact_self_s": self_s["filler.exact"],
        "filler.symbols": c["symbols"],
        "filler.optimal_frac": c["optimal"] / c["fills"] if c["fills"] else 0.0,
        "simulate.library_s": self_s["simulate.library"],
        "simulate.place_s": self_s["simulate.place"],
        "simulate.deliver_s": self_s["simulate.deliver"],
        "simulate.decode_s": self_s["simulate.decode"],
        "simulate.demands": c["demands"],
        "simulate.xor_bytes": xor_bytes,
        "simulate.xor_mb_per_s": xor_bytes / xor_s / 1e6 if xor_s else 0.0,
    }


def run(jobs: List[Job], seconds: float, spawn_s: float, src: str
        ) -> Tuple[Dict[str, float], int, List[str], List[List[Any]]]:
    """One warm-up pass, then untraced and traced passes in pairs while
    another pair fits in `seconds`.

    Returns the per-layer metrics, the jobs attempted, the errors and the
    spans.  trace.overhead_frac is the median over pairs of traced / untraced
    - 1: the two passes of a pair run back to back, so a slow spell of the
    machine mostly hits both.
    """
    sys.path.insert(0, src)
    os.environ.pop("PDA_WORKBENCH_THREADS", None)  # the serial path, as in the timed run
    from pda_workbench import cli

    tracer = Tracer()
    errors: List[str] = []
    attempted = 0

    def one_pass(on: bool) -> Tuple[float, int]:
        nonlocal attempted
        restore = install(tracer) if on else None
        wall, xor_bytes = 0.0, 0
        try:
            for job in jobs:
                tracer.job = job.name
                steps = _run_inprocess(cli, job, tracer if on else None)
                wall += sum(s.wall for s in steps)
                verdict = judge(job, steps)
                xor_bytes += verdict.xor_bytes
                attempted += 1
                if verdict.error:
                    errors.append(verdict.error)
        finally:
            if restore:
                restore()
        return wall, xor_bytes

    one_pass(False)
    ratios: List[float] = []
    layers: List[Dict[str, float]] = []
    start = last = time.perf_counter()
    slowest = 0.0
    while True:
        plain, _ = one_pass(False)
        first = len(tracer.spans)
        tracer.counts = Counter()
        traced, xor_bytes = one_pass(True)
        ratios.append(traced / plain)
        self_s, calls = _self_times(tracer.spans, first)
        layers.append(_layer_metrics(self_s, calls, tracer.counts, xor_bytes))
        now = time.perf_counter()
        slowest, last = max(slowest, now - last), now
        if now - start + slowest > seconds:
            break
    result = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
    result["cli.spawn_s"] = spawn_s
    result["trace.overhead_frac"] = statistics.median(ratios) - 1
    return result, attempted, errors, tracer.spans
