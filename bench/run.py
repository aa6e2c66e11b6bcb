#!/usr/bin/env python3
"""Benchmark of the pda-workbench CLI, run from the root of a checkout.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One closed-loop client runs the workload's job list (see workloads.py) over
and over, one child process at a time, each a fresh
`python -m pda_workbench.cli` on the checkout's src/.  Every answer is
checked against an independent oracle.  With --trace 0 it prints the
end-to-end metrics (medians over passes; times are in units of a fixed
reference loop run between the jobs); with --trace 1 it runs the same
jobs in-process through cli.main and prints the per-layer metrics instead
(see layers.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full record, with the
seed, Python version, core count and commit, goes to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from workloads import Job, StepResult, Verdict  # noqa: E402

SETUP_REPEATS = 5
# A child still running this long after the measuring window closes is
# killed (and counted as failed), so a hung program cannot keep the run past
# the harness's own time limit.
GRACE_S = 60
SPAWN_SAMPLES = 5

# End-to-end metric -> unit, in print order (README.md defines each).
END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "certified_frac": "frac",
    "answer_ratio": "frac",
    "setup_s": "s",
}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PDA_WORKBENCH_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: List[str], stdin_path: Optional[str], out_path: str, env: Dict[str, str],
          timeout: float = GRACE_S, program: Optional[List[str]] = None) -> StepResult:
    """Run one CLI process (or `program`) to completion; account for it with wait4."""
    cmd = (program or [sys.executable, "-m", "pda_workbench.cli"]) + argv
    err_path = out_path + ".err"
    with open(stdin_path or os.devnull, "rb") as fin, open(out_path, "wb") as fout, \
            open(err_path, "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    return StepResult(argv, proc.returncode, out, err, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


# A fixed pure-Python loop (dict and set updates, then a byte-wise XOR) run
# as a child before each job: it clocks the shared host's speed at that
# moment, in the same interpreter.  It imports nothing from the program, so
# no change to the program can move it.  A job gets about one reference run
# per REFERENCE_EVERY_S of its previous time, so long jobs get more.
REFERENCE = """\
d, s = {}, set()
for i in range(75000):
    k = (i * 7919) % 1021
    d[k] = d.get(k, 0) + (i ^ k)
    if i % 7 == 0:
        s.add((k, i & 63))
v = sorted(d.values())
a = bytes(range(256)) * 16
b = a[::-1]
for _ in range(150):
    a = bytes(x ^ y for x, y in zip(a, b))
"""
REFERENCE_EVERY_S = 0.75


def reference(work: str, env: Dict[str, str]) -> StepResult:
    return spawn([], None, os.path.join(work, "reference.out"), env,
                 program=[sys.executable, "-c", REFERENCE])


def run_job(job: Job, work: str, env: Dict[str, str], deadline: float) -> List[StepResult]:
    job.clear_outputs()
    steps: List[StepResult] = []
    stdin_path = None
    for i, argv in enumerate(job.steps):
        out_path = os.path.join(work, f"{job.name}.{i}.out")
        timeout = max(1.0, deadline - time.perf_counter())
        steps.append(spawn(argv, stdin_path, out_path, env, timeout))
        if steps[-1].code != 0 and i < len(job.steps) - 1:
            break
        stdin_path = out_path
    return steps


def spawn_s(work: str, env: Dict[str, str]) -> float:
    """Median wall time of a bare `--help` process: the per-process floor."""
    out = os.path.join(work, "help.out")
    return statistics.median(spawn(["--help"], None, out, env).wall
                             for _ in range(SPAWN_SAMPLES))


def setup(workload: str, seed: int, work: str, env: Dict[str, str]
          ) -> Tuple[List[Job], float]:
    """Generate inputs and oracle values, then warm the interpreter."""
    t0 = time.perf_counter()
    jobs = workloads.build(workload, seed, work)
    spawn(["--help"], None, os.path.join(work, "warm.out"), env)
    return jobs, time.perf_counter() - t0


def measure(jobs: List[Job], seconds: float, work: str, env: Dict[str, str]
            ) -> Tuple[List[Dict[str, float]], Dict[str, List[float]], List[str]]:
    """Run whole passes while one more as slow as the slowest so far fits.

    Reference children run before every job, and each pass's wall and CPU
    time are reported in units of that pass's mean reference run.  Returns
    one row of pass metrics per pass, each job's wall times, and the errors
    found by the checks.
    """
    start = last = time.perf_counter()
    slowest = 0.0
    rows: List[Dict[str, float]] = []
    errors: List[str] = []
    job_walls: Dict[str, List[float]] = {job.name: [] for job in jobs}
    while True:
        wall = cpu = rss = ref_wall = ref_cpu = 0.0
        refs = 0
        verdicts: List[Verdict] = []
        for job in jobs:
            # About one reference per REFERENCE_EVERY_S of the job's last run.
            last_wall = job_walls[job.name][-1] if job_walls[job.name] else 0.0
            for _ in range(max(1, round(last_wall / REFERENCE_EVERY_S))):
                ref = reference(work, env)
                if ref.code != 0:
                    errors.append(f"reference loop exited {ref.code}")
                ref_wall, ref_cpu, refs = ref_wall + ref.wall, ref_cpu + ref.cpu, refs + 1
            steps = run_job(job, work, env, start + seconds + GRACE_S)
            job_walls[job.name].append(sum(s.wall for s in steps))
            wall += job_walls[job.name][-1]
            cpu += sum(s.cpu for s in steps)
            rss = max([rss] + [s.rss_kb / 1024 for s in steps])
            verdicts.append(workloads.judge(job, steps))
        errors += [v.error for v in verdicts if v.error]
        fixed = [v for job, v in zip(jobs, verdicts) if not job.seeded]
        rows.append({
            "wall_ref": wall / (ref_wall / refs),
            "cpu_ref": cpu / (ref_cpu / refs),
            "peak_rss_mb": rss,
            "certified_frac": sum(v.certified for v in fixed) / len(fixed),
            "answer_ratio": sum(v.ratio for v in fixed) / len(fixed),
            "wall_s": wall,
            "cpu_s": cpu,
            "reference_s": ref_wall / refs,
            "answer_gap": sum(v.gap for v in verdicts),
        })
        now = time.perf_counter()
        slowest, last = max(slowest, now - last), now
        if now - start + slowest > seconds:
            break
    return rows, job_walls, errors


def commit() -> Optional[str]:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pda_workbench", "cli.py")):
        print(f"error: no src/pda_workbench/cli.py under {ROOT}; "
              "run from a pda-workbench checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_work")
    work = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = child_env()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            jobs, took = setup(args.workload, args.seed, work, env)
            setups.append(took)
        setup_s = statistics.median(setups)

        if args.trace:
            import layers
            layer, attempted, errors, spans = layers.run(
                jobs, args.seconds, spawn_s(work, env), os.path.join(ROOT, "src"))
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in layers.PER_LAYER.items()}
            samples, ranges, shown, job_wall_s, rows = None, {}, metrics, None, None
        else:
            rows, job_walls, errors = measure(jobs, args.seconds, work, env)
            samples, attempted = len(rows), len(rows) * len(jobs)
            values = {k: [row[k] for row in rows] for k in rows[0]}
            values["setup_s"] = setups
            ranges = {k: (min(v), max(v)) for k, v in values.items()}
            medians = {k: statistics.median(v) for k, v in values.items()}
            metrics = {name: {"value": medians[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            # The raw times follow the shared host's speed, and answer_gap
            # and error_frac can be 0, so these are printed and recorded but
            # kept out of the JSON metrics.
            shown = dict(metrics, **{k: {"value": medians[k], "unit": u} for k, u in
                                     (("wall_s", "s"), ("cpu_s", "s"), ("reference_s", "s"),
                                      ("answer_gap", "count"))},
                         error_frac={"value": len(errors) / attempted, "unit": "frac"})
            job_wall_s = {k: statistics.median(v) for k, v in job_walls.items()}
            spans = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": samples,
        "pass_metrics": rows,
        "jobs": [j.name for j in jobs],
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "commit": commit(),
        "metrics": shown,
        "job_wall_s": job_wall_s,
        "errors": errors,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(dict(record, spans=spans), fh)

    print(f"{args.workload} seed={args.seed}: {len(jobs)} jobs"
          + (f", {samples} passes (medians)" if samples else ", in-process trace")
          + f"; python {record['python']}, {record['cores']} cores, commit {record['commit']}")
    for key, m in shown.items():
        low_high = f"  [{ranges[key][0]:.4g} .. {ranges[key][1]:.4g}]" \
            if key in ranges else ""
        print(f"  {key:28s} {m['value']:>14.6g} {m['unit']}{low_high}")
    for e in sorted(set(errors))[:10]:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
