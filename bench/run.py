"""Benchmark of the ppsn library and CLI.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One process, one thread, one closed-loop client: each task starts when the
previous one returns. The run sets up `SETUP_REPS` times (import, inputs,
oracle answers, fixture files, warm-up) and reports the median as
`setup_s`, then runs whole cycles of tasks until `--seconds` have passed
and at least `MIN_TASKS` tasks ran, then checks every output against the
oracle. With `--trace 1` every cycle runs once with each layer wrapped and
once without, and the per-layer metrics come from the wrapped runs.

Times are reported at a reference machine speed: a fixed 2 ms loop of
`Fraction` and `dict` work runs between tasks, and each task's wall time
is divided by how much slower than 2 ms that loop ran around it. Raw
wall-clock figures are on the info line. See bench/README.md.

It imports `ppsn` from the `src/` directory next to this one and refuses
to run if the package resolves anywhere else. The last line of stdout is
the result JSON; the line before it records what was measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_TASKS = 100  # the 90th percentile needs ten samples beyond it
HARD_LIMIT_S = 120.0
WORKDIR = Path(".bench_work")
# nominal time of reference(); reported times are scaled to this speed
REFERENCE_S = 0.002


def import_ppsn():
    """Fresh import of the package under `ROOT/src`; exits if it is not there."""
    src = ROOT / "src"
    for key in [k for k in sys.modules if k == "ppsn" or k.startswith("ppsn.")]:
        del sys.modules[key]
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    try:
        ppsn = importlib.import_module("ppsn")
        importlib.import_module("ppsn.cli")
    except ImportError as exc:
        sys.exit(f"bench: cannot import ppsn from {src}: {exc}")
    where = Path(ppsn.__file__).resolve()
    if where.parent != (src / "ppsn").resolve():
        sys.exit(f"bench: ppsn resolved to {where}, outside {src}")
    return ppsn


def provenance(ppsn) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ppsn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "ppsn_file": str(Path(ppsn.__file__).resolve().relative_to(ROOT)),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload_cls, seed: int):
    """One full set-up; returns (ppsn, workload)."""
    ppsn = import_ppsn()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    workload = workload_cls(ppsn, seed, WORKDIR)
    workload.warm_up()
    return ppsn, workload


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop of exact-rational and dict
    work, the same kind of work `ppsn` does; it measures how fast this
    machine runs such code at the moment."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 13 + 1, i % 97 + 1)
    table = {}
    for i in range(1500):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
    return perf_counter() - start


def speed() -> float:
    """Current machine speed: median of three reference loops over REFERENCE_S."""
    return statistics.median(reference() for _ in range(3)) / REFERENCE_S


def run_task(workload, task):
    start = perf_counter()
    try:
        output, error = workload.run(task), None
    except Exception as exc:  # a raising task is a failed task, not a crash
        output, error = None, f"{type(exc).__name__}: {exc}"
    return output, error, perf_counter() - start


def run_cycle(workload, k: int, tracer=None):
    """Cycle k of the pool, traced when a tracer is given. The reference
    loop runs before each task and after the last one; a task's speed is
    the mean of the two reference times around it over REFERENCE_S.
    Returns [(pool index, output, error, wall seconds, speed)]."""
    pool, cycle = workload.pool, len(workload.cycle)
    base = (k * cycle) % len(pool)
    if tracer:
        tracer.install()
    try:
        before = reference()
        records = []
        for j in range(cycle):
            spans = dict(tracer.self_s) if tracer else None
            result = run_task(workload, pool[base + j])
            after = reference()
            speed = (before + after) / (2 * REFERENCE_S)
            if tracer:
                tracer.rescale(spans, speed)
            records.append((base + j,) + result + (speed,))
            before = after
    finally:
        if tracer:
            tracer.uninstall()
    return records


def timed_loop(workload, seconds: float, tracer=None):
    """Whole cycles until `seconds` passed and MIN_TASKS ran. With a tracer
    each cycle runs twice, traced and untraced, in alternating order, so
    the overhead is measured on the same tasks close together in time.
    Returns [(traced, records)], one per cycle run."""
    runs = []
    start = perf_counter()
    k = 0
    while True:
        modes = [None] if tracer is None else [tracer, None][:: 1 if k % 2 == 0 else -1]
        for mode in modes:
            runs.append((mode is not None, run_cycle(workload, k, mode)))
        k += 1
        elapsed = perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and k * len(workload.cycle) >= MIN_TASKS):
            return runs


def verify(workload, records):
    """Failure reasons, one per failed record."""
    failures = []
    for index, output, error, *_ in records:
        task = workload.pool[index]
        if error is None:
            try:
                error = workload.check(task, output)
            except Exception as exc:  # a malformed output is a wrong answer
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{task.label}: {error}")
    return failures


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]

    try:
        setup_raw, setup_times = [], []
        for _ in range(SETUP_REPS):
            before = speed()
            start = perf_counter()
            ppsn, workload = set_up(workload_cls, args.seed)
            setup_raw.append(perf_counter() - start)
            setup_times.append(setup_raw[-1] / ((before + speed()) / 2))
        gate_failures = workload.gate()

        tracer = Tracer() if args.trace else None
        runs = timed_loop(workload, args.seconds, tracer)
        failures_by_run = [verify(workload, records) for _, records in runs]
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    cycle = len(workload.cycle)
    failures = [f for group in failures_by_run for f in group]
    records = [r for traced, recs in runs for r in recs if traced == bool(tracer)]
    # seconds at reference speed: each task's time over the machine's speed around it
    walls = {True: [], False: []}
    for traced, recs in runs:
        walls[traced].append(sum(r[3] / r[4] for r in recs))
    correct = sum(len(recs) - len(bad) for (traced, recs), bad in zip(runs, failures_by_run) if not traced)
    latencies = [r[3] / r[4] for r in records]
    raw = [r[3] for r in records]
    if tracer:
        metrics = {name: metric(value, unit) for name, (value, unit) in tracer.metrics(len(records)).items()}
        metrics["trace.tasks_per_s"] = metric(cycle * len(walls[True]) / sum(walls[True]), "1/s")
        metrics["trace.untraced_tasks_per_s"] = metric(cycle * len(walls[False]) / sum(walls[False]), "1/s")
        ratios = [t / u for t, u in zip(walls[True], walls[False])]
        metrics["trace.slowdown"] = metric(statistics.median(ratios), "ratio")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "tasks_per_s": metric(correct / sum(walls[False]), "1/s"),
            "task_ms_p50": metric(statistics.median(latencies) * 1000, "ms"),
            "task_ms_p90": metric(statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    by_class = {}
    for r in records:
        by_class.setdefault(workload.pool[r[0]].label, []).append(r[3] / r[4])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **provenance(ppsn),
        "tasks": len(records),
        "latency_samples": len(latencies),
        "wall_s": {"setup": setup_raw, "loop": sum(r[3] for _, recs in runs for r in recs)},
        "raw": {
            "tasks_per_s": len(raw) / sum(raw),
            "task_ms_p50": statistics.median(raw) * 1000,
            "task_ms_p90": statistics.quantiles(raw, n=10)[8] * 1000,
        },
        "speed_p50": statistics.median(r[4] for r in records),
        "setup_s_runs": setup_times,
        "class_ms_p50": {k: statistics.median(v) * 1000 for k, v in sorted(by_class.items())},
        "gate_failures": gate_failures,
        "failures": failures[:10],
        "trace_missing": tracer.missing if tracer else [],
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not failures and not gate_failures,
        "attempted": sum(len(recs) for _, recs in runs),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
