"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload solve-poly-mis --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the package is imported from the
checkout's `src` and nowhere else. One process, one closed-loop caller. With
--trace 0 the last line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced run (see README.md beside this file).
End-to-end timings are in reference seconds (see speed.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from speed import REFERENCE_S, Speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 25
# The speed kernel is sampled once after each op, SETUP_SPEED_SAMPLES times
# before the first and after each timed set-up build, and once inside a build
# after the draw that brings its time since the last sample to
# SETUP_SPEED_EVERY_S. Each op, and each stretch of build time, is scaled by
# the SPEED_REACH samples before and after the one that follows it.
SETUP_SPEED_SAMPLES = 10
SETUP_SPEED_EVERY_S = 0.05
SPEED_REACH = 10
# Every pool item runs at least this often, so that each has an op time.
MIN_PASSES = 1
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def load_package():
    """Import bendercuts from the checkout's src; exit 2 when it is not there."""
    package = SRC / "bendercuts"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no package source at {package}; run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bendercuts
    if Path(bendercuts.__file__).resolve().parent != package.resolve():
        print(f"benchmark: imported bendercuts from {bendercuts.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)


@dataclass
class Ops:
    """Timed ops of one closed loop: pool index and outcome (or ToolkitError) per op."""

    wall: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    elapsed: float = 0.0
    speed_marks: list = field(default_factory=list)  # the kernel sample after each op


def time_op(workload, items, index: int, ops: Ops):
    """Run one op on items[index] and record its wall and CPU time and outcome."""
    from bendercuts.errors import ToolkitError
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        outcome = workload.op(items[index])
    except ToolkitError as exc:
        outcome = exc
    ops.cpu.append(time.process_time() - c0)
    ops.wall.append(time.perf_counter() - w0)
    ops.outcomes.append((index, outcome))


def run_ops(workload, items, stop, speed: Speed) -> Ops:
    """Run ops over the pool in order, wrapping around, until
    stop(op count, seconds since the first op) is true; sample the speed
    kernel once after each op, outside its timing."""
    ops = Ops()
    gc.collect()
    start = time.perf_counter()
    while not stop(len(ops.outcomes), time.perf_counter() - start):
        time_op(workload, items, len(ops.outcomes) % len(items), ops)
        ops.speed_marks.append(speed.sample())
    ops.elapsed = time.perf_counter() - start
    return ops


@dataclass
class Checked:
    failed: int
    problems: list
    iterations: int  # per pass over the pool
    cut_bits: int


def check_ops(workload, items, outcomes) -> Checked:
    """Exact checks of every op, outside any timed region."""
    from bendercuts.errors import ToolkitError
    reference: dict = {}
    first: dict = {}
    failed = 0
    problems = []
    iterations = 0
    cut_bits = 0
    for n, (index, outcome) in enumerate(outcomes):
        item = items[index]
        if isinstance(outcome, ToolkitError):
            bad = [f"raised {type(outcome).__name__}: {outcome}"]
        else:
            bad = workload.check(item, outcome, reference)
            its = workload.iterations(item, outcome)
            if n < len(items):
                iterations += its
            if first.setdefault(index, its) != its:
                bad.append(f"iterations {its} != {first[index]} on an earlier pass")
            cut_bits = max(cut_bits, workload.bits(item, outcome))
        if bad:
            failed += 1
            problems.extend(f"pool[{index}]: {p}" for p in bad)
    return Checked(failed, problems, iterations, cut_bits)


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest ladder percentile that
    leaves at least TAIL_MIN_BEYOND samples above it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n // 2


def item_medians(items, outcomes, seconds) -> list:
    """Each pool item's median op time over its repeats in the run."""
    times: list = [[] for _ in items]
    for (index, _), t in zip(outcomes, seconds):
        times[index].append(t)
    return [statistics.median(t) for t in times]


def timed_build(workload, seed: int, speed: Speed):
    """One pool build, timed draw by draw with the speed kernel sampled
    between draws; the pool and its build time, raw and in reference seconds."""
    from workloads import Pool
    pool = Pool([], [])
    stretches = []  # (build seconds, the kernel sample that follows them)
    seconds = 0.0
    draws = workload.build(seed, workload.pool_size)
    gc.collect()
    while True:
        start = time.perf_counter()
        draw = next(draws, None)
        seconds += time.perf_counter() - start
        if draw is None:
            break
        pool.items += draw.items
        pool.problems += draw.problems
        if seconds >= SETUP_SPEED_EVERY_S:
            stretches.append((seconds, speed.sample()))
            seconds = 0.0
    stretches.append((seconds, speed.sample(SETUP_SPEED_SAMPLES)))
    return (pool, sum(s for s, _ in stretches),
            sum(s * speed.factor(mark, SPEED_REACH) for s, mark in stretches))


def timed_setup(workload, seed: int, speed: Speed):
    """Build the pool repeatedly; the last pool, and the median build time
    raw and in reference seconds.

    An untimed small build first warms the code paths. Then at least
    SETUP_REPEATS timed builds run, and more while they sum to under
    SETUP_MIN_S, so that a set-up of a few milliseconds is timed many times.
    Every repeat must give the same instances, by digest.
    """
    from bendercuts import instance_io
    workload.pool(seed, 2)
    speed.sample(SETUP_SPEED_SAMPLES)
    times = []
    scaled = []
    digests = None
    problems = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        pool, raw_s, reference_s = timed_build(workload, seed, speed)
        times.append(raw_s)
        scaled.append(reference_s)
        now = [instance_io.instance_digest(item.instance) for item in pool.items]
        if digests is not None and now != digests:
            problems.append("set-up: a repeat gave different instances")
        digests = now
    return pool, statistics.median(times), statistics.median(scaled), problems + pool.problems


def measure(workload, seed: int, seconds: float):
    """Untraced run: end-to-end metrics, timings in reference seconds."""
    speed = Speed()
    pool, raw_setup_s, setup_s, setup_problems = timed_setup(workload, seed, speed)
    items = pool.items
    min_ops = MIN_PASSES * len(items)
    ops = run_ops(workload, items, lambda count, elapsed: count >= min_ops and elapsed >= seconds,
                  speed)
    checked = check_ops(workload, items, ops.outcomes)
    factors = [speed.factor(mark, SPEED_REACH) for mark in ops.speed_marks]
    wall = [t * f for t, f in zip(ops.wall, factors)]
    per_item = item_medians(items, ops.outcomes, wall)
    pct, tail_value, beyond = tail(per_item)
    raw_per_item = item_medians(items, ops.outcomes, ops.wall)
    raw = {
        "op_s.p50": statistics.median(raw_per_item),
        "op_s.tail": tail(raw_per_item)[1],
        "op_cpu_s.p50": statistics.median(item_medians(items, ops.outcomes, ops.cpu)),
        "ops_per_s": len(ops.outcomes) / sum(ops.wall),
        "setup_s": raw_setup_s,
    }
    metrics = {
        "op_s.p50": (statistics.median(per_item), "s"),
        "op_s.tail": (tail_value, "s"),
        "op_cpu_s.p50": (statistics.median(item_medians(
            items, ops.outcomes, [t * f for t, f in zip(ops.cpu, factors)])), "s"),
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "iterations": (checked.iterations, "count"),
        "cut_bits.max": (checked.cut_bits, "bits"),
    }
    notes = [f"ops={len(ops.outcomes)} pool={len(items)} passes={len(ops.outcomes) / len(items):.2f}"
             f" elapsed_s={ops.elapsed:.3f}",
             f"op_s.tail is p{pct:g} of the {len(items)} pool items' median op times:"
             f" {beyond} items beyond it",
             f"speed factor={speed.run_factor():.4f} (run median; ops"
             f" {min(factors):.4f}..{max(factors):.4f}; {len(speed.samples)} kernel samples,"
             f" reference {REFERENCE_S * 1e3:g} ms)",
             "raw " + " ".join(f"{name}={value}" for name, value in raw.items())]
    attempted = len(ops.outcomes) + len(setup_problems)
    failed = checked.failed + len(setup_problems)
    return metrics, attempted, failed, setup_problems + checked.problems, notes


def measure_traced(workload, seed: int, seconds: float):
    """Traced run: per-layer metrics and the tracing overhead.

    Passes over the whole pool repeat until `seconds` have passed (at least
    one). Each pool item runs untraced and then traced, so both medians come
    from the same items at the same time and their difference is the tracing
    overhead. Counts come from the first pass, so they are per pass and repeat
    exactly; times are per traced op.
    """
    from layertrace import Tracer
    tracer = Tracer()
    with tracer.installed():
        pool = workload.pool(seed, workload.pool_size)
    parse_s = tracer.self_times()["instance_io.parse"]
    tracer.reset()
    items = pool.items
    plain, traced = Ops(), Ops()
    counts = None
    start = time.perf_counter()
    while counts is None or time.perf_counter() - start < seconds:
        gc.collect()
        for index in range(len(items)):
            time_op(workload, items, index, plain)
            tracer.op_id += 1
            with tracer.installed():
                time_op(workload, items, index, traced)
        if counts is None:
            counts = Counter(tracer.counts)
            bits_max = tracer.bits_max
    checked = check_ops(workload, items, plain.outcomes + traced.outcomes)
    n = len(traced.outcomes)
    self_s = tracer.self_times()
    total_s = tracer.total_times()
    solves = counts["simplex.calls"]
    separates = counts["separation.separate.calls"]
    p50_traced = statistics.median(traced.wall)
    p50_plain = statistics.median(plain.wall)
    metrics = {
        "simplex.solves": (solves, "count"),
        "simplex.pivots": (counts["simplex.pivots"], "count"),
        "simplex.pivots_per_solve": (counts["simplex.pivots"] / solves if solves else 0.0, "ratio"),
        "simplex.self_s": (self_s["simplex"] / n, "s"),
        "simplex.bits.max": (bits_max, "bits"),
        "simplex.status.infeasible": (counts["simplex.status.infeasible"], "count"),
        "simplex.status.unbounded": (counts["simplex.status.unbounded"], "count"),
        "benders.iterations": (counts["benders.iterations"], "count"),
        "benders.master.calls": (counts["benders.master.calls"], "count"),
        "benders.master.self_s": (self_s["benders.master"] / n, "s"),
        "benders.subproblem_check.self_s": (self_s["benders.subproblem_check"] / n, "s"),
        "benders.fallbacks": (counts["benders.fallbacks"], "count"),
        "separation.separate.calls": (separates, "count"),
        "separation.separate.self_s": (self_s["separation.separate"] / n, "s"),
        "separation.push.calls": (counts["separation.push.calls"], "count"),
        "separation.push.per_separate": (
            counts["separation.push.calls"] / separates if separates else 0.0, "ratio"),
        "separation.support_share": (
            tracer.share_under("model.support_function", "separation.separate"), "ratio"),
        "model.support_function.calls": (counts["model.support_function.calls"], "count"),
        "model.support_function.self_s": (self_s["model.support_function"] / n, "s"),
        "model.subproblem_value.self_s": (self_s["model.subproblem_value"] / n, "s"),
        "model.epi_dimension.self_s": (self_s["model.epi_dimension"] / n, "s"),
        "cglp.self_s": (self_s["cglp"] / n, "s"),
        "linalg.calls": (counts["linalg.calls"], "count"),
        "linalg.self_s": (self_s["linalg"] / n, "s"),
        "verify.face_report.self_s": (self_s["verify.face_report"] / n, "s"),
        "verify.pareto_verdict.self_s": (self_s["verify.pareto_verdict"] / n, "s"),
        "verify.is_mis_certificate.self_s": (self_s["verify.is_mis_certificate"] / n, "s"),
        "instance_io.parse_s": (parse_s, "s"),
        "instance_io.trace_s": (total_s["instance_io.trace"] / n, "s"),
        "instance_io.replay_s": (total_s["instance_io.replay"] / n, "s"),
        "instance_io.trace_bytes": (counts["instance_io.trace_bytes"], "B"),
        "trace.op_s.p50": (p50_traced, "s"),
        "trace.overhead_s": (p50_traced - p50_plain, "s"),
    }
    notes = [f"traced ops={n} untraced ops={len(plain.outcomes)} pool={len(items)}"
             f" spans={len(tracer.spans)}",
             f"iterations={checked.iterations} cut_bits.max={checked.cut_bits}"
             f" untraced op_s.p50={p50_plain}"]
    attempted = n + len(plain.outcomes) + len(pool.problems)
    failed = checked.failed + len(pool.problems)
    problems = pool.problems + checked.problems
    return metrics, attempted, failed, problems, notes, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, attempted, failed, problems, notes, _ = measure_traced(
            workload, args.seed, args.seconds)
    else:
        metrics, attempted, failed, problems, notes = measure(workload, args.seed, args.seconds)
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
