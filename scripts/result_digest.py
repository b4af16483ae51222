"""One digest over the observable results of a seeded sweep of solves.

Draws `--count` seeded `random_instance`s per master-domain kind (odd seeds
get nonnegative c and d, so their masters stay bounded; even seeds keep the
raw data and so reach the ill-posed exits more often), runs six solver
configs on each, and hashes, per run:

* `repr` of the `SolveResult`, trace included;
* `repr` of `face_report` and `pareto_verdict` for its first two cuts;
* `replay_trace` of its `trace_document`.

It prints the sha256 prefix of all of that, then a tally of statuses, cuts,
fallback records, replay problems, `optimal` values that differ from
`undecomposed_value`, and cuts on which `support_function` meeting the
cut's right side disagrees with `face_report` calling the cut supporting,
then the `ill_posed` runs by reason (all outside the digest), then one line per config: its status tally, the mean and largest
iteration count of its optimal runs, and its fallback records, and last one
line per config that tallies the `face_report` class and the
`pareto_verdict` kind of every cut its runs made outside fallback rounds,
each followed, when its runs fell back, by a `+fb` line that tallies the
cuts of its fallback rounds (which run `MisOnes`). Two commits that print the
same first line returned the same results; where an LP change may pick
another optimal vertex, so that a Pareto witness moves and the digest with
it, equal tally lines show that no status, class or kind moved:

    PYTHONPATH=src python scripts/result_digest.py --count 100
"""

import argparse
import hashlib
import random
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction as F

from bendercuts.benders import FixedCore, SolverConfig, SolveStatus, TrackIncumbent, solve
from bendercuts.cglp import Custom, Directional, MisOnes
from bendercuts.errors import ToolkitError
from bendercuts.instance_io import replay_trace, trace_document
from bendercuts.model import support_function, undecomposed_value
from bendercuts.randgen import interior_epi_point, random_instance
from bendercuts.verify import FaceClass, ParetoKind, face_report, pareto_verdict


def configs_for(rng, inst):
    """(name, config) pairs; FixedCore only when a point above z(x) turns up."""
    up = Directional((F(0),) * inst.n, F(1))
    configs = [
        ("mis", SolverConfig(strategy=MisOnes())),
        ("directional", SolverConfig(strategy=up)),
        ("track-1/2", SolverConfig(strategy=up, core_point_mode=TrackIncumbent(F(1, 2)))),
        ("track-1/3", SolverConfig(strategy=up, core_point_mode=TrackIncumbent(F(1, 3)))),
        ("custom", SolverConfig(strategy=Custom(
            tuple(F(-rng.randint(0, 1)) for _ in range(inst.m)), F(-1)))),
    ]
    core = interior_epi_point(rng, inst)
    if core is not None:
        configs.append(("fixed-core", SolverConfig(strategy=up, core_point_mode=FixedCore(core))))
    return configs


def judged(fn, *args):
    """fn's result, or None when it raised a ToolkitError, and its text: the
    result's repr or the error's name and message."""
    try:
        value = fn(*args)
    except ToolkitError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return value, repr(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100,
                        help="draws per domain kind, seeds 0 to count - 1")
    args = parser.parse_args()

    lines = []
    tally, ill_posed = Counter(), Counter()
    statuses, iterations, fallbacks = defaultdict(Counter), defaultdict(list), Counter()
    kinds = defaultdict(Counter)
    for finite in (False, True):
        for seed in range(args.count):
            rng = random.Random(seed)
            inst = random_instance(rng, finite=finite)
            if seed % 2:
                inst = replace(inst, c=tuple(abs(v) for v in inst.c),
                               d=tuple(abs(v) for v in inst.d))
            for name, config in configs_for(rng, inst):
                lines.append(f"{'finite' if finite else 'box'} {seed} {name}")
                result = solve(inst, config)
                lines.append(repr(result))
                cut_records = [r for r in result.trace if r.cut is not None]
                for i, record in enumerate(cut_records):
                    face, face_text = judged(face_report, inst, record.cut)
                    verdict, verdict_text = judged(pareto_verdict, inst, record.cut)
                    cut = record.cut
                    h, _ = judged(support_function, inst, cut.coef_x, cut.coef_eta)
                    touches = face is not None and face.classification != FaceClass.NON_SUPPORTING
                    tally["supporting_mismatches"] += (h == cut.rhs) != touches
                    if i < 2:
                        lines += [face_text, verdict_text]
                    row = kinds[f"{name} +fb" if record.fallback else name]
                    row[face.classification.value if face else "face_error"] += 1
                    row[verdict.kind.value if verdict else "pareto_error"] += 1
                problems = replay_trace(inst, trace_document(inst, config, result))
                lines.append(repr(problems))
                tally[f"status.{result.status.value}"] += 1
                tally["runs"] += 1
                tally["cuts"] += len(cut_records)
                tally["fallback_records"] += sum(r.fallback for r in result.trace)
                tally["replay_problems"] += len(problems)
                statuses[name][result.status.value] += 1
                if result.status == SolveStatus.ILL_POSED:
                    ill_posed[result.reason] += 1
                if result.status == SolveStatus.OPTIMAL:
                    iterations[name].append(len(result.trace))
                    tally["optimal_value_mismatches"] += result.value != undecomposed_value(inst)
                fallbacks[name] += sum(r.fallback for r in result.trace)

    text = "\n".join(lines) + "\n"
    print(f"digest {hashlib.sha256(text.encode()).hexdigest()[:16]}")
    for key in sorted(tally):
        print(f"{key} {tally[key]}")
    for reason, count in ill_posed.most_common():
        print(f"ill_posed {count}: {reason}")
    for name, counts in statuses.items():
        runs = iterations[name]
        mean = f"{sum(runs) / len(runs):.2f}" if runs else "-"
        print(f"config {name}: {' '.join(f'{k}:{v}' for k, v in sorted(counts.items()))},"
              f" iterations of optimal runs mean {mean} max {max(runs, default='-')},"
              f" fallback_records {fallbacks[name]}")
    keys = ([c.value for c in FaceClass] + ["face_error"]
            + [k.value for k in ParetoKind] + ["pareto_error"])
    for name in statuses:
        for row in (name, f"{name} +fb"):
            if row in kinds:
                print(f"cuts {row}: {' '.join(f'{key}:{kinds[row][key]}' for key in keys)}")


if __name__ == "__main__":
    main()
