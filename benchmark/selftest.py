"""Checks of the benchmark itself: seeded inputs and traced counts repeat exactly.

    python3 benchmark/selftest.py            (or: python3 -m pytest benchmark/selftest.py)

Run from the root of a checkout. Pools of four keep the whole file under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

from workloads import WORKLOADS  # noqa: E402

DIGESTS = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import gen, workloads
from bendercuts import instance_io
for shape, points in ((workloads.POLY_SHAPE, 0),
                      (workloads.FINITE_SHAPE, workloads.FINITE_POINTS),
                      (workloads.CERTIFY_SHAPE, 0)):
    for doc in gen.instance_documents(7, 5, *shape, finite_points=points):
        print(instance_io.instance_digest(workloads.parse(doc)))
"""

COUNTS = ("simplex.solves", "simplex.pivots", "simplex.bits.max", "simplex.status.infeasible",
          "simplex.status.unbounded", "benders.iterations", "benders.master.calls",
          "benders.fallbacks", "separation.separate.calls", "separation.push.calls",
          "model.support_function.calls", "linalg.calls", "instance_io.trace_bytes")


BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def names(kind: str) -> set:
    return {metric["name"] for metric in BENCHMARK[kind]}


class SeededInputs(unittest.TestCase):
    def test_one_seed_gives_identical_digests_in_every_process(self):
        script = DIGESTS.format(src=str(run.SRC), here=str(HERE))
        outputs = [subprocess.run([sys.executable, "-c", script], check=True, text=True,
                                  capture_output=True, env={"PYTHONHASHSEED": str(h)}).stdout
                   for h in (1, 2)]
        self.assertEqual(len(outputs[0].split()), 15)
        self.assertEqual(outputs[0], outputs[1])


class TracedCounts(unittest.TestCase):
    def test_two_traced_runs_on_one_seed_count_the_same(self):
        for name, workload in WORKLOADS.items():
            small = dataclasses.replace(workload, pool_size=4)
            runs = []
            for _ in range(2):
                metrics, attempted, failed, problems, _, checked = run.measure_traced(small, 3, 0)
                self.assertEqual(failed, 0, problems)
                self.assertEqual(set(metrics), names("per_layer"))
                runs.append(({k: metrics[k][0] for k in COUNTS}, checked.iterations,
                             checked.cut_bits))
            with self.subTest(workload=name):
                self.assertEqual(runs[0], runs[1])
                self.assertGreater(runs[0][0]["simplex.solves"], 0)
                self.assertGreater(runs[0][1], 0)


class EndToEnd(unittest.TestCase):
    def test_untraced_run_reports_every_end_to_end_metric(self):
        small = dataclasses.replace(WORKLOADS["certify"], pool_size=4)
        metrics, attempted, failed, problems, _ = run.measure(small, 3, 0)
        self.assertEqual(failed, 0, problems)
        self.assertEqual(attempted, run.MIN_PASSES * 4)
        self.assertEqual(set(metrics), names("end_to_end"))
        self.assertTrue(all(value > 0 for value, _ in metrics.values()))
        self.assertEqual(metrics["iterations"][0], 4)


if __name__ == "__main__":
    unittest.main()
