"""Outside-in layer trace: spans recorded around the package's layer functions.

Nothing inside the package is changed. `Tracer.installed()` replaces each
traced function by a wrapper on its defining module and on every other
`bendercuts` module that imported it under any name (`separation.solve`,
`benders.solve_lp`, `instance_io._solve_master`, ...), and restores the
originals on exit. Each call becomes a span (id, parent id, op id, group, start,
end) kept in memory; a group's self time is the time its spans cover minus
the time their child spans cover. Simplex pivots are counted by wrapping the
tableau's pivot method, without a span.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from bendercuts import simplex

from workloads import bits

# (module, function, group): every group below is one layer boundary.
TRACED = (
    ("simplex", "solve", "simplex"),
    ("benders", "solve", "benders.solve"),
    ("benders", "_solve_master", "benders.master"),
    ("benders", "subproblem_check", "benders.subproblem_check"),
    ("separation", "separate", "separation.separate"),
    ("separation", "_push_to_vertex", "separation.push"),
    ("model", "support_function", "model.support_function"),
    ("model", "subproblem_value", "model.subproblem_value"),
    ("model", "epi_dimension", "model.epi_dimension"),
    ("model", "epi_face_dimension", "model.epi_dimension"),
    ("model", "_affine_dimension", "model.epi_dimension"),
    ("cglp", "strategy_weights", "cglp"),
    ("cglp", "mis_objective", "cglp"),
    ("cglp", "lift_objective", "cglp"),
    ("cglp", "build_cglp_relaxed_subproblem", "cglp"),
    ("linalg", "rref", "linalg"),
    ("linalg", "matrix_rank", "linalg"),
    ("linalg", "affine_rank", "linalg"),
    ("linalg", "nullspace_basis", "linalg"),
    ("linalg", "solve_square", "linalg"),
    ("verify", "face_report", "verify.face_report"),
    ("verify", "pareto_verdict", "verify.pareto_verdict"),
    ("verify", "is_mis_certificate", "verify.is_mis_certificate"),
    ("instance_io", "parse_instance", "instance_io.parse"),
    ("instance_io", "trace_to_json", "instance_io.trace"),
    ("instance_io", "replay_trace", "instance_io.replay"),
)


def _outcome_bits(out) -> int:
    values = [out.objective_value] if out.objective_value is not None else []
    for vec in (out.primal, out.dual, out.farkas, out.ray):
        if vec is not None:
            values.extend(vec)
    return max((bits(v) for v in values), default=0)


class Tracer:
    def __init__(self):
        self.reset()
        self._patches = self._plan()

    def reset(self):
        self.spans: list[tuple] = []  # (id, parent, op, group, start, end)
        self.counts: Counter = Counter()
        self.bits_max = 0
        self.op_id = 0
        self._stack: list[int] = []
        self._next_id = 1

    # -- hooks that read a layer's result -------------------------------------

    def _after(self, group: str, result):
        if group == "simplex":
            self.counts["simplex.status." + result.status.value] += 1
            self.bits_max = max(self.bits_max, _outcome_bits(result))
        elif group == "benders.solve":
            self.counts["benders.iterations"] += len(result.trace)
            self.counts["benders.fallbacks"] += sum(rec.fallback for rec in result.trace)
        elif group == "instance_io.trace":
            self.counts["instance_io.trace_bytes"] += len(result.encode("utf-8"))

    def _wrap(self, group: str, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self.counts[group + ".calls"] += 1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, self.op_id, group, start, end))
            self._after(group, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _count_pivots(self, pivot):
        def counted(tableau, r, c):
            self.counts["simplex.pivots"] += 1
            return pivot(tableau, r, c)
        return counted

    def _plan(self) -> list:
        """(owner, attribute, original, replacement) for every name to route."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bendercuts" or name.startswith("bendercuts."))]
        plan = []
        for module_name, attr, group in TRACED:
            original = getattr(sys.modules["bendercuts." + module_name], attr)
            wrapper = self._wrap(group, original)
            for module in modules:
                for name, value in vars(module).items():
                    if value is original:
                        plan.append((module, name, original, wrapper))
        pivot = simplex._Tableau._pivot
        plan.append((simplex._Tableau, "_pivot", pivot, self._count_pivots(pivot)))
        return plan

    @contextmanager
    def installed(self):
        """Route every traced function, under every imported name, through a span."""
        for owner, name, _, replacement in self._patches:
            setattr(owner, name, replacement)
        try:
            yield self
        finally:
            for owner, name, original, _ in self._patches:
                setattr(owner, name, original)

    # -- readouts -------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per group: span time minus the time of its child spans."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for span_id, _, _, group, start, end in self.spans:
            out[group] += end - start - child[span_id]
        return out

    def total_times(self) -> dict:
        """Seconds per group, child spans included, outermost spans only per group."""
        groups = {span_id: group for span_id, _, _, group, _, _ in self.spans}
        out: dict = defaultdict(float)
        for _, parent, _, group, start, end in self.spans:
            if groups.get(parent) != group:
                out[group] += end - start
        return out

    def share_under(self, child_group: str, parent_group: str) -> float:
        """Time of child_group spans called directly from parent_group, over parent time."""
        groups = {span_id: group for span_id, _, _, group, _, _ in self.spans}
        inner = sum(end - start for _, parent, _, group, start, end in self.spans
                    if group == child_group and groups.get(parent) == parent_group)
        outer = self.total_times().get(parent_group, 0.0)
        return inner / outer if outer else 0.0
