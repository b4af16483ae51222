"""LP-identity check: record, and check, every simplex solve the test suite makes.

As a pytest plugin it routes `bendercuts.simplex.solve`, under every name a
loaded module imported it as, through a recorder while each test runs, and
counts `_Tableau._pivot` calls in three buckets: a pivot made inside
`_Tableau.__init__` (the free-column start's eliminations) counts for the
start, one made later while the tableau's `art_cost` is 1 for phase one, and
any other for phase two.  In the same buckets it counts the tableau rows each
pivot rewrites: the pivot row, and every other row whose entry in the
entering column the pivot turns from nonzero to zero, which is every row it
eliminates that column from.  A row the pivot leaves as it is, such as a
held row, does not count.  For each test id
it keeps the ordered list of (LP digest, outcome digest, start pivots,
phase-one pivots, phase-two pivots, caller, start rows, phase-one rows,
phase-two rows), the caller being the name of the function that called
`solve`, and it notes which ids are Hypothesis tests; it writes both to a
JSON file:

    python -m pytest -q -p lp_digest --hypothesis-seed=0 --lp-digest-out=before.json

`pyproject.toml` puts `src` and `scripts` on pytest's path, so `-p lp_digest`
finds this file without PYTHONPATH.

Give the path with "=": pytest takes a separate argument that names an
existing file as a test path, which moves its root directory and so changes
every test id.  The Hypothesis example database is switched off so that a replayed failure
cannot change what runs.  Two recordings, say of a commit and of a refactor
that must hand the simplex the same LPs, are compared with

    python scripts/lp_digest.py before.json after.json

which prints the totals of each (solves, pivots, and the pivots of the start
and of each phase; then the rows those pivots rewrote, split the same way)
and then names every test id present in both:
`equal` when its sequences are identical, `outcomes equal` when its LP and
outcome sequences are identical and only pivot counts differ (a new start or
pivot rule that reaches the same optima), `subset` when the after multiset of
(LP, outcome, pivots) is contained in the before one (LPs dropped or moved,
none added or changed), and `differs` otherwise.  Verdicts ignore the
callers and the row counts, so a change that only spares pivots some row
updates reads `equal` while its row totals fall.  Under each verdict other
than `equal` it prints the callers of the id's unmatched solves: those whose
(LP, outcome, pivots) the other side has no unused copy of, as
`  before: name xN, ...` and
`  after: ...`.  So a refactor that moves a solve from one function to another
shows as the two names.  It exits 1 only when some id differs.

A verdict other than `equal` on a Hypothesis test is marked `(Hypothesis)`.
Hypothesis draws some examples from the numeric literals in the loaded
package source, so adding a literal anywhere in `bendercuts` can change what
such a test solves although no LP code changed; their verdicts compare the
examples as much as the LPs.

Every routed solve is also checked by `simplex.check_outcome`, which verifies
the outcome's certificate (primal and dual, Farkas vector, or feasible point
and ray) by exact arithmetic.  A solve whose certificate fails fails its test
id, with the problem text as the report; the terminal summary counts the
problems found.  This check needs no second recording,
so it still holds where a legitimate change of start or pivot order makes the
comparison read `differs`.

Digests hash a text in which every `Fraction` is its hexadecimal numerator
and denominator: `repr` would write decimal digits, which Python refuses past
4300 of them.  So compare only two recordings made by the same version of
this script.  In particular a recording from before the phase split holds one
pivot count per solve, one from before the start bucket two (its phase
two counts the start's pivots), and one from before the row counts three
pivot counts and the caller, where this version also holds three row
counts; none of them can be compared with one made now: record the older
commit again with this script.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import is_hypothesis_test


def _text(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator:x}/{value.denominator:x}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(_text, value)) + ")"
    return repr(value)


def _digest(value) -> str:
    return hashlib.sha256(_text(value).encode("utf-8")).hexdigest()[:16]


def lp_digest(lp) -> str:
    return _digest((lp.sense, lp.objective, lp.rows, lp.lower, lp.upper))


def outcome_digest(out) -> str:
    return _digest((out.status.value, out.primal, out.objective_value, out.dual,
                    out.farkas, out.ray))


class Recorder:
    def __init__(self):
        from bendercuts import simplex
        self.simplex = simplex
        self.solve = simplex.solve
        self.pivot = simplex._Tableau._pivot
        # pivots, then rewritten rows, each at the start, in phase one, in phase two
        self.counts = [0] * 6
        self.starting = False
        self.current: list | None = None
        self.by_test: dict[str, list] = {}
        self.hypothesis: list[str] = []
        self.problems: list[str] = []
        self.problem_total = 0

    def _recording_solve(self, lp):
        before = list(self.counts)
        out = self.solve(lp)
        if self.current is not None:
            made = [now - then for now, then in zip(self.counts, before)]
            self.current.append([lp_digest(lp), outcome_digest(out), *made[:3],
                                 sys._getframe(1).f_code.co_name, *made[3:]])
        problem = self.simplex.check_outcome(lp, out)
        if problem is not None:
            self.problems.append(f"check_outcome: {out.status.value} solve of LP "
                                 f"{lp_digest(lp)}: {problem}")
            self.problem_total += 1
        return out

    def _aliases(self):
        for module in list(sys.modules.values()):
            names = getattr(module, "__dict__", {})
            for name, value in list(names.items()):
                if value is self.solve:
                    yield module, name

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        recorder = self
        tableau_class = self.simplex._Tableau
        original_init, original_pivot = tableau_class.__init__, self.pivot

        def starting_init(tableau, lp):
            recorder.starting = True
            try:
                original_init(tableau, lp)
            finally:
                recorder.starting = False

        def counting_pivot(tableau, r, c):
            bucket = 0 if recorder.starting else 1 + (tableau.art_cost != 1)
            entries = [row[c] for row in tableau.tab]
            original_pivot(tableau, r, c)
            recorder.counts[bucket] += 1
            recorder.counts[3 + bucket] += 1 + sum(
                1 for i, (was, row) in enumerate(zip(entries, tableau.tab))
                if was and not row[c] and i != r)

        patched = list(self._aliases())
        for module, name in patched:
            setattr(module, name, self._recording_solve)
        tableau_class.__init__, tableau_class._pivot = starting_init, counting_pivot
        self.current = []
        try:
            yield
        finally:
            tableau_class.__init__, tableau_class._pivot = original_init, original_pivot
            for module, name in patched:
                setattr(module, name, self.solve)
            if self.current:
                self.by_test[item.nodeid] = self.current
                if is_hypothesis_test(getattr(item, "obj", None)):
                    self.hypothesis.append(item.nodeid)
            self.current = None

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_makereport(self, item, call):
        report = (yield).get_result()
        if self.problems:
            report.outcome = "failed"
            report.longrepr = "\n".join(self.problems)
            self.problems = []

    def pytest_collection_finish(self, session):
        from hypothesis import settings
        settings.register_profile("lp_digest", parent=settings.default, database=None)
        settings.load_profile("lp_digest")

    def pytest_sessionfinish(self, session):
        with open(session.config.getoption("lp_digest_out"), "w", encoding="utf-8") as fh:
            json.dump({"tests": self.by_test, "hypothesis": sorted(self.hypothesis)}, fh,
                      indent=0, sort_keys=True)

    def pytest_terminal_summary(self, terminalreporter, config):
        terminalreporter.write_line(
            f"lp_digest: {_totals(self.by_test)} -> {config.getoption('lp_digest_out')}")
        terminalreporter.write_line(
            f"lp_digest: check_outcome found {self.problem_total} problems")


def pytest_addoption(parser):
    parser.addoption("--lp-digest-out", dest="lp_digest_out", default="lp_digest.json",
                     help="where the lp_digest plugin writes its recording")


def pytest_configure(config):
    config.pluginmanager.register(Recorder(), "lp_digest_recorder")


def _totals(recording: dict) -> str:
    solves = sum(len(seq) for seq in recording.values())
    start, one, two, rows_start, rows_one, rows_two = (
        sum(step[k] for seq in recording.values() for step in seq) for k in (2, 3, 4, 6, 7, 8))
    return (f"{len(recording)} test ids, {solves} solves, {start + one + two} pivots "
            f"({start} at the start, {one} in phase one, {two} in phase two), "
            f"{rows_start + rows_one + rows_two} rows rewritten ({rows_start} at the start, "
            f"{rows_one} in phase one, {rows_two} in phase two)")


def _solves(sequence: list) -> list[tuple]:
    """Each step's (LP, outcome, pivots), without its caller."""
    return [tuple(step[:5]) for step in sequence]


def _verdict(before: list, after: list) -> str:
    before, after = _solves(before), _solves(after)
    if before == after:
        return "equal"
    if [step[:2] for step in before] == [step[:2] for step in after]:
        return "outcomes equal"
    have = Counter(before)
    have.subtract(after)
    return "subset" if min(have.values()) >= 0 else "differs"


def _unmatched_callers(sequence: list, other: list) -> str:
    """The callers of the steps in sequence that other has no unused copy of."""
    spare = Counter(_solves(other))
    callers = Counter()
    for solve, step in zip(_solves(sequence), sequence):
        if spare[solve]:
            spare[solve] -= 1
        else:
            callers[step[5]] += 1
    return ", ".join(f"{name} x{count}" for name, count in sorted(callers.items())) or "none"


def _load(path: str) -> tuple[dict, set]:
    with open(path, encoding="utf-8") as fh:
        recording = json.load(fh)
    return recording["tests"], set(recording["hypothesis"])


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python scripts/lp_digest.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    (before, hyp_before), (after, hyp_after) = _load(argv[0]), _load(argv[1])
    print(f"before: {_totals(before)}")
    print(f"after:  {_totals(after)}")
    for test_id in sorted(set(before) ^ set(after)):
        print(f"only in {'before' if test_id in before else 'after'}: {test_id}")
    hypothesis = hyp_before | hyp_after
    verdicts, marked = Counter(), Counter()
    for test_id in sorted(set(before) & set(after)):
        verdict = _verdict(before[test_id], after[test_id])
        verdicts[verdict] += 1
        if verdict != "equal" and test_id in hypothesis:
            marked[verdict] += 1
            verdict += " (Hypothesis)"
        print(f"{verdict}: {test_id}")
        if verdict != "equal":
            print(f"  before: {_unmatched_callers(before[test_id], after[test_id])}")
            print(f"  after: {_unmatched_callers(after[test_id], before[test_id])}")
    print(", ".join(f"{verdicts[v]} {v}" + (f" ({marked[v]} in Hypothesis tests)" if marked[v] else "")
                    for v in ("equal", "outcomes equal", "subset", "differs")))
    return 1 if verdicts["differs"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
