"""LP-identity check: record every simplex solve the test suite makes.

As a pytest plugin it routes `bendercuts.simplex.solve`, under every name a
loaded module imported it as, through a recorder while each test runs, and
counts `_Tableau._pivot` calls.  For each test id it keeps the ordered list of
(LP digest, outcome digest, pivots) and writes them to a JSON file:

    PYTHONPATH=src:scripts python -m pytest -q -p lp_digest --hypothesis-seed=0 \
        --lp-digest-out=before.json

Give the path with "=": pytest takes a separate argument that names an
existing file as a test path, which moves its root directory and so changes
every test id.  The Hypothesis example database is switched off so that a replayed failure
cannot change what runs.  Two recordings, say of a commit and of a refactor
that must hand the simplex the same LPs, are compared with

    python scripts/lp_digest.py before.json after.json

which prints the totals of each and then names every test id present in both:
`equal` when its sequences are identical, `subset` when the after multiset of
(LP, outcome, pivots) is contained in the before one (LPs dropped or moved,
none added or changed), and `differs` otherwise.  It exits 1 only when some id
differs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter

import pytest


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


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
        self.pivots = 0
        self.current: list | None = None
        self.by_test: dict[str, list] = {}

    def _recording_solve(self, lp):
        before = self.pivots
        out = self.solve(lp)
        if self.current is not None:
            self.current.append([lp_digest(lp), outcome_digest(out), self.pivots - before])
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
        original_pivot = self.pivot

        def counting_pivot(tableau, r, c):
            recorder.pivots += 1
            return original_pivot(tableau, r, c)

        patched = list(self._aliases())
        for module, name in patched:
            setattr(module, name, self._recording_solve)
        self.simplex._Tableau._pivot = counting_pivot
        self.current = []
        try:
            yield
        finally:
            self.simplex._Tableau._pivot = original_pivot
            for module, name in patched:
                setattr(module, name, self.solve)
            if self.current:
                self.by_test[item.nodeid] = self.current
            self.current = None

    def pytest_collection_finish(self, session):
        from hypothesis import settings
        settings.register_profile("lp_digest", parent=settings.default, database=None)
        settings.load_profile("lp_digest")

    def pytest_sessionfinish(self, session):
        with open(session.config.getoption("lp_digest_out"), "w", encoding="utf-8") as fh:
            json.dump(self.by_test, fh, indent=0, sort_keys=True)

    def pytest_terminal_summary(self, terminalreporter, config):
        terminalreporter.write_line(
            f"lp_digest: {_totals(self.by_test)} -> {config.getoption('lp_digest_out')}")


def pytest_addoption(parser):
    parser.addoption("--lp-digest-out", dest="lp_digest_out", default="lp_digest.json",
                     help="where the lp_digest plugin writes its recording")


def pytest_configure(config):
    config.pluginmanager.register(Recorder(), "lp_digest_recorder")


def _totals(recording: dict) -> str:
    solves = sum(len(seq) for seq in recording.values())
    pivots = sum(p for seq in recording.values() for _, _, p in seq)
    return f"{len(recording)} test ids, {solves} solves, {pivots} pivots"


def _verdict(before: list, after: list) -> str:
    if before == after:
        return "equal"
    have = Counter(map(tuple, before))
    have.subtract(map(tuple, after))
    return "subset" if min(have.values()) >= 0 else "differs"


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python scripts/lp_digest.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    before, after = _load(argv[0]), _load(argv[1])
    print(f"before: {_totals(before)}")
    print(f"after:  {_totals(after)}")
    for test_id in sorted(set(before) ^ set(after)):
        print(f"only in {'before' if test_id in before else 'after'}: {test_id}")
    verdicts = Counter()
    for test_id in sorted(set(before) & set(after)):
        verdict = _verdict(before[test_id], after[test_id])
        verdicts[verdict] += 1
        print(f"{verdict}: {test_id}")
    print(", ".join(f"{verdicts[v]} {v}" for v in ("equal", "subset", "differs")))
    return 1 if verdicts["differs"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
