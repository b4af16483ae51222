import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import lp_digest

from bendercuts.simplex import GE, LinearProgram, LpStatus, solve


def test_records_numbers_past_4300_digits():
    """Python refuses decimal strings past 4300 digits; the digests need none."""
    huge = F(-10 ** 5000, 7)
    lp = LinearProgram("min", (F(1),), (((F(1),), GE, huge),))
    recorder = lp_digest.Recorder()
    recorder.current = []
    out = recorder._recording_solve(lp)
    assert out.status == LpStatus.OPTIMAL and out.primal == (huge,)
    [(lp_hash, out_hash, _, _, _, caller, _, _, _)] = recorder.current
    assert caller == "test_records_numbers_past_4300_digits"
    assert lp_hash == lp_digest.lp_digest(lp) != lp_digest.lp_digest(
        LinearProgram("min", (F(1),), (((F(1),), GE, huge - 1),)))
    assert out_hash == lp_digest.outcome_digest(solve(lp))


def test_differences_in_hypothesis_tests_are_named(tmp_path, capsys):
    step = ["lp", "out", 0, 0, 1, "f", 0, 0, 2]
    before = {"tests": {"t::plain": [step], "t::drawn": [step], "t::same": [step]},
              "hypothesis": ["t::drawn", "t::same"]}
    after = {"tests": {"t::plain": [step, step], "t::drawn": [step, step], "t::same": [step]},
             "hypothesis": ["t::drawn", "t::same"]}
    paths = []
    for name, recording in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(recording), encoding="utf-8")
    assert lp_digest.main([str(p) for p in paths]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "differs: t::plain" in lines
    assert "differs (Hypothesis): t::drawn" in lines
    assert "equal: t::same" in lines
    assert lines[-1] == "1 equal, 0 outcomes equal, 0 subset, 2 differs (1 in Hypothesis tests)"


def test_pivot_counts_alone_read_outcomes_equal(tmp_path, capsys):
    """Same LPs and outcomes in the same order with other pivot counts is the
    split a pivot-rule change makes; a changed outcome or order still differs.
    Row counts alone change no verdict."""
    before = {"t::pivots": [["lp", "out", 0, 2, 1, "f", 0, 4, 2],
                            ["lp2", "out2", 0, 1, 0, "g", 0, 3, 0]],
              "t::outcome": [["lp", "out", 0, 2, 1, "f", 0, 4, 2]],
              "t::order": [["lp", "out", 0, 2, 1, "f", 0, 4, 2],
                           ["lp2", "out2", 0, 1, 0, "g", 0, 3, 0]],
              "t::rows": [["lp", "out", 1, 0, 1, "f", 3, 0, 2]]}
    after = {"t::pivots": [["lp", "out", 1, 0, 1, "f", 2, 0, 2],
                           ["lp2", "out2", 0, 0, 0, "g", 0, 0, 0]],
             "t::outcome": [["lp", "other", 1, 0, 1, "f", 2, 0, 2]],
             "t::order": [["lp2", "out2", 0, 0, 0, "g", 0, 0, 0],
                          ["lp", "out", 1, 0, 1, "f", 2, 0, 2]],
             "t::rows": [["lp", "out", 1, 0, 1, "f", 1, 0, 1]]}
    paths = []
    for name, tests in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"tests": tests, "hypothesis": []}), encoding="utf-8")
    assert lp_digest.main([str(p) for p in paths]) == 1
    lines = capsys.readouterr().out.splitlines()
    # each recording's totals split its pivots, and the rows they rewrote,
    # into the start and each phase
    assert lines[:2] == [
        "before: 4 test ids, 6 solves, 13 pivots (1 at the start, 8 in phase one, "
        "4 in phase two), 29 rows rewritten (3 at the start, 18 in phase one, "
        "8 in phase two)",
        "after:  4 test ids, 6 solves, 8 pivots (4 at the start, 0 in phase one, "
        "4 in phase two), 14 rows rewritten (7 at the start, 0 in phase one, "
        "7 in phase two)"]
    assert "outcomes equal: t::pivots" in lines
    assert "differs: t::outcome" in lines and "differs: t::order" in lines
    assert "equal: t::rows" in lines
    assert lines[-1] == "1 equal, 1 outcomes equal, 0 subset, 2 differs"
    # a solve whose pivots changed has no match on the other side
    at = lines.index("outcomes equal: t::pivots")
    assert lines[at + 1:at + 3] == ["  before: f x1, g x1", "  after: f x1, g x1"]
    # with no id that differs the comparison passes
    paths[1].write_text(json.dumps({"tests": dict(before, **{"t::pivots": after["t::pivots"]}),
                                    "hypothesis": []}), encoding="utf-8")
    assert lp_digest.main([str(p) for p in paths]) == 0


def test_unmatched_solves_name_their_callers(tmp_path, capsys):
    """Verdicts ignore callers; a verdict other than equal lists the callers of
    the solves the other side cannot match, in order and with multiplicity."""
    before = {"t::moved": [["lp", "out", 0, 0, 1, "epi_contains", 0, 0, 1],
                           ["lp2", "out2", 0, 1, 0, "f", 0, 1, 0],
                           ["lp3", "out3", 0, 0, 0, "epi_contains", 0, 0, 0]],
              "t::renamed": [["lp", "out", 0, 0, 1, "f", 0, 0, 1]],
              "t::dropped": [["lp", "out", 0, 0, 1, "f", 0, 0, 1],
                             ["lp", "out", 0, 0, 1, "g", 0, 0, 1]]}
    after = {"t::moved": [["lp4", "out4", 0, 0, 2, "_subproblem", 0, 0, 2],
                          ["lp2", "out2", 0, 1, 0, "f", 0, 1, 0],
                          ["lp5", "out5", 0, 0, 2, "_subproblem", 0, 0, 2]],
             "t::renamed": [["lp", "out", 0, 0, 1, "h", 0, 0, 1]],
             "t::dropped": [["lp", "out", 0, 0, 1, "f", 0, 0, 1]]}
    paths = []
    for name, tests in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"tests": tests, "hypothesis": []}), encoding="utf-8")
    assert lp_digest.main([str(p) for p in paths]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("differs: t::moved")
    assert lines[at + 1:at + 3] == ["  before: epi_contains x2", "  after: _subproblem x2"]
    at = lines.index("subset: t::dropped")
    assert lines[at + 1:at + 3] == ["  before: g x1", "  after: none"]
    assert "equal: t::renamed" in lines
    assert lines[-1] == "1 equal, 0 outcomes equal, 1 subset, 1 differs"


def test_totals_over_shared_ids(tmp_path, capsys):
    """An id that one recording alone has is named, and each side's totals
    are printed again over the shared ids, so an added test reads as no
    extra pivots: here the shared id pivots less after, although the after
    recording as a whole has more pivots."""
    before = {"t::shared": [["lp", "out", 2, 1, 1, "f", 2, 1, 1]],
              "t::dropped": [["lp", "out", 1, 0, 0, "f", 1, 0, 0]]}
    after = {"t::shared": [["lp", "out", 0, 1, 1, "f", 0, 1, 1]],
             "t::added": [["lp2", "out2", 5, 1, 0, "g", 5, 1, 0]]}
    paths = []
    for name, tests in (("before", before), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"tests": tests, "hypothesis": []}), encoding="utf-8")
    assert lp_digest.main([str(p) for p in paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:6] == [
        "before: 2 test ids, 2 solves, 5 pivots (3 at the start, 1 in phase one, "
        "1 in phase two), 5 rows rewritten (3 at the start, 1 in phase one, 1 in phase two)",
        "after:  2 test ids, 2 solves, 8 pivots (5 at the start, 2 in phase one, "
        "1 in phase two), 8 rows rewritten (5 at the start, 2 in phase one, 1 in phase two)",
        "only in after: t::added",
        "only in before: t::dropped",
        "before, shared ids: 1 test ids, 1 solves, 4 pivots (2 at the start, 1 in phase one, "
        "1 in phase two), 4 rows rewritten (2 at the start, 1 in phase one, 1 in phase two)",
        "after, shared ids:  1 test ids, 1 solves, 2 pivots (0 at the start, 1 in phase one, "
        "1 in phase two), 2 rows rewritten (0 at the start, 1 in phase one, 1 in phase two)"]
    assert lines[6:] == ["outcomes equal: t::shared", "  before: f x1", "  after: f x1",
                         "0 equal, 1 outcomes equal, 0 subset, 0 differs"]


CORRUPTED_RUN = textwrap.dedent("""
    from fractions import Fraction as F

    from bendercuts import simplex
    from bendercuts.simplex import LE, LinearProgram

    LP = LinearProgram("max", (F(1), F(1)), (((F(1), F(2)), LE, F(4)), ((F(3), F(1)), LE, F(6))),
                       lower=(F(0), F(0)))

    def test_clean():
        assert simplex.solve(LP).objective_value == F(14, 5)

    def test_equality_row():
        lp = LinearProgram("min", (F(1), F(2)), (((F(1), F(1)), "=", F(2)),), lower=(F(0), F(0)))
        assert simplex.solve(lp).objective_value == F(2)

    def test_flipped_dual_sign(monkeypatch):
        row_duals = simplex._Tableau._row_duals
        monkeypatch.setattr(simplex._Tableau, "_row_duals",
                            lambda t: (-row_duals(t)[0],) + row_duals(t)[1:])
        assert simplex.solve(LP).objective_value == F(14, 5)
""")


def _run_inner(tmp_path, source: str):
    """Run the test module source under the plugin in a subprocess: the run
    and the recording it wrote."""
    (tmp_path / "test_inner.py").write_text(source, encoding="utf-8")
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(repo / "src"), str(repo / "scripts")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "lp_digest", "-p", "no:cacheprovider",
         f"--lp-digest-out={tmp_path / 'rec.json'}", f"--rootdir={tmp_path}", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    return run, json.loads((tmp_path / "rec.json").read_text(encoding="utf-8"))["tests"]


def test_a_corrupted_outcome_fails_its_test_id(tmp_path):
    """A solve whose dual has one flipped sign still returns the right optimum,
    so only the plugin's check_outcome can fail that test."""
    run, tests = _run_inner(tmp_path, CORRUPTED_RUN)
    out = run.stdout
    assert run.returncode == 1, out
    assert "1 failed, 2 passed" in out
    assert "FAILED test_inner.py::test_flipped_dual_sign" in out
    assert "check_outcome: optimal solve of LP" in out
    assert "dual[0] = 2/5 has the wrong sign on a <= row" in out
    assert "lp_digest: check_outcome found 1 problems" in out
    # every row of LP starts feasible at the slack basis, so only phase two
    # pivots; the equality row's artificial starts basic, so phase one pivots
    [[_, _, start, one, two, _, _, _, _]] = tests["test_inner.py::test_clean"]
    assert start == one == 0 and two > 0
    [[_, _, start, one, _, _, _, _, _]] = tests["test_inner.py::test_equality_row"]
    assert start == 0 and one > 0


STARTS_RUN = textwrap.dedent("""
    from fractions import Fraction as F

    from bendercuts import simplex
    from bendercuts.simplex import LE, LinearProgram

    def test_free_column_repairs_a_short_row():
        # x1 + x2 >= 2 with x1 free: x1 is pivoted into the row, which holds it
        lp = LinearProgram("min", (F(1), F(1)), (((F(-1), F(-1)), LE, F(-2)),),
                           lower=(None, F(0)))
        assert simplex.solve(lp).objective_value == F(2)

    def test_free_column_start():
        # x1 free is pivoted into the equality row, which holds it from then on
        lp = LinearProgram("min", (F(1), F(1)), (((F(1), F(1)), "=", F(2)),),
                           lower=(None, F(0)))
        assert simplex.solve(lp).objective_value == F(2)

    def test_held_row_is_not_rewritten():
        # x1 holds the "=" row; x2 >= 1 starts on its artificial, and phase
        # one pivots x2 into it, which leaves the held row's x2 entry as it is
        lp = LinearProgram("min", (F(1), F(2)), (((F(1), F(1)), "=", F(2)),
                                                 ((F(0), F(1)), ">=", F(1))),
                           lower=(None, F(0)))
        assert simplex.solve(lp).objective_value == F(3)

    def test_later_free_pivot_leaves_a_held_row():
        # x1 is pivoted into the second row, which holds it from then on; x2
        # is then pivoted into the first, which leaves the second's x2 entry
        lp = LinearProgram("min", (F(1), F(3), F(1)), (((F(0), F(1), F(-2)), "=", F(1)),
                                                       ((F(1), F(1), F(-1)), "=", F(0))),
                           lower=(None, None, F(0)))
        assert simplex.solve(lp).objective_value == F(2)
""")


def test_start_pivots_count_on_their_own(tmp_path):
    """The pivots made inside _Tableau.__init__ count for the start, in their
    own bucket: one per free column the free-column start places, here one
    for a short "<=" row and one for each equality row; only the row x2 >= 1
    then needs a phase-one pivot.  A pivot's rows are its own and each row
    it eliminates the entering column from, and a held row is not one of
    them: x2's pivot leaves the held row's x2 entry as it is, in phase one
    and at the start alike."""
    run, tests = _run_inner(tmp_path, STARTS_RUN)
    assert run.returncode == 0, run.stdout
    assert "4 passed" in run.stdout
    assert "lp_digest: 4 test ids, 4 solves, 6 pivots (5 at the start, 1 in phase one, " \
        "0 in phase two), 6 rows rewritten (5 at the start, 1 in phase one, " \
        "0 in phase two)" in run.stdout
    # each solve also records the function that called it
    assert tests["test_inner.py::test_free_column_repairs_a_short_row"][0][2:] == [
        1, 0, 0, "test_free_column_repairs_a_short_row", 1, 0, 0]
    assert tests["test_inner.py::test_free_column_start"][0][2:] == [
        1, 0, 0, "test_free_column_start", 1, 0, 0]
    assert tests["test_inner.py::test_held_row_is_not_rewritten"][0][2:] == [
        1, 1, 0, "test_held_row_is_not_rewritten", 1, 1, 0]
    # two start pivots, each of which rewrites its own row alone
    assert tests["test_inner.py::test_later_free_pivot_leaves_a_held_row"][0][2:] == [
        2, 0, 0, "test_later_free_pivot_leaves_a_held_row", 2, 0, 0]
