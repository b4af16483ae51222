import json
from fractions import Fraction as F

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
    [(lp_hash, out_hash, _)] = recorder.current
    assert lp_hash == lp_digest.lp_digest(lp) != lp_digest.lp_digest(
        LinearProgram("min", (F(1),), (((F(1),), GE, huge - 1),)))
    assert out_hash == lp_digest.outcome_digest(solve(lp))


def test_differences_in_hypothesis_tests_are_named(tmp_path, capsys):
    step = ["lp", "out", 1]
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
    assert lines[-1] == "1 equal, 0 subset, 2 differs (1 in Hypothesis tests)"
