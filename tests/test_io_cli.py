import copy
import functools
import hashlib
import importlib.util
import json
import os
import random
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bendercuts.benders import (FixedCore, SolveResult, SolveStatus, SolverConfig,
                                TrackIncumbent, solve, subproblem_check)
from bendercuts.cglp import Custom, Directional, MisOnes, strategy_weights
from bendercuts.cli import _rational, format_cut, run
from bendercuts.errors import (DimensionError, ParseError, PreconditionViolated, TooLarge,
                               ToolkitError)
from bendercuts.instance_io import (MAX_DIGITS, instance_digest, instance_document,
                                    load_instance, parse_instance, replay_trace,
                                    serialize_instance, trace_document, trace_to_json)
from bendercuts.model import (EpiPoint, FiniteDomain, Instance, PolyhedralDomain,
                              undecomposed_value)
from bendercuts.linalg import solve_square
from bendercuts.randgen import interior_epi_point, random_instance, scale_rows
from bendercuts.separation import Certificate, Cut, certificate_for_cut, certificate_to_cut
from bendercuts.simplex import LinearProgram
from bendercuts.verify import dominates, is_mis_certificate

from conftest import EX1_KW, P2_CUT, P3_CUT, empty_epigraph

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
README = Path(__file__).resolve().parent.parent / "README.md"
EX1_PATH = INSTANCES / "ex1.json"


def test_round_trip(ex1, ex1_finite):
    for inst in (ex1, ex1_finite):
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert instance_digest(again) == instance_digest(inst)


numbers = st.fractions(min_value=-10 ** 12, max_value=10 ** 12, max_denominator=10 ** 6)


@st.composite
def instances(draw):
    n, k, m = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(rows, cols):
        return tuple(tuple(draw(st.lists(numbers, min_size=cols, max_size=cols)))
                     for _ in range(rows))

    if draw(st.booleans()):
        rows = draw(st.integers(0, 3))
        master = PolyhedralDomain(G=matrix(rows, n), g=matrix(1, rows)[0])
    else:
        master = FiniteDomain(points=matrix(draw(st.integers(1, 3)), n))
    return Instance(n=n, k=k, m=m, c=matrix(1, n)[0], d=matrix(1, k)[0], H=matrix(m, n),
                    A=matrix(m, k), b=matrix(1, m)[0], master_domain=master,
                    eta_lower_bound=draw(numbers))


@given(instances())
def test_instance_round_trip(instance):
    again = parse_instance(serialize_instance(instance))
    assert again == instance
    assert instance_digest(again) == instance_digest(instance)


@given(st.integers(0, 10 ** 6), st.booleans())
def test_traces_of_random_draws_replay_clean(seed, finite):
    """Every trace that `solve` writes replays as [], whatever status the run
    ends in, and every optimum equals the undecomposed one, under each config
    `scripts/result_digest.py` runs: MIS, an upward Directional,
    TrackIncumbent(1/2), a {-1, 0}-weighted Custom and FixedCore."""
    rng = random.Random(seed)
    instance = random_instance(rng, finite=finite)
    up = Directional((F(0),) * instance.n, F(1))
    configs = [SolverConfig(strategy=MisOnes()), SolverConfig(strategy=up)]
    core = interior_epi_point(rng, instance)
    if core is not None:
        configs.append(SolverConfig(strategy=up, core_point_mode=FixedCore(core)))
    configs += [SolverConfig(strategy=up, core_point_mode=TrackIncumbent(F(1, 2))),
                SolverConfig(strategy=Custom(tuple(F(-rng.randint(0, 1))
                                                   for _ in range(instance.m)), F(-1)))]
    expected = undecomposed_value(instance)
    for config in configs:
        result = solve(instance, config)
        assert replay_trace(instance, trace_to_json(instance, config, result)) == []
        if result.status == SolveStatus.OPTIMAL:
            assert result.value == expected


def test_load_shipped_instances(ex1, ex1_finite):
    assert load_instance(EX1_PATH) == ex1
    assert load_instance(INSTANCES / "ex1_finite.json") == ex1_finite


def test_digest_shape_and_sensitivity(ex1):
    digest = instance_digest(ex1)
    assert digest.startswith("sha256:") and len(digest) == len("sha256:") + 64
    doc = instance_document(ex1)
    doc["b"] = [-5, -3, -13]
    assert instance_digest(parse_instance(json.dumps(doc))) != digest


def test_digest_is_sha256_of_the_canonical_json(ex1):
    canon = json.dumps(instance_document(ex1), sort_keys=True, separators=(",", ":"))
    assert instance_digest(ex1) == "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


def test_import_leaves_openssl_unloaded():
    """The digest takes the interpreter's builtin SHA-256, so importing the
    package maps no OpenSSL through hashlib's _hashlib."""
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no builtin SHA-256 module")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bendercuts; print('_hashlib' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _mutant(ex1, **changes):
    doc = instance_document(ex1)
    for key, value in changes.items():
        if value is _GONE:
            doc.pop(key)
        else:
            doc[key] = value
    return json.dumps(doc)


_GONE = object()

_REJECTS = [
    (ParseError, lambda ex1: "{"),
    (ParseError, lambda ex1: "[]"),
    (ParseError, lambda ex1: _mutant(ex1, b=_GONE)),
    (ParseError, lambda ex1: _mutant(ex1, extra=1)),
    (ParseError, lambda ex1: _mutant(ex1, c=[1.5])),
    (ParseError, lambda ex1: _mutant(ex1, n=True)),
    (ParseError, lambda ex1: _mutant(ex1, b=["1.5", -3, -14])),
    (ParseError, lambda ex1: _mutant(ex1, b=["1/0", -3, -14])),
    (DimensionError, lambda ex1: _mutant(ex1, c=[1, 2])),
    (DimensionError, lambda ex1: _mutant(ex1, H=[[-2], [-1]])),
    (ParseError, lambda ex1: _mutant(ex1, master={"type": "ball"})),
    (ParseError, lambda ex1: _mutant(ex1, master={"type": "polyhedron", "G": [[-1]]})),
    (ParseError, lambda ex1: _mutant(ex1, master={"type": "finite", "points": []})),
    # an integer literal past Python's int conversion limit (4300 digits)
    (ParseError, lambda ex1: _mutant(ex1, eta_lower_bound="BIG").replace('"BIG"', "1" * 5000)),
    # one digit past MAX_DIGITS, as an integer literal and as a denominator
    (ParseError, lambda ex1: _mutant(ex1, eta_lower_bound="BIG").replace(
        '"BIG"', "-" + "9" * (MAX_DIGITS + 1))),
    (ParseError, lambda ex1: _mutant(ex1, eta_lower_bound="1/" + "3" * (MAX_DIGITS + 1))),
    # the parser's own type checks
    (ParseError, lambda ex1: _mutant(ex1, master=[[-1]])),
    (ParseError, lambda ex1: _mutant(ex1, master={"type": "polyhedron", "G": [[-1]], "g": [0],
                                                  "points": [[0]]})),
    (ParseError, lambda ex1: _mutant(ex1, master={"type": "finite", "points": [[0]], "G": []})),
    (ParseError, lambda ex1: _mutant(ex1, c=1)),
    (ParseError, lambda ex1: _mutant(ex1, H={"rows": [[-2], [-1], [-4]]})),
    (ParseError, lambda ex1: _mutant(ex1, H=[[-2], "-1/2", [-4]])),
    # sizes the constructors check once the document is read
    (DimensionError, lambda ex1: _mutant(ex1, master={"type": "polyhedron", "G": [[-1, 0]],
                                                      "g": [0]})),
    (DimensionError, lambda ex1: _mutant(ex1, master={"type": "polyhedron", "G": [[-1]],
                                                      "g": [0, 1]})),
    (DimensionError, lambda ex1: _mutant(ex1, master={"type": "finite",
                                                      "points": [[0], [1, 2]]})),
]


@pytest.mark.parametrize("exc,make", _REJECTS)
def test_parse_rejections(ex1, exc, make):
    with pytest.raises(exc):
        parse_instance(make(ex1))


# what a document refuses with ParseError, a constructor refuses with a ToolkitError
# too; a cut is sized against the instance's n and a certificate against its m
_CONSTRUCTOR_REJECTS = {
    "n_a_string": lambda ex1: replace(ex1, n="1"),
    "n_a_bool": lambda ex1: replace(ex1, n=True),
    "x_a_string": lambda ex1: EpiPoint(x="12", eta=0),
    "x_a_number": lambda ex1: EpiPoint(x=5, eta=0),
    "certificate_for_two_coef_x": lambda ex1: certificate_for_cut(
        ex1, Cut(coef_x=(-1, -1), coef_eta=-1, rhs=-5)),
    "cut_of_two_multipliers": lambda ex1: certificate_to_cut(ex1, Certificate((1, 1), 1)),
    "mis_test_of_four_multipliers": lambda ex1: is_mis_certificate(
        ex1, EpiPoint(x=(0,), eta=0), Certificate((0, 0, 0, 1), 1)),
    "dominates_two_coef_x": lambda ex1: dominates(
        ex1, Cut(coef_x=(-1, 0), coef_eta=-1, rhs=-5), P2_CUT),
    "fixed_core_of_two_x": lambda ex1: solve(ex1, SolverConfig(
        strategy=Directional((F(0),), F(1)), core_point_mode=FixedCore(EpiPoint((2, 99), 0)))),
}


@pytest.mark.parametrize("name", list(_CONSTRUCTOR_REJECTS))
def test_constructor_rejections(ex1, name):
    with pytest.raises(DimensionError):
        _CONSTRUCTOR_REJECTS[name](ex1)


_UP = Directional((F(0),), F(1))
_MALFORMED_CONFIGS = {
    "max_iterations_a_fraction": lambda: SolverConfig(max_iterations=2.5),
    "max_iterations_a_string": lambda: SolverConfig(max_iterations="3"),
    "max_iterations_a_bool": lambda: SolverConfig(max_iterations=True),
    "mode_a_string": lambda: SolverConfig(strategy=_UP, core_point_mode="track"),
    "fixed_core_a_tuple": lambda: FixedCore(point=(1, 2)),
}


@pytest.mark.parametrize("name", list(_MALFORMED_CONFIGS))
def test_config_rejections(name):
    with pytest.raises(ToolkitError):
        _MALFORMED_CONFIGS[name]()


# refusals of the Python API that no parse, replay or CLI test reaches, each
# with the type and the message it raises
_API_REFUSALS = {
    "unknown_strategy": (DimensionError, "unknown strategy 'mis'",
                         lambda ex1: strategy_weights(ex1, "mis")),
    "solve_square_of_a_row": (DimensionError, "solve_square needs an n x n matrix and an n-vector",
                              lambda ex1: solve_square(((F(1), F(2)),), (F(1),))),
    "finite_domain_without_points": (DimensionError, "a finite domain needs at least one point",
                                     lambda ex1: FiniteDomain(points=())),
    "n_zero": (DimensionError, "n, k and m must all be at least 1",
               lambda ex1: replace(ex1, n=0)),
    "k_zero": (DimensionError, "n, k and m must all be at least 1",
               lambda ex1: replace(ex1, k=0)),
    "m_zero": (DimensionError, "n, k and m must all be at least 1",
               lambda ex1: replace(ex1, m=0)),
    "unknown_master_domain": (DimensionError, "unknown master domain kind",
                              lambda ex1: replace(ex1, master_domain="box")),
    "lp_sense": (DimensionError, "sense must be 'min' or 'max', got 'maximize'",
                 lambda ex1: LinearProgram("maximize", (F(1),), ())),
    "lp_without_variables": (DimensionError, "a linear program needs at least one variable",
                             lambda ex1: LinearProgram("min", (), ())),
    "lp_relation": (DimensionError, "unknown relation '<'",
                    lambda ex1: LinearProgram("min", (F(1),), (((F(1),), "<", F(1)),))),
    "scale_rows_count": (PreconditionViolated, "need one positive factor per linking row",
                         lambda ex1: scale_rows(ex1, (F(1), F(1)))),
    "scale_rows_zero_factor": (PreconditionViolated, "need one positive factor per linking row",
                               lambda ex1: scale_rows(ex1, (F(1), F(0), F(1)))),
    "scale_rows_literal": (ParseError, "expected an integer or a 'p/q' literal, got 'x'",
                           lambda ex1: scale_rows(ex1, ("x", F(1), F(1)))),
}


@pytest.mark.parametrize("name", list(_API_REFUSALS))
def test_api_refusals_name_the_input(ex1, name):
    exc, message, make = _API_REFUSALS[name]
    with pytest.raises(exc) as refused:
        make(ex1)
    assert str(refused.value) == message


def test_cli_refuses_an_instance_with_n_zero(tmp_path, capsys):
    """A document the parser reads whole, with "n": 0, is refused by the
    Instance constructor, and the CLI exits 4 with its message."""
    doc = json.loads(EX1_PATH.read_text(encoding="utf-8"))
    doc["n"] = 0
    path = tmp_path / "n0.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error=n, k and m must all be at least 1\n" and not captured.out


_ACCEPTED = {"3": F(3), "-2/7": F(-2, 7), "+3": F(3), "10/4": F(5, 2)}
_REFUSED = ["1.5", "1e3", "1_000", "\u0663/4", " 3/4", "1/0"]


@pytest.mark.parametrize("literal", list(_ACCEPTED) + _REFUSED + [
    pytest.param("1" * (MAX_DIGITS + 1), id="max_digits_plus_one")])
def test_one_literal_grammar(ex1, capsys, literal):
    """Instance files, traces, CLI arguments and the constructors accept the
    same literals, as the same numbers; the first three refuse the rest with
    the same message, the constructors with ParseError too."""
    text = _mutant(ex1, eta_lower_bound=literal)
    config = SolverConfig(strategy=MisOnes())
    doc = trace_document(ex1, config, solve(ex1, config))
    doc["iterations"][0]["master_value"] = literal
    problems = replay_trace(ex1, doc)
    code = run(["separate", str(EX1_PATH), "--point", "0", literal])
    err = capsys.readouterr().err
    if literal in _ACCEPTED:
        number = _ACCEPTED[literal]
        assert parse_instance(text).eta_lower_bound == number
        assert problems == [f"iteration 1: master value 0 != recorded {number}"]
        assert code == 0 and _rational(literal) == number
        assert replace(ex1, eta_lower_bound=literal).eta_lower_bound == number
        return
    with pytest.raises(ParseError):
        replace(ex1, eta_lower_bound=literal)
    with pytest.raises(ParseError) as refused:
        parse_instance(text)
    message = str(refused.value).removeprefix("eta_lower_bound: ")
    assert problems == [f"iteration 1: master_value: {message}"]
    assert code == 4 and err == f"error=argument --point: value: {message}\n"


def test_writers_refuse_numbers_past_max_digits(ex1):
    """What the readers refuse, the writers refuse too, with a ToolkitError."""
    config, result = SolverConfig(), SolveResult(SolveStatus.ITERATION_LIMIT)
    for big in (F(-10 ** 4400), F(1, 10 ** MAX_DIGITS), F(10 ** MAX_DIGITS)):
        inst = replace(ex1, eta_lower_bound=big)
        for write in (serialize_instance, instance_digest,
                      lambda i: trace_document(i, config, result),
                      lambda i: trace_to_json(i, config, result)):
            with pytest.raises(TooLarge):
                write(inst)
    widest = replace(ex1, eta_lower_bound=F(-(10 ** MAX_DIGITS - 1), 10 ** MAX_DIGITS - 2))
    assert parse_instance(serialize_instance(widest)) == widest


def test_readme_instance_example_parses():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    assert isinstance(parse_instance(blocks[0]).master_domain, PolyhedralDomain)
    finite = re.search(r"A finite master set uses `([^`]*)`", text).group(1)
    doc = json.loads(blocks[0])
    doc["master"] = json.loads(finite)
    assert isinstance(parse_instance(json.dumps(doc)).master_domain, FiniteDomain)


def _readme_transcripts():
    """(argv, expected stdout lines) for every indented `$ bendercuts` block."""
    lines = README.read_text(encoding="utf-8").splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("    $ bendercuts "):
            expected = []
            for follow in lines[i + 1:]:
                if not follow.startswith("    ") or follow.startswith("    $ "):
                    break
                expected.append(follow[4:])
            out.append((shlex.split(line[len("    $ bendercuts "):]), expected))
    return out


def test_readme_transcripts(monkeypatch, capsys):
    """README's CLI transcripts print what they show; a last `...` stands for the rest."""
    monkeypatch.chdir(README.parent)
    transcripts = _readme_transcripts()
    assert len(transcripts) == 5
    for argv, expected in transcripts:
        run(argv)
        got = capsys.readouterr().out.splitlines()
        if expected[-1] == "...":
            expected = expected[:-1]
            got = got[:len(expected)]
        assert got == expected, argv


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="line 1"):
        parse_instance("{,}")


def _directional_result(ex1):
    config = SolverConfig(strategy=Directional((F(2),), F(3)))
    return config, solve(ex1, config)


def test_trace_document_shape(ex1):
    config, result = _directional_result(ex1)
    doc = trace_document(ex1, config, result)
    assert doc["format"] == "bendercuts-trace/2"
    assert doc["instance_digest"] == instance_digest(ex1)
    assert doc["status"] == "optimal"
    assert doc["value"] == "11/3"
    assert doc["config"]["strategy"] == {"kind": "directional", "direction": [2],
                                         "direction_eta": 3}
    assert len(doc["iterations"]) == 3
    first, last = doc["iterations"][0], doc["iterations"][-1]
    assert first["outcome"] == "cut_added"
    assert "face" not in first and set(doc["config"]) == {
        "strategy", "max_iterations", "core_point_mode"}
    assert last["outcome"] == "converged"
    assert "cut" not in last


def test_trace_replays_clean(ex1):
    config, result = _directional_result(ex1)
    assert replay_trace(ex1, trace_to_json(ex1, config, result)) == []
    # "p/q" strings and integers are the same number, as in instance files
    doc = trace_document(ex1, config, result)
    doc["iterations"][0]["master_value"] = str(doc["iterations"][0]["master_value"])
    assert replay_trace(ex1, doc) == []


def test_trace_detects_wrong_instance(ex1, ex1_finite):
    config, result = _directional_result(ex1)
    problems = replay_trace(ex1_finite, trace_document(ex1, config, result))
    assert any("digest" in p for p in problems)


def test_trace_detects_tampering(ex1):
    config, result = _directional_result(ex1)
    doc = trace_document(ex1, config, result)
    doc["iterations"][0]["master_value"] = "99"
    assert any("master value" in p for p in replay_trace(ex1, doc))

    for old in ("nope", "bendercuts-trace/1"):
        doc = dict(trace_document(ex1, config, result), format=old)
        assert replay_trace(ex1, doc) == [f"unknown trace format {old!r}"]


def _edit_first_record(doc, edit):
    edit(doc["iterations"][0])
    return json.dumps(doc)


_MALFORMED_TRACES = {
    "top_level_list": lambda doc: json.dumps([doc]),
    "no_master_value": lambda doc: _edit_first_record(doc, lambda rec: rec.pop("master_value")),
    "null_cut": lambda doc: _edit_first_record(doc, lambda rec: rec.update(cut=None)),
    "null_iterations": lambda doc: json.dumps(dict(doc, iterations=None)),
    "record_is_a_number": lambda doc: json.dumps(dict(doc, iterations=[3])),
    "not_json": lambda doc: "{not json",
    "nested_too_deeply": lambda doc: "[" * 200_000 + "]" * 200_000,
    "integer_too_long": lambda doc: json.dumps(dict(doc, value="BIG")).replace('"BIG"', "1" * 5000),
    # ex1's first cut record replayed on an instance whose epi(z) is empty
    "cut_record_on_empty_epigraph": lambda doc: dict(
        doc, instance_digest=instance_digest(empty_epigraph()), iterations=doc["iterations"][:1]),
}


@pytest.mark.parametrize("name", list(_MALFORMED_TRACES))
def test_replay_reports_malformed_traces(ex1, name):
    config, result = _directional_result(ex1)
    instance = empty_epigraph() if name == "cut_record_on_empty_epigraph" else ex1
    problems = replay_trace(instance, _MALFORMED_TRACES[name](trace_document(ex1, config, result)))
    assert problems and all(isinstance(p, str) for p in problems)


def _forge_first_record_converged(doc):
    """ex1's first master point, outside epi(z), passed off as the optimum."""
    first = doc["iterations"][0]
    doc["iterations"] = [{"index": 1, "master_point": first["master_point"],
                          "master_value": first["master_value"], "outcome": "converged"}]
    return dict(doc, value="0", x=["0"], y=["99"])


_FORGED_OPTIMA = {
    "first_record_converged": _forge_first_record_converged,
    "y_and_value_edited": lambda doc: dict(doc, y=["99"], value="100"),
    "x_not_a_literal": lambda doc: dict(doc, x=["4.0/3"]),
    "y_too_long": lambda doc: dict(doc, y=doc["y"] * 2),
}


@pytest.mark.parametrize("name", list(_FORGED_OPTIMA))
def test_replay_rejects_forged_optimum(ex1, name):
    config, result = _directional_result(ex1)
    problems = replay_trace(ex1, _FORGED_OPTIMA[name](trace_document(ex1, config, result)))
    assert problems and all(p.startswith("status optimal: ") for p in problems)


@pytest.mark.parametrize("status", ["iteration_limit", "infeasible"])
def test_replay_rejects_converged_record_under_other_status(ex1, status):
    """solve writes a converged record only last, and only under optimal or ill_posed."""
    config = SolverConfig(strategy=MisOnes())
    doc = trace_document(ex1, config, solve(ex1, config))
    relabelled = dict(doc, status=status, value=None, x=None, y=None)
    assert replay_trace(ex1, relabelled) == [f"status {status}: replay ends optimal, reason None"]


def test_replay_rejects_a_converged_record_before_the_last(ex1):
    config = SolverConfig(strategy=MisOnes())
    doc = trace_document(ex1, config, solve(ex1, config))
    first = doc["iterations"][0]
    doc["iterations"][0] = {key: first[key] for key in ("index", "master_point", "master_value")}
    doc["iterations"][0]["outcome"] = "converged"
    assert "iteration 1: a converged record before the last" in replay_trace(ex1, doc)


def test_replay_accepts_each_status_as_solve_ends_it(ex1):
    def variant(**kw):
        return Instance(master_domain=ex1.master_domain, **dict(EX1_KW, **kw))

    # (instance, max_iterations, status, whether the last record converged)
    for instance, limit, status, converged in [
            (ex1, 50, "optimal", True),
            (ex1, 1, "iteration_limit", False),
            (empty_epigraph(), 50, "infeasible", False),
            (variant(c=(F(-1),)), 50, "ill_posed", False),  # master unbounded
            (variant(eta_lower_bound=F(10)), 50, "ill_posed", True)]:  # eta on its bound
        config = SolverConfig(strategy=MisOnes(), max_iterations=limit)
        doc = trace_document(instance, config, solve(instance, config))
        assert doc["status"] == status
        assert ("converged" in [r["outcome"] for r in doc["iterations"]]) == converged
        assert replay_trace(instance, doc) == []


_FORGED_ENDINGS = {
    # (edit of ex1's MIS trace, the one problem replay reports)
    "unknown_status": (lambda doc: dict(doc, status="banana", iterations=doc["iterations"][:2]),
                       "unknown status 'banana'"),
    "optimal_with_a_reason": (lambda doc: dict(doc, reason="hello"),
                              "status optimal: replay ends optimal, reason None"),
    "ill_posed_with_any_reason": (
        lambda doc: dict(doc, status="ill_posed", reason="anything at all"),
        "status ill_posed: replay ends optimal, reason None"),
    "no_iterations": (lambda doc: {k: v for k, v in doc.items() if k != "iterations"}
                      | {"status": "infeasible", "reason": "master problem infeasible"},
                      "iterations: expected a list"),
    # cut short after two or three of its four records: the master over
    # those cuts has an optimum, and epi(z) is not empty
    **{f"first_{count}_{status}_{tag}": (
        lambda doc, count=count, status=status, reason=reason: dict(
            doc, iterations=doc["iterations"][:count], status=status, reason=reason,
            value=None, x=None, y=None),
        f"status {status}: solve goes on after {count} records: the master over their"
        " cuts has an optimum, and epi(z) is not empty")
        for count in (2, 3)
        for status, tag, reason in (
            ("infeasible", "master", "master problem infeasible"),
            ("infeasible", "no_recourse", "no master point has a feasible subproblem"),
            ("ill_posed", "master_unbounded", "master relaxation unbounded"))},
}


@pytest.mark.parametrize("name", list(_FORGED_ENDINGS))
def test_replay_checks_status_and_reason(ex1, name):
    """The status must be a SolveStatus value, and the status and reason those
    solve ends with from the replayed state."""
    config = SolverConfig(strategy=MisOnes())
    forge, problem = _FORGED_ENDINGS[name]
    assert replay_trace(ex1, forge(trace_document(ex1, config, solve(ex1, config)))) == [problem]


def _forge_cut_x_ge(doc, bound, value, **first_fields):
    """ex1's MIS trace whose first record adds x >= bound, with first_fields
    replacing more of that record (its real MIS certificate, say).

    The later records are the real MIS cuts of a solve over x >= bound, so
    every master point and value replays and the reported optimum `value` (the
    true one is 11/3) checks out against its converged record.
    """
    shifted = Instance(master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(-bound),)), **EX1_KW)
    config = SolverConfig(strategy=MisOnes())
    rest = trace_document(shifted, config, solve(shifted, config))
    assert rest["value"] == value
    cut = {"coef_x": [-1], "coef_eta": 0, "rhs": -bound}
    first = dict(doc["iterations"][0], cut=cut, **first_fields)
    later = [dict(rec, index=i) for i, rec in enumerate(rest["iterations"], start=2)]
    return dict(rest, instance_digest=doc["instance_digest"], iterations=[first] + later)


def _edit_first_certificate(doc, key, value):
    doc["iterations"][0]["certificate"][key] = value
    return doc


def _replace_first_cut(doc, cut):
    doc["iterations"][0].update(cut=cut, certificate=None)
    return doc


# forged trace -> the message its first record gets
_FORGED_CUTS = {
    "x_ge_3_real_certificate": (
        lambda doc: _forge_cut_x_ge(doc, 3, "9/2"),
        "recorded cut is not the cut of its recorded certificate"),
    "x_ge_2_no_certificate": (
        lambda doc: _forge_cut_x_ge(doc, 2, 4, certificate=None),
        "recorded cut has no certificate"),
    "negative_multiplier": (
        lambda doc: _edit_first_certificate(doc, "row_multipliers", ["-1", "0", "0"]),
        "certificate multipliers must be nonnegative"),
    "multipliers_keep_y": (
        lambda doc: _edit_first_certificate(doc, "eta_multiplier", "1"),
        "recorded certificate does not cancel y: u'A + u_eta d' != 0"),
    "zero_certificate": (
        lambda doc: _edit_first_certificate(
            _edit_first_certificate(doc, "row_multipliers", [0, 0, 0]), "eta_multiplier", 0),
        "recorded certificate maps to no cut"),
    # the first certificate (0, 0, 1/14, 2/7) doubled: it still cancels y and
    # maps to the same cut up to scale
    "doubled_certificate": (
        lambda doc: _edit_first_certificate(
            _edit_first_certificate(doc, "row_multipliers", [0, 0, "1/7"]), "eta_multiplier", "4/7"),
        "recorded certificate prices its master point at -2, not -1"),
    "positive_cglp_value": (
        lambda doc: _edit_first_record(doc, lambda rec: rec.update(cglp_value=5)),
        "recorded cglp_value 5 is not negative"),
    # MIS weights price the first certificate (0, 0, 1/14, 2/7) at -5/14
    "cglp_value_not_its_price": (
        lambda doc: _edit_first_record(doc, lambda rec: rec.update(cglp_value=-1)),
        "recorded cglp_value -1 is not weights . certificate -5/14"),
    "fallback_under_mis": (
        lambda doc: _edit_first_record(doc, lambda rec: rec.update(fallback=True)),
        "a fallback record under MisOnes, which never falls back"),
    "fallback_not_a_bool": (
        lambda doc: _edit_first_record(doc, lambda rec: rec.update(fallback="no")),
        "fallback: expected true or false"),
}


@pytest.mark.parametrize("name", list(_FORGED_CUTS))
def test_replay_checks_cuts_against_certificates(ex1, name):
    config = SolverConfig(strategy=MisOnes())
    doc = trace_document(ex1, config, solve(ex1, config))
    assert replay_trace(ex1, doc) == []
    forge, message = _FORGED_CUTS[name]
    assert replay_trace(ex1, forge(doc)) == [f"iteration 1: {message}"]


# config edit -> the one message replay gives, before it reads any record
_MALFORMED_CONFIG_ECHOES = {
    "missing": (lambda cfg: None, "config: expected an object with 'strategy'"),
    "unknown_strategy": (lambda cfg: dict(cfg, strategy={"kind": "best"}),
                         "config.strategy: unknown kind 'best'"),
    "direction_of_two": (
        lambda cfg: dict(cfg, strategy={"kind": "directional", "direction": [1, 2],
                                        "direction_eta": 1}),
        "config.strategy.direction has 2 entries, expected 1"),
    "custom_weights_of_two": (
        lambda cfg: dict(cfg, strategy={"kind": "custom", "weights": [1, 2], "weight_eta": 1}),
        "config.strategy.weights has 2 entries, expected 3"),
    "core_mode_under_mis": (
        lambda cfg: dict(cfg, core_point_mode={"kind": "track_incumbent", "blend": "1/2"}),
        "config: core point modes only steer directional strategies"),
    "blend_of_one": (
        lambda cfg: dict(cfg, strategy={"kind": "directional", "direction": [0],
                                        "direction_eta": 1},
                         core_point_mode={"kind": "track_incumbent", "blend": 1}),
        "config: blend must lie strictly between 0 and 1"),
    "unknown_core_mode": (lambda cfg: dict(cfg, core_point_mode={"kind": "moving"}),
                          "config.core_point_mode: unknown kind 'moving'"),
    "max_iterations_a_string": (lambda cfg: dict(cfg, max_iterations="50"),
                                "config.max_iterations: expected an integer"),
}


@pytest.mark.parametrize("name", list(_MALFORMED_CONFIG_ECHOES))
def test_replay_reads_the_config_back(ex1, name):
    config = SolverConfig(strategy=MisOnes())
    doc = trace_document(ex1, config, solve(ex1, config))
    edit, message = _MALFORMED_CONFIG_ECHOES[name]
    assert replay_trace(ex1, dict(doc, config=edit(doc["config"]))) == [message]


def test_replay_checks_the_run_against_its_config(ex1):
    """The record count is bounded by max_iterations, which an
    iteration_limit run reached."""
    config = SolverConfig(strategy=MisOnes())
    doc = trace_document(ex1, config, solve(ex1, config))
    assert replay_trace(ex1, dict(doc, config=dict(doc["config"], max_iterations=3))) == [
        "status optimal: 4 records under max_iterations 3"]
    config = SolverConfig(strategy=MisOnes(), max_iterations=2)
    doc = trace_document(ex1, config, solve(ex1, config))
    assert replay_trace(ex1, doc) == []
    assert replay_trace(ex1, dict(doc, config=dict(doc["config"], max_iterations=50))) == [
        "status iteration_limit: solve goes on after 2 records: the master over their cuts"
        " has an optimum, and epi(z) is not empty"]


def _flip_fallback(doc, position):
    record = doc["iterations"][position]
    record["fallback"] = not record["fallback"]
    return doc


@pytest.mark.parametrize("name", ["directional", "fixed_core", "custom"])
def test_replay_prices_each_cut_with_its_rounds_weights(ex1, name):
    """A cut record's cglp_value is its round's weights times its certificate:
    the configured strategy's, Directional(core - point) under FixedCore, and
    MisOnes' on a fallback; with the flag flipped the other weights price it."""
    config = {"directional": _directional_result(ex1)[0],
              "fixed_core": _CONFIG_DOCUMENTS["fixed_core"][0],
              "custom": _CONFIG_DOCUMENTS["custom"][0]}[name]
    doc = trace_document(ex1, config, solve(ex1, config))
    assert replay_trace(ex1, doc) == []
    [problem] = replay_trace(ex1, _flip_fallback(doc, 0))
    assert problem.startswith("iteration 1: recorded cglp_value ")


def test_replay_keeps_the_sign_check_under_track_incumbent(ex1):
    """TrackIncumbent's core needs a subproblem LP per round, so a record that
    is not a fallback is checked for its sign only; a fallback record is
    priced with the MIS weights."""
    config = _CONFIG_DOCUMENTS["track_incumbent"][0]
    doc = trace_document(ex1, config, solve(ex1, config))
    assert [r["fallback"] for r in doc["iterations"][:-1]] == [False, False]
    forged = json.loads(json.dumps(doc))
    forged["iterations"][0]["cglp_value"] = "-100"
    assert replay_trace(ex1, forged) == []
    # MIS weights price the first certificate (1/5, 0, 0, 1/5) at -2/5
    assert replay_trace(ex1, _flip_fallback(doc, 0)) == [
        "iteration 1: recorded cglp_value -1 is not weights . certificate -2/5"]
    # y <= x - 1 and y >= 0: at the first master point x = 0 the subproblem
    # is infeasible, so there is no incumbent yet and the round runs MIS
    late = Instance(n=1, k=1, m=2, c=(F(1),), d=(F(-1),), H=((F(-1),), (F(0),)),
                    A=((F(1),), (F(-1),)), b=(F(-1), F(0)), eta_lower_bound=F(-10),
                    master_domain=PolyhedralDomain(G=((F(-1),), (F(1),)), g=(F(0), F(4))))
    config = SolverConfig(strategy=Directional((F(0),), F(1)),
                          core_point_mode=TrackIncumbent(F(1, 2)))
    doc = trace_document(late, config, solve(late, config))
    assert doc["iterations"][0]["fallback"] is True and replay_trace(late, doc) == []
    forged = json.loads(json.dumps(doc))
    forged["iterations"][0]["cglp_value"] = "-100"
    assert replay_trace(late, forged) == [
        "iteration 1: recorded cglp_value -100 is not weights . certificate -2/11"]


def test_replay_checks_record_indices(ex1):
    config = SolverConfig(strategy=MisOnes())
    doc = trace_document(ex1, config, solve(ex1, config))
    doc["iterations"][0]["index"] = 7
    assert replay_trace(ex1, doc) == ["iteration 7: recorded at position 1"]
    doc["iterations"][0]["index"] = True
    assert replay_trace(ex1, doc) == ["iteration True: index: expected an integer"]


def test_replay_compares_master_points(ex1):
    config = SolverConfig(strategy=MisOnes())
    doc = trace_document(ex1, config, solve(ex1, config))
    # (-7, -9) lies outside the master set x >= 0; the master value 0 is left as recorded
    doc["iterations"][0]["master_point"] = {"x": [-7], "eta": -9}
    assert replay_trace(ex1, doc) == ["iteration 1: master point (0, 0) != recorded (-7, -9)"]


def test_replay_checks_what_each_cut_does_to_the_master(ex1):
    config = SolverConfig(strategy=MisOnes())
    # eta >= -1 holds at the first master point (0, 0), so the cut leaves it in place
    problems = replay_trace(ex1, _replace_first_cut(
        trace_document(ex1, config, solve(ex1, config)), {"coef_x": [0], "coef_eta": -1, "rhs": 1}))
    assert "iteration 1: recorded cut does not cut off its master point" in problems
    # x <= -1 cuts off x = 0 and, with the master set x >= 0, leaves no master point
    problems = replay_trace(ex1, _replace_first_cut(
        trace_document(ex1, config, solve(ex1, config)), {"coef_x": [1], "coef_eta": 0, "rhs": -1}))
    assert problems[-1] == "iteration 2: master became infeasible on replay"


def _box_draw(seed):
    """`scripts/result_digest.py`'s box draw of this seed."""
    inst = random_instance(random.Random(seed), finite=False)
    return replace(inst, c=tuple(map(abs, inst.c)), d=tuple(map(abs, inst.d))) if seed % 2 else inst


# instances whose MIS run ends ill_posed with eta on its lower bound
_ON_THE_FLOOR = {
    # the floor hides the optimum 11/3
    "ex1_eta_ge_10": lambda: Instance(master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
                                      **dict(EX1_KW, eta_lower_bound=F(10))),
    # the problems are unbounded below
    **{f"box_draw_{seed}": lambda seed=seed: _box_draw(seed) for seed in (5, 8, 14, 27)},
}


@pytest.mark.parametrize("name", list(_ON_THE_FLOOR))
def test_replay_checks_an_optimum_on_the_eta_floor(name):
    """Relabelled optimal, with no reason and a y that meets the subproblem
    rows at d.y = eta, the run passes every arithmetic check; only the master
    without the eta floor tells that the floor may hide the optimum."""
    instance, config = _ON_THE_FLOOR[name](), SolverConfig(strategy=MisOnes())
    result = solve(instance, config)
    point = result.trace[-1].master_point
    assert result.status == SolveStatus.ILL_POSED and point.eta == instance.eta_lower_bound
    y = (F(10),) if name == "ex1_eta_ge_10" else subproblem_check(instance, point)
    forged = dict(trace_document(instance, config, result), status="optimal", reason=None,
                  x=[str(v) for v in point.x], y=[str(v) for v in y],
                  value=str(result.trace[-1].master_value))
    assert replay_trace(instance, forged) == [
        f"status optimal: replay ends ill_posed, reason {result.reason!r}"]


_CONFIG_DOCUMENTS = {
    "fixed_core": (
        SolverConfig(strategy=Directional((F(0),), F(1)),
                     core_point_mode=FixedCore(EpiPoint((F(2),), F(7, 2)))),
        {"strategy": {"kind": "directional", "direction": [0], "direction_eta": 1},
         "max_iterations": 50, "core_point_mode": {"kind": "fixed_core", "x": [2], "eta": "7/2"}}),
    "track_incumbent": (
        SolverConfig(strategy=Directional((F(0),), F(1)),
                     core_point_mode=TrackIncumbent(F(1, 3))),
        {"strategy": {"kind": "directional", "direction": [0], "direction_eta": 1},
         "max_iterations": 50, "core_point_mode": {"kind": "track_incumbent", "blend": "1/3"}}),
    "custom": (
        SolverConfig(strategy=Custom((F(-1), F(0), F(-1, 2)), F(-1)), max_iterations=20),
        {"strategy": {"kind": "custom", "weights": [-1, 0, "-1/2"], "weight_eta": -1},
         "max_iterations": 20, "core_point_mode": None}),
}


_BIG = "9" * (MAX_DIGITS + 1)
# json.dumps cannot write an int that long, so the test writes _BIG as a JSON
# number in place of this string
_BIG_NUMBER = "<number past MAX_DIGITS>"
_ODD_VALUES = (1.5, True, None, "x", [[1]], _BIG, _BIG_NUMBER)


@functools.cache
def _fuzzed_documents() -> dict[str, str]:
    """The shipped instance files and the trace of ex1's MIS solve, as texts."""
    texts = {name: (INSTANCES / name).read_text(encoding="utf-8")
             for name in ("ex1.json", "ex1_finite.json")}
    ex1 = parse_instance(texts["ex1.json"])
    config = SolverConfig(strategy=MisOnes())
    texts["trace"] = trace_to_json(ex1, config, solve(ex1, config))
    return texts


def _paths(node, at=()):
    """The key or index path of every value below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield at + (key,)
        yield from _paths(child, at + (key,))


def _mutate(doc, data):
    """One structural mutation of doc, in place: drop a key, replace a value
    by one of the wrong kind, or truncate or extend a list."""
    *head, key = data.draw(st.sampled_from(list(_paths(doc))))
    parent = functools.reduce(lambda node, step: node[step], head, doc)
    value = parent[key]
    kinds = ["replace"]
    if isinstance(parent, dict):
        kinds.append("drop")
    if isinstance(value, list) and value:
        kinds += ["truncate", "extend"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "replace":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(_ODD_VALUES)))
    elif kind == "truncate":
        del value[data.draw(st.integers(0, len(value) - 1)):]
    else:
        value.append(copy.deepcopy(value[-1]))


@settings(max_examples=300)
@given(st.data())
def test_structural_mutations_end_in_a_result_or_a_toolkit_error(data):
    """One to four structural mutations of each shipped instance file and of
    ex1's MIS trace: the parser returns an Instance or raises a ToolkitError,
    and replay returns its list of messages.  Each example takes a few
    milliseconds, so this test draws more of them than the suite's profile."""
    texts = _fuzzed_documents()
    ex1 = parse_instance(texts["ex1.json"])
    for name, text in texts.items():
        doc = json.loads(text)
        for _ in range(data.draw(st.integers(1, 4))):
            _mutate(doc, data)
        text = json.dumps(doc).replace(f'"{_BIG_NUMBER}"', _BIG)
        if name == "trace":
            problems = replay_trace(ex1, text)
            assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
            continue
        try:
            assert isinstance(parse_instance(text), Instance)
        except ToolkitError:
            pass


@pytest.mark.parametrize("name", list(_CONFIG_DOCUMENTS))
def test_trace_writes_every_config_kind(ex1, name):
    config, document = _CONFIG_DOCUMENTS[name]
    result = solve(ex1, config)
    assert result.status == SolveStatus.OPTIMAL
    text = trace_to_json(ex1, config, result)
    assert json.loads(text)["config"] == document
    assert replay_trace(ex1, text) == []


def test_format_cut():
    assert format_cut(P2_CUT) == "1/2 x + eta >= 3"
    assert format_cut(P3_CUT) == "x + eta >= 7/2"
    assert format_cut(Cut(coef_x=(F(-1), F(-2)), coef_eta=F(-1), rhs=F(-3))) \
        == "x1 + 2 x2 + eta >= 3"
    assert format_cut(Cut(coef_x=(F(-1),), coef_eta=F(0), rhs=F(0))) == "x >= 0"
    assert format_cut(Cut(coef_x=(F(1),), coef_eta=F(-1), rhs=F(0))) == "-x + eta >= 0"


def test_cli_solve_directional(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    code = run(["solve", str(EX1_PATH), "--strategy", "directional",
                "--omega", "2", "--omega0", "3", "--trace", str(trace_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["status=optimal", "iterations=3", "value=11/3", "x=4/3", "y=7/3"]
    assert replay_trace(load_instance(EX1_PATH), trace_path.read_text()) == []


def test_cli_solve_default_and_verify(capsys):
    code = run(["solve", str(EX1_PATH), "--verify"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "status=optimal" in out and "value=11/3" in out
    assert out.count("cut_classification=non_supporting") >= 1


def test_cli_solve_verify_on_an_empty_epigraph(tmp_path, capsys):
    """x <= -1 and x >= 0 in the linking rows: epi(z) is empty, yet MIS cuts
    x <= -1 off before the master runs dry, so the run has a cut to classify.
    The face oracle refuses it before any line or trace is written."""
    empty = _write_instance(tmp_path, "empty.json", m=2, H=((F(1),), (F(-1),)),
                            A=((F(0),), (F(0),)), b=(F(-1), F(0)))
    trace = tmp_path / "t.json"
    assert run(["solve", str(empty)]) == 2
    assert "reason=master problem infeasible" in capsys.readouterr().out.splitlines()
    assert run(["solve", str(empty), "--verify", "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error=the epigraph is empty\n"
    assert not trace.exists()


def test_cli_solve_core_modes(capsys):
    assert run(["solve", str(EX1_PATH), "--strategy", "directional",
                "--core-point", "2", "3"]) == 0
    assert "value=11/3" in capsys.readouterr().out
    assert run(["solve", str(EX1_PATH), "--strategy", "directional",
                "--blend", "1/2"]) == 0
    assert "value=11/3" in capsys.readouterr().out


def test_cli_separate_mis(capsys):
    code = run(["separate", str(EX1_PATH), "--point", "0", "0", "--strategy", "mis"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["kind=separated", "cut=x + eta >= 7/2", "supporting=false",
                   "cglp_value=-5/14", "certificate=0 0 1/14 2/7"]


def test_cli_separate_inside(capsys):
    code = run(["separate", str(EX1_PATH), "--point", "2", "3"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["kind=in_epigraph"]


def test_cli_negative_rational_values(capsys):
    code = run(["separate", str(EX1_PATH), "--point", "-2/7", "0"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "kind=separated"


def test_cli_verify_facet(capsys, ex1):
    code = run(["verify", str(EX1_PATH), "--cut", "-2", "-1", "-5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["face_dimension=1", "epi_dimension=2",
                   "classification=facet_defining", "mis=true", "pareto=pareto",
                   "witness_x=1", "witness_eta=3"]
    # the face is a segment and the LP's tie-break picks the witness on it, so
    # check the property too: on the cut, and in epi(z) with y = eta (d = 1)
    x, eta = (F(line.split("=")[1]) for line in out[-2:])
    assert Cut(coef_x=(F(-2),), coef_eta=F(-1), rhs=F(-5)).value_at(EpiPoint((x,), eta)) == -5
    assert all(h * x + a * eta <= b for (h,), (a,), b in zip(ex1.H, ex1.A, ex1.b))


def test_cli_verify_non_supporting(capsys):
    code = run(["verify", str(EX1_PATH), "--cut", "-1", "-1", "-7/2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["face_dimension=-1", "epi_dimension=2",
                   "classification=non_supporting", "mis=true", "pareto=not_pareto"]


def test_cli_enumerate(capsys):
    code = run(["enumerate", str(EX1_PATH), "--point", "0", "0"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    vertices = ["0 0 1/14 2/7", "0 1/3 0 1/3", "1/5 0 0 1/5"]
    assert out == (["alt_vertex_count=3"] + [f"alt_vertex={v}" for v in vertices]
                   + ["relaxed_vertex_count=3"]
                   + [f"relaxed_vertex={v}" for v in vertices])


def test_cli_bench(capsys):
    code = run(["bench", str(INSTANCES)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 4
    rows = [dict(part.split("=", 1) for part in line.split()) for line in out]
    assert [r["instance"] for r in rows] == ["ex1.json", "ex1.json",
                                             "ex1_finite.json", "ex1_finite.json"]
    assert [r["strategy"] for r in rows] == ["mis", "directional"] * 2
    assert all(r["status"] == "optimal" for r in rows)
    assert [r["value"] for r in rows] == ["11/3", "11/3", "4", "4"]


def _write_instance(tmp_path, name, **overrides):
    kw = dict(n=1, k=1, m=3,
              c=(F(1),), d=(F(1),),
              H=((F(-2),), (F(-1, 2),), (F(-4),)),
              A=((F(-1),), (F(-1),), (F(-4),)),
              b=(F(-5), F(-3), F(-14)),
              master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)),
              eta_lower_bound=F(0))
    kw.update(overrides)
    path = tmp_path / name
    path.write_text(serialize_instance(Instance(**kw)), encoding="utf-8")
    return path


def test_cli_exit_codes(tmp_path, capsys):
    assert run(["solve", str(tmp_path / "missing.json")]) == 4
    assert capsys.readouterr().err.startswith("error=")

    assert run(["solve", str(EX1_PATH), "--max-iter", "1"]) == 5
    capsys.readouterr()

    empty = _write_instance(tmp_path, "empty.json", m=2,
                            H=((F(0),), (F(0),)), A=((F(1),), (F(-1),)),
                            b=(F(-1), F(0)))
    assert run(["solve", str(empty)]) == 2
    assert "status=infeasible" in capsys.readouterr().out

    unbounded = _write_instance(tmp_path, "unbounded.json", c=(F(-1),))
    assert run(["solve", str(unbounded)]) == 3
    assert "status=ill_posed" in capsys.readouterr().out

    assert run(["solve", str(EX1_PATH), "--strategy", "directional"]) == 4
    assert run(["solve", str(EX1_PATH), "--strategy", "custom"]) == 4
    assert run(["separate", str(EX1_PATH), "--point", "0"]) == 4
    assert run(["solve", str(EX1_PATH), "--strategy", "directional",
                "--core-point", "2", "3", "--blend", "1/2"]) == 4
    assert run(["solve", str(EX1_PATH), "--point", "0", "0"]) == 4
    assert run([]) == 4
    capsys.readouterr()

    # malformed text and arguments that would be silently ignored
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    big = tmp_path / "big.json"
    big.write_text(EX1_PATH.read_text(encoding="utf-8").replace(
        '"eta_lower_bound": 0', '"eta_lower_bound": ' + "1" * 5000), encoding="utf-8")
    # a malformed instance sorted after a good one stops bench before any solve
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "ex1.json").write_text(EX1_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    (bench_dir / "z.json").write_text("{", encoding="utf-8")
    for argv in (["solve", str(not_utf8)],
                 ["solve", str(deep)],
                 ["solve", str(big)],
                 ["solve", str(EX1_PATH), "--omega", "1"],
                 ["solve", str(EX1_PATH), "--strategy", "directional", "--blend", "1/2",
                  "--omega", "1", "--omega0", "1"],
                 ["solve", str(EX1_PATH), "--strategy", "directional", "--core-point", "2", "3",
                  "--omega0", "1"],
                 ["separate", str(EX1_PATH), "--point", "0", "0", "--omega-tilde", "1", "1", "1"],
                 ["solve", str(EX1_PATH), "--strategy", "directional", "--omega", "2",
                  "--omega0", "3", "--omega-tilde0", "-1"],
                 ["bench", str(EX1_PATH.parent), "--strategies", ""],
                 ["bench", str(EX1_PATH.parent), "--strategies", "mis,foo"],
                 ["bench", str(bench_dir)]):
        assert run(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error=") and not captured.out, argv

    assert run(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_cli_exits_of_the_oracles(tmp_path, capsys):
    """Exit codes and messages that only separation, verify and bench reach."""
    empty = _write_instance(tmp_path, "empty.json", m=2, H=((F(0),), (F(0),)),
                            A=((F(1),), (F(-1),)), b=(F(-1), F(0)))
    assert run(["separate", str(empty), "--point", "0", "0"]) == 2
    assert capsys.readouterr().err == "error=the epigraph is empty; nothing to separate from\n"
    # straight down from below epi(z) never reaches it
    assert run(["separate", str(EX1_PATH), "--point", "0", "0", "--strategy", "directional",
                "--omega", "0", "--omega0", "-1"]) == 3
    assert capsys.readouterr().err == \
        "error=no relaxation along these weights reaches the epigraph\n"
    # no default MIS point: the root master is unbounded
    unbounded = _write_instance(tmp_path, "unbounded.json", c=(F(-1),))
    assert run(["verify", str(unbounded), "--cut", "-2", "-1", "-5"]) == 0
    assert "mis=unknown" in capsys.readouterr().out.splitlines()
    # no certificate maps to x <= 100, and a cut with coef_eta 0 has no Pareto verdict
    assert certificate_for_cut(load_instance(EX1_PATH), Cut((F(1),), F(0), F(100))) is None
    assert run(["verify", str(EX1_PATH), "--cut", "1", "0", "100"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mis=unknown" in out and "pareto=not_applicable" in out
    assert run(["bench", str(tmp_path / "missing")]) == 4
    assert capsys.readouterr().err == f"error=not a directory: {tmp_path / 'missing'}\n"
    no_json = tmp_path / "no_json"
    no_json.mkdir()
    (no_json / "ex1.txt").write_text(EX1_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    assert run(["bench", str(no_json)]) == 4
    assert capsys.readouterr().err == f"error=no .json instances under {no_json}\n"


@pytest.mark.parametrize("command", [["solve", str(EX1_PATH)], ["bench", str(INSTANCES)]],
                         ids=["solve", "bench"])
def test_cli_max_iter_reads_the_one_grammar(capsys, command):
    """--max-iter takes the literals of instance files that are whole numbers."""
    for refused in ("1_0", "\u0663", " 3", "1/2"):
        assert run(command + ["--max-iter", refused]) == 4, refused
        captured = capsys.readouterr()
        assert captured.err.startswith("error=argument --max-iter: value: ")
        assert not captured.out
    outputs = []
    for accepted in ("3", "+3", "6/2"):
        assert run(command + ["--max-iter", accepted]) == (5 if command[0] == "solve" else 0)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2] and "iterations=3" in outputs[0]


def test_cli_custom_strategy(capsys):
    code = run(["solve", str(EX1_PATH), "--strategy", "custom",
                "--omega-tilde", "-1", "-1", "-1", "--omega-tilde0", "-1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "value=11/3" in out
