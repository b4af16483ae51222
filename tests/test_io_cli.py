import json
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from bendercuts.benders import SolverConfig, solve
from bendercuts.cglp import Directional
from bendercuts.cli import format_cut, run
from bendercuts.errors import DimensionError, ParseError
from bendercuts.instance_io import (instance_digest, instance_document, load_instance,
                                    parse_instance, replay_trace, serialize_instance,
                                    trace_document, trace_to_json)
from bendercuts.model import FiniteDomain, Instance, PolyhedralDomain
from bendercuts.separation import Cut

from conftest import EX1_KW, P2_CUT, P3_CUT

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
README = Path(__file__).resolve().parent.parent / "README.md"
EX1_PATH = INSTANCES / "ex1.json"


def test_round_trip(ex1, ex1_finite):
    for inst in (ex1, ex1_finite):
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert instance_digest(again) == instance_digest(inst)


def test_load_shipped_instances(ex1, ex1_finite):
    assert load_instance(EX1_PATH) == ex1
    assert load_instance(INSTANCES / "ex1_finite.json") == ex1_finite


def test_digest_shape_and_sensitivity(ex1):
    digest = instance_digest(ex1)
    assert digest.startswith("sha256:") and len(digest) == len("sha256:") + 64
    doc = instance_document(ex1)
    doc["b"] = [-5, -3, -13]
    assert instance_digest(parse_instance(json.dumps(doc))) != digest


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
]


@pytest.mark.parametrize("exc,make", _REJECTS)
def test_parse_rejections(ex1, exc, make):
    with pytest.raises(exc):
        parse_instance(make(ex1))


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
    config = SolverConfig(strategy=Directional((F(2),), F(3)), verify_each_cut=True)
    return config, solve(ex1, config)


def test_trace_document_shape(ex1):
    config, result = _directional_result(ex1)
    doc = trace_document(ex1, config, result)
    assert doc["format"] == "bendercuts-trace/1"
    assert doc["instance_digest"] == instance_digest(ex1)
    assert doc["status"] == "optimal"
    assert doc["value"] == "11/3"
    assert doc["config"]["strategy"] == {"kind": "directional", "direction": [2],
                                         "direction_eta": 3}
    assert len(doc["iterations"]) == 3
    first, last = doc["iterations"][0], doc["iterations"][-1]
    assert first["outcome"] == "cut_added"
    assert first["face"]["classification"] == "facet_defining"
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

    doc = trace_document(ex1, config, result)
    doc["iterations"][0]["face"]["classification"] = "supporting"
    assert any("face report" in p for p in replay_trace(ex1, doc))

    doc = trace_document(ex1, config, result)
    doc["format"] = "nope"
    assert replay_trace(ex1, doc) == ["unknown trace format 'nope'"]


def _empty_epigraph() -> Instance:
    """No x has a feasible subproblem (y >= 0 and y <= -1), so epi(z) is empty."""
    kw = dict(EX1_KW, m=2, H=((F(0),), (F(0),)), A=((F(1),), (F(-1),)), b=(F(-1), F(0)))
    return Instance(master_domain=PolyhedralDomain(G=((F(-1),),), g=(F(0),)), **kw)


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
    # ex1's first cut record, recorded face included, replayed on an instance
    # whose epi(z) is empty: there is no face to report
    "face_on_empty_epigraph": lambda doc: dict(
        doc, instance_digest=instance_digest(_empty_epigraph()), iterations=doc["iterations"][:1]),
}


@pytest.mark.parametrize("name", list(_MALFORMED_TRACES))
def test_replay_reports_malformed_traces(ex1, name):
    config, result = _directional_result(ex1)
    instance = _empty_epigraph() if name == "face_on_empty_epigraph" else ex1
    problems = replay_trace(instance, _MALFORMED_TRACES[name](trace_document(ex1, config, result)))
    assert problems and all(isinstance(p, str) for p in problems)


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


def test_cli_verify_facet(capsys):
    code = run(["verify", str(EX1_PATH), "--cut", "-2", "-1", "-5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["face_dimension=1", "epi_dimension=2",
                   "classification=facet_defining", "mis=true", "pareto=pareto",
                   "witness_x=1", "witness_eta=3"]


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
    # a malformed instance sorted after a good one stops bench before any solve
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "ex1.json").write_text(EX1_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    (bench_dir / "z.json").write_text("{", encoding="utf-8")
    for argv in (["solve", str(not_utf8)],
                 ["solve", str(deep)],
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


def test_cli_custom_strategy(capsys):
    code = run(["solve", str(EX1_PATH), "--strategy", "custom",
                "--omega-tilde", "-1", "-1", "-1", "--omega-tilde0", "-1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "value=11/3" in out
