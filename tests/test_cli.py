import json
from fractions import Fraction as F
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from logsurf import (
    ParseError,
    fixture_corpus,
    is_negative_definite,
    load_fixture,
    model_from_dict,
    parse_document,
    parse_rational,
    serialize_model,
)
from logsurf.cli import COMMANDS, main

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "logsurf" / "fixtures"
SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "logsurf" / "schema" / "report.schema.json").read_text()
)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- documents -----------------------------------------------------------------


def test_fixture_corpus_parses():
    corpus = fixture_corpus()
    assert len(corpus) == 14
    names = {f.name for f in corpus}
    assert "cuspidal_cubic" in names


def test_cuspidal_cubic_is_four_vertices():
    fx = load_fixture("cuspidal_cubic")
    assert len(fx.model.graph.ids) == 4


def test_rational_parsing():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("-3") == F(-3)
    with pytest.raises(ParseError):
        parse_rational("0.5")
    with pytest.raises(ParseError):
        parse_rational("1/2.0")


def test_round_trip():
    for fx in fixture_corpus():
        text = serialize_model(fx.model, name=fx.name)
        again = parse_document(text)
        assert again == fx.model


def test_model_from_dict_rejects_decimals():
    doc = {
        "vertices": [{"id": "a", "weight": 2, "boundary": 0.5}],
        "edges": [],
    }
    with pytest.raises(ParseError):
        model_from_dict(doc)


# -- commands ------------------------------------------------------------------


def test_coeffs_rod_3_2(capsys):
    code, out, _ = run_cli(capsys, "coeffs", str(FIXDIR / "rod_3_2.json"))
    assert code == 0
    assert "cf(E1) = 2/5" in out and "cf(E2) = 1/5" in out


def test_dot_output(capsys):
    code, out, _ = run_cli(capsys, "dot", str(FIXDIR / "d4.json"))
    assert code == 0
    assert out.startswith("graph")
    assert '"c"' in out and "-2" in out


def test_dot_escapes_quotes_and_backslashes(capsys, tmp_path):
    ids = ['a"b', "c\\"]
    doc = {"vertices": [{"id": v, "weight": 2} for v in ids], "edges": [{"a": ids[0], "b": ids[1]}]}
    path = tmp_path / 'x"y.json'
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "dot", str(path))
    assert code == 0
    assert out.splitlines() == [
        r'graph "x\"y" {',
        r'  "a\"b" [label="a\"b\n-2" shape=circle];',
        r'  "c\\" [label="c\\\n-2" shape=circle];',
        r'  "a\"b" -- "c\\";',
        "}",
    ]


def test_amm_report_not_lc(capsys):
    code, out, _ = run_cli(
        capsys, "amm", str(FIXDIR / "amm_not_dlt.json"), "--r", "9/10"
    )
    assert code == 0
    assert "not (1-r)-lc" in out
    assert "witness t4" in out


def test_classify_d4(capsys):
    code, out, _ = run_cli(capsys, "classify", str(FIXDIR / "d4.json"))
    assert code == 0
    assert "D_4" in out


def test_exit_code_usage():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command", "x.json"])
    assert e.value.code == 1


def test_exit_code_domain(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [{"id": "a", "weight": 2, "boundary": "3/2"}], "edges": []}')
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "error" in err


def test_missing_file_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "definitely-missing.json")
    assert code == 2


_TWO = [{"id": "a", "weight": 2}, {"id": "b", "weight": 2}]
_HUGE = "1/" + "3" * 5000  # beyond the interpreter's 4300-digit limit


# each malformed input (a document, raw text or bytes, or None for an
# unwritable --out) must end in exit 2 with a message naming the field
@pytest.mark.parametrize(
    "doc, field",
    [
        ('{"vertices": [', "JSON"),
        ({"vertices": 3}, "vertices"),
        ({"vertices": [3]}, "vertices[0]"),
        ({"vertices": [{"id": "a", "weight": 2, "genus": "x"}]}, "vertices[0].genus"),
        ({"vertices": _TWO, "edges": [{"a": "a", "b": "b", "m": "x"}]}, "edges[0].m"),
        ({"vertices": [{"id": "a", "weight": 2, "boundary": "1/0"}]}, "vertices[0].boundary"),
        ({"vertices": _TWO, "edges": 5}, "edges"),
        ({"vertices": [{"id": "a", "weight": 2, "genus": 1.5}]}, "vertices[0].genus"),
        ({"vertices": [{"id": "a", "weight": True}]}, "vertices[0].weight"),
        ({"vertices": _TWO, "edges": [{"a": "a", "b": "b"}], "contracted": "ab"}, "contracted"),
        (None, "--out"),
        (b"\xff\xfe{}", "UTF-8"),
        ({"vertices": [{"id": "a", "weight": 2, "genes": 1}]}, "'genes'"),
        ({"vertices": _TWO, "name": "x", "uniform": "1/2"}, "'uniform'"),
        ({"vertices": _TWO, "edges": [{"a": "a", "b": "b", "mult": 2}]}, "'mult'"),
        ({"vertices": [{"id": 1, "weight": 2}]}, "vertices[0].id"),
        ({"vertices": _TWO, "edges": [{"a": "a", "b": 1}]}, "edges[0].b"),
        ('{"vertices": [{"id": "a", "weight": 1' + "0" * 5000 + "}]}", "4300 digits"),
        ({"vertices": [{"id": "a", "weight": 2, "boundary": _HUGE}]}, "vertices[0].boundary"),
        ({"vertices": [{"id": "a", "weight": 2, "decoration": _HUGE}]}, "vertices[0].decoration"),
        ({"vertices": _TWO, "uniform_r": _HUGE}, "uniform_r"),
        ("[" * 100_000, "nested too deeply"),
    ],
    ids=[
        "invalid-json", "vertices-number", "vertex-not-object", "genus-text", "edge-m-text",
        "boundary-1/0", "edges-number", "genus-1.5", "weight-true", "contracted-string",
        "out-unwritable", "not-utf-8", "vertex-unknown-field", "root-unknown-field",
        "edge-unknown-field", "id-number", "edge-end-number", "integer-5001-digits",
        "boundary-5000-digits", "decoration-5000-digits", "uniform_r-5000-digits",
        "nested-100000-deep",
    ],
)
def test_malformed_input_is_domain_error(capsys, tmp_path, doc, field):
    out = tmp_path / "report.json"
    if doc is None:
        path, out = FIXDIR / "d4.json", tmp_path / "missing" / "report.json"
    else:
        path = tmp_path / "bad.json"
        text = doc if isinstance(doc, (str, bytes)) else json.dumps(doc)
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, _, err = run_cli(capsys, "coeffs", str(path), "--json", "--out", str(out))
    assert code == 2
    assert field in err


@pytest.mark.parametrize(
    "option, message",
    [
        ("--eps=", "--eps: expected an exact rational"),
        ("--eps=3/2", "--eps: 3/2 not in [0,1]"),
        ("--eps=-1/2", "--eps: -1/2 not in [0,1]"),
        ("--eps=" + _HUGE, "--eps: more than 4300 digits"),
        ("--r=", "--r: expected an exact rational"),
        ("--r=" + _HUGE, "--r: more than 4300 digits"),
    ],
    ids=["eps-empty", "eps-3/2", "eps-negative", "eps-5000-digits", "r-empty", "r-5000-digits"],
)
def test_bad_option_value_is_domain_error(capsys, option, message):
    code, out, err = run_cli(capsys, "analyze", str(FIXDIR / "d4.json"), option)
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize("form", [("--json",), ()], ids=["json", "text"])
def test_report_number_beyond_digit_limit_is_domain_error(capsys, tmp_path, form):
    # each weight has 3001 digits, within the limit; the discriminant w^2 - 1
    # of the contracted pair has 6001
    weight = 10**3000 + 1
    doc = {
        "vertices": [{"id": "a", "weight": weight}, {"id": "b", "weight": weight}],
        "edges": [{"a": "a", "b": "b"}],
        "contracted": ["a", "b"],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "discriminant", str(path), *form)
    assert code == 2
    assert out == "" and "error: a report number has more than 4300 digits" in err


def test_other_value_errors_still_raise(monkeypatch):
    import logsurf.cli

    def fault(model, args):
        raise ValueError("a fault of the program")

    monkeypatch.setitem(logsurf.cli._TABLE, "discriminant", (fault, True))
    with pytest.raises(ValueError, match="a fault of the program"):
        main(["discriminant", str(FIXDIR / "d4.json")])


@pytest.mark.parametrize("eps", ["0", "1/3", "1"])
def test_eps_bounds_are_accepted(capsys, eps):
    code, out, _ = run_cli(capsys, "analyze", str(FIXDIR / "d4.json"), "--eps", eps)
    assert code == 0
    assert f"eps = {eps}:" in out


@pytest.mark.parametrize(
    "fixture", ["cuspidal_cubic", "log_terminality", "optimal_ass_2", "psi_am_order"]
)
def test_redundant_second_kind_at_r_zero(capsys, fixture):
    code, _, err = run_cli(
        capsys, "redundant", str(FIXDIR / f"{fixture}.json"), "--kind", "second", "--r", "0"
    )
    assert code == 0, err


def test_schema_is_a_valid_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("command", COMMANDS)
def test_json_reports_validate_against_schema(capsys, command):
    # every fixture, both kinds, the document's own r and r = 0, 1/2, 3/5, 1;
    # `classify` reads a model with nothing contracted as one germ, which is
    # outside its hypothesis when the whole graph is not negative definite
    validator = jsonschema.Draft202012Validator(SCHEMA)
    refused = 0
    for path in sorted(FIXDIR.glob("*.json")):
        doc = load_fixture(path.stem).model
        for kind in ("first", "second"):
            for r in (None, "0", "1/2", "3/5", "1"):
                args = [command, str(path), "--kind", kind, "--json"]
                if r is not None:
                    args += ["--r", r]
                code, out, err = run_cli(capsys, *args)
                outside = not doc.contracted and not is_negative_definite(doc.graph, doc.graph.ids)
                if command == "classify" and outside:
                    assert code == 2 and "must be negative definite" in err, args
                    refused += 1
                    continue
                assert code == 0, (args, err)
                report = json.loads(out)
                assert report["command"] == command
                assert ("options" in report) == (command != "dot")
                errors = [e.message for e in validator.iter_errors(report)]
                assert not errors, (args, errors[:3])
    # 7 of the 14 fixtures, 2 kinds, 5 values of r
    assert refused == (70 if command == "classify" else 0)


def _mutations(report):
    """Change the report in place, one way at a time: rename each field and
    add one in every object of the result whose keys are field names, and
    drop or add the options."""
    maps = {"boundary", "bark", "cf", "ld", "coefficients", "germs"}

    def objects(x, key=None):
        if isinstance(x, dict):
            if key not in maps and not (key == "components" and report["command"] == "discriminant"):
                yield x
            for k, v in x.items():
                yield from objects(v, k)
        elif isinstance(x, list):
            for v in x:
                yield from objects(v, key)

    for obj in list(objects(report["result"])):
        for key in list(obj):
            value = obj.pop(key)
            obj[key + "_"] = value
            yield f"renamed {key!r}"
            del obj[key + "_"]
            obj[key] = value
        obj["unexpected"] = 0
        yield "added 'unexpected'"
        del obj["unexpected"]
    # a dot report has no options, every other report has them
    options = report.pop("options", None)
    if options is None:
        report["options"] = {"r": None, "kind": "first", "eps": None, "strategy": None}
    yield "dropped or added 'options'"
    report.pop("options", None)
    if options is not None:
        report["options"] = options


@pytest.mark.parametrize(
    "command, fixture, r",
    [
        ("analyze", "amm_not_dlt", "9/10"),
        ("discriminant", "d4", None),
        ("bark", "peeling_fn", None),
        ("coeffs", "rod_3_2", None),
        ("classify", "d4", None),
        ("peel", "ale_r1", "1/2"),
        ("squeeze", "cuspidal_cubic", "3/5"),
        ("redundant", "cuspidal_cubic", "1/2"),
        ("ale", "ale_r1", None),
        ("mmp", "cuspidal_cubic", "3/5"),
        ("amm", "amm_not_dlt", "1/2"),
        ("enumerate-runs", "partially_almost_minimal", "1"),
        ("dot", "d4", None),
    ],
)
def test_schema_rejects_renamed_and_extra_result_fields(capsys, command, fixture, r):
    args = [command, str(FIXDIR / f"{fixture}.json"), "--json"] + (["--r", r] if r else [])
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out)
    validator = jsonschema.Draft202012Validator(SCHEMA)
    assert validator.is_valid(report)
    mutations = 0
    for what in _mutations(report):
        assert not validator.is_valid(report), f"{command}: {what} still validates"
        mutations += 1
    assert mutations > len(report["result"])
    assert validator.is_valid(report)


def test_reports_are_deterministic(capsys):
    args = ["amm", str(FIXDIR / "cuspidal_cubic.json"), "--r", "3/5", "--json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["discriminant", str(FIXDIR / "d4.json"), "--json", "--out", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["result"]["all"] == 4


def test_enumerate_runs_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate-runs", str(FIXDIR / "partially_almost_minimal.json"), "--r", "1"
    )
    assert code == 0
    assert "2 maximal run(s)" in out
