import errno
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from logsurf import (
    DualGraph,
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


def _parse_rational_by_two_parses(text, where):
    """The reader as it was: a regex match, then Fraction(str) on the text."""
    if isinstance(text, int) and not isinstance(text, bool):
        return F(text)
    if not isinstance(text, str) or not re.match(r"^-?\d+(/\d+)?$", text.strip()):
        raise ParseError(f"{where or 'value'}: expected an exact rational 'p/q', got {text!r}")
    try:
        return F(text.strip())
    except ZeroDivisionError:
        raise ParseError(f"{where or 'value'}: zero denominator in {text!r}") from None
    except ValueError:
        raise ParseError(f"{where or 'value'}: more than {sys.get_int_max_str_digits()} digits") from None


def test_parse_rational_equals_fraction_of_the_text():
    # seeded strings over the characters of a rational and of near misses
    # (a sign, a point, an exponent, an underscore, white space, non-ASCII
    # decimal digits, a superscript), plus numbers at the digit limit: each
    # must give Fraction(text) or the error, class and message, of the reader
    # that parsed the text twice
    rng = random.Random(67)
    alphabet = "0123456789" * 4 + "//--+._e \n\u0663\uff13\u00b2x"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9))) for _ in range(4000)]
    texts += [rng.choice(("", "-")) + "7" * rng.choice((4300, 4301)) + rng.choice(("", "/0", "/3"))
              for _ in range(40)]
    texts += ["1/" + "0" * 4301, "0/0", "-0", "3\n", True, False, None, 1.5, 7, -2, ["1"]]
    outcome = dict.fromkeys(("value", "expected", "zero denominator", "digits"), 0)
    for text in texts:
        try:
            want = _parse_rational_by_two_parses(text, "x")
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse_rational(text, "x")
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            outcome[next(k for k in list(outcome)[1:] if k in str(exc))] += 1
        else:
            got = parse_rational(text, "x")
            assert type(got) is F and got == want
            outcome["value"] += 1
    assert min(outcome.values()) >= 10, outcome


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


def test_model_from_dict_takes_subclasses_of_the_json_types():
    from collections import OrderedDict

    class Name(str):
        pass

    class Count(int):
        pass

    doc = OrderedDict(vertices=[OrderedDict(id=Name("a"), weight=Count(2), boundary=Name("1/2")),
                                {"id": "b", "weight": 3, "genus": Count(0)}],
                      edges=[OrderedDict(a=Name("a"), b="b", m=Count(1))], contracted=[Name("a")])
    want = {"vertices": [{"id": "a", "weight": 2, "boundary": "1/2"}, {"id": "b", "weight": 3}],
            "edges": [{"a": "a", "b": "b"}], "contracted": ["a"]}
    assert model_from_dict(doc) == model_from_dict(want)
    with pytest.raises(ParseError, match=r"^vertices\[1\]: unknown field 'mult'$"):
        model_from_dict({"vertices": [{"id": "a", "weight": 2}, OrderedDict(id="b", weight=2, mult=1)]})


def test_a_fault_below_the_reader_is_not_made_a_domain_error(monkeypatch):
    # every value is type-checked before the graph is built, so whatever the
    # graph layer raises beyond a LogSurfError is a fault of the program
    def fault(self):
        raise RuntimeError("a fault of the program")

    monkeypatch.setattr(DualGraph, "__post_init__", fault)
    with pytest.raises(RuntimeError, match="a fault of the program"):
        model_from_dict({"vertices": [{"id": "a", "weight": 2}]})


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
_LIMIT = sys.get_int_max_str_digits()
_HUGE = "1/" + "3" * 5000  # beyond the interpreter's 4300-digit limit


def _vertex(**fields):
    return {"vertices": [{"id": "a", "weight": 2, **fields}]}


def _edge(**fields):
    return {"vertices": _TWO, "edges": [{"a": "a", "b": "b", **fields}]}


# each malformed document (an object, or raw text or bytes) and the whole of
# what the reader says about it, "{path}" standing for the document's path:
# the first ten are the malformed documents of the cli-fixtures benchmark
_MESSAGES = {
    "invalid-json": ('{"vertices": [', "not valid JSON: Expecting value: line 1 column 15 (char 14)"),
    "vertices-number": ({"vertices": 3}, "vertices: expected a list, got 3"),
    "vertex-not-object": ({"vertices": [3]}, "vertices[0]: expected an object, got 3"),
    "genus-text": (_vertex(genus="x"), "vertices[0].genus: expected an integer, got 'x'"),
    "edge-m-text": (_edge(m="x"), "edges[0].m: expected an integer, got 'x'"),
    "boundary-1/0": (_vertex(boundary="1/0"), "vertices[0].boundary: zero denominator in '1/0'"),
    "edges-number": ({"vertices": _TWO, "edges": 5}, "edges: expected a list, got 5"),
    "genus-1.5": (_vertex(genus=1.5), "vertices[0].genus: expected an integer, got 1.5"),
    "weight-true": (_vertex(weight=True), "vertices[0].weight: expected an integer, got True"),
    "contracted-string": ({"vertices": _TWO, "edges": [{"a": "a", "b": "b"}], "contracted": "ab"},
                          "contracted: expected a list, got 'ab'"),
    "empty": ("", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    "bom": (b'\xef\xbb\xbf{"vertices": []}',
            "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "not-utf-8": (b'{"vertices": [{"id": "\xff", "weight": 2}]}', "{path} is not UTF-8 text: invalid start byte"),
    "duplicate-field": ('{"vertices":[{"id":"a","weight":2,"weight":3}],"contracted":["a"]}',
                        "duplicate field 'weight'"),
    "duplicate-root-field": ('{"vertices":[],"vertices":[{"id":"a","weight":2}]}',
                             "duplicate field 'vertices'"),
    "root-list": ([1], "document root: expected an object, got [1]"),
    "root-unknown-field": ({"vertices": _TWO, "uniform": "1/2"}, "document root: unknown field 'uniform'"),
    "no-vertices": ({"edges": []}, "missing field 'vertices'"),
    "name-number": ({"name": 5, "vertices": _TWO}, "name: expected a string, got 5"),
    "reference-list": ({"reference": ["x"], "vertices": _TWO}, "reference: expected a string, got ['x']"),
    "uniform_r-float": ({"vertices": _TWO, "uniform_r": 0.5},
                        "uniform_r: expected an exact rational 'p/q', got 0.5"),
    "uniform_r-true": ({"vertices": _TWO, "uniform_r": True},
                       "uniform_r: expected an exact rational 'p/q', got True"),
    "uniform_r-3/2": ({"vertices": _TWO, "uniform_r": "3/2"}, "uniform coefficient 3/2 not in [0,1]"),
    "vertices-object": ({"vertices": {}}, "vertices: expected a list, got {}"),
    "vertex-list": ({"vertices": [[]]}, "vertices[0]: expected an object, got []"),
    "vertex-unknown-field": (_vertex(genes=1), "vertices[0]: unknown field 'genes'"),
    "no-id": ({"vertices": [{"weight": 2}]}, "vertices[0]: needs 'id' and 'weight'"),
    "no-weight": ({"vertices": [{"id": "a"}]}, "vertices[0]: needs 'id' and 'weight'"),
    "id-number": ({"vertices": [{"id": 1, "weight": 2}]}, "vertices[0].id: expected a string, got 1"),
    "id-null": ({"vertices": [{"id": None, "weight": 2}]}, "vertices[0].id: expected a string, got None"),
    "weight-text": (_vertex(weight="2"), "vertices[0].weight: expected an integer, got '2'"),
    "weight-float": (_vertex(weight=2.0), "vertices[0].weight: expected an integer, got 2.0"),
    "genus-false": (_vertex(genus=False), "vertices[0].genus: expected an integer, got False"),
    "genus-negative": (_vertex(genus=-1), "genus of 'a' negative"),
    "decoration-float": (_vertex(decoration=0.5),
                         "vertices[0].decoration: expected an exact rational 'p/q', got 0.5"),
    "decoration-true": (_vertex(decoration=True),
                        "vertices[0].decoration: expected an exact rational 'p/q', got True"),
    "decoration-list": (_vertex(decoration=["1"]),
                        "vertices[0].decoration: expected an exact rational 'p/q', got ['1']"),
    "decoration-decimal": (_vertex(decoration="0.5"),
                           "vertices[0].decoration: expected an exact rational 'p/q', got '0.5'"),
    "decoration-negative": (_vertex(decoration="-1/2"), "decoration -1/2 of 'a' negative"),
    "boundary-null": (_vertex(boundary=None),
                      "vertices[0].boundary: expected an exact rational 'p/q', got None"),
    "boundary-3/2": (_vertex(boundary="3/2"), "boundary coefficient 3/2 of 'a' not in [0,1]"),
    "boundary-negative": (_vertex(boundary=-1), "boundary coefficient -1 of 'a' not in [0,1]"),
    "edges-object": ({"vertices": _TWO, "edges": {}}, "edges: expected a list, got {}"),
    "edge-text": ({"vertices": _TWO, "edges": ["ab"]}, "edges[0]: expected an object, got 'ab'"),
    "edge-unknown-field": (_edge(mult=2), "edges[0]: unknown field 'mult'"),
    "no-a": ({"vertices": _TWO, "edges": [{"b": "b"}]}, "edges[0]: needs 'a' and 'b'"),
    "no-b": ({"vertices": _TWO, "edges": [{"a": "a"}]}, "edges[0]: needs 'a' and 'b'"),
    "a-number": (_edge(a=1), "edges[0].a: expected a string, got 1"),
    "b-null": (_edge(b=None), "edges[0].b: expected a string, got None"),
    "m-true": (_edge(m=True), "edges[0].m: expected an integer, got True"),
    "m-zero": (_edge(m=0), "edge a-b with multiplicity 0"),
    "self-loop": (_edge(b="a"), "self-loop at 'a' (snc model has none)"),
    "dangling-edge": (_edge(b="c"), "edge a-c references an unknown vertex"),
    "duplicate-id": ({"vertices": [{"id": "a", "weight": 2}, {"id": "a", "weight": 3}]},
                     "duplicate vertex id 'a'"),
    "two-edges": ({"vertices": _TWO, "edges": [{"a": "a", "b": "b"}, {"a": "b", "b": "a"}]},
                  "two edges between 'a' and 'b'"),
    "contracted-number": ({"vertices": _TWO, "contracted": [1]},
                          "contracted[0]: expected a string, got 1"),
    "contracted-unknown": ({"vertices": _TWO, "contracted": ["c"]}, "no vertex 'c'"),
    "utf-16-bom": (b"\xff\xfe{}", "{path} is not UTF-8 text: invalid start byte"),
    "edge-end-number": (_edge(b=1), "edges[0].b: expected a string, got 1"),
    "integer-5001-digits": ('{"vertices": [{"id": "a", "weight": 1' + "0" * 5000 + "}]}",
                            f"JSON number with more than {_LIMIT} digits"),
    "boundary-5000-digits": (_vertex(boundary=_HUGE), f"vertices[0].boundary: more than {_LIMIT} digits"),
    "decoration-5000-digits": (_vertex(decoration=_HUGE),
                               f"vertices[0].decoration: more than {_LIMIT} digits"),
    "uniform_r-5000-digits": ({"vertices": _TWO, "uniform_r": _HUGE}, f"uniform_r: more than {_LIMIT} digits"),
    "nested-100000-deep": ("[" * 100_000, "JSON nested too deeply"),
}


def _write_document(tmp_path, doc):
    path = tmp_path / "bad.json"
    text = doc if isinstance(doc, (str, bytes)) else json.dumps(doc)
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return path


def test_a_fixture_loads_as_its_text_parses():
    for path in sorted(FIXDIR.glob("*.json")):
        assert load_fixture(path.stem).model == parse_document(path.read_text())


@pytest.mark.parametrize(
    "name", ["invalid-json", "duplicate-field", "duplicate-root-field", "integer-5001-digits",
             "nested-100000-deep", "root-unknown-field"],
)
def test_a_fixture_is_read_like_a_document(monkeypatch, name):
    import logsurf.documents

    doc, message = _MESSAGES[name]
    text = doc if isinstance(doc, str) else json.dumps(doc)

    class Text:  # the bundled resources, holding one fixture of this text
        def files(self, package):
            return self

        def joinpath(self, name):
            return self

        def read_text(self):
            return text

    monkeypatch.setattr(logsurf.documents, "resources", Text())
    for read in (lambda: load_fixture("any"), lambda: parse_document(text)):
        with pytest.raises(ParseError) as info:
            read()
        assert str(info.value) == message


@pytest.mark.parametrize("doc, message", list(_MESSAGES.values()), ids=list(_MESSAGES))
def test_reader_messages_are_exact(capsys, tmp_path, doc, message):
    path = _write_document(tmp_path, doc)
    assert run_cli(capsys, "coeffs", str(path), "--json") == (
        2, "", "error: " + message.replace("{path}", str(path)) + "\n"
    )


# malformed inputs read once more with --out (and an --out that cannot be
# written): the same whole message, and no report file is left behind
# (the first ten and the last seven documents of the table)
@pytest.mark.parametrize(
    "name",
    [*list(_MESSAGES)[:10], "out-unwritable", "not-utf-8", "vertex-unknown-field",
     "root-unknown-field", "edge-unknown-field", "id-number", *list(_MESSAGES)[-7:]],
)
def test_malformed_input_is_domain_error(capsys, tmp_path, name):
    out = tmp_path / "report.json"
    if name == "out-unwritable":
        path, out = FIXDIR / "d4.json", tmp_path / "missing" / "report.json"
        message = f"cannot write --out {out}: {os.strerror(errno.ENOENT)}"
    else:
        doc, message = _MESSAGES[name]
        path = _write_document(tmp_path, doc)
    assert run_cli(capsys, "coeffs", str(path), "--json", "--out", str(out)) == (
        2, "", "error: " + message.replace("{path}", str(path)) + "\n"
    )
    assert not out.exists()


def test_unreadable_document_and_unwritable_out_messages_are_exact(capsys, tmp_path):
    d4, out = str(FIXDIR / "d4.json"), tmp_path / "missing" / "r.json"
    for argv, message in (
        ([str(tmp_path / "none.json")], f"no such file: {tmp_path / 'none.json'}"),
        ([str(tmp_path)], f"cannot read {tmp_path}: {os.strerror(errno.EISDIR)}"),
        ([d4, "--json", "--out", str(out)], f"cannot write --out {out}: {os.strerror(errno.ENOENT)}"),
    ):
        assert run_cli(capsys, "coeffs", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fixture", ["d4", "cuspidal_cubic", "amm_not_dlt"])
def test_crlf_document_gives_the_same_report(capsys, tmp_path, fixture):
    crlf = tmp_path / f"{fixture}.json"
    crlf.write_bytes((FIXDIR / f"{fixture}.json").read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    for command in ("analyze", "amm"):
        want = run_cli(capsys, command, str(FIXDIR / f"{fixture}.json"), "--json")
        got = run_cli(capsys, command, str(crlf), "--json")
        assert want[0] == 0 and got == (0, want[1].replace(str(FIXDIR), str(tmp_path)), "")


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


def _stdout_report(capsys, *args):
    assert main(list(args)) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("first, second", [("analyze", "discriminant"), ("discriminant", "analyze")])
def test_out_overwrites_in_place_with_exactly_the_new_report(capsys, tmp_path, first, second):
    # the report is written over the old one and the file is cut to its
    # length, so a shorter report leaves no tail of a longer one
    target = tmp_path / "report.txt"
    sizes = {}
    for command in (first, second):
        args = [command, str(FIXDIR / "cuspidal_cubic.json"), "--r", "1/2"]
        want = _stdout_report(capsys, *args)
        assert main(args + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == want
        sizes[command] = len(want)
    assert sizes["analyze"] > 2 * sizes["discriminant"]


def test_out_to_non_regular_files_is_written_and_not_cut(capsys, tmp_path):
    args = ["coeffs", str(FIXDIR / "rod_3_2.json"), "--json"]
    assert main(args + ["--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not wait
    try:
        code = main(args + ["--out", str(fifo)])
        os.set_blocking(reader, True)
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0 and capsys.readouterr().err == ""
    assert data == _stdout_report(capsys, *args)


def test_out_errors_keep_their_messages(capsys, tmp_path):
    for target, code in ((tmp_path, errno.EISDIR), (tmp_path / "missing" / "r.json", errno.ENOENT)):
        assert main(["coeffs", str(FIXDIR / "d4.json"), "--out", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: cannot write --out {target}: {os.strerror(code)}\n"


def test_out_report_that_utf8_cannot_hold_leaves_the_file_alone(capsys, tmp_path):
    # JSON admits a lone surrogate in an id; a text report holding it cannot
    # be UTF-8, so the call fails before the target is opened
    doc = tmp_path / "s.json"
    doc.write_text('{"vertices": [{"id": "\\ud800", "weight": 2}], "contracted": ["\\ud800"]}')
    old, missing = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_bytes(b"the old report\n")
    for target in (old, missing):
        assert main(["coeffs", str(doc), "--out", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: cannot write --out {target} (utf-8): surrogates")
    assert old.read_bytes() == b"the old report\n"
    assert not missing.exists()
    assert main(["coeffs", str(doc), "--json", "--out", str(missing)]) == 0
    assert '"\\ud800": "0"' in missing.read_text()


def test_out_write_that_fails_partway_leaves_no_old_tail(tmp_path):
    # a file-size limit stops the write after 200 bytes: the file is cut
    # there and holds the start of the new report, not the old report's tail
    target = tmp_path / "report.txt"
    target.write_bytes(b"x" * 5000)
    args = ["analyze", str(FIXDIR / "cuspidal_cubic.json"), "--r", "1/2", "--out", str(target)]
    script = (
        "import resource, signal, sys\n"
        "from logsurf.cli import main\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (200, 200))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True)
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr == f"error: cannot write --out {target}: {os.strerror(errno.EFBIG)}\n".encode()
    assert main(args[:-2] + ["--out", str(tmp_path / "whole.txt")]) == 0
    whole = (tmp_path / "whole.txt").read_bytes()
    assert len(whole) > 200 and target.read_bytes() == whole[:200]


def test_documents_and_out_reports_are_utf8_under_an_ascii_locale(tmp_path):
    # the locale's encoding is ASCII here: the document is still read as
    # UTF-8 and --out still gets UTF-8, while a text report that stdout
    # cannot encode is a domain error, not a traceback
    doc = tmp_path / "e.json"
    doc.write_bytes('{"vertices": [{"id": "\u00e9", "weight": 2}], "contracted": ["\u00e9"]}'.encode())
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "logsurf.cli", "coeffs", str(doc), *args],
                              env=env, capture_output=True, cwd=tmp_path)

    target = tmp_path / "report.txt"
    done = run("--out", str(target))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert target.read_bytes() == "cf(\u00e9) = 0   ld = 1\n".encode("utf-8")
    done = run()
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr.startswith(b"error: cannot write the report to stdout (ascii)")
    assert b"Traceback" not in done.stderr
    done = run("--json")
    assert done.returncode == 0 and b'"cf": {\n      "\\u00e9": "0"' in done.stdout


def test_enumerate_runs_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate-runs", str(FIXDIR / "partially_almost_minimal.json"), "--r", "1"
    )
    assert code == 0
    assert "2 maximal run(s)" in out
