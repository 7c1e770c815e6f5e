import json
from fractions import Fraction as F
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from logsurf import (
    ParseError,
    fixture_corpus,
    load_fixture,
    model_from_dict,
    parse_document,
    parse_rational,
    serialize_model,
)
from logsurf.cli import main

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
    ],
    ids=[
        "invalid-json", "vertices-number", "vertex-not-object", "genus-text", "edge-m-text",
        "boundary-1/0", "edges-number", "genus-1.5", "weight-true", "contracted-string",
        "out-unwritable", "not-utf-8", "vertex-unknown-field", "root-unknown-field",
        "edge-unknown-field", "id-number", "edge-end-number",
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
    "fixture", ["cuspidal_cubic", "log_terminality", "optimal_ass_2", "psi_am_order"]
)
def test_redundant_second_kind_at_r_zero(capsys, fixture):
    code, _, err = run_cli(
        capsys, "redundant", str(FIXDIR / f"{fixture}.json"), "--kind", "second", "--r", "0"
    )
    assert code == 0, err


@pytest.mark.parametrize(
    "command",
    [
        "analyze",
        "discriminant",
        "bark",
        "coeffs",
        "peel",
        "squeeze",
        "redundant",
        "ale",
        "mmp",
        "amm",
        "enumerate-runs",
    ],
)
def test_json_reports_validate_against_schema(capsys, command):
    fixture = "cuspidal_cubic.json" if command != "coeffs" else "rod_3_2.json"
    args = [command, str(FIXDIR / fixture), "--json"]
    if command in ("peel", "squeeze", "redundant", "ale", "mmp", "amm", "enumerate-runs", "analyze"):
        args += ["--r", "3/5"]
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)


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
