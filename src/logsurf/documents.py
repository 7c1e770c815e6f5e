"""Graph documents: the on-disk JSON format, exact-rational serialization,
DOT emission and the bundled fixture corpus.

Rationals are written as strings "p/q" (or "p"); decimals are rejected
everywhere, by design.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _escape
from typing import Any

from .errors import ParseError
from .graph import ZERO, DualGraph, Edge, LogSurfaceModel, Vertex

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def parse_rational(text: Any, where: str = "", *at: Any) -> Fraction:
    """An exact rational from an int or a "p/q" text; an error names it by where.format(*at)."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    match = _RATIONAL_RE.fullmatch(text.strip()) if isinstance(text, str) else None
    try:
        if match is not None:
            num, den = match.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        problem = f"expected an exact rational 'p/q', got {text!r}"
    except ZeroDivisionError:
        problem = f"zero denominator in {text!r}"
    except ValueError:  # beyond the interpreter's limit on integer digits
        problem = f"more than {sys.get_int_max_str_digits()} digits"
    raise ParseError(f"{(where.format(*at) if at else where) or 'value'}: {problem}")


def format_rational(q: Fraction) -> str:
    if type(q) is not Fraction:
        q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_KIND_NAMES = {int: "an integer", list: "a list", dict: "an object", str: "a string"}


def _typed(value: Any, kind: type, where: str, *at: Any) -> Any:
    # an error names the value by where.format(*at); bool is a subclass of
    # int, but true/false are not integers here
    if type(value) is kind or (isinstance(value, kind) and not isinstance(value, bool)):
        return value
    raise ParseError(f"{where.format(*at)}: expected {_KIND_NAMES[kind]}, got {value!r}")


_ROOT_KEYS = frozenset(("name", "reference", "uniform_r", "vertices", "edges", "contracted"))
_VERTEX_KEYS = frozenset(("id", "weight", "genus", "decoration", "boundary"))
_EDGE_KEYS = frozenset(("a", "b", "m"))


def _object(value: Any, keys: frozenset, where: str, *at: Any) -> dict:
    if type(value) is not dict or not value.keys() <= keys:
        _typed(value, dict, where, *at)
        for key in value:
            if key not in keys:
                raise ParseError(f"{where.format(*at)}: unknown field {key!r}")
    return value


def model_from_dict(doc: dict) -> LogSurfaceModel:
    """Build a model from a graph document, rejecting every unknown field and
    every field of the wrong type with a ParseError that names it."""
    _object(doc, _ROOT_KEYS, "document root")
    if "vertices" not in doc:
        raise ParseError("missing field 'vertices'")
    for key in ("name", "reference"):
        if key in doc:
            _typed(doc[key], str, key)
    vertices = []
    for i, rv in enumerate(_typed(doc["vertices"], list, "vertices")):
        _object(rv, _VERTEX_KEYS, "vertices[{}]", i)
        if "id" not in rv or "weight" not in rv:
            raise ParseError(f"vertices[{i}]: needs 'id' and 'weight'")
        dec, bd = rv.get("decoration", ZERO), rv.get("boundary", ZERO)
        vertices.append(
            Vertex(
                _typed(rv["id"], str, "vertices[{}].id", i),
                _typed(rv["weight"], int, "vertices[{}].weight", i),
                _typed(rv.get("genus", 0), int, "vertices[{}].genus", i),
                dec if dec is ZERO else parse_rational(dec, "vertices[{}].decoration", i),
                bd if bd is ZERO else parse_rational(bd, "vertices[{}].boundary", i),
            )
        )
    edges = []
    for i, re_ in enumerate(_typed(doc.get("edges", []), list, "edges")):
        _object(re_, _EDGE_KEYS, "edges[{}]", i)
        if "a" not in re_ or "b" not in re_:
            raise ParseError(f"edges[{i}]: needs 'a' and 'b'")
        edges.append(
            Edge(
                _typed(re_["a"], str, "edges[{}].a", i),
                _typed(re_["b"], str, "edges[{}].b", i),
                _typed(re_.get("m", 1), int, "edges[{}].m", i),
            )
        )
    contracted = _typed(doc.get("contracted", []), list, "contracted")
    for i, c in enumerate(contracted):
        _typed(c, str, "contracted[{}]", i)
    uniform = doc.get("uniform_r")
    r = parse_rational(uniform, "uniform_r") if uniform is not None else None
    graph = DualGraph(tuple(vertices), tuple(edges))
    return LogSurfaceModel(graph, frozenset(contracted), r)


def _unique_fields(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # JSON allows a repeated field; a document does not
        keys = [key for key, _ in pairs]
        raise ParseError(f"duplicate field {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return obj


def _json_document(text: str) -> Any:
    """The JSON value of a document text; every way it can fail is a ParseError."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except ValueError:  # an integer beyond the interpreter's digit limit
        raise ParseError(
            f"JSON number with more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    return doc


def parse_document(text: str) -> LogSurfaceModel:
    return model_from_dict(_json_document(text))


def model_to_dict(model: LogSurfaceModel, name: str = "") -> dict:
    doc: dict[str, Any] = {}
    if name:
        doc["name"] = name
    doc["vertices"] = [
        {
            "id": v.id,
            "weight": v.weight,
            "genus": v.genus,
            "decoration": format_rational(v.decoration),
            "boundary": format_rational(v.boundary),
        }
        for v in model.graph.vertices
    ]
    doc["edges"] = [{"a": e.a, "b": e.b, "m": e.mult} for e in model.graph.edges]
    doc["contracted"] = sorted(model.contracted)
    doc["uniform_r"] = (
        format_rational(model.uniform_r) if model.uniform_r is not None else None
    )
    return doc


def serialize_model(model: LogSurfaceModel, name: str = "") -> str:
    return json_text(model_to_dict(model, name=name))


def json_text(value: Any, _newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for dicts with string keys, lists, str,
    int, bool and None, and a TypeError for anything else.  With an indent,
    json.dumps runs its pure-Python encoder; this escapes strings in C."""
    if isinstance(value, str):
        return _escape(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = _newline + "  "
    if isinstance(value, dict):
        items, ends = [f"{_escape(k)}: {json_text(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, list):
        items, ends = [json_text(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{_newline}{ends[1]}" if items else ends


# ---------------------------------------------------------------------------
# DOT


def _esc(text: str) -> str:
    """Text for a DOT quoted string: backslash and double quote escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(model: LogSurfaceModel, name: str = "graph") -> str:
    """DOT text: labels show -weight, boundary vertices are double circles,
    contracted vertices are grey."""
    lines = [f'graph "{_esc(name)}" {{']
    for v in model.graph.vertices:
        attrs = [f'label="{_esc(v.id)}\\n{-v.weight}"']
        if v.boundary > 0:
            attrs.append("shape=doublecircle")
        else:
            attrs.append("shape=circle")
        if v.id in model.contracted:
            attrs.append('style=filled fillcolor=grey')
        if v.genus:
            attrs.append(f'xlabel="g={v.genus}"')
        lines.append(f'  "{_esc(v.id)}" [{" ".join(attrs)}];')
    for e in sorted(model.graph.edges, key=lambda e: e.pair):
        for _ in range(e.mult):
            lines.append(f'  "{_esc(e.a)}" -- "{_esc(e.b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fixtures


@dataclass(frozen=True)
class FixtureDocument:
    name: str
    reference: str
    model: LogSurfaceModel


FIXTURE_NAMES = (
    "peeling_fn",
    "log_terminality",
    "psi_am_order",
    "cuspidal_cubic",
    "optimal_ass_2",
    "amm_not_dlt",
    "amm_not_dlt_2",
    "partially_almost_minimal",
    "ale_r1",
    "composition_of_nef",
    "ale_2nd_type",
    "reordering1",
    "rod_3_2",
    "d4",
)


def load_fixture(name: str) -> FixtureDocument:
    try:
        text = resources.files("logsurf.fixtures").joinpath(f"{name}.json").read_text()
    except FileNotFoundError:
        raise ParseError(f"no bundled fixture named {name!r}") from None
    doc = _json_document(text)
    model = model_from_dict(doc)
    return FixtureDocument(doc.get("name", name), doc.get("reference", ""), model)


def fixture_corpus() -> list[FixtureDocument]:
    """All bundled fixtures; each parses to a valid model."""
    return [load_fixture(n) for n in FIXTURE_NAMES]
