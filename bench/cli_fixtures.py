"""Workload ``cli-fixtures``: ``logsurf.cli.main`` in process on the bundled
fixtures, plus a slice of malformed documents.

One round calls every command on every fixture, with ``--kind first`` and
``second`` and with the document's own boundary coefficient and ``--r`` 0,
1/2 and 1, always with ``--json --out``: 13 x 14 x 2 x 4 = 1456 calls, in an
order shuffled by the seed.  Each call is one operation.  This is the only
workload for ``documents`` and ``cli`` (parsing, report building, JSON
encoding, the file write) and it covers the paper's own examples.

The round also feeds eleven malformed inputs, each of which should end in exit
code 2 with a message naming the offending field.  They count in attempted
and failed but never in the timing metrics.
"""

from __future__ import annotations

import atexit
import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from logsurf import cli
from oracle import Surface
from workload import Op

NAME = "cli-fixtures"
TAIL_PCT = 99.5
TRACE_ROUNDS = 1
CHUNK_S = 0.05
KEYS_REPEAT = True

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "logsurf" / "fixtures"
SCHEMA = ROOT / "src" / "logsurf" / "schema" / "report.schema.json"
WORK = ROOT / ".bench_work" / f"cli-{os.getpid()}"  # removed when the process exits
KINDS = ("first", "second")
RS = (None, "0", "1/2", "1")

_TWO = [{"id": "a", "weight": 2}, {"id": "b", "weight": 2}]
# name -> (document, or text that is not JSON; words one of which the error
# message must contain)
MALFORMED = {
    "invalid-json": ('{"vertices": [', ("JSON",)),
    "vertices-number": ({"vertices": 3}, ("vertices",)),
    "vertex-not-object": ({"vertices": [3]}, ("vertices[0]",)),
    "genus-text": ({"vertices": [{"id": "a", "weight": 2, "genus": "x"}]}, ("genus",)),
    "edge-m-text": ({"vertices": _TWO, "edges": [{"a": "a", "b": "b", "m": "x"}]},
                    ("edges[0]", "'m'", "multiplicity")),
    "boundary-1/0": ({"vertices": [{"id": "a", "weight": 2, "boundary": "1/0"}]}, ("boundary",)),
    "edges-number": ({"vertices": _TWO, "edges": 5}, ("edges",)),
    "genus-1.5": ({"vertices": [{"id": "a", "weight": 2, "genus": 1.5}]}, ("genus",)),
    "weight-true": ({"vertices": [{"id": "a", "weight": True}]}, ("weight",)),
    "contracted-string": ({"vertices": _TWO, "edges": [{"a": "a", "b": "b"}],
                           "contracted": "ab"}, ("contracted",)),
    "out-unwritable": (None, ("--out", "missing")),
}


def _invoke(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # usage errors
        code = exc.code
    return code, err.getvalue()


def _argv(command: str, path: Path, kind: str, r, out: Path) -> list[str]:
    argv = [command, str(path), "--kind", kind, "--json", "--out", str(out)]
    return argv + ["--r", r] if r is not None else argv


def setup(seed: int, rep: int) -> dict:
    """Write the input documents and call every command once on two fixtures."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    atexit.register(shutil.rmtree, WORK, True)
    docs = {}
    for src in sorted(FIXTURES.glob("*.json")):
        docs[src.stem] = json.loads(src.read_text())
        (WORK / src.name).write_text(src.read_text())
    for name, (doc, _) in MALFORMED.items():
        if doc is not None:
            text = doc if isinstance(doc, str) else json.dumps(doc)
            (WORK / f"bad-{name.replace('/', '_')}.json").write_text(text)
    out = WORK / "report.json"
    for fixture in ("d4", "cuspidal_cubic"):
        for command in cli.COMMANDS:
            _invoke(_argv(command, WORK / f"{fixture}.json", "first", None, out))
    return {"seed": seed, "docs": docs, "out": out}


def _grid_digest(state: dict, key):
    command, fixture, _kind, r = key

    def digest(result):
        code, err = result
        if code == 0:
            return False, (0, state["out"].read_bytes())
        if code == 2 and command == "classify" and state["outside"][(fixture, r)]:
            return False, (2, err)
        return True, f"exit {code}: {err.strip()[-200:]}"

    return digest


def _malformed_digest(needles):
    def digest(result):
        code, err = result
        if code == 2 and any(n in err for n in needles):
            return False, (2, err)
        return True, f"exit {code}, wanted 2 naming {needles[0]!r}: {err.strip()[-200:]}"

    return digest


def rounds(state: dict) -> Iterator[list[Op]]:
    out = state["out"]
    # inputs outside the hypothesis of `classify`: nothing contracted and a
    # whole graph that is not negative definite (oracle)
    state["outside"] = {}
    for fixture, doc in state["docs"].items():
        for r in RS:
            surf = Surface.from_document(doc, None if r is None else Fraction(r))
            state["outside"][(fixture, r)] = (
                not surf.contracted and not surf.negative_definite(surf.weight))
    grid = []
    for command in cli.COMMANDS:
        for fixture in state["docs"]:
            for kind in KINDS:
                for r in RS:
                    key = (command, fixture, kind, r)
                    argv = _argv(command, WORK / f"{fixture}.json", kind, r, out)
                    grid.append(Op(key, (lambda a=argv: _invoke(a)), _grid_digest(state, key)))
    for name, (doc, needles) in MALFORMED.items():
        if doc is None:
            argv = _argv("coeffs", WORK / "d4.json", "first", None, WORK / "missing" / "r.json")
        else:
            argv = _argv("coeffs", WORK / f"bad-{name.replace('/', '_')}.json", "first", None, out)
        grid.append(Op(("malformed", name), (lambda a=argv: _invoke(a)),
                       _malformed_digest(needles), timed=False))
    n = 0
    while True:
        ops = list(grid)
        random.Random(f"{NAME}:{state['seed']}:{n}").shuffle(ops)
        yield ops
        n += 1


def report_bytes(record) -> int:
    return len(record[1]) if record[0] == 0 else 0


# ---------------------------------------------------------------------------
# checks


def check(state: dict, key, record) -> list[str]:
    if key[0] == "malformed" or record[0] != 0:
        return []
    import jsonschema

    if "validator" not in state:
        state["validator"] = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    command, fixture, kind, r = key
    what = f"{command} {fixture} --kind {kind} --r {r}"
    report = json.loads(record[1])
    problems = [f"{what}: {e.message}" for e in state["validator"].iter_errors(report)]
    surf = Surface.from_document(state["docs"][fixture], None if r is None else Fraction(r))
    res = report["result"]
    if command == "coeffs":
        cf = surf.coefficients()
        got = {v: Fraction(c) for v, c in res["cf"].items()}
        if got != cf or any(Fraction(res["ld"][v]) != 1 - c for v, c in cf.items()):
            problems.append(f"{what}: cf {res['cf']} differ from the oracle {cf}")
    elif command == "discriminant":
        want = {
            "all": surf.discriminant(surf.weight),
            "contracted": surf.discriminant(surf.contracted),
            "components": {"+".join(c): surf.discriminant(c) for c in surf.components(surf.weight)},
        }
        if res != want:
            problems.append(f"{what}: {res} differs from the oracle {want}")
    elif command == "mmp":
        contracted = set(surf.contracted)
        for step in res["steps"]:
            v = step["vertex"]
            s, p = surf.with_contracted(contracted).verdicts([v])[v]
            if (Fraction(step["self_int"]), Fraction(step["pairing"])) != (s, p):
                problems.append(f"{what}: step {v} reports ({step['self_int']}, {step['pairing']}), oracle ({s}, {p})")
            if not (s < 0 and (p < 0 or (kind == "second" and p == 0))) or \
                    step["kind"] != ("first" if p < 0 else "second"):
                problems.append(f"{what}: step {v} is not log exceptional of the {kind} kind")
            contracted.add(v)
        end = surf.with_contracted(contracted)
        if sorted(contracted) != res["final_contracted"] or \
                res["remaining_vertices"] != len(surf.weight) - len(contracted):
            problems.append(f"{what}: final model does not match the steps")
        if not end.negative_definite() or end.log_exceptional(kind):
            problems.append(f"{what}: final model is not a minimal model of the {kind} kind")
    return problems
