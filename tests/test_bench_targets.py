"""The benchmark's span table names functions of the package by string: a
rename or a deletion would surface only as a crashed ``--trace 1`` run, so
every entry is resolved here the way ``bench/spans.py`` resolves it."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, _span in spans.TARGETS:
        home = importlib.import_module(f"logsurf.{module}")
        cls, _, name = attr.rpartition(".")
        assert (name in vars(getattr(home, cls))) if cls else callable(getattr(home, name)), attr
