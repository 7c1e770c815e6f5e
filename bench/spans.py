"""Spans around the package's layer boundaries, recorded from outside.

``install`` replaces each traced function of ``logsurf`` with a wrapper that
records a span (name, start, end, parent span, operation id) while the tracer
is on.  A name bound elsewhere with ``from .x import y`` is replaced in every
module that holds it, so calls between modules are caught too.  Spans stay in
memory; ``per_layer`` derives call counts and self time (duration minus the
time covered by child spans) and ``dump`` writes the spans out at the end.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from functools import cached_property
from typing import Callable, Optional

# (module, attribute, span name); "Class.attr" names a method or a cached
# property.  The order fixes the order of the per-layer metrics.
TARGETS = (
    ("linalg", "solve_int", "linalg.solve_int"),
    ("linalg", "leading_minors", "linalg.leading_minors"),
    ("linalg", "bareiss_det", "linalg.bareiss_det"),
    ("graph", "LogSurfaceModel.__post_init__", "graph.model_build"),
    ("graph", "is_negative_definite", "graph.is_negative_definite"),
    ("graph", "LogSurfaceModel.pullback", "graph.pullback"),
    ("graph", "LogSurfaceModel.coefficients", "graph.coefficients"),
    ("graph", "LogSurfaceModel.contract", "graph.contract"),
    ("graph", "find_shapes", "graph.find_shapes"),
    ("invariants", "discriminant", "invariants.discriminant"),
    ("invariants", "chain_data", "invariants.chain_data"),
    ("invariants", "total_coefficient", "invariants.total_coefficient"),
    ("classify", "classify_germ", "classify.classify_germ"),
    ("classify", "classify_half", "classify.classify_half"),
    ("classify", "duval_type", "classify.duval_type"),
    ("classify", "eps_check", "classify.eps_check"),
    ("classify", "alexeev_compare", "classify.alexeev_compare"),
    ("mmp", "curve_verdict", "mmp.curve_verdict"),
    ("mmp", "run_mmp", "mmp.run_mmp"),
    ("mmp", "almost_minimalize", "mmp.almost_minimalize"),
    ("mmp", "relative_mmp", "mmp.relative_mmp"),
    ("mmp", "peel", "mmp.peel"),
    ("mmp", "redundant", "mmp.redundant"),
    ("mmp", "almost_log_exceptional", "mmp.almost_log_exceptional"),
    ("mmp", "enumerate_runs", "mmp.enumerate_runs"),
    ("documents", "model_from_dict", "documents.model_from_dict"),
    ("documents", "to_dot", "documents.to_dot"),
    ("cli", "run_command", "cli.run_command"),
    ("cli", "main", "cli.main"),
)

# spans whose call counts, and spans whose self times, are per-layer metrics
_CALLS = (
    "linalg.solve_int", "linalg.leading_minors", "linalg.bareiss_det",
    "graph.is_negative_definite", "graph.pullback", "graph.coefficients",
    "graph.find_shapes", "invariants.discriminant", "invariants.chain_data",
    "invariants.total_coefficient", "classify.classify_germ", "classify.classify_half",
    "classify.duval_type", "classify.eps_check", "classify.alexeev_compare",
    "mmp.curve_verdict", "documents.model_from_dict",
)
_SELF_MS = _CALLS[:-1] + (
    "graph.model_build", "mmp.run_mmp", "mmp.almost_minimalize", "mmp.relative_mmp",
    "mmp.peel", "mmp.redundant", "mmp.almost_log_exceptional", "mmp.enumerate_runs",
    "documents.model_from_dict", "documents.to_dot", "cli.run_command", "cli.main",
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{s}.calls", "count") for s in _CALLS]
    names += [("linalg.solve_int.rows", "count"), ("graph.model_builds", "count"),
              ("mmp.steps", "count"), ("mmp.verdicts_per_step", "1/step"),
              ("cli.report_bytes", "bytes")]
    names += [(f"{s}.self_ms", "ms") for s in _SELF_MS]
    return names


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self.spans: list[Optional[tuple]] = []  # (name index, start, end, parent, op)
        self.rows = 0  # sum of matrix orders passed to linalg.solve_int
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_rows = name == "linalg.solve_int"

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if count_rows:
                self.rows += len(args[0])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (idx, t0, clock(), parent, self.op)
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target in every ``logsurf`` module."""
        homes = {m: importlib.import_module(f"logsurf.{m}") for m, _, _ in TARGETS}
        modules = [m for n, m in sys.modules.items() if n == "logsurf" or n.startswith("logsurf.")]
        for mod_name, attr, span in TARGETS:
            home = homes[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, cached_property):
                    prop = cached_property(self._wrap(span, orig.func))
                    prop.__set_name__(cls, meth)
                    setattr(cls, meth, prop)
                else:
                    setattr(cls, meth, self._wrap(span, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(span, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def per_layer(self, factor_of_op: Callable[[int], float], report_bytes: int) -> dict:
        """Counts and self times over every recorded span; times in ms at
        reference speed (each span scaled by its operation's factor)."""
        child = [0.0] * len(self.spans)
        for _idx, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        for sid, (idx, t0, t1, _parent, op) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            self_ms[name] += (t1 - t0 - child[sid]) * factor_of_op(op) * 1e3
        steps = calls["graph.contract"]
        out: dict = {f"{s}.calls": calls[s] for s in _CALLS}
        out.update({
            "linalg.solve_int.rows": self.rows,
            "graph.model_builds": calls["graph.model_build"],
            "mmp.steps": steps,
            "mmp.verdicts_per_step": calls["mmp.curve_verdict"] / steps if steps else 0.0,
            "cli.report_bytes": report_bytes,
        })
        out.update({f"{s}.self_ms": self_ms[s] for s in _SELF_MS})
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name_index", "start_s", "end_s", "parent", "op"],
                       "names": self.names, "spans": self.spans}, fh)
