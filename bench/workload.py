"""What a workload module hands to the harness in ``run.py``."""

from __future__ import annotations

from typing import Any, Callable, NamedTuple


class Op(NamedTuple):
    """One operation: ``fn`` runs it (and alone is timed); ``digest`` turns
    its output into (failed, record) outside the timing.  The first record of
    a ``key`` is checked against the oracle; where keys repeat (the module
    sets ``KEYS_REPEAT``), later records must equal it.  Operations with
    ``timed`` false count in attempted and failed but stay out of the timing
    metrics."""

    key: Any
    fn: Callable[[], Any]
    digest: Callable[[Any], tuple[bool, Any]]
    timed: bool = True
