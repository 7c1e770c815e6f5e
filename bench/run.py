"""Benchmark of the logsurf package, one workload per process.

    python3 bench/run.py --workload amm-trees --seed 1 --seconds 20 --trace 0

Runs from any directory; the package is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Fuller figures
(raw seconds, reference factors, sample counts, problems found) go to
``.bench_work/result-<workload>-seed<seed>-trace<t>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

WORKLOADS = {
    "amm-trees": "amm_trees",
    "germ-census": "germ_census",
    "cli-fixtures": "cli_fixtures",
}
SETUP_REPS = 3


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Timeline:
    """Times operations in chunks of about ``chunk_s`` raw seconds; each
    chunk is bracketed by the reference computation and its times are scaled
    to reference speed.  Garbage is collected between chunks, untimed."""

    def __init__(self, bracket, chunk_s: float) -> None:
        self.bracket, self.chunk_s = bracket, chunk_s
        self.ops: list[tuple[float, float, bool]] = []  # (raw s, factor, timed), in order
        self.elapsed = 0.0  # reference seconds of the operations in ``ops``
        self._open: list[tuple[float, bool]] = []
        self._open_s = 0.0
        self._factor = 1.0  # of the last chunk, an estimate for the open one

    def add(self, raw: float, timed: bool) -> None:
        self._open.append((raw, timed))
        self._open_s += raw
        if self._open_s >= self.chunk_s:
            self.close()

    def elapsed_estimate(self) -> float:
        return self.elapsed + self._open_s * self._factor

    def close(self) -> None:
        if not self._open:
            return
        factor = self._factor = self.bracket.split()
        self.elapsed += self._open_s * factor
        self.ops += [(raw, factor, timed) for raw, timed in self._open]
        self._open.clear()
        self._open_s = 0.0
        gc.collect()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "logsurf" / "__init__.py").is_file():
        print(f"bench: no package source at {src / 'logsurf'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from reference import Bracket

    wall0 = time.perf_counter()
    bracket = Bracket()
    t0 = time.perf_counter()
    import logsurf.cli  # noqa: F401  (every module of the package)
    wl = importlib.import_module(WORKLOADS[args.workload])
    import_raw = time.perf_counter() - t0
    import_s = import_raw * bracket.split()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    setup_raw, setup_ref = [], []
    for rep in range(SETUP_REPS):
        gc.collect()
        bracket.split()
        t0 = time.perf_counter()
        state = wl.setup(args.seed, rep)
        setup_raw.append(time.perf_counter() - t0)
        setup_ref.append(setup_raw[-1] * bracket.split())
    setup_s = import_s + statistics.median(setup_ref)

    # -- measurement ---------------------------------------------------------
    records: dict = {}
    problems: list[str] = []
    attempted = failed = 0
    failures: dict[str, int] = {}
    traced_bytes = 0
    first_ops = 0  # operations in the first TRACE_ROUNDS rounds
    check_raw = 0.0
    gc.collect()
    line = Timeline(bracket, wl.CHUNK_S)
    min_rounds = wl.TRACE_ROUNDS if tracer else 1
    start = time.perf_counter()
    rounds = 0
    for ops in wl.rounds(state):
        tracing = tracer is not None and rounds < wl.TRACE_ROUNDS
        for op in ops:
            if tracing:
                tracer.op, tracer.on = attempted, True
            t0 = time.perf_counter()
            try:
                out, exc = op.fn(), None
            except Exception as e:  # a fault in the program: count it and go on
                out, exc = None, e
            raw = time.perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            fail, rec = (True, f"{type(exc).__name__}: {exc}") if exc else op.digest(out)
            out = None
            attempted += 1
            if fail:
                failed += 1
                name = f"{op.key}: {rec}"
                failures[name] = failures.get(name, 0) + 1
            else:
                if op.key in records:
                    if records[op.key] != rec:
                        problems.append(f"{op.key}: output differs from the first call")
                else:
                    t0 = time.perf_counter()
                    problems += wl.check(state, op.key, rec)
                    check_raw += time.perf_counter() - t0
                    if wl.KEYS_REPEAT:
                        records[op.key] = rec
                if tracing and hasattr(wl, "report_bytes"):
                    traced_bytes += wl.report_bytes(rec)
            line.add(raw, op.timed and not fail)
        rounds += 1
        if rounds == wl.TRACE_ROUNDS:
            first_ops = attempted
        # stop on time at reference speed, so a slow spell of the host does
        # not change which inputs a run gets through
        if line.elapsed_estimate() >= args.seconds and rounds >= min_rounds:
            break
    line.close()
    measured_wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    times = sorted(raw * f for raw, f, timed in line.ops if timed)
    raw_times = [raw for raw, _, timed in line.ops if timed]
    factors = [f for _, f, _ in line.ops]
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "timed_samples": len(times),
        "tail_percentile": wl.TAIL_PCT,
        "samples_beyond_tail": sum(t > percentile(times, wl.TAIL_PCT) for t in times),
        "raw": {
            "import_s": import_raw, "setup_reps_s": setup_raw,
            "timed_sum_s": sum(raw_times),
            "call_quartiles_ms": [q * 1e3 for q in statistics.quantiles(raw_times, n=4)],
            "measured_wall_s": measured_wall, "check_s": check_raw,
            "total_wall_s": time.perf_counter() - wall0,
        },
        "reference_factor": {
            "min": min(factors), "median": statistics.median(factors), "max": max(factors),
        },
        "setup_reps_ref_s": setup_ref, "import_ref_s": import_s,
        "call_quartiles_ms": [q * 1e3 for q in statistics.quantiles(times, n=4)],
        "timed_ms": [round(t * 1e3, 4) for t in times],
        "failures": failures, "problems": problems[:50],
        # the rounds a traced run traces; traced / untraced is the overhead
        "first_rounds_ref_s": sum(raw * f for raw, f, _ in line.ops[:first_ops]),
    }
    if tracer is None:
        result["metrics"] = {
            "calls_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "call_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "call_tail_ms": {"value": percentile(times, wl.TAIL_PCT) * 1e3, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        from spans import metric_names

        values = tracer.per_layer(lambda op: factors[op], traced_bytes)
        result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in metric_names()}
        detail["traced_rounds"] = wl.TRACE_ROUNDS
        detail["spans"] = len(tracer.spans)

    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(WORK / f"spans-{stem}.json")
    detail["metrics"] = result["metrics"]
    (WORK / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for msg in problems[:20]:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
