"""Scaling reference: ``run_mmp(kind="second")`` and ``almost_minimalize`` on
one seeded log smooth tree per size (weights 1-4, about half of the vertices
on the boundary, r = 1/2), timed at reference speed, with per-layer counts
from a second, traced pass.  Not a workload of the benchmark.

    python3 bench/scaling.py

Prints a Markdown table and writes ``.bench_work/scaling.json``.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ("linalg.solve_int.calls", "linalg.solve_int.rows", "linalg.bareiss_det.calls",
          "graph.model_builds", "graph.pullback.calls", "mmp.curve_verdict.calls", "mmp.steps")
SIZES = (10, 20, 40, 80)  # the sizes of the ROADMAP table
SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from amm_trees import Tree
    from logsurf import mmp
    from reference import Bracket
    from spans import Tracer

    calls = {
        "run_mmp": lambda m: mmp.run_mmp(m, kind="second"),
        "almost_minimalize": lambda m: mmp.almost_minimalize(m),
    }
    rows = []
    tracer = Tracer()
    tracer.install()
    for n in SIZES:
        tree = Tree(random.Random(f"scaling:{SEED}:{n}"), n, Fraction(1, 2), "v")
        for name, call in calls.items():
            gc.collect()
            bracket = Bracket()
            t0 = time.perf_counter()
            call(tree.build())
            raw = time.perf_counter() - t0
            ref = raw * bracket.split()
            tracer.spans.clear()
            tracer.rows = 0
            tracer.on = True
            out = call(tree.build())
            tracer.on = False
            counts = tracer.per_layer(lambda op: 1.0, 0)
            rows.append({"n": n, "call": name, "raw_s": raw, "ref_s": ref,
                         "steps_returned": len(out.steps if name == "run_mmp" else out.run.steps),
                         **{k: counts[k] for k in COUNTS}})
    print("| n | call | raw s | reference s | " + " | ".join(COUNTS) + " |")
    print("|---" * (4 + len(COUNTS)) + "|")
    for r in rows:
        print(f"| {r['n']} | `{r['call']}` | {r['raw_s']:.3f} | {r['ref_s']:.3f} | "
              + " | ".join(str(r[k]) for k in COUNTS) + " |")
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    (work / "scaling.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
