"""Workload ``amm-trees``: the paper's pipeline on seeded log smooth trees.

Each tree (nothing contracted, weights 1-4, about half of the vertices on the
boundary) goes through ``run_mmp(kind="second")``, ``almost_minimalize`` of
both kinds, ``redundant`` and ``almost_log_exceptional``: five calls, each
one operation.  Few models get many queries each, and the contracted blocks
grow to most of the tree, so this is where the solves under ``pullback`` and
the leading minors of every contraction dominate.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from logsurf import DualGraph, Edge, LogSurfaceModel, Vertex, mmp
from oracle import Surface
from workload import Op

NAME = "amm-trees"
TAIL_PCT = 95
TRACE_ROUNDS = 6  # trees traced for the per-layer metrics
CHUNK_S = 0.08
KEYS_REPEAT = False

# Sizes and boundary coefficients cycle in a fixed order, so every seed runs
# the same mix and only the shapes, weights and boundary flags vary.
SIZES = (16, 18, 20, 22, 24)
RS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))
CALLS = ("run_mmp", "amm_first", "amm_second", "redundant", "ale")


class Tree:
    """Plain data of one tree; ``build`` makes its model."""

    def __init__(self, rng: random.Random, n: int, r: Fraction, tag: str) -> None:
        self.tag = tag
        self.ids = [f"{tag}{i:02d}" for i in range(n)]
        self.weights = [rng.randint(1, 4) for _ in self.ids]
        self.flagged = [rng.random() < 0.5 for _ in self.ids]
        self.edges = [(self.ids[rng.randrange(i)], self.ids[i]) for i in range(1, n)]
        self.r = r
        self.model = None

    def __repr__(self) -> str:
        return f"tree {self.tag}"

    def build(self) -> LogSurfaceModel:
        self.model = LogSurfaceModel(
            DualGraph(
                tuple(Vertex(v, w, boundary=Fraction(int(f)))
                      for v, w, f in zip(self.ids, self.weights, self.flagged)),
                tuple(Edge(a, b) for a, b in self.edges),
            ),
            frozenset(),
            self.r,
        )
        return self.model

    def surface(self) -> Surface:
        return Surface(
            dict(zip(self.ids, self.weights)),
            boundary={v: Fraction(1) for v, f in zip(self.ids, self.flagged) if f},
            mult={frozenset(e): 1 for e in self.edges},
            r=self.r,
        )


def _tree(rng: random.Random, i: int, tag: str) -> Tree:
    return Tree(rng, SIZES[i % len(SIZES)], RS[i % len(RS)], f"{tag}{i}_")


def setup(seed: int, rep: int) -> dict:
    """Warm up on two trees that depend on the repetition but not on the seed,
    so that set-up time compares across seeds; the measured trees come from
    the seed's own stream, made one at a time as the run reaches them."""
    warm = random.Random(f"{NAME}:warm:{rep}")
    for i in range(2):
        tree = _tree(warm, i, "w")
        for call in CALLS:
            _call(tree, call)
    return {"rng": random.Random(f"{NAME}:{seed}")}


def _call(tree: Tree, call: str):
    if call == "run_mmp":  # the first call on a tree builds its model
        return mmp.run_mmp(tree.build(), kind="second")
    if call == "amm_first":
        return mmp.almost_minimalize(tree.model, kind="first")
    if call == "amm_second":
        return mmp.almost_minimalize(tree.model, kind="second")
    if call == "redundant":
        return mmp.redundant(tree.model)
    return mmp.almost_log_exceptional(tree.model)


def _steps(run) -> tuple:
    return tuple((s.vertex, s.kind, s.self_int, s.pairing) for s in run.steps)


def digest(call: str, out) -> tuple:
    if call == "run_mmp":
        return _steps(out), out.final_contracted
    if call.startswith("amm"):
        ladder = tuple(
            (rung.model.contracted, rung.peeling_exc,
             None if rung.verdict is None else
             (rung.verdict.tcf, rung.verdict.is_lc, rung.verdict.is_dlt))
            for rung in out.ladder
        )
        return (_steps(out.am), out.am.final.contracted, out.min_exceptional,
                _steps(out.run), ladder)
    return tuple((v.vertex, v.kind, v.self_int, v.pairing) for v in out)


def rounds(state: dict) -> Iterator[list[Op]]:
    i = 0
    while True:
        tree = _tree(state["rng"], i, "v")
        yield [
            Op((tree, call), (lambda t=tree, c=call: _call(t, c)),
               (lambda out, c=call: (False, digest(c, out))))
            for call in CALLS
        ]
        i += 1


# ---------------------------------------------------------------------------
# checks


def _check_run(surf: Surface, steps, kind: str, boundary: bool, problems: list, what: str):
    """Replay a run with the oracle: each step's self-intersection and pairing
    (with K+D, or K alone) on the model before it, and the allowed kind."""
    contracted = set()
    for vertex, step_kind, self_int, pairing in steps:
        before = surf.with_contracted(contracted)
        if not boundary:
            before = before.without_boundary()
        s, p = before.verdicts([vertex])[vertex]
        if (s, p) != (self_int, pairing):
            problems.append(f"{what}: step {vertex} reports ({self_int}, {pairing}), oracle ({s}, {p})")
        if not (s < 0 and (p < 0 or (kind == "second" and p == 0))):
            problems.append(f"{what}: step {vertex} is not log exceptional of the {kind} kind")
        if step_kind != ("first" if p < 0 else "second"):
            problems.append(f"{what}: step {vertex} has kind {step_kind}")
        contracted.add(vertex)
    return contracted


def check(state: dict, key, record) -> list[str]:
    tree, call = key
    what = f"{tree!r} {call}"
    start = tree.surface()
    problems: list[str] = []
    if call == "run_mmp":
        steps, final = record
        contracted = _check_run(start, steps, "second", True, problems, what)
        end = start.with_contracted(contracted)
        if contracted != final:
            problems.append(f"{what}: final contracted set differs from the steps")
        if not end.negative_definite():
            problems.append(f"{what}: contracted set is not negative definite")
        if end.log_exceptional("second"):
            problems.append(f"{what}: log exceptional curves remain on the final model")
    elif call.startswith("amm"):
        kind = call.split("_")[1]
        am_steps, am_final, min_exc, psi_steps, ladder = record
        contracted = _check_run(start, am_steps, "first", False, problems, what + " psi_am")
        if contracted != am_final:
            problems.append(f"{what}: almost minimal contracted set differs from the steps")
        psi = _check_run(start, psi_steps, kind, True, problems, what + " psi")
        if psi != am_final | min_exc:
            problems.append(f"{what}: psi contracts {sorted(psi)}, not psi_am + psi_min")
        am = start.with_contracted(am_final)
        if not am.negative_definite() or not start.with_contracted(psi).negative_definite():
            problems.append(f"{what}: a contracted set is not negative definite")
        cf = am.coefficients()
        if any(c > tree.r for c in cf.values()):
            problems.append(f"{what}: almost minimal model is not (1-r)-lc: max cf {max(cf.values())} > r = {tree.r}")
        if kind == "first" and not min_exc <= {v for v, f in zip(tree.ids, tree.flagged) if f}:
            problems.append(f"{what}: psi_min contracts a non-boundary curve")
        for rung_contracted, _peeling, verdict in ladder:
            rung = start.with_contracted(rung_contracted)
            tcf = rung.total_coefficient()
            cfs = rung.coefficients().values()
            want = (tcf, tcf <= tree.r, tcf <= tree.r and all(c < tree.r for c in cfs))
            if verdict != want:
                problems.append(f"{what}: ladder verdict {verdict}, oracle {want}")
    else:
        # the peeling the call computed internally, recomputed outside any
        # timing: a pure peeling (boundary curves with K.l >= 0 only, each
        # step log exceptional) to which no further curve can be added
        peeling = mmp.peel(tree.model, kind="second", pure=True)
        exc = _check_run(start, _steps(peeling.run), "second", True, problems, what + " peel")
        peeled = start.with_contracted(exc)
        flagged = {v for v, f in zip(tree.ids, tree.flagged) if f}
        k_dot = {v: start.k_dot(v) for v in tree.ids}  # K.l on the smooth start
        if not exc <= flagged or any(k_dot[v] < 0 for v in exc):
            problems.append(f"{what}: peeling {sorted(exc)} is not pure")
        verdicts = peeled.verdicts(peeled.noncontracted())
        exceptional = {v for v, (s, p) in verdicts.items() if s < 0 and p <= 0}
        if any(k_dot[v] >= 0 for v in exceptional & flagged):
            problems.append(f"{what}: peeling {sorted(exc)} is not maximal")
        if call == "redundant":
            want = {v for v in exceptional & flagged if k_dot[v] < 0}
        else:  # a second-kind image counts only if K.l != 0
            want = {v for v in exceptional - flagged if verdicts[v][1] < 0 or k_dot[v] != 0}
        got = [vertex for vertex, *_ in record]
        if sorted(got) != sorted(want):
            problems.append(f"{what}: returns {sorted(got)}, oracle {sorted(want)}")
        for vertex, kind, self_int, pairing in record:
            if vertex not in verdicts:
                continue
            s, p = verdicts[vertex]
            if (s, p) != (self_int, pairing):
                problems.append(f"{what}: {vertex} reports ({self_int}, {pairing}), oracle ({s}, {p})")
            if kind != ("first" if p < 0 else "second"):
                problems.append(f"{what}: {vertex} has kind {kind}")
    return problems
