"""Workload ``germ-census``: many small resolution germs, one query set each.

Each seeded germ (1-12 curves: chains, forks, trees and some cycles, some
with integral boundary decorations) is built from plain data and goes through
``GermGraph`` construction, ``classify_germ``, ``duval_type``,
``classify_half`` (both lists) and ``eps_check``; about half of the germs
with a leaf also get ``alexeev_compare`` against an embedded subgerm.  One
germ's whole query set is one operation.  Every germ is built anew and most
differ from all earlier ones, so a cache keyed by graph or model gets few
hits here and its fill-up cost shows.

A round is ``BATCH`` seeded germs plus the ``FIXED`` germs, the same in every
round and for every seed, on which the program is wrong today.  The fixed
germs are checked like the others, count as failed while the check finds a
fault, and are never timed, so mending the faults moves only the failure
count.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Optional

from logsurf import DualGraph, Edge, GermGraph, NotApplicable, NotLogTerminal, Vertex, classify
from oracle import Surface
from workload import Op

NAME = "germ-census"
TAIL_PCT = 99.5
BATCH = 50  # seeded germs a round
TRACE_ROUNDS = 8  # rounds (400 seeded germs) traced for the per-layer metrics
CHUNK_S = 0.05
KEYS_REPEAT = False

HALF = Fraction(1, 2)
EPS = (Fraction(0), Fraction(1, 6), HALF)
WEIGHTS = (2, 2, 2, 2, 2, 3, 3, 3, 4, 5)


class Germ:
    """Plain data of one germ: vertices (id, weight, genus, decoration) and
    edges (a, b, multiplicity), plus an optional embedded subgerm."""

    def __init__(self, vertices, edges, eps: Fraction) -> None:
        self.vertices, self.edges, self.eps = vertices, edges, eps
        self.sub: Optional[tuple] = None  # (vertices, edges)

    def __repr__(self) -> str:
        return f"germ {[v[1:] for v in self.vertices]} {[e[:2] for e in self.edges]}"

    def surface(self, vertices=None, edges=None) -> Surface:
        vertices = self.vertices if vertices is None else vertices
        edges = self.edges if edges is None else edges
        return Surface(
            {v: w for v, w, _, _ in vertices},
            genus={v: g for v, _, g, _ in vertices},
            decoration={v: Fraction(d) for v, _, _, d in vertices},
            mult={frozenset((a, b)): m for a, b, m in edges},
            contracted=frozenset(v for v, *_ in vertices),
        )


def _shape(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges (as index pairs) of a random connected shape."""
    kind = rng.choices(("chain", "fork", "tree", "cycle"), (35, 25, 25, 15))[0]
    if kind == "chain":
        n = rng.randint(1, 12)
        return n, [(i - 1, i) for i in range(1, n)]
    if kind == "fork":
        n = rng.randint(4, 12)
        cuts = sorted(rng.sample(range(1, n - 1), 2))
        lengths = (cuts[0], cuts[1] - cuts[0], n - 1 - cuts[1])
        edges, nxt = [], 1
        for length in lengths:
            prev = 0
            for _ in range(length):
                edges.append((prev, nxt))
                prev, nxt = nxt, nxt + 1
        return n, edges
    if kind == "tree":
        n = rng.randint(2, 12)
        return n, [(rng.randrange(i), i) for i in range(1, n)]
    n = rng.randint(3, 12)
    c = rng.randint(3, min(n, 8))
    edges = [(i - 1, i) for i in range(1, c)] + [(0, c - 1)]
    return n, edges + [(rng.randrange(i), i) for i in range(c, n)]


def random_germ(rng: random.Random, tag: str) -> Germ:
    while True:
        eps = rng.choice(EPS)
        if rng.random() < 0.03:
            # an elliptic curve alone, of weight 1 or 2 only: classify_half
            # ignores genus, and weights 3 and 4 are in FIXED instead
            germ = Germ([(f"{tag}0", rng.randint(1, 2), 1, 0)], [], eps)
        else:
            n, pairs = _shape(rng)
            ids = [f"{tag}{i}" for i in range(n)]
            deg = [0] * n
            for a, b in pairs:
                deg[a] += 1
                deg[b] += 1
            dec = [0] * n
            if rng.random() < 0.4:
                tips = [i for i in range(n) if deg[i] <= 1] or list(range(n))
                for _ in range(rng.randint(1, 2)):
                    pick = rng.choice(tips if rng.random() < 0.6 else range(n))
                    # contacts of 1 only: classify_germ misreads a contact of
                    # 2 at a chain end, which FIXED holds instead
                    dec[pick] = 1
            germ = Germ(
                [(ids[i], rng.choice(WEIGHTS), 0, dec[i]) for i in range(n)],
                [(ids[a], ids[b], 1) for a, b in pairs],
                eps,
            )
        surf = germ.surface()
        if not surf.negative_definite():
            continue
        if len(germ.vertices) > 1 and rng.random() < 0.5:
            germ.sub = _subgerm(rng, germ)
        return germ


def _subgerm(rng: random.Random, germ: Germ) -> Optional[tuple]:
    """Drop a leaf, maybe lower one weight and clear one decoration; the
    result embeds in the germ by the identity on ids."""
    deg: dict[str, int] = {v: 0 for v, *_ in germ.vertices}
    for a, b, _ in germ.edges:
        deg[a] += 1
        deg[b] += 1
    leaves = [v for v, d in deg.items() if d == 1]
    if not leaves:
        return None
    leaf = rng.choice(leaves)
    vertices = [list(v) for v in germ.vertices if v[0] != leaf]
    heavy = [v for v in vertices if v[1] >= 3]
    if heavy and rng.random() < 0.5:
        rng.choice(heavy)[1] -= 1
    decorated = [v for v in vertices if v[3]]
    if decorated and rng.random() < 0.5:
        rng.choice(decorated)[3] = 0
    vertices = [tuple(v) for v in vertices]
    edges = [e for e in germ.edges if leaf not in e[:2]]
    if not germ.surface(vertices, edges).negative_definite():
        return None
    return vertices, edges


def _graph(vertices, edges) -> DualGraph:
    return DualGraph(
        tuple(Vertex(v, w, genus=g, decoration=d) for v, w, g, d in vertices),
        tuple(Edge(a, b, m) for a, b, m in edges),
    )


def _half(germ: GermGraph, strict: bool):
    try:
        hc = classify.classify_half(germ, strict=strict)
    except NotApplicable:
        return None
    return hc.tag, hc.formula, hc.coefficients


def census(germ: Germ):
    graph = _graph(germ.vertices, germ.edges)
    gg = GermGraph(graph)
    tag = classify.classify_germ(gg).tag
    dv = classify.duval_type(graph)
    strict, equal = _half(gg, True), _half(gg, False)
    ev = classify.eps_check(gg.model, germ.eps)
    cmp = None
    if germ.sub is not None:
        sub = GermGraph(_graph(*germ.sub))
        try:
            v = classify.alexeev_compare(sub, gg, {x: x for x in sub.graph.ids})
            cmp = (v.strict, v.du_val, v.values_sub, v.values_super)
        except NotLogTerminal:  # an answer, not a fault; the check compares it
            cmp = "NotLogTerminal"
    return tag, dv, strict, equal, (ev.tcf, ev.is_lc, ev.is_dlt, ev.witness_cf), cmp


def setup(seed: int, rep: int) -> dict:
    """Warm up on a few germs that depend on the repetition but not on the
    seed, so that set-up time compares across seeds; the measured germs come
    from the seed's own stream, made one at a time as the run reaches them."""
    warm = random.Random(f"{NAME}:warm:{rep}")
    for _ in range(30):
        census(random_germ(warm, "w"))
    return {"rng": random.Random(f"{NAME}:{seed}")}


# Germs the program gets wrong today: a chain
# with a boundary contact of 2 at one end, which classify_germ calls
# LC-Segment although its coefficients are 4/3 and 2/3, and lone elliptic
# curves of weight 3 and 4, which classify_half puts on the strict and the
# equal list although their coefficient is 1.  Outside the seeded draws,
# which would meet them only for some seeds.
FIXED = (
    Germ([("c0", 2, 0, 2), ("c1", 2, 0, 0)], [("c0", "c1", 1)], Fraction(0)),
    Germ([("e0", 3, 1, 0)], [], Fraction(0)),
    Germ([("e0", 4, 1, 0)], [], Fraction(0)),
)


def _fixed_digest(germ: Germ):
    def digest(record):
        problems = check({}, germ, record)
        return (True, problems[0]) if problems else (False, record)

    return digest


def rounds(state: dict) -> Iterator[list[Op]]:
    while True:
        ops = []
        for _ in range(BATCH):
            germ = random_germ(state["rng"], "g")
            ops.append(Op(germ, (lambda g=germ: census(g)), lambda out: (False, out)))
        for germ in FIXED:
            ops.append(Op(germ, (lambda g=germ: census(g)), _fixed_digest(germ), timed=False))
        yield ops


# ---------------------------------------------------------------------------
# checks


def _class(max_cf: Fraction) -> str:
    return "LT" if max_cf < 1 else "LC" if max_cf == 1 else "NotLC"


def check(state: dict, germ: Germ, record) -> list[str]:
    surf = germ.surface()
    tag, dv, strict, equal, ev, cmp = record
    problems = []
    what = repr(germ)
    cf = surf.coefficients()
    top = max(cf.values())
    want = _class(top)
    if (tag.split("-")[0] if tag != "NotLC" else tag) != want:
        problems.append(f"{what}: classify_germ says {tag}, oracle max cf {top} ({want})")
    is_duval = (surf.is_tree() and all(w == 2 for w in surf.weight.values())
                and not any(surf.genus.values()) and not any(surf.decoration.values()))
    if (dv is not None) != is_duval:
        problems.append(f"{what}: duval_type {dv}, oracle du Val {is_duval}")
    if dv is not None:
        n = len(surf.weight)
        d = {"A": n + 1, "D": 4, "E": 9 - n}[dv[0]]
        if surf.discriminant(surf.weight) != d or int(dv.split("_")[1]) != n:
            problems.append(f"{what}: duval_type {dv} does not match the discriminant")
    at_half = surf.coefficients(theta_scale=HALF)
    top_half = max(at_half.values())
    for entry, is_strict in ((strict, True), (equal, False)):
        if entry is None:
            # the lists cover every log terminal germ with max cf <= 1/2
            if top < 1 and (top_half < HALF if is_strict else top_half == HALF):
                problems.append(f"{what}: classify_half strict={is_strict} refused a "
                                f"log terminal germ with max cf {top_half} at r = 1/2")
            continue
        _tag, _formula, values = entry
        if values != at_half:
            problems.append(f"{what}: classify_half {entry} differs from the oracle at r = 1/2")
        if (top_half < HALF) != is_strict or top_half > HALF:
            problems.append(f"{what}: classify_half strict={is_strict} with max cf {top_half}")
    bound = 1 - germ.eps
    want_ev = (top, top <= bound, top <= bound and all(c < bound for c in cf.values()), top)
    if ev != want_ev:
        problems.append(f"{what}: eps_check {ev}, oracle {want_ev}")
    if germ.sub is not None:
        sub_cf = germ.surface(*germ.sub).coefficients()
        lt = top < 1 and max(sub_cf.values()) < 1
        if cmp == "NotLogTerminal":
            if lt:
                problems.append(f"{what}: alexeev_compare refused two log terminal germs")
        elif not lt:
            problems.append(f"{what}: alexeev_compare accepted a germ that is not log terminal")
        else:
            strict_cmp, du_val, values_sub, values_super = cmp
            diffs = [cf[v] - c for v, c in sub_cf.items()]
            if values_sub != sub_cf or values_super != cf:
                problems.append(f"{what}: alexeev_compare coefficients differ from the oracle")
            if min(diffs) < 0:
                problems.append(f"{what}: coefficients are not monotone under the embedding")
            if strict_cmp != all(d > 0 for d in diffs) or du_val != is_duval:
                problems.append(f"{what}: alexeev_compare flags ({strict_cmp}, {du_val})")
    return problems
