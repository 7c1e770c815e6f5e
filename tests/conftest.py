"""Shared builders and randomized-corpus helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from logsurf import (
    DualGraph,
    Edge,
    GermGraph,
    LogSurfaceModel,
    Vertex,
    is_negative_definite,
)

F = Fraction


def chain_graph(*weights, boundary=(), genus=None, decorations=None, prefix="v"):
    """A chain with vertices prefix0..prefixN; boundary/genus/decorations by index."""
    genus = genus or {}
    decorations = decorations or {}
    vs = [
        Vertex(
            f"{prefix}{i}",
            w,
            genus=genus.get(i, 0),
            decoration=F(decorations.get(i, 0)),
            boundary=F(1) if i in boundary else F(0),
        )
        for i, w in enumerate(weights)
    ]
    es = [Edge(f"{prefix}{i}", f"{prefix}{i+1}") for i in range(len(weights) - 1)]
    return DualGraph(tuple(vs), tuple(es))


def fork_graph(center_weight, *twigs, center_id="c", boundary_all=False, decorations=None):
    """A fork; each twig is a weight tuple written tip-first (outermost first)."""
    decorations = decorations or {}
    bd = F(1) if boundary_all else F(0)
    vs = [Vertex(center_id, center_weight, boundary=bd, decoration=F(decorations.get(center_id, 0)))]
    es = []
    for ti, tw in enumerate(twigs):
        prev = center_id
        for j, w in enumerate(reversed(tw)):
            vid = f"t{ti}_{j}"
            vs.append(Vertex(vid, w, boundary=bd, decoration=F(decorations.get(vid, 0))))
            es.append(Edge(prev, vid))
            prev = vid
    return DualGraph(tuple(vs), tuple(es))


def tip_ids(twig_index, length):
    """Vertex ids of fork twig number ``twig_index`` of length ``length``,
    ordered tip-first (matching fork_graph's construction)."""
    return tuple(f"t{twig_index}_{j}" for j in reversed(range(length)))


def model(graph, contracted=(), r=None):
    return LogSurfaceModel(graph, frozenset(contracted), F(r) if r is not None else None)


def random_tree_graph(rng: random.Random, n: int, wmin=2, wmax=6, theta_max=0):
    """A random decorated tree on n vertices."""
    vs = []
    es = []
    for i in range(n):
        theta = F(rng.randint(0, theta_max)) if theta_max else F(0)
        vs.append(Vertex(f"n{i}", rng.randint(wmin, wmax), decoration=theta))
        if i:
            es.append(Edge(f"n{rng.randrange(i)}", f"n{i}"))
    return DualGraph(tuple(vs), tuple(es))


def random_log_smooth_tree(rng: random.Random, n: int, r) -> LogSurfaceModel:
    """A model with nothing contracted on a random tree of n curves, weights
    1-4, each curve on the boundary with probability 1/2."""
    g = random_tree_graph(rng, n, wmin=1, wmax=4)
    vs = [Vertex(v.id, v.weight, boundary=F(1) if rng.random() < 0.5 else F(0)) for v in g.vertices]
    return LogSurfaceModel(DualGraph(tuple(vs), g.edges), frozenset(), F(r))


def random_negative_definite_tree(rng: random.Random, n: int, wmin=2, wmax=6, theta_max=0):
    while True:
        g = random_tree_graph(rng, n, wmin, wmax, theta_max)
        if is_negative_definite(g, g.ids):
            return g


def random_log_terminal_germ(rng: random.Random, max_len=5):
    """A random minimal log terminal germ: an admissible chain or fork,
    optionally decorated, with every coefficient below one."""
    while True:
        if rng.random() < 0.6:
            weights = [rng.randint(2, 6) for _ in range(rng.randint(1, max_len))]
            g = chain_graph(*weights)
        else:
            tw = [
                tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 2)))
                for _ in range(3)
            ]
            g = fork_graph(rng.randint(2, 5), *tw)
            if not is_negative_definite(g, g.ids):
                continue
        if rng.random() < 0.4:
            # sprinkle a decoration but keep the germ log terminal
            vid = rng.choice(g.ids)
            g = DualGraph(
                tuple(
                    v if v.id != vid else Vertex(v.id, v.weight, v.genus, F(1), v.boundary)
                    for v in g.vertices
                ),
                g.edges,
            )
        germ = GermGraph(g)
        if all(c < 1 for c in germ.coefficients.values()):
            return germ


# ---------------------------------------------------------------------------
# acceptance reporting

ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_acceptance(criterion: str, detail: str = ""):
    ACCEPTANCE_RESULTS[criterion] = detail


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    failed = {
        rep.nodeid
        for rep in terminalreporter.stats.get("failed", [])
    }
    for crit in sorted(ACCEPTANCE_RESULTS, key=lambda c: int(c.split()[1])):
        detail = ACCEPTANCE_RESULTS[crit]
        bad = any(f"criterion_{crit.split()[1].zfill(2)}" in nid for nid in failed)
        status = "FAIL" if bad else "PASS"
        terminalreporter.write_line(f"{crit}: {status}{' - ' + detail if detail else ''}")
