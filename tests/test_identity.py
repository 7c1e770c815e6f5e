"""Byte identity of the CLI reports.

Every command runs in process on every bundled fixture, for both kinds and
for the document's own boundary as well as r = 1/2 (14 fixtures x 13
commands x 2 kinds x 2 r values = 728 calls), once with ``--json`` and once
with the text output.  The fixture path in the output is replaced by its
basename, and stdout, stderr and the exit code of each call are hashed into
one SHA-256 per output kind.  The ``--json`` calls are hashed once more
through one reused ``--out`` file, whose bytes stand in for stdout and must
give the same digest.  A change that must leave every report as it is
keeps both digests; a change that alters a report on purpose records the new
digest here and says why.

A third digest pins the shape answers below the CLI: ``classify_germ`` (tag
and payload) on seeded germs, and ``classify_peelable`` and ``bark_D``
(result, or error class and message) on seeded divisors.  The draws hold
trees, cycles, double edges, benches (also with an all-(-2) central chain),
forks on the log canonical boundary and half-benches, so every germ tag
comes up at least ten times.

A fourth digest pins the boundary reading of the redundancy test and of the
closed-form coefficients: ``redundant`` (vertex, kinds, case tag, the twig
inequality and the met components) for both kinds, and
``coefficient_divisor_uniform`` (values, or error class and message) on the
peeled set and on one more subset of the boundary, on 300 seeded log smooth
trees of 6-14 curves with r = 1/3, 1/2, 2/3 and 1 in turn.  The draws give
twigs, rods, forks and non-peelable sets, and verdicts with and without a
twig inequality, at least ten times each.

A fifth digest pins the run layer: ``run_mmp`` for both kinds and both
strategies, ``relative_k_mmp`` over a target set, ``almost_minimalize`` for
both kinds (its run, its almost minimalization, the ladder's models, peeled
sets and eps verdicts, and ``min_exceptional``) and ``enumerate_runs`` over
the target and over the whole pool (refused by the guard above eight
curves), on 300 seeded log smooth trees of 6-16 curves with r = 1/3, 1/2,
2/3 and 1 in turn, about a third of them with a negative definite set
already contracted.  Steps are hashed with their kind and both numbers.

A sixth digest pins the verdict layer off trees: ``redundant`` and
``almost_log_exceptional`` (every field) for both kinds, on 300 seeded graphs
of 4-14 curves, trees with one or two more edges (so cycles and double
contacts), a few curves decorated, with r = 1/3, 1/2, 2/3 and 1 in turn and
about a third of them with a negative definite set already contracted.  The
draws reach at least five ``redundant`` case tags, four
``almost_log_exceptional`` tags and three r = 1/2 tags.

The fourth, fifth and sixth digests are computed once more in a subprocess
under another hash seed: no answer may follow the iteration order of a set.
"""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

from logsurf import (
    DualGraph, Edge, GermGraph, LogSurfaceModel, LogSurfError, Vertex, almost_minimalize, bark_D,
    almost_log_exceptional, classify_germ, coefficient_divisor_uniform, enumerate_runs,
    is_negative_definite, peel, redundant, relative_k_mmp, run_mmp,
)
from logsurf.cli import COMMANDS, main
from logsurf.invariants import classify_peelable

_TAGS = ("LT-NoBoundary-Rod", "LT-NoBoundary-Fork", "LT-Twig", "LC-EllipticCurve", "LC-Fork",
         "LC-Cycle", "LC-Bench", "LC-HalfBench", "LC-Segment", "NotLC")

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "logsurf" / "fixtures"

DIGESTS = {
    "json": "04650d2ff546d7ffcc3040d467e0c1409e8ddfcb0ae95a434300f9a6c82a7d8b",
    "text": "684b472d31d2598001d7bc5e7fc38f1150ecdff9dca69e2f791002fb583ab957",
    "shapes": "aa084be15cf7a188dca8133d922abfbc8befa6e38f43442fb14c76e522e82250",
    "redundant": "0d34a493552da37e7a5a02cb93b09de77421067eb6a830acac445c48c9b503bc",
    "runs": "b000a5192bd178e67aa5fd9c07679f8b8a2298ade5bc821d32e09305a65b77eb",
    "verdicts": "9dd5996fbcf0ee6932da4ba2ba40d96c802c39db9b0ffc2edac766c6fadcd57a",
}


def _digest(capsys, output, out_file=None):
    h = hashlib.sha256()
    calls = 0
    written = b""
    for path in sorted(FIXDIR.glob("*.json")):
        for command in COMMANDS:
            for kind in ("first", "second"):
                for r in (None, "1/2"):
                    argv = [command, str(path), "--kind", kind]
                    if output == "json":
                        argv.append("--json")
                    if r is not None:
                        argv += ["--r", r]
                    if out_file is not None:
                        argv += ["--out", str(out_file)]
                    code = main(argv)
                    out = capsys.readouterr()
                    report = out.out
                    if out_file is not None:  # a failed call leaves the file as it was
                        assert report == ""
                        before, written = written, out_file.read_bytes()
                        report = written.decode("utf-8") if code == 0 else ""
                        assert code == 0 or written == before
                    for part in (path.name, command, kind, str(r), str(code), report, out.err):
                        h.update(part.replace(str(path), path.name).encode())
                        h.update(b"\0")
                    calls += 1
    assert calls == 728
    return h.hexdigest()


def test_cli_reports_are_byte_identical(capsys):
    assert _digest(capsys, "json") == DIGESTS["json"]


def test_cli_text_reports_are_byte_identical(capsys):
    assert _digest(capsys, "text") == DIGESTS["text"]


def test_cli_reports_written_through_one_out_file_are_byte_identical(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    out_file.write_bytes(b"")
    assert _digest(capsys, "json", out_file) == DIGESTS["json"]


# -- shape answers ---------------------------------------------------------------

# chains of discriminant d = 2, 3, 4, 6: three of them with 1/d summing to 1
# are the arms of a fork on the log canonical boundary
_ARMS = {2: ([2],), 3: ([3], [2, 2]), 4: ([4], [2, 2, 2]), 6: ([6], [2, 2, 2, 2, 2])}


def _graph(weights, edges, genus=(), contacts={}):
    """Curves c0, c1, ... of these weights; ``edges`` maps index pairs to
    intersection numbers, ``contacts`` indices to boundary contacts."""
    vs = [Vertex(f"c{i}", w, int(i in genus), F(contacts.get(i, 0))) for i, w in enumerate(weights)]
    return DualGraph(tuple(vs), tuple(Edge(f"c{a}", f"c{b}", m) for (a, b), m in edges.items()))


def _path(n):
    return {(i, i + 1): 1 for i in range(n - 1)}


def _fork(center, arms):
    weights, edges = [center], {}
    for arm in arms:
        prev = 0
        for w in arm:
            edges[(prev, len(weights))] = 1
            prev = len(weights)
            weights.append(w)
    return weights, edges


def _shape_draw(rng):
    """A tree, a cycle, a bench or a fork, sometimes with one more edge (a
    cycle or a double edge) or a tail."""
    w = lambda: rng.choice((2, 2, 2, 3, 4))
    pick = rng.random()
    if pick < 0.35:
        weights = [w() for _ in range(rng.randint(1, 9))]
        edges = {(rng.randrange(i), i): 1 for i in range(1, len(weights))}
    elif pick < 0.55:  # two curves of a cycle meet twice
        n = rng.randint(2, 7)
        weights, edges = [w() for _ in range(n)], _path(n) | {(0, n - 1): 1 + (n == 2)}
    elif pick < 0.75:  # two (-2)-feet at each end of a central chain
        k = rng.randint(1, 4)
        weights = [rng.choice((2, 2, 3)) for _ in range(k)] + [2, 2, 2, 2]
        edges = _path(k) | {(end, k + j): 1 for j, end in enumerate((0, 0, k - 1, k - 1))}
    else:
        weights, edges = _fork(w(), [[w() for _ in range(rng.randint(1, 3))] for _ in range(3)])
    n = len(weights)
    if n >= 2 and rng.random() < 0.15:
        a, b = sorted(rng.sample(range(n), 2))
        edges[(a, b)] = edges.get((a, b), 0) + 1
    if rng.random() < 0.1:
        weights.append(w())
        edges[(rng.randrange(n), n)] = 1
    return weights, edges


def _germ_draw(rng):
    pick = rng.random()
    if pick < 0.01:
        return _graph([rng.randint(1, 4)], {}, genus={0})
    if pick < 0.04:
        ds = rng.choice(((2, 3, 6), (2, 4, 4), (3, 3, 3)))
        return _graph(*_fork(rng.randint(2, 4), [rng.choice(_ARMS[d]) for d in ds]))
    if pick < 0.08:  # two (-2)-feet at one end of a chain, contact 1 mostly at the other
        k = rng.randint(1, 4)
        weights = [rng.choice((2, 3, 4)) for _ in range(k)] + [rng.choice((2, 2, 2, 3)), 2]
        edges = _path(k) | {(0, k): 1, (0, k + 1): 1}
        return _graph(weights, edges, contacts={rng.choice((k - 1, k - 1, 0)): 1})
    weights, edges = _shape_draw(rng)
    n, genus, roll = len(weights), {0} if rng.random() < 0.04 else (), rng.random()
    if roll < 0.25:
        contacts = {rng.randrange(n) if roll < 0.15 else n - 1: 1}
    elif roll < 0.35:
        contacts = {0: 1, n - 1: 1}
    else:
        contacts = {rng.randrange(n): 2} if roll < 0.4 else {}
    return _graph(weights, edges, genus, contacts)


def _peel_draw(rng):
    """A graph with some (-1)-curves, a divisor D of it and a set in D:
    whole components of D, a run of curves walked from a tip of D, or any set."""
    weights, edges = _shape_draw(rng)
    g = _graph([1 if rng.random() < 0.1 else w for w in weights], edges)
    dset = {v for v in g.ids if rng.random() < 0.8} or set(g.ids)
    nbrs = {v: [w for w in g.adjacency[v] if w in dset] for v in dset}
    roll = rng.random()
    if roll < 0.4:
        comps = g.connected_components(dset)
        exc = set().union(*rng.sample(comps, rng.randint(1, len(comps))))
    elif roll < 0.8:
        tips = [v for v in sorted(dset) if sum(g.adjacency[v][w] for w in nbrs[v]) <= 1]
        run = [rng.choice(tips) if tips else rng.choice(sorted(dset))]
        for _ in range(rng.randint(0, 3) if tips else 0):
            nxt = [w for w in nbrs[run[-1]] if w not in run]
            if len(nxt) != 1:
                break
            run.append(nxt[0])
        exc = set(run)
    else:
        exc = {v for v in g.ids if rng.random() < 0.4}
    return g, sorted(dset), sorted(exc)


def _answer(call, canon):
    try:
        return canon(call())
    except LogSurfError as exc:
        return type(exc).__name__, str(exc)


def test_shape_answers_are_identical():
    rng = random.Random(14)
    h = hashlib.sha256()
    tags, kinds = Counter(), Counter()
    for _ in range(3000):
        germ = _answer(lambda: GermGraph(_germ_draw(rng)), lambda gm: gm)
        if isinstance(germ, GermGraph):
            germ = _answer(lambda: classify_germ(germ), lambda c: (c.tag, sorted(c.payload.items())))
            tags[germ[0]] += 1
        g, dset, exc = _peel_draw(rng)
        comps = _answer(lambda: classify_peelable(g, dset, exc),
                        lambda cs: [(c.kind, sorted(c.vertices), c.twig, c.fork) for c in cs])
        kinds.update([c[0] for c in comps] if isinstance(comps, list) else [comps[0]])
        bark = _answer(lambda: bark_D(g, dset, exc), lambda b: (sorted(b.coefficients.items()), b.fork_factor))
        h.update(repr((germ, comps, bark)).encode() + b"\0")
    assert min(tags[t] for t in _TAGS) >= 10, tags
    assert min(kinds[k] for k in ("twig", "rod", "fork", "NotPeelable")) >= 10, kinds
    assert h.hexdigest() == DIGESTS["shapes"]


# -- redundancy and uniform coefficient answers ------------------------------------


def _tree_draw(rng, r):
    """A log smooth tree of 6-14 curves of weights 1-4, each curve on the
    boundary with probability 0.6, and a subset of the boundary: one of its
    components, a run walked from one of its tips, or any subset."""
    n = rng.randint(6, 14)
    vs = tuple(Vertex(f"t{i:02d}", rng.choice((1, 2, 2, 3, 4)), boundary=F(int(rng.random() < 0.6)))
               for i in range(n))
    es = tuple(Edge(f"t{rng.randrange(i):02d}", f"t{i:02d}") for i in range(1, n))
    model = LogSurfaceModel(DualGraph(vs, es), frozenset(), r)
    g, dset = model.graph, set(model.boundary_flagged)
    if not dset:
        return model, []
    roll = rng.random()
    if roll < 0.4:
        exc = rng.choice(g.connected_components(dset))
    elif roll < 0.8:
        tips = [v for v in sorted(dset) if sum(m for w, m in g.adjacency[v].items() if w in dset) <= 1]
        run = [rng.choice(tips or sorted(dset))]
        for _ in range(rng.randint(0, 3)):
            nxt = [w for w in g.adjacency[run[-1]] if w in dset and w not in run]
            if len(nxt) != 1:
                break
            run.append(nxt[0])
        exc = run
    else:
        exc = [v for v in sorted(dset) if rng.random() < 0.4]
    return model, sorted(exc)


def test_redundancy_and_uniform_coefficient_answers_are_identical():
    rng = random.Random(15)
    h = hashlib.sha256()
    cases, seen = Counter(), Counter()
    for i in range(300):
        r = (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4]
        model, exc = _tree_draw(rng, r)
        for kind in ("first", "second"):
            peeling = peel(model, kind=kind, pure=True)
            verdicts = [(v.vertex, v.kind, v.self_kind, v.case, v.inequality,
                         tuple(tuple(sorted(c)) for c in v.components))
                        for v in redundant(model, peeling, kind=kind)]
            cases.update(v[3] for v in verdicts)
            seen.update("no inequality" if v[4] is None else "inequality" for v in verdicts)
            values = []
            for s in (sorted(peeling.exceptional), exc):
                values.append(_answer(lambda: coefficient_divisor_uniform(model, s, r),
                                      lambda cv: sorted(cv.values.items())))
                comps = _answer(lambda: classify_peelable(model.graph, model.boundary_flagged, s),
                                lambda cs: [c.kind for c in cs])
                seen.update(comps if isinstance(comps, list) else [comps[0]])
            h.update(repr((verdicts, values)).encode() + b"\0")
    assert len(cases) >= 6, cases
    kinds = ("inequality", "no inequality", "twig", "rod", "fork", "NotPeelable")
    assert min(seen[k] for k in kinds) >= 10, seen
    assert h.hexdigest() == DIGESTS["redundant"]


# -- run answers -------------------------------------------------------------------


def _run_draw(rng, r):
    """A log smooth tree of 6-16 curves of weights 1-4, each curve on the
    boundary with probability 0.5, with nothing contracted or, one time in
    three, a negative definite set of its curves of weight 2-4; and a target
    set of 1-6 more curves."""
    n = rng.randint(6, 16)
    vs = tuple(Vertex(f"u{i:02d}", rng.choice((1, 1, 2, 2, 3, 4)), boundary=F(int(rng.random() < 0.5)))
               for i in range(n))
    es = tuple(Edge(f"u{rng.randrange(i):02d}", f"u{i:02d}") for i in range(1, n))
    g = DualGraph(vs, es)
    start = frozenset()
    if rng.random() < 0.35:
        start = frozenset(v.id for v in vs if v.weight >= 2 and rng.random() < 0.4)
        if not is_negative_definite(g, start):
            start = frozenset()
    rest = [v for v in g.ids if v not in start]
    target = sorted(rng.sample(rest, min(len(rest), rng.randint(1, 6))))
    return LogSurfaceModel(g, start, r), target


def _steps(run):
    return [(s.vertex, s.kind, s.pairing, s.self_int) for s in run.steps]


def _decomposition(d):
    ladder = [(sorted(rung.model.contracted), sorted(rung.peeling_exc), rung.verdict) for rung in d.ladder]
    return _steps(d.run), _steps(d.am), ladder, sorted(d.min_exceptional)


def test_run_answers_are_identical():
    rng = random.Random(18)
    h = hashlib.sha256()
    seen = Counter()
    for i in range(300):
        r = (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4]
        model, target = _run_draw(rng, r)
        seen["contracted start"] += bool(model.contracted)
        answers = []
        for kind in ("first", "second"):
            for strategy in ("lowest-id", "boundary-first"):
                answers.append(_steps(run_mmp(model, kind, strategy)))
                seen["run steps"] += len(answers[-1])
            d = _answer(lambda: almost_minimalize(model, kind), _decomposition)
            seen["ladder of two or more"] += isinstance(d, tuple) and len(d[2]) >= 2
            answers.append(d)
            for over in (target, None):
                runs = _answer(lambda: enumerate_runs(model, kind, over), lambda rs: [_steps(x) for x in rs])
                seen["runs" if isinstance(runs, list) else runs[0]] += 1
                seen["two or more runs"] += isinstance(runs, list) and len(runs) >= 2
                answers.append(runs)
        sigma = _answer(lambda: relative_k_mmp(model, target), _steps)
        seen["relative" if isinstance(sigma, list) else sigma[0]] += 1
        answers.append(sigma)
        h.update(repr(answers).encode() + b"\0")
    assert min(seen[k] for k in ("contracted start", "ladder of two or more", "two or more runs",
                                 "NotNegativeDefinite", "TooLarge", "relative")) >= 10, seen
    assert h.hexdigest() == DIGESTS["runs"]


# -- verdict answers off trees ------------------------------------------------------


def _loop_draw(rng, r):
    """A graph of 4-14 curves of weights 1-4: a tree with one or two more
    edges, each curve decorated with probability 0.1 and on the boundary
    with probability 0.7, with nothing contracted or, one time in three, a
    negative definite set of its curves of weight 2-4."""
    n = rng.randint(4, 14)
    vs = tuple(Vertex(f"w{i:02d}", rng.choice((1, 1, 2, 2, 3, 4)), decoration=F(int(rng.random() < 0.1)),
                      boundary=F(int(rng.random() < 0.7))) for i in range(n))
    mult = {(rng.randrange(i), i): 1 for i in range(1, n)}
    for _ in range(rng.choice((1, 1, 2))):
        a, b = sorted(rng.sample(range(n), 2))
        mult[(a, b)] = mult.get((a, b), 0) + 1
    g = DualGraph(vs, tuple(Edge(f"w{a:02d}", f"w{b:02d}", m) for (a, b), m in mult.items()))
    start = frozenset()
    if rng.random() < 0.35:
        start = frozenset(v.id for v in vs if v.weight >= 2 and rng.random() < 0.4)
        if not is_negative_definite(g, start):
            start = frozenset()
    return LogSurfaceModel(g, start, r)


def _comps(v):
    return [sorted(c) for c in v.components]


def test_verdict_answers_off_trees_are_identical():
    rng = random.Random(21)
    h = hashlib.sha256()
    cases, ale_cases, half_cases = Counter(), Counter(), Counter()
    for i in range(300):
        r = (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4]
        model = _loop_draw(rng, r)
        answers = []
        for kind in ("first", "second"):
            peeling = peel(model, kind=kind, pure=True)
            red = _answer(lambda: redundant(model, peeling, kind=kind),
                          lambda vs: [(v.vertex, v.kind, v.self_kind, v.case, v.pairing, v.self_int,
                                       _comps(v), v.inequality) for v in vs])
            ale = _answer(lambda: almost_log_exceptional(model, peeling, kind=kind),
                          lambda vs: [(v.vertex, v.kind, v.case, v.case_half, v.pairing, v.self_int,
                                       _comps(v)) for v in vs])
            cases.update(v[3] for v in red)
            ale_cases.update(v[2] for v in ale)
            half_cases.update(v[3] for v in ale if v[3] is not None)
            answers.append((red, ale))
        h.update(repr(answers).encode() + b"\0")
    assert len(cases) >= 5 and len(ale_cases) >= 4 and len(half_cases) >= 3, (cases, ale_cases, half_cases)
    assert h.hexdigest() == DIGESTS["verdicts"]


def test_run_and_redundancy_digests_do_not_depend_on_the_hash_seed():
    here = Path(__file__).resolve().parent
    script = (
        "import test_identity as t\n"
        "t.test_redundancy_and_uniform_coefficient_answers_are_identical()\n"
        "t.test_run_answers_are_identical()\n"
        "t.test_verdict_answers_off_trees_are_identical()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(here.parent / "src"), str(here))),
                 PYTHONHASHSEED="7"),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
