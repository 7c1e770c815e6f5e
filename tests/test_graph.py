import ast
import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import logsurf
from logsurf import (
    CoeffOutOfRange,
    DanglingEdge,
    DualGraph,
    DuplicateId,
    Edge,
    LogSurfError,
    LogSurfaceModel,
    NotNegativeDefinite,
    SelfLoop,
    UnknownVertex,
    ValidationError,
    Vertex,
    blow_up,
    branching_number,
    coefficient_divisor_uniform,
    contracts_to_smooth_point,
    discriminant,
    eps_check,
    find_shapes,
    is_negative_definite,
)
from logsurf.graph import _check_types, _solve_int
from logsurf.linalg import bareiss_det

from conftest import chain_graph, fork_graph, model, random_tree_graph
from oracles import contracts_to_smooth_point_whole


# -- validation -------------------------------------------------------------


def test_single_vertex_valid():
    g = chain_graph(2)
    assert DualGraph(g.vertices, g.edges) == g


def test_duplicate_id():
    with pytest.raises(DuplicateId):
        DualGraph((Vertex("a", 2), Vertex("a", 3)), ())


def test_dangling_edge():
    with pytest.raises(DanglingEdge):
        DualGraph((Vertex("a", 2),), (Edge("a", "E9"),))


def test_self_loop():
    with pytest.raises(SelfLoop):
        Edge("a", "a")


def test_coeff_out_of_range():
    with pytest.raises(CoeffOutOfRange):
        Vertex("a", 2, boundary=F(3, 2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Vertex("a", 5 / 2), "vertex 'a': weight must be an integer, got 2.5"),
        (lambda: Vertex("a", True), "vertex 'a': weight must be an integer, got True"),
        (lambda: Vertex("a", 2, genus=1.0), "vertex 'a': genus must be an integer, got 1.0"),
        (lambda: Vertex(1, 2), "vertex 1: id must be a string, got 1"),
        (lambda: Edge("a", "b", 2.0), "edge 'a'-'b': mult must be an integer, got 2.0"),
        (lambda: Edge("a", "b", True), "edge 'a'-'b': mult must be an integer, got True"),
        (lambda: Edge("a", 1), "edge 'a'-1: b must be a string, got 1"),
        (lambda: Vertex("a", 2, boundary=0.1),
         "vertex 'a': boundary must be an integer or a Fraction, got 0.1"),
        (lambda: Vertex("a", 2, boundary=True),
         "vertex 'a': boundary must be an integer or a Fraction, got True"),
        (lambda: Vertex("a", 2, decoration=0.5),
         "vertex 'a': decoration must be an integer or a Fraction, got 0.5"),
        (lambda: Vertex("a", 2, decoration=False),
         "vertex 'a': decoration must be an integer or a Fraction, got False"),
        (lambda: Vertex("a", 2, boundary="1/2"),
         "vertex 'a': boundary must be an integer or a Fraction, got '1/2'"),
    ],
    ids=[
        "weight-float", "weight-bool", "genus-float", "id-int", "mult-float", "mult-bool",
        "end-int", "boundary-float", "boundary-bool", "decoration-float", "decoration-bool",
        "boundary-str",
    ],
)
def test_non_integer_or_non_string_field_rejected(build, message):
    # a float weight would reach the solver truncated but K.E untruncated
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_subclasses_of_str_and_int_are_accepted():
    class Name(str):
        pass

    class Count(int):
        pass

    v = Vertex(Name("a"), Count(2), Count(1), Count(1), F(1, 2))
    assert (v.id, v.weight, v.genus, v.decoration, v.boundary) == ("a", 2, 1, F(1), F(1, 2))
    assert type(v.decoration) is F
    e = Edge(Name("b"), Name("a"), Count(2))
    assert (e.a, e.b, e.mult) == ("a", "b", 2)
    with pytest.raises(CoeffOutOfRange, match=r"^boundary coefficient 3/2 of 'a' not in \[0,1\]$"):
        Vertex(Name("a"), Count(2), boundary=Count(1) + F(1, 2))


class _Half(F):
    """A subclass of Fraction, which a vertex rebuilds as a Fraction."""


def _checked_vertex(vid, weight, genus=0, decoration=F(0), boundary=F(0)):
    """A vertex's stored fields by the checked path alone: every field held
    to ``_check_types``, each rational rebuilt as a Fraction, then the range
    checks of ``Vertex``."""
    _check_types(f"vertex {vid!r}", {"id": vid}, {"weight": weight, "genus": genus},
                 {"decoration": decoration, "boundary": boundary})
    decoration, boundary = F(decoration), F(boundary)
    if not 0 <= boundary <= 1:
        raise CoeffOutOfRange(f"boundary coefficient {boundary} of {vid!r} not in [0,1]")
    if decoration < 0:
        raise CoeffOutOfRange(f"decoration {decoration} of {vid!r} negative")
    if genus < 0:
        raise ValidationError(f"genus of {vid!r} negative")
    return vid, weight, genus, decoration, boundary


def _outcome(build):
    try:
        got = build()
    except LogSurfError as err:
        return type(err), str(err)
    if isinstance(got, Vertex):
        got = (got.id, got.weight, got.genus, got.decoration, got.boundary)
    return got, [type(x) for x in got]


def test_the_vertex_fast_path_equals_the_checked_path():
    # exact ints and Fractions skip _check_types; every other value must
    # meet the same error, and every accepted one be stored the same way
    values = (1, 0, -1, 2, F(1, 2), F(3, 2), _Half(1, 2), True, False, 0.5, "1/2", "a", None)
    fields = ("vid", "weight", "genus", "decoration", "boundary")
    seen = Counter()
    for name in fields:
        for value in values:
            args = {**dict(vid="a", weight=2, genus=0, decoration=F(0), boundary=F(0)), name: value}
            fast = _outcome(lambda: Vertex(args["vid"], args["weight"], args["genus"],
                                           args["decoration"], args["boundary"]))
            want = _outcome(lambda: _checked_vertex(**args))
            assert fast == want, (name, value)
            if isinstance(fast[1], list):
                assert fast[1][3:] == [F, F]
            seen["accepted" if isinstance(fast[1], list) else fast[0].__name__] += 1
    assert set(seen) == {"accepted", "ValidationError", "CoeffOutOfRange"}, seen
    # an exact Fraction is stored as given
    half = F(1, 2)
    assert Vertex("a", 2, decoration=half, boundary=half).boundary is half


def _old_tables(g):
    """ids, by_id and adjacency by their defining expressions, each row in
    the order of its edges."""
    adj = {v.id: {} for v in g.vertices}
    for e in g.edges:
        adj[e.a][e.b] = e.mult
        adj[e.b][e.a] = e.mult
    return tuple(v.id for v in g.vertices), {v.id: v for v in g.vertices}, adj


def test_the_one_pass_graph_tables_equal_their_definitions():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 12)
        names = rng.sample([f"v{k}" for k in range(3 * n)], n)
        vs = tuple(Vertex(v, rng.randint(1, 5)) for v in names)
        pairs = {tuple(sorted(rng.sample(names, 2))) for _ in range(rng.randint(0, 2 * n))} if n > 1 else ()
        es = tuple(Edge(*(p if rng.random() < 0.5 else p[::-1]), rng.randint(1, 3)) for p in pairs)
        g = DualGraph(vs, es)
        ids, by_id, adj = _old_tables(g)
        assert (g.ids, g.by_id, g.adjacency) == (ids, by_id, adj)
        assert list(g.by_id) == list(by_id)
        assert [(u, list(row.items())) for u, row in g.adjacency.items()] == [
            (u, list(row.items())) for u, row in adj.items()]


def test_graph_faults_are_reported_in_their_order():
    a, b, c = Vertex("a", 2), Vertex("b", 2), Vertex("c", 2)
    cases = [
        # a duplicate id before a dangling edge, before a double edge
        (((a, b, Vertex("b", 3)), (Edge("a", "x"), Edge("a", "b"), Edge("b", "a"))),
         DuplicateId, "duplicate vertex id 'b'"),
        (((a, a, b, b), ()), DuplicateId, "duplicate vertex id 'a'"),
        # a dangling edge before a later double edge, a double edge before a
        # later dangling one: each edge in input order
        (((a, b), (Edge("a", "b"), Edge("y", "a"), Edge("b", "a"))),
         DanglingEdge, "edge a-y references an unknown vertex"),
        (((a, b, c), (Edge("b", "a"), Edge("a", "b", 2), Edge("c", "z"))),
         ValidationError, "two edges between 'a' and 'b'"),
        (((a, b, c), (Edge("c", "b"), Edge("a", "x"), Edge("b", "z"))),
         DanglingEdge, "edge a-x references an unknown vertex"),
        (((a, b, c), (Edge("c", "b"), Edge("a", "c"), Edge("b", "c"), Edge("a", "c"))),
         ValidationError, "two edges between 'b' and 'c'"),
    ]
    for (vs, es), cls, message in cases:
        with pytest.raises(cls) as err:
            DualGraph(vs, es)
        assert type(err.value) is cls and str(err.value) == message


def test_rational_fields_take_int_or_fraction():
    v = Vertex("a", 2, decoration=1, boundary=F(1, 3))
    assert (v.decoration, v.boundary) == (F(1), F(1, 3))
    assert type(v.decoration) is F
    # an exact Fraction is kept; a subclass of it still becomes a Fraction
    third = F(1, 3)
    assert Vertex("a", 2, boundary=third).boundary is third

    class Sub(F):
        pass

    w = Vertex("a", 2, decoration=Sub(1, 2), boundary=Sub(1, 2))
    assert type(w.decoration) is F and type(w.boundary) is F
    with pytest.raises(CoeffOutOfRange, match="decoration -1/2 of 'a' negative"):
        Vertex("a", 2, decoration=F(-1, 2))
    with pytest.raises(CoeffOutOfRange, match=r"boundary coefficient 3/2 of 'a' not in \[0,1\]"):
        Vertex("a", 2, boundary=F(3, 2))
    # 0.1 would have been 3602879701896397/36028797018963968
    with pytest.raises(ValidationError, match="boundary must be an integer or a Fraction"):
        Vertex("a", 2, boundary=0.1)


@pytest.mark.parametrize("value", [0.1, 0.5, True, "1/2"], ids=["float", "half-float", "bool", "str"])
def test_rationals_outside_the_vertex_are_not_coerced(value):
    # the uniform r, eps and the r of the closed form take the checks of a
    # vertex's rationals: 0.1 would be 3602879701896397/36028797018963968
    m = model(chain_graph(2, 3, boundary=(0, 1)), r=F(1, 2))
    calls = {
        "model: uniform_r": lambda: LogSurfaceModel(m.graph, frozenset(), value),
        "eps_check: eps": lambda: eps_check(m, value),
        "coefficient_divisor_uniform: r": lambda: coefficient_divisor_uniform(m, ["v0", "v1"], value),
    }
    for name, call in calls.items():
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == f"{name} must be an integer or a Fraction, got {value!r}"


def test_eps_outside_the_unit_interval_is_refused():
    m = model(chain_graph(2, 3, boundary=(0, 1)), r=F(1, 2))
    for eps, shown in ((2, "2"), (F(-1, 2), "-1/2"), (F(3, 2), "3/2")):
        with pytest.raises(CoeffOutOfRange) as err:
            eps_check(m, eps)
        assert str(err.value) == f"eps {shown} not in [0,1]"
    assert [eps_check(m, eps).eps for eps in (0, 1, F(1, 3))] == [0, 1, F(1, 3)]


def test_contracted_must_be_negative_definite():
    g = chain_graph(0)
    with pytest.raises(NotNegativeDefinite):
        model(g, contracted=("v0",))


def test_contract_equals_the_constructor():
    # the reference models are built from outside on a copy of the graph,
    # which has a table of answers of its own
    rng = random.Random(18)
    seen = Counter()
    for _ in range(80):
        tree = random_tree_graph(rng, rng.randint(3, 12), wmin=1, wmax=4, theta_max=1)
        g = DualGraph(tuple(replace(v, boundary=F(int(rng.random() < 0.5))) for v in tree.vertices), tree.edges)
        copy = DualGraph(g.vertices, g.edges)
        r = rng.choice((None, F(1, 2), F(2, 3), F(1)))
        m = LogSurfaceModel(g, frozenset(), r)
        for _ in range(8):
            rest = m.noncontracted()
            if not rest:
                break
            vs = rng.sample(rest, min(len(rest), rng.choice((1, 1, 2, 3))))
            try:
                ref = LogSurfaceModel(copy, m.contracted | set(vs), r)
            except NotNegativeDefinite as exc:
                with pytest.raises(NotNegativeDefinite) as err:
                    m.contract(*vs)
                assert str(err.value) == str(exc)
                seen["refused"] += 1
                continue
            child = m.contract(*vs)
            seen["merged"] += any(w in m.contracted for v in vs for w in g.adjacency[v])
            assert child == ref
            assert child._blocks == ref._blocks
            assert list(child.coefficients.items()) == list(ref.coefficients.items())
            for v in child.noncontracted():
                for ask in (LogSurfaceModel.self_int, LogSurfaceModel.k_pairing, LogSurfaceModel.lk_pairing):
                    assert ask(child, v) == ask(ref, v)
            m = child
        if m.contracted:
            v = min(m.contracted)
            with pytest.raises(UnknownVertex, match=f"'{v}' is already contracted"):
                m.contract(v)
        with pytest.raises(UnknownVertex, match="no vertex 'nope'"):
            m.contract("nope")
    assert min(seen["refused"], seen["merged"]) >= 50, seen


def test_contracts_to_smooth_point_reads_only_the_subgraph():
    # blow-ups of random trees, asked of their exceptional curves or of any set
    rng = random.Random(19)
    answers = Counter()
    for _ in range(200):
        g = random_tree_graph(rng, rng.randint(1, 5), wmin=1, wmax=4)
        new = []
        for _ in range(rng.randint(0, 5)):
            e = rng.choice(g.edges) if g.edges and rng.random() < 0.5 else None
            g = blow_up(g, ("edge", e.a, e.b) if e else ("free", rng.choice(g.ids)))
            new.append(g.ids[-1])
        S = new if rng.random() < 0.4 else [v for v in g.ids if rng.random() < 0.5]
        expected = contracts_to_smooth_point_whole(g, S)
        assert contracts_to_smooth_point(g, S) == expected
        answers[expected] += 1
        with pytest.raises(UnknownVertex, match="no vertex 'nope'"):
            contracts_to_smooth_point(g, [*S, "nope"])
    assert min(answers[True], answers[False]) >= 30, answers


# -- intersections ----------------------------------------------------------


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 4), (5, 3)])
def test_middle_curve_image_self_intersection(n, m):
    g = chain_graph(n, 1, m)
    mod = model(g, contracted=("v0", "v2"))
    assert mod.self_int("v1") == -1 + F(1, n) + F(1, m)
    assert mod.canonical_intersect({"v1": F(1)}) == 1 - F(2, n) - F(2, m)


def test_intersect_no_correction():
    mod = model(chain_graph(2))
    assert mod.self_int("v0") == -2


def test_intersect_half_correction():
    # curve A with A^2 = -1 meeting a contracted (-2)-curve once
    g = chain_graph(2, 1)
    mod = model(g, contracted=("v0",))
    assert mod.self_int("v1") == F(-1, 2)


def test_hirzebruch_adjunction():
    g = DualGraph((Vertex("C", 4), Vertex("Fb", 0)), (Edge("C", "Fb"),))
    mod = model(g)
    assert mod.canonical_intersect({"C": F(1)}) == 4 - 2
    assert mod.canonical_intersect({"Fb": F(1)}) == -2


def test_lone_minus_one():
    mod = model(chain_graph(1))
    assert mod.canonical_intersect({"v0": F(1)}) == -1


def test_pullback_meets_contracted_trivially():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 6)
        g = chain_graph(*[rng.randint(2, 5) for _ in range(n)])
        contracted = tuple(f"v{i}" for i in range(n - 1))
        mod = model(g, contracted=contracted)
        free = f"v{n-1}"
        pb = mod.pullback({free: F(1)})
        for e in contracted:
            assert g.pairing(pb, {e: F(1)}) == 0


def test_intersect_symmetric_bilinear():
    g = chain_graph(3, 1, 4, 2)
    mod = model(g, contracted=("v0", "v3"))
    A = {"v1": F(2), "v2": F(-1, 3)}
    B = {"v1": F(1, 2), "v2": F(5)}
    C = {"v2": F(1)}
    assert mod.intersect(A, B) == mod.intersect(B, A)
    AplusC = {"v1": A.get("v1", F(0)), "v2": A["v2"] + C["v2"]}
    assert mod.intersect(AplusC, B) == mod.intersect(A, B) + mod.intersect(C, B)


def test_projection_formula():
    g = chain_graph(3, 1, 4, 2)
    mod = model(g, contracted=("v0", "v3"))
    A = {"v1": F(1)}
    B = {"v2": F(1)}
    assert mod.intersect(A, B) == g.pairing(mod.pullback(A), B)


def _references(name):
    """Where ``src/logsurf`` names ``name``: the dotted function scope of each
    use, and "module (import)" for each import of it.  A method, given as
    "Class.method", is matched as an attribute only."""
    refs = []
    method = name.rpartition(".")[2] if "." in name else None

    class Refs(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(getattr(node, "name", "<lambda>"))
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_Lambda = visit_FunctionDef

        def visit_alias(self, node):
            if node.name == name:
                refs.append(f"{self.scope[0]} (import)")

        def visit_Name(self, node):
            if method is None and node.id == name:
                refs.append(".".join(self.scope))

        def visit_Attribute(self, node):
            if node.attr == (method or name):
                refs.append(".".join(self.scope))
            self.generic_visit(node)

    for path in sorted(Path(logsurf.__file__).parent.glob("*.py")):
        Refs(path.stem).visit(ast.parse(path.read_text()))
    return refs


# each primitive of the engines and the one function allowed to call it
_ONE_CALLER = {
    # every solve of the model layer, on a tree and on a set with a cycle
    "solve_factored": "graph._solve_int",
    "solve_tree": "graph._solve_int",
    # every factorization of a connected set, leaf-first or dense
    "factor_tree": "graph.DualGraph.factor.find",
    "factor_definite": "graph.DualGraph.factor.find",
    # every step question of the run layer: the one scan
    "_step": "mmp._admitted",
    # every factorization of a contracted component: the partition builder
    "DualGraph.factor": "graph.DualGraph._partition",
    # every transition of the run layer, the ladder of almost_minimalize too
    "LogSurfaceModel.contract": "mmp._contract",
    # every model made without the constructor: by contract or by the replay
    # of a kept run, through the one derived-model helper
    "__new__": "graph.LogSurfaceModel._derived",
}


def test_the_model_layer_solves_in_one_place():
    """Each name of ``_ONE_CALLER`` is used in ``src`` only inside its
    caller, and imported, if at all, only into the caller's module."""
    got = {
        name: [r for r in _references(name) if r != f"{caller.split('.')[0]} (import)"]
        for name, caller in _ONE_CALLER.items()
    }
    assert got == {name: [caller] for name, caller in _ONE_CALLER.items()}


# -- branching numbers and negative definiteness -----------------------------


def test_branching_numbers_chain():
    g = chain_graph(2, 2, 2)
    assert branching_number(g, ["v0"]) == 1
    assert branching_number(g, ["v1"]) == 2


def test_branching_number_d4():
    g = fork_graph(2, (2,), (2,), (2,))
    assert branching_number(g, ["c"]) == 3


def test_long_chains_factor_to_their_closed_forms():
    # through DualGraph.factor, on the first k curves of a chain of 160: the
    # (-2)-chain has d = k + 1 and d (M^-1)_ij = min(i, j) (k + 1 - max(i, j)),
    # i and j counted from 1; the chain [1, 2, ..., 2] contracts to a smooth
    # point, so d = 1
    a2 = chain_graph(*[2] * 160)
    e = chain_graph(1, *[2] * 159)
    for k in range(1, 161):
        ids = [f"v{i}" for i in range(k)]
        block = a2.factor(frozenset(ids))
        assert block[1] == k + 1
        assert e.factor(frozenset(ids))[1] == 1
        for j in {1, (k + 1) // 2, k}:
            _, x = _solve_int(block, [int(v == ids[j - 1]) for v in block[0]])
            assert x == {ids[i - 1]: min(i, j) * (k + 1 - max(i, j)) for i in range(1, k + 1)}


def test_negative_definite_examples():
    assert is_negative_definite(chain_graph(2, 2), ["v0", "v1"])
    d4 = fork_graph(2, (2,), (2,), (2,))
    assert is_negative_definite(d4, d4.ids)
    # a (-2)-bench: discriminant vanishes
    bench = fork_graph(2, (2,), (2,), (2, 2))  # D~4 affine-type shape
    vs = list(bench.vertices) + [Vertex("x1", 2), Vertex("x2", 2)]
    es = list(bench.edges) + [Edge("t2_0", "x1"), Edge("t2_0", "x2")]
    bench2 = DualGraph(tuple(vs), tuple(es))
    assert not is_negative_definite(bench2, bench2.ids)


@pytest.mark.parametrize(
    "ask, contracted_message",
    [
        (lambda m, v: m.self_int(v), "'v0' is contracted; pull back its image instead"),
        (lambda m, v: m.lk_pairing(v), "'v0' is contracted"),
        (lambda m, v: m.k_pairing(v), "'v0' is contracted"),
        (lambda m, v: m.canonical_intersect({v: F(1)}), "'v0' is contracted"),
    ],
    ids=["self_int", "lk_pairing", "k_pairing", "canonical_intersect"],
)
def test_local_questions_reject_bad_ids_after_answers_are_cached(ask, contracted_message):
    g = chain_graph(2, 3, 2)
    m = model(g, ["v0"], "1/2")
    # the graph's table holds answers for every curve before the bad asks
    for other in (m, model(g, ["v1"], "1/2")):
        for v in other.noncontracted():
            ask(other, v)
    with pytest.raises(UnknownVertex) as err:
        ask(m, "v0")
    assert str(err.value) == contracted_message
    with pytest.raises(UnknownVertex, match="no vertex 'nope'"):
        ask(m, "nope")


def test_neg_q_rejects_a_repeated_id():
    g = chain_graph(2, 3)
    assert g.neg_q(["v1", "v0"]) == [[3, -1], [-1, 2]]
    with pytest.raises(ValidationError, match="repeated vertex id"):
        g.neg_q(["v0", "v1", "v0"])


def test_negative_definite_matches_minor_oracle():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 7)
        vs = [Vertex(f"v{i}", rng.randint(1, 5)) for i in range(n)]
        es = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    es.append(Edge(f"v{i}", f"v{j}", rng.randint(1, 2)))
        g = DualGraph(tuple(vs), tuple(es))
        ids = list(g.ids)
        # oracle: ALL principal minors of -Q positive (Sylvester on every
        # principal submatrix, order-independent)
        def minor(sub):
            m = g.neg_q(sub)
            return bareiss_det(m)

        oracle = all(
            minor(sub) > 0
            for k in range(1, n + 1)
            for sub in itertools.combinations(ids, k)
        )
        assert is_negative_definite(g, ids) == oracle


# -- shapes -------------------------------------------------------------------


def test_find_shapes_rod():
    g = chain_graph(3, 2)
    rep = find_shapes(g, g.ids)
    assert rep.rods == (("v0", "v1"),)
    assert rep.maximal_twigs == ()


def test_find_shapes_fork():
    g = fork_graph(2, (2,), (2,), (2,))
    rep = find_shapes(g, g.ids)
    assert len(rep.forks) == 1
    assert rep.forks[0].center == "c"
    assert all(len(t) == 1 for t in rep.forks[0].twigs)


def test_find_shapes_twig_orientation():
    # a chain component is reported as a rod, not a twig
    g = chain_graph(3, 2, 0)
    rep = find_shapes(g, g.ids)
    assert rep.rods == (("v0", "v1", "v2"),)
    # a branch vertex turns the [3,2] arm into a maximal twig, tip of D first
    g2 = fork_graph(0, (3, 2), (0,), (0,))
    rep2 = find_shapes(g2, g2.ids)
    assert ("t0_1", "t0_0") in rep2.maximal_twigs
    weights = [g2.vertex(v).weight for v in ("t0_1", "t0_0")]
    assert weights == [3, 2]


def test_find_shapes_bench():
    bench = fork_graph(3, (2,), (2,))
    vs = list(bench.vertices) + [Vertex("u1", 2), Vertex("u2", 2)]
    es = list(bench.edges) + [Edge("c", "u1"), Edge("c", "u2")]
    g = DualGraph(tuple(vs), tuple(es))
    rep = find_shapes(g, g.ids)
    assert len(rep.benches) == 1
    assert rep.benches[0].central_chain == ("c",)


def test_find_shapes_circular():
    vs = (Vertex("a", 2), Vertex("b", 2), Vertex("c", 3))
    es = (Edge("a", "b"), Edge("b", "c"), Edge("a", "c"))
    g = DualGraph(vs, es)
    rep = find_shapes(g, g.ids)
    assert rep.circular == (frozenset({"a", "b", "c"}),)
    two = DualGraph((Vertex("a", 3), Vertex("b", 2)), (Edge("a", "b", 2),))
    assert find_shapes(two, two.ids).circular == (frozenset({"a", "b"}),)


# -- blowups ------------------------------------------------------------------


def test_blow_up_edge():
    g = chain_graph(2, 2)
    g2 = blow_up(g, ("edge", "v0", "v1"), new_id="e")
    assert g2.vertex("v0").weight == 3
    assert g2.vertex("v1").weight == 3
    assert g2.vertex("e").weight == 1
    assert g2.mult("v0", "v1") == 0
    assert g2.mult("v0", "e") == 1 and g2.mult("v1", "e") == 1


def test_mult_reads_the_adjacency():
    g = DualGraph((Vertex("a", 2), Vertex("b", 3), Vertex("c", 1)), (Edge("b", "a", 2),))
    assert [g.mult(*pair) for pair in ("ab", "ba", "ac", "aa", "bb")] == [2, 2, 0, -2, -3]
    # a pair that is not an edge reads 0, also where an id is unknown
    assert g.mult("a", "zz") == 0 and g.mult("zz", "a") == 0
    assert all(g.mult(u, v) == g.adjacency[u].get(v, 0) for u in g.ids for v in g.ids if u != v)


def test_blow_up_free_point():
    g = chain_graph(1)
    g2 = blow_up(g, ("free", "v0"), new_id="e")
    assert g2.vertex("v0").weight == 2
    assert g2.mult("v0", "e") == 1


def test_blow_up_chain_1_1():
    g = chain_graph(1, 1)
    g2 = blow_up(g, ("edge", "v0", "v1"), new_id="e")
    assert [g2.vertex(v).weight for v in ("v0", "e", "v1")] == [2, 1, 2]


def test_blow_up_preserves_total_transform_discriminant():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        g = chain_graph(*[rng.randint(1, 4) for _ in range(n)])
        if rng.random() < 0.5 or n == 1:
            site = ("free", f"v{rng.randrange(n)}")
        else:
            i = rng.randrange(n - 1)
            site = ("edge", f"v{i}", f"v{i+1}")
        g2 = blow_up(g, site, new_id="e")
        assert discriminant(g2, g2.ids) == discriminant(g, g.ids)


def test_find_shapes_embedded_cycle():
    # a cycle with a tail: the cycle itself is reported as a circular subgraph
    vs = (Vertex("a", 3), Vertex("b", 2), Vertex("c", 2), Vertex("t", 2))
    es = (Edge("a", "b"), Edge("b", "c"), Edge("a", "c"), Edge("a", "t"))
    g = DualGraph(vs, es)
    rep = find_shapes(g, g.ids)
    assert rep.circular == (frozenset({"a", "b", "c"}),)
    assert ("t",) in rep.maximal_twigs
