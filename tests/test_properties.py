"""Property tests (hypothesis): answers that must not depend on how the
vertices are named, the intersection theory of a model against a whole-block
``solve_int`` oracle, the answers cached on a graph against those of a model
on a new graph, the coefficients across a blow-up, and the report emitter
against ``json.dumps``."""

import json
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from logsurf import (
    DualGraph,
    Edge,
    GermGraph,
    LogSurfaceModel,
    LogSurfError,
    Vertex,
    blow_up,
    fixture_corpus,
    is_negative_definite,
    serialize_model,
)
from logsurf.documents import json_text, model_to_dict
from logsurf.classify import classify_germ, classify_half, duval_type
from logsurf.linalg import leading_minors, solve_int


@st.composite
def germs_with_relabelling(draw):
    """A negative definite germ of 1-8 curves (a tree, perhaps with one more
    edge, decorations and elliptic curves) and a permutation of its ids."""
    n = draw(st.integers(1, 8))
    weight = st.sampled_from((2,) * 7 + (3,) * 4 + (4, 4, 5, 6, 1))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    genera = draw(st.lists(st.sampled_from((0,) * 9 + (1,)), min_size=n, max_size=n))
    contacts = [0] * n
    if draw(st.integers(0, 2)) == 0:  # a third of the germs meet a boundary
        contacts = draw(st.lists(st.sampled_from((0, 0, 0, 1, 1, 2)), min_size=n, max_size=n))
    # a chain, a fork (curves 1-3 meet curve 0, later ones continue an arm)
    # or any tree
    shape = draw(st.sampled_from(("chain", "fork", "tree")))
    parents = {
        "chain": lambda i: i - 1,
        "fork": lambda i: 0 if i <= 3 else i - 3,
        "tree": lambda i: draw(st.integers(0, i - 1)),
    }[shape]
    mult = {(parents(i), i): 1 for i in range(1, n)}
    if n >= 2 and draw(st.integers(0, 3)) == 0:
        a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        mult[a, b] = mult.get((a, b), 0) + 1
    perm = draw(st.permutations(range(n)))

    def build(name):
        vs = tuple(
            Vertex(name(i), weights[i], genera[i], F(contacts[i])) for i in range(n)
        )
        return DualGraph(vs, tuple(Edge(name(a), name(b), m) for (a, b), m in mult.items()))

    g = build(lambda i: f"v{i}")
    assume(is_negative_definite(g, g.ids))
    return g, build(lambda i: f"v{perm[i]}")


def _answers(g):
    germ = GermGraph(g)
    out = [duval_type(g)]
    try:
        out.append(classify_germ(germ).tag)
    except LogSurfError as exc:
        out.append(type(exc).__name__)
    for strict in (True, False):
        try:
            hc = classify_half(germ, strict=strict)
            out.append((hc.tag, hc.formula, sorted(hc.coefficients.values())))
        except LogSurfError as exc:
            out.append(type(exc).__name__)
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(germs_with_relabelling())
def test_relabelling_leaves_classification_unchanged(pair):
    g, relabelled = pair
    assert _answers(g) == _answers(relabelled)


# ---------------------------------------------------------------------------
# intersection theory against one solve over the whole contracted block


_RS = (None, F(1, 2), F(1, 3), F(1))


@st.composite
def graphs_with_contracted_sets(draw, rs=_RS):
    """A graph of 2-9 curves (a tree with up to three more edges, so cycles
    and double edges occur; decorations, boundary flags and coefficients,
    elliptic curves), a random vertex set and a uniform coefficient from
    ``rs``."""
    n = draw(st.integers(2, 9))
    weights = draw(st.lists(st.sampled_from((1, 2, 2, 2, 3, 3, 4, 5)), min_size=n, max_size=n))
    genera = draw(st.lists(st.sampled_from((0,) * 7 + (1,)), min_size=n, max_size=n))
    decorations = draw(st.lists(st.sampled_from((0, 0, 0, 1, F(1, 2))), min_size=n, max_size=n))
    boundary = draw(st.lists(st.sampled_from((0, 0, 1, F(1, 3))), min_size=n, max_size=n))
    mult = {(draw(st.integers(0, i - 1)), i): 1 for i in range(1, n)}
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        mult[a, b] = mult.get((a, b), 0) + 1
    g = DualGraph(
        tuple(Vertex(f"v{i}", weights[i], genera[i], F(decorations[i]), F(boundary[i]))
              for i in range(n)),
        tuple(Edge(f"v{a}", f"v{b}", m) for (a, b), m in mult.items()),
    )
    S = frozenset(f"v{i}" for i in range(n) if draw(st.integers(0, 2)))
    r = draw(st.sampled_from(rs))
    return g, S, r


def _mult(g, u, v):
    if u == v:
        return -g.by_id[u].weight
    return g.adjacency[u].get(v, 0)


def _whole_block(g, order):
    return [[-_mult(g, u, v) for v in order] for u in order]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs_with_contracted_sets())
def test_negative_definiteness_is_sylvester_on_the_whole_block(case):
    g, S, _ = case
    order = sorted(S)
    assert g.neg_q(order) == _whole_block(g, order)
    assert g.neg_q(order[::-1]) == _whole_block(g, order[::-1])
    assert is_negative_definite(g, S) == all(x > 0 for x in leading_minors(_whole_block(g, order)))


# r = 0 empties the support of D; r = 2/3 with a decoration 1/2 gives a
# right-hand side scale of 6
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs_with_contracted_sets(rs=_RS + (F(0), F(2, 3))))
def test_model_answers_equal_a_whole_block_solve(case):
    g, S, r = case
    order = sorted(S)
    m = _whole_block(g, order)
    assume(all(x > 0 for x in leading_minors(m)))
    model = LogSurfaceModel(g, S, r)

    def solve(rhs):
        return dict(zip(order, solve_int(m, rhs)))

    def k_dot(v):
        vert = g.by_id[v]
        return 2 * vert.genus - 2 + vert.weight

    bd = {v: model.coeff(v) for v in g.ids if v not in S and model.coeff(v) > 0}
    cf = solve([k_dot(e) + g.by_id[e].decoration
                + sum((c * _mult(g, b, e) for b, c in bd.items()), F(0)) for e in order])
    assert model.coefficients == cf
    k_corr = solve([F(k_dot(e)) for e in order])
    rest = [v for v in g.ids if v not in S]
    for v in rest:
        x = solve([F(_mult(g, v, e)) for e in order])
        assert model.pullback({v: F(1)}) == {v: 1, **{e: c for e, c in x.items() if c}}
        assert model.self_int(v) == -g.by_id[v].weight + sum(c * _mult(g, v, e) for e, c in x.items())
        k = k_dot(v) + sum(c * _mult(g, v, e) for e, c in k_corr.items())
        assert model.canonical_intersect({v: F(1)}) == k
        assert model.k_pairing(v) == k
        lk = (k_dot(v) + g.by_id[v].decoration + sum(c * _mult(g, v, b) for b, c in bd.items())
              + sum(c * _mult(g, v, e) for e, c in cf.items()))
        assert model.lk_pairing(v) == lk
    # divisors over several curves at once: A.K is pullback(A).K, since the
    # pullback meets every contracted curve trivially; B also has contracted
    # curves, which pullback(A) does not see
    A = {v: F(i + 1, 2) for i, v in enumerate(rest)}
    B = {v: F(1 - i, 3) for i, v in enumerate(g.ids)}
    contact = [sum((c * _mult(g, u, e) for u, c in A.items()), F(0)) for e in order]
    x = solve(contact)
    pb = {**A, **{e: c for e, c in x.items() if c}}
    assert model.pullback(A) == pb
    assert model.canonical_intersect(A) == sum((c * k_dot(u) for u, c in pb.items()), F(0))
    assert model.intersect(A, B) == sum(
        (c * b * _mult(g, u, w) for u, c in pb.items() for w, b in B.items()), F(0)
    )


# ---------------------------------------------------------------------------
# answers cached on the graph against a model on a graph of its own


@st.composite
def trees_with_contraction_orders(draw):
    """A tree of 2-10 curves (boundary flags, a few non-flag coefficients,
    decorations and elliptic curves), two uniform coefficients (or None)
    and an order in which to try contracting its curves."""
    n = draw(st.integers(2, 10))
    weights = draw(st.lists(st.sampled_from((1, 2, 2, 2, 3, 3, 4)), min_size=n, max_size=n))
    genera = draw(st.lists(st.sampled_from((0,) * 9 + (1,)), min_size=n, max_size=n))
    decorations = draw(st.lists(st.sampled_from((0, 0, 0, 0, 1)), min_size=n, max_size=n))
    boundary = draw(st.lists(st.sampled_from((0, 0, 1, 1, F(1, 3))), min_size=n, max_size=n))
    vertices = tuple(
        Vertex(f"v{i}", weights[i], genera[i], F(decorations[i]), F(boundary[i]))
        for i in range(n)
    )
    edges = tuple(Edge(f"v{draw(st.integers(0, i - 1))}", f"v{i}") for i in range(1, n))
    r = st.sampled_from((None, F(0), F(1, 3), F(1, 2), F(2, 3), F(1)))
    order = [f"v{i}" for i in draw(st.permutations(range(n)))]
    return vertices, edges, (draw(r), draw(r)), order


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(trees_with_contraction_orders())
def test_cached_answers_equal_those_of_a_fresh_model(case):
    vertices, edges, rs, order = case
    g = DualGraph(vertices, edges)
    # contract in the drawn order, skipping a curve that would break
    # definiteness; every model at both coefficients shares the graph's table
    sets = [frozenset()]
    for v in order:
        if is_negative_definite(g, sets[-1] | {v}):
            sets.append(sets[-1] | {v})
    for S in sets + sets[::-1]:
        for r in rs:
            cached = LogSurfaceModel(g, S, r)
            fresh = LogSurfaceModel(DualGraph(vertices, edges), S, r)
            assert list(cached.coefficients.items()) == list(fresh.coefficients.items())
            assert cached.boundary_support == fresh.boundary_support
            for v in cached.noncontracted():
                assert cached.self_int(v) == fresh.intersect({v: F(1)}, {v: F(1)})
                assert cached.k_pairing(v) == fresh.canonical_intersect({v: F(1)})
                assert cached.lk_pairing(v) == fresh.lk_pairing(v)


# ---------------------------------------------------------------------------
# blow-ups


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs_with_contracted_sets(), st.data())
def test_blowing_up_a_contracted_point_keeps_the_coefficients(case, data):
    """Blow up the point E_a . E_b with E_a contracted and contract the new
    curve x too: the old coefficients stay, and cf(x) = c_a + c_b - 1, where
    c_b is the coefficient of E_b in the boundary when E_b is not contracted
    (log discrepancies add: 1 - cf(x) = (1 - c_a) + (1 - c_b))."""
    g, S, r = case
    assume(is_negative_definite(g, S))
    sites = sorted((a, b) for a in S for b in g.adjacency[a])
    assume(sites)
    a, b = data.draw(st.sampled_from(sites))
    before = LogSurfaceModel(g, S, r)
    blown = blow_up(g, ("edge", a, b), "x")
    after = LogSurfaceModel(blown, S | {"x"}, r)
    c_b = before.coefficients[b] if b in S else before.coeff(b)
    assert after.coefficients == {**before.coefficients, "x": before.coefficients[a] + c_b - 1}


# ---------------------------------------------------------------------------
# the report emitter

_json_text_strings = st.one_of(
    st.text(),  # any code point, lone surrogates and control characters among them
    st.text(st.sampled_from('aé "\\\n\t\x00\x1f\x7f/\U0001f600'), max_size=6),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | _json_text_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_text_strings, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_json_values)
def test_json_text_equals_json_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_keeps_the_digit_limit_and_rejects_other_types():
    # main turns this ValueError into TooLarge by its message
    with pytest.raises(ValueError, match="integer string conversion"):
        json_text({"d": [10**5000]})
    for value in (1.5, (1, 2), {1, 2}, F(1, 2), {"a": [b"x"]}):
        with pytest.raises(TypeError):
            json_text(value)


def test_serialize_model_is_json_dumps_with_indent_2_on_every_fixture():
    for fx in fixture_corpus():
        want = json.dumps(model_to_dict(fx.model, name=fx.name), indent=2)
        assert serialize_model(fx.model, name=fx.name) == want
