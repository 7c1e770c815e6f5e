"""Property tests (hypothesis): answers that must not depend on how the
vertices are named."""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from logsurf import DualGraph, Edge, GermGraph, LogSurfError, Vertex, is_negative_definite
from logsurf.classify import classify_germ, classify_half, duval_type


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
