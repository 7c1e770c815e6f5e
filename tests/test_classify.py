import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from logsurf import (
    DualGraph,
    Edge,
    GermGraph,
    LogSurfaceModel,
    NotApplicable,
    NotLogTerminal,
    NotMinimal,
    Vertex,
    alexeev_compare,
    classify_germ,
    classify_half,
    coefficients_linear,
    duval_type,
    eps_check,
    is_negative_definite,
    load_fixture,
)
from logsurf.classify import HALF

from conftest import chain_graph, fork_graph, model, random_log_terminal_germ


def germ(graph):
    return GermGraph(graph)


# -- classify_germ -------------------------------------------------------------


def test_lt_rod():
    gc = classify_germ(germ(chain_graph(3, 2)))
    assert gc.tag == "LT-NoBoundary-Rod"


def test_lt_fork():
    gc = classify_germ(germ(fork_graph(2, (2,), (2,), (2,))))
    assert gc.tag == "LT-NoBoundary-Fork"


def test_lc_fork_333():
    g = fork_graph(2, (3,), (3,), (3,))
    gc = classify_germ(germ(g))
    assert gc.tag == "LC-Fork"
    assert gc.payload["delta"] == 1


def test_lt_twig():
    g = chain_graph(3, 2, decorations={1: 1})
    gc = classify_germ(germ(g))
    assert gc.tag == "LT-Twig"


def test_lc_half_bench_chain():
    # [2,b,2] with one extra contact at the b-end
    g = chain_graph(2, 5, 2, decorations={1: 1})
    gc = classify_germ(germ(g))
    assert gc.tag == "LC-HalfBench"
    assert gc.payload == {"central_chain": ("v1",), "feet": ("v0", "v2")}


def test_lc_half_bench_fork():
    g = fork_graph(3, (2,), (2,), (2, 2), decorations={"t2_1": 1})
    gc = classify_germ(germ(g))
    assert gc.tag == "LC-HalfBench"
    assert gc.payload["central_chain"] == ("c", "t2_0", "t2_1")


def test_lc_segment():
    g = chain_graph(2, 3, 2, decorations={0: 1, 2: 1})
    gc = classify_germ(germ(g))
    assert gc.tag == "LC-Segment"


def test_lc_elliptic_and_cycle():
    g = DualGraph((Vertex("e", 1, genus=1),), ())
    assert classify_germ(germ(g)).tag == "LC-EllipticCurve"
    cyc = DualGraph(
        (Vertex("a", 3), Vertex("b", 2), Vertex("c", 2)),
        (Edge("a", "b"), Edge("b", "c"), Edge("a", "c")),
    )
    assert classify_germ(germ(cyc)).tag == "LC-Cycle"


def test_lc_bench():
    g = fork_graph(3, (2,), (2,))
    vs = list(g.vertices) + [Vertex("u1", 2), Vertex("u2", 2)]
    es = list(g.edges) + [Edge("c", "u1"), Edge("c", "u2")]
    gc = classify_germ(germ(DualGraph(tuple(vs), tuple(es))))
    assert gc.tag == "LC-Bench"


def test_not_minimal():
    with pytest.raises(NotMinimal):
        classify_germ(germ(chain_graph(1, 3)))


def test_classifier_agrees_with_coefficients_exhaustively():
    # all minimal connected chains/forks with <= 5 vertices, weights <= 4,
    # boundary contact <= 2: LT iff cf < 1, LC iff max cf == 1
    rng = random.Random(61)
    seen = 0
    for n in range(1, 5):
        for ws in itertools.product((2, 3, 4), repeat=n):
            for theta_pos in (None, 0, n - 1, "both", "end2"):
                dec = {}
                if theta_pos == "end2":
                    dec = {0: 2}
                elif theta_pos == "both":
                    if n == 1:
                        dec = {0: 2}
                    else:
                        dec = {0: 1, n - 1: 1}
                elif theta_pos is not None:
                    dec = {theta_pos: 1}
                g = chain_graph(*ws, decorations=dec)
                if not is_negative_definite(g, g.ids):
                    continue
                gm = germ(g)
                tag = classify_germ(gm).tag
                mx = max(gm.coefficients.values())
                seen += 1
                if tag.startswith("LT"):
                    assert mx < 1, (ws, dec, tag, mx)
                elif tag.startswith("LC"):
                    assert mx == 1, (ws, dec, tag, mx)
                else:
                    assert mx > 1, (ws, dec, tag, mx)
    assert seen > 100


def test_fork_classifier_agrees_with_coefficients():
    for b in (2, 3):
        for tw in itertools.product((2, 3, 4), repeat=3):
            g = fork_graph(b, *[(w,) for w in tw])
            if not is_negative_definite(g, g.ids):
                continue
            gm = germ(g)
            tag = classify_germ(gm).tag
            mx = max(gm.coefficients.values())
            if tag.startswith("LT"):
                assert mx < 1
            elif tag.startswith("LC"):
                assert mx == 1
            else:
                assert mx > 1


# -- du Val types ----------------------------------------------------------------


def test_duval_chain():
    assert duval_type(chain_graph(2, 2, 2)) == "A_3"
    assert duval_type(chain_graph(2)) == "A_1"
    assert duval_type(chain_graph(3, 2)) is None


@pytest.mark.parametrize("k,expected", [(1, "D_4"), (2, "D_5"), (4, "D_7")])
def test_duval_fork_D(k, expected):
    g = fork_graph(2, (2,), (2,), tuple([2] * k))
    assert duval_type(g) == expected


def test_duval_E():
    assert duval_type(fork_graph(2, (2,), (2, 2), (2, 2))) == "E_6"
    assert duval_type(fork_graph(2, (2,), (2, 2), (2, 2, 2))) == "E_7"
    assert duval_type(fork_graph(2, (2,), (2, 2), (2, 2, 2, 2))) == "E_8"
    # affine shapes are not negative definite, hence not du Val germs
    assert duval_type(fork_graph(2, (2, 2), (2, 2), (2, 2))) is None


# -- eps checks -------------------------------------------------------------------


def test_eps_cuspidal_cubic_r45():
    cc = load_fixture("cuspidal_cubic").model
    r = F(4, 5)
    m = LogSurfaceModel(cc.graph, frozenset({"E1", "E2", "L"}), r)
    v = eps_check(m, 1 - r)
    assert v.is_lc and not v.is_dlt
    assert v.tcf == r  # worst exceptional coefficient 6r-4 equals r


def test_eps_cuspidal_cubic_intermediate():
    cc = load_fixture("cuspidal_cubic").model
    r = F(3, 5)
    m1 = LogSurfaceModel(cc.graph, frozenset({"L"}), r)
    v = eps_check(m1, 1 - r)
    assert not v.is_lc
    assert m1.coefficients["L"] == 3 * r - 1 > r


def test_eps_du_val_epsilon_one():
    d4 = fork_graph(2, (2,), (2,), (2,))
    m = model(d4, contracted=d4.ids)
    v = eps_check(m, F(1))
    assert v.is_lc and not v.is_dlt  # cf = 0 = 1 - eps is the boundary case


# -- half taxonomy -----------------------------------------------------------------


def test_half_rod_3_22_3():
    g = chain_graph(3, 2, 2, 3)
    hc = classify_half(germ(g), strict=False)
    assert hc.tag == "(2a)" and hc.formula == "(2a)"
    assert set(hc.coefficients.values()) == {HALF}


def test_half_minus_two_twig():
    g = chain_graph(2, 2, decorations={1: 1})
    hc = classify_half(germ(g), strict=True)
    assert hc.tag == "(1b)" and hc.formula == "(1c)"
    assert hc.coefficients == {"v0": F(1, 6), "v1": F(1, 3)}


def test_half_2_3_2():
    g = chain_graph(2, 3, 2)
    hc = classify_half(germ(g), strict=False)
    assert hc.tag == "(2a)" and hc.formula == "(2b)"
    assert hc.coefficients == {"v0": F(1, 4), "v1": HALF, "v2": F(1, 4)}


def test_half_asterisk_rod_strict():
    g = chain_graph(3, 2, 2)
    hc = classify_half(germ(g), strict=True)
    assert hc.tag == "(1a)" and hc.formula == "(1b)"
    assert hc.coefficients == {"v0": F(3, 7), "v1": F(2, 7), "v2": F(1, 7)}


def test_half_fork_2b():
    g = fork_graph(2, (2,), (2,), (3, 2))
    hc = classify_half(germ(g), strict=False)
    assert hc.tag == "(2a)" and hc.formula == "(2b)"
    assert hc.coefficients["t0_0"] == F(1, 4)
    assert hc.coefficients["c"] == HALF


def test_half_closed_forms_equal_linear_solve():
    # every matched closed form coincides with the linear-system solution
    cases = []
    for k in range(1, 7):
        cases.append(chain_graph(*([2] * k)))  # (1a)
        cases.append(chain_graph(3, *([2] * (k - 1))))  # (1b)
        cases.append(chain_graph(*([2] * k), decorations={k - 1: 1}))  # (1c)
        if k >= 2:
            cases.append(chain_graph(3, *([2] * (k - 2)), 3))  # (2a)
        cases.append(fork_graph(2, (2,), (2,), tuple([3] + [2] * (k - 1))))  # (2b)
        cases.append(
            chain_graph(*([2] * k), decorations=({0: 2} if k == 1 else {0: 1, k - 1: 1}))
        )  # (2c)
    cases.append(chain_graph(4))  # (2a)
    cases.append(chain_graph(2, 3, 2))  # (2b)
    for g in cases:
        gm = germ(g)
        theta = any(v.decoration for v in g.vertices)
        matched = None
        for strict in (True, False):
            try:
                matched = classify_half(gm, strict=strict)
                break
            except NotApplicable:
                continue
        assert matched is not None, g
        if matched.coefficients:
            # evaluate the linear oracle at r = 1/2 via decoration scaling:
            # germ decorations carry coefficient r, so scale them by 1/2
            scaled = DualGraph(
                tuple(
                    Vertex(v.id, v.weight, v.genus, v.decoration * HALF, v.boundary)
                    for v in g.vertices
                ),
                g.edges,
            )
            lin = GermGraph(scaled).coefficients
            assert matched.coefficients == lin, (g, matched)


@pytest.mark.parametrize(
    "graph",
    [
        chain_graph(2, 2, decorations={0: 2}),
        DualGraph((Vertex("e", 3, genus=1),), ()),
        DualGraph((Vertex("e", 4, genus=1),), ()),
    ],
    ids=["chain-2-2-contact-2-at-end", "elliptic-3", "elliptic-4"],
)
def test_germs_with_coefficient_at_least_one(graph):
    # reference: the linear solve; neither germ is log terminal, so neither
    # is on a cf <= 1/2 list, and the LC/NotLC tag follows the maximum
    gm = germ(graph)
    top = max(coefficients_linear(gm.model).values.values())
    assert top >= 1
    assert classify_germ(gm).tag.startswith("LC-" if top == 1 else "NotLC")
    for strict in (True, False):
        with pytest.raises(NotApplicable):
            classify_half(gm, strict=strict)


def test_half_2d_twig_formula_at_half_and_bound_below():
    # twig [3,2,...,2]: closed form E/2 at r = 1/2; for r < 1/2 only >= rE
    for k in (1, 2, 3):
        g = chain_graph(3, *([2] * (k - 1)), decorations={k - 1: 1})
        gm = germ(g)
        hc = classify_half(gm, strict=False)
        assert hc.tag == "(2b)" and hc.formula == "(2d)"
        assert set(hc.coefficients.values()) == {HALF}
        for r in (F(0), F(1, 4), F(1, 3)):
            scaled = DualGraph(
                tuple(
                    Vertex(v.id, v.weight, v.genus, v.decoration * r, v.boundary)
                    for v in g.vertices
                ),
                g.edges,
            )
            lin = GermGraph(scaled).coefficients
            assert all(c >= r for c in lin.values())
            assert any(c > r for c in lin.values())


# -- subgraph comparison ------------------------------------------------------------


def test_alexeev_examples():
    sub = germ(chain_graph(3))
    sup = germ(chain_graph(3, 2))
    v = alexeev_compare(sub, sup, {"v0": "v0"})
    assert v.strict and not v.du_val
    assert v.values_sub["v0"] == F(1, 3) and v.values_super["v0"] == F(2, 5)

    sub2 = germ(chain_graph(2))
    sup2 = germ(chain_graph(2, 2))
    v2 = alexeev_compare(sub2, sup2, {"v0": "v0"})
    assert not v2.strict and v2.du_val

    sub3 = germ(chain_graph(3))
    sup3 = germ(chain_graph(4))
    v3 = alexeev_compare(sub3, sup3, {"v0": "v0"})
    assert v3.strict
    assert v3.values_sub["v0"] == F(1, 3) and v3.values_super["v0"] == F(1, 2)


def test_alexeev_random_monotone():
    rng = random.Random(67)
    for _ in range(300):
        sup = random_log_terminal_germ(rng)
        g = sup.graph
        ids = list(g.ids)
        keep = sorted(rng.sample(ids, rng.randint(1, len(ids))))
        sub_vertices = []
        changed = False
        for v in g.vertices:
            if v.id not in keep:
                changed = True
                continue
            w = v.weight
            dec = v.decoration
            if w > 2 and rng.random() < 0.3:
                w -= 1
                changed = True
            if dec > 0 and rng.random() < 0.5:
                dec = F(0)
                changed = True
            sub_vertices.append(Vertex(v.id, w, v.genus, dec, v.boundary))
        keepset = set(keep)
        sub_edges = tuple(e for e in g.edges if e.a in keepset and e.b in keepset)
        subg = DualGraph(tuple(sub_vertices), sub_edges)
        if not is_negative_definite(subg, subg.ids):
            continue
        sub = GermGraph(subg)
        if any(c >= 1 for c in sub.coefficients.values()):
            continue
        v = alexeev_compare(sub, sup, {k: k for k in keep})
        if changed:
            assert v.strict or v.du_val


def test_minus_two_bench_is_not_a_germ():
    from logsurf import NotNegativeDefinite

    bench = fork_graph(2, (2,), (2,))
    vs = list(bench.vertices) + [Vertex("u1", 2), Vertex("u2", 2)]
    es = list(bench.edges) + [Edge("c", "u1"), Edge("c", "u2")]
    g = DualGraph(tuple(vs), tuple(es))
    with pytest.raises(NotNegativeDefinite, match="resolution graph must be negative definite"):
        GermGraph(g)


@pytest.mark.parametrize("arms", [(2, 2, 2), (1, 3, 3), (1, 2, 5)])
def test_affine_e_forks_are_not_germs(arms):
    # E~6, E~7, E~8: the all-(-2) forks with delta = 1, which classify_germ
    # need not tell apart from LC-Fork
    from logsurf import NotNegativeDefinite

    twigs = [(2,) * n for n in arms]
    with pytest.raises(NotNegativeDefinite):
        GermGraph(fork_graph(2, *twigs))
    assert classify_germ(GermGraph(fork_graph(3, *twigs))).tag == "LC-Fork"


def test_affine_d_bench_is_not_a_germ():
    # D~7: two (-2)-feet at each end of an all-(-2) central chain of four
    from logsurf import NotNegativeDefinite

    core = chain_graph(2, 2, 2, 2)
    feet = [Vertex(f"f{i}", 2) for i in range(4)]
    ends = [Edge("v0", "f0"), Edge("v0", "f1"), Edge("v3", "f2"), Edge("v3", "f3")]
    with pytest.raises(NotNegativeDefinite):
        GermGraph(DualGraph(core.vertices + tuple(feet), core.edges + tuple(ends)))


def test_germ_checks_negative_definiteness_once(monkeypatch):
    import logsurf.graph
    import logsurf.invariants

    calls = []
    check = logsurf.graph.is_negative_definite
    for module in (logsurf.graph, logsurf.invariants):
        monkeypatch.setattr(
            module, "is_negative_definite", lambda *a: calls.append(a) or check(*a), raising=False
        )
    g = germ(fork_graph(3, (2,), (2,), (2, 2)))
    assert g.coefficients and g.model.coefficients == g.coefficients
    assert len(calls) == 1


def test_weight_lowering_shrinks_discriminant():
    from logsurf import discriminant

    rng = random.Random(97)
    for _ in range(60):
        germ0 = random_log_terminal_germ(rng)
        g = germ0.graph
        cands = [v for v in g.vertices if v.weight > 2]
        if not cands:
            continue
        target = rng.choice(cands)
        lowered = DualGraph(
            tuple(
                Vertex(v.id, v.weight - 1 if v.id == target.id else v.weight, v.genus,
                       v.decoration, v.boundary)
                for v in g.vertices
            ),
            g.edges,
        )
        if not is_negative_definite(lowered, lowered.ids):
            continue
        assert discriminant(lowered, lowered.ids) < discriminant(g, g.ids)


def test_decorated_fork_classifier_agrees_with_coefficients():
    # forks with a single contact: only the half-bench shapes stay log
    # canonical; everything else with max cf == 1 must be so tagged
    for b in (2, 3):
        for tw in itertools.product((2, 3), repeat=3):
            for spot in ("c", "t0_0", "t2_0"):
                g = fork_graph(b, (tw[0],), (tw[1],), (tw[2],), decorations={spot: 1})
                if not is_negative_definite(g, g.ids):
                    continue
                gm = GermGraph(g)
                tag = classify_germ(gm).tag
                mx = max(gm.coefficients.values())
                if tag.startswith("LT"):
                    assert mx < 1, (b, tw, spot, tag, mx)
                elif tag.startswith("LC"):
                    assert mx == 1, (b, tw, spot, tag, mx)
                else:
                    assert mx > 1, (b, tw, spot, tag, mx)


# -- direct chain and fork questions ---------------------------------------------


def _random_shape_graph(rng, n):
    """A random tree on n curves in shuffled id order, sometimes with one more
    edge (a cycle or a double edge), a double edge, or an elliptic curve."""
    ids = [f"u{i}" for i in range(n)]
    rng.shuffle(ids)
    vs = tuple(
        Vertex(v, rng.choice((1, 2, 2, 2, 3, 4)), genus=int(rng.random() < 0.06)) for v in ids
    )
    mult = {}
    for i in range(1, n):
        mult[tuple(sorted((ids[rng.randrange(i)], ids[i])))] = 1
    if n >= 2 and rng.random() < 0.3:
        pair = tuple(sorted(rng.sample(ids, 2)))
        mult[pair] = mult.get(pair, 0) + 1
    if n >= 2 and rng.random() < 0.1:
        mult[tuple(sorted(rng.sample(ids, 2)))] = 2
    return DualGraph(vs, tuple(Edge(a, b, m) for (a, b), m in mult.items()))


def _reference_chain_and_fork(g):
    """Whether a connected graph is a chain and whether it is a fork, read off
    its degree sequence: a tree (edge count with multiplicity n - 1) is a
    chain when no degree exceeds 2, and a fork when exactly one curve has
    degree 3 and no other more than 2."""
    if sum(e.mult for e in g.edges) != len(g.ids) - 1:
        return False, False
    degrees = sorted(len(g.adjacency[v]) for v in g.ids)
    return degrees[-1] <= 2, degrees[-1] == 3 and degrees[-2] <= 2


def test_direct_chain_and_fork_questions_match_find_shapes():
    from logsurf.graph import _as_fork, _chain_order, find_shapes

    rng = random.Random(20241)
    seen = {"chain": 0, "fork": 0}
    for _ in range(2000):
        g = _random_shape_graph(rng, rng.randint(1, 9))
        chain, fork = _chain_order(g, frozenset(g.ids)), _as_fork(g, frozenset(g.ids))
        assert (chain is not None, fork is not None) == _reference_chain_and_fork(g), g
        shapes = find_shapes(g, g.ids)
        assert shapes.rods == ((chain,) if chain else ()), g
        assert shapes.forks == ((fork,) if fork else ()), g
        seen["chain"] += chain is not None
        seen["fork"] += fork is not None
    assert min(seen.values()) > 200, seen


def _census_germ(rng):
    """A seeded negative definite germ of 1-12 curves, a chain, a fork, a
    tree or a tree with one cycle, a third of them with reduced contacts at
    one or two curves, and the kind drawn."""
    while True:
        kind = rng.choice(("chain", "fork", "tree", "cycle"))
        n = rng.randint(4 if kind == "fork" else 3 if kind == "cycle" else 1, 12)
        if kind == "chain":
            pairs = [(i - 1, i) for i in range(1, n)]
        elif kind == "fork":
            cuts = sorted(rng.sample(range(1, n - 1), 2))
            arms = [range(1, cuts[0] + 1), range(cuts[0] + 1, cuts[1] + 1), range(cuts[1] + 1, n)]
            pairs = [(arm[k - 1] if k else 0, arm[k]) for arm in arms for k in range(len(arm))]
        else:
            c = rng.randint(3, n) if kind == "cycle" else 0
            pairs = [(i - 1, i) for i in range(1, c)] + ([(0, c - 1)] if c else [])
            pairs += [(rng.randrange(i), i) for i in range(max(c, 1), n)]
        dec = [0] * n
        if rng.random() < 0.35:
            for _ in range(rng.randint(1, 2)):
                dec[rng.randrange(n)] = 1
        vs = tuple(Vertex(f"g{i}", rng.choice((2, 2, 2, 2, 3, 3, 4, 5)), decoration=dec[i])
                   for i in range(n))
        g = DualGraph(vs, tuple(Edge(f"g{a}", f"g{b}") for a, b in pairs))
        if is_negative_definite(g, g.ids):
            return kind, GermGraph(g)


def _census_queries(gg):
    """The query set of one germ: its class, its du Val type, both half
    lists, an eps verdict and, for a germ with a leaf, the comparison with
    the germ less that leaf (the identity embedding)."""
    g = gg.graph
    out = [classify_germ(gg).tag, duval_type(g)]
    for strict in (True, False):
        try:
            out.append(classify_half(gg, strict=strict).coefficients)
        except NotApplicable:
            out.append(None)
    out.append(eps_check(gg.model, F(0)).tcf)
    leaves = [v for v in g.ids if len(g.adjacency[v]) == 1]
    if leaves:
        sub = GermGraph(g.without([leaves[0]]))
        try:
            out.append(alexeev_compare(sub, gg, {v: v for v in sub.graph.ids}).du_val)
        except NotLogTerminal:
            out.append(None)
    return out


def test_kept_shape_answers_equal_fresh_ones():
    from logsurf.graph import _find_chain, _find_fork

    rng = random.Random(2025)
    seen = Counter()
    for _ in range(400):
        kind, gg = _census_germ(rng)
        _census_queries(gg)
        copy = DualGraph(gg.graph.vertices, gg.graph.edges)
        for key, kept in gg.graph._answers.items():
            if key[0] == "chain":
                assert kept == _find_chain(copy, key[1]), key
            elif key[0] == "fork":
                assert kept == _find_fork(copy, key[1]), key
            else:
                continue
            seen[(key[0], kept is not None)] += 1
        seen[kind] += 1
    assert len(seen) == 8 and min(seen.values()) >= 30, seen


def test_the_half_match_is_made_once_per_germ(monkeypatch):
    import logsurf.classify as classify

    calls = []
    real = classify._germ_shape_half
    monkeypatch.setattr(classify, "_germ_shape_half", lambda gg: calls.append(gg) or real(gg))
    gg = germ(chain_graph(3, 2, 2))  # (1b): on the strict list only
    first, second = classify_half(gg), classify_half(gg)
    with pytest.raises(NotApplicable):
        classify_half(gg, strict=False)
    assert len(calls) == 1
    assert first.coefficients == second.coefficients
    assert first.coefficients is not second.coefficients
    first.coefficients.clear()
    assert classify_half(gg).coefficients == second.coefficients
    rng = random.Random(7)
    for _ in range(100):
        _, gg = _census_germ(rng)
        calls.clear()
        _census_queries(gg)
        assert len(calls) == 1


def test_a_connected_germ_is_read_as_du_val_without_a_new_graph(monkeypatch):
    from logsurf.classify import is_du_val_germ

    built = []
    real = DualGraph.__post_init__
    monkeypatch.setattr(DualGraph, "__post_init__", lambda g: built.append(g) or real(g))
    connected = [germ(chain_graph(2, 2, 2)), germ(fork_graph(2, (2,), (2,), (2, 2))),
                 germ(chain_graph(2, 3)), germ(fork_graph(3, (2,), (2,), (2, 2)))]
    built.clear()
    assert [is_du_val_germ(gg) for gg in connected] == [True, True, False, False]
    assert built == []
    # two components: one graph for each
    two = chain_graph(2, 2, 2)
    two = germ(DualGraph(two.vertices, two.edges[:1]))
    built.clear()
    assert is_du_val_germ(two) is True and len(built) == 2
