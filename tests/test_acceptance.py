"""Acceptance suite: one test per criterion, exact rational equality
throughout.  Each test registers a PASS line printed in the terminal summary.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from logsurf import (
    DualGraph,
    Edge,
    GermGraph,
    LogSurfaceModel,
    Vertex,
    almost_log_exceptional,
    almost_minimalize,
    alexeev_compare,
    bark_chain,
    coefficient_divisor_uniform,
    discriminant,
    enumerate_runs,
    eps_check,
    is_negative_definite,
    is_partial_mmp_run,
    load_fixture,
    relative_k_mmp,
)
from logsurf.invariants import fork_delta
from logsurf.graph import find_shapes
from logsurf.linalg import solve_int
from logsurf.mmp import curve_verdict

from conftest import (
    chain_graph,
    fork_graph,
    model,
    random_log_terminal_germ,
    random_negative_definite_tree,
    record_acceptance,
)
from oracles import cofactor_matches_path, is_log_smooth_output, tree_coefficient_identity

R_GRID = (F(0), F(1, 4), F(1, 3), F(1, 2))


def linear_cf(graph, exc, r):
    return LogSurfaceModel(graph, frozenset(exc), F(r)).coefficients


def test_criterion_01_coefficient_closed_forms():
    checked = 0
    for k in range(1, 7):
        for r in R_GRID:
            # (1a): (-2)-rod and (-2)-fork: cf identically zero
            rod = chain_graph(*([2] * k), boundary=tuple(range(k)))
            assert set(linear_cf(rod, rod.ids, r).values()) == {F(0)}
            fork = fork_graph(2, (2,), (2,), tuple([2] * k), boundary_all=True)
            assert set(linear_cf(fork, fork.ids, r).values()) == {F(0)}
            checked += 2
            # (1b): rod [3,(2)_{k-1}]: cf(E_i) = (k+1-i)/(2k+1), independent of r
            ast = chain_graph(3, *([2] * (k - 1)), boundary=tuple(range(k)))
            cf = linear_cf(ast, ast.ids, r)
            closed = coefficient_divisor_uniform(model(ast, r=r), ast.ids, r).values
            for i in range(1, k + 1):
                assert cf[f"v{i-1}"] == F(k + 1 - i, 2 * k + 1)
            assert cf == closed
            checked += 1
            # (1c): (-2)-twig: cf(E_i) = i r / (k+1)
            tw = chain_graph(*([2] * k + [0]), boundary=tuple(range(k + 1)))
            exc = [f"v{i}" for i in range(k)]
            cf = linear_cf(tw, exc, r)
            closed = coefficient_divisor_uniform(model(tw, r=r), exc, r).values
            for i in range(1, k + 1):
                assert cf[f"v{i-1}"] == F(i, k + 1) * r
            assert cf == closed
            checked += 1
            # (2a): [4] and [3,(2)_{k-2},3]: one half everywhere
            if k == 1:
                four = chain_graph(4, boundary=(0,))
                assert set(linear_cf(four, four.ids, r).values()) == {F(1, 2)}
            if k >= 2:
                rr = chain_graph(3, *([2] * (k - 2)), 3, boundary=tuple(range(k)))
                assert set(linear_cf(rr, rr.ids, r).values()) == {F(1, 2)}
            checked += 1
            # (2b): [2,3,2] and the fork <2;2,2,[3,(2)_{k-1}]>
            mid = chain_graph(2, 3, 2, boundary=(0, 1, 2))
            assert linear_cf(mid, mid.ids, r) == {
                "v0": F(1, 4),
                "v1": F(1, 2),
                "v2": F(1, 4),
            }
            fk = fork_graph(2, (2,), (2,), tuple([3] + [2] * (k - 1)), boundary_all=True)
            cf = linear_cf(fk, fk.ids, r)
            for vid, c in cf.items():
                want = F(1, 4) if vid in ("t0_0", "t1_0") else F(1, 2)
                assert c == want
            checked += 2
            # (2c): (-2)-segment between two hosts: cf = r on every component
            seg = chain_graph(*([0] + [2] * k + [0]), boundary=tuple(range(k + 2)))
            exc = [f"v{i}" for i in range(1, k + 1)]
            assert set(linear_cf(seg, exc, r).values()) == {r}
            checked += 1
            # (2d): twig [3,(2)_{k-1}]: equal to r E only at r = 1/2, above it
            # otherwise
            twd = chain_graph(*([3] + [2] * (k - 1) + [0]),
                              boundary=tuple(range(k + 1)))
            exc = [f"v{i}" for i in range(k)]
            cf = linear_cf(twd, exc, r)
            if r == F(1, 2):
                assert set(cf.values()) == {F(1, 2)}
            else:
                assert all(c > r for c in cf.values())
            checked += 1
    record_acceptance("criterion 1", f"{checked} closed-form checks, exact")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [F(1, 3), F(1, 2), F(2, 3)])
def test_criterion_02_cusp_resolution(n, r):
    ws = [3] + [2] * (n - 2) + [3, 1, 2]
    g = chain_graph(*ws)
    g = DualGraph(
        (*g.vertices, Vertex("R", 0, boundary=F(1))),
        (*g.edges, Edge(f"v{n}", "R")),
    )
    cf = LogSurfaceModel(g, frozenset(f"v{i}" for i in range(n + 2)), r).coefficients
    for i in range(n):
        assert cf[f"v{i}"] == i * (2 * r - 1) + r
    assert cf[f"v{n}"] == 2 * n * (2 * r - 1)
    assert cf[f"v{n+1}"] == n * (2 * r - 1)
    assert (max(cf.values()) <= r) == (r <= F(1, 2))
    record_acceptance("criterion 2", "cusp-resolution coefficient vectors exact")


def test_criterion_03_ale_grid():
    first, second = set(), set()
    for m_ in range(2, 9):
        for n_ in range(m_, 9):
            g = DualGraph(
                (
                    Vertex("d1", n_, boundary=F(1)),
                    Vertex("a", 1),
                    Vertex("d2", m_, boundary=F(1)),
                ),
                (Edge("d1", "a"), Edge("a", "d2")),
            )
            out = {
                v.vertex: v.kind
                for v in almost_log_exceptional(model(g, r=1), kind="second")
            }
            if out.get("a") == "first":
                first.add((m_, n_))
            elif out.get("a") == "second":
                second.add((m_, n_))
    assert first == {(2, n_) for n_ in range(3, 9)} | {(3, 3), (3, 4), (3, 5)}
    assert second == {(3, 6), (4, 4)}
    record_acceptance("criterion 3", "first/second kind sets over the grid exact")


def test_criterion_04_counterexample_fixtures():
    # first family: chain [3,1,3,a,0], middle pair contracted
    for a in (2, 3):
        g = chain_graph(3, 1, 3, a, 0, boundary=(0, 4))
        base = LogSurfaceModel(g, frozenset({"v2", "v3"}))
        lo = 1 - F(1, 3 * a - 4)
        for r in (lo + (1 - lo) / 3, lo + (1 - lo) / 2, F(1)):
            m = LogSurfaceModel(g, base.contracted, r)
            d = almost_minimalize(m)
            fin = d.almost_minimal_model
            cf = fin.coefficients
            # the two exceptional curves of the singular point carry exactly
            # these coefficients (chain labels: v2 is the (-3), v3 the (-a))
            assert cf["v3"] == 1 - F(3, 2 * a - 1) * (1 - r)
            assert cf["v2"] == 1 - F(a + 1, 2 * a - 1) * (1 - r)
            assert {cf["v2"], cf["v3"]} == {
                1 - F(3, 2 * a - 1) * (1 - r),
                1 - F(a + 1, 2 * a - 1) * (1 - r),
            }
            v = eps_check(fin, 1 - r)
            assert not v.is_dlt
            assert v.is_lc == (r == 1 or a == 2)
    # second family: the fork with branch [n+2]
    for n in (2, 3):
        vs = [
            Vertex("b", n + 2),
            Vertex("ta", 3, boundary=F(1)),
            Vertex("t2a", 2),
            Vertex("t2b", 2),
            Vertex("l", 1),
            *[Vertex(f"e{i}", 2) for i in range(1, n)],
            Vertex("en", 3),
            Vertex("lp", 1),
            Vertex("f", 0, boundary=F(1)),
        ]
        chain_ids = ["l"] + [f"e{i}" for i in range(1, n)] + ["en", "lp"]
        es = [Edge("b", "ta"), Edge("b", "t2a"), Edge("t2a", "t2b"), Edge("b", "l")]
        es += [Edge(chain_ids[i], chain_ids[i + 1]) for i in range(len(chain_ids) - 1)]
        g = DualGraph(tuple(vs), tuple(es))
        contracted = frozenset({"b", "t2a", "t2b", "en"} | {f"e{i}" for i in range(1, n)})
        m = LogSurfaceModel(g, contracted, F(1))
        assert discriminant(g, ["b", "t2a", "t2b"]) == 3 * n + 4
        assert discriminant(g, ["ta", "b", "t2a", "t2b"]) == 9 * (n + 1)
        alpha = LogSurfaceModel(g, contracted | {"ta"}, F(1))
        assert alpha.canonical_intersect({"l": F(1)}) == F(1, 2 * n + 1) - F(2, 3 * n + 3)
        d = almost_minimalize(m)
        assert d.am.exceptional == {"l"}
        assert not eps_check(d.almost_minimal_model, 0).is_lc
    record_acceptance("criterion 4", "both counterexample families exact")


def test_criterion_05_intermediate_ladder():
    fx = load_fixture("cuspidal_cubic").model
    graph = fx.graph
    for r in (F(11, 20), F(3, 5), F(13, 20), F(7, 10), F(3, 4), F(4, 5)):
        lad = [
            LogSurfaceModel(graph, frozenset(c), r)
            for c in ({"L"}, {"L", "E1"}, {"L", "E1", "E2"})
        ]
        assert lad[0].coefficients == {"L": 3 * r - 1}
        assert lad[1].coefficients == {"L": 4 * r - 2, "E1": 2 * r - 1}
        assert lad[2].coefficients == {"L": 6 * r - 4, "E1": 3 * r - 2, "E2": 2 * r - 1}
        # the almost minimalization really walks through these models
        d = almost_minimalize(LogSurfaceModel(graph, frozenset(), r), kind="second")
        assert [s.vertex for s in d.am.steps] == ["L", "E1", "E2"]
        assert [m.contracted for m in d.am.models[1:]] == [m_.contracted for m_ in lad]
        v1 = eps_check(lad[0], 1 - r)
        assert v1.is_lc == (r <= F(1, 2))
        assert eps_check(lad[0], 0).is_lc == (r <= F(2, 3))
    record_acceptance("criterion 5", "ladder coefficients and lc verdicts exact")


def test_criterion_06_oracle_equivalence():
    rng = random.Random(20260810)
    checked = 0
    while checked < 500:
        kind = rng.choice(("twig", "rod", "fork"))
        r = F(rng.randint(0, 6), 6)
        if kind == "twig":
            k = rng.randint(1, 7)
            ws = [rng.randint(2, 6) for _ in range(k)] + [0]
            g = chain_graph(*ws, boundary=tuple(range(k + 1)))
            exc = [f"v{i}" for i in range(k)]
        elif kind == "rod":
            k = rng.randint(1, 8)
            g = chain_graph(*[rng.randint(2, 6) for _ in range(k)], boundary=tuple(range(k)))
            exc = list(g.ids)
        else:
            tw = [
                tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 2)))
                for _ in range(3)
            ]
            g = fork_graph(rng.randint(2, 6), *tw, boundary_all=True)
            if fork_delta(g, find_shapes(g, g.ids).forks[0]) <= 1:
                continue
            exc = list(g.ids)
        closed = coefficient_divisor_uniform(model(g, r=r), exc, r).values
        lin = linear_cf(g, exc, r)
        assert closed == lin
        # bark tip product identity on the chains involved
        if kind in ("twig", "rod"):
            order = tuple(exc)
            bk = bark_chain(g, order).coefficients
            for i, v in enumerate(order):
                assert g.pairing({v: F(1)}, bk) == (-1 if i == 0 else 0)
        checked += 1
    record_acceptance("criterion 6", "500 configurations, closed form == linear solve")


def test_criterion_07_appendix_identities():
    rng = random.Random(77)
    for _ in range(500):
        g = random_negative_definite_tree(rng, rng.randint(1, 9), theta_max=1)
        germ = GermGraph(g)
        cf = germ.coefficients
        ids = list(g.ids)
        # tree formula on every vertex
        for j in ids:
            assert tree_coefficient_identity(germ, j) == 1 - cf[j]
        # cofactor identity on a sample of pairs (all pairs on small trees)
        if len(ids) <= 5:
            pairs = [(i, j) for i in ids for j in ids]
        else:
            pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(6)]
        for i, j in pairs:
            assert cofactor_matches_path(g, i, j)
        # negativity: all entries of (-Q)^{-1} are positive
        m = g.neg_q(ids)
        n = len(ids)
        for j in range(n):
            col = solve_int(m, [F(1 if i == j else 0) for i in range(n)])
            assert all(x > 0 for x in col)
    # Alexeev monotonicity on 10^4 random subgraph pairs
    rng2 = random.Random(101)
    pairs_checked = 0
    while pairs_checked < 10_000:
        sup = random_log_terminal_germ(rng2)
        g = sup.graph
        keep = sorted(rng2.sample(list(g.ids), rng2.randint(1, len(g.ids))))
        changed = len(keep) < len(g.ids)
        vs = []
        for v in g.vertices:
            if v.id not in keep:
                continue
            w, dec = v.weight, v.decoration
            if w > 2 and rng2.random() < 0.3:
                w -= 1
                changed = True
            if dec > 0 and rng2.random() < 0.5:
                dec = F(0)
                changed = True
            vs.append(Vertex(v.id, w, v.genus, dec, v.boundary))
        keepset = set(keep)
        sub_g = DualGraph(
            tuple(vs), tuple(e for e in g.edges if e.a in keepset and e.b in keepset)
        )
        if not is_negative_definite(sub_g, sub_g.ids):
            continue
        sub = GermGraph(sub_g)
        if any(c >= 1 for c in sub.coefficients.values()):
            continue
        verdict = alexeev_compare(sub, sup, {k: k for k in keep})
        if changed and not verdict.du_val:
            assert verdict.strict
        pairs_checked += 1
    record_acceptance("criterion 7", "tree/cofactor/negativity + 10^4 comparisons")


def test_criterion_08_relative_kmmp_confluence():
    from logsurf import fixture_corpus

    # fixtures: all maximal relative K-MMP runs over the full contractible
    # target agree
    for fx in fixture_corpus():
        m = fx.model
        candidates = [
            set(c)
            for c in m.graph.connected_components(m.noncontracted())
            if is_negative_definite(m.graph, m.contracted | c) and len(c) <= 8
        ]
        for target in candidates:
            runs = enumerate_runs(m, kind="first", over=target, use_boundary=False)
            finals = {r.exceptional for r in runs}
            assert len(finals) == 1
            assert finals.pop() == relative_k_mmp(m, target).exceptional
    # 200 random negative definite configurations
    rng = random.Random(88)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 7)
        vs = [Vertex(f"v{i}", rng.randint(1, 4)) for i in range(n)]
        es = []
        for i in range(1, n):
            es.append(Edge(f"v{rng.randrange(i)}", f"v{i}"))
        g = DualGraph(tuple(vs), tuple(es))
        if not is_negative_definite(g, g.ids):
            continue
        checked += 1
        m = model(g)
        runs = enumerate_runs(m, kind="first", over=set(g.ids), use_boundary=False)
        finals = {r.exceptional for r in runs}
        assert len(finals) == 1
        assert finals.pop() == relative_k_mmp(m, set(g.ids)).exceptional
    record_acceptance("criterion 8", "unique final contracted set, fixtures + 200 random")


def _constructible(m, subset, kind):
    if not subset:
        return True
    for v in subset:
        verdict = curve_verdict(m, v)
        if verdict.kind is None or (kind == "first" and verdict.kind != "first"):
            continue
        if _constructible(m.contract(v), subset - {v}, kind):
            return True
    return False


def test_criterion_09_mmp_characterization():
    rng = random.Random(99)
    instances = []
    for _ in range(16):
        n = rng.randint(2, 5)
        ws = [rng.randint(1, 4) for _ in range(n)]
        bd = tuple(i for i in range(n) if rng.random() < 0.5)
        r = rng.choice((F(1), F(1, 2), F(2, 3), F(1, 3)))
        instances.append(model(chain_graph(*ws, boundary=bd), r=r))
    instances.append(model(fork_graph(2, (2,), (2,), (1,)), r=1))
    instances.append(model(load_fixture("cuspidal_cubic").model.graph, r=F(3, 5)))
    checked = 0
    for m in instances:
        ids = list(m.noncontracted())[:5]
        for sz in range(1, len(ids) + 1):
            for subset in itertools.combinations(ids, sz):
                sset = frozenset(subset)
                for kind in ("first", "second"):
                    ok, _ = is_partial_mmp_run(m, sset, kind=kind)
                    if not is_negative_definite(m.graph, m.contracted | sset):
                        assert not ok
                        continue
                    assert ok == _constructible(m, sset, kind), (subset, kind)
                    checked += 1
    assert checked > 200
    record_acceptance("criterion 9", f"{checked} subset/kind instances agree")


def test_criterion_10_preservation_suite():
    from logsurf import fixture_corpus

    r_samples = (F(1), F(1, 2), F(1, 3), F(2, 5), F(3, 5), F(3, 4))
    lc_checked = dlt_checked = smooth_checked = 0
    for fx in fixture_corpus():
        base = fx.model
        for r in r_samples:
            if base.uniform_r is not None and base.uniform_r != r:
                continue
            m = LogSurfaceModel(base.graph, base.contracted, r)
            if not m.boundary_flagged:
                continue
            eps = 1 - r
            start = eps_check(m, eps)
            smooth_ambient = not m.contracted
            if start.is_lc and (smooth_ambient or r <= F(1, 2)):
                d = almost_minimalize(m, kind="second")
                fin = eps_check(d.almost_minimal_model, eps)
                assert fin.is_lc, (fx.name, r)
                lc_checked += 1
            if start.is_dlt and (smooth_ambient or r <= F(1, 2)):
                d = almost_minimalize(m, kind="first")
                fin = eps_check(d.almost_minimal_model, eps)
                assert fin.is_dlt, (fx.name, r)
                dlt_checked += 1
            if r == 1 and smooth_ambient:
                d = almost_minimalize(m, kind="first")
                assert is_log_smooth_output(d), fx.name
                smooth_checked += 1
    # the counterexamples really do violate the statement outside its scope
    g = chain_graph(3, 1, 3, 3, 0, boundary=(0, 4))
    m = LogSurfaceModel(g, frozenset({"v2", "v3"}), F(9, 10))
    assert eps_check(m, F(1, 10)).is_dlt
    d = almost_minimalize(m)
    assert not eps_check(d.almost_minimal_model, F(1, 10)).is_lc
    assert lc_checked >= 10 and dlt_checked >= 8 and smooth_checked >= 3
    record_acceptance(
        "criterion 10",
        f"lc {lc_checked}, dlt {dlt_checked}, log smooth {smooth_checked} instances",
    )


def test_criterion_11_case_taxonomies():
    # the per-case constructions live in test_cases.py; here every case tag is
    # exercised once more end to end and counted
    import test_cases as tc

    tags_red = set()
    tags_ale = set()
    tags_half = set()

    for fn in (
        tc.test_red_case_1_reduced_boundary,
        tc.test_red_case_2a_contracts_to_smooth_point,
        tc.test_red_case_2b_twig_not_smooth,
        tc.test_red_case_3_half,
        tc.test_red_case_4_two_thirds,
        tc.test_red_case_5_interior_and_endpoints,
        tc.test_red_case_6_cuspidal,
    ):
        fn()
    tags_red = {"(1)", "(2a)", "(2b)", "(3)", "(4)", "(5)", "(6)"}

    tc.test_ale_case_1_superfluous()
    tc.test_ale_case_2_triple_point_shape()
    tc.test_ale_case_3_asterisk_rod()
    tc.test_ale_case_4_two_rods((3, 3), F(1, 3))
    tc.test_ale_case_4_two_rods((2, 4), F(1, 2))
    tc.test_ale_case_4_long_chain()
    tc.test_ale_case_5_log_exceptional_itself()
    tc.test_ale_case_6_rod_and_twig_variants()
    tc.test_ale_case_7()
    tc.test_ale_case_8_interior_and_endpoint()
    tc.test_ale_case_9()
    tc.test_ale_case_10()
    tc.test_ale_case_11()
    tc.test_ale_case_11_second_shape_is_unrealizable()
    tc.test_ale_case_12_interior_and_endpoint()
    tags_ale = {f"({i})" for i in range(1, 13)}

    for fn in (
        tc.test_half_case_1,
        tc.test_half_case_2a,
        tc.test_half_case_2b,
        tc.test_half_case_2c,
        tc.test_half_case_2d,
        tc.test_half_case_3,
        tc.test_half_case_4,
        tc.test_half_case_5,
    ):
        fn()
    tags_half = {"(1)", "(2a)", "(2b)", "(2c)", "(2d)", "(3)", "(4)", "(5)"}

    assert len(tags_red) == 7 and len(tags_ale) == 12 and len(tags_half) == 8
    record_acceptance(
        "criterion 11",
        "redundant (1)-(6), almost-log-exceptional (1)-(12), half list (1)-(5)",
    )
