import dataclasses
import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

from logsurf import (
    DualGraph,
    Edge,
    LogSurfaceModel,
    NotApplicable,
    NotNegativeDefinite,
    TooLarge,
    UnknownVertex,
    Vertex,
    almost_log_exceptional,
    almost_minimalize,
    enumerate_runs,
    eps_check,
    fixture_corpus,
    is_negative_definite,
    is_partial_mmp_run,
    load_fixture,
    peel,
    redundant,
    relative_k_mmp,
    relative_mmp,
    run_mmp,
    squeeze,
)
from logsurf import mmp
from logsurf.graph import _branching_numbers, contracts_to_smooth_point
from logsurf.linalg import factor_definite
from logsurf.mmp import Step, _chain_shape, _step, curve_verdict, log_exceptional

from conftest import chain_graph, fork_graph, model, random_log_smooth_tree
from oracles import ale_characterization, is_log_smooth_output, k_correction, peeling_from, verify_run
import test_identity
from test_identity import DIGESTS, _digest, _loop_draw, _run_draw


def with_r(m, r):
    return LogSurfaceModel(m.graph, m.contracted, F(r))


def test_answers_leave_the_package_as_fractions():
    # the model layer computes in integers; what leaves it is a Fraction,
    # also where the value is 0 or an integer (never an int or a pair)
    seen = {"zero": 0, "integer": 0, "proper": 0}
    for fx in fixture_corpus():
        for r in (None, F(1, 2), F(2, 3)):
            m = fx.model if r is None else with_r(fx.model, r)
            values = list(m.coefficients.values())
            for kind in ("first", "second"):
                run = run_mmp(m, kind=kind)
                values += [x for s in run.steps for x in (s.pairing, s.self_int)]
                values += [x for v in log_exceptional(run.final) for x in (v.self_int, v.pairing)]
                values += list(run.final.coefficients.values())
                for v in (*redundant(m, kind=kind), *almost_log_exceptional(m, kind=kind)):
                    values += [v.pairing, v.self_int]
            for x in values:
                assert type(x) is F, (fx.name, r, x)
                seen["zero" if x == 0 else "integer" if x.denominator == 1 else "proper"] += 1
    assert min(seen.values()) >= 20, seen


# -- log exceptional detection ---------------------------------------------------


def test_fn_section_log_exceptional_condition():
    # section C of a ruled surface with boundary cC + sum w_i F_i:
    # C is of the first kind iff n(1-c) + sum w_i < 2
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 5)
        N = rng.randint(0, 3)
        c = F(rng.randint(0, 4), 4)
        wts = [F(rng.randint(0, 4), 4) for _ in range(N)]
        vs = [Vertex("C", n, boundary=c)] + [
            Vertex(f"F{i}", 0, boundary=wts[i]) for i in range(N)
        ]
        es = [Edge("C", f"F{i}") for i in range(N)]
        m = model(DualGraph(tuple(vs), tuple(es)))
        verdict = curve_verdict(m, "C")
        expect = n * (1 - c) + sum(wts, F(0)) < 2
        assert (verdict.kind == "first") == expect


def test_middle_curve_second_kind_at_4_4():
    g = chain_graph(4, 1, 4)
    m = model(g, contracted=("v0", "v2"))
    v = curve_verdict(m, "v1")
    assert v.kind == "second"
    assert v.pairing == 0 and v.self_int == F(-1, 2)


def test_lone_minus_one_first_kind():
    m = model(chain_graph(1))
    assert curve_verdict(m, "v0").kind == "first"


# -- peeling ----------------------------------------------------------------------


def test_peel_keeps_3_tip_at_small_r():
    # a [3]-tip of the boundary peels only above r = 1/2
    g = chain_graph(3, 0, boundary=(0, 1))
    assert peel(model(g, r=F(1, 3))).exceptional == frozenset()
    assert peel(model(g, r=F(1, 2))).exceptional == frozenset()
    assert "v0" in peel(model(g, r=F(2, 3))).exceptional
    # second kind picks it up exactly at one half
    assert "v0" in peel(model(g, r=F(1, 2)), kind="second").exceptional


def test_peel_r1_contracts_admissible_twigs_rods_forks():
    vs = [
        Vertex("h", 0, boundary=F(1)),
        Vertex("t1", 3, boundary=F(1)),
        Vertex("t2", 2, boundary=F(1)),
        Vertex("r1", 5, boundary=F(1)),
        Vertex("fc", 2, boundary=F(1)),
        Vertex("fa", 2, boundary=F(1)),
        Vertex("fb", 2, boundary=F(1)),
        Vertex("fd", 2, boundary=F(1)),
    ]
    es = [
        Edge("h", "t1"),
        Edge("t1", "t2"),
        Edge("fc", "fa"),
        Edge("fc", "fb"),
        Edge("fc", "fd"),
    ]
    m = model(DualGraph(tuple(vs), tuple(es)), r=1)
    exc = peel(m).exceptional
    assert exc == {"t1", "t2", "r1", "fa", "fb", "fc", "fd"}


def test_peel_half_decomposition_and_lambda_threshold():
    # Lambda rods [3,(2)_{k-1}] peel (first kind) iff k < r/(1-2r)
    for k, r, expect in [
        (1, F(2, 5), True),   # r/(1-2r) = 2 > 1
        (2, F(2, 5), False),  # threshold 2, not strict
        (2, F(5, 12), True),  # threshold 2.5
        (1, F(1, 3), False),  # threshold 1, not strict
    ]:
        g = chain_graph(3, *([2] * (k - 1)), boundary=tuple(range(k)))
        pe = peel(model(g, r=r))
        assert (frozenset(g.ids) in pe.lambda_) == expect, (k, r)
        # second kind peels at equality too
        pe2 = peel(model(g, r=r), kind="second")
        thresh2 = k * (1 - 2 * r) <= r
        assert (frozenset(g.ids) <= pe2.exceptional) == thresh2


def test_peeling_unique_for_squeezed():
    # squeezed surface: peeling is independent of greedy order; compare the
    # greedy result against full enumeration over the boundary
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(2, 5)
        ws = [rng.choice((2, 2, 2, 3)) for _ in range(n)] + [0]
        g = chain_graph(*ws, boundary=tuple(range(n + 1)))
        r = F(1, 2)
        m = model(g, r=r)
        pe = peel(m)
        runs = enumerate_runs(m, kind="first", over=set(m.boundary_flagged) & _peelable(m))
        finals = {r_.exceptional for r_ in runs}
        assert len(finals) <= 1 or pe.exceptional in finals


def _peelable(m):
    # vertices allowed in a pure peeling: boundary with K >= 0
    return {
        v for v in m.boundary_flagged if m.canonical_intersect({v: F(1)}) >= 0
    }


# -- redundancy --------------------------------------------------------------------


def test_redundant_log_terminality_family():
    # U is redundant iff N <= 1/r + 1/n; first kind iff strict
    fx = load_fixture("log_terminality").model  # n = 2, N = 2
    n, N = 2, 2
    for r in (F(1, 3), F(2, 5), F(1, 2), F(4, 7), F(2, 3)):
        m = with_r(fx, r)
        red = {v.vertex: v for v in redundant(m)}
        expect = N <= 1 / r + F(1, n)
        assert ("u" in red) == expect, r
        if expect:
            assert (red["u"].kind == "first") == (N < 1 / r + F(1, n))
            lhs, rhs = red["u"].inequality
            assert (lhs <= rhs) and ((lhs == rhs) == (red["u"].kind == "second"))


def test_redundant_cuspidal_cubic_case6():
    fx = load_fixture("cuspidal_cubic").model
    # between one half and four fifths both twigs peel and the curve is
    # redundant through them (case 6, second kind exactly at the endpoint);
    # below one half it is log exceptional by itself, above four fifths the
    # peeled image stops being log exceptional
    for r, inside, case, second in [
        (F(2, 5), True, "(2a)", False),
        (F(1, 2), True, "(6)", False),
        (F(3, 5), True, "(6)", False),
        (F(4, 5), True, "(6)", True),
        (F(9, 10), False, None, False),
    ]:
        m = with_r(fx, r)
        red = {v.vertex: v for v in redundant(m, kind="second")}
        assert ("L" in red) == inside, r
        if inside:
            assert red["L"].case == case
            assert (red["L"].kind == "second") == second
            if case == "(6)":
                assert (red["L"].self_kind == "second") == (r == F(1, 2))


def test_redundant_superfluous_r1():
    # r = 1: a superfluous (-1)-curve with branching number 1 is redundant
    g = chain_graph(1, 0, boundary=(0, 1))
    m = model(g, r=1)
    red = {v.vertex: v for v in redundant(m)}
    assert "v0" in red and red["v0"].kind == "first" and red["v0"].case == "(1)"


def test_redundant_tip_clause_tags_a_chain_inside_D_2a():
    # D is the chain a - l - t - b; the smooth point c off D, over the
    # (-3)-curve t, makes t K-trivial and log exceptional of the second kind,
    # so the second-kind pure peeling contracts t alone.  Then l + E = l + t
    # is a chain [1, 3] that does not contract to a smooth point, and both
    # of its curves have beta_D = 2: no tip of D lies on it, so it is not a
    # twig of D and the tag is (2a), decided by the tip clause alone.
    vs = (Vertex("a", 4, boundary=F(1)), Vertex("l", 1, boundary=F(1)),
          Vertex("t", 3, boundary=F(1)), Vertex("b", 4, boundary=F(1)), Vertex("c", 1))
    g = DualGraph(vs, (Edge("a", "l"), Edge("l", "t"), Edge("t", "b"), Edge("c", "t")))
    m = LogSurfaceModel(g, frozenset({"c"}), F(1, 3))
    peeling = peel(m, kind="second")
    assert peeling.exceptional == {"t"}
    (v,) = redundant(m, peeling, kind="second")
    assert (v.vertex, v.kind, v.self_kind, v.components) == ("l", "first", "first", (frozenset("t"),))
    assert (v.pairing, v.self_int) == (F(-2, 3), F(-1, 2))
    assert _chain_shape(m, "l", v.components) == (1, 3)
    assert not contracts_to_smooth_point(g, {"l", "t"})
    assert {u: _branching_numbers(g, m.boundary_flagged)[u] for u in "lt"} == {"l": 2, "t": 2}
    assert v.case == "(2a)"


# -- almost log exceptional curves ---------------------------------------------------


def test_ale_grid():
    first, second = set(), set()
    for mm in range(2, 9):
        for nn in range(mm, 9):
            g = DualGraph(
                (
                    Vertex("d1", nn, boundary=F(1)),
                    Vertex("a", 1),
                    Vertex("d2", mm, boundary=F(1)),
                ),
                (Edge("d1", "a"), Edge("a", "d2")),
            )
            out = almost_log_exceptional(model(g, r=1), kind="second")
            kinds = {v.vertex: v.kind for v in out}
            if kinds.get("a") == "first":
                first.add((mm, nn))
            elif kinds.get("a") == "second":
                second.add((mm, nn))
    assert first == {(2, n) for n in range(3, 9)} | {(3, 3), (3, 4), (3, 5)}
    assert second == {(3, 6), (4, 4)}


def test_ale_characterization_matches_definition():
    fx = load_fixture("ale_r1").model
    m = with_r(fx, 1)
    pe = peel(m)
    nd, value = ale_characterization(m, pe, "a")
    assert nd and value < 1
    out = almost_log_exceptional(m, pe)
    assert [v.vertex for v in out] == ["a"]
    assert out[0].pairing == value - 1  # pairing = A.K + value = -1 + value


def test_ale_second_kind_fixture():
    fx = load_fixture("ale_2nd_type").model
    m = with_r(fx, 1)
    out = almost_log_exceptional(m, kind="second")
    assert [(v.vertex, v.kind) for v in out] == [("L", "second")]


def test_ale_partial_peeling_on_partially_almost_minimal():
    fx = load_fixture("partially_almost_minimal").model
    m = with_r(fx, 1)
    alpha = peeling_from(m, ["t1", "t2"], kind="first")
    out = almost_log_exceptional(m, alpha)
    assert [(v.vertex, v.kind) for v in out] == [("L", "first")]
    # with the maximal peeling, nothing is almost log exceptional
    assert almost_log_exceptional(m, peel(m), kind="second") == []


def test_ale_implies_k_negative():
    # every detected curve pairs negatively with K on the unpeeled model
    fixtures = ["ale_r1", "ale_2nd_type", "partially_almost_minimal", "cuspidal_cubic"]
    for name in fixtures:
        fx = load_fixture(name).model
        m = with_r(fx, 1)
        for v in almost_log_exceptional(m, kind="second"):
            assert m.canonical_intersect({v.vertex: F(1)}) < 0


# -- runs --------------------------------------------------------------------------


def test_run_mmp_cuspidal_cubic():
    fx = load_fixture("cuspidal_cubic").model
    m = with_r(fx, F(3, 5))
    run = run_mmp(m, kind="first", strategy="lowest-id")
    assert run.final_contracted == {"E1", "E2", "L"}
    assert len(run.final.noncontracted()) == 1  # Picard bookkeeping
    assert verify_run(run, kind="first")
    run2 = run_mmp(m, kind="first", strategy="boundary-first")
    assert run2.final_contracted == {"E1", "E2", "L"}


def test_run_mmp_minimal_model_empty_run():
    g = DualGraph(
        (Vertex("C", 3, boundary=F(1, 2)), Vertex("F1", 0, boundary=F(1, 2))),
        (Edge("C", "F1"),),
    )
    run = run_mmp(model(g))
    assert run.steps == ()


def test_reordering1_forced_order():
    fx = load_fixture("reordering1").model
    runs = enumerate_runs(fx, kind="first")
    assert len(runs) == 1
    assert [s.vertex for s in runs[0].steps] == ["l1", "l2"]


def test_coefficient_monotonicity_along_runs():
    # at each step the contracted curve's coefficient drops strictly below its
    # boundary coefficient, and never rises afterwards (first kind)
    fx = load_fixture("cuspidal_cubic").model
    for r in (F(11, 20), F(3, 5), F(7, 10)):
        m = with_r(fx, r)
        run = run_mmp(m, kind="first")
        for i, step in enumerate(run.steps):
            before = run.models[i]
            after = run.models[i + 1]
            assert after.coefficients[step.vertex] < before.coeff(step.vertex)
            for prev in run.steps[:i]:
                assert (
                    after.coefficients[prev.vertex]
                    <= before.coefficients[prev.vertex]
                )


# -- relative MMP -------------------------------------------------------------------


def test_relative_k_mmp_composition_of_nef():
    fx = load_fixture("composition_of_nef").model  # [3,1,6]
    m = with_r(fx, 1)
    run = relative_k_mmp(m, {"a", "d1", "d2"})
    # only the K-negative chain is contracted: the (-1)-curve itself
    assert run.exceptional == {"a"}
    # the residual contraction has an effective K-pullback correction
    final = run.final
    rest = {"d1", "d2"}
    over = LogSurfaceModel(final.graph, final.contracted | rest, final.uniform_r)
    corr = k_correction(over)
    assert all(corr[v] >= 0 for v in rest)


def test_relative_k_mmp_du_val_empty():
    g = chain_graph(2, 2, boundary=())
    run = relative_k_mmp(model(g), {"v0", "v1"})
    assert run.steps == ()


def test_relative_k_mmp_smooth_point_contracts_everything():
    g = chain_graph(2, 1, 3)
    run = relative_k_mmp(model(g), set(g.ids))
    assert run.exceptional == set(g.ids)
    assert [s.vertex for s in run.steps][0] == "v1"


def test_relative_mmp_unique_final_set():
    rng = random.Random(79)
    for _ in range(40):
        n = rng.randint(2, 6)
        while True:
            ws = [rng.randint(1, 4) for _ in range(n)]
            g = chain_graph(*ws)
            if is_negative_definite(g, g.ids):
                break
        m = model(g)
        runs = enumerate_runs(m, kind="first", over=set(g.ids), use_boundary=False)
        finals = {r.exceptional for r in runs}
        assert len(finals) == 1
        assert finals.pop() == relative_k_mmp(m, set(g.ids)).exceptional


# -- characterization of runs ---------------------------------------------------------


def test_is_partial_mmp_run_examples():
    # contract the negative section with boundary D = C on a ruled surface
    for n in (3, 4, 5):
        g = DualGraph((Vertex("C", n, boundary=F(1)),), ())
        ok, _ = is_partial_mmp_run(model(g, r=1), {"C"}, kind="first")
        assert ok  # cf drops to 1 - 2/n < 1
    # a (-2)-curve off the boundary: crepant, second kind only
    g = chain_graph(2)
    ok1, _ = is_partial_mmp_run(model(g), {"v0"}, kind="first")
    ok2, _ = is_partial_mmp_run(model(g), {"v0"}, kind="second")
    assert not ok1 and ok2
    # a [3]-rod at r = 1/3: the coefficient lands exactly on r
    g2 = chain_graph(3, boundary=(0,))
    m2 = model(g2, r=F(1, 3))
    assert LogSurfaceModel(g2, frozenset({"v0"}), F(1, 3)).coefficients["v0"] == F(1, 3)
    ok1, wit = is_partial_mmp_run(m2, {"v0"}, kind="first")
    ok2, _ = is_partial_mmp_run(m2, {"v0"}, kind="second")
    assert not ok1 and wit == "v0" and ok2


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


def test_characterization_matches_constructibility_exhaustive():
    rng = random.Random(83)
    graphs = []
    for _ in range(12):
        n = rng.randint(2, 5)
        ws = [rng.randint(1, 4) for _ in range(n)]
        bd = tuple(i for i in range(n) if rng.random() < 0.5)
        graphs.append((chain_graph(*ws, boundary=bd), rng.choice((F(1), F(1, 2), F(2, 3)))))
    graphs.append((fork_graph(2, (2,), (2,), (1,), boundary_all=False), F(1)))
    for g, r in graphs:
        m = model(g, r=r)
        ids = list(g.ids)
        for sz in range(1, len(ids) + 1):
            for subset in itertools.combinations(ids, sz):
                sset = frozenset(subset)
                if not is_negative_definite(g, sset):
                    for kind in ("first", "second"):
                        ok, _ = is_partial_mmp_run(m, sset, kind=kind)
                        assert not ok
                    continue
                for kind in ("first", "second"):
                    ok, _ = is_partial_mmp_run(m, sset, kind=kind)
                    assert ok == _constructible(m, sset, kind), (subset, kind, r)


# -- enumerate runs ---------------------------------------------------------------------


def test_enumerate_partially_almost_minimal_two_runs():
    fx = load_fixture("partially_almost_minimal").model
    runs = enumerate_runs(with_r(fx, 1), kind="first")
    assert sorted(sorted(r.exceptional) for r in runs) == [
        ["L", "t1", "t2"],
        ["t1", "t2", "t3"],
    ]


def test_enumerate_empty_graph():
    g = DualGraph((), ())
    runs = enumerate_runs(model(g))
    assert len(runs) == 1 and runs[0].steps == ()


def test_enumerate_guard():
    g = chain_graph(*([2] * 9))
    with pytest.raises(TooLarge):
        enumerate_runs(model(g))


def test_a_contracted_target_curve_is_refused_by_every_run_over_a_target():
    m = model(chain_graph(2, 2, 2), contracted=("v0",))
    with pytest.raises(UnknownVertex, match=r"^'v0' is already contracted$"):
        enumerate_runs(m, over={"v0", "v1"})
    for call in (relative_k_mmp, is_partial_mmp_run):
        with pytest.raises(UnknownVertex, match=r"^'v0' is already contracted$"):
            call(m, {"v0", "v1"})
    # the guard comes first
    g = chain_graph(*([2] * 10))
    with pytest.raises(TooLarge):
        enumerate_runs(model(g, contracted=("v0",)), over=set(g.ids))


def test_enumerate_runs_keeps_the_answers_a_contraction_leaves_valid(monkeypatch):
    # a curve is asked again only after a contraction grows a component it
    # meets; asking every curve at every state took 764 questions here
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _step(*args)

    monkeypatch.setattr(mmp, "_step", counted)
    for fx in fixture_corpus():
        for r in (fx.model.uniform_r, F(1, 2)):
            m = LogSurfaceModel(fx.model.graph, fx.model.contracted, r)
            for kind in ("first", "second"):
                try:
                    enumerate_runs(m, kind)
                except TooLarge:
                    pass
    assert len(calls) <= 479


# -- squeezing ---------------------------------------------------------------------------


def test_squeeze_contracts_redundant_curve():
    fx = load_fixture("psi_am_order").model  # r = 1/3 baked in
    run = squeeze(fx)
    assert run.exceptional == {"e1", "l"}
    # the squeezing is a K-MMP: l first, then the (-2)-curve image
    assert [s.vertex for s in run.steps] == ["l", "e1"]


def test_squeeze_trivial_on_snc_minimal_r1():
    fx = load_fixture("partially_almost_minimal").model
    run = squeeze(with_r(fx, 1))
    assert run.steps == ()


# -- almost minimalization -----------------------------------------------------------------


def test_amm_psi_am_order_fixture():
    fx = load_fixture("psi_am_order").model
    d = almost_minimalize(fx)
    assert d.am.exceptional == {"e1", "l"}
    assert d.min_exceptional == frozenset()
    assert d.run.exceptional == {"e1", "l"}


def test_amm_counterexample_family():
    # singular ambient surface, r in (1/2, 1): the almost minimal model fails
    # to be (1-r)-lc unless a = 2 or r = 1
    for a in (2, 3):
        ws = [3, 1, 3, a, 0]
        g = chain_graph(*ws, boundary=(0, 4))
        base = LogSurfaceModel(g, frozenset({"v2", "v3"}))
        lo = 1 - F(1, 3 * a - 4)
        for r in (lo + F(1, 24), (lo + 1) / 2, F(1)):
            m = with_r(base, r)
            assert eps_check(m, 1 - r).is_dlt
            d = almost_minimalize(m)
            assert d.am.exceptional == {"v1"}
            fin = d.almost_minimal_model
            cf = fin.coefficients
            assert cf["v3"] == 1 - F(3, 2 * a - 1) * (1 - r)
            assert cf["v2"] == 1 - F(a + 1, 2 * a - 1) * (1 - r)
            v = eps_check(fin, 1 - r)
            assert not v.is_dlt
            assert v.is_lc == (r == 1 or a == 2)


def test_amm_decomposition_identity():
    # Exc(psi) is the disjoint union of Exc(psi_am) and Exc(psi_min)
    for name, r in [
        ("cuspidal_cubic", F(3, 5)),
        ("partially_almost_minimal", F(1)),
        ("log_terminality", F(2, 5)),
        ("optimal_ass_2", F(4, 7)),
    ]:
        m = with_r(load_fixture(name).model, r)
        d = almost_minimalize(m, kind="first")
        assert d.run.exceptional == d.am.exceptional | d.min_exceptional
        assert not (d.am.exceptional & d.min_exceptional)
        assert verify_run(d.run, kind="first")
        # K is nef along the residual peeling, with an effective pullback
        fin = d.almost_minimal_model
        for v in d.min_exceptional:
            assert fin.canonical_intersect({v: F(1)}) >= 0
        if d.min_exceptional:
            over = LogSurfaceModel(
                fin.graph, fin.contracted | d.min_exceptional, fin.uniform_r
            )
            assert all(k_correction(over)[v] >= 0 for v in d.min_exceptional)


def test_amm_log_smooth_output():
    # reduced snc boundary on a smooth model: the almost minimal model is
    # log smooth again
    for name in ("partially_almost_minimal", "ale_r1", "ale_2nd_type"):
        m = with_r(load_fixture(name).model, 1)
        d = almost_minimalize(m, kind="first")
        assert is_log_smooth_output(d)


def test_amm_kind_second_extends_first():
    fx = load_fixture("cuspidal_cubic").model
    m = with_r(fx, F(1, 2))
    d1 = almost_minimalize(m, kind="first")
    d2 = almost_minimalize(m, kind="second")
    assert d1.am.exceptional <= d2.am.exceptional | d2.min_exceptional | d2.am.exceptional


def _count_inside_almost_minimalize(monkeypatch, models):
    """The ``_step`` calls, the K-pairing questions and the constructor
    builds inside ``almost_minimalize`` of both kinds on each of ``models``."""
    calls = Counter()
    inside = [False]

    def counting(name, f):
        def counted(*args):
            calls[name] += inside[0]
            return f(*args)
        return counted

    monkeypatch.setattr(mmp, "_step", counting("_step", _step))
    monkeypatch.setattr(LogSurfaceModel, "_k_pairing",
                        counting("k_pairing", LogSurfaceModel._k_pairing))
    monkeypatch.setattr(LogSurfaceModel, "__post_init__",
                        counting("built", LogSurfaceModel.__post_init__))
    for m in models:
        for kind in ("first", "second"):
            inside[0] = True
            almost_minimalize(m, kind)
            inside[0] = False
    return calls


def test_almost_minimalize_carries_its_answers_from_rung_to_rung(monkeypatch):
    # the peelings and picks of all rungs step along one chain and share its
    # step answers, the K-signs and the K-step answers of the squeeze are
    # kept from rung to rung, and no model is built through the constructor;
    # starting every rung from nothing took 425 steps, 463 K-pairings and 95
    # models here, and a squeeze from empty answers 325 K-pairings
    models = [LogSurfaceModel(fx.model.graph, fx.model.contracted, r)
              for fx in fixture_corpus() for r in (fx.model.uniform_r, F(1, 2))]
    calls = _count_inside_almost_minimalize(monkeypatch, models)
    assert calls["built"] == 0 and calls["_step"] <= 411 and calls["k_pairing"] <= 266, calls


def test_almost_minimalize_asks_each_step_once_per_local_state(monkeypatch):
    # on the first 100 draws of the runs digest; a squeeze from empty answers
    # and a step asked again for each kind took 5755 steps and 4649 K-pairings
    rng = random.Random(18)
    models = [_run_draw(rng, (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4])[0] for i in range(100)]
    calls = _count_inside_almost_minimalize(monkeypatch, models)
    assert calls["built"] == 0 and calls["_step"] <= 5093 and calls["k_pairing"] <= 3370, calls


def _direct_step(model, vid, use_boundary):
    """The step of ``vid`` on ``model`` from its pairings, asked directly."""
    p = model.lk_pairing(vid) if use_boundary else model.k_pairing(vid)
    s = model.self_int(vid)
    if p > 0 or s >= 0:
        return None
    return Step(vid, "first" if p < 0 else "second", p, s)


def test_every_step_entry_and_derived_model_matches_a_fresh_model(monkeypatch):
    # every model a run, search, squeeze, ladder or verdict scan reaches
    # through contract derives its component map from its parent's: it must
    # equal the map (and the met sets) of the model the constructor builds on
    # the same set of a copy of the graph; every step entry of the graph's
    # table must equal the step asked directly on a copy, of a model that
    # contracts exactly the components in its key
    reached = []
    contract = LogSurfaceModel.contract

    def recorded(self, *vids):
        child = contract(self, *vids)
        grown = child._component_of[vids[0]]
        merged = sum(comp <= grown for comp in self._blocks)
        reached.append((child, merged))
        return child

    monkeypatch.setattr(LogSurfaceModel, "contract", recorded)
    # the models that the replay of a run kept in the graph's table makes
    replayed = []
    replay = mmp._replay

    def replaying(start, record):
        run = replay(start, record)
        replayed.extend(run.models[1:])
        return run

    monkeypatch.setattr(mmp, "_replay", replaying)
    replays = 0
    starts = []
    rng = random.Random(18)  # the draws of the runs digest
    for i in range(300):
        starts.append(_run_draw(rng, (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4]))
    rng = random.Random(21)  # the draws of the verdicts digest: cycles, double contacts, decorations
    for i in range(100):
        m = _loop_draw(rng, (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4])
        starts.append((m, sorted(m.noncontracted())[:3]))
    for fx in fixture_corpus():
        for r in (fx.model.uniform_r, F(1, 2)):
            starts.append((LogSurfaceModel(fx.model.graph, fx.model.contracted, r), []))
    seen = Counter()
    for start, target in starts:
        g = start.graph
        m = LogSurfaceModel(DualGraph(g.vertices, g.edges), start.contracted, start.uniform_r)
        copy = DualGraph(g.vertices, g.edges)
        reached.clear()
        replayed.clear()
        for kind in ("first", "second"):
            run_mmp(m, kind, "boundary-first")
            almost_minimalize(m, kind)
            redundant(m, kind=kind)
            almost_log_exceptional(m, kind=kind)
            try:
                enumerate_runs(m, kind)
            except TooLarge:
                pass
        try:
            relative_k_mmp(m, target)
        except (NotNegativeDefinite, UnknownVertex):
            pass
        for x, merged in reached:
            fresh = LogSurfaceModel(copy, x.contracted, x.uniform_r)
            assert x._component_of == fresh._component_of, sorted(x.contracted)
            for v in x.noncontracted():
                assert x._met(v) == fresh._met(v), (sorted(x.contracted), v)
            seen["merge"] += merged >= 2
        for x in replayed:
            fresh = LogSurfaceModel(copy, x.contracted, x.uniform_r)
            assert x._component_of == fresh._component_of, sorted(x.contracted)
            assert x._blocks == fresh._blocks, sorted(x.contracted)
            for v in x.noncontracted():
                assert x._met(v) == fresh._met(v), (sorted(x.contracted), v)
            replays += 1
        for key, step in m.graph._answers.items():
            if key[0] != "step":
                continue
            _, vid, met, r_key, use_boundary = key
            r = None if r_key is None else F(*r_key)
            local = LogSurfaceModel(copy, frozenset().union(*met), r if use_boundary else m.uniform_r)
            assert local._met(vid) == met
            assert step == _direct_step(local, vid, use_boundary), key
            seen[(use_boundary, None if step is None else step.kind)] += 1
    assert min(seen.values()) >= 100 and len(seen) == 7, seen
    assert replays >= 1000, replays


def _on_a_copy(m, r):
    """``m`` with the uniform coefficient ``r`` on a copy of its graph, so
    with an empty table of answers."""
    return LogSurfaceModel(DualGraph(m.graph.vertices, m.graph.edges), m.contracted, r)


_OTHER = {"first": "second", "second": "first"}
# what the graph's table keeps before almost_minimalize asks for psi
_BEFORE_PSI = {
    "no run": lambda m, kind: None,
    "same kind": lambda m, kind: run_mmp(m, kind),
    "other kind": lambda m, kind: run_mmp(m, _OTHER[kind]),
    "boundary-first": lambda m, kind: run_mmp(m, kind, "boundary-first"),
}


def test_psi_equals_the_run_rebuilt_over_its_set():
    # psi replays the longest prefix of the kept lowest-id run of its kind
    # whose picks lie in its set, then runs the greedy over the set: it must
    # equal relative_mmp over the same set with an empty table, whichever
    # run the table keeps
    rng = random.Random(18)  # the draws of the runs digest
    starts = [_run_draw(rng, (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4])[0] for i in range(300)]
    starts += [fx.model for fx in fixture_corpus()]
    seen = Counter()
    for start in starts:
        for r in dict.fromkeys((start.uniform_r, F(1, 2))):
            for kind in ("first", "second"):
                want = None
                for before, prior in _BEFORE_PSI.items():
                    m = _on_a_copy(start, r)
                    kept = prior(m, kind)
                    psi = almost_minimalize(m, kind).run
                    if want is None:
                        want = relative_mmp(_on_a_copy(m, r), psi.exceptional, use_boundary=True, kind=kind)
                    assert psi == want, (before, kind, r, sorted(m.graph.ids))
                    if before == "same kind":
                        shared = len(list(itertools.takewhile(
                            lambda pair: pair[0] == pair[1], zip(kept.steps, psi.steps))))
                        seen["prefix replayed"] += shared > 0
                        seen["run leaves the set"] += shared < len(kept.steps)
    assert min(seen.values()) >= 100, seen


def _long_chain(n, on_boundary):
    """The chain [1, 2, ..., 2] of n curves with r = 1/2, every curve on the
    boundary or none: a run contracts it curve by curve into one component."""
    g = chain_graph(1, *[2] * (n - 1), boundary=range(n) if on_boundary else ())
    return LogSurfaceModel(g, frozenset(), F(1, 2))


def test_psi_on_a_long_chain_equals_the_run_rebuilt_over_its_set():
    for kind in ("first", "second"):
        m = _long_chain(160, True)
        psi = almost_minimalize(m, kind).run
        assert len(psi.exceptional) == 160
        assert psi == relative_mmp(_on_a_copy(m, F(1, 2)), psi.exceptional, use_boundary=True, kind=kind)


def test_only_a_component_with_a_cycle_takes_the_dense_pass(monkeypatch, capsys):
    orders = []
    monkeypatch.setattr("logsurf.graph.factor_definite",
                        lambda m: orders.append(len(m)) or factor_definite(m))
    # every CLI command on the 14 fixtures, the 300 draws of the runs digest
    # and the runs on a chain of 160 curves: every contracted part is a tree
    assert _digest(capsys, "json") == DIGESTS["json"]
    test_identity.test_run_answers_are_identical()
    assert len(run_mmp(_long_chain(160, False)).exceptional) == 160
    for kind in ("first", "second"):
        assert len(almost_minimalize(_long_chain(160, True), kind).run.exceptional) == 160
    assert orders == []
    triangle = DualGraph(tuple(Vertex(v, 3) for v in "abc"),
                         (Edge("a", "b"), Edge("b", "c"), Edge("a", "c")))
    # K.E = 1 on each curve, and each row of -Q sums to 3 - 1 - 1 = 1
    assert LogSurfaceModel(triangle, frozenset("abc")).coefficients == dict.fromkeys("abc", F(1))
    assert orders == [3]


def _reachable(value):
    """Every value reachable from ``value`` through tuples, lists, sets,
    dicts and dataclass fields."""
    stack, seen = [value], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, (tuple, list, set, frozenset)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))


_TABLE_CALLS = (
    lambda m: run_mmp(m, kind="second"),
    lambda m: almost_minimalize(m, kind="first"),
    lambda m: almost_minimalize(m, kind="second"),
    lambda m: redundant(m),
    lambda m: almost_log_exceptional(m),
    lambda m: squeeze(m),
    lambda m: peel(m, pure=False),
    lambda m: run_mmp(m, strategy="boundary-first"),
)


def _graph_after_the_calls(rng, i):
    """A weak reference to the graph of a seeded tree after every call of
    ``_TABLE_CALLS``, once nothing else refers to it; the graph's table is
    checked to keep no model and no graph first."""
    m = random_log_smooth_tree(rng, rng.randint(16, 24), (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4])
    for call in _TABLE_CALLS:
        call(m)
    table = m.graph._answers
    assert {"run", "peel", "step", "eps"} <= {key[0] for key in table}
    held = [x for x in _reachable(table) if isinstance(x, (LogSurfaceModel, DualGraph))]
    assert not held, (i, held[:1])
    return weakref.ref(m.graph)


def test_the_graph_table_keeps_no_model_so_a_dropped_graph_is_freed():
    # a model in the table would hold the graph, so the graph would reach
    # itself through its own table and outlive its last reference until the
    # cycle collector ran
    rng = random.Random(23)
    gc.disable()
    try:
        for i in range(20):
            assert _graph_after_the_calls(rng, i)() is None, i
    finally:
        gc.enable()


def test_every_ladder_verdict_is_the_verdict_of_its_set():
    # the verdicts kept in the graph's table, of every rung and of every model
    # of the run (the CLI reads those), against eps_check on a model that the
    # constructor builds on the same set of a copy of the graph
    rng = random.Random(18)  # the draws of the runs digest
    seen = Counter()
    for i in range(300):
        m, _ = _run_draw(rng, (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4])
        copy = DualGraph(m.graph.vertices, m.graph.edges)
        for kind in ("first", "second"):
            d = almost_minimalize(m, kind)
            kept = [(rung.model, rung.verdict) for rung in d.ladder]
            kept += [(x, mmp._eps_for(x)) for x in d.am.models]
            for x, verdict in kept:
                fresh = LogSurfaceModel(copy, x.contracted, x.uniform_r)
                assert verdict == eps_check(fresh, 1 - fresh.r), (i, kind, sorted(x.contracted))
                seen["lc" if verdict.is_lc else "not lc"] += 1
            seen["ladder of two or more"] += len(d.ladder) >= 2
    assert min(seen.values()) >= 20, seen


# -- confluence on random configurations -------------------------------------------------


def test_relative_kmmp_confluence_random():
    rng = random.Random(89)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 6)
        vs = [Vertex(f"v{i}", rng.randint(1, 4)) for i in range(n)]
        es = []
        for i in range(1, n):
            j = rng.randrange(i)
            es.append(Edge(f"v{j}", f"v{i}"))
        g = DualGraph(tuple(vs), tuple(es))
        if not is_negative_definite(g, g.ids):
            continue
        checked += 1
        m = model(g)
        runs = enumerate_runs(m, kind="first", over=set(g.ids), use_boundary=False)
        assert len({r.exceptional for r in runs}) == 1


# -- reordering -----------------------------------------------------------------------


def test_reordering_residual_contraction_is_a_run():
    # K-MMP inside a first-kind run: the residual contraction is again a
    # partial MMP run on the intermediate model
    for name, r in [("cuspidal_cubic", F(3, 5)), ("psi_am_order", None)]:
        fx = load_fixture(name).model
        m = fx if r is None else with_r(fx, r)
        f2 = run_mmp(m, kind="first")
        if not f2.exceptional:
            continue
        f1 = relative_k_mmp(m, f2.exceptional)
        residual = f2.exceptional - f1.exceptional
        if residual:
            ok, _ = is_partial_mmp_run(f1.final, residual, kind="first")
            assert ok


def test_blowup_multiplicity_bound():
    # blowing up a point on mu boundary components gives a curve of
    # coefficient mu r - 1; staying (1-r)-lc forces mu <= 1 + 1/r
    from logsurf import blow_up, eps_check

    for r in (F(1, 3), F(1, 2), F(2, 3), F(1)):
        g = chain_graph(0, 0, boundary=(0, 1))
        g2 = blow_up(g, ("edge", "v0", "v1"), new_id="e")
        m = LogSurfaceModel(g2, frozenset({"e"}), r)
        assert m.coefficients["e"] == 2 * r - 1
        v = eps_check(m, 1 - r)
        assert v.is_lc == (2 <= 1 + 1 / r)


def test_randomized_robustness_and_maximality():
    # random decorated graphs: the staged almost minimalization terminates,
    # decomposes cleanly and really lands on a minimal model of its kind
    rng = random.Random(2026)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 7)
        vs = []
        es = []
        for i in range(n):
            w = rng.randint(-1, 5)
            bdv = F(1) if rng.random() < 0.6 else F(0)
            vs.append(Vertex(f"v{i}", w, boundary=bdv))
            if i and rng.random() < 0.8:
                es.append(Edge(f"v{rng.randrange(i)}", f"v{i}", rng.choice((1, 1, 1, 2))))
        g = DualGraph(tuple(vs), tuple(es))
        r = F(rng.randint(0, 4), 4)
        m = LogSurfaceModel(g, frozenset(), r)
        kind = rng.choice(("first", "second"))
        d = almost_minimalize(m, kind=kind)
        assert d.run.exceptional == d.am.exceptional | d.min_exceptional
        assert not (d.am.exceptional & d.min_exceptional)
        assert verify_run(d.run, kind=kind)
        fin = d.run.final
        for v in fin.noncontracted():
            vv = curve_verdict(fin, v)
            if kind == "first":
                assert vv.kind != "first"
            else:
                assert vv.kind is None
        for v in d.min_exceptional:
            assert d.almost_minimal_model.canonical_intersect({v: F(1)}) >= 0
        checked += 1
    assert checked == 150


def test_composition_of_nef_total_correction_effective():
    # the K-correction of the full contraction splits as the sum of the two
    # relative corrections and stays effective even though K is not nef over
    # the composite
    fx = load_fixture("composition_of_nef").model  # [3,1,6]
    g = fx.graph
    full = LogSurfaceModel(g, frozenset(g.ids))
    corr = k_correction(full)
    assert corr == {"d1": F(1, 3), "a": F(0), "d2": F(2, 3)}
    assert all(c >= 0 for c in corr.values())
    ends = LogSurfaceModel(g, frozenset({"d1", "d2"}))
    assert k_correction(ends) == {"d1": F(1, 3), "d2": F(2, 3)}
    # the middle curve is K-nonnegative over the ends but the composite is not
    # K-nef: relative minimality does not compose
    assert ends.canonical_intersect({"a": F(1)}) == 0
    assert full.graph.k_dot("a") == -1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_peeling_tip_threshold(k):
    # a [k]-tip of the boundary peels (first kind) iff r > 1 - 1/(k-1)
    g = chain_graph(k, 0, boundary=(0, 1))
    thresh = 1 - F(1, k - 1)
    below = thresh - F(1, 12)
    above = thresh + F(1, 12)
    if below >= 0:
        assert "v0" not in peel(model(g, r=below), kind="first").exceptional
    assert "v0" not in peel(model(g, r=thresh), kind="first").exceptional
    if thresh > 0:
        assert "v0" in peel(model(g, r=thresh), kind="second").exceptional
    if above <= 1:
        assert "v0" in peel(model(g, r=above), kind="first").exceptional


def test_fn_fixture_section_threshold():
    # with one fiber the section becomes log exceptional exactly from
    # r = 1 - 1/(n-1) on (second kind at the endpoint)
    fx = load_fixture("peeling_fn").model  # n = 3
    n = 3
    endpoint = 1 - F(1, n - 1)
    v = curve_verdict(with_r(fx, endpoint), "C")
    assert v.kind == "second"
    v2 = curve_verdict(with_r(fx, endpoint + F(1, 10)), "C")
    assert v2.kind == "first"
    v3 = curve_verdict(with_r(fx, endpoint - F(1, 10)), "C")
    assert v3.kind is None


def test_randomized_preservation_smooth_ambient():
    # smooth ambient model, any r: (1-r)-lc is preserved by second-kind
    # almost minimalization, and (1-r)-dlt by first-kind runs
    rng = random.Random(31415)
    lc_seen = dlt_seen = 0
    for _ in range(120):
        n = rng.randint(2, 6)
        vs = []
        es = []
        for i in range(n):
            vs.append(Vertex(f"v{i}", rng.randint(0, 4), boundary=F(1) if rng.random() < 0.7 else F(0)))
            if i and rng.random() < 0.85:
                es.append(Edge(f"v{rng.randrange(i)}", f"v{i}"))
        g = DualGraph(tuple(vs), tuple(es))
        r = F(rng.randint(1, 4), rng.randint(4, 8))
        if r > 1:
            continue
        m = LogSurfaceModel(g, frozenset(), r)
        if not m.boundary_flagged:
            continue
        eps = 1 - r
        start = eps_check(m, eps)
        if start.is_lc:
            d = almost_minimalize(m, kind="second")
            assert eps_check(d.almost_minimal_model, eps).is_lc
            lc_seen += 1
        if start.is_dlt:
            d = almost_minimalize(m, kind="first")
            assert eps_check(d.almost_minimal_model, eps).is_dlt
            dlt_seen += 1
    assert lc_seen >= 20 and dlt_seen >= 20


def test_ale_detection_matches_direct_characterization_randomized():
    # two routes to the same verdict: image pairing/negativity on the peeled
    # model versus negative definiteness of A + Exc(alpha) plus the value
    # A.(r D' + cf divisor) compared with 1
    rng = random.Random(5151)
    agree = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        vs = []
        es = []
        for i in range(n):
            vs.append(
                Vertex(
                    f"v{i}",
                    rng.randint(0, 4),
                    boundary=F(1) if rng.random() < 0.6 else F(0),
                )
            )
            if i and rng.random() < 0.8:
                es.append(Edge(f"v{rng.randrange(i)}", f"v{i}"))
        g = DualGraph(tuple(vs), tuple(es))
        r = F(rng.randint(1, 4), 4)
        m = LogSurfaceModel(g, frozenset(), r)
        pe = peel(m, kind="second", pure=True)
        found = {
            v.vertex: v.kind
            for v in almost_log_exceptional(m, pe, kind="second")
        }
        for v in set(m.noncontracted()) - set(m.boundary_flagged) - pe.exceptional:
            if g.vertex(v).weight != 1 or g.vertex(v).genus != 0:
                # the characterization applies to (-1)-curves; others can
                # never be almost log exceptional on a smooth model
                assert v not in found
                continue

            nd, value = ale_characterization(m, pe, v)
            k_neg = m.canonical_intersect({v: F(1)}) < 0
            expect = None
            if nd and value < 1:
                expect = "first"
            elif nd and value == 1 and k_neg:
                expect = "second"
            assert found.get(v) == expect, (v, found.get(v), expect)
            agree += 1
    assert agree > 30


def test_peel_decomposition_covers_everything_at_small_r():
    # for a uniform coefficient r <= 1/2 on a smooth model the peeled locus
    # is exactly Gamma + Lambda + Delta
    rng = random.Random(6161)
    covered = 0
    for _ in range(120):
        n = rng.randint(2, 7)
        vs = []
        es = []
        for i in range(n):
            vs.append(
                Vertex(
                    f"v{i}",
                    rng.choice((0, 2, 2, 2, 3, 4)),
                    boundary=F(1) if rng.random() < 0.8 else F(0),
                )
            )
            if i and rng.random() < 0.85:
                es.append(Edge(f"v{rng.randrange(i)}", f"v{i}"))
        g = DualGraph(tuple(vs), tuple(es))
        r = F(rng.randint(1, 2), rng.randint(4, 6))
        if r > F(1, 2):
            continue
        m = LogSurfaceModel(g, frozenset(), r)
        pe = peel(m, kind="first", pure=True)
        pieces = set().union(*pe.gamma, *pe.lambda_, *pe.delta) if (
            pe.gamma or pe.lambda_ or pe.delta
        ) else set()
        assert pe.extra == (), (r, pe)
        assert pieces == set(pe.exceptional)
        covered += 1
    assert covered > 50


def test_genus_one_curve_never_contracted():
    # an elliptic-type vertex pairs nonnegatively with K, so no K-MMP or
    # first-kind run touches it
    g = DualGraph(
        (Vertex("e", 1, genus=1), Vertex("f", 1)),
        (Edge("e", "f"),),
    )
    m = model(g)
    run = run_mmp(m, kind="first")
    assert run.exceptional == {"f"}
    v = curve_verdict(run.final, "e")
    assert v.kind is None


# -- the run engine against the verdicts it replaces ------------------------------

ALLOWED = {"first": ("first",), "second": ("first", "second")}


def _seeded_trees(seed, count=30):
    rng = random.Random(seed)
    for i in range(count):
        yield random_log_smooth_tree(rng, rng.randint(4, 12), (F(1, 3), F(1, 2), F(2, 3), F(1))[i % 4])


@pytest.mark.parametrize("strategy", ["lowest-id", "boundary-first"])
@pytest.mark.parametrize("kind", ["first", "second"])
def test_run_mmp_contracts_lowest_admissible_curve(kind, strategy):
    # reference: the full log_exceptional scan of the model before each step
    for m in _seeded_trees(8181):
        run = run_mmp(m, kind=kind, strategy=strategy)
        for step, before in zip(run.steps, run.models):
            admissible = [v for v in log_exceptional(before) if v.kind in ALLOWED[kind]]
            if strategy == "boundary-first":
                flagged = set(before.boundary_flagged)
                admissible = [v for v in admissible if v.vertex in flagged] or admissible
            want = admissible[0]
            assert step == Step(want.vertex, want.kind, want.pairing, want.self_int)
        assert not [v for v in log_exceptional(run.final) if v.kind in ALLOWED[kind]]


def test_step_agrees_with_curve_verdict():
    checked = 0
    for m in _seeded_trees(8282, count=15):
        for cur in run_mmp(m, kind="second").models:
            for v in cur.noncontracted():
                verdict = curve_verdict(cur, v)
                k_pairing = cur.canonical_intersect({v: F(1)})
                k_kind = None
                if verdict.self_int < 0:
                    k_kind = "first" if k_pairing < 0 else "second" if k_pairing == 0 else None
                for kinds in (("first",), ("second",), ("first", "second")):
                    want = None
                    if verdict.kind in kinds:
                        want = Step(v, verdict.kind, verdict.pairing, verdict.self_int)
                    assert _step(cur, v, kinds, True) == want
                    want = None
                    if k_kind in kinds:
                        want = Step(v, k_kind, k_pairing, verdict.self_int)
                    assert _step(cur, v, kinds, False) == want
                checked += 1
    assert checked > 200


@pytest.mark.parametrize("kind", ["first", "second"])
def test_amm_first_rung_is_the_maximal_pure_peeling(kind):
    for m in _seeded_trees(8383):
        d = almost_minimalize(m, kind=kind)
        assert d.ladder[0].peeling_exc == peel(m, kind=kind, pure=True).exceptional


_KIND_CALLS = {
    "run_mmp": lambda m, kind: run_mmp(m, kind=kind),
    "relative_mmp": lambda m, kind: relative_mmp(m, ["v0"], kind=kind),
    "is_partial_mmp_run": lambda m, kind: is_partial_mmp_run(m, ["v0"], kind=kind),
    "enumerate_runs": lambda m, kind: enumerate_runs(m, kind=kind),
    "peel": lambda m, kind: peel(m, kind=kind),
    "squeeze": lambda m, kind: squeeze(m, kind=kind),
    "redundant": lambda m, kind: redundant(m, peel(m), kind=kind),
    "almost_log_exceptional": lambda m, kind: almost_log_exceptional(m, peel(m), kind=kind),
    "almost_minimalize": lambda m, kind: almost_minimalize(m, kind=kind),
}


@pytest.mark.parametrize("kind", ["third", None, ["first"]], ids=["third", "none", "list"])
@pytest.mark.parametrize("call", _KIND_CALLS.values(), ids=_KIND_CALLS.keys())
def test_unknown_kind_is_refused(call, kind):
    # the peeling is passed in, so the lists refuse the kind themselves
    m = model(chain_graph(1, 2, 3, boundary=(0, 1)), r=F(1, 2))
    with pytest.raises(NotApplicable) as err:
        call(m, kind)
    assert str(err.value) == f"unknown kind {kind!r}"


def test_each_verdict_scan_reads_each_fact_once(monkeypatch):
    # three redundant and three almost log exceptional curves at r = 1/2
    weights = {"a": 1, "b": 1, "c": 1, "d": 3, "e": 1, "f": 1, "g": 2, "h": 1}
    flagged, decorated = {"c", "f", "g", "h"}, {"d", "e"}
    g = DualGraph(
        tuple(Vertex(v, w, decoration=F(v in decorated), boundary=F(v in flagged))
              for v, w in weights.items()),
        tuple(Edge(*pair) for pair in ("ab", "ac", "ad", "be", "af", "eg", "fh", "ag")),
    )
    m = model(g, r=F(1, 2))
    peeling = peel(m, kind="second")
    assert peeling.exceptional == {"g"}
    reads = Counter()

    def counted(name, real, fact):
        def read(*args):
            reads[name] += fact(*args)
            return real(*args)
        return read

    dset = set(m.boundary_flagged)
    monkeypatch.setattr(mmp, "_branching_numbers",
                        counted("beta_D", mmp._branching_numbers, lambda graph, D: set(D) == dset))
    monkeypatch.setattr(mmp, "_maximal_twigs", counted("twigs", mmp._maximal_twigs, lambda graph, D: True))
    monkeypatch.setattr(DualGraph, "connected_components",
                        counted("Exc", DualGraph.connected_components,
                                lambda graph, within: set(within) == peeling.exceptional))
    for scan, count in ((redundant, 3), (almost_log_exceptional, 3)):
        reads.clear()
        assert len(scan(m, peeling, kind="second")) == count
        assert max(reads.values()) <= 1 and reads["Exc"] == 1, (scan.__name__, reads)


@pytest.mark.parametrize("scan", [redundant, almost_log_exceptional])
def test_a_peeling_of_another_model_is_refused(scan):
    # [1,2,2] with D = {v0, v1}: v0 is redundant, its image pairs -3/2 with
    # K + D; the peeling of D = {v0, v1, v2} once gave a (1) verdict at -4/3
    m = model(chain_graph(1, 2, 2, boundary=(0, 1)))
    assert [(v.vertex, v.case, v.pairing) for v in redundant(m, kind="second")] == [("v0", "(1)", F(-3, 2))]
    others = {
        "other boundary": model(chain_graph(1, 2, 2, boundary=(0, 1, 2))),
        "other weights": model(chain_graph(1, 2, 3, boundary=(0, 1, 2))),
        "other graph": model(chain_graph(2, 2, boundary=(0, 1))),
        "other contracted set": model(chain_graph(1, 2, 2, boundary=(0, 1)), contracted=("v2",)),
        "other r": model(chain_graph(1, 2, 2, boundary=(0, 1)), r=F(1, 2)),
    }
    for what, other in others.items():
        with pytest.raises(NotApplicable, match="does not start from this model"):
            scan(m, peel(other, kind="second"), kind="second")
    # a peeling of an equal model, on an equal graph, is a peeling of m
    same = LogSurfaceModel(DualGraph(m.graph.vertices, m.graph.edges), m.contracted, m.uniform_r)
    assert scan(m, peel(same, kind="second"), kind="second") == scan(m, kind="second")
