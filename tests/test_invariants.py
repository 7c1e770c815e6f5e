import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from logsurf import (
    CoeffOutOfRange,
    DualGraph,
    Edge,
    GermGraph,
    LogSurfaceModel,
    NotAChain,
    NotPeelable,
    UnknownVertex,
    Vertex,
    bark_chain,
    bark_D,
    chain_data,
    coefficient_divisor_uniform,
    coefficients_linear,
    discriminant,
    eps_check,
    is_negative_definite,
    total_coefficient,
)
from logsurf.invariants import classify_peelable, fork_delta
from logsurf.graph import find_shapes
from logsurf.linalg import solve_int

from conftest import chain_graph, fork_graph, model, random_negative_definite_tree
from oracles import (
    HypothesisViolated, cofactor_matches_path, eps_check_from_entries, may_underreport_at_eps0,
    split_discriminant, total_coefficient_entries, tree_coefficient_identity,
)


# -- discriminants ------------------------------------------------------------


def test_discriminant_empty():
    g = chain_graph(2)
    assert discriminant(g, []) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_discriminant_asterisk_rod(k):
    g = chain_graph(3, *([2] * (k - 1)))
    assert discriminant(g, g.ids) == 2 * k + 1


def test_discriminant_contracts_to_smooth():
    g = chain_graph(2, 1, 3)
    assert discriminant(g, g.ids) == 1


def test_split_discriminant_examples():
    g = chain_graph(3, 2)
    assert split_discriminant(g, ["v0"], ["v1"], "v0", "v1") == 5
    g2 = chain_graph(2, 2, 2)
    assert split_discriminant(g2, ["v0"], ["v1", "v2"], "v0", "v1") == 2 * 3 - 2
    f = fork_graph(2, (2,), (2,), (2,))
    rest = [v for v in f.ids if v != "t0_0"]
    assert split_discriminant(f, rest, ["t0_0"], "c", "t0_0") == 4


def test_split_discriminant_hypothesis():
    tri = DualGraph(
        (Vertex("a", 2), Vertex("b", 2), Vertex("c", 2)),
        (Edge("a", "b"), Edge("b", "c"), Edge("a", "c")),
    )
    with pytest.raises(HypothesisViolated):
        split_discriminant(tri, ["a"], ["b", "c"], "a", "b")


def test_split_matches_direct_on_random_trees():
    rng = random.Random(23)
    for _ in range(80):
        g = random_negative_definite_tree(rng, rng.randint(2, 9))
        ids = list(g.ids)
        # split at a random edge
        e = rng.choice(g.edges)
        comps = g.without([e.a]).connected_components(set(ids) - {e.a})
        side_b = next(c for c in comps if e.b in c)
        d1 = set(ids) - side_b
        got = split_discriminant(g, sorted(d1), sorted(side_b), e.a, e.b)
        assert got == discriminant(g, ids)


# -- chain data -----------------------------------------------------------------


def test_chain_data_3_2():
    g = chain_graph(3, 2)
    cd = chain_data(g, ("v0", "v1"))
    assert (cd.d, cd.d_prime) == (5, 2)
    assert cd.delta == F(1, 5) and cd.inductance == F(2, 5)
    rev = chain_data(g, ("v1", "v0"))
    assert rev.inductance == F(3, 5)


@pytest.mark.parametrize("k", range(1, 7))
def test_chain_data_two_chain(k):
    g = chain_graph(*([2] * k))
    cd = chain_data(g, tuple(f"v{i}" for i in range(k)))
    assert cd.d == k + 1
    assert cd.delta == F(1, k + 1)
    assert cd.inductance == F(k, k + 1)
    assert cd.delta + cd.inductance == 1  # equality exactly for (-2)-chains


def test_chain_data_single_4():
    g = chain_graph(4)
    cd = chain_data(g, ("v0",))
    assert (cd.d, cd.d_prime) == (4, 1)
    assert cd.inductance == F(1, 4) and cd.delta == F(1, 4)


def test_chain_data_rejects_non_chains():
    g = fork_graph(2, (2,), (2,), (2,))
    with pytest.raises(NotAChain):
        chain_data(g, g.ids)
    double = DualGraph((Vertex("a", 3), Vertex("b", 3)), (Edge("a", "b", 2),))
    with pytest.raises(NotAChain):
        chain_data(double, ("a", "b"))


def test_chain_data_equals_discriminants_of_the_sub_chains():
    # the continuants must give every d, d_lower and d_upper entry that the
    # Bareiss discriminant gives; weights -1..5 make zero and negative
    # discriminants occur, and a curve hung off the chain must not count
    rng = random.Random(41)
    signs = {-1: 0, 0: 0, 1: 0}
    for _ in range(300):
        m = rng.randint(0, 10)
        ids = [f"c{i}" for i in range(m)]
        rng.shuffle(ids)  # the chain order is not the sorted order
        vs = [Vertex(v, rng.randint(-1, 5)) for v in ids]
        es = [Edge(ids[i], ids[i + 1]) for i in range(m - 1)]
        if m and rng.random() < 0.3:
            vs.append(Vertex("x", rng.randint(-1, 5)))
            es.append(Edge("x", rng.choice(ids)))
        g = DualGraph(tuple(vs), tuple(es))
        cd = chain_data(g, ids)
        assert cd.vertices == tuple(ids)
        assert cd.d == discriminant(g, ids)
        assert cd.d_lower == tuple(discriminant(g, ids[:i]) for i in range(m))
        assert cd.d_upper == tuple(discriminant(g, ids[i:]) for i in range(1, m + 1))
        assert cd.d_prime == (cd.d_upper[0] if m else 0)
        for x in (cd.d, *cd.d_lower, *cd.d_upper):
            signs[(x > 0) - (x < 0)] += 1
    assert min(signs.values()) >= 30, signs


def test_delta_plus_inductance_below_one_unless_all_two():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        ws = [rng.randint(2, 6) for _ in range(n)]
        g = chain_graph(*ws)
        cd = chain_data(g, tuple(f"v{i}" for i in range(n)))
        assert gcd(cd.d, cd.d_prime) == 1
        s = cd.delta + cd.inductance
        assert s <= 1
        assert (s == 1) == all(w == 2 for w in ws)


# -- barks ----------------------------------------------------------------------


def test_bark_chain_values():
    g = chain_graph(2, 2)
    assert bark_chain(g, ("v0", "v1")).coefficients == {"v0": F(2, 3), "v1": F(1, 3)}
    g2 = chain_graph(3, 2)
    assert bark_chain(g2, ("v0", "v1")).coefficients == {"v0": F(2, 5), "v1": F(1, 5)}
    g3 = chain_graph(2)
    assert bark_chain(g3, ("v0",)).coefficients == {"v0": F(1, 2)}


def test_bark_tip_product_is_minus_kronecker():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(1, 7)
        g = chain_graph(*[rng.randint(2, 6) for _ in range(n)])
        order = tuple(f"v{i}" for i in range(n))
        bk = bark_chain(g, order).coefficients
        for i, v in enumerate(order):
            assert g.pairing({v: F(1)}, bk) == (-1 if i == 0 else 0)


def test_bark_rod_order_independent():
    g = chain_graph(3, 2, 4)
    mod = model(g, r=1)
    up = bark_chain(g, ("v0", "v1", "v2")).coefficients
    down = bark_chain(g, ("v2", "v1", "v0")).coefficients
    total = {v: up[v] + down[v] for v in g.ids}
    up2 = bark_chain(g, ("v2", "v1", "v0")).coefficients
    down2 = bark_chain(g, ("v0", "v1", "v2")).coefficients
    assert total == {v: up2[v] + down2[v] for v in g.ids}


def test_bark_D_rod_2():
    g = chain_graph(2, prefix="r")
    bd = bark_D(g, g.ids, g.ids)
    assert bd.coefficients == {"r0": F(1)}


def test_bark_D_minus_two_fork():
    f = fork_graph(2, (2,), (2,), (2,))
    bd = bark_D(f, f.ids, f.ids)
    assert bd.fork_factor == 1
    assert all(c == 1 for c in bd.coefficients.values())


def test_bark_D_twig():
    # twig [3,2] of a larger boundary
    g = fork_graph(0, (3, 2), (0,), (0,))
    twig = ("t0_1", "t0_0")
    bd = bark_D(g, g.ids, twig)
    assert bd.coefficients == {"t0_1": F(2, 5), "t0_0": F(1, 5)}


def test_bark_D_rejects_non_peelable():
    g = chain_graph(1, 0)
    with pytest.raises(NotPeelable):
        bark_D(g, g.ids, ["v0"])


def test_unknown_ids_in_the_boundary_are_unknown_vertices():
    g = chain_graph(2, 3, 2)
    calls = {
        "classify_peelable": lambda D, exc: classify_peelable(g, D, exc),
        "bark_D": lambda D, exc: bark_D(g, D, exc),
        "find_shapes": lambda D, exc: find_shapes(g, D),
    }
    for name, call in calls.items():
        for D, exc in ((["v0", "zz"], ["v0"]), (["v0", "zz"], ["zz"]), (["zz"], [])):
            with pytest.raises(UnknownVertex, match="no vertex 'zz'"):
                call(D, exc)
        if name != "find_shapes":  # an id of exc outside D is not peeled
            with pytest.raises(NotPeelable, match="not contained in the boundary"):
                call(["v0"], ["zz"])
    with pytest.raises(NotPeelable, match="not contained in the boundary"):
        coefficient_divisor_uniform(model(chain_graph(2, 3, boundary=(0, 1)), r=F(1, 2)), ["zz"], F(1, 2))


def test_fork_discriminant_identity():
    rng = random.Random(41)
    for _ in range(60):
        tw = [
            tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 3))) for _ in range(3)
        ]
        b = rng.randint(2, 5)
        f = fork_graph(b, *tw)
        shapes = find_shapes(f, f.ids)
        if not shapes.forks:
            continue
        fk = shapes.forks[0]
        prod = F(1)
        ind_sum = F(0)
        for t in fk.twigs:
            cd = chain_data(f, t)
            prod *= cd.d
            ind_sum += chain_data(f, tuple(reversed(t))).inductance
        assert discriminant(f, f.ids) == prod * (b - ind_sum)


# -- coefficient vectors ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [F(1, 3), F(1, 2), F(2, 3)])
def test_cusp_resolution_coefficients(n, r):
    # exceptional chain [3,(2)_{n-2},3,1,2] with the boundary transform
    # meeting the (-1)-curve; coefficients i(2r-1)+r, then 2n(2r-1), n(2r-1)
    ws = [3] + [2] * (n - 2) + [3, 1, 2]
    g = chain_graph(*ws)
    host = Vertex("R", 0, boundary=F(1))
    g = DualGraph((*g.vertices, host), (*g.edges, Edge(f"v{n}", "R")))
    mod = LogSurfaceModel(g, frozenset(f"v{i}" for i in range(n + 2)), r)
    cf = mod.coefficients
    for i in range(n):
        assert cf[f"v{i}"] == i * (2 * r - 1) + r
    assert cf[f"v{n}"] == 2 * n * (2 * r - 1)
    assert cf[f"v{n+1}"] == n * (2 * r - 1)
    assert (max(cf.values()) <= r) == (r <= F(1, 2))


def test_du_val_coefficients_vanish():
    for g in (chain_graph(2, 2, 2), fork_graph(2, (2,), (2,), (2, 2, 2))):
        germ = GermGraph(g)
        assert all(c == 0 for c in germ.coefficients.values())


def test_single_3_germ():
    germ = GermGraph(chain_graph(3))
    assert germ.coefficients == {"v0": F(1, 3)}
    assert tree_coefficient_identity(germ, "v0") == 1 - F(1, 3)


def test_uniform_formula_equals_linear_solve_on_random_configs():
    rng = random.Random(43)
    rs = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
    for _ in range(120):
        r = rng.choice(rs)
        kind = rng.choice(["twig", "rod", "fork"])
        if kind == "twig":
            k = rng.randint(1, 6)
            ws = [rng.randint(2, 6) for _ in range(k)] + [0]
            g = chain_graph(*ws, boundary=tuple(range(k + 1)))
            exc = [f"v{i}" for i in range(k)]
        elif kind == "rod":
            k = rng.randint(1, 6)
            g = chain_graph(*[rng.randint(2, 6) for _ in range(k)], boundary=tuple(range(k)))
            exc = [f"v{i}" for i in range(k)]
        else:
            tw = [
                tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 2)))
                for _ in range(3)
            ]
            g = fork_graph(rng.randint(2, 6), *tw, boundary_all=True)
            if fork_delta(g, find_shapes(g, g.ids).forks[0]) <= 1:
                continue
            exc = list(g.ids)
        mod = model(g, r=r)
        closed = coefficient_divisor_uniform(mod, exc, r)
        lin = coefficients_linear(LogSurfaceModel(g.without([]), frozenset(exc), r))
        assert closed.values == lin.values, (kind, r, closed.values, lin.values)


def test_coefficient_divisor_range_for_pure_peeling():
    # (-2)-twig at r = 1/2 is a pure peeling: coefficients in [0, r)
    g = chain_graph(2, 2, 0, boundary=(0, 1, 2))
    cv = coefficient_divisor_uniform(model(g, r=F(1, 2)), ["v0", "v1"], F(1, 2))
    assert all(0 <= c < F(1, 2) for c in cv.values.values())
    # (-2)-rod: identically zero
    g2 = chain_graph(2, 2, boundary=(0, 1))
    cv2 = coefficient_divisor_uniform(model(g2, r=F(1, 2)), ["v0", "v1"], F(1, 2))
    assert set(cv2.values.values()) == {F(0)}


def test_coefficient_divisor_keys_do_not_depend_on_the_hash_seed():
    # the [2,3,2] twig of a five-curve boundary chain; its values are keyed
    # in id order under every hash seed
    script = (
        "from fractions import Fraction as F\n"
        "from logsurf import DualGraph, Edge, LogSurfaceModel, Vertex, coefficient_divisor_uniform\n"
        "g = DualGraph(tuple(Vertex(f'v{i}', w, boundary=F(1)) for i, w in enumerate((2, 3, 2, 1, 2))),\n"
        "              tuple(Edge(f'v{i}', f'v{i + 1}') for i in range(4)))\n"
        "m = LogSurfaceModel(g, frozenset(), F(1, 2))\n"
        "print(list(coefficient_divisor_uniform(m, ['v2', 'v0', 'v1'], F(1, 2)).values))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, check=True, text=True,
        ).stdout
        for seed in ("1", "3")
    ]
    assert outs == ["['v0', 'v1', 'v2']\n"] * 2


# -- appendix identities ----------------------------------------------------------


def test_cofactor_identity_example():
    g = chain_graph(2, 3)
    assert cofactor_matches_path(g, "v0", "v1")


def test_tree_formula_and_cofactors_random():
    rng = random.Random(47)
    # 60 trees of 1-9 curves, then two of 20 and one each of 30 and 40: the
    # oracles build a graph's paths and dense adjugate once, and d(E - path)
    # from the parts of E - path
    for i in range(64):
        n = rng.randint(1, 9) if i < 60 else (20, 20, 30, 40)[i - 60]
        g = random_negative_definite_tree(rng, n, theta_max=1)
        germ = GermGraph(g)
        cf = germ.coefficients
        for j in g.ids:
            assert tree_coefficient_identity(germ, j) == 1 - cf[j]
        for i in g.ids:
            for j in g.ids:
                assert cofactor_matches_path(g, i, j)


def test_inverse_intersection_matrix_positive():
    rng = random.Random(53)
    for _ in range(60):
        g = random_negative_definite_tree(rng, rng.randint(1, 8))
        n = len(g.ids)
        m = g.neg_q(g.ids)
        cols = []
        for j in range(n):
            rhs = [F(1 if i == j else 0) for i in range(n)]
            cols.append(solve_int(m, rhs))
        assert all(x > 0 for col in cols for x in col)


def test_total_coefficient_examples():
    g = chain_graph(3, 2)
    mod = model(g, contracted=("v0", "v1"))
    tc = total_coefficient(mod)
    assert tc.value == F(2, 5)
    # reduced snc crossing: two boundary lines, tcf = 1 and the flag warns
    g2 = DualGraph(
        (Vertex("a", 0, boundary=F(1)), Vertex("b", 0, boundary=F(1))),
        (Edge("a", "b"),),
    )
    tc2 = total_coefficient(model(g2))
    assert tc2.value == 1
    assert tc2.may_underreport_at_eps0  # a blowup at the crossing has ld = 0
    assert not tc.may_underreport_at_eps0  # both coefficients are at most 2/5
    # the flag only matters at eps = 0: there the verdict is not exact
    assert not eps_check(model(g2), 0).exact
    assert eps_check(model(g2), F(1, 10)).exact
    # du Val, no boundary
    tc3 = total_coefficient(model(fork_graph(2, (2,), (2,), (2,)), contracted=None or ()))
    assert tc3.value == 0
    d4 = fork_graph(2, (2,), (2,), (2,))
    tc4 = total_coefficient(model(d4, contracted=d4.ids))
    assert tc4.value == 0


def _fraction_verdict(m, eps):
    """tcf, its witness, lc and dlt by Fraction comparisons: the maximum of
    the exceptional and boundary coefficients, the least id reaching it."""
    entries = dict(m.coefficients)
    entries.update((b, m.coeff(b)) for b in m.boundary_support)
    value = max(entries.values(), default=F(0))
    witness = min((v for v, c in entries.items() if c == value), default="")
    bound = 1 - eps
    is_lc = value <= bound
    return value, witness, is_lc, is_lc and all(c < bound for c in m.coefficients.values())


def test_integer_comparisons_equal_the_fraction_comparisons():
    rng = random.Random(20)
    coeffs = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(2, 5))
    seen = Counter()
    for i in range(300):
        n = rng.randint(1, 8)
        flagged = 0.0 if i % 25 == 0 else 0.5
        vs = tuple(Vertex(f"x{j}", rng.randint(1, 4),
                          boundary=rng.choice(coeffs) if rng.random() < flagged else F(0))
                   for j in range(n))
        g = DualGraph(vs, tuple(Edge(f"x{rng.randrange(j)}", f"x{j}") for j in range(1, n)))
        exc = frozenset(v.id for v in vs if rng.random() < (0 if i % 25 == 0 else 0.6))
        if not is_negative_definite(g, exc):
            exc = frozenset()
        m = LogSurfaceModel(g, exc, rng.choice((None, None, F(1, 2), F(2, 3))))
        values = [*m.coefficients.values(), *(m.coeff(b) for b in m.boundary_support)]
        for eps in {F(0), F(1, 10), *(1 - c for c in values if c <= 1)}:
            value, witness, is_lc, is_dlt = _fraction_verdict(m, eps)
            tc = total_coefficient(m)
            assert (tc.value, tc.witness) == (value, witness), (i, eps)
            assert type(tc.value) is F
            if eps > 1:  # 1 - c for a negative coefficient c: eps_check refuses it
                with pytest.raises(CoeffOutOfRange):
                    eps_check(m, eps)
                seen["eps above 1"] += 1
            else:
                v = eps_check(m, eps)
                assert (v.tcf, v.is_lc, v.is_dlt) == (value, is_lc, is_dlt), (i, eps)
            seen["no entries"] += witness == ""
            seen["tie"] += values.count(value) >= 2
            seen["tcf at the bound"] += value == 1 - eps
            seen["exceptional at the bound"] += (1 - eps) in m.coefficients.values()
            seen["non-uniform"] += len({m.coeff(b) for b in m.boundary_support}) >= 2
            seen["negative tcf"] += value < 0
            seen["lc" if is_lc else "not lc"] += 1
            seen["dlt" if is_dlt else "lc, not dlt" if is_lc else "not dlt"] += 1
    assert min(seen.values()) >= 20, seen


def _verdict_draw(rng, i):
    """A model of 1-8 curves of weights 1-4, some decorated: one time in
    four a germ, every curve contracted and no boundary; else a tree with
    boundary coefficients of several values, a contracted set (empty one
    time in six) and a uniform coefficient, 0 among them, or none; one time
    in eight a tie, a lone contracted (-k)-curve and a boundary curve of its
    coefficient 1 - 2/k, either of them the lesser id."""
    if i % 8 == 1:
        k = rng.choice((3, 4))
        e, b = rng.sample(("x0", "x1"), 2)
        g = DualGraph((Vertex(e, k), Vertex(b, rng.randint(1, 4), boundary=1 - F(2, k))), ())
        return LogSurfaceModel(g, frozenset({e}))
    n = rng.randint(1, 8)
    germ = i % 4 == 0
    coeffs = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(2, 5))
    vs = tuple(Vertex(f"x{j}", rng.randint(2 if germ else 1, 4), decoration=F(int(rng.random() < 0.2)),
                      boundary=F(0) if germ or rng.random() < 0.5 else rng.choice(coeffs))
               for j in range(n))
    g = DualGraph(vs, tuple(Edge(f"x{rng.randrange(j)}", f"x{j}") for j in range(1, n)))
    if germ:
        exc = frozenset(g.ids)
    else:
        exc = frozenset(v for v in g.ids if i % 6 and rng.random() < 0.6)
    if not is_negative_definite(g, exc):
        exc = frozenset(v for v in exc if g.vertex(v).weight >= 2 and rng.random() < 0.5)
        if not is_negative_definite(g, exc):
            exc = frozenset()
    return LogSurfaceModel(g, exc, None if germ else rng.choice((None, None, None, F(0), F(1, 3), F(1, 2), F(2, 3))))


def test_per_component_verdicts_equal_the_verdicts_over_every_entry():
    # total_coefficient reads each component's largest coefficient off its
    # integer answer, eps_check tests dlt on the largest exceptional one and
    # builds the entries only at eps = 0: every field must equal the verdict
    # that builds a Fraction for every entry and compares each of them
    rng = random.Random(23)
    seen = Counter()
    for i in range(360):
        m = _verdict_draw(rng, i)
        value, witness, entries = total_coefficient_entries(m)
        tc = total_coefficient(m)
        assert (tc.value, tc.witness, tc.entries) == (value, witness, entries), i
        assert type(tc.value) is F
        assert tc.may_underreport_at_eps0 == may_underreport_at_eps0(m, entries), i
        exceptional = set(m.coefficients)
        top = {v for v, c in entries.items() if c == value}
        seen["tie of a boundary and an exceptional curve"] += bool(top & exceptional and top - exceptional)
        seen["germ, decorated"] += m.contracted == set(m.graph.ids) and any(
            v.decoration for v in m.graph.vertices)
        seen["nothing contracted"] += not exceptional
        seen["r = 0"] += m.uniform_r == 0
        values = {m.coeff(b) for b in m.boundary_support}
        seen["uniform" if len(values) == 1 else "non-uniform" if values else "no boundary"] += 1
        seen["negative coefficient"] += any(c < 0 for c in m.coefficients.values())
        at_a_coefficient = {1 - c for c in entries.values()}
        for eps in (F(0), F(1, 6), F(1, 2), *sorted(at_a_coefficient)):
            try:
                want = eps_check_from_entries(m, eps)
            except CoeffOutOfRange:
                with pytest.raises(CoeffOutOfRange):
                    eps_check(m, eps)
                seen["eps outside [0, 1]"] += 1
                continue
            assert eps_check(m, eps) == want, (i, eps)
            seen["eps = 1 - c"] += eps in at_a_coefficient
            seen["not exact"] += not want.exact
            seen["dlt" if want.is_dlt else "lc, not dlt" if want.is_lc else "not lc"] += 1
    assert min(seen.values()) >= 20 and len(seen) == 14, seen


def _total_draw(rng, i):
    """A seeded model for the total coefficient: 1-9 curves at shuffled ids
    (so vertex order is not id order), a tree with sometimes one more edge,
    boundary coefficients from a few values, r from None, 0, 1/3, 1/2 and 1,
    and a definite contracted set, all of it or none of it at times."""
    n = rng.randint(1, 9)
    names = [f"x{k}" for k in rng.sample(range(12), n)]
    coeffs = (F(1, 3), F(1, 2), F(2, 3), F(1))
    vs = tuple(Vertex(v, rng.randint(1, 4), decoration=F(int(rng.random() < 0.15)),
                      boundary=F(0) if rng.random() < 0.4 else rng.choice(coeffs)) for v in names)
    es = [Edge(names[rng.randrange(j)], names[j]) for j in range(1, n)]
    if n > 2 and rng.random() < 0.3:
        a, b = rng.sample(names, 2)
        if all({a, b} != {e.a, e.b} for e in es):
            es.append(Edge(a, b))
    g = DualGraph(vs, tuple(es))
    exc = frozenset(v for v in names if g.vertex(v).weight >= 2 and rng.random() < (0.9 if i % 5 else 0))
    while not is_negative_definite(g, exc):
        exc = frozenset(rng.sample(sorted(exc), len(exc) - 1))
    return LogSurfaceModel(g, exc, rng.choice((None, None, F(0), F(1, 3), F(1, 2), F(1))))


def test_the_integer_total_coefficient_equals_the_fraction_definitions():
    # the support is compared once under a uniform r, and the eps = 0 flag
    # reads integer pairs: value, witness, the largest exceptional
    # coefficient and the flag equal their definitions over Fractions
    rng = random.Random(611)
    seen = Counter()
    for i in range(400):
        m = _total_draw(rng, i)
        value, witness, entries = total_coefficient_entries(m)
        tc = total_coefficient(m)
        assert (tc.value, tc.witness) == (value, witness), i
        cf = m.coefficients
        assert (None if tc.exceptional is None else F(*tc.exceptional)) == max(cf.values(), default=None)
        assert tc.may_underreport_at_eps0 == may_underreport_at_eps0(m, entries), i
        support = {b: m.coeff(b) for b in m.boundary_support}
        seen["r = 0" if m.uniform_r == 0 else "r = 1" if m.uniform_r == 1
             else "uniform r" if m.uniform_r is not None else "no uniform r"] += 1
        seen["non-uniform support" if len(set(support.values())) > 1 else "empty support"
             if not support else "uniform support"] += 1
        seen["witness not first in vertex order"] += bool(
            support and witness in support and witness != next(iter(support)))
        seen["tie"] += sum(c == value for c in entries.values()) > 1
        seen["flag"] += tc.may_underreport_at_eps0
        seen["no flag"] += not tc.may_underreport_at_eps0
        seen["nothing contracted"] += not m.contracted
    assert len(seen) == 12 and min(seen.values()) >= 20, seen
