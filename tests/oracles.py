"""Checks that only the tests use: the paper's identities computed another
way, and the defining properties of runs and peelings.  Tests import this
module the way they import ``conftest``."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable

from logsurf import (
    DualGraph, EpsVerdict, GermGraph, LogSurfaceModel, LogSurfError, MMPRun, NotApplicable,
    blow_down, branching_number, discriminant, is_negative_definite,
)
from logsurf.errors import CoeffOutOfRange
from logsurf.graph import ONE, ZERO, _as_rational
from logsurf.linalg import factor_definite, solve_factored, solve_int
from logsurf.mmp import (
    _KINDS, SECOND, AlmostMinDecomposition, PeelingData, _classify_peeled, curve_verdict, relative_mmp,
)


class NotATree(LogSurfError):
    """A tree identity asked of a graph with a cycle, or of two components."""


class HypothesisViolated(LogSurfError):
    """An identity asked outside its hypotheses."""


def split_discriminant(graph: DualGraph, D1: Iterable[str], D2: Iterable[str], T1: str, T2: str) -> int:
    """d(D1)d(D2) - (T1.T2) d(D1-T1) d(D2-T2), valid when D1 and D2 are
    disjoint and joined through the single pair T1, T2 only."""
    s1, s2 = set(D1), set(D2)
    if s1 & s2:
        raise HypothesisViolated("the two divisors share a component")
    if T1 not in s1 or T2 not in s2:
        raise HypothesisViolated("T1, T2 must lie in D1, D2 respectively")
    for u in s1:
        for w, m in graph.adjacency[u].items():
            if w in s2 and (u, w) != (T1, T2):
                raise HypothesisViolated(f"extra connecting edge {u}-{w}")
    m = graph.mult(T1, T2)
    return (
        discriminant(graph, s1) * discriminant(graph, s2)
        - m * discriminant(graph, s1 - {T1}) * discriminant(graph, s2 - {T2})
    )


class _Tree:
    """What the tree identities read on one graph, built once: the path
    between every two curves, d of each connected set asked (a part of
    E - path), and the dense adjugate of -Q.  Every determinant and solve
    here is the dense pass, never the tree kernel the identities check."""

    def __init__(self, graph: DualGraph) -> None:
        ids = graph.ids
        if sum(e.mult for e in graph.edges) != len(ids) - len(graph.connected_components(ids)):
            raise NotATree("graph has a circular subgraph")
        self.graph = graph
        self.paths: dict[tuple[str, str], tuple[str, ...]] = {}
        for start in ids:
            stack = [(start, (start,))]
            seen = {start}
            while stack:
                cur, path = stack.pop()
                self.paths[(start, cur)] = path
                for w in graph.adjacency[cur]:
                    if w not in seen:
                        seen.add(w)
                        stack.append((w, path + (w,)))
        self._d: dict[frozenset[str], int] = {}

    def path(self, i: str, j: str) -> tuple[str, ...]:
        if (i, j) not in self.paths:
            raise NotATree(f"{i!r} and {j!r} lie in different components")
        return self.paths[(i, j)]

    def d_without(self, path: tuple[str, ...]) -> int:
        """d(E - path), the product of d over its connected components."""
        graph, d = self.graph, 1
        for comp in graph.connected_components(set(graph.ids).difference(path)):
            if comp not in self._d:
                self._d[comp] = discriminant(graph, comp)
            d *= self._d[comp]
        return d

    @cached_property
    def adjugate(self) -> list[list[int]]:
        """Rows of adj(-Q) in vertex order, column j solved from one dense
        factor on the unit vector e_j."""
        n = len(self.graph.ids)
        factored = factor_definite(self.graph.neg_q(self.graph.ids))
        if factored is None:
            raise HypothesisViolated("the tree is not negative definite")
        d, lu = factored
        cols = [solve_factored(d, lu, [int(k == j) for k in range(n)]) for j in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]


@lru_cache(maxsize=4)
def _tree(graph: DualGraph) -> _Tree:
    return _Tree(graph)


def u_of(germ: GermGraph, vid: str) -> Fraction:
    """u(E_j) = 2 - beta(E_j) - theta_j - 2g_j."""
    v = germ.graph.vertex(vid)
    return 2 - branching_number(germ.graph, [vid]) - v.decoration - 2 * v.genus


def tree_coefficient_identity(germ: GermGraph, j: str) -> Fraction:
    """1 - cf(E_j) computed by the closed tree formula
    (sum_i u(E_i) d(E - path(E_i, E_j))) / d(E)."""
    graph = germ.graph
    graph.vertex(j)
    tree = _tree(graph)
    total = ZERO
    for i in graph.ids:
        total += u_of(germ, i) * tree.d_without(tree.path(i, j))
    return total / tree.d_without(())


def cofactor_matches_path(graph: DualGraph, i: str, j: str) -> bool:
    """Check (-Q)^[i,j] = d(E - path(E_i,E_j)) for a negative definite
    tree, the cofactor read off the adjugate."""
    tree = _tree(graph)
    path = tree.path(i, j)
    ids = graph.ids
    return tree.adjugate[ids.index(j)][ids.index(i)] == tree.d_without(path)


def k_correction(model: LogSurfaceModel) -> dict[str, Fraction]:
    """The K-correction u on the contracted set, in ``contracted_order``:
    K + sum u_i E_i meets every contracted curve trivially, that is
    sum_i u_i (-E_i.E_j) = K.E_j, in one solve over the whole set."""
    order = model.contracted_order
    graph = model.graph
    return dict(zip(order, solve_int(graph.neg_q(order), [Fraction(graph.k_dot(e)) for e in order])))


def contracts_to_smooth_point_whole(graph: DualGraph, S: Iterable[str]) -> bool:
    """Whether S blows down entirely through (-1)-contractions, each
    blow-down made on the whole graph."""
    sset = set(S)
    g = graph
    while sset:
        cand = [v for v in sorted(sset) if g.vertex(v).weight == 1 and g.vertex(v).genus == 0]
        if not cand:
            return False
        g = blow_down(g, cand[0])
        sset.remove(cand[0])
    return True


def verify_run(run: MMPRun, kind: str = SECOND) -> bool:
    """Check the run against the pair: every step must contract a curve
    log exceptional for K + D of the declared kind.  Runs produced with
    the boundary switched off (pure K-MMPs) need not pass this."""
    cur = run.start
    for step, after in zip(run.steps, run.models[1:]):
        v = curve_verdict(cur, step.vertex)
        if v.kind not in _KINDS[kind] or v.kind != step.kind:
            return False
        if after.contracted != cur.contracted | {step.vertex}:
            return False
        cur = after
    return True


def peeling_from(
    model: LogSurfaceModel, exc: Iterable[str], kind: str = SECOND, pure: bool = True
) -> PeelingData:
    """Package a prescribed exceptional set as a partial peeling, checking
    that it really is one (boundary-supported, contractible stepwise, and
    K-nonnegative on each member when purity is claimed)."""
    excset = frozenset(exc)
    flagged = set(model.boundary_flagged)
    if not excset <= flagged:
        raise NotApplicable("a peeling contracts boundary components only")
    if pure:
        for v in excset:
            if model.k_pairing(v) < 0:
                raise NotApplicable(f"{v!r} pairs negatively with K; not a pure peeling")
    run = relative_mmp(model, excset, use_boundary=True, kind=kind)
    if run.exceptional != excset:
        raise NotApplicable("the set is not the exceptional locus of a partial peeling")
    gamma, lam, delta, extra = _classify_peeled(model, excset)
    return PeelingData(run, pure, kind, gamma, lam, delta, extra)


def ale_characterization(model: LogSurfaceModel, peeling: PeelingData, vid: str) -> tuple[bool, Fraction]:
    """The direct test: A + Exc(alpha) negative definite and
    A.(r D' + cf-divisor) < 1 (first kind; = 1 second kind).  Returns the
    negative-definiteness flag and the tested value."""
    nd = is_negative_definite(model.graph, model.contracted | peeling.exceptional | {vid})
    peeled = peeling.model
    total = model.graph.vertex(vid).decoration
    for b in peeled.boundary_support:
        total += peeled.coeff(b) * model.graph.mult(vid, b)
    for e, c in peeled.coefficients.items():
        if e in peeling.exceptional:
            total += c * model.graph.mult(vid, e)
    return nd, total


def is_log_smooth_output(decomp: AlmostMinDecomposition) -> bool:
    """For a log smooth start (nothing contracted): the almost minimal model
    is log smooth iff every almost-minimalization step contracts a curve that
    is superfluous in (image of D) + itself at the time of contraction."""
    if decomp.am.start.contracted:
        return False
    flagged = set(decomp.am.start.boundary_flagged)
    for step, before in zip(decomp.am.steps, decomp.am.models):
        v = step.vertex
        contacts = []
        for b in flagged - before.contracted - {v}:
            m = before.intersect({v: ONE}, {b: ONE})
            if m != 0:
                contacts.append(m)
        dec = before.graph.vertex(v).decoration
        if sum(contacts, ZERO) + dec > 2 or any(m > 1 for m in contacts):
            return False
    return True


def total_coefficient_entries(model: LogSurfaceModel) -> tuple[Fraction, str, dict[str, Fraction]]:
    """The total coefficient over a ``Fraction`` for every entry: the
    maximum of the exceptional and the boundary coefficients, the least id
    that reaches it, and the entries."""
    entries: dict[str, Fraction] = dict(model.coefficients)
    for b in model.boundary_support:
        entries[b] = model.coeff(b)
    if not entries:
        return ZERO, "", entries
    items = iter(entries.items())
    witness, value = next(items)
    n, d = value.numerator, value.denominator
    for v, c in items:
        lhs, rhs = c.numerator * d, n * c.denominator
        if lhs > rhs:
            witness, value, n, d = v, c, c.numerator, c.denominator
        elif lhs == rhs and v < witness:
            witness = v
    return value, witness, entries


def may_underreport_at_eps0(model: LogSurfaceModel, entries: dict[str, Fraction]) -> bool:
    """Whether two adjacent entries sum above 1, so that a blowup at their
    double point could exceed the total coefficient at eps = 0."""
    return any(
        w in entries and entries[u] + entries[w] > 1
        for u in entries
        for w in model.graph.adjacency[u]
    )


def eps_check_from_entries(model: LogSurfaceModel, eps) -> EpsVerdict:
    """``eps_check`` with every exceptional coefficient compared to 1 - eps
    and every entry built, as ``total_coefficient_entries`` builds them."""
    eps = _as_rational("eps_check", "eps", eps)
    if not 0 <= eps.numerator <= eps.denominator:
        raise CoeffOutOfRange(f"eps {eps} not in [0,1]")
    value, witness, entries = total_coefficient_entries(model)
    bound = 1 - eps
    n, d = bound.numerator, bound.denominator
    is_lc = value.numerator * d <= n * value.denominator
    is_dlt = is_lc and all(c.numerator * d < n * c.denominator for c in model.coefficients.values())
    exact = not (eps == 0 and may_underreport_at_eps0(model, entries))
    return EpsVerdict(eps=eps, is_lc=is_lc, is_dlt=is_dlt, tcf=value, witness=witness,
                      witness_cf=value if witness else ZERO, exact=exact)
