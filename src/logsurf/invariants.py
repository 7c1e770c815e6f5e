"""Discriminants, chain data, barks and coefficient (log-discrepancy) vectors.

Everything here is exact rational arithmetic on a dual graph.  The linear
solver in :mod:`logsurf.graph` is the single audited code path for
coefficients; the bark-based closed forms below are an independent route and
the two are cross-checked by the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import NotAChain, NotAdmissible, NotNegativeDefinite, NotPeelable
from .graph import (
    DualGraph,
    Fork,
    LogSurfaceModel,
    Vertex,
    ZERO,
    ONE,
    _as_fork,
    _as_rational,
    _cached,
    _chain_order,
    _maximal_twigs,
)
from .linalg import bareiss_det

Subdivisor = dict[str, Fraction]


def discriminant(graph: DualGraph, S: Iterable[str]) -> int:
    """d(S) = det(-Q|S); d(empty) = 1."""
    ids = sorted(set(S))
    for v in ids:
        graph.vertex(v)
    return bareiss_det(graph.neg_q(ids))


@dataclass(frozen=True)
class ChainData:
    """An ordered chain with its discriminant data.

    ``d_upper[i]`` is d(T^(i+1)+...+T^(m)) and ``d_lower[i]`` is
    d(T^(1)+...+T^(i-1)), both indexed from 1 in the usual convention (the
    stored tuples are 0-based, entry i-1 for index i).
    """

    vertices: tuple[str, ...]
    d: int
    d_prime: int
    d_upper: tuple[int, ...]
    d_lower: tuple[int, ...]

    @property
    def delta(self) -> Fraction:
        return Fraction(1, self.d)

    @property
    def inductance(self) -> Fraction:
        return Fraction(self.d_prime, self.d)

    @property
    def transposed_inductance(self) -> Fraction:
        """The inductance of the chain read backwards: d_(m)/d."""
        return Fraction(self.d_lower[-1] if self.vertices else 0, self.d)

    @property
    def bark(self) -> Subdivisor:
        """Bk': coefficient d^(i)/d on T^(i)."""
        return {v: Fraction(self.d_upper[i], self.d) for i, v in enumerate(self.vertices)}

    @property
    def transposed_bark(self) -> Subdivisor:
        """Bk-transpose, the bark of the chain read backwards: coefficient
        d_(i)/d on T^(i)."""
        return {v: Fraction(self.d_lower[i], self.d) for i, v in enumerate(self.vertices)}


def _check_chain(graph: DualGraph, order: Sequence[str]) -> None:
    ids = list(order)
    for v in ids:
        graph.vertex(v)
    if len(set(ids)) != len(ids):
        raise NotAChain("repeated vertex in chain order")
    for i, u in enumerate(ids):
        for j in range(i + 1, len(ids)):
            m = graph.mult(u, ids[j])
            want = 1 if j == i + 1 else 0
            if m != want:
                raise NotAChain(f"vertices {u!r}, {ids[j]!r} intersect in {m}, expected {want}")


def _continuants(weights: Iterable[int]) -> list[int]:
    """d of the chains w[:0], w[:1], ..., w[:m] with these weights in order:
    -Q of a chain is tridiagonal, so d_k = w_k d_(k-1) - d_(k-2)."""
    out, prev, cur = [1], 0, 1
    for w in weights:
        prev, cur = cur, w * cur - prev
        out.append(cur)
    return out


def chain_data(graph: DualGraph, order: Sequence[str]) -> ChainData:
    """Discriminant data of an ordered chain; d'(empty) = 0 by convention.

    For admissible chains the classical invariants (gcd(d, d') = 1 and
    delta + inductance <= 1) are asserted on the way out.
    """
    ids = tuple(order)
    _check_chain(graph, ids)
    m = len(ids)
    weights = [graph.vertex(v).weight for v in ids]
    prefix = _continuants(weights)
    suffix = _continuants(reversed(weights))  # suffix[k]: the last k curves
    d = prefix[m]
    d_upper = tuple(reversed(suffix[:m]))
    d_lower = tuple(prefix[:m])
    d_prime = d_upper[0] if m else 0
    cd = ChainData(ids, d, d_prime, d_upper, d_lower)
    if ids and is_admissible_chain(graph, ids):
        assert_admissible(graph, cd)
    return cd


def is_admissible_chain(graph: DualGraph, order: Sequence[str]) -> bool:
    return all(
        graph.vertex(v).weight >= 2 and graph.vertex(v).genus == 0 for v in order
    )


def assert_admissible(graph: DualGraph, cd: ChainData) -> None:
    if not cd.vertices:
        return
    if not is_admissible_chain(graph, cd.vertices):
        raise NotAdmissible(f"chain {list(cd.vertices)} has a non-admissible component")
    # sanity of the classical facts: gcd(d, d') = 1 and delta + ind <= 1
    if gcd(cd.d, cd.d_prime) != 1:
        raise NotAdmissible("gcd(d, d') != 1 on an admissible chain")
    if cd.delta + cd.inductance > 1:
        raise NotAdmissible("delta + inductance > 1 on an admissible chain")


@dataclass(frozen=True)
class BarkDivisor:
    coefficients: Subdivisor
    fork_factor: Optional[Fraction] = None


def bark_chain(graph: DualGraph, order: Sequence[str]) -> BarkDivisor:
    """Bk' of an admissible ordered chain: coefficient d^(i)/d on T^(i).

    Satisfies T^(i) . Bk' = -1 for i = 1 and 0 otherwise.
    """
    cd = chain_data(graph, order)
    assert_admissible(graph, cd)
    return BarkDivisor(cd.bark)


@dataclass(frozen=True)
class PeelableComponent:
    kind: str  # "twig" | "rod" | "fork"
    vertices: frozenset[str]
    twig: tuple[str, ...] = ()
    fork: Optional[Fork] = None


def classify_peelable(graph: DualGraph, D: Iterable[str], exc: Iterable[str]) -> list[PeelableComponent]:
    """Split exc into maximal admissible twigs, admissible rods and admissible
    forks of D; raises NotPeelable when a component is none of these."""
    dset = set(D)
    excset = set(exc)
    if not excset <= dset:
        raise NotPeelable("exceptional set not contained in the boundary")
    maximal = _maximal_twigs(graph, dset)  # first: it checks the ids of D
    # the rods and forks of D are its components that read as chains or forks
    parts = graph.connected_components(dset)
    rods = {c: chain for c in parts if (chain := _chain_order(graph, c)) is not None}
    forks = {c: f for c in parts if c not in rods and (f := _as_fork(graph, c)) is not None}
    # a maximal admissible twig is the admissible prefix of a maximal twig of
    # D; inside a rod, twigs grow from either tip (a whole rod is a rod first)
    starts = [*maximal.values(), *(t for chain in rods.values() for t in (chain, chain[::-1]))]
    twigs: dict[frozenset[str], tuple[str, ...]] = {}
    for t in starts:
        prefix = tuple(itertools.takewhile(lambda v: is_admissible_chain(graph, [v]), t))
        if prefix:
            twigs[frozenset(prefix)] = prefix
    out: list[PeelableComponent] = []
    for comp in graph.connected_components(excset):
        if comp in rods:
            order = rods[comp]
            if not is_admissible_chain(graph, order):
                raise NotPeelable(f"rod {sorted(comp)} is not admissible")
            out.append(PeelableComponent("rod", comp, twig=order))
        elif comp in twigs:
            out.append(PeelableComponent("twig", comp, twig=twigs[comp]))
        elif comp in forks:
            f = forks[comp]
            if not _fork_admissible(graph, f):
                raise NotPeelable(f"fork at {f.center!r} is not admissible")
            out.append(PeelableComponent("fork", comp, fork=f))
        else:
            raise NotPeelable(
                f"component {sorted(comp)} is not a maximal twig, rod or fork of D"
            )
    return out


def fork_delta(graph: DualGraph, f: Fork) -> Fraction:
    return sum((chain_data(graph, t).delta for t in f.twigs), ZERO)


def _fork_admissible(graph: DualGraph, f: Fork) -> bool:
    center = graph.vertex(f.center)
    if center.weight < 2 or center.genus != 0:
        return False
    if any(not is_admissible_chain(graph, t) for t in f.twigs):
        return False
    return fork_delta(graph, f) > 1


def bark_fork(graph: DualGraph, f: Fork) -> BarkDivisor:
    """Bark of an admissible fork: u (E0 + sum Bk-transpose T_i) + sum Bk' T_i
    with u = (sum delta(T_i) - 1) / (-E0^2 - sum ind(T_i-transposed))."""
    if not _fork_admissible(graph, f):
        raise NotAdmissible(f"fork at {f.center!r} is not admissible")
    cds = [chain_data(graph, t) for t in f.twigs]
    num = sum((cd.delta for cd in cds), ZERO) - 1
    u = num / (graph.vertex(f.center).weight - sum((cd.transposed_inductance for cd in cds), ZERO))
    coeffs: Subdivisor = {f.center: u}
    for cd in cds:
        up, down = cd.bark, cd.transposed_bark
        for v in cd.vertices:
            coeffs[v] = u * down[v] + up[v]
    return BarkDivisor(coeffs, fork_factor=u)


def bark_D(graph: DualGraph, D: Iterable[str], exc: Iterable[str]) -> BarkDivisor:
    """Bk_D of a disjoint union of maximal admissible twigs, admissible rods
    and admissible forks of D, extended additively."""
    return _bark_of(graph, classify_peelable(graph, D, exc))


def _bark_of(graph: DualGraph, comps: Iterable[PeelableComponent]) -> BarkDivisor:
    """Bk_D of these peelable parts: Bk' of a twig, Bk' + Bk-transpose of a
    rod, the fork bark of a fork."""
    coeffs: Subdivisor = {}
    factor = None
    for comp in comps:
        if comp.kind == "twig":
            coeffs.update(chain_data(graph, comp.twig).bark)
        elif comp.kind == "rod":
            cd = chain_data(graph, comp.twig)
            up, down = cd.bark, cd.transposed_bark
            coeffs.update({v: up[v] + down[v] for v in cd.vertices})
        else:
            bd = bark_fork(graph, comp.fork)
            coeffs.update(bd.coefficients)
            factor = bd.fork_factor
    return BarkDivisor(coeffs, fork_factor=factor)


@dataclass(frozen=True)
class CoefficientVector:
    values: dict[str, Fraction]

    @property
    def complement(self) -> dict[str, Fraction]:
        """Log discrepancies ld = 1 - cf."""
        return {v: 1 - c for v, c in self.values.items()}


def coefficients_linear(model: LogSurfaceModel) -> CoefficientVector:
    """cf of every contracted vertex over the current model, by the linear
    system sum_i cf_i (-E_i.E_j) = K.E_j + theta_j + B.E_j.  This is the
    universal oracle for every closed-form coefficient formula."""
    return CoefficientVector(dict(model.coefficients))


def coefficient_divisor_uniform(
    model: LogSurfaceModel, exc: Iterable[str], r: Fraction
) -> CoefficientVector:
    """Closed form for a uniform boundary: Exc - Bk_D(Exc) - (1-r) Bk-transpose
    of the twig part.  Requires exc to consist of maximal admissible twigs,
    admissible rods and admissible forks of the reduced boundary.  ``r`` is
    an int or a Fraction (ValidationError)."""
    r = _as_rational("coefficient_divisor_uniform", "r", r)
    graph = model.graph
    excset = set(exc)
    comps = classify_peelable(graph, model.boundary_flagged, excset)
    bk = _bark_of(graph, comps).coefficients
    # in id order: a set's order would move with the hash seed
    values: Subdivisor = {v: ONE - bk[v] for v in sorted(excset)}
    for comp in comps:
        if comp.kind == "twig":
            down = chain_data(graph, comp.twig).transposed_bark
            for v in comp.twig:
                values[v] -= (1 - r) * down[v]
    return CoefficientVector(values)


# ---------------------------------------------------------------------------
# germ graphs


@dataclass(frozen=True)
class GermGraph:
    """A negative definite decorated graph (a resolution graph).

    Decorations are the contacts with the unseen non-exceptional part; the
    derived quantities k(E_j) = theta_j + 2g_j + w_j - 2 and
    u(E_j) = 2 - beta(E_j) - theta_j - 2g_j drive the coefficient function.
    """

    graph: DualGraph
    model: LogSurfaceModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the model checks negative definiteness when it is built
        try:
            model = LogSurfaceModel(self.graph, frozenset(self.graph.ids))
        except NotNegativeDefinite:
            raise NotNegativeDefinite("a resolution graph must be negative definite") from None
        object.__setattr__(self, "model", model)

    @_cached
    def coefficients(self) -> dict[str, Fraction]:
        return dict(self.model.coefficients)

    @_cached
    def contacts(self) -> dict[str, Fraction]:
        """theta_j of every decorated curve (theta_j > 0); shared, not to be
        changed."""
        return {v.id: v.decoration for v in self.graph.vertices if v.decoration > 0}

    def is_minimal(self) -> bool:
        return all(
            v.weight >= 2 or v.genus >= 1 for v in self.graph.vertices
        )


def germ_of(model: LogSurfaceModel, component: Iterable[str]) -> GermGraph:
    """The resolution germ of one singular point of a model: the contracted
    component with decorations recording the reduced contacts with the
    non-contracted boundary."""
    comp = set(component)
    if not comp <= model.contracted:
        raise NotNegativeDefinite("germ components must be contracted")
    graph = model.graph
    outside = [b for b in model.boundary_flagged]
    vs = []
    for v in graph.vertices:
        if v.id not in comp:
            continue
        contact = sum(graph.mult(v.id, b) for b in outside)
        vs.append(
            Vertex(v.id, v.weight, v.genus, v.decoration + contact, v.boundary)
        )
    es = tuple(e for e in graph.edges if e.a in comp and e.b in comp)
    return GermGraph(DualGraph(tuple(vs), es))


@dataclass(frozen=True)
class TotalCoefficient:
    value: Fraction
    witness: str
    # the largest exceptional coefficient as (numerator, positive
    # denominator), None with nothing contracted
    exceptional: Optional[tuple[int, int]] = field(repr=False, compare=False)
    model: LogSurfaceModel = field(repr=False, compare=False)

    @_cached
    def entries(self) -> dict[str, Fraction]:
        """The coefficients the maximum was taken over: the exceptional ones,
        then the boundary ones; built only when asked."""
        model = self.model
        entries = dict(model.coefficients)
        entries.update((b, model.coeff(b)) for b in model.boundary_support)
        return entries

    @_cached
    def may_underreport_at_eps0(self) -> bool:
        """Whether a blowup at a double point could exceed ``value`` at eps = 0.

        A blowup at a point on two components with coefficients c, c' yields
        a curve of coefficient c + c' - 1; at eps = 0 the reported maximum is
        not a certified supremum whenever some adjacent pair sums above 1,
        compared on the entries as integer pairs (n, d), d > 0."""
        model, coeffs = self.model, self.model._coeffs
        pairs = {b: (coeffs[b].numerator, coeffs[b].denominator) for b in model.boundary_support}
        for comp in model._blocks:
            den, nums = model._component_coefficients(comp)
            pairs.update((e, (n, den)) for e, n in nums.items())
        adjacency = model.graph.adjacency
        return any(w in pairs and n * pairs[w][1] + pairs[w][0] * d > d * pairs[w][1]
                   for u, (n, d) in pairs.items() for w in adjacency[u])


def _larger(best: Optional[tuple[int, int, str]], n: int, d: int, v: str) -> tuple[int, int, str]:
    """The larger of ``best`` and n/d at ``v`` (d > 0), compared by integer
    cross-multiplication; at a tie, the one with the lesser id."""
    if best is None:
        return n, d, v
    bn, bd, bv = best
    lhs, rhs = n * bd, bn * d
    return (n, d, v) if lhs > rhs or (lhs == rhs and v < bv) else best


def total_coefficient(model: LogSurfaceModel) -> TotalCoefficient:
    """Maximum of boundary coefficients and exceptional coefficients of the
    given resolution, with the least id that reaches it.  Exact for any
    positive epsilon; at epsilon = 0 the flag warns when a blowup at a double
    point could exceed the reported value.

    Each contracted component's largest coefficient is read off its integer
    answer and kept per component (``LogSurfaceModel._component_max``); the
    maxima and the boundary coefficients are compared as integer pairs, and
    one ``Fraction`` is built, for the value."""
    best = None
    for comp in model._blocks:
        best = _larger(best, *model._component_max(comp))
    exceptional = None if best is None else best[:2]
    coeffs = model._coeffs
    support = model.boundary_support
    if support and model.uniform_r is not None:  # all of it at r: the least id
        support = (min(support),)
    for b in support:
        c = coeffs[b]
        best = _larger(best, c.numerator, c.denominator, b)
    if best is None:
        return TotalCoefficient(ZERO, "", None, model)
    n, d, witness = best
    return TotalCoefficient(Fraction(n, d), witness, exceptional, model)
