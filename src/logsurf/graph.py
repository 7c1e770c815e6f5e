"""Weighted decorated dual graphs of curve configurations and log surface models.

A vertex stands for an irreducible curve E on a smooth projective surface;
its ``weight`` is -E^2, edges carry intersection numbers.  A model is such a
graph together with a set of already contracted vertices (the contracted
block must be negative definite), which represents a possibly singular
surface via its smooth model.  All intersection numbers on the singular
model are computed through the unique rational pullback that meets every
contracted curve trivially.

-Q restricted to the contracted block is block-diagonal over its connected
components (the singular points), so each component is factored once, and
the factorization is cached on its ``DualGraph``: a contraction refactors
only the component it changes.  ``DualGraph.factor`` walks the component
from its least id; a tree (every log terminal and rational point, chains
and forks, double contacts too) goes to ``linalg.factor_tree``, leaf-first
elimination in O(k) for k curves, and only a component with a cycle to the
dense pass ``linalg.factor_definite``, O(k^3).  Every solve, ``_solve_int``,
runs on one component from its cached factor with one integer right-hand
side (no inverse is built), by the solve of its factor's kind; both give
the same integer d x = adj(-Q) b, bit for bit.  Its answer is
integer numerators over d = det(-Q|component): a curve's pullback
correction, the K-correction, and the coefficients, the one rational
right-hand side (kept over d times the scale that clears it).  ``self_int``,
``k_pairing`` and ``lk_pairing`` add such integers over one denominator
(``_pair``); ``pullback`` sums the per-curve corrections and
``canonical_intersect`` sums ``k_pairing``.  A ``Fraction`` is built only
where a value leaves the model: those answers and the ``coefficients`` view.
The run layers read an answer's sign off its numerator.

The same holds one level up.  The questions a run asks of a curve l have
local answers: l^2 and l.K depend only on l and on the contracted components
l meets, l.(K + D) on those and on the uniform coefficient r; the
coefficients and the K-correction of a component depend on the component
(and r), and the support of D on r.  A key holds r as the integer pair
(numerator, denominator): a ``Fraction``'s hash costs a modular inverse.
All models of one graph share one table of answers on the ``DualGraph``
(``_memo``), keyed by that local state, so a question is computed once
however many models of the graph ask it.  The table lives and dies with its
graph; nothing is shared between graphs, and nothing in it holds a model
or a graph, so a graph no one refers to is freed at once.  The run layer
keeps its step answer there too, one ``("step", ...)`` entry per curve and
local state (``mmp._step``), and its whole runs as records of plain data
(``mmp._record``).  A component's largest coefficient, with the least id
that reaches it, is kept next to its coefficients (``_component_max``):
``invariants.total_coefficient`` reads it.  The component partition of a
contracted set, with each component's factor, is kept once per graph too,
and the model on that set reads its solves and its keys off it.  One
builder makes it, ``DualGraph._partition``: ``DualGraph.blocks`` has
nothing to keep, ``LogSurfaceModel.contract`` keeps the parent's components
that the new curves miss and factors only the rest.

A model derives the rest of its local state from its parent as well:
``contract`` copies the parent's component map (curve to contracted
component) and points only the members of the new components at them, and
each model builds the set of components a curve meets (``_met``, the local
state in every key) once per curve.  ``_derived`` makes such a model from a
given partition and component map, for ``contract`` and for the replay of a
kept run.  The views of a model are computed once each, by ``_cached``; a
graph's ``ids``, ``by_id``, ``adjacency`` and empty table are built by the
pass that validates it.  Shape answers are kept in the table too, so a germ
asks each once: ("chain", S) a tuple of ids, ("fork", S) a ``Fork`` of ids,
and ("half",) the match of ``classify.classify_half``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional, TypeVar

from .errors import (
    CoeffOutOfRange,
    DanglingEdge,
    DuplicateId,
    InvalidSite,
    NotNegativeDefinite,
    SelfLoop,
    UnknownVertex,
    ValidationError,
)
from .linalg import TreePlan, factor_definite, factor_tree, solve_factored, solve_tree

ZERO = Fraction(0)
ONE = Fraction(1)
_EXACT = (Fraction, int)  # the exact types of a vertex's rationals

# a connected vertex set in sorted order, d = det(-Q|set) and how to solve
# there: on a tree the plan of linalg.factor_tree, a tuple of lists of ints
# indexed like the order; on a set with a cycle the fraction-free LU factor of
# linalg.factor_definite, a list of rows.  Both solves give the integer d x.
Factor = tuple[tuple[str, ...], int, TreePlan | list[list[int]]]
# an answer on one contracted component: a positive integer denominator, d
# times the right-hand side's scale, and the integer numerator on each curve
Answer = tuple[int, dict[str, int]]
# the connected components of a contracted set, each with its Factor
Blocks = dict[frozenset[str], Factor]
_T = TypeVar("_T")
_MISSING = object()


class _cached(cached_property):
    """``functools.cached_property`` without its lock (Python 3.11 takes one
    on every first read): the first read computes the value and stores it in
    the instance ``__dict__``, which every later read finds first.  Every
    view it serves is a pure function of a frozen object, so two threads
    that race on a first read compute equal values, and either may stay."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def _check_types(
    owner: str,
    ids: Mapping[str, object],
    ints: Mapping[str, object],
    rationals: Mapping[str, object],
) -> None:
    # bool is a subclass of int, but true/false are not integers here; a
    # float would become its binary fraction, not the number meant
    for name, value in ids.items():
        if not isinstance(value, str):
            raise ValidationError(f"{owner}: {name} must be a string, got {value!r}")
    for name, value in ints.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{owner}: {name} must be an integer, got {value!r}")
    for name, value in rationals.items():
        if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
            raise ValidationError(f"{owner}: {name} must be an integer or a Fraction, got {value!r}")


def _as_rational(owner: str, name: str, value: object) -> Fraction:
    """``value`` as a Fraction, held to the check of a vertex's rationals: an
    int or a Fraction, never a bool, a float or a string."""
    if type(value) is Fraction:
        return value
    _check_types(owner, {}, {}, {name: value})
    return Fraction(value)


@dataclass(frozen=True)
class Vertex:
    """A curve: weight = -E^2, decoration = germ-mode contact with unseen
    boundary, boundary = coefficient of the curve in the boundary divisor."""

    id: str
    weight: int
    genus: int = 0
    decoration: Fraction = ZERO
    boundary: Fraction = ZERO

    def __post_init__(self) -> None:
        # exact types pass on one test each: a Fraction is kept, an int takes
        # Fraction's int path; any other type is checked, then rebuilt
        dec, bd = self.decoration, self.boundary
        if not (type(self.id) is str and type(self.weight) is int and type(self.genus) is int
                and type(dec) in _EXACT and type(bd) in _EXACT):
            _check_types(
                f"vertex {self.id!r}",
                {"id": self.id},
                {"weight": self.weight, "genus": self.genus},
                {"decoration": dec, "boundary": bd},
            )
        if type(dec) is not Fraction:
            object.__setattr__(self, "decoration", Fraction(dec))
        if type(bd) is not Fraction:
            object.__setattr__(self, "boundary", Fraction(bd))
        if not 0 <= self.boundary.numerator <= self.boundary.denominator:
            raise CoeffOutOfRange(f"boundary coefficient {self.boundary} of {self.id!r} not in [0,1]")
        if self.decoration.numerator < 0:
            raise CoeffOutOfRange(f"decoration {self.decoration} of {self.id!r} negative")
        if self.genus < 0:
            raise ValidationError(f"genus of {self.id!r} negative")


@dataclass(frozen=True)
class Edge:
    """Unordered pair of distinct vertices with a positive intersection number."""

    a: str
    b: str
    mult: int = 1

    def __post_init__(self) -> None:
        if not (type(self.a) is str and type(self.b) is str and type(self.mult) is int):
            _check_types(
                f"edge {self.a!r}-{self.b!r}", {"a": self.a, "b": self.b}, {"mult": self.mult}, {}
            )
        if self.a == self.b:
            raise SelfLoop(f"self-loop at {self.a!r} (snc model has none)")
        if self.mult < 1:
            raise ValidationError(f"edge {self.a}-{self.b} with multiplicity {self.mult}")
        if self.b < self.a:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.a, self.b)


@dataclass(frozen=True)
class DualGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        # one pass validates and builds the tables: a duplicate id before any
        # edge, then each edge in input order, dangling before doubled
        vertices, edges = tuple(self.vertices), tuple(self.edges)
        by_id: dict[str, Vertex] = {}
        adj: dict[str, dict[str, int]] = {}
        for v in vertices:
            if v.id in by_id:
                raise DuplicateId(f"duplicate vertex id {v.id!r}")
            by_id[v.id] = v
            adj[v.id] = {}
        for e in edges:
            a, b = e.a, e.b
            if a not in adj or b not in adj:
                raise DanglingEdge(f"edge {a}-{b} references an unknown vertex")
            row = adj[a]
            if b in row:
                raise ValidationError(f"two edges between {a!r} and {b!r}")
            row[b] = adj[b][a] = e.mult
        self.__dict__.update(vertices=vertices, edges=edges, ids=tuple(by_id), by_id=by_id,
                             adjacency=adj, _answers={})

    def vertex(self, vid: str) -> Vertex:
        try:
            return self.by_id[vid]
        except KeyError:
            raise UnknownVertex(f"no vertex {vid!r}") from None

    def mult(self, u: str, v: str) -> int:
        if u == v:
            return -self.vertex(u).weight
        # 0 for a pair that is not an edge, also where an id is unknown
        return self.adjacency.get(u, {}).get(v, 0)

    def pairing(self, A: Mapping[str, Fraction], B: Mapping[str, Fraction]) -> Fraction:
        """Raw bilinear intersection form on the smooth model."""
        total = ZERO
        for u, cu in A.items():
            if cu == 0:
                continue
            row = self.adjacency[u]
            for v, cv in B.items():
                if cv == 0:
                    continue
                total += cu * cv * (row.get(v, 0) if u != v else -self.vertex(u).weight)
        return total

    def k_dot(self, vid: str) -> int:
        """K . E by adjunction: 2g - 2 + weight."""
        v = self.vertex(vid)
        return 2 * v.genus - 2 + v.weight

    def neg_q(self, order: Iterable[str]) -> list[list[int]]:
        """-Q on the distinct vertex ids ``order``, rows and columns in that order."""
        ids = list(order)
        pos = {u: i for i, u in enumerate(ids)}
        if len(pos) != len(ids):
            raise ValidationError(f"neg_q: repeated vertex id in {ids}")
        rows = []
        for u in ids:
            row = [0] * len(ids)
            row[pos[u]] = self.vertex(u).weight
            for w, m in self.adjacency[u].items():
                if w in pos:
                    row[pos[w]] = -m
            rows.append(row)
        return rows

    def _memo(self, key: tuple, compute: Callable[[], _T]) -> _T:
        """The answer for ``key``, a tag and the local state that determines
        the answer; ``compute`` gives it the first time it is asked."""
        answers = self._answers
        value = answers.get(key, _MISSING)
        if value is _MISSING:
            value = answers[key] = compute()
        return value

    def factor(self, comp: frozenset[str]) -> Optional[Factor]:
        """The factorization of -Q on the connected vertex set ``comp``; None
        when -Q|comp is not positive definite.  Computed once per set, by the
        leaf-first kernel on a tree and by the dense pass on a set with a
        cycle."""

        def find() -> Optional[Factor]:
            order = tuple(sorted(comp))
            tree = self._rooted(order)
            f = factor_definite(self.neg_q(order)) if tree is None else factor_tree(*tree)
            return None if f is None else (order, *f)

        return self._memo(("factor", comp), find)

    def _rooted(self, order: tuple[str, ...]) -> Optional[tuple[list[int], ...]]:
        """The connected set ``order`` as a tree rooted at its first curve,
        by position: (walk, up, weights, multiplicities to the parent) for
        ``linalg.factor_tree``, the walk parents first; None when a curve is
        met twice, which closes a cycle."""
        k, adj, by_id = len(order), self.adjacency, self.by_id
        if k == 1:  # one curve, nothing to walk
            return [0], [-1], [by_id[order[0]].weight], [0]
        pos = {u: i for i, u in enumerate(order)}
        w, up, m, walk = [0] * k, [-1] * k, [0] * k, [0]
        for v in walk:
            w[v] = by_id[order[v]].weight
            for u, mu in adj[order[v]].items():
                c = pos.get(u)
                if c is None or c == up[v]:
                    continue
                if m[c] or not c:
                    return None
                up[c], m[c] = v, mu
                walk.append(c)
        return walk, up, w, m

    def _partition(self, S: frozenset[str], old: Blocks, new: Iterable[str]) -> Optional[Blocks]:
        """The components of S with their factors, from ``old``, those of S
        less the curves ``new``: keep the old ones no new curve meets, factor
        the rest (None if a part is not definite).  The one caller of ``factor``."""
        out = {}
        if old:
            near = {w for v in new for w in self.adjacency[v]}
            out = {comp: f for comp, f in old.items() if comp.isdisjoint(near)}
        for comp in self.connected_components(S.difference(*out)):
            f = out[comp] = self.factor(comp)
            if f is None:
                return None
        return out

    def blocks(self, S: frozenset[str]) -> Optional[Blocks]:
        """The factorization of each connected component of S (its singular
        points, when S is contracted); None when -Q|S is not positive
        definite.  Built once per set by ``_partition``, from nothing unless
        a contraction reached the set first; the dict is shared, not to be
        changed."""
        return self._memo(("blocks", S), lambda: self._partition(S, {}, ()))

    def connected_components(self, within: Iterable[str]) -> list[frozenset[str]]:
        pool = set(within)
        comps: list[frozenset[str]] = []
        while pool:
            seed = min(pool)
            comp = {seed}
            queue = [seed]
            while queue:
                u = queue.pop()
                for w in self.adjacency[u]:
                    if w in pool and w not in comp:
                        comp.add(w)
                        queue.append(w)
            pool -= comp
            comps.append(frozenset(comp))
        return sorted(comps, key=min)

    def without(self, removed: Iterable[str]) -> "DualGraph":
        gone = set(removed)
        return DualGraph(
            tuple(v for v in self.vertices if v.id not in gone),
            tuple(e for e in self.edges if e.a not in gone and e.b not in gone),
        )


def branching_number(graph: DualGraph, T: Iterable[str], D: Optional[Iterable[str]] = None) -> int:
    """T . (D - T), the total edge multiplicity leaving T inside D.

    D defaults to the whole vertex set.
    """
    tset = set(T)
    dset = set(D) if D is not None else set(graph.ids)
    for vid in tset | dset:
        graph.vertex(vid)
    total = 0
    for u in tset:
        for w, m in graph.adjacency[u].items():
            if w in dset and w not in tset:
                total += m
    return total


def is_negative_definite(graph: DualGraph, S: Iterable[str]) -> bool:
    """Sylvester's criterion on -Q restricted to S, one connected component
    at a time (-Q|S is block-diagonal over them)."""
    ids = frozenset(S)
    for vid in ids:
        graph.vertex(vid)
    return graph.blocks(ids) is not None


# ---------------------------------------------------------------------------
# shape detection


@dataclass(frozen=True)
class Fork:
    center: str
    twigs: tuple[tuple[str, ...], ...]  # each ordered tip-first


@dataclass(frozen=True)
class Bench:
    central_chain: tuple[str, ...]
    feet: tuple[str, ...]


@dataclass(frozen=True)
class ShapeReport:
    maximal_twigs: tuple[tuple[str, ...], ...]  # ordered, tip of D first; rods excluded
    rods: tuple[tuple[str, ...], ...]
    forks: tuple[Fork, ...]
    benches: tuple[Bench, ...]
    circular: tuple[frozenset[str], ...]


def _walk(
    graph: DualGraph, start: str, prev: Optional[str], within: set[str] | frozenset[str]
) -> Iterator[str]:
    """Yield the path leaving ``start`` away from ``prev`` inside ``within``
    (``start`` itself not included): each step goes to the single remaining
    neighbour in ``within``, and only when it is met in one point.  ``prev``
    must lie outside ``within`` (or be None), so the walk cannot circle."""
    cur = start
    while True:
        nxts = [w for w in graph.adjacency[cur] if w in within and w != prev]
        if len(nxts) != 1 or graph.adjacency[cur][nxts[0]] != 1:
            return
        prev, cur = cur, nxts[0]
        yield cur


def _chain_order(graph: DualGraph, comp: frozenset[str]) -> Optional[tuple[str, ...]]:
    """Order a connected vertex set as a chain, from its smaller end; None
    when not a chain.  Kept in the graph's table under ("chain", comp)."""
    return graph._memo(("chain", comp), lambda: _find_chain(graph, comp))


def _find_chain(graph: DualGraph, comp: frozenset[str]) -> Optional[tuple[str, ...]]:
    ends = sorted(
        v for v in comp if sum(m for w, m in graph.adjacency[v].items() if w in comp) <= 1
    )
    if not ends:
        return None
    order = (ends[0], *_walk(graph, ends[0], None, comp))
    return order if len(order) == len(comp) else None


def _branching_numbers(graph: DualGraph, D: Iterable[str]) -> dict[str, int]:
    """beta_D(v) = v.(D - v) of every curve v of D, in one pass over the
    adjacency; UnknownVertex for an id of D that is not in the graph."""
    dset = set(D)
    for v in dset:
        graph.vertex(v)
    return {v: sum(m for w, m in graph.adjacency[v].items() if w in dset) for v in dset}


def _maximal_twigs(graph: DualGraph, D: Iterable[str]) -> dict[str, tuple[str, ...]]:
    """The maximal twigs of D by their tips, in the order of the tips.

    A tip of D is a curve of D that meets the rest of D at most once
    (beta_D <= 1).  The maximal twig from a tip is the chain walked from it
    inside D, cut before the first curve with beta_D > 2.  A tip whose walk
    ends at a second tip spans a whole component of D, a rod, and has no
    twig; a component that is all cycles has no tip, so no twig starts in one.
    """
    dset = set(D)
    beta = _branching_numbers(graph, dset)
    twigs = {}
    for tip in sorted(v for v in dset if beta[v] <= 1):
        walk = (tip, *_walk(graph, tip, None, dset))
        if beta[walk[-1]] > 1:
            twigs[tip] = (tip, *itertools.takewhile(lambda v: beta[v] <= 2, walk[1:]))
    return twigs


def find_shapes(graph: DualGraph, D: Iterable[str]) -> ShapeReport:
    """Shape taxonomy of the reduced subdivisor spanned by D: its maximal
    twigs, the components of D that are rods, forks or benches, and its
    circular subgraphs."""
    dset = set(D)
    twigs = _maximal_twigs(graph, dset)
    rods: list[tuple[str, ...]] = []
    forks: list[Fork] = []
    benches: list[Bench] = []
    for comp in graph.connected_components(dset):
        order = _chain_order(graph, comp)
        if order is not None:
            rods.append(order)
            continue
        fk = _as_fork(graph, comp)
        if fk is not None:
            forks.append(fk)
        bench = _as_bench(graph, comp)
        if bench is not None:
            benches.append(bench)
    # circular subgraphs: strip vertices of internal degree <= 1 repeatedly;
    # whatever survives is a union of cycles (possibly deep inside a component)
    core = set(dset)
    while True:
        drop = {v for v in core if sum(m for w, m in graph.adjacency[v].items() if w in core) <= 1}
        if not drop:
            break
        core -= drop
    return ShapeReport(
        maximal_twigs=tuple(twigs.values()),
        rods=tuple(rods),
        forks=tuple(forks),
        benches=tuple(benches),
        circular=tuple(graph.connected_components(core)),
    )


def _as_fork(graph: DualGraph, comp: frozenset[str]) -> Optional[Fork]:
    """Read a vertex set as a fork: one branch vertex met once by each of
    three disjoint chains that make up the rest of the set.  Kept in the
    graph's table under ("fork", comp)."""
    return graph._memo(("fork", comp), lambda: _find_fork(graph, comp))


def _find_fork(graph: DualGraph, comp: frozenset[str]) -> Optional[Fork]:
    deg = {v: sum(m for w, m in graph.adjacency[v].items() if w in comp) for v in comp}
    branch = [v for v in comp if deg[v] >= 3]
    if len(branch) != 1:
        return None
    center = branch[0]
    starts = sorted(w for w in graph.adjacency[center] if w in comp)
    # three neighbours and degree 3: the center is met once by each arm
    if deg[center] != 3 or len(starts) != 3:
        return None
    rest = comp - {center}
    twigs = tuple(tuple(reversed((s, *_walk(graph, s, center, rest)))) for s in starts)
    if sum(len(t) for t in twigs) + 1 != len(comp):
        return None
    return Fork(center=center, twigs=twigs)


def _as_bench(graph: DualGraph, comp: frozenset[str]) -> Optional[Bench]:
    """Read a connected vertex set as a bench: a central chain with two
    (-2)-feet at each end (all four at a lone curve), each met once."""
    leaves = sorted(v for v in comp if sum(m for w, m in graph.adjacency[v].items() if w in comp) == 1)
    if len(leaves) != 4:
        return None
    if any(graph.vertex(v).weight != 2 or graph.vertex(v).genus != 0 for v in leaves):
        return None
    core = comp - set(leaves)
    if not core:
        return None
    order = _chain_order(graph, frozenset(core))
    if order is None:
        return None
    attach: dict[str, int] = {v: 0 for v in core}
    for leaf in leaves:
        ns = [w for w in graph.adjacency[leaf] if w in core]
        if len(ns) != 1 or graph.adjacency[leaf][ns[0]] != 1:
            return None
        attach[ns[0]] += 1
    if len(order) == 1:
        ok = attach[order[0]] == 4
    else:
        ok = attach[order[0]] == 2 and attach[order[-1]] == 2 and all(
            attach[v] == 0 for v in order[1:-1]
        )
    if not ok:
        return None
    return Bench(central_chain=order, feet=tuple(leaves))


# ---------------------------------------------------------------------------
# blowups


def blow_up(graph: DualGraph, site: tuple, new_id: Optional[str] = None) -> DualGraph:
    """Blow up a free point ("free", v) or an intersection point ("edge", u, v).

    The new (-1)-vertex absorbs one intersection point; incident weights grow
    by one per incidence.
    """
    if new_id is None:
        k = 1
        existing = set(graph.ids)
        while f"x{k}" in existing:
            k += 1
        new_id = f"x{k}"
    if new_id in graph.by_id:
        raise InvalidSite(f"vertex id {new_id!r} already used")
    if not site or site[0] not in ("free", "edge"):
        raise InvalidSite(f"bad site {site!r}")
    if site[0] == "free":
        _, v = site
        graph.vertex(v)
        verts = [
            replace(w, weight=w.weight + 1) if w.id == v else w for w in graph.vertices
        ]
        verts.append(Vertex(new_id, 1))
        return DualGraph(tuple(verts), (*graph.edges, Edge(v, new_id)))
    _, u, v = site
    if graph.mult(u, v) < 1 or u == v:
        raise InvalidSite(f"no intersection point of {u!r} and {v!r}")
    verts = [
        replace(w, weight=w.weight + 1) if w.id in (u, v) else w
        for w in graph.vertices
    ]
    verts.append(Vertex(new_id, 1))
    edges = []
    for e in graph.edges:
        if e.pair == tuple(sorted((u, v))):
            if e.mult > 1:
                edges.append(Edge(e.a, e.b, e.mult - 1))
        else:
            edges.append(e)
    edges.extend([Edge(u, new_id), Edge(v, new_id)])
    return DualGraph(tuple(verts), tuple(edges))


def blow_down(graph: DualGraph, vid: str) -> DualGraph:
    """Contract a numeric (-1)-vertex; neighbours gain weight/genus accordingly."""
    v = graph.vertex(vid)
    if v.weight != 1 or v.genus != 0:
        raise InvalidSite(f"{vid!r} is not a (-1)-vertex")
    nbrs = [(w, m) for w, m in graph.adjacency[vid].items()]
    verts = []
    for w in graph.vertices:
        if w.id == vid:
            continue
        m = graph.adjacency[vid].get(w.id, 0)
        if m:
            verts.append(
                replace(w, weight=w.weight - m * m, genus=w.genus + m * (m - 1) // 2)
            )
        else:
            verts.append(w)
    new_mult: dict[tuple[str, str], int] = {}
    for e in graph.edges:
        if vid in e.pair:
            continue
        new_mult[e.pair] = e.mult
    for (a, ma), (b, mb) in itertools.combinations(nbrs, 2):
        key = tuple(sorted((a, b)))
        new_mult[key] = new_mult.get(key, 0) + ma * mb
    return DualGraph(tuple(verts), tuple(Edge(a, b, m) for (a, b), m in sorted(new_mult.items())))


def contracts_to_smooth_point(graph: DualGraph, S: Iterable[str]) -> bool:
    """Whether the support S blows down entirely through (-1)-contractions.
    A blow-down changes only the curves that meet the blown-down one, so the
    curves of S alone decide: the blow-downs run on the subgraph S spans."""
    sset = set(S)
    if not sset:
        return True
    g = graph.without(v for v in graph.ids if v not in sset)
    while sset:
        cand = [v for v in sorted(sset) if g.vertex(v).weight == 1 and g.vertex(v).genus == 0]
        if not cand:
            return False
        g = blow_down(g, cand[0])
        sset.remove(cand[0])
    return True


# ---------------------------------------------------------------------------
# log surface models


def _coeff(v: Vertex, r: Optional[Fraction]) -> Fraction:
    """The boundary coefficient of ``v`` under the uniform coefficient ``r``."""
    return r if r is not None and v.boundary > 0 else v.boundary


def _r_pair(r: Optional[Fraction]) -> Optional[tuple[int, int]]:
    """``r`` as it enters a table key: its integer pair, or None."""
    return None if r is None else (r.numerator, r.denominator)


def _add(num: int, den: int, n: int, d: int) -> tuple[int, int]:
    """num/den + n/d over a positive denominator, as an integer pair; the
    denominator stays when d is it."""
    return (num + n, den) if d == den else (num * d + n * den, den * d)


def _solve_int(block: Factor, b: list[int]) -> Answer:
    """(d, d x) on one component with (-Q) x = b there, for the integer
    right-hand side b in the component's order."""
    order, d, f = block
    if any(b):
        b = solve_tree(d, f, b) if type(f) is tuple else solve_factored(d, f, b)
    return d, dict(zip(order, b))


@dataclass(frozen=True)
class LogSurfaceModel:
    """A dual graph plus a contracted vertex set and a boundary.

    The boundary coefficient of a vertex is ``uniform_r`` when that vertex is
    flagged (``boundary > 0``) and ``uniform_r`` is set, else the vertex's own
    ``boundary`` field.
    """

    graph: DualGraph
    contracted: frozenset[str] = frozenset()
    uniform_r: Optional[Fraction] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "contracted", frozenset(self.contracted))
        r = self.uniform_r
        if r is not None:
            if type(r) is not Fraction:
                r = _as_rational("model", "uniform_r", r)
                object.__setattr__(self, "uniform_r", r)
            if not 0 <= r.numerator <= r.denominator:
                raise CoeffOutOfRange(f"uniform coefficient {r} not in [0,1]")
        object.__setattr__(self, "_r_key", _r_pair(r))
        # is_negative_definite rejects an unknown id before anything else
        if not is_negative_definite(self.graph, self.contracted):
            raise NotNegativeDefinite(
                f"contracted set {sorted(self.contracted)} is not negative definite"
            )
        # the component partition the check just found on the graph: the
        # solves and the local-state keys below read it
        object.__setattr__(self, "_blocks", self.graph.blocks(self.contracted))

    # -- basic views ------------------------------------------------------

    @_cached
    def contracted_order(self) -> tuple[str, ...]:
        return tuple(sorted(self.contracted))

    @_cached
    def _coeffs(self) -> dict[str, Fraction]:
        """The boundary coefficient of every curve, shared by the models of
        the graph with this r; not to be changed."""
        r = self.uniform_r
        return self.graph._memo(
            ("coeffs", self._r_key), lambda: {v.id: _coeff(v, r) for v in self.graph.vertices}
        )

    def coeff(self, vid: str) -> Fraction:
        self.graph.vertex(vid)
        return self._coeffs[vid]

    def _positive(self, r: Optional[Fraction]) -> tuple[str, ...]:
        """Vertices outside the contracted set with a positive coefficient
        under ``r``, in vertex order."""
        positive = self.graph._memo(
            ("support", _r_pair(r)),
            lambda: tuple(v.id for v in self.graph.vertices if _coeff(v, r) > 0),
        )
        return tuple(v for v in positive if v not in self.contracted)

    @_cached
    def boundary_support(self) -> tuple[str, ...]:
        return self._positive(self.uniform_r)

    @_cached
    def boundary_flagged(self) -> tuple[str, ...]:
        """Vertices flagged as boundary (support of the reduced divisor D),
        regardless of the current coefficient value."""
        # with no uniform r overriding it, the field itself is the coefficient
        return self._positive(None)

    @_cached
    def r(self) -> Optional[Fraction]:
        if self.uniform_r is not None:
            return self.uniform_r
        coeffs = {self.coeff(v) for v in self.boundary_flagged}
        if len(coeffs) == 1:
            return coeffs.pop()
        return None

    def noncontracted(self) -> tuple[str, ...]:
        return tuple(v for v in self.graph.ids if v not in self.contracted)

    def contract(self, *vids: str) -> "LogSurfaceModel":
        """This model with ``vids`` contracted as well, its partition derived
        from this one's by ``DualGraph._partition`` under the key of
        ``blocks``: a set reached before, in any order, is a hit.  Only the
        new ids are checked, the rest was on this model."""
        graph = self.graph
        for vid in vids:
            graph.vertex(vid)
            if vid in self.contracted:
                raise UnknownVertex(f"{vid!r} is already contracted")
        contracted = self.contracted.union(vids)
        blocks = graph._memo(("blocks", contracted),
                             lambda: graph._partition(contracted, self._blocks, vids))
        if blocks is None:
            raise NotNegativeDefinite(f"contracted set {sorted(contracted)} is not negative definite")
        # the parent's component map, with the members of each new component
        # (a merge of old ones and the new curves) pointed at it
        comp_of = self._component_of.copy()
        old = self._blocks
        for comp in blocks:
            if comp not in old:
                comp_of.update(dict.fromkeys(comp, comp))
        return self._derived(contracted, blocks, comp_of)

    def _derived(self, contracted: frozenset[str], blocks: Blocks,
                 comp_of: dict[str, frozenset[str]]) -> "LogSurfaceModel":
        """The model of this graph and r on ``contracted``, given its
        partition and component map, neither checked nor copied: the one
        place a model is made without the constructor, for ``contract`` and
        for the replay of a run the graph's table keeps (``mmp._replay``)."""
        child = object.__new__(LogSurfaceModel)
        child.__dict__.update(
            graph=self.graph, contracted=contracted, uniform_r=self.uniform_r,
            _r_key=self._r_key, _coeffs=self._coeffs, _blocks=blocks, _component_of=comp_of,
            _mets={},
        )
        return child

    # -- exact intersection theory on the contracted model ----------------

    @_cached
    def _component_of(self) -> dict[str, frozenset[str]]:
        return {v: comp for comp in self._blocks for v in comp}

    @_cached
    def _mets(self) -> dict[str, frozenset[frozenset[str]]]:
        return {}

    def _met(self, vid: str) -> frozenset[frozenset[str]]:
        """The contracted components that the curve ``vid`` meets, built once
        per curve on this model: it is the local state in every key below."""
        met = self._mets.get(vid)
        if met is None:
            comp_of = self._component_of
            met = self._mets[vid] = frozenset(
                comp_of[w] for w in self.graph.adjacency[vid] if w in comp_of)
        return met

    def _component_pullback(self, vid: str, comp: frozenset[str]) -> Answer:
        """The pullback correction of the curve ``vid`` on one contracted
        component: (-Q) x = c there, c the contact vector of ``vid`` with it."""
        block = self._blocks[comp]
        row = self.graph.adjacency[vid]
        return _solve_int(block, [row.get(e, 0) for e in block[0]])

    def _pair(
        self, vid: str, num: int, den: int, answer: Callable[[frozenset[str]], Answer]
    ) -> Fraction:
        """num/den plus m x_w for each contracted neighbour w of ``vid``, met
        m times, x the per-component ``answer``: integers over one
        denominator, then one Fraction."""
        comp_of = self._component_of
        for w, m in self.graph.adjacency[vid].items():
            comp = comp_of.get(w)
            if comp is not None:
                d, x = answer(comp)
                num, den = _add(num, den, m * x[w], d)
        return Fraction(num, den)

    def pullback(self, A: Mapping[str, Fraction]) -> dict[str, Fraction]:
        """Mumford pullback: A plus the correction supported on the contracted
        set that kills all intersections with contracted curves, the sum of
        the per-curve corrections."""
        for u in A:
            self.graph.vertex(u)
            if u in self.contracted:
                raise UnknownVertex(f"{u!r} is contracted; pull back its image instead")
        out = {u: Fraction(c) for u, c in A.items() if c != 0}
        corr: dict[str, Fraction] = {}
        for u, c in out.items():
            for comp in self._met(u):
                d, x = self._component_pullback(u, comp)
                for e, n in x.items():
                    corr[e] = corr.get(e, ZERO) + c * n / d
        for e in sorted(corr):
            if corr[e] != 0:
                out[e] = corr[e]
        return out

    def intersect(self, A: Mapping[str, Fraction], B: Mapping[str, Fraction]) -> Fraction:
        """Intersection of the images of A and B on the contracted model."""
        return self.graph.pairing(self.pullback(A), B)

    def self_int(self, vid: str) -> Fraction:
        """image(v)^2 on the contracted model."""
        self.graph.vertex(vid)
        if vid in self.contracted:
            raise UnknownVertex(f"{vid!r} is contracted; pull back its image instead")
        return self._self_int(vid, self._met(vid))

    def _self_int(self, vid: str, met: frozenset[frozenset[str]]) -> Fraction:
        """``self_int`` of a known curve outside the contracted set that
        meets the components ``met``."""

        def square() -> Fraction:
            # -w + c.x, c the contact vector of v and x its pullback
            # correction, solved once on each met component
            corrections = {comp: self._component_pullback(vid, comp) for comp in met}
            return self._pair(vid, -self.graph.by_id[vid].weight, 1, corrections.__getitem__)

        return self.graph._memo(("self_int", vid, met), square)

    def _component_k_correction(self, comp: frozenset[str]) -> Answer:
        # pullback of the image of K on one component: K + sum u_i E_i with
        # (K + sum)/E_j = 0, i.e. sum_i u_i (-E_i.E_j) = K.E_j
        def solve() -> Answer:
            block = self._blocks[comp]
            return _solve_int(block, [self.graph.k_dot(e) for e in block[0]])

        return self.graph._memo(("k_correction", comp), solve)

    def canonical_intersect(self, A: Mapping[str, Fraction]) -> Fraction:
        """A . K on the contracted model (K from adjunction plus Mumford
        correction on the contracted block): sum of c k_pairing(u)."""
        return sum((c * self.k_pairing(u) for u, c in A.items()), ZERO)

    def k_pairing(self, vid: str) -> Fraction:
        """image(v) . K on the contracted model: K.v plus m u_w for each
        contracted neighbour w, u the K-correction of its component."""
        if vid in self.contracted:
            raise UnknownVertex(f"{vid!r} is contracted")
        self.graph.vertex(vid)
        return self._k_pairing(vid, self._met(vid))

    def _k_pairing(self, vid: str, met: frozenset[frozenset[str]]) -> Fraction:
        """``k_pairing`` of a known curve outside the contracted set that
        meets the components ``met``."""
        graph = self.graph
        return graph._memo(
            ("k_pairing", vid, met),
            lambda: self._pair(vid, graph.k_dot(vid), 1, self._component_k_correction),
        )

    @_cached
    def boundary_divisor(self) -> dict[str, Fraction]:
        return {v: self.coeff(v) for v in self.boundary_support}

    def _component_coefficients(self, comp: frozenset[str]) -> Answer:
        """cf on one component: sum_i cf_i (-E_i.E_j) = K.E_j + theta_j + B.E_j
        for E_j in it.  Only curves outside the contracted set meet it from
        outside, so B.E_j reads their coefficients."""

        def solve() -> Answer:
            graph, coeffs = self.graph, self._coeffs
            block = self._blocks[comp]
            # the right-hand side term by term as integer pairs, then over
            # the one scale that clears their denominators
            terms = []
            for e in block[0]:
                theta = graph.by_id[e].decoration
                t = [(graph.k_dot(e), 1), (theta.numerator, theta.denominator)]
                for w, m in graph.adjacency[e].items():
                    c = coeffs[w]
                    if c and w not in comp:
                        t.append((m * c.numerator, c.denominator))
                terms.append(t)
            scale = lcm(*(q for t in terms for _, q in t))
            d, x = _solve_int(block, [sum(n * (scale // q) for n, q in t) for t in terms])
            return d * scale, x

        return self.graph._memo(("coefficients", comp, self._r_key), solve)

    def _component_max(self, comp: frozenset[str]) -> tuple[int, int, str]:
        """The largest coefficient on one contracted component as (n, d, E):
        n/d over the positive denominator of its answer, E the least id
        that reaches it.  Read off the integer answer, kept per component."""

        def find() -> tuple[int, int, str]:
            den, nums = self._component_coefficients(comp)
            top = max(nums.values())
            return top, den, min(e for e, n in nums.items() if n == top)

        return self.graph._memo(("cf_max", comp, self._r_key), find)

    @_cached
    def coefficients(self) -> dict[str, Fraction]:
        """cf(E; current model) for every contracted vertex E: the unique
        solution of sum_i cf_i (-E_i.E_j) = K.E_j + theta_j + B.E_j, in
        ``contracted_order``."""
        out: dict[str, Fraction] = {}
        for comp in self._blocks:
            den, nums = self._component_coefficients(comp)
            for e, n in nums.items():
                out[e] = Fraction(n, den)
        return {e: out[e] for e in self.contracted_order}

    def lk_pairing(self, vid: str) -> Fraction:
        """image(v) . (K + D) on the contracted model.  Decorations count as
        reduced boundary contact."""
        if vid in self.contracted:
            raise UnknownVertex(f"{vid!r} is contracted")
        self.graph.vertex(vid)
        return self._lk_pairing(vid, self._met(vid))

    def _lk_pairing(self, vid: str, met: frozenset[frozenset[str]]) -> Fraction:
        """``lk_pairing`` of a known curve outside the contracted set that
        meets the components ``met``."""
        graph = self.graph

        def pairing() -> Fraction:
            # K.v + theta_v + D.v: the coefficient of v and of each neighbour
            # outside the contracted set, then cf of each contracted neighbour
            coeffs, contracted = self._coeffs, self.contracted
            v = graph.by_id[vid]
            theta = v.decoration
            q = theta.denominator
            num, den = graph.k_dot(vid) * q + theta.numerator, q
            for w, m in ((vid, -v.weight), *graph.adjacency[vid].items()):
                c = coeffs[w]
                if c and w not in contracted:
                    num, den = _add(num, den, m * c.numerator, c.denominator)
            return self._pair(vid, num, den, self._component_coefficients)

        return graph._memo(("lk_pairing", vid, met, self._r_key), pairing)
