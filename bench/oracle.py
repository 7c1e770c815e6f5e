"""Exact oracle for the benchmark checks.

Plain ``Fraction`` Gaussian elimination and the intersection theory of a
weighted dual graph with a contracted set, written from the definitions and
independent of ``logsurf``: nothing here imports the package.  A surface is
described by plain data (weights, genera, decorations, boundary coefficients,
edge multiplicities), so the same oracle checks library calls, CLI reports and
generated inputs alike.

Two eliminations: a dense one with row swaps for determinants and general
systems (whole graphs can be indefinite, with zero diagonal entries), and a
sparse symmetric one for the negative definite blocks of a contracted set,
where it also decides definiteness.

Conventions match the package documentation: a vertex's ``weight`` is -E^2,
K.E = 2g - 2 + weight, and the coefficient vector cf of the contracted curves
solves  sum_i cf_i (-E_i.E_j) = K.E_j + theta_j + B.E_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

ZERO = Fraction(0)


def _eliminate(m: Sequence[Sequence[int]], cols: Sequence[Sequence[Fraction]]):
    """Gauss-Jordan on [m | cols]; returns (det, solutions or None)."""
    n = len(m)
    a = [[Fraction(x) for x in m[i]] + [Fraction(c[i]) for c in cols] for i in range(n)]
    width = n + len(cols)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return ZERO, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        p = a[k][k]
        det *= p
        rowk = a[k]
        for j in range(k, width):
            rowk[j] /= p
        support = [j for j in range(k, width) if rowk[j]]
        for i in range(n):
            if i == k or a[i][k] == 0:
                continue
            f = a[i][k]
            rowi = a[i]
            for j in support:
                rowi[j] -= f * rowk[j]
    return det, [[a[i][n + c] for i in range(n)] for c in range(len(cols))]


def det(m: Sequence[Sequence[int]]) -> Fraction:
    """Determinant of a square matrix; det of the empty matrix is 1."""
    return _eliminate(m, [])[0]


def solve(m: Sequence[Sequence[int]], *cols: Sequence[Fraction]) -> list[list[Fraction]]:
    """Solutions x of m x = c for each right-hand side c; ValueError if singular."""
    d, xs = _eliminate(m, cols)
    if xs is None:
        raise ValueError("singular matrix")
    return xs


def _spd(m: Sequence[Sequence[int]], cols: Sequence[Sequence[Fraction]]):
    """Symmetric Gaussian elimination of a symmetric m with right-hand sides;
    None unless m is positive definite, else the solutions.

    m is positive definite iff symmetric elimination, in any pivot order,
    meets only positive pivots (the LDL^T criterion).  Rows with the fewest
    entries go first, so a tree eliminates without fill-in.
    """
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in m]
    rhs = [[Fraction(c[i]) for c in cols] for i in range(len(m))]
    left = set(range(len(m)))
    order = []
    while left:
        k = min(left, key=lambda i: (len(rows[i]), i))
        left.discard(k)
        order.append(k)
        rk, bk = rows[k], rhs[k]
        p = rk.get(k, ZERO)
        if p <= 0:
            return None
        for i in rk:
            if i == k:
                continue
            ri = rows[i]
            f = ri.pop(k) / p
            for j, v in rk.items():
                if j == k:
                    continue
                nv = ri.get(j, ZERO) - f * v
                if nv:
                    ri[j] = nv
                else:
                    ri.pop(j, None)
            rhs[i] = [b - f * c for b, c in zip(rhs[i], bk)]
    x: list[list[Fraction]] = [[]] * len(m)
    for k in reversed(order):
        acc = rhs[k]
        for j, v in rows[k].items():
            if j != k:
                acc = [a - v * xj for a, xj in zip(acc, x[j])]
        x[k] = [a / rows[k][k] for a in acc]
    return [[x[i][c] for i in range(len(m))] for c in range(len(cols))]


def is_positive_definite(m: Sequence[Sequence[int]]) -> bool:
    return _spd(m, []) is not None


def solve_positive_definite(m: Sequence[Sequence[int]], *cols: Sequence[Fraction]) -> list[list[Fraction]]:
    """Solutions x of m x = c for a symmetric positive definite m."""
    xs = _spd(m, cols)
    if xs is None:
        raise ValueError("matrix is not positive definite")
    return xs


@dataclass
class Surface:
    """A weighted dual graph with a contracted set and a boundary.

    ``flagged`` vertices carry the reduced boundary D; their coefficient is
    ``r`` when it is set, else their own ``boundary`` value.
    """

    weight: dict[str, int]
    genus: dict[str, int] = field(default_factory=dict)
    decoration: dict[str, Fraction] = field(default_factory=dict)
    boundary: dict[str, Fraction] = field(default_factory=dict)
    mult: dict[frozenset, int] = field(default_factory=dict)
    contracted: frozenset = frozenset()
    r: Optional[Fraction] = None

    def __post_init__(self) -> None:
        self.nbrs: dict[str, dict[str, int]] = {v: {} for v in self.weight}
        for pair, m in self.mult.items():
            a, b = sorted(pair)
            self.nbrs[a][b] = m
            self.nbrs[b][a] = m

    @classmethod
    def from_document(cls, doc: Mapping, r: Optional[Fraction] = None) -> "Surface":
        """Read a graph document (the package's JSON format); ``r`` overrides
        the document's own ``uniform_r`` as the CLI's ``--r`` does."""
        weight, genus, dec, bdry, mult = {}, {}, {}, {}, {}
        for v in doc["vertices"]:
            vid = v["id"]
            weight[vid] = v["weight"]
            genus[vid] = v.get("genus", 0)
            dec[vid] = Fraction(str(v.get("decoration", 0)))
            bdry[vid] = Fraction(str(v.get("boundary", 0)))
        for e in doc.get("edges", []):
            mult[frozenset((e["a"], e["b"]))] = e.get("m", 1)
        if r is None and doc.get("uniform_r") is not None:
            r = Fraction(doc["uniform_r"])
        return cls(weight, genus, dec, bdry, mult, frozenset(doc.get("contracted", [])), r)

    def with_contracted(self, contracted: Iterable[str]) -> "Surface":
        return Surface(self.weight, self.genus, self.decoration, self.boundary,
                       self.mult, frozenset(contracted), self.r)

    def without_boundary(self) -> "Surface":
        """The same graph and contracted set with no boundary and no
        decorations, so that pairings are with K alone."""
        return Surface(self.weight, self.genus, {}, {}, self.mult, self.contracted, None)

    # -- plain graph data ---------------------------------------------------

    def m(self, u: str, v: str) -> int:
        """Intersection number E_u.E_v on the smooth model."""
        if u == v:
            return -self.weight[u]
        return self.nbrs[u].get(v, 0)

    def k_dot(self, v: str) -> int:
        return 2 * self.genus.get(v, 0) - 2 + self.weight[v]

    def flagged(self, v: str) -> bool:
        return self.boundary.get(v, ZERO) > 0

    def coeff(self, v: str) -> Fraction:
        if self.r is not None and self.flagged(v):
            return self.r
        return self.boundary.get(v, ZERO)

    def neg_q(self, ids: Sequence[str]) -> list[list[int]]:
        return [[-self.m(u, v) for v in ids] for u in ids]

    def components(self, within: Iterable[str]) -> list[list[str]]:
        pool, out = set(within), []
        while pool:
            stack = [min(pool)]
            comp = {stack[0]}
            while stack:
                for w in self.nbrs[stack.pop()]:
                    if w in pool and w not in comp:
                        comp.add(w)
                        stack.append(w)
            pool -= comp
            out.append(sorted(comp))
        return out

    def is_tree(self) -> bool:
        edges = sum(self.mult.values())
        return edges == len(self.weight) - len(self.components(self.weight))

    # -- the contracted model -----------------------------------------------

    def discriminant(self, ids: Iterable[str]) -> int:
        d = det(self.neg_q(sorted(set(ids))))
        if d.denominator != 1:
            raise ValueError(f"non-integral determinant {d} of an integer matrix")
        return int(d)

    def negative_definite(self, ids: Optional[Iterable[str]] = None) -> bool:
        ids = self.contracted if ids is None else ids
        return all(is_positive_definite(self.neg_q(c)) for c in self.components(ids))

    def _solve_blocks(self, *rhs: Mapping[str, Fraction]) -> list[dict[str, Fraction]]:
        """Solve -Q|S x = rhs over the contracted set S, one connected
        component of S (one block of the matrix) at a time."""
        out: list[dict[str, Fraction]] = [{} for _ in rhs]
        for comp in self.components(self.contracted):
            cols = [[b.get(e, ZERO) for e in comp] for b in rhs]
            if not any(any(c) for c in cols):
                for o in out:
                    o.update(dict.fromkeys(comp, ZERO))
                continue
            for o, x in zip(out, solve_positive_definite(self.neg_q(comp), *cols)):
                o.update(zip(comp, x))
        return out

    def coefficients(self, theta_scale: Fraction = Fraction(1)) -> dict[str, Fraction]:
        """cf of every contracted curve; decorations count ``theta_scale`` times."""
        rhs = {}
        for e in self.contracted:
            val = Fraction(self.k_dot(e)) + theta_scale * self.decoration.get(e, ZERO)
            for b in self.nbrs[e]:
                if b not in self.contracted:
                    val += self.coeff(b) * self.m(b, e)
            rhs[e] = val
        return self._solve_blocks(rhs)[0]

    def verdicts(self, vids: Iterable[str]) -> dict[str, tuple[Fraction, Fraction]]:
        """(self-intersection, (K+D)-pairing) of the images of non-contracted curves."""
        vids = list(vids)
        cf = self.coefficients()
        contacts = self._solve_blocks(
            *({e: Fraction(self.m(v, e)) for e in self.nbrs[v] if e in self.contracted}
              for v in vids)
        ) if vids else []
        out = {}
        for v, x in zip(vids, contacts):
            s = Fraction(self.m(v, v)) + sum(
                (c * self.m(v, e) for e, c in x.items()), ZERO)
            p = Fraction(self.k_dot(v)) + self.decoration.get(v, ZERO)
            for b, mb in list(self.nbrs[v].items()) + [(v, self.m(v, v))]:
                if b in self.contracted:
                    p += cf[b] * mb
                else:
                    p += self.coeff(b) * mb
            out[v] = (s, p)
        return out

    def noncontracted(self) -> list[str]:
        return sorted(v for v in self.weight if v not in self.contracted)

    def log_exceptional(self, kind: str) -> list[str]:
        """Non-contracted curves whose image is log exceptional of an allowed
        kind: C^2 < 0 and C.(K+D) < 0, or <= 0 for the second kind."""
        out = []
        for v, (s, p) in self.verdicts(self.noncontracted()).items():
            if s < 0 and (p < 0 or (kind == "second" and p == 0)):
                out.append(v)
        return out

    def total_coefficient(self) -> Fraction:
        vals = list(self.coefficients().values())
        vals += [self.coeff(v) for v in self.weight
                 if v not in self.contracted and self.coeff(v) > 0]
        return max(vals, default=ZERO)
