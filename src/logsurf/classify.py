"""Classification of germs and subdivisors: log terminal / log canonical
shapes, du Val types, epsilon-lc and epsilon-dlt predicates, and the germ
taxonomy for boundary coefficient one half."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import CoeffOutOfRange, NotApplicable, NotLogTerminal, NotMinimal
from .graph import (
    DualGraph, Fork, LogSurfaceModel, ZERO, _as_bench, _as_fork, _as_rational, _chain_order,
)
from .invariants import (
    GermGraph,
    chain_data,
    fork_delta,
    is_admissible_chain,
    total_coefficient,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GermClass:
    tag: str
    payload: dict = field(default_factory=dict, compare=False)


def classify_germ(germ: GermGraph) -> GermClass:
    """Classify a minimal resolution germ by shape.

    Tags follow the log terminal / log canonical taxonomy; decorations encode
    the reduced-boundary contacts.  The degenerate (non-snc) cycle and segment
    variants cannot be encoded on this substrate, so the corresponding tags
    only ever describe their snc forms.
    """
    graph = germ.graph
    if len(graph.connected_components(graph.ids)) != 1:
        raise NotApplicable("germ classification expects a connected graph")
    if not germ.is_minimal():
        raise NotMinimal("germ has a smooth rational (-1)-vertex")
    theta = germ.contacts
    if any(t != int(t) for t in theta.values()):
        raise NotApplicable("germ contacts must be integral (reduced boundary)")
    contact = sum(int(t) for t in theta.values())
    whole = frozenset(graph.ids)

    if not theta:
        if len(graph.ids) == 1 and graph.vertices[0].genus == 1:
            return GermClass("LC-EllipticCurve", {"vertex": graph.ids[0]})
        if any(v.genus != 0 for v in graph.vertices):
            return GermClass("NotLC")
        order = _chain_order(graph, whole)
        if order is not None:
            return GermClass("LT-NoBoundary-Rod", {"chain": order})
        f = _as_fork(graph, whole)
        if f is not None:
            delta = fork_delta(graph, f)
            if delta > 1:
                return GermClass("LT-NoBoundary-Fork", _fork_payload(graph, f, delta))
            # an all-(-2) fork with delta = 1 (E~6, E~7, E~8) is only
            # semidefinite, so it is no germ
            if delta == 1:
                return GermClass("LC-Fork", _fork_payload(graph, f, delta))
            return GermClass("NotLC")
        # the germ is one cycle when every curve meets the others at least
        # twice; a bench is a tree, so a germ with a smaller cycle is no bench
        if all(sum(graph.adjacency[v].values()) >= 2 for v in whole):
            return GermClass("LC-Cycle", {"cycle": tuple(sorted(whole))})
        # an all-(-2) bench (D~n) is only semidefinite too, so it is no germ
        b = _as_bench(graph, whole)
        if b is not None:
            return GermClass("LC-Bench", {"central_chain": b.central_chain, "feet": b.feet})
        return GermClass("NotLC")

    # boundary present: twig / half-bench / segment shapes
    if any(v.genus != 0 for v in graph.vertices):
        return GermClass("NotLC")
    order = _chain_order(graph, whole)
    if contact == 1 and order is not None:
        (vid,) = [v for v, t in theta.items() if t > 0]
        if vid in (order[0], order[-1]):
            if vid == order[0]:
                order = tuple(reversed(order))
            return GermClass("LT-Twig", {"chain": order})
    hb = _germ_half_bench(germ)
    if hb is not None:
        return GermClass("LC-HalfBench", hb)
    if contact == 2 and order is not None and _segment_contacts(order, theta):
        return GermClass("LC-Segment", {"chain": order})
    return GermClass("NotLC")


def _segment_contacts(order: tuple[str, ...], theta: Mapping[str, Fraction]) -> bool:
    """Whether a chain with reduced-boundary contact 2 in all is a segment:
    a lone curve, or contact 1 at each end (contact 2 at one end of a longer
    chain gives coefficients above 1)."""
    return len(order) == 1 or theta.get(order[0]) == theta.get(order[-1]) == 1


def _all_minus_two(graph: DualGraph, ids: Iterable[str]) -> bool:
    return all(graph.vertex(v).weight == 2 and graph.vertex(v).genus == 0 for v in ids)


def _fork_payload(graph: DualGraph, f: Fork, delta: Fraction) -> dict:
    return {
        "center": f.center,
        "twigs": f.twigs,
        "delta": delta,
        "twig_d": tuple(chain_data(graph, t).d for t in f.twigs),
    }


def _germ_half_bench(germ: GermGraph) -> Optional[dict]:
    """E of type <b;2,2,t> or [2,b,2], reduced-boundary contact 1 at the far
    end of the central chain."""
    graph = germ.graph
    theta = germ.contacts
    if sum(theta.values()) != 1:
        return None
    (cv,) = [v for v, t in theta.items() if t == 1]
    whole = frozenset(graph.ids)
    order = _chain_order(graph, whole)
    if order is not None and len(order) == 3:
        a, b, c = order
        if graph.vertex(a).weight == graph.vertex(c).weight == 2 and cv == b:
            return {"central_chain": (b,), "feet": (a, c)}
        return None
    f = _as_fork(graph, whole)
    if f is None:
        return None
    short = [t for t in f.twigs if len(t) == 1 and graph.vertex(t[0]).weight == 2]
    long = [t for t in f.twigs if t not in short]
    if len(short) < 2:
        return None
    if len(short) == 3:
        # pick the contact twig as the long one if decorated
        long = [t for t in short if t[0] == cv]
        short = [t for t in short if t[0] != cv]
        if not long:
            return None
    if len(long) != 1:
        return None
    chain = (f.center, *reversed(long[0]))
    if cv != chain[-1]:
        return None
    if not is_admissible_chain(graph, chain):
        return None
    return {"central_chain": chain, "feet": (short[0][0], short[1][0])}


# ---------------------------------------------------------------------------
# du Val types


def duval_type(graph: DualGraph) -> Optional[str]:
    """Dynkin label of a connected all-(-2) undecorated configuration."""
    if not graph.ids:
        return None
    if len(graph.connected_components(graph.ids)) != 1:
        return None
    if not _all_minus_two(graph, graph.ids):
        return None
    if any(v.decoration != 0 for v in graph.vertices):
        return None
    n = len(graph.ids)
    whole = frozenset(graph.ids)
    if _chain_order(graph, whole) is not None:
        return f"A_{n}"
    f = _as_fork(graph, whole)
    if f is None:
        return None
    lengths = sorted(len(t) for t in f.twigs)
    if lengths[:2] == [1, 1]:
        return f"D_{n}"
    if lengths == [1, 2, 2]:
        return "E_6"
    if lengths == [1, 2, 3]:
        return "E_7"
    if lengths == [1, 2, 4]:
        return "E_8"
    return None


def is_du_val_germ(germ: GermGraph) -> bool:
    graph = germ.graph
    comps = graph.connected_components(graph.ids)
    if len(comps) == 1:  # the germ itself, whose shape answers are kept
        return duval_type(graph) is not None
    return all(duval_type(graph.without(set(graph.ids) - comp)) is not None for comp in comps)


# ---------------------------------------------------------------------------
# epsilon-lc / epsilon-dlt


# The field set and order are the `eps` report format of the CLI, checked by
# schema/report.schema.json; keyword-only so a reorder cannot swap arguments.
@dataclass(frozen=True, kw_only=True)
class EpsVerdict:
    eps: Fraction
    is_lc: bool
    is_dlt: bool
    tcf: Fraction
    witness: str
    witness_cf: Fraction
    exact: bool  # False when the eps = 0 supremum may exceed the reported tcf


def eps_check(model: LogSurfaceModel, eps: Fraction) -> EpsVerdict:
    """(X, D) is eps-lc when tcf <= 1 - eps, and eps-dlt when additionally
    every exceptional coefficient of this resolution is < 1 - eps.

    For eps > 0 any log resolution computes the same answer; at eps = 0 a
    negative dlt verdict is relative to the given resolution.  ``eps`` is an
    int or a Fraction in [0, 1] (ValidationError, CoeffOutOfRange).
    """
    eps = _as_rational("eps_check", "eps", eps)
    if not 0 <= eps.numerator <= eps.denominator:
        raise CoeffOutOfRange(f"eps {eps} not in [0,1]")
    tc = total_coefficient(model)
    # the bound 1 - eps as n/d, compared by integer cross-multiplication;
    # every exceptional coefficient is below it when the largest one is
    bound = 1 - eps
    n, d = bound.numerator, bound.denominator
    is_lc = tc.value.numerator * d <= n * tc.value.denominator
    is_dlt = is_lc and (tc.exceptional is None or tc.exceptional[0] * d < n * tc.exceptional[1])
    if tc.witness:
        witness, witness_cf = tc.witness, tc.value
    else:
        witness, witness_cf = "", ZERO
    exact = not (eps == 0 and tc.may_underreport_at_eps0)
    return EpsVerdict(
        eps=eps, is_lc=is_lc, is_dlt=is_dlt, tcf=tc.value,
        witness=witness, witness_cf=witness_cf, exact=exact,
    )


# ---------------------------------------------------------------------------
# germs with coefficient at most one half


@dataclass(frozen=True)
class HalfClass:
    tag: str  # (1a) | (1b) | (2a) | (2b) per the cf <= 1/2 germ list
    formula: str  # (1a)..(2d) per the closed-form list
    coefficients: dict[str, Fraction] = field(compare=False)


def _germ_shape_half(germ: GermGraph) -> Optional[tuple[str, str, dict[str, Fraction]]]:
    """Match the germ against the cf <= 1/2 case list; return
    (tag, formula, closed-form coefficients at r = 1/2) or None."""
    graph = germ.graph
    theta = germ.contacts
    ids = graph.ids
    whole = frozenset(ids)
    n = len(ids)
    if any(v.genus != 0 for v in graph.vertices):
        return None  # the case list holds rational curves only

    if not theta:
        if _all_minus_two(graph, ids):
            order = _chain_order(graph, whole)
            f = _as_fork(graph, whole)
            if order is not None or (f is not None and fork_delta(graph, f) > 1):
                return "(1a)", "(1a)", {v: ZERO for v in ids}
            return None
        order = _chain_order(graph, whole)
        if order is not None:
            ws = [graph.vertex(v).weight for v in order]
            if ws[-1] == 3 and all(w == 2 for w in ws[:-1]):  # read [2,...,2,3] from its 3
                order, ws = order[::-1], ws[::-1]
            if ws[0] == 3 and all(w == 2 for w in ws[1:]):
                return "(1a)", "(1b)", {v: Fraction(n - i, 2 * n + 1) for i, v in enumerate(order)}
            if ws == [4]:
                return "(2a)", "(2a)", {order[0]: HALF}
            if (
                n >= 2
                and ws[0] == 3
                and ws[-1] == 3
                and all(w == 2 for w in ws[1:-1])
            ):
                return "(2a)", "(2a)", {v: HALF for v in order}
            if ws == [2, 3, 2]:
                return (
                    "(2a)",
                    "(2b)",
                    {order[0]: Fraction(1, 4), order[1]: HALF, order[2]: Fraction(1, 4)},
                )
            return None
        f = _as_fork(graph, whole)
        if f is not None and graph.vertex(f.center).weight == 2:
            short = [t for t in f.twigs if len(t) == 1 and graph.vertex(t[0]).weight == 2]
            rest = [t for t in f.twigs if t not in short[:2]]
            if len(short) >= 2 and len(rest) == 1:
                t = rest[0]
                ws = [graph.vertex(v).weight for v in t]
                if ws[0] == 3 and all(w == 2 for w in ws[1:]):
                    vals = {v: HALF for v in ids}
                    for s in short[:2]:
                        vals[s[0]] = Fraction(1, 4)
                    return "(2a)", "(2b)", vals
        return None

    # boundary present
    order = _chain_order(graph, whole)
    if order is None:
        return None
    contact = {v: int(t) for v, t in theta.items()}
    total = sum(contact.values())
    ws = [graph.vertex(v).weight for v in order]
    if total == 1:
        (cv,) = [v for v, t in contact.items() if t == 1]
        if cv == order[0]:
            order = tuple(reversed(order))
            ws.reverse()
        if cv != order[-1]:
            return None
        if all(w == 2 for w in ws):
            return "(1b)", "(1c)", {v: Fraction(i + 1, n + 1) * HALF for i, v in enumerate(order)}
        if ws[0] == 3 and all(w == 2 for w in ws[1:]):
            # a closed form only at r = 1/2; below that only the bound cf >= rE holds
            return "(2b)", "(2d)", {v: HALF for v in order}
        return None
    if total == 2 and all(w == 2 for w in ws) and _segment_contacts(order, theta):
        return "(2b)", "(2c)", {v: HALF for v in order}
    return None


def classify_half(germ: GermGraph, strict: bool = True) -> HalfClass:
    """Taxonomy of germs with coefficient function bounded by one half.

    ``strict`` selects the cf < 1/2 list (cases (1a)/(1b)); otherwise the
    cf = 1/2 list (cases (2a)/(2b)).  The returned coefficients are the
    closed forms evaluated at the boundary coefficient r = 1/2, a new dict
    on each call; the match is kept in the graph's table for both lists.
    """
    matched = germ.graph._memo(("half",), lambda: _germ_shape_half(germ))
    if matched is None:
        raise NotApplicable("germ is not on the coefficient <= 1/2 case list")
    tag, formula, values = matched
    if strict and not tag.startswith("(1"):
        raise NotApplicable("germ has coefficient exactly 1/2, not below")
    if not strict and not tag.startswith("(2"):
        raise NotApplicable("germ has coefficient below 1/2")
    return HalfClass(tag, formula, dict(values))


# ---------------------------------------------------------------------------
# subgraph comparison of log terminal germs


@dataclass(frozen=True)
class CompareVerdict:
    strict: bool
    du_val: bool
    values_sub: dict[str, Fraction] = field(compare=False)
    values_super: dict[str, Fraction] = field(compare=False)


def alexeev_compare(
    sub: GermGraph, sup: GermGraph, embedding: Mapping[str, str]
) -> CompareVerdict:
    """Verify the subgraph monotonicity cf_F <= cf_G pointwise for log
    terminal germs, strict unless the bigger germ is du Val.

    ``embedding`` maps vertices of ``sub`` into vertices of ``sup``; weights,
    decorations and edge multiplicities must not exceed the originals.
    """
    gf, gg = sub.graph, sup.graph
    img = dict(embedding)
    if set(img) != set(gf.ids):
        raise NotApplicable("embedding must cover every vertex of the subgraph")
    if len(set(img.values())) != len(img):
        raise NotApplicable("embedding must be injective")
    for v in gf.ids:
        w = img[v]
        gg.vertex(w)
        if gf.vertex(v).weight > gg.vertex(w).weight:
            raise NotApplicable(f"weight of {v!r} exceeds its image")
        if gf.vertex(v).decoration > gg.vertex(w).decoration:
            raise NotApplicable(f"decoration of {v!r} exceeds its image")
    for u in gf.ids:
        for v in gf.ids:
            if u < v and gf.mult(u, v) > gg.mult(img[u], img[v]):
                raise NotApplicable(f"edge {u}-{v} exceeds its image")
    cf_f = sub.coefficients
    cf_g = sup.coefficients
    if any(c >= 1 for c in cf_f.values()) or any(c >= 1 for c in cf_g.values()):
        raise NotLogTerminal("both germs must be log terminal")
    diffs = [cf_g[img[v]] - cf_f[v] for v in gf.ids]
    if any(d < 0 for d in diffs):
        # cannot happen for valid inputs; report loudly if it ever does
        raise AssertionError("monotonicity violated")
    strict = all(d > 0 for d in diffs)
    duval = is_du_val_germ(sup)
    return CompareVerdict(strict=strict, du_val=duval, values_sub=cf_f, values_super=cf_g)
