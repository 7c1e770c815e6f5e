"""Log exceptional curve detection, peeling, squeezing, redundant and almost
log exceptional curves, MMP runs, relative K-MMP and almost minimalization.

Every model below is a contracted-set view of one fixed smooth dual graph, so
"contract a curve" always means "enlarge the contracted set".  Contracted
blocks stay negative definite throughout (checked at each step).

Every run, search and verdict scan below steps through one scan, ``_admitted``,
and one transition, ``_contract``; ``_target`` checks a target set.  The two
verdict lists, ``redundant`` and ``almost_log_exceptional``, step through one
verdict scan on the peeled model, ``_scan``, and read D once per scan.  An
answer about a curve depends only on the curve and on the contracted
components it meets (and r), so a transition keeps every answer but those of
the curves that meet a grown component (``_kept``), and ``_step`` keeps its
answer in the graph's table under that local state: a run of either kind, a
search or a later call on the same graph reads what another asked.  The
ladder of ``almost_minimalize`` is one such chain too: its peelings and
picks share their step answers from rung to rung, its K-signs and the
K-step answers of its squeezes are kept from rung to rung by the same rule,
and each rung's verdict is kept in the graph's table.

Whole runs are kept there as well, as records free of models: a model holds
its graph, so a model in the graph's table would make the graph reach itself
and outlive its last reference.  ``run_mmp`` keeps its run under ``("run",
contracted, r, kinds, strategy)``, a pure or non-pure peeling under
``("peel", contracted, r, kinds, pure)``; the record holds the steps and,
for each model after the start, its contracted set, partition and component
map (``_record``).  A later call replays the record as views of its own
model (``_replay``, through ``LogSurfaceModel._derived``, which ``contract``
uses too); a miss returns the run it computed.  ``peel`` and the first rung
of ``almost_minimalize`` share the peeling record, so ``redundant`` and
``almost_log_exceptional`` read the peeling of the ladder.  psi, the run
over the whole exceptional set of ``almost_minimalize``, takes the longest
prefix of the kept lowest-id run of its kinds whose picks lie in its set
(``_psi``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, TypeVar

from .errors import NotApplicable, NotNegativeDefinite, TooLarge, UnknownVertex
from .classify import HALF, EpsVerdict, eps_check
from .graph import (
    Blocks,
    DualGraph,
    LogSurfaceModel,
    ZERO,
    _as_fork,
    _chain_order,
    _branching_numbers,
    _maximal_twigs,
    contracts_to_smooth_point,
    is_negative_definite,
)
from .invariants import chain_data, discriminant, is_admissible_chain

FIRST = "first"
SECOND = "second"
# the kinds of curve a run of each kind may contract
_KINDS = {FIRST: (FIRST,), SECOND: (FIRST, SECOND)}
# largest candidate pool enumerate_runs explores
_ENUMERATION_GUARD = 8


def _kinds(kind: str) -> tuple[str, ...]:
    """The kinds of curve a run of ``kind`` may contract; NotApplicable for
    any other kind.  Every entry point that takes a kind asks it first."""
    if isinstance(kind, str) and kind in _KINDS:
        return _KINDS[kind]
    raise NotApplicable(f"unknown kind {kind!r}")


# The field set and order are a CLI report format, checked by schema/report.schema.json.
@dataclass(frozen=True)
class CurveVerdict:
    vertex: str
    self_int: Fraction
    pairing: Fraction  # image . (K + D)
    kind: Optional[str]  # "first" | "second" | None


def curve_verdict(model: LogSurfaceModel, vid: str) -> CurveVerdict:
    s = model.self_int(vid)
    p = model.lk_pairing(vid)
    # a Fraction's sign is its numerator's
    kind = None
    if s.numerator < 0:
        kind = FIRST if p.numerator < 0 else SECOND if p.numerator == 0 else None
    return CurveVerdict(vid, s, p, kind)


def log_exceptional(model: LogSurfaceModel) -> list[CurveVerdict]:
    """Verdict for every non-contracted vertex on the current model."""
    return [curve_verdict(model, v) for v in sorted(model.noncontracted())]


# ---------------------------------------------------------------------------
# runs


# The field set and order are a CLI report format, checked by schema/report.schema.json.
@dataclass(frozen=True)
class Step:
    vertex: str
    kind: str
    pairing: Fraction
    self_int: Fraction


# the kept _step answer of each curve asked, None where no step is admitted
_Answers = dict[str, Optional[Step]]
# the components of Exc(alpha) that a curve meets
_Comps = tuple[frozenset[str], ...]
_A = TypeVar("_A")


@dataclass(frozen=True)
class MMPRun:
    start: LogSurfaceModel
    steps: tuple[Step, ...]
    models: tuple[LogSurfaceModel, ...]  # models[0] = start, models[i] = after step i

    @property
    def final(self) -> LogSurfaceModel:
        return self.models[-1]

    @property
    def exceptional(self) -> frozenset[str]:
        return frozenset(s.vertex for s in self.steps)

    @property
    def final_contracted(self) -> frozenset[str]:
        return self.final.contracted


def _step(
    model: LogSurfaceModel, vid: str, kinds: Sequence[str], use_boundary: bool
) -> Optional[Step]:
    """The contraction of ``vid`` when its image is log exceptional (for K + D,
    or for K alone without the boundary) of one of ``kinds``, else None.  The
    answer of either kind depends only on the curve, the components it meets
    and, with the boundary, r: it is one entry of the graph's table, which
    every run of either kind and every model of the graph reads."""
    met = model._met(vid)
    key = ("step", vid, met, model._r_key if use_boundary else None, use_boundary)
    step = model.graph._memo(key, lambda: _log_exceptional(model, vid, met, use_boundary))
    return step if step is not None and step.kind in kinds else None


def _log_exceptional(model: LogSurfaceModel, vid: str, met: frozenset[frozenset[str]],
                     use_boundary: bool) -> Optional[Step]:
    """The contraction of ``vid``, which meets the components ``met``, when
    its image is log exceptional of either kind, else None.  The pairing is
    tested first, so the self-intersection is asked only of curves of a log
    exceptional kind.  Each sign test reads the answer's numerator."""
    p = model._lk_pairing(vid, met) if use_boundary else model._k_pairing(vid, met)
    n = p.numerator
    if n > 0:
        return None
    s = model._self_int(vid, met)
    return Step(vid, FIRST if n < 0 else SECOND, p, s) if s.numerator < 0 else None


def _admitted(model: LogSurfaceModel, order: Iterable[str], kinds: Sequence[str],
              use_boundary: bool, answers: _Answers) -> Iterator[Step]:
    """The steps ``_step`` admits on ``model`` for the curves of ``order``
    not contracted, in that order; each answer is kept in ``answers``, and a
    kept one is not asked again.  The one caller of ``_step``."""
    contracted = model.contracted
    for v in order:
        if v in contracted:
            continue
        if v not in answers:
            answers[v] = _step(model, v, kinds, use_boundary)
        step = answers[v]
        if step is not None:
            yield step


def _kept(model: LogSurfaceModel, grown: frozenset[str], answers: dict[str, _A]) -> dict[str, _A]:
    """The answers that still hold on ``model``, whose components holding the
    curves ``grown`` are new.  A curve's answer depends only on the curve and
    on the contracted components it meets (and r): it is kept unless the
    curve meets one of ``grown``."""
    adjacency = model.graph.adjacency
    kept = answers.copy()
    for u in grown:
        for w in adjacency[u]:
            kept.pop(w, None)
    return kept


def _contract(model: LogSurfaceModel, step: Step,
              answers: _Answers) -> tuple[LogSurfaceModel, _Answers]:
    """The model after ``step`` and the answers that hold on it (``_kept``)."""
    child = model.contract(step.vertex)
    return child, _kept(child, child._component_of[step.vertex], answers)


def _greedy(start: LogSurfaceModel, order: Sequence[str], kinds: Sequence[str],
            use_boundary: bool, answers: _Answers) -> tuple[MMPRun, _Answers]:
    """The run that takes, through ``_contract``, the first step that
    ``_admitted`` yields for ``order`` on the running model, until none; and
    the answers that hold on its final model.  ``answers`` are those that
    hold on ``start``."""
    steps: list[Step] = []
    models = [start]
    cur = start
    while True:
        step = next(_admitted(cur, order, kinds, use_boundary, answers), None)
        if step is None:
            return MMPRun(start, tuple(steps), tuple(models)), answers
        steps.append(step)
        cur, answers = _contract(cur, step, answers)
        models.append(cur)


# a run kept in the graph's table, free of models: its steps, and for each
# model after the start its contracted set, partition and component map
_Record = tuple[tuple[Step, ...],
                tuple[tuple[frozenset[str], Blocks, dict[str, frozenset[str]]], ...]]


def _record(run: MMPRun) -> _Record:
    return run.steps, tuple((m.contracted, m._blocks, m._component_of) for m in run.models[1:])


def _replay(model: LogSurfaceModel, record: _Record) -> MMPRun:
    """The kept run from ``model``, its models views of ``model`` made by
    ``LogSurfaceModel._derived``."""
    steps, states = record
    return MMPRun(model, steps, (model, *(model._derived(*state) for state in states)))


def _run_key(model: LogSurfaceModel, kinds: Sequence[str], strategy: str) -> tuple:
    return ("run", model.contracted, model._r_key, kinds, strategy)


def _kept_run(model: LogSurfaceModel, key: tuple, order: Sequence[str],
              kinds: Sequence[str]) -> tuple[MMPRun, _Answers]:
    """The maximal run of ``_greedy`` from ``model`` over ``order``, with the
    answers that hold on its final model: replayed from the record kept
    under ``key`` in the graph's table, else run and recorded there.  The
    run is maximal, so after a replay no curve of ``order`` left outside the
    contracted set is admitted: those answers are None."""
    table = model.graph._answers
    record = table.get(key)
    if record is None:
        run, answers = _greedy(model, order, kinds, True, {})
        table[key] = _record(run)
        return run, answers
    run = _replay(model, record)
    done = run.final.contracted
    return run, dict.fromkeys((v for v in order if v not in done), None)


def run_mmp(model: LogSurfaceModel, kind: str = FIRST, strategy: str = "lowest-id") -> MMPRun:
    """A maximal run: contract log exceptional curves of the requested kind
    until none is left.  ``boundary-first`` prefers boundary components.
    The run is kept in the graph's table; a later call replays it."""
    kinds = _kinds(kind)
    if strategy not in ("lowest-id", "boundary-first"):
        raise NotApplicable(f"unknown strategy {strategy!r}")

    first = set(model.boundary_flagged) if strategy == "boundary-first" else set()
    order = sorted(model.noncontracted(), key=lambda v: (v not in first, v))
    return _kept_run(model, _run_key(model, kinds, strategy), order, kinds)[0]


def _target(model: LogSurfaceModel, over: Iterable[str]) -> frozenset[str]:
    """``over`` as a set, checked: known and not yet contracted curves
    (UnknownVertex), contractible with the contracted set (NotNegativeDefinite)."""
    target = frozenset(over)
    for v in target:
        model.graph.vertex(v)
        if v in model.contracted:
            raise UnknownVertex(f"{v!r} is already contracted")
    if not is_negative_definite(model.graph, model.contracted | target):
        raise NotNegativeDefinite("target set is not contractible")
    return target


def relative_mmp(
    model: LogSurfaceModel,
    over: Iterable[str],
    use_boundary: bool = False,
    kind: str = FIRST,
) -> MMPRun:
    """Greedy (K[+D])-MMP over the contraction of ``over``: contract curves of
    the target set while they pair negatively (non-positively, for the second
    kind) with K[+D] on the running model.  The final contracted set does not
    depend on the choices made (see the run-enumeration tests)."""
    kinds = _kinds(kind)
    target = _target(model, over)
    # every curve of the target has negative self-intersection on every
    # model of the run, since the whole target is contractible
    return _greedy(model, sorted(target), kinds, use_boundary, {})[0]


def relative_k_mmp(model: LogSurfaceModel, over: Iterable[str]) -> MMPRun:
    """The unique K-MMP over the contraction of the target set."""
    return relative_mmp(model, over, use_boundary=False, kind=FIRST)


def is_partial_mmp_run(
    model: LogSurfaceModel, contracted: Iterable[str], kind: str = FIRST
) -> tuple[bool, Optional[str]]:
    """Characterization by coefficients: contracting the set is a partial MMP
    run of the first kind iff every member's coefficient drops strictly
    (never increases, for the second kind).  Returns a witness vertex when
    the answer is negative."""
    _kinds(kind)
    try:
        sset = _target(model, contracted)
    except NotNegativeDefinite:
        return False, None
    target = LogSurfaceModel(model.graph, model.contracted | sset, model.uniform_r)
    for v in sorted(sset):
        before = model.coeff(v)
        after = target.coefficients[v]
        if kind == FIRST and not after < before:
            return False, v
        if kind == SECOND and not after <= before:
            return False, v
    return True, None


def enumerate_runs(
    model: LogSurfaceModel,
    kind: str = FIRST,
    over: Optional[Iterable[str]] = None,
    use_boundary: bool = True,
) -> list[MMPRun]:
    """All maximal runs under all elementary-contraction orders, one witness
    per distinct exceptional set.  Exponential; guarded by vertex count."""
    kinds = _kinds(kind)
    pool = frozenset(over) if over is not None else frozenset(model.noncontracted())
    if len(pool) > _ENUMERATION_GUARD:
        raise TooLarge(f"{len(pool)} candidate vertices exceed the guard {_ENUMERATION_GUARD}")
    if over is not None:
        _target(model, pool)
    order = sorted(pool)
    results: dict[frozenset[str], MMPRun] = {}
    seen: set[frozenset[str]] = set()

    def rec(steps: tuple[Step, ...], models: tuple[LogSurfaceModel, ...],
            answers: _Answers) -> None:
        cur = models[-1]
        # distinct runs are distinguished by their exceptional sets: visiting
        # each contracted-set state once is enough to find all of them
        if cur.contracted in seen:
            return
        seen.add(cur.contracted)
        admitted = list(_admitted(cur, order, kinds, use_boundary, answers))
        if not admitted:
            results.setdefault(frozenset(s.vertex for s in steps), MMPRun(model, steps, models))
        for s in admitted:
            child, kept = _contract(cur, s, answers)
            rec(steps + (s,), models + (child,), kept)

    rec((), (model,), {})
    return [results[k] for k in sorted(results, key=sorted)]


# ---------------------------------------------------------------------------
# peeling


@dataclass(frozen=True)
class PeelingData:
    """A maximal (pure unless stated otherwise) partial peeling.

    For a uniform boundary coefficient r <= 1/2 the exceptional set splits
    into ``gamma`` ((-2)-rods and (-2)-forks), ``lambda_`` (short
    [3,2,...,2]-rods) and ``delta`` (maximal (-2)-twigs); anything the split
    does not cover (second-kind extras, nonuniform boundaries, r > 1/2) is
    reported in ``extra``.
    """

    run: MMPRun
    pure: bool
    kind: str
    gamma: tuple[frozenset[str], ...] = ()
    lambda_: tuple[frozenset[str], ...] = ()
    delta: tuple[frozenset[str], ...] = ()
    extra: tuple[frozenset[str], ...] = ()

    @property
    def exceptional(self) -> frozenset[str]:
        return self.run.exceptional

    @property
    def model(self) -> LogSurfaceModel:
        return self.run.final


def peel(model: LogSurfaceModel, kind: str = FIRST, pure: bool = True) -> PeelingData:
    """Maximal (pure) partial peeling: greedily contract boundary components
    that are log exceptional of an allowed kind on the running model, with
    K of the starting model nonnegative on each when purity is requested."""
    kinds = _kinds(kind)
    order = sorted(v for v in model.boundary_flagged
                   if not pure or model.k_pairing(v).numerator >= 0)
    run = _kept_run(model, _peel_key(model, kinds, pure), order, kinds)[0]
    # the split depends on D and r, so on the contracted set, and on Exc
    exc = run.exceptional
    gamma, lam, delta, extra = model.graph._memo(
        ("classes", model.contracted, model._r_key, exc), lambda: _classify_peeled(model, exc))
    return PeelingData(run, pure, kind, gamma, lam, delta, extra)


def _peel_key(model: LogSurfaceModel, kinds: Sequence[str], pure: bool) -> tuple:
    return ("peel", model.contracted, model._r_key, kinds, pure)


def _classify_peeled(
    model: LogSurfaceModel, exc: frozenset[str]
) -> tuple[tuple, tuple, tuple, tuple]:
    if not exc:
        return (), (), (), ()
    r = model.r
    graph = model.graph
    comps = tuple(graph.connected_components(exc))
    if r is None or r > HALF:
        return (), (), (), comps
    beta_d = _branching_numbers(graph, model.boundary_flagged)
    gamma, lam, delta, extra = [], [], [], []
    for comp in comps:
        ws = sorted(graph.vertex(v).weight for v in comp)
        all_two = all(w == 2 for w in ws)
        is_chain = _chain_order(graph, comp) is not None
        # comp lies in D, so it is a rod or fork of D only as a whole
        # component; beta = comp.(D - comp)
        beta = sum(beta_d[v] for v in comp) - sum(_branching_numbers(graph, comp).values())
        if beta == 0 and all_two and (is_chain or _as_fork(graph, comp) is not None):
            gamma.append(comp)
        elif beta == 0 and is_chain and ws.count(2) == len(ws) - 1 and ws[-1] == 3:
            lam.append(comp)
        elif all_two and is_chain and beta == 1:
            # a maximal (-2)-twig of D - Gamma - Lambda
            delta.append(comp)
        else:
            extra.append(comp)
    return tuple(gamma), tuple(lam), tuple(delta), tuple(extra)


def squeeze(model: LogSurfaceModel, kind: str = FIRST) -> MMPRun:
    """Squeezing: the relative K-MMP of a maximal (not necessarily pure)
    peeling; it contracts the redundant boundary (-1)-curves."""
    peeling = peel(model, kind=kind, pure=False)
    return relative_k_mmp(model, peeling.exceptional)


# ---------------------------------------------------------------------------
# redundant and almost log exceptional curves


# The field set and order are a CLI report format, checked by schema/report.schema.json.
@dataclass(frozen=True)
class RedundantVerdict:
    vertex: str
    kind: str  # kind of the peeled image
    self_kind: Optional[str]  # kind of the curve itself on the unpeeled model
    case: str
    pairing: Fraction
    self_int: Fraction
    components: tuple[frozenset[str], ...]  # components of Exc(alpha) met by it
    inequality: Optional[tuple[Fraction, Fraction]] = None  # (lhs, rhs) of the twig test


# The field set and order are a CLI report format, checked by schema/report.schema.json.
@dataclass(frozen=True)
class ALEVerdict:
    vertex: str
    kind: str
    case: str
    case_half: Optional[str]
    pairing: Fraction
    self_int: Fraction
    components: tuple[frozenset[str], ...]


def _scan(model: LogSurfaceModel, peeling: PeelingData, order: Iterable[str],
          kinds: Sequence[str]) -> Iterator[tuple[Step, _Comps]]:
    """The one verdict scan: the steps that ``_admitted`` admits on the peeled
    model for the curves of ``order``, each with the components of Exc(alpha)
    that its curve meets.  Exc(alpha) is split into components once."""
    adjacency = model.graph.adjacency
    comps = model.graph.connected_components(peeling.exceptional)
    for step in _admitted(peeling.model, order, kinds, True, {}):
        near = adjacency[step.vertex]
        yield step, tuple(c for c in comps if not c.isdisjoint(near))


def _peeling_of(model: LogSurfaceModel, peeling: Optional[PeelingData], kind: str) -> PeelingData:
    """``peeling`` when it starts from ``model`` (its graph, boundary flags,
    contracted set and r), NotApplicable otherwise; the maximal pure peeling
    of ``kind`` when it is None."""
    if peeling is None:
        return peel(model, kind=kind, pure=True)
    if peeling.run.start != model:
        raise NotApplicable("the peeling does not start from this model")
    return peeling


def redundant(
    model: LogSurfaceModel, peeling: Optional[PeelingData] = None, kind: str = SECOND
) -> list[RedundantVerdict]:
    """Boundary components with l.K < 0 whose peeled image is log exceptional."""
    kinds = _kinds(kind)
    peeling = _peeling_of(model, peeling, kind)
    graph = model.graph
    # D, beta_D and the maximal twigs of D, read once for every verdict
    dset = frozenset(model.boundary_flagged)
    betas = _branching_numbers(graph, dset)
    twigs = tuple(_maximal_twigs(graph, dset).values())
    out = []
    order = (v for v in sorted(dset - peeling.exceptional) if model.k_pairing(v).numerator < 0)
    for step, comps in _scan(model, peeling, order, kinds):
        v = step.vertex
        self_kind = curve_verdict(model, v).kind
        l_dot_r = _l_dot_R(graph, dset, v, frozenset().union(*comps))
        case = _redundant_case(model, dset, betas, v, self_kind, comps, l_dot_r)
        ineq = _twig_inequality(model, twigs, v, comps, l_dot_r)
        out.append(RedundantVerdict(v, step.kind, self_kind, case, step.pairing, step.self_int,
                                    comps, ineq))
    return out


def _twig_inequality(model: LogSurfaceModel, twigs: Sequence[tuple[str, ...]], vid: str,
                     comps: _Comps, l_dot_r: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """Exact evaluation of the redundancy inequality
    r beta_{D-E}(l) <= 2 - k + delta - (1-r)(1 - ind^T)
    when every met component is an admissible twig of D touched once, in its
    last component.  The image is log exceptional iff lhs <= rhs, of the
    second kind exactly at equality.  ``twigs`` are the maximal twigs of D,
    and beta_{D-E}(l) = l.R - theta."""
    r = model.r
    if r is None:
        return None
    graph = model.graph
    delta = ZERO
    ind_t = ZERO
    for comp in comps:
        # the component must open the maximal twig of D from one of its tips
        order = next((t[: len(comp)] for t in twigs if frozenset(t[: len(comp)]) == comp), None)
        if order is None or not is_admissible_chain(graph, order):
            return None
        if sum(graph.mult(vid, w) for w in comp) != 1 or graph.mult(vid, order[-1]) != 1:
            return None
        cd = chain_data(graph, order)
        delta += cd.delta
        ind_t += cd.transposed_inductance
    lhs = r * (l_dot_r - graph.vertex(vid).decoration)
    rhs = 2 - len(comps) + delta - (1 - r) * (1 - ind_t)
    return lhs, rhs


def almost_log_exceptional(
    model: LogSurfaceModel, peeling: Optional[PeelingData] = None, kind: str = SECOND
) -> list[ALEVerdict]:
    """Non-boundary vertices whose peeled image is log exceptional.  A verdict
    of the second kind additionally requires nonzero intersection with K on
    the unpeeled model."""
    kinds = _kinds(kind)
    peeling = _peeling_of(model, peeling, kind)
    graph = model.graph
    dset = frozenset(model.boundary_flagged)  # D, read once for every verdict
    out = []
    order = sorted(set(peeling.model.noncontracted()) - dset)
    for step, comps in _scan(model, peeling, order, kinds):
        v = step.vertex
        if step.kind == SECOND and model.k_pairing(v).numerator == 0:
            continue
        l_dot_d = _l_dot_R(graph, dset, v, frozenset())
        case = _ale_case(model, dset, v, comps, l_dot_d)
        half = _ale_case_half(model, dset, peeling, v, step, l_dot_d) if model.r == HALF else None
        out.append(ALEVerdict(v, step.kind, case, half, step.pairing, step.self_int, comps))
    return out


# -- case tags --------------------------------------------------------------


def _chain_shape(
    model: LogSurfaceModel, vid: str, comps: Sequence[frozenset[str]]
) -> Optional[tuple[int, ...]]:
    """Weights of l + E read along the chain (None when not a chain), with
    the lexicographically smaller reading direction chosen."""
    # l meets every component of comps, so l + E is connected
    order = _chain_order(model.graph, frozenset({vid}.union(*comps)))
    if order is None:
        return None
    ws = tuple(model.graph.vertex(u).weight for u in order)
    return min(ws, tuple(reversed(ws)))


def _l_dot_R(graph: DualGraph, dset: frozenset[str], vid: str, e: frozenset[str]) -> Fraction:
    # l.R for R = D - E: the integer multiplicities, then the decoration once
    rest = sum(m for w, m in graph.adjacency[vid].items() if w in dset and w not in e)
    return rest + graph.vertex(vid).decoration


def _e_dot_R(graph: DualGraph, dset: frozenset[str], vid: str, e: frozenset[str]) -> int:
    # E.R for R = D - E - l
    rest = dset - e - {vid}
    return sum(m for u in e for w, m in graph.adjacency[u].items() if w in rest)


def _is_asterisk_chain(shape: tuple[int, ...]) -> bool:
    """[1,(2)_{m-1},3] read from the (-1)-end."""
    return len(shape) >= 2 and shape == (1,) + (2,) * (len(shape) - 2) + (3,)


def _redundant_case(model: LogSurfaceModel, dset: frozenset[str], betas: dict[str, int], vid: str,
                    self_kind: Optional[str], comps: _Comps, l_dot_r: Fraction) -> str:
    graph = model.graph
    r = model.r
    e = frozenset().union(*comps)
    shape = _chain_shape(model, vid, comps)
    e_dot_r = _e_dot_R(graph, dset, vid, e)
    beta = betas[vid] + graph.vertex(vid).decoration
    if r == 1:
        return "(1)"
    # specific numeric families first; they may overlap the generic (2) cases
    # at their interval endpoints
    if beta == 3 and e_dot_r == 0 and shape is not None:
        if r == HALF and (shape in ((3, 1, 3), (3, 1, 2, 3)) or _is_asterisk_chain(shape)):
            return "(3)"
        if r == Fraction(2, 3) and shape in ((2, 1, 4), (2, 1, 3, 2)):
            return "(4)"
    if (
        r is not None
        and len(comps) == 1
        and all(graph.vertex(u).weight == 2 for u in e)
        and sum(graph.mult(vid, u) for u in e) == 1
        and 0 < r
        and 0 <= l_dot_r - 1 / r <= Fraction(1, len(e) + 1)
    ):
        return "(5)"
    if r is not None and len(comps) == 2 and l_dot_r == 1:
        ds = sorted(discriminant(graph, c) for c in comps)
        if ds == [2, 3] and HALF <= r <= Fraction(4, 5):
            return "(6)"
    if self_kind is not None:
        if contracts_to_smooth_point(graph, {vid} | e):
            return "(2a)"
        # l + E is a twig of D when it is a chain of non-branching components
        # containing a tip of D; a rod, a whole chain component, holds two
        le = {vid} | e
        in_twig = (
            shape is not None
            and all(betas[u] <= 2 for u in le)
            and any(betas[u] <= 1 for u in le)
        )
        return "(2b)" if in_twig else "(2a)"
    return "(unlisted)"


def _ale_case(model: LogSurfaceModel, dset: frozenset[str], vid: str, comps: _Comps,
              l_dot_d: Fraction) -> str:
    graph = model.graph
    r = model.r
    e = frozenset().union(*comps)
    shape = _chain_shape(model, vid, comps)
    e_dot_r = _e_dot_R(graph, dset, vid, e)
    self_kind = curve_verdict(model, vid).kind
    # r-specific families first; the generic superfluous / log exceptional
    # cases overlap them at interval endpoints
    if shape is not None and _is_asterisk_chain(shape):
        m = len(shape) - 1
        if l_dot_d == 2 and r == HALF and e_dot_r == 1:
            return "(2)"
        if l_dot_d == 3 and e_dot_r == 0 and r == Fraction(m, 2 * m + 1):
            return "(3)"
    if shape is not None and e_dot_r == 0 and l_dot_d == 3:
        if shape == (3, 1, 3) and r == Fraction(1, 3):
            return "(4)"
        if shape == (2, 1, 4) and r == HALF:
            return "(4)"
        if (
            len(shape) >= 4
            and shape[:3] == (2, 1, 3)
            and shape[-1] == 3
            and all(w == 2 for w in shape[3:-1])
            and r == HALF
        ):
            return "(4)"
    if shape == (2, 1, 3) and l_dot_d == 4 and e_dot_r == 0 and r == Fraction(1, 3):
        return "(7)"
    if (
        shape is not None
        and len(shape) >= 3
        and shape[:3] == (2, 1, 3)
        and all(w == 2 for w in shape[3:])
        and l_dot_d == 3
        and len(comps) == 2
    ):
        if e_dot_r == 0:
            return "(8)"
        if e_dot_r == 1:
            rod2 = next((c for c in comps if len(c) == 1 and
                         graph.vertex(next(iter(c))).weight == 2), None)
            if rod2 is not None and _e_dot_R(graph, dset, vid, rod2) == 1:
                return "(9)"
            if r == HALF:
                long = next(c for c in comps if c is not rod2)
                if len(long) == 1 or _far_end_touches_R(graph, dset, vid, long):
                    return "(10)"
    if shape == (2, 2, 1, 4) and e_dot_r == 0 and l_dot_d == 3 and r == HALF:
        return "(11)"
    if shape == (3, 1, 2, 3) and e_dot_r == 0 and l_dot_d == 3:
        return "(12)"
    if (
        r is not None
        and 0 < r < 1
        and shape is not None
        and len(shape) >= 2
        and shape == (1,) + (2,) * (len(shape) - 1)
        and len(comps) == 1
        and 1 / r <= l_dot_d
    ):
        return "(6)"
    nbrs = [(w, m) for w, m in graph.adjacency[vid].items() if w in dset]
    if (
        graph.vertex(vid).weight == 1
        and len(nbrs) + graph.vertex(vid).decoration <= 2
        and all(m == 1 for _, m in nbrs)
    ):
        return "(1)"
    if (
        r is not None
        and 0 < r < 1
        and self_kind is not None
        and contracts_to_smooth_point(graph, {vid} | e)
    ):
        return "(5)"
    return "(unlisted)"


def _far_end_touches_R(graph: DualGraph, dset: frozenset[str], vid: str,
                       comp: frozenset[str]) -> bool:
    """Does D - E meet the component at its end away from the (-1)-curve?"""
    rest = dset - comp - {vid}
    near = [u for u in comp if graph.mult(vid, u) > 0]
    far_contacts = [u for u in comp if any(graph.mult(u, w) > 0 for w in rest)]
    return bool(far_contacts) and far_contacts != near


def _ale_case_half(model: LogSurfaceModel, dset: frozenset[str], peeling: PeelingData, vid: str,
                   verdict: Step, a_dot_d: Fraction) -> Optional[str]:
    """Case tags of the almost log exceptional curve list at r = 1/2."""
    graph = model.graph
    e = peeling.exceptional
    a_dot_e = sum(graph.mult(vid, w) for w in e)
    gamma = set().union(*peeling.gamma)
    lam = set().union(*peeling.lambda_)
    delta = set().union(*peeling.delta)

    def rod_end(u: str, groups: tuple[frozenset[str], ...]) -> bool:
        comp = next((c for c in groups if u in c), None)
        if comp is None:
            return False
        return _branching_numbers(graph, comp)[u] <= 1

    def lam_middle_223(u: str) -> bool:
        comp = next((c for c in peeling.lambda_ if u in c), None)
        if comp is None or len(comp) != 3:
            return False
        return graph.vertex(u).weight == 2 and _branching_numbers(graph, comp)[u] == 2

    if verdict.kind == SECOND:
        if a_dot_d == 2 and a_dot_e == 0:
            return "(4)"
        if a_dot_d == 3 and a_dot_e == 1:
            (u,) = [u for u in e if graph.mult(vid, u) > 0]  # met once
            # at an end of a rod: a part of Gamma, so a whole component of D
            # (_classify_peeled), that is a chain
            comp = next((c for c in peeling.gamma if u in c), None)
            if rod_end(u, peeling.gamma) and _chain_order(graph, comp) is not None:
                return "(5)"
        return None
    if a_dot_d <= 1:
        return "(1)"
    touched = [u for u in sorted(dset) if graph.mult(vid, u) > 0]
    if a_dot_d == 2 and len(touched) == 2:
        t_r = [u for u in touched if u not in e]
        t_e = [u for u in touched if u in e]
        if len(t_r) == 1 and len(t_e) == 1:
            (u,) = t_e
            if u in delta or rod_end(u, peeling.gamma) or rod_end(u, peeling.lambda_):
                return "(2a)"
            if lam_middle_223(u):
                return "(2b)"
        if len(t_e) == 2:
            u1, u2 = t_e
            if {u1, u2} <= lam and graph.vertex(u1).weight == 3 and graph.vertex(u2).weight == 3:
                return "(2c)"
            if ({u1, u2} & lam) and ({u1, u2} & (delta | gamma)):
                return "(2d)"
    if a_dot_d == 3 and a_dot_d - a_dot_e == 1:
        if any(u in gamma for u in touched) and any(
            u in lam and graph.vertex(u).weight == 3 for u in touched
        ):
            return "(3)"
    return None


# ---------------------------------------------------------------------------
# almost minimalization


@dataclass(frozen=True)
class LadderRung:
    model: LogSurfaceModel
    peeling_exc: frozenset[str]
    verdict: Optional[EpsVerdict]


@dataclass(frozen=True)
class AlmostMinDecomposition:
    """psi = psi_min after psi_am: the almost minimalization (a K-MMP over the
    minimal model) and the residual pure peeling."""

    run: MMPRun  # psi, in one legal elementary-contraction order
    am: MMPRun  # psi_am
    min_exceptional: frozenset[str]  # Exc(psi_min), living on the almost minimal model
    ladder: tuple[LadderRung, ...]

    @property
    def almost_minimal_model(self) -> LogSurfaceModel:
        return self.am.final


def _eps_for(model: LogSurfaceModel) -> Optional[EpsVerdict]:
    """The (1 - r)-verdict of ``model``, None without a uniform r.  It depends
    only on the contracted set and r, so the graph's table keeps it: a set
    that two rungs, both kinds or the CLI reach is checked once."""
    r = model.r
    if r is None:
        return None
    key = ("eps", model.contracted, model._r_key)
    return model.graph._memo(key, lambda: eps_check(model, 1 - r))


def almost_minimalize(model: LogSurfaceModel, kind: str = FIRST) -> AlmostMinDecomposition:
    """Staged construction of an almost minimal model.

    Take a maximal pure partial peeling alpha.  While some curve l (with
    l.K < 0) has a log exceptional image under alpha: contract that image,
    squeeze (run the K-MMP of the composite over its target) and extend the
    residual peeling to a maximal pure one.  When no such curve remains, the
    running model is almost minimal and alpha lands on a minimal model.

    The ladder is one incremental chain, and three sets of answers carry
    from rung to rung.  The squeeze sigma contracts only curves of alpha +
    l, so the peeled model of the next rung, the running model with the
    residual peeling contracted, is the peeled model with l contracted: the
    peelings and the picks step along one chain of ``_contract`` transitions
    and share its ``_step`` answers.  Each sigma starts from the model the
    last one ended on, so sigma is the K-MMP of ``relative_k_mmp`` run on
    the K-step answers the last sigma left (``_greedy`` returns them), each
    target checked by ``_target``.  The K-signs of the running model, which
    decide purity, the pick order and the K-trivial sweep, are kept through
    sigma by ``_kept``: the K-pairing of a curve changes only when the curve
    meets a component that holds a curve sigma contracted.  The first rung's
    peeling is the maximal pure peeling of the start, kept in the graph's
    table for ``peel`` (and read from there when ``peel`` kept it first).

    psi is one elementary-contraction order over the exceptional set T,
    the lowest-id greedy over T (``relative_mmp``).  The kept lowest-id
    maximal run R of the same kinds from the same start agrees with it on
    every pick while R's picks lie in T: both orders go by id, T lies
    outside the contracted set, and whether a step is admitted depends only
    on the curve and the running model, so the least admitted curve of all,
    when it is in T, is the least admitted curve of T.  psi replays R's
    longest prefix inside T and continues with the greedy over T from there;
    with no such R kept, the prefix is empty.
    """
    kinds = _kinds(kind)
    steps: list[Step] = []
    models = [model]
    ladder: list[LadderRung] = []
    alpha: frozenset[str] = frozenset()
    cur = peeled = model  # the running model, and it with alpha contracted
    answers: _Answers = {}  # the _step answers that hold on peeled
    signs: dict[str, int] = {}  # the numerator of K.v on cur
    k_answers: _Answers = {}  # the K-step answers of sigma that hold on cur

    def k_sign(v: str) -> int:
        # asked of the running model once, then read from the kept signs
        if v not in signs:
            signs[v] = cur.k_pairing(v).numerator
        return signs[v]

    while True:
        # extend the residual peeling to a maximal pure one, purity measured
        # on the running model
        order = sorted(v for v in cur.boundary_flagged if v not in alpha and k_sign(v) >= 0)
        if ladder:
            peeling, answers = _greedy(peeled, order, kinds, True, answers)
        else:  # the maximal pure peeling of the start, kept for peel too
            peeling, answers = _kept_run(peeled, _peel_key(peeled, kinds, True), order, kinds)
        alpha |= peeling.exceptional
        peeled = peeling.final
        ladder.append(LadderRung(cur, alpha, _eps_for(cur)))
        order = (v for v in sorted(peeled.noncontracted()) if k_sign(v) < 0)
        pick = next(_admitted(peeled, order, kinds, True, answers), None)
        if pick is None:
            break
        # contracted first, so the target check of sigma finds its set
        peeled, answers = _contract(peeled, pick, answers)
        target = _target(cur, alpha | {pick.vertex})
        sigma, k_answers = _greedy(cur, sorted(target), (FIRST,), False, k_answers)
        steps += sigma.steps
        models += sigma.models[1:]
        cur = sigma.final
        alpha = (alpha | {pick.vertex}) - sigma.exceptional
        comp_of = cur._component_of
        signs = _kept(cur, frozenset().union(*(comp_of[v] for v in sigma.exceptional)), signs)

    if kind == SECOND:
        # maximality of the run: K-trivial curves off the boundary whose
        # images are log exceptional of the second kind are contracted last;
        # these contractions are crepant and log crepant, so they leave the
        # almost minimal model untouched and extend the residual peeling
        flagged = set(cur.boundary_flagged)
        k_trivial = sorted(v for v in peeled.noncontracted() if v not in flagged and k_sign(v) == 0)
        alpha |= _greedy(peeled, k_trivial, (SECOND,), True, {})[0].exceptional

    # one legal elementary-contraction order for the whole run psi
    total = (cur.contracted - model.contracted) | alpha
    psi = _psi(model, total, kinds)
    if psi.exceptional != frozenset(total):  # pragma: no cover - theory guarantee
        raise AssertionError("could not realize the run as elementary contractions")
    am_run = MMPRun(model, tuple(steps), tuple(models))
    return AlmostMinDecomposition(psi, am_run, alpha, tuple(ladder))


def _psi(model: LogSurfaceModel, total: Iterable[str], kinds: Sequence[str]) -> MMPRun:
    """The run of ``relative_mmp(model, total, use_boundary=True)`` of
    ``kinds``: the longest prefix of the kept lowest-id maximal run of
    ``kinds`` from ``model`` whose picks lie in the target T, replayed, then
    ``_greedy`` over T from where the prefix ends.  While a pick of that run
    lies in T it is the least admitted curve of all, so the least admitted
    curve of T, which the greedy over T picks: both take the same steps."""
    target = _target(model, total)
    steps, states = model.graph._answers.get(_run_key(model, kinds, "lowest-id"), ((), ()))
    k = 0
    while k < len(steps) and steps[k].vertex in target:
        k += 1
    prefix = _replay(model, (steps[:k], states[:k]))
    rest = _greedy(prefix.final, sorted(target.difference(prefix.exceptional)), kinds, True, {})[0]
    return MMPRun(model, prefix.steps + rest.steps, prefix.models + rest.models[1:])
