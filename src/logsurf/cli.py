"""Command-line surface.

Usage: ``logsurf COMMAND model.json [--r p/q] [--kind first|second]
[--eps p/q] [--strategy lowest-id|boundary-first] [--json] [--out FILE]``.

Exit codes: 0 success, 1 usage error, 2 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from . import mmp
from .classify import classify_germ, classify_half, duval_type, eps_check
from .documents import format_rational, parse_document, parse_rational, to_dot
from .errors import LogSurfError, NotApplicable, ParseError
from .graph import LogSurfaceModel
from .invariants import (
    GermGraph,
    bark_D,
    coefficients_linear,
    discriminant,
    germ_of,
    total_coefficient,
)

COMMANDS = (
    "analyze",
    "discriminant",
    "bark",
    "coeffs",
    "classify",
    "peel",
    "squeeze",
    "redundant",
    "ale",
    "mmp",
    "amm",
    "enumerate-runs",
    "dot",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit with code 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="logsurf", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("model", help="path to a graph document (JSON)")
    p.add_argument("--r", help="uniform boundary coefficient, exact 'p/q'")
    p.add_argument("--kind", choices=("first", "second"), default="first")
    p.add_argument("--eps", help="epsilon for the lc/dlt check, exact 'p/q'")
    p.add_argument(
        "--strategy", choices=("lowest-id", "boundary-first"), default="lowest-id"
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    return p


def _load_model(path: str) -> LogSurfaceModel:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_document(text)


def _q(x: Fraction) -> str:
    return format_rational(x)


def _qmap(d: dict[str, Fraction]) -> dict[str, str]:
    return {k: _q(v) for k, v in sorted(d.items())}


def _verdicts(vs) -> list[dict[str, Any]]:
    return [
        {"vertex": v.vertex, "self_int": _q(v.self_int), "pairing": _q(v.pairing), "kind": v.kind}
        for v in vs
    ]


def _steps(run: mmp.MMPRun) -> list[dict[str, Any]]:
    return [
        {"vertex": s.vertex, "kind": s.kind, "pairing": _q(s.pairing), "self_int": _q(s.self_int)}
        for s in run.steps
    ]


def _eps_payload(v) -> dict[str, Any]:
    return {
        "eps": _q(v.eps),
        "is_lc": v.is_lc,
        "is_dlt": v.is_dlt,
        "tcf": _q(v.tcf),
        "witness": v.witness,
        "witness_cf": _q(v.witness_cf),
        "exact": v.exact,
    }


def _peeling_payload(p: mmp.PeelingData) -> dict[str, Any]:
    return {
        "kind": p.kind,
        "pure": p.pure,
        "exceptional": sorted(p.exceptional),
        "steps": _steps(p.run),
        "gamma": [sorted(c) for c in p.gamma],
        "lambda": [sorted(c) for c in p.lambda_],
        "delta": [sorted(c) for c in p.delta],
        "extra": [sorted(c) for c in p.extra],
    }


def run_command(command: str, model: LogSurfaceModel, args) -> tuple[dict[str, Any], str]:
    """Execute a command; return (json payload, human-readable text)."""
    kind = args.kind
    if command == "analyze":
        eps = parse_rational(args.eps, "--eps") if args.eps else (
            1 - model.r if model.r is not None else Fraction(0)
        )
        tc = total_coefficient(model)
        verdict = eps_check(model, eps)
        result = {
            "vertices": len(model.graph.ids),
            "contracted": sorted(model.contracted),
            "negative_definite_contracted": True,
            "boundary": _qmap(model.boundary_divisor),
            "discriminant": discriminant(model.graph, model.graph.ids),
            "components": [sorted(c) for c in model.graph.connected_components(model.graph.ids)],
            "total_coefficient": _q(tc.value),
            "eps_verdict": _eps_payload(verdict),
            "log_exceptional": _verdicts(
                [v for v in mmp.log_exceptional(model) if v.kind is not None]
            ),
        }
        lines = [
            f"vertices: {result['vertices']}, contracted: {result['contracted']}",
            f"boundary: {result['boundary']}",
            f"discriminant of the full graph: {result['discriminant']}",
            f"total coefficient: {result['total_coefficient']}",
            f"eps = {_q(eps)}: lc = {verdict.is_lc}, dlt = {verdict.is_dlt}"
            f" (witness {verdict.witness}: {_q(verdict.witness_cf)})",
            "log exceptional: "
            + (
                ", ".join(f"{v['vertex']}({v['kind']})" for v in result["log_exceptional"])
                or "none"
            ),
        ]
        return result, "\n".join(lines)

    if command == "discriminant":
        comps = model.graph.connected_components(model.graph.ids)
        result = {
            "all": discriminant(model.graph, model.graph.ids),
            "contracted": discriminant(model.graph, model.contracted),
            "components": {
                "+".join(sorted(c)): discriminant(model.graph, c) for c in comps
            },
        }
        lines = [f"d(whole graph) = {result['all']}", f"d(contracted) = {result['contracted']}"]
        lines += [f"d({k}) = {v}" for k, v in result["components"].items()]
        return result, "\n".join(lines)

    if command == "bark":
        peeling = mmp.peel(model, kind=kind, pure=True)
        bd = bark_D(model.graph, model.boundary_flagged, peeling.exceptional)
        result = {
            "exceptional": sorted(peeling.exceptional),
            "bark": _qmap(bd.coefficients),
            "fork_factor": _q(bd.fork_factor) if bd.fork_factor is not None else None,
        }
        text = "\n".join(f"Bk[{k}] = {v}" for k, v in result["bark"].items()) or "empty bark"
        return result, text

    if command == "coeffs":
        cv = coefficients_linear(model)
        result = {"cf": _qmap(cv.values), "ld": _qmap(cv.complement)}
        text = "\n".join(
            f"cf({k}) = {result['cf'][k]}   ld = {result['ld'][k]}" for k in result["cf"]
        ) or "nothing contracted"
        return result, text

    if command == "classify":
        # with a contracted set, classify each singular point (connected
        # component of the contracted block); otherwise read the whole graph
        # as one germ
        germs = []
        if model.contracted:
            for comp in model.graph.connected_components(model.contracted):
                germs.append(("+".join(sorted(comp)), germ_of(model, comp)))
        else:
            germs.append(("all", GermGraph(model.graph)))
        payload: dict[str, Any] = {"germs": {}}
        for name, germ in germs:
            entry: dict[str, Any] = {"duval": duval_type(germ.graph)}
            try:
                entry["tag"] = classify_germ(germ).tag
            except LogSurfError as exc:
                entry["tag"] = None
                entry["note"] = str(exc)
            for strict, key in ((True, "half_strict"), (False, "half_equal")):
                try:
                    hc = classify_half(germ, strict=strict)
                    entry[key] = {
                        "tag": hc.tag,
                        "formula": hc.formula,
                        "cf": _qmap(hc.coefficients),
                    }
                except NotApplicable:
                    entry[key] = None
            payload["germs"][name] = entry
        text = "\n".join(
            f"{name}: germ class {e['tag']}, du Val type {e['duval']}"
            for name, e in payload["germs"].items()
        )
        return payload, text

    if command == "peel":
        peeling = mmp.peel(model, kind=kind, pure=True)
        result = _peeling_payload(peeling)
        result["coefficients"] = _qmap(
            {v: c for v, c in peeling.model.coefficients.items() if v in peeling.exceptional}
        )
        text = (
            f"peeled ({kind} kind): {result['exceptional']}\n"
            f"gamma={result['gamma']} lambda={result['lambda']} delta={result['delta']}"
            f" extra={result['extra']}\n"
            + "\n".join(f"cf({k}) = {v}" for k, v in result["coefficients"].items())
        )
        return result, text

    if command == "squeeze":
        run = mmp.squeeze(model, kind=kind)
        result = {"steps": _steps(run), "contracted": sorted(run.exceptional)}
        text = "squeezing contracts: " + (", ".join(result["contracted"]) or "nothing")
        return result, text

    if command == "redundant":
        out = mmp.redundant(model, kind=kind)
        result = {
            "redundant": [
                {
                    "vertex": v.vertex,
                    "kind": v.kind,
                    "self_kind": v.self_kind,
                    "case": v.case,
                    "pairing": _q(v.pairing),
                    "self_int": _q(v.self_int),
                    "components": [sorted(c) for c in v.components],
                    "inequality": [_q(v.inequality[0]), _q(v.inequality[1])]
                    if v.inequality
                    else None,
                }
                for v in out
            ]
        }
        text = "\n".join(
            f"{v['vertex']}: case {v['case']}, image kind {v['kind']}"
            for v in result["redundant"]
        ) or "no redundant curves"
        return result, text

    if command == "ale":
        out = mmp.almost_log_exceptional(model, kind=kind)
        result = {
            "almost_log_exceptional": [
                {
                    "vertex": v.vertex,
                    "kind": v.kind,
                    "case": v.case,
                    "case_half": v.case_half,
                    "pairing": _q(v.pairing),
                    "self_int": _q(v.self_int),
                    "components": [sorted(c) for c in v.components],
                }
                for v in out
            ]
        }
        text = "\n".join(
            f"{v['vertex']}: case {v['case']}"
            + (f" / half-case {v['case_half']}" if v["case_half"] else "")
            + f", kind {v['kind']}"
            for v in result["almost_log_exceptional"]
        ) or "no almost log exceptional curves"
        return result, text

    if command == "mmp":
        run = mmp.run_mmp(model, kind=kind, strategy=args.strategy)
        result = {
            "steps": _steps(run),
            "final_contracted": sorted(run.final_contracted),
            "remaining_vertices": len(run.final.noncontracted()),
        }
        text = (
            "\n".join(
                f"contract {s['vertex']} ({s['kind']}; pairing {s['pairing']})"
                for s in result["steps"]
            )
            or "already minimal"
        ) + f"\nfinal contracted: {result['final_contracted']}"
        return result, text

    if command == "amm":
        decomp = mmp.almost_minimalize(model, kind=kind)
        am_verdicts = []
        for m in decomp.am.models:
            r = m.r
            am_verdicts.append(_eps_payload(eps_check(m, 1 - r)) if r is not None else None)
        result = {
            "am_steps": _steps(decomp.am),
            "run_steps": _steps(decomp.run),
            "min_exceptional": sorted(decomp.min_exceptional),
            "almost_minimal_contracted": sorted(decomp.almost_minimal_model.contracted),
            "ladder": [
                {
                    "contracted": sorted(r.model.contracted),
                    "peeling": sorted(r.peeling_exc),
                    "eps_verdict": _eps_payload(r.verdict) if r.verdict else None,
                }
                for r in decomp.ladder
            ],
            "intermediate_eps": am_verdicts,
        }
        final = decomp.almost_minimal_model
        verdict = None
        if final.r is not None:
            verdict = eps_check(final, 1 - final.r)
            result["final_eps"] = _eps_payload(verdict)
        lines = [
            "almost minimalization contracts: "
            + (", ".join(s["vertex"] for s in result["am_steps"]) or "nothing"),
            f"residual peeling: {result['min_exceptional']}",
        ]
        if verdict is not None:
            tag = "" if verdict.is_lc else "not "
            lines.append(
                f"almost minimal model is {tag}(1-r)-lc"
                f" (witness {verdict.witness}: cf = {_q(verdict.witness_cf)});"
                f" dlt: {verdict.is_dlt}"
            )
        return result, "\n".join(lines)

    if command == "enumerate-runs":
        runs = mmp.enumerate_runs(model, kind=kind)
        result = {
            "count": len(runs),
            "runs": [
                {"exceptional": sorted(r.exceptional), "steps": _steps(r)} for r in runs
            ],
        }
        text = f"{len(runs)} maximal run(s):\n" + "\n".join(
            "  " + "+".join(r["exceptional"]) for r in result["runs"]
        )
        return result, text

    raise NotApplicable(f"unknown command {command!r}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model = _load_model(args.model)
        if args.r is not None:
            model = LogSurfaceModel(
                model.graph, model.contracted, parse_rational(args.r, "--r")
            )
        if args.command == "dot":
            output = to_dot(model, name=Path(args.model).stem)
            payload = {"command": "dot", "input": args.model, "result": {"dot": output}}
            text = output
        else:
            result, text = run_command(args.command, model, args)
            payload = {
                "command": args.command,
                "input": args.model,
                "options": {
                    "r": args.r,
                    "kind": args.kind,
                    "eps": args.eps,
                    "strategy": args.strategy,
                },
                "result": result,
            }
        out = json.dumps(payload, indent=2) + "\n" if args.json else text.rstrip("\n") + "\n"
        if args.out:
            try:
                Path(args.out).write_text(out)
            except OSError as exc:
                raise LogSurfError(f"cannot write --out {args.out}: {exc.strerror}") from None
        else:
            sys.stdout.write(out)
        return 0
    except LogSurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
