"""Command-line surface.

Usage: ``logsurf COMMAND model.json [--r p/q] [--kind first|second]
[--eps p/q] [--strategy lowest-id|boundary-first] [--json] [--out FILE]``.

Exit codes: 0 success, 1 usage error, 2 domain error.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from . import mmp
from .classify import classify_germ, classify_half, duval_type, eps_check
from .documents import format_rational, json_text, parse_document, parse_rational, to_dot
from .errors import CoeffOutOfRange, LogSurfError, NotApplicable, ParseError, TooLarge
from .graph import LogSurfaceModel
from .invariants import (
    GermGraph,
    bark_D,
    coefficients_linear,
    discriminant,
    germ_of,
    total_coefficient,
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
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return parse_document(text)


def _json(x: Any) -> Any:
    """The report form of a library value: rationals as "p/q" strings, sets
    as sorted lists, dataclasses as objects in field order."""
    t = type(x)
    if t is str or t is int or t is bool or x is None:
        return x
    if isinstance(x, dict):
        return {k: _json(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_json(v) for v in x]
    if t is Fraction or isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, (set, frozenset)):
        return [_json(v) for v in sorted(x)]
    if is_dataclass(x):
        return {f.name: _json(getattr(x, f.name)) for f in fields(x)}
    return x


# command name -> (function (model, args) -> (result, text), whether the
# report echoes the options); the order is the order of COMMANDS
_TABLE: dict[str, tuple[Callable, bool]] = {}


def _command(name: str, options: bool = True) -> Callable:
    def register(fn: Callable) -> Callable:
        _TABLE[name] = (fn, options)
        return fn

    return register


@_command("analyze")
def _analyze(model: LogSurfaceModel, args) -> tuple[dict, str]:
    if args.eps is None:
        eps = 1 - model.r if model.r is not None else Fraction(0)
    else:
        eps = parse_rational(args.eps, "--eps")
        if not 0 <= eps <= 1:
            raise CoeffOutOfRange(f"--eps: {format_rational(eps)} not in [0,1]")
    result = _json({
        "vertices": len(model.graph.ids),
        "contracted": model.contracted,
        "negative_definite_contracted": True,
        "boundary": dict(sorted(model.boundary_divisor.items())),
        "discriminant": discriminant(model.graph, model.graph.ids),
        "components": model.graph.connected_components(model.graph.ids),
        "total_coefficient": total_coefficient(model).value,
        "eps_verdict": eps_check(model, eps),
        "log_exceptional": [v for v in mmp.log_exceptional(model) if v.kind is not None],
    })
    ev = result["eps_verdict"]
    lines = [
        f"vertices: {result['vertices']}, contracted: {result['contracted']}",
        f"boundary: {result['boundary']}",
        f"discriminant of the full graph: {result['discriminant']}",
        f"total coefficient: {result['total_coefficient']}",
        f"eps = {ev['eps']}: lc = {ev['is_lc']}, dlt = {ev['is_dlt']}"
        f" (witness {ev['witness']}: {ev['witness_cf']})",
        "log exceptional: "
        + (", ".join(f"{v['vertex']}({v['kind']})" for v in result["log_exceptional"]) or "none"),
    ]
    return result, "\n".join(lines)


@_command("discriminant")
def _discriminant(model: LogSurfaceModel, args) -> tuple[dict, str]:
    comps = model.graph.connected_components(model.graph.ids)
    result = {
        "all": discriminant(model.graph, model.graph.ids),
        "contracted": discriminant(model.graph, model.contracted),
        "components": {"+".join(sorted(c)): discriminant(model.graph, c) for c in comps},
    }
    lines = [f"d(whole graph) = {result['all']}", f"d(contracted) = {result['contracted']}"]
    lines += [f"d({k}) = {v}" for k, v in result["components"].items()]
    return result, "\n".join(lines)


@_command("bark")
def _bark(model: LogSurfaceModel, args) -> tuple[dict, str]:
    peeling = mmp.peel(model, kind=args.kind, pure=True)
    bd = bark_D(model.graph, model.boundary_flagged, peeling.exceptional)
    result = _json({
        "exceptional": peeling.exceptional,
        "bark": dict(sorted(bd.coefficients.items())),
        "fork_factor": bd.fork_factor,
    })
    text = "\n".join(f"Bk[{k}] = {v}" for k, v in result["bark"].items()) or "empty bark"
    return result, text


@_command("coeffs")
def _coeffs(model: LogSurfaceModel, args) -> tuple[dict, str]:
    cv = coefficients_linear(model)
    result = _json({"cf": dict(sorted(cv.values.items())), "ld": dict(sorted(cv.complement.items()))})
    text = "\n".join(
        f"cf({k}) = {result['cf'][k]}   ld = {result['ld'][k]}" for k in result["cf"]
    ) or "nothing contracted"
    return result, text


@_command("classify")
def _classify(model: LogSurfaceModel, args) -> tuple[dict, str]:
    # with a contracted set, classify each singular point (connected
    # component of the contracted block); otherwise read the whole graph as
    # one germ
    if model.contracted:
        germs = {
            "+".join(sorted(comp)): germ_of(model, comp)
            for comp in model.graph.connected_components(model.contracted)
        }
    else:
        germs = {"all": GermGraph(model.graph)}
    result: dict[str, Any] = {"germs": {}}
    for name, germ in germs.items():
        entry: dict[str, Any] = {"duval": duval_type(germ.graph)}
        try:
            entry["tag"] = classify_germ(germ).tag
        except LogSurfError as exc:
            entry["tag"] = None
            entry["note"] = str(exc)
        for strict, key in ((True, "half_strict"), (False, "half_equal")):
            try:
                hc = classify_half(germ, strict=strict)
                entry[key] = _json(
                    {"tag": hc.tag, "formula": hc.formula, "cf": dict(sorted(hc.coefficients.items()))}
                )
            except NotApplicable:
                entry[key] = None
        result["germs"][name] = entry
    text = "\n".join(
        f"{name}: germ class {e['tag']}, du Val type {e['duval']}"
        for name, e in result["germs"].items()
    )
    return result, text


@_command("peel")
def _peel(model: LogSurfaceModel, args) -> tuple[dict, str]:
    p = mmp.peel(model, kind=args.kind, pure=True)
    cf = p.model.coefficients
    result = _json({
        "kind": p.kind,
        "pure": p.pure,
        "exceptional": p.exceptional,
        "steps": p.run.steps,
        "gamma": p.gamma,
        "lambda": p.lambda_,
        "delta": p.delta,
        "extra": p.extra,
        "coefficients": {v: cf[v] for v in sorted(cf) if v in p.exceptional},
    })
    text = (
        f"peeled ({args.kind} kind): {result['exceptional']}\n"
        f"gamma={result['gamma']} lambda={result['lambda']} delta={result['delta']}"
        f" extra={result['extra']}\n"
        + "\n".join(f"cf({k}) = {v}" for k, v in result["coefficients"].items())
    )
    return result, text


@_command("squeeze")
def _squeeze(model: LogSurfaceModel, args) -> tuple[dict, str]:
    run = mmp.squeeze(model, kind=args.kind)
    result = _json({"steps": run.steps, "contracted": run.exceptional})
    text = "squeezing contracts: " + (", ".join(result["contracted"]) or "nothing")
    return result, text


@_command("redundant")
def _redundant(model: LogSurfaceModel, args) -> tuple[dict, str]:
    result = _json({"redundant": mmp.redundant(model, kind=args.kind)})
    text = "\n".join(
        f"{v['vertex']}: case {v['case']}, image kind {v['kind']}" for v in result["redundant"]
    ) or "no redundant curves"
    return result, text


@_command("ale")
def _ale(model: LogSurfaceModel, args) -> tuple[dict, str]:
    result = _json({"almost_log_exceptional": mmp.almost_log_exceptional(model, kind=args.kind)})
    text = "\n".join(
        f"{v['vertex']}: case {v['case']}"
        + (f" / half-case {v['case_half']}" if v["case_half"] else "")
        + f", kind {v['kind']}"
        for v in result["almost_log_exceptional"]
    ) or "no almost log exceptional curves"
    return result, text


@_command("mmp")
def _mmp(model: LogSurfaceModel, args) -> tuple[dict, str]:
    run = mmp.run_mmp(model, kind=args.kind, strategy=args.strategy)
    result = _json({
        "steps": run.steps,
        "final_contracted": run.final_contracted,
        "remaining_vertices": len(run.final.noncontracted()),
    })
    text = (
        "\n".join(
            f"contract {s['vertex']} ({s['kind']}; pairing {s['pairing']})"
            for s in result["steps"]
        )
        or "already minimal"
    ) + f"\nfinal contracted: {result['final_contracted']}"
    return result, text


@_command("amm")
def _amm(model: LogSurfaceModel, args) -> tuple[dict, str]:
    decomp = mmp.almost_minimalize(model, kind=args.kind)
    final = decomp.almost_minimal_model
    result = {
        "am_steps": decomp.am.steps,
        "run_steps": decomp.run.steps,
        "min_exceptional": decomp.min_exceptional,
        "almost_minimal_contracted": final.contracted,
        "ladder": [
            {"contracted": r.model.contracted, "peeling": r.peeling_exc, "eps_verdict": r.verdict}
            for r in decomp.ladder
        ],
        # the per-state verdict the ladder memoized: each rung model is a hit
        "intermediate_eps": [mmp._eps_for(m) for m in decomp.am.models],
    }
    if final.r is not None:
        result["final_eps"] = mmp._eps_for(final)
    result = _json(result)
    lines = [
        "almost minimalization contracts: "
        + (", ".join(s["vertex"] for s in result["am_steps"]) or "nothing"),
        f"residual peeling: {result['min_exceptional']}",
    ]
    if "final_eps" in result:
        v = result["final_eps"]
        lines.append(
            f"almost minimal model is {'' if v['is_lc'] else 'not '}(1-r)-lc"
            f" (witness {v['witness']}: cf = {v['witness_cf']}); dlt: {v['is_dlt']}"
        )
    return result, "\n".join(lines)


@_command("enumerate-runs")
def _enumerate_runs(model: LogSurfaceModel, args) -> tuple[dict, str]:
    runs = mmp.enumerate_runs(model, kind=args.kind)
    result = _json({
        "count": len(runs),
        "runs": [{"exceptional": r.exceptional, "steps": r.steps} for r in runs],
    })
    text = f"{len(runs)} maximal run(s):\n" + "\n".join(
        "  " + "+".join(r["exceptional"]) for r in result["runs"]
    )
    return result, text


@_command("dot", options=False)
def _dot(model: LogSurfaceModel, args) -> tuple[dict, str]:
    output = to_dot(model, name=Path(args.model).stem)
    return {"dot": output}, output


COMMANDS = tuple(_TABLE)


_PARSER = build_parser()


def run_command(command: str, model: LogSurfaceModel, args) -> tuple[dict[str, Any], str]:
    """Execute a command; return (json payload, human-readable text)."""
    if command not in _TABLE:
        raise NotApplicable(f"unknown command {command!r}")
    return _TABLE[command][0](model, args)


def _write_out(path: str, out: str) -> None:
    """Write the report over the file at ``path`` in place, as UTF-8, then
    cut a regular file to the report's length.  Opening without O_TRUNC
    keeps the old report's blocks for the new one, which costs far less
    than freeing and allocating them on every call.  The report is encoded
    before the file is opened, and a regular file is cut where the write
    stopped even when it fails partway, so no tail of the old report is
    left behind the new one."""
    try:
        data = memoryview(out.encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise LogSurfError(f"cannot write --out {path} ({exc.encoding}): {exc.reason}") from None
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            try:
                while data:
                    data = data[fh.write(data):]
            finally:
                if regular:
                    fh.truncate()
    except OSError as exc:
        raise LogSurfError(f"cannot write --out {path}: {exc.strerror}") from None


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        model = _load_model(args.model)
        if args.r is not None:
            model = LogSurfaceModel(
                model.graph, model.contracted, parse_rational(args.r, "--r")
            )
        try:  # the report's numbers become text here and in json_text
            result, text = run_command(args.command, model, args)
            payload: dict[str, Any] = {"command": args.command, "input": args.model}
            if _TABLE[args.command][1]:
                payload["options"] = {
                    "r": args.r, "kind": args.kind, "eps": args.eps, "strategy": args.strategy
                }
            payload["result"] = result
            out = json_text(payload) + "\n" if args.json else text.rstrip("\n") + "\n"
        except ValueError as exc:
            # only an integer beyond the interpreter's digit limit is a domain
            # error; any other ValueError is a fault of the program
            if "integer string conversion" not in str(exc):
                raise
            raise TooLarge(
                f"a report number has more than {sys.get_int_max_str_digits()} digits"
            ) from None
        if args.out:
            _write_out(args.out, out)
        else:
            try:
                sys.stdout.write(out)
            except UnicodeEncodeError as exc:
                raise LogSurfError(
                    f"cannot write the report to stdout ({exc.encoding}): {exc.reason};"
                    " use --json or --out"
                ) from None
        return 0
    except LogSurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
