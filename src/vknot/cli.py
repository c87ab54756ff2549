"""Command-line front end.

One subcommand per task; JSON on stdout by default (``--format csv|text``
for tabular or human output), diagnostics on stderr.  Exit codes: 0 ok,
1 usage, 2 parse/validation failure, 3 uncolorable diagram, 4 internal
assertion.  All randomness flows from an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import biquandle as bq
from . import moves
from .coloring import lambda_coloring, propagate_coloring, \
    serialize_coloring
from .diagram_ops import mirror, reverse, smooth_zero_weight, \
    switch_crossings, virtualize, writhe
from .errors import ParseError, UncolorableError, ValidationError
from .gauss_code import canonicalize, forget, parse_flat, \
    parse_signed, serialize
from .invariant import _polynomial_from_weights, affine_index_polynomial, \
    crossing_weights, flat_nontriviality_certificate, graph_polynomial, \
    make_singular, symbolic_link_weights, vassiliev_invariant

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_UNCOLORABLE = 3
EXIT_INTERNAL = 4

CSV_COLUMNS = ("code", "writhe", "polynomial", "v2", "v3", "v4")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_ids(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"bad id list {text!r}") from exc


def _parse_offsets(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"bad offsets {text!r}") from exc


def _knot_result(code) -> dict:
    coloring = lambda_coloring(code) if len(code.components) == 1 else None
    if coloring is None:
        raise _UsageError("this subcommand needs a one-component code; "
                          "use link-invariant for links")
    table = crossing_weights(code, coloring)
    pairs = table.signed_weights()
    return {
        "code": serialize(code),
        "canonical": serialize(canonicalize(code)),
        "writhe": writhe(code),
        "coloring": serialize_coloring(coloring),
        "weights": [{"id": e.crossing, "sign": e.sign,
                     "Wplus": e.w_plus, "W": e.weight}
                    for e in table.entries],
        "polynomial": str(_polynomial_from_weights(table)),
        "vassiliev": {str(n): str(vassiliev_invariant(pairs, n))
                      for n in range(1, 5)},
    }


def _emit(result, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(result, indent=2), file=out)
    elif fmt == "csv":
        rows = result if isinstance(result, list) else [result]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row.get(col, "") for col in
                             ("code", "writhe", "polynomial")]
                            + [row.get("vassiliev", {}).get(k, "")
                               for k in ("2", "3", "4")])
        out.write(buf.getvalue())
    else:
        _emit_text(result, out)


def _emit_text(result, out) -> None:
    if isinstance(result, list):
        for item in result:
            _emit_text(item, out)
        return
    if isinstance(result, dict):
        for key, value in result.items():
            print(f"{key}: {value}", file=out)
        return
    print(result, file=out)


def _cmd_parse(args, out):
    text = args.code
    first = text.strip().split()
    flat = bool(first) and first[0] and first[0][0] in ("L", "R")
    code = parse_flat(text) if flat else parse_signed(text)
    result = {
        "kind": "flat" if flat else "signed",
        "code": serialize(code),
        "canonical": serialize(canonicalize(code)),
        "components": len(code.components),
        "crossings": code.n_crossings(),
    }
    if not flat:
        result["writhe"] = writhe(code)
    _emit(result, args.format, out)
    return EXIT_OK


def _cmd_invariant(args, out):
    code = parse_signed(args.code)
    _emit(_knot_result(code), args.format, out)
    return EXIT_OK


def _cmd_link_invariant(args, out):
    code = parse_signed(args.code)
    offsets = _parse_offsets(args.offsets) if args.offsets else None
    coloring = propagate_coloring(code, offsets)
    table = crossing_weights(code, coloring)
    _emit({
        "code": serialize(code),
        "offsets": list(offsets) if offsets else [0] * len(code.components),
        "coloring": serialize_coloring(coloring),
        "weights": [{"id": e.crossing, "sign": e.sign,
                     "Wplus": e.w_plus, "W": e.weight}
                    for e in table.entries],
        "polynomial": str(_polynomial_from_weights(table)),
    }, args.format, out)
    return EXIT_OK


def _cmd_symbolic_weights(args, out):
    code = parse_signed(args.code)
    weights = symbolic_link_weights(code)
    _emit({
        "code": serialize(code),
        "weights": [{"id": w.crossing, "sign": w.sign, "constant": w.constant,
                     "plus_component": w.plus_component,
                     "minus_component": w.minus_component,
                     "expr": str(w)}
                    for w in weights],
    }, args.format, out)
    return EXIT_OK


def _cmd_vassiliev(args, out):
    code = parse_signed(args.code)
    if len(code.components) != 1:
        raise _UsageError("vassiliev needs a one-component code")
    table = crossing_weights(code)
    pairs = table.signed_weights()
    _emit({
        "code": serialize(code),
        "weights": [[e.sign, e.weight] for e in table.entries],
        "vassiliev": {str(n): str(vassiliev_invariant(pairs, n))
                      for n in range(1, args.max_order + 1)},
    }, args.format, out)
    return EXIT_OK


def _cmd_transform(args, out):
    code = parse_signed(args.code)
    chosen = [name for name, value in
              (("mirror", args.mirror), ("reverse", args.reverse),
               ("switch", args.switch), ("virtualize", args.virtualize),
               ("smooth-zero", args.smooth_zero))
              if value]
    if len(chosen) != 1:
        raise _UsageError("choose exactly one transform")
    result = {"code": serialize(code), "transform": chosen[0]}
    if args.mirror:
        transformed = mirror(code)
    elif args.reverse:
        transformed = reverse(code)
    elif args.switch:
        transformed = switch_crossings(code, _parse_ids(args.switch))
    elif args.virtualize:
        transformed = virtualize(code, _parse_ids(args.virtualize))
    else:
        coloring = propagate_coloring(code)
        transformed, new_coloring = smooth_zero_weight(code, coloring)
        result["coloring"] = serialize_coloring(new_coloring)
    result["output"] = serialize(transformed)
    result["canonical"] = serialize(canonicalize(transformed))
    _emit(result, args.format, out)
    return EXIT_OK


def _cmd_moves(args, out):
    code = parse_signed(args.code)
    before = affine_index_polynomial(code) if len(code.components) == 1 else None
    result = moves.random_walk(code, args.walk, args.seed)
    payload = {
        "code": serialize(code),
        "steps": args.walk,
        "seed": args.seed,
        "output": serialize(result.code),
        "trace": list(result.trace),
    }
    if before is not None:
        payload["polynomial_before"] = str(before)
        payload["polynomial_after"] = str(affine_index_polynomial(result.code))
    _emit(payload, args.format, out)
    return EXIT_OK


def _cmd_verify(args, out):
    codes = [parse_signed(text) for text in args.codes] or _default_seeds()
    report = moves.invariance_report(codes, args.steps, args.trials, args.seed)
    _emit({
        "seeds": [serialize(c) for c in codes],
        "trials": report.trials,
        "passed": report.passed,
        "failures": [{"seed_index": f.seed_index, "trial": f.trial,
                      "before": f.before, "after": f.after,
                      "trace": list(f.trace)}
                     for f in report.failures],
        "ok": report.ok,
    }, args.format, out)
    return EXIT_OK if report.ok else EXIT_INTERNAL


def _default_seeds():
    return [parse_signed(text) for text in (
        "O1+ O2+ U1+ U2+",
        "O1+ U2+ O3+ U1+ O2+ U3+",
        "O1- U2+ O3+ U1- O2+ U3+",
        "O1+ O2+ U1+ O3+ U2+ U3+",
        "O1+ U1+",
    )]


def _cmd_flat(args, out):
    flat = parse_flat(args.code)
    if not args.certificate:
        raise _UsageError("flat requires --certificate")
    cert = flat_nontriviality_certificate(flat)
    _emit({
        "code": serialize(flat),
        "crossings": flat.n_crossings(),
        "certified": cert.certified,
        "witness": serialize(cert.witness) if cert.witness is not None else None,
        "polynomials": [str(p) for p in cert.polynomials],
    }, args.format, out)
    return EXIT_OK


def _cmd_graph(args, out):
    code = parse_signed(args.code)
    singular = make_singular(code, _parse_ids(args.singular))
    poly = graph_polynomial(singular)
    _emit({
        "code": serialize(code),
        "singular": _parse_ids(args.singular),
        "polynomial": str(poly),
    }, args.format, out)
    return EXIT_OK


def _read_table(path: str) -> bq.FiniteFlatBiquandle:
    with open(path, encoding="utf-8") as handle:
        return bq.table_from_text(handle.read())


def _cmd_biquandle(args, out):
    if args.action in ("color", "doodle") and args.arg2 is None:
        raise _UsageError(f"biquandle {args.action} needs CODE and FILE")
    if args.action == "search":
        try:
            n = int(args.arg1)
        except ValueError as exc:
            raise _UsageError(f"bad carrier size {args.arg1!r}") from exc
        found = bq.search_affine(n)
        if args.format == "text":
            for params in found:
                print(params.as_line(), file=out)
        else:
            _emit([{"n": p.n, "r": p.r, "s": p.s, "k": p.k,
                    "p": p.p, "q": p.q, "l": p.l} for p in found],
                  args.format, out)
        return EXIT_OK
    if args.action == "check":
        table = _read_table(args.arg1)
        report = bq.check_axioms(table)
        _emit({
            "n": table.n,
            "axiom1": "pass" if report.axiom1 is None else list(report.axiom1),
            "axiom2": "pass" if report.axiom2 is None else list(report.axiom2),
            "axiom3": "pass" if report.axiom3 is None else list(report.axiom3),
            "is_preflat": report.is_preflat,
            "is_flat_biquandle": report.is_flat_biquandle,
            "weight_condition": "pass" if bq.weight_condition(table) is None
                                else list(bq.weight_condition(table)),
        }, args.format, out)
        return EXIT_OK
    if args.action == "color":
        flat = parse_flat(args.arg1)
        table = _read_table(args.arg2)
        colorings = bq.enumerate_colorings_fast(flat, table)
        _emit({
            "code": serialize(flat),
            "n": table.n,
            "count": len(colorings),
            "colorings": [" ; ".join(",".join(str(x) for x in comp)
                                     for comp in labels)
                          for labels in colorings],
        }, args.format, out)
        return EXIT_OK
    if args.action == "doodle":
        code = parse_signed(args.arg1)
        table = _read_table(args.arg2)
        flat = forget(code)
        colorings = bq.enumerate_colorings_fast(flat, table)
        vectors = [list(bq.doodle_pre_invariant(code, table, labels))
                   for labels in colorings]
        _emit({
            "code": serialize(code),
            "n": table.n,
            "colorings": len(colorings),
            "vectors": vectors,
            "sum": list(bq.doodle_invariant_sum(code, table)),
        }, args.format, out)
        return EXIT_OK
    raise _UsageError(f"unknown biquandle action {args.action!r}")


def _cmd_batch(args, out):
    records = []
    with open(args.input, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            record = {"line": lineno, "code": text}
            try:
                record.update(_knot_result(parse_signed(text)))
            except (ParseError, ValidationError, _UsageError, ValueError) as exc:
                record["error"] = str(exc)
            records.append(record)
    _emit(records, args.format, out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="vknot", description=__doc__)
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse");            p.add_argument("code")
    p = sub.add_parser("invariant");        p.add_argument("code")
    p = sub.add_parser("link-invariant")
    p.add_argument("--offsets", default="")
    p.add_argument("code")
    p = sub.add_parser("symbolic-weights"); p.add_argument("code")
    p = sub.add_parser("vassiliev")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("code")
    p = sub.add_parser("transform")
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--switch", default="")
    p.add_argument("--virtualize", default="")
    p.add_argument("--smooth-zero", action="store_true")
    p.add_argument("code")
    p = sub.add_parser("moves")
    p.add_argument("--walk", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("code")
    p = sub.add_parser("verify")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("codes", nargs="*")
    p = sub.add_parser("flat")
    p.add_argument("--certificate", action="store_true")
    p.add_argument("code")
    p = sub.add_parser("graph")
    p.add_argument("--singular", required=True)
    p.add_argument("code")
    p = sub.add_parser("biquandle")
    p.add_argument("action", choices=("search", "check", "color", "doodle"))
    p.add_argument("arg1")
    p.add_argument("arg2", nargs="?")
    p = sub.add_parser("batch")
    p.add_argument("--input", required=True)
    return parser


_COMMANDS = {
    "parse": _cmd_parse,
    "invariant": _cmd_invariant,
    "link-invariant": _cmd_link_invariant,
    "symbolic-weights": _cmd_symbolic_weights,
    "vassiliev": _cmd_vassiliev,
    "transform": _cmd_transform,
    "moves": _cmd_moves,
    "verify": _cmd_verify,
    "flat": _cmd_flat,
    "graph": _cmd_graph,
    "biquandle": _cmd_biquandle,
    "batch": _cmd_batch,
}


def execute(argv, stdout=None, stderr=None) -> int:
    """Run one CLI invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        handler = _COMMANDS[args.command]
        return handler(args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except (ParseError, ValidationError) as exc:
        print(f"invalid input: {exc}", file=err)
        return EXIT_INVALID
    except UncolorableError as exc:
        print(f"uncolorable: {exc}", file=err)
        return EXIT_UNCOLORABLE
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=err)
        return EXIT_INVALID
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=err)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
