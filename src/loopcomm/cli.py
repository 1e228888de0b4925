"""Command-line front end: checks, the full report, and ad-hoc algebra queries.

Exit codes are a stable contract: 0 for a certificate, 2 for a refusal
(no conclusion), 1 for usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .catalog import (
    DATA_ENV,
    ParameterError,
    check,
    family,
    instantiate,
    report,
)
from .criteria import Certificate, Refusal, conclude_noncommutative
from .gradedalg import (
    hilbert_function,
    is_complete_intersection,
    parse_presentation,
    poly_to_text,
)
from .steenrod import SteenrodOp, char_class_operation, torus_model
from .sullivan import build_formal_model, check_d_squared, print_model

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONCLUSION = 2

_USAGE_ERRORS = (ValueError, LookupError, OSError)


def _emit(payload: dict, text: str, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _certificate_payload(cert: Certificate, conclusion: str) -> dict:
    return {
        "schema_version": 1,
        "kind": "certificate",
        "space": cert.space,
        "criterion": cert.criterion,
        "witness": [[k, v] for k, v in cert.witness],
        "conclusion": conclusion,
        "transcript": [e.to_dict() for e in cert.transcript],
    }


def _certificate_text(cert: Certificate, conclusion: str) -> str:
    lines = [
        "certificate",
        f"space: {cert.space}",
        f"criterion: {cert.criterion}",
        "witness:",
    ]
    lines += [f"  {k} = {v}" for k, v in cert.witness]
    lines.append("transcript:")
    lines += [f"  {i}. {e.render()}" for i, e in enumerate(cert.transcript, start=1)]
    lines.append(f"conclusion: {conclusion}")
    return "\n".join(lines) + "\n"


def _refusal_payload(ref: Refusal) -> dict:
    return {
        "schema_version": 1,
        "kind": "refusal",
        "space": ref.space,
        "criterion": ref.criterion,
        "failed": ref.failed,
        "exception_note": ref.exception_note,
        "conclusion": "no conclusion from the implemented criteria",
        "transcript": [e.to_dict() for e in ref.transcript],
    }


def _refusal_text(ref: Refusal) -> str:
    lines = [
        "no conclusion",
        f"space: {ref.space}",
        f"criterion attempted: {ref.criterion}",
        f"failed: {ref.failed}",
    ]
    if ref.transcript:
        lines.append("transcript:")
        lines += [f"  {i}. {e.render()}" for i, e in enumerate(ref.transcript, start=1)]
    if ref.exception_note:
        lines.append(f"exception: {ref.exception_note}")
    lines.append("conclusion: no conclusion from the implemented criteria")
    return "\n".join(lines) + "\n"


def _cmd_check(args) -> int:
    fam = family(args.family)
    given = tuple(name for name in ("m", "n") if getattr(args, name) is not None)
    if given != fam.param_names:
        flags = " and ".join(f"--{name}" for name in fam.param_names)
        raise ParameterError(f"{fam.id} takes {flags or 'no parameters'}")
    instance = instantiate(fam.id, tuple(getattr(args, name) for name in given))
    result = check(instance)
    if isinstance(result, Certificate):
        conclusion = conclude_noncommutative(result)
        _emit(
            _certificate_payload(conclusion.certificate, conclusion.statement),
            _certificate_text(conclusion.certificate, conclusion.statement),
            args.format,
        )
        return EXIT_OK
    _emit(_refusal_payload(result), _refusal_text(result), args.format)
    return EXIT_NO_CONCLUSION


def _cmd_report(args) -> int:
    if args.max is not None and args.max < 0:
        raise ParameterError(f"--max must be a non-negative parameter cap, got {args.max}")
    rep = report(families=args.family, max_param=args.max)
    _emit(rep.to_dict(), rep.render_text(), args.format)
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    if args.up_to < 0:
        raise ParameterError(f"--up-to must be a non-negative degree, got {args.up_to}")
    with open(args.file, "r", encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
    # the hypotheses first, so a file that fails one is refused before any degree is computed
    verdict = is_complete_intersection(pres) if args.complete_intersection else None
    dims = hilbert_function(pres, args.up_to)
    payload = {
        "schema_version": 1,
        "kind": "hilbert",
        "dimensions": list(dims),
    }
    text = "\n".join(f"{d}: {dim}" for d, dim in enumerate(dims))
    if args.complete_intersection:
        payload["complete_intersection"] = verdict
        text += f"\ncomplete intersection: {verdict}"
    _emit(payload, text, args.format)
    return EXIT_OK


def _cmd_model(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
    model = build_formal_model(pres)
    text = print_model(model)
    payload = {"schema_version": 1, "kind": "model", "model": text}
    if not model.partial:
        ok = check_d_squared(model)
        payload["d_squared_zero"] = ok
        text += f"d^2 = 0: {ok}\n"
    _emit(payload, text, args.format)
    return EXIT_OK


_OP_RE = re.compile(r"(sq|p)([0-9]+)", re.IGNORECASE | re.ASCII)


def _cmd_steenrod(args) -> int:
    m = _OP_RE.fullmatch(args.op)
    if not m:
        raise ParameterError(f"bad operation {args.op!r}; expected e.g. sq2 or p1")
    op_family = "Sq" if m.group(1).lower() == "sq" else "P"
    k = int(m.group(2))
    prime = args.prime if args.prime is not None else 2
    op = SteenrodOp(op_family, k, prime)
    result = char_class_operation(torus_model(args.group, args.rank), getattr(args, "class"), op)
    text = poly_to_text(result)
    payload = {
        "schema_version": 1,
        "kind": "steenrod",
        "group": args.group,
        "rank": args.rank,
        "class": getattr(args, "class"),
        "operation": f"{op_family}^{k}",
        "prime": prime,
        "result": text,
    }
    _emit(payload, text, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcomm",
        description=(
            "Certified non-commutativity checks for loop spaces of irreducible "
            "symmetric spaces. Set " + DATA_ENV + " to override the catalog data directory."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the criterion plan for one space")
    p_check.add_argument("family", help="family id, e.g. AI, CII, EIV")
    p_check.add_argument("--m", type=int, default=None)
    p_check.add_argument("--n", type=int, default=None)
    p_check.add_argument("--format", choices=("text", "structured"), default="text")
    p_check.set_defaults(func=_cmd_check)

    p_report = sub.add_parser("report", help="run desk-scale ranges over the whole table")
    p_report.add_argument("--all", action="store_true", help="all families (default)")
    p_report.add_argument("--family", action="append", help="restrict to a family (repeatable)")
    p_report.add_argument("--max", type=int, default=None, help="cap every parameter")
    p_report.add_argument("--format", choices=("text", "structured"), default="text")
    p_report.set_defaults(func=_cmd_report)

    p_hilbert = sub.add_parser("hilbert", help="graded dimensions of a presentation file")
    p_hilbert.add_argument("--file", required=True)
    p_hilbert.add_argument("--up-to", type=int, required=True, dest="up_to")
    p_hilbert.add_argument(
        "--complete-intersection", action="store_true", dest="complete_intersection"
    )
    p_hilbert.add_argument("--format", choices=("text", "structured"), default="text")
    p_hilbert.set_defaults(func=_cmd_hilbert)

    p_model = sub.add_parser("model", help="formal minimal model of a presentation file")
    p_model.add_argument("--file", required=True)
    p_model.add_argument("--format", choices=("text", "structured"), default="text")
    p_model.set_defaults(func=_cmd_model)

    p_st = sub.add_parser("steenrod", help="operation on a characteristic class")
    p_st.add_argument("--group", required=True, choices=("so", "su", "sp", "spin9", "psp4"))
    p_st.add_argument("--rank", type=int, default=4)
    p_st.add_argument("--class", required=True)
    p_st.add_argument("--op", required=True, help="e.g. sq2 or p1")
    p_st.add_argument("--prime", type=int, default=None)
    p_st.add_argument("--format", choices=("text", "structured"), default="text")
    p_st.set_defaults(func=_cmd_steenrod)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
