"""Command-line front end: checks, the full report, and ad-hoc algebra queries.

Exit codes are a stable contract: 0 for a certificate, 2 for a refusal
(no conclusion), 1 for usage or data errors.

A process imports only what its command runs: `hilbert` loads `gradedalg`,
`model` adds `sullivan`, and only `check` and `report` load the catalog.  The
package names the handlers use are resolved on first access by the module
`__getattr__` below, and the handlers call them as attributes of this module,
so a wrapper set on `loopcomm.cli` is what runs.
"""

from __future__ import annotations

import re
import sys
from importlib import import_module

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONCLUSION = 2

_USAGE_ERRORS = (ValueError, LookupError, OSError)

# name -> the loopcomm module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("DATA_ENV", "ParameterError", "check", "family", "instantiate", "report"), "catalog"),
    **dict.fromkeys(("Certificate", "conclude_noncommutative"), "criteria"),
    **dict.fromkeys(
        ("hilbert_function", "is_complete_intersection", "parse_presentation", "poly_to_text"), "gradedalg"
    ),
    **dict.fromkeys(("SteenrodOp", "char_class_operation", "torus_model"), "steenrod"),
    **dict.fromkeys(("build_formal_model", "check_d_squared", "print_model"), "sullivan"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value, quote, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for str, int, bool, None, and lists, tuples and str-keyed dicts of them.

    `quote` is json's own string encoder; `indent` is the newline and
    indentation that precede the closing bracket of value.
    """
    if isinstance(value, str):
        return quote(value)
    if value is None or isinstance(value, bool):
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{quote(key)}: {_json_text(v, quote, inner)}" for key, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, quote, inner) for v in value]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(fmt: str, payload, text) -> None:
    """Print `payload()` as JSON or `text()`, building only the one asked for.

    The JSON is written by _json_text, byte for byte as json.dumps(indent=2)
    writes it, so no process imports the json package.
    """
    if fmt == "structured":
        from _json import encode_basestring_ascii

        print(_json_text(payload(), encode_basestring_ascii))
    else:
        out = text()
        print(out, end="" if out.endswith("\n") else "\n")


def _certificate_payload(cert, conclusion: str) -> dict:
    return {
        "schema_version": 1,
        "kind": "certificate",
        "space": cert.space,
        "criterion": cert.criterion,
        "witness": [[k, v] for k, v in cert.witness],
        "conclusion": conclusion,
        "transcript": [e.to_dict() for e in cert.transcript],
    }


def _certificate_text(cert, conclusion: str) -> str:
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


def _refusal_payload(ref) -> dict:
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


def _refusal_text(ref) -> str:
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


def _read_presentation(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _cli.parse_presentation(fh.read())


def _cmd_check(opts: dict) -> int:
    fam = _cli.family(opts["family"])
    given = tuple(name for name in ("m", "n") if opts[name] is not None)
    if given != fam.param_names:
        flags = " and ".join(f"--{name}" for name in fam.param_names)
        raise _cli.ParameterError(f"{fam.id} takes {flags or 'no parameters'}")
    result = _cli.check(_cli.instantiate(fam.id, tuple(opts[name] for name in given)))
    if isinstance(result, _cli.Certificate):
        conclusion = _cli.conclude_noncommutative(result)
        cert, statement = conclusion.certificate, conclusion.statement
        _emit(
            opts["format"],
            lambda: _certificate_payload(cert, statement),
            lambda: _certificate_text(cert, statement),
        )
        return EXIT_OK
    _emit(opts["format"], lambda: _refusal_payload(result), lambda: _refusal_text(result))
    return EXIT_NO_CONCLUSION


def _cmd_report(opts: dict) -> int:
    rep = _cli.report(families=opts["family"], max_param=opts["max"])
    _emit(opts["format"], rep.to_dict, rep.render_text)
    return EXIT_OK


def _cmd_hilbert(opts: dict) -> int:
    pres = _read_presentation(opts["file"])
    # the hypotheses first, so a file that fails one is refused before any degree is computed
    verdict = _cli.is_complete_intersection(pres) if opts["complete_intersection"] else None
    dims = _cli.hilbert_function(pres, opts["up_to"])

    def payload() -> dict:
        out = {"schema_version": 1, "kind": "hilbert", "dimensions": list(dims)}
        if verdict is not None:
            out["complete_intersection"] = verdict
        return out

    def text() -> str:
        out = "\n".join(f"{d}: {dim}" for d, dim in enumerate(dims))
        return out if verdict is None else f"{out}\ncomplete intersection: {verdict}"

    _emit(opts["format"], payload, text)
    return EXIT_OK


def _cmd_model(opts: dict) -> int:
    model = _cli.build_formal_model(_read_presentation(opts["file"]))
    ok = None if model.partial else _cli.check_d_squared(model)

    def payload() -> dict:
        out = {"schema_version": 1, "kind": "model", "model": _cli.print_model(model)}
        if ok is not None:
            out["d_squared_zero"] = ok
        return out

    def text() -> str:
        out = _cli.print_model(model)
        return out if ok is None else f"{out}d^2 = 0: {ok}\n"

    _emit(opts["format"], payload, text)
    return EXIT_OK


def _cmd_steenrod(opts: dict) -> int:
    m = re.fullmatch(r"(sq|p)([0-9]+)", opts["op"], re.IGNORECASE | re.ASCII)
    if not m:
        raise ArgvError(f"bad operation {opts['op']!r}; expected e.g. sq2 or p1")
    op_family = "Sq" if m.group(1).lower() == "sq" else "P"
    k = int(m.group(2))
    prime = opts["prime"] if opts["prime"] is not None else 2
    op = _cli.SteenrodOp(op_family, k, prime)
    result = _cli.poly_to_text(
        _cli.char_class_operation(_cli.torus_model(opts["group"], opts["rank"]), opts["class"], op)
    )

    def payload() -> dict:
        return {
            "schema_version": 1,
            "kind": "steenrod",
            "group": opts["group"],
            "rank": opts["rank"],
            "class": opts["class"],
            "operation": f"{op_family}^{k}",
            "prime": prime,
            "result": result,
        }

    _emit(opts["format"], payload, lambda: result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argv

_REQUIRED = "required"  # the default of an option that must be given
_FORMAT = ("--format", ("text", "structured"), "text", "", None)

# The command line: command -> (handler, help, positional, options).  The
# positional is (name, help) or None.  An option is (flag, kind, default,
# help, noun): kind is "int", "str", "flag" (true when given), "append"
# (repeatable, a list) or a tuple of choices; a default of _REQUIRED makes it
# required; a noun marks an int that must be non-negative, named in the error.
COMMANDS = {
    "check": (_cmd_check, "run the criterion plan for one space", ("family", "family id, e.g. AI, CII, EIV"), (
        ("--m", "int", None, "", None),
        ("--n", "int", None, "", None),
        _FORMAT,
    )),
    "report": (_cmd_report, "run desk-scale ranges over the whole table", None, (
        ("--all", "flag", False, "all families (default)", None),
        ("--family", "append", None, "restrict to a family (repeatable)", None),
        ("--max", "int", None, "cap every parameter", "parameter cap"),
        _FORMAT,
    )),
    "hilbert": (_cmd_hilbert, "graded dimensions of a presentation file", None, (
        ("--file", "str", _REQUIRED, "", None),
        ("--up-to", "int", _REQUIRED, "", "degree"),
        ("--complete-intersection", "flag", False, "", None),
        _FORMAT,
    )),
    "model": (_cmd_model, "formal minimal model of a presentation file", None, (
        ("--file", "str", _REQUIRED, "", None),
        _FORMAT,
    )),
    "steenrod": (_cmd_steenrod, "operation on a characteristic class", None, (
        ("--group", ("so", "su", "sp", "spin9", "psp4"), _REQUIRED, "", None),
        ("--rank", "int", 4, "", None),
        ("--class", "str", _REQUIRED, "", None),
        ("--op", "str", _REQUIRED, "e.g. sq2 or p1", None),
        ("--prime", "int", None, "", None),
        _FORMAT,
    )),
}
_HELP = ("-h", "--help")


class ArgvError(ValueError):
    """An argv that the command table does not accept."""


class _Help(Exception):
    """-h or --help was given; args[0] is the usage text."""


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _metavar(flag: str, kind) -> str:
    if kind == "flag":
        return flag
    return f"{flag} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{flag} {_dest(flag).upper()}"


def _usage(command=None) -> str:
    if command is None:
        lines = [
            "usage: loopcomm COMMAND [options]",
            "",
            "Certified non-commutativity checks for loop spaces of irreducible symmetric spaces.",
            f"Set {_cli.DATA_ENV} to override the catalog data directory.",
            "",
            "commands:",
        ]
        lines += [f"  {name:<10}{entry[1]}" for name, entry in COMMANDS.items()]
        lines += ["", "Run `loopcomm COMMAND --help` for the options of a command."]
        return "\n".join(lines) + "\n"
    _, help_text, positional, options = COMMANDS[command]
    words = [positional[0].upper()] if positional else []
    words += [
        _metavar(flag, kind) if default == _REQUIRED else f"[{_metavar(flag, kind)}]"
        for flag, kind, default, _help, _noun in options
    ]
    lines = [f"usage: loopcomm {command} {' '.join(words)}", "", help_text, "", "arguments:"]
    if positional:
        lines.append(f"  {positional[0].upper():<30}{positional[1]}")
    lines += [f"  {_metavar(flag, kind):<30}{text}".rstrip() for flag, kind, _d, text, _n in options]
    lines.append(f"  {'-h, --help':<30}show this help and exit")
    return "\n".join(lines) + "\n"


def _is_negative_number(token: str) -> bool:
    """True when `token` matches ^-\\d+$|^-\\d*\\.\\d+$, the numbers read as positionals."""
    digits = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, fraction = digits.partition(".")
    return digits.isdecimal() or bool(dot and (not whole or whole.isdecimal()) and fraction.isdecimal())


def _classify(token: str, flags: tuple):
    """None for a positional token, else (flag, explicit value or None).

    The flag is None for an option that no command declares.  A long option
    may be abbreviated to a unique prefix, and -h letters may run together.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        explicit = value if eq else None
    else:
        matches = ["-h"] if token.startswith("-h") else []
        explicit = token[2:]
    if len(matches) > 1:
        raise ArgvError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    if _is_negative_number(token) or " " in token:
        return None
    return None, None


def _help_or_error(flag: str, explicit, command=None):
    """Raise _Help for -h/--help (-hh too), or the error for a value given to it."""
    if explicit is None or (flag == "-h" and explicit and not explicit.strip("h")):
        raise _Help(_usage(command))
    raise ArgvError(f"argument -h/--help: ignored explicit argument {explicit!r}")


def _convert(flag: str, kind, raw: str):
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ArgvError(f"argument {flag}: invalid int value: {raw!r}") from None
    if isinstance(kind, tuple) and raw not in kind:
        choices = ", ".join(repr(c) for c in kind)
        raise ArgvError(f"argument {flag}: invalid choice: {raw!r} (choose from {choices})")
    return raw


def _parse_command(command: str, tokens: list, extras: list) -> dict:
    """The values of `command`'s options and positional, read from `tokens` as
    argparse reads them; unknown tokens are appended to `extras`."""
    _, _, positional, options = COMMANDS[command]
    spec = {flag: (kind, default) for flag, kind, default, _help, _noun in options}
    values = {_dest(flag): None if default == _REQUIRED else default for flag, (kind, default) in spec.items()}
    if positional:
        values[positional[0]] = None
    flags = (*spec, *_HELP)
    # argparse's reading of each token: "A" an argument, "O" an option, "-" the first "--"
    kinds, found = [], {}
    for i, token in enumerate(tokens):
        if token == "--" and "-" not in kinds:
            kinds.append("-")
        elif "-" in kinds or (hit := _classify(token, flags)) is None:
            kinds.append("A")
        else:
            kinds.append("O")
            found[i] = hit
    pending = [positional[0]] if positional else []
    seen = set()

    def take_positional(i: int) -> int:
        # one argument, with any "--" before or after it
        j = i
        while j < len(kinds) and kinds[j] == "-":
            j += 1
        if not pending or j == len(kinds) or kinds[j] != "A":
            return i
        values[pending.pop()] = tokens[j]
        j += 1
        while j < len(kinds) and kinds[j] == "-":
            j += 1
        return j

    def take_option(i: int) -> int:
        flag, explicit = found[i]
        if flag is None:
            extras.append(tokens[i])
            return i + 1
        if flag in _HELP:
            _help_or_error(flag, explicit, command)
        kind, _default = spec[flag]
        seen.add(flag)
        dest = _dest(flag)
        if kind == "flag":
            if explicit is not None:
                raise ArgvError(f"argument {flag}: ignored explicit argument {explicit!r}")
            values[dest] = True
            return i + 1
        if explicit is not None:
            raw, stop = explicit, i + 1
        elif i + 1 < len(kinds) and kinds[i + 1] == "A":
            raw, stop = tokens[i + 1], i + 2
        else:
            raise ArgvError(f"argument {flag}: expected one argument")
        value = _convert(flag, kind, raw)
        values[dest] = [*(values[dest] or ()), value] if kind == "append" else value
        return stop

    # positionals and options alternately, up to the last option, as argparse does
    i, last = 0, max(found, default=-1)
    while i <= last:
        nxt = min(j for j in found if j >= i)
        if i != nxt:
            end = take_positional(i)
            if end > i:
                i = end
                continue
            extras.extend(tokens[i:nxt])
            i = nxt
        i = take_option(i)
    end = take_positional(i)
    extras.extend(tokens[end:])
    missing = pending + [flag for flag, (_k, default) in spec.items() if default == _REQUIRED and flag not in seen]
    if missing:
        raise ArgvError(f"the following arguments are required: {', '.join(missing)}")
    return values


def parse_argv(argv: list) -> tuple:
    """(command, {dest: value}) for an argv that `COMMANDS` accepts.

    It accepts what an argparse parser declaring the same table accepts, with
    the same values.  Raises ArgvError for any other argv, and _Help, with
    the usage text, for -h or --help.
    """
    extras = []
    for i, token in enumerate(argv):
        if token == "--":
            raise ArgvError("unknown command '--'")
        hit = _classify(token, _HELP)
        if hit is None:
            if token not in COMMANDS:
                raise ArgvError(f"unknown command {token!r} (choose from {', '.join(COMMANDS)})")
            values = _parse_command(token, list(argv[i + 1 :]), extras)
            if extras:
                raise ArgvError(f"unrecognized arguments: {' '.join(extras)}")
            return token, values
        if hit[0] is None:
            extras.append(token)
        else:
            _help_or_error(*hit)
    raise ArgvError(f"a command is required: {', '.join(COMMANDS)}")


def main(argv=None) -> int:
    try:
        command, opts = parse_argv(sys.argv[1:] if argv is None else list(argv))
        handler, _, _, options = COMMANDS[command]
        for flag, _kind, _default, _help, noun in options:
            value = opts[_dest(flag)]
            if noun and value is not None and value < 0:
                raise ArgvError(f"{flag} must be a non-negative {noun}, got {value}")
        return handler(opts)
    except _Help as shown:
        print(shown.args[0], end="")
        return EXIT_OK
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
