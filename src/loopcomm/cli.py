"""Command-line front end: checks, the full report, and ad-hoc algebra queries.

Exit codes are a stable contract: 0 for a certificate, 2 for a refusal
(no conclusion), 1 for usage or data errors.  A result renders itself:
`check` prints the concluded Certificate's or the Refusal's `to_dict()` or
`render()`, and `report` the Report's `to_dict()` or `render_text()`.

A process imports only what its command runs: `hilbert` loads `gradedalg`,
`model` adds `sullivan`, and only `check` and `report` load the catalog.  The
package names the handlers use are resolved on first access by the module
`__getattr__` below, and the handlers call them as attributes of this module,
so a wrapper set on `loopcomm.cli` is what runs.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from importlib import import_module

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONCLUSION = 2

_USAGE_ERRORS = (ValueError, LookupError, OSError)

# name -> the loopcomm module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("ParameterError", "check", "family", "instantiate", "report"), "catalog"),
    # no handler calls conclude_noncommutative (catalog.check does); perfbench/bench_trace.py wraps
    # it here, until ROADMAP item 5 retires that tracer
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


def _json_text(value, quote) -> str:
    """json.dumps(value, indent=2) for str, int, bool, None, and lists, tuples and str-keyed dicts of them.

    `quote` is json's own string encoder.
    """
    pieces: list = []
    _write_json(value, quote, "\n", pieces)
    return "".join(pieces)


def _write_json(value, quote, indent: str, pieces: list) -> None:
    """Append the pieces of value's JSON text to one list; `indent` precedes its closing bracket."""
    if isinstance(value, str):
        pieces.append(quote(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, v in value.items():
            pieces.append(sep + quote(key) + ": ")
            _write_json(v, quote, inner, pieces)
            sep = "," + inner
        pieces.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for v in value:
            pieces.append(sep)
            _write_json(v, quote, inner, pieces)
            sep = "," + inner
        pieces.append(indent + "]")
    elif value is None or isinstance(value, bool):
        pieces.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    else:
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
    _emit(opts["format"], result.to_dict, result.render)
    return EXIT_OK if isinstance(result, _cli.Certificate) else EXIT_NO_CONCLUSION


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
    import re

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
_ARGPARSE_KIND = {"int": {"type": int}, "str": {}, "flag": {"action": "store_true"}, "append": {"action": "append"}}


class ArgvError(ValueError):
    """An argv that the command table does not accept."""


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


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


def _read_exact(argv: list):
    """(command, {dest: value}) for an argv of exact spellings, else None.

    Every token after the command is a declared flag, a switch, a flag's
    value that does not start with "-", or the command's positional, and
    every required flag is given.  Every argparse reads such an argv the
    same way, with these values.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, _, positional, options = COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, *_ in options}
    values = {_dest(flag): None if default == _REQUIRED else default for flag, _kind, default, *_ in options}
    missing = {flag for flag, _kind, default, *_ in options if default == _REQUIRED}
    pending = [positional[0]] if positional else []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in kinds:
            kind, dest = kinds[token], _dest(token)
            missing.discard(token)
            if kind == "flag":
                values[dest] = True
                continue
            raw = next(tokens, "-")
            if raw.startswith("-"):
                return None
            try:
                value = _convert(token, kind, raw)
            except ArgvError:
                return None
            values[dest] = [*(values[dest] or ()), value] if kind == "append" else value
        elif pending and not token.startswith("-"):
            values[pending.pop()] = token
        else:
            return None
    return None if missing or pending else (argv[0], values)


@cache
def _parser():
    """The argparse parser that `COMMANDS` declares; its errors raise ArgvError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ArgvError(message)

    parser = Parser(
        prog="loopcomm",
        description="Certified non-commutativity checks for loop spaces of irreducible symmetric spaces. "
        "Set LOOPCOMM_DATA_DIR to override the catalog data directory.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, help_text, positional, options) in COMMANDS.items():
        sub = commands.add_parser(command, help=help_text, description=help_text)
        if positional:
            sub.add_argument(positional[0], help=positional[1])
        for flag, kind, default, text, _noun in options:
            how = {"choices": kind} if isinstance(kind, tuple) else _ARGPARSE_KIND[kind]
            if default == _REQUIRED:
                sub.add_argument(flag, required=True, help=text or None, **how)
            else:
                sub.add_argument(flag, default=default, help=text or None, **how)
    return parser


def parse_argv(argv: list) -> tuple:
    """(command, {dest: value}) for an argv that `COMMANDS` accepts.

    An argv of exact spellings is read without importing argparse; any
    other (abbreviations, --flag=value, -h, a value that starts with "-",
    "--", every error) is read by argparse.  Raises ArgvError for an argv
    that argparse rejects, and SystemExit after printing the help for -h.
    """
    exact = _read_exact(argv)
    if exact is not None:
        return exact
    values = vars(_parser().parse_args(argv))
    command = values.pop("command")
    for flag, kind, _default, _help, _noun in COMMANDS[command][3]:
        # argparse before Python 3.13 drops the "--" of --flag=-- and stores []
        dest = _dest(flag)
        if kind == "append" and values[dest]:
            values[dest] = ["--" if value == [] else value for value in values[dest]]
        elif values[dest] == []:
            values[dest] = _convert(flag, kind, "--")
    return command, values


def _run(argv: list) -> int:
    try:
        command, opts = parse_argv(argv)
        handler, _, _, options = COMMANDS[command]
        for flag, _kind, _default, _help, noun in options:
            value = opts[_dest(flag)]
            if noun and value is not None and value < 0:
                raise ArgvError(f"{flag} must be a non-negative {noun}, got {value}")
        return handler(opts)
    except SystemExit:  # argparse printed the help for -h or --help
        return EXIT_OK
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _observed() -> bool:
    """Whether a profiler, tracer or monitoring tool is installed; each reports only at a normal exit."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later
    return monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))


def _end_process(code: int):
    """Flush stdout and stderr, then end the process with `code` at once.

    The interpreter's teardown (modules, then their cycle collections) writes
    nothing, and took about 9 of the 59 ms of a fresh `report --all` process
    on a 2-vCPU Xeon virtual machine, so it is skipped.  A stdout flush that
    fails, as on a closed pipe, makes the code EXIT_ERROR, with one
    `error: ...` line on stderr unless an error line is there already; a
    stream that is None is skipped.
    """
    error = ""
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_ERROR:  # an EXIT_ERROR has printed its error line
            error = f"error: {exc}\n"
        code = EXIT_ERROR
    try:
        if sys.stderr is not None:
            sys.stderr.write(error)
            sys.stderr.flush()
    except OSError:
        pass  # nowhere is left to report it; the exit code still does
    os._exit(code)


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    Called without argv, main is the process's own entry (the `loopcomm`
    script, `python -m loopcomm.cli`): it reads sys.argv and ends the process
    as soon as its output is flushed (`_end_process`), unless a profiler,
    tracer or monitoring tool is installed and must see a normal exit.
    """
    code = _run(sys.argv[1:] if argv is None else list(argv))
    if argv is None and not _observed():
        _end_process(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
