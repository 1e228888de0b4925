"""cli.parse_argv against the argparse parser the CLI first shipped (argparse_reference.py)."""

import contextlib
import io
import random

import pytest

from argparse_reference import build_parser
from loopcomm import catalog, cli
from loopcomm.cli import ArgvError, main, parse_argv

_REFERENCE = build_parser()

_INTS = (["0", "3", "12", "-1", "-0", " 4", "+3", "1_0", "٣", "-٣", "-2\n"],
         ["abc", "", "3.5", "0x1", "-", "1e3", "-.5", "-x", "4 4"])
_STRS = (["x.pres", "a b", "-", "", "sq2", "c1", "-1", "-a b", "q2", "CII"], ["-x", "--", "--bogus"])
_FORMATS = (["text", "structured"], ["json", "TEXT", ""])
_GROUPS = (["so", "su", "sp", "spin9", "psp4"], ["xx", "SO", ""])
_NOISE = ["--bogus", "--bogus=1", "-x", "-1", "stray", "--", "--all", "--format", "--fo=text", "-", "a b"]
_HELP = ["-h", "--help", "--he", "-hh", "-hx", "--help=1"]

# command -> [(flag, (good values, bad values))], where None marks a switch
_GRAMMAR = {
    "check": [("--m", _INTS), ("--n", _INTS), ("--format", _FORMATS)],
    "report": [("--all", None), ("--family", _STRS), ("--max", _INTS), ("--format", _FORMATS)],
    "hilbert": [("--file", _STRS), ("--up-to", _INTS), ("--complete-intersection", None), ("--format", _FORMATS)],
    "model": [("--file", _STRS), ("--format", _FORMATS)],
    "steenrod": [("--group", _GROUPS), ("--rank", _INTS), ("--class", _STRS), ("--op", _STRS),
                 ("--prime", _INTS), ("--format", _FORMATS)],
}


def _spelling(rng, flag):
    """The flag, or a prefix of it (unique or not) of at least three characters."""
    if rng.random() < 0.7:
        return flag
    return flag[: rng.randint(3, len(flag))]


def _piece(rng, flag, pools):
    name = _spelling(rng, flag)
    if pools is None:
        return [name] if rng.random() < 0.95 else [f"{name}=1"]
    value = rng.choice(pools[rng.random() < 0.05])
    roll = rng.random()
    if roll < 0.6:
        return [name, value]
    if roll < 0.97:
        return [f"{name}={value}"]
    return [name]  # the value missing, or taken from the next piece


def _argv(rng):
    """A seeded argv drawn from one command's grammar, with the mistakes people make."""
    command = rng.choice(list(_GRAMMAR))
    pieces = []
    for flag, pools in _GRAMMAR[command]:
        for _ in range(rng.choice((0, 1, 1, 1, 1, 1, 1, 2))):  # missing, once, or repeated
            pieces.append(_piece(rng, flag, pools))
    family = [rng.choice(["AI", "CII", "EIV", "XYZ", "-1", "--", "a b"])] if command == "check" else []
    if rng.random() < 0.7:
        pieces.append(family)
        family = []
    if rng.random() < 0.15:
        pieces.append([rng.choice(_NOISE)])
    if rng.random() < 0.2:
        pieces.append([rng.choice(_HELP)])
    rng.shuffle(pieces)
    head = [command] if rng.random() < 0.95 else [rng.choice(["bogus", "chk", "-h", "--bogus", "--"]), command]
    tail = ["--", *family] if rng.random() < 0.3 else family  # everything after "--" is positional
    return head + [token for piece in pieces for token in piece] + tail


def _reference(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            namespace = _REFERENCE.parse_args(argv)
    except SystemExit as exc:
        return "help" if exc.code == 0 else "error"
    values = vars(namespace)
    return values.pop("command"), values


def _expected(argv):
    """argparse's reading, less its one defect: it drops the `--` of `--flag=--` and
    stores [] (Python 3.11), where the table keeps "--" as the value."""
    expected = _reference(argv)
    if isinstance(expected, str):
        return expected
    command, values = expected
    for dest, value in values.items():
        if value == []:
            values[dest] = "--"
        elif isinstance(value, list):
            values[dest] = ["--" if v == [] else v for v in value]
    return command, values


def _ours(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return parse_argv(argv)
    except SystemExit:
        return "help"
    except ArgvError:
        return "error"


def test_argv_table_reads_argv_as_argparse_did(capsys):
    rng = random.Random(18)
    argvs = [_argv(rng) for _ in range(2000)]
    outcomes = {"help": 0, "error": 0, "accepted": 0}
    mismatches = []
    for argv in argvs:
        expected, got = _expected(argv), _ours(argv)
        if got != expected:
            mismatches.append((argv, expected, got))
        outcomes[expected if isinstance(expected, str) else "accepted"] += 1
        if isinstance(expected, str):
            code = main(argv)
            out, err = capsys.readouterr()
            if expected == "help":
                assert (code, err) == (0, ""), argv
                assert out.startswith("usage: loopcomm"), argv
            else:
                assert (code, out) == (1, ""), argv
                assert err.startswith("error: "), argv
    assert mismatches[:5] == [], len(mismatches)
    assert min(outcomes.values()) >= 200, outcomes  # every outcome is well represented


_REQUIRED = {"--file", "--up-to", "--group", "--class", "--op"}


def _exact_argv(rng):
    """A seeded argv of exact spellings: full flag names, each value in the next token,
    every required flag given, optional ones missing, once or repeated."""
    command = rng.choice(list(_GRAMMAR))
    pieces = [[rng.choice(["AI", "CII", "EIV", "XYZ", "a b", ""])]] if command == "check" else []
    for flag, pools in _GRAMMAR[command]:
        for _ in range(rng.choice((1, 1, 2)) if flag in _REQUIRED else rng.choice((0, 1, 1, 2))):
            if pools is None:
                pieces.append([flag])
            else:
                pieces.append([flag, rng.choice([v for v in pools[0] if not v.startswith("-")])])
    rng.shuffle(pieces)
    return [command] + [token for piece in pieces for token in piece]


def test_exact_spellings_skip_argparse():
    rng = random.Random(20)
    for argv in (_exact_argv(rng) for _ in range(500)):
        assert cli._read_exact(argv) == _reference(argv), argv


@pytest.mark.parametrize(
    "argv, values",
    [
        (["check", "AI", "--n=3"], {"family": "AI", "m": None, "n": 3, "format": "text"}),
        (["check", "--n", "3", "--form", "structured", "AI"], {"family": "AI", "m": None, "n": 3, "format": "structured"}),
        (["check", "--n", "3", "--n", "4", "--", "AI"], {"family": "AI", "m": None, "n": 4, "format": "text"}),
        (["report", "--max", "-1", "--fam", "AI", "--family=CII"],
         {"all": False, "family": ["AI", "CII"], "max": -1, "format": "text"}),
        (["hilbert", "--comp", "--file", "-", "--up", "7"],
         {"file": "-", "up_to": 7, "complete_intersection": True, "format": "text"}),
    ],
)
def test_argv_values(argv, values):
    assert parse_argv(argv) == (argv[0], values)
    assert _reference(argv) == (argv[0], values)


def test_an_int_flag_rejects_the_value_argparse_dropped(capsys):
    # argparse stored m=[] for `--m=--` and the handler then failed on it
    assert _reference(["check", "AI", "--m=--"])[1]["m"] == []
    assert main(["check", "AI", "--m=--"]) == 1
    assert capsys.readouterr() == ("", "error: argument --m: invalid int value: '--'\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["report", "--he"], ["steenrod", "--group", "so", "-h"]])
def test_help_prints_usage_from_the_table(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if len(argv) == 1:
        assert catalog.DATA_ENV in out
        for command, (_, help_text, _, _) in cli.COMMANDS.items():
            assert f"  {command}" in out and help_text in out
    else:
        for flag, *_ in cli.COMMANDS[argv[0]][3]:
            assert flag in out
