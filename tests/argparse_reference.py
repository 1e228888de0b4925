"""The argparse parser the CLI used before its own argv table, kept as a test reference.

`loopcomm.cli.parse_argv` must accept exactly the argvs this parser accepts,
with the same values; test_argv.py compares the two.
"""

import argparse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loopcomm")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the criterion plan for one space")
    p_check.add_argument("family", help="family id, e.g. AI, CII, EIV")
    p_check.add_argument("--m", type=int, default=None)
    p_check.add_argument("--n", type=int, default=None)
    p_check.add_argument("--format", choices=("text", "structured"), default="text")

    p_report = sub.add_parser("report", help="run desk-scale ranges over the whole table")
    p_report.add_argument("--all", action="store_true", help="all families (default)")
    p_report.add_argument("--family", action="append", help="restrict to a family (repeatable)")
    p_report.add_argument("--max", type=int, default=None, help="cap every parameter")
    p_report.add_argument("--format", choices=("text", "structured"), default="text")

    p_hilbert = sub.add_parser("hilbert", help="graded dimensions of a presentation file")
    p_hilbert.add_argument("--file", required=True)
    p_hilbert.add_argument("--up-to", type=int, required=True, dest="up_to")
    p_hilbert.add_argument(
        "--complete-intersection", action="store_true", dest="complete_intersection"
    )
    p_hilbert.add_argument("--format", choices=("text", "structured"), default="text")

    p_model = sub.add_parser("model", help="formal minimal model of a presentation file")
    p_model.add_argument("--file", required=True)
    p_model.add_argument("--format", choices=("text", "structured"), default="text")

    p_st = sub.add_parser("steenrod", help="operation on a characteristic class")
    p_st.add_argument("--group", required=True, choices=("so", "su", "sp", "spin9", "psp4"))
    p_st.add_argument("--rank", type=int, default=4)
    p_st.add_argument("--class", required=True)
    p_st.add_argument("--op", required=True, help="e.g. sq2 or p1")
    p_st.add_argument("--prime", type=int, default=None)
    p_st.add_argument("--format", choices=("text", "structured"), default="text")

    return parser
