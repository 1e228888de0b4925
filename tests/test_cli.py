"""CLI exit-code contract, output formats, determinism."""

import ast
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from loopcomm import catalog, cli, steenrod
from loopcomm.catalog import FAMILIES, instantiate
from loopcomm.cli import main
from loopcomm.criteria import Certificate

# bench_trace.py targets that no longer exist; ROADMAP item 1 (its trace-target part) and item 5 drop them
_STALE_TRACE_TARGETS = {
    "loopcomm.catalog.total_char_class_operation",
    "loopcomm.catalog.hook_component_e_top",
    "loopcomm.catalog.is_complete_intersection",
    "loopcomm.steenrod.express_symmetric",
    "loopcomm.steenrod.tp_mul",
    "loopcomm.steenrod.total_operation_on_torus",
    "loopcomm.steenrod.total_char_class_operation",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SRC = Path(__file__).resolve().parent.parent / "src"
_LAUNCH = "import sys; from loopcomm.cli import main; sys.exit(main())"  # as the `loopcomm` script


def _fresh(args: list, cwd, **streams) -> subprocess.CompletedProcess:
    """A fresh interpreter running `args`, its environment stripped of PYTHON* and LOOPCOMM_* variables."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "LOOPCOMM_"))}
    env["PYTHONPATH"] = str(_SRC)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, text=True, timeout=60, **streams)


class TestExitCodes:
    def test_certificate_is_zero(self, capsys):
        code, out, _ = run(capsys, "check", "EIV")
        assert code == 0
        assert "certificate" in out

    def test_known_exception_is_two(self, capsys):
        code, out, _ = run(capsys, "check", "AIII", "--m", "1", "--n", "3")
        assert code == 2
        assert "no conclusion" in out
        assert "exception" in out

    def test_usage_error_is_one(self, capsys):
        code, _, err = run(capsys, "check", "AI", "--n", "1")
        assert code == 1
        assert "n >= 2" in err

    def test_unknown_family_lists_ids(self, capsys):
        code, _, err = run(capsys, "check", "XYZ")
        assert code == 1
        assert "AI, AII" in err

    def test_unknown_report_family(self, capsys):
        code, _, err = run(capsys, "report", "--family", "XYZ")
        assert code == 1

    def test_negative_report_cap_is_one(self, capsys):
        code, out, err = run(capsys, "report", "--max", "-1")
        assert code == 1
        assert out == ""
        assert "--max" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            ((), "command"),
            (("check",), "family"),
            (("hilbert", "--file", "x"), "--up-to"),
            (("report", "--max", "abc"), "--max"),
            (("bogus",), "bogus"),
            (("check", "AI", "--n", "3", "--format", "json"), "--format"),
            (("steenrod", "--group", "xx", "--class", "c1", "--op", "sq2"), "--group"),
        ],
    )
    def test_argv_error_is_one(self, capsys, argv, named):
        # one, the usage code, not argparse's 2, which is the refusal code
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and named in err

    def test_ai_64_certifies(self, capsys):
        # condition (4) reads one degree of the indecomposables, not every monomial of it
        code, out, _ = run(capsys, "check", "AI", "--n", "64")
        assert code == 0
        assert "certificate" in out

    def test_cii_7_7_certifies(self, capsys):
        # needs P^1 at p = 7 on BSp(7)
        code, out, _ = run(capsys, "check", "CII", "--m", "7", "--n", "7")
        assert code == 0
        assert "P^1 (p=7)" in out

    def test_cii_29_29_certifies(self, capsys):
        # condition (6) reads P^1 at p = 29 on Sigma Q_29 by the power-sum pairing
        code, out, _ = run(capsys, "check", "CII", "--m", "29", "--n", "29")
        assert code == 0
        assert "P^1 (p=29)" in out

    def test_cii_35_35_certifies(self, capsys):
        # condition (6) reads P^1 at p = 5 on Sigma Q_35, not every P^k of it
        code, out, _ = run(capsys, "check", "CII", "--m", "35", "--n", "35")
        assert code == 0
        assert "P^1 (p=5)" in out

    def test_unknown_class_is_one(self, capsys):
        code, _, err = run(
            capsys, "steenrod", "--group", "so", "--rank", "4", "--class", "w9", "--op", "sq2"
        )
        assert code == 1

    @pytest.mark.parametrize("name", ["q 2", "q02", "q+2", "q\u0968"])
    def test_non_canonical_class_name_is_one(self, capsys, name):
        # only the names the model lists: no spaces, signs, leading zeros or non-ASCII digits
        code, out, err = run(
            capsys, "steenrod", "--group", "sp", "--rank", "2", "--class", name, "--op", "p1", "--prime", "3"
        )
        assert (code, out) == (1, "")
        assert f"unknown class {name!r} in the sp(2) model" in err


class TestFamilyTable:
    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.id)
    def test_range_instantiates_and_wrong_flags_are_one(self, capsys, fam):
        for params in fam.default_range:
            assert instantiate(fam.id, params).params == params  # ranges are already normalized
        for names in ((), ("n",), ("m",), ("m", "n")):
            if names == fam.param_names:
                continue
            flags = [arg for name in names for arg in (f"--{name}", "3")]
            code, _, err = run(capsys, "check", fam.id, *flags)
            assert code == 1, names
            assert fam.id in err


class TestSteenrodCommand:
    def test_sq2_w4(self, capsys):
        code, out, _ = run(
            capsys, "steenrod", "--group", "so", "--rank", "4", "--class", "w4", "--op", "sq2"
        )
        assert code == 0
        assert out.strip() == "w2*w4"

    def test_op_family_is_case_blind(self, capsys):
        code, out, _ = run(
            capsys, "steenrod", "--group", "so", "--rank", "4", "--class", "w4", "--op", "SQ2"
        )
        assert (code, out.strip()) == (0, "w2*w4")

    @pytest.mark.parametrize("op", ["sq\u0968", "sq2\n", "sq 2", " sq2", "sq+2", "\u017fq2", "sq"])
    def test_non_canonical_op_is_one(self, capsys, op):
        # ASCII letters and digits only, by full match: no padding, signs or non-ASCII look-alikes
        code, out, err = run(
            capsys, "steenrod", "--group", "so", "--rank", "4", "--class", "w4", "--op", op
        )
        assert (code, out) == (1, "")
        assert f"bad operation {op!r}" in err

    def test_p1_q5(self, capsys):
        code, out, _ = run(
            capsys,
            "steenrod", "--group", "sp", "--rank", "5", "--class", "q5",
            "--op", "p1", "--prime", "5",
        )
        assert code == 0
        assert "q2*q5" in out

    def test_p_requires_odd_prime(self, capsys):
        code, _, err = run(
            capsys, "steenrod", "--group", "sp", "--rank", "2", "--class", "q2", "--op", "p1"
        )
        assert code == 1
        assert "odd" in err
        # a non-prime is rejected by name, not by a traceback or a later, misleading error
        for group, cls, prime in (("su", "c1", 0), ("su", "c1", 1), ("sp", "q2", 4), ("sp", "q2", 9)):
            code, _, err = run(
                capsys, "steenrod", "--group", group, "--rank", "3", "--class", cls,
                "--op", "p1", "--prime", str(prime),
            )
            assert code == 1
            assert "odd" in err and str(prime) in err

    def test_large_primes_are_decided_at_once(self, capsys, tmp_path):
        p = 10**18 + 3
        args = ("steenrod", "--group", "su", "--rank", "3", "--class", "c2", "--op", "p0", "--prime")
        start = time.perf_counter()
        assert run(capsys, *args, str(p)) == (0, "c2\n", "")
        f = tmp_path / "big.pres"
        f.write_text(f"field prime {p}\ngenerator x2 2\nrelation 6 explicit\nterm 1 3\nend\n", encoding="utf-8")
        code, out, _ = run(capsys, "hilbert", "--file", str(f), "--up-to", "6")
        assert code == 0 and out.splitlines()[-1] == "6: 0"
        assert time.perf_counter() - start < 1
        code, _, err = run(capsys, *args, "3317044064679887385961981")
        assert code == 1
        assert "primality is decided only below 3317044064679887385961981" in err


class TestFileCommands:
    def test_hilbert(self, capsys, tmp_path):
        f = tmp_path / "cp3.pres"
        f.write_text(
            "field rational\ngenerator x2 2\nrelation 8 explicit\nterm 1 4\nend\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "hilbert", "--file", str(f), "--up-to", "10", "--complete-intersection"
        )
        assert code == 0
        assert "2: 1" in out and "8: 0" in out
        assert "complete intersection: True" in out

    def test_model(self, capsys, tmp_path):
        f = tmp_path / "cp3.pres"
        f.write_text(
            "field rational\ngenerator x2 2\nrelation 8 explicit\nterm 1 4\nend\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "model", "--file", str(f))
        assert code == 0
        assert out == "Λ(x2:2, y7:7)\nd x2 = 0\nd y7 = x2^4\nd^2 = 0: True\n"

    def test_hilbert_walks_many_generators_without_recursion(self, capsys, tmp_path):
        # one monomial walk level per generator: 1200 of them are past Python's recursion limit
        f = tmp_path / "wide.pres"
        f.write_text("field rational\n" + "".join(f"generator x{i} 2\n" for i in range(1200)) + "end\n", encoding="utf-8")
        assert run(capsys, "hilbert", "--file", str(f), "--up-to", "2") == (0, "0: 1\n1: 0\n2: 1200\n", "")

    def test_negative_hilbert_bound_is_one(self, capsys, tmp_path):
        f = tmp_path / "cp3.pres"
        f.write_text(
            "field rational\ngenerator x2 2\nrelation 8 explicit\nterm 1 4\nend\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "hilbert", "--file", str(f), "--up-to", "-5")
        assert code == 1
        assert out == ""
        assert "--up-to" in err

    def test_zero_denominator_is_one(self, capsys, tmp_path):
        f = tmp_path / "bad.pres"
        f.write_text(
            "field rational\ngenerator x2 2\nrelation 8 explicit\nterm 1/0 4\nend\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "hilbert", "--file", str(f), "--up-to", "4")
        assert code == 1
        assert out == ""
        assert "line 4" in err and "1/0" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                "generator x2 2\ngenerator x4 4\ngenerator y3 3 squares-to-zero\n"
                "relation 8 explicit\nterm 1 2 1 0\n",
                "odd generator y3",
            ),
            (
                "generator x2 2\ngenerator x4 4\ngenerator x6 6\nrelation 8 explicit\nterm 1 1 0 1\n",
                "relation count 1 != generator count 3",
            ),
        ],
        ids=["odd-generator", "relation-count"],
    )
    def test_hypotheses_come_before_the_hilbert_function(self, capsys, tmp_path, monkeypatch, body, message):
        calls = []
        monkeypatch.setattr(cli, "hilbert_function", lambda pres, up_to: calls.append(up_to) or (0,) * (up_to + 1))
        f = tmp_path / "not_ci.pres"
        f.write_text("field rational\n" + body + "end\n", encoding="utf-8")
        code, out, err = run(capsys, "hilbert", "--file", str(f), "--up-to", "1000", "--complete-intersection")
        assert (code, out) == (1, "")
        assert message in err
        assert calls == []

    def test_missing_file_is_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "hilbert", "--file", str(tmp_path / "nope"), "--up-to", "4")
        assert code == 1


class TestFormats:
    @pytest.mark.parametrize("fmt, built", [("structured", "to_dict"), ("text", "render_text")])
    def test_report_renders_only_the_format_asked_for(self, capsys, monkeypatch, fmt, built):
        calls = []
        for name in ("to_dict", "render_text"):
            original = getattr(catalog.Report, name)
            monkeypatch.setattr(catalog.Report, name, lambda rep, _f=original, _n=name: calls.append(_n) or _f(rep))
        code, out, _ = run(capsys, "report", "--family", "EIV", "--format", fmt)
        assert code == 0 and out
        assert calls == [built]

    def test_structured_check_matches_text(self, capsys):
        code, text_out, _ = run(capsys, "check", "EII")
        code2, json_out, _ = run(capsys, "check", "EII", "--format", "structured")
        assert code == code2 == 0
        payload = json.loads(json_out)
        assert payload["schema_version"] == 1
        assert payload["kind"] == "certificate"
        assert payload["space"] in text_out
        assert payload["criterion"] in text_out
        assert payload["conclusion"] in text_out
        for key, value in payload["witness"]:
            assert f"{key} = {value}" in text_out
        for entry in payload["transcript"]:
            assert entry["description"] in text_out

    def test_structured_refusal(self, capsys):
        code, out, _ = run(capsys, "check", "AIII", "--m", "1", "--n", "3", "--format", "structured")
        assert code == 2
        payload = json.loads(out)
        assert payload["kind"] == "refusal"
        assert payload["exception_note"]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_diii3_is_cp3(self, capsys, fmt):
        # DIII(3) = SO(6)/U(3) is CP^3: the same refusal and exception note as AIII(1,3), under its own name
        code, out, err = run(capsys, "check", "DIII", "--n", "3", "--format", fmt)
        cp3 = run(capsys, "check", "AIII", "--m", "1", "--n", "3", "--format", fmt)
        assert code == cp3[0] == 2 and err == ""
        assert out == cp3[1].replace("AIII(1,3)", "DIII(3)")
        assert "generator x2 has even degree 2" in out and "CP^3 IS homotopy commutative" in out

    def test_structured_report_matches_text_rows(self, capsys):
        _, text_out, _ = run(capsys, "report", "--family", "CII", "--max", "3")
        _, json_out, _ = run(capsys, "report", "--family", "CII", "--max", "3", "--format", "structured")
        payload = json.loads(json_out)
        for row in payload["rows"]:
            assert row["space"] in text_out
            assert row["conclusion"] in text_out


def _check_argv(fam_id: str, params: tuple) -> list:
    names = catalog.family(fam_id).param_names
    return ["check", fam_id, *(arg for name, p in zip(names, params) for arg in (f"--{name}", str(p)))]


class TestCheckResult:
    """`loopcomm check` prints the result `catalog.check` returns, and only `catalog.check` concludes it."""

    # every report-range instance, and CP^3 under both its names
    INSTANCES = tuple(
        dict.fromkeys([(f.id, p) for f in FAMILIES for p in f.default_range] + [("AIII", (1, 3)), ("DIII", (3,))])
    )

    def test_structured_check_prints_the_catalog_result(self, capsys):
        for fam_id, params in self.INSTANCES:
            result = catalog.check(instantiate(fam_id, params))
            code, out, err = run(capsys, *_check_argv(fam_id, params), "--format", "structured")
            assert json.loads(out) == result.to_dict(), (fam_id, params)
            assert code == (0 if isinstance(result, Certificate) else 2) and err == "", (fam_id, params)
            if isinstance(result, Certificate):
                adjunctions = [e for e in result.transcript if e.citation == "Whitehead-Samelson adjunction"]
                assert adjunctions == [result.transcript[-1]], (fam_id, params)

    def test_catalog_alone_concludes(self, capsys, monkeypatch):
        concluded, by_cli = [], []
        conclude = catalog.conclude_noncommutative
        monkeypatch.setattr(catalog, "conclude_noncommutative", lambda cert: concluded.append(cert.space) or conclude(cert))
        monkeypatch.setattr(cli, "conclude_noncommutative", lambda cert: by_cli.append(cert.space) or conclude(cert))
        certified = []
        for fam_id, params in self.INSTANCES:
            code, _, _ = run(capsys, *_check_argv(fam_id, params))
            if code == 0:
                certified.append(instantiate(fam_id, params).label)
        assert concluded == certified and len(certified) == len(self.INSTANCES) - 2
        concluded.clear()
        rows = catalog.report().rows
        assert concluded == [r.label for r in rows if r.params != "all" and r.label in certified]
        assert by_cli == []


class TestDeterminism:
    def test_report_byte_identical(self, capsys):
        _, a, _ = run(capsys, "report", "--all", "--format", "structured")
        _, b, _ = run(capsys, "report", "--all", "--format", "structured")
        assert a == b

    def test_structured_report_is_pinned(self, capsys):
        # the published table: any change to a certificate, a transcript or the row order shows here
        _, out, _ = run(capsys, "report", "--all", "--format", "structured")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "7b161385d3507c5b3e87f54f386bc14ebac06696d02b6e8fff799b3945ab8e9d"

    def test_text_report_is_pinned(self, capsys):
        # the table as it prints: a change that reaches only the text rendering shows here
        _, out, _ = run(capsys, "report", "--all")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == "217ab3e9d9dafe5feaae0a899d3b05dabb7d3272ba9d89439df2cffc26b28e96"

    def test_check_byte_identical(self, capsys):
        _, a, _ = run(capsys, "check", "CII", "--m", "5", "--n", "5", "--format", "structured")
        _, b, _ = run(capsys, "check", "CII", "--m", "5", "--n", "5", "--format", "structured")
        assert a == b

    def test_checks_beyond_the_report_ranges_are_pinned(self, capsys):
        # the classifying-space rows past the desk ranges, CP^N, and every fixed family in both formats
        fixed = [f.id for f in FAMILIES if not f.arity]
        argvs = [["AI", "--n", str(n)] for n in range(2, 31)]
        argvs += [["BDI", "--m", str(m), "--n", str(n)] for n in range(2, 25) for m in (n, n + 2)]
        argvs += [["CII", "--m", str(n), "--n", str(n)] for n in range(1, 22)]
        argvs += [["AII", "--n", str(n)] for n in range(2, 30)]
        argvs += [["AIII", "--m", "1", "--n", str(n)] for n in range(1, 9)]
        argvs = [a + ["--format", "structured"] for a in argvs + [[f] for f in fixed]]
        argvs += [[f, "--format", "text"] for f in fixed]
        digest = hashlib.sha256()
        for argv in argvs:
            code, out, _ = run(capsys, "check", *argv)
            digest.update(f"{code}\n{out}".encode("utf-8"))
        assert len(argvs) == 156
        assert digest.hexdigest() == "9543dd1f166ec54d9c9a887074f92dac85ccd8325fc7ad7a4c11eae12a2afc2d"

    def test_checks_in_the_report_ranges_print_pinned_text(self, capsys):
        # every instance of the report's ranges, CP^3 under both its names (refusals) and a usage error, as text
        argvs = [
            [fam.id, *(arg for name, p in zip(fam.param_names, params) for arg in (f"--{name}", str(p)))]
            for fam in FAMILIES
            for params in fam.default_range
        ]
        assert ["AIII", "--m", "1", "--n", "3"] in argvs
        argvs += [["DIII", "--n", "3"], ["AI", "--n", "1"]]
        digest, codes = hashlib.sha256(), Counter()
        for argv in argvs:
            code, out, err = run(capsys, "check", *argv, "--format", "text")
            codes[code] += 1
            digest.update(f"{code}\n{out}{err}".encode("utf-8"))
        assert codes == {0: len(argvs) - 3, 1: 1, 2: 2}
        assert digest.hexdigest() == "8fb6e7cb80408ae98766ea12099708b2fd4985431c871b621a66c2bdbfb412a1"

    def test_report_matches_the_benchmark_pins(self, capsys):
        """The report meets perfbench/bench_inputs.py's DESK_* pins, read without importing perfbench/."""
        source = (Path(__file__).resolve().parent.parent / "perfbench" / "bench_inputs.py").read_text(encoding="utf-8")
        pins = {
            target.id: ast.literal_eval(node.value)
            for node in ast.parse(source).body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if getattr(target, "id", "").startswith("DESK_")
        }
        _, out, _ = run(capsys, "report", "--all", "--format", "structured")
        rows = json.loads(out)["rows"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pins["DESK_DIGEST"]
        assert len(rows) == pins["DESK_ROWS"]
        assert dict(Counter(r["criterion"] for r in rows)) == pins["DESK_CRITERIA"]
        assert [r["space"] for r in rows if r["exception"]] == [pins["DESK_EXCEPTION"]]
        assert [r["space"] for r in rows if "is not homotopy commutative" not in r["conclusion"]] == [
            pins["DESK_EXCEPTION"]
        ]


class TestProcessExit:
    """`main()` without argv ends its process once the output is flushed; `main(argv)` returns."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "EIV"],
            ["check", "AIII", "--m", "1", "--n", "3"],
            ["check", "AI", "--n", "1"],
            ["hilbert", "--file", "cp3.pres", "--up-to", "10", "--complete-intersection", "--format", "structured"],
            ["report", "--all", "--format", "structured"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_fresh_process_matches_in_process(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "cp3.pres").write_text(
            "field rational\ngenerator x2 2\nrelation 8 explicit\nterm 1 4\nend\n", encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        fresh = _fresh(["-c", _LAUNCH, *argv], tmp_path)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == run(capsys, *argv)
        assert fresh.returncode == {"EIV": 0, "AIII": 2, "AI": 1}.get(argv[1], 0)
        if argv[0] == "report":
            digest = hashlib.sha256(fresh.stdout.encode("utf-8")).hexdigest()
            assert digest == "7b161385d3507c5b3e87f54f386bc14ebac06696d02b6e8fff799b3945ab8e9d"

    @pytest.mark.parametrize("argv", [["check", "AI", "--n", "3"], ["report", "--all", "--format", "structured"]])
    def test_closed_output_pipe_is_one_error(self, tmp_path, argv):
        # the pipe's reader is gone before the process starts: the final flush fails (and, for the report,
        # which outgrows the stdout buffer, the print before it); one error line, exit 1, no traceback
        read, write = os.pipe()
        os.close(read)
        try:
            done = _fresh(["-c", _LAUNCH, *argv], tmp_path, stdout=write)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, "error: [Errno 32] Broken pipe\n")

    def test_a_profiler_sees_a_normal_exit(self, tmp_path):
        (tmp_path / "launch.py").write_text(_LAUNCH.replace("; ", "\n") + "\n", encoding="utf-8")
        done = _fresh(["-m", "cProfile", "launch.py", "check", "EIV"], tmp_path)
        assert done.returncode == 0
        assert "conclusion: Omega(EIV) is not homotopy commutative" in done.stdout
        assert "function calls" in done.stdout and "ncalls" in done.stdout


def test_trace_targets_stay_bound():
    """Every span perfbench/bench_trace.py wraps is bound where it looks, except the known stale ones."""
    source = (Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py").read_text(encoding="utf-8")
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    missing = set()
    for module_name, attr, _span in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{attr}")
    assert missing <= _STALE_TRACE_TARGETS


def test_steenrod_group_choices_are_the_engine_groups():
    # the CLI does not import steenrod when it loads, so it keeps its own copy of the group tags
    (choices,) = [kind for flag, kind, *_ in cli.COMMANDS["steenrod"][3] if flag == "--group"]
    assert choices == tuple(steenrod._GROUPS)


def test_the_package_imports_only_the_standard_library():
    modules = set()
    for path in sorted((_SRC / "loopcomm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.partition(".")[0])
    assert {"argparse", "_json", "fractions"} <= modules  # imported inside functions, so the walk reaches them
    assert modules <= sys.stdlib_module_names, sorted(modules - sys.stdlib_module_names)


_AWKWARD_TEXT = ('"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "Λ", "\ud7ff", "\U0001f600", "𝔽")


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_AWKWARD_TEXT + ("a", " ", "Z9")) for _ in range(rng.randrange(6)))


def _random_payload(rng: random.Random, depth: int = 0):
    """A nested value of the kinds structured output holds: str, int, bool, None, list and dict."""
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice((0, 1, -1, 2**63, 2**64 + 1, -(2**70), rng.randint(-(10**30), 10**30)))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind in (3, 4, 5):
        return rng.choice(("", "x", 7, None, [], {}))
    if kind in (6, 7):
        return [_random_payload(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {_random_text(rng): _random_payload(rng, depth + 1) for _ in range(rng.randrange(5))}


def test_structured_writer_matches_json_dumps():
    from _json import encode_basestring_ascii

    rng = random.Random("structured writer")
    payloads = [_random_payload(rng) for _ in range(600)]
    payloads += [{}, [], "", {"": [[], {}]}, ("tuple", 1), {"k": ("a", (None,))}]
    assert sum(isinstance(p, dict) and len(p) > 1 for p in payloads) > 40
    for payload in payloads:
        assert cli._json_text(payload, encode_basestring_ascii) == json.dumps(payload, indent=2), payload
    with pytest.raises(TypeError, match="float is not JSON serializable"):
        cli._json_text([1.5], encode_basestring_ascii)
