"""Catalog routing, per-family certificates, data validation, invariants."""

import itertools
import json
import random
from collections import Counter
import re
import shlex
import shutil
from pathlib import Path

import pytest

from loopcomm import catalog, steenrod
from loopcomm.catalog import (
    FAMILIES,
    CatalogDataError,
    CriterionPlan,
    ParameterError,
    RecordedStep,
    SteenrodStep,
    _classifying_plan,
    _smallest_odd_prime_divisor,
    _top_class_ops,
    check,
    family,
    instantiate,
    load_dataset,
    report,
    route,
)
from loopcomm.cli import _USAGE_ERRORS, main as cli_main
from loopcomm.criteria import (
    ASSERTED,
    MACHINE,
    Certificate,
    DataIncomplete,
    Refusal,
    TranscriptEntry,
    conclude_noncommutative,
)
from loopcomm.gradedalg import Algebra, FieldSpec, Generator, parse_poly, poly_to_text, replace
from loopcomm.sullivan import SullivanModel


class TestInstantiate:
    def test_labels(self):
        assert instantiate("AI", (5,)).label == "AI(5)"
        assert instantiate("EII").label == "EII"

    def test_table_bounds(self):
        with pytest.raises(ParameterError, match="n >= 2"):
            instantiate("AII", (1,))
        with pytest.raises(ParameterError):
            instantiate("AI", (1,))
        with pytest.raises(ParameterError):
            instantiate("BDI", (1, 3))
        with pytest.raises(ParameterError):
            instantiate("CII", (0, 2))

    def test_unknown_family_lists_valid_ids(self):
        with pytest.raises(ParameterError, match="AI, AII, AIII"):
            instantiate("XYZ")

    def test_wrong_arity(self):
        with pytest.raises(ParameterError):
            instantiate("EI", (3,))
        with pytest.raises(ParameterError):
            instantiate("CII", (3,))

    def test_normalization(self):
        assert instantiate("BDI", (3, 5)).params == (5, 3)
        assert instantiate("CII", (2, 6)).params == (6, 2)
        assert instantiate("AIII", (3, 1)).params == (1, 3)


class TestRouting:
    def test_mod_four_branches(self):
        for n in range(3, 20):
            (first, b), *_ = _top_class_ops(steenrod.torus_model("so", n))
            assert first.k == b == (2 if n % 4 in (0, 3) else 3)

    def test_odd_prime_xor_power_of_two(self):
        for n in range(1, 200):
            p = _smallest_odd_prime_divisor(n)
            is_pow2 = (n & (n - 1)) == 0
            assert (p is None) == is_pow2

    def test_ai2_routes_to_recorded(self):
        plan = route(instantiate("AI", (2,)))
        assert isinstance(plan.steps[0], RecordedStep)

    def test_bdi_rank2_recorded(self):
        plan = route(instantiate("BDI", (5, 2)))
        assert isinstance(plan.steps[0], RecordedStep)

    def test_ai7_plan_data(self):
        plan = route(instantiate("AI", (7,)))
        step = plan.steps[0]
        assert isinstance(step, SteenrodStep)
        inst = step.instance
        assert inst.op.label == "Sq^2"
        assert {inst.a, inst.b} == {"v7", "v2"}
        assert inst.x == "v7"

    def test_cii_odd_prime_plan(self):
        (lift,) = route(instantiate("CII", (5, 5))).steps
        assert (lift.group, lift.rank, lift.threshold, lift.source_dim) == ("sp", 5, 22, 20)
        inst = _classifying_plan("sp", 5).steps[0].instance
        assert inst.op.label == "P^1 (p=5)"
        assert inst.b == "q2"

    def test_cii_power_of_two_plan(self):
        assert route(instantiate("CII", (4, 4))).steps[0].rank == 4
        inst = _classifying_plan("sp", 4).steps[0].instance
        assert inst.op.label == "Sq^4"
        assert inst.b == "q1"

    def test_cii_rank_one_diagonal(self):
        assert route(instantiate("CII", (3, 1))).steps[0].rank == 1
        inst = _classifying_plan("sp", 1).steps[0].instance
        assert inst.op.prime == 3 and inst.a == inst.b
        assert inst.source_a is inst.source_b and inst.pullback_a == inst.pullback_b

    def test_cp3_plan_carries_exception(self):
        plan = route(instantiate("AIII", (1, 3)))
        assert plan.exception_note
        assert len(plan.steps) == 2


def test_only_cp3_refuses_at_small_parameters():
    # every family at parameters <= 8; the CP^3 instances, AIII(1,3) and DIII(3) = SO(6)/U(3), are the only refusals
    cp3_note = load_dataset().one("exception", space="CP3")["cite"]
    refused, certified = [], 0
    for fam in FAMILIES:
        for params in itertools.product(range(fam.least, 9), repeat=fam.arity):
            result = check(instantiate(fam.id, params))
            if isinstance(result, Refusal):
                assert result.exception_note == cp3_note, result.space
                refused.append(result.space)
            else:
                certified += 1
    assert sorted(refused) == ["AIII(1,3)", "AIII(1,3)", "DIII(3)"]
    assert certified + len(refused) == 217


class TestChecks:
    @pytest.mark.parametrize(
        "family,params,criterion",
        [
            ("EII", (), "Rational"),
            ("EV", (), "Rational"),
            ("EVIII", (), "Rational"),
            ("EVI", (), "Rational"),
            ("EIX", (), "Rational"),
            ("FI", (), "Rational"),
            ("EI", (), "Steenrod"),
            ("FII", (), "Steenrod"),
            ("G", (), "Steenrod"),
            ("EIV", (), "PartialProjectivePlane"),
            ("AII", (4,), "PartialProjectivePlane"),
            ("AI", (6,), "Steenrod"),
            ("BDI", (6, 5), "Steenrod"),
            ("CII", (6, 6), "Steenrod"),
            ("AIII", (2, 3), "RecordedExternal"),
            ("DIII", (4,), "RecordedExternal"),
            ("CI", (3,), "RecordedExternal"),
            ("EIII", (), "RecordedExternal"),
            ("EVII", (), "RecordedExternal"),
        ],
    )
    def test_certificates(self, family, params, criterion):
        result = check(instantiate(family, params))
        assert isinstance(result, Certificate), getattr(result, "failed", None)
        assert result.criterion == criterion

    def test_witness_values(self):
        eii = check(instantiate("EII"))
        assert ("pair", "(x8, x8)") in eii.witness
        assert ("target", "pi_15 (x) Q") in eii.witness
        eviii = check(instantiate("EVIII"))
        assert ("pair", "(y20, y20)") in eviii.witness
        assert ("target", "pi_39 (x) Q") in eviii.witness
        evi = check(instantiate("EVI"))
        assert ("degrees", "(12, 12)") in evi.witness

    def test_fi_transfer_recorded_in_transcript(self):
        cert = check(instantiate("FI"))
        texts = [e.description for e in cert.transcript]
        assert any("threshold 5" in t for t in texts)
        assert any("rational homotopy isomorphism" in t for t in texts)

    def test_cp3_refused_everywhere_and_flagged(self):
        result = check(instantiate("AIII", (1, 3)))
        assert isinstance(result, Refusal)
        assert result.exception_note
        notes = [e.description for e in result.transcript]
        assert any("Rational" in n and "refused" in n for n in notes)

    def test_cp2_rational_refusal_then_recorded(self):
        result = check(instantiate("AIII", (1, 2)))
        assert isinstance(result, Certificate)
        assert result.criterion == "RecordedExternal"
        notes = [e.description for e in result.transcript]
        assert any("refused: no quadratic term" in n for n in notes)

    def test_cp1_gets_machine_rational_certificate(self):
        result = check(instantiate("AIII", (1, 1)))
        assert isinstance(result, Certificate)
        assert result.criterion == "Rational"

    def test_bdi_normalization_invariance(self):
        a = check(instantiate("BDI", (6, 4)))
        b = check(instantiate("BDI", (4, 6)))
        assert a.witness == b.witness

    def test_bdi_lift_bound_machine_checked(self):
        cert = check(instantiate("BDI", (7, 4)))
        texts = [e.description for e in cert.transcript]
        assert any("4-equivalence" in t for t in texts)
        assert any("source dimension 4 <= 4" in t for t in texts)

    def test_lift_beyond_threshold_refuses(self, monkeypatch):
        plan = route(instantiate("BDI", (7, 4)))
        steps = tuple(replace(s, source_dim=5) for s in plan.steps)
        monkeypatch.setattr("loopcomm.catalog.route", lambda instance: CriterionPlan(steps))
        result = check(instantiate("BDI", (7, 4)))
        assert isinstance(result, Refusal)
        assert result.failed == "source dimension 5 > 4: the maps need not lift"

    def test_rational_model_must_be_cocycles(self, monkeypatch):
        # dz6 = x2^2*y3 with dy3 = x2^2 gives d(dz6) = x2^4 != 0
        alg = Algebra(FieldSpec(0), [Generator("x2", 2), Generator("y3", 3, True), Generator("z6", 6)])
        model = SullivanModel(alg, {"y3": alg.monomial((2, 0, 0)), "z6": alg.monomial((2, 1, 0))})
        monkeypatch.setattr("loopcomm.catalog.build_formal_model", lambda pres: model)
        result = check(instantiate("EII"))
        assert isinstance(result, Refusal)
        assert result.failed == "a stored differential is not a cocycle"

    @pytest.mark.parametrize(
        "family,params,op",
        [
            ("AI", (3,), "Sq^2"),
            ("AI", (4,), "Sq^2"),
            ("AI", (5,), "Sq^4"),
            ("AI", (6,), "Sq^4"),
            ("AI", (7,), "Sq^2"),
            ("AI", (8,), "Sq^2"),
            ("AI", (9,), "Sq^8"),
            ("AI", (10,), "Sq^8"),
            ("BDI", (8, 5), "Sq^4"),
            ("BDI", (8, 6), "Sq^4"),
            ("BDI", (8, 7), "Sq^2"),
        ],
    )
    def test_operation_ladder_outcomes(self, family, params, op):
        cert = check(instantiate(family, params))
        assert isinstance(cert, Certificate)
        assert ("operation", op) in cert.witness

    def test_ai_fallback_documented_for_rank5(self):
        cert = check(instantiate("AI", (5,)))
        assert isinstance(cert, Certificate)
        notes = [e.description for e in cert.transcript if e.outcome == "info"]
        assert any("Sq^3" in n and "refused" in n for n in notes)
        assert ("operation", "Sq^4") in cert.witness

    def test_ei_crosscheck_surfaces_q4(self):
        cert = check(instantiate("EI"))
        surfaced = [e for e in cert.transcript if "surfaced unresolved" in e.description]
        assert surfaced and "3*q4" in surfaced[0].description

    def test_inconclusive_crosscheck_is_info(self, tmp_path, monkeypatch, capsys):
        # a recorded P^1 x8 = 2*x8^2 differs from the resolved image x8^2, but
        # the surfaced 3*q4 may account for the difference
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        facts = (_DATA / "facts.txt").read_text(encoding="utf-8")
        record = 'action space=EI gen=x8 family=P k=1 prime=5 value="x8^2"'
        assert record in facts
        (data / "facts.txt").write_text(facts.replace(record, record.replace('"x8^2"', '"2*x8^2"')), encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
        assert cli_main(["check", "EI", "--format", "structured"]) == 0
        transcript = json.loads(capsys.readouterr().out)["transcript"]
        assert all(e["outcome"] != "fail" for e in transcript)
        reported = [e for e in transcript if "discrepancy reported" in e["description"]]
        assert reported and reported[0]["outcome"] == "info"

    def test_fii_crosscheck_surfaces_p4(self):
        cert = check(instantiate("FII"))
        surfaced = [e for e in cert.transcript if "surfaced unresolved" in e.description]
        assert surfaced and "3*p4" in surfaced[0].description

    def test_empty_plan_is_an_error(self, monkeypatch):
        # an explicit check, so that it also holds under python -O
        monkeypatch.setattr("loopcomm.catalog.route", lambda instance: CriterionPlan(()))
        with pytest.raises(DataIncomplete, match="empty criterion plan for EIV"):
            check(instantiate("EIV"))

    def test_g_action_fully_derived(self):
        cert = check(instantiate("G"))
        fives = [e for e in cert.transcript if e.description.startswith("(5)")]
        assert fives and fives[0].status == "machine-verified"
        assert "x2*x3" in fives[0].description

    def test_cii_computes_only_the_components_condition_six_reads(self, monkeypatch):
        # at p = 5 condition (6) reads P^0 and P^1 on Sigma Q_25 and Sigma Q_2, never P^k for k > 1;
        # the suspension reads raise the torus degree by one P^1 step, as the main action does
        asked = []
        raised = steenrod._raised_class

        def spy(model, i, prime, raise_by):
            asked.append((prime, raise_by))
            return raised(model, i, prime, raise_by)

        monkeypatch.setattr(steenrod, "_raised_class", spy)
        assert isinstance(check(instantiate("CII", (25, 25))), Certificate)
        assert asked and set(asked) == {(5, 1)}

    def test_cii_eliminates_only_the_main_action(self, monkeypatch):
        # condition (6) reads linear coefficients by the power-sum pairing; only
        # theta = P^1 q_29, printed whole by condition (5), runs the elimination
        calls = []
        eliminate = steenrod._e_coefficients

        def spy(mcoeffs, nvars, prime=0):
            calls.append(nvars)
            return eliminate(mcoeffs, nvars, prime)

        monkeypatch.setattr(steenrod, "_e_coefficients", spy)
        assert isinstance(check(instantiate("CII", (29, 29))), Certificate)
        assert calls == [29]



class TestLifts:
    """BDI and CII rows lift one certificate per classifying space and rank."""

    def test_cold_check_equals_report_row(self, cold_caches):
        rows = {r.label: r for r in report(families=["BDI", "CII"]).rows}
        for fam_id in ("BDI", "CII"):
            for params in family(fam_id).default_range:
                cold_caches()
                inst = instantiate(fam_id, params)
                cert = check(inst)
                conclusion = conclude_noncommutative(cert)
                row = rows[inst.label]
                assert cert.witness_text() == row.witness, inst.label
                assert conclusion.statement == row.conclusion, inst.label
                assert conclusion.certificate.transcript == row.transcript, inst.label

    def test_report_is_the_same_twice_in_one_process(self):
        assert report().to_dict() == report().to_dict()

    def test_report_certifies_each_classifying_space_once(self, monkeypatch, cold_caches):
        checked, ops = [], []
        criterion = catalog.check_steenrod_criterion
        init = steenrod.SteenrodOp.__init__

        def spy(inst):
            checked.append(inst.space)
            return criterion(inst)

        def counting_init(self, *args, **kwargs):
            ops.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(catalog, "check_steenrod_criterion", spy)
        monkeypatch.setattr(steenrod.SteenrodOp, "__init__", counting_init)
        report()
        assert len(checked) <= 31 and len(ops) <= 200
        in_report = Counter(space for space in checked if space.startswith("B"))
        # the m = n rows alone check each classifying space as often as the whole report does
        cold_caches()
        checked.clear()
        for fam_id in ("BDI", "CII"):
            for m, n in family(fam_id).default_range:
                if m == n:
                    check(instantiate(fam_id, (m, n)))
        assert Counter(checked) == in_report
        assert in_report["BSO(8)"] == in_report["BSp(5)"] == 1

    def test_rows_of_one_rank_share_the_base_certificate(self):
        cii55, cii75 = check(instantiate("CII", (5, 5))), check(instantiate("CII", (7, 5)))
        assert catalog._classifying_result.cache_info().misses == 1
        assert cii55.witness == cii75.witness
        assert cii55.transcript[:-2] == cii75.transcript[:-2]
        assert cii75.transcript[-2].description == "CII(7,5) -> BSp(5) is a 22-equivalence"

    def test_refused_base_is_the_row_refusal(self, monkeypatch):
        # BSO(5) tries Sq^3, then Sq^4; with both refused the row keeps the last
        # refusal and a note for the first, as an unlifted plan does
        def refuse(inst):
            entry = TranscriptEntry(MACHINE, "fail", f"{inst.op.label} refused")
            return Refusal(inst.space, "Steenrod", f"condition (4): {inst.op.label}", (entry,))

        monkeypatch.setattr(catalog, "check_steenrod_criterion", refuse)
        result = check(instantiate("BDI", (8, 5)))
        assert isinstance(result, Refusal)
        assert (result.space, result.failed) == ("BDI(8,5)", "condition (4): Sq^4")
        assert [e.description for e in result.transcript] == [
            "Sq^4 refused",
            "plan step 'Steenrod Sq^3 on BSO(5)' refused: condition (4): Sq^3",
        ]


_DATA = Path(catalog.__file__).parent / "data"
_FACT_KINDS = tuple(catalog._REQUIRED_KEYS) + ("bogus",)
_FACT_JUNK = ("", "x", "0", "-1", "17", "1/2", "x8^2", "q2", "so", "Sq", "EI", "bogus.pres")


def _mutate_fact_line(rng, lines):
    """The lines with one record edited: a key dropped, a value replaced, the kind changed, or the line blanked."""
    lines = list(lines)
    i = rng.choice([j for j, line in enumerate(lines) if line and not line.startswith("#")])
    words = shlex.split(lines[i])
    how = rng.randrange(4)
    if how == 0:
        del words[rng.randrange(1, len(words))]
    elif how == 1:
        j = rng.randrange(1, len(words))
        words[j] = words[j].partition("=")[0] + "=" + rng.choice(_FACT_JUNK)
    elif how == 2:
        words[0] = rng.choice(_FACT_KINDS)
    else:
        words = []
    lines[i] = shlex.join(words)
    return lines


def _recorded_values() -> list:
    """(space, value text) of every facts.txt record with a value, in file order."""
    lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
    records = [r for r in map(catalog._fact_record, lines) if r is not None]
    return [(rec["space"], rec["value"]) for _, rec in records if "value" in rec]


_VALUE_TOKENS = ("+", "-", "*", "^", "/", "(", ")", " ", "0", "1", "2", "1/2", "x8", "x9", "x17", "q", "x2", "x3")


def _mutate_value(rng, text: str) -> str:
    """text with one token dropped, replaced or inserted, rejoined with or without spaces."""
    tokens = re.findall(r"[0-9]+/[0-9]+|[0-9]+|[A-Za-z_][A-Za-z_0-9]*|\S", text)
    i = rng.randrange(len(tokens))
    how = rng.randrange(3)
    if how == 0:
        del tokens[i]
    elif how == 1:
        tokens[i] = rng.choice(_VALUE_TOKENS)
    else:
        tokens.insert(i + rng.randrange(2), rng.choice(_VALUE_TOKENS))
    return rng.choice(("", " ")).join(tokens)


class TestDataset:
    def test_every_value_is_parsed_at_load_and_canonical(self):
        # printing what was parsed gives back the recorded text
        values = _recorded_values()
        assert len(values) == 8
        loaded = [rec["value"] for _, rec in load_dataset().facts if "value" in rec]
        assert [poly_to_text(p) for p in loaded] == [text for _, text in values]

    def test_one_token_value_mutants_round_trip_or_raise(self):
        ds = load_dataset()
        rng = random.Random("facts.txt values")
        for space, text in _recorded_values():
            alg = ds.presentation(space).algebra
            for _ in range(60):
                mutant = _mutate_value(rng, text)
                try:
                    p = parse_poly(mutant, alg)
                except ValueError:
                    continue
                assert parse_poly(poly_to_text(p), alg) == p, mutant

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ('value="x8^2"', 'value="3*x8^2 - - x8^2"', "not a polynomial: '3*x8^2 - - x8^2'"),
            ('value="x8^2"', 'value="x8^^2"', "not a polynomial: 'x8^^2'"),
            ('value="x9 + x17"', 'value="x9 + x18"', "unknown generator 'x18'"),
            ("sq-table space=EIV gen=x17", "sq-table space=AII gen=x17", "no presentation record for space 'AII'"),
            ("gen=x8 family=P k=1 prime=5", "gen=x8 family=P k=1 prime=5 prime=7", "repeated key 'prime'"),
            ("gen=x8 family=P k=1 prime=5", "gen=x8 family=P k=1 prime=5 typo=1", "action record has unknown key 'typo'"),
            ("external family=CI", "external family=CI space=CI", "external record has unknown key 'space'"),
        ],
    )
    def test_bad_records_fail_at_load_naming_their_line(self, tmp_path, monkeypatch, capsys, old, new, message):
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
        (lineno,) = [i for i, line in enumerate(lines, start=1) if old in line]
        lines[lineno - 1] = lines[lineno - 1].replace(old, new)
        (data / "facts.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
        for argv in (["check", "EI"], ["check", "AI", "--n", "4"], ["report", "--all"]):
            assert cli_main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: facts.txt line {lineno}: {message}" in captured.err

    def test_loads_and_validates(self):
        ds = load_dataset()
        assert "EII" in ds.presentations
        assert ds.one("exception", space="CP3")["cite"]

    def test_rejects_malformed_records(self, tmp_path, monkeypatch):
        (tmp_path / "presentations").mkdir()
        (tmp_path / "facts.txt").write_text("bogus-kind space=X\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        catalog._DATASET_CACHE.clear()
        with pytest.raises(CatalogDataError, match="unknown record kind"):
            load_dataset()
        catalog._DATASET_CACHE.clear()

    def test_rejects_missing_keys(self, tmp_path, monkeypatch):
        (tmp_path / "presentations").mkdir()
        (tmp_path / "facts.txt").write_text("external cite=x\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        catalog._DATASET_CACHE.clear()
        with pytest.raises(CatalogDataError, match="missing keys"):
            load_dataset()
        catalog._DATASET_CACHE.clear()

    def test_rejects_bad_presentation(self, tmp_path, monkeypatch):
        (tmp_path / "presentations").mkdir()
        (tmp_path / "presentations" / "bad.pres").write_text(
            "field rational\ngenerator\nend\n", encoding="utf-8"
        )
        (tmp_path / "facts.txt").write_text(
            'presentation space=X file=bad.pres cite="c"\n', encoding="utf-8"
        )
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        catalog._DATASET_CACHE.clear()
        with pytest.raises(CatalogDataError):
            load_dataset()
        catalog._DATASET_CACHE.clear()

    @pytest.mark.parametrize(
        "record,message",
        [
            ('action space=EI gen=x8 family=P k=x prime=5 value="x8^2" cite="c"', "k='x'"),
            ('action space=EI gen=x8 family=P k=1 prime=-5 value="x8^2" cite="c"', "prime='-5'"),
            ('fibration space=FI aux=FI-aux aux-label=L threshold=5.0 cite="c"', "threshold='5.0'"),
        ],
    )
    def test_rejects_non_integer_key(self, tmp_path, monkeypatch, record, message):
        (tmp_path / "facts.txt").write_text(f"# header\n{record}\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
        with pytest.raises(CatalogDataError, match=re.escape(f"facts.txt line 2: {message} is not an integer")):
            load_dataset()

    def test_missing_presentation_file_names_line(self, tmp_path, monkeypatch):
        (tmp_path / "facts.txt").write_text('presentation space=X file=absent.pres cite="c"\n', encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
        with pytest.raises(CatalogDataError, match=r"facts\.txt line 1: .*absent\.pres"):
            load_dataset()

    def test_one_line_mutants_load_or_name_a_line(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
        rng = random.Random("facts.txt")
        for _ in range(100):
            text = "\n".join(_mutate_fact_line(rng, lines)) + "\n"
            (data / "facts.txt").write_text(text, encoding="utf-8")
            monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
            try:
                load_dataset()
            except CatalogDataError as exc:
                assert re.match(r"facts\.txt line \d+: ", str(exc)), (text, exc)
                continue
            for fam in FAMILIES:
                params = fam.default_range[0] if fam.default_range else (fam.least,) * fam.arity
                try:
                    check(instantiate(fam.id, params))
                except _USAGE_ERRORS:
                    pass

    @pytest.mark.parametrize(
        "count,message",
        [
            (2, "unknown class 'w3' in the su(4) model"),
            (1, "pullback records for G must name one torus model, not ['so', 'su']"),
        ],
    )
    def test_g_reads_the_torus_model_of_its_pullbacks(self, tmp_path, monkeypatch, capsys, count, message):
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        facts = (_DATA / "facts.txt").read_text(encoding="utf-8")
        record = "pullback space=G model=so "
        assert facts.count(record) == 2
        mutated = facts.replace(record, record.replace("=so", "=su"), count)
        (data / "facts.txt").write_text(mutated, encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
        assert cli_main(["check", "G"]) == 1
        assert message in capsys.readouterr().err

    def test_negative_relation_degree_fails_naming_its_line(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        pres = data / "presentations" / "FI-aux.pres"
        text = pres.read_text(encoding="utf-8")
        assert "relation 24 partial decomposable" in text
        pres.write_text(text.replace("relation 24 ", "relation -2 "), encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
        for argv in (["check", "FI"], ["report", "--all"]):
            assert cli_main(argv) == 1, argv
            err = capsys.readouterr().err
            assert "error: FI-aux.pres: presentation line 7: relation degree must be non-negative, got -2" in err

    def test_words_split_as_shlex_splits_them(self):
        def split(split_words, line):
            try:
                return split_words(line)
            except ValueError as exc:
                return str(exc)

        rng = random.Random(16)
        alphabet = ("a", "=", "x8^2", '"', "'", "\\", "#", " ", "\t", "\r", "\n", "\x0c", "\xa0", "é")
        lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
        lines += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))) for _ in range(10_000)]
        for line in lines:
            want = split(lambda text: shlex.split(text, comments=True), line)
            assert split(catalog._shell_words, line) == want, repr(line)

    def test_hash_inside_a_quoted_value_is_text(self, tmp_path, monkeypatch, capsys):
        # a # outside quotes starts a comment; inside a quoted cite it is part of the text
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        facts = (_DATA / "facts.txt").read_text(encoding="utf-8")
        record = 'fibration space=EVI aux=EVI-aux aux-label="E7/(Spin(12)xS1)" threshold=5 cite="fiber S^2 has'
        assert record in facts
        mutated = facts.replace(record, record.replace("S^2 has", "S^2 (see #4) has")) + "# trailing comment\n"
        (data / "facts.txt").write_text(mutated, encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
        assert catalog._fact_record('external family=CI cite="see #4" # why') == (
            "external", {"family": "CI", "cite": "see #4"}
        )
        assert catalog._fact_record("   # only a comment") is None
        assert cli_main(["check", "EVI"]) == 0
        assert "fiber S^2 (see #4) has trivial rational homotopy" in capsys.readouterr().out

    def test_threshold_above_the_witness_is_a_refusal(self, tmp_path, monkeypatch, capsys):
        # FI's witness lives in degrees (8, 8, 15); threshold 17 does not let it transfer
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        facts = (_DATA / "facts.txt").read_text(encoding="utf-8")
        record = 'fibration space=FI aux=FI-aux aux-label="F4/(Sp(3)xS1)" threshold=5 '
        assert record in facts
        (data / "facts.txt").write_text(facts.replace(record, record.replace("=5 ", "=17 ")), encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
        assert cli_main(["check", "FI"]) == 2
        out = capsys.readouterr().out
        assert "failed: witness degree 8 is below the equivalence threshold 17" in out
        assert "[machine-verified] fail: witness degrees (8,8,15) not all >= threshold 17" in out
        assert cli_main(["report", "--all"]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("FI "))
        assert "no conclusion" in row

    @pytest.mark.parametrize(
        "old,new,failed",
        [
            ("relation 24 partial decomposable", "relation 24 partial",
             "partial relation of degree 24 lacks a decomposability assertion"),
            ("end", "relation 12 partial decomposable\nend", "relation count 3 != generator count 2"),
            ("relation 24 partial decomposable", "relation 1 partial decomposable",
             "relation of degree 1 is below 2: its model generator would have degree 0"),
            ("field rational", "field prime 5", "formal model construction requires rational coefficients"),
            ("generator x2 2", "generator x3 3 squares-to-zero", "odd generator x3 in input"),
            ("relation 16 partial decomposable\nterm 1 0 2\nrelation 24 partial decomposable",
             "relation 8 explicit\nterm 1 0 1\nrelation 16 explicit\nterm 1 0 2",
             "relation of degree 8 is not decomposable"),
            # x2^8 lies in the ideal of x2^4, so x8 survives in every even degree
            ("relation 16 partial decomposable\nterm 1 0 2\nrelation 24 partial decomposable",
             "relation 8 explicit\nterm 1 4 0\nrelation 16 explicit\nterm 1 8 0",
             "relations do not form a complete intersection"),
        ],
    )
    def test_rational_hypothesis_violation_is_a_refusal(self, tmp_path, monkeypatch, capsys, old, new, failed):
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        pres = data / "presentations" / "FI-aux.pres"
        text = pres.read_text(encoding="utf-8")
        assert old in text
        pres.write_text(text.replace(old, new), encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        monkeypatch.setattr(catalog, "_DATASET_CACHE", {})
        assert cli_main(["check", "FI", "--format", "structured"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["failed"] == failed
        assert [(e["outcome"], e["description"]) for e in out["transcript"]] == [("fail", failed)]
        assert cli_main(["report", "--all"]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("FI "))
        assert "no conclusion" in row


class TestReport:
    def test_family_filter(self):
        rep = report(families=["CII"], max_param=4)
        assert rep.rows
        assert all(r.family == "CII" for r in rep.rows)
        assert all(all(int(p) <= 4 for p in r.params.split(",")) for r in rep.rows)

    def test_empty_selection(self):
        rep = report(families=["CII"], max_param=0)
        assert rep.rows == ()

    def test_eiv_only(self):
        rep = report(families=["EIV"])
        assert len(rep.rows) == 1
        assert rep.rows[0].criterion == "PartialProjectivePlane"

    def test_every_asserted_entry_cites(self):
        rep = report()
        for row in rep.rows:
            for e in row.transcript:
                if e.status == ASSERTED:
                    assert e.citation, (row.label, e.description)

    def test_rows_ordered_by_table(self):
        rep = report()
        fams = [r.family for r in rep.rows]
        order = {f.id: i for i, f in enumerate(FAMILIES)}
        assert fams == sorted(fams, key=lambda f: order[f])

    def test_round_trip_serialization_is_stable(self):
        rep = report(families=["EI", "G"])
        a = json.dumps(rep.to_dict(), indent=2)
        b = json.dumps(report(families=["EI", "G"]).to_dict(), indent=2)
        assert a == b
