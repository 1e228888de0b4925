"""Catalog routing, per-family certificates, data validation, invariants."""

import json

import pytest

from loopcomm.catalog import (
    FAMILIES,
    CatalogDataError,
    CriterionPlan,
    ParameterError,
    RecordedStep,
    SteenrodStep,
    _power_candidates,
    _smallest_odd_prime_divisor,
    check,
    instantiate,
    load_dataset,
    report,
    route,
)
from loopcomm.criteria import ASSERTED, Certificate, DataIncomplete, Refusal


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
            first = _power_candidates(n)[0]
            assert first == (2 if n % 4 in (0, 3) else 3)

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
        plan = route(instantiate("CII", (5, 5)))
        inst = plan.steps[0].instance
        assert inst.op.label == "P^1 (p=5)"
        assert inst.b == "q2"
        assert plan.steps[0].lift.threshold == 22

    def test_cii_power_of_two_plan(self):
        plan = route(instantiate("CII", (4, 4)))
        inst = plan.steps[0].instance
        assert inst.op.label == "Sq^4"
        assert inst.b == "q1"

    def test_cii_rank_one_diagonal(self):
        plan = route(instantiate("CII", (3, 1)))
        inst = plan.steps[0].instance
        assert inst.op.prime == 3 and inst.a == inst.b
        assert inst.source_a is inst.source_b and inst.pullback_a == inst.pullback_b

    def test_cp3_plan_carries_exception(self):
        plan = route(instantiate("AIII", (1, 3)))
        assert plan.exception_note
        assert len(plan.steps) == 2


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


class TestDataset:
    def test_loads_and_validates(self):
        ds = load_dataset()
        assert "EII" in ds.presentations
        assert ds.one("exception", space="CP3")["cite"]

    def test_rejects_malformed_records(self, tmp_path, monkeypatch):
        from loopcomm import catalog

        (tmp_path / "presentations").mkdir()
        (tmp_path / "facts.txt").write_text("bogus-kind space=X\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        catalog._DATASET_CACHE.clear()
        with pytest.raises(CatalogDataError, match="unknown record kind"):
            load_dataset()
        catalog._DATASET_CACHE.clear()

    def test_rejects_missing_keys(self, tmp_path, monkeypatch):
        from loopcomm import catalog

        (tmp_path / "presentations").mkdir()
        (tmp_path / "facts.txt").write_text("external cite=x\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        catalog._DATASET_CACHE.clear()
        with pytest.raises(CatalogDataError, match="missing keys"):
            load_dataset()
        catalog._DATASET_CACHE.clear()

    def test_rejects_bad_presentation(self, tmp_path, monkeypatch):
        from loopcomm import catalog

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
