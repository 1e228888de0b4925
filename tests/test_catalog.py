"""Catalog routing, per-family certificates, data validation, invariants."""

import itertools
import json
import random
from collections import Counter
from functools import partial
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
from loopcomm.cli import main as cli_main
from loopcomm.criteria import (
    ASSERTED,
    Certificate,
    DataIncomplete,
    ExteriorActionData,
    GeneratingMapWitness,
    Refusal,
    Transcript,
    check_partial_projective_criterion,
    conclude_noncommutative,
    validate_sq_action,
)
from loopcomm.gradedalg import (
    Algebra,
    FieldSpec,
    Generator,
    Presentation,
    parse_poly,
    poly_to_text,
    replace,
)
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
        assert (lift.group, lift.rank, lift.threshold) == ("sp", 5, 22)
        lifted = check(instantiate("CII", (5, 5))).transcript
        assert any(e.description.startswith("source dimension 20 <= 22:") for e in lifted)
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
        assert inst.source_a is inst.source_b

    def test_cp3_plan_carries_exception(self):
        plan = route(instantiate("AIII", (1, 3)))
        assert plan.exception_note
        assert len(plan.steps) == 2


def test_only_cp3_refuses_at_small_parameters():
    # every family at parameters <= 8; the CP^3 instances, AIII(1,3) and DIII(3) = SO(6)/U(3), are the only refusals
    cp3_note = load_dataset().one("exception", "CP3")["cite"]
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


# (family, params) of the names of one space, by the low-rank coincidences of Helgason X.6
_ONE_SPACE = [
    [("AI", (4,)), ("BDI", (3, 3))],
    [("CI", (2,)), ("BDI", (3, 2))],
    [("AIII", (2, 2)), ("BDI", (4, 2))],
    [("DIII", (4,)), ("BDI", (6, 2))],
    [("DIII", (2,)), ("AI", (2,)), ("AIII", (1, 1))],
    [("DIII", (3,)), ("AIII", (1, 3))],
]


@pytest.mark.parametrize("names", _ONE_SPACE, ids=lambda names: " = ".join(f"{f}{p}" for f, p in names))
def test_every_name_of_one_space_reaches_the_same_outcome(names):
    """Every name certifies, or every name refuses with the CP^3 note; which route each takes is free.

    Each Lie-algebra isomorphism (Helgason X.6) fixes only the universal
    cover, so each identification is made globally:
    - AI(4) = SU(4)/SO(4) = SO(6)/(SO(3)xSO(3)) = BDI(3,3): SU(4) -> SO(6) on
      the real form of Lambda^2 C^4 has kernel {+-1}, which lies in SO(4),
      and SO(4) maps onto SO(3)xSO(3) through Lambda^2 R^4 = Lambda^2_+ + Lambda^2_-.
    - CI(2) = Sp(2)/U(2) = SO(5)/(SO(3)xSO(2)) = BDI(3,2): Sp(2) -> SO(5) on
      the symplectic-traceless part of Lambda^2 C^4 has kernel {+-1}, inside
      U(2), and U(2) maps onto SO(3)xSO(2) by (Ad on su(2), det).
    - AIII(2,2) = Gr_2(C^4) = Q^4 = SO(6)/(SO(4)xSO(2)) = BDI(4,2): the
      Pluecker map P -> Lambda^2 P lands on the Klein quadric, and an
      oriented 2-plane <e1, e2> of R^6 is the null line [e1 + i e2].
    - DIII(4) = SO(8)/U(4) = Q^6 = BDI(6,2): a positive complex structure on
      R^8 is a pure spinor line of S_+, the pure spinors of S_+ form the
      quadric Q^6 in P(S_+), and triality carries it to the null lines of
      C^8, the oriented 2-planes of R^8.
    - DIII(2) = SO(4)/U(2) = S^2 (unit self-dual 2-forms), AI(2) =
      SU(2)/SO(2) = S^2 and AIII(1,1) = CP^1 = S^2.
    - DIII(3) = SO(6)/U(3) = CP^3 = AIII(1,3): every spinor of Spin(6) =
      SU(4) is pure, so positive complex structures on R^6 are the lines of
      S_+ = C^4.
    """
    cp3_note = load_dataset().one("exception", "CP3")["cite"]
    kinds = set()
    for fam, params in names:
        result = check(instantiate(fam, params))
        if isinstance(result, Certificate):
            kinds.add("certified")
        else:
            assert result.exception_note == cp3_note, result.space
            kinds.add("refused as CP^3")
    assert len(kinds) == 1, names


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
        # the source dimension is read off BSO(4)'s top class; a threshold below it refuses
        steps = tuple(replace(s, threshold=3) for s in plan.steps)
        monkeypatch.setattr("loopcomm.catalog.route", lambda instance: CriterionPlan(steps))
        result = check(instantiate("BDI", (7, 4)))
        assert isinstance(result, Refusal)
        assert result.failed == "source dimension 4 > 3: the maps need not lift"

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

        def spy(class_power, i, prime, raise_by):
            asked.append((prime, raise_by))
            return raised(class_power, i, prime, raise_by)

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
                concluded = conclude_noncommutative(cert)
                row = rows[inst.label]
                assert cert.witness_text() == row.witness, inst.label
                assert concluded.conclusion == row.conclusion, inst.label
                assert concluded.transcript == row.transcript, inst.label

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

    def test_report_computes_only_what_its_steps_read(self, monkeypatch):
        # 35 Steenrod steps are built and 31 run: a step derives its action only when the run reaches it,
        # and a suspension coefficient is read once per (class power, i, n, prime, raise)
        built, ran = [], []
        init, run_steenrod = SteenrodStep.__init__, catalog._run_steenrod

        def building(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def running(step):
            ran.append(step.label)
            return run_steenrod(step)

        monkeypatch.setattr(SteenrodStep, "__init__", building)
        monkeypatch.setattr(catalog, "_run_steenrod", running)
        report()
        assert (len(built), len(ran)) == (35, 31)
        ops = steenrod.char_class_operation.cache_info()
        assert ops.hits + ops.misses == len(ran)  # AI(n) and BSO(n) share their reads: 23 misses
        reads = steenrod._linear_coefficient.cache_info()
        assert 0 < reads.misses <= 44 < reads.hits + reads.misses

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
            failed = f"condition (4): {inst.op.label}"
            return Transcript(inst.space, "Steenrod").refuse(failed, f"{inst.op.label} refused")

        monkeypatch.setattr(catalog, "check_steenrod_criterion", refuse)
        result = check(instantiate("BDI", (8, 5)))
        assert isinstance(result, Refusal)
        assert (result.space, result.failed) == ("BDI(8,5)", "condition (4): Sq^4")
        assert [e.description for e in result.transcript] == [
            "Sq^4 refused",
            "plan step 'Steenrod Sq^3 on BSO(5)' refused: condition (4): Sq^3",
        ]


class TestNegativeControls:
    """Spaces whose loop space IS homotopy commutative: each criterion input built for one must refuse.

    CP^3 (Ganea), the H-spaces S^3, S^7, S^3 x S^7 and SU(3) (Eckmann-Hilton), and BSO(2) = CP^infinity,
    whose loop space S^1 is abelian.  A certificate here would contradict a theorem.
    """

    def test_rational_route_on_cp3(self):
        step = catalog.RationalStep("CP^3", catalog._cp_presentation(3), "truncated polynomial")
        refusal = catalog._run_rational(step)
        assert isinstance(refusal, Refusal)
        assert refusal.failed == "no quadratic term in any differential"

    @pytest.mark.parametrize("d", [3, 7])
    def test_rational_route_on_odd_spheres(self, d):
        pres = Presentation(Algebra(FieldSpec(0), [Generator(f"x{d}", d, squares_to_zero=True)]))
        refusal = catalog._run_rational(catalog.RationalStep(f"S^{d}", pres, "exterior"))
        assert isinstance(refusal, Refusal)
        assert refusal.failed == f"odd generator x{d} in input"

    @pytest.mark.parametrize("d", [3, 7])
    def test_projective_route_on_odd_spheres(self, d):
        pres = Presentation(Algebra(FieldSpec(2), [Generator(f"x{d}", d, squares_to_zero=True)]))
        data = ExteriorActionData(pres, {f"x{d}": pres.algebra.gen(f"x{d}")}, "identity table")
        witness = GeneratingMapWitness(f"Sigma S^{d - 1}", f"S^{d - 1}", f"S^{d}", (d,), "one cell")
        refusal = check_partial_projective_criterion(data, witness)
        assert isinstance(refusal, Refusal)
        assert refusal.failed == f"minimal generator degree {d} = 2^k - 1"

    def test_steenrod_route_on_bso2(self):
        # Sq^3 would name w3, which BSO(2) lacks; with no candidate step the plan refuses
        assert _top_class_ops(steenrod.torus_model("so", 2)) == []
        refusal = catalog._classifying_result("so", 2)
        assert isinstance(refusal, Refusal)
        assert refusal.space == "BSO(2)"

    @pytest.mark.parametrize("space", ["CP^3", "BSO(2)"])
    @pytest.mark.parametrize("prime", [2, 3, 5, 7])
    def test_steenrod_instances_on_commutative_loop_spaces(self, space, prime):
        # CP^3 = F_p[x2]/(x2^4) carries the actions of c1 in BU(1); BSO(2) has the one class w2
        if space == "CP^3":
            model, pres, classes = steenrod.torus_model("su", 1), catalog._cp_presentation(3, prime), {"x2": "c1"}
        else:
            model = steenrod.torus_model("so", 2)
            pres, classes = Presentation(steenrod.class_algebra(model, prime)), {"w2": "w2"}
        images = {c: pres.algebra.gen(g) for g, c in classes.items()}
        ranks = range(1, 5)  # up to |a| + |b| = 4
        sources = [steenrod.suspension_of(steenrod.torus_model(g, r)) for g in steenrod._SUSPENSIONS for r in ranks]
        sources += [steenrod.suspension_sphere(d) for d in ranks] + [steenrod.suspension_moore()]

        def derived(x, op):
            return catalog._derived_action(model, classes[x], op, images, pres)

        instances = list(_well_formed_steenrod_instances(space, pres, derived, sources))
        # P^k raises degree by a multiple of 2(p - 1) >= 4, never by |a| + |b| - |x| = 2
        assert len(instances) == (25 if prime == 2 else 0)
        for inst in instances:
            result = steenrod.check_steenrod_criterion(inst)
            assert isinstance(result, Refusal), (inst.op.label, inst.source_a.base, inst.source_b.base)

    @pytest.mark.parametrize(
        "space, squares, refusals",
        [
            ("S^3 x S^7", {"x3": "", "x7": ""}, {"condition (2)": 2, "condition (5)": 2}),
            ("SU(3)", {"x3": "x5", "x5": ""}, {"condition (2)": 3, "condition (5)": 4}),
        ],
        ids=["S3xS7", "SU3"],
    )
    def test_steenrod_instances_on_h_spaces(self, space, squares, refusals):
        failed = Counter()
        for inst in _h_space_instances(space, squares, detected=True):
            result = steenrod.check_steenrod_criterion(inst)
            assert isinstance(result, Refusal), (inst.op.label, inst.x, inst.a, inst.b)
            failed[result.failed.partition(":")[0]] += 1
            if inst.a != inst.b:  # past condition (2): Sq^3 x7 on S^3 x S^7, Sq^3 x5 and Sq^5 x3 on SU(3)
                assert result.failed.endswith(f"{inst.op.label} {inst.x} = 0 has no {inst.a}*{inst.b} term")
        assert failed == refusals

    def test_steenrod_instances_whose_sources_miss_a_class_refuse(self):
        # a pair of sources that does not detect both a and b carries no Whitehead product to certify;
        # every such instance must stop at condition (1) rather than read a class the source lacks
        instances = list(_h_space_instances("S^3 x S^7", {"x3": "", "x7": ""}, detected=False))
        assert len(instances) == 780
        for inst in instances:
            result = steenrod.check_steenrod_criterion(inst)
            assert isinstance(result, Refusal) and result.failed.startswith("condition (1): "), result

    def test_top_class_ops_name_classes_of_the_model(self):
        for group, rank in itertools.product(("so", "sp"), range(1, 40)):
            model = steenrod.torus_model(group, rank)
            for _op, b in _top_class_ops(model):
                assert f"{model.class_prefix}{b}" in model.class_names(), (group, rank, b)


def _h_space_instances(space: str, squares: dict, detected: bool):
    """The Steenrod criterion instances on an H-space whose mod-2 cohomology is exterior on odd generators.

    `squares` names Sq^k x for 0 < k < |x|: zero for S^3 x S^7, and Sq^2 x3 = x5 on SU(3) (Borel).
    Sq^k x is x^2 = 0 for k = |x| and zero above.  The sources are spheres.
    """
    gens = [Generator(g, int(g[1:]), squares_to_zero=True) for g in squares]
    pres = Presentation(Algebra(FieldSpec(2), gens))
    alg = pres.algebra
    table = {x: alg.gen(x) + (alg.gen(sq) if sq else alg.zero()) for x, sq in squares.items()}
    assert validate_sq_action(ExteriorActionData(pres, table)) == []

    def action(x, op):
        return table[x].degree_component(int(x[1:]) + op.shift)

    sources = [steenrod.suspension_sphere(d) for d in range(1, 2 * max(g.degree for g in gens) + 1)]
    return _well_formed_steenrod_instances(space, pres, action, sources, detected)


def _well_formed_steenrod_instances(space: str, pres: Presentation, action, sources: list, detected: bool = True):
    """Every Steenrod criterion instance on pres whose sources detect a and b, or, unless `detected`, miss one.

    x, a and b are generators with |x| + shift = |a| + |b|, for each Sq^k with k <= 2|x| or P^k at the
    presentation's prime; `action(x, op)` is the operation on x.  The sources are every pair from
    `sources` detecting a and b in their degrees, or every other pair.
    """
    prime = pres.algebra.field.characteristic
    degree = {g.name: g.degree for g in pres.algebra.generators}
    for x, a, b in itertools.product(degree, repeat=3):
        for k in range(1, 2 * degree[x] + 1):
            op = steenrod.SteenrodOp("Sq", k) if prime == 2 else steenrod.SteenrodOp("P", k, prime)
            if degree[x] + op.shift != degree[a] + degree[b]:
                continue
            for source_a, source_b in itertools.product(sources, repeat=2):
                if (degree[a] in source_a.class_in and degree[b] in source_b.class_in) == detected:
                    yield steenrod.SteenrodCriterionInstance(
                        space, pres, partial(action, x, op), "derived", "negative control", op, a, b, x,
                        source_a, source_b,
                    )


_DATA = Path(catalog.__file__).parent / "data"
_FACT_KINDS = tuple(catalog._KINDS) + ("bogus",)
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
        loaded = [rec["value"] for rec in load_dataset().records.values() if "value" in rec]
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
            ("sq-table space=EIV gen=x17", "sq-table space=AII gen=x17",
             "no presentation record for AII"),
            ("gen=x8 family=P k=1 prime=5", "gen=x8 family=P k=1 prime=5 prime=7", "repeated key 'prime'"),
            ("gen=x8 family=P k=1 prime=5", "gen=x8 family=P k=1 prime=5 typo=1", "action record has unknown key 'typo'"),
            ("external family=CI", "external family=CI space=CI", "external record has unknown key 'space'"),
            ("action space=EI gen=x8", "action space=EI gen=x99", "gen=x99 is not a generator of the EI presentation"),
            ("model=psp4 class=q2", "model=psp4 class=q9", "unknown class 'q9' in the psp4(4) model"),
            ("model=psp4", "model=xx", "unknown group tag 'xx'; expected one of ['psp4', 'so', 'sp', 'spin9', 'su']"),
            ("gen=x8 family=P k=1 prime=5", "gen=x8 family=P k=1 prime=4", "power operations live at odd primes, not at 4"),
            ("aux=FI-aux ", "aux=F4-aux ", "no presentation record for F4-aux"),
            ("external family=EIII ", "external family=EIIIX ",
             "family=EIIIX names no external record a plan reads; expected one of AI, AII, AIII, BDI,"),
            ("generating-map space=EIV ", "generating-map space=EIVX ",
             "space=EIVX names no generating-map record a plan reads; expected one of AI, AII, AIII, BDI,"),
            ("exception space=CP3 ", "exception space=CP3X ",
             "space=CP3X names no exception record a plan reads; expected one of CP3\n"),
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
        for argv in (["check", "EI"], ["check", "AI", "--n", "4"], ["report", "--all"]):
            assert cli_main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: facts.txt line {lineno}: {message}" in captured.err

    @pytest.mark.parametrize(
        "first,record,argv,message",
        [
            ("presentation space=EII ", 'presentation space=EII file=EV.pres cite="dup"', ["check", "EII"],
             "a second presentation record for space=EII"),
            ("pullback space=G model=so class=w3 ", 'pullback space=G model=so class=w3 value="x2" cite="dup"',
             ["check", "G"], "a second pullback record for space=G class=w3"),
            ("sq-table space=EIV gen=x9 ", 'sq-table space=EIV gen=x9 value="x9" cite="dup"', ["check", "EIV"],
             "a second sq-table record for space=EIV gen=x9"),
            ("fibration space=FI ", 'fibration space=FI aux=EVI-aux aux-label=L threshold=5 cite="dup"', ["check", "FI"],
             "a second fibration record for space=FI"),
            ("action space=EI ", 'action space=EI gen=x8 family=P k=1 prime=5 value="x8^2" cite="dup"', ["check", "EI"],
             "a second action record for space=EI"),
            ("generating-map space=EIV ", 'generating-map space=EIV cite="dup"', ["check", "EIV"],
             "a second generating-map record for space=EIV"),
            ("exception space=CP3 ", 'exception space=CP3 cite="dup"', ["check", "AIII", "--m", "1", "--n", "3"],
             "a second exception record for space=CP3"),
            ("external family=CI ", 'external family=CI cite="dup"', ["check", "EI"],
             "a second external record for family=CI"),
        ],
    )
    def test_a_repeated_record_fails_at_load_naming_both_lines(
        self, tmp_path, monkeypatch, capsys, first, record, argv, message
    ):
        # read over the first record, a repeat can certify the wrong space: EII on EV's presentation
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
        (first_line,) = [i for i, line in enumerate(lines, start=1) if line.startswith(first)]
        (data / "facts.txt").write_text("\n".join(lines + [record]) + "\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        for run in (argv, ["report", "--all"]):
            assert cli_main(run) == 1, run
            captured = capsys.readouterr()
            assert captured.out == ""
            want = f"error: facts.txt line {len(lines) + 1}: {message} (first on line {first_line})"
            assert captured.err.strip() == want

    def test_loads_and_validates(self):
        ds = load_dataset()
        assert ds.presentation("EII").generators
        assert ds.one("exception", "CP3")["cite"]

    def test_rejects_malformed_records(self, tmp_path, monkeypatch):
        (tmp_path / "presentations").mkdir()
        (tmp_path / "facts.txt").write_text("bogus-kind space=X\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        with pytest.raises(CatalogDataError, match="unknown record kind"):
            load_dataset()

    def test_rejects_missing_keys(self, tmp_path, monkeypatch):
        (tmp_path / "presentations").mkdir()
        (tmp_path / "facts.txt").write_text("external cite=x\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        with pytest.raises(CatalogDataError, match="missing keys"):
            load_dataset()

    def test_rejects_bad_presentation(self, tmp_path, monkeypatch):
        (tmp_path / "presentations").mkdir()
        (tmp_path / "presentations" / "bad.pres").write_text(
            "field rational\ngenerator\nend\n", encoding="utf-8"
        )
        (tmp_path / "facts.txt").write_text(
            'presentation space=X file=bad.pres cite="c"\n', encoding="utf-8"
        )
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        with pytest.raises(CatalogDataError):
            load_dataset()

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
        with pytest.raises(CatalogDataError, match=re.escape(f"facts.txt line 2: {message} is not an integer")):
            load_dataset()

    def test_missing_presentation_file_names_line(self, tmp_path, monkeypatch):
        (tmp_path / "facts.txt").write_text('presentation space=X file=absent.pres cite="c"\n', encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(tmp_path))
        with pytest.raises(CatalogDataError, match=r"facts\.txt line 1: .*absent\.pres"):
            load_dataset()

    def test_one_line_mutants_load_or_name_a_line(self, tmp_path, monkeypatch, cold_caches):
        # past a clean load, a check refuses or names a missing record; every value it meets has the right shape
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
        rng = random.Random("facts.txt")
        for _ in range(100):
            text = "\n".join(_mutate_fact_line(rng, lines)) + "\n"
            (data / "facts.txt").write_text(text, encoding="utf-8")
            cold_caches()
            try:
                load_dataset()
            except CatalogDataError as exc:
                assert re.match(r"facts\.txt line \d+: ", str(exc)), (text, exc)
                continue
            for fam in FAMILIES:
                params = fam.default_range[0] if fam.default_range else (fam.least,) * fam.arity
                try:
                    check(instantiate(fam.id, params))
                except (CatalogDataError, DataIncomplete):
                    pass

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("model=so class=w2", "model=su class=w2", "facts.txt line {}: unknown class 'w2' in the su(4) model"),
            ("model=so class=w3", "model=su class=w3", "facts.txt line {}: unknown class 'w3' in the su(4) model"),
        ],
    )
    def test_g_reads_the_torus_model_of_its_pullbacks(self, tmp_path, monkeypatch, capsys, old, new, message):
        # a pullback's class must be in its model, checked at load
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
        (lineno,) = [i for i, line in enumerate(lines, start=1) if line.startswith(f"pullback space=G {old} ")]
        lines[lineno - 1] = lines[lineno - 1].replace(old, new)
        (data / "facts.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        assert cli_main(["check", "G"]) == 1
        assert capsys.readouterr().err.strip() == "error: " + message.format(lineno)

    def test_a_second_ei_pullback_is_read_with_the_first(self, tmp_path, monkeypatch, capsys):
        # EI reads all its pullback records, as G does; q1 restricts to zero, which the cross-check already assumed
        argvs = (["check", "EI"], ["report", "--all"])
        shipped = []
        for argv in argvs:
            assert cli_main(argv) == 0, argv
            shipped.append(capsys.readouterr().out)
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        with (data / "facts.txt").open("a", encoding="utf-8") as facts:
            facts.write('pullback space=EI model=psp4 class=q1 value="0" cite="c"\n')
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        for argv, out in zip(argvs, shipped):
            assert cli_main(argv) == 0, argv
            assert capsys.readouterr().out == out, argv

    @pytest.mark.parametrize(
        "old,new,blamed,named,message",
        [
            # a space's pullback records name one torus model: a later record is blamed, naming the first
            ("pullback space=G model=so class=w2", "pullback space=G model=su class=c1", "pullback space=G model=so",
             "pullback space=G model=su", "model=so, but the G pullback record on line {} has model=su"),
            (None, 'pullback space=EI model=so class=w2 value="0" cite="c"', "pullback space=EI model=so",
             "pullback space=EI model=psp4", "model=so, but the EI pullback record on line {} has model=psp4"),
            # an action's gen is the value of exactly one pullback record of its space
            ('value="x8"', 'value="2*x8"', "action space=EI ", "pullback space=EI ",
             "gen=x8 is the value of 0 EI pullback records, not of one (pullback lines: {})"),
            # a second record valued gen is blamed on the action, which is linked before the appended record
            (None, 'pullback space=EI model=su class=c4 value="x8" cite="c"', "action space=EI ", "pullback space=EI ",
             "gen=x8 is the value of 2 EI pullback records, not of one (pullback lines: {})"),
            # a pullback value of the wrong degree for its class fails its own line first
            (None, 'pullback space=EI model=psp4 class=q1 value="x8" cite="c"',
             "pullback space=EI model=psp4 class=q1", "pullback space=EI ", "g*(q1) = x8 is not a degree-4 class of EI"),
        ],
    )
    def test_links_between_records_fail_at_load_naming_their_line(
        self, tmp_path, monkeypatch, capsys, old, new, blamed, named, message
    ):
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
        if old is None:
            lines.append(new)
        else:
            (i,) = [i for i, line in enumerate(lines) if old in line]
            lines[i] = lines[i].replace(old, new)
        (data / "facts.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        (lineno,) = [i for i, line in enumerate(lines, start=1) if line.startswith(blamed)]
        named_lines = ", ".join(str(i) for i, line in enumerate(lines, start=1) if line.startswith(named))
        for argv in (["check", "EIV"], ["check", "AI", "--n", "3"], ["report", "--all"]):
            assert cli_main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: facts.txt line {lineno}: {message.format(named_lines)}"), argv

    @pytest.mark.parametrize(
        "old,new,blamed,argv,message",
        [
            ('gen=x17 value="x17"', 'gen=x17 value="x9"', "sq-table space=EIV gen=x17", ["check", "EIV"],
             "Sq x17 = x9 is not a total square: Sq^0 component of Sq x17 is not x17"),
            ('gen=x9 value="x9 + x17"', 'gen=x9 value="x9 + x9*x17"', "sq-table space=EIV gen=x9", ["check", "EIV"],
             "Sq x9 = x9 + x9*x17 is not a total square: Sq x9 has a component of degree 26 outside 9..18"),
            ("sq-table space=EIV gen=x9 ", None, "sq-table space=EIV gen=x17", ["check", "EIV"],
             "the EIV sq-table records give no total square of x9 (sq-table lines: {})"),
            ('value="x8^2"', 'value="3"', "action space=EI ", ["check", "EI"],
             "P^1 (p=5) x8 = 3 is not a degree-16 class of EI"),
            ('class=w2 value="x2"', 'class=w2 value="x3"', "pullback space=G model=so class=w2", ["check", "G"],
             "g*(w2) = x3 is not a degree-2 class of G"),
        ],
    )
    def test_values_fail_at_load_unless_their_record_gives_them_meaning(
        self, tmp_path, monkeypatch, capsys, old, new, blamed, argv, message
    ):
        # each of these used to load: EIV's table then refused, and the degrees failed at check time with no line
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
        (i,) = [i for i, line in enumerate(lines) if old in line]
        if new is None:
            del lines[i]
        else:
            lines[i] = lines[i].replace(old, new)
        (data / "facts.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        (lineno,) = [i for i, line in enumerate(lines, start=1) if line.startswith(blamed)]
        for run in (argv, ["report", "--all"]):
            assert cli_main(run) == 1, run
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: facts.txt line {lineno}: {message.format(lineno)}\n", run

    @pytest.mark.parametrize(
        "deleted,argv,message",
        [
            ("action space=EI ", ["check", "EI"], "facts.txt has no action record for EI"),
            ("external family=CI ", ["check", "CI", "--n", "2"], "facts.txt has no external record for CI"),
            ("sq-table space=EIV ", ["check", "EIV"], "facts.txt has no sq-table record for EIV"),
        ],
    )
    def test_a_deleted_record_names_what_is_missing(self, tmp_path, monkeypatch, capsys, deleted, argv, message):
        # a missing record has no line to name, so the read that misses it names its kind and names
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        lines = (_DATA / "facts.txt").read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if not line.startswith(deleted)]
        assert len(kept) < len(lines)
        (data / "facts.txt").write_text("\n".join(kept) + "\n", encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
        for run in (argv, ["report", "--all"]):
            assert cli_main(run) == 1, run
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n", run

    def test_records_are_read_by_their_names(self):
        ds = load_dataset()
        assert ds.one("pullback", "G", "w3")["value"] == ds.presentation("G").algebra.gen("x3")
        assert list(ds.of("pullback", "G")) == ["w2", "w3"]
        assert list(ds.of("sq-table", "EIV")) == ["x9", "x17"]
        assert ("fibration", "FI") in ds.records and ("fibration", "EII") not in ds.records
        with pytest.raises(CatalogDataError, match="^facts.txt has no pullback record for G w4$"):
            ds.one("pullback", "G", "w4")
        with pytest.raises(CatalogDataError, match="^facts.txt has no pullback record for EIV$"):
            ds.of("pullback", "EIV")

    def test_negative_relation_degree_fails_naming_its_line(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        shutil.copytree(_DATA, data)
        pres = data / "presentations" / "FI-aux.pres"
        text = pres.read_text(encoding="utf-8")
        assert "relation 24 partial decomposable" in text
        pres.write_text(text.replace("relation 24 ", "relation -2 "), encoding="utf-8")
        monkeypatch.setenv("LOOPCOMM_DATA_DIR", str(data))
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
        assert cli_main(["check", "FI", "--format", "structured"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["failed"] == failed
        assert [(e["outcome"], e["description"]) for e in out["transcript"]] == [("fail", failed)]
        assert cli_main(["report", "--all"]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("FI "))
        assert "no conclusion" in row

    def test_report_reads_every_shipped_record(self, monkeypatch):
        # a record no plan reads is dead: it would load silently while a row no longer rests on it
        ds = load_dataset()
        read = set()
        one, of = catalog.DataSet.one, catalog.DataSet.of

        def spy_one(self, kind, *names):
            rec = one(self, kind, *names)
            read.add(id(rec))
            return rec

        def spy_of(self, kind, space):
            recs = of(self, kind, space)
            read.update(id(rec) for rec in recs.values())
            return recs

        class SpyRecords(dict):  # a space's optional fibration is read off the index, by name
            def get(self, name, default=None):
                rec = super().get(name, default)
                if rec is not None and name[0] == "fibration":
                    read.update((id(rec), id(rec["aux"])))  # and its auxiliary presentation
                return rec

        monkeypatch.setattr(ds, "records", SpyRecords(ds.records))
        monkeypatch.setattr(catalog.DataSet, "one", spy_one)
        monkeypatch.setattr(catalog.DataSet, "of", spy_of)
        report()
        assert len(ds.records) == 31
        unread = [name for name, rec in ds.records.items() if id(rec) not in read]
        assert not unread


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
