"""Certificates, total-square validation, the odd-generator criterion."""

import hashlib
import json

import pytest

from loopcomm.criteria import (
    ASSERTED,
    MACHINE,
    PROJECTIVE,
    Certificate,
    ProjectivePlaneInstance,
    Refusal,
    Transcript,
    TranscriptEntry,
    _is_power_of_two_minus_one,
    check_partial_projective_criterion,
    check_sq_linearity,
    conclude_noncommutative,
    validate_sq_action,
)
from loopcomm.gradedalg import (
    Algebra,
    ContractViolation,
    FieldSpec,
    Generator,
    Presentation,
    replace,
)

F2 = FieldSpec(2)


def exterior(*degrees):
    gens = [Generator(f"x{d}", d, squares_to_zero=True) for d in degrees]
    return Algebra(F2, gens)


def instance(alg, table, cells=None, space="X", citation=""):
    """The projective instance on `alg` with its total-Sq table, the map's cells by default in its generators' degrees."""
    cells = tuple(g.degree for g in alg.generators) if cells is None else tuple(cells)
    return ProjectivePlaneInstance(Presentation(alg), table, citation, "B", space, cells, "recorded generating map")


class TestInstance:
    def test_tables_live_over_f2(self):
        alg = Algebra(FieldSpec(3), [Generator("x5", 5, squares_to_zero=True)])
        with pytest.raises(ContractViolation, match="total-Sq tables live over F2"):
            instance(alg, {"x5": alg.gen("x5")})

    def test_source_is_the_suspension_of_the_base(self):
        inst = replace(instance(exterior(5, 9), {}), base="HP^2")
        assert inst.source == "Sigma HP^2"
        assert inst.label == PROJECTIVE


class TestValidateSqAction:
    def test_eiv_shape_table(self):
        alg = exterior(9, 17)
        inst = instance(alg, {"x9": alg.gen("x9") + alg.gen("x17"), "x17": alg.gen("x17")})
        assert validate_sq_action(inst) == []

    def test_instability_bound(self):
        alg = exterior(5, 17)
        inst = instance(alg, {"x5": alg.gen("x5") + alg.gen("x17"), "x17": alg.gen("x17")})
        violations = validate_sq_action(inst)
        assert any("degree 17" in v for v in violations)

    def test_identity_table_is_legal(self):
        alg = exterior(9, 11)
        assert validate_sq_action(instance(alg, {"x9": alg.gen("x9"), "x11": alg.gen("x11")})) == []

    def test_missing_unit_component(self):
        alg = exterior(9, 17)
        violations = validate_sq_action(instance(alg, {"x9": alg.gen("x17"), "x17": alg.gen("x17")}))
        assert any("Sq^0" in v for v in violations)


class TestLinearity:
    def test_linear_table(self):
        alg = exterior(5, 9)
        assert check_sq_linearity(instance(alg, {"x5": alg.gen("x5") + alg.gen("x9"), "x9": alg.gen("x9")}))

    def test_decomposable_component_fails(self):
        alg = exterior(3, 5, 7, 15)
        table = {
            "x5": alg.gen("x5") + alg.gen("x3") * alg.gen("x7"),
            "x3": alg.gen("x3"),
            "x7": alg.gen("x7"),
            "x15": alg.gen("x15"),
        }
        assert not check_sq_linearity(instance(alg, table))

    def test_empty_table_is_linear(self):
        assert check_sq_linearity(instance(exterior(), {}))


class TestPowerOfTwoMinusOne:
    def test_agrees_with_bit_inspection(self):
        for d in range(1, 2**16 + 1):
            expected = bin(d + 1).count("1") == 1
            assert _is_power_of_two_minus_one(d) == expected


class TestProjectiveCriterion:
    def test_certificate_for_degree_five(self):
        alg = exterior(5, 9)
        inst = instance(
            alg, {"x5": alg.gen("x5") + alg.gen("x9"), "x9": alg.gen("x9")}, space="AII(2)-like",
            citation="linear squares",
        )
        result = check_partial_projective_criterion(inst)
        assert isinstance(result, Certificate)
        assert result.criterion == "PartialProjectivePlane"
        assert any(e.status == MACHINE for e in result.transcript)
        assert any(e.status == ASSERTED and e.citation for e in result.transcript)

    def test_refusal_on_mersenne_degree(self):
        alg = exterior(7, 11)
        inst = instance(alg, {"x7": alg.gen("x7"), "x11": alg.gen("x11")}, space="synthetic")
        result = check_partial_projective_criterion(inst)
        assert isinstance(result, Refusal)
        assert "7 = 2^k - 1" in result.failed

    def test_refusal_on_even_generator(self):
        alg = Algebra(F2, [Generator("x2", 2)])
        inst = instance(alg, {"x2": alg.gen("x2") + alg.gen("x2") * alg.gen("x2")}, space="CP-like")
        result = check_partial_projective_criterion(inst)
        assert isinstance(result, Refusal)
        assert "even degree" in result.failed

    def test_refusal_on_nonlinear_table(self):
        alg = exterior(5, 9, 25)
        table = {
            "x5": alg.gen("x5"),
            "x9": alg.gen("x9"),
            # word-length-2 component in degree 34 < 50
            "x25": alg.gen("x25") + alg.gen("x9") * alg.gen("x25"),
        }
        result = check_partial_projective_criterion(instance(alg, table, space="synthetic"))
        assert isinstance(result, Refusal)
        assert "decomposable" in result.failed

    def test_refusal_names_one_hypothesis_and_repair_yields_certificate(self):
        alg = exterior(7, 11)
        refusal = check_partial_projective_criterion(instance(alg, {"x7": alg.gen("x7"), "x11": alg.gen("x11")}))
        assert isinstance(refusal, Refusal)
        # repair the failed hypothesis on synthetic data: shift the bottom degree
        alg2 = exterior(9, 11)
        repaired = check_partial_projective_criterion(instance(alg2, {"x9": alg2.gen("x9"), "x11": alg2.gen("x11")}))
        assert isinstance(repaired, Certificate)

    def test_cell_degree_mismatch_refused(self):
        alg = exterior(5, 9)
        inst = instance(alg, {"x5": alg.gen("x5"), "x9": alg.gen("x9")}, cells=(5, 13))
        result = check_partial_projective_criterion(inst)
        assert isinstance(result, Refusal)
        assert "inconsistent" in result.failed

    def test_transcripts_reproduce_byte_for_byte(self):
        alg = exterior(5, 9)
        inst = instance(alg, {"x5": alg.gen("x5"), "x9": alg.gen("x9")})
        a = check_partial_projective_criterion(inst)
        b = check_partial_projective_criterion(inst)
        assert [e.render() for e in a.transcript] == [e.render() for e in b.transcript]


class TestCertificates:
    def test_non_recorded_needs_machine_entry(self):
        with pytest.raises(ValueError):
            Certificate(
                "X",
                "Rational",
                (),
                (TranscriptEntry(ASSERTED, "pass", "only asserted"),),
            )

    def test_failed_entry_is_rejected(self):
        with pytest.raises(ValueError, match="failed entry: contradicted"):
            Certificate(
                "X",
                "Steenrod",
                (),
                (TranscriptEntry(MACHINE, "pass", "verified"), TranscriptEntry(MACHINE, "fail", "contradicted")),
            )

    def test_recorded_may_be_purely_asserted(self):
        cert = Certificate(
            "X",
            "RecordedExternal",
            (("statement", "known"),),
            (TranscriptEntry(ASSERTED, "pass", "recorded", citation="prior result"),),
        )
        assert cert.criterion == "RecordedExternal"

    def test_conclude_appends_adjunction(self):
        cert = Certificate(
            "X",
            "Rational",
            (),
            (TranscriptEntry(MACHINE, "pass", "verified"),),
        )
        concluded = conclude_noncommutative(cert)
        assert isinstance(concluded, Certificate)
        assert concluded.conclusion == cert.conclusion == "Omega(X) is not homotopy commutative"
        assert concluded.transcript[:-1] == cert.transcript
        assert "Samelson" in concluded.transcript[-1].description

    def test_conclude_rejects_refusal(self):
        with pytest.raises(ContractViolation):
            conclude_noncommutative(Refusal("X", "Rational", "nope"))

    def test_certificate_renders_itself(self):
        cert = Certificate("X", "Rational", (("kind", "w"),), (TranscriptEntry(MACHINE, "pass", "verified"),))
        assert (cert.witness_text(), cert.exception_note) == ("kind=w", "")
        payload = cert.to_dict()
        assert list(payload) == ["schema_version", "kind", "space", "criterion", "witness", "conclusion", "transcript"]
        assert (payload["kind"], payload["witness"]) == ("certificate", [["kind", "w"]])
        assert payload["conclusion"] == cert.conclusion == "Omega(X) is not homotopy commutative"
        assert payload["transcript"] == [e.to_dict() for e in cert.transcript]
        assert cert.render() == (
            "certificate\nspace: X\ncriterion: Rational\nwitness:\n  kind = w\ntranscript:\n"
            "  1. [machine-verified] pass: verified\nconclusion: Omega(X) is not homotopy commutative\n"
        )

    def test_transcript_builds_entries_and_results(self):
        t = Transcript("X", "Rational").add("verified").add("recorded", "prior result", ASSERTED)
        assert t.entries == (
            TranscriptEntry(MACHINE, "pass", "verified"),
            TranscriptEntry(ASSERTED, "pass", "recorded", "prior result"),
        )
        t.space = "Y"
        assert t.certify((("kind", "w"),)) == Certificate("Y", "Rational", (("kind", "w"),), t.entries)

    @pytest.mark.parametrize("field, value", [("status", "derived"), ("outcome", "passed")])
    def test_an_entry_takes_a_transcript_status_and_outcome(self, field, value):
        # checked where an entry is made, so a refusal cannot carry a bad one any more than a certificate
        good = {"status": MACHINE, "outcome": "pass"}
        with pytest.raises(ValueError, match=f"bad transcript {field} '{value}'"):
            TranscriptEntry(**{**good, field: value}, description="step")
        t = Transcript("X", "Steenrod").add("verified")
        with pytest.raises(ValueError, match=f"bad transcript {field} '{value}'"):
            t.add("step", **{field: value})
        assert t.entries == (TranscriptEntry(MACHINE, "pass", "verified"),)

    def test_transcript_refuses_with_a_failed_entry_only_when_given_one(self):
        bare = Transcript("X", "Steenrod", (TranscriptEntry(MACHINE, "pass", "verified"),))
        assert bare.refuse("nope") == Refusal("X", "Steenrod", "nope", bare.entries)
        failed = Transcript("X", "Steenrod").refuse("condition (4): why", "why")
        assert failed.transcript == (TranscriptEntry(MACHINE, "fail", "why"),)

    @pytest.mark.parametrize("transcript, note", [((), ""), ((TranscriptEntry(MACHINE, "fail", "odd"),), "known")])
    def test_refusal_renders_itself(self, transcript, note):
        ref = Refusal("X", "Rational", "nope", transcript, note)
        assert ref.witness_text() == "-"
        payload = ref.to_dict()
        assert list(payload) == [
            "schema_version", "kind", "space", "criterion", "failed", "exception_note", "conclusion", "transcript"
        ]
        assert (payload["kind"], payload["failed"], payload["exception_note"]) == ("refusal", "nope", note)
        assert payload["conclusion"] == ref.conclusion == "no conclusion from the implemented criteria"
        lines = ["no conclusion", "space: X", "criterion attempted: Rational", "failed: nope"]
        if transcript:
            lines += ["transcript:", "  1. [machine-verified] fail: odd", "exception: known"]
        assert ref.render() == "\n".join([*lines, f"conclusion: {ref.conclusion}"]) + "\n"


def _every_refusal_shape(monkeypatch) -> dict:
    """One refusal from each site that builds one, keyed by what it refuses."""
    from loopcomm import catalog
    from loopcomm.catalog import check, instantiate, route
    from loopcomm.gradedalg import Relation, replace
    from loopcomm.steenrod import SuspensionModel, check_steenrod_criterion, suspension_rp
    from loopcomm.sullivan import SullivanModel

    ai = route(instantiate("AI", (7,))).steps[0]  # Sq^2 v7 on Sigma RP^6 and Sigma RP^1
    ei = route(instantiate("EI")).steps[0]  # P^1 x8 on the bottom cell S^8, with a cross-check
    alg = ai.presentation.algebra
    ei_alg = ei.presentation.algebra
    wide = Algebra(FieldSpec(5), ei.presentation.generators + (Generator("y16", 16),))
    steenrod = {
        "(1)": replace(ai, source_a=suspension_rp(5)),
        "(2)": replace(ai, source_b=suspension_rp(6)),
        "(3)": replace(ei, source_b=SuspensionModel("S^8", [("s8", 8)])),
        "(4)": replace(ai, presentation=Presentation(alg, (Relation(7, "explicit", alg.gen("v7")),))),
        "(5) indecomposable": replace(ei, presentation=Presentation(wide), recorded=wide.gen("y16")),
        "(5) no product term": replace(ei, recorded=ei_alg.zero()),
        "(6)": replace(ai, source_b=suspension_rp(2)),
    }
    shapes = {f"steenrod {k}": check_steenrod_criterion(inst) for k, inst in steenrod.items()}

    theta = ei.recorded
    read = ei.read
    contradicted = replace(
        ei, recorded=theta + theta, read=replace(read, images={**read.images, "q4": ei_alg.zero()})
    )
    shapes["cross-check contradiction"] = catalog._run_step(contradicted)

    def projective(degrees, table, cells):
        a = exterior(*degrees)
        return check_partial_projective_criterion(instance(a, table(a), cells, citation="test table"))

    even = Algebra(F2, [Generator("x2", 2)])
    shapes["projective invalid table"] = projective((5, 9), lambda a: {"x5": a.gen("x5")}, (5, 9))
    shapes["projective no generators"] = projective((), lambda a: {}, ())
    shapes["projective even degree"] = check_partial_projective_criterion(
        instance(even, {"x2": even.gen("x2") + even.gen("x2") * even.gen("x2")}, space="CP-like")
    )
    shapes["projective nonlinear"] = projective(
        (5, 9, 25),
        lambda a: {"x5": a.gen("x5"), "x9": a.gen("x9"), "x25": a.gen("x25") + a.gen("x9") * a.gen("x25")},
        (5, 9, 25),
    )
    shapes["projective cell degrees"] = projective((5, 9), lambda a: {"x5": a.gen("x5"), "x9": a.gen("x9")}, (5, 13))
    shapes["projective 2^k - 1"] = projective((7, 11), lambda a: {"x7": a.gen("x7"), "x11": a.gen("x11")}, (7, 11))

    sphere = Presentation(Algebra(FieldSpec(0), [Generator("x3", 3, squares_to_zero=True)]))
    shapes["rational hypothesis"] = catalog._run_rational(catalog.RationalStep("S^3", sphere, "exterior"))
    cp3 = catalog.RationalStep("CP^3", catalog._cp_presentation(3), "truncated polynomial")
    shapes["rational no quadratic term"] = catalog._run_rational(cp3)
    fi = route(instantiate("FI")).steps[0]
    shapes["rational transfer threshold"] = catalog._run_rational(
        replace(fi, transfer=replace(fi.transfer, threshold=17))
    )
    lift = route(instantiate("BDI", (7, 4))).steps[0]
    shapes["lift source dimension"] = catalog._run_lift(replace(lift, threshold=3))
    shapes["no candidate operation"] = catalog._classifying_result("so", 2)
    shapes["exception row"] = check(instantiate("AIII", (1, 3)))
    with monkeypatch.context() as m:
        # dz6 = x2^2*y3 with dy3 = x2^2 gives d(dz6) = x2^4 != 0
        q = Algebra(FieldSpec(0), [Generator("x2", 2), Generator("y3", 3, True), Generator("z6", 6)])
        model = SullivanModel(q, {"y3": q.monomial((2, 0, 0)), "z6": q.monomial((2, 1, 0))})
        m.setattr(catalog, "build_formal_model", lambda pres: model)
        shapes["rational cocycle"] = catalog._run_rational(route(instantiate("EII")).steps[0])
    return shapes


def test_every_refusal_shape_is_pinned(monkeypatch):
    # the report prints one refusal; this pins the to_dict() of every site's refusal, byte for byte
    shapes = _every_refusal_shape(monkeypatch)
    assert [k for k, r in shapes.items() if not isinstance(r, Refusal)] == []
    # every refusal records its failed step but the projective ones, CP^3's exception row among them,
    # whose entry would change the pinned report
    unrecorded = {k for k, r in shapes.items() if not any(e.outcome == "fail" for e in r.transcript)}
    assert unrecorded == {k for k in shapes if k.startswith("projective")} | {"exception row"}
    payload = json.dumps({k: r.to_dict() for k, r in shapes.items()}, sort_keys=True)
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == (
        "58eddadcf84c87a673740a9119511644e4c711a5982ce7083ea43e0d5a286eae"
    )
