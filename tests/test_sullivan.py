"""Formal model construction, d^2 checks, rational witnesses, transfer."""

import itertools

import pytest

from loopcomm import catalog
from loopcomm.catalog import RationalStep, TransferStep, _run_rational
from loopcomm.criteria import Certificate, Refusal
from loopcomm.gradedalg import (
    Algebra,
    FieldSpec,
    Generator,
    HypothesisViolation,
    Presentation,
    Relation,
    UnsupportedPresentation,
)
from loopcomm.sullivan import (
    RationalWitness,
    SullivanModel,
    build_formal_model,
    certified_parts_are_cocycles,
    check_d_squared,
    derivation,
    find_rational_witness,
    pretty_model,
)

QQ = FieldSpec(0)


def presentation(gen_degrees, rel_bodies):
    """Even presentation from (name, degree) list and explicit monomial bodies."""
    gens = [Generator(n, d) for n, d in gen_degrees]
    alg = Algebra(QQ, gens)
    rels = []
    for body in rel_bodies:
        p = alg.poly(body)
        rels.append(Relation(p.homogeneous_degree(), "explicit", p))
    return Presentation(alg, tuple(rels))


@pytest.fixture
def even_sphere():
    return presentation([("x2", 2)], [{(2,): 1}])


@pytest.fixture
def cp3():
    return presentation([("x2", 2)], [{(4,): 1}])


class TestBuildFormalModel:
    def test_even_sphere(self, even_sphere):
        model = build_formal_model(even_sphere)
        names = [g.name for g in model.generators]
        assert names == ["x2", "y3"]
        dy = model.differential["y3"]
        assert dy == model.algebra.monomial((2, 0))

    def test_cp3(self, cp3):
        model = build_formal_model(cp3)
        assert [g.degree for g in model.generators] == [2, 7]
        assert model.differential["y7"] == model.algebra.monomial((4, 0))

    def test_partial_bodies_allowed_with_assertion(self):
        gens = [Generator("x4", 4), Generator("x6", 6), Generator("x8", 8)]
        alg = Algebra(QQ, gens)
        rels = (
            Relation(16, "partial", alg.monomial((0, 0, 2)), decomposable_asserted=True),
            Relation(18, "partial", alg.zero(), decomposable_asserted=True),
            Relation(24, "partial", alg.zero(), decomposable_asserted=True),
        )
        model = build_formal_model(Presentation(alg, rels))
        assert [g.degree for g in model.generators] == [4, 6, 8, 15, 17, 23]
        assert model.partial == {"y15", "y17", "y23"}

    def test_rejects_odd_generator(self):
        alg = Algebra(QQ, [Generator("y3", 3, True)])
        with pytest.raises(HypothesisViolation, match="odd"):
            build_formal_model(Presentation(alg, ()))

    def test_rejects_count_mismatch(self):
        alg = Algebra(QQ, [Generator("x2", 2), Generator("x4", 4)])
        pres = Presentation(alg, (Relation(8, "explicit", alg.monomial((4, 0))),))
        with pytest.raises(HypothesisViolation, match="count"):
            build_formal_model(pres)

    def test_rejects_indecomposable_relation(self):
        alg = Algebra(QQ, [Generator("x2", 2)])
        pres = Presentation(alg, (Relation(2, "explicit", alg.gen("x2")),))
        with pytest.raises(HypothesisViolation, match="decomposable"):
            build_formal_model(pres)

    def test_rejects_non_complete_intersection(self):
        alg = Algebra(QQ, [Generator("x4", 4), Generator("x8", 8)])
        pres = Presentation(
            alg,
            (
                Relation(8, "explicit", alg.monomial((2, 0))),
                Relation(12, "explicit", alg.monomial((3, 0))),
            ),
        )
        with pytest.raises(HypothesisViolation, match="complete intersection"):
            build_formal_model(pres)

    def test_partial_assertion_required(self):
        alg = Algebra(QQ, [Generator("x2", 2)])
        pres = Presentation(alg, (Relation(8, "partial", alg.zero(), False),))
        with pytest.raises(HypothesisViolation, match="assertion"):
            build_formal_model(pres)

    @pytest.mark.parametrize("degree", [0, 1])
    def test_relation_below_degree_two_is_a_hypothesis_violation(self, degree):
        # dy = rho needs |y| = |rho| - 1 >= 1; no generator of degree <= 0 is built
        alg = Algebra(QQ, [Generator("x2", 2)])
        pres = Presentation(alg, (Relation(degree, "partial", alg.zero(), decomposable_asserted=True),))
        with pytest.raises(HypothesisViolation, match=f"relation of degree {degree} is below 2"):
            build_formal_model(pres)

    def test_partial_presentation_checks_the_formal_dimension(self):
        # D = 16 + 24 - (2 + 8) = 30; partial relations go through the same gate
        alg = Algebra(QQ, [Generator("x2", 2), Generator("x8", 8)])
        rels = (
            Relation(16, "partial", alg.monomial((0, 2)), decomposable_asserted=True),
            Relation(24, "partial", alg.zero(), decomposable_asserted=True),
        )
        assert build_formal_model(Presentation(alg, rels, formal_dimension=30)).partial == {"y15", "y23"}
        with pytest.raises(HypothesisViolation, match="formal dimension 28 differs from the series degree 30"):
            build_formal_model(Presentation(alg, rels, formal_dimension=28))

class TestDerivation:
    def test_leibniz_on_product(self, even_sphere):
        model = build_formal_model(even_sphere)
        alg = model.algebra
        x, y = alg.gen("x2"), alg.gen("y3")
        # d(x*y) = dx*y + x*dy (x even)
        assert derivation(model, x * y) == x * model.differential["y3"]

    def test_sign_for_odd_prefix(self):
        # two odd generators: d(y3*y5) = dy3*y5 - y3*dy5
        alg = Algebra(
            QQ,
            [Generator("x2", 2), Generator("y3", 3, True), Generator("y5", 5, True)],
        )
        d = {
            "y3": alg.monomial((2, 0, 0)),
            "y5": alg.monomial((3, 0, 0)),
        }
        model = SullivanModel(alg, d)
        y3, y5 = alg.gen("y3"), alg.gen("y5")
        expected = d["y3"] * y5 - y3 * d["y5"]
        assert derivation(model, y3 * y5) == expected

    def test_power_rule(self, even_sphere):
        model = build_formal_model(even_sphere)
        alg = model.algebra
        x = alg.gen("x2")
        x3 = x * x * x
        # d(x^3) = 0 since dx = 0
        assert derivation(model, x3).is_zero


class TestDSquared:
    def test_formal_models_pass(self, even_sphere, cp3):
        assert check_d_squared(build_formal_model(even_sphere))
        assert check_d_squared(build_formal_model(cp3))

    def test_corrupted_model_fails(self):
        # dz6 = x2^2*y3 with dy3 = x2^2 forces d(dz6) = x2^4 != 0
        alg = Algebra(
            QQ,
            [Generator("x2", 2), Generator("y3", 3, True), Generator("z6", 6)],
        )
        d = {
            "y3": alg.monomial((2, 0, 0)),
            "z6": alg.monomial((2, 1, 0)),
        }
        model = SullivanModel(alg, d)
        assert not check_d_squared(model)

    def test_partial_unsupported(self):
        gens = [Generator("x4", 4)]
        alg = Algebra(QQ, gens)
        pres = Presentation(alg, (Relation(16, "partial", alg.zero(), True),))
        model = build_formal_model(pres)
        with pytest.raises(UnsupportedPresentation):
            check_d_squared(model)
        assert certified_parts_are_cocycles(model)

    def test_synthetic_complete_intersections_pass(self):
        degree_sets = [(2,), (4, 6), (2, 4, 8), (4, 6, 8)]
        for degs in degree_sets:
            gens = [(f"x{d}", d) for d in degs]
            rels = [
                {tuple(2 if j == i else 0 for j in range(len(degs))): 1}
                for i in range(len(degs))
            ]
            model = build_formal_model(presentation(gens, rels))
            assert check_d_squared(model)


class TestWitness:
    def test_even_sphere_witness(self, even_sphere):
        w = find_rational_witness(build_formal_model(even_sphere))
        assert (w.m, w.n, w.target) == (2, 2, 3)
        assert w.pair == ("x2", "x2")
        assert w.relation_index == 0

    def test_cp3_has_none(self, cp3):
        assert find_rational_witness(build_formal_model(cp3)) is None

    def test_partial_witness_from_certified_terms(self):
        gens = [Generator("x4", 4), Generator("x6", 6), Generator("x8", 8)]
        alg = Algebra(QQ, gens)
        rels = (
            Relation(16, "partial", alg.monomial((0, 0, 2)), decomposable_asserted=True),
            Relation(18, "partial", alg.zero(), decomposable_asserted=True),
            Relation(24, "partial", alg.zero(), decomposable_asserted=True),
        )
        w = find_rational_witness(build_formal_model(Presentation(alg, rels)))
        assert (w.m, w.n, w.target) == (8, 8, 15)
        assert w.pair == ("x8", "x8")

    def test_tie_break_first_relation_then_smallest_pair(self):
        gens = [Generator("x2", 2), Generator("x4", 4)]
        alg = Algebra(QQ, gens)
        body1 = alg.monomial((1, 1)) + alg.monomial((3, 0))
        body2 = alg.monomial((0, 2))
        pres = Presentation(
            alg,
            (Relation(6, "explicit", body1), Relation(8, "explicit", body2)),
        )
        w = find_rational_witness(build_formal_model(pres))
        assert w.relation_index == 0
        assert w.pair == ("x2", "x4")

    def test_pair_set_invariant_under_generator_permutation(self):
        degrees = [4, 6, 8]
        for perm in itertools.permutations(range(3)):
            gens = [Generator(f"x{degrees[i]}", degrees[i]) for i in perm]
            alg = Algebra(QQ, gens)
            i8 = alg.index["x8"]
            i4 = alg.index["x4"]
            body16 = alg.monomial(
                tuple(2 if j == i8 else 0 for j in range(3))
            ) + alg.monomial(tuple(4 if j == i4 else 0 for j in range(3)))
            rels = (
                Relation(16, "partial", body16, decomposable_asserted=True),
                Relation(18, "partial", alg.zero(), decomposable_asserted=True),
                Relation(24, "partial", alg.zero(), decomposable_asserted=True),
            )
            w = find_rational_witness(build_formal_model(Presentation(alg, rels)))
            assert w.pair == ("x8", "x8")

    def test_y_degrees_are_odd(self):
        gens = [("x4", 4), ("x6", 6)]
        rels = [{(2, 0): 1}, {(0, 2): 1}]
        model = build_formal_model(presentation(gens, rels))
        for g in model.generators:
            if g.name.startswith("y"):
                assert g.degree % 2 == 1


class TestTransfer:
    """The Rational step transfers a witness along a recorded fibration only above its threshold."""

    @staticmethod
    def run(pres, threshold):
        return _run_rational(RationalStep("aux", pres, "c", TransferStep(threshold, "FI", "fib")))

    def test_transfer_preserves_degrees(self):
        gens = [Generator("x2", 2), Generator("x8", 8)]
        alg = Algebra(QQ, gens)
        rels = (
            Relation(16, "partial", alg.monomial((0, 2)), decomposable_asserted=True),
            Relation(24, "partial", alg.zero(), decomposable_asserted=True),
        )
        cert = self.run(Presentation(alg, rels), 5)
        assert isinstance(cert, Certificate)
        assert cert.space == "FI"
        assert ("degrees", "(8, 8)") in cert.witness and ("target", "pi_15 (x) Q") in cert.witness
        assert cert.transcript[-2].description == "witness degrees (8,8,15) all >= threshold 5"

    def test_below_threshold_rejected(self, even_sphere):
        # degrees (2, 2, 3) sit below threshold 5
        ref = self.run(even_sphere, 5)
        assert isinstance(ref, Refusal)
        assert ref.space == "aux"
        assert ref.failed == "witness degree 2 is below the equivalence threshold 5"
        assert ref.transcript[-1].outcome == "fail"
        assert ref.transcript[-1].description == "witness degrees (2,2,3) not all >= threshold 5"

    def test_mixed_degrees_below_threshold_rejected(self, even_sphere, monkeypatch):
        monkeypatch.setattr(catalog, "find_rational_witness", lambda model: RationalWitness(3, 8, 10, 0, ("a", "b")))
        ref = self.run(even_sphere, 5)
        assert isinstance(ref, Refusal)
        assert ref.failed == "witness degree 3 is below the equivalence threshold 5"


class TestModelText:
    def test_pretty_form(self):
        gens = [Generator("x4", 4), Generator("x6", 6), Generator("x8", 8)]
        alg = Algebra(QQ, gens)
        rels = (
            Relation(16, "partial", alg.monomial((0, 0, 2)), decomposable_asserted=True),
            Relation(18, "partial", alg.zero(), decomposable_asserted=True),
            Relation(24, "partial", alg.zero(), decomposable_asserted=True),
        )
        model = build_formal_model(Presentation(alg, rels))
        pretty = pretty_model(model)
        assert pretty.startswith("Λ(x4, x6, x8, y15, y17, y23)")
        assert "d y15 = x8^2 + …" in pretty
