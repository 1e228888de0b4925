"""Core graded-commutative arithmetic, Hilbert functions, serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcomm.gradedalg import (
    Algebra,
    ContractViolation,
    FieldSpec,
    Generator,
    HypothesisViolation,
    Poly,
    Presentation,
    Relation,
    StructuralError,
    UnsupportedPresentation,
    hilbert_function,
    indecomposable_dimension,
    is_complete_intersection,
    is_decomposable,
    mul,
    parse_poly,
    parse_presentation,
    poly_to_text,
    print_presentation,
    quadratic_terms,
)
from loopcomm.gradedalg import _ideal_rows, _rank

QQ = FieldSpec(0)


def q_algebra(*gens):
    return Algebra(QQ, list(gens))


@pytest.fixture
def mixed():
    # even x4, x6 and odd y9, y17
    return q_algebra(
        Generator("x4", 4),
        Generator("x6", 6),
        Generator("y9", 9, True),
        Generator("y17", 17, True),
    )


class TestFieldSpec:
    def test_rational(self):
        f = FieldSpec(0)
        assert f.kind == "rational"
        assert f.normalize(2) == Fraction(2)

    def test_prime(self):
        f = FieldSpec(5)
        assert f.kind == "prime-field"
        assert f.normalize(7) == 2
        assert f.inv(2) == 3

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldSpec(6)


class TestMul:
    def test_unit(self, mixed):
        p = mixed.gen("x4") + mixed.gen("y9").scale(3)
        assert mul(mixed.unit(), p) == p
        assert mul(p, mixed.unit()) == p

    def test_koszul_sign(self, mixed):
        a, b = mixed.gen("y9"), mixed.gen("y17")
        assert mul(b, a) == -mul(a, b)

    def test_distributive_even(self):
        alg = q_algebra(Generator("x4", 4), Generator("x6", 6))
        x4, x6 = alg.gen("x4"), alg.gen("x6")
        assert (x4 + x6) * x4 == x4 * x4 + x4 * x6

    def test_odd_squares_vanish(self, mixed):
        y = mixed.gen("y9")
        assert (y * y).is_zero

    def test_squares_to_zero_flag_over_f2(self):
        alg = Algebra(FieldSpec(2), [Generator("v3", 3, True)])
        v = alg.gen("v3")
        assert (v * v).is_zero

    def test_char2_odd_generator_may_square(self):
        alg = Algebra(FieldSpec(2), [Generator("x3", 3)])
        x = alg.gen("x3")
        assert not (x * x).is_zero

    def test_mismatched_tables(self, mixed):
        other = q_algebra(Generator("x4", 4))
        with pytest.raises(StructuralError):
            mul(mixed.gen("x4"), other.gen("x4"))

    def test_odd_generator_needs_flag_away_from_char2(self):
        with pytest.raises(StructuralError):
            Algebra(QQ, [Generator("y3", 3, False)])

    def test_associativity_on_sample(self, mixed):
        a = mixed.gen("x4") + mixed.gen("y9")
        b = mixed.gen("x6") - mixed.gen("y17").scale(2)
        c = mixed.gen("y9") + mixed.unit()
        assert mul(a, mul(b, c)) == mul(mul(a, b), c)


@st.composite
def random_poly(draw, alg):
    n = len(alg.generators)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(
            draw(st.integers(0, 1 if alg.sqz[i] else 2)) for i in range(n)
        )
        terms[exps] = draw(st.integers(-3, 3))
    return alg.poly(terms)


_HYP_ALG = Algebra(
    QQ,
    [Generator("x2", 2), Generator("y3", 3, True), Generator("x4", 4), Generator("y5", 5, True)],
)


class TestAlgebraProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_poly(_HYP_ALG), random_poly(_HYP_ALG), random_poly(_HYP_ALG))
    def test_associative(self, a, b, c):
        assert mul(a, mul(b, c)) == mul(mul(a, b), c)

    @settings(max_examples=150, deadline=None)
    @given(random_poly(_HYP_ALG), random_poly(_HYP_ALG))
    def test_graded_commutative_on_homogeneous(self, a, b):
        for da in sorted(a.degrees()):
            for db in sorted(b.degrees()):
                ha, hb = a.degree_component(da), b.degree_component(db)
                sign = -1 if (da % 2 and db % 2) else 1
                assert mul(ha, hb) == mul(hb, ha).scale(sign)

    @settings(max_examples=150, deadline=None)
    @given(random_poly(_HYP_ALG), random_poly(_HYP_ALG), random_poly(_HYP_ALG))
    def test_distributive(self, a, b, c):
        assert mul(a, b + c) == mul(a, b) + mul(a, c)


class TestDecomposable:
    def test_square_is_decomposable(self, mixed):
        x8sq = mixed.monomial((0, 0, 0, 0))  # placeholder
        alg = q_algebra(Generator("x4", 4), Generator("x8", 8))
        assert is_decomposable(alg.monomial((0, 2)))

    def test_generator_is_not(self, mixed):
        assert not is_decomposable(mixed.gen("x4"))

    def test_representative_relation_shape(self):
        alg = q_algebra(Generator("x4", 4), Generator("x8", 8))
        body = alg.monomial((0, 2)) + alg.monomial((2, 1))
        assert is_decomposable(body)

    def test_requires_homogeneous(self, mixed):
        p = mixed.gen("x4") + mixed.gen("x6")
        with pytest.raises(ContractViolation):
            is_decomposable(p)

    def test_zero_is_decomposable(self, mixed):
        assert is_decomposable(mixed.zero())


class TestQuadraticTerms:
    def test_partial_with_square(self):
        alg = q_algebra(Generator("x4", 4), Generator("x6", 6), Generator("x8", 8))
        rel = Relation(16, "partial", alg.monomial((0, 0, 2)), decomposable_asserted=True)
        [(pair, coeff)] = quadratic_terms(rel)
        assert (pair[0].name, pair[1].name) == ("x8", "x8")
        assert coeff == 1

    def test_quartic_has_none(self):
        alg = q_algebra(Generator("x2", 2))
        rel = Relation(8, "explicit", alg.monomial((4,)))
        assert quadratic_terms(rel) == []

    def test_only_length_two_reported(self):
        alg = q_algebra(Generator("x2", 2), Generator("x4", 4), Generator("x6", 6))
        body = alg.monomial((0, 1, 1)) + alg.monomial((5, 0, 0))
        rel = Relation(10, "explicit", body)
        [(pair, coeff)] = quadratic_terms(rel)
        assert (pair[0].name, pair[1].name) == ("x4", "x6")
        assert coeff == 1

    def test_relation_degree_enforced(self):
        alg = q_algebra(Generator("x2", 2))
        with pytest.raises(ContractViolation):
            Relation(6, "explicit", alg.monomial((4,)))


class TestHilbert:
    def test_truncated_polynomial(self):
        alg = q_algebra(Generator("x2", 2))
        pres = Presentation(alg, (Relation(8, "explicit", alg.monomial((4,))),))
        assert hilbert_function(pres, 10) == (1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0)

    def test_exterior(self):
        alg = q_algebra(Generator("x9", 9, True), Generator("x17", 17, True))
        dims = hilbert_function(Presentation(alg), 26)
        expected = tuple(1 if d in (0, 9, 17, 26) else 0 for d in range(27))
        assert dims == expected

    def test_free_polynomial(self):
        alg = q_algebra(Generator("x4", 4))
        dims = hilbert_function(Presentation(alg), 12)
        assert dims == tuple(1 if d % 4 == 0 else 0 for d in range(13))

    def test_matches_monomial_count_without_relations(self):
        alg = q_algebra(Generator("x2", 2), Generator("y3", 3, True), Generator("x4", 4))
        pres = Presentation(alg)
        dims = hilbert_function(pres, 12)
        for d in range(13):
            assert dims[d] == len(alg.monomials_of_degree(d))

    def test_partial_rejected(self):
        alg = q_algebra(Generator("x2", 2))
        pres = Presentation(alg, (Relation(8, "partial", alg.zero(), True),))
        with pytest.raises(UnsupportedPresentation):
            hilbert_function(pres, 4)

    def test_works_mod_p(self):
        alg = Algebra(FieldSpec(5), [Generator("x8", 8)])
        pres = Presentation(alg, (Relation(24, "explicit", alg.monomial((3,))),))
        dims = hilbert_function(pres, 24)
        assert dims[0] == dims[8] == dims[16] == 1 and dims[24] == 0


class TestIndecomposables:
    def test_polynomial_ring(self):
        alg = Algebra(FieldSpec(2), [Generator(f"w{i}", i) for i in range(2, 8)])
        pres = Presentation(alg)
        for d in range(2, 8):
            assert indecomposable_dimension(pres, d) == 1

    def test_relation_can_kill_generator(self):
        # x6 = x2^3 modulo the relation, so degree 6 has no new indecomposable
        alg = q_algebra(Generator("x2", 2), Generator("x6", 6))
        body = alg.gen("x6") - alg.monomial((3, 0))
        pres = Presentation(alg, (Relation(6, "explicit", body),))
        assert indecomposable_dimension(pres, 6) == 0


def _indecomposables_by_enumeration(pres, degree):
    """Reference: every monomial of the degree, modulo the ideal slice and all decomposables."""
    if degree <= 0:
        return 0
    alg = pres.algebra
    basis = alg.monomials_of_degree(degree)
    index = {m: i for i, m in enumerate(basis)}
    rows = _ideal_rows(pres, degree, index)
    zero, one = alg.field.normalize(0), alg.field.normalize(1)
    for m in basis:
        if sum(m) >= 2:
            row = [zero] * len(basis)
            row[index[m]] = one
            rows.append(row)
    return len(basis) - _rank(rows, pres.field)


def _random_presentation(rng, field):
    gens = []
    for i in range(rng.randint(1, 4)):
        d = rng.randint(1, 6)
        sqz = (d % 2 == 1 and field.characteristic != 2) or rng.random() < 0.3
        gens.append(Generator(f"g{i}", d, sqz))
    alg = Algebra(field, gens)
    relations = []
    for _ in range(rng.randint(0, 3)):
        # relations in generator degrees often carry a linear part
        degree = rng.choice(alg.degrees) if rng.random() < 0.6 else rng.randint(0, 8)
        body = alg.zero()
        for m in alg.monomials_of_degree(degree):
            if rng.random() < 0.5:
                body = body + alg.monomial(m, rng.randint(-3, 3))
        relations.append(Relation(degree, "explicit", body))
    return Presentation(alg, tuple(relations))


class TestIndecomposablesDifferential:
    @pytest.mark.parametrize("field", [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5)], ids=str)
    def test_closed_form_matches_enumeration(self, field):
        rng = random.Random(field.characteristic + 17)
        for _ in range(100):
            pres = _random_presentation(rng, field)
            for d in range(11):
                assert indecomposable_dimension(pres, d) == _indecomposables_by_enumeration(pres, d), (
                    print_presentation(pres), d)

    def test_unit_relation_kills_everything(self):
        alg = q_algebra(Generator("x2", 2))
        pres = Presentation(alg, (Relation(0, "explicit", alg.unit()),))
        assert indecomposable_dimension(pres, 2) == _indecomposables_by_enumeration(pres, 2) == 0


class TestCompleteIntersection:
    def test_accepts_truncated_polynomial(self):
        alg = q_algebra(Generator("x2", 2))
        pres = Presentation(alg, (Relation(8, "explicit", alg.monomial((4,))),))
        assert is_complete_intersection(pres)

    def test_rejects_dependent_relations(self):
        alg = q_algebra(Generator("x4", 4), Generator("x8", 8))
        pres = Presentation(
            alg,
            (
                Relation(8, "explicit", alg.monomial((2, 0))),
                Relation(12, "explicit", alg.monomial((3, 0))),
            ),
        )
        assert not is_complete_intersection(pres)

    def test_empty_presentation(self):
        assert is_complete_intersection(Presentation(q_algebra()))

    def test_count_mismatch_raises(self):
        alg = q_algebra(Generator("x2", 2), Generator("x4", 4))
        pres = Presentation(alg, (Relation(8, "explicit", alg.monomial((4, 0))),))
        with pytest.raises(HypothesisViolation):
            is_complete_intersection(pres)

    def test_odd_generator_raises(self):
        alg = q_algebra(Generator("y3", 3, True))
        with pytest.raises(HypothesisViolation):
            is_complete_intersection(Presentation(alg))

    def test_formal_dimension_caps_the_check(self):
        alg = q_algebra(Generator("x2", 2))
        rel = Relation(8, "explicit", alg.monomial((4,)))
        assert is_complete_intersection(Presentation(alg, (rel,), formal_dimension=6))
        # a wrong recorded formal dimension is detected, not trusted
        for wrong in (4, 8):
            with pytest.raises(HypothesisViolation, match=f"{wrong}.*6"):
                is_complete_intersection(Presentation(alg, (rel,), formal_dimension=wrong))

    def test_palindromic_dimensions(self):
        alg = q_algebra(Generator("x4", 4), Generator("x6", 6), Generator("x8", 8))
        pres = Presentation(
            alg,
            (
                Relation(8, "explicit", alg.monomial((2, 0, 0))),
                Relation(12, "explicit", alg.monomial((0, 2, 0))),
                Relation(16, "explicit", alg.monomial((0, 0, 2))),
            ),
        )
        assert is_complete_intersection(pres)
        D = (8 - 4) + (12 - 6) + (16 - 8)
        dims = hilbert_function(pres, D)
        assert dims == dims[::-1]


class TestSerialization:
    def test_round_trip_rational(self):
        alg = q_algebra(Generator("x4", 4), Generator("x8", 8))
        body = alg.monomial((0, 2)) + alg.monomial((2, 1), Fraction(-3, 2))
        pres = Presentation(
            alg,
            (
                Relation(16, "explicit", body),
                Relation(18, "partial", alg.zero(), decomposable_asserted=True),
            ),
            formal_dimension=22,
        )
        text = print_presentation(pres)
        back = parse_presentation(text)
        assert back == pres
        assert print_presentation(back) == text

    def test_round_trip_prime_field(self):
        alg = Algebra(FieldSpec(5), [Generator("x8", 8), Generator("x9", 9, True)])
        pres = Presentation(alg, (Relation(24, "explicit", alg.monomial((3, 0), 2)),))
        text = print_presentation(pres)
        assert parse_presentation(text) == pres

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_presentation("field rational\ngenerator\nend\n")

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="field"):
            parse_presentation("generator x2 2\nend\n")


class TestPolyText:
    def test_canonical_text(self):
        # ascending degree, then exponent order
        alg = q_algebra(Generator("x4", 4), Generator("x6", 6), Generator("x8", 8))
        p = alg.monomial((0, 0, 2)) + alg.monomial((2, 1, 0), 2)
        assert poly_to_text(p) == "2*x4^2*x6 + x8^2"

    def test_parse_inverse(self):
        alg = q_algebra(Generator("x4", 4), Generator("x6", 6), Generator("x8", 8))
        p = alg.monomial((0, 0, 2)) - alg.monomial((1, 2, 0), Fraction(3, 4))
        assert parse_poly(poly_to_text(p), alg) == p

    def test_zero(self):
        alg = q_algebra(Generator("x4", 4))
        assert poly_to_text(alg.zero()) == "0"
        assert parse_poly("0", alg).is_zero
