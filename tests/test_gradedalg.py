"""Core graded-commutative arithmetic, Hilbert functions, serialization."""

import itertools
import math
import random
import re
import time
from fractions import Fraction
from math import prod
from pathlib import Path

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
)
from loopcomm.cli import main as cli_main
from loopcomm import gradedalg
from loopcomm.gradedalg import _bit_rank, _ideal_rows, _is_prime, _rank, graded_dimension

QQ = FieldSpec(0)
_G_PRES = Path(__file__).parent.parent / "src" / "loopcomm" / "data" / "presentations" / "G.pres"


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
        assert FieldSpec(0).normalize(2) == Fraction(2)

    def test_prime(self):
        assert FieldSpec(5).normalize(7) == 2

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldSpec(6)

    def test_primality_agrees_with_a_sieve_below_200000(self):
        n = 200_000
        sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
        for d in range(2, math.isqrt(n) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytearray(len(range(d * d, n, d)))
        assert [p for p in range(n) if _is_prime(p)] == [p for p in range(n) if sieve[p]]

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the bases 2..7, 2..23 and 2..37
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not _is_prime(n), n
        assert _is_prime(10**18 + 3)
        assert FieldSpec(10**18 + 3).normalize(-1) == 10**18 + 2

    def test_primality_above_the_cap_is_refused(self):
        with pytest.raises(ValueError, match="primality is decided only below 3317044064679887385961981"):
            FieldSpec(3317044064679887385961981)

    def test_fraction_over_prime_field_is_a_quotient(self):
        # 1/2 = 3 in F_5 and -1/2 = 1 in F_3
        assert FieldSpec(5).parse("1/2") == 3
        assert FieldSpec(3).parse("-1/2") == 1
        assert FieldSpec(7).normalize(Fraction(3, 4)) == 6
        alg = Algebra(FieldSpec(5), [Generator("x8", 8)])
        assert parse_poly("1/2*x8", alg) == alg.monomial((1,), 3)

    def test_denominator_divisible_by_p_is_rejected(self):
        with pytest.raises(ValueError, match="1/5"):
            FieldSpec(5).parse("1/5")
        with pytest.raises(ValueError, match="2/9"):
            FieldSpec(3).normalize(Fraction(2, 9))

    def test_zero_denominator_is_a_value_error(self):
        for field in (QQ, FieldSpec(5)):
            with pytest.raises(ValueError, match="1/0"):
                field.parse("1/0")
        with pytest.raises(ValueError, match="1/0"):
            parse_poly("1/0", q_algebra(Generator("x2", 2)))


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

    def test_repeated_generator_names_the_first_repeat(self):
        gens = [Generator(f"x{i}", 2) for i in range(500)] + [Generator("x7", 4), Generator("x3", 2)]
        with pytest.raises(StructuralError, match="^generator names must be distinct; x7 repeats$"):
            Algebra(QQ, gens)

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


class TestRelation:
    def test_relation_degree_enforced(self):
        alg = q_algebra(Generator("x2", 2))
        with pytest.raises(ContractViolation):
            Relation(6, "explicit", alg.monomial((4,)))

    def test_negative_degree_rejected(self):
        # an empty body passes the term-degree check, so the degree is checked on its own
        alg = q_algebra(Generator("x2", 2))
        with pytest.raises(ValueError, match="relation degree must be non-negative, got -2"):
            Relation(-2, "explicit", alg.zero())


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

    def test_monomials_match_brute_force(self):
        rng = random.Random(17)
        for _ in range(60):
            gens = [Generator(f"g{i}", rng.randint(1, 6), rng.random() < 0.3) for i in range(rng.randint(0, 4))]
            alg = Algebra(FieldSpec(2), gens)
            for degree in range(-2, 16):
                caps = [1 if g.squares_to_zero else max(degree, 0) // g.degree for g in gens]
                expected = sorted(
                    e for e in itertools.product(*(range(c + 1) for c in caps)) if alg.monomial_degree(e) == degree
                )
                assert alg.monomials_of_degree(degree) == expected, (gens, degree)

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


def _counting_graded_dimension(monkeypatch) -> list:
    """Spy on the per-degree elimination; the list records each degree asked for."""
    degrees = []

    def spy(pres, degree):
        degrees.append(degree)
        return graded_dimension(pres, degree)

    monkeypatch.setattr("loopcomm.gradedalg.graded_dimension", spy)
    return degrees


class TestVanishingWindow:
    def test_cli_up_to_1000_pads_the_per_degree_result_with_zeros(self, capsys):
        pres = parse_presentation(_G_PRES.read_text(encoding="utf-8"))
        head = [graded_dimension(pres, d) for d in range(41)]
        assert head[7:] == [0] * 34
        assert cli_main(["hilbert", "--file", str(_G_PRES), "--up-to", "1000"]) == 0
        want = "".join(f"{d}: {dim}\n" for d, dim in enumerate(head + [0] * 960))
        assert capsys.readouterr().out == want

    def test_stops_after_a_window_of_zeros(self, monkeypatch):
        pres = parse_presentation(_G_PRES.read_text(encoding="utf-8"))
        degrees = _counting_graded_dimension(monkeypatch)
        dims = hilbert_function(pres, 1000)
        a = max(d for d, dim in enumerate(dims) if dim) + 1  # first degree of the vanishing tail
        w = max(pres.algebra.degrees)
        assert (a, w) == (7, 3)
        assert degrees == list(range(len(degrees))) and len(degrees) <= a + w

    def test_a_gap_shorter_than_the_window_does_not_stop(self, monkeypatch):
        # Q[x4]: runs of three zero degrees, one short of the window
        alg = q_algebra(Generator("x4", 4))
        degrees = _counting_graded_dimension(monkeypatch)
        dims = hilbert_function(Presentation(alg), 60)
        assert degrees == list(range(61))
        assert dims == tuple(int(d % 4 == 0) for d in range(61))

    def test_an_infinite_quotient_runs_to_the_bound(self, monkeypatch):
        # x2 * y6 = 0 leaves both powers alive, with zeros only in odd degrees
        alg = q_algebra(Generator("x2", 2), Generator("y6", 6))
        pres = Presentation(alg, (Relation(8, "explicit", alg.monomial((1, 1))),))
        degrees = _counting_graded_dimension(monkeypatch)
        dims = hilbert_function(pres, 50)
        assert degrees == list(range(51))
        assert dims[48] == 2 and dims[50] == 1


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
    one = alg.field.normalize(1)
    for m in basis:
        if sum(m) >= 2:
            rows.append({index[m]: one})
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


def _dense_rank(rows: list, field: FieldSpec) -> int:
    """Reference: rank of dense coefficient vectors by Gauss-Jordan elimination over the field."""
    pivots: dict = {}  # column -> reduced row
    rank = 0
    for row in rows:
        row = [field.normalize(c) for c in row]
        for col in sorted(pivots):
            c = row[col]
            if c:
                prow = pivots[col]
                for j in range(len(row)):
                    row[j] = field.normalize(row[j] - c * prow[j])
        lead = next((j for j, c in enumerate(row) if c), None)
        if lead is None:
            continue
        inv = field.normalize(Fraction(1, row[lead]))
        pivots[lead] = [field.normalize(c * inv) for c in row]
        rank += 1
    return rank


def _lowest_bit_rank(rows, ncols=None) -> int:
    """Reference F_2 rank of int rows, pivoting on each row's lowest set bit, as `_bit_rank` once did."""
    pivots: dict = {}  # lowest set bit -> row
    for row in rows:
        if len(pivots) == ncols:
            break
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return len(pivots)


def _random_sparse_matrix(rng, field):
    """Rows {column: entry} with zero rows, duplicates and dependent combinations."""
    width = rng.randint(1, 10)

    def entry():
        if field.characteristic:
            return rng.randint(-2 * field.characteristic, 2 * field.characteristic)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    rows = []
    for _ in range(rng.randint(0, 12)):
        shape = rng.random()
        if shape < 0.1:
            rows.append({} if rng.random() < 0.5 else {rng.randrange(width): 0})
        elif shape < 0.25 and rows:
            rows.append(dict(rng.choice(rows)))
        elif shape < 0.45 and rows:
            a, b, r1, r2 = entry(), entry(), rng.choice(rows), rng.choice(rows)
            cols = set(r1) | set(r2)
            rows.append({j: a * r1.get(j, 0) + b * r2.get(j, 0) for j in cols})
        else:
            rows.append({j: entry() for j in rng.sample(range(width), rng.randint(1, width))})
    return rows, width


class TestRank:
    @pytest.mark.parametrize("field", [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(7)], ids=str)
    def test_sparse_matches_dense_reference(self, field):
        rng = random.Random(field.characteristic + 101)
        for _ in range(300):
            rows, width = _random_sparse_matrix(rng, field)
            dense = [[row.get(j, 0) for j in range(width)] for row in rows]
            before = [dict(row) for row in rows]
            assert _rank(rows, field) == _dense_rank(dense, field), (rows, field)
            assert _rank(rows, field, width) == _dense_rank(dense, field), (rows, field)
            assert rows == before  # the input rows are left as they were

    def test_rank_over_q_is_not_a_modular_rank(self):
        # [[1, 1], [1, 3]] has rank 2 over Q and rank 1 over F_2
        rows = [{0: 1, 1: 1}, {0: 1, 1: 3}]
        assert _rank(rows, QQ) == 2
        assert _rank(rows, FieldSpec(2)) == 1

    def test_bit_rank_matches_dense_reference_over_f2(self):
        rng = random.Random(2)
        f2 = FieldSpec(2)
        for _ in range(300):
            width = rng.randint(1, 12)
            dense = [[rng.randint(0, 1) for _ in range(width)] for _ in range(rng.randint(0, 14))]
            if dense and rng.random() < 0.3:  # a repeated row
                dense.append(list(rng.choice(dense)))
            bits = [sum(c << j for j, c in enumerate(row)) for row in dense]
            assert _bit_rank(bits, width) == _dense_rank(dense, f2), dense

    def test_bit_rank_takes_its_width(self):
        # every caller knows the window's column count, so the kernel never guesses it
        with pytest.raises(TypeError):
            _bit_rank([0b11, 0b10])
        assert _bit_rank([0b11, 0b10, 0b01], 2) == 2

    def test_bit_rank_matches_the_lowest_bit_kernel(self):
        # seeded rows, sparse and dense, with dependent ones; ncols = width lets a full-rank run stop
        # early, and one more column than the rows reach never does
        rng = random.Random(31)
        stopped = 0
        for _ in range(2000):
            width = rng.randint(1, 90)
            rows = []
            for _ in range(rng.randint(0, 2 * width)):
                if len(rows) >= 2 and rng.random() < 0.2:
                    rows.append(rng.choice(rows) ^ rng.choice(rows))
                else:
                    row = rng.getrandbits(width)
                    for _ in range(rng.randint(0, 3)):
                        row &= rng.getrandbits(width)
                    rows.append(row)
            expected = _lowest_bit_rank(rows)
            assert _bit_rank(rows, width) == _lowest_bit_rank(rows, width) == expected, (width, rows)
            assert _bit_rank(rows, width + 1) == expected, (width, rows)
            stopped += expected == width
        assert stopped > 100


def _grassmannian(k, n, seed):
    """Sign-flipped presentation of H*(Gr_k(C^n); Q) = Q[c_1..c_k]/(h_{n-k+1}, ..., h_n).

    h_j = -(c_1 h_{j-1} + ... + c_k h_{j-k}); the seed substitutes c_i -> +-c_i
    and scales each relation by +-1, graded automorphisms of the presentation.
    """
    rng = random.Random(seed)
    flips = [rng.choice((1, -1)) for _ in range(k)]
    alg = q_algebra(*[Generator(f"c{i}", 2 * i) for i in range(1, k + 1)])
    h = [alg.unit()]
    for j in range(1, n + 1):
        h.append(-sum((alg.gen(f"c{i}") * h[j - i] for i in range(1, min(j, k) + 1)), alg.zero()))
    relations = []
    for j in range(n - k + 1, n + 1):
        terms = {e: c * rng.choice((1, -1)) for e, c in h[j].terms.items()}
        terms = {e: c * prod(s**x for s, x in zip(flips, e)) for e, c in terms.items()}
        relations.append(Relation(2 * j, "explicit", alg.poly(terms)))
    return Presentation(alg, tuple(relations))


def _gaussian_binomial(n, k):
    """Coefficients of [n choose k]_q, lowest degree first, by q-Pascal."""
    if k in (0, n):
        return [1]
    out = [0] * (k * (n - k) + 1)
    for d, c in enumerate(_gaussian_binomial(n - 1, k - 1)):
        out[d] += c
    for d, c in enumerate(_gaussian_binomial(n - 1, k)):
        out[d + k] += c
    return out


class TestGrassmannians:
    @pytest.mark.parametrize("k, n", [(2, 6), (3, 8), (4, 8), (4, 10), (5, 10)])
    def test_poincare_polynomial_and_complete_intersection(self, k, n):
        pres = _grassmannian(k, n, seed=10 * k + n)
        expected = [0] * (2 * k * (n - k) + 1)
        for d, c in enumerate(_gaussian_binomial(n, k)):
            expected[2 * d] = c
        assert list(hilbert_function(pres, 2 * k * (n - k))) == expected
        assert is_complete_intersection(pres)


def _assert_canonical_coefficients(p: Poly) -> None:
    """Every coefficient is an int, or a Fraction that is not integral: never a float or a bool."""
    for exps, c in p.terms.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (exps, c, type(c))


class TestIntegralCoefficientsAreInts:
    def test_catalog_presentations_and_values(self):
        from loopcomm.catalog import load_dataset

        ds = load_dataset()
        for (kind, *_), rec in ds.records.items():
            if kind == "presentation":
                for rel in rec["presentation"].relations:
                    _assert_canonical_coefficients(rel.terms)
        values = [rec["value"] for rec in ds.records.values() if "value" in rec]
        assert values
        for value in values:
            _assert_canonical_coefficients(value)

    @pytest.mark.parametrize("k, n", [(2, 6), (3, 8), (3, 10), (4, 9)])
    def test_seeded_grassmannian_parses(self, k, n):
        pres = parse_presentation(print_presentation(_grassmannian(k, n, seed=7 * k + n)))
        for rel in pres.relations:
            _assert_canonical_coefficients(rel.terms)
            _assert_canonical_coefficients(rel.terms * rel.terms)

    def test_fractions_stay_fractions_until_they_cancel(self):
        alg = q_algebra(Generator("x2", 2))
        half = parse_poly("3/6*x2", alg)
        assert half.terms == {(1,): Fraction(1, 2)}
        _assert_canonical_coefficients(half)
        for whole in (parse_poly("1/2*x2 + 1/2*x2", alg), half + half, half.scale(2), (half * half).scale(4)):
            assert [type(c) for c in whole.terms.values()] == [int], whole
            _assert_canonical_coefficients(whole)
        assert parse_poly("4/2*x2", alg).terms == {(1,): 2}
        _assert_canonical_coefficients(parse_poly("4/2*x2", alg))

    def test_normalize_keeps_ints(self):
        for c, expected in ((True, 1), (False, 0), (7, 7), (Fraction(6, 3), 2), (0.5, Fraction(1, 2))):
            out = QQ.normalize(c)
            assert out == expected and type(out) is type(expected), (c, out)


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


def _series_by_division(rel_degrees, gen_degrees, up_to):
    """Reference: coefficients of prod(1 - t^r) / prod(1 - t^d) by power-series long division."""
    num = [1] + [0] * up_to
    for r in rel_degrees:
        num = [c - (num[k - r] if k >= r else 0) for k, c in enumerate(num)]
    den = [1] + [0] * up_to
    for d in gen_degrees:
        den = [c - (den[k - d] if k >= d else 0) for k, c in enumerate(den)]
    out = []
    for k in range(up_to + 1):
        out.append(num[k] - sum(den[j] * out[k - j] for j in range(1, k + 1)))
    return out


def _ci_by_series_comparison(pres):
    """Reference: the per-degree rule, series match up to D and a vanishing window above it."""
    rel_degrees = [r.degree for r in pres.relations]
    D = sum(rel_degrees) - sum(pres.algebra.degrees)
    if D < 0:
        return False
    w = max(pres.algebra.degrees, default=0)
    dims = [graded_dimension(pres, d) for d in range(D + w + 1)]
    return dims[: D + 1] == _series_by_division(rel_degrees, pres.algebra.degrees, D) and not any(dims[D + 1 :])


def _random_square_presentation(rng, field):
    """n relations on n even generators: often a complete intersection, often not.

    A relation in a generator degree may carry a linear part, which
    hilbert_function accepts and is_complete_intersection rejects.
    """
    n = rng.randint(1, 3)
    alg = Algebra(field, [Generator(f"x{i}", rng.choice((2, 4))) for i in range(n)])

    def coeff():
        if field.characteristic:
            return rng.randint(1, field.characteristic - 1)
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    relations = []
    for i in range(n):
        degree = rng.choice(alg.degrees) * rng.randint(2, 3)
        linear = rng.random() < 0.2
        body = alg.zero()
        if rng.random() < 0.6 and degree % alg.degrees[i] == 0:
            # a pure power keeps a chance of finiteness
            body = alg.monomial(tuple(degree // alg.degrees[i] if j == i else 0 for j in range(n)), coeff())
        for m in alg.monomials_of_degree(degree):
            if (sum(m) >= 2 or linear) and rng.random() < 0.3:
                body = body + alg.monomial(m, coeff())
        relations.append(Relation(degree, "explicit", body))
    return Presentation(alg, tuple(relations))


class TestSeriesFromTheWindow:
    @pytest.mark.parametrize("field", [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5)], ids=str)
    def test_matches_per_degree_elimination(self, field):
        rng = random.Random(field.characteristic + 7)
        verdicts = set()
        for _ in range(60):
            pres = _random_square_presentation(rng, field)
            D = sum(r.degree for r in pres.relations) - sum(pres.algebra.degrees)
            top = D + max(pres.algebra.degrees)
            full = hilbert_function(pres, top)
            assert full == tuple(graded_dimension(pres, d) for d in range(top + 1)), print_presentation(pres)
            if all(is_decomposable(r.terms) for r in pres.relations):
                verdict = is_complete_intersection(pres)
                assert verdict == _ci_by_series_comparison(pres), print_presentation(pres)
                verdicts.add(verdict)
            for d in range(top + 1):
                assert hilbert_function(pres, d) == full[: d + 1]
        assert verdicts == {True, False}

    def test_singular_mod_2_falls_back_to_q(self):
        # x^2 + y^2 and x^2 - y^2 agree mod 2, but over Q they span x^2 and y^2
        alg = q_algebra(Generator("x", 2), Generator("y", 2))
        x2, y2 = alg.monomial((2, 0)), alg.monomial((0, 2))
        pres = Presentation(alg, (Relation(4, "explicit", x2 + y2), Relation(4, "explicit", x2 - y2)))
        assert is_complete_intersection(pres)
        assert hilbert_function(pres, 6) == (1, 0, 2, 0, 1, 0, 0)

    def test_denominator_divisible_by_2(self):
        # x^2 + y^2/2 and xy: cleared of denominators, the first relation is 2*x^2 + y^2
        alg = q_algebra(Generator("x", 2), Generator("y", 2))
        r1 = alg.monomial((2, 0)) + alg.monomial((0, 2), Fraction(1, 2))
        pres = Presentation(alg, (Relation(4, "explicit", r1), Relation(4, "explicit", alg.monomial((1, 1)))))
        assert is_complete_intersection(pres)
        assert hilbert_function(pres, 6) == (1, 0, 2, 0, 1, 0, 0)
        assert hilbert_function(pres, 6) == tuple(graded_dimension(pres, d) for d in range(7))

    def test_grassmannian_window_needs_no_exact_elimination(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return _rank(*args)

        monkeypatch.setattr(gradedalg, "_rank", spy)
        pres = _grassmannian(3, 10, seed=13)
        assert gradedalg._regular_sequence.__wrapped__(pres)
        assert calls == []
        # the spy does see a window that falls short mod 2
        alg = q_algebra(Generator("x", 2), Generator("y", 2))
        x2, y2 = alg.monomial((2, 0)), alg.monomial((0, 2))
        short = Presentation(alg, (Relation(4, "explicit", x2 + y2), Relation(4, "explicit", x2 - y2)))
        assert gradedalg._regular_sequence.__wrapped__(short)
        assert calls

    def test_below_the_series_degree_reads_the_series(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return graded_dimension(*args)

        monkeypatch.setattr(gradedalg, "graded_dimension", spy)
        pres = _grassmannian(4, 10, seed=141)
        D = 2 * 4 * 6
        expected = [0] * (D + 1)
        for d, c in enumerate(_gaussian_binomial(10, 4)):
            expected[2 * d] = c
        assert list(hilbert_function(pres, D - 1)) == expected[:D]
        assert calls == []

    def test_truncated_generator_is_a_hypothesis_violation(self):
        alg = q_algebra(Generator("x2", 2, True))
        with pytest.raises(HypothesisViolation, match="squares to zero"):
            is_complete_intersection(Presentation(alg, (Relation(4, "explicit", alg.zero()),)))


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

    @pytest.mark.parametrize(
        "term, message",
        [
            ("term 1 2 0", "length"),
            ("term 1 -4", "negative"),
            ("term 1 3", "degree 6"),
            ("term x 4", "'x'"),
            ("term 1/0 4", "1/0"),
        ],
    )
    def test_term_errors_name_their_line(self, term, message):
        text = f"field rational\ngenerator x2 2\nrelation 8 explicit\n{term}\nend\n"
        with pytest.raises(ValueError, match=f"line 4: .*{message}"):
            parse_presentation(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("field rational\nrelation 4 bogus\nend\n", 2),
            ("field rational\ngenerator x2 2\nrelation 4 explicit decomposable\nend\n", 3),
            ("field rational\ngenerator x2 2\ngenerator x2 4\nend\n", 3),
            ("generator y3 3\nfield rational\nend\n", 1),
            ("field prime 5\ngenerator x2 2\nrelation 4 explicit\nterm 1/10 2\nend\n", 4),
            ("field rational\ngenerator x2 2\nend\ngenerator y4 4\n", 4),
            ("field rational\ngenerator x2 2\nend\n\n# done\nend\n", 6),
            ("field rational\ngenerator x2 2\nend now\n", 3),
            ("field rational\ngenerator x2 2\nrelation -2 explicit\nend\n", 3),
            # a second field or formal-dimension is rejected, as a repeated generator is, not read over the first
            ("field rational\nfield prime 2\ngenerator x2 2\nend\n", 2),
            ("field prime 3\ngenerator x2 2\n\n# again\nfield prime 3\nend\n", 5),
            ("field rational\nformal-dimension 4\ngenerator x2 2\nrelation 6 explicit\nterm 1 3\n"
             "formal-dimension 6\nend\n", 6),
        ],
    )
    def test_record_errors_name_their_line(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}:"):
            parse_presentation(text)

    @pytest.mark.parametrize(
        "record, line",
        [
            ("term 0.5 4", 4),
            ("term 1e2 4", 4),
            ("term 1_0 4", 4),
            ("term +3 4", 4),
            ("term \u0661 4", 4),
            ("term 1 +4", 4),
            ("term 1 4_0", 4),
            ("term 1 \u0664", 4),
            ("generator y \u0662", 2),
            ("generator y +2", 2),
            ("relation +8 explicit", 2),
            ("relation 1_0 explicit", 2),
            ("formal-dimension 1e1", 2),
            ("formal-dimension +6", 2),
            ("field prime +5", 1),
            ("field prime 5_0", 1),
            ("field prime \u0665", 1),
        ],
    )
    def test_numbers_are_read_as_printed(self, record, line):
        lines = ["field rational", "generator x2 2", "relation 8 explicit", "term 1 4", "end"]
        if record.startswith("term"):
            lines[3] = record
        elif record.startswith("field"):
            lines[0] = record
        else:
            lines.insert(1, record)
        with pytest.raises(ValueError, match=f"line {line}: not an? (integer|coefficient)"):
            parse_presentation("\n".join(lines) + "\n")

    @pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
    def test_printed_presentations_parse_back(self, characteristic):
        rng = random.Random(characteristic + 13)
        for _ in range(40):
            pres = _random_square_presentation(rng, FieldSpec(characteristic))
            pres = Presentation(pres.algebra, pres.relations, formal_dimension=rng.choice((None, rng.randint(-5, 40))))
            text = print_presentation(pres)
            back = parse_presentation(text)
            assert back == pres, text
            assert print_presentation(back) == text


_CATALOG_PRESENTATIONS = sorted(
    (Path(__file__).parent.parent / "src" / "loopcomm" / "data" / "presentations").glob("*.pres")
)
_MUTATION_TOKENS = (
    "x", "0", "1", "-1", "2", "17", "1/0", "1/2", "-3/4", "1/5", "bogus", "explicit", "partial",
    "decomposable", "squares-to-zero", "rational", "prime", "term", "relation", "generator", "end",
)


def _mutate_one_line(rng, lines):
    """The lines with one of them edited: a token dropped, replaced or inserted, or the line dropped or doubled."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    words = lines[i].split()
    how = rng.randrange(5)
    if how == 0 and words:
        del words[rng.randrange(len(words))]
    elif how == 1 and words:
        words[rng.randrange(len(words))] = rng.choice(_MUTATION_TOKENS)
    elif how == 2:
        words.insert(rng.randint(0, len(words)), rng.choice(_MUTATION_TOKENS))
    elif how == 3:
        del lines[i]
        return lines
    else:
        lines.insert(i, lines[i])
        return lines
    lines[i] = " ".join(words)
    return lines


class TestParserFailsClosed:
    @pytest.mark.parametrize("path", _CATALOG_PRESENTATIONS, ids=lambda p: p.stem)
    def test_one_line_mutants_round_trip_or_name_a_line(self, path):
        lines = path.read_text(encoding="utf-8").splitlines()
        rng = random.Random(path.stem)
        for _ in range(30):
            text = "\n".join(_mutate_one_line(rng, lines)) + "\n"
            try:
                pres = parse_presentation(text)
            except ValueError as exc:
                assert re.match(r"presentation line \d+: ", str(exc)), (text, exc)
                continue
            printed = print_presentation(pres)
            back = parse_presentation(printed)
            assert back == pres, text
            assert print_presentation(back) == printed, text


# the token grammar of the presentation reader, as the regexes it used to be read with
_TOKEN_REGEXES = {
    "integer": r"-?[0-9]+",
    "coefficient": r"-?[0-9]+(?:/[0-9]+)?",
    "name": r"[A-Za-z_][A-Za-z_0-9]*",
}
# ASCII tokens, and look-alikes the regexes reject: Arabic-Indic and Devanagari digits, superscripts,
# a fullwidth digit, non-ASCII letters, a signed zero, whitespace
_TOKEN_ALPHABET = list("0123456789-/+_aZx ") + ["\u0661", "\u0968", "\u00b2", "\uff11", "\u00e9", "\u03b1", "\n"]


def _read_token(kind: str, text: str):
    """What the reader makes of text as a token of `kind`: its value, or None when it is rejected."""
    try:
        if kind == "integer":
            return gradedalg._integer(text)
        if kind == "coefficient":
            return gradedalg._coefficient(text)
        return Generator(text, 1).name
    except ValueError:
        return None


class TestTokenReaders:
    @pytest.mark.parametrize("kind", sorted(_TOKEN_REGEXES))
    def test_str_method_readers_match_the_regexes(self, kind):
        rng = random.Random(kind)
        texts = ["", "+1", "-", "1/", "/2", "--1", "-1/-2", "1/0", "0/1", "\u0661", "\u00b2", "x\u00b2", "_", "1a"]
        texts += ["".join(rng.choices(_TOKEN_ALPHABET, k=rng.randint(1, 5))) for _ in range(4000)]
        for text in texts:
            matched = re.fullmatch(_TOKEN_REGEXES[kind], text) is not None
            if kind == "coefficient" and matched and re.fullmatch(r"-?[0-9]+/0+", text):
                with pytest.raises(ValueError, match="zero denominator"):
                    gradedalg._coefficient(text)
                continue
            value = _read_token(kind, text)
            assert (value is not None) == matched, text
            if matched:
                expected = {"integer": int, "coefficient": Fraction if "/" in text else int, "name": str}[kind](text)
                assert value == expected and type(value) is type(expected), text


_XY = q_algebra(Generator("x", 2), Generator("y", 2))


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

    @pytest.mark.parametrize(
        "text, terms",
        [
            (text, None)  # outside the grammar
            for text in (
                "x - - y", "- - x", "x + -y", "x +", "+", "-", "x*", "*x", "x**y", "2 x", "x y", "x^2^3", "(x)",
                "", " ", "x^", "x^^2", "x^y", "x^-1", "1/", "/2", "x/2", "2x", "x^\u0968", "x + 1/2/3",
            )
        ]
        + [
            ("x ^ 2", {(2, 0): 1}),
            ("3/6*x", {(1, 0): Fraction(1, 2)}),
            ("\t- x * y +2 ", {(1, 1): -1, (0, 0): 2}),
            ("x - y", {(1, 0): 1, (0, 1): -1}),
            ("+y", {(0, 1): 1}),
            ("x*x + x^2 - 2*y*2", {(2, 0): 2, (0, 1): -4}),
            ("0*x", {}),
        ],
    )
    def test_grammar(self, text, terms):
        if terms is None:
            with pytest.raises(ValueError, match=re.escape(f"not a polynomial: {text!r}")):
                parse_poly(text, _XY)
        else:
            assert parse_poly(text, _XY) == _XY.poly(terms)

    def test_long_whitespace_is_rejected_in_linear_time(self):
        # no whitespace run may be split two ways, or rejection takes time quadratic in its length
        spaces = " " * 50_000
        for text in (spaces + "x!", "-" + spaces + "x" + spaces + "!", "x" + spaces + "^" + spaces + "y"):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="not a polynomial"):
                parse_poly(text, _XY)
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
    def test_seeded_round_trip(self, characteristic):
        gens = [Generator("x2", 2), Generator("y3", 3, True), Generator("x4", 4), Generator("z6", 6, True)]
        alg = Algebra(FieldSpec(characteristic), gens)
        denominators = [d for d in range(1, 10) if characteristic == 0 or d % characteristic]
        rng = random.Random(f"poly text over {alg.field}")
        for _ in range(200):
            terms = {
                tuple(rng.randint(0, 1 if g.squares_to_zero else 3) for g in gens):
                Fraction(rng.randint(-9, 9), rng.choice(denominators))
                for _ in range(rng.randint(0, 5))
            }
            p = alg.poly(terms)
            text = poly_to_text(p)
            assert parse_poly(text, alg) == p, text

