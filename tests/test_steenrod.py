"""Splitting-principle engine, Wu oracle, suspension models, criterion checker."""

import itertools
import math
import random

import pytest

from loopcomm.catalog import instantiate, route
from loopcomm.cli import main as cli_main
from loopcomm.criteria import Certificate, Refusal
from loopcomm.gradedalg import (
    Algebra,
    ContractViolation,
    FieldSpec,
    Generator,
    Presentation,
    Relation,
    poly_to_text,
    replace,
)
from loopcomm.steenrod import (
    _GROUPS,
    _FIXED_RANK,
    ClassifyingCrossCheck,
    SteenrodCriterionInstance,
    SteenrodOp,
    SuspensionModel,
    _e_coefficients,
    _raised_class,
    binomial,
    char_class_operation,
    check_steenrod_criterion,
    class_algebra,
    crosscheck,
    product_slice_vanishes,
    restrict,
    suspended_coefficient,
    suspension_moore,
    suspension_of,
    suspension_quasi_projective,
    suspension_rp,
    suspension_sphere,
    torus_model,
)
from torus_reference import (
    elementary,
    m_coefficients,
    ref_express_symmetric,
    ref_hook_component_e_top,
    ref_total_char_class_operation,
    total_operation_on_torus,
    tp_mul,
    tp_unit,
)


def brute_total_sq(poly, nvars, prime=2):
    """Independent oracle: substitute t -> t + t^p by direct factor-by-factor expansion."""
    out = {}
    for exps, coeff in poly.items():
        factors = []
        for j, e in enumerate(exps):
            one = {tuple(1 if i == j else 0 for i in range(nvars)): 1}
            high = {tuple(prime if i == j else 0 for i in range(nvars)): 1}
            image = {k: v + high.get(k, 0) for k, v in one.items()}
            image.update({k: v for k, v in high.items() if k not in one})
            factors.extend([image] * e)
        term = tp_unit(nvars)
        for f in factors:
            term = tp_mul(term, f)
        for k, v in term.items():
            out[k] = out.get(k, 0) + v * coeff
    return {k: v for k, v in out.items() if v}


class TestTotalOperation:
    def test_two_variable_product(self):
        # Sq(t1 t2) = t1t2 + t1^2 t2 + t1 t2^2 + t1^2 t2^2
        poly = {(1, 1): 1}
        total = total_operation_on_torus(poly, "Sq", 2, 1)
        assert total == {(1, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 1}

    def test_defining_rule_odd_prime(self):
        total = total_operation_on_torus({(1,): 1}, "P", 3, 2)
        assert total == {(1,): 1, (3,): 1}

    def test_matches_brute_expansion_on_e2(self):
        e2 = elementary(3, 2)
        assert total_operation_on_torus(e2, "Sq", 2, 1) == brute_total_sq(e2, 3)

    def test_matches_brute_on_random_polys(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            poly = {}
            for _ in range(rng.randint(1, 4)):
                poly[tuple(rng.randint(0, 2) for _ in range(n))] = rng.randint(1, 3)
            poly.pop((0,) * n, None)
            if not poly:
                continue
            assert total_operation_on_torus(poly, "Sq", 2, 1) == brute_total_sq(poly, n)

    def test_rejects_odd_p_on_degree_one_variables(self):
        with pytest.raises(ContractViolation):
            total_operation_on_torus({(1,): 1}, "P", 3, 1)

    def test_rejects_sq_at_odd_prime(self):
        with pytest.raises(ContractViolation):
            total_operation_on_torus({(1,): 1}, "Sq", 3, 1)


class TestExpressSymmetric:
    """Re-expression of partition-basis input over e_1..e_n by `_e_coefficients`."""

    def test_power_sum_two_vars(self):
        # t1^2 + t2^2 = m_(2) = e1^2 - 2 e2
        assert _e_coefficients({(2,): 1}, 2) == {(2, 0): 1, (0, 1): -2}

    def test_elementary_fixed_point(self):
        assert _e_coefficients(m_coefficients(elementary(4, 3)), 4) == {(0, 0, 1, 0): 1}

    def test_power_sum_three_vars(self):
        # t1^3 + t2^3 + t3^3 = e1^3 - 3 e1 e2 + 3 e3
        assert _e_coefficients({(3,): 1}, 3) == {(3, 0, 0): 1, (1, 1, 0): -3, (0, 0, 1): 3}

    def test_numeric_evaluation_oracle(self):
        rng = random.Random(11)
        n = 4
        # random symmetric polynomial: symmetrized random monomials
        sym = {}
        for _ in range(3):
            shape = sorted((rng.randint(0, 3) for _ in range(n)), reverse=True)
            c = rng.randint(1, 5)
            for perm in set(itertools.permutations(shape)):
                sym[perm] = sym.get(perm, 0) + c
        e_terms = _e_coefficients(m_coefficients(sym), n)
        for _ in range(5):
            vals = [rng.randint(-3, 3) for _ in range(n)]
            lhs = sum(c * prod(v**e for v, e in zip(vals, exps)) for exps, c in sym.items())
            es = [
                sum(prod(vals[i] for i in sub) for sub in itertools.combinations(range(n), k))
                for k in range(n + 1)
            ]
            rhs = sum(c * prod(es[k + 1] ** m for k, m in enumerate(exps)) for exps, c in e_terms.items())
            assert lhs == rhs

    def test_inverse_of_substitution_on_e_polynomials(self):
        # expanding an e-polynomial and re-expressing it is the identity
        rng = random.Random(5)
        n = 4
        for _ in range(20):
            e_poly = {}
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                if any(exps):
                    e_poly[exps] = rng.randint(-4, 4)
            e_poly = {k: v for k, v in e_poly.items() if v}
            if not e_poly:
                continue
            expanded = {}
            for exps, c in e_poly.items():
                term = tp_unit(n)
                for k, mult in enumerate(exps, start=1):
                    for _ in range(mult):
                        term = tp_mul(term, elementary(n, k))
                for m, v in term.items():
                    expanded[m] = expanded.get(m, 0) + v * c
            expanded = {k: v for k, v in expanded.items() if v}
            assert _e_coefficients(m_coefficients(expanded), n) == e_poly


def prod(it):
    out = 1
    for x in it:
        out *= x
    return out


def wu_formula(n, i, j):
    """Classical closed form for Sq^i w_j in BSO(n): independent oracle.

    Sq^i(w_j) = sum_t C(j+t-i-1, t) w_{i-t} w_{j+t}, with w_0 = 1, w_1 = 0 and
    w_k = 0 for k > n, all mod 2.
    """
    model = torus_model("so", n)
    alg = class_algebra(model, 2)
    out = alg.zero()
    for t in range(i + 1):
        c = binomial(j + t - i - 1, t) % 2
        if not c:
            continue
        lo, hi = i - t, j + t
        if lo == 1 or hi == 1 or lo > n or hi > n:
            continue
        exps = [0] * len(alg.generators)
        if lo > 0:
            exps[alg.index[f"w{lo}"]] += 1
        if hi > 0:
            exps[alg.index[f"w{hi}"]] += 1
        out = out + alg.monomial(tuple(exps), c)
    return out


class TestCharClassOperations:
    def test_sq2_top_class_so4(self):
        out = char_class_operation(torus_model("so", 4), "w4", SteenrodOp("Sq", 2, 2))
        assert poly_to_text(out) == "w2*w4"

    @pytest.mark.parametrize("n", [5, 6])
    def test_sq3_top_class(self, n):
        out = char_class_operation(torus_model("so", n), f"w{n}", SteenrodOp("Sq", 3, 2))
        assert poly_to_text(out) == f"w3*w{n}"

    def test_wu_oracle_full_range(self):
        for n in range(2, 9):
            model = torus_model("so", n)
            for j in range(2, n + 1):
                for i in range(1, j + 1):
                    engine = char_class_operation(model, f"w{j}", SteenrodOp("Sq", i, 2))
                    assert engine == wu_formula(n, i, j), (n, i, j)

    def test_wu_oracle_at_rank_30_through_the_cli(self, capsys):
        # rank 30 lies far past the desk ranges; the Wu closed form is the oracle
        code = cli_main(
            ["steenrod", "--group", "so", "--rank", "30", "--class", "w30", "--op", "sq2"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == poly_to_text(wu_formula(30, 2, 30))

    def test_p1_symplectic_top_class(self):
        # frozen from the splitting expansion: 2*q5*(e1^2 - 2 e2) mod 5
        out = char_class_operation(torus_model("sp", 5), "q5", SteenrodOp("P", 1, 5))
        assert poly_to_text(out) == "q2*q5 + 2*q1^2*q5"

    @pytest.mark.parametrize(
        "p,n", [(3, 3), (5, 5)]
    )
    def test_odd_primary_coefficient(self, p, n):
        model = torus_model("sp", n)
        out = char_class_operation(model, f"q{n}", SteenrodOp("P", 1, p))
        alg = out.algebra
        half = (p - 1) // 2
        exps = [0] * n
        exps[alg.index[f"q{half}"]] += 1
        exps[alg.index[f"q{n}"]] += 1
        assert out.coefficient(tuple(exps)) == (-1) ** half % p

    @pytest.mark.parametrize("n", [2, 4])
    def test_sq4_symplectic_coefficient(self, n):
        out = char_class_operation(torus_model("sp", n), f"q{n}", SteenrodOp("Sq", 4, 2))
        alg = out.algebra
        exps = [0] * n
        exps[alg.index["q1"]] += 1
        exps[alg.index[f"q{n}"]] += 1
        assert out.coefficient(tuple(exps)) == 1

    def test_p1_q2_psp4_frozen(self):
        out = char_class_operation(torus_model("psp4", 4), "q2", SteenrodOp("P", 1, 5))
        assert poly_to_text(out) == "3*q4 + q2^2 + 3*q1*q3 + 2*q1^2*q2"

    def test_p1_p2_spin9_frozen(self):
        out = char_class_operation(torus_model("spin9", 4), "p2", SteenrodOp("P", 1, 5))
        assert poly_to_text(out) == "3*p4 + p2^2 + 3*p1*p3 + 2*p1^2*p2"

    def test_unknown_class(self):
        with pytest.raises(LookupError):
            char_class_operation(torus_model("so", 4), "w9", SteenrodOp("Sq", 2, 2))

    def test_class_index_at_a_large_rank(self):
        model = torus_model("su", 1000)
        assert model.class_index("c1000") == 1000
        assert model.class_names()[:2] == ("c1", "c2") and len(model.class_names()) == 1000
        assert [g.degree for g in class_algebra(model, 2).generators[-2:]] == [1998, 2000]
        with pytest.raises(LookupError, match=r"^unknown class 'c1001' in the su\(1000\) model$"):
            model.class_index("c1001")
        with pytest.raises(LookupError, match=r"^unknown class 'w1' in the so\(5\) model$"):
            torus_model("so", 5).class_index("w1")

    def test_power_op_on_so_rejected(self):
        with pytest.raises(ContractViolation):
            char_class_operation(torus_model("so", 4), "w4", SteenrodOp("P", 1, 3))

    def test_hook_coefficient_matches_unitary_model(self):
        # the AII table: Sq^{4r} x_{4k+1} has x_{4(k+r)+1} exactly when the linear
        # coefficient of c_{2(k+r)+1} in Sq^{4r} c_{2k+1} is odd
        n = 5
        table = route(instantiate("AII", (n,))).steps[0].data.sq_table
        alg = table["x5"].algebra
        for k in range(1, n):
            want = alg.gen(f"x{4 * k + 1}")
            for r in range(1, n - k):
                if ref_hook_component_e_top(2 * k + 1, 2 * r) % 2:
                    want = want + alg.gen(f"x{4 * (k + r) + 1}")
            assert table[f"x{4 * k + 1}"] == want, k


class TestPropertySuite:
    def test_randomized_instability_unit_square_cartan(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 1000:
            n = rng.randint(1, 4)
            d = rng.randint(1, 8)
            monos = [m for m in _monomials(n, d)]
            if not monos:
                continue
            picked = rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
            poly = {m: 1 for m in picked}
            total = total_operation_on_torus(poly, "Sq", 2, 1)
            # unit: degree-d component is the identity (mod 2)
            comp0 = {e: c % 2 for e, c in total.items() if sum(e) == d and c % 2}
            assert comp0 == poly
            # top: degree-2d component equals the square (mod 2)
            sq = {e: c % 2 for e, c in tp_mul(poly, poly).items() if c % 2}
            top = {e: c % 2 for e, c in total.items() if sum(e) == 2 * d and c % 2}
            assert top == sq
            # instability: nothing above degree 2d
            assert all(sum(e) <= 2 * d for e in total)
            checked += 1

    def test_cartan_multiplicativity_exact(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 4)
            a = {tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(1, 2)}
            b = {tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(1, 2)}
            lhs = total_operation_on_torus(tp_mul(a, b), "Sq", 2, 1)
            rhs = tp_mul(
                total_operation_on_torus(a, "Sq", 2, 1),
                total_operation_on_torus(b, "Sq", 2, 1),
            )
            assert lhs == rhs


def _monomials(n, d):
    if n == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        for rest in _monomials(n - 1, d - e):
            out.append((e,) + rest)
    return out


# ---------------------------------------------------------------------------
# differential checks of the partition-basis, degree-targeted engine against
# a full expansion over torus monomials (tests/torus_reference.py)


def _random_symmetric(rng, n):
    sym = {}
    for _ in range(rng.randint(1, 4)):
        shape = sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
        c = rng.randint(-5, 5)
        for perm in set(itertools.permutations(shape)):
            sym[perm] = sym.get(perm, 0) + c
    return {e: c for e, c in sym.items() if c}


def _ops_for(model):
    """Every operation component that can act on the model's classes."""
    top = model.class_degree(model.rank)
    ops = [SteenrodOp("Sq", k, 2) for k in range(top + 1)]
    if model.var_degree == 2:
        for p in (3, 5):
            ops += [SteenrodOp("P", k, p) for k in range(model.class_power * model.rank + 2)]
    return ops


def _hook_read(j, c):
    """The AII read: coefficient of c_{j+c} alone in Sq^{2c} c_j, at rank j + c."""
    op = SteenrodOp("Sq", 2 * c, 2)
    return suspended_coefficient(torus_model("su", j + c), f"c{j}", op, f"c{j + c}")


def ref_quasi_projective_actions(m, prime):
    """The stable action table of Sigma Q_m, read off the full torus expansion.

    The coefficient of q_t alone in an operation on q_i does not depend on the
    rank, so it is read at rank t, from the weight-t component.
    """
    family, step = ("Sq", 1) if prime == 2 else ("P", 2 * (prime - 1))
    actions = {}
    for t in range(2, m + 1):
        model = torus_model("sp", t)
        for i in range(1, t):
            shift = 4 * (t - i)
            if shift % step:
                continue
            full = ref_total_char_class_operation(model, f"q{i}", family, prime, weight=t)
            gamma = int(full.coefficient(tuple(int(g == t - 1) for g in range(t))))
            if gamma:
                actions[(f"sx{i}", family, shift // step)] = ((gamma, f"sx{t}"),)
    return actions


def ref_raised_class(model, i, prime, raise_by):
    """`_raised_class` with every count tried at every raise, the last one included."""
    w = model.class_power
    out = {}

    def walk(c, slots, left, parts, coeff):
        if c == 0:
            if left == 0 and coeff % prime:
                out[parts + (w,) * slots] = coeff % prime
            return
        for n in range(min(slots, left // c), -1, -1):
            walk(c - 1, slots - n, left - n * c, parts + (w + c * (prime - 1),) * n, coeff * binomial(w, c) ** n)

    walk(w, i, raise_by, (), 1)
    return {tuple(part // w for part in lam) if w == 2 else lam: c for lam, c in out.items()}


class TestPartitionEngineDifferential:
    @pytest.mark.parametrize("group", sorted(_GROUPS))
    def test_raised_class_matches_unpruned_walk(self, group):
        ranks = [_FIXED_RANK[group]] if group in _FIXED_RANK else range(1, 9)
        for rank in ranks:
            model = torus_model(group, rank)
            for name in model.class_names():
                i = model.class_index(name)
                for prime, raise_by in itertools.product((2, 3, 5), range(7)):
                    want = ref_raised_class(model, i, prime, raise_by)
                    assert _raised_class(model, i, prime, raise_by) == want, (group, rank, name, prime, raise_by)

    def test_express_symmetric_on_random_symmetric_inputs(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 5)
            poly = _random_symmetric(rng, n)
            assert _e_coefficients(m_coefficients(poly), n) == ref_express_symmetric(poly, n)

    @pytest.mark.parametrize("group", sorted(_GROUPS))
    def test_char_class_operation_matches_full_expansion(self, group):
        ranks = [_FIXED_RANK[group]] if group in _FIXED_RANK else range(1, 6)
        for rank in ranks:
            model = torus_model(group, rank)
            for name in model.class_names():
                i = model.class_index(name)
                for op in _ops_for(model):
                    full = ref_total_char_class_operation(model, name, op.family, op.prime)
                    want = full.degree_component(model.class_degree(i) + op.shift)
                    assert char_class_operation(model, name, op) == want, (group, rank, name, op)

    def test_hook_component_matches_monomial_enumeration(self):
        for j in range(1, 9):
            for c in range(0, 9 - j):
                assert _hook_read(j, c) == ref_hook_component_e_top(j, c) % 2, (j, c)

    def test_hook_component_matches_closed_form_at_larger_ranks(self):
        # modulo decomposables m_lambda = (-1)^(n-l) n (l-1)! / prod_v mult_v! e_n,
        # n = |lambda|, l = its length (Waring's formula for the linear term)
        for j in range(1, 13):
            for c in range(0, j + 1):
                n = j + c
                want = (-1) ** c * n * math.factorial(j - 1) // (
                    math.factorial(c) * math.factorial(j - c)
                )
                assert _hook_read(j, c) == want % 2, (j, c)

    def test_linear_coefficient_matches_newton_at_random_ranks(self):
        # P^k c_i restricts to m_(p^k, 1^(i-k)), whose e_N coefficient modulo
        # decomposables is C(i,k) N / i, N = i + k(p-1) (Sq^2k at p = 2).  The
        # pairing reads it without an elimination, so any k with N <= 80 is cheap.
        rng = random.Random(2309)
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            k = rng.randint(1, 80 // p)
            i = rng.randint(k, 80 - k * (p - 1))
            n = i + k * (p - 1)
            op = SteenrodOp("Sq", 2 * k, 2) if p == 2 else SteenrodOp("P", k, p)
            want = math.comb(i, k) * n // i % p
            assert suspended_coefficient(torus_model("su", n), f"c{i}", op, f"c{n}") == want, (i, k, p)

    @pytest.mark.parametrize("group", sorted(_GROUPS))
    def test_pairing_matches_elimination(self, group):
        # the linear coefficient read by the power-sum pairing against the e_N
        # coefficient of the eliminated component, for every class pair and every
        # Sq^k and P^k (p = 3, 5, 7) up to the top degree; pairs an op does not
        # join read 0, the guard the pairing needs
        ranks = [_FIXED_RANK[group]] if group in _FIXED_RANK else range(1, 7)
        nonzero = 0
        for rank in ranks:
            model = torus_model(group, rank)
            top = model.class_degree(rank)
            ops = [SteenrodOp("Sq", k, 2) for k in range(top + 1)]
            if model.var_degree == 2:
                ops += [SteenrodOp("P", k, p) for p in (3, 5, 7) for k in range(top // (2 * (p - 1)) + 1)]
            for name, target, op in itertools.product(model.class_names(), model.class_names(), ops):
                component = char_class_operation(model, name, op)
                want = int(component.coefficient(tuple(int(g.name == target) for g in component.algebra.generators)))
                got = suspended_coefficient(model, name, op, target)
                assert got == want, (group, rank, name, target, op)
                nonzero += bool(got)
        assert nonzero
        if group == "su":
            # P^1 c_3 at p = 3 is m_(3, 1, 1) of degree 5; read as if it were of degree 4
            # the pairing gives -4, non-zero mod 3, but the component has no c_4 term
            assert suspended_coefficient(torus_model("su", 4), "c3", SteenrodOp("P", 1, 3), "c4") == 0

    def test_linear_coefficient_matches_wu_at_random_ranks(self):
        # the w_{i+b} term of Sq^b w_i in BSO(n) is the t = b term of the Wu
        # formula, C(i-1, b) w_0 w_{i+b}; b > i is covered (instability: 0)
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(3, 64)
            i = rng.randint(2, n - 1)
            b = rng.randint(1, n - i)
            got = suspended_coefficient(torus_model("so", n), f"w{i}", SteenrodOp("Sq", b, 2), f"w{i + b}")
            assert got == math.comb(i - 1, b) % 2, (n, i, b)

    @pytest.mark.parametrize("prime", [2, 3, 5, 7])
    def test_quasi_projective_actions_match_full_expansion(self, prime):
        # every component on every class, past the top class too, not only the P^1 or Sq^4 criteria read
        family, unit = ("Sq", 4) if prime == 2 else ("P", 1)
        for m in range(1, 9):
            model = suspension_quasi_projective(m)
            got = {}
            for i in range(1, m + 1):
                for k in range(unit, unit * m + 1, unit):
                    image = model.act(f"sx{i}", SteenrodOp(family, k, prime))
                    if image:
                        got[(f"sx{i}", family, k)] = image
            assert got == ref_quasi_projective_actions(m, prime), m


class TestSuspensionModels:
    def test_one_factory_gives_each_source(self):
        # Sigma RP^{n-1} detects w_i as su_{i-1} (degree i); Sigma Q_n detects q_i as sx_i (degree 4i)
        cases = [("so", n, f"Sigma RP^{n - 1}", [(f"su{i - 1}", i) for i in range(2, n + 1)]) for n in range(2, 17)]
        cases += [("sp", n, f"Sigma Q_{n}", [(f"sx{i}", 4 * i) for i in range(1, n + 1)]) for n in range(1, 17)]
        ops = [SteenrodOp("Sq", k, 2) for k in range(1, 9)] + [SteenrodOp("P", k, p) for p in (3, 5) for k in (1, 2)]
        for group, n, base, classes in cases:
            model = torus_model(group, n)
            source = suspension_of(model)
            assert (source.base, source.classes) == (base, tuple(classes))
            assert source is suspension_of(torus_model(group, n))
            model_class = (lambda d: f"w{d}") if group == "so" else (lambda d: f"q{d // 4}")
            for (name, degree), op in itertools.product(classes, ops):
                target = source.class_in.get(degree + op.shift)
                c = 0
                if target is not None and (group == "sp" or op.family == "Sq"):
                    c = suspended_coefficient(model, model_class(degree), op, model_class(degree + op.shift))
                assert source.act(name, op) == (((c, target),) if c else ()), (group, n, name, op.label)

    def test_rp_bottom_bockstein(self):
        m = suspension_rp(2)
        assert m.act("su1", SteenrodOp("Sq", 1, 2)) == ((1, "su2"),)

    def test_rp1_top_cell_exceeded(self):
        m = suspension_rp(1)
        assert m.act("su1", SteenrodOp("Sq", 2, 2)) == ()

    def test_rp_binomial_rule(self):
        m = suspension_rp(8)
        for j in range(1, 9):
            for k in range(1, 9 - j):
                got = m.act(f"su{j}", SteenrodOp("Sq", k, 2))
                expect = ((1, f"su{j + k}"),) if binomial(j, k) % 2 else ()
                assert got == expect

    def test_moore_space_action(self):
        m = suspension_moore()
        assert m.act("u2", SteenrodOp("Sq", 1, 2)) == ((1, "u3"),)
        assert m.act("u3", SteenrodOp("Sq", 2, 2)) == ()

    def test_sphere_trivial(self):
        m = suspension_sphere(8)
        assert m.act("s8", SteenrodOp("Sq", 4, 2)) == ()

    def test_power_operations_vanish_on_rp(self):
        # P^1 at p = 3 raises degree by 4, and Sigma RP^8 has a class there
        m = suspension_rp(8)
        assert m.act("su1", SteenrodOp("P", 1, 3)) == ()

    def test_zeroth_component_is_the_identity(self):
        m = suspension_quasi_projective(3)
        assert m.act("sx2", SteenrodOp("P", 0, 5)) == ((1, "sx2"),)

    @pytest.mark.parametrize(
        "model",
        [suspension_rp(3), suspension_quasi_projective(4), suspension_sphere(8), suspension_moore()],
        ids=lambda m: m.base,
    )
    def test_the_unit_is_a_class(self, model):
        # the unit sits in degree 0: its zeroth component is the identity, every other one is zero
        ops = [SteenrodOp("Sq", k, 2) for k in range(5)]
        ops += [SteenrodOp("P", k, p) for p in (3, 5) for k in range(3)]
        for op in ops:
            assert model.act("1", op) == (((1, "1"),) if op.k == 0 else ()), op.label

    def test_quasi_projective_vanishing_at_divisible_rank(self):
        # the coefficient of the next class in P^1 sx_{n-(p-1)/2} is n mod p
        m = suspension_quasi_projective(5)
        assert m.act("sx3", SteenrodOp("P", 1, 5)) == ()

    def test_quasi_projective_nonvanishing_case(self):
        m = suspension_quasi_projective(4)
        got = m.act("sx1", SteenrodOp("P", 1, 3))
        assert got and got[0][1] == "sx2"

    def test_two_classes_in_one_degree_are_rejected(self):
        with pytest.raises(ContractViolation, match="share a degree"):
            SuspensionModel("S^4 v S^4", [("a4", 4), ("b4", 4)])


class TestConditionSix:
    def test_ai7_slice_vanishes_with_basis_of_two(self):
        basis, violations = product_slice_vanishes(
            suspension_rp(6), suspension_rp(1), SteenrodOp("Sq", 2, 2), 7
        )
        assert not violations
        assert sorted(basis) == [("su4", "su1"), ("su6", "1")]

    def test_printed_branch_fails_for_rank_5(self):
        # Sq^3(su2 (x) su1) = su4 (x) su2 over Sigma RP^4 x Sigma RP^2
        basis, violations = product_slice_vanishes(
            suspension_rp(4), suspension_rp(2), SteenrodOp("Sq", 3, 2), 5
        )
        assert violations
        elements = {v[0] for v in violations}
        assert ("su2", "su1") in elements

    def test_fallback_passes_for_rank_5(self):
        _, violations = product_slice_vanishes(
            suspension_rp(4), suspension_rp(3), SteenrodOp("Sq", 4, 2), 5
        )
        assert not violations

    def test_coefficients_accumulate_mod_p(self):
        _, violations = product_slice_vanishes(
            suspension_quasi_projective(2),
            suspension_quasi_projective(5),
            SteenrodOp("P", 1, 5),
            20,
        )
        assert not violations


def _ai_instance(n, b, mutate_source_b=None):
    gens = [Generator(f"v{i}", i, squares_to_zero=True) for i in range(2, n + 1)]
    alg = Algebra(FieldSpec(2), gens)
    pres = Presentation(alg)
    component = char_class_operation(torus_model("so", n), f"w{n}", SteenrodOp("Sq", b, 2))
    action, _ = restrict(component, {f"w{i}": alg.gen(f"v{i}") for i in range(2, n + 1)}, pres)
    source_b = mutate_source_b or suspension_rp(b - 1)
    return SteenrodCriterionInstance(
        space=f"AI({n})",
        presentation=pres,
        theta=action,
        action_provenance="derived",
        action_citation="splitting principle",
        op=SteenrodOp("Sq", b, 2),
        a=f"v{n}",
        b=f"v{b}",
        x=f"v{n}",
        source_a=suspension_rp(n - 1),
        source_b=source_b,
        pullback_a={f"v{i}": f"su{i - 1}" for i in range(2, n + 1)},
        pullback_b={f"v{i}": (f"su{i - 1}" if i - 1 <= b - 1 else None) for i in range(2, n + 1)},
        pullback_citation="reflection restriction",
    )


def _ei_instance(square, citation):
    """Diagonal bottom-cell instance at p = 5 with P^1 x8 = square(algebra)."""
    alg = Algebra(
        FieldSpec(5),
        [Generator("x8", 8), Generator("x9", 9, True), Generator("x17", 17, True)],
    )
    pres = Presentation(alg, (Relation(24, "explicit", alg.monomial((3, 0, 0))),))
    sphere = suspension_sphere(8)
    return SteenrodCriterionInstance(
        space="EI",
        presentation=pres,
        theta=square(alg),
        action_provenance="asserted",
        action_citation=citation,
        op=SteenrodOp("P", 1, 5),
        a="x8",
        b="x8",
        x="x8",
        source_a=sphere,
        source_b=sphere,
        pullback_a={"x8": "s8", "x9": None, "x17": None},
        pullback_b={"x8": "s8", "x9": None, "x17": None},
    )


def _ei_crosscheck(inst):
    return ClassifyingCrossCheck(
        model=torus_model("psp4", 4),
        class_name="q2",
        pullback={"q2": inst.presentation.algebra.gen("x8")},
        citation="degree argument",
    )


def _certify_then_crosscheck(inst, cc):
    """The plan step's order: the six conditions, then the cross-check on their certificate."""
    cert = check_steenrod_criterion(inst)
    assert isinstance(cert, Certificate)
    return crosscheck(inst, cc, cert)


class TestCriterionChecker:
    def test_ai7_certificate(self):
        result = check_steenrod_criterion(_ai_instance(7, 2))
        assert isinstance(result, Certificate)
        assert result.criterion == "Steenrod"
        sixes = [e for e in result.transcript if e.description.startswith("(6)")]
        assert sixes and "Kunneth basis" in sixes[0].description

    def test_mutation_flips_condition_six(self):
        # enlarging the small source must flip the run to a refusal at (6)
        mutated = _ai_instance(7, 2, mutate_source_b=suspension_rp(2))
        result = check_steenrod_criterion(mutated)
        assert isinstance(result, Refusal)
        assert "condition (6)" in result.failed

    def test_condition_two_refusal(self):
        inst = _ai_instance(7, 2)
        bad = SteenrodCriterionInstance(
            **{**inst.__dict__, "pullback_b": {f"v{i}": f"su{i - 1}" for i in range(2, 8)}}
        )
        result = check_steenrod_criterion(bad)
        assert isinstance(result, Refusal) and "condition (2)" in result.failed

    @pytest.mark.parametrize(
        "field,value,failed",
        [
            ("pullback_a", {"v7": None}, "condition (1): v7 pulls back to zero on Sigma RP^6"),
            ("pullback_a", {"v7": "su1"}, "condition (1): pullback table sends v7 to su1 of the wrong degree"),
            ("pullback_b", {"v2": None}, "condition (1): v2 pulls back to zero on Sigma RP^1"),
            ("pullback_b", {"v2": "su2"}, "condition (1): pullback table sends v2 to su2 of the wrong degree"),
        ],
    )
    def test_condition_one_refusals(self, field, value, failed):
        bad = replace(_ai_instance(7, 2), **{field: value})
        result = check_steenrod_criterion(bad)
        assert isinstance(result, Refusal)
        assert result.failed == failed
        assert result.transcript[-1].outcome == "fail"

    def test_condition_four_refusal(self):
        # a linear relation kills the indecomposable v7
        inst = _ai_instance(7, 2)
        alg = inst.presentation.algebra
        pres = Presentation(alg, (Relation(7, "explicit", alg.gen("v7")),))
        result = check_steenrod_criterion(replace(inst, presentation=pres))
        assert isinstance(result, Refusal)
        assert result.failed == "condition (4): indecomposable quotient has dimension 0 != 1 in degree 7"

    def test_condition_five_refuses_an_indecomposable_action(self):
        # P^1 x8 recorded as a degree-16 generator of the presentation
        inst = _ei_instance(lambda alg: alg.monomial((2, 0, 0)), "recorded restriction")
        wide = Algebra(FieldSpec(5), inst.presentation.generators + (Generator("y16", 16),))
        pres = Presentation(wide, (Relation(24, "explicit", wide.monomial((3, 0, 0, 0))),))
        bad = replace(inst, presentation=pres, theta=wide.gen("y16"))
        result = check_steenrod_criterion(bad)
        assert isinstance(result, Refusal)
        assert result.failed == "condition (5): P^1 (p=5) x8 = y16 is not decomposable"

    def test_condition_five_refuses_a_missing_product_term(self):
        inst = _ei_instance(lambda alg: alg.zero(), "corrupted for the test")
        result = check_steenrod_criterion(inst)
        assert isinstance(result, Refusal)
        assert result.failed == "condition (5): P^1 (p=5) x8 = 0 has no x8*x8 term"

    def test_condition_five_has_no_square_of_a_truncated_class(self):
        # a3 squares to zero, so no theta carries an a3*a3 term
        alg = Algebra(FieldSpec(3), [Generator("x2", 2), Generator("a3", 3, True)])
        pres = Presentation(alg, (Relation(8, "explicit", alg.monomial((4, 0))),))
        sphere = suspension_sphere(3)
        pullback = {"x2": None, "a3": "s3"}
        inst = SteenrodCriterionInstance(
            space="X",
            presentation=pres,
            theta=alg.monomial((3, 0)),
            action_provenance="asserted",
            action_citation="constructed for the test",
            op=SteenrodOp("P", 1, 3),
            a="a3",
            b="a3",
            x="x2",
            source_a=sphere,
            source_b=sphere,
            pullback_a=pullback,
            pullback_b=pullback,
        )
        result = check_steenrod_criterion(inst)
        assert isinstance(result, Refusal)
        assert result.failed == "condition (5): P^1 (p=3) x2 = x2^3 has no a3*a3 term"

    def test_foreign_theta_is_contract_violation(self):
        # the same monomial x8^2 over an algebra with an extra generator
        inst = _ei_instance(lambda alg: alg.monomial((2, 0, 0)), "recorded restriction")
        wide = Algebra(FieldSpec(5), inst.presentation.generators + (Generator("y16", 16),))
        bad = replace(inst, theta=wide.monomial((2, 0, 0, 0)))
        with pytest.raises(ContractViolation, match="is not a degree-16 class of EI"):
            check_steenrod_criterion(bad)

    def test_theta_of_the_wrong_degree_is_contract_violation(self):
        inst = _ei_instance(lambda alg: alg.monomial((3, 0, 0)), "recorded restriction")
        with pytest.raises(ContractViolation, match="is not a degree-16 class of EI"):
            check_steenrod_criterion(inst)

    def test_degree_mismatch_raises(self):
        inst = _ai_instance(7, 2)
        bad = SteenrodCriterionInstance(**{**inst.__dict__, "op": SteenrodOp("Sq", 3, 2)})
        with pytest.raises(ContractViolation):
            check_steenrod_criterion(bad)

    def test_crosscheck_surfaces_unrecorded_terms(self):
        # EI-style: P^1 q2 has a q4 term whose restriction image is unrecorded
        inst = _ei_instance(lambda alg: alg.monomial((2, 0, 0)), "recorded restriction")
        result = _certify_then_crosscheck(inst, _ei_crosscheck(inst))
        assert isinstance(result, Certificate)
        surfaced = [e for e in result.transcript if "surfaced unresolved" in e.description]
        assert surfaced and "3*q4" in surfaced[0].description
        agree = [e for e in result.transcript if "resolved part" in e.description]
        assert agree and agree[0].outcome == "pass"

    def test_crosscheck_discrepancy_reported_not_resolved(self):
        # a corrupted recorded action disagrees with the resolved cross-check image;
        # the discrepancy is reported in the transcript, never silently fixed
        # it is inconclusive while terms are surfaced unresolved, so it is recorded as info
        inst = _ei_instance(lambda alg: alg.monomial((2, 0, 0), 2), "corrupted for the test")  # P^1 x8 = 2 x8^2
        result = _certify_then_crosscheck(inst, _ei_crosscheck(inst))
        assert isinstance(result, Certificate)
        reported = [e for e in result.transcript if "discrepancy reported" in e.description]
        assert reported and reported[0].outcome == "info"
        assert "inconclusive" in reported[0].description

    def test_crosscheck_contradiction_refuses(self):
        # with q4 recorded to restrict to zero nothing is surfaced, so the
        # computed image x8^2 contradicts a recorded 2*x8^2
        inst = _ei_instance(lambda alg: alg.monomial((2, 0, 0), 2), "corrupted for the test")
        zero = inst.presentation.algebra.zero()
        cc = replace(_ei_crosscheck(inst), pullback={**_ei_crosscheck(inst).pullback, "q4": zero})
        result = _certify_then_crosscheck(inst, cc)
        assert isinstance(result, Refusal)
        assert result.failed == "cross-check: resolved image x8^2 differs from recorded action 2*x8^2"
        assert result.transcript[-1].outcome == "fail"
        good = _ei_instance(lambda alg: alg.monomial((2, 0, 0)), "recorded restriction")
        result = _certify_then_crosscheck(good, cc)
        assert isinstance(result, Certificate)
        assert not any("surfaced" in e.description for e in result.transcript)

    def test_condition_three_refuses_distinct_sources(self):
        # |a| = |b| at an odd prime needs the diagonal instance: a second sphere
        # with equal classes and actions is still a different source
        inst = _ei_instance(lambda alg: alg.monomial((2, 0, 0)), "recorded restriction")
        other = SuspensionModel("S^8", [("s8", 8)])
        bad = SteenrodCriterionInstance(**{**inst.__dict__, "source_b": other})
        result = check_steenrod_criterion(bad)
        assert isinstance(result, Refusal) and "condition (3)" in result.failed
