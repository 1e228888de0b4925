"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import random
import time

import pytest

from loopcomm.catalog import check, instantiate, report
from loopcomm.criteria import Certificate, Refusal
from loopcomm.gradedalg import (
    Algebra,
    FieldSpec,
    Generator,
    Presentation,
    Relation,
    hilbert_function,
    is_complete_intersection,
)
from loopcomm.steenrod import (
    SteenrodOp,
    SteenrodCriterionInstance,
    char_class_operation,
    check_steenrod_criterion,
    class_algebra,
    suspension_rp,
    torus_model,
)
from loopcomm.sullivan import build_formal_model, check_d_squared
from torus_reference import binomial, total_operation_on_torus, tp_mul


def _line(num, name, ok):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num} [{status}] {name}")
    assert ok, f"acceptance criterion {num} failed: {name}"


def test_acceptance_1_theorem_regression():
    """Every desk-scale row concludes non-commutative except the CP^3 exception."""
    t0 = time.monotonic()
    rep = report()
    elapsed = time.monotonic() - t0
    failures = []
    recorded = {"AIII", "DIII", "CI", "EIII", "EVII"}
    for row in rep.rows:
        if row.exception:
            if row.label != "AIII(1,3)":
                failures.append(f"unexpected exception row {row.label}")
            continue
        if "not homotopy commutative" not in row.conclusion:
            failures.append(f"{row.label} did not conclude")
        if row.family in recorded and row.criterion != "RecordedExternal":
            failures.append(f"{row.label} expected a recorded row")
        if row.family == "BDI" and row.params.endswith(",2") and row.criterion != "RecordedExternal":
            failures.append(f"{row.label} (rank 2) expected a recorded row")
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    counted = {f: sum(1 for r in rep.rows if r.family == f) for f in ("AI", "AII", "BDI", "CII")}
    if counted != {"AI": 9, "AII": 5, "BDI": 28, "CII": 21}:
        failures.append(f"row counts off: {counted}")
    _line(1, f"theorem regression ({len(rep.rows)} rows, {elapsed:.1f}s)", not failures)
    assert not failures, failures


def test_acceptance_2_negative_controls():
    """CP^3 refuses everywhere and is flagged; CP^2 refuses the rational check."""
    cp3 = check(instantiate("AIII", (1, 3)))
    ok = isinstance(cp3, Refusal) and bool(cp3.exception_note)
    # both plan steps must have refused: the rational one and the mod-2 one
    notes = " ".join(e.description for e in cp3.transcript)
    ok = ok and "Rational" in notes and "refused" in notes

    # CP^2 = AIII(1,2): the rational checker alone yields no witness
    from loopcomm.catalog import _cp_presentation, _run_rational, RationalStep

    cp2 = _run_rational(
        RationalStep(space="CP^2", presentation=_cp_presentation(2), citation="cp2")
    )
    ok = ok and isinstance(cp2, Refusal) and "no quadratic term" in cp2.failed
    # one-sidedness: the report never claims CP^3 commutative is disproved
    _line(2, "negative controls (CP^3 flagged exception, CP^2 rational refusal)", ok)


def test_acceptance_3_wu_oracle():
    """Splitting-principle output equals the classical closed form, exactly."""

    def wu(n, i, j):
        alg = class_algebra(torus_model("so", n), 2)
        out = alg.zero()
        for t in range(i + 1):
            c = binomial(j + t - i - 1, t) % 2
            lo, hi = i - t, j + t
            if not c or lo == 1 or hi == 1 or lo > n or hi > n:
                continue
            exps = [0] * len(alg.generators)
            if lo:
                exps[alg.index[f"w{lo}"]] += 1
            exps[alg.index[f"w{hi}"]] += 1
            out = out + alg.monomial(tuple(exps), c)
        return out

    mismatches = []
    for n in range(2, 11):
        model = torus_model("so", n)
        for j in range(2, n + 1):
            for i in range(1, j + 1):
                if char_class_operation(model, f"w{j}", SteenrodOp("Sq", i, 2)) != wu(n, i, j):
                    mismatches.append((n, i, j))
    # the particular cases behind the branch split
    for n in (4, 7, 8):
        got = char_class_operation(torus_model("so", n), f"w{n}", SteenrodOp("Sq", 2, 2))
        want = class_algebra(torus_model("so", n), 2)
        exps = [0] * len(want.generators)
        exps[want.index["w2"]] += 1
        exps[want.index[f"w{n}"]] += 1
        if got != want.monomial(tuple(exps)):
            mismatches.append(("sq2", n))
    for n in (5, 6):
        got = char_class_operation(torus_model("so", n), f"w{n}", SteenrodOp("Sq", 3, 2))
        want = class_algebra(torus_model("so", n), 2)
        exps = [0] * len(want.generators)
        exps[want.index["w3"]] += 1
        exps[want.index[f"w{n}"]] += 1
        if got != want.monomial(tuple(exps)):
            mismatches.append(("sq3", n))
    _line(3, "Wu-formula oracle, 2 <= n <= 10, exact", not mismatches)
    assert not mismatches, mismatches


def test_acceptance_4_odd_primary_coefficients():
    """P^1 q_n and Sq^4 q_n coefficients match the closed-form signs."""
    bad = []
    for p, n in ((3, 3), (5, 5)):
        out = char_class_operation(torus_model("sp", n), f"q{n}", SteenrodOp("P", 1, p))
        alg = out.algebra
        half = (p - 1) // 2
        exps = [0] * n
        exps[alg.index[f"q{half}"]] += 1
        exps[alg.index[f"q{n}"]] += 1
        if out.coefficient(tuple(exps)) != (-1) ** half % p:
            bad.append((p, n))
    for n in (2, 4):
        out = char_class_operation(torus_model("sp", n), f"q{n}", SteenrodOp("Sq", 4, 2))
        alg = out.algebra
        exps = [0] * n
        exps[alg.index["q1"]] += 1
        exps[alg.index[f"q{n}"]] += 1
        if out.coefficient(tuple(exps)) != 1:
            bad.append(("sq4", n))
    _line(4, "odd-primary and Sq^4 coefficient checks", not bad)
    assert not bad, bad


def test_acceptance_5_sullivan_wellformedness():
    """Formal models of explicit complete intersections; accept/reject; palindromes."""
    QQ = FieldSpec(0)
    ok = True

    # a battery of fully explicit synthetic complete intersections
    batteries = []
    for degs in [(2,), (4,), (2, 4), (4, 6), (4, 6, 8), (2, 4, 8)]:
        alg = Algebra(QQ, [Generator(f"x{d}", d) for d in degs])
        rels = tuple(
            Relation(
                2 * d,
                "explicit",
                alg.monomial(tuple(2 if i == k else 0 for i in range(len(degs)))),
            )
            for k, d in enumerate(degs)
        )
        batteries.append(Presentation(alg, rels))
    # a mixed-term regular triple on x4, x6, x8
    alg = Algebra(QQ, [Generator("x4", 4), Generator("x6", 6), Generator("x8", 8)])
    mixed = Presentation(
        alg,
        (
            Relation(16, "explicit", alg.monomial((0, 0, 2)) + alg.monomial((4, 0, 0))),
            Relation(18, "explicit", alg.monomial((0, 3, 0))),
            Relation(
                24,
                "explicit",
                alg.monomial((6, 0, 0)) + alg.monomial((0, 4, 0)) + alg.monomial((0, 0, 3)),
            ),
        ),
    )
    batteries.append(mixed)

    for pres in batteries:
        ok = ok and is_complete_intersection(pres)
        ok = ok and check_d_squared(build_formal_model(pres))
        D = sum(r.degree for r in pres.relations) - sum(g.degree for g in pres.generators)
        dims = hilbert_function(pres, D)
        ok = ok and list(dims) == list(dims)[::-1]

    # the required accept/reject pair
    alg2 = Algebra(QQ, [Generator("x2", 2)])
    cp3 = Presentation(alg2, (Relation(8, "explicit", alg2.monomial((4,))),))
    ok = ok and is_complete_intersection(cp3)
    alg3 = Algebra(QQ, [Generator("x4", 4), Generator("x8", 8)])
    dependent = Presentation(
        alg3,
        (
            Relation(8, "explicit", alg3.monomial((2, 0))),
            Relation(12, "explicit", alg3.monomial((3, 0))),
        ),
    )
    ok = ok and not is_complete_intersection(dependent)
    _line(5, "Sullivan well-formedness, CI accept/reject, palindromic Hilbert", ok)


def test_acceptance_6_condition_six_computed():
    """AI(7): the degree-7 Kunneth slice is enumerated; mutation flips to refusal."""
    from loopcomm.catalog import route

    plan = route(instantiate("AI", (7,)))
    inst = plan.steps[0]
    result = check_steenrod_criterion(inst)
    ok = isinstance(result, Certificate)
    six = [e for e in result.transcript if e.description.startswith("(6)")]
    ok = ok and six and "Kunneth basis" in six[0].description
    basis_text = six[0].description.replace(" ", "")
    ok = ok and "su4(x)su1" in basis_text and "su6(x)1" in basis_text

    # mutation: enlarge the small source so Sq^2 no longer vanishes on the slice
    mutated = SteenrodCriterionInstance(**{**inst.__dict__, "source_b": suspension_rp(2)})
    flipped = check_steenrod_criterion(mutated)
    ok = ok and isinstance(flipped, Refusal) and "condition (6)" in flipped.failed
    _line(6, "condition (6) genuinely computed + mutation test", ok)


def test_acceptance_7_property_suite():
    """Unit, top-square, instability, Cartan on 1000 random torus polynomials."""
    rng = random.Random(20240601)
    checked = 0
    ok = True
    while checked < 1000:
        n = rng.randint(1, 4)
        d = rng.randint(1, 8)
        poly = {}
        for _ in range(rng.randint(1, 3)):
            exps = []
            left = d
            for i in range(n - 1):
                e = rng.randint(0, left)
                exps.append(e)
                left -= e
            exps.append(left)
            poly[tuple(exps)] = 1
        total = total_operation_on_torus(poly, "Sq", 2, 1)
        unit = {e: c % 2 for e, c in total.items() if sum(e) == d and c % 2}
        ok = ok and unit == poly
        square = {e: c % 2 for e, c in tp_mul(poly, poly).items() if c % 2}
        top = {e: c % 2 for e, c in total.items() if sum(e) == 2 * d and c % 2}
        ok = ok and top == square
        ok = ok and all(sum(e) <= 2 * d for e in total)
        other = {tuple(rng.randint(0, 2) for _ in range(n)): 1}
        lhs = total_operation_on_torus(tp_mul(poly, other), "Sq", 2, 1)
        rhs = tp_mul(total, total_operation_on_torus(other, "Sq", 2, 1))
        ok = ok and lhs == rhs
        checked += 1
    _line(7, "Steenrod property suite on 1000 random torus polynomials", ok)


def test_acceptance_8_determinism():
    """Two consecutive full reports serialize byte-identically."""
    a = json.dumps(report().to_dict(), indent=2)
    b = json.dumps(report().to_dict(), indent=2)
    _line(8, "byte-identical structured report reruns", a == b)
