"""Steenrod squares and odd-primary power operations via the splitting principle.

Characteristic-class formulas are never hard-coded: a class restricts to an
elementary symmetric polynomial in torus variables, the total operation is the
multiplicative substitution t -> t + t^p, and the answer is re-expressed in
elementary symmetric polynomials with rank truncation.  Only the degree
component an operation asks for is expanded, and symmetric polynomials are
kept in the partition basis, one coefficient per orbit of torus monomials.
Suspension models read the stable actions the criterion asks for off the same
expansion by the power-sum pairing; the six-condition criterion consumes both.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from functools import lru_cache

from .criteria import ASSERTED, MACHINE, STEENROD, Certificate, Transcript
from .gradedalg import (
    Algebra,
    ContractViolation,
    FieldSpec,
    Generator,
    Poly,
    Presentation,
    _is_prime,
    graded_dimension,
    indecomposable_dimension,
    is_decomposable,
    monomial_text,
    poly_to_text,
    record,
)


# ---------------------------------------------------------------------------
# symmetric polynomials in the partition basis: dict partition -> int, the
# coefficient of the monomial symmetric polynomial m_lambda.  A partition is a
# non-increasing tuple of positive parts, () being the constant 1; tuple order
# on partitions is the lex order on their zero-padded exponent vectors.


def _pieri(lam: tuple, k: int, nvars: int) -> list:
    """Terms (nu, coeff) of m_lam * e_k in nvars variables (vertical-strip rule).

    e_k raises k distinct variables by one.  Raising b_v of the parts of lam
    equal to v (zeros included, up to nvars parts) gives nu; the coefficient
    counts which b_v of the mult_{v+1}(nu) parts of nu equal to v + 1 came from
    v, and is prod_v C(mult_{v+1}(nu), b_v).
    """
    groups = sorted(Counter(lam).items(), reverse=True)
    if nvars > len(lam):
        groups.append((0, nvars - len(lam)))
    room = [0] * (len(groups) + 1)
    for idx in range(len(groups) - 1, -1, -1):
        room[idx] = room[idx + 1] + groups[idx][1]
    out = []

    def walk(idx: int, left: int, parts: tuple, coeff: int, above: tuple):
        if idx == len(groups):
            out.append((parts, coeff))
            return
        v, m = groups[idx]
        # parts of value v + 1 left unraised by the group above join the raised ones
        stay_above = above[1] if above[0] == v + 1 else 0
        for b in range(max(0, left - room[idx + 1]), min(m, left) + 1):
            walk(
                idx + 1,
                left - b,
                parts + (v + 1,) * b + (v,) * (m - b if v else 0),
                coeff * math.comb(stay_above + b, b),
                (v, m - b),
            )

    walk(0, k, (), 1, (None, 0))
    return out


@lru_cache(maxsize=None)
def _e_product(nvars: int, e_exps: tuple) -> dict:
    """Partition-basis expansion of prod_k e_k^{e_exps[k-1]} in nvars variables."""
    low = min((k for k, mult in enumerate(e_exps, start=1) if mult), default=0)
    if low == 0:
        return {(): 1}
    # peel every factor e_low here, so recursion depth is the number of distinct k
    rest = list(e_exps)
    rest[low - 1] = 0
    out = _e_product(nvars, tuple(rest))
    for _ in range(e_exps[low - 1]):
        nxt: dict = {}
        for lam, c in out.items():
            for nu, pc in _pieri(lam, low, nvars):
                nxt[nu] = nxt.get(nu, 0) + c * pc
        out = nxt
    return out


def _e_coefficients(mcoeffs: dict, nvars: int, prime: int = 0) -> dict:
    """Rewrite partition-basis coefficients over e_1..e_n: {e-exponents: coeff}.

    Leading-term elimination: the lex-greatest partition lambda is the leading
    term, with coefficient 1, of the elementary monomial with multiplicities
    lambda_k - lambda_{k+1}, whose other terms are all lex-smaller.  With a
    prime, coefficients are reduced mod prime as they are produced.
    """
    work = {lam: c % prime if prime else c for lam, c in mcoeffs.items()}
    work = {lam: c for lam, c in work.items() if c}
    out: dict = {}
    while work:
        lam = max(work)
        c = work.pop(lam)
        padded = lam + (0,) * (nvars + 1 - len(lam))
        e_exps = tuple(padded[k] - padded[k + 1] for k in range(nvars))
        out[e_exps] = c
        for nu, pc in _e_product(nvars, e_exps).items():
            if nu == lam:
                continue
            v = work.get(nu, 0) - c * pc
            if prime:
                v %= prime
            if v:
                work[nu] = v
            else:
                work.pop(nu, None)
    return out


# ---------------------------------------------------------------------------
# operations


@record
class SteenrodOp:
    """One operation component: Sq^k at p = 2, or P^k at an odd prime."""

    family: str  # "Sq" | "P"
    k: int
    prime: int = 2

    def __post_init__(self):
        if self.family not in ("Sq", "P"):
            raise ContractViolation(f"unknown operation family {self.family!r}")
        if self.family == "Sq" and self.prime != 2:
            raise ContractViolation("Sq operations live at the prime 2")
        if self.family == "P" and (self.prime == 2 or not _is_prime(self.prime)):
            raise ContractViolation(f"power operations live at odd primes, not at {self.prime}")

    @property
    def shift(self) -> int:
        return self.k if self.family == "Sq" else 2 * self.k * (self.prime - 1)

    @property
    def label(self) -> str:
        if self.family == "Sq":
            return f"Sq^{self.k}"
        return f"P^{self.k} (p={self.prime})"


# ---------------------------------------------------------------------------
# classifying-space models


@record
class TorusModel:
    """Classifying-space cohomology presented through torus variables.

    Classes are e_i of the variables (class_power 1) or of their squares
    (class_power 2); kill_e1 encodes the vanishing first class of the
    special orthogonal convention.
    """

    group: str
    rank: int
    var_degree: int
    class_power: int
    class_prefix: str
    kill_e1: bool = False

    def class_degree(self, i: int) -> int:
        return self.var_degree * self.class_power * i

    def class_names(self) -> tuple:
        return tuple(_class_indices(self))

    def class_index(self, name: str) -> int:
        i = _class_indices(self).get(name)
        if i is None:
            raise LookupError(f"unknown class {name!r} in the {self.group}({self.rank}) model")
        return i


@lru_cache(maxsize=None)
def _class_indices(model: TorusModel) -> dict:
    """Class name -> index i of e_i, in index order."""
    start = 2 if model.kill_e1 else 1
    return {f"{model.class_prefix}{i}": i for i in range(start, model.rank + 1)}


_GROUPS = {
    "so": dict(var_degree=1, class_power=1, class_prefix="w", kill_e1=True),
    "su": dict(var_degree=2, class_power=1, class_prefix="c", kill_e1=False),
    "sp": dict(var_degree=2, class_power=2, class_prefix="q", kill_e1=False),
    "spin9": dict(var_degree=2, class_power=2, class_prefix="p", kill_e1=False),
    "psp4": dict(var_degree=2, class_power=2, class_prefix="q", kill_e1=False),
}
_FIXED_RANK = {"spin9": 4, "psp4": 4}


@lru_cache(maxsize=None)
def torus_model(group: str, rank: int) -> TorusModel:
    if group not in _GROUPS:
        raise LookupError(f"unknown group tag {group!r}; expected one of {sorted(_GROUPS)}")
    fixed = _FIXED_RANK.get(group)
    if fixed is not None and rank != fixed:
        raise LookupError(f"{group} model has fixed rank {fixed}")
    if rank < 1:
        raise LookupError("rank must be positive")
    return TorusModel(group=group, rank=rank, **_GROUPS[group])


@lru_cache(maxsize=None)
def class_algebra(model: TorusModel, prime: int) -> Algebra:
    gens = [Generator(name, model.class_degree(i)) for name, i in _class_indices(model).items()]
    return Algebra(FieldSpec(prime), gens)


def _classes_from_e(model: TorusModel, e_terms: dict, prime: int) -> Poly:
    skip = 1 if model.kill_e1 else 0  # w1 = 0
    return class_algebra(model, prime).poly(
        {e_exps[skip:]: c for e_exps, c in e_terms.items() if not (skip and e_exps[0])}
    )


def _op_compatible(model: TorusModel, op: SteenrodOp) -> None:
    if op.family == "P" and model.var_degree != 2:
        raise ContractViolation(
            f"power operations are not defined on the degree-1 variables of the {model.group} model"
        )


def _raised_class(w: int, i: int, prime: int, raise_by: int) -> dict:
    """Partition-basis part of the total operation on the i-th class of a
    model of class power w (1 or 2) that raises torus degree by exactly
    raise_by, reduced mod prime.

    The class restricts to m_{(w^i)}, and each of its i factors t^w becomes
    sum_c C(w, c) t^(w + c(p-1)).  Raising n1 factors once and n2 twice
    (n2 = 0 when w = 1), with n1 + 2*n2 = raise_by, is one partition, with
    coefficient C(w, 1)^n1 = w^n1.  Squared-class models collapse t^2 to one
    variable, so their parts are halved; a part w + p - 1 is odd only at
    p = 2, where its coefficient 2^n1 vanishes.
    """
    out: dict = {}
    for n2 in range(raise_by // 2 + 1 if w == 2 else 1):
        n1 = raise_by - 2 * n2
        coeff = w**n1 % prime
        if coeff and n1 + n2 <= i:
            parts = (w + 2 * (prime - 1),) * n2 + (w + prime - 1,) * n1 + (w,) * (i - n1 - n2)
            out[tuple(part // w for part in parts)] = coeff
    return out


@lru_cache(maxsize=None)
def char_class_operation(model: TorusModel, class_name: str, op: SteenrodOp) -> Poly:
    """One operation component on a characteristic class, with rank truncation.

    Only the torus-degree raise the component needs is expanded, and it is
    re-expressed in characteristic classes in the partition basis, mod p.
    """
    _op_compatible(model, op)
    i = model.class_index(class_name)
    step = model.var_degree * (op.prime - 1)
    if op.shift % step:
        return class_algebra(model, op.prime).zero()
    mcoeffs = _raised_class(model.class_power, i, op.prime, op.shift // step)
    return _classes_from_e(model, _e_coefficients(mcoeffs, model.rank, op.prime), op.prime)


# ---------------------------------------------------------------------------
# suspension models


class SuspensionModel:
    """Cohomology of a suspension: graded classes, zero products, stable actions.

    Every model here has at most one class per degree, so an operation sends a
    class to a multiple of the class op.shift degrees higher.  `act` asks
    `coefficient(degree, op)` for that multiple only when the higher class
    exists; without a coefficient every positive component acts by zero.
    """

    def __init__(self, base: str, classes, coefficient=None):
        self.base = base
        self.classes = tuple(classes)
        self.degree = dict(self.classes)
        self.class_in = {d: name for name, d in self.classes}
        if len(self.class_in) != len(self.classes):
            raise ContractViolation(f"two classes of {base} share a degree")
        self.coefficient = coefficient

    def act(self, class_name: str, op: SteenrodOp) -> tuple:
        if op.k == 0:
            return ((1, class_name),)
        if class_name == "1":  # the unit, in degree 0
            return ()
        degree = self.degree[class_name]
        target = self.class_in.get(degree + op.shift)
        if target is None or self.coefficient is None:
            return ()
        c = self.coefficient(degree, op) % op.prime
        return ((c, target),) if c else ()


def suspended_coefficient(model: TorusModel, class_name: str, op: SteenrodOp, target: str) -> int:
    """Coefficient of the class `target` alone in one operation component.

    The cohomology suspension kills decomposables, so this linear coefficient
    is all of the component that survives on a suspension.  Modulo
    decomposables e_N pairs with the power sum p_N, so m_lambda contributes
    (-1)^(N-l) N (l-1)! / prod_v mult_v!, l = len(lambda): the h_lambda
    coefficient of p_N (Macdonald, Symmetric Functions, I.2 and I.4), an
    integer that does not depend on the rank.  No elimination is run.
    """
    _op_compatible(model, op)
    i, n = model.class_index(class_name), model.class_index(target)
    if model.class_degree(n) != model.class_degree(i) + op.shift:
        return 0
    return _linear_coefficient(model.class_power, i, n, op.prime, op.shift // (model.var_degree * (op.prime - 1)))


@lru_cache(maxsize=None)
def _linear_coefficient(w: int, i: int, n: int, prime: int, raise_by: int) -> int:
    """The power-sum pairing of `suspended_coefficient`, read once per process.

    It depends on the model only through its class power w, so every model
    and operation with the same raise shares one read.
    """
    total = 0
    for lam, c in _raised_class(w, i, prime, raise_by).items():
        pairing = n * math.factorial(len(lam) - 1) // math.prod(map(math.factorial, Counter(lam).values()))
        total += (-1) ** (n - len(lam)) * c * pairing
    return total % prime


_WU_CITE = "Wu formula computed by the splitting principle"
# group -> B<group>(rank), described once: its name; the suspension mapping to it, which pulls class i back to
# its class named by i + shift, in the same degree; the citations of an operation on its classes and of that pullback
CLASSIFYING = {
    "so": dict(
        space="BSO", source="Sigma RP^{}", source_class="su{}", shift=-1, action_cite=f"{_WU_CITE} in BSO(n)",
        pullback_cite="reflection-map restriction g*(w_i) = Sigma u^{i-1} (Whitehead)",
    ),
    "sp": dict(
        space="BSp", source="Sigma Q_{}", source_class="sx{}", shift=0, action_cite=f"mod-p {_WU_CITE} in BSp(n)",
        pullback_cite="quasi-projective restriction g*(q_i) = Sigma x_i (James)",
    ),
}


@lru_cache(maxsize=None)
def suspension_of(model: TorusModel) -> SuspensionModel:
    """The suspension detecting each class of the model in its degree.

    It acts by the linear coefficients `suspended_coefficient` reads in the model.
    """
    entry = CLASSIFYING[model.group]
    by_degree = {model.class_degree(model.class_index(c)): c for c in model.class_names()}

    def coefficient(degree: int, op: SteenrodOp) -> int:
        return suspended_coefficient(model, by_degree[degree], op, by_degree[degree + op.shift])

    classes = [(entry["source_class"].format(model.class_index(c) + entry["shift"]), d) for d, c in by_degree.items()]
    return SuspensionModel(entry["source"].format(model.rank + entry["shift"]), classes, coefficient)


def suspension_rp(m: int) -> SuspensionModel:
    """Sigma RP^m, the source of BSO(m+1)."""
    return suspension_of(torus_model("so", m + 1))


def suspension_quasi_projective(m: int) -> SuspensionModel:
    """Sigma Q_m, the source of BSp(m)."""
    return suspension_of(torus_model("sp", m))


@lru_cache(maxsize=None)
def suspension_sphere(k: int) -> SuspensionModel:
    return SuspensionModel(f"S^{k}", [(f"s{k}", k)])


def suspension_moore() -> SuspensionModel:
    """Sigma RP^2 = S^2 cup_2 e^3, acting as the source of BSO(3) does: Sq^1 u2 = u3 is the only action."""
    return SuspensionModel("S^2 cup_2 e^3", [("u2", 2), ("u3", 3)], suspension_of(torus_model("so", 3)).coefficient)


def product_slice_vanishes(
    model_a: SuspensionModel, model_b: SuspensionModel, op: SteenrodOp, degree: int
) -> tuple:
    """Check theta = 0 on the full degree slice of a product of suspensions.

    Returns (basis, violations): basis is the Kunneth basis of the slice, and
    violations lists (element, nonzero image terms) after Cartan expansion.
    Each factor runs over the unit "1" and the model's classes; the degree is
    positive, so 1(x)1 never enters the basis.
    """
    unit = (("1", 0),)
    basis = [
        (na, nb) for na, da in unit + model_a.classes for nb, db in unit + model_b.classes if da + db == degree
    ]
    p = op.prime
    components = _components(op)
    violations = []
    for na, nb in basis:
        acc: dict = {}
        for j in range(op.k + 1):
            left = model_a.act(na, components[j])
            right = model_b.act(nb, components[op.k - j])
            for c1, n1 in left:
                for c2, n2 in right:
                    key = (n1, n2)
                    acc[key] = (acc.get(key, 0) + c1 * c2) % p
        nonzero = {k: v for k, v in acc.items() if v}
        if nonzero:
            violations.append(((na, nb), nonzero))
    return basis, violations


@lru_cache(maxsize=None)
def _components(op: SteenrodOp) -> tuple:
    """The components of op's Cartan formula, op's family at degrees 0..k, built once per op."""
    return tuple(SteenrodOp(op.family, j, op.prime) for j in range(op.k + 1))


# ---------------------------------------------------------------------------
# the six-condition criterion


@record
class SteenrodCriterionInstance:
    """Everything the six-condition Whitehead-product check consumes.

    a is detected by the first map, out of source_a, and b by the second, out of
    source_b; each map pulls a generator back to its source's class of the same
    degree or to zero, read off the source.  The operation fixes the prime.
    """

    space: str
    presentation: Presentation
    action: Callable  # () -> theta, the operation on x over the presentation's algebra, of degree |x| + shift
    action_provenance: str
    action_citation: str
    op: SteenrodOp
    a: str
    b: str
    x: str
    source_a: SuspensionModel
    source_b: SuspensionModel
    pullback_citation: str = ""
    crosscheck: ClassifyingCrossCheck | None = None  # recomputes a recorded action once the instance certifies

    @property
    def label(self) -> str:
        return f"Steenrod {self.op.label} on {self.space}"


@record
class ClassifyingCrossCheck:
    """Recompute a recorded space-level action from the classifying space."""

    model: TorusModel
    class_name: str
    pullback: dict  # classifying class name -> space Poly (recorded images)
    citation: str = ""


def _gen_degree(pres: Presentation, name: str) -> int:
    return pres.algebra.generators[pres.algebra.index[name]].degree


def restrict(poly: Poly, images: dict, target: Presentation) -> tuple:
    """Push a class-algebra polynomial through a restriction table.

    `images` maps class names to polynomials on the target.  Returns the image
    of the terms whose classes all restrict, and the texts of the terms with a
    class that does not; a class of a degree in which the target is zero
    restricts to zero whether or not its image is recorded.
    """
    alg, zero = poly.algebra, target.algebra.zero()
    image, unresolved = zero, []
    for exps, coeff in sorted(poly.terms.items()):
        term = target.algebra.unit().scale(coeff)
        for gen, e in zip(alg.generators, exps):
            if not e:
                continue
            img = images.get(gen.name)
            if img is None and graded_dimension(target, gen.degree) == 0:
                img = zero
            if img is None:
                text = monomial_text(alg, exps)
                unresolved.append(text if coeff == 1 else f"{coeff}*{text}")
                break
            for _ in range(e):
                term = term * img
        else:
            image = image + term
    return image, unresolved


def crosscheck(inst: SteenrodCriterionInstance, cc: ClassifyingCrossCheck, cert: Certificate):
    """Compare the recorded action against the splitting-principle computation.

    Runs on the certificate the six conditions gave `inst`.  Returns that
    certificate with the cross-check entries appended, or a refusal when every
    computed term restricts and the image still differs from the recorded
    action.  With terms surfaced unresolved a difference is inconclusive.
    It calls `inst.action` again: a step with a cross-check records its
    action, so the call returns that record and derives nothing.
    """
    theta = inst.action()
    computed = char_class_operation(cc.model, cc.class_name, inst.op)
    resolved, surfaced = restrict(computed, cc.pullback, inst.presentation)
    t = Transcript(cert.space, cert.criterion, cert.transcript).add(
        f"classifying-space cross-check: {inst.op.label} {cc.class_name} = {poly_to_text(computed)} "
        f"in the {cc.model.group}({cc.model.rank}) model",
        outcome="info",
    )
    if surfaced:
        t.add(
            "cross-check terms with unrecorded restriction images, surfaced unresolved: " + ", ".join(surfaced),
            cc.citation,
            outcome="info",
        )
    difference = (
        f"resolved image {poly_to_text(resolved)} differs from recorded action {poly_to_text(theta)}"
    )
    if resolved == theta:
        outcome, text = "pass", "resolved part of the cross-check equals the recorded action"
        text += " modulo the surfaced terms" if surfaced else ""
    elif surfaced:
        outcome, text = "info", f"cross-check discrepancy reported: {difference}; inconclusive, since the"
        text += " surfaced terms may account for it"
    else:
        outcome, text = "fail", f"cross-check contradiction: {difference}"
    t.add(text, cc.citation, outcome=outcome)
    return t.refuse(f"cross-check: {difference}") if outcome == "fail" else t.certify(cert.witness)


def check_steenrod_criterion(inst: SteenrodCriterionInstance):
    """Mechanically verify the six conditions; certificate or first refusal.

    theta comes from one call of `inst.action`, made first, so an action is
    derived only when a check runs.  Plan-level evidence runs on the
    certificate, when the catalog runs the instance: its classifying-space
    `crosscheck`, then the lift.
    """
    theta = inst.action()
    pres = inst.presentation
    da, db, dx = (_gen_degree(pres, n) for n in (inst.a, inst.b, inst.x))
    if dx + inst.op.shift != da + db:
        raise ContractViolation(
            f"degree mismatch: |theta(x)| = {dx + inst.op.shift} but |a| + |b| = {da + db}"
        )
    if theta.algebra != pres.algebra or not theta.degrees() <= {da + db}:
        raise ContractViolation(
            f"{inst.op.label} {inst.x} = {poly_to_text(theta)} is not a degree-{da + db} "
            f"class of {inst.space}"
        )
    t = Transcript(inst.space, STEENROD).add(
        f"degrees consistent: |{inst.op.label} {inst.x}| = {dx + inst.op.shift} = |{inst.a}| + |{inst.b}|"
    )

    # (1) non-zero pullbacks of a and b
    for gen, degree, source in ((inst.a, da, inst.source_a), (inst.b, db, inst.source_b)):
        if degree not in source.class_in:
            why = f"{gen} pulls back to zero on {source.base}"
            return t.refuse(f"condition (1): {why}", why)
    t.add(
        f"(1) {inst.a} restricts to {inst.source_a.class_in[da]} on {inst.source_a.base}; "
        f"{inst.b} restricts to {inst.source_b.class_in[db]} on {inst.source_b.base}",
        inst.pullback_citation,
    )

    # (2) at p = 2 the second map must kill a
    if inst.op.prime == 2:
        if da in inst.source_b.class_in:
            why = f"{inst.a} does not pull back to zero on {inst.source_b.base}"
            return t.refuse(f"condition (2): {why}", why)
        t.add(f"(2) {inst.a} restricts to zero on {inst.source_b.base}")

    # (3) equal odd-primary degrees force the diagonal instance
    if inst.op.prime != 2 and da == db:
        if not (inst.a == inst.b and inst.source_a is inst.source_b):
            why = "|a| = |b| at an odd prime requires equal sources, maps and classes"
            return t.refuse(f"condition (3): {why}", why)
        t.add("(3) |a| = |b| at an odd prime with identical sources, maps and classes")

    # (4) one-dimensional indecomposables in degree |a|
    qdim = indecomposable_dimension(pres, da)
    if qdim != 1:
        why = f"indecomposable quotient has dimension {qdim} != 1 in degree {da}"
        return t.refuse(f"condition (4): {why}", why)
    t.add(f"(4) indecomposable quotient of H^{da}({inst.space}) has dimension 1")

    # (5) theta(x) decomposable with a non-zero (a, b) coefficient
    if not is_decomposable(theta):
        why = f"{inst.op.label} {inst.x} = {poly_to_text(theta)} is not decomposable"
        return t.refuse(f"condition (5): {why}", why)
    product = pres.algebra.gen(inst.a) * pres.algebra.gen(inst.b)
    coeff = next((theta.coefficient(mono) for mono in product.terms), 0)
    if not coeff:
        why = f"{inst.op.label} {inst.x} = {poly_to_text(theta)} has no {inst.a}*{inst.b} term"
        return t.refuse(f"condition (5): {why}", why)
    t.add(
        f"(5) {inst.op.label} {inst.x} = {poly_to_text(theta)} is decomposable and the "
        f"{inst.a}*{inst.b} coefficient is {coeff}",
        inst.action_citation,
        MACHINE if inst.action_provenance == "derived" else ASSERTED,
    )

    # (6) theta kills the whole degree-|x| slice of the product of suspensions
    basis, violations = product_slice_vanishes(inst.source_a, inst.source_b, inst.op, dx)
    product_text = f"{inst.source_a.base} x {inst.source_b.base}"
    if violations:
        (ca, cb), img = violations[0]
        img_text = ", ".join(f"{v}*{m}(x){n}" for (m, n), v in sorted(img.items()))
        return t.refuse(
            f"condition (6): {inst.op.label} does not vanish on H^{dx} of {product_text} (element {ca}(x){cb})",
            f"(6) {inst.op.label}({ca}(x){cb}) = {img_text} != 0 in H^*({product_text})",
        )
    basis_text = ", ".join(f"{a}(x){b}" for a, b in basis) or "(empty)"
    t.add(
        f"(6) {inst.op.label} vanishes on the degree-{dx} slice of H^*({product_text}); "
        f"Kunneth basis: {basis_text}"
    )

    return t.certify((
        ("operation", inst.op.label),
        ("x", inst.x),
        ("a", f"{inst.a} detected on {inst.source_a.base}"),
        ("b", f"{inst.b} detected on {inst.source_b.base}"),
        ("product", f"[{inst.source_a.base} -> {inst.space}, {inst.source_b.base} -> {inst.space}] != 0"),
    ))
