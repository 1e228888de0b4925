"""Formal minimal models of even complete intersections and rational witnesses.

A truncated polynomial ring Q[x_1..x_n]/(rho_1..rho_n) with decomposable
relations is formal, and its minimal model is Lambda(x_i, y_i) with dx_i = 0
and dy_i = rho_i.  A quadratic monomial y*z inside some differential certifies
a non-trivial rational Whitehead pairing on homotopy in degrees (|y|, |z|).
"""

from __future__ import annotations

from .gradedalg import (
    Algebra,
    ContractViolation,
    Generator,
    HypothesisViolation,
    Poly,
    Presentation,
    UnsupportedPresentation,
    check_even_hypotheses,
    is_complete_intersection,
    is_decomposable,
    poly_to_text,
    record,
)


class SullivanModel:
    """Free graded-commutative algebra with a degree +1 differential.

    `differential` maps each generator name to a Poly over the model's own
    algebra; generators in `partial` carry only the certified part of their
    differential.  `origin` maps a generator to the index of the relation it
    came from, when built from a presentation.
    """

    def __init__(self, algebra: Algebra, differential: dict, partial=(), origin=None):
        if algebra.field.characteristic != 0:
            raise HypothesisViolation("Sullivan models are taken over the rationals")
        self.algebra = algebra
        self.differential = {g.name: differential.get(g.name, algebra.zero()) for g in algebra.generators}
        self.partial = frozenset(partial)
        self.origin = dict(origin or {})
        for g in algebra.generators:
            dg = self.differential[g.name]
            if dg.algebra != algebra:
                raise ContractViolation(f"differential of {g.name} lives in a different algebra")
            if dg and dg.homogeneous_degree() != g.degree + 1:
                raise ContractViolation(
                    f"differential of {g.name} has degree {dg.homogeneous_degree()}, expected {g.degree + 1}"
                )

    @property
    def generators(self):
        return self.algebra.generators


def derivation(model: SullivanModel, p: Poly) -> Poly:
    """Extend the differential to a degree +1 derivation with Koszul signs."""
    alg = model.algebra
    n = len(alg.generators)
    out = alg.zero()
    for exps, coeff in p.terms.items():
        for i in range(n):
            e = exps[i]
            if e == 0:
                continue
            dg = model.differential[alg.generators[i].name]
            if dg.is_zero:
                continue
            prefix_degree = sum(exps[j] * alg.degrees[j] for j in range(i))
            sign = -1 if prefix_degree % 2 else 1
            prefix = alg.monomial(tuple(exps[:i]) + (0,) * (n - i), coeff * e * sign)
            rest = (0,) * i + (e - 1,) + tuple(exps[i + 1 :])
            out = out + prefix * dg * alg.monomial(rest)
    return out


def build_formal_model(pres: Presentation) -> SullivanModel:
    """Minimal model of an even complete intersection: dx_i = 0, dy_i = rho_i."""
    if pres.field.characteristic != 0:
        raise HypothesisViolation("formal model construction requires rational coefficients")
    low = next((rel for rel in pres.relations if rel.degree < 2), None)
    if low is not None:
        raise HypothesisViolation(
            f"relation of degree {low.degree} is below 2: its model generator would have degree {low.degree - 1}"
        )
    if not pres.all_explicit:
        check_even_hypotheses(pres)
    elif not is_complete_intersection(pres):
        raise HypothesisViolation("relations do not form a complete intersection")

    used = {g.name for g in pres.generators}
    model_gens = list(pres.generators)
    y_names = []
    for rel in pres.relations:
        name = f"y{rel.degree - 1}"
        while name in used:
            name += "_"
        used.add(name)
        y_names.append(name)
        model_gens.append(Generator(name, rel.degree - 1, squares_to_zero=True))

    alg = Algebra(pres.field, model_gens)
    pad = len(pres.relations)

    def embed(p: Poly) -> Poly:
        return Poly(alg, {exps + (0,) * pad: c for exps, c in p.terms.items()})

    differential = {g.name: alg.zero() for g in pres.generators}
    partial = []
    origin = {}
    for k, rel in enumerate(pres.relations):
        differential[y_names[k]] = embed(rel.terms)
        origin[y_names[k]] = k
        if not rel.explicit:
            partial.append(y_names[k])
    return SullivanModel(alg, differential, partial=partial, origin=origin)


def check_d_squared(model: SullivanModel) -> bool:
    """Whether the derivation extension of d squares to zero on every generator."""
    if model.partial:
        raise UnsupportedPresentation("check_d_squared requires explicit differentials")
    return certified_parts_are_cocycles(model)


def certified_parts_are_cocycles(model: SullivanModel) -> bool:
    """d of every stored differential (including certified parts) vanishes."""
    return all(
        derivation(model, model.differential[g.name]).is_zero for g in model.generators
    )


@record
class RationalWitness:
    """A non-trivial rational Whitehead pairing witness.

    `pair` are model generators (y, z) whose product appears in a differential;
    the pairing lives on rational homotopy in degrees (m, n) = (|y|, |z|) with
    target degree m + n - 1.
    """

    m: int
    n: int
    target: int
    relation_index: int
    pair: tuple

    def __post_init__(self):
        if self.target != self.m + self.n - 1:
            raise ContractViolation("witness target degree must be m + n - 1")


def find_rational_witness(model: SullivanModel) -> RationalWitness | None:
    """First decomposable differential with a quadratic monomial, if any.

    Tie-break: generators in declaration order, then the quadratic pair with
    the lexicographically smallest (i, j) index pair.  The relation index is
    read from `model.origin`, which `build_formal_model` fills.  The witness
    names no space: the catalog's Rational step attributes it, and transfers
    it along a recorded fibration when its degrees clear the threshold.
    """
    alg = model.algebra
    for g in alg.generators:
        dg = model.differential[g.name]
        if dg.is_zero:
            continue
        if g.name not in model.partial and not is_decomposable(dg):
            continue
        quads = sorted(
            (
                tuple(i for i, e in enumerate(exps) for _ in range(e))
                for exps in dg.terms
                if sum(exps) == 2
            )
        )
        if not quads:
            continue
        i, j = quads[0]
        y, z = alg.generators[i], alg.generators[j]
        return RationalWitness(
            m=y.degree,
            n=z.degree,
            target=y.degree + z.degree - 1,
            relation_index=model.origin[g.name],
            pair=(y.name, z.name),
        )
    return None


# ---------------------------------------------------------------------------
# text form


def _differential_text(model: SullivanModel, g: Generator) -> str:
    body = poly_to_text(model.differential[g.name])
    return f"d {g.name} = {body} + …" if g.name in model.partial else f"d {g.name} = {body}"


def print_model(model: SullivanModel) -> str:
    gens = ", ".join(f"{g.name}:{g.degree}" for g in model.generators)
    return "\n".join([f"Λ({gens})"] + [_differential_text(model, g) for g in model.generators]) + "\n"


def pretty_model(model: SullivanModel) -> str:
    gens = ", ".join(g.name for g in model.generators)
    ds = [
        _differential_text(model, g)
        for g in model.generators
        if model.differential[g.name] or g.name in model.partial
    ]
    return f"Λ({gens}); " + "; ".join(ds) if ds else f"Λ({gens})"
