"""Certificates, the odd-generator projective-plane criterion, and conclusions.

Every check produces either a Certificate (with a transcript of verified
preconditions) or a Refusal naming exactly one failed hypothesis.  A refusal
is never evidence of homotopy commutativity; criteria here are one-sided.
A check records its evidence in a `Transcript`, one `add` per step, and ends
it with `certify` or `refuse`: no other module builds an entry or a result.
Each result states its `conclusion` and renders itself as `check` prints it:
`to_dict()` in the structured format, `render()` in text.
"""

from __future__ import annotations

from .gradedalg import ContractViolation, Presentation, record

MACHINE = "machine-verified"
ASSERTED = "literature-asserted"

RATIONAL = "Rational"
STEENROD = "Steenrod"
PROJECTIVE = "PartialProjectivePlane"
RECORDED = "RecordedExternal"


class DataIncomplete(ValueError):
    """Catalog data required by a check is missing."""


@record
class TranscriptEntry:
    status: str  # MACHINE | ASSERTED
    outcome: str  # "pass" | "fail" | "info"
    description: str
    citation: str = ""

    def render(self) -> str:
        cite = f" ({self.citation})" if self.citation else ""
        return f"[{self.status}] {self.outcome}: {self.description}{cite}"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "outcome": self.outcome,
            "description": self.description,
            "citation": self.citation,
        }


@record
class Certificate:
    space: str
    criterion: str  # RATIONAL | STEENROD | PROJECTIVE | RECORDED
    witness: tuple  # ordered (key, value) pairs
    transcript: tuple  # TranscriptEntry, ...

    exception_note = ""  # only a refusal carries one

    def __post_init__(self):
        for e in self.transcript:
            if e.status not in (MACHINE, ASSERTED):
                raise ValueError(f"bad transcript status {e.status!r}")
            if e.outcome == "fail":
                raise ValueError(f"a certificate cannot carry a failed entry: {e.description}")
        if self.criterion != RECORDED and not any(
            e.status == MACHINE for e in self.transcript
        ):
            raise ValueError("non-recorded certificates need a machine-verified entry")

    @property
    def conclusion(self) -> str:
        return f"Omega({self.space}) is not homotopy commutative"

    def witness_text(self) -> str:
        return "; ".join(f"{k}={v}" for k, v in self.witness)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "certificate",
            "space": self.space,
            "criterion": self.criterion,
            "witness": [[k, v] for k, v in self.witness],
            "conclusion": self.conclusion,
            "transcript": [e.to_dict() for e in self.transcript],
        }

    def render(self) -> str:
        lines = ["certificate", f"space: {self.space}", f"criterion: {self.criterion}", "witness:"]
        lines += [f"  {k} = {v}" for k, v in self.witness]
        lines += ["transcript:", *_numbered(self.transcript), f"conclusion: {self.conclusion}"]
        return "\n".join(lines) + "\n"


@record
class Refusal:
    space: str
    criterion: str
    failed: str  # the one failed hypothesis
    transcript: tuple = ()
    exception_note: str = ""

    conclusion = "no conclusion from the implemented criteria"

    def witness_text(self) -> str:
        return "-"

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "refusal",
            "space": self.space,
            "criterion": self.criterion,
            "failed": self.failed,
            "exception_note": self.exception_note,
            "conclusion": self.conclusion,
            "transcript": [e.to_dict() for e in self.transcript],
        }

    def render(self) -> str:
        lines = ["no conclusion", f"space: {self.space}", f"criterion attempted: {self.criterion}"]
        lines.append(f"failed: {self.failed}")
        if self.transcript:
            lines += ["transcript:", *_numbered(self.transcript)]
        if self.exception_note:
            lines.append(f"exception: {self.exception_note}")
        lines.append(f"conclusion: {self.conclusion}")
        return "\n".join(lines) + "\n"


def _numbered(transcript: tuple) -> list:
    return [f"  {i}. {e.render()}" for i, e in enumerate(transcript, start=1)]


class Transcript:
    """The evidence of one check on `space`, recorded entry by entry, and the result it comes to.

    `space` may be set before `certify`: a transferred certificate is on the
    transfer's target.
    """

    def __init__(self, space: str, criterion: str, entries: tuple = ()):
        self.space, self.criterion, self.entries = space, criterion, tuple(entries)

    def add(self, description: str, citation: str = "", status: str = MACHINE, outcome: str = "pass"):
        self.entries += (TranscriptEntry(status, outcome, description, citation),)
        return self

    def refuse(self, failed: str, entry: str = "") -> Refusal:
        """A refusal naming the failed hypothesis; `entry`, when given, is first recorded as a failed step."""
        if entry:
            self.add(entry, outcome="fail")
        return Refusal(self.space, self.criterion, failed, self.entries)

    def certify(self, witness: tuple) -> Certificate:
        return Certificate(self.space, self.criterion, witness, self.entries)


def conclude_noncommutative(cert: Certificate) -> Certificate:
    """The certificate with the Whitehead-Samelson adjunction entry that its `conclusion` rests on."""
    if not isinstance(cert, Certificate):
        raise ContractViolation("conclude_noncommutative requires a certificate, not a refusal")
    return Transcript(cert.space, cert.criterion, cert.transcript).add(
        "a non-trivial Whitehead product adjoins to a non-trivial Samelson product in the loop space, "
        "so the loop space multiplication is not homotopy commutative",
        "Whitehead-Samelson adjunction",
        ASSERTED,
    ).certify(cert.witness)


# ---------------------------------------------------------------------------
# total Steenrod square tables on odd-generated mod-2 rings


@record
class ExteriorActionData:
    """A mod-2 presentation together with a total-Sq table on its generators."""

    presentation: Presentation
    sq_table: dict  # generator name -> Poly (total square)
    citation: str = ""

    def __post_init__(self):
        if self.presentation.field.characteristic != 2:
            raise ContractViolation("total-Sq tables live over F2")


@record
class GeneratingMapWitness:
    """A recorded generating map from a suspension onto the indecomposables."""

    source: str  # e.g. "Sigma HP^2"
    base: str  # the B with source = Sigma B
    target: str
    cell_degrees: tuple
    citation: str


def total_square_violations(alg, name: str, total) -> list:
    """What keeps `total` from being the total square of generator `name`: unit, instability and top square."""
    degree, g = alg.degrees[alg.index[name]], alg.gen(name)
    violations = []
    if total.degree_component(degree) != g:
        violations.append(f"Sq^0 component of Sq {name} is not {name}")
    for d in sorted(total.degrees()):
        if d < degree or d > 2 * degree:
            violations.append(f"Sq {name} has a component of degree {d} outside {degree}..{2 * degree}")
    if total.degree_component(2 * degree) != g * g:
        violations.append(f"top component of Sq {name} differs from {name}^2")
    return violations


def validate_sq_action(data: ExteriorActionData) -> list:
    """Instability and unit checks on a total-Sq table; violations are data."""
    violations = []
    for g in data.presentation.generators:
        total = data.sq_table.get(g.name)
        if total is None:
            violations.append(f"no table entry for {g.name}")
        else:
            violations += total_square_violations(data.presentation.algebra, g.name, total)
    return violations


def check_sq_linearity(data: ExteriorActionData) -> bool:
    """Whether every table value is a linear combination of generators."""
    return all(
        all(wl <= 1 for wl in poly.word_lengths())
        for poly in data.sq_table.values()
    )


def _is_power_of_two_minus_one(d: int) -> bool:
    return d >= 1 and ((d + 1) & d) == 0


def check_partial_projective_criterion(
    data: ExteriorActionData, g: GeneratingMapWitness
):
    """Certify [g,g] != 0 for a generating map out of a suspension.

    Hypotheses: odd generators only, linear total squares, suspension source,
    and minimal generator degree not of the form 2^k - 1.
    """
    t = Transcript(g.target, PROJECTIVE)
    gens = data.presentation.generators
    violations = validate_sq_action(data)
    if violations:
        return t.refuse(f"invalid total-square table: {violations[0]}")
    t.add("total-square table is unital, instability-bounded, and square-consistent")
    if not gens:
        return t.refuse("presentation has no generators")
    odd = [g_.degree % 2 == 1 for g_ in gens]
    if not all(odd):
        bad = gens[odd.index(False)]
        return t.refuse(f"generator {bad.name} has even degree {bad.degree}")
    t.add("all generators have odd degree")
    if not check_sq_linearity(data):
        return t.refuse("a total square has a decomposable component")
    t.add("every total square is a linear combination of the generators", data.citation)
    if sorted(g.cell_degrees) != sorted(g_.degree for g_ in gens):
        return t.refuse("generating map record inconsistent with generator degrees")
    t.add(f"source cell degrees {tuple(sorted(g.cell_degrees))} match the indecomposables")
    t.add(f"{g.source} -> {g.target} is a generating map from a suspension of {g.base}", g.citation, ASSERTED)
    mindeg = min(g_.degree for g_ in gens)
    if _is_power_of_two_minus_one(mindeg):
        return t.refuse(f"minimal generator degree {mindeg} = 2^k - 1")
    t.add(f"minimal generator degree {mindeg} is not of the form 2^k - 1")
    t.add(
        "a trivial [g,g] would extend g+g over the product and force a square-closed "
        "truncated polynomial ring on a class of non-2-power degree, which is impossible",
        "Toda: truncated polynomial rings admitting total squares; partial projective plane of the extension",
        ASSERTED,
    )
    return t.certify((
        ("kind", "self Whitehead product of a generating map"),
        ("map", f"{g.source} -> {g.target}"),
        ("min_degree", str(mindeg)),
        ("generators", ", ".join(g_.name for g_ in gens)),
    ))
