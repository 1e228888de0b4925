"""The classification table as data: space families, criterion routing, reports.

`FAMILIES` is the table: one row per irreducible symmetric space family with
its parameters, its report range and the plan builder that assembles an
ordered plan of criterion checks for an instance.  Running a plan yields a
Certificate with a full transcript, or a Refusal; the report generator runs
the desk-scale ranges over the whole table.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

from .criteria import (
    ASSERTED,
    MACHINE,
    RATIONAL,
    RECORDED,
    STEENROD,
    Certificate,
    DataIncomplete,
    ExteriorActionData,
    GeneratingMapWitness,
    Refusal,
    TranscriptEntry,
    check_partial_projective_criterion,
    conclude_noncommutative,
)
from .gradedalg import (
    Algebra,
    FieldSpec,
    Generator,
    HypothesisViolation,
    Presentation,
    Relation,
    parse_poly,
    parse_presentation,
    poly_to_text,
    record,
    replace,
)
from .steenrod import (
    ClassifyingCrossCheck,
    SteenrodCriterionInstance,
    SteenrodOp,
    char_class_operation,
    check_steenrod_criterion,
    class_algebra,
    crosscheck,
    restrict,
    suspended_coefficient,
    suspension_moore,
    suspension_of,
    suspension_quasi_projective,  # unused here, but bound for the perfbench/bench_trace.py spans
    suspension_rp,  # likewise
    suspension_sphere,
    torus_model,
)
from .sullivan import (
    build_formal_model,
    certified_parts_are_cocycles,
    find_rational_witness,
    pretty_model,
)


class ParameterError(ValueError):
    """Parameters violate the classification-table constraints."""


class CatalogDataError(ValueError):
    """Malformed catalog data file."""


DATA_ENV = "LOOPCOMM_DATA_DIR"


# ---------------------------------------------------------------------------
# catalog data files

_REQUIRED_KEYS = {  # every key of a kind is required, once, and no other key is allowed
    "presentation": {"space", "file", "cite"},
    "fibration": {"space", "aux", "aux-label", "threshold", "cite"},
    "pullback": {"space", "model", "class", "value", "cite"},
    "action": {"space", "gen", "family", "k", "prime", "value", "cite"},
    "generating-map": {"space", "cite"},
    "sq-table": {"space", "gen", "value", "cite"},
    "external": {"family", "cite"},
    "exception": {"space", "cite"},
}
_INTEGER_KEYS = ("threshold", "k", "prime")  # loaded as int


# one piece of a facts.txt word, or the blank or comment between words
_PIECE = re.compile(
    r"""(?P<blank>[ \t\r\n]+) | (?P<comment>\#[^\n]*) | (?P<plain>[^ \t\r\n"'\\#]+)
    | \\(?P<escaped>.) | "(?P<double>(?:[^"\\]|\\.)*)" | '(?P<single>[^']*)'""",
    re.S | re.X,
)
_QUOTED_ESCAPE = re.compile(r'\\([\\"])')
_DOUBLE_BODY = re.compile(r'(?:[^"\\]|\\.)*', re.S)


def _shell_words(line: str) -> list:
    """The words of a line, split as `shlex.split(line, comments=True)` splits them.

    POSIX shell rules: blanks separate words; a backslash outside quotes
    takes the next character literally; single quotes are literal; inside
    double quotes a backslash escapes only `"` and itself; a `#` outside
    quotes, even inside a word, ends the word and the line.  Unclosed quotes
    and a trailing backslash raise ValueError with shlex's messages.
    """
    words, word, pos = [], None, 0
    while pos < len(line):
        m = _PIECE.match(line, pos)
        if m is None:  # an unclosed quote, or a backslash with nothing after it
            open_escape = line[pos] == "\\" or (
                line[pos] == '"' and _DOUBLE_BODY.match(line, pos + 1).end() < len(line)
            )
            raise ValueError("No escaped character" if open_escape else "No closing quotation")
        pos, kind = m.end(), m.lastgroup
        if kind in ("blank", "comment"):
            if word is not None:
                words.append(word)
            word = None
            continue
        piece = m.group(kind)
        word = (word or "") + (_QUOTED_ESCAPE.sub(r"\1", piece) if kind == "double" else piece)
    if word is not None:
        words.append(word)
    return words


def _fact_record(line: str) -> Optional[tuple]:
    """(kind, {key: value}) of one facts.txt record; `value` stays text, the integer keys are ints.

    A `#` outside quotes starts a comment; a blank or comment-only line is None.
    """
    words = _shell_words(line)
    if not words:
        return None
    kind, *words = words
    if kind not in _REQUIRED_KEYS:
        raise ValueError(f"unknown record kind {kind!r}")
    keys = _REQUIRED_KEYS[kind]
    rec = {}
    for w in words:
        k, sep, v = w.partition("=")
        if not sep or not k:
            raise ValueError(f"bad key=value token {w!r}")
        if k not in keys:
            raise ValueError(f"{kind} record has unknown key {k!r}")
        if k in rec:
            raise ValueError(f"repeated key {k!r}")
        rec[k] = v
    missing = keys - set(rec)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)}")
    for name in _INTEGER_KEYS:
        if name in rec:
            if not (rec[name].isascii() and rec[name].isdigit()):
                raise ValueError(f"{name}={rec[name]!r} is not an integer")
            rec[name] = int(rec[name])
    return kind, rec


class DataSet:
    """Parsed catalog data: presentations plus tagged fact records."""

    def __init__(self, presentations: dict, facts: list):
        self.presentations = presentations  # space -> (Presentation, citation)
        self.facts = facts  # list of (kind, dict)

    def presentation(self, space: str) -> Presentation:
        return self.presentations[space][0]

    def presentation_cite(self, space: str) -> str:
        return self.presentations[space][1]

    def find(self, kind: str, **match) -> list:
        out = []
        for k, rec in self.facts:
            if k == kind and all(rec.get(key) == val for key, val in match.items()):
                out.append(rec)
        return out

    def one(self, kind: str, **match) -> dict:
        recs = self.find(kind, **match)
        if len(recs) != 1:
            raise CatalogDataError(f"expected one {kind} record matching {match}, found {len(recs)}")
        return recs[0]


_DATASET_CACHE: dict = {}


def load_dataset() -> DataSet:
    """Load and validate the embedded catalog data (env override honored).

    Every `value=` is parsed once, as a polynomial over the presentation of
    the record's space, after all presentations are loaded.
    """
    key = os.environ.get(DATA_ENV, "")
    if key in _DATASET_CACHE:
        return _DATASET_CACHE[key]
    root = Path(key) if key else Path(__file__).parent / "data"
    facts = []
    valued = []  # (lineno, record) of the records with a value
    presentations = {}
    text = (root / "facts.txt").read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            parsed = _fact_record(line)
        except ValueError as exc:
            raise CatalogDataError(f"facts.txt line {lineno}: {exc}") from exc
        if parsed is None:
            continue
        kind, rec = parsed
        facts.append((kind, rec))
        if "value" in rec:
            valued.append((lineno, rec))
        if kind == "presentation":
            try:
                body = (root / "presentations" / rec["file"]).read_text(encoding="utf-8")
            except OSError as exc:
                raise CatalogDataError(f"facts.txt line {lineno}: {exc}") from exc
            try:
                presentations[rec["space"]] = (parse_presentation(body), rec["cite"])
            except ValueError as exc:
                raise CatalogDataError(f"{rec['file']}: {exc}") from exc
    for lineno, rec in valued:
        try:
            if rec["space"] not in presentations:
                raise ValueError(f"no presentation record for space {rec['space']!r}")
            rec["value"] = parse_poly(rec["value"], presentations[rec["space"]][0].algebra)
        except ValueError as exc:
            raise CatalogDataError(f"facts.txt line {lineno}: {exc}") from exc
    ds = DataSet(presentations, facts)
    _DATASET_CACHE[key] = ds
    return ds


# ---------------------------------------------------------------------------
# instances and plans


@record
class SpaceInstance:
    family: str
    params: tuple
    label: str


@record
class TransferStep:
    threshold: int
    target: str
    citation: str


@record
class LiftStep:
    """Carry the certificate on the classifying space B<group>(rank) up to `target`.

    The classifying map target -> B<group>(rank) is a threshold-equivalence,
    so both maps of a source of dimension at most threshold lift.
    """

    group: str  # "so" | "sp"
    rank: int
    target: str
    threshold: int
    source_dim: int
    citation: str
    label = "Lift"


@record
class RationalStep:
    space: str
    presentation: Presentation
    citation: str
    transfer: Optional[TransferStep] = None
    label = "Rational"


@record
class SteenrodStep:
    instance: SteenrodCriterionInstance
    crosscheck: Optional[ClassifyingCrossCheck] = None

    @property
    def label(self) -> str:
        return f"Steenrod {self.instance.op.label} on {self.instance.space}"


@record
class ProjectiveStep:
    data: ExteriorActionData
    witness: GeneratingMapWitness
    label = "PartialProjectivePlane"


@record
class RecordedStep:
    space: str
    statement: str
    citation: str
    label = "RecordedExternal"


@record
class CriterionPlan:
    steps: tuple
    exception_note: str = ""


def family(family_id: str) -> "Family":
    """The classification-table row of a family id."""
    row = _BY_ID.get(family_id)
    if row is None:
        valid = ", ".join(f.id for f in FAMILIES)
        raise ParameterError(f"unknown family {family_id!r}; valid ids: {valid}")
    return row


def instantiate(family_id: str, params=()) -> SpaceInstance:
    """Validate parameters against the classification table and normalize them."""
    fam = family(family_id)
    params = tuple(int(p) for p in params)
    if len(params) != fam.arity:
        raise ParameterError(
            f"{fam.id} takes {fam.arity} parameter(s)" + (f" ({fam.constraint})" if fam.arity else "")
        )
    if any(p < fam.least for p in params):
        raise ParameterError(f"{fam.id} requires {fam.constraint}")
    params = tuple(fam.normalize(params))
    label = fam.id if not params else f"{fam.id}({','.join(str(p) for p in params)})"
    return SpaceInstance(fam.id, params, label)


def route(instance: SpaceInstance) -> CriterionPlan:
    """Assemble the ordered plan of criterion invocations for an instance."""
    return family(instance.family).plan(load_dataset(), instance)


# -- plan builders: (DataSet, SpaceInstance) -> CriterionPlan, run when an instance is checked


def _cp_presentation(N: int, prime: int = 0) -> Presentation:
    alg = Algebra(FieldSpec(prime), [Generator("x2", 2)])
    return Presentation(alg, (Relation(2 * (N + 1), "explicit", alg.monomial((N + 1,))),))


def _cp_mod2_data(N: int) -> ExteriorActionData:
    pres = _cp_presentation(N, 2)
    x2 = pres.algebra.gen("x2")
    return ExteriorActionData(pres, {"x2": x2 + x2 * x2}, citation="total square of the projective-space generator")


def _top_class_ops(model) -> list:
    """(op, b) per step on the top class of BSO(n) or BSp(n), all at one prime; b indexes the class b.

    BSO(n): Sq^2 or Sq^3 by n mod 4, then Sq^b for each power of two 4 <= b < n.
    BSp(n): P^1 with b = (p-1)/2, p the smallest odd prime dividing n; Sq^4
    with b = 1 if n is a power of 2.  At n = 1 condition (2) forbids the mod-2
    instance (a = b), and the diagonal one at p = 3 meets condition (3).
    """
    n = model.rank
    if model.group == "so":
        powers = [2**j for j in range(2, (n - 1).bit_length())]
        return [(SteenrodOp("Sq", b, 2), b) for b in [2 if n % 4 in (0, 3) else 3] + powers]
    p = _smallest_odd_prime_divisor(n)
    if p is None and n >= 2:
        return [(SteenrodOp("Sq", 4, 2), 1)]
    p = p or 3
    return [(SteenrodOp("P", 1, p), (p - 1) // 2)]


_WU_CITE = "Wu formula computed by the splitting principle"
# group -> (classifying space, action citation, pullback citation)
_CLASSIFYING = {
    "so": ("BSO", _WU_CITE + " in BSO(n)", "reflection-map restriction g*(w_i) = Sigma u^{i-1} (Whitehead)"),
    "sp": ("BSp", "mod-p " + _WU_CITE + " in BSp(n)", "quasi-projective restriction g*(q_i) = Sigma x_i (James)"),
}


def _top_class_steps(model, space: str, prefix: str, pres: Optional[Presentation] = None, restriction="") -> tuple:
    """One Steenrod step per `_top_class_ops(model)`, x = a = the top class.

    theta is the op on the top class, carried along class i -> <prefix>i to
    `pres` (by default the class algebra at the ops' prime).  The sources come
    from `suspension_of`, and a generator pulls back to its source's class of
    the same degree, or to zero.
    """
    _, action_citation, pullback_citation = _CLASSIFYING[model.group]
    ops = _top_class_ops(model)
    pres = pres or Presentation(class_algebra(model, ops[0][0].prime))
    names = model.class_names()
    images = {c: pres.algebra.gen(f"{prefix}{model.class_index(c)}") for c in names}
    source_a = suspension_of(model)
    steps = []
    for op, b in ops:
        theta, _ = restrict(char_class_operation(model, names[-1], op), images, pres)  # no class lacks an image
        source_b = suspension_of(torus_model(model.group, b))
        criterion = SteenrodCriterionInstance(
            space=space,
            presentation=pres,
            theta=theta,
            action_provenance="derived",
            action_citation=action_citation + restriction,
            op=op,
            a=f"{prefix}{model.rank}",
            b=f"{prefix}{b}",
            x=f"{prefix}{model.rank}",
            source_a=source_a,
            source_b=source_b,
            pullback_a={g.name: source_a.class_in.get(g.degree) for g in pres.generators},
            pullback_b={g.name: source_b.class_in.get(g.degree) for g in pres.generators},
            pullback_citation=pullback_citation,
        )
        steps.append(SteenrodStep(criterion))
    return tuple(steps)


def _ai_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    (n,) = inst.params
    if n == 2:
        rec = ds.one("external", family="AI-rank2")
        statement = (
            f"Omega({inst.label}) is not homotopy commutative: AI(2) = S^2 carries "
            "the non-trivial Whitehead square [1,1]"
        )
        return CriterionPlan((RecordedStep(inst.label, statement, rec["cite"]),))
    gens = [Generator(f"v{i}", i, squares_to_zero=True) for i in range(2, n + 1)]
    pres = Presentation(Algebra(FieldSpec(2), gens))
    restriction = ", restricted along v_i = iota^*(w_i) (Mimura-Toda)"
    return CriterionPlan(_top_class_steps(torus_model("so", n), inst.label, "v", pres, restriction))


def _bdi_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    """BSO(n) is certified once per rank; each BDI(m,n) row only lifts that certificate."""
    _, n = inst.params
    if n == 2:
        return CriterionPlan((_recorded_step(ds, "BDI-rank2", inst.label),))
    citation = (
        "the classifying map of the tautological bundle BDI(m,n) -> BSO(n) is an n-equivalence for m >= n"
    )
    top = torus_model("so", n).class_degree(n)
    return CriterionPlan((LiftStep("so", n, inst.label, threshold=n, source_dim=top, citation=citation),))


def _smallest_odd_prime_divisor(n: int) -> Optional[int]:
    m = n
    while m % 2 == 0:
        m //= 2
    if m == 1:
        return None
    d = 3
    while d * d <= m:
        if m % d == 0:
            return d
        d += 2
    return m


def _cii_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    """BSp(n) is certified once per rank; each CII(m,n) row only lifts that certificate."""
    _, n = inst.params
    citation = "the classifying map CII(m,n) -> BSp(n) is a (4n+2)-equivalence for m >= n"
    top = torus_model("sp", n).class_degree(n)
    lift = LiftStep("sp", n, inst.label, threshold=4 * n + 2, source_dim=top, citation=citation)
    return CriterionPlan((lift,))


@lru_cache(maxsize=None)
def _classifying_plan(group: str, rank: int) -> CriterionPlan:
    """The plan on BSO(rank) (group "so") or BSp(rank) (group "sp") that lift steps start from."""
    model = torus_model(group, rank)
    return CriterionPlan(_top_class_steps(model, f"{_CLASSIFYING[group][0]}({rank})", model.class_prefix))


def _bottom_cell_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    """Diagonal bottom-cell instance on the recorded action, with a classifying cross-check."""
    space = inst.family
    pres = ds.presentation(space)
    rec = ds.one("action", space=space)
    gen = rec["gen"]
    op = SteenrodOp(rec["family"], rec["k"], rec["prime"])
    pb = ds.one("pullback", space=space)
    cc = ClassifyingCrossCheck(
        model=torus_model(pb["model"], 4),
        class_name=pb["class"],
        pullback={pb["class"]: pb["value"]},
        citation=pb["cite"],
    )
    sphere = suspension_sphere(8)
    # the bottom cell S^8 detects the acted-on generator; every other generator restricts to 0
    table = {gen: "s8"}
    table.update({g.name: None for g in pres.generators if g.name != gen})
    criterion = SteenrodCriterionInstance(
        space=space,
        presentation=pres,
        theta=rec["value"],
        action_provenance="asserted",
        action_citation=rec["cite"],
        op=op,
        a=gen,
        b=gen,
        x=gen,
        source_a=sphere,
        source_b=sphere,
        pullback_a=dict(table),
        pullback_b=dict(table),
        pullback_citation=f"bottom cell S^8 -> {space} detecting {gen}",
    )
    return CriterionPlan((SteenrodStep(criterion, crosscheck=cc),))


def _g_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    pres = ds.presentation("G")
    records = ds.find("pullback", space="G")
    models = sorted({rec["model"] for rec in records})
    if len(models) != 1:
        raise DataIncomplete(f"pullback records for G must name one torus model, not {models}")
    images = {rec["class"]: rec["value"] for rec in records}
    op = SteenrodOp("Sq", 2, 2)
    action, unresolved = restrict(char_class_operation(torus_model(models[0], 4), "w3", op), images, pres)
    if unresolved:
        raise DataIncomplete(f"restriction images are not recorded for {', '.join(unresolved)}")
    criterion = SteenrodCriterionInstance(
        space="G",
        presentation=pres,
        theta=action,
        action_provenance="derived",
        action_citation=_WU_CITE + " in BSO(4), restricted along x_i = iota^*(w_i) (Borel-Hirzebruch)",
        op=op,
        a="x3",
        b="x2",
        x="x3",
        source_a=suspension_moore(),
        source_b=suspension_sphere(2),
        pullback_a={"x2": "u2", "x3": "u3"},
        pullback_b={"x2": "s2", "x3": None},
        pullback_citation="restriction to the 3-skeleton S^2 cup_2 e^3 and its bottom cell",
    )
    return CriterionPlan((SteenrodStep(criterion),))


def _aii_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    (n,) = inst.params
    degrees = [4 * i + 1 for i in range(1, n)]
    gens = [Generator(f"x{d}", d, squares_to_zero=True) for d in degrees]
    alg = Algebra(FieldSpec(2), gens)
    pres = Presentation(alg)
    su = torus_model("su", 2 * n - 1)
    table = {}
    for k in range(1, n):
        total = alg.gen(f"x{4 * k + 1}")
        for r in range(1, n - k):
            # x_{4k+1} suspends c_{2k+1}, and Sq^{4r} keeps the coefficient of c_{2(k+r)+1}
            op = SteenrodOp("Sq", 4 * r, 2)
            if suspended_coefficient(su, f"c{2 * k + 1}", op, f"c{2 * (k + r) + 1}"):
                total = total + alg.gen(f"x{4 * (k + r) + 1}")
        table[f"x{4 * k + 1}"] = total
    gm = ds.one("generating-map", space="AII")
    data = ExteriorActionData(
        pres,
        table,
        citation=(
            "total squares are linear: Wu formula for Chern classes via the splitting "
            "principle, transported by the cohomology suspension (decomposables die)"
        ),
    )
    witness = GeneratingMapWitness(
        source=f"Sigma HP^{n - 1}",
        base=f"HP^{n - 1}",
        target=inst.label,
        cell_degrees=tuple(degrees),
        citation=gm["cite"],
    )
    return CriterionPlan((ProjectiveStep(data, witness),))


def _eiv_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    pres = ds.presentation("EIV")
    records = ds.find("sq-table", space="EIV")
    table = {rec["gen"]: rec["value"] for rec in records}
    cites = [rec["cite"] for rec in records]
    gm = ds.one("generating-map", space="EIV")
    data = ExteriorActionData(pres, table, citation="; ".join(cites))
    witness = GeneratingMapWitness(
        source="Sigma OP^2",
        base="OP^2",
        target="EIV",
        cell_degrees=(9, 17),
        citation=gm["cite"],
    )
    return CriterionPlan((ProjectiveStep(data, witness),))


def _aiii_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    m, n = inst.params
    if m > 1:
        return _recorded_plan(ds, inst)
    # AIII(1,n) is CP^n
    rational = RationalStep(
        space=f"CP^{n}",
        presentation=_cp_presentation(n),
        citation="truncated polynomial rational cohomology of complex projective space",
    )
    if n != 3:
        return CriterionPlan((rational, _recorded_step(ds, "AIII", inst.label)))
    projective = ProjectiveStep(
        _cp_mod2_data(n),
        GeneratingMapWitness(
            source="S^2",
            base="S^1",
            target="CP^3",
            cell_degrees=(2,),
            citation="bottom cell of CP^3",
        ),
    )
    return CriterionPlan((rational, projective), exception_note=ds.one("exception", space="CP3")["cite"])


def _diii_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    """DIII(3) = SO(6)/U(3) is CP^3, since Spin(6) = SU(4) (Helgason X.6), so it runs CP^3's plan."""
    if inst.params == (3,):
        return _aiii_plan(ds, instantiate("AIII", (1, 3)))
    return _recorded_plan(ds, inst)


def _rational_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    """The rational criterion on the space, or on the auxiliary space of its recorded fibration."""
    space, label, transfer = inst.family, inst.label, None
    if ds.find("fibration", space=space):
        fib = ds.one("fibration", space=space)
        space, label = fib["aux"], fib["aux-label"]
        transfer = TransferStep(fib["threshold"], inst.label, fib["cite"])
    step = RationalStep(label, ds.presentation(space), ds.presentation_cite(space), transfer)
    return CriterionPlan((step,))


def _recorded_step(ds: DataSet, family_key: str, space_label: str) -> RecordedStep:
    rec = ds.one("external", family=family_key)
    return RecordedStep(
        space=space_label,
        statement=f"Omega({space_label}) is not homotopy commutative (recorded external result)",
        citation=rec["cite"],
    )


def _recorded_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    return CriterionPlan((_recorded_step(ds, inst.family, inst.label),))


# -- the classification table


@record
class Family:
    """One row of Cartan's table, described once.

    `plan(ds, instance)` builds an instance's criterion plan when it is
    checked.  The report runs `default_range`.  A family with a `summary`
    also gets one recorded row covering all its parameters; its range then
    lists only the instances that the summary leaves out, and those are
    reported whatever the parameter cap.
    """

    id: str
    plan: Callable
    arity: int = 0  # parameters, named ("n",) or ("m", "n")
    least: int = 0  # lower bound the table puts on every parameter
    normalize: Callable = tuple  # canonical parameter order
    default_range: tuple = ((),)
    summary: str = ""  # scope of the family-level recorded row; empty for none
    summary_note: str = ""

    @property
    def param_names(self) -> tuple:
        return ("m", "n")[2 - self.arity :]

    @property
    def constraint(self) -> str:
        return f"{', '.join(self.param_names)} >= {self.least}"


def _ranks(lo: int, hi: int) -> tuple:
    return tuple((n,) for n in range(lo, hi + 1))


def _pairs(lo: int, hi: int) -> tuple:
    """(m, n) with lo <= n <= m <= hi, n-major."""
    return tuple((m, n) for n in range(lo, hi + 1) for m in range(n, hi + 1))


def _descending(params) -> list:
    return sorted(params, reverse=True)


_IN_RANGE = "all parameters in range"

FAMILIES = (
    Family("AI", _ai_plan, arity=1, least=2, default_range=_ranks(2, 10)),
    Family("AII", _aii_plan, arity=1, least=2, default_range=_ranks(2, 6)),
    Family(
        "AIII", _aiii_plan, arity=2, least=1, normalize=sorted, default_range=((1, 3),),
        summary="all parameters, except CP^3",
        summary_note="the CP^3 instance AIII(1,3) is the known exception; see its own row",
    ),
    Family("BDI", _bdi_plan, arity=2, least=2, normalize=_descending, default_range=_pairs(2, 8)),
    Family("DIII", _diii_plan, arity=1, least=2, default_range=(), summary=_IN_RANGE),
    Family("CI", _recorded_plan, arity=1, least=2, default_range=(), summary=_IN_RANGE),
    Family("CII", _cii_plan, arity=2, least=1, normalize=_descending, default_range=_pairs(1, 6)),
    Family("EI", _bottom_cell_plan),
    Family("EII", _rational_plan),
    Family("EIII", _recorded_plan, default_range=(), summary=_IN_RANGE),
    Family("EIV", _eiv_plan),
    Family("EV", _rational_plan),
    Family("EVI", _rational_plan),
    Family("EVII", _recorded_plan, default_range=(), summary=_IN_RANGE),
    Family("EVIII", _rational_plan),
    Family("EIX", _rational_plan),
    Family("FI", _rational_plan),
    Family("FII", _bottom_cell_plan),
    Family("G", _g_plan),
)
_BY_ID = {f.id: f for f in FAMILIES}


# ---------------------------------------------------------------------------
# running plans


def _run_rational(step: RationalStep):
    pres = step.presentation
    space = step.space
    try:
        model = build_formal_model(pres)
    except HypothesisViolation as exc:
        return Refusal(space, RATIONAL, str(exc), (TranscriptEntry(MACHINE, "fail", str(exc)),))
    transcript = [
        TranscriptEntry(
            MACHINE,
            "pass",
            f"rational coefficients; generators all even (degrees "
            f"{tuple(g.degree for g in pres.generators)}); "
            f"{len(pres.relations)} relations for {len(pres.generators)} generators",
        )
    ]
    for i, rel in enumerate(pres.relations):
        if rel.explicit:
            transcript.append(
                TranscriptEntry(MACHINE, "pass", f"relation {i} (degree {rel.degree}) is decomposable")
            )
        else:
            transcript.append(
                TranscriptEntry(
                    ASSERTED,
                    "pass",
                    f"relation {i} (degree {rel.degree}) is decomposable; certified terms: "
                    f"{poly_to_text(rel.terms)}",
                    citation=step.citation,
                )
            )
    if pres.all_explicit and pres.relations:
        transcript.append(
            TranscriptEntry(
                MACHINE,
                "pass",
                "relations form a complete intersection: the quotient vanishes in the window of "
                "degrees above the formal dimension, so the relations are a regular sequence",
            )
        )
    elif pres.relations:
        transcript.append(
            TranscriptEntry(
                ASSERTED,
                "pass",
                "relations form a regular sequence (finite-dimensional cohomology)",
                citation=step.citation,
            )
        )
    if not certified_parts_are_cocycles(model):
        return Refusal(space, RATIONAL, "a stored differential is not a cocycle", tuple(transcript))
    transcript.append(
        TranscriptEntry(
            MACHINE,
            "pass",
            f"minimal model {pretty_model(model)}; stored differentials are cocycles",
        )
    )
    witness = find_rational_witness(model)
    if witness is None:
        lengths = sorted(
            wl
            for g in model.generators
            for wl in model.differential[g.name].word_lengths()
        )
        detail = f"; smallest differential word length is {lengths[0]}" if lengths else ""
        transcript.append(
            TranscriptEntry(MACHINE, "fail", "no differential carries a quadratic monomial" + detail)
        )
        return Refusal(space, RATIONAL, "no quadratic term in any differential", tuple(transcript))
    transcript.append(
        TranscriptEntry(
            MACHINE,
            "pass",
            f"differential of relation {witness.relation_index} contains the quadratic pair "
            f"{witness.pair}: non-trivial rational Whitehead pairing on homotopy in degrees "
            f"({witness.m},{witness.n}) with target degree {witness.target}",
            citation="quadratic part of a minimal-model differential detects rational Whitehead products",
        )
    )
    final_space = space
    if step.transfer is not None:
        t = step.transfer
        degrees = f"witness degrees ({witness.m},{witness.n},{witness.target})"
        low = [d for d in (witness.m, witness.n, witness.target) if d < t.threshold]
        if low:
            transcript.append(TranscriptEntry(MACHINE, "fail", f"{degrees} not all >= threshold {t.threshold}"))
            failed = f"witness degree {low[0]} is below the equivalence threshold {t.threshold}"
            return Refusal(space, RATIONAL, failed, tuple(transcript))
        transcript.append(TranscriptEntry(MACHINE, "pass", f"{degrees} all >= threshold {t.threshold}"))
        transcript.append(
            TranscriptEntry(
                ASSERTED,
                "pass",
                f"{space} -> {t.target} induces a rational homotopy isomorphism in degrees >= {t.threshold}",
                citation=t.citation,
            )
        )
        final_space = t.target
    payload = (
        ("pair", f"({witness.pair[0]}, {witness.pair[1]})"),
        ("degrees", f"({witness.m}, {witness.n})"),
        ("target", f"pi_{witness.target} (x) Q"),
        ("relation_index", str(witness.relation_index)),
    )
    return Certificate(final_space, RATIONAL, payload, tuple(transcript))


def _run_steenrod(step: SteenrodStep):
    result = check_steenrod_criterion(step.instance)
    if isinstance(result, Certificate) and step.crosscheck is not None:
        result = crosscheck(step.instance, step.crosscheck, result)
    return result


@lru_cache(maxsize=None)
def _classifying_result(group: str, rank: int):
    """The outcome of `_classifying_plan(group, rank)`, computed once and shared by every lift."""
    return _first_certificate(_classifying_plan(group, rank).steps)


def _run_lift(lift: LiftStep):
    result = _classifying_result(lift.group, lift.rank)
    if isinstance(result, Refusal):
        return result
    base = result.space
    transcript = result.transcript + (
        TranscriptEntry(
            ASSERTED,
            "pass",
            f"{lift.target} -> {base} is a {lift.threshold}-equivalence",
            citation=lift.citation,
        ),
    )
    if lift.source_dim > lift.threshold:
        failed = f"source dimension {lift.source_dim} > {lift.threshold}: the maps need not lift"
        return Refusal(lift.target, STEENROD, failed, transcript)
    transcript += (
        TranscriptEntry(
            MACHINE,
            "pass",
            f"source dimension {lift.source_dim} <= {lift.threshold}: both maps lift, and the "
            f"lifted Whitehead product maps onto the verified non-trivial one",
        ),
    )
    return Certificate(lift.target, STEENROD, result.witness + (("lifted-from", base),), transcript)


def _run_step(step):
    if isinstance(step, RationalStep):
        return _run_rational(step)
    if isinstance(step, SteenrodStep):
        return _run_steenrod(step)
    if isinstance(step, LiftStep):
        return _run_lift(step)
    if isinstance(step, ProjectiveStep):
        return check_partial_projective_criterion(step.data, step.witness)
    if isinstance(step, RecordedStep):
        return Certificate(
            step.space,
            RECORDED,
            (("statement", step.statement),),
            (TranscriptEntry(ASSERTED, "pass", step.statement, citation=step.citation),),
        )
    raise TypeError(f"unknown plan step {step!r}")


def _first_certificate(steps):
    """Run the steps in order until one certifies.

    The certificate is prefixed with one note per refused step before it.
    When every step refuses, the last refusal comes back with the notes of the
    refused steps before it appended.
    """
    notes = []
    for step in steps:
        result = _run_step(step)
        if isinstance(result, Certificate):
            return replace(result, transcript=tuple(notes) + result.transcript) if notes else result
        notes.append(TranscriptEntry(MACHINE, "info", f"plan step '{step.label}' refused: {result.failed}"))
    return replace(result, transcript=result.transcript + tuple(notes[:-1]))


def check(instance: SpaceInstance):
    """Run the instance's criterion plan; certificate on first success."""
    plan = route(instance)
    if not plan.steps:
        raise DataIncomplete(f"empty criterion plan for {instance.label}")
    result = _first_certificate(plan.steps)
    if isinstance(result, Refusal):
        return replace(result, space=instance.label, exception_note=plan.exception_note)
    if result.space != instance.label:
        result = replace(result, space=instance.label, witness=result.witness + (("checked-on", result.space),))
    return result


# ---------------------------------------------------------------------------
# report


@record
class ReportRow:
    family: str
    params: str
    label: str
    criterion: str
    witness: str
    conclusion: str
    exception: bool
    note: str
    transcript: tuple


@record
class Report:
    rows: tuple

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "report",
            "rows": [
                {
                    "family": r.family,
                    "params": r.params,
                    "space": r.label,
                    "criterion": r.criterion,
                    "witness": r.witness,
                    "conclusion": r.conclusion,
                    "exception": r.exception,
                    "note": r.note,
                    "transcript": [e.to_dict() for e in r.transcript],
                }
                for r in self.rows
            ],
        }

    def render_text(self) -> str:
        headers = ("space", "criterion", "conclusion")
        table = [
            (r.label, r.criterion + ("*" if r.exception else ""), r.conclusion)
            for r in self.rows
        ]
        widths = [
            max(len(h), *(len(row[i]) for row in table)) if table else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * w for w in widths),
        ]
        for row in table:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
        notes = [r for r in self.rows if r.note]
        if notes:
            lines.append("")
            for r in notes:
                lines.append(f"* {r.label}: {r.note}")
        return "\n".join(lines) + "\n"


def _row_from_instance(instance: SpaceInstance) -> ReportRow:
    result = check(instance)
    params = ",".join(str(p) for p in instance.params) if instance.params else "-"
    if isinstance(result, Certificate):
        conclusion = conclude_noncommutative(result)
        return ReportRow(
            family=instance.family,
            params=params,
            label=instance.label,
            criterion=result.criterion,
            witness=result.witness_text(),
            conclusion=conclusion.statement,
            exception=False,
            note="",
            transcript=conclusion.certificate.transcript,
        )
    return ReportRow(
        family=instance.family,
        params=params,
        label=instance.label,
        criterion=result.criterion,
        witness="-",
        conclusion="no conclusion from the implemented criteria",
        exception=bool(result.exception_note),
        note=result.exception_note,
        transcript=result.transcript,
    )


def _family_level_row(fam: Family) -> ReportRow:
    rec = load_dataset().one("external", family=fam.id)
    statement = f"Omega({fam.id}) is not homotopy commutative for every instance in range"
    return ReportRow(
        family=fam.id,
        params="all",
        label=f"{fam.id} ({fam.summary})",
        criterion=RECORDED,
        witness="recorded external result",
        conclusion=statement,
        exception=False,
        note=fam.summary_note,
        transcript=(TranscriptEntry(ASSERTED, "pass", statement, citation=rec["cite"]),),
    )


def report(families=None, max_param: Optional[int] = None) -> Report:
    """One row per instance over desk-scale ranges, in classification-table order."""
    wanted = {family(f).id for f in families} if families else None
    rows = []
    for fam in FAMILIES:
        if wanted is not None and fam.id not in wanted:
            continue
        if fam.summary:
            rows.append(_family_level_row(fam))
        for params in fam.default_range:
            if fam.summary or max_param is None or all(p <= max_param for p in params):
                rows.append(_row_from_instance(instantiate(fam.id, params)))
    return Report(tuple(rows))
