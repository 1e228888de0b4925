"""The classification table as data: space families, criterion routing, reports.

`FAMILIES` is the table: one row per irreducible symmetric space family with
its parameters, its report range and the plan builder that assembles an
ordered plan of criterion checks for an instance.  Running a plan yields a
Certificate with a full transcript, or a Refusal; the report generator runs
the desk-scale ranges over the whole table.
"""

from __future__ import annotations

import operator
import os
import re
from collections.abc import Callable
from functools import lru_cache

from .criteria import (
    ASSERTED,
    RATIONAL,
    RECORDED,
    STEENROD,
    Certificate,
    DataIncomplete,
    ProjectivePlaneInstance,
    Refusal,
    Transcript,
    check_partial_projective_criterion,
    conclude_noncommutative,
    total_square_violations,
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
    CLASSIFYING,
    _WU_CITE,
    ClassifyingRead,
    SteenrodCriterionInstance,
    SteenrodOp,
    check_steenrod_criterion,
    class_algebra,
    crosscheck,
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

# family -> the key of the external record its rank-2 instances read; every other external record names a family
_RANK2_EXTERNAL = {"AI": "AI-rank2", "BDI": "BDI-rank2"}
_CP3 = "CP3"  # the space of the one exception record, which the CP^3 plan reads


# ---------------------------------------------------------------------------
# catalog data files

# kind -> (its keys, the keys whose values name one record of the kind).  Every key of a kind is
# required, once, and no other key is allowed; a second record with the same naming values is rejected.
_KINDS = {
    "presentation": ({"space", "file", "cite"}, ("space",)),
    "fibration": ({"space", "aux", "aux-label", "threshold", "cite"}, ("space",)),
    "pullback": ({"space", "model", "class", "value", "cite"}, ("space", "class")),
    "action": ({"space", "gen", "family", "k", "prime", "value", "cite"}, ("space",)),
    "generating-map": ({"space", "cite"}, ("space",)),
    "sq-table": ({"space", "gen", "value", "cite"}, ("space", "gen")),
    "external": ({"family", "cite"}, ("family",)),
    "exception": ({"space", "cite"}, ("space",)),
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


def _fact_record(line: str) -> tuple | None:
    """(kind, {key: value}) of one facts.txt record; `value` stays text, the integer keys are ints.

    A `#` outside quotes starts a comment; a blank or comment-only line is None.
    """
    words = _shell_words(line)
    if not words:
        return None
    kind, *words = words
    if kind not in _KINDS:
        raise ValueError(f"unknown record kind {kind!r}")
    keys = _KINDS[kind][0]
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
    """The catalog's records, each named by its kind and naming values, with names and links resolved at load.

    A presentation record carries its parsed `presentation`, every `value` is
    a polynomial over its space's presentation and every `gen` one of its
    generators, a fibration's `aux` is the presentation record it names, a
    pullback's `model` is the rank-4 torus model that has its `class`, one
    model per space, and an action's `family`, `k` and `prime` are its `op`,
    at the characteristic of its space's presentation, and its `pullback`
    the one pullback record of its space valued `gen`.
    Every value has the degree its record gives it, and a space's sq-table
    records give a total square of each of its generators.  Each record
    carries the facts.txt `line` it was read from.  Plans read records by
    name, through `one` and `of`, and check none.
    """

    def __init__(self, records: dict):
        self.records = records  # (kind, its naming values) -> record, in file order

    def one(self, kind: str, *names: str) -> dict:
        """The record its naming values name, as `ds.one("pullback", "G", "w3")`."""
        if (kind, *names) not in self.records:
            raise CatalogDataError(f"facts.txt has no {kind} record for {' '.join(names)}")
        return self.records[(kind, *names)]

    def of(self, kind: str, space: str) -> dict:
        """A space's pullback or sq-table records, keyed by class or gen, in file order; none raises as `one` does."""
        group = {k[2]: rec for k, rec in self.records.items() if k[:2] == (kind, space)}
        if not group:
            raise CatalogDataError(f"facts.txt has no {kind} record for {space}")
        return group

    def presentation(self, space: str) -> Presentation:
        return self.one("presentation", space)["presentation"]


def load_dataset() -> DataSet:
    """The catalog data in `$LOOPCOMM_DATA_DIR`, or else beside this module, loaded once per directory.

    A record has exactly its kind's keys in `_KINDS` and repeats no earlier
    record's naming keys; after the presentations load, its names and then
    its links to other records resolve as `DataSet` says.  A failure is a
    CatalogDataError naming the facts.txt line (or the presentation file that
    does not parse).
    """
    return _load_dataset(os.environ.get(DATA_ENV, ""))


def _resolve(kind: str, rec: dict, ds: DataSet) -> None:
    """Resolve the names of one record in place and check its value, as `DataSet` says."""
    if kind in _READ_BY_NAME:
        key, names = _KINDS[kind][1][0], ", ".join(_READ_BY_NAME[kind])
        if rec[key] not in _READ_BY_NAME[kind]:
            raise ValueError(f"{key}={rec[key]} names no {kind} record a plan reads; expected one of {names}")
    if kind == "fibration":
        rec["aux"] = ds.one("presentation", rec["aux"])
    if "value" not in rec:
        return
    alg = ds.presentation(rec["space"]).algebra
    value = rec["value"] = parse_poly(rec["value"], alg)
    if "gen" in rec and rec["gen"] not in alg.index:
        raise ValueError(f"gen={rec['gen']} is not a generator of the {rec['space']} presentation")
    if kind == "sq-table":
        violations = total_square_violations(alg, rec["gen"], value)
        if violations:
            raise ValueError(f"Sq {rec['gen']} = {poly_to_text(value)} is not a total square: {violations[0]}")
        return
    if kind == "pullback":
        model = rec["model"] = torus_model(rec["model"], 4)
        what, degree = f"g*({rec['class']})", model.class_degree(model.class_index(rec["class"]))
    else:  # action
        op = rec["op"] = SteenrodOp(rec.pop("family"), rec.pop("k"), rec.pop("prime"))
        if op.prime != alg.field.characteristic:
            raise ValueError(f"prime={op.prime}, but the {rec['space']} presentation is over {alg.field}")
        what, degree = f"{op.label} {rec['gen']}", alg.degrees[alg.index[rec["gen"]]] + op.shift
    if not value.degrees() <= {degree}:
        raise ValueError(f"{what} = {poly_to_text(value)} is not a degree-{degree} class of {rec['space']}")


def _link(kind: str, rec: dict, ds: DataSet) -> None:
    """Resolve one record's links to the other records of its space as `DataSet` says."""
    if kind == "pullback":
        first = next(iter(ds.of("pullback", rec["space"]).values()))
        if rec["model"] != first["model"]:
            raise ValueError(
                f"model={rec['model'].group}, but the {rec['space']} pullback record on line {first['line']} has "
                f"model={first['model'].group}; the pullback records of a space name one torus model"
            )
    elif kind == "action":
        records = ds.of("pullback", rec["space"]).values()
        acted = [pb for pb in records if pb["value"] == pb["value"].algebra.gen(rec["gen"])]
        if len(acted) != 1:
            lines = ", ".join(str(pb["line"]) for pb in records)
            raise ValueError(
                f"gen={rec['gen']} is the value of {len(acted)} {rec['space']} pullback records, "
                f"not of one (pullback lines: {lines})"
            )
        rec["pullback"] = acted[0]
    elif kind == "sq-table":  # blamed on the space's first sq-table line, which the load reaches first
        table = ds.of(kind, rec["space"])
        missing = [gen for gen in rec["value"].algebra.index if gen not in table]
        if missing:
            lines = ", ".join(str(sq["line"]) for sq in table.values())
            raise ValueError(
                f"the {rec['space']} sq-table records give no total square of {', '.join(missing)} "
                f"(sq-table lines: {lines})"
            )


@lru_cache(maxsize=None)
def _load_dataset(data_dir: str) -> DataSet:
    root = data_dir or os.path.join(os.path.dirname(__file__), "data")
    records = {}  # (kind, values of its naming keys) -> record, in file order
    with open(os.path.join(root, "facts.txt"), encoding="utf-8") as f:
        text = f.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            parsed = _fact_record(line)
        except ValueError as exc:
            raise CatalogDataError(f"facts.txt line {lineno}: {exc}") from exc
        if parsed is None:
            continue
        kind, rec = parsed
        naming = _KINDS[kind][1]
        ident = (kind,) + tuple(rec[k] for k in naming)
        if ident in records:
            what = " ".join(f"{k}={rec[k]}" for k in naming)
            raise CatalogDataError(
                f"facts.txt line {lineno}: a second {kind} record for {what} (first on line {records[ident]['line']})"
            )
        records[ident] = rec
        rec["line"] = lineno
        if kind == "presentation":
            try:
                with open(os.path.join(root, "presentations", rec["file"]), encoding="utf-8") as f:
                    body = f.read()
            except OSError as exc:
                raise CatalogDataError(f"facts.txt line {lineno}: {exc}") from exc
            try:
                rec["presentation"] = parse_presentation(body)
            except ValueError as exc:
                raise CatalogDataError(f"{rec['file']}: {exc}") from exc
    ds = DataSet(records)
    for resolve in (_resolve, _link):
        for (kind, *_), rec in records.items():
            try:
                resolve(kind, rec, ds)
            except (ValueError, LookupError) as exc:  # a name `one` misses is said once, after the line
                message = str(exc).removeprefix("facts.txt has ")
                raise CatalogDataError(f"facts.txt line {rec['line']}: {message}") from exc
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
    citation: str
    label = "Lift"


@record
class RationalStep:
    space: str
    presentation: Presentation
    citation: str
    transfer: TransferStep | None = None
    label = "Rational"


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


def _integer(value) -> int:
    """An integer parameter as an int; a bool, float or str is refused, not truncated or parsed."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"parameter {value!r} is not an integer")


def instantiate(family_id: str, params=()) -> SpaceInstance:
    """Validate parameters against the classification table and normalize them."""
    fam = family(family_id)
    params = tuple(_integer(p) for p in params)
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


def _top_class_ops(model) -> list:
    """(op, b) per step on the top class of BSO(n) or BSp(n), all at one prime; b indexes the class b.

    BSO(n): Sq^2 or Sq^3 by n mod 4, then Sq^b for each power of two 4 <= b < n.
    BSp(n): P^1 with b = (p-1)/2, p the smallest odd prime dividing n; Sq^4
    with b = 1 if n is a power of 2.  At n = 1 condition (2) forbids the mod-2
    instance (a = b), and the diagonal one at p = 3 meets condition (3).
    Every b names a class of the model, so BSO(2), which lacks w3, gets none.
    """
    n = model.rank
    if model.group == "so":
        powers = [2**j for j in range(2, (n - 1).bit_length())]
        return [(SteenrodOp("Sq", b, 2), b) for b in [2 if n % 4 in (0, 3) else 3] + powers if b <= n]
    p = _smallest_odd_prime_divisor(n)
    if p is None and n >= 2:
        return [(SteenrodOp("Sq", 4, 2), 1)]
    p = p or 3
    return [(SteenrodOp("P", 1, p), (p - 1) // 2)]


def _top_class_steps(model, space: str, prefix: str, pres: Presentation | None = None, restriction="") -> tuple:
    """One Steenrod criterion instance per `_top_class_ops(model)`, x = a = the top class.

    Each reads the op on the top class, carried along class i -> <prefix>i
    to `pres` (by default the class algebra at the ops' prime); a run derives
    it only when it reaches the step.  The sources come from `suspension_of`,
    and the criterion reads each map's pullback off them.
    """
    classifying = CLASSIFYING[model.group]
    ops = _top_class_ops(model)
    if not ops:
        return ()
    pres = pres or Presentation(class_algebra(model, ops[0][0].prime))
    names, top = model.class_names(), f"{prefix}{model.rank}"
    read = ClassifyingRead(model, names[-1], {c: pres.algebra.gen(f"{prefix}{model.class_index(c)}") for c in names})
    return tuple(
        SteenrodCriterionInstance(
            space, pres, read, classifying["action_cite"] + restriction, op, top, f"{prefix}{b}", top,
            suspension_of(model), suspension_of(torus_model(model.group, b)), classifying["pullback_cite"],
        )
        for op, b in ops
    )


def _ai_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    (n,) = inst.params
    if n == 2:
        rec = ds.one("external", _RANK2_EXTERNAL["AI"])
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
        return CriterionPlan((_recorded_step(ds, _RANK2_EXTERNAL["BDI"], inst.label),))
    citation = (
        "the classifying map of the tautological bundle BDI(m,n) -> BSO(n) is an n-equivalence for m >= n"
    )
    return CriterionPlan((LiftStep("so", n, inst.label, threshold=n, citation=citation),))


def _smallest_odd_prime_divisor(n: int) -> int | None:
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
    return CriterionPlan((LiftStep("sp", n, inst.label, threshold=4 * n + 2, citation=citation),))


def _bottom_cell_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    """Diagonal bottom-cell instance on the recorded action, cross-checked by a classifying read of
    the class of the action's pullback record, along every pullback record's image.
    """
    space = inst.family
    pres = ds.presentation(space)
    rec = ds.one("action", space)
    gen, acted = rec["gen"], rec["pullback"]
    images = {name: pb["value"] for name, pb in ds.of("pullback", space).items()}
    read = ClassifyingRead(acted["model"], acted["class"], images, acted["cite"])
    sphere = suspension_sphere(pres.algebra.degrees[pres.algebra.index[gen]])  # the bottom cell, detecting gen
    criterion = SteenrodCriterionInstance(
        space, pres, read, rec["cite"], rec["op"], gen, gen, gen,
        sphere, sphere, f"bottom cell {sphere.base} -> {space} detecting {gen}", rec["value"],
    )
    return CriterionPlan((criterion,))


def _g_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    pres = ds.presentation("G")
    images = {name: rec["value"] for name, rec in ds.of("pullback", "G").items()}
    read = ClassifyingRead(ds.one("pullback", "G", "w3")["model"], "w3", images)
    criterion = SteenrodCriterionInstance(
        "G", pres, read, _WU_CITE + " in BSO(4), restricted along x_i = iota^*(w_i) (Borel-Hirzebruch)",
        SteenrodOp("Sq", 2, 2), "x3", "x2", "x3", suspension_moore(), suspension_sphere(2),
        "restriction to the 3-skeleton S^2 cup_2 e^3 and its bottom cell",
    )
    return CriterionPlan((criterion,))


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
    citation = (
        "total squares are linear: Wu formula for Chern classes via the splitting "
        "principle, transported by the cohomology suspension (decomposables die)"
    )
    gm = ds.one("generating-map", "AII")
    return CriterionPlan((
        ProjectivePlaneInstance(pres, table, citation, f"HP^{n - 1}", inst.label, tuple(degrees), gm["cite"]),
    ))


def _eiv_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    records = ds.of("sq-table", "EIV")
    table = {gen: rec["value"] for gen, rec in records.items()}
    citation = "; ".join(rec["cite"] for rec in records.values())
    gm = ds.one("generating-map", "EIV")
    return CriterionPlan((
        ProjectivePlaneInstance(ds.presentation("EIV"), table, citation, "OP^2", "EIV", (9, 17), gm["cite"]),
    ))


def _aiii_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    m, n = inst.params
    if m > 1:
        return _recorded_plan(ds, inst)
    # AIII(1,n) is CP^n
    citation = "truncated polynomial rational cohomology of complex projective space"
    rational = RationalStep(f"CP^{n}", _cp_presentation(n), citation)
    if n != 3:
        return CriterionPlan((rational, _recorded_step(ds, "AIII", inst.label)))
    pres = _cp_presentation(n, 2)
    x2 = pres.algebra.gen("x2")
    projective = ProjectivePlaneInstance(
        pres, {"x2": x2 + x2 * x2}, "total square of the projective-space generator",
        "S^1", "CP^3", (2,), "bottom cell of CP^3",
    )
    return CriterionPlan((rational, projective), exception_note=ds.one("exception", _CP3)["cite"])


def _diii_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    """DIII(3) = SO(6)/U(3) is CP^3, since Spin(6) = SU(4) (Helgason X.6), so it runs CP^3's plan."""
    if inst.params == (3,):
        return _aiii_plan(ds, instantiate("AIII", (1, 3)))
    return _recorded_plan(ds, inst)


def _rational_plan(ds: DataSet, inst: SpaceInstance) -> CriterionPlan:
    """The rational criterion on the space, or on the auxiliary space of its recorded fibration."""
    fib = ds.records.get(("fibration", inst.family))
    if fib:
        rec, label, transfer = fib["aux"], fib["aux-label"], TransferStep(fib["threshold"], inst.label, fib["cite"])
    else:
        rec, label, transfer = ds.one("presentation", inst.family), inst.label, None
    return CriterionPlan((RationalStep(label, rec["presentation"], rec["cite"], transfer),))


def _recorded_step(ds: DataSet, family_key: str, space_label: str) -> RecordedStep:
    rec = ds.one("external", family_key)
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
# kind -> the names its records may carry, for the kinds that plans read by their naming key alone
_READ_BY_NAME = {"external": (*_BY_ID, *_RANK2_EXTERNAL.values()), "generating-map": (*_BY_ID,), "exception": (_CP3,)}


# ---------------------------------------------------------------------------
# running plans


def _run_rational(step: RationalStep):
    pres = step.presentation
    t = Transcript(step.space, RATIONAL)
    try:
        model = build_formal_model(pres)
    except HypothesisViolation as exc:
        return t.refuse(str(exc), str(exc))
    t.add(
        f"rational coefficients; generators all even (degrees {tuple(g.degree for g in pres.generators)}); "
        f"{len(pres.relations)} relations for {len(pres.generators)} generators"
    )
    for i, rel in enumerate(pres.relations):
        if rel.explicit:
            t.add(f"relation {i} (degree {rel.degree}) is decomposable")
        else:
            t.add(
                f"relation {i} (degree {rel.degree}) is decomposable; certified terms: {poly_to_text(rel.terms)}",
                step.citation,
                ASSERTED,
            )
    if pres.all_explicit and pres.relations:
        t.add(
            "relations form a complete intersection: the quotient vanishes in the window of "
            "degrees above the formal dimension, so the relations are a regular sequence"
        )
    elif pres.relations:
        t.add("relations form a regular sequence (finite-dimensional cohomology)", step.citation, ASSERTED)
    if not certified_parts_are_cocycles(model):
        why = "a stored differential is not a cocycle"
        return t.refuse(why, why)
    t.add(f"minimal model {pretty_model(model)}; stored differentials are cocycles")
    witness = find_rational_witness(model)
    if witness is None:
        lengths = sorted(wl for g in model.generators for wl in model.differential[g.name].word_lengths())
        detail = f"; smallest differential word length is {lengths[0]}" if lengths else ""
        return t.refuse(
            "no quadratic term in any differential", "no differential carries a quadratic monomial" + detail
        )
    t.add(
        f"differential of relation {witness.relation_index} contains the quadratic pair "
        f"{witness.pair}: non-trivial rational Whitehead pairing on homotopy in degrees "
        f"({witness.m},{witness.n}) with target degree {witness.target}",
        "quadratic part of a minimal-model differential detects rational Whitehead products",
    )
    if step.transfer is not None:
        tr = step.transfer
        degrees = f"witness degrees ({witness.m},{witness.n},{witness.target})"
        low = [d for d in (witness.m, witness.n, witness.target) if d < tr.threshold]
        if low:
            return t.refuse(
                f"witness degree {low[0]} is below the equivalence threshold {tr.threshold}",
                f"{degrees} not all >= threshold {tr.threshold}",
            )
        t.add(f"{degrees} all >= threshold {tr.threshold}")
        t.add(
            f"{step.space} -> {tr.target} induces a rational homotopy isomorphism in degrees >= {tr.threshold}",
            tr.citation,
            ASSERTED,
        )
        t.space = tr.target
    return t.certify((
        ("pair", f"({witness.pair[0]}, {witness.pair[1]})"),
        ("degrees", f"({witness.m}, {witness.n})"),
        ("target", f"pi_{witness.target} (x) Q"),
        ("relation_index", str(witness.relation_index)),
    ))


@lru_cache(maxsize=None)
def _classifying_result(group: str, rank: int):
    """The outcome on BSO(rank) (group "so") or BSp(rank) (group "sp"), computed once and shared by every lift."""
    model, space = torus_model(group, rank), f"{CLASSIFYING[group]['space']}({rank})"
    steps = _top_class_steps(model, space, model.class_prefix)
    if not steps:
        why = "no candidate operation on the top class lands on a class of the model"
        return Transcript(space, STEENROD).refuse(why, why)
    return _first_certificate(steps)


def _run_lift(lift: LiftStep):
    result = _classifying_result(lift.group, lift.rank)
    if isinstance(result, Refusal):
        return result
    base = result.space
    t = Transcript(lift.target, STEENROD, result.transcript)
    t.add(f"{lift.target} -> {base} is a {lift.threshold}-equivalence", lift.citation, ASSERTED)
    source_dim = torus_model(lift.group, lift.rank).class_degree(lift.rank)  # a, the top class, is its top cell
    if source_dim > lift.threshold:
        why = f"source dimension {source_dim} > {lift.threshold}: the maps need not lift"
        return t.refuse(why, why)
    t.add(
        f"source dimension {source_dim} <= {lift.threshold}: both maps lift, and the "
        f"lifted Whitehead product maps onto the verified non-trivial one"
    )
    return t.certify(result.witness + (("lifted-from", base),))


def _run_step(step):
    if isinstance(step, RationalStep):
        return _run_rational(step)
    if isinstance(step, SteenrodCriterionInstance):
        result = check_steenrod_criterion(step)
        if isinstance(result, Certificate) and step.read is not None and step.recorded is not None:
            result = crosscheck(step, result)
        return result
    if isinstance(step, LiftStep):
        return _run_lift(step)
    if isinstance(step, ProjectivePlaneInstance):
        return check_partial_projective_criterion(step)
    if isinstance(step, RecordedStep):
        return Transcript(step.space, RECORDED).add(step.statement, step.citation, ASSERTED).certify(
            (("statement", step.statement),)
        )
    raise TypeError(f"unknown plan step {step!r}")


def _first_certificate(steps):
    """Run the steps in order until one certifies.

    The certificate is prefixed with one note per refused step before it.
    When every step refuses, the last refusal comes back with the notes of the
    refused steps before it appended.
    """
    notes = Transcript(None, None)  # only its entries are read
    for step in steps:
        result = _run_step(step)
        if isinstance(result, Certificate):
            return replace(result, transcript=notes.entries + result.transcript) if notes.entries else result
        notes.add(f"plan step '{step.label}' refused: {result.failed}", outcome="info")
    return replace(result, transcript=result.transcript + notes.entries[:-1])


def check(instance: SpaceInstance):
    """Run the instance's criterion plan: its first certificate, concluded, or the last refusal."""
    plan = route(instance)
    if not plan.steps:
        raise DataIncomplete(f"empty criterion plan for {instance.label}")
    result = _first_certificate(plan.steps)
    if isinstance(result, Refusal):
        return replace(result, space=instance.label, exception_note=plan.exception_note)
    if result.space != instance.label:
        result = replace(result, space=instance.label, witness=result.witness + (("checked-on", result.space),))
    return conclude_noncommutative(result)


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
    note = result.exception_note
    return ReportRow(
        instance.family, params, instance.label, result.criterion, result.witness_text(), result.conclusion,
        bool(note), note, result.transcript,
    )


def _family_level_row(fam: Family) -> ReportRow:
    rec = load_dataset().one("external", fam.id)
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
        transcript=Transcript(fam.id, RECORDED).add(statement, rec["cite"], ASSERTED).entries,
    )


def report(families=None, max_param: int | None = None) -> Report:
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
