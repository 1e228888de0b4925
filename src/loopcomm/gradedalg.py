"""Exact arithmetic in finitely generated graded-commutative algebras.

Monomials are exponent vectors over a fixed, ordered generator list; every
polynomial is kept in canonical form (no zero coefficients, Koszul signs
resolved at multiplication time).  In characteristic 0 a coefficient is an
`int` when it is integral and a `fractions.Fraction` only otherwise, so
integral input never imports `fractions`; in characteristic p it is the
canonical residue 0..p-1.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import gcd, lcm
from operator import add, attrgetter


class StructuralError(ValueError):
    """Operands belong to different generator tables or fields."""


class ContractViolation(ValueError):
    """An operation precondition (homogeneity, op/degree match) failed."""


class HypothesisViolation(ValueError):
    """A named mathematical hypothesis of an operation does not hold."""


class UnsupportedPresentation(ValueError):
    """Partial relation data appears where explicit data is required."""


def record(cls):
    """Make cls an immutable value class over its annotated fields, in order.

    Instances behave as those of a frozen dataclass, with no code generated
    per class: construction by position or keyword, with the class attributes
    as defaults; `__post_init__` after every construction; no assignment or
    deletion of attributes; equality and hash by exact class and field values;
    and the `Name(field=value, ...)` repr.
    """
    names = tuple(cls.__annotations__)
    n = len(names)
    known = frozenset(names)
    defaults = tuple(vars(cls)[name] for name in names if name in vars(cls))
    required = n - len(defaults)
    if any(name in vars(cls) for name in names[:required]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    needed = frozenset(names[:required])
    default_of = dict(zip(names[required:], defaults))
    # one attribute at a time, in field order, keeps CPython's compact per-instance
    # storage; a write to self.__dict__ would give it up and slow every attribute read
    set_field = object.__setattr__
    values = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= n:
            given = dict(zip(names, args), **kwargs)
            if len(given) != len(args) + len(kwargs) or not known.issuperset(given) or not given.keys() >= needed:
                raise _argument_error(cls, args, kwargs)
            given = {**default_of, **given}
            for name in names:
                set_field(self, name, given[name])
        else:
            for name, value in zip(names, args + defaults[len(args) - required :]):
                set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{cls.__qualname__}({fields})"

    cls._fields = names
    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _argument_error(cls, args: tuple, kwargs: dict) -> TypeError:
    """What is wrong with the arguments of cls(*args, **kwargs)."""
    names = cls._fields
    if len(args) > len(names):
        return TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
    for name in kwargs:
        if name not in names:
            return TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in names[: len(args)]:
            return TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
    missing = [name for name in names[len(args) :] if name not in kwargs and name not in vars(cls)]
    return TypeError(f"{cls.__name__}() missing required argument(s): {', '.join(map(repr, missing))}")


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


def replace(obj, **changes):
    """A copy of the record obj with some fields changed; its `__post_init__` runs again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_CAP = 3317044064679887385961981  # no strong pseudoprime to all of _WITNESS_BASES lies below


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2..41: exact for every p below _PRIME_CAP.

    A larger p raises ValueError rather than guess (Sorenson-Webster, Math.
    Comp. 86 (2017), for the bound).
    """
    if p >= _PRIME_CAP:
        raise ValueError(f"primality is decided only below {_PRIME_CAP}, got {p}")
    if p < 2:
        return False
    for a in _WITNESS_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESS_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@record
class FieldSpec:
    """Coefficient field: the rationals (characteristic 0) or F_p."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValueError(f"characteristic must be 0 or a prime, got {self.characteristic}")

    def normalize(self, c):
        """The canonical element for c; over F_p a fraction a/b is a * b^-1.

        Over Q it is an int when c is integral (a bool becomes 0 or 1) and a
        Fraction only otherwise, so a sum or product whose denominator cancels
        collapses back to an int.
        """
        p = self.characteristic
        if p == 0:
            if type(c) is int:
                return c
            if isinstance(c, int):
                return int(c)
            c = _rational(c)
            return c.numerator if c.denominator == 1 else c
        if isinstance(c, int):
            return c % p
        c = _rational(c)
        if c.denominator % p == 0:
            raise ValueError(f"coefficient {c} is not defined over {self}: {p} divides its denominator")
        return c.numerator * pow(c.denominator, -1, p) % p

    def parse(self, text: str):
        return self.normalize(_coefficient(text))

    def __str__(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


def _rational(c):
    """c as a fractions.Fraction; the module is imported only when a coefficient needs it."""
    from fractions import Fraction

    return Fraction(c)


def _coefficient(text: str):
    """A coefficient in the form poly_to_text prints, an int or int/int in ASCII digits.

    An int stays an int; only int/int is read as a Fraction.
    """
    numerator, slash, denominator = text.removeprefix("-").partition("/")
    if not (_is_digits(numerator) and (not slash or _is_digits(denominator))):
        raise ValueError(f"not a coefficient: {text!r}")
    if "/" not in text:
        return int(text)
    try:
        return _rational(text)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {text!r} has a zero denominator") from None


@record
class Generator:
    name: str
    degree: int
    squares_to_zero: bool = False

    def __post_init__(self) -> None:
        if self.degree <= 0:
            raise ValueError(f"generator degree must be positive, got {self.degree}")
        if not (self.name.isascii() and self.name.isidentifier()):  # [A-Za-z_][A-Za-z_0-9]*
            raise ValueError(f"bad generator name {self.name!r}")


def _check_generator(field: FieldSpec, g: Generator, earlier: set) -> None:
    """Raise StructuralError unless g may follow the generators named in `earlier` over field."""
    if g.name in earlier:
        raise StructuralError(f"generator names must be distinct; {g.name} repeats")
    if field.characteristic != 2 and g.degree % 2 == 1 and not g.squares_to_zero:
        raise StructuralError(f"odd generator {g.name} must square to zero over {field}")


class Algebra:
    """Free graded-commutative algebra on an ordered generator list."""

    def __init__(self, field: FieldSpec, generators: Iterable[Generator]):
        gens = tuple(generators)
        earlier = set()
        for g in gens:
            _check_generator(field, g, earlier)
            earlier.add(g.name)
        self.field = field
        self.generators = gens
        self.index = {g.name: i for i, g in enumerate(gens)}
        self.degrees = tuple(g.degree for g in gens)
        self.sqz = tuple(g.squares_to_zero for g in gens)
        self.odd_at = tuple(i for i, g in enumerate(gens) if g.degree % 2 == 1)
        self.sqz_at = tuple(i for i, sqz in enumerate(self.sqz) if sqz)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.field, self.generators))

    def monomial_degree(self, exps: tuple) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees))

    def zero(self) -> "Poly":
        return Poly(self, {})

    def unit(self) -> "Poly":
        return Poly(self, {(0,) * len(self.generators): self.field.normalize(1)})

    def gen(self, name: str) -> "Poly":
        exps = [0] * len(self.generators)
        exps[self.index[name]] = 1
        return Poly(self, {tuple(exps): self.field.normalize(1)})

    def monomial(self, exps: tuple, coeff=1) -> "Poly":
        return self.poly({tuple(exps): coeff})

    def poly(self, terms: dict) -> "Poly":
        out = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.generators):
                raise StructuralError("exponent vector length mismatch")
            if any(e < 0 for e in exps):
                raise StructuralError("negative exponent")
            for i, e in enumerate(exps):
                if e >= 2 and self.sqz[i]:
                    raise StructuralError(
                        f"generator {self.generators[i].name} squares to zero; exponent {e} invalid"
                    )
            c = self.field.normalize(coeff)
            if c:
                out[exps] = self.field.normalize(out.get(exps, 0) + c) if exps in out else c
        return Poly(self, {e: c for e, c in out.items() if c})

    def monomials_of_degree(self, degree: int) -> list:
        """All canonical-form monomials of the given degree, lexicographically sorted."""
        n = len(self.generators)
        # every monomial in the generators from i on has a degree divisible by reach[i]
        reach = [gcd(*self.degrees[i:]) for i in range(n)]
        out = []
        stack = [(0, degree, ())]  # (next generator, degree left, exponents so far); no recursion
        while stack:
            i, remaining, acc = stack.pop()
            if remaining == 0:
                out.append(acc + (0,) * (n - i))
            elif i < n and remaining > 0 and remaining % reach[i] == 0:
                d = self.degrees[i]
                top = min(remaining // d, 1 if self.sqz[i] else remaining)
                if i == n - 1:  # the last exponent is forced
                    if top * d == remaining:
                        out.append(acc + (top,))
                else:
                    stack.extend((i + 1, remaining - e * d, acc + (e,)) for e in range(top + 1))
        return sorted(out)


class Poly:
    """A graded-commutative polynomial in canonical form."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def __neg__(self) -> "Poly":
        f = self.algebra.field
        return Poly(self.algebra, {e: f.normalize(-c) for e, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if self.algebra != other.algebra:
            raise StructuralError("polynomials over different generator tables")
        f = self.algebra.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.normalize(out.get(e, 0) + c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.algebra, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        f = self.algebra.field
        c = f.normalize(c)
        if not c:
            return self.algebra.zero()
        return Poly(self.algebra, {e: f.normalize(k * c) for e, k in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def degrees(self) -> set:
        return {self.algebra.monomial_degree(e) for e in self.terms}

    @property
    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def homogeneous_degree(self) -> int | None:
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise ContractViolation("polynomial is not homogeneous")
        return ds.pop()

    def degree_component(self, degree: int) -> "Poly":
        return Poly(
            self.algebra,
            {e: c for e, c in self.terms.items() if self.algebra.monomial_degree(e) == degree},
        )

    def coefficient(self, exps: tuple):
        return self.terms.get(tuple(exps), self.algebra.field.normalize(0))

    def word_lengths(self) -> set:
        return {sum(e) for e in self.terms}

    def __repr__(self) -> str:
        return poly_to_text(self)


def _monomial_product(alg: Algebra, ea: tuple, eb: tuple):
    """(exponents, sign) of the monomial product ea * eb, or None when it vanishes.

    A squares-to-zero generator raised to a power >= 2 kills the product; the
    Koszul sign counts the odd generators of eb that pass odd generators of ea.
    """
    exps = tuple(map(add, ea, eb))
    for i in alg.sqz_at:
        if exps[i] >= 2:
            return None
    crossings = later = 0
    for i in reversed(alg.odd_at):
        crossings += eb[i] * later
        later += ea[i]
    return exps, -1 if crossings % 2 else 1


def mul(a: Poly, b: Poly) -> Poly:
    """Graded-commutative product with Koszul signs and square annihilation."""
    if a.algebra != b.algebra:
        raise StructuralError("operands over different generator tables")
    alg = a.algebra
    f = alg.field
    out: dict = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            prod = _monomial_product(alg, ea, eb)
            if prod is None:
                continue
            exps, sign = prod
            c = ca * cb
            if sign < 0:
                c = -c
            s = f.normalize(out.get(exps, 0) + c)
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
    return Poly(alg, out)


def is_decomposable(p: Poly) -> bool:
    """True iff every monomial has word length >= 2 (input must be homogeneous)."""
    if p.is_zero:
        return True
    if not p.is_homogeneous:
        raise ContractViolation("is_decomposable requires a homogeneous polynomial")
    return all(sum(e) >= 2 for e in p.terms)


@record
class Relation:
    """A homogeneous relation: fully explicit, or partial (certified terms only)."""

    degree: int
    kind: str  # "explicit" | "partial"
    terms: Poly  # full body, or the certified part of a partial body
    decomposable_asserted: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("explicit", "partial"):
            raise ValueError(f"bad relation kind {self.kind!r}")
        if self.degree < 0:
            raise ValueError(f"relation degree must be non-negative, got {self.degree}")
        if self.terms:
            for e in self.terms.terms:
                if self.terms.algebra.monomial_degree(e) != self.degree:
                    raise ContractViolation(
                        f"relation term of degree {self.terms.algebra.monomial_degree(e)} "
                        f"in a degree-{self.degree} relation"
                    )

    @property
    def explicit(self) -> bool:
        return self.kind == "explicit"


@record
class Presentation:
    algebra: Algebra
    relations: tuple = ()
    formal_dimension: int | None = None

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def generators(self) -> tuple:
        return self.algebra.generators

    @property
    def all_explicit(self) -> bool:
        return all(r.explicit for r in self.relations)


def _bit_rank(rows: Iterable[int], ncols: int) -> int:
    """Rank over F_2 of rows given as ints, bit j standing for column j of ncols.

    Pivots are keyed by their top set bit, and a row is reduced by adding
    (xor) the pivot of its top bit until that bit has no pivot or the row
    vanishes.  It stops once every column has a pivot.
    """
    pivots: dict = {}  # top set bit, as the row's bit length -> row
    for row in rows:
        if len(pivots) == ncols:
            break
        while row:
            top = row.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


def _rank(rows: Iterable[dict], field: FieldSpec, ncols: int | None = None) -> int:
    """Rank of sparse rows {column: coefficient}, by exact fraction-free elimination.

    Pivots are keyed by their leading (least) column.  Only a row's leading
    entry is cleared, against the pivot of that column, until the row leads in
    a column without a pivot or vanishes.  Over Q every row is scaled once to
    integers, combined as a*row - b*pivot and divided by its content; over F_p
    the entries are residues (integers are reduced) and each pivot is made
    monic with one inverse.  Given the column count, elimination stops once
    every column has a pivot, since later rows cannot raise the rank.
    """
    p = field.characteristic
    pivots: dict = {}  # leading column -> row
    for row in rows:
        if len(pivots) == ncols:
            break
        if p:
            row = {j: c % p for j, c in row.items() if c % p}
        else:
            row = _primitive(_integer_row(row))
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                if p:
                    inv = pow(row[lead], -1, p)
                    row = {j: c * inv % p for j, c in row.items()}
                pivots[lead] = row
                break
            b = row[lead]
            if p:
                for j, c in pivot.items():
                    v = (row.get(j, 0) - b * c) % p
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                continue
            a = pivot[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {j: a * c for j, c in row.items()}
            for j, c in pivot.items():
                v = row.get(j, 0) - b * c
                if v:
                    row[j] = v
                else:
                    del row[j]
            row = _primitive(row)
    return len(pivots)


def _integer_row(row: dict) -> dict:
    """A row of rationals times the lcm of its denominators: integers with the same span over Q."""
    den = lcm(*(c.denominator for c in row.values()))
    return {j: c.numerator * (den // c.denominator) for j, c in row.items() if c}


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: c // g for j, c in row.items()}


def _ideal_rows(pres: Presentation, degree: int, basis_index: dict) -> list:
    """Sparse rows of the products m * rho that span the ideal in one degree."""
    alg = pres.algebra
    rows = []
    for rel in pres.relations:
        if rel.degree > degree:
            continue
        terms = rel.terms.terms.items()
        for m in alg.monomials_of_degree(degree - rel.degree):
            row = {}
            for e, c in terms:
                prod = _monomial_product(alg, m, e)
                if prod is not None:
                    exps, sign = prod
                    row[basis_index[exps]] = c if sign > 0 else -c
            if row:
                rows.append(row)
    return rows


def hilbert_function(pres: Presentation, up_to: int) -> tuple:
    """Dimension of each graded piece of the quotient, degrees 0..up_to.

    Read off the series prod(1 - t^{|rho_i|}) / prod(1 - t^{|x_j|}), whose
    prefix is exact for every up_to, when the relations form a regular
    sequence, which _regular_sequence decides on the window above its degree D
    by a rank over F_2 and, where that falls short over Q, an exact one.
    Otherwise it is eliminated exactly, degree by degree, and stops once w
    consecutive degrees vanish, w the largest generator degree: a monomial of
    degree at least a has a divisor of degree in a..a+w-1, so every later
    degree vanishes too.
    """
    if not pres.all_explicit:
        raise UnsupportedPresentation("hilbert_function requires explicit relations")
    if _regular_sequence(pres):
        return tuple(
            _series_quotient([r.degree for r in pres.relations], pres.algebra.degrees, up_to)
        )
    window = max(pres.algebra.degrees, default=1)
    dims = []
    for d in range(up_to + 1):
        dims.append(graded_dimension(pres, d))
        if len(dims) >= window and not any(dims[-window:]):
            break
    return tuple(dims) + (0,) * (up_to + 1 - len(dims))


def graded_dimension(pres: Presentation, degree: int) -> int:
    """Dimension of a single graded piece of the quotient.

    Exact degreewise linear algebra: the degree-d basis is the set of canonical
    monomials of degree d, and the ideal slice is spanned by all products
    m * rho with deg(m * rho) = d.
    """
    if not pres.all_explicit:
        raise UnsupportedPresentation("graded dimension requires explicit relations")
    basis = pres.algebra.monomials_of_degree(degree)
    index = {m: i for i, m in enumerate(basis)}
    return len(basis) - _rank(_ideal_rows(pres, degree, index), pres.field, len(basis))


def _series_degree(pres: Presentation) -> int:
    """D = sum(|rho_i|) - sum(|x_j|), the degree of the complete-intersection series."""
    return sum(r.degree for r in pres.relations) - sum(pres.algebra.degrees)


@lru_cache(maxsize=None)
def _regular_sequence(pres: Presentation) -> bool:
    """Whether n relations of positive degree on n polynomial generators have a finite quotient.

    A finite quotient makes them a regular sequence, because a polynomial ring
    is Cohen-Macaulay (Bruns-Herzog, Cohen-Macaulay Rings), so its Hilbert
    series is prod(1 - t^{|rho_i|}) / prod(1 - t^{|x_j|}), of degree D.  The
    quotient is generated in degrees <= w, the largest generator degree, so it
    is finite exactly when the window of degrees D+1..D+w vanishes.

    Over Q and F_2 each window degree is first eliminated over F_2, one int
    of bits per row (_bit_rank).  The generators are even and polynomial, so
    m * rho has no sign and loses no term, and its row mod 2 is m times the
    odd support of rho: the monomials whose coefficient is odd once rho is
    cleared of denominators and divided by its content.  Integer rows have
    rank mod 2 at most their rank over Q, so full rank mod 2 proves that the
    degree vanishes; over F_2 it is the rank itself.  A degree over Q short
    of full rank mod 2, and every degree over F_p with p odd, is eliminated
    exactly over the field (_rank).
    """
    alg = pres.algebra
    if (
        len(pres.relations) != len(alg.generators)
        or any(d % 2 or sqz for d, sqz in zip(alg.degrees, alg.sqz))
        or any(r.degree <= 0 for r in pres.relations)
    ):
        return False
    D = _series_degree(pres)
    if D < 0:
        return False
    p = pres.field.characteristic
    odd_supports = None  # (degree, odd support) of each relation, over Q and F_2
    if p in (0, 2):
        odd_supports = [
            (rel.degree, [e for e, c in _primitive(_integer_row(rel.terms.terms)).items() if c % 2])
            for rel in pres.relations
        ]
    for degree in range(D + 1, D + max(alg.degrees, default=0) + 1):
        basis = alg.monomials_of_degree(degree)
        n = len(basis)
        index = {m: i for i, m in enumerate(basis)}
        if odd_supports is not None:
            bit_rows = (
                sum(1 << index[tuple(map(add, m, e))] for e in support)
                for rel_degree, support in odd_supports
                if rel_degree <= degree
                for m in alg.monomials_of_degree(degree - rel_degree)
            )
            if _bit_rank(bit_rows, n) == n:
                continue
            if p == 2:
                return False
        if _rank(_ideal_rows(pres, degree, index), pres.field, n) < n:
            return False
    return True


def indecomposable_dimension(pres: Presentation, degree: int) -> int:
    """dim of (positive part)/(decomposables) in one degree, from the presentation.

    Decomposables span every monomial of word length >= 2, and m * rho is
    decomposable unless m = 1, so the quotient is the span of the degree-d
    generators modulo the linear parts of the degree-d relations (and zero
    when a relation is a non-zero constant).
    """
    if not pres.all_explicit:
        raise UnsupportedPresentation("indecomposable quotient requires explicit relations")
    if degree <= 0 or any(rel.degree == 0 and rel.terms for rel in pres.relations):
        return 0
    alg = pres.algebra
    cols = [i for i, d in enumerate(alg.degrees) if d == degree]
    gen_exps = [tuple(int(j == i) for j in range(len(alg.degrees))) for i in cols]
    rows = [
        {k: rel.terms.terms[e] for k, e in enumerate(gen_exps) if e in rel.terms.terms}
        for rel in pres.relations
        if rel.degree == degree
    ]
    return len(cols) - _rank(rows, pres.field)


def _series_quotient(rel_degrees: list, gen_degrees: list, up_to: int) -> list:
    """Coefficients of prod(1 - t^r) / prod(1 - t^d) up to degree up_to."""
    coeffs = [0] * (up_to + 1)
    coeffs[0] = 1
    for r in rel_degrees:
        nxt = list(coeffs)
        for k in range(r, up_to + 1):
            nxt[k] -= coeffs[k - r]
        coeffs = nxt
    for d in gen_degrees:
        for k in range(d, up_to + 1):
            coeffs[k] += coeffs[k - d]
    return coeffs


def check_even_hypotheses(pres: Presentation) -> None:
    """Raise HypothesisViolation naming the first even-complete-intersection hypothesis that fails.

    The generators are even and polynomial, there are as many relations as
    generators, every relation is decomposable (a partial one through its
    decomposability assertion and its certified terms), and a recorded formal
    dimension equals the series degree D = sum(|rho_i|) - sum(|x_j|).
    """
    for g in pres.generators:
        if g.degree % 2 == 1:
            raise HypothesisViolation(f"odd generator {g.name} in input")
        if g.squares_to_zero:
            raise HypothesisViolation(f"generator {g.name} squares to zero; polynomial generators are required")
    if len(pres.relations) != len(pres.generators):
        raise HypothesisViolation(
            f"relation count {len(pres.relations)} != generator count {len(pres.generators)}"
        )
    for rel in pres.relations:
        if not rel.explicit and not rel.decomposable_asserted:
            raise HypothesisViolation(f"partial relation of degree {rel.degree} lacks a decomposability assertion")
        if not is_decomposable(rel.terms):
            raise HypothesisViolation(
                f"relation of degree {rel.degree} is not decomposable"
                if rel.explicit
                else f"certified terms of the degree-{rel.degree} relation are not decomposable"
            )
    D = _series_degree(pres)
    if pres.formal_dimension is not None and pres.formal_dimension != D:
        raise HypothesisViolation(
            f"recorded formal dimension {pres.formal_dimension} differs from the series degree {D}"
        )


def is_complete_intersection(pres: Presentation) -> bool:
    """Whether explicit relations form a regular sequence on even polynomial generators.

    Given check_even_hypotheses, this holds exactly when the quotient is
    finite, and then its dimensions are the coefficients of
    prod(1 - t^{|rho_i|}) / prod(1 - t^{|x_j|}); see _regular_sequence.
    """
    if not pres.all_explicit:
        raise HypothesisViolation("partial relation present; complete-intersection check needs explicit bodies")
    check_even_hypotheses(pres)
    return _regular_sequence(pres)


# ---------------------------------------------------------------------------
# canonical text form


def monomial_text(alg: Algebra, exps: tuple) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        name = alg.generators[i].name
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def poly_to_text(p: Poly) -> str:
    if p.is_zero:
        return "0"
    alg = p.algebra
    items = sorted(p.terms.items(), key=lambda t: (alg.monomial_degree(t[0]), t[0]))
    pieces = []
    for exps, coeff in items:
        mono = monomial_text(alg, exps)
        neg = alg.field.characteristic == 0 and coeff < 0
        mag = -coeff if neg else coeff
        if mono == "1":
            body = str(mag)
        elif mag == alg.field.normalize(1):
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


_FACTOR = r"(?:[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z_0-9]*(?:\s*\^\s*[0-9]+)?)"
# [sign] term (sign term)* with term := factor ('*' factor)* is [sign] factor (op factor)*
_POLY = rf"\s*(?:[+-]\s*)?{_FACTOR}(?:\s*[-+*]\s*{_FACTOR})*\s*"  # compiled on first use, not at import


def parse_poly(text: str, alg: Algebra) -> Poly:
    """Parse the text form that poly_to_text prints, with whitespace allowed around every token.

    poly := [sign] term (sign term)*;  term := factor ('*' factor)*;
    factor := int | int/int | name['^' int].  Any other text is a ValueError.
    """
    import re

    if not re.fullmatch(_POLY, text, re.ASCII):
        raise ValueError(f"not a polynomial: {text!r}")
    result = alg.zero()
    for term in re.findall(r"[+-]?[^+-]+", "".join(text.split())):
        coeff = -1 if term[0] == "-" else 1
        exps = [0] * len(alg.generators)
        for factor in term.lstrip("+-").split("*"):
            name, _, e = factor.partition("^")
            if name[0].isdigit():
                coeff *= _coefficient(factor)
            elif name in alg.index:
                exps[alg.index[name]] += int(e or 1)
            else:
                raise ValueError(f"unknown generator {name!r}")
        result = result + alg.monomial(exps, coeff)
    return result


# ---------------------------------------------------------------------------
# presentation serialization (one record per line; see README for the grammar)


def print_presentation(pres: Presentation) -> str:
    f = pres.field
    lines = []
    if f.characteristic == 0:
        lines.append("field rational")
    else:
        lines.append(f"field prime {f.characteristic}")
    if pres.formal_dimension is not None:
        lines.append(f"formal-dimension {pres.formal_dimension}")
    for g in pres.generators:
        line = f"generator {g.name} {g.degree}"
        if g.squares_to_zero:
            line += " squares-to-zero"
        lines.append(line)
    for rel in pres.relations:
        head = f"relation {rel.degree} {rel.kind}"
        if rel.kind == "partial" and rel.decomposable_asserted:
            head += " decomposable"
        lines.append(head)
        for exps, coeff in sorted(rel.terms.terms.items()):
            lines.append("term " + str(coeff) + " " + " ".join(str(e) for e in exps))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _at_line(lineno: int, exc: Exception) -> ValueError:
    """A ValueError or IndexError raised while reading a line, as a ValueError naming the line."""
    return ValueError(f"presentation line {lineno}: {exc}")


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation grammar; every rejection names the line it concerns."""
    field: FieldSpec | None = None
    formal_dimension: int | None = None
    gens: list = []  # (lineno, Generator)
    rel_specs: list = []  # (lineno, degree, kind, asserted, [(lineno, coeff_text, exps)])
    once: dict = {}  # record word -> line, for the records a presentation has at most one of
    lineno = end = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        try:
            if end:
                raise ValueError(f"{words[0]!r} record after the end record of line {end}")
            if words[0] in once:
                raise ValueError(f"a second {words[0]!r} record (first on line {once[words[0]]})")
            if words[0] == "field":
                once["field"] = lineno
                if words[1] == "rational":
                    field = FieldSpec(0)
                elif words[1] == "prime":
                    field = FieldSpec(_integer(words[2]))
                else:
                    raise ValueError(f"bad field kind {words[1]!r}")
            elif words[0] == "formal-dimension":
                once["formal-dimension"] = lineno
                formal_dimension = _integer(words[1])
            elif words[0] == "generator":
                _only_flags(words[3:], ("squares-to-zero",))
                sqz = "squares-to-zero" in words[3:]
                gens.append((lineno, Generator(words[1], _integer(words[2]), sqz)))
            elif words[0] == "relation":
                kind = words[2]
                _only_flags(words[3:], ("decomposable",) if kind == "partial" else ())
                asserted = "decomposable" in words[3:]
                rel_specs.append((lineno, _integer(words[1]), kind, asserted, []))
            elif words[0] == "term":
                if not rel_specs:
                    raise ValueError("term before any relation")
                rel_specs[-1][4].append((lineno, words[1], tuple(map(_integer, words[2:]))))
            elif words[0] == "end":
                _only_flags(words[1:], ())
                end = lineno
            else:
                raise ValueError(f"unknown record {words[0]!r}")
        except (IndexError, ValueError) as exc:
            raise _at_line(lineno, exc) from exc
    if field is None:
        raise ValueError(f"presentation line {end or max(lineno, 1)}: no field record before the end")
    earlier = set()
    for gen_line, g in gens:
        try:
            _check_generator(field, g, earlier)
        except (IndexError, ValueError) as exc:
            raise _at_line(gen_line, exc) from exc
        earlier.add(g.name)
    alg = Algebra(field, [g for _, g in gens])
    relations = []
    for rel_line, degree, kind, asserted, terms in rel_specs:
        body = alg.zero()
        for term_line, coeff_text, exps in terms:
            try:
                term = alg.monomial(exps, field.parse(coeff_text))
                if alg.monomial_degree(exps) != degree:
                    raise ContractViolation(
                        f"term of degree {alg.monomial_degree(exps)} in a degree-{degree} relation"
                    )
            except (IndexError, ValueError) as exc:
                raise _at_line(term_line, exc) from exc
            body = body + term
        try:
            relations.append(Relation(degree, kind, body, decomposable_asserted=asserted))
        except (IndexError, ValueError) as exc:
            raise _at_line(rel_line, exc) from exc
    return Presentation(alg, tuple(relations), formal_dimension)


def _is_digits(text: str) -> bool:
    """Whether text is [0-9]+: str.isdigit alone also takes other scripts' digits and superscripts."""
    return text.isascii() and text.isdigit()


def _integer(text: str) -> int:
    """An integer in the form print_presentation prints, -?[0-9]+ in ASCII digits."""
    if not _is_digits(text.removeprefix("-")):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _only_flags(words: list, allowed: tuple) -> None:
    for w in words:
        if w not in allowed:
            raise ValueError(f"unexpected word {w!r}")
