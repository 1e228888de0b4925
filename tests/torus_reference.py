"""Reference operations over torus monomials, the oracle for the partition-basis engine.

Torus polynomials are dicts from exponent tuples to integers.  Everything here
expands every monomial: it is slow by design and exists only so that tests
can compare `loopcomm.steenrod` against an independent computation.
"""

import functools
import itertools

from loopcomm.gradedalg import ContractViolation
from loopcomm.steenrod import class_algebra


def binomial(m: int, t: int) -> int:
    """Generalized binomial coefficient (m may be negative)."""
    if t < 0:
        return 0
    num = 1
    for s in range(t):
        num *= m - s
    for s in range(2, t + 1):
        num //= s
    return num


def tp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def tp_unit(nvars: int) -> dict:
    return {(0,) * nvars: 1}


def elementary(nvars: int, k: int, power: int = 1) -> dict:
    """Elementary symmetric polynomial e_k(t_1^power, ..., t_n^power)."""
    if k < 0 or k > nvars:
        return {}
    out = {}
    for subset in itertools.combinations(range(nvars), k):
        exps = [0] * nvars
        for j in subset:
            exps[j] = power
        out[tuple(exps)] = 1
    return out


def total_operation_on_torus(poly: dict, family: str, prime: int, var_degree: int) -> dict:
    """Multiplicative extension of t -> t + t^prime, exact integer coefficients.

    Sq requires prime 2 (variables of degree 1 or 2); P requires an odd prime
    and degree-2 variables.
    """
    if family == "Sq":
        if prime != 2:
            raise ContractViolation("Sq operations live at the prime 2")
    elif family == "P":
        if prime == 2 or var_degree != 2:
            raise ContractViolation("power operations require an odd prime and degree-2 variables")
    else:
        raise ContractViolation(f"unknown operation family {family!r}")
    if var_degree not in (1, 2):
        raise ContractViolation("torus variables must have degree 1 or 2")
    out: dict = {}
    for exps, coeff in poly.items():
        # expand prod_j (t_j + t_j^p)^{e_j} one variable at a time
        partial = {exps: coeff}
        for j, e in enumerate(exps):
            if e == 0:
                continue
            nxt: dict = {}
            for pe, pc in partial.items():
                for c in range(e + 1):
                    b = binomial(e, c)
                    ne = list(pe)
                    ne[j] = e + c * (prime - 1)
                    ne = tuple(ne)
                    nxt[ne] = nxt.get(ne, 0) + pc * b
            partial = nxt
        for e, c in partial.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def m_coefficients(poly: dict) -> dict:
    """Partition-basis coefficients of a symmetric torus polynomial: one per orbit."""
    return {
        tuple(x for x in e if x): c
        for e, c in poly.items()
        if list(e) == sorted(e, reverse=True)
    }


@functools.lru_cache(maxsize=None)
def _e_monomial(nvars, e_exps):
    """prod_k e_k^{e_exps[k-1]} over torus monomials."""
    out = tp_unit(nvars)
    for k, mult in enumerate(e_exps, start=1):
        for _ in range(mult):
            out = tp_mul(out, elementary(nvars, k))
    return out


def ref_express_symmetric(poly, nvars):
    """Leading-term elimination over torus monomials, with e-products built by tp_mul."""
    work = dict(poly)
    out = {}
    while work:
        lam = max(work)
        padded = list(lam) + [0]
        e_exps = tuple(padded[k] - padded[k + 1] for k in range(nvars))
        c = work[lam]
        out[e_exps] = out.get(e_exps, 0) + c
        for e, pc in _e_monomial(nvars, e_exps).items():
            v = work.get(e, 0) - c * pc
            if v:
                work[e] = v
            else:
                work.pop(e, None)
    return {e: c for e, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def ref_total_char_class_operation(model, class_name, family, prime, weight=None):
    """The whole total operation, expanded over every torus monomial, in classes.

    With a weight, only the torus monomials of that total exponent (after the
    squared-class collapse) are re-expressed: the component of degree
    weight * class_degree(1).
    """
    i = model.class_index(class_name)
    f = elementary(model.rank, i, power=model.class_power)
    total = total_operation_on_torus(f, family, prime, model.var_degree)
    if model.class_power == 2:
        total = {e: c % prime for e, c in total.items() if c % prime}
        assert all(x % 2 == 0 for e in total for x in e)
        total = {tuple(x // 2 for x in e): c for e, c in total.items()}
    if weight is not None:
        total = {e: c for e, c in total.items() if sum(e) == weight}
    alg = class_algebra(model, prime)
    offset = 2 if model.kill_e1 else 1
    out = alg.zero()
    for e_exps, coeff in ref_express_symmetric(total, model.rank).items():
        if model.kill_e1 and e_exps[0]:
            continue
        exps = [0] * len(alg.generators)
        for k, mult in enumerate(e_exps, start=1):
            if mult and k >= offset:
                exps[k - offset] = mult
        out = out + alg.monomial(tuple(exps), coeff)
    return out


def ref_hook_component_e_top(j, c):
    """Monomial-enumeration version: expand every monomial of m_(2^c, 1^(j-c))."""
    if c > j:
        return 0
    n = j + c
    mono = {}
    for twos in itertools.combinations(range(n), c):
        rest = [i for i in range(n) if i not in twos]
        for ones in itertools.combinations(rest, j - c):
            exps = [0] * n
            for i in twos:
                exps[i] = 2
            for i in ones:
                exps[i] = 1
            mono[tuple(exps)] = 1
    top = tuple(1 if k == n - 1 else 0 for k in range(n))
    return ref_express_symmetric(mono, n).get(top, 0)
