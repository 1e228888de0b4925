"""Certified non-commutativity checks for loop spaces of irreducible symmetric spaces."""

from .gradedalg import (
    Algebra,
    FieldSpec,
    Generator,
    Poly,
    Presentation,
    Relation,
    hilbert_function,
    is_complete_intersection,
    is_decomposable,
    mul,
    parse_presentation,
    print_presentation,
)
from .sullivan import (
    RationalWitness,
    SullivanModel,
    build_formal_model,
    check_d_squared,
    find_rational_witness,
    transfer_witness,
)
from .criteria import (
    Certificate,
    Conclusion,
    Refusal,
    check_partial_projective_criterion,
    check_sq_linearity,
    conclude_noncommutative,
    validate_sq_action,
)
from .steenrod import (
    SteenrodOp,
    SuspensionModel,
    TorusModel,
    char_class_operation,
    check_steenrod_criterion,
    torus_model,
)
from .catalog import check, instantiate, report, route

__version__ = "0.1.0"
