"""Exact computation of restriction formulas and graded character values for
the type-BC Weyl group in two Springer theories, with a finite-field
brute-force oracle cross-checking the combinatorial formulas."""

from .partitions import (
    Partition,
    sum_partitions,
    underlying_set,
    union_partitions,
)
from .params import (
    Bipartition,
    LimitSymbol,
    OmegaParam,
    enumerate_bipartitions,
    enumerate_omega,
    hat_lambda,
    iota,
    iota_inv,
    paving_predicates,
    phi,
    psi,
    recover_bipartition,
    to_limit_symbol,
    validate_omega,
    x_crit,
)
from .qpoly import QPoly, geometric_sum
from .restrict import (
    CharSum,
    check_equivalence,
    restrict_exotic,
    restrict_exotic_q1,
    restrict_symplectic,
    restrict_symplectic_q1,
)
from .evaluator import value, value_table
from .gf import FieldCtx, field
from .fforacle import (
    FieldModel,
    V_NOT_PERP,
    brute_force_restriction,
    chi_invariant,
    exotic_invariant,
    jordan_type,
    quotient_model,
    standard_model_exotic,
    standard_model_symplectic,
    verify_against_formula,
)

__version__ = "0.1.0"
