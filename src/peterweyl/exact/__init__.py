"""Exact arithmetic kernel: scalar fields, linear algebra, polynomial systems."""

from .scalars import (
    Cyclotomic,
    RatFun,
    as_scalar,
    cyclotomic_polynomial,
    scalar_from_str,
    scalar_to_str,
    unify,
    variant_name,
)
from .linalg import (
    Infeasible,
    LinearSolution,
    Matrix,
    Subspace,
    nullspace,
    rref,
    solve_linear,
)
from .polysys import Poly, PolySystem, buchberger

__all__ = [
    "Cyclotomic",
    "RatFun",
    "as_scalar",
    "cyclotomic_polynomial",
    "scalar_from_str",
    "scalar_to_str",
    "unify",
    "variant_name",
    "Infeasible",
    "LinearSolution",
    "Matrix",
    "Subspace",
    "nullspace",
    "rref",
    "solve_linear",
    "Poly",
    "PolySystem",
    "buchberger",
]
