"""Orthogonal polynomial families of Krall type, their matrices, and zero identities.

The package builds classical and Krall-type orthogonal polynomial families
exactly, locates the zeros of their members, assembles spectral and
collocation matrix representations of the defining differential operators,
and verifies the algebraic identities those zeros satisfy.
"""

from .families import (
    FAMILIES,
    DiffOperator,
    FamilySpec,
    ParameterError,
    Polynomial,
    build_family,
    eigenvalue,
    inner_product,
    moment,
    operator_of,
)
from .identities import (
    IdentityReport,
    default_grid,
    discriminate_variants,
    equally_spaced_nodes,
    spectrum_report,
    verify_family_identity,
    verify_fourth_order,
    verify_power,
    verify_eigenpairs,
)
from .matrices import (
    InversionConsistencyError,
    MatrixRep,
    PositivityError,
    christoffel,
    christoffel_numbers,
    collocation_rep,
    collocation_rep_simplified,
    diffmat,
    quadrature_exactness,
    similarity_check,
    tau_rep,
    transition,
    transition_general,
)
from .rootfinding import (
    NodeSet,
    NonSimpleRootError,
    RootfindingError,
    zeros,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "DiffOperator",
    "FamilySpec",
    "IdentityReport",
    "InversionConsistencyError",
    "MatrixRep",
    "NodeSet",
    "NonSimpleRootError",
    "ParameterError",
    "Polynomial",
    "PositivityError",
    "RootfindingError",
    "build_family",
    "christoffel",
    "christoffel_numbers",
    "collocation_rep",
    "collocation_rep_simplified",
    "default_grid",
    "diffmat",
    "discriminate_variants",
    "eigenvalue",
    "equally_spaced_nodes",
    "inner_product",
    "moment",
    "operator_of",
    "quadrature_exactness",
    "similarity_check",
    "spectrum_report",
    "tau_rep",
    "transition",
    "transition_general",
    "verify_family_identity",
    "verify_fourth_order",
    "verify_power",
    "verify_eigenpairs",
    "zeros",
]
