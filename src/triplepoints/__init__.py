"""Exact-arithmetic toolkit for projective surfaces in P^3 with
ordinary triple points."""

from .fields import Field, FieldElement, FieldMismatchError, solve_quadratic
from .poly import MultiPoly, poly_determinant
from .linalg import rank, kernel_basis, rref
from .surfaces import ProjPoint, Surface
from .singular import (local_jet, multiplicity, certify_ordinary_triple_point,
                       CertificationFailure, enumerate_singular_points,
                       jacobian_hilbert, singular_scheme_degree,
                       equisingular_tangent_dimension, certify)
from . import bounds, invariants, constructions, families

__version__ = "0.1.0"

__all__ = [
    "Field", "FieldElement", "FieldMismatchError", "solve_quadratic",
    "MultiPoly", "poly_determinant",
    "rank", "kernel_basis", "rref",
    "ProjPoint", "Surface",
    "local_jet", "multiplicity", "certify_ordinary_triple_point",
    "CertificationFailure", "enumerate_singular_points",
    "jacobian_hilbert", "singular_scheme_degree",
    "equisingular_tangent_dimension", "certify",
    "bounds", "invariants", "constructions", "families",
]
