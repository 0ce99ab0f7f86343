"""cylgap: finite-element eigenvalue lab for mixed-boundary spectra on
elongating cylinders.

The operator is -div(A(X2) grad u) on (-ell, ell)^p x omega with Dirichlet
conditions on the lateral boundary and natural conditions on the ends.
The experiments quantify how the first eigenvalues behave as ell shrinks
to zero (dimension reduction to a Schur-complement pencil) or grows to
infinity (end concentration, the spectral gap below the cross-section
eigenvalue, half-cylinder limits, and the collapsing second eigenvalue).
"""

from .coeff import (CoefficientField, asymmetric_model_field, condition_con,
                    diagonal_field, field_from_table, identity_field,
                    model_field, multi_model_field, neg_coupling_field,
                    piecewise_constant_field, row_restriction_field,
                    variable_a22_field)
from .grid import TensorMesh, build_mesh
from .assemble import (SparseSymmetricForm, assemble_cross_section,
                       assemble_cylinder)
from .eig import EigenPair, smallest_eigenpairs

__version__ = "0.1.0"

__all__ = [
    "CoefficientField", "TensorMesh", "SparseSymmetricForm", "EigenPair",
    "model_field", "identity_field", "diagonal_field",
    "asymmetric_model_field", "variable_a22_field", "neg_coupling_field",
    "multi_model_field", "piecewise_constant_field", "field_from_table",
    "row_restriction_field", "condition_con", "build_mesh",
    "assemble_cylinder", "assemble_cross_section", "smallest_eigenpairs",
]
