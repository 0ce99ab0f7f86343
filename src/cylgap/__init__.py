"""cylgap: finite-element eigenvalue lab for mixed-boundary spectra on
elongating cylinders.

The operator is -div(A(X2) grad u) on (-ell, ell)^p x omega with Dirichlet
conditions on the lateral boundary and natural conditions on the ends.
The experiments quantify how the first eigenvalues behave as ell shrinks
to zero (dimension reduction to a Schur-complement pencil) or grows to
infinity (end concentration, the spectral gap below the cross-section
eigenvalue, half-cylinder limits, and the collapsing second eigenvalue).
"""

import os

# One OpenBLAS thread unless the caller set OPENBLAS_NUM_THREADS: OpenBLAS
# reads it once, when the imports below first load numpy and scipy, and
# LAPACK's threaded band factor (dpbtrf) rounds differently at 2 threads
# on the 3D band.  The variable is removed again once they are loaded, so
# os.environ is left as it was found.
_ONE_BLAS_THREAD = "OPENBLAS_NUM_THREADS" not in os.environ
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .coeff import (CoefficientField, asymmetric_model_field,
                        diagonal_field, field_from_table, identity_field,
                        model_field, multi_model_field, neg_coupling_field,
                        piecewise_constant_field, row_restriction_field,
                        variable_a22_field)
    from .grid import TensorMesh, build_mesh
    from .assemble import (KroneckerForm, assemble_cross_section,
                           assemble_cylinder)
    from .eig import EigenPair, smallest_eigenpairs
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

__all__ = [
    "CoefficientField", "TensorMesh", "KroneckerForm", "EigenPair",
    "model_field", "identity_field", "diagonal_field",
    "asymmetric_model_field", "variable_a22_field", "neg_coupling_field",
    "multi_model_field", "piecewise_constant_field", "field_from_table",
    "row_restriction_field", "build_mesh",
    "assemble_cylinder", "assemble_cross_section", "smallest_eigenpairs",
]
