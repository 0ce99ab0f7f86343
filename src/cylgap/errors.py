"""Exception types shared across the package."""


class CylgapError(Exception):
    """Base class for all package-specific errors."""


class NotElliptic(CylgapError):
    """A sampled coefficient matrix has a non-positive eigenvalue."""


class SingularBlock(CylgapError):
    """The axial coefficient block is numerically singular."""


class MeshMismatch(CylgapError):
    """Vector, field, or companion mesh does not match the expected mesh."""


class BadResolution(CylgapError):
    """Requested resolution leaves an axis with fewer than 2 cells, or a
    pencil with no more unknowns than the eigenpairs asked of it."""


MEMORY_BUDGET = 2**30  # bytes: the most a band factor, or a mesh, may take


class MemoryBudget(CylgapError):
    """A mesh or a band factor would take more than ``MEMORY_BUDGET``
    bytes."""


class DimensionMismatch(CylgapError):
    """Field dimensions do not match the mesh."""


class FactorizationFailed(CylgapError):
    """Factorization failed, or the smallest eigenvalue is not above the
    shift floor: the pencil is not positive definite past the floor."""


class NoConvergence(CylgapError):
    """Eigensolver did not reach the requested residual; the message
    holds the best residual it reached."""


class TooShort(CylgapError):
    """Cylinder too short for the requested profile fit."""


class NoReflectionSymmetry(CylgapError):
    """No point reflection maps the problem onto itself: a mesh does not
    mirror about 0 (``TensorMesh.mirrored``), or a field's pencil is not
    ``point_symmetric`` (property (S))."""


class ConditionConFails(CylgapError):
    """Coupling condition required by the experiment does not hold."""


class NotConverged(CylgapError):
    """Length sequence too short for its estimate; the message holds the
    values it solved."""


class ConfigError(CylgapError):
    """Config file problem, with line/key diagnostics."""


class MissingColumn(CylgapError):
    """CSV lacks a requested column (or has no data rows)."""
