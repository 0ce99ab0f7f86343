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
    """Requested resolution leaves an axis with fewer than 2 cells."""


class MemoryBudget(CylgapError):
    """Node count exceeds the configured cap."""


class DimensionMismatch(CylgapError):
    """Field dimensions do not match the mesh."""


class FactorizationFailed(CylgapError):
    """Factorization failed, or the smallest eigenvalue is not above the
    shift floor: the pencil is not positive definite past the floor."""


class NoConvergence(CylgapError):
    """Eigensolver did not reach the requested residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class TooShort(CylgapError):
    """Cylinder too short for the requested profile fit."""


class NoReflectionSymmetry(CylgapError):
    """Mesh/field pair admits no reflection node permutation."""


class ConditionConFails(CylgapError):
    """Coupling condition required by the experiment does not hold."""


class NotConverged(CylgapError):
    """Length sequence too short for its estimate; carries the sequence."""

    def __init__(self, message, sequence=None):
        super().__init__(message)
        self.sequence = list(sequence) if sequence is not None else []


class ConfigError(CylgapError):
    """Config file problem, with line/key diagnostics."""


class MissingColumn(CylgapError):
    """CSV lacks a requested column (or has no data rows)."""
