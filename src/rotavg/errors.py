"""Exception types shared across the package."""


class RotavgError(Exception):
    """Base class for package-specific failures."""


class SchemaError(RotavgError):
    """Malformed or inconsistent input data (JSON schema, duplicate ids, ...)."""


class DisconnectedGraphError(SchemaError, ValueError):
    """A view graph with no nodes or more than one connected component."""


class DegenerateGeometryError(RotavgError):
    """Numerically degenerate geometry (singular intrinsics, ill-conditioned JtJ)."""


class InsufficientDataError(RotavgError):
    """Not enough observations for the requested computation."""


class ConfigurationError(RotavgError):
    """Mutually inconsistent or unsatisfiable configuration."""


class NumericalError(RotavgError):
    """Non-finite values or a failed numerical step during optimization."""
