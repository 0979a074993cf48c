"""Exception types shared across the package, and the search that picks the
error a batch of records raises."""

import numpy as np


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


def raise_first_failure(rules, error, fields=lambda row: {}):
    """Raise ``error`` for the first row that breaks one of ``rules``, if any.

    The one first-fault search, for one record (one row) and for a batch.
    ``rules`` are (message, passed) pairs in check order, each ``passed`` one
    bool for all rows or an (N,) mask.  The message is that of the row's first
    failed rule, formatted with ``fields(row)``.  When every rule passes it
    returns before building any array, as cheap as a loop over the rules.
    """
    rules = list(rules)
    if all(p.all() if isinstance(p, np.ndarray) else p for _, p in rules):
        return
    passed = np.broadcast_arrays(*(np.asarray(p, dtype=bool) for _, p in rules))
    bad = np.flatnonzero(np.logical_not(np.logical_and.reduce(passed)))
    if len(bad):  # a rule that fails for all rows of an empty batch fails none
        row = int(bad[0])
        message = next(m for (m, _), p in zip(rules, passed) if not p.flat[row])
        raise error(message.format_map(fields(row)))
