"""Exception hierarchy shared across the package.

Each class maps to a distinct CLI exit code (see the `except` clauses of
cli.main and the exit codes in the cli module docstring).
"""


class DebiasForgeError(Exception):
    """Base class for all package errors."""


class ConfigError(DebiasForgeError):
    """Invalid configuration value, key, or combination."""


class DataError(DebiasForgeError):
    """Malformed or inconsistent data (datasets, weights, metrics)."""


class SchemaError(DataError):
    """A file parsed but its shape/schema does not match expectations."""


class NumericError(DebiasForgeError):
    """Non-finite values encountered during computation."""


class DegenerateShallowError(DebiasForgeError):
    """Shallow model stuck at chance accuracy (no passing grid cell)."""
