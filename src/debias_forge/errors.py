"""Exception hierarchy shared across the package, and the UTF-8 reader that
maps undecodable input files onto it.

Each class maps to a distinct CLI exit code (see the `except` clauses of
cli.main and the exit codes in the cli module docstring).
"""

from contextlib import contextmanager


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


@contextmanager
def open_text(path, error=DataError):
    """Open path for reading as UTF-8 text; bytes that are not UTF-8 raise
    `error` (DataError for data files, ConfigError for config files)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e}") from e
