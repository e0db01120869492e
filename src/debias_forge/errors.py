"""Exception hierarchy shared across the package, the UTF-8 reader that
maps undecodable input files onto it, the JSON-lines reader of the data
files, and the config digest that the CLI and the dataset header share.

Each class maps to a distinct CLI exit code (see cli.EXIT_CODES and the
exit codes in the cli module docstring).
"""

import hashlib
import json
from contextlib import contextmanager

import orjson

# orjson parses nested values recursively and overflows the C stack (a crash,
# not an exception) on a closed 70 000-deep object; a line's count of '[' and
# '{' bounds its depth, so lines above this count are refused unparsed
MAX_OPENINGS = 1000


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


def read_json_lines(path):
    """Yield (line number, value) for each non-blank line of the JSON-lines
    file at path, read as UTF-8 text. A line that is not one JSON value, or
    that holds more than MAX_OPENINGS '[' and '{', raises DataError.

    Values parse with orjson, which refuses NaN, Infinity, numbers that
    overflow a double and lone-surrogate escapes, and reads an integer
    outside [-2**63, 2**64) as a float."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():  # iterating a file never yields ""
                continue
            # a line no longer than the cap cannot exceed it; skip the count
            if len(line) > MAX_OPENINGS and line.count("[") + line.count("{") > MAX_OPENINGS:
                raise DataError(f"{path}:{lineno}: more than {MAX_OPENINGS} '[' and '{{' "
                                f"on one line")
            try:
                value = orjson.loads(line)
            except (ValueError, RecursionError) as e:  # orjson.JSONDecodeError is a ValueError
                raise DataError(f"{path}:{lineno}: bad JSON line: {e}") from e
            yield lineno, value


def config_digest(cfg: dict) -> str:
    """The first 16 hex digits of the sha256 of cfg as sorted-key JSON."""
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]
