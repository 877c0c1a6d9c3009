"""One line grammar for every text input: run configurations, scenario
tables, B1 aspect tables and RCS sample files.

An input file is UTF-8, with or without a leading byte-order mark. Blank
lines and lines whose first non-blank character is ``#`` are ignored; each
parser above this module sees only the other lines, stripped, with their
1-based line numbers, so every error it raises can name its line. Every
number an input holds is read by ``numbers``: a finite float, or an error
that names where it stands.
"""
import math

from .errors import ConfigError


def read_text(path) -> str:
    """The decoded text of the file at ``path``; ConfigError if it cannot be."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def data_lines(text: str):
    """(line number, stripped line) of each line that is not blank or a comment."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield ln, line


def split_entry(line: str, where: str, seen) -> tuple:
    """The stripped (key, value) of a ``key = value`` line; ``where`` ("line 3")
    labels the errors, and a key already in ``seen`` is refused."""
    key, eq, value = line.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
    if not key:
        raise ConfigError(f"{where}: empty key")
    if key in seen:
        raise ConfigError(f"{where}: duplicate key {key!r}")
    return key, value.strip()


def numbers(text: str, where: str, sep=None) -> list:
    """The floats of ``text`` split at ``sep`` (whitespace by default); a
    part that is not a finite number is refused, labelled ``where``."""
    values = []
    for part in text.split(sep):
        try:
            values.append(float(part))
        except ValueError:
            raise ConfigError(f"{where} expects a number, got {text!r}") from None
        if not math.isfinite(values[-1]):
            raise ConfigError(f"{where} must be finite, got {text!r}")
    return values
