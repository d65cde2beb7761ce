"""The JSON envelope shared by every stage: reading, validation, writing.

Every input file is decoded by one decoder that refuses the NaN and
Infinity literals and any number literal that overflows to infinity (such
as 1e400), so no non-finite number enters the pipeline from a file.
Errors name the file and line: ParseError for malformed data, ConfigError
for configuration documents that do not fit their dataclass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from typing import Iterator, Sequence, Tuple

from .errors import ConfigError, ParseError

_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_LITERAL = re.compile(r"NaN|-?(?:Infinity|\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


class _NonFinite(ValueError):
    pass


def _reject_constant(name: str):
    raise _NonFinite(name)


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):
        raise _NonFinite(literal)
    return value


_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)


def _decode(text: str, path: str, first_line: int):
    """Decode text that starts on line first_line of path."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        line, message = exc.lineno, exc.msg
    except _NonFinite as exc:
        # decoding stopped at the first token spelled like the refused literal;
        # string contents are blanked so that they cannot match
        masked = _STRING.sub(lambda m: " " * len(m.group()), text)
        start = next(m.start() for m in _LITERAL.finditer(masked) if m.group() == str(exc))
        line = masked.count("\n", 0, start) + 1
        message = f"non-finite number {exc}"
    raise ParseError(f"{path}:{first_line + line - 1}: invalid JSON: {message}")


def iter_jsonl(path: str, required: Sequence[str] = ()) -> Iterator[Tuple[int, dict]]:
    """(line number, object) per non-blank line of a JSON-lines file; every
    line must be an object carrying the required keys."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            record = _decode(raw, path, lineno)
            if not isinstance(record, dict):
                raise ParseError(f"{path}:{lineno}: expected a JSON object")
            for key in required:
                if key not in record:
                    raise ParseError(f"{path}:{lineno}: missing key {key!r}")
            yield lineno, record


def read_json(path: str):
    """The single JSON document in path."""
    with open(path, "r", encoding="utf-8") as fh:
        return _decode(fh.read(), path, 1)


def read_config(path: str) -> dict:
    """A configuration document, which must be a JSON object."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


def _is_number(value) -> bool:
    """A finite int or float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def number(record: dict, key: str, path: str, lineno: int) -> float:
    """record[key] as a finite float."""
    value = record[key]
    if not _is_number(value):
        raise ParseError(f"{path}:{lineno}: key {key!r} must be a finite number, got {value!r}")
    return float(value)


def string(record: dict, key: str, path: str, lineno: int) -> str:
    """record[key], which must be a string."""
    value = record[key]
    if not isinstance(value, str):
        raise ParseError(f"{path}:{lineno}: key {key!r} must be a string, got {value!r}")
    return value


def _config_value(path: str, key: str, value, default):
    """value checked against the type of the field's default. Lists become
    tuples of floats where the default is a tuple; ints pass for floats."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: {key!r} must be a list, got {value!r}")
        return tuple(float(_config_value(path, key, item, default[0])) for item in value)
    if isinstance(default, float):
        valid, kind = _is_number(value), "a finite number"
    else:
        valid, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    if not valid:
        raise ConfigError(f"{path}: {key!r} must be {kind}, got {value!r}")
    return value


def load_dataclass(cls, path: str):
    """Build the frozen dataclass cls from the configuration object in path.

    Absent keys keep their defaults and unknown keys are refused; every
    field's default must be a number or a nonempty tuple of numbers.
    """
    doc = read_config(path)
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(f"{path}: unknown {cls.__name__} keys: {unknown}")
    values = {key: _config_value(path, key, value, fields[key]) for key, value in doc.items()}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def dumps(obj) -> str:
    """Compact JSON that refuses non-finite numbers."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)
