"""The JSON envelope shared by every stage: reading, validation, writing.

Every input refuses the NaN and Infinity literals, and any byte that is not
UTF-8, when it is decoded. A number literal that overflows to infinity (such
as 1e400) is refused where it is read. A JSON document (a configuration, the
weights, the map) refuses it when it is decoded, so the error names the
literal's line. A JSON-lines record is decoded without that check, since it
costs a Python call per float literal: every number a stage reads from a
record goes through number() or rows(), which refuse it with the record's
"path:line", and numbers that no stage reads are not checked.
Errors name the file and line: ParseError for malformed data, ConfigError
for configuration documents that do not fit their dataclass.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from itertools import chain
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
_RECORD_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _decode(text: str, path: str, first_line: int, decoder: json.JSONDecoder = _DECODER):
    """Decode text that starts on line first_line of path. The file was read
    with errors="surrogateescape", so a byte that is not UTF-8 is a lone
    surrogate here, and only a text with a non-ASCII character can hold one."""
    try:
        if not text.isascii():
            text.encode("utf-8")
        return decoder.decode(text)
    except UnicodeEncodeError as exc:
        line = text.count("\n", 0, exc.start) + 1
        message = f"invalid UTF-8 byte 0x{ord(text[exc.start]) - 0xDC00:02x}"
    except json.JSONDecodeError as exc:
        line, message = exc.lineno, f"invalid JSON: {exc.msg}"
    except _NonFinite as exc:
        # decoding stopped at the first token spelled like the refused literal;
        # string contents are blanked so that they cannot match
        masked = _STRING.sub(lambda m: " " * len(m.group()), text)
        start = next(m.start() for m in _LITERAL.finditer(masked) if m.group() == str(exc))
        line = masked.count("\n", 0, start) + 1
        message = f"invalid JSON: non-finite number {exc}"
    raise ParseError(f"{path}:{first_line + line - 1}: {message}")


def iter_jsonl(path: str, required: Sequence[str] = ()) -> Iterator[Tuple[str, dict]]:
    """(location, object) per non-blank line of a JSON-lines file, where the
    location "path:line" starts every error about that line; every line must
    be an object carrying the required keys."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            record = _decode(raw, path, lineno, _RECORD_DECODER)
            where = f"{path}:{lineno}"
            if not isinstance(record, dict):
                raise ParseError(f"{where}: expected a JSON object")
            for key in required:
                if key not in record:
                    raise ParseError(f"{where}: missing key {key!r}")
            yield where, record


def read_json(path: str):
    """The single JSON document in path."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
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


def number(record: dict, key: str, where: str) -> float:
    """record[key] as a finite float; where locates the record in errors."""
    value = record[key]
    if not _is_number(value):
        raise ParseError(f"{where}: key {key!r} must be a finite number, got {value!r}")
    return float(value)


def string(record: dict, key: str, where: str) -> str:
    """record[key], which must be a string."""
    value = record[key]
    if not isinstance(value, str):
        raise ParseError(f"{where}: key {key!r} must be a string, got {value!r}")
    return value


# Row entries are times, positions, kinematics and sub-costs. Bounding their
# size keeps their squares, and the squared distances between positions,
# finite; quotients by a time step (the tuner's finite differences) are not
# bounded by it.
MAX_ROW_NORM = 1e100


def rows(record, key: str, width: int, where: str) -> list:
    """record[key] as a list of lists whose first width entries are numbers
    with a Euclidean norm of at most MAX_ROW_NORM; later entries are not read,
    and are checked only not to be booleans."""
    value = record.get(key) if isinstance(record, dict) else None
    try:
        # one C call per row refuses non-numbers and ints beyond the float range,
        # and one pass over every entry refuses booleans, which hypot takes as 0 and 1
        if isinstance(value, list) and all(
            isinstance(row, list) and len(row) >= width and math.hypot(*row[:width]) <= MAX_ROW_NORM
            for row in value
        ) and bool not in set(map(type, chain.from_iterable(value))):
            return value
    except (TypeError, OverflowError):
        pass
    raise ParseError(
        f"{where}: {key!r} must be a list of rows of {width}+ numbers "
        f"of norm at most {MAX_ROW_NORM}"
    )


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
