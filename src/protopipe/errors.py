"""The two families every protopipe failure belongs to, and JSON file I/O.

Each module's exceptions subclass one of these, so deciding whether a
failure is the configuration's fault or the data's is made once, here,
and the CLI maps the two bases to its exit codes. A plain ValueError that
belongs to neither is a bug. `read_json` is the one way a loader opens its
file, so a file that cannot be read or parsed raises the loader's family,
and `write_json` is the one JSON writer.

`read_object` is the one reader of the objects in every input file;
`read_json` hands it the top level when given a schema. A schema maps each
key to a JSON type of JSON_NAMES (an integer is an `int`, not a `bool`);
NUMBER, read as a finite float; FLOATS, an array of numbers read as finite
floats; ROWS, FLOATS of one length; a nested schema, for an object; or
`[s]`, an array read entry by entry by `s`. An unknown key, a missing
key not named optional, a mistyped value, a NaN, an infinity or an integer
too large for a float raises the loader's family and names the file.

Every error of both families survives a pickle round trip with its type,
message and attributes, so an error raised in a worker process reaches the
CLI as itself.
"""
from __future__ import annotations

import copyreg
import json
import math
from pathlib import Path

NUMBER = (int, float)
FLOATS = [float]
ROWS = [FLOATS]
JSON_NAMES = {
    dict: "an object", str: "a string", int: "an integer", bool: "a boolean", NUMBER: "a number",
}


def _rebuilt_without_init(self):
    # BaseException.__reduce__ rebuilds an error by calling its class with
    # `args`, the message alone, so a subclass whose __init__ takes other
    # arguments (DecodeError's path and cause) fails to unpickle. This makes
    # the copy with __new__ and restores the attributes, __init__ untouched.
    return copyreg.__newobj__, (type(self), *self.args), self.__dict__ or None


class ConfigError(ValueError):
    """The run was set up wrong: config, flags, weights or table layout."""

    __reduce__ = _rebuilt_without_init


class DataError(ValueError):
    """The run's input data is wrong: dataset, frames, prototypes or values."""

    __reduce__ = _rebuilt_without_init


def read_json(path, error: type[ValueError], what: str, schema=None, optional=()):
    """Parse the JSON file at path, raising `error` if that fails.

    With a schema, the file's top level is read by `read_object`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if schema is None:
        return doc
    return read_object(doc, schema, error, f"{what} {path}", optional=optional)


def write_json(path, doc) -> None:
    """Write doc in canonical form: indent 2, sorted keys, a final newline, UTF-8."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_object(doc, schema: dict, error: type[ValueError], where: str, at="", optional=()):
    """`doc` read by `schema`: a new dict of the keys it has, each value read.

    `where` names the file and `at` the object's key path in it. Every key
    not in `optional` must be present.
    """
    inside = f" in {at}" if at else ""
    if not isinstance(doc, dict):
        raise error(f"bad {where}: {at or 'the document'} must be an object")
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise error(f"bad {where}: unknown key(s) {unknown}{inside}")
    missing = sorted(set(schema) - set(doc) - set(optional))
    if missing:
        raise error(f"bad {where}: missing key(s) {missing}{inside}")
    prefix = f"{at}." if at else ""
    return {key: _read_value(doc[key], schema[key], error, where, prefix + key) for key in doc}


def _read_value(value, want, error: type[ValueError], where: str, at: str):
    if isinstance(want, dict):
        return read_object(value, want, error, where, at)
    label = f"bad {where}: {at}"
    if want == FLOATS:
        return finite_floats(value, error, label)
    if isinstance(want, list):
        if not isinstance(value, list):
            raise error(f"{label} must be an array")
        if isinstance(want[0], type) and set(map(type, value)) <= {want[0]}:
            return value  # one exact type, such as strings, needs no key path per entry
        items = [_read_value(x, want[0], error, where, f"{at}[{i}]") for i, x in enumerate(value)]
        if want == ROWS and len(set(map(len, items))) > 1:
            raise error(f"{label} must be rows of one length")
        return items
    check_json_type(value, want, error, label)
    return finite_floats([value], error, label)[0] if want is NUMBER else value


def finite_floats(values, error: type[ValueError], label: str, nonfinite=None) -> list[float]:
    """`values` as floats, once it is an array of finite numbers.

    A NaN or an infinity raises `nonfinite`, which defaults to `error`.
    """
    # One type set per array stays cheap on big tables, and an array of
    # floats, the usual case, is kept rather than copied.
    if not isinstance(values, list) or not (types := set(map(type, values))) <= {int, float}:
        raise error(f"{label} must be an array of numbers")
    try:
        floats = values if types <= {float} else list(map(float, values))
    except OverflowError as exc:
        raise error(f"{label} holds an integer too large for a float") from exc
    # A finite sum proves every entry finite, so only a non-finite sum, from
    # a NaN, an infinity or an overflow of finite entries, checks each one.
    if not math.isfinite(sum(floats)) and not all(map(math.isfinite, floats)):
        raise (nonfinite or error)(f"{label} holds a non-finite number")
    return floats


def check_json_type(value, want, error: type[ValueError], where: str):
    """`value`, once it has the JSON type `want`, a key of JSON_NAMES."""
    if isinstance(value, bool) != (want is bool) or not isinstance(value, want):
        raise error(f"{where} must be {JSON_NAMES[want]}, got {value!r}")
    return value
