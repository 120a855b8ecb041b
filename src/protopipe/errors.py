"""The two families every protopipe failure belongs to, and JSON file I/O.

Each module's exceptions subclass one of these, so deciding whether a
failure is the configuration's fault or the data's is made once, here,
and the CLI maps the two bases to its exit codes. A plain ValueError that
belongs to neither is a bug. `read_json` is the one way a loader opens its
file, so a file that cannot be read or parsed raises the loader's family,
and `write_json` is the one JSON writer. Loaders check values with one
JSON type rule: an integer is an `int` and not a `bool`, a number is an
`int` or a `float`, and a string is a `str`.
"""
from __future__ import annotations

import json
from pathlib import Path

NUMBER = (int, float)
JSON_NAMES = {
    dict: "an object", str: "a string", int: "an integer", bool: "a boolean", NUMBER: "a number",
}


class ConfigError(ValueError):
    """The run was set up wrong: config, flags, weights or table layout."""


class DataError(ValueError):
    """The run's input data is wrong: dataset, frames, prototypes or values."""


def read_json(path, error: type[ValueError], what: str):
    """Parse the JSON file at path, raising `error` if that fails."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def write_json(path, doc) -> None:
    """Write doc in canonical form: indent 2, sorted keys, a final newline, UTF-8."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def check_json_type(value, want, error: type[ValueError], where: str):
    """`value`, once it has the JSON type `want`, a key of JSON_NAMES."""
    if isinstance(value, bool) != (want is bool) or not isinstance(value, want):
        raise error(f"{where} must be {JSON_NAMES[want]}, got {value!r}")
    return value


def all_numbers(values) -> bool:
    """True when every entry is a number; one type set per array stays cheap on big tables."""
    return set(map(type, values)) <= {int, float}
