"""The two families every protopipe failure belongs to.

Each module's exceptions subclass one of these, so deciding whether a
failure is the configuration's fault or the data's is made once, here,
and the CLI maps the two bases to its exit codes. A plain ValueError that
belongs to neither is a bug. `read_json` is the one way a loader opens its
file, so a file that cannot be read or parsed raises the loader's family.
"""
from __future__ import annotations

import json
from pathlib import Path


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
