"""The two exception classes every protopipe failure raises, and file I/O: JSON and packed floats.

Every fault is a ConfigError or a DataError whose message names it; the
CLI maps the two to its exit codes, and a caller tells faults apart by the
message. A plain ValueError that belongs to neither is a bug. An error
holds its message alone, so it pickles as itself from a worker process.
`read_json` is the one way a loader opens its file, so a file that cannot
be read or parsed raises the loader's family, and `write_json` is the one
JSON writer. `write_text` is the one writer of protopipe's files, the JSON
files, the audit JSONL and packed float64 values: it writes a temporary
file beside the target and renames it over the target, so a write that
fails partway leaves the previous file as it was. `read_float64` is the one
reader of a packed values file, and `write_float64` writes one. The
reader checks the file's size first, then reads it chunk by chunk, one
tensor each, into arrays of exactly their size, so a load holds its
values once: loading the rigged adapter's 222,336 values (1.70 MiB) peaks
at 1.73 MiB under tracemalloc.

`read_object` is the one reader of the objects in every input file;
`read_json` hands it the top level when given a schema. A schema maps each
key to a JSON type of JSON_NAMES (an integer is an `int`, not a `bool`);
NUMBER, read as a finite float; FLOATS, an array of numbers read as finite
floats; ROWS, FLOATS of one length; a nested schema, for an object; or
`[s]`, an array read entry by entry by `s`. An unknown key, a missing
key not named optional, a mistyped value, a NaN, an infinity or an integer
too large for a float raises the loader's family and names the file.
Given `build`, `read_object` returns the record `build` makes of the values
read, and a fault the record's own checks raise names the file too: it is a
DataError when the file's family or the fault is one, else a ConfigError.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys
from array import array
from contextlib import suppress
from pathlib import Path

NUMBER = (int, float)
FLOATS = [float]
ROWS = [FLOATS]
JSON_NAMES = {
    dict: "an object", str: "a string", int: "an integer", bool: "a boolean", NUMBER: "a number",
}
BIG_ENDIAN = sys.byteorder == "big"  # a values file is little-endian on every host


class ConfigError(ValueError):
    """The run was set up wrong: config, flags, weights or table layout."""


class DataError(ValueError):
    """The run's input data is wrong: dataset, frames, prototypes or values."""


def read_json(path, error: type[ValueError], what: str, schema=None, optional=(), build=None):
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
    del text  # not held while `build` makes a record, which may be large
    if schema is None:
        return doc
    return read_object(doc, schema, error, f"{what} {path}", optional=optional, build=build)


def write_json(path, doc) -> None:
    """Write doc in canonical form: indent 2, sorted keys, a final newline, UTF-8."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_text(path, text: str | bytes) -> None:
    """Replace the file at path with text, UTF-8, or with bytes as they are, all at once.

    The data goes to a new temporary file in the target's directory, which
    `os.replace` then renames over the target. The temporary file is
    created with mode 0o666 less the umask, as a plain write creates a new
    file, and is removed if anything fails before the rename.
    """
    path = Path(path)
    data = text.encode("utf-8") if isinstance(text, str) else text
    for n in itertools.count():
        temp = path.with_name(f".{path.name}.{os.getpid()}.{n}.tmp")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "wb") as out:
            out.write(data)
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise


def write_float64(path, values) -> None:
    """Write the floats of `values`, in order, as little-endian float64, by `write_text`."""
    packed = array("d", values)
    if BIG_ENDIAN:
        packed.byteswap()
    write_text(path, packed.tobytes())


def read_float64(path, count: int, error: type[ValueError], what: str, layout) -> list[array]:
    """The `count` little-endian float64 values of the file at path, one `array('d')` a chunk.

    The file must hold exactly `count` * 8 bytes; only then is `layout()`
    called, for the (name, shape) of every chunk in file order, whose
    sizes add up to `count`. Each chunk is read into its own array of
    exactly its size. One sum per chunk tests its values for finiteness;
    only when it fails are they walked, and the first NaN or infinity is
    named `<name>[<index in the chunk>]`. Every fault raises `error`,
    naming `what` and the file.
    """
    chunks = []
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size == 8 * count:
                for name, shape in layout():
                    values = array("d", [0.0]) * math.prod(shape)
                    if f.readinto(values) != 8 * len(values):
                        raise EOFError(f"the file ends inside {name}")
                    chunks.append((name, values))
    except (OSError, EOFError, ValueError) as exc:  # ValueError: a NUL in the path
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if size != 8 * count:
        raise error(f"{what} {path} has {size} bytes, expected {8 * count} ({count} float64s)")
    for name, values in chunks:
        if BIG_ENDIAN:
            values.byteswap()
        if not all_finite(values):
            i = next(i for i, x in enumerate(values) if not math.isfinite(x))
            raise error(f"{what} {path}: {name}[{i}] holds a non-finite number {values[i]!r}")
    return [values for _, values in chunks]


def read_object(
    doc, schema: dict, error: type[ValueError], where: str, at="", optional=(), build=None
):
    """`doc` read by `schema`: a new dict of the keys it has, each value read.

    `where` names the file and `at` the object's key path in it. Every key
    not in `optional` must be present. Given `build`, the result is
    `build(values)`, and a fault it raises is named `bad <where>: [<at>: ]`.
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
    values = {key: _read_value(doc[key], schema[key], error, where, prefix + key) for key in doc}
    if build is None:
        return values
    try:
        return build(values)
    except (ConfigError, DataError) as exc:
        family = DataError if error is DataError or isinstance(exc, DataError) else ConfigError
        raise family(f"bad {where}: {at}{': ' if at else ''}{exc}") from exc


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
    if not all_finite(floats):
        raise (nonfinite or error)(f"{label} holds a non-finite number")
    return floats


def all_finite(values) -> bool:
    """Whether every float of `values` is finite."""
    # A finite sum proves every entry finite, so only a non-finite sum, from
    # a NaN, an infinity or an overflow of finite entries, checks each one.
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def check_json_type(value, want, error: type[ValueError], where: str):
    """`value`, once it has the JSON type `want`, a key of JSON_NAMES."""
    if isinstance(value, bool) != (want is bool) or not isinstance(value, want):
        raise error(f"{where} must be {JSON_NAMES[want]}, got {value!r}")
    return value
