"""The error taxonomy: every failure is a ConfigError or a DataError.

The CLI maps the two classes to exit codes 2 and 3, so these tests pin that
protopipe defines no other exception class, which of the two each fault
raises and with what message, and that the parsers raise nothing else.
"""
from __future__ import annotations

import copy
import errno
import importlib
import inspect
import json
import math
import os
import pickle
import pkgutil
import re
import stat
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import protopipe
from protopipe import errors
from protopipe.adaptation import (
    TransformerWeights,
    attention_matrices,
    centering_adapter_weights,
    load_transformer_weights,
    save_transformer_weights,
    values_layout,
)
from protopipe.clip_sampling import SamplerConfig, sample_clips
from protopipe.config import load_config
from protopipe.embedding import (
    EmbedderSpec,
    PrecomputedTable,
    load_precomputed,
    load_projection_spec,
)
from protopipe.errors import ConfigError, DataError
from protopipe.evaluation import arm_runtime
from protopipe.frame_validity import EdgeFilterConfig, is_frame_valid
from protopipe.media_io.loader import LoaderConfig, load_frames_parallel
from protopipe.media_io.manifest import DatasetManifest, load_manifest, parse_manifest
from protopipe.media_io.pnm import Frame, decode_pnm
from protopipe.media_io.synthetic import GeneratorSpec, generate_synthetic_dataset
from protopipe.numerics import Matrix, matmul, mean_vectors
from protopipe.protonet import Prototypes, compute_prototypes, load_prototypes


def test_protopipe_defines_exactly_two_exception_classes():
    modules = [protopipe] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(protopipe.__path__, "protopipe.")
    ]
    assert "protopipe.media_io.pnm" in [m.__name__ for m in modules]  # subpackages walked
    classes = {
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    }
    assert classes == {ConfigError, DataError}
    # An error that holds only its message pickles natively: no workaround.
    assert not hasattr(errors, "copyreg")
    assert "__reduce__" not in vars(ConfigError) and "__reduce__" not in vars(DataError)


def test_every_family_error_survives_a_pickle_round_trip():
    # An error raised in a worker process reaches the CLI pickled: it must
    # come back as the same type and message, not as a pool failure.
    for family in (ConfigError, DataError):
        error = family("a message")
        copy = pickle.loads(pickle.dumps(error))
        assert (type(copy), str(copy), copy.args) == (family, "a message", ("a message",))


def written(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


BAD_KIND = {"users": [{"user_id": "u", "objects": [{"label": "a", "videos": [
    {"video_id": "v", "kind": "x", "frames": ["f"]},
]}]}]}

# One row per exception class protopipe once defined beside the two: a call
# that raised that class, the class it raises now, and its exact message as
# it read then, with {tmp} standing for the test's temporary directory.
FORMER_CLASSES = {
    "ManifestError": (
        lambda tmp: parse_manifest({"users": 5}, Path(".")),
        DataError, "bad manifest: users must be an array",
    ),
    "InvariantViolation": (
        lambda tmp: parse_manifest(BAD_KIND, Path(".")),
        DataError,
        "bad manifest: users[0].objects[0].videos[0].kind: 'x' is not 'clean' or 'clutter'",
    ),
    "UnknownId": (
        lambda tmp: DatasetManifest([]).user("x"), DataError, "unknown user 'x' in dataset",
    ),
    "PnmError": (lambda tmp: decode_pnm(b""), DataError, "too short for a PNM header"),
    "MalformedHeader": (lambda tmp: decode_pnm(b"P7"), DataError, "unknown magic b'P7'"),
    "UnsupportedMaxval": (
        lambda tmp: decode_pnm(b"P5 1 1 65535\n\0"),
        DataError, "maxval 65535, only 255 is supported",
    ),
    "TruncatedPayload": (
        lambda tmp: decode_pnm(b"P5 2 2 255\n\0"), DataError, "payload is 1 bytes, expected 4",
    ),
    "DecodeError": (
        lambda tmp: load_frames_parallel([str(written(tmp / "bad.pgm", b"P7"))], LoaderConfig()),
        DataError, "{tmp}/bad.pgm: unknown magic b'P7'",
    ),
    "IoError": (
        lambda tmp: generate_synthetic_dataset(GeneratorSpec(), written(tmp / "file", b"x")),
        OSError, "cannot write dataset under {tmp}/file: [Errno 17] File exists: '{tmp}/file'",
    ),
    "InsufficientFrames": (
        lambda tmp: sample_clips(3, SamplerConfig(clip_length=8), 0),
        DataError, "3 frames cannot fit a 8-frame clip",
    ),
    "FrameTooSmall": (
        lambda tmp: is_frame_valid(Frame(2, 2, 1, bytes(4)), EdgeFilterConfig()),
        DataError, "2x2: Sobel needs at least 3x3",
    ),
    "UnsupportedChannels": (
        lambda tmp: Frame(3, 3, 2, bytes(18)), DataError, "unsupported channel count 2",
    ),
    "EmptyInput": (lambda tmp: mean_vectors([]), DataError, "mean of no vectors"),
    "DimensionMismatch": (
        lambda tmp: matmul(Matrix.zeros(1, 2), Matrix.zeros(3, 1)),
        ConfigError, "cannot multiply 1x2 by 3x1",
    ),
    "MissingFrameEmbedding": (
        lambda tmp: PrecomputedTable(2, {}).vector("v", 0),
        DataError, "no embedding for frame 0 of video 'v'",
    ),
    "InconsistentDim": (
        lambda tmp: load_precomputed(
            written(tmp / "t.json", b'{"dim": 2, "videos": {"v0": [[1.0, 2.0, 3.0]]}}')
        ),
        ConfigError, "bad embeddings file {tmp}/t.json: video 'v0' frame 0 has dim 3, expected 2",
    ),
    "EmptyClass": (
        lambda tmp: compute_prototypes([("a", [])]), DataError, "class 'a' has no clip embeddings",
    ),
    "ShapeMismatch": (
        lambda tmp: attention_matrices(Matrix.zeros(1, 3), centering_adapter_weights(2)),
        ConfigError, "prototypes: expected shape (1, 2), got (1, 3)",
    ),
    "UnknownArm": (
        lambda tmp: arm_runtime(None, "x"),
        ConfigError, "unknown ablation arm 'x'; expected one of baseline, adapt, uniform, filter",
    ),
}


@pytest.mark.parametrize("former", list(FORMER_CLASSES))
def test_each_former_class_keeps_its_family_and_message(former, tmp_path):
    call, family, message = FORMER_CLASSES[former]
    message = message.replace("{tmp}", str(tmp_path))
    with pytest.raises(family, match=f"^{re.escape(message)}$") as info:
        call(tmp_path)
    assert type(info.value) is family
    copy = pickle.loads(pickle.dumps(info.value))
    assert (type(copy), str(copy)) == (family, message)


# --- parsers raise only their documented families, whatever the input ---

# Bounded and derandomized so that a slow host cannot make these flaky.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and infinities too: json writes and reads them
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)
EYE = [[1.0, 0.0], [0.0, 1.0]]
VALID = {
    load_manifest: {
        "users": [
            {
                "user_id": "u",
                "objects": [
                    {
                        "label": label,
                        "videos": [
                            {"video_id": f"{label}{kind}", "kind": kind, "frames": ["f.ppm"]}
                            for kind in ("clean", "clutter")
                        ],
                    }
                    for label in ("a", "b")
                ],
            }
        ]
    },
    load_config: {
        "sampler": {
            "clip_length": 8, "clips_per_video": 2, "policy": "uniform",
            "within_chunk": "middle",
        },
        "edge_filter": {"tau_mag": 32.0, "tau_density": 0.01, "enabled": True},
        "embedder": {"kind": "patch_projection", "grid": 8, "channels": 3, "dim": 16},
        "adapter": "none",
        "seed": 0,
    },
    load_projection_spec: {"grid": 1, "channels": 1, "dim": 2, "projection": [[1.0, 0.0]]},
    load_precomputed: {"dim": 2, "videos": {"v0": [[1.0, 2.0], [3.0, 4.0]]}},
    # The values file is written beside every document by `doc_path`.
    load_transformer_weights: {"d": 2, "h": 1, "d_ff": 2, "eps": 1e-5, "values": "adapter.f64"},
    load_prototypes: {
        "user_id": "u", "labels": ["a", "b"], "dim": 2, "raw": EYE, "adapted": EYE,
        "config_digest": "d",
    },
}


def json_paths(doc, prefix=()):
    """The key path of every value in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from json_paths(value, prefix + (key,))


@st.composite
def near_valid(draw, valid):
    """`valid` with the value at one of its paths replaced by arbitrary JSON."""
    path = draw(st.sampled_from(list(json_paths(valid))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    doc = copy.deepcopy(valid)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    """Where each test writes its document, beside the adapter values its header names."""
    path = tmp_path_factory.mktemp("parsers") / "doc.json"
    save_transformer_weights(centering_adapter_weights(2), path.with_name("adapter.json"))
    return path


@pytest.mark.parametrize("loader", list(VALID), ids=lambda f: f.__name__)
def test_loaders_raise_only_their_families(loader, doc_path):
    doc_path.write_text(json.dumps(VALID[loader]), encoding="utf-8")
    loader(doc_path)  # the documents mutated below start out valid
    doc_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises((ConfigError, DataError), match="not valid JSON"):
        loader(doc_path)  # json.loads raises RecursionError at this depth

    @PROPERTY
    @given(JSON_VALUES | near_valid(VALID[loader]))
    def check(value):
        doc_path.write_text(json.dumps(value), encoding="utf-8")
        try:
            loader(doc_path)
        except (ConfigError, DataError):
            pass

    check()


PNM_PREFIXES = st.sampled_from(
    [b"", b"P5", b"P6", b"P5\n", b"P6 2 2 255\n", b"P5\n1 1\n255\n",
     b"P5 # c\n3 1 255 ", b"P6\n1 1\n65535\n"]
)


@PROPERTY
@given(PNM_PREFIXES, st.binary(max_size=48))
def test_decode_pnm_raises_only_pnm_errors(prefix, tail):
    try:
        decode_pnm(prefix + tail)
    except DataError:
        pass


# --- weights, table and prototypes files follow the config's JSON type rule ---

# (loader, key path into its VALID document, wrong-typed value). Each of
# these used to be converted silently: "1" or 1.9 to 1, true to 1.0, 7 to "7".
WRONG_TYPES = [
    (load_projection_spec, ("grid",), "1"),
    (load_projection_spec, ("grid",), 1.9),
    (load_projection_spec, ("dim",), "2"),
    (load_projection_spec, ("projection", 0, 0), True),
    (load_projection_spec, ("projection", 0, 1), "0.5"),
    (load_transformer_weights, ("eps",), True),
    (load_transformer_weights, ("eps",), "0.5"),
    (load_transformer_weights, ("d",), "2"),
    (load_transformer_weights, ("h",), 1.7),
    (load_transformer_weights, ("d_ff",), 2.0),
    (load_transformer_weights, ("values",), 7),
    (load_transformer_weights, ("values",), ["adapter.f64"]),
    (load_precomputed, ("videos", "v0", 0), [True, "1.5"]),
    (load_prototypes, ("user_id",), 7),
    (load_prototypes, ("labels",), [1, 2]),
    (load_prototypes, ("labels",), "ab"),
    (load_prototypes, ("config_digest",), None),
    (load_prototypes, ("dim",), 2.0),
    (load_prototypes, ("raw", 0, 0), True),
    (load_prototypes, ("adapted", 1, 1), "0"),
]
FAMILY = {load_manifest: DataError, load_prototypes: DataError}  # weights, tables: config


@pytest.mark.parametrize(
    "loader, path, value",
    WRONG_TYPES,
    ids=[f"{f.__name__}-{'.'.join(map(str, p))}-{v!r}" for f, p, v in WRONG_TYPES],
)
def test_wrong_json_type_is_rejected(loader, path, value, doc_path):
    doc = copy.deepcopy(VALID[loader])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FAMILY.get(loader, ConfigError)):
        loader(doc_path)


# --- one reader: an extra key or a non-finite number is caught at load ---

# Every object level of each document, as a key path. The table's `videos`
# maps ids of the user's choosing, so it is no such level.
OBJECT_LEVELS = {
    load_manifest: [(), ("users", 0), ("users", 0, "objects", 0),
                    ("users", 0, "objects", 0, "videos", 0)],
    load_config: [(), ("sampler",), ("edge_filter",), ("embedder",)],
    load_projection_spec: [()],
    load_precomputed: [()],
    load_transformer_weights: [()],
    load_prototypes: [()],
}
# A NaN or an infinity in a table row is the data's fault, as in prototypes.
NON_FINITE_FAMILY = {load_precomputed: DataError, load_prototypes: DataError}


def number_arrays(doc):
    """The key path of every nonempty array of numbers in a document."""
    for path in json_paths(doc):
        value = doc
        for key in path:
            value = value[key]
        if isinstance(value, list) and value and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
        ):
            yield path


def reader_cases():
    for loader, levels in OBJECT_LEVELS.items():
        family = FAMILY.get(loader, ConfigError)
        for path in levels:
            yield pytest.param(
                loader, path + ("esp",), 1e-5, family,
                id=f"{loader.__name__}-extra-key-at-{'.'.join(map(str, path)) or 'top'}",
            )
        for path in number_arrays(VALID[loader]):
            for value in (math.nan, math.inf):
                yield pytest.param(
                    loader, path + (0,), value, NON_FINITE_FAMILY.get(loader, ConfigError),
                    id=f"{loader.__name__}-{'.'.join(map(str, path))}-{value}",
                )


@pytest.mark.parametrize("loader, path, value, family", list(reader_cases()))
def test_extra_keys_and_non_finite_numbers_are_rejected_at_load(
    loader, path, value, family, doc_path
):
    doc = copy.deepcopy(VALID[loader])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(family, match=re.escape(str(doc_path))):
        loader(doc_path)


def adapter_value_offsets():
    """(tensor, offset of its first value) for every tensor of VALID's adapter values file."""
    offset = 0
    for name, shape in values_layout(2, 1, 2):
        yield name, offset
        offset += math.prod(shape)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("tensor, offset", list(adapter_value_offsets()))
def test_a_non_finite_adapter_value_is_rejected_naming_the_values_file_and_tensor(
    tensor, offset, value, tmp_path
):
    header = tmp_path / "adapter.json"
    save_transformer_weights(centering_adapter_weights(2), header)
    values = tmp_path / "adapter.f64"
    planted = bytearray(values.read_bytes())
    planted[8 * offset : 8 * offset + 8] = struct.pack("<d", value)
    values.write_bytes(planted)
    message = (
        f"bad adapter weights {header}: values file {values}: "
        f"{tensor}[0] holds a non-finite number {value!r}"
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_transformer_weights(header)


@pytest.mark.parametrize(
    "loader, key",
    [(load_projection_spec, "projection"), (load_prototypes, "raw")],
    ids=["projection", "prototypes-raw"],
)
def test_ragged_rows_are_rejected_naming_the_file(loader, key, doc_path):
    doc = copy.deepcopy(VALID[loader])
    doc[key] = doc[key] + [[1.0]]
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FAMILY.get(loader, ConfigError), match=re.escape(str(doc_path))):
        loader(doc_path)


# --- a loader only reads its file: the record's constructor checks it ---

# fault -> (loader, what its prefix calls the file, top-level keys that make
# its VALID document one the record rejects, that record built in code, the
# loader's family).
CONSTRUCTOR_FAULTS = {
    "projection-dim": (
        load_projection_spec, "projection file", {"dim": 1, "projection": [[1.0]]},
        lambda: EmbedderSpec(1, 1, 1, Matrix.from_rows([[1.0]])), ConfigError,
    ),
    "adapter-eps": (
        load_transformer_weights, "adapter weights", {"eps": 0.0},
        lambda: replace(centering_adapter_weights(2), eps=0.0), ConfigError,
    ),
    "table-dim": (
        load_precomputed, "embeddings file", {"dim": 1},
        lambda: PrecomputedTable(1, {}), ConfigError,
    ),
    "table-null-row": (
        load_precomputed, "embeddings file", {"videos": {"v0": [None]}},
        lambda: PrecomputedTable(2, {"v0": [None]}), DataError,
    ),
    "prototypes-norm": (
        load_prototypes, "prototypes file", {"raw": [[1e308, 1e308], [0.0, 1.0]]},
        lambda: Prototypes(
            "u", ("a", "b"), Matrix.from_rows([[1e308, 1e308], [0.0, 1.0]]),
            Matrix.from_rows(EYE), "d",
        ),
        DataError,
    ),
    # A ConfigError in code; every fault in a prototypes file is a DataError.
    "prototypes-labels": (
        load_prototypes, "prototypes file", {"labels": ["a", "b", "c"]},
        lambda: Prototypes("u", ("a", "b", "c"), Matrix.from_rows(EYE), Matrix.from_rows(EYE), "d"),
        DataError,
    ),
    # No file the reader passes makes these two records raise a DataError,
    # so one is planted in their checks: it keeps its family and gains the file.
    "projection-data-fault": (
        load_projection_spec, "projection file", {},
        lambda: EmbedderSpec(1, 1, 2, Matrix.zeros(1, 2)), DataError,
    ),
    "adapter-data-fault": (
        load_transformer_weights, "adapter weights", {},
        lambda: centering_adapter_weights(2), DataError,
    ),
}


def planted_data_fault(record):
    raise DataError(f"a fault planted in {type(record).__name__}")


PLANTED = {
    "projection-data-fault": EmbedderSpec,
    "adapter-data-fault": TransformerWeights,
}


@pytest.mark.parametrize("fault", list(CONSTRUCTOR_FAULTS))
def test_a_constructor_fault_comes_back_in_the_loaders_family_naming_the_file(
    fault, doc_path, monkeypatch
):
    loader, what, keys, build, family = CONSTRUCTOR_FAULTS[fault]
    if fault in PLANTED:
        monkeypatch.setattr(PLANTED[fault], "__post_init__", planted_data_fault)
    with pytest.raises((ConfigError, DataError)) as built:
        build()
    doc_path.write_text(json.dumps({**VALID[loader], **keys}), encoding="utf-8")
    message = f"bad {what} {doc_path}: {built.value}"
    with pytest.raises(family, match=f"^{re.escape(message)}$") as loaded:
        loader(doc_path)
    assert type(loaded.value) is family


# Each kind of file the one writer writes: its name, its writer, a first
# document, and a document too big for a 4 KiB file-size limit.
WRITES = {
    "json": ("doc.json", "write_json", {"rows": [[0.5, 1.5]]}, {"rows": [[0.25] * 64] * 64}),
    "values": ("w.f64", "write_float64", [0.5, 1.5], [0.25] * 4096),
}


class TestOneWriter:
    """`errors.write_text`, under `write_json`, `write_float64` and the CLI's audit,
    replaces a file whole."""

    @pytest.mark.parametrize("kind", list(WRITES))
    def test_a_write_that_fails_partway_leaves_the_previous_file(self, tmp_path, kind):
        name, writer, first, big = WRITES[kind]
        path = tmp_path / name
        getattr(errors, writer)(path, first)
        before = path.read_bytes()
        # A file-size limit makes the write fail after its first 4 KiB, in
        # a child so that the limit does not outlive it.
        code = (
            "import resource, sys\n"
            f"from protopipe.errors import {writer}\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))\n"
            "try:\n"
            f"    {writer}(sys.argv[1], {big!r})\n"
            "except OSError as exc:\n"
            "    print(exc.errno)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(protopipe.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == str(errno.EFBIG)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kind", list(WRITES))
    def test_a_failed_rename_leaves_the_previous_file(self, tmp_path, monkeypatch, kind):
        name, writer, first, big = WRITES[kind]
        path = tmp_path / name
        getattr(errors, writer)(path, first)
        before = path.read_bytes()

        def failing(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(errors.os, "replace", failing)
        with pytest.raises(KeyboardInterrupt):
            getattr(errors, writer)(path, big)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_a_new_file_has_a_plain_writes_mode(self, umask, tmp_path):
        old = os.umask(umask)
        try:
            (tmp_path / "plain").write_text("x")
            errors.write_text(tmp_path / "atomic", "x")
            errors.write_text(tmp_path / "atomic", "y")
        finally:
            os.umask(old)
        plain, atomic = ((tmp_path / name).stat().st_mode for name in ("plain", "atomic"))
        assert atomic == plain == stat.S_IFREG | (0o666 & ~umask)
        assert (tmp_path / "atomic").read_text() == "y"
