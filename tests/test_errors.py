"""The error taxonomy: every failure is a ConfigError or a DataError.

The CLI maps the two bases to exit codes 2 and 3, so these tests pin which
side each exception is on and that the parsers raise nothing else.
"""
from __future__ import annotations

import copy
import importlib
import inspect
import json
import math
import pickle
import pkgutil
import re

import pytest
from hypothesis import given, settings, strategies as st

import protopipe
from protopipe.adaptation import ShapeMismatch, load_transformer_weights
from protopipe.clip_sampling import InsufficientFrames
from protopipe.config import load_config
from protopipe.embedding import (
    InconsistentDim,
    MissingFrameEmbedding,
    load_precomputed,
    load_projection_spec,
)
from protopipe.errors import ConfigError, DataError
from protopipe.evaluation import UnknownArm
from protopipe.frame_validity import FrameTooSmall, UnsupportedChannels
from protopipe.media_io.loader import DecodeError
from protopipe.media_io.manifest import ManifestError, UnknownId, load_manifest
from protopipe.media_io.pnm import PnmError, decode_pnm
from protopipe.media_io.synthetic import IoError
from protopipe.numerics import DimensionMismatch, EmptyInput
from protopipe.protonet import EmptyClass, LengthMismatch, load_prototypes


def protopipe_exception_classes() -> list[type]:
    modules = [protopipe] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(protopipe.__path__, "protopipe.")
    ]
    return [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    ]


def test_every_exception_is_a_config_or_data_error():
    classes = protopipe_exception_classes()
    assert IoError in classes and DecodeError in classes  # subpackages walked
    strays = [
        cls
        for cls in classes
        if not issubclass(cls, (ConfigError, DataError)) and cls is not IoError
    ]
    assert strays == []


def test_every_family_error_survives_a_pickle_round_trip():
    # An error raised in a worker process reaches the CLI pickled: it must
    # come back as the same type, message and attributes, not as a pool
    # failure. Each class is built with a string per required argument.
    classes = [
        cls for cls in protopipe_exception_classes() if issubclass(cls, (ConfigError, DataError))
    ]
    assert {DecodeError, UnknownId, MissingFrameEmbedding, ShapeMismatch} <= set(classes)
    for cls in classes:
        args = ["a message"]
        if cls.__init__ is not ValueError.__init__:
            params = list(inspect.signature(cls.__init__).parameters.values())[1:]
            args = [f"arg{n}" for n, p in enumerate(params) if p.default is p.empty]
        error = cls(*args)
        copy = pickle.loads(pickle.dumps(error))
        assert (type(copy), str(copy), copy.args, vars(copy)) == (
            cls, str(error), error.args, vars(error)
        ), cls
    assert pickle.loads(pickle.dumps(DecodeError("f.pgm", ValueError("cut")))).path == "f.pgm"


@pytest.mark.parametrize(
    "cls", [UnknownArm, DimensionMismatch, ShapeMismatch, InconsistentDim]
)
def test_config_side(cls):
    assert issubclass(cls, ConfigError) and not issubclass(cls, DataError)


@pytest.mark.parametrize(
    "cls",
    [
        ManifestError,
        UnknownId,
        PnmError,
        DecodeError,
        InsufficientFrames,
        FrameTooSmall,
        UnsupportedChannels,
        EmptyInput,
        MissingFrameEmbedding,
        EmptyClass,
        LengthMismatch,
    ],
)
def test_data_side(cls):
    assert issubclass(cls, DataError) and not issubclass(cls, ConfigError)


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
ZEROS = [0.0, 0.0]
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
    load_transformer_weights: {
        "d": 2, "h": 1, "d_ff": 2,
        "heads": [{"w_q": EYE, "w_k": EYE, "w_v": EYE}],
        "w_o": EYE, "w1": EYE, "b1": ZEROS, "w2": EYE, "b2": ZEROS,
        "ln1": {"gain": [1.0, 1.0], "bias": ZEROS},
        "ln2": {"gain": [1.0, 1.0], "bias": ZEROS},
        "eps": 1e-5,
    },
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
    return tmp_path_factory.mktemp("parsers") / "doc.json"


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
    except PnmError:
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
    (load_transformer_weights, ("b1",), [True, "1"]),
    (load_transformer_weights, ("ln1", "gain"), "11"),
    (load_transformer_weights, ("w_o", 1, 1), False),
    (load_precomputed, ("videos", "v0", 0), [True, "1.5"]),
    (load_prototypes, ("user_id",), 7),
    (load_prototypes, ("labels",), [1, 2]),
    (load_prototypes, ("labels",), "ab"),
    (load_prototypes, ("config_digest",), None),
    (load_prototypes, ("dim",), 2.0),
    (load_prototypes, ("raw", 0, 0), True),
    (load_prototypes, ("adapted", 1, 1), "0"),
]
FAMILY = {load_manifest: ManifestError, load_prototypes: DataError}  # weights, tables: config


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
    load_transformer_weights: [(), ("heads", 0), ("ln1",), ("ln2",)],
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


@pytest.mark.parametrize(
    "loader, key",
    [(load_projection_spec, "projection"), (load_transformer_weights, "w_o"),
     (load_prototypes, "raw")],
    ids=["projection", "adapter-w_o", "prototypes-raw"],
)
def test_ragged_rows_are_rejected_naming_the_file(loader, key, doc_path):
    doc = copy.deepcopy(VALID[loader])
    doc[key] = doc[key] + [[1.0]]
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FAMILY.get(loader, ConfigError), match=re.escape(str(doc_path))):
        loader(doc_path)
