"""Dataset layer: PNM codec, manifest, parallel loader, synthetic generator,
and the loader benchmark."""

from .bench import BenchReport, BenchRow, bench_loader
from .loader import DecodeError, LoaderConfig, load_frames_parallel
from .manifest import (
    DatasetManifest,
    InvariantViolation,
    ManifestError,
    ObjectRecord,
    SchemaViolation,
    UserRecord,
    VideoRecord,
    load_manifest,
)
from .pnm import (
    Frame,
    MalformedHeader,
    PnmError,
    TruncatedPayload,
    UnsupportedMaxval,
    decode_pnm,
    encode_pnm,
    read_frame,
    write_frame,
)
from .synthetic import (
    GeneratorSpec,
    IoError,
    generate_synthetic_dataset,
    load_blank_sidecar,
)

__all__ = [
    "BenchReport",
    "BenchRow",
    "DatasetManifest",
    "DecodeError",
    "Frame",
    "GeneratorSpec",
    "InvariantViolation",
    "IoError",
    "LoaderConfig",
    "MalformedHeader",
    "ManifestError",
    "ObjectRecord",
    "PnmError",
    "SchemaViolation",
    "TruncatedPayload",
    "UnsupportedMaxval",
    "UserRecord",
    "VideoRecord",
    "bench_loader",
    "decode_pnm",
    "encode_pnm",
    "generate_synthetic_dataset",
    "load_blank_sidecar",
    "load_frames_parallel",
    "load_manifest",
    "read_frame",
    "write_frame",
]
