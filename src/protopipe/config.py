"""Pipeline configuration files.

A config is one JSON object naming the sampler, edge filter, embedder and
adapter for a run, plus a seed. Paths inside a config are resolved against
the config file's own directory, and every referenced file must exist at
load time. A sha256 digest over the canonicalized effective document is
carried into output files for provenance. Loading fills in the
embedder's kind and, for a seeded projection, the factory's defaults, so a
config that leaves a key out and one that spells out its default load the
same runtime under the same digest.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from inspect import signature
from pathlib import Path

from .adaptation import TransformerWeights, load_transformer_weights
from .clip_sampling import SamplerConfig
from .embedding import (
    EmbedderSpec,
    PrecomputedTable,
    load_precomputed,
    load_projection_spec,
    make_patch_projection_spec,
)
from .errors import NUMBER, ConfigError, read_json, read_object
from .frame_validity import EdgeFilterConfig
from .protonet import PipelineRuntime

KIND_PATCH_PROJECTION = "patch_projection"
KIND_PRECOMPUTED = "precomputed"


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed config document plus the directory its paths resolve against."""

    sampler: SamplerConfig
    edge_filter: EdgeFilterConfig
    embedder: dict
    adapter: str  # path or "none"
    seed: int
    base_dir: Path

    def digest(self) -> str:
        doc = {
            "sampler": {key: getattr(self.sampler, key) for key in SAMPLER_KEYS},
            "edge_filter": {key: getattr(self.edge_filter, key) for key in FILTER_KEYS},
            "embedder": self.embedder,
            "adapter": self.adapter,
            "seed": self.seed,
        }
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# The JSON type of every key a config may hold, by section, under the
# schema rule in `errors`. A section's absent keys take the defaults of the
# dataclass or factory it is passed to.
TOP_KEYS = {"sampler": dict, "edge_filter": dict, "embedder": dict, "adapter": str, "seed": int}
SAMPLER_KEYS = {"clip_length": int, "clips_per_video": int, "policy": str, "within_chunk": str}
FILTER_KEYS = {"tau_mag": NUMBER, "tau_density": NUMBER, "enabled": bool}
PROJECTION_KEYS = {
    "kind": str, "grid": int, "channels": int, "dim": int, "seed": int, "weights": str,
}
PRECOMPUTED_KEYS = {"kind": str, "table": str}
# A seeded projection's defaults are the factory's own.
PROJECTION_DEFAULTS = {
    name: param.default for name, param in signature(make_patch_projection_spec).parameters.items()
}


def _effective_embedder(doc: dict, base_dir: Path, where: str) -> dict:
    """The embedder section, checked, with its kind and defaults filled in."""
    doc = {"kind": KIND_PATCH_PROJECTION, **doc}
    kind = doc["kind"]
    if kind == KIND_PATCH_PROJECTION:
        read_object(doc, PROJECTION_KEYS, ConfigError, where, "embedder", optional=PROJECTION_KEYS)
        if "weights" in doc:
            ignored = sorted(set(doc) - {"kind", "weights"})
            if ignored:  # the weights file sets the whole projection
                raise ConfigError(f"bad {where}: embedder key(s) {ignored} beside 'weights'")
            path = base_dir / doc["weights"]
            if not path.is_file():
                raise ConfigError(f"embedder weights file not found: {path}")
        else:
            doc = {**PROJECTION_DEFAULTS, **doc}
    elif kind == KIND_PRECOMPUTED:
        read_object(doc, PRECOMPUTED_KEYS, ConfigError, where, "embedder")
        path = base_dir / doc["table"]
        if not path.is_file():
            raise ConfigError(f"embedding table not found: {path}")
    else:
        raise ConfigError(f"unknown embedder kind {kind!r}")
    return doc


def load_config(path) -> PipelineConfig:
    path = Path(path)
    doc = read_json(path, ConfigError, "config", TOP_KEYS, optional=TOP_KEYS)
    where = f"config {path}"
    base_dir = path.resolve().parent
    sampler = read_object(
        doc.get("sampler", {}), SAMPLER_KEYS, ConfigError, where, "sampler", SAMPLER_KEYS,
        lambda values: SamplerConfig(**values),
    )
    edge_filter = read_object(
        doc.get("edge_filter", {}), FILTER_KEYS, ConfigError, where, "edge_filter", FILTER_KEYS,
        lambda values: EdgeFilterConfig(**values),
    )
    embedder = _effective_embedder(doc.get("embedder", {}), base_dir, where)
    adapter = doc.get("adapter", "none")
    if adapter != "none" and not (base_dir / adapter).is_file():
        raise ConfigError(f"adapter weights file not found: {base_dir / adapter}")
    return PipelineConfig(sampler, edge_filter, embedder, adapter, doc.get("seed", 0), base_dir)


def build_runtime(config: PipelineConfig, seed: int | None = None) -> PipelineRuntime:
    """Resolve referenced files into a ready-to-run immutable bundle.

    Every file is read before a seeded projection is built, so a bad file
    fails before that costly step, and the projection's ranks fork after
    the files' parse is freed rather than beneath it. Each record checks
    itself, `PipelineRuntime` the adapter's `d` against the embedder's dim.
    """
    if seed is not None:
        config = replace(config, seed=seed)
    doc = config.embedder
    embedder: EmbedderSpec | PrecomputedTable | None = None
    if doc["kind"] == KIND_PRECOMPUTED:
        embedder = load_precomputed(config.base_dir / doc["table"])
    elif "weights" in doc:
        embedder = load_projection_spec(config.base_dir / doc["weights"])
    adapter: TransformerWeights | None = None
    if config.adapter != "none":
        adapter = load_transformer_weights(config.base_dir / config.adapter)
    if embedder is None:
        params = {key: value for key, value in doc.items() if key != "kind"}
        embedder = make_patch_projection_spec(**params)
    return PipelineRuntime(
        sampler=config.sampler,
        edge_filter=config.edge_filter,
        embedder=embedder,
        adapter=adapter,
        seed=config.seed,
        digest=config.digest(),
    )
