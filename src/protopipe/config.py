"""Pipeline configuration files.

A config is one JSON object naming the sampler, edge filter, embedder and
adapter for a run, plus a seed. Paths inside a config are resolved against
the config file's own directory, and every referenced file must exist at
load time. A sha256 digest over the canonicalized effective document is
carried into output files for provenance.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
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
from .errors import ConfigError, read_json
from .frame_validity import EdgeFilterConfig
from .protonet import PipelineRuntime

ENV_SEED = "PROTOPIPE_SEED"
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
            "sampler": {
                "clip_length": self.sampler.clip_length,
                "clips_per_video": self.sampler.clips_per_video,
                "policy": self.sampler.policy,
                "within_chunk": self.sampler.within_chunk,
            },
            "edge_filter": {
                "tau_mag": self.edge_filter.tau_mag,
                "tau_density": self.edge_filter.tau_density,
                "enabled": self.edge_filter.enabled,
            },
            "embedder": self.embedder,
            "adapter": self.adapter,
            "seed": self.seed,
        }
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require_keys(obj, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"'{where}' must be an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _sampler_from(doc: dict) -> SamplerConfig:
    _require_keys(
        doc, {"clip_length", "clips_per_video", "policy", "within_chunk"}, "sampler"
    )
    try:
        return SamplerConfig(
            clip_length=int(doc.get("clip_length", 8)),
            clips_per_video=int(doc.get("clips_per_video", 4)),
            policy=doc.get("policy", "uniform"),
            within_chunk=doc.get("within_chunk", "middle"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad sampler config: {exc}") from exc


def _filter_from(doc: dict) -> EdgeFilterConfig:
    _require_keys(doc, {"tau_mag", "tau_density", "enabled"}, "edge_filter")
    try:
        return EdgeFilterConfig(
            tau_mag=float(doc.get("tau_mag", 32.0)),
            tau_density=float(doc.get("tau_density", 0.01)),
            enabled=bool(doc.get("enabled", True)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad edge_filter config: {exc}") from exc


def _check_embedder(doc: dict, base_dir: Path) -> None:
    kind = doc.get("kind", KIND_PATCH_PROJECTION)
    if kind == KIND_PATCH_PROJECTION:
        _require_keys(
            doc, {"kind", "grid", "channels", "dim", "seed", "weights"}, "embedder"
        )
        if "weights" in doc:
            path = base_dir / str(doc["weights"])
            if not path.is_file():
                raise ConfigError(f"embedder weights file not found: {path}")
    elif kind == KIND_PRECOMPUTED:
        _require_keys(doc, {"kind", "table"}, "embedder")
        if "table" not in doc:
            raise ConfigError("precomputed embedder needs a 'table' path")
        path = base_dir / str(doc["table"])
        if not path.is_file():
            raise ConfigError(f"embedding table not found: {path}")
    else:
        raise ConfigError(f"unknown embedder kind {kind!r}")


def load_config(path) -> PipelineConfig:
    path = Path(path)
    doc = read_json(path, ConfigError, "config")
    _require_keys(
        doc, {"sampler", "edge_filter", "embedder", "adapter", "seed"}, "config"
    )
    base_dir = path.resolve().parent
    sampler = _sampler_from(doc.get("sampler", {}))
    edge_filter = _filter_from(doc.get("edge_filter", {}))
    embedder = doc.get("embedder", {})
    if not isinstance(embedder, dict):
        raise ConfigError("'embedder' must be an object")
    _check_embedder(embedder, base_dir)
    adapter = doc.get("adapter", "none")
    if not isinstance(adapter, str):
        raise ConfigError("'adapter' must be a path or \"none\"")
    if adapter != "none" and not (base_dir / adapter).is_file():
        raise ConfigError(f"adapter weights file not found: {base_dir / adapter}")
    try:
        seed = int(doc.get("seed", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad seed: {doc.get('seed')!r}") from exc
    return PipelineConfig(sampler, edge_filter, embedder, adapter, seed, base_dir)


def effective_seed(config: PipelineConfig, flag_seed: int | None) -> int:
    """Seed precedence: --seed flag, then PROTOPIPE_SEED, then the config."""
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
    return config.seed


def build_runtime(config: PipelineConfig, seed: int | None = None) -> PipelineRuntime:
    """Resolve referenced files into a ready-to-run immutable bundle."""
    if seed is not None:
        config = replace(config, seed=seed)
    doc = config.embedder
    embedder: EmbedderSpec | PrecomputedTable
    if doc.get("kind", KIND_PATCH_PROJECTION) == KIND_PRECOMPUTED:
        embedder = load_precomputed(config.base_dir / doc["table"])
    elif "weights" in doc:
        embedder = load_projection_spec(config.base_dir / doc["weights"])
    else:
        defaults = {"grid": 8, "channels": 3, "dim": 16, "seed": 0}
        try:
            params = {key: int(doc.get(key, value)) for key, value in defaults.items()}
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad embedder config: {exc}") from exc
        embedder = make_patch_projection_spec(**params)
    adapter: TransformerWeights | None = None
    if config.adapter != "none":
        adapter = load_transformer_weights(config.base_dir / config.adapter)
        if adapter.d != embedder.dim:
            raise ConfigError(
                f"adapter dim {adapter.d} != embedder dim {embedder.dim}"
            )
    return PipelineRuntime(
        sampler=config.sampler,
        edge_filter=config.edge_filter,
        embedder=embedder,
        adapter=adapter,
        seed=config.seed,
        digest=config.digest(),
    )
