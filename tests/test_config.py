from __future__ import annotations

import json
import math
import re

import pytest

from protopipe.adaptation import centering_adapter_weights, save_transformer_weights
from protopipe.cli import EXIT_CONFIG, main
from protopipe.config import ConfigError, build_runtime, load_config
from protopipe.evaluation import make_rigged_scenario

FULL_DOC = {
    "sampler": {
        "clip_length": 8,
        "clips_per_video": 3,
        "policy": "uniform",
        "within_chunk": "middle",
    },
    "edge_filter": {"tau_mag": 32.0, "tau_density": 0.01, "enabled": True},
    "embedder": {
        "kind": "patch_projection",
        "grid": 4,
        "channels": 3,
        "dim": 8,
        "seed": 0,
    },
    "adapter": "none",
    "seed": 7,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_full_config(tmp_path):
    config = load_config(write_config(tmp_path, FULL_DOC))
    assert config.sampler.clips_per_video == 3
    assert config.edge_filter.tau_mag == 32.0
    assert config.adapter == "none"
    assert config.seed == 7
    assert config.base_dir == tmp_path.resolve()


def test_defaults_fill_missing_sections(tmp_path):
    config = load_config(write_config(tmp_path, {}))
    assert config.sampler.clip_length == 8
    assert config.sampler.policy == "uniform"
    assert config.edge_filter.enabled
    assert config.seed == 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d["sampler"].update(chunk="x"),
        lambda d: d["edge_filter"].update(threshold=3),
        lambda d: d["embedder"].update(width=2),
    ],
)
def test_unknown_keys_rejected(tmp_path, mutate):
    doc = json.loads(json.dumps(FULL_DOC))
    mutate(doc)
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write_config(tmp_path, doc))


def test_bad_values_rejected(tmp_path):
    doc = json.loads(json.dumps(FULL_DOC))
    doc["sampler"]["policy"] = "stratified"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))
    doc = json.loads(json.dumps(FULL_DOC))
    doc["seed"] = "lots"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError):
        load_config(bad)


MISTYPED = {
    "enabled-string": ("edge_filter", "enabled", "false"),
    "enabled-number": ("edge_filter", "enabled", 0),
    "clip-length-float": ("sampler", "clip_length", 8.9),
    "clip-length-bool": ("sampler", "clip_length", True),
    "clip-length-string": ("sampler", "clip_length", "6"),
    "seed-float": (None, "seed", 2.5),
    "seed-bool": (None, "seed", False),
    "adapter-number": (None, "adapter", 0),
    "tau-mag-nan": ("edge_filter", "tau_mag", math.nan),
    "tau-mag-infinity": ("edge_filter", "tau_mag", math.inf),
    "tau-mag-overflow": ("edge_filter", "tau_mag", 10**400),
    "tau-mag-string": ("edge_filter", "tau_mag", "32"),
    "tau-density-bool": ("edge_filter", "tau_density", True),
    "grid-float": ("embedder", "grid", 8.5),
    "dim-string": ("embedder", "dim", "16"),
    "embedder-seed-bool": ("embedder", "seed", True),
}


@pytest.mark.parametrize("section,key,value", MISTYPED.values(), ids=MISTYPED.keys())
def test_mistyped_values_are_config_errors(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(FULL_DOC))
    (doc[section] if section else doc)[key] = value
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError):
        load_config(path)
    argv = [
        "personalize", "--dataset", str(tmp_path), "--user", "u", "--config", str(path),
        "--out", str(tmp_path / "p.json"),
    ]
    assert main(argv) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_referenced_files_must_exist(tmp_path):
    doc = json.loads(json.dumps(FULL_DOC))
    doc["adapter"] = "adapter.json"
    with pytest.raises(ConfigError, match="adapter weights"):
        load_config(write_config(tmp_path, doc))

    doc = json.loads(json.dumps(FULL_DOC))
    doc["embedder"] = {"kind": "patch_projection", "weights": "proj.json"}
    with pytest.raises(ConfigError, match="weights file"):
        load_config(write_config(tmp_path, doc))

    doc = json.loads(json.dumps(FULL_DOC))
    doc["embedder"] = {"kind": "precomputed", "table": "table.json"}
    with pytest.raises(ConfigError, match="table"):
        load_config(write_config(tmp_path, doc))

    doc["embedder"] = {"kind": "precomputed"}
    with pytest.raises(ConfigError, match="table"):
        load_config(write_config(tmp_path, doc))

    doc["embedder"] = {"kind": "resnet"}
    with pytest.raises(ConfigError, match="unknown embedder kind"):
        load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("extra", [{"dim": 999, "grid": 7, "seed": 3}, {"channels": 1}])
def test_projection_keys_beside_weights_are_rejected(tmp_path, capsys, extra):
    # The weights file sets the whole projection, so these keys would only
    # have changed the digest.
    (tmp_path / "w.json").write_text("{}")
    doc = json.loads(json.dumps(FULL_DOC))
    doc["embedder"] = {"weights": "w.json", **extra}
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=re.escape(f"{sorted(extra)} beside 'weights'")):
        load_config(path)
    argv = [
        "personalize", "--dataset", str(tmp_path), "--user", "u", "--config", str(path),
        "--out", str(tmp_path / "p.json"),
    ]
    assert main(argv) == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


class TestDigest:
    def test_rigged_config_digest_is_pinned(self, tmp_path):
        _, config_path = make_rigged_scenario(tmp_path)
        assert load_config(config_path).digest() == (
            "3fd8c91ba97e1e1e3114827a67add430587a2592fb11b2ef5ab474123f3255ff"
        )

    def test_stable_under_key_reordering(self, tmp_path):
        a = load_config(write_config(tmp_path, FULL_DOC, "a.json"))
        reordered = {k: FULL_DOC[k] for k in reversed(list(FULL_DOC))}
        b = load_config(write_config(tmp_path, reordered, "b.json"))
        assert a.digest() == b.digest()

    def test_digest_tracks_values(self, tmp_path):
        a = load_config(write_config(tmp_path, FULL_DOC, "a.json"))
        doc = json.loads(json.dumps(FULL_DOC))
        doc["sampler"]["clips_per_video"] = 4
        b = load_config(write_config(tmp_path, doc, "b.json"))
        assert a.digest() != b.digest()

    def test_integer_thresholds_get_the_float_digest(self, tmp_path):
        a = load_config(write_config(tmp_path, FULL_DOC, "a.json"))
        doc = json.loads(json.dumps(FULL_DOC))
        doc["edge_filter"]["tau_mag"] = 32
        b = load_config(write_config(tmp_path, doc, "b.json"))
        assert b.edge_filter.tau_mag == 32.0 and isinstance(b.edge_filter.tau_mag, float)
        assert a.digest() == b.digest()

    def test_digest_ignores_location(self, tmp_path):
        a = load_config(write_config(tmp_path, FULL_DOC, "a.json"))
        sub = tmp_path / "sub"
        sub.mkdir()
        b = load_config(write_config(sub, FULL_DOC))
        assert a.digest() == b.digest()

    def test_defaults_left_out_or_spelled_out_get_one_digest(self, tmp_path):
        defaults = {"kind": "patch_projection", "grid": 8, "channels": 3, "dim": 16, "seed": 0}
        docs = [{}, {"embedder": {}}, {"embedder": {"grid": 8}}, {"embedder": defaults}]
        digests = {
            load_config(write_config(tmp_path, doc, f"{n}.json")).digest()
            for n, doc in enumerate(docs)
        }
        assert digests == {"de071d7b9054250cfec1f08bc96f21de57ae17e7cc6ea9b9fac318b9d610da18"}
        assert load_config(write_config(tmp_path, {})).embedder == defaults

    def test_weights_with_or_without_kind_get_one_digest(self, tmp_path):
        (tmp_path / "proj.json").write_text("{}")  # read when the runtime is built
        bare = {"embedder": {"weights": "proj.json"}}
        kinded = {"embedder": {"kind": "patch_projection", "weights": "proj.json"}}
        a = load_config(write_config(tmp_path, bare, "a.json"))
        b = load_config(write_config(tmp_path, kinded, "b.json"))
        assert a.embedder == b.embedder == kinded["embedder"]
        assert a.digest() == b.digest()


class TestSeedPrecedence:
    def test_flag_beats_config(self, tmp_path):
        config = load_config(write_config(tmp_path, FULL_DOC))
        assert build_runtime(config).seed == 7
        assert build_runtime(config, seed=99).seed == 99


class TestBuildRuntime:
    def test_patch_projection_runtime(self, tmp_path):
        config = load_config(write_config(tmp_path, FULL_DOC))
        runtime = build_runtime(config)
        assert runtime.embedder.dim == 8
        assert runtime.adapter is None
        assert runtime.needs_pixels
        assert runtime.digest == config.digest()

    def test_seed_override_changes_digest(self, tmp_path):
        config = load_config(write_config(tmp_path, FULL_DOC))
        assert build_runtime(config, seed=8).digest != config.digest()
        assert build_runtime(config, seed=7).digest == config.digest()

    def test_precomputed_runtime(self, tmp_path):
        (tmp_path / "table.json").write_text(
            json.dumps({"dim": 4, "videos": {"v": [[0.0, 0.0, 0.0, 1.0]]}})
        )
        doc = json.loads(json.dumps(FULL_DOC))
        doc["embedder"] = {"kind": "precomputed", "table": "table.json"}
        runtime = build_runtime(load_config(write_config(tmp_path, doc)))
        assert not runtime.needs_pixels
        assert runtime.embedder.dim == 4
        assert runtime.embedder.vector("v", 0) == [0.0, 0.0, 0.0, 1.0]

    def test_adapter_dim_must_match_embedder(self, tmp_path):
        save_transformer_weights(
            centering_adapter_weights(16, 0.5), tmp_path / "adapter.json"
        )
        doc = json.loads(json.dumps(FULL_DOC))
        doc["adapter"] = "adapter.json"  # embedder dim is 8
        with pytest.raises(ConfigError, match="adapter dim"):
            build_runtime(load_config(write_config(tmp_path, doc)))

    def test_adapter_loads_when_dims_agree(self, tmp_path):
        save_transformer_weights(
            centering_adapter_weights(8, 0.5), tmp_path / "adapter.json"
        )
        doc = json.loads(json.dumps(FULL_DOC))
        doc["adapter"] = "adapter.json"
        runtime = build_runtime(load_config(write_config(tmp_path, doc)))
        assert runtime.adapter is not None
        assert runtime.adapter.d == 8

    def test_explicit_projection_weights(self, tmp_path):
        from protopipe.embedding import make_patch_projection_spec

        spec = make_patch_projection_spec(grid=2, channels=1, dim=4, seed=3)
        (tmp_path / "proj.json").write_text(
            json.dumps(
                {
                    "grid": 2,
                    "channels": 1,
                    "dim": 4,
                    "projection": spec.projection.to_rows(),
                }
            )
        )
        doc = json.loads(json.dumps(FULL_DOC))
        doc["embedder"] = {"kind": "patch_projection", "weights": "proj.json"}
        runtime = build_runtime(load_config(write_config(tmp_path, doc)))
        assert runtime.embedder == spec
