from __future__ import annotations

import json
import math
import os
import shutil
import threading
from pathlib import Path

import pytest
from _children import live_children
from _oracles import random_transformer_weights

from protopipe import cli, protonet, workers
from protopipe.adaptation import save_transformer_weights
from protopipe.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from protopipe.embedding import make_patch_projection_spec
from protopipe.media_io.manifest import load_manifest
from protopipe.media_io.pnm import Frame, encode_pnm

CONFIG_DOC = {
    "sampler": {
        "clip_length": 8,
        "clips_per_video": 2,
        "policy": "uniform",
        "within_chunk": "middle",
    },
    "edge_filter": {"tau_mag": 32.0, "tau_density": 0.01, "enabled": True},
    "embedder": {
        "kind": "patch_projection",
        "grid": 8,
        "channels": 3,
        "dim": 16,
        "seed": 0,
    },
    "adapter": "none",
    "seed": 0,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main(
        [
            "gen-synthetic", "--out", str(data),
            "--users", "2", "--objects", "2", "--videos", "1",
            "--frames", "16", "--size", "32", "--seed", "3",
        ]
    )
    assert rc == EXIT_OK
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG_DOC))
    return data, config


def run_personalize(workspace, out, user="user00", audit=None, extra=(), config=None):
    data, default_config = workspace
    config = config or default_config
    argv = [
        "personalize", "--dataset", str(data), "--user", user,
        "--config", str(config), "--out", str(out),
    ]
    if audit:
        argv += ["--audit", str(audit)]
    return main(argv + list(extra))


class TestGenSynthetic:
    def test_reports_what_it_wrote(self, tmp_path, capsys):
        rc = main(
            [
                "gen-synthetic", "--out", str(tmp_path / "d"),
                "--users", "1", "--objects", "2", "--videos", "1",
                "--frames", "8", "--size", "32",
            ]
        )
        assert rc == EXIT_OK
        assert "wrote 1 users, 4 videos" in capsys.readouterr().out

    def test_bad_parameters_are_config_errors(self, tmp_path, capsys):
        rc = main(
            ["gen-synthetic", "--out", str(tmp_path / "d"), "--objects", "1"]
        )
        assert rc == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestPersonalize:
    def test_writes_prototypes_and_audit(self, workspace, tmp_path, capsys):
        out = tmp_path / "protos.json"
        audit = tmp_path / "audit.jsonl"
        assert run_personalize(workspace, out, audit=audit) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["user_id"] == "user00"
        assert doc["labels"] == ["obj00", "obj01"]
        assert doc["dim"] == 16
        assert len(doc["raw"]) == 2
        lines = audit.read_text().splitlines()
        assert lines  # one record per sampled clip
        for line in lines:
            record = json.loads(line)
            assert set(record) == {
                "video_id", "clip_start", "invalid", "L", "removed", "override",
            }
        assert "2 prototypes" in capsys.readouterr().out

    def test_audit_length_without_pixels_is_the_clip_length(self, workspace, tmp_path):
        config = table_config(
            tmp_path, finite_table(workspace), edge_filter={"enabled": False}
        )
        audit = tmp_path / "audit.jsonl"
        out = tmp_path / "protos.json"
        assert run_personalize(workspace, out, audit=audit, config=config) == EXIT_OK
        records = [json.loads(line) for line in audit.read_text().splitlines()]
        assert [r["L"] for r in records] == [CONFIG_DOC["sampler"]["clip_length"]] * 4

    def test_no_adapter_means_adapted_equals_raw(self, workspace, tmp_path):
        out = tmp_path / "protos.json"
        assert run_personalize(workspace, out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["adapted"] == doc["raw"]

    def test_deterministic_output_bytes(self, workspace, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_personalize(workspace, a) == EXIT_OK
        assert run_personalize(workspace, b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_user(self, workspace, tmp_path, capsys):
        rc = run_personalize(workspace, tmp_path / "p.json", user="nobody")
        assert rc == EXIT_DATA
        assert "nobody" in capsys.readouterr().err

    def test_missing_dataset(self, workspace, tmp_path, capsys):
        _, config = workspace
        rc = main(
            [
                "personalize", "--dataset", str(tmp_path / "absent"),
                "--user", "user00", "--config", str(config),
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert rc == EXIT_DATA

    def test_bad_config(self, workspace, tmp_path, capsys):
        data, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mystery_knob": 1}))
        rc = main(
            [
                "personalize", "--dataset", str(data), "--user", "user00",
                "--config", str(bad), "--out", str(tmp_path / "p.json"),
            ]
        )
        assert rc == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err


class TestRecognize:
    @pytest.fixture()
    def protos_path(self, workspace, tmp_path):
        out = tmp_path / "protos.json"
        assert run_personalize(workspace, out) == EXIT_OK
        return out

    def run(self, workspace, protos_path, out, video="user00_obj00_clutter00"):
        data, config = workspace
        return main(
            [
                "recognize", "--prototypes", str(protos_path),
                "--dataset", str(data), "--video", video,
                "--config", str(config), "--out", str(out),
            ]
        )

    def test_one_prediction_per_frame(self, workspace, protos_path, tmp_path):
        out = tmp_path / "preds.json"
        assert self.run(workspace, protos_path, out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["video_id"] == "user00_obj00_clutter00"
        assert doc["labels"] == ["obj00", "obj01"]
        assert len(doc["per_frame"]) == 16
        for record in doc["per_frame"]:
            assert set(record) == {"pred", "scores"}
            assert record["pred"] in doc["labels"]
            assert len(record["scores"]) == 2

    def test_deterministic_output_bytes(self, workspace, protos_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self.run(workspace, protos_path, a) == EXIT_OK
        assert self.run(workspace, protos_path, b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_video(self, workspace, protos_path, tmp_path, capsys):
        rc = self.run(workspace, protos_path, tmp_path / "p.json", video="ghost")
        assert rc == EXIT_DATA
        assert "ghost" in capsys.readouterr().err

    def test_prototype_dim_mismatch(self, workspace, protos_path, tmp_path, capsys):
        data, _ = workspace
        narrow = json.loads(json.dumps(CONFIG_DOC))
        narrow["embedder"]["dim"] = 8
        config8 = tmp_path / "narrow.json"
        config8.write_text(json.dumps(narrow))
        rc = main(
            [
                "recognize", "--prototypes", str(protos_path),
                "--dataset", str(data), "--video", "user00_obj00_clutter00",
                "--config", str(config8), "--out", str(tmp_path / "p.json"),
            ]
        )
        assert rc == EXIT_CONFIG
        assert "dim" in capsys.readouterr().err


class TestEvaluate:
    def run(self, workspace, out, arms=None):
        data, config = workspace
        argv = [
            "evaluate", "--dataset", str(data), "--config", str(config),
            "--out", str(out),
        ]
        if arms:
            argv += ["--ablation", arms]
        return main(argv)

    def test_full_report(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert self.run(workspace, out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc) == {"config_digest", "arms"}
        assert [a["name"] for a in doc["arms"]] == [
            "baseline", "adapt", "uniform", "filter",
        ]
        for arm in doc["arms"]:
            assert set(arm) == {"name", "aggregate", "per_user", "delta_vs_previous"}
            assert set(arm["per_user"]) == {"user00", "user01"}
            assert 0.0 <= arm["aggregate"] <= 1.0
        stdout = capsys.readouterr().out
        for arm in doc["arms"]:
            assert (
                f"{arm['name']:<8} accuracy {arm['aggregate']:.4f} "
                f"(delta {arm['delta_vs_previous']:+.4f})" in stdout
            )

    def test_single_arm(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        assert self.run(workspace, out, arms="baseline") == EXIT_OK
        doc = json.loads(out.read_text())
        assert [a["name"] for a in doc["arms"]] == ["baseline"]
        assert doc["arms"][0]["delta_vs_previous"] == 0.0

    def test_deterministic_output_bytes(self, workspace, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self.run(workspace, a, arms="uniform,filter") == EXIT_OK
        assert self.run(workspace, b, arms="uniform,filter") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_arm(self, workspace, tmp_path, capsys):
        rc = self.run(workspace, tmp_path / "r.json", arms="baseline,turbo")
        assert rc == EXIT_CONFIG
        assert "turbo" in capsys.readouterr().err

    def test_repeated_arm(self, workspace, tmp_path, capsys):
        rc = self.run(workspace, tmp_path / "r.json", arms="baseline,adapt,baseline")
        assert rc == EXIT_CONFIG
        assert "error: ablation arm 'baseline' is named more than once" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_duplicate_video_id_is_a_data_error(self, workspace, tmp_path, capsys):
        # user01's clutter video takes user00's id: evaluate must refuse the
        # dataset rather than score one video against the other's frames.
        data, config = workspace
        # Frame paths may not leave the manifest's directory: edit a copy.
        shutil.copytree(data, tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.json"
        doc = json.loads(manifest.read_text())
        clutter = doc["users"][1]["objects"][0]["videos"][1]
        assert clutter["video_id"] == "user01_obj00_clutter00"
        clutter["video_id"] = "user00_obj00_clutter00"
        manifest.write_text(json.dumps(doc))
        rc = self.run((manifest, config), tmp_path / "r.json")
        assert rc == EXIT_DATA
        assert "duplicate video_ids ['user00_obj00_clutter00']" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


    @pytest.mark.parametrize("path", ["/etc/hostname", "../../x.pgm"])
    def test_frame_path_outside_the_manifest_is_a_data_error(
        self, workspace, tmp_path, capsys, path
    ):
        data, config = workspace
        doc = json.loads((data / "manifest.json").read_text())
        doc["users"][0]["objects"][1]["videos"][0]["frames"][2] = path
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        rc = self.run((manifest, config), tmp_path / "r.json")
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert f"manifest {manifest}" in err
        assert f"users[0].objects[1].videos[0].frames[2]: {path!r}" in err
        assert not (tmp_path / "r.json").exists()

    def split_users(self, monkeypatch) -> list[int]:
        """Make the small workspace's evaluate split its two users over a
        pool (it is below the break-even); return the pools' worker counts."""
        monkeypatch.setattr(protonet, "POOL_MIN_FRAMES", 0)
        started = []
        map_in_workers = workers.map_in_workers

        def counting(fn, items, workers):
            started.append(workers)
            return map_in_workers(fn, items, workers)

        monkeypatch.setattr(workers, "map_in_workers", counting)
        return started

    def test_bad_frame_in_a_worker_exits_3_as_in_one_process(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        data, config = workspace
        shutil.copytree(data, tmp_path / "data")
        started = self.split_users(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        threads = threading.enumerate()
        assert self.run((tmp_path / "data", config), tmp_path / "clean.json") == EXIT_OK
        assert started == [2]
        # The pool's processes are reaped, and it started no thread, before
        # the run returns.
        assert live_children() == []
        assert threading.enumerate() == threads
        video = load_manifest(tmp_path / "data" / "manifest.json").video("user01_obj01_clutter00")
        bad = Path(video.frame_paths[5])
        bad.write_bytes(bad.read_bytes()[:-1])
        capsys.readouterr()
        errors = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            assert self.run((tmp_path / "data", config), tmp_path / "r.json") == EXIT_DATA
            errors.append(capsys.readouterr().err)
        assert started == [2, 2]
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: {bad}: payload is ")
        assert live_children() == []
        assert threading.enumerate() == threads
        assert not (tmp_path / "r.json").exists()

    def test_bad_frames_of_two_users_report_the_first_users_error(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        data, config = workspace
        shutil.copytree(data, tmp_path / "data")
        manifest = load_manifest(tmp_path / "data" / "manifest.json")
        # user00's bad frame is the last one it reads and user01's is in its
        # first query video, so the second user's worker fails first in time.
        first = Path(manifest.video("user00_obj01_clutter00").frame_paths[-1])
        second = Path(manifest.video("user01_obj00_clutter00").frame_paths[0])
        for bad in (first, second):
            bad.write_bytes(bad.read_bytes()[:-1])
        started = self.split_users(monkeypatch)
        errors = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            assert self.run((tmp_path / "data", config), tmp_path / "r.json") == EXIT_DATA
            errors.append(capsys.readouterr().err)
        assert started == [2]
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: {first}: payload is ")
        assert live_children() == []
        assert not (tmp_path / "r.json").exists()


class TestFaultsNameTheirVideo:
    """A fault inside one video names the video, or the frame's file."""

    def copy(self, workspace, tmp_path, **edge_filter):
        """The workspace's dataset and a config, copied so they can be damaged."""
        data, _ = workspace
        shutil.copytree(data, tmp_path / "data")
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["edge_filter"].update(edge_filter)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        return tmp_path / "data", config

    def outcomes(self, workspace, tmp_path, capsys, commands=("personalize", "evaluate")):
        """Each command's exit code and last line on stderr."""
        data, config = workspace
        out = []
        for command in commands:
            if command == "personalize":
                rc = run_personalize(workspace, tmp_path / "p.json")
            else:
                rc = main([
                    "evaluate", "--dataset", str(data), "--config", str(config),
                    "--out", str(tmp_path / "r.json"),
                ])
            out.append((rc, capsys.readouterr().err.splitlines()[-1]))
        assert not (tmp_path / "p.json").exists() and not (tmp_path / "r.json").exists()
        return out

    def replace_frame(self, data, frame: Frame) -> Path:
        """Overwrite a frame of user00's first clean video, all of whose frames are sampled."""
        video = load_manifest(data / "manifest.json").video("user00_obj00_clean00")
        path = Path(video.frame_paths[3])
        path.write_bytes(encode_pnm(frame))
        return path

    def test_a_video_too_short_for_a_clip(self, workspace, tmp_path, capsys):
        workspace = self.copy(workspace, tmp_path)
        manifest = workspace[0] / "manifest.json"
        doc = json.loads(manifest.read_text())
        video = doc["users"][0]["objects"][1]["videos"][0]
        assert video["video_id"] == "user00_obj01_clean00"
        video["frames"] = video["frames"][:6]
        manifest.write_text(json.dumps(doc))
        want = "error: video 'user00_obj01_clean00': 6 frames cannot fit a 8-frame clip"
        assert self.outcomes(workspace, tmp_path, capsys) == [(EXIT_DATA, want)] * 2

    def test_a_frame_too_small_for_the_gate(self, workspace, tmp_path, capsys):
        workspace = self.copy(workspace, tmp_path)
        path = self.replace_frame(workspace[0], Frame(2, 2, 3, bytes(12)))
        want = f"error: {path}: 2x2: Sobel needs at least 3x3"
        assert self.outcomes(workspace, tmp_path, capsys) == [(EXIT_DATA, want)] * 2

    def test_a_frame_too_small_for_the_grid(self, workspace, tmp_path, capsys):
        # With the filter off, personalize gates no frame and embeds this one.
        workspace = self.copy(workspace, tmp_path, enabled=False)
        path = self.replace_frame(workspace[0], Frame(2, 2, 3, bytes(12)))
        want = f"error: {path}: 2x2 frame is smaller than grid 8"
        assert self.outcomes(workspace, tmp_path, capsys, ["personalize"]) == [(EXIT_CONFIG, want)]

    def test_a_frame_with_the_wrong_channel_count(self, workspace, tmp_path, capsys):
        workspace = self.copy(workspace, tmp_path)
        path = self.replace_frame(workspace[0], Frame(32, 32, 1, bytes(range(256)) * 4))
        want = f"error: {path}: frame has 1 channels, spec expects 3"
        assert self.outcomes(workspace, tmp_path, capsys) == [(EXIT_CONFIG, want)] * 2


class TestBenchLoader:
    def test_prints_table_and_writes_report(self, workspace, tmp_path, capsys):
        data, _ = workspace
        out = tmp_path / "bench.json"
        rc = main(
            [
                "bench-loader", "--dataset", str(data),
                "--threads", "1,4", "--reps", "1", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        assert "  1 threads:" in stdout and "  4 threads:" in stdout
        assert "(1.00x)" in stdout  # first row is its own baseline
        doc = json.loads(out.read_text())
        assert [c["threads"] for c in doc["configs"]] == [1, 4]
        for row in doc["configs"]:
            assert set(row) == {"threads", "latency_ms", "median_ms", "speedup"}

    def test_bad_thread_list(self, workspace, tmp_path, capsys):
        data, _ = workspace
        rc = main(["bench-loader", "--dataset", str(data), "--threads", "1,x"])
        assert rc == EXIT_CONFIG


def table_config(tmp_path, table, **sections) -> str:
    """Write `table` as a precomputed embedding file and a config reading it."""
    (tmp_path / "table.json").write_text(json.dumps(table))
    config = tmp_path / "table_config.json"
    doc = dict(
        CONFIG_DOC, embedder={"kind": "precomputed", "table": "table.json"}, **sections
    )
    config.write_text(json.dumps(doc))
    return str(config)


def finite_table(workspace) -> dict:
    """A dim-16 row for every frame of every workspace video."""
    manifest = load_manifest(workspace[0] / "manifest.json")
    videos = {
        v.video_id: [[1.0 + i] + [0.5] * 15 for i in range(v.num_frames)]
        for v in manifest.all_videos()
    }
    return {"dim": 16, "videos": videos}


class TestInputErrors:
    """Bad input exits 2 or 3 with a message; only a bug raises through main."""

    def personalize(self, workspace, config, out):
        data, _ = workspace
        return main(
            [
                "personalize", "--dataset", str(data), "--user", "user00",
                "--config", str(config), "--out", str(out),
            ]
        )

    @pytest.mark.parametrize(
        "table",
        [
            {"dim": 4, "videos": []},
            {"dim": 2, "videos": {"user00_obj00_clean00": [["x", 1]]}},
        ],
        ids=["videos-not-an-object", "non-numeric-entry"],
    )
    def test_malformed_table_is_config_error(self, workspace, tmp_path, capsys, table):
        rc = self.personalize(workspace, table_config(tmp_path, table), tmp_path / "p.json")
        assert rc == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["sampler", "edge_filter"])
    def test_section_not_an_object_is_config_error(
        self, workspace, tmp_path, capsys, section
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(CONFIG_DOC, **{section: []})))
        assert self.personalize(workspace, config, tmp_path / "p.json") == EXIT_CONFIG
        assert section in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["embedder"].update(grid=[8]),
            lambda doc: doc["embedder"].update(dim=1),
            lambda doc: doc.update(adapter="adapter.json"),  # d=16 with h=3
        ],
        ids=["grid-not-a-number", "dim-below-two", "heads-do-not-divide-dim"],
    )
    def test_bad_parameters_are_config_errors(self, workspace, tmp_path, capsys, mutate):
        weights = tmp_path / "adapter.json"
        save_transformer_weights(random_transformer_weights(16, seed=0), weights)
        weights.write_text(json.dumps(dict(json.loads(weights.read_text()), h=3)))
        doc = json.loads(json.dumps(CONFIG_DOC))
        mutate(doc)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert self.personalize(workspace, config, tmp_path / "p.json") == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threads", "0"],
            ["--reps", "0"],
            ["--latency-ms", "-1"],
            ["--latency-ms", "nan"],
            ["--latency-ms", "inf"],
        ],
        ids=["threads-0", "reps-0", "latency-negative", "latency-nan", "latency-inf"],
    )
    def test_bad_loader_parameters_are_config_errors(self, workspace, flags):
        data, _ = workspace
        assert main(["bench-loader", "--dataset", str(data), *flags]) == EXIT_CONFIG

    def test_nan_support_row_is_data_error(self, workspace, tmp_path, capsys):
        table = finite_table(workspace)
        table["videos"]["user00_obj00_clean00"][3][0] = math.nan
        rc = self.personalize(workspace, table_config(tmp_path, table), tmp_path / "p.json")
        assert rc == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err

    def test_nan_query_row_is_data_error(self, workspace, tmp_path, capsys):
        data, _ = workspace
        table = finite_table(workspace)
        protos = tmp_path / "protos.json"
        assert self.personalize(workspace, table_config(tmp_path, table), protos) == EXIT_OK
        table["videos"]["user00_obj00_clutter00"][5][2] = math.nan
        rc = main(
            [
                "recognize", "--prototypes", str(protos), "--dataset", str(data),
                "--video", "user00_obj00_clutter00",
                "--config", table_config(tmp_path, table),
                "--out", str(tmp_path / "preds.json"),
            ]
        )
        assert rc == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "preds.json").exists()

    @pytest.mark.parametrize("field, value", [("grid", "8"), ("dim", 16.0)])
    def test_wrong_type_in_projection_file_exits_2(
        self, workspace, tmp_path, capsys, field, value
    ):
        spec = make_patch_projection_spec(grid=8, channels=3, dim=16, seed=0)
        doc = {"grid": 8, "channels": 3, "dim": 16, "projection": spec.projection.to_rows()}
        (tmp_path / "proj.json").write_text(json.dumps(dict(doc, **{field: value})))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(CONFIG_DOC, embedder={"weights": "proj.json"})))
        assert self.personalize(workspace, config, tmp_path / "p.json") == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("eps", True), ("h", 1.0), ("b1", ["0"] * 32)])
    def test_wrong_type_in_adapter_file_exits_2(
        self, workspace, tmp_path, capsys, field, value
    ):
        weights = tmp_path / "adapter.json"
        save_transformer_weights(random_transformer_weights(16, seed=0), weights)
        weights.write_text(json.dumps(dict(json.loads(weights.read_text()), **{field: value})))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(CONFIG_DOC, adapter="adapter.json")))
        assert self.personalize(workspace, config, tmp_path / "p.json") == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("user_id", 0), ("labels", [0, 1]), ("config_digest", None)]
    )
    def test_wrong_type_in_prototypes_file_exits_3(
        self, workspace, tmp_path, capsys, field, value
    ):
        data, config = workspace
        protos = tmp_path / "protos.json"
        assert self.personalize(workspace, config, protos) == EXIT_OK
        protos.write_text(json.dumps(dict(json.loads(protos.read_text()), **{field: value})))
        rc = main(
            [
                "recognize", "--prototypes", str(protos), "--dataset", str(data),
                "--video", "user00_obj00_clutter00", "--config", str(config),
                "--out", str(tmp_path / "preds.json"),
            ]
        )
        assert rc == EXIT_DATA
        assert field in capsys.readouterr().err
        assert not (tmp_path / "preds.json").exists()

    @pytest.mark.parametrize(
        "fault",
        [{"raw": [[1.0, 0.0], [1.0]]}, {"labels": ["a", "b", "c"]}],
        ids=["ragged-rows", "more-labels-than-rows"],
    )
    def test_misshapen_prototypes_file_exits_3(self, workspace, tmp_path, capsys, fault):
        data, config = workspace
        protos = tmp_path / "protos.json"
        assert self.personalize(workspace, config, protos) == EXIT_OK
        protos.write_text(json.dumps(dict(json.loads(protos.read_text()), **fault)))
        rc = main(
            [
                "recognize", "--prototypes", str(protos), "--dataset", str(data),
                "--video", "user00_obj00_clutter00", "--config", str(config),
                "--out", str(tmp_path / "preds.json"),
            ]
        )
        assert rc == EXIT_DATA
        assert str(protos) in capsys.readouterr().err
        assert not (tmp_path / "preds.json").exists()

    @pytest.mark.parametrize("key", ["raw", "adapted"])
    def test_overflowing_prototype_row_exits_3_at_load(
        self, workspace, tmp_path, capsys, monkeypatch, key
    ):
        data, config = workspace
        protos = tmp_path / "protos.json"
        assert self.personalize(workspace, config, protos) == EXIT_OK
        doc = json.loads(protos.read_text())
        doc[key][1] = [1e308] * doc["dim"]  # every entry finite, the norm not
        protos.write_text(json.dumps(doc))
        decoded, load_frames = [], protonet.load_frames

        def spy(*args):
            decoded.append(args)
            return load_frames(*args)

        monkeypatch.setattr(protonet, "load_frames", spy)
        rc = main(
            [
                "recognize", "--prototypes", str(protos), "--dataset", str(data),
                "--video", "user00_obj00_clutter00", "--config", str(config),
                "--out", str(tmp_path / "preds.json"),
            ]
        )
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: bad prototypes file {protos}: {key}[1] has a non-finite norm\n"
        )
        assert decoded == []
        assert not (tmp_path / "preds.json").exists()

    @pytest.mark.parametrize(
        "field, value, named",
        [("eps", math.inf, "eps"), ("b1", math.nan, "adapter.json")],
        ids=["eps-infinity", "b1-nan"],
    )
    def test_non_finite_adapter_value_exits_2_before_any_frame_is_decoded(
        self, workspace, tmp_path, capsys, monkeypatch, field, value, named
    ):
        weights = tmp_path / "adapter.json"
        save_transformer_weights(random_transformer_weights(16, seed=0), weights)
        doc = json.loads(weights.read_text())
        if field == "b1":
            doc["b1"][0] = value
        else:
            doc[field] = value
        weights.write_text(json.dumps(doc))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(CONFIG_DOC, adapter="adapter.json")))
        decoded, load_frames = [], protonet.load_frames

        def spy(*args):
            decoded.append(args)
            return load_frames(*args)

        monkeypatch.setattr(protonet, "load_frames", spy)
        data, _ = workspace
        rc = main(
            [
                "evaluate", "--dataset", str(data), "--config", str(config),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert decoded == []
        assert not (tmp_path / "r.json").exists()

    def test_plain_value_error_propagates(self, workspace, tmp_path, monkeypatch):
        def buggy(args):
            raise ValueError("a bug, not a config error")

        monkeypatch.setattr(cli, "cmd_evaluate", buggy)
        data, config = workspace
        with pytest.raises(ValueError, match="a bug"):
            main(
                [
                    "evaluate", "--dataset", str(data), "--config", str(config),
                    "--out", str(tmp_path / "r.json"),
                ]
            )
