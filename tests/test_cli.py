"""End-to-end command-line pipeline: synth, supervise, voxelize, match,
eval; config precedence; exit codes; byte determinism."""

import argparse
import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from occmatch import synth
from occmatch.cli import RunConfig, build_parser, main
from occmatch.formats import (
    dump_json,
    dump_json_line,
    intrinsics_to_json,
    pose_to_json,
    read_curve_csv,
    read_depth,
    read_features,
    read_json,
    read_matches,
    read_occupancy,
    scene_to_json,
    write_features,
    write_json,
)
from occmatch.geometry import CameraIntrinsics, PoseSE3
from occmatch.matching import FeatureGrid
from occmatch.synth import Plane, SceneSpec


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    """Render each needed fixture once; tests copy before mutating."""
    root = tmp_path_factory.mktemp("pairs")
    for name in ("identity", "rotation", "stereo", "two_plane"):
        assert main(["synth", "--fixture", name, "--out", str(root / name)]) == 0
    return root


@pytest.fixture
def fresh_pair(synth_root, tmp_path):
    def copy(name: str, dest: str = None) -> str:
        target = tmp_path / (dest or name)
        shutil.copytree(synth_root / name, target)
        return str(target)

    return copy


class TestSynth:
    def test_identity_manifest_reports_full_overlap(self, synth_root):
        manifest = read_json(synth_root / "identity" / "manifest.json")
        assert manifest["id"] == "identity"
        assert manifest["occlusion_ratio"] == 0.0
        assert manifest["overlap_score"] == 1.0
        assert manifest["config"]["channels"] == 128

    def test_two_plane_manifest_freezes_the_occlusion_band(self, synth_root):
        manifest = read_json(synth_root / "two_plane" / "manifest.json")
        assert manifest["occlusion_ratio"] == 16.0 / 192.0
        assert manifest["overlap_score"] == 176.0 / 192.0

    def test_all_pair_files_are_written(self, synth_root):
        names = {p.name for p in (synth_root / "stereo").iterdir()}
        assert {
            "depth_a.odm", "depth_b.odm", "coarse_a.ofg", "coarse_b.ofg",
            "fine_a.ofg", "fine_b.ofg", "manifest.json",
        } <= names

    def test_explicit_scene_and_poses(self, tmp_path):
        scene = SceneSpec((Plane((0.0, 0.0, 2.0), (0.0, 0.0, 1.0)),))
        k = CameraIntrinsics(100.0, 100.0, 15.5, 11.5, 32, 24)
        write_json(tmp_path / "myscene.json", scene_to_json(scene))
        write_json(tmp_path / "pa.json", pose_to_json(PoseSE3.identity()))
        write_json(
            tmp_path / "pb.json",
            pose_to_json(PoseSE3(np.eye(3), np.array([0.1, 0.0, 0.0]))),
        )
        write_json(tmp_path / "k.json", intrinsics_to_json(k))
        out = tmp_path / "pair"
        code = main([
            "synth", "--scene", str(tmp_path / "myscene.json"),
            "--pose-a", str(tmp_path / "pa.json"), "--pose-b", str(tmp_path / "pb.json"),
            "--intrinsics", str(tmp_path / "k.json"), "--out", str(out),
        ])
        assert code == 0
        assert read_json(out / "manifest.json")["id"] == "myscene"
        assert np.all(read_depth(out / "depth_a.odm").data == 2.0)

    def test_missing_scene_flags_fail_cleanly(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--scene" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, synth_root, tmp_path):
        out = tmp_path / "stereo2"
        assert main(["synth", "--fixture", "stereo", "--out", str(out)]) == 0
        for name in ("manifest.json", "depth_a.odm", "coarse_a.ofg", "fine_b.ofg"):
            assert (out / name).read_bytes() == (synth_root / "stereo" / name).read_bytes()

    @pytest.mark.parametrize("flags, names", [
        (["--width", "40000", "--height", "30000"], ("width", "height", "26.8 GiB")),
        (["--channels", "4000000"], ("channels", "206 GiB")),
    ])
    def test_oversized_pair_is_refused_before_rendering(self, tmp_path, capsys, monkeypatch,
                                                        flags, names):
        def render_depth(*args):
            raise AssertionError("rendering started before the size check")

        monkeypatch.setattr(synth, "render_depth", render_depth)
        out = tmp_path / "pair"
        assert main(["synth", "--fixture", "identity", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in names) and "Traceback" not in err
        assert not out.exists()


class TestSupervise:
    def test_identity_is_all_vv(self, fresh_pair):
        pair = fresh_pair("identity")
        assert main(["supervise", "--pair", pair]) == 0
        sup = read_json(f"{pair}/supervision.json")
        assert len(sup["vv"]) == 432
        assert sup["vo"] == []
        assert sup["ov"] == []
        assert sup["occlusion_ratio"] == 0.0
        assert sum(sup["counts"].values()) == 192 * 144

    def test_supervision_stats_match_the_manifest(self, fresh_pair):
        pair = fresh_pair("two_plane")
        assert main(["supervise", "--pair", pair]) == 0
        sup = read_json(f"{pair}/supervision.json")
        manifest = read_json(f"{pair}/manifest.json")
        assert sup["occlusion_ratio"] == manifest["occlusion_ratio"]
        assert sup["overlap_score"] == manifest["overlap_score"]
        assert len(sup["vo"]) > 0
        assert len(sup["ov"]) > 0

    def test_malformed_manifest_fails_with_file_name(self, tmp_path, capsys):
        bad = tmp_path / "broken"
        bad.mkdir()
        (bad / "manifest.json").write_text("{oops")
        assert main(["supervise", "--pair", str(bad)]) == 1
        assert "manifest.json" in capsys.readouterr().err


class TestVoxelize:
    def test_identity_plane_grids_are_one_hot(self, fresh_pair):
        pair = fresh_pair("identity")
        assert main(["voxelize", "--pair", pair]) == 0
        grid = read_occupancy(f"{pair}/occ_a.ocg")
        assert grid.values.shape == (72, 96, 64)
        # Background plane at 2 m: bin floor((2 - 0.1) / 0.1546875) = 12.
        expected_bin = math.floor((2.0 - 0.1) / ((10.0 - 0.1) / 64.0))
        assert np.all(grid.values[:, :, expected_bin] == 1.0)
        assert np.allclose(grid.column_sums, 1.0)
        cfg = read_json(f"{pair}/voxelize_config.json")["config"]
        assert cfg["depth_bins"] == 64

    def test_both_views_are_written(self, fresh_pair):
        pair = fresh_pair("stereo")
        assert main(["voxelize", "--pair", pair]) == 0
        for side in ("a", "b"):
            assert read_occupancy(f"{pair}/occ_{side}.ocg").values.shape == (72, 96, 64)

    def test_missing_depth_file_fails_cleanly(self, fresh_pair, capsys):
        pair = fresh_pair("identity")
        (Path(pair) / "depth_a.odm").unlink()
        assert main(["voxelize", "--pair", pair]) == 1
        assert "depth_a.odm" in capsys.readouterr().err


class TestMatch:
    def test_identity_recovers_every_patch(self, fresh_pair):
        pair = fresh_pair("identity")
        assert main(["supervise", "--pair", pair]) == 0
        assert main(["match", "--pair", pair]) == 0
        matches = read_matches(f"{pair}/matches.jsonl")
        assert len(matches) == 432
        assert all(m.label == "vv" for m in matches)
        assert all(m.patch_a == m.patch_b for m in matches)
        assert all(m.point_a is not None and m.point_b is not None for m in matches)

    def test_labels_computed_without_supervision_file(self, fresh_pair):
        pair = fresh_pair("identity")
        assert main(["match", "--pair", pair]) == 0
        matches = read_matches(f"{pair}/matches.jsonl")
        assert len(matches) == 432
        assert all(m.label == "vv" for m in matches)

    def test_config_sidecar_lists_branches(self, fresh_pair):
        pair = fresh_pair("identity")
        assert main(["match", "--pair", pair]) == 0
        sidecar = read_json(f"{pair}/match_config.json")
        assert sidecar["pair"] == "identity"
        assert sidecar["branches"] == [[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]]

    def test_same_seed_is_byte_identical(self, fresh_pair):
        a = fresh_pair("stereo", "s1")
        b = fresh_pair("stereo", "s2")
        assert main(["match", "--pair", a]) == 0
        assert main(["match", "--pair", b]) == 0
        bytes_a = (Path(a) / "matches.jsonl").read_bytes()
        bytes_b = (Path(b) / "matches.jsonl").read_bytes()
        assert bytes_a == bytes_b

    def test_impossible_threshold_yields_no_matches(self, fresh_pair):
        # Dual-softmax confidences are strictly below 1 on a multi-patch
        # grid, so the top of the allowed threshold range keeps nothing.
        pair = fresh_pair("identity")
        assert main(["match", "--pair", pair, "--match-threshold", "1.0"]) == 0
        assert read_matches(f"{pair}/matches.jsonl") == []

    def test_zero_feature_stride_fails_with_file_name(self, fresh_pair, capsys):
        pair = fresh_pair("identity")
        path = Path(pair) / "coarse_a.ofg"
        blob = bytearray(path.read_bytes())
        blob[16:20] = (0).to_bytes(4, "little")  # "OFG1", channels, rows, cols, stride
        path.write_bytes(bytes(blob))
        assert main(["match", "--pair", pair]) == 1
        err = capsys.readouterr().err
        assert "coarse_a.ofg" in err and "stride" in err

    def test_supervision_at_another_patch_stride_fails(self, fresh_pair, capsys):
        pair = fresh_pair("two_plane")
        assert main(["supervise", "--pair", pair, "--patch-stride", "16"]) == 0
        assert main(["match", "--pair", pair]) == 1
        err = capsys.readouterr().err
        assert "supervision.json" in err and "patch_stride" in err
        assert not (Path(pair) / "matches.jsonl").exists()

    def test_supervision_of_another_image_size_fails(self, fresh_pair, tmp_path, capsys):
        # Same stride, other grid: a 192x144 supervision copied into a
        # 320x240 pair would label every match "none".
        small = fresh_pair("two_plane")
        large = tmp_path / "two_plane_320"
        assert main(["synth", "--fixture", "two_plane", "--width", "320", "--height", "240",
                     "--out", str(large)]) == 0
        assert main(["supervise", "--pair", small]) == 0
        shutil.copy(Path(small) / "supervision.json", large / "supervision.json")
        capsys.readouterr()
        assert main(["match", "--pair", str(large)]) == 1
        err = capsys.readouterr().err
        assert "supervision.json" in err and "grid_a" in err and "Traceback" not in err
        assert not (large / "matches.jsonl").exists()

    @pytest.mark.parametrize("name, stride, channels, rows, field", [
        ("fine_a", 3, None, None, "stride"),
        ("fine_b", None, 64, None, "channels"),
        ("fine_a", None, None, 10, "rows"),
        ("fine_b", None, None, 10, "rows"),
        ("coarse_b", 4, None, None, "stride"),
        ("fine_b", 4, None, None, "stride"),
    ])
    def test_disagreeing_feature_grid_fails(self, fresh_pair, capsys,
                                            name, stride, channels, rows, field):
        # Each once ended in a traceback from the matcher or, for the last
        # three, exited 0 with wrong matches.
        pair = fresh_pair("two_plane")
        assert main(["supervise", "--pair", pair]) == 0
        path = Path(pair) / f"{name}.ofg"
        grid = read_features(path)
        write_features(path, FeatureGrid(grid.values[:channels, :rows], stride or grid.stride))
        capsys.readouterr()
        assert main(["match", "--pair", pair]) == 1
        err = capsys.readouterr().err
        assert f"{name}.ofg" in err and repr(field) in err and "Traceback" not in err
        assert not (Path(pair) / "matches.jsonl").exists()

    def test_nan_depth_fails_with_file_name(self, fresh_pair, capsys):
        pair = fresh_pair("identity")
        path = Path(pair) / "depth_a.odm"
        blob = bytearray(path.read_bytes())
        blob[12:16] = np.array([np.nan], dtype="<f4").tobytes()  # first pixel
        path.write_bytes(bytes(blob))
        assert main(["voxelize", "--pair", pair]) == 1
        err = capsys.readouterr().err
        assert "depth_a.odm" in err and "finite" in err


class TestConfigPrecedence:
    def test_fixture_overrides_beat_defaults(self, fresh_pair):
        # The fixture manifests recommend a sharper temperature than the
        # built-in default of 0.1.
        pair = fresh_pair("identity")
        assert main(["match", "--pair", pair]) == 0
        cfg = read_json(f"{pair}/match_config.json")["config"]
        assert cfg["temperature"] == 0.02

    def test_config_file_beats_fixture_overrides(self, fresh_pair, tmp_path):
        pair = fresh_pair("identity")
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, {"temperature": 0.5})
        assert main(["match", "--pair", pair, "--config", str(cfg_path)]) == 0
        assert read_json(f"{pair}/match_config.json")["config"]["temperature"] == 0.5

    def test_flag_beats_config_file(self, fresh_pair, tmp_path):
        pair = fresh_pair("identity")
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, {"temperature": 0.5})
        code = main([
            "match", "--pair", pair, "--config", str(cfg_path), "--temperature", "0.9",
        ])
        assert code == 0
        assert read_json(f"{pair}/match_config.json")["config"]["temperature"] == 0.9

    def test_unknown_config_key_fails_with_its_name(self, fresh_pair, tmp_path, capsys):
        pair = fresh_pair("identity")
        cfg_path = tmp_path / "cfg.json"
        write_json(cfg_path, {"bogus_knob": 1})
        assert main(["match", "--pair", pair, "--config", str(cfg_path)]) == 1
        assert "bogus_knob" in capsys.readouterr().err

    def test_non_object_manifest_overrides_fail_with_their_name(self, fresh_pair, capsys):
        pair = fresh_pair("identity")
        manifest = read_json(f"{pair}/manifest.json")
        manifest["match_overrides"] = [5]
        write_json(f"{pair}/manifest.json", manifest)
        assert main(["match", "--pair", pair]) == 1
        assert "match_overrides" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["min_overlap", "max_overlap", "min_occlusion"])
    def test_removed_filter_setting_is_unknown(self, fresh_pair, tmp_path, capsys, name):
        pair = fresh_pair("identity")
        write_json(tmp_path / "cfg.json", {name: 0.5})
        assert main(["supervise", "--pair", pair, "--config", str(tmp_path / "cfg.json")]) == 1
        assert f"unknown setting {name!r}" in capsys.readouterr().err
        assert not (Path(pair) / "supervision.json").exists()

    def test_seed_env_fallback_and_flag_override(self, fresh_pair, monkeypatch):
        pair = fresh_pair("identity")
        monkeypatch.setenv("OCCMATCH_SEED", "7")
        assert main(["match", "--pair", pair]) == 0
        assert read_json(f"{pair}/match_config.json")["config"]["seed"] == 7
        assert main(["match", "--pair", pair, "--seed", "3"]) == 0
        assert read_json(f"{pair}/match_config.json")["config"]["seed"] == 3


class TestSettings:
    """Every setting is one flag, one --config key and one key of the echo,
    derived from the module configs."""

    SETTINGS = [
        "angles", "auc_thresholds", "channels", "d_max", "d_min", "depth_bins",
        "fine_temperature", "fine_window", "inlier_threshold", "margin_floor",
        "margin_relative", "match_threshold", "patch_stride", "ransac_confidence",
        "ransac_iterations", "seed", "temperature",
    ]
    COMMAND_OPTIONS = {
        "synth": {"--fixture", "--scene", "--pose-a", "--pose-b", "--intrinsics",
                  "--width", "--height", "--out"},
        "supervise": {"--pair", "--out"},
        "voxelize": {"--pair", "--out-dir"},
        "match": {"--pair", "--out"},
        "eval": {"--matches", "--manifests", "--out-report", "--out-curve"},
    }
    ECHO_FLAGS = [
        "--angles", "0", "15", "--fine-window", "9", "--match-threshold", "0.3",
        "--seed", "4", "--auc-thresholds", "5", "10", "--margin-floor", "0.04",
        "--depth-bins", "16", "--channels", "64",
    ]

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_config_flags_are_exactly_the_settings(self, command):
        echo = RunConfig().to_json()
        assert sorted(echo) == self.SETTINGS
        flags = {"--config"} | {"--" + n.replace("_", "-") for n in echo}
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert options == {"-h", "--help"} | self.COMMAND_OPTIONS[command] | flags

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_echo_read_back_through_config_is_unchanged(self, fresh_pair, tmp_path, command):
        pair = fresh_pair("identity")
        assert main(["match", "--pair", pair]) == 0  # eval's input

        def echo(out: Path, *extra: str) -> dict:
            argv, echo_file = {
                "synth": (["synth", "--fixture", "identity", "--out", str(out)], "manifest.json"),
                "supervise": (["supervise", "--pair", pair, "--out", str(out / "s.json")], "s.json"),
                "voxelize": (["voxelize", "--pair", pair, "--out-dir", str(out)],
                             "voxelize_config.json"),
                "match": (["match", "--pair", pair, "--out", str(out / "m.jsonl")],
                          "match_config.json"),
                "eval": (["eval", "--matches", f"{pair}/matches.jsonl",
                          "--manifests", f"{pair}/manifest.json",
                          "--out-report", str(out / "r.json"), "--out-curve", str(out / "c.csv")],
                         "r.json"),
            }[command]
            out.mkdir()
            assert main([*argv, *extra]) == 0
            return read_json(out / echo_file)["config"]

        first = echo(tmp_path / "flags", *self.ECHO_FLAGS)
        assert first["angles"] == [0.0, 15.0] and first["fine_window"] == 9
        write_json(tmp_path / "echo.json", first)
        second = echo(tmp_path / "config", "--config", str(tmp_path / "echo.json"))
        assert dump_json(second) == dump_json(first)

    @pytest.mark.parametrize("flags, config, setting", [
        (["--match-threshold", "2"], None, "match_threshold"),
        (["--patch-stride", "0"], None, "patch_stride"),
        (["--d-min", "5", "--d-max", "1"], None, "d_min"),
        (["--margin-floor", "0"], None, "margin_floor"),
        (["--channels", "3"], None, "channels"),
        (["--patch-stride", "3"], None, "patch_stride"),  # not a multiple of the fine stride 2
        (["--temperature", "nan"], None, "temperature"),
        (["--margin-relative", "nan"], None, "margin_relative"),
        (["--inlier-threshold", "nan"], None, "inlier_threshold"),
        ([], {"temperature": "abc"}, "temperature"),
        ([], {"angles": 5}, "angles"),
        ([], {"gumbel_hard": True}, "gumbel_hard"),  # not a setting
        ([], {"gumbel_temperature": 1.0}, "gumbel_temperature"),
        ([], {"gumbel_granularity": "entry"}, "gumbel_granularity"),
        ([], {"mutual": False}, "mutual"),
        ([], {"fine_window": True}, "fine_window"),  # a bool is not an int
        ([], {"lambda1": 1.0}, "lambda1"),
        (["--width", "0"], None, "--width"),  # the fixture size flags are checked alike
        (["--height", "-3"], None, "--height"),
        (["--seed", "abc"], None, "seed"),  # flag text goes through the one converter
        (["--match-threshold", "x"], None, "match_threshold"),
        (["--width", "abc"], None, "--width"),  # argparse's own errors exit 1 too
        (["--bogus", "1"], None, "--bogus"),
    ])
    def test_bad_setting_exits_one_naming_it(self, tmp_path, capsys, flags, config, setting):
        if config is not None:
            write_json(tmp_path / "cfg.json", config)
            flags = ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "pair"
        assert main(["synth", "--fixture", "identity", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert setting in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["match"], "--pair"),
        (["curve", "--report", "r.json", "--out", "c.csv"], "'curve'"),
    ])
    def test_unreadable_command_line_exits_one(self, capsys, argv, named):
        # argparse's own errors exit 1 like the rest; the exit codes are 0 and 1.
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


class TestMalformedInputs:
    """A JSON field of the wrong type exits 1 naming the file and the field."""

    @pytest.mark.parametrize("target, where, value", [
        ("manifest.json", "k", 5),
        ("manifest.json", "files", [5]),
        ("manifest.json", "k.width", "abc"),
        ("manifest.json", "k.width", None),
        ("manifest.json", "k.height", [5]),
        ("manifest.json", "k.fx", [5]),
        ("scene.json", "primitives", 5),
        ("scene.json", "primitives.0", 5),
        ("scene.json", "primitives.0.texture", -1),
        ("supervision.json", "patch_stride", "abc"),
        ("supervision.json", "vv", 5),
        ("supervision.json", "vo", [5]),
        ("supervision.json", "ov", [[1]]),
        ("matches.jsonl", "a", 5),
        ("matches.jsonl", "b", [5]),
        ("matches.jsonl", "a", {}),
        ("manifest.json", "k.fx", math.nan),
        ("manifest.json", "pose_b.t", [math.nan, 0.0, 0.0]),
        ("supervision.json", "grid_a", [18, 24.0]),
    ])
    def test_wrong_type_exits_one(self, fresh_pair, tmp_path, capsys, target, where, value):
        keys = [int(k) if k.isdigit() else k for k in where.split(".")]
        pair = Path(fresh_pair("identity"))
        manifest = read_json(pair / "manifest.json")
        for name in ("scene", "pose_a", "pose_b", "k"):
            write_json(tmp_path / f"{name}.json", manifest[name])
        argv = {
            "manifest.json": ["supervise", "--pair", str(pair)],
            "scene.json": ["synth", "--scene", str(tmp_path / "scene.json"),
                           "--pose-a", str(tmp_path / "pose_a.json"),
                           "--pose-b", str(tmp_path / "pose_b.json"),
                           "--intrinsics", str(tmp_path / "k.json"), "--out", str(tmp_path / "out")],
            "supervision.json": ["match", "--pair", str(pair)],
            "matches.jsonl": ["eval", "--matches", str(pair / "matches.jsonl"),
                              "--manifests", str(pair / "manifest.json"),
                              "--out-report", str(tmp_path / "r.json"),
                              "--out-curve", str(tmp_path / "c.csv")],
        }[target]
        assert main(["supervise", "--pair", str(pair)]) == 0
        assert main(["match", "--pair", str(pair)]) == 0
        path = (tmp_path if target == "scene.json" else pair) / target
        if target == "matches.jsonl":
            lines = path.read_text().splitlines()
            obj = json.loads(lines[0])
        else:
            obj = read_json(path)
        inner = obj
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = value
        if target == "matches.jsonl":
            path.write_text("\n".join([dump_json_line(obj), *lines[1:]]) + "\n")
        else:
            write_json(path, obj)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        field = next(k for k in reversed(keys) if isinstance(k, str))
        assert target in err and repr(field) in err and "Traceback" not in err

    @pytest.mark.parametrize("target, where, value", [
        ("manifest.json", "occlusion_ratio", "abc"),
    ])
    def test_eval_and_curve_inputs_exit_one(self, fresh_pair, tmp_path, capsys,
                                            target, where, value):
        # eval orders the curve by each manifest's occlusion_ratio.
        pair = Path(fresh_pair("identity"))
        assert main(["match", "--pair", str(pair)]) == 0
        manifest = read_json(pair / target)
        manifest[where] = value
        write_json(pair / target, manifest)
        capsys.readouterr()
        assert main(["eval", "--matches", str(pair / "matches.jsonl"),
                     "--manifests", str(pair / "manifest.json"),
                     "--out-report", str(tmp_path / "r.json"),
                     "--out-curve", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert target in err and repr(where) in err and "Traceback" not in err


    def test_oversized_occupancy_grid_exits_one(self, fresh_pair, capsys):
        # 72 x 96 columns x 1e8 bins of float64 would be 5.03 TiB (5150 GiB).
        pair = fresh_pair("identity")
        assert main(["voxelize", "--pair", pair, "--depth-bins", "100000000"]) == 1
        err = capsys.readouterr().err
        assert "depth_bins" in err and "5.15e+03 GiB" in err and "Traceback" not in err


class TestEvalAndCurve:
    def run_eval(self, pairs, out_dir):
        report = out_dir / "report.json"
        curve = out_dir / "curve.csv"
        code = main([
            "eval",
            "--matches", *[f"{p}/matches.jsonl" for p in pairs],
            "--manifests", *[f"{p}/manifest.json" for p in pairs],
            "--out-report", str(report), "--out-curve", str(curve),
        ])
        return code, report, curve

    def test_stereo_pose_recovery(self, fresh_pair, tmp_path):
        pair = fresh_pair("stereo")
        assert main(["match", "--pair", pair]) == 0
        code, report_path, curve_path = self.run_eval([pair], tmp_path)
        assert code == 0
        report = read_json(report_path)
        row = report["pairs"][0]
        assert row["id"] == "stereo"
        assert row["pose_err_deg"] < 0.1
        assert row["inliers"] >= 300
        assert set(report["auc"]) == {"5", "10", "20"}
        assert report["auc"]["5"] > 98.0
        assert read_curve_csv(curve_path) == [(1, row["pose_err_deg"])]

    def test_pure_rotation_scores_rotation_only(self, fresh_pair, tmp_path):
        # Zero baseline leaves the translation direction unobservable; the
        # pair is scored on rotation alone with translation error 0.
        pair = fresh_pair("rotation")
        assert main(["match", "--pair", pair]) == 0
        code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        row = read_json(report_path)["pairs"][0]
        assert row["t_err_deg"] == 0.0
        assert row["rot_err_deg"] < 0.5
        assert row["pose_err_deg"] == row["rot_err_deg"]

    def test_overflowing_match_point_exits_cleanly(self, fresh_pair, tmp_path):
        # The 1e308 point overflows the spread of every RANSAC sample that
        # draws it; such samples are masked without a numpy warning.
        pair = fresh_pair("rotation")
        assert main(["match", "--pair", pair]) == 0
        path = Path(pair) / "matches.jsonl"
        lines = path.read_text().splitlines()
        match = json.loads(lines[5])
        match["a"][0] = 1e308
        lines[5] = json.dumps(match)
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        row = read_json(report_path)["pairs"][0]
        assert row["pose_err_deg"] < 0.5 and row["inliers"] > 0

    def test_curve_rows_follow_occlusion_order(self, fresh_pair, tmp_path):
        pairs = [fresh_pair("stereo"), fresh_pair("two_plane")]
        for p in pairs:
            assert main(["match", "--pair", p]) == 0
        code, report_path, curve_path = self.run_eval(pairs, tmp_path)
        assert code == 0
        rows = read_curve_csv(curve_path)
        assert len(rows) == 2
        assert rows[0][0] == 1 and rows[1][0] == 2

    def test_empty_matches_score_as_failure(self, fresh_pair, tmp_path):
        pair = fresh_pair("stereo")
        (Path(pair) / "matches.jsonl").write_text("")
        code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        row = read_json(report_path)["pairs"][0]
        assert row["pose_err_deg"] == math.inf
        assert row["inliers"] == 0
        assert read_json(report_path)["auc"]["5"] == 0.0

    def test_matches_manifest_count_mismatch_fails(self, fresh_pair, tmp_path, capsys):
        pair = fresh_pair("stereo")
        assert main(["match", "--pair", pair]) == 0
        code = main([
            "eval", "--matches", f"{pair}/matches.jsonl",
            "--manifests", f"{pair}/manifest.json", f"{pair}/manifest.json",
            "--out-report", str(tmp_path / "r.json"), "--out-curve", str(tmp_path / "c.csv"),
        ])
        assert code == 1
        assert "manifests" in capsys.readouterr().err

    def test_eval_rerun_is_byte_identical(self, fresh_pair, tmp_path):
        pair = fresh_pair("stereo")
        assert main(["match", "--pair", pair]) == 0
        _, report1, curve1 = self.run_eval([pair], tmp_path)
        out2 = tmp_path / "again"
        out2.mkdir()
        _, report2, curve2 = self.run_eval([pair], out2)
        assert report1.read_bytes() == report2.read_bytes()
        assert curve1.read_bytes() == curve2.read_bytes()
