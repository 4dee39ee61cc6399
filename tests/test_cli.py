"""End-to-end command-line pipeline: synth, supervise, voxelize, match,
eval; config precedence; exit codes; byte determinism."""

import argparse
import dataclasses
import hashlib
import json
import math
import re
import shutil
import warnings
from collections import Counter
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from occmatch import matching, occupancy, synth
from occmatch.cli import _READS, RunConfig, build_parser, main
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
    write_depth,
    write_features,
    write_json,
)
from occmatch.geometry import CameraIntrinsics, DepthMap, PoseSE3, relative_pose
from occmatch.matching import FeatureGrid
from occmatch.supervision import label_matches
from occmatch.synth import Plane, SceneSpec, make_fixture


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    """Render each needed fixture once; tests copy before mutating."""
    root = tmp_path_factory.mktemp("pairs")
    for name in ("identity", "rotation", "stereo", "two_plane", "box_roll30"):
        assert main(["synth", "--fixture", name, "--out", str(root / name)]) == 0
    return root


@pytest.fixture(scope="module")
def matched_pair(synth_root, tmp_path_factory):
    """The identity pair with its matches; tests only read it."""
    pair = tmp_path_factory.mktemp("matched") / "identity"
    shutil.copytree(synth_root / "identity", pair)
    assert main(["match", "--pair", str(pair)]) == 0
    return str(pair)


# The settings each command reads, as the README's table lists them.
READS = {
    "synth": {"channels", "patch_stride"},
    "supervise": set(),
    "voxelize": {"depth_bins", "d_min", "d_max"},
    "match": {"temperature", "angles", "match_threshold", "fine_window", "fine_temperature"},
    "eval": {"ransac_iterations", "inlier_threshold", "ransac_confidence", "seed"},
}
# A value of each setting that the commands reading it accept.
VALUES = {
    "channels": 64, "patch_stride": 16, "depth_bins": 16, "d_min": 0.2, "d_max": 8.0, "temperature": 0.5, "angles": [0.0, 15.0],
    "match_threshold": 0.3, "fine_window": 7, "fine_temperature": 0.1, "ransac_iterations": 50,
    "inlier_threshold": 0.002, "ransac_confidence": 0.99, "seed": 4,
}
# The file of each command's output that holds its `config` echo.
ECHO_FILES = {"synth": "manifest.json", "supervise": "s.json", "voxelize": "voxelize_config.json",
              "match": "match_config.json", "eval": "r.json"}


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def flag_args(name: str) -> list[str]:
    value = VALUES[name]
    return [flag(name), *map(str, value if isinstance(value, list) else [value])]


def command_argv(command: str, pair: str, out: Path) -> list[str]:
    """`command` on `pair` (synth: on the identity fixture), writing every
    output under `out`; synth and voxelize create `out` themselves."""
    if command in ("supervise", "match", "eval"):
        out.mkdir()
    return {
        "synth": ["synth", "--fixture", "identity", "--out", str(out)],
        "supervise": ["supervise", "--pair", pair, "--out", str(out / "s.json")],
        "voxelize": ["voxelize", "--pair", pair, "--out-dir", str(out)],
        "match": ["match", "--pair", pair, "--out", str(out / "m.jsonl")],
        "eval": ["eval", "--matches", f"{pair}/matches.jsonl", "--manifests", f"{pair}/manifest.json",
                 "--out-report", str(out / "r.json"), "--out-curve", str(out / "c.csv")],
    }[command]


def tree(root: Path) -> list[Path]:
    return sorted(root.rglob("*"))


def subparser(command: str) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def synth_scene(tmp_path: Path, plane: Plane, pose_a: PoseSE3, pose_b: PoseSE3) -> tuple[int, Path]:
    """Run synth on a one-plane scene at 32x24; returns the exit code and
    the pair directory."""
    write_json(tmp_path / "scene.json", scene_to_json(SceneSpec((plane,))))
    write_json(tmp_path / "pa.json", pose_to_json(pose_a))
    write_json(tmp_path / "pb.json", pose_to_json(pose_b))
    write_json(tmp_path / "k.json", intrinsics_to_json(CameraIntrinsics(100.0, 100.0, 15.5, 11.5, 32, 24)))
    out = tmp_path / "pair"
    code = main(["synth", "--scene", str(tmp_path / "scene.json"),
                 "--pose-a", str(tmp_path / "pa.json"), "--pose-b", str(tmp_path / "pb.json"),
                 "--intrinsics", str(tmp_path / "k.json"), "--out", str(out)])
    return code, out


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

    @pytest.mark.parametrize("a_back, b_back, views", [
        (False, False, "views A and B"),
        (False, True, "view A"),
        (True, False, None),
    ])
    def test_scene_that_view_a_cannot_see_exits_one(self, tmp_path, capsys, a_back, b_back, views):
        # One plane at z = -2: a camera at the origin sees it only when it
        # looks down -z. Later commands need view A, so synth refuses an
        # empty view A; an empty view B alone is a valid, non-overlapping pair.
        backwards = PoseSE3(np.diag([-1.0, 1.0, -1.0]), np.zeros(3))
        poses = [backwards if back else PoseSE3.identity() for back in (a_back, b_back)]
        code, out = synth_scene(tmp_path, Plane((0.0, 0.0, -2.0), (0.0, 0.0, 1.0)), *poses)
        err = capsys.readouterr().err
        if views is None:
            assert code == 0 and not read_depth(out / "depth_b.odm").valid_mask.any()
            return
        assert code == 1 and not out.exists()
        assert f"{tmp_path / 'scene.json'}: {views} would have no valid depth pixel" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, named", [
        ("supervise", "{a}: view A has no valid depth pixel"),
        ("voxelize", "{a}, {b}: no valid depth pixel in either view"),
    ])
    def test_depth_without_valid_pixel_names_the_file(self, tmp_path, capsys, command, named):
        # All-invalid depth rasters, as synth wrote them for a scene that no
        # ray hits before it refused such scenes.
        identity = PoseSE3.identity()
        code, pair = synth_scene(tmp_path, Plane((0.0, 0.0, 2.0), (0.0, 0.0, 1.0)), identity, identity)
        assert code == 0
        for side in ("a", "b"):
            write_depth(pair / f"depth_{side}.odm", DepthMap(np.zeros((24, 32))))
        capsys.readouterr()
        assert main([command, "--pair", str(pair)]) == 1
        err = capsys.readouterr().err
        assert named.format(a=pair / "depth_a.odm", b=pair / "depth_b.odm") in err
        assert "Traceback" not in err

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
        assert sum(sup["counts"].values()) == 192 * 144

    def test_pair_statistics_live_in_the_manifest_alone(self, fresh_pair):
        # supervise's raster classifier once wrote an occlusion ratio 6-11 %
        # above the manifest's ray-cast one, which eval reads.
        pair = fresh_pair("two_plane")
        assert main(["supervise", "--pair", pair]) == 0
        text = Path(pair, "supervision.json").read_text(encoding="utf-8")
        sup = json.loads(text)
        assert text == dump_json_line(sup) + "\n"
        assert not {"occlusion_ratio", "overlap_score"} & set(sup)
        assert len(sup["vo"]) > 0
        assert len(sup["ov"]) > 0

    def test_two_plane_bytes_are_frozen(self, fresh_pair):
        # The SHA-256 of the file as the dense classification wrote it,
        # without the pair statistics, as one dump_json_line; the row blocks
        # keep it. Its config echo is {}: supervise reads no setting.
        pair = fresh_pair("two_plane")
        assert main(["supervise", "--pair", pair]) == 0
        digest = hashlib.sha256(Path(pair, "supervision.json").read_bytes()).hexdigest()
        assert digest == "2bbfb8133713ed8befd16f013a29d0cc0627864570926548483ab574ceac33bf"

    def test_patch_stride_comes_from_the_coarse_features(self, tmp_path, capsys):
        # Once supervise wrote the GT at its own default stride 8 beside
        # stride-16 features, so its indices named patches of another grid.
        pair = tmp_path / "two_plane"
        assert main(["synth", "--fixture", "two_plane", "--patch-stride", "16",
                     "--out", str(pair)]) == 0
        assert main(["supervise", "--pair", str(pair)]) == 0
        sup = read_json(pair / "supervision.json")
        assert sup["patch_stride"] == 16 and sup["grid_a"] == [9, 12] and sup["grid_b"] == [9, 12]
        assert read_features(pair / "coarse_a.ofg").grid_shape == (9, 12)
        assert sup["vv"] and sup["vo"] and sup["ov"]
        assert all(0 <= i < 9 * 12 for key in ("vv", "vo", "ov") for ij in sup[key] for i in ij)
        assert "patch_stride" not in sup["config"]
        capsys.readouterr()
        assert main(["supervise", "--pair", str(pair), "--patch-stride", "16"]) == 1
        err = capsys.readouterr().err
        assert "--patch-stride is read by synth, not by supervise" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["missing", "truncated", "rows"])
    def test_bad_coarse_a_exits_one_naming_it(self, fresh_pair, capsys, damage):
        pair = Path(fresh_pair("two_plane"))
        path = pair / "coarse_a.ofg"
        if damage == "missing":
            path.unlink()
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:10])
        else:
            grid = read_features(path)
            write_features(path, FeatureGrid(grid.values[:, :10], grid.stride))
        capsys.readouterr()
        assert main(["supervise", "--pair", str(pair)]) == 1
        err = capsys.readouterr().err
        assert "coarse_a.ofg" in err and "Traceback" not in err
        if damage == "rows":
            assert "'rows'/'cols'/'stride' give 10x24 cells at stride 8" in err
        assert not (pair / "supervision.json").exists()

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
        assert np.allclose(grid.values.sum(axis=-1), 1.0)
        cfg = read_json(f"{pair}/voxelize_config.json")["config"]
        assert cfg["depth_bins"] == 64

    def test_both_views_are_written(self, fresh_pair):
        pair = fresh_pair("stereo")
        assert main(["voxelize", "--pair", pair]) == 0
        for side in ("a", "b"):
            assert read_occupancy(f"{pair}/occ_{side}.ocg").values.shape == (72, 96, 64)

    def test_synth_and_voxelize_leave_only_their_files(self, tmp_path):
        # The raster writers write a temporary file beside each target and
        # rename it over the target; none may be left behind, on a first
        # write or a rewrite.
        pair = tmp_path / "stereo"
        synth_files = ["coarse_a.ofg", "coarse_b.ofg", "depth_a.odm", "depth_b.odm",
                       "fine_a.ofg", "fine_b.ofg", "manifest.json"]
        for _ in range(2):
            assert main(["synth", "--fixture", "stereo", "--out", str(pair)]) == 0
            assert sorted(p.name for p in pair.iterdir()) == synth_files
        for _ in range(2):
            assert main(["voxelize", "--pair", str(pair)]) == 0
            assert sorted(p.name for p in pair.iterdir()) == sorted(
                synth_files + ["occ_a.ocg", "occ_b.ocg", "voxelize_config.json"])

    def test_missing_depth_file_fails_cleanly(self, fresh_pair, capsys):
        pair = fresh_pair("identity")
        (Path(pair) / "depth_a.odm").unlink()
        assert main(["voxelize", "--pair", pair]) == 1
        assert "depth_a.odm" in capsys.readouterr().err


class TestMatch:
    def test_identity_recovers_every_patch(self, fresh_pair):
        pair = fresh_pair("identity")
        assert main(["match", "--pair", pair]) == 0
        matches = read_matches(f"{pair}/matches.jsonl")
        assert len(matches) == 432
        assert np.array_equal(matches.patch_a, matches.patch_b)
        assert np.isfinite(matches.point_a).all() and np.isfinite(matches.point_b).all()

    @pytest.mark.parametrize("width, height", [(192, 146), (194, 144)])
    def test_partial_edge_patches_are_refined(self, tmp_path, capsys, width, height):
        # H or W mod 8 = 2: the edge patches cover one fine cell each.
        pair = str(tmp_path / "pair")
        assert main(["synth", "--fixture", "identity", "--width", str(width),
                     "--height", str(height), "--out", pair]) == 0
        assert main(["match", "--pair", pair]) == 0
        assert "Traceback" not in capsys.readouterr().err
        matches = read_matches(f"{pair}/matches.jsonl")
        assert len(matches)
        assert np.isfinite(matches.point_a).all() and np.isfinite(matches.point_b).all()
        u, v = matches.point_a.T
        assert ((0 <= u) & (u < width) & (0 <= v) & (v < height)).all()

    @pytest.mark.parametrize("name", ["two_plane", "box_roll30"])
    def test_reads_only_the_manifest_and_feature_grids(self, fresh_pair, name):
        full, bare = Path(fresh_pair(name, "full")), Path(fresh_pair(name, "bare"))
        for pair in (full, bare):
            assert main(["supervise", "--pair", str(pair)]) == 0
        for file_name in ("supervision.json", "depth_a.odm", "depth_b.odm"):
            (bare / file_name).unlink()
        for pair in (full, bare):
            assert main(["match", "--pair", str(pair)]) == 0
        for file_name in ("matches.jsonl", "match_config.json"):
            assert (bare / file_name).read_bytes() == (full / file_name).read_bytes()

    def test_config_sidecar_lists_branches(self, fresh_pair):
        pair = fresh_pair("identity")
        assert main(["match", "--pair", pair]) == 0
        sidecar = read_json(f"{pair}/match_config.json")
        assert sidecar["pair"] == "identity"
        assert sidecar["branches"] == [[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]]
        # The branch histogram is eval's report's alone.
        assert set(sidecar) == {"pair", "branches", "config"}

    @pytest.mark.parametrize("name", ["identity", "stereo"])
    def test_unrolled_pair_takes_the_unrotated_branch(self, fresh_pair, name):
        pair = fresh_pair(name)
        assert main(["match", "--pair", pair]) == 0
        matches = read_matches(f"{pair}/matches.jsonl")
        assert len(matches) and (matches.branch == (0.0, 0.0)).all()

    def test_rolled_pair_takes_the_branch_that_undoes_its_roll(self, fresh_pair):
        pair = fresh_pair("box_roll30")
        assert main(["match", "--pair", pair]) == 0
        matches = read_matches(f"{pair}/matches.jsonl")
        assert (matches.branch == (0.0, 30.0)).all(axis=1).sum() / len(matches) > 0.70
        branches = read_json(f"{pair}/match_config.json")["branches"]
        assert all(b in branches for b in matches.branch.tolist())

    def test_rolled_pair_at_640x480_takes_the_branch_that_undoes_its_roll(self, tmp_path):
        # The paper's evaluation size, built here (about 3 s): (0, 30) is
        # the most-picked branch, as at 192x144.
        pair = tmp_path / "box_roll30"
        assert main(["synth", "--fixture", "box_roll30", "--width", "640", "--height", "480",
                     "--out", str(pair)]) == 0
        assert main(["match", "--pair", str(pair)]) == 0
        matches = read_matches(pair / "matches.jsonl")
        branches = read_json(pair / "match_config.json")["branches"]
        counts = Counter(map(tuple, matches.branch.tolist()))
        assert len(matches) > 3000 and all(list(b) in branches for b in counts)
        assert max(counts, key=counts.get) == (0.0, 30.0)

    def test_repeated_angles_score_each_rotation_once(self, fresh_pair):
        once, twice = fresh_pair("box_roll30", "once"), fresh_pair("box_roll30", "twice")
        assert main(["match", "--pair", once, "--angles", "0", "30"]) == 0
        assert main(["match", "--pair", twice, "--angles", "0", "30", "30"]) == 0
        assert (Path(once) / "matches.jsonl").read_bytes() == (Path(twice) / "matches.jsonl").read_bytes()
        sidecar = read_json(f"{twice}/match_config.json")
        assert sidecar["branches"] == [[0.0, 0.0], [30.0, 0.0], [0.0, 30.0]]

    def test_oversized_fine_window_exits_one(self, fresh_pair, capsys):
        # 128 channels x 64 matches x 201 x 201 window cells of float64 would be 2.47 GiB.
        pair = fresh_pair("box_roll30")
        assert main(["match", "--pair", pair, "--fine-window", "201"]) == 1
        err = capsys.readouterr().err
        assert "fine_window 201" in err and "2.47 GiB" in err and "Traceback" not in err
        assert not (Path(pair) / "matches.jsonl").exists()

    def test_zero_threshold_refuses_oversized_candidates_before_scoring(
            self, fresh_pair, tmp_path, capsys, monkeypatch):
        # At threshold 0 every entry of every branch is a candidate: 3 x 432
        # x 432 at 192x144, which pass the limit until it is lowered.
        pair = fresh_pair("box_roll30")
        assert main(["match", "--pair", pair, "--match-threshold", "0"]) == 0
        assert len(read_matches(f"{pair}/matches.jsonl")) > 0
        monkeypatch.setattr(occupancy, "_MAX_GRID_BYTES", 3 * 432 * 432 * 8)
        monkeypatch.setattr(matching, "score_matrix", None)  # scoring would raise a TypeError
        capsys.readouterr()
        out = tmp_path / "refused" / "matches.jsonl"
        assert main(["match", "--pair", pair, "--match-threshold", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "match_threshold 0 needs a 3x432x432x7" in err and "Traceback" not in err
        assert not out.parent.exists()

    def test_zero_threshold_works_at_320x240(self, tmp_path):
        pair = tmp_path / "box_roll30"
        assert main(["synth", "--fixture", "box_roll30", "--width", "320", "--height", "240",
                     "--out", str(pair)]) == 0
        assert main(["match", "--pair", str(pair), "--match-threshold", "0"]) == 0
        assert len(read_matches(pair / "matches.jsonl")) > 0

    def test_output_does_not_depend_on_the_seed(self, fresh_pair):
        a = fresh_pair("box_roll30", "seed0")
        b = fresh_pair("box_roll30", "seed5")
        assert main(["match", "--pair", a, "--seed", "0"]) == 0
        assert main(["match", "--pair", b, "--seed", "5"]) == 0
        assert (Path(a) / "matches.jsonl").read_bytes() == (Path(b) / "matches.jsonl").read_bytes()

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
        assert len(read_matches(f"{pair}/matches.jsonl")) == 0

    def test_zero_feature_stride_fails_with_file_name(self, fresh_pair, capsys):
        pair = fresh_pair("identity")
        path = Path(pair) / "coarse_a.ofg"
        blob = bytearray(path.read_bytes())
        blob[16:20] = (0).to_bytes(4, "little")  # "OFG1", channels, rows, cols, stride
        path.write_bytes(bytes(blob))
        assert main(["match", "--pair", pair]) == 1
        err = capsys.readouterr().err
        assert "coarse_a.ofg" in err and "stride" in err

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

    @pytest.mark.parametrize("command", ["match", "supervise"], ids=["match", "supervise"])
    def test_zero_channel_feature_grid_exits_one(self, fresh_pair, capsys, command):
        # match once ended in a reshape traceback and supervise exited 0.
        pair = fresh_pair("two_plane")
        for name in ("coarse_a", "coarse_b"):
            path = Path(pair) / f"{name}.ofg"
            blob = bytearray(path.read_bytes()[:20])
            blob[4:8] = (0).to_bytes(4, "little")  # "OFG1", channels, rows, cols, stride
            path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main([command, "--pair", pair]) == 1
        err = capsys.readouterr().err
        assert "coarse_a.ofg" in err and "channels" in err and "Traceback" not in err

    def test_nan_depth_fails_with_file_name(self, fresh_pair, capsys):
        pair = fresh_pair("identity")
        path = Path(pair) / "depth_a.odm"
        blob = bytearray(path.read_bytes())
        blob[12:16] = np.array([np.nan], dtype="<f4").tobytes()  # first pixel
        path.write_bytes(bytes(blob))
        assert main(["voxelize", "--pair", pair]) == 1
        err = capsys.readouterr().err
        assert "depth_a.odm" in err and "finite" in err

    @pytest.mark.parametrize("name", ["coarse_a", "fine_b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 3e38])
    def test_bad_feature_value_fails_with_file_name(self, fresh_pair, capsys, name, value):
        # 3e38 is finite, but the 5-tap averages of an aligned coarse grid
        # overflow on it.
        pair = fresh_pair("two_plane")
        path = Path(pair) / f"{name}.ofg"
        blob = bytearray(path.read_bytes())
        blob[20:24] = np.array([value], dtype="<f4").tobytes()  # first value
        path.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["match", "--pair", pair]) == 1
        err = capsys.readouterr().err
        assert f"{name}.ofg" in err and "finite" in err and "Traceback" not in err
        assert not (Path(pair) / "matches.jsonl").exists()


class TestConfigPrecedence:
    def test_fixture_match_echoes_the_sharp_defaults(self, fresh_pair):
        pair = fresh_pair("identity")
        assert main(["match", "--pair", pair]) == 0
        cfg = read_json(f"{pair}/match_config.json")["config"]
        assert (cfg["temperature"], cfg["fine_temperature"], cfg["fine_window"]) == (0.02, 0.05, 7)

    def test_manifest_match_overrides_are_not_read(self, fresh_pair):
        # Manifests written before the sharp settings became the defaults
        # carry them as match_overrides; match ignores the field.
        plain, old = Path(fresh_pair("stereo", "plain")), Path(fresh_pair("stereo", "old"))
        manifest = read_json(old / "manifest.json")
        manifest["match_overrides"] = {"temperature": 0.5, "seed": 3}
        write_json(old / "manifest.json", manifest)
        for pair in (plain, old):
            assert main(["match", "--pair", str(pair)]) == 0
        for name in ("matches.jsonl", "match_config.json"):
            assert (old / name).read_bytes() == (plain / name).read_bytes()

    def test_config_file_beats_defaults(self, fresh_pair, tmp_path):
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

    @pytest.mark.parametrize("name", ["min_overlap", "max_overlap", "min_occlusion"])
    def test_removed_filter_setting_is_unknown(self, fresh_pair, tmp_path, capsys, name):
        pair = fresh_pair("identity")
        write_json(tmp_path / "cfg.json", {name: 0.5})
        assert main(["supervise", "--pair", pair, "--config", str(tmp_path / "cfg.json")]) == 1
        assert f"unknown setting {name!r}" in capsys.readouterr().err
        assert not (Path(pair) / "supervision.json").exists()

    def test_eval_seed_defaults_to_zero_whatever_the_environment(self, matched_pair, tmp_path,
                                                                 monkeypatch):
        # Settings come from flags, --config and defaults alone.
        monkeypatch.setenv("OCCMATCH_SEED", "7")
        assert main(command_argv("eval", matched_pair, tmp_path / "out")) == 0
        assert read_json(tmp_path / "out" / "r.json")["config"]["seed"] == 0


class TestSettings:
    """Each command takes as flags and --config keys, echoes and lists in
    --help exactly the settings it reads."""

    SETTINGS = [
        "angles", "channels", "d_max", "d_min", "depth_bins", "fine_temperature",
        "fine_window", "inlier_threshold", "match_threshold", "patch_stride",
        "ransac_confidence", "ransac_iterations", "seed", "temperature",
    ]
    COMMAND_OPTIONS = {
        "synth": {"--fixture", "--scene", "--pose-a", "--pose-b", "--intrinsics",
                  "--width", "--height", "--out"},
        "supervise": {"--pair", "--out"},
        "voxelize": {"--pair", "--out-dir"},
        "match": {"--pair", "--out", "--seed"},  # --seed: accepted and ignored
        "eval": {"--matches", "--manifests", "--out-report", "--out-curve"},
    }
    # Every (command, setting it does not read, flag or --config) but match's
    # --seed flag.
    FOREIGN = [(command, name, form) for command in READS for name in sorted(VALUES)
               if name not in READS[command] for form in ("flag", "config")
               if (command, name, form) != ("match", "seed", "flag")]

    def own_flags(self, command: str) -> set[str]:
        return {"--config"} | self.COMMAND_OPTIONS[command] | {flag(n) for n in READS[command]}

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_config_flags_are_exactly_the_settings(self, command):
        assert sorted(set().union(*READS.values())) == sorted(VALUES) == self.SETTINGS
        options = {s for a in subparser(command)._actions for s in a.option_strings}
        assert options == {"-h", "--help"} | self.own_flags(command)

    def test_each_setting_is_one_config_field_read_by_one_command(self):
        # A setting is the field of its name in exactly one module config of
        # RunConfig, exactly one command reads it, and every field is one.
        configs = [c for c in get_type_hints(RunConfig).values() if dataclasses.is_dataclass(c)]
        owners = Counter(f.name for c in configs for f in dataclasses.fields(c))
        readers = Counter(name for names in _READS.values() for name in names)
        assert readers == owners == Counter(self.SETTINGS)

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_help_lists_only_the_settings_the_command_reads(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help"} | self.own_flags(command)

    def test_readme_settings_table_matches_the_parser(self):
        lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| command | settings it reads |")
        documented = {}
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            command, names = line.strip("|").split("|")
            documented[command.strip().strip("`")] = set(re.findall(r"`(\w+)`", names))
        registered = {}
        for command in self.COMMAND_OPTIONS:
            group = next(g for g in subparser(command)._action_groups if g.title == "configuration")
            registered[command] = {s[2:].replace("-", "_") for a in group._group_actions
                                   for s in a.option_strings} - {"config"}
        assert documented == registered

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_echo_read_back_through_config_is_unchanged(self, matched_pair, tmp_path, command):
        def echo(out: Path, *extra: str) -> dict:
            assert main([*command_argv(command, matched_pair, out), *extra]) == 0
            return read_json(out / ECHO_FILES[command])["config"]

        first = echo(tmp_path / "flags", *(a for n in sorted(READS[command]) for a in flag_args(n)))
        assert first == {name: VALUES[name] for name in READS[command]}
        write_json(tmp_path / "echo.json", first)
        second = echo(tmp_path / "config", "--config", str(tmp_path / "echo.json"))
        assert dump_json(second) == dump_json(first)

    @pytest.mark.parametrize("command, name, form", FOREIGN)
    def test_setting_of_another_command_exits_one_naming_it(self, matched_pair, tmp_path, capsys,
                                                            command, name, form):
        if form == "flag":
            extra, shown = flag_args(name), flag(name)
        else:
            write_json(tmp_path / "cfg.json", {name: VALUES[name]})
            extra, shown = ["--config", str(tmp_path / "cfg.json")], f"setting {name!r}"
        argv = command_argv(command, matched_pair, tmp_path / "out")
        before = tree(tmp_path)
        assert main([*argv, *extra]) == 1
        err = capsys.readouterr().err
        readers = " and ".join(c for c in READS if name in READS[c])
        assert f"{shown} is read by {readers}, not by {command}" in err and "Traceback" not in err
        assert tree(tmp_path) == before

    def test_match_accepts_and_ignores_seed(self, matched_pair, tmp_path):
        plain, seeded = tmp_path / "plain", tmp_path / "seeded"
        assert main(command_argv("match", matched_pair, plain)) == 0
        assert main([*command_argv("match", matched_pair, seeded), "--seed", "5"]) == 0
        for name in ("m.jsonl", "match_config.json"):
            assert (plain / name).read_bytes() == (seeded / name).read_bytes()
        assert "seed" not in read_json(seeded / "match_config.json")["config"]

    @pytest.mark.parametrize("flags, config, setting", [
        (["--match-threshold", "2"], None, "match_threshold"),
        (["--patch-stride", "0"], None, "patch_stride"),
        (["--d-min", "5", "--d-max", "1"], None, "d_min"),
        (["--ransac-iterations", "2.5"], None, "ransac_iterations"),
        (["--channels", "3"], None, "channels"),
        (["--patch-stride", "3"], None, "patch_stride"),  # not a multiple of the fine stride 2
        (["--temperature", "nan"], None, "temperature"),
        (["--ransac-confidence", "nan"], None, "ransac_confidence"),
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
    def test_bad_setting_exits_one_naming_it(self, matched_pair, tmp_path, capsys,
                                             flags, config, setting):
        if config is not None:
            write_json(tmp_path / "cfg.json", config)
            flags = ["--config", str(tmp_path / "cfg.json")]
        # The first command reading the setting; synth for its own flags and unknown names.
        command = next((c for c in READS if setting in READS[c]), "synth")
        argv = command_argv(command, matched_pair, tmp_path / "out")
        before = tree(tmp_path)
        assert main([*argv, *flags]) == 1
        err = capsys.readouterr().err
        assert setting in err and "Traceback" not in err
        assert tree(tmp_path) == before

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
        ("manifest.json", "k.width", "abc"),
        ("manifest.json", "k.width", None),
        pytest.param("manifest.json", "k.height", [5], id="manifest.json-k.height-value4"),
        pytest.param("manifest.json", "k.fx", [5], id="manifest.json-k.fx-value5"),
        ("scene.json", "primitives", 5),
        ("scene.json", "primitives.0", 5),
        ("scene.json", "primitives.0.texture", -1),
        ("matches.jsonl", "a", 5),
        # Explicit ids keep these cases' names stable as cases before them
        # come and go.
        pytest.param("matches.jsonl", "b", [5], id="matches.jsonl-b-value14"),
        pytest.param("matches.jsonl", "a", {}, id="matches.jsonl-a-value15"),
        ("manifest.json", "k.fx", math.nan),
        pytest.param("manifest.json", "pose_b.t", [math.nan, 0.0, 0.0],
                     id="manifest.json-pose_b.t-value17"),
        pytest.param("scene.json", "primitives.0.point", [math.nan, 0.0, 2.0],
                     id="scene.json-primitives.0.point-value21"),
        pytest.param("scene.json", "primitives.0.normal", [0.0, math.nan, 1.0],
                     id="scene.json-primitives.0.normal-value22"),
        pytest.param("scene.json", "primitives.0.point", [0.0, 0.0, math.inf],
                     id="scene.json-primitives.0.point-value23"),
        # Integers beyond the float range once ended in an OverflowError traceback.
        pytest.param("manifest.json", "k.fx", 10**400, id="manifest.json-k.fx-overflow"),
        pytest.param("manifest.json", "pose_b.t", [10**400, 0, 0],
                     id="manifest.json-pose_b.t-overflow"),
        pytest.param("scene.json", "primitives.0.point", [10**400, 0, 2],
                     id="scene.json-primitives.0.point-overflow"),
        # Numeric strings, booleans and nested lists once read as floats.
        pytest.param("pose_b.json", "t", ["0.25", 0, 0], id="pose_b.json-t-string"),
        pytest.param("pose_b.json", "t", [True, False, False], id="pose_b.json-t-bool"),
        pytest.param("manifest.json", "pose_b.R", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                     id="manifest.json-pose_b.R-nested"),
        pytest.param("scene.json", "primitives.0.point", ["0", "0", "2"],
                     id="scene.json-primitives.0.point-string"),
        # Any list once passed as a branch and landed in the report's branch_counts.
        pytest.param("matches.jsonl", "branch", [1, 2, 3], id="matches.jsonl-branch-three"),
        pytest.param("matches.jsonl", "branch", [], id="matches.jsonl-branch-empty"),
        pytest.param("matches.jsonl", "branch", [math.nan, 0], id="matches.jsonl-branch-nan"),
        pytest.param("matches.jsonl", "branch", [math.inf, 0], id="matches.jsonl-branch-inf"),
        # A negative patch index was once taken.
        pytest.param("matches.jsonl", "pa", -7, id="matches.jsonl-pa-negative"),
        pytest.param("matches.jsonl", "pb", 1.0, id="matches.jsonl-pb-float"),
    ])
    def test_wrong_type_exits_one(self, fresh_pair, tmp_path, capsys, target, where, value):
        keys = [int(k) if k.isdigit() else k for k in where.split(".")]
        pair = Path(fresh_pair("identity"))
        manifest = read_json(pair / "manifest.json")
        for name in ("scene", "pose_a", "pose_b", "k"):
            write_json(tmp_path / f"{name}.json", manifest[name])
        synth = ["synth", "--scene", str(tmp_path / "scene.json"),
                 "--pose-a", str(tmp_path / "pose_a.json"), "--pose-b", str(tmp_path / "pose_b.json"),
                 "--intrinsics", str(tmp_path / "k.json"), "--out", str(tmp_path / "out")]
        argv = {
            "manifest.json": ["supervise", "--pair", str(pair)],
            "scene.json": synth,
            "pose_b.json": synth,
            "matches.jsonl": ["eval", "--matches", str(pair / "matches.jsonl"),
                              "--manifests", str(pair / "manifest.json"),
                              "--out-report", str(tmp_path / "r.json"),
                              "--out-curve", str(tmp_path / "c.csv")],
        }[target]
        assert main(["match", "--pair", str(pair)]) == 0
        path = (tmp_path if argv is synth else pair) / target
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

    def test_match_records_without_patch_indices_exit_one(self, fresh_pair, tmp_path, capsys):
        # eval once read a missing pa or pb as -1 and exited 0.
        pair = Path(fresh_pair("two_plane"))
        assert main(["match", "--pair", str(pair)]) == 0
        path = pair / "matches.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            del record["pa"], record["pb"]
        path.write_text("".join(dump_json_line(record) + "\n" for record in records))
        capsys.readouterr()
        assert main(command_argv("eval", str(pair), tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert f"{path}: line 1: missing field 'pa'" in err and "Traceback" not in err
        assert not list((tmp_path / "out").iterdir())

    def test_older_manifest_files_entry_is_ignored(self, fresh_pair, capsys):
        # The raster names are fixed; manifests once listed them under `files`.
        pair = Path(fresh_pair("identity"))
        manifest = read_json(pair / "manifest.json")
        manifest["files"] = [5]
        write_json(pair / "manifest.json", manifest)
        for command in ("supervise", "voxelize", "match"):
            assert main([command, "--pair", str(pair)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_eval_needs_the_manifest_occlusion_ratio(self, fresh_pair, tmp_path, capsys):
        # A missing ratio once read as 0.0 and moved the pair to the
        # curve's least-occluded end.
        pair = Path(fresh_pair("identity"))
        assert main(["match", "--pair", str(pair)]) == 0
        manifest = read_json(pair / "manifest.json")
        del manifest["occlusion_ratio"]
        write_json(pair / "manifest.json", manifest)
        capsys.readouterr()
        assert main(command_argv("eval", str(pair), tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert f"{pair / 'manifest.json'}: missing field 'occlusion_ratio'" in err
        assert "Traceback" not in err and not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command, flags, config, setting", [
        # NumPy's default_rng takes no negative seed.
        ("eval", ["--seed", "-1"], None, "seed"),
        ("eval", [], {"seed": -1}, "seed"),
        # An infinite inlier threshold counts every finite match as an inlier.
        ("eval", ["--inlier-threshold", "inf"], None, "inlier_threshold"),
        # An infinite temperature scores every pair alike; below 2 / float32
        # max the differences of unit float32 scores over it overflow.
        ("match", ["--temperature", "inf"], None, "temperature"),
        ("match", ["--temperature", "1e-320"], None, "temperature"),
        ("match", ["--temperature", "5e-39"], None, "temperature"),
        ("match", ["--fine-temperature", "inf"], None, "fine_temperature"),
        ("match", ["--fine-temperature", "1e-320"], None, "fine_temperature"),
        ("match", [], {"fine_temperature": 1e-320}, "fine_temperature"),
        # An infinite far limit puts every depth in bin 0.
        ("voxelize", ["--d-max", "inf"], None, "d_max"),
        # RANSAC needs an iteration and a confidence below certainty.
        ("eval", ["--ransac-iterations", "0"], None, "ransac_iterations"),
        ("eval", [], {"ransac_confidence": 1.0}, "ransac_confidence"),
        # The coarse stride must be a multiple of the fine stride 2.
        ("synth", ["--patch-stride", "3"], None, "patch_stride"),
    ], ids=["seed-flag", "seed-config", "inlier_threshold-inf", "temperature-inf",
            "temperature-subnormal", "temperature-below-floor", "fine_temperature-inf",
            "fine_temperature-subnormal", "fine_temperature-config", "d_max-inf",
            "ransac_iterations-zero", "ransac_confidence-one", "patch_stride-odd"])
    def test_unusable_setting_exits_one_naming_it(self, matched_pair, tmp_path, capsys,
                                                  command, flags, config, setting):
        if config is not None:
            write_json(tmp_path / "cfg.json", config)
            flags = ["--config", str(tmp_path / "cfg.json")]
        argv = command_argv(command, matched_pair, tmp_path / "out")
        before = tree(tmp_path)
        assert main([*argv, *flags]) == 1
        err = capsys.readouterr().err
        assert f"error: {setting} (" in err and "Traceback" not in err
        # The config's own message names the setting as typed, too.
        assert re.search(rf"(?<!\w){setting}\b", err.split("): ", 1)[1])
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("field, value", [
        ("min", [math.nan, 0.0, 2.0]),
        ("max", [1.0, math.nan, 3.0]),
        ("min", [-math.inf, -math.inf, 1.5]),  # a slab: allowed
    ])
    def test_nan_box_corner_exits_one(self, tmp_path, capsys, field, value):
        # A NaN corner passes the max > min check but never renders; infinite
        # extents (slabs, half-spaces) stay valid scene geometry.
        fx = make_fixture("identity", width=32, height=24)
        box = {"type": "box", "min": [-1.0, -1.0, 1.5], "max": [1.0, 1.0, 1.6], field: value}
        write_json(tmp_path / "scene.json", {"primitives": [
            {"type": "plane", "point": [0.0, 0.0, 2.0], "normal": [0.0, 0.0, 1.0]}, box]})
        write_json(tmp_path / "pose.json", pose_to_json(fx.pose_a))
        write_json(tmp_path / "k.json", intrinsics_to_json(fx.k))
        out = tmp_path / "out"
        code = main(["synth", "--scene", str(tmp_path / "scene.json"),
                     "--pose-a", str(tmp_path / "pose.json"), "--pose-b", str(tmp_path / "pose.json"),
                     "--intrinsics", str(tmp_path / "k.json"), "--out", str(out)])
        err = capsys.readouterr().err
        if not any(map(math.isnan, value)):
            assert code == 0 and (out / "manifest.json").exists()
            return
        assert code == 1 and not out.exists()
        assert "scene.json" in err and "primitives[1]" in err and repr(field) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target, where, value", [
        ("manifest.json", "occlusion_ratio", "abc"),
        pytest.param("manifest.json", "occlusion_ratio", 10**400,
                     id="manifest.json-occlusion_ratio-overflow"),
        pytest.param("manifest.json", "occlusion_ratio", math.nan,
                     id="manifest.json-occlusion_ratio-nan"),
        pytest.param("manifest.json", "occlusion_ratio", math.inf,
                     id="manifest.json-occlusion_ratio-inf"),
        ("manifest.json", "occlusion_ratio", -0.5),
        ("manifest.json", "occlusion_ratio", 1.5),
    ])
    def test_eval_and_curve_inputs_exit_one(self, fresh_pair, tmp_path, capsys,
                                            target, where, value):
        # eval orders the curve by each manifest's occlusion_ratio, a
        # fraction: a NaN one once sorted the curve by a NaN key.
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
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "c.csv").exists()


    def test_oversized_occupancy_grid_exits_one(self, fresh_pair, capsys):
        # 72 x 96 columns x 1e8 bins of float64 would be 5.03 TiB (5150 GiB).
        pair = fresh_pair("identity")
        assert main(["voxelize", "--pair", pair, "--depth-bins", "100000000"]) == 1
        err = capsys.readouterr().err
        assert "depth_bins" in err and "5.15e+03 GiB" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, name, need", [
        ("supervise", "depth_a.odm", 12),
        ("supervise", "depth_b.odm", 12),
        ("match", "coarse_a.ofg", 20),
        ("match", "fine_b.ofg", 20),
    ])
    def test_zero_byte_raster_exits_one(self, fresh_pair, capsys, command, name, need):
        # Rasters are read through mmap, which refuses an empty file.
        pair = fresh_pair("identity")
        (Path(pair) / name).write_bytes(b"")
        capsys.readouterr()
        assert main([command, "--pair", pair]) == 1
        err = capsys.readouterr().err
        assert f"{name}: truncated header (need {need} bytes, have 0)" in err
        assert "Traceback" not in err


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
        assert row["failure"] is None
        assert set(report["auc"]) == {"5", "10", "20"}
        assert report["auc"]["5"] > 98.0
        assert read_curve_csv(curve_path) == [(1, row["pose_err_deg"])]

    def test_rows_count_matches_by_label(self, fresh_pair, tmp_path):
        pair = fresh_pair("two_plane")
        assert main(["match", "--pair", pair]) == 0
        matches = read_matches(f"{pair}/matches.jsonl")
        fx = make_fixture("two_plane")
        labels, epe = label_matches(matches.point_a, matches.point_b, read_depth(f"{pair}/depth_a.odm"),
                                    read_depth(f"{pair}/depth_b.odm"), fx.k, fx.k,
                                    relative_pose(fx.pose_a, fx.pose_b))
        labels, epe = labels.tolist(), epe[~np.isnan(epe)]
        code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        row = read_json(report_path)["pairs"][0]
        assert row["matches"] == len(labels) > 300
        assert row["labels"] == {k: labels.count(k) for k in ("vv", "vo", "ov", "none")}
        assert sum(row["labels"].values()) == row["matches"]
        assert row["labels"]["vv"] > 300 and row["labels"]["none"] > 0
        assert row["epe_px"] == {"median": float(np.percentile(epe, 50)),
                                 "p90": float(np.percentile(epe, 90))}
        assert row["epe_px"]["p90"] < 0.5  # integer disparities: refined points land on the truth

    @pytest.mark.parametrize("damage", ["missing", "nan"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_bad_depth_file_fails_with_file_name(self, fresh_pair, tmp_path, capsys, side, damage):
        # eval labels the matches by the pair's ground-truth depth.
        pair = fresh_pair("stereo")
        assert main(["match", "--pair", pair]) == 0
        path = Path(pair) / f"depth_{side}.odm"
        if damage == "missing":
            path.unlink()
        else:
            blob = bytearray(path.read_bytes())
            blob[12:16] = np.array([np.nan], dtype="<f4").tobytes()  # first pixel
            path.write_bytes(bytes(blob))
        capsys.readouterr()
        code, report_path, curve_path = self.run_eval([pair], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert f"depth_{side}.odm" in err and "Traceback" not in err
        assert not report_path.exists() and not curve_path.exists()

    @pytest.mark.parametrize("name", ["identity", "box_roll30"])
    def test_rows_count_matches_by_branch(self, name, fresh_pair, tmp_path):
        pair = fresh_pair(name)
        assert main(["match", "--pair", pair]) == 0
        branches = [tuple(json.loads(line)["branch"])
                    for line in (Path(pair) / "matches.jsonl").read_text().splitlines()]
        code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        row = read_json(report_path)["pairs"][0]
        counts = row["branch_counts"]
        assert [b for b, _ in counts] == sorted(map(list, set(branches)))
        assert {tuple(b): n for b, n in counts} == {b: branches.count(b) for b in set(branches)}
        assert sum(n for _, n in counts) == row["matches"] == len(branches)
        if name == "identity":
            assert counts == [[[0.0, 0.0], row["matches"]]]
        else:
            assert len(counts) > 1

    def test_matches_without_a_branch_count_under_null(self, fresh_pair, tmp_path):
        pair = fresh_pair("identity")
        assert main(["match", "--pair", pair]) == 0
        path = Path(pair) / "matches.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records[:3]:
            del record["branch"]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        counts = read_json(report_path)["pairs"][0]["branch_counts"]
        assert counts == [[[0.0, 0.0], len(records) - 3], [None, 3]]

    def test_hand_written_matches_pin_the_report_rows(self, fresh_pair, tmp_path):
        # Null and one-sided points, absent and null branches, a signed zero
        # in a branch, and non-finite confidences, all in one file.
        pair = fresh_pair("stereo")
        Path(pair, "matches.jsonl").write_text(
            '{"a":[20.5,36.5],"b":[4.5,36.5],"branch":[0.0,30.0],"conf":0.5,"pa":0,"pb":0}\n'
            '{"a":null,"b":null,"branch":[-0.0,0.0],"conf":NaN,"pa":1,"pb":1}\n'
            '{"a":[40.0,50.0],"b":null,"conf":Infinity,"pa":2,"pb":2}\n'
            '{"a":null,"b":[10.0,10.0],"branch":null,"conf":-Infinity,"pa":3,"pb":3}\n'
            '{"a":[100.5,60.5],"b":[84.5,60.5],"branch":[0.0,0.0],"conf":0.9,"pa":4,"pb":4}\n'
            '{"a":[148.5,100.5],"b":[140,100],"branch":[30,0],"conf":1,"pa":5,"pb":5}\n'
            '\n'
            '{"a":[60.0,70.0],"b":[58.0,70.0],"branch":[0.0,-0.0],"conf":0.75,"pa":6,"pb":6}\n'
            '{"a":null,"b":null,"branch":[0.0,30.0],"conf":0.25,"pa":7,"pb":7}\n')
        code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        row = read_json(report_path)["pairs"][0]
        assert row["matches"] == 8
        assert row["labels"] == {"vv": 3, "vo": 0, "ov": 0, "none": 5}
        # Sorted by branch with null last; equal branches are merged under
        # the first spelling read, so -0.0 stays as written.
        assert json.dumps(row["branch_counts"]) == (
            "[[[-0.0, 0.0], 3], [[0.0, 30.0], 2], [[30.0, 0.0], 1], [null, 2]]")

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

    def test_overflowing_essential_matrix_fails_the_pair_cleanly(self, fresh_pair, tmp_path):
        # A points near 1e300 px overflow the Frobenius norm of every
        # 8-point solution; those matrices are degenerate, with no numpy
        # warning (the suite turns RuntimeWarning into an error).
        pair = fresh_pair("stereo")
        assert main(["match", "--pair", pair]) == 0
        path = Path(pair) / "matches.jsonl"
        matches = [json.loads(line) for line in path.read_text().splitlines()[:50]]
        for match in matches:
            match["a"][0] *= 1e300
        path.write_text("".join(json.dumps(m) + "\n" for m in matches))
        code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        row = read_json(report_path)["pairs"][0]
        assert row["failure"] == "RANSAC found no 8-point consensus"
        assert row["pose_err_deg"] == math.inf and row["matches"] == 50

    def test_far_out_points_leave_the_pair_solved(self, fresh_pair, tmp_path):
        # At fx = fy = 1, A points scaled by 5e305 sit near 1e307 in
        # normalized coordinates: a sample holding one has an infinite
        # centroid and spread. Its conditioning must drop the centroid, or
        # the 8-point system overflows and its SVD does not converge; the
        # other samples still solve the pair. The suite turns RuntimeWarning
        # into an error, so the means must not warn either.
        pair = fresh_pair("two_plane")
        manifest = read_json(Path(pair) / "manifest.json")
        manifest["k"]["fx"] = manifest["k"]["fy"] = 1.0
        (Path(pair) / "manifest.json").write_text(json.dumps(manifest))
        assert main(["match", "--pair", pair]) == 0
        path = Path(pair) / "matches.jsonl"
        matches = [json.loads(line) for line in path.read_text().splitlines()]
        for match in matches[:50]:
            match["a"][0] *= 5e305
        path.write_text("".join(json.dumps(m) + "\n" for m in matches))
        code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        row = read_json(report_path)["pairs"][0]
        assert row["failure"] is None and math.isfinite(row["pose_err_deg"])
        assert row["matches"] == len(matches) > 50

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
        assert row["labels"] == {"vv": 0, "vo": 0, "ov": 0, "none": 0}
        assert row["epe_px"] is None
        assert read_json(report_path)["auc"]["5"] == 0.0

    def test_too_few_matches_name_the_failure(self, fresh_pair, tmp_path):
        pair = fresh_pair("stereo")
        assert main(["match", "--pair", pair]) == 0
        path = Path(pair) / "matches.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:7]))
        code, report_path, _ = self.run_eval([pair], tmp_path)
        assert code == 0
        row = read_json(report_path)["pairs"][0]
        assert row["pose_err_deg"] == math.inf
        assert row["failure"] == "need at least 8 matches, got 7"

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
