"""Binary grid formats, JSON codecs, and the deterministic dump helpers."""

import functools
import json
import math
import mmap
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from occmatch.errors import SchemaError
from occmatch.geometry import CameraIntrinsics, DepthMap, PixelPoint, PoseSE3
from occmatch.matching import FeatureGrid, Match
from occmatch import formats
from occmatch.geometry import patch_grid, project_points, unproject_points
from occmatch.occupancy import (
    OccupancyConfig,
    OccupancyGrid,
    build_ground_truth_occupancy,
    depth_bin_index,
    ground_truth_cells,
)
from occmatch.formats import (
    dump_json,
    dump_json_line,
    intrinsics_from_json,
    intrinsics_to_json,
    match_from_json,
    match_to_json,
    pose_from_json,
    pose_to_json,
    read_curve_csv,
    read_depth,
    read_features,
    read_json,
    read_matches,
    read_occupancy,
    scene_from_json,
    scene_to_json,
    supervision_to_json,
    write_curve_csv,
    write_depth,
    write_features,
    write_json,
    write_matches,
    write_occupancy,
    write_supervision,
)
from occmatch.supervision import CoarseMatchSet, PairStats, PixelClass
from occmatch.synth import FIXTURE_NAMES, make_fixture, make_pair
from conftest import cached_pair
from test_synth import clutter_pair


def float32_exact(rng, shape):
    """Random values already representable in float32, so binary round trips
    can be compared bit for bit."""
    return rng.uniform(0.0, 8.0, size=shape).astype(np.float32).astype(np.float64)


def raster_inputs(values):
    """`values` as float64, as float32, in Fortran order and as a strided
    slice of a larger array: the layouts a raster may be built from."""
    return [values, values.astype(np.float32), np.asfortranarray(values),
            np.repeat(values, 2, axis=-1)[..., ::2]]


def payload(path, header_fields: int) -> bytes:
    """The float32 payload of a binary raster file: what follows its magic
    and its u32 header fields."""
    return path.read_bytes()[4 + 4 * header_fields:]


class TestDepthRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "d.odm"
        for data in raster_inputs(float32_exact(rng, (6, 9))):
            depth = DepthMap(data)
            write_depth(path, depth)
            assert payload(path, 2) == data.astype("<f4").tobytes()
            back = read_depth(path)
            assert np.array_equal(back.data, depth.data)
            assert back.data.shape == (6, 9)

    def test_bad_magic_names_the_file(self, tmp_path):
        path = tmp_path / "bad.odm"
        path.write_bytes(b"XXXX" + struct.pack("<2I", 1, 1) + b"\x00" * 4)
        with pytest.raises(SchemaError, match="bad.odm"):
            read_depth(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.odm"
        depth = DepthMap(np.full((4, 4), 2.0))
        write_depth(path, depth)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SchemaError, match="trunc.odm"):
            read_depth(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "tiny.odm"
        path.write_bytes(b"ODM1\x01")
        with pytest.raises(SchemaError, match="truncated header"):
            read_depth(path)


class TestOccupancyRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "o.ocg"
        for values in raster_inputs(float32_exact(rng, (3, 4, 8))):
            grid = OccupancyGrid(values)
            write_occupancy(path, grid)
            assert payload(path, 4) == values.astype("<f4").tobytes()
            assert np.array_equal(read_occupancy(path).values, grid.values)

    def test_bad_leading_dimension_rejected(self, tmp_path):
        path = tmp_path / "lead.ocg"
        path.write_bytes(b"OCG1" + struct.pack("<4I", 2, 1, 1, 1) + b"\x00" * 8)
        with pytest.raises(SchemaError, match="leading dimension"):
            read_occupancy(path)


def dense_occupancy(depth_a, depth_b, pose_a, pose_b, k, target, cfg=OccupancyConfig()):
    """The ground-truth grid as a dense float64 array, binned the way the
    dense builder did it before the grid was kept as its occupied cells."""
    if target == "a":
        depth_t, pose_t, depth_o, pose_o = depth_a, pose_a, depth_b, pose_b
    else:
        depth_t, pose_t, depth_o, pose_o = depth_b, pose_b, depth_a, pose_a
    rows, cols = patch_grid(k.height, k.width, 2)
    occ = np.zeros((rows, cols, cfg.depth_bins))
    vt, ut = np.nonzero(depth_t.valid_mask)
    zt = depth_t.data[vt, ut]
    keep = (zt >= cfg.d_min) & (zt < cfg.d_max)
    occ[vt[keep] // 2, ut[keep] // 2, depth_bin_index(zt[keep], cfg)] = 1.0
    vs, us = np.nonzero(depth_o.valid_mask)
    cloud = pose_o.transform(unproject_points(us, vs, depth_o.data[vs, us], k))
    p = pose_t.inverse().transform(cloud)
    p = p[(p[:, 2] >= cfg.d_min) & (p[:, 2] < cfg.d_max)]
    u, v = project_points(p, k)
    inside = (u >= 0.0) & (u < 2.0 * cols) & (v >= 0.0) & (v < 2.0 * rows)
    occ[np.floor(v[inside] / 2.0).astype(np.intp), np.floor(u[inside] / 2.0).astype(np.intp),
        depth_bin_index(p[inside, 2], cfg)] = 1.0
    sums = occ.sum(axis=-1, keepdims=True)
    np.divide(occ, sums, out=occ, where=sums > 0)
    return occ


def ocg_bytes(values: np.ndarray) -> bytes:
    """An OCG1 file as the dense writer laid it out: magic, u32 (1, rows,
    cols, bins), then every value as little-endian float32 in C order."""
    return b"OCG1" + struct.pack("<4I", 1, *values.shape) + values.astype("<f4").tobytes()


# The views the occupancy writer is checked on: the five fixtures at
# 192x144, a 320x240 clutter scene, random views with invalid pixels, empty
# columns and depths past d_max, and views whose every depth is past d_max.
OCCUPANCY_VIEWS = (*FIXTURE_NAMES, "clutter", "random", "all-zero")


@functools.lru_cache(maxsize=None)
def occupancy_view(name: str):
    """(depth_a, depth_b, pose_a, pose_b, k) of one of OCCUPANCY_VIEWS."""
    if name in FIXTURE_NAMES:
        fx, pair = cached_pair(name)
        return pair.depth_a, pair.depth_b, fx.pose_a, fx.pose_b, fx.k
    if name == "clutter":
        scene, pose_a, pose_b, k = clutter_pair(30.0)
        pair = make_pair(scene, pose_a, pose_b, k)
        return pair.depth_a, pair.depth_b, pose_a, pose_b, k
    k = CameraIntrinsics(20.0, 20.0, 11.5, 9.5, 24, 20)
    pose_b = PoseSE3(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                     np.array([0.4, -0.2, 0.1]))
    if name == "all-zero":
        far = DepthMap(np.full((20, 24), 12.0))
        return far, far, PoseSE3.identity(), pose_b, k
    rng = np.random.default_rng(26)
    data = rng.uniform(0.5, 14.0, size=(2, 20, 24))
    data[rng.random(data.shape) < 0.3] = 0.0
    data[:, :8, :10] = 0.0  # a block of empty columns
    return DepthMap(data[0]), DepthMap(data[1]), PoseSE3.identity(), pose_b, k


class TestOccupancyWriterBytes:
    """write_occupancy streams the payload from the occupied cells in
    blocks; the file must hold the dense writer's bytes."""

    @pytest.mark.parametrize("name", OCCUPANCY_VIEWS)
    @pytest.mark.parametrize("target", ["a", "b"])
    def test_cells_write_the_dense_grids_bytes(self, tmp_path, name, target):
        depth_a, depth_b, pose_a, pose_b, k = occupancy_view(name)
        want = dense_occupancy(depth_a, depth_b, pose_a, pose_b, k, target)
        assert want.any() == (name != "all-zero")
        if name == "random":
            assert (np.count_nonzero(want, axis=-1) == 0).any()
        cells = ground_truth_cells(depth_a, depth_b, pose_a, pose_b, k, k, target=target)
        grid = build_ground_truth_occupancy(depth_a, depth_b, pose_a, pose_b, k, k, target=target)
        assert grid.values.tobytes() == want.tobytes()
        for occ in (cells, grid):
            write_occupancy(tmp_path / "o.ocg", occ)
            assert (tmp_path / "o.ocg").read_bytes() == ocg_bytes(want)

    @pytest.mark.parametrize("block", [1, 64, 768, 1000, 7679, 7680, 7681, 1 << 20])
    def test_any_block_size_writes_the_same_bytes(self, tmp_path, monkeypatch, block):
        # The random views' grid holds 10 x 12 x 64 = 7,680 values, a row
        # 768: blocks that divide it, that do not, and larger than it.
        depth_a, depth_b, pose_a, pose_b, k = occupancy_view("random")
        monkeypatch.setattr(formats, "_OCC_BLOCK_VALUES", block)
        write_occupancy(tmp_path / "o.ocg", ground_truth_cells(depth_a, depth_b, pose_a, pose_b, k, k))
        want = dense_occupancy(depth_a, depth_b, pose_a, pose_b, k, "a")
        assert (tmp_path / "o.ocg").read_bytes() == ocg_bytes(want)

    def test_default_blocks_split_the_larger_grids(self):
        # At the default block, the fixtures' and the clutter scene's grids
        # take several blocks and end in a partial one; the random views'
        # grid is smaller than one block.
        block = formats._OCC_BLOCK_VALUES
        for name in OCCUPANCY_VIEWS:
            k = occupancy_view(name)[-1]
            size = math.prod(patch_grid(k.height, k.width, 2)) * OccupancyConfig().depth_bins
            if name in ("random", "all-zero"):
                assert size < block
            else:
                assert size > block and size % block


class TestFeatureRoundTrip:
    def test_values_and_stride_survive(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "f.ofg"
        for values in raster_inputs(float32_exact(rng, (16, 5, 7))):
            grid = FeatureGrid(values, stride=8)
            write_features(path, grid)
            assert payload(path, 4) == values.astype("<f4").tobytes()
            back = read_features(path)
            assert np.array_equal(back.values, grid.values)
            assert back.stride == 8

    def test_synth_grids_read_back_bit_for_bit(self, tmp_path, pair_cache):
        _, pair = pair_cache("two_plane")
        for grid in (pair.coarse_a, pair.coarse_b, pair.fine_a, pair.fine_b):
            path = tmp_path / "grid.ofg"
            write_features(path, grid)
            back = read_features(path)
            assert back.values.dtype == grid.values.dtype == np.float32
            assert back.values.tobytes() == grid.values.tobytes()

    def test_wrong_payload_size_rejected(self, tmp_path):
        path = tmp_path / "short.ofg"
        path.write_bytes(b"OFG1" + struct.pack("<4I", 2, 2, 2, 8) + b"\x00" * 12)
        with pytest.raises(SchemaError, match="float32"):
            read_features(path)


# Each raster kind: (file name, u32 header fields, writer, reader, array of a read value).
RASTERS = {
    "depth": ("d.odm", 2, write_depth, read_depth, lambda r: r.data),
    "occupancy": ("o.ocg", 4, write_occupancy, read_occupancy, lambda r: r.values),
    "features": ("f.ofg", 4, write_features, read_features, lambda r: r.values),
}


def small_raster(kind: str, values: np.ndarray = np.arange(1.0, 25.0).reshape(2, 3, 4)):
    """A raster of `kind` from (n, h, w) values; a depth map takes values[0]."""
    return {"depth": lambda: DepthMap(values[0]), "occupancy": lambda: OccupancyGrid(values),
            "features": lambda: FeatureGrid(values, stride=4)}[kind]()


class TestMappedRasters:
    @pytest.mark.parametrize("kind", RASTERS)
    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_stray_trailing_bytes_rejected(self, tmp_path, kind, extra):
        name, _, write, read, array = RASTERS[kind]
        path = tmp_path / name
        raster = small_raster(kind)
        write(path, raster)
        count = array(raster).size
        path.write_bytes(path.read_bytes() + b"\0" * extra)
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: expected {count} "
                                              rf"float32 values, found {count} and {extra} stray"):
            read(path)

    @pytest.mark.parametrize("kind", RASTERS)
    def test_zero_byte_file_is_a_truncated_header(self, tmp_path, kind):
        # mmap refuses an empty file with ValueError; the reader must not.
        name, fields, _, read, _ = RASTERS[kind]
        path = tmp_path / name
        path.write_bytes(b"")
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: truncated header "
                                              rf"\(need {4 + 4 * fields} bytes, have 0\)$"):
            read(path)

    def test_feature_grid_is_a_view_of_the_mapped_file(self, tmp_path):
        path = tmp_path / "f.ofg"
        write_features(path, small_raster("features"))
        values = read_features(path).values
        assert not values.flags.writeable
        base = values
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)

    @pytest.mark.parametrize("kind", RASTERS)
    def test_read_value_survives_a_rewrite_of_its_file(self, tmp_path, kind):
        # A rewrite in place would truncate the file under a mapped grid.
        name, _, write, read, array = RASTERS[kind]
        path = tmp_path / name
        write(path, small_raster(kind))
        before = read(path)
        kept = array(before).copy()
        write(path, small_raster(kind, np.full((1, 1, 1), 7.0)))
        assert np.array_equal(array(before), kept)
        assert array(read(path)).tolist() in ([[7.0]], [[[7.0]]])
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_failed_write_keeps_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "d.odm"
        write_depth(path, small_raster("depth"))
        blob = path.read_bytes()
        broken = SimpleNamespace(width=1, height=1, data=np.array([["x"]]))
        with pytest.raises(ValueError):
            write_depth(path, broken)
        assert path.read_bytes() == blob
        assert [p.name for p in tmp_path.iterdir()] == ["d.odm"]


class TestJsonCodecs:
    def test_intrinsics_round_trip(self):
        k = CameraIntrinsics(128.0, 128.0, 95.5, 71.5, 192, 144)
        assert intrinsics_from_json(intrinsics_to_json(k)) == k

    def test_intrinsics_missing_field_names_it(self):
        obj = intrinsics_to_json(CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 2, 2))
        del obj["fx"]
        with pytest.raises(SchemaError, match="fx"):
            intrinsics_from_json(obj)

    def test_pose_round_trip(self):
        c, s = np.cos(0.3), np.sin(0.3)
        pose = PoseSE3(
            np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
            np.array([0.25, -0.5, 1.0]),
        )
        back = pose_from_json(pose_to_json(pose))
        assert np.max(np.abs(back.R - pose.R)) < 1e-15
        assert np.array_equal(back.t, pose.t)

    def test_pose_wrong_shape_rejected(self):
        obj = pose_to_json(PoseSE3.identity())
        obj["R"] = [1.0, 0.0]
        with pytest.raises(SchemaError, match="'R'"):
            pose_from_json(obj)

    def test_pose_invalid_rotation_rejected(self):
        obj = pose_to_json(PoseSE3.identity())
        obj["R"] = [2.0, 0, 0, 0, 2.0, 0, 0, 0, 2.0]
        with pytest.raises(SchemaError, match="orthonormal"):
            pose_from_json(obj)

    def test_scene_round_trip_preserves_geometry(self):
        scene = make_fixture("two_plane").scene
        back = scene_from_json(scene_to_json(scene))
        assert len(back.primitives) == len(scene.primitives)
        for orig, copy in zip(scene.primitives, back.primitives):
            assert type(orig) is type(copy)
            assert orig.texture == copy.texture

    def test_supervision_fields(self):
        matches = CoarseMatchSet(
            patch_stride=8, vv=[(0, 0), (5, 3)], vo=[(7, 2)], ov=[(1, 6)],
            grid_a=(2, 4), grid_b=(3, 4),
        )
        stats = PairStats(
            counts={cls: 0 for cls in PixelClass},
            occlusion_ratio=0.25,
            overlap_score=0.75,
        )
        obj = json.loads(dump_json(supervision_to_json(matches, stats, config={"margin_floor": 0.05})))
        assert obj["patch_stride"] == 8
        assert (obj["vv"], obj["vo"], obj["ov"]) == ([[0, 0], [5, 3]], [[7, 2]], [[1, 6]])
        assert (obj["grid_a"], obj["grid_b"]) == ([2, 4], [3, 4])
        # The pair statistics are the manifest's alone.
        assert not {"occlusion_ratio", "overlap_score"} & set(obj)
        assert obj["counts"] == {cls.name.lower(): 0 for cls in PixelClass}
        assert obj["config"] == {"margin_floor": 0.05}

    @pytest.mark.parametrize("vo, ov", [([], []), ([(7, 2)], []), ([(7, 2), (3, 11)], [(1, 6)])])
    def test_supervision_writer_writes_one_dump_json_line(self, tmp_path, vo, ov):
        matches = CoarseMatchSet(
            patch_stride=8, vv=[(0, 0), (5, 3), (12, 140)], vo=vo, ov=ov,
            grid_a=(2, 4), grid_b=(3, 4),
        )
        stats = PairStats(
            counts={cls: 10 * cls + 3 for cls in PixelClass},
            occlusion_ratio=0.1,
            overlap_score=1 / 3,
        )
        config = {"margin_floor": 0.05, "margin_relative": 1e-7, "patch_stride": 8}
        write_supervision(tmp_path / "s.json", matches, stats, config)
        want = dump_json_line(supervision_to_json(matches, stats, config)) + "\n"
        assert (tmp_path / "s.json").read_text(encoding="utf-8") == want

    def test_match_round_trip_with_points_and_branch(self):
        m = Match(
            patch_a=3,
            patch_b=7,
            confidence=0.625,
            point_a=PixelPoint(12.5, 20.0),
            point_b=PixelPoint(4.25, 21.0),
            branch=(30.0, 0.0),
        )
        back = match_from_json(match_to_json(m))
        assert back == m

    @pytest.mark.parametrize("decode, field, value", [
        ("intrinsics", "fy", "abc"),
        ("intrinsics", "cx", None),
        ("intrinsics", "width", 2.5),
        ("intrinsics", "height", True),
        ("pose", "R", "abc"),
        ("pose", "R", [[1.0, 0.0], [0.0]]),
        ("pose", "t", {}),
        ("scene", "point", "abc"),
        ("scene", "normal", None),
        ("match", "conf", "abc"),
        ("match", "pa", 1.5),
        ("match", "branch", "x"),
        # Explicit ids keep these cases' names stable as cases before them come and go.
        pytest.param("match", "a", [float("nan"), 4.5], id="match-a-value17"),
        pytest.param("match", "b", [1.0, float("-inf")], id="match-b-value18"),
    ])
    def test_wrong_type_names_the_source_and_field(self, decode, field, value):
        two_plane = scene_to_json(make_fixture("two_plane").scene)
        obj, target = {
            "intrinsics": (intrinsics_to_json(CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 2, 2)), None),
            "pose": (pose_to_json(PoseSE3.identity()), None),
            "scene": (two_plane, two_plane["primitives"][0]),
            "match": (match_to_json(Match(patch_a=1, patch_b=2, confidence=0.5,
                                          branch=(0.0, 0.0))), None),
        }[decode]
        (obj if target is None else target)[field] = value
        read = {"intrinsics": intrinsics_from_json, "pose": pose_from_json,
                "scene": scene_from_json, "match": match_from_json}[decode]
        with pytest.raises(SchemaError, match=rf"^src\.json.*'{field}'"):
            read(obj, source="src.json")

    def test_nested_point_reads_as_its_flat_values(self):
        obj = scene_to_json(make_fixture("two_plane").scene)
        flat = obj["primitives"][0]["point"]
        obj["primitives"][0]["point"] = [flat]
        assert scene_from_json(obj).primitives[0].point == tuple(flat)


class TestMatchesJsonl:
    def test_round_trip_order_and_values(self, tmp_path):
        matches = [
            Match(0, 0, 0.9, PixelPoint(1.0, 2.0), PixelPoint(3.0, 4.0), (0.0, 0.0)),
            Match(1, 5, 0.4, None, None, None),
        ]
        path = tmp_path / "m.jsonl"
        write_matches(path, matches)
        assert read_matches(path) == matches

    def test_bytes_are_the_json_encoders(self, tmp_path):
        matches = [
            Match(0, 1, 0.5, PixelPoint(-0.0, 5e-324), PixelPoint(1e16, 1e-5), (30.0, 0.0)),
            Match(2, 3, float("nan"), PixelPoint(np.float64(0.1), np.float64(-2.5)),
                  PixelPoint(np.float64(1 / 3), np.float64(2.2e-310)), (0.0, 30.0)),
            Match(4, 5, float("inf"), None, None, None),
            Match(6, 7, float("-inf"), PixelPoint(1.0, 2.0), None, (-0.0, 1e-5)),
            Match(10**30, 8, 1e-300, None, PixelPoint(3.0, 4.0), None),
            Match(9, 9, 1, PixelPoint(3, 4), None, (30, 0)),
        ]
        path = tmp_path / "m.jsonl"
        write_matches(path, matches)
        lines = [dump_json_line(match_to_json(m)) for m in matches]
        assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
        back = read_matches(path)
        # NaN != NaN, so the records are compared through their lines; the
        # last one's ints read back as floats.
        assert [dump_json_line(match_to_json(m)) for m in back[:-1]] == lines[:-1]
        assert math.isnan(back[1].confidence) and back[1].point_a == PixelPoint(0.1, -2.5)
        assert back[4].patch_a == 10**30
        assert back[-1] == Match(9, 9, 1.0, PixelPoint(3.0, 4.0), None, (30.0, 0.0))

    def test_no_matches_write_an_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_matches(path, [])
        assert path.read_bytes() == b""
        assert read_matches(path) == []

    def test_one_record_per_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_matches(path, [Match(0, 0, 0.5), Match(1, 1, 0.5)])
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"a":null,"b":null,"conf":0.5}\n{oops\n')
        with pytest.raises(SchemaError, match="line 2"):
            read_matches(path)

    @pytest.mark.parametrize("field, value", [
        ("a", [10**400, 4.5]),
        ("b", [4.5, -(10**400)]),
        ("conf", 10**400),
        ("branch", [0.0, 10**400]),
    ], ids=["a", "b", "conf", "branch"])
    def test_integer_beyond_the_float_range_names_its_field(self, tmp_path, field, value):
        # JSON integers have no size limit; float() of one past ~1.8e308
        # raises OverflowError, which must not escape as a traceback.
        record = {"a": [1.0, 2.0], "b": [3.0, 4.0], "conf": 0.5, field: value}
        path = tmp_path / "big.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: line 1: field '{field}'"):
            read_matches(path)


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        rows = [(1, 2.0), (2, 3.5), (3, 0.125)]
        path = tmp_path / "c.csv"
        write_curve_csv(path, rows)
        assert read_curve_csv(path) == rows

    def test_header_is_stable(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve_csv(path, [(1, 1.0)])
        assert path.read_text().splitlines()[0] == "count,mean_err_deg"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2.0\n")
        with pytest.raises(SchemaError, match="header"):
            read_curve_csv(path)

    def test_floats_survive_via_repr(self, tmp_path):
        value = 0.1234567890123456789
        path = tmp_path / "c.csv"
        write_curve_csv(path, [(1, value)])
        assert read_curve_csv(path)[0][1] == value


class TestJsonDumps:
    def test_line_dump_is_compact_and_sorted(self):
        line = dump_json_line({"b": 1, "a": [1, 2]})
        assert line == '{"a":[1,2],"b":1}'

    def test_pretty_dump_is_sorted_with_trailing_newline(self):
        text = dump_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_dumps_are_deterministic(self):
        obj = {"z": 0.5, "m": {"y": 1, "x": 2}, "a": [3, 2, 1]}
        assert dump_json(obj) == dump_json(json.loads(json.dumps(obj)))

    def test_read_json_requires_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(SchemaError):
            read_json(path)

    def test_read_json_round_trip(self, tmp_path):
        path = tmp_path / "obj.json"
        write_json(path, {"k": [1.5, "s"], "n": None})
        assert read_json(path) == {"k": [1.5, "s"], "n": None}

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="broken.json"):
            read_json(path)
