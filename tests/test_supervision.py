"""Per-pixel covisibility labels, pair statistics, and patch-level matches."""

import tracemalloc

import numpy as np
import pytest

from occmatch.errors import EmptyDepthError
from occmatch.formats import read_json, scene_from_json, scene_to_json, write_json
from occmatch.geometry import (
    CameraIntrinsics,
    DepthMap,
    PoseSE3,
    patch_centers,
    patch_grid,
    project_points,
    relative_pose,
    unproject_points,
)
from occmatch.supervision import (
    MARGIN_FLOOR,
    MARGIN_RELATIVE,
    PixelClass,
    _BLOCK_PIXELS,
    _classify_nearest,
    classify_points,
    coarse_match_ground_truth,
    label_matches,
    pair_stats,
    sample_depth_bilinear,
)
from occmatch.synth import FIXTURE_NAMES, Box, Plane, SceneSpec, make_fixture, render_depth

from test_synth import clutter_pair

IDENTITY = PoseSE3.identity()


def shifted(x: float) -> PoseSE3:
    return PoseSE3(np.eye(3), np.array([x, 0.0, 0.0]))


def classify_one(u: int, v: int, depth_a, depth_b, k_a, k_b, t_ba) -> PixelClass:
    """Class of the one integer pixel (u, v) of view A."""
    cls, _ = classify_points(np.array([float(u)]), np.array([float(v)]),
                             np.array([depth_a.data[v, u]]), depth_b, k_a, k_b, t_ba)
    return PixelClass(int(cls[0]))


@pytest.fixture
def k64():
    return CameraIntrinsics(100.0, 100.0, 31.5, 31.5, 64, 64)


class TestOcclusionMargin:
    """The occlusion test's slack at B's sampled depth d is
    max(MARGIN_FLOOR, MARGIN_RELATIVE * d): 5 cm up to 1 m, then 5 %."""

    @staticmethod
    def gap_class(k, sampled: float, gap: float) -> PixelClass:
        """Class of A's centre pixel at depth sampled + gap over a B map
        of depth `sampled`."""
        depth_a = DepthMap(np.full((64, 64), sampled + gap))
        depth_b = DepthMap(np.full((64, 64), sampled))
        return classify_one(31, 31, depth_a, depth_b, k, k, IDENTITY)

    def test_floor_holds_below_one_meter(self, k64):
        # At 0.5 m the relative term alone (2.5 cm) would call 3.125 cm occluded.
        assert (MARGIN_FLOOR, MARGIN_RELATIVE) == (0.05, 0.05)
        assert self.gap_class(k64, 0.5, 0.03125) == PixelClass.COVISIBLE
        assert self.gap_class(k64, 0.5, 0.0625) == PixelClass.OCCLUDED_IN_OTHER

    def test_grows_linearly_past_one_meter(self, k64):
        # At 4 m the floor alone (5 cm) would call 18.75 cm occluded.
        assert self.gap_class(k64, 4.0, 0.1875) == PixelClass.COVISIBLE
        assert self.gap_class(k64, 4.0, 0.25) == PixelClass.OCCLUDED_IN_OTHER

    @pytest.mark.parametrize("sampled", [0.25, 0.75, 1.0, 1.5, 3.0, 6.0, 12.0])
    def test_gap_is_occluded_just_past_the_margin(self, k64, sampled):
        margin = max(MARGIN_FLOOR, MARGIN_RELATIVE * sampled)
        assert self.gap_class(k64, sampled, 0.9 * margin) == PixelClass.COVISIBLE
        assert self.gap_class(k64, sampled, 1.1 * margin) == PixelClass.OCCLUDED_IN_OTHER


class TestSampleDepthBilinear:
    def test_all_valid_neighbors_interpolate(self):
        depth = DepthMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
        vals, ok = sample_depth_bilinear(depth, np.array([0.5]), np.array([0.5]))
        assert ok[0]
        assert np.allclose(vals, [2.5])

    def test_invalid_neighbor_is_excluded_and_weights_renormalize(self):
        # Corner (0, 0) is invalid; at the cell midpoint the remaining three
        # neighbors each keep weight 1/4, renormalized to 1/3.
        depth = DepthMap(np.array([[0.0, 2.0], [3.0, 4.0]]))
        vals, ok = sample_depth_bilinear(depth, np.array([0.5]), np.array([0.5]))
        assert ok[0]
        assert np.allclose(vals, [(2.0 + 3.0 + 4.0) / 3.0])

    def test_no_valid_support_reports_not_ok(self):
        depth = DepthMap(np.array([[0.0, 0.0], [0.0, 0.0]]))
        vals, ok = sample_depth_bilinear(depth, np.array([0.5]), np.array([0.5]))
        assert not ok[0]


def gather_depth_bilinear(depth: DepthMap, u: np.ndarray, v: np.ndarray):
    """sample_depth_bilinear with its taps gathered by (row, column): the
    reference the flat-index gather must equal bit for bit."""
    d = depth.data
    h, w = d.shape
    x0 = np.floor(u).astype(np.intp)
    y0 = np.floor(v).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = u - x0
    fy = v - y0
    acc = np.zeros(u.shape, dtype=np.float64)
    wsum = np.zeros(u.shape, dtype=np.float64)
    for yy, xx, wt in (
        (y0, x0, (1.0 - fx) * (1.0 - fy)),
        (y0, x1, fx * (1.0 - fy)),
        (y1, x0, (1.0 - fx) * fy),
        (y1, x1, fx * fy),
    ):
        val = d[yy, xx]
        m = val > 0.0
        acc += wt * val * m
        wsum += wt * m
    ok = wsum > 1e-12
    out = np.zeros_like(acc)
    np.divide(acc, wsum, out=out, where=ok)
    return out, ok


def dense_pair_stats(depth_a, depth_b, k_a, k_b, t_ba) -> dict:
    """pair_stats as one dense pass: coordinate grids and B coordinates of
    every pixel of A, then one count per class. The reference the blocked
    pair_stats must equal."""
    h, w = depth_a.data.shape
    vv, uu = np.mgrid[0:h, 0:w]
    u, v, d = uu.astype(np.float64).ravel(), vv.astype(np.float64).ravel(), depth_a.data.ravel()
    cls = np.full(u.size, int(PixelClass.COVISIBLE), dtype=np.int8)
    uv_b = np.full((u.size, 2), np.nan)
    z_b = np.full(u.size, np.nan)
    valid = np.flatnonzero(d > 0.0)
    cls[d <= 0.0] = PixelClass.INVALID_DEPTH
    p_b = t_ba.transform(unproject_points(u[valid], v[valid], d[valid], k_a))
    behind = p_b[:, 2] <= 0.0
    cls[valid[behind]] = PixelClass.BEHIND_CAMERA
    front = valid[~behind]
    p_b = p_b[~behind]
    ub, vb = project_points(p_b, k_b)
    uv_b[front, 0] = ub
    uv_b[front, 1] = vb
    z_b[front] = p_b[:, 2]
    inside = (ub >= 0.0) & (ub <= k_b.width - 1.0) & (vb >= 0.0) & (vb <= k_b.height - 1.0)
    cls[front[~inside]] = PixelClass.OUT_OF_BOUNDS
    hit = front[inside]
    sampled, ok = gather_depth_bilinear(depth_b, ub[inside], vb[inside])
    cls[hit[~ok]] = PixelClass.OUT_OF_BOUNDS
    occluded = ok & (z_b[hit] - sampled > np.maximum(MARGIN_FLOOR, MARGIN_RELATIVE * sampled))
    cls[hit[occluded]] = PixelClass.OCCLUDED_IN_OTHER
    return {c: int(np.count_nonzero(cls == c)) for c in PixelClass}


class TestFlatGather:
    """The flat-index gather of sample_depth_bilinear equals the 2-D one."""

    @pytest.fixture
    def depth(self):
        rng = np.random.default_rng(11)
        data = rng.uniform(0.5, 6.0, size=(37, 53))
        data[rng.random(data.shape) < 0.2] = 0.0
        return DepthMap(data)

    def assert_same(self, depth, u, v):
        got, got_ok = sample_depth_bilinear(depth, u, v)
        want, want_ok = gather_depth_bilinear(depth, u, v)
        assert np.array_equal(got_ok, want_ok)
        assert got.tobytes() == want.tobytes()

    def test_random_points(self, depth):
        rng = np.random.default_rng(12)
        u = rng.uniform(0.0, depth.width - 1.0, 5000)
        v = rng.uniform(0.0, depth.height - 1.0, 5000)
        self.assert_same(depth, u, v)

    def test_taps_clamped_at_the_last_row_and_column(self, depth):
        w, h = depth.width - 1.0, depth.height - 1.0
        frac = np.linspace(0.0, 1.0, 9)
        u = np.concatenate([np.full(9, w), w - frac, frac * w, np.full(9, w)])
        v = np.concatenate([frac * h, np.full(9, h), np.full(9, h), h - frac])
        self.assert_same(depth, u, v)

    def test_taps_on_zero_depth(self, depth):
        rows, cols = np.nonzero(depth.data == 0.0)
        assert rows.size > 100
        offsets = np.random.default_rng(13).uniform(-0.9, 0.9, (2, rows.size))
        u = np.clip(cols + offsets[0], 0.0, depth.width - 1.0)
        v = np.clip(rows + offsets[1], 0.0, depth.height - 1.0)
        self.assert_same(depth, u, v)
        _, ok = sample_depth_bilinear(depth, cols.astype(np.float64), rows.astype(np.float64))
        assert not ok.all()


class TestClassifyPixel:
    def test_identity_pair_is_covisible(self, k64):
        depth = DepthMap(np.full((64, 64), 2.0))
        got = classify_one(10, 20, depth, depth, k64, k64, IDENTITY)
        assert got == PixelClass.COVISIBLE

    def test_nearer_surface_in_b_marks_occluded(self, k64):
        # The point sits at 2 m but B's map shows 1 m along that ray;
        # 2 - 1 = 1 exceeds the margin at 1 m, 0.05.
        depth_a = DepthMap(np.full((64, 64), 2.0))
        depth_b = DepthMap(np.full((64, 64), 1.0))
        got = classify_one(31, 31, depth_a, depth_b, k64, k64, IDENTITY)
        assert got == PixelClass.OCCLUDED_IN_OTHER

    def test_depth_gap_within_margin_stays_covisible(self, k64):
        # Sampled depth 2 gives margin 0.1; a gap of 3/32 = 0.09375 (exactly
        # representable) stays below it.
        depth_a = DepthMap(np.full((64, 64), 2.0 + 0.09375))
        depth_b = DepthMap(np.full((64, 64), 2.0))
        got = classify_one(31, 31, depth_a, depth_b, k64, k64, IDENTITY)
        assert got == PixelClass.COVISIBLE

    def test_depth_gap_beyond_margin_marks_occluded(self, k64):
        depth_a = DepthMap(np.full((64, 64), 2.125))
        depth_b = DepthMap(np.full((64, 64), 2.0))
        got = classify_one(31, 31, depth_a, depth_b, k64, k64, IDENTITY)
        assert got == PixelClass.OCCLUDED_IN_OTHER

    def test_reprojection_outside_image_is_out_of_bounds(self, k64):
        # Baseline 2 at depth 2 shifts by fx*b/z = 100 pixels, far past the
        # 64-pixel image.
        depth = DepthMap(np.full((64, 64), 2.0))
        t_ba = relative_pose(IDENTITY, shifted(2.0))
        got = classify_one(31, 31, depth, depth, k64, k64, t_ba)
        assert got == PixelClass.OUT_OF_BOUNDS

    def test_invalid_source_depth(self, k64):
        depth_a = DepthMap(np.zeros((64, 64)))
        depth_b = DepthMap(np.full((64, 64), 2.0))
        got = classify_one(31, 31, depth_a, depth_b, k64, k64, IDENTITY)
        assert got == PixelClass.INVALID_DEPTH

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, 0.0, -0.0, -2.0, -5e-324])
    def test_unusable_source_depth_is_invalid_without_a_warning(self, k64, bad):
        # A depth counts only when finite and > 0: NaN once read COVISIBLE,
        # and +inf warned in unproject_points (an error in this suite).
        depth_b = DepthMap(np.full((64, 64), 2.0))
        cls, uv_b = classify_points(np.full(3, 31.0), np.full(3, 31.0), [2.0, bad, 2.0],
                                    depth_b, k64, k64, IDENTITY)
        assert cls.tolist() == [PixelClass.COVISIBLE, PixelClass.INVALID_DEPTH, PixelClass.COVISIBLE]
        assert np.isnan(uv_b[1]).all() and np.isfinite(uv_b[[0, 2]]).all()

    def test_point_behind_destination_camera(self, k64):
        # B looks the opposite way, so everything in front of A is behind B.
        r = np.diag([-1.0, 1.0, -1.0])
        t_ba = PoseSE3(r, np.zeros(3))
        depth = DepthMap(np.full((64, 64), 2.0))
        got = classify_one(31, 31, depth, depth, k64, k64, t_ba)
        assert got == PixelClass.BEHIND_CAMERA

    def test_landing_on_invalid_destination_depth_is_out_of_bounds(self, k64):
        depth_a = DepthMap(np.full((64, 64), 2.0))
        depth_b = DepthMap(np.zeros((64, 64)))
        got = classify_one(31, 31, depth_a, depth_b, k64, k64, IDENTITY)
        assert got == PixelClass.OUT_OF_BOUNDS


class TestPairStats:
    def test_identity_pair_is_fully_covisible(self, k64):
        depth = DepthMap(np.full((64, 64), 2.0))
        counts = pair_stats(depth, depth, k64, k64, IDENTITY)
        assert counts == {c: 64 * 64 if c == PixelClass.COVISIBLE else 0 for c in PixelClass}

    def test_counts_partition_all_pixels(self, k64):
        rng = np.random.default_rng(9)
        data = rng.uniform(1.0, 4.0, size=(64, 64))
        data[rng.random((64, 64)) < 0.1] = 0.0
        depth_a = DepthMap(data)
        depth_b = DepthMap(rng.uniform(1.0, 4.0, size=(64, 64)))
        counts = pair_stats(depth_a, depth_b, k64, k64, relative_pose(IDENTITY, shifted(0.3)))
        assert list(counts) == list(PixelClass)
        assert all(type(n) is int for n in counts.values())
        assert sum(counts.values()) == 64 * 64

    def test_opposite_facing_cameras_have_zero_overlap(self, k64):
        depth = DepthMap(np.full((64, 64), 2.0))
        r = np.diag([-1.0, 1.0, -1.0])
        counts = pair_stats(depth, depth, k64, k64, PoseSE3(r, np.zeros(3)))
        assert counts[PixelClass.BEHIND_CAMERA] == 64 * 64

    def test_all_invalid_depth_is_rejected(self, k64):
        depth = DepthMap(np.zeros((64, 64)))
        with pytest.raises(EmptyDepthError):
            pair_stats(depth, depth, k64, k64, IDENTITY)

    def test_half_of_view_a_occluded(self):
        # A slab hovering 1 m in front of a backdrop, visible only to the
        # shifted camera B, hides the right half of A's image: 96 of 192
        # columns reproject onto the slab (occluded), the rest leave the
        # frame. Frozen from the ray-cast construction: exactly half of A's
        # pixels are occluded.
        bg = Plane((0.0, 0.0, 2.0), (0.0, 0.0, 1.0), texture=0)
        slab = Box((0.75, -3.0, 1.0), (3.0, 3.0, 1.001), texture=1)
        scene = SceneSpec((bg, slab))
        k = make_fixture("identity").k
        pose_b = shifted(1.5)
        depth_a = render_depth(scene, IDENTITY, k)
        depth_b = render_depth(scene, pose_b, k)
        counts = pair_stats(depth_a, depth_b, k, k, relative_pose(IDENTITY, pose_b))
        assert counts[PixelClass.OCCLUDED_IN_OTHER] == counts[PixelClass.OUT_OF_BOUNDS] == 144 * 96
        assert counts[PixelClass.COVISIBLE] == 0


class TestBlockedPairStats:
    """pair_stats, classifying in row blocks, equals the dense pass."""

    def assert_same(self, depth_a, depth_b, k, t_ba):
        got = pair_stats(depth_a, depth_b, k, k, t_ba)
        assert got == dense_pair_stats(depth_a, depth_b, k, k, t_ba)
        return got

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures(self, name):
        fx = make_fixture(name)
        assert (fx.k.width, fx.k.height) == (192, 144)
        # Rows per block do not divide the height: the last block is partial.
        assert 144 % (_BLOCK_PIXELS // 192)
        self.assert_same(render_depth(fx.scene, fx.pose_a, fx.k), render_depth(fx.scene, fx.pose_b, fx.k),
                         fx.k, relative_pose(fx.pose_a, fx.pose_b))

    def test_clutter_scene_read_from_a_scene_file(self, tmp_path):
        scene, pose_a, pose_b, k = clutter_pair(30.0, seed=2)
        write_json(tmp_path / "scene.json", scene_to_json(scene))
        scene = scene_from_json(read_json(tmp_path / "scene.json"))
        counts = self.assert_same(render_depth(scene, pose_a, k), render_depth(scene, pose_b, k),
                                  k, relative_pose(pose_a, pose_b))
        assert counts[PixelClass.OCCLUDED_IN_OTHER] > 1000

    @pytest.mark.parametrize("h, w", [(200, 100), (3, _BLOCK_PIXELS + 808)])
    def test_all_five_classes(self, h, w):
        # B sits 2.5 m ahead of A: nearer points fall behind it, the rest
        # spread out past its borders or land on a random depth map.
        rng = np.random.default_rng([h, w])
        data = rng.uniform(1.0, 6.0, size=(h, w))
        data[rng.random((h, w)) < 0.1] = 0.0
        k = CameraIntrinsics(50.0, 50.0, (w - 1) / 2, (h - 1) / 2, w, h)
        depth_b = DepthMap(rng.uniform(0.5, 4.0, size=(h, w)) * (rng.random((h, w)) < 0.9))
        assert w > _BLOCK_PIXELS or h % (_BLOCK_PIXELS // w)  # one row over a block, or a partial last block
        counts = self.assert_same(DepthMap(data), depth_b, k, relative_pose(IDENTITY, PoseSE3(
            np.eye(3), np.array([0.0, 0.0, 2.5]))))
        assert min(counts.values()) > 0

    @pytest.mark.parametrize("width, height", [(320, 240), (640, 480)])
    def test_scratch_stays_bounded(self, width, height):
        fx = make_fixture("two_plane", width, height)
        depth_a = render_depth(fx.scene, fx.pose_a, fx.k)
        depth_b = render_depth(fx.scene, fx.pose_b, fx.k)
        t_ba = relative_pose(fx.pose_a, fx.pose_b)
        tracemalloc.start()
        try:
            pair_stats(depth_a, depth_b, fx.k, fx.k, t_ba)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


class TestPatchGrid:
    def test_exact_division(self):
        assert patch_grid(64, 64, 8) == (8, 8)

    def test_partial_edge_patches_are_kept(self):
        assert patch_grid(65, 63, 8) == (9, 8)

    def test_centers_of_full_patches(self):
        u, v = patch_centers(16, 16, 8)
        assert np.array_equal(u, [4.0, 12.0, 4.0, 12.0])
        assert np.array_equal(v, [4.0, 4.0, 12.0, 12.0])

    def test_partial_edge_patch_centers_its_actual_extent(self):
        # With height 12 and stride 8 the second patch row spans 4 pixels,
        # so its center row is 8 + 4 // 2 = 10.
        u, v = patch_centers(12, 8, 8)
        assert np.array_equal(v, [4.0, 10.0])


class TestCoarseMatchGroundTruth:
    def test_identity_pair_matches_every_patch_to_itself(self, k64):
        depth = DepthMap(np.full((64, 64), 2.0))
        gt = coarse_match_ground_truth(depth, depth, k64, k64, IDENTITY)
        assert gt.grid_a == (8, 8)
        assert gt.grid_b == (8, 8)
        assert gt.vv == [(i, i) for i in range(64)]
        assert gt.vo == []
        assert gt.ov == []

    def test_target_patch_contains_the_reprojected_center(self, k64):
        # Baseline 0.32 at depth 2 shifts by exactly 16 pixels = 2 patches.
        depth = DepthMap(np.full((64, 64), 2.0))
        t_ba = relative_pose(IDENTITY, shifted(0.32))
        gt = coarse_match_ground_truth(depth, depth, k64, k64, t_ba)
        for a, b in gt.vv:
            assert b == a - 2

    def test_ov_equals_swapped_vo_of_reversed_pair(self):
        fx = make_fixture("two_plane")
        depth_a = render_depth(fx.scene, fx.pose_a, fx.k)
        depth_b = render_depth(fx.scene, fx.pose_b, fx.k)
        t_ba = relative_pose(fx.pose_a, fx.pose_b)
        t_ab = relative_pose(fx.pose_b, fx.pose_a)
        forward = coarse_match_ground_truth(depth_a, depth_b, fx.k, fx.k, t_ba, t_ab)
        backward = coarse_match_ground_truth(depth_b, depth_a, fx.k, fx.k, t_ab, t_ba)
        assert forward.ov == [(a, b) for b, a in backward.vo]
        assert backward.ov == [(a, b) for b, a in forward.vo]

    def test_occluded_patches_fall_in_vo(self):
        fx = make_fixture("two_plane")
        depth_a = render_depth(fx.scene, fx.pose_a, fx.k)
        depth_b = render_depth(fx.scene, fx.pose_b, fx.k)
        t_ba = relative_pose(fx.pose_a, fx.pose_b)
        gt = coarse_match_ground_truth(depth_a, depth_b, fx.k, fx.k, t_ba)
        assert len(gt.vo) > 0
        # vv and vo source patches never overlap.
        assert not ({a for a, _ in gt.vv} & {a for a, _ in gt.vo})


def per_patch_ground_truth(depth_a, depth_b, k_a, k_b, t_ba, stride=8):
    """(vv, vo, ov) of `coarse_match_ground_truth` built one patch at a
    time: the reference its vectorized lists must equal."""
    def one_direction(d_src, d_dst, k_src, k_dst, t):
        cols_dst = patch_grid(d_dst.height, d_dst.width, stride)[1]
        centers = np.column_stack(patch_centers(d_src.height, d_src.width, stride))
        cls, uv = _classify_nearest(centers, d_src, d_dst, k_src, k_dst, t)
        tgt_col = np.floor(uv[:, 0] / stride)
        tgt_row = np.floor(uv[:, 1] / stride)
        covis, occl = [], []
        for p in np.flatnonzero((cls == PixelClass.COVISIBLE) | (cls == PixelClass.OCCLUDED_IN_OTHER)):
            tgt = int(tgt_row[p]) * cols_dst + int(tgt_col[p])
            (covis if cls[p] == PixelClass.COVISIBLE else occl).append((int(p), tgt))
        return covis, occl

    vv, vo = one_direction(depth_a, depth_b, k_a, k_b, t_ba)
    _, ov_rev = one_direction(depth_b, depth_a, k_b, k_a, t_ba.inverse())
    return vv, vo, [(a, b) for (b, a) in ov_rev]


class TestVectorizedPatchLists:
    @pytest.mark.parametrize("name, stride", [("two_plane", 8), ("two_plane", 4),
                                              ("clutter0", 8), ("clutter30", 8)])
    def test_lists_equal_the_per_patch_loop(self, name, stride):
        if name == "two_plane":
            fx = make_fixture(name)
            scene, pose_a, pose_b, k = fx.scene, fx.pose_a, fx.pose_b, fx.k
        else:
            scene, pose_a, pose_b, k = clutter_pair(float(name[len("clutter"):]))
        depth_a, depth_b = render_depth(scene, pose_a, k), render_depth(scene, pose_b, k)
        t_ba = relative_pose(pose_a, pose_b)
        gt = coarse_match_ground_truth(depth_a, depth_b, k, k, t_ba, patch_stride=stride)
        want = per_patch_ground_truth(depth_a, depth_b, k, k, t_ba, stride)
        assert all(want)  # every list has pairs
        assert (gt.vv, gt.vo, gt.ov) == want
        assert {type(i) for pairs in (gt.vv, gt.vo, gt.ov) for pair in pairs for i in pair} == {int}


class TestLabelMatches:
    @pytest.mark.parametrize("shift, label", [(0.0, "vv"), (2.0, "vv"), (4.0, "none")])
    def test_identity_pair_labels_by_the_distance(self, k64, shift, label):
        # The same plane seen twice: every point reprojects onto itself, so a
        # B point `shift` px off its A point is that far from the truth.
        depth = DepthMap(np.full((64, 64), 2.0))
        rng = np.random.default_rng(5)
        uv_a = rng.uniform(0.0, 63.0, size=(40, 2))
        labels, epe = label_matches(uv_a, uv_a + [shift, 0.0], depth, depth, k64, k64, IDENTITY)
        assert labels.tolist() == [label] * 40
        assert epe == pytest.approx(np.full(40, shift), abs=1e-9)

    @pytest.fixture(scope="class")
    def two_plane(self):
        fx = make_fixture("two_plane")
        depth_a = render_depth(fx.scene, fx.pose_a, fx.k)
        depth_b = render_depth(fx.scene, fx.pose_b, fx.k)
        return fx, depth_a, depth_b, relative_pose(fx.pose_a, fx.pose_b)

    @staticmethod
    def occluded_pixels(depth_src, depth_dst, k, t) -> tuple[np.ndarray, np.ndarray]:
        """Integer pixels of the source view occluded in the other, and
        their GT reprojections there."""
        v, u = np.mgrid[0:depth_src.height, 0:depth_src.width]
        uv = np.column_stack([u.ravel(), v.ravel()]).astype(np.float64)
        cls, uv_dst = classify_points(uv[:, 0], uv[:, 1], depth_src.data.ravel(),
                                      depth_dst, k, k, t)
        occluded = cls == PixelClass.OCCLUDED_IN_OTHER
        assert occluded.sum() > 100
        return uv[occluded], uv_dst[occluded]

    def test_occluded_a_point_matched_at_its_reprojection_is_vo(self, two_plane):
        fx, depth_a, depth_b, t_ba = two_plane
        uv_a, uv_b = self.occluded_pixels(depth_a, depth_b, fx.k, t_ba)
        labels, epe = label_matches(uv_a, uv_b, depth_a, depth_b, fx.k, fx.k, t_ba)
        assert set(labels.tolist()) == {"vo"}
        assert np.all(epe == 0.0)

    def test_occluded_b_point_matched_at_its_reprojection_is_ov(self, two_plane):
        fx, depth_a, depth_b, t_ba = two_plane
        uv_b, uv_a = self.occluded_pixels(depth_b, depth_a, fx.k, t_ba.inverse())
        labels, _ = label_matches(uv_a, uv_b, depth_a, depth_b, fx.k, fx.k, t_ba)
        assert set(labels.tolist()) == {"ov"}
