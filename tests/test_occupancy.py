"""Frustum depth binning, factored occupancy estimation, and its loss."""

import math

import numpy as np
import pytest

from occmatch.errors import EmptyCloudError, ShapeMismatchError
from occmatch.geometry import CameraIntrinsics, DepthMap, PoseSE3, patch_grid
from occmatch.numerics import softmax, softmax_jacobian
from occmatch.occupancy import (
    OccupancyConfig,
    OccupancyFactors,
    OccupancyGrid,
    build_ground_truth_occupancy,
    depth_bin_index,
    estimate_occupancy,
    occupancy_logits,
    occupancy_loss,
)

CFG = OccupancyConfig()
IDENTITY = PoseSE3.identity()


def k_of(width: int, height: int) -> CameraIntrinsics:
    return CameraIntrinsics(100.0, 100.0, (width - 1) / 2, (height - 1) / 2, width, height)


def oracle_bin(z: float) -> int:
    return math.floor((z - CFG.d_min) / ((CFG.d_max - CFG.d_min) / CFG.depth_bins))


def oracle_occupancy(target_view, other_view, pose_t) -> np.ndarray:
    """Triple-loop reference. The target view's pixels bin at their own
    (v // 2, u // 2) cell; the other view's points are unprojected, moved
    into the target frame, and reprojected."""
    depth_t, k_t = target_view
    depth_o, k_o, pose_o = other_view
    rows, cols = patch_grid(k_t.height, k_t.width, 2)
    occ = np.zeros((rows, cols, CFG.depth_bins))
    d = depth_t.data
    for v in range(d.shape[0]):
        for u in range(d.shape[1]):
            z = d[v, u]
            if z > 0 and CFG.d_min <= z < CFG.d_max:
                occ[v // 2, u // 2, oracle_bin(z)] = 1.0
    d = depth_o.data
    for v in range(d.shape[0]):
        for u in range(d.shape[1]):
            z = d[v, u]
            if z <= 0:
                continue
            p_cam = np.array([(u - k_o.cx) / k_o.fx * z, (v - k_o.cy) / k_o.fy * z, z])
            p_t = pose_t.inverse().transform(pose_o.transform(p_cam))
            if not (CFG.d_min <= p_t[2] < CFG.d_max):
                continue
            ut = k_t.fx * p_t[0] / p_t[2] + k_t.cx
            vt = k_t.fy * p_t[1] / p_t[2] + k_t.cy
            if not (0 <= ut < 2 * cols and 0 <= vt < 2 * rows):
                continue
            occ[int(vt // 2), int(ut // 2), oracle_bin(p_t[2])] = 1.0
    sums = occ.sum(axis=-1, keepdims=True)
    np.divide(occ, sums, out=occ, where=sums > 0)
    return occ


class TestBinning:
    def test_bin_width(self):
        assert abs(CFG.bin_width - 0.1546875) < 1e-15

    def test_near_limit_is_bin_zero(self):
        assert depth_bin_index(np.array([0.1]), CFG)[0] == 0

    def test_just_inside_far_limit_is_last_bin(self):
        assert depth_bin_index(np.array([10.0 - 1e-9]), CFG)[0] == 63

    def test_depth_that_rounds_up_to_the_far_limit_takes_the_last_bin(self):
        # Here the quotient of the largest z below d_max rounds up to
        # depth_bins; that z once indexed one bin past the grid.
        cfg = OccupancyConfig(266, 0.7497889438067533, 27.490783451977286)
        z = np.nextafter(cfg.d_max, 0.0)
        assert math.floor((z - cfg.d_min) / cfg.bin_width) == cfg.depth_bins
        assert depth_bin_index(np.array([z]), cfg)[0] == cfg.depth_bins - 1
        k = k_of(4, 4)
        depth = DepthMap(np.full((4, 4), z))
        grid = build_ground_truth_occupancy(depth, depth, IDENTITY, IDENTITY, k, k, cfg=cfg)
        assert np.all(grid.values[:, :, -1] == 1.0)

    def test_matches_floor_formula(self):
        rng = np.random.default_rng(41)
        z = rng.uniform(0.1, 9.99, size=200)
        got = depth_bin_index(z, CFG)
        assert all(got[i] == oracle_bin(z[i]) for i in range(z.size))

    def test_grid_is_half_resolution_rounded_up(self):
        for (w, h), shape in (((192, 144), (72, 96)), ((7, 5), (3, 4))):
            depth, k = DepthMap(np.full((h, w), 2.0)), k_of(w, h)
            grid = build_ground_truth_occupancy(depth, depth, IDENTITY, IDENTITY, k, k)
            assert grid.values.shape[:2] == patch_grid(h, w, 2) == shape


class TestGroundTruthOccupancy:
    def test_fronto_parallel_plane_is_one_hot(self):
        k = k_of(32, 32)
        depth = DepthMap(np.full((32, 32), 5.0))
        grid = build_ground_truth_occupancy(depth, depth, IDENTITY, IDENTITY, k, k)
        expected_bin = oracle_bin(5.0)
        assert np.all(grid.values[:, :, expected_bin] == 1.0)
        assert grid.values.sum() == grid.values.shape[0] * grid.values.shape[1]

    def test_two_depth_layers_split_each_column_evenly(self):
        k = k_of(32, 32)
        depth_a = DepthMap(np.full((32, 32), 1.0))
        depth_b = DepthMap(np.full((32, 32), 3.0))
        grid = build_ground_truth_occupancy(depth_a, depth_b, IDENTITY, IDENTITY, k, k)
        assert np.all(grid.values[:, :, oracle_bin(1.0)] == 0.5)
        assert np.all(grid.values[:, :, oracle_bin(3.0)] == 0.5)
        assert np.allclose(grid.values.sum(axis=-1), 1.0)

    def test_no_valid_pixels_is_rejected(self):
        k = k_of(8, 8)
        empty = DepthMap(np.zeros((8, 8)))
        with pytest.raises(EmptyCloudError):
            build_ground_truth_occupancy(empty, empty, IDENTITY, IDENTITY, k, k)

    def test_depths_outside_range_are_dropped(self):
        k = k_of(8, 8)
        depth = DepthMap(np.full((8, 8), 50.0))
        grid = build_ground_truth_occupancy(depth, depth, IDENTITY, IDENTITY, k, k)
        assert grid.values.sum() == 0.0

    def test_matches_exhaustive_oracle_on_random_views(self):
        rng = np.random.default_rng(42)
        k = k_of(12, 10)
        data_a = rng.uniform(0.5, 8.0, size=(10, 12))
        data_b = rng.uniform(0.5, 8.0, size=(10, 12))
        data_a[rng.random((10, 12)) < 0.15] = 0.0
        c, s = math.cos(0.1), math.sin(0.1)
        pose_b = PoseSE3(
            np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]),
            np.array([0.3, 0.1, 0.05]),
        )
        depth_a, depth_b = DepthMap(data_a), DepthMap(data_b)
        cases = (
            ("a", (depth_a, k), (depth_b, k, pose_b), IDENTITY),
            ("b", (depth_b, k), (depth_a, k, IDENTITY), pose_b),
        )
        for target, tgt, oth, pose_t in cases:
            grid = build_ground_truth_occupancy(
                depth_a, depth_b, IDENTITY, pose_b, k, k, target=target
            )
            want = oracle_occupancy(tgt, oth, pose_t)
            assert np.max(np.abs(grid.values - want)) < 1e-12

    def test_every_valid_in_range_pixel_occupies_its_bin(self):
        rng = np.random.default_rng(44)
        k = k_of(16, 12)
        data = rng.uniform(0.5, 9.5, size=(12, 16))
        depth = DepthMap(data)
        grid = build_ground_truth_occupancy(depth, depth, IDENTITY, IDENTITY, k, k)
        for v in range(12):
            for u in range(16):
                z = data[v, u]
                assert grid.values[v // 2, u // 2, oracle_bin(z)] > 0.0


class TestEstimateOccupancy:
    def test_flat_factors_give_uniform_depth_distribution(self):
        factors = OccupancyFactors(np.ones((4, 3, 5, 1)), np.zeros((1, 3, 5, 16)))
        grid = estimate_occupancy(factors)
        assert np.allclose(grid.values, 1.0 / 16.0)

    def test_strong_logit_concentrates_on_its_bin(self):
        feature = np.ones((1, 1, 1, 1))
        view = np.zeros((1, 1, 1, 64))
        view[0, 0, 0, 3] = 50.0
        grid = estimate_occupancy(OccupancyFactors(feature, view))
        assert grid.values[0, 0, 3] > 1.0 - 1e-9

    def test_logits_are_channel_sums_of_products(self):
        rng = np.random.default_rng(51)
        f = rng.normal(size=(6, 2, 3, 1))
        v = rng.normal(size=(1, 2, 3, 8))
        logits = occupancy_logits(OccupancyFactors(f, v))
        want = np.zeros((2, 3, 8))
        for r in range(2):
            for c in range(3):
                for d in range(8):
                    want[r, c, d] = sum(f[ch, r, c, 0] * v[0, r, c, d] for ch in range(6))
        assert np.max(np.abs(logits - want)) < 1e-12

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(52)
        factors = OccupancyFactors(rng.normal(size=(4, 5, 6, 1)), rng.normal(size=(1, 5, 6, 16)))
        grid = estimate_occupancy(factors)
        assert np.max(np.abs(grid.values.sum(axis=-1) - 1.0)) < 1e-12

    def test_estimate_is_softmax_of_logits(self):
        rng = np.random.default_rng(53)
        factors = OccupancyFactors(rng.normal(size=(4, 2, 2, 1)), rng.normal(size=(1, 2, 2, 8)))
        grid = estimate_occupancy(factors)
        assert np.allclose(grid.values, softmax(occupancy_logits(factors), axis=-1))

    def test_per_column_logit_shift_leaves_estimate_unchanged(self):
        rng = np.random.default_rng(54)
        f = np.ones((1, 2, 2, 1))
        v = rng.normal(size=(1, 2, 2, 8))
        base = estimate_occupancy(OccupancyFactors(f, v))
        shifted = estimate_occupancy(OccupancyFactors(f, v + 7.5))
        assert np.max(np.abs(base.values - shifted.values)) < 1e-12

    def test_factor_shapes_must_agree(self):
        with pytest.raises(ShapeMismatchError):
            OccupancyFactors(np.ones((4, 3, 5, 1)), np.ones((1, 3, 6, 16)))


class TestDepthSoftmaxJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(61)
        logits = rng.normal(size=(1, 1, 6))
        jac = softmax_jacobian(logits)
        eps = 1e-6
        for j in range(6):
            lp, lm = logits.copy(), logits.copy()
            lp[0, 0, j] += eps
            lm[0, 0, j] -= eps
            fd = (softmax(lp, axis=-1) - softmax(lm, axis=-1))[0, 0] / (2 * eps)
            assert np.max(np.abs(jac[0, 0, :, j] - fd)) < 1e-9


class TestOccupancyLoss:
    def test_identical_grids_have_zero_loss(self):
        rng = np.random.default_rng(71)
        g = OccupancyGrid(rng.uniform(size=(3, 4, 8)))
        assert occupancy_loss(g, g) == 0.0

    def test_uniform_versus_one_hot_hand_value(self):
        # |1/D - 1| once and |1/D - 0| in the other D-1 bins, averaged over
        # D cells: 2 * (D - 1) / D**2.
        d = 8
        est = OccupancyGrid(np.full((1, 1, d), 1.0 / d))
        gt = np.zeros((1, 1, d))
        gt[0, 0, 2] = 1.0
        want = 2.0 * (d - 1) / d**2
        assert abs(occupancy_loss(est, OccupancyGrid(gt)) - want) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(72)
        a = rng.uniform(size=(2, 3, 4))
        b = rng.uniform(size=(2, 3, 4))
        total = 0.0
        for r in range(2):
            for c in range(3):
                for d in range(4):
                    total += abs(a[r, c, d] - b[r, c, d])
        want = total / (2 * 3 * 4)
        assert abs(occupancy_loss(OccupancyGrid(a), OccupancyGrid(b)) - want) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            occupancy_loss(
                OccupancyGrid(np.zeros((1, 1, 4))), OccupancyGrid(np.zeros((1, 1, 5)))
            )
