"""Pinhole projection, SE(3) pose algebra, and depth-based reprojection."""

import tracemalloc

import numpy as np
import pytest

from occmatch.geometry import (
    CameraIntrinsics,
    DepthMap,
    PoseSE3,
    project_points,
    relative_pose,
    unproject_points,
)
from occmatch.supervision import PixelClass, classify_points


def rotation_z(deg: float) -> np.ndarray:
    c, s = np.cos(np.radians(deg)), np.sin(np.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_pose(rng: np.random.Generator) -> PoseSE3:
    # QR of a random matrix gives an orthonormal basis; flip one axis if needed
    # to land in SO(3).
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return PoseSE3(q, rng.normal(size=3))


def carry(u: float, v: float, depth: float, k: CameraIntrinsics, t_ba: PoseSE3):
    """(u_b, v_b, z_b) of pixel (u, v) of view A at `depth`, seen from B."""
    p_b = t_ba.transform(unproject_points(np.array([u]), np.array([v]), np.array([depth]), k))
    u_b, v_b = project_points(p_b, k)
    return u_b[0], v_b[0], p_b[0, 2]


class TestProject:
    def test_optical_axis_point_lands_on_principal_point(self, k100):
        u, v = project_points(np.array([[0.0, 0.0, 2.0]]), k100)
        assert (u[0], v[0]) == (320.0, 240.0)

    def test_unit_lateral_offset_moves_by_focal_over_depth(self, k100):
        u, v = project_points(np.array([[1.0, 0.0, 2.0]]), k100)
        assert (u[0], v[0]) == (370.0, 240.0)

    def test_nonpositive_depth_rejected(self, k100):
        # project_points leaves z > 0 to its caller; the classifier keeps
        # points behind (z = -2) or on (z = 0) B's image plane out of it.
        depth = DepthMap(np.full((480, 640), 2.0))
        for t_ba in (PoseSE3(np.diag([-1.0, 1.0, -1.0]), np.zeros(3)),
                     PoseSE3(np.eye(3), np.array([0.0, 0.0, -2.0]))):
            cls, uv_b = classify_points(np.array([320.0]), np.array([240.0]), np.array([2.0]),
                                        depth, k100, k100, t_ba)
            assert cls[0] == PixelClass.BEHIND_CAMERA
            assert np.isnan(uv_b).all()

    def test_unproject_inverts_the_worked_example(self, k100):
        p = unproject_points(np.array([370.0]), np.array([240.0]), np.array([2.0]), k100)
        assert np.allclose(p, [[1.0, 0.0, 2.0]])

    def test_unproject_rejects_nonpositive_depth(self, k100):
        # A pixel without positive depth is never unprojected: the classifier
        # labels it invalid and leaves its reprojection empty.
        depth = DepthMap(np.full((480, 640), 2.0))
        cls, uv_b = classify_points(np.array([0.0, 1.0]), np.array([0.0, 0.0]),
                                    np.array([0.0, -1.0]), depth, k100, k100,
                                    PoseSE3.identity())
        assert np.array_equal(cls, [PixelClass.INVALID_DEPTH] * 2)
        assert np.isnan(uv_b).all()

    def test_project_unproject_roundtrip(self, k100):
        rng = np.random.default_rng(7)
        p = rng.uniform([-3, -3, 0.5], [3, 3, 9], size=(100, 3))
        u, v = project_points(p, k100)
        back = unproject_points(u, v, p[:, 2], k100)
        assert np.max(np.abs(back - p)) < 1e-9

    def test_vectorised_forms_equal_the_single_point_forms(self, k100):
        # Each row maps on its own, by the pinhole formulas, and unit depth
        # gives the normalized image coordinates bit for bit.
        rng = np.random.default_rng(8)
        p = rng.uniform([-3, -3, 0.5], [3, 3, 9], size=(50, 3))
        u, v = project_points(p, k100)
        assert np.array_equal(u, [100.0 * x / z + 320.0 for x, _, z in p])
        assert np.array_equal(v, [100.0 * y / z + 240.0 for _, y, z in p])
        rays = unproject_points(u, v, np.ones(50), k100)
        assert np.array_equal(rays, np.column_stack([(u - 320.0) / 100.0, (v - 240.0) / 100.0,
                                                     np.ones(50)]))
        assert np.array_equal(unproject_points(u[7:8], v[7:8], p[7:8, 2], k100),
                              unproject_points(u, v, p[:, 2], k100)[7:8])


class TestIntrinsics:
    def test_nonpositive_focal_rejected(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(0.0, 100.0, 320.0, 240.0, 640, 480)

    def test_degenerate_size_rejected(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(100.0, 100.0, 0.0, 0.0, 0, 480)

    @pytest.mark.parametrize("name", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_rejected_by_name(self, name, bad):
        vals = dict(fx=100.0, fy=100.0, cx=320.0, cy=240.0, width=640, height=480)
        vals[name] = bad
        with pytest.raises(ValueError, match=f"'{name}' must be finite"):
            CameraIntrinsics(**vals)


class TestPose:
    def test_identity_transform_is_noop(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(PoseSE3.identity().transform(p), p)

    def test_non_orthonormal_rotation_rejected(self):
        with pytest.raises(ValueError):
            PoseSE3(np.eye(3) * 2.0, np.zeros(3))

    def test_reflection_rejected(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            PoseSE3(r, np.zeros(3))

    @pytest.mark.parametrize("t", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]])
    def test_nonfinite_translation_rejected(self, t):
        with pytest.raises(ValueError, match="'t' must be finite"):
            PoseSE3(np.eye(3), np.array(t))

    def test_inverse_composes_to_identity(self):
        pose = random_pose(np.random.default_rng(3))
        both = pose.inverse().compose(pose)
        assert np.max(np.abs(both.R - np.eye(3))) < 1e-12
        assert np.max(np.abs(both.t)) < 1e-12

    def test_relative_pose_of_identical_cameras_is_identity(self):
        pose = random_pose(np.random.default_rng(4))
        rel = relative_pose(pose, pose)
        assert np.max(np.abs(rel.R - np.eye(3))) < 1e-12
        assert np.max(np.abs(rel.t)) < 1e-12

    def test_relative_pose_of_pure_translation(self):
        # Camera B sits 1 unit to the right of A, so a point fixed in the
        # world moves 1 unit to the left in B's frame.
        pose_a = PoseSE3.identity()
        pose_b = PoseSE3(np.eye(3), np.array([1.0, 0.0, 0.0]))
        rel = relative_pose(pose_a, pose_b)
        assert np.array_equal(rel.R, np.eye(3))
        assert np.allclose(rel.t, [-1.0, 0.0, 0.0])

    def test_relative_pose_maps_a_frame_to_b_frame(self):
        rng = np.random.default_rng(5)
        pose_a, pose_b = random_pose(rng), random_pose(rng)
        rel = relative_pose(pose_a, pose_b)
        for _ in range(10):
            p_a = rng.normal(size=3)
            direct = pose_b.inverse().transform(pose_a.transform(p_a))
            assert np.max(np.abs(rel.transform(p_a) - direct)) < 1e-9


class TestDepthMap:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            DepthMap(np.zeros((2, 2, 2)))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[-1.0]]))
        with pytest.raises(ValueError):
            DepthMap(np.array([[np.inf]]))

    def test_zero_marks_invalid(self):
        d = DepthMap(np.array([[0.0, 2.0]]))
        assert not d.valid_mask[0, 0]
        assert d.valid_mask[0, 1]
        assert d.data[0, 1] == 2.0

    def test_float32_raster_is_copied_once(self):
        # The float64 data is one copy of the raster, taken in one step.
        raster = np.random.default_rng(3).uniform(1.0, 4.0, size=(480, 640)).astype(np.float32)
        one_copy = raster.size * 8
        tracemalloc.start()
        try:
            d = DepthMap(raster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.data.dtype == np.float64 and not d.data.flags.writeable
        assert not np.shares_memory(d.data, raster) and np.array_equal(d.data, raster)
        assert peak < 1.25 * one_copy


class TestReproject:
    def test_identity_pose_returns_same_pixel(self, k100):
        u, v, depth = carry(100.0, 50.0, 2.0, k100, PoseSE3.identity())
        assert np.allclose([u, v], [100.0, 50.0])
        assert abs(depth - 2.0) < 1e-12

    def test_stereo_disparity_is_focal_times_baseline_over_depth(self, k100):
        # A point at depth 2 seen from a camera shifted 0.25 right appears
        # fx * b / z = 100 * 0.25 / 2 = 12.5 pixels to the left.
        pose_a = PoseSE3.identity()
        pose_b = PoseSE3(np.eye(3), np.array([0.25, 0.0, 0.0]))
        u, v, depth = carry(320.0, 240.0, 2.0, k100, relative_pose(pose_a, pose_b))
        assert np.allclose([u, v], [307.5, 240.0])
        assert abs(depth - 2.0) < 1e-12

    def test_point_behind_destination_camera_returns_none(self, k100):
        # Destination camera faces the opposite way (180 degree yaw), so a
        # point in front of A is behind B, where the classifier stops.
        r = np.diag([-1.0, 1.0, -1.0])
        t_ba = PoseSE3(r, np.zeros(3))
        assert carry(320.0, 240.0, 2.0, k100, t_ba)[2] == -2.0
        depth = DepthMap(np.full((480, 640), 2.0))
        cls, _ = classify_points(np.array([320.0]), np.array([240.0]), np.array([2.0]),
                                 depth, k100, k100, t_ba)
        assert cls[0] == PixelClass.BEHIND_CAMERA
