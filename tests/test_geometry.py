"""Pinhole projection, SE(3) pose algebra, and depth-based reprojection."""

import numpy as np
import pytest

from occmatch.errors import NonPositiveDepthError
from occmatch.geometry import (
    CameraIntrinsics,
    DepthMap,
    PixelPoint,
    PoseSE3,
    project,
    project_points,
    relative_pose,
    reproject,
    unproject,
    unproject_points,
)


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


class TestProject:
    def test_optical_axis_point_lands_on_principal_point(self, k100):
        px, depth = project(np.array([0.0, 0.0, 2.0]), k100)
        assert px == PixelPoint(320.0, 240.0)
        assert depth == 2.0

    def test_unit_lateral_offset_moves_by_focal_over_depth(self, k100):
        px, depth = project(np.array([1.0, 0.0, 2.0]), k100)
        assert px == PixelPoint(370.0, 240.0)
        assert depth == 2.0

    def test_nonpositive_depth_rejected(self, k100):
        with pytest.raises(NonPositiveDepthError):
            project(np.array([0.0, 0.0, -1.0]), k100)
        with pytest.raises(NonPositiveDepthError):
            project(np.array([0.0, 0.0, 0.0]), k100)

    def test_unproject_inverts_the_worked_example(self, k100):
        p = unproject(PixelPoint(370.0, 240.0), 2.0, k100)
        assert np.allclose(p, [1.0, 0.0, 2.0])

    def test_unproject_rejects_nonpositive_depth(self, k100):
        with pytest.raises(NonPositiveDepthError):
            unproject(PixelPoint(0.0, 0.0), 0.0, k100)

    def test_project_unproject_roundtrip(self, k100):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.uniform([-3, -3, 0.5], [3, 3, 9])
            px, depth = project(p, k100)
            back = unproject(px, depth, k100)
            assert np.max(np.abs(back - p)) < 1e-9

    def test_vectorised_forms_equal_the_single_point_forms(self, k100):
        rng = np.random.default_rng(8)
        p = rng.uniform([-3, -3, 0.5], [3, 3, 9], size=(50, 3))
        u, v = project_points(p, k100)
        assert np.array_equal(np.column_stack([u, v]), [project(q, k100)[0] for q in p])
        back = unproject_points(u, v, p[:, 2], k100)
        assert np.array_equal(back, [unproject(PixelPoint(a, b), z, k100)
                                     for a, b, z in zip(u, v, p[:, 2])])


class TestIntrinsics:
    def test_k_matrix_layout(self, k100):
        assert np.array_equal(
            k100.k_matrix,
            [[100.0, 0.0, 320.0], [0.0, 100.0, 240.0], [0.0, 0.0, 1.0]],
        )

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
        assert d.at(1, 0) == 2.0


class TestReproject:
    def test_identity_pose_returns_same_pixel(self, k100):
        out = reproject(PixelPoint(100.0, 50.0), 2.0, k100, k100, PoseSE3.identity())
        assert out is not None
        px, depth = out
        assert np.allclose([px.u, px.v], [100.0, 50.0])
        assert abs(depth - 2.0) < 1e-12

    def test_stereo_disparity_is_focal_times_baseline_over_depth(self, k100):
        # A point at depth 2 seen from a camera shifted 0.25 right appears
        # fx * b / z = 100 * 0.25 / 2 = 12.5 pixels to the left.
        pose_a = PoseSE3.identity()
        pose_b = PoseSE3(np.eye(3), np.array([0.25, 0.0, 0.0]))
        out = reproject(
            PixelPoint(320.0, 240.0), 2.0, k100, k100, relative_pose(pose_a, pose_b)
        )
        assert out is not None
        px, depth = out
        assert np.allclose([px.u, px.v], [307.5, 240.0])
        assert abs(depth - 2.0) < 1e-12

    def test_point_behind_destination_camera_returns_none(self, k100):
        # Destination camera faces the opposite way (180 degree yaw), so a
        # point in front of A is behind B.
        r = np.diag([-1.0, 1.0, -1.0])
        t_ba = PoseSE3(r, np.zeros(3))
        assert reproject(PixelPoint(320.0, 240.0), 2.0, k100, k100, t_ba) is None
