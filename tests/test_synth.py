"""Analytic ray-cast rendering, exact ground-truth classes, and the
matched synthetic feature grids."""

import math

import numpy as np
import pytest

from occmatch.geometry import CameraIntrinsics, PoseSE3, relative_pose
from occmatch.supervision import PixelClass, classify_points
from occmatch.synth import (
    FIXTURE_NAMES,
    Box,
    Plane,
    SceneSpec,
    analytic_classes,
    analytic_stats,
    first_hit,
    make_fixture,
    make_pair,
    occluded_by_scene,
    render_depth,
)

IDENTITY = PoseSE3.identity()


def stats_b(fx, pair) -> tuple[float, float]:
    """Occlusion ratio and overlap of view B towards A, from the oracle."""
    classes_b, _, _ = analytic_classes(fx.scene, pair.depth_b, fx.pose_b, fx.pose_a, fx.k, fx.k)
    return analytic_stats(classes_b)


def ray_plane(plane: Plane, origin, d) -> float:
    n = np.asarray(plane.normal, dtype=np.float64)
    p0 = np.asarray(plane.point, dtype=np.float64)
    dn = float(np.dot(d, n))
    if dn == 0.0:
        return math.inf
    t = float(np.dot(p0 - origin, n)) / dn
    return t if t > 1e-9 else math.inf


def ray_box(box: Box, origin, d) -> float:
    t_lo, t_hi = -math.inf, math.inf
    for ax in range(3):
        o, dd = origin[ax], d[ax]
        lo, hi = box.box_min[ax], box.box_max[ax]
        if dd == 0.0:
            if not lo <= o <= hi:
                return math.inf
            continue
        a, b = (lo - o) / dd, (hi - o) / dd
        t_lo, t_hi = max(t_lo, min(a, b)), min(t_hi, max(a, b))
    if t_hi < t_lo:
        return math.inf
    if t_lo > 1e-9:
        return t_lo
    return t_hi if t_hi > 1e-9 else math.inf


def oracle_depth(scene: SceneSpec, k: CameraIntrinsics) -> np.ndarray:
    """Per-pixel nearest-hit depth from scalar ray casting (identity pose)."""
    out = np.zeros((k.height, k.width))
    for v in range(k.height):
        for u in range(k.width):
            d = np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0])
            best = math.inf
            for prim in scene.primitives:
                t = (
                    ray_plane(prim, np.zeros(3), d)
                    if isinstance(prim, Plane)
                    else ray_box(prim, np.zeros(3), d)
                )
                best = min(best, t)
            out[v, u] = 0.0 if math.isinf(best) else best
    return out


class TestRenderDepth:
    def test_fronto_parallel_plane_has_constant_depth(self):
        k = make_fixture("identity").k
        scene = SceneSpec((Plane((0.0, 0.0, 2.0), (0.0, 0.0, 1.0)),))
        depth = render_depth(scene, IDENTITY, k)
        assert np.all(depth.data == 2.0)

    def test_matches_scalar_ray_oracle_on_box_over_plane(self):
        k = CameraIntrinsics(20.0, 20.0, 7.5, 5.5, 16, 12)
        scene = SceneSpec(
            (
                Plane((0.0, 0.0, 3.0), (0.0, 0.0, 1.0)),
                Box((-0.4, -0.3, 1.5), (0.2, 0.25, 1.9)),
            )
        )
        depth = render_depth(scene, IDENTITY, k)
        want = oracle_depth(scene, k)
        assert np.max(np.abs(depth.data - want)) < 1e-12

    def test_plane_behind_camera_is_never_hit(self):
        k = CameraIntrinsics(20.0, 20.0, 7.5, 5.5, 16, 12)
        scene = SceneSpec((Plane((0.0, 0.0, -2.0), (0.0, 0.0, 1.0)),))
        depth = render_depth(scene, IDENTITY, k)
        assert np.all(depth.data == 0.0)

    def test_first_hit_reports_nearest_primitive(self):
        scene = SceneSpec(
            (
                Plane((0.0, 0.0, 3.0), (0.0, 0.0, 1.0)),
                Plane((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
            )
        )
        s, idx = first_hit(scene, np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        assert s[0] == 1.0
        assert idx[0] == 1


class TestOccludedByScene:
    def test_point_behind_box_is_blocked(self):
        scene = SceneSpec((Box((-0.5, -0.5, 1.0), (0.5, 0.5, 1.1)),))
        blocked = occluded_by_scene(scene, np.zeros(3), np.array([[0.0, 0.0, 3.0]]))
        assert blocked[0]

    def test_point_beside_box_is_clear(self):
        scene = SceneSpec((Box((-0.5, -0.5, 1.0), (0.5, 0.5, 1.1)),))
        blocked = occluded_by_scene(scene, np.zeros(3), np.array([[2.0, 0.0, 3.0]]))
        assert not blocked[0]

    def test_surface_point_does_not_block_itself(self):
        scene = SceneSpec((Plane((0.0, 0.0, 2.0), (0.0, 0.0, 1.0)),))
        on_surface = np.array([[0.3, -0.2, 2.0]])
        blocked = occluded_by_scene(scene, np.zeros(3), on_surface)
        assert not blocked[0]


class TestAnalyticClasses:
    def test_exact_fixtures_agree_with_reprojection_classifier(self, pair_cache):
        # These four fixtures have integer disparities everywhere, so the
        # independent depth-reprojection classifier must agree pixel for
        # pixel with the ray-cast classes.
        for name in ("identity", "rotation", "stereo", "two_plane"):
            fx, pair = pair_cache(name)
            t_ba = relative_pose(fx.pose_a, fx.pose_b)
            h, w = pair.depth_a.data.shape
            vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
            cls, _, _ = classify_points(
                uu, vv, pair.depth_a.data, pair.depth_b, fx.k, fx.k, t_ba
            )
            assert np.array_equal(cls.reshape(h, w), pair.classes_a), name

    def test_rolled_fixture_agrees_away_from_boundaries(self, pair_cache):
        # Bilinear depth lookups straddle object edges under the 30 degree
        # roll; agreement is only required on 99% of pixels.
        fx, pair = pair_cache("box_roll30")
        t_ba = relative_pose(fx.pose_a, fx.pose_b)
        h, w = pair.depth_a.data.shape
        vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
        cls, _, _ = classify_points(
            uu, vv, pair.depth_a.data, pair.depth_b, fx.k, fx.k, t_ba
        )
        assert np.mean(cls.reshape(h, w) == pair.classes_a) > 0.99

    def test_identity_fixture_is_fully_covisible(self, pair_cache):
        fx, pair = pair_cache("identity")
        assert pair.stats_a == (0.0, 1.0)
        assert stats_b(fx, pair) == (0.0, 1.0)

    def test_occlusion_band_fractions_are_exact(self, pair_cache):
        # The 0.25 m baseline hides a 16-column band behind the two-plane
        # occluder and pushes 16 columns out of frame: ratio 16/192, overlap
        # 176/192, identically on both sides by symmetry.
        fx, pair = pair_cache("two_plane")
        assert pair.stats_a == (16.0 / 192.0, 176.0 / 192.0)
        assert stats_b(fx, pair) == (16.0 / 192.0, 176.0 / 192.0)

    def test_stereo_fixture_statistics_are_exact(self, pair_cache):
        # View A: 16 slab columns leave the frame, nothing is occluded.
        # View B: 8 backdrop columns hide behind the slab, 8 leave the frame.
        fx, pair = pair_cache("stereo")
        assert pair.stats_a == (0.0, 176.0 / 192.0)
        assert stats_b(fx, pair) == (8.0 / 192.0, 184.0 / 192.0)

    def test_stats_count_over_all_pixels(self):
        classes = np.array([[0, 0, 1], [2, 3, 4]], dtype=np.int8)
        ratio, overlap = analytic_stats(classes)
        assert ratio == 1.0 / 6.0
        assert overlap == 3.0 / 6.0


class TestReprojectionConsistency:
    def test_stereo_covisible_pixels_land_on_integer_columns(self, pair_cache):
        # Slab depth 2 gives disparity 16, backdrop depth 4 gives 8; both
        # integers, so reprojection is exact and B's depth matches the
        # surface the point lies on.
        fx, pair = pair_cache("stereo")
        covis = pair.classes_a == PixelClass.COVISIBLE
        _, uv, _ = analytic_classes(fx.scene, pair.depth_a, fx.pose_a, fx.pose_b, fx.k, fx.k)
        vs, us = np.nonzero(covis)
        for v, u in zip(vs[::997], us[::997]):
            z = pair.depth_a.at(u, v)
            disparity = 16.0 if abs(z - 2.0) < 1e-9 else 8.0
            assert abs(uv[v, u, 0] - (u - disparity)) < 1e-9
            assert abs(uv[v, u, 1] - v) < 1e-9
            assert abs(pair.depth_b.at(int(round(uv[v, u, 0])), v) - z) < 1e-9


class TestFixtures:
    def test_all_names_build(self):
        assert FIXTURE_NAMES == ("identity", "rotation", "stereo", "two_plane", "box_roll30")
        for name in FIXTURE_NAMES:
            fx = make_fixture(name)
            assert fx.name == name
            assert fx.k.width == 192

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_fixture("nope")

    def test_focal_length_scales_with_width(self):
        assert make_fixture("identity", width=384, height=288).k.fx == 256.0
        assert make_fixture("identity").k.fx == 128.0

    def test_principal_point_is_image_center(self):
        k = make_fixture("identity", width=640, height=480).k
        assert (k.cx, k.cy) == (319.5, 239.5)


class TestFeatureGrids:
    def test_grids_carry_their_strides(self, pair_cache):
        _, pair = pair_cache("stereo")
        assert pair.coarse_a.stride == 8
        assert pair.fine_a.stride == 2
        assert pair.coarse_a.values.shape == (128, 18, 24)

    def test_corresponding_cells_carry_identical_features(self, pair_cache):
        # Coarse cell centers on the slab shift by exactly two cells between
        # the views; both views sample the same world point, hence the same
        # deterministic descriptor.
        _, pair = pair_cache("stereo")
        fa, fb = pair.coarse_a.values, pair.coarse_b.values
        for r in (5, 9, 13):
            for c in (4, 8, 12):
                cos = float(fa[:, r, c] @ fb[:, r, c - 2])
                assert cos > 0.99

    def test_mismatched_cells_stay_uncorrelated(self, pair_cache):
        _, pair = pair_cache("stereo")
        fa, fb = pair.coarse_a.values, pair.coarse_b.values
        for r, c, dr, dc in ((5, 4, 3, 6), (9, 8, -4, 5), (13, 12, 2, -7)):
            cos = abs(float(fa[:, r, c] @ fb[:, r + dr, c + dc]))
            assert cos < 0.5

    def test_features_are_unit_norm(self, pair_cache):
        _, pair = pair_cache("two_plane")
        norms = np.linalg.norm(pair.coarse_a.values, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_pair_construction_is_deterministic(self):
        fx = make_fixture("two_plane", width=96, height=72)
        p1 = make_pair(fx.scene, fx.pose_a, fx.pose_b, fx.k)
        p2 = make_pair(fx.scene, fx.pose_a, fx.pose_b, fx.k)
        assert np.array_equal(p1.coarse_a.values, p2.coarse_a.values)
        assert np.array_equal(p1.fine_b.values, p2.fine_b.values)
        assert np.array_equal(p1.classes_a, p2.classes_a)
