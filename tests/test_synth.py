"""Analytic ray-cast rendering, exact ground-truth classes, and the
matched synthetic feature grids."""

import math
import tracemalloc

import numpy as np
import pytest

from occmatch import synth
from occmatch.geometry import (
    CameraIntrinsics, PoseSE3, patch_grid, project_points, relative_pose, unproject_points,
)
from occmatch.matching import FeatureGrid
from occmatch.supervision import PairStats, PixelClass, classify_points
from occmatch.synth import (
    _BLOCK_CELLS,
    FIXTURE_NAMES,
    Box,
    Plane,
    SceneSpec,
    _box_bounds,
    _box_hits,
    _cast_pixels,
    _feature_grid,
    _grid_centers,
    _plane_hits,
    _reaching_rays,
    _texture_signs,
    analytic_classes,
    first_hit,
    make_fixture,
    make_pair,
    occluded_by_scene,
    render_depth,
)

IDENTITY = PoseSE3.identity()


def stats(classes: np.ndarray) -> tuple[float, float]:
    """Occlusion ratio and overlap of a class map, as the manifest states them."""
    s = PairStats.from_classes(classes)
    return s.occlusion_ratio, s.overlap_score


def stats_b(fx, pair) -> tuple[float, float]:
    """Occlusion ratio and overlap of view B towards A, from the oracle."""
    return stats(analytic_classes(fx.scene, pair.depth_b, fx.pose_b, fx.pose_a, fx.k, fx.k))


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


def unculled_first_hit(scene: SceneSpec, origin, dirs) -> tuple[np.ndarray, np.ndarray]:
    """Every ray against every primitive, the same update as `first_hit`."""
    best = np.full(dirs.shape[0], np.inf)
    idx = np.full(dirs.shape[0], -1, dtype=np.intp)
    for i, prim in enumerate(scene.primitives):
        hits = _plane_hits if isinstance(prim, Plane) else _box_hits
        s = hits(prim, origin, dirs)
        closer = s < best
        best = np.where(closer, s, best)
        idx = np.where(closer, i, idx)
    return best, idx


def random_scene(rng, n_boxes: int, n_planes: int) -> SceneSpec:
    """Boxes all around the origin (in front, behind, beside), some planes."""
    prims = []
    for _ in range(n_boxes):
        center = rng.uniform(-4.0, 4.0, 3)
        half = rng.uniform(0.02, 1.0, 3)
        prims.append(Box(tuple(center - half), tuple(center + half)))
    for _ in range(n_planes):
        normal = np.eye(3)[rng.integers(3)] if rng.random() < 0.5 else rng.normal(size=3)
        prims.append(Plane(tuple(rng.uniform(-4.0, 4.0, 3)), tuple(normal)))
    rng.shuffle(prims)
    return SceneSpec(tuple(prims))


def grazing_targets(rng, boxes) -> np.ndarray:
    """Box corners, points along box edges and points on box faces."""
    pts = []
    for b in boxes:
        lo, hi = np.asarray(b.box_min), np.asarray(b.box_max)
        corners = np.array([[(lo, hi)[(c >> ax) & 1][ax] for ax in range(3)] for c in range(8)])
        pts.append(corners)
        for ax in range(3):  # along the four edges parallel to this axis
            edge = corners[(corners[:, ax] == lo[ax])].repeat(3, axis=0)
            edge[:, ax] = rng.uniform(lo[ax], hi[ax], edge.shape[0])
            pts.append(edge)
        face, ax = rng.uniform(lo, hi, (6, 3)), np.arange(6) % 3
        face[np.arange(6), ax] = np.where(np.arange(6) < 3, lo[ax], hi[ax])
        pts.append(face)
    return np.concatenate(pts)


def ray_bundle(rng, origin, boxes) -> np.ndarray:
    """Random rays plus rays grazing box corners, edges and faces, each
    also nudged by a few ulps and in un-normalised and normalised form,
    and rays with zero components."""
    targets = grazing_targets(rng, boxes) if boxes else np.zeros((0, 3))
    exact = targets - origin
    nudged = np.nextafter(exact, np.where(rng.random(exact.shape) < 0.5, -np.inf, np.inf))
    norm = np.linalg.norm(exact, axis=1, keepdims=True)
    unit = exact / np.where(norm > 0, norm, 1.0)
    rays = [rng.normal(size=(400, 3)), exact, nudged, unit, 3.7 * unit]
    zeroed = rng.normal(size=(120, 3))
    zeroed[np.arange(120), np.arange(120) % 3] = 0.0
    zeroed[80:, (np.arange(40) + 1) % 3] = 0.0
    flat = np.concatenate([exact, unit])
    flat[np.arange(len(flat)), rng.integers(0, 3, len(flat))] = 0.0
    rays += [zeroed, flat, np.eye(3), -np.eye(3)]
    return np.concatenate(rays)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # denormal components
class TestFirstHitCulling:
    """`first_hit` skips rays that cannot reach a box; its results must be
    bit for bit those of testing every ray against every primitive."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_scenes_match_the_unculled_cast(self, seed):
        rng = np.random.default_rng([7, seed])
        n_boxes = [1, 2, 5, 13, 40, 80][seed % 6]
        scene = random_scene(rng, n_boxes, n_planes=seed % 3)
        boxes = [p for p in scene.primitives if isinstance(p, Box)]
        inside = boxes[0]
        on_face = np.asarray(boxes[1 % len(boxes)].box_min, dtype=np.float64).copy()
        on_face[1:] += 0.5 * (np.asarray(boxes[1 % len(boxes)].box_max)[1:] - on_face[1:])
        origins = [
            rng.uniform(-5.0, 5.0, 3),
            0.5 * (np.asarray(inside.box_min) + np.asarray(inside.box_max)),  # inside a box
            on_face,  # exactly on a box face
            np.asarray(inside.box_max, dtype=np.float64),  # exactly on a box corner
        ]
        for origin in origins:
            dirs = ray_bundle(rng, origin, boxes)
            want_s, want_idx = unculled_first_hit(scene, origin, dirs)
            s, idx = first_hit(scene, origin, dirs)
            assert np.array_equal(s, want_s)
            assert np.array_equal(idx, want_idx)
            assert np.isfinite(want_s).any()

    def test_unbounded_boxes_match_the_unculled_cast(self):
        # Scene files may give a box infinite extents: slabs and half-spaces.
        rng = np.random.default_rng(3)
        inf = math.inf
        boxes = [Box((-inf, -1.0, 1.0), (inf, 1.0, inf)), Box((-inf, -inf, 2.0), (inf, inf, 2.5)),
                 Box((0.5, -inf, -inf), (inf, inf, -1.0)), Box((-2.0, 0.3, -inf), (-1.0, inf, inf))]
        scene = SceneSpec(tuple(boxes))
        for origin in (np.zeros(3), np.array([0.7, -0.4, -3.0]), np.array([3.0, 2.0, 5.0])):
            dirs = np.concatenate([rng.normal(size=(2000, 3)), ray_bundle(rng, origin, [])])
            want_s, want_idx = unculled_first_hit(scene, origin, dirs)
            s, idx = first_hit(scene, origin, dirs)
            assert np.array_equal(s, want_s) and np.array_equal(idx, want_idx)
            assert np.isfinite(want_s).any()

    def test_segment_rays_match_the_unculled_cast(self):
        # occluded_by_scene passes un-normalised rays viewpoint -> target.
        rng = np.random.default_rng(11)
        scene = random_scene(rng, 30, n_planes=1)
        boxes = [p for p in scene.primitives if isinstance(p, Box)]
        viewpoint = np.array([0.25, -0.1, -6.0])
        targets = np.concatenate([grazing_targets(rng, boxes), rng.uniform(-5.0, 5.0, (500, 3))])
        dirs = targets - viewpoint
        want_s, want_idx = unculled_first_hit(scene, viewpoint, dirs)
        s, idx = first_hit(scene, viewpoint, dirs)
        assert np.array_equal(s, want_s) and np.array_equal(idx, want_idx)
        want = (want_idx >= 0) & (want_s < 1.0 - 1e-6)
        assert np.array_equal(occluded_by_scene(scene, viewpoint, targets), want)

    def test_rendered_clutter_matches_the_unculled_cast(self):
        rng = np.random.default_rng(5)
        scene = random_scene(rng, 64, n_planes=1)
        k = CameraIntrinsics(40.0, 40.0, 31.5, 23.5, 64, 48)
        vv, uu = np.mgrid[0:48, 0:64].astype(np.float64)
        dirs = np.column_stack([(uu.ravel() - k.cx) / k.fx, (vv.ravel() - k.cy) / k.fy,
                                np.ones(uu.size)])
        origin = np.array([0.0, 0.0, -6.0])
        want_s, want_idx = unculled_first_hit(scene, origin, dirs)
        s, idx = first_hit(scene, origin, dirs)
        assert np.array_equal(s, want_s) and np.array_equal(idx, want_idx)

    @pytest.mark.parametrize("roll", [-30.0, 0.0, 30.0])
    def test_every_cast_of_a_clutter_pair_matches_the_unculled_cast(self, monkeypatch, roll):
        # make_pair casts from both camera centres over the pixel raster and
        # the stride-8 and stride-2 cell centres, and from B's centre along
        # the class map's segments: seven casts, each checked here.
        scene, pose_a, pose_b, k = clutter_pair(roll)
        casts = []

        def recording_first_hit(scene, origin, dirs):
            result = first_hit(scene, origin, dirs)
            casts.append((origin, dirs, result))
            return result

        monkeypatch.setattr(synth, "first_hit", recording_first_hit)
        make_pair(scene, pose_a, pose_b, k)
        assert [d.shape[0] for _, d, _ in casts][:2] == [320 * 240] * 2
        assert [d.shape[0] for _, d, _ in casts][3:] == [40 * 30] * 2 + [160 * 120] * 2
        for origin, dirs, (s, idx) in casts:
            want_s, want_idx = unculled_first_hit(scene, origin, dirs)
            assert np.array_equal(s, want_s) and np.array_equal(idx, want_idx)
            assert (idx >= 1).mean() > 0.2  # the boxes are hit, not just the plane

    def test_rays_on_a_padded_strip_bound_are_candidates(self):
        # Rays whose first ratio equals a box's padded r_min or r_max, several
        # of them tied, must be in the box's candidate set; one ulp outside
        # must not. A `searchsorted` side off by one drops the ties.
        box = Box((0.2, -0.3, 2.0), (0.6, 0.1, 2.5))
        origin = np.zeros(3)
        axis, side, r_min, r_max = _box_bounds(
            np.array([box.box_min]), np.array([box.box_max]), origin)
        assert (axis[0], side[0]) == (2, 1.0)
        lo, hi = r_min[0], r_max[0]

        def ratio_values(a, b):  # both bounds, one ulp outside each, the middle
            return [a, b, np.nextafter(a, -np.inf), np.nextafter(b, np.inf), 0.5 * (a + b)]

        grid = np.array([(x, y, 1.0) for x in ratio_values(lo[0], hi[0])
                         for y in ratio_values(lo[1], hi[1])] * 3)
        rng = np.random.default_rng(2)
        dirs = np.concatenate([grid, rng.normal(size=(300, 3)), -grid])
        ratios = dirs[:, :2] / dirs[:, 2:]
        want = np.flatnonzero((dirs[:, 2] > 0) & np.all((ratios >= lo) & (ratios <= hi), axis=1))
        assert np.isin(np.arange(3 * 25), want).sum() == 3 * 9  # bounds and middles, tied three times
        (got,) = _reaching_rays([box], origin, dirs)
        assert np.array_equal(np.sort(got), want)
        want_s, want_idx = unculled_first_hit(SceneSpec((box,)), origin, dirs)
        s, idx = first_hit(SceneSpec((box,)), origin, dirs)
        assert np.array_equal(s, want_s) and np.array_equal(idx, want_idx)


def clutter_pair(roll: float, seed: int = 0):
    """The benchmark's clutter geometry: a plane at 4 m and 64 seeded boxes
    at 1.2-3.5 m in the field of view of a 320x240 camera, view B 0.25 m to
    the right and rolled by `roll` degrees."""
    rng = np.random.default_rng([23, seed])
    prims = [Plane((0.0, 0.0, 4.0), (0.0, 0.0, 1.0), texture=0)]
    for _ in range(64):
        z = rng.uniform(1.2, 3.5)
        x, y = rng.uniform(-0.7, 0.7) * z, rng.uniform(-0.5, 0.5) * z
        hw, hh = rng.uniform(0.03, 0.12, 2) * z
        dz = rng.uniform(0.02, 0.2)
        prims.append(Box((x - hw, y - hh, z), (x + hw, y + hh, z + dz), texture=int(rng.integers(1, 4))))
    f = 128.0 * 320 / 192.0
    k = CameraIntrinsics(f, f, 159.5, 119.5, 320, 240)
    c, s = math.cos(math.radians(roll)), math.sin(math.radians(roll))
    pose_b = PoseSE3(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), np.array([0.25, 0.0, 0.0]))
    return SceneSpec(tuple(prims)), IDENTITY, pose_b, k


class TestMakePairCulling:
    """`make_pair` built on the unculled cast writes the same bytes."""

    @pytest.mark.parametrize("name", ["box_roll30", "clutter"])
    def test_outputs_equal_the_unculled_build(self, monkeypatch, name):
        if name == "clutter":
            scene, pose_a, pose_b, k = clutter_pair(30.0, seed=1)
        else:
            fx = make_fixture(name)
            scene, pose_a, pose_b, k = fx.scene, fx.pose_a, fx.pose_b, fx.k
        culled = make_pair(scene, pose_a, pose_b, k)
        monkeypatch.setattr(synth, "first_hit", unculled_first_hit)
        unculled = make_pair(scene, pose_a, pose_b, k)
        for got, want in [(culled.depth_a.data, unculled.depth_a.data),
                          (culled.depth_b.data, unculled.depth_b.data),
                          (culled.classes_a, unculled.classes_a),
                          *[(getattr(culled, g).values, getattr(unculled, g).values)
                            for g in ("coarse_a", "coarse_b", "fine_a", "fine_b")]]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
            cls, _ = classify_points(
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
        cls, _ = classify_points(
            uu, vv, pair.depth_a.data, pair.depth_b, fx.k, fx.k, t_ba
        )
        assert np.mean(cls.reshape(h, w) == pair.classes_a) > 0.99

    def test_identity_fixture_is_fully_covisible(self, pair_cache):
        fx, pair = pair_cache("identity")
        assert stats(pair.classes_a) == (0.0, 1.0)
        assert stats_b(fx, pair) == (0.0, 1.0)

    def test_occlusion_band_fractions_are_exact(self, pair_cache):
        # The 0.25 m baseline hides a 16-column band behind the two-plane
        # occluder and pushes 16 columns out of frame: ratio 16/192, overlap
        # 176/192, identically on both sides by symmetry.
        fx, pair = pair_cache("two_plane")
        assert stats(pair.classes_a) == (16.0 / 192.0, 176.0 / 192.0)
        assert stats_b(fx, pair) == (16.0 / 192.0, 176.0 / 192.0)

    def test_stereo_fixture_statistics_are_exact(self, pair_cache):
        # View A: 16 slab columns leave the frame, nothing is occluded.
        # View B: 8 backdrop columns hide behind the slab, 8 leave the frame.
        fx, pair = pair_cache("stereo")
        assert stats(pair.classes_a) == (0.0, 176.0 / 192.0)
        assert stats_b(fx, pair) == (8.0 / 192.0, 184.0 / 192.0)

    def test_stats_count_over_all_pixels(self):
        classes = np.array([[0, 0, 1], [2, 3, 4]], dtype=np.int8)
        ratio, overlap = stats(classes)
        assert ratio == 1.0 / 6.0
        assert overlap == 3.0 / 6.0


class TestReprojectionConsistency:
    def test_stereo_covisible_pixels_land_on_integer_columns(self, pair_cache):
        # Slab depth 2 gives disparity 16, backdrop depth 4 gives 8; both
        # integers, so reprojection is exact and B's depth matches the
        # surface the point lies on.
        fx, pair = pair_cache("stereo")
        covis = pair.classes_a == PixelClass.COVISIBLE
        vs, us = np.nonzero(covis)
        vs, us = vs[::997], us[::997]
        zs = pair.depth_a.data[vs, us]
        world = fx.pose_a.transform(unproject_points(us.astype(float), vs.astype(float), zs, fx.k))
        ub, vb = project_points(fx.pose_b.inverse().transform(world), fx.k)
        for v, u, z, u_b, v_b in zip(vs, us, zs, ub, vb):
            disparity = 16.0 if abs(z - 2.0) < 1e-9 else 8.0
            assert abs(u_b - (u - disparity)) < 1e-9
            assert abs(v_b - v) < 1e-9
            assert abs(pair.depth_b.data[v, int(round(u_b))] - z) < 1e-9


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
        for grid in (pair.coarse_a, pair.coarse_b, pair.fine_a, pair.fine_b):
            # The grids hold the stored float32 values: unit to float32 rounding.
            norms = np.linalg.norm(grid.values, axis=0)
            assert np.max(np.abs(norms - 1.0)) < 1e-6

    @pytest.mark.parametrize("scene, least_phase", [
        (make_fixture("two_plane").scene, 10.0),
        # A plane 600 m ahead: phases reach ~1e4 rad, so the float64
        # range reduction before the float32 cos/sin is what keeps them.
        (SceneSpec((Plane((0.0, 0.0, 600.0), (0.0, 0.0, 1.0), texture=3),
                    Box((-0.5, -0.5, 1.0), (0.5, 0.5, 1.1), texture=1))), 5e3),
    ], ids=["two_plane", "far_plane"])
    def test_float32_trig_matches_a_float64_encoding(self, scene, least_phase):
        fx = make_fixture("two_plane")
        rng = np.random.default_rng(3)
        omegas = rng.normal(size=(64, 3)) / 0.0625
        grid = _feature_grid(scene, fx.pose_b, fx.k, 8, omegas, fallback_seed=0)
        u, v, _ = _grid_centers(fx.k, 8)
        prim, world = _cast_pixels(scene, fx.pose_b, fx.k, u, v)
        assert np.all(prim >= 0)
        phase = world @ omegas.T
        assert np.abs(phase).max() > least_phase
        textures = np.array([p.texture for p in scene.primitives])[prim]
        signs = np.stack([_texture_signs(int(t), 64) for t in textures]).astype(np.float64)
        ref = np.concatenate([signs * np.cos(phase), signs * np.sin(phase)], axis=1).T / 8.0
        assert np.max(np.abs(grid.values.reshape(128, -1) - ref)) < 1e-6

    def test_missed_cells_get_unit_random_features(self):
        fx = make_fixture("two_plane")
        scene = SceneSpec((Box((-0.5, -0.5, 1.0), (0.5, 0.5, 1.1)),))
        omegas = np.random.default_rng(3).normal(size=(64, 3))
        grid = _feature_grid(scene, fx.pose_a, fx.k, 8, omegas, fallback_seed=0)
        u, v, _ = _grid_centers(fx.k, 8)
        prim, _ = _cast_pixels(scene, fx.pose_a, fx.k, u, v)
        values = grid.values.reshape(128, -1)
        assert 0 < np.count_nonzero(prim < 0) < prim.size
        assert np.max(np.abs(np.linalg.norm(values, axis=0) - 1.0)) < 1e-6
        missed = values[:, prim < 0]
        assert np.abs(missed.T @ missed - np.eye(missed.shape[1])).max() < 0.6

    def test_pair_construction_is_deterministic(self):
        fx = make_fixture("two_plane", width=96, height=72)
        p1 = make_pair(fx.scene, fx.pose_a, fx.pose_b, fx.k)
        p2 = make_pair(fx.scene, fx.pose_a, fx.pose_b, fx.k)
        assert np.array_equal(p1.coarse_a.values, p2.coarse_a.values)
        assert np.array_equal(p1.fine_b.values, p2.fine_b.values)
        assert np.array_equal(p1.classes_a, p2.classes_a)


def whole_array_feature_grid(scene, pose, k, stride, omegas, fallback_seed):
    """`_feature_grid` as one pass over all cells, with full-size float64
    work arrays: the reference the blocked encoder must match byte for byte."""
    u, v, (rows, cols) = _grid_centers(k, stride)
    prim, world = _cast_pixels(scene, pose, k, u, v)
    m = omegas.shape[0]
    n = u.size
    feats = np.empty((2 * m, n))
    turns = np.matmul(omegas / (2.0 * math.pi), np.ascontiguousarray(world.T), out=feats[m:])
    turns -= np.rint(turns, out=feats[:m])
    angle = np.empty((m, n), dtype=np.float32)
    np.multiply(turns, 2.0 * math.pi, out=angle, casting="same_kind")
    textures, prim_texture = np.unique([p.texture for p in scene.primitives], return_inverse=True)
    table = np.stack([_texture_signs(int(tex), m) for tex in textures], axis=1)
    signs = np.take(table, prim_texture[prim], axis=1)
    np.multiply(np.cos(angle), signs, out=feats[:m])
    np.multiply(np.sin(angle, out=angle), signs, out=feats[m:])
    miss = prim < 0
    if miss.any():
        rng = np.random.default_rng([131, fallback_seed])
        feats[:, miss] = rng.normal(size=(2 * m, int(miss.sum())))
    unit = np.divide(feats, np.sqrt(np.einsum("ij,ij->j", feats, feats)),
                     out=np.empty((2 * m, n), dtype=np.float32), casting="same_kind")
    return FeatureGrid(unit.reshape(2 * m, rows, cols), stride=stride)


class TestBlockedFeatureGrid:
    """`_feature_grid` encodes `_BLOCK_CELLS` cells at a time into the same
    bytes as the whole-array encoding."""

    OMEGAS = np.random.default_rng(3).normal(size=(64, 3)) / 0.05
    BOXES = SceneSpec((Box((-0.5, -0.5, 1.0), (0.5, 0.5, 1.1), texture=2),
                       Box((0.6, -0.2, 1.5), (0.9, 0.3, 1.8), texture=1)))

    def assert_same_grid(self, scene, pose, k, stride, seed=0):
        got = _feature_grid(scene, pose, k, stride, self.OMEGAS, fallback_seed=seed)
        want = whole_array_feature_grid(scene, pose, k, stride, self.OMEGAS, seed)
        assert got.stride == want.stride and got.values.shape == want.values.shape
        assert got.values.dtype == want.values.dtype == np.float32
        assert got.values.tobytes() == want.values.tobytes()

    def test_many_blocks_and_a_partial_last_one(self):
        fx = make_fixture("two_plane", 320, 240)
        cells = np.prod(patch_grid(240, 320, 2))
        assert cells == 19_200 and cells > _BLOCK_CELLS and cells % _BLOCK_CELLS
        self.assert_same_grid(fx.scene, fx.pose_b, fx.k, 2)

    def test_a_grid_smaller_than_one_block(self):
        fx = make_fixture("two_plane")
        assert np.prod(patch_grid(144, 192, 8)) < _BLOCK_CELLS
        self.assert_same_grid(fx.scene, fx.pose_a, fx.k, 8)

    def test_missed_cells_in_several_blocks_take_the_same_draws(self):
        fx = make_fixture("two_plane", 320, 240)
        u, v, _ = _grid_centers(fx.k, 2)
        prim, _ = _cast_pixels(self.BOXES, fx.pose_a, fx.k, u, v)
        blocks = np.arange(prim.size) // _BLOCK_CELLS
        mixed = [b for b in np.unique(blocks) if len(np.unique(prim[blocks == b] < 0)) == 2]
        assert len(np.unique(blocks[prim < 0])) > 3 and len(mixed) > 3
        self.assert_same_grid(self.BOXES, fx.pose_a, fx.k, 2, seed=3)

    def test_peak_memory_stays_near_the_output(self):
        fx = make_fixture("two_plane", 320, 240)
        tracemalloc.start()
        try:
            grid = _feature_grid(fx.scene, fx.pose_a, fx.k, 2, self.OMEGAS, fallback_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * grid.values.nbytes
