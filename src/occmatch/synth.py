"""Synthetic scenes with exact geometry: depth rendering, analytic
visibility classes, and matched feature grids.

Scenes are unions of infinite planes and axis-aligned boxes, ray-cast per
pixel. Because intersections are computed in closed form, the generator
doubles as the independent oracle for the reprojection-supervision module:
its class maps come from casting the reprojected point against the *scene*,
never against a rendered depth raster.

Feature grids encode each cell's world point with a fixed bank of random
trigonometric frequencies and a per-texture sign pattern, so cells that see
the same surface point get near-identical descriptors across views while
distant points and different textures decorrelate. Each phase is reduced to
[-1/2, 1/2] turns in float64 and its cos/sin evaluated in float32, the
precision the grid files store; each cell is then scaled to unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .geometry import CameraIntrinsics, DepthMap, PoseSE3, project_points, unproject_points
from .matching import FeatureGrid, cell_center_px
from .occupancy import check_grid_size
from .supervision import PixelClass, patch_grid

_EPS_HIT = 1e-9
# Relative pad of the ray-reach bound of `_reachable`: far above rounding.
_REACH_PAD = 1e-9

# Descriptor bank constants: the fine grid's stride, each kernel's length
# scale in grid cells at the pair's median depth, and the frequency seed.
_FINE_STRIDE = 2
_COARSE_SCALE_CELLS = 0.5
_FINE_SCALE_CELLS = 1.0
_FREQ_SEED = 61


@dataclass(frozen=True)
class Plane:
    """Infinite plane through `point` with unit-insensitive `normal`."""

    point: tuple[float, float, float]
    normal: tuple[float, float, float]
    texture: int = 0


@dataclass(frozen=True)
class Box:
    """Axis-aligned box spanning [box_min, box_max] per axis."""

    box_min: tuple[float, float, float]
    box_max: tuple[float, float, float]
    texture: int = 0


Primitive = Union[Plane, Box]


@dataclass(frozen=True)
class SceneSpec:
    primitives: tuple[Primitive, ...]

    def __post_init__(self) -> None:
        if not self.primitives:
            raise ValueError("scene needs at least one primitive")
        object.__setattr__(self, "primitives", tuple(self.primitives))


def _plane_hits(p: Plane, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    n = np.asarray(p.normal, dtype=np.float64)
    denom = dirs @ n
    with np.errstate(divide="ignore", invalid="ignore"):
        s = ((np.asarray(p.point) - origin) @ n) / denom
    s = np.where(np.abs(denom) > 1e-12, s, np.inf)
    return np.where(s > _EPS_HIT, s, np.inf)


def _box_hits(b: Box, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    lo = np.full(dirs.shape[0], -np.inf)
    hi = np.full(dirs.shape[0], np.inf)
    for axis in range(3):
        d = dirs[:, axis]
        zero = d == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (b.box_min[axis] - origin[axis]) / d
            t2 = (b.box_max[axis] - origin[axis]) / d
        inside = (origin[axis] >= b.box_min[axis]) & (origin[axis] <= b.box_max[axis])
        lo_a = np.where(zero, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
        hi_a = np.where(zero, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
        lo = np.maximum(lo, lo_a)
        hi = np.minimum(hi, hi_a)
    s = np.where(lo > _EPS_HIT, lo, hi)  # fall back to the exit face if inside
    hit = (lo <= hi) & (hi > _EPS_HIT)
    return np.where(hit & (s > _EPS_HIT), s, np.inf)


def _reachable(b: Box, origin: np.ndarray, dirs: np.ndarray, cache: dict) -> Union[slice, np.ndarray]:
    """Indices of the rays that can reach box `b`, a superset of its hits;
    every ray when no axis plane through the origin separates the box.

    Along the separating axis `a` where the box is farthest, a ray hits only
    if it points to the box's side and each other component over d[a] lies
    in the range of the box corners' central projections, padded well past
    the rounding of `_box_hits`.
    """
    lo = np.asarray(b.box_min) - origin
    hi = np.asarray(b.box_max) - origin
    near = np.maximum(lo, -hi)  # > 0 exactly on the axes that separate
    a = int(np.argmax(near))
    if near[a] <= 0.0:
        return slice(None)
    side = 1.0 if lo[a] > 0.0 else -1.0
    others = [x for x in range(3) if x != a]
    if (a, side) not in cache:  # ratios of the rays pointing to that side
        rows = np.flatnonzero(side * dirs[:, a] > 0.0)
        with np.errstate(over="ignore"):
            cache[a, side] = rows, dirs[rows][:, others].T / dirs[rows, a]
    rows, ratios = cache[a, side]
    with np.errstate(invalid="ignore"):  # inf/inf of an unbounded box: its inf/near corner bounds it
        corners = np.stack([lo[others], hi[others]])[:, None] / np.array([lo[a], hi[a]])[:, None]
    r_min = np.fmin.reduce(corners.reshape(4, 2))
    r_max = np.fmax.reduce(corners.reshape(4, 2))
    r_min -= _REACH_PAD * (1.0 + np.abs(r_min))
    r_max += _REACH_PAD * (1.0 + np.abs(r_max))
    first = np.flatnonzero((ratios[0] >= r_min[0]) & (ratios[0] <= r_max[0]))
    second = ratios[1, first]  # the second axis is tested on the survivors only
    return rows[first[(second >= r_min[1]) & (second <= r_max[1])]]


def first_hit(
    scene: SceneSpec, origin: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest intersection along each ray.

    Returns (s, prim_index) with s the ray parameter (inf and -1 where
    nothing is hit). Each box is tested only against the rays that can reach
    it; the rest would read inf, so the result is the same as testing all.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    best = np.full(dirs.shape[0], np.inf)
    idx = np.full(dirs.shape[0], -1, dtype=np.intp)
    cache: dict = {}
    for i, prim in enumerate(scene.primitives):
        plane = isinstance(prim, Plane)
        rays = slice(None) if plane else _reachable(prim, origin, dirs, cache)
        s = (_plane_hits if plane else _box_hits)(prim, origin, dirs[rays])
        cur = best[rays]
        closer = s < cur
        best[rays] = np.where(closer, s, cur)
        idx[rays] = np.where(closer, i, idx[rays])
    return best, idx


def _cast_pixels(
    scene: SceneSpec, pose: PoseSE3, k: CameraIntrinsics, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ray-cast through continuous pixel coordinates.

    Returns (depth, prim_index, world_points); depth is 0 where no surface
    is hit.
    """
    # Directions with camera z = 1, so the ray parameter equals the camera depth.
    dirs = unproject_points(u, v, np.ones(u.size), k) @ pose.R.T
    s, idx = first_hit(scene, pose.t, dirs)
    hit = idx >= 0
    depth = np.where(hit, s, 0.0)
    world = pose.t + np.where(hit, s, 0.0)[:, None] * dirs
    return depth, idx, world


def render_depth(scene: SceneSpec, pose: PoseSE3, k: CameraIntrinsics) -> DepthMap:
    """Per-pixel camera depth of the nearest surface; 0 where the ray
    escapes the scene."""
    vv, uu = np.mgrid[0 : k.height, 0 : k.width].astype(np.float64)
    depth, _, _ = _cast_pixels(scene, pose, k, uu.ravel(), vv.ravel())
    return DepthMap(depth.reshape(k.height, k.width))


def occluded_by_scene(scene: SceneSpec, viewpoint: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """True where the segment viewpoint -> target hits a surface strictly
    before the target point (the point itself registers at parameter 1, so
    hits within 1e-6 of it do not count)."""
    dirs = np.asarray(targets, dtype=np.float64) - np.asarray(viewpoint, dtype=np.float64)
    s, idx = first_hit(scene, viewpoint, dirs)
    return (idx >= 0) & (s < 1.0 - 1e-6)


def analytic_classes(
    scene: SceneSpec,
    depth_src: DepthMap,
    pose_src: PoseSE3,
    pose_dst: PoseSE3,
    k_src: CameraIntrinsics,
    k_dst: CameraIntrinsics,
) -> np.ndarray:
    """Exact (H, W) visibility classes of every source pixel w.r.t. the
    other view.

    Occlusion is decided by ray-casting the reprojected point against the
    scene itself, independent of any destination depth raster.
    """
    h, w = depth_src.data.shape
    vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
    u, v, d = uu.ravel(), vv.ravel(), depth_src.data.ravel()
    cls = np.full(u.size, int(PixelClass.COVISIBLE), dtype=np.int8)

    valid = np.flatnonzero(d > 0)
    cls[d <= 0] = PixelClass.INVALID_DEPTH
    if valid.size:
        world = pose_src.transform(unproject_points(u[valid], v[valid], d[valid], k_src))
        p_dst = pose_dst.inverse().transform(world)
        behind = p_dst[:, 2] <= 0
        cls[valid[behind]] = PixelClass.BEHIND_CAMERA

        front = np.flatnonzero(~behind)  # positions within the valid subset
        ub, vb = project_points(p_dst[front], k_dst)
        inside = (ub >= 0) & (ub <= k_dst.width - 1) & (vb >= 0) & (vb <= k_dst.height - 1)
        cls[valid[front[~inside]]] = PixelClass.OUT_OF_BOUNDS

        vis = front[inside]
        occ = occluded_by_scene(scene, pose_dst.t, world[vis])
        cls[valid[vis[occ]]] = PixelClass.OCCLUDED_IN_OTHER

    return cls.reshape(h, w)


def analytic_stats(classes: np.ndarray) -> tuple[float, float]:
    """(occlusion_ratio, overlap_score) over all pixels of a class map."""
    total = classes.size
    occ = int(np.count_nonzero(classes == PixelClass.OCCLUDED_IN_OTHER))
    cov = int(np.count_nonzero(classes == PixelClass.COVISIBLE))
    return occ / total, (occ + cov) / total


@dataclass(frozen=True)
class FeatureParams:
    """Controls of the synthetic descriptor bank; channels must be even
    (cos/sin pairs)."""

    channels: int = 128
    coarse_stride: int = 8

    def __post_init__(self) -> None:
        if self.channels < 2 or self.channels % 2:
            raise ValueError(f"channels must be even and >= 2, got {self.channels}")
        if self.coarse_stride < 1 or self.coarse_stride % _FINE_STRIDE:
            raise ValueError(f"coarse stride must be a positive multiple of the fine stride "
                             f"{_FINE_STRIDE}, got {self.coarse_stride}")


def _texture_signs(texture: int, m: int) -> np.ndarray:
    rng = np.random.default_rng([97, texture])
    return np.where(rng.random(m) < 0.5, np.float32(-1.0), np.float32(1.0))


def _grid_centers(k: CameraIntrinsics, stride: int) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    rows, cols = patch_grid(k.height, k.width, stride)
    cells = np.arange(rows * cols)
    return cell_center_px(cells % cols, stride), cell_center_px(cells // cols, stride), (rows, cols)


def _feature_grid(
    scene: SceneSpec,
    pose: PoseSE3,
    k: CameraIntrinsics,
    stride: int,
    omegas: np.ndarray,
    fallback_seed: int,
) -> FeatureGrid:
    """Unit descriptors of each cell's world point (cos/sin of frequency
    projections, per-texture sign flips); unseen cells get decorrelated
    random unit vectors.

    Each phase is reduced to [-1/2, 1/2] turns in float64, so far points
    keep their precision, and its cos/sin run in float32, which is what
    the grid files store. Each cell is then scaled by its measured float64
    norm.
    """
    u, v, (rows, cols) = _grid_centers(k, stride)
    depth, prim, world = _cast_pixels(scene, pose, k, u, v)
    m = omegas.shape[0]
    n = u.size
    feats = np.empty((2 * m, n))

    # Every cell is encoded; a missed cell's ray reads the camera centre and
    # the last texture's signs (prim -1), and is overwritten below.
    turns = np.matmul(omegas / (2.0 * math.pi), world.T, out=feats[m:])
    turns -= np.rint(turns, out=feats[:m])
    angle = np.empty((m, n), dtype=np.float32)
    np.multiply(turns, 2.0 * math.pi, out=angle, casting="same_kind")
    textures, prim_texture = np.unique([p.texture for p in scene.primitives], return_inverse=True)
    signs = np.stack([_texture_signs(int(tex), m) for tex in textures], axis=1)[:, prim_texture[prim]]
    feats[:m] = np.cos(angle) * signs
    feats[m:] = np.sin(angle, out=angle) * signs

    miss = prim < 0
    if miss.any():
        rng = np.random.default_rng([131, fallback_seed])
        feats[:, miss] = rng.normal(size=(2 * m, int(miss.sum())))

    feats /= np.sqrt(np.einsum("ij,ij->j", feats, feats))
    return FeatureGrid(feats.reshape(2 * m, rows, cols), stride=stride)


@dataclass(frozen=True)
class SyntheticPair:
    """A rendered two-view pair: what a pair directory stores, plus the
    oracle's A->B visibility classes behind its manifest statistics."""

    depth_a: DepthMap
    depth_b: DepthMap
    classes_a: np.ndarray = field(repr=False)  # A->B visibility classes
    coarse_a: FeatureGrid = field(repr=False)
    coarse_b: FeatureGrid = field(repr=False)
    fine_a: FeatureGrid = field(repr=False)
    fine_b: FeatureGrid = field(repr=False)

    @property
    def stats_a(self) -> tuple[float, float]:
        return analytic_stats(self.classes_a)


def make_pair(
    scene: SceneSpec,
    pose_a: PoseSE3,
    pose_b: PoseSE3,
    k: CameraIntrinsics,
    params: FeatureParams = FeatureParams(),
) -> SyntheticPair:
    """Render both views and assemble depths, the A->B oracle class map,
    and matched feature grids at the coarse and fine strides.

    Sizes whose ray directions or fine feature grid would pass the
    occupancy module's array limit are refused before anything is built.
    """
    size = f"width x height {k.width}x{k.height}"
    check_grid_size((k.width * k.height, 3), size, "array of ray directions")
    check_grid_size((params.channels, *patch_grid(k.height, k.width, _FINE_STRIDE)),
                    f"channels {params.channels} at {size}", "fine feature grid")
    depth_a = render_depth(scene, pose_a, k)
    depth_b = render_depth(scene, pose_b, k)
    classes_a = analytic_classes(scene, depth_a, pose_a, pose_b, k, k)

    valid = np.concatenate([depth_a.data[depth_a.valid_mask], depth_b.data[depth_b.valid_mask]])
    med = float(np.median(valid)) if valid.size else 1.0
    m = params.channels // 2
    rng = np.random.default_rng(_FREQ_SEED)
    base_c = rng.normal(size=(m, 3))
    base_f = rng.normal(size=(m, 3))
    scale_c = _COARSE_SCALE_CELLS * params.coarse_stride * med / k.fx
    scale_f = _FINE_SCALE_CELLS * _FINE_STRIDE * med / k.fx

    roles = [
        (pose_a, params.coarse_stride, base_c, scale_c),
        (pose_b, params.coarse_stride, base_c, scale_c),
        (pose_a, _FINE_STRIDE, base_f, scale_f),
        (pose_b, _FINE_STRIDE, base_f, scale_f),
    ]
    grids = [_feature_grid(scene, pose, k, stride, base / scale, fallback_seed=role)
             for role, (pose, stride, base, scale) in enumerate(roles)]
    return SyntheticPair(depth_a, depth_b, classes_a, *grids)


def _rot_y(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(deg: float) -> np.ndarray:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Fixture:
    """A named scene + camera pair with recommended matcher settings."""

    name: str
    scene: SceneSpec
    pose_a: PoseSE3
    pose_b: PoseSE3
    k: CameraIntrinsics
    match_overrides: dict


FIXTURE_NAMES = ("identity", "rotation", "stereo", "two_plane", "box_roll30")

# Shared fixture geometry: background plane 2 m ahead, occluders 1 m ahead,
# 0.25 m baseline. At the default 192x144 / f=128 the baseline gives exactly
# 16 px (two patches) of background disparity and 32 px on the occluder.
# Every surface depth is a power-of-two multiple of the baseline, so pure-x
# translations reproject pixel centers onto pixel centers exactly.
_BG = Plane(point=(0.0, 0.0, 2.0), normal=(0.0, 0.0, 1.0), texture=0)
_BASELINE = 0.25
# Sharp softmax temperatures suit the synthetic descriptors: their matched
# inner products sit far above the sampling noise floor, and a wide fine
# window keeps the sub-pixel expectation stable under 30 degree roll.
_SHARP = {"temperature": 0.02, "fine_temperature": 0.05, "fine_window": 7}


def make_fixture(name: str, width: int = 192, height: int = 144) -> Fixture:
    """Instantiate one of the named fixtures at the requested image size.

    The focal length scales with the width so the field of view (and the
    world geometry) stays put.
    """
    f = 128.0 * width / 192.0
    k = CameraIntrinsics(f, f, (width - 1) / 2.0, (height - 1) / 2.0, width, height)
    eye = PoseSE3.identity()
    shift = PoseSE3(np.eye(3), np.array([_BASELINE, 0.0, 0.0]))

    if name == "identity":
        return Fixture(name, SceneSpec((_BG,)), eye, eye, k, dict(_SHARP))
    if name == "rotation":
        # Pure rotation: ~16 px yaw shift at the principal point, no baseline.
        yaw = math.degrees(math.atan(16.0 / 128.0))
        return Fixture(
            name, SceneSpec((_BG,)), eye, PoseSE3(_rot_y(yaw), np.zeros(3)), k, dict(_SHARP)
        )
    if name == "stereo":
        # Two depth layers (16 px and 8 px disparity). A single plane would
        # leave the essential matrix underdetermined, so the backdrop at 4 m
        # shows through to the right of the slab edge at x = 0.25.
        slab = Box((-1.6, -1.2, 2.0), (0.25, 1.2, 2.02), texture=0)
        backdrop = Plane(point=(0.0, 0.0, 4.0), normal=(0.0, 0.0, 1.0), texture=2)
        return Fixture(name, SceneSpec((slab, backdrop)), eye, shift, k, dict(_SHARP))
    if name == "two_plane":
        occluder = Box((0.0, -0.75, 1.0), (0.4, 0.75, 1.02), texture=1)
        return Fixture(name, SceneSpec((_BG, occluder)), eye, shift, k, dict(_SHARP))
    if name == "box_roll30":
        occluder = Box((0.0, -0.25, 1.0), (0.35, 0.25, 1.02), texture=1)
        pose_b = PoseSE3(_rot_z(30.0), np.array([_BASELINE, 0.0, 0.0]))
        return Fixture(name, SceneSpec((_BG, occluder)), eye, pose_b, k, dict(_SHARP))
    raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
