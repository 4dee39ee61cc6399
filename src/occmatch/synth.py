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
precision the grid files store; each cell is then scaled to unit norm in
float64 and the grid held as float32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .geometry import (
    CameraIntrinsics, DepthMap, PoseSE3, cell_center_px, patch_grid, unproject_points,
)
from .matching import FeatureGrid
from .occupancy import check_grid_size
from .supervision import PixelClass, land_points, valid_points

_EPS_HIT = 1e-9
# Relative pad of the ray-reach bounds of `_box_bounds`: far above rounding.
_REACH_PAD = 1e-9

# Descriptor bank constants: the fine grid's stride, each kernel's length
# scale in grid cells at the pair's median depth, and the frequency seed.
_FINE_STRIDE = 2
_COARSE_SCALE_CELLS = 0.5
_FINE_SCALE_CELLS = 1.0
_FREQ_SEED = 61
# Cells per block of `_feature_grid`: its float64 work arrays stay near 1 MB
# at 128 channels.
_BLOCK_CELLS = 1024


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
    """Slab test of every ray against box `b`, the three axes in one pass
    over (k, 3) arrays and reduced in axis order."""
    box_min = np.asarray(b.box_min, dtype=np.float64)
    box_max = np.asarray(b.box_max, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (box_min - origin) / dirs
        t2 = (box_max - origin) / dirs
    lo_a = np.minimum(t1, t2)
    hi_a = np.maximum(t1, t2)
    zero = dirs == 0.0
    if zero.any():  # a ray parallel to a slab: all or nothing, by the origin
        inside = (origin >= box_min) & (origin <= box_max)
        lo_a = np.where(zero, np.where(inside, -np.inf, np.inf), lo_a)
        hi_a = np.where(zero, np.where(inside, np.inf, -np.inf), hi_a)
    lo = np.maximum(np.maximum(lo_a[:, 0], lo_a[:, 1]), lo_a[:, 2])
    hi = np.minimum(np.minimum(hi_a[:, 0], hi_a[:, 1]), hi_a[:, 2])
    s = np.where(lo > _EPS_HIT, lo, hi)  # fall back to the exit face if inside
    hit = (lo <= hi) & (hi > _EPS_HIT)
    return np.where(hit & (s > _EPS_HIT), s, np.inf)


# The two axes other than each axis, in increasing order.
_OTHERS = np.array([[1, 2], [0, 2], [0, 1]])


def _box_bounds(
    box_min: np.ndarray, box_max: np.ndarray, origin: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the rays that can reach each of the (n, 3) boxes point.

    Returns (axis, side, r_min, r_max). A box's axis is the axis plane
    through the origin that separates it, the one where the box is
    farthest, or -1 when none does. A ray reaches the box only if it points
    to the box's `side` (+1 or -1) of that plane and its two other
    components over its axis component lie in [r_min, r_max] (n, 2): the
    range of the box corners' central projections, padded by `_REACH_PAD`
    well past the rounding of `_box_hits`. An unbounded box's inf/inf
    corners are skipped (`fmin`/`fmax`); its inf/near corners bound it.
    """
    lo = box_min - origin
    hi = box_max - origin
    near = np.maximum(lo, -hi)  # > 0 exactly on the axes that separate
    n = np.arange(len(lo))
    axis = np.argmax(near, axis=1)
    side = np.where(lo[n, axis] > 0.0, 1.0, -1.0)
    others = _OTHERS[axis]
    num = np.stack([np.take_along_axis(lo, others, 1), np.take_along_axis(hi, others, 1)], axis=1)
    den = np.stack([lo[n, axis], hi[n, axis]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        corners = (num[:, :, None, :] / den[:, None, :, None]).reshape(-1, 4, 2)
    r_min = np.fmin.reduce(corners, axis=1)
    r_max = np.fmax.reduce(corners, axis=1)
    r_min -= _REACH_PAD * (1.0 + np.abs(r_min))
    r_max += _REACH_PAD * (1.0 + np.abs(r_max))
    return np.where(near[n, axis] <= 0.0, -1, axis), side, r_min, r_max


def _ray_index(dirs: np.ndarray, axis: int, side: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rays pointing to `side` of the axis plane `axis`, sorted by their
    first ratio: (rows, first ratios, second ratios), where a ray's ratios
    are its two other components over its `axis` component."""
    rows = np.flatnonzero(side * dirs[:, axis] > 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # the rest are dropped
        first, second = (dirs[:, o] / dirs[:, axis] for o in _OTHERS[axis])
    rows = rows[np.argsort(first[rows], kind="stable")]
    return rows, first[rows], second[rows]


def _reaching_rays(boxes: list[Box], origin: np.ndarray, dirs: np.ndarray):
    """Yield, box by box, the indices of the rays that can reach it, a
    superset of its hits; None (every ray) for a box that no axis plane
    through the origin separates.

    The bounds of all boxes come from one `_box_bounds` pass. The rays are
    sorted once per (axis, side) that some box needs, so a box's candidates
    on its first ratio are one contiguous strip, found with `searchsorted`
    (`left` at r_min, `right` at r_max: the strip holds exactly the ratios
    r with r_min <= r <= r_max); the second ratio is tested on that strip.
    """
    axis, side, r_min, r_max = _box_bounds(
        np.array([b.box_min for b in boxes], dtype=np.float64),
        np.array([b.box_max for b in boxes], dtype=np.float64), origin)
    start = np.zeros(len(boxes), dtype=np.intp)
    stop = np.zeros(len(boxes), dtype=np.intp)
    index = {}
    for a, sd in sorted(set(zip(axis[axis >= 0].tolist(), side[axis >= 0].tolist()))):
        group = (axis == a) & (side == sd)
        index[a, sd] = rows, first, _ = _ray_index(dirs, a, sd)
        start[group] = np.searchsorted(first, r_min[group, 0], side="left")
        stop[group] = np.searchsorted(first, r_max[group, 0], side="right")
    for j, (a, sd) in enumerate(zip(axis.tolist(), side.tolist())):
        if a < 0:
            yield None
            continue
        rows, _, second = index[a, sd]
        strip = slice(start[j], stop[j])
        yield rows[strip][(second[strip] >= r_min[j, 1]) & (second[strip] <= r_max[j, 1])]


def first_hit(
    scene: SceneSpec, origin: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest intersection along each ray.

    Returns (s, prim_index) with s the ray parameter (inf and -1 where
    nothing is hit). Planes are tested against every ray; each box only
    against the rays that `_reaching_rays` finds for it. The rays it skips
    would read inf, and each ray's test is elementwise, so the result is
    bit for bit that of testing every ray against every primitive.
    """
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    best = np.full(dirs.shape[0], np.inf)
    idx = np.full(dirs.shape[0], -1, dtype=np.intp)
    boxes = [p for p in scene.primitives if isinstance(p, Box)]
    reach = _reaching_rays(boxes, origin, dirs) if boxes else iter(())
    for i, prim in enumerate(scene.primitives):
        plane = isinstance(prim, Plane)
        rays = None if plane else next(reach)  # None: every ray
        s = (_plane_hits if plane else _box_hits)(
            prim, origin, dirs if rays is None else np.take(dirs, rays, axis=0))
        closer = s < (best if rays is None else best[rays])
        won = np.flatnonzero(closer) if rays is None else rays[closer]
        best[won] = s[closer]
        idx[won] = i
    return best, idx


def _cast_pixels(
    scene: SceneSpec, pose: PoseSE3, k: CameraIntrinsics, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ray-cast through continuous pixel coordinates.

    Returns (prim_index, world_points); a ray that hits nothing reads the
    camera centre.
    """
    # Directions with camera z = 1, so the ray parameter equals the camera depth.
    dirs = unproject_points(u, v, np.ones(u.size), k) @ pose.R.T
    s, idx = first_hit(scene, pose.t, dirs)
    return idx, pose.t + np.where(idx >= 0, s, 0.0)[:, None] * dirs


def render_depth(scene: SceneSpec, pose: PoseSE3, k: CameraIntrinsics) -> DepthMap:
    """Per-pixel camera depth of the nearest surface; 0 where the ray
    escapes the scene."""
    vv, uu = np.mgrid[0 : k.height, 0 : k.width].astype(np.float64)
    dirs = unproject_points(uu.ravel(), vv.ravel(), np.ones(uu.size), k) @ pose.R.T
    depth, idx = first_hit(scene, pose.t, dirs)  # the ray parameter is the camera depth
    depth[idx < 0] = 0.0
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

    The camera-side classes come from `supervision.land_points`, as in the
    raster classifier; occlusion is decided by ray-casting the reprojected
    point against the scene itself, independent of any destination depth
    raster.
    """
    h, w = depth_src.data.shape
    vv, uu = np.mgrid[0:h, 0:w].astype(np.float64)
    u, v, d = uu.ravel(), vv.ravel(), depth_src.data.ravel()
    valid = valid_points(d)
    world = pose_src.transform(unproject_points(u[valid], v[valid], d[valid], k_src))
    cls, front, inside = land_points(d, valid, pose_dst.inverse().transform(world), k_dst)[:3]
    vis = front[inside]
    occ = occluded_by_scene(scene, pose_dst.t, world[vis])
    cls[valid[vis[occ]]] = PixelClass.OCCLUDED_IN_OTHER
    return cls.reshape(h, w)


@dataclass(frozen=True)
class FeatureParams:
    """Controls of the synthetic descriptor bank; channels must be even
    (cos/sin pairs)."""

    channels: int = 128
    patch_stride: int = 8

    def __post_init__(self) -> None:
        if self.channels < 2 or self.channels % 2:
            raise ValueError(f"channels must be even and >= 2, got {self.channels}")
        if self.patch_stride < 1 or self.patch_stride % _FINE_STRIDE:
            raise ValueError(f"patch_stride must be a positive multiple of the fine stride "
                             f"{_FINE_STRIDE}, got {self.patch_stride}")


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
    norm, and the grid is held as float32, the values the files store.

    Cells are encoded `_BLOCK_CELLS` at a time into work arrays allocated
    once per call; every cell's arithmetic is elementwise (its phase is a
    length-3 product), so the blocks change no output byte.
    """
    u, v, (rows, cols) = _grid_centers(k, stride)
    prim, world = _cast_pixels(scene, pose, k, u, v)
    m = omegas.shape[0]
    n = u.size
    freqs = omegas / (2.0 * math.pi)
    textures, prim_texture = np.unique([p.texture for p in scene.primitives], return_inverse=True)
    table = np.stack([_texture_signs(int(tex), m) for tex in textures], axis=1)
    # A missed cell's ray reads the camera centre and the last texture's
    # signs (prim -1); its encoding is overwritten by the seeded normal draw.
    cell_texture = prim_texture[prim]
    miss = np.flatnonzero(prim < 0)
    if miss.size:
        draws = np.random.default_rng([131, fallback_seed]).normal(size=(2 * m, miss.size))
    unit = np.empty((2 * m, n), dtype=np.float32)

    # Flat work arrays: the head of each, shaped to a block, is C-contiguous
    # for the partial last block too.
    points_buf = np.empty(3 * _BLOCK_CELLS)
    feats_buf = np.empty(2 * m * _BLOCK_CELLS)
    angle_buf = np.empty(m * _BLOCK_CELLS, dtype=np.float32)
    signs_buf = np.empty(m * _BLOCK_CELLS, dtype=np.float32)
    trig_buf = np.empty(m * _BLOCK_CELLS, dtype=np.float32)
    for start in range(0, n, _BLOCK_CELLS):
        stop = min(start + _BLOCK_CELLS, n)
        b = stop - start
        points = points_buf[: 3 * b].reshape(3, b)
        feats = feats_buf[: 2 * m * b].reshape(2 * m, b)
        angle, signs, trig = (buf[: m * b].reshape(m, b) for buf in (angle_buf, signs_buf, trig_buf))

        np.copyto(points, world[start:stop].T)
        turns = np.matmul(freqs, points, out=feats[m:])
        turns -= np.rint(turns, out=feats[:m])
        np.multiply(turns, 2.0 * math.pi, out=angle, casting="same_kind")
        np.take(table, cell_texture[start:stop], axis=1, out=signs)
        np.multiply(np.cos(angle, out=trig), signs, out=feats[:m])
        np.multiply(np.sin(angle, out=angle), signs, out=feats[m:])

        lo, hi = np.searchsorted(miss, (start, stop))
        if hi > lo:
            feats[:, miss[lo:hi] - start] = draws[:, lo:hi]
        np.divide(feats, np.sqrt(np.einsum("ij,ij->j", feats, feats)),
                  out=unit[:, start:stop], casting="same_kind")
    return FeatureGrid(unit.reshape(2 * m, rows, cols), stride=stride)


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
    scale_c = _COARSE_SCALE_CELLS * params.patch_stride * med / k.fx
    scale_f = _FINE_SCALE_CELLS * _FINE_STRIDE * med / k.fx

    roles = [
        (pose_a, params.patch_stride, base_c, scale_c),
        (pose_b, params.patch_stride, base_c, scale_c),
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
    """A named scene and camera pair; the matcher's defaults suit every
    fixture, so none carries settings of its own."""

    name: str
    scene: SceneSpec
    pose_a: PoseSE3
    pose_b: PoseSE3
    k: CameraIntrinsics


FIXTURE_NAMES = ("identity", "rotation", "stereo", "two_plane", "box_roll30")

# Shared fixture geometry: background plane 2 m ahead, occluders 1 m ahead,
# 0.25 m baseline. At the default 192x144 / f=128 the baseline gives exactly
# 16 px (two patches) of background disparity and 32 px on the occluder.
# Every surface depth is a power-of-two multiple of the baseline, so pure-x
# translations reproject pixel centers onto pixel centers exactly.
_BG = Plane(point=(0.0, 0.0, 2.0), normal=(0.0, 0.0, 1.0), texture=0)
_BASELINE = 0.25


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
        return Fixture(name, SceneSpec((_BG,)), eye, eye, k)
    if name == "rotation":
        # Pure rotation: ~16 px yaw shift at the principal point, no baseline.
        yaw = math.degrees(math.atan(16.0 / 128.0))
        return Fixture(name, SceneSpec((_BG,)), eye, PoseSE3(_rot_y(yaw), np.zeros(3)), k)
    if name == "stereo":
        # Two depth layers (16 px and 8 px disparity). A single plane would
        # leave the essential matrix underdetermined, so the backdrop at 4 m
        # shows through to the right of the slab edge at x = 0.25.
        slab = Box((-1.6, -1.2, 2.0), (0.25, 1.2, 2.02), texture=0)
        backdrop = Plane(point=(0.0, 0.0, 4.0), normal=(0.0, 0.0, 1.0), texture=2)
        return Fixture(name, SceneSpec((slab, backdrop)), eye, shift, k)
    if name == "two_plane":
        occluder = Box((0.0, -0.75, 1.0), (0.4, 0.75, 1.02), texture=1)
        return Fixture(name, SceneSpec((_BG, occluder)), eye, shift, k)
    if name == "box_roll30":
        occluder = Box((0.0, -0.25, 1.0), (0.35, 0.25, 1.02), texture=1)
        pose_b = PoseSE3(_rot_z(30.0), np.array([_BASELINE, 0.0, 0.0]))
        return Fixture(name, SceneSpec((_BG, occluder)), eye, pose_b, k)
    raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
