"""Reprojection supervision: per-pixel visibility classes, GT coarse
matches and the GT labels of refined matches.

Every pixel of view A with known depth is carried into view B and compared
against B's rendered depth. The outcome partitions A's pixels into five
classes; patch-level aggregation of those classes yields the vv / vo / ov
ground-truth match lists that the coarse matcher and its losses consume;
the same test on a match's refined points gives its label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

import numpy as np

from .errors import EmptyDepthError
from .geometry import (
    CameraIntrinsics, DepthMap, PoseSE3, patch_centers, patch_grid, project_points, unproject_points,
)


# A match's label (label_matches), and how far in pixels a match's point
# may lie from the GT reprojection of its partner for a label but "none".
MATCH_LABELS = ("vv", "vo", "ov", "none")
_LABEL_RADIUS_PX = 3.0

# Pixels per block of `pair_stats`: its work arrays stay near 2 MB.
_BLOCK_PIXELS = 8192

# Depth slack of the occlusion test at sampled depth d, max(floor, relative
# * d): the floor (metres) absorbs noise at close range, the relative term
# scales with distance.
MARGIN_FLOOR = 0.05
MARGIN_RELATIVE = 0.05


class PixelClass(IntEnum):
    """Visibility outcome of reprojecting one A pixel into view B."""

    COVISIBLE = 0
    OCCLUDED_IN_OTHER = 1
    OUT_OF_BOUNDS = 2
    INVALID_DEPTH = 3
    BEHIND_CAMERA = 4


@dataclass(frozen=True)
class PairStats:
    """Pair-level scores of the A->B direction, as synth's manifest reports
    them: the occluded and the covisible-or-occluded fractions of *all*
    pixels of A."""

    occlusion_ratio: float
    overlap_score: float

    @classmethod
    def from_classes(cls, classes: np.ndarray) -> "PairStats":
        """Scores of a class map over all of its pixels."""
        counts = np.bincount(classes.ravel(), minlength=len(PixelClass)).tolist()
        occluded, covisible = counts[PixelClass.OCCLUDED_IN_OTHER], counts[PixelClass.COVISIBLE]
        return cls(occluded / classes.size, (covisible + occluded) / classes.size)


@dataclass(frozen=True)
class CoarseMatchSet:
    """Ground-truth patch matches between A and B at one patch stride.

    All pairs are (patch_index_a, patch_index_b), row-major per image grid:
      vv - A patch center covisible in B,
      vo - A patch center occluded behind B's surface,
      ov - the B->A occluded pairs with elements swapped back to (a, b).
    """

    patch_stride: int
    vv: list[tuple[int, int]]
    vo: list[tuple[int, int]]
    ov: list[tuple[int, int]]
    grid_a: tuple[int, int] = field(default=(0, 0))
    grid_b: tuple[int, int] = field(default=(0, 0))


def sample_depth_bilinear(depth: DepthMap, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear depth lookup that excludes invalid (zero) neighbors.

    Valid neighbors are re-weighted to sum 1; a sample with no valid
    support reports ok = False. Coordinates must already lie within
    [0, W-1] x [0, H-1].
    """
    h, w = depth.data.shape
    flat = depth.data.reshape(-1)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    x0 = np.floor(u).astype(np.intp)
    y0 = np.floor(v).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    fx = u - x0
    fy = v - y0
    acc = np.zeros(u.shape, dtype=np.float64)
    wsum = np.zeros(u.shape, dtype=np.float64)
    for tap, wt in (
        (row0 + x0, (1.0 - fx) * (1.0 - fy)),
        (row0 + x1, fx * (1.0 - fy)),
        (row1 + x0, (1.0 - fx) * fy),
        (row1 + x1, fx * fy),
    ):
        val = flat[tap]
        m = val > 0.0
        acc += wt * val * m
        wsum += wt * m
    ok = wsum > 1e-12
    out = np.zeros_like(acc)
    np.divide(acc, wsum, out=out, where=ok)
    return out, ok


def valid_points(d: np.ndarray) -> np.ndarray:
    """The indices of the usable depths in d: finite and > 0."""
    return np.flatnonzero((d > 0.0) & (d < np.inf))


def land_points(
    d: np.ndarray, valid: np.ndarray, p_dst: np.ndarray, k_dst: CameraIntrinsics,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The camera-side classes of points carried into a destination view.

    d: each point's source depth; valid: valid_points(d); p_dst: those
    points in the destination camera frame, row i for valid[i]. A point
    not in valid is INVALID_DEPTH, z <= 0 BEHIND_CAMERA, a projection
    outside [0, W-1] x [0, H-1] OUT_OF_BOUNDS; the rest read COVISIBLE
    until the caller's occlusion test. Returns (classes, front, inside, u,
    v): front, the rows of p_dst in front of that camera; inside, which of
    them land in the image; u, v, their destination pixel coordinates.
    """
    cls = np.full(d.size, int(PixelClass.INVALID_DEPTH), dtype=np.int8)
    cls[valid] = PixelClass.COVISIBLE
    behind = p_dst[:, 2] <= 0.0
    cls[valid[behind]] = PixelClass.BEHIND_CAMERA

    front = np.flatnonzero(~behind)
    # np.take gathers the rows several times faster than p_dst[front].
    u, v = project_points(np.take(p_dst, front, axis=0), k_dst)
    inside = (u >= 0.0) & (u <= k_dst.width - 1.0) & (v >= 0.0) & (v <= k_dst.height - 1.0)
    cls[valid[front[~inside]]] = PixelClass.OUT_OF_BOUNDS
    return cls, front, inside, u, v


def classify_points(
    u: np.ndarray,
    v: np.ndarray,
    depth_at: np.ndarray,
    depth_b: DepthMap,
    k_a: CameraIntrinsics,
    k_b: CameraIntrinsics,
    t_ba: PoseSE3,
) -> tuple[np.ndarray, np.ndarray]:
    """Class of each point (u, v) of A at depth depth_at with respect to
    B's rendered depth.

    The camera-side classes come from `land_points`: a depth that is not
    finite and > 0 is INVALID_DEPTH. A point that lands in B's image is
    OUT_OF_BOUNDS if no valid B pixel supports its bilinear depth sample
    d, OCCLUDED_IN_OTHER if it lies beyond d by more than
    max(MARGIN_FLOOR, MARGIN_RELATIVE * d), and COVISIBLE otherwise.
    Returns (classes, uv_b): uv_b holds the continuous coordinates in B
    (NaN when the point never reaches B's image plane).
    """
    u, v, d = (np.asarray(x, dtype=np.float64).ravel() for x in (u, v, depth_at))
    valid = valid_points(d)
    p_b = t_ba.transform(unproject_points(u[valid], v[valid], d[valid], k_a))
    cls, front, inside, ub, vb = land_points(d, valid, p_b, k_b)
    uv_b = np.full((u.size, 2), np.nan)
    landed = valid[front]
    uv_b[landed, 0] = ub
    uv_b[landed, 1] = vb

    hit = landed[inside]
    sampled, ok = sample_depth_bilinear(depth_b, ub[inside], vb[inside])
    # Landing on invalid B depth counts as leaving the map.
    cls[hit[~ok]] = PixelClass.OUT_OF_BOUNDS
    margin = np.maximum(MARGIN_FLOOR, MARGIN_RELATIVE * sampled)
    occluded = ok & (p_b[front[inside], 2] - sampled > margin)
    cls[hit[occluded]] = PixelClass.OCCLUDED_IN_OTHER
    return cls, uv_b


def pair_stats(
    depth_a: DepthMap,
    depth_b: DepthMap,
    k_a: CameraIntrinsics,
    k_b: CameraIntrinsics,
    t_ba: PoseSE3,
) -> dict[PixelClass, int]:
    """Pixel count of each class over every pixel of A.

    A's pixels are classified a block of whole rows (about `_BLOCK_PIXELS`
    pixels, one row at least) at a time and only their class counts are
    kept, so the work arrays stay the size of one block at any image size.
    Every step works point by point, so the blocks change no count.
    """
    h, w = depth_a.data.shape
    rows = max(1, _BLOCK_PIXELS // w)
    flat = depth_a.data.reshape(-1)
    u = np.tile(np.arange(w, dtype=np.float64), rows)
    v = np.repeat(np.arange(rows, dtype=np.float64), w)
    counts = np.zeros(len(PixelClass), dtype=np.int64)
    for top in range(0, h, rows):
        n = min(rows, h - top) * w
        cls, _ = classify_points(u[:n], v[:n] + top, flat[top * w:top * w + n],
                                 depth_b, k_a, k_b, t_ba)
        counts += np.bincount(cls, minlength=len(PixelClass))
    if counts[PixelClass.INVALID_DEPTH] == h * w:
        raise EmptyDepthError("view A has no valid depth pixel")
    return {c: int(counts[c]) for c in PixelClass}


def coarse_match_ground_truth(
    depth_a: DepthMap,
    depth_b: DepthMap,
    k_a: CameraIntrinsics,
    k_b: CameraIntrinsics,
    t_ba: PoseSE3,
    t_ab: Optional[PoseSE3] = None,
    patch_stride: int = 8,
) -> CoarseMatchSet:
    """Patch-level GT matches; each patch is classified by its center pixel.

    vv and vo come from the A->B direction; ov is the B->A vo list with the
    pair elements swapped, so all three lists read (patch_a, patch_b).
    """
    if not depth_a.valid_mask.any():
        raise EmptyDepthError("view A has no valid depth pixel")
    if t_ab is None:
        t_ab = t_ba.inverse()

    grid_a = patch_grid(depth_a.height, depth_a.width, patch_stride)
    grid_b = patch_grid(depth_b.height, depth_b.width, patch_stride)

    def pairs(d_src: DepthMap, d_dst: DepthMap, k_src, k_dst, t, grid_dst,
              *wanted: PixelClass) -> list[list[tuple[int, int]]]:
        """The (source patch, destination patch) list of each class in `wanted`."""
        centers = np.column_stack(patch_centers(d_src.height, d_src.width, patch_stride))
        cls, uv = _classify_nearest(centers, d_src, d_dst, k_src, k_dst, t)
        out = []
        for c in wanted:
            # Covisible and occluded points land in the destination image: uv is finite.
            p = np.flatnonzero(cls == c)
            tgt_row, tgt_col = (np.floor(uv[p, i] / patch_stride).astype(np.intp) for i in (1, 0))
            out.append(list(zip(p.tolist(), (tgt_row * grid_dst[1] + tgt_col).tolist())))
        return out

    vv, vo = pairs(depth_a, depth_b, k_a, k_b, t_ba, grid_b,
                   PixelClass.COVISIBLE, PixelClass.OCCLUDED_IN_OTHER)
    [ov_rev] = pairs(depth_b, depth_a, k_b, k_a, t_ab, grid_a, PixelClass.OCCLUDED_IN_OTHER)
    ov = [(a, b) for (b, a) in ov_rev]
    return CoarseMatchSet(
        patch_stride=patch_stride, vv=vv, vo=vo, ov=ov, grid_a=grid_a, grid_b=grid_b
    )


def _classify_nearest(src: np.ndarray, depth_src: DepthMap, depth_dst: DepthMap,
                      k_src: CameraIntrinsics, k_dst: CameraIntrinsics,
                      t: PoseSE3) -> tuple[np.ndarray, np.ndarray]:
    """classify_points of the (n, 2) points `src`, each at the depth of its
    nearest pixel."""
    h, w = depth_src.data.shape
    col = np.clip(np.floor(src[:, 0] + 0.5), 0, w - 1).astype(np.intp)
    row = np.clip(np.floor(src[:, 1] + 0.5), 0, h - 1).astype(np.intp)
    # A point far off the image (any finite value is a valid match point)
    # may overflow to inf or NaN; such a point is out of bounds.
    with np.errstate(over="ignore", invalid="ignore"):
        return classify_points(src[:, 0], src[:, 1], depth_src.data[row, col],
                               depth_dst, k_src, k_dst, t)


def label_matches(uv_a: np.ndarray, uv_b: np.ndarray, depth_a: DepthMap, depth_b: DepthMap,
                  k_a: CameraIntrinsics, k_b: CameraIntrinsics,
                  t_ba: PoseSE3) -> tuple[np.ndarray, np.ndarray]:
    """GT label of each match of refined points (uv_a[i], uv_b[i]), and its
    endpoint error: the distance in B from uv_b[i] to the GT reprojection
    of uv_a[i] (NaN unless that point is covisible or occluded in B).

    vv: the A point is covisible in B and reprojects within
    _LABEL_RADIUS_PX of the B point; else vo: it is occluded in B and
    within that radius; else ov: the B point is occluded in A and
    reprojects within the radius of the A point; else none.
    """
    uv_a, uv_b = (np.asarray(uv, dtype=np.float64).reshape(-1, 2) for uv in (uv_a, uv_b))
    cls_a, in_b = _classify_nearest(uv_a, depth_a, depth_b, k_a, k_b, t_ba)
    cls_b, in_a = _classify_nearest(uv_b, depth_b, depth_a, k_b, k_a, t_ba.inverse())
    covisible, occluded = cls_a == PixelClass.COVISIBLE, cls_a == PixelClass.OCCLUDED_IN_OTHER
    epe = np.where(covisible | occluded, np.hypot(*(in_b - uv_b).T), np.nan)
    near_a, near_b = epe <= _LABEL_RADIUS_PX, np.hypot(*(in_a - uv_a).T) <= _LABEL_RADIUS_PX
    labels = np.select([near_a & covisible, near_a & occluded,
                        near_b & (cls_b == PixelClass.OCCLUDED_IN_OTHER)],
                       MATCH_LABELS[:3], MATCH_LABELS[3])
    return labels, epe
