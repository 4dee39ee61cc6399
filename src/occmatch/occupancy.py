"""Voxel occupancy along viewing rays at half image resolution.

The grid for a target view has one column per 2x2 pixel block and D uniform
depth bins over [d_min, d_max). Ground truth comes from fusing both views'
depth maps into a world point cloud and binning it in the target frame;
the estimator turns a feature/view factor pair into per-column depth
distributions via a softmax over the depth axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCloudError, GridSizeError, ShapeMismatchError
from .geometry import CameraIntrinsics, DepthMap, PoseSE3, patch_grid, project_points, unproject_points
from .numerics import softmax

# Largest dense array that synth, voxelize or match builds, in bytes of float64 values.
_MAX_GRID_BYTES = 1 << 30


def check_grid_size(shape: tuple[int, ...], cause: str, what: str) -> None:
    """Refuse, before allocating, a float64 `what` array of `shape` over
    `_MAX_GRID_BYTES`; `cause` names the settings that size it."""
    size = 8 * math.prod(shape)
    if size > _MAX_GRID_BYTES:
        raise GridSizeError(f"{cause} needs a {'x'.join(map(str, shape))} {what} of "
                            f"{size / 2**30:.3g} GiB, over the "
                            f"{_MAX_GRID_BYTES / 2**30:.3g} GiB limit")


@dataclass(frozen=True)
class OccupancyConfig:
    """Depth binning: `depth_bins` uniform bins covering [d_min, d_max)."""

    depth_bins: int = 64
    d_min: float = 0.1
    d_max: float = 10.0

    def __post_init__(self) -> None:
        if self.depth_bins < 1:
            raise ValueError(f"need at least one depth bin, got {self.depth_bins}")
        if not 0 < self.d_min < self.d_max:
            raise ValueError(f"need 0 < d_min < d_max, got [{self.d_min}, {self.d_max})")

    @property
    def bin_width(self) -> float:
        return (self.d_max - self.d_min) / self.depth_bins


def depth_bin_index(z: np.ndarray, cfg: OccupancyConfig) -> np.ndarray:
    """Bin index for camera depth z; only meaningful for z in [d_min, d_max).
    A z just below d_max whose quotient rounds up to depth_bins takes the
    last bin."""
    k = np.floor((np.asarray(z, dtype=np.float64) - cfg.d_min) / cfg.bin_width).astype(np.intp)
    return np.minimum(k, cfg.depth_bins - 1)


@dataclass(frozen=True)
class OccupancyGrid:
    """Per-column depth distribution, shape (rows, cols, depth_bins)."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"occupancy values must be (rows, cols, bins), got {v.shape}")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("occupancy values must be finite and non-negative")
        object.__setattr__(self, "values", v)

    @property
    def column_sums(self) -> np.ndarray:
        return self.values.sum(axis=-1)


@dataclass(frozen=True)
class OccupancyFactors:
    """Factor pair for estimation.

    feature_term: (C, rows, cols, 1); view_term: (1, rows, cols, D). Their
    broadcast product summed over channels gives the per-bin logits.
    """

    feature_term: np.ndarray = field(repr=False)
    view_term: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        f = np.asarray(self.feature_term, dtype=np.float64)
        v = np.asarray(self.view_term, dtype=np.float64)
        if f.ndim != 4 or f.shape[3] != 1:
            raise ShapeMismatchError(f"feature term must be (C, rows, cols, 1), got {f.shape}")
        if v.ndim != 4 or v.shape[0] != 1:
            raise ShapeMismatchError(f"view term must be (1, rows, cols, D), got {v.shape}")
        if f.shape[1:3] != v.shape[1:3]:
            raise ShapeMismatchError(
                f"factor spatial shapes disagree: {f.shape[1:3]} vs {v.shape[1:3]}"
            )
        object.__setattr__(self, "feature_term", f)
        object.__setattr__(self, "view_term", v)


def _cloud_from_view(depth: DepthMap, k: CameraIntrinsics, pose: PoseSE3) -> np.ndarray:
    """World points of all valid pixels of one view, (N, 3)."""
    vs, us = np.nonzero(depth.valid_mask)
    return pose.transform(unproject_points(us, vs, depth.data[vs, us], k))


@dataclass(frozen=True)
class OccupancyCells:
    """The non-zero cells of a (rows, cols, bins) occupancy grid: `index`
    holds their flat indices in C order, ascending, and `values` their
    values; every other cell is 0."""

    shape: tuple[int, int, int]
    index: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @classmethod
    def from_grid(cls, grid: OccupancyGrid) -> "OccupancyCells":
        index = np.flatnonzero(grid.values)
        return cls(grid.values.shape, index, np.take(grid.values, index))

    def to_grid(self) -> OccupancyGrid:
        values = np.zeros(self.shape)
        values.reshape(-1)[self.index] = self.values
        return OccupancyGrid(values)


def ground_truth_cells(
    depth_a: DepthMap,
    depth_b: DepthMap,
    pose_a: PoseSE3,
    pose_b: PoseSE3,
    k_a: CameraIntrinsics,
    k_b: CameraIntrinsics,
    target: str = "a",
    cfg: OccupancyConfig = OccupancyConfig(),
) -> OccupancyCells:
    """Fuse both views into a point cloud and bin it in the target frame.

    The target view's own pixels bin directly at (row, col) = (v // 2,
    u // 2); only the other view's points go through the pose transform and
    reprojection. This keeps a pixel from drifting out of its own cell by
    one ulp of projective round-trip.

    Each non-empty column is a uniform distribution over its occupied bins:
    each of its n occupied cells holds 1/n. Empty columns hold no cell.
    """
    if target not in ("a", "b"):
        raise ValueError(f"target must be 'a' or 'b', got {target!r}")
    if target == "a":
        depth_t, k_t, pose_t = depth_a, k_a, pose_a
        depth_o, k_o, pose_o = depth_b, k_b, pose_b
    else:
        depth_t, k_t, pose_t = depth_b, k_b, pose_b
        depth_o, k_o, pose_o = depth_a, k_a, pose_a
    if not (depth_t.valid_mask.any() or depth_o.valid_mask.any()):
        raise EmptyCloudError("no valid depth pixel in either view")
    rows, cols = patch_grid(k_t.height, k_t.width, 2)
    bins = cfg.depth_bins
    check_grid_size((rows, cols, bins), f"depth_bins {bins}", "occupancy grid")

    def flat(r: np.ndarray, c: np.ndarray, z: np.ndarray) -> np.ndarray:
        return (r * cols + c) * bins + depth_bin_index(z, cfg)

    vt, ut = np.nonzero(depth_t.valid_mask)
    zt = depth_t.data[vt, ut]
    keep = (zt >= cfg.d_min) & (zt < cfg.d_max)
    binned = [flat(vt[keep] // 2, ut[keep] // 2, zt[keep])]

    cloud = _cloud_from_view(depth_o, k_o, pose_o)
    if cloud.shape[0]:
        p = pose_t.inverse().transform(cloud)
        del cloud
        z = p[:, 2]
        keep = (z >= cfg.d_min) & (z < cfg.d_max)
        p, z = p[keep], z[keep]
        u, v = project_points(p, k_t)
        del p
        inside = (u >= 0.0) & (u < 2.0 * cols) & (v >= 0.0) & (v < 2.0 * rows)
        binned.append(flat(np.floor(v[inside] / 2.0).astype(np.intp),
                           np.floor(u[inside] / 2.0).astype(np.intp), z[inside]))

    # A one-byte mark per cell drops the duplicates and sorts the rest.
    occupied = np.zeros(rows * cols * bins, dtype=np.bool_)
    for flat_index in binned:
        occupied[flat_index] = True
    index = np.flatnonzero(occupied)
    del occupied
    # n, the occupied bins of each cell's column: the length of its run of
    # equal columns in the ascending indices.
    first = np.flatnonzero(np.diff(index // bins, prepend=-1))
    n = np.diff(first, append=index.size)
    return OccupancyCells((rows, cols, bins), index, 1.0 / np.repeat(n, n))


def build_ground_truth_occupancy(
    depth_a: DepthMap,
    depth_b: DepthMap,
    pose_a: PoseSE3,
    pose_b: PoseSE3,
    k_a: CameraIntrinsics,
    k_b: CameraIntrinsics,
    target: str = "a",
    cfg: OccupancyConfig = OccupancyConfig(),
) -> OccupancyGrid:
    """The dense grid of `ground_truth_cells`; empty columns are all-zero."""
    return ground_truth_cells(depth_a, depth_b, pose_a, pose_b, k_a, k_b, target, cfg).to_grid()


def estimate_occupancy(factors: OccupancyFactors) -> OccupancyGrid:
    """Softmax over depth bins of the channel-summed factor product.

    Adding a per-column constant to the view term does not change the
    result (softmax shift invariance).
    """
    logits = occupancy_logits(factors)
    return OccupancyGrid(softmax(logits, axis=-1))


def occupancy_logits(factors: OccupancyFactors) -> np.ndarray:
    """Pre-softmax logits, shape (rows, cols, D)."""
    return (factors.feature_term * factors.view_term).sum(axis=0)


def occupancy_loss(estimate: OccupancyGrid, ground_truth: OccupancyGrid) -> float:
    """Mean absolute difference between the two grids over all
    rows*cols*D cells."""
    est, gt = estimate.values, ground_truth.values
    if est.shape != gt.shape:
        raise ShapeMismatchError(f"grid shapes disagree: {est.shape} vs {gt.shape}")
    return float(np.abs(est - gt).mean())
