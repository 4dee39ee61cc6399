"""Pinhole camera model, SE(3) poses, and the pixel <-> camera <-> cell mapping.

This module is the one home of the mapping between pixels, camera-frame
points and grid cells: vectorised project/unproject, the patch grid, and
the two patch-centre conventions (integer centre pixels for supervision,
continuous cell centres for features and refined points).

Conventions used across the package:

* Pixel coordinates are continuous with (0, 0) at the *center* of the
  top-left pixel; u grows to the right (columns), v grows down (rows).
* Camera frame: x right, y down, z forward. A point is in front of the
  camera iff z > 0.
* Poses are stored camera-to-world: X_world = R @ X_cam + t, so t is the
  camera center in world coordinates.
* Depth maps store the camera-frame z per pixel in meters, row-major;
  0.0 is the invalid sentinel (no return / no surface).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Orthonormality tolerance for pose validation.
_ROT_ATOL = 1e-9


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; fx/fy in pixels, (cx, cy) the principal point."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        for name in ("fx", "fy", "cx", "cy"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name!r} must be finite, got {getattr(self, name)}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be at least 1x1, got {self.width}x{self.height}")


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PoseSE3:
    """Rigid camera-to-world transform: X_world = R @ X_cam + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        R = _as_readonly(self.R).reshape(3, 3)
        t = _as_readonly(self.t).reshape(3)
        if not np.all(np.isfinite(t)):
            raise ValueError(f"'t' must be finite, got {t.tolist()}")
        if not np.allclose(R.T @ R, np.eye(3), atol=_ROT_ATOL):
            raise ValueError("rotation is not orthonormal")
        if not np.isclose(np.linalg.det(R), 1.0, atol=_ROT_ATOL):
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls(np.eye(3), np.zeros(3))

    def inverse(self) -> "PoseSE3":
        return PoseSE3(self.R.T, -self.R.T @ self.t)

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self ∘ other: apply `other` first, then `self`."""
        return PoseSE3(self.R @ other.R, self.R @ other.t + self.t)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply to one point (3,) or a stack (..., 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.R.T + self.t


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel camera-frame z in meters; 0.0 marks invalid pixels."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        d = _as_readonly(self.data)
        if d.ndim != 2:
            raise ValueError(f"depth data must be 2-d (height, width), got shape {d.shape}")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise ValueError("depth values must be finite and non-negative")
        object.__setattr__(self, "data", d)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        return self.data > 0.0


def unproject_points(u: np.ndarray, v: np.ndarray, d: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """Camera-frame points (N, 3) of pixels (u, v) at camera depths d; at
    unit depth the first two columns are the normalized image coordinates."""
    return np.column_stack([(u - k.cx) / k.fx * d, (v - k.cy) / k.fy * d, d])


def project_points(p: np.ndarray, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coordinates (u, v) of camera-frame points (N, 3); the caller
    keeps z > 0."""
    return k.fx * p[:, 0] / p[:, 2] + k.cx, k.fy * p[:, 1] / p[:, 2] + k.cy


def relative_pose(pose_a: PoseSE3, pose_b: PoseSE3) -> PoseSE3:
    """Transform taking camera-A coordinates to camera-B coordinates.

    T_ba = inverse(pose_b) ∘ pose_a; with both cameras at the same pose
    this is the identity.
    """
    return pose_b.inverse().compose(pose_a)


def patch_grid(height: int, width: int, stride: int) -> tuple[int, int]:
    """Patch-grid shape (rows, cols); partial edge patches are kept, so
    cell (r, c) covers pixels [stride*c, stride*c + stride) x
    [stride*r, stride*r + stride) clipped to the image."""
    return (-(-height // stride), -(-width // stride))


def patch_centers(height: int, width: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer center pixel (u, v) of every patch, row-major: the pixel
    supervision classifies a patch by (4 at stride 8).

    A partial edge patch uses the center of its actual extent.
    """
    rows, cols = patch_grid(height, width, stride)
    pr = np.repeat(np.arange(rows), cols)
    pc = np.tile(np.arange(cols), rows)
    return (extent_midpoint(pc, stride, width).astype(np.float64),
            extent_midpoint(pr, stride, height).astype(np.float64))


def extent_midpoint(index: np.ndarray, size: int, n: int) -> np.ndarray:
    """Integer middle of each block [index*size, index*size + size) of a
    line of n units, clipped to the line: the patch-centre rule, in pixels
    for supervision and in fine cells for the matcher's refine anchors."""
    lo = index * size
    return lo + np.minimum(size, n - lo) // 2


def cell_center_px(cell: float, stride: int) -> float:
    """Pixel coordinate of the centre of grid cell `cell` (continuous) at
    `stride` (3.5 for cell 0 at stride 8): where feature grids sample and
    refined match points land."""
    return stride * cell + (stride - 1) / 2.0
