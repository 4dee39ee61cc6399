"""Relative-pose recovery from matches and the evaluation metrics on top.

Pixel matches are normalized by the intrinsics, an essential matrix is
estimated with an 8-point solver inside RANSAC (Sampson-distance inliers,
least-squares refit on the consensus set), and (R, t) with unit baseline is
chosen by the cheirality test. Errors are angular for both rotation and
translation direction (the essential matrix fixes t only up to sign and
scale); a pair's pose error is the max of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    EmptyListError,
    InsufficientMatchesError,
    ZeroTranslationError,
)
from .geometry import CameraIntrinsics, PoseSE3


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 1000
    inlier_threshold: float = 1e-3  # Sampson distance in normalized coords.
    confidence: float = 0.999
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"need at least one iteration, got {self.max_iterations}")
        if not self.inlier_threshold > 0:
            raise ValueError(f"inlier threshold must be positive, got {self.inlier_threshold}")
        if not 0 < self.confidence < 1:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")


@dataclass(frozen=True)
class PoseErrorReport:
    rotation_deg: float
    translation_deg: float
    pose_deg: float
    inlier_count: int = 0


def normalize_pixels(px: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """Pixel coordinates (N, 2) -> normalized camera coordinates (N, 2)."""
    px = np.asarray(px, dtype=np.float64).reshape(-1, 2)
    return np.column_stack([(px[:, 0] - k.cx) / k.fx, (px[:, 1] - k.cy) / k.fy])


def essential_from_pose(t_ba: PoseSE3) -> np.ndarray:
    """Ground-truth essential matrix [t]x R from the A->B transform,
    normalized to unit Frobenius scale (zero baseline gives the zero matrix)."""
    t = t_ba.t
    tx = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]])
    e = tx @ t_ba.R
    n = np.linalg.norm(e)
    return e / n if n > 0 else e


def sampson_distance(e: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """First-order epipolar distance of normalized correspondences.

    xa, xb: (N, 2) normalized coordinates; returns (N,) distances
    |xb' E xa| / sqrt((E xa)_1^2 + (E xa)_2^2 + (E' xb)_1^2 + (E' xb)_2^2).
    """
    xa_h = np.column_stack([np.asarray(xa, dtype=np.float64), np.ones(len(xa))])
    xb_h = np.column_stack([np.asarray(xb, dtype=np.float64), np.ones(len(xb))])
    e_xa = xa_h @ e.T
    et_xb = xb_h @ e
    num = np.abs(np.sum(xb_h * e_xa, axis=1))
    den = np.sqrt(e_xa[:, 0] ** 2 + e_xa[:, 1] ** 2 + et_xb[:, 0] ** 2 + et_xb[:, 1] ** 2)
    return num / np.maximum(den, 1e-300)


def _eight_point(xa: np.ndarray, xb: np.ndarray) -> Optional[np.ndarray]:
    """Least-squares essential matrix from >= 8 normalized correspondences.

    Hartley-conditions both point sets, solves the homogeneous system by
    SVD, and projects onto the essential manifold (equal singular values,
    rank 2). Returns None for degenerate inputs.
    """

    def conditioning(x: np.ndarray) -> Optional[np.ndarray]:
        centroid = x.mean(axis=0)
        spread = np.sqrt(((x - centroid) ** 2).sum(axis=1)).mean()
        if spread < 1e-12:
            return None
        s = np.sqrt(2.0) / spread
        return np.array(
            [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
        )

    t_a = conditioning(xa)
    t_b = conditioning(xb)
    if t_a is None or t_b is None:
        return None
    xa_h = np.column_stack([xa, np.ones(len(xa))]) @ t_a.T
    xb_h = np.column_stack([xb, np.ones(len(xb))]) @ t_b.T
    # One row per correspondence: coefficients of E11..E33 (row-major).
    a = (xb_h[:, :, None] * xa_h[:, None, :]).reshape(len(xa), 9)
    _, _, vh = np.linalg.svd(a)
    e = t_b.T @ vh[-1].reshape(3, 3) @ t_a
    u, s, vt = np.linalg.svd(e)
    if s[1] < 1e-12:
        return None
    sigma = (s[0] + s[1]) / 2.0
    e = u @ np.diag([sigma, sigma, 0.0]) @ vt
    return e / np.linalg.norm(e)


def _triangulate_depths(
    r: np.ndarray, t: np.ndarray, xa: np.ndarray, xb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear triangulation; returns the depths in both camera frames."""
    p1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    p2 = np.hstack([r, t.reshape(3, 1)])
    n = len(xa)
    rows = np.empty((n, 4, 4))
    rows[:, 0] = xa[:, 0, None] * p1[2] - p1[0]
    rows[:, 1] = xa[:, 1, None] * p1[2] - p1[1]
    rows[:, 2] = xb[:, 0, None] * p2[2] - p2[0]
    rows[:, 3] = xb[:, 1, None] * p2[2] - p2[1]
    _, _, vh = np.linalg.svd(rows)
    xw = vh[:, -1, :]
    w = xw[:, 3]
    w = np.where(np.abs(w) < 1e-300, 1e-300, w)
    pts = xw[:, :3] / w[:, None]
    z1 = pts[:, 2]
    z2 = pts @ r[2] + t[2]
    return z1, z2


def decompose_essential(
    e: np.ndarray, xa: np.ndarray, xb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pick the (R, unit t) among the four decompositions that places the
    most correspondences in front of both cameras."""
    u, _, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1 = u @ w @ vt
    r2 = u @ w.T @ vt
    t = u[:, 2]
    best = None
    for r_cand, t_cand in ((r1, t), (r1, -t), (r2, t), (r2, -t)):
        z1, z2 = _triangulate_depths(r_cand, t_cand, xa, xb)
        front = int(np.count_nonzero((z1 > 0) & (z2 > 0)))
        if best is None or front > best[0]:
            best = (front, r_cand, t_cand)
    if best is None or best[0] == 0:
        raise DegenerateConfigurationError("no decomposition places any point in front of both cameras")
    return best[1], best[2]


def essential_from_matches(
    px_a: np.ndarray,
    px_b: np.ndarray,
    k_a: CameraIntrinsics,
    k_b: CameraIntrinsics,
    cfg: RansacConfig = RansacConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """RANSAC essential-matrix estimation from pixel matches.

    Returns (E, R, t, inlier_mask) with ||t|| = 1 and X_b = R @ X_a + t up
    to the unknown baseline scale. Deterministic for a fixed rng_seed.
    """
    xa = normalize_pixels(px_a, k_a)
    xb = normalize_pixels(px_b, k_b)
    n = len(xa)
    if n != len(xb):
        raise InsufficientMatchesError(f"match arrays disagree in length: {n} vs {len(xb)}")
    if n < 8:
        raise InsufficientMatchesError(f"need at least 8 matches, got {n}")

    rng = np.random.default_rng(cfg.rng_seed)
    best_count = -1
    best_err = np.inf
    best_inliers: Optional[np.ndarray] = None
    for it in range(cfg.max_iterations):
        sample = rng.choice(n, size=8, replace=False)
        e = _eight_point(xa[sample], xb[sample])
        if e is None:
            continue
        d = sampson_distance(e, xa, xb)
        inliers = d < cfg.inlier_threshold
        count = int(np.count_nonzero(inliers))
        err = float(d[inliers].sum())
        if count > best_count or (count == best_count and err < best_err):
            best_count, best_err, best_inliers = count, err, inliers
        # Standard adaptive stop once the consensus explains the data.
        if best_count >= 8:
            w_in = best_count / n
            denom = np.log1p(-min(w_in**8, 1.0 - 1e-15))
            if it + 1 >= np.log1p(-cfg.confidence) / denom:
                break
    if best_inliers is None or best_count < 8:
        raise DegenerateConfigurationError("RANSAC found no 8-point consensus")

    e = _eight_point(xa[best_inliers], xb[best_inliers])
    if e is None:
        raise DegenerateConfigurationError("inlier set is degenerate for the 8-point solve")
    inliers = sampson_distance(e, xa, xb) < cfg.inlier_threshold
    if np.count_nonzero(inliers) < 8:
        inliers = best_inliers
    r, t = decompose_essential(e, xa[inliers], xb[inliers])
    return e, r, t, inliers


def rotation_error_deg(r_est: np.ndarray, r_gt: np.ndarray) -> float:
    """Geodesic angle in degrees between two rotation matrices."""
    cos_r = (np.trace(np.asarray(r_est).T @ np.asarray(r_gt)) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos_r, -1.0, 1.0))))


def pose_error(
    r_est: np.ndarray,
    t_est: np.ndarray,
    r_gt: np.ndarray,
    t_gt: np.ndarray,
    inlier_count: int = 0,
) -> PoseErrorReport:
    """Angular rotation error and sign-invariant translation-direction error.

    pose_deg is the max of the two. Raises ZeroTranslationError when either
    translation is the zero vector (its direction is undefined).
    """
    nt_est = np.linalg.norm(t_est)
    nt_gt = np.linalg.norm(t_gt)
    if nt_est < 1e-12 or nt_gt < 1e-12:
        raise ZeroTranslationError("translation direction undefined for zero baseline")
    rot = rotation_error_deg(r_est, r_gt)
    cos_t = abs(float(np.dot(t_est, t_gt)) / (nt_est * nt_gt))
    trans = float(np.degrees(np.arccos(np.clip(cos_t, 0.0, 1.0))))
    return PoseErrorReport(rot, trans, max(rot, trans), inlier_count)


def auc(errors_deg: Sequence[float], thresholds_deg: Sequence[float] = (5.0, 10.0, 20.0)) -> dict[float, float]:
    """Exact area (in percent) under the recall-vs-error curve per threshold.

    recall(e) counts errors <= e; the integral of that step function over
    [0, t] is sum(max(t - e_i, 0)) / N, so no sampling grid is involved.
    Failed estimates enter as inf and contribute zero area.
    """
    errs = np.asarray(list(errors_deg), dtype=np.float64)
    if errs.size == 0:
        raise EmptyListError("cannot integrate recall over zero errors")
    if np.any(np.isnan(errs)) or np.any(errs < 0):
        raise ValueError("errors must be non-negative (inf allowed for failures)")
    out = {}
    for t in thresholds_deg:
        out[float(t)] = float(np.mean(np.maximum(t - errs, 0.0)) / t * 100.0)
    return out


def cumulative_occlusion_curve(
    entries: Sequence[tuple[float, float]],
) -> list[tuple[int, float]]:
    """Running mean pose error with pairs sorted by occlusion ratio.

    entries: (occlusion_ratio, pose_error_deg) per pair. Returns
    [(1, mean of easiest), (2, ...), ..., (N, mean of all)]. Ties on the
    ratio are ordered by error so the output is permutation-invariant.
    """
    if len(entries) == 0:
        raise EmptyListError("no pairs to accumulate")
    ordered = sorted(entries, key=lambda p: (p[0], p[1]))
    errs = np.array([e for _, e in ordered], dtype=np.float64)
    means = np.cumsum(errs) / np.arange(1, len(errs) + 1)
    return [(i + 1, float(m)) for i, m in enumerate(means)]
