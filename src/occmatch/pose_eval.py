"""Relative-pose recovery from matches and the evaluation metrics on top.

Pixel matches are normalized by the intrinsics, an essential matrix is
estimated with an 8-point solver inside RANSAC (Sampson-distance inliers,
least-squares refit on the consensus set), and (R, t) with unit baseline is
chosen by the cheirality test. Errors are angular for both rotation and
translation direction (the essential matrix fixes t only up to sign and
scale); a pair's pose error is the max of the two.

RANSAC draws, solves and scores its hypotheses in chunks, with the result
of the one-at-a-time loop, bit for bit. The 8-point sampler is this
module's own: Floyd's algorithm, then a Fisher-Yates shuffle, over bounded
draws from one Generator.integers call per chunk. It draws what
Generator.choice(n, 8, replace=False) draws on NumPy 2.4 and returns the
same samples, so a later NumPy change to choice cannot move seeded outputs.
A chunk's 8-point systems are solved by one batched QR: the null vector of
each 8 x 9 system is the last column of the complete Q of its transpose.
A rank-deficient sample (repeated points; coplanar or zero-baseline
points) has a null space of more than one dimension, so it keeps the SVD,
as does the refit on the consensus, which decides E, R, t and the inliers.
sampson_distance scores one matrix or a stack the same way, with one
(B, 3, 3) @ (3, N) product per side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    EmptyListError,
    InsufficientMatchesError,
    ZeroTranslationError,
)
from .geometry import CameraIntrinsics, PoseSE3, unproject_points

# RANSAC solves and scores its hypotheses in chunks: the first is small
# because well-conditioned pairs stop after a few draws; each next chunk
# doubles, up to a cap that bounds the (chunk, N) distance array.
_FIRST_CHUNK = 8
_MAX_CHUNK = 64
# An 8-point system whose QR factor R has a diagonal entry at most this
# times its largest is solved by SVD instead (see _null_vectors).
_RANK_TOL = 1e-10


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
        if self.rng_seed < 0:  # numpy's default_rng takes no negative seed
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass(frozen=True)
class PoseErrorReport:
    rotation_deg: float
    translation_deg: float
    pose_deg: float
    inlier_count: int = 0


def essential_from_pose(t_ba: PoseSE3) -> np.ndarray:
    """Ground-truth essential matrix [t]x R from the A->B transform,
    normalized to unit Frobenius scale (zero baseline gives the zero matrix)."""
    t = t_ba.t
    tx = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]])
    e = tx @ t_ba.R
    n = np.linalg.norm(e)
    return e / n if n > 0 else e


def _homogeneous(x: np.ndarray) -> np.ndarray:
    """(N, 3) rows (x, y, 1) of (N, 2) points; (N, 3) rows pass as they are."""
    x = np.asarray(x, dtype=np.float64)
    return x if x.shape[1] == 3 else np.column_stack([x, np.ones(len(x))])


def sampson_distance(e: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """First-order epipolar distance of normalized correspondences.

    e: (3, 3) or a stack (B, 3, 3); xa, xb: (N, 2) normalized coordinates,
    or the same points as (N, 3) homogeneous rows (x, y, 1). Returns the
    (N,) or (B, N) distances
    |xb' E xa| / sqrt((E xa)_1^2 + (E xa)_2^2 + (E' xb)_1^2 + (E' xb)_2^2).
    A point so far out that the denominator overflows is at distance inf,
    so it never counts as an inlier.

    Each side is one (B, 3, 3) @ (3, N) product, or (3, 3) @ (3, N) for a
    single matrix, so a matrix in a stack scores bit for bit as it does
    alone.
    """
    xa_t, xb_t = _homogeneous(xa).T, _homogeneous(xb).T
    with np.errstate(over="ignore", invalid="ignore"):
        # Row k of E xa, resp. E' xb: component k for every point.
        e_xa = e @ xa_t
        et_xb = np.swapaxes(e, -1, -2) @ xb_t
        num = np.abs((xb_t[0] * e_xa[..., 0, :] + xb_t[1] * e_xa[..., 1, :]) + xb_t[2] * e_xa[..., 2, :])
        den = np.sqrt(e_xa[..., 0, :] ** 2 + e_xa[..., 1, :] ** 2
                      + et_xb[..., 0, :] ** 2 + et_xb[..., 1, :] ** 2)
        return np.where(np.isfinite(den), num / np.maximum(den, 1e-300), np.inf)


def _conditioning(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hartley transforms (B, 3, 3) that centre each (B, m, 2) point set and
    scale its mean distance from the centroid to sqrt(2), and a (B,) mask
    that is False where a set has no spread or one that overflows (its
    transform then takes the spread as 1, so that it stays finite)."""
    centroid = x.mean(axis=1)
    with np.errstate(over="ignore"):
        spread = np.sqrt(((x - centroid[:, None]) ** 2).sum(axis=2)).mean(axis=1)
    ok = np.isfinite(spread) & (spread >= 1e-12)
    s = np.sqrt(2.0) / np.where(ok, spread, 1.0)
    t = np.zeros((len(x), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = s
    t[:, 0, 2] = -s * centroid[:, 0]
    t[:, 1, 2] = -s * centroid[:, 1]
    t[:, 2, 2] = 1.0
    return t, ok


def _null_vectors(a: np.ndarray) -> np.ndarray:
    """(B, 9) unit null vectors of the (B, m, 9) homogeneous systems, m >= 8.

    An 8-row system takes the last column of the complete QR factor of its
    transpose: that column is orthogonal to all 8 rows. A system whose R
    has a diagonal entry at most _RANK_TOL times its largest is rank
    deficient, so its null space has more than one dimension and QR and
    SVD would pick different members of it; it keeps the SVD's last right
    singular vector. So does every system of 9 or more rows, through the
    thin SVD.
    """
    if a.shape[1] > 8:
        return np.linalg.svd(a, full_matrices=False)[2][:, -1]
    q, r = np.linalg.qr(np.swapaxes(a, 1, 2), mode="complete")
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    # Written so that a NaN diagonal also falls back to the SVD.
    deficient = ~(diag > _RANK_TOL * diag.max(axis=1, keepdims=True)).all(axis=1)
    v = q[:, :, -1]
    if deficient.any():
        v[deficient] = np.linalg.svd(a[deficient])[2][:, -1]
    return v


def _eight_point(xa: np.ndarray, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares essential matrices from stacks of >= 8 normalized
    correspondences.

    xa, xb: (B, m, 2). Hartley-conditions each point set, takes each
    homogeneous system's null vector (_null_vectors), and projects onto the
    essential manifold (equal singular values, rank 2). Returns the
    (B, 3, 3) matrices at unit Frobenius norm and a (B,) mask that is False
    for degenerate sets, whose matrices mean nothing. A degenerate set
    neither raises nor warns.
    """
    b, m = xa.shape[:2]
    t_a, ok_a = _conditioning(xa)
    t_b, ok_b = _conditioning(xb)
    ones = np.ones((b, m, 1))
    xa_h = np.concatenate([xa, ones], axis=2) @ np.swapaxes(t_a, 1, 2)
    xb_h = np.concatenate([xb, ones], axis=2) @ np.swapaxes(t_b, 1, 2)
    # One row per correspondence: coefficients of E11..E33 (row-major).
    a = (xb_h[:, :, :, None] * xa_h[:, :, None, :]).reshape(b, m, 9)
    e = np.swapaxes(t_b, 1, 2) @ _null_vectors(a).reshape(b, 3, 3) @ t_a
    u, s, vt = np.linalg.svd(e)
    valid = ok_a & ok_b & (s[:, 1] >= 1e-12)
    sigma = np.zeros((b, 3, 3))
    sigma[:, 0, 0] = sigma[:, 1, 1] = (s[:, 0] + s[:, 1]) / 2.0
    e = u @ sigma @ vt
    # Frobenius norms as the dot product of each flattened matrix with
    # itself, the way np.linalg.norm computes one matrix's, to the last bit.
    flat = e.reshape(b, 1, 9)
    norm = np.sqrt(flat @ np.swapaxes(flat, 1, 2))[:, 0, 0]
    return e / np.where(valid, norm, 1.0)[:, None, None], valid


def _front_counts(r: np.ndarray, t: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> tuple[int, int]:
    """Points in front of both cameras for (R, t) and for (R, -t), from one
    linear triangulation.

    Negating t negates only the last column of each DLT system, so its
    null vector comes back with w negated and both depths negated too. A
    point whose |w| is clamped to 1e-300 keeps its position instead, and
    only the sign of t_z in its B depth changes.
    """
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
    tiny = np.abs(w) < 1e-300
    pts = xw[:, :3] / np.where(tiny, 1e-300, w)[:, None]
    z1 = pts[:, 2]
    z2_r = pts @ r[2]
    z2 = z2_r + t[2]
    front = (z1 > 0) & (z2 > 0)
    front_neg = np.where(tiny, (z1 > 0) & (z2_r - t[2] > 0), (z1 < 0) & (z2 < 0))
    return int(np.count_nonzero(front)), int(np.count_nonzero(front_neg))


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
    for r_cand in (r1, r2):
        for t_cand, front in zip((t, -t), _front_counts(r_cand, t, xa, xb)):
            if best is None or front > best[0]:
                best = (front, r_cand, t_cand)
    if best is None or best[0] == 0:
        raise DegenerateConfigurationError("no decomposition places any point in front of both cameras")
    return best[1], best[2]


def _draw_samples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, 8) samples of distinct indices below n.

    Each sample is what rng.choice(n, 8, replace=False) returns on NumPy
    2.4, from the same draws in the same order: Floyd's algorithm (draw j
    in [0, n - 8 + k], keep it unless already taken, else take n - 8 + k),
    then a Fisher-Yates shuffle (swap slot i with a draw in [0, i], i = 7
    down to 1). One bounded rng.integers call makes the 15 draws of every
    sample, and both steps run over the whole chunk at once.
    """
    highs = np.concatenate([np.arange(n - 7, n + 1), np.arange(8, 1, -1)])
    draws = rng.integers(0, highs, size=(count, 15))
    samples = np.empty((count, 8), dtype=np.int64)
    for k in range(8):
        taken = (samples[:, :k] == draws[:, k, None]).any(axis=1)
        samples[:, k] = np.where(taken, n - 8 + k, draws[:, k])
    rows = np.arange(count)
    for i, j in zip(range(7, 0, -1), draws[:, 8:].T):
        swapped = samples[rows, j]
        samples[rows, j] = samples[:, i]
        samples[:, i] = swapped
    return samples


def _scored_hypotheses(
    xa_h: np.ndarray, xb_h: np.ndarray, cfg: RansacConfig
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """(iteration, inlier count, Sampson distances, inlier mask) of each
    non-degenerate RANSAC hypothesis, in draw order, for (N, 3) homogeneous
    normalized points.

    Each iteration draws one 8-point sample from the seeded generator; the
    samples are drawn, solved and scored a chunk at a time, so a consumer
    that stops early leaves the rest of the chunk unused and draws no more.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    n = len(xa_h)
    xa, xb = xa_h[:, :2], xb_h[:, :2]
    start, size = 0, _FIRST_CHUNK
    while start < cfg.max_iterations:
        stop = min(start + size, cfg.max_iterations)
        samples = _draw_samples(rng, n, stop - start)
        e, valid = _eight_point(xa[samples], xb[samples])
        d = sampson_distance(e, xa_h, xb_h)
        inliers = d < cfg.inlier_threshold
        counts = np.count_nonzero(inliers, axis=1).tolist()
        for i in np.flatnonzero(valid).tolist():
            yield start + i, counts[i], d[i], inliers[i]
        start, size = stop, min(2 * size, _MAX_CHUNK)


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
    px_a = np.asarray(px_a, dtype=np.float64).reshape(-1, 2)
    px_b = np.asarray(px_b, dtype=np.float64).reshape(-1, 2)
    # The pixels unprojected at unit depth: homogeneous rows (x, y, 1) of
    # the normalized image coordinates.
    xa_h = unproject_points(px_a[:, 0], px_a[:, 1], np.ones(len(px_a)), k_a)
    xb_h = unproject_points(px_b[:, 0], px_b[:, 1], np.ones(len(px_b)), k_b)
    xa, xb = xa_h[:, :2], xb_h[:, :2]
    n = len(xa)
    if n != len(xb):
        raise InsufficientMatchesError(f"match arrays disagree in length: {n} vs {len(xb)}")
    if n < 8:
        raise InsufficientMatchesError(f"need at least 8 matches, got {n}")

    best_count = -1
    best_err = np.inf
    best_inliers: Optional[np.ndarray] = None
    # Standard adaptive stop once the consensus explains the data: the
    # iterations needed at the best inlier share, updated with best_count.
    needed = np.inf
    for it, count, d, inliers in _scored_hypotheses(xa_h, xb_h, cfg):
        # Only a hypothesis that can become the best needs its error sum.
        if count >= best_count:
            err = float(d[inliers].sum())
            if count > best_count or err < best_err:
                if count > best_count and count >= 8:
                    w_in = count / n
                    needed = np.log1p(-cfg.confidence) / np.log1p(-min(w_in**8, 1.0 - 1e-15))
                best_count, best_err, best_inliers = count, err, inliers
        if it + 1 >= needed:
            break
    if best_inliers is None or best_count < 8:
        raise DegenerateConfigurationError("RANSAC found no 8-point consensus")

    e, valid = _eight_point(xa[None, best_inliers], xb[None, best_inliers])
    if not valid[0]:
        raise DegenerateConfigurationError("inlier set is degenerate for the 8-point solve")
    e = e[0]
    inliers = sampson_distance(e, xa_h, xb_h) < cfg.inlier_threshold
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
