"""Coarse-to-fine feature matching with rotation-aligned descriptors.

Coarse feature grids are smoothed by a 5-tap neighborhood average whose four
off-center taps sit at theta + k * 90 degrees (bilinear resampling in index
space, replicate padding), folded into one 3x3 stencil applied by shifted
adds. The stencil is symmetric under the square group, so theta only sets
its weights and nothing in the grid turns (see rotation_align). Scores are
temperature-scaled inner products, and confidences come from a dual softmax
whose column sums are kept online, in one pass over each score matrix's row
blocks. Per entry the candidate rotation branch (0/0, theta/0, 0/theta, each
rotation listed once modulo 360 degrees) with the highest confidence is
picked. Mutual nearest neighbours above threshold are refined to sub-pixel
points with an expectation over a local fine-feature correlation window.

Alignment, scores, their exps and the refinement's window products run in
the grids' dtype, float32 as the grid files store it; the norms, the row and
column sums and the confidences are float64.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ChannelMismatchError,
    DegenerateHeatmapError,
    EmptyCandidatesError,
    EmptyGroundTruthError,
    ShapeMismatchError,
    UnknownAngleError,
)
from .geometry import cell_center_px, extent_midpoint
from .numerics import bilinear_sample, gumbel_noise, softmax
from .occupancy import check_grid_size
from .supervision import CoarseMatchSet

_LOG_CLAMP = 1e-12
# Rows of a score matrix per product (see score_matrix).
_BLOCK_ROWS = 256
# Matches refined per stacked window product in match_pair.
_REFINE_CHUNK = 64
# 8-byte values per candidate entry at the peak of match_pair's selection:
# traced at about 51 bytes at match_threshold 0.
_CANDIDATE_VALUES = 7


@dataclass(frozen=True)
class FeatureGrid:
    """Dense per-cell descriptors, values (C, h, w); each cell spans
    `stride` x `stride` pixels.

    The values keep the floating dtype they are given (float32 as the grid
    files store it, or float64); any other dtype is promoted to at least
    float32, so integers become float64.
    """

    values: np.ndarray = field(repr=False)
    stride: int = 8

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        v = np.asarray(v, dtype=np.result_type(v, np.float32))
        if v.ndim != 3:
            raise ValueError(f"feature values must be (C, h, w), got shape {v.shape}")
        if v.shape[0] < 1:
            raise ValueError(f"channels must be >= 1, got {v.shape[0]}")
        # Within 1/8 of the dtype's range, so that no sum of the 5-tap
        # averages in the grids derived from this one (_derived) overflows.
        limit = float(np.finfo(v.dtype).max) / 8.0
        if v.size and not (v.max() <= limit and v.min() >= -limit):
            raise ValueError(f"feature values must be finite and at most {limit:.3g} in magnitude")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        object.__setattr__(self, "values", v)

    @classmethod
    def _derived(cls, values: np.ndarray, stride: int) -> FeatureGrid:
        """A grid computed from a checked one: (C, h, w) values, float32 or
        float64, taken as they are, without the finiteness pass."""
        grid = object.__new__(cls)
        object.__setattr__(grid, "values", values)
        object.__setattr__(grid, "stride", stride)
        return grid

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.values.shape[1], self.values.shape[2]


@dataclass(frozen=True)
class MatchingConfig:
    """Knobs of the coarse matcher.

    temperature scales the inner-product scores (Lo-style dual softmax);
    angles is the candidate rotation set in degrees, 0 must be readable as
    the un-rotated branch. The sharp temperatures suit the synthetic
    descriptors, whose matched inner products sit far above the sampling
    noise floor; a wide fine window keeps the sub-pixel expectation stable
    under 30 degree roll.
    """

    temperature: float = 0.02
    angles: tuple[float, ...] = (0.0, 30.0)
    match_threshold: float = 0.2
    fine_window: int = 7
    fine_temperature: float = 0.05

    def __post_init__(self) -> None:
        floor = 2.0 / float(np.finfo(np.float32).max)  # unit float32 scores over T differ by <= 2/T
        for name in ("temperature", "fine_temperature"):
            t = getattr(self, name)
            if not floor <= t < np.inf:
                raise ValueError(f"{name} must be finite and at least {floor:.4g}, got {t}")
        if not self.angles or not all(math.isfinite(a) for a in self.angles):
            raise UnknownAngleError(f"angle set must be finite and non-empty, got {self.angles}")
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ValueError(f"match_threshold must lie in [0, 1], got {self.match_threshold}")
        if self.fine_window < 1 or self.fine_window % 2 == 0:
            raise ValueError(f"fine_window must be odd and positive, got {self.fine_window}")

    def branches(self) -> list[tuple[float, float]]:
        """Rotation pairs (theta_a, theta_b): un-rotated plus one-sided
        rotations for every non-zero configured angle. Rotating both views
        by the same angle would be redundant with (0, 0).

        Angles equal modulo 360 are one rotation, listed once as first
        configured; one that is a multiple of 360 is the (0, 0) branch."""
        out = [(0.0, 0.0)]
        seen = {0.0}
        for a in self.angles:
            if a % 360.0 not in seen:
                seen.add(a % 360.0)
                out.append((a, 0.0))
                out.append((0.0, a))
        return out


@dataclass(frozen=True, eq=False)
class Matches:
    """A pair's matches as columns, as matches.jsonl stores them: patch
    indices (n,) intp, confidence (n,) float64, and the refined pixel points
    (u, v) and rotation branch (theta_a, theta_b), each (n, 2) float64.

    A NaN row is a missing value, and a column left out is all missing.
    The file readers refuse non-finite points and branches, so a NaN is
    never a real one.
    """

    patch_a: np.ndarray
    patch_b: np.ndarray
    confidence: np.ndarray
    point_a: Optional[np.ndarray] = None
    point_b: Optional[np.ndarray] = None
    branch: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.patch_a)
        for name, dtype, shape in (("patch_a", np.intp, (n,)), ("patch_b", np.intp, (n,)),
                                   ("confidence", np.float64, (n,)), ("point_a", np.float64, (n, 2)),
                                   ("point_b", np.float64, (n, 2)), ("branch", np.float64, (n, 2))):
            value = getattr(self, name)
            arr = np.full(shape, np.nan) if value is None else np.asarray(value, dtype)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.patch_a.size


def neighborhood_mean(f: FeatureGrid) -> FeatureGrid:
    """5-tap average of each cell with its 4 axis neighbors.

    Out-of-grid neighbors replicate the border cell, so a border tap
    degenerates to the center value.
    """
    v = f.values
    padded = np.pad(v, ((0, 0), (1, 1), (1, 1)), mode="edge")
    out = (
        padded[:, 1:-1, 1:-1]
        + padded[:, :-2, 1:-1]
        + padded[:, 2:, 1:-1]
        + padded[:, 1:-1, :-2]
        + padded[:, 1:-1, 2:]
    ) / 5.0
    return FeatureGrid._derived(out, f.stride)


def _stencil(theta: float) -> np.ndarray:
    """(3, 3) float64 weights of rotation_align's taps around a cell: the
    centre plus the four bilinear taps at unit distance, over 5."""
    taps = theta + np.arange(4) * (math.pi / 2.0)
    # Sampling the nine 3x3 impulse grids at the centre cell plus each tap's
    # offset gives each of the nine cells' weight in that tap.
    weights = bilinear_sample(np.eye(9).reshape(9, 3, 3), 1.0 + np.cos(taps),
                              1.0 + np.sin(taps)).sum(axis=1)
    weights[4] += 1.0
    return (weights / 5.0).reshape(3, 3)


def rotation_align(f: FeatureGrid, theta_deg: float) -> FeatureGrid:
    """5-tap average with the four off-center taps rotated by theta.

    Tap k (k = 0..3) samples the grid bilinearly at
    (i + cos(theta + k*pi/2), j + sin(theta + k*pi/2)); replicate padding
    at the borders. theta = 0 reproduces neighborhood_mean. The four taps
    together are symmetric under the square group, so theta only sets the
    stencil's weights (each corner's is |sin 2 theta| / 10): 30, -30, 60
    and 120 degrees give the same stencil, and neither the cell indices
    nor the sampled content turn with theta (ROADMAP item 2).

    Every cell samples the same offsets, so the taps fold into one 3x3
    stencil, applied to the edge-padded grid in the grid's dtype (edge
    padding is the clamp to the border, as each offset is at most 1).
    """
    if not math.isfinite(theta_deg):
        raise UnknownAngleError(f"rotation angle must be finite, got {theta_deg}")
    v = f.values
    c, h, w = v.shape
    width = w + 2
    # Flat over each channel, stencil cell (di, dj), the neighbour at offset
    # (di - 1, dj - 1), of output cell x is padded cell x + di * width + dj.
    # The two pad columns of each row come out as junk and are dropped.
    padded = np.pad(v, ((0, 0), (1, 1), (1, 1)), mode="edge").reshape(c, -1)
    n = h * width - 2
    out = np.zeros((c, h * width), dtype=v.dtype)
    acc, term = out[:, :n], np.empty((c, n), dtype=v.dtype)
    weights = _stencil(math.radians(theta_deg)).astype(v.dtype)
    for (di, dj), weight in np.ndenumerate(weights):
        if weight:
            start = di * width + dj
            acc += np.multiply(padded[:, start:start + n], weight, out=term)
    return FeatureGrid._derived(out.reshape(c, h, width)[:, :, :w], f.stride)


def score_matrix(
    f_a: FeatureGrid, f_b: FeatureGrid, temperature: float, block: Optional[int] = None
) -> np.ndarray:
    """Temperature-scaled inner products of flattened (row-major) cells.

    Returns (n_a, n_b) with S[i, j] = <f_a_i, f_b_j> / temperature, in the
    grids' dtype, or with `block` only rows [block * _BLOCK_ROWS, (block + 1) * _BLOCK_ROWS) of it,
    the blocks match_pair works through.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if f_a.channels != f_b.channels:
        raise ChannelMismatchError(
            f"channel counts disagree: {f_a.channels} vs {f_b.channels}"
        )
    fa = f_a.values.reshape(f_a.channels, -1)
    fb = f_b.values.reshape(f_b.channels, -1)
    if block is not None:
        fa = fa[:, block * _BLOCK_ROWS:(block + 1) * _BLOCK_ROWS]
    return fa.T @ fb / temperature


def dual_softmax(s: np.ndarray) -> np.ndarray:
    """Elementwise product of row-wise and column-wise softmax of s.

    Entries lie strictly inside (0, 1) for finite s; adding a constant to
    all of s changes nothing.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError(f"score matrix must be 2-d, got shape {s.shape}")
    return softmax(s, axis=1) * softmax(s, axis=0)


def dual_softmax_jacobian(s: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of dual_softmax: out[i, j, k, l] = dP[i,j]/dS[k,l].

    With r/c the row/column softmax factors and P = r * c:
      dP[i,j]/dS[k,l] = 1[i=k] P[i,j] (1[j=l] - r[i,l])
                      + 1[j=l] P[i,j] (1[i=k] - c[k,j]).
    """
    s = np.asarray(s, dtype=np.float64)
    r = softmax(s, axis=1)
    c = softmax(s, axis=0)
    p = r * c
    na, nb = s.shape
    eye_a = np.eye(na)
    eye_b = np.eye(nb)
    term_row = eye_a[:, None, :, None] * p[:, :, None, None] * (
        eye_b[None, :, None, :] - r[:, None, None, :]
    )
    term_col = eye_b[None, :, None, :] * p[:, :, None, None] * (
        eye_a[:, None, :, None] - c.T[None, :, :, None]
    )
    return term_row + term_col


def gumbel_select(candidates: Sequence[np.ndarray], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pick one candidate matrix per entry by a Gumbel-max draw.

    Per entry, candidate k scores log p_k plus Gumbel noise from the seeded
    generator, and the highest score wins. Returns the winning candidate's
    value and index per entry; a single candidate passes through unchanged.
    """
    if len(candidates) == 0:
        raise EmptyCandidatesError("no candidate matrices to select from")
    shapes = {np.asarray(c).shape for c in candidates}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"candidate shapes disagree: {sorted(shapes)}")
    stack = np.stack([np.asarray(c, dtype=np.float64) for c in candidates])
    rng = np.random.default_rng(seed)
    scores = np.log(np.maximum(stack, 1e-300)) + gumbel_noise(rng, stack.shape)
    choice = np.argmax(scores, axis=0)
    return np.take_along_axis(stack, choice[None], axis=0)[0], choice


def extract_matches(
    p_hat: np.ndarray,
    threshold: float,
    entries: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> Matches:
    """Mutual nearest entries of the selected confidence matrix at or
    above threshold.

    (i, j) is kept only when j is the argmax of row i and i the argmax of
    column j (ties resolved to the smaller index, numpy argmax order).
    Output is sorted by (patch_a, patch_b), its points and branch missing.

    With entries=(rows, cols), p_hat holds only the values at those
    entries, and every entry left out must lie below threshold. Such an
    entry can neither qualify nor beat or tie one that does, so the
    result is the one the dense matrix gives.
    """
    p = np.asarray(p_hat, dtype=np.float64)
    if entries is not None:
        return _extract_listed(p, *entries, threshold)
    rows = np.arange(p.shape[0])
    row_best = np.argmax(p, axis=1)
    best = p[rows, row_best]
    keep = (np.argmax(p, axis=0)[row_best] == rows) & (best >= threshold)
    return Matches(rows[keep], row_best[keep], best[keep])


def _best_per_group(group: np.ndarray, other: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mask of each group's highest value, ties to the smallest `other`."""
    order = np.lexsort((other, -v, group))
    first = np.ones(order.size, dtype=bool)
    first[1:] = group[order[1:]] != group[order[:-1]]
    best = np.zeros(order.size, dtype=bool)
    best[order[first]] = True
    return best


def _extract_listed(
    v: np.ndarray, rows: np.ndarray, cols: np.ndarray, threshold: float
) -> Matches:
    keep = v >= threshold
    v, rows, cols = v[keep], np.asarray(rows)[keep], np.asarray(cols)[keep]
    keep = _best_per_group(rows, cols, v) & _best_per_group(cols, rows, v)
    v, rows, cols = v[keep], rows[keep], cols[keep]
    order = np.lexsort((cols, rows))
    return Matches(rows[order], cols[order], v[order])


def _class_nll(p_hat: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    """-mean log confidence over one GT class; 0 for an empty class."""
    if not pairs:
        return 0.0
    idx = np.asarray(pairs, dtype=np.intp)
    vals = p_hat[idx[:, 0], idx[:, 1]]
    if np.any(vals <= _LOG_CLAMP):
        warnings.warn(
            "confidence at ground-truth entries clamped to 1e-12 in the coarse loss",
            RuntimeWarning,
            stacklevel=3,
        )
        vals = np.maximum(vals, _LOG_CLAMP)
    return float(-np.mean(np.log(vals)))


def coarse_loss(p_hat: np.ndarray, gt: CoarseMatchSet, lambda1: float = 1.0) -> float:
    """Negative log-likelihood of the GT matches under the confidences.

    L = nll(vv) + lambda1 * (nll(vo) + nll(ov)); empty classes contribute
    nothing, but all three empty is an error. Confidences at or below the
    1e-12 clamp raise a RuntimeWarning instead of propagating infinities.
    """
    if not (gt.vv or gt.vo or gt.ov):
        raise EmptyGroundTruthError("all ground-truth match classes are empty")
    p = np.asarray(p_hat, dtype=np.float64)
    return (
        _class_nll(p, gt.vv)
        + lambda1 * _class_nll(p, gt.vo)
        + lambda1 * _class_nll(p, gt.ov)
    )


def refine_fine_match(heatmaps: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Expectation-refined locations from a stack of odd square heatmaps.

    Each (w, w) heatmap of the (m, w, w) stack (already non-negative, e.g. a
    softmaxed correlation window) is normalized by its sum; row i of the
    returned (m, 2) array is centers[i] = (u, v) plus the expected (du, dv)
    offset, in the same units as one heatmap cell.
    """
    h = np.asarray(heatmaps, dtype=np.float64)
    if h.ndim != 3 or h.shape[1] != h.shape[2] or h.shape[1] % 2 == 0:
        raise DegenerateHeatmapError(
            f"heatmaps must be a stack of odd squares, got shape {h.shape}")
    if np.any(h < 0):
        raise DegenerateHeatmapError("heatmap entries must be non-negative")
    total = h.sum(axis=(1, 2))
    if not np.all(total > 0):
        raise DegenerateHeatmapError("heatmap mass must be positive")
    half = h.shape[1] // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    w = h / total[:, None, None]
    du = (w.sum(axis=1) * offsets).sum(axis=1)
    dv = (w.sum(axis=2) * offsets).sum(axis=1)
    return np.asarray(centers, dtype=np.float64) + np.column_stack([du, dv])


def total_loss(
    coarse: float, fine: float, occupancy: float,
    lambda3: float = 1.0, lambda4: float = 0.1,
) -> float:
    """Scalar training objective: coarse + lambda3*fine + lambda4*occupancy."""
    return coarse + lambda3 * fine + lambda4 * occupancy


# Margin below log(threshold) within which a shifted score still counts as a
# candidate; it covers the rounding of exp() and log() in the softmax bound.
# A float32 exp lands up to about 2e-7 relative from the exact one (NumPy
# 2.4's vector exp), and log(threshold) rounds to float32 for the test; the
# margin sits well above both, as tests/test_matching.py checks.
_LOG_MARGIN = 1e-6


def _unit_features(f: FeatureGrid) -> FeatureGrid:
    # Norms are summed in float64; the quotient keeps the grid's dtype.
    v = f.values
    norms = np.sqrt(np.einsum("chw,chw->hw", v, v, dtype=np.float64))
    return FeatureGrid._derived(np.divide(v, np.maximum(norms, 1e-12), out=np.empty_like(v)),
                                f.stride)


def _n_cells(f: FeatureGrid) -> int:
    return f.grid_shape[0] * f.grid_shape[1]


def _branch_confidences(
    f_a: FeatureGrid, f_b: FeatureGrid, temperature: float, log_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """One branch's dual-softmax confidences at its candidates, in one pass
    over the row blocks of its score matrix.

    Returns the sorted flat indices of the entries whose confidence can
    reach exp(log_floor), and those confidences: a confidence is at most
    its row-softmax and its column-softmax factor, and each factor at most
    exp(s - max) along its own axis. The row test and the row softmax run
    per block. The column sums are kept online: when a column's maximum
    grows, its running sum is rescaled by exp(old max - new max)
    (Milakov and Gimelshein 2018). The column test runs on the survivors
    once the maxima are complete. Scores and their exps keep the grids'
    dtype; the sums and the confidences are float64.
    """
    nb = _n_cells(f_b)
    col_max = np.full(nb, -np.inf, dtype=f_b.values.dtype)
    col_sum = np.zeros(nb)
    flat, score, row_factor = [], [], []
    for block, lo in enumerate(range(0, _n_cells(f_a), _BLOCK_ROWS)):
        s = score_matrix(f_a, f_b, temperature, block=block)
        new_max = np.maximum(col_max, s.max(axis=0))
        col_sum *= np.exp(col_max - new_max)
        col_max = new_max
        e = s - col_max
        col_sum += np.exp(e, out=e).sum(axis=0, dtype=np.float64)
        np.subtract(s, s.max(axis=1, keepdims=True), out=e)
        local = np.flatnonzero(e >= log_floor)
        np.exp(e, out=e)
        flat.append(local + lo * nb)
        score.append(s.ravel()[local])
        row_factor.append(e.ravel()[local] / e.sum(axis=1, dtype=np.float64)[local // nb])
    flat, score, row_factor = map(np.concatenate, (flat, score, row_factor))
    col = flat % nb
    keep = score - col_max[col] >= log_floor
    col = col[keep]
    return flat[keep], row_factor[keep] * (np.exp(score[keep] - col_max[col]) / col_sum[col])


def _anchor_cells(patch: np.ndarray, coarse: FeatureGrid, fine: FeatureGrid) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of each patch's middle fine cell: the extent midpoint of
    the fine cells it covers, so a partial edge patch anchors inside the
    fine grid."""
    ratio = coarse.stride // fine.stride
    row, col = np.divmod(patch, coarse.grid_shape[1])
    n_rows, n_cols = fine.grid_shape
    return extent_midpoint(row, ratio, n_rows), extent_midpoint(col, ratio, n_cols)


def _refine(
    patch_a: np.ndarray, patch_b: np.ndarray, coarse_a: FeatureGrid, coarse_b: FeatureGrid,
    fine_a: FeatureGrid, fine_b: FeatureGrid, cfg: MatchingConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) refined A and B pixel points of the matched patches (patch_a[i],
    patch_b[i]), _REFINE_CHUNK matches per window product."""
    if coarse_a.stride % fine_a.stride or coarse_b.stride % fine_b.stride:
        raise ValueError("coarse stride must be a multiple of the fine stride")
    check_grid_size((fine_b.channels, _REFINE_CHUNK, cfg.fine_window, cfg.fine_window),
                    f"fine_window {cfg.fine_window}", "stack of correlation windows")
    ar, ac = _anchor_cells(patch_a, coarse_a, fine_a)
    br, bc = _anchor_cells(patch_b, coarse_b, fine_b)
    hb, wb = fine_b.grid_shape
    half = cfg.fine_window // 2
    steps = np.arange(-half, half + 1)
    refined = np.empty((patch_a.size, 2))
    for lo in range(0, patch_a.size, _REFINE_CHUNK):
        at = slice(lo, lo + _REFINE_CHUNK)
        anchors = fine_a.values[:, ar[at], ac[at]]
        channels, n = anchors.shape
        # Windows around B's anchors: cells off the grid get no weight (-inf).
        rows, cols = br[at, None] + steps, bc[at, None] + steps
        rr, cc = np.clip(rows, 0, hb - 1), np.clip(cols, 0, wb - 1)
        windows = fine_b.values[:, rr[:, :, None], cc[:, None, :]].reshape(channels, n, -1)
        corr = (anchors.T[:, None, :] @ windows.transpose(1, 0, 2))[:, 0]
        corr[((rr != rows)[:, :, None] | (cc != cols)[:, None, :]).reshape(n, -1)] = -np.inf
        heat = softmax(corr / cfg.fine_temperature, axis=1)
        refined[at] = refine_fine_match(heat.reshape(n, cfg.fine_window, cfg.fine_window),
                                        np.column_stack([bc[at], br[at]]))
    return (cell_center_px(np.column_stack([ac, ar]), fine_a.stride),
            cell_center_px(refined, fine_b.stride))


def match_pair(
    coarse_a: FeatureGrid,
    coarse_b: FeatureGrid,
    fine_a: Optional[FeatureGrid] = None,
    fine_b: Optional[FeatureGrid] = None,
    cfg: MatchingConfig = MatchingConfig(),
) -> Matches:
    """Full coarse-to-fine matching of one image pair.

    Takes per entry the rotation branch with the highest confidence (the
    lower branch index on a tie), extracts mutual nearest matches, and
    (when fine grids are provided) refines each match to sub-pixel points:
    the A point anchors at the middle fine cell of the matched patch's
    extent, the B point comes from the expectation over a softmaxed
    fine-correlation window around B's anchor (without fine grids the
    points stay missing).

    The result equals extract_matches(<every branch's dense dual_softmax>
    .max(axis=0), ...), each match's branch being the stack's argmax(axis=0)
    there, up to the rounding of the column sums. Only candidate entries,
    those that can reach the threshold in some branch, are looked at: no
    other entry can qualify, nor beat or tie one that does in the mutual
    check. A branch's confidence at an entry it does not list is below the
    threshold, so it never wins there, and each branch needs only its own
    candidates, found in one pass over its score matrix's row blocks. So no
    Na x Nb array is alive at any point. The refinement runs _REFINE_CHUNK
    matches at a time: one window gather, one stacked product and one
    softmax per chunk.
    """
    branches = cfg.branches()
    # Each (view, angle) is aligned once; the branches share the 0-degree
    # grids. Re-normalize after averaging: the 5-tap mean shrinks vector
    # norms unevenly, and the scores should compare directions only.
    bar_a = {t: _unit_features(rotation_align(coarse_a, t))
             for t in dict.fromkeys(ta for ta, _ in branches)}
    bar_b = {t: _unit_features(rotation_align(coarse_b, t))
             for t in dict.fromkeys(tb for _, tb in branches)}
    nb = _n_cells(coarse_b)

    threshold = cfg.match_threshold
    if threshold == 0:  # every entry of every branch is a candidate
        check_grid_size((len(branches), _n_cells(coarse_a), nb, _CANDIDATE_VALUES),
                        "match_threshold 0", "set of candidate values")
    log_floor = math.log(threshold) - _LOG_MARGIN if threshold > 0 else -math.inf
    index, confidence = zip(*(
        _branch_confidences(bar_a[theta_a], bar_b[theta_b], cfg.temperature, log_floor)
        for theta_a, theta_b in branches
    ))
    branch = np.repeat(np.arange(len(branches)), [i.size for i in index])
    index, confidence = np.concatenate(index), np.concatenate(confidence)
    best = _best_per_group(index, branch, confidence)
    index, confidence, branch = index[best], confidence[best], branch[best]
    matches = extract_matches(confidence, threshold, entries=np.divmod(index, nb))
    order = np.argsort(index)
    chosen = branch[order[np.searchsorted(index, matches.patch_a * nb + matches.patch_b,
                                          sorter=order)]]
    point_a = point_b = None
    if fine_a is not None and fine_b is not None:
        point_a, point_b = _refine(matches.patch_a, matches.patch_b, coarse_a, coarse_b,
                                   fine_a, fine_b, cfg)
    return replace(matches, point_a=point_a, point_b=point_b, branch=np.array(branches)[chosen])
