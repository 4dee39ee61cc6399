"""Shared numerical kernels: stable softmax, its Jacobian, bilinear sampling."""

from __future__ import annotations

import numpy as np


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along `axis`."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_jacobian(z: np.ndarray) -> np.ndarray:
    """Jacobian of softmax over the last axis.

    For input of shape (..., n) returns (..., n, n) with
    J[..., i, j] = d softmax_i / d z_j = p_i (delta_ij - p_j).
    """
    p = softmax(z, axis=-1)
    eye = np.eye(p.shape[-1])
    return p[..., :, None] * (eye - p[..., None, :])


def bilinear_sample(grid: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bilinear interpolation on a (C, H, W) grid with replicate padding.

    `rows`/`cols` are continuous indices of any broadcastable shape;
    coordinates outside [0, H-1] x [0, W-1] clamp to the border value.
    Returns samples of shape (C,) + rows.shape.
    """
    c, h, w = grid.shape
    r = np.clip(np.asarray(rows, dtype=np.float64), 0.0, h - 1.0)
    q = np.clip(np.asarray(cols, dtype=np.float64), 0.0, w - 1.0)
    r0 = np.floor(r).astype(np.intp)
    q0 = np.floor(q).astype(np.intp)
    r1 = np.minimum(r0 + 1, h - 1)
    q1 = np.minimum(q0 + 1, w - 1)
    fr = (r - r0).astype(grid.dtype, copy=False)
    fq = (q - q0).astype(grid.dtype, copy=False)
    top = grid[:, r0, q0] * (1.0 - fq) + grid[:, r0, q1] * fq
    bot = grid[:, r1, q0] * (1.0 - fq) + grid[:, r1, q1] * fq
    return top * (1.0 - fr) + bot * fr


def gumbel_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard Gumbel(0, 1) samples: -log(-log u), u ~ U[0, 1).

    The small epsilon keeps u = 0 draws finite.
    """
    eps = 1e-20
    return -np.log(-np.log(rng.random(shape) + eps) + eps)
