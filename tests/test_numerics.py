"""Stable softmax, its Jacobian, bilinear sampling, and Gumbel noise."""

import math

import numpy as np

from occmatch.numerics import bilinear_sample, gumbel_noise, softmax, softmax_jacobian


def brute_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(np.asarray(z, dtype=np.float64))
    return e / e.sum()


class TestSoftmax:
    def test_two_equal_logits_split_evenly(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_log_two_gap_gives_two_thirds(self):
        p = softmax(np.array([math.log(2.0), 0.0]))
        assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0])

    def test_matches_direct_formula_on_random_input(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=17)
        assert np.max(np.abs(softmax(z) - brute_softmax(z))) < 1e-12

    def test_rows_sum_to_one_even_for_huge_logits(self):
        z = np.array([[1000.0, 1001.0], [-1000.0, -999.0]])
        p = softmax(z, axis=1)
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(4, 6))
        assert np.allclose(softmax(z, axis=1), softmax(z + 123.4, axis=1))

    def test_axis_zero_normalizes_columns(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(5, 3))
        assert np.allclose(softmax(z, axis=0).sum(axis=0), 1.0)


class TestSoftmaxJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(21)
        z = rng.normal(size=6)
        jac = softmax_jacobian(z)
        eps = 1e-6
        for j in range(6):
            zp, zm = z.copy(), z.copy()
            zp[j] += eps
            zm[j] -= eps
            fd = (softmax(zp) - softmax(zm)) / (2 * eps)
            assert np.max(np.abs(jac[:, j] - fd)) < 1e-9

    def test_rows_sum_to_zero(self):
        # Softmax outputs always sum to 1, so derivatives along any input
        # direction must cancel.
        rng = np.random.default_rng(22)
        jac = softmax_jacobian(rng.normal(size=(2, 5)))
        assert jac.shape == (2, 5, 5)
        assert np.max(np.abs(jac.sum(axis=-2))) < 1e-12


class TestBilinearSample:
    def test_constant_grid_samples_constant(self):
        grid = np.full((2, 4, 5), 3.25)
        out = bilinear_sample(grid, np.array([0.3, 2.9]), np.array([0.0, 4.0]))
        assert out.shape == (2, 2)
        assert np.all(out == 3.25)

    def test_cell_midpoint_averages_four_corners(self):
        grid = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = bilinear_sample(grid, np.array([0.5]), np.array([0.5]))
        assert np.allclose(out, [(1.0 + 2.0 + 3.0 + 4.0) / 4.0])

    def test_quarter_offset_weights_linearly(self):
        grid = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = bilinear_sample(grid, np.array([0.0]), np.array([0.25]))
        assert np.allclose(out, [1.25])

    def test_out_of_range_clamps_to_border(self):
        grid = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        low = bilinear_sample(grid, np.array([-5.0]), np.array([-5.0]))
        high = bilinear_sample(grid, np.array([9.0]), np.array([9.0]))
        assert low[0, 0] == 1.0
        assert high[0, 0] == 4.0

    def test_matches_manual_interpolation_on_random_grid(self):
        rng = np.random.default_rng(31)
        grid = rng.normal(size=(3, 6, 7))
        rows = rng.uniform(0, 5, size=20)
        cols = rng.uniform(0, 6, size=20)
        out = bilinear_sample(grid, rows, cols)
        for i in range(20):
            r0, c0 = int(np.floor(rows[i])), int(np.floor(cols[i]))
            fr, fc = rows[i] - r0, cols[i] - c0
            manual = (
                grid[:, r0, c0] * (1 - fr) * (1 - fc)
                + grid[:, r0, min(c0 + 1, 6)] * (1 - fr) * fc
                + grid[:, min(r0 + 1, 5), c0] * fr * (1 - fc)
                + grid[:, min(r0 + 1, 5), min(c0 + 1, 6)] * fr * fc
            )
            assert np.max(np.abs(out[:, i] - manual)) < 1e-12


class TestGumbelNoise:
    def test_same_seed_is_bit_identical(self):
        a = gumbel_noise(np.random.default_rng(5), (100,))
        b = gumbel_noise(np.random.default_rng(5), (100,))
        assert np.array_equal(a, b)

    def test_mean_approaches_euler_mascheroni(self):
        # Gumbel(0, 1) has mean 0.5772...; 200k samples put the sample mean
        # within a few standard errors (sigma = pi/sqrt(6*n) ~ 0.003).
        g = gumbel_noise(np.random.default_rng(6), (200_000,))
        assert abs(g.mean() - 0.5772156649) < 0.01
        assert np.all(np.isfinite(g))
