"""Feature smoothing, rotation-sampled alignment, dual-softmax matching,
highest-confidence branch selection, and the loss terms built on them."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from occmatch import matching
from occmatch.cli import main
from occmatch.errors import (
    ChannelMismatchError,
    DegenerateHeatmapError,
    EmptyCandidatesError,
    EmptyGroundTruthError,
    UnknownAngleError,
)
from occmatch.formats import intrinsics_to_json, pose_to_json, scene_to_json, write_json
from occmatch.geometry import PixelPoint, cell_center_px, patch_grid
from occmatch.matching import (
    FeatureGrid,
    MatchingConfig,
    coarse_loss,
    dual_softmax,
    dual_softmax_jacobian,
    extract_matches,
    gumbel_select,
    match_pair,
    neighborhood_mean,
    refine_fine_match,
    rotation_align,
    score_matrix,
    total_loss,
)
from occmatch.numerics import softmax
from occmatch.occupancy import OccupancyConfig
from occmatch.supervision import CoarseMatchSet
from occmatch.synth import FIXTURE_NAMES, make_pair
from test_synth import clutter_pair


def manual_bilinear(grid: np.ndarray, r: float, c: float) -> np.ndarray:
    """Reference bilinear lookup on a (C, H, W) grid with replicate padding."""
    _, h, w = grid.shape
    r = min(max(r, 0.0), h - 1.0)
    c = min(max(c, 0.0), w - 1.0)
    r0, c0 = int(math.floor(r)), int(math.floor(c))
    r1, c1 = min(r0 + 1, h - 1), min(c0 + 1, w - 1)
    fr, fc = r - r0, c - c0
    return (
        grid[:, r0, c0] * (1 - fr) * (1 - fc)
        + grid[:, r0, c1] * (1 - fr) * fc
        + grid[:, r1, c0] * fr * (1 - fc)
        + grid[:, r1, c1] * fr * fc
    )


def per_tap_align(v: np.ndarray, theta_deg: float) -> np.ndarray:
    """Reference rotation alignment, one bilinear tap at a time: the centre
    plus the four taps at (i + cos, j + sin) of theta + k * 90 degrees, each
    read with replicate padding, over 5, in the grid's dtype."""
    _, h, w = v.shape
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    theta = math.radians(theta_deg)
    acc = v.copy()
    for k in range(4):
        r = np.clip(rows + math.cos(theta + k * math.pi / 2.0), 0.0, h - 1.0)
        c = np.clip(cols + math.sin(theta + k * math.pi / 2.0), 0.0, w - 1.0)
        r0, c0 = np.floor(r).astype(np.intp), np.floor(c).astype(np.intp)
        r1, c1 = np.minimum(r0 + 1, h - 1), np.minimum(c0 + 1, w - 1)
        fr, fc = (r - r0).astype(v.dtype), (c - c0).astype(v.dtype)
        acc += ((v[:, r0, c0] * (1 - fc) + v[:, r0, c1] * fc) * (1 - fr)
                + (v[:, r1, c0] * (1 - fc) + v[:, r1, c1] * fc) * fr)
    return acc / 5.0


def unit_columns(channels: int, h: int, w: int, seed: int, stride: int = 8) -> FeatureGrid:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(channels, h, w))
    v /= np.linalg.norm(v, axis=0, keepdims=True)
    return FeatureGrid(v, stride=stride)


def unit_aligned(f: FeatureGrid, theta: float) -> FeatureGrid:
    """rotation_align re-normalized to unit cells, as match_pair scores them."""
    v = rotation_align(f, theta).values
    return FeatureGrid(v / np.maximum(np.linalg.norm(v, axis=0), 1e-12), f.stride)


def as_dtype(f: FeatureGrid, dtype) -> FeatureGrid:
    return FeatureGrid(f.values.astype(dtype), f.stride)


def dense_candidates(fa: FeatureGrid, fb: FeatureGrid, cfg: MatchingConfig) -> list[np.ndarray]:
    """Every branch's dense dual-softmax matrix, built as match_pair defines it,
    in float64 whatever the grids' dtype."""
    fa, fb = as_dtype(fa, np.float64), as_dtype(fb, np.float64)
    return [dual_softmax(score_matrix(unit_aligned(fa, theta_a), unit_aligned(fb, theta_b),
                                      cfg.temperature))
            for theta_a, theta_b in cfg.branches()]


def dense_selection(fa: FeatureGrid, fb: FeatureGrid, cfg: MatchingConfig):
    """Each entry's highest confidence over the dense K x Na x Nb stack and
    the branch index it comes from."""
    stack = np.stack(dense_candidates(fa, fb, cfg))
    return stack.max(axis=0), stack.argmax(axis=0)


def dense_reference(fa: FeatureGrid, fb: FeatureGrid, cfg: MatchingConfig) -> list:
    """(patch_a, patch_b, confidence, branch) of every match, selected and
    extracted on the dense K x Na x Nb stack."""
    p_hat, choice = dense_selection(fa, fb, cfg)
    branches = cfg.branches()
    return [
        (m.patch_a, m.patch_b, m.confidence, branches[choice[m.patch_a, m.patch_b]])
        for m in extract_matches(p_hat, cfg.match_threshold)
    ]


def match_tuples(result) -> list:
    return [(m.patch_a, m.patch_b, m.confidence, m.branch) for m in result.matches]


class TestNeighborhoodMean:
    def test_constant_grid_is_unchanged(self):
        f = FeatureGrid(np.full((3, 4, 5), 2.5), stride=8)
        assert np.array_equal(neighborhood_mean(f).values, f.values)

    def test_single_cell_grid_is_unchanged(self):
        f = FeatureGrid(np.array([[[7.0]]]), stride=8)
        assert np.array_equal(neighborhood_mean(f).values, f.values)

    def test_matches_clamped_five_tap_oracle(self):
        rng = np.random.default_rng(81)
        v = rng.normal(size=(2, 3, 4))
        got = neighborhood_mean(FeatureGrid(v, stride=8)).values
        for i in range(3):
            for j in range(4):
                taps = [
                    v[:, i, j],
                    v[:, max(i - 1, 0), j],
                    v[:, min(i + 1, 2), j],
                    v[:, i, max(j - 1, 0)],
                    v[:, i, min(j + 1, 3)],
                ]
                want = sum(taps) / 5.0
                assert np.max(np.abs(got[:, i, j] - want)) < 1e-12

    def test_ramp_center_keeps_its_value(self):
        # On a linear ramp the four neighbor offsets cancel pairwise.
        v = np.arange(9, dtype=np.float64).reshape(1, 3, 3)
        got = neighborhood_mean(FeatureGrid(v, stride=8)).values
        assert got[0, 1, 1] == 4.0

    def test_stride_is_preserved(self):
        f = FeatureGrid(np.zeros((1, 2, 2)), stride=4)
        assert neighborhood_mean(f).stride == 4


class TestRotationAlign:
    def test_zero_angle_reproduces_neighborhood_mean(self):
        rng = np.random.default_rng(82)
        for _ in range(10):
            f = FeatureGrid(rng.normal(size=(3, 6, 7)), stride=8)
            diff = rotation_align(f, 0.0).values - neighborhood_mean(f).values
            assert np.max(np.abs(diff)) < 1e-9

    def test_constant_grid_invariant_under_any_angle(self):
        f = FeatureGrid(np.full((2, 5, 5), 1.25), stride=8)
        for theta in (13.0, 30.0, 90.0, 181.5):
            assert np.max(np.abs(rotation_align(f, theta).values - 1.25)) < 1e-12

    def test_matches_rotated_tap_oracle_at_thirty_degrees(self):
        rng = np.random.default_rng(83)
        v = rng.normal(size=(2, 5, 6))
        got = rotation_align(FeatureGrid(v, stride=8), 30.0).values
        theta = math.radians(30.0)
        for i in range(5):
            for j in range(6):
                acc = v[:, i, j].copy()
                for k in range(4):
                    acc += manual_bilinear(
                        v,
                        i + math.cos(theta + k * math.pi / 2.0),
                        j + math.sin(theta + k * math.pi / 2.0),
                    )
                assert np.max(np.abs(got[:, i, j] - acc / 5.0)) < 1e-9

    def test_commutes_with_affine_maps(self):
        # The operator is a fixed convex combination of samples, so it maps
        # a*F + b to a*aligned(F) + b.
        rng = np.random.default_rng(84)
        v = rng.normal(size=(2, 5, 5))
        base = rotation_align(FeatureGrid(v, stride=8), 30.0).values
        scaled = rotation_align(FeatureGrid(3.0 * v + 2.0, stride=8), 30.0).values
        assert np.max(np.abs(scaled - (3.0 * base + 2.0))) < 1e-9

    @pytest.mark.parametrize("theta", [0.0, 13.0, 30.0, -77.0, 180.0, 390.0, 1e6])
    def test_stencil_weights_sum_to_one(self, theta):
        weights = matching._stencil(math.radians(theta))
        assert weights.shape == (3, 3) and (weights >= 0).all()
        assert abs(weights.sum() - 1.0) <= 1e-15

    def test_zero_angle_stencil_is_the_five_tap_cross(self):
        cross = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]) / 5.0
        assert np.max(np.abs(matching._stencil(0.0) - cross)) <= 1e-16

    def test_a_full_turn_gives_the_same_grid(self):
        f = unit_columns(16, 7, 9, seed=86)
        for theta in (0.0, 30.0, -77.0, 180.0, 212.5):
            diff = rotation_align(f, theta + 360.0).values - rotation_align(f, theta).values
            assert np.max(np.abs(diff)) <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, 30.0, -77.0, 180.0])
    def test_float32_grid_matches_the_per_tap_reference(self, theta):
        v = unit_columns(128, 30, 40, seed=87).values.astype(np.float32)
        got = rotation_align(FeatureGrid(v), theta).values
        assert got.dtype == np.float32 and got.shape == v.shape
        assert np.max(np.abs(got - per_tap_align(v, theta))) <= 1e-6

    @pytest.mark.parametrize("shape", [(3, 1, 1), (3, 1, 6), (3, 5, 1), (3, 3, 7)])
    @pytest.mark.parametrize("theta", [0.0, 30.0, -77.0, 180.0])
    def test_float64_grid_matches_the_per_tap_reference(self, shape, theta):
        v = np.random.default_rng(88).normal(size=shape)
        got = rotation_align(FeatureGrid(v), theta).values
        assert got.dtype == np.float64 and got.shape == v.shape
        assert np.max(np.abs(got - per_tap_align(v, theta))) <= 1e-14

    def test_nonfinite_angle_rejected(self):
        f = FeatureGrid(np.zeros((1, 2, 2)), stride=8)
        with pytest.raises(UnknownAngleError):
            rotation_align(f, float("nan"))
        with pytest.raises(UnknownAngleError):
            rotation_align(f, float("inf"))


class TestScoreMatrix:
    def test_identical_unit_vectors_score_inverse_temperature(self):
        f = unit_columns(16, 2, 2, seed=85)
        s1 = score_matrix(f, f, temperature=1.0)
        s10 = score_matrix(f, f, temperature=0.1)
        assert np.allclose(np.diag(s1), 1.0)
        assert np.max(np.abs(s10 - 10.0 * s1)) < 1e-9

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(86)
        fa = FeatureGrid(rng.normal(size=(5, 2, 3)), stride=8)
        fb = FeatureGrid(rng.normal(size=(5, 3, 2)), stride=8)
        got = score_matrix(fa, fb, temperature=0.5)
        va = fa.values.reshape(5, -1)
        vb = fb.values.reshape(5, -1)
        assert got.shape == (6, 6)
        for i in range(6):
            for j in range(6):
                want = sum(va[c, i] * vb[c, j] for c in range(5)) / 0.5
                assert abs(got[i, j] - want) < 1e-9

    def test_swapping_arguments_transposes(self):
        fa = unit_columns(8, 2, 2, seed=87)
        fb = unit_columns(8, 3, 1, seed=88)
        assert np.allclose(
            score_matrix(fa, fb, 0.2), score_matrix(fb, fa, 0.2).T
        )

    def test_channel_mismatch_rejected(self):
        fa = unit_columns(8, 2, 2, seed=89)
        fb = unit_columns(9, 2, 2, seed=90)
        with pytest.raises(ChannelMismatchError):
            score_matrix(fa, fb, 1.0)

    def test_nonpositive_temperature_rejected(self):
        f = unit_columns(4, 2, 2, seed=91)
        with pytest.raises(ValueError):
            score_matrix(f, f, 0.0)


class TestDualSoftmax:
    def test_single_entry_is_one(self):
        assert dual_softmax(np.array([[3.7]])) == np.array([[1.0]])

    def test_uniform_scores_spread_mass_evenly(self):
        p = dual_softmax(np.zeros((3, 5)))
        assert np.allclose(p, 1.0 / 15.0)

    def test_two_by_two_closed_form(self):
        p = dual_softmax(np.array([[10.0, 0.0], [0.0, 10.0]]))
        r = math.exp(10.0) / (math.exp(10.0) + 1.0)
        assert np.allclose(np.diag(p), r * r)
        assert np.allclose(p[0, 1], (1.0 - r) ** 2)

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(92)
        s = rng.normal(size=(4, 6))
        assert np.max(np.abs(dual_softmax(s) - dual_softmax(s + 55.5))) < 1e-12

    def test_entries_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(93)
        p = dual_softmax(rng.normal(size=(5, 5)) * 3)
        assert np.all(p > 0.0)
        assert np.all(p < 1.0)


class TestDualSoftmaxJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(94)
        s = rng.normal(size=(4, 4))
        jac = dual_softmax_jacobian(s)
        eps = 1e-6
        for k in range(4):
            for l in range(4):
                sp, sm = s.copy(), s.copy()
                sp[k, l] += eps
                sm[k, l] -= eps
                fd = (dual_softmax(sp) - dual_softmax(sm)) / (2 * eps)
                assert np.max(np.abs(jac[:, :, k, l] - fd)) < 1e-8


class TestGumbelSelect:
    def test_single_candidate_passes_through(self):
        c = np.array([[0.25, 0.75]])
        out, choice = gumbel_select([c], seed=1)
        assert np.array_equal(out, c)
        assert np.all(choice == 0)

    def test_dominant_candidate_wins_nearly_always(self):
        # Confidence ratio 1000 makes the dominant branch win with
        # probability 1000/1001 per entry.
        strong = np.full((50, 50), 0.999)
        weak = np.full((50, 50), 0.000999)
        _, choice = gumbel_select([strong, weak], seed=2)
        assert np.mean(choice == 0) > 0.99

    def test_equal_candidates_split_evenly(self):
        cands = [np.full((100, 100), 0.5) for _ in range(3)]
        _, choice = gumbel_select(cands, seed=3)
        for k in range(3):
            assert abs(np.mean(choice == k) - 1.0 / 3.0) < 0.02

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(95)
        cands = [rng.uniform(0.1, 0.9, size=(6, 6)) for _ in range(3)]
        a, choice_a = gumbel_select(cands, seed=11)
        b, choice_b = gumbel_select(cands, seed=11)
        assert np.array_equal(a, b) and np.array_equal(choice_a, choice_b)

    def test_hard_entries_come_from_some_candidate(self):
        rng = np.random.default_rng(96)
        cands = [rng.uniform(0.1, 0.9, size=(4, 4)) for _ in range(2)]
        out, _ = gumbel_select(cands, seed=4)
        stacked = np.stack(cands)
        assert np.all(np.any(out[None] == stacked, axis=0))

    def test_empty_candidates_rejected(self):
        with pytest.raises(EmptyCandidatesError):
            gumbel_select([], seed=0)


class TestExtractMatches:
    def test_strong_diagonal_is_fully_recovered(self):
        p = np.eye(4) * 0.9 + 0.01
        got = extract_matches(p, threshold=0.5)
        assert [(m.patch_a, m.patch_b) for m in got] == [(i, i) for i in range(4)]
        assert all(abs(m.confidence - 0.91) < 1e-12 for m in got)

    def test_threshold_filters_everything(self):
        assert extract_matches(np.full((3, 3), 0.25), threshold=0.999) == []

    def test_mutual_check_drops_one_sided_best(self):
        # Row 1's best is column 0, but column 0 prefers row 0, so only the
        # two mutual pairs survive.
        p = np.array([[0.90, 0.10, 0.00], [0.85, 0.10, 0.00], [0.00, 0.00, 0.70]])
        got = extract_matches(p, threshold=0.5)
        assert [(m.patch_a, m.patch_b) for m in got] == [(0, 0), (2, 2)]


class TestCoarseLoss:
    def gt(self, vv=(), vo=(), ov=()):
        return CoarseMatchSet(
            patch_stride=8,
            vv=list(vv),
            vo=list(vo),
            ov=list(ov),
            grid_a=(2, 2),
            grid_b=(2, 2),
        )

    def test_perfect_confidence_costs_nothing(self):
        p = np.zeros((4, 4))
        p[1, 2] = 1.0
        assert coarse_loss(p, self.gt(vv=[(1, 2)])) == 0.0

    def test_inverse_e_confidence_costs_one(self):
        p = np.full((4, 4), math.exp(-1.0))
        assert abs(coarse_loss(p, self.gt(vv=[(0, 0), (1, 1)])) - 1.0) < 1e-12

    def test_hand_computed_three_class_case(self):
        p = np.zeros((4, 4))
        p[0, 0], p[1, 2], p[2, 1] = 0.5, 0.2, 0.3
        want = -math.log(0.5) - math.log(0.2) - math.log(0.3)
        got = coarse_loss(p, self.gt(vv=[(0, 0)], vo=[(1, 2)], ov=[(2, 1)]))
        assert abs(got - want) < 1e-12

    def test_lambda_weights_occlusion_classes(self):
        p = np.full((4, 4), math.exp(-1.0))
        got = coarse_loss(p, self.gt(vv=[(0, 0)], vo=[(1, 1)], ov=[(2, 2)]), lambda1=0.5)
        assert abs(got - (1.0 + 0.5 + 0.5)) < 1e-12

    def test_zero_confidence_clamps_with_warning(self):
        p = np.zeros((4, 4))
        with pytest.warns(RuntimeWarning):
            got = coarse_loss(p, self.gt(vv=[(0, 0)]))
        assert abs(got - (-math.log(1e-12))) < 1e-9

    def test_loss_strictly_decreases_with_confidence(self):
        lo, hi = np.full((2, 2), 0.3), np.full((2, 2), 0.3)
        hi[0, 0] = 0.6
        gt = self.gt(vv=[(0, 0)])
        assert coarse_loss(hi, gt) < coarse_loss(lo, gt)

    def test_all_classes_empty_rejected(self):
        with pytest.raises(EmptyGroundTruthError):
            coarse_loss(np.ones((2, 2)), self.gt())


class TestRefineFineMatch:
    CENTER = np.array([[10.0, 20.0]])

    def test_one_hot_center_returns_center(self):
        h = np.zeros((1, 5, 5))
        h[0, 2, 2] = 1.0
        assert refine_fine_match(h, self.CENTER).tolist() == [[10.0, 20.0]]

    def test_one_hot_right_neighbor_shifts_u_by_one(self):
        h = np.zeros((1, 5, 5))
        h[0, 2, 3] = 1.0
        assert refine_fine_match(h, self.CENTER).tolist() == [[11.0, 20.0]]

    def test_two_equal_peaks_average_to_midpoint(self):
        h = np.zeros((1, 5, 5))
        h[0, 2, 0] = h[0, 2, 4] = 1.0
        assert refine_fine_match(h, self.CENTER).tolist() == [[10.0, 20.0]]

    def test_each_heatmap_of_a_stack_refines_its_own_center(self):
        h = np.zeros((3, 3, 3))
        h[0, 1, 1] = h[1, 0, 1] = h[2, 2, 2] = 1.0
        centers = np.array([[0.0, 0.0], [5.0, 5.0], [-1.0, 2.0]])
        assert refine_fine_match(h, centers).tolist() == [[0.0, 0.0], [5.0, 4.0], [0.0, 3.0]]

    def test_rejects_even_nonsquare_negative_and_empty(self):
        center = np.zeros((1, 2))
        with pytest.raises(DegenerateHeatmapError):
            refine_fine_match(np.ones((1, 4, 4)), center)
        with pytest.raises(DegenerateHeatmapError):
            refine_fine_match(np.ones((1, 3, 5)), center)
        with pytest.raises(DegenerateHeatmapError):
            refine_fine_match(np.ones((3, 3)), center)
        with pytest.raises(DegenerateHeatmapError):
            refine_fine_match(np.full((1, 3, 3), -1.0), center)
        with pytest.raises(DegenerateHeatmapError):
            refine_fine_match(np.zeros((1, 3, 3)), center)
        # One empty heatmap in a stack fails the whole stack.
        with pytest.raises(DegenerateHeatmapError):
            refine_fine_match(np.stack([np.ones((3, 3)), np.zeros((3, 3))]), np.zeros((2, 2)))


class TestTotalLoss:
    def test_unit_terms_with_default_weights(self):
        assert abs(total_loss(1.0, 1.0, 1.0) - 2.1) < 1e-12

    def test_zero_terms_cost_nothing(self):
        assert total_loss(0.0, 0.0, 0.0) == 0.0

    def test_hand_computed_weighting(self):
        assert abs(total_loss(2.0, 0.5, 1.0) - 2.6) < 1e-12

    def test_custom_weights(self):
        assert abs(total_loss(1.0, 2.0, 3.0, lambda3=0.5, lambda4=2.0) - 8.0) < 1e-12


class TestMatchingConfig:
    def test_default_branches_cover_both_rotation_sides(self):
        cfg = MatchingConfig()
        assert cfg.branches() == [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0)]

    def test_zero_only_angles_give_single_branch(self):
        cfg = MatchingConfig(angles=(0.0,))
        assert cfg.branches() == [(0.0, 0.0)]

    def test_angles_equal_modulo_a_full_turn_are_one_rotation(self):
        cfg = MatchingConfig(angles=(0.0, 30.0, 30.0, 390.0, 360.0))
        assert cfg.branches() == MatchingConfig().branches()
        assert MatchingConfig(angles=(-330.0, 30.0, 720.0, -0.0)).branches() == [
            (0.0, 0.0), (-330.0, 0.0), (0.0, -330.0)]


class TestMatchPair:
    def test_identical_grids_match_diagonally(self):
        f = unit_columns(32, 4, 4, seed=98)
        result = match_pair(f, f)
        pairs = {(m.patch_a, m.patch_b) for m in result.matches}
        assert pairs == {(i, i) for i in range(16)}
        assert match_tuples(result) == dense_reference(f, f, MatchingConfig())
        assert all(m.point_a is None and m.point_b is None for m in result.matches)

    def test_same_seed_reproduces_bitwise(self):
        fa = unit_columns(32, 4, 4, seed=99)
        fb = unit_columns(32, 4, 4, seed=100)
        r1 = match_pair(fa, fb)
        r2 = match_pair(fa, fb)
        assert match_tuples(r1) == match_tuples(r2)

    def test_branches_recorded_on_matches(self):
        f = unit_columns(32, 3, 3, seed=101)
        result = match_pair(f, f)
        branches = set(MatchingConfig().branches())
        assert all(m.branch in branches for m in result.matches)

    @pytest.mark.parametrize("height, width", [(18, 16), (16, 18)])
    def test_partial_edge_patch_anchors_inside_the_fine_grid(self, height, width):
        # H or W mod 8 = 2: the edge patch (index 2, pixels 16-17) covers
        # fine cell 8 alone and anchors there; a full patch x anchors at
        # fine cell 4x + 2.
        coarse = unit_columns(32, *patch_grid(height, width, 8), seed=102)
        fine = unit_columns(32, *patch_grid(height, width, 2), seed=103, stride=2)
        result = match_pair(coarse, coarse, fine, fine)
        cols = coarse.grid_shape[1]
        assert [(m.patch_a, m.patch_b) for m in result.matches] == [(i, i) for i in range(6)]
        for m in result.matches:
            r, c = divmod(m.patch_a, cols)
            want = [8 if x == 2 else 4 * x + 2 for x in (c, r)]
            assert m.point_a == PixelPoint(*(cell_center_px(a, 2) for a in want))
            assert m.point_b is not None and np.isfinite(m.point_b).all()


class TestRefineAtTheGridEdge:
    """One 8x8-pixel patch, fine cells of 2 pixels (4x4): the B window
    around the anchor cell (2, 2) reaches past the grid's bottom-right
    corner, and its off-grid cells take no weight."""

    def refined_b(self, fine_b: np.ndarray, cfg: MatchingConfig) -> PixelPoint:
        coarse = FeatureGrid(np.ones((4, 1, 1)), stride=8)
        anchor = np.zeros((2, 4, 4))
        anchor[0] = 1.0
        (m,) = match_pair(coarse, coarse, FeatureGrid(anchor, stride=2),
                          FeatureGrid(fine_b, stride=2), cfg).matches
        return m.point_b

    def test_flat_window_averages_the_cells_on_the_grid(self):
        # Cells 0..3 of the window 0..4 lie on the grid in each axis: the
        # mean offset from the anchor is -0.5, cell 1.5, pixel 3.5.
        cfg = MatchingConfig(fine_window=5)
        assert self.refined_b(np.ones((2, 4, 4)), cfg) == PixelPoint(3.5, 3.5)

    def test_peak_at_the_corner_cell_stays_on_it(self):
        # Replicating the corner cell into the 9 off-grid window cells
        # beyond it (window 7: cells -1..5) would move the point to cell 4,
        # pixel 8.5, outside the 8-pixel image.
        fine_b = np.zeros((2, 4, 4))
        fine_b[1] = 1.0
        fine_b[:, 3, 3] = (1.0, 0.0)
        point = self.refined_b(fine_b, MatchingConfig(fine_window=7, fine_temperature=0.01))
        assert point == pytest.approx((6.5, 6.5), abs=1e-12)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_refined_points_stay_inside_the_image(pair_cache, name):
    fx, pair = pair_cache(name)
    cfg = MatchingConfig()
    matches = match_pair(pair.coarse_a, pair.coarse_b, pair.fine_a, pair.fine_b, cfg).matches
    points = np.array([(m.point_a, m.point_b) for m in matches])  # (n, 2 views, (u, v))
    assert len(points) > 250
    assert (points >= -0.5).all()
    assert (points <= [fx.k.width - 0.5, fx.k.height - 0.5]).all()


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "clutter"])
def test_match_pair_finds_the_per_tap_alignments_matches(pair_cache, monkeypatch, name):
    # The stencil rounds differently from the per-tap sum, by float32
    # ulps: the matches and their points stay, the confidences move a little.
    if name == "clutter":
        scene, pose_a, pose_b, k = clutter_pair(30.0)
        pair = make_pair(scene, pose_a, pose_b, k)
    else:
        _, pair = pair_cache(name)
    cfg = MatchingConfig()
    grids = (pair.coarse_a, pair.coarse_b, pair.fine_a, pair.fine_b)
    got = match_pair(*grids, cfg).matches
    monkeypatch.setattr(matching, "rotation_align", lambda f, theta: FeatureGrid._derived(
        per_tap_align(f.values, theta), f.stride))
    want = match_pair(*grids, cfg).matches
    assert len(got) > 250
    assert ([(m.patch_a, m.patch_b, m.branch, m.point_a, m.point_b) for m in got]
            == [(m.patch_a, m.patch_b, m.branch, m.point_a, m.point_b) for m in want])
    conf_got, conf_want = (np.array([m.confidence for m in ms]) for ms in (got, want))
    assert np.max(np.abs(conf_got - conf_want) / conf_want) <= 1e-4


def tied_column_grid(seed: int) -> FeatureGrid:
    """Four rows of four identical cells. The cells of a row align to equal
    descriptors up to rounding, so many entries of a row of B tie exactly."""
    rows = unit_columns(16, 4, 1, seed).values
    return FeatureGrid(np.repeat(rows, 4, axis=2), stride=8)


def reference_points(fa, fb, fine_a, fine_b, cfg, matches) -> tuple[list, bool]:
    """The per-match refinement match_pair ran before it was chunked: one
    tensordot, one softmax and one expectation per match, anchored at the
    middle fine cell of each patch's extent, with the window cells off the
    fine grid left out of the softmax. Returns each match's
    (point_a, point_b) and whether any window reached past the grid."""
    ratio_a, ratio_b = fa.stride // fine_a.stride, fb.stride // fine_b.stride
    half = cfg.fine_window // 2
    hb, wb = fine_b.grid_shape
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    out, clamped = [], False
    for m in matches:
        ra, ca = divmod(m.patch_a, fa.grid_shape[1])
        rb, cb = divmod(m.patch_b, fb.grid_shape[1])
        ar, ac = (x * ratio_a + (min(x * ratio_a + ratio_a, n) - x * ratio_a) // 2
                  for x, n in ((ra, fine_a.grid_shape[0]), (ca, fine_a.grid_shape[1])))
        br, bc = (x * ratio_b + (min(x * ratio_b + ratio_b, n) - x * ratio_b) // 2
                  for x, n in ((rb, hb), (cb, wb)))
        rows, cols = np.arange(br - half, br + half + 1), np.arange(bc - half, bc + half + 1)
        rr, cc = np.clip(rows, 0, hb - 1), np.clip(cols, 0, wb - 1)
        clamped |= not (np.array_equal(rr, rows) and np.array_equal(cc, cols))
        window = fine_b.values[:, rr[:, None], cc[None, :]]
        corr = np.tensordot(fine_a.values[:, ar, ac], window, axes=(0, 0))
        corr[(rr != rows)[:, None] | (cc != cols)[None, :]] = -np.inf
        heat = softmax(corr.ravel() / cfg.fine_temperature).reshape(corr.shape)
        w = heat / heat.sum()
        du = float((w.sum(axis=0) * offsets).sum())
        dv = float((w.sum(axis=1) * offsets).sum())
        out.append((
            PixelPoint(cell_center_px(ac, fine_a.stride), cell_center_px(ar, fine_a.stride)),
            PixelPoint(cell_center_px(float(bc) + du, fine_b.stride),
                       cell_center_px(float(br) + dv, fine_b.stride)),
        ))
    return out, clamped


def smallest_non_divisor(n: int) -> int:
    return next(d for d in range(2, n + 2) if n % d)


# Relative tolerance between match_pair's one-pass confidences and the dense
# stack's: the online column sums round differently from numpy's axis sums.
RTOL = 1e-12
EPS32 = float(np.finfo(np.float32).eps)


def dense_rtol(dtype, cfg: MatchingConfig) -> float:
    """RTOL on float64 grids. On float32 grids the scores round at a few
    float32 ulps of their unit-scale inner products, divided by the
    temperature, and a confidence moves by about twice that."""
    return RTOL if dtype == np.float64 else 16 * EPS32 / cfg.temperature


def assert_matches_dense_stack(fa: FeatureGrid, fb: FeatureGrid, cfg: MatchingConfig,
                               matches, rtol: float = RTOL) -> None:
    """`matches` are a mutual-nearest selection on the dense float64 K x Na x Nb
    stack of dual_softmax confidences, up to rtol.

    Each match sits at or above the threshold, its confidence is the stack's
    maximum at its entry, the largest of its row and of its column, and its
    branch's dense confidence is that maximum, all within rtol. Every dense
    mutual match without a rival within rtol (in its row, its column or at
    the threshold) is returned, and no row or column is matched twice.
    """
    stack = np.stack(dense_candidates(fa, fb, cfg))
    p_hat = stack.max(axis=0)
    branches = cfg.branches()
    for m in matches:
        want = p_hat[m.patch_a, m.patch_b]
        assert m.confidence >= cfg.match_threshold
        assert abs(m.confidence - want) <= rtol * want
        assert p_hat[m.patch_a].max() <= want * (1 + rtol)
        assert p_hat[:, m.patch_b].max() <= want * (1 + rtol)
        assert stack[branches.index(m.branch), m.patch_a, m.patch_b] >= want * (1 - rtol)
    got = {(m.patch_a, m.patch_b) for m in matches}
    assert len({a for a, _ in got}) == len({b for _, b in got}) == len(got) == len(matches)
    for m in extract_matches(p_hat, cfg.match_threshold * (1 + rtol)):
        v = m.confidence
        rivals = (np.sum(p_hat[m.patch_a] >= v * (1 - rtol))
                  + np.sum(p_hat[:, m.patch_b] >= v * (1 - rtol)))
        if rivals == 2:
            assert (m.patch_a, m.patch_b) in got


class TestSparseMatchesDense:
    """match_pair selects only among candidate entries, keeping each
    branch's column sums online in one pass over its row blocks; extract_
    matches on the dense float64 stack's maximum, with the branch from its
    argmax, is the oracle. The online sums round differently from the dense
    dual_softmax's, and on float32 grids the scores round in float32, so
    confidences agree within dense_rtol and ties or near-ties within it may
    resolve either way (assert_matches_dense_stack). The refined points are
    exact: whatever the block and chunk sizes, they equal the per-match
    refinement of the returned matches. Grids are cast to DTYPE."""

    DTYPE = np.float64

    def cast(self, *grids: FeatureGrid) -> list[FeatureGrid]:
        return [as_dtype(f, self.DTYPE) for f in grids]

    @pytest.mark.parametrize("threshold", [0.0, 0.05, 0.2, 1.0])
    def test_same_matches_as_the_dense_stack(self, threshold):
        cfg = MatchingConfig(match_threshold=threshold)
        for seed in range(3):
            grids = [
                (unit_columns(16, 5, 6, 200 + seed), unit_columns(16, 6, 4, 300 + seed)),
                (unit_columns(16, 4, 4, 400 + seed),) * 2,
                (unit_columns(16, 5, 3, 500 + seed), tied_column_grid(seed)),
            ]
            for fa, fb in grids:
                fa, fb = self.cast(fa, fb)
                assert_matches_dense_stack(fa, fb, cfg, match_pair(fa, fb, cfg=cfg).matches,
                                           dense_rtol(self.DTYPE, cfg))

    def test_tied_confidences_keep_the_smaller_index(self):
        fa, fb = self.cast(unit_columns(16, 5, 3, 602), tied_column_grid(603))
        cfg = MatchingConfig(match_threshold=0.05)
        p_hat, _ = dense_selection(fa, fb, cfg)
        want = dense_reference(fa, fb, cfg)
        # A dense match ties exactly with another entry of its row; the
        # one-pass sums may round either side of that tie up.
        assert any((p_hat[a] == conf).sum() > 1 for a, _, conf, _ in want)
        assert_matches_dense_stack(fa, fb, cfg, match_pair(fa, fb, cfg=cfg).matches,
                                   dense_rtol(self.DTYPE, cfg))

    BLOCKS = {"one": lambda na: 1, "non_divisor": smallest_non_divisor,
              "na": lambda na: na, "over_na": lambda na: na + 3}
    CHUNKS = {"one": lambda n: 1, "non_divisor": smallest_non_divisor,
              "over_count": lambda n: n + 1}

    @staticmethod
    def cases():
        # Coarse stride 4 over fine stride 2: an anchor sits one fine cell
        # from its patch's edge, so border patches clamp their windows.
        for seed in range(2):
            yield (unit_columns(16, 5, 6, 200 + seed, 4), unit_columns(16, 6, 4, 300 + seed, 4),
                   MatchingConfig(match_threshold=0.05))
            same = unit_columns(16, 4, 4, 400 + seed, 4)
            yield same, same, MatchingConfig(fine_window=7, fine_temperature=0.05)
            yield (unit_columns(16, 5, 3, 500 + seed, 4),
                   FeatureGrid(tied_column_grid(seed).values, stride=4),
                   MatchingConfig(match_threshold=0.05))
            # A single B cell: one column sum over every block.
            yield (unit_columns(16, 3, 4, 600 + seed, 4), unit_columns(16, 1, 1, 700 + seed, 4),
                   MatchingConfig())

    @pytest.mark.parametrize("block", sorted(BLOCKS))
    @pytest.mark.parametrize("chunk", sorted(CHUNKS))
    def test_every_match_equals_the_dense_reference(self, block, chunk, monkeypatch):
        clamped = False
        for index, (fa, fb, cfg) in enumerate(self.cases()):
            fine_a = unit_columns(8, fa.grid_shape[0] * 2, fa.grid_shape[1] * 2, 800 + index, 2)
            fine_b = unit_columns(8, fb.grid_shape[0] * 2, fb.grid_shape[1] * 2, 900 + index, 2)
            fa, fb, fine_a, fine_b = self.cast(fa, fb, fine_a, fine_b)
            monkeypatch.setattr(matching, "_BLOCK_ROWS", self.BLOCKS[block](fa.values[0].size))
            n_dense = len(dense_reference(fa, fb, cfg))
            assert n_dense
            monkeypatch.setattr(matching, "_REFINE_CHUNK", self.CHUNKS[chunk](n_dense))
            got = match_pair(fa, fb, fine_a, fine_b, cfg=cfg).matches
            assert got
            assert_matches_dense_stack(fa, fb, cfg, got, dense_rtol(self.DTYPE, cfg))
            points, clamped_here = reference_points(fa, fb, fine_a, fine_b, cfg, got)
            clamped |= clamped_here
            assert [(m.point_a, m.point_b) for m in got] == points
        assert clamped

    def test_one_score_pass_per_branch(self, monkeypatch):
        fa, fb = self.cast(unit_columns(16, 5, 6, 210), unit_columns(16, 6, 4, 310))
        monkeypatch.setattr(matching, "_BLOCK_ROWS", 7)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("block"))
            return score_matrix(*args, **kwargs)

        monkeypatch.setattr(matching, "score_matrix", counted)
        cfg = MatchingConfig()
        match_pair(fa, fb, cfg=cfg)
        assert len(calls) == len(cfg.branches()) * math.ceil(30 / 7)
        assert calls == list(range(math.ceil(30 / 7))) * len(cfg.branches())

    def test_sharp_scores_underflow_the_rescale(self, monkeypatch):
        # At temperature 1e-3 a column's maximum grows by more than 745 over
        # some rows, so exp(old max - new max) underflows to 0 and the
        # running sum restarts from the new block alone.
        fa, fb = self.cast(unit_columns(4, 6, 5, 220), unit_columns(4, 5, 6, 320))
        cfg = MatchingConfig(temperature=1e-3, match_threshold=0.05)
        s = score_matrix(unit_aligned(fa, 0.0), unit_aligned(fb, 0.0), cfg.temperature)
        running = np.maximum.accumulate(s, axis=0)
        assert np.any(np.exp(running[:-1] - running[1:]) == 0.0)
        monkeypatch.setattr(matching, "_BLOCK_ROWS", 1)
        got = match_pair(fa, fb, cfg=cfg).matches
        assert got
        assert_matches_dense_stack(fa, fb, cfg, got, dense_rtol(self.DTYPE, cfg))


class TestSparseMatchesDenseFloat32(TestSparseMatchesDense):
    """The same checks on float32 grids, as the grid files store them."""

    DTYPE = np.float32


@pytest.mark.parametrize("name", ["identity", "rotation", "stereo", "two_plane", "box_roll30"])
def test_fixture_matches_equal_the_dense_reference(name, pair_cache):
    # On float64 copies of the fixture grids; the float32 grids are compared
    # with these copies in test_float32_grids_match_like_float64_copies.
    _, pair = pair_cache(name)
    cfg = MatchingConfig()
    coarse_a, coarse_b = as_dtype(pair.coarse_a, np.float64), as_dtype(pair.coarse_b, np.float64)
    want = dense_reference(coarse_a, coarse_b, cfg)
    got = match_pair(coarse_a, coarse_b, cfg=cfg).matches
    assert [(m.patch_a, m.patch_b, m.branch) for m in got] == [(a, b, k) for a, b, _, k in want]
    assert np.allclose([m.confidence for m in got], [c for _, _, c, _ in want], rtol=1e-12, atol=0)


class TestFloat32Path:
    """Float32 grids, as the grid files store them, stay float32 through the
    score products; the sums that decide a threshold run in float64."""

    def test_feature_grid_rejects_values_its_averages_would_overflow(self):
        for dtype in (np.float32, np.float64):
            limit = float(np.finfo(dtype).max) / 8.0
            assert FeatureGrid(np.full((1, 1, 2), -limit, dtype=dtype)).values.min() == -limit
            for bad in (np.nan, np.inf, -np.inf, 2.0 * limit):
                v = np.zeros((2, 3, 4), dtype=dtype)
                v[1, 2, 3] = bad
                with pytest.raises(ValueError, match="finite"):
                    FeatureGrid(v)
            # The largest allowed values average to finite values.
            v = np.full((1, 3, 3), limit, dtype=dtype)
            for theta in (0.0, 30.0):
                assert np.isfinite(rotation_align(FeatureGrid(v), theta).values).all()

    def test_match_pair_checks_no_derived_grid(self, pair_cache, monkeypatch):
        # The grids from synth or a file were checked when built; the
        # aligned and normalized grids match_pair derives are not.
        _, pair = pair_cache("box_roll30")
        checked = []
        check = FeatureGrid.__post_init__

        def recorded(self):
            checked.append(self.values.shape)
            check(self)

        monkeypatch.setattr(FeatureGrid, "__post_init__", recorded)
        assert match_pair(pair.coarse_a, pair.coarse_b, pair.fine_a, pair.fine_b).matches
        assert checked == []

    def test_log_margin_covers_the_float32_exp_rounding(self):
        # A candidate passes when its float32 log-factor is at least
        # log(threshold) - _LOG_MARGIN, and its confidence is computed from
        # float32 exps of those log-factors. The margin must cover how far
        # such an exp lands from the exact one, as a log, and the rounding
        # of log(0.2), the default threshold, to float32 for the comparison.
        x = np.linspace(-80.0, 0.0, 2_000_001, dtype=np.float32)
        rounding = np.abs(np.log(np.exp(x).astype(np.float64)) - x.astype(np.float64)).max()
        floor = math.log(MatchingConfig().match_threshold)
        floor_rounding = abs(float(np.float32(floor)) - floor)
        assert 3e-8 < rounding < 1e-6
        assert rounding + floor_rounding < matching._LOG_MARGIN

    def test_feature_grid_keeps_its_floating_dtype(self):
        for dtype in (np.float32, np.float64):
            assert FeatureGrid(np.zeros((2, 3, 4), dtype=dtype)).values.dtype == dtype
        assert FeatureGrid(np.zeros((2, 3, 4), dtype=np.int64)).values.dtype == np.float64

    def test_scores_stay_float32_inside_match_pair(self, pair_cache, monkeypatch):
        _, pair = pair_cache("identity")
        dtypes = []

        def recorded(*args, **kwargs):
            s = score_matrix(*args, **kwargs)
            dtypes.append(s.dtype)
            return s

        monkeypatch.setattr(matching, "score_matrix", recorded)
        match_pair(pair.coarse_a, pair.coarse_b)
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("name", ["identity", "rotation", "stereo", "two_plane", "box_roll30"])
    def test_float32_grids_match_like_float64_copies(self, name, pair_cache):
        _, pair = pair_cache(name)
        cfg = MatchingConfig()
        grids = (pair.coarse_a, pair.coarse_b, pair.fine_a, pair.fine_b)
        assert {g.values.dtype for g in grids} == {np.dtype(np.float32)}
        got = match_pair(*grids, cfg=cfg).matches
        want = match_pair(*(as_dtype(g, np.float64) for g in grids), cfg=cfg).matches
        assert got
        assert ([(m.patch_a, m.patch_b, m.branch) for m in got]
                == [(m.patch_a, m.patch_b, m.branch) for m in want])
        assert np.allclose([m.confidence for m in got], [m.confidence for m in want],
                           rtol=dense_rtol(np.float32, cfg), atol=0)
        points = [np.array([(*m.point_a, *m.point_b) for m in ms]) for ms in (got, want)]
        assert np.abs(points[0] - points[1]).max() <= 1e-5

    def test_a_returned_confidence_works_as_the_threshold(self):
        fa, fb = (as_dtype(unit_columns(16, 5, 6, 230 + i), np.float32) for i in range(2))
        cfg = MatchingConfig(match_threshold=0.0)
        matches = match_pair(fa, fb, cfg=cfg).matches
        assert matches
        for m in matches:
            again = match_pair(fa, fb, cfg=replace(cfg, match_threshold=m.confidence)).matches
            assert (m.patch_a, m.patch_b, m.confidence) in [
                (x.patch_a, x.patch_b, x.confidence) for x in again]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ratio", [0.2, 1e-3, 1e-8])
def test_confidence_at_the_threshold_is_kept(dtype, ratio, monkeypatch):
    # Entry (0, 1) is not its row's score maximum, so it passes the
    # candidate bound by log(1 + exp(e)) plus _LOG_MARGIN, with e = log
    # ratio. With the threshold at its own confidence exp(e) / (1 + exp(e))
    # it must stay a match, beside (1, 0) at about 1.
    e = math.log(ratio)
    scores = np.array([[0.0, e], [30.0, -200.0]], dtype=dtype)
    monkeypatch.setattr(matching, "score_matrix", lambda *args, **kwargs: scores.copy())
    grid = FeatureGrid(np.ones((2, 1, 2), dtype=dtype), stride=8)
    cfg = MatchingConfig(angles=(0.0,))
    own = next(m.confidence for m in match_pair(grid, grid, cfg=replace(cfg, match_threshold=0.0))
               .matches if (m.patch_a, m.patch_b) == (0, 1))
    e = float(scores[0, 1])  # as the matcher sees it, rounded to dtype
    assert math.isclose(own, math.exp(e) / (1.0 + math.exp(e)), rel_tol=1e-6)
    got = match_pair(grid, grid, cfg=replace(cfg, match_threshold=own)).matches
    assert [(m.patch_a, m.patch_b) for m in got] == [(0, 1), (1, 0)]
    assert got[0].confidence == own


def test_matcher_peak_memory_stays_below_one_dense_score_matrix():
    fa, fb = unit_columns(16, 60, 40, 1000), unit_columns(16, 60, 40, 1001)
    dense_bytes = (60 * 40) ** 2 * 8
    tracemalloc.start()
    try:
        match_pair(fa, fb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


def test_voxelize_peak_memory_stays_below_two_dense_occupancy_grids(tmp_path):
    # voxelize keeps each view's grid as its occupied cells and writes the
    # payload in blocks. Building the dense float64 grid, normalising it in
    # place and casting it to float32 for the file peaked at 31.4 MB here.
    scene, pose_a, pose_b, k = clutter_pair(30.0)
    inputs = {"scene": scene_to_json(scene), "pose-a": pose_to_json(pose_a),
              "pose-b": pose_to_json(pose_b), "intrinsics": intrinsics_to_json(k)}
    for name, obj in inputs.items():
        write_json(tmp_path / f"{name}.json", obj)
    pair = tmp_path / "pair"
    assert main(["synth", *(arg for name in inputs for arg in (f"--{name}", str(tmp_path / f"{name}.json"))),
                 "--out", str(pair)]) == 0
    dense_bytes = math.prod(patch_grid(k.height, k.width, 2)) * OccupancyConfig().depth_bins * 8
    tracemalloc.start()
    try:
        assert main(["voxelize", "--pair", str(pair)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * dense_bytes
