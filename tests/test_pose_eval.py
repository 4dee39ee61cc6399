"""Essential-matrix RANSAC, pose error metrics, recall AUC, and the
occlusion-ordered error curve."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from occmatch.errors import (
    DegenerateConfigurationError,
    EmptyListError,
    InsufficientMatchesError,
    ZeroTranslationError,
)
from occmatch import pose_eval
from occmatch.geometry import CameraIntrinsics, PoseSE3, unproject_points
from occmatch.matching import MatchingConfig, match_pair
from occmatch.pose_eval import (
    RansacConfig,
    _eight_point,
    auc,
    cumulative_occlusion_curve,
    decompose_essential,
    essential_from_matches,
    essential_from_pose,
    pose_error,
    rotation_error_deg,
    sampson_distance,
)
from occmatch.synth import FIXTURE_NAMES

K = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)


def normalized(px: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """Normalized image coordinates (N, 2) of pixels (N, 2): the pixels
    unprojected at unit depth, as essential_from_matches takes them."""
    return unproject_points(px[:, 0], px[:, 1], np.ones(len(px)), k)[:, :2]


def axis_angle(axis, deg: float) -> np.ndarray:
    a = np.asarray(axis, dtype=np.float64)
    a /= np.linalg.norm(a)
    th = math.radians(deg)
    kx = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(th) * kx + (1 - math.cos(th)) * (kx @ kx)


def make_correspondences(n: int, t_ba: PoseSE3, seed: int):
    """Project random 3D points through both cameras; all exact inliers."""
    rng = np.random.default_rng(seed)
    px_a, px_b = [], []
    while len(px_a) < n:
        p_a = rng.uniform([-2.0, -1.5, 1.0], [2.0, 1.5, 6.0])
        p_b = t_ba.transform(p_a)
        if p_b[2] <= 0:
            continue
        ua = K.fx * p_a[0] / p_a[2] + K.cx
        va = K.fy * p_a[1] / p_a[2] + K.cy
        ub = K.fx * p_b[0] / p_b[2] + K.cx
        vb = K.fy * p_b[1] / p_b[2] + K.cy
        if not (0 <= ua < 640 and 0 <= va < 480 and 0 <= ub < 640 and 0 <= vb < 480):
            continue
        px_a.append((ua, va))
        px_b.append((ub, vb))
    return np.array(px_a), np.array(px_b)


GT_POSE = PoseSE3(axis_angle((1.0, 2.0, 3.0), 10.0), np.array([0.3, -0.1, 0.05]))


class TestNormalizePixels:
    def test_principal_point_maps_to_origin(self):
        out = normalized(np.array([[320.0, 240.0]]), K)
        assert np.allclose(out, [[0.0, 0.0]])

    def test_offset_scales_by_inverse_focal(self):
        out = normalized(np.array([[370.0, 190.0]]), K)
        assert np.allclose(out, [[0.5, -0.5]])


class TestEssentialFromPose:
    def test_pure_x_translation_gives_canonical_form(self):
        e = essential_from_pose(PoseSE3(np.eye(3), np.array([1.0, 0.0, 0.0])))
        want = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        want /= np.linalg.norm(want)
        assert np.allclose(np.abs(e), np.abs(want))
        assert abs(np.linalg.norm(e) - 1.0) < 1e-12

    def test_exact_correspondences_satisfy_epipolar_constraint(self):
        e = essential_from_pose(GT_POSE)
        px_a, px_b = make_correspondences(50, GT_POSE, seed=1)
        xa = normalized(px_a, K)
        xb = normalized(px_b, K)
        xa_h = np.column_stack([xa, np.ones(len(xa))])
        xb_h = np.column_stack([xb, np.ones(len(xb))])
        residual = np.einsum("ni,ij,nj->n", xb_h, e, xa_h)
        assert np.max(np.abs(residual)) < 1e-12


class TestSampsonDistance:
    def test_zero_for_exact_correspondences(self):
        e = essential_from_pose(GT_POSE)
        px_a, px_b = make_correspondences(50, GT_POSE, seed=2)
        d = sampson_distance(e, normalized(px_a, K), normalized(px_b, K))
        assert np.max(d) < 1e-12

    def test_matches_first_order_formula(self):
        rng = np.random.default_rng(3)
        e = essential_from_pose(GT_POSE)
        xa = rng.normal(size=(20, 2))
        xb = rng.normal(size=(20, 2))
        got = sampson_distance(e, xa, xb)
        for i in range(20):
            a = np.array([xa[i, 0], xa[i, 1], 1.0])
            b = np.array([xb[i, 0], xb[i, 1], 1.0])
            ea = e @ a
            etb = e.T @ b
            num = abs(float(b @ e @ a))
            den = math.sqrt(ea[0] ** 2 + ea[1] ** 2 + etb[0] ** 2 + etb[1] ** 2)
            assert abs(got[i] - num / den) < 1e-12


    def test_stacked_matrices_score_like_each_matrix_alone(self):
        # A stack is scored in blocks of matrices, one (3, 3) @ (3, N)
        # product per matrix and side; each row must equal the single-matrix
        # distances bit for bit, at every point count and chunk size.
        rng = np.random.default_rng(15)
        for n in [*range(1, 81), 287, 348, 634]:
            xa = rng.normal(size=(n, 2))
            xb = rng.normal(size=(n, 2))
            for b in (1, 8, 64):
                stack = rng.normal(size=(b, 3, 3))
                got = sampson_distance(stack, xa, xb)
                assert got.shape == (b, n)
                for e, row in zip(stack, got):
                    assert np.array_equal(sampson_distance(e, xa, xb), row), (n, b)

    def test_block_boundaries_score_bit_for_bit(self):
        # Point counts whose blocks hold one matrix, and counts whose last
        # block is ragged for some stack size: every row must score as its
        # matrix does alone and as the reference does, also next to a row
        # holding a NaN entry of E and at a 1e308 point (distance inf).
        budget = pose_eval._BLOCK_BYTES // 8
        ns = [1, 7, budget // 64, budget // 64 + 1, budget // 5, budget // 2 + 1, budget, budget + 3]
        stacks = (1, 8, 63, 64, 65)
        rows = [max(1, budget // n) for n in ns]
        assert 1 in rows and any(b % r for r in rows for b in stacks if r < b)
        rng = np.random.default_rng(16)
        for n in ns:
            xa, xb = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
            far = n // 2 if n > 1 else None
            if far is not None:
                xa[far] = (1e308, 0.5)
            ones = np.ones((n, 1))
            for b in stacks:
                stack = rng.normal(size=(b, 3, 3))
                nan_row = b // 2 if b > 1 else None
                if nan_row is not None:
                    stack[nan_row, 1, 2] = np.nan
                inf = np.zeros((b, n), dtype=bool)
                if far is not None:
                    inf[:, far] = True
                if nan_row is not None:
                    inf[nan_row] = True
                with np.errstate(over="ignore", invalid="ignore"):
                    refs = [_reference_sampson(e, xa, xb) for e in stack]
                for pa, pb in ((xa, xb), (np.hstack([xa, ones]), np.hstack([xb, ones]))):
                    got = sampson_distance(stack, pa, pb)
                    assert got.shape == (b, n)
                    assert np.array_equal(np.isinf(got), inf), (n, b)
                    for j, (e, row, ref) in enumerate(zip(stack, got, refs)):
                        assert np.array_equal(sampson_distance(e, pa, pb), row), (n, b, j)
                        assert np.array_equal(row[~inf[j]], ref[~inf[j]]), (n, b, j)

    def test_homogeneous_rows_score_like_their_points(self):
        rng = np.random.default_rng(30)
        xa = rng.normal(size=(40, 2))
        xb = rng.normal(size=(40, 2))
        ones = np.ones((40, 1))
        for e in (rng.normal(size=(3, 3)), rng.normal(size=(8, 3, 3))):
            got = sampson_distance(e, np.hstack([xa, ones]), np.hstack([xb, ones]))
            assert np.array_equal(got, sampson_distance(e, xa, xb))


    def test_overflowing_denominator_is_infinitely_far(self):
        e = essential_from_pose(GT_POSE)
        xa = np.array([[1e308, 0.5], [0.1, 0.2]])
        xb = np.array([[0.3, -0.2], [0.1, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = sampson_distance(e, xa, xb)
        assert d[0] == np.inf and np.isfinite(d[1])


class TestEssentialFromMatches:
    def test_overflowing_match_point_is_an_outlier(self):
        # A point at 1e308 px once scored distance 0, joined every consensus
        # and made the refit degenerate.
        px_a, px_b = make_correspondences(60, GT_POSE, seed=29)
        px_a[7, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, r, t, inliers = essential_from_matches(px_a, px_b, K, K)
        assert not inliers[7] and inliers.sum() == 59
        assert pose_error(r, t, GT_POSE.R, GT_POSE.t).rotation_deg < 0.1

    def test_noise_free_matches_recover_the_pose(self):
        px_a, px_b = make_correspondences(100, GT_POSE, seed=4)
        _, r, t, inliers = essential_from_matches(px_a, px_b, K, K)
        report = pose_error(r, t, GT_POSE.R, GT_POSE.t, int(inliers.sum()))
        assert report.rotation_deg < 0.1
        assert report.translation_deg < 0.1
        assert report.inlier_count == 100

    def test_noise_free_inliers_have_tiny_sampson_residual(self):
        px_a, px_b = make_correspondences(64, GT_POSE, seed=5)
        e, _, _, inliers = essential_from_matches(px_a, px_b, K, K)
        d = sampson_distance(e, normalized(px_a, K), normalized(px_b, K))
        assert np.all(inliers)
        assert np.max(d) < 1e-9

    def test_forty_percent_outliers_are_rejected(self):
        px_a, px_b = make_correspondences(300, GT_POSE, seed=6)
        rng = np.random.default_rng(7)
        junk_a = rng.uniform([0, 0], [639, 479], size=(200, 2))
        junk_b = rng.uniform([0, 0], [639, 479], size=(200, 2))
        all_a = np.vstack([px_a, junk_a])
        all_b = np.vstack([px_b, junk_b])
        _, r, t, inliers = essential_from_matches(all_a, all_b, K, K)
        recall = inliers[:300].mean()
        assert recall >= 0.95
        report = pose_error(r, t, GT_POSE.R, GT_POSE.t)
        assert report.pose_deg < 0.5

    def test_fewer_than_eight_matches_rejected(self):
        px_a, px_b = make_correspondences(7, GT_POSE, seed=8)
        with pytest.raises(InsufficientMatchesError):
            essential_from_matches(px_a, px_b, K, K)

    def test_length_mismatch_rejected(self):
        px_a, px_b = make_correspondences(10, GT_POSE, seed=9)
        with pytest.raises(InsufficientMatchesError):
            essential_from_matches(px_a, px_b[:9], K, K)

    def test_repeated_single_point_is_degenerate(self):
        px = np.tile([[320.0, 240.0]], (20, 1))
        with pytest.raises(DegenerateConfigurationError):
            essential_from_matches(px, px, K, K)

    def test_same_seed_gives_identical_results(self):
        px_a, px_b = make_correspondences(100, GT_POSE, seed=10)
        rng = np.random.default_rng(11)
        junk = rng.uniform([0, 0], [639, 479], size=(30, 2))
        all_a = np.vstack([px_a, junk])
        all_b = np.vstack([px_b, rng.uniform([0, 0], [639, 479], size=(30, 2))])
        e1, r1, t1, m1 = essential_from_matches(all_a, all_b, K, K)
        e2, r2, t2, m2 = essential_from_matches(all_a, all_b, K, K)
        assert np.array_equal(e1, e2)
        assert np.array_equal(r1, r2)
        assert np.array_equal(t1, t2)
        assert np.array_equal(m1, m2)


def _reference_sampson(e, xa, xb):
    xa_h = np.column_stack([xa, np.ones(len(xa))])
    xb_h = np.column_stack([xb, np.ones(len(xb))])
    e_xa = xa_h @ e.T
    et_xb = xb_h @ e
    num = np.abs(np.sum(xb_h * e_xa, axis=1))
    den = np.sqrt(e_xa[:, 0] ** 2 + e_xa[:, 1] ** 2 + et_xb[:, 0] ** 2 + et_xb[:, 1] ** 2)
    return num / np.maximum(den, 1e-300)


def _reference_eight_point(xa, xb):
    def conditioning(x):
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
    a = (xb_h[:, :, None] * xa_h[:, None, :]).reshape(len(xa), 9)
    # Eight rows of full rank: the QR null vector; otherwise the SVD's.
    q, r = np.linalg.qr(a.T, mode="complete")
    diag = np.abs(np.diag(r))
    if len(a) == 8 and np.all(diag > 1e-10 * diag.max()):
        v = q[:, -1]
    else:
        v = np.linalg.svd(a)[2][-1]
    e = t_b.T @ v.reshape(3, 3) @ t_a
    u, s, vt = np.linalg.svd(e)
    if s[1] < 1e-12:
        return None
    sigma = (s[0] + s[1]) / 2.0
    e = u @ np.diag([sigma, sigma, 0.0]) @ vt
    return e / np.linalg.norm(e)


def _reference_ransac(px_a, px_b, cfg):
    """The one-hypothesis-at-a-time RANSAC loop that the chunked one must
    reproduce bit for bit. Returns the outcome (the (E, R, t, inliers)
    tuple or the exception type), the iterations run and the iterations
    whose sample was not degenerate and was scored."""
    xa = normalized(px_a, K)
    xb = normalized(px_b, K)
    n = len(xa)
    rng = np.random.default_rng(cfg.seed)
    best_count, best_err, best_inliers = -1, np.inf, None
    scored = []
    for it in range(cfg.ransac_iterations):
        sample = rng.choice(n, size=8, replace=False)
        e = _reference_eight_point(xa[sample], xb[sample])
        if e is None:
            continue
        scored.append(it)
        d = _reference_sampson(e, xa, xb)
        inliers = d < cfg.inlier_threshold
        count = int(np.count_nonzero(inliers))
        err = float(d[inliers].sum())
        if count > best_count or (count == best_count and err < best_err):
            best_count, best_err, best_inliers = count, err, inliers
        if best_count >= 8:
            w_in = best_count / n
            denom = np.log1p(-min(w_in**8, 1.0 - 1e-15))
            if it + 1 >= np.log1p(-cfg.ransac_confidence) / denom:
                break
    iterations = it + 1
    if best_inliers is None or best_count < 8:
        return DegenerateConfigurationError, iterations, scored
    e = _reference_eight_point(xa[best_inliers], xb[best_inliers])
    if e is None:
        return DegenerateConfigurationError, iterations, scored
    inliers = _reference_sampson(e, xa, xb) < cfg.inlier_threshold
    if np.count_nonzero(inliers) < 8:
        inliers = best_inliers
    try:
        r, t = decompose_essential(e, xa[inliers], xb[inliers])
    except DegenerateConfigurationError:
        return DegenerateConfigurationError, iterations, scored
    return (e, r, t, inliers), iterations, scored


def _early_stop_set():
    return make_correspondences(100, GT_POSE, seed=16)


def _capped_set():
    """70 exact correspondences among 200: about 35 % inliers, far too few
    for the adaptive stop within 1,000 iterations, and few enough that
    some seeds draw no clean sample and find no consensus."""
    px_a, px_b = make_correspondences(70, GT_POSE, seed=17)
    rng = np.random.default_rng(18)
    junk_a = rng.uniform([0, 0], [639, 479], size=(130, 2))
    junk_b = rng.uniform([0, 0], [639, 479], size=(130, 2))
    return np.vstack([px_a, junk_a]), np.vstack([px_b, junk_b])


def _noisy_set():
    """120 correspondences with 0.05 px of noise next to 40 random ones:
    each hypothesis finds a different consensus, the best one keeps
    improving, and the adaptive stop falls a few hundred draws in."""
    px_a, px_b = make_correspondences(120, GT_POSE, seed=22)
    rng = np.random.default_rng(23)
    px_b = px_b + rng.normal(scale=0.05, size=px_b.shape)
    junk_a = rng.uniform([0, 0], [639, 479], size=(40, 2))
    junk_b = rng.uniform([0, 0], [639, 479], size=(40, 2))
    return np.vstack([px_a, junk_a]), np.vstack([px_b, junk_b])


def _two_motions_set():
    """Two groups of 30 exact correspondences, each moved by its own pose:
    a clean sample of either group explains exactly its 30 matches, and
    the smaller error sum, rounding noise at 1e-13, breaks the tie."""
    other = PoseSE3(axis_angle((0.0, 1.0, 0.0), 8.0), np.array([-0.2, 0.15, 0.1]))
    a1, b1 = make_correspondences(30, GT_POSE, seed=24)
    a2, b2 = make_correspondences(30, other, seed=25)
    return np.vstack([a1, a2]), np.vstack([b1, b2])


def _mostly_exact_set():
    """80 exact correspondences and 20 random ones: the first clean sample
    finds all 80, and the adaptive stop follows some 30 draws later."""
    px_a, px_b = make_correspondences(80, GT_POSE, seed=27)
    rng = np.random.default_rng(28)
    junk_a = rng.uniform([0, 0], [639, 479], size=(20, 2))
    junk_b = rng.uniform([0, 0], [639, 479], size=(20, 2))
    return np.vstack([px_a, junk_a]), np.vstack([px_b, junk_b])


def _repeated_set():
    """40 copies of one correspondence next to 9 others: about one 8-point
    sample in six is 8 copies, which has no spread and is skipped; the
    others are underdetermined, so the outcome varies with the seed."""
    px_a, px_b = make_correspondences(10, GT_POSE, seed=19)
    return (np.vstack([np.repeat(px_a[:1], 40, axis=0), px_a[1:]]),
            np.vstack([np.repeat(px_b[:1], 40, axis=0), px_b[1:]]))


MATCH_SETS = {"early_stop": _early_stop_set, "mostly_exact": _mostly_exact_set,
              "noisy": _noisy_set, "capped": _capped_set, "two_motions": _two_motions_set,
              "repeated": _repeated_set}
SEEDS = (0, 1, 7)


class TestChunkedRansacEquivalence:
    """Hypotheses are solved and scored a chunk at a time; every output
    must equal the sequential loop's bit for bit, whether the run stops
    inside a chunk, at a chunk boundary or at the iteration cap."""

    @pytest.mark.parametrize("name", sorted(MATCH_SETS))
    @pytest.mark.parametrize("ransac_iterations", [1, 7, 8, 9, 63, 64, 65, 1000])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_the_sequential_loop(self, name, ransac_iterations, seed, monkeypatch):
        px_a, px_b = MATCH_SETS[name]()
        cfg = RansacConfig(ransac_iterations=ransac_iterations, seed=seed)
        want, _, want_scored = _reference_ransac(px_a, px_b, cfg)
        scored = []
        hypotheses = pose_eval._scored_hypotheses

        def recorded(*args):
            for hypothesis in hypotheses(*args):
                scored.append(hypothesis[0])
                yield hypothesis

        monkeypatch.setattr(pose_eval, "_scored_hypotheses", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not isinstance(want, tuple):
                with pytest.raises(want):
                    essential_from_matches(px_a, px_b, K, K, cfg)
                assert scored == want_scored
                return
            got = essential_from_matches(px_a, px_b, K, K, cfg)
        for w, g in zip(want, got):
            assert np.array_equal(w, g)
        assert scored == want_scored

    def test_match_sets_exercise_their_case(self):
        runs = {name: [_reference_ransac(*make(), RansacConfig(seed=seed)) for seed in SEEDS]
                for name, make in MATCH_SETS.items()}
        # All exact: the first hypothesis explains every match.
        assert all(isinstance(out, tuple) and it == 1 for out, it, _ in runs["early_stop"])
        # One consensus, then the stop some chunks later; the consensus keeps
        # improving and the stop falls a few hundred draws in.
        assert all(isinstance(out, tuple) and 8 < it < 64 for out, it, _ in runs["mostly_exact"])
        assert all(isinstance(out, tuple) and 64 < it < 1000 for out, it, _ in runs["noisy"])
        # No stop before the cap; a clean sample is found on some seeds only.
        assert all(it == 1000 for _, it, _ in runs["capped"])
        assert {isinstance(out, tuple) for out, _, _ in runs["capped"]} == {True, False}
        # Either group can win the tie on the inlier count.
        winners = {int(out[3][:30].sum() > out[3][30:].sum()) for out, _, _ in runs["two_motions"]}
        assert winners == {0, 1}
        # Degenerate samples are skipped, before and after a consensus.
        assert all(len(scored) < it for _, it, scored in runs["repeated"])
        assert any(isinstance(out, tuple) for out, _, _ in runs["repeated"])

    def test_degenerate_samples_are_masked_without_warnings(self):
        xa = np.zeros((3, 8, 2))
        xa[1] = np.random.default_rng(20).normal(size=(8, 2))
        xb = np.random.default_rng(21).normal(size=(3, 8, 2))
        xb[2] = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e, valid = _eight_point(xa, xb)
        assert valid.tolist() == [False, True, False]
        assert np.array_equal(e[1], _reference_eight_point(xa[1], xb[1]))


class TestEightPoint:
    def test_overflowing_norm_is_degenerate_without_warnings(self):
        # A stereo sample whose A points have x scaled by 1e300: the spread
        # overflows, so set 0 is degenerate.
        u = np.array([100.5, 132.5, 180.5, 60.5, 188.5, 36.5, 76.5, 28.5]) / 128
        v = np.array([-59, -67, -67, -59, -67, -59, -67, -67]) / 128
        u_b = np.array([-11, 29, 77, -51, 85, -75, -35, -83]) / 128
        xa = np.stack([np.stack([u * 1e300, v], 1), np.random.default_rng(22).normal(size=(8, 2))])
        xb = np.stack([np.stack([u_b, v], 1), np.random.default_rng(23).normal(size=(8, 2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e, valid = _eight_point(xa, xb)
        assert valid.tolist() == [False, True]
        assert np.array_equal(e[1], _reference_eight_point(xa[1], xb[1]))


def _systems(xa, xb):
    """(B, m, 9) rows of the 8-point systems of (B, m, 2) point sets, built
    and conditioned as _eight_point builds them."""
    t_a, _ = pose_eval._conditioning(xa)
    t_b, _ = pose_eval._conditioning(xb)
    ones = np.ones((*xa.shape[:2], 1))
    xa_h = np.concatenate([xa, ones], axis=2) @ np.swapaxes(t_a, 1, 2)
    xb_h = np.concatenate([xb, ones], axis=2) @ np.swapaxes(t_b, 1, 2)
    return (xb_h[:, :, :, None] * xa_h[:, :, None, :]).reshape(*xa.shape[:2], 9)


class TestNullVectors:
    def test_full_rank_qr_null_vector_is_the_svd_one_up_to_sign(self):
        rng = np.random.default_rng(40)
        a = _systems(rng.normal(size=(64, 8, 2)), rng.normal(size=(64, 8, 2)))
        got = pose_eval._null_vectors(a)
        want = np.linalg.svd(a)[2][:, -1]
        signs = np.sign(np.sum(got * want, axis=1))
        assert np.max(np.abs(got - signs[:, None] * want)) < 1e-12
        assert np.allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.max(np.abs(a @ got[:, :, None])) < 1e-12
        # They come from the QR factor, not from the SVD.
        assert not np.array_equal(got, want)

    def test_rank_deficient_samples_take_the_svd_bits(self):
        # A repeated point, and a zero baseline (xb = xa, which every
        # skew-symmetric E fits), between two full-rank samples.
        rng = np.random.default_rng(41)
        xa = rng.normal(size=(4, 8, 2))
        xb = rng.normal(size=(4, 8, 2))
        xa[1, 7], xb[1, 7] = xa[1, 0], xb[1, 0]
        xb[2] = xa[2]
        a = _systems(xa, xb)
        assert np.linalg.matrix_rank(a[1]) == 7 and np.linalg.matrix_rank(a[2]) < 7
        got = pose_eval._null_vectors(a)
        want = np.linalg.svd(a)[2][:, -1]
        for i in (1, 2):
            assert np.array_equal(got[i], np.linalg.svd(a[i])[2][-1])
            assert np.array_equal(got[i], want[i])
        for i in (0, 3):
            assert np.array_equal(got[i], np.linalg.qr(a[i].T, mode="complete")[0][:, -1])

    def test_nine_or_more_rows_take_the_thin_svd(self):
        rng = np.random.default_rng(42)
        a = _systems(rng.normal(size=(2, 30, 2)), rng.normal(size=(2, 30, 2)))
        assert np.array_equal(pose_eval._null_vectors(a), np.linalg.svd(a)[2][:, -1])


def _reference_depths(r, t, xa, xb):
    """Linear triangulation of one (R, t) candidate: the depths of each
    point in both camera frames."""
    p1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    p2 = np.hstack([r, t.reshape(3, 1)])
    rows = np.empty((len(xa), 4, 4))
    rows[:, 0] = xa[:, 0, None] * p1[2] - p1[0]
    rows[:, 1] = xa[:, 1, None] * p1[2] - p1[1]
    rows[:, 2] = xb[:, 0, None] * p2[2] - p2[0]
    rows[:, 3] = xb[:, 1, None] * p2[2] - p2[1]
    _, _, vh = np.linalg.svd(rows)
    xw = vh[:, -1, :]
    w = xw[:, 3]
    w = np.where(np.abs(w) < 1e-300, 1e-300, w)
    pts = xw[:, :3] / w[:, None]
    return pts[:, 2], pts @ r[2] + t[2]


def _reference_decompose(e, xa, xb):
    """decompose_essential with one triangulation per candidate. Returns
    the candidates (r1, t), (r1, -t), (r2, t), (r2, -t), their front
    counts, and the chosen (R, t), or None where no point is in front."""
    u, _, vt = np.linalg.svd(e)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1, r2, t = u @ w @ vt, u @ w.T @ vt, u[:, 2]
    candidates = [(r1, t), (r1, -t), (r2, t), (r2, -t)]
    fronts = []
    for r_cand, t_cand in candidates:
        z1, z2 = _reference_depths(r_cand, t_cand, xa, xb)
        fronts.append(int(np.count_nonzero((z1 > 0) & (z2 > 0))))
    best = int(np.argmax(fronts))  # the first of equal counts
    return candidates, fronts, candidates[best] if fronts[best] > 0 else None


def _fixture_matches(name, pair_cache):
    """Refined pixel matches of one 192x144 fixture and its intrinsics."""
    fixture, pair = pair_cache(name)
    matches = match_pair(pair.coarse_a, pair.coarse_b, pair.fine_a, pair.fine_b,
                         MatchingConfig())
    return matches.point_a, matches.point_b, fixture.k


class TestDecomposeEssential:
    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, *sorted(MATCH_SETS)])
    def test_two_triangulations_pick_what_four_did(self, name, pair_cache):
        # Each solved E is decomposed on its inliers and on all matches.
        # Identity has a zero baseline: its E and depths are noise.
        if name in MATCH_SETS:
            px_a, px_b, k = (*MATCH_SETS[name](), K)
        else:
            px_a, px_b, k = _fixture_matches(name, pair_cache)
        xa, xb = normalized(px_a, k), normalized(px_b, k)
        compared = 0
        for seed in SEEDS:
            try:
                e, _, _, inliers = essential_from_matches(px_a, px_b, k, k, RansacConfig(seed=seed))
            except DegenerateConfigurationError:
                continue
            for mask in (inliers, np.ones(len(xa), dtype=bool)):
                candidates, fronts, want = _reference_decompose(e, xa[mask], xb[mask])
                (r1, t), (r2, _) = candidates[0], candidates[2]
                got_fronts = [*pose_eval._front_counts(r1, t, xa[mask], xb[mask]),
                              *pose_eval._front_counts(r2, t, xa[mask], xb[mask])]
                assert got_fronts == fronts
                if want is None:
                    with pytest.raises(DegenerateConfigurationError):
                        decompose_essential(e, xa[mask], xb[mask])
                    continue
                r, t = decompose_essential(e, xa[mask], xb[mask])
                assert np.array_equal(r, want[0]) and np.array_equal(t, want[1])
                compared += 1
        assert compared > 0

    def test_clamped_w_points_keep_their_place_under_minus_t(self):
        # A match at the principal point of both views, R = I and t along x:
        # the DLT null vector is (0, 0, 1, 0) up to sign, w = 0 is clamped to
        # +1e-300 for t and for -t alike, so the point's depths do not flip
        # sign with t as every other point's do.
        r, t = np.eye(3), np.array([1.0, 0.0, 0.0])
        xa = np.array([[0.0, 0.0], [0.1, 0.05], [0.0, 0.0]])
        xb = np.array([[0.0, 0.0], [0.2, 0.05], [0.3, 0.0]])
        want = []
        for t_cand in (t, -t):
            z1, z2 = _reference_depths(r, t_cand, xa, xb)
            want.append(int(np.count_nonzero((z1 > 0) & (z2 > 0))))
        z1, z2 = _reference_depths(r, t, xa, xb)
        assert want[1] != np.count_nonzero((z1 < 0) & (z2 < 0))  # the mirror rule is wrong here
        assert pose_eval._front_counts(r, t, xa, xb) == tuple(want)

    def test_recovers_rotation_and_direction_from_exact_essential(self):
        e = essential_from_pose(GT_POSE)
        px_a, px_b = make_correspondences(30, GT_POSE, seed=12)
        r, t = decompose_essential(
            e, normalized(px_a, K), normalized(px_b, K)
        )
        # arccos near 1 resolves angles only to ~1e-5 degrees in float64.
        assert rotation_error_deg(r, GT_POSE.R) < 1e-4
        cos_t = abs(t @ GT_POSE.t) / np.linalg.norm(GT_POSE.t)
        assert math.degrees(math.acos(min(cos_t, 1.0))) < 1e-4


class TestRefitMemory:
    def test_refit_builds_no_n_by_n_matrix(self):
        # The least-squares refit solves for E on all inliers; a full SVD
        # would also build the 3,000 x 3,000 left factor it never uses.
        px_a, px_b = make_correspondences(3000, GT_POSE, seed=31)
        tracemalloc.start()
        try:
            _, _, _, inliers = essential_from_matches(px_a, px_b, K, K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert inliers.sum() == 3000
        assert peak < 3000 * 3000 * 8

    def test_stack_scoring_holds_little_beside_its_output(self):
        # A full RANSAC chunk of 64 matrices at 20,000 points: the (64, N)
        # output is the one large array; the scoring blocks, the homogeneous
        # operands and the mask take at most a quarter of it more.
        n = 20_000
        rng = np.random.default_rng(32)
        stack = rng.normal(size=(64, 3, 3))
        xa_h = np.hstack([rng.normal(size=(n, 2)), np.ones((n, 1))])
        xb_h = np.hstack([rng.normal(size=(n, 2)), np.ones((n, 1))])
        tracemalloc.start()
        try:
            d = sampson_distance(stack, xa_h, xb_h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.shape == (64, n)
        assert peak <= 1.25 * d.nbytes


class TestPoseError:
    def test_exact_estimate_has_near_zero_error(self):
        # The angles come through arccos, whose slope blows up at 1, so an
        # exact estimate still reads as ~1e-6 degrees.
        report = pose_error(GT_POSE.R, GT_POSE.t, GT_POSE.R, GT_POSE.t, 42)
        assert report.rotation_deg < 1e-5
        assert report.translation_deg < 1e-5
        assert report.pose_deg == max(report.rotation_deg, report.translation_deg)
        assert report.inlier_count == 42

    def test_ten_degree_rotation_offset(self):
        r_est = axis_angle((0, 0, 1), 10.0)
        report = pose_error(r_est, np.array([1.0, 0, 0]), np.eye(3), np.array([1.0, 0, 0]))
        assert abs(report.rotation_deg - 10.0) < 1e-9
        assert report.pose_deg == report.rotation_deg

    def test_translation_sign_is_ignored(self):
        t = np.array([0.3, -0.4, 0.5])
        report = pose_error(np.eye(3), -t, np.eye(3), t)
        assert report.translation_deg < 1e-5

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroTranslationError):
            pose_error(np.eye(3), np.array([1.0, 0, 0]), np.eye(3), np.zeros(3))
        with pytest.raises(ZeroTranslationError):
            pose_error(np.eye(3), np.zeros(3), np.eye(3), np.array([1.0, 0, 0]))


class TestAuc:
    def test_perfect_errors_score_one_hundred(self):
        got = auc([0.0, 0.0, 0.0])
        assert got == {5.0: 100.0, 10.0: 100.0, 20.0: 100.0}

    def test_all_failures_score_zero(self):
        got = auc([25.0, 90.0, float("inf")])
        assert got == {5.0: 0.0, 10.0: 0.0, 20.0: 0.0}

    def test_single_two_degree_error_at_five(self):
        assert auc([2.0], thresholds_deg=(5.0,)) == {5.0: 60.0}

    def test_matches_exact_integral_formula(self):
        rng = np.random.default_rng(13)
        errors = rng.uniform(0.0, 30.0, size=50).tolist()
        got = auc(errors)
        for t in (5.0, 10.0, 20.0):
            want = 100.0 * np.mean(np.maximum(t - np.array(errors), 0.0)) / t
            assert abs(got[t] - want) < 1e-12

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(14)
        got = auc(rng.uniform(0.0, 25.0, size=40).tolist())
        assert got[5.0] <= got[10.0] <= got[20.0]

    def test_order_invariant(self):
        errors = [1.0, 7.0, 3.0, 19.0]
        assert auc(errors) == auc(sorted(errors, reverse=True))

    def test_empty_rejected(self):
        with pytest.raises(EmptyListError):
            auc([])

    def test_negative_or_nan_rejected(self):
        with pytest.raises(ValueError):
            auc([-1.0])
        with pytest.raises(ValueError):
            auc([float("nan")])


class TestCumulativeOcclusionCurve:
    def test_single_pair(self):
        assert cumulative_occlusion_curve([(0.2, 4.0)]) == [(1, 4.0)]

    def test_running_mean_in_occlusion_order(self):
        got = cumulative_occlusion_curve([(0.5, 6.0), (0.1, 2.0)])
        assert got == [(1, 2.0), (2, 4.0)]

    def test_input_order_is_irrelevant(self):
        entries = [(0.4, 1.0), (0.1, 5.0), (0.7, 3.0)]
        assert cumulative_occlusion_curve(entries) == cumulative_occlusion_curve(
            list(reversed(entries))
        )

    def test_equal_ratios_order_by_error(self):
        got = cumulative_occlusion_curve([(0.3, 5.0), (0.3, 1.0)])
        assert got == [(1, 1.0), (2, 3.0)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyListError):
            cumulative_occlusion_curve([])


class TestRansacConfig:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RansacConfig(ransac_iterations=0)
        with pytest.raises(ValueError):
            RansacConfig(inlier_threshold=0.0)
        # At inf every finite match would be an inlier.
        with pytest.raises(ValueError, match="inlier_threshold"):
            RansacConfig(inlier_threshold=np.inf)
        with pytest.raises(ValueError):
            RansacConfig(ransac_confidence=1.0)
