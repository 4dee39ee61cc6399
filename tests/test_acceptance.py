"""Acceptance suite: ten release gates, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines; each gate
also carries its runtime budget as a hard assertion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from occmatch.cli import main
from occmatch.formats import read_json, read_matches
from occmatch.geometry import (
    CameraIntrinsics,
    PoseSE3,
    patch_centers,
    project_points,
    relative_pose,
    unproject_points,
)
from occmatch.matching import (
    CoarseMatchSet,
    FeatureGrid,
    coarse_loss,
    dual_softmax,
    dual_softmax_jacobian,
    neighborhood_mean,
    rotation_align,
    total_loss,
)
from occmatch.occupancy import (
    OccupancyConfig,
    OccupancyFactors,
    OccupancyGrid,
    build_ground_truth_occupancy,
    depth_bin_index,
    estimate_occupancy,
    occupancy_loss,
)
from occmatch.pose_eval import (
    auc,
    essential_from_matches,
    essential_from_pose,
    pose_error,
    sampson_distance,
)
from occmatch.supervision import (
    PixelClass,
    classify_points,
    coarse_match_ground_truth,
)
from occmatch.synth import (
    FIXTURE_NAMES,
    analytic_classes,
    make_fixture,
    render_depth,
)


@contextmanager
def gate(num: int, title: str, budget_s: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] FAIL {title}")
        raise
    dt = time.perf_counter() - t0
    if budget_s is not None and dt >= budget_s:
        print(f"[acceptance {num:02d}] FAIL {title} (over budget: {dt:.2f}s >= {budget_s}s)")
        pytest.fail(f"gate {num} exceeded its {budget_s}s budget: {dt:.2f}s")
    print(f"[acceptance {num:02d}] PASS {title} ({dt:.2f}s)")


def axis_angle(axis, deg: float) -> np.ndarray:
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    s, c = math.sin(math.radians(deg)), math.cos(math.radians(deg))
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + s * k + (1 - c) * (k @ k)


K_VGA = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)


def projected_correspondences(rng, t_ba: PoseSE3, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n exact pixel correspondences of random points visible in both views."""
    px_a, px_b = [], []
    while len(px_a) < n:
        p = rng.uniform([-2.0, -2.0, 2.0], [2.0, 2.0, 8.0])
        q = t_ba.transform(p)
        if q[2] <= 0.1:
            continue
        (ua,), (va,) = project_points(p[None], K_VGA)
        (ub,), (vb,) = project_points(q[None], K_VGA)
        if 0 <= ua < 640 and 0 <= va < 480 and 0 <= ub < 640 and 0 <= vb < 480:
            px_a.append([ua, va])
            px_b.append([ub, vb])
    return np.array(px_a), np.array(px_b)


def test_criterion_01_rotation_identity_matches_neighborhood_mean():
    with gate(1, "rotation alignment at 0 degrees equals the 5-tap mean", 1.0):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            c = int(rng.integers(2, 9))
            h = int(rng.integers(3, 13))
            w = int(rng.integers(3, 13))
            f = FeatureGrid(rng.standard_normal((c, h, w)), stride=8)
            diff = np.abs(rotation_align(f, 0.0).values - neighborhood_mean(f).values)
            worst = max(worst, float(diff.max()))
        assert worst < 1e-9


def test_criterion_02_softmax_normalization_and_shift_invariance():
    with gate(2, "occupancy columns sum to one; dual softmax bounded and shift invariant", 1.0):
        rng = np.random.default_rng(22)
        for _ in range(10):
            factors = OccupancyFactors(
                rng.standard_normal((4, 32, 32, 1)),
                rng.standard_normal((1, 32, 32, 16)),
            )
            sums = estimate_occupancy(factors).values.sum(axis=-1)
            assert np.all(np.abs(sums - 1.0) < 1e-5)

            s = rng.standard_normal((32, 32)) * 3.0
            p = dual_softmax(s)
            assert np.all(p > 0.0) and np.all(p < 1.0)
            shift = float(rng.uniform(-20.0, 20.0))
            assert np.allclose(dual_softmax(s + shift), p, atol=1e-12)


def _patch_agreement(name: str) -> float:
    fx = make_fixture(name, 640, 480)
    depth_a = render_depth(fx.scene, fx.pose_a, fx.k)
    depth_b = render_depth(fx.scene, fx.pose_b, fx.k)
    t_ba = relative_pose(fx.pose_a, fx.pose_b)
    t_ab = relative_pose(fx.pose_b, fx.pose_a)
    gt = coarse_match_ground_truth(depth_a, depth_b, fx.k, fx.k, t_ba, t_ab)

    depth_label = {}
    for a, _ in gt.vv:
        depth_label[a] = "vv"
    for a, _ in gt.vo:
        depth_label[a] = "vo"

    classes = analytic_classes(fx.scene, depth_a, fx.pose_a, fx.pose_b, fx.k, fx.k)
    u, v = patch_centers(480, 640, 8)
    ana = classes[v.astype(int), u.astype(int)]

    agree = total = 0
    for i in range(len(ana)):
        ana_decided = ana[i] in (PixelClass.COVISIBLE, PixelClass.OCCLUDED_IN_OTHER)
        if not ana_decided and i not in depth_label:
            continue
        total += 1
        want = "vv" if ana[i] == PixelClass.COVISIBLE else (
            "vo" if ana[i] == PixelClass.OCCLUDED_IN_OTHER else None
        )
        agree += depth_label.get(i) == want
    return agree / total


def test_criterion_03_supervision_agrees_with_raycast_oracle():
    with gate(3, "patch labels match the analytic ray-cast oracle at 640x480", 5.0):
        for name in ("two_plane", "box_roll30"):
            assert _patch_agreement(name) >= 0.99

        # The two occluded-match directions are exact mirrors of each other.
        fx = make_fixture("two_plane", 640, 480)
        depth_a = render_depth(fx.scene, fx.pose_a, fx.k)
        depth_b = render_depth(fx.scene, fx.pose_b, fx.k)
        t_ba = relative_pose(fx.pose_a, fx.pose_b)
        t_ab = relative_pose(fx.pose_b, fx.pose_a)
        gt_ab = coarse_match_ground_truth(depth_a, depth_b, fx.k, fx.k, t_ba, t_ab)
        gt_ba = coarse_match_ground_truth(depth_b, depth_a, fx.k, fx.k, t_ab, t_ba)
        assert set(gt_ab.ov) == {(a, b) for (b, a) in gt_ba.vo}
        assert set(gt_ba.ov) == {(a, b) for (b, a) in gt_ab.vo}


def test_criterion_04_ground_truth_occupancy_binning():
    with gate(4, "GT occupancy one-hot on the flat plane; every valid pixel binned", 5.0):
        cfg = OccupancyConfig()
        assert cfg.depth_bins == 64

        for name in FIXTURE_NAMES:
            fx = make_fixture(name)
            depth_a = render_depth(fx.scene, fx.pose_a, fx.k)
            depth_b = render_depth(fx.scene, fx.pose_b, fx.k)
            for target, d in (("a", depth_a), ("b", depth_b)):
                occ = build_ground_truth_occupancy(
                    depth_a, depth_b, fx.pose_a, fx.pose_b, fx.k, fx.k, target=target
                ).values
                vs, us = np.nonzero(d.valid_mask)
                z = d.data[vs, us]
                keep = (z >= cfg.d_min) & (z < cfg.d_max)
                vs, us, z = vs[keep], us[keep], z[keep]
                bins = depth_bin_index(z, cfg)
                assert np.all(occ[vs // 2, us // 2, bins] > 0.0)

                if name == "identity":
                    want = depth_bin_index(np.array(2.0), cfg)
                    assert np.all(occ[:, :, want] == 1.0)
                    assert np.allclose(occ.sum(axis=-1), 1.0)


def test_criterion_05_pose_recovery_and_epipolar_residuals():
    with gate(5, "pose recovery, outlier rejection, occluded-pair epipolar residual", 10.0):
        rng = np.random.default_rng(55)
        gt = PoseSE3(axis_angle((1.0, 2.0, 3.0), 10.0), np.array([0.3, -0.1, 0.05]))

        px_a, px_b = projected_correspondences(rng, gt, 100)
        _, r, t, inliers = essential_from_matches(px_a, px_b, K_VGA, K_VGA)
        report = pose_error(r, t, gt.R, gt.t, int(inliers.sum()))
        assert report.rotation_deg < 0.1
        assert report.translation_deg < 0.1

        # 40% planted outliers: recall over the 120 true inliers.
        in_a, in_b = projected_correspondences(rng, gt, 120)
        junk_a = rng.uniform([0, 0], [640, 480], size=(80, 2))
        junk_b = rng.uniform([0, 0], [640, 480], size=(80, 2))
        _, _, _, mask = essential_from_matches(
            np.vstack([in_a, junk_a]), np.vstack([in_b, junk_b]), K_VGA, K_VGA
        )
        assert mask[:120].sum() / 120 >= 0.95

        # Occluded ground-truth pairs still satisfy the epipolar constraint.
        fx = make_fixture("two_plane")
        for src, dst in ((fx.pose_a, fx.pose_b), (fx.pose_b, fx.pose_a)):
            depth_src = render_depth(fx.scene, src, fx.k)
            t_rel = relative_pose(src, dst)
            vs, us = np.nonzero(depth_src.valid_mask)
            cls, uv_dst = classify_points(
                us, vs, depth_src.data[vs, us], render_depth(fx.scene, dst, fx.k),
                fx.k, fx.k, t_rel,
            )
            occluded = cls == PixelClass.OCCLUDED_IN_OTHER
            assert occluded.any()
            e = essential_from_pose(t_rel)
            ones = np.ones(int(occluded.sum()))
            xa = unproject_points(us[occluded].astype(float), vs[occluded].astype(float), ones, fx.k)[:, :2]
            xb = unproject_points(uv_dst[occluded, 0], uv_dst[occluded, 1], ones, fx.k)[:, :2]
            assert float(sampson_distance(e, xa, xb).max()) < 1e-9


def test_criterion_06_auc_hand_cases_and_monotonicity():
    with gate(6, "pose AUC hand-computed values and threshold monotonicity"):
        zeros = auc([0.0] * 7)
        assert zeros == {5.0: 100.0, 10.0: 100.0, 20.0: 100.0}
        assert auc([2.0])[5.0] == 60.0

        rng = np.random.default_rng(66)
        errors = rng.uniform(0.0, 30.0, size=50).tolist()
        curve = auc(errors)
        assert curve[5.0] <= curve[10.0] <= curve[20.0]


def test_criterion_07_loss_arithmetic():
    with gate(7, "loss values at the published operating points"):
        assert total_loss(1.0, 1.0, 1.0) == pytest.approx(2.1, abs=1e-12)

        inv_e = math.exp(-1.0)
        p_hat = np.full((4, 4), inv_e)
        gt = CoarseMatchSet(
            patch_stride=8, vv=[(0, 0), (1, 1), (2, 2)], vo=[], ov=[],
            grid_a=(2, 2), grid_b=(2, 2),
        )
        assert coarse_loss(p_hat, gt) == pytest.approx(1.0, abs=1e-12)

        rng = np.random.default_rng(77)
        raw = rng.uniform(0.1, 1.0, size=(6, 5, 8))
        occ = OccupancyGrid(raw / raw.sum(axis=-1, keepdims=True))
        assert occupancy_loss(occ, occ) == 0.0


def run_pipeline(root, names, seed: str = "0"):
    for name in names:
        pair = str(root / name)
        assert main(["synth", "--fixture", name, "--out", pair]) == 0
        assert main(["supervise", "--pair", pair]) == 0
        assert main(["voxelize", "--pair", pair]) == 0
        assert main(["match", "--pair", pair, "--match-threshold", "0.2", "--seed", seed]) == 0


def test_criterion_08_end_to_end_fixture_pipeline(tmp_path):
    with gate(8, "five-fixture pipeline: vv recovery, pose AUC, roll branch", 60.0):
        run_pipeline(tmp_path, FIXTURE_NAMES)

        # Recovered: the matches whose patch pair is a GT covisible pair.
        recovered = gt_vv = 0
        for name in FIXTURE_NAMES:
            vv = {tuple(p) for p in read_json(tmp_path / name / "supervision.json")["vv"]}
            matches = read_matches(tmp_path / name / "matches.jsonl")
            gt_vv += len(vv)
            recovered += sum(pair in vv for pair in zip(matches.patch_a.tolist(),
                                                        matches.patch_b.tolist()))
        assert recovered / gt_vv >= 0.90

        # Pose AUC on the fixtures with a clean, observable baseline. The
        # identity pair has no baseline at all and the pure-rotation pair
        # carries a structural sub-pixel rotation floor, so the epipolar
        # scoring targets the translated pairs.
        noise_free = ("stereo", "two_plane")
        report_path = tmp_path / "report.json"
        code = main([
            "eval",
            "--matches", *[str(tmp_path / n / "matches.jsonl") for n in noise_free],
            "--manifests", *[str(tmp_path / n / "manifest.json") for n in noise_free],
            "--out-report", str(report_path),
            "--out-curve", str(tmp_path / "curve.csv"),
        ])
        assert code == 0
        assert read_json(report_path)["auc"]["5"] > 99.0

        roll = read_matches(tmp_path / "box_roll30" / "matches.jsonl")
        assert len(roll), "roll fixture produced no matches"
        rotated = (roll.branch == 30.0).any(axis=1).sum()  # a missing (NaN) branch holds no 30
        assert rotated / len(roll) > 0.60


def test_criterion_09_every_seeded_command_is_deterministic(tmp_path):
    with gate(9, "byte-identical reruns of all five subcommands"):
        outputs = []
        for run in ("first", "second"):
            root = tmp_path / run
            run_pipeline(root, ("box_roll30",), seed="123")
            pair = root / "box_roll30"
            assert main([
                "eval", "--matches", str(pair / "matches.jsonl"),
                "--manifests", str(pair / "manifest.json"),
                "--out-report", str(root / "report.json"),
                "--out-curve", str(root / "curve.csv"),
            ]) == 0
            files = {p.name: p.read_bytes() for p in pair.iterdir()}
            for extra in ("report.json", "curve.csv"):
                files[extra] = (root / extra).read_bytes()
            outputs.append(files)

        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between reruns"


def test_criterion_10_jacobians_match_finite_differences():
    with gate(10, "softmax Jacobians agree with central finite differences"):
        rng = np.random.default_rng(1010)
        h = 1e-6

        s = rng.standard_normal((4, 4))
        jac = dual_softmax_jacobian(s)
        fd = np.zeros_like(jac)
        for k in range(4):
            for l in range(4):
                e = np.zeros((4, 4))
                e[k, l] = h
                fd[:, :, k, l] = (dual_softmax(s + e) - dual_softmax(s - e)) / (2 * h)
        scale = max(float(np.abs(jac).max()), 1e-12)
        assert float(np.abs(jac - fd).max()) / scale < 1e-4

        logits = rng.standard_normal((4, 4))
        from occmatch.numerics import softmax, softmax_jacobian

        jac_d = softmax_jacobian(logits)
        fd_d = np.zeros_like(jac_d)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd_d[:, :, j] = (softmax(logits + e, axis=-1) - softmax(logits - e, axis=-1)) / (2 * h)
        scale = max(float(np.abs(jac_d).max()), 1e-12)
        assert float(np.abs(jac_d - fd_d).max()) / scale < 1e-4
