"""Occlusion-aware two-view matching on synthetic ray-cast scenes.

The package splits into geometry (camera model and patch grid),
supervision (exact reprojection ground truth), occupancy (per-ray depth
distributions), matching (rotation-aligned dual-softmax correspondence with
coarse-to-fine refinement), pose_eval (essential-matrix RANSAC and AUC
scoring), synth (the fixture scenes), and formats/cli (the on-disk pipeline).
"""

from .errors import OccMatchError
from .geometry import (
    CameraIntrinsics,
    DepthMap,
    PoseSE3,
    patch_grid,
    project_points,
    relative_pose,
    unproject_points,
)
from .matching import (
    FeatureGrid,
    Matches,
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
from .occupancy import (
    OccupancyCells,
    OccupancyConfig,
    OccupancyFactors,
    OccupancyGrid,
    build_ground_truth_occupancy,
    estimate_occupancy,
    ground_truth_cells,
    occupancy_loss,
)
from .pose_eval import (
    PoseErrorReport,
    RansacConfig,
    auc,
    cumulative_occlusion_curve,
    essential_from_matches,
    essential_from_pose,
    pose_error,
    sampson_distance,
)
from .supervision import (
    MARGIN_FLOOR,
    MARGIN_RELATIVE,
    CoarseMatchSet,
    PairStats,
    PixelClass,
    classify_points,
    coarse_match_ground_truth,
    pair_stats,
)
from .synth import (
    FIXTURE_NAMES,
    Box,
    FeatureParams,
    Plane,
    SceneSpec,
    SyntheticPair,
    make_fixture,
    make_pair,
    render_depth,
)

__version__ = "0.1.0"

__all__ = [
    "OccMatchError",
    "CameraIntrinsics", "DepthMap", "PoseSE3",
    "project_points", "unproject_points", "relative_pose", "patch_grid",
    "PixelClass", "MARGIN_FLOOR", "MARGIN_RELATIVE", "PairStats", "CoarseMatchSet",
    "classify_points", "pair_stats", "coarse_match_ground_truth",
    "OccupancyConfig", "OccupancyGrid", "OccupancyCells", "OccupancyFactors",
    "ground_truth_cells", "build_ground_truth_occupancy", "estimate_occupancy", "occupancy_loss",
    "FeatureGrid", "Matches", "MatchingConfig",
    "neighborhood_mean", "rotation_align", "score_matrix", "dual_softmax",
    "dual_softmax_jacobian", "gumbel_select", "extract_matches",
    "refine_fine_match", "coarse_loss", "total_loss",
    "match_pair",
    "RansacConfig", "PoseErrorReport", "essential_from_pose",
    "essential_from_matches", "sampson_distance", "pose_error", "auc",
    "cumulative_occlusion_curve",
    "SceneSpec", "Plane", "Box", "FeatureParams", "SyntheticPair",
    "FIXTURE_NAMES", "render_depth", "make_pair", "make_fixture",
    "__version__",
]
