"""Batch command-line front-end over the pair-directory file formats.

Commands: synth, supervise, voxelize, match, eval, curve. Settings merge
with precedence flags > --config file > fixture overrides recorded in the
pair manifest > package defaults, and the effective configuration is echoed
into every JSON output. Seeded commands are deterministic down to the byte.

Exit codes: 0 success, 2 a supervise filter rejected the pair, 1 any error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import formats
from .errors import (
    DegenerateConfigurationError,
    InsufficientMatchesError,
    OccMatchError,
    SchemaError,
    ZeroTranslationError,
)
from .geometry import CameraIntrinsics, DepthMap, PoseSE3, relative_pose
from .matching import FeatureGrid, Match, MatchingConfig, match_pair
from .occupancy import OccupancyConfig, build_ground_truth_occupancy
from .pose_eval import (
    PoseErrorReport,
    RansacConfig,
    auc,
    cumulative_occlusion_curve,
    essential_from_matches,
    pose_error,
    rotation_error_deg,
)
from .supervision import CoarseMatchSet, OcclusionMargin, coarse_match_ground_truth, pair_stats
from .synth import FIXTURE_NAMES, FeatureParams, make_fixture, make_pair

_ENV_SEED = "OCCMATCH_SEED"

_PAIR_FILES = ("depth_a", "depth_b", "coarse_a", "coarse_b", "fine_a", "fine_b")


# Flat setting names that differ from the field of the module config owning them.
_RENAMED = {"margin_floor": "floor", "margin_relative": "relative",
            "ransac_iterations": "max_iterations", "ransac_confidence": "confidence",
            "seed": "rng_seed"}


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one command after precedence merging.

    The fields besides the module configs are the CLI's own settings; each
    module-config field is a setting too, named as `_RENAMED` says or as the
    field, in flags, --config files, manifests and the JSON echo.
    """

    patch_stride: int = 8
    channels: int = 128
    auc_thresholds: tuple[float, ...] = (5.0, 10.0, 20.0)
    min_overlap: Optional[float] = None
    max_overlap: Optional[float] = None
    min_occlusion: Optional[float] = None
    margin: OcclusionMargin = field(default_factory=OcclusionMargin)
    occupancy: OccupancyConfig = field(default_factory=OccupancyConfig)
    matching: MatchingConfig = field(default_factory=MatchingConfig)
    ransac: RansacConfig = field(default_factory=RansacConfig)

    def __post_init__(self) -> None:
        for name in ("min_overlap", "max_overlap", "min_occlusion"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        self.features()

    @property
    def seed(self) -> int:
        return self.ransac.rng_seed

    def features(self) -> FeatureParams:
        return FeatureParams(channels=self.channels, coarse_stride=self.patch_stride)

    def to_json(self) -> dict:
        return {name: getattr(getattr(self, owner) if owner else self, owner_field)
                for name, (owner, owner_field, _) in _SETTINGS.items()}


_HINTS = get_type_hints(RunConfig)
_MODULE_CONFIGS = {f.name: _HINTS[f.name] for f in fields(RunConfig) if is_dataclass(_HINTS[f.name])}


def _setting_table() -> dict[str, tuple[Optional[str], str, Any]]:
    """Flat name -> (RunConfig field holding the owning module config, or
    None for RunConfig's own settings; field name in the owner; type hint)."""
    table = {f.name: (None, f.name, _HINTS[f.name])
             for f in fields(RunConfig) if f.name not in _MODULE_CONFIGS}
    flat_name = {owned: flat for flat, owned in _RENAMED.items()}
    for owner, cls in _MODULE_CONFIGS.items():
        owner_hints = get_type_hints(cls)
        for f in fields(cls):
            table[flat_name.get(f.name, f.name)] = (owner, f.name, owner_hints[f.name])
    return table


_SETTINGS = _setting_table()


def _value_type(hint: Any) -> type:
    """X of a type hint X, Optional[X] or tuple[X, ...]."""
    return next((a for a in get_args(hint) if a is not type(None)), hint)


def _convert(hint: Any, value: Any) -> Any:
    """A setting's value from a flag, a JSON value or the environment,
    checked against its type hint."""
    kind = _value_type(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(_convert(kind, v) for v in value)
    if value is None and get_args(hint):  # Optional[X]
        return None
    if isinstance(value, str):
        return kind(value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


def merge_config(args: argparse.Namespace, manifest_overrides: Optional[dict] = None) -> RunConfig:
    """Resolve settings with precedence flags > config file > manifest
    overrides > defaults; the seed additionally falls back to the
    OCCMATCH_SEED environment variable. A value its type or its owner's
    constructor rejects raises a SchemaError naming the setting and source."""
    given: dict[Optional[str], dict[str, Any]] = {owner: {} for owner in (None, *_MODULE_CONFIGS)}
    origin: dict[str, str] = {}

    def absorb(values: Any, source: str) -> None:
        if not isinstance(values, dict):
            raise SchemaError(f"{source}: expected an object of settings")
        for name, value in values.items():
            if name not in _SETTINGS:
                raise SchemaError(f"{source}: unknown setting {name!r}")
            owner, owner_field, hint = _SETTINGS[name]
            try:
                given[owner][owner_field] = _convert(hint, value)
            except ValueError as exc:
                raise SchemaError(f"{source}: {name}: {exc}") from None
            origin[name] = source

    if manifest_overrides:
        absorb(manifest_overrides, "manifest match_overrides")
    if getattr(args, "config", None):
        absorb(formats.read_json(args.config), str(args.config))
    absorb({k: v for k, v in vars(args).items() if k in _SETTINGS and v is not None}, "flags")
    if "seed" not in origin and _ENV_SEED in os.environ:
        absorb({"seed": os.environ[_ENV_SEED]}, f"env {_ENV_SEED}")

    def construct(owner: Optional[str], cls: type, **modules: Any) -> Any:
        try:
            return cls(**given[owner], **modules)
        except ValueError as exc:
            named = ", ".join(f"{n} ({src})" for n, src in origin.items() if _SETTINGS[n][0] == owner)
            raise SchemaError(f"{named}: {exc}") from None

    return construct(None, RunConfig, **{o: construct(o, cls) for o, cls in _MODULE_CONFIGS.items()})


@dataclass
class PairDir:
    """A synthesized pair directory opened through its manifest."""

    path: Path
    manifest: dict
    k: CameraIntrinsics
    pose_a: PoseSE3
    pose_b: PoseSE3

    @property
    def pair_id(self) -> str:
        return str(self.manifest.get("id", self.path.name))

    def file(self, key: str) -> Path:
        name = self.manifest["files"].get(key)
        if not isinstance(name, str):
            raise SchemaError(f"{self.path / 'manifest.json'}: files[{key!r}] is not a file name")
        return self.path / name

    def depth(self, side: str) -> DepthMap:
        path = self.file(f"depth_{side}")
        depth = formats.read_depth(path)
        if (depth.width, depth.height) != (self.k.width, self.k.height):
            raise SchemaError(f"{path}: raster is {depth.width}x{depth.height}, but "
                              f"{self.path / 'manifest.json'}: fields 'k.width'/'k.height' give "
                              f"{self.k.width}x{self.k.height}")
        return depth

    def features(self, grid: str, side: str) -> FeatureGrid:
        return formats.read_features(self.file(f"{grid}_{side}"))

    def relative(self) -> PoseSE3:
        """Transform taking view-A camera coordinates into view B."""
        return relative_pose(self.pose_a, self.pose_b)


def load_pair(path: Path) -> PairDir:
    manifest_path = Path(path) / "manifest.json"
    manifest = formats.read_json(manifest_path)
    src = str(manifest_path)
    for field in ("k", "pose_a", "pose_b", "files"):
        if field not in manifest:
            raise SchemaError(f"{src}: missing field {field!r}")
        if not isinstance(manifest[field], dict):
            raise SchemaError(f"{src}: field {field!r} must be an object, got {manifest[field]!r}")
    return PairDir(
        path=Path(path),
        manifest=manifest,
        k=formats.intrinsics_from_json(manifest["k"], source=f"{src}: k"),
        pose_a=formats.pose_from_json(manifest["pose_a"], source=f"{src}: pose_a"),
        pose_b=formats.pose_from_json(manifest["pose_b"], source=f"{src}: pose_b"),
    )


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    if args.fixture:
        for flag in ("width", "height"):
            if getattr(args, flag) < 1:
                raise SchemaError(f"flags: --{flag} must be at least 1, got {getattr(args, flag)}")
        fixture = make_fixture(args.fixture, width=args.width, height=args.height)
        scene = fixture.scene
        pose_a, pose_b, k = fixture.pose_a, fixture.pose_b, fixture.k
        overrides = fixture.match_overrides
        pair_id = fixture.name
    else:
        for flag in ("scene", "pose_a", "pose_b", "intrinsics"):
            if getattr(args, flag) is None:
                raise SchemaError(f"flags: --{flag.replace('_', '-')} required without --fixture")
        scene = formats.scene_from_json(formats.read_json(args.scene), source=str(args.scene))
        pose_a = formats.pose_from_json(formats.read_json(args.pose_a), source=str(args.pose_a))
        pose_b = formats.pose_from_json(formats.read_json(args.pose_b), source=str(args.pose_b))
        k = formats.intrinsics_from_json(formats.read_json(args.intrinsics), source=str(args.intrinsics))
        overrides = {}
        pair_id = Path(args.scene).stem

    pair = make_pair(scene, pose_a, pose_b, k, cfg.features())

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_depth(out / "depth_a.odm", pair.depth_a)
    formats.write_depth(out / "depth_b.odm", pair.depth_b)
    formats.write_features(out / "coarse_a.ofg", pair.coarse_a)
    formats.write_features(out / "coarse_b.ofg", pair.coarse_b)
    formats.write_features(out / "fine_a.ofg", pair.fine_a)
    formats.write_features(out / "fine_b.ofg", pair.fine_b)

    ratio, overlap = pair.stats_a
    manifest = {
        "id": pair_id,
        "k": formats.intrinsics_to_json(k),
        "pose_a": formats.pose_to_json(pose_a),
        "pose_b": formats.pose_to_json(pose_b),
        "scene": formats.scene_to_json(scene),
        "files": {name: name + (".odm" if name.startswith("depth") else ".ofg")
                  for name in _PAIR_FILES},
        "occlusion_ratio": ratio,
        "overlap_score": overlap,
        "match_overrides": overrides,
        "config": cfg.to_json(),
    }
    formats.write_json(out / "manifest.json", manifest)
    print(f"synth: wrote pair {pair_id!r} to {out}")
    return 0


def cmd_supervise(args: argparse.Namespace) -> int:
    pair = load_pair(args.pair)
    cfg = merge_config(args)
    depth_a, depth_b = pair.depth("a"), pair.depth("b")
    t_ba = pair.relative()
    stats = pair_stats(depth_a, depth_b, pair.k, pair.k, t_ba, cfg.margin)

    reasons = []
    if cfg.min_occlusion is not None and stats.occlusion_ratio < cfg.min_occlusion:
        reasons.append(f"occlusion_ratio {stats.occlusion_ratio:.4f} < {cfg.min_occlusion}")
    if cfg.min_overlap is not None and stats.overlap_score < cfg.min_overlap:
        reasons.append(f"overlap_score {stats.overlap_score:.4f} < {cfg.min_overlap}")
    if cfg.max_overlap is not None and stats.overlap_score > cfg.max_overlap:
        reasons.append(f"overlap_score {stats.overlap_score:.4f} > {cfg.max_overlap}")
    if reasons:
        print(f"supervise: pair {pair.pair_id!r} rejected: " + "; ".join(reasons))
        return 2

    gt = coarse_match_ground_truth(
        depth_a, depth_b, pair.k, pair.k, t_ba,
        margin=cfg.margin, patch_stride=cfg.patch_stride,
    )
    out = Path(args.out) if args.out else pair.path / "supervision.json"
    formats.write_json(out, formats.supervision_to_json(gt, stats, config=cfg.to_json()))
    print(f"supervise: {len(gt.vv)} vv / {len(gt.vo)} vo / {len(gt.ov)} ov -> {out}")
    return 0


def cmd_voxelize(args: argparse.Namespace) -> int:
    pair = load_pair(args.pair)
    cfg = merge_config(args)
    depth_a, depth_b = pair.depth("a"), pair.depth("b")
    out_dir = Path(args.out_dir) if args.out_dir else pair.path
    out_dir.mkdir(parents=True, exist_ok=True)
    for target in ("a", "b"):
        grid = build_ground_truth_occupancy(
            depth_a, depth_b, pair.pose_a, pair.pose_b, pair.k, pair.k,
            target=target, cfg=cfg.occupancy,
        )
        formats.write_occupancy(out_dir / f"occ_{target}.ocg", grid)
    formats.write_json(out_dir / "voxelize_config.json", {"config": cfg.to_json()})
    print(f"voxelize: wrote occ_a.ocg / occ_b.ocg to {out_dir}")
    return 0


def _label_sets(gt: CoarseMatchSet) -> dict[str, set[tuple[int, int]]]:
    return {"vv": set(gt.vv), "vo": set(gt.vo), "ov": set(gt.ov)}


def cmd_match(args: argparse.Namespace) -> int:
    pair = load_pair(args.pair)
    cfg = merge_config(args, manifest_overrides=pair.manifest.get("match_overrides"))
    coarse_a = pair.features("coarse", "a")
    coarse_b = pair.features("coarse", "b")
    fine_a = pair.features("fine", "a")
    fine_b = pair.features("fine", "b")

    supervision_path = pair.path / "supervision.json"
    if supervision_path.exists():
        gt = formats.supervision_from_json(formats.read_json(supervision_path),
                                           source=str(supervision_path))
        if gt.patch_stride != coarse_a.stride:
            raise SchemaError(f"{supervision_path}: patch_stride {gt.patch_stride} differs from "
                              f"the coarse feature stride {coarse_a.stride}")
        for name, grid in (("grid_a", coarse_a), ("grid_b", coarse_b)):
            if getattr(gt, name) != grid.grid_shape:
                raise SchemaError(f"{supervision_path}: {name} {list(getattr(gt, name))} differs "
                                  f"from the coarse feature grid {list(grid.grid_shape)}")
    else:
        gt = coarse_match_ground_truth(
            pair.depth("a"), pair.depth("b"), pair.k, pair.k, pair.relative(),
            margin=cfg.margin, patch_stride=coarse_a.stride,
        )
    result = match_pair(coarse_a, coarse_b, fine_a, fine_b, cfg.matching, seed=cfg.seed)
    labels = _label_sets(gt)
    for m in result.matches:
        key = (m.patch_a, m.patch_b)
        m.label = next((name for name, pairs in labels.items() if key in pairs), "none")

    out = Path(args.out) if args.out else pair.path / "matches.jsonl"
    formats.write_matches(out, result.matches)
    formats.write_json(out.with_name("match_config.json"), {
        "pair": pair.pair_id,
        "branches": [list(b) for b in result.branches],
        "config": cfg.to_json(),
    })
    print(f"match: {len(result.matches)} matches -> {out}")
    return 0


def _threshold_key(t: float) -> str:
    return str(int(t)) if float(t).is_integer() else str(t)


def _evaluate_pair(pair: PairDir, matches: list[Match], cfg: RunConfig) -> PoseErrorReport:
    """Pose error of one pair; failures come back as infinite errors.

    A (near-)zero ground-truth baseline leaves the translation direction
    unobservable; by the usual evaluation convention its error is 0 and
    the pair is scored on rotation alone.
    """
    gt = pair.relative()
    px_a = np.array([[m.point_a.u, m.point_a.v] for m in matches if m.point_a and m.point_b])
    px_b = np.array([[m.point_b.u, m.point_b.v] for m in matches if m.point_a and m.point_b])
    try:
        _, r_est, t_est, inliers = essential_from_matches(
            px_a.reshape(-1, 2), px_b.reshape(-1, 2), pair.k, pair.k, cfg.ransac
        )
    except (InsufficientMatchesError, DegenerateConfigurationError):
        return PoseErrorReport(np.inf, np.inf, np.inf, 0)
    count = int(inliers.sum())
    try:
        return pose_error(r_est, t_est, gt.R, gt.t, inlier_count=count)
    except ZeroTranslationError:
        rot = rotation_error_deg(r_est, gt.R)
        return PoseErrorReport(rot, 0.0, rot, count)


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    if len(args.matches) != len(args.manifests):
        raise SchemaError(
            f"flags: {len(args.matches)} matches files vs {len(args.manifests)} manifests"
        )
    rows = []
    curve_entries = []
    for matches_path, manifest_path in zip(args.matches, args.manifests):
        pair = load_pair(Path(manifest_path).parent)
        matches = formats.read_matches(matches_path)
        report = _evaluate_pair(pair, matches, cfg)
        ratio = float(formats._field(pair.manifest, "occlusion_ratio", str(manifest_path),
                                     formats._is_number, "a number", default=0.0))
        rows.append({
            "id": pair.pair_id,
            "occlusion_ratio": ratio,
            "rot_err_deg": report.rotation_deg,
            "t_err_deg": report.translation_deg,
            "pose_err_deg": report.pose_deg,
            "inliers": report.inlier_count,
        })
        curve_entries.append((ratio, report.pose_deg))

    scores = auc([row["pose_err_deg"] for row in rows], cfg.auc_thresholds)
    report_obj = {
        "pairs": rows,
        "auc": {_threshold_key(t): scores[t] for t in cfg.auc_thresholds},
        "config": cfg.to_json(),
    }
    formats.write_json(args.out_report, report_obj)
    curve = cumulative_occlusion_curve(curve_entries)
    formats.write_curve_csv(args.out_curve, curve)
    shown = ", ".join(f"AUC@{_threshold_key(t)} {scores[t]:.2f}" for t in cfg.auc_thresholds)
    print(f"eval: {len(rows)} pairs; {shown}")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    pairs = formats._field(formats.read_json(args.report), "pairs", str(args.report),
                           lambda v: formats._is_list(v, lambda row: isinstance(row, dict)),
                           "a list of objects")
    entries = []
    for i, row in enumerate(pairs):
        src = f"{args.report}: pairs[{i}]"
        entries.append(tuple(float(formats._field(row, name, src, formats._is_number, "a number"))
                             for name in ("occlusion_ratio", "pose_err_deg")))
    formats.write_curve_csv(args.out, cumulative_occlusion_curve(entries))
    print(f"curve: {len(entries)} rows -> {args.out}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("configuration", "flags > --config file > manifest overrides > "
                             f"defaults; --seed falls back to ${_ENV_SEED}, then 0")
    g.add_argument("--config", type=Path, help="JSON object of settings, by flag name with '_'")
    for name, (_, _, hint) in _SETTINGS.items():
        g.add_argument("--" + name.replace("_", "-"), type=_value_type(hint),
                       nargs="+" if get_origin(hint) is tuple else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occmatch",
        description="Synthetic two-view matching pipeline over pair directories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a scene into a pair directory")
    p.add_argument("--fixture", choices=FIXTURE_NAMES,
                   help="use a named built-in fixture instead of scene files")
    p.add_argument("--scene", type=Path, help="scene JSON")
    p.add_argument("--pose-a", type=Path, dest="pose_a", help="camera-to-world pose JSON")
    p.add_argument("--pose-b", type=Path, dest="pose_b", help="camera-to-world pose JSON")
    p.add_argument("--intrinsics", type=Path, help="intrinsics JSON")
    p.add_argument("--width", type=int, default=192, help="fixture image width")
    p.add_argument("--height", type=int, default=144, help="fixture image height")
    p.add_argument("--out", type=Path, required=True, help="pair directory to create")
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("supervise", help="compute GT patch matches and pair stats")
    p.add_argument("--pair", type=Path, required=True, help="pair directory")
    p.add_argument("--out", type=Path, help="output JSON (default: pair/supervision.json)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_supervise)

    p = sub.add_parser("voxelize", help="build GT occupancy grids for both views")
    p.add_argument("--pair", type=Path, required=True, help="pair directory")
    p.add_argument("--out-dir", type=Path, dest="out_dir",
                   help="output directory (default: the pair directory)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_voxelize)

    p = sub.add_parser("match", help="run coarse-to-fine matching on a pair")
    p.add_argument("--pair", type=Path, required=True, help="pair directory")
    p.add_argument("--out", type=Path, help="output JSONL (default: pair/matches.jsonl)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("eval", help="estimate poses from matches and score them")
    p.add_argument("--matches", type=Path, nargs="+", required=True,
                   help="matches.jsonl files, one per pair")
    p.add_argument("--manifests", type=Path, nargs="+", required=True,
                   help="manifest.json files, same order as --matches")
    p.add_argument("--out-report", type=Path, dest="out_report", required=True)
    p.add_argument("--out-curve", type=Path, dest="out_curve", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curve", help="rebuild the cumulative error curve from a report")
    p.add_argument("--report", type=Path, required=True, help="report JSON from eval")
    p.add_argument("--out", type=Path, required=True, help="curve CSV path")
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OccMatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
