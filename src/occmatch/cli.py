"""Batch command-line front-end over the pair-directory file formats.

Commands: synth, supervise, voxelize, match, eval. Each takes, as flags or
--config keys, only the settings `_READS` lists for it, merged with
precedence flags > --config file > package defaults through one converter,
and echoes just those into its JSON output. Seeded commands are
deterministic down to the byte.

Exit codes: 0 success, 1 any error, an unreadable command line included.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, NoReturn, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import formats
from .errors import (
    DegenerateConfigurationError,
    EmptyCloudError,
    EmptyDepthError,
    InsufficientMatchesError,
    OccMatchError,
    SchemaError,
    ZeroTranslationError,
)
from .geometry import CameraIntrinsics, DepthMap, PoseSE3, patch_grid, relative_pose
from .matching import FeatureGrid, Match, MatchingConfig, match_pair
# voxelize calls ground_truth_cells; bench/spans.py still traces
# build_ground_truth_occupancy by this module's name for it.
from .occupancy import (  # noqa: F401
    OccupancyConfig, build_ground_truth_occupancy, ground_truth_cells,
)
from .pose_eval import (
    PoseErrorReport,
    RansacConfig,
    auc,
    cumulative_occlusion_curve,
    essential_from_matches,
    pose_error,
    rotation_error_deg,
)
from .supervision import (
    MATCH_LABELS, OcclusionMargin, PairStats, coarse_match_ground_truth, label_matches, pair_stats,
)
from .synth import FIXTURE_NAMES, FeatureParams, make_fixture, make_pair

_FEATURE_FILES = ("coarse_a", "coarse_b", "fine_a", "fine_b")
# The rasters synth writes beside the manifest, by key; no manifest lists them.
_PAIR_FILES = {key: key + (".odm" if key.startswith("depth") else ".ofg")
               for key in ("depth_a", "depth_b", *_FEATURE_FILES)}


# Flat setting names that differ from the field of the module config owning them.
_RENAMED = {"margin_floor": "floor", "margin_relative": "relative",
            "ransac_iterations": "max_iterations", "ransac_confidence": "confidence",
            "seed": "rng_seed", "patch_stride": "coarse_stride"}

# The settings each command reads: its setting flags, the names its --config
# file may set, and the keys of its JSON echo.
_READS = {
    "synth": ("channels", "patch_stride"),
    "supervise": ("margin_floor", "margin_relative"),  # the stride is coarse_a.ofg's
    "voxelize": ("depth_bins", "d_min", "d_max"),
    "match": ("temperature", "angles", "match_threshold", "fine_window", "fine_temperature"),
    "eval": ("ransac_iterations", "inlier_threshold", "ransac_confidence", "seed", "auc_thresholds",
             "margin_floor", "margin_relative"),  # the margins label the matches
}


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one command after precedence merging; those it
    does not read keep their defaults. The fields besides the module configs
    are the CLI's own settings; each module-config field is a setting too,
    named as `_RENAMED` says or as the field.
    """

    auc_thresholds: tuple[float, ...] = (5.0, 10.0, 20.0)
    features: FeatureParams = field(default_factory=FeatureParams)
    margin: OcclusionMargin = field(default_factory=OcclusionMargin)
    occupancy: OccupancyConfig = field(default_factory=OccupancyConfig)
    matching: MatchingConfig = field(default_factory=MatchingConfig)
    ransac: RansacConfig = field(default_factory=RansacConfig)

    def __post_init__(self) -> None:
        if not self.auc_thresholds or not all(0 < t < np.inf for t in self.auc_thresholds):
            raise ValueError(f"need finite, positive AUC thresholds, got {list(self.auc_thresholds)}")

    def to_json(self, command: str) -> dict:
        """The settings `command` reads, by name."""
        return {name: getattr(getattr(self, owner) if owner else self, owner_field)
                for name, (owner, owner_field, _) in _SETTINGS.items() if name in _READS[command]}


_MODULE_CONFIGS = {n: hint for n, hint in get_type_hints(RunConfig).items() if is_dataclass(hint)}


def _setting_table() -> dict[str, tuple[Optional[str], str, Any]]:
    """Flat name -> (RunConfig field holding the owning module config, or
    None for RunConfig's own settings; field name in the owner; type hint)."""
    flat_name = {owned: flat for flat, owned in _RENAMED.items()}
    return {flat_name.get(f.name, f.name): (owner, f.name, get_type_hints(cls)[f.name])
            for owner, cls in [(None, RunConfig), *_MODULE_CONFIGS.items()]
            for f in fields(cls) if f.name not in _MODULE_CONFIGS}


_SETTINGS = _setting_table()


def _refusal(command: str, name: str, shown: str) -> str:
    """Why `command` refuses the setting `name`, given as `shown`."""
    readers = " and ".join(c for c, names in _READS.items() if name in names)
    return f"{shown} is read by {readers}, not by {command}" if readers else f"unknown {shown}"


def _convert(hint: Any, value: Any) -> Any:
    """A setting's value from flag text or a JSON value, checked against its
    type hint: int, float or tuple[X, ...]."""
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(_convert(get_args(hint)[0], v) for v in value)
    if isinstance(value, str):
        return hint(value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else int):
        raise ValueError(f"expected {hint.__name__}, got {value!r}")
    return hint(value)


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Resolve the settings `args.command` reads with precedence flags >
    config file > defaults, reading no manifest and no environment. A
    setting the command does not read, or a value its type or its owner's
    constructor rejects, raises a SchemaError naming the setting and source."""
    reads = _READS[args.command]
    given: dict[Optional[str], dict[str, Any]] = {owner: {} for owner in (None, *_MODULE_CONFIGS)}
    origin: dict[str, str] = {}

    def absorb(values: Any, source: str) -> None:
        if not isinstance(values, dict):
            raise SchemaError(f"{source}: expected an object of settings")
        for name, value in values.items():
            if name not in reads:
                raise SchemaError(f"{source}: {_refusal(args.command, name, f'setting {name!r}')}")
            owner, owner_field, hint = _SETTINGS[name]
            try:
                given[owner][owner_field] = _convert(hint, value)
            except ValueError as exc:
                raise SchemaError(f"{source}: {name}: {exc}") from None
            origin[name] = source

    if args.config:
        absorb(formats.read_json(args.config), str(args.config))
    absorb({k: getattr(args, k) for k in reads if getattr(args, k) is not None}, "flags")

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
        return self.path / _PAIR_FILES[key]

    def depth(self, side: str) -> DepthMap:
        path = self.file(f"depth_{side}")
        depth = formats.read_depth(path)
        if (depth.width, depth.height) != (self.k.width, self.k.height):
            raise SchemaError(f"{path}: raster is {depth.width}x{depth.height}, but "
                              f"{self.path / 'manifest.json'}: fields 'k.width'/'k.height' give "
                              f"{self.k.width}x{self.k.height}")
        return depth

    def feature_grid(self, key: str) -> FeatureGrid:
        """The feature grid `key` (one of _FEATURE_FILES); it must have the
        manifest image's patch grid at its own stride."""
        path = self.file(key)
        grid = formats.read_features(path)
        want = patch_grid(self.k.height, self.k.width, grid.stride)
        if grid.grid_shape != want:
            rows, cols = grid.grid_shape
            raise SchemaError(f"{path}: fields 'rows'/'cols'/'stride' give {rows}x{cols} cells "
                              f"at stride {grid.stride}, but {self.path / 'manifest.json'}: "
                              f"fields 'k.width'/'k.height' ({self.k.width}x{self.k.height}) "
                              f"give {want[0]}x{want[1]} at that stride")
        return grid

    def features(self) -> tuple[FeatureGrid, ...]:
        """coarse_a, coarse_b, fine_a, fine_b, each read by feature_grid;
        the views must share each level's stride and channel count, and the
        fine stride must divide the coarse one."""
        grids = [self.feature_grid(key) for key in _FEATURE_FILES]
        paths = [self.file(key) for key in _FEATURE_FILES]
        for a, b in ((0, 1), (2, 3)):
            for name in ("stride", "channels"):
                if getattr(grids[b], name) != getattr(grids[a], name):
                    raise SchemaError(f"{paths[b]}: field {name!r} is {getattr(grids[b], name)}, "
                                      f"but {getattr(grids[a], name)} in {paths[a]}")
        if grids[0].stride % grids[2].stride:
            raise SchemaError(f"{paths[2]}: field 'stride' {grids[2].stride} does not divide "
                              f"the coarse stride {grids[0].stride} of {paths[0]}")
        return tuple(grids)


def load_pair(path: Path) -> PairDir:
    manifest_path = Path(path) / "manifest.json"
    manifest = formats.read_json(manifest_path)
    src = str(manifest_path)
    for field in ("k", "pose_a", "pose_b"):
        formats._field(manifest, field, src, lambda v: isinstance(v, dict), "an object")
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
        scene, pose_a, pose_b, k = fixture.scene, fixture.pose_a, fixture.pose_b, fixture.k
        pair_id = fixture.name
        source = f"--fixture {fixture.name}"
    else:
        for flag in ("scene", "pose_a", "pose_b", "intrinsics"):
            if getattr(args, flag) is None:
                raise SchemaError(f"flags: --{flag.replace('_', '-')} required without --fixture")
        scene = formats.scene_from_json(formats.read_json(args.scene), source=str(args.scene))
        pose_a = formats.pose_from_json(formats.read_json(args.pose_a), source=str(args.pose_a))
        pose_b = formats.pose_from_json(formats.read_json(args.pose_b), source=str(args.pose_b))
        k = formats.intrinsics_from_json(formats.read_json(args.intrinsics), source=str(args.intrinsics))
        pair_id = Path(args.scene).stem
        source = str(args.scene)

    pair = make_pair(scene, pose_a, pose_b, k, cfg.features)
    # Every later command but voxelize needs view A to see the scene.
    if not pair.depth_a.valid_mask.any():
        views = "views A and B" if not pair.depth_b.valid_mask.any() else "view A"
        raise EmptyDepthError(f"{source}: {views} would have no valid depth pixel: "
                              f"no ray hits the scene")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for key, file_name in _PAIR_FILES.items():
        write = formats.write_depth if key.startswith("depth") else formats.write_features
        write(out / file_name, getattr(pair, key))

    stats = PairStats.from_classes(pair.classes_a)
    manifest = {
        "id": pair_id,
        "k": formats.intrinsics_to_json(k),
        "pose_a": formats.pose_to_json(pose_a),
        "pose_b": formats.pose_to_json(pose_b),
        "scene": formats.scene_to_json(scene),
        "occlusion_ratio": stats.occlusion_ratio,
        "overlap_score": stats.overlap_score,
        "config": cfg.to_json(args.command),
    }
    formats.write_json(out / "manifest.json", manifest)
    print(f"synth: wrote pair {pair_id!r} to {out}")
    return 0


def cmd_supervise(args: argparse.Namespace) -> int:
    pair = load_pair(args.pair)
    cfg = merge_config(args)
    depth_a, depth_b = pair.depth("a"), pair.depth("b")
    # The GT indexes the patches of the grids that match will read.
    stride = pair.feature_grid("coarse_a").stride
    t_ba = relative_pose(pair.pose_a, pair.pose_b)
    try:
        stats = pair_stats(depth_a, depth_b, pair.k, pair.k, t_ba, cfg.margin)
        gt = coarse_match_ground_truth(
            depth_a, depth_b, pair.k, pair.k, t_ba,
            margin=cfg.margin, patch_stride=stride,
        )
    except EmptyDepthError as exc:
        raise EmptyDepthError(f"{pair.file('depth_a')}: {exc}") from None
    out = Path(args.out) if args.out else pair.path / "supervision.json"
    formats.write_supervision(out, gt, stats, config=cfg.to_json(args.command))
    print(f"supervise: {len(gt.vv)} vv / {len(gt.vo)} vo / {len(gt.ov)} ov -> {out}")
    return 0


def cmd_voxelize(args: argparse.Namespace) -> int:
    pair = load_pair(args.pair)
    cfg = merge_config(args)
    depth_a, depth_b = pair.depth("a"), pair.depth("b")
    out_dir = Path(args.out_dir) if args.out_dir else pair.path
    out_dir.mkdir(parents=True, exist_ok=True)
    for target in ("a", "b"):
        try:
            cells = ground_truth_cells(
                depth_a, depth_b, pair.pose_a, pair.pose_b, pair.k, pair.k,
                target=target, cfg=cfg.occupancy,
            )
        except EmptyCloudError as exc:
            raise EmptyCloudError(f"{pair.file('depth_a')}, {pair.file('depth_b')}: {exc}") from None
        formats.write_occupancy(out_dir / f"occ_{target}.ocg", cells)
    formats.write_json(out_dir / "voxelize_config.json", {"config": cfg.to_json(args.command)})
    print(f"voxelize: wrote occ_a.ocg / occ_b.ocg to {out_dir}")
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    pair = load_pair(args.pair)
    cfg = merge_config(args)
    result = match_pair(*pair.features(), cfg.matching)
    out = Path(args.out) if args.out else pair.path / "matches.jsonl"
    formats.write_matches(out, result.matches)
    formats.write_json(out.with_name("match_config.json"), {
        "pair": pair.pair_id,
        "branches": [list(b) for b in result.branches],
        "config": cfg.to_json(args.command),
    })
    print(f"match: {len(result.matches)} matches -> {out}")
    return 0


def _threshold_key(t: float) -> str:
    return str(int(t)) if float(t).is_integer() else str(t)


def _evaluate_pair(pair: PairDir, gt: PoseSE3, px_a: np.ndarray, px_b: np.ndarray,
                   cfg: RunConfig) -> tuple[PoseErrorReport, Optional[str]]:
    """Pose error against the GT relative pose `gt` of one pair from its
    (n, 2) matched points, and why no pose was solved (None if one was); a
    failure comes back as infinite errors and its exception's message.

    A (near-)zero ground-truth baseline leaves the translation direction
    unobservable; by the usual evaluation convention its error is 0 and
    the pair is scored on rotation alone.
    """
    try:
        _, r_est, t_est, inliers = essential_from_matches(px_a, px_b, pair.k, pair.k, cfg.ransac)
    except (InsufficientMatchesError, DegenerateConfigurationError) as exc:
        return PoseErrorReport(np.inf, np.inf, np.inf, 0), str(exc)
    count = int(inliers.sum())
    try:
        return pose_error(r_est, t_est, gt.R, gt.t, inlier_count=count), None
    except ZeroTranslationError:
        rot = rotation_error_deg(r_est, gt.R)
        return PoseErrorReport(rot, 0.0, rot, count), None


def _branch_counts(matches: list[Match]) -> list:
    """Histogram of the matches' branches as [[theta_a, theta_b], n] pairs,
    sorted by branch; matches without a branch count under null, last."""
    counts = Counter(m.branch for m in matches)
    order = sorted(counts, key=lambda b: (b is None, b or ()))
    return [[None if b is None else list(b), counts[b]] for b in order]


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
        # (2, n, 2): the refined A and B points of the matches that have both.
        px = np.array([(m.point_a, m.point_b) for m in matches if m.point_a and m.point_b],
                      dtype=np.float64).reshape(-1, 2, 2).transpose(1, 0, 2)
        t_ba = relative_pose(pair.pose_a, pair.pose_b)
        report, failure = _evaluate_pair(pair, t_ba, *px, cfg)
        ratio = float(formats._field(pair.manifest, "occlusion_ratio", str(manifest_path),
                                     lambda v: formats._is_number(v) and 0 <= v <= 1,
                                     "a number in [0, 1]"))
        found, epe = label_matches(*px, pair.depth("a"), pair.depth("b"), pair.k, pair.k, t_ba,
                                   cfg.margin)
        labels = Counter(found.tolist())
        labels["none"] += len(matches) - len(found)
        epe = epe[~np.isnan(epe)]
        rows.append({
            "id": pair.pair_id,
            "occlusion_ratio": ratio,
            "rot_err_deg": report.rotation_deg,
            "t_err_deg": report.translation_deg,
            "pose_err_deg": report.pose_deg,
            "inliers": report.inlier_count,
            "failure": failure,
            "matches": len(matches),
            "labels": {k: labels[k] for k in MATCH_LABELS},
            "epe_px": dict(zip(("median", "p90"), np.percentile(epe, [50, 90]).tolist()))
                      if epe.size else None,
            "branch_counts": _branch_counts(matches),
        })
        curve_entries.append((ratio, report.pose_deg))

    scores = auc([row["pose_err_deg"] for row in rows], cfg.auc_thresholds)
    formats.write_json(args.out_report, {
        "pairs": rows,
        "auc": {_threshold_key(t): scores[t] for t in cfg.auc_thresholds},
        "config": cfg.to_json(args.command),
    })
    formats.write_curve_csv(args.out_curve, cumulative_occlusion_curve(curve_entries))
    shown = ", ".join(f"AUC@{_threshold_key(t)} {scores[t]:.2f}" for t in cfg.auc_thresholds)
    print(f"eval: {len(rows)} pairs; {shown}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser, command: str) -> None:
    g = p.add_argument_group("configuration", "flags > --config file > defaults")
    g.add_argument("--config", type=Path, help="JSON object of settings, by flag name with '_'")
    for name in _READS[command]:
        g.add_argument("--" + name.replace("_", "-"),
                       nargs="+" if get_origin(_SETTINGS[name][2]) is tuple else None)


class _Parser(argparse.ArgumentParser):
    """Reports a command line it cannot read like any other error: exit 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise SchemaError(f"flags: {message}")

    def parse_args(self, args: Optional[Sequence[str]] = None, namespace: Any = None) -> Any:
        """As argparse's, but names a setting flag of another command as such."""
        parsed, extra = self.parse_known_args(args, namespace)
        settings = {"--" + name.replace("_", "-"): name for name in _SETTINGS}
        for flag in (arg.split("=", 1)[0] for arg in extra):
            if flag in settings:
                raise SchemaError(f"flags: {_refusal(parsed.command, settings[flag], flag)}")
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("supervise", help="compute GT patch matches and pixel class counts")
    p.add_argument("--pair", type=Path, required=True, help="pair directory")
    p.add_argument("--out", type=Path, help="output JSON (default: pair/supervision.json)")
    p.set_defaults(func=cmd_supervise)

    p = sub.add_parser("voxelize", help="build GT occupancy grids for both views")
    p.add_argument("--pair", type=Path, required=True, help="pair directory")
    p.add_argument("--out-dir", type=Path, dest="out_dir",
                   help="output directory (default: the pair directory)")
    p.set_defaults(func=cmd_voxelize)

    p = sub.add_parser("match", help="run coarse-to-fine matching on a pair")
    p.add_argument("--pair", type=Path, required=True, help="pair directory")
    p.add_argument("--out", type=Path, help="output JSONL (default: pair/matches.jsonl)")
    p.add_argument("--seed", help="accepted and ignored: match draws no random numbers")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("eval", help="score poses estimated from matches; label the matches by GT depth")
    p.add_argument("--matches", type=Path, nargs="+", required=True,
                   help="matches.jsonl files, one per pair")
    p.add_argument("--manifests", type=Path, nargs="+", required=True,
                   help="manifest.json files, same order as --matches")
    p.add_argument("--out-report", type=Path, dest="out_report", required=True)
    p.add_argument("--out-curve", type=Path, dest="out_curve", required=True)
    p.set_defaults(func=cmd_eval)

    for command, p in sub.choices.items():
        _add_config_flags(p, command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OccMatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
