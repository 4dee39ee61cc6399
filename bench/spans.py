"""Spans around the calls into occmatch's layers, recorded from the
benchmark's side.

Tracer.installed() replaces each function in POINTS by a recording wrapper
under the module attribute its caller looks it up by, and puts the
originals back on exit. Every call becomes a Span with a parent (the span
open when it started) and the pair it worked on. Spans stay in memory until
the run writes them out. layer_metrics() turns the spans of the traced
iterations into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from summary import median

Counter = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    pair: str
    name: str
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return asdict(self)


class Tracer:
    """Records nested spans; `pair` names the pair the next spans belong to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pair = ""
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, self.pair, name, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Counter] = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, points: Sequence[tuple] = None) -> Iterator[None]:
        """Wrap every (module, attribute, span name, counter) of `points`
        for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, count in POINTS if points is None else points:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# --- what is traced -------------------------------------------------------

def _ray_tests(args, kwargs, result) -> dict:
    scene, _, dirs = args
    return {"ray_tests": len(dirs) * len(scene.primitives)}


def _points(args, kwargs, result) -> dict:
    return {"points": int(result[0].size)}


def _occupancy(args, kwargs, result) -> dict:
    depth_a, depth_b = args[:2]
    return {"points": int(depth_a.valid_mask.sum() + depth_b.valid_mask.sum()),
            "grid_bytes": int(result.values.size) * 8}


def _score_entries(args, kwargs, result) -> dict:
    return {"entries": int(result.size)}


def _matches(args, kwargs, result) -> dict:
    return {"matches": len(result), "rows": int(args[0].shape[0])}


def _inliers(args, kwargs, result) -> dict:
    inliers = result[3]
    return {"inliers": int(inliers.sum()), "matches": int(inliers.size), "returned": 1}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module whose attribute the caller looks up, attribute, span name, counter)
POINTS = (
    ("occmatch.cli", "make_pair", "synth.make_pair", None),
    ("occmatch.synth", "render_depth", "synth.render_depth", None),
    ("occmatch.synth", "analytic_classes", "synth.analytic_classes", None),
    ("occmatch.synth", "first_hit", "synth.first_hit", _ray_tests),
    ("occmatch.cli", "pair_stats", "supervision.pair_stats", None),
    ("occmatch.cli", "coarse_match_ground_truth", "supervision.coarse_match_ground_truth", None),
    ("occmatch.supervision", "classify_points", "supervision.classify_points", _points),
    ("occmatch.cli", "build_ground_truth_occupancy", "occupancy.build_ground_truth_occupancy",
     _occupancy),
    ("occmatch.cli", "match_pair", "matching.match_pair", None),
    ("occmatch.matching", "rotation_align", "matching.rotation_align", None),
    ("occmatch.matching", "score_matrix", "matching.score_matrix", _score_entries),
    ("occmatch.matching", "dual_softmax", "matching.dual_softmax", None),
    ("occmatch.matching", "gumbel_select", "matching.gumbel_select", None),
    ("occmatch.matching", "extract_matches", "matching.extract_matches", _matches),
    ("occmatch.matching", "softmax", "numerics.softmax", None),
    ("occmatch.matching", "gumbel_noise", "numerics.gumbel_noise", None),
    ("occmatch.matching", "bilinear_sample", "numerics.bilinear_sample", None),
    ("occmatch.cli", "essential_from_matches", "pose_eval.essential_from_matches", _inliers),
    ("occmatch.pose_eval", "sampson_distance", "pose_eval.sampson_distance", None),
) + tuple(
    ("occmatch.formats", fn, f"formats.{fn}", _file_bytes)
    for fn in ("read_depth", "read_features", "read_occupancy", "read_json", "read_matches",
               "write_depth", "write_features", "write_occupancy", "write_json",
               "write_matches", "write_curve_csv")
)

COMMANDS = ("synth", "supervise", "voxelize", "match", "eval")

# Per-pair seconds: (metric, span name or name prefix, self time?).
_TIMES = (
    ("synth.raycast_s", "synth.first_hit", False),
    ("synth.render_s", "synth.render_depth", False),
    ("synth.classes_s", "synth.analytic_classes", False),
    ("synth.features_s", "synth.make_pair", True),
    ("supervision.classify_s", "supervision.classify_points", False),
    ("supervision.ground_truth_s", "supervision.coarse_match_ground_truth", False),
    ("supervision.pair_stats_s", "supervision.pair_stats", False),
    ("occupancy.build_s", "occupancy.build_ground_truth_occupancy", False),
    ("matching.align_s", "matching.rotation_align", False),
    ("matching.score_s", "matching.score_matrix", False),
    ("matching.dual_softmax_s", "matching.dual_softmax", False),
    ("matching.select_s", "matching.gumbel_select", False),
    ("matching.extract_s", "matching.extract_matches", False),
    ("matching.refine_s", "matching.match_pair", True),
    ("numerics.softmax_s", "numerics.softmax", False),
    ("numerics.gumbel_s", "numerics.gumbel_noise", False),
    ("numerics.bilinear_s", "numerics.bilinear_sample", False),
    ("pose_eval.ransac_s", "pose_eval.essential_from_matches", False),
    ("formats.read_s", "formats.read_", False),
    ("formats.write_s", "formats.write_", False),
    ("cli.self_s", "cli.", True),
)

# Metric name -> unit, for every metric layer_metrics() returns.
UNITS = {
    **{name: "s" for name, _, _ in _TIMES},
    "synth.ray_tests": "count",
    "supervision.points": "count",
    "occupancy.points": "count",
    "occupancy.grid_mb": "MB",
    "matching.score_entries": "count",
    "matching.dense_mb": "MB",
    "matching.matches": "count",
    "matching.match_yield": "fraction",
    "pose_eval.ransac_iters": "count",
    "pose_eval.inlier_ratio": "fraction",
    "formats.bytes_read": "bytes",
    "formats.bytes_written": "bytes",
    **{f"peak_mb.{cmd}": "MB" for cmd in COMMANDS},
    "trace.overhead": "fraction",
}


@dataclass
class TracedIteration:
    """The spans of one traced iteration and what it processed."""

    spans: list[Span]
    pairs: int


def _named(spans: Sequence[Span], key: str) -> list[Span]:
    """Spans called `key`, or starting with it when it ends in "_" or "."."""
    if key.endswith(("_", ".")):
        return [s for s in spans if s.name.startswith(key)]
    return [s for s in spans if s.name == key]


def _total(spans: Sequence[Span], name: str, count: str) -> int:
    return sum(s.counts.get(count, 0) for s in spans if s.name == name)


def layer_metrics(iterations: Sequence[TracedIteration], peaks: dict[str, int],
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are seconds per pair, the median over traced iterations of the
    iteration's busy (or self) time divided by its pairs. Counts are exact
    totals over the first traced iteration, which is always case 0. Byte
    sizes labelled _mb are computed from array shapes at 8 bytes per entry,
    not measured. `peaks` maps each command to its largest tracemalloc peak
    in bytes, and `overhead` is untraced over traced pairs per second, less 1.
    """
    out: dict[str, float] = {}
    per_iter = []
    for it in iterations:
        selfs = self_times(it.spans)
        row = {}
        for metric, key, use_self in _TIMES:
            chosen = _named(it.spans, key)
            row[metric] = sum(selfs[s.id] if use_self else s.duration for s in chosen) / it.pairs
        per_iter.append(row)
    for metric, _, _ in _TIMES:
        out[metric] = median([row[metric] for row in per_iter])

    first = iterations[0].spans
    out["synth.ray_tests"] = _total(first, "synth.first_hit", "ray_tests")
    out["supervision.points"] = _total(first, "supervision.classify_points", "points")
    out["occupancy.points"] = _total(first, "occupancy.build_ground_truth_occupancy", "points")
    out["occupancy.grid_mb"] = max(
        (s.counts["grid_bytes"] for s in first
         if s.name == "occupancy.build_ground_truth_occupancy"), default=0) / 1e6
    out["matching.score_entries"] = _total(first, "matching.score_matrix", "entries")
    per_call = defaultdict(int)  # score entries of each match_pair call: K * Na * Nb
    for s in first:
        if s.name == "matching.score_matrix":
            per_call[s.parent] += s.counts["entries"]
    out["matching.dense_mb"] = max(per_call.values(), default=0) * 8 / 1e6
    matches = _total(first, "matching.extract_matches", "matches")
    out["matching.matches"] = matches
    out["matching.match_yield"] = matches / max(_total(first, "matching.extract_matches", "rows"), 1)
    # Each RANSAC hypothesis is scored by one sampson_distance call; a call
    # that returns a pose adds one more for the final refit.
    out["pose_eval.ransac_iters"] = (
        sum(1 for s in first if s.name == "pose_eval.sampson_distance")
        - _total(first, "pose_eval.essential_from_matches", "returned"))
    out["pose_eval.inlier_ratio"] = (
        _total(first, "pose_eval.essential_from_matches", "inliers")
        / max(_total(first, "pose_eval.essential_from_matches", "matches"), 1))
    out["formats.bytes_read"] = sum(s.counts.get("bytes", 0) for s in _named(first, "formats.read_"))
    out["formats.bytes_written"] = sum(
        s.counts.get("bytes", 0) for s in _named(first, "formats.write_"))
    for cmd in COMMANDS:
        out[f"peak_mb.{cmd}"] = peaks.get(cmd, 0) / 1e6
    out["trace.overhead"] = overhead
    return out
