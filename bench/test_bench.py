"""Tests of the benchmark's own arithmetic: self times of nested spans, the
vv recall of hand-made files, and the order statistics.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402  (after the path to the program's sources)
import spans  # noqa: E402
from spans import Span, Tracer, self_times
from summary import high_percentile, median, percentile, quartile_spread


def _span(i, parent, start, end, name="x"):
    return Span(i, parent, "p", name, start, end)


class TestSelfTimes:
    def test_children_are_subtracted_grandchildren_are_not(self):
        tree = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 1, 1.5, 2.5),  # inside child 1: counts against 1, not 0
            _span(3, 0, 5.0, 6.0),
        ]
        got = self_times(tree)
        assert got[0] == pytest.approx(10.0 - 2.0 - 1.0)
        assert got[1] == pytest.approx(2.0 - 1.0)
        assert got[2] == pytest.approx(1.0)
        assert got[3] == pytest.approx(1.0)

    def test_overlapping_or_overhanging_children_count_once(self):
        tree = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 2.0, 5.0),
            _span(2, 0, 4.0, 6.0),    # overlaps child 1 on [4, 5]
            _span(3, 0, 9.0, 12.0),   # runs past the parent's end
        ]
        assert self_times(tree)[0] == pytest.approx(10.0 - 4.0 - 1.0)

    def test_tracer_nests_wrapped_calls(self, monkeypatch):
        mod = types.ModuleType("fake_layer")
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        monkeypatch.setitem(sys.modules, "fake_layer", mod)
        original_inner = mod.inner
        tracer = Tracer()
        tracer.pair = "0:p"
        points = [("fake_layer", "outer", "layer.outer", None),
                  ("fake_layer", "inner", "layer.inner",
                   lambda args, kwargs, result: {"in": args[0]})]
        with tracer.installed(points):
            assert mod.outer(3) == 8
        assert mod.inner is original_inner
        outer, inner = tracer.spans
        assert (outer.name, outer.parent) == ("layer.outer", None)
        assert (inner.name, inner.parent, inner.pair) == ("layer.inner", outer.id, "0:p")
        assert inner.counts == {"in": 3}
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_every_trace_point_names_an_existing_function(self):
        import importlib
        for module, attr, _, _ in spans.POINTS:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


class TestVvRecall:
    def test_recall_ignores_labels_and_extra_matches(self, tmp_path):
        sup = {"patch_stride": 8, "vv": [[0, 0], [1, 2], [3, 3], [4, 9]], "vo": [[5, 5]], "ov": []}
        rows = [
            {"pa": 0, "pb": 0, "label": "none", "a": [0, 0], "b": [0, 0], "conf": 0.9},
            {"pa": 1, "pb": 2, "label": "vv", "a": [0, 0], "b": [0, 0], "conf": 0.9},
            {"pa": 3, "pb": 4, "label": "vv", "a": [0, 0], "b": [0, 0], "conf": 0.9},
            {"pa": 5, "pb": 5, "label": "vo", "a": [0, 0], "b": [0, 0], "conf": 0.9},
        ]
        path = tmp_path / "matches.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert checks.vv_hits(sup, checks.read_matches(path)) == (2, 4)

    def test_unrefined_counts_missing_points(self):
        rows = [{"a": [1, 2], "b": [3, 4]}, {"a": None, "b": [3, 4]}, {"a": [1, 2], "b": None}]
        assert checks.unrefined(rows) == 2


class TestOutputChecks:
    def test_grid_size_must_match_header(self, tmp_path):
        import struct
        good = tmp_path / "d.odm"
        good.write_bytes(b"ODM1" + struct.pack("<2I", 2, 3) + b"\0" * 24)
        bad = tmp_path / "e.odm"
        bad.write_bytes(b"ODM1" + struct.pack("<2I", 2, 3) + b"\0" * 20)
        assert checks.check_outputs([good]) == []
        assert len(checks.check_outputs([bad, tmp_path / "missing.json"])) == 2

    def test_digest_depends_on_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text("{}")
        b.write_text("{}")
        assert checks.digest([a]) != checks.digest([b])  # names are hashed too
        before = checks.digest([a])
        a.write_text("{ }")
        assert checks.digest([a]) != before


class TestSummary:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_percentile_interpolates_like_numpy(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 50.0
        assert percentile(values, 50) == 30.0
        assert percentile(values, 90) == pytest.approx(46.0)
        assert percentile([7.0], 95) == 7.0
        with pytest.raises(ValueError):
            percentile(values, 101)

    def test_high_percentile_leaves_ten_samples_beyond(self):
        assert high_percentile(9) is None
        assert high_percentile(40) == 75.0
        assert high_percentile(100) == 90.0
        assert high_percentile(10_000) == 99.9

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        assert quartile_spread(values) == pytest.approx((q3 - q1) / med)
