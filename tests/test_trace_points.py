"""The benchmark's trace points still name functions of the program, and
their counters still read what those functions return, so a renamed or
removed function, or a changed return shape, shows here instead of breaking
`--trace 1`."""

import importlib
import sys
from pathlib import Path

import pytest

from occmatch.cli import main

BENCH = str(Path(__file__).resolve().parents[1] / "bench")

sys.path.insert(0, BENCH)  # spans imports its sibling modules by bare name
try:
    import spans
finally:
    sys.path.remove(BENCH)

# Counted points that none of the five commands calls.
UNCALLED = {
    "formats.read_occupancy",  # no command reads an .ocg file
    "occupancy.build_ground_truth_occupancy",  # voxelize builds its cells with ground_truth_cells
}


@pytest.mark.parametrize("module, attr", [p[:2] for p in spans.POINTS],
                         ids=[p[2] for p in spans.POINTS])
def test_point_is_a_callable_of_its_module(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_counters_read_a_traced_pipeline(tmp_path):
    pair, out = str(tmp_path / "stereo"), str(tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        for argv in (["synth", "--fixture", "stereo", "--out", pair],
                     ["supervise", "--pair", pair],
                     ["voxelize", "--pair", pair],
                     ["match", "--pair", pair],
                     ["eval", "--matches", f"{pair}/matches.jsonl",
                      "--manifests", f"{pair}/manifest.json",
                      "--out-report", f"{out}/report.json", "--out-curve", f"{out}/curve.csv"]):
            assert main(argv) == 0, argv
    counted = {name for _, _, name, count in spans.POINTS if count is not None}
    ran = {s.name for s in tracer.spans}
    assert counted - ran <= UNCALLED
    # Every call of a counted point was counted: its counter read the result.
    for s in tracer.spans:
        if s.name in counted:
            assert s.counts and all(isinstance(v, int) and v >= 0 for v in s.counts.values()), s
    # pair_stats classifies every pixel of A through classify_points, once.
    stats = {s.id for s in tracer.spans if s.name == "supervision.pair_stats"}
    assert len(stats) == 1
    assert sum(s.counts["points"] for s in tracer.spans
               if s.name == "supervision.classify_points" and s.parent in stats) == 192 * 144
    matches = sum(s.counts["matches"] for s in tracer.spans if s.name == "matching.extract_matches")
    lines = Path(pair, "matches.jsonl").read_text(encoding="utf-8").splitlines()
    assert matches == len(lines) > 0
