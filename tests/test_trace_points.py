"""The benchmark's trace points still name functions of the program, so a
renamed or removed function shows here instead of breaking `--trace 1`."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")

sys.path.insert(0, BENCH)  # spans imports its sibling modules by bare name
try:
    import spans
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize("module, attr", [p[:2] for p in spans.POINTS],
                         ids=[p[2] for p in spans.POINTS])
def test_point_is_a_callable_of_its_module(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
