"""The benchmark's workloads: seeded input files and the pairs of each case.

A workload is a fixed number of cases. One iteration takes every pair of
one case through synth, supervise, voxelize and match, then runs one eval
over the case's pairs. Case j of workload seed s uses the program seed
s * cases + j, passed to match and eval as --seed; for clutter-320 that
seed also draws the scene and the roll of view B. Several cases per run
pool the seed-dependent quality figures (RANSAC outcomes, scene layout) so
that they vary little from one workload seed to the next. The program sees
only the files written here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

FIXTURES = ("identity", "rotation", "stereo", "two_plane", "box_roll30")

# The fixtures' sharp matcher settings (synth._SHARP); a custom scene's
# manifest carries no overrides, so clutter-320 passes them as flags.
SHARP_FLAGS = ["--temperature", "0.02", "--fine-temperature", "0.05", "--fine-window", "7"]

CLUTTER_BOXES = 64

# Cases per workload: enough seeds pooled to steady auc5, vv_recall and the
# seed-dependent RANSAC time, few enough that all of them and one rerun fit
# in one run. roll30-640 is not in BENCHMARK.json (see README.md); it is
# kept for measuring 640x480 time and memory by hand.
CASES = {"fixtures-192": 16, "clutter-320": 15, "roll30-640": 2}
WORKLOADS = tuple(CASES)


@dataclass(frozen=True)
class Pair:
    name: str
    synth_args: tuple[str, ...]  # every synth argument except --out
    match_args: tuple[str, ...]  # match arguments besides --pair and --seed


@dataclass(frozen=True)
class Case:
    seed: int  # the program seed: --seed of match and eval
    pairs: tuple[Pair, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    cases: tuple[Case, ...]


def _fixture_pair(name: str, width: int, height: int) -> Pair:
    args = ("--fixture", name, "--width", str(width), "--height", str(height))
    return Pair(name, args, ())


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _rot_z(deg: float) -> list[float]:
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return [c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0]


def clutter_scene(seed: int, stratum: int, strata: int) -> tuple[dict, float]:
    """Scene JSON of a background plane at 4 m and CLUTTER_BOXES boxes at
    1.2-3.5 m inside the 320x240 field of view, plus the roll of view B in
    degrees, drawn from stratum `stratum` of `strata` equal parts of
    [-30, 30)."""
    rng = random.Random(f"clutter-{seed}")
    prims = [{"type": "plane", "point": [0.0, 0.0, 4.0], "normal": [0.0, 0.0, 1.0],
              "texture": 0}]
    for _ in range(CLUTTER_BOXES):
        z = rng.uniform(1.2, 3.5)
        # Field of view at depth z: |x| <= 0.75 z, |y| <= 0.5625 z.
        x = rng.uniform(-0.7, 0.7) * z
        y = rng.uniform(-0.5, 0.5) * z
        hw = rng.uniform(0.03, 0.12) * z
        hh = rng.uniform(0.03, 0.12) * z
        dz = rng.uniform(0.02, 0.2)
        prims.append({"type": "box", "min": [x - hw, y - hh, z], "max": [x + hw, y + hh, z + dz],
                      "texture": rng.randrange(1, 4)})
    roll = -30.0 + 60.0 * (stratum + rng.random()) / strata
    return {"primitives": prims}, roll


def _clutter_case(seed: int, stratum: int, strata: int, input_dir: Path) -> Pair:
    width, height = 320, 240
    f = 128.0 * width / 192.0  # the fixtures' field of view
    scene, roll = clutter_scene(seed, stratum, strata)
    input_dir.mkdir(parents=True, exist_ok=True)
    files = {
        "scene": input_dir / "clutter.json",
        "pose-a": input_dir / "pose_a.json",
        "pose-b": input_dir / "pose_b.json",
        "intrinsics": input_dir / "intrinsics.json",
    }
    _write_json(files["scene"], scene)
    _write_json(files["pose-a"], {"R": _rot_z(0.0), "t": [0.0, 0.0, 0.0]})
    _write_json(files["pose-b"], {"R": _rot_z(roll), "t": [0.25, 0.0, 0.0]})
    _write_json(files["intrinsics"], {"fx": f, "fy": f, "cx": (width - 1) / 2.0,
                                      "cy": (height - 1) / 2.0, "width": width,
                                      "height": height})
    synth_args = tuple(arg for flag, path in files.items() for arg in (f"--{flag}", str(path)))
    return Pair("clutter", synth_args, tuple(SHARP_FLAGS))


def write_inputs(name: str, seed: int, input_dir: Path) -> Workload:
    """Write the workload's input files for `seed` under input_dir and
    describe its cases."""
    if name not in CASES:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    n = CASES[name]
    cases = []
    for j in range(n):
        case_seed = seed * n + j
        if name == "fixtures-192":
            pairs = tuple(_fixture_pair(f, 192, 144) for f in FIXTURES)
        elif name == "roll30-640":
            pairs = (_fixture_pair("box_roll30", 640, 480),)
        else:
            pairs = (_clutter_case(case_seed, j, n, input_dir / f"case{j}"),)
        cases.append(Case(case_seed, pairs))
    return Workload(name, seed, tuple(cases))
