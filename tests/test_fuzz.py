"""Fuzzed pair directories: a flipped byte or truncated raster, or a JSON
field of the manifest replaced or removed, makes supervise, voxelize,
match and eval exit 0 or 1, never raise; a field of one matches.jsonl
line replaced or removed does the same to eval."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from occmatch.cli import main


@pytest.fixture(scope="module")
def base_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    pair = root / "two_plane"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--fixture", "two_plane", "--out", str(pair)]) == 0
        assert main(["match", "--pair", str(pair)]) == 0
    return pair


def json_paths(obj, prefix=()) -> list[tuple]:
    """Key paths of every field; lists contribute their first two items."""
    out = []
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj[:2]):
        out.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            out += json_paths(value, prefix + (key,))
    return out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(1e308) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
RASTERS = ("depth_a.odm", "depth_b.odm", "coarse_a.ofg", "coarse_b.ofg", "fine_a.ofg", "fine_b.ofg")


def mutate(pair: Path, data) -> None:
    kind = data.draw(st.sampled_from(("flip", "cut", "replace", "remove")))
    if kind in ("flip", "cut"):
        path = pair / data.draw(st.sampled_from(RASTERS))
        blob = bytearray(path.read_bytes())
        at = data.draw(st.integers(0, len(blob) - 1))
        if kind == "flip":
            blob[at] ^= data.draw(st.integers(1, 255))
        else:
            del blob[at:]
        path.write_bytes(bytes(blob))
        return
    path = pair / "manifest.json"
    obj = json.loads(path.read_text())
    mutate_field(obj, kind, data)
    path.write_text(json.dumps(obj))


def mutate_field(obj, kind: str, data) -> None:
    """Replace (with any JSON value) or remove one field of `obj`."""
    *parents, key = data.draw(st.sampled_from(json_paths(obj)))
    inner = obj
    for k in parents:
        inner = inner[k]
    if kind == "replace":
        inner[key] = data.draw(JSON_VALUES)
    else:
        del inner[key]


def run_clean(argv: list[str]) -> None:
    """Run one command, which must exit 0 or 1 with no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1), (argv[0], code)
    assert "Traceback" not in err.getvalue()


def run_stages(pair: Path, out: Path) -> None:
    run_clean(["supervise", "--pair", str(pair), "--out", str(out / "s.json")])
    run_clean(["voxelize", "--pair", str(pair), "--out-dir", str(out / "vox")])
    run_clean(["match", "--pair", str(pair), "--out", str(out / "m.jsonl")])
    run_clean(["eval", "--matches", str(pair / "matches.jsonl"), "--manifests",
               str(pair / "manifest.json"), "--out-report", str(out / "r.json"),
               "--out-curve", str(out / "c.csv")])


@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_mutated_pair_directory_exits_cleanly(base_pair, data):
    with tempfile.TemporaryDirectory(dir=base_pair.parent) as tmp:
        pair = Path(tmp) / "pair"
        shutil.copytree(base_pair, pair)
        mutate(pair, data)
        run_stages(pair, Path(tmp))


@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_mutated_matches_line_exits_cleanly(base_pair, data):
    with tempfile.TemporaryDirectory(dir=base_pair.parent) as tmp:
        pair = Path(tmp) / "pair"
        shutil.copytree(base_pair, pair)
        path = pair / "matches.jsonl"
        lines = path.read_text().splitlines()
        at = data.draw(st.integers(0, len(lines) - 1))
        obj = json.loads(lines[at])
        mutate_field(obj, data.draw(st.sampled_from(("replace", "remove"))), data)
        lines[at] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        run_clean(["eval", "--matches", str(path), "--manifests", str(pair / "manifest.json"),
                   "--out-report", f"{tmp}/r.json", "--out-curve", f"{tmp}/c.csv"])


# NaN match points once ended eval in a LinAlgError from the SVD of the
# first 8-point sample that held one.
def test_nan_match_point_names_the_line(base_pair, tmp_path, capsys):
    pair = tmp_path / "pair"
    shutil.copytree(base_pair, pair)
    path = pair / "matches.jsonl"
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    for obj in objs:
        obj["a"][0] = float("nan")
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    assert main(["eval", "--matches", str(path), "--manifests", str(pair / "manifest.json"),
                 "--out-report", str(tmp_path / "r.json"), "--out-curve", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: line 1: field 'a'" in err and "Traceback" not in err


# A manifest image size that disagrees with the depth rasters once ended
# supervise with an IndexError.
@pytest.mark.parametrize("field, value", [("width", 193), ("height", 10**9)])
def test_manifest_size_must_match_the_depth_rasters(base_pair, tmp_path, capsys, field, value):
    pair = tmp_path / "pair"
    shutil.copytree(base_pair, pair)
    manifest = json.loads((pair / "manifest.json").read_text())
    manifest["k"][field] = value
    (pair / "manifest.json").write_text(json.dumps(manifest))
    for argv in (["supervise", "--pair", str(pair), "--out", str(tmp_path / "s.json")],
                 ["voxelize", "--pair", str(pair), "--out-dir", str(tmp_path / "vox")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "depth_a.odm" in err and f"k.{field}" in err and "Traceback" not in err
