"""On-disk interchange: the three little-endian binary rasters plus the
JSON/CSV schemas shared by the command-line tools.

Binary layouts (all multi-byte values little-endian):
  depth       "ODM1" | u32 width | u32 height | float32 row-major, 0.0 invalid
  occupancy   "OCG1" | u32 (1, rows, cols, bins) | float32 (row, col, bin) order
  features    "OFG1" | u32 (channels, rows, cols, stride) | float32 channel-major

Rasters are read through a read-only mapping of the file, not a copy:
feature grids are float32 views of it, while depth and occupancy rasters
are copied to float64 by their types. A mapping lives as long as its
array, so the writers never rewrite a file in place: each writes a
temporary file beside the target and renames it over the target, and an
array still mapped from the old file keeps its values.

JSON stays human-editable, except the two data files, supervision.json
and matches.jsonl, whose records are compact single lines; readers
validate field by field and raise SchemaError messages naming the file
and field so batch runs fail loudly at the offending input. Non-finite
floats are serialized in Python's extended JSON form (Infinity/NaN) and
accepted back.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import SchemaError
from .geometry import CameraIntrinsics, DepthMap, PoseSE3
from .matching import FeatureGrid, Matches
from .occupancy import OccupancyCells, OccupancyGrid
from .supervision import CoarseMatchSet, PixelClass
from .synth import Box, Plane, SceneSpec

_DEPTH_MAGIC = b"ODM1"
_OCC_MAGIC = b"OCG1"
_FEAT_MAGIC = b"OFG1"
# Values per block in which write_occupancy builds its payload: 1 MiB of float32.
_OCC_BLOCK_VALUES = 1 << 18

PathLike = Union[str, Path]


def _read_raster(path: Path, magic: bytes, n_fields: int) -> tuple[tuple[int, ...], memoryview]:
    """Header fields of a binary raster and a read-only view of the payload
    bytes after them, mapped from the file rather than copied."""
    size = len(magic) + 4 * n_fields
    with path.open("rb") as fh:
        try:
            blob = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # an empty file cannot be mapped
            blob = b""
    if len(blob) < size:
        raise SchemaError(f"{path}: truncated header (need {size} bytes, have {len(blob)})")
    if blob[: len(magic)] != magic:
        raise SchemaError(f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}")
    return struct.unpack_from(f"<{n_fields}I", blob, len(magic)), memoryview(blob)[size:]


def _payload(path: Path, raw: memoryview, count: int) -> np.ndarray:
    if len(raw) != 4 * count:
        stray = f" and {len(raw) % 4} stray bytes" if len(raw) % 4 else ""
        raise SchemaError(f"{path}: expected {count} float32 values, found {len(raw) // 4}{stray}")
    return np.frombuffer(raw, dtype="<f4", count=count)


def _write_raster(path: PathLike, magic: bytes, header: tuple[int, ...],
                  blocks: Iterable[np.ndarray]) -> None:
    """Write a binary raster, its payload the float32 `blocks` one after
    another, to a temporary file beside `path`, then rename it onto `path`,
    so a mapping of the old file never sees it change."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(magic)
            fh.write(struct.pack(f"<{len(header)}I", *header))
            for block in blocks:
                fh.write(np.ascontiguousarray(block, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _build(source: Union[Path, str], make, *args, **kwargs):
    """Construct an object read from `source`, naming the source when the
    object's own checks fail."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{source}: {exc}") from None


def write_depth(path: PathLike, depth: DepthMap) -> None:
    _write_raster(path, _DEPTH_MAGIC, (depth.width, depth.height), [depth.data])


def read_depth(path: PathLike) -> DepthMap:
    path = Path(path)
    (width, height), raw = _read_raster(path, _DEPTH_MAGIC, 2)
    data = _payload(path, raw, width * height)
    return _build(path, DepthMap, data.reshape(height, width))


def write_occupancy(path: PathLike, occ: Union[OccupancyGrid, OccupancyCells]) -> None:
    """An occupancy grid, given densely or by its non-zero cells. The
    payload, float32 in C order (row, col, bin), is built and written in
    blocks of _OCC_BLOCK_VALUES values from the cells, so no dense float32
    copy of the grid is ever held."""
    cells = occ if isinstance(occ, OccupancyCells) else OccupancyCells.from_grid(occ)
    size = math.prod(cells.shape)
    starts = range(0, size, _OCC_BLOCK_VALUES)
    ends = np.searchsorted(cells.index, [*starts[1:], size])

    def blocks() -> Iterable[np.ndarray]:
        block = np.empty(min(size, _OCC_BLOCK_VALUES), dtype="<f4")
        lo = 0
        for start, hi in zip(starts, ends.tolist()):
            out = block[: min(size - start, _OCC_BLOCK_VALUES)]
            out.fill(0.0)
            out[cells.index[lo:hi] - start] = cells.values[lo:hi]
            lo = hi
            yield out

    _write_raster(path, _OCC_MAGIC, (1, *cells.shape), blocks())


def read_occupancy(path: PathLike) -> OccupancyGrid:
    path = Path(path)
    (lead, rows, cols, bins), raw = _read_raster(path, _OCC_MAGIC, 4)
    if lead != 1:
        raise SchemaError(f"{path}: leading dimension must be 1, got {lead}")
    data = _payload(path, raw, rows * cols * bins)
    return _build(path, OccupancyGrid, data.reshape(rows, cols, bins))


def write_features(path: PathLike, grid: FeatureGrid) -> None:
    _write_raster(path, _FEAT_MAGIC, (*grid.values.shape, grid.stride), [grid.values])


def read_features(path: PathLike) -> FeatureGrid:
    path = Path(path)
    (channels, rows, cols, stride), raw = _read_raster(path, _FEAT_MAGIC, 4)
    data = _payload(path, raw, channels * rows * cols)
    return _build(path, FeatureGrid, data.reshape(channels, rows, cols), stride=stride)


def _require(obj: dict, field: str, source: str) -> Any:
    if field not in obj:
        raise SchemaError(f"{source}: missing field {field!r}")
    return obj[field]


_MISSING = object()


def _field(obj: dict, field: str, source: str, ok: Callable[[Any], bool], what: str,
           default: Any = _MISSING) -> Any:
    """obj[field], or `default` when given and the field is absent; the
    value must pass `ok`, described by `what` in the error."""
    value = _require(obj, field, source) if default is _MISSING else obj.get(field, default)
    if not ok(value):
        raise SchemaError(f"{source}: field {field!r} must be {what}, got {value!r}")
    return value


def _out_of_range(field: str, value: Any, source: str) -> SchemaError:
    return SchemaError(f"{source}: field {field!r} holds an integer beyond the float range, "
                       f"got {value!r}")


def _number(obj: dict, field: str, source: str) -> float:
    """obj[field] as a float."""
    value = _field(obj, field, source, _is_number, "a number")
    try:
        return float(value)
    except OverflowError:
        raise _out_of_range(field, value, source) from None


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _floats(obj: dict, field: str, source: str, count: int) -> np.ndarray:
    """obj[field], a flat list of `count` JSON numbers, as float64."""
    raw = _field(obj, field, source,
                 lambda v: isinstance(v, list) and len(v) == count and all(map(_is_number, v)),
                 f"a list of {count} numbers")
    try:
        return np.asarray(raw, dtype=np.float64)
    except OverflowError:
        raise _out_of_range(field, raw, source) from None


def _finite(arr: np.ndarray, field: str, source: str, inf_ok: bool = False) -> np.ndarray:
    """`arr`, if it holds no NaN, nor any infinity unless `inf_ok`."""
    if np.isnan(arr).any() or not (inf_ok or np.isfinite(arr).all()):
        what = "free of NaN" if inf_ok else "finite"
        raise SchemaError(f"{source}: field {field!r} must be {what}, got {arr.tolist()}")
    return arr


def intrinsics_to_json(k: CameraIntrinsics) -> dict:
    return {
        "fx": k.fx, "fy": k.fy, "cx": k.cx, "cy": k.cy,
        "width": k.width, "height": k.height,
    }


def intrinsics_from_json(obj: dict, source: str = "intrinsics") -> CameraIntrinsics:
    vals = {f: _number(obj, f, source) for f in ("fx", "fy", "cx", "cy")}
    dims = {f: _field(obj, f, source, _is_int, "an integer") for f in ("width", "height")}
    return _build(source, CameraIntrinsics, **vals, **dims)


def pose_to_json(pose: PoseSE3) -> dict:
    return {"R": pose.R.ravel().tolist(), "t": pose.t.tolist()}


def pose_from_json(obj: dict, source: str = "pose") -> PoseSE3:
    r = _floats(obj, "R", source, 9).reshape(3, 3)
    t = _floats(obj, "t", source, 3)
    return _build(source, PoseSE3, r, t)


def scene_to_json(scene: SceneSpec) -> dict:
    prims = []
    for p in scene.primitives:
        if isinstance(p, Plane):
            prims.append({"type": "plane", "point": list(p.point),
                          "normal": list(p.normal), "texture": p.texture})
        else:
            prims.append({"type": "box", "min": list(p.box_min),
                          "max": list(p.box_max), "texture": p.texture})
    return {"primitives": prims}


def scene_from_json(obj: dict, source: str = "scene") -> SceneSpec:
    prims: list[Union[Plane, Box]] = []
    entries = _field(obj, "primitives", source,
                     lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
                     "a list of objects")
    for i, entry in enumerate(entries):
        where = f"{source}: primitives[{i}]"
        kind = _require(entry, "type", where)
        texture = _field(entry, "texture", where, lambda v: _is_int(v) and v >= 0,
                         "a non-negative integer", default=0)
        if kind == "plane":
            point, normal = (tuple(_finite(_floats(entry, f, where, 3), f, where))
                             for f in ("point", "normal"))
            if not np.any(np.asarray(normal)):
                raise SchemaError(f"{where}: zero normal")
            prims.append(Plane(point, normal, texture))
        elif kind == "box":
            # Infinite extents are allowed: slabs and half-spaces.
            lo, hi = (_finite(_floats(entry, f, where, 3), f, where, inf_ok=True)
                      for f in ("min", "max"))
            if np.any(hi <= lo):
                raise SchemaError(f"{where}: max must exceed min on every axis")
            prims.append(Box(tuple(lo), tuple(hi), texture))
        else:
            raise SchemaError(f"{where}: unknown type {kind!r}")
    if not prims:
        raise SchemaError(f"{source}: primitives is empty")
    return SceneSpec(tuple(prims))


def supervision_to_json(matches: CoarseMatchSet, counts: dict[PixelClass, int],
                        config: dict) -> dict:
    return {
        "patch_stride": matches.patch_stride,
        "grid_a": list(matches.grid_a),
        "grid_b": list(matches.grid_b),
        "vv": [list(p) for p in matches.vv],
        "vo": [list(p) for p in matches.vo],
        "ov": [list(p) for p in matches.ov],
        "counts": {cls.name.lower(): counts[cls] for cls in PixelClass},
        "config": config,
    }


def write_supervision(path: PathLike, matches: CoarseMatchSet, counts: dict[PixelClass, int],
                      config: dict) -> None:
    """supervision.json: dump_json_line(supervision_to_json(...)), one line."""
    Path(path).write_text(dump_json_line(supervision_to_json(matches, counts, config)) + "\n",
                          encoding="utf-8")


_NAN_PAIR = (math.nan, math.nan)
_INTP_MAX = int(np.iinfo(np.intp).max)


def _pair(obj: dict, field: str, source: str, what: str, required: bool) -> tuple[float, float]:
    """obj[field], null or absent unless `required`, or a pair of finite
    numbers, `what` naming them in the error; missing is (NaN, NaN)."""
    value = _require(obj, field, source) if required else obj.get(field)
    if value is None:
        return _NAN_PAIR
    if isinstance(value, list) and len(value) == 2:
        x, y = value
        if (isinstance(x, (int, float)) and isinstance(y, (int, float))
                and x.__class__ is not bool and y.__class__ is not bool):
            try:
                x, y = float(x), float(y)
            except OverflowError:
                raise _out_of_range(field, value, source) from None
            if math.isfinite(x) and math.isfinite(y):
                return x, y
    raise SchemaError(f"{source}: field {field!r} must be null or {what} of finite numbers, "
                      f"got {value!r}")


def _index(obj: dict, field: str, source: str) -> int:
    """obj[field], a non-negative integer within the intp range."""
    value = _require(obj, field, source)
    if not isinstance(value, int) or value.__class__ is bool or value < 0:
        raise SchemaError(f"{source}: field {field!r} must be a non-negative integer, got {value!r}")
    if value > _INTP_MAX:
        raise SchemaError(f"{source}: field {field!r} holds an integer beyond the intp range "
                          f"(at most {_INTP_MAX}), got {value!r}")
    return value


def _pair_texts(rows: np.ndarray) -> list[Optional[str]]:
    """Each row of an (n, 2) column as JSON's [x,y], None where it has a NaN."""
    known = ~np.isnan(rows).any(axis=1)
    return [f"[{x!r},{y!r}]" if k else None for k, (x, y) in zip(known.tolist(), rows.tolist())]


def write_matches(path: PathLike, matches: Matches) -> None:
    """One compact JSON record per match, its keys sorted: the refined
    points `a`/`b` as [u, v] (null when missing), `branch` as [theta_a,
    theta_b] (left out when missing), `conf`, and the patch indices
    `pa`/`pb`. Non-finite confidences take Python's extended JSON spelling
    (NaN, Infinity)."""
    branches = [f'"branch":{t},' if t else "" for t in _pair_texts(matches.branch)]
    text = "".join(
        f'{{"a":{a or "null"},"b":{b or "null"},{branch}"conf":{conf!r},"pa":{i},"pb":{j}}}\n'
        for a, b, branch, conf, i, j in zip(
            _pair_texts(matches.point_a), _pair_texts(matches.point_b), branches,
            matches.confidence.tolist(), matches.patch_a.tolist(), matches.patch_b.tolist()))
    # Every value is a number and no key holds "nan" or "inf", so JSON's
    # spellings of the non-finite floats go in over the whole text at once.
    Path(path).write_text(text.replace("nan", "NaN").replace("inf", "Infinity"), encoding="utf-8")


def read_matches(path: PathLike) -> Matches:
    """The records of a matches.jsonl file, blank lines skipped. Each
    record's fields are checked in a fixed order, a, b, branch, pa, pb,
    conf, and the first bad one is named with the file and line."""
    path = Path(path)
    name = str(path)
    rows = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{name}: line {number}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{where}: {exc}") from None
        if not isinstance(obj, dict):
            raise SchemaError(f"{where}: expected an object")
        point_a = _pair(obj, "a", where, "[u, v]", required=True)
        point_b = _pair(obj, "b", where, "[u, v]", required=True)
        branch = _pair(obj, "branch", where, "[theta_a, theta_b]", required=False)
        patch_a, patch_b = _index(obj, "pa", where), _index(obj, "pb", where)
        rows.append((patch_a, patch_b, _number(obj, "conf", where), point_a, point_b, branch))
    patch_a, patch_b, conf, *pairs = zip(*rows) if rows else ((),) * 6
    return Matches(patch_a, patch_b, conf,
                   *(np.array(p, dtype=np.float64).reshape(-1, 2) for p in pairs))


def write_curve_csv(path: PathLike, rows: Sequence[tuple[int, float]]) -> None:
    """Cumulative curve rows (count, mean_err_deg), one per evaluated pair."""
    path = Path(path)
    lines = ["count,mean_err_deg"]
    lines += [f"{count},{_fmt_float(err)}" for count, err in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_curve_csv(path: PathLike) -> list[tuple[int, float]]:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "count,mean_err_deg":
        raise SchemaError(f"{path}: expected header 'count,mean_err_deg'")
    out = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise SchemaError(f"{path}: line {i}: expected 2 columns")
        out.append((int(parts[0]), float(parts[1])))
    return out


def _fmt_float(x: float) -> str:
    return repr(float(x))


def dump_json_line(obj: dict) -> str:
    """Compact single-line JSON with sorted keys (deterministic bytes)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_json(obj: dict) -> str:
    """Pretty multi-line JSON with sorted keys (deterministic bytes)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: PathLike, obj: dict) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def read_json(path: PathLike) -> dict:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    return obj
