"""Output checks: every file a command writes must parse, matches must be
refined, and reruns of one seed must give the same bytes.

The readers here are the benchmark's own, so a defect in occmatch.formats
cannot hide a malformed file.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path
from typing import Iterable, Sequence

# Files each command writes into a pair directory (eval: into the case
# directory).
OUTPUTS = {
    "synth": ("coarse_a.ofg", "coarse_b.ofg", "depth_a.odm", "depth_b.odm",
              "fine_a.ofg", "fine_b.ofg", "manifest.json"),
    "supervise": ("supervision.json",),
    "voxelize": ("occ_a.ocg", "occ_b.ocg", "voxelize_config.json"),
    "match": ("match_config.json", "matches.jsonl"),
    "eval": ("curve.csv", "report.json"),
}

# Binary grids: magic, number of uint32 header fields, float32 payload.
_GRIDS = {".odm": (b"ODM1", 2), ".ofg": (b"OFG1", 4), ".ocg": (b"OCG1", 4)}


def _check_grid(path: Path, data: bytes) -> None:
    magic, fields = _GRIDS[path.suffix]
    head = len(magic) + 4 * fields
    if len(data) < head or data[: len(magic)] != magic:
        raise ValueError("bad magic or truncated header")
    dims = struct.unpack_from(f"<{fields}I", data, len(magic))
    count = math.prod(dims[:3] if path.suffix == ".ofg" else dims)  # OFG's 4th field is the stride
    if len(data) != head + 4 * count:
        raise ValueError(f"header {dims} needs {head + 4 * count} bytes, file has {len(data)}")
    import numpy as np  # late: the runner pins BLAS threads before numpy loads

    if not np.isfinite(np.frombuffer(data, dtype="<f4", offset=head)).all():
        raise ValueError("non-finite value in payload")


def _check_text(path: Path, data: bytes) -> None:
    text = data.decode("utf-8")
    if path.suffix == ".json":
        if not isinstance(json.loads(text), dict):
            raise ValueError("top-level value is not an object")
    elif path.suffix == ".jsonl":
        for line in text.splitlines():
            json.loads(line)
    elif path.suffix == ".csv":
        lines = text.splitlines()
        if not lines or lines[0] != "count,mean_err_deg":
            raise ValueError("missing header")
        for line in lines[1:]:
            count, err = line.split(",")
            int(count), float(err)
    else:
        raise ValueError(f"unexpected output type {path.suffix!r}")


def check_outputs(paths: Iterable[Path]) -> list[str]:
    """One message per output file that is missing or does not parse."""
    errors = []
    for path in paths:
        try:
            data = path.read_bytes()
            (_check_grid if path.suffix in _GRIDS else _check_text)(path, data)
        except (OSError, ValueError) as exc:  # JSON and Unicode errors are ValueErrors
            errors.append(f"{path.name}: {exc}")
    return errors


def digest(paths: Sequence[Path]) -> str:
    """SHA-256 over the names and bytes of the files, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest()


def read_matches(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def unrefined(matches: list[dict]) -> int:
    """Matches lacking a refined point in either view."""
    return sum(1 for m in matches if m.get("a") is None or m.get("b") is None)


def vv_hits(supervision: dict, matches: list[dict]) -> tuple[int, int]:
    """(GT vv pairs whose (pa, pb) some match has, GT vv pairs). The match
    labels are not consulted."""
    gt = {(int(a), int(b)) for a, b in supervision["vv"]}
    found = {(int(m["pa"]), int(m["pb"])) for m in matches}
    return len(gt & found), len(gt)
