"""CSV and JSON file handling for point sets, level counts, per-center
profiles, and tube families.

CSV files carry a header row and shortest-round-trip float formatting,
so identical data always serializes to identical bytes.  Point-set CSVs
travel with a .meta.json sidecar holding resolution and provenance.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Optional

import numpy as np

from .errors import ConfigInvalid
from .generators import DiscreteSet


def _fmt(v: float) -> str:
    return repr(float(v))


def json_safe(obj):
    """Recursively replace non-finite floats with None and ndarrays with
    lists so a payload always serializes to strict JSON."""
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sidecar_path(csv_path: str) -> str:
    base = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return base + ".meta.json"


def write_rows(path: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_points_csv(path: str, ds: DiscreteSet) -> None:
    """Points as x,y rows plus a .meta.json sidecar with resolution and
    provenance."""
    write_rows(path, ["x", "y"],
               ([_fmt(x), _fmt(y)] for x, y in ds.points))
    write_json(sidecar_path(path), {
        "delta": ds.delta,
        "label": ds.label,
        "n_points": len(ds),
        "meta": ds.meta,
    })


def _parse_xy(path: str, lineno: int, row: list) -> list:
    try:
        return [float(row[0]), float(row[1])]
    except (ValueError, IndexError):
        raise ConfigInvalid(
            f"{path!r} line {lineno}: expected x,y numbers, got {row!r}"
        ) from None


def read_points_csv(path: str, delta: Optional[float] = None) -> DiscreteSet:
    """Read a point CSV; resolution comes from the sidecar unless given."""
    side = sidecar_path(path)
    label = ""
    meta: dict = {}
    if os.path.exists(side):
        payload = read_json(side)
        if delta is None:
            delta = payload.get("delta")
        label = payload.get("label", "")
        meta = payload.get("meta", {})
    if delta is None:
        raise ConfigInvalid(
            f"no resolution for {path!r}: pass delta or provide {side!r}"
        )
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if header is None or [h.strip() for h in header[:2]] != ["x", "y"]:
                raise ConfigInvalid(f"{path!r} must start with an x,y header row")
            pts = [_parse_xy(path, r.line_num, row) for row in r if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigInvalid(f"cannot read {path!r}: {exc}") from None
    return DiscreteSet(np.array(pts, dtype=float), float(delta),
                       label=label, meta=meta)


def read_lines_csv(path: str) -> np.ndarray:
    """(angle, offset) rows of a line CSV with a header row, such as the
    tubes.csv the tubes command writes; further columns are ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            # loadtxt warns on a file with no rows and gives it no columns
            body = [ln for ln in fh.readlines()[1:] if ln.split("#")[0].strip()]
        rows = np.loadtxt(body, delimiter=",", ndmin=2) if body else np.empty((0, 2))
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigInvalid(f"{path!r} is not a numeric line CSV: {exc}") from None
    if rows.shape[1] < 2:
        raise ConfigInvalid(f"{path!r} needs angle and offset columns")
    if not np.all(np.isfinite(rows[:, :2])):
        raise ConfigInvalid(f"{path!r} has a non-finite angle or offset")
    return rows[:, :2]


def write_levels_csv(path: str, counts) -> None:
    write_rows(path, ["level", "count"],
               ([int(lv), int(c)] for lv, c in counts))


def write_profile_csv(path: str, table) -> None:
    """Per-center slope table: x,y,slope rows."""
    write_rows(path, ["x", "y", "slope"],
               ([_fmt(p.x), _fmt(p.y), _fmt(s)] for p, s in table))


def write_tubes_csv(path: str, angles, offsets, width: float) -> None:
    write_rows(path, ["angle", "offset", "width"],
               ([_fmt(a), _fmt(o), _fmt(width)]
                for a, o in zip(angles, offsets)))


def write_angles_csv(path: str, angles, dims) -> None:
    write_rows(path, ["angle", "projection_dim"],
               ([_fmt(a), _fmt(d)] for a, d in zip(angles, dims)))
