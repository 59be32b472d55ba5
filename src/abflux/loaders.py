"""Closed paths read from CSV and JSON text, and the JSON parsing the
CLI's config file shares.  JSON numbers follow fields._json_float and
_json_int.  Malformed input is a ValueError that says what is wrong.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .fields import Point, _json_float, _json_int
from .geometry import Circle, Polyline


def _read_text(source: str | Path | io.TextIOBase) -> str:
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_text(encoding="utf-8")


def _parse_json(text: str):
    """json.loads, with nesting too deep for the parser as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def load_polyline_csv(source: str | Path | io.TextIOBase) -> Polyline:
    """Read a closed polyline from CSV rows "x,y,z".

    A single leading header row is tolerated; every other row must hold
    exactly three numbers.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(_read_text(source), newline=""))
                if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from None
    if rows:
        try:
            [float(cell) for cell in rows[0]]
        except ValueError:
            rows = rows[1:]
    vertices = []
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"expected 3 columns x,y,z, got {row!r}")
        vertices.append(Point(float(row[0]), float(row[1]), float(row[2])))
    return Polyline(tuple(vertices))


def load_circle_json(source: str | Path | io.TextIOBase) -> Circle:
    """Read a circle path from JSON {"center": [x, y, z], "radius": r, "turns": n}."""
    data = _parse_json(_read_text(source))
    if not isinstance(data, dict):
        raise ValueError(f"circle JSON must be an object, got {type(data).__name__}")
    for key in ("center", "radius"):
        if key not in data:
            raise ValueError(f"circle JSON is missing {key!r}")
    center = data["center"]
    if not (isinstance(center, list) and len(center) == 3):
        raise ValueError(f"circle center must be a list of 3 numbers, got {center!r}")
    x, y, z = (_json_float(c, "circle center") for c in center)
    return Circle(
        center=Point(x, y, z),
        radius=_json_float(data["radius"], "circle radius"),
        turns=_json_int(data.get("turns", 1), "circle turns"),
    )
