"""Closed paths read from CSV and JSON text.  JSON text is decoded by
fields._parse_json, an object's shape follows fields._require_known, and
its numbers fields._json_float and _json_int.  Malformed input is a
ValueError that says what is wrong.
"""

from __future__ import annotations

import csv
import io
import os

from .fields import Point, _json_float, _json_int, _parse_json, _require_known
from .geometry import Circle, Polyline


def _read_text(source: str | os.PathLike | io.TextIOBase) -> str:
    if hasattr(source, "read"):
        return source.read()
    with open(source, encoding="utf-8") as file:
        return file.read()


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_polyline_csv(source: str | os.PathLike | io.TextIOBase) -> Polyline:
    """Read a closed polyline from CSV rows "x,y,z".

    A first row in which no cell is a number is a header and is skipped;
    every other row must hold exactly three numbers.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(_read_text(source), newline=""))
                if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from None
    if rows and not any(_is_number(cell) for cell in rows[0]):
        rows = rows[1:]
    vertices = []
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"expected 3 columns x,y,z, got {row!r}")
        vertices.append(Point(float(row[0]), float(row[1]), float(row[2])))
    return Polyline(tuple(vertices))


def load_circle_json(source: str | os.PathLike | io.TextIOBase) -> Circle:
    """Read a circle path from JSON {"center": [x, y, z], "radius": r, "turns": n}."""
    data = _parse_json(_read_text(source))
    _require_known(data, ("center", "radius", "turns"), "circle JSON",
                   required=("center", "radius"))
    center = data["center"]
    if not (isinstance(center, list) and len(center) == 3):
        raise ValueError(f"circle center must be a list of 3 numbers, got {center!r}")
    x, y, z = (_json_float(c, "circle center") for c in center)
    return Circle(
        center=Point(x, y, z),
        radius=_json_float(data["radius"], "circle radius"),
        turns=_json_int(data.get("turns", 1), "circle turns"),
    )
