"""Line-oriented result documents and the polyline file format.

A document is an ordered list of key/value lines plus one optional primitive
table; values are kept verbatim as strings so parse(render(doc)) and
render(parse(text)) are byte-identical.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Tuple

from .records import Record

TABLE_COLUMNS = ["type", "start", "end", "x0", "y0", "x1", "y1", "cx", "cy", "r", "orient"]


class ResultDocument(Record):
    __slots__ = ("pairs", "rows")

    def __init__(self, pairs: Optional[List[Tuple[str, str]]] = None,
                 rows: Optional[List[List[str]]] = None):
        self.pairs = [] if pairs is None else pairs
        self.rows = [] if rows is None else rows

    def set(self, key: str, value) -> None:
        self.pairs.append((key, fmt(value)))

    def add_row(self, row) -> None:
        self.rows.append([fmt(v) for v in row])


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def render(doc: ResultDocument) -> str:
    lines = [f"{k}: {v}" for k, v in doc.pairs]
    if doc.rows:
        lines.append("primitives:")
        lines.append("  " + " ".join(TABLE_COLUMNS))
        for row in doc.rows:
            lines.append("  " + " ".join(row))
    return "\n".join(lines) + "\n"


def parse(text: str) -> ResultDocument:
    doc = ResultDocument()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line == "primitives:":
            i += 2  # skip the header row
            while i < len(lines) and lines[i].startswith("  "):
                doc.rows.append(lines[i][2:].split(" "))
                i += 1
            continue
        if ": " in line:
            k, v = line.split(": ", 1)
            doc.pairs.append((k, v))
        i += 1
    return doc


def read_polyline_file(path: str) -> Tuple[List[Tuple[float, float]], Optional[int]]:
    """Vertices one per line as "x,y"; optional "# scale=<int>" header, a
    positive integer."""
    points: List[Tuple[float, float]] = []
    scale: Optional[int] = None
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("scale="):
                    try:
                        scale = int(body[6:])
                    except ValueError:
                        scale = 0
                    if not 0 < scale <= sys.float_info.max:
                        raise ValueError(f"line {number}: scale must be a positive integer "
                                         f"within the float range, got {body[6:]!r}")
                continue
            try:
                xs, ys = line.split(",")
                x, y = float(xs), float(ys)
            except ValueError:
                raise ValueError(f"line {number}: expected 'x,y', got {line!r}") from None
            if not (x == x and y == y) or abs(x) == float("inf") or abs(y) == float("inf"):
                raise ValueError("non-finite coordinate")
            points.append((x, y))
    if not points:
        raise ValueError("no vertices in input")
    return points, scale


def write_polyline_file(path: str, points, scale: Optional[int] = None) -> None:
    with open(path, "w") as f:
        if scale is not None:
            f.write(f"# scale={scale}\n")
        for x, y in points:
            f.write(f"{fmt(float(x))},{fmt(float(y))}\n")
