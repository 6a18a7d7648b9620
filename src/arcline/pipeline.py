"""Float-facing compression pipeline: snap coordinates to an integer grid,
run the exact-arithmetic compressor, and map the result back.
"""

from __future__ import annotations

import math
import sys
from typing import List, Optional, Sequence, Tuple

from .compress import CompressedPolyline, CompressionParams, Primitive, _check_tolerance, compress
from .records import Record

TOLERANCE_GRID_UNITS = 1024


def choose_scale(tolerance: float) -> float:
    """Smallest power of two with tolerance * scale >= 1024: the tolerance
    keeps its resolution, and the predicates plenty of headroom."""
    tolerance = _check_tolerance(tolerance)
    try:
        return 2.0 ** math.ceil(math.log2(TOLERANCE_GRID_UNITS / tolerance))
    except OverflowError:
        raise ValueError("tolerance too small: its grid scale overflows a float") from None


def quantize_points(points: Sequence[Tuple[float, float]], scale: float) -> List[Tuple[int, int]]:
    """Points scaled and rounded to the integer grid; ValueError when a
    scaled coordinate overflows a float."""
    try:
        return [(round(x * scale), round(y * scale)) for x, y in points]
    except OverflowError:
        raise ValueError(f"coordinates times the grid scale {scale!r} overflow a float") from None


class CompressionResult(Record):
    __slots__ = ("primitives", "t_count", "t_sse", "scale", "grid", "source")

    def __init__(self, primitives: List[Primitive], t_count: int, t_sse: float, scale: float,
                 grid: CompressedPolyline, source: List[Tuple[float, float]]):
        self.primitives = primitives  # coordinates in input units
        self.t_count = t_count
        self.t_sse = t_sse  # in input units squared
        self.scale = scale
        self.grid = grid
        self.source = source


def _float_vertices(points: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """`points` as pairs of floats; ValueError naming the first vertex that
    is not a pair of real numbers whose floats are finite."""
    out = []
    for i, p in enumerate(points):
        try:
            x, y = p
            finite = math.isfinite(x) and math.isfinite(y)
        except OverflowError:
            raise ValueError(f"vertex {i}: coordinate past the float range") from None
        except (TypeError, ValueError):  # not a pair, or not of real numbers
            raise ValueError(f"vertex {i} is not a pair of real numbers, got {p!r}") from None
        if not finite:
            raise ValueError(f"vertex {i}: non-finite coordinate")
        out.append((float(x), float(y)))
    return out


def compress_polyline(points: Sequence[Tuple[float, float]], tolerance: float,
                      scale: Optional[float] = None, **params) -> CompressionResult:
    """Optimal chain of segments and arcs within `tolerance` (input units,
    positive and finite) of `points`.  The points are snapped to a grid of
    `scale` units per input unit, `choose_scale(tolerance)` by default, and
    the tolerance holds exactly for the snapped points: a pinned `scale`
    makes it hold for that grid's points, however coarse.  `**params` go to
    `CompressionParams` (`penalty_segment`, `penalty_arc`, `min_arc_points`,
    `mode`).  Raises ValueError for an empty polyline, a vertex that is not
    a pair of real numbers (naming its index), a non-finite coordinate, a
    `scale` or tolerance that is not a positive and finite real number, a
    scale or coordinate past the float range or the grid, and a parameter
    `CompressionParams` rejects.
    """
    if scale is not None and not 0 < scale <= sys.float_info.max:  # its float is finite
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    tolerance = _check_tolerance(tolerance)
    source = _float_vertices(points)
    if scale is None:
        scale = choose_scale(tolerance)
    grid_pts = quantize_points(source, scale)
    cp = CompressionParams(tolerance=tolerance * scale, **params)
    result = compress(grid_pts, cp)
    prims = []
    for p in result.primitives:
        prim = Primitive(p.kind, p.start_idx, p.end_idx,
                         (p.start[0] / scale, p.start[1] / scale),
                         (p.end[0] / scale, p.end[1] / scale))
        if p.kind == "arc":
            prim.center = (p.center[0] / scale, p.center[1] / scale)
            prim.radius = p.radius / scale
            prim.orientation = p.orientation
        prims.append(prim)
    return CompressionResult(
        primitives=prims,
        t_count=result.total[0],
        t_sse=result.total[1] / scale / scale,  # scale * scale can underflow
        scale=scale,
        grid=result,
        source=source,
    )


def archimedean_spiral(separation: float = 1.0, turns: float = 6.0,
                       step: float = 0.05) -> List[Tuple[float, float]]:
    """Archimedean spiral r = separation * theta / (2 pi), sampled at roughly
    constant arc length; the stock demo input."""
    pts = []
    b = separation / (2 * math.pi)
    theta = 2 * math.pi
    end = 2 * math.pi * (1 + turns)
    while theta < end:
        r = b * theta
        pts.append((r * math.cos(theta), r * math.sin(theta)))
        theta += step / max(r, 1e-9) if r > step else step
    return pts
