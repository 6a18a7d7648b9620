"""Float-facing compression pipeline: snap coordinates to an integer grid,
run the exact-arithmetic compressor, and map the result back.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .compress import CompressedPolyline, CompressionParams, Primitive, compress

TOLERANCE_GRID_UNITS = 1024


def choose_scale(tolerance: float) -> float:
    """Smallest power of two with tolerance * scale >= 1024: the tolerance
    keeps its resolution, and the predicates plenty of headroom."""
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
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


@dataclass
class CompressionResult:
    primitives: List[Primitive]  # coordinates in input units
    t_count: int
    t_sse: float  # in input units squared
    scale: float
    grid: CompressedPolyline
    source: List[Tuple[float, float]]


def compress_polyline(points: Sequence[Tuple[float, float]], tolerance: float,
                      scale: Optional[float] = None, **params) -> CompressionResult:
    """Optimal chain of segments and arcs within `tolerance` (input units,
    positive and finite) of `points`.  The points are snapped to a grid of
    `scale` units per input unit, `choose_scale(tolerance)` by default, and
    the tolerance holds exactly for the snapped points: a pinned `scale`
    makes it hold for that grid's points, however coarse.  `**params` go to
    `CompressionParams` (`penalty_segment`, `penalty_arc`, `min_arc_points`,
    `mode`).  Raises ValueError for an empty polyline, a non-finite
    coordinate, a `scale` or tolerance that is not positive and finite, a
    scale or coordinate past the float range or the grid, and a parameter
    `CompressionParams` rejects.
    """
    if scale is not None and not 0 < scale <= sys.float_info.max:  # its float is finite
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    if not all(math.isfinite(c) for p in points for c in p):
        raise ValueError("non-finite coordinate")
    if scale is None:
        scale = choose_scale(tolerance)
    grid_pts = quantize_points(points, scale)
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
        source=[tuple(map(float, p)) for p in points],
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
