"""Float-facing compression pipeline: snap coordinates to an integer grid,
run the exact-arithmetic compressor, and map the result back.

The grid scale is the smallest power of two that turns the tolerance into
at least 1024 grid units, which keeps tolerance resolution while leaving
plenty of headroom in the predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .compress import CompressedPolyline, CompressionParams, Primitive, compress

TOLERANCE_GRID_UNITS = 1024


def choose_scale(tolerance: float) -> float:
    """Smallest power of two with tolerance * scale >= 1024."""
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    return 2.0 ** math.ceil(math.log2(TOLERANCE_GRID_UNITS / tolerance))


def quantize_points(points: Sequence[Tuple[float, float]], scale: float) -> List[Tuple[int, int]]:
    return [(round(x * scale), round(y * scale)) for x, y in points]


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
    if not points:
        raise ValueError("empty polyline")
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
        t_sse=result.total[1] / (scale * scale),
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
