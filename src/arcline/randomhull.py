"""Random convex hull generators for benchmarks and triangulation tests.

Three constructions with different shape statistics: the hull of a random
walk (expected size about 2*ln(n)), a closed polygon from randomly weighted
directions (weights drawn on the unit sphere orthogonally to the direction
coordinates, so the edge vectors sum to zero), and incremental growth of a
farthest-Delaunay-consistent hull by splitting circular segments.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .hulltree import convex_hull

Pt = Tuple[float, float]


@dataclass
class HullSample:
    vertices: List[Pt]  # in polygon order
    generator: str
    seed: int
    quantized: Optional[List[Tuple[int, int]]] = None


def _unit_vector(rng: random.Random) -> Pt:
    while True:
        u = rng.uniform(-1, 1)
        v = rng.uniform(-1, 1)
        m = u * u + v * v
        if 1e-8 < m < 1:
            r = math.sqrt(m)
            return (u / r, v / r)


def gen_random_walk_hull(n: int, seed: int = 0) -> HullSample:
    """Convex hull of an n-step unit-step random walk."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(seed)
    pts: List[Pt] = [(0.0, 0.0)]
    for _ in range(n - 1):
        dx, dy = _unit_vector(rng)
        pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
    return HullSample(convex_hull(pts), "walk", seed)


def gen_directions_hull(n: int, seed: int = 0, retries: int = 64) -> HullSample:
    """Closed convex polygon from n random directions and random weights.

    The weights are a uniformly random unit vector in the orthogonal
    complement of the two direction-coordinate vectors, so their squares sum
    to one and the weighted directions sum to the zero vector; sorting by
    angle and prefix-summing then closes a convex polygon.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(seed)
    for _ in range(retries):
        dirs = [_unit_vector(rng) for _ in range(n)]
        xs = [d[0] for d in dirs]
        ys = [d[1] for d in dirs]
        nx = math.sqrt(sum(x * x for x in xs))
        ny = math.sqrt(sum(y * y for y in ys))
        corr = sum(x * y for x, y in zip(xs, ys)) / (nx * ny)
        if abs(corr) > 1 - 1e-9:
            continue  # direction coordinates nearly collinear: resample
        # Gram-Schmidt against the two coordinate vectors, then normalize
        e1 = [x / nx for x in xs]
        d = sum(a * b for a, b in zip(ys, e1))
        f = [y - d * a for y, a in zip(ys, e1)]
        nf = math.sqrt(sum(v * v for v in f))
        e2 = [v / nf for v in f]
        g = [rng.gauss(0, 1) for _ in range(n)]
        g1 = sum(a * b for a, b in zip(g, e1))
        g2 = sum(a * b for a, b in zip(g, e2))
        w = [v - g1 * a - g2 * b for v, a, b in zip(g, e1, e2)]
        nw = math.sqrt(sum(v * v for v in w))
        if nw < 1e-9:
            continue
        w = [v / nw for v in w]
        edges = sorted(
            ((wi * dx, wi * dy) for wi, (dx, dy) in zip(w, dirs) if wi != 0),
            key=lambda e: math.atan2(e[1], e[0]),
        )
        pts: List[Pt] = [(0.0, 0.0)]
        for ex, ey in edges[:-1]:
            pts.append((pts[-1][0] + ex, pts[-1][1] + ey))
        return HullSample(pts, "directions", seed)
    raise RuntimeError("direction coordinates repeatedly collinear")


@dataclass
class _CircSeg:
    a: Pt
    b: Pt
    center: Pt
    radius: float
    area: float


def _circumcircle_f(a: Pt, b: Pt, c: Pt):
    d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0:
        return None
    na = a[0] * a[0] + a[1] * a[1]
    nb = b[0] * b[0] + b[1] * b[1]
    nc = c[0] * c[0] + c[1] * c[1]
    ux = (na * (b[1] - c[1]) + nb * (c[1] - a[1]) + nc * (a[1] - b[1])) / d
    uy = (na * (c[0] - b[0]) + nb * (a[0] - c[0]) + nc * (b[0] - a[0])) / d
    return (ux, uy), math.hypot(a[0] - ux, a[1] - uy)


def _circ_segment(a: Pt, b: Pt, center: Pt, radius: float) -> _CircSeg:
    """Circular segment on the far side of chord a->b from the center."""
    chord = math.dist(a, b)
    half = min(1.0, chord / (2 * radius))
    theta = 2 * math.asin(half)
    # the far side of the chord is the major side iff center is on the near side
    area = radius * radius / 2 * (theta - math.sin(theta))
    return _CircSeg(a, b, center, radius, area)


def gen_fdt_hull(n: int, seed: int = 0) -> HullSample:
    """Hull grown by farthest-Delaunay-consistent circular-segment splits.

    Each step picks a circular segment with probability proportional to its
    area, drops a point inside it (normalized height Beta(3, 1), lateral
    position uniform at that height), and replaces it with two segments of
    the new circumscribed circle.  Stops early with a warning when float
    resolution exhausts a segment.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(seed)
    t0 = rng.uniform(0, 2 * math.pi)
    t1 = rng.uniform(0, 2 * math.pi)
    while abs((t1 - t0 + math.pi) % (2 * math.pi) - math.pi) < 1e-3:
        t1 = rng.uniform(0, 2 * math.pi)
    pts: List[Pt] = [(math.cos(t0), math.sin(t0)), (math.cos(t1), math.sin(t1))]
    order = [0, 1]  # polygon order as indices into pts
    segs: List[Tuple[int, int, _CircSeg]] = []
    c0 = (0.0, 0.0)
    segs.append((0, 1, _circ_segment(pts[0], pts[1], c0, 1.0)))
    segs.append((1, 0, _circ_segment(pts[1], pts[0], c0, 1.0)))

    while len(pts) < n:
        total = sum(s.area for _, _, s in segs)
        if total <= 0:
            warnings.warn("circular segments exhausted; returning partial hull")
            break
        pick = rng.uniform(0, total)
        acc = 0.0
        si = 0
        for idx, (_, _, s) in enumerate(segs):
            acc += s.area
            if pick <= acc:
                si = idx
                break
        ia, ib, s = segs[si]
        p = _sample_in_segment(rng, s)
        if p is None:
            warnings.warn("circular segment collapsed below float resolution; partial hull")
            break
        cc = _circumcircle_f(s.a, p, s.b)
        if cc is None:
            warnings.warn("degenerate circumcircle; partial hull")
            break
        center, radius = cc
        pts.append(p)
        ip = len(pts) - 1
        order.insert(order.index(ib), ip)
        segs[si:si + 1] = [
            (ia, ip, _circ_segment(s.a, p, center, radius)),
            (ip, ib, _circ_segment(p, s.b, center, radius)),
        ]
    verts = [pts[i] for i in order]
    return HullSample(verts, "fdt", seed)


def _sample_in_segment(rng: random.Random, s: _CircSeg) -> Optional[Pt]:
    """Point inside the circular segment: the distance to the chord divided
    by the segment height follows Beta(3, 1); lateral position uniform."""
    ax, ay = s.a
    bx, by = s.b
    chord = math.dist(s.a, s.b)
    if chord < 1e-12:
        return None
    ux, uy = (bx - ax) / chord, (by - ay) / chord
    nx, ny = -uy, ux  # normal pointing away from the center
    mx, my = (ax + bx) / 2, (ay + by) / 2
    if (s.center[0] - mx) * nx + (s.center[1] - my) * ny > 0:
        nx, ny = -nx, -ny
    dc = math.hypot(mx - s.center[0], my - s.center[1])
    height = s.radius - dc
    if height < 1e-12:
        return None
    h = rng.betavariate(3, 1) * height
    # chord of the circle at distance dc + h from the center
    d = dc + h
    if d >= s.radius:
        h = height * 0.5
        d = dc + h
    half_w = math.sqrt(max(0.0, s.radius * s.radius - d * d))
    t = rng.uniform(-half_w, half_w)
    px = mx + (nx * h) + ux * t
    py = my + (ny * h) + uy * t
    return (px, py)


def finalize_hull(sample: HullSample, grid_scale: float = 1 << 20) -> HullSample:
    """Quantize to the integer grid and keep a strictly convex subsequence."""
    strict = convex_hull((round(x * grid_scale), round(y * grid_scale))
                         for x, y in sample.vertices)
    if len(strict) < 3:
        raise ValueError("degenerate hull")
    out = HullSample(list(sample.vertices), sample.generator, sample.seed)
    out.quantized = strict
    return out

