"""Clipping of segments to a square centered at the origin.

A segment with both endpoints in the closed square is kept as it is; any
other one is cut to the square by the parametric clip of Liang and Barsky
(1984), keeping the endpoints that lie inside.  A ray or a full line is cut
the same way from its origin and direction (`clip_ray`), with no far
endpoint to stretch out first.  A piece that lies on the square's outline
(a part of an edge running along one of its sides, or a single boundary
point) is dropped, which keeps the sweep small; crossings on it, which
would lie on the square's boundary, are not searched.

Whether a point lies in the square is read off the floats of its
coordinates when none of them ties with the float of the half side; the
exact comparison runs otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .predicates import to_float
from .segments import IndexedSegment


def _inside(p, h, fh: float) -> bool:
    """p in the closed square of half side h, whose float is fh."""
    for v in p:
        fv = to_float(v)
        if fv == fh or fv == -fh:
            if not -h <= v <= h:
                return False
        elif not -fh < fv < fh:
            return False
    return True


def _inside_rational(v, h: int, fh: float) -> bool:
    """`_inside` for the exact point of the `voronoi.RationalPoint` v, read
    off its floats; only a float that ties with fh runs the integer test
    |x| <= h * d."""
    for fv, n in ((v.fx, v.x), (v.fy, v.y)):
        if fv == fh or fv == -fh:
            if abs(n) > h * v.d:
                return False
        elif not -fh < fv < fh:
            return False
    return True


def _lerp(p0, d, t: Fraction):
    return (p0[0] + t * d[0], p0[1] + t * d[1])


def _parameter_range(p0, d, h, t0, t1):
    """The range [t0, t1] of t narrowed to where p0 + t * d lies in the
    closed square of half side h (the parametric clip of Liang and Barsky),
    or None if that is empty.  A bound given as None is open; when d is not
    zero, both come back set."""
    for num, den in (
        (h - p0[0], d[0]),  # x <= h
        (p0[0] + h, -d[0]),  # x >= -h
        (h - p0[1], d[1]),  # y <= h
        (p0[1] + h, -d[1]),  # y >= -h
    ):
        if den == 0:
            if num < 0:
                return None
            continue
        t = Fraction(num, den)
        if den > 0:
            if t1 is None or t < t1:
                t1 = t
        elif t0 is None or t > t0:
            t0 = t
    if t0 > t1:
        return None
    return t0, t1


def _clip_to_square(p0, p1, h):
    """Clip segment [p0, p1] to the closed square of half side h.  Returns
    the clipped pair, with p0 and p1 themselves where they lie inside, or
    None if the segment misses the square."""
    d = (p1[0] - p0[0], p1[1] - p0[1])
    ts = _parameter_range(p0, d, h, 0, 1)
    if ts is None:
        return None
    t0, t1 = ts
    return (p0 if t0 == 0 else _lerp(p0, d, t0)), (p1 if t1 == 1 else _lerp(p0, d, t1))


def clip_ray(p0, direction, half_side: int, double: bool):
    """The part of the ray from p0 along the nonzero integer direction (of
    the whole line through p0 when double) in the closed square of half
    side half_side, as its two ends in the ray's order (the first is p0
    itself for a ray that starts inside); None if the ray misses the
    square.

    The far end is where the ray leaves the square: the smallest of the
    parameters at which it crosses the sides it runs towards, one exact
    minimum over the two axes, so that end lies on the square's outline.
    A ray that only touches the outline gives a single point on it, which
    `clip_segments_square` drops like any piece on the outline."""
    ts = _parameter_range(p0, direction, half_side, None if double else 0, None)
    if ts is None:
        return None
    t0, t1 = ts
    return (p0 if t0 == 0 else _lerp(p0, direction, t0)), _lerp(p0, direction, t1)


def _on_outline(s: IndexedSegment, h) -> bool:
    """Both endpoints of s on one side of the square of half side h."""
    for axis in (0, 1):
        for side in (h, -h):
            if s.p0[axis] == side and s.p1[axis] == side:
                return True
    return False


def clip_segments_square(segments: Sequence[IndexedSegment], half_side: int) -> List[IndexedSegment]:
    """The parts of the segments inside the closed square of half side
    half_side, without those on its outline."""
    h = half_side
    fh = to_float(h)
    out: List[IndexedSegment] = []
    for s in segments:
        if not (_inside(s.p0, h, fh) and _inside(s.p1, h, fh)):
            clipped = _clip_to_square(s.p0, s.p1, h)
            if clipped is None:
                continue
            s = s.with_endpoints(*clipped)
        if not _on_outline(s, h):
            out.append(s)
    return out
