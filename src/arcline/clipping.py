"""Robust clipping of segments to a square centered at the origin.

The plane is cut into eight zones by the two diagonal lines: four open
wedges (even zones 0, 2, 4, 6 counterclockwise from east) and the four
diagonal half-lines between them (odd zones).  Segments are split on the
axes and diagonals first, after which each piece lives in one closed wedge
where a single square side matters.  Points outside the square are
projected onto its outline along the ray from the origin, which preserves
the topology of the cells the segments bound.

The zone of a point and whether it lies in the square are read off the
floats of its coordinates when no two of the compared floats tie; the
exact comparison runs otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .predicates import compare, to_float
from .segments import IndexedSegment


def zone(p) -> int:
    x, y = p
    fx, fy = to_float(x), to_float(y)
    # with no tie among the floats of x, y, -x, -y and 0, every comparison
    # in _zone has the exact answer
    if fx != 0 and fy != 0 and fx != fy and fx != -fy:
        return _zone(fx, fy)
    return _zone(x, y)


def _zone(x, y) -> int:
    if x > 0 and -x < y < x:
        return 0
    if x > 0 and y == x:
        return 1
    if y > 0 and -y < x < y:
        return 2
    if y > 0 and x == -y:
        return 3
    if x < 0 and x < y < -x:
        return 4
    if x < 0 and y == x:
        return 5
    if y < 0 and y < x < -y:
        return 6
    return 7  # y == -x, x > 0


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


def _lerp(p0, p1, t: Fraction):
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def _clip_to_square(p0, p1, h):
    """Clip segment [p0, p1] to the closed square; both endpoints must not be
    on the same outside side.  Returns the clipped pair or None if empty."""
    t0, t1 = Fraction(0), Fraction(1)
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    for num, den in (
        (h - p0[0], dx),  # x <= h
        (p0[0] + h, -dx),  # x >= -h
        (h - p0[1], dy),  # y <= h
        (p0[1] + h, -dy),  # y >= -h
    ):
        if den == 0:
            if num < 0:
                return None
            continue
        t = Fraction(num, den)
        if den > 0:
            if t < t1:
                t1 = t
        else:
            if t > t0:
                t0 = t
    if t0 > t1:
        return None
    return _lerp(p0, p1, t0), _lerp(p0, p1, t1)


# signs of y - x and of y + x in each zone: the sides of the two diagonals
_DIAGONAL_SIDES = ((-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0))


def _wedges(z: int) -> set:
    """Closed even wedges containing a point of zone z (two of them when it
    is on a diagonal)."""
    if z % 2 == 0:
        return {z}
    return {(z - 1) % 8, (z + 1) % 8}


def _project(p, w: int, h):
    """Radial projection of p onto the square side of wedge w."""
    x, y = p
    if w == 0:
        return (Fraction(h), Fraction(h * y, x))
    if w == 2:
        return (Fraction(h * x, y), Fraction(h))
    if w == 4:
        return (Fraction(-h), Fraction(-h * y, x))
    return (Fraction(h * x, -y), Fraction(-h))


def clip_segments_square(segments: Sequence[IndexedSegment], half_side: int) -> List[IndexedSegment]:
    h = half_side
    fh = to_float(h)
    out: List[IndexedSegment] = []
    work = [(s.p0, s.p1, s) for s in segments]
    while work:
        p0, p1, s = work.pop()
        # 1. entirely inside
        if _inside(p0, h, fh) and _inside(p1, h, fh):
            out.append(s.with_endpoints(p0, p1))
            continue
        # 2. an endpoint at the origin
        if p0 == (0, 0) or p1 == (0, 0):
            clipped = _clip_to_square(p0, p1, h)
            if clipped is not None:
                out.append(s.with_endpoints(*clipped))
            continue
        z0, z1 = zone(p0), zone(p1)
        # 3. opposite even zones: the segment crosses two diagonals; cut it
        #    on the axis between them first
        if {z0, z1} == {0, 4}:
            t = Fraction(p0[0], p0[0] - p1[0])  # crossing of x = 0
            mid = (Fraction(0), p0[1] + t * (p1[1] - p0[1]))
            work.append((p0, mid, s))
            work.append((mid, p1, s))
            continue
        if {z0, z1} == {2, 6}:
            t = Fraction(p0[1], p0[1] - p1[1])  # crossing of y = 0
            mid = (p0[0] + t * (p1[0] - p0[0]), Fraction(0))
            work.append((p0, mid, s))
            work.append((mid, p1, s))
            continue
        # 4. both on one diagonal through the origin
        if {z0, z1} in ({1, 5}, {3, 7}):
            clipped = _clip_to_square(p0, p1, h)
            if clipped is not None:
                out.append(s.with_endpoints(*clipped))
            continue
        # 5. crossing a diagonal (y = x, then y = -x): split on it
        split = False
        for k, c in enumerate((-1, 1)):
            if _DIAGONAL_SIDES[z0][k] * _DIAGONAL_SIDES[z1][k] < 0:
                sa = p0[1] + c * p0[0]
                sb = p1[1] + c * p1[0]
                t = Fraction(sa, sa - sb)
                mid = _lerp(p0, p1, t)
                work.append((p0, mid, s))
                work.append((mid, p1, s))
                split = True
                break
        if split:
            continue
        # 6./7. the piece lies in one closed wedge; one square side matters
        w = min(_wedges(z0) & _wedges(z1))
        axis = 0 if w in (0, 4) else 1
        bound, fbound, inward = (h, fh, -1) if w in (0, 2) else (-h, -fh, 1)

        def strictly_in(p):
            return compare(p[axis], bound, to_float(p[axis]), fbound) == inward

        if not strictly_in(p0) and not strictly_in(p1):
            # 6. nothing strictly inside: project onto the outline (points on
            #    the outline project to themselves)
            out.append(s.with_endpoints(_project(p0, w, h), _project(p1, w, h)))
            continue
        # 7. exactly one endpoint strictly inside (both inside was step 1):
        #    split on the square side
        t = Fraction(bound - p0[axis], p1[axis] - p0[axis])
        mid = _lerp(p0, p1, t)
        work.append((p0, mid, s))
        work.append((mid, p1, s))
    return out
