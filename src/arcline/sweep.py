"""Plane sweep over integer segments with exact rational event points.

Reports every event point where segments from both Voronoi diagrams meet
(crossings, endpoint touches, shared endpoints), carrying the union of the
closest and farthest site indices involved.

Vertical segments are removed up front by an exact shear (x, y) ->
(K*x + y, y) with K larger than any |dy|, so the status order is always a
plain (y at x, slope) comparison; event points are mapped back exactly.
Overlapping collinear segments must have been merged beforehand.

Every segment also carries the floats of its endpoints and slope, and each
exact test is tried on them first (see the filters in `predicates`): the
event queue and the slope order are keyed by (float, exact value), which
orders exactly like the values; whether a segment passes above, through or
below an event point is decided in floats unless the value is within its
error bound; and two status neighbours are only intersected exactly when
the orientation filter cannot show that they miss.  Neighbours that share
an endpoint are not intersected at all: that endpoint is their only common
point and is queued from the start.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .predicates import (certain_sign, common_denominator, error_bound, orientation_filter,
                         point_key, to_float)
from .segments import IndexedSegment

RPoint = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class SweepEvent:
    point: RPoint
    closest_indices: FrozenSet[int]
    farthest_indices: FrozenSet[int]


def segment_intersection(a0, a1, b0, b1) -> Optional[RPoint]:
    """Exact intersection point of two segments, or None.

    Collinear overlapping inputs are rejected (the pipeline removes overlaps
    first); a shared endpoint or an endpoint on the interior counts.  The
    arithmetic runs on integers: the coordinates scaled by their common
    denominator."""
    d, (ax0, ay0, ax1, ay1, bx0, by0, bx1, by1) = common_denominator([*a0, *a1, *b0, *b1])
    d1x = ax1 - ax0
    d1y = ay1 - ay0
    d2x = bx1 - bx0
    d2y = by1 - by0
    den = d1x * d2y - d1y * d2x
    if den == 0:
        return None  # parallel; true overlaps are assumed removed
    ex = bx0 - ax0
    ey = by0 - ay0
    t = ex * d2y - ey * d2x  # the parameters on a and b are t/den and u/den
    u = ex * d1y - ey * d1x
    if den < 0:
        den, t, u = -den, -t, -u
    if 0 <= t <= den and 0 <= u <= den:
        return (Fraction(ax0 * den + t * d1x, d * den), Fraction(ay0 * den + t * d1y, d * den))
    return None


class _Seg:
    __slots__ = ("p0", "p1", "closest", "farthest", "slope", "_memo",
                 "fx0", "fy0", "fx1", "fy1", "fslope", "fmag", "crossings")

    def __init__(self, p0, p1, closest, farthest):
        fx0, fx1 = to_float(p0[0]), to_float(p1[0])
        if fx1 < fx0 or (fx1 == fx0 and p1 < p0):  # the exact order, x's float first
            p0, p1, fx0, fx1 = p1, p0, fx1, fx0
        self.p0 = p0
        self.p1 = p1
        self.closest = closest
        self.farthest = farthest
        self.slope = Fraction(p1[1] - p0[1], p1[0] - p0[0])
        self._memo = (None, None)
        self.fx0 = fx0
        self.fy0 = fy0 = to_float(p0[1])
        self.fx1 = fx1
        self.fy1 = to_float(p1[1])
        self.fslope = to_float(self.slope)
        self.fmag = abs(fy0) + abs(self.fslope) * abs(fx0)
        self.crossings: Tuple[RPoint, ...] = ()  # queued crossing points on this segment

    def y_at(self, x) -> Fraction:
        mx, my = self._memo
        if mx == x:
            return my
        y = self.p0[1] + self.slope * (x - self.p0[0])
        self._memo = (x, y)
        return y

    def side(self, p, fx: float, fy: float) -> int:
        """Sign of y_at(x) - y at p = (x, y), decided in floats when the
        error bound allows (floats fx, fy of x, y).

        Inputs carry a relative error of EPS each and four operations add
        one each, so the error stays below 6 * EPS times the sum of the
        absolute terms."""
        d = self.fy0 + self.fslope * (fx - self.fx0) - fy
        s = certain_sign(d, error_bound(self.fmag + abs(self.fslope) * abs(fx) + abs(fy)))
        if s:
            return s
        # most undecided cases are true ties: p is this segment's end or a
        # crossing found on it, else the exact value decides
        for q in self.crossings:
            if q is p:
                return 0
        x, y = p
        p1 = self.p1
        yx = p1[1] if fx == self.fx1 and x == p1[0] else self.y_at(x)
        if yx == y:
            return 0
        return 1 if yx > y else -1

    def shares_endpoint(self, o: "_Seg") -> bool:
        for a, fa in ((self.p0, self.fx0), (self.p1, self.fx1)):
            for b, fb in ((o.p0, o.fx0), (o.p1, o.fx1)):
                if fa == fb and a == b:
                    return True
        return False

    def misses(self, o: "_Seg") -> bool:
        """True when o lies certainly on one side of this segment's line,
        by the orientation filter; False when undecided or touching."""
        s0 = orientation_filter(self.fx0, self.fy0, self.fx1, self.fy1, o.fx0, o.fy0)
        return s0 != 0 and s0 == orientation_filter(self.fx0, self.fy0, self.fx1, self.fy1,
                                                    o.fx1, o.fy1)


def sweep_intersections(segments: Sequence[IndexedSegment]) -> List[SweepEvent]:
    segs_in = [s for s in segments if s.p0 != s.p1]
    if not segs_in:
        return []

    K = 0
    if any(s.p0[0] == s.p1[0] for s in segs_in):
        # shear steeper than every non-vertical slope so none becomes vertical
        K = 1
        for s in segs_in:
            dx = s.p1[0] - s.p0[0]
            if dx != 0:
                K = max(K, 1 + math.ceil(abs(Fraction(s.p1[1] - s.p0[1]) / Fraction(dx))))

    def fwd(p):
        return (K * p[0] + p[1], p[1]) if K else p

    def back(p) -> RPoint:
        x, y = p
        if K:
            return (Fraction(x - y, K), Fraction(y))
        return (Fraction(x), Fraction(y))

    segs = [_Seg(fwd(s.p0), fwd(s.p1), s.closest, s.farthest) for s in segs_in]

    # events keyed by point_key, (float(x), point), the exact order; an
    # endpoint shared by several segments, or a crossing found again, is
    # queued more than once and skipped when popped right after its first copy
    queue = [(s.fx0, s.p0) for s in segs] + [(s.fx1, s.p1) for s in segs]
    heapq.heapify(queue)
    # segments by start point, consumed in event order
    by_start = sorted(segs, key=lambda s: (s.fx0, s.p0), reverse=True)

    status: List[_Seg] = []
    events: List[SweepEvent] = []

    def locate(p, fx, fy) -> Tuple[int, int]:
        """Index range [lo, hi) of status segments passing through p."""
        lo, hi = 0, len(status)
        while lo < hi:  # first index with y_at(x) >= y
            mid = (lo + hi) // 2
            if status[mid].side(p, fx, fy) < 0:
                lo = mid + 1
            else:
                hi = mid
        first = lo
        n = len(status)
        while lo < n and status[lo].side(p, fx, fy) == 0:
            lo += 1
        return first, lo

    def check_cross(a: Optional[_Seg], b: Optional[_Seg], after):
        if a is None or b is None:
            return
        # a shared endpoint is their only common point, queued from the start
        if a.shares_endpoint(b) or a.misses(b) or b.misses(a):
            return
        q = segment_intersection(a.p0, a.p1, b.p0, b.p1)
        if q is not None:
            k = point_key(q)
            if k > after:
                heapq.heappush(queue, k)
                a.crossings += (q,)
                b.crossings += (q,)

    last = None
    while queue:
        k = heapq.heappop(queue)
        if k == last:
            continue
        last = k
        fx, p = k
        fy = to_float(p[1])
        U = []
        while by_start and by_start[-1].fx0 == fx and by_start[-1].p0 == p:
            U.append(by_start.pop())
        first, end = locate(p, fx, fy)
        through = status[first:end]
        C = [s for s in through if s.fx1 != fx or s.p1 != p]

        involved = U + through
        if involved:
            cset = frozenset().union(*(s.closest for s in involved))
            fset = frozenset().union(*(s.farthest for s in involved))
            if cset and fset:
                events.append(SweepEvent(back(p), cset, fset))

        # remove everything through p, reinsert continuing + starting segments
        del status[first:end]
        insert = sorted(C + U, key=lambda s: (s.fslope, s.slope))
        status[first:first] = insert
        if insert:
            check_cross(status[first - 1] if first > 0 else None, insert[0], k)
            top = first + len(insert)
            check_cross(insert[-1], status[top] if top < len(status) else None, k)
        else:
            check_cross(status[first - 1] if first > 0 else None,
                        status[first] if first < len(status) else None, k)

    return events
