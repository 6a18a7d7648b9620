"""Exact tolerance tests over vertex ranges of a polyline, and the convex
hull.

`HullTree.segment_within_tolerance` answers the DP's segment candidates that
the cone walk (`feasibility.test_segments`) leaves unsure, by one pass over
the range: the two endpoint-distance tests, then every vertex against the
query segment's tolerance strip, in exact integer arithmetic, stopping at
the first vertex outside.

The class keeps its name, though it holds no tree, because it is public
(`arcline.HullTree`) and the benchmark's tracer patches
`segment_within_tolerance` by name.
"""

from __future__ import annotations

from math import isqrt
from typing import List, Sequence, Tuple

from .predicates import dist_sq, exact_ratio, orientation


def _hull_chains(sorted_pts: Sequence[Tuple]):
    """Lower and upper hull chains (Andrew's monotone chain) of
    lexicographically sorted points, integer or float; points on a chain's
    edges are dropped."""

    def chain(order):
        out = []
        for p in order:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(sorted_pts), chain(reversed(sorted_pts))


def convex_hull(points) -> List[Tuple]:
    """Strict convex hull of the points, counterclockwise from the least;
    fewer than three distinct points come back sorted."""
    spts = sorted(set(points))
    if len(spts) < 3:
        return spts
    lower, upper = _hull_chains(spts)
    return lower[:-1] + upper[:-1]


class HullTree:
    """Range queries over the integer vertices of a polyline."""

    def __init__(self, points: Sequence[Tuple[int, int]]):
        if not points:
            raise ValueError("no points")
        self.points = [tuple(p) for p in points]
        self.n = len(points)

    def _range(self, i: int, j: int) -> List[Tuple[int, int]]:
        if not 0 <= i <= j < self.n:
            raise ValueError("bad range")
        return self.points[i:j + 1]

    def segment_within_tolerance(self, i: int, j: int, seg_start, seg_end, tol) -> bool:
        """All vertices in [i, j] within tol of the supporting line of the
        segment (of seg_start when the two ends coincide), and the range
        endpoints within tol of the segment's ends.  tol is read once as
        an exact ratio of Python ints (`predicates.exact_ratio`)."""
        pts = self._range(i, j)
        # d > tol^2 with tol = num/den is d * den^2 > num^2: integers only
        num, den = exact_ratio(tol)
        num_sq, den_sq = num ** 2, den ** 2
        if dist_sq(pts[0], seg_start) * den_sq > num_sq:
            return False
        if dist_sq(pts[-1], seg_end) * den_sq > num_sq:
            return False
        ax, ay = seg_start
        dx = seg_end[0] - ax
        dy = seg_end[1] - ay
        len_sq = dx * dx + dy * dy
        if len_sq == 0:
            return all(dist_sq(p, seg_start) * den_sq <= num_sq for p in pts)
        # an integer cross product c has c^2 <= tol^2 * |seg|^2 exactly when
        # |c| <= isqrt(floor(tol^2 * |seg|^2)), so the strip is lo <= c <= hi
        # for c = dx*y - dy*x
        r = isqrt(num_sq * len_sq // den_sq)
        c0 = dx * ay - dy * ax
        lo, hi = c0 - r, c0 + r
        for x, y in pts:
            c = dx * y - dy * x
            if c < lo or c > hi:
                return False
        return True
