"""Dyadic tree of convex hulls over vertex ranges.

Level q stores the hull of vertices [k*2^q, (k+1)*2^q - 1]; any query range
decomposes into at most two blocks per size class, largest blocks preferred.
Hulls are materialized lazily and kept as lexicographically sorted point
lists, so a parent hull is a linear-time merge of its children.  Tolerance
tests run two binary searches per hull (the extreme vertex in each normal
direction of the query segment), all in exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .predicates import dist_sq, orientation


def _hull_chains(sorted_pts: Sequence[Tuple[int, int]]):
    """Upper and lower hull chains of lexicographically sorted points."""
    if len(sorted_pts) == 1:
        return list(sorted_pts), list(sorted_pts)

    def chain(order):
        out = []
        for p in order:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(sorted_pts)
    upper = chain(reversed(sorted_pts))
    return lower, upper


class RangeHull:
    """Convex hull of one dyadic block, query-ready."""

    __slots__ = ("lo", "hi", "sorted_pts", "lower", "upper")

    def __init__(self, lo: int, hi: int, sorted_pts: List[Tuple[int, int]]):
        self.lo = lo
        self.hi = hi
        self.sorted_pts = sorted_pts
        self.lower, self.upper = _hull_chains(sorted_pts)

    def vertices(self) -> List[Tuple[int, int]]:
        """Hull vertices in counterclockwise order."""
        if len(self.lower) == 1:
            return list(self.lower)
        out = self.lower[:-1] + self.upper[:-1]
        return out if len(out) >= 2 else self.lower[:1]

    def extreme(self, dx: int, dy: int) -> Tuple[int, int]:
        """Hull vertex maximizing dx*x + dy*y.

        Along each chain the edge directions turn monotonically within a half
        circle, so the functional either peaks once (found by binary search on
        the edge sign change) or attains its maximum at a chain endpoint.
        """
        best = None
        best_v = None
        for chain in (self.lower, self.upper):
            cands = [chain[0], chain[-1]]
            lo, hi = 0, len(chain) - 2  # edge indices
            if hi >= lo:
                # last edge with positive slope along the functional
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    p = chain[mid + 1]
                    q = chain[mid]
                    if dx * (p[0] - q[0]) + dy * (p[1] - q[1]) > 0:
                        lo = mid
                    else:
                        hi = mid - 1
                cands.append(chain[lo + 1])
                cands.append(chain[lo])
            for c in cands:
                v = dx * c[0] + dy * c[1]
                if best is None or v > best_v:
                    best, best_v = c, v
        return best


class HullTree:
    def __init__(self, points: Sequence[Tuple[int, int]]):
        if not points:
            raise ValueError("no points")
        self.points = [tuple(p) for p in points]
        self.n = len(points)
        self._cache: Dict[Tuple[int, int], RangeHull] = {}

    def _block(self, q: int, k: int) -> RangeHull:
        key = (q, k)
        got = self._cache.get(key)
        if got is not None:
            return got
        lo = k << q
        hi = lo + (1 << q) - 1
        if q == 0:
            hull = RangeHull(lo, hi, [self.points[lo]])
        else:
            a = self._block(q - 1, 2 * k)
            b = self._block(q - 1, 2 * k + 1)
            merged: List[Tuple[int, int]] = []
            i = j = 0
            pa, pb = a.sorted_pts, b.sorted_pts
            while i < len(pa) and j < len(pb):
                if pa[i] <= pb[j]:
                    merged.append(pa[i]); i += 1
                else:
                    merged.append(pb[j]); j += 1
            merged.extend(pa[i:])
            merged.extend(pb[j:])
            hull = RangeHull(lo, hi, merged)
        self._cache[key] = hull
        return hull

    def query_cover(self, i: int, j: int) -> List[RangeHull]:
        """Minimal dyadic cover of [i, j], largest blocks first at each step."""
        if not 0 <= i <= j < self.n:
            raise ValueError("bad range")
        out = []
        pos = i
        while pos <= j:
            q = 0
            while (
                pos % (1 << (q + 1)) == 0
                and pos + (1 << (q + 1)) - 1 <= j
            ):
                q += 1
            out.append(self._block(q, pos >> q))
            pos += 1 << q
        return out

    def segment_within_tolerance(self, i: int, j: int, seg_start, seg_end, tol) -> bool:
        """All vertices in [i, j] within tol of the supporting line of the
        segment, and the range endpoints within tol of the segment's ends."""
        tol_sq = Fraction(tol) ** 2
        if dist_sq(self.points[i], seg_start) > tol_sq:
            return False
        if dist_sq(self.points[j], seg_end) > tol_sq:
            return False
        dx = seg_end[0] - seg_start[0]
        dy = seg_end[1] - seg_start[1]
        len_sq = dx * dx + dy * dy
        if len_sq == 0:
            # degenerate query segment: farthest hull vertex decides
            for hull in self.query_cover(i, j):
                for p in hull.vertices():
                    if dist_sq(p, seg_start) > tol_sq:
                        return False
            return True
        bound = tol_sq * len_sq  # compare cross^2 <= tol^2 * |seg|^2
        for hull in self.query_cover(i, j):
            for nx, ny in ((-dy, dx), (dy, -dx)):
                p = hull.extreme(nx, ny)
                cross = dx * (p[1] - seg_start[1]) - dy * (p[0] - seg_start[0])
                if cross * cross > bound:
                    return False
        return True

    def range_min_width_exceeds(self, i: int, j: int, threshold) -> bool:
        """True iff the min width of the hull of vertices [i, j] exceeds
        threshold, by rotating calipers over the merged cover hulls."""
        cover = self.query_cover(i, j)
        pts = sorted(set(p for h in cover for p in h.vertices()))
        lower, upper = _hull_chains(pts)
        verts = lower[:-1] + upper[:-1] if len(lower) > 1 else lower
        if len(verts) < 3:
            return False  # width zero
        thr_sq = Fraction(threshold) ** 2
        m = len(verts)
        k = 1
        for a in range(m):
            b = (a + 1) % m
            dx = verts[b][0] - verts[a][0]
            dy = verts[b][1] - verts[a][1]
            # advance the caliper to the farthest vertex from edge (a, b)
            while True:
                nk = (k + 1) % m
                cur = dx * (verts[k][1] - verts[a][1]) - dy * (verts[k][0] - verts[a][0])
                nxt = dx * (verts[nk][1] - verts[a][1]) - dy * (verts[nk][0] - verts[a][0])
                if nxt > cur:
                    k = nk
                else:
                    break
            cross = dx * (verts[k][1] - verts[a][1]) - dy * (verts[k][0] - verts[a][0])
            if Fraction(cross * cross, dx * dx + dy * dy) <= thr_sq:
                return False  # this direction already achieves width <= threshold
        return True
