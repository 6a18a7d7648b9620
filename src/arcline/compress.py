"""Minimum-penalty compression of a polyline into segments and arcs.

Costs are lexicographic pairs (primitive-count penalty, summed squared
deviations): a segment costs 2, an arc 3, so segments win ties.  For each
end vertex k the scan over start candidates k' runs in ascending order of
their accumulated cost through a mergesort-tree range heap and stops at the
first candidate whose cost bound already meets the incumbent.  Feasibility
tables bound the scans: no candidate beyond the first index where an arc
(or a segment strip) can still cover the range is ever touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arcfit import (FittedArc, _intersect_interval_sets, arc_within_tolerance,
                     densify, direction_and_endpoint_check, fit_arc_by_tolerance,
                     fit_arc_least_squares, tolerance_intervals_point)
from .feasibility import build_fit_index_arrays, test_arcs, test_segments
from .hulltree import HullTree
from .sortedrange import MergeTree
from .voronoi import ClipConfig

PenaltyPair = Tuple[int, float]


@dataclass
class CompressionParams:
    tolerance: float = 1.0  # grid units
    penalty_segment: int = 2
    penalty_arc: int = 3
    min_arc_points: int = 4
    max_arc_points: int = 512  # 0 = unlimited
    direction_slack: float = 0.0
    mode: str = "vertices"  # "vertices" | "segments"
    min_arc_angle: float = math.radians(0.1)
    pruned: bool = True  # False disables the feasibility tables (testing)

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.penalty_segment <= 0 or self.penalty_arc <= 0:
            raise ValueError("penalties must be positive")
        if self.mode not in ("vertices", "segments"):
            raise ValueError("unknown mode")
        if self.min_arc_points < 4:
            raise ValueError("min_arc_points must be at least 4")
        if self.max_arc_points < 0 or 0 < self.max_arc_points < self.min_arc_points:
            raise ValueError("max_arc_points must be 0 or at least min_arc_points")


@dataclass
class Primitive:
    kind: str  # "segment" | "arc"
    start_idx: int
    end_idx: int
    start: Tuple[float, float]  # the vertex at start_idx
    end: Tuple[float, float]  # the vertex at end_idx
    center: Optional[Tuple[float, float]] = None
    radius: Optional[float] = None
    orientation: Optional[str] = None


@dataclass
class CompressedPolyline:
    primitives: List[Primitive]
    total: PenaltyPair
    points: List[Tuple[int, int]]  # the polyline the indices refer to
    stats: dict = field(default_factory=dict)


class _SegSse:
    """O(1) exact sum of squared line deviations over any vertex range."""

    def __init__(self, pts):
        n = len(pts)
        self.sx = [0] * (n + 1)
        self.sy = [0] * (n + 1)
        self.sxx = [0] * (n + 1)
        self.syy = [0] * (n + 1)
        self.sxy = [0] * (n + 1)
        for i, (x, y) in enumerate(pts):
            self.sx[i + 1] = self.sx[i] + x
            self.sy[i + 1] = self.sy[i] + y
            self.sxx[i + 1] = self.sxx[i] + x * x
            self.syy[i + 1] = self.syy[i] + y * y
            self.sxy[i + 1] = self.sxy[i] + x * y
        self.pts = pts

    def range_sse(self, i: int, j: int) -> float:
        """Sum over i..j of squared distance to the line through pts[i], pts[j]."""
        ax, ay = self.pts[i]
        bx, by = self.pts[j]
        dx = bx - ax
        dy = by - ay
        len_sq = dx * dx + dy * dy
        if len_sq == 0:
            return 0.0
        cnt = j - i + 1
        sx = self.sx[j + 1] - self.sx[i]
        sy = self.sy[j + 1] - self.sy[i]
        sxx = self.sxx[j + 1] - self.sxx[i]
        syy = self.syy[j + 1] - self.syy[i]
        sxy = self.sxy[j + 1] - self.sxy[i]
        # cross_t = dx*(y_t - ay) - dy*(x_t - ax); sum cross_t^2 expanded
        c = dx * ay - dy * ax  # cross = dx*y - dy*x - c0 with c0 = dx*ay - dy*ax
        total = (dx * dx * syy + dy * dy * sxx - 2 * dx * dy * sxy
                 - 2 * c * (dx * sy - dy * sx) + cnt * c * c)
        return float(Fraction(total, len_sq))


def compress(polyline: Sequence[Tuple[int, int]], params: CompressionParams) -> CompressedPolyline:
    """Globally optimal decomposition into vertex-anchored segments and arcs."""
    pts = [tuple(p) for p in polyline]
    if params.mode == "segments":
        dense = densify(pts, params.tolerance)
        pts = [(round(x), round(y)) for x, y in dense]
    # collapse consecutive duplicates; zero-length pieces carry no information
    pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    n = len(pts)
    if n == 0:
        raise ValueError("empty polyline")
    if n == 1:
        return CompressedPolyline([], (0, 0.0), pts)

    tol = params.tolerance
    p_seg = params.penalty_segment
    p_arc = params.penalty_arc
    tree = HullTree(pts)
    sse = _SegSse(pts)
    clip = ClipConfig(params.min_arc_angle, _data_radius(pts))

    if params.pruned:
        seg_pairs, seg_arrays = test_segments(pts, tol, tree)
        arc_pairs = test_arcs(pts, tol, clip, params.max_arc_points)
        arc_arrays = build_fit_index_arrays(arc_pairs, n)
        first_seg_ok = seg_arrays.first  # first k' where a segment may fit
        first_arc_ok = arc_arrays.first
    else:
        first_seg_ok = [0] * n
        first_arc_ok = [0] * n

    T: List[PenaltyPair] = [(0, 0.0)]
    back: List[Optional[Tuple[int, str, Optional[FittedArc]]]] = [None]
    mtree = MergeTree()
    mtree.append(T[0])
    seg_evals = arc_evals = 0
    tol_f = float(tol)

    for k in range(1, n):
        best = (T[k - 1][0] + p_seg, T[k - 1][1])
        best_back: Tuple[int, str, Optional[FittedArc]] = (k - 1, "segment", None)

        lo = first_seg_ok[k]
        hi = k - 2
        if lo <= hi:
            heap = mtree.open_range(lo, hi)
            while True:
                item = heap.pop_min()
                if item is None:
                    break
                (cnt, acc), kp = item
                if best <= (cnt + p_seg, acc):
                    break
                seg_evals += 1
                if not tree.segment_within_tolerance(kp, k, pts[kp], pts[k], tol):
                    continue
                if not direction_and_endpoint_check(pts[kp:k + 1], (pts[kp], pts[k]),
                                                    params.direction_slack):
                    continue
                cand = (cnt + p_seg, acc + sse.range_sse(kp, k))
                if cand < best or (cand == best and best_back[1] == "segment" and kp > best_back[0]):
                    best = cand
                    best_back = (kp, "segment", None)

        lo = first_arc_ok[k]
        if params.max_arc_points:
            lo = max(lo, k - params.max_arc_points + 1)
        hi = k - (params.min_arc_points - 1)
        if lo <= hi:
            heap = mtree.open_range(lo, hi)
            while True:
                item = heap.pop_min()
                if item is None:
                    break
                (cnt, acc), kp = item
                if best <= (cnt + p_arc, acc):
                    break
                arc_evals += 1
                arc = _evaluate_arc(pts, kp, k, tol_f, params.direction_slack, tree)
                if arc is None:
                    continue
                cand = (cnt + p_arc, acc + arc.sse)
                if cand < best or (cand == best and best_back[1] == "arc" and kp > best_back[0]):
                    best = cand
                    best_back = (kp, "arc", arc)

        T.append(best)
        back.append(best_back)
        mtree.append(best)

    prims = reconstruct(back, pts)
    return CompressedPolyline(prims, T[n - 1], pts,
                              stats={"segment_evaluations": seg_evals,
                                     "arc_evaluations": arc_evals})


def _evaluate_arc(pts, kp, k, tol, slack, tree: Optional[HullTree] = None) -> Optional[FittedArc]:
    """Least-squares fit first; tolerance-interval fit as the fallback.

    Before any O(n) fitting, the two range points extreme in the chord's
    normal directions are checked alone: if even their center intervals on
    the bisector do not intersect, no arc through the endpoints exists.
    """
    a, b = pts[kp], pts[k]
    if a == b:
        return None  # an arc needs two distinct anchors
    if tree is not None and k - kp > 24:
        dx = b[0] - a[0]
        dy = b[1] - a[1]
        cover = tree.query_cover(kp, k)
        feas = [(-math.inf, math.inf)]
        for nx, ny in ((-dy, dx), (dy, -dx)):
            best = None
            for hull in cover:
                p = hull.extreme(nx, ny)
                if best is None or nx * p[0] + ny * p[1] > nx * best[0] + ny * best[1]:
                    best = p
            feas = _intersect_interval_sets([feas, tolerance_intervals_point(a, b, best, tol)])
            if not feas:
                return None
    chunk = pts[kp:k + 1]
    quick = fit_arc_least_squares(chunk, polish=False, with_sse=False)
    if not quick.segment_like and arc_within_tolerance(quick, chunk, tol, check_span=False):
        arc = fit_arc_least_squares(chunk)  # polish only once a fit is viable
        if not arc.segment_like and arc_within_tolerance(arc, chunk, tol) \
                and direction_and_endpoint_check(chunk, arc, slack):
            return arc
    arc = fit_arc_by_tolerance(chunk, tol=tol, seed_arc=quick)
    if arc is None or arc.segment_like:
        return None
    if not arc_within_tolerance(arc, chunk, tol):
        return None
    if not direction_and_endpoint_check(chunk, arc, slack):
        return None
    return arc


def _data_radius(pts) -> float:
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys)) / 2 + 1


def reconstruct(back, pts) -> List[Primitive]:
    """Primitive chain from the stored predecessor of each index of pts."""
    prims: List[Primitive] = []
    k = len(pts) - 1
    while k > 0:
        entry = back[k]
        if entry is None:
            raise RuntimeError("internal: dangling back pointer")
        kp, kind, arc = entry
        if kind == "segment":
            prims.append(Primitive("segment", kp, k, pts[kp], pts[k]))
        else:
            prims.append(Primitive("arc", kp, k, pts[kp], pts[k],
                                   arc.center, arc.radius, arc.orientation))
        k = kp
    prims.reverse()
    return prims
