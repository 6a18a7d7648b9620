"""Minimum-penalty compression of a polyline into segments and arcs.

Costs are lexicographic pairs (primitive-count penalty, summed squared
deviations): a segment costs 2, an arc 3, so segments win ties.  For each
end vertex k the scan over start candidates k' runs in ascending order of
their accumulated cost through a mergesort-tree range heap and stops at the
first candidate whose cost bound already meets the incumbent.  Feasibility
tables bound the scans: no candidate beyond the first index where an arc
(or a segment strip) can still cover the range is ever touched.

Arc candidates are evaluated best-first under a floor.  Exact prefix
moments of the grid points (`_Moments`) give, in O(1) per candidate, the
sums behind a certified lower bound on the SSE of every arc through its two
anchors (`arcfit._sse_floor`), so (cnt + p_arc, acc + floor) bounds the
candidate's cost.  The scan takes candidates from the range heap while
their bound (cnt + p_arc, acc) is below the incumbent and at most the
smallest floor key waiting, and pushes each under its floor key; it
evaluates the waiting candidate with the smallest key while that key is at
most the incumbent, and stops once the incumbent is below every key left.
Every candidate whose key is at most the final incumbent is so evaluated,
and the tie rule (segments before arcs, then the larger k') does not
depend on the order of evaluation: the scan ends with the same T and back
pointers as one that evaluates every candidate below the incumbent.

Most evaluated candidates are still infeasible, and consecutive ones share
almost all of their range.  The scan keeps a blocker cache: for each of the
last BLOCKER_LISTS candidates whose tolerance-interval fit came out empty,
the points it had intersected up to that moment.  Before any O(window)
work, a candidate intersects the bisector centre intervals, for its own
anchors, of at most PROBE_POINTS cached points strictly inside its range,
and is rejected when nothing is left.  The probe and `fit_arc_by_tolerance`
share one loop, `arcfit._feasible_centres`: the probe computes the very
float intervals that the fit computes for those points on the full window,
and intersecting closed intervals does not depend on their order, so an
empty probe means an empty fit: the candidate would have been rejected
anyway.  Only the least-squares accept, which checks residuals with a slack
of about 1e-12 instead of the intervals, could have accepted such a
candidate, inside that slack's float-dust band.  A candidate that passes
the probe gets the quick least-squares fit, the secant polish when that arc
is within tolerance, and the interval fit when the polished arc fails or
the quick one was not within tolerance (`_evaluate_arc`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from operator import sub
from typing import List, Optional, Sequence, Tuple

from .arcfit import (FittedArc, _feasible_centres, _sse_floor, arc_within_tolerance, densify,
                     direction_and_endpoint_check, fit_arc_by_tolerance, fit_arc_least_squares)
from .feasibility import build_fit_index_arrays, test_arcs, test_segments
from .hulltree import HullTree
from .sortedrange import MergeTree

PenaltyPair = Tuple[int, float]

BLOCKER_LISTS = 2  # rejections whose blockers the arc scan remembers
PROBE_POINTS = 8  # cached blockers a candidate re-tests at most
# largest grid coordinate magnitude: the fits and checks compute on floats,
# which hold every integer up to here exactly
MAX_GRID_COORD = 2 ** 53


@dataclass
class CompressionParams:
    tolerance: float = 1.0  # grid units
    penalty_segment: int = 2
    penalty_arc: int = 3
    min_arc_points: int = 4
    max_arc_points: int = 512  # 0 = unlimited
    mode: str = "vertices"  # "vertices" | "segments"

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


class _Moments:
    """Exact prefix sums, as Python ints, of 1, x, y, x^2, xy, y^2,
    x*|p|^2, y*|p|^2 and |p|^4 over the grid points: O(1) exact sums over
    any vertex range, for the segment SSE and the arc SSE floor."""

    def __init__(self, pts):
        row = (0,) * 9
        rows = [row]
        for x, y in pts:
            w = x * x + y * y
            c, sx, sy, sxx, sxy, syy, sxw, syw, sww = row
            row = (c + 1, sx + x, sy + y, sxx + x * x, sxy + x * y, syy + y * y,
                   sxw + x * w, syw + y * w, sww + w * w)
            rows.append(row)
        self.rows = rows
        self.pts = pts

    def range_sse(self, i: int, j: int) -> float:
        """Sum over i..j of squared distance to the line through pts[i], pts[j]
        (to the point pts[i] when the two coincide)."""
        ax, ay = self.pts[i]
        bx, by = self.pts[j]
        dx = bx - ax
        dy = by - ay
        len_sq = dx * dx + dy * dy
        cnt, sx, sy, sxx, sxy, syy, *_ = map(sub, self.rows[j + 1], self.rows[i])
        if len_sq == 0:
            # coincident anchors: no line, the deviation is from the anchor
            return float(sxx - 2 * ax * sx + cnt * ax * ax + syy - 2 * ay * sy + cnt * ay * ay)
        # cross_t = dx*(y_t - ay) - dy*(x_t - ax); sum cross_t^2 expanded
        c = dx * ay - dy * ax  # cross = dx*y - dy*x - c0 with c0 = dx*ay - dy*ax
        total = (dx * dx * syy + dy * dy * sxx - 2 * dx * dy * sxy
                 - 2 * c * (dx * sy - dy * sx) + cnt * c * c)
        return total / len_sq

    def arc_sums(self, i: int, j: int) -> Tuple[int, int, int]:
        """The integers G = sum g^2, L*P = sum g*f and L^2*E = sum f^2 over
        i..j of `arcfit._sse_floor`, with anchors a = pts[i], b = pts[j],
        g = (p - a).(p - b) and f = (p - a).(a_y - b_y, b_x - a_x)."""
        ax, ay = self.pts[i]
        bx, by = self.pts[j]
        cx, cy = ax + bx, ay + by
        nx, ny = ay - by, bx - ax
        ab = ax * bx + ay * by  # g = |p|^2 - c.p + ab
        an = nx * ax + ny * ay  # f = n.p - an
        cnt, sx, sy, sxx, sxy, syy, sxw, syw, sww = map(sub, self.rows[j + 1], self.rows[i])
        sw = sxx + syy
        cp = cx * sx + cy * sy
        np_ = nx * sx + ny * sy
        g = (sww - 2 * (cx * sxw + cy * syw) + cx * (cx * sxx + 2 * cy * sxy) + cy * cy * syy
             + ab * (2 * (sw - cp) + cnt * ab))
        lp = (nx * sxw + ny * syw - an * sw - cx * (nx * sxx + ny * sxy) - cy * (nx * sxy + ny * syy)
              + an * cp + ab * (np_ - cnt * an))
        l2e = nx * (nx * sxx + 2 * ny * sxy) + ny * ny * syy - an * (2 * np_ - cnt * an)
        return g, lp, l2e

    def arc_floor(self, i: int, j: int) -> float:
        """`arcfit._sse_floor` of the range i..j: no arc through pts[i] and
        pts[j] that `_evaluate_arc` can return has a smaller SSE."""
        return _sse_floor(j - i + 1, self.pts[i], self.pts[j], *self.arc_sums(i, j))


def compress(polyline: Sequence[Tuple[int, int]], params: CompressionParams) -> CompressedPolyline:
    """Globally optimal decomposition into vertex-anchored segments and arcs."""
    pts = [tuple(p) for p in polyline]
    if any(abs(c) > MAX_GRID_COORD for p in pts for c in p):
        raise ValueError("grid coordinates must lie within +-2**53: "
                         "use a larger tolerance or smaller coordinates")
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
    moments = _Moments(pts)

    _, seg_arrays = test_segments(pts, tol, tree)
    arc_pairs = test_arcs(pts, tol, params.max_arc_points)
    first_seg_ok = seg_arrays.first  # first k' where a segment may fit
    first_arc_ok = build_fit_index_arrays(arc_pairs, n).first

    T: List[PenaltyPair] = [(0, 0.0)]
    back: List[Optional[Tuple[int, str, Optional[FittedArc]]]] = [None]
    mtree = MergeTree()
    mtree.append(T[0])
    seg_evals = arc_evals = floor_drops = 0
    tol_f = float(tol)
    blockers = _BlockerCache()

    def offer(kp: int, arc: Optional[FittedArc]) -> None:
        """Make the arc from kp to k the incumbent when it beats it."""
        nonlocal best, best_back
        if arc is None:
            return
        cand = (T[kp][0] + p_arc, T[kp][1] + arc.sse)
        if cand < best or (cand == best and best_back[1] == "arc" and kp > best_back[0]):
            best = cand
            best_back = (kp, "arc", arc)

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
                if not direction_and_endpoint_check(pts[kp:k + 1], (pts[kp], pts[k])):
                    continue
                cand = (cnt + p_seg, acc + moments.range_sse(kp, k))
                if cand < best or (cand == best and best_back[1] == "segment" and kp > best_back[0]):
                    best = cand
                    best_back = (kp, "segment", None)

        lo = first_arc_ok[k]
        if params.max_arc_points:
            lo = max(lo, k - params.max_arc_points + 1)
        hi = k - (params.min_arc_points - 1)
        if lo <= hi:
            heap = mtree.open_range(lo, hi)
            item = heap.pop_min()
            waiting: List[Tuple[PenaltyPair, int]] = []  # (cost bound with floor, kp)
            while True:
                # take candidates in ascending order of their cost bound
                # while it is below the incumbent and no waiting floor is
                # smaller
                while item is not None:
                    (cnt, acc), kp = item
                    bound = (cnt + p_arc, acc)
                    if not bound < best or (waiting and waiting[0][0] < bound):
                        break
                    if pts[kp] != pts[k]:  # an arc needs two distinct anchors
                        heappush(waiting, ((cnt + p_arc, acc + moments.arc_floor(kp, k)), kp))
                    item = heap.pop_min()
                if not waiting or best < waiting[0][0]:
                    break
                kp = heappop(waiting)[1]
                arc_evals += 1
                offer(kp, _evaluate_arc(pts, kp, k, tol_f, blockers))
            floor_drops += len(waiting)

        T.append(best)
        back.append(best_back)
        mtree.append(best)

    prims = reconstruct(back, pts)
    return CompressedPolyline(prims, T[n - 1], pts,
                              stats={"segment_evaluations": seg_evals,
                                     "arc_evaluations": arc_evals,
                                     "arc_floor_drops": floor_drops,
                                     "arc_probe_rejections": blockers.probe_rejections,
                                     "arc_polishes": blockers.polishes})


class _BlockerCache:
    """Points that blocked the arc scan's last rejections (module docstring),
    and the scan's counts of what `_evaluate_arc` did.

    `lists` holds, newest first, the blocker lists (indices into the
    compressor's points) of the last BLOCKER_LISTS candidates whose
    tolerance-interval fit came out empty; `probe_rejections` counts the
    candidates the probe rejected, `polishes` those whose quick arc was
    within tolerance and so got the least-squares polish.
    """

    def __init__(self):
        self.lists: List[List[int]] = []
        self.probe_rejections = 0
        self.polishes = 0

    def rejects(self, pts, kp, k, tol) -> bool:
        """True when the centre intervals of the first PROBE_POINTS distinct
        cached points strictly inside (kp, k), for the anchors pts[kp] and
        pts[k], have an empty intersection."""
        probe: List[int] = []
        for j in chain.from_iterable(self.lists):
            if kp < j < k and j not in probe:
                probe.append(j)
                if len(probe) == PROBE_POINTS:
                    break
        return not _feasible_centres(pts[kp], pts[k], (pts[j] for j in probe), tol)[0]

    def record(self, kp: int, blocked: List[int]) -> None:
        """Remember the blockers of a window starting at kp (window indices)."""
        self.lists.insert(0, [kp + i for i in blocked])
        del self.lists[BLOCKER_LISTS:]


def _evaluate_arc(pts, kp, k, tol, blockers: Optional[_BlockerCache] = None) -> Optional[FittedArc]:
    """The arc from pts[kp] to pts[k] within tol of every point between, or
    None: the quick least-squares fit, polished when it is within tol, and
    the tolerance-interval fit when the polished arc fails or the quick one
    was not within tol.

    With a blocker cache, the probe runs first and rejects the candidate
    before any O(window) fit when the cached blockers inside (kp, k) leave
    no centre; the candidate would fail the interval fit for the same
    reason (module docstring).  An interval fit that comes out empty
    records its blockers in the cache.  Without a cache the result is the
    plain fit's, which the reference DP relies on.
    """
    if pts[kp] == pts[k]:
        return None  # an arc needs two distinct anchors
    if blockers is not None and blockers.rejects(pts, kp, k, tol):
        blockers.probe_rejections += 1
        return None
    chunk = pts[kp:k + 1]
    seed = fit_arc_least_squares(chunk, polish=False, with_sse=False)
    if not seed.segment_like and arc_within_tolerance(seed, chunk, tol, check_span=False):
        if blockers is not None:
            blockers.polishes += 1
        arc = fit_arc_least_squares(chunk)
        if not arc.segment_like and arc_within_tolerance(arc, chunk, tol) \
                and direction_and_endpoint_check(chunk, arc):
            return arc
    blocked: Optional[List[int]] = None if blockers is None else []
    arc = fit_arc_by_tolerance(chunk, tol=tol, seed_arc=seed, blockers=blocked)
    if blocked:
        blockers.record(kp, blocked)
    if arc is None or arc.segment_like:
        return None
    if not arc_within_tolerance(arc, chunk, tol):
        return None
    if not direction_and_endpoint_check(chunk, arc):
        return None
    return arc


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
