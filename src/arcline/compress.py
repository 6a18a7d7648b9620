"""Minimum-penalty compression of a polyline into segments and arcs.

Costs are lexicographic pairs (primitive-count penalty, summed squared
deviations): a segment costs 2, an arc 3, so segments win ties.  For each
end vertex k the scan over start candidates k' runs in ascending order of
their accumulated cost through a mergesort-tree range heap and stops at the
first candidate whose cost bound already meets the incumbent.  Feasibility
tables bound the scans: no candidate beyond the first index where an arc
(or a segment strip) can still cover the range is ever touched.

Most arc candidates that survive those bounds are still infeasible, and
consecutive candidates share almost all of their range.  The scan keeps a
blocker cache: for each of the last BLOCKER_LISTS candidates whose
tolerance-interval fit came out empty, the points it had intersected up to
that moment.  Before any O(window) work, a candidate intersects the bisector
centre intervals, for its own anchors, of at most PROBE_POINTS cached points
strictly inside its range, and is rejected when nothing is left.  The probe
and `fit_arc_by_tolerance` share one loop, `arcfit._feasible_centres`: the
probe computes the very float intervals that the fit computes for those
points on the full window, and intersecting closed intervals does not
depend on their order, so an empty probe means an empty fit: the candidate
would have been rejected anyway.  Only the least-squares accept, which
checks residuals with a slack of about 1e-12 instead of the intervals, could
have accepted such a candidate, inside that slack's float-dust band.

A candidate that passes the probe gets the quick least-squares fit; when
that arc is within tolerance the candidate is worth polishing (the secant
iteration on the geometric residual, then the interval fit if the polished
arc fails), yet most such candidates lose to the incumbent.  The quick fit
also yields `sse_floor`, a certified lower bound on the SSE of every arc
through the two anchors (`arcfit._sse_floor`), so (cnt + p_arc, acc +
sse_floor) bounds the candidate's cost.  Such candidates wait in a heap
under that key.  Before the scan takes its next candidate, whose cost is at
least (cnt + p_arc, acc) of its heap entry, it polishes, smallest key
first, every waiting candidate whose key is at most that pair, and it drops
them all once the incumbent is below the smallest key.  Every candidate
that could win or tie is so polished before the scan passes its bound: the
scan takes the same candidates and ends with the same T and back pointers
as one that polishes each candidate at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from .arcfit import (FittedArc, _feasible_centres, arc_within_tolerance, densify,
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
        """Sum over i..j of squared distance to the line through pts[i], pts[j]
        (to the point pts[i] when the two coincide)."""
        ax, ay = self.pts[i]
        bx, by = self.pts[j]
        dx = bx - ax
        dy = by - ay
        len_sq = dx * dx + dy * dy
        cnt = j - i + 1
        sx = self.sx[j + 1] - self.sx[i]
        sy = self.sy[j + 1] - self.sy[i]
        sxx = self.sxx[j + 1] - self.sxx[i]
        syy = self.syy[j + 1] - self.syy[i]
        if len_sq == 0:
            # coincident anchors: no line, the deviation is from the anchor
            return float(sxx - 2 * ax * sx + cnt * ax * ax + syy - 2 * ay * sy + cnt * ay * ay)
        sxy = self.sxy[j + 1] - self.sxy[i]
        # cross_t = dx*(y_t - ay) - dy*(x_t - ax); sum cross_t^2 expanded
        c = dx * ay - dy * ax  # cross = dx*y - dy*x - c0 with c0 = dx*ay - dy*ax
        total = (dx * dx * syy + dy * dy * sxx - 2 * dx * dy * sxy
                 - 2 * c * (dx * sy - dy * sx) + cnt * c * c)
        return total / len_sq


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
    sse = _SegSse(pts)

    _, seg_arrays = test_segments(pts, tol, tree)
    arc_pairs = test_arcs(pts, tol, params.max_arc_points)
    first_seg_ok = seg_arrays.first  # first k' where a segment may fit
    first_arc_ok = build_fit_index_arrays(arc_pairs, n).first

    T: List[PenaltyPair] = [(0, 0.0)]
    back: List[Optional[Tuple[int, str, Optional[FittedArc]]]] = [None]
    mtree = MergeTree()
    mtree.append(T[0])
    seg_evals = arc_evals = arc_polishes = 0
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
            pending: List[tuple] = []
            while True:
                item = heap.pop_min()
                limit = None if item is None else (item[0][0] + p_arc, item[0][1])
                # polish, best key first, the waiting candidates that could
                # still beat the incumbent or tie the next candidate's bound
                while (entry := _take_pending(pending, limit, best)) is not None:
                    arc_polishes += 1
                    _, kp, quick = entry
                    offer(kp, _evaluate_arc(pts, kp, k, tol_f, blockers, quick))
                if item is None or best <= limit:
                    break
                (cnt, acc), kp = item
                arc_evals += 1
                quick = _quick_arc(pts, kp, k, tol_f, blockers)
                if quick is None:
                    continue
                if quick[1]:  # worth polishing: wait under a bound on the cost
                    heappush(pending, ((cnt + p_arc, acc + quick[0].sse_floor), kp, quick))
                else:
                    offer(kp, _evaluate_arc(pts, kp, k, tol_f, blockers, quick))

        T.append(best)
        back.append(best_back)
        mtree.append(best)

    prims = reconstruct(back, pts)
    return CompressedPolyline(prims, T[n - 1], pts,
                              stats={"segment_evaluations": seg_evals,
                                     "arc_evaluations": arc_evals,
                                     "arc_probe_rejections": blockers.probe_rejections,
                                     "arc_polishes": arc_polishes})


class _BlockerCache:
    """Points that blocked the arc scan's last rejections (module docstring).

    `lists` holds, newest first, the blocker lists (indices into the
    compressor's points) of the last BLOCKER_LISTS candidates whose
    tolerance-interval fit came out empty; `probe_rejections` counts the
    candidates the probe rejected.
    """

    def __init__(self):
        self.lists: List[List[int]] = []
        self.probe_rejections = 0

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


def _quick_arc(pts, kp, k, tol,
               blockers: Optional[_BlockerCache] = None) -> Optional[Tuple[FittedArc, bool]]:
    """The cheap half of `_evaluate_arc`: None when the anchors coincide or
    the blocker probe rejects the candidate, else the quick least-squares
    arc (its `sse_floor` set) and whether it is within tol of every point,
    which makes the candidate worth polishing."""
    a, b = pts[kp], pts[k]
    if a == b:
        return None  # an arc needs two distinct anchors
    if blockers is not None and blockers.rejects(pts, kp, k, tol):
        blockers.probe_rejections += 1
        return None
    chunk = pts[kp:k + 1]
    quick = fit_arc_least_squares(chunk, polish=False, with_sse=False)
    return quick, not quick.segment_like and arc_within_tolerance(quick, chunk, tol, check_span=False)


def _evaluate_arc(pts, kp, k, tol, blockers: Optional[_BlockerCache] = None,
                  quick: Optional[Tuple[FittedArc, bool]] = None) -> Optional[FittedArc]:
    """Least-squares fit first; tolerance-interval fit as the fallback.

    With a blocker cache, the probe runs first and rejects the candidate
    before any O(window) fit when the cached blockers inside (kp, k) leave
    no centre; the candidate would fail the interval fit for the same
    reason (module docstring).  An interval fit that comes out empty
    records its blockers in the cache.  Without a cache the result is the
    plain fit's, which the reference DP relies on.  `quick`, when given, is
    what `_quick_arc` returned for this candidate; the evaluation goes on
    from there.
    """
    if quick is None:
        quick = _quick_arc(pts, kp, k, tol, blockers)
        if quick is None:
            return None
    seed, viable = quick
    chunk = pts[kp:k + 1]
    if viable:
        arc = fit_arc_least_squares(chunk)  # polish only once a fit is viable
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


def _take_pending(pending: list, limit: Optional[PenaltyPair], best: PenaltyPair):
    """Pop the entry (key, kp, quick) with the smallest key from the heap
    `pending` when that key is at most both `limit` (None: no limit) and
    `best`, else None.  Once `best` is below the smallest key, every entry
    is dropped: keys are lower bounds on what the candidates can cost and
    the incumbent never gets worse."""
    if not pending:
        return None
    key = pending[0][0]
    if best < key:
        pending.clear()
        return None
    if limit is not None and limit < key:
        return None
    return heappop(pending)


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
