"""Minimum-penalty compression of a polyline into segments and arcs.

Costs are lexicographic pairs (primitive-count penalty, summed squared
deviations): a segment costs 2, an arc 3, so segments win ties.  For each
end vertex k the scan over start candidates k' runs in ascending order of
their accumulated cost through a mergesort-tree range heap and stops at the
first candidate whose cost bound already exceeds the incumbent.  Feasibility
tables bound the scans: no candidate below the first index where an arc or
a segment can still cover the range is ever touched.  The arc table's
windows are decided by the anchored cut's test below, at twice the check's
limit and about the window's last vertex, after a one-line witness that
settles most feasible windows without changing any verdict
(`arcfit.arc_exists_within_tolerance`).  The segment table comes from a
cone walk back from each end vertex (`feasibility.test_segments`), which
also decides each segment candidate: certainly in, certainly out, or
unsure.  The scan answers a certain verdict in O(1), and only an unsure
one runs the exact strip test and the direction check, so a candidate is
accepted exactly when those checks would accept it.

Arc candidates are evaluated best-first under a floor.  Exact prefix
moments of the grid points (`arcfit._Moments`, one prefix list per moment)
give, in O(1) per candidate, the sums behind the DP's arc cost as a
function of the centre on the bisector of its two anchors
(`_Moments.arc_sums`), and the minimum of that function: the cost of the
candidate's least-squares arc (`_Moments.arc_floor`).  The scan computes
those sums once per candidate it floors and keeps them with the candidate
while it waits; an evaluated candidate's fits are priced from them.  Every
arc `_evaluate_arc` returns is priced from the same sums
(`arcfit._arc_cost`) and costs at least that, so
(cnt + p_arc, acc + floor) bounds the candidate's cost.  The scan takes
candidates from the range heap while their bound (cnt + p_arc, acc) is at
or below the incumbent and at most the smallest floor key waiting, and
pushes each under its floor key; it evaluates the waiting candidate with
the smallest key while that key is at most the incumbent, and stops once
the incumbent is below every key left.
Every candidate whose key is at most the final incumbent is so evaluated,
and the tie rule (segments before arcs, then the larger k') does not
depend on the order of evaluation: the scan ends with the same T and back
pointers as one that evaluates every candidate at or below the incumbent.
The segment scan, too, evaluates every candidate whose bound is at or
below the incumbent: one whose bound equals it ties it when its own SSE
is 0.

Most evaluated candidates are still infeasible, and consecutive ones share
almost all of their range.  The scan keeps a blocker cache: the points that
the last candidate whose tolerance-interval fit came out empty had
intersected up to that moment.  Before any O(window) work, a candidate
intersects the bisector centre intervals, for its own anchors, of the
first PROBE_POINTS cached points strictly inside its range, and is
rejected when nothing is left.  The probe and `fit_arc_by_tolerance`
share one loop, `arcfit._feasible_centres`: the probe computes the very
float intervals that the fit computes for those points on the full window,
and intersecting closed intervals does not depend on their order, so an
empty probe means an empty fit: the candidate would have been rejected
anyway.  Only the least-squares accept, which checks residuals against
tol*(1 + 1e-9) instead of the intervals, could have accepted such a
candidate, inside that allowance.  A candidate that passes the probe gets
the arc that minimises its own cost, the minimiser and the cost in closed
form from the same sums, in O(1) (`arcfit.fit_arc_least_squares`).  That
arc is accepted when it passes the tolerance and direction checks, and the
interval fit, which prices its interval ends from those sums too, takes
over when it does not (`_evaluate_arc`).  Both checks are exact:
every vertex an accepted arc covers lies within tol*(1 + 1e-9) of the
float centre and radius it returns (`arcfit.arc_within_tolerance`), and
the vertices' angles about that centre, from the start anchor in the
arc's orientation, never decrease and never complete a turn, by two cross
products per vertex (`arcfit.direction_and_endpoint_check`); each is
decided in floats with a derived error bound and in rationals where the
bound cannot tell.

Before the first of these, the scan cuts away the arcs that are too long
(`_AnchoredCut`).  Every arc the DP can accept from k' to k is a circle
through pts[k] within `arcfit._anchor_slack` of pts[k'..k]: the fit
check's tol*(1 + 1e-9), plus the rounding of the arc's centre for a
radius up to SEGMENT_LIKE_RADIUS_FACTOR times the polyline's diameter.
When no circle through pts[k] is within that distance of
`arcfit.ANCHOR_POINTS` evenly spaced points of pts[m..k-1]
(`arcfit._anchor_sample`; `arcfit._no_circle_through`: an inversion about
pts[k] turns such circles into lines that cross discs, and a pair of discs
allows one arc of line directions), no start k' <= m can have an arc, and
the scan opens its range at m + 1.  The cut relaxes the DP's own arc set,
so it changes nothing but the work: the candidates at or below m are never
popped, floored or probed.  The search for m runs only when the range's
smallest cost (`MergeTree.range_min`) is at or below the incumbent,
starting one above the last cut found; otherwise the arc scan has nothing
to evaluate.  The scan opens its range heap once, after the cut.
"""

from __future__ import annotations

import math
import numbers
import sys
from heapq import heappop, heappush
from typing import List, Optional, Sequence, Tuple

from .arcfit import (FittedArc, _anchor_sample, _anchor_slack, _feasible_centres, _Moments,
                     _no_circle_through, arc_within_tolerance, densify,
                     direction_and_endpoint_check, fit_arc_by_tolerance, fit_arc_least_squares)
from .feasibility import (SEGMENT_OUT, SEGMENT_UNSURE, build_fit_index_arrays, test_arcs,
                          test_segments)
from .hulltree import HullTree
from .predicates import exact_ratio
from .records import Record
from .sortedrange import MergeTree

PenaltyPair = Tuple[int, float]

PROBE_POINTS = 8  # cached blockers a candidate re-tests at most
# largest grid coordinate magnitude: the fits and checks compute on floats,
# which hold every integer up to here exactly
MAX_GRID_COORD = 2 ** 53
_FLOAT_MAX = int(sys.float_info.max)  # the largest finite float, exactly


class CompressionParams(Record):
    __slots__ = ("tolerance", "penalty_segment", "penalty_arc", "min_arc_points", "mode")

    def __init__(self, tolerance: float = 1.0, penalty_segment: int = 2, penalty_arc: int = 3,
                 min_arc_points: int = 4, mode: str = "vertices"):
        self.tolerance = _check_tolerance(tolerance)  # grid units
        self.penalty_segment = _int_param("penalty_segment", penalty_segment, 1)
        self.penalty_arc = _int_param("penalty_arc", penalty_arc, 1)
        if mode not in ("vertices", "segments"):
            raise ValueError("unknown mode")
        self.min_arc_points = _int_param("min_arc_points", min_arc_points, 4)
        self.mode = mode  # "vertices" | "segments"


def _check_tolerance(tolerance):
    """`tolerance` when it is a positive real number whose float is finite,
    as a Python number of its value: Integrals (numpy's too) as ints, other
    Rationals as they are, and floats of any width as floats (a Fraction
    where a float would round).  The bounds are tested on its exact ratio
    (`predicates.exact_ratio`), so a numpy scalar is never cast to meet the
    float range's limit."""
    try:
        num, den = exact_ratio(tolerance) if isinstance(tolerance, numbers.Real) else (0, 1)
    except (OverflowError, ValueError, AttributeError):  # inf, NaN or no exact ratio
        num, den = 0, 1
    if not 0 < num <= _FLOAT_MAX * den:
        raise ValueError(f"tolerance must be a positive, finite real number, got {tolerance!r}")
    if isinstance(tolerance, numbers.Integral):
        return int(tolerance)
    if isinstance(tolerance, numbers.Rational):
        return tolerance
    f = num / den
    if f.as_integer_ratio() == (num, den):
        return f
    from fractions import Fraction

    return Fraction(num, den)


def _int_param(name: str, value, least: int) -> int:
    """`value` as an int when it is an integer of at least `least`."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


class Primitive(Record):
    __slots__ = ("kind", "start_idx", "end_idx", "start", "end", "center", "radius",
                 "orientation")

    def __init__(self, kind: str, start_idx: int, end_idx: int, start: Tuple[float, float],
                 end: Tuple[float, float], center: Optional[Tuple[float, float]] = None,
                 radius: Optional[float] = None, orientation: Optional[str] = None):
        self.kind = kind  # "segment" | "arc"
        self.start_idx = start_idx
        self.end_idx = end_idx
        self.start = start  # the vertex at start_idx
        self.end = end  # the vertex at end_idx
        self.center = center
        self.radius = radius
        self.orientation = orientation


class CompressedPolyline(Record):
    __slots__ = ("primitives", "total", "points", "stats")

    def __init__(self, primitives: List[Primitive], total: PenaltyPair,
                 points: List[Tuple[int, int]], stats: Optional[dict] = None):
        self.primitives = primitives
        self.total = total
        self.points = points  # the polyline the indices refer to
        self.stats = {} if stats is None else stats


def _grid_coord(c) -> int:
    """A grid coordinate as an int (see `compress`)."""
    if isinstance(c, numbers.Integral) or (isinstance(c, float) and c.is_integer()):
        value = int(c)
    else:
        raise ValueError(f"grid coordinates must be integers, got {c!r}: "
                         "compress_polyline snaps float input to a grid")
    if abs(value) > MAX_GRID_COORD:
        raise ValueError("grid coordinates must lie within +-2**53: "
                         "use a larger tolerance or smaller coordinates")
    return value


def compress(polyline: Sequence[Tuple[int, int]], params: CompressionParams) -> CompressedPolyline:
    """Globally optimal decomposition into vertex-anchored segments and arcs.

    `stats` counts the work: `segment_evaluations` and `arc_evaluations`
    the candidates evaluated, `segment_fallbacks` the evaluated segment
    candidates the cone walk left unsure, which ran the exact checks,
    `arc_floor_drops` the arc candidates that got an SSE floor but were
    never evaluated, `arc_probe_rejections` the evaluated ones the blocker
    probe rejected before any fit, `arc_anchor_cut` the start indices the
    anchored cut took out of arc scans, and `anchor_tests` its
    `_no_circle_through` calls.

    Coordinates must be integers within +-MAX_GRID_COORD (floats with an
    integral value are taken as those integers); anything else raises
    ValueError.  `pipeline.compress_polyline` snaps float input to a grid.
    """
    pts = [(_grid_coord(x), _grid_coord(y)) for x, y in polyline]
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

    segs = test_segments(pts, tol)
    arc_pairs = test_arcs(pts, tol)
    first_seg_ok = segs.first  # first k' where a segment may fit
    first_arc_ok = build_fit_index_arrays(arc_pairs, n).first

    T: List[PenaltyPair] = [(0, 0.0)]
    back: List[Optional[Tuple[int, str, Optional[FittedArc]]]] = [None]
    mtree = MergeTree()
    mtree.append(T[0])
    seg_evals = seg_fallbacks = arc_evals = floor_drops = 0
    tol_f = float(tol)
    blockers = _BlockerCache()
    anchor = _AnchoredCut(pts, tol_f)

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
                if best < (cnt + p_seg, acc):
                    break
                seg_evals += 1
                verdict = segs.verdict(kp, k)
                if verdict == SEGMENT_OUT:
                    continue
                if verdict == SEGMENT_UNSURE:
                    seg_fallbacks += 1
                    if not tree.segment_within_tolerance(kp, k, pts[kp], pts[k], tol):
                        continue
                    if not direction_and_endpoint_check(pts[kp:k + 1], (pts[kp], pts[k])):
                        continue
                cand = (cnt + p_seg, acc + moments.range_sse(kp, k))
                if cand < best or (cand == best and best_back[1] == "segment" and kp > best_back[0]):
                    best = cand
                    best_back = (kp, "segment", None)

        lo = first_arc_ok[k]
        hi = k - (params.min_arc_points - 1)
        if lo <= hi:
            # nothing to evaluate unless the first candidate is at or below
            # the incumbent; then the anchored cut narrows the range
            (cnt, acc), _ = mtree.range_min(lo, hi)
            lo = anchor.below(k, lo, hi) + 1 if (cnt + p_arc, acc) <= best else hi + 1
        if lo <= hi:
            heap = mtree.open_range(lo, hi)
            item = heap.pop_min()
            # (cost bound with floor, kp, the candidate's `arc_sums`); kp is
            # unique, so the sums are never compared
            waiting: List[Tuple[PenaltyPair, int, tuple]] = []
            while True:
                # take candidates in ascending order of their cost bound
                # while it is at or below the incumbent and no waiting floor
                # is smaller
                while item is not None:
                    (cnt, acc), kp = item
                    bound = (cnt + p_arc, acc)
                    if best < bound or (waiting and waiting[0][0] < bound):
                        break
                    if pts[kp] != pts[k]:  # an arc needs two distinct anchors
                        sums = moments.arc_sums(kp, k)
                        heappush(waiting, ((cnt + p_arc, acc + moments.arc_floor(kp, k, sums)),
                                           kp, sums))
                    item = heap.pop_min()
                if not waiting or best < waiting[0][0]:
                    break
                _, kp, sums = heappop(waiting)
                arc_evals += 1
                offer(kp, _evaluate_arc(pts, kp, k, tol_f, blockers, sums))
            floor_drops += len(waiting)

        T.append(best)
        back.append(best_back)
        mtree.append(best)

    prims = reconstruct(back, pts)
    return CompressedPolyline(prims, T[n - 1], pts,
                              stats={"segment_evaluations": seg_evals,
                                     "segment_fallbacks": seg_fallbacks,
                                     "arc_evaluations": arc_evals,
                                     "arc_floor_drops": floor_drops,
                                     "arc_probe_rejections": blockers.probe_rejections,
                                     "arc_anchor_cut": anchor.removed,
                                     "anchor_tests": anchor.tests})


class _BlockerCache:
    """Points that blocked the arc scan's last rejection (module docstring),
    and the scan's counts of what `_evaluate_arc` did.

    `blockers` holds the blockers (indices into the compressor's points,
    distinct) of the last candidate whose tolerance-interval fit came out
    empty; `probe_rejections` counts the candidates the probe rejected.
    """

    def __init__(self):
        self.blockers: List[int] = []
        self.probe_rejections = 0

    def rejects(self, pts, kp, k, tol) -> bool:
        """True when the centre intervals of the first PROBE_POINTS cached
        points strictly inside (kp, k), for the anchors pts[kp] and pts[k],
        have an empty intersection."""
        probe = [pts[j] for j in self.blockers if kp < j < k][:PROBE_POINTS]
        return not _feasible_centres(pts[kp], pts[k], probe, tol)[0]

    def record(self, kp: int, blocked: List[int]) -> None:
        """Remember the blockers of a window starting at kp (window indices)."""
        self.blockers = [kp + i for i in blocked]


class _AnchoredCut:
    """The arc scan's anchored cut (module docstring): for an end vertex k,
    a start m such that no circle through pts[k] is within `slack` of
    `arcfit.ANCHOR_POINTS` evenly spaced points of pts[m..k-1], so that no
    arc the DP can accept starts at or below m.

    `tests` counts the `_no_circle_through` calls, `removed` the start
    indices the cuts took out of arc scans.
    """

    def __init__(self, pts, tol: float):
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        coord = max(max(map(abs, xs)), max(map(abs, ys)))
        self.pts = pts
        self.slack = _anchor_slack(tol, math.hypot(max(xs) - min(xs), max(ys) - min(ys)),
                                  float(coord))
        self.last = 0  # the last cut found
        self.tests = 0
        self.removed = 0

    def rejects(self, m: int, k: int) -> bool:
        """True when no circle through pts[k] fits the points tested from
        pts[m..k-1]."""
        self.tests += 1
        return _no_circle_through(self.pts[k], _anchor_sample(self.pts, m, k), self.slack)

    def below(self, k: int, lo: int, hi: int) -> int:
        """A cut m in [lo, hi] for the end vertex k, or lo - 1 when none is
        found.  The cut usually moves by a vertex or none from one k to the
        next, so the search starts one above the last cut and gallops up
        from there when that start is cut, down when not, then bisects
        between the highest start found cut and the lowest found not; a
        start it tests and finds cut is a cut, whether or not the tests are
        monotone in m."""
        good = lo - 1
        bad = min(max(lo, self.last + 1), hi)
        if self.rejects(bad, k):
            good, bad = bad, hi + 1
            step = 1
            while good < hi:
                m = min(good + step, hi)
                if not self.rejects(m, k):
                    bad = m
                    break
                good = m
                step *= 2
        else:
            step = 1
            while bad > lo:
                m = max(bad - step, lo)
                if self.rejects(m, k):
                    good = m
                    break
                bad = m
                step *= 2
            if good < lo:
                return good
        while bad - good > 1:
            m = (good + bad) // 2
            if self.rejects(m, k):
                good = m
            else:
                bad = m
        self.last = good
        self.removed += good - lo + 1
        return good


def _evaluate_arc(pts, kp, k, tol, blockers: Optional[_BlockerCache] = None,
                  sums=None) -> Optional[FittedArc]:
    """The arc from pts[kp] to pts[k] within tol of every point between, or
    None: the arc at the minimiser of its own SSE when that one passes the
    tolerance and direction checks, the tolerance-interval fit, seeded with
    it, when not.

    `sums` are the candidate's `_Moments.arc_sums`, which the scan computed
    for its floor; without them the fits sum the window's own moments, the
    same exact integers, so both give the same arc.  With a blocker cache, the
    probe runs first and rejects the candidate before any O(window) fit
    when the cached blockers inside (kp, k) leave no centre; the candidate
    would fail the interval fit for the same reason (module docstring).  An
    interval fit that comes out empty records its blockers in the cache.
    Without a cache the result is the plain fit's, which the reference DP
    relies on.
    """
    if pts[kp] == pts[k]:
        return None  # an arc needs two distinct anchors
    if blockers is not None and blockers.rejects(pts, kp, k, tol):
        blockers.probe_rejections += 1
        return None
    chunk = pts[kp:k + 1]
    arc = fit_arc_least_squares(chunk, sums)
    if not arc.segment_like and arc_within_tolerance(arc, chunk, tol) \
            and direction_and_endpoint_check(chunk, arc):
        return arc
    seed = arc
    blocked: Optional[List[int]] = None if blockers is None else []
    arc = fit_arc_by_tolerance(chunk, tol=tol, seed_arc=seed, blockers=blocked, sums=sums)
    if blocked:
        blockers.record(kp, blocked)
    # the fit returns the seed, which failed the checks above, or an
    # interval-end arc that passed `arc_within_tolerance` inside it
    if arc is None or arc is seed or arc.segment_like:
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
